"""Byte-identity of the command line between two source trees.

    python tests/cli_identity.py OLD_TREE NEW_TREE [--seeds 1 2]

Each tree is a checkout whose `src/deacp` is the package under test. For each
tree, one child interpreter with PYTHONHASHSEED=0 imports that tree's deacp
and runs `deacp.cli.main` in-process, the spec on standard input, on the
four workload plans of this checkout's bench/workloads.py, at each seed:
`parse` once per spec, and on malformed copies of it (cut short at five
fractions of its length, or with a stray `$` in its middle); every op
(`lts`, `lts --cond`, `bisim`, `ab-bisim`, `dnii` or `prove`), and
`linearize` on both sides of every `prove`; and `conjecture --pairs 40
--seed SEED` once per seed; then, once, the runs of FIXED_OPS and `cfar`
on FIXED_SPEC; all with `--json`. The script prints every
run whose standard output, standard error or exit code differs between the
trees, with its first differing field and line, then their count, and exits
1; it exits 0 when every run agrees. It writes nothing,
under bench/ or elsewhere.

This is a plain script: pytest does not collect it.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import subprocess
import sys

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")
# Each spec is also parsed cut short at these fractions of its length, and
# with a `$` inserted at its middle, so error messages and their positions
# are compared too.
TRUNCATIONS = (0.1, 0.3, 0.5, 0.7, 0.9)

# Paths no workload reaches: a synchronization, a BED lemma and a `cfar`
# step, and counterexamples of kind root-step, termination and step.
FIXED_SPEC = """domain 0..1
vars u, v
actions a, a/1, b, b/1, c, c/1, d
comm { a | b = c }
security { low = { u }; ext = { c, c/1 } }
proc FAIR = hide{a}(rec X where { X = [true] -> a . Y + [true] -> b . Z,
  Y = [true] -> a . X + [true] -> c . Z, Z = [true] -> epsilon })
proc FAIRV = b + tau . (b + c)
proc BED = hide{a}(b . (tau + tau . tau))
proc B = b
proc IMP2 = hide{a}([v = v] -> a . b)
proc TB = tau . b
proc TA = tau . a
proc A = a
proc GUARDED = [v = 0] -> epsilon + a
proc UNGUARDED = epsilon + a
proc SYNC = (a(v) . d || b(u)) + c(0)
proc SYNCV = c(v) . d + a(v) . (d || b(u)) + b(u) . a(v) . d + c(0)
proc LEAK = v := 1 . (a(v) || b(u))
"""
FIXED_OPS = (
    [{"kind": "prove", "left": left, "right": right}
     for left, right in (("BED", "B"), ("FAIR", "FAIRV"), ("IMP2", "TB"))]
    + [{"kind": kind, "left": left, "right": right} for kind in ("rb", "rab")
       for left, right in (("TA", "A"), ("GUARDED", "UNGUARDED"), ("SYNC", "SYNCV"))]
    + [{"kind": "lts_cond", "process": "SYNC"}, {"kind": "dnii", "process": "LEAK"}]
)


def cli_args(op) -> list:
    """The command lines one op runs: the op itself, then for `prove` the
    linearization of each side."""
    kind = op["kind"]
    if kind in ("lts", "lts_cond", "dnii"):
        args = ["dnii" if kind == "dnii" else "lts", "-", "--process", op["process"]]
        return [args + (["--cond"] if kind == "lts_cond" else []) + ["--json"]]
    command = {"rb": "bisim", "rab": "ab-bisim", "prove": "prove"}[kind]
    runs = [[command, "-", "--left", op["left"], "--right", op["right"], "--json"]]
    if kind == "prove":
        runs += [["linearize", "-", "--process", op[side], "--json"] for side in ("left", "right")]
    return runs


def run_cli(main, argv, text) -> dict:
    """stdout, stderr and exit code of one in-process `main(argv)` on `text`."""
    out, err = io.StringIO(), io.StringIO()
    stdin, sys.stdin = sys.stdin, io.StringIO(text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # a traceback the command line would show
                code = f"uncaught {type(exc).__name__}: {exc}"
    finally:
        sys.stdin = stdin
    return {"stdout": out.getvalue(), "stderr": err.getvalue(), "exit": code}


def child(tree, seeds) -> None:
    """Every run of one tree, as a JSON list on standard output."""
    sys.path[:0] = [os.path.join(tree, "src"), BENCH]
    import workloads
    from deacp.cli import main

    runs = []

    def record(where, argv, text):
        runs.append({"run": f"seed {where}: deacp {' '.join(argv)}", **run_cli(main, argv, text)})

    for seed in seeds:
        for workload in workloads.WORKLOADS:
            plan = workloads.make_plan(workload, seed)
            for name, text in plan["specs"].items():
                where = f"{seed} {workload} spec {name}"
                record(where, ["parse", "-", "--json"], text)
                for cut in TRUNCATIONS:
                    record(f"{where} cut at {cut}", ["parse", "-", "--json"],
                           text[:int(len(text) * cut)])
                middle = len(text) // 2
                record(f"{where} with a stray $", ["parse", "-", "--json"],
                       text[:middle] + "$" + text[middle:])
            for index, op in enumerate(plan["ops"]):
                for argv in cli_args(op):
                    record(f"{seed} {workload} op {index}", argv, plan["specs"][op["spec"]])
        record(seed, ["conjecture", "--json", "--pairs", "40", "--seed", str(seed)], "")
    for index, op in enumerate(FIXED_OPS):
        for argv in cli_args(op):
            record(f"fixed op {index}", argv, FIXED_SPEC)
    record("fixed", ["cfar", "-", "--process", "FAIR", "--json"], FIXED_SPEC)
    json.dump(runs, sys.stdout)


def first_difference(a: str, b: str) -> str:
    lines_a, lines_b = a.splitlines(), b.splitlines()
    for n, (x, y) in enumerate(zip(lines_a, lines_b), 1):
        if x != y:
            return f"line {n}:\n  - {x[:300]}\n  + {y[:300]}"
    n = min(len(lines_a), len(lines_b))
    return f"{len(lines_a)} lines against {len(lines_b)}, equal up to line {n}"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("trees", nargs="+", help="the two checkouts to compare")
    ap.add_argument("--seeds", type=int, nargs="+", default=[1, 2])
    ap.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.child:
        child(args.trees[0], args.seeds)
        return 0
    if len(args.trees) != 2:
        ap.error("give exactly two trees")
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1")
    results = []
    for tree in args.trees:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--child", tree,
             "--seeds", *map(str, args.seeds)],
            capture_output=True, text=True, env=env)
        if proc.returncode != 0:
            print(f"{tree}: child failed\n{proc.stderr.strip()[-2000:]}", file=sys.stderr)
            return 2
        results.append(json.loads(proc.stdout))
    old, new = results
    if len(old) != len(new):
        print(f"{len(old)} runs against {len(new)}")
        return 1
    seeds = " ".join(map(str, args.seeds))
    differing = 0
    for a, b in zip(old, new):
        field = next((f for f in ("exit", "stdout", "stderr") if a[f] != b[f]), None)
        if field is not None:
            detail = (f"{a[field]!r} against {b[field]!r}" if field == "exit"
                      else first_difference(a[field], b[field]))
            print(f"{a['run']}\n{field} differs: {detail}")
            differing += 1
    if differing:
        print(f"{differing} of {len(old)} runs differ (seeds {seeds})")
        return 1
    print(f"{len(old)} runs identical (seeds {seeds})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
