"""CPU-timed benchmark of deacp's layers.

    python3 bench/run.py                       # all four workloads, untraced then traced
    python3 bench/run.py --workload silent_par --seed 3 --seconds 30 --trace 0

One workload is a single-client closed loop: the next query starts when the
previous verdict has returned. The run repeats whole rounds of the workload's
fixed set of queries for --seconds seconds of wall time; each round runs in a
fresh interpreter (bench/worker.py) with PYTHONHASHSEED pinned, so every round
pays the set-up and cold caches a user's `deacp` command pays. All times are
CPU seconds of that interpreter (time.process_time), because on a shared
machine wall time also counts the time the core was given to someone else,
scaled to a reference machine speed (REFERENCE_SLICE_S below).

With --trace 0 the last line of standard output is a JSON object with the
end-to-end metrics; with --trace 1 it holds the per-layer metrics of traced
rounds, and the run also checks that verdicts and counts do not change under
tracing or under a second hash seed. Both modes check every output against
the oracles of bench/workloads.py and repeat one query through the command
line, whose exit code and JSON verdict must match the library's.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from tracer import COUNTERS, LAYER_OF, SELF_TIMES  # noqa: E402
from worker import canonical_sha  # noqa: E402

# Times are reported in reference seconds: each round's CPU seconds scaled by
# how fast that round ran a fixed calibration loop (worker.reference_work),
# relative to REFERENCE_SLICE_S per slice. On a shared two-vCPU machine the
# CPU seconds of a round moved by 8-16% (interquartile range) between runs
# minutes apart, and the calibration loop moved with them (bench/README.md).
REFERENCE_SLICE_S = 0.025
HASH_SEED = "0"
SECOND_HASH_SEED = "1"
MIN_ROUNDS = 3
ROUND_TIMEOUT_S = 150


def fail(message: str) -> int:
    print(f"bench: {message}", file=sys.stderr)
    return 2


def run_round(workload, seed, traced, hash_seed, spans_path=None) -> dict:
    request = {"root": ROOT, "workload": workload, "seed": seed, "traced": traced,
               "spans_path": spans_path}
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py")], input=json.dumps(request),
        capture_output=True, text=True, cwd=ROOT, env=env, timeout=ROUND_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"round of {workload} failed:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout)


def rounds_for(workload, seed, seconds, trace) -> list:
    """Whole rounds until the next one would end after `seconds` of wall time.

    Untraced runs time every round under the pinned hash seed. Traced runs
    cycle through an untraced round, a traced one and an untraced one under a
    second hash seed; the first two give the tracing overhead, all three must
    agree on every verdict and count.
    """
    cycle = [("plain", HASH_SEED)]
    if trace:
        cycle = [("plain", HASH_SEED), ("traced", HASH_SEED), ("rehash", SECOND_HASH_SEED)]
    spans_path = os.path.join(OUT, f"spans-{workload}.json") if trace else None
    if spans_path:
        os.makedirs(OUT, exist_ok=True)
    started = time.monotonic()
    rounds, walls = [], []
    while True:
        kind, hash_seed = cycle[len(rounds) % len(cycle)]
        begin = time.monotonic()
        out = run_round(workload, seed, kind == "traced", hash_seed,
                        spans_path if kind == "traced" else None)
        walls.append(time.monotonic() - begin)
        out["kind"] = kind
        rounds.append(out)
        if len(rounds) >= MIN_ROUNDS and \
                time.monotonic() - started + max(walls[-len(cycle):]) > seconds:
            return rounds


def check_rounds(rounds) -> list:
    """Oracle problems of every round, and any verdict or count that differs
    between rounds (hash seed, tracing)."""
    problems = []
    first = [op["digest"] for op in rounds[0]["ops"]]
    for n, rnd in enumerate(rounds):
        for i, op in enumerate(rnd["ops"]):
            problems += [f"round {n} ({rnd['kind']}) op {i}: {p}" for p in op["problems"]]
            if op["digest"] != first[i]:
                problems.append(f"round {n} ({rnd['kind']}) op {i}: {op['digest']} differs "
                                f"from round 0: {first[i]}")
    return problems


def cli_args(op) -> list:
    if op["kind"] == "lts":
        return ["lts", "-", "--process", op["process"], "--json"]
    if op["kind"] == "rb":
        return ["bisim", "-", "--left", op["left"], "--right", op["right"], "--json"]
    if op["kind"] == "dnii":
        return ["dnii", "-", "--process", op["process"], "--json"]
    if op["kind"] == "prove":
        return ["prove", "-", "--left", op["left"], "--right", op["right"], "--json"]
    raise ValueError(op["kind"])


def check_cli(plan, digest) -> list:
    """Repeat one query through `python -m deacp.cli ... --json`."""
    op = plan["ops"][plan["cli"]]
    env = dict(os.environ, PYTHONHASHSEED=HASH_SEED,
               PYTHONPATH=os.pathsep.join(filter(None, [os.path.join(ROOT, "src"),
                                                        os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "deacp.cli"] + cli_args(op),
                          input=plan["specs"][op["spec"]], capture_output=True, text=True,
                          cwd=ROOT, env=env, timeout=ROUND_TIMEOUT_S)
    try:
        payload = json.loads(proc.stdout)
    except ValueError:
        return [f"cli {op['kind']}: exit {proc.returncode}, no JSON: {proc.stderr.strip()[-300:]}"]
    if op["kind"] == "lts":
        seen, want, code = canonical_sha(payload), digest["json"], 0
    elif op["kind"] == "rb":
        seen, want = payload.get("equivalent"), digest["equivalent"]
        code = 0 if want else 1
    elif op["kind"] == "dnii":
        seen = (payload.get("holds"), payload.get("pairs_checked"))
        want = (digest["holds"], digest["pairs_checked"])
        code = 0 if digest["holds"] else 1
    else:
        steps = [s["rule"] for s in payload.get("certificate", {}).get("steps", [])]
        seen = (payload.get("equal"), steps or None)
        want = (digest["equal"], digest.get("steps"))
        code = 0 if digest["equal"] else 1
    problems = []
    if proc.returncode != code:
        problems.append(f"cli {op['kind']}: exit {proc.returncode}, library implies {code}")
    if seen != want:
        problems.append(f"cli {op['kind']}: JSON verdict {seen!r} != library {want!r}")
    return problems


def quantile(values, q):
    """Linear interpolation between the two nearest ranks (inclusive method)."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def metric(value, unit):
    return {"value": value, "unit": unit}


def scaled(rnd, seconds) -> float:
    """CPU seconds of one round in reference seconds."""
    return seconds * REFERENCE_SLICE_S / rnd["calibration_s"]


def round_cpu(rnd) -> float:
    return scaled(rnd, sum(op["cpu_s"] for op in rnd["ops"]))


def end_to_end(rounds) -> dict:
    verdicts = [scaled(r, op["cpu_s"]) for r in rounds for op in r["ops"]]
    return {
        "cpu_s": metric(statistics.median(map(round_cpu, rounds)), "s"),
        "verdict_s.p50": metric(quantile(verdicts, 0.5), "s"),
        "verdict_s.p90": metric(quantile(verdicts, 0.9), "s"),
        "peak_rss_mb": metric(statistics.median(r["peak_rss_mb"] for r in rounds), "MB"),
        "setup_s": metric(statistics.median(scaled(r, r["setup_s"]) for r in rounds), "s"),
    }


def per_layer(rounds) -> tuple:
    traced = [r for r in rounds if r["kind"] == "traced"]
    plain = [r for r in rounds if r["kind"] == "plain"]
    cpu = lambda rs: statistics.median(map(round_cpu, rs))
    self_s = lambda name: statistics.median(scaled(r, r["self_s"].get(name, 0.0)) for r in traced)
    metrics = {f"{name}.self_s": metric(self_s(name), "s") for name in SELF_TIMES}
    for name in COUNTERS:
        metrics[name] = metric(statistics.median(r["counts"].get(name, 0) for r in traced),
                               "count")
    metrics["trace.overhead_s"] = metric(cpu(traced) - cpu(plain), "s")
    names = sorted(set().union(*(r["self_s"] for r in traced)))
    layers = {"traced_cpu_s": cpu(traced), "untraced_cpu_s": cpu(plain),
              "self_s": {n: self_s(n) for n in names}}
    return metrics, layers


def share_table(layers) -> str:
    """Each layer's share of the traced operations' CPU time (set-up excluded)."""
    totals = {}
    for name, value in layers["self_s"].items():
        if name == "parser":
            continue
        layer = "outside layers" if name == "op" else LAYER_OF[name]
        totals[layer] = totals.get(layer, 0.0) + value
    whole = sum(totals.values()) or 1.0
    return "  ".join(f"{k} {100 * v / whole:.1f}%"
                     for k, v in sorted(totals.items(), key=lambda kv: -kv[1]))


def run_workload(args) -> int:
    plan = workloads.make_plan(args.workload, args.seed)
    rounds = rounds_for(args.workload, args.seed, args.seconds, args.trace)
    problems = check_rounds(rounds)
    first = rounds[0]["ops"][plan["cli"]]
    problems += check_cli(plan, first["digest"]) if first["digest"] else []
    for p in problems[:20]:
        print(f"bench: {args.workload}: {p}", file=sys.stderr)
    attempted = sum(len(r["ops"]) for r in rounds)
    failed = sum(1 for r in rounds for op in r["ops"] if op["failed"])
    for op in rounds[0]["ops"]:
        if op["failed"]:
            print(f"bench: {args.workload}: failed: {op['failed']}", file=sys.stderr)
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"rounds-{args.workload}-trace{args.trace}.json"), "w") as handle:
        json.dump({"seed": args.seed, "rounds": [{k: v for k, v in r.items() if k != "ops"}
                                                  | {"op_cpu_s": [op["cpu_s"] for op in r["ops"]]}
                                                  for r in rounds]}, handle)
    if args.trace:
        metrics, layers = per_layer(rounds)
        with open(os.path.join(OUT, f"layers-{args.workload}.json"), "w") as handle:
            json.dump(layers, handle, indent=1)
        print(f"{args.workload} layer shares: {share_table(layers)}")
    else:
        metrics = end_to_end(rounds)
    raw = statistics.median(sum(op["cpu_s"] for op in r["ops"]) for r in rounds)
    slice_s = statistics.median(r["calibration_s"] for r in rounds)
    print(f"{args.workload}: {len(rounds)} rounds of {len(plan['ops'])} operations; median "
          f"{raw:.4f} CPU s per round, calibration slice {slice_s:.5f} s")
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Every workload, one after another, each in its own interpreter."""
    results = {}
    for workload in workloads.WORKLOADS:
        results[workload] = {}
        for trace in (0, 1):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=180)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                return fail(f"{workload} --trace {trace} exited {proc.returncode}")
            for line in lines[:-1]:
                print(line)
            results[workload]["traced" if trace else "untraced"] = json.loads(lines[-1])
        res = results[workload]["untraced"]
        print(f"  correct {res['correct']}  attempted {res['attempted']}  failed {res['failed']}")
        for name, m in res["metrics"].items():
            print(f"  {name:16s} {m['value']:12.6f} {m['unit']}")
        overhead = results[workload]["traced"]["metrics"]["trace.overhead_s"]
        print(f"  {'trace.overhead_s':16s} {overhead['value']:12.6f} s")
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, "results.json")
    with open(path, "w") as handle:
        json.dump({"seed": args.seed, "seconds": args.seconds, "results": results}, handle,
                  indent=1)
    print(f"wrote {os.path.relpath(path, ROOT)}, layers-*.json and spans-*.json beside it")
    ok = all(r[t]["correct"] and not r[t]["failed"] for r in results.values() for t in r)
    return 0 if ok else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="CPU-timed benchmark of deacp's layers")
    ap.add_argument("--workload", choices=workloads.WORKLOADS,
                    help="run one workload (default: all four, untraced then traced)")
    ap.add_argument("--seed", type=int, default=1, help="workload seed")
    ap.add_argument("--seconds", type=int, default=30, help="wall seconds of rounds per run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "deacp", "__init__.py")):
        return fail(f"no deacp sources under {os.path.join(ROOT, 'src')}; "
                    "run from a checkout of the repository")
    missing = [f for f in workloads.CORPUS_FILES
               if not os.path.isfile(os.path.join(workloads.CORPUS_DIR, f))]
    if missing:
        return fail(f"missing corpus files {missing}; regenerate with bench/corpus.py")
    try:
        return run_workload(args) if args.workload else run_all(args)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        return fail(str(exc))


if __name__ == "__main__":
    sys.exit(main())
