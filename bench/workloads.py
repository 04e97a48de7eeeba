"""Inputs and expected outputs of the four benchmark workloads.

Pure standard-library Python: nothing here imports deacp, so a plan is made
before the timed set-up starts. Every expected value is known from how the
input was built (reordered operands or alternatives are equivalent, a moved
bound or threshold is not, a counter product has the product of the counters'
state counts, and so on), never from a saved copy of the program's output.

A plan is a dict with
  specs: {name: spec text}            parsed during the timed set-up
  ops:   [op dict]                    the fixed set of operations of one round
  cli:   index of the op that is repeated through the command line

The workload seed varies only what the program's cost does not depend on:
start values, action names, compared constants and sent values. The shape of
every input (sizes, the order of operands, alternatives and queries, which
counter or guard is changed) is fixed, because it moves the cost of single
queries by up to 40% even where the round's total stays put, and the
per-query percentiles must not read the seed. prove_corpus has no such knob:
its seed only orders the queries.
"""

from __future__ import annotations

import itertools
import math
import os
import random

WORKLOADS = ("silent_par", "open_guards", "dnii_sweep", "prove_corpus")

CORPUS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "corpus")
CORPUS_FILES = ("abstraction_free.deacp", "bool_conditional.deacp")


def _clamp(value, lo, hi):
    return max(lo, min(hi, value))


# --- silent_par ---------------------------------------------------------------------
#
# Two counters run in parallel under one evaluation map, with their increments
# hidden. A counter over k + 1 values has k + 2 states (one per value, plus the
# state after its visible action), so the product has (k + 2)^2 states and one
# ambient map: all the work is refining a relation over ~10^3 - 10^4 pairs.

SP_BOUND = 4  # k: each counter takes k silent steps before its visible action

SP_SPEC_HEAD = """domain -16..15
vars x, y
actions send/1, out/1
"""


def _counter(name, var, lo, hi, act, cyclic, exit_at):
    """A guarded linear counter: `var` climbs from lo to hi by hidden steps.

    The plain counter does its visible action at hi. The cyclic one wraps from
    hi back to lo (a silent cycle) and can leave at exit_at.
    """
    if not cyclic:
        body = (f"{name} = [{var} < {hi}] -> {var} := {var} + 1 . {name}"
                f" + [{var} >= {hi}] -> {act}({var}) . {name}Z")
    else:
        body = (f"{name} = [{var} < {hi}] -> {var} := {var} + 1 . {name}"
                f" + [{var} >= {hi}] -> {var} := {lo} . {name}"
                f" + [{var} = {exit_at}] -> {act}({var}) . {name}Z")
    return f"rec {name} where {{ {body}, {name}Z = [true] -> epsilon }}"


def _sp_process(prefix, counters, start, order):
    """hide{x :=, y :=}(eval{x = start, y = start}(C_order[0] || C_order[1]))."""
    parts = [
        _counter(f"{prefix}{var.upper()}", var, start, start + bound, act, cyclic, exit_at)
        for var, bound, act, cyclic, exit_at in counters
    ]
    merged = " || ".join(f"({parts[i]})" for i in order)
    return (f"hide{{x :=, y :=}}(eval{{x = {start}, y = {start}}}({merged}))")


def _sp_relation(k_left, k_right, mutated):
    """Size of the greatest branching bisimulation between the two products.

    Inside one counter every state before its visible action is related to
    every other (the hidden steps are inert), so each product has four classes:
    (before, before), (before, after), (after, before), (after, after), with
    (k+1)^2, k+1, k+1 and 1 states. A mutated counter emits another value, so
    no class in which it has still to act is related across the pair.
    """
    total = 0
    for phases in itertools.product((0, 1), repeat=2):  # 0 = before, 1 = after
        if mutated is not None and phases[mutated] == 0:
            continue
        left = math.prod(k_left[c] + 1 if p == 0 else 1 for c, p in enumerate(phases))
        right = math.prod(k_right[c] + 1 if p == 0 else 1 for c, p in enumerate(phases))
        total += left * right
    return total


def silent_par(seed: int) -> dict:
    rng = random.Random(seed)
    k = SP_BOUND
    start = rng.randint(-16, 15 - k - 1)
    specs, ops, procs = {}, [], []
    for family, cyclic in (("lin", False), ("cyc", True)):
        acts = ["send", "out"]
        rng.shuffle(acts)
        exit_at = start + k // 2
        base = [("x", k, acts[0], cyclic, exit_at), ("y", k, acts[1], cyclic, exit_at)]
        mutated = 0
        changed = list(base)
        var, bound, act, cyc, exit_at = changed[mutated]
        if cyclic:
            # A longer silent cycle is invisible; a moved exit guard is not.
            exit_at += 1
        else:
            bound += 1
        changed[mutated] = (var, bound, act, cyc, exit_at)
        left_order = [0, 1]
        name = family.upper()
        procs.append(f"proc {name}L = {_sp_process(name + 'L', base, start, left_order)}")
        procs.append(f"proc {name}R = {_sp_process(name + 'R', base, start, left_order[::-1])}")
        procs.append(f"proc {name}M = {_sp_process(name + 'M', changed, start, left_order[::-1])}")
        if not cyclic:
            procs.append(f"proc {name}N = {_sp_process(name + 'N', changed, start, left_order)}")
        ks = [c[1] for c in base]
        kc = [c[1] for c in changed]
        states = lambda bounds: math.prod(b + 2 for b in bounds)
        for kind in ("rb", "rab"):
            ops.append({
                "kind": kind, "spec": "sp", "left": f"{name}L", "right": f"{name}R",
                "expect": {"equivalent": True, "states": [states(ks), states(ks)],
                           "relation": _sp_relation(ks, ks, None)},
            })
            ops.append({
                "kind": kind, "spec": "sp", "left": f"{name}L", "right": f"{name}M",
                "expect": {"equivalent": False, "states": [states(ks), states(kc)],
                           "relation": _sp_relation(ks, kc, mutated)},
            })
        if not cyclic:
            # A ninth query, so the median of the pooled query times falls
            # inside one query's samples rather than between two.
            ops.append({
                "kind": "rb", "spec": "sp", "left": f"{name}N", "right": f"{name}M",
                "expect": {"equivalent": True, "states": [states(kc), states(kc)],
                           "relation": _sp_relation(kc, kc, None)},
            })
    specs["sp"] = SP_SPEC_HEAD + "\n".join(procs) + "\n"
    cli = next(i for i, op in enumerate(ops) if op["kind"] == "rb" and not op["expect"]["equivalent"])
    return {"specs": specs, "ops": ops, "cli": cli}


# --- open_guards ----------------------------------------------------------------------
#
# Open terms: the guards read flexible variables that no evaluation operator
# binds, so exploration runs once per ambient map (16^2 = 256 maps for two
# variables on -8..7, 8^3 = 512 for three on -4..3) and the map-indexed
# system has thousands of transitions. Each term is a sum of guarded
# summands [g_i] -> a_i . rest_i whose actions are all distinct, so
#   transitions = sum_i |maps satisfying g_i| + |maps| * (states after the root)
# and the benchmark counts the satisfying maps itself.

OG_ACTIONS = ("a", "b", "c", "d", "e", "f", "g", "h")
OG_SPEC_HEAD = "vars x, y, z\nactions send/1, out/2, " + ", ".join(OG_ACTIONS) + "\n"


def _guard_text(g):
    op = g[0]
    if op == "lt":
        return f"{g[1]} < {g[2]}"
    if op == "gt":
        return f"{g[1]} > {g[2]}"
    if op == "sum_ge":
        return f"{g[1]} + {g[2]} >= {g[3]}"
    if op == "ne":
        return f"not {g[1]} = {g[2]}"
    if op == "and":
        return f"{_guard_text(g[1])} and {_guard_text(g[2])}"
    raise ValueError(op)


def _guard_holds(g, env, lo, hi):
    """The guard's truth under one map, with deacp's saturating addition."""
    op = g[0]

    def val(term):
        return env[term] if isinstance(term, str) else term

    if op == "lt":
        return val(g[1]) < val(g[2])
    if op == "gt":
        return val(g[1]) > val(g[2])
    if op == "sum_ge":
        return _clamp(val(g[1]) + val(g[2]), lo, hi) >= val(g[3])
    if op == "ne":
        return val(g[1]) != val(g[2])
    if op == "and":
        return _guard_holds(g[1], env, lo, hi) and _guard_holds(g[2], env, lo, hi)
    raise ValueError(op)


def _maps(variables, lo, hi):
    return [dict(zip(variables, values))
            for values in itertools.product(range(lo, hi + 1), repeat=len(variables))]


def _og_term(rng, variables, lo, hi):
    """One open term; the seed picks the action names and the compared
    constants of the disequalities, neither of which changes how many maps
    satisfy each guard."""
    X, Y = variables[0], variables[1]
    Z = variables[2] if len(variables) > 2 else None
    names = list(OG_ACTIONS)
    rng.shuffle(names)
    e1, e2 = rng.randint(lo, hi), rng.randint(lo, hi)
    if Z is None:
        summands = [
            (("lt", X, hi - 4), names[0], [names[1], names[2]]),
            (("sum_ge", X, Y, 2), f"send({X})", [names[3]]),
            (("and", ("ne", Y, e1), ("gt", X, lo + 3)), f"out({X}, {Y})", [names[4], names[5]]),
            (("ne", X, Y), names[6], [names[7]]),
        ]
    else:
        summands = [
            (("lt", X, 1), names[0], [names[1]]),
            (("sum_ge", X, Y, Z), f"send({Z})", [names[2]]),
            (("and", ("ne", Y, e1), ("gt", Z, lo + 1)), f"out({X}, {Y})", [names[3]]),
            (("and", ("ne", X, Z), ("ne", Y, e2)), names[4], [names[5], names[6]]),
        ]
    return summands


def _og_text(summands):
    return " + ".join(
        f"[{_guard_text(g)}] -> " + " . ".join([first] + rest) for g, first, rest in summands
    )


def _og_expect(summands, variables, lo, hi):
    maps = _maps(variables, lo, hi)
    sat = [sum(1 for env in maps if _guard_holds(g, env, lo, hi)) for g, _, _ in summands]
    after_root = sum(len(rest) for (_, _, rest), n in zip(summands, sat) if n)
    return {
        "states": 1 + after_root + 1,  # root, each later atom, then the empty process
        "transitions": sum(sat) + len(maps) * after_root,
        "terminating": len(maps),
        "maps": len(maps),
    }


def open_guards(seed: int) -> dict:
    rng = random.Random(seed)
    specs, ops = {}, []
    groups = (("two", "-8..7", ("x", "y"), 4), ("three", "-4..3", ("x", "y", "z"), 2))
    for spec_name, domain, variables, count in groups:
        lo, hi = (int(b) for b in domain.replace("..", " ").split())
        lines = [f"domain {domain}", OG_SPEC_HEAD]
        # The lts_cond query of a term directly follows its lts query, which
        # it is checked against.
        for n in range(count):
            summands = _og_term(rng, variables, lo, hi)
            pname = f"T{n}"
            lines.append(f"proc {pname} = {_og_text(summands)}")
            expect = _og_expect(summands, variables, lo, hi)
            ops.append({"kind": "lts", "spec": spec_name, "process": pname, "expect": expect})
            ops.append({"kind": "lts_cond", "spec": spec_name, "process": pname,
                        "expect": expect})
        specs[spec_name] = "\n".join(lines) + "\n"

    # Open pairs for the equivalence checkers, on 8^2 = 64 maps.
    lo, hi = -4, 3
    summands = _og_term(rng, ("x", "y"), lo, hi)
    reordered = summands[1:] + summands[:1]
    reversed_ = summands[::-1]
    idx = next(i for i, s in enumerate(summands) if s[0][0] == "lt")
    g, first, rest = summands[idx]
    moved = list(summands)
    moved[idx] = (("lt", g[1], g[2] + 1), first, rest)
    procs = {"P": summands, "Q": reordered, "V": reversed_, "M": moved}
    lines = ["domain -4..3", OG_SPEC_HEAD]
    lines += [f"proc {n} = {_og_text(s)}" for n, s in procs.items()]
    specs["pair"] = "\n".join(lines) + "\n"
    for kind in ("rb", "rab"):
        ops.append({"kind": kind, "spec": "pair", "left": "P", "right": "Q",
                    "expect": {"equivalent": True}})
        ops.append({"kind": kind, "spec": "pair", "left": "P", "right": "M",
                    "expect": {"equivalent": False, "guards": [list(g), ["lt", g[1], g[2] + 1]],
                               "carrier": [lo, hi]}})
    # A seventeenth query, so the pooled median falls inside one query's samples.
    ops.append({"kind": "rb", "spec": "pair", "left": "P", "right": "V",
                "expect": {"equivalent": True}})
    return {"specs": specs, "ops": ops, "cli": 0}


# --- dnii_sweep ----------------------------------------------------------------------
#
# Data non-interference compares the systems of every two maps that agree on
# the low variables: |low maps| * C(|high maps|, 2) checks of tiny systems.
# A variable read only by hidden steps keeps the property; a guard on a high
# variable that picks the visible output leaks it.

def _dnii_spec(domain, proc):
    return (f"domain {domain}\nvars l, h, k\nactions send/1, a/1\n"
            f"proc P = {proc}\nsecurity {{ low = {{ l }}; ext = {{ send/1 }} }}\n")


def dnii_sweep(seed: int) -> dict:
    rng = random.Random(seed)
    specs, ops = {}, []

    def add(name, domain, proc, expect):
        specs[name] = _dnii_spec(domain, proc)
        ops.append({"kind": "dnii", "spec": name, "process": "P", "expect": expect})

    def pairs(n, low, high):
        return n ** low * math.comb(n ** high, 2)

    step = rng.choice([1, 2, 3])
    add("hold1", "-8..7", f"send(l) . h := h + {step} . send(l)",
        {"holds": True, "pairs": pairs(16, 1, 1)})
    out = rng.randint(-4, 3)
    add("hold2", "-4..3", f"a(h) . h := h + k . send({out})",
        {"holds": True, "pairs": pairs(8, 0, 2)})
    out = rng.randint(-16, 15)
    add("hold3", "-16..15", f"send({out}) . a(h)", {"holds": True, "pairs": pairs(32, 0, 1)})
    v0, v1 = rng.sample(range(-8, 8), 2)
    add("leak1", "-8..7", f"send(l) . ([h < 2] -> send({v0}) + [not h < 2] -> send({v1}))",
        {"holds": False, "guard": ["lt", "h", 2], "carrier": [-8, 7]})
    v0, v1 = rng.sample(range(-4, 4), 2)
    add("leak2", "-4..3", f"[h + k >= 1] -> send({v0}) + [not h + k >= 1] -> send({v1})",
        {"holds": False, "guard": ["sum_ge", "h", "k", 1], "carrier": [-4, 3]})
    cli = next(i for i, op in enumerate(ops) if op["spec"] == "leak1")
    return {"specs": specs, "ops": ops, "cli": cli}


# --- prove_corpus ---------------------------------------------------------------------
#
# Equality proofs with certificate replay on the frozen corpus (pairs related
# by sound rewrites, so every one is equal) and on the paper's worked examples,
# whose expected results come from plain integer arithmetic.

WORKED_SPEC = """domain -16..15
vars i, j, d, q, r
actions a, b, c
map sigma { i = 11, j = 3 }
"""


def _worked_examples():
    i, j = 11, 3
    d = i
    d = d - j if d >= j else j - d  # absolute difference, as the term computes it
    trace = ["q := 0", f"r := {i}"]
    q, r = 0, i
    while r >= j:
        q, r = q + 1, r - j
        trace += [f"q := {q}", f"r := {r}"]
    assert (q, r) == divmod(i, j)
    procs = {
        "SUB": "eval{sigma}(d := i . ([d >= j] -> d := d - j + [d < j] -> d := j - d))",
        "SUBV": f"d := {i} . d := {d}",
        "SUBW": f"d := {i} . d := {d + 1}",
        "DIV": ("eval{sigma}(q := 0 . r := i . rec Q where {"
                " Q = [r >= j] -> q := q + 1 . R + [r < j] -> epsilon,"
                " R = [true] -> r := r - j . Q })"),
        "DIVV": " . ".join(trace),
        "FAIR": ("hide{a}(rec X where { X = [true] -> a . Y + [true] -> b . Z,"
                 " Y = [true] -> a . X + [true] -> c . Z, Z = [true] -> epsilon })"),
        "FAIRV": "b + tau . (b + c)",
    }
    text = WORKED_SPEC + "".join(f"proc {n} = {t}\n" for n, t in procs.items())
    ops = [
        {"kind": "prove", "spec": "worked", "left": "SUB", "right": "SUBV",
         "expect": {"equal": True}},
        {"kind": "prove", "spec": "worked", "left": "SUB", "right": "SUBW",
         "expect": {"equal": False}},
        {"kind": "prove", "spec": "worked", "left": "DIV", "right": "DIVV",
         "expect": {"equal": True, "final": {"q": q, "r": r}}},
        {"kind": "prove", "spec": "worked", "left": "FAIR", "right": "FAIRV",
         "expect": {"equal": True, "cfar": True}},
    ]
    return text, ops


def read_corpus(path):
    """Spec text and the (left, right) process names of a frozen corpus file."""
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    names = [line.split()[1] for line in text.splitlines() if line.startswith("proc L")]
    return text, [(n, "R" + n[1:]) for n in names]


def prove_corpus(seed: int) -> dict:
    rng = random.Random(seed)
    specs, ops = {}, []
    for filename in CORPUS_FILES:
        name = filename.split(".")[0]
        text, pairs = read_corpus(os.path.join(CORPUS_DIR, filename))
        specs[name] = text
        ops += [{"kind": "prove", "spec": name, "left": left, "right": right,
                 "expect": {"equal": True}} for left, right in pairs]
    specs["worked"], worked = _worked_examples()
    ops += worked
    rng.shuffle(ops)
    cli = next(i for i, op in enumerate(ops) if op["left"] == "SUB" and op["expect"]["equal"])
    return {"specs": specs, "ops": ops, "cli": cli}


def make_plan(workload: str, seed: int) -> dict:
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    return globals()[workload](seed)
