"""One round of one workload, in a fresh interpreter.

Reads a request from standard input, times the set-up (importing deacp and
parsing the workload's spec texts) and then each operation of the round in
CPU seconds of this process, checks every output against the oracles of
bench/workloads.py, and prints one JSON object. Run by bench/run.py.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import resource
import sys
import time
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
CALIBRATION_SLICES = 9
sys.path.insert(0, HERE)

import workloads  # noqa: E402  (pure Python; imports no deacp code)


def canonical_sha(payload) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


@dataclass(frozen=True)
class _Node:  # a process term, as far as hashing and dispatch are concerned
    tag: int
    left: object
    right: object


def reference_work(size: int = 5000) -> int:
    """A fixed piece of interpreter-bound work in the style of deacp's inner
    loops (frozen dataclass terms hashed into dicts, isinstance dispatch,
    tuple keys). Its CPU time measures how fast this machine runs Python right
    now; it never changes with the program under test."""
    leaves = [_Node(i, None, None) for i in range(32)]
    table, seen = {}, set()
    for i in range(size):
        t = _Node(i % 7, leaves[i % 32], leaves[(i * 7) % 32])
        u = _Node(i % 5, t, leaves[i % 3])
        table[u] = table.get(u, 0) + 1
        key = (i % 11, t.tag, u.tag)
        if key not in seen and isinstance(u.left, _Node):
            seen.add(key)
    return len(table) + len(seen)


def _edge_set(lts):
    """Transitions and termination facts keyed by state term, so two systems
    compare whatever numbering their exploration chose."""
    edges = {(lts.states[s], sigma, action, lts.states[t])
             for s, ts in enumerate(lts.transitions) for sigma, action, t in ts}
    ends = {(lts.states[s], sigma) for s, sigma in lts.terminating}
    return edges, ends


class Round:
    def __init__(self, plan, deacp_modules, build_lts):
        self.plan = plan
        self.m = deacp_modules
        # Checks that explore a system themselves run after the timed
        # operations, through the untraced build_lts, so they neither warm
        # caches for a later operation nor add to the per-layer counts.
        self.build_lts = build_lts
        self.deferred = []
        self.explored = {}
        self.specs = {}
        self.ctxs = {}
        self.last_sigma = {}  # (spec, process) -> map-indexed system, for lts_cond

    def parse(self):
        parse_spec = self.m["parser"].parse_spec
        for name, text in self.plan["specs"].items():
            spec = parse_spec(text)
            self.specs[name] = spec
            self.ctxs[name] = spec.context()

    # --- operations: exactly the calls a user's query makes ---------------------

    def run(self, op):
        m, spec, ctx = self.m, self.specs[op["spec"]], self.ctxs[op["spec"]]
        kind = op["kind"]
        if kind == "lts":
            lts = m["sos_sigma"].build_lts(spec.process(op["process"]), ctx)
            return lts, lts.to_json_dict()
        if kind == "lts_cond":
            clts = m["sos_cond"].build_cond_lts(spec.process(op["process"]), ctx)
            return clts, m["sos_cond"].expand_to_sigma(clts, ctx)
        if kind in ("rb", "rab"):
            decide = m["bisim"].decide_rb if kind == "rb" else m["bisim"].decide_rab
            return decide(spec.process(op["left"]), spec.process(op["right"]), ctx)
        if kind == "dnii":
            sec = m["security"]
            return sec.check_dnii(sec.SecuritySpec(
                spec.process(op["process"]), tuple(spec.security_low),
                tuple(spec.security_ext)), ctx)
        if kind == "prove":
            linear = m["linear"]
            result = linear.prove_equal(spec.process(op["left"]), spec.process(op["right"]), ctx)
            replay = linear.replay_certificate(result.certificate, ctx) if result.equal else None
            return result, replay
        raise ValueError(kind)

    # --- oracles: (digest, problems) -------------------------------------------------
    #
    # The digest holds the verdict and the counts that must not depend on the
    # hash seed or on tracing; counterexamples are checked by their properties.

    def check(self, index, op, out):
        kind, exp = op["kind"], op["expect"]
        problems = []
        if kind == "lts":
            lts, payload = out
            digest = {"states": len(lts.states), "transitions": lts.num_transitions,
                      "terminating": len(lts.terminating), "json": canonical_sha(payload)}
            for key in ("states", "transitions", "terminating"):
                if digest[key] != exp[key]:
                    problems.append(f"{key} {digest[key]} != expected {exp[key]}")
            if len(lts.maps) != exp["maps"]:
                problems.append(f"{len(lts.maps)} ambient maps != expected {exp['maps']}")
            self.last_sigma[(op["spec"], op["process"])] = lts
            return digest, problems
        if kind == "lts_cond":
            clts, expanded = out
            digest = {"states": len(clts.states), "cond_transitions": clts.num_transitions,
                      "expanded": expanded.num_transitions}
            if expanded.num_transitions != exp["transitions"]:
                problems.append(f"expanded transitions {expanded.num_transitions} != "
                                f"expected {exp['transitions']}")
            sigma = self.last_sigma.pop((op["spec"], op["process"]), None)
            if sigma is None or _edge_set(sigma) != _edge_set(expanded) \
                    or sigma.states[sigma.root] != expanded.states[expanded.root]:
                problems.append("the two semantics expand to different systems")
            return digest, problems
        if kind in ("rb", "rab"):
            result = out
            digest = {"equivalent": result.equivalent, "relation": len(result.relation)}
            if result.equivalent != exp["equivalent"]:
                problems.append(f"verdict {result.equivalent} != expected {exp['equivalent']}")
            if "relation" in exp and len(result.relation) != exp["relation"]:
                problems.append(f"relation size {len(result.relation)} != {exp['relation']}")
            if "states" in exp:
                for name, states in zip((op["left"], op["right"]), exp["states"]):
                    self.deferred.append((index, self._check_states, op, name, states))
            if result.equivalent and (0, 0) not in set(result.witness or ()):
                problems.append("witness does not relate the roots")
            if not result.equivalent:
                problems += self._check_counterexample(op, result.counterexample)
            return digest, problems
        if kind == "dnii":
            v = out
            digest = {"holds": v.holds, "pairs_checked": v.pairs_checked}
            if v.holds != exp["holds"]:
                problems.append(f"verdict {v.holds} != expected {exp['holds']}")
            if v.holds and v.pairs_checked != exp["pairs"]:
                problems.append(f"{v.pairs_checked} pairs checked != expected {exp['pairs']}")
            if not v.holds:
                s1, s2 = v.sigma.as_dict(), v.sigma_prime.as_dict()
                if any(s1.get(name) != s2.get(name) for name in ("l",)):
                    problems.append(f"leaking maps differ on a low variable: {s1} vs {s2}")
                lo, hi = exp["carrier"]
                g = exp["guard"]
                if workloads._guard_holds(g, s1, lo, hi) == workloads._guard_holds(g, s2, lo, hi):
                    problems.append(f"leaking maps {s1}, {s2} agree on the guard {g}")
            return digest, problems
        if kind == "prove":
            result, replay = out
            digest = {"equal": result.equal}
            if result.equal != exp["equal"]:
                problems.append(f"verdict {result.equal} != expected {exp['equal']}")
            if result.equal:
                steps = result.certificate.steps
                digest["steps"] = [s.rule for s in steps]
                ok, issues = replay
                if not ok:
                    problems.append(f"certificate replay failed: {issues[:2]}")
                if exp.get("cfar") and not any(s.rule == "CFAR" for s in steps):
                    problems.append("fair abstraction example proved without a CFAR step")
                if "final" in exp:
                    self.deferred.append((index, self._check_final, op, exp["final"]))
            return digest, problems
        raise ValueError(kind)

    def _check_counterexample(self, op, cex):
        if not isinstance(cex, dict) or "map" not in cex:
            return [f"negative verdict without a counterexample: {cex!r}"]
        exp = op["expect"]
        if not exp.get("guards"):
            return [] if cex["map"] == {} else [f"closed systems gave map {cex['map']}"]
        lo, hi = exp["carrier"]
        g1, g2 = (tuple(g) for g in exp["guards"])
        env = cex["map"]
        if workloads._guard_holds(g1, env, lo, hi) == workloads._guard_holds(g2, env, lo, hi):
            return [f"counterexample map {env} satisfies both or neither guard"]
        return []

    def _explore(self, spec_name, process):
        key = (spec_name, process)
        if key not in self.explored:
            spec = self.specs[spec_name]
            self.explored[key] = self.build_lts(spec.process(process), self.ctxs[spec_name])
        return self.explored[key]

    def _check_states(self, op, process, expected):
        n = len(self._explore(op["spec"], process).states)
        return [] if n == expected else [f"{process} has {n} states, expected {expected}"]

    def _check_final(self, op, final):
        """The division example's last assignments, read off the explored system."""
        lts = self._explore(op["spec"], op["left"])
        values, sid = {}, lts.root
        while lts.transitions[sid]:
            if len(lts.transitions[sid]) != 1:
                return ["division example is not deterministic"]
            _, action, sid = lts.transitions[sid][0]
            values[action.var] = action.expr.value
        if {k: values.get(k) for k in final} != final:
            return [f"division ends with {values}, expected {final}"]
        return []


def main():
    request = json.load(sys.stdin)
    root = request["root"]
    plan = workloads.make_plan(request["workload"], request["seed"])

    started = time.process_time()
    sys.path.insert(0, os.path.join(root, "src"))
    import deacp  # noqa: F401
    from deacp import bisim, linear, parser, security, sos_cond, sos_sigma
    from deacp.errors import DeacpError

    expected_src = os.path.join(root, "src", "deacp")
    if os.path.dirname(os.path.abspath(deacp.__file__)) != expected_src:
        raise SystemExit(f"deacp imported from {deacp.__file__}, not {expected_src}")
    build_lts = sos_sigma.build_lts
    tracer = None
    if request["traced"]:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    modules = {"bisim": bisim, "linear": linear, "parser": parser, "security": security,
               "sos_cond": sos_cond, "sos_sigma": sos_sigma}
    rnd = Round(plan, modules, build_lts)
    rnd.parse()
    setup_s = time.process_time() - started

    ops_out = []
    calibration = []

    def calibrate(slices):
        # With the collector on, a slice's allocations would trigger
        # collections that walk the heap the operations left behind.
        gc.disable()
        for _ in range(slices):
            begin = time.process_time()
            reference_work()
            calibration.append(time.process_time() - begin)
        gc.enable()

    # At least CALIBRATION_SLICES slices, at up to CALIBRATION_SLICES - 1
    # points between operations and one after the last, sample the machine's
    # speed while the operations run.
    every = -(-len(plan["ops"]) // (CALIBRATION_SLICES - 1))
    per_point = -(-CALIBRATION_SLICES // (-(-len(plan["ops"]) // every) + 1))
    for index, op in enumerate(plan["ops"]):
        if index % every == 0:
            calibrate(per_point)
        span = tracer.open_op(index) if tracer else None
        begin = time.process_time()
        try:
            out = rnd.run(op)
        except (DeacpError, RecursionError) as exc:
            cpu = time.process_time() - begin
            if span:
                tracer.close_op(span)
            ops_out.append({"cpu_s": cpu, "failed": f"{type(exc).__name__}: {exc}",
                            "digest": None, "problems": []})
            continue
        cpu = time.process_time() - begin
        if span:
            tracer.close_op(span)
        digest, problems = rnd.check(index, op, out)
        ops_out.append({"cpu_s": cpu, "failed": None, "digest": digest, "problems": problems})
        del out

    calibrate(per_point)
    for index, check, op, *args in rnd.deferred:
        ops_out[index]["problems"] += check(op, *args)
    result = {
        "calibration_s": sum(calibration) / len(calibration),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ops": ops_out,
    }
    if tracer:
        result["self_s"] = tracer.self_times()
        result["counts"] = dict(tracer.counts)
        if request.get("spans_path"):
            tracer.write(request["spans_path"])
    json.dump(result, sys.stdout)


if __name__ == "__main__":
    main()
