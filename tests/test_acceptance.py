"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import random
import time

import pytest

import pair_oracle
from conftest import proc
from lts_oracle import lts_equal_up_to_renaming, tau_free
from deacp import axioms as AX
from deacp import gen as G
from deacp import terms as T
from deacp.bisim import (
    conjecture_experiment,
    decide_rb,
    rooted_branching_bisim,
)
from deacp.linear import apply_cfar, prove_equal, replay_certificate
from deacp.parser import render_action
from deacp.security import SecuritySpec, check_dnii
from deacp.sos_cond import build_cond_lts, expand_to_sigma
from deacp.sos_sigma import ambient_domain, build_lts


def report(num: int, ok: bool, detail: str):
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def worked(base_spec):
    return base_spec


def _lts_isomorphic(l1, l2) -> bool:
    """Exact isomorphism by backtracking over label-preserving bijections."""
    if l1.domain != l2.domain or len(l1.states) != len(l2.states):
        return False

    def signature(l, s):
        term = frozenset(m for sid, m in l.terminating if sid == s)
        edges = tuple(sorted(
            (str(sigma.entries), render_action(a)) for sigma, a, _ in l.transitions[s]
        ))
        return (term, edges)

    sig1 = {s: signature(l1, s) for s in range(len(l1.states))}
    sig2 = {s: signature(l2, s) for s in range(len(l2.states))}

    mapping = {}

    def extend(s1, s2):
        if s1 in mapping:
            return mapping[s1] == s2
        if sig1[s1] != sig2[s2] or s2 in mapping.values():
            return False
        mapping[s1] = s2
        out1 = sorted(l1.transitions[s1], key=lambda e: (str(e[0].entries),
                                                         render_action(e[1]), e[2]))
        out2 = sorted(l2.transitions[s2], key=lambda e: (str(e[0].entries),
                                                         render_action(e[1]), e[2]))
        for (m1, a1, t1), (m2, a2, t2) in zip(out1, out2):
            if m1 != m2 or render_action(a1) != render_action(a2):
                del mapping[s1]
                return False
            if not extend(t1, t2):
                del mapping[s1]
                return False
        return True

    ok = extend(l1.root, l2.root)
    return ok and len(mapping) == len(l1.states)


def test_criterion_01_subtraction_example(worked, ctx):
    started = time.perf_counter()
    left = proc(
        worked,
        "eval{sigma}(d := i . ([d >= j] -> d := d - j + [d < j] -> d := j - d))",
    )
    right = proc(worked, "d := 11 . d := 8")
    result = prove_equal(left, right, ctx)
    replay_ok, issues = replay_certificate(result.certificate, ctx) if result.equal \
        else (False, ["no certificate"])
    domain = ambient_domain(left, right, ctx=ctx)
    iso = _lts_isomorphic(
        build_lts(left, ctx, domain=domain), build_lts(right, ctx, domain=domain)
    )
    elapsed = time.perf_counter() - started
    ok = result.equal and replay_ok and iso and elapsed < 1.0
    report(1, ok, f"subtraction proof + isomorphic systems in {elapsed:.3f}s "
                  f"(certificate steps: {len(result.certificate.steps)})")


def test_criterion_02_division_example(worked, ctx):
    started = time.perf_counter()
    t = proc(
        worked,
        "eval{sigma}(q := 0 . r := i . rec Q where {"
        " Q = [r >= j] -> q := q + 1 . R + [r < j] -> epsilon,"
        " R = [true] -> r := r - j . Q })",
    )
    lts = build_lts(t, ctx)
    labels = []
    sid = lts.root
    deterministic = True
    while lts.transitions[sid]:
        if len(lts.transitions[sid]) != 1:
            deterministic = False
            break
        _, action, sid = lts.transitions[sid][0]
        labels.append(render_action(action))
    expected = ["q := 0", "r := 11", "q := 1", "r := 8",
                "q := 2", "r := 5", "q := 3", "r := 2"]
    terminated = any(s == sid for s, _ in lts.terminating)
    elapsed = time.perf_counter() - started
    ok = deterministic and labels == expected and terminated and elapsed < 1.0
    report(2, ok, f"division trace {' . '.join(labels)} then termination "
                  f"in {elapsed:.3f}s")


def test_criterion_03_fair_abstraction_example(worked, ctx):
    started = time.perf_counter()
    hidden = proc(
        worked,
        "hide{a}(rec X where { X = [true] -> a . Y + [true] -> b . Z,"
        " Y = [true] -> a . X + [true] -> c . Z, Z = [true] -> epsilon })",
    )
    target = proc(worked, "b + tau . (b + c)")
    equivalent = decide_rb(hidden, target, ctx).equivalent
    rhs, step = apply_cfar(hidden.body.spec, "X", hidden.patterns)
    prefixed_ok = (
        isinstance(step.before, T.Seq)
        and isinstance(step.before.left.action, T.TauAction)
        and step.details["cluster"] == ["X", "Y"]
        and step.details["exits"] == ["[true] -> b . Z", "[true] -> c . Z"]
    )
    result = prove_equal(hidden, target, ctx)
    replay_ok, _ = replay_certificate(result.certificate, ctx)
    cfar_cited = any(s.rule == "CFAR" for s in result.certificate.steps)
    elapsed = time.perf_counter() - started
    ok = equivalent and prefixed_ok and result.equal and replay_ok and cfar_cited \
        and elapsed < 1.0
    report(3, ok, f"cycle abstraction identified with its exit sum in {elapsed:.3f}s")


def test_criterion_04_axiom_soundness_suite():
    started = time.perf_counter()
    cfg = G.GenConfig()  # 3 basic actions, 2 flexible variables, small depths
    ctx = G.default_context(cfg)  # carrier [-4, 3]
    rng = random.Random(2026)
    per_axiom = 20
    failures = []
    for name in AX.SOUNDNESS_SUITE:
        for _ in range(per_axiom):
            lhs, rhs = G.axiom_instance(name, rng, cfg, ctx)
            if not decide_rb(lhs, rhs, ctx).equivalent:
                failures.append(name)
    elapsed = time.perf_counter() - started
    total = per_axiom * len(AX.SOUNDNESS_SUITE)
    ok = not failures and elapsed < 600
    report(4, ok, f"{total} axiom instances over {len(AX.SOUNDNESS_SUITE)} schemas "
                  f"all bisimilar in {elapsed:.1f}s"
                  + (f"; failures: {sorted(set(failures))}" if failures else ""))


def test_criterion_05_semi_completeness_abstraction_free():
    started = time.perf_counter()
    cfg = G.GenConfig(max_depth=2, allow_abstr=False)
    ctx = G.default_context(cfg)
    rng = random.Random(501)
    pairs = 100
    proved = 0
    for _ in range(pairs):
        t1, t2, _ = G.rewritten_pair(rng, cfg, ctx)
        result = prove_equal(t1, t2, ctx)
        if not result.equal:
            continue
        ok, issues = replay_certificate(result.certificate, ctx)
        if ok:
            proved += 1
    elapsed = time.perf_counter() - started
    ok = proved == pairs and elapsed < 600
    report(5, ok, f"{proved}/{pairs} abstraction-free pairs proved with "
                  f"replaying certificates in {elapsed:.1f}s")


def test_criterion_06_semi_completeness_bool_conditional():
    started = time.perf_counter()
    cfg = G.GenConfig(max_depth=2, bool_cond_only=True)
    ctx = G.default_context(cfg)
    rng = random.Random(601)
    pairs = 50
    proved = 0
    with_cfar = 0
    for _ in range(pairs):
        base = G.bool_cond_hide_term(rng, cfg, ctx, hidden="a")
        t1, t2, _ = G.rewritten_pair(rng, cfg, ctx, base=base,
                                     pool=G.BOOL_COND_POOL)
        result = prove_equal(t1, t2, ctx)
        if not result.equal:
            continue
        ok, issues = replay_certificate(result.certificate, ctx)
        if ok:
            proved += 1
        if any(s.rule == "CFAR" for s in result.certificate.steps):
            with_cfar += 1
    elapsed = time.perf_counter() - started
    ok = proved == pairs and with_cfar >= pairs // 2 and elapsed < 600
    report(6, ok, f"{proved}/{pairs} bool-conditional pairs proved "
                  f"({with_cfar} exercising fair abstraction) in {elapsed:.1f}s")


def test_criterion_07_cross_semantics_agreement():
    started = time.perf_counter()
    cfg = G.GenConfig()
    ctx = G.default_context(cfg)
    rng = random.Random(701)
    terms = 200
    agreed = 0
    for _ in range(terms):
        t = G.random_proc(rng, cfg, ctx, rng.randint(0, 3))
        direct = build_lts(t, ctx)
        expanded = expand_to_sigma(build_cond_lts(t, ctx), ctx)
        if lts_equal_up_to_renaming(direct, expanded):
            agreed += 1
    elapsed = time.perf_counter() - started
    ok = agreed == terms
    report(7, ok, f"{agreed}/{terms} random terms give identical systems "
                  f"under both semantics in {elapsed:.1f}s")


def test_criterion_08_conjecture_experiment():
    started = time.perf_counter()
    ctx = G.default_context()
    size = 500
    rep = conjecture_experiment(ctx, size, seed=801)
    elapsed = time.perf_counter() - started
    for finding in rep.divergent:
        print(f"  FINDING (not a failure): {finding}")
    agreements = rep.both_equivalent + rep.both_inequivalent
    ok = rep.total == size and agreements + len(rep.divergent) == size
    report(8, ok, f"equivalences agree on {agreements}/{rep.total} pairs "
                  f"({rep.both_equivalent} equivalent, {rep.both_inequivalent} "
                  f"inequivalent, {len(rep.divergent)} divergences logged) "
                  f"in {elapsed:.1f}s")


def test_criterion_09_non_interference_examples(small_spec, small_ctx):
    send = (T.ActionPattern("name", "send"),)
    started = time.perf_counter()
    leak = proc(small_spec, "[h = 0] -> send(0) + [not h = 0] -> send(1)")
    verdict_leak = check_dnii(SecuritySpec(leak, low=(), ext=send), small_ctx)
    leak_time = time.perf_counter() - started
    started = time.perf_counter()
    okproc = proc(small_spec, "send(l) . h := h + 1")
    verdict_ok = check_dnii(SecuritySpec(okproc, low=("l",), ext=send), small_ctx)
    ok_time = time.perf_counter() - started
    concrete = (
        not verdict_leak.holds
        and verdict_leak.sigma is not None
        and verdict_leak.sigma.value("h") != verdict_leak.sigma_prime.value("h")
    )
    ok = concrete and verdict_ok.holds and leak_time < 5 and ok_time < 5
    report(9, ok, f"leak refuted with maps {verdict_leak.sigma.as_dict()} vs "
                  f"{verdict_leak.sigma_prime.as_dict()} in {leak_time:.2f}s; "
                  f"low-copy holds over {verdict_ok.pairs_checked} pairs "
                  f"in {ok_time:.2f}s")


def test_criterion_10_refinement_cross_check():
    started = time.perf_counter()
    cfg = G.GenConfig(allow_tau=False, allow_abstr=False, max_depth=2)
    ctx = G.default_context(cfg)
    rng = random.Random(1001)
    checked = 0
    agreed = 0
    attempts = 0
    while checked < 60 and attempts < 400:
        attempts += 1
        t1 = G.random_proc(rng, cfg, ctx, 2, tau_ok=False)
        if rng.random() < 0.5:
            t2 = G.rewritten_pair(rng, cfg, ctx, base=t1, steps=1)[1]
        else:
            t2 = G.random_proc(rng, cfg, ctx, 2, tau_ok=False)
        domain = ambient_domain(t1, t2, ctx=ctx)
        l1 = build_lts(t1, ctx, domain=domain)
        l2 = build_lts(t2, ctx, domain=domain)
        if len(l1.states) > 50 or len(l2.states) > 50:
            continue
        if not (tau_free(l1) and tau_free(l2)):
            continue
        checked += 1
        naive, _ = pair_oracle.decide(l1, l2, ctx)
        fast = rooted_branching_bisim(l1, l2, ctx).equivalent
        if naive == fast:
            agreed += 1
    elapsed = time.perf_counter() - started
    ok = checked >= 50 and agreed == checked
    report(10, ok, f"naive fixpoint and signature refinement agree on "
                   f"{agreed}/{checked} silent-free systems in {elapsed:.1f}s")
