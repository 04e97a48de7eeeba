import json
import random
import time
from dataclasses import replace

import pytest

from conftest import bench_module, cond, proc
from deacp import gen as G
from deacp import parser as P
from deacp import terms as T
from deacp.bisim import decide_rb, rooted_branching_bisim
from deacp.conditions import CFalse, Cmp, TRUE
from deacp.data_algebra import Flex, Lit
from deacp.errors import UnsupportedFragmentError
from deacp.linear import (
    _find_clusters,
    apply_cfar,
    linearize,
    normalize_bool_conditional,
    ProofCertificate,
    ProofStep,
    prove_equal,
    replay_certificate,
    spec_to_table,
)
from deacp.parser import render_term
from deacp.sos_sigma import ambient_domain, build_lts


CLUSTER_SRC = (
    "rec X where { X = [true] -> a . Y + [true] -> b . Z,"
    " Y = [true] -> a . X + [true] -> c . Z, Z = [true] -> epsilon }"
)


def hide_a(spec, text):
    return proc(spec, f"hide{{a}}({text})")


def clusters_of(spec, patterns):
    """Every cluster of a linear specification, in the order the linearizer
    meets them."""
    return _find_clusters(spec_to_table(spec), list(spec.variables), patterns)


def oracle_equal(t, spec_var, ctx):
    spec, var = spec_var
    return decide_rb(t, T.RecConst(var, spec), ctx)


def test_linearize_sequential_chain(base_spec, ctx):
    spec, var = linearize(proc(base_spec, "a . b"), ctx)
    assert T.is_guarded_linear_spec(spec)
    # three equations: a-step, b-step, termination
    order = list(spec.variables)
    assert len(order) == 3
    lts = build_lts(T.RecConst(var, spec), ctx)
    assert len(lts.states) == 3 and lts.num_transitions == 2


def test_linearize_subtraction_example(base_spec, ctx):
    t = proc(
        base_spec,
        "eval{sigma}(d := i . ([d >= j] -> d := d - j + [d < j] -> d := j - d))",
    )
    spec, var = linearize(t, ctx)
    lts = build_lts(T.RecConst(var, spec), ctx)
    from deacp.parser import render_action

    labels = []
    sid = lts.root
    while lts.transitions[sid]:
        assert len(lts.transitions[sid]) == 1
        _, action, sid = lts.transitions[sid][0]
        labels.append(render_action(action))
    assert labels == ["d := 11", "d := 8"]


def test_linearize_left_merge_oracle(base_spec, ctx):
    spec, var = linearize(proc(base_spec, "a ||_ b"), ctx)
    assert decide_rb(T.RecConst(var, spec), proc(base_spec, "a . b"), ctx).equivalent


def test_linearize_outputs_are_guarded_linear_and_equivalent(small_ctx):
    rng = random.Random(55)
    cfg = G.GenConfig(max_depth=2)
    for _ in range(40):
        t = G.random_proc(rng, cfg, small_ctx, rng.randint(0, 3))
        spec, var = linearize(t, small_ctx)
        assert T.is_guarded_linear_spec(spec)
        assert decide_rb(T.RecConst(var, spec), t, small_ctx).equivalent, render_term(t)


def test_linearize_eliminates_abstraction(base_spec, ctx):
    """One pipeline for every closed term: an abstraction linearizes, a
    contingent guard beneath it included, which the linear form carries."""
    spec, var = linearize(proc(base_spec, "hide{a}(a)"), ctx)
    assert T.is_guarded_linear_spec(spec)
    assert decide_rb(T.RecConst(var, spec), proc(base_spec, "tau"), ctx).equivalent
    guarded = proc(base_spec, "hide{a}([v = 0] -> a)")
    spec, var = linearize(guarded, ctx)
    assert T.is_guarded_linear_spec(spec)
    assert decide_rb(T.RecConst(var, spec), guarded, ctx).equivalent
    assert T.summand_parts(T.summands(spec.rhs(var))[0])[0] == cond(base_spec, "v = 0")


def test_analyze_clusters_on_the_cycle_example(base_spec, ctx):
    const = proc(base_spec, CLUSTER_SRC)
    patterns = (T.ActionPattern("name", "a"),)
    cyclic = [c for c in clusters_of(const.spec, patterns) if c.cyclic]
    assert len(cyclic) == 1
    cluster = cyclic[0]
    assert set(cluster.members) == {"X", "Y"}
    assert [render_term(t) for t in cluster.exit_terms] == [
        "[true] -> b . Z",
        "[true] -> c . Z",
    ]


def test_analyze_clusters_singletons_without_hiding(base_spec, ctx):
    const = proc(
        base_spec,
        "rec X where { X = [true] -> a . Y, Y = [true] -> epsilon }",
    )
    clusters = clusters_of(const.spec, ())
    assert [c.members for c in clusters] == [("X",), ("Y",)]
    assert not any(c.cyclic for c in clusters)


def test_analyze_clusters_on_a_long_hidden_chain(base_spec, ctx):
    """2001 singleton components, none cyclic: finding them takes time
    linear in the number of variables."""
    eqs = ", ".join(f"X{k} = [true] -> a . X{k + 1}" for k in range(2000))
    t = hide_a(base_spec, f"rec X0 where {{ {eqs}, X2000 = [true] -> epsilon }}")
    started = time.process_time()
    clusters = clusters_of(t.body.spec, t.patterns)
    elapsed = time.process_time() - started
    assert [c.members for c in clusters] == [(f"X{k}",) for k in range(2001)]
    assert not any(c.cyclic for c in clusters)
    assert elapsed < 0.5, elapsed


def hidden_cycle(spec, n):
    """hide{a} over a cycle of n hidden steps whose last member exits by b."""
    eqs = ", ".join(f"X{k} = [true] -> a . X{k + 1}" for k in range(n - 1))
    return hide_a(spec, f"rec X0 where {{ {eqs}, X{n - 1} = [true] -> a . X0"
                        f" + [true] -> b . E, E = [true] -> epsilon }}")


def test_analyze_clusters_on_a_long_hidden_cycle(base_spec, ctx):
    """One cyclic cluster of 2000 members: each member's exits are read once,
    so the analysis takes time linear in the size of the cluster."""
    t = hidden_cycle(base_spec, 2000)
    started = time.process_time()
    clusters = clusters_of(t.body.spec, t.patterns)
    elapsed = time.process_time() - started
    assert [c.members for c in clusters] == [tuple(f"X{k}" for k in range(2000)), ("E",)]
    assert clusters[0].cyclic
    assert [render_term(e) for e in clusters[0].exit_terms] == ["[true] -> b . E"]
    assert elapsed < 0.5, elapsed


def test_prove_and_replay_on_a_long_hidden_cycle(base_spec, ctx):
    """Replaying the fair-abstraction lemma of a 1000-member cluster analyses
    its specification once more; it costs a small part of the proof."""
    t = hidden_cycle(base_spec, 1000)
    started = time.process_time()
    result = prove_equal(t, proc(base_spec, "tau . b"), ctx)
    proved = time.process_time()
    assert result.equal
    assert replay_certificate(result.certificate, ctx) == (True, [])
    replayed = time.process_time()
    assert [len(s.details["cluster"]) for s in result.certificate.steps
            if s.rule == "CFAR"] == [1000]
    assert proved - started < 10, proved - started
    assert replayed - proved < 0.25, replayed - proved


def _hidden_reach(table, info, patterns, start):
    """The members reached from start by hidden moves inside the cluster."""
    seen, frontier = {start}, [start]
    while frontier:
        for cond, action, target in table[frontier.pop()]:
            hidden = action is not None and (
                isinstance(action, T.TauAction) or T.matches_any(action, patterns))
            if hidden and cond == TRUE and target in info.member_set and target not in seen:
                seen.add(target)
                frontier.append(target)
    return seen


def test_every_cluster_found_is_conservative(base_spec, ctx):
    """Each member of a cluster reaches each member that carries an exit
    through hidden moves inside the cluster, so fair abstraction applies."""
    rng = random.Random(3)
    cfg = G.GenConfig()
    patterns = (T.ActionPattern("name", "a"),)
    cyclic = 0
    for k in range(400):
        if k % 2:
            spec = G.random_glrs(rng, cfg, ctx)
        else:
            spec = G.cluster_spec(rng, cfg, ctx, "a", size=rng.randint(1, 5))[0]
        table = spec_to_table(spec)
        for info in clusters_of(spec, patterns):
            cyclic += info.cyclic
            carriers = {n for n in info.members
                        if any(row in info.exit_rows for row in table[n])}
            for name in info.members:
                assert carriers <= _hidden_reach(table, info, patterns, name), (spec, name)
    assert cyclic >= 200


def test_apply_cfar_on_the_paper_shape(base_spec, ctx):
    const = proc(base_spec, CLUSTER_SRC)
    patterns = (T.ActionPattern("name", "a"),)
    rhs, step = apply_cfar(const.spec, "X", patterns)
    assert step.details["cluster"] == ["X", "Y"]
    assert step.details["exits"] == ["[true] -> b . Z", "[true] -> c . Z"]
    # the rewritten side is the silent prefix over the abstracted exit sum
    assert isinstance(rhs, T.Seq) and isinstance(rhs.left.action, T.TauAction)
    assert decide_rb(step.before, step.after, ctx).equivalent


def test_apply_cfar_degenerate_singleton(base_spec, ctx):
    const = proc(
        base_spec,
        "rec X where { X = [true] -> a . X + [true] -> b . Z, Z = [true] -> epsilon }",
    )
    rhs, step = apply_cfar(const.spec, "X", (T.ActionPattern("name", "a"),))
    assert step.details["cluster"] == ["X"]
    assert decide_rb(step.before, step.after, ctx).equivalent


def test_apply_cfar_livelock_yields_inaction_sum(base_spec, ctx):
    const = proc(base_spec, "rec X where { X = [true] -> a . X }")
    rhs, step = apply_cfar(const.spec, "X", (T.ActionPattern("name", "a"),))
    assert render_term(rhs) == "tau . hide{a}(delta)"
    assert decide_rb(step.before, step.after, ctx).equivalent


def test_apply_cfar_requires_a_conservative_cluster(base_spec, ctx):
    # The visible step b back into the cluster is one of its exits.
    const = proc(
        base_spec,
        "rec X where { X = [true] -> a . Y + [true] -> b . X,"
        " Y = [true] -> a . X, Z = [true] -> epsilon }",
    )
    rhs, step = apply_cfar(const.spec, "X", (T.ActionPattern("name", "a"),))
    assert step.details["cluster"] == ["X", "Y"]
    assert step.details["exits"] == ["[true] -> b . X"]
    assert decide_rb(step.before, step.after, ctx).equivalent


def test_apply_cfar_on_a_variable_on_no_silent_cycle(base_spec, ctx):
    # No hidden move is a cycle: X alone is its cluster, and its one step b an exit.
    const = proc(base_spec, "rec X where { X = [true] -> b . X }")
    rhs, step = apply_cfar(const.spec, "X", (T.ActionPattern("name", "a"),))
    assert step.details["cluster"] == ["X"]
    assert decide_rb(step.before, step.after, ctx).equivalent


def test_normalize_cfar_example(base_spec, ctx):
    spec, var, cert = normalize_bool_conditional(hide_a(base_spec, CLUSTER_SRC), ctx)
    assert T.is_guarded_linear_spec(spec)
    assert decide_rb(
        T.RecConst(var, spec), proc(base_spec, "b + tau . (b + c)"), ctx
    ).equivalent
    assert any(s.rule == "CFAR" for s in cert.steps)


def test_normalize_empty_hide(base_spec, ctx):
    spec, var, _ = normalize_bool_conditional(proc(base_spec, "hide{}(a . b)"), ctx)
    assert decide_rb(T.RecConst(var, spec), proc(base_spec, "a . b"), ctx).equivalent


def test_normalize_hidden_atom_is_silent_step(base_spec, ctx):
    spec, var, _ = normalize_bool_conditional(proc(base_spec, "hide{a}(a)"), ctx)
    assert decide_rb(T.RecConst(var, spec), proc(base_spec, "tau"), ctx).equivalent


def test_normalize_rejects_contingent_conditions(base_spec, ctx):
    """A contingent condition on a hidden cycle is the one refusal."""
    with pytest.raises(UnsupportedFragmentError, match="a silent cycle has a hidden step"):
        normalize_bool_conditional(
            hide_a(base_spec, "rec X where { X = [v = 0] -> a . X + [true] -> b . X }"), ctx)


def test_prove_cites_single_axiom(base_spec, ctx):
    result = prove_equal(proc(base_spec, "a + delta"), proc(base_spec, "a"), ctx)
    assert result.equal
    assert [s.rule for s in result.certificate.steps] == ["A6"]
    ok, issues = replay_certificate(result.certificate, ctx)
    assert ok, issues


def test_prove_subtraction_example(base_spec, ctx):
    left = proc(
        base_spec,
        "eval{sigma}(d := i . ([d >= j] -> d := d - j + [d < j] -> d := j - d))",
    )
    right = proc(base_spec, "d := 11 . d := 8")
    result = prove_equal(left, right, ctx)
    assert result.equal
    ok, issues = replay_certificate(result.certificate, ctx)
    assert ok, issues


def test_prove_division_recursion_equals_its_chain(base_spec, ctx):
    left = proc(
        base_spec,
        "eval{sigma}(q := 0 . r := i . rec Q where {"
        " Q = [r >= j] -> q := q + 1 . R + [r < j] -> epsilon,"
        " R = [true] -> r := r - j . Q })",
    )
    right = proc(
        base_spec,
        "q := 0 . r := 11 . q := 1 . r := 8 . q := 2 . r := 5 . q := 3 . r := 2",
    )
    result = prove_equal(left, right, ctx)
    assert result.equal
    ok, issues = replay_certificate(result.certificate, ctx)
    assert ok, issues


def test_prove_distinguishes(base_spec, ctx):
    result = prove_equal(proc(base_spec, "a"), proc(base_spec, "b"), ctx)
    assert not result.equal
    assert result.counterexample is not None


def test_prove_bool_conditional_with_hiding(base_spec, ctx):
    left = hide_a(base_spec, CLUSTER_SRC)
    right = proc(base_spec, "b + tau . (b + c)")
    result = prove_equal(left, right, ctx)
    assert result.equal
    rules = [s.rule for s in result.certificate.steps]
    assert "RSP" in rules and "CFAR" in rules
    ok, issues = replay_certificate(result.certificate, ctx)
    assert ok, issues


def test_certificates_replay_on_rewritten_pairs(small_ctx):
    rng = random.Random(77)
    cfg = G.GenConfig(max_depth=2, allow_abstr=False)
    for _ in range(15):
        t1, t2, _ = G.rewritten_pair(rng, cfg, small_ctx)
        result = prove_equal(t1, t2, small_ctx)
        assert result.equal
        ok, issues = replay_certificate(result.certificate, small_ctx)
        assert ok, issues


def test_replay_rejects_an_rsp_step_that_breaks_the_root_condition(base_spec, ctx):
    """tau . a and a are branching bisimilar but not rooted: an RSP step over
    the greatest relation between their linear forms relates the roots,
    which replay must still hold to the root condition."""
    t1, t2 = proc(base_spec, "tau . a"), proc(base_spec, "a")
    assert not decide_rb(t1, t2, ctx).equivalent
    c1, c2 = (T.RecConst(var, spec) for spec, var in (linearize(t1, ctx), linearize(t2, ctx)))
    domain = ambient_domain(c1, c2, ctx=ctx)
    l1, l2 = build_lts(c1, ctx, domain=domain), build_lts(c2, ctx, domain=domain)
    unrooted = rooted_branching_bisim(l1, l2, ctx)
    assert (l1.root, l2.root) in unrooted.relation
    lin = {"construction": "linearize"}
    steps = [ProofStep("LIN", t1, c1, details=lin),
             ProofStep("RSP", c1, c2, witness=unrooted.groups),
             ProofStep("LIN", c2, t2, details=dict(lin, direction="reverse"))]
    ok, issues = replay_certificate(ProofCertificate(t1, t2, steps), ctx)
    assert not ok and issues and all("'kind': 'root-step'" in i for i in issues), issues


FAIR_PAIR = (f"hide{{a}}({CLUSTER_SRC})", "b + tau . (b + c)")  # LIN, RSP, LIN and CFAR
IMP2_PAIR = ("hide{a}([v = v] -> a . b)", "tau . b")  # a constant guard the collapse decides
A6_PAIR = ("a + delta", "a")  # one axiom step


def _step(cert, rule):
    return next(s for s in cert.steps if s.rule == rule)


def _guarded_cycle(term):
    """The abstraction term with every summand of its specification guarded
    by the contingent v = 0, so that a hidden cycle has a conditional step."""
    v0 = Cmp("=", Flex("v"), Lit(0))
    spec = T.RecSpec(tuple((name, T.alt_fold([replace(s, cond=v0) for s in T.summands(rhs)]))
                           for name, rhs in term.body.spec.equations))
    return replace(term, body=replace(term.body, spec=spec))


def _edited(cert, name, **change):
    """cert with its first step of the rule name changed."""
    step = _step(cert, name)
    return ProofCertificate(cert.left, cert.right,
                            [replace(step, **change) if s is step else s for s in cert.steps])


@pytest.mark.parametrize("pair, tamper, issue", [
    (FAIR_PAIR, lambda c: ProofCertificate(c.right, c.right, c.steps),
     "chain does not start at the left-hand term"),
    (FAIR_PAIR, lambda c: ProofCertificate(c.left, c.left, c.steps),
     "chain does not end at the right-hand term"),
    (FAIR_PAIR, lambda c: ProofCertificate(c.left, c.right,
                                           [s for s in c.steps if s.rule != "RSP"]),
     "chain break between LIN and LIN"),
    (FAIR_PAIR, lambda c: _edited(c, "LIN", after=_step(c, "RSP").after),
     "LIN replay produced a different specification"),
    (FAIR_PAIR, lambda c: _edited(c, "LIN", before=_guarded_cycle(_step(c, "LIN").before)),
     "LIN replay failed: a silent cycle has a hidden step"),
    (FAIR_PAIR, lambda c: _edited(c, "RSP", witness=None),
     "RSP step carries no witness"),
    (FAIR_PAIR, lambda c: _edited(c, "CFAR", after=_step(c, "CFAR").before),
     "CFAR step does not match the recomputed equation"),
    (A6_PAIR, lambda c: _edited(c, "A6", after=T.DELTA),
     "step does not instantiate axiom A6"),
    (A6_PAIR, lambda c: _edited(c, "A6", rule="A99"),
     "unknown rule 'A99'"),
], ids=["chain-start", "chain-end", "chain-break", "lin-target", "lin-failed", "rsp-witness",
        "cfar-after", "axiom", "unknown-rule"])
def test_replay_rejects_each_tampered_step(base_spec, ctx, pair, tamper, issue):
    """Each rejection of replay, on a real certificate tampered once; the
    steps left alone, RSP included, still replay, and a changed end of a
    step may add only chain issues."""
    certificate = prove_equal(*(proc(base_spec, t) for t in pair), ctx).certificate
    assert replay_certificate(certificate, ctx) == (True, [])
    ok, issues = replay_certificate(tamper(certificate), ctx)
    assert ok is False and any(i.startswith(issue) for i in issues), issues
    assert all(i.startswith((issue, "chain")) for i in issues), issues


def test_replay_rejects_cfar_step_naming_another_cluster(base_spec, ctx):
    certificate = prove_equal(
        hide_a(base_spec, CLUSTER_SRC), proc(base_spec, "b + tau . (b + c)"), ctx
    ).certificate
    cfar, = [s for s in certificate.steps if s.rule == "CFAR"]
    assert replay_certificate(certificate, ctx) == (True, [])
    # The exit variable alone is a conservative cluster, but not the variable's.
    exit_var = cfar.before.right.body.spec.variables[-1]
    for members in ([exit_var], cfar.details["cluster"] + ["W"]):
        tampered = replace(cfar, details=dict(cfar.details, cluster=members))
        steps = [tampered if s is cfar else s for s in certificate.steps]
        ok, issues = replay_certificate(
            ProofCertificate(certificate.left, certificate.right, steps), ctx
        )
        assert not ok and len(issues) == 1 and issues[0].startswith("CFAR"), issues


def test_replay_reports_cfar_step_naming_a_variable_on_no_cluster(base_spec, ctx):
    # Y0 lies on another cluster than X0's, one with a visible step back into it.
    t = proc(base_spec, "hide{a}(rec X0 where {"
                        " X0 = [true] -> a . X1 + [true] -> b . E,"
                        " X1 = [true] -> a . X0 + [true] -> b . E, E = [true] -> epsilon,"
                        " Y0 = [true] -> a . Y1 + [true] -> c . Y1, Y1 = [true] -> a . Y0 })")
    _, cfar = apply_cfar(t.body.spec, "X0", t.patterns)
    certificate = ProofCertificate(cfar.before, cfar.after, [cfar])
    assert replay_certificate(certificate, ctx) == (True, [])
    hidden = cfar.before.right
    on_no_cluster = T.Seq(cfar.before.left, replace(hidden, body=T.RecConst("Y0", hidden.body.spec)))
    no_cluster = {k: v for k, v in cfar.details.items() if k != "cluster"}
    for tampered in (replace(cfar, before=on_no_cluster), replace(cfar, details=no_cluster),
                     replace(cfar, before=T.Seq(cfar.before.left, replace(hidden, patterns=())))):
        ok, issues = replay_certificate(
            ProofCertificate(cfar.before, cfar.after, [tampered]), ctx
        )
        assert not ok and len(issues) == 1 and issues[0].startswith("CFAR"), issues


def _tampers(spec):
    """Terms that stand in for one end of a step: a free recursion variable,
    inaction, a contingent guard and an assignment."""
    return [T.RecVar("Q")] + [proc(spec, t) for t in ("delta", "[v > 0] -> a", "v := v + 1 . a")]


WORKED_PAIRS = (FAIR_PAIR, IMP2_PAIR, A6_PAIR, ("hide{a}(b . (tau + tau . tau))", "b"),
                ("a . b", "a . b + a . b"))


def test_replay_reports_every_replaced_end_and_never_raises(base_spec, ctx):
    """Each end of each step replaced by each of the stand-in terms: replay
    reports an issue and raises nothing, whichever rule reads it. A lemma
    stands outside the chain, so its issues are its own: a CFAR lemma is
    recomputed from its printed left-hand side, and one that starts anywhere
    else fails."""
    for pair in WORKED_PAIRS:
        certificate = prove_equal(*(proc(base_spec, t) for t in pair), ctx).certificate
        for k, step in enumerate(certificate.steps):
            for end in ("before", "after"):
                for term in _tampers(base_spec):
                    steps = list(certificate.steps)
                    steps[k] = replace(step, **{end: term})
                    ok, issues = replay_certificate(
                        ProofCertificate(certificate.left, certificate.right, steps), ctx)
                    where = (pair, step.rule, end, render_term(term), issues)
                    assert ok is False and issues, where
                    if step.role == "lemma":
                        assert all(i.startswith(step.rule) for i in issues), where


def _reprinted(certificate, spec):
    """The certificate rebuilt from its printed JSON: both ends of every step
    parsed back, rule, role and details kept, and the RSP step's witness, the
    one part not printed, carried over.

    The ends are parsed against the spec's declarations alone, so a named
    process cannot capture a linearizer variable, with every name that is
    not declared read as a recursion variable, as a lemma's ends name the
    variables of their specification."""
    printed = json.loads(json.dumps(certificate.to_json_dict()))
    decls = replace(spec, procs={})

    def parse(text):
        parser = P.Parser(P.tokenize(text), spec=decls)
        parser.rec_depth = 1
        term = parser.parse_expr("proc")
        assert parser.peek().kind == "eof", text
        return term

    steps = [ProofStep(s["rule"], parse(s["before"]), parse(s["after"]), role=s["role"],
                       details=s["details"], witness=step.witness)
             for s, step in zip(printed["steps"], certificate.steps)]
    return ProofCertificate(parse(printed["left"]), parse(printed["right"]), steps)


def test_editing_the_printed_certificate_leaves_it_as_it_was(base_spec, ctx):
    """What `to_json_dict` prints shares no details with the steps: dropping
    every printed direction, or naming another cluster in print, changes
    nothing that replay reads."""
    certificate = prove_equal(*(proc(base_spec, t) for t in FAIR_PAIR), ctx).certificate
    printed = certificate.to_json_dict()["steps"]
    assert [s["details"].pop("direction") for s in printed if "direction" in s["details"]]
    for s in printed:
        s["details"].get("cluster", []).append("L0")
    assert replay_certificate(certificate, ctx) == (True, [])


def test_the_printed_worked_certificates_replay(base_spec, ctx):
    for pair in WORKED_PAIRS:
        certificate = prove_equal(*(proc(base_spec, t) for t in pair), ctx).certificate
        assert replay_certificate(_reprinted(certificate, base_spec), ctx) == (True, []), pair


@pytest.mark.parametrize("seed", [1, 2])
def test_the_printed_corpus_certificates_replay(seed):
    """Every certificate of the benchmark's proof plan, replayed from what
    `prove --json` prints plus the RSP witness."""
    plan = bench_module("workloads").make_plan("prove_corpus", seed)
    specs = {name: P.parse_spec(text) for name, text in plan["specs"].items()}
    contexts = {name: spec.context() for name, spec in specs.items()}
    proved, rules = 0, []
    for op in plan["ops"]:
        spec, ctx = specs[op["spec"]], contexts[op["spec"]]
        result = prove_equal(spec.process(op["left"]), spec.process(op["right"]), ctx)
        if result.equal:
            certificate = _reprinted(result.certificate, spec)
            assert replay_certificate(certificate, ctx) == (True, []), op
            proved += 1
            rules += [s.rule for s in certificate.steps]
    assert (proved, rules.count("RSP"), rules.count("CFAR")) == (149, 120, 105)


def test_replay_checks_absorbed_silent_equations(base_spec, ctx):
    certificate = prove_equal(
        proc(base_spec, "hide{a}(b . (tau + tau . tau))"), proc(base_spec, "b"), ctx
    ).certificate
    absorbed = [s for s in certificate.steps if s.rule == "BED"]
    assert len(absorbed) == 2
    assert replay_certificate(certificate, ctx) == (True, [])
    bed = absorbed[0]
    target = T.summand_parts(T.summands(bed.before)[0])[2]
    visible = T.Guard(TRUE, T.Seq(T.Atom(T.BasicAction("a")), T.RecVar(target)))
    u0 = cond(base_spec, "u = 0")
    conditional = T.alt_fold([replace(s, cond=u0) for s in T.summands(bed.before)])
    for tampered in (replace(bed, before=T.Alt(bed.before, visible)),
                     replace(bed, before=conditional),
                     replace(bed, after=T.Guard(u0, T.EPSILON))):
        steps = [tampered if s is bed else s for s in certificate.steps]
        ok, issues = replay_certificate(
            ProofCertificate(certificate.left, certificate.right, steps), ctx
        )
        assert not ok and len(issues) == 1 and issues[0].startswith("BED"), issues
    # Generated inputs: a choice of silent tails after p leaves equations made
    # of silent steps alone, which linearization absorbs as BED lemmas.
    hide = proc(base_spec, "hide{c}(tau + tau . tau)")
    cfg = G.GenConfig(max_depth=2, bool_cond_only=True, allow_par=False, allow_eval=False)
    rng = random.Random(9)
    proved = absorbing = 0
    for _ in range(100):
        t = T.Abstr(hide.patterns, T.Seq(G.random_proc(rng, cfg, ctx), hide.body))
        certificate = prove_equal(t, t, ctx).certificate
        proved += 1
        absorbed = [s for s in certificate.steps if s.rule == "BED"]
        if not absorbed:
            continue
        absorbing += 1
        assert replay_certificate(certificate, ctx) == (True, []), render_term(t)
        bed = absorbed[0]
        steps = [replace(bed, after=T.Guard(CFalse(), T.EPSILON)) if s is bed else s
                 for s in certificate.steps]
        ok, issues = replay_certificate(
            ProofCertificate(certificate.left, certificate.right, steps), ctx
        )
        assert not ok and len(issues) == 1 and issues[0].startswith("BED"), issues
    assert (proved, absorbing) == (100, 71)


def test_every_hidden_glrs_proves_itself():
    """Fair abstraction applies to every strongly connected component of the
    hidden moves, a visible step back into it included: each of 400 seeded
    hide{P}(rec ...) terms proves itself, its certificate replays, and its
    linear form is equivalent to it."""
    cfg = G.GenConfig(max_depth=2, bool_cond_only=True)
    ctx = G.default_context(cfg)
    rng = random.Random(7)
    reentered = 0
    for i in range(400):
        spec = G.random_glrs(rng, cfg, ctx)
        if i % 2:
            patterns = G.random_patterns(rng, cfg)
        else:
            patterns = (T.ActionPattern("name", rng.choice(cfg.action_names)),)
        t = T.Abstr(patterns, T.RecConst(spec.variables[0], spec))
        result = prove_equal(t, t, ctx)
        assert result.equal, render_term(t)
        assert replay_certificate(result.certificate, ctx) == (True, []), render_term(t)
        lin_spec, var, _ = normalize_bool_conditional(t, ctx)
        assert decide_rb(t, T.RecConst(var, lin_spec), ctx).equivalent, render_term(t)
        reentered += any(c.cyclic and any(row[2] in c.member_set for row in c.exit_rows)
                         for c in clusters_of(spec, patterns))
    assert reentered == 12  # terms with an exit back into a silent cycle


def test_contingent_guards_beneath_an_abstraction_linearize_soundly():
    """300 seeded hide{P}(rec ...) terms whose guards may be contingent,
    every other one sequenced after a guarded side term: each linear form is
    equivalent to its term, each self-proof replays, and each refusal is a
    contingent condition on a hidden cycle."""
    cfg = G.GenConfig(max_depth=1)
    ctx = G.default_context(cfg)
    rng = random.Random(33)
    linearized = refused = 0
    for i in range(300):
        spec = G.random_glrs(rng, cfg, ctx)
        body = T.RecConst(spec.variables[0], spec)
        if i % 2:
            side = T.Guard(G.random_cond(rng, cfg, ctx), G.random_proc(rng, cfg, ctx, 1))
            body = T.Seq(side, body)
        t = T.Abstr(G.random_patterns(rng, cfg), body)
        try:
            lin_spec, var, _ = normalize_bool_conditional(t, ctx)
        except UnsupportedFragmentError as exc:
            assert str(exc).startswith("a silent cycle has a hidden step"), render_term(t)
            refused += 1
            continue
        assert decide_rb(t, T.RecConst(var, lin_spec), ctx).equivalent, render_term(t)
        result = prove_equal(t, t, ctx)
        assert replay_certificate(result.certificate, ctx) == (True, []), render_term(t)
        linearized += 1
    assert (linearized, refused) == (288, 12)


# --- one explorer per query, never shared with the checker ---------------------------

def _watch_explorers(monkeypatch):
    """Every `_Sos` made from now on, and the explorer each `build_lts` call
    of the prover or the checker runs with."""
    from deacp import bisim, linear, sos_sigma

    made, used = [], []
    init = sos_sigma._Sos.__init__

    def counting_init(self, ctx):
        made.append(self)
        init(self, ctx)

    def watched_build(*args, explorer=None, **kwargs):
        used.append(explorer)
        return build_lts(*args, explorer=explorer, **kwargs)

    monkeypatch.setattr(sos_sigma._Sos, "__init__", counting_init)
    for module in (bisim, linear):
        monkeypatch.setattr(module, "build_lts", watched_build)
    return made, used


def _assert_prover_and_checker_explore_apart(pairs, monkeypatch):
    """Each prove_equal call makes one explorer and builds every system with
    it; each replay makes one of its own, never the prover's."""
    made, used = _watch_explorers(monkeypatch)
    replays = 0
    for left, right, ctx in pairs:
        del made[:], used[:]
        result = prove_equal(left, right, ctx)
        assert len(made) == 1 and used
        prover = made[0]
        assert all(e is prover for e in used)
        if not result.equal:
            continue
        del made[:], used[:]
        assert replay_certificate(result.certificate, ctx) == (True, [])
        assert len(made) == 1 and made[0] is not prover
        assert all(e is made[0] for e in used)
        replays += bool(used)
    assert replays  # some certificates carry an RSP step


def test_the_checker_never_explores_with_the_provers_explorer(monkeypatch):
    """On the benchmark's frozen proof corpus and the worked examples."""
    import os

    from deacp import parser as P

    workloads = bench_module("workloads")
    files = [os.path.join(workloads.CORPUS_DIR, f) for f in workloads.CORPUS_FILES]
    sources = [workloads.read_corpus(path) for path in files]
    text, ops = workloads._worked_examples()
    sources.append((text, [(op["left"], op["right"]) for op in ops]))
    pairs = []
    for text, names in sources:
        spec = P.parse_spec(text)
        ctx = spec.context()
        pairs += [(spec.process(left), spec.process(right), ctx) for left, right in names]
    assert len(pairs) == 150
    _assert_prover_and_checker_explore_apart(pairs, monkeypatch)


def test_a_prove_and_its_replay_unfold_each_constant_once(base_spec, monkeypatch):
    """Unfoldings belong to the context: the prover's explorer and the
    checker's, under one context, unfold each constant once between them."""
    from deacp import terms

    calls = []
    unfold = terms.unfold

    def counting_unfold(const):
        calls.append(const)
        return unfold(const)

    monkeypatch.setattr(terms, "unfold", counting_unfold)
    division = ("eval{sigma}(q := 0 . r := i . rec Q where {"
                " Q = [r >= j] -> q := q + 1 . R + [r < j] -> epsilon,"
                " R = [true] -> r := r - j . Q })")
    chain = "q := 0 . r := 11 . q := 1 . r := 8 . q := 2 . r := 5 . q := 3 . r := 2"
    for left, right in ((division, chain), (f"hide{{a}}({CLUSTER_SRC})", "b + tau . (b + c)")):
        ctx = base_spec.context()
        del calls[:]
        result = prove_equal(proc(base_spec, left), proc(base_spec, right), ctx)
        assert result.equal
        assert replay_certificate(result.certificate, ctx) == (True, [])
        assert calls and len(calls) == len(set(calls)), calls
        assert set(calls) == set(ctx._unfolded)
