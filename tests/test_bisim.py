import dataclasses
import functools
import itertools
import random
import time

import pytest

import lts_oracle
import pair_oracle
import validity_oracle
from conftest import proc
from deacp import gen as G
from deacp import parser as P
from deacp import terms as T
from deacp.bisim import (
    BisimResult,
    _ActionClasses,
    _blocks,
    _explain_roots,
    _Union,
    action_class,
    actions_equivalent,
    decide_rab,
    decide_rb,
    rooted_ab_bisim,
    rooted_branching_bisim,
    rooted_branching_classes,
    shared_domain,
    verify_branching_bisimulation,
)
from deacp.data_algebra import App, Flex, Lit
from deacp.errors import DeacpError, EnumerationLimitError, ShapeError
from deacp.sos_cond import build_cond_lts, expand_to_sigma
from deacp.sos_sigma import build_lts


def replay_counterexample(l1, l2, result, ctx, related_paths=False) -> bool:
    """Confirm a negative verdict: the recorded violation is one that the
    conditions which decided it find for the roots against the greatest
    relation, recomputed rather than read from the result. related_paths
    says which equivalence decided it: the condition-labelled one (True) or
    rooted branching bisimilarity."""
    ce = result.counterexample
    if ce is None or (ce["left_id"], ce["right_id"]) != (l1.root, l2.root):
        return False
    u = _Union((l1, l2), ctx)
    return ce in _explain_roots(u, _blocks(u, related_paths), related_paths)


def test_action_class_evaluates_closed_data(ctx):
    a_sum = T.ParamAction("a", (App("+", (Lit(3), Lit(2))),))
    a_five = T.ParamAction("a", (Lit(5),))
    assert action_class(a_sum, ctx) == action_class(a_five, ctx)


def test_action_class_distinguishes_assignment_targets(ctx):
    v1 = T.AssignAction("v", Lit(1))
    w1 = T.AssignAction("u", Lit(1))
    assert action_class(v1, ctx) != action_class(w1, ctx)


def test_action_class_tau_vs_basic(ctx):
    assert action_class(T.TAU, ctx) != action_class(T.BasicAction("a"), ctx)


def test_action_class_open_argument_requires_map(ctx):
    # an open argument has no value without a map: its key tabulates the
    # argument over every map of v, so it is the key of no closed argument
    open_action = T.ParamAction("a", (Flex("v"),))
    key = action_class(open_action, ctx)
    assert key == (T.ParamAction, "a", 1, (("v",), tuple(ctx.carrier.values())))
    for c in ctx.carrier.values():
        assert key != action_class(T.ParamAction("a", (Lit(c),)), ctx)


def test_actions_equivalent_on_open_arguments(ctx):
    # validity-based equivalence: v + 0 always equals v, so they share a key
    e1 = T.ParamAction("a", (App("+", (Flex("v"), Lit(0))),))
    e2 = T.ParamAction("a", (Flex("v"),))
    e3 = T.ParamAction("a", (Lit(0),))
    assert action_class(e1, ctx) == action_class(e2, ctx)
    assert action_class(e2, ctx) != action_class(e3, ctx)
    assert actions_equivalent(e1, e2, ctx)
    assert not actions_equivalent(e2, e3, ctx)


def test_actions_equivalent_matches_the_pairwise_oracle(small_ctx):
    """Signatures decide data equality as evaluating both terms under every
    map over the union of their variables does. Each generated action is
    paired with one of the same kind and name: its data replaced by a
    spelling equal by construction, or by fresh generated data. One
    `_ActionClasses` numbers all of them, so the first action of each head
    arrives untabulated and is keyed only when a second shares its head."""
    rng = random.Random(21)
    cfg = G.GenConfig(flex_vars=("u", "v", "h"), param_arities={"a": (1, 2), "b": (1,)})
    classes = _ActionClasses(small_ctx)
    verdicts = []
    for k in range(1500):
        a1 = G.random_action(rng, cfg, small_ctx)

        def data(e):
            return G._equal_data_variant(rng, e) if k % 2 else G.random_data(rng, cfg, small_ctx, 1)

        if isinstance(a1, T.ParamAction):
            a2 = T.ParamAction(a1.name, tuple(map(data, a1.args)))
        elif isinstance(a1, T.AssignAction):
            a2 = T.AssignAction(a1.var, data(a1.expr))
        else:
            a2 = G.random_action(rng, cfg, small_ctx)
        expected = validity_oracle.actions_equivalent(a1, a2, small_ctx)
        assert actions_equivalent(a1, a2, small_ctx) == expected, (a1, a2)
        assert (classes(a1) == classes(a2)) == expected, (a1, a2)
        if a1 != a2 and type(a1) is type(a2) is not T.BasicAction:
            verdicts.append(expected)
    assert verdicts.count(True) > 300 and verdicts.count(False) > 200
    assert all(classes(rep) == c for c, rep in enumerate(classes.reps))


def test_only_actions_sharing_a_head_are_tabulated():
    """A lone assignment to x reading four variables is never tabulated
    (32^4 maps exceed the bound of 10^6); a second assignment to x makes
    both tabulated."""
    spec = P.parse_spec("domain -16..15\nvars x, p, q, r, s\n")
    ctx = spec.context()
    lone = proc(spec, "x := p + q + r + s . epsilon")
    assert decide_rb(lone, lone, ctx).equivalent
    pair = proc(spec, "x := p + q + r + s . epsilon + x := s + r + q + p + 1 . epsilon")
    with pytest.raises(EnumerationLimitError):
        decide_rb(pair, pair, ctx)


def test_silent_closure(base_spec, ctx):
    t = proc(base_spec, "tau . tau . a")
    lts = build_lts(t, ctx)
    sigma = lts.maps[0]
    closure = pair_oracle.silent_closure(lts, lts.root, sigma)
    assert len(closure) == 3  # the two silent steps plus reflexivity
    plain = build_lts(proc(base_spec, "a . b"), ctx)
    assert pair_oracle.silent_closure(plain, plain.root, plain.maps[0]) == {plain.root}


def test_silent_closure_is_map_indexed(base_spec, ctx):
    t = proc(base_spec, "[v = 0] -> tau . a")
    lts = build_lts(t, ctx, domain=("v",))
    with_tau = [m for m in lts.maps if m.value("v") == 0][0]
    without = [m for m in lts.maps if m.value("v") == 1][0]
    assert len(pair_oracle.silent_closure(lts, lts.root, with_tau)) == 2
    assert pair_oracle.silent_closure(lts, lts.root, without) == {lts.root}


def test_alt_inaction_equivalent(base_spec, ctx):
    assert decide_rb(proc(base_spec, "a + delta"), proc(base_spec, "a"), ctx).equivalent


def test_branching_axiom_equivalent(base_spec, ctx):
    left = proc(base_spec, "a . (tau . (b + c) + b)")
    right = proc(base_spec, "a . (b + c)")
    assert decide_rb(left, right, ctx).equivalent


def test_distinguishing_action(base_spec, ctx):
    result = decide_rb(proc(base_spec, "a . b"), proc(base_spec, "a . c"), ctx)
    assert not result.equivalent
    assert result.counterexample["kind"] in ("step", "root-step")


def test_weakly_but_not_branching_bisimilar(base_spec, ctx):
    # after a, the left side takes b from a state that can still do a; the
    # right side takes b only after a silent step that gives a up
    left = proc(base_spec, "a . (b + tau . (b + c) + a)")
    right = proc(base_spec, "a . (tau . (b + c) + a)")
    assert not decide_rb(left, right, ctx).equivalent
    assert not decide_rab(left, right, ctx).equivalent
    domain = shared_domain(left, right, ctx)
    l1 = build_lts(left, ctx, domain=domain)
    l2 = build_lts(right, ctx, domain=domain)
    assert rooted_branching_bisim(l1, l2, ctx).relation == \
        pair_oracle.greatest_relation(l1, l2, ctx)


def test_ab_bisim_splits_disjunction(base_spec, ctx):
    left = proc(base_spec, "[v = 0 or v = 1] -> a")
    right = proc(base_spec, "[v = 0] -> a + [v = 1] -> a")
    assert decide_rab(left, right, ctx).equivalent
    assert decide_rb(left, right, ctx).equivalent


def test_ab_bisim_rejects_silent_choice_collapse(base_spec, ctx):
    left = proc(base_spec, "a + tau . b")
    right = proc(base_spec, "a + b")
    assert not decide_rab(left, right, ctx).equivalent
    assert not decide_rb(left, right, ctx).equivalent


def test_ab_bisim_identity(base_spec, ctx):
    t = proc(base_spec, "[v = 0] -> a . b + tau . c")
    assert decide_rab(t, t, ctx).equivalent


@pytest.mark.parametrize("decide, name, build, engine", [
    (decide_rb, "build_lts", build_lts, rooted_branching_bisim),
    (decide_rab, "build_cond_lts", build_cond_lts,
     lambda c1, c2, ctx: rooted_ab_bisim(c1, c2, ctx, c1.domain)),
])
def test_a_self_check_builds_its_system_once(base_spec, ctx, monkeypatch, decide, name,
                                             build, engine):
    import deacp.bisim as B

    built = []
    monkeypatch.setattr(B, name, lambda t, *args, **kw: built.append(t) or build(t, *args, **kw))
    text = "[v = 0] -> a . b + tau . c"
    t = proc(base_spec, text)
    # the same term, an equal copy of it, and a different one
    for other, builds in ((t, 1), (proc(base_spec, text), 1), (proc(base_spec, "a + c"), 2)):
        built.clear()
        result = decide(t, other, ctx)
        assert len(built) == builds, other
        domain = shared_domain(t, other, ctx)
        separate = engine(build(t, ctx, domain=domain), build(other, ctx, domain=domain), ctx)
        assert result == separate


def test_decide_rb_and_decide_rab_each_build_both_sides_with_one_explorer(
        base_spec, ctx, monkeypatch):
    from deacp import sos_cond, sos_sigma

    def counting(init, seen):
        def counting_init(self, c):
            seen.append(self)
            init(self, c)
        return counting_init

    made = {sos_sigma._Sos: [], sos_cond._CondSos: []}
    for cls, seen in made.items():
        monkeypatch.setattr(cls, "__init__", counting(cls.__init__, seen))
    left, right = proc(base_spec, "a . (b + tau . b)"), proc(base_spec, "tau . a . b")
    assert not decide_rb(left, right, ctx).equivalent
    assert [len(seen) for seen in made.values()] == [1, 0]
    assert not decide_rab(left, right, ctx).equivalent
    assert [len(seen) for seen in made.values()] == [1, 1]


def test_rb_is_an_equivalence_on_a_corpus(small_ctx):
    rng = random.Random(41)
    cfg = G.GenConfig(max_depth=2)
    terms = [G.random_proc(rng, cfg, small_ctx, 2) for _ in range(10)]
    # reflexivity
    for t in terms:
        assert decide_rb(t, t, small_ctx).equivalent
    # symmetry and a transitivity spot-check through rewritten chains
    for t in terms[:6]:
        _, t2, _ = G.rewritten_pair(rng, cfg, small_ctx, base=t, steps=1)
        _, t3, _ = G.rewritten_pair(rng, cfg, small_ctx, base=t2, steps=1)
        assert decide_rb(t, t2, small_ctx).equivalent == decide_rb(t2, t, small_ctx).equivalent
        assert decide_rb(t, t3, small_ctx).equivalent


def test_congruence_spot_checks(small_ctx):
    rng = random.Random(42)
    cfg = G.GenConfig(max_depth=1)
    for _ in range(12):
        base = G.random_proc(rng, cfg, small_ctx, 1)
        _, other, _ = G.rewritten_pair(rng, cfg, small_ctx, base=base, steps=1)
        hole = G.random_proc(rng, cfg, small_ctx, 1)
        phi = G.random_cond(rng, cfg, small_ctx)
        emap = G.random_emap(rng, small_ctx)
        contexts = [
            lambda s: T.Alt(s, hole),
            lambda s: T.Seq(hole, s),
            lambda s: T.Seq(s, hole),
            lambda s: T.Par(s, hole),
            lambda s: T.LeftMerge(s, hole),
            lambda s: T.CommMerge(s, hole),
            lambda s: T.Encap((T.ActionPattern("name", "a"),), s),
            lambda s: T.Abstr((T.ActionPattern("name", "b"),), s),
            lambda s: T.Guard(phi, s),
            lambda s: T.Eval(emap, s),
        ]
        assert decide_rb(base, other, small_ctx).equivalent
        wrap = rng.choice(contexts)
        assert decide_rb(wrap(base), wrap(other), small_ctx).equivalent


def test_witness_relation_verifies(base_spec, ctx):
    left = proc(base_spec, "a . (tau . (b + c) + b)")
    right = proc(base_spec, "a . (b + c)")
    domain = shared_domain(left, right, ctx)
    l1 = build_lts(left, ctx, domain=domain)
    l2 = build_lts(right, ctx, domain=domain)
    result = rooted_branching_bisim(l1, l2, ctx)
    assert result.equivalent
    assert verify_branching_bisimulation(l1, l2, result.groups, ctx) == []
    # A positive verdict has no counterexample to replay.
    assert replay_counterexample(l1, l2, result, ctx) is False


def test_systems_over_different_domains_are_refused(base_spec, ctx):
    t = proc(base_spec, "[v = 0] -> a")
    l1, l2 = build_lts(t, ctx, domain=("v",)), build_lts(t, ctx, domain=("u", "v"))
    for check in (lambda: rooted_branching_bisim(l1, l2, ctx),
                  lambda: rooted_branching_classes([l1, l1, l2], ctx),
                  lambda: verify_branching_bisimulation(l1, l2, (((0,), (0,)),), ctx)):
        with pytest.raises(ShapeError, match="ambient domains differ"):
            check()


def test_counterexample_replays(base_spec, ctx):
    left = proc(base_spec, "a . b")
    right = proc(base_spec, "a . c")
    domain = shared_domain(left, right, ctx)
    l1 = build_lts(left, ctx, domain=domain)
    l2 = build_lts(right, ctx, domain=domain)
    result = rooted_branching_bisim(l1, l2, ctx)
    assert not result.equivalent
    assert replay_counterexample(l1, l2, result, ctx)


@pytest.mark.parametrize("left,right,kind", [
    ("a . b", "a . c", "step"),
    ("epsilon", "delta", "termination"),
    ("tau . epsilon + epsilon", "tau . epsilon", "root-termination"),
    ("a", "tau . a", "root-step"),
    ("[v = 0] -> a", "a", "step"),
])
def test_every_counterexample_kind_replays(base_spec, ctx, left, right, kind):
    t1 = proc(base_spec, left)
    t2 = proc(base_spec, right)
    domain = shared_domain(t1, t2, ctx)
    l1 = build_lts(t1, ctx, domain=domain)
    l2 = build_lts(t2, ctx, domain=domain)
    result = rooted_branching_bisim(l1, l2, ctx)
    assert not result.equivalent
    assert result.counterexample["kind"] == kind
    assert replay_counterexample(l1, l2, result, ctx)


def test_forged_counterexample_is_rejected(base_spec, ctx):
    t1, t2 = proc(base_spec, "a + b"), proc(base_spec, "a")
    l1, l2 = build_lts(t1, ctx, domain=()), build_lts(t2, ctx, domain=())
    result = rooted_branching_bisim(l1, l2, ctx)
    assert result.counterexample["action"] == "b"
    assert replay_counterexample(l1, l2, result, ctx)
    # The right root answers a, so a left step a is no violation.
    forged = BisimResult(False, dict(result.counterexample, action="a"), result.groups)
    assert not replay_counterexample(l1, l2, forged, ctx)


def test_counterexample_against_a_forged_relation_is_rejected(base_spec, ctx):
    # a is equivalent to itself. Against an empty relation the roots would be
    # unrelated and a left step a unanswered; replay must not take that
    # relation from the result.
    lts = build_lts(proc(base_spec, "a"), ctx, domain=())
    ce = {"left_state": "a", "right_state": "a", "left_id": 0, "right_id": 0,
          "side": "left", "kind": "step", "map": {}, "action": "a", "target": "epsilon"}
    assert not replay_counterexample(lts, lts, BisimResult(False, ce, ()), ctx)


def test_condition_labelled_counterexample_replays(base_spec, ctx):
    # Under rab the answer to a must pass only through states related to a;
    # the plain silent closure would answer it through tau . a.
    t1, t2 = proc(base_spec, "a"), proc(base_spec, "tau . (c + tau . a)")
    c1, c2 = build_cond_lts(t1, ctx, domain=()), build_cond_lts(t2, ctx, domain=())
    result = rooted_ab_bisim(c1, c2, ctx, ())
    assert not result.equivalent
    assert (result.counterexample["side"], result.counterexample["kind"],
            result.counterexample["action"]) == ("left", "step", "a")
    l1, l2 = expand_to_sigma(c1, ctx, ()), expand_to_sigma(c2, ctx, ())
    assert replay_counterexample(l1, l2, result, ctx, related_paths=True)


def test_conjecture_experiment_on_axiom_corpus(small_ctx):
    # instances of sound axioms must come out equivalent under both notions
    from deacp import axioms as AX
    from deacp.bisim import conjecture_experiment

    rng = random.Random(81)
    cfg = G.GenConfig()
    names = [n for n in AX.SOUNDNESS_SUITE if n != "CM1E"]
    corpus = [G.axiom_instance(rng.choice(names), rng, cfg, small_ctx)
              for _ in range(30)]
    rep = conjecture_experiment(small_ctx, pairs=corpus)
    assert rep.total == 30
    assert rep.both_equivalent == 30
    assert not rep.divergent


def test_conjecture_experiment_on_distinguishable_corpus(base_spec, ctx):
    from deacp.bisim import conjecture_experiment

    corpus = [
        (proc(base_spec, "a . b"), proc(base_spec, "a . c")),
        (proc(base_spec, "a"), proc(base_spec, "b")),
        (proc(base_spec, "a + tau . b"), proc(base_spec, "a + b")),
    ]
    rep = conjecture_experiment(ctx, pairs=corpus)
    assert rep.both_inequivalent == 3
    assert not rep.divergent


def test_conjecture_experiment_empty_corpus(ctx):
    from deacp.bisim import conjecture_experiment

    rep = conjecture_experiment(ctx, pairs=[])
    assert rep.total == 0
    assert rep.both_equivalent == rep.both_inequivalent == 0
    assert rep.divergent == [] and rep.skipped == []


def test_signature_refinement_agrees_on_tau_free(small_ctx):
    rng = random.Random(43)
    cfg = G.GenConfig(allow_tau=False, allow_abstr=False, max_depth=2)
    checked = 0
    for _ in range(40):
        t1 = G.random_proc(rng, cfg, small_ctx, 2, tau_ok=False)
        t2 = (
            G.rewritten_pair(rng, cfg, small_ctx, base=t1, steps=1)[1]
            if rng.random() < 0.5
            else G.random_proc(rng, cfg, small_ctx, 2, tau_ok=False)
        )
        domain = shared_domain(t1, t2, small_ctx)
        l1 = build_lts(t1, small_ctx, domain=domain)
        l2 = build_lts(t2, small_ctx, domain=domain)
        if not (lts_oracle.tau_free(l1) and lts_oracle.tau_free(l2)):
            continue
        naive, _ = pair_oracle.decide(l1, l2, small_ctx)
        fast = rooted_branching_bisim(l1, l2, small_ctx).equivalent
        assert naive == fast
        checked += 1
    assert checked >= 25


# --- the refinement engine against the pair-refinement oracle ---------------------

@functools.lru_cache(maxsize=None)
def _corpus_801():
    ctx = G.default_context()
    return ctx, G.pair_corpus(ctx, 300, seed=801)


@functools.lru_cache(maxsize=None)
def _silent_corpus():
    """80 pairs over GenConfig(max_depth=3, allow_abstr=True) where at least
    one side takes a silent step: half rewritten pairs, half independent terms."""
    cfg = G.GenConfig(max_depth=3, allow_abstr=True)
    ctx = G.default_context(cfg)
    rng = random.Random(5)
    pairs = []
    attempts = 0
    while len(pairs) < 80 and attempts < 1000:
        attempts += 1
        try:
            if attempts % 2:
                t1, t2, _ = G.rewritten_pair(rng, cfg, ctx)
            else:
                t1, t2 = G.random_proc(rng, cfg, ctx), G.random_proc(rng, cfg, ctx)
            domain = shared_domain(t1, t2, ctx)
            l1 = build_lts(t1, ctx, domain=domain)
            l2 = build_lts(t2, ctx, domain=domain)
        except DeacpError:
            continue
        if len(l1.states) <= 50 and len(l2.states) <= 50 \
                and not (lts_oracle.tau_free(l1) and lts_oracle.tau_free(l2)):
            pairs.append((t1, t2))
    return ctx, pairs


@pytest.mark.parametrize("corpus", [_corpus_801, _silent_corpus], ids=["seed801", "silent"])
@pytest.mark.parametrize("related_paths", [False, True], ids=["rb", "rab"])
def test_engine_matches_pair_refinement(corpus, related_paths):
    ctx, pairs = corpus()
    checked = 0
    verdicts = set()
    for t1, t2 in pairs:
        domain = shared_domain(t1, t2, ctx)
        try:
            if related_paths:
                c1 = build_cond_lts(t1, ctx, domain=domain)
                c2 = build_cond_lts(t2, ctx, domain=domain)
                l1 = expand_to_sigma(c1, ctx, domain)
                l2 = expand_to_sigma(c2, ctx, domain)
            else:
                l1 = build_lts(t1, ctx, domain=domain)
                l2 = build_lts(t2, ctx, domain=domain)
        except DeacpError:
            continue
        if related_paths:
            result = rooted_ab_bisim(c1, c2, ctx, domain)
        else:
            result = rooted_branching_bisim(l1, l2, ctx)
        verdict, relation = pair_oracle.decide(l1, l2, ctx, related_paths)
        assert result.relation == relation, (t1, t2)
        assert result.equivalent == verdict, (t1, t2)
        if verdict:
            assert result.witness == tuple(sorted(relation))
        else:
            assert replay_counterexample(l1, l2, result, ctx, related_paths), \
                result.counterexample
        verdicts.add(verdict)
        checked += 1
    assert checked >= 0.9 * len(pairs) and verdicts == {True, False}


def _moved(groups, rng):
    """groups with one random member moved to another group, or to none."""
    if not groups:
        return groups
    g, k = rng.randrange(len(groups)), rng.randrange(2)
    out = [list(map(list, group)) for group in groups]
    if not out[g][k]:
        return groups
    state = out[g][k].pop(rng.randrange(len(out[g][k])))
    h = rng.randrange(len(groups) + 1)
    if h < len(groups) and h != g:
        out[h][k].append(state)
    return tuple((tuple(left), tuple(right)) for left, right in out)


@pytest.mark.parametrize("corpus", [_corpus_801, _silent_corpus], ids=["seed801", "silent"])
def test_group_checker_matches_the_pair_checker(corpus):
    """On the engine's groups, on copies with one member moved and on a copy
    with one group dropped, the group checker accepts exactly the witnesses
    the per-pair check accepts."""
    ctx, pairs = corpus()
    rng = random.Random(17)
    verdicts = []
    for t1, t2 in pairs:
        domain = shared_domain(t1, t2, ctx)
        try:
            l1 = build_lts(t1, ctx, domain=domain)
            l2 = build_lts(t2, ctx, domain=domain)
        except DeacpError:
            continue
        groups = rooted_branching_bisim(l1, l2, ctx).groups
        dropped = tuple(grp for grp in groups if grp is not rng.choice(groups)) if groups else ()
        for candidate in (groups, _moved(groups, rng), _moved(groups, rng), dropped):
            relation = {(i, j) for left, right in candidate for i in left for j in right}
            expected = pair_oracle.is_rooted_witness(l1, l2, relation, ctx)
            issues = verify_branching_bisimulation(l1, l2, candidate, ctx)
            assert (issues == []) == expected, (t1, t2, candidate, issues)
            verdicts.append(expected)
    assert verdicts.count(True) >= 20 and verdicts.count(False) >= 20


def test_a_witness_with_one_state_moved_is_rejected(base_spec, ctx):
    left = proc(base_spec, "a . (tau . (b + c) + b) + c . (tau . (b + a) + b)")
    right = proc(base_spec, "a . (b + c) + c . (b + a)")
    domain = shared_domain(left, right, ctx)
    l1 = build_lts(left, ctx, domain=domain)
    l2 = build_lts(right, ctx, domain=domain)
    groups = rooted_branching_bisim(l1, l2, ctx).groups
    assert verify_branching_bisimulation(l1, l2, groups, ctx) == []
    assert len(groups) >= 3
    for g, group in enumerate(groups):
        for k, members in enumerate(group):
            for state in members:
                for h in range(len(groups)):
                    if h == g:
                        continue
                    moved = [[list(m) for m in grp] for grp in groups]
                    moved[g][k].remove(state)
                    moved[h][k].append(state)
                    assert verify_branching_bisimulation(l1, l2, moved, ctx) != [], (g, k, h)
    # A state in two groups is no partition.
    doubled = groups + ((groups[0][0], ()),)
    assert verify_branching_bisimulation(l1, l2, doubled, ctx)[0]["kind"] == "bad-member"
    # b + epsilon and b share a group here: only the termination is unmet.
    l1 = build_lts(proc(base_spec, "a . (b + epsilon)"), ctx, domain=())
    l2 = build_lts(proc(base_spec, "a . b"), ctx, domain=())
    paired = tuple(((i,), (i,)) for i in range(3))
    assert [len(l1.states), len(l2.states)] == [3, 3]
    assert verify_branching_bisimulation(l1, l2, paired, ctx) == [
        {"kind": "unanswered", "side": "right", "state": 1, "map": {},
         "missing": [("termination", None)]}]


def test_unanswered_names_the_first_written_form_of_an_action_class(base_spec, ctx):
    """a(5) and a(3 + 2) are one class. The checker names a class by the form
    the union of both systems lists first (left before right, in transition
    order), whatever order the witness's groups present them in."""
    five = T.ParamAction("a", (Lit(5),))
    sum_ = T.ParamAction("a", (App("+", (Lit(3), Lit(2))),))
    l1 = build_lts(proc(base_spec, "a . epsilon"), ctx, domain=())
    sigma = l1.maps[0]
    l1 = dataclasses.replace(l1, transitions=[((sigma, five, 1),), ()])
    l2 = dataclasses.replace(l1, states=[*l1.states, l1.states[1]],
                             transitions=[((sigma, sum_, 1),), (), ()])
    groups = (((), (0,)), ((0,), (2,)), ((1,), (1,)))
    assert verify_branching_bisimulation(l1, l2, groups, ctx) == [
        {"kind": "unanswered", "side": "right", "state": 2, "map": {},
         "missing": [("a(5)", 2)]},
        {"kind": "root-missing"}]


DETOUR_SRC = """
domain 0..1
vars v
actions a, b, c, d
"""


def test_group_checker_follows_silent_paths_outside_the_group():
    """Under v = 0, X answers a at once, but R only after two hidden steps
    through R1, which offers b under v = 1 and so shares no group with X.
    Rooted branching bisimilarity lets the answering path pass R1; the
    condition-labelled equivalence does not, so the two disagree here."""
    spec = P.parse_spec(DETOUR_SRC)
    ctx = spec.context()
    left = proc(spec, "c . hide{d}(rec X where { X = [v = 0] -> a . Z + [v = 0] -> d . Y,"
                      " Y = [v = 0] -> d . X + [not v = 0] -> b . Z, Z = [true] -> epsilon })")
    right = proc(spec, "c . hide{d}(rec R where { R = [v = 0] -> d . R1,"
                       " R1 = [v = 0] -> d . R2 + [not v = 0] -> b . Z,"
                       " R2 = [v = 0] -> a . Z + [v = 0] -> d . R1, Z = [true] -> epsilon })")
    assert not decide_rab(left, right, ctx).equivalent
    domain = shared_domain(left, right, ctx)
    l1 = build_lts(left, ctx, domain=domain)
    l2 = build_lts(right, ctx, domain=domain)
    result = rooted_branching_bisim(l1, l2, ctx)
    assert result.equivalent
    assert verify_branching_bisimulation(l1, l2, result.groups, ctx) == []
    assert pair_oracle.is_rooted_witness(l1, l2, result.relation, ctx)


def _counters(k):
    """k hidden counters in parallel, each climbing 0..7 before its action."""
    names = "xyzw"[:k]
    spec = P.parse_spec(f"domain 0..8\nvars {', '.join(names)}\nactions act\n")
    body = " || ".join(
        f"(rec {v.upper()} where {{ {v.upper()} = [{v} < 7] -> {v} := {v} + 1 . {v.upper()}"
        f" + [{v} >= 7] -> act . {v.upper()}Z, {v.upper()}Z = [true] -> epsilon }})"
        for v in names)
    hidden = ", ".join(f"{v} :=" for v in names)
    start = ", ".join(f"{v} = 0" for v in names)
    return spec, proc(spec, f"hide{{{hidden}}}(eval{{{start}}}({body}))")


def test_h3_witness_verifies():
    """The 729-state self-check's witness relates 299 585 pairs in 4 groups;
    the per-pair replay took about 50 s on it, the group checker well under
    one."""
    spec, h3 = _counters(3)
    ctx = spec.context()
    lts = build_lts(h3, ctx, domain=())
    result = rooted_branching_bisim(lts, lts, ctx)
    assert len(lts.states) == 729 and result.equivalent
    assert sum(len(left) * len(right) for left, right in result.groups) == 299585
    started = time.process_time()
    assert verify_branching_bisimulation(lts, lts, result.groups, ctx) == []
    assert time.process_time() - started < 10


def test_rooted_branching_classes_match_pairwise_decisions():
    # 30 systems over one domain, built in pairs next to a rewritten copy so
    # that equivalent pairs occur; one refinement keys them all.
    cfg = G.GenConfig(max_depth=3, allow_abstr=True)
    ctx = G.default_context(cfg)
    rng = random.Random(7)
    domain = tuple(ctx.decl)
    ltss = []
    for _ in range(1000):
        if len(ltss) == 30:
            break
        try:
            pair = [build_lts(t, ctx, domain=domain)
                    for t in G.rewritten_pair(rng, cfg, ctx)[:2]]
        except DeacpError:
            continue
        if all(3 <= len(lts.states) <= 20 for lts in pair):
            ltss += pair
    assert len(ltss) == 30 and any(not lts_oracle.tau_free(lts) for lts in ltss)
    keys = rooted_branching_classes(ltss, ctx)
    verdicts = set()
    for i, j in itertools.combinations(range(len(ltss)), 2):
        equivalent = rooted_branching_bisim(ltss[i], ltss[j], ctx).equivalent
        assert (keys[i] == keys[j]) == equivalent, (i, j)
        verdicts.add(equivalent)
    assert verdicts == {True, False}
    assert rooted_branching_classes([], ctx) == []
