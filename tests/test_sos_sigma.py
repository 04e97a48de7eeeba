import pytest

from conftest import proc
from deacp import terms as T
from deacp.data_algebra import EvalMap, Lit
from deacp.errors import ExplorationLimitError
from deacp.parser import render_action
from deacp.sos_cond import build_cond_lts
from deacp.sos_sigma import build_lts, step, terminates


EMPTY = EvalMap(())
COUNTER = "eval{sigma}(rec X where { X = [true] -> q := q + 1 . X + [q >= 4] -> epsilon })"


def sigma_of(spec, **values):
    base = {v: 0 for v in spec.decl}
    base.update(values)
    return EvalMap.of(base)


def test_action_axiom(base_spec, ctx):
    assert step(proc(base_spec, "a"), sigma_of(base_spec), ctx) == {
        (T.BasicAction("a"), T.EPSILON)
    }


def test_inaction_and_empty(base_spec, ctx):
    sigma = sigma_of(base_spec)
    assert step(T.DELTA, sigma, ctx) == set()
    assert step(T.EPSILON, sigma, ctx) == set()
    assert terminates(T.EPSILON, sigma, ctx) is True
    assert terminates(T.DELTA, sigma, ctx) is False


def test_assignment_under_evaluation(base_spec, ctx):
    # the carried map evaluates the label and updates itself; the ambient
    # map plays no role
    t = proc(base_spec, "eval{sigma}(d := i . b)")
    for ambient in (sigma_of(base_spec), sigma_of(base_spec, d=5)):
        moves = step(t, ambient, ctx)
        assert len(moves) == 1
        (action, target), = moves
        assert action == T.AssignAction("d", Lit(11))
        assert isinstance(target, T.Eval)
        assert target.emap.value("d") == 11


def test_guard_termination(base_spec, ctx):
    t = proc(base_spec, "[v = 0] -> epsilon")
    assert terminates(t, sigma_of(base_spec, v=0), ctx) is True
    assert terminates(t, sigma_of(base_spec, v=1), ctx) is False


def test_chain_lts(base_spec, ctx):
    lts = build_lts(proc(base_spec, "a . b"), ctx)
    assert len(lts.states) == 3
    assert lts.num_transitions == 2
    final = [s for s, _ in lts.terminating]
    assert final == [2]


def test_division_example(base_spec, ctx):
    t = proc(
        base_spec,
        "eval{sigma}(q := 0 . r := i . rec Q where {"
        " Q = [r >= j] -> q := q + 1 . R + [r < j] -> epsilon,"
        " R = [true] -> r := r - j . Q })",
    )
    lts = build_lts(t, ctx)
    assert lts.domain == ()
    labels = []
    sid = lts.root
    while lts.transitions[sid]:
        assert len(lts.transitions[sid]) == 1
        _, action, sid = lts.transitions[sid][0]
        labels.append(render_action(action))
    assert labels == [
        "q := 0", "r := 11", "q := 1", "r := 8",
        "q := 2", "r := 5", "q := 3", "r := 2",
    ]
    assert (sid, EMPTY) in lts.terminating


def test_recursive_self_loop_is_one_state(base_spec, ctx):
    t = proc(base_spec, "rec X where { X = [true] -> a . X }")
    lts = build_lts(t, ctx)
    assert len(lts.states) == 1
    for sigma, action, target in lts.transitions[0]:
        assert target == 0
        assert action == T.BasicAction("a")
    assert not lts.terminating


def test_evaluated_terms_are_ambient_independent(base_spec, ctx):
    t = proc(base_spec, "eval{sigma}([v = 0] -> a + [true] -> b)")
    lts = build_lts(t, ctx, domain=("v",))
    for ts in lts.transitions:
        by_map = {}
        for sigma, action, target in ts:
            by_map.setdefault(sigma, set()).add((action, target))
        views = list(by_map.values())
        assert all(v == views[0] for v in views)


def test_synchronization_needs_matching_data(base_spec, ctx):
    good = proc(base_spec, "encap{a, b}(a(v) . a || b(v) . b)")
    sigma = sigma_of(base_spec, v=1)
    moves = step(good, sigma, ctx)
    assert {render_action(a) for a, _ in moves} == {"c(v)"}
    mismatched = proc(base_spec, "encap{a, b}(a(0) . a || b(1) . b)")
    assert step(mismatched, sigma, ctx) == set()


def test_mixed_basic_and_parameterized_never_synchronize(base_spec, ctx):
    t = proc(base_spec, "a(1) . a | b")
    assert step(t, sigma_of(base_spec), ctx) == set()


def test_finite_steps_on_random_terms(small_ctx):
    import random
    from deacp import gen as G

    rng = random.Random(5)
    cfg = G.GenConfig()
    for _ in range(80):
        t = G.random_proc(rng, cfg, small_ctx, depth=2)
        sigma = G.random_emap(rng, small_ctx)
        moves = step(t, sigma, small_ctx)
        assert isinstance(moves, set)
        assert len(moves) < 500


# Partial counts at the bound: one shared breadth-first loop serves both
# semantics, and the error reports where it stopped in each.
@pytest.mark.parametrize("build, text, transitions", [
    (build_lts, "[u > 0] -> a . b . c + [v < 0] -> b . (a || c)", 272),
    (build_cond_lts, "[u > 0] -> a . b . c + [v < 0] -> b . (a || c)", 1),
    (build_lts, COUNTER, 1),
    (build_cond_lts, COUNTER, 1),
], ids=["sigma-guards", "cond-guards", "sigma-counter", "cond-counter"])
def test_exploration_bound(base_spec, ctx, build, text, transitions):
    with pytest.raises(ExplorationLimitError) as err:
        build(proc(base_spec, text), ctx, bound=2)
    assert (err.value.states, err.value.transitions) == (2, transitions)


@pytest.mark.parametrize("build", [build_lts, build_cond_lts], ids=["sigma", "cond"])
def test_unguarded_recursion_raises(ctx, build):
    from deacp.conditions import TRUE
    from deacp.errors import GuardednessError

    bad = T.RecConst("X", T.RecSpec((
        ("X", T.Guard(TRUE, T.Seq(T.Atom(T.TAU), T.RecVar("X")))),
    )))
    with pytest.raises(GuardednessError):
        build(bad, ctx)


def test_lts_json_deterministic(base_spec, ctx):
    import json

    t = proc(base_spec, "a . (b + c)")
    one = json.dumps(build_lts(t, ctx).to_json_dict(), sort_keys=True)
    two = json.dumps(build_lts(t, ctx).to_json_dict(), sort_keys=True)
    assert one == two
    payload = json.loads(one)
    assert set(payload) == {"states", "root", "domain", "transitions", "terminating"}
