import pytest

import lts_oracle
from conftest import proc
from deacp import parser as P
from deacp import terms as T
from deacp.data_algebra import Carrier, EvalMap, FlexVarDecl, Lit
from deacp.errors import DeacpError, ExplorationLimitError
from deacp.parser import render_action
from deacp.sos_cond import build_cond_lts
from deacp.sos_sigma import SigmaLts, build_lts, step, terminates


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


# --- exploration per class of maps against the per-map oracle ---------------------

def _explored(build, render, t, ctx, domain=None, bound=None):
    """The export, raw transitions and termination facts of a build, or the
    error it raises with its partial counts."""
    try:
        lts = build(t, ctx, domain=domain, bound=bound)
    except ExplorationLimitError as exc:
        return "limit", str(exc), exc.states, exc.transitions
    except DeacpError as exc:
        return type(exc).__name__, str(exc)
    return render(lts), lts.transitions, lts.terminating


def _agrees_with_oracle(t, ctx, domain=None, bound=None):
    mine = _explored(build_lts, SigmaLts.to_json_dict, t, ctx, domain, bound)
    return mine == _explored(lts_oracle.build_lts, lts_oracle.to_json_dict, t, ctx, domain, bound)


MISSING_V = "[u < 0] -> a . b + [u > 0] -> [v > 0] -> c"


def _wvu():
    spec = P.parse_spec("domain -2..1\nvars w, v, u\nactions a, a/1, b, b/1, c\n"
                        "map m { u = 0, v = 1 }\n")
    return spec, spec.context()


# Declarations out of alphabetical order: a map's entries are sorted by name,
# so a projection by domain position would group maps by the wrong variable.
@pytest.mark.parametrize("names, seed", [(("v", "u"), 0), (("w", "u", "v"), 9)])
def test_build_lts_matches_per_map_oracle_on_generated_terms(names, seed):
    import random
    from deacp import gen as G

    cfg = G.GenConfig(max_depth=3, flex_vars=names, allow_abstr=True)
    ctx = T.Context(carrier=Carrier(-2, 1), decl=FlexVarDecl(names),
                    gamma=T.CommFunction.of({("a", "b"): "c"}))
    rng = random.Random(seed)
    for _ in range(60):
        t = G.random_proc(rng, cfg, ctx)
        for domain in (None, names):  # the read set, or all declared variables
            for bound in (None, 3):
                assert _agrees_with_oracle(t, ctx, domain, bound), (t, domain, bound)


@pytest.mark.parametrize("text, domain", [
    ("[v > 0] -> a . ([u < 0] -> b + c)", ("v", "u")),
    ("a(v) . ([u = 1] -> epsilon) + [v > 1] -> b(u)", ("w", "u", "v")),
    ("eval{m}(u := v . ([u > 0] -> a)) || ([w < 0] -> b)", ("w", "u", "v")),
    # u = 1 reaches the guard on v, which no map of the domain defines
    (MISSING_V, ("u",)),
])
def test_build_lts_groups_maps_by_variable_name(text, domain):
    spec, ctx = _wvu()
    for bound in (None, 1, 2, 3):
        assert _agrees_with_oracle(proc(spec, text), ctx, domain, bound)


def test_build_lts_variable_missing_from_domain_raises():
    spec, ctx = _wvu()
    assert _explored(build_lts, SigmaLts.to_json_dict, proc(spec, MISSING_V), ctx, ("u",)) == (
        "DeclarationError", "flexible variable 'v' not declared")
