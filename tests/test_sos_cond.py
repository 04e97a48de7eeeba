import random

import pytest

from conftest import proc
from lts_oracle import lts_equal_up_to_renaming
from deacp import gen as G
from deacp import terms as T
from deacp.conditions import CTrue
from deacp.data_algebra import EvalMap
from deacp.parser import render_action, render_cond
from deacp.sos_cond import _CondSos, build_cond_lts, expand_to_sigma
from deacp.sos_sigma import build_lts


def derive(t, ctx):
    """The moves of t, and the conditions under which it terminates, as sets."""
    moves, ends = _CondSos(ctx).derive(T.canonical(t, ctx))
    return set(moves), set(ends)


def test_guarded_action(base_spec, ctx):
    moves, _ = derive(proc(base_spec, "[v >= 0] -> a"), ctx)
    assert len(moves) == 1
    (cond, action, target), = moves
    assert render_cond(cond) == "v >= 0"
    assert action == T.BasicAction("a")
    assert target == T.EPSILON


def test_unsatisfiable_guard_pruned(base_spec, ctx):
    assert derive(proc(base_spec, "[false] -> a"), ctx)[0] == set()
    assert derive(proc(base_spec, "[v < v] -> a"), ctx)[0] == set()


def test_plain_action_has_true_label(base_spec, ctx):
    moves, _ = derive(proc(base_spec, "a"), ctx)
    assert moves == {(CTrue(), T.BasicAction("a"), T.EPSILON)}


def test_termination_conditions(base_spec, ctx):
    assert derive(T.EPSILON, ctx)[1] == {CTrue()}
    assert derive(T.DELTA, ctx)[1] == set()
    _, conds = derive(proc(base_spec, "[v = 0] -> epsilon"), ctx)
    assert [render_cond(c) for c in conds] == ["v = 0"]
    # A sequence and a merge end where both sides end.
    for op in (".", "||"):
        _, conds = derive(proc(base_spec, f"([v >= 0] -> epsilon) {op} ([v <= 0] -> epsilon)"), ctx)
        assert [render_cond(c) for c in conds] == ["v <= 0 and v >= 0"]
        assert derive(proc(base_spec, f"([v = 0] -> epsilon) {op} ([v > 0] -> epsilon)"), ctx)[1] == set()


def test_labels_are_satisfiable_everywhere(small_ctx):
    from deacp.conditions import satisfiable

    rng = random.Random(31)
    cfg = G.GenConfig()
    for _ in range(60):
        t = G.random_proc(rng, cfg, small_ctx, depth=2)
        lts = build_cond_lts(t, small_ctx)
        for ts in lts.transitions:
            for cond, _, _ in ts:
                assert satisfiable(cond, small_ctx.decl, small_ctx.carrier)
        for _, cond in lts.terminating:
            assert satisfiable(cond, small_ctx.decl, small_ctx.carrier)


def test_expand_guarded_action(base_spec, ctx):
    t = proc(base_spec, "[v = 0] -> a")
    clts = build_cond_lts(t, ctx, domain=("v",))
    expanded = expand_to_sigma(clts, ctx)
    labelled = [(sigma.value("v"), render_action(a)) for sigma, a, _ in expanded.transitions[0]]
    assert labelled == [(0, "a")]


def test_expand_plain_action_everywhere(base_spec, ctx):
    t = proc(base_spec, "a")
    clts = build_cond_lts(t, ctx, domain=("v",))
    expanded = expand_to_sigma(clts, ctx)
    assert len(expanded.transitions[0]) == len(expanded.maps)


def test_cross_semantics_agreement_on_random_terms(small_ctx):
    rng = random.Random(32)
    cfg = G.GenConfig()
    for _ in range(120):
        t = G.random_proc(rng, cfg, small_ctx, depth=rng.randint(0, 3))
        direct = build_lts(t, small_ctx)
        via_conditions = expand_to_sigma(build_cond_lts(t, small_ctx), small_ctx)
        assert lts_equal_up_to_renaming(direct, via_conditions), (
            f"semantics disagree on {t!r}"
        )


def test_cond_json_shape(base_spec, ctx):
    payload = build_cond_lts(proc(base_spec, "[v = 0] -> a"), ctx).to_json_dict()
    assert payload["transitions"][0]["cond"] == "v = 0"
    assert "map" not in payload["transitions"][0]


@pytest.mark.parametrize("text, labels", [
    ("(([v >= 0] -> epsilon) . ([v <= 0] -> epsilon)) || ([v = 0] -> c)", {"v = 0"}),
    ("(([v >= 0] -> epsilon) || ([v <= 0] -> epsilon)) || ([v = 0] -> c)", {"v = 0"}),
    ("((([v >= 0] -> epsilon) || ([v <= 0] -> epsilon)) ||_ a) + ([v = 0] -> c)",
     {"true", "v = 0"}),
    ("((([v >= 0] -> epsilon) || ([v <= 0] -> epsilon)) | a) + ([v = 0] -> c)",
     {"true", "v = 0"}),
    ("([v >= 0] -> ([v <= 0] -> epsilon) + a) . ([v = 0] -> c)",
     {"true", "v <= 0 and v >= 0"}),
])
def test_labels_follow_the_order_conditions_are_met(base_spec, ctx, text, labels):
    """A class of equivalent conditions prints as the first member the
    rules conjoin: a state's moves come before its termination, and a
    subterm's termination is conjoined only when a termination asks for it."""
    payload = build_cond_lts(proc(base_spec, text), ctx).to_json_dict()
    assert {f["cond"] for f in payload["transitions"] + payload["terminating"]} == labels


@pytest.mark.parametrize("body", ["a", "epsilon"])
def test_eval_reads_a_partial_carried_map_in_both_semantics(base_spec, ctx, body):
    # The map lacks u, which only the short-circuited disjunct mentions.
    guarded = proc(base_spec, f"[v = 0 or u = 1] -> {body}")
    t = T.Eval(EvalMap.of({"v": 0}), guarded)
    direct = build_lts(t, ctx)
    via_conditions = expand_to_sigma(build_cond_lts(t, ctx), ctx)
    assert len(direct.transitions[0]) == (body == "a")
    assert len(direct.terminating) == 1
    assert lts_equal_up_to_renaming(direct, via_conditions)
