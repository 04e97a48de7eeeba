import random

import pytest

import dnii_oracle
from conftest import proc
from lts_oracle import lts_equal_up_to_renaming
from deacp import gen as G
from deacp import parser as P
from deacp import terms as T
from deacp.data_algebra import Carrier, FlexVarDecl, enumerate_maps
from deacp.errors import DeacpError, DeclarationError, ExplorationLimitError
from deacp.parser import render_action
from deacp.security import SecuritySpec, _observed_term, check_dnii, derive_sets
from deacp.sos_sigma import _Sos, build_lts


SEND = (T.ActionPattern("name", "send"),)


def test_derive_sets_basic(small_spec, small_ctx):
    p = proc(small_spec, "send(l) . h := 0")
    sets = derive_sets(SecuritySpec(p, low=("l",), ext=SEND), small_ctx)
    assert sets.high == ("h",)
    assert [render_action(a) for a in sets.internal_actions] == ["h := 0"]
    assert sets.encapsulated_actions == ()


def test_derive_sets_communicating_actions(small_spec, small_ctx):
    p = proc(small_spec, "a . b")
    sets = derive_sets(SecuritySpec(p, low=(), ext=()), small_ctx)
    assert {render_action(x) for x in sets.encapsulated_actions} == {"a", "b"}


def test_derive_sets_inaction(small_ctx):
    sets = derive_sets(SecuritySpec(T.DELTA, low=(), ext=()), small_ctx)
    assert sets.high == ()
    assert sets.internal_actions == ()
    assert sets.encapsulated_actions == ()


def test_external_assignments_rejected():
    with pytest.raises(DeclarationError):
        SecuritySpec(T.DELTA, low=(), ext=(T.ActionPattern("assign", "h"),))


def test_dnii_leak_fails_with_concrete_pair(small_spec, small_ctx):
    p = proc(small_spec, "[h = 0] -> send(0) + [not h = 0] -> send(1)")
    verdict = check_dnii(SecuritySpec(p, low=(), ext=SEND), small_ctx)
    assert not verdict.holds
    assert verdict.sigma.value("h") != verdict.sigma_prime.value("h")
    assert verdict.counterexample is not None


def test_dnii_low_copy_holds(small_spec, small_ctx):
    p = proc(small_spec, "send(l) . h := h + 1")
    verdict = check_dnii(SecuritySpec(p, low=("l",), ext=SEND), small_ctx)
    assert verdict.holds
    assert verdict.pairs_checked == 8 * (8 * 7 // 2)


def test_dnii_all_internal_holds(small_spec, small_ctx):
    p = proc(small_spec, "[h = 0] -> a . h := 1 + [not h = 0] -> a . h := 0")
    verdict = check_dnii(SecuritySpec(p, low=(), ext=()), small_ctx)
    assert verdict.holds


def test_dnii_no_high_variables_holds(small_spec, small_ctx):
    p = proc(small_spec, "send(l)")
    verdict = check_dnii(SecuritySpec(p, low=("l",), ext=SEND), small_ctx)
    assert verdict.holds
    assert verdict.pairs_checked == 0  # only equal pairs arise


def test_dnii_verdict_is_order_insensitive(small_spec, small_ctx):
    # swap-symmetric: rerunning with the counterexample pair swapped gives
    # the same inequivalence
    from deacp.bisim import rooted_branching_bisim
    from deacp.security import _observed_term
    from deacp.sos_sigma import build_lts

    p = proc(small_spec, "[h = 0] -> send(0) + [not h = 0] -> send(1)")
    spec = SecuritySpec(p, low=(), ext=SEND)
    verdict = check_dnii(spec, small_ctx)
    sets = verdict.sets
    l1 = build_lts(_observed_term(spec, sets, verdict.sigma), small_ctx, domain=())
    l2 = build_lts(_observed_term(spec, sets, verdict.sigma_prime), small_ctx, domain=())
    assert not rooted_branching_bisim(l1, l2, small_ctx).equivalent
    assert not rooted_branching_bisim(l2, l1, small_ctx).equivalent


def test_dnii_enlarging_ext_cannot_repair_visible_leak(small_spec, small_ctx):
    # the counterexample actions are external sends; making more actions
    # external keeps them visible, so the failure persists
    p = proc(small_spec, "[h = 0] -> send(0) . a + [not h = 0] -> send(1) . a")
    small_ext = check_dnii(SecuritySpec(p, low=(), ext=SEND), small_ctx)
    bigger_ext = check_dnii(
        SecuritySpec(p, low=(), ext=SEND + (T.ActionPattern("name", "a"),)),
        small_ctx,
    )
    assert not small_ext.holds
    assert not bigger_ext.holds


# --- variants that cannot be built, and the pairwise oracle -------------------------

@pytest.fixture(scope="module")
def bounded():
    """A spec over h, l and a context whose state bound a . a . a . a exceeds."""
    spec = P.parse_spec("domain -4..3\nvars h, l\nactions send/1, a\n")
    return spec, spec.context(state_bound=3)


def test_dnii_with_one_high_map_builds_nothing(bounded):
    spec, ctx = bounded
    dnii = SecuritySpec(proc(spec, "send(l) . a . a . a . a"), low=("l",), ext=SEND)
    sets = derive_sets(dnii, ctx)
    assert sets.high == ()
    with pytest.raises(ExplorationLimitError):
        build_lts(_observed_term(dnii, sets, T.EvalMap.of({"h": 0, "l": 0})), ctx, domain=())
    verdict = check_dnii(dnii, ctx)
    assert verdict.holds and verdict.pairs_checked == 0


def test_dnii_leak_before_an_unbuildable_variant_is_reported(bounded):
    # h = 2 exceeds the bound, but (h = -4, h = 0) already leaks
    spec, ctx = bounded
    p = proc(spec, "[h < 0] -> send(1) + [h >= 2] -> a . a . a . a . send(0)")
    verdict = check_dnii(SecuritySpec(p, low=(), ext=SEND), ctx)
    assert not verdict.holds and verdict.pairs_checked == 4
    assert (verdict.sigma.value("h"), verdict.sigma_prime.value("h")) == (-4, 0)


def test_dnii_unbuildable_variant_after_equivalent_ones_raises(bounded):
    spec, ctx = bounded
    p = proc(spec, "[h < 2] -> send(1) + [h >= 2] -> a . a . a . a . send(0)")
    for check in (check_dnii, dnii_oracle.check_dnii):
        with pytest.raises(ExplorationLimitError):
            check(SecuritySpec(p, low=(), ext=SEND), ctx)


def test_dnii_unbuildable_first_variant_raises(bounded):
    # every variant exceeds the bound, the first (h = -4) included
    spec, ctx = bounded
    p = proc(spec, "a . a . a . a . send(h)")
    for check in (check_dnii, dnii_oracle.check_dnii):
        with pytest.raises(ExplorationLimitError):
            check(SecuritySpec(p, low=(), ext=SEND), ctx)


def _outcome(check, spec, ctx):
    try:
        return check(spec, ctx).to_json_dict()
    except DeacpError as exc:
        return type(exc).__name__, str(exc)


def test_dnii_matches_pairwise_oracle_on_generated_processes():
    cfg = G.GenConfig(max_depth=2, flex_vars=("h", "l"))
    ctx = T.Context(carrier=Carrier(-2, 1), decl=FlexVarDecl(("h", "l")),
                    gamma=T.CommFunction.of({("a", "b"): "c"}))
    exts = [tuple(T.ActionPattern("name", x) for x in names) for names in ("a", "ab", "abc")]
    rng = random.Random(4)
    verdicts = set()
    for n in range(200):
        dnii = SecuritySpec(G.random_proc(rng, cfg, ctx), low=("l",) if n % 2 else (),
                            ext=exts[n % 3])
        outcome = _outcome(check_dnii, dnii, ctx)
        assert outcome == _outcome(dnii_oracle.check_dnii, dnii, ctx), dnii.process
        verdicts.add(outcome["holds"])
    assert verdicts == {True, False}


@pytest.mark.parametrize("domain,text", [
    ("-8..7", "send(l) . h := h + 2 . send(l)"),
    ("-4..3", "a(h) . h := h + k . send(1)"),
    ("-16..15", "send(5) . a(h)"),
    ("-8..7", "send(l) . ([h < 2] -> send(3) + [not h < 2] -> send(-5))"),
    ("-4..3", "[h + k >= 1] -> send(0) + [not h + k >= 1] -> send(2)"),
])
def test_dnii_matches_pairwise_oracle_on_sweep_specs(domain, text):
    spec = P.parse_spec(f"domain {domain}\nvars l, h, k\nactions send/1, a/1\n"
                        "security { low = { l }; ext = { send/1 } }\n")
    ctx = spec.context()
    dnii = SecuritySpec(proc(spec, text), tuple(spec.security_low), tuple(spec.security_ext))
    assert _outcome(check_dnii, dnii, ctx) == _outcome(dnii_oracle.check_dnii, dnii, ctx)


@pytest.mark.parametrize("domain,text", [
    ("-8..7", "send(l) . h := h + 2 . send(l)"),
    ("-4..3", "a(h) . h := h + k . send(1)"),
    ("-4..3", "[h + k >= 1] -> send(0) + [not h + k >= 1] -> send(2)"),
])
def test_dnii_variants_from_one_explorer_match_fresh_builds(domain, text):
    """check_dnii builds the variants of a low part with one explorer: each
    system equals a fresh build's, and the verdict the pairwise oracle's."""
    spec = P.parse_spec(f"domain {domain}\nvars l, h, k\nactions send/1, a/1\n"
                        "security { low = { l }; ext = { send/1 } }\n")
    ctx = spec.context()
    dnii = SecuritySpec(proc(spec, text), tuple(spec.security_low), tuple(spec.security_ext))
    sets = derive_sets(dnii, ctx)
    low = tuple(v for v in dnii.low if v in T.all_flex_vars(dnii.process))
    for low_part in enumerate_maps(FlexVarDecl(low), ctx.carrier):
        sos = _Sos(ctx)
        for high in enumerate_maps(FlexVarDecl(sets.high), ctx.carrier):
            sigma = T.EvalMap.of({"l": 0, "h": 0, "k": 0, **low_part.as_dict(), **high.as_dict()})
            t = _observed_term(dnii, sets, sigma)
            shared = build_lts(t, ctx, domain=(), explorer=sos)
            assert lts_equal_up_to_renaming(shared, build_lts(t, ctx, domain=())), sigma
    mine, oracle = check_dnii(dnii, ctx), dnii_oracle.check_dnii(dnii, ctx)
    assert (mine.holds, mine.pairs_checked, mine.sigma, mine.sigma_prime) == (
        oracle.holds, oracle.pairs_checked, oracle.sigma, oracle.sigma_prime)
