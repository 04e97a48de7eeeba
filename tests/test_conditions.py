import random

import pytest

import validity_oracle
from conftest import cond
from deacp.conditions import (
    And,
    CFalse,
    Cmp,
    Exists,
    Not,
    Or,
    TRUE,
    eval_cond,
    satisfiable,
    signature,
    valid_iff,
)
from deacp.data_algebra import App, Carrier, DEFAULT_ENUM_BOUND, DVar, EvalMap, Flex, FlexVarDecl, Lit
from deacp.errors import EnumerationLimitError, MalformedConditionError
from deacp import gen as G


CARRIER = Carrier(-16, 15)
DECL = FlexVarDecl(("d", "j", "v", "u"))


def test_comparison(base_spec):
    sigma = EvalMap.of({"d": 11, "j": 3})
    assert eval_cond(cond(base_spec, "d >= j"), sigma, CARRIER) is True
    assert eval_cond(cond(base_spec, "d < j"), sigma, CARRIER) is False


def test_constants():
    sigma = EvalMap.of({})
    assert eval_cond(TRUE, sigma, CARRIER) is True
    assert eval_cond(CFalse(), sigma, CARRIER) is False


def test_existential_witness():
    # some carrier value equals the variable's value, whatever it is
    phi = Exists("x", Cmp("=", DVar("x"), Flex("i")))
    for value in (-16, 0, 15):
        assert eval_cond(phi, EvalMap.of({"i": value}), CARRIER) is True


def test_free_data_variable_is_malformed():
    with pytest.raises(MalformedConditionError):
        eval_cond(Cmp("=", DVar("x"), Lit(0)), EvalMap(()), CARRIER)


def test_valid_iff_tautology(base_spec):
    phi = cond(base_spec, "v >= 0 or v < 0")
    assert valid_iff(phi, TRUE, DECL, CARRIER) is True


def test_valid_iff_distinguished():
    phi = Cmp("=", Flex("v"), Lit(0))
    assert valid_iff(phi, CFalse(), DECL, CARRIER) is False


def test_valid_iff_reflexive(base_spec):
    phi = cond(base_spec, "u <= v and not v = 3")
    assert valid_iff(phi, phi, DECL, CARRIER) is True


def test_satisfiable_examples():
    assert satisfiable(CFalse(), DECL, CARRIER) is False
    assert satisfiable(Cmp("=", Flex("v"), Lit(3)), DECL, CARRIER) is True
    assert satisfiable(Cmp("<", Flex("v"), Flex("v")), DECL, CARRIER) is False


def test_quantifiers_over_carrier(base_spec):
    small = Carrier(0, 3)
    sigma = EvalMap.of({"v": 2})
    assert eval_cond(cond(base_spec, "forall x. x <= 3"), sigma, small) is True
    assert eval_cond(cond(base_spec, "exists x. x > 3"), sigma, small) is False


def test_classical_semantics_on_random_conditions(small_ctx):
    rng = random.Random(11)
    cfg = G.GenConfig()
    carrier = small_ctx.carrier
    for _ in range(200):
        phi = G.random_cond(rng, cfg, small_ctx)
        psi = G.random_cond(rng, cfg, small_ctx)
        sigma = G.random_emap(rng, small_ctx)
        p = eval_cond(phi, sigma, carrier)
        q = eval_cond(psi, sigma, carrier)
        assert eval_cond(Not(phi), sigma, carrier) == (not p)
        assert eval_cond(And(phi, psi), sigma, carrier) == (p and q)
        assert eval_cond(Or(phi, psi), sigma, carrier) == (p or q)


def test_valid_iff_agrees_with_reenumeration(small_ctx):
    rng = random.Random(12)
    cfg = G.GenConfig()
    from deacp.data_algebra import enumerate_maps

    maps = enumerate_maps(small_ctx.decl, small_ctx.carrier)
    for _ in range(40):
        phi = G.random_cond(rng, cfg, small_ctx)
        psi = G.random_cond(rng, cfg, small_ctx)
        expected = all(
            eval_cond(phi, s, small_ctx.carrier) == eval_cond(psi, s, small_ctx.carrier)
            for s in maps
        )
        assert valid_iff(phi, psi, small_ctx.decl, small_ctx.carrier) == expected


def test_satisfiable_is_negation_of_valid_iff_false(small_ctx):
    rng = random.Random(13)
    cfg = G.GenConfig()
    for _ in range(60):
        phi = G.random_cond(rng, cfg, small_ctx)
        assert satisfiable(phi, small_ctx.decl, small_ctx.carrier) == (
            not valid_iff(phi, CFalse(), small_ctx.decl, small_ctx.carrier)
        )


def test_signature_matches_the_oracle(small_ctx):
    """The value table's signature equals the map-by-map oracle's on generated
    conditions over two and three variables, and on equivalent spellings."""
    rng = random.Random(14)
    configs = [G.GenConfig(), G.GenConfig(flex_vars=("u", "v", "h"), cond_depth=3)]
    carrier = small_ctx.carrier
    for k in range(1200):
        phi = G.random_cond(rng, configs[k % 2], small_ctx)
        if k % 3 == 0:
            phi = G._equiv_cond_variant(rng, phi)
        expected = validity_oracle.cond_signature(phi, carrier, DEFAULT_ENUM_BOUND)
        assert signature(phi, carrier) == expected, phi


def test_signature_drops_variables_that_never_matter():
    u, v = Flex("u"), Flex("v")
    phi = Or(Cmp("<", u, Lit(0)), Cmp("=", v, v))
    assert signature(phi, Carrier(0, 1)) == ((), (True,))
    assert signature(App("*", (u, Lit(0))), Carrier(-1, 1)) == ((), (0,))
    assert signature(App("+", (v, App("*", (u, Lit(0))))), Carrier(0, 2)) == (("v",), (0, 1, 2))


def test_enumeration_limits_name_what_they_count():
    wide = App("+", (Flex("a"), Flex("b")))
    with pytest.raises(EnumerationLimitError, match="1024 condition valuations"):
        signature(Cmp("=", wide, Lit(0)), CARRIER, bound=1000)
    with pytest.raises(EnumerationLimitError, match="1024 evaluation maps"):
        signature(wide, CARRIER, bound=1000)
    with pytest.raises(EnumerationLimitError, match="1024 evaluation maps"):
        satisfiable(Cmp("=", wide, Lit(0)), FlexVarDecl(("a", "b")), CARRIER, bound=1000)
