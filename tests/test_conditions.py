import random

import pytest

import validity_oracle
from conftest import cond
from deacp.conditions import (
    And,
    CFalse,
    Cmp,
    Exists,
    Forall,
    Implies,
    Not,
    Or,
    TRUE,
    eval_cond,
    satisfiable,
    signature,
    valid_iff,
)
from deacp.data_algebra import (
    App, Carrier, DEFAULT_ENUM_BOUND, DVar, EvalMap, Flex, FlexVarDecl, Lit, eval_data, subterms,
)
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


# --- the evaluators against the reference interpreters of validity_oracle -----------

CMPS = ("=", "!=", "<", "<=", ">", ">=")


def _data(rng, carrier, bound, depth):
    """A data term over u, v, w, the bound variables, and literals at, inside
    and beyond the carrier's bounds, so that sums and products saturate."""
    kind = rng.choice(("lit", "flex", "flex", "dvar", "app", "app") if depth else ("lit", "flex", "dvar"))
    if kind == "lit":
        return Lit(rng.choice((carrier.lo - 9, carrier.lo, -1, 0, 1, carrier.hi, carrier.hi + 9)))
    if kind == "flex":
        return Flex(rng.choice(("u", "v", "w")))
    if kind == "dvar":
        return DVar(rng.choice(bound)) if bound else Lit(rng.randint(carrier.lo, carrier.hi))
    return App(rng.choice(("+", "-", "*")),
               (_data(rng, carrier, bound, depth - 1), _data(rng, carrier, bound, depth - 1)))


def _cond(rng, carrier, bound, depth):
    """A condition with quantifiers nested up to `depth` deep; a quantifier
    sometimes rebinds the name of an enclosing one."""
    if depth == 0:
        kind = rng.choice(("true", "false", "cmp", "cmp"))
    else:
        kind = rng.choice(("cmp", "not", "and", "or", "implies", "forall", "exists"))
    if kind == "true":
        return TRUE
    if kind == "false":
        return CFalse()
    if kind == "cmp":
        return Cmp(rng.choice(CMPS), _data(rng, carrier, bound, 2), _data(rng, carrier, bound, 2))
    if kind == "not":
        return Not(_cond(rng, carrier, bound, depth - 1))
    if kind in ("forall", "exists"):
        var = rng.choice(bound + (f"d{len(bound)}",))
        body = _cond(rng, carrier, bound + (var,) if var not in bound else bound, depth - 1)
        return (Forall if kind == "forall" else Exists)(var, body)
    node = {"and": And, "or": Or, "implies": Implies}[kind]
    return node(_cond(rng, carrier, bound, depth - 1), _cond(rng, carrier, bound, depth - 1))


def _outcome(evaluate, x, sigma, carrier, bindings=None):
    try:
        return "value", evaluate(x, sigma, carrier, bindings)
    except Exception as exc:  # the type and message must match too
        return type(exc).__name__, str(exc)


def test_the_evaluators_agree_with_the_reference_interpreters(small_ctx):
    """Values, and errors with their messages, on generated conditions and
    data terms under random maps; some maps leave w undeclared."""
    rng = random.Random(22)
    carrier = Carrier(-4, 3)
    maps = [EvalMap.of({"u": rng.randint(-4, 3), "v": rng.randint(-4, 3), "w": rng.randint(-4, 3)})
            for _ in range(30)] + [EvalMap.of({"u": -4, "v": 3})]
    cfg = G.GenConfig(flex_vars=("u", "v", "w"), cond_depth=3)
    seen = set()
    for k in range(1500):
        phi = G.random_cond(rng, cfg, small_ctx) if k % 3 == 0 else _cond(rng, carrier, (), 4)
        e = _data(rng, carrier, ("d0",), 3)
        bindings = {"d0": rng.randint(-4, 3)} if k % 4 else None
        for sigma in rng.sample(maps, 3):
            got = _outcome(eval_cond, phi, sigma, carrier)
            assert got == _outcome(validity_oracle.eval_cond, phi, sigma, carrier), (phi, sigma)
            value = _outcome(eval_data, e, sigma, carrier, bindings)
            assert value == _outcome(validity_oracle.eval_data, e, sigma, carrier, bindings), e
            seen.add(got[0])
            seen.add(value[0])
        seen.update((type(x).__name__, getattr(x, "op", None)) for x in subterms(phi))
        if type(e) is App and value[0] == "value":
            left, right = (validity_oracle.eval_data(a, sigma, carrier, bindings) for a in e.args)
            raw = {"+": left + right, "-": left - right, "*": left * right}[e.op]
            seen.add("saturated low" if raw < carrier.lo else "saturated high" if raw > carrier.hi
                     else "inside")
    constructs = {("Cmp", op) for op in CMPS} | {
        (name, None) for name in ("CTrue", "CFalse", "Not", "And", "Or", "Implies", "Forall", "Exists")
    } | {("App", op) for op in "+-*"}
    assert constructs <= seen
    assert {"value", "DeclarationError", "MalformedConditionError",
            "saturated low", "saturated high", "inside"} <= seen


def test_nested_quantifiers_agree_with_the_reference_interpreter():
    carrier = Carrier(-2, 1)
    sigma = EvalMap.of({"u": 1})
    d0, d1 = DVar("d0"), DVar("d1")
    phi = Forall("d0", Exists("d1", And(Cmp("<=", d0, d1), Cmp(">=", App("+", (d1, Flex("u"))), d0))))
    shadow = Forall("d0", Exists("d0", Cmp("=", d0, Lit(1))))
    for x in (phi, shadow, Not(phi), Implies(shadow, phi), Or(Not(phi), shadow)):
        assert eval_cond(x, sigma, carrier) == validity_oracle.eval_cond(x, sigma, carrier)
    assert eval_cond(phi, sigma, carrier) and eval_cond(shadow, sigma, carrier)


@pytest.mark.parametrize("evaluate, x, sigma, error, message", [
    ("cond", Cmp("<", Flex("w"), Lit(0)), EvalMap.of({"u": 0}),
     "DeclarationError", "flexible variable 'w' not declared"),
    ("data", App("+", (Lit(1), Flex("w"))), EvalMap.of({}),
     "DeclarationError", "flexible variable 'w' not declared"),
    ("cond", Cmp("=", DVar("d"), Lit(0)), EvalMap.of({}),
     "MalformedConditionError", "free data variable 'd'"),
    ("data", DVar("d"), EvalMap.of({}), "MalformedConditionError", "free data variable 'd'"),
    ("cond", Lit(0), EvalMap.of({}), "TypeError", "not a condition: Lit(value=0)"),
    ("data", TRUE, EvalMap.of({}), "TypeError", "not a data term: CTrue()"),
    # The body is evaluated at every value: the error at d = 1 is raised
    # though d = -2 already makes the universal false.
    ("cond", Forall("d", And(Cmp(">", DVar("d"), Lit(0)), Cmp("=", Flex("w"), Lit(0)))),
     EvalMap.of({}), "DeclarationError", "flexible variable 'w' not declared"),
])
def test_the_evaluators_raise_as_the_reference_interpreters_do(evaluate, x, sigma, error, message):
    carrier = Carrier(-2, 1)
    mine = eval_cond if evaluate == "cond" else eval_data
    reference = getattr(validity_oracle, f"eval_{evaluate}")
    assert _outcome(mine, x, sigma, carrier) == _outcome(reference, x, sigma, carrier) == (error, message)
