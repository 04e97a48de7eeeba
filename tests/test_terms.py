import sys
from dataclasses import FrozenInstanceError, fields, is_dataclass

import pytest

from conftest import proc
from deacp import conditions as C
from deacp import data_algebra as D
from deacp import terms as T
from deacp.conditions import TRUE, Cmp
from deacp.data_algebra import Flex, Lit
from deacp.errors import DeclarationError, ShapeError
from deacp.linear import linearize
from deacp.parser import render_term


def rec_spec(spec, text):
    return proc(spec, text).spec


def test_summands_of_delta():
    assert T.summands(T.DELTA) == []


def test_summands_single_epsilon(base_spec):
    t = proc(base_spec, "rec X where { X = [true] -> epsilon }").spec.rhs("X")
    assert [render_term(s) for s in T.summands(t)] == ["[true] -> epsilon"]


def test_summands_left_to_right(base_spec):
    t = proc(
        base_spec, "rec X where { X = [v = 0] -> a . X + [true] -> epsilon }"
    ).spec.rhs("X")
    rendered = [render_term(s) for s in T.summands(t)]
    assert rendered == ["[v = 0] -> a . X", "[true] -> epsilon"]


def test_summands_rejects_non_linear(base_spec):
    with pytest.raises(ShapeError):
        T.summands(proc(base_spec, "a . b"))


def test_is_linear_examples(base_spec):
    assert T.is_linear(T.DELTA) is True
    linear = T.Alt(
        T.Guard(TRUE, T.Seq(T.Atom(T.BasicAction("a")), T.RecVar("X"))),
        T.Guard(Cmp("=", Flex("v"), Lit(0)), T.EPSILON),
    )
    assert T.is_linear(linear) is True
    assert T.is_linear(proc(base_spec, "a . b")) is False


def test_summands_reassemble_to_linear(base_spec):
    t = proc(
        base_spec,
        "rec X where { X = [v = 0] -> a . X + [true] -> tau . Y + [u > 1] -> epsilon,"
        " Y = [true] -> epsilon }",
    ).spec.rhs("X")
    rebuilt = T.alt_fold(T.summands(t))
    assert T.is_linear(rebuilt)
    assert [render_term(s) for s in T.summands(rebuilt)] == [
        render_term(s) for s in T.summands(t)
    ]


def test_guarded_linear_spec_accepts_action_guarded_loop(base_spec):
    spec = rec_spec(base_spec, "rec X where { X = [true] -> a . X }")
    assert T.is_guarded_linear_spec(spec) is True


def test_guarded_linear_spec_rejects_tau_cycle():
    # tau-prefixed occurrences count as unguarded, so a silent self-loop
    # fails the admission check; such behaviour only arises via abstraction.
    spec = T.RecSpec((
        ("X", T.Guard(TRUE, T.Seq(T.Atom(T.TAU), T.RecVar("X")))),
    ))
    assert T.is_guarded_linear_spec(spec) is False


def test_guarded_linear_spec_acyclic_tau_ok():
    spec = T.RecSpec((
        ("X", T.Guard(TRUE, T.Seq(T.Atom(T.TAU), T.RecVar("Y")))),
        ("Y", T.Guard(TRUE, T.EPSILON)),
    ))
    assert T.is_guarded_linear_spec(spec) is True


def _prefixed(action, target):
    return T.Guard(TRUE, T.Seq(T.Atom(action), T.RecVar(target)))


def test_guarded_linear_spec_rejects_two_variable_tau_cycle():
    spec = T.RecSpec((
        ("X", _prefixed(T.TAU, "Y")),
        ("Y", T.Alt(_prefixed(T.TAU, "X"), T.Guard(TRUE, T.EPSILON))),
    ))
    assert T.is_guarded_linear_spec(spec) is False


def test_guarded_linear_spec_rejects_tau_cycle_behind_action_guarded_loop():
    a = T.BasicAction("a")
    spec = T.RecSpec((
        ("X", T.Alt(_prefixed(a, "X"), _prefixed(a, "Y"))),
        ("Y", T.Alt(_prefixed(T.TAU, "Z"), _prefixed(T.TAU, "X"))),
        ("Z", _prefixed(T.TAU, "Y")),
    ))
    assert T.is_guarded_linear_spec(spec) is False


def test_guarded_linear_spec_walks_long_tau_chains_without_recursion():
    """A chain of silent edges longer than the recursion limit is accepted,
    and the same chain closed into a cycle is rejected."""
    n = 3000
    assert n > sys.getrecursionlimit()
    chain = tuple((f"X{i}", _prefixed(T.TAU, f"X{i + 1}")) for i in range(n - 1))
    assert T.is_guarded_linear_spec(T.RecSpec(chain + ((f"X{n - 1}", T.Guard(TRUE, T.EPSILON)),)))
    assert not T.is_guarded_linear_spec(T.RecSpec(chain + ((f"X{n - 1}", _prefixed(T.TAU, "X0")),)))


def test_guarded_linear_spec_acyclic(base_spec):
    spec = rec_spec(base_spec, "rec X where { X = [true] -> a . Y, Y = [true] -> epsilon }")
    assert T.is_guarded_linear_spec(spec) is True


def test_recursive_specification_lookups_do_not_scan_the_equations():
    """Looking a variable up costs one name comparison, not one per equation:
    exploring an n-equation chain would otherwise take O(n^2) comparisons."""
    compared = []

    class Name(str):
        __hash__ = str.__hash__

        def __eq__(self, other):
            compared.append(other)
            return str.__eq__(self, other)

    n = 2000
    equations = tuple(
        (Name(f"X{i}"), T.Guard(TRUE, T.Seq(T.Atom(T.TAU), T.RecVar(f"X{i + 1}"))))
        for i in range(n)
    ) + ((Name(f"X{n}"), T.Guard(TRUE, T.EPSILON)),)
    spec = T.RecSpec(equations)
    compared.clear()
    for name, rhs in equations:
        assert Name(name) in spec
        assert spec.rhs(Name(name)) is rhs
    assert Name("Y") not in spec
    assert len(compared) <= 2 * len(equations)
    with pytest.raises(DeclarationError):
        T.RecSpec(equations + (("X0", T.DELTA),))
    assert spec == T.RecSpec(tuple((str(n), rhs) for n, rhs in equations))


def contains_abstraction(t) -> bool:
    return any(isinstance(u, T.Abstr) for u in D.subterms(t, T.PROCESS_LEAVES))


def test_classify_abstraction(base_spec):
    assert contains_abstraction(proc(base_spec, "hide{a}(a)")) is True
    assert contains_abstraction(proc(base_spec, "encap{a}(a)")) is False


def test_classify_bool_conditional(base_spec, ctx):
    """The collapse of an abstraction decides the conditions it reads: a
    constant one beneath it becomes its truth value, and a false row is
    dropped; a contingent one is carried, as is every condition above every
    abstraction; an evaluation decides what lies beneath it."""
    for text, linear in (
        ("[v = 0] -> a", "L3 = [v = 0] -> a . L1, L1 = [true] -> epsilon"),
        ("[v = v] -> hide{a}(a)", "L5 = [v = v] -> tau . L4, L4 = [true] -> epsilon"),
        ("hide{a}(eval{sigma}([v = 0] -> a))", "L6 = [true] -> tau . L7, L7 = [true] -> epsilon"),
        ("hide{a}([v = v] -> a)", "L4 = [true] -> tau . L5, L5 = [true] -> epsilon"),
        ("hide{a}([v < v] -> a + b)", "L7 = [true] -> b . L8, L8 = [true] -> epsilon"),
        ("hide{a}([v = 0] -> a)", "L4 = [v = 0] -> tau . L5, L5 = [true] -> epsilon"),
    ):
        spec, var = linearize(proc(base_spec, text), ctx)
        assert render_term(T.RecConst(var, spec)) == f"rec {var} where {{ {linear} }}", text


def test_is_closed(base_spec, ctx):
    assert T.is_closed(proc(base_spec, "a . b"))
    assert not T.is_closed(T.RecVar("X"))


def test_comm_function_validation():
    gamma = T.CommFunction.of({("a", "b"): "c"})
    gamma.validate(["a", "b", "c"])  # fine
    bad = T.CommFunction.of({("a", "a"): "b", ("a", "b"): "a"})
    # on (a, a, b): (a|a)|b is undefined while a|(a|b) = a|a = b
    with pytest.raises(DeclarationError):
        bad.validate(["a", "b"])


def test_comm_function_commutative_by_construction():
    gamma = T.CommFunction.of({("b", "a"): "c"})
    assert gamma.result("a", "b") == "c"
    assert gamma.result("b", "a") == "c"


def test_action_patterns(base_spec):
    name = T.ActionPattern("name", "a")
    assert name.matches(T.BasicAction("a"))
    assert name.matches(T.ParamAction("a", (Lit(1),)))
    assert not name.matches(T.BasicAction("b"))
    arity = T.ActionPattern("arity", "a", 1)
    assert arity.matches(T.ParamAction("a", (Lit(1),)))
    assert not arity.matches(T.ParamAction("a", (Lit(1), Lit(2))))
    assert not arity.matches(T.BasicAction("a"))
    assign = T.ActionPattern("assign", "v")
    assert assign.matches(T.AssignAction("v", Lit(1)))
    assert not assign.matches(T.AssignAction("u", Lit(1)))
    assert not T.ActionPattern("all").matches(T.TAU)


def test_canonical_state_rules(base_spec, ctx):
    a = T.Atom(T.BasicAction("a"))
    assert T.canonical(T.Seq(T.EPSILON, a), ctx) == a
    assert T.canonical(T.Seq(a, T.EPSILON), ctx) == a
    assert T.canonical(T.Alt(a, T.DELTA), ctx) == a
    assert T.canonical(T.Seq(T.DELTA, a), ctx) == T.DELTA
    assert T.canonical(T.Guard(TRUE, a), ctx) == a
    five = T.Atom(T.ParamAction("a", (Lit(5),)))
    sum_ = T.Atom(T.ParamAction("a", (proc(base_spec, "a(3 + 2)").action.args[0],)))
    assert T.canonical(sum_, ctx) == five


_A = T.Atom(T.BasicAction("a"))
_B = T.Atom(T.BasicAction("b"))
_HIDE_A = (T.ActionPattern("name", "a"),)
_M = D.EvalMap.of({"u": 1})
_U = Flex("u")
_POSITIVE = Cmp(">", _U, Lit(0))
_N = D.DVar("n")
_LOOP = T.RecConst("X", T.RecSpec((
    ("X", T.Guard(TRUE, T.Seq(T.Atom(T.ParamAction("a", (Lit(99),))), T.RecVar("X")))),
)))

# One case per rule of `simplify`, each applied at the root of a term whose
# parts are canonical; the carrier is -16..15.
SIMPLIFY_RULES = {
    "alt-delta-left": (T.Alt(T.DELTA, _A), _A),
    "alt-delta-right": (T.Alt(_A, T.DELTA), _A),
    "seq-delta-left": (T.Seq(T.DELTA, _A), T.DELTA),
    "seq-epsilon-left": (T.Seq(T.EPSILON, _A), _A),
    "seq-epsilon-right": (T.Seq(_A, T.EPSILON), _A),
    "par-epsilon-left": (T.Par(T.EPSILON, _A), _A),
    "par-epsilon-right": (T.Par(_A, T.EPSILON), _A),
    "leftmerge-epsilon": (T.LeftMerge(T.EPSILON, _A), T.DELTA),
    "leftmerge-delta": (T.LeftMerge(T.DELTA, _A), T.DELTA),
    "commmerge-epsilon-left": (T.CommMerge(T.EPSILON, _A), T.DELTA),
    "commmerge-delta-right": (T.CommMerge(_A, T.DELTA), T.DELTA),
    "encap-epsilon": (T.Encap(_HIDE_A, T.EPSILON), T.EPSILON),
    "encap-delta": (T.Encap(_HIDE_A, T.DELTA), T.DELTA),
    "abstr-epsilon": (T.Abstr(_HIDE_A, T.EPSILON), T.EPSILON),
    "abstr-delta": (T.Abstr(_HIDE_A, T.DELTA), T.DELTA),
    "eval-epsilon": (T.Eval(_M, T.EPSILON), T.EPSILON),
    "eval-delta": (T.Eval(_M, T.DELTA), T.DELTA),
    "guard-true": (T.Guard(TRUE, _A), _A),
    "guard-false": (T.Guard(C.FALSE, _A), T.DELTA),
    "guard-delta": (T.Guard(_POSITIVE, T.DELTA), T.DELTA),
    "literal-above": (Lit(99), Lit(15)),
    "literal-below": (Lit(-99), Lit(-16)),
    "app-closed": (D.App("+", (Lit(3), Lit(2))), Lit(5)),
    "app-saturates": (D.App("*", (Lit(9), Lit(9))), Lit(15)),
    "cmp-closed": (Cmp("<", Lit(1), Lit(2)), TRUE),
    "not-closed": (C.Not(TRUE), C.FALSE),
    "and-closed": (C.And(TRUE, C.FALSE), C.FALSE),
    "or-closed": (C.Or(C.FALSE, TRUE), TRUE),
    "implies-closed": (C.Implies(TRUE, C.FALSE), C.FALSE),
    "forall-closed": (C.Forall("n", Cmp("=", _N, _N)), TRUE),
    "exists-closed": (C.Exists("n", Cmp(">", _N, Lit(15))), C.FALSE),
}

# Terms no rule rewrites at the root.
SIMPLIFY_FIXED = {
    "open-process": T.Alt(T.Guard(_POSITIVE, _A), T.Seq(_A, _B)),
    "open-data": D.App("+", (_U, Lit(1))),
    "open-cmp": _POSITIVE,
    "bound-variable": Cmp("=", _N, Lit(1)),
    "open-quantifier": C.Forall("n", Cmp("<", _N, _U)),
    "open-and": C.And(TRUE, _POSITIVE),
    "literal-inside": Lit(15),
    "recursion-constant": _LOOP,
}


@pytest.mark.parametrize("t, expected", SIMPLIFY_RULES.values(), ids=SIMPLIFY_RULES.keys())
def test_simplify_rule(t, expected):
    carrier = D.Carrier()
    assert T.simplify(t, carrier) == expected
    assert T.canonical(t, T.Context(carrier)) == expected


@pytest.mark.parametrize("t", SIMPLIFY_FIXED.values(), ids=SIMPLIFY_FIXED.keys())
def test_simplify_leaves_term_alone(t):
    carrier = D.Carrier()
    assert T.simplify(t, carrier) is t
    assert T.canonical(t, T.Context(carrier)) == t


def test_canonical_leaves_recursion_constants_untouched():
    # the unfolding of X would lose its guard and clamp its literal
    ctx = T.Context()
    assert T.canonical(_LOOP, ctx) is _LOOP
    assert T.canonical(T.Seq(_A, _LOOP), ctx).right is _LOOP
    assert T.canonical(T.unfold(_LOOP), ctx) == T.Seq(
        T.Atom(T.ParamAction("a", (Lit(15),))), _LOOP)


def test_canonical_applies_the_rules_bottom_up():
    ctx = T.Context()
    closed = Cmp("<", D.App("-", (Lit(1), Lit(2))), Lit(0))  # -1 < 0
    t = T.Seq(T.Guard(closed, T.EPSILON), T.Par(T.Eval(_M, T.DELTA), T.Alt(T.DELTA, _A)))
    assert T.canonical(t, ctx) == T.Par(T.DELTA, _A)


def _examples() -> dict:
    """A freshly built instance of every frozen dataclass of the term modules."""
    x = Flex("x")
    less = Cmp("<", x, Lit(1))
    bound = Cmp("=", D.DVar("n"), x)
    a = T.Atom(T.BasicAction("a"))
    loop = T.RecSpec((("X", T.Guard(TRUE, T.Seq(a, T.RecVar("X")))),))
    hide = (T.ActionPattern("name", "a"),)
    out = [
        D.Carrier(), Lit(3), x, D.DVar("n"), D.App("+", (x, Lit(1))),
        D.EvalMap.of({"x": 1}), D.FlexVarDecl(("x",)),
        C.CTrue(), C.CFalse(), less, C.Not(less), C.And(less, TRUE), C.Or(less, TRUE),
        C.Implies(less, TRUE), C.Forall("n", bound), C.Exists("n", bound),
        T.BasicAction("a"), T.TauAction(), T.ParamAction("a", (x,)),
        T.AssignAction("x", Lit(2)), hide[0], a, T.Inaction(), T.Empty(),
        T.Alt(a, a), T.Seq(a, a), T.Par(a, a), T.LeftMerge(a, a), T.CommMerge(a, a),
        T.Encap(hide, a), T.Abstr(hide, a), T.Guard(less, a),
        T.Eval(D.EvalMap.of({"x": 1}), a), T.RecVar("X"), loop, T.RecConst("X", loop),
        T.CommFunction.of({("a", "b"): "c"}), T.Context(),
    ]
    return {type(term): term for term in out}


FROZEN_CLASSES = [
    cls
    for module in (D, C, T)
    for cls in vars(module).values()
    if isinstance(cls, type) and cls.__module__ == module.__name__
    and is_dataclass(cls) and cls.__dataclass_params__.frozen
]


@pytest.mark.parametrize("cls", FROZEN_CLASSES, ids=lambda cls: cls.__name__)
def test_stored_hash_is_the_generated_one(cls):
    first, second = _examples()[cls], _examples()[cls]
    assert first is not second
    assert hash(first) == hash(tuple(getattr(first, f.name) for f in fields(first)))
    assert hash(first) == hash(second) and first == second
    for name in [f.name for f in fields(first)[:1]] + ["_hash"]:
        with pytest.raises(FrozenInstanceError):
            setattr(first, name, None)
    assert hash(first) == hash(second)


def test_deep_terms_hash_without_rehashing_subterms():
    t = T.EPSILON
    for _ in range(5000):
        t = T.Seq(T.Atom(T.BasicAction("a")), t)
        hash(t)
    assert hash(t) == hash((t.left, t.right))


def test_occurrence_queries_walk_deep_terms():
    less = Cmp("<", Flex("u"), Flex("v"))
    a = T.BasicAction("a")
    t = T.Guard(less, T.Atom(a))
    for _ in range(5000):
        t = T.Seq(T.Atom(a), t)
        hash(t)
    assert T.is_closed(t)
    assert T.occurring_flex_vars(t) == {"u", "v"}
    assert T.all_flex_vars(t) == {"u", "v"}
    assert T.occurring_actions(t) == [a]
    assert not contains_abstraction(t)
    assert not T.contains_tau(t)


def test_walk_helpers_keep_order_and_share_unchanged_parts():
    less = Cmp("<", Flex("u"), Flex("v"))
    left = T.Guard(less, T.Seq(T.Atom(T.BasicAction("a")), T.RecVar("X")))
    right = T.Encap((T.ActionPattern("name", "b"),), T.Atom(T.BasicAction("b")))
    t = T.Alt(left, right)
    walked = [type(u).__name__ for u in D.subterms(t, T.PROCESS_LEAVES)]
    assert walked == ["Alt", "Guard", "Cmp", "Seq", "Atom", "RecVar",
                      "Encap", "ActionPattern", "Atom"]
    assert D.map_children(t, lambda c: c) is t
    closed = T.subst_rec_vars(t, {"X": T.DELTA})
    assert closed == T.Alt(T.Guard(less, T.Seq(left.body.left, T.DELTA)), right)
    assert closed.right is right and closed.left.cond is less
    assert T.subst_rec_vars(right, {"X": T.DELTA}) is right
