import random

from conftest import proc
from deacp import axioms as AX
from deacp import gen as G
from deacp import terms as T
from deacp.bisim import decide_rb


def test_recognize_simple_axioms(base_spec, ctx):
    a = proc(base_spec, "a")
    assert AX.recognize_axiom(proc(base_spec, "a + delta"), a, ctx) == "A6"
    assert AX.recognize_axiom(a, proc(base_spec, "a + delta"), ctx) == "A6"
    assert AX.recognize_axiom(proc(base_spec, "a . epsilon"), a, ctx) == "A8"
    assert AX.recognize_axiom(a, proc(base_spec, "b"), ctx) is None


def test_recognize_semantic_schemas(base_spec, ctx):
    assert AX.recognize_axiom(
        proc(base_spec, "a(3 + 2)"), proc(base_spec, "a(5)"), ctx
    ) == "IMP1"
    assert AX.recognize_axiom(
        proc(base_spec, "[v = v] -> a"), proc(base_spec, "[true] -> a"), ctx
    ) == "IMP2"
    rec = proc(base_spec, "rec X where { X = [true] -> a . X }")
    assert AX.recognize_axiom(rec, T.unfold(rec), ctx) == "RDP"


def test_match_respects_side_conditions(base_spec, ctx):
    blocked = proc(base_spec, "encap{a}(a)")
    assert AX.AXIOMS["D2"].forward(blocked, ctx) == T.DELTA
    assert AX.AXIOMS["D1"].forward(blocked, ctx) is None
    passes = proc(base_spec, "encap{a}(b)")
    assert AX.AXIOMS["D1"].forward(passes, ctx) == proc(base_spec, "b")
    assert AX.AXIOMS["D2"].forward(passes, ctx) is None


def test_every_axiom_has_twenty_sound_instances(small_ctx):
    # the full soundness sweep lives in the acceptance suite; this is a
    # faster safety net over a different seed
    rng = random.Random(99)
    cfg = G.GenConfig()
    order = AX.SOUNDNESS_SUITE
    for name in order:
        lhs, rhs = G.axiom_instance(name, rng, cfg, small_ctx)
        assert decide_rb(lhs, rhs, small_ctx).equivalent, name
        assert AX.AXIOMS[name].relates(lhs, rhs, small_ctx), name
        # recognition names a schema that relates the pair, no later than name
        found = AX.recognize_axiom(lhs, rhs, small_ctx)
        assert AX.AXIOMS[found].relates(lhs, rhs, small_ctx), (name, found)
        assert order.index(found) <= order.index(name), (name, found)
        # a binding of one side of IMP1 or IMP2 leaves the other side open
        for imp in ("IMP1", "IMP2"):
            for t in (lhs, rhs):
                assert AX.AXIOMS[imp].forward(t, small_ctx) is None, (imp, t)
                assert AX.AXIOMS[imp].backward(t, small_ctx) is None, (imp, t)


def test_merge_axiom_silent_leak_is_real(base_spec, ctx):
    # Documented finding: the joint-termination summand of the merge axiom
    # cannot block silent steps, so the unrestricted schema fails on
    # silent-capable arguments. The schema therefore carries a side
    # condition; this pins the counterexample that motivates it.
    lhs = proc(base_spec, "tau . a || epsilon")
    rhs = proc(
        base_spec,
        "(tau . a) ||_ epsilon + epsilon ||_ (tau . a) + (tau . a) | epsilon"
        " + encap{*}(tau . a) . encap{*}(epsilon)",
    )
    assert not decide_rb(lhs, rhs, ctx).equivalent
    assert AX.AXIOMS["CM1E"].forward(T.Par(proc(base_spec, "tau . a"), T.EPSILON), ctx) is None


def test_guarded_silent_absorption_needs_constant_condition(base_spec, ctx):
    # Documented finding: discharging a contingent guard by a silent step is
    # observable, because the ambient map may differ afterwards; the
    # absorption schema is restricted to constant conditions.
    contingent_l = proc(base_spec, "a . ([v = 0] -> tau . (b + c) + [v = 0] -> b)")
    contingent_r = proc(base_spec, "a . ([v = 0] -> (b + c))")
    assert not decide_rb(contingent_l, contingent_r, ctx).equivalent
    constant_l = proc(base_spec, "a . ([v = v] -> tau . (b + c) + [v = v] -> b)")
    constant_r = proc(base_spec, "a . ([v = v] -> (b + c))")
    assert decide_rb(constant_l, constant_r, ctx).equivalent
    assert AX.AXIOMS["BED"].forward(contingent_l, ctx) is None
    assert AX.AXIOMS["BED"].forward(constant_l, ctx) == constant_r


def test_pure_silent_absorption_needs_constant_guards_too(base_spec, ctx):
    # Same phenomenon as the guarded-absorption finding: replacing a
    # non-root equation of guarded silent prefixes by a guarded termination
    # is only sound when the guard is constant, because the silent step
    # discharges the guard before termination is observed.
    contingent_l = proc(base_spec, "a . ([v = 0] -> tau . epsilon)")
    contingent_r = proc(base_spec, "a . ([v = 0] -> epsilon)")
    assert not decide_rb(contingent_l, contingent_r, ctx).equivalent
    constant_l = proc(base_spec, "a . ([true] -> tau . epsilon)")
    constant_r = proc(base_spec, "a . ([true] -> epsilon)")
    assert decide_rb(constant_l, constant_r, ctx).equivalent


def test_rewrites_stay_inside_the_carrier_of_soundness(small_ctx):
    rng = random.Random(100)
    cfg = G.GenConfig(max_depth=2)
    for _ in range(25):
        t1, t2, trail = G.rewritten_pair(rng, cfg, small_ctx)
        assert decide_rb(t1, t2, small_ctx).equivalent, (t1, t2, trail)
