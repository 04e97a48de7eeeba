import dataclasses

import pytest

import lts_oracle
from conftest import proc
from deacp import parser as P
from deacp import terms as T
from deacp.data_algebra import (
    Carrier, EvalMap, FlexVarDecl, Lit, enumerate_maps, flex_vars, subterms,
)
from deacp.errors import DeacpError, ExplorationLimitError
from deacp.parser import render_action, render_term
from deacp.sos_cond import _CondSos, build_cond_lts
from deacp.sos_sigma import SigmaLts, _Sos, build_lts


EMPTY = EvalMap(())
COUNTER = "eval{sigma}(rec X where { X = [true] -> q := q + 1 . X + [q >= 4] -> epsilon })"


def sigma_of(spec, **values):
    base = {v: 0 for v in spec.decl}
    base.update(values)
    return EvalMap.of(base)


def derive(t, sigma, ctx):
    """The moves of t under sigma, as a set, and whether t terminates there."""
    moves, ends = _Sos(ctx).derive(T.canonical(t, ctx), sigma)
    return set(moves), ends


def test_action_axiom(base_spec, ctx):
    assert derive(proc(base_spec, "a"), sigma_of(base_spec), ctx)[0] == {
        (T.BasicAction("a"), T.EPSILON)
    }


def test_inaction_and_empty(base_spec, ctx):
    sigma = sigma_of(base_spec)
    assert derive(T.DELTA, sigma, ctx)[0] == set()
    assert derive(T.EPSILON, sigma, ctx)[0] == set()
    assert derive(T.EPSILON, sigma, ctx)[1] is True
    assert derive(T.DELTA, sigma, ctx)[1] is False


def test_assignment_under_evaluation(base_spec, ctx):
    # the carried map evaluates the label and updates itself; the ambient
    # map plays no role
    t = proc(base_spec, "eval{sigma}(d := i . b)")
    for ambient in (sigma_of(base_spec), sigma_of(base_spec, d=5)):
        moves, _ = derive(t, ambient, ctx)
        assert len(moves) == 1
        (action, target), = moves
        assert action == T.AssignAction("d", Lit(11))
        assert isinstance(target, T.Eval)
        assert target.emap.value("d") == 11


def test_guard_termination(base_spec, ctx):
    t = proc(base_spec, "[v = 0] -> epsilon")
    assert derive(t, sigma_of(base_spec, v=0), ctx)[1] is True
    assert derive(t, sigma_of(base_spec, v=1), ctx)[1] is False


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
    moves, _ = derive(good, sigma, ctx)
    assert {render_action(a) for a, _ in moves} == {"c(v)"}
    mismatched = proc(base_spec, "encap{a, b}(a(0) . a || b(1) . b)")
    assert derive(mismatched, sigma, ctx)[0] == set()


def test_mixed_basic_and_parameterized_never_synchronize(base_spec, ctx):
    t = proc(base_spec, "a(1) . a | b")
    assert derive(t, sigma_of(base_spec), ctx)[0] == set()


def test_finite_steps_on_random_terms(small_ctx):
    import random
    from deacp import gen as G

    rng = random.Random(5)
    cfg = G.GenConfig()
    for _ in range(80):
        t = G.random_proc(rng, cfg, small_ctx, depth=2)
        sigma = G.random_emap(rng, small_ctx)
        moves, _ = derive(t, sigma, small_ctx)
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
        build(proc(base_spec, text), dataclasses.replace(ctx, state_bound=2))
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
    if bound is not None:
        ctx = dataclasses.replace(ctx, state_bound=bound)
    try:
        lts = build(t, ctx, domain=domain)
    except ExplorationLimitError as exc:
        return "limit", str(exc), exc.states, exc.transitions
    except DeacpError as exc:
        return type(exc).__name__, str(exc)
    return render(lts), lts.transitions, lts.terminating


def _agrees_with_oracle(t, ctx, domain=None, bound=None):
    mine = _explored(build_lts, SigmaLts.to_json_dict, t, ctx, domain, bound)
    return mine == _explored(lts_oracle.build_lts, lts_oracle.to_json_dict, t, ctx, domain, bound)


MISSING_V = "[u < 0] -> a . b + [u > 0] -> [v > 0] -> c"


def _wvu(comm=""):
    spec = P.parse_spec("domain -2..1\nvars w, v, u\nactions a, a/1, b, b/1, c\n"
                        + comm + "map m { u = 0, v = 1 }\n")
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
    # duplicate summands, plain and guarded
    ("a + a", ("u",)),
    ("[u < 0] -> a + [u < 1] -> a", ("w", "u", "v")),
    # nested guards, and a sum inside a guard inside a sum
    ("[u < 0] -> [v > 0] -> ([w = 1] -> a + b) + [v < 1] -> (c + [u > -1] -> a)", ("w", "u", "v")),
    # sums under sequence, merge, hiding, encapsulation and a carried map
    ("([u < 0] -> a + b) . ([v > 0] -> c + a)", ("u", "v")),
    ("([u < 0] -> a + [v = 0] -> b) || ([w > 0] -> c + b)", ("w", "u", "v")),
    ("hide{a}([u < 0] -> a + b(v)) . c", ("u", "v")),
    ("encap{b}([u < 0] -> a + b + [v > 0] -> c)", ("u", "v")),
    ("eval{m}([u = 0] -> a(v) + [v = 1] -> u := v . b(u)) + [w < 0] -> c", ("w", "u", "v")),
    # a guard on a variable no map defines, reached after a sum's steps
    ("(a + [u < 0] -> b) + [v > 0] -> c", ("u",)),
])
def test_build_lts_groups_maps_by_variable_name(text, domain):
    spec, ctx = _wvu()
    for bound in (None, 1, 2, 3):
        assert _agrees_with_oracle(proc(spec, text), ctx, domain, bound)


def test_build_lts_variable_missing_from_domain_raises():
    spec, ctx = _wvu()
    assert _explored(build_lts, SigmaLts.to_json_dict, proc(spec, MISSING_V), ctx, ("u",)) == (
        "DeclarationError", "flexible variable 'v' not declared")


# --- the read set of a state: what its next step evaluates -------------------------

def _rsp_sides(names, seed, count):
    """Guarded linear specifications as prove_equal builds them for its RSP
    step: linearized abstraction-free terms and normalized bool-conditional
    ones. Each state is a constant that reads only its own equation."""
    import random
    from deacp import gen as G
    from deacp.linear import linearize, normalize_bool_conditional

    ctx = T.Context(carrier=Carrier(-2, 1), decl=FlexVarDecl(names),
                    gamma=T.CommFunction.of({("a", "b"): "c"}))
    free = G.GenConfig(max_depth=2, flex_vars=names)
    bool_cond = G.GenConfig(max_depth=2, flex_vars=names, bool_cond_only=True)
    rng = random.Random(seed)
    consts = []
    for _ in range(count):
        spec, var = linearize(G.random_proc(rng, free, ctx), ctx)
        consts.append(T.RecConst(var, spec))
        hidden = G.bool_cond_hide_term(rng, bool_cond, ctx, hidden="a")
        spec, var, _ = normalize_bool_conditional(hidden, ctx)
        consts.append(T.RecConst(var, spec))
    return ctx, consts


RSP_CORPORA = [(("v", "u"), 3), (("w", "u", "v"), 11)]


@pytest.mark.parametrize("names, seed", RSP_CORPORA)
def test_build_lts_matches_per_map_oracle_on_linear_specs(names, seed):
    ctx, consts = _rsp_sides(names, seed, 12)
    for const in consts:
        for domain in (None, names):
            for bound in (None, 1, 2, 3):
                assert _agrees_with_oracle(const, ctx, domain, bound), (const, domain, bound)


@pytest.mark.parametrize("names, seed", RSP_CORPORA)
def test_read_set_is_within_the_occurring_variables(names, seed):
    ctx, consts = _rsp_sides(names, seed, 12)
    smaller = 0
    for const in consts:
        sos = _Sos(ctx)
        for state in build_lts(const, ctx, domain=names).states:
            reads, occurring = sos._reads(state)[0], T.occurring_flex_vars(state)
            assert reads <= occurring, state
            smaller += reads < occurring
    assert smaller  # the corpus exercises states that read less than they mention


def _process_subterms(state, sos):
    """Every process term the step rules can reach from state: its process
    subterms, and those of each constant's unfolding."""
    seen, todo = {}, [state]
    while todo:
        for u in subterms(todo.pop(), prune=(T.RecConst,)):
            if isinstance(u, T.ProcTerm) and u not in seen:
                seen[u] = None
                if isinstance(u, T.RecConst):
                    todo.append(T.unfolded(u, sos.ctx))
    return seen


@pytest.mark.parametrize("names, seed", RSP_CORPORA)
def test_steps_depend_only_on_what_a_subterm_reads(names, seed):
    """The invariant the memo keys rest on, checked per map: maps that agree
    on what a subterm reads give it the same steps and termination, and a
    subterm that its syntax says cannot terminate does not, under any map.
    The oracle's explorer derives each subterm under each map, so the facts
    compared here come from separate derivations."""
    ctx, consts = _rsp_sides(names, seed, 12)
    maps = list(enumerate_maps(FlexVarDecl(names), ctx.carrier))
    sos = lts_oracle.PerMapSos(ctx)
    checked = {}
    for const in consts:
        for state in build_lts(const, ctx, domain=names).states:
            checked.update(_process_subterms(state, sos))
    for t in checked:
        reads, ends = sos._reads(t)
        facts = {}  # values of the read variables -> (steps, terminates)
        for sigma in maps:
            mine = sos.derive(t, sigma)
            at = tuple(sigma.value(v) for v in sorted(reads))
            assert facts.setdefault(at, mine) == mine, (t, sigma)
            assert ends or not mine[1], (t, sigma)
    guards = [t for t in checked if isinstance(t, T.Guard) and flex_vars(t.cond)]
    assert len(checked) > 100 and guards


def test_the_memo_holds_one_entry_per_class_of_what_a_subterm_reads():
    spec = P.parse_spec("domain -4..3\nvars x, y, z\nactions a, b, c, send/1\n")
    ctx = spec.context()
    t = T.canonical(proc(spec, "[x < 1] -> a . b + [x + y >= z] -> send(z) . c"), ctx)
    guard = t.left
    assert render_term(guard) == "[x < 1] -> a . b"
    maps = tuple(enumerate_maps(FlexVarDecl(("x", "y", "z")), ctx.carrier))

    def held(sos):
        for sigma in maps:
            sos.derive(t, sigma)
        return [sum(u is term for u, _ in sos.step_cache.values())
                for term in (t, guard, guard.body)]

    # Entries, counted by the term each one holds: one per class of what
    # the root reads, none for the guard the root's walk evaluates in place,
    # and one for the guard's body, which reads nothing.
    assert held(_Sos(ctx)) == [512, 0, 1]
    # Keyed by the whole map, one per map that reaches it: a . b only where x < 1 holds.
    assert held(lts_oracle.PerMapSos(ctx)) == [512, 512, 320]


def test_an_explorer_enumerates_each_domains_maps_once():
    """Builds over one domain with one explorer share its map objects, so
    `views` holds one entry per (read set, map value), not one per build."""
    spec = P.parse_spec("domain -2..1\nvars x, y\nactions a, b\n")
    ctx = spec.context()
    sos = _Sos(ctx)
    texts = ("[x < 0] -> a . ([y > 0] -> b)", "[y < 0] -> b + [x = 1] -> a", "[x < 0] -> a . ([y > 0] -> b)")
    ltss = [build_lts(proc(spec, text), ctx, domain=("x", "y"), explorer=sos) for text in texts]
    assert all(lts.maps is ltss[0].maps for lts in ltss) and len(ltss[0].maps) == 16
    assert build_lts(proc(spec, "a"), ctx, domain=("y",), explorer=sos).maps is sos.maps(("y",))
    distinct = {(reads, sigma.entries) for (reads, _), (sigma, _) in sos.views.items()}
    assert len(sos.views) == len(distinct) > 16


def test_a_carried_map_is_memoized_by_what_each_subterm_reads():
    """Under eval{x = 0, y = 0}(X || Y), counter X reads only x: it is
    derived once per value of x, not once per state of the product."""
    spec = P.parse_spec("domain 0..7\nvars x, y\nactions a, b\n")
    ctx = spec.context()

    def counter(v, act):
        c = v.upper()
        return (f"(rec {c} where {{ {c} = [{v} < 7] -> {v} := {v} + 1 . {c}"
                f" + [{v} >= 7] -> {act} . {c}Z, {c}Z = [true] -> epsilon }})")

    t = T.canonical(proc(spec, f"eval{{x = 0, y = 0}}({counter('x', 'a')} || {counter('y', 'b')})"),
                    ctx)
    sos = _Sos(ctx)
    lts = build_lts(t, ctx, domain=(), explorer=sos)
    assert len(lts.states) == 81  # (8 values + the state after the action)^2
    x, y = t.body.left, t.body.right
    for counter_term, var in ((x, "x"), (y, "y")):
        views = [view for (_, view), (held, _) in sos.step_cache.items() if held is counter_term]
        assert len(views) == 8
        assert {tuple(name for name, _ in view) for view in views} == {(var,)}


def test_an_explorer_never_answers_for_a_dropped_term():
    """The memo tables key terms by identity. Fresh temporaries that are not
    canonical, each dropped after its queries, never get an entry of an
    earlier one whose id the interpreter could otherwise hand out again."""
    spec = P.parse_spec("domain 0..3\nvars x, y\nactions a, b, c\n")
    ctx = spec.context()
    sos, cond_sos = _Sos(ctx), _CondSos(ctx)

    def answers(explorer, cond_explorer, t):
        derived = [explorer.derive(t, sigma) for sigma in maps]
        cond_moves, cond_ends = cond_explorer.derive(t)
        return ([[render_action(a) for a, _ in moves] for moves, _ in derived],
                [ends for _, ends in derived],
                sorted(render_action(a) for _, a, _ in cond_moves),
                len(cond_ends))

    for i in range(600):
        name, bound = "abc"[i % 3], i % 4
        t = proc(spec, f"[x < {bound}] -> {name} + [y >= {bound}] -> epsilon")
        # The maps are temporaries too, in another order each time.
        maps = enumerate_maps(FlexVarDecl(("x", "y")), ctx.carrier)[::(-1) ** i]
        fresh = answers(_Sos(ctx), _CondSos(ctx), t)
        assert answers(sos, cond_sos, t) == fresh, (i, render_term(t))
        del t, maps


@pytest.mark.parametrize("text, reads", [
    ("a . ([v > 0] -> c)", set()),
    # the left side ends under u > 0 only, and then the guard on v is next
    ("([u > 0] -> epsilon) . ([v > 0] -> c)", {"u", "v"}),
    ("([u > 0] -> a) . ([v > 0] -> c)", {"u"}),
    # synchronization evaluates the data of both candidates
    ("a(u) . ([w > 0] -> c) || b(v)", {"u", "v"}),
    ("eval{m}([u > 0] -> a . ([w > 0] -> b)) + [v > 0] -> c", {"v"}),
    ("eval{m}([u > 0] -> epsilon) . ([w > 0] -> c)", {"w"}),
    ("eval{m}(a) . ([w > 0] -> c)", set()),
    (MISSING_V, {"u", "v"}),
    # guards over one, two and three variables, the last with a saturating sum
    ("[w < 0] -> a . b", {"w"}),
    ("[u > 0] -> a . c + [not w = v] -> b", {"u", "v", "w"}),
    ("[w + u >= v] -> c . a + [v < 1 and not u = -2] -> b", {"u", "v", "w"}),
    # data actions read their arguments, which synchronization evaluates
    ("[u < 0] -> a(w) . b + c", {"u", "w"}),
    ("a(w) . ([u > 0] -> b(u))", {"w"}),
    ("([u > -1] -> a(w) . c) || ([v < 1] -> b(u + v) . c)", {"u", "v", "w"}),
    # the root reads nothing; the bound decides whether the build stops
    # before the state that raises for v, outside the domain ("u",)
    ("a . (" + MISSING_V + ")", set()),
])
def test_build_lts_groups_maps_by_what_the_next_step_reads(text, reads):
    spec, ctx = _wvu("comm { a | b = c }\n")
    t = proc(spec, text)
    sos = _Sos(ctx)
    assert sos._reads(T.canonical(t, ctx))[0] == reads
    for state in build_lts(t, ctx, domain=("w", "u", "v")).states:
        assert sos._reads(state)[0] <= T.occurring_flex_vars(state)
    for domain in (None, ("w", "u", "v"), ("u",)):
        for bound in (None, 1, 2, 3):
            assert _agrees_with_oracle(t, ctx, domain, bound), (domain, bound)


def test_unguarded_constant_raises_only_where_the_steps_reach_it():
    spec, ctx = _wvu()
    bad = T.RecConst("X", T.RecSpec((("X", T.Seq(T.Atom(T.TAU), T.RecVar("X"))),)))
    for text in ("[u > 0] -> a", "[u > 1] -> a"):  # reached under some maps, or none
        guard = proc(spec, text)
        t = T.Alt(T.Guard(guard.cond, bad), proc(spec, "b"))
        for bound in (None, 1, 2):
            assert _agrees_with_oracle(t, ctx, ("u",), bound), (text, bound)


def _in_fresh_thread(fn):
    """fn's result, computed on a new thread, whose stack depth does not
    depend on the test runner's."""
    import threading

    out = []

    def run():
        try:
            out.append(fn())
        except BaseException as exc:  # re-raised on the caller's thread
            out.append(exc)

    worker = threading.Thread(target=run)
    worker.start()
    worker.join(timeout=120)
    assert not worker.is_alive()
    if isinstance(out[0], BaseException):
        raise out[0]
    return out[0]


# Multi-map builds of deep terms, up to near the widest choice and the longest
# sequence that `canonical` and the step rules, which recurse once per level,
# handle in the default recursion limit on a fresh thread: reading what a
# state's next step reads may recurse no deeper than they do.
@pytest.mark.parametrize("text, states", [
    (" . ".join(["a"] * 300) + " . ([u > 0] -> a)", 302),
    (" . ".join(["a"] * 328), 329),
    (" + ".join(f"[u > {i % 3 - 1}] -> {'ab'[i % 2]}" for i in range(328)), 2),
    (" . ".join(["a"] * 480) + " . ([u > 0] -> a)", 482),
    (" . ".join(["a"] * 488), 489),
    (" + ".join(f"[u > {i % 3 - 1}] -> {'ab'[i % 2]}" for i in range(488)), 2),
], ids=["sequence-300", "sequence-328", "choice-328", "sequence-480", "sequence-488",
        "choice-488"])
def test_deep_terms_build_under_every_map(text, states):
    spec = P.parse_spec("domain -2..1\nvars u, v\nactions a, b\n")
    ctx = spec.context()

    def build():
        t = proc(spec, text)  # parsed once: an equal copy would be compared recursively
        return [build_lts(t, ctx, domain=domain) for domain in (None, ("u", "v"))]

    assert [len(lts.states) for lts in _in_fresh_thread(build)] == [states, states]


def test_a_wide_sum_terminates_under_the_empty_map_without_recursion():
    """A sum's termination comes from the walk of its summands, with its
    moves, under the empty map too. `canonical` still recurses along `+`,
    so the 3000-way choice is made canonical under a raised limit first."""
    import sys

    spec = P.parse_spec("actions a, b\n")
    ctx = spec.context()
    t = proc(spec, " + ".join(["a . b"] + ["b"] * 2998 + ["epsilon"]))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(limit + 10000)
    try:
        t = T.canonical(t, ctx)
    finally:
        sys.setrecursionlimit(limit)
    lts = _in_fresh_thread(lambda: build_lts(t, ctx))
    assert (len(lts.states), lts.num_transitions, len(lts.terminating)) == (3, 3, 2)


# --- canonical targets and the context's term table --------------------------------

@pytest.mark.parametrize("names, seed", [(("u", "v"), 4), (("w", "u", "v"), 5)])
def test_explored_states_and_targets_are_canonical(names, seed):
    """The rules simplify only the root of each target they build, which is
    canonical because its parts are. Generated terms and linear
    specifications, explored in both semantics."""
    import random
    from deacp import gen as G

    cfg = G.GenConfig(max_depth=3, flex_vars=names, allow_abstr=True)
    ctx = T.Context(carrier=Carrier(-2, 1), decl=FlexVarDecl(names),
                    gamma=T.CommFunction.of({("a", "b"): "c"}))
    rng = random.Random(seed)
    corpus = [G.random_proc(rng, cfg, ctx) for _ in range(40)] + _rsp_sides(names, seed, 6)[1]
    # Exploring enters every state and target in `ctx`'s table as its own
    # canonical form, so the check recomputes them in a table only
    # `canonical` fills.
    fresh = dataclasses.replace(ctx)
    for t in corpus:
        try:
            states = build_lts(t, ctx).states + build_cond_lts(t, ctx).states
        except DeacpError:
            continue
        sigma_sos, cond_sos = _Sos(ctx), _CondSos(ctx)
        for state in states:
            for sigma in enumerate_maps(FlexVarDecl(names), ctx.carrier):
                sigma_sos.derive(state, sigma)
            cond_sos.derive(state)
        targets = [tgt for _, (moves, _) in sigma_sos.step_cache.values() for _, tgt in moves]
        targets += [tgt for _, (moves, _) in cond_sos.step_cache.values() for _, _, tgt in moves]
        for u in states + targets:
            assert T.canonical(u, fresh) == u, u


def _counter(v):
    """A counter over 0..7 that acts once at 7: 9 states."""
    c = v.upper()
    return (f"proc {c} = rec {c}0 where {{ {c}0 = [{v} < 7] -> {v} := {v} + 1 . {c}0"
            f" + [{v} >= 7] -> a{v} . {c}Z, {c}Z = [true] -> epsilon }}\n")


H3 = ("domain 0..7\nvars x, y, z\nactions ax, ay, az\n" + "".join(map(_counter, "xyz"))
      + "proc H = hide{x :=, y :=, z :=}(eval{x = 0, y = 0, z = 0}(X || Y || Z))\n")


def test_each_context_owns_its_term_table():
    spec = P.parse_spec(H3)
    t, ctx = spec.process("H"), spec.context()
    other = spec.context()
    assert other == ctx and other is not ctx
    assert len(build_lts(t, ctx).states) == 729
    assert ctx._table and not other._table
    assert not dataclasses.replace(ctx)._table
    # The unfoldings of the three counters' constants, one per equation.
    assert len(ctx._unfolded) == 6 and not other._unfolded
    assert not dataclasses.replace(ctx)._unfolded


def test_targets_are_the_input_subterms_they_equal():
    spec = P.parse_spec("actions a\n")
    lts = build_lts(proc(spec, "a . a . a"), spec.context())
    root = lts.states[0]
    assert lts.states[1] is root.left


def test_one_context_across_many_pairs_holds_what_fresh_ones_would():
    """The table of a context reused across unrelated queries, as
    `conjecture` reuses one, holds no more than a fresh context per query
    would hold together, and grows by a few entries per pair (about 8 on
    this corpus)."""
    from deacp import gen as G
    from deacp.bisim import conjecture_experiment

    ctx = G.default_context()
    pairs = G.pair_corpus(ctx, 100, seed=0)
    conjecture_experiment(ctx, pairs=pairs)
    apart = unfolded_apart = 0
    for pair in pairs:
        own = dataclasses.replace(ctx)
        conjecture_experiment(own, pairs=[pair])
        apart += len(own._table)
        unfolded_apart += len(own._unfolded)
    assert len(ctx._table) <= apart
    assert len(ctx._table) <= 10 * len(pairs)
    assert len(ctx._unfolded) <= unfolded_apart


def _size(value):
    """How much `value` holds, if it is something that can fill up: a dict,
    list or set (with the sizes of such containers directly inside it), a
    `functools` cache, or a context's tables of terms and unfoldings."""
    if isinstance(value, (dict, list, set)):
        inner = value.values() if isinstance(value, dict) else value
        return len(value), [len(v) for v in inner if isinstance(v, (dict, list, set))]
    if isinstance(value, T.Context):
        return len(value._table), len(value._unfolded)
    if callable(getattr(value, "cache_info", None)):
        return value.cache_info().currsize
    return None


def _module_state() -> dict:
    """`_size` of every value at module level in deacp, and of every
    attribute of a class defined there."""
    import importlib
    import inspect
    import pkgutil

    import deacp

    sizes = {}
    for info in pkgutil.iter_modules(deacp.__path__):
        module = importlib.import_module(f"deacp.{info.name}")
        for name, value in vars(module).items():
            if name.startswith("__"):
                continue
            sizes[info.name, name] = _size(value)
            if inspect.isclass(value) and value.__module__ == module.__name__:
                for attr, member in vars(value).items():
                    sizes[info.name, name, attr] = _size(member)
    return sizes


def test_analyses_leave_module_state_unchanged():
    """No module-level cache (container, `functools` cache or context):
    whatever an analysis memoizes lives in its context or its own objects."""
    from deacp.bisim import decide_rab, decide_rb
    from deacp.linear import prove_equal, replay_certificate
    from deacp.security import SecuritySpec, check_dnii

    before = _module_state()
    spec = P.parse_spec("domain -3..2\nvars h, l\nactions a, b, send/1\n")
    ctx = spec.context()
    left, right = proc(spec, "a . (b + tau . b)"), proc(spec, "a . b")
    assert len(build_lts(left, ctx).states) == 4
    assert decide_rb(left, right, ctx).equivalent
    assert decide_rab(left, right, ctx).equivalent
    result = prove_equal(left, right, ctx)
    assert result.equal and replay_certificate(result.certificate, ctx) == (True, [])
    copy = SecuritySpec(proc(spec, "send(l) . h := h + 1"), low=("l",),
                        ext=(T.ActionPattern("name", "send"),))
    assert check_dnii(copy, ctx).holds
    assert _module_state() == before
