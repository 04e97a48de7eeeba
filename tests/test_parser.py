import gc
import os
import random
import time

import pytest

import cli_identity
import parser_oracle
import render_oracle
from conftest import bench_module, cond, proc, run_cli
from deacp import conditions as C
from deacp import data_algebra as D
from deacp import gen as G
from deacp import terms as T
from deacp.errors import DeacpError, SpecSyntaxError
from deacp.parser import (
    parse_process,
    parse_spec,
    render_cond,
    render_spec,
    render_term,
    tokenize,
)


def test_parse_division_spec(base_spec):
    t = proc(
        base_spec,
        "rec Q where { Q = [r >= j] -> q := q + 1 . R + [r < j] -> epsilon,"
        " R = [true] -> r := r - j . Q }",
    )
    assert isinstance(t, T.RecConst)
    assert t.var == "Q"
    assert set(t.spec.variables) == {"Q", "R"}
    q_summands = T.summands(t.spec.rhs("Q"))
    assert len(q_summands) == 2
    cond, action, target = T.summand_parts(q_summands[0])
    assert isinstance(action, T.AssignAction) and action.var == "q"
    assert target == "R"


def test_parse_delta_plus_epsilon(base_spec):
    t = proc(base_spec, "delta + epsilon")
    assert t == T.Alt(T.DELTA, T.EPSILON)


def test_parse_comm_merge(base_spec):
    t = proc(base_spec, "a | b")
    assert t == T.CommMerge(T.Atom(T.BasicAction("a")), T.Atom(T.BasicAction("b")))
    assert base_spec.gamma.result("a", "b") == "c"


def test_precedence_seq_over_alt(base_spec):
    assert proc(base_spec, "a . b + c") == T.Alt(
        T.Seq(T.Atom(T.BasicAction("a")), T.Atom(T.BasicAction("b"))),
        T.Atom(T.BasicAction("c")),
    )


def test_render_precedence(base_spec):
    t = T.Seq(T.Atom(T.BasicAction("a")),
              T.Alt(T.Atom(T.BasicAction("b")), T.Atom(T.BasicAction("c"))))
    assert render_term(t) == "a . (b + c)"
    assert render_term(T.Guard(__import__("deacp.conditions", fromlist=["TRUE"]).TRUE,
                               T.EPSILON)) == "[true] -> epsilon"


def test_assignment_data_expression_stops_at_summand(base_spec):
    t = proc(base_spec, "q := q + 1 . R" .replace("R", "a"))
    assert isinstance(t, T.Seq)
    assert isinstance(t.left.action, T.AssignAction)


def test_guard_binds_tighter_than_alt(base_spec):
    t = proc(base_spec, "[v = 0] -> a + b")
    assert isinstance(t, T.Alt)
    assert isinstance(t.left, T.Guard)


def test_parse_errors_carry_positions():
    with pytest.raises(SpecSyntaxError) as err:
        parse_spec("proc P = unknown_name")
    assert err.value.line == 1
    assert err.value.col > 0


def test_undeclared_action_rejected():
    with pytest.raises(SpecSyntaxError):
        parse_spec("actions a\nproc P = b")


def test_arity_mismatch_rejected():
    with pytest.raises(SpecSyntaxError):
        parse_spec("actions a/1\nproc P = a(1, 2)")


def test_non_guarded_rec_rejected():
    with pytest.raises(SpecSyntaxError):
        parse_spec("actions a\nproc P = rec X where { X = [true] -> tau . X }")


LATE_VARS = ("domain 0..3\nvars x\nactions a\nmap m { x = 1 }\nvars y\n"
             "proc P = eval{m}([y > 0] -> a)\n")


def test_spec_roundtrip_identity(base_spec):
    """The shared base spec, every workload spec of the benchmark at seeds 1
    and 2, and the identity script's fixed spec print and parse back to an
    equal spec file, which prints the same. A spec declaring variables after
    a map is rejected: printed, its variables would precede the map, and the
    map would give the later ones values."""
    workloads = bench_module("workloads")
    specs = [base_spec, parse_spec(cli_identity.FIXED_SPEC)] + [
        parse_spec(text) for seed in (1, 2) for workload in workloads.WORKLOADS
        for text in workloads.make_plan(workload, seed)["specs"].values()]
    for spec in specs:
        rendered = render_spec(spec)
        again = parse_spec(rendered)
        assert again.carrier == spec.carrier
        assert again.decl == spec.decl
        assert again.action_arities == spec.action_arities
        assert again.gamma == spec.gamma
        assert again.maps == spec.maps
        assert again.procs == spec.procs
        assert again.security_low == spec.security_low
        assert again.security_ext == spec.security_ext
        assert render_spec(again) == rendered
    with pytest.raises(SpecSyntaxError, match="before any map") as err:
        parse_spec(LATE_VARS)
    assert (err.value.line, err.value.col) == (5, 1)


def test_variables_after_a_map_are_rejected():
    """An inline `eval{...}` builds a map too, so a `vars` line after it is
    refused where it stands; `vars` lines before any map add up."""
    with pytest.raises(SpecSyntaxError, match="before any map") as err:
        parse_spec("vars x\nactions a\nproc P = eval{x = 1}(a)\nvars y\n")
    assert (err.value.line, err.value.col) == (4, 1)
    assert parse_spec("vars x\nvars y\nmap m { y = 1 }\n").maps["m"].as_dict() == {"x": 0, "y": 1}


def test_a_printed_communication_parses_back():
    """`a/1 | b/1 = c` makes `c(e)`, which parses back although `c` is
    declared with arity 0 only; an arity no communicating pair shares is
    still refused."""
    spec = parse_spec("actions a/1, b/1, b/2, c\ncomm { a | b = c }\n")
    assert parse_process("c(1)", spec) == T.Atom(T.ParamAction("c", (D.Lit(1),)))
    with pytest.raises(SpecSyntaxError, match="not declared with arity 2"):
        parse_process("c(1, 2)", spec)


def test_random_term_roundtrip(small_spec, small_ctx):
    # parse(render(t)) == t on a large random corpus
    rng = random.Random(2024)
    cfg = G.GenConfig(
        action_names=("a", "b", "c"),
        param_arities={"a": (1, 2), "b": (1,)},
        flex_vars=("u", "v"),
        allow_eval=True,
        allow_rec=True,
        allow_abstr=True,
    )
    for k in range(1000):
        t = G.random_proc(rng, cfg, small_ctx, depth=rng.randint(0, 3))
        text = render_term(t)
        back = parse_process(text, small_spec)
        assert back == t, f"round-trip failed on {text!r}"


# --- the operator-precedence parser against the recursive-descent oracle ----------

HEADER = ("domain -4..3\nvars u, v, h, l\n"
          "actions a, a/1, a/2, b, b/1, b/2, c, c/1, c/2, send/1\ncomm { a | b = c }\n")
VOCABULARY = ("( ) [ ] { } + - * . || ||_ | -> <-> := , = < >= != not and or forall exists "
              "true false x d u v a b 1 0 99 delta epsilon tau hide encap eval rec where X").split()


def _outcome(parse, text):
    try:
        return parse(text)
    except DeacpError as exc:
        if isinstance(exc, SpecSyntaxError):
            assert exc.line >= 1 and exc.col >= 1
        return type(exc)


def _mutant(rng, body):
    tokens = [tok.value for tok in tokenize(body)[:-1]]
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(tokens))
        edit = rng.randrange(4)
        if edit == 0 and len(tokens) > 1:
            del tokens[i]
        elif edit == 1:
            tokens.insert(i, rng.choice(VOCABULARY))
        elif edit == 2 and i + 1 < len(tokens):
            tokens[i], tokens[i + 1] = tokens[i + 1], tokens[i]
        else:
            tokens[i] = rng.choice(VOCABULARY)
    return " ".join(tokens)


def test_parser_matches_the_oracle(small_ctx):
    """Rendered random terms and token mutations of them: both parsers accept
    the same inputs with equal spec files and reject the rest with the same
    exception class."""
    rng = random.Random(12)
    configs = [
        G.GenConfig(param_arities={"a": (1, 2), "b": (1,)}, allow_abstr=True),
        G.GenConfig(max_depth=4, data_depth=3, cond_depth=3, allow_abstr=True),
    ]
    bodies = [render_term(G.random_proc(rng, configs[k % 2], small_ctx, depth=rng.randint(0, 4)))
              for k in range(300)]
    texts = bodies + [_mutant(rng, rng.choice(bodies)) for _ in range(3000)]
    accepted = 0
    for body in texts:
        text = f"{HEADER}proc P = {body}\n"
        mine = _outcome(parse_spec, text)
        assert mine == _outcome(parser_oracle.parse_spec, text), text
        accepted += not isinstance(mine, type)
    assert 300 < accepted < len(texts) - 2000


# --- the tokenizer against the per-lexeme oracle ------------------------------

BLANKS = (" ", "  ", "\t", "\r\n", "\n", "\f", " \f\t ", "\n\n  ", "  # note\n",
          "#\r\n", "# a # b (\n\t")


def _lexed(tokenizer, text):
    """Each token as (kind, value, line, col), or the tokenizing error."""
    try:
        return [(tok.kind, tok.value, tok.line, tok.col) for tok in tokenizer(text)]
    except SpecSyntaxError as exc:
        return exc.message, exc.line, exc.col


def test_tokenizer_matches_oracle(small_ctx):
    """Every workload spec of the benchmark at seeds 1 and 2, its corpus files,
    and generated specs with random blanks and comments between their tokens
    tokenize as the per-lexeme oracle does; with a stray character inserted,
    both fail with the same message, line and column."""
    workloads = bench_module("workloads")
    texts = [text for seed in (1, 2) for workload in workloads.WORKLOADS
             for text in workloads.make_plan(workload, seed)["specs"].values()]
    for name in workloads.CORPUS_FILES:
        with open(os.path.join(workloads.CORPUS_DIR, name), encoding="utf-8") as handle:
            texts.append(handle.read())
    rng = random.Random(25)
    config = G.GenConfig(param_arities={"a": (1, 2), "b": (1,)}, allow_abstr=True)
    for _ in range(300):
        body = render_term(G.random_proc(rng, config, small_ctx, depth=rng.randint(0, 4)))
        values = [tok.value for tok in parser_oracle.tokenize(f"{HEADER}proc P = {body}")[:-1]]
        spaced = "".join(value + rng.choice(BLANKS) for value in values)
        texts.append(spaced + "# the last line, without a final newline")
    strays = 0
    for text in texts:
        assert _lexed(tokenize, text) == _lexed(parser_oracle.tokenize, text)
        for _ in range(2):
            at = rng.randrange(len(text) + 1)
            mutant = text[:at] + rng.choice("$\u00e9") + text[at:]
            outcome = _lexed(tokenize, mutant)
            assert outcome == _lexed(parser_oracle.tokenize, mutant), mutant
            strays += isinstance(outcome, tuple)
    assert strays > 400


def test_parsing_stays_linear():
    """Parsing ten times the lines costs less than fifteen times the time: no
    token's line or column is found by scanning the text before it."""
    def cpu_seconds(lines):
        """The least CPU time of three parses, so a busy core does not decide
        the ratio. The cyclic collector is paused while they run: its passes
        over the large parse's objects, not the parser, moved the ratio."""
        text = "domain 0..6\nvars x\nactions a, b, c\n" + "".join(
            f"proc P{i} = [x > {i % 7}] -> a . b + c  # line {i}\n" for i in range(lines))
        times = []
        for _ in range(3):
            gc.disable()
            try:
                started = time.process_time()
                parse_spec(text)
                times.append(time.process_time() - started)
            finally:
                gc.enable()
        return min(times)

    small, large = cpu_seconds(2000), cpu_seconds(20000)
    assert large < 15 * small, (small, large)


ZERO = D.Lit(0)
U_POS, V_POS = C.Cmp(">", D.Flex("u"), ZERO), C.Cmp(">", D.Flex("v"), ZERO)
U_IS_V = C.Cmp("=", D.Flex("u"), D.Flex("v"))
X_POS = C.Cmp(">", D.DVar("x"), ZERO)


def _iff(left, right):
    return C.And(C.Implies(left, right), C.Implies(right, left))


@pytest.mark.parametrize("text, expected", [
    ("u > 0 -> v > 0 -> u = v", C.Implies(U_POS, C.Implies(V_POS, U_IS_V))),
    ("u > 0 <-> v > 0 <-> u = v", _iff(U_POS, _iff(V_POS, U_IS_V))),
    ("u > 0 -> v > 0 <-> u = v", _iff(C.Implies(U_POS, V_POS), U_IS_V)),
    ("u > 0 or v > 0 and u = v", C.Or(U_POS, C.And(V_POS, U_IS_V))),
    ("not u > 0", C.Not(U_POS)),
    ("not u > 0 and v > 0", C.And(C.Not(U_POS), V_POS)),
    ("(forall x. x > 0 and u > 0) or v > 0",
     C.Or(C.Forall("x", C.And(X_POS, U_POS)), V_POS)),
    ("u > 0 and forall x. x > 0 or v > 0", C.And(U_POS, C.Forall("x", C.Or(X_POS, V_POS)))),
    ("(u) > 0 and ((v + 1)) * 2 > 0", C.And(U_POS, C.Cmp(
        ">", D.App("*", (D.App("+", (D.Flex("v"), D.Lit(1))), D.Lit(2))), ZERO))),
])
def test_condition_precedence(base_spec, text, expected):
    assert cond(base_spec, text) == expected


@pytest.mark.parametrize("text", ["u = 1 = 2", "(u > 0) > 1", "true + 1 > 0"])
def test_comparisons_do_not_chain(base_spec, text):
    with pytest.raises(SpecSyntaxError):
        cond(base_spec, text)


def test_guard_begins_a_summand(base_spec):
    a, b = T.Atom(T.BasicAction("a")), T.Atom(T.BasicAction("b"))
    guard = T.Guard(U_POS, b)
    assert proc(base_spec, "a + [u > 0] -> b") == T.Alt(a, guard)
    assert proc(base_spec, "a . ([u > 0] -> b)") == T.Seq(a, guard)
    for op in (".", "||", "||_", "|"):
        with pytest.raises(SpecSyntaxError, match=r"expected a process term, found '\['"):
            proc(base_spec, f"a {op} [u > 0] -> b")


def test_assignment_stops_where_no_data_atom_follows(base_spec):
    q = D.Flex("q")
    assign = T.Atom(T.AssignAction("q", D.App("+", (q, D.Lit(1)))))
    assert proc(base_spec, "q := q + 1 + a") == T.Alt(assign, T.Atom(T.BasicAction("a")))
    assert proc(base_spec, "q := q + 1 . a") == T.Seq(assign, T.Atom(T.BasicAction("a")))


def test_quantified_variables_are_data_atoms(base_spec):
    """`+ - *` continue a data term when a quantified variable follows, so the
    rendering of such a condition parses back."""
    x = D.DVar("x")
    phi = C.Forall("x", C.Cmp(">", D.App("+", (D.Lit(1), x)), ZERO))
    assert render_cond(phi) == "forall x. 1 + x > 0"
    assert proc(base_spec, "[forall x. 1 + x > 0] -> a") == T.Guard(phi, T.Atom(T.BasicAction("a")))
    assert cond(base_spec, "exists x. 2 * x - x = u") == C.Exists("x", C.Cmp(
        "=", D.App("-", (D.App("*", (D.Lit(2), x)), x)), D.Flex("u")))


N = 3000


DEEP = {
    "parentheses": "(" * N + "a" + ")" * N,
    "hide": "hide{a}(" * N + "a" + ")" * N,
    "condition-parentheses": "[" + "(" * N + "u > 0" + ")" * N + "] -> a",
    "data-parentheses": "[" + "(" * N + "u" + ")" * N + " > 0] -> a",
    "assignment-parentheses": "u := " + "(" * N + "u" + ")" * N,
    "nots": "[" + "not " * N + "u > 0] -> a",
    "quantifiers": "[" + "forall d. " * N + "d > u] -> a",
    "guards": "[u > 0] -> " * N + "a",
    "implications": "[" + " -> ".join(["u > 0"] * N) + "] -> a",
    "summands": "rec X where { X = " + " + ".join(["[u > 0] -> a . X"] * N) + " }",
}


@pytest.mark.parametrize("body", DEEP.values(), ids=DEEP.keys())
def test_deep_nesting_parses(body):
    spec = parse_spec(f"{HEADER}proc P = {body}\n")
    t = spec.procs["P"]
    assert hash(t) == hash(tuple(getattr(t, name) for name in t.__dataclass_fields__))


PRINTED = {**DEEP, "sequence": " . ".join(["a"] * N), "data-sum": "u := " + " + ".join(["u"] * N)}


@pytest.mark.parametrize("body", PRINTED.values(), ids=PRINTED.keys())
def test_deep_terms_print_and_parse_back(tmp_path, body):
    """`deacp parse` prints a 3000-deep term, and its output parses to the
    same text; each parse runs in a process of its own."""
    path = tmp_path / "deep.deacp"
    path.write_text(f"{HEADER}proc P = {body}\n", encoding="utf-8")
    first = run_cli("parse", str(path))
    assert (first.returncode, first.stderr) == (0, b"")
    path.write_bytes(first.stdout)
    again = run_cli("parse", str(path))
    assert (again.returncode, again.stdout, again.stderr) == (0, first.stdout, b"")


def test_equal_subterms_of_one_file_share_one_object():
    """Equal subterms of one parse are one object, so two procs with the same
    3000-summand specification compare without recursing."""
    rec = "rec Y where { Y = " + " + ".join(["[v > 0] -> c . Y"] * N) + " }"
    spec = parse_spec(f"{HEADER}proc P = {rec}\nproc Q = {rec}\n")
    assert spec.procs["P"] is spec.procs["Q"]
    t = proc(spec, "a(u + 1) . b + (a(u + 1) . b || a(u + 1))")
    assert t.left is t.right.left
    assert t.left.left is t.right.right


def test_one_wide_specification_parses_twice():
    """Two parses of one file give equal but distinct specifications; judging
    each as guarded linear compares neither with the other."""
    rec = "rec X where { X = " + " + ".join(["[u > 0] -> a . X"] * N) + " }"
    first, second = (parse_spec(f"{HEADER}proc P = {rec}\n") for _ in range(2))
    assert first.procs["P"] is not second.procs["P"]
    assert T.is_guarded_linear_spec(second.procs["P"].spec)


def test_renderer_matches_the_oracle(small_ctx):
    """The layout table renders generated process terms, and every condition,
    data term and action in them, as the recursive renderer does."""
    rng = random.Random(31)
    configs = [
        G.GenConfig(param_arities={"a": (1, 2), "b": (1,)}, allow_abstr=True),
        G.GenConfig(max_depth=4, data_depth=3, cond_depth=3, allow_abstr=True),
    ]
    oracle = {"proc": render_oracle.render_term, "cond": render_oracle.render_cond,
              "data": render_oracle.render_data, "action": render_oracle.render_action}
    sorts = {**{cls: "cond" for cls in C.Condition.__args__},
             **{cls: "data" for cls in D.DataTerm.__args__},
             **{cls: "action" for cls in T.Action.__args__},
             **{cls: "proc" for cls in T.ProcTerm.__args__}}
    checked = 0
    for k in range(800):
        t = G.random_proc(rng, configs[k % 2], small_ctx, depth=rng.randint(0, 4))
        for y in D.subterms(t):
            sort = sorts.get(type(y))
            if sort is not None:
                assert render_term(y) == oracle[sort](y), y
                checked += 1
    assert checked > 6000
