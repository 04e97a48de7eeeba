"""Concrete syntax: tokenizer, parser, and canonical renderer for spec files.

A spec file carries the whole verification problem: the data domain, the
flexible-variable and action declarations, the communication table, named
evaluation maps, named processes, and optional security declarations.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import partial
from operator import attrgetter
from typing import NamedTuple, Optional

from . import terms as T
from . import conditions as C
from . import data_algebra as D
from .errors import DeclarationError, SpecSyntaxError

KEYWORDS = {
    "domain", "vars", "actions", "comm", "map", "maps", "proc", "security",
    "rec", "where", "low", "ext",
    "delta", "epsilon", "tau", "true", "false",
    "not", "and", "or", "forall", "exists",
    "encap", "hide", "eval",
}

# One match per token of a line: the blanks before it, then the token. At the
# end of the line, or before a character no token starts with, the match holds
# no token: only blanks and a comment, which runs to the end of its line.
_TOKEN_RE = re.compile(
    r"""
    \s*
    (?: (?P<op>\|\|_|\|\||<->|->|<=|>=|!=|:=|\.\.|[-+*.|(){}\[\],;/=<>])
      | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
      | (?P<int>[0-9]+)
      | \#.*
    )?
    """,
    re.VERBOSE,
)


class Token(NamedTuple):
    kind: str  # ident | int | op | eof
    value: str
    line: int
    col: int


def tokenize(text: str) -> list:
    """The tokens of `text`, then an end token. Lines break at newline
    characters only, and a token's column is its offset in its line plus one."""
    tokens = []
    append = tokens.append
    for line, chars in enumerate(text.split("\n"), 1):
        for m in _TOKEN_RE.finditer(chars):
            kind = m.lastgroup
            if kind is None:  # the end of the line, or a character no token starts with
                break
            start, end = m.span(kind)
            append(Token(kind, chars[start:end], line, start + 1))
        if m.end() < len(chars):
            raise SpecSyntaxError(f"unexpected character {chars[m.end()]!r}", line, m.end() + 1)
    append(Token("eof", "", line, len(chars) + 1))
    return tokens


@dataclass
class SpecFile:
    carrier: D.Carrier = field(default_factory=D.Carrier)
    decl: D.FlexVarDecl = D.FlexVarDecl(())
    action_arities: dict = field(default_factory=dict)  # name -> set of arities
    gamma: T.CommFunction = T.CommFunction()
    maps: dict = field(default_factory=dict)  # name -> EvalMap
    procs: dict = field(default_factory=dict)  # name -> ProcTerm
    security_low: Optional[tuple] = None
    security_ext: Optional[tuple] = None

    def context(self, state_bound: int = T.DEFAULT_STATE_BOUND) -> T.Context:
        return T.Context(
            carrier=self.carrier,
            decl=self.decl,
            gamma=self.gamma,
            state_bound=state_bound,
        )

    def process(self, name: str) -> T.ProcTerm:
        if name not in self.procs:
            raise DeclarationError(f"no process named {name!r}")
        return self.procs[name]


PREFIX, LEFT, RIGHT = "prefix", "left", "right"


def _arith(op):
    return lambda left, right: D.App(op, (left, right))


def _iff(left, right):
    return C.And(C.Implies(left, right), C.Implies(right, left))


_DATA_OPS = {
    "+": (7, LEFT, "data", _arith("+")),
    "-": (7, LEFT, "data", _arith("-")),
    "*": (8, LEFT, "data", _arith("*")),
}

# Every operator of each sort: token -> (level, associativity, operand sort,
# builder); a higher level binds tighter. Conditions and data terms share the
# "cond" grammar: a comparison takes data operands and gives a condition, so
# the operands on the stack decide which sort a parenthesis holds, and two
# comparisons do not chain. A prefix waits on the operator stack until an
# operator of its level or below, or the end of its parenthesis, reduces it:
# a quantifier (level 0) scopes to the end of its parenthesis.
_OPERATORS = {
    "proc": {
        "+": (1, LEFT, "proc", T.Alt),
        "[": (2, PREFIX, "proc", T.Guard),
        "||": (3, LEFT, "proc", T.Par),
        "||_": (3, LEFT, "proc", T.LeftMerge),
        "|": (3, LEFT, "proc", T.CommMerge),
        ".": (4, LEFT, "proc", T.Seq),
    },
    "cond": {
        "forall": (0, PREFIX, "cond", C.Forall),
        "exists": (0, PREFIX, "cond", C.Exists),
        "<->": (1, RIGHT, "cond", _iff),
        "->": (2, RIGHT, "cond", C.Implies),
        "or": (3, LEFT, "cond", C.Or),
        "and": (4, LEFT, "cond", C.And),
        "not": (5, PREFIX, "cond", C.Not),
        **{op: (6, LEFT, "data", partial(C.Cmp, op)) for op in C.CMP_OPS},
        **_DATA_OPS,
    },
    "data": _DATA_OPS,
}

# Tokens that, where an operand is due, open a parenthesis or are a prefix.
_OPENERS = {
    "proc": {"(", "[", "encap", "hide", "eval"},
    "cond": {"(", "not", "forall", "exists"},
    "data": {"("},
}
# The nullary operators: constants of each sort.
_CONSTANTS = {
    "proc": {"delta": T.DELTA, "epsilon": T.EPSILON, "tau": T.Atom(T.TAU)},
    "cond": {"true": C.TRUE, "false": C.FALSE},
    "data": {},
}
_FRAME = (-1, None, None, None)  # marks an open parenthesis on the operator stack
_DATA_TERMS = (D.Lit, D.Flex, D.DVar, D.App)


class Parser:
    def __init__(self, tokens: list, spec: Optional[SpecFile] = None,
                 lo: Optional[int] = None, hi: Optional[int] = None):
        self.tokens = tokens + tokens[-1:]  # one more end token, for peek(1) at the end
        self.pos = 0
        self.bounds = lo, hi  # override the carrier's bounds where not None
        self.spec = spec or SpecFile()
        self.default_carrier = spec is None  # the bounds are not yet applied to it
        self.map_built = False  # a map gives each variable declared so far a value
        self.rec_depth = 0
        self.dvars = []  # quantified variables in scope, innermost last
        self.nodes: dict = {}  # every node built, so equal subterms share one object

    # --- token plumbing ---------------------------------------------------

    def peek(self, offset: int = 0) -> Token:
        return self.tokens[self.pos + offset]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    # `value` is always a keyword or an operator, which no integer or end token
    # spells, so the value alone identifies the token.
    def at(self, value: str) -> bool:
        return self.tokens[self.pos].value == value

    def accept(self, value: str) -> bool:
        if self.tokens[self.pos].value == value:
            self.pos += 1
            return True
        return False

    def expect(self, value: str) -> Token:
        tok = self.tokens[self.pos]
        if tok.value != value:
            raise SpecSyntaxError(f"expected {value!r}, found {tok.value!r}", tok.line, tok.col)
        self.pos += 1
        return tok

    def expect_ident(self) -> Token:
        tok = self.peek()
        if tok.kind != "ident" or tok.value in KEYWORDS:
            raise SpecSyntaxError(f"expected an identifier, found {tok.value!r}", tok.line, tok.col)
        return self.next()

    def expect_var(self) -> Token:
        tok = self.expect_ident()
        if not self.is_var(tok.value):
            raise SpecSyntaxError(
                f"{tok.value!r} is not a declared flexible variable", tok.line, tok.col
            )
        return tok

    def expect_int(self) -> int:
        neg = False
        if self.at("-"):
            self.next()
            neg = True
        tok = self.peek()
        if tok.kind != "int":
            raise SpecSyntaxError(f"expected an integer, found {tok.value!r}", tok.line, tok.col)
        self.next()
        return -int(tok.value) if neg else int(tok.value)

    def fail(self, message: str):
        tok = self.peek()
        raise SpecSyntaxError(message, tok.line, tok.col)

    def items(self, item, close: Optional[str] = None) -> list:
        """Comma-separated results of `item()`. With a closing token the list
        may be empty or end in a comma, and the closer is consumed; without
        one it holds at least one item and ends at the first one no comma
        follows."""
        out = []
        while close is None or not self.at(close):
            out.append(item())
            if not self.accept(","):
                break
        if close is not None:
            self.expect(close)
        return out

    # --- name classification ------------------------------------------------

    def is_var(self, name: str) -> bool:
        return name in self.spec.decl

    def is_action(self, name: str) -> bool:
        return name in self.spec.action_arities

    def check_fresh(self, name: str, tok: Token):
        if name in KEYWORDS:
            raise SpecSyntaxError(f"{name!r} is a reserved word", tok.line, tok.col)
        taken = (
            self.is_var(name)
            or self.is_action(name)
            or name in self.spec.maps
            or name in self.spec.procs
        )
        if taken:
            raise SpecSyntaxError(f"name {name!r} is already declared", tok.line, tok.col)

    def fresh_ident(self) -> str:
        tok = self.expect_ident()
        self.check_fresh(tok.value, tok)
        return tok.value

    # --- file structure -------------------------------------------------------

    def carrier(self, lo: int, hi: int) -> D.Carrier:
        """The carrier lo..hi with the overriding bounds in their place."""
        over_lo, over_hi = self.bounds
        return D.Carrier(lo if over_lo is None else over_lo, hi if over_hi is None else over_hi)

    def carrier_in_effect(self) -> D.Carrier:
        """The declared carrier, or the default one with the overriding bounds
        applied at its first use, so that a later domain line can still make
        one-sided bounds valid."""
        if self.default_carrier:
            self.default_carrier = False
            self.spec.carrier = self.carrier(self.spec.carrier.lo, self.spec.carrier.hi)
        return self.spec.carrier

    def parse_file(self) -> SpecFile:
        while self.peek().kind != "eof":
            tok = self.peek()
            if self.accept("domain"):
                lo = self.expect_int()
                self.expect("..")
                hi = self.expect_int()
                try:
                    self.spec.carrier = self.carrier(lo, hi)
                except DeclarationError as exc:
                    raise SpecSyntaxError(str(exc), tok.line, tok.col)
                self.default_carrier = False
            elif self.accept("vars"):
                if self.map_built:
                    raise SpecSyntaxError("flexible variables must be declared before any map",
                                          tok.line, tok.col)
                names = self.items(self.fresh_ident)
                self.spec.decl = D.FlexVarDecl(self.spec.decl.names + tuple(names))
            elif self.accept("actions"):
                self.items(self.parse_action_decl)
            elif self.accept("comm"):
                self.expect("{")
                entries = dict(self.spec.gamma.table)
                entries.update(self.items(self.parse_comm_entry, "}"))
                gamma = T.CommFunction.of(entries)
                try:
                    gamma.validate(self.spec.action_arities.keys())
                except DeclarationError as exc:
                    raise SpecSyntaxError(str(exc), tok.line, tok.col)
                self.spec.gamma = gamma
            elif self.accept("map") or self.accept("maps"):
                name = self.fresh_ident()
                self.expect("{")
                self.spec.maps[name] = self.parse_map_entries()
            elif self.accept("proc"):
                name = self.fresh_ident()
                self.expect("=")
                self.spec.procs[name] = self.parse_expr("proc")
            elif self.accept("security"):
                self.parse_security()
            else:
                self.fail(f"expected a section keyword, found {tok.value!r}")
        self.carrier_in_effect()
        return self.spec

    def parse_action_decl(self):
        name_tok = self.expect_ident()
        name = name_tok.value
        arity = 0
        if self.accept("/"):
            arity = self.expect_int()
            if arity < 0:
                raise SpecSyntaxError("negative arity", name_tok.line, name_tok.col)
        if name not in self.spec.action_arities:
            self.check_fresh(name, name_tok)
            self.spec.action_arities[name] = set()
        self.spec.action_arities[name].add(arity)

    def parse_comm_entry(self) -> tuple:
        a = self.expect_ident().value
        self.expect("|")
        b = self.expect_ident().value
        self.expect("=")
        return ((a, b) if a <= b else (b, a)), self.expect_ident().value

    def parse_map_entries(self) -> D.EvalMap:
        """Entries up to the closing brace; unmentioned declared variables get a default."""
        entries = dict(self.items(self.parse_map_entry, "}"))
        self.map_built = True
        carrier = self.carrier_in_effect()
        default = 0 if 0 in carrier else carrier.lo
        for name in self.spec.decl:
            entries.setdefault(name, default)
        return D.EvalMap.of(entries)

    def parse_map_entry(self) -> tuple:
        var_tok = self.expect_var()
        self.expect("=")
        value = self.expect_int()
        if value not in self.carrier_in_effect():
            raise SpecSyntaxError(f"value {value} outside carrier", var_tok.line, var_tok.col)
        return var_tok.value, value

    def parse_security(self):
        self.expect("{")
        low: tuple = ()
        ext: tuple = ()
        while not self.at("}"):
            if self.accept("low"):
                self.expect("=")
                self.expect("{")
                low = tuple(tok.value for tok in self.items(self.expect_var, "}"))
            elif self.accept("ext"):
                self.expect("=")
                self.expect("{")
                ext = T.pattern_set(self.items(lambda: self.parse_pattern(assign_ok=False), "}"))
            else:
                self.fail("expected 'low' or 'ext'")
            self.accept(";")
        self.expect("}")
        self.spec.security_low = low
        self.spec.security_ext = ext

    # --- patterns ------------------------------------------------------------

    def parse_pattern(self, assign_ok: bool = True) -> T.ActionPattern:
        if self.accept("*"):
            return T.ActionPattern("all")
        tok = self.expect_ident()
        name = tok.value
        if self.accept("/"):
            arity = self.expect_int()
            if not self.is_action(name):
                raise SpecSyntaxError(f"{name!r} is not a declared action", tok.line, tok.col)
            return T.ActionPattern("arity", name, arity)
        if self.at(":="):
            if not assign_ok:
                raise SpecSyntaxError("assignment pattern not allowed here", tok.line, tok.col)
            self.next()
            if not self.is_var(name):
                raise SpecSyntaxError(
                    f"{name!r} is not a declared flexible variable", tok.line, tok.col
                )
            return T.ActionPattern("assign", name)
        if not self.is_action(name):
            raise SpecSyntaxError(f"{name!r} is not a declared action", tok.line, tok.col)
        return T.ActionPattern("name", name)

    # --- terms -----------------------------------------------------------------

    def parse_expr(self, sort: str):
        """One process term, condition or data term (`sort` "proc", "cond" or
        "data") by operator precedence over `_OPERATORS`, with explicit
        stacks of operators and operands: Dijkstra's shunting yard in the
        precedence-climbing form of Norvell, "Parsing expressions by
        recursive descent" (2001). Parentheses and prefixes cost no
        recursion; a guard's condition, an assignment, action arguments and
        `rec` equations are nested calls. Each node is hashed and shared as it
        is built (`built`), so no later first hash or comparison recurses
        through the term."""
        ops, vals = [_FRAME], []
        frames = [(sort, None)]  # grammar and wrapper of each open parenthesis
        grammar = sort  # of the operand due next
        while True:
            if self.peek().value in _OPENERS[grammar]:
                self.open(grammar, ops, frames)
                continue
            vals.append(self.operand(grammar))
            while True:  # an operand is done: an operator follows, or a parenthesis ends
                grammar, wrap = frames[-1]
                entry = _OPERATORS[grammar].get(self.peek().value)
                if entry is not None and self.continues(entry, grammar, ops, vals):
                    self.next()
                    ops.append(entry)
                    grammar = entry[2]
                    break
                self.reduce(ops, vals, 0)
                ops.pop()
                frames.pop()
                if not frames:
                    if sort == "cond" and isinstance(vals[0], _DATA_TERMS):
                        self.fail(f"expected a comparison operator, found {self.peek().value!r}")
                    return vals[0]
                self.expect(")")
                if wrap is not None:
                    vals[-1] = self.built(wrap(vals[-1]))

    def open(self, grammar: str, ops: list, frames: list):
        """Push the parenthesis or prefix that starts at the current token."""
        tok = self.next()
        entry = _OPERATORS[grammar].get(tok.value)
        if entry is not None:
            level, assoc, need, build = entry
            if tok.value == "[":
                if ops[-1][0] > level:  # a guarded command begins a summand
                    raise SpecSyntaxError("expected a process term, found '['", tok.line, tok.col)
                cond = self.parse_expr("cond")
                self.expect("]")
                self.expect("->")
                build = partial(T.Guard, cond)
            elif tok.value in ("forall", "exists"):
                var_tok = self.expect_ident()
                if self.is_var(var_tok.value):
                    raise SpecSyntaxError(
                        f"quantified variable {var_tok.value!r} shadows a flexible variable",
                        var_tok.line, var_tok.col,
                    )
                self.expect(".")
                self.dvars.append(var_tok.value)
                build = partial(self.bind, build, var_tok.value)
            ops.append((level, assoc, need, build))
            return
        wrap = None
        if tok.value != "(":
            self.expect("{")
            if tok.value == "eval":
                wrap = partial(T.Eval, self.parse_eval_map())
            else:
                node = T.Encap if tok.value == "encap" else T.Abstr
                wrap = partial(node, T.pattern_set(self.items(self.parse_pattern, "}")))
            self.expect("(")
        frames.append((grammar, wrap))
        ops.append(_FRAME)

    def bind(self, node, var: str, body: C.Condition) -> C.Condition:
        self.dvars.pop()
        return node(var, body)

    def continues(self, entry: tuple, grammar: str, ops: list, vals: list) -> bool:
        """Whether the operator `entry` at the current token continues the
        term. If so, the pending operators that bind at least as tightly
        are applied first."""
        level, assoc, need, _ = entry
        if assoc == PREFIX:
            return False
        # `+ - *` continue a data term only when a data atom follows; otherwise
        # they belong to the surrounding process term.
        if need == "data" and self.peek().value in _DATA_OPS and not self.at_data_atom(1):
            return False
        self.reduce(ops, vals, level + (assoc == RIGHT))
        if grammar != "cond" or isinstance(vals[-1], _DATA_TERMS) == (need == "data"):
            return True
        if need == "cond":
            self.fail(f"expected a comparison operator, found {self.peek().value!r}")
        return False

    def reduce(self, ops: list, vals: list, floor: int):
        """Apply the pending operators of level `floor` or above, innermost first."""
        while ops[-1][0] >= floor:
            _, assoc, need, build = ops.pop()
            right = vals.pop()
            if need == "cond" and isinstance(right, _DATA_TERMS):
                self.fail(f"expected a comparison operator, found {self.peek().value!r}")
            vals.append(self.built(build(right) if assoc == PREFIX else build(vals.pop(), right)))

    def at_data_atom(self, offset: int) -> bool:
        tok = self.peek(offset)
        if tok.kind == "int" or tok.value == "(" or tok.value == "-":
            return True
        return tok.kind == "ident" and (self.is_var(tok.value) or tok.value in self.dvars)

    def operand(self, grammar: str):
        """The atom of `grammar` at the current token, shared."""
        tok = self.peek()
        node = _CONSTANTS[grammar].get(tok.value)
        if node is not None:
            self.next()
            return node
        if grammar == "proc":
            if self.accept("rec"):
                node = self.parse_rec(tok)
            elif tok.kind == "ident" and tok.value not in KEYWORDS:
                node = self.parse_named_atom()
            else:
                raise SpecSyntaxError(
                    f"expected a process term, found {tok.value!r}", tok.line, tok.col
                )
        elif tok.value == "-" or tok.kind == "int":
            value = self.expect_int()
            if value not in self.carrier_in_effect():
                raise SpecSyntaxError(f"literal {value} outside carrier", tok.line, tok.col)
            node = D.Lit(value)
        elif tok.kind == "ident":
            name = self.next().value
            if self.is_var(name):
                node = D.Flex(name)
            elif name in self.dvars:
                node = D.DVar(name)
            else:
                raise SpecSyntaxError(f"{name!r} is not a data term", tok.line, tok.col)
        else:
            raise SpecSyntaxError(f"expected a data term, found {tok.value!r}", tok.line, tok.col)
        return self.built(node)

    def built(self, node):
        """The one node of this parse equal to `node`. Its parts are shared
        already, so comparing them is by identity and never recurses, and
        hashing it, here as it is built, reads only their stored hashes."""
        return self.nodes.setdefault(node, node)

    def parse_eval_map(self) -> D.EvalMap:
        tok = self.peek()
        if tok.kind == "ident" and self.peek(1).value == "}":
            name = self.next().value
            self.expect("}")
            if name in self.spec.maps:
                return self.spec.maps[name]
            raise SpecSyntaxError(f"no evaluation map named {name!r}", tok.line, tok.col)
        return self.parse_map_entries()

    def parse_rec(self, tok: Token) -> T.ProcTerm:
        root = self.expect_ident().value
        self.expect("where")
        self.expect("{")
        self.rec_depth += 1
        equations = self.items(self.parse_equation)
        self.expect("}")
        self.rec_depth -= 1
        try:
            spec = T.RecSpec(tuple(equations))
        except DeclarationError as exc:
            raise SpecSyntaxError(str(exc), tok.line, tok.col)
        for name in spec.variables:
            if self.is_var(name) or self.is_action(name) or name in self.spec.procs \
                    or name in self.spec.maps:
                raise SpecSyntaxError(
                    f"rec variable {name!r} collides with a declared name",
                    tok.line, tok.col,
                )
        bound = set(spec.variables)
        for name, rhs in spec.equations:
            stray = sorted(T.free_rec_vars(rhs) - bound)
            if stray:
                raise SpecSyntaxError(
                    f"undeclared name {stray[0]!r} in the equation for {name}",
                    tok.line, tok.col,
                )
        if root not in spec:
            raise SpecSyntaxError(f"rec variable {root!r} has no equation", tok.line, tok.col)
        if not T.is_guarded_linear_spec(spec):
            raise SpecSyntaxError(
                "recursive specification is not guarded linear", tok.line, tok.col
            )
        return T.RecConst(root, spec)

    def parse_equation(self) -> tuple:
        var_tok = self.expect_ident()
        self.expect("=")
        return var_tok.value, self.parse_expr("proc")

    def parse_named_atom(self) -> T.ProcTerm:
        tok = self.expect_ident()
        name = tok.value
        if self.is_action(name):
            if self.accept("("):
                args = self.items(partial(self.parse_expr, "data"))
                self.expect(")")
                arities = self.spec.action_arities
                # A communication of two actions of arity k is printed as `c(...)`.
                if len(args) not in arities[name] and not any(
                        c == name and len(args) in arities[a] & arities[b]
                        for (a, b), c in self.spec.gamma.table):
                    raise SpecSyntaxError(
                        f"action {name!r} not declared with arity {len(args)}",
                        tok.line, tok.col,
                    )
                return T.Atom(T.ParamAction(name, tuple(args)))
            if 0 not in self.spec.action_arities[name]:
                raise SpecSyntaxError(
                    f"action {name!r} requires data arguments", tok.line, tok.col
                )
            return T.Atom(T.BasicAction(name))
        if self.is_var(name):
            self.expect(":=")
            return T.Atom(T.AssignAction(name, self.parse_expr("data")))
        if name in self.spec.procs and self.rec_depth == 0:
            return self.spec.procs[name]
        if self.rec_depth > 0:
            return T.RecVar(name)
        raise SpecSyntaxError(f"undeclared name {name!r}", tok.line, tok.col)


def parse_spec(text: str, lo: Optional[int] = None, hi: Optional[int] = None) -> SpecFile:
    """The specification text declares. lo and hi, where given, replace the
    bounds of its carrier (declared or default) while it is parsed, so every
    literal and map value is checked against the carrier in effect, and a
    map's unmentioned variables get their default in it."""
    return Parser(tokenize(text), lo=lo, hi=hi).parse_file()


def parse_process(text: str, spec: SpecFile) -> T.ProcTerm:
    return _parse_whole(text, spec, "proc")


def parse_condition(text: str, spec: SpecFile) -> C.Condition:
    return _parse_whole(text, spec, "cond")


def _parse_whole(text: str, spec: SpecFile, sort: str):
    parser = Parser(tokenize(text), spec=spec)
    term = parser.parse_expr(sort)
    tok = parser.peek()
    if tok.kind != "eof":
        raise SpecSyntaxError(f"trailing input {tok.value!r}", tok.line, tok.col)
    return term


# --- rendering -----------------------------------------------------------------

_ATOMIC = 9  # the level of text that no context parenthesizes


def _infix(op: str, level: int, right_assoc: bool = False, operands=attrgetter("left", "right")):
    least = (level + 1, level) if right_assoc else (level, level + 1)
    return level, lambda x, part: f" {op} ".join(map(part, operands(x), least))


def _restriction(keyword: str):
    return _ATOMIC, lambda t, part: (
        f"{keyword}{{{', '.join(part(p, 0) for p in t.patterns)}}}({part(t.body, 0)})")


def _text(text) -> tuple:
    return _ATOMIC, lambda x, part: text(x)


# How each node is laid out: class -> (its own level, its text from
# `part(child, least)`, the child's text in parentheses when the child's level
# is below `least`). A higher level binds tighter; levels compare within a
# sort, and a part of least level 0 is never parenthesized. The data
# operators share one class and are keyed by their symbol.
_LAYOUT = {
    **dict.fromkeys((D.Flex, D.DVar, T.BasicAction, T.RecVar), _text(attrgetter("name"))),
    **{op: _infix(op, 2 if op == "*" else 1, operands=attrgetter("args")) for op in D.OPS},
    D.Lit: _text(lambda e: str(e.value)),
    D.EvalMap: _text(lambda m: "{" + ", ".join(f"{n} = {v}" for n, v in m.entries) + "}"),
    T.ActionPattern: _text(T.ActionPattern.render),
    C.CTrue: _text(lambda c: "true"),
    C.CFalse: _text(lambda c: "false"),
    T.TauAction: _text(lambda a: "tau"),
    T.Inaction: _text(lambda t: "delta"),
    T.Empty: _text(lambda t: "epsilon"),
    C.Forall: (0, lambda c, part: f"forall {c.var}. {part(c.body, 0)}"),
    C.Exists: (0, lambda c, part: f"exists {c.var}. {part(c.body, 0)}"),
    C.Implies: _infix("->", 1, right_assoc=True),
    C.Or: _infix("or", 2),
    C.And: _infix("and", 3),
    C.Not: (_ATOMIC, lambda c, part: f"not {part(c.body, 5)}"),
    C.Cmp: (4, lambda c, part: f"{part(c.left, 0)} {c.op} {part(c.right, 0)}"),
    T.ParamAction: (_ATOMIC, lambda a, part: f"{a.name}({', '.join(part(e, 0) for e in a.args)})"),
    T.AssignAction: (_ATOMIC, lambda a, part: f"{a.var} := {part(a.expr, 0)}"),
    T.Atom: (_ATOMIC, lambda t, part: part(t.action, 0)),
    # A trailing data expression would swallow the '+' on re-parsing.
    T.Alt: (1, lambda t, part: f"{part(t.left, 1, before_plus=True)} + {part(t.right, 2)}"),
    T.Guard: (2, lambda t, part: f"[{part(t.cond, 0)}] -> {part(t.body, 2)}"),
    T.Par: _infix("||", 3),
    T.LeftMerge: _infix("||_", 3),
    T.CommMerge: _infix("|", 3),
    T.Seq: _infix(".", 4),
    T.Encap: _restriction("encap"),
    T.Abstr: _restriction("hide"),
    T.Eval: (_ATOMIC, lambda t, part: f"eval{part(t.emap, 0)}({part(t.body, 0)})"),
    T.RecSpec: (_ATOMIC, lambda s, part:
                ", ".join(f"{n} = {part(rhs, 0)}" for n, rhs in s.equations)),
    T.RecConst: (_ATOMIC, lambda t, part: f"rec {t.var} where {{ {part(t.spec, 0)} }}"),
}


def render(x) -> str:
    """The text of a process term, action, condition or data term, which
    parses back to x.

    Lays out every node of x children first, keeping each one's text, level
    and whether it ends in an assignment by id, so depth costs no recursion.
    """
    laid: dict = {}

    def part(y, least: int, before_plus: bool = False) -> str:
        text, level, assigns = laid[id(y)]
        return f"({text})" if level < least or (before_plus and assigns) else text

    for y in reversed(list(D.subterms(x))):
        cls = type(y)
        entry = _LAYOUT.get(y.op if cls is D.App else cls)
        if entry is None:
            raise TypeError(f"cannot render {y!r}")
        last = y.body if cls is T.Guard else y.right if cls in T.BINARY else None
        assigns = (laid[id(last)][2] if last is not None
                   else cls is T.Atom and type(y.action) is T.AssignAction)
        laid[id(y)] = (entry[1](y, part), entry[0], assigns)
    return laid[id(x)][0]


render_term = render_cond = render_data = render_action = render


def render_spec(spec: SpecFile) -> str:
    lines = [f"domain {spec.carrier.lo}..{spec.carrier.hi}"]
    if spec.decl.names:
        lines.append("vars " + ", ".join(spec.decl))
    decls = []
    for name in spec.action_arities:
        for arity in sorted(spec.action_arities[name]):
            decls.append(name if arity == 0 else f"{name}/{arity}")
    if decls:
        lines.append("actions " + ", ".join(decls))
    if spec.gamma.table:
        entries = ", ".join(f"{a} | {b} = {c}" for (a, b), c in spec.gamma.table)
        lines.append(f"comm {{ {entries} }}")
    for name, emap in spec.maps.items():
        entries = ", ".join(f"{n} = {v}" for n, v in emap.entries)
        lines.append(f"map {name} {{ {entries} }}")
    for name, term in spec.procs.items():
        lines.append(f"proc {name} = {render_term(term)}")
    if spec.security_low is not None or spec.security_ext is not None:
        low = ", ".join(spec.security_low or ())
        ext = ", ".join(p.render() for p in (spec.security_ext or ()))
        lines.append(f"security {{ low = {{{low}}}; ext = {{{ext}}} }}")
    return "\n".join(lines) + "\n"
