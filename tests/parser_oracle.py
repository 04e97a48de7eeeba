"""Recursive descent with one function per precedence level: an independent
oracle for deacp.parser.

This is the parser deacp used before its operator-precedence rewrite, with
one fix carried over: quantified variables count as data atoms, so
`forall d. 1 + d > 0` parses. It recurses once per nesting level and, in a
condition, reads a parenthesis first as a condition and then, on failure,
again as a data term.

Its tokenizer is the one deacp used before its one-match-per-token rewrite:
one match per lexeme, whitespace and comments included, with the line and
column carried along each lexeme.
"""

import re
from dataclasses import dataclass
from typing import Optional

from deacp import conditions as C
from deacp import data_algebra as D
from deacp import terms as T
from deacp.errors import DeclarationError, SpecSyntaxError
from deacp.parser import KEYWORDS, SpecFile

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+|\#[^\n]*)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<int>[0-9]+)
  | (?P<op>\|\|_|\|\||<->|->|<=|>=|!=|:=|\.\.|[-+*.|(){}\[\],;/=<>])
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class Token:
    kind: str  # ident | int | op | eof
    value: str
    line: int
    col: int


def tokenize(text: str) -> list:
    tokens = []
    line, col, pos = 1, 1, 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise SpecSyntaxError(f"unexpected character {text[pos]!r}", line, col)
        lexeme = m.group(0)
        if m.lastgroup != "ws":
            tokens.append(Token(m.lastgroup, lexeme, line, col))
        newlines = lexeme.count("\n")
        if newlines:
            line += newlines
            col = len(lexeme) - lexeme.rfind("\n")
        else:
            col += len(lexeme)
        pos = m.end()
    tokens.append(Token("eof", "", line, col))
    return tokens


class Parser:
    def __init__(self, tokens: list, spec: Optional[SpecFile] = None):
        self.tokens = tokens
        self.pos = 0
        self.spec = spec or SpecFile()
        self.rec_depth = 0

    # --- token plumbing ---------------------------------------------------

    def peek(self, offset: int = 0) -> Token:
        return self.tokens[min(self.pos + offset, len(self.tokens) - 1)]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def at(self, value: str) -> bool:
        return self.peek().value == value and self.peek().kind in ("op", "ident")

    def accept(self, value: str) -> bool:
        if self.at(value):
            self.next()
            return True
        return False

    def expect(self, value: str) -> Token:
        tok = self.peek()
        if not self.at(value):
            raise SpecSyntaxError(f"expected {value!r}, found {tok.value!r}", tok.line, tok.col)
        return self.next()

    def expect_ident(self) -> Token:
        tok = self.peek()
        if tok.kind != "ident" or tok.value in KEYWORDS:
            raise SpecSyntaxError(f"expected an identifier, found {tok.value!r}", tok.line, tok.col)
        return self.next()

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

    # --- file structure -------------------------------------------------------

    def parse_file(self) -> SpecFile:
        while self.peek().kind != "eof":
            tok = self.peek()
            if self.accept("domain"):
                lo = self.expect_int()
                self.expect("..")
                hi = self.expect_int()
                try:
                    self.spec.carrier = D.Carrier(lo, hi)
                except DeclarationError as exc:
                    raise SpecSyntaxError(str(exc), tok.line, tok.col)
            elif self.accept("vars"):
                names = list(self.spec.decl.names)
                while True:
                    name_tok = self.expect_ident()
                    self.check_fresh(name_tok.value, name_tok)
                    names.append(name_tok.value)
                    if not self.accept(","):
                        break
                self.spec.decl = D.FlexVarDecl(tuple(names))
            elif self.accept("actions"):
                while True:
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
                    if not self.accept(","):
                        break
            elif self.accept("comm"):
                self.expect("{")
                entries = dict(self.spec.gamma.table)
                while not self.at("}"):
                    a = self.expect_ident().value
                    self.expect("|")
                    b = self.expect_ident().value
                    self.expect("=")
                    c = self.expect_ident().value
                    entries[(a, b) if a <= b else (b, a)] = c
                    if not self.accept(","):
                        break
                self.expect("}")
                gamma = T.CommFunction.of(entries)
                try:
                    gamma.validate(self.spec.action_arities.keys())
                except DeclarationError as exc:
                    raise SpecSyntaxError(str(exc), tok.line, tok.col)
                self.spec.gamma = gamma
            elif self.accept("map") or self.accept("maps"):
                name_tok = self.expect_ident()
                self.check_fresh(name_tok.value, name_tok)
                self.expect("{")
                self.spec.maps[name_tok.value] = self.parse_map_entries()
            elif self.accept("proc"):
                name_tok = self.expect_ident()
                self.check_fresh(name_tok.value, name_tok)
                self.expect("=")
                self.spec.procs[name_tok.value] = self.parse_process()
            elif self.accept("security"):
                self.parse_security()
            else:
                self.fail(f"expected a section keyword, found {tok.value!r}")
        return self.spec

    def parse_map_entries(self) -> D.EvalMap:
        """Entries between braces; unmentioned declared variables get a default."""
        entries = {}
        while not self.at("}"):
            var_tok = self.expect_ident()
            if not self.is_var(var_tok.value):
                raise SpecSyntaxError(
                    f"{var_tok.value!r} is not a declared flexible variable",
                    var_tok.line, var_tok.col,
                )
            self.expect("=")
            value = self.expect_int()
            if value not in self.spec.carrier:
                raise SpecSyntaxError(
                    f"value {value} outside carrier", var_tok.line, var_tok.col
                )
            entries[var_tok.value] = value
            if not self.accept(","):
                break
        self.expect("}")
        default = 0 if 0 in self.spec.carrier else self.spec.carrier.lo
        for name in self.spec.decl:
            entries.setdefault(name, default)
        return D.EvalMap.of(entries)

    def parse_security(self):
        self.expect("{")
        low: tuple = ()
        ext: tuple = ()
        while not self.at("}"):
            if self.accept("low"):
                self.expect("=")
                self.expect("{")
                names = []
                while not self.at("}"):
                    var_tok = self.expect_ident()
                    if not self.is_var(var_tok.value):
                        raise SpecSyntaxError(
                            f"{var_tok.value!r} is not a declared flexible variable",
                            var_tok.line, var_tok.col,
                        )
                    names.append(var_tok.value)
                    if not self.accept(","):
                        break
                self.expect("}")
                low = tuple(names)
            elif self.accept("ext"):
                self.expect("=")
                self.expect("{")
                pats = []
                while not self.at("}"):
                    pats.append(self.parse_pattern(assign_ok=False))
                    if not self.accept(","):
                        break
                self.expect("}")
                ext = T.pattern_set(pats)
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

    # --- data terms ------------------------------------------------------------

    def at_data_atom(self) -> bool:
        tok = self.peek()
        if tok.kind == "int":
            return True
        if tok.value == "(" or tok.value == "-":
            return True
        return tok.kind == "ident" and (self.is_var(tok.value) or tok.value in self.dvars)

    def parse_data(self) -> D.DataTerm:
        left = self.parse_data_mul()
        while self.peek().value in ("+", "-"):
            op = self.peek().value
            # Only continue when an actual data atom follows; otherwise the
            # operator belongs to the surrounding process term.
            save = self.pos
            self.next()
            if not self.at_data_atom():
                self.pos = save
                break
            right = self.parse_data_mul()
            left = D.App(op, (left, right))
        return left

    def parse_data_mul(self) -> D.DataTerm:
        left = self.parse_data_atom()
        while self.peek().value == "*":
            save = self.pos
            self.next()
            if not self.at_data_atom():
                self.pos = save
                break
            right = self.parse_data_atom()
            left = D.App("*", (left, right))
        return left

    def parse_data_atom(self) -> D.DataTerm:
        tok = self.peek()
        if tok.value == "(":
            self.next()
            inner = self.parse_data()
            self.expect(")")
            return inner
        if tok.value == "-" or tok.kind == "int":
            value = self.expect_int()
            if value not in self.spec.carrier:
                raise SpecSyntaxError(f"literal {value} outside carrier", tok.line, tok.col)
            return D.Lit(value)
        if tok.kind == "ident":
            name = self.next().value
            if self.is_var(name):
                return D.Flex(name)
            if name in self.dvars:
                return D.DVar(name)
            raise SpecSyntaxError(f"{name!r} is not a data term", tok.line, tok.col)
        raise SpecSyntaxError(f"expected a data term, found {tok.value!r}", tok.line, tok.col)

    # --- conditions --------------------------------------------------------------

    dvars: tuple = ()

    def parse_cond(self) -> C.Condition:
        if self.at("forall") or self.at("exists"):
            kw = self.next().value
            var_tok = self.expect_ident()
            if self.is_var(var_tok.value):
                raise SpecSyntaxError(
                    f"quantified variable {var_tok.value!r} shadows a flexible variable",
                    var_tok.line, var_tok.col,
                )
            self.expect(".")
            saved = self.dvars
            self.dvars = saved + (var_tok.value,)
            try:
                body = self.parse_cond()
            finally:
                self.dvars = saved
            return C.Forall(var_tok.value, body) if kw == "forall" else C.Exists(var_tok.value, body)
        return self.parse_cond_iff()

    def parse_cond_iff(self) -> C.Condition:
        left = self.parse_cond_implies()
        if self.accept("<->"):
            right = self.parse_cond_iff()
            return C.And(C.Implies(left, right), C.Implies(right, left))
        return left

    def parse_cond_implies(self) -> C.Condition:
        left = self.parse_cond_or()
        if self.accept("->"):
            right = self.parse_cond_implies()
            return C.Implies(left, right)
        return left

    def parse_cond_or(self) -> C.Condition:
        left = self.parse_cond_and()
        while self.accept("or"):
            left = C.Or(left, self.parse_cond_and())
        return left

    def parse_cond_and(self) -> C.Condition:
        left = self.parse_cond_not()
        while self.accept("and"):
            left = C.And(left, self.parse_cond_not())
        return left

    def parse_cond_not(self) -> C.Condition:
        if self.accept("not"):
            return C.Not(self.parse_cond_not())
        return self.parse_cond_atom()

    def parse_cond_atom(self) -> C.Condition:
        tok = self.peek()
        if self.accept("true"):
            return C.TRUE
        if self.accept("false"):
            return C.FALSE
        if tok.value == "(":
            # Either a parenthesized condition or a parenthesized data term
            # followed by a comparison; try the condition reading first.
            save = self.pos
            try:
                self.next()
                inner = self.parse_cond()
                self.expect(")")
                return inner
            except SpecSyntaxError:
                self.pos = save
        if self.at("forall") or self.at("exists"):
            return self.parse_cond()
        left = self.parse_data()
        op_tok = self.peek()
        if op_tok.value not in C.CMP_OPS:
            raise SpecSyntaxError(
                f"expected a comparison operator, found {op_tok.value!r}",
                op_tok.line, op_tok.col,
            )
        self.next()
        right = self.parse_data()
        return C.Cmp(op_tok.value, left, right)

    # --- process terms ---------------------------------------------------------

    def parse_process(self) -> T.ProcTerm:
        left = self.parse_guarded()
        while self.accept("+"):
            right = self.parse_guarded()
            left = T.Alt(left, right)
        return left

    def parse_guarded(self) -> T.ProcTerm:
        if self.at("["):
            self.next()
            cond = self.parse_cond()
            self.expect("]")
            self.expect("->")
            body = self.parse_guarded()
            return T.Guard(cond, body)
        return self.parse_merge()

    def parse_merge(self) -> T.ProcTerm:
        left = self.parse_seq()
        while True:
            if self.accept("||_"):
                left = T.LeftMerge(left, self.parse_seq())
            elif self.accept("||"):
                left = T.Par(left, self.parse_seq())
            elif self.accept("|"):
                left = T.CommMerge(left, self.parse_seq())
            else:
                return left

    def parse_seq(self) -> T.ProcTerm:
        left = self.parse_atom()
        while self.accept("."):
            left = T.Seq(left, self.parse_atom())
        return left

    def parse_atom(self) -> T.ProcTerm:
        tok = self.peek()
        if self.accept("("):
            inner = self.parse_process()
            self.expect(")")
            return inner
        if self.accept("delta"):
            return T.DELTA
        if self.accept("epsilon"):
            return T.EPSILON
        if self.accept("tau"):
            return T.Atom(T.TAU)
        if self.at("encap") or self.at("hide"):
            kw = self.next().value
            self.expect("{")
            pats = []
            while not self.at("}"):
                pats.append(self.parse_pattern())
                if not self.accept(","):
                    break
            self.expect("}")
            self.expect("(")
            body = self.parse_process()
            self.expect(")")
            node = T.Encap if kw == "encap" else T.Abstr
            return node(T.pattern_set(pats), body)
        if self.accept("eval"):
            self.expect("{")
            emap = self.parse_eval_map()
            self.expect("(")
            body = self.parse_process()
            self.expect(")")
            return T.Eval(emap, body)
        if self.accept("rec"):
            return self.parse_rec(tok)
        if tok.kind == "ident" and tok.value not in KEYWORDS:
            return self.parse_named_atom()
        raise SpecSyntaxError(f"expected a process term, found {tok.value!r}", tok.line, tok.col)

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
        equations = []
        while True:
            var_tok = self.expect_ident()
            self.expect("=")
            rhs = self.parse_process()
            equations.append((var_tok.value, rhs))
            if not self.accept(","):
                break
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

    def parse_named_atom(self) -> T.ProcTerm:
        tok = self.expect_ident()
        name = tok.value
        if self.is_action(name):
            if self.at("("):
                self.next()
                args = [self.parse_data()]
                while self.accept(","):
                    args.append(self.parse_data())
                self.expect(")")
                if len(args) not in self.spec.action_arities[name]:
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
            expr = self.parse_data()
            return T.Atom(T.AssignAction(name, expr))
        if name in self.spec.procs and self.rec_depth == 0:
            return self.spec.procs[name]
        if self.rec_depth > 0:
            return T.RecVar(name)
        raise SpecSyntaxError(f"undeclared name {name!r}", tok.line, tok.col)


def parse_spec(text: str) -> SpecFile:
    return Parser(tokenize(text)).parse_file()


def parse_process(text: str, spec: SpecFile) -> T.ProcTerm:
    parser = Parser(tokenize(text), spec=spec)
    term = parser.parse_process()
    tok = parser.peek()
    if tok.kind != "eof":
        raise SpecSyntaxError(f"trailing input {tok.value!r}", tok.line, tok.col)
    return term


def parse_condition(text: str, spec: SpecFile) -> C.Condition:
    parser = Parser(tokenize(text), spec=spec)
    cond = parser.parse_cond()
    tok = parser.peek()
    if tok.kind != "eof":
        raise SpecSyntaxError(f"trailing input {tok.value!r}", tok.line, tok.col)
    return cond
