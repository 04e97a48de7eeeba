"""Process terms: actions, operators, recursive specifications, predicates."""

from __future__ import annotations

import itertools
from typing import Iterable, Optional

from .conditions import (
    FALSE,
    TRUE,
    CFalse,
    CTrue,
    Condition,
    cond_free_dvars,
    eval_cond,
)
from .data_algebra import (
    Carrier,
    DataTerm,
    EvalMap,
    FlexVarDecl,
    App,
    Flex,
    Lit,
    eval_data,
    flex_vars,
    frozen_dataclass,
    map_children,
    subterms,
)
from .errors import ArityError, DeclarationError, GuardednessError, ShapeError

DEFAULT_STATE_BOUND = 100_000
COMM_BOUND = 64  # the most declared actions whose communication table is checked


# --- actions ----------------------------------------------------------------

@frozen_dataclass
class BasicAction:
    name: str

    def __post_init__(self):
        if self.name in RESERVED_NAMES:
            raise DeclarationError(f"{self.name!r} is reserved and not an action name")


@frozen_dataclass
class TauAction:
    pass


@frozen_dataclass
class ParamAction:
    name: str
    args: tuple  # nonempty tuple of DataTerm

    def __post_init__(self):
        if self.name in RESERVED_NAMES:
            raise DeclarationError(f"{self.name!r} is reserved and not an action name")
        if not self.args:
            raise ArityError("data-parameterized action needs at least one argument")


@frozen_dataclass
class AssignAction:
    var: str
    expr: DataTerm


Action = BasicAction | TauAction | ParamAction | AssignAction

TAU = TauAction()


def eval_action(action: Action, emap: EvalMap, carrier: Carrier) -> tuple:
    """An action taken under a carried map: its label with the data
    evaluated, and the map after the step, which an assignment updates."""
    if isinstance(action, AssignAction):
        value = eval_data(action.expr, emap, carrier)
        return AssignAction(action.var, Lit(value)), emap.updated(action.var, value)
    if isinstance(action, ParamAction):
        return ParamAction(action.name, tuple(Lit(eval_data(e, emap, carrier))
                                              for e in action.args)), emap
    return action, emap


RESERVED_NAMES = frozenset({"tau", "delta", "epsilon"})


# --- action patterns (finite descriptions of subsets of the atomic actions) --

@frozen_dataclass
class ActionPattern:
    """Selects atomic actions; tau is never selected.

    kind 'name'   — basic action `name` plus every parameterized form of it
    kind 'arity'  — `name/n`: arity-n parameterized form (n = 0: basic only)
    kind 'assign' — every assignment to the given flexible variable
    kind 'all'    — every atomic action
    """

    kind: str
    name: Optional[str] = None
    arity: Optional[int] = None

    def matches(self, alpha: Action) -> bool:
        if isinstance(alpha, TauAction):
            return False
        if self.kind == "all":
            return True
        if self.kind == "name":
            return isinstance(alpha, (BasicAction, ParamAction)) and alpha.name == self.name
        if self.kind == "arity":
            if self.arity == 0:
                return isinstance(alpha, BasicAction) and alpha.name == self.name
            return (
                isinstance(alpha, ParamAction)
                and alpha.name == self.name
                and len(alpha.args) == self.arity
            )
        if self.kind == "assign":
            return isinstance(alpha, AssignAction) and alpha.var == self.name
        raise DeclarationError(f"unknown pattern kind {self.kind!r}")

    def render(self) -> str:
        if self.kind == "all":
            return "*"
        if self.kind == "name":
            return self.name
        if self.kind == "arity":
            return f"{self.name}/{self.arity}"
        return f"{self.name}:="


def pattern_set(patterns: Iterable[ActionPattern]) -> tuple:
    """Canonical deduplicated tuple, ordered by rendered form."""
    return tuple(sorted(set(patterns), key=lambda p: p.render()))


def matches_any(alpha: Action, patterns: tuple) -> bool:
    return any(p.matches(alpha) for p in patterns)


# --- process terms ----------------------------------------------------------

@frozen_dataclass
class Atom:
    action: Action


@frozen_dataclass
class Inaction:
    pass


@frozen_dataclass
class Empty:
    pass


@frozen_dataclass
class Alt:
    left: "ProcTerm"
    right: "ProcTerm"


@frozen_dataclass
class Seq:
    left: "ProcTerm"
    right: "ProcTerm"


@frozen_dataclass
class Par:
    left: "ProcTerm"
    right: "ProcTerm"


@frozen_dataclass
class LeftMerge:
    left: "ProcTerm"
    right: "ProcTerm"


@frozen_dataclass
class CommMerge:
    left: "ProcTerm"
    right: "ProcTerm"


@frozen_dataclass
class Encap:
    patterns: tuple  # canonical tuple of ActionPattern
    body: "ProcTerm"


@frozen_dataclass
class Abstr:
    patterns: tuple
    body: "ProcTerm"


@frozen_dataclass
class Guard:
    cond: Condition
    body: "ProcTerm"


@frozen_dataclass
class Eval:
    emap: EvalMap
    body: "ProcTerm"


@frozen_dataclass
class RecVar:
    name: str


@frozen_dataclass
class RecSpec:
    """Finite recursive specification; equation order is significant for output."""

    equations: tuple  # tuple of (variable name, ProcTerm)
    _guarded_linear = None  # is_guarded_linear_spec's verdict, once asked

    def __post_init__(self):
        # Name -> right-hand side, stored beside the fields the way the hash
        # is, so equality and hashing stay field-wise.
        object.__setattr__(self, "_rhs", dict(self.equations))
        if len(self._rhs) != len(self.equations):
            raise DeclarationError("duplicate recursion variable in specification")

    @property
    def variables(self) -> tuple:
        return tuple(n for n, _ in self.equations)

    def rhs(self, name: str) -> "ProcTerm":
        rhs = self._rhs.get(name)
        if rhs is None:
            raise DeclarationError(f"no equation for recursion variable {name!r}")
        return rhs

    def __contains__(self, name: str) -> bool:
        return name in self._rhs


@frozen_dataclass
class RecConst:
    """The designated-variable solution constant of a recursive specification."""

    var: str
    spec: RecSpec

    def __post_init__(self):
        if self.var not in self.spec:
            raise DeclarationError(f"recursion variable {self.var!r} not bound by its specification")


ProcTerm = (
    Atom
    | Inaction
    | Empty
    | Alt
    | Seq
    | Par
    | LeftMerge
    | CommMerge
    | Encap
    | Abstr
    | Guard
    | Eval
    | RecVar
    | RecConst
)

DELTA = Inaction()
EPSILON = Empty()

BINARY = (Alt, Seq, Par, LeftMerge, CommMerge)


def alt_fold(parts: list) -> ProcTerm:
    """Right-nested alternative composition; the empty sum is inaction."""
    if not parts:
        return DELTA
    out = parts[-1]
    for p in reversed(parts[:-1]):
        out = Alt(p, out)
    return out


# --- communication function -------------------------------------------------

@frozen_dataclass
class CommFunction:
    """Commutative partial merge of basic-action names; delta where undefined."""

    table: tuple = ()  # tuple of ((a, b), c) with a <= b

    @staticmethod
    def of(entries) -> "CommFunction":
        norm = {}
        for (a, b), c in dict(entries).items():
            key = (a, b) if a <= b else (b, a)
            if key in norm and norm[key] != c:
                raise DeclarationError(f"conflicting communication results for {a}|{b}")
            norm[key] = c
        return CommFunction(tuple(sorted(norm.items())))

    def result(self, a: str, b: str) -> Optional[str]:
        key = (a, b) if a <= b else (b, a)
        for pair, c in self.table:
            if pair == key:
                return c
        return None

    def communicate(self, ax: Action, ay: Action) -> Optional[Action]:
        """The action ax and ay synchronize into, or None. Parameterized
        actions of equal arity communicate by name and keep ax's arguments;
        the caller decides when the two argument lists agree."""
        if isinstance(ax, BasicAction) and isinstance(ay, BasicAction):
            c = self.result(ax.name, ay.name)
            return None if c is None else BasicAction(c)
        if (isinstance(ax, ParamAction) and isinstance(ay, ParamAction)
                and len(ax.args) == len(ay.args)):
            c = self.result(ax.name, ay.name)
            return None if c is None else ParamAction(c, ax.args)
        return None

    def validate(self, actions: Iterable[str]):
        """Reject non-commutative tables (impossible by construction) and
        tables whose delta-extension is not associative on the declared actions."""
        names = sorted(set(actions))
        if len(names) > COMM_BOUND:
            raise DeclarationError(
                f"{len(names)} actions exceed the communication-check bound of {COMM_BOUND}"
            )
        for (a, b), c in self.table:
            if a not in names or b not in names or c not in names:
                raise DeclarationError(f"communication {a}|{b}={c} uses an undeclared action")
        def ext(x, y):
            if x is None or y is None:
                return None
            return self.result(x, y)
        for a, b, c in itertools.product(names, repeat=3):
            if ext(ext(a, b), c) != ext(a, ext(b, c)):
                raise DeclarationError(
                    f"communication table is not associative on ({a}, {b}, {c})"
                )


# --- analysis context ---------------------------------------------------------

@frozen_dataclass
class Context:
    """Everything the semantics needs besides the term itself, and two tables
    of terms. In the first, each term `canonical` was asked for maps to its
    canonical form, and each canonical form, every target of the step rules
    included, maps to itself, the one object that stands for it (`shared`).
    The second maps each recursion constant the step rules reached to its
    canonical unfolding (`unfolded`), so that every explorer under the
    context unfolds a constant once.

    The tables keep every state explored and every constant unfolded under
    the context for as long as the context lives. A caller that analyzes
    many unrelated systems and does not want that can give each one a fresh
    context, `dataclasses.replace(ctx)`, which starts with empty tables."""

    carrier: Carrier = Carrier()
    decl: FlexVarDecl = FlexVarDecl(())
    gamma: CommFunction = CommFunction()
    state_bound: int = DEFAULT_STATE_BOUND

    def __post_init__(self):
        # Beside the fields, like `RecSpec._rhs`: equality, hashing and
        # `dataclasses.replace` stay field-wise, and a replaced context starts empty.
        object.__setattr__(self, "_table", {})
        object.__setattr__(self, "_unfolded", {})


# --- structural predicates ----------------------------------------------------

# Classes of the nodes below which no process term occurs; walks over the
# process structure prune them.
PROCESS_LEAVES = frozenset({Atom, EvalMap, ActionPattern, *Condition.__args__})
_BINDERS_AND_LEAVES = PROCESS_LEAVES | {RecConst}


def children(t: ProcTerm) -> tuple:
    """The process terms directly below t; a carried specification's stay in it."""
    below = []
    map_children(t, lambda c: below.append(c) or c)  # collects, changes nothing
    return tuple(c for c in below if isinstance(c, ProcTerm))


def free_rec_vars(t: ProcTerm) -> frozenset:
    """Recursion variables of t; a carried specification binds every one it uses."""
    return frozenset(u.name for u in subterms(t, _BINDERS_AND_LEAVES) if isinstance(u, RecVar))


def is_closed(t: ProcTerm) -> bool:
    return not free_rec_vars(t)


def contains_tau(t: ProcTerm) -> bool:
    """Whether t can contain a silent step anywhere, conservatively.

    Abstraction nodes count: they may rename actions to the silent step.
    """
    return any(isinstance(u, Abstr) or isinstance(u, Atom) and isinstance(u.action, TauAction)
               for u in subterms(t, PROCESS_LEAVES))


def occurring_actions(t: ProcTerm) -> list:
    """Syntactic atomic-action occurrences, in traversal order, deduplicated."""
    return list(dict.fromkeys(u.action for u in subterms(t, PROCESS_LEAVES)
                              if isinstance(u, Atom) and not isinstance(u.action, TauAction)))


def occurring_flex_vars(t: ProcTerm) -> frozenset:
    """Flexible variables whose ambient value can influence t's behaviour.

    Under an evaluation operator the carried map supplies every value, so
    nothing below one counts. The ambient map only ever evaluates guard
    conditions and the data arguments of synchronization candidates;
    assignment actions are labels, never evaluated by the ambient map.
    """
    return frozenset(u.name for u in subterms(t, (Eval, AssignAction)) if isinstance(u, Flex))


def all_flex_vars(t: ProcTerm) -> frozenset:
    """Flexible variables occurring anywhere in t, evaluation operators included."""
    return frozenset(u.var if isinstance(u, AssignAction) else u.name
                     for u in subterms(t, (EvalMap,)) if isinstance(u, (Flex, AssignAction)))


# --- linear terms and guarded linear recursive specifications -----------------

def _linear_summands(t: ProcTerm) -> Optional[list]:
    """t's guarded summands, left to right, when t is linear; otherwise None."""
    out, stack = [], [t]
    while stack:
        u = stack.pop()
        if isinstance(u, Alt):
            stack += (u.right, u.left)
        elif isinstance(u, Guard):
            body = u.body
            if not isinstance(body, Empty) and not (
                isinstance(body, Seq)
                and isinstance(body.left, Atom)
                and isinstance(body.right, RecVar)
            ):
                return None
            out.append(u)
        elif not isinstance(u, Inaction):
            return None
    return out


def is_linear(t: ProcTerm) -> bool:
    """Membership in the inductively defined set of linear terms."""
    return _linear_summands(t) is not None


def summands(t: ProcTerm) -> list:
    """Flatten a linear term into its guarded summands, left to right."""
    out = _linear_summands(t)
    if out is None:
        raise ShapeError("summands of a non-linear term requested")
    return out


def summand_parts(s: Guard) -> tuple:
    """(condition, action-or-None, target-or-None) of one linear summand."""
    if isinstance(s.body, Empty):
        return (s.cond, None, None)
    return (s.cond, s.body.left.action, s.body.right.name)


def strong_components(order, edges: dict) -> list:
    """The strongly connected components of the graph on the nodes of order,
    where edges.get(n, ()) lists the targets of n's edges. Each component
    lists its nodes in the order of order, and the components come in the
    order of their first nodes."""
    pos = {v: k for k, v in enumerate(order)}
    return sorted((tuple(sorted(comp, key=pos.__getitem__))
                   for comp in components_sinks_first(order, edges)),
                  key=lambda comp: pos[comp[0]])


def components_sinks_first(order, edges: dict):
    """Yield, as lists, the strongly connected components of the graph
    reachable from the nodes of order, where edges.get(n, ()) lists the
    targets of n's edges: Tarjan's algorithm, iterative, so a graph of any
    depth needs no recursion. A component comes after every component its
    edges lead to."""
    index, low, at = {}, {}, {}
    stack, onstack = [], set()

    def visit(v):
        index[v] = low[v] = len(index)
        at[v] = len(stack)
        stack.append(v)
        onstack.add(v)
        return v, iter(edges.get(v, ()))

    for root in order:
        if root in index:
            continue
        work = [visit(root)]
        while work:
            node, it = work[-1]
            for w in it:
                if w not in index:
                    work.append(visit(w))
                    break
                if w in onstack:
                    low[node] = min(low[node], index[w])
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[node])
                if low[node] == index[node]:
                    comp = stack[at[node]:]
                    del stack[at[node]:]
                    onstack.difference_update(comp)
                    yield comp


def is_guarded_linear_spec(spec: RecSpec) -> bool:
    """Linear right-hand sides and no cycle of unguarded (tau-prefixed)
    occurrences. The verdict is kept on the specification object, so no two
    specifications are compared to find it."""
    if spec._guarded_linear is None:
        object.__setattr__(spec, "_guarded_linear", _guarded_linear(spec))
    return spec._guarded_linear


def _guarded_linear(spec: RecSpec) -> bool:
    """One walk over each right-hand side: it is linear, its targets are
    variables of spec, and X -> Y when Y occurs tau-prefixed (hence
    unguarded) in the equation for X. A cycle of such edges is a strongly
    connected component with more than one member, or with a self-loop."""
    edges = {}
    for name, rhs in spec.equations:
        parts = _linear_summands(rhs)
        if parts is None:
            return False
        unguarded = edges[name] = set()
        for s in parts:
            _, alpha, target = summand_parts(s)
            if target is None:
                continue
            if target not in spec:
                return False
            if isinstance(alpha, TauAction):
                unguarded.add(target)
    if not any(edges.values()):
        return True
    return all(len(comp) == 1 and comp[0] not in edges[comp[0]]
               for comp in strong_components(spec.variables, edges))


def require_glrs(spec: RecSpec):
    if not is_guarded_linear_spec(spec):
        raise GuardednessError("recursive specification is not guarded linear")


# --- substitution and canonical form ------------------------------------------

def subst_rec_vars(t: ProcTerm, mapping: dict) -> ProcTerm:
    """Replace free recursion variables; carried specifications bind their own."""
    def subst(u):
        if isinstance(u, RecVar):
            return mapping.get(u.name, u)
        if type(u) in _BINDERS_AND_LEAVES:
            return u
        return map_children(u, subst)
    return subst(t)


def unfold(const: RecConst) -> ProcTerm:
    """Body of the designated equation with variables closed off as constants."""
    spec = const.spec
    rhs = spec.rhs(const.var)
    # Only the variables the equation mentions: each constant checks its
    # variable against the whole specification.
    mapping = {name: RecConst(name, spec) for name in free_rec_vars(rhs) if name in spec}
    return subst_rec_vars(rhs, mapping)


_NO_MAP = EvalMap(())
_ENDED = (Empty, Inaction)
_FOLDABLE_CONDITIONS = frozenset(Condition.__args__) - {CTrue, CFalse}


def simplify(t, carrier: Carrier):
    """t rewritten at its root, for a process term, data term or condition
    whose parts are already canonical.

    Each rewrite is an instance of an axiom or an equation derivable from
    them: the units and zeros of the operators (A6-A9, CM2E, CM5E, CM6E, D0,
    T0, V0, GC1-GC3), and the folding of closed data to literals and of closed
    conditions to truth values. Every rewrite preserves the derivable
    transitions and termination exactly.
    """
    cls = type(t)
    if cls is Seq:
        if type(t.left) is Inaction:
            return DELTA
        if type(t.left) is Empty:
            return t.right
        if type(t.right) is Empty:
            return t.left
    elif cls is Par:
        if type(t.left) is Empty:
            return t.right
        if type(t.right) is Empty:
            return t.left
    elif cls is Alt:
        if type(t.left) is Inaction:
            return t.right
        if type(t.right) is Inaction:
            return t.left
    elif cls is Encap or cls is Abstr or cls is Eval:
        if type(t.body) in _ENDED:
            return t.body
    elif cls is LeftMerge:
        if type(t.left) in _ENDED:
            return DELTA
    elif cls is CommMerge:
        if type(t.left) in _ENDED or type(t.right) in _ENDED:
            return DELTA
    elif cls is Guard:
        if type(t.cond) is CTrue:
            return t.body
        if type(t.cond) is CFalse or type(t.body) is Inaction:
            return DELTA
    elif cls is Lit:
        value = carrier.clamp(t.value)
        if value != t.value:
            return Lit(value)
    elif cls is App:
        if all(type(a) is Lit for a in t.args):
            return Lit(eval_data(t, _NO_MAP, carrier))
    elif cls in _FOLDABLE_CONDITIONS:
        if not flex_vars(t) and not cond_free_dvars(t):
            return TRUE if eval_cond(t, _NO_MAP, carrier) else FALSE
    return t


def shared(t, ctx: Context):
    """The one object in the context's table that stands for the canonical
    form `t`: an equal form already there, or `t` itself, entered now."""
    return ctx._table.setdefault(t, t)


def canonical(t, ctx: Context):
    """Canonical state form: `simplify` applied bottom-up to every node,
    memoized in the context's table.

    Exploration over canonical forms yields the same transition system with
    finitely many states for guarded linear recursion. Carried specifications
    are left untouched; they are only unfolded on demand.
    """
    table, carrier = ctx._table, ctx.carrier

    def walk(u):
        hit = table.get(u)
        if hit is None:
            hit = u if type(u) is RecConst else simplify(map_children(u, walk), carrier)
            hit = table[u] = shared(hit, ctx)
        return hit
    return walk(t)


def unfolded(const: RecConst, ctx: Context) -> ProcTerm:
    """Canonical unfolding of a guarded linear constant, kept in the
    context's table of unfoldings: like a canonical form, it depends on the
    term and the context alone. Raises GuardednessError for a constant of
    any other specification."""
    hit = ctx._unfolded.get(const)
    if hit is None:
        require_glrs(const.spec)
        hit = ctx._unfolded[const] = canonical(unfold(const), ctx)
    return hit
