"""First-order conditions over the data carrier, decided by enumeration."""

from __future__ import annotations

import itertools
import operator
from functools import reduce
from typing import Mapping, Optional

from .data_algebra import (
    DEFAULT_ENUM_BOUND,
    Carrier,
    DataTerm,
    DVar,
    EvalMap,
    Flex,
    Lit,
    FlexVarDecl,
    eval_data,
    flex_vars,
    frozen_dataclass,
    map_children,
    map_count,
    subterms,
)
from .errors import DeclarationError, EnumerationLimitError


@frozen_dataclass
class CTrue:
    pass


@frozen_dataclass
class CFalse:
    pass


@frozen_dataclass
class Cmp:
    op: str  # = != < <= > >=
    left: DataTerm
    right: DataTerm

    def __post_init__(self):
        if self.op not in CMP_OPS:
            raise DeclarationError(f"unknown comparison {self.op!r}")


@frozen_dataclass
class Not:
    body: "Condition"


@frozen_dataclass
class And:
    left: "Condition"
    right: "Condition"


@frozen_dataclass
class Or:
    left: "Condition"
    right: "Condition"


@frozen_dataclass
class Implies:
    left: "Condition"
    right: "Condition"


@frozen_dataclass
class Forall:
    var: str
    body: "Condition"


@frozen_dataclass
class Exists:
    var: str
    body: "Condition"


Condition = CTrue | CFalse | Cmp | Not | And | Or | Implies | Forall | Exists

TRUE = CTrue()
FALSE = CFalse()

CMP_OPS = {
    "=": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


def cond_free_dvars(phi: Condition) -> frozenset:
    """Data variables not bound by any enclosing quantifier."""
    if isinstance(phi, (CTrue, CFalse)):
        return frozenset()
    if isinstance(phi, Cmp):
        return frozenset(e.name for e in subterms(phi) if type(e) is DVar)
    if isinstance(phi, Not):
        return cond_free_dvars(phi.body)
    if isinstance(phi, (And, Or, Implies)):
        return cond_free_dvars(phi.left) | cond_free_dvars(phi.right)
    if isinstance(phi, (Forall, Exists)):
        return cond_free_dvars(phi.body) - frozenset((phi.var,))
    raise TypeError(f"not a condition: {phi!r}")


def eval_cond(
    phi: Condition,
    sigma: EvalMap,
    carrier: Carrier,
    bindings: Optional[Mapping[str, int]] = None,
) -> bool:
    """Classical truth value of phi under sigma; quantifiers range over the carrier."""
    cls = type(phi)
    if cls is Cmp:
        return CMP_OPS[phi.op](eval_data(phi.left, sigma, carrier, bindings),
                               eval_data(phi.right, sigma, carrier, bindings))
    if cls is And:
        return (eval_cond(phi.left, sigma, carrier, bindings)
                and eval_cond(phi.right, sigma, carrier, bindings))
    if cls is Not:
        return not eval_cond(phi.body, sigma, carrier, bindings)
    if cls is CTrue:
        return True
    if cls is CFalse:
        return False
    if cls is Or:
        return (eval_cond(phi.left, sigma, carrier, bindings)
                or eval_cond(phi.right, sigma, carrier, bindings))
    if cls is Implies:
        return (not eval_cond(phi.left, sigma, carrier, bindings)
                or eval_cond(phi.right, sigma, carrier, bindings))
    if cls is Forall or cls is Exists:
        # The body is evaluated at every value, so an error it raises at any
        # value surfaces whatever the others give.
        inner = dict(bindings) if bindings else {}
        results = []
        for value in carrier.values():
            inner[phi.var] = value
            results.append(eval_cond(phi.body, sigma, carrier, inner))
        return all(results) if cls is Forall else any(results)
    raise TypeError(f"not a condition: {phi!r}")


def args_equal(args1, args2) -> Condition:
    """The pairwise equality of two argument lists, conjoined from the left;
    true when there are none."""
    eqs = [Cmp("=", e1, e2) for e1, e2 in zip(args1, args2)]
    return reduce(And, eqs) if eqs else TRUE


def subst_map(x, sigma: EvalMap):
    """sigma applied to a data term or condition: flexible variables become
    literals; bound data variables are untouched."""
    def subst(y):
        if isinstance(y, Flex):
            return Lit(sigma.value(y.name))
        return map_children(y, subst)
    return subst(x)


def _declared_flex_vars(phi: Condition, decl: FlexVarDecl) -> frozenset:
    """The flexible variables of phi, every one of which decl must declare."""
    names = flex_vars(phi)
    undeclared = [v for v in sorted(names) if v not in decl]
    if undeclared:
        raise DeclarationError(f"undeclared flexible variable {undeclared[0]!r} in condition")
    return names


def values(x, names, carrier: Carrier, bound: int, what: str = "evaluation maps"):
    """The value of the condition or data term x under each map over the
    sorted `names`, the maps in lexicographic order. Raises
    EnumerationLimitError, before yielding anything, when there are more than
    `bound` maps; `what` names them in the message."""
    names = tuple(sorted(names))
    count = map_count(len(names), carrier)
    if count > bound:
        raise EnumerationLimitError(count, bound, what)
    evaluate = eval_cond if isinstance(x, Condition) else eval_data
    for combo in itertools.product(carrier.values(), repeat=len(names)):
        yield evaluate(x, EvalMap(tuple(zip(names, combo))), carrier)


def valid_iff(
    phi: Condition,
    psi: Condition,
    decl: FlexVarDecl,
    carrier: Carrier,
    bound: int = DEFAULT_ENUM_BOUND,
) -> bool:
    """True iff phi and psi agree under every evaluation map over decl.

    Only the flexible variables occurring in either condition can influence
    the outcome, so enumeration is restricted to those.
    """
    occ = _declared_flex_vars(phi, decl) | _declared_flex_vars(psi, decl)
    return all(map(operator.eq, values(phi, occ, carrier, bound),
                   values(psi, occ, carrier, bound)))


def constant_value(
    phi: Condition,
    decl: FlexVarDecl,
    carrier: Carrier,
    bound: int = DEFAULT_ENUM_BOUND,
) -> Optional[bool]:
    """phi's truth value when every evaluation map over decl gives it the
    same one, else None."""
    table = values(phi, _declared_flex_vars(phi, decl), carrier, bound)
    first = next(table)
    return first if all(truth == first for truth in table) else None


def satisfiable(
    phi: Condition,
    decl: FlexVarDecl,
    carrier: Carrier,
    bound: int = DEFAULT_ENUM_BOUND,
) -> bool:
    return any(values(phi, _declared_flex_vars(phi, decl), carrier, bound))


def signature(x, carrier: Carrier, bound: int = DEFAULT_ENUM_BOUND) -> tuple:
    """Context-free semantic key of a condition or data term: (the variables
    its value depends on, its value table over them).

    Two conditions, or two data terms, denote the same function over every
    declaration iff their signatures are equal. Each variable along which
    the table is constant is dropped, keeping the slice at its least value.
    """
    names = sorted(flex_vars(x))
    what = "condition valuations" if isinstance(x, Condition) else "evaluation maps"
    table = list(values(x, names, carrier, bound, what))
    n = carrier.size
    kept = []
    for i, name in enumerate(names):
        stride = n ** (len(names) - 1 - i)
        rows = [table[b:b + stride] for b in range(0, len(table), stride)]
        firsts = rows[::n]
        if rows == [row for row in firsts for _ in range(n)]:
            table = [v for row in firsts for v in row]
        else:
            kept.append(name)
    return tuple(kept), tuple(table)
