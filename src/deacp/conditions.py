"""First-order conditions over the data carrier, decided by enumeration."""

from __future__ import annotations

import itertools
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
    "=": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
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
    if isinstance(phi, CTrue):
        return True
    if isinstance(phi, CFalse):
        return False
    if isinstance(phi, Cmp):
        return CMP_OPS[phi.op](
            eval_data(phi.left, sigma, carrier, bindings),
            eval_data(phi.right, sigma, carrier, bindings),
        )
    if isinstance(phi, Not):
        return not eval_cond(phi.body, sigma, carrier, bindings)
    if isinstance(phi, And):
        return eval_cond(phi.left, sigma, carrier, bindings) and eval_cond(
            phi.right, sigma, carrier, bindings
        )
    if isinstance(phi, Or):
        return eval_cond(phi.left, sigma, carrier, bindings) or eval_cond(
            phi.right, sigma, carrier, bindings
        )
    if isinstance(phi, Implies):
        return (not eval_cond(phi.left, sigma, carrier, bindings)) or eval_cond(
            phi.right, sigma, carrier, bindings
        )
    if isinstance(phi, (Forall, Exists)):
        inner = dict(bindings) if bindings else {}
        results = []
        for value in carrier.values():
            inner[phi.var] = value
            results.append(eval_cond(phi.body, sigma, carrier, inner))
        return all(results) if isinstance(phi, Forall) else any(results)
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


def _occurring_maps(vars_needed, carrier: Carrier, bound: int):
    names = tuple(sorted(vars_needed))
    count = map_count(len(names), carrier)
    if count > bound:
        raise EnumerationLimitError(count, bound)
    for combo in itertools.product(carrier.values(), repeat=len(names)):
        yield EvalMap(tuple(zip(names, combo)))


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
    for sigma in _occurring_maps(occ, carrier, bound):
        if eval_cond(phi, sigma, carrier) != eval_cond(psi, sigma, carrier):
            return False
    return True


def constant_value(
    phi: Condition,
    decl: FlexVarDecl,
    carrier: Carrier,
    bound: int = DEFAULT_ENUM_BOUND,
) -> Optional[bool]:
    """phi's truth value when every evaluation map over decl gives it the
    same one, else None."""
    value = None
    for sigma in _occurring_maps(_declared_flex_vars(phi, decl), carrier, bound):
        truth = eval_cond(phi, sigma, carrier)
        if value is None:
            value = truth
        elif truth != value:
            return None
    return value


def satisfiable(
    phi: Condition,
    decl: FlexVarDecl,
    carrier: Carrier,
    bound: int = DEFAULT_ENUM_BOUND,
) -> bool:
    for sigma in _occurring_maps(_declared_flex_vars(phi, decl), carrier, bound):
        if eval_cond(phi, sigma, carrier):
            return True
    return False


def cond_signature(phi: Condition, carrier: Carrier, bound: int = DEFAULT_ENUM_BOUND):
    """Context-free semantic key: (influential variables, truth table).

    Two conditions denote the same predicate over every declaration iff their
    signatures are equal. Variables that never change the outcome are dropped.
    """
    names = sorted(flex_vars(phi))
    count = map_count(len(names), carrier)
    if count > bound:
        raise EnumerationLimitError(count, bound, "condition valuations")
    values = list(carrier.values())
    table = {}
    for combo in itertools.product(values, repeat=len(names)):
        sigma = EvalMap(tuple(zip(names, combo)))
        table[combo] = eval_cond(phi, sigma, carrier)
    # Drop variables whose value never matters.
    influential = list(names)
    idx = 0
    while idx < len(influential):
        pos = names.index(influential[idx])
        matters = False
        for combo, result in table.items():
            for alt in values:
                if alt == combo[pos]:
                    continue
                other = combo[:pos] + (alt,) + combo[pos + 1 :]
                if table[other] != result:
                    matters = True
                    break
            if matters:
                break
        if matters:
            idx += 1
        else:
            influential.pop(idx)
    positions = [names.index(v) for v in influential]
    reduced = {}
    for combo, result in table.items():
        key = tuple(combo[p] for p in positions)
        reduced[key] = result
    bits = tuple(reduced[k] for k in sorted(reduced))
    return tuple(influential), bits
