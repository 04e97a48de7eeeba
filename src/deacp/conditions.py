"""First-order conditions over the data carrier, decided by enumeration."""

from __future__ import annotations

import itertools
from typing import Mapping, Optional

from .data_algebra import (
    DEFAULT_ENUM_BOUND,
    Carrier,
    DataTerm,
    DVar,
    EvalMap,
    Flex,
    App,
    Lit,
    FlexVarDecl,
    data_flex_vars,
    eval_data,
    map_count,
    frozen_dataclass,
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


def cond_flex_vars(phi: Condition) -> frozenset:
    if isinstance(phi, (CTrue, CFalse)):
        return frozenset()
    if isinstance(phi, Cmp):
        return data_flex_vars(phi.left) | data_flex_vars(phi.right)
    if isinstance(phi, Not):
        return cond_flex_vars(phi.body)
    if isinstance(phi, (And, Or, Implies)):
        return cond_flex_vars(phi.left) | cond_flex_vars(phi.right)
    if isinstance(phi, (Forall, Exists)):
        return cond_flex_vars(phi.body)
    raise TypeError(f"not a condition: {phi!r}")


def _data_dvars(e: DataTerm) -> frozenset:
    if isinstance(e, DVar):
        return frozenset((e.name,))
    if isinstance(e, App):
        out = frozenset()
        for a in e.args:
            out |= _data_dvars(a)
        return out
    return frozenset()


def cond_free_dvars(phi: Condition) -> frozenset:
    """Data variables not bound by any enclosing quantifier."""
    if isinstance(phi, (CTrue, CFalse)):
        return frozenset()
    if isinstance(phi, Cmp):
        return _data_dvars(phi.left) | _data_dvars(phi.right)
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


def subst_map_data(e: DataTerm, sigma: EvalMap) -> DataTerm:
    """sigma applied to a data term: flexible variables become literals."""
    if isinstance(e, Flex):
        return Lit(sigma.value(e.name))
    if isinstance(e, App):
        return App(e.op, tuple(subst_map_data(a, sigma) for a in e.args))
    return e


def subst_map_cond(phi: Condition, sigma: EvalMap) -> Condition:
    """sigma applied to a condition; bound data variables are untouched."""
    if isinstance(phi, (CTrue, CFalse)):
        return phi
    if isinstance(phi, Cmp):
        return Cmp(phi.op, subst_map_data(phi.left, sigma), subst_map_data(phi.right, sigma))
    if isinstance(phi, Not):
        return Not(subst_map_cond(phi.body, sigma))
    if isinstance(phi, And):
        return And(subst_map_cond(phi.left, sigma), subst_map_cond(phi.right, sigma))
    if isinstance(phi, Or):
        return Or(subst_map_cond(phi.left, sigma), subst_map_cond(phi.right, sigma))
    if isinstance(phi, Implies):
        return Implies(subst_map_cond(phi.left, sigma), subst_map_cond(phi.right, sigma))
    if isinstance(phi, Forall):
        return Forall(phi.var, subst_map_cond(phi.body, sigma))
    if isinstance(phi, Exists):
        return Exists(phi.var, subst_map_cond(phi.body, sigma))
    raise TypeError(f"not a condition: {phi!r}")


def _check_declared(phi: Condition, decl: FlexVarDecl):
    undeclared = [v for v in sorted(cond_flex_vars(phi)) if v not in decl]
    if undeclared:
        raise DeclarationError(f"undeclared flexible variable {undeclared[0]!r} in condition")


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
    _check_declared(phi, decl)
    _check_declared(psi, decl)
    occ = cond_flex_vars(phi) | cond_flex_vars(psi)
    for sigma in _occurring_maps(occ, carrier, bound):
        if eval_cond(phi, sigma, carrier) != eval_cond(psi, sigma, carrier):
            return False
    return True


def satisfiable(
    phi: Condition,
    decl: FlexVarDecl,
    carrier: Carrier,
    bound: int = DEFAULT_ENUM_BOUND,
) -> bool:
    _check_declared(phi, decl)
    for sigma in _occurring_maps(cond_flex_vars(phi), carrier, bound):
        if eval_cond(phi, sigma, carrier):
            return True
    return False


def cond_signature(phi: Condition, carrier: Carrier, bound: int = DEFAULT_ENUM_BOUND):
    """Context-free semantic key: (influential variables, truth table).

    Two conditions denote the same predicate over every declaration iff their
    signatures are equal. Variables that never change the outcome are dropped.
    """
    names = sorted(cond_flex_vars(phi))
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
