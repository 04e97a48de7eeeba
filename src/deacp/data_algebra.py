"""Finite data algebra: integer carrier, data terms, evaluation maps.

The carrier is a bounded integer interval; arithmetic saturates at the
bounds so every operation stays inside the carrier and every value is
denoted by a literal.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Mapping, Optional

from .errors import (
    ArityError,
    DeclarationError,
    EnumerationLimitError,
    MalformedConditionError,
)

DEFAULT_LO = -16
DEFAULT_HI = 15

DEFAULT_ENUM_BOUND = 1_000_000


def frozen_dataclass(cls):
    """`dataclass(frozen=True)` whose hash is computed once per object.

    Terms are immutable and nested, and exploration uses them as cache keys
    over and over; the generated hash would rehash every subterm on each
    lookup. The stored value is the generated one, hash(tuple(field
    values)), so set and dict iteration orders do not change.
    """
    cls = dataclass(frozen=True)(cls)
    generated = cls.__hash__

    def __hash__(self):
        h = self._hash
        if h is None:
            h = generated(self)
            object.__setattr__(self, "_hash", h)
        return h

    cls._hash = None  # until the first call stores the object's own hash
    cls.__hash__ = __hash__
    return cls


@frozen_dataclass
class Carrier:
    """Integer interval [lo, hi] with saturating arithmetic."""

    lo: int = DEFAULT_LO
    hi: int = DEFAULT_HI

    def __post_init__(self):
        if self.lo > self.hi:
            raise DeclarationError(f"empty carrier [{self.lo}, {self.hi}]")

    def __contains__(self, value: int) -> bool:
        return self.lo <= value <= self.hi

    @property
    def size(self) -> int:
        return self.hi - self.lo + 1

    def clamp(self, value: int) -> int:
        if value < self.lo:
            return self.lo
        if value > self.hi:
            return self.hi
        return value

    def values(self) -> range:
        return range(self.lo, self.hi + 1)


# --- data terms -------------------------------------------------------------

@frozen_dataclass
class Lit:
    value: int


@frozen_dataclass
class Flex:
    """A flexible-variable constant (a program variable)."""

    name: str


@frozen_dataclass
class DVar:
    """A data variable; only legal under a quantifier."""

    name: str


@frozen_dataclass
class App:
    op: str  # one of + - *
    args: tuple

    def __post_init__(self):
        if self.op not in OPS:
            raise DeclarationError(f"unknown data operator {self.op!r}")
        if len(self.args) != 2:
            raise ArityError(f"operator {self.op!r} expects 2 arguments")


DataTerm = Lit | Flex | DVar | App

OPS = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
}


def data_flex_vars(e: DataTerm) -> frozenset:
    if isinstance(e, Flex):
        return frozenset((e.name,))
    if isinstance(e, App):
        out = frozenset()
        for a in e.args:
            out |= data_flex_vars(a)
        return out
    return frozenset()


def eval_data(
    e: DataTerm,
    sigma: "EvalMap",
    carrier: Carrier,
    bindings: Optional[Mapping[str, int]] = None,
) -> int:
    """Value of e under sigma, with each operator saturating at the bounds."""
    if isinstance(e, Lit):
        return carrier.clamp(e.value)
    if isinstance(e, Flex):
        return sigma.value(e.name)
    if isinstance(e, DVar):
        if bindings is not None and e.name in bindings:
            return bindings[e.name]
        raise MalformedConditionError(f"free data variable {e.name!r}")
    if isinstance(e, App):
        left = eval_data(e.args[0], sigma, carrier, bindings)
        right = eval_data(e.args[1], sigma, carrier, bindings)
        return carrier.clamp(OPS[e.op](left, right))
    raise TypeError(f"not a data term: {e!r}")


# --- evaluation maps --------------------------------------------------------

@frozen_dataclass
class EvalMap:
    """Total finite mapping from declared flexible variables to carrier values."""

    entries: tuple  # sorted tuple of (name, value)

    @staticmethod
    def of(mapping: Mapping[str, int]) -> "EvalMap":
        return EvalMap(tuple(sorted(mapping.items())))

    def value(self, var: str) -> int:
        for name, val in self.entries:
            if name == var:
                return val
        raise DeclarationError(f"flexible variable {var!r} not declared")

    def __contains__(self, var: str) -> bool:
        return any(name == var for name, _ in self.entries)

    def as_dict(self) -> dict:
        return dict(self.entries)

    def updated(self, var: str, value: int) -> "EvalMap":
        if var not in self:
            raise DeclarationError(f"flexible variable {var!r} not declared")
        return EvalMap(tuple(sorted({**self.as_dict(), var: value}.items())))

    def restrict(self, names) -> "EvalMap":
        keep = set(names)
        return EvalMap(tuple((n, v) for n, v in self.entries if n in keep))


def update_map(sigma: EvalMap, var: str, value: int) -> EvalMap:
    return sigma.updated(var, value)


@frozen_dataclass
class FlexVarDecl:
    """Ordered declaration of the flexible variables of a specification."""

    names: tuple

    def __post_init__(self):
        if len(set(self.names)) != len(self.names):
            raise DeclarationError("duplicate flexible-variable declaration")

    def __contains__(self, name: str) -> bool:
        return name in self.names

    def __iter__(self) -> Iterator[str]:
        return iter(self.names)

    def __len__(self) -> int:
        return len(self.names)


def map_count(decl_size: int, carrier: Carrier) -> int:
    return carrier.size ** decl_size


def enumerate_maps(
    decl: FlexVarDecl,
    carrier: Carrier,
    bound: int = DEFAULT_ENUM_BOUND,
) -> list:
    """Every total map over decl, lexicographic in (variable order, value order)."""
    count = map_count(len(decl), carrier)
    if count > bound:
        raise EnumerationLimitError(count, bound)
    names = tuple(decl)
    out = []
    for combo in itertools.product(carrier.values(), repeat=len(names)):
        out.append(EvalMap(tuple(sorted(zip(names, combo)))))
    return out
