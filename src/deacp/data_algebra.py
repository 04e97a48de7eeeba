"""Finite data algebra: integer carrier, data terms, evaluation maps.

The carrier is a bounded integer interval; arithmetic saturates at the
bounds so every operation stays inside the carrier and every value is
denoted by a literal.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, fields
from operator import add, is_, mul, sub
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


# Annotations of the fields that hold no subterms.
_SCALARS = {"str", "int", "bool", "Optional[str]", "Optional[int]"}

# For each frozen dataclass, its fields in order, each with whether it can
# hold subterms: nodes of other frozen dataclasses, or tuples of them,
# however nested.
_FIELDS: dict = {}
# The subterm fields alone, last first, as the walk's stack wants them.
_SUBTERM_FIELDS: dict = {}


def frozen_dataclass(cls):
    """`dataclass(frozen=True)` whose hash is computed once per object.

    Terms are immutable and nested, and exploration uses them as cache keys
    over and over; the generated hash would rehash every subterm on each
    lookup. The stored value is the generated one, hash(tuple(field
    values)), so set and dict iteration orders do not change.

    The decorator also records which fields hold subterms, the one place
    `subterms` and `map_children` learn the shape of each operator from.
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
    _FIELDS[cls] = tuple((f.name, f.type not in _SCALARS) for f in fields(cls))
    _SUBTERM_FIELDS[cls] = tuple(name for name, sub in reversed(_FIELDS[cls]) if sub)
    return cls


def subterms(x, prune=()):
    """Every node in x, x first, in pre-order from left to right.

    Walks subterm fields and tuples with an explicit stack, so depth costs no
    recursion. A node whose class is one of `prune` is yielded but not
    entered.
    """
    skip = frozenset(prune)
    stack = [x]
    pop, push = stack.pop, stack.append
    fields_of = _SUBTERM_FIELDS.get
    while stack:
        y = pop()
        cls = type(y)
        names = fields_of(cls)
        if names is None:
            if cls is tuple:
                stack.extend(reversed(y))
            continue  # otherwise a scalar inside a tuple
        yield y
        if names and cls not in skip:
            for name in names:
                push(getattr(y, name))


def _map_value(v, f):
    """f applied to a node, or to each node inside a tuple; scalars stay."""
    if type(v) is tuple:
        new = tuple([_map_value(e, f) for e in v])
        return v if all(map(is_, new, v)) else new
    return f(v) if type(v) in _FIELDS else v


def map_children(x, f):
    """x rebuilt with f applied to each node directly below it, inside tuples
    too; x itself when f returns every node unchanged, so stored hashes and
    object identity survive."""
    if not _SUBTERM_FIELDS[type(x)]:
        return x
    changed = False
    values = []
    for name, holds_subterms in _FIELDS[type(x)]:
        v = getattr(x, name)
        if holds_subterms:
            new = _map_value(v, f) if type(v) is tuple else f(v)
            if new is not v:
                changed = True
                v = new
        values.append(v)
    return type(x)(*values) if changed else x


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
    "+": add,
    "-": sub,
    "*": mul,
}


def flex_vars(x) -> frozenset:
    """Flexible variables occurring in a data term, a condition or an action."""
    return frozenset(y.name for y in subterms(x) if type(y) is Flex)


def eval_data(
    e: DataTerm,
    sigma: "EvalMap",
    carrier: Carrier,
    bindings: Optional[Mapping[str, int]] = None,
) -> int:
    """Value of e under sigma, with each operator saturating at the bounds."""
    cls = type(e)
    if cls is Flex:
        return sigma.value(e.name)
    if cls is Lit:
        value = e.value
    elif cls is App:
        left, right = e.args
        value = OPS[e.op](eval_data(left, sigma, carrier, bindings),
                          eval_data(right, sigma, carrier, bindings))
    elif cls is DVar:
        if bindings is not None and e.name in bindings:
            return bindings[e.name]
        raise MalformedConditionError(f"free data variable {e.name!r}")
    else:
        raise TypeError(f"not a data term: {e!r}")
    lo, hi = carrier.lo, carrier.hi
    return lo if value < lo else hi if value > hi else value


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

    def as_dict(self) -> dict:
        return dict(self.entries)

    def updated(self, var: str, value: int) -> "EvalMap":
        """The map with var's entry replaced; the entries stay sorted."""
        entries = self.entries
        for i, (name, _) in enumerate(entries):
            if name == var:
                return EvalMap(entries[:i] + ((var, value),) + entries[i + 1:])
        raise DeclarationError(f"flexible variable {var!r} not declared")


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
