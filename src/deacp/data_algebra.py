"""Finite data algebra: integer carrier, data terms, evaluation maps.

The carrier is a bounded integer interval; arithmetic saturates at the
bounds so every operation stays inside the carrier and every value is
denoted by a literal.
"""

from __future__ import annotations

import itertools
from dataclasses import MISSING, Field, FrozenInstanceError, dataclass, fields
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

ENUM_BOUND = 1_000_000  # the most maps, valuations or map pairs one enumeration visits


# Annotations of the fields that hold no subterms.
_SCALARS = {"str", "int", "bool", "Optional[str]", "Optional[int]"}

# For each record class (see `frozen_dataclass`), its fields in order, each
# with whether it can hold subterms: nodes of other record classes, or tuples
# of them, however nested.
_FIELDS: dict = {}
# The subterm fields alone, last first, as the walk's stack wants them.
_SUBTERM_FIELDS: dict = {}


def _refuse_set(self, name, value):
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _refuse_delete(self, name):
    raise FrozenInstanceError(f"cannot delete field {name!r}")


def frozen_dataclass(cls):
    """An immutable record: `dataclass(frozen=True)` with the same `__init__`,
    `repr`, field-wise `==` and `hash(tuple(field values))`, but the hash is
    computed once per object and stored.

    Terms are immutable and nested, and exploration uses them as cache keys
    over and over; a generated hash would rehash every subterm on each
    lookup. The stored value is the generated one, so set and dict iteration
    orders do not change.

    `dataclass` supplies the field metadata only, so `dataclasses.fields`,
    `replace` and `is_dataclass` work, and the methods come from one compiled
    block per class: `dataclass` compiles each method apart, which took a
    third of the package's import time. A field takes a plain default or
    none; `field()` is refused.

    The decorator also records which fields hold subterms, the one place
    `subterms` and `map_children` learn the shape of each operator from.
    """
    if any(isinstance(v, Field) for v in vars(cls).values()):
        raise TypeError(f"{cls.__name__}: a record field takes a plain default, not field()")
    doc = cls.__doc__
    cls.__doc__ = doc or cls.__name__  # a docstring spares dataclass an inspect.signature call
    cls = dataclass(init=False, repr=False, eq=False)(cls)
    cls.__doc__ = doc
    fs = fields(cls)
    names = [f.name for f in fs]
    defaults = tuple(f.default for f in fs if f.default is not MISSING)
    if any(f.default is MISSING for f in fs[len(fs) - len(defaults):]):
        raise TypeError(f"{cls.__name__}: a field without a default follows one with a default")
    mine = "".join(f"self.{n}, " for n in names)  # in parentheses, a tuple of any length
    theirs = "".join(f"other.{n}, " for n in names)
    source = "\n".join([
        f"def __init__({', '.join(['self', *names])}):",
        *[f"    _setattr(self, {n!r}, {n})" for n in names],
        "    self.__post_init__()" if hasattr(cls, "__post_init__") else "    pass",
        "def __repr__(self):",
        "    return f'{self.__class__.__qualname__}("
        + ", ".join(f"{n}={{self.{n}!r}}" for n in names) + ")'",
        "def __eq__(self, other):",
        "    if other.__class__ is self.__class__:",
        f"        return ({mine}) == ({theirs})",
        "    return NotImplemented",
        "def __hash__(self):",
        "    h = self._hash",
        "    if h is None:",
        f"        h = hash(({mine}))",
        "        _setattr(self, '_hash', h)",
        "    return h",
    ])
    namespace = {"_setattr": object.__setattr__}
    exec(source, namespace)
    for name in ("__init__", "__repr__", "__eq__", "__hash__"):
        method = namespace[name]
        method.__qualname__ = f"{cls.__qualname__}.{name}"
        setattr(cls, name, method)
    cls.__init__.__defaults__ = defaults or None
    cls.__init__.__annotations__ = {f.name: f.type for f in fs} | {"return": None}
    cls.__setattr__ = _refuse_set
    cls.__delattr__ = _refuse_delete
    cls._hash = None  # until the first call stores the object's own hash
    _FIELDS[cls] = tuple((f.name, f.type not in _SCALARS) for f in fs)
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


def enumerate_maps(names, carrier: Carrier) -> list:
    """Every total map over the sequence of variable names, lexicographic in
    (name order, value order)."""
    names = tuple(names)
    count = map_count(len(names), carrier)
    if count > ENUM_BOUND:
        raise EnumerationLimitError(count, ENUM_BOUND)
    out = []
    for combo in itertools.product(carrier.values(), repeat=len(names)):
        out.append(EvalMap(tuple(sorted(zip(names, combo)))))
    return out
