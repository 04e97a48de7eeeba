"""The equational axiom schemas: patterns, matching, instantiation.

Used three ways: random closed instances feed the soundness suite, the
rewrite engine builds provably-equal term pairs, and the prover recognizes
single-axiom steps when assembling certificates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from . import terms as T
from .bisim import actions_equivalent
from .conditions import (
    And, CFalse, Condition, Or, TRUE, args_equal, constant_value, subst_map, valid_iff,
)
from .data_algebra import EvalMap, frozen_dataclass, map_children
from .errors import DeacpError

ALL_ACTIONS = (T.ActionPattern("all"),)


@frozen_dataclass
class MetaVar:
    name: str
    kind: str  # proc | atom_td | atom_t | basic | cond | emap | patset


def _kind_ok(kind: str, value) -> bool:
    if kind == "proc":
        return isinstance(value, T.ProcTerm)
    if kind == "atom_td":
        return isinstance(value, (T.Atom, T.Inaction))
    if kind == "atom_t":
        return isinstance(value, T.Atom)
    if kind == "basic":
        return isinstance(value, T.Atom) and isinstance(value.action, T.BasicAction)
    if kind == "cond":
        return isinstance(value, Condition)
    if kind == "emap":
        return isinstance(value, EvalMap)
    if kind == "patset":
        return isinstance(value, tuple)
    raise DeacpError(f"unknown metavariable kind {kind!r}")


def match(pattern, value, binding: Optional[dict] = None) -> Optional[dict]:
    """Structural match of a pattern with metavariables against a term.

    The two are compared field by field; scalars and metavariable-free parts
    must be equal.
    """
    if binding is None:
        binding = {}
    if isinstance(pattern, MetaVar):
        if not _kind_ok(pattern.kind, value):
            return None
        if pattern.name in binding:
            return binding if binding[pattern.name] == value else None
        binding[pattern.name] = value
        return binding
    if type(pattern) is not type(value):
        return None
    if type(pattern) is tuple:
        if len(pattern) != len(value):
            return None
        for p, v in zip(pattern, value):
            if match(p, v, binding) is None:
                return None
        return binding
    names = getattr(pattern, "__dataclass_fields__", None)
    if names is None:
        return binding if pattern == value else None
    for name in names:
        if match(getattr(pattern, name), getattr(value, name), binding) is None:
            return None
    return binding


def instantiate(pattern, binding: dict):
    def fill(p):
        if isinstance(p, MetaVar):
            return binding[p.name]
        return map_children(p, fill)
    return fill(pattern)


@dataclass
class Axiom:
    """One axiom schema. Either both sides are patterns, or the left side is a
    pattern and the right side is computed from the binding, or matching is
    fully custom (recognize)."""

    name: str
    lhs: object = None
    rhs: object = None
    side: Optional[Callable] = None  # side(binding, ctx) -> bool
    build_rhs: Optional[Callable] = None  # build(binding, ctx) -> term
    recognize: Optional[Callable] = None  # recognize(t1, t2, ctx) -> bool
    tau_free_only: bool = False  # restrict random instances to silent-step-free fills

    def forward(self, term, ctx) -> Optional[object]:
        """Rewrite term by one left-to-right application at the root."""
        if self.lhs is None:
            return None
        binding = match(self.lhs, term)
        if binding is None:
            return None
        if self.side is not None and not self.side(binding, ctx):
            return None
        if self.build_rhs is not None:
            return self.build_rhs(binding, ctx)
        return instantiate(self.rhs, binding)

    def backward(self, term, ctx) -> Optional[object]:
        """Rewrite term by one right-to-left application at the root."""
        if self.rhs is None or self.lhs is None:
            return None
        binding = match(self.rhs, term)
        if binding is None:
            return None
        if self.side is not None and not self.side(binding, ctx):
            return None
        return instantiate(self.lhs, binding)

    def relates(self, t1, t2, ctx) -> bool:
        """Whether t1 = t2 is an instance of this axiom, in either direction."""
        if self.recognize is not None:
            return self.recognize(t1, t2, ctx) or self.recognize(t2, t1, ctx)
        out = self.forward(t1, ctx)
        if out is not None and out == t2:
            return True
        out = self.forward(t2, ctx)
        return out is not None and out == t1


def _mv(name, kind):
    return MetaVar(name, kind)


X, Y, Z = _mv("x", "proc"), _mv("y", "proc"), _mv("z", "proc")
ALPHA = _mv("alpha", "atom_td")
A_BASIC, B_BASIC = _mv("a", "basic"), _mv("b", "basic")
PHI, PSI = _mv("phi", "cond"), _mv("psi", "cond")
HSET = _mv("H", "patset")
SIGMA = _mv("sigma", "emap")


def _gamma_of(binding, ctx):
    a = binding["a"].action.name
    b = binding["b"].action.name
    return ctx.gamma.result(a, b)


def _cm7_rhs(binding, ctx):
    c = _gamma_of(binding, ctx)
    base = T.Atom(T.BasicAction(c)) if c is not None else T.DELTA
    return T.Seq(base, T.Par(binding["x"], binding["y"]))


def _action_of(term):
    return term.action if isinstance(term, T.Atom) else None


def _recognize_imp1(t1, t2, ctx) -> bool:
    a1, a2 = _action_of(t1), _action_of(t2)
    if a1 is None or a2 is None or a1 == a2:
        return False
    return actions_equivalent(a1, a2, ctx)


def _recognize_imp2(t1, t2, ctx) -> bool:
    if not (isinstance(t1, T.Guard) and isinstance(t2, T.Guard)):
        return False
    if t1.body != t2.body or t1.cond == t2.cond:
        return False
    return valid_iff(t1.cond, t2.cond, ctx.decl, ctx.carrier, ctx.enum_bound)


def _recognize_rdp(t1, t2, ctx) -> bool:
    if not isinstance(t1, T.RecConst):
        return False
    return T.unfold(t1) == t2


def _recognize_cm7d_delta(t1, t2, ctx) -> bool:
    """The schemas sending a communication merge of atoms to inaction."""
    if not isinstance(t2, T.Inaction) or not isinstance(t1, T.CommMerge):
        return False
    left, right = t1.left, t1.right
    if not (isinstance(left, T.Seq) and isinstance(right, T.Seq)):
        return False
    a1, a2 = _action_of(left.left), _action_of(right.left)
    if a1 is None or a2 is None:
        return False
    if isinstance(a1, T.AssignAction) or isinstance(a2, T.AssignAction):
        return True  # CM7De / CM7Df
    if isinstance(a1, T.ParamAction) and isinstance(a2, T.ParamAction):
        if len(a1.args) != len(a2.args):
            return True  # CM7Db, arity mismatch
        return ctx.gamma.result(a1.name, a2.name) is None  # CM7Db, no result
    if isinstance(a1, T.ParamAction) or isinstance(a2, T.ParamAction):
        return True  # CM7Dc / CM7Dd: mixed shapes never communicate
    return False


def _cm7da_parts(t1, ctx):
    if not isinstance(t1, T.CommMerge):
        return None
    left, right = t1.left, t1.right
    if not (isinstance(left, T.Seq) and isinstance(right, T.Seq)):
        return None
    a1, a2 = _action_of(left.left), _action_of(right.left)
    if not (isinstance(a1, T.ParamAction) and isinstance(a2, T.ParamAction)):
        return None
    if len(a1.args) != len(a2.args):
        return None
    c = ctx.gamma.result(a1.name, a2.name)
    if c is None:
        return None
    return a1, a2, c, left.right, right.right


def _cm7da_rhs(t1, ctx):
    parts = _cm7da_parts(t1, ctx)
    if parts is None:
        return None
    a1, a2, c, x, y = parts
    return T.Guard(args_equal(a1.args, a2.args),
                   T.Seq(T.Atom(T.ParamAction(c, a1.args)), T.Par(x, y)))


def _recognize_cm7da(t1, t2, ctx) -> bool:
    return _cm7da_rhs(t1, ctx) == t2 if _cm7da_parts(t1, ctx) else False


def _v3_v4_rhs(t1, ctx, kind):
    """eval{sigma}(alpha . x) = alpha' . eval{sigma'}(x) for an action alpha
    of kind (V3: a parameterized action, V4: an assignment), which the
    carried map evaluates to alpha' and leaves as sigma'."""
    if not isinstance(t1, T.Eval) or not isinstance(t1.body, T.Seq):
        return None
    alpha = _action_of(t1.body.left)
    if not isinstance(alpha, kind):
        return None
    label, after = T.eval_action(alpha, t1.emap, ctx.carrier)
    return T.Seq(T.Atom(label), T.Eval(after, t1.body.right))


def _v6_rhs(binding, ctx):
    sigma = binding["sigma"]
    return T.Guard(
        subst_map(binding["phi"], sigma), T.Eval(sigma, binding["x"])
    )


AXIOMS: dict = {}


def _ax(name, lhs=None, rhs=None, **kw):
    AXIOMS[name] = Axiom(name, lhs=lhs, rhs=rhs, **kw)


_ax("A1", T.Alt(X, Y), T.Alt(Y, X))
_ax("A2", T.Alt(T.Alt(X, Y), Z), T.Alt(X, T.Alt(Y, Z)))
_ax("A3", T.Alt(X, X), X)
_ax("A4", T.Seq(T.Alt(X, Y), Z), T.Alt(T.Seq(X, Z), T.Seq(Y, Z)))
_ax("A5", T.Seq(T.Seq(X, Y), Z), T.Seq(X, T.Seq(Y, Z)))
_ax("A6", T.Alt(X, T.DELTA), X)
_ax("A7", T.Seq(T.DELTA, X), T.DELTA)
_ax("A8", T.Seq(X, T.EPSILON), X)
_ax("A9", T.Seq(T.EPSILON, X), X)

# The joint-termination summand of CM1E cannot block silent steps (the
# encapsulated set never contains the silent action), so it leaks a silent
# path into deadlock whenever an argument can act silently; the schema is
# therefore restricted to silent-step-free arguments.
_ax(
    "CM1E",
    T.Par(X, Y),
    T.Alt(
        T.LeftMerge(X, Y),
        T.Alt(
            T.LeftMerge(Y, X),
            T.Alt(
                T.CommMerge(X, Y),
                T.Seq(T.Encap(ALL_ACTIONS, X), T.Encap(ALL_ACTIONS, Y)),
            ),
        ),
    ),
    side=lambda b, ctx: not T.contains_tau(b["x"]) and not T.contains_tau(b["y"]),
    tau_free_only=True,
)
_ax("CM2E", T.LeftMerge(T.EPSILON, X), T.DELTA)
_ax("CM3", T.LeftMerge(T.Seq(ALPHA, X), Y), T.Seq(ALPHA, T.Par(X, Y)))
_ax("CM4", T.LeftMerge(T.Alt(X, Y), Z), T.Alt(T.LeftMerge(X, Z), T.LeftMerge(Y, Z)))
_ax("CM5E", T.CommMerge(T.EPSILON, X), T.DELTA)
_ax("CM6E", T.CommMerge(X, T.EPSILON), T.DELTA)
_ax(
    "CM7",
    T.CommMerge(T.Seq(A_BASIC, X), T.Seq(B_BASIC, Y)),
    build_rhs=_cm7_rhs,
)
_ax("CM8", T.CommMerge(T.Alt(X, Y), Z), T.Alt(T.CommMerge(X, Z), T.CommMerge(Y, Z)))
_ax("CM9", T.CommMerge(X, T.Alt(Y, Z)), T.Alt(T.CommMerge(X, Y), T.CommMerge(X, Z)))

_ax("D0", T.Encap(HSET, T.EPSILON), T.EPSILON)
_ax(
    "D1",
    T.Encap(HSET, ALPHA),
    ALPHA,
    side=lambda b, ctx: isinstance(b["alpha"], T.Inaction)
    or not T.matches_any(b["alpha"].action, b["H"]),
)
_ax(
    "D2",
    T.Encap(HSET, ALPHA),
    T.DELTA,
    side=lambda b, ctx: isinstance(b["alpha"], T.Atom)
    and T.matches_any(b["alpha"].action, b["H"]),
)
_ax("D3", T.Encap(HSET, T.Alt(X, Y)), T.Alt(T.Encap(HSET, X), T.Encap(HSET, Y)))
_ax("D4", T.Encap(HSET, T.Seq(X, Y)), T.Seq(T.Encap(HSET, X), T.Encap(HSET, Y)))

_ax("T0", T.Abstr(HSET, T.EPSILON), T.EPSILON)
_ax(
    "T1",
    T.Abstr(HSET, ALPHA),
    ALPHA,
    side=lambda b, ctx: isinstance(b["alpha"], T.Inaction)
    or not T.matches_any(b["alpha"].action, b["H"]),
)
_ax(
    "T2",
    T.Abstr(HSET, ALPHA),
    T.Atom(T.TAU),
    side=lambda b, ctx: isinstance(b["alpha"], T.Atom)
    and T.matches_any(b["alpha"].action, b["H"]),
)
_ax("T3", T.Abstr(HSET, T.Alt(X, Y)), T.Alt(T.Abstr(HSET, X), T.Abstr(HSET, Y)))
_ax("T4", T.Abstr(HSET, T.Seq(X, Y)), T.Seq(T.Abstr(HSET, X), T.Abstr(HSET, Y)))

_ax(
    "BE",
    T.Seq(ALPHA, T.Alt(T.Seq(T.Atom(T.TAU), T.Alt(X, Y)), X)),
    T.Seq(ALPHA, T.Alt(X, Y)),
)

_ax("IMP1", recognize=_recognize_imp1)
_ax("IMP2", recognize=_recognize_imp2)

_ax("GC1", T.Guard(TRUE, X), X)
_ax("GC2", T.Guard(CFalse(), X), T.DELTA)
_ax("GC3", T.Guard(PHI, T.DELTA), T.DELTA)
_ax("GC4", T.Guard(PHI, T.Alt(X, Y)), T.Alt(T.Guard(PHI, X), T.Guard(PHI, Y)))
_ax("GC5", T.Guard(PHI, T.Seq(X, Y)), T.Seq(T.Guard(PHI, X), Y))
_ax("GC6", T.Guard(PHI, T.Guard(PSI, X)), T.Guard(And(PHI, PSI), X))
_ax("GC7", T.Guard(Or(PHI, PSI), X), T.Alt(T.Guard(PHI, X), T.Guard(PSI, X)))
_ax("GC8", T.LeftMerge(T.Guard(PHI, X), Y), T.Guard(PHI, T.LeftMerge(X, Y)))
_ax("GC9", T.CommMerge(T.Guard(PHI, X), Y), T.Guard(PHI, T.CommMerge(X, Y)))
_ax("GC10", T.CommMerge(X, T.Guard(PHI, Y)), T.Guard(PHI, T.CommMerge(X, Y)))
_ax("GC11", T.Encap(HSET, T.Guard(PHI, X)), T.Guard(PHI, T.Encap(HSET, X)))
_ax("GC12", T.Abstr(HSET, T.Guard(PHI, X)), T.Guard(PHI, T.Abstr(HSET, X)))

_ax("V0", T.Eval(SIGMA, T.EPSILON), T.EPSILON)
_ax(
    "V1",
    T.Eval(SIGMA, T.Seq(T.Atom(T.TAU), X)),
    T.Seq(T.Atom(T.TAU), T.Eval(SIGMA, X)),
)
_ax("V2", T.Eval(SIGMA, T.Seq(A_BASIC, X)), T.Seq(A_BASIC, T.Eval(SIGMA, X)))
_ax("V3", recognize=lambda t1, t2, ctx: _v3_v4_rhs(t1, ctx, T.ParamAction) == t2)
_ax("V4", recognize=lambda t1, t2, ctx: _v3_v4_rhs(t1, ctx, T.AssignAction) == t2)
_ax("V5", T.Eval(SIGMA, T.Alt(X, Y)), T.Alt(T.Eval(SIGMA, X), T.Eval(SIGMA, Y)))
_ax("V6", T.Eval(SIGMA, T.Guard(PHI, X)), build_rhs=_v6_rhs)

_ax("CM7Da", recognize=_recognize_cm7da)
_ax("CM7Db", recognize=_recognize_cm7d_delta)
_ax("CM7Dc", recognize=_recognize_cm7d_delta)
_ax("CM7Dd", recognize=_recognize_cm7d_delta)
_ax("CM7De", recognize=_recognize_cm7d_delta)
_ax("CM7Df", recognize=_recognize_cm7d_delta)

# A silent step discharges the guard on the left while the right keeps it,
# so with a contingent condition the two sides differ under maps falsifying
# it; the schema is restricted to conditions with a constant truth value.
def _constant_cond(phi, ctx) -> bool:
    return constant_value(phi, ctx.decl, ctx.carrier, ctx.enum_bound) is not None


_ax(
    "BED",
    T.Seq(
        ALPHA,
        T.Alt(
            T.Guard(PHI, T.Seq(T.Atom(T.TAU), T.Alt(X, Y))),
            T.Guard(PHI, X),
        ),
    ),
    T.Seq(ALPHA, T.Guard(PHI, T.Alt(X, Y))),
    side=lambda b, ctx: _constant_cond(b["phi"], ctx),
)

_ax("RDP", recognize=_recognize_rdp)


# Names whose random instances the soundness suite must cover: every axiom.
SOUNDNESS_SUITE = list(AXIOMS)

# Pattern-based axioms safe for random rewriting at arbitrary positions.
# CM1E is excluded: see the soundness note above.
REWRITE_POOL = [name for name, axiom in AXIOMS.items() if axiom.lhs is not None and name != "CM1E"]


def recognize_axiom(t1, t2, ctx) -> Optional[str]:
    """Name of an axiom of which t1 = t2 is a root-position instance, if any."""
    for name in SOUNDNESS_SUITE:
        if AXIOMS[name].relates(t1, t2, ctx):
            return name
    return None
