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
from .data_algebra import EvalMap, frozen_dataclass, map_children, subterms

ALL_ACTIONS = (T.ActionPattern("all"),)


@frozen_dataclass
class MetaVar:
    name: str
    kind: str  # a key of _KINDS


# The values a metavariable of each kind stands for.
_KINDS = {
    "proc": T.ProcTerm,
    "atom_td": (T.Atom, T.Inaction),
    "action": T.Action,
    "basic": T.BasicAction,
    "param": T.ParamAction,
    "assign": T.AssignAction,
    "rec": T.RecConst,
    "cond": Condition,
    "emap": EvalMap,
    "patset": tuple,
}


def match(pattern, value, binding: Optional[dict] = None) -> Optional[dict]:
    """Structural match of a pattern with metavariables against a term.

    The two are compared field by field; scalars and metavariable-free parts
    must be equal.
    """
    if binding is None:
        binding = {}
    if isinstance(pattern, MetaVar):
        if not isinstance(value, _KINDS[pattern.kind]):
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
    """pattern with each metavariable replaced by its value; None when the
    binding leaves one unbound."""
    if any(isinstance(u, MetaVar) and u.name not in binding for u in subterms(pattern)):
        return None

    def fill(p):
        if isinstance(p, MetaVar):
            return binding[p.name]
        return map_children(p, fill)
    return fill(pattern)


@dataclass
class Axiom:
    """One axiom schema, lhs = rhs if side. The left side is a pattern; the
    right side is a pattern or a function rhs(binding, ctx) of the left
    binding; the side condition reads the binding of both sides."""

    name: str
    lhs: object
    rhs: object
    side: Optional[Callable] = None  # side(binding, ctx) -> bool
    tau_free_only: bool = False  # restrict random instances to silent-step-free fills

    def _holds(self, binding, ctx) -> bool:
        return self.side is None or self.side(binding, ctx)

    def _fill(self, pattern, binding, ctx):
        out = instantiate(pattern, binding)
        return out if out is not None and self._holds(binding, ctx) else None

    def forward(self, term, ctx) -> Optional[object]:
        """Rewrite term by one left-to-right application at the root; None
        where the schema does not apply or the binding does not fix the
        right side."""
        binding = match(self.lhs, term)
        if binding is None:
            return None
        if callable(self.rhs):
            return self.rhs(binding, ctx) if self._holds(binding, ctx) else None
        return self._fill(self.rhs, binding, ctx)

    def backward(self, term, ctx) -> Optional[object]:
        """Rewrite term by one right-to-left application at the root; None
        where the schema does not apply or the binding does not fix the left
        side."""
        binding = None if callable(self.rhs) else match(self.rhs, term)
        return None if binding is None else self._fill(self.lhs, binding, ctx)

    def relates(self, t1, t2, ctx) -> bool:
        """Whether t1 = t2 is an instance of this axiom, in either direction."""
        return self._instance(t1, t2, ctx) or self._instance(t2, t1, ctx)

    def _instance(self, left, right, ctx) -> bool:
        binding = match(self.lhs, left)
        if binding is None:
            return False
        if callable(self.rhs):
            return self._holds(binding, ctx) and self.rhs(binding, ctx) == right
        return match(self.rhs, right, binding) is not None and self._holds(binding, ctx)


X, Y, Z = MetaVar("x", "proc"), MetaVar("y", "proc"), MetaVar("z", "proc")
ALPHA = MetaVar("alpha", "atom_td")
PHI, PSI = MetaVar("phi", "cond"), MetaVar("psi", "cond")
HSET = MetaVar("H", "patset")
SIGMA = MetaVar("sigma", "emap")


def _prefix_merge(kind):
    """The pattern p . x | q . y for atomic actions p and q of one kind."""
    return T.CommMerge(T.Seq(T.Atom(MetaVar("p", kind)), X), T.Seq(T.Atom(MetaVar("q", kind)), Y))


def _cm7_rhs(binding, ctx):
    c = ctx.gamma.result(binding["p"].name, binding["q"].name)
    base = T.Atom(T.BasicAction(c)) if c is not None else T.DELTA
    return T.Seq(base, T.Par(binding["x"], binding["y"]))


def _param_result(p, q, ctx):
    """The communication of two parameterized actions: None when their
    arities differ or the table has no entry for their names."""
    return ctx.gamma.result(p.name, q.name) if len(p.args) == len(q.args) else None


def _cm7da_rhs(binding, ctx):
    p, q = binding["p"], binding["q"]
    c = _param_result(p, q, ctx)
    if c is None:
        return None
    return T.Guard(args_equal(p.args, q.args),
                   T.Seq(T.Atom(T.ParamAction(c, p.args)), T.Par(binding["x"], binding["y"])))


def _cm7d_case(case):
    """The side condition of p . x | q . y = delta for a case of p and q."""
    return lambda binding, ctx: case(binding["p"], binding["q"], ctx)


def _eval_prefix_rhs(binding, ctx):
    """eval{sigma}(p . x) = p' . eval{sigma'}(x), where the carried map
    evaluates the action p to p' and leaves sigma'."""
    label, after = T.eval_action(binding["p"], binding["sigma"], ctx.carrier)
    return T.Seq(T.Atom(label), T.Eval(after, binding["x"]))


def _v6_rhs(binding, ctx):
    sigma = binding["sigma"]
    return T.Guard(subst_map(binding["phi"], sigma), T.Eval(sigma, binding["x"]))


def _passes(binding, ctx):
    """alpha is inaction or an action that H does not select."""
    alpha = binding["alpha"]
    return isinstance(alpha, T.Inaction) or not T.matches_any(alpha.action, binding["H"])


def _selected(binding, ctx):
    alpha = binding["alpha"]
    return isinstance(alpha, T.Atom) and T.matches_any(alpha.action, binding["H"])


AXIOMS: dict = {}


def _ax(name, lhs, rhs, **kw):
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
_ax("CM7", _prefix_merge("basic"), _cm7_rhs)
_ax("CM8", T.CommMerge(T.Alt(X, Y), Z), T.Alt(T.CommMerge(X, Z), T.CommMerge(Y, Z)))
_ax("CM9", T.CommMerge(X, T.Alt(Y, Z)), T.Alt(T.CommMerge(X, Y), T.CommMerge(X, Z)))

_ax("D0", T.Encap(HSET, T.EPSILON), T.EPSILON)
_ax("D1", T.Encap(HSET, ALPHA), ALPHA, side=_passes)
_ax("D2", T.Encap(HSET, ALPHA), T.DELTA, side=_selected)
_ax("D3", T.Encap(HSET, T.Alt(X, Y)), T.Alt(T.Encap(HSET, X), T.Encap(HSET, Y)))
_ax("D4", T.Encap(HSET, T.Seq(X, Y)), T.Seq(T.Encap(HSET, X), T.Encap(HSET, Y)))

_ax("T0", T.Abstr(HSET, T.EPSILON), T.EPSILON)
_ax("T1", T.Abstr(HSET, ALPHA), ALPHA, side=_passes)
_ax("T2", T.Abstr(HSET, ALPHA), T.Atom(T.TAU), side=_selected)
_ax("T3", T.Abstr(HSET, T.Alt(X, Y)), T.Alt(T.Abstr(HSET, X), T.Abstr(HSET, Y)))
_ax("T4", T.Abstr(HSET, T.Seq(X, Y)), T.Seq(T.Abstr(HSET, X), T.Abstr(HSET, Y)))

_ax(
    "BE",
    T.Seq(ALPHA, T.Alt(T.Seq(T.Atom(T.TAU), T.Alt(X, Y)), X)),
    T.Seq(ALPHA, T.Alt(X, Y)),
)

_ax(
    "IMP1",
    T.Atom(MetaVar("p", "action")),
    T.Atom(MetaVar("q", "action")),
    side=lambda b, ctx: b["p"] != b["q"] and actions_equivalent(b["p"], b["q"], ctx),
)
_ax(
    "IMP2",
    T.Guard(PHI, X),
    T.Guard(PSI, X),
    side=lambda b, ctx: b["phi"] != b["psi"]
    and valid_iff(b["phi"], b["psi"], ctx.decl, ctx.carrier),
)

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
A_BASIC = T.Atom(MetaVar("a", "basic"))
_ax("V2", T.Eval(SIGMA, T.Seq(A_BASIC, X)), T.Seq(A_BASIC, T.Eval(SIGMA, X)))
_ax("V3", T.Eval(SIGMA, T.Seq(T.Atom(MetaVar("p", "param")), X)), _eval_prefix_rhs)
_ax("V4", T.Eval(SIGMA, T.Seq(T.Atom(MetaVar("p", "assign")), X)), _eval_prefix_rhs)
_ax("V5", T.Eval(SIGMA, T.Alt(X, Y)), T.Alt(T.Eval(SIGMA, X), T.Eval(SIGMA, Y)))
_ax("V6", T.Eval(SIGMA, T.Guard(PHI, X)), _v6_rhs)

_ax("CM7Da", _prefix_merge("param"), _cm7da_rhs)
# Two prefixes that do not communicate merge to inaction, one case each:
# parameterized actions of different arities or names without a result (b),
# a parameterized action on the left only (c) or on the right only (d), an
# assignment on the left (e) or on the right (f).
for _name, _case in (
    ("CM7Db", lambda p, q, ctx: isinstance(p, T.ParamAction) and isinstance(q, T.ParamAction)
     and _param_result(p, q, ctx) is None),
    ("CM7Dc", lambda p, q, ctx: isinstance(p, T.ParamAction) and not isinstance(q, T.ParamAction)),
    ("CM7Dd", lambda p, q, ctx: not isinstance(p, T.ParamAction) and isinstance(q, T.ParamAction)),
    ("CM7De", lambda p, q, ctx: isinstance(p, T.AssignAction)),
    ("CM7Df", lambda p, q, ctx: isinstance(q, T.AssignAction)),
):
    _ax(_name, _prefix_merge("action"), T.DELTA, side=_cm7d_case(_case))

# A silent step discharges the guard on the left while the right keeps it,
# so with a contingent condition the two sides differ under maps falsifying
# it; the schema is restricted to conditions with a constant truth value.
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
    side=lambda b, ctx: constant_value(b["phi"], ctx.decl, ctx.carrier) is not None,
)

_ax("RDP", MetaVar("r", "rec"), lambda b, ctx: T.unfold(b["r"]))


# Names whose random instances the soundness suite must cover: every axiom.
SOUNDNESS_SUITE = list(AXIOMS)

# Axioms for random rewriting at arbitrary positions. CM1E is excluded (see
# the soundness note above). IMP1 and IMP2 cannot rewrite: their left binding
# leaves the right side open. The others kept out have instances of their
# own in gen.axiom_instance; leaving them out keeps rewritten pairs, and so
# the `conjecture` report and the frozen proof corpus, as they are.
REWRITE_POOL = [name for name in AXIOMS if name not in (
    "CM1E", "IMP1", "IMP2", "V3", "V4", "RDP",
    "CM7Da", "CM7Db", "CM7Dc", "CM7Dd", "CM7De", "CM7Df")]


def recognize_axiom(t1, t2, ctx) -> Optional[str]:
    """Name of an axiom of which t1 = t2 is a root-position instance, if any."""
    for name in SOUNDNESS_SUITE:
        if AXIOMS[name].relates(t1, t2, ctx):
            return name
    return None
