"""Information-flow analysis: derived security sets and the data
non-interference check.

A process holds the property when the abstracted, encapsulated, evaluated
behaviour is independent of the values initially held by high-security
variables: for every two maps agreeing on the low-security variables, the
two resulting systems are rooted branching bisimilar.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from . import terms as T
from .bisim import rooted_branching_bisim, rooted_branching_classes
from .conditions import args_equal, satisfiable
from .data_algebra import ENUM_BOUND, EvalMap, enumerate_maps
from .errors import DeacpError, DeclarationError, EnumerationLimitError
from .parser import render_action
from .sos_sigma import _Sos, build_lts


@dataclass(frozen=True)
class SecuritySpec:
    process: T.ProcTerm
    low: tuple  # low-security flexible variables
    ext: tuple  # ActionPattern tuple of external actions

    def __post_init__(self):
        for p in self.ext:
            if p.kind == "assign":
                raise DeclarationError("external actions cannot include assignments")


@dataclass(frozen=True)
class DerivedSets:
    high: tuple  # high-security flexible variables, declaration order
    internal_actions: tuple  # occurring atomic actions deemed internal
    internal_patterns: tuple  # patterns abstracting those actions
    encapsulated_actions: tuple  # internal actions that can communicate
    encapsulated_patterns: tuple


def _arity_pattern(alpha: T.Action) -> T.ActionPattern:
    if isinstance(alpha, T.BasicAction):
        return T.ActionPattern("arity", alpha.name, 0)
    if isinstance(alpha, T.ParamAction):
        return T.ActionPattern("arity", alpha.name, len(alpha.args))
    if isinstance(alpha, T.AssignAction):
        return T.ActionPattern("assign", alpha.var)
    raise DeclarationError("the silent step has no security classification")


def derive_sets(spec: SecuritySpec, ctx: T.Context) -> DerivedSets:
    """High variables, internal actions, and encapsulated actions, computed
    from syntactic occurrence and the communication table."""
    occurring_vars = T.all_flex_vars(spec.process)
    high = tuple(v for v in ctx.decl if v in occurring_vars and v not in spec.low)
    actions = T.occurring_actions(spec.process)
    internal = [a for a in actions if not T.matches_any(a, spec.ext)]
    internal_patterns = T.pattern_set(_arity_pattern(a) for a in internal)

    def communicates(a1: T.Action, a2: T.Action) -> bool:
        c = ctx.gamma.communicate(a1, a2)  # None for assignments and mixed shapes
        if not isinstance(c, T.ParamAction):
            return c is not None
        return satisfiable(args_equal(a1.args, a2.args), ctx.decl, ctx.carrier)

    encapsulated = [
        a for a in internal
        if any(communicates(a, b) for b in internal)
    ]
    return DerivedSets(
        high=high,
        internal_actions=tuple(internal),
        internal_patterns=internal_patterns,
        encapsulated_actions=tuple(encapsulated),
        encapsulated_patterns=T.pattern_set(_arity_pattern(a) for a in encapsulated),
    )


@dataclass
class DniiVerdict:
    holds: bool
    sets: DerivedSets
    pairs_checked: int = 0
    sigma: Optional[EvalMap] = None
    sigma_prime: Optional[EvalMap] = None
    counterexample: Optional[dict] = None

    def to_json_dict(self) -> dict:
        out = {
            "holds": self.holds,
            "pairs_checked": self.pairs_checked,
            "high": list(self.sets.high),
            "internal": [render_action(a) for a in self.sets.internal_actions],
            "encapsulated": [render_action(a) for a in self.sets.encapsulated_actions],
        }
        if not self.holds:
            out["sigma"] = self.sigma.as_dict()
            out["sigma_prime"] = self.sigma_prime.as_dict()
            out["counterexample"] = self.counterexample
        return out


def _observed_term(spec: SecuritySpec, sets: DerivedSets, sigma: EvalMap) -> T.ProcTerm:
    inner = spec.process
    if sets.encapsulated_patterns:
        inner = T.Encap(sets.encapsulated_patterns, inner)
    evaluated = T.Eval(sigma, inner)
    if sets.internal_patterns:
        return T.Abstr(sets.internal_patterns, evaluated)
    return evaluated


def check_dnii(spec: SecuritySpec, ctx: T.Context) -> DniiVerdict:
    """Exhaustive check over all pairs of evaluation maps agreeing on the
    low-security variables; quantification ranges over occurring variables
    (others cannot affect any transition) with unordered high pairs.

    The variants of one low part are built with one explorer, and their
    equivalence is decided by one refinement. In pair order the first
    inequivalent pair is (0, j) for the first variant j unlike variant 0;
    pairs_checked counts up to it, and a variant that cannot be built is an
    error only if no earlier pair leaks.
    """
    sets = derive_sets(spec, ctx)
    if not T.is_closed(spec.process):
        raise DeclarationError("the analyzed process must be closed")
    occurring = T.all_flex_vars(spec.process)
    low_occ = tuple(v for v in ctx.decl if v in spec.low and v in occurring)
    high = sets.high
    default = 0 if 0 in ctx.carrier else ctx.carrier.lo
    base = {v: default for v in ctx.decl}

    low_maps = enumerate_maps(low_occ, ctx.carrier)
    high_maps = enumerate_maps(high, ctx.carrier)
    pairs = len(high_maps) * (len(high_maps) - 1) // 2
    total = len(low_maps) * pairs
    if total > ENUM_BOUND:
        raise EnumerationLimitError(total, ENUM_BOUND, "map pairs")

    if not pairs:
        return DniiVerdict(holds=True, sets=sets)
    pairs_checked = 0
    for low_part in low_maps:
        sigmas = [EvalMap.of({**base, **low_part.as_dict(), **h.as_dict()})
                  for h in high_maps]
        ltss, failure, sos = [], None, _Sos(ctx)
        for sigma in sigmas:
            try:
                ltss.append(build_lts(_observed_term(spec, sets, sigma), ctx, domain=(),
                                      explorer=sos))
            except (DeacpError, RecursionError) as exc:  # raised unless an earlier pair leaks
                failure = exc
                break
        keys = rooted_branching_classes(ltss, ctx)
        j = next((j for j, key in enumerate(keys) if key != keys[0]), None)
        if j is None:
            if failure is not None:
                raise failure
            pairs_checked += pairs
            continue
        result = rooted_branching_bisim(ltss[0], ltss[j], ctx)
        return DniiVerdict(
            holds=False,
            sets=sets,
            pairs_checked=pairs_checked + j,
            sigma=sigmas[0],
            sigma_prime=sigmas[j],
            counterexample=result.counterexample,
        )
    return DniiVerdict(holds=True, sets=sets, pairs_checked=pairs_checked)
