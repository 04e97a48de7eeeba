"""Condition-labelled structural operational semantics.

Transitions carry a satisfiable condition instead of an evaluation map;
instantiating each transition at every satisfying map recovers the
map-indexed semantics exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import Optional

from . import terms as T
from .conditions import (
    And,
    CTrue,
    Condition,
    TRUE,
    args_equal,
    eval_cond,
    signature,
)
from .data_algebra import FlexVarDecl, enumerate_maps, subterms
from .errors import GuardednessError
from .parser import render_action, render_cond, render_term
from .sos_sigma import SigmaLts, _Rules, ambient_domain, explore


# The conditions a walk over a label's conjuncts does not enter: all but conjunctions.
_CONJUNCTS = frozenset(Condition.__args__) - {And}


class _LabelRegistry:
    """Canonical representative per semantic equivalence class of conditions."""

    def __init__(self, ctx: T.Context):
        self.ctx = ctx
        self.by_signature: dict = {}

    def normalize(self, phi: Condition) -> Optional[Condition]:
        """None when unsatisfiable; otherwise the canonical equivalent label."""
        vars_, bits = signature(phi, self.ctx.carrier, self.ctx.enum_bound)
        if not any(bits):
            return None
        if all(bits):
            return TRUE
        key = (vars_, bits)
        hit = self.by_signature.get(key)
        if hit is not None:
            return hit
        conjuncts = [c for c in subterms(phi, _CONJUNCTS) if type(c) not in (And, CTrue)]
        out = reduce(And, dict.fromkeys(sorted(conjuncts, key=render_cond)))
        self.by_signature[key] = out
        return out


class _CondSos(_Rules):
    """Condition-labelled rules, memoized per term (by identity, see `_Rules`)."""

    def __init__(self, ctx: T.Context):
        super().__init__(ctx)
        self.registry = _LabelRegistry(ctx)

    def _conj(self, phi: Condition, psi: Condition) -> Optional[Condition]:
        return self.registry.normalize(And(phi, psi))

    def _sync(self, moves_x, moves_y):
        out = []
        for phi, ax, tx in moves_x:
            for psi, ay, ty in moves_y:
                c = self.ctx.gamma.communicate(ax, ay)
                if c is None:
                    continue
                if isinstance(c, T.ParamAction):
                    label = self._conj(And(phi, psi), args_equal(ax.args, ay.args))
                else:
                    label = self._conj(phi, psi)
                if label is not None:
                    out.append((label, c, tx, ty))
        return out

    def steps(self, t: T.ProcTerm) -> tuple:
        hit = self.step_cache.get(id(t))
        if hit is None:
            hit = self.step_cache[id(t)] = t, tuple(dict.fromkeys(self._steps(t)))
        return hit[1]

    def _steps(self, t):
        if isinstance(t, T.Atom):
            return [(TRUE, t.action, self._ended())]
        if isinstance(t, (T.Inaction, T.Empty)):
            return []
        if isinstance(t, T.Alt):
            return list(self.steps(t.left)) + list(self.steps(t.right))
        if isinstance(t, T.Seq):
            out = [
                (phi, a, self._canon(T.Seq(target, t.right)))
                for phi, a, target in self.steps(t.left)
            ]
            for phi in self.terminating(t.left):
                for psi, a, target in self.steps(t.right):
                    label = self._conj(phi, psi)
                    if label is not None:
                        out.append((label, a, target))
            return out
        if isinstance(t, T.Par):
            left_moves = self.steps(t.left)
            right_moves = self.steps(t.right)
            out = [
                (phi, a, self._canon(T.Par(tgt, t.right))) for phi, a, tgt in left_moves
            ]
            out += [
                (phi, a, self._canon(T.Par(t.left, tgt))) for phi, a, tgt in right_moves
            ]
            out += [
                (phi, c, self._canon(T.Par(tx, ty)))
                for phi, c, tx, ty in self._sync(left_moves, right_moves)
            ]
            return out
        if isinstance(t, T.LeftMerge):
            return [
                (phi, a, self._canon(T.Par(tgt, t.right)))
                for phi, a, tgt in self.steps(t.left)
            ]
        if isinstance(t, T.CommMerge):
            return [
                (phi, c, self._canon(T.Par(tx, ty)))
                for phi, c, tx, ty in self._sync(self.steps(t.left), self.steps(t.right))
            ]
        if isinstance(t, T.Encap):
            return [
                (phi, a, self._canon(T.Encap(t.patterns, tgt)))
                for phi, a, tgt in self.steps(t.body)
                if not T.matches_any(a, t.patterns)
            ]
        if isinstance(t, T.Abstr):
            out = []
            for phi, a, tgt in self.steps(t.body):
                label_action = T.TAU if T.matches_any(a, t.patterns) else a
                out.append((phi, label_action, self._canon(T.Abstr(t.patterns, tgt))))
            return out
        if isinstance(t, T.Guard):
            out = []
            for phi, a, tgt in self.steps(t.body):
                label = self._conj(phi, t.cond)
                if label is not None:
                    out.append((label, a, tgt))
            return out
        if isinstance(t, T.Eval):
            return [
                (TRUE, *self._evaluated(a, t.emap, tgt))
                for phi, a, tgt in self.steps(t.body)
                if eval_cond(phi, t.emap, self.ctx.carrier)
            ]
        if isinstance(t, T.RecConst):
            return list(self.steps(T.unfolded(t, self.ctx)))
        if isinstance(t, T.RecVar):
            raise GuardednessError(f"free recursion variable {t.name!r} has no transitions")
        raise TypeError(f"not a process term: {t!r}")

    def terminating(self, t: T.ProcTerm) -> tuple:
        hit = self.term_cache.get(id(t))
        if hit is None:
            hit = self.term_cache[id(t)] = t, tuple(dict.fromkeys(self._terminating(t)))
        return hit[1]

    def _terminating(self, t):
        if isinstance(t, T.Empty):
            return [TRUE]
        if isinstance(t, (T.Inaction, T.Atom, T.LeftMerge, T.CommMerge)):
            return []
        if isinstance(t, T.Alt):
            return list(self.terminating(t.left)) + list(self.terminating(t.right))
        if isinstance(t, (T.Seq, T.Par)):
            out = []
            for phi in self.terminating(t.left):
                for psi in self.terminating(t.right):
                    label = self._conj(phi, psi)
                    if label is not None:
                        out.append(label)
            return out
        if isinstance(t, (T.Encap, T.Abstr)):
            return list(self.terminating(t.body))
        if isinstance(t, T.Guard):
            out = []
            for phi in self.terminating(t.body):
                label = self._conj(phi, t.cond)
                if label is not None:
                    out.append(label)
            return out
        if isinstance(t, T.Eval):
            out = []
            for phi in self.terminating(t.body):
                if eval_cond(phi, t.emap, self.ctx.carrier):
                    out.append(TRUE)
            return out
        if isinstance(t, T.RecConst):
            return list(self.terminating(T.unfolded(t, self.ctx)))
        if isinstance(t, T.RecVar):
            raise GuardednessError(f"free recursion variable {t.name!r} cannot terminate")
        raise TypeError(f"not a process term: {t!r}")


def step_cond(t: T.ProcTerm, ctx: T.Context) -> set:
    """Derivable (condition, action, target) triples of a closed term."""
    return set(_CondSos(ctx).steps(T.canonical(t, ctx)))


def terminates_cond(t: T.ProcTerm, ctx: T.Context) -> set:
    return set(_CondSos(ctx).terminating(T.canonical(t, ctx)))


@dataclass
class CondLts:
    states: list
    root: int
    domain: tuple
    transitions: list  # per state: tuple of (Condition, Action, target id)
    terminating: set  # of (state id, Condition)

    @property
    def num_transitions(self) -> int:
        return sum(len(ts) for ts in self.transitions)

    def to_json_dict(self) -> dict:
        trans = []
        for src, ts in enumerate(self.transitions):
            for cond, action, tgt in ts:
                trans.append(
                    {
                        "from": src,
                        "cond": render_cond(cond),
                        "action": render_action(action),
                        "to": tgt,
                    }
                )
        trans.sort(key=lambda d: (d["from"], d["cond"], d["action"], d["to"]))
        term = sorted(
            [{"state": s, "cond": render_cond(c)} for s, c in self.terminating],
            key=lambda d: (d["state"], d["cond"]),
        )
        return {
            "states": [render_term(s) for s in self.states],
            "root": self.root,
            "domain": list(self.domain),
            "transitions": trans,
            "terminating": term,
        }


def build_cond_lts(t: T.ProcTerm, ctx: T.Context, domain: Optional[tuple] = None,
                   explorer: Optional[_CondSos] = None) -> CondLts:
    """Breadth-first closure of the condition-labelled step relation. As in
    `build_lts`, the builds of one query can share one explorer, `_CondSos(ctx)`."""
    if not T.is_closed(t):
        raise GuardednessError("cannot explore a term with free recursion variables")
    if domain is None:
        domain = ambient_domain(t, ctx)
    sos = _CondSos(ctx) if explorer is None else explorer
    terminating = set()

    def successors(sid, state):
        yield from sos.steps(state)
        terminating.update((sid, cond) for cond in sos.terminating(state))

    states, transitions = explore(T.canonical(t, ctx), successors, ctx.state_bound)
    return CondLts(states=states, root=0, domain=tuple(domain),
                   transitions=transitions, terminating=terminating)


def expand_to_sigma(clts: CondLts, ctx: T.Context, domain: Optional[tuple] = None) -> SigmaLts:
    """Instantiate every condition-labelled fact at each of its satisfying maps."""
    if domain is None:
        domain = clts.domain
    maps = tuple(enumerate_maps(FlexVarDecl(tuple(domain)), ctx.carrier, ctx.enum_bound))
    transitions = []
    for ts in clts.transitions:
        out: dict = {}  # insertion-ordered set
        for sigma in maps:
            for cond, action, tgt in ts:
                if eval_cond(cond, sigma, ctx.carrier):
                    out[(sigma, action, tgt)] = None
        transitions.append(tuple(out))
    terminating = set()
    for sid, cond in clts.terminating:
        for sigma in maps:
            if eval_cond(cond, sigma, ctx.carrier):
                terminating.add((sid, sigma))
    return SigmaLts(
        states=list(clts.states),
        root=clts.root,
        domain=tuple(domain),
        maps=maps,
        transitions=transitions,
        terminating=terminating,
    )
