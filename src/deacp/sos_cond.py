"""Condition-labelled structural operational semantics.

Transitions carry a satisfiable condition instead of an evaluation map;
instantiating each transition at every satisfying map recovers the
map-indexed semantics exactly. As in `sos_sigma`, one rule function derives
a subterm's steps and the conditions under which it terminates, and one memo
entry holds both. The termination conditions are conjoined only after the
moves and only when asked for, since that order fixes the printed labels.
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
from .data_algebra import enumerate_maps, subterms
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
        vars_, bits = signature(phi, self.ctx.carrier)
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
    """Condition-labelled rules; moves and termination conditions are
    memoized together per term (by identity, see `_Rules`)."""

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

    def _conjs(self, phis, t) -> list:
        """The satisfiable conjunctions of each phi with each condition under
        which t terminates, in order; t's are derived only if there is a phi."""
        out = []
        for phi in phis:
            for psi in self.derive(t)[1]:
                label = self._conj(phi, psi)
                if label is not None:
                    out.append(label)
        return out

    def derive(self, t: T.ProcTerm) -> list:
        """[moves, ends]: the triples (condition, action, canonical target)
        derivable for t, and the conditions under which t terminates."""
        entry = self._started(t)
        if type(entry[1]) is not tuple:
            entry[1] = tuple(dict.fromkeys(entry[1]()))
        return entry

    def _started(self, t: T.ProcTerm) -> list:
        """t's memo entry with its moves derived; until `derive` asks for
        t's ends, the entry holds the function that derives them."""
        hit = self.step_cache.get(id(t))
        if hit is None:
            moves, ends = self._derive(t)
            hit = self.step_cache[id(t)] = t, [tuple(dict.fromkeys(moves)), ends]
        return hit[1]

    def _derive(self, t):
        """t's moves, and its ends: a tuple, or a function that derives them.
        A term's ends are conjoined after all its moves, and only when a
        state's or a `Seq` left side's termination asks for them;
        `_LabelRegistry` labels each class by the first condition it sees,
        so this order fixes the printed labels."""
        if isinstance(t, T.Atom):
            return [(TRUE, t.action, self._ended())], ()
        if isinstance(t, T.Inaction):
            return (), ()
        if isinstance(t, T.Empty):
            return (), (TRUE,)
        if isinstance(t, T.Alt):
            return (self._started(t.left)[0] + self._started(t.right)[0],
                    lambda: self.derive(t.left)[1] + self.derive(t.right)[1])
        if isinstance(t, T.Seq):
            out = [
                (phi, a, self._canon(T.Seq(target, t.right)))
                for phi, a, target in self._started(t.left)[0]
            ]
            left_ends = self.derive(t.left)[1]
            for phi in left_ends:
                for psi, a, target in self._started(t.right)[0]:
                    label = self._conj(phi, psi)
                    if label is not None:
                        out.append((label, a, target))
            return out, lambda: self._conjs(left_ends, t.right)
        if isinstance(t, T.Par):
            left_moves = self._started(t.left)[0]
            right_moves = self._started(t.right)[0]
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
            return out, lambda: self._conjs(self.derive(t.left)[1], t.right)
        if isinstance(t, T.LeftMerge):
            return [
                (phi, a, self._canon(T.Par(tgt, t.right)))
                for phi, a, tgt in self._started(t.left)[0]
            ], ()
        if isinstance(t, T.CommMerge):
            return [
                (phi, c, self._canon(T.Par(tx, ty))) for phi, c, tx, ty
                in self._sync(self._started(t.left)[0], self._started(t.right)[0])
            ], ()
        if isinstance(t, T.Encap):
            return [
                (phi, a, self._canon(T.Encap(t.patterns, tgt)))
                for phi, a, tgt in self._started(t.body)[0]
                if not T.matches_any(a, t.patterns)
            ], lambda: self.derive(t.body)[1]
        if isinstance(t, T.Abstr):
            out = []
            for phi, a, tgt in self._started(t.body)[0]:
                label_action = T.TAU if T.matches_any(a, t.patterns) else a
                out.append((phi, label_action, self._canon(T.Abstr(t.patterns, tgt))))
            return out, lambda: self.derive(t.body)[1]
        if isinstance(t, T.Guard):
            out = []
            for phi, a, tgt in self._started(t.body)[0]:
                label = self._conj(phi, t.cond)
                if label is not None:
                    out.append((label, a, tgt))
            return out, lambda: self._conjs((t.cond,), t.body)
        if isinstance(t, T.Eval):
            carrier = self.ctx.carrier
            return [
                (TRUE, *self._evaluated(a, t.emap, tgt))
                for phi, a, tgt in self._started(t.body)[0]
                if eval_cond(phi, t.emap, carrier)
            ], lambda: [TRUE for phi in self.derive(t.body)[1] if eval_cond(phi, t.emap, carrier)]
        if isinstance(t, T.RecConst):
            body = T.unfolded(t, self.ctx)
            return self._started(body)[0], lambda: self.derive(body)[1]
        if isinstance(t, T.RecVar):
            raise GuardednessError(f"free recursion variable {t.name!r} has no transitions")
        raise TypeError(f"not a process term: {t!r}")


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
        moves, ends = sos.derive(state)
        terminating.update((sid, cond) for cond in ends)
        return moves

    states, transitions = explore(T.canonical(t, ctx), successors, ctx.state_bound)
    return CondLts(states=states, root=0, domain=tuple(domain),
                   transitions=transitions, terminating=terminating)


def expand_to_sigma(clts: CondLts, ctx: T.Context, domain: Optional[tuple] = None) -> SigmaLts:
    """Instantiate every condition-labelled fact at each of its satisfying maps."""
    if domain is None:
        domain = clts.domain
    maps = tuple(enumerate_maps(domain, ctx.carrier))
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
