"""Map-indexed structural operational semantics and bounded LTS construction.

Transitions are indexed by an evaluation map and an atomic action (or the
silent step); termination is indexed by an evaluation map. A term wrapped in
an evaluation operator behaves identically under every ambient map, so LTS
construction enumerates ambient maps only over the flexible variables that
occur outside carried maps. Each subterm is derived once per assignment of
values to the variables its next step reads, under every map alike (the
ambient maps of a build and a map carried by an evaluation operator): the
guards and synchronization data it evaluates before its first action, not
those its later steps evaluate, such as the other equations of a recursive
specification. One rule function derives a subterm's steps and its
termination together, by the one case split over the operators that defines
both, and one memo entry holds both. A sum or guard is walked in place,
summand by summand, so the sums and guards inside it are evaluated under each
map that reaches it and are not derived on their own.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from . import terms as T
from .conditions import eval_cond
from .data_algebra import EvalMap, enumerate_maps, eval_data, flex_vars
from .errors import ExplorationLimitError, GuardednessError
from .parser import render_action, render_term


class _Rules:
    """What both rule engines share: the memo table, canonical forms and
    evaluation under a carried map. An explorer serves every build of one
    query; the unfoldings of recursion constants belong to the context
    (`T.unfolded`), as canonical forms do.

    The memo table keys a term by its identity, `id(t)`, which costs no
    Python-level hash. The terms the rules reach are canonical, one object
    per value, so keying them by identity loses no sharing. Every entry
    holds the object it keys, so no id is reused while the entry exists,
    not even that of a term that is not canonical and that the caller drops."""

    def __init__(self, ctx: T.Context):
        self.ctx = ctx
        self.step_cache: dict = {}  # key -> (the term keyed, (its moves, its termination))

    def _canon(self, t):
        """Canonical form of a target the rules build from canonical parts:
        the one object in the context's table that stands for it, so the
        memo table and `explore` tell it from other states by identity."""
        return T.shared(T.simplify(t, self.ctx.carrier), self.ctx)

    def _ended(self):
        """The canonical successful termination, the target of every atom's step."""
        return T.shared(T.EPSILON, self.ctx)

    def _evaluated(self, action: T.Action, carried: EvalMap, target: T.ProcTerm) -> tuple:
        """A step of an evaluated body: its label with the data evaluated under
        the carried map, and its target under the map the step leaves."""
        label, after = T.eval_action(action, carried, self.ctx.carrier)
        return label, self._canon(T.Eval(after, target))


class _Sos(_Rules):
    """Map-indexed rules. Moves and termination are memoized together per
    (term, the values the map gives the variables the term reads), whatever
    the map: maps that agree there share one entry, derived under the first
    of them to reach it. A sum or guard inside another has no memo entry;
    the walk of the outermost one (`_summands`) derives it. Maps are keyed by
    identity too: each entry of `views` holds its map, since an explorer
    outlives a single build; the builds of one explorer over one domain
    share its maps (`maps`)."""

    def __init__(self, ctx: T.Context):
        super().__init__(ctx)
        # id(term) -> (term, (variables it reads, whether it can terminate))
        self.read_cache: dict = {}
        # (read set, id(map)) -> (map, the map's entries on the read set)
        self.views: dict = {}
        # domain -> every total map over it, enumerated once per explorer
        self.map_cache: dict = {}

    def maps(self, domain: tuple) -> tuple:
        """Every total map over the variables of domain, in the order of
        `enumerate_maps`; each build over domain gets the same map objects,
        so `views` holds one entry per (read set, map value)."""
        hit = self.map_cache.get(domain)
        if hit is None:
            hit = self.map_cache[domain] = tuple(enumerate_maps(domain, self.ctx.carrier))
        return hit

    def _key(self, t, sigma):
        """id(t), and sigma's entries on the variables t reads; under the
        empty map, the one ambient map of a build over no variables, those
        are () whatever t reads, so t's read set is not worked out."""
        if not sigma.entries:
            return id(t), ()
        reads = self._reads(t)[0]
        if not reads:
            return id(t), ()
        at = reads, id(sigma)
        hit = self.views.get(at)
        if hit is None:
            hit = self.views[at] = sigma, tuple(
                entry for entry in sigma.entries if entry[0] in reads)
        return id(t), hit[1]

    def _reads(self, t):
        hit = self.read_cache.get(id(t))
        if hit is None:
            hit = self.read_cache[id(t)] = t, self._read_rules(t)
        return hit[1]

    def _read_rules(self, t):
        """The read set of t, and whether t can terminate under some map,
        judged by its syntax alone."""
        if isinstance(t, T.Atom) and not isinstance(t.action, T.AssignAction):
            # Only synchronization evaluates an action's data under the ambient map.
            return flex_vars(t.action), False
        if isinstance(t, (T.Atom, T.Inaction)):
            return frozenset(), False
        if isinstance(t, T.Alt):
            (left, left_ends), (right, right_ends) = self._reads(t.left), self._reads(t.right)
            return left | right, left_ends or right_ends
        if isinstance(t, (T.Seq, T.Par)):
            # A sequence reads its right side only once its left side can end.
            left, ends = self._reads(t.left)
            if not ends and isinstance(t, T.Seq):
                return left, False
            right, right_ends = self._reads(t.right)
            return left | right, ends and right_ends
        if isinstance(t, T.LeftMerge):
            return self._reads(t.left)[0], False
        if isinstance(t, T.CommMerge):
            return self._reads(t.left)[0] | self._reads(t.right)[0], False
        if isinstance(t, (T.Encap, T.Abstr)):
            return self._reads(t.body)
        if isinstance(t, T.Guard):
            body, ends = self._reads(t.body)
            return flex_vars(t.cond) | body, ends
        if isinstance(t, T.Eval):
            return frozenset(), self._reads(t.body)[1]
        if isinstance(t, T.RecConst):
            try:
                body = T.unfolded(t, self.ctx)
            except GuardednessError:
                # Read all it mentions; its steps raise wherever they reach it.
                return T.occurring_flex_vars(t), True
            return self._reads(body)
        return frozenset(), True  # epsilon, and free recursion variables the steps reject

    def _sync(self, moves_x, moves_y, sigma):
        """Synchronization moves of two move sets under the communication function."""
        carrier = self.ctx.carrier
        out = []
        for ax, tx in moves_x:
            for ay, ty in moves_y:
                c = self.ctx.gamma.communicate(ax, ay)
                if c is None or (isinstance(c, T.ParamAction) and any(
                    eval_data(e1, sigma, carrier) != eval_data(e2, sigma, carrier)
                    for e1, e2 in zip(ax.args, ay.args)
                )):
                    continue
                out.append((c, tx, ty))
        return out

    def derive(self, t: T.ProcTerm, sigma: EvalMap) -> tuple:
        """(moves, ends): the pairs (action, canonical target) derivable for
        t under sigma, and whether t terminates under sigma."""
        key = self._key(t, sigma)
        hit = self.step_cache.get(key)
        if hit is None:
            moves, ends = self._derive(t, sigma)
            hit = self.step_cache[key] = t, (tuple(dict.fromkeys(moves)), ends)
        return hit[1]

    def _derive(self, t, sigma):
        if isinstance(t, (T.Alt, T.Guard)):
            return self._summands(t, sigma)
        if isinstance(t, T.Atom):
            return [(t.action, self._ended())], False
        if isinstance(t, T.Inaction):
            return (), False
        if isinstance(t, T.Empty):
            return (), True
        if isinstance(t, T.Seq):
            moves, ends = self.derive(t.left, sigma)
            out = [(a, self._canon(T.Seq(target, t.right))) for a, target in moves]
            if not ends:
                return out, False
            moves, ends = self.derive(t.right, sigma)
            out += moves
            return out, ends
        if isinstance(t, T.Par):
            left_moves, left_ends = self.derive(t.left, sigma)
            right_moves, right_ends = self.derive(t.right, sigma)
            out = [(a, self._canon(T.Par(tgt, t.right))) for a, tgt in left_moves]
            out += [(a, self._canon(T.Par(t.left, tgt))) for a, tgt in right_moves]
            out += [
                (c, self._canon(T.Par(tx, ty)))
                for c, tx, ty in self._sync(left_moves, right_moves, sigma)
            ]
            return out, left_ends and right_ends
        if isinstance(t, T.LeftMerge):
            return [
                (a, self._canon(T.Par(tgt, t.right)))
                for a, tgt in self.derive(t.left, sigma)[0]
            ], False
        if isinstance(t, T.CommMerge):
            return [
                (c, self._canon(T.Par(tx, ty)))
                for c, tx, ty in self._sync(
                    self.derive(t.left, sigma)[0], self.derive(t.right, sigma)[0], sigma
                )
            ], False
        if isinstance(t, T.Encap):
            moves, ends = self.derive(t.body, sigma)
            return [
                (a, self._canon(T.Encap(t.patterns, tgt)))
                for a, tgt in moves
                if not T.matches_any(a, t.patterns)
            ], ends
        if isinstance(t, T.Abstr):
            moves, ends = self.derive(t.body, sigma)
            out = []
            for a, tgt in moves:
                label = T.TAU if T.matches_any(a, t.patterns) else a
                out.append((label, self._canon(T.Abstr(t.patterns, tgt))))
            return out, ends
        if isinstance(t, T.Eval):
            # An evaluated process steps and terminates whatever the ambient map.
            moves, ends = self.derive(t.body, t.emap)
            return [self._evaluated(a, t.emap, tgt) for a, tgt in moves], ends
        if isinstance(t, T.RecConst):
            return self.derive(T.unfolded(t, self.ctx), sigma)
        if isinstance(t, T.RecVar):
            raise GuardednessError(f"free recursion variable {t.name!r} has no transitions")
        raise TypeError(f"not a process term: {t!r}")

    def _summands(self, t, sigma):
        """Moves and termination of a sum or guard, walked over its `+` spine
        in place: left to right, each guard evaluated under sigma before its
        body, and every other summand taken from the memo; the sum ends when
        a summand does. The sums and guards inside t get no memo entries of
        their own."""
        carrier = self.ctx.carrier
        out, ends = [], False
        stack = [t]
        while stack:
            u = stack.pop()
            cls = type(u)
            if cls is T.Alt:
                stack += (u.right, u.left)
            elif cls is T.Guard:
                if eval_cond(u.cond, sigma, carrier):
                    stack.append(u.body)
            else:
                moves, u_ends = self.derive(u, sigma)
                out += moves
                ends = ends or u_ends
        return out, ends


@dataclass
class SigmaLts:
    """Explored transition system over canonical terms.

    domain lists the flexible variables the ambient maps range over; every
    transition and termination fact is indexed by a total map over domain.
    """

    states: list
    root: int
    domain: tuple
    maps: tuple
    transitions: list  # per state: tuple of (EvalMap, Action, target id)
    terminating: set  # of (state id, EvalMap)

    @property
    def num_transitions(self) -> int:
        return sum(len(ts) for ts in self.transitions)

    def to_json_dict(self) -> dict:
        # Each action is rendered once, and each map's dict is built once and
        # shared by its rows; a map's entries are its sorted items.
        texts = {}
        dicts = {}

        def as_dict(m):
            d = dicts.get(m)
            if d is None:
                d = dicts[m] = m.as_dict()
            return d

        rows = []
        for src, ts in enumerate(self.transitions):
            for sigma, action, tgt in ts:
                text = texts.get(action)
                if text is None:
                    text = texts[action] = render_action(action)
                rows.append((src, sigma.entries, text, tgt, sigma))
        rows.sort(key=lambda r: r[:4])
        trans = [{"from": src, "map": as_dict(sigma), "action": text, "to": tgt}
                 for src, _, text, tgt, sigma in rows]
        facts = sorted(self.terminating, key=lambda f: (f[0], f[1].entries))
        term = [{"state": s, "map": as_dict(m)} for s, m in facts]
        return {
            "states": [render_term(s) for s in self.states],
            "root": self.root,
            "domain": list(self.domain),
            "transitions": trans,
            "terminating": term,
        }


def ambient_domain(t: T.ProcTerm, ctx: T.Context) -> tuple:
    """Declared variables that can influence t's behaviour, in declaration order."""
    occurring = T.occurring_flex_vars(t)
    return tuple(v for v in ctx.decl if v in occurring)


def explore(root: T.ProcTerm, successors, bound: int) -> tuple:
    """Breadth-first closure from root. successors(id, state) yields the
    state's (label, action, target) steps and may record facts of its own
    under the id, such as termination; returns the states, in the order their
    ids are handed out, and per state a tuple of (label, action, target id).

    States are canonical, one object per value, so they are told apart by
    identity; `states` holds every object whose id is a key of `ids`."""
    states = [root]
    ids = {id(root): 0}
    transitions = []
    n_transitions = 0
    for sid, state in enumerate(states):  # states grows while it is walked
        out = []
        for label, action, target in successors(sid, state):
            tid = ids.get(id(target))
            if tid is None:
                tid = len(states)
                if tid >= bound:
                    raise ExplorationLimitError(bound, len(states), n_transitions)
                ids[id(target)] = tid
                states.append(target)
            out.append((label, action, tid))
            n_transitions += 1
        transitions.append(tuple(out))
    return states, transitions


def build_lts(t: T.ProcTerm, ctx: T.Context, domain: Optional[tuple] = None,
              explorer: Optional[_Sos] = None) -> SigmaLts:
    """Breadth-first closure of the step relation over every enumerated map.

    The builds of one query under one context can share the memo tables of
    one explorer, `_Sos(ctx)`; by default each build starts its own."""
    if not T.is_closed(t):
        raise GuardednessError("cannot explore a term with free recursion variables")
    if domain is None:
        domain = ambient_domain(t, ctx)
    domain = tuple(domain)
    sos = _Sos(ctx) if explorer is None else explorer
    maps = sos.maps(domain)
    terminating = set()

    def successors(sid, state):
        for sigma in maps:
            moves, ends = sos.derive(state, sigma)
            for action, target in moves:
                yield sigma, action, target
            if ends:
                terminating.add((sid, sigma))

    states, transitions = explore(T.canonical(t, ctx), successors, ctx.state_bound)
    return SigmaLts(states=states, root=0, domain=domain, maps=maps,
                    transitions=transitions, terminating=terminating)

