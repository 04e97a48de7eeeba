"""Equivalence checking: data-equivalent action classes, rooted branching
bisimulation on map-indexed systems, the condition-labelled analogue decided
per satisfying map, and the agreement experiment."""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from functools import partial
from typing import Optional

from . import terms as T
from .conditions import signature
from .errors import DeacpError, ShapeError
from .parser import render_action, render_term
from .sos_cond import CondLts, _CondSos, build_cond_lts, expand_to_sigma
from .sos_sigma import SigmaLts, _Sos, ambient_domain, build_lts


# --- data-equivalent actions --------------------------------------------------

def _head(alpha: T.Action):
    """The syntactic part of alpha's class key: kind, name and arity, or an
    assignment's variable; the silent step and a basic action are their own
    head."""
    if isinstance(alpha, T.ParamAction):
        return (T.ParamAction, alpha.name, len(alpha.args))
    if isinstance(alpha, T.AssignAction):
        return (T.AssignAction, alpha.var)
    return alpha


def action_class(alpha: T.Action, ctx: T.Context):
    """Key of alpha's data-equivalence class: its head plus the signature
    (value table) of each data argument, so two actions are equivalent
    exactly when their keys are equal."""
    head = _head(alpha)
    if head is alpha:
        return alpha
    data = alpha.args if isinstance(alpha, T.ParamAction) else (alpha.expr,)
    return head + tuple(signature(e, ctx.carrier) for e in data)


def actions_equivalent(a1: T.Action, a2: T.Action, ctx: T.Context) -> bool:
    """The data-equivalence relation on atomic actions and the silent step."""
    return a1 == a2 or (_head(a1) == _head(a2)
                        and action_class(a1, ctx) == action_class(a2, ctx))


# --- results ----------------------------------------------------------------------

@dataclass
class BisimResult:
    equivalent: bool
    counterexample: Optional[dict] = None
    groups: tuple = ()  # (left state ids, right state ids) per block that meets both

    @property
    def relation(self) -> frozenset:
        """The related (left, right) state pairs: every group's product."""
        return frozenset((i, j) for left, right in self.groups for i in left for j in right)

    @property
    def witness(self) -> Optional[tuple]:
        """The relation's pairs in order when the systems are equivalent."""
        return tuple(sorted(self.relation)) if self.equivalent else None

    def to_json_dict(self) -> dict:
        out = {"equivalent": self.equivalent}
        if self.equivalent:
            out["witness"] = [list(p) for p in self.witness]
        else:
            out["counterexample"] = self.counterexample
        return out


_SIDES = ("left", "right")


class _ActionClasses:
    """Ids of the data-equivalence classes of actions in first-seen order,
    with a representative each; the silent step is 0. An action is keyed
    (its data tabulated) only once another action shares its head."""

    def __init__(self, ctx: T.Context):
        self.ctx = ctx
        self.reps = [T.TAU]
        self.ids = {T.TAU: 0}
        self.heads: dict = {}  # head -> its one action while unkeyed, else None
        self.keys: dict = {}  # action_class key -> id

    def __call__(self, action) -> int:
        hit = self.ids.get(action)
        if hit is None:
            head = _head(action)
            if head not in self.heads:
                self.heads[head] = action
                hit = len(self.reps)
            else:
                lone = self.heads[head]
                if lone is not None:
                    self.heads[head] = None
                    self.keys[action_class(lone, self.ctx)] = self.ids[lone]
                hit = self.keys.setdefault(action_class(action, self.ctx), len(self.reps))
            if hit == len(self.reps):
                self.reps.append(action)
            self.ids[action] = hit
        return hit


class _Union:
    """The disjoint union of map-indexed systems over one domain, each
    system's states numbered after the previous one's, with one numbering of
    action classes and maps (from the first system's maps, in order).

    moves[x] maps a map id to the (class id, target) of each step of state x
    under it, and ends with (-1, x) when x terminates under that map.
    """

    def __init__(self, ltss, ctx: T.Context):
        for lts in ltss[1:]:
            if lts.domain != ltss[0].domain:
                raise ShapeError(
                    f"ambient domains differ: {ltss[0].domain} vs {lts.domain}; "
                    "build both systems over the union of their occurring variables"
                )
        self.ltss, self.classes = ltss, _ActionClasses(ctx)
        self.map_id = map_id = {sigma: m for lts in ltss[:1] for m, sigma in enumerate(lts.maps)}
        self.bases, self.roots, self.moves = [], [], []
        for lts in ltss:
            base = len(self.moves)
            self.bases.append(base)
            self.roots.append(base + lts.root)
            for ts in lts.transitions:
                out: dict = {}
                for sigma, action, tgt in ts:
                    out.setdefault(map_id.setdefault(sigma, len(map_id)), []).append(
                        (self.classes(action), base + tgt))
                self.moves.append(out)
            for s, m in sorted((base + s, map_id.setdefault(sigma, len(map_id)))
                               for s, sigma in lts.terminating):
                self.moves[s].setdefault(m, []).append((-1, s))
        self.maps = list(map_id)

    def reach(self, start: int, m: int, keep=None) -> set:
        """The states that silent steps under map id m lead to from start,
        start included; with keep, through states that keep keeps only."""
        seen, frontier = {start}, [start]
        while frontier:
            for c, t in self.moves[frontier.pop()].get(m, ()):
                if not c and t not in seen and (keep is None or keep(t)):
                    seen.add(t)
                    frontier.append(t)
        return seen

    def terminates(self, x: int, m: int) -> bool:
        """Whether state x terminates under map id m."""
        return self.moves[x].get(m, [(0, x)])[-1][0] < 0

    def observers(self) -> tuple:
        """For each root of a pair: its side, its system, the system's first
        union id, the root and the other root."""
        (l1, l2), (b1, b2), (r1, r2) = self.ltss, self.bases, self.roots
        return (("left", l1, b1, r1, r2), ("right", l2, b2, r2, r1))


def _violation(u: _Union, side, kind, sigma, action=None, target=None):
    l1, l2 = u.ltss
    return {
        "left_state": render_term(l1.states[l1.root]),
        "right_state": render_term(l2.states[l2.root]),
        "left_id": l1.root,
        "right_id": l2.root,
        "side": side,
        "kind": kind,
        "map": sigma.as_dict(),
        "action": render_action(action) if action is not None else None,
        "target": render_term(target) if target is not None else None,
    }


def _transfer(u: _Union, related, related_paths: bool):
    """Yield every violation of the transfer conditions by the roots, where
    related(x, y) tells whether two states of the union are related.

    Each step of one side must be answered, under the same map, by the other
    side after silent steps to a state related to the observer: by an
    equivalent step between related targets or, for a silent step, by
    staying there. Each termination must be answered the same way.
    """
    def answers(me, start, m):
        keep = partial(related, me)
        return [v for v in u.reach(start, m, keep if related_paths else None) if keep(v)]

    for side, lts, base, me, start in u.observers():
        for sigma, action, target in lts.transitions[me - base]:
            m, c, t = u.map_id[sigma], u.classes(action), base + target
            if not any((not c and related(t, v))
                       or any(d == c and related(t, w) for d, w in u.moves[v].get(m, ()))
                       for v in answers(me, start, m)):
                yield _violation(u, side, "step", sigma, action, lts.states[target])
    for side, lts, base, me, start in u.observers():
        for m in sorted(m for m in u.moves[me] if u.terminates(me, m)):
            if not any(u.terminates(v, m) for v in answers(me, start, m)):
                yield _violation(u, side, "termination", u.maps[m])


def _root_violations(u: _Union, related):
    """Yield every violation of the root condition: each step of a root is
    answered by a single step of the other root, and both roots terminate
    under the same maps."""
    for side, lts, base, me, other in u.observers():
        for sigma, action, target in lts.transitions[me - base]:
            m, c, t = u.map_id[sigma], u.classes(action), base + target
            if not any(d == c and related(t, w) for d, w in u.moves[other].get(m, ())):
                yield _violation(u, side, "root-step", sigma, action, lts.states[target])
    r1, r2 = u.roots
    for m, sigma in enumerate(u.maps):
        left = u.terminates(r1, m)
        if left != u.terminates(r2, m):
            yield _violation(u, "left" if left else "right", "root-termination", sigma)


def _blocks(u: _Union, related_paths: bool) -> list:
    """Block of each state of the union in the coarsest stable partition.

    Signature refinement after Blom & Orzan (PDMC 2003): a state's signature
    is its block, the (map, action class, target block) of every step it can
    take after silent steps under that map to a state of its own block, and
    the maps under which such a state terminates. A silent step within the
    block is inert and left out. With related_paths the silent steps must
    also stay in the block. Blocks split until no signature splits one.

    Without related_paths each state walks its silent closure under every
    map once, before the first round, and every round reads the moves found.
    With related_paths no state walks a closure. In every round the inert
    steps under each map are condensed into strongly connected components
    (after Groote & Vaandrager, ICALP 1990), sinks first, and a component
    offers each of its members the moves of its members that are not inert
    and all that the components below it offer. A state in no component
    reads its moves directly, and so does every state under a map without
    silent steps.
    """
    moves = u.moves
    if related_paths:
        silent: dict = {}  # map id -> state -> the targets of its silent steps
        for s, out in enumerate(moves):
            for m, ms in out.items():
                for c, t in ms:
                    if not c:
                        silent.setdefault(m, {}).setdefault(s, []).append(t)

        def signatures(block):
            offered = [frozenset()] * len(moves)
            covered = [0] * len(moves)  # under how many of its maps a component offers it
            inside = {}  # map id -> state -> its component
            for m, edges in silent.items():
                inert = {}
                for s, ts in edges.items():
                    kept = [t for t in ts if block[t] == block[s]]
                    if kept:
                        inert[s] = kept
                comp = inside[m] = {}
                offers = []
                for members in T.components_sinks_first(inert, inert):
                    offer = frozenset((m, c, block[t]) for v in members
                                      for c, t in moves[v].get(m, ()) if c or block[t] != block[v])
                    below = {comp[t] for v in members for t in inert.get(v, ()) if t in comp}
                    if below:
                        offer = offer.union(*(offers[k] for k in below))
                    for v in members:
                        comp[v] = len(offers)
                        offered[v] = offered[v] | offer if offered[v] else offer
                        covered[v] += m in moves[v]
                    offers.append(offer)
            for s, sig in enumerate(offered):
                if covered[s] < len(moves[s]):
                    direct = frozenset((m, c, block[t]) for m, ms in moves[s].items()
                                       if s not in inside.get(m, ()) for c, t in ms)
                    sig = sig | direct if sig else direct
                yield sig
    else:
        closures = [[(v, m, c, t) for m in moves[s] for v in u.reach(s, m)
                     for c, t in moves[v].get(m, ())] for s in range(len(moves))]

        def signatures(block):
            return (frozenset((m, c, block[t]) for v, m, c, t in obs
                              if block[v] == b and (c or block[t] != b))
                    for obs, b in zip(closures, block))

    block = [0] * len(moves)
    count = 1
    while True:
        ids: dict = {}
        fresh = [ids.setdefault((b, sig), len(ids)) for b, sig in zip(block, signatures(block))]
        if len(ids) == count:
            return fresh
        block, count = fresh, len(ids)


def _groups(block, n1: int) -> tuple:
    """(left ids, right ids) of every block that meets both systems, where
    the union's states from n1 on are the right system's."""
    members: dict = {}
    for s, b in enumerate(block):
        members.setdefault(b, ([], []))[s >= n1].append(s - n1 if s >= n1 else s)
    return tuple((tuple(left), tuple(right)) for left, right in members.values()
                 if left and right)


def _explain_roots(u: _Union, block, related_paths: bool):
    """Yield the roots' violations against the partition: of the root
    condition when they share a block, else of the transfer conditions
    with the root pair taken as related."""
    r1, r2 = u.roots
    if block[r1] == block[r2]:
        return _root_violations(u, lambda x, y: block[x] == block[y])
    return _transfer(u, lambda x, y: block[x] == block[y] or {x, y} == {r1, r2},
                     related_paths)


def _decide(l1: SigmaLts, l2: SigmaLts, ctx: T.Context, related_paths: bool) -> BisimResult:
    """The greatest relation by signature refinement, then the root
    condition; unrelated roots are explained by their first transfer
    violation against that relation plus the root pair."""
    u = _Union((l1, l2), ctx)
    block = _blocks(u, related_paths)
    cex = next(_explain_roots(u, block, related_paths), None)
    return BisimResult(cex is None, cex, _groups(block, len(l1.states)))


def rooted_branching_bisim(l1: SigmaLts, l2: SigmaLts, ctx: T.Context) -> BisimResult:
    """Rooted branching bisimilarity of two map-indexed systems over one domain."""
    return _decide(l1, l2, ctx, related_paths=False)


def rooted_branching_classes(ltss, ctx: T.Context) -> list:
    """One key per map-indexed system over one domain, such that two systems
    are rooted branching bisimilar exactly when their keys are equal.

    One refinement of the union of all systems gives the root's block, and
    under that partition the root condition compares the (map, action class,
    target block) of the root's direct steps and the maps under which the
    root terminates (class -1, target the root).
    """
    u = _Union(ltss, ctx)
    block = _blocks(u, related_paths=False)
    return [(block[r], frozenset((m, c, block[t]) for m, ms in u.moves[r].items() for c, t in ms))
            for r in u.roots]


def verify_branching_bisimulation(l1: SigmaLts, l2: SigmaLts, groups,
                                  ctx: T.Context) -> list:
    """Check a claimed witness without refining a partition; returns the
    violations found. groups are disjoint (left ids, right ids) whose
    products make up the relation.

    Under each map, a member of a group owes the (action class, target
    group) of each of its steps, except a silent step within its own group,
    and its termination. Each member of the other side must offer all that
    its side owes from the states of its side of the group that its silent
    steps under that map reach. The roots must share a group and satisfy
    the root condition.
    """
    u = _Union((l1, l2), ctx)
    group_of: dict = {}  # union state -> its group
    for g, members in enumerate(groups):
        for k, ids in enumerate(members):
            for s in ids:
                if s not in range(len(u.ltss[k].states)) \
                        or group_of.setdefault(u.bases[k] + s, g) != g:
                    return [{"kind": "bad-member", "side": _SIDES[k], "state": s}]

    def view(states, m, outside):
        """(action class, target group) of the states' moves under map id m,
        and (-1, None) for termination. A target in no group counts as
        outside: "none" in what a member owes, which no offer (None there)
        meets."""
        return {(c, group_of.get(t, outside) if c >= 0 else None)
                for v in states for c, t in u.moves[v].get(m, ())}

    issues = []
    for g, members in enumerate(groups):
        for k in (0, 1):
            debts: dict = {}
            for x in (u.bases[k] + p for p in members[k]):
                for m in u.moves[x]:
                    debts.setdefault(m, set()).update(view([x], m, "none") - {(0, g)})
            for q in members[1 - k]:
                for m, owed in debts.items():
                    reach = [v for v in u.reach(u.bases[1 - k] + q, m) if group_of.get(v) == g]
                    missing = owed - view(reach, m, None)
                    if missing:
                        named = [(render_action(u.classes.reps[c]) if c >= 0 else "termination", t)
                                 for c, t in missing]
                        issues.append({"kind": "unanswered", "side": _SIDES[1 - k], "state": q,
                                       "map": u.maps[m].as_dict(),
                                       "missing": sorted(named, key=repr)})

    def related(x, y):
        return group_of.get(x, -1) == group_of.get(y, -2)

    if not related(*u.roots):
        issues.append({"kind": "root-missing"})
    issues.extend(_root_violations(u, related))
    return issues


# --- the condition-labelled equivalence, decided per satisfying map ---------------

def rooted_ab_bisim(c1: CondLts, c2: CondLts, ctx: T.Context) -> BisimResult:
    """Decide the condition-labelled equivalence of two systems over one
    domain by instantiating every transition at each satisfying map.

    Over a finite carrier each condition denotes a finite set of maps, so the
    finite covering sets in the transfer clauses can always be refined to
    per-map granularity; a silent path matches only if every state it passes
    through stays related to the observing state.
    """
    return _decide(expand_to_sigma(c1, ctx), expand_to_sigma(c2, ctx), ctx, related_paths=True)


# --- convenience entry points ------------------------------------------------------

def build_pair(build, t1: T.ProcTerm, t2: T.ProcTerm, ctx: T.Context, explorer) -> tuple:
    """Both systems a query compares: `build` (`build_lts` or
    `build_cond_lts`) explores each term with `explorer` over the terms'
    shared ambient domain. When the terms have one canonical form, the first
    system serves both sides; compared by identity, never field by field."""
    domain = ambient_domain(t1, t2, ctx=ctx)
    l1 = build(t1, ctx, domain=domain, explorer=explorer)
    same = T.canonical(t1, ctx) is T.canonical(t2, ctx)
    return l1, l1 if same else build(t2, ctx, domain=domain, explorer=explorer)


def decide_rb(t1: T.ProcTerm, t2: T.ProcTerm, ctx: T.Context,
              explorer: Optional[_Sos] = None) -> BisimResult:
    """Rooted branching bisimilarity of two closed terms. Both sides are
    built with one explorer: `explorer`, which a caller passes to share it
    with further builds of its query, or a new one."""
    sos = _Sos(ctx) if explorer is None else explorer
    return rooted_branching_bisim(*build_pair(build_lts, t1, t2, ctx, sos), ctx)


def decide_rab(t1: T.ProcTerm, t2: T.ProcTerm, ctx: T.Context) -> BisimResult:
    """The condition-labelled equivalence of two closed terms, both sides
    built with one explorer."""
    return rooted_ab_bisim(*build_pair(build_cond_lts, t1, t2, ctx, _CondSos(ctx)), ctx)


# --- agreement experiment ----------------------------------------------------------

@dataclass
class ConjectureReport:
    total: int = 0
    both_equivalent: int = 0
    both_inequivalent: int = 0
    rb_only: int = 0
    rab_only: int = 0
    divergent: list = field(default_factory=list)
    skipped: list = field(default_factory=list)

    def to_json_dict(self) -> dict:
        return asdict(self)

    def summary(self) -> str:
        lines = [
            f"pairs checked: {self.total}",
            f"agree (both equivalent): {self.both_equivalent}",
            f"agree (both inequivalent): {self.both_inequivalent}",
            f"divergent (branching only): {self.rb_only}",
            f"divergent (condition-labelled only): {self.rab_only}",
            f"skipped: {len(self.skipped)}",
        ]
        for d in self.divergent:
            lines.append(f"  divergence: {d['left']}  vs  {d['right']}"
                         f"  rb={d['rb']} rab={d['rab']}")
        return "\n".join(lines)


def conjecture_experiment(ctx: T.Context, size: int = 0, seed: int = 0,
                          pairs=None) -> ConjectureReport:
    """Compare the two equivalences on a corpus of term pairs — randomly
    generated (`gen.pair_corpus`), or supplied explicitly.

    A divergence is reported as a finding, never raised as a failure.
    """
    if pairs is None:
        from . import gen

        pairs = gen.pair_corpus(ctx, size, seed=seed)
    report = ConjectureReport()
    for t1, t2 in pairs:
        report.total += 1
        try:
            rb = decide_rb(t1, t2, ctx).equivalent
            rab = decide_rab(t1, t2, ctx).equivalent
        except DeacpError as exc:
            report.skipped.append({
                "left": render_term(t1), "right": render_term(t2),
                "reason": str(exc),
            })
            report.total -= 1
            continue
        if rb and rab:
            report.both_equivalent += 1
        elif not rb and not rab:
            report.both_inequivalent += 1
        else:
            if rb:
                report.rb_only += 1
            else:
                report.rab_only += 1
            report.divergent.append({
                "left": render_term(t1), "right": render_term(t2),
                "rb": rb, "rab": rab,
            })
    return report
