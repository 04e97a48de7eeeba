"""Greatest-fixpoint pair refinement: an independent oracle for the
signature-refinement engine of deacp.bisim.

It starts from all cross pairs of two map-indexed systems and deletes every
pair that violates a transfer condition, in lexicographic order, until a
pass deletes nothing. A step must be answered after silent steps under the
same map. With related_paths=False (rooted branching bisimilarity) only the
state the silent path ends in must be related to the observing state; with
related_paths=True (the condition-labelled equivalence) every state on the
path must be. Two actions match when tests/validity_oracle.py finds
their data equal under every map, not by the engine's class keys.
"""

import functools
import itertools

from deacp import terms as T
from validity_oracle import actions_equivalent


def silent_closure(lts, state, sigma) -> frozenset:
    """States reachable from state through silent steps under sigma, reflexively."""
    seen = {state}
    frontier = [state]
    while frontier:
        s = frontier.pop()
        for sig, action, tgt in lts.transitions[s]:
            if sig == sigma and isinstance(action, T.TauAction) and tgt not in seen:
                seen.add(tgt)
                frontier.append(tgt)
    return frozenset(seen)


class _System:
    def __init__(self, lts):
        self.lts = lts
        self.moves = [{} for _ in lts.transitions]
        for state, ts in enumerate(lts.transitions):
            for sigma, action, tgt in ts:
                self.moves[state].setdefault(sigma, []).append((action, tgt))
        self.closures = {}

    def answers(self, start, sigma, related, related_paths):
        """States a silent path from start under sigma may answer from."""
        if not related_paths:
            key = (start, sigma)
            if key not in self.closures:
                self.closures[key] = silent_closure(self.lts, start, sigma)
            return [u for u in self.closures[key] if related(u)]
        seen, frontier = {start}, [start]
        while frontier:
            u = frontier.pop()
            for action, tgt in self.moves[u].get(sigma, ()):
                if isinstance(action, T.TauAction) and tgt not in seen and related(tgt):
                    seen.add(tgt)
                    frontier.append(tgt)
        return seen


def _transfer_ok(s1, s2, rel, i, j, acts_eq, related_paths):
    sides = ((s1, i, s2, j, lambda x, y: (x, y)), (s2, j, s1, i, lambda x, y: (y, x)))
    for mine, me, other, start, pair in sides:
        def related(u):
            return pair(me, u) in rel

        for sigma, action, target in mine.lts.transitions[me]:
            silent = isinstance(action, T.TauAction)
            if not any(
                (silent and pair(target, u) in rel)
                or any(acts_eq(action, a) and pair(target, t) in rel
                       for a, t in other.moves[u].get(sigma, ()))
                for u in other.answers(start, sigma, related, related_paths)
            ):
                return False
        for sid, sigma in mine.lts.terminating:
            if sid == me and not any(
                (u, sigma) in other.lts.terminating
                for u in other.answers(start, sigma, related, related_paths)
            ):
                return False
    return True


def _memo_equivalence(ctx):
    """actions_equivalent under ctx, each pair decided once."""
    @functools.cache
    def acts_eq(a, b):
        return actions_equivalent(a, b, ctx)
    return acts_eq


def greatest_relation(l1, l2, ctx, related_paths=False) -> frozenset:
    """The greatest relation between the states of l1 and l2 that satisfies
    the transfer conditions."""
    s1, s2 = _System(l1), _System(l2)
    acts_eq = _memo_equivalence(ctx)
    rel = set(itertools.product(range(len(l1.states)), range(len(l2.states))))
    changed = True
    while changed:
        changed = False
        for pair in sorted(rel):
            if not _transfer_ok(s1, s2, rel, *pair, acts_eq, related_paths):
                rel.discard(pair)
                changed = True
    return frozenset(rel)


def root_condition(l1, l2, rel, ctx) -> bool:
    """The roots are related, each root step is answered by a single step
    of the other root, and both roots terminate under the same maps."""
    if (l1.root, l2.root) not in rel:
        return False
    acts_eq = _memo_equivalence(ctx)
    sides = ((l1, l1.root, l2, l2.root, lambda x, y: (x, y)),
             (l2, l2.root, l1, l1.root, lambda x, y: (y, x)))
    for mine, me, other, start, pair in sides:
        for sigma, action, target in mine.transitions[me]:
            if not any(s == sigma and acts_eq(action, a)
                       and pair(target, t) in rel
                       for s, a, t in other.transitions[start]):
                return False
    return all(((l1.root, sigma) in l1.terminating) == ((l2.root, sigma) in l2.terminating)
               for sigma in l1.maps)


def decide(l1, l2, ctx, related_paths=False) -> tuple:
    """(verdict, greatest relation) by pair refinement."""
    rel = greatest_relation(l1, l2, ctx, related_paths)
    return root_condition(l1, l2, rel, ctx), rel


def is_rooted_witness(l1, l2, rel, ctx) -> bool:
    """The per-pair witness check: every pair of rel meets the transfer
    conditions against rel (silent paths may pass any state), and the roots
    meet the root condition."""
    s1, s2 = _System(l1), _System(l2)
    acts_eq = _memo_equivalence(ctx)
    return root_condition(l1, l2, rel, ctx) and all(
        _transfer_ok(s1, s2, rel, i, j, acts_eq, False) for i, j in sorted(rel))
