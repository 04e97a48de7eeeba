"""Per-map exploration: an independent oracle for deacp.sos_sigma.build_lts
and SigmaLts.to_json_dict, and comparisons of explored systems.

It derives every state under every ambient map in turn, whatever variables
the state reads, and renders the JSON export with a fresh map dict per row.
Its explorer, `PerMapSos`, memoizes moves and termination per (subterm,
whole map), so it derives every subterm under every map that reaches it;
`build_lts` derives a subterm once per assignment of values to the variables
the subterm reads. `PerMapSos` derives a sum from its two sides and a guard
from its body, each through the memo, and evaluates guards with the reference
interpreter of validity_oracle; `build_lts` walks a sum's summands in place.
It writes its own rules for sequence and merge, so their termination is
checked against rules that `build_lts` does not share.
"""

from deacp import terms as T
from deacp.data_algebra import enumerate_maps
from deacp.errors import GuardednessError
from deacp.parser import render_action, render_term
from deacp.sos_sigma import SigmaLts, _Sos, ambient_domain, explore
from validity_oracle import eval_cond


class PerMapSos(_Sos):
    """`_Sos` keyed by the whole map, with the recursive rules for sums and
    guards and its own rules for sequence and merge: x . y steps as x does,
    and as y does once x can end, and ends when both end; x || y steps as
    either side does or as both synchronize, and ends when both end."""

    def _key(self, t, sigma):
        return t, sigma

    def _derive(self, t, sigma):
        if isinstance(t, T.Alt):
            (left, left_ends), (right, right_ends) = (
                self.derive(t.left, sigma), self.derive(t.right, sigma))
            return left + right, left_ends or right_ends
        if isinstance(t, T.Guard):
            if eval_cond(t.cond, sigma, self.ctx.carrier):
                return self.derive(t.body, sigma)
            return (), False
        if isinstance(t, T.Seq):
            left, left_ends = self.derive(t.left, sigma)
            right, right_ends = self.derive(t.right, sigma) if left_ends else ((), False)
            moves = [(a, self._canon(T.Seq(x, t.right))) for a, x in left]
            return moves + list(right), left_ends and right_ends
        if isinstance(t, T.Par):
            (left, left_ends), (right, right_ends) = (
                self.derive(t.left, sigma), self.derive(t.right, sigma))
            pairs = [(a, x, t.right) for a, x in left] + [(a, t.left, y) for a, y in right]
            pairs += self._sync(left, right, sigma)
            return [(a, self._canon(T.Par(x, y))) for a, x, y in pairs], left_ends and right_ends
        return super()._derive(t, sigma)


def build_lts(t, ctx, domain=None) -> SigmaLts:
    if not T.is_closed(t):
        raise GuardednessError("cannot explore a term with free recursion variables")
    if domain is None:
        domain = ambient_domain(t, ctx)
    maps = tuple(enumerate_maps(domain, ctx.carrier))
    sos = PerMapSos(ctx)
    terminating = set()

    def successors(sid, state):
        for sigma in maps:
            moves, ends = sos.derive(state, sigma)
            for action, target in moves:
                yield sigma, action, target
            if ends:
                terminating.add((sid, sigma))

    states, transitions = explore(T.canonical(t, ctx), successors, ctx.state_bound)
    return SigmaLts(states=states, root=0, domain=tuple(domain), maps=maps,
                    transitions=transitions, terminating=terminating)


def to_json_dict(lts: SigmaLts) -> dict:
    trans = []
    for src, ts in enumerate(lts.transitions):
        for sigma, action, tgt in ts:
            trans.append(
                {
                    "from": src,
                    "map": sigma.as_dict(),
                    "action": render_action(action),
                    "to": tgt,
                }
            )
    trans.sort(key=lambda d: (d["from"], sorted(d["map"].items()), d["action"], d["to"]))
    term = sorted(
        [{"state": s, "map": m.as_dict()} for s, m in lts.terminating],
        key=lambda d: (d["state"], sorted(d["map"].items())),
    )
    return {
        "states": [render_term(s) for s in lts.states],
        "root": lts.root,
        "domain": list(lts.domain),
        "transitions": trans,
        "terminating": term,
    }


def tau_free(lts: SigmaLts) -> bool:
    """Whether no transition of lts is a silent step."""
    return not any(isinstance(a, T.TauAction) for ts in lts.transitions for _, a, _ in ts)


def lts_equal_up_to_renaming(l1: SigmaLts, l2: SigmaLts) -> bool:
    """Equality of two explored systems keyed by canonical state terms."""
    if l1.domain != l2.domain:
        return False
    if set(l1.states) != set(l2.states):
        return False
    if l1.states[l1.root] != l2.states[l2.root]:
        return False
    def edge_set(l):
        out = set()
        for src, ts in enumerate(l.transitions):
            for sigma, action, tgt in ts:
                out.add((l.states[src], sigma, action, l.states[tgt]))
        return out
    if edge_set(l1) != edge_set(l2):
        return False
    term1 = {(l1.states[s], m) for s, m in l1.terminating}
    term2 = {(l2.states[s], m) for s, m in l2.terminating}
    return term1 == term2
