"""Per-map exploration: an independent oracle for deacp.sos_sigma.build_lts
and SigmaLts.to_json_dict.

It derives every state under every ambient map in turn, whatever variables
the state reads, and renders the JSON export with a fresh map dict per row.
Its explorer, `PerMapSos`, memoizes moves and termination per (subterm,
whole map), so it derives every subterm under every map that reaches it;
`build_lts` derives a subterm once per assignment of values to the variables
the subterm reads. `PerMapSos` derives a sum from its two sides and a guard
from its body, each through the memo, and evaluates guards with the reference
interpreter of validity_oracle; `build_lts` walks a sum's summands in place.
"""

from deacp import terms as T
from deacp.data_algebra import FlexVarDecl, enumerate_maps
from deacp.errors import GuardednessError
from deacp.parser import render_action, render_term
from deacp.sos_sigma import SigmaLts, _Sos, ambient_domain, explore
from validity_oracle import eval_cond


class PerMapSos(_Sos):
    """`_Sos` keyed by the whole map, with the recursive rules for sums and
    guards."""

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
        return super()._derive(t, sigma)


def build_lts(t, ctx, domain=None) -> SigmaLts:
    if not T.is_closed(t):
        raise GuardednessError("cannot explore a term with free recursion variables")
    if domain is None:
        domain = ambient_domain(t, ctx)
    maps = tuple(enumerate_maps(FlexVarDecl(tuple(domain)), ctx.carrier, ctx.enum_bound))
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
