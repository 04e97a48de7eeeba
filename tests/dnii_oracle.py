"""Pairwise data non-interference: an independent oracle for
deacp.security.check_dnii.

For each low part it decides every unordered pair of high maps, in
itertools.combinations order, with its own rooted branching bisimilarity
check, builds each variant system when a pair first needs it, and stops at
the first inequivalent pair.
"""

import itertools

from deacp import terms as T
from deacp.bisim import rooted_branching_bisim
from deacp.data_algebra import ENUM_BOUND, EvalMap, enumerate_maps
from deacp.errors import DeclarationError, EnumerationLimitError
from deacp.security import DniiVerdict, _observed_term, derive_sets
from deacp.sos_sigma import build_lts


def check_dnii(spec, ctx) -> DniiVerdict:
    sets = derive_sets(spec, ctx)
    if not T.is_closed(spec.process):
        raise DeclarationError("the analyzed process must be closed")
    occurring = T.all_flex_vars(spec.process)
    low_occ = tuple(v for v in ctx.decl if v in spec.low and v in occurring)
    default = 0 if 0 in ctx.carrier else ctx.carrier.lo
    base = {v: default for v in ctx.decl}

    low_maps = enumerate_maps(low_occ, ctx.carrier)
    high_maps = enumerate_maps(sets.high, ctx.carrier)
    total = len(low_maps) * len(high_maps) * (len(high_maps) - 1) // 2
    if total > ENUM_BOUND:
        raise EnumerationLimitError(total, ENUM_BOUND, "map pairs")

    pairs_checked = 0
    for low_part in low_maps:
        systems: dict = {}

        def lts_for(sigma):
            if sigma not in systems:
                systems[sigma] = build_lts(_observed_term(spec, sets, sigma), ctx, domain=())
            return systems[sigma]

        for h1, h2 in itertools.combinations(high_maps, 2):
            sigma = EvalMap.of({**base, **low_part.as_dict(), **h1.as_dict()})
            sigma_prime = EvalMap.of({**base, **low_part.as_dict(), **h2.as_dict()})
            result = rooted_branching_bisim(lts_for(sigma), lts_for(sigma_prime), ctx)
            pairs_checked += 1
            if not result.equivalent:
                return DniiVerdict(False, sets, pairs_checked, sigma, sigma_prime,
                                   result.counterexample)
    return DniiVerdict(True, sets, pairs_checked)
