"""Map-by-map validity: an independent oracle for deacp.conditions.signature
and the action-class keys of deacp.bisim.

`cond_signature` builds a condition's truth table as a dict and drops each
variable whose value never matters by checking every pair of maps that
differ in it alone. `actions_equivalent` compares two data terms by
evaluating both under every map over the union of their variables.
"""

import itertools

from deacp import terms as T
from deacp.conditions import eval_cond
from deacp.data_algebra import EvalMap, FlexVarDecl, enumerate_maps, eval_data, flex_vars
from deacp.errors import EnumerationLimitError


def cond_signature(phi, carrier, bound):
    names = sorted(flex_vars(phi))
    count = carrier.size ** len(names)
    if count > bound:
        raise EnumerationLimitError(count, bound, "condition valuations")
    values = list(carrier.values())
    table = {}
    for combo in itertools.product(values, repeat=len(names)):
        sigma = EvalMap(tuple(zip(names, combo)))
        table[combo] = eval_cond(phi, sigma, carrier)
    influential = []
    for pos, name in enumerate(names):
        if any(table[combo[:pos] + (alt,) + combo[pos + 1:]] != result
               for combo, result in table.items() for alt in values):
            influential.append(name)
    positions = [names.index(v) for v in influential]
    reduced = {tuple(combo[p] for p in positions): result for combo, result in table.items()}
    return tuple(influential), tuple(reduced[k] for k in sorted(reduced))


def data_equal_valid(e1, e2, ctx) -> bool:
    if e1 == e2:
        return True
    names = tuple(sorted(flex_vars(e1) | flex_vars(e2)))
    return all(eval_data(e1, sigma, ctx.carrier) == eval_data(e2, sigma, ctx.carrier)
               for sigma in enumerate_maps(FlexVarDecl(names), ctx.carrier, ctx.enum_bound))


def actions_equivalent(a1, a2, ctx) -> bool:
    if a1 == a2:
        return True
    if isinstance(a1, T.ParamAction) and isinstance(a2, T.ParamAction):
        return (a1.name == a2.name and len(a1.args) == len(a2.args)
                and all(data_equal_valid(e1, e2, ctx) for e1, e2 in zip(a1.args, a2.args)))
    if isinstance(a1, T.AssignAction) and isinstance(a2, T.AssignAction):
        return a1.var == a2.var and data_equal_valid(a1.expr, a2.expr, ctx)
    return False
