"""Map-by-map validity: an independent oracle for deacp.conditions.signature,
the evaluators and the action-class keys of deacp.bisim.

`eval_cond` and `eval_data` are the reference interpreters of conditions and
data terms: one `isinstance` test per construct, in the order of the
grammar, with a lambda per operator and `Carrier.clamp` for saturation.
`cond_signature` builds a condition's truth table as a dict and drops each
variable whose value never matters by checking every pair of maps that
differ in it alone. `actions_equivalent` compares two data terms by
evaluating both under every map over the union of their variables.
"""

import itertools

from deacp import terms as T
from deacp.conditions import And, CFalse, Cmp, CTrue, Exists, Forall, Implies, Not, Or
from deacp.data_algebra import ENUM_BOUND, App, DVar, EvalMap, Flex, Lit, enumerate_maps, flex_vars
from deacp.errors import EnumerationLimitError, MalformedConditionError

CMP = {
    "=": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}

ARITH = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
}


def eval_data(e, sigma, carrier, bindings=None):
    if isinstance(e, Lit):
        return carrier.clamp(e.value)
    if isinstance(e, Flex):
        return sigma.value(e.name)
    if isinstance(e, DVar):
        if bindings is not None and e.name in bindings:
            return bindings[e.name]
        raise MalformedConditionError(f"free data variable {e.name!r}")
    if isinstance(e, App):
        left = eval_data(e.args[0], sigma, carrier, bindings)
        right = eval_data(e.args[1], sigma, carrier, bindings)
        return carrier.clamp(ARITH[e.op](left, right))
    raise TypeError(f"not a data term: {e!r}")


def eval_cond(phi, sigma, carrier, bindings=None):
    if isinstance(phi, CTrue):
        return True
    if isinstance(phi, CFalse):
        return False
    if isinstance(phi, Cmp):
        return CMP[phi.op](eval_data(phi.left, sigma, carrier, bindings),
                           eval_data(phi.right, sigma, carrier, bindings))
    if isinstance(phi, Not):
        return not eval_cond(phi.body, sigma, carrier, bindings)
    if isinstance(phi, And):
        return (eval_cond(phi.left, sigma, carrier, bindings)
                and eval_cond(phi.right, sigma, carrier, bindings))
    if isinstance(phi, Or):
        return (eval_cond(phi.left, sigma, carrier, bindings)
                or eval_cond(phi.right, sigma, carrier, bindings))
    if isinstance(phi, Implies):
        return (not eval_cond(phi.left, sigma, carrier, bindings)
                or eval_cond(phi.right, sigma, carrier, bindings))
    if isinstance(phi, (Forall, Exists)):
        # Every value is tried, so an error at any value is raised.
        inner = dict(bindings) if bindings else {}
        results = []
        for value in carrier.values():
            inner[phi.var] = value
            results.append(eval_cond(phi.body, sigma, carrier, inner))
        return all(results) if isinstance(phi, Forall) else any(results)
    raise TypeError(f"not a condition: {phi!r}")


def cond_signature(phi, carrier):
    names = sorted(flex_vars(phi))
    count = carrier.size ** len(names)
    if count > ENUM_BOUND:
        raise EnumerationLimitError(count, ENUM_BOUND, "condition valuations")
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
               for sigma in enumerate_maps(names, ctx.carrier))


def actions_equivalent(a1, a2, ctx) -> bool:
    if a1 == a2:
        return True
    if isinstance(a1, T.ParamAction) and isinstance(a2, T.ParamAction):
        return (a1.name == a2.name and len(a1.args) == len(a2.args)
                and all(data_equal_valid(e1, e2, ctx) for e1, e2 in zip(a1.args, a2.args)))
    if isinstance(a1, T.AssignAction) and isinstance(a2, T.AssignAction):
        return a1.var == a2.var and data_equal_valid(a1.expr, a2.expr, ctx)
    return False
