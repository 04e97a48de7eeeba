"""Recursive rendering with one function per sort: an independent oracle for
the layout table of deacp.parser.

This is the renderer deacp used before its iterative rewrite. It recurses
once per nesting level, so it fails on deep terms.
"""

from deacp import conditions as C
from deacp import data_algebra as D
from deacp import terms as T


def render_data(e: D.DataTerm, prec: int = 0) -> str:
    if isinstance(e, D.Lit):
        return str(e.value)
    if isinstance(e, D.Flex) or isinstance(e, D.DVar):
        return e.name
    if isinstance(e, D.App):
        mine = 2 if e.op == "*" else 1
        left = render_data(e.args[0], mine)
        right = render_data(e.args[1], mine + 1)
        text = f"{left} {e.op} {right}"
        return f"({text})" if mine < prec else text
    raise TypeError(f"not a data term: {e!r}")


def render_cond(phi: C.Condition, prec: int = 0) -> str:
    if isinstance(phi, C.CTrue):
        return "true"
    if isinstance(phi, C.CFalse):
        return "false"
    if isinstance(phi, (C.Forall, C.Exists)):
        kw = "forall" if isinstance(phi, C.Forall) else "exists"
        text = f"{kw} {phi.var}. {render_cond(phi.body, 0)}"
        return f"({text})" if prec > 0 else text
    if isinstance(phi, C.Implies):
        text = f"{render_cond(phi.left, 2)} -> {render_cond(phi.right, 1)}"
        return f"({text})" if prec > 1 else text
    if isinstance(phi, C.Or):
        text = f"{render_cond(phi.left, 2)} or {render_cond(phi.right, 3)}"
        return f"({text})" if prec > 2 else text
    if isinstance(phi, C.And):
        text = f"{render_cond(phi.left, 3)} and {render_cond(phi.right, 4)}"
        return f"({text})" if prec > 3 else text
    if isinstance(phi, C.Not):
        return f"not {render_cond(phi.body, 5)}"
    if isinstance(phi, C.Cmp):
        text = f"{render_data(phi.left)} {phi.op} {render_data(phi.right)}"
        return f"({text})" if prec > 4 else text
    raise TypeError(f"not a condition: {phi!r}")


def render_action(alpha: T.Action) -> str:
    if isinstance(alpha, T.TauAction):
        return "tau"
    if isinstance(alpha, T.BasicAction):
        return alpha.name
    if isinstance(alpha, T.ParamAction):
        return f"{alpha.name}({', '.join(render_data(a) for a in alpha.args)})"
    if isinstance(alpha, T.AssignAction):
        return f"{alpha.var} := {render_data(alpha.expr)}"
    raise TypeError(f"not an action: {alpha!r}")


def render_map(emap: D.EvalMap) -> str:
    return "{" + ", ".join(f"{n} = {v}" for n, v in emap.entries) + "}"


def _ends_in_assignment(t: T.ProcTerm) -> bool:
    if isinstance(t, T.Atom):
        return isinstance(t.action, T.AssignAction)
    if isinstance(t, T.BINARY):
        return _ends_in_assignment(t.right)
    if isinstance(t, T.Guard):
        return _ends_in_assignment(t.body)
    return False


def render_term(t: T.ProcTerm, prec: int = 0) -> str:
    if isinstance(t, T.Inaction):
        return "delta"
    if isinstance(t, T.Empty):
        return "epsilon"
    if isinstance(t, T.Atom):
        return render_action(t.action)
    if isinstance(t, T.RecVar):
        return t.name
    if isinstance(t, T.Alt):
        left = render_term(t.left, 1)
        # A trailing data expression would swallow the '+' on re-parsing.
        if _ends_in_assignment(t.left):
            left = f"({left})"
        text = f"{left} + {render_term(t.right, 2)}"
        return f"({text})" if prec > 1 else text
    if isinstance(t, T.Guard):
        text = f"[{render_cond(t.cond)}] -> {render_term(t.body, 2)}"
        return f"({text})" if prec > 2 else text
    if isinstance(t, (T.Par, T.LeftMerge, T.CommMerge)):
        op = {"Par": "||", "LeftMerge": "||_", "CommMerge": "|"}[type(t).__name__]
        text = f"{render_term(t.left, 3)} {op} {render_term(t.right, 4)}"
        return f"({text})" if prec > 3 else text
    if isinstance(t, T.Seq):
        text = f"{render_term(t.left, 4)} . {render_term(t.right, 5)}"
        return f"({text})" if prec > 4 else text
    if isinstance(t, (T.Encap, T.Abstr)):
        kw = "encap" if isinstance(t, T.Encap) else "hide"
        pats = ", ".join(p.render() for p in t.patterns)
        return f"{kw}{{{pats}}}({render_term(t.body)})"
    if isinstance(t, T.Eval):
        return f"eval{render_map(t.emap)}({render_term(t.body)})"
    if isinstance(t, T.RecConst):
        eqs = ", ".join(f"{n} = {render_term(rhs)}" for n, rhs in t.spec.equations)
        return f"rec {t.var} where {{ {eqs} }}"
    raise TypeError(f"not a process term: {t!r}")
