"""Seeded random generation: data terms, conditions, processes, guarded
linear specifications, axiom instances, and sound rewrite sequences."""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from typing import Optional

from . import axioms as AX
from . import terms as T
from .conditions import And, CFalse, Cmp, Exists, Forall, Implies, Not, Or, TRUE, Condition
from .data_algebra import App, Carrier, EvalMap, Flex, FlexVarDecl, Lit, map_children, subterms
from .errors import DeacpError


@dataclass
class GenConfig:
    max_depth: int = 3
    data_depth: int = 2
    cond_depth: int = 2
    action_names: tuple = ("a", "b", "c")
    param_arities: dict = field(default_factory=lambda: {"a": (1,), "b": (1,)})
    flex_vars: tuple = ("u", "v")
    allow_tau: bool = True
    allow_eval: bool = True
    allow_rec: bool = True
    allow_abstr: bool = False
    allow_par: bool = True
    bool_cond_only: bool = False  # guards drawn from constant-valued conditions


MAX_REWRITE_STEPS = 3  # the most rewrites rewritten_pair draws by default
MAX_TERM_SIZE = 120  # no rewrite may grow a term past this many nodes


def default_context(config: Optional[GenConfig] = None) -> T.Context:
    config = config or GenConfig()
    return T.Context(
        carrier=Carrier(-4, 3),
        decl=FlexVarDecl(config.flex_vars),
        gamma=T.CommFunction.of({("a", "b"): "c"}),
    )


def random_data(rng: random.Random, cfg: GenConfig, ctx: T.Context, depth=None):
    depth = cfg.data_depth if depth is None else depth
    choices = ["lit", "var"] if cfg.flex_vars else ["lit"]
    if depth > 0:
        choices.append("app")
    kind = rng.choice(choices)
    if kind == "lit":
        return Lit(rng.randint(ctx.carrier.lo, ctx.carrier.hi))
    if kind == "var":
        return Flex(rng.choice(cfg.flex_vars))
    op = rng.choice(("+", "-", "*"))
    return App(op, (random_data(rng, cfg, ctx, depth - 1),
                    random_data(rng, cfg, ctx, depth - 1)))


def random_cond(rng: random.Random, cfg: GenConfig, ctx: T.Context, depth=None) -> Condition:
    if cfg.bool_cond_only:
        return constant_cond(rng, cfg, ctx)
    depth = cfg.cond_depth if depth is None else depth
    if depth <= 0:
        kind = rng.choice(("true", "false", "cmp", "cmp"))
    else:
        kind = rng.choice(("cmp", "cmp", "not", "and", "or", "implies", "quant"))
    if kind == "true":
        return TRUE
    if kind == "false":
        return CFalse()
    if kind == "cmp":
        op = rng.choice(("=", "!=", "<", "<=", ">", ">="))
        return Cmp(op, random_data(rng, cfg, ctx, 1), random_data(rng, cfg, ctx, 1))
    if kind == "not":
        return Not(random_cond(rng, cfg, ctx, depth - 1))
    if kind == "quant":
        from .data_algebra import DVar
        var = "x"
        body = Cmp(rng.choice(("=", "<=", ">")), DVar(var),
                   random_data(rng, cfg, ctx, 1))
        return Forall(var, body) if rng.random() < 0.5 else Exists(var, body)
    node = {"and": And, "or": Or, "implies": Implies}[kind]
    return node(random_cond(rng, cfg, ctx, depth - 1),
                random_cond(rng, cfg, ctx, depth - 1))


def random_action(rng: random.Random, cfg: GenConfig, ctx: T.Context,
                  tau_ok: bool = True) -> T.Action:
    kinds = ["basic", "basic", "param", "assign"]
    if tau_ok and cfg.allow_tau:
        kinds.append("tau")
    kind = rng.choice(kinds)
    if kind == "tau":
        return T.TAU
    if kind == "basic":
        return T.BasicAction(rng.choice(cfg.action_names))
    if kind == "param":
        named = [n for n in cfg.action_names if cfg.param_arities.get(n)]
        if not named:
            return T.BasicAction(rng.choice(cfg.action_names))
        name = rng.choice(named)
        arity = rng.choice(cfg.param_arities[name])
        return T.ParamAction(name, tuple(random_data(rng, cfg, ctx, 1)
                                         for _ in range(arity)))
    if not cfg.flex_vars:
        return T.BasicAction(rng.choice(cfg.action_names))
    return T.AssignAction(rng.choice(cfg.flex_vars), random_data(rng, cfg, ctx, 1))


def random_patterns(rng: random.Random, cfg: GenConfig) -> tuple:
    pats = []
    for name in cfg.action_names:
        if rng.random() < 0.4:
            pats.append(T.ActionPattern("name", name))
    if cfg.flex_vars and rng.random() < 0.2:
        pats.append(T.ActionPattern("assign", rng.choice(cfg.flex_vars)))
    if not pats:
        pats.append(T.ActionPattern("name", rng.choice(cfg.action_names)))
    return T.pattern_set(pats)


def random_emap(rng: random.Random, ctx: T.Context) -> EvalMap:
    return EvalMap.of({
        name: rng.randint(ctx.carrier.lo, ctx.carrier.hi) for name in ctx.decl
    })


def random_glrs(rng: random.Random, cfg: GenConfig, ctx: T.Context,
                tau_ok: bool = True, prefix: str = "R") -> T.RecSpec:
    """A small guarded linear specification; silent prefixes only point at
    later variables, which rules out unguarded cycles by construction."""
    n = rng.randint(1, 3)
    names = [f"{prefix}{i}" for i in range(n)]
    equations = []
    for i, name in enumerate(names):
        k = rng.randint(1, 2)
        parts = []
        for _ in range(k):
            cond = TRUE if rng.random() < 0.6 else random_cond(rng, cfg, ctx, 1)
            if rng.random() < 0.3:
                parts.append(T.Guard(cond, T.EPSILON))
            else:
                alpha = random_action(rng, cfg, ctx, tau_ok=tau_ok)
                if isinstance(alpha, T.TauAction) and i + 1 < n:
                    target = rng.choice(names[i + 1:])
                elif isinstance(alpha, T.TauAction):
                    parts.append(T.Guard(cond, T.EPSILON))
                    continue
                else:
                    target = rng.choice(names)
                parts.append(T.Guard(cond, T.Seq(T.Atom(alpha), T.RecVar(target))))
        equations.append((name, T.alt_fold(parts)))
    spec = T.RecSpec(tuple(equations))
    assert T.is_guarded_linear_spec(spec)
    return spec


def random_proc(rng: random.Random, cfg: GenConfig, ctx: T.Context,
                depth: Optional[int] = None, tau_ok: bool = True) -> T.ProcTerm:
    """A random closed process term."""
    depth = cfg.max_depth if depth is None else depth
    leaves = ["atom", "atom", "delta", "epsilon"]
    if depth <= 0:
        kind = rng.choice(leaves)
    else:
        kinds = leaves + ["alt", "alt", "seq", "seq", "guard"]
        if cfg.allow_par:
            kinds += ["par", "leftmerge", "commmerge"]
        kinds += ["encap"]
        if cfg.allow_abstr:
            kinds += ["abstr"]
        if cfg.allow_eval:
            kinds += ["eval"]
        if cfg.allow_rec:
            kinds += ["rec"]
        kind = rng.choice(kinds)
    if kind == "delta":
        return T.DELTA
    if kind == "epsilon":
        return T.EPSILON
    if kind == "atom":
        return T.Atom(random_action(rng, cfg, ctx, tau_ok=tau_ok))
    if kind == "alt":
        return T.Alt(random_proc(rng, cfg, ctx, depth - 1, tau_ok),
                     random_proc(rng, cfg, ctx, depth - 1, tau_ok))
    if kind == "seq":
        return T.Seq(random_proc(rng, cfg, ctx, depth - 1, tau_ok),
                     random_proc(rng, cfg, ctx, depth - 1, tau_ok))
    if kind == "par":
        return T.Par(random_proc(rng, cfg, ctx, depth - 1, tau_ok),
                     random_proc(rng, cfg, ctx, depth - 1, tau_ok))
    if kind == "leftmerge":
        return T.LeftMerge(random_proc(rng, cfg, ctx, depth - 1, tau_ok),
                           random_proc(rng, cfg, ctx, depth - 1, tau_ok))
    if kind == "commmerge":
        return T.CommMerge(random_proc(rng, cfg, ctx, depth - 1, tau_ok),
                           random_proc(rng, cfg, ctx, depth - 1, tau_ok))
    if kind == "guard":
        return T.Guard(random_cond(rng, cfg, ctx),
                       random_proc(rng, cfg, ctx, depth - 1, tau_ok))
    if kind == "encap":
        return T.Encap(random_patterns(rng, cfg),
                       random_proc(rng, cfg, ctx, depth - 1, tau_ok))
    if kind == "abstr":
        return T.Abstr(random_patterns(rng, cfg),
                       random_proc(rng, cfg, ctx, depth - 1, tau_ok))
    if kind == "eval":
        return T.Eval(random_emap(rng, ctx),
                      random_proc(rng, cfg, ctx, depth - 1, tau_ok))
    spec = random_glrs(rng, cfg, ctx, tau_ok=tau_ok,
                       prefix=f"G{rng.randint(0, 999)}_")
    return T.RecConst(spec.variables[0], spec)


# --- axiom instances -----------------------------------------------------------

def _pattern_for(alpha: T.Action) -> T.ActionPattern:
    if isinstance(alpha, T.BasicAction):
        return T.ActionPattern("name", alpha.name)
    if isinstance(alpha, T.ParamAction):
        return T.ActionPattern("arity", alpha.name, len(alpha.args))
    if isinstance(alpha, T.AssignAction):
        return T.ActionPattern("assign", alpha.var)
    raise DeacpError("the silent step has no pattern")


def _fill_metavars(pattern, rng, cfg, ctx, binding, tau_ok):
    """Draw a value for each metavariable of pattern not yet bound, in
    pre-order from left to right."""
    for mv in subterms(pattern):
        if not isinstance(mv, AX.MetaVar) or mv.name in binding:
            continue
        kind = mv.kind
        if kind == "proc":
            binding[mv.name] = random_proc(rng, cfg, ctx, rng.randint(0, 2), tau_ok)
        elif kind == "atom_td":
            roll = rng.random()
            if roll < 0.15:
                binding[mv.name] = T.DELTA
            elif roll < 0.35 and tau_ok and cfg.allow_tau:
                binding[mv.name] = T.Atom(T.TAU)
            else:
                binding[mv.name] = T.Atom(random_action(rng, cfg, ctx, tau_ok=False))
        elif kind == "basic":
            binding[mv.name] = T.BasicAction(rng.choice(cfg.action_names))
        elif kind == "cond":
            binding[mv.name] = random_cond(rng, cfg, ctx)
        elif kind == "emap":
            binding[mv.name] = random_emap(rng, ctx)
        elif kind == "patset":
            binding[mv.name] = random_patterns(rng, cfg)
        else:
            raise DeacpError(f"unknown metavariable kind {kind!r}")


def _equal_data_variant(rng, e):
    variant = rng.choice(("plus0", "times1", "zero_plus"))
    if variant == "plus0":
        return App("+", (e, Lit(0)))
    if variant == "times1":
        return App("*", (e, Lit(1)))
    return App("+", (Lit(0), e))


def _equiv_cond_variant(rng, phi):
    variant = rng.choice(("notnot", "and_true", "or_false", "or_self"))
    if variant == "notnot":
        return Not(Not(phi))
    if variant == "and_true":
        return And(phi, TRUE)
    if variant == "or_false":
        return Or(phi, CFalse())
    return Or(phi, phi)


def constant_cond(rng: random.Random, cfg: GenConfig, ctx: T.Context) -> Condition:
    """A condition with a constant truth value, in assorted spellings."""
    if not cfg.flex_vars:
        return rng.choice((TRUE, CFalse()))
    v = Flex(rng.choice(cfg.flex_vars))
    tautologies = [
        TRUE,
        Cmp("=", v, v),
        Cmp(">=", v, Lit(ctx.carrier.lo)),
        Or(Cmp("<", v, Lit(0)), Cmp(">=", v, Lit(0))),
    ]
    contradictions = [CFalse(), Not(Cmp("=", v, v)), Cmp("<", v, v)]
    return rng.choice(tautologies if rng.random() < 0.7 else contradictions)


def axiom_instance(name: str, rng: random.Random, cfg: GenConfig,
                   ctx: T.Context) -> tuple:
    """A random closed instance (lhs, rhs) of the named axiom schema."""
    axiom = AX.AXIOMS[name]
    tau_ok = not axiom.tau_free_only

    if name == "IMP1":
        e = random_data(rng, cfg, ctx, 1)
        e2 = _equal_data_variant(rng, e)
        if cfg.flex_vars and rng.random() < 0.5:
            var = rng.choice(cfg.flex_vars)
            return T.Atom(T.AssignAction(var, e)), T.Atom(T.AssignAction(var, e2))
        act = rng.choice([n for n in cfg.action_names])
        return T.Atom(T.ParamAction(act, (e,))), T.Atom(T.ParamAction(act, (e2,)))
    if name == "IMP2":
        phi = random_cond(rng, cfg, ctx)
        x = random_proc(rng, cfg, ctx, 1)
        return T.Guard(phi, x), T.Guard(_equiv_cond_variant(rng, phi), x)
    if name == "V3":
        emap = random_emap(rng, ctx)
        act = rng.choice([n for n in cfg.action_names])
        args = tuple(random_data(rng, cfg, ctx, 1) for _ in range(rng.randint(1, 2)))
        x = random_proc(rng, cfg, ctx, 1)
        lhs = T.Eval(emap, T.Seq(T.Atom(T.ParamAction(act, args)), x))
        return lhs, axiom.forward(lhs, ctx)
    if name == "V4":
        emap = random_emap(rng, ctx)
        var = rng.choice(cfg.flex_vars)
        lhs = T.Eval(emap, T.Seq(T.Atom(T.AssignAction(var, random_data(rng, cfg, ctx, 1))),
                                 random_proc(rng, cfg, ctx, 1)))
        return lhs, axiom.forward(lhs, ctx)
    if name == "CM7Da":
        pairs = [(a, b) for (a, b), c in ctx.gamma.table]
        if not pairs:
            raise DeacpError("CM7Da needs a communication table")
        a, b = rng.choice(pairs)
        arity = rng.randint(1, 2)
        args1 = tuple(random_data(rng, cfg, ctx, 1) for _ in range(arity))
        args2 = tuple(random_data(rng, cfg, ctx, 1) for _ in range(arity))
        lhs = T.CommMerge(
            T.Seq(T.Atom(T.ParamAction(a, args1)), random_proc(rng, cfg, ctx, 1)),
            T.Seq(T.Atom(T.ParamAction(b, args2)), random_proc(rng, cfg, ctx, 1)),
        )
        return lhs, axiom.forward(lhs, ctx)
    if name in ("CM7Db", "CM7Dc", "CM7Dd", "CM7De", "CM7Df"):
        x = random_proc(rng, cfg, ctx, 1)
        y = random_proc(rng, cfg, ctx, 1)
        def param(n_args):
            act = rng.choice(cfg.action_names)
            return T.Atom(T.ParamAction(
                act, tuple(random_data(rng, cfg, ctx, 1) for _ in range(n_args))))
        def assign():
            return T.Atom(T.AssignAction(rng.choice(cfg.flex_vars),
                                         random_data(rng, cfg, ctx, 1)))
        def nonparam():
            return rng.choice([
                T.Atom(T.BasicAction(rng.choice(cfg.action_names))),
                T.Atom(T.TAU), assign(),
            ])
        if name == "CM7Db":
            if rng.random() < 0.5:
                left, right = param(1), param(2)
            else:
                # same arity but no communication result
                uncomm = [n for n in cfg.action_names
                          if all(ctx.gamma.result(n, m) is None for m in cfg.action_names)]
                act = rng.choice(uncomm) if uncomm else cfg.action_names[0]
                left = T.Atom(T.ParamAction(act, (random_data(rng, cfg, ctx, 1),)))
                right = T.Atom(T.ParamAction(act, (random_data(rng, cfg, ctx, 1),)))
                if ctx.gamma.result(act, act) is not None:
                    left, right = param(1), param(2)
        elif name == "CM7Dc":
            left, right = param(rng.randint(1, 2)), nonparam()
        elif name == "CM7Dd":
            left, right = nonparam(), param(rng.randint(1, 2))
        elif name == "CM7De":
            left, right = assign(), rng.choice([param(1), nonparam()])
        else:
            left, right = rng.choice([param(1), nonparam()]), assign()
        return T.CommMerge(T.Seq(left, x), T.Seq(right, y)), T.DELTA
    if name == "RDP":
        spec = random_glrs(rng, cfg, ctx)
        var = rng.choice(spec.variables)
        const = T.RecConst(var, spec)
        return const, T.unfold(const)

    for _ in range(64):
        binding: dict = {}
        _fill_metavars(axiom.lhs, rng, cfg, ctx, binding, tau_ok)
        # bindings for these schemas are drawn to meet their side conditions
        alpha = binding.get("alpha")
        if name == "BED":
            binding["phi"] = constant_cond(rng, cfg, ctx)
        elif name in ("D2", "T2"):
            if not isinstance(alpha, T.Atom) or isinstance(alpha.action, T.TauAction):
                alpha = binding["alpha"] = T.Atom(random_action(rng, cfg, ctx, tau_ok=False))
            binding["H"] = T.pattern_set(set(binding["H"]) | {_pattern_for(alpha.action)})
        elif name in ("D1", "T1") and isinstance(alpha, T.Atom):
            binding["H"] = T.pattern_set(p for p in binding["H"] if not p.matches(alpha.action))
        lhs = AX.instantiate(axiom.lhs, binding)
        rhs = axiom.forward(lhs, ctx)
        if rhs is not None:
            return lhs, rhs
    raise DeacpError(f"could not satisfy the side condition of {name}")


# --- rewriting -------------------------------------------------------------------

def term_size(t: T.ProcTerm) -> int:
    """Process-term nodes in t, carried specifications included."""
    return sum(isinstance(u, T.ProcTerm) for u in subterms(t, T.PROCESS_LEAVES))


def subterm_paths(t: T.ProcTerm, path=()) -> list:
    """Rewrite positions: every subterm not under a carried specification."""
    out = [(path, t)]
    for idx, child in enumerate(T.children(t)):
        out.extend(subterm_paths(child, path + (idx,)))
    return out


def replace_at(t: T.ProcTerm, path: tuple, new: T.ProcTerm) -> T.ProcTerm:
    """t with the subterm at path, a position of subterm_paths, replaced by new."""
    if not path:
        return new
    position = itertools.count()

    def at(c):
        if isinstance(c, T.ProcTerm) and next(position) == path[0]:
            return replace_at(c, path[1:], new)
        return c
    return map_children(t, at)


def apply_random_rewrite(t: T.ProcTerm, rng: random.Random, cfg: GenConfig,
                         ctx: T.Context, pool=None):
    """One random sound axiom application at a random position, either
    direction; None when nothing applies."""
    pool = list(pool if pool is not None else AX.REWRITE_POOL)
    positions = subterm_paths(t)
    rng.shuffle(positions)
    for path, sub in positions:
        names = list(pool)
        rng.shuffle(names)
        for name in names:
            axiom = AX.AXIOMS[name]
            directions = ["forward", "backward"]
            rng.shuffle(directions)
            for direction in directions:
                result = getattr(axiom, direction)(sub, ctx)
                if result is None or result == sub:
                    continue
                candidate = replace_at(t, path, result)
                if term_size(candidate) > MAX_TERM_SIZE:
                    continue
                return candidate, (name, direction, path)
    return None


def rewritten_pair(rng: random.Random, cfg: GenConfig, ctx: T.Context,
                   base: Optional[T.ProcTerm] = None, steps: Optional[int] = None,
                   pool=None) -> tuple:
    """(t, t') with t' obtained from t by a few sound rewrites, plus the trail."""
    t = base if base is not None else random_proc(rng, cfg, ctx)
    steps = steps if steps is not None else rng.randint(1, MAX_REWRITE_STEPS)
    current = t
    trail = []
    for _ in range(steps):
        out = apply_random_rewrite(current, rng, cfg, ctx, pool=pool)
        if out is None:
            break
        current, applied = out
        trail.append(applied)
    return t, current, trail


def pair_corpus(ctx: T.Context, size: int, seed: int = 0):
    """Corpus for the agreement experiment: axiom instances, rewritten pairs,
    and independent random pairs, one third each."""
    cfg = GenConfig(max_depth=2)
    rng = random.Random(seed)
    out = []
    suite = [n for n in AX.SOUNDNESS_SUITE if n != "CM1E"]
    while len(out) < size:
        mode = len(out) % 3
        try:
            if mode == 0:
                out.append(axiom_instance(rng.choice(suite), rng, cfg, ctx))
            elif mode == 1:
                t1, t2, _ = rewritten_pair(rng, cfg, ctx)
                out.append((t1, t2))
            else:
                out.append((random_proc(rng, cfg, ctx, 2), random_proc(rng, cfg, ctx, 2)))
        except DeacpError:
            continue
    return out


# Rewrites that preserve the bool-conditional property: splitting or merging
# guard conditions can expose contingent subconditions, so those two stay out.
BOOL_COND_POOL = [n for n in AX.REWRITE_POOL if n not in ("GC6", "GC7")]


def bool_cond_hide_term(rng: random.Random, cfg: GenConfig, ctx: T.Context,
                        hidden: str) -> T.ProcTerm:
    """A closed bool-conditional term containing an abstraction over a
    conservative silent cluster, composed with random surroundings."""
    spec, root, patterns = cluster_spec(rng, cfg, ctx, hidden,
                                        prefix=f"K{rng.randint(0, 999)}_")
    core = T.Abstr(patterns, T.RecConst(root, spec))
    bc = GenConfig(
        max_depth=1,
        action_names=cfg.action_names,
        param_arities=cfg.param_arities,
        flex_vars=cfg.flex_vars,
        allow_eval=False,
        allow_rec=False,
        allow_par=False,
        bool_cond_only=True,
    )
    side = random_proc(rng, bc, ctx, 1)
    shape = rng.random()
    if shape < 0.4:
        return T.Alt(core, side) if rng.random() < 0.5 else T.Alt(side, core)
    if shape < 0.8:
        return T.Seq(side, core) if rng.random() < 0.5 else T.Seq(core, side)
    return core


def cluster_spec(rng: random.Random, cfg: GenConfig, ctx: T.Context,
                 hidden: str, size: Optional[int] = None, prefix: str = "C") -> tuple:
    """A specification with one conservative cycle of hidden moves plus exits.

    Returns (spec, root variable, hide patterns); every cluster member can
    reach every exit through the cycle.
    """
    size = size if size is not None else rng.randint(2, 3)
    visible = [n for n in cfg.action_names if n != hidden]
    names = [f"{prefix}{i}" for i in range(size)]
    exit_var = f"{prefix}X"
    equations = []
    for i, name in enumerate(names):
        nxt = names[(i + 1) % size]
        parts = [T.Guard(TRUE, T.Seq(T.Atom(T.BasicAction(hidden)), T.RecVar(nxt)))]
        if rng.random() < 0.8 or i == 0:
            act = rng.choice(visible)
            parts.append(T.Guard(TRUE, T.Seq(T.Atom(T.BasicAction(act)), T.RecVar(exit_var))))
        equations.append((name, T.alt_fold(parts)))
    equations.append((exit_var, T.Guard(TRUE, T.EPSILON)))
    spec = T.RecSpec(tuple(equations))
    return spec, names[0], (T.ActionPattern("name", hidden),)
