"""Linearization to guarded linear recursive specifications, cluster
analysis with the fair-abstraction rewrite, and certificate-producing
equality proofs."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from typing import Optional

from . import axioms as AX
from . import terms as T
from .bisim import (
    decide_rb,
    rooted_branching_bisim,
    shared_domain,
    verify_branching_bisimulation,
)
from .conditions import And, CFalse, Cmp, CTrue, Or, TRUE, constant_value, eval_cond
from .data_algebra import map_children
from .errors import (
    CfarInapplicableError,
    DeacpError,
    GuardednessError,
    UnsupportedFragmentError,
)
from .parser import render_term
from .sos_sigma import _Sos, build_lts


# --- proof certificates -----------------------------------------------------

@dataclass
class ProofStep:
    rule: str  # axiom name, LIN, RSP, CFAR, BED, IMP2
    before: T.ProcTerm
    after: T.ProcTerm
    role: str = "chain"  # chain | lemma
    details: dict = field(default_factory=dict)
    witness: Optional[tuple] = None  # an RSP step's groups, the one part not printed

    def to_json_dict(self) -> dict:
        return {
            "rule": self.rule,
            "role": self.role,
            "before": render_term(self.before),
            "after": render_term(self.after),
            "details": self.details,
        }


@dataclass
class ProofCertificate:
    left: T.ProcTerm
    right: T.ProcTerm
    steps: list

    def to_json_dict(self) -> dict:
        return {
            "left": render_term(self.left),
            "right": render_term(self.right),
            "steps": [s.to_json_dict() for s in self.steps],
        }

    def render_text(self) -> str:
        """One derivation step per line."""
        lines = [f"prove  {render_term(self.left)}  =  {render_term(self.right)}"]
        for step in self.steps:
            tag = "" if step.role == "chain" else " (lemma)"
            lines.append(
                f"  [{step.rule}]{tag}  {render_term(step.before)}"
                f"  =  {render_term(step.after)}"
            )
        return "\n".join(lines)


# --- summand tables -----------------------------------------------------------
#
# A table maps variable names to lists of summands (cond, action, target);
# action None encodes a termination summand, in which case target is None.

def _conj(phi, psi):
    if isinstance(phi, CTrue):
        return psi
    if isinstance(psi, CTrue):
        return phi
    return And(phi, psi)


def _disjoin(conds):
    """Guard of a termination summand that absorbs summands guarded by conds:
    true when one of them is, else their left-nested disjunction."""
    if any(isinstance(c, CTrue) for c in conds):
        return TRUE
    return reduce(Or, conds)


def spec_to_table(spec: T.RecSpec) -> dict:
    return {name: [T.summand_parts(s) for s in T.summands(rhs)]
            for name, rhs in spec.equations}


def _summand(row) -> T.ProcTerm:
    """The summand a (condition, action, target) row stands for; no action
    means termination."""
    cond, action, target = row
    if action is None:
        return T.Guard(cond, T.EPSILON)
    return T.Guard(cond, T.Seq(T.Atom(action), T.RecVar(target)))


def table_to_spec(table: dict, order) -> T.RecSpec:
    return T.RecSpec(tuple((name, T.alt_fold(list(map(_summand, table[name]))))
                          for name in order))


def _trim(table: dict, root: str) -> list:
    """Variables reachable from the root, in breadth-first order."""
    order = [root]
    seen = {root}
    idx = 0
    while idx < len(order):
        for _, action, target in table[order[idx]]:
            if target is not None and target not in seen:
                seen.add(target)
                order.append(target)
        idx += 1
    return order


# --- the linearizer -----------------------------------------------------------

class _Linearizer:
    def __init__(self, ctx: T.Context):
        self.ctx = ctx
        self.table: dict = {}
        self.counter = 0
        self.cfar_steps: list = []
        self.bed_steps: list = []

    def fresh(self) -> str:
        self.counter += 1
        return f"L{self.counter}"

    def define(self, rows) -> str:
        name = self.fresh()
        self.table[name] = [r for r in rows if not isinstance(r[0], CFalse)]
        return name

    # -- entry ------------------------------------------------------------------

    def run(self, t: T.ProcTerm) -> tuple:
        root = self.build(t)
        order = _trim(self.table, root)
        spec = table_to_spec({n: self.table[n] for n in order}, order)
        if not T.is_guarded_linear_spec(spec):
            raise GuardednessError("linearization produced an unguarded specification")
        return spec, root

    # -- per-operator constructions ----------------------------------------------

    def build(self, t: T.ProcTerm) -> str:
        if isinstance(t, T.Inaction):
            return self.define([])
        if isinstance(t, T.Empty):
            return self.define([(TRUE, None, None)])
        if isinstance(t, T.Atom):
            end = self.define([(TRUE, None, None)])
            return self.define([(TRUE, t.action, end)])
        if isinstance(t, T.RecConst):
            T.require_glrs(t.spec)
            mapping = {name: self.fresh() for name in t.spec.variables}
            for name, rows in spec_to_table(t.spec).items():
                self.table[mapping[name]] = [
                    (cond, action, mapping[target] if target is not None else None)
                    for cond, action, target in rows
                    if not isinstance(cond, CFalse)
                ]
            return mapping[t.var]
        if isinstance(t, T.Alt):
            left = self.build(t.left)
            right = self.build(t.right)
            return self.define(list(self.table[left]) + list(self.table[right]))
        if isinstance(t, T.Seq):
            right_root = self.build(t.right)
            left_root = self.build(t.left)
            return self.seq_image(left_root, right_root)
        if isinstance(t, T.Guard):
            body = self.build(t.body)
            return self.define([
                (_conj(t.cond, cond), action, target)
                for cond, action, target in self.table[body]
            ])
        if isinstance(t, T.Encap):
            body = self.build(t.body)
            return self.filter_image(body, t.patterns)
        if isinstance(t, T.Abstr):
            body = self.build(t.body)
            return self.collapse_abstraction(body, t.patterns)
        if isinstance(t, T.Eval):
            body = self.build(t.body)
            return self.eval_image(body, t.emap)
        if isinstance(t, (T.Par, T.LeftMerge, T.CommMerge)):
            left = self.build(t.left)
            right = self.build(t.right)
            mode = {"Par": "par", "LeftMerge": "lm", "CommMerge": "cm"}[type(t).__name__]
            return self.merge_image(left, right, mode)
        if isinstance(t, T.RecVar):
            raise GuardednessError(f"free recursion variable {t.name!r} cannot be linearized")
        raise TypeError(f"not a process term: {t!r}")

    def image(self, start, rows_of) -> str:
        """Fresh variables for the keys reachable from start: a key is named
        when first seen and expanded last-in, first-out into
        rows_of(key, name_of), where name_of(key) names a target key."""
        mapping: dict = {}
        worklist: list = []

        def name_of(key):
            if key not in mapping:
                mapping[key] = self.fresh()
                worklist.append(key)
            return mapping[key]

        root = name_of(start)
        while worklist:
            key = worklist.pop()
            self.table[mapping[key]] = [r for r in rows_of(key, name_of)
                                        if not isinstance(r[0], CFalse)]
        return root

    def seq_image(self, left_root: str, right_root: str) -> str:
        """Sequential composition: termination summands of the left part splice
        in the right root's summands under guard conjunction."""
        def rows_of(src, name_of):
            rows = []
            for cond, action, target in self.table[src]:
                if action is None:
                    for rcond, raction, rtarget in self.table[right_root]:
                        rows.append((_conj(cond, rcond), raction, rtarget))
                else:
                    rows.append((cond, action, name_of(target)))
            return rows
        return self.image(left_root, rows_of)

    def filter_image(self, root: str, patterns: tuple) -> str:
        """Encapsulation: summands whose action a pattern selects are dropped."""
        def rows_of(src, name_of):
            rows = []
            for cond, action, target in self.table[src]:
                if action is None:
                    rows.append((cond, None, None))
                elif isinstance(action, T.TauAction) or not T.matches_any(action, patterns):
                    rows.append((cond, action, name_of(target)))
            return rows
        return self.image(root, rows_of)

    def eval_image(self, root: str, emap) -> str:
        """Index variables with the carried map; conditions resolve, data
        arguments evaluate, and assignments update the carried map."""
        carrier = self.ctx.carrier

        def rows_of(key, name_of):
            var, rho = key
            rows = []
            for cond, action, target in self.table[var]:
                if not eval_cond(cond, rho, carrier):
                    continue
                if action is None:
                    rows.append((TRUE, None, None))
                else:
                    label, after = T.eval_action(action, rho, carrier)
                    rows.append((TRUE, label, name_of((target, after))))
            return rows
        return self.image((root, emap), rows_of)

    def merge_image(self, left_root: str, right_root: str, mode: str) -> str:
        """Products over variable pairs; interleaving, synchronization with
        conjoined guards and data-equality conditions, joint termination."""
        gamma = self.ctx.gamma

        def rows_of(key, name_of):
            kind, lv, rv = key
            lrows, rrows = self.table[lv], self.table[rv]
            rows = []
            if kind in ("par", "lm"):
                for cond, action, target in lrows:
                    if action is not None:
                        rows.append((cond, action, name_of(("par", target, rv))))
            if kind == "par":
                for cond, action, target in rrows:
                    if action is not None:
                        rows.append((cond, action, name_of(("par", lv, target))))
            if kind in ("par", "cm"):
                for lcond, laction, ltarget in lrows:
                    for rcond, raction, rtarget in rrows:
                        c = gamma.communicate(laction, raction)  # None for termination rows
                        if c is None:
                            continue
                        cond = _conj(lcond, rcond)
                        if isinstance(c, T.ParamAction):
                            for e1, e2 in zip(laction.args, raction.args):
                                cond = _conj(cond, Cmp("=", e1, e2))
                        rows.append((cond, c, name_of(("par", ltarget, rtarget))))
            if kind == "par":
                for lcond, laction, _ in lrows:
                    if laction is not None:
                        continue
                    for rcond, raction, _ in rrows:
                        if raction is None:
                            rows.append((_conj(lcond, rcond), None, None))
            return rows
        return self.image((mode, left_root, right_root), rows_of)

    # -- abstraction: rename, absorb pure silent chains, collapse clusters ---------

    def collapse_abstraction(self, root: str, patterns: tuple) -> str:
        order = _trim(self.table, root)
        sub = {name: list(self.table[name]) for name in order}
        self._replace_pure_tau(sub, root)
        clusters = _find_clusters(sub, order, patterns)
        for info in clusters:
            if info.cyclic and not info.is_cluster:
                raise CfarInapplicableError(
                    "a silent cycle is not confined to a conservative cluster: "
                    + ", ".join(info.members)
                )
        member_cluster = {}
        for info in clusters:
            if info.cyclic:
                for m in info.members:
                    member_cluster[m] = info

        def rename(row, mapping):
            cond, action, target = row
            if action is None:
                return (cond, None, None)
            renamed = T.TAU if (not isinstance(action, T.TauAction)
                                and T.matches_any(action, patterns)) else action
            return (cond, renamed, mapping[target])

        mapping = {name: self.fresh() for name in order}
        cluster_vars = {}
        for info in clusters:
            if info.cyclic:
                cluster_vars[info] = self.fresh()
        for info in clusters:
            if not info.cyclic:
                continue
            self.table[cluster_vars[info]] = [
                rename(row, mapping) for row in info.exit_rows
            ]
        for name in order:
            info = member_cluster.get(name)
            if info is None:
                self.table[mapping[name]] = [
                    rename(row, mapping) for row in sub[name]
                ]
            else:
                rows = [(TRUE, T.TAU, cluster_vars[info])]
                for row in sub[name]:
                    if not _internal_row(row, info.member_set, patterns):
                        rows.append(rename(row, mapping))
                self.table[mapping[name]] = rows
        # Record the fair-abstraction lemmas behind each collapsed cluster.
        spec = table_to_spec({n: sub[n] for n in order}, order)
        for info in clusters:
            if info.cyclic:
                self.cfar_steps.append(_cfar_step(spec, info, patterns))
        return mapping[root]

    def _replace_pure_tau(self, sub: dict, root: str):
        """Non-root equations consisting solely of silent prefixes to
        pure-termination variables become termination summands."""
        def is_pure_eps(name):
            return sub[name] == [(TRUE, None, None)]

        changed = True
        while changed:
            changed = False
            for name in sub:
                if name == root or not sub[name]:
                    continue
                rows = sub[name]
                if all(
                    action is not None and isinstance(action, T.TauAction)
                    and is_pure_eps(target)
                    for _, action, target in rows
                ) and not is_pure_eps(name):
                    merged = _disjoin([cond for cond, _, _ in rows])
                    before = T.alt_fold(list(map(_summand, rows)))
                    after = T.Guard(merged, T.EPSILON)
                    sub[name] = [(merged, None, None)]
                    self.bed_steps.append(ProofStep(
                        "BED", before, after, role="lemma",
                        details={"variable": name,
                                 "note": "pure silent equation absorbed"},
                    ))
                    changed = True


def _internal_row(row, member_set, patterns) -> bool:
    cond, action, target = row
    if action is None or target not in member_set:
        return False
    if not isinstance(cond, CTrue):
        return False
    return isinstance(action, T.TauAction) or T.matches_any(action, patterns)


# --- cluster analysis ----------------------------------------------------------

@dataclass(frozen=True)
class ClusterInfo:
    members: tuple
    member_set: frozenset
    cyclic: bool
    is_cluster: bool
    exit_rows: tuple  # summand rows leaving the cluster, in specification order

    @property
    def exit_terms(self) -> tuple:
        return tuple(map(_summand, self.exit_rows))


def _find_clusters(table: dict, order: list, patterns: tuple) -> list:
    """Every strongly connected component of the hidden moves, with its exit
    rows, whether it is a cluster and whether a hidden move stays inside.
    A component's members reach one another by hidden moves, so every
    cluster found is conservative: each member reaches each exit."""
    everything = frozenset(order)
    edges = {
        name: [row[2] for row in table[name] if _internal_row(row, everything, patterns)]
        for name in order
    }
    infos = []
    for members in T.strong_components(order, edges):
        member_set = frozenset(members)
        is_cluster, cyclic = True, False
        exits: dict = {}  # insertion-ordered set of rows
        for name in members:
            for row in table[name]:
                if row[1] is not None and row[2] in member_set:
                    if _internal_row(row, member_set, patterns):
                        cyclic = True
                        continue
                    is_cluster = False
                exits[row] = None
        infos.append(ClusterInfo(members, member_set, cyclic, is_cluster, tuple(exits)))
    return infos


def analyze_clusters(spec: T.RecSpec, patterns: tuple) -> list:
    """The clusters among the maximal strongly connected components of the
    hidden moves, with their exit sets."""
    if not T.is_linear_spec(spec):
        raise GuardednessError("cluster analysis needs a linear specification")
    infos = _find_clusters(spec_to_table(spec), list(spec.variables), patterns)
    return [c for c in infos if c.is_cluster]


def _cfar_step(spec: T.RecSpec, info: ClusterInfo, patterns: tuple,
               member: Optional[str] = None) -> ProofStep:
    var = member if member is not None else info.members[0]
    closed_exits = [
        T.subst_rec_vars(term, {name: T.RecConst(name, spec)
                                for name in spec.variables})
        for term in info.exit_terms
    ]
    lhs = T.Seq(T.Atom(T.TAU), T.Abstr(patterns, T.RecConst(var, spec)))
    rhs = T.Seq(T.Atom(T.TAU), T.Abstr(patterns, T.alt_fold(closed_exits)))
    return ProofStep(
        "CFAR", lhs, rhs, role="lemma",
        details={
            "cluster": list(info.members),
            "exits": [render_term(t) for t in info.exit_terms],
            "hide": [p.render() for p in patterns],
        },
    )


def apply_cfar(spec: T.RecSpec, var: str, patterns: tuple) -> tuple:
    """The fair-abstraction equation for var's cluster: returns the rewritten
    right-hand side (under the silent prefix) and the certifying step."""
    if var not in spec:
        raise DeacpError(f"no equation for {var!r}")
    infos = _find_clusters(spec_to_table(spec), list(spec.variables), patterns)
    info = next(c for c in infos if var in c.member_set)
    if info.is_cluster:
        step = _cfar_step(spec, info, tuple(patterns), member=var)
        return step.after, step
    if info.cyclic:
        raise CfarInapplicableError(f"{var!r} lies on a silent cycle that is not a cluster")
    raise CfarInapplicableError(f"no conservative cluster contains {var!r}")


# --- condition normalization (the bool-conditional gate) ---------------------------

def normalize_conditions(t: T.ProcTerm, ctx: T.Context) -> tuple:
    """Replace every condition by its constant truth value; errors out on
    contingent conditions."""
    replaced = []

    def norm_cond(phi):
        if isinstance(phi, (CTrue, CFalse)):
            return phi
        value = constant_value(phi, ctx.decl, ctx.carrier)
        if value is None:
            raise UnsupportedFragmentError(
                "condition is contingent; outside the bool-conditional fragment"
            )
        replaced.append((phi, value))
        return TRUE if value else CFalse()

    def walk(u):
        if isinstance(u, T.Guard):
            return T.Guard(norm_cond(u.cond), walk(u.body))
        if type(u) in T.PROCESS_LEAVES:
            return u
        return map_children(u, walk)

    return walk(t), replaced


# --- public pipeline ----------------------------------------------------------------

def linearize(t: T.ProcTerm, ctx: T.Context) -> tuple:
    """Guarded linear recursive specification provably equal to the given
    closed abstraction-free term; returns (spec, designated variable)."""
    if not T.is_closed(t):
        raise GuardednessError("cannot linearize a term with free recursion variables")
    if T.contains_abstraction(t):
        raise UnsupportedFragmentError(
            "abstraction operators need the bool-conditional pipeline"
        )
    return _Linearizer(ctx).run(t)


def _lin_step(source: T.ProcTerm, const: T.RecConst, construction: str) -> ProofStep:
    """The step from a term to the linear specification that construction,
    replayed on the source, builds for it."""
    return ProofStep("LIN", source, const, details={"construction": construction})


def normalize_bool_conditional(t: T.ProcTerm, ctx: T.Context) -> tuple:
    """Like linearize but for closed bool-conditional terms, eliminating
    abstraction through cluster collapse; returns (spec, variable, certificate)."""
    if not T.is_closed(t):
        raise GuardednessError("cannot linearize a term with free recursion variables")
    normalized, replaced = normalize_conditions(t, ctx)
    steps = []
    if replaced:
        steps.append(ProofStep(
            "IMP2", t, normalized,
            details={"replaced": [
                (render_term(T.Guard(phi, T.EPSILON)), value) for phi, value in replaced
            ]},
        ))
    engine = _Linearizer(ctx)
    spec, root = engine.run(normalized)
    const = T.RecConst(root, spec)
    steps.append(_lin_step(normalized, const, "normalize_bool_conditional"))
    certificate = ProofCertificate(t, const, steps + engine.bed_steps + engine.cfar_steps)
    return spec, root, certificate


# --- equality proofs ------------------------------------------------------------------

@dataclass
class ProveResult:
    equal: bool
    certificate: Optional[ProofCertificate] = None
    counterexample: Optional[dict] = None

    def to_json_dict(self) -> dict:
        if self.equal:
            return {"equal": True, "certificate": self.certificate.to_json_dict()}
        return {"equal": False, "counterexample": self.counterexample}


def _swap_step(step: ProofStep) -> ProofStep:
    return ProofStep(step.rule, step.after, step.before, role=step.role,
                     details=dict(step.details, direction="reverse"))


def prove_equal(t1: T.ProcTerm, t2: T.ProcTerm, ctx: T.Context) -> ProveResult:
    """Decide derivable equality of two closed terms in the supported
    fragments and assemble a replayable certificate. The query explores
    with one explorer: both sides, then both linear forms."""
    sos = _Sos(ctx)
    result = decide_rb(t1, t2, ctx, explorer=sos)
    if not result.equivalent:
        return ProveResult(False, counterexample=result.counterexample)

    axiom = AX.recognize_axiom(t1, t2, ctx)
    if axiom is not None:
        cert = ProofCertificate(t1, t2, [ProofStep(axiom, t1, t2)])
        return ProveResult(True, certificate=cert)

    steps: list = []
    lemmas: list = []
    if not (T.contains_abstraction(t1) or T.contains_abstraction(t2)):
        spec1, var1 = linearize(t1, ctx)
        spec2, var2 = linearize(t2, ctx)
        const1, const2 = T.RecConst(var1, spec1), T.RecConst(var2, spec2)
        steps.append(_lin_step(t1, const1, "linearize"))
        tail = [_lin_step(t2, const2, "linearize")]
    # Both sides are tabulated, t1 first, so an error of either surfaces.
    elif all([T.bool_conditional(t1, ctx), T.bool_conditional(t2, ctx)]):
        spec1, var1, cert1 = normalize_bool_conditional(t1, ctx)
        spec2, var2, cert2 = normalize_bool_conditional(t2, ctx)
        const1, const2 = T.RecConst(var1, spec1), T.RecConst(var2, spec2)
        steps.extend(s for s in cert1.steps if s.role == "chain")
        lemmas.extend(s for s in cert1.steps if s.role == "lemma")
        tail = [s for s in cert2.steps if s.role == "chain"]
        lemmas.extend(s for s in cert2.steps if s.role == "lemma")
    else:
        raise UnsupportedFragmentError(
            "both terms must be abstraction-free or both bool-conditional"
        )

    domain = shared_domain(const1, const2, ctx)
    l1 = build_lts(const1, ctx, domain=domain, explorer=sos)
    l2 = build_lts(const2, ctx, domain=domain, explorer=sos)
    linked = rooted_branching_bisim(l1, l2, ctx)
    if not linked.equivalent:
        raise DeacpError("internal error: linearized forms are not equivalent")
    steps.append(ProofStep(
        "RSP", const1, const2,
        details={"witness_pairs": sum(len(left) * len(right) for left, right in linked.groups)},
        witness=linked.groups,
    ))
    steps.extend(_swap_step(s) for s in reversed(tail))
    certificate = ProofCertificate(t1, t2, steps + lemmas)
    return ProveResult(True, certificate=certificate)


# --- certificate replay -----------------------------------------------------------------

def replay_certificate(cert: ProofCertificate, ctx: T.Context) -> tuple:
    """Re-validate every step of a certificate; returns (ok, issues).

    A step is read as `to_json_dict` prints it, its rule, role, ends and
    details, plus an RSP step's witness groups, which are not printed.
    Every RSP step is replayed with one explorer of the replay's own, never
    the prover's: a checker that reads the prover's memo tables checks
    nothing. Only the context's tables of canonical forms and unfoldings,
    which hold no verdict, are shared."""
    issues = []
    sos = _Sos(ctx)
    chain = [s for s in cert.steps if s.role == "chain"]
    if chain:
        if chain[0].before != cert.left:
            issues.append("chain does not start at the left-hand term")
        if chain[-1].after != cert.right:
            issues.append("chain does not end at the right-hand term")
        for a, b in zip(chain, chain[1:]):
            if a.after != b.before:
                issues.append(f"chain break between {a.rule} and {b.rule}")
    for step in cert.steps:
        issues.extend(_replay_step(step, ctx, sos))
    return (not issues), issues


def _replay_step(step: ProofStep, ctx: T.Context, sos: _Sos) -> list:
    rule = step.rule
    # The prover reverses the steps of the right-hand chain and prints so.
    source, target = step.before, step.after
    if step.details.get("direction") == "reverse":
        source, target = target, source
    if rule == "LIN":
        construction = step.details.get("construction")
        try:
            if construction == "linearize":
                spec, var = linearize(source, ctx)
            else:
                spec, var, _ = normalize_bool_conditional(source, ctx)
        except DeacpError as exc:
            return [f"LIN replay failed: {exc}"]
        if T.RecConst(var, spec) != target:
            return ["LIN replay produced a different specification"]
        if not T.is_guarded_linear_spec(spec):
            return ["LIN replay produced an unguarded specification"]
        return []
    if rule == "RSP":
        if step.witness is None:
            return ["RSP step carries no witness"]
        try:
            domain = shared_domain(source, target, ctx)
            l1 = build_lts(source, ctx, domain=domain, explorer=sos)
            l2 = build_lts(target, ctx, domain=domain, explorer=sos)
        except DeacpError as exc:
            return [f"RSP replay failed: {exc}"]
        bad = verify_branching_bisimulation(l1, l2, step.witness, ctx)
        return [f"RSP witness violation: {b}" for b in bad[:3]]
    if rule == "CFAR":
        lhs = step.before
        if not (isinstance(lhs, T.Seq) and lhs.left == T.Atom(T.TAU)
                and isinstance(lhs.right, T.Abstr) and isinstance(lhs.right.body, T.RecConst)):
            return ["CFAR lemma does not start from tau . hide{P}(rec X where E)"]
        hidden = lhs.right
        try:
            _, recomputed = apply_cfar(hidden.body.spec, hidden.body.var, hidden.patterns)
        except DeacpError as exc:
            return [f"CFAR replay failed: {exc}"]
        if recomputed.details["cluster"] != step.details.get("cluster"):
            return ["CFAR step names another cluster than its variable's"]
        if recomputed != step:
            return ["CFAR step does not match the recomputed equation"]
        return []
    if rule == "IMP2" and "replaced" in step.details:
        try:
            normalized, _ = normalize_conditions(source, ctx)
        except DeacpError as exc:
            return [f"IMP2 replay failed: {exc}"]
        if normalized != target:
            return ["IMP2 replay produced a different normalization"]
        return []
    if rule == "BED" and "variable" in step.details:
        # a pure silent equation absorbed into one termination summand
        parts = (
            [T.summand_parts(s) for s in T.summands(step.before)]
            if T.is_linear(step.before) else []
        )
        if not parts or not all(isinstance(action, T.TauAction) for _, action, _ in parts):
            return ["BED lemma absorbs more than silent steps to recursion variables"]
        if step.after != T.Guard(_disjoin([cond for cond, _, _ in parts]), T.EPSILON):
            return ["BED lemma does not end in the disjunction of the absorbed guards"]
        return []
    if rule in AX.AXIOMS:
        if AX.AXIOMS[rule].relates(step.before, step.after, ctx):
            return []
        return [f"step does not instantiate axiom {rule}"]
    return [f"unknown rule {rule!r}"]
