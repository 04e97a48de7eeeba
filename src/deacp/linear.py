"""Linearization to guarded linear recursive specifications, cluster
analysis with the fair-abstraction rewrite, and certificate-producing
equality proofs."""

from __future__ import annotations

from copy import deepcopy
from dataclasses import dataclass, field
from typing import Optional

from . import axioms as AX
from . import terms as T
from .bisim import build_pair, decide_rb, verify_branching_bisimulation
from .conditions import FALSE, And, CFalse, Cmp, CTrue, TRUE, constant_value, eval_cond
from .errors import DeacpError, EnumerationLimitError, GuardednessError, UnsupportedFragmentError
from .parser import render_term
from .sos_sigma import _Sos, build_lts


# --- proof certificates -----------------------------------------------------

@dataclass
class ProofStep:
    rule: str  # an axiom name, LIN, RSP, CFAR or BED
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
            "details": deepcopy(self.details),  # the printed dict shares nothing with the step
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


def _decided(phi, ctx: T.Context):
    """phi's truth value when every map gives it the same one, else phi. A
    conjunction with too many maps to tabulate is decided conjunct by
    conjunct, and any other such condition is carried as it is."""
    if isinstance(phi, (CTrue, CFalse)):
        return phi
    try:
        value = constant_value(phi, ctx.decl, ctx.carrier)
    except EnumerationLimitError:
        if not isinstance(phi, And):
            return phi
        left, right = _decided(phi.left, ctx), _decided(phi.right, ctx)
        return FALSE if FALSE in (left, right) else _conj(left, right)
    if value is None:
        return phi
    return TRUE if value else FALSE


def spec_to_table(spec: T.RecSpec) -> dict:
    return {name: [T.summand_parts(s) for s in T.summands(rhs)]
            for name, rhs in spec.equations}


_END = (TRUE, None, None)  # the row of an unconditional termination summand


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

    def put(self, name: str, rows) -> None:
        """The one way rows enter the table: a row guarded by false is dropped."""
        self.table[name] = [r for r in rows if not isinstance(r[0], CFalse)]

    def define(self, rows) -> str:
        name = self.fresh()
        self.put(name, rows)
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
                self.put(mapping[name], [
                    (cond, action, mapping[target] if target is not None else None)
                    for cond, action, target in rows
                ])
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
            return self.merge_image(left, right, type(t))
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
            self.put(mapping[key], rows_of(key, name_of))
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

    def merge_image(self, left_root: str, right_root: str, op: type) -> str:
        """Products over variable pairs for the merge operator op (T.Par,
        T.LeftMerge or T.CommMerge); interleaving, synchronization with
        conjoined guards and data-equality conditions, joint termination.
        Every pair after the first step is a T.Par pair."""
        gamma = self.ctx.gamma

        def rows_of(key, name_of):
            kind, lv, rv = key
            lrows, rrows = self.table[lv], self.table[rv]
            rows = []
            if kind in (T.Par, T.LeftMerge):
                for cond, action, target in lrows:
                    if action is not None:
                        rows.append((cond, action, name_of((T.Par, target, rv))))
            if kind is T.Par:
                for cond, action, target in rrows:
                    if action is not None:
                        rows.append((cond, action, name_of((T.Par, lv, target))))
            if kind in (T.Par, T.CommMerge):
                for lcond, laction, ltarget in lrows:
                    for rcond, raction, rtarget in rrows:
                        c = gamma.communicate(laction, raction)  # None for termination rows
                        if c is None:
                            continue
                        cond = _conj(lcond, rcond)
                        if isinstance(c, T.ParamAction):
                            for e1, e2 in zip(laction.args, raction.args):
                                if e1 != e2:  # an equality of one term holds under every map
                                    cond = _conj(cond, Cmp("=", e1, e2))
                        rows.append((cond, c, name_of((T.Par, ltarget, rtarget))))
            if kind is T.Par:
                for lcond, laction, _ in lrows:
                    if laction is not None:
                        continue
                    for rcond, raction, _ in rrows:
                        if raction is None:
                            rows.append((_conj(lcond, rcond), None, None))
            return rows
        return self.image((op, left_root, right_root), rows_of)

    # -- abstraction: rename, absorb pure silent chains, collapse clusters ---------

    def collapse_abstraction(self, root: str, patterns: tuple) -> str:
        """Abstraction over the body rooted at root. Each row's condition is
        decided first: a constant one becomes its truth value, and a row it
        makes false is dropped; a contingent one is carried. Only rows under
        `true` are absorbed or clustered, so a contingent condition on a
        hidden cycle is the one refusal."""
        sub = {}
        for name in _trim(self.table, root):
            decided = [(_decided(cond, self.ctx), action, target)
                       for cond, action, target in self.table[name]]
            sub[name] = [row for row in decided if not isinstance(row[0], CFalse)]
        order = _trim(sub, root)  # what the rows left still reach
        sub = {name: sub[name] for name in order}
        self._replace_pure_tau(sub, root)
        if _conditional_silent_cycle(sub, order, patterns):
            raise UnsupportedFragmentError(
                "a silent cycle has a hidden step whose condition is not true; "
                "outside the bool-conditional fragment"
            )
        spec = table_to_spec(sub, order)
        mapping = {name: self.fresh() for name in order}

        def rename(row):
            cond, action, target = row
            if action is None:
                return (cond, None, None)
            renamed = T.TAU if (not isinstance(action, T.TauAction)
                                and T.matches_any(action, patterns)) else action
            return (cond, renamed, mapping[target])

        for name in order:
            self.put(mapping[name], map(rename, sub[name]))
        # A cyclic cluster collapses into one variable over its exits, which
        # each member reaches by a silent step: the fair-abstraction lemma.
        for info in _find_clusters(sub, order, patterns):
            if not info.cyclic:
                continue
            var = self.define(map(rename, info.exit_rows))
            for name in info.members:
                self.put(mapping[name], [(TRUE, T.TAU, var)] + [
                    rename(row) for row in sub[name]
                    if not _internal_row(row, info.member_set, patterns)
                ])
            self.cfar_steps.append(_cfar_step(spec, info, info.members[0], patterns))
        return mapping[root]

    def _replace_pure_tau(self, sub: dict, root: str):
        """Non-root equations consisting solely of silent prefixes under
        `true` to pure-termination variables become `[true] -> epsilon`."""
        def is_pure_eps(name):
            return sub[name] == [_END]

        changed = True
        while changed:
            changed = False
            for name in sub:
                if name == root or not sub[name]:
                    continue
                rows = sub[name]
                if all(
                    isinstance(cond, CTrue) and isinstance(action, T.TauAction)
                    and is_pure_eps(target)
                    for cond, action, target in rows
                ):
                    before = T.alt_fold(list(map(_summand, rows)))
                    after = _summand(_END)
                    sub[name] = [_END]
                    self.bed_steps.append(ProofStep(
                        "BED", before, after, role="lemma",
                        details={"variable": name,
                                 "note": "pure silent equation absorbed"},
                    ))
                    changed = True


def _hidden_row(row, patterns) -> bool:
    action = row[1]
    return action is not None and (isinstance(action, T.TauAction)
                                   or T.matches_any(action, patterns))


def _internal_row(row, member_set, patterns) -> bool:
    cond, _, target = row
    return isinstance(cond, CTrue) and target in member_set and _hidden_row(row, patterns)


def _conditional_silent_cycle(table: dict, order: list, patterns: tuple) -> bool:
    """Whether a hidden row whose condition is not `true` lies inside a
    strongly connected component of the hidden rows, whatever their
    conditions. Such a row is an exit of its cluster, so the collapsed form
    would keep a silent cycle. The components are computed only when some
    hidden row has such a condition."""
    conditional = [(name, row[2]) for name in order for row in table[name]
                   if not isinstance(row[0], CTrue) and _hidden_row(row, patterns)]
    if not conditional:
        return False
    edges = {name: [row[2] for row in table[name] if _hidden_row(row, patterns)]
             for name in order}
    component = {name: k for k, members in enumerate(T.strong_components(order, edges))
                 for name in members}
    return any(component[name] == component[target] for name, target in conditional)


# --- cluster analysis ----------------------------------------------------------

@dataclass(frozen=True)
class ClusterInfo:
    members: tuple
    member_set: frozenset
    cyclic: bool
    exit_rows: tuple  # the members' rows that are no hidden step inside, in specification order

    @property
    def exit_terms(self) -> tuple:
        return tuple(map(_summand, self.exit_rows))


def _find_clusters(table: dict, order: list, patterns: tuple) -> list:
    """Every strongly connected component of the hidden moves: a cluster,
    with its exit rows and whether a hidden move stays inside. A component's
    members reach one another by hidden moves, so every cluster is
    conservative: each member reaches each exit, a visible step back into
    the cluster included."""
    everything = frozenset(order)
    edges = {
        name: [row[2] for row in table[name] if _internal_row(row, everything, patterns)]
        for name in order
    }
    infos = []
    for members in T.strong_components(order, edges):
        member_set = frozenset(members)
        cyclic = False
        exits: dict = {}  # insertion-ordered set of rows
        for name in members:
            for row in table[name]:
                if _internal_row(row, member_set, patterns):
                    cyclic = True
                else:
                    exits[row] = None
        infos.append(ClusterInfo(members, member_set, cyclic, tuple(exits)))
    return infos


def _cfar_step(spec: T.RecSpec, info: ClusterInfo, var: str, patterns: tuple) -> ProofStep:
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
    step = _cfar_step(spec, info, var, tuple(patterns))
    return step.after, step


# --- public pipeline ----------------------------------------------------------------

def linearize(t: T.ProcTerm, ctx: T.Context) -> tuple:
    """Guarded linear recursive specification provably equal to the given
    closed term; returns (spec, designated variable)."""
    spec, var, _ = normalize_bool_conditional(t, ctx)
    return spec, var


def normalize_bool_conditional(t: T.ProcTerm, ctx: T.Context) -> tuple:
    """The one linearization pipeline for a closed term: the linearizer,
    which eliminates abstraction through cluster collapse, and its BED and
    CFAR lemmas; returns (spec, variable, certificate)."""
    if not T.is_closed(t):
        raise GuardednessError("cannot linearize a term with free recursion variables")
    engine = _Linearizer(ctx)
    spec, root = engine.run(t)
    const = T.RecConst(root, spec)
    lin = ProofStep("LIN", t, const, details={"construction": "linearize"})
    return spec, root, ProofCertificate(t, const, [lin] + engine.bed_steps + engine.cfar_steps)


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

    cert1, cert2 = (normalize_bool_conditional(t, ctx)[2] for t in (t1, t2))
    const1, const2 = cert1.right, cert2.right

    linked = decide_rb(const1, const2, ctx, explorer=sos)
    if not linked.equivalent:
        raise DeacpError("internal error: linearized forms are not equivalent")
    rsp = ProofStep(
        "RSP", const1, const2,
        details={"witness_pairs": sum(len(left) * len(right) for left, right in linked.groups)},
        witness=linked.groups,
    )
    chain1, chain2 = ([s for s in c.steps if s.role == "chain"] for c in (cert1, cert2))
    lemmas = [s for c in (cert1, cert2) for s in c.steps if s.role == "lemma"]
    steps = chain1 + [rsp] + [_swap_step(s) for s in reversed(chain2)] + lemmas
    return ProveResult(True, certificate=ProofCertificate(t1, t2, steps))


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
        try:
            spec, var = linearize(source, ctx)
        except DeacpError as exc:
            return [f"LIN replay failed: {exc}"]
        if T.RecConst(var, spec) != target:
            return ["LIN replay produced a different specification"]
        return []
    if rule == "RSP":
        if step.witness is None:
            return ["RSP step carries no witness"]
        try:
            l1, l2 = build_pair(build_lts, source, target, ctx, sos)
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
    if rule == "BED" and "variable" in step.details:
        # a pure silent equation absorbed into one termination summand
        parts = (
            [T.summand_parts(s) for s in T.summands(step.before)]
            if T.is_linear(step.before) else []
        )
        if not parts or not all(isinstance(cond, CTrue) and isinstance(action, T.TauAction)
                                for cond, action, _ in parts):
            return ["BED lemma absorbs more than silent steps under true to recursion variables"]
        if step.after != _summand(_END):
            return ["BED lemma does not end in [true] -> epsilon"]
        return []
    if rule in AX.AXIOMS:
        if AX.AXIOMS[rule].relates(step.before, step.after, ctx):
            return []
        return [f"step does not instantiate axiom {rule}"]
    return [f"unknown rule {rule!r}"]
