"""deacp: a workbench for an imperative process algebra with data.

Parse process specifications over a finite data carrier, explore their
operational semantics (map-indexed or condition-labelled), decide rooted
branching bisimilarity and its condition-labelled analogue, linearize to
guarded linear recursive specifications with fair abstraction, and check
data non-interference.

The names below are exported lazily (PEP 562): importing `deacp` loads no
submodule, and a name loads its submodule on first use, so a query that
only explores never loads the prover.
"""

from importlib import import_module

# Each submodule, with the names the package re-exports from it.
_EXPORTS = {
    "data_algebra": ("Carrier", "EvalMap", "FlexVarDecl", "enumerate_maps", "eval_data"),
    "conditions": ("eval_cond", "satisfiable", "valid_iff"),
    "terms": ("Context", "CommFunction", "RecSpec", "is_guarded_linear_spec", "is_linear",
              "summands"),
    "parser": ("SpecFile", "parse_condition", "parse_process", "parse_spec", "render_spec",
               "render_term"),
    "sos_sigma": ("SigmaLts", "build_lts"),
    "sos_cond": ("CondLts", "build_cond_lts", "expand_to_sigma"),
    "bisim": ("BisimResult", "action_class", "actions_equivalent", "conjecture_experiment",
              "decide_rab", "decide_rb", "rooted_ab_bisim", "rooted_branching_bisim"),
    "linear": ("ProofCertificate", "ProveResult", "apply_cfar", "linearize",
               "normalize_bool_conditional", "prove_equal", "replay_certificate"),
    "security": ("DniiVerdict", "SecuritySpec", "check_dnii", "derive_sets"),
    "errors": ("DeacpError",),
    "axioms": (),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_EXPORTS, *_MODULE_OF])


def __getattr__(name):
    if name in _EXPORTS:
        return import_module(f".{name}", __name__)
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value
