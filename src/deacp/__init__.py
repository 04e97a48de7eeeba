"""deacp: a workbench for an imperative process algebra with data.

Parse process specifications over a finite data carrier, explore their
operational semantics (map-indexed or condition-labelled), decide rooted
branching bisimilarity and its condition-labelled analogue, linearize to
guarded linear recursive specifications with fair abstraction, and check
data non-interference.
"""

from .data_algebra import (
    Carrier,
    EvalMap,
    FlexVarDecl,
    enumerate_maps,
    eval_data,
)
from .conditions import eval_cond, satisfiable, valid_iff
from .terms import (
    Context,
    CommFunction,
    RecSpec,
    bool_conditional,
    is_guarded_linear_spec,
    is_linear,
    summands,
)
from .parser import SpecFile, parse_condition, parse_process, parse_spec, render_spec, render_term
from .sos_sigma import SigmaLts, build_lts
from .sos_cond import CondLts, build_cond_lts, expand_to_sigma
from .bisim import (
    BisimResult,
    action_class,
    actions_equivalent,
    conjecture_experiment,
    decide_rab,
    decide_rb,
    rooted_ab_bisim,
    rooted_branching_bisim,
)
from .linear import (
    ProofCertificate,
    ProveResult,
    analyze_clusters,
    apply_cfar,
    linearize,
    normalize_bool_conditional,
    prove_equal,
    replay_certificate,
)
from .security import DniiVerdict, SecuritySpec, check_dnii, derive_sets
from .errors import DeacpError

__all__ = [name for name in dir() if not name.startswith("_")]
