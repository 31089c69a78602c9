"""Coloured PBS-diagrams: representation, semantics, rewriting and optimisation."""

from __future__ import annotations

from .errors import (
    BudgetExceeded,
    CpbsError,
    DerivationFailed,
    HasGates,
    InvalidConfiguration,
    InvalidDecomposition,
    LengthMismatch,
    MissingAssignment,
    NonTermination,
    NotBijective,
    NotEulerian,
    NotFound,
    NotQueryOptimal,
    PreconditionViolated,
    StaleInstance,
    TypeMismatch,
)
from .terms import (
    Colour,
    Empty,
    Gen,
    Par,
    Seq,
    Term,
    Trace,
    count_neg,
    count_pbs,
    count_queries,
    gate_h,
    gate_t,
    gate_v,
    ident,
    identity_of,
    merge_hv,
    merge_vh,
    neg_hv,
    neg_t,
    neg_vh,
    par,
    pbs4,
    pbs_ht_ht,
    pbs_th_th,
    pbs_tv_vt,
    pbs_vt_tv,
    seq,
    split_hv,
    split_vh,
    swap,
    type_of,
)
from .netlist import Netlist, netlists_isomorphic, to_netlist, to_term
from .semantics import (
    Configuration,
    SemanticsTable,
    evaluate,
    is_bijective,
    semantics_table,
    tables_equal,
)
from .rules import ALL_RULE_IDS, RULES, Rule
from .rewrite import (
    ProofStep,
    RuleInstance,
    apply,
    check_soundness,
    find_matches,
    replay_derivation,
)
from .normal_form import (
    NormalForm,
    equivalent,
    nf_by_rewriting,
    normalize,
    synthesize_nf,
)
from .query_opt import (
    QueryProfile,
    is_query_optimal,
    optimize_queries,
    optimize_queries_traced,
    query_lower_bounds,
    query_profile,
)
from .stairs import (
    StairForm,
    Staircase,
    partition_analysis,
    pbs_lower_bound,
    synthesize_stair_form,
)
from .pgt import (
    PgtForm,
    brute_force_min_pbs,
    is_query_pbs_optimal_single,
    to_pgt_form,
)
from .hardness import (
    CycleDecomposition,
    EulerianGraph,
    Orientation,
    build_C_w_sigma,
    diagram_from_decomposition,
    max_ecd_bruteforce,
    orient_eulerian,
    parse_graph,
)
from .randgen import random_diagram
from .textform import parse, print_term

__version__ = "0.1.0"

# The quantum semantics needs numpy, which takes longer to import than the
# rest of the package: its names load on first use (PEP 562).
_QUANTUM_NAMES = frozenset({"GateAssignment", "interpret", "isometry_defect", "quantum_matrix"})


def __getattr__(name: str):
    if name in _QUANTUM_NAMES:
        from . import quantum

        return getattr(quantum, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
