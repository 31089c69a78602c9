"""Coloured PBS-diagrams: representation, semantics, rewriting and optimisation."""

from __future__ import annotations

import importlib

from .errors import (
    BudgetExceeded,
    CpbsError,
    DerivationFailed,
    HasGates,
    InvalidConfiguration,
    InvalidDecomposition,
    LengthMismatch,
    MissingAssignment,
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
    Configuration,
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
from .textform import parse, print_term

__version__ = "0.1.0"

# The term language above is what every subcommand needs.  Every other
# name loads with its home module on first use (PEP 562), so a shell call
# pays only for the modules it runs, and numpy loads only for the quantum
# semantics.  Each of these modules also resolves under its own name.  A
# name is read off its home module on every access, never cached here, so
# it cannot outlive a patch of that module.
_HOME = {
    name: module
    for module, names in {
        "netlist": "Netlist netlists_isomorphic to_netlist to_term",
        "semantics": "SemanticsTable evaluate is_bijective semantics_table tables_equal",
        "rules": "ALL_RULE_IDS RULES Rule",
        "rewrite": "ProofStep RuleInstance apply check_soundness find_matches replay_derivation",
        "normal_form": "NormalForm equivalent nf_by_rewriting normalize synthesize_nf",
        "query_opt": "QueryProfile is_query_optimal optimize_queries optimize_queries_traced "
        "query_lower_bounds query_profile",
        "stairs": "StairForm Staircase partition_analysis pbs_lower_bound synthesize_stair_form",
        "pgt": "PgtForm brute_force_min_pbs is_query_pbs_optimal_single to_pgt_form",
        "hardness": "CycleDecomposition EulerianGraph Orientation build_C_w_sigma "
        "diagram_from_decomposition max_ecd_bruteforce orient_eulerian parse_graph",
        "randgen": "random_diagram",
        "quantum": "GateAssignment interpret isometry_defect quantum_matrix",
    }.items()
    for name in (module, *names.split())
}


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    home = importlib.import_module(f"{__name__}.{module}")
    return home if name == module else getattr(home, name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOME})
