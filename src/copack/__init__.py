"""Exact solvers for co-path/cycle packing, co-path packing, and
d-bounded-degree vertex deletion: branch-and-search over structural rules,
a deletion DP on path decompositions, and a randomized cut & count DP,
cross-validated by brute-force oracles."""

from .bdd import bdd_dp_solve
from .branching import (
    BranchSet,
    Instance,
    SolveOutcome,
    SolveStats,
    branch_b1,
    branch_b2,
    reduce_cpcp,
    reduce_cpp,
    solve_cpcp,
    solve_cpp,
)
from .cutcount import (
    WeightAssignment,
    decide_cpp,
    decide_cpp_once,
    derive_seed,
    parity_dp,
    sample_weights,
)
from .decomp import (
    NiceEventSequence,
    PathDecomposition,
    Violation,
    exact_pathwidth,
    guard_check,
    heuristic_pd,
    is_proper,
    parse_decomposition,
    to_nice,
    validate,
    write_decomposition,
)
from .dimacs import parse_graph, write_graph
from .errors import GraphFormatError, InternalSolverError, SizeLimitError
from .graph import Graph
from .oracles import (
    branching_factor,
    oracle_min,
    oracle_witness,
    verify,
)

__all__ = [name for name in dir() if not name.startswith("_")]
