"""Exact solvers for co-path/cycle packing, co-path packing, and
d-bounded-degree vertex deletion: branch-and-search over structural rules,
a deletion DP on path decompositions, and a randomized cut & count DP,
cross-validated by brute-force oracles.

The public names resolve on first use (PEP 562), so `import copack`, and
the package import that `python -m copack.cli` makes, load no submodule."""

# public name -> the submodule that defines it; each submodule is public
# too, under its own name
_EXPORTS = {
    **{m: m for m in ("bdd", "branching", "cutcount", "decomp", "dimacs", "errors", "graph", "oracles")},
    "bdd_dp_solve": "bdd",
    **dict.fromkeys(("BranchSet", "Instance", "SolveOutcome", "SolveStats", "branch_b1", "branch_b2",
                     "reduce_cpcp", "reduce_cpp", "solve_cpcp", "solve_cpp"), "branching"),
    **dict.fromkeys(("WeightAssignment", "decide_cpp", "decide_cpp_once", "derive_seed", "parity_dp",
                     "sample_weights"), "cutcount"),
    **dict.fromkeys(("NiceEventSequence", "PathDecomposition", "Violation", "exact_pathwidth",
                     "guard_check", "heuristic_pd", "is_proper", "parse_decomposition", "to_nice",
                     "validate", "write_decomposition"), "decomp"),
    **dict.fromkeys(("parse_graph", "write_graph"), "dimacs"),
    **dict.fromkeys(("GraphFormatError", "InternalSolverError", "SizeLimitError"), "errors"),
    "Graph": "graph",
    **dict.fromkeys(("branching_factor", "oracle_min", "oracle_witness", "verify"), "oracles"),
}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    # the import statement's route, which -X importtime reports; it binds
    # the submodule in this namespace
    __import__(__name__ + "." + _EXPORTS[name])
    module = globals()[_EXPORTS[name]]
    # read at each access, so a name rebound in its module reads the new value
    return module if name == _EXPORTS[name] else getattr(module, name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
