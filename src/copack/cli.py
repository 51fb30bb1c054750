"""Command-line front end: solve, gen, factors.

Run records are emitted as a single line of space-separated key=value tokens
so harnesses can aggregate them with plain text tools. Exit codes: 0 yes /
found, 1 no, 2 error.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import asdict, dataclass, fields

from . import generators
from .bdd import bdd_dp_solve
from .branching import SolveStats, least_cpp_budget, solve_cpcp, solve_cpp
from .decomp import Violation, decomposition_for, parse_decomposition, to_nice, validate
from .dimacs import parse_graph, write_graph
from .errors import InternalSolverError
from .graph import Graph
from .oracles import branching_factor, oracle_witness, problem_bounds, verify

EXIT_YES = 0
EXIT_NO = 1
EXIT_ERROR = 2


@dataclass
class RunConfig:
    problem: str  # cpcp | cpp | bdd
    d: int | None = None
    k: int | None = None
    optimize: bool = False
    mode: str = "auto"  # auto | dp | oracle
    seed: int = 0
    repeats: int = 10
    decomposition: str | None = None

    def validate(self):
        problem_bounds(self.problem, self.d)  # a known problem, and bdd's d >= 0
        if self.problem != "bdd" and self.d is not None:
            raise ValueError("--d is meaningless outside bdd")
        if self.mode not in ("auto", "dp", "oracle"):
            raise ValueError("unknown mode %r" % self.mode)
        if self.repeats < 1:
            raise ValueError("repeats must be >= 1")
        if self.optimize == (self.k is not None):
            raise ValueError("need exactly one of -k and --optimize")
        if self.k is not None and self.k < 0:
            raise ValueError("k must be >= 0")
        if self.decomposition and not self.whole_dp:
            raise ValueError("--decomposition needs --mode dp, or bdd outside oracle mode")

    @property
    def whole_dp(self) -> bool:
        """Whether the route runs the leaf DP on one decomposition of the whole graph."""
        return self.mode == "dp" or (self.problem == "bdd" and self.mode != "oracle")


# Step recurrences: decrement multisets whose largest roots the analysis
# quotes. step4's table entry is its worst case (2.3).
FACTOR_ROWS = (
    ("step1", (1,) + (3,) * 10, 2.5445),
    ("step2", (1, 2, 2, 2), 2.3028),
    ("step3", (1, 2, 2, 2, 2, 2, 4), 2.8186),
    ("step4", (2, 2, 2, 2, 2, 2, 2, 3), 2.7145),
    ("step5", (1, 2, 2, 2, 3, 3, 3, 3, 3, 3), 2.8192),
    ("step*3", (1, 2, 2, 2, 2, 2), 2.7913),
    ("step4_case1.1", (1, 2), 1.6181),
    ("step4_case2.2", (2, 2, 2, 2, 2, 2, 2), 2.6458),
    ("step4_case2.3", (2, 2, 2, 2, 2, 2, 2, 3), 2.7145),
    ("step5_deg4", (1, 2, 2, 2, 4, 4, 4, 4, 4, 4, 4, 4, 4), 2.6328),
)


def command_factors():
    """Recompute every quoted branching factor; returns row dicts with deltas.

    Reference values occasionally carry their last digit rounded up rather
    than to nearest; deltas stay within 1e-4 either way.
    """
    rows = []
    for name, decs, expected in FACTOR_ROWS:
        got = round(branching_factor(decs), 4)
        rows.append(
            {
                "step": name,
                "decrements": decs,
                "computed": got,
                "reference": expected,
                "delta": round(got - expected, 4),
            }
        )
    return rows


def _events_for(g: Graph, cfg: RunConfig):
    if cfg.decomposition:
        with open(cfg.decomposition) as fh:
            pd = parse_decomposition(fh.read())
        bad = validate(g, pd)
        if bad is not None:
            # name the witness as the file does, from 1
            raise ValueError("supplied decomposition invalid: %s"
                             % Violation(bad.prop, tuple(v + 1 for v in bad.witness)))
    else:
        pd = decomposition_for(g)
    return to_nice(pd)


def _solve_decision(g: Graph, cfg: RunConfig):
    """The one solve of a run, at budget -k or, exact under --optimize, at
    the vertex count: (answer, witness or None, the minimum or None, its
    SolveStats). On a whole-graph route the deletion DP runs on the graph's
    decomposition. A witness must verify, or the solver is at fault."""
    k = g.alive_count if cfg.optimize else cfg.k
    stats = SolveStats()
    if cfg.mode == "oracle":
        wit = oracle_witness(g, cfg.problem, cfg.d)
        mn = len(wit)
    elif cfg.whole_dp:
        events = _events_for(g, cfg)
        stats.dp_calls += 1
        stats.width = events.width
        mn, wit = bdd_dp_solve(g, events, problem_bounds(cfg.problem, cfg.d)[0])
        if cfg.problem == "cpp":
            # the deletion DP's minimum is a floor on cpp's: under --optimize
            # cut & count climbs from it, and it refutes any k below it
            found = least_cpp_budget(g, mn if cfg.optimize else max(mn, k), k, events,
                                     cfg.repeats, cfg.seed, stats)
            return found is not None, None, (found if cfg.optimize else None), stats
    else:
        if cfg.problem == "cpp":
            out = solve_cpp(g, k, cfg.repeats, cfg.seed, cfg.optimize)
        else:
            out = solve_cpcp(g, k, cfg.optimize)
        # the search verifies any witness it returns
        return out.answer, out.witness, (out.size if cfg.optimize else None), out.stats
    if len(wit) != mn or not verify(g, wit, cfg.problem, cfg.d):
        raise InternalSolverError("exact witness of size %d fails verification" % mn)
    return mn <= k, (wit if mn <= k else None), mn, stats


def command_solve(cfg: RunConfig, path: str):
    """Returns (record dict, exit code)."""
    cfg.validate()
    with open(path) as fh:
        g = parse_graph(fh.read())
    record: dict = {"problem": cfg.problem, "mode": cfg.mode}
    if cfg.problem == "bdd":
        record["d"] = cfg.d
    if not cfg.optimize:
        record["k"] = cfg.k
    start = time.monotonic()
    ans, witness, mn, stats = _solve_decision(g, cfg)
    record["answer"] = "yes" if ans else "no"
    if mn is not None:
        record["min_size"] = mn
    if cfg.problem == "cpp" and cfg.mode != "oracle":
        # union bound over every cut & count decision, each of which can miss
        # a yes with probability <= (1/3)^repeats; the rest is exact
        record["fail_bound"] = "%.3g" % (stats.cc_calls * (1.0 / 3.0) ** cfg.repeats)
    if witness is not None:
        record["witness"] = ",".join(str(v) for v in sorted(witness))
    record.update(asdict(stats))
    record["elapsed"] = "%.3f" % (time.monotonic() - start)
    return record, EXIT_YES if ans else EXIT_NO


# positional parameters of each generator kind; planted takes --forest-n and --k
GEN_PARAMS = {
    "path": ("n",),
    "cycle": ("n",),
    "clique": ("n",),
    "gnm": ("n", "m"),
    "grid": ("rows", "cols"),
    "planted": (),
    "proper": ("n",),
}


def command_gen(kind: str, params, seed: int = 0, forest_n: int | None = None, k: int | None = None) -> str:
    if kind not in GEN_PARAMS:
        raise ValueError("unknown generator kind %r" % kind)
    names = GEN_PARAMS[kind]
    if len(params) != len(names):
        raise ValueError("gen %s takes parameters (%s), got %d" % (kind, " ".join(names) or "none", len(params)))
    comments = []
    if kind == "path":
        g = generators.path_graph(*params)
    elif kind == "cycle":
        g = generators.cycle_graph(*params)
    elif kind == "clique":
        g = generators.complete_graph(*params)
    elif kind == "gnm":
        g = generators.gnm_graph(*params, seed)
    elif kind == "grid":
        g = generators.grid_graph(*params)
    elif kind == "planted":
        if forest_n is None or k is None:
            raise ValueError("planted needs --forest-n and --k")
        g = generators.planted_graph(forest_n, k, seed)
        comments.append("planted_k %d" % k)
    else:  # proper
        g = generators.proper_graph(*params, seed)
    return write_graph(g, comments)


def _emit(record: dict):
    print(" ".join("%s=%s" % (k, v) for k, v in record.items()))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="copack", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("solve", help="solve an instance from a DIMACS-like file")
    ps.add_argument("graph", help="graph file")
    ps.add_argument("--problem", required=True, choices=("cpcp", "cpp", "bdd"))
    ps.add_argument("--d", type=int, default=None, help="degree bound (bdd only)")
    ps.add_argument("-k", type=int, default=None)
    ps.add_argument("--optimize", action="store_true", help="find the minimum deletion size")
    ps.add_argument("--mode", choices=("auto", "dp", "oracle"), default="auto")
    ps.add_argument("--seed", type=int, default=0)
    ps.add_argument("--repeats", type=int, default=10)
    ps.add_argument("--decomposition", default=None, help="decomposition file to use as-is")

    pg = sub.add_parser("gen", help="emit a generated instance")
    pg.add_argument("kind", choices=tuple(GEN_PARAMS))
    pg.add_argument("params", nargs="*", type=int)
    pg.add_argument("--seed", type=int, default=0)
    pg.add_argument("--forest-n", type=int, default=None)
    pg.add_argument("--k", type=int, default=None)

    sub.add_parser("factors", help="recompute the branching factors of every step")

    args = parser.parse_args(argv)
    try:
        if args.command == "solve":
            cfg = RunConfig(**{f.name: getattr(args, f.name) for f in fields(RunConfig)})
            record, code = command_solve(cfg, args.graph)
            _emit(record)
            return code
        if args.command == "gen":
            sys.stdout.write(command_gen(args.kind, args.params, args.seed, args.forest_n, args.k))
            return EXIT_YES
        if args.command == "factors":
            print("%-16s %-10s %-10s %-8s %s" % ("step", "computed", "reference", "delta", "decrements"))
            for row in command_factors():
                print(
                    "%-16s %-10.4f %-10.4f %-8.4f %s"
                    % (row["step"], row["computed"], row["reference"], row["delta"],
                       ",".join(map(str, row["decrements"])))
                )
            return EXIT_YES
    except (ValueError, OSError) as exc:  # format, size-limit and decomposition errors are ValueErrors
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_ERROR
    except Exception as exc:
        # a solver bug, such as an InternalSolverError from a broken reduction
        # or branching invariant, or running out of memory: exit 1 would read
        # as "no", so report it as an error
        print("error: internal %s: %s" % (type(exc).__name__, exc), file=sys.stderr)
        return EXIT_ERROR
    return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
