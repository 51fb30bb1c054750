"""Per-layer spans and counts, recorded by wrapping copack's public functions
from outside the package.

A wrapper replaces every name through which a function is reached: the
defining module, each module that imported it by name, and the package
itself (for example `bdd_dp_solve` lives in `copack.bdd`, `copack.branching`,
`copack.cli` and `copack`). Methods are wrapped on their class. A span's self
time is its duration minus the time of the wrapped spans it called.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

import copack
import copack.bdd
import copack.branching
import copack.cli
import copack.cutcount
import copack.decomp
import copack.dimacs
import copack.graph
import copack.oracles

# (span name, layer, owning module or class, attribute)
SPANS = (
    ("cli.main", "cli", copack.cli, "main"),
    ("cli.command_solve", "cli", copack.cli, "command_solve"),
    ("cli.solve_decision", "cli", copack.cli, "_solve_decision"),
    ("dimacs.parse", "dimacs", copack.dimacs, "parse_graph"),
    ("graph.components", "graph", copack.graph.Graph, "components"),
    ("graph.copy", "graph", copack.graph.Graph, "copy"),
    ("branching.solve_cpcp", "branching", copack.branching, "solve_cpcp"),
    ("branching.solve_cpp", "branching", copack.branching, "solve_cpp"),
    ("branching.reduce_cpcp", "branching", copack.branching, "reduce_cpcp"),
    ("branching.reduce_cpp", "branching", copack.branching, "reduce_cpp"),
    ("decomp.decomposition_for", "decomp", copack.decomp, "decomposition_for"),
    ("decomp.exact", "decomp", copack.decomp, "exact_pathwidth"),
    ("decomp.heuristic", "decomp", copack.decomp, "heuristic_pd"),
    ("decomp.to_nice", "decomp", copack.decomp, "to_nice"),
    ("bdd.dp", "bdd", copack.bdd, "bdd_dp_solve"),
    ("cutcount.parity", "cutcount", copack.cutcount, "parity_dp"),
    ("oracles.verify", "oracles", copack.oracles, "verify"),
)

# Every per-layer metric with its unit; `metrics` reports exactly these.
UNITS = {
    "dimacs.parse_s": "s",
    "graph.components_s": "s",
    "graph.components_calls": "count",
    "graph.copy_s": "s",
    "graph.copy_calls": "count",
    "branching.reduce_s": "s",
    "branching.reductions": "count",
    "branching.nodes": "count",
    "branching.self_s": "s",
    "branching.leaves": "count",
    "branching.guard_reject_ratio": "ratio",
    "decomp.exact_s": "s",
    "decomp.exact_calls": "count",
    "decomp.heuristic_s": "s",
    "decomp.to_nice_s": "s",
    "decomp.width_max": "count",
    "decomp.distinct_ratio": "ratio",
    "bdd.dp_s": "s",
    "bdd.dp_calls": "count",
    "cutcount.parity_s": "s",
    "cutcount.parity_calls": "count",
    "cutcount.final_keys": "count",
    "oracles.verify_s": "s",
    "cli.probes": "count",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
}

# Metrics that count work; they must repeat exactly from round to round.
COUNTS = tuple(name for name, unit in UNITS.items() if unit == "count")


class Tracer:
    """Accumulates one round's spans and counts."""

    def __init__(self):
        self.reset()

    def reset(self):
        self.total = defaultdict(float)  # span name -> inclusive seconds
        self.calls = defaultdict(int)  # span name -> calls
        self.self_s = defaultdict(float)  # layer -> self seconds
        self.stats = defaultdict(int)  # summed SolveStats fields
        self.width_max = -1
        self.final_keys = 0
        self.graphs = set()  # distinct graphs handed to decomposition_for
        self.optimize_runs = 0
        self.optimize_probes = 0
        self._children = []  # per open span: seconds spent in wrapped callees
        self._optimizing = False

    def wrap(self, name, layer, fn):
        def traced(*args, **kwargs):
            self._children.append(0.0)
            self._enter(name, args)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                spent = time.perf_counter() - start
                inner = self._children.pop()
                self.total[name] += spent
                self.calls[name] += 1
                self.self_s[layer] += spent - inner
                if self._children:
                    self._children[-1] += spent
                self._leave(name)
            self._result(name, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _enter(self, name, args):
        if name == "cli.command_solve" and args[0].optimize:
            self._optimizing = True
            self.optimize_runs += 1
        elif name == "cli.solve_decision" and self._optimizing:
            self.optimize_probes += 1
        elif name == "decomp.decomposition_for":
            g = args[0]
            self.graphs.add((tuple(g.vertices()), tuple(g.edges())))

    def _leave(self, name):
        if name == "cli.command_solve":
            self._optimizing = False

    def _result(self, name, result):
        if name in ("branching.solve_cpcp", "branching.solve_cpp"):
            st = result.stats
            for field in ("nodes", "reductions", "dp_calls", "guard_rejects"):
                self.stats[field] += getattr(st, field)
        elif name == "decomp.to_nice":
            self.width_max = max(self.width_max, result.width)
        elif name == "cutcount.parity":
            self.final_keys += len(result)

    def metrics(self) -> dict:
        t, c = self.total, self.calls
        leaves = self.stats["guard_rejects"] + self.stats["dp_calls"]
        decomps = c["decomp.decomposition_for"]
        return {
            "dimacs.parse_s": t["dimacs.parse"],
            "graph.components_s": t["graph.components"],
            "graph.components_calls": c["graph.components"],
            "graph.copy_s": t["graph.copy"],
            "graph.copy_calls": c["graph.copy"],
            "branching.reduce_s": t["branching.reduce_cpcp"] + t["branching.reduce_cpp"],
            "branching.reductions": self.stats["reductions"],
            "branching.nodes": self.stats["nodes"],
            "branching.self_s": self.self_s["branching"],
            "branching.leaves": leaves,
            "branching.guard_reject_ratio": self.stats["guard_rejects"] / leaves if leaves else 0.0,
            "decomp.exact_s": t["decomp.exact"],
            "decomp.exact_calls": c["decomp.exact"],
            "decomp.heuristic_s": t["decomp.heuristic"],
            "decomp.to_nice_s": t["decomp.to_nice"],
            "decomp.width_max": self.width_max,
            "decomp.distinct_ratio": len(self.graphs) / decomps if decomps else 0.0,
            "bdd.dp_s": t["bdd.dp"],
            "bdd.dp_calls": c["bdd.dp"],
            "cutcount.parity_s": t["cutcount.parity"],
            "cutcount.parity_calls": c["cutcount.parity"],
            "cutcount.final_keys": self.final_keys,
            "oracles.verify_s": t["oracles.verify"],
            "cli.probes": self.optimize_probes / self.optimize_runs if self.optimize_runs else 0.0,
            "cli.self_s": self.self_s["cli"],
        }


def _raw(owner, attr):
    """The function stored under owner.attr, unwrapped from a method."""
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def install(tracer: Tracer):
    """Wrap every span's function under every name that reaches it; returns
    a function that puts the originals back."""
    undo = []
    modules = [m for name, m in sys.modules.items() if name == "copack" or name.startswith("copack.")]
    for name, layer, owner, attr in SPANS:
        fn = _raw(owner, attr)
        wrapped = tracer.wrap(name, layer, fn)
        if isinstance(owner, type):
            setattr(owner, attr, wrapped)
            undo.append((owner, attr, fn))
            continue
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, key, wrapped)
                    undo.append((mod, key, fn))

    def uninstall():
        for owner, attr, fn in reversed(undo):
            setattr(owner, attr, fn)

    return uninstall

