"""The three workloads: which CLI solves a round runs, and what each answer
must be.

Every operation is one `copack solve` call. Its expected answer comes from
the benchmark's own reasoning, never from an earlier run of the program:
closed forms (planted graphs, cliques, grid vertex cover), brute force over
deletion sets (proper graphs), or, for grids at d = 1 and d = 2, a solve on
a decomposition the benchmark writes itself.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass

import checks
import instances

WORKLOADS = ("search", "pathdp", "cutcount")


@dataclass
class Op:
    label: str
    argv: list  # arguments of `copack solve`, graph file first
    yes: bool  # the correct answer; --optimize runs always answer yes
    n: int
    edges: list
    problem: str
    d: int | None = None
    k: int | None = None
    min_size: int | None = None  # the true minimum, where the record must show it
    optimize: bool = False


class Inputs:
    """Writes instance files into one directory and builds operations on them."""

    def __init__(self, workdir: str):
        self.workdir = workdir
        self.ops: list[Op] = []

    def file(self, name: str, text: str) -> str:
        path = os.path.join(self.workdir, name)
        with open(path, "w") as fh:
            fh.write(text)
        return path

    def graph(self, name: str, n: int, edges) -> str:
        return self.file(name + ".gr", instances.dimacs(n, edges))

    def decide(self, path, n, edges, problem, k, yes, d=None, min_size=None, extra=()):
        argv = [path, "--problem", problem, "-k", str(k)]
        if d is not None:
            argv += ["--d", str(d)]
        label = "%s %s%s k=%d" % (os.path.basename(path), problem, "" if d is None else " d=%d" % d, k)
        self.ops.append(Op(label, argv + list(extra), yes, n, edges, problem, d, k, min_size))

    def optimize(self, path, n, edges, problem, min_size, d=None):
        argv = [path, "--problem", problem, "--optimize"]
        if d is not None:
            argv += ["--d", str(d)]
        label = "%s %s%s --optimize" % (os.path.basename(path), problem, "" if d is None else " d=%d" % d)
        self.ops.append(Op(label, argv, True, n, edges, problem, d, None, min_size, optimize=True))


# Each size maps a workload to its instance parameters. "full" is what the
# benchmark measures; "smoke" is the same command on inputs that solve in a
# fraction of a second, for the benchmark's own test.
SIZES = {
    "full": {
        # (forest vertices, planted extras)
        "planted": [(400, 10), (500, 20), (600, 30), (700, 20), (800, 40), (800, 30)] * 2,
        # clique mixes solved at their minimum (yes) and one below it (no)
        "cliques_yes": [(5, 6, 7, 8, 8), (5, 5, 6, 6, 7, 7, 8, 8), (8, 8, 8)],
        # eight labelings of K7x3: one solve's time moves +-15% with the labels
        "cliques_no": [(5, 6, 7, 7, 7)] * 8 + [(5, 6, 7, 8)] * 2,
        "proper_opt": 17,  # bdd --optimize at d = 0, 1, 2
        "proper_dp": 19,  # cpcp --mode dp at the minimum and one below
        "grid_opt": (6, 10),
        "grid_dp": (7, 10),
        "cut_shapes": [14, 14, 14, 15, 15, 15, 16, 16, 16, 17, 17, 18, 18],
        "cut_min": 3,
    },
    "smoke": {
        "planted": [(60, 4)],
        "cliques_yes": [(5, 6, 7)],
        "cliques_no": [(6, 7, 7)],
        "proper_opt": 9,
        "proper_dp": 9,
        "grid_opt": (3, 4),
        "grid_dp": (3, 4),
        "cut_shapes": [8],
        "cut_min": 1,
    },
}


def build_search(inp: Inputs, seed: int, size: dict):
    """cpcp at the planted k on planted graphs, and cpcp and cpp on disjoint
    cliques at the closed-form minimum (yes) and one below it (no)."""
    rng = random.Random("search-%d" % seed)
    for i, (forest_n, k) in enumerate(size["planted"]):
        n, edges = instances.planted(forest_n, k, rng)
        path = inp.graph("planted%d-%d-%d" % (i, forest_n, k), n, edges)
        inp.decide(path, n, edges, "cpcp", k, True)
    for which, yes in (("cliques_yes", True), ("cliques_no", False)):
        for i, sizes in enumerate(size[which]):
            n, edges = instances.cliques(sizes, rng)
            path = inp.graph("%s%d-K%s" % (which, i, "-".join(map(str, sizes))), n, edges)
            for problem in ("cpcp", "cpp"):
                mn = checks.clique_min(sizes, problem)
                inp.decide(path, n, edges, problem, mn if yes else mn - 1, yes)


def build_pathdp(inp: Inputs, seed: int, size: dict, reference):
    """bdd --optimize at d = 0, 1, 2 and cpcp --mode dp at the minimum and
    one below, on a proper graph small enough for the exact decomposition
    and on grids, which take the greedy one."""
    rng = random.Random("pathdp-%d" % seed)
    n, edges = instances.proper(size["proper_opt"], rng)
    path = inp.graph("proper-opt-%d" % n, n, edges)
    for d in (0, 1, 2):
        inp.optimize(path, n, edges, "bdd", checks.brute_min(n, edges, "bdd", d), d=d)
    n, edges = instances.proper(size["proper_dp"], rng)
    path = inp.graph("proper-dp-%d" % n, n, edges)
    mn = checks.brute_min(n, edges, "cpcp")
    inp.decide(path, n, edges, "cpcp", mn, True, min_size=mn, extra=("--mode", "dp"))
    inp.decide(path, n, edges, "cpcp", mn - 1, False, min_size=mn, extra=("--mode", "dp"))

    for name in ("opt", "dp"):
        rows, cols = size["grid_" + name]
        n, edges, label = instances.grid(rows, cols, rng)
        stem = "grid-%s-%dx%d" % (name, rows, cols)
        path = inp.graph(stem, n, edges)
        pd = inp.file(stem + ".pd", checks.sweep_decomposition(rows, cols, label))
        if name == "opt":
            inp.optimize(path, n, edges, "bdd", checks.grid_vertex_cover(rows, cols), d=0)
            for d in (1, 2):
                inp.optimize(path, n, edges, "bdd", reference(path, pd, d), d=d)
        else:
            mn = reference(path, pd, 2)
            inp.decide(path, n, edges, "cpcp", mn, True, min_size=mn, extra=("--mode", "dp"))
            inp.decide(path, n, edges, "cpcp", mn - 1, False, min_size=mn, extra=("--mode", "dp"))


def build_cutcount(inp: Inputs, seed: int, size: dict):
    """cpp in auto mode on proper graphs at the brute-force minimum (yes) and
    one below it (no, which spends every cut & count repeat).

    The graphs are fixed: for each size, the first graph drawn whose cpp
    minimum is `cut_min`. With fresh or relabelled graphs per seed, the
    total of a round swung by 17-21% (coefficient of variation over 6 seeds
    of 12 graphs), because the cost of one parity DP moves 3x with the
    vertex order the exact decomposition picks. A minimum of 4 multiplies
    the cost by 5-10 (an 18-vertex graph at k = 4 and k = 3 took 14.5 s),
    which one round cannot hold.

    The seed draws each solve's own `--seed`, which sets its random weights.
    One `--seed` shared by every solve draws the same weight sequence for
    all the graphs, so their costs rise and fall together instead of
    averaging out.
    """
    weights = random.Random("cutcount-%d" % seed)
    for i, nv in enumerate(size["cut_shapes"]):
        attempt = 0
        while True:
            n, edges = instances.proper(nv, random.Random("cutcount-shape-%d-%d" % (i, attempt)))
            mn = checks.brute_min(n, edges, "cpp")
            if mn == size["cut_min"]:
                break
            attempt += 1
        path = inp.graph("cut%d-proper-%d" % (i, n), n, edges)
        for k, yes in ((mn, True), (mn - 1, False)):
            inp.decide(path, n, edges, "cpp", k, yes, extra=("--seed", str(weights.randrange(1 << 31))))


def build(workload: str, seed: int, size_name: str, workdir: str, reference) -> list[Op]:
    inp = Inputs(workdir)
    size = SIZES[size_name]
    if workload == "search":
        build_search(inp, seed, size)
    elif workload == "pathdp":
        build_pathdp(inp, seed, size, reference)
    elif workload == "cutcount":
        build_cutcount(inp, seed, size)
    else:
        raise ValueError("unknown workload %r" % workload)
    return inp.ops


def problems(op: Op, code: int, record: dict) -> list[str]:
    """Why the CLI's exit code and record are wrong for `op` (empty if right)."""
    out = []
    want = "yes" if op.yes else "no"
    if code != (0 if op.yes else 1):
        out.append("exit code %d, want %d" % (code, 0 if op.yes else 1))
    if record.get("answer") != want:
        out.append("answer %r, want %r" % (record.get("answer"), want))
    if op.min_size is not None and record.get("min_size") != str(op.min_size):
        out.append("min_size %r, want %d" % (record.get("min_size"), op.min_size))
    if op.yes and op.problem != "cpp" and "witness" not in record:
        out.append("yes without a witness")
    if "witness" in record:
        try:
            wit = [int(v) for v in record["witness"].split(",") if v]
        except ValueError:
            return out + ["unreadable witness %r" % record["witness"]]
        if len(set(wit)) != len(wit) or not checks.witness_ok(op.n, op.edges, wit, op.problem, op.d):
            out.append("witness fails the degree/forest test")
        if op.optimize and len(wit) != op.min_size:
            out.append("witness has %d vertices, minimum is %d" % (len(wit), op.min_size))
        if op.k is not None and len(wit) > op.k:
            out.append("witness has %d vertices, k is %d" % (len(wit), op.k))
    return out
