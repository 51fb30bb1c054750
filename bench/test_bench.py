"""Tests of the benchmark itself, on the smoke size of the same command.

    PYTHONPATH=src python -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

run.load_copack()

import checks  # noqa: E402
import instances  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def smoke(workload: str, trace: int, seed: int = 3) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", "0.2", "--trace", str(trace), "--size", "smoke"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=120, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_reports_every_metric(workload):
    plain = smoke(workload, 0)
    assert set(plain) == {"correct", "attempted", "failed", "metrics"}
    assert plain["correct"] and plain["failed"] == 0 and plain["attempted"] > 0
    assert {k: m["unit"] for k, m in plain["metrics"].items()} == run.END_TO_END
    assert all(m["value"] > 0 for m in plain["metrics"].values())

    traced = [smoke(workload, 1) for _ in range(2)]
    assert {k: m["unit"] for k, m in traced[0]["metrics"].items()} == tracing.UNITS
    for name in tracing.COUNTS:
        assert traced[0]["metrics"][name]["value"] == traced[1]["metrics"][name]["value"], name


def corrupt(mutate):
    """A CLI that answers for real, then has its output altered."""

    def cli(argv):
        code, record = run.call_cli(argv)
        return mutate(code, record)

    return cli


def witness_ops(tmp_path):
    ops = workloads.build("search", 5, "smoke", str(tmp_path), run.reference_min)
    ops = [op for op in ops if op.yes and op.problem == "cpcp"]
    assert ops
    return ops


def test_corrupted_witness_is_a_failed_operation(tmp_path):
    def drop_witness(code, record):
        return code, dict(record, witness="")

    rnd = run.run_round(witness_ops(tmp_path), [], corrupt(drop_witness))
    assert rnd.failed == rnd.attempted and len(rnd.wrong) == rnd.attempted


def test_wrong_answer_is_a_failed_operation(tmp_path):
    def flip(code, record):
        return 1 - code, dict(record, answer="no" if record["answer"] == "yes" else "yes")

    ops = workloads.build("search", 5, "smoke", str(tmp_path), run.reference_min)
    rnd = run.run_round(ops, [], corrupt(flip))
    assert rnd.failed == rnd.attempted == len(ops)


def test_crash_is_failed_but_not_wrong(tmp_path):
    def crash(argv):
        raise RecursionError("deep search")

    rnd = run.run_round(witness_ops(tmp_path), [], crash)
    assert rnd.failed == rnd.attempted and not rnd.wrong


def test_tracing_reaches_every_bound_name():
    import copack.branching
    import copack.cli
    import copack.decomp

    before = (copack.cli.bdd_dp_solve, copack.branching.bdd_dp_solve,
              copack.cli.decomposition_for, copack.decomp.decomposition_for)
    uninstall = tracing.install(tracing.Tracer())
    try:
        assert all(hasattr(f, "__wrapped__") for f in (
            copack.cli.bdd_dp_solve, copack.branching.bdd_dp_solve, copack.bdd.bdd_dp_solve,
            copack.cli.decomposition_for, copack.decomp.decomposition_for,
            copack.cli.parse_graph, copack.branching.verify, copack.graph.Graph.components))
    finally:
        uninstall()
    assert before == (copack.cli.bdd_dp_solve, copack.branching.bdd_dp_solve,
                      copack.cli.decomposition_for, copack.decomp.decomposition_for)


def test_closed_forms_agree_with_brute_force():
    rng = random.Random(0)
    n, edges = instances.cliques((5, 6, 3), rng)
    for problem in ("cpcp", "cpp"):
        assert checks.brute_min(n, edges, problem) == checks.clique_min((5, 6, 3), problem)
    n, edges, _ = instances.grid(3, 5, rng)
    assert checks.brute_min(n, edges, "bdd", 0) == checks.grid_vertex_cover(3, 5)
    n, edges = instances.planted(24, 3, rng)
    assert checks.brute_min(n, edges, "cpcp") == checks.brute_min(n, edges, "cpp") == 3


def test_generated_graphs_have_their_shape():
    from copack import Graph
    from copack.decomp import is_proper, parse_decomposition, validate

    for nv in range(6, 20):
        n, edges = instances.proper(nv, random.Random(nv))
        g = Graph.from_edges(n, edges)
        assert n == nv and is_proper(g) and len(g.components()) == 1
    n, edges, label = instances.grid(4, 6, random.Random(2))
    pd = parse_decomposition(checks.sweep_decomposition(4, 6, label))
    assert validate(Graph.from_edges(n, edges), pd) is None and pd.width == 4


def test_witness_test():
    n, edges = instances.cliques((5,), random.Random(0))
    assert checks.witness_ok(n, edges, [0, 1], "cpcp")
    assert not checks.witness_ok(n, edges, [0, 1], "cpp")  # a triangle is left
    assert checks.witness_ok(n, edges, [0, 1, 2], "cpp")
    assert not checks.witness_ok(n, edges, [0, 1, 2], "bdd", 0)
    assert not checks.witness_ok(n, edges, [7], "cpcp")
