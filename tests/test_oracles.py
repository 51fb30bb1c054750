import pytest

from copack.cutcount import sample_weights
from copack.errors import SizeLimitError
from copack.generators import complete_graph, cycle_graph, path_graph
from copack.graph import Graph
from copack.oracles import branching_factor, min_deletion_set, oracle_min, verify
from cc_bruteforce import (
    MarkedCcSolution,
    cc_candidate_counts,
    count_cc_candidates,
    count_marked_cc_solutions,
    enumerate_marked_cc_solutions,
    marked_cc_counts,
)
from conftest import random_graph


def test_verify_examples():
    c5 = cycle_graph(5)
    assert verify(c5, set(), "cpcp")
    assert not verify(c5, set(), "cpp")
    k5 = complete_graph(5)
    assert verify(k5, {0, 1}, "cpcp")
    assert verify(k5, {3, 4}, "cpcp")
    assert not verify(k5, {0}, "cpcp")
    assert verify(Graph(3), set(), "bdd", 0)
    with pytest.raises(ValueError):
        verify(c5, set(), "bdd")
    with pytest.raises(ValueError):
        verify(c5, set(), "nope")


def test_oracle_min_examples():
    assert oracle_min(cycle_graph(5), "cpcp") == 0
    assert oracle_min(cycle_graph(5), "cpp") == 1
    assert oracle_min(complete_graph(4), "cpp") == 2
    assert oracle_min(complete_graph(3), "bdd", 0) == 2
    with pytest.raises(SizeLimitError):
        oracle_min(Graph(15), "cpcp")


def test_oracle_self_consistency(rng):
    from itertools import combinations

    for t in range(25):
        g = random_graph(t + 17000, n_lo=3, n_hi=7)
        verts = g.vertices()
        for problem in ("cpcp", "cpp"):
            mn = oracle_min(g, problem)
            best = min(
                size
                for size in range(len(verts) + 1)
                for combo in combinations(verts, size)
                if verify(g, set(combo), problem)
            )
            assert mn == best
            cut = min_deletion_set(g, verts, 2, problem == "cpp")
            assert len(cut) == mn and verify(g, cut, problem)


def test_marked_cc_solution_counts():
    g = Graph(1)
    w = sample_weights(g, seed=0)
    assert count_marked_cc_solutions(g, w, 1, 0, w.vertex_weights[0]) == 1
    assert count_marked_cc_solutions(g, w, 1, 0, w.vertex_weights[0] + 1) == 0
    p2 = path_graph(2)
    w = sample_weights(p2, seed=1)
    full = sum(w.vertex_weights.values()) + w.edge_weights[(0, 1)]
    assert count_marked_cc_solutions(p2, w, 2, 1, full) == 1


def test_marked_solutions_structure():
    g = path_graph(4)
    for sol in enumerate_marked_cc_solutions(g):
        assert isinstance(sol, MarkedCcSolution)
        kept = sol.kept
        sub = g.without_vertices(set(g.vertices()) - kept)
        assert sub.is_linear_forest()
        non_iso = [c for c in sub.components() if len(c) > 1]
        assert len(sol.markers) == len(non_iso)
        for comp in non_iso:
            assert any(u in comp and v in comp for u, v in sol.markers)


def test_cc_candidate_counts_examples():
    g = Graph(1)
    w = sample_weights(g, seed=0)
    assert count_cc_candidates(g, w, (1, 1, 0, w.vertex_weights[0], 0)) == 1
    p2 = path_graph(2)
    w = sample_weights(p2, seed=3)
    both = sum(w.vertex_weights.values())
    assert count_cc_candidates(p2, w, (0, 2, 1, both, 0)) == 2  # component on either side
    counts = cc_candidate_counts(p2, w)
    assert all(m <= e for (_, _, e, _, m) in counts)


def test_marked_vs_candidate_parity_small_graphs(rng):
    for t in range(40):
        g = random_graph(t + 18000, n_lo=2, n_hi=6)
        for s in range(3):
            w = sample_weights(g, seed=t * 10 + s)
            mk = marked_cc_counts(g, w)
            cand = cc_candidate_counts(g, w)
            keys = set(mk)
            keys.update((a, n, e, ww) for (a, n, e, ww, m) in cand if m == n - e - a)
            for a, n, e, ww in keys:
                assert mk.get((a, n, e, ww), 0) % 2 == cand.get((a, n, e, ww, n - e - a), 0) % 2


def test_branching_factor_examples():
    assert abs(branching_factor([1, 2]) - (1 + 5 ** 0.5) / 2) < 1e-9
    assert abs(branching_factor([2] * 7) - 7 ** 0.5) < 1e-9
    assert abs(branching_factor([1, 2, 2, 2]) - (1 + 13 ** 0.5) / 2) < 1e-9
    assert abs(branching_factor([1] + [2] * 5) - (1 + 21 ** 0.5) / 2) < 1e-9
    assert round(branching_factor([1] + [3] * 10), 4) == 2.5445
    assert round(branching_factor([1, 2, 2, 2, 3, 3, 3, 3, 3, 3]), 4) == 2.8191
    assert branching_factor([5]) == 1.0
    with pytest.raises(ValueError):
        branching_factor([])
    with pytest.raises(ValueError):
        branching_factor([0, 1])


def test_branching_factor_monotonicity(rng):
    for _ in range(60):
        decs = [rng.randint(1, 5) for _ in range(rng.randint(2, 6))]
        base = branching_factor(decs)
        assert branching_factor(decs + [rng.randint(1, 5)]) >= base - 1e-9
        i = rng.randrange(len(decs))
        bumped = list(decs)
        bumped[i] += 1
        assert branching_factor(bumped) <= base + 1e-9
