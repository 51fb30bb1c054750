import random

import pytest

from copack.cutcount import (
    decide_cpp,
    decide_cpp_once,
    derive_seed,
    parity_dp,
    sample_weights,
)
from copack.decomp import exact_pathwidth, heuristic_pd, to_nice
from copack.generators import cycle_graph, path_graph, proper_graph
from copack.graph import Graph
from copack.oracles import (
    cc_candidate_counts,
    enumerate_marked_cc_solutions,
    marked_cc_counts,
    oracle_min,
)
from conftest import random_graph


def events_for(g):
    return to_nice(exact_pathwidth(g)[1])


def test_sample_weights():
    empty = Graph(0)
    w = sample_weights(empty, seed=1)
    assert w.n_max == 0 and not w.vertex_weights and not w.edge_weights
    p2 = path_graph(2)
    w = sample_weights(p2, seed=5)
    assert w.n_max == 9
    assert all(1 <= x <= 9 for x in w.vertex_weights.values())
    assert all(1 <= x <= 9 for x in w.edge_weights.values())
    again = sample_weights(p2, seed=5)
    assert again == w
    assert sample_weights(p2, seed=6) != w


def test_parity_single_vertex():
    g = Graph(1)
    w = sample_weights(g, seed=0)
    final = parity_dp(g, events_for(g), w)
    assert (1, 1, 0, w.vertex_weights[0], 0) in final
    assert not any(n == 1 and a == 0 for a, n, e, _, m in final)


def test_parity_single_edge():
    g = path_graph(2)
    w = sample_weights(g, seed=2)
    final = parity_dp(g, events_for(g), w)
    counts = cc_candidate_counts(g, w)
    assert final == {k for k, c in counts.items() if c % 2}
    wsum = sum(w.vertex_weights.values()) + w.edge_weights[(0, 1)]
    assert (0, 2, 1, wsum, 1) in final  # both kept, edge marked
    # both kept unmarked cancels across the two cut sides
    assert (0, 2, 1, sum(w.vertex_weights.values()), 0) not in final


def test_parity_matches_bruteforce_all_keys():
    for t in range(80):
        g = random_graph(t + 4400, n_lo=1, n_hi=6)
        ev = events_for(g)
        for s in range(5):
            w = sample_weights(g, seed=derive_seed(t, s))
            odd_dp = parity_dp(g, ev, w)
            counts = cc_candidate_counts(g, w)
            assert odd_dp == {k for k, c in counts.items() if c % 2}, (t, s, g.edges())


def test_unmarked_component_counts_are_even():
    # a subgraph with an unmarked non-isolate component contributes evenly
    for t in range(25):
        g = random_graph(t + 5100, n_lo=2, n_hi=6)
        w = sample_weights(g, seed=t)
        counts = cc_candidate_counts(g, w)
        mk = marked_cc_counts(g, w)
        for (a, n, e, ww, m), c in counts.items():
            if m != n - e - a:
                continue
            # keys at the proper marker count have candidate parity equal to
            # marked-solution parity; all surplus pairs cancel
            assert c % 2 == mk.get((a, n, e, ww), 0) % 2


def test_parity_chain_exhaustive_tiny_graphs():
    """DP parity -> candidate parity -> marked-solution parity, every labeled
    graph on up to 4 vertices, several weight draws."""
    from conftest import all_graphs

    for n in range(1, 5):
        for g in all_graphs(n):
            ev = events_for(g)
            for s in range(3):
                w = sample_weights(g, seed=derive_seed(90 + n, s))
                odd_dp = parity_dp(g, ev, w)
                counts = cc_candidate_counts(g, w)
                assert odd_dp == {k for k, c in counts.items() if c % 2}
                mk = marked_cc_counts(g, w)
                keys = set(mk) | {
                    (a, nn, e, ww) for (a, nn, e, ww, m) in counts if m == nn - e - a
                }
                for a, nn, e, ww in keys:
                    assert (
                        mk.get((a, nn, e, ww), 0) % 2
                        == counts.get((a, nn, e, ww, nn - e - a), 0) % 2
                    )


def test_decide_examples():
    p4 = path_graph(4)
    assert decide_cpp_once(p4, 0, events_for(p4), seed=0)
    c6 = cycle_graph(6)
    ev6 = events_for(c6)
    assert all(not decide_cpp_once(c6, 0, ev6, seed=s) for s in range(40))
    hits = sum(decide_cpp_once(c6, 1, ev6, seed=s) for s in range(60))
    assert hits >= 40  # expected >= 2/3 of 60


def test_decide_cpp_wrapper():
    p4 = path_graph(4)
    assert decide_cpp(p4, 0, events_for(p4), repeats=1, seed=0)
    c6 = cycle_graph(6)
    assert not decide_cpp(c6, 0, events_for(c6), repeats=10, seed=0)
    assert decide_cpp(c6, 1, events_for(c6), repeats=10, seed=0)
    with pytest.raises(ValueError):
        decide_cpp(p4, 0, events_for(p4), repeats=0, seed=0)


def test_yes_is_sound():
    for t in range(120):
        g = random_graph(t + 6000, n_lo=1, n_hi=7)
        ev = events_for(g)
        mn = oracle_min(g, "cpp")
        for k in range(g.alive_count + 1):
            for s in range(3):
                if decide_cpp_once(g, k, ev, seed=derive_seed(1000 + t, s)):
                    assert k >= mn, (t, k, mn, g.edges())


def test_isolation_rate():
    g = cycle_graph(7)
    # slice out the empty solution's trivial weight-zero isolation: use the
    # family a (C7, k=1) decision actually relies on
    family = [
        (sol.kept, sol.markers)
        for sol in enumerate_marked_cc_solutions(g)
        if len(sol.kept) >= 6
    ]
    assert family
    universe = 7 + 7
    samples = 200
    isolated = 0
    for s in range(samples):
        w = sample_weights(g, seed=s)
        weights = sorted(
            sum(w.vertex_weights[v] for v in kept) + sum(w.edge_weights[e] for e in mk)
            for kept, mk in family
        )
        if len(weights) == 1 or weights[0] != weights[1]:
            isolated += 1
    bound = 1 - universe / (3 * universe)  # = 2/3
    sigma = (bound * (1 - bound) / samples) ** 0.5
    assert isolated / samples >= bound - 3 * sigma


def test_derive_seed_spread():
    seen = {derive_seed(0, t) for t in range(100)} | {derive_seed(s, 0) for s in range(1, 101)}
    assert len(seen) == 200


def test_parity_decomposition_independent_past_oracle():
    """Past the oracle's reach the DP is checked against itself: the same
    weights over a narrow exact and a wider greedy decomposition give the
    same final table."""
    for n in (16, 17, 18):
        g = proper_graph(n, seed=n)
        exact = to_nice(exact_pathwidth(g)[1])
        greedy = to_nice(heuristic_pd(g))
        assert greedy.width > exact.width
        w = sample_weights(g, seed=derive_seed(n, 0))
        assert parity_dp(g, exact, w) == parity_dp(g, greedy, w), n


def test_parity_pruning_keeps_every_reachable_key():
    for n in (16, 18):
        g = proper_graph(n, seed=n + 1)
        ev = to_nice(heuristic_pd(g))
        w = sample_weights(g, seed=derive_seed(n, 1))
        full = parity_dp(g, ev, w)
        for t in (n - 4, n - 1, n):
            assert parity_dp(g, ev, w, min_keep=t) == {key for key in full if key[1] >= t}, (n, t)
