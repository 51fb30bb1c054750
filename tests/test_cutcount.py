import random

import pytest

from copack.cutcount import (
    decide_cpp,
    decide_cpp_once,
    WeightAssignment,
    derive_seed,
    parity_dp,
    sample_weights,
)
from copack.decomp import exact_pathwidth, heuristic_pd, to_nice
from copack.generators import cycle_graph, grid_graph, path_graph, proper_graph
from copack.graph import Graph
from copack.oracles import oracle_min
from cc_bruteforce import cc_candidate_counts, enumerate_marked_cc_solutions, fold_counts, marked_cc_counts
from conftest import layout_decomposition, random_graph, shuffled


def events_for(g):
    return to_nice(exact_pathwidth(g)[1])


def test_sample_weights():
    empty = Graph(0)
    w = sample_weights(empty, seed=1)
    assert not w.vertex_weights and not w.edge_weights
    p2 = path_graph(2)
    w = sample_weights(p2, seed=5)
    top = 3 * (p2.alive_count + p2.edge_count)  # 3(n + m) = 9
    assert set(w.vertex_weights) == {0, 1} and set(w.edge_weights) == {(0, 1)}
    assert all(1 <= x <= top for x in w.vertex_weights.values())
    assert all(1 <= x <= top for x in w.edge_weights.values())
    again = sample_weights(p2, seed=5)
    assert again == w
    assert sample_weights(p2, seed=6) != w


def test_parity_single_vertex():
    g = Graph(1)
    w = sample_weights(g, seed=0)
    ev = events_for(g)
    # the kept vertex is one isolate: a = n = 1, e = m = 0, so delta = 0
    assert parity_dp(g, ev, w, 1) == {0: 1 << w.vertex_weights[0]}
    # need 0 adds the empty candidate at weight 0
    assert parity_dp(g, ev, w, 0) == {0: 1 | 1 << w.vertex_weights[0]}
    assert parity_dp(g, ev, w, 2) == {}


def test_parity_single_edge():
    g = path_graph(2)
    w = sample_weights(g, seed=2)
    ev = events_for(g)
    counts = cc_candidate_counts(g, w)
    for need in range(4):
        assert parity_dp(g, ev, w, need) == fold_counts(counts, need), need
    # both kept: the marked edge is the one solution; unmarked, the component
    # sits on either side and the pair cancels at delta -1
    wsum = sum(w.vertex_weights.values()) + w.edge_weights[(0, 1)]
    assert parity_dp(g, ev, w, 2) == {0: 1 << wsum}


def test_parity_matches_bruteforce_all_keys():
    for t in range(80):
        g = random_graph(t + 4400, n_lo=1, n_hi=6)
        ev = events_for(g)
        for s in range(5):
            w = sample_weights(g, seed=derive_seed(t, s))
            counts = cc_candidate_counts(g, w)
            for need in range(g.alive_count + 2):
                assert parity_dp(g, ev, w, need) == fold_counts(counts, need), (t, s, need, g.edges())


def test_parity_most_negative_delta_at_need_zero():
    """need 0 prunes no state, so the walk passes delta = -n/2 (n/2 unmarked
    single-edge components), the lowest the delta field must hold.
    Matchings and paths on the counters' 7 vertices, against the brute
    force."""
    graphs = [Graph.from_edges(7, [(0, 1), (2, 3), (4, 5)]), path_graph(7),
              Graph.from_edges(7, [(0, 1), (2, 3), (4, 5), (1, 2), (3, 4), (5, 6)]),
              Graph.from_edges(6, [(0, 3), (1, 4), (2, 5), (0, 1)])]
    for g in graphs:
        for pd in (exact_pathwidth(g)[1], layout_decomposition(g, g.vertices()[::-1])):
            for s in range(4):
                w = sample_weights(g, seed=derive_seed(77, s))
                assert parity_dp(g, to_nice(pd), w, 0) == fold_counts(cc_candidate_counts(g, w), 0), (g.edges(), s)


def test_parity_wide_layout_matches_exact_decomposition():
    """Id-order layouts of width 8 and 10 (9 and 11 label fields above the
    delta and n_sat fields in one key) give the table the exact
    decomposition gives."""
    for g in (shuffled(grid_graph(4, 4), 1), shuffled(grid_graph(3, 6), 2)):
        wide = to_nice(layout_decomposition(g, g.vertices()))
        exact = to_nice(exact_pathwidth(g)[1])
        assert wide.width >= 8 > exact.width
        w = sample_weights(g, seed=derive_seed(g.alive_count, 5))
        for need in (g.alive_count - 5, g.alive_count - 4):
            table = parity_dp(g, wide, w, need)
            assert table and table == parity_dp(g, exact, w, need), need


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
    graph on up to 4 vertices, several weight draws, every need: bit w at
    delta 0 is the parity of the marked solutions of weight w with at least
    need kept vertices."""
    from conftest import all_graphs

    for n in range(1, 5):
        for g in all_graphs(n):
            ev = events_for(g)
            for s in range(3):
                w = sample_weights(g, seed=derive_seed(90 + n, s))
                counts = cc_candidate_counts(g, w)
                mk = marked_cc_counts(g, w)
                for need in range(n + 2):
                    table = parity_dp(g, ev, w, need)
                    assert table == fold_counts(counts, need)
                    marked = 0
                    for (a, nn, e, ww), c in mk.items():
                        if nn >= need and c % 2:
                            marked ^= 1 << ww
                    assert table.get(0, 0) == marked


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
    same final table at every need, so pruning by need drops no reachable
    key."""
    for n in (16, 17, 18):
        g = proper_graph(n, seed=n)
        exact = to_nice(exact_pathwidth(g)[1])
        greedy = to_nice(heuristic_pd(g))
        assert greedy.width > exact.width
        w = sample_weights(g, seed=derive_seed(n, 0))
        for need in (0, n - 4, n - 1, n):
            table = parity_dp(g, exact, w, need)
            assert table == parity_dp(g, greedy, w, need), (n, need)
            assert need > 0 or 0 in table  # the empty candidate is odd at weight 0


def test_parity_pruning_keeps_every_reachable_key():
    """Pruning by need drops no reachable key. The reference is the unpruned
    run at need 0 with every vertex weight raised by B, more than any
    candidate's own weight, so the kept count is read off the weight's high
    part and the candidates with at least t kept vertices are picked out."""
    for n in (16, 18):
        g = proper_graph(n, seed=n + 1)
        ev = to_nice(heuristic_pd(g))
        w = sample_weights(g, seed=derive_seed(n, 1))
        big = sum(w.vertex_weights.values()) + sum(w.edge_weights.values()) + 1
        lifted = WeightAssignment({v: x + big for v, x in w.vertex_weights.items()}, w.edge_weights)
        full = parity_dp(g, ev, lifted, 0)
        mask = (1 << big) - 1
        for t in range(n + 1):
            expect = {}
            for d, bits in full.items():
                folded = 0
                for kept in range(t, n + 1):
                    folded ^= (bits >> (kept * big)) & mask
                if folded:
                    expect[d] = folded
            assert parity_dp(g, ev, w, t) == expect, (n, t)
