import random
import tracemalloc

import pytest

from copack.bdd import bdd_dp_solve
from copack.cutcount import parity_dp, sample_weights
from copack.decomp import NiceEventSequence, PathDecomposition, exact_pathwidth, heuristic_pd, to_nice, validate
from copack.generators import complete_graph, cycle_graph, gnm_graph, grid_graph, path_graph, proper_graph
from copack.graph import Graph
from copack.oracles import oracle_min, verify
from bdd_reference import reference_bdd_dp
from conftest import all_graphs, layout_decomposition, random_graph, shuffled


def events_for(g):
    return to_nice(exact_pathwidth(g)[1])


def test_examples():
    k3 = complete_graph(3)
    size, wit = bdd_dp_solve(k3, events_for(k3), 0)
    assert size == 2 and len(wit) == 2 and verify(k3, wit, "bdd", 0)
    c5 = cycle_graph(5)
    size, wit = bdd_dp_solve(c5, events_for(c5), 2)
    assert size == 0 and wit == set()
    p3 = path_graph(3)
    size, wit = bdd_dp_solve(p3, events_for(p3), 1)
    assert size == 1 and verify(p3, wit, "bdd", 1)


def test_recover_examples():
    edgeless = Graph(4)
    size, wit = bdd_dp_solve(edgeless, events_for(edgeless), 1)
    assert size == 0 and wit == set()
    k14 = Graph.from_edges(5, [(0, i) for i in range(1, 5)])
    size, wit = bdd_dp_solve(k14, events_for(k14), 2)
    assert size == 1 and len(wit) == 1 and verify(k14, wit, "bdd", 2)


def test_exhaustive_small_graphs():
    for n in range(1, 6):
        for g in all_graphs(n):
            ev = events_for(g)
            for d in (0, 1, 2, 3):
                size, wit = bdd_dp_solve(g, ev, d)
                assert size == oracle_min(g, "bdd", d), (n, g.edges(), d)
                assert len(wit) == size and verify(g, wit, "bdd", d)


def test_exhaustive_six_vertices():
    # all 32768 labeled graphs on 6 vertices; witnesses spot-verified
    for i, g in enumerate(all_graphs(6)):
        ev = events_for(g)
        for d in (0, 1, 2, 3):
            size, wit = bdd_dp_solve(g, ev, d)
            assert size == oracle_min(g, "bdd", d), (g.edges(), d)
            if i % 16 == 0:
                assert len(wit) == size and verify(g, wit, "bdd", d)


def test_random_larger_graphs():
    for t in range(120):
        g = random_graph(t + 2200, n_lo=6, n_hi=8)
        ev = events_for(g)
        for d in (0, 1, 2, 3):
            size, wit = bdd_dp_solve(g, ev, d)
            assert size == oracle_min(g, "bdd", d)
            assert verify(g, wit, "bdd", d) and len(wit) == size


def test_decomposition_independence():
    rng = random.Random(17)
    for t in range(40):
        g = random_graph(t + 3100, n_lo=3, n_hi=8)
        decs = [exact_pathwidth(g)[1], heuristic_pd(g), PathDecomposition([set(g.vertices())])]
        order = g.vertices()
        rng.shuffle(order)
        decs.append(layout_decomposition(g, order))
        results = set()
        for pd in decs:
            assert validate(g, pd) is None
            for d in (0, 2):
                results.add((d, bdd_dp_solve(g, to_nice(pd), d)[0]))
        for d in (0, 2):
            vals = {size for dd, size in results if dd == d}
            assert len(vals) == 1


def test_packed_fields_at_each_degree_bound():
    """d = 0, 1, 2, 3 pack each label into 1, 2, 2 and 3 bits. Graphs whose
    kept degrees reach d and whose one-bag or id-order layouts are wide,
    against the oracle."""
    graphs = [complete_graph(7), grid_graph(3, 4), Graph.from_edges(7, [(0, i) for i in range(1, 7)])]
    graphs += [gnm_graph(14, 24, 5), shuffled(grid_graph(3, 4), 8)]
    graphs += [random_graph(t + 6600, n_lo=9, n_hi=12) for t in range(6)]
    for g in graphs:
        decs = [exact_pathwidth(g)[1], layout_decomposition(g, g.vertices())]
        if g.alive_count <= 7:
            decs.append(PathDecomposition([set(g.vertices())]))
        for d in (0, 1, 2, 3):
            mn = oracle_min(g, "bdd", d)
            for pd in decs:
                size, wit = bdd_dp_solve(g, to_nice(pd), d)
                assert size == mn and len(wit) == size and verify(g, wit, "bdd", d), (g.edges(), d, pd)


def test_wide_layout_matches_exact_decomposition():
    """Past the oracle: id-order layouts of width 8 to 10 (9 to 11 label
    fields in one key) give the minimum the exact decomposition gives."""
    for g in (shuffled(grid_graph(4, 4), 1), shuffled(proper_graph(16, 3), 3), shuffled(grid_graph(3, 6), 2)):
        wide = layout_decomposition(g, g.vertices())
        exact = exact_pathwidth(g)[1]
        assert wide.width >= 8 > exact.width
        for d in (0, 1, 2, 3):
            size, wit = bdd_dp_solve(g, to_nice(wide), d)
            assert size == bdd_dp_solve(g, to_nice(exact), d)[0] and verify(g, wit, "bdd", d), d


def banded_graph(seed):
    """15 to 60 vertex ids, each edge joining ids at most 2 to 6 apart, and a
    few vertices deleted: the id-order layout stays narrow enough for the
    unpruned reference."""
    rng = random.Random(seed)
    n, band = rng.randint(15, 60), rng.randint(2, 6)
    p = rng.uniform(0.4, 0.9)
    edges = [(u, v) for u in range(n) for v in range(u + 1, min(n, u + band + 1)) if rng.random() < p]
    g = Graph.from_edges(n, edges)
    g.remove_vertices(rng.sample(range(n), rng.randint(0, n // 8)))
    return g


def cubic_graph(n, seed):
    """A random simple 3-regular graph on n vertices (n even), from seeded
    stub pairings until one has no loop or repeated edge."""
    rng = random.Random(seed)
    while True:
        stubs = [v for v in range(n) for _ in range(3)]
        rng.shuffle(stubs)
        edges = {(min(a, b), max(a, b)) for a, b in zip(stubs[::2], stubs[1::2])}
        if len(edges) == 3 * n // 2 and all(a != b for a, b in edges):
            return Graph.from_edges(n, sorted(edges))


def test_pruned_tables_match_the_unpruned_reference():
    """Past the oracle: on greedy, id-order and (up to 22 vertices) exact
    decompositions, dropping dominated labellings and merging the degree
    labels below each floor keep the reference's minimum, and the witness
    is a deletion set of that size. d = 4 and 5 pack each label into 3
    bits with floors below d - 1, on every other banded graph; on grids and
    cubic graphs most vertices reach their floor before their last
    neighbour arrives."""
    graphs = [banded_graph(t + 8800) for t in range(120)]
    graphs += [proper_graph(n, s) for n in range(15, 31, 3) for s in range(2)]
    graphs += [grid_graph(r, c) for r, c in ((3, 4), (3, 6), (4, 4), (4, 5), (5, 5))]
    graphs += [shuffled(grid_graph(4, 5), 4)]
    graphs += [cubic_graph(n, s) for n in (8, 10, 12, 14, 16) for s in range(2)]
    for t, g in enumerate(graphs):
        decs = [heuristic_pd(g), layout_decomposition(g, g.vertices())]
        if g.alive_count <= 22:
            decs.append(exact_pathwidth(g)[1])
        for pd in decs:
            ev = to_nice(pd)
            for d in (0, 1, 2, 3, 4, 5) if t % 2 or t >= 120 else (0, 1, 2, 3):
                size, wit = bdd_dp_solve(g, ev, d)
                assert size == reference_bdd_dp(g, ev, d)[0], (t, pd.width, d)
                assert len(wit) == size and verify(g, wit, "bdd", d), (t, pd.width, d)


def test_vertices_without_neighbours_share_bags():
    """Isolated vertices spread over runs of another graph's bags, as a
    supplied decomposition may put them, change nothing: the minimum is the
    unpruned reference's and the oracle's, and (size, witness) is what the
    DP returns on the graph without them. The first one sits in the first
    bag, so it holds slot 0 while the others are introduced."""
    for t in range(150):
        g0 = random_graph(t + 9100, n_lo=3, n_hi=9)
        rng = random.Random(t)
        g = Graph.from_edges(g0.size + rng.randint(1, 3), g0.edges())
        pd0 = exact_pathwidth(g0)[1]
        bags = [set(b) for b in pd0.bags]
        for v in range(g0.size, g.size):
            i = 0 if v == g0.size else rng.randrange(len(bags))
            for b in bags[i : rng.randint(i + 1, len(bags))]:
                b.add(v)
        ev = to_nice(PathDecomposition(bags))
        for d in range(4):
            size, wit = bdd_dp_solve(g, ev, d)
            assert (size, wit) == bdd_dp_solve(g0, to_nice(pd0), d), (t, d)
            assert size == reference_bdd_dp(g, ev, d)[0] == oracle_min(g, "bdd", d), (t, d)
            assert verify(g, wit, "bdd", d), (t, d)


def test_labels_below_a_floor_merge():
    """The 4-cycle 0-2-1-3 with a pendant 4 on 0, at d = 1, in the layout
    order 0, 1, 2, 4, 3. Before 3, the last neighbour of both 0 and 1,
    arrives, each has one neighbour to come, so both floors are d - 1 = 0.
    Two entries are undominated there: 0 kept at degree 0 and 1 at 0
    (deleting 2 and 4, cost 2), and 0 kept at degree 1 and 1 at 0 (deleting
    2, cost 1). Deleting 3 raises every label at its floor to 1, so both
    entries' deleted children become "0 at 1, 1 at 1, 3 deleted", one entry
    that keeps the cheaper mask {2, 3}. The minimum is 2, as deleting 0
    and one of 1, 2, 3 shows and no single deletion leaves degrees <= 1."""
    g = Graph.from_edges(5, [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3)])
    ev = to_nice(layout_decomposition(g, [0, 1, 2, 4, 3]))
    assert ev.events[5:7] == [("forget", 4), ("introduce", 3)]
    size, wit = bdd_dp_solve(g, ev, 1)
    assert size == 2 == len(wit) and verify(g, wit, "bdd", 1)
    for d in (0, 1, 2, 3):
        size, wit = bdd_dp_solve(g, ev, d)
        assert size == reference_bdd_dp(g, ev, d)[0] == oracle_min(g, "bdd", d) and verify(g, wit, "bdd", d)


def test_bad_events_rejected():
    g = path_graph(3)
    weights = sample_weights(g, 0)
    intro = [("introduce", v) for v in range(3)]
    forget = [("forget", v) for v in range(3)]
    bad = {
        "introduced twice": intro + forget[:1] + [("introduce", 0)] + forget,
        "never introduced": [("introduce", 0), ("introduce", 1), ("forget", 0), ("forget", 1)],
        "forgotten while absent": intro + [("forget", 0)] + forget,
        "bag left nonempty": intro + forget[:2],
        "unknown op": intro + [("touch", 1)] + forget,
        "dead vertex": intro + [("introduce", 3)] + forget,
    }
    for case, events in bad.items():
        ev = NiceEventSequence(events, 2)
        with pytest.raises(ValueError):
            bdd_dp_solve(g, ev, 2)
            pytest.fail("bdd_dp_solve accepted: " + case)
        with pytest.raises(ValueError):
            parity_dp(g, ev, weights, 0)
            pytest.fail("parity_dp accepted: " + case)
    # each K3 vertex alone in its bag: no bag covers an edge, and a DP that
    # ran anyway would see an edgeless graph (0 deletions, a false cpp yes)
    k3 = complete_graph(3)
    alone = NiceEventSequence([(op, v) for v in range(3) for op in ("introduce", "forget")], 0)
    with pytest.raises(ValueError):
        bdd_dp_solve(k3, alone, 0)
    with pytest.raises(ValueError):
        parity_dp(k3, alone, sample_weights(k3, 0), 3)


def test_table_memory_stays_small():
    # one deletion mask per entry: the peak follows the largest table, not the
    # event count. Only undominated labellings stay: about 0.22 MB, against
    # 1.14 MB with every reachable labelling kept
    g = grid_graph(7, 10)
    ev = to_nice(heuristic_pd(g))
    tracemalloc.start()
    try:
        bdd_dp_solve(g, ev, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**19
