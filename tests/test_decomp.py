import random
from itertools import permutations

import pytest

from copack.bdd import bdd_dp_solve
from copack.decomp import (
    EXACT_PATHWIDTH_LIMIT,
    NiceEventSequence,
    PathDecomposition,
    Violation,
    _layout_to_decomposition,
    decomposition_for,
    exact_pathwidth,
    guard_check,
    heuristic_pd,
    is_proper,
    parse_decomposition,
    to_nice,
    validate,
    write_decomposition,
)
from copack.errors import GraphFormatError, SizeLimitError
from copack.generators import complete_graph, cycle_graph, gnm_graph, grid_graph, path_graph, planted_graph, proper_graph
from copack.graph import Graph
from conftest import all_graphs, exact_decomposition_for, layout_decomposition, plain_heuristic_pd, random_graph


def test_validate_examples():
    p3 = Graph.from_edges(3, [(0, 1), (1, 2)])
    ok = PathDecomposition([{0, 1}, {1, 2}])
    assert validate(p3, ok) is None and ok.width == 1
    g3 = Graph.from_edges(3, [(0, 2)])
    p2 = Graph.from_edges(3, [(0, 1), (1, 2)])
    p2.remove_vertex(2)
    # one fault each; the walk names its property and witness
    for g, bags, prop, witness in (
        (p3, [{0, 1}, {1, 2, 3}], "P1", (3,)),  # a bag vertex outside the graph
        (p2, [{0, 1}, {1, 2}], "P1", (2,)),  # a deleted bag vertex
        (p3, [{0, 1}], "P1", (2,)),  # a vertex in no bag
        (p3, [{0, 1}, {2}], "P2", (1, 2)),
        (g3, [{0}, {1}, {0, 2}], "P3", (0,)),
    ):
        bad = validate(g, PathDecomposition(bags))
        assert isinstance(bad, Violation) and isinstance(bad, ValueError)
        assert (bad.prop, bad.witness) == (prop, witness), bags


def test_to_nice_examples():
    p3 = Graph.from_edges(3, [(0, 1), (1, 2)])
    ev = to_nice(PathDecomposition([{0, 1}, {1, 2}]))
    assert ev.width == 1
    assert [op for op, *_ in ev.walk(p3)] == ["introduce", "introduce", "forget", "introduce", "forget", "forget"]
    single = to_nice(PathDecomposition([{0}]))
    assert single.events == [("introduce", 0), ("forget", 0)]


def test_walk_slots_are_fixed_and_below_the_bag_size(rng):
    # each bag vertex keeps one slot from introduce to forget, no two share
    # one, and no slot reaches the largest bag size
    for t in range(60):
        g = random_graph(t + 2600, n_lo=1, n_hi=12)
        order = g.vertices()
        rng.shuffle(order)
        for pd in (layout_decomposition(g, order), exact_pathwidth(g)[1], heuristic_pd(g)):
            ev = to_nice(pd)
            seen, introduced_at = [], {}
            for op, v, slot, bag in ev.walk(g):
                seen.append((op, v))
                assert len(set(bag.values())) == len(bag)
                assert all(0 <= s <= ev.width for s in bag.values()) and 0 <= slot <= ev.width
                if op == "introduce":
                    assert v not in bag and slot not in bag.values()
                    introduced_at[v] = slot
                else:
                    assert bag[v] == slot == introduced_at[v]
            assert seen == ev.events


def test_layout_bags_match_a_rescan_of_the_placed_vertices(rng):
    for t in range(80):
        g = random_graph(t + 2700, n_lo=1, n_hi=14)
        order = g.vertices()
        rng.shuffle(order)
        assert _layout_to_decomposition(g, order).bags == layout_decomposition(g, order).bags


def test_to_nice_preserves_width(rng):
    for t in range(100):
        g = random_graph(t + 40, n_lo=2, n_hi=8)
        # random valid decomposition: bags from a random vertex layout
        order = g.vertices()
        rng.shuffle(order)
        placed = set()
        bags = []
        for v in order:
            bag = {u for u in placed if g.neighbors(u) - placed}
            bag.add(v)
            bags.append(bag)
            placed.add(v)
        pd = PathDecomposition(bags)
        assert validate(g, pd) is None
        assert to_nice(pd).width == pd.width


def test_exact_pathwidth_small_families():
    w, pd = exact_pathwidth(path_graph(6))
    assert w == 1 and validate(path_graph(6), pd) is None and pd.width == 1
    w, pd = exact_pathwidth(cycle_graph(6))
    assert w == 2 and pd.width == 2
    w, pd = exact_pathwidth(complete_graph(5))
    assert w == 4
    w, pd = exact_pathwidth(Graph(0))
    assert w == -1 and pd.bags == []
    w, pd = exact_pathwidth(Graph(3))
    assert w == 0


def test_exact_pathwidth_no_width1_decomposition_for_c6():
    # lower bound cross-check: every width-1 candidate fails validation
    g = cycle_graph(6)
    w, _ = exact_pathwidth(g)
    assert w == 2
    # a cycle admits no decomposition with all bags of size <= 2: spot-check
    # a few random bag sequences
    rng = random.Random(5)
    for _ in range(200):
        bags = []
        for _ in range(rng.randint(1, 8)):
            bags.append(rng.sample(range(6), rng.randint(1, 2)))
        assert validate(g, PathDecomposition(bags)) is not None


def test_exact_is_lower_bound_of_sampled_decompositions(rng):
    for t in range(40):
        g = random_graph(t + 300, n_lo=2, n_hi=8)
        w, pd = exact_pathwidth(g)
        assert validate(g, pd) is None and pd.width == w
        for _ in range(5):
            order = g.vertices()
            rng.shuffle(order)
            placed = set()
            bags = []
            for v in order:
                bag = {u for u in placed if g.neighbors(u) - placed}
                bag.add(v)
                bags.append(bag)
                placed.add(v)
            cand = PathDecomposition(bags)
            assert validate(g, cand) is None
            assert cand.width >= w


def _min_vertex_separation(g):
    """Pathwidth by brute force: the smallest, over every vertex order, of the
    largest number of placed vertices with an unplaced neighbor."""
    verts = g.vertices()
    boundary = {}  # placed set -> its count

    def count(placed):
        if placed not in boundary:
            boundary[placed] = sum(1 for u in placed if g.neighbors(u) - placed)
        return boundary[placed]

    best = len(verts) - 1  # -1 for the empty graph
    for order in permutations(verts):
        best = min(best, max(count(frozenset(order[:i])) for i in range(len(order) + 1)))
    return best


def test_exact_pathwidth_matches_every_order():
    graphs = [g for n in range(6) for g in all_graphs(n)]
    graphs += [random_graph(t + 2000, n_lo=6, n_hi=7) for t in range(100)]
    for g in graphs:
        w, pd = exact_pathwidth(g)
        assert w == _min_vertex_separation(g), g.edges()
        assert validate(g, pd) is None and pd.width == w and to_nice(pd).width == w


def test_exact_pathwidth_on_proper_graphs():
    for n in range(14, 23):
        for s in range(4):
            g = proper_graph(n, s)
            w, pd = exact_pathwidth(g)
            assert validate(g, pd) is None and pd.width == w
            assert w <= heuristic_pd(g).width


def _union(parts):
    edges, offset = [], 0
    for h in parts:
        edges += [(u + offset, v + offset) for u, v in h.edges()]
        offset += h.size
    return Graph.from_edges(offset, edges)


def _small_graphs(count):
    """count seeded proper and gnm graphs of 5-22 vertices, half of each."""
    for t in range(count // 2):
        yield proper_graph(8 + t % 15, t // 15)
        rng = random.Random(t + 4100)
        n = rng.randint(5, 16)
        yield gnm_graph(n, rng.randint(0, min(n * (n - 1) // 2, 2 * n)), t + 4100)


def test_decomposition_for_is_near_exact_on_small_components():
    # the hub layout of a component of at most EXACT_PATHWIDTH_LIMIT
    # vertices is at most two wider than its pathwidth
    for g in _small_graphs(300):
        assert validate(g, decomposition_for(g)) is None
        for h in g.copy().split():
            assert decomposition_for(h).width <= exact_pathwidth(h)[0] + 2, h.edges()


def test_decomposition_for_is_no_wider_than_greedy_past_the_limit():
    graphs = [grid_graph(r, c) for r, c in ((5, 5), (6, 10), (7, 10))]
    graphs += [proper_graph(n, s) for n in range(23, 80, 7) for s in range(3)]
    graphs += [gnm_graph(n, 2 * n, n) for n in (30, 45, 60)]
    for sizes in ((14, 16, 18), (20, 20), (6, 9, 22, 12), (30, 40)):
        graphs.append(_union([proper_graph(n, i) for i, n in enumerate(sizes)]))
    for g in graphs:
        pd = decomposition_for(g)
        assert validate(g, pd) is None
        widths = [decomposition_for(h).width for h in g.copy().split()]
        assert pd.width == max(widths)
        for h, w in zip(g.copy().split(), widths):
            if h.alive_count > EXACT_PATHWIDTH_LIMIT:
                assert w <= heuristic_pd(h).width, h.edges()


def test_decomposition_width_bound_on_proper_graphs():
    # Fomin & Hoie: the pathwidth of a graph with ni vertices of degree i is
    # at most n3/6 + n4/3 + o(n). The constant 11/3 is the largest excess
    # measured over these 136 graphs (proper_graph(40, 6): width 6, n3/6 +
    # n4/3 = 7/3), compared here in integers
    for n in range(40, 201, 10):
        for s in range(8):
            g = proper_graph(n, s)
            pd = decomposition_for(g)
            assert validate(g, pd) is None
            deg = [len(g.neighbors(v)) for v in g.vertices()]
            assert 6 * pd.width <= deg.count(3) + 2 * deg.count(4) + 22, (n, s, pd.width)


def _chained(n_hubs, chains, extra_edges=()):
    """Hubs 0..n_hubs-1, joined by each chain (a, b, length): length new
    vertices from hub a to hub b, a pendant chain when b is None and a cycle
    through a alone when b == a."""
    edges, n = list(extra_edges), n_hubs
    for a, b, length in chains:
        run = [a] + list(range(n, n + length)) + ([] if b is None else [b])
        edges += list(zip(run, run[1:]))
        n += length
    return Graph.from_edges(n, edges)


def test_hub_layout_shapes():
    shapes = [
        # two hubs: chains of 1-5 vertices between them, beside a direct edge
        _chained(2, [(0, 1, m) for m in range(1, 6)], [(0, 1)]),
        # several chains between the same two hubs, and a third hub
        _chained(3, [(0, 1, 1), (0, 1, 2), (0, 1, 3), (1, 2, 1), (2, 0, 4), (1, 2, 5)]),
        # K4 of hubs with one chain per edge
        _chained(4, [(a, b, 1 + (a + b) % 3) for a in range(4) for b in range(a + 1, 4)]),
        # pendant chains and a cycle hanging off one hub
        _chained(1, [(0, None, 1), (0, None, 3), (0, 0, 4)]),
        _chained(2, [(0, 1, 2), (0, 1, 1), (0, 1, 3), (0, None, 2), (1, 1, 3), (1, 0, 1)]),
        _chained(3, [(0, 0, 2), (0, 0, 5), (1, 1, 2), (2, None, 4)], [(0, 1), (1, 2)]),
    ]
    for g in shapes:
        pd = decomposition_for(g)
        assert validate(g, pd) is None, g.edges()
        assert pd.width <= exact_pathwidth(g)[0] + 2, g.edges()
    # components without a hub are walked, at their pathwidth
    for g, width in ((path_graph(7), 1), (cycle_graph(3), 2), (cycle_graph(9), 2), (Graph(1), 0), (Graph(0), -1),
                     (_union([cycle_graph(5), path_graph(1), path_graph(2), Graph.from_edges(4, [(2, 0), (0, 3), (3, 1)])]), 2)):
        pd = decomposition_for(g)
        assert validate(g, pd) is None and pd.width == width, g.edges()
        assert len(pd.bags) == g.alive_count


def test_hub_layout_keeps_deletion_minima():
    # the deletion DP's minimum does not depend on the decomposition
    for g in _small_graphs(200):
        events = to_nice(decomposition_for(g))
        exact = to_nice(exact_decomposition_for(g))
        for d in range(4):
            assert bdd_dp_solve(g, events, d)[0] == bdd_dp_solve(g, exact, d)[0], (g.edges(), d)


def test_exact_pathwidth_limit():
    with pytest.raises(SizeLimitError):
        exact_pathwidth(Graph(EXACT_PATHWIDTH_LIMIT + 1))


def test_heuristic_examples():
    g = path_graph(10)
    pd = heuristic_pd(g)
    assert validate(g, pd) is None and pd.width >= 1
    c8 = cycle_graph(8)
    pd = heuristic_pd(c8)
    assert validate(c8, pd) is None
    assert pd.width >= exact_pathwidth(c8)[0]
    grid = grid_graph(3, 3)
    pd = heuristic_pd(grid)
    assert validate(grid, pd) is None
    assert pd.width >= exact_pathwidth(grid)[0] == 3


def test_heuristic_valid_on_random(rng):
    for t in range(40):
        g = random_graph(t + 700, n_lo=1, n_hi=9)
        assert validate(g, heuristic_pd(g)) is None


def test_heuristic_matches_the_plain_loop():
    # rescoring only near each placed vertex picks what scoring all would
    graphs = [random_graph(t + 4300, n_lo=1, n_hi=14) for t in range(60)]
    graphs += [gnm_graph(40, 80, t) for t in range(30)]
    graphs += [grid_graph(7, 10), proper_graph(200, 1), planted_graph(400, 40, 1)]
    for g in graphs:
        assert heuristic_pd(g).bags == plain_heuristic_pd(g).bags, g.edges()


def test_guard_check():
    g = proper_graph(12, seed=3)
    assert guard_check(g, 12)  # 12 <= 100 * 12, and n3 + 2 * n4 <= 48
    assert not guard_check(g, 0)  # 12 > 100 * 0
    # three disjoint K1,4 stars at k = 1: 15 <= 100 vertices, but n3 + 2 * n4 = 6 > 4
    stars = Graph.from_edges(15, [(5 * s, 5 * s + i) for s in range(3) for i in range(1, 5)])
    assert not guard_check(stars, 1)
    assert guard_check(complete_graph(4), 1)  # n3 = 4 <= 4


def test_is_proper():
    assert not is_proper(path_graph(7))  # inner degree-2 vertices see no hub
    assert not is_proper(cycle_graph(7))
    assert not is_proper(complete_graph(6))  # degree 5
    assert is_proper(proper_graph(10, seed=1))
    small = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
    assert not is_proper(small)  # component of 3
    spider = [(0, 1), (0, 2), (0, 3), (0, 4), (1, 5)]
    assert is_proper(Graph.from_edges(6, spider))
    assert not is_proper(Graph.from_edges(7, spider + [(1, 6)]))  # degree 4 beside degree 3


def test_walk_rejects_bad_event_lists():
    p3 = Graph.from_edges(3, [(0, 1), (1, 2)])
    bad = NiceEventSequence(
        [("introduce", 0), ("forget", 0), ("introduce", 1), ("forget", 1),
         ("introduce", 2), ("forget", 2)], 0)
    with pytest.raises(Violation) as exc:
        list(bad.walk(p3))  # edges never share a bag
    assert (exc.value.prop, exc.value.witness) == ("P2", (0, 1))
    # faults only a hand-built list can have are plain ValueErrors
    for events in (
        [("introduce", 0), ("forget", 1)],
        [("introduce", 0), ("move", 0)],
        [("introduce", 0), ("introduce", 1), ("introduce", 2), ("forget", 0)],
    ):
        with pytest.raises(ValueError) as exc:
            list(NiceEventSequence(events, 2).walk(p3))
        assert not isinstance(exc.value, Violation)


def test_decomposition_roundtrip(rng):
    for t in range(20):
        g = random_graph(t + 1300, n_lo=1, n_hi=8)
        _, pd = exact_pathwidth(g)
        text = write_decomposition(pd)
        back = parse_decomposition(text)
        assert back.bags == pd.bags


def test_decomposition_parse_errors():
    with pytest.raises(GraphFormatError):
        parse_decomposition("b 1 2\n")
    with pytest.raises(GraphFormatError):
        parse_decomposition("p pd 2 1 1\nb 1 1\n")
    bad = parse_decomposition
    with pytest.raises(GraphFormatError) as exc:
        bad("p pd 1 1 1\nb 1 0\n")
    assert "1-based" in str(exc.value)
