import random
from itertools import combinations

import pytest

from copack.decomp import EXACT_PATHWIDTH_LIMIT, PathDecomposition, _layout_to_decomposition, exact_pathwidth, heuristic_pd
from copack.generators import gnm_graph
from copack.graph import Graph


def random_graph(seed, n_lo=4, n_hi=9):
    rng = random.Random(seed)
    n = rng.randint(n_lo, n_hi)
    m = rng.randint(0, n * (n - 1) // 2)
    return gnm_graph(n, m, seed * 7919 + 13)


def all_graphs(n):
    """Every labeled graph on n vertices (2^C(n,2) of them)."""
    pairs = list(combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        yield Graph.from_edges(n, [pairs[i] for i in range(len(pairs)) if (mask >> i) & 1])


def layout_decomposition(g, order):
    """Bags of a vertex layout: each vertex with the placed vertices that
    still have an unplaced neighbor."""
    placed, bags = set(), []
    for v in order:
        bags.append({u for u in placed if g.neighbors(u) - placed} | {v})
        placed.add(v)
    return PathDecomposition(bags)


def exact_decomposition_for(g):
    """Each component's optimal decomposition up to EXACT_PATHWIDTH_LIMIT
    vertices and its greedy one above, the bags concatenated: for tests
    that pin what the deletion DP returns on such decompositions."""
    bags = []
    for h in g.copy().split():
        pd = exact_pathwidth(h)[1] if h.alive_count <= EXACT_PATHWIDTH_LIMIT else heuristic_pd(h)
        bags += pd.bags
    return PathDecomposition(bags)


def plain_heuristic_pd(g):
    """heuristic_pd's greedy as a plain loop: each step scores every
    unplaced vertex by (the change in the placed vertices with an unplaced
    neighbor, the change in the edges from placed to unplaced vertices) and
    places the least score, the lowest id on ties."""
    adj = g._adj
    remaining = set(g.vertices())
    placed, order = set(), []
    unplaced = {v: len(adj[v]) for v in remaining}
    while remaining:
        best_v, best_cost = None, None
        for v in sorted(remaining):
            boundary = (unplaced[v] > 0) - sum(1 for u in adj[v] if unplaced[u] == 1 and u in placed)
            cut = sum(1 if u in remaining else -1 for u in adj[v])
            cost = (boundary, cut)
            if best_cost is None or cost < best_cost:
                best_v, best_cost = v, cost
        order.append(best_v)
        placed.add(best_v)
        remaining.discard(best_v)
        for u in adj[best_v]:
            unplaced[u] -= 1
    return _layout_to_decomposition(g, order)


def shuffled(g, seed):
    """g with its vertex ids permuted by a seeded shuffle."""
    perm = list(range(g.size))
    random.Random(seed).shuffle(perm)
    return Graph.from_edges(g.size, [(perm[u], perm[v]) for u, v in g.edges()])


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)
