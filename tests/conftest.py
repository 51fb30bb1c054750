import random
from itertools import combinations

import pytest

from copack.decomp import PathDecomposition
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


def shuffled(g, seed):
    """g with its vertex ids permuted by a seeded shuffle."""
    perm = list(range(g.size))
    random.Random(seed).shuffle(perm)
    return Graph.from_edges(g.size, [(perm[u], perm[v]) for u, v in g.edges()])


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)
