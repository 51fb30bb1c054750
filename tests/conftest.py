import random
from itertools import combinations

import pytest

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


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)
