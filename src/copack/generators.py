"""Instance generators: standard families, random graphs, planted yes-instances,
and random proper graphs."""

from __future__ import annotations

import random

from .decomp import is_proper
from .graph import Graph

PROPER_ATTEMPTS = 200  # seeded draws proper_graph tries before giving up


def path_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycles need at least 3 vertices")
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def grid_graph(rows: int, cols: int) -> Graph:
    if rows < 0 or cols < 0:
        raise ValueError("grid sizes must be >= 0")

    def vid(r, c):
        return r * cols + c

    edges = []
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                edges.append((vid(r, c), vid(r, c + 1)))
            if r + 1 < rows:
                edges.append((vid(r, c), vid(r + 1, c)))
    return Graph.from_edges(rows * cols, edges)


def gnm_graph(n: int, m: int, seed: int) -> Graph:
    if m > n * (n - 1) // 2:
        raise ValueError("too many edges for %d vertices" % n)
    rng = random.Random(seed)
    all_pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return Graph.from_edges(n, rng.sample(all_pairs, m))


def planted_graph(forest_n: int, k: int, seed: int) -> Graph:
    """Linear forest on forest_n vertices plus k extra vertices wired into it;
    deleting the extras restores the forest, so the minimum co-path packing
    (and co-path/cycle packing) size is at most k."""
    if forest_n < 1 or k < 0:
        raise ValueError("need forest_n >= 1 and k >= 0")
    rng = random.Random(seed)
    order = list(range(forest_n))
    rng.shuffle(order)
    edges = []
    i = 0
    while i < forest_n:
        run = min(forest_n - i, rng.randint(1, 6))
        for j in range(i, i + run - 1):
            edges.append((order[j], order[j + 1]))
        i += run
    n = forest_n + k
    for x in range(forest_n, n):
        deg = rng.randint(2, 4)
        targets = rng.sample(range(x), min(deg, x))
        for t in targets:
            edges.append((x, t))
    return Graph.from_edges(n, edges)


def proper_graph(n: int, seed: int) -> Graph:
    """Random connected proper graph on exactly n vertices: degree-3/4 hubs
    joined and decorated by short degree-<=2 connectors, so that degree-4
    vertices see only low-degree neighbors and every degree-2 vertex touches
    a hub."""
    if n < 6:
        raise ValueError("proper graphs need at least 6 vertices")
    for attempt in range(PROPER_ATTEMPTS):
        rng = random.Random(seed * 1000003 + attempt)
        g = _try_proper(n, rng)
        if g is not None and is_proper(g) and g.alive_count == n and len(g.components()) == 1:
            return g
    raise ValueError("could not realize a proper graph on %d vertices" % n)


def _try_proper(n: int, rng: random.Random):
    # 2-5 hubs up to 21 vertices; past that the floor grows with n, since a
    # hub with its connectors and pendants holds only about six vertices
    lo = max(2, (n - 10) // 4)
    h = max(lo, min(n // 4, lo + rng.randint(0, 3)))
    caps = [rng.choice((3, 3, 4)) for _ in range(h)]
    edges = []
    deg = [0] * h
    nxt = h

    def connector(a, b, mids):
        # hub a - (mids fresh degree-2 vertices) - hub b
        nonlocal nxt
        prev = a
        for _ in range(mids):
            edges.append((prev, nxt))
            prev = nxt
            nxt += 1
        edges.append((prev, b))
        deg[a] += 1
        deg[b] += 1

    def pendant(a):
        # hub a - mid - leaf
        nonlocal nxt
        edges.append((a, nxt))
        edges.append((nxt, nxt + 1))
        deg[a] += 1
        nxt += 2

    budget = n - h
    ring_mids = [rng.choice((1, 1, 2)) for _ in range(h)]
    if sum(ring_mids) > budget:
        return None
    for i in range(h):
        connector(i, (i + 1) % h, ring_mids[i])
    budget -= sum(ring_mids)

    guard = 0
    while budget > 0 and guard < 300:
        guard += 1
        open_hubs = [i for i in range(h) if deg[i] < caps[i]]
        if not open_hubs:
            return None
        a = rng.choice(open_hubs)
        others = [b for b in open_hubs if b != a]
        if budget >= 2 and (not others or rng.random() < 0.5):
            pendant(a)
            budget -= 2
        elif others:
            mids = 1 if budget == 1 else rng.choice((1, 2))
            connector(a, rng.choice(others), mids)
            budget -= mids
        else:
            return None
    if budget != 0 or nxt != n:
        return None
    if any(deg[i] < 3 for i in range(h)):
        return None
    seen = set()
    for u, v in edges:
        if u == v or (u, v) in seen or (v, u) in seen:
            return None
        seen.add((u, v))
    return Graph.from_edges(n, edges)
