"""Seeded instance families of the benchmark.

The generators here are the benchmark's own, so a change to
`copack.generators` never moves the inputs. Graphs are edge lists over
vertices 0..n-1; `dimacs` renders them in the format the CLI reads.
"""

from __future__ import annotations

import random


def dimacs(n: int, edges) -> str:
    lines = ["p edge %d %d" % (n, len(edges))]
    lines.extend("e %d %d" % (u + 1, v + 1) for u, v in edges)
    return "\n".join(lines) + "\n"


def relabel(n: int, edges, rng: random.Random):
    perm = list(range(n))
    rng.shuffle(perm)
    return sorted((min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in edges)


def planted(forest_n: int, k: int, rng: random.Random):
    """Linear forest on forest_n vertices plus k extra vertices of degree 5
    or 6. Each forest vertex touches at most one extra, so the extras have
    disjoint neighborhoods: keeping an extra costs at least 3 of its own
    neighbors, and the minimum for cpcp and cpp is exactly k."""
    if 6 * k > forest_n:
        raise ValueError("forest too small for %d extras" % k)
    order = list(range(forest_n))
    rng.shuffle(order)
    edges = []
    i = 0
    while i < forest_n:
        run = min(forest_n - i, rng.randint(1, 6))
        edges.extend((order[j], order[j + 1]) for j in range(i, i + run - 1))
        i += run
    targets = rng.sample(range(forest_n), 6 * k)
    for x in range(k):
        deg = rng.choice((5, 6))
        edges.extend((t, forest_n + x) for t in targets[6 * x:6 * x + deg])
    n = forest_n + k
    return n, relabel(n, edges, rng)


def cliques(sizes, rng: random.Random):
    """Disjoint cliques, vertex labels shuffled."""
    edges = []
    off = 0
    for s in sizes:
        edges.extend((off + i, off + j) for i in range(s) for j in range(i + 1, s))
        off += s
    return off, relabel(off, edges, rng)


def grid(rows: int, cols: int, rng: random.Random):
    """rows x cols grid under one of its four reflections, drawn from rng.
    Returns (n, edges, label), label[r * cols + c] being the vertex at row r
    and column c."""
    flip_r, flip_c = rng.random() < 0.5, rng.random() < 0.5
    label = []
    for r in range(rows):
        for c in range(cols):
            rr = rows - 1 - r if flip_r else r
            cc = cols - 1 - c if flip_c else c
            label.append(rr * cols + cc)
    edges = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                edges.append((v, v + 1))
            if r + 1 < rows:
                edges.append((v, v + cols))
    edges = sorted((min(label[u], label[v]), max(label[u], label[v])) for u, v in edges)
    return rows * cols, edges, label


def proper(n: int, rng: random.Random):
    """Connected proper graph on exactly n vertices: 2 or more hubs of degree
    3 or 4, joined in a ring and to each other by connectors of 1 or 2
    degree-2 vertices, and decorated by pendants (a leaf, or a degree-2
    vertex and a leaf). No hub touches a hub and every degree-2 vertex
    touches a hub, so no branching step, and no cpp reduction, applies."""
    while True:
        h = rng.randint(max(2, n // 6), max(2, n // 4))
        caps = [rng.choice((3, 3, 4)) for _ in range(h)]
        free = [c - 2 for c in caps]
        links = [(i, (i + 1) % h) for i in range(h)]
        pendants = []
        while sum(free):
            a = rng.choice([i for i in range(h) if free[i]])
            others = [b for b in range(h) if free[b] and b != a]
            free[a] -= 1
            if others and rng.random() < 0.5:
                b = rng.choice(others)
                free[b] -= 1
                links.append((a, b))
            else:
                pendants.append(a)
        lo = h + len(links) + len(pendants)
        hi = h + 2 * (len(links) + len(pendants))
        if lo <= n <= hi:
            break
    # each link and pendant has 1 vertex, plus one more for n - lo of them
    parts = [("link", ab) for ab in links] + [("pendant", a) for a in pendants]
    longer = set(rng.sample(range(len(parts)), n - lo))
    edges = []
    nxt = h
    for idx, (kind, where) in enumerate(parts):
        extra = idx in longer
        if kind == "link":
            a, b = where
            prev = a
            for _ in range(1 + extra):
                edges.append((prev, nxt))
                prev = nxt
                nxt += 1
            edges.append((prev, b))
        else:
            edges.append((where, nxt))
            if extra:
                edges.append((nxt, nxt + 1))
            nxt += 1 + extra
    assert nxt == n
    return n, relabel(n, edges, rng)
