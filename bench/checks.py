"""Answer checks that do not trust the program: a witness test on degrees and
forests, brute-force minima, and closed forms.

Graphs are (n, edges) pairs over vertices 0..n-1, as `instances` makes them.
"""

from __future__ import annotations

from itertools import combinations


def _adjacency(n: int, edges) -> list[int]:
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return adj


def _acyclic(adj: list[int], keep: int) -> bool:
    """Is the subgraph induced by the bitmask `keep` a forest?"""
    seen = 0
    verts = edges2 = comps = 0
    rest = keep
    while rest:
        low = rest & -rest
        rest ^= low
        verts += 1
        edges2 += (adj[low.bit_length() - 1] & keep).bit_count()
        if not seen & low:
            comps += 1
            seen |= low
            stack = [low.bit_length() - 1]
            while stack:
                nbrs = adj[stack.pop()] & keep & ~seen
                seen |= nbrs
                while nbrs:
                    b = nbrs & -nbrs
                    nbrs ^= b
                    stack.append(b.bit_length() - 1)
    return edges2 // 2 == verts - comps


def _feasible(adj: list[int], keep: int, d: int, acyclic: bool) -> bool:
    rest = keep
    while rest:
        low = rest & -rest
        rest ^= low
        if (adj[low.bit_length() - 1] & keep).bit_count() > d:
            return False
    return not acyclic or _acyclic(adj, keep)


def witness_ok(n: int, edges, deleted, problem: str, d: int | None = None) -> bool:
    """Deleting `deleted` leaves max degree <= d (2 for cpcp and cpp), and
    for cpp also no cycle."""
    if any(not 0 <= v < n for v in deleted):
        return False
    full = (1 << n) - 1
    keep = full
    for v in deleted:
        keep &= ~(1 << v)
    bound = d if problem == "bdd" else 2
    return _feasible(_adjacency(n, edges), keep, bound, problem == "cpp")


def brute_min(n: int, edges, problem: str, d: int | None = None) -> int:
    """Smallest deletion set, by trying every set of size 0, 1, 2, ..."""
    adj = _adjacency(n, edges)
    bound = d if problem == "bdd" else 2
    full = (1 << n) - 1
    for size in range(n + 1):
        for dels in combinations(range(n), size):
            keep = full
            for v in dels:
                keep ^= 1 << v
            if _feasible(adj, keep, bound, problem == "cpp"):
                return size
    raise AssertionError("deleting every vertex is always feasible")


def clique_min(sizes, problem: str) -> int:
    """K_s keeps a triangle (cpcp, s - 3 deletions) or an edge (cpp, s - 2)."""
    keep = 3 if problem == "cpcp" else 2
    return sum(max(s - keep, 0) for s in sizes)


def grid_vertex_cover(rows: int, cols: int) -> int:
    """Minimum vertex cover of a grid. A grid is bipartite and its largest
    matching has floor(rc / 2) edges (a snake through all vertices has one),
    so by Konig's theorem that is the cover size."""
    return rows * cols // 2


def sweep_decomposition(rows: int, cols: int, relabel) -> str:
    """Path decomposition of a rows x cols grid that sweeps along the longer
    side, one vertex at a time: bag i holds vertex i and the short-side
    count of vertices before it. Written in the CLI's `p pd` format with
    labels mapped through `relabel`."""
    short, long_ = min(rows, cols), max(rows, cols)
    order = []
    for a in range(long_):
        for b in range(short):
            r, c = (b, a) if rows <= cols else (a, b)
            order.append(relabel[r * cols + c])
    bags = [order[max(0, i - short):i + 1] for i in range(len(order))]
    lines = ["p pd %d %d %d" % (len(bags), max(len(b) for b in bags), len(order))]
    lines.extend("b %d %s" % (i + 1, " ".join(str(v + 1) for v in sorted(b))) for i, b in enumerate(bags))
    return "\n".join(lines) + "\n"
