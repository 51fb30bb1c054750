"""Brute-force ground truth: deletion-set minima, verifiers, and the
branching-factor calculator."""

from __future__ import annotations

from itertools import combinations

from .errors import SizeLimitError
from .graph import Graph

ORACLE_LIMIT = 14

PROBLEMS = ("cpcp", "cpp", "bdd")


def problem_bounds(problem: str, d: int | None = None) -> tuple[int, bool]:
    """(degree bound, acyclic) that deleting a solution must leave: cpcp
    (2, False), cpp (2, True), bdd (d, False)."""
    if problem == "bdd":
        if d is None or d < 0:
            raise ValueError("bdd needs d >= 0")
        return d, False
    if problem not in PROBLEMS:
        raise ValueError("unknown problem %r" % (problem,))
    return 2, problem == "cpp"


def verify(g: Graph, s, problem: str, d: int | None = None) -> bool:
    """Does deleting s leave the required structure?

    cpcp: max degree <= 2; cpp: disjoint union of induced paths; bdd: max
    degree <= d.
    """
    s = set(s)
    for v in s:
        g._check(v)
    bound, acyclic = problem_bounds(problem, d)
    rest = g.without_vertices(s)
    return rest.is_linear_forest() if acyclic else rest.max_degree_at_most(bound)


def _subset_ok(adj_bits: list[int], keep_mask: int, bound: int, acyclic: bool) -> bool:
    edges = 0
    rest = keep_mask
    while rest:
        low = rest & -rest
        rest ^= low
        deg = (adj_bits[low.bit_length() - 1] & keep_mask).bit_count()
        if deg > bound:
            return False
        edges += deg
    if not acyclic:
        return True
    edges //= 2
    # forest iff edge count equals kept vertices minus component count
    seen = 0
    comps = 0
    rest = keep_mask
    while rest:
        bit = rest & -rest
        comps += 1
        stack = [bit.bit_length() - 1]
        seen |= bit
        while stack:
            x = stack.pop()
            avail = adj_bits[x] & keep_mask & ~seen
            while avail:
                nb = avail & -avail
                avail ^= nb
                seen |= nb
                stack.append(nb.bit_length() - 1)
        rest = keep_mask & ~seen
    return edges == keep_mask.bit_count() - comps


def min_deletion_set(g: Graph, verts, bound: int, acyclic: bool) -> tuple:
    """Smallest set of vertices inside verts whose deletion leaves the rest of
    verts with degree <= bound (and no cycle if acyclic), found by subset
    enumeration in increasing size. verts must be closed under adjacency."""
    verts = sorted(verts)
    n = len(verts)
    pos = {v: i for i, v in enumerate(verts)}
    adj_bits = [0] * n
    for v in verts:
        for u in g._adj[v]:
            adj_bits[pos[v]] |= 1 << pos[u]
    full = (1 << n) - 1
    for size in range(n + 1):
        for combo in combinations(range(n), size):
            del_mask = 0
            for i in combo:
                del_mask |= 1 << i
            if _subset_ok(adj_bits, full ^ del_mask, bound, acyclic):
                return tuple(verts[i] for i in combo)
    raise AssertionError("unreachable: deleting all vertices always qualifies")


def oracle_witness(g: Graph, problem: str, d: int | None = None, limit: int = ORACLE_LIMIT) -> tuple:
    """A minimum deletion set, by subset enumeration in increasing size."""
    verts = g.vertices()
    if len(verts) > limit:
        raise SizeLimitError("oracle limited to %d vertices, got %d" % (limit, len(verts)))
    return min_deletion_set(g, verts, *problem_bounds(problem, d))


def oracle_min(g: Graph, problem: str, d: int | None = None, limit: int = ORACLE_LIMIT) -> int:
    """Exact minimum deletion-set size."""
    return len(oracle_witness(g, problem, d, limit))


# --------------------------------------------------------- branching factors


def branching_factor(decrements) -> float:
    """Largest root of 1 - sum(x^-c_i); 1.0 for single-branch recurrences.

    Bracketed bisection to absolute tolerance well below 1e-6.
    """
    decs = list(decrements)
    if not decs or any(c < 1 for c in decs):
        raise ValueError("decrements must be a nonempty list of positive integers")
    if len(decs) == 1:
        return 1.0

    def f(x: float) -> float:
        return 1.0 - sum(x ** -c for c in decs)

    lo = 1.0
    hi = len(decs) ** (1.0 / min(decs)) + 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f(mid) >= 0.0:
            hi = mid
        else:
            lo = mid
        if hi - lo < 1e-12:
            break
    return 0.5 * (lo + hi)
