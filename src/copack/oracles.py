"""Brute-force ground truth: deletion-set minima, verifiers, cut-structure
counters, and the branching-factor calculator."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product

from .errors import SizeLimitError
from .graph import Graph

ORACLE_LIMIT = 14
COUNTER_LIMIT = 7

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


# ------------------------------------------------------- cut & count oracles


@dataclass(frozen=True)
class MarkedCcSolution:
    """Kept vertex set inducing a linear forest plus one marker edge per
    non-isolate component."""

    kept: frozenset
    markers: frozenset

    def weight(self, weights) -> int:
        return sum(weights.vertex_weights[v] for v in self.kept) + sum(
            weights.edge_weights[e] for e in self.markers
        )


def _induced_components(g: Graph, kept: frozenset):
    """Components of G[kept] as sorted lists, or None if max degree > 2."""
    for v in kept:
        if len(g._adj[v] & kept) > 2:
            return None
    comps = []
    seen = set()
    for root in sorted(kept):
        if root in seen:
            continue
        comp = [root]
        seen.add(root)
        stack = [root]
        while stack:
            x = stack.pop()
            for y in g._adj[x] & kept:
                if y not in seen:
                    seen.add(y)
                    comp.append(y)
                    stack.append(y)
        comps.append(sorted(comp))
    return comps


def _comp_edges(g: Graph, comp, kept):
    return [(u, v) for u in comp for v in sorted(g._adj[u] & kept) if u < v]


def _check_size(g: Graph, limit: int):
    if g.alive_count > limit:
        raise SizeLimitError(
            "cut-structure enumeration limited to %d vertices, got %d" % (limit, g.alive_count)
        )


def enumerate_marked_cc_solutions(g: Graph, limit: int = COUNTER_LIMIT):
    """All (kept, markers) pairs: induced linear forest plus exactly one
    marker edge inside each non-isolate component."""
    _check_size(g, limit)
    verts = g.vertices()
    for r in range(len(verts) + 1):
        for kept_tuple in combinations(verts, r):
            kept = frozenset(kept_tuple)
            comps = _induced_components(g, kept)
            if comps is None:
                continue
            edge_lists = []
            forest = True
            for comp in comps:
                edges = _comp_edges(g, comp, kept)
                if len(edges) != len(comp) - 1:
                    forest = False
                    break
                if edges:
                    edge_lists.append(edges)
            if not forest:
                continue
            for marker_combo in product(*edge_lists):
                yield MarkedCcSolution(kept, frozenset(marker_combo))


def marked_cc_counts(g: Graph, weights, limit: int = COUNTER_LIMIT) -> dict:
    """Counts keyed (isolates, n, e, w) over all marked-cc-solutions."""
    out: dict = {}
    for sol in enumerate_marked_cc_solutions(g, limit):
        kept = sol.kept
        e = sum(len(g._adj[v] & kept) for v in kept) // 2
        a = sum(1 for v in kept if not g._adj[v] & kept)
        key = (a, len(kept), e, sol.weight(weights))
        out[key] = out.get(key, 0) + 1
    return out


def count_marked_cc_solutions(g: Graph, weights, n: int, e: int, w: int, limit: int = COUNTER_LIMIT) -> int:
    counts = marked_cc_counts(g, weights, limit)
    return sum(c for (a, nn, ee, ww), c in counts.items() if (nn, ee, ww) == (n, e, w))


def cc_candidate_counts(g: Graph, weights, limit: int = COUNTER_LIMIT) -> dict:
    """Counts keyed (a, n, e, w, m) over all cc-candidates: induced subgraph
    of max degree 2 with a marked consistent cut (degree-0 vertices pinned to
    side one; markers are any edge subset on side one)."""
    _check_size(g, limit)
    verts = g.vertices()
    out: dict = {}
    for r in range(len(verts) + 1):
        for kept_tuple in combinations(verts, r):
            kept = frozenset(kept_tuple)
            comps = _induced_components(g, kept)
            if comps is None:
                continue
            isolates = [c[0] for c in comps if len(c) == 1]
            others = [c for c in comps if len(c) > 1]
            a = len(isolates)
            n = len(kept)
            e = sum(len(g._adj[v] & kept) for v in kept) // 2
            base_w = sum(weights.vertex_weights[v] for v in kept)
            for sides in product((1, 2), repeat=len(others)):
                side1_edges = []
                for comp, side in zip(others, sides):
                    if side == 1:
                        side1_edges.extend(_comp_edges(g, comp, kept))
                for mr in range(len(side1_edges) + 1):
                    for marked in combinations(side1_edges, mr):
                        w = base_w + sum(weights.edge_weights[ed] for ed in marked)
                        key = (a, n, e, w, mr)
                        out[key] = out.get(key, 0) + 1
    return out


def count_cc_candidates(g: Graph, weights, key, limit: int = COUNTER_LIMIT) -> int:
    return cc_candidate_counts(g, weights, limit).get(tuple(key), 0)


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
