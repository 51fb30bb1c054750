"""Brute-force cut & count counters for small graphs: the marked
cc-solutions and cc-candidates that the parity DP counts modulo two, and
their projection onto its folded result."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product

from copack.errors import SizeLimitError
from copack.graph import Graph

COUNTER_LIMIT = 7


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


def fold_counts(counts, need):
    """Brute-force cc-candidate counts keyed (a, n, e, w, m), projected onto
    parity_dp's result: {m - (n - e - a): bits} over n >= need, where bit w
    holds the parity at weight w and zero entries are dropped."""
    out = {}
    for (a, n, e, w, m), c in counts.items():
        if n >= need and c % 2:
            d = m - (n - e - a)
            out[d] = out.get(d, 0) ^ (1 << w)
    return {d: bits for d, bits in out.items() if bits}
