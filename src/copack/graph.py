"""Undirected simple graphs with stable vertex ids and vertex deletion."""

from __future__ import annotations

import struct
from itertools import combinations

# Components up to this size are solved outright by subset enumeration; the
# step-4 shape analysis relies on no closed six-vertex component surviving.
TRIVIAL_COMPONENT_SIZE = 6

# cpp's contraction rule smooths paths of >= 4 edges (3+ interior vertices, so 2+
# stay): a cycle hanging off one endpoint stays a triangle at least, never a double edge.
DEGREE_TWO_PATH_MIN_EDGES = 4


class Graph:
    """Simple undirected graph on vertex ids 0..size-1.

    Ids are never re-indexed: deleting a vertex drops its adjacency entry and
    detaches it from its neighbors' sets, so certificates produced deep
    inside a search always refer to the original instance. Vertices are
    never added after construction, so the alive vertices iterate in id
    order. Branch siblings work on copies, never on shared mutable state.
    """

    __slots__ = ("size", "_adj", "_m")

    def __init__(self, n: int):
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        self.size = n
        self._adj: dict[int, set[int]] = {v: set() for v in range(n)}
        self._m = 0

    @classmethod
    def from_edges(cls, n: int, edges) -> "Graph":
        g = cls(n)
        for u, v in edges:
            g.add_edge(u, v)
        return g

    def copy(self) -> "Graph":
        g = Graph.__new__(Graph)
        g.size = self.size
        g._adj = {v: set(s) for v, s in self._adj.items()}
        g._m = self._m
        return g

    # ------------------------------------------------------------- queries

    def is_alive(self, v: int) -> bool:
        return v in self._adj

    def _check(self, v: int):
        if v not in self._adj:
            raise ValueError("vertex %r is deleted or out of range" % (v,))

    @property
    def alive_count(self) -> int:
        return len(self._adj)

    @property
    def edge_count(self) -> int:
        return self._m

    def vertices(self) -> list[int]:
        return list(self._adj)

    def degree(self, v: int) -> int:
        self._check(v)
        return len(self._adj[v])

    def neighbors(self, v: int) -> set[int]:
        self._check(v)
        return set(self._adj[v])

    def neighborhood_of(self, xs) -> set[int]:
        """N(X): neighbors of the set X, excluding X itself."""
        xs = set(xs)
        out: set[int] = set()
        for v in xs:
            self._check(v)
            out |= self._adj[v]
        return out - xs

    def has_edge(self, u: int, v: int) -> bool:
        self._check(u)
        self._check(v)
        return v in self._adj[u]

    def edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u in self.vertices() for v in sorted(self._adj[u]) if u < v]

    def edge_key(self) -> bytes:
        """The edge set, each edge u < v coded as u * size + v, sorted and
        packed: graphs of one size have equal keys iff their edges are equal."""
        n = self.size
        codes = sorted([u * n + v for u, nb in self._adj.items() for v in nb if u < v])
        return struct.pack("%dq" % len(codes), *codes)

    def max_degree_at_most(self, d: int) -> bool:
        if d < 0:
            raise ValueError("degree bound must be nonnegative")
        return all(len(nb) <= d for nb in self._adj.values())

    def components(self) -> list[list[int]]:
        """Connected components of the alive subgraph, each sorted, ordered by minimum."""
        seen = set()
        comps = []
        for root in self._adj:
            if root in seen:
                continue
            comp = [root]
            seen.add(root)
            stack = [root]
            while stack:
                x = stack.pop()
                for y in self._adj[x]:
                    if y not in seen:
                        seen.add(y)
                        comp.append(y)
                        stack.append(y)
            comps.append(sorted(comp))
        return comps

    def is_linear_forest(self) -> bool:
        """True iff every component is an induced path (max degree <= 2, acyclic)."""
        if not self.max_degree_at_most(2):
            return False
        for comp in self.components():
            edges = sum(len(self._adj[v]) for v in comp) // 2
            if edges != len(comp) - 1:
                return False
        return True

    def dominates(self, v: int, u: int) -> bool:
        """True iff N[u] is contained in N[v]."""
        self._check(v)
        self._check(u)
        if u == v:
            raise ValueError("domination is defined for distinct vertices")
        if u not in self._adj[v]:
            return False
        av = self._adj[v]
        return all(w == v or w in av for w in self._adj[u])

    # ------------------------------------------------------------ mutation

    def add_edge(self, u: int, v: int):
        self._check(u)
        self._check(v)
        if u == v:
            raise ValueError("self-loops are not allowed")
        if v in self._adj[u]:
            raise ValueError("edge (%d, %d) already present" % (u, v))
        self._adj[u].add(v)
        self._adj[v].add(u)
        self._m += 1

    def remove_edge(self, u: int, v: int):
        self._check(u)
        self._check(v)
        if v not in self._adj[u]:
            raise ValueError("edge (%d, %d) not present" % (u, v))
        self._adj[u].discard(v)
        self._adj[v].discard(u)
        self._m -= 1

    def remove_vertex(self, v: int):
        self._check(v)
        for u in self._adj[v]:
            self._adj[u].discard(v)
        self._m -= len(self._adj.pop(v))

    def remove_vertices(self, vs):
        for v in sorted(set(vs)):
            self.remove_vertex(v)

    def without_vertices(self, vs) -> "Graph":
        g = self.copy()
        g.remove_vertices(vs)
        return g

    def split(self) -> list["Graph"]:
        """Move each component into a graph of its own, ordered by minimum
        vertex, leaving self empty. The adjacency sets move, not copied."""
        parts = []
        for comp in self.components():
            g = Graph.__new__(Graph)
            g.size = self.size
            g._adj = {v: self._adj[v] for v in comp}
            g._m = sum(map(len, g._adj.values())) // 2
            parts.append(g)
        self._adj = {}
        self._m = 0
        return parts

    def without_edge(self, u: int, v: int) -> "Graph":
        g = self.copy()
        g.remove_edge(u, v)
        return g


# -------------------------------------------------------- structure search
#
# All finders scan vertices and neighbors in increasing id order and return
# the first witness (`low_degree_edges` and `find_trivial_components`: all of
# them, in that order), so every caller is reproducible run-to-run.


def find_degree_ge5(g: Graph):
    for v in g.vertices():
        if len(g._adj[v]) >= 5:
            return (v,)
    return None


def find_dominating_deg4(g: Graph):
    """Degree-4 vertex v dominating some vertex u with degree >= 3."""
    for v in g.vertices():
        if len(g._adj[v]) != 4:
            continue
        for u in sorted(g._adj[v]):
            if len(g._adj[u]) >= 3 and g.dominates(v, u):
                return (v, u)
    return None


def _triangles(g: Graph):
    for u in g.vertices():
        au = g._adj[u]
        for v in sorted(au):
            if v <= u:
                continue
            for w in sorted(au & g._adj[v]):
                if w > v:
                    yield (u, v, w)


def find_triangle_single_neighbor(g: Graph):
    """Triangle whose outside neighborhood is a single vertex x; returns (u, v, w, x)."""
    for u, v, w in _triangles(g):
        outside = (g._adj[u] | g._adj[v] | g._adj[w]) - {u, v, w}
        if len(outside) == 1:
            return (u, v, w, outside.pop())
    return None


def find_deg4_heavy_triangle(g: Graph):
    """(v, u1, u2): degree-4 v in a heavy triangle {v, u1, u2}."""
    for v in g.vertices():
        if len(g._adj[v]) != 4:
            continue
        nbrs = sorted(g._adj[v])
        for u1, u2 in combinations(nbrs, 2):
            if u2 not in g._adj[u1]:
                continue
            if len((g._adj[v] | g._adj[u1] | g._adj[u2]) - {v, u1, u2}) >= 4:
                return (v, u1, u2)
    return None


def find_deg4_in_triangle(g: Graph):
    """(v, u1, u2): degree-4 v in any triangle {v, u1, u2}."""
    for v in g.vertices():
        if len(g._adj[v]) != 4:
            continue
        nbrs = sorted(g._adj[v])
        for u1, u2 in combinations(nbrs, 2):
            if u2 in g._adj[u1]:
                return (v, u1, u2)
    return None


def find_deg4_adjacent_deg3(g: Graph):
    """(v, u1): degree-4 v adjacent to some u1 with degree >= 3."""
    for v in g.vertices():
        if len(g._adj[v]) != 4:
            continue
        for u in sorted(g._adj[v]):
            if len(g._adj[u]) >= 3:
                return (v, u)
    return None


def low_degree_edges(g: Graph):
    """Every edge whose endpoints both have degree <= 2, in id order, or None
    if there is none."""
    found = [
        (u, v) for u in g.vertices() if len(g._adj[u]) <= 2
        for v in sorted(g._adj[u]) if u < v and len(g._adj[v]) <= 2
    ]
    return found or None


def find_degree_two_path(g: Graph):
    """Path v0..vh whose endpoints have degree != 2 and whose h-1 internal
    vertices all have degree 2, with h >= DEGREE_TWO_PATH_MIN_EDGES. The endpoints may
    coincide (a cycle hanging off one vertex)."""
    for v0 in g.vertices():
        if len(g._adj[v0]) == 2 or not g._adj[v0]:
            continue
        for v1 in sorted(g._adj[v0]):
            if len(g._adj[v1]) != 2:
                continue
            seq = [v0, v1]
            prev, cur = v0, v1
            while len(g._adj[cur]) == 2:
                nxt = next(x for x in g._adj[cur] if x != prev)
                seq.append(nxt)
                prev, cur = cur, nxt
            if len(seq) - 1 >= DEGREE_TWO_PATH_MIN_EDGES:
                return tuple(seq)
    return None


def find_pendant_chain(g: Graph):
    """(x, c1, c2): degree-1 x whose neighbor c1 and next vertex c2 both have
    degree 2. Too short for the general degree-two-path rule, but its middle
    vertex still sees no degree->=3 neighbor."""
    for x in g.vertices():
        if len(g._adj[x]) != 1:
            continue
        c1 = next(iter(g._adj[x]))
        if len(g._adj[c1]) != 2:
            continue
        c2 = next(y for y in g._adj[c1] if y != x)
        if len(g._adj[c2]) == 2:
            return (x, c1, c2)
    return None


def is_trivial(g: Graph, comp) -> bool:
    """Whether the component comp of g has at most TRIVIAL_COMPONENT_SIZE
    vertices or is a cycle: every vertex has degree 2."""
    return len(comp) <= TRIVIAL_COMPONENT_SIZE or all(len(g._adj[v]) == 2 for v in comp)


def find_trivial_components(g: Graph):
    """Every trivial component (see is_trivial), or None if there is none."""
    found = [tuple(comp) for comp in g.components() if is_trivial(g, comp)]
    return found or None


def claw_packing(g: Graph, cap: int) -> int:
    """The size of a packing of vertex-disjoint claws in g, counted until it
    exceeds cap. A claw is a vertex with three of its neighbors; every claw
    keeps a vertex of degree 3 unless one of its four vertices is deleted, so
    the size is a lower bound on any deletion set leaving maximum degree <= 2.

    Greedy: centres of degree >= 3, highest degree first, each taking the
    three unused neighbors of lowest degree. A packing has at most one claw
    per centre and one per four vertices, so the greedy stops, with the
    claws taken so far, once those limits on what is left cannot take the
    count past cap."""
    adj = g._adj
    if len(adj) // 4 <= cap:
        return 0
    centres = [v for v, nb in adj.items() if len(nb) >= 3]
    centres.sort(key=lambda v: -len(adj[v]))  # stable: equal degrees stay in id order
    used = set()
    count = 0
    for i, v in enumerate(centres):
        if count + min(len(centres) - i, (len(adj) - len(used)) // 4) <= cap:
            break
        if v in used:
            continue
        free = adj[v] - used
        if len(free) < 3:
            continue
        used.add(v)
        used.update(sorted(free, key=lambda u: (len(adj[u]), u))[:3])
        count += 1
        if count > cap:
            break
    return count
