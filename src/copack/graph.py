"""Undirected simple graphs with stable vertex ids and vertex deletion."""

from __future__ import annotations

import struct
from itertools import combinations

# Components up to this size are solved outright by subset enumeration; the
# step-4 shape analysis relies on no closed six-vertex component surviving.
TRIVIAL_COMPONENT_SIZE = 6


class Graph:
    """Simple undirected graph on vertex ids 0..size-1.

    Ids are never re-indexed: deleting a vertex drops its adjacency entry and
    detaches it from its neighbors' sets, so certificates produced deep
    inside a search always refer to the original instance. Vertices are
    never added after construction, so the alive vertices iterate in id
    order. Branch siblings work on copies, never on shared mutable state.
    """

    __slots__ = ("size", "_adj")

    def __init__(self, n: int):
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        self.size = n
        self._adj: dict[int, set[int]] = {v: set() for v in range(n)}

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
        return sum(map(len, self._adj.values())) // 2

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

    def remove_edge(self, u: int, v: int):
        self._check(u)
        self._check(v)
        if v not in self._adj[u]:
            raise ValueError("edge (%d, %d) not present" % (u, v))
        self._adj[u].discard(v)
        self._adj[v].discard(u)

    def remove_vertex(self, v: int):
        self._check(v)
        for u in self._adj.pop(v):
            self._adj[u].discard(v)

    def remove_vertices(self, vs) -> set[int]:
        """Remove every vertex of vs; return the vertices left that lost a
        neighbor."""
        vs = set(vs)
        adj = self._adj
        touched = set()
        for v in sorted(vs):
            self._check(v)
            nb = adj.pop(v)
            for u in nb:
                adj[u].discard(v)
            touched |= nb
        touched -= vs
        return touched

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
            parts.append(g)
        self._adj = {}
        return parts


# -------------------------------------------------------- structure search
#
# Every finder returns its least witness in id order (`low_degree_edges`,
# `swappable_vertices` and `find_trivial_components`: all of them, in that
# order), so every caller is reproducible run-to-run. The reduction finders
# take `scan`, the vertices to look from (None for all): each witness holds a
# vertex whose neighbor set decides it, so after a finder comes up empty only
# witnesses through a vertex whose neighbor set changed since can appear, and
# a scan of those vertices returns what a scan of all would.


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


def find_triangle_single_neighbor(g: Graph, scan=None):
    """(u, v, w, x): the least triangle u < v < w whose outside neighborhood
    is the single vertex x, through a vertex of scan. Each of u, v and w
    then has degree 2 or 3."""
    adj = g._adj
    best = None
    for c in adj if scan is None else scan:
        nc = adj.get(c)
        if nc is None or not 2 <= len(nc) <= 3:
            continue
        for a, b in combinations(nc, 2):
            if b in adj[a]:
                tri = tuple(sorted((c, a, b)))
                if best is None or tri < best[:3]:
                    outside = (nc | adj[a] | adj[b]) - {c, a, b}
                    if len(outside) == 1:
                        best = tri + (outside.pop(),)
    return best


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


def low_degree_edges(g: Graph, scan=None):
    """Every edge whose endpoints both have degree <= 2 and one is in scan,
    in id order, or None if there is none."""
    adj = g._adj
    found = set()
    for u in adj if scan is None else scan:
        nu = adj.get(u)
        if nu is not None and len(nu) <= 2:
            for v in nu:
                if len(adj[v]) <= 2:
                    found.add((u, v) if u < v else (v, u))
    return sorted(found) or None


def find_contractible(g: Graph, scan=None):
    """(a, mid, b), the least such triple: a degree-2 mid whose neighbors
    a < b both have degree <= 2 and are not adjacent, with one of the three
    in scan."""
    adj = g._adj
    best = None
    for c in adj if scan is None else scan:
        nc = adj.get(c)
        if nc is None or len(nc) > 2:
            continue
        for mid in (c, *nc):  # c as mid, or as a or b
            nm = adj[mid]
            if len(nm) == 2:
                a, b = nm
                if a > b:
                    a, b = b, a
                if len(adj[a]) <= 2 and len(adj[b]) <= 2 and b not in adj[a]:
                    if best is None or (a, mid, b) < best:
                        best = (a, mid, b)
    return best


def swappable_vertices(g: Graph, t: int, scan=None):
    """Every vertex x of degree >= 5 with at most deg(x) - 3 unsafe
    neighbors, in id order, or None if there is none. A neighbor u of x is
    safe when deg(u) <= t and each neighbor of u but x has degree <= 2 or is
    a neighbor of x of degree <= 3; t is 3 for co-path/cycle packing and 2
    for co-path packing. A deletion set without x keeps at most 2 neighbors
    of x, so it takes a safe one, and trading its safe neighbors of x for x
    leaves every degree <= 2 and puts back only vertices of degree <= t - 1.

    x's test reads N(x), N(u) for u in N(x) and the degrees of both, and a
    neighbor of degree above t is unsafe whatever surrounds it. So a change
    at c reaches the test only if c is x, a neighbor of x, or beside a
    neighbor of x of degree <= t: the candidates from a scan are the
    degree->=5 vertices in it, among its neighbors, and among the neighbors
    of those neighbors of degree <= t."""
    adj = g._adj
    if scan is None:
        cands = [x for x, nx in adj.items() if len(nx) >= 5]
    else:
        cands = set()
        for c in scan:
            nc = adj.get(c)
            if nc is None:
                continue
            if len(nc) >= 5:
                cands.add(c)
            for u in nc:
                nu = adj[u]
                if len(nu) >= 5:
                    cands.add(u)
                elif len(nu) <= t:
                    for x in nu:
                        if len(adj[x]) >= 5:
                            cands.add(x)
    found = []
    for x in cands:
        nx = adj[x]
        d = len(nx)
        unsafe = 0
        for u in nx:
            nu = adj[u]
            if len(nu) > t or any(w != x and len(adj[w]) > (3 if w in nx else 2) for w in nu):
                unsafe += 1
                if unsafe > d - 3:
                    break
        else:
            found.append(x)
    return sorted(found) or None


def find_trivial_components(g: Graph, scan=None):
    """Every trivial component through a vertex of scan, ordered by
    minimum, or None if there is none. A component is trivial if it has at
    most TRIVIAL_COMPONENT_SIZE vertices or is a cycle: every vertex has
    degree 2. The walk from a vertex stops once its piece has more than
    TRIVIAL_COMPONENT_SIZE vertices, one of degree != 2, or meets a stopped
    walk's piece."""
    adj = g._adj
    seen = set()
    found = []
    for root in adj if scan is None else scan:
        if root in seen or root not in adj:
            continue
        piece, stack, cycle = {root}, [root], True
        while stack:
            nb = adj[stack.pop()]
            cycle = cycle and len(nb) == 2
            if not cycle and len(piece) > TRIVIAL_COMPONENT_SIZE or not seen.isdisjoint(nb):
                break
            for y in nb:
                if y not in piece:
                    piece.add(y)
                    stack.append(y)
        else:
            found.append(tuple(sorted(piece)))
        seen |= piece
    found.sort()
    return found or None


def claw_packing(g: Graph) -> int:
    """The size of a packing of vertex-disjoint claws in g. A claw is a
    vertex with three of its neighbors; every claw keeps a vertex of degree 3
    unless one of its four vertices is deleted, so the size is a lower bound
    on any deletion set leaving maximum degree <= 2.

    Greedy: centres of degree >= 3, highest degree first, each taking the
    three unused neighbors of lowest degree."""
    adj = g._adj
    centres = [v for v, nb in adj.items() if len(nb) >= 3]
    centres.sort(key=lambda v: -len(adj[v]))  # stable: equal degrees stay in id order
    used = set()
    count = 0
    for v in centres:
        if v in used:
            continue
        free = adj[v] - used
        if len(free) < 3:
            continue
        used.add(v)
        used.update(sorted(free, key=lambda u: (len(adj[u]), u))[:3])
        count += 1
    return count
