import random

import pytest

from copack import graph as graphlib
from copack.generators import gnm_graph
from copack.graph import Graph
from conftest import random_graph

# every structure finder the reductions and branching steps use
FINDERS = {
    "degree_ge5": graphlib.find_degree_ge5,
    "dominating_deg4": graphlib.find_dominating_deg4,
    "triangle_single_neighbor": graphlib.find_triangle_single_neighbor,
    "deg4_heavy_triangle": graphlib.find_deg4_heavy_triangle,
    "deg4_in_triangle": graphlib.find_deg4_in_triangle,
    "deg4_adjacent_deg3": graphlib.find_deg4_adjacent_deg3,
    "low_degree_edge": graphlib.low_degree_edges,
    "contractible": graphlib.find_contractible,
    "trivial_components": graphlib.find_trivial_components,
}


def triangle():
    return Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])


def star(leaves):
    return Graph.from_edges(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def test_neighbors_basic():
    g = triangle()
    assert g.neighbors(0) == {1, 2}
    p = Graph.from_edges(3, [(0, 1), (1, 2)])
    assert p.neighbors(1) == {0, 2}
    s = star(5)
    assert s.neighbors(0) == {1, 2, 3, 4, 5}


def test_neighbors_errors():
    g = triangle()
    g.remove_vertex(2)
    with pytest.raises(ValueError):
        g.neighbors(2)
    with pytest.raises(ValueError):
        g.neighbors(17)


def test_delete_vertices():
    k4 = Graph.from_edges(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
    g = k4.without_vertices({3})
    assert g.vertices() == [0, 1, 2] and g.edge_count == 3
    c5 = Graph.from_edges(5, [(i, (i + 1) % 5) for i in range(5)])
    p4 = c5.without_vertices({0})
    assert p4.edge_count == 3 and p4.is_linear_forest()
    assert p4.max_degree_at_most(2) and not p4.max_degree_at_most(1)
    same = c5.without_vertices(set())
    assert same.edges() == c5.edges() and same.vertices() == c5.vertices()
    with pytest.raises(ValueError):
        c5.without_vertices({0}).without_vertices({0})


def test_deletion_masks_match_rebuild(rng):
    for t in range(60):
        g = random_graph(t)
        victims = set(rng.sample(g.vertices(), rng.randint(0, g.alive_count)))
        h = g.without_vertices(victims)
        rebuilt = Graph.from_edges(
            g.size, [(u, v) for u, v in g.edges() if u not in victims and v not in victims]
        )
        for v in victims:
            rebuilt.remove_vertex(v)
        assert h.vertices() == rebuilt.vertices()
        assert h.edges() == rebuilt.edges()
        for v in h.vertices():
            assert h.degree(v) == rebuilt.degree(v)


def test_components_and_counts():
    two_tri = Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    assert [len(c) for c in two_tri.components()] == [3, 3]
    iso = Graph(4)
    assert len(iso.components()) == 4 and all(iso.degree(v) == 0 for v in iso.vertices())
    c6 = Graph.from_edges(6, [(i, (i + 1) % 6) for i in range(6)])
    assert len(c6.components()) == 1


def test_components_partition(rng):
    for t in range(40):
        g = random_graph(t + 500)
        comps = g.components()
        flat = [v for c in comps for v in c]
        assert sorted(flat) == g.vertices()
        assert len(set(flat)) == len(flat)


def test_split_and_edge_key():
    """split moves each component into its own graph and empties the
    original; edge_key tells graphs apart exactly by their edges."""
    for t in range(40):
        g = random_graph(t + 700)
        want = [(c, [e for e in g.edges() if e[0] in c]) for c in g.components()]
        key = g.edge_key()
        h = Graph.from_edges(g.size, reversed(g.edges()))
        assert h.edge_key() == key
        if g.edge_count:
            u, v = g.edges()[0]
            h = g.copy()
            h.remove_edge(u, v)
            assert h.edge_key() != key
        parts = g.split()
        assert g.alive_count == 0 and g.edge_count == 0
        assert [(p.vertices(), p.edges()) for p in parts] == want
        assert [p.edge_count for p in parts] == [len(es) for _, es in want]


def test_linear_forest():
    p5 = Graph.from_edges(5, [(i, i + 1) for i in range(4)])
    assert p5.is_linear_forest()
    c5 = Graph.from_edges(5, [(i, (i + 1) % 5) for i in range(5)])
    assert not c5.is_linear_forest()
    mixed = Graph.from_edges(4, [(0, 1), (1, 2)])
    assert mixed.is_linear_forest()


def test_max_degree_at_most():
    c5 = Graph.from_edges(5, [(i, (i + 1) % 5) for i in range(5)])
    assert c5.max_degree_at_most(2)
    k4 = Graph.from_edges(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
    assert not k4.max_degree_at_most(2)
    assert Graph(3).max_degree_at_most(0)


def test_dominates():
    k3 = triangle()
    assert k3.dominates(0, 1) and k3.dominates(2, 1)
    p3 = Graph.from_edges(3, [(0, 1), (1, 2)])
    assert p3.dominates(1, 0)
    assert not p3.dominates(0, 1)
    assert not p3.dominates(0, 2)  # not adjacent
    c4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert not c4.dominates(0, 1)


def test_find_structure_examples():
    k5 = Graph.from_edges(5, [(i, j) for i in range(5) for j in range(i + 1, 5)])
    assert FINDERS["degree_ge5"](k5) is None
    assert FINDERS["degree_ge5"](star(5)) == (0,)
    k4_pendant = Graph.from_edges(5, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (3, 4)])
    assert FINDERS["deg4_heavy_triangle"](k4_pendant) is None


def test_find_structure_determinism():
    g = Graph.from_edges(8, [(0, 1), (0, 2), (1, 2), (5, 6), (5, 7), (6, 7), (2, 3), (6, 3)])
    # two triangles with one outside neighbor each; lowest wins
    assert FINDERS["triangle_single_neighbor"](g) == (0, 1, 2, 3)


def _brute_witness(g, kind):
    """Independent existence checks for each structure kind."""
    from itertools import combinations

    verts = g.vertices()
    deg = {v: g.degree(v) for v in verts}
    if kind == "degree_ge5":
        return any(deg[v] >= 5 for v in verts)
    if kind == "dominating_deg4":
        return any(
            deg[v] == 4 and deg[u] >= 3 and u in g.neighbors(v) and g.dominates(v, u)
            for v in verts
            for u in verts
            if u != v
        )
    tris = [
        (a, b, c)
        for a, b, c in combinations(verts, 3)
        if g.has_edge(a, b) and g.has_edge(b, c) and g.has_edge(a, c)
    ]
    if kind == "triangle_single_neighbor":
        return any(len(g.neighborhood_of(t)) == 1 for t in tris)
    if kind == "deg4_heavy_triangle":
        return any(
            len(g.neighborhood_of(t)) >= 4 and any(deg[x] == 4 for x in t) for t in tris
        )
    if kind == "deg4_in_triangle":
        return any(any(deg[x] == 4 for x in t) for t in tris)
    if kind == "deg4_adjacent_deg3":
        return any(
            deg[v] == 4 and any(deg[u] >= 3 for u in g.neighbors(v)) for v in verts
        )
    if kind == "low_degree_edge":
        return any(deg[u] <= 2 and deg[v] <= 2 for u, v in g.edges())
    if kind == "contractible":
        return bool(_contractible(g))
    if kind == "trivial_components":
        return any(len(c) <= 6 or all(deg[v] == 2 for v in c) for c in g.components())
    raise AssertionError(kind)


def _contractible(g):
    """Every (a, mid, b): degree-2 mid whose neighbors a < b have degree <= 2
    and are not adjacent."""
    out = []
    for mid in g.vertices():
        if g.degree(mid) == 2:
            a, b = sorted(g.neighbors(mid))
            if g.degree(a) <= 2 and g.degree(b) <= 2 and not g.has_edge(a, b):
                out.append((a, mid, b))
    return out


def _brute_trivial_components(g):
    """Components merged edge by edge, ordered by minimum, kept when they
    have at most 6 vertices or all degrees 2."""
    comp_of = {v: {v} for v in g.vertices()}
    for u, v in g.edges():
        if comp_of[u] is not comp_of[v]:
            merged = comp_of[u] | comp_of[v]
            for x in merged:
                comp_of[x] = merged
    comps = sorted({tuple(sorted(c)) for c in comp_of.values()})
    return [c for c in comps if len(c) <= 6 or all(g.degree(v) == 2 for v in c)]


def test_find_structure_matches_bruteforce(rng):
    from conftest import all_graphs

    for g in all_graphs(4):
        for kind, find in FINDERS.items():
            assert (find(g) is not None) == _brute_witness(g, kind), (kind, g.edges())
        assert FINDERS["trivial_components"](g) == (_brute_trivial_components(g) or None)
    for t in range(120):
        g = random_graph(t + 900, n_lo=5, n_hi=8)
        for kind, find in FINDERS.items():
            got = find(g)
            assert (got is not None) == _brute_witness(g, kind), (t, kind, g.edges())
    # larger sparse graphs with deleted vertices, half of them beside a long cycle
    for t in range(60):
        n = rng.randint(8, 30)
        ring = rng.randint(7, 10) if t % 2 else 0
        edges = gnm_graph(n, rng.randint(4, n + 4), t + 1300).edges()
        edges += [(n + i, n + (i + 1) % ring) for i in range(ring)]
        g = Graph.from_edges(n + ring, edges)
        g.remove_vertices(rng.sample(range(n), 2))
        assert FINDERS["trivial_components"](g) == (_brute_trivial_components(g) or None), t


def test_remove_vertices_returns_what_lost_a_neighbor(rng):
    for t in range(60):
        g = random_graph(t + 1900)
        victims = rng.sample(g.vertices(), rng.randint(0, g.alive_count))
        h = g.copy()
        assert h.remove_vertices(victims) == g.neighborhood_of(victims), t
        assert h.edges() == g.without_vertices(victims).edges(), t


def test_without_vertices_matches_copy_and_remove():
    """without_vertices(ch), built in one pass, equals copy() then
    remove_vertices(ch): the same adjacency in the same order, and
    neighborhood_of(ch) is the set remove_vertices returns. Emptying every
    set of the child leaves the parent as it was, so no set is shared, and
    a dead or out-of-range vertex raises ValueError."""
    rng = random.Random(3232)
    for t in range(300):
        n = rng.randint(1, 16)
        g = gnm_graph(n, rng.randint(0, n * (n - 1) // 2), t)
        dead = rng.sample(range(n), rng.randint(0, n // 3))
        g.remove_vertices(dead)
        ch = rng.sample(g.vertices(), rng.randint(0, min(4, g.alive_count)))
        child, ref = g.without_vertices(ch), g.copy()
        lost = ref.remove_vertices(ch)
        assert list(child._adj.items()) == list(ref._adj.items()) and child.size == g.size, t
        assert g.neighborhood_of(ch) == lost, t
        parent = {v: set(nb) for v, nb in g._adj.items()}
        for nb in child._adj.values():
            nb.clear()
        assert g._adj == parent, t
        for bad in dead + [n, -1]:
            with pytest.raises(ValueError):
                g.without_vertices(ch + [bad])


def _reduction_witnesses(g):
    """kind -> [(witness, the vertices whose neighbor sets decide it)] for
    each reduction finder, by plain enumeration of its definition."""
    from itertools import combinations

    deg = {v: g.degree(v) for v in g.vertices()}
    tris = [t for t in combinations(g.vertices(), 3) if all(g.has_edge(a, b) for a, b in combinations(t, 2))]
    return {
        "low_degree_edge": [(e, e) for e in g.edges() if deg[e[0]] <= 2 and deg[e[1]] <= 2],
        "triangle_single_neighbor": [(t + tuple(g.neighborhood_of(t)), t) for t in tris
                                     if len(g.neighborhood_of(t)) == 1],
        "contractible": [(w, w) for w in _contractible(g)],
        "trivial_components": [(c, c) for c in _brute_trivial_components(g)],
    }


def test_reduction_finders_return_the_least_witness_through_scan(rng):
    """Over all vertices or over a scan set, each reduction finder returns
    its least witness (low_degree_edges and find_trivial_components: all of
    them, in order) among those with a scan vertex in the set of vertices
    whose neighbor sets decide it. Scans hold deleted vertices too."""
    from copack.generators import planted_graph

    graphs = [random_graph(t + 2600, n_lo=5, n_hi=10) for t in range(100)]
    for t in range(100):
        n = rng.randint(8, 40)
        g = planted_graph(n, rng.randint(0, 4), t) if t % 2 else gnm_graph(n, rng.randint(4, n + 4), t + 2700)
        # a ring beside it, or a triangle hanging off one of its vertices
        ring = rng.randint(3, 9) if t % 3 == 0 else 0
        edges = g.edges() + [(g.size + i, g.size + (i + 1) % ring) for i in range(ring)]
        if t % 3 == 1:
            a, ring = g.size, 3
            x = rng.randrange(n)
            edges += [(a, a + 1), (a + 1, a + 2), (a, a + 2), (x, a)] + [(x, a + 1)] * (t % 2)
        g = Graph.from_edges(g.size + ring, edges)
        g.remove_vertices(rng.sample(range(n), rng.randint(0, 3)))
        graphs.append(g)
    kinds = ("low_degree_edge", "triangle_single_neighbor", "contractible", "trivial_components")
    found = dict.fromkeys(kinds, 0)
    for t, g in enumerate(graphs):
        witnesses = _reduction_witnesses(g)
        scans = [None, set(g.vertices())] + [set(rng.sample(range(g.size), rng.randint(0, g.size)))
                                             for _ in range(4)]
        for scan in scans:
            for kind in kinds:
                want = sorted(w for w, decided in witnesses[kind] if scan is None or scan.intersection(decided))
                got = FINDERS[kind](g, scan)
                if kind in ("low_degree_edge", "trivial_components"):
                    assert got == (want or None), (t, kind, scan, g.edges())
                else:
                    assert got == (want[0] if want else None), (t, kind, scan, g.edges())
                found[kind] += bool(want)
    assert min(found.values()) >= 50, found


def test_edge_mutation():
    g = Graph.from_edges(3, [(0, 1)])
    g.add_edge(1, 2)
    assert g.has_edge(1, 2) and g.edge_count == 2
    g.remove_edge(0, 1)
    assert not g.has_edge(0, 1) and g.edge_count == 1
    with pytest.raises(ValueError):
        g.add_edge(1, 2)
    with pytest.raises(ValueError):
        g.add_edge(2, 2)
    with pytest.raises(ValueError):
        g.remove_edge(0, 1)


def _greedy_claws(g):
    """The greedy claw packing's size: centres highest degree first, each
    taking its three unused neighbors of lowest degree."""
    adj, used, count = g._adj, set(), 0
    for v in sorted(adj, key=lambda v: -len(adj[v])):
        free = adj[v] - used
        if v not in used and len(free) >= 3:
            used |= {v, *sorted(free, key=lambda u: (len(adj[u]), u))[:3]}
            count += 1
    return count


def test_claw_packing_is_a_lower_bound():
    """On graphs within the oracle's reach the claw packing never exceeds the
    cpcp minimum nor the cpp minimum, it is the whole greedy packing, and on
    many graphs it proves the minimum."""
    import random

    from copack.generators import planted_graph, proper_graph
    from copack.oracles import oracle_min

    rng = random.Random(1818)
    proved = 0
    for t in range(240):
        if t % 3 == 0:
            n = rng.randint(4, 14)
            g = gnm_graph(n, rng.randint(n, min(3 * n, n * (n - 1) // 2)), rng.randrange(1 << 30))
        elif t % 3 == 1:
            g = proper_graph(rng.randint(6, 14), rng.randrange(1 << 30))
        else:
            k = rng.randint(1, 4)
            g = planted_graph(rng.randint(4, 14 - k), k, rng.randrange(1 << 30))
        greedy = _greedy_claws(g)
        assert graphlib.claw_packing(g) == greedy, (t, g.edges())
        for problem in ("cpcp", "cpp"):
            mn = oracle_min(g, problem)
            assert graphlib.claw_packing(g) <= mn, (t, problem, g.edges())
        proved += greedy == oracle_min(g, "cpcp") > 0
    assert proved >= 60, proved
