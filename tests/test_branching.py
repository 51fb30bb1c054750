import random
from itertools import combinations

import pytest

from copack import branching, cutcount, decomp, graph as graphlib
from copack.branching import (
    _REDUCTIONS,
    Instance,
    SolveStats,
    _branch,
    _delete,
    _trivial_cut,
    branch_b1,
    branch_b2,
    least_cpp_budget,
    reduce_cpcp,
    reduce_cpp,
    solve_cpcp,
    solve_cpp,
    _pick_step,
)
from copack.errors import InternalSolverError
from copack.generators import complete_graph, cycle_graph, gnm_graph, path_graph, planted_graph
from copack.graph import (
    Graph,
    find_contractible,
    find_triangle_single_neighbor,
    low_degree_edges,
    swappable_vertices,
)
from copack.oracles import min_deletion_set, oracle_min, oracle_witness, verify
from conftest import all_graphs, exact_decomposition_for, random_graph, shuffled


def inst_of(g, k):
    return Instance(g.copy(), k, set())


# ------------------------------------------------------------------ rules


def test_branch_b1_counts():
    for d in (3, 4, 5):
        g = Graph.from_edges(d + 1, [(0, i) for i in range(1, d + 1)])
        bs = branch_b1(g, 0)
        assert len(bs.children) == 1 + d * (d - 1) // 2
        decs = sorted(len(ch) for ch in bs.children)
        assert decs == [1] + [d - 2] * (d * (d - 1) // 2)
    with pytest.raises(ValueError):
        branch_b1(path_graph(3), 1)


def test_branch_checks_its_decrements():
    bs = _branch("x", [{0}, [1, 2]], [2, 1])
    assert bs.rule == "x" and bs.children == [frozenset({0}), frozenset({1, 2})]
    with pytest.raises(InternalSolverError, match="branch decrements"):
        _branch("x", [{0}, {1, 2}], [1, 1])
    with pytest.raises(AssertionError):
        _branch("x", [{0}, set()], [1, 0])  # sizes match, but a child deletes nothing


def test_branch_b2_counts():
    # star with an extra ray: 0 dominates every leaf
    g = Graph.from_edges(5, [(0, 1), (0, 2), (0, 3), (0, 4)])
    bs = branch_b2(g, 0, 1)
    assert len(bs.children) == 4
    assert sorted(len(ch) for ch in bs.children) == [1, 2, 2, 2]
    g2 = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2)])
    bs = branch_b2(g2, 0, 1)
    assert len(bs.children) == 3
    assert sorted(len(ch) for ch in bs.children) == [1, 1, 1]
    g3 = Graph.from_edges(5, [(0, 1), (0, 2), (0, 3), (1, 4)])
    with pytest.raises(ValueError):
        branch_b2(g3, 0, 1)  # 1 has a private neighbor, not dominated
    with pytest.raises(ValueError):
        branch_b2(complete_graph(3), 0, 1)  # degree too small


# -------------------------------------------------------------- reductions


def test_reduce_cpcp_small_component():
    inst = inst_of(cycle_graph(5), 1)
    reduce_cpcp(inst)
    assert inst.graph.alive_count == 0 and inst.k == 1 and inst.deleted == set()


def test_reduce_cpcp_triangle_rule():
    # triangle {0,1,2} wired only to 3 (via two edges, so the low-degree edge
    # rule stays quiet); budget drops by one for 3, the triangle goes free
    edges = [(0, 1), (1, 2), (0, 2), (0, 3), (1, 3), (3, 4), (3, 5), (4, 6), (4, 7), (5, 6), (6, 7)]
    g = Graph.from_edges(8, edges)
    assert find_triangle_single_neighbor(g) == (0, 1, 2, 3)
    inst = inst_of(g, 2)
    reduce_cpcp(inst)
    assert 3 in inst.deleted
    assert inst.graph.alive_count == 0 and inst.k >= 0


def test_reduce_cpcp_edge_rule():
    # two adjacent degree-2 vertices inside a big sparse graph lose their edge
    g = path_graph(9)
    inst = inst_of(g, 0)
    reduce_cpcp(inst)
    assert inst.graph.alive_count == 0 and inst.k == 0


def test_low_degree_edges_in_one_pass_match_one_at_a_time(monkeypatch):
    # the cpcp fixpoint removing every low-degree edge per firing reaches the
    # same instance, with the same reduction count, as removing the first one
    # and rescanning
    def first_only(g, scan=None):
        edges = low_degree_edges(g, scan)
        return edges and edges[:1]

    (_, remove), *rest = _REDUCTIONS["cpcp"]
    rng = random.Random(515)
    for t in range(150):
        if t % 3:
            g = random_graph(t + 5100, n_lo=6, n_hi=14)
        else:
            g = planted_graph(rng.randint(12, 30), rng.randint(1, 2), t)
        k = rng.randint(0, g.alive_count)
        batched, batched_stats = inst_of(g, k), SolveStats()
        reduce_cpcp(batched, batched_stats)
        with monkeypatch.context() as m:
            m.setitem(_REDUCTIONS, "cpcp", ((first_only, remove), *rest))
            single, single_stats = inst_of(g, k), SolveStats()
            reduce_cpcp(single, single_stats)
        assert batched.graph.edges() == single.graph.edges(), t
        assert (batched.k, batched.deleted) == (single.k, single.deleted), t
        assert batched_stats.reductions == single_stats.reductions, t


def test_rule_soundness_single_applications(rng):
    """Each local rule keeps the minimum, and every minimum deletion set of
    the contracted graph verifies on the original, as the search lifts it."""
    checked = {"rr2": 0, "rr3": 0, "contract": 0}
    for t in range(3000):
        if all(v >= 40 for v in checked.values()):
            break
        g = random_graph(t + 7700, n_lo=5, n_hi=9)
        e = (low_degree_edges(g) or [None])[0]
        if e and checked["rr2"] < 60:
            checked["rr2"] += 1
            g2 = g.copy()
            g2.remove_edge(*e)
            assert oracle_min(g, "cpcp") == oracle_min(g2, "cpcp")
        tri = find_triangle_single_neighbor(g)
        if tri and checked["rr3"] < 60:
            checked["rr3"] += 1
            g2 = g.without_vertices(tri)
            assert oracle_min(g, "cpcp") == oracle_min(g2, "cpcp") + 1
        found = find_contractible(g)
        if found and checked["contract"] < 60:
            checked["contract"] += 1
            a, mid, b = found
            g2 = g.copy()
            g2.remove_vertex(mid)
            g2.add_edge(a, b)
            mn = oracle_min(g2, "cpp")
            assert oracle_min(g, "cpp") == mn, (t, g.edges())
            for size in range(mn + 1):
                for cut in combinations(g2.vertices(), size):
                    if verify(g2, set(cut), "cpp"):
                        assert size == mn and verify(g, set(cut), "cpp"), (t, cut, g.edges())
    assert all(v >= 40 for v in checked.values()), checked


def hub_and_spoke(n, rng):
    """1-3 hubs, every other vertex a spoke of one of them, hubs joined at
    random, and up to n / 2 random extra edges, under shuffled ids."""
    hubs = rng.randint(1, 3)
    edges = {(rng.randrange(hubs), v) for v in range(hubs, n)}
    edges |= {pair for pair in combinations(range(hubs), 2) if rng.random() < 0.5}
    for _ in range(rng.randint(0, n // 2)):
        edges.add(tuple(sorted(rng.sample(range(n), 2))))
    return shuffled(Graph.from_edges(n, sorted(edges)), rng.randrange(1 << 30))


def test_swap_rule_keeps_oracle_minima(monkeypatch):
    """The swap rule keeps every minimum: on 400 seeded hub-and-spoke and
    gnm graphs of 6-13 vertices, the exact search's minimum is the oracle's
    for both problems, its witness verifies, and decisions at the minimum
    and one below agree, while the rule fires at least 100 times per
    problem."""
    fired = {"cpcp": 0, "cpp": 0}
    problem = None

    def counted(g, t, scan=None):
        found = swappable_vertices(g, t, scan)
        fired[problem] += found is not None
        return found

    monkeypatch.setattr(graphlib, "swappable_vertices", counted)
    rng = random.Random(2525)
    for t in range(400):
        n = rng.randint(6, 13)
        g = hub_and_spoke(n, rng) if t % 2 else gnm_graph(n, rng.randint(n, min(3 * n, n * (n - 1) // 2)), t)
        for problem, solve in (("cpcp", solve_cpcp), ("cpp", solve_cpp)):
            mn = len(oracle_witness(g, problem))
            out = solve(g, g.alive_count, exact=True)
            assert out.size == mn, (t, problem, g.edges())
            assert out.witness is None or verify(g, out.witness, problem), (t, problem)
            assert solve(g, mn).answer and not solve(g, mn - 1).answer, (t, problem, g.edges())
    assert min(fired.values()) >= 100, fired


def test_swap_rule_shapes():
    """Where the swap rule fires, through the finder and the search:
    - three centres in a path, four pendant leaves each: every centre,
      the middle one with two centre neighbours among its six;
    - a degree-5 vertex with three neighbours of degree 4, each the centre
      of a claw of its own: neither problem, since the minimum, 3, keeps it;
    - a degree-5 vertex whose neighbours have degree 3 and only leaves
      beyond them: cpcp only;
    - a degree-5 vertex with two leaves and three neighbours that each
      close a triangle with two degree-2 vertices: cpcp only, as putting
      such a neighbour back would close a cycle for cpp."""
    chain = Graph.from_edges(15, [(0, 5), (0, 10)] + [(c, c + i) for c in (0, 5, 10) for i in range(1, 5)])
    claws = Graph.from_edges(15, [(0, u) for u in range(1, 6)]
                             + [(u, 3 + 3 * u + j) for u in (1, 2, 3) for j in range(3)])
    spider = Graph.from_edges(16, [(0, u) for u in range(1, 6)]
                              + [(u, 4 + 2 * u + j) for u in range(1, 6) for j in range(2)])
    triangles = Graph.from_edges(12, [(0, u) for u in range(1, 6)] + [
        e for u, a, b in ((1, 6, 7), (2, 8, 9), (3, 10, 11)) for e in ((u, a), (u, b), (a, b))])
    # (graph, what fires for cpcp and for cpp, minimum for cpcp and for cpp)
    cases = [(chain, [0, 5, 10], [0, 5, 10], 3, 3), (claws, None, None, 3, 3),
             (spider, [0], None, 1, 1), (triangles, [0], None, 1, 3)]
    assert oracle_min(triangles, "cpp") == 3
    for g, *fires, mn_cpcp, mn_cpp in cases:
        assert [swappable_vertices(g, 3), swappable_vertices(g, 2)] == fires, g.edges()
        assert solve_cpcp(g, g.alive_count, exact=True).size == mn_cpcp, g.edges()
        assert solve_cpp(g, g.alive_count, exact=True).size == mn_cpp, g.edges()
    for reduce in (reduce_cpcp, reduce_cpp):
        inst = inst_of(chain, 15)
        reduce(inst)
        assert inst.deleted == {0, 5, 10} and inst.graph.alive_count == 0, reduce.__name__


def test_reduce_cpp_examples():
    inst = inst_of(path_graph(6), 0)
    reduce_cpp(inst)
    assert inst.graph.alive_count == 0 and inst.k == 0
    inst = inst_of(cycle_graph(6), 1)
    reduce_cpp(inst)
    assert inst.graph.alive_count == 0 and inst.k == 0 and len(inst.deleted) == 1
    # a long cycle costs one deletion in the component pass
    inst = inst_of(cycle_graph(9), 3)
    reduce_cpp(inst)
    assert inst.graph.alive_count == 0 and inst.k == 2
    # hubs 0-5 joined in a ring by chains of 1-6 interior vertices, a pendant
    # chain of 1-5 vertices on each of hubs 0-4, and a cycle of 8 hanging off
    # hub 5: each chain of m vertices keeps min(m, 2) of them, a pendant one
    # its leaf among them, and the cycle shrinks to a triangle
    edges, nxt = [], 6

    def chain(first, m, last=None):
        nonlocal nxt
        run = [first] + list(range(nxt, nxt + m)) + ([] if last is None else [last])
        nxt += m
        edges.extend(zip(run, run[1:]))
        return run[1:m + 1]

    hub_chains = [chain(h, h + 1, (h + 1) % 6) for h in range(6)]
    pendants = [chain(h, h + 1) for h in range(5)]
    cycle = chain(5, 7, 5)
    g = Graph.from_edges(nxt, edges)
    inst = inst_of(g, g.alive_count)
    reduce_cpp(inst)
    h = inst.graph
    assert inst.deleted == set() and h.components() == [sorted(h.vertices())]
    for run in hub_chains:
        assert len([v for v in run if h.is_alive(v)]) == min(len(run), 2), run
    for run in pendants:
        kept = [v for v in run if h.is_alive(v)]
        assert len(kept) == min(len(run), 2) and run[-1] in kept, run
    kept = [v for v in cycle if h.is_alive(v)]
    assert len(kept) == 2 and h.has_edge(*kept) and all(h.has_edge(5, v) for v in kept)


def test_reduce_budget_exhaustion_marker():
    inst = inst_of(complete_graph(4), 0)
    reduce_cpcp(inst)
    assert inst.k < 0


def _reference_reduce(inst, problem):
    """Component rule first, one component per firing at its oracle minimum
    (a long cycle costs 1 for cpp, 0 for cpcp), then the local rules; restart
    from the top after every firing."""
    g = inst.graph
    while inst.k >= 0:
        comps = graphlib.find_trivial_components(g)
        if comps:
            comp = comps[0]
            if len(comp) <= 6:
                cost = oracle_min(g.without_vertices(set(g.vertices()) - set(comp)), problem)
            else:
                cost = int(problem == "cpp")
            g.remove_vertices(comp)
            inst.k -= cost
            continue
        for find, act in _REDUCTIONS[problem]:
            found = find(g)
            if found is not None:
                act(inst, found)
                break
        else:
            break


def test_reduce_matches_component_first_reference():
    rng = random.Random(4242)
    checked = 0
    for t in range(660):
        family = t % 3
        if family == 0:
            g = planted_graph(rng.randint(10, 60), rng.randint(1, 8), seed=t)
        elif family == 1:
            n = rng.randint(6, 30)
            g = gnm_graph(n, rng.randint(0, min(3 * n, n * (n - 1) // 2)), seed=t)
        else:
            # sparse, and every other one beside a long cycle
            n = rng.randint(6, 40)
            ring = rng.randint(7, 12) if t % 2 else 0
            edges = gnm_graph(n, rng.randint(n // 2, n + 3), seed=t).edges()
            g = Graph.from_edges(n + ring, edges + [(n + i, n + (i + 1) % ring) for i in range(ring)])
        k = rng.randint(0, max(1, g.alive_count // 3))
        for problem, reduce in (("cpcp", reduce_cpcp), ("cpp", reduce_cpp)):
            got, want = inst_of(g, k), inst_of(g, k)
            reduce(got)
            _reference_reduce(want, problem)
            if got.k < 0 or want.k < 0:
                assert got.k < 0 and want.k < 0, (t, problem)
                continue
            assert got.graph.vertices() == want.graph.vertices(), (t, problem)
            assert got.graph.edges() == want.graph.edges(), (t, problem)
            assert got.k == want.k, (t, problem)
            checked += 1
    assert checked >= 600, checked


def test_reduce_scans_no_components(monkeypatch):
    """No reduction calls Graph.components: the trivial passes walk out
    from the vertices that changed."""
    calls = []
    components = Graph.components
    monkeypatch.setattr(Graph, "components", lambda g: calls.append(1) or components(g))
    for reduce, g, k in ((reduce_cpcp, path_graph(300), 0), (reduce_cpp, path_graph(300), 0),
                         (reduce_cpp, cycle_graph(60), 1)):
        calls.clear()
        inst = inst_of(g, k)
        reduce(inst)
        assert inst.graph.alive_count == 0 and inst.k == 0
        assert not calls, (reduce.__name__, len(calls))
    for reduce in (reduce_cpcp, reduce_cpp):
        for g in (planted_graph(200, 20, 3), gnm_graph(40, 60, 1)):
            reduce(inst_of(g, g.alive_count))
            assert not calls, reduce.__name__


def test_trivial_cut_skips_enumeration_inside_the_bound(monkeypatch):
    """On every component of every graph of at most 5 vertices, and of
    seeded 6-vertex graphs, _trivial_cut equals min_deletion_set for both
    problems, and enumerates exactly when the component needs a deletion."""
    rng = random.Random(1919)
    graphs = [g for n in range(1, 6) for g in all_graphs(n)]
    graphs += [gnm_graph(6, rng.randint(0, 15), rng.randrange(1 << 30)) for _ in range(400)]
    enumerated = []
    monkeypatch.setattr(branching, "min_deletion_set", lambda *a: enumerated.append(a) or min_deletion_set(*a))
    free = 0
    for g in graphs:
        for comp in g.components():
            for acyclic in (False, True):
                want = min_deletion_set(g, comp, 2, acyclic)
                enumerated.clear()
                assert _trivial_cut(g, comp, acyclic) == want, (comp, acyclic, g.edges())
                assert bool(enumerated) == bool(want), (comp, acyclic, g.edges())
                free += not want
    assert free >= 1000, free


def _full_scan_reduce(inst, problem):
    """The reduction loop with every finder scanning the whole graph: the
    trivial components, the first local rule that applies until none does or
    the budget runs out, then, if a rule fired and the budget has not run
    out, the components left trivial. Returns the reductions counted."""
    acyclic = problem == "cpp"
    count = 0

    def trivial():
        nonlocal count
        for comp in graphlib.find_trivial_components(inst.graph) or ():
            count += 1
            _delete(inst, comp, _trivial_cut(inst.graph, comp, acyclic))

    trivial()
    fired = False
    while inst.k >= 0:
        for find, act in _REDUCTIONS[problem]:
            found = find(inst.graph)
            if found is not None:
                count += act(inst, found)[0]
                fired = True
                break
        else:
            break
    if fired and inst.k >= 0:
        trivial()
    return count


def _reduced(inst, count):
    return inst.graph.vertices(), inst.graph.edges(), inst.k, inst.deleted, count


def test_child_reductions_match_full_scans(monkeypatch):
    """At every branch child of seeded solves, the reduction that rescans
    only the vertices the branch changed reaches the graph, budget, deleted
    set and reduction count of the full-scan loop run on a copy. cpcp and
    cpp, decisions at the minimum and one below, and exact mode, on
    planted(n, k, s) at n = 20-200, gnm graphs and proper graphs of 20-32
    vertices with two random chords."""
    from copack.generators import proper_graph

    checked = dict.fromkeys(("cpcp", "cpp"), 0)
    for problem in checked:
        name = "reduce_" + problem

        def reduce(inst, stats, problem=problem, shipped=getattr(branching, name)):
            if inst.changed is None:
                return shipped(inst, stats)
            want = Instance(inst.graph.copy(), inst.k, set(inst.deleted))
            count = _full_scan_reduce(want, problem)
            before = stats.reductions
            shipped(inst, stats)
            assert _reduced(inst, stats.reductions - before) == _reduced(want, count), problem
            checked[problem] += 1
            return inst

        monkeypatch.setattr(branching, name, reduce)
    rng = random.Random(1920)
    graphs = [planted_graph(n, n // rng.choice((8, 10, 12)), s) for s, n in enumerate(range(20, 201, 15))]
    graphs += [gnm_graph(n, rng.randint(n, 2 * n), s) for s, n in enumerate(range(14, 30, 2))]
    for s, n in enumerate(range(20, 33, 4)):
        edges = set(proper_graph(n, s).edges())
        chords = len(edges) + 2
        while len(edges) < chords:
            edges.add(tuple(sorted(rng.sample(range(n), 2))))
        graphs.append(Graph.from_edges(n, sorted(edges)))
    solvers = (lambda g, k, exact=False: solve_cpcp(g, k, exact),
               lambda g, k, exact=False: solve_cpp(g, k, seed=7, exact=exact))
    for g in graphs:
        for solve in solvers:
            mn = solve(g, g.alive_count, exact=True).size
            solve(g, mn)
            solve(g, mn - 1)
    assert min(checked.values()) >= 500, checked


def test_reductions_after_any_deletion_match_full_scans():
    """A graph at the reduction fixpoint loses a vertex set ch; the
    reduction that rescans only N(ch) reaches what the full-scan loop does.
    First a graph where deleting 8 leaves the triangle {0, 1, 2} with the
    single outside neighbor 3, whose deletion frees the edge (4, 5); then
    seeded gnm and planted graphs, both problems."""
    rng = random.Random(1921)
    fixed = Graph.from_edges(10, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (2, 8), (3, 4), (4, 5), (4, 6),
                                  (5, 6), (6, 7), (7, 8), (7, 9), (8, 9)])
    cases = [(fixed, "cpcp", [8])]
    for t in range(400):
        n = rng.randint(10, 40)
        g = gnm_graph(n, rng.randint(n, 3 * n), t) if t % 2 else planted_graph(n, rng.randint(1, n // 4), t)
        for problem in ("cpcp", "cpp"):
            inst = inst_of(g, g.alive_count)
            (reduce_cpcp if problem == "cpcp" else reduce_cpp)(inst)
            if inst.graph.alive_count >= 2:
                cases.append((inst.graph, problem, rng.sample(inst.graph.vertices(), rng.randint(1, 3))))
    for t, (g, problem, ch) in enumerate(cases):
        got, want = inst_of(g, g.alive_count), inst_of(g, g.alive_count)
        got.changed = got.graph.remove_vertices(ch)
        want.graph.remove_vertices(ch)
        stats = SolveStats()
        (reduce_cpcp if problem == "cpcp" else reduce_cpp)(got, stats)
        assert _reduced(got, stats.reductions) == _reduced(want, _full_scan_reduce(want, problem)), t
    assert len(cases) >= 600, len(cases)


def test_p200_cpp_matches_a_full_scan_run(monkeypatch):
    """p200 cpp at -k 14, -k 15 and exact: the same answer, witness and
    counters as a search whose every node runs the full-scan loop."""
    g = planted_graph(200, 20, 3)
    runs = (lambda: solve_cpp(g, 14), lambda: solve_cpp(g, 15), lambda: solve_cpp(g, g.alive_count, exact=True))
    shipped = [run() for run in runs]

    def full_scan(inst, stats):
        stats.reductions += _full_scan_reduce(inst, "cpp")
        return inst

    monkeypatch.setattr(branching, "reduce_cpp", full_scan)
    for out, run in zip(shipped, runs):
        ref = run()
        assert (out.answer, out.size, out.witness, out.stats) == (ref.answer, ref.size, ref.witness, ref.stats)
    assert [out.size for out in shipped] == [None, 15, 15]


def test_child_reductions_walk_no_components(monkeypatch):
    """cpcp decisions on a planted graph of 800 forest vertices and 40
    extras: no reduction calls Graph.components, and only the root's
    trivial pass walks the whole graph; a branch child's walks out from the
    vertices the branch changed."""
    components, find_trivial, shipped = Graph.components, graphlib.find_trivial_components, branching.reduce_cpcp
    log = []  # per reduction: [a branch child?, Graph.components calls, whole-graph trivial passes]

    def counted(g):
        log[-1][1] += 1
        return components(g)

    def trivial(g, scan=None):
        log[-1][2] += scan is None
        return find_trivial(g, scan)

    def reduce(inst, stats):
        log.append([inst.changed is not None, 0, 0])
        with monkeypatch.context() as m:
            m.setattr(Graph, "components", counted)
            m.setattr(graphlib, "find_trivial_components", trivial)
            return shipped(inst, stats)

    monkeypatch.setattr(branching, "reduce_cpcp", reduce)
    g = planted_graph(800, 40, 1)
    for k in (40, 36):
        log.clear()
        out = solve_cpcp(g, k)
        assert out.answer == (k == 40) and out.stats.nodes > 10 and len(log) > 20, k
        assert log[0] == [False, 0, 1] and all(entry == [True, 0, 0] for entry in log[1:]), (k, log)


def test_search_splits_into_nontrivial_components_only(monkeypatch):
    """The reductions leave no trivial component, so every component a
    search node splits off has more than TRIVIAL_COMPONENT_SIZE vertices and
    a vertex of degree other than 2: p200 cpp at -k 15 and exact, and cpcp
    exact on planted(n, k, s) for n = 40-150."""
    split, checked = Graph.split, []

    def checked_split(g):
        parts = split(g)
        for h in parts:
            degrees = {len(nb) for nb in h._adj.values()}
            assert h.alive_count > graphlib.TRIVIAL_COMPONENT_SIZE and degrees != {2}, (h.alive_count, degrees)
        checked.extend(parts)
        return parts

    monkeypatch.setattr(Graph, "split", checked_split)
    g = planted_graph(200, 20, 3)
    assert solve_cpp(g, 15).size == 15 and solve_cpp(g, g.alive_count, exact=True).size == 15
    for s, n in enumerate(range(40, 151, 10)):
        g = planted_graph(n, n // 10, s)
        solve_cpcp(g, g.alive_count, exact=True)
    assert len(checked) >= 1000, len(checked)


# ------------------------------------------------------------------ solving


def test_solve_cpcp_examples():
    k5 = complete_graph(5)
    out = solve_cpcp(k5, 2)
    assert out.answer and len(out.witness) == 2 and verify(k5, out.witness, "cpcp")
    assert not solve_cpcp(k5, 1).answer
    out = solve_cpcp(cycle_graph(7), 0)
    assert out.answer and out.witness == set()


def test_solve_cpp_examples():
    assert not solve_cpp(cycle_graph(7), 0, repeats=5, seed=1).answer
    assert solve_cpp(cycle_graph(7), 1, repeats=10, seed=1).answer
    k4 = complete_graph(4)
    out = solve_cpp(k4, 2, repeats=10, seed=1)
    assert out.answer and out.size == len(out.witness) == 2 and verify(k4, out.witness, "cpp")


def test_solve_rejects_nothing_weird():
    assert not solve_cpcp(path_graph(3), -1).answer
    out = solve_cpcp(Graph(0), 0)
    assert out.answer and out.witness == set()


def test_oracle_equivalence_cpcp(rng):
    for t in range(250):
        g = random_graph(t + 8800, n_lo=4, n_hi=8)
        mn = oracle_min(g, "cpcp")
        for k in range(g.alive_count + 1):
            out = solve_cpcp(g, k)
            assert out.answer == (k >= mn), (t, k, mn, g.edges())
            if out.answer:
                assert len(out.witness) <= k and verify(g, out.witness, "cpcp")


def test_oracle_equivalence_cpp(rng):
    for t in range(200):
        g = random_graph(t + 9900, n_lo=4, n_hi=8)
        mn = oracle_min(g, "cpp")
        for k in range(g.alive_count + 1):
            out = solve_cpp(g, k, repeats=12, seed=t * 31 + k)
            assert not (out.answer and k < mn), "false positive"
            assert not (not out.answer and k >= mn), (t, k, mn, g.edges())


def test_cpp_leaves_draw_consecutive_seeds(monkeypatch):
    """The i-th cut & count decision of a search gets derive_seed(seed, i),
    whether it decides a leaf at the cap or one of a leaf's ascending budgets
    in exact mode. Only a leaf whose deletion-DP witness leaves a cycle
    reaches cut & count; one the claw bound, the guard or the deletion DP
    refutes draws no seed."""
    from copack.generators import proper_graph

    # which cycles the deletion DP's witness leaves depends on the
    # decomposition; these counts are pinned on the exact one
    monkeypatch.setattr(decomp, "decomposition_for", exact_decomposition_for)
    # proper graphs the search hands to a leaf whole: a's cpp minimum is
    # above its cpcp minimum, b's equals it
    a, b = proper_graph(13, 66), proper_graph(12, 9)
    assert (oracle_min(a, "cpcp"), oracle_min(a, "cpp")) == (2, 3)
    assert (oracle_min(b, "cpcp"), oracle_min(b, "cpp")) == (2, 2)
    ab = disjoint_union(a, b)
    # the Petersen graph is cubic with a greedy claw packing of 1, so at
    # k = 1 the guard (n3 = 10 > 4k), not the claw bound, refutes it
    petersen = Graph.from_edges(10, [(i, (i + 1) % 5) for i in range(5)]
                                + [(5 + i, 5 + (i + 2) % 5) for i in range(5)] + [(i, i + 5) for i in range(5)])
    decisions = []
    decide = cutcount.decide_cpp

    def recording(g, k, events, repeats, seed):
        decisions.append((g.alive_count, k, seed))
        return decide(g, k, events, repeats, seed)

    monkeypatch.setattr(cutcount, "decide_cpp", recording)
    # (graph, k, exact, size found or None, (dp_calls, guard_rejects,
    # bound_prunes), the leaf and budget of each cut & count decision)
    cases = (
        (a, 2, False, None, (1, 0, 0), [(13, 2)]),
        (a, 13, True, 3, (1, 0, 0), [(13, 2), (13, 3)]),
        (a, 0, False, None, (0, 0, 1), []),
        (petersen, 1, False, None, (0, 1, 0), []),
        (ab, 4, False, None, (2, 0, 0), [(12, 2), (13, 2)]),
        (ab, 3, False, None, (2, 0, 0), [(12, 2)]),
        (ab, 25, True, 5, (2, 0, 0), [(12, 2), (13, 2), (13, 3)]),
    )
    for g, k, exact, size, leaves, budgets in cases:
        decisions.clear()
        out = solve_cpp(g, k, repeats=2, seed=7, exact=exact)
        assert out.size == size and out.witness is None, (k, exact)
        assert (out.stats.dp_calls, out.stats.guard_rejects, out.stats.bound_prunes) == leaves, (k, exact)
        assert out.stats.cc_calls == len(budgets)
        assert decisions == [(n, kk, cutcount.derive_seed(7, i)) for i, (n, kk) in enumerate(budgets)]


def test_branch_sets_are_exhaustive(rng):
    """Whenever a step fires on a yes-instance, some child stays a yes."""
    fired = 0
    for t in range(400):
        if fired >= 120:
            break
        g = random_graph(t + 12000, n_lo=5, n_hi=8)
        for problem in ("cpcp", "cpp"):
            inst = inst_of(g, g.alive_count)
            (reduce_cpcp if problem == "cpcp" else reduce_cpp)(inst)
            h = inst.graph
            if h.alive_count == 0:
                continue
            bs = _pick_step(h, problem)
            if bs is None:
                continue
            fired += 1
            mn = oracle_min(h, problem)
            for k in range(mn, h.alive_count + 1):
                ok = False
                for ch in bs.children:
                    if len(ch) > k:
                        continue
                    h2 = h.without_vertices(ch)
                    if oracle_min(h2, problem) <= k - len(ch):
                        ok = True
                        break
                assert ok, (t, problem, bs.rule, k, h.edges())
    assert fired >= 60


def test_step4_uncovered_triangle_shape():
    """Triangle partner degrees (3, 2): outside the two documented shapes;
    handled by domination branching on the degree-2 partner."""
    edges = [
        (0, 1), (0, 2), (0, 3), (0, 4),
        (1, 2), (1, 5),
        (3, 6), (3, 7),
        (4, 6), (4, 8),
        (5, 7), (5, 8),
    ]
    g = Graph.from_edges(9, edges)
    inst = inst_of(g, 9)
    reduce_cpcp(inst)
    assert inst.graph.alive_count == 9  # nothing reducible
    bs = _pick_step(inst.graph, "cpcp")
    assert bs is not None and bs.rule == "step4_dominated_deg2"
    assert sorted(len(ch) for ch in bs.children) == [1, 2, 2, 2]
    mn = oracle_min(g, "cpcp")
    for k in range(g.alive_count + 1):
        assert solve_cpcp(g, k).answer == (k >= mn)


def test_step4_case11_shape():
    """Degree-4 triangle partner with two degree-2 partners: two-way branch."""
    edges = [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 5), (5, 6), (6, 7), (6, 8)]
    g = Graph.from_edges(9, edges)
    inst = inst_of(g, 9)
    reduce_cpcp(inst)
    assert inst.graph.alive_count == 9
    bs = _pick_step(inst.graph, "cpcp")
    assert bs is not None and bs.rule == "step4_case1.1"
    assert sorted(tuple(sorted(ch)) for ch in bs.children) == [(0,), (1, 4)]
    mn = oracle_min(g, "cpcp")
    for k in range(g.alive_count + 1):
        assert solve_cpcp(g, k).answer == (k >= mn)


def test_step4_case22_and_23_shapes():
    """Both degree-3 partners hanging on a shared third vertex, whose degree
    picks between the two improved branch sets."""
    # shared vertex 5 has degree 3 here
    g22 = Graph.from_edges(
        9,
        [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 5), (2, 5), (5, 6),
         (3, 6), (4, 6), (3, 7), (4, 8), (7, 8)],
    )
    inst = inst_of(g22, 9)
    reduce_cpcp(inst)
    assert inst.graph.alive_count == 9
    bs = _pick_step(inst.graph, "cpcp")
    assert bs.rule == "step4_case2.2"
    assert sorted(len(ch) for ch in bs.children) == [2] * 7

    # and degree 4 here
    g23 = Graph.from_edges(
        9,
        [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 5), (2, 5), (5, 6),
         (5, 7), (3, 6), (4, 7), (6, 8), (7, 8)],
    )
    inst = inst_of(g23, 9)
    reduce_cpcp(inst)
    assert inst.graph.alive_count == 9
    bs = _pick_step(inst.graph, "cpcp")
    assert bs.rule == "step4_case2.3"
    assert sorted(len(ch) for ch in bs.children) == [2] * 7 + [3]

    for g in (g22, g23):
        mn = oracle_min(g, "cpcp")
        for k in range(g.alive_count + 1):
            assert solve_cpcp(g, k).answer == (k >= mn)


def test_step4_case_shapes_cover_random_triangles(rng):
    """Any degree-4-in-triangle leaf reachable after reductions must be
    dispatched without an internal error."""
    hits = 0
    for t in range(600):
        if hits >= 25:
            break
        g = random_graph(t + 15000, n_lo=6, n_hi=9)
        inst = inst_of(g, g.alive_count)
        reduce_cpcp(inst)
        h = inst.graph
        if h.alive_count == 0:
            continue
        bs = _pick_step(h, "cpcp")
        if bs is not None and bs.rule.startswith("step4"):
            hits += 1
    # at least a few random instances exercise the step-4 dispatch
    assert hits >= 5


def test_fired_steps_match_documented_recurrences(rng):
    """Decrement multisets of fired steps equal the recurrences whose factors
    the factor table quotes."""
    from copack.cli import FACTOR_ROWS

    table = {name: sorted(decs) for name, decs, _ in FACTOR_ROWS}
    seen = set()
    for t in range(500):
        g = random_graph(t + 30000, n_lo=5, n_hi=10)
        for problem in ("cpcp", "cpp"):
            inst = inst_of(g, g.alive_count)
            (reduce_cpcp if problem == "cpcp" else reduce_cpp)(inst)
            if inst.graph.alive_count == 0:
                continue
            bs = _pick_step(inst.graph, problem)
            if bs is None:
                continue
            decs = sorted(len(ch) for ch in bs.children)
            seen.add(bs.rule)
            if bs.rule == "step1":
                d = max(decs)  # degree - 2
                deg = d + 2
                assert deg >= 5 and decs == [1] + [d] * (deg * (deg - 1) // 2)
            elif bs.rule in ("step2", "step4_dominated_deg2"):
                assert decs == table["step2"]
            elif bs.rule == "step3":
                assert decs[:-1] == [1, 2, 2, 2, 2, 2] and decs[-1] >= 4
            elif bs.rule == "step4_case1.1":
                assert decs == table["step4_case1.1"]
            elif bs.rule == "step4_case2.2":
                assert decs == table["step4_case2.2"]
            elif bs.rule == "step4_case2.3":
                assert decs == table["step4_case2.3"]
            elif bs.rule in ("step5", "step*4"):
                assert decs in (table["step5"], table["step5_deg4"])
            elif bs.rule == "step*3":
                assert decs == table["step*3"]
            else:
                raise AssertionError(bs.rule)
    assert {"step1", "step2", "step*3"} <= seen


def test_stats_populated():
    g = gnm_graph(9, 18, seed=2)
    out = solve_cpcp(g, 3)
    assert out.stats.nodes >= 0 and out.stats.reductions >= 0


def test_cpcp_search_matches_leaf_dp_past_oracle():
    """Past the oracle's 14 vertices the search is checked against the
    deletion DP run on the whole graph over a greedy decomposition: yes at
    that minimum m, no at m - 1. Leaves of more than 22 vertices take the
    greedy decomposition too."""
    from copack.bdd import bdd_dp_solve
    from copack.decomp import heuristic_pd, to_nice
    from copack.generators import planted_graph, proper_graph

    graphs = [planted_graph(n, k, seed) for seed in range(4)
              for n, k in ((20, 3), (25, 4), (30, 5), (35, 6), (40, 6), (40, 3))]
    graphs += [proper_graph(n, seed) for seed in range(2) for n in range(20, 31)]
    for g in graphs:
        m = bdd_dp_solve(g, to_nice(heuristic_pd(g)), 2)[0]
        out = solve_cpcp(g, m)
        assert out.answer and len(out.witness) == m, (m, g.edges())
        assert not solve_cpcp(g, m - 1).answer, (m, g.edges())


def test_cpp_search_matches_whole_graph_route_past_oracle():
    """Past the oracle, the exact cpp search reads the minimum the
    whole-graph route does: the deletion DP's floor on the graph's own
    decomposition, then cut & count from it. planted(20 + s, 2 + s // 6,
    s + 40) for s < 24, whose reductions contract chains before the leaves."""
    from copack.bdd import bdd_dp_solve
    from copack.decomp import decomposition_for, to_nice

    reductions = 0
    for s in range(24):
        g = planted_graph(20 + s, 2 + s // 6, s + 40)
        out = solve_cpp(g, g.alive_count, exact=True)
        events = to_nice(decomposition_for(g))
        floor = bdd_dp_solve(g, events, 2)[0]
        assert least_cpp_budget(g, floor, g.alive_count, events, 10, 0, SolveStats()) == out.size, s
        reductions += out.stats.reductions
    assert reductions >= 24 * 10, reductions


def disjoint_union(*parts):
    """The parts side by side, each one's ids shifted past the previous ones."""
    edges, off = [], 0
    for h in parts:
        edges += [(u + off, v + off) for u, v in h.edges()]
        off += h.size
    return Graph.from_edges(off, edges)


def test_component_unions_match_oracle():
    """Disjoint unions of 2-3 seeded gnm graphs, at most 14 vertices: yes at
    the oracle's minimum (a cpcp witness verifies), no one below; the exact
    cpcp search returns that minimum."""
    checked = branched = 0
    for t in range(80):
        rng = random.Random(t + 31000)
        # components of 6 or fewer vertices never reach the search, so one
        # part has 7
        sizes = [7] + [rng.randint(4, 7) for _ in range(rng.choice((1, 2)))]
        while sum(sizes) > 14:
            sizes.pop()
        parts = [gnm_graph(n, rng.randint(n, n * (n - 1) // 2), rng.randrange(1 << 30)) for n in sizes]
        g = disjoint_union(*parts)
        for problem in ("cpcp", "cpp"):
            mn = oracle_min(g, problem)
            if problem == "cpcp":
                out = solve_cpcp(g, mn)
                assert out.answer and len(out.witness) <= mn and verify(g, out.witness, "cpcp"), (t, g.edges())
                exact = solve_cpcp(g, g.alive_count, exact=True)
                assert len(exact.witness) == mn, (t, g.edges())
                below = solve_cpcp(g, mn - 1)
                branched += below.stats.nodes >= 2
                below = below.answer
            else:
                assert solve_cpp(g, mn, repeats=12, seed=t).answer, (t, g.edges())
                below = solve_cpp(g, mn - 1, repeats=12, seed=t).answer
            assert not below, (t, problem, mn, g.edges())
            checked += mn > 0
    assert checked >= 150 and branched >= 10, (checked, branched)


def test_component_unions_match_leaf_dp_past_oracle():
    """Unions of planted and proper graphs, past the oracle: the cpcp search
    agrees with the deletion DP run on the whole union."""
    from copack.bdd import bdd_dp_solve
    from copack.decomp import decomposition_for, to_nice
    from copack.generators import proper_graph

    for seed in range(6):
        g = disjoint_union(planted_graph(30 + 4 * seed, 3 + seed % 3, seed), proper_graph(12 + 2 * seed, seed),
                           planted_graph(20, 2 + seed % 2, seed + 50))
        m = bdd_dp_solve(g, to_nice(decomposition_for(g)), 2)[0]
        out = solve_cpcp(g, m)
        assert out.answer and len(out.witness) <= m and verify(g, out.witness, "cpcp"), (seed, m)
        assert len(solve_cpcp(g, g.alive_count, exact=True).witness) == m, (seed, m)
        assert not solve_cpcp(g, m - 1).answer, (seed, m)


def test_five_cliques_branch_once_each():
    """Five disjoint K7 at k = 19, one below their minimum 20: each clique is
    solved on its own, so the search branches at most once per clique."""
    g = disjoint_union(*[complete_graph(7)] * 5)
    out = solve_cpcp(g, 19)
    assert not out.answer and out.stats.nodes <= 5
    assert solve_cpcp(g, 20).answer


def test_equal_components_share_a_memo_entry():
    """Equal components in sibling branches are answered from the memo."""
    g = planted_graph(200, 20, 3)
    out = solve_cpcp(g, g.alive_count, exact=True)
    assert len(out.witness) == 15 and out.stats.memo_hits > 0


def test_claw_bound_changes_no_answer_past_oracle(monkeypatch):
    """planted(n, k, s) past the oracle, n = 40-150: the search with the
    claw bound and with it disabled reads the same exact minima and the same
    answers at the minimum and one below, for cpcp and cpp, and every
    witness verifies."""
    cases = [(n, k, s) for s, n in enumerate(range(40, 160, 10)) for k in (n // 20, n // 12)]
    solvers = (("cpcp", lambda g, k, s, exact=False: solve_cpcp(g, k, exact)),
               ("cpp", lambda g, k, s, exact=False: solve_cpp(g, k, seed=s, exact=exact)))
    claw_packing = graphlib.claw_packing
    read = {}
    prunes = 0
    for bound in (True, False):
        monkeypatch.setattr(graphlib, "claw_packing", claw_packing if bound else lambda g: 0)
        for n, k, s in cases:
            g = planted_graph(n, k, s)
            for problem, solve in solvers:
                exact = solve(g, g.alive_count, s, exact=True)
                outs = [exact, solve(g, exact.size, s), solve(g, exact.size - 1, s)]
                for out in outs:
                    assert out.witness is None or len(out.witness) == out.size and verify(g, out.witness, problem)
                read.setdefault((n, k, s, problem), []).append((exact.size, [out.answer for out in outs]))
                prunes += sum(out.stats.bound_prunes for out in outs)
    for key, (shipped, unpruned) in read.items():
        assert shipped == unpruned and shipped[1] == [True, True, False], key
    assert prunes > 0


def test_claw_bound_settles_p200_cpp():
    """p200 at cpp: the claw bound refutes k = 14 in a few dozen branch
    nodes (2,246 without it), and k = 15 finds a verified 15-vertex witness."""
    g = planted_graph(200, 20, 3)
    no = solve_cpp(g, 14)
    assert not no.answer and no.stats.nodes < 100 and no.stats.bound_prunes > 0
    yes = solve_cpp(g, 15)
    assert yes.answer and len(yes.witness) == 15 and verify(g, yes.witness, "cpp")
