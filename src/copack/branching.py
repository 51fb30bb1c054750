"""Branch-and-search for co-path/cycle packing and co-path packing.

One depth-first branch and bound serves both problems: it runs the
reductions to a fixpoint at every node, solves the components left one at a
time, refutes any whose claw packing exceeds its budget, fires the first
applicable branching step on each, whose children are the vertex sets they
delete, and hands proper cpcp components to the deletion DP. Every path
packing is a path/cycle packing, so for cpp an exact cpcp search of the
component gives a floor: it refutes the component, settles it when its
witness leaves no cycle, and otherwise, where no step applies, the
component branches on the shortest cycle that witness leaves, which every
solution must hit. Besides deleting trivial components, each small one at
the cost a bounded table keyed by its shape holds, cpcp reduces with three
local rules and cpp with two: for cpcp the removal of every edge joining
two degree-<=2 vertices, which drops the vertices it isolates at once, and
the triangle rule; for cpp the contraction of a degree-2 vertex whose
neighbors both have degree <= 2; and for both the deletion of each
degree->=5 vertex that can be swapped for the neighbors a solution takes.
At either fixpoint every degree-2 vertex has a neighbor of degree >= 3, as
a proper graph needs.
Cases the earlier fixpoints provably rule out raise InternalSolverError: a
silent fallback there would mask a broken reduction, not recover from one.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from itertools import combinations

from . import decomp, graph as graphlib
from .bdd import bdd_dp_solve
from .errors import InternalSolverError
from .graph import Graph
from .oracles import min_deletion_bits, verify


class Instance:
    __slots__ = ("graph", "k", "deleted", "changed")

    def __init__(self, graph: Graph, k: int, deleted: set[int], changed: set[int] | None = None):
        self.graph = graph
        self.k = k
        self.deleted = deleted
        # the vertices whose neighbor sets changed since the graph was last at
        # the reduction fixpoint, or None for a graph never reduced
        self.changed = changed


class BranchSet:
    """A branching step: each child deletes a vertex set, and its size is
    the child's budget decrement."""

    __slots__ = ("rule", "children")

    def __init__(self, rule: str, children: list[frozenset]):
        self.rule = rule
        self.children = children


class SolveStats:
    """A solve's counters; `vars` lists them in this order."""

    def __init__(self, nodes: int = 0, reductions: int = 0, dp_calls: int = 0, cc_calls: int = 0,
                 width: int = -1, repeats: int = 0, guard_rejects: int = 0, bound_prunes: int = 0,
                 memo_hits: int = 0):
        self.nodes = nodes
        self.reductions = reductions
        self.dp_calls = dp_calls
        self.cc_calls = cc_calls
        self.width = width
        self.repeats = repeats
        self.guard_rejects = guard_rejects
        self.bound_prunes = bound_prunes
        self.memo_hits = memo_hits

    def __eq__(self, other):
        return vars(self) == vars(other) if type(other) is SolveStats else NotImplemented

    def __repr__(self):
        return "SolveStats(%s)" % ", ".join("%s=%r" % kv for kv in vars(self).items())


class SolveOutcome(namedtuple("SolveOutcome", "answer witness size stats")):
    """A solve's answer, its witness or None, the deletion set's size on yes
    (the minimum in exact mode) or None, and its SolveStats."""

    __slots__ = ()


def _branch(rule: str, sets, expected) -> BranchSet:
    """The branch set deleting each of `sets`, whose sizes must be the
    decrements `expected` (as a multiset)."""
    children = [frozenset(s) for s in sets]
    assert all(children)
    got = sorted(map(len, children))
    if got != sorted(expected):
        raise InternalSolverError("branch decrements %s, expected %s" % (got, expected))
    return BranchSet(rule, children)


# ------------------------------------------------------------ branching rules


def branch_b1(g: Graph, v: int) -> BranchSet:
    """Delete v, or keep it and delete all but one pair of its neighbors."""
    if g.degree(v) < 3:
        raise ValueError("B1 needs degree >= 3, vertex %d has %d" % (v, g.degree(v)))
    nbrs = sorted(g.neighbors(v))
    sets = [{v}]
    for u, w in combinations(nbrs, 2):
        sets.append(set(nbrs) - {u, w})
    d = len(nbrs)
    return _branch("b1", sets, [1] + [d - 2] * (d * (d - 1) // 2))


def branch_b2(g: Graph, v: int, u: int) -> BranchSet:
    """v dominates u: delete v, or keep both and delete all but one other neighbor."""
    if g.degree(v) < 3:
        raise ValueError("B2 needs degree >= 3, vertex %d has %d" % (v, g.degree(v)))
    if not g.dominates(v, u):
        raise ValueError("vertex %d does not dominate %d" % (v, u))
    nbrs = sorted(g.neighbors(v))
    sets = [{v}]
    for w in nbrs:
        if w != u:
            sets.append(set(nbrs) - {u, w})
    d = len(nbrs)
    return _branch("b2", sets, [1] + [d - 2] * (d - 1))


# ------------------------------------------------------------------ reductions


# The actions below return how many reductions they count, the vertices
# left whose neighbor sets they changed, and how many isolated vertices they
# removed: trivial components the last trivial pass of the reduction would
# have counted, so they count only if the budget holds to the end.


def _delete(inst: Instance, removed, deleted):
    """Remove `removed` from the graph, of which `deleted` go into the solution."""
    changed = inst.graph.remove_vertices(removed)
    inst.deleted.update(deleted)
    inst.k -= len(deleted)
    return 1, changed, 0


def _delete_each(inst: Instance, xs):
    """Delete each vertex of xs into the solution, one reduction apiece."""
    return len(xs), _delete(inst, xs, xs)[1], 0


def _smooth(inst: Instance, path):
    """Replace the path a - mid - b by the edge a - b."""
    a, mid, b = path
    inst.graph.remove_vertex(mid)
    inst.graph.add_edge(a, b)
    return 1, (a, b), 0


def _remove_edges(inst: Instance, edges):
    """Remove each edge, one reduction apiece, and drop the ends left
    isolated."""
    adj = inst.graph._adj
    for u, v in edges:
        adj[u].remove(v)
        adj[v].remove(u)
    ends = {v for e in edges for v in e}
    isolated = [v for v in ends if not adj[v]]
    for v in isolated:
        del adj[v]
    return len(edges), ends.difference(isolated), len(isolated)


# Local reduction rules per problem, in firing order: (finder, action on the
# instance given the finder's witness). Both end with the swap rule, which
# deletes only vertices of degree >= 5, so it pre-empts only step 1: steps
# 2-5 and the proper leaves meet no shape they did not meet without it.
_REDUCTIONS = {
    "cpcp": (
        # drop every edge joining two degree-<=2 vertices, and the vertices
        # that leaves isolated: removing one only lowers degrees that are
        # already <= 2, so the others stay eligible and no new one appears
        (graphlib.low_degree_edges, _remove_edges),
        # a triangle with a single outside neighbor x: delete x, and the
        # triangle itself then costs nothing
        (graphlib.find_triangle_single_neighbor, lambda inst, tri: _delete(inst, tri, tri[3:])),
        # delete every degree->=5 vertex whose deletion can stand in for that
        # of the neighbors a solution takes; see swappable_vertices
        (lambda g, scan=None: graphlib.swappable_vertices(g, 3, scan), _delete_each),
    ),
    "cpp": (
        # contract a degree-2 vertex whose neighbors a, b have degree <= 2 and
        # are not adjacent into the edge a - b: a deletion set of the smaller
        # graph leaves paths in this one too, so witnesses lift as they are,
        # and one of this graph that takes mid can take a instead
        (graphlib.find_contractible, _smooth),
        # as for cpcp, with neighbors of degree <= 2 only, so each one put
        # back is a leaf and closes no cycle
        (lambda g, scan=None: graphlib.swappable_vertices(g, 2, scan), _delete_each),
    ),
}


@lru_cache(maxsize=1 << 12)
def _shape_cut(acyclic: bool, masks: tuple) -> tuple:
    """The positions min_deletion_set deletes from a component of at most
    TRIVIAL_COMPONENT_SIZE vertices, given its neighbor bitmasks over its
    vertices in id order. Searches meet the same small shapes (triangles,
    cliques) over and over, so each is enumerated once while the table
    holds it."""
    return min_deletion_bits(masks, 2, acyclic)


def _trivial_cut(g: Graph, comp, acyclic: bool):
    """A least deletion set of comp, a trivial component of g: none if it
    has maximum degree <= 2 and, for co-path packing, is a path (degree sum
    2(n - 1)); else, up to TRIVIAL_COMPONENT_SIZE vertices, the set
    min_deletion_set returns, looked up by shape; a longer cycle costs one
    deletion for co-path packing and none for co-path/cycle packing."""
    adj = g._adj
    total = 0
    for v in comp:  # stops at the first degree above 2: a clique costs one lookup
        d = len(adj[v])
        if d > 2:
            break
        total += d
    else:
        if not acyclic or total == 2 * len(comp) - 2:
            return ()
    if len(comp) <= graphlib.TRIVIAL_COMPONENT_SIZE:
        verts = sorted(comp)
        bit = {v: 1 << i for i, v in enumerate(verts)}
        masks = tuple(sum(map(bit.__getitem__, adj[v])) for v in verts)
        return tuple(verts[i] for i in _shape_cut(acyclic, masks))
    return comp[:1] if acyclic else ()


def _delete_trivial_components(inst: Instance, acyclic: bool, stats: SolveStats, scan=None):
    """Delete every trivial component through a vertex of scan (None: every
    one) at its minimum cost."""
    comps = graphlib.find_trivial_components(inst.graph, scan)
    if comps:
        adj = inst.graph._adj
        for comp in comps:
            cut = _trivial_cut(inst.graph, comp, acyclic)
            inst.deleted.update(cut)
            inst.k -= len(cut)
            for v in comp:  # a whole component: no set outside it holds v
                del adj[v]
        stats.reductions += len(comps)


def _reduce(inst: Instance, problem: str, stats: SolveStats) -> Instance:
    """Delete the trivial components, fire the first applicable local rule
    until none applies or the budget runs out, then delete the components
    the rules left trivial. A local rule acts inside one component and only
    shrinks it, so this is the fixpoint that deletes trivial components as
    they appear. The cpcp edge rule leaves thousands of isolated vertices
    on a large forest, so it drops them itself; each counts as the trivial
    component the last pass would have deleted, which happens only if the
    budget holds.

    Every trivial component and every new witness of a local rule holds a
    vertex whose neighbor set changed, so the first trivial pass walks out
    from inst.changed, the last from the vertices the rules changed, and
    each rule scans only the vertices changed since it last came up empty
    (inst.changed at first; None scans all)."""
    acyclic = problem == "cpp"
    _delete_trivial_components(inst, acyclic, stats, inst.changed)
    rules = _REDUCTIONS[problem]
    scans = [None if inst.changed is None else set(inst.changed) for _ in rules]
    touched = set()
    isolated = 0
    while inst.k >= 0:
        for i, (find, act) in enumerate(rules):
            found = find(inst.graph, scans[i])
            if found is not None:
                count, changed, dropped = act(inst, found)
                stats.reductions += count
                isolated += dropped
                touched.update(changed)
                for scan in scans:
                    if scan is not None:
                        scan.update(changed)
                break
            scans[i] = set()
        else:
            break
    if inst.k >= 0:
        stats.reductions += isolated
        if touched:
            _delete_trivial_components(inst, acyclic, stats, touched)
    return inst


def reduce_cpcp(inst: Instance, stats: SolveStats | None = None) -> Instance:
    """Fixpoint of the co-path/cycle packing reductions, in place: no
    trivial component is left unless the budget ran out."""
    return _reduce(inst, "cpcp", stats or SolveStats())


def reduce_cpp(inst: Instance, stats: SolveStats | None = None) -> Instance:
    """Fixpoint of the co-path packing reductions, in place, as in
    reduce_cpcp."""
    return _reduce(inst, "cpp", stats or SolveStats())


# ------------------------------------------------------------------- steps


def _triangle_sets(g: Graph, v: int, u1: int, u2: int) -> list[set[int]]:
    """Degree-4 v in the triangle {v, u1, u2}: delete v, or keep it with two
    of its neighbors, any pair but {u1, u2}, which closes the triangle, and
    delete the other two."""
    u3, u4 = [x for x in sorted(g.neighbors(v)) if x not in (u1, u2)]
    return [{v}, {u1, u2}, {u1, u3}, {u1, u4}, {u2, u3}, {u2, u4}]


def step3_children(g: Graph, v: int, u1: int, u2: int) -> BranchSet:
    """Degree-4 v in a heavy triangle {v, u1, u2}: the keep-the-triangle
    branch must delete its whole outside neighborhood."""
    outside = g.neighborhood_of((v, u1, u2))
    if len(outside) < 4:
        raise InternalSolverError("triangle is not heavy: |N| = %d" % len(outside))
    return _branch("step3", _triangle_sets(g, v, u1, u2) + [outside],
                   [1, 2, 2, 2, 2, 2, len(outside)])


def step4_children(g: Graph, v: int, u1: int, u2: int) -> BranchSet:
    """Degree-4 v in a (non-heavy) triangle {v, u1, u2}.

    The earlier fixpoints force the triangle's outside neighborhood to be
    exactly {u3, u4, u5}; the partner degrees then admit only a handful of
    shapes, each with a dedicated improved branch set.
    """
    nbrs = sorted(g.neighbors(v))
    u3, u4 = [x for x in nbrs if x not in (u1, u2)]
    outside = g.neighborhood_of((v, u1, u2))
    if len(outside) != 3:
        raise InternalSolverError(
            "triangle outside neighborhood has size %d; earlier rules make"
            " anything but 3 impossible here" % len(outside)
        )
    extra = outside - {u3, u4}
    if len(extra) != 1:
        raise InternalSolverError("no single third outside vertex: %s" % sorted(extra))
    u5 = extra.pop()
    d1, d2 = g.degree(u1), g.degree(u2)

    if 4 in (d1, d2):
        # Case 1: renumber so u1 is the degree-4 partner.
        if d1 != 4:
            u1, u2 = u2, u1
            d1, d2 = d2, d1
        if u5 not in g._adj[u1]:
            raise InternalSolverError("degree-4 partner not adjacent to the third outside vertex")
        inner = [x for x in (u3, u4) if x in g._adj[u1]]
        if len(inner) != 1:
            raise InternalSolverError("degree-4 partner adjacent to %d of the two other neighbors" % len(inner))
        u3 = inner[0]
        u4 = (set(nbrs) - {u1, u2, u3}).pop()
        da, db = g.degree(u2), g.degree(u3)
        if (da, db) == (2, 2):
            # v dominates both degree-2 vertices: delete v, or keep all three
            # and delete the remaining neighbors.
            return _branch("step4_case1.1", [{v}, {u1, u4}], [1, 2])
        if (da, db) == (4, 4):
            if u3 not in g._adj[u2]:
                raise InternalSolverError(
                    "closed six-vertex component survived the trivial-component pass"
                )
            raise InternalSolverError("degree-4 partner dominated; the domination step must fire first")
        raise InternalSolverError("partner degrees (%d, %d) are impossible here" % (da, db))

    if d1 == 3 and d2 == 3:
        # Case 2: both partners degree 3; they must share their third neighbor.
        z1 = g._adj[u1] - {v, u2}
        z2 = g._adj[u2] - {v, u1}
        if len(z1) != 1 or z1 != z2 or z1 != {u5}:
            raise InternalSolverError("degree-3 partners must both attach to the third outside vertex")
        d5 = g.degree(u5)
        pair_sets = [set(nbrs) - set(pair) for pair in combinations(nbrs, 2)]
        if d5 == 2:
            raise InternalSolverError("triangle with one outside neighbor survived reduction")
        if d5 == 3:
            z = (g._adj[u5] - {u1, u2}).pop()
            return _branch("step4_case2.2", [{v, z}] + pair_sets, [2] + [2] * 6)
        if d5 == 4:
            za, zb = sorted(g._adj[u5] - {u1, u2})
            return _branch("step4_case2.3", [{v, u5}, {v, za, zb}] + pair_sets, [2, 3] + [2] * 6)
        raise InternalSolverError("third outside vertex has degree %d" % d5)

    if sorted((d1, d2)) == [2, 3]:
        # Not covered by the two shapes above: the degree-2 partner has both
        # neighbors inside the triangle, so v dominates it and the domination
        # branch applies with factor 2.3028.
        low = u1 if d1 == 2 else u2
        if not g.dominates(v, low):
            raise InternalSolverError("degree-2 triangle partner must be dominated by v")
        return BranchSet("step4_dominated_deg2", branch_b2(g, v, low).children)

    if (d1, d2) == (2, 2):
        raise InternalSolverError("adjacent degree-2 pair survived the edge reduction")
    raise InternalSolverError("partner degrees (%d, %d) are impossible here" % (d1, d2))


def step5_children(g: Graph, v: int, u1: int) -> BranchSet:
    """Degree-4 v (in no triangle) adjacent to u1 of degree >= 3: nested
    branching on v then u1."""
    nbrs = sorted(g.neighbors(v))
    others = [x for x in nbrs if x != u1]
    d1 = g.degree(u1)
    if d1 not in (3, 4):
        raise InternalSolverError("step-5 partner has degree %d" % d1)
    n1 = sorted(g._adj[u1] - {v})
    if set(n1) & set(nbrs):
        raise InternalSolverError("degree-4 vertex still sits in a triangle")
    sets = [{v}]
    for x in others:
        sets.append({u1, x})
    for pair in combinations(others, 2):
        for w in n1:
            sets.append(set(pair) | (set(n1) - {w}))
    return _branch("step5", sets, [1, 2, 2, 2] + [d1] * (3 * (d1 - 1)))


def step_star3_children(g: Graph, v: int, u1: int, u2: int) -> BranchSet:
    """Degree-4 v in any triangle, co-path packing: the branch keeping the
    whole triangle can never lead to a path packing, so it is dropped."""
    return _branch("step*3", _triangle_sets(g, v, u1, u2), [1, 2, 2, 2, 2, 2])


# Branching steps per problem, in priority order: (finder, function making
# the branch set from the finder's witness, rule name to report or None to
# keep the one it sets).
_STEPS = {
    "cpcp": (
        (graphlib.find_degree_ge5, branch_b1, "step1"),
        (graphlib.find_dominating_deg4, branch_b2, "step2"),
        (graphlib.find_deg4_heavy_triangle, step3_children, None),
        (graphlib.find_deg4_in_triangle, step4_children, None),
        (graphlib.find_deg4_adjacent_deg3, step5_children, None),
    ),
    "cpp": (
        (graphlib.find_degree_ge5, branch_b1, "step1"),
        (graphlib.find_dominating_deg4, branch_b2, "step2"),
        (graphlib.find_deg4_in_triangle, step_star3_children, None),
        (graphlib.find_deg4_adjacent_deg3, step5_children, "step*4"),
    ),
}


def _pick_step(g: Graph, problem: str) -> BranchSet | None:
    """The first step of `problem` that applies to g, or None on a leaf."""
    for find, build, rule in _STEPS[problem]:
        found = find(g)
        if found:
            bs = build(g, *found)
            if rule is not None:
                bs.rule = rule
            return bs
    return None


# -------------------------------------------------------------------- search


def _cycles_left(g: Graph, wit) -> list[list[int]]:
    """The cycles g leaves once the cpcp witness wit is deleted, each as its
    sorted vertices, shortest first."""
    h = g.without_vertices(wit)
    cycles = [comp for comp in h.components() if all(len(h._adj[v]) == 2 for v in comp)]
    return sorted(cycles, key=len)


def _drive(frame):
    """Run a search frame to its return value. A frame is a generator that
    yields the frames it needs solved and is sent back their return values;
    one loop runs them all off an explicit stack, so the depth of the search
    never reaches the interpreter's stack."""
    stack = [frame]
    value = None
    while True:
        try:
            sub = stack[-1].send(value)
        except StopIteration as done:
            stack.pop()
            if not stack:
                return done.value
            value = done.value
        else:
            stack.append(sub)
            value = None


class _Search:
    """Depth-first branch and bound over components, for one solve.

    A frame returns (size, witness) for a deletion set within its cap, or
    None when there is none; in exact mode the size is the minimum.
    Each connected graph is memoized for the length of the solve, keyed by
    its edges: ids are stable, so equal subgraphs in sibling branches share
    an entry. An entry is its minimum with a witness, or a cap the minimum
    is known to exceed. A cpp search owns the cpcp search of its floors,
    which shares its stats and keeps its own memo for the solve.
    """

    def __init__(self, problem: str, stats: SolveStats):
        self.problem = problem
        self.reduce = reduce_cpcp if problem == "cpcp" else reduce_cpp
        self.stats = stats
        self.minima: dict[bytes, tuple] = {}  # edge key -> (minimum, witness)
        self.above: dict[bytes, int] = {}  # edge key -> a cap the minimum exceeds
        # cpp's floor: one exact cpcp search, its memo kept for the solve
        self.floor = _Search("cpcp", stats) if problem == "cpp" else None

    def solve(self, g: Graph, k: int, exact: bool = False):
        """(size, witness) for a deletion set of g of size <= k, the least
        one in exact mode, or None when there is none."""
        return _drive(self.node(Instance(g.copy(), k, set()), exact))

    def node(self, inst: Instance, exact: bool):
        """Reduce inst in place, which deletes every trivial component, then
        solve the components left smallest first, each capped by the budget
        the others leave. Every component but the last gets its minimum; the
        last, in a decision, only a first yes."""
        self.reduce(inst, self.stats)
        if inst.k < 0:
            return None
        parts = inst.graph.split()
        size, wit = len(inst.deleted), inst.deleted
        left = inst.k
        parts.sort(key=lambda h: h.alive_count)
        for i, part in enumerate(parts):
            # every component left has a vertex of degree >= 3, so each one
            # still to come costs at least 1
            later = len(parts) - 1 - i
            found = yield self.component(part, left - later, exact or later > 0)
            if found is None:
                return None
            size += found[0]
            left -= found[0]
            wit = wit | found[1]
        return size, wit

    def component(self, g: Graph, cap: int, exact: bool):
        """Solve the connected, reduced graph g within cap. A claw packing
        larger than cap refutes it outright. A branch node runs a child only
        if it can beat the best found so far; a decision stops at its first
        yes.

        For cpp an exact cpcp search of g within cap then gives the floor,
        where no step applies, and where one does only if cpcp's low-degree
        edge rule finds an edge to drop: without one the cpcp search mostly
        repeats the steps cpp is about to branch on. A floor above cap
        refutes g, and one whose witness leaves no cycle is g's cpp minimum.
        Otherwise the witness with one vertex of each cycle it leaves is an
        incumbent, and where no step applies g branches on the shortest of
        those cycles: one child per vertex, each deleting it. So only cpcp
        reaches the deletion DP leaf."""
        if cap < 0:
            return None
        key = g.edge_key()
        known = self.minima.get(key)
        if known is not None or self.above.get(key, -1) >= cap:
            self.stats.memo_hits += 1
            return known if known is not None and known[0] <= cap else None
        if graphlib.claw_packing(g) > cap:
            self.stats.bound_prunes += 1
            self.above[key] = cap
            return None
        bs = _pick_step(g, self.problem)
        best, floor = None, -1
        if self.floor is not None and (bs is None or graphlib.low_degree_edges(g)):
            found = yield self.floor.node(Instance(g.copy(), cap, set()), True)
            if found is None:
                self.above[key] = cap
                return None
            floor, wit = found
            cycles = _cycles_left(g, wit)
            if not cycles:
                self.minima[key] = found
                return found
            if floor + len(cycles) <= cap:
                best = floor + len(cycles), wit | {c[0] for c in cycles}
                if not exact:
                    return best
                cap = best[0] - 1
            if bs is None:
                bs = BranchSet("cycle", [frozenset((v,)) for v in cycles[0]])
        if bs is None:
            best = self.leaf(g, cap)
        else:
            self.stats.nodes += 1
            for ch in bs.children:
                if len(ch) > cap:
                    continue
                child = Instance(g.without_vertices(ch), cap - len(ch), set(ch), g.neighborhood_of(ch))
                found = yield self.node(child, exact)
                if found is not None:
                    best, cap = found, found[0] - 1
                    if not exact or found[0] == floor:
                        break
        if best is None:
            self.above[key] = cap
        elif exact:
            self.minima[key] = best
        return best

    def leaf(self, g: Graph, cap: int):
        """A proper graph, for cpcp: past the guard, the deletion DP's
        minimum with its witness."""
        if not decomp.is_proper(g):
            raise InternalSolverError("branching left a non-proper graph: %s" % (g.edges(),))
        if not decomp.guard_check(g, cap):
            self.stats.guard_rejects += 1
            return None
        events = decomp.to_nice(decomp.decomposition_for(g))
        self.stats.width = max(self.stats.width, events.width)
        self.stats.dp_calls += 1
        size, wit = bdd_dp_solve(g, events, 2)
        return (size, wit) if size <= cap else None


def _solve(problem: str, g: Graph, k: int, exact: bool) -> SolveOutcome:
    stats = SolveStats()
    found = _Search(problem, stats).solve(g, k, exact) if k >= 0 else None
    if found is None:
        return SolveOutcome(False, None, None, stats)
    size, wit = found
    if size > k or size != len(wit) or not verify(g, wit, problem):
        raise InternalSolverError("produced witness fails verification")
    return SolveOutcome(True, wit, size, stats)


def solve_cpcp(g: Graph, k: int, exact: bool = False) -> SolveOutcome:
    """Decide whether deleting at most k vertices leaves maximum degree <= 2;
    on yes, return a verifying deletion set of size <= k, a minimum one if
    exact."""
    return _solve("cpcp", g, k, exact)


def solve_cpp(g: Graph, k: int, exact: bool = False) -> SolveOutcome:
    """Decide whether deleting at most k vertices leaves disjoint paths; on
    yes, return a verifying deletion set of size <= k, a minimum one if
    exact. Components settle on the cpcp floor or branch on the cycles its
    witness leaves."""
    return _solve("cpp", g, k, exact)
