"""Branch-and-search for co-path/cycle packing and co-path packing.

One depth-first search serves both problems: it runs the reductions to a
fixpoint at every node, fires the first applicable branching step, whose
children are the vertex sets they delete, and hands proper graphs to the
decomposition DPs. Cases the earlier fixpoints provably rule out raise InternalSolverError: a
silent fallback there would mask a broken reduction, not recover from one.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from . import cutcount, decomp, graph as graphlib
from .bdd import bdd_dp_solve
from .errors import InternalSolverError
from .graph import Graph
from .oracles import min_deletion_set, verify


@dataclass
class Instance:
    graph: Graph
    k: int
    deleted: set[int]


@dataclass
class BranchSet:
    """A branching step: each child deletes a vertex set, and its size is
    the child's budget decrement."""

    rule: str
    children: list[frozenset]


@dataclass
class SolveStats:
    nodes: int = 0
    reductions: int = 0
    dp_calls: int = 0
    width: int = -1
    repeats: int = 0
    guard_rejects: int = 0

    def add(self, other: SolveStats):
        """Fold in another solve's counters: sums, and the widest leaf."""
        self.nodes += other.nodes
        self.reductions += other.reductions
        self.dp_calls += other.dp_calls
        self.width = max(self.width, other.width)
        self.repeats += other.repeats
        self.guard_rejects += other.guard_rejects


@dataclass
class SolveOutcome:
    answer: bool
    witness: set[int] | None
    stats: SolveStats


def _assert_decrements(children, expected):
    got = sorted(map(len, children))
    if got != sorted(expected):
        raise InternalSolverError("branch decrements %s, expected %s" % (got, expected))


def _branch(rule: str, sets, expected) -> BranchSet:
    """The branch set deleting each of `sets`, whose sizes must be the
    decrements `expected` (as a multiset)."""
    children = [frozenset(s) for s in sets]
    assert all(children)
    _assert_decrements(children, expected)
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


def _delete(inst: Instance, removed, deleted):
    """Remove `removed` from the graph, of which `deleted` go into the solution."""
    inst.graph.remove_vertices(removed)
    inst.deleted.update(deleted)
    inst.k -= len(deleted)


def _smooth(inst: Instance, a: int, mid: int, b: int):
    """Replace the path a - mid - b by the edge a - b."""
    inst.graph.remove_vertex(mid)
    inst.graph.add_edge(a, b)


# Local reduction rules per problem, in firing order: (finder, action on the
# instance given the finder's witness).
_REDUCTIONS = {
    "cpcp": (
        # drop edges joining two degree-<=2 vertices
        (graphlib.find_low_degree_edge, lambda inst, edge: inst.graph.remove_edge(*edge)),
        # a triangle with a single outside neighbor x: delete x, and the
        # triangle itself then costs nothing
        (graphlib.find_triangle_single_neighbor, lambda inst, tri: _delete(inst, tri, tri[3:])),
    ),
    "cpp": (
        # contract one interior vertex out of any all-degree-2 path with >= 3
        # interior vertices
        (graphlib.find_degree_two_path, lambda inst, path: _smooth(inst, *path[1:4])),
        # x - c1 - c2 - ...: some minimum solution intersects the chain in
        # nothing or exactly the vertex next to its anchor, so dropping c1
        # preserves the answer just like the long-path contraction
        (graphlib.find_pendant_chain, lambda inst, chain: _smooth(inst, *chain)),
    ),
}


def _delete_trivial_components(inst: Instance, acyclic: bool, stats: SolveStats):
    """Delete every small or cycle component at its minimum cost: subset
    enumeration up to TRIVIAL_COMPONENT_SIZE vertices; a longer cycle costs
    one deletion for co-path packing and none for co-path/cycle packing."""
    for comp in graphlib.find_trivial_components(inst.graph) or ():
        if len(comp) <= graphlib.TRIVIAL_COMPONENT_SIZE:
            cut = min_deletion_set(inst.graph, comp, 2, acyclic)
        else:
            cut = comp[:1] if acyclic else ()
        _delete(inst, comp, cut)
        stats.reductions += 1


def _reduce(inst: Instance, problem: str, stats: SolveStats) -> Instance:
    """Delete the trivial components, fire the first applicable local rule
    until none applies or the budget runs out, then delete the components it
    left trivial. A local rule acts inside one component and only shrinks it,
    so this is the fixpoint that deletes trivial components as they appear."""
    acyclic = problem == "cpp"
    _delete_trivial_components(inst, acyclic, stats)
    fired = False
    while inst.k >= 0:
        for find, act in _REDUCTIONS[problem]:
            found = find(inst.graph)
            if found is not None:
                act(inst, found)
                stats.reductions += 1
                fired = True
                break
        else:
            break
    if fired:
        _delete_trivial_components(inst, acyclic, stats)
    return inst


def reduce_cpcp(inst: Instance, stats: SolveStats | None = None) -> Instance:
    """Fixpoint of the co-path/cycle packing reductions, in place."""
    return _reduce(inst, "cpcp", stats or SolveStats())


def reduce_cpp(inst: Instance, stats: SolveStats | None = None) -> Instance:
    """Fixpoint of the co-path packing reductions, in place."""
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
# keep the one it sets, expected decrements or None).
_STEPS = {
    "cpcp": (
        (graphlib.find_degree_ge5, branch_b1, "step1", None),
        (graphlib.find_dominating_deg4, branch_b2, "step2", [1, 2, 2, 2]),
        (graphlib.find_deg4_heavy_triangle, step3_children, None, None),
        (graphlib.find_deg4_in_triangle, step4_children, None, None),
        (graphlib.find_deg4_adjacent_deg3, step5_children, None, None),
    ),
    "cpp": (
        (graphlib.find_degree_ge5, branch_b1, "step1", None),
        (graphlib.find_dominating_deg4, branch_b2, "step2", [1, 2, 2, 2]),
        (graphlib.find_deg4_in_triangle, step_star3_children, None, None),
        (graphlib.find_deg4_adjacent_deg3, step5_children, "step*4", None),
    ),
}


def _pick_step(g: Graph, problem: str) -> BranchSet | None:
    """The first step of `problem` that applies to g, or None on a leaf."""
    for find, build, rule, decrements in _STEPS[problem]:
        found = find(g)
        if found:
            bs = build(g, *found)
            if rule is not None:
                bs.rule = rule
            if decrements is not None:
                _assert_decrements(bs.children, decrements)
            return bs
    return None


# -------------------------------------------------------------------- search


def cpp_leaf(g: Graph, k: int, events, repeats: int, seed: int, stats: SolveStats) -> bool:
    """Cut & count at budget k with up to `repeats` weightings derived from
    `seed`; stops at the first yes and counts the runs it made into stats."""
    runs = cutcount.decide_cpp(g, k, events, repeats, seed)
    stats.repeats += runs or repeats
    return runs > 0


def _search(problem: str, root: Instance, stats: SolveStats, repeats: int, seed: int):
    """Depth-first search over the branch tree, children in branch-set
    order. The stack holds (parent, child) pairs; a child is copied out of
    its parent only when popped. A leaf is a proper graph, solved by the
    deletion DP (cpcp) or by cut & count (cpp) with weights from
    derive_seed(seed, i) at the i-th DP leaf, so stats must start at zero.
    Returns (answer, witness); the witness is None for cpp."""
    reduce = reduce_cpcp if problem == "cpcp" else reduce_cpp
    stack: list[tuple[Instance, frozenset | None]] = [(root, None)]
    while stack:
        parent, child = stack.pop()
        inst = parent if child is None else Instance(
            parent.graph.without_vertices(child), parent.k - len(child), parent.deleted | child)
        reduce(inst, stats)
        if inst.k < 0:
            continue
        g = inst.graph
        if g.alive_count == 0:
            return True, set(inst.deleted)
        bs = _pick_step(g, problem)
        if bs is not None:
            stats.nodes += 1
            stack.extend((inst, ch) for ch in reversed(bs.children) if len(ch) <= inst.k)
            continue
        if not decomp.is_proper(g):
            raise InternalSolverError("branching left a non-proper graph: %s" % (g.edges(),))
        if not decomp.guard_check(g, inst.k).ok:
            stats.guard_rejects += 1
            continue
        events = decomp.to_nice(decomp.decomposition_for(g))
        stats.dp_calls += 1
        stats.width = max(stats.width, events.width)
        if problem == "cpcp":
            size, wit = bdd_dp_solve(g, events, 2)
            if size <= inst.k:
                return True, inst.deleted | wit
        elif cpp_leaf(g, inst.k, events, repeats,
                      cutcount.derive_seed(seed, stats.dp_calls - 1), stats):
            return True, None
    return False, None


def solve_cpcp(g: Graph, k: int) -> SolveOutcome:
    """Decide whether deleting at most k vertices leaves maximum degree <= 2;
    on yes, return a verifying deletion set of size <= k."""
    stats = SolveStats()
    if k < 0:
        return SolveOutcome(False, None, stats)
    ans, wit = _search("cpcp", Instance(g.copy(), k, set()), stats, 0, 0)
    if ans and (len(wit) > k or not verify(g, wit, "cpcp")):
        raise InternalSolverError("produced witness fails verification")
    return SolveOutcome(ans, wit, stats)


def solve_cpp(g: Graph, k: int, repeats: int = 10, seed: int = 0) -> SolveOutcome:
    """Decide whether deleting at most k vertices leaves disjoint paths.

    Decision only. A yes is always correct; a no is wrong with probability at
    most (1/3)^repeats per cut & count leaf on yes-instances.
    """
    stats = SolveStats()
    if k < 0:
        return SolveOutcome(False, None, stats)
    ans, _ = _search("cpp", Instance(g.copy(), k, set()), stats, repeats, seed)
    return SolveOutcome(ans, None, stats)
