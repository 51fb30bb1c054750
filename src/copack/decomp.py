"""Path decompositions: validation, nice event form, exact and heuristic
width, and the hub layout that decomposition_for gives every leaf DP.

decomposition_for lays out each component through its hub graph, whose
vertices are the vertices of degree >= 3 and whose edges are their edges and
the chains of degree-<=2 vertices between them. The hub graph is small on
the sparse graphs the solvers leave at their leaves, so it is laid out
exactly when it has at most EXACT_PATHWIDTH_LIMIT vertices, and the chains
are put back next to their hubs."""

from __future__ import annotations

import heapq

from .dimacs import check_count, read_lines
from .errors import GraphFormatError, SizeLimitError
from .graph import Graph

EXACT_PATHWIDTH_LIMIT = 22


class PathDecomposition:
    """Ordered bag list X1..Xr over a host graph's alive vertices."""

    __slots__ = ("bags",)

    def __init__(self, bags):
        self.bags = [frozenset(b) for b in bags]

    @property
    def width(self) -> int:
        return max((len(b) for b in self.bags), default=0) - 1

    def __repr__(self):
        return "PathDecomposition(%r)" % ([sorted(b) for b in self.bags],)


class Violation(ValueError):
    """Decomposition property prop fails at witness, a vertex or, for P2, an
    edge. P1: the bags hold exactly the graph's vertices; P2: some bag holds
    both ends of each edge; P3: each vertex's bags are consecutive."""

    def __init__(self, prop: str, witness: tuple):
        where = "edge (%d, %d)" % witness if prop == "P2" else "vertex %d" % witness
        super().__init__("%s fails at %s" % (prop, where))
        self.prop = prop
        self.witness = witness


def validate(g: Graph, pd: PathDecomposition):
    """None when all three decomposition properties hold, else the
    Violation of the first fault in walk order."""
    try:
        for _ in to_nice(pd).walk(g):
            pass
    except Violation as bad:
        return bad
    return None


class NiceEventSequence:
    """Introduce/forget event list; replaying it yields bags that grow or
    shrink by exactly one vertex and start/end empty."""

    __slots__ = ("events", "width")

    def __init__(self, events, width):
        self.events = list(events)
        self.width = width

    def walk(self, g: Graph):
        """Replay the events over g, yielding (op, v, slot, bag): bag maps each
        vertex of the bag before the event to its slot, valid until the next
        step, and slot is v's. A vertex keeps its slot from its introduce to
        its forget; an introduce takes the slot forgotten last, or len(bag)
        when none is free, so slots stay below the largest bag size. Raises
        Violation at the first broken property: P1 for a dead vertex or an
        alive one never introduced, P2 for an introduce after a neighbor's
        forget, P3 for a second introduce. Raises ValueError on a forget
        outside the bag, an unknown op or a nonempty final bag."""
        bag: dict[int, int] = {}
        free: list[int] = []  # slots of forgotten vertices, the last on top
        introduced: set[int] = set()
        forgotten: set[int] = set()
        for op, v in self.events:
            if not g.is_alive(v):
                raise Violation("P1", (v,))
            if op == "introduce":
                if v in introduced:
                    raise Violation("P3", (v,))
                missed = g._adj[v] & forgotten
                if missed:
                    u = min(missed)
                    raise Violation("P2", (min(u, v), max(u, v)))
                introduced.add(v)
                slot = free.pop() if free else len(bag)
                yield op, v, slot, bag
                bag[v] = slot
            elif op == "forget":
                slot = bag.get(v)
                if slot is None:
                    raise ValueError("vertex %d forgotten while not in bag" % v)
                yield op, v, slot, bag
                del bag[v]
                free.append(slot)
                forgotten.add(v)
            else:
                raise ValueError("unknown event %r" % (op,))
        if bag:
            raise ValueError("events leave a nonempty bag: %s" % sorted(bag))
        if g.alive_count != len(introduced):
            raise Violation("P1", (min(set(g.vertices()) - introduced),))


def to_nice(pd: PathDecomposition) -> NiceEventSequence:
    """Turn a bag list into events of identical width.

    Between consecutive bags the departing vertices are forgotten before the
    arriving ones are introduced, so no intermediate bag exceeds the larger
    of its two neighbors.
    """
    events = []
    prev: frozenset = frozenset()
    for bag in list(pd.bags) + [frozenset()]:
        for v in sorted(prev - bag):
            events.append(("forget", v))
        for v in sorted(bag - prev):
            events.append(("introduce", v))
        prev = bag
    return NiceEventSequence(events, pd.width)


# ----------------------------------------------------------- exact width
#
# Pathwidth equals the vertex separation number: minimize, over vertex
# layouts, the maximum number of placed vertices that still have an
# unplaced neighbor (the boundary). The search starts from the identity
# layout and asks, width by width, for a layout whose every prefix has a
# smaller boundary. Only prefix sets within that bound are visited, so the
# cost grows with the width rather than with 2^n.


def _separated_layout(adj_masks: list[int], cap: int, dead: bytearray):
    """Vertex indices in the first layout, in index order, whose every prefix
    has at most cap boundary vertices, or None.

    dead[s] is set for prefix sets s from which no such completion exists; a
    set dead at one cap is dead at every smaller one, so callers may share it.
    """
    n = len(adj_masks)
    full = (1 << n) - 1
    order: list[int] = []

    def extend(placed: int, boundary: int) -> bool:
        if placed == full:
            return True
        rest = full ^ placed
        free = rest
        while free:
            bit = free & -free
            free ^= bit
            t = placed | bit
            if dead[t]:
                continue
            outside = rest ^ bit
            v = bit.bit_length() - 1
            nb = boundary | bit if adj_masks[v] & outside else boundary
            # members whose last outside neighbor was v leave the boundary
            m = boundary & adj_masks[v]
            while m:
                low = m & -m
                m ^= low
                if not adj_masks[low.bit_length() - 1] & outside:
                    nb ^= low
            if nb.bit_count() > cap:
                continue
            order.append(v)
            if extend(t, nb):
                return True
            order.pop()
        dead[placed] = 1
        return False

    return order if extend(0, 0) else None


def exact_pathwidth(g: Graph):
    """(pathwidth, optimal decomposition) by a width-bounded layout search,
    whose cost grows with the width."""
    verts = g.vertices()
    n = len(verts)
    if n > EXACT_PATHWIDTH_LIMIT:
        raise SizeLimitError("exact pathwidth limited to %d vertices, got %d" % (EXACT_PATHWIDTH_LIMIT, n))
    pos = {v: i for i, v in enumerate(verts)}
    adj_masks = [sum(1 << pos[u] for u in g._adj[v]) for v in verts]
    pd = _layout_to_decomposition(g, verts)
    # pathwidth >= treewidth >= minimum degree
    lower = min((len(g._adj[v]) for v in verts), default=0)
    dead = bytearray(1 << n)
    while pd.width > lower:
        order = _separated_layout(adj_masks, pd.width - 1, dead)
        if order is None:
            break
        pd = _layout_to_decomposition(g, [verts[i] for i in order])
    return pd.width, pd


def _layout_to_decomposition(g: Graph, order: list[int]) -> PathDecomposition:
    """Bags from a vertex layout: placed vertices with unplaced neighbors, plus the newcomer."""
    unplaced = {v: len(g._adj[v]) for v in order}  # v's unplaced neighbors
    boundary: set[int] = set()  # placed vertices with an unplaced neighbor
    bags = []
    for v in order:
        bags.append(boundary | {v})
        for u in g._adj[v]:
            unplaced[u] -= 1
            if not unplaced[u]:
                boundary.discard(u)
        if unplaced[v]:
            boundary.add(v)
    return PathDecomposition(bags)


def heuristic_pd(g: Graph) -> PathDecomposition:
    """Greedy layout-based decomposition; always valid, no width guarantee.

    Each step places the vertex whose placing leaves the fewest placed
    vertices with an unplaced neighbor, the lowest id on ties. Placing a
    vertex changes that count only within distance 2 of it, so only those
    vertices are rescored."""
    adj = g._adj
    unplaced = {v: len(nb) for v, nb in adj.items()}  # v's unplaced neighbors
    placed: set[int] = set()

    def cost(v):
        # placing v joins v to the boundary if it has an unplaced neighbor,
        # and drops each placed neighbor whose last one it is
        return (unplaced[v] > 0) - sum(1 for u in adj[v] if unplaced[u] == 1 and u in placed)

    costs = {v: cost(v) for v in adj}
    heap = [(c, v) for v, c in costs.items()]
    heapq.heapify(heap)
    order = []
    while heap:
        c, v = heapq.heappop(heap)
        if v in placed or costs[v] != c:
            continue  # an entry left behind by a later rescore
        order.append(v)
        placed.add(v)
        near = set(adj[v])
        for u in adj[v]:
            unplaced[u] -= 1
            near |= adj[u]
        for w in near - placed:
            c = cost(w)
            if c != costs[w]:
                costs[w] = c
                heapq.heappush(heap, (c, w))
    return _layout_to_decomposition(g, order)


# ----------------------------------------------------------- hub layout
#
# A hub is a vertex of degree >= 3; a chain is a maximal run of vertices of
# degree <= 2. The hub graph keeps the hub-to-hub edges and gets one edge per
# chain joining two different hubs: a minor of the graph, so its pathwidth is
# no larger. Laying each chain out right after the later of its hubs keeps
# every bag at the hubs' bag there plus two chain vertices, so the layout is
# at most two wider than the hub graph's.


def _chain(adj, a: int, c: int):
    """(the chain from hub a's neighbor c, in walk order, and the hub it ends
    at, or None at a degree-1 end)."""
    chain, prev = [c], a
    while len(adj[c]) == 2:
        (nxt,) = adj[c] - {prev}
        if len(adj[nxt]) >= 3:
            return chain, nxt
        chain.append(nxt)
        prev, c = c, nxt
    return chain, None


def _hub_layout(h: Graph) -> list[int]:
    """Vertex layout of a connected graph: its hubs in the order of their
    first bag in the hub graph's decomposition (exact up to
    EXACT_PATHWIDTH_LIMIT hubs, greedy above), each followed by its chains
    to earlier hubs and then by its pendant chains and the cycles hanging
    off it alone. A graph without a hub, a path or a cycle, is laid out in
    walk order from an end or its least vertex."""
    adj = h._adj
    hubs = [v for v in adj if len(adj[v]) >= 3]
    if not hubs:
        order = [min((v for v in adj if len(adj[v]) < 2), default=min(adj))]
        while True:
            nxt = adj[order[-1]].difference(order[-2:])
            if not nxt or nxt == {order[0]}:
                return order
            order.append(min(nxt))
    hub_set = set(hubs)
    hub_graph = Graph.__new__(Graph)
    hub_graph.size = h.size
    hub_graph._adj = {v: adj[v] & hub_set for v in hubs}
    chains = []  # (one end hub, the other, the chain walked from the first)
    walked: set[int] = set()
    for a in hubs:
        for c in sorted(adj[a] - hub_set):
            if c in walked:
                continue  # walked from its other end
            chain, b = _chain(adj, a, c)
            walked.update(chain)
            b = a if b is None else b
            if b != a:
                hub_graph._adj[a].add(b)
                hub_graph._adj[b].add(a)
            chains.append((a, b, chain))
    pd = exact_pathwidth(hub_graph)[1] if len(hubs) <= EXACT_PATHWIDTH_LIMIT else heuristic_pd(hub_graph)
    first: dict[int, int] = {}
    for i, bag in enumerate(pd.bags):
        for v in bag:
            first.setdefault(v, i)
    hubs.sort(key=first.__getitem__)
    pos = {v: i for i, v in enumerate(hubs)}
    joins: dict[int, list] = {v: [] for v in hubs}  # chains to earlier hubs
    hanging: dict[int, list] = {v: [] for v in hubs}
    for a, b, chain in chains:
        if pos[a] > pos[b]:
            a, b, chain = b, a, chain[::-1]
        (hanging if a == b else joins)[b].append((a, chain))
    left = {v: len(nb) for v, nb in adj.items()}  # v's neighbors not yet laid out
    order = []

    def place(vs):
        for v in vs:
            order.append(v)
            for u in adj[v]:
                left[u] -= 1

    for b in hubs:
        place([b])
        todo = sorted(joins[b], key=lambda t: -pos[t[0]])
        while todo:
            # a chain that is its earlier hub's last neighbor goes first, so
            # that hub leaves the boundary at once; the last chain may be
            # b's, and is then walked from b's end
            a, chain = todo.pop(next((i for i, (a, _) in enumerate(todo) if left[a] == 1), 0))
            place(chain if left[a] == 1 or left[b] != 1 else chain[::-1])
        for _, chain in hanging[b]:
            place(chain)
    return order


def decomposition_for(g: Graph) -> PathDecomposition:
    """Each component's bags from its hub layout, concatenated: at most two
    wider than optimal when the hub graph gets the exact layout, as every
    component of up to EXACT_PATHWIDTH_LIMIT vertices does. Above that size
    the greedy decomposition of the whole component is kept instead when it
    is no wider, so no large component gets wider than the greedy makes it."""
    bags: list[frozenset] = []
    for h in g.copy().split():
        pd = _layout_to_decomposition(h, _hub_layout(h))
        if h.alive_count > EXACT_PATHWIDTH_LIMIT:
            greedy = heuristic_pd(h)
            if greedy.width <= pd.width:
                pd = greedy
        bags += pd.bags
    return PathDecomposition(bags)


# ----------------------------------------------------------- proper graphs


def is_proper(g: Graph) -> bool:
    """Max degree <= 4; degree-4 vertices have only degree-<=2 neighbors;
    every degree-2 vertex has a degree->=3 neighbor; components >= 6."""
    for v in g.vertices():
        d = len(g._adj[v])
        if d > 4:
            return False
        if d == 4 and any(len(g._adj[u]) > 2 for u in g._adj[v]):
            return False
        if d == 2 and all(len(g._adj[u]) < 3 for u in g._adj[v]):
            return False
    return all(len(c) >= 6 for c in g.components())


def guard_check(g: Graph, k: int) -> bool:
    """Fast no-instance test for proper graphs: any deletion set of size <= k
    forces |V| <= 100k and n3/6 + n4/3 <= 2k/3 (compared in integers as
    n3 + 2*n4 <= 4k), where ni counts the vertices of degree i."""
    weight = 0
    for nb in g._adj.values():
        d = len(nb)
        if d == 3:
            weight += 1
        elif d == 4:
            weight += 2
    return g.alive_count <= 100 * k and weight <= 4 * k


# ----------------------------------------------------------- text format
#
# Header `p pd <n_bags> <max_bag_size> <n_vertices>`, then one `b <index>
# <v1> <v2> ...` line per bag, vertices 1-based in files.


def write_decomposition(pd: PathDecomposition) -> str:
    n_bags = len(pd.bags)
    max_size = max((len(b) for b in pd.bags), default=0)
    n_verts = len(set().union(*pd.bags))
    lines = ["p pd %d %d %d" % (n_bags, max_size, n_verts)]
    for i, bag in enumerate(pd.bags, start=1):
        lines.append(" ".join(["b", str(i)] + [str(v + 1) for v in sorted(bag)]))
    return "\n".join(lines) + "\n"


def parse_decomposition(text: str) -> PathDecomposition:
    lines = read_lines(text, "p pd <n_bags> <max_bag_size> <n_vertices>", "b")
    header_ln, _, (n_bags, max_size, n_verts) = next(lines)
    bags = []
    for ln, _, nums in lines:
        if nums[:1] != [len(bags) + 1]:
            raise GraphFormatError("expected 'b %d <v1> <v2> ...'" % (len(bags) + 1), ln)
        if any(v < 1 for v in nums[1:]):
            raise GraphFormatError("vertices are 1-based", ln)
        bags.append(frozenset(v - 1 for v in nums[1:]))
    pd = PathDecomposition(bags)
    check_count(header_ln, "bags", n_bags, len(bags))
    check_count(header_ln, "vertices in the largest bag", max_size, pd.width + 1)
    check_count(header_ln, "vertices", n_verts, len(set().union(*bags)))
    return pd
