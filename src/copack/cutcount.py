"""Randomized decision procedure for co-path packing over a path decomposition.

The object counted is a "cc-candidate": an induced subgraph of maximum degree
2 together with a cut of its vertices into two sides with no crossing edge
(degree-0 vertices pinned to side one) and a set of marked side-one edges.
With a isolates, n vertices, e edges and m markers, only candidates whose
marker count equals the would-be component count n - e - a matter: among
them every cyclic or under-marked subgraph cancels in pairs (flipping the
side of one unmarked component keeps all four counts), so an odd count
certifies an induced linear forest. Random weights break ties between
solutions (otherwise two distinct solutions could also cancel), which is
where the one-sided error comes from.

Bag labels: deleted; kept degree-0 (side one by convention); kept degree-1 on
side one; kept degree-1 on side two; kept degree-2 (no further edges can
arrive, so the side no longer matters).

Keep rule. An introduced vertex v may always be deleted. It may be kept
unless that gives it more than two kept bag-neighbors, a degree-2 neighbor,
or neighbors on both sides. Kept, v takes its degree-1 neighbors' side, or
either side when every kept neighbor has degree 0 (whose side was only a
convention, so its first edge fixes it to v's). Each degree-0 neighbor
becomes degree-1 on v's side, each degree-1 neighbor becomes degree-2, and
v gets the label of its kept-neighbor count. delta moves by
#kept - 1 - #degree-0 neighbors, or by 0 when v keeps no neighbor. On side
one each subset of v's new edges may be marked, which raises delta by its
size and the weight by its edge weights. These moves depend on the bag
labels alone, so each introduce computes them once per distinct labelling.

The table is keyed (bag labels, delta, n_sat), where delta = m - (n - e - a)
and n_sat = min(n, need) for the decision's need = #vertices - k. Every
transition moves delta by a constant, and a state whose n_sat cannot reach
`need` with the vertices still to come is never stored. Pairs that cancel
share all four counts, so they share the folded key too.

A key is one int. Its low bits hold n_sat, in need.bit_length() bits; then
delta + N, for a graph of N vertices and E edges, in (N + E).bit_length()
bits, since every partial candidate has -n/2 <= delta <= m <= E; then one
3-bit label field per bag vertex, at the slot `walk` gives it from its
introduce to its forget. DEL is 0 and a free slot's field is 0, so a
deleted vertex leaves its parent's key unchanged and a forget clears one
field with an AND. A delta move is an addition at the delta field, and
n_sat counts up by adding 1. The keep moves of a labelling are precomputed
as (new labels, with v's ORed into its slot, + delta change), so a kept
vertex costs one addition per move. Each key maps to a Python int whose
bit w is the count's parity at weight w: toggling a count is an XOR,
adding a vertex or edge weight is a left shift of the whole int, and an
entry whose int reaches 0 is skipped by the next event, so no pass over
the table filters it. The DP returns the final table as {delta: bits} over
the candidates with n >= need; the decision reads delta 0.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .decomp import NiceEventSequence
from .graph import Graph

DEL, ISO, ONE1, ONE2, TWO = 0, 1, 2, 3, 4

_SEED_STRIDE = 0x9E3779B97F4A7C15


def derive_seed(master: int, counter: int) -> int:
    return (master * 6364136223846793005 + counter * _SEED_STRIDE + 1442695040888963407) & (
        (1 << 63) - 1
    )


@dataclass(frozen=True)
class WeightAssignment:
    """Independent uniform integer weights in [1, N] on vertices and edges,
    with N = 3 * (#vertices + #edges)."""

    vertex_weights: dict
    edge_weights: dict


def sample_weights(g: Graph, seed: int) -> WeightAssignment:
    verts = g.vertices()
    edges = g.edges()
    n_max = 3 * (len(verts) + len(edges))
    rng = random.Random(seed)
    vw = {v: rng.randint(1, n_max) for v in verts}
    ew = {e: rng.randint(1, n_max) for e in edges}
    return WeightAssignment(vw, ew)


def _keep(labels: int, slot: int, ew: dict, wv: int) -> list:
    """The keep rule's moves for the vertex of weight wv introduced at bag
    slot `slot` of the packed labelling `labels`, with edge weight ew[i]
    towards the bag-neighbor at slot i: (new packed labels, delta change,
    added weight) for each."""
    kept = [i for i in ew if labels >> 3 * i & 7 != DEL]
    ls = [labels >> 3 * i & 7 for i in kept]
    if len(kept) > 2 or TWO in ls or (ONE1 in ls and ONE2 in ls):
        return []
    dd = len(kept) - 1 - ls.count(ISO) if kept else 0
    sides = [s for s in (ONE1, ONE2) if s in ls] or ([ONE1, ONE2] if kept else [ONE1])
    moves = []
    for side in sides:
        base = labels | (ISO, side, TWO)[len(kept)] << 3 * slot
        for i, l in zip(kept, ls):
            base ^= (l ^ (side if l == ISO else TWO)) << 3 * i
        marked = [(base, dd, wv)]
        if side == ONE1:
            for i in kept:
                marked += [(nl, r + 1, w + ew[i]) for nl, r, w in marked]
        moves += marked
    return moves


def parity_dp(g: Graph, events: NiceEventSequence, weights: WeightAssignment, need: int) -> dict:
    """{delta: bits} over the cc-candidates with at least `need` kept
    vertices: bit w of bits is the parity of the number of such candidates
    with weight w and m - (n - e - a) = delta. Zero entries are dropped."""
    intro_left = g.alive_count  # the walk introduces each alive vertex once
    # key layout, low to high: n_sat, delta + off, one 3-bit field per bag label
    off = g.alive_count
    ns_bits = max(need, 0).bit_length()
    d_bits = (off + g.edge_count).bit_length()
    aux = ns_bits + d_bits
    ns_mask, d_mask, aux_mask = (1 << ns_bits) - 1, (1 << d_bits) - 1, (1 << aux) - 1
    table: dict = {off << ns_bits: 1}

    for op, v, slot, bag in events.walk(g):
        new: dict = {}
        if op == "introduce":
            intro_left -= 1
            floor = need - intro_left  # fewer kept vertices than this cannot reach need
            ew = {bag[u]: weights.edge_weights[(min(u, v), max(u, v))] for u in g._adj[v] if u in bag}
            wv = weights.vertex_weights[v]
            memo: dict = {}  # labels -> keep moves
            for key, bits in table.items():
                if not bits:
                    continue
                labels = key >> aux
                keeps = memo.get(labels)
                if keeps is None:
                    keeps = memo[labels] = [
                        ((nl << aux) + (dd << ns_bits), shift) for nl, dd, shift in _keep(labels, slot, ew, wv)
                    ]
                a = key & aux_mask
                ns = a & ns_mask
                if ns >= floor:  # v deleted: its field stays DEL, so the key is unchanged
                    new[key] = bits
                if ns < need:
                    a += 1
                    ns += 1
                if ns >= floor:
                    for nl, shift in keeps:
                        nk = nl + a
                        new[nk] = new.get(nk, 0) ^ (bits << shift)
        else:
            clear = ~(7 << aux + 3 * slot)
            for key, bits in table.items():
                if bits:
                    nk = key & clear
                    new[nk] = new.get(nk, 0) ^ bits
        table = new

    return {(key >> ns_bits & d_mask) - off: bits for key, bits in table.items() if bits and key & ns_mask >= need}


def decide_cpp_once(g: Graph, k: int, events: NiceEventSequence, seed: int) -> bool:
    """One weighted run: True certifies a co-path-packing set of size <= k
    exists (sound); False may be wrong with probability <= 1/3.

    At delta 0 the count at weight w has the parity of the marked solutions
    of weight w (an induced linear forest on at least alive_count - k
    vertices plus one marker edge per non-isolate component). By the
    isolation lemma over the universe of vertices and edges, the lightest
    such solution is unique, so its bit is set, with probability >= 2/3."""
    return 0 in parity_dp(g, events, sample_weights(g, seed), g.alive_count - k)


def decide_cpp(g: Graph, k: int, events: NiceEventSequence, repeats: int, seed: int) -> int:
    """Repeat with independently derived weights until a run says yes.

    Returns how many runs that took, or 0 when all `repeats` runs said no.
    A yes is sound; a no is wrong with probability <= (1/3)^repeats on
    yes-instances.
    """
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    for t in range(repeats):
        if decide_cpp_once(g, k, events, derive_seed(seed, t)):
            return t + 1
    return 0
