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

The table is keyed (bag labels, delta, n_sat), where delta = m - (n - e - a)
and n_sat = min(n, need) for the decision's need = #vertices - k. Every
transition moves delta by a constant, and a state whose n_sat cannot reach
`need` with the vertices still to come is dropped. Pairs that cancel share
all four counts, so they share the folded key too. Each key maps to a Python
int whose bit w is the count's parity at weight w: toggling a count is an
XOR, adding a vertex or edge weight is a left shift of the whole int, and an
entry whose int reaches 0 is dropped. The DP returns the final table as
{delta: bits} over the candidates with n >= need; the decision reads delta 0.
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
    n_max: int


def sample_weights(g: Graph, seed: int) -> WeightAssignment:
    verts = g.vertices()
    edges = g.edges()
    n_max = 3 * (len(verts) + len(edges))
    rng = random.Random(seed)
    vw = {v: rng.randint(1, n_max) for v in verts}
    ew = {e: rng.randint(1, n_max) for e in edges}
    return WeightAssignment(vw, ew, n_max)


def _xor(table: dict, key, bits: int):
    table[key] = table.get(key, 0) ^ bits


def parity_dp(g: Graph, events: NiceEventSequence, weights: WeightAssignment, need: int) -> dict:
    """{delta: bits} over the cc-candidates with at least `need` kept
    vertices: bit w of bits is the parity of the number of such candidates
    with weight w and m - (n - e - a) = delta. Zero entries are dropped."""
    intro_left = g.alive_count  # the walk introduces each alive vertex once
    table: dict = {((), 0, 0): 1}

    for op, v, p, bag in events.walk(g):
        new: dict = {}
        if op == "introduce":
            intro_left -= 1
            nbrs = [(i, bag[i]) for i in range(len(bag)) if bag[i] in g._adj[v]]
            ew = {i: weights.edge_weights[(min(u, v), max(u, v))] for i, u in nbrs}
            wv = weights.vertex_weights[v]
            for (labels, d, ns), bits in table.items():
                _xor(new, (labels[:p] + (DEL,) + labels[p:], d, ns), bits)
                kept = [(i, labels[i]) for i, _ in nbrs if labels[i] != DEL]
                ns += ns < need
                bv = bits << wv
                if len(kept) == 0:
                    _xor(new, (labels[:p] + (ISO,) + labels[p:], d, ns), bv)
                elif len(kept) == 1:
                    i, l = kept[0]
                    we = ew[i]
                    base = list(labels)
                    if l == ISO:
                        # the neighbor's side was only a degree-0 convention;
                        # its first edge fixes it to v's side
                        base[i] = ONE1
                        nl = tuple(base[:p]) + (ONE1,) + tuple(base[p:])
                        _xor(new, (nl, d - 1, ns), bv)
                        _xor(new, (nl, d, ns), bv << we)
                        base[i] = ONE2
                        nl = tuple(base[:p]) + (ONE2,) + tuple(base[p:])
                        _xor(new, (nl, d - 1, ns), bv)
                    elif l == ONE1:
                        base[i] = TWO
                        nl = tuple(base[:p]) + (ONE1,) + tuple(base[p:])
                        _xor(new, (nl, d, ns), bv)
                        _xor(new, (nl, d + 1, ns), bv << we)
                    elif l == ONE2:
                        base[i] = TWO
                        nl = tuple(base[:p]) + (ONE2,) + tuple(base[p:])
                        _xor(new, (nl, d, ns), bv)
                    # l == TWO: no kept branch, the neighbor is saturated
                elif len(kept) == 2:
                    (i1, l1), (i2, l2) = kept
                    if TWO in (l1, l2) or {l1, l2} == {ONE1, ONE2}:
                        continue
                    we1, we2 = ew[i1], ew[i2]
                    d2 = d + 1 - (l1 == ISO) - (l2 == ISO)
                    sides = (1, 2) if l1 == ISO and l2 == ISO else ((1,) if ONE1 in (l1, l2) else (2,))
                    for side in sides:
                        base = list(labels)
                        one = ONE1 if side == 1 else ONE2
                        base[i1] = one if l1 == ISO else TWO
                        base[i2] = one if l2 == ISO else TWO
                        nl = tuple(base[:p]) + (TWO,) + tuple(base[p:])
                        _xor(new, (nl, d2, ns), bv)
                        if side == 1:
                            _xor(new, (nl, d2 + 1, ns), (bv << we1) ^ (bv << we2))
                            _xor(new, (nl, d2 + 2, ns), bv << (we1 + we2))
                # more than 2 kept bag-neighbors: v cannot be kept
        else:
            for (labels, d, ns), bits in table.items():
                _xor(new, (labels[:p] + labels[p + 1:], d, ns), bits)
        floor = need - intro_left
        table = {key: bits for key, bits in new.items() if bits and key[2] >= floor}

    return {d: bits for (_, d, ns), bits in table.items() if ns >= need}


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
