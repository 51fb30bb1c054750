"""Deletion DP over introduce/forget events: minimum vertex set whose removal
leaves maximum degree at most d, in at most O*((d+2)^width) table size.

Bag vertices carry one label each: "deleted", or "kept with degree exactly
j among already-processed kept vertices" for j in 0..d. Introducing a kept
vertex bumps each kept bag-neighbor's degree label by one; a label past d
kills the branch. Forgetting a vertex projects its label away, keeping the
cheaper table entry.

The table keeps only undominated labellings. Switching a kept vertex to
deleted never hurts a completion: a deleted vertex constrains nothing and
adds no degree, so every completion of the kept labelling also completes
the deleted one. Hence a labelling that the same labelling with one kept
field set to deleted matches at no greater cost can never lead to a cheaper
solution, and is dropped: after each forget, by one lookup per kept field;
at each introduce, the kept child of s is skipped when the table holds
bump(s), s after its degree bumps, at a lower cost, since that entry's
child deleting v then costs no more. Each dropped labelling has strictly
fewer deleted fields than the one that matches it, so every chain of drops
ends in a kept entry that matches them all: minima are unchanged, and the
final entry's mask is still a minimum witness.

A bag labelling is one int of w = (d+1).bit_length() bit fields. Each bag
vertex keeps the slot `walk` gives it from its introduce to its forget, and
its field at bits slot*w .. slot*w + w - 1; "deleted" is the all-ones field
and degrees 0..d lie below it. A free slot's field is 0, so introducing v
ORs its label in, forgetting it clears its field with one AND, and a degree
bump adds 1 << slot*w, which never carries since a bumped label stays at
most d. No two children of an introduce share a key: v's field tells a
deleted child from a kept one, and the degree bump is injective, so an
introduce stores each child without comparing costs.

Each entry is the cheapest deletion set reaching its labels, as a bitmask
over introduce order: its cost is the mask's bit count, and the final
entry's bits are the witness.
"""

from __future__ import annotations

from .decomp import NiceEventSequence
from .graph import Graph


def bdd_dp_solve(g: Graph, events: NiceEventSequence, d: int) -> tuple[int, set[int]]:
    """(minimum deletions for max degree <= d, one witness set)."""
    if d < 0:
        raise ValueError("degree bound d must be >= 0")
    w = (d + 1).bit_length()
    full = (1 << w) - 1  # the deleted label
    table: dict[int, int] = {0: 0}
    order: list[int] = []  # bit i of a mask stands for order[i]

    for op, v, slot, bag in events.walk(g):
        new: dict[int, int] = {}
        sh = slot * w
        if op == "introduce":
            bit = 1 << len(order)
            order.append(v)
            deleted = full << sh
            nbr_sh = [bag[u] * w for u in g._adj[v] if u in bag]
            for s, mask in table.items():  # s: the packed labels, bumped below
                new[s | deleted] = mask | bit
                kept_nbrs = 0
                for j in nbr_sh:
                    l = s >> j & full
                    if l == full:
                        continue
                    if l == d:
                        break
                    s += 1 << j
                    kept_nbrs += 1
                else:
                    rival = table.get(s)  # s is bump(s) now; a cheaper one's v-deleted child wins
                    if kept_nbrs <= d and (rival is None or rival.bit_count() >= mask.bit_count()):
                        new[s | kept_nbrs << sh] = mask
            assert len(new) <= (d + 2) ** (len(bag) + 1)
        else:
            clear = ~(full << sh)
            projected: dict[int, int] = {}
            for s, mask in table.items():
                s &= clear
                old = projected.get(s)
                if old is None or mask.bit_count() < old.bit_count():
                    projected[s] = mask
            fields = [full << t * w for u, t in bag.items() if u != v]
            for s, mask in projected.items():
                cost = mask.bit_count()
                for f in fields:
                    if s & f != f:
                        rival = projected.get(s | f)
                        if rival is not None and rival.bit_count() <= cost:
                            break
                else:
                    new[s] = mask
        table = new

    mask = table[0]
    return mask.bit_count(), {v for i, v in enumerate(order) if mask >> i & 1}
