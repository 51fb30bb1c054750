"""Deletion DP over introduce/forget events: minimum vertex set whose removal
leaves maximum degree at most d, in O*((d+2)^width) table size.

Bag vertices carry one label each: "deleted", or "kept with degree exactly j
among already-processed kept vertices" for j in 0..d. Introducing a kept
vertex bumps each kept bag-neighbor's degree label by one; a label past d
kills the branch. Forgetting a vertex projects its label away, keeping the
cheaper table entry.

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
    del_label = d + 1
    table: dict[tuple, int] = {(): 0}
    order: list[int] = []  # bit i of a mask stands for order[i]

    for op, v, p, bag in events.walk(g):
        new: dict[tuple, int] = {}
        if op == "introduce":
            bit = 1 << len(order)
            order.append(v)
            nbr_idx = [i for i, u in enumerate(bag) if u in g._adj[v]]
            for labels, mask in table.items():
                cost = mask.bit_count()
                nl = labels[:p] + (del_label,) + labels[p:]
                old = new.get(nl)
                if old is None or cost + 1 < old.bit_count():
                    new[nl] = mask | bit
                shifted = list(labels)
                kept_nbrs = 0
                feasible = True
                for i in nbr_idx:
                    l = shifted[i]
                    if l == del_label:
                        continue
                    if l == d:
                        feasible = False
                        break
                    shifted[i] = l + 1
                    kept_nbrs += 1
                if feasible and kept_nbrs <= d:
                    nl = tuple(shifted[:p]) + (kept_nbrs,) + tuple(shifted[p:])
                    old = new.get(nl)
                    if old is None or cost < old.bit_count():
                        new[nl] = mask
            assert len(new) <= (d + 2) ** (len(bag) + 1)
        else:
            for labels, mask in table.items():
                nl = labels[:p] + labels[p + 1:]
                old = new.get(nl)
                if old is None or mask.bit_count() < old.bit_count():
                    new[nl] = mask
        table = new

    mask = table[()]
    return mask.bit_count(), {v for i, v in enumerate(order) if mask >> i & 1}
