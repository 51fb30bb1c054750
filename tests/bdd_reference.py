"""The deletion DP without dominance pruning: every reachable bag labelling
stays in the table. It is the reference that `copack.bdd.bdd_dp_solve`'s
pruned tables are checked against past the oracle's reach."""

from __future__ import annotations

from copack.decomp import NiceEventSequence
from copack.graph import Graph


def reference_bdd_dp(g: Graph, events: NiceEventSequence, d: int) -> tuple[int, set[int]]:
    """(minimum deletions for max degree <= d, one witness set), with the
    labels and slot-addressed fields of `copack.bdd` and no entry dropped.
    Asserts that no two children of an introduce share a key."""
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
            nbr_sh = [bag[u] * w for u in g._adj[v] if u in bag]
            for s, mask in table.items():  # s: the packed labels, bumped below
                children = [(s | full << sh, mask | bit)]
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
                    if kept_nbrs <= d:
                        children.append((s | kept_nbrs << sh, mask))
                for nl, m in children:
                    assert nl not in new, "two labellings share a key"
                    new[nl] = m
            assert len(new) <= (d + 2) ** (len(bag) + 1)
        else:
            for s, mask in table.items():
                nl = s & ~(full << sh)
                old = new.get(nl)
                if old is None or mask.bit_count() < old.bit_count():
                    new[nl] = mask
        table = new

    mask = table[0]
    return mask.bit_count(), {v for i, v in enumerate(order) if mask >> i & 1}
