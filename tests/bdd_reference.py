"""The deletion DP without dominance pruning: every reachable bag labelling
stays in the table. It is the reference that `copack.bdd.bdd_dp_solve`'s
pruned tables are checked against past the oracle's reach."""

from __future__ import annotations

from copack.decomp import NiceEventSequence
from copack.graph import Graph


def reference_bdd_dp(g: Graph, events: NiceEventSequence, d: int) -> tuple[int, set[int]]:
    """(minimum deletions for max degree <= d, one witness set), with the
    labels and packing of `copack.bdd` and no entry dropped."""
    if d < 0:
        raise ValueError("degree bound d must be >= 0")
    del_label = d + 1
    w = del_label.bit_length()
    field = (1 << w) - 1
    table: dict[int, int] = {0: 0}
    order: list[int] = []  # bit i of a mask stands for order[i]

    for op, v, p, bag in events.walk(g):
        new: dict[int, int] = {}
        sh = p * w
        low = (1 << sh) - 1
        if op == "introduce":
            bit = 1 << len(order)
            order.append(v)
            deleted = del_label << sh
            nbr_sh = [i * w for i, u in enumerate(bag) if u in g._adj[v]]
            for s, mask in table.items():  # s: the packed labels, bumped below
                cost = mask.bit_count()
                nl = (s & low) | ((s >> sh) << (sh + w)) | deleted
                old = new.get(nl)
                if old is None or cost + 1 < old.bit_count():
                    new[nl] = mask | bit
                kept_nbrs = 0
                for j in nbr_sh:
                    l = s >> j & field
                    if l == del_label:
                        continue
                    if l == d:
                        break
                    s += 1 << j
                    kept_nbrs += 1
                else:
                    if kept_nbrs <= d:
                        nl = (s & low) | ((s >> sh) << (sh + w)) | (kept_nbrs << sh)
                        old = new.get(nl)
                        if old is None or cost < old.bit_count():
                            new[nl] = mask
            assert len(new) <= (d + 2) ** (len(bag) + 1)
        else:
            for s, mask in table.items():
                nl = (s & low) | ((s >> (sh + w)) << sh)
                old = new.get(nl)
                if old is None or mask.bit_count() < old.bit_count():
                    new[nl] = mask
        table = new

    mask = table[0]
    return mask.bit_count(), {v for i, v in enumerate(order) if mask >> i & 1}
