"""Deletion DP over introduce/forget events: minimum vertex set whose removal
leaves maximum degree at most d, in O*((d+2)^width) table size.

Bag vertices carry one label each: "deleted", or "kept with degree exactly j
among already-processed kept vertices" for j in 0..d. Introducing a kept
vertex bumps each kept bag-neighbor's degree label by one; a label past d
kills the branch. Forgetting a vertex projects its label away, keeping the
cheaper table entry.
"""

from __future__ import annotations

from bisect import bisect_left, insort

from .decomp import NiceEventSequence
from .graph import Graph


def bdd_dp_solve(g: Graph, events: NiceEventSequence, d: int) -> tuple[int, set[int]]:
    """(minimum deletions for max degree <= d, one witness set)."""
    if d < 0:
        raise ValueError("degree bound d must be >= 0")
    del_label = d + 1
    table: dict[tuple, int] = {(): 0}
    parents: list[dict] = []  # per event: {labels: (prev_labels, deleted_vertex_or_None)}
    bag: list[int] = []
    introduced = set()

    for op, v in events.events:
        if not g.is_alive(v):
            raise ValueError("event vertex %d is not alive" % v)
        par: dict = {}
        new: dict[tuple, int] = {}
        if op == "introduce":
            if v in introduced:
                raise ValueError("vertex %d introduced twice" % v)
            introduced.add(v)
            p = bisect_left(bag, v)
            nbr_idx = [i for i, u in enumerate(bag) if u in g._adj[v]]
            for labels, cost in table.items():
                nl = labels[:p] + (del_label,) + labels[p:]
                old = new.get(nl)
                if old is None or cost + 1 < old:
                    new[nl] = cost + 1
                    par[nl] = (labels, v)
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
                    if old is None or cost < old:
                        new[nl] = cost
                        par[nl] = (labels, None)
            insort(bag, v)
        elif op == "forget":
            try:
                p = bag.index(v)
            except ValueError:
                raise ValueError("vertex %d forgotten while not in bag" % v)
            for labels, cost in table.items():
                nl = labels[:p] + labels[p + 1:]
                old = new.get(nl)
                if old is None or cost < old:
                    new[nl] = cost
                    par[nl] = (labels, None)
            bag.pop(p)
        else:
            raise ValueError("unknown event %r" % (op,))
        assert len(new) <= (d + 2) ** len(bag)
        table = new
        parents.append(par)

    if bag:
        raise ValueError("events leave a nonempty bag: %s" % bag)
    if set(g.vertices()) - introduced:
        raise ValueError("events never introduce: %s" % sorted(set(g.vertices()) - introduced))

    # walk the predecessor links back; collect the vertices labeled deleted
    # at their introduce event
    witness: set[int] = set()
    state: tuple = ()
    for par in reversed(parents):
        state, deleted = par[state]
        if deleted is not None:
            witness.add(deleted)
    return table[()], witness
