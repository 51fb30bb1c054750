"""Deletion DP over introduce/forget events: minimum vertex set whose removal
leaves maximum degree at most d, in at most O*((d+2)^width) table size.

Bag vertices carry one label each: "deleted", or "kept" with a degree label
in 0..d. A kept vertex u's label is max(j, d - rem(u)), where j counts its
kept neighbours introduced so far and rem(u) those still to come; d - rem(u)
is its floor. Labels j1 < j2 <= d - rem(u) have the same completions: the
rem(u) neighbours to come raise either by at most rem(u), so neither passes
d. Hence they share one label and one table entry. Each kept bag
neighbour u of an introduced v had v still to come, so u's floor sat below
d, and it rises by one:

- v kept bumps each such label by one, which keeps it at or above the new
  floor; a label already at d kills the branch. A label reads d below the
  true degree only when rem = 0, and then no neighbour arrives to bump it.
- v deleted raises only a label sitting exactly at its old floor, by one.
- v's own label is max(its kept bag neighbours, d - rem(v)), and past d
  the branch dies.

Forgetting a vertex projects its label away, keeping the cheaper table
entry; by then all its neighbours have arrived, so a kept label reads d.

The table keeps only undominated labellings. Switching a kept vertex to
deleted never hurts a completion: a deleted vertex constrains nothing and
adds no degree, so every completion of the kept labelling also completes
the deleted one. Hence a labelling that the same labelling with one kept
field set to deleted matches at no greater cost can never lead to a cheaper
solution, and is dropped: after each forget, by one lookup per kept field;
at each introduce, the kept child of s is skipped when the table holds
bump(s), s after its degree bumps, at a lower cost, since that entry's
child deleting v then costs no more (bump(s) sits at or above the new
floors, so deleting v raises none of its labels). Each dropped labelling
has strictly fewer deleted fields than the one that matches it, so every
chain of drops ends in a kept entry that matches them all: minima are
unchanged, and the final entry's mask is still a minimum witness.

A bag labelling is one int of w = (d+1).bit_length() bit fields. Each bag
vertex keeps the slot `walk` gives it from its introduce to its forget, and
its field at bits slot*w .. slot*w + w - 1; "deleted" is the all-ones field
and degree labels 0..d lie below it. A free slot's field is 0, so
introducing v adds its label in, forgetting it clears its field with one
AND, and a bump or raise adds 1 << slot*w, which never carries since the
label stays at most d. The kept children of an introduce have distinct
keys: v's field tells them from the deleted ones, and the bump is
injective. Deleted children can share a key, when a raise lifts a label
from its floor f onto a labelling that already holds f + 1 there; the
cheaper mask is kept.

An introduce's moves depend only on the fields of v's bag neighbours, so
they are computed once per distinct pattern s & nbmask: the amount the
deleted child adds to s, and the kept child's bump and v's field, or none
when keeping v kills the branch. Each entry then costs one AND, one lookup
and two additions.

Each entry is the cheapest deletion set reaching its labels, as a bitmask
over introduce order: its cost is the mask's bit count, and the final
entry's bits are the witness.

A vertex without neighbours is never worth deleting and changes no other
label, so its events are skipped: its slot's field stays 0 from its
introduce to its forget, no forget looks it up, and it takes no bit of the
masks. bdd's edge rule leaves such vertices by the thousand.
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
    adj = g._adj
    table: dict[int, int] = {0: 0}
    order: list[int] = []  # bit i of a mask stands for order[i]
    floors: list[int] = []  # slot -> d - rem of its vertex, the floor of its kept label

    for op, v, slot, bag in events.walk(g):
        if not adj[v]:
            continue
        new: dict[int, int] = {}
        sh = slot * w
        if op == "introduce":
            bit = 1 << len(order)
            order.append(v)
            nbrs = []  # (field shift, its unit, its floor before v) per bag neighbour
            nbmask = 0
            for u in adj[v]:
                if u in bag:
                    t = bag[u]
                    f = floors[t]
                    floors[t] = f + 1
                    j = t * w
                    nbrs.append((j, 1 << j, f))
                    nbmask |= full << j
            floor = d - len(adj[v]) + len(nbrs)
            if slot >= len(floors):  # slots below it may be a skipped vertex's
                floors += [0] * (slot + 1 - len(floors))
            floors[slot] = floor
            vdel = full << sh
            # s & nbmask -> (deleted child - s, bump, v's kept field or -1 if keeping v kills)
            moves: dict[int, tuple[int, int, int]] = {}
            for s, mask in table.items():
                p = s & nbmask
                move = moves.get(p)
                if move is None:
                    deleted, bump, kept_nbrs = vdel, 0, 0
                    for j, one, f in nbrs:
                        l = p >> j & full
                        if l != full:
                            if l == f:
                                deleted += one
                            elif l == d:
                                kept_nbrs = d  # keeping v would push u past d
                            bump += one
                            kept_nbrs += 1
                    if kept_nbrs > d:
                        move = moves[p] = (deleted, 0, -1)
                    else:
                        move = moves[p] = (deleted, bump, (kept_nbrs if kept_nbrs > floor else floor) << sh)
                deleted, bump, kept = move
                c = s + deleted
                old = new.get(c)
                if old is None or mask.bit_count() < old.bit_count() - 1:
                    new[c] = mask | bit
                if kept >= 0:
                    s += bump
                    rival = table.get(s)  # bump(s); a cheaper one's v-deleted child wins
                    if rival is None or rival.bit_count() >= mask.bit_count():
                        new[s + kept] = mask
            assert len(new) <= (d + 2) ** (len(bag) + 1)
        else:
            clear = ~(full << sh)
            projected: dict[int, int] = {}
            for s, mask in table.items():
                s &= clear
                old = projected.get(s)
                if old is None or mask.bit_count() < old.bit_count():
                    projected[s] = mask
            fields = [full << t * w for u, t in bag.items() if u != v and adj[u]]
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
