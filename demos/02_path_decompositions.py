#!/usr/bin/env python3
"""Path decompositions: exact width by a width-bounded layout search, a
greedy fallback, the hub layout every solve uses, the introduce/forget event
form every DP consumes, and the text format."""

from copack import (
    PathDecomposition,
    exact_pathwidth,
    heuristic_pd,
    to_nice,
    validate,
    write_decomposition,
)
from copack.decomp import decomposition_for
from copack.generators import cycle_graph, grid_graph, path_graph, proper_graph

for name, g in (
    ("P6", path_graph(6)),
    ("C6", cycle_graph(6)),
    ("3x3 grid", grid_graph(3, 3)),
):
    width, pd = exact_pathwidth(g)
    greedy = heuristic_pd(g)
    assert validate(g, pd) is None and validate(g, greedy) is None
    print("%-9s pathwidth=%d   greedy width=%d" % (name, width, greedy.width))

# decomposition_for lays a graph out through its hub graph (the vertices of
# degree >= 3, with each chain of degree-2 vertices between two of them as
# one edge), then puts each chain back right after the later of its hubs.
# This 22-vertex proper graph has 5 hubs, laid out exactly
g = proper_graph(22, 1)
hub = decomposition_for(g)
assert validate(g, hub) is None
print("\nproper_graph(22, 1): pathwidth=%d   greedy width=%d   hub-layout width=%d"
      % (exact_pathwidth(g)[0], heuristic_pd(g).width, hub.width))

# Every decomposition turns into a sequence of introduce/forget events of the
# same width. Every DP replays them with walk, which gives each bag vertex a
# slot, below the largest bag size, that it keeps until its forget: the DPs
# store its label there. walk is also what validate runs: it reports the
# first broken property (P1 vertices, P2 edges, P3 contiguity) and a
# witness, here an edge of C6 that no bag holds.
g = cycle_graph(6)
width, pd = exact_pathwidth(g)
events = to_nice(pd)
print("\nC6 events (width %d):" % events.width)
print("  " + ", ".join("%s %d" % (op, v) for op, v in events.events))
print("  last bag cut down to {5}: %s" % validate(g, PathDecomposition(pd.bags[:-1] + [{5}])))

print("\nC6 decomposition on disk (vertices are 1-based in files):")
print(write_decomposition(pd))
