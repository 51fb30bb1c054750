#!/usr/bin/env python3
"""Path decompositions: exact width by a width-bounded layout search, a
greedy fallback, the introduce/forget event form every DP consumes, and the
text format."""

from copack import (
    exact_pathwidth,
    heuristic_pd,
    to_nice,
    validate,
    write_decomposition,
)
from copack.decomp import validate_events
from copack.generators import cycle_graph, grid_graph, path_graph

for name, g in (
    ("P6", path_graph(6)),
    ("C6", cycle_graph(6)),
    ("3x3 grid", grid_graph(3, 3)),
):
    width, pd = exact_pathwidth(g)
    greedy = heuristic_pd(g)
    assert validate(g, pd) is None and validate(g, greedy) is None
    print("%-9s pathwidth=%d   greedy width=%d" % (name, width, greedy.width))

# Every decomposition turns into a sequence of introduce/forget events of the
# same width; replaying them checks every property of a decomposition again.
g = cycle_graph(6)
width, pd = exact_pathwidth(g)
events = to_nice(pd)
print("\nC6 events (width %d):" % events.width)
print("  " + ", ".join("%s %d" % (op, v) for op, v in events.events))
validate_events(g, events)  # raises ValueError on a bad sequence

print("\nC6 decomposition on disk (vertices are 1-based in files):")
print(write_decomposition(pd))
