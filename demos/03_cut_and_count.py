#!/usr/bin/env python3
"""Inside the randomized decision procedure for co-path packing.

The DP counts, modulo two, induced max-degree-2 subgraphs equipped with a
two-sided cut and marked side-one edges. Only the marker surplus
delta = markers - (n - e - a) over the would-be component count matters:
at delta 0 everything that is not a disjoint union of paths cancels, and
random weights make the surviving solutions countable without accidental
cancellation. The DP therefore keys its table by delta and by the kept
vertex count capped at the `need` a decision asks for.
"""

from copack import parity_dp, sample_weights, to_nice, exact_pathwidth, decide_cpp
from copack.generators import cycle_graph, path_graph

g = path_graph(2)
weights = sample_weights(g, seed=2)
events = to_nice(exact_pathwidth(g)[1])
print("single edge, weights", weights.vertex_weights, weights.edge_weights)
for need in range(3):
    table = parity_dp(g, events, weights, need)
    print("need %d: odd (delta, weight) pairs from the DP:" % need)
    for delta, bits in sorted(table.items()):
        print("   delta %+d at weights %s" % (delta, [w for w in range(bits.bit_length()) if bits >> w & 1]))
# At need 2 only the marked edge survives, at weight 1 + 2 + 2 = 5: the
# unmarked one is counted twice (its component may sit on either side) and
# cancels.

# Decisions: a cycle needs one deletion. Yes answers are sound, and repeating
# with fresh weights drives the false-negative rate to (1/3)^repeats.
c6 = cycle_graph(6)
ev6 = to_nice(exact_pathwidth(c6)[1])
# decide_cpp returns how many runs a yes took, or 0 after `repeats` noes.
print("\nC6 budget 0, runs to a yes:", decide_cpp(c6, 0, ev6, repeats=10, seed=0))
print("C6 budget 1, runs to a yes:", decide_cpp(c6, 1, ev6, repeats=10, seed=0))
