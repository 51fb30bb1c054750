#!/usr/bin/env python3
"""Inside the randomized decision procedure for co-path packing.

The DP counts, modulo two, induced max-degree-2 subgraphs equipped with a
two-sided cut and marked side-one edges. Querying marker counts equal to
n - e - a (which only acyclic, fully-marked shapes achieve in odd numbers)
cancels everything that is not a disjoint union of paths; random weights make
the surviving solutions countable without accidental cancellation.
"""

from copack import parity_dp, sample_weights, to_nice, exact_pathwidth, decide_cpp
from copack.generators import cycle_graph, path_graph
from copack.oracles import cc_candidate_counts

g = path_graph(2)
weights = sample_weights(g, seed=2)
events = to_nice(exact_pathwidth(g)[1])
odd = parity_dp(g, events, weights)
print("single edge, weights", weights.vertex_weights, weights.edge_weights)
print("odd (isolates, n, e, w, markers) keys from the DP:")
for key in sorted(odd):
    print("  ", key)

# The brute-force counter agrees on every key; the unmarked two-vertex shape
# is counted twice (its component may sit on either side) and cancels.
counts = cc_candidate_counts(g, weights)
assert odd == {k for k, c in counts.items() if c % 2}
both_kept_unmarked = (0, 2, 1, sum(weights.vertex_weights.values()), 0)
print("\nunmarked full subgraph counted %d times -> parity 0"
      % counts[both_kept_unmarked])

# Decisions: a cycle needs one deletion. Yes answers are sound, and repeating
# with fresh weights drives the false-negative rate to (1/3)^repeats.
c6 = cycle_graph(6)
ev6 = to_nice(exact_pathwidth(c6)[1])
# decide_cpp returns how many runs a yes took, or 0 after `repeats` noes.
print("\nC6 budget 0, runs to a yes:", decide_cpp(c6, 0, ev6, repeats=10, seed=0))
print("C6 budget 1, runs to a yes:", decide_cpp(c6, 1, ev6, repeats=10, seed=0))
