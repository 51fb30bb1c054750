#!/usr/bin/env python3
"""Tour of the three solvers on small instances.

Co-path/cycle packing deletes vertices until everything has degree at most 2
(paths and cycles may remain); co-path packing insists on disjoint paths;
bounded-degree deletion generalizes the degree bound to any d.
"""

from copack import Graph, oracle_min, solve_cpcp, solve_cpp, verify
from copack.generators import complete_graph, cycle_graph, gnm_graph

# K5 needs two deletions before everything is a path or cycle: the witness
# comes back and re-verifies against the original graph.
k5 = complete_graph(5)
out = solve_cpcp(k5, 2)
print("K5, budget 2:", "yes" if out.answer else "no", "witness:", sorted(out.witness))
assert verify(k5, out.witness, "cpcp")
print("K5, budget 1:", "yes" if solve_cpcp(k5, 1).answer else "no")

# A cycle is already fine for co-path/cycle packing but not for co-path
# packing, where one vertex must go.
c7 = cycle_graph(7)
print("\nC7 cpcp with budget 0:", solve_cpcp(c7, 0).answer)
print("C7 cpp  with budget 0:", solve_cpp(c7, 0).answer)
print("C7 cpp  with budget 1:", solve_cpp(c7, 1).answer)

# The co-path/cycle minimum is a floor for co-path packing: a witness of it
# that leaves no cycle is a solution, and otherwise the search branches on a
# cycle that witness leaves. The search is exact, and every yes comes with a
# verified witness.
g = gnm_graph(9, 14, seed=4)
truth = oracle_min(g, "cpp")
print("\nrandom 9-vertex graph: oracle minimum for cpp =", truth)
for k in range(truth - 1, truth + 2):
    out = solve_cpp(g, k)
    print("  budget %d -> %s, witness %s (nodes=%d, deletion DPs=%d)"
          % (k, "yes" if out.answer else "no", out.witness and sorted(out.witness), out.stats.nodes,
             out.stats.dp_calls))

# Statistics show how much work the search did.
out = solve_cpcp(gnm_graph(9, 20, seed=11), 3)
print("\ndense 9-vertex graph stats:", out.stats)
