"""DIMACS-like graph text: `c` comments, `p edge <n> <m>` header, `e <u> <v>`
edge lines with 1-based vertices."""

from __future__ import annotations

from .errors import GraphFormatError, SizeLimitError
from .graph import Graph

# Largest vertex count a header may declare. Graph(n) allocates n adjacency
# sets up front, so the check comes before it; the exact solvers are far from
# useful at this size anyway.
MAX_VERTICES = 100_000


def parse_graph(text: str) -> Graph:
    g = None
    declared_m = 0
    seen_edges = 0
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        if parts[0] == "p":
            if g is not None:
                raise GraphFormatError("duplicate header", ln)
            if len(parts) != 4 or parts[1] != "edge":
                raise GraphFormatError("expected 'p edge <n> <m>'", ln)
            try:
                n, declared_m = int(parts[2]), int(parts[3])
            except ValueError:
                raise GraphFormatError("non-integer header field", ln)
            if n < 0 or declared_m < 0:
                raise GraphFormatError("negative counts in header", ln)
            if n > MAX_VERTICES:
                raise SizeLimitError(
                    "line %d: header declares %d vertices, the limit is %d" % (ln, n, MAX_VERTICES)
                )
            g = Graph(n)
        elif parts[0] == "e":
            if g is None:
                raise GraphFormatError("edge before header", ln)
            if len(parts) != 3:
                raise GraphFormatError("expected 'e <u> <v>'", ln)
            try:
                u, v = int(parts[1]), int(parts[2])
            except ValueError:
                raise GraphFormatError("non-integer vertex", ln)
            if not (1 <= u <= g.size and 1 <= v <= g.size):
                raise GraphFormatError("vertex out of range 1..%d" % g.size, ln)
            if u == v:
                raise GraphFormatError("self-loop at vertex %d" % u, ln)
            if g.has_edge(u - 1, v - 1):
                raise GraphFormatError("duplicate edge (%d, %d)" % (u, v), ln)
            g.add_edge(u - 1, v - 1)
            seen_edges += 1
        else:
            raise GraphFormatError("unrecognized line %r" % line, ln)
    if g is None:
        raise GraphFormatError("missing 'p edge' header")
    if seen_edges != declared_m:
        raise GraphFormatError("header declares %d edges, found %d" % (declared_m, seen_edges))
    return g


def write_graph(g: Graph, comments=()) -> str:
    lines = ["c %s" % c for c in comments]
    lines.append("p edge %d %d" % (g.size, g.edge_count))
    for u, v in g.edges():
        lines.append("e %d %d" % (u + 1, v + 1))
    return "\n".join(lines) + "\n"
