"""DIMACS-like text. Blank lines and `c` comment lines are skipped; one
`p <kind> ...` header of integer fields comes before every other line, and
each other line is a tag and integers. Graphs are `p edge <n> <m>` and one
`e <u> <v>` line per edge, with 1-based vertices."""

from __future__ import annotations

from .errors import GraphFormatError, SizeLimitError
from .graph import Graph

# Largest vertex count a header may declare. Graph(n) allocates n adjacency
# sets up front, so the check comes before it; the exact solvers are far from
# useful at this size anyway.
MAX_VERTICES = 100_000


def read_lines(text: str, header: str, tag: str):
    """Yield (line number, tag, integers) for each line of a format whose
    header reads like `header` (e.g. "p edge <n> <m>") and whose other lines
    start with `tag`. The header comes first, with tag "p"; a missing, late
    or duplicate header, another tag or a non-integer field raises
    GraphFormatError."""
    _, kind, *names = header.split()
    seen = False
    for ln, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split()
        if not parts:
            continue
        if parts[0] == tag and seen:
            fields = parts[1:]
        elif parts[0].startswith("c"):
            continue
        elif parts[0] == "p":
            if seen:
                raise GraphFormatError("duplicate header", ln)
            if len(parts) != len(names) + 2 or parts[1] != kind:
                raise GraphFormatError("expected '%s'" % header, ln)
            seen = True
            fields = parts[2:]
        elif parts[0] == tag:
            raise GraphFormatError("'%s' line before header" % tag, ln)
        else:
            raise GraphFormatError("unrecognized line %r" % raw.strip(), ln)
        try:
            nums = list(map(int, fields))
        except ValueError:
            raise GraphFormatError("non-integer field", ln) from None
        yield ln, parts[0], nums
    if not seen:
        raise GraphFormatError("missing '%s' header" % header)


def check_count(ln: int, what: str, declared: int, found: int):
    """Raise unless the header at line ln declared as many `what` as found."""
    if declared != found:
        raise GraphFormatError("header declares %d %s, found %d" % (declared, what, found), ln)


def parse_graph(text: str) -> Graph:
    lines = read_lines(text, "p edge <n> <m>", "e")
    header_ln, _, (n, m) = next(lines)
    if n < 0 or m < 0:
        raise GraphFormatError("negative counts in header", header_ln)
    if n > MAX_VERTICES:
        raise SizeLimitError(
            "line %d: header declares %d vertices, the limit is %d" % (header_ln, n, MAX_VERTICES)
        )
    g = Graph(n)
    adj = g._adj  # the checks below are add_edge's, so write the sets directly
    for ln, _, vs in lines:
        if len(vs) != 2:
            raise GraphFormatError("expected 'e <u> <v>'", ln)
        u, v = vs
        if not (1 <= u <= n and 1 <= v <= n):
            raise GraphFormatError("vertex out of range 1..%d" % n, ln)
        if u == v:
            raise GraphFormatError("self-loop at vertex %d" % u, ln)
        nu = adj[u - 1]
        if v - 1 in nu:
            raise GraphFormatError("duplicate edge (%d, %d)" % (u, v), ln)
        nu.add(v - 1)
        adj[v - 1].add(u - 1)
    check_count(header_ln, "edges", m, g.edge_count)
    return g


def write_graph(g: Graph, comments=()) -> str:
    lines = ["c %s" % c for c in comments]
    lines.append("p edge %d %d" % (g.size, g.edge_count))
    for u, v in g.edges():
        lines.append("e %d %d" % (u + 1, v + 1))
    return "\n".join(lines) + "\n"
