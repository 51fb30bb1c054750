import pytest

from copack.cli import RunConfig, command_factors, command_gen, command_solve, main
from copack.decomp import parse_decomposition
from copack.dimacs import parse_graph, write_graph
from copack.errors import GraphFormatError
from copack.generators import gnm_graph
from conftest import exact_decomposition_for, random_graph


def test_parse_graph_examples():
    g = parse_graph("p edge 3 3\ne 1 2\ne 2 3\ne 1 3\n")
    assert g.alive_count == 3 and g.edge_count == 3
    with pytest.raises(GraphFormatError) as exc:
        parse_graph("p edge 2 1\ne 1 1\n")
    assert exc.value.line == 2 and "self-loop" in str(exc.value)
    with pytest.raises(GraphFormatError) as exc:
        parse_graph("p edge 2 2\ne 1 2\ne 2 1\n")
    assert "duplicate" in str(exc.value)
    with pytest.raises(GraphFormatError):
        parse_graph("e 1 2\n")
    with pytest.raises(GraphFormatError):
        parse_graph("p edge 2 2\ne 1 2\n")
    with pytest.raises(GraphFormatError):
        parse_graph("p edge 2 1\ne 1 3\n")


def test_parse_graph_fuzz(rng):
    """Random junk either parses or raises a format error, as a graph and as
    a decomposition; nothing else escapes."""
    tokens = ["p", "e", "c", "edge", "pd", "b", "1", "2", "3", "-1", "x", "0", ""]
    for _ in range(400):
        lines = []
        for _ in range(rng.randint(0, 8)):
            lines.append(" ".join(rng.choice(tokens) for _ in range(rng.randint(0, 5))))
        text = "\n".join(lines)
        for parse in (parse_graph, parse_decomposition):
            try:
                parse(text)
            except GraphFormatError as exc:
                assert exc.line is None or 1 <= exc.line <= len(lines)


def test_roundtrip(rng):
    for t in range(30):
        g = random_graph(t + 20000, n_lo=1, n_hi=9)
        back = parse_graph(write_graph(g))
        assert back.size == g.size and back.edges() == g.edges()


def test_command_factors_values():
    rows = {r["step"]: r for r in command_factors()}
    table2 = {
        "step1": 2.5445,
        "step2": 2.3028,
        "step3": 2.8186,
        "step4": 2.7145,
        "step5": 2.8192,
    }
    for step, val in table2.items():
        assert abs(rows[step]["computed"] - val) <= 1e-4 + 1e-9
        assert abs(rows[step]["delta"]) <= 1e-4 + 1e-9
    for step, val in (
        ("step*3", 2.7913),
        ("step4_case1.1", 1.6181),
        ("step4_case2.2", 2.6458),
        ("step4_case2.3", 2.7145),
        ("step5_deg4", 2.6328),
    ):
        assert abs(rows[step]["computed"] - val) <= 1e-4 + 1e-9


def test_command_gen_kinds(tmp_path):
    assert "p edge 6 6" in command_gen("cycle", [6])
    assert "p edge 5 4" in command_gen("path", [5])
    text = command_gen("planted", [], seed=7, forest_n=12, k=3)
    assert "c planted_k 3" in text
    g = parse_graph(text)
    assert g.alive_count == 15
    text = command_gen("gnm", [8, 12], seed=1)
    assert parse_graph(text).edge_count == 12
    with pytest.raises(ValueError):
        command_gen("mystery", [3])


def test_gen_checks_its_parameter_count(capsys):
    for argv, needs in ((["gnm", "3"], "(n m), got 1"),
                        (["path"], "(n), got 0"),
                        (["planted", "4", "--forest-n", "6", "--k", "1"], "(none), got 1")):
        assert main(["gen"] + argv) == 2
        err = capsys.readouterr().err
        assert err == "error: gen %s takes parameters %s\n" % (argv[0], needs)
    assert main(["gen", "planted", "--k", "1"]) == 2
    assert capsys.readouterr().err == "error: planted needs --forest-n and --k\n"
    with pytest.raises(SystemExit):
        main(["gen", "mystery", "3"])
    assert "invalid choice" in capsys.readouterr().err


def test_gen_grid_refuses_negative_sizes(capsys):
    assert main(["gen", "grid", "-2", "-3"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "error: grid sizes must be >= 0\n"
    assert main(["gen", "grid", "0", "3"]) == 0
    assert capsys.readouterr().out.startswith("p edge 0 0")


def test_command_solve_records(tmp_path):
    k5 = tmp_path / "k5.gr"
    k5.write_text(command_gen("clique", [5]))
    rec, code = command_solve(RunConfig(problem="cpcp", k=2), str(k5))
    assert code == 0 and rec["answer"] == "yes" and len(rec["witness"].split(",")) == 2
    rec, code = command_solve(RunConfig(problem="cpcp", k=1), str(k5))
    assert code == 1 and rec["answer"] == "no"

    c6 = tmp_path / "c6.gr"
    c6.write_text(command_gen("cycle", [6]))
    rec, code = command_solve(RunConfig(problem="cpp", k=0, repeats=8), str(c6))
    assert code == 1 and rec["answer"] == "no"

    k3 = tmp_path / "k3.gr"
    k3.write_text(command_gen("clique", [3]))
    rec, code = command_solve(RunConfig(problem="bdd", d=0, optimize=True), str(k3))
    assert code == 0 and rec["min_size"] == 2


def test_command_solve_modes(tmp_path):
    f = tmp_path / "g.gr"
    f.write_text(write_graph(gnm_graph(8, 13, seed=5)))
    recs = {}
    for mode in ("auto", "dp", "oracle"):
        rec, _ = command_solve(RunConfig(problem="cpcp", optimize=True, mode=mode), str(f))
        recs[mode] = rec["min_size"]
    assert len(set(recs.values())) == 1


def test_command_solve_decomposition_file(tmp_path):
    from copack.decomp import exact_pathwidth, write_decomposition

    g = gnm_graph(7, 10, seed=9)
    gf = tmp_path / "g.gr"
    gf.write_text(write_graph(g))
    pd = exact_pathwidth(g)[1]
    df = tmp_path / "g.pd"
    df.write_text(write_decomposition(pd))
    rec, code = command_solve(
        RunConfig(problem="cpcp", optimize=True, mode="dp", decomposition=str(df)), str(gf)
    )
    from copack.oracles import oracle_min

    assert rec["min_size"] == oracle_min(g, "cpcp")


def test_invalid_decomposition_file_names_property_in_file_numbering(tmp_path, capsys):
    gf = tmp_path / "p3.gr"
    gf.write_text("p edge 3 2\ne 1 2\ne 2 3\n")
    for bags, fault in (("b 1 1 2\nb 2 3\n", "P2 fails at edge (2, 3)"),
                        ("b 1 2 3\nb 2 3\n", "P1 fails at vertex 1"),
                        ("b 1 1 2\nb 2 2 3 4\n", "P1 fails at vertex 4"),
                        ("b 1 1 2\nb 2 2 3\nb 3 1\n", "P3 fails at vertex 1")):
        df = tmp_path / "p3.pd"
        vs = [line.split()[2:] for line in bags.splitlines()]
        df.write_text("p pd %d %d %d\n" % (len(vs), max(map(len, vs)), len(set().union(*vs))) + bags)
        assert main(["solve", "--problem", "cpcp", "-k", "1", "--mode", "dp", "--decomposition", str(df), str(gf)]) == 2
        assert capsys.readouterr().err == "error: supplied decomposition invalid: %s\n" % fault
    # a header that disagrees with its bags is a format error before any property
    with pytest.raises(GraphFormatError) as exc:
        parse_decomposition("p pd 2 3 3\nb 1 1 2\nb 2 2 3 4\n")
    assert exc.value.line == 1 and "declares 3 vertices, found 4" in str(exc.value)


def test_decomposition_needs_a_whole_graph_route(tmp_path, capsys):
    f = tmp_path / "p.gr"
    f.write_text(command_gen("proper", [10]))
    pd = ["--decomposition", str(tmp_path / "nonexistent.pd")]
    for route in (["--problem", "cpcp", "-k", "0"],
                  ["--problem", "cpp", "-k", "0"],
                  ["--problem", "bdd", "--d", "1", "-k", "0", "--mode", "oracle"]):
        assert main(["solve", str(f)] + route + pd) == 2
        assert "--decomposition needs" in capsys.readouterr().err
    # the whole-graph DP routes read the file, which here is missing
    for route in (["--problem", "cpcp", "-k", "0", "--mode", "dp"],
                  ["--problem", "bdd", "--d", "1", "-k", "0"]):
        assert main(["solve", str(f)] + route + pd) == 2
        assert "nonexistent.pd" in capsys.readouterr().err


def test_optimize_rejects_a_budget(tmp_path, capsys):
    f = tmp_path / "planted.gr"
    f.write_text(command_gen("planted", [], seed=0, forest_n=48, k=6))
    assert main(["solve", "--problem", "cpcp", "-k", "0", "--optimize", str(f)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "exactly one of -k and --optimize" in captured.err
    assert main(["solve", "--problem", "cpcp", "--optimize", str(f)]) == 0
    assert "min_size=6" in capsys.readouterr().out


def test_cpcp_optimize_without_edges(tmp_path, capsys):
    """The empty graph and one isolated vertex need no deletion."""
    f = tmp_path / "g.gr"
    for text in ("p edge 0 0\n", "p edge 1 0\n"):
        f.write_text(text)
        assert main(["solve", "--problem", "cpcp", "--optimize", str(f)]) == 0
        assert "answer=yes min_size=0 witness= " in capsys.readouterr().out


def test_cpp_optimize_auto_matches_dp_past_oracle(tmp_path):
    """cpp --optimize: the search, whose leaves settle in the deletion DP or
    cut & count, and cut & count on the whole graph climbing from the
    deletion DP's minimum find the same minimum; every witness the search
    prints verifies at that size, and up to 14 vertices the oracle agrees.
    A whole-graph cut & count DP costs 5^width per bag, so graphs whose
    decomposition is wider than 5 are left out."""
    from copack.decomp import decomposition_for, to_nice
    from copack.generators import planted_graph, proper_graph
    from copack.oracles import ORACLE_LIMIT, oracle_min, verify

    graphs = [planted_graph(n, k, seed) for seed in range(3)
              for n, k in ((10, 2), (16, 3), (20, 3), (24, 4), (28, 4), (30, 4), (40, 5), (50, 4), (56, 4))]
    graphs += [proper_graph(n, seed) for seed in range(3) for n in (12, 14, 20, 28, 36, 44, 52, 60)]
    # proper graphs whose cpp minimum is above their cpcp minimum
    graphs += [proper_graph(13, 66), proper_graph(16, 110), proper_graph(17, 3)]
    f = tmp_path / "g.gr"
    checked = witnessed = leaves = 0
    for seed, g in enumerate(graphs):
        if to_nice(decomposition_for(g)).width > 5:
            continue
        f.write_text(write_graph(g))
        auto, dp = (command_solve(RunConfig(problem="cpp", optimize=True, mode=mode, seed=seed), str(f))[0]
                    for mode in ("auto", "dp"))
        mn = auto["min_size"]
        assert mn == dp["min_size"], (seed, g.edges(), auto, dp)
        if g.alive_count <= ORACLE_LIMIT:
            assert mn == oracle_min(g, "cpp"), (seed, g.edges())
        if "witness" in auto:
            wit = {int(v) for v in auto["witness"].split(",") if v}
            assert len(wit) == mn and verify(g, wit, "cpp"), (seed, g.edges())
            witnessed += 1
        else:
            assert auto["cc_calls"] > 0, (seed, g.edges())
        checked += g.alive_count > ORACLE_LIMIT
        leaves += auto["dp_calls"]
    assert checked >= 30 and witnessed >= 30 and leaves >= 40, (checked, witnessed, leaves)


def test_bdd_rejects_branch_mode(tmp_path, capsys):
    """argparse rejects --mode branch, which no route has; bdd runs in the
    other three modes."""
    f = tmp_path / "g.gr"
    f.write_text(write_graph(gnm_graph(8, 13, seed=5)))
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--problem", "bdd", "--d", "1", "--mode=branch", "-k", "3", str(f)])
    assert exc.value.code == 2 and "invalid choice" in capsys.readouterr().err
    for mode in ("auto", "dp", "oracle"):
        assert main(["solve", "--problem", "bdd", "--d", "1", "--mode", mode, "-k", "3", str(f)]) in (0, 1)


def test_oracle_records_carry_verified_witnesses(tmp_path):
    """--mode oracle prints the minimum set it found, for every problem, and
    no set when the budget is below it."""
    from copack.generators import complete_graph
    from copack.oracles import verify

    for g in (complete_graph(7), gnm_graph(8, 13, seed=5)):
        f = tmp_path / "g.gr"
        f.write_text(write_graph(g))
        for problem, d in (("cpcp", None), ("cpp", None), ("bdd", 1)):
            rec, code = command_solve(RunConfig(problem=problem, d=d, optimize=True, mode="oracle"), str(f))
            wit = {int(v) for v in rec["witness"].split(",")}
            assert code == 0 and len(wit) == rec["min_size"] and verify(g, wit, problem, d)
            below, code = command_solve(
                RunConfig(problem=problem, d=d, k=rec["min_size"] - 1, mode="oracle"), str(f)
            )
            assert code == 1 and "witness" not in below


def test_main_exit_codes(tmp_path, capsys):
    f = tmp_path / "c6.gr"
    f.write_text(command_gen("cycle", [6]))
    assert main(["solve", "--problem", "cpp", "-k", "0", str(f)]) == 1
    out = capsys.readouterr().out
    assert "answer=no" in out
    assert main(["solve", "--problem", "cpp", "-k", "1", str(f)]) == 0
    assert main(["solve", "--problem", "cpcp", str(f)]) == 2  # no k, no optimize
    assert main(["gen", "cycle", "6"]) == 0
    assert "p edge 6 6" in capsys.readouterr().out
    assert main(["factors"]) == 0
    assert "step5" in capsys.readouterr().out
    assert main(["solve", "--problem", "cpcp", "-k", "1", str(tmp_path / "missing.gr")]) == 2


def test_validate_refuses_bad_configurations(tmp_path, capsys, monkeypatch):
    """Each configuration RunConfig.validate refuses exits 2 through main,
    with one error line and no record, before the graph is decomposed."""
    import copack.cli

    def decomposed(g):
        raise AssertionError("decomposed before the configuration was checked")

    monkeypatch.setattr(copack.cli, "decomposition_for", decomposed)
    f = tmp_path / "c6.gr"
    f.write_text(command_gen("cycle", [6]))
    for argv, message in ((["--problem", "bdd", "--d", "-1", "--optimize"], "bdd needs d >= 0"),
                          (["--problem", "bdd", "-k", "1"], "bdd needs d >= 0"),
                          (["--problem", "cpcp", "--d", "1", "-k", "1"], "--d is meaningless outside bdd"),
                          (["--problem", "cpp", "-k", "1", "--repeats", "0"], "repeats must be >= 1"),
                          (["--problem", "cpcp", "-k", "-1"], "k must be >= 0")):
        assert main(["solve", str(f)] + argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == "error: %s\n" % message, argv
    with pytest.raises(ValueError, match="unknown mode 'x'"):
        RunConfig(problem="cpp", k=1, mode="x").validate()


def test_format_errors_name_their_line(tmp_path, capsys):
    """A duplicate header, negative header counts, an edge line of one or
    three fields and a bag out of sequence each raise a format error naming
    its line, and solve exits 2 on them with that error."""
    graphs = (("p edge 2 1\np edge 2 1\ne 1 2\n", 2, "duplicate header"),
              ("c n < 0\np edge -1 0\n", 2, "negative counts in header"),
              ("p edge 2 -1\n", 1, "negative counts in header"),
              ("p edge 2 1\n\ne 1\n", 3, "expected 'e <u> <v>'"),
              ("p edge 3 1\ne 1 2 3\n", 2, "expected 'e <u> <v>'"))
    f = tmp_path / "g.gr"
    for text, line, message in graphs:
        with pytest.raises(GraphFormatError) as exc:
            parse_graph(text)
        assert exc.value.line == line and str(exc.value) == "line %d: %s" % (line, message), text
        f.write_text(text)
        assert main(["solve", "--problem", "cpcp", "-k", "1", str(f)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == "error: %s\n" % exc.value

    text = "p pd 2 2 3\nb 1 1 2\nb 3 2 3\n"
    with pytest.raises(GraphFormatError) as exc:
        parse_decomposition(text)
    assert exc.value.line == 3 and str(exc.value) == "line 3: expected 'b 2 <v1> <v2> ...'"
    f.write_text("p edge 3 2\ne 1 2\ne 2 3\n")
    df = tmp_path / "p3.pd"
    df.write_text(text)
    assert main(["solve", "--problem", "cpcp", "-k", "1", "--mode", "dp", "--decomposition", str(df), str(f)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: %s\n" % exc.value


def test_cpp_solves_a_planted_graph_of_220_vertices(tmp_path, capsys):
    """At -k 20 the search answers yes; every leaf it reaches settles in the
    deletion DP, whose witness leaves no cycle, so no cut & count runs. The
    cut & count table's memory is gated on a cpp --mode dp solve in CI."""
    assert main(["gen", "planted", "--forest-n", "200", "--k", "20", "--seed", "3"]) == 0
    f = tmp_path / "planted.gr"
    f.write_text(capsys.readouterr().out)
    assert main(["solve", "--problem", "cpp", "-k", "20", str(f)]) == 0
    assert "answer=yes" in capsys.readouterr().out


def test_bdd_optimize_on_a_planted_graph_of_220_vertices(tmp_path, capsys):
    """One deletion DP over a greedy decomposition of width 11 per d. With
    every reachable labelling kept, these took 5-35 s and up to 208 MB; with
    dominated labellings dropped, well under a second each."""
    from copack.oracles import verify

    assert main(["gen", "planted", "--forest-n", "200", "--k", "20", "--seed", "3"]) == 0
    f = tmp_path / "planted.gr"
    f.write_text(capsys.readouterr().out)
    g = parse_graph(f.read_text())
    for d, mn in ((1, 57), (2, 15), (3, 5)):
        rec, code = command_solve(RunConfig(problem="bdd", d=d, optimize=True), str(f))
        wit = {int(v) for v in rec["witness"].split(",")}
        assert code == 0 and rec["min_size"] == mn and len(wit) == mn and verify(g, wit, "bdd", d), d


def test_main_internal_error_exits_2(tmp_path, capsys, monkeypatch):
    """The search depth does not grow the interpreter's stack, and a solver
    fault is an error, not a no."""
    import sys

    import copack.cli
    from copack.errors import InternalSolverError
    from copack.graph import Graph

    k8s = [(8 * c + i, 8 * c + j) for c in range(40) for i in range(8) for j in range(i + 1, 8)]
    f = tmp_path / "k8s.gr"
    f.write_text(write_graph(Graph.from_edges(320, k8s)))
    argv = ["solve", "--problem", "cpcp", "-k", "240", str(f)]
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 60)
    try:
        code = main(argv)
    finally:
        sys.setrecursionlimit(old)
    assert code == 0 and "answer=yes" in capsys.readouterr().out

    def broken(*args, **kwargs):
        raise InternalSolverError("branch decrements [1], expected [2]")

    monkeypatch.setattr(copack.cli, "solve_cpcp", broken)
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "Traceback" not in captured.err


def test_exact_route_witness_is_verified(tmp_path, capsys, monkeypatch):
    """A whole-graph DP that claims a witness deleting nothing from K4 at
    d = 1 is caught by verify and reported as an internal error."""
    import copack.cli
    from copack.generators import complete_graph

    f = tmp_path / "k4.gr"
    f.write_text(write_graph(complete_graph(4)))
    monkeypatch.setattr(copack.cli, "bdd_dp_solve", lambda *args: (0, set()))
    assert main(["solve", "--problem", "bdd", "--d", "1", "-k", "2", str(f)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: internal ") and captured.err.count("\n") == 1


def test_huge_header_is_refused_before_allocating(tmp_path):
    import tracemalloc

    from copack.dimacs import MAX_VERTICES
    from copack.errors import SizeLimitError

    assert parse_graph("p edge %d 0\n" % MAX_VERTICES).size == MAX_VERTICES
    # just past the limit first, so that a missing check costs megabytes, not the machine
    for n in (MAX_VERTICES + 1, 10**9):
        tracemalloc.start()
        try:
            with pytest.raises(SizeLimitError):
                parse_graph("p edge %d 0\n" % n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
    f = tmp_path / "huge.gr"
    f.write_text("p edge 1000000000 0\n")
    assert main(["solve", "--problem", "cpcp", "-k", "1", str(f)]) == 2


def test_cpp_fail_bound_sums_every_leaf_decision(tmp_path, monkeypatch):
    """Two disjoint proper components whose deletion-DP witnesses leave a
    cycle: the exact search makes cut & count decisions in both, counted in
    cc_calls, and the bound is taken over every one of them. A record with
    no cut & count decision prints a bound of 0."""
    from copack import cutcount, decomp
    from copack.generators import proper_graph
    from copack.graph import Graph

    # which cycles the deletion DP's witness leaves depends on the
    # decomposition; these counts are pinned on the exact one
    monkeypatch.setattr(decomp, "decomposition_for", exact_decomposition_for)
    a, b = proper_graph(13, 66), proper_graph(12, 9)
    edges = a.edges() + [(u + a.size, v + a.size) for u, v in b.edges()]
    f = tmp_path / "g.gr"
    f.write_text(write_graph(Graph.from_edges(a.size + b.size, edges)))
    decisions = []
    decide = cutcount.decide_cpp

    def counted(*args):
        decisions.append(args)
        return decide(*args)

    monkeypatch.setattr(cutcount, "decide_cpp", counted)
    rec, code = command_solve(RunConfig(problem="cpp", optimize=True, repeats=4), str(f))
    assert code == 0 and rec["min_size"] == 5 and "witness" not in rec
    assert rec["dp_calls"] == 2 and rec["cc_calls"] == len(decisions) == 3
    assert rec["fail_bound"] == "%.3g" % (3 * (1.0 / 3.0) ** 4)
    f.write_text(write_graph(proper_graph(14, 1)))
    rec, code = command_solve(RunConfig(problem="cpp", optimize=True, repeats=4), str(f))
    assert code == 0 and rec["cc_calls"] == 0 and rec["fail_bound"] == "0" and "witness" in rec


def test_dp_mode_cpp_optimize_climbs_from_the_deletion_minimum(tmp_path, monkeypatch):
    """cpp --mode dp decomposes once and runs the deletion DP once; its
    cut & count decisions climb from the DP's minimum, which also refutes
    any smaller k without a cut & count decision."""
    import copack.cli
    from copack import cutcount
    from copack.generators import proper_graph

    calls = {"decomposition_for": 0, "bdd_dp_solve": 0}
    budgets = []

    def counted(name, fn):
        def run(*args):
            calls[name] += 1
            return fn(*args)
        return run

    for name in calls:
        monkeypatch.setattr(copack.cli, name, counted(name, getattr(copack.cli, name)))
    decide = cutcount.decide_cpp

    def recording(g, k, *args):
        budgets.append(k)
        return decide(g, k, *args)

    monkeypatch.setattr(cutcount, "decide_cpp", recording)
    f = tmp_path / "g.gr"
    # (graph, cpcp minimum, cpp minimum)
    for g, floor, mn in ((gnm_graph(16, 34, seed=2), 6, 7), (proper_graph(13, 66), 2, 3)):
        f.write_text(write_graph(g))
        for name in calls:
            calls[name] = 0
        budgets.clear()
        rec, code = command_solve(RunConfig(problem="cpp", optimize=True, mode="dp"), str(f))
        assert code == 0 and rec["min_size"] == mn and "witness" not in rec
        assert calls == {"decomposition_for": 1, "bdd_dp_solve": 1} and rec["dp_calls"] == 1
        assert budgets == list(range(floor, mn + 1)) and rec["cc_calls"] == len(budgets)
        # a no spends every repeat, the yes at the minimum at least one
        assert 10 * (mn - floor) < rec["repeats"] <= 10 * (mn - floor + 1)
        budgets.clear()
        rec, code = command_solve(RunConfig(problem="cpp", k=floor - 1, mode="dp"), str(f))
        assert code == 1 and budgets == [] and rec["cc_calls"] == 0 and rec["fail_bound"] == "0"


def test_exact_optimize_solves_once(tmp_path, monkeypatch):
    """bdd --optimize decomposes and runs the DP once; its minimum and
    witness are those of the -k runs at the minimum and one below."""
    import copack.cli
    from copack.oracles import verify

    f = tmp_path / "g.gr"
    g = gnm_graph(12, 22, seed=4)
    f.write_text(write_graph(g))
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return decomposition_for(*args, **kwargs)

    decomposition_for = copack.cli.decomposition_for
    monkeypatch.setattr(copack.cli, "decomposition_for", counted)
    rec, code = command_solve(RunConfig(problem="bdd", d=1, optimize=True), str(f))
    assert code == 0 and len(calls) == 1 and rec["dp_calls"] == 1
    mn = rec["min_size"]
    wit = {int(v) for v in rec["witness"].split(",")}
    assert len(wit) == mn and verify(g, wit, "bdd", 1)

    at_min, code = command_solve(RunConfig(problem="bdd", d=1, k=mn), str(f))
    assert code == 0 and at_min["min_size"] == mn and at_min["witness"] == rec["witness"]
    below, code = command_solve(RunConfig(problem="bdd", d=1, k=mn - 1), str(f))
    assert code == 1 and below["min_size"] == mn and "witness" not in below


def test_connected_chain_search_stays_off_the_stack(tmp_path, capsys):
    """A connected chain makes the search 200 branch nodes deep; its
    component and child frames run off an explicit stack."""
    import sys

    from copack.graph import Graph

    # centre 5i has four pendant leaves and joins the next centre
    edges = [(5 * i, 5 * i + j) for i in range(200) for j in range(1, 5)]
    edges += [(5 * i, 5 * i + 5) for i in range(199)]
    f = tmp_path / "chain.gr"
    f.write_text(write_graph(Graph.from_edges(1000, edges)))
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 60)
    try:
        code = main(["solve", "--problem", "cpcp", "-k", "200", str(f)])
    finally:
        sys.setrecursionlimit(old)
    assert code == 0 and "answer=yes" in capsys.readouterr().out


def test_cpcp_optimize_is_one_exact_search(tmp_path, monkeypatch):
    """cpcp and cpp --optimize in auto mode run the search once, in exact
    mode, and print the minimum the oracle or the whole-graph route finds.
    A printed witness verifies and has that size: cpcp always prints one,
    cpp unless a cut & count leaf is in the search's solution."""
    import copack.cli
    from copack.generators import planted_graph, proper_graph
    from copack.oracles import verify

    calls = []

    def counted(solve):
        def run(g, k, *args):
            calls.append(args[-1])  # exact, the last argument of both solvers
            return solve(g, k, *args)
        return run

    for name in ("solve_cpcp", "solve_cpp"):
        monkeypatch.setattr(copack.cli, name, counted(getattr(copack.cli, name)))
    f = tmp_path / "g.gr"
    witnesses = {"cpcp": 0, "cpp": 0}
    for g in (gnm_graph(12, 22, seed=4), proper_graph(13, 66), planted_graph(30, 4, 0), planted_graph(48, 6, 1)):
        f.write_text(write_graph(g))
        # the oracle up to its 14 vertices, the whole-graph route past them
        mode = "oracle" if g.alive_count <= 14 else "dp"
        for problem in ("cpcp", "cpp"):
            mn = command_solve(RunConfig(problem=problem, optimize=True, mode=mode), str(f))[0]["min_size"]
            calls.clear()
            rec, code = command_solve(RunConfig(problem=problem, optimize=True), str(f))
            assert code == 0 and calls == [True] and rec["min_size"] == mn
            assert ("fail_bound" in rec) == (problem == "cpp")
            if "witness" in rec:
                wit = {int(v) for v in rec["witness"].split(",") if v}
                assert len(wit) == mn and verify(g, wit, problem), (problem, g.edges())
                witnesses[problem] += 1
            else:
                assert problem == "cpp" and rec["cc_calls"] > 0
    assert witnesses == {"cpcp": 4, "cpp": 3}


def test_cli_import_leaves_numpy_out():
    """The package has no runtime dependency: importing the CLI loads no numpy."""
    import os
    import subprocess
    import sys

    import copack

    src = os.path.dirname(os.path.dirname(os.path.abspath(copack.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run(
        [sys.executable, "-c", "import sys, copack.cli; print('numpy' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "False"
