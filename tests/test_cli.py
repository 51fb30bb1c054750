import random

import pytest

from copack.cli import RunConfig, command_factors, command_gen, command_solve, main
from copack.decomp import parse_decomposition
from copack.dimacs import parse_graph, write_graph
from copack.errors import GraphFormatError
from copack.generators import gnm_graph
from conftest import random_graph


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
    # the DP routes read the file, which here is missing
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
    """cpp --optimize: the search, whose components settle on the cpcp
    floor or branch on a cycle its witness leaves, and cut & count on the
    whole graph climbing from the deletion DP's minimum find the same
    minimum; the search prints a witness that verifies at that size on
    every graph, and up to 14 vertices the oracle agrees.
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
    checked = solved = leaves = 0
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
        wit = {int(v) for v in auto["witness"].split(",") if v}
        assert len(wit) == mn and verify(g, wit, "cpp"), (seed, g.edges())
        solved += 1
        checked += g.alive_count > ORACLE_LIMIT
        leaves += auto["dp_calls"]
    assert checked >= 30 and solved >= 30 and leaves >= 40, (checked, solved, leaves)


def test_cpp_optimize_auto_matches_dp_up_to_100_vertices(tmp_path):
    """cpp --optimize in auto mode, which settles components on the cpcp
    floor and branches on the cycles its witness leaves, reads the minimum
    --mode dp does on seeded proper graphs of 20-50 vertices and planted
    graphs of 22-110, and prints a verified witness with no cut & count
    decision. Graphs whose decomposition is wider than 5 are left out, as
    the dp route's cut & count costs 5^width per bag."""
    from copack.decomp import decomposition_for, to_nice
    from copack.generators import planted_graph, proper_graph
    from copack.oracles import verify

    graphs = [proper_graph(n, seed) for seed in range(3) for n in (20, 30, 40, 50)]
    graphs += [planted_graph(n, n // 10, seed) for seed in range(3) for n in (20, 40, 60, 80, 90, 100)]
    f = tmp_path / "g.gr"
    checked = 0
    for seed, g in enumerate(graphs):
        if to_nice(decomposition_for(g)).width > 5:
            continue
        f.write_text(write_graph(g))
        auto, dp = (command_solve(RunConfig(problem="cpp", optimize=True, mode=mode, seed=seed), str(f))[0]
                    for mode in ("auto", "dp"))
        assert auto["min_size"] == dp["min_size"] and auto["cc_calls"] == 0, (seed, g.edges())
        wit = {int(v) for v in auto["witness"].split(",") if v}
        assert len(wit) == auto["min_size"] and verify(g, wit, "cpp"), (seed, g.edges())
        checked += 1
    assert checked >= 24, checked


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


def test_main_builds_its_parser_once(tmp_path, monkeypatch):
    """Every main call after the first reuses the parser the first built,
    through solve, gen, factors, a failing solve and a second solve."""
    import argparse

    import copack.cli

    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    copack.cli._parser.cache_clear()
    f = tmp_path / "c6.gr"
    f.write_text(command_gen("cycle", [6]))
    assert main(["solve", "--problem", "cpp", "-k", "1", str(f)]) == 0
    first = len(built)
    assert first > 0
    for argv, code in ((["gen", "cycle", "6"], 0),
                       (["factors"], 0),
                       (["solve", "--problem", "cpcp", "-k", "1", str(tmp_path / "missing.gr")], 2),
                       (["solve", "--problem", "cpp", "-k", "0", str(f)], 1)):
        assert main(argv) == code, argv
        assert len(built) == first, argv


def test_shared_parser_carries_no_state_between_calls(tmp_path, capsys, monkeypatch):
    """Options given to one call do not leak into the next, each gen prints
    its own graph, and --help and an invalid choice exit the same way every
    time."""
    import copack.cli

    configs = []

    def captured(cfg, path):
        configs.append(cfg)
        return {"answer": "yes"}, 0

    monkeypatch.setattr(copack.cli, "command_solve", captured)
    f = tmp_path / "c6.gr"
    f.write_text(command_gen("cycle", [6]))
    pd = tmp_path / "c6.pd"
    pd.write_text("unread")
    assert main(["solve", str(f), "--problem", "cpp", "--seed", "5", "--repeats", "3", "--mode", "dp",
                 "--decomposition", str(pd), "-k", "2"]) == 0
    assert main(["solve", str(f), "--problem", "cpcp", "--optimize"]) == 0
    # the second call's options are all defaults: seed 0, repeats 10, auto
    # mode, no decomposition, k and d None
    assert configs == [RunConfig(problem="cpp", k=2, mode="dp", seed=5, repeats=3, decomposition=str(pd)),
                       RunConfig(problem="cpcp", optimize=True)]
    capsys.readouterr()

    for argv in (["grid", "3", "4"], ["cycle", "6"]):
        assert main(["gen"] + argv) == 0
        assert capsys.readouterr().out == command_gen(argv[0], [int(v) for v in argv[1:]])

    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0 and capsys.readouterr().out.startswith("usage: copack")
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            main(["solve", str(f), "--problem", "cpp", "--mode=branch", "-k", "1"])
        assert exc.value.code == 2 and "invalid choice" in capsys.readouterr().err
    assert len(configs) == 2


def test_record_carries_every_solve_counter(tmp_path, monkeypatch):
    """A solve record carries each SolveStats field once, in field order,
    with the value the solve returned."""
    import copack.cli
    from copack.branching import SolveStats

    names = list(vars(SolveStats()))
    stats = SolveStats(**{name: 11 * (i + 1) for i, name in enumerate(names)})
    monkeypatch.setattr(copack.cli, "_solve_decision", lambda g, cfg: (True, {0}, None, stats))
    f = tmp_path / "c6.gr"
    f.write_text(command_gen("cycle", [6]))
    for cfg in (RunConfig(problem="cpp", k=1), RunConfig(problem="bdd", d=1, k=2)):
        rec, code = command_solve(cfg, str(f))
        assert code == 0 and rec["witness"] == "0"
        assert [key for key in rec if key in names] == names
        assert {name: rec[name] for name in names} == {name: getattr(stats, name) for name in names}


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
    """One deletion DP per d, on the graph without its low-degree edges
    (width 10 at d = 1). With every reachable labelling kept, the DP on the
    whole graph's greedy decomposition of width 11 took 5-35 s and up to
    208 MB; with dominated labellings dropped, well under a second each."""
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

    from copack import branching
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

    monkeypatch.setattr(branching, "solve_cpcp", broken)
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
    """cpp --mode dp prints fail_bound, the union bound
    cc_calls * (1/3)^repeats over every cut & count decision of the climb,
    and 0 when the deletion DP refutes k without one. Auto mode makes no
    cut & count decision and prints no bound."""
    from copack import cutcount
    from copack.generators import proper_graph

    decisions = []
    decide = cutcount.decide_cpp

    def counted(*args):
        decisions.append(args)
        return decide(*args)

    monkeypatch.setattr(cutcount, "decide_cpp", counted)
    f = tmp_path / "g.gr"
    # (graph, cpcp minimum, cpp minimum)
    for g, floor, mn in ((gnm_graph(16, 34, seed=2), 6, 7), (proper_graph(13, 66), 2, 3)):
        f.write_text(write_graph(g))
        decisions.clear()
        rec, code = command_solve(RunConfig(problem="cpp", optimize=True, mode="dp", repeats=4), str(f))
        assert code == 0 and rec["min_size"] == mn
        assert rec["cc_calls"] == len(decisions) == mn - floor + 1
        assert rec["fail_bound"] == "%.3g" % (len(decisions) * (1.0 / 3.0) ** 4) != "0"
        decisions.clear()
        rec, code = command_solve(RunConfig(problem="cpp", k=floor - 1, mode="dp", repeats=4), str(f))
        assert code == 1 and decisions == [] and rec["fail_bound"] == "0"
        rec, code = command_solve(RunConfig(problem="cpp", optimize=True, repeats=4), str(f))
        assert code == 0 and rec["min_size"] == mn and decisions == [] and "fail_bound" not in rec


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
    mode, and print the minimum the oracle or the whole-graph route finds,
    with a witness of that size that verifies. No auto record prints a
    fail_bound: the search makes no cut & count decision."""
    from copack import branching
    from copack.generators import planted_graph, proper_graph
    from copack.oracles import verify

    calls = []

    def counted(solve):
        def run(g, k, *args):
            calls.append(args[-1])  # exact, the last argument of both solvers
            return solve(g, k, *args)
        return run

    for name in ("solve_cpcp", "solve_cpp"):
        monkeypatch.setattr(branching, name, counted(getattr(branching, name)))
    f = tmp_path / "g.gr"
    for g in (gnm_graph(12, 22, seed=4), proper_graph(13, 66), planted_graph(30, 4, 0), planted_graph(48, 6, 1)):
        f.write_text(write_graph(g))
        # the oracle up to its 14 vertices, the whole-graph route past them
        mode = "oracle" if g.alive_count <= 14 else "dp"
        for problem in ("cpcp", "cpp"):
            mn = command_solve(RunConfig(problem=problem, optimize=True, mode=mode), str(f))[0]["min_size"]
            calls.clear()
            rec, code = command_solve(RunConfig(problem=problem, optimize=True), str(f))
            assert code == 0 and calls == [True] and rec["min_size"] == mn and "fail_bound" not in rec
            wit = {int(v) for v in rec["witness"].split(",") if v}
            assert len(wit) == mn and verify(g, wit, problem), (problem, g.edges())


def test_cli_import_leaves_numpy_out(tmp_path):
    """The package has no runtime dependency: importing the CLI loads no
    numpy. Nor does it build the parser, which waits for the first main.
    A fresh process loads only what its command runs: `import copack` and
    --help load no solver and no dataclasses, and a cpcp solve no cut &
    count, generators or dataclasses."""
    import os
    import subprocess
    import sys

    import copack

    src = os.path.dirname(os.path.dirname(os.path.abspath(copack.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, copack.cli; print('numpy' in sys.modules, copack.cli._parser.cache_info().currsize)"],
        env=env, capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "False 0"

    def loaded(*args):
        """The modules a fresh interpreter imports running args."""
        run = subprocess.run([sys.executable, "-X", "importtime", *args], env=env, capture_output=True,
                             text=True, check=True)
        return {line.rsplit("|", 1)[1].strip() for line in run.stderr.splitlines()
                if line.startswith("import time:")}

    bare = loaded("-c", "pass")  # what the interpreter's own start-up imports
    unused = {"dataclasses", "copack.branching", "copack.cutcount", "copack.generators", "copack.oracles"}
    assert [m for m in loaded("-c", "import copack") - bare if m.startswith("copack.") or m in unused] == []
    assert (loaded("-m", "copack.cli", "--help") - bare) & unused == set()
    f = tmp_path / "c6.gr"
    f.write_text(command_gen("cycle", [6]))
    solve = loaded("-m", "copack.cli", "solve", "--problem", "cpcp", "-k", "2", str(f)) - bare
    assert "copack.branching" in solve
    assert solve & {"dataclasses", "copack.cutcount", "copack.generators"} == set()


# every name the package exported when its __init__ imported each submodule
PACKAGE_NAMES = (
    "BranchSet Graph GraphFormatError Instance InternalSolverError NiceEventSequence PathDecomposition "
    "SizeLimitError SolveOutcome SolveStats Violation WeightAssignment bdd bdd_dp_solve branch_b1 branch_b2 "
    "branching branching_factor cutcount decide_cpp decide_cpp_once decomp derive_seed dimacs errors "
    "exact_pathwidth graph guard_check heuristic_pd is_proper oracle_min oracle_witness oracles parity_dp "
    "parse_decomposition parse_graph reduce_cpcp reduce_cpp sample_weights solve_cpcp solve_cpp to_nice "
    "validate verify write_decomposition write_graph"
).split()


def test_package_exports_resolve_lazily():
    """Each name the package exports is the object its defining module
    holds, `from copack import *` binds every one, the README's import line
    runs as written, and an unknown name raises AttributeError."""
    import importlib
    import os
    import sys

    import copack

    assert copack.__all__ == sorted(PACKAGE_NAMES) and set(PACKAGE_NAMES) <= set(dir(copack))
    for name in PACKAGE_NAMES:
        obj = getattr(copack, name)
        if name in ("bdd", "branching", "cutcount", "decomp", "dimacs", "errors", "graph", "oracles"):
            assert obj is importlib.import_module("copack." + name), name
        else:
            assert obj.__module__.startswith("copack.") and getattr(sys.modules[obj.__module__], name) is obj, name
    star: dict = {}
    exec("from copack import *", star)
    assert all(star[name] is getattr(copack, name) for name in PACKAGE_NAMES)
    readme = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")
    with open(readme) as fh:
        line = next(line for line in fh if line.startswith("from copack import"))
    shown: dict = {}
    exec(line, shown)
    assert shown["solve_cpcp"] is copack.branching.solve_cpcp and shown["Graph"] is copack.graph.Graph
    with pytest.raises(AttributeError, match="no_such_name"):
        copack.no_such_name
    with pytest.raises(ImportError):
        exec("from copack import no_such_name", {})


def subdivided_graph(core_n, core_m, seed):
    """gnm(core_n, core_m, seed) with each edge replaced by a path through
    0 to 2 new vertices: hubs joined by chains of degree-2 vertices."""
    from copack.graph import Graph

    rng = random.Random(seed)
    edges, n = [], core_n
    for u, v in gnm_graph(core_n, core_m, seed).edges():
        inner = list(range(n, n + rng.randint(0, 2)))
        n += len(inner)
        path = [u] + inner + [v]
        edges += list(zip(path, path[1:]))
    return Graph.from_edges(n, edges)


def theta_graph(chains):
    """Hubs 0 and 1 joined by one chain of c >= 1 inner vertices for each c in
    chains."""
    from copack.graph import Graph

    edges, n = [], 2
    for c in chains:
        path = [0] + list(range(n, n + c)) + [1]
        n += c
        edges += list(zip(path, path[1:]))
    return Graph.from_edges(n, edges)


def record_dp_graphs(monkeypatch):
    """A list that gets each graph the CLI hands `bdd_dp_solve`."""
    import copack.cli

    handed = []
    dp = copack.cli.bdd_dp_solve

    def recording(h, *args):
        handed.append(h)
        return dp(h, *args)

    monkeypatch.setattr(copack.cli, "bdd_dp_solve", recording)
    return handed


def test_bdd_auto_splits_on_low_degree_edges(tmp_path, monkeypatch):
    """bdd in auto mode drops every edge whose ends both have degree <= d
    and runs one deletion DP on what is left. At d = 0-3 its minimum equals
    the whole-graph DP's (--mode dp) on gnm, proper, planted, theta and
    subdivided graphs, and the oracle's up to 14 vertices; past the oracle
    (20 to 100 vertices) it is checked against --mode dp alone. Every
    witness verifies on the whole graph, and --mode dp hands the DP every
    edge. The rule must split graphs: the components with an edge in the
    graph the DP gets, beyond one per component of the input with a vertex
    of degree > d, number at least 30 within the oracle's reach and 120
    past it (39 and 151 on these seeds)."""
    from copack.generators import planted_graph, proper_graph
    from copack.oracles import oracle_min, verify

    handed = record_dp_graphs(monkeypatch)
    rng = random.Random(2701)
    f = tmp_path / "g.gr"
    added = {True: 0, False: 0}  # by whether the oracle checks the graph
    for t in range(160):
        small = t < 96
        n = rng.randint(6, 13) if small else rng.randint(20, 100)
        kind = t % 4
        if kind == 0:
            g = gnm_graph(n, rng.randint(n // 2, 3 * n // 2 if small else n), t)
        elif kind == 1:
            g = proper_graph(n, t)
        elif kind == 2:
            g = planted_graph(n - n // 6, n // 6, t)
        elif small:
            g = theta_graph([rng.randint(2, 3) for _ in range(rng.randint(3, 4))])
        else:
            g = subdivided_graph(n // 3, n // 3 + rng.randint(0, 3), t)
        f.write_text(write_graph(g))
        for d in (0, 1, 2, 3):
            handed.clear()
            auto, code = command_solve(RunConfig(problem="bdd", d=d, optimize=True), str(f))
            whole, _ = command_solve(RunConfig(problem="bdd", d=d, optimize=True, mode="dp"), str(f))
            wit = {int(v) for v in auto["witness"].split(",") if v}
            assert code == 0 and auto["min_size"] == whole["min_size"] == len(wit), (t, d)
            assert verify(g, wit, "bdd", d), (t, d)
            if small:
                assert auto["min_size"] == oracle_min(g, "bdd", d), (t, d)
            h, whole_h = handed
            assert auto["dp_calls"] == 1 and whole_h.edges() == g.edges(), (t, d)
            high = sum(1 for c in g.components() if any(g.degree(v) > d for v in c))
            leaves = sum(1 for c in h.components() if any(h.degree(v) for v in c))
            assert leaves >= high
            added[small] += leaves - high
    assert added[True] >= 30 and added[False] >= 120, added


def test_bdd_auto_with_a_decomposition_drops_low_degree_edges(tmp_path, monkeypatch, capsys):
    """bdd in auto mode given --decomposition validates the file against
    the input graph and runs the DP on the graph without its low-degree
    edges, at --mode dp's minimum. A file whose one fault is a missing bag
    for an edge the rule drops still exits 2 naming P2."""
    from copack.decomp import PathDecomposition, decomposition_for, write_decomposition
    from copack.graph import Graph, low_degree_edges
    from copack.oracles import verify

    handed = record_dp_graphs(monkeypatch)
    # two triangles joined at 2 and 3: at d = 2 the rule drops (0, 1) and
    # (4, 5), whose ends have degree 2, and keeps the degree-3 ends' edges
    g = Graph.from_edges(6, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (3, 5), (4, 5)])
    gf, df = tmp_path / "g.gr", tmp_path / "g.pd"
    gf.write_text(write_graph(g))
    df.write_text(write_decomposition(decomposition_for(g)))
    for d, mn in ((0, 4), (1, 2), (2, 1), (3, 0)):
        dropped = set(low_degree_edges(g, d=d) or ())
        recs = []
        for mode in ("auto", "dp"):
            handed.clear()
            rec, code = command_solve(RunConfig(problem="bdd", d=d, optimize=True, mode=mode,
                                                decomposition=str(df)), str(gf))
            (h,) = handed
            assert code == 0 and rec["dp_calls"] == 1, (d, mode)
            assert set(h.edges()) == set(g.edges()) - (dropped if mode == "auto" else set()), (d, mode)
            assert h.alive_count == g.alive_count, (d, mode)
            recs.append(rec)
        assert recs[0]["min_size"] == recs[1]["min_size"] == mn, d
        wit = {int(v) for v in recs[0]["witness"].split(",") if v}
        assert len(wit) == mn and verify(g, wit, "bdd", d), d
    assert low_degree_edges(g, d=2) == [(0, 1), (4, 5)]
    # a decomposition of g without (0, 1): its one fault is that edge's bag
    df.write_text(write_decomposition(PathDecomposition([{0, 2}, {1, 2}, {2, 3}, {3, 4, 5}])))
    assert main(["solve", "--problem", "bdd", "--d", "2", "--optimize", "--decomposition", str(df), str(gf)]) == 2
    assert capsys.readouterr().err == "error: supplied decomposition invalid: P2 fails at edge (1, 2)\n"
