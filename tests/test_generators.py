import pytest

from copack.decomp import is_proper
from copack.generators import (
    complete_graph,
    cycle_graph,
    gnm_graph,
    grid_graph,
    path_graph,
    planted_graph,
    proper_graph,
)
from copack.oracles import oracle_min


def test_families():
    assert path_graph(5).edge_count == 4
    assert cycle_graph(6).edge_count == 6
    assert complete_graph(5).edge_count == 10
    g = grid_graph(3, 3)
    assert g.alive_count == 9 and g.edge_count == 12


def test_grid_refuses_negative_sizes():
    for rows, cols in ((-2, -3), (-1, 4), (4, -1)):
        with pytest.raises(ValueError):
            grid_graph(rows, cols)
    for rows, cols in ((0, 5), (5, 0)):
        g = grid_graph(rows, cols)
        assert g.alive_count == 0 and g.edge_count == 0


def test_gnm():
    g = gnm_graph(8, 12, seed=1)
    assert g.alive_count == 8 and g.edge_count == 12
    assert gnm_graph(8, 12, seed=1).edges() == g.edges()
    assert gnm_graph(8, 12, seed=2).edges() != g.edges()
    with pytest.raises(ValueError):
        gnm_graph(4, 10, seed=0)


def test_planted_feasibility():
    for seed in range(25):
        g = planted_graph(10, 3, seed=seed)
        assert g.alive_count == 13
        assert oracle_min(g, "cpp") <= 3
        assert oracle_min(g, "cpcp") <= 3


def test_planted_deterministic():
    a = planted_graph(12, 3, seed=7)
    b = planted_graph(12, 3, seed=7)
    assert a.edges() == b.edges()


def test_proper_generator():
    for n in (7, 10, 13, 16, 20):
        for s in range(4):
            g = proper_graph(n, seed=n * 10 + s)
            assert g.alive_count == n
            assert is_proper(g)
            assert len(g.components()) == 1


def test_proper_generator_scales():
    for n in range(6, 49):
        for s in range(5):
            g = proper_graph(n, seed=s)
            assert g.alive_count == n and is_proper(g) and len(g.components()) == 1, (n, s)
