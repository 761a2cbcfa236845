import math
import random

import networkx as nx
import numpy as np
import pytest

from cliquecount import Graph, core_numbers, degeneracy, degeneracy_orient, \
    degeneracy_stats

from conftest import (complete_graph, cycle_graph, empty_graph, path_graph,
                      quadratic_peel, random_gnp, star_graph)


def test_path_has_degeneracy_one():
    o = degeneracy_orient(path_graph(3))
    assert o.alpha == 1
    assert all(len(out) <= 1 for out in o.out_neighbors)


def test_cycle_has_degeneracy_two():
    assert degeneracy_orient(cycle_graph(5)).alpha == 2


def test_complete_graph_out_degrees_descend_along_order():
    n = 7
    o = degeneracy_orient(complete_graph(n))
    assert o.alpha == n - 1
    assert [o.out_degree(v) for v in o.order] == list(range(n - 1, -1, -1))


def test_star_has_degeneracy_one():
    o = degeneracy_orient(star_graph(10))
    assert degeneracy_stats(o)["alpha"] == 1


def test_k4_stats():
    stats = degeneracy_stats(degeneracy_orient(complete_graph(4)))
    assert stats["alpha"] == 3
    assert stats["max_core_size"] == 4
    assert sorted(stats["order"]) == [0, 1, 2, 3]


def test_empty_graph():
    o = degeneracy_orient(empty_graph(0))
    assert o.alpha == 0
    assert o.order == []
    assert degeneracy_stats(o)["max_core_size"] == 0


def test_isolated_vertices_ordered_first():
    # a triangle 1-2-4 with a pendant 6; 0, 3, 5 and 7 are isolated
    g = Graph.from_edges([(4, 1), (2, 4), (1, 2), (6, 4)], n=8)
    o = degeneracy_orient(g)
    assert o.order[:4] == [0, 3, 5, 7]
    assert [o.core_numbers[v] for v in (0, 3, 5, 7)] == [0, 0, 0, 0]
    assert o.order == quadratic_peel(g)[0]


@pytest.mark.parametrize("seed", range(12))
def test_orientation_invariants_random(seed):
    g = random_gnp(seed % 30 + 5, [0.1, 0.3, 0.6][seed % 3], seed)
    o = degeneracy_orient(g)
    out_degrees = [len(row) for row in o.out_neighbors]
    assert max(out_degrees, default=0) == o.alpha
    assert o.alpha == max(o.core_numbers, default=0)
    if g.m:
        assert o.alpha <= math.sqrt(2 * g.m)
    covered = 0
    for v in range(g.n):
        for u in o.out_neighbors[v]:
            assert o.rank[u] > o.rank[v], "orientation must be acyclic"
        ins = [u for u in range(g.n) if v in o.out_neighbors[u]]
        assert sorted(o.out_neighbors[v] + ins) == sorted(map(int, g.neighbors(v)))
        covered += len(o.out_neighbors[v])
    assert covered == g.m


def staircase_graph(top: int = 8, tail: int = 30) -> Graph:
    """Disjoint K2 ... Ktop, then a ``tail``-vertex path: the whole path
    goes at core 1, then the core rises once per clique, through a level 2
    that still lists the path's removed vertices."""
    edges, base = [], 0
    for size in range(2, top + 1):
        edges += [(base + i, base + j)
                  for i in range(size) for j in range(i + 1, size)]
        base += size
    edges += [(base + i, base + i + 1) for i in range(tail - 1)]
    return Graph.from_edges(edges, n=base + tail)


@pytest.mark.parametrize(
    "g", [random_gnp(4 + 4 * seed, 0.35, 1000 + seed) for seed in range(10)]
    + [staircase_graph()], ids=[*map(str, range(10)), "staircase"])
def test_order_matches_quadratic_peeler(g):
    o = degeneracy_orient(g)
    ref_order, ref_alpha = quadratic_peel(g)
    assert o.alpha == ref_alpha
    # both implementations use the lowest-id tie-break, so even the order
    # must agree, not just alpha
    assert o.order == ref_order


def networkx_cores(g: Graph) -> list[int]:
    gx = nx.Graph()
    gx.add_nodes_from(range(g.n))
    gx.add_edges_from(g.edges())
    cores = nx.core_number(gx)
    return [cores[v] for v in range(g.n)]


@pytest.mark.parametrize("seed", range(8))
def test_core_numbers_match_networkx(seed):
    g = random_gnp(25, 0.3, 2000 + seed)
    assert degeneracy_orient(g).core_numbers == networkx_cores(g)


def test_rank_is_inverse_of_order():
    g = random_gnp(20, 0.4, 99)
    o = degeneracy_orient(g)
    assert [o.rank[v] for v in o.order] == list(range(g.n))


def random_tree(n: int, seed: int) -> Graph:
    rng = random.Random(seed)
    return Graph.from_edges([(v, rng.randrange(v)) for v in range(1, n)], n=n)


CORE_GRAPHS = {
    "empty": empty_graph(0),
    "isolated": empty_graph(7),
    "star": star_graph(100),
    "K30": complete_graph(30),
    "tree": random_tree(3000, 7),
    "staircase": staircase_graph(12, 50),
    "path5000": path_graph(5000),
}


# A threshold of 1 peels every round in numpy, one of 10**9 every round in
# Python; the default mixes them (the path's rounds hold two vertices).
@pytest.mark.parametrize("small_round", [1, degeneracy.SMALL_ROUND, 10 ** 9],
                         ids=["numpy", "default", "python"])
@pytest.mark.parametrize("name", CORE_GRAPHS)
def test_core_numbers_match_peel_and_networkx(name, small_round, monkeypatch):
    monkeypatch.setattr(degeneracy, "SMALL_ROUND", small_round)
    g = CORE_GRAPHS[name]
    cores = core_numbers(g)
    assert cores.dtype == np.int64 and cores.shape == (g.n,)
    assert cores.tolist() == degeneracy_orient(g).core_numbers
    assert cores.tolist() == networkx_cores(g)


def test_core_numbers_leave_the_graph_alone():
    g = staircase_graph(12, 50)
    offsets, neighbors = g._offsets.copy(), g._neighbors.copy()
    core_numbers(g)
    assert np.array_equal(g._offsets, offsets)
    assert np.array_equal(g._neighbors, neighbors)
