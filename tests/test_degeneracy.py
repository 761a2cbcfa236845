import math
import random

import networkx as nx
import numpy as np
import pytest

from cliquecount import Graph, core_numbers, degeneracy, degeneracy_orient
from cliquecount import graph as graph_module

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
    assert [o.out_degree(v) for v in o.order.tolist()] == list(range(n - 1, -1, -1))


def test_star_has_degeneracy_one():
    o = degeneracy_orient(star_graph(10))
    assert o.alpha == 1


def test_k4_stats():
    o = degeneracy_orient(complete_graph(4))
    assert o.alpha == 3
    assert o.max_core_size() == 4
    assert sorted(o.order.tolist()) == [0, 1, 2, 3]


def test_orientation_fields_are_arrays():
    o = degeneracy_orient(random_gnp(15, 0.4, 5))
    assert o.order.dtype == np.int32 and o.order.shape == (15,)
    assert o.core_numbers.dtype == np.int64 and o.core_numbers.shape == (15,)
    assert not hasattr(o, "rank")


def test_empty_graph():
    o = degeneracy_orient(empty_graph(0))
    assert o.alpha == 0
    assert o.order.tolist() == []
    assert o.core_numbers.tolist() == []
    assert o.out_offsets.tolist() == [0] and o.out_targets.tolist() == []
    assert o.max_core_size() == 0


def test_isolated_vertices_ordered_first():
    # a triangle 1-2-4 with a pendant 6; 0, 3, 5 and 7 are isolated
    g = Graph.from_edges([(4, 1), (2, 4), (1, 2), (6, 4)], n=8)
    o = degeneracy_orient(g)
    assert o.order[:4].tolist() == [0, 3, 5, 7]
    assert [o.core_numbers[v] for v in (0, 3, 5, 7)] == [0, 0, 0, 0]
    assert o.order.tolist() == quadratic_peel(g)[0]


@pytest.mark.parametrize("seed", range(12))
def test_orientation_invariants_random(seed):
    g = random_gnp(seed % 30 + 5, [0.1, 0.3, 0.6][seed % 3], seed)
    o = degeneracy_orient(g)
    out_degrees = [len(row) for row in o.out_neighbors]
    assert max(out_degrees, default=0) == o.alpha
    assert o.alpha == max(o.core_numbers, default=0)
    if g.m:
        assert o.alpha <= math.sqrt(2 * g.m)
    rank = {v: i for i, v in enumerate(o.order.tolist())}
    covered = 0
    for v in range(g.n):
        for u in o.out_neighbors[v]:
            assert rank[u] > rank[v], "orientation must be acyclic"
        ins = [u for u in range(g.n) if v in o.out_neighbors[u]]
        assert sorted(o.out_neighbors[v] + ins) == sorted(map(int, g.neighbors(v)))
        covered += len(o.out_neighbors[v])
    assert covered == g.m


def staircase_graph(top: int = 8, tail: int = 30) -> Graph:
    """Disjoint K2 ... Ktop, then a ``tail``-vertex path: the whole path
    goes at core 1, then the core rises one level at a time, once per
    clique from K3 on."""
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
    assert o.order.tolist() == ref_order


def networkx_cores(g: Graph) -> list[int]:
    gx = nx.Graph()
    gx.add_nodes_from(range(g.n))
    gx.add_edges_from(g.edges())
    cores = nx.core_number(gx)
    return [cores[v] for v in range(g.n)]


def test_core_jumps_over_empty_levels():
    # K9, K5, a 400-vertex path, then 5 isolated vertices: the core starts
    # at 0 and rises to 1, 4 and 8, passing over levels that hold no vertex.
    edges, base = [], 0
    for size in (9, 5):
        edges += [(base + i, base + j)
                  for i in range(size) for j in range(i + 1, size)]
        base += size
    edges += [(base + i, base + i + 1) for i in range(399)]
    g = Graph.from_edges(edges, n=base + 405)
    o = degeneracy_orient(g)
    ref_order, ref_alpha = quadratic_peel(g)
    assert o.alpha == ref_alpha == 8
    assert o.order.tolist() == ref_order
    assert (o.out_offsets.tolist(), o.out_targets.tolist()) == out_csr_of(g, ref_order)
    cores = networkx_cores(g)
    assert sorted(set(cores)) == [0, 1, 4, 8]
    assert o.core_numbers.tolist() == cores
    assert core_numbers(g).tolist() == cores


@pytest.mark.parametrize("seed", range(8))
def test_core_numbers_match_networkx(seed):
    g = random_gnp(25, 0.3, 2000 + seed)
    assert degeneracy_orient(g).core_numbers.tolist() == networkx_cores(g)


def out_csr_of(g: Graph, order: list[int]):
    """The out-CSR that orienting ``g`` along ``order`` gives, built edge
    by edge: each vertex's neighbors that come later, ascending."""
    rank = {v: i for i, v in enumerate(order)}
    rows = [sorted(u for u in map(int, g.neighbors(v)) if rank[u] > rank[v])
            for v in range(g.n)]
    offsets = [0]
    for row in rows:
        offsets.append(offsets[-1] + len(row))
    return offsets, [u for row in rows for u in row]


def hub_graph() -> Graph:
    """A random graph plus a vertex joined to most others, whose row is
    longer than any small slice."""
    rng = random.Random(17)
    edges = {(u, v) for u in range(300) for v in range(u + 1, 300)
             if rng.random() < 0.03}
    edges |= {(0, v) for v in range(1, 300) if v % 3}
    return Graph.from_edges(sorted(edges), n=310)


# Slices of one CSR entry, a few rows, and less than the hub's row (about
# 200 entries), against the default, under which the graph is one slice.
@pytest.mark.parametrize("tail_slice", [1, 7, 64, graph_module.CSR_SLICE])
def test_out_csr_in_slices_matches_the_reference_order(tail_slice, monkeypatch):
    monkeypatch.setattr(graph_module, "CSR_SLICE", tail_slice)
    g = hub_graph()
    assert 2 * g.m > 10 * 64
    o = degeneracy_orient(g)
    ref_order, _ = quadratic_peel(g)
    assert o.order.tolist() == ref_order
    offsets, targets = out_csr_of(g, ref_order)
    assert o.out_offsets.dtype == np.int64 and o.out_targets.dtype == np.int32
    assert o.out_offsets.tolist() == offsets
    assert o.out_targets.tolist() == targets


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
    assert cores.tolist() == degeneracy_orient(g).core_numbers.tolist()
    assert cores.tolist() == networkx_cores(g)


def test_core_numbers_leave_the_graph_alone():
    g = staircase_graph(12, 50)
    offsets, neighbors = g._offsets.copy(), g._neighbors.copy()
    core_numbers(g)
    assert np.array_equal(g._offsets, offsets)
    assert np.array_equal(g._neighbors, neighbors)
