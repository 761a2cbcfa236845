import math

import pytest

from cliquecount import (SizeLimitError, compare, count,
                         enumerate_all_cliques)

from conftest import complete_graph, random_geometric, random_gnp


def test_triangle_census():
    census = enumerate_all_cliques(complete_graph(3))
    expected = {(0,), (1,), (2,), (0, 1), (0, 2), (1, 2), (0, 1, 2)}
    assert set(census.cliques) == expected
    assert census.global_count(3) == 1
    assert census.max_clique_size() == 3


def test_k5_has_31_cliques():
    census = enumerate_all_cliques(complete_graph(5))
    assert len(census.cliques) == 2 ** 5 - 1
    assert sum(census.global_counts) == 31


def test_each_clique_emitted_once():
    census = enumerate_all_cliques(random_gnp(14, 0.6, 42))
    assert len(census.cliques) == len(set(census.cliques))
    for clique in census.cliques:
        assert list(clique) == sorted(clique)


def test_complete_graph_counts_up_to_20():
    for n in (1, 5, 12, 20):
        census = enumerate_all_cliques(
            complete_graph(n), limit=2 ** 21, store_cliques=False,
            tally_locals=False)
        for k in range(1, n + 1):
            assert census.global_count(k) == math.comb(n, k)


def test_self_consistency_sum_identities():
    census = enumerate_all_cliques(random_gnp(13, 0.5, 43))
    for k in range(1, len(census.global_counts)):
        ck = census.global_count(k)
        vertex_total = sum(census.vertex_count(v, k) for v in range(census.n))
        assert vertex_total == k * ck
        if k >= 2:
            edge_total = sum(census.edge_count(u, v, k)
                             for (u, v) in census.per_edge)
            assert edge_total == math.comb(k, 2) * ck


def test_cap_raises():
    with pytest.raises(SizeLimitError):
        enumerate_all_cliques(complete_graph(6), limit=10)


def test_compare_pass_and_first_mismatch():
    g = complete_graph(4)
    census = enumerate_all_cliques(g)
    tables = count(g, per_vertex=True, per_edge=True)
    assert compare(census, tables)

    tables.global_counts[2] += 1
    verdict = compare(census, tables)
    assert not verdict and "global C_2" in verdict.detail
    tables.global_counts[2] -= 1

    vertex = tables.per_vertex
    vertex.flat[vertex.offsets[1] + 3] += 1
    verdict = compare(census, tables)
    assert not verdict and "vertex 1, c_3" in verdict.detail
    vertex.flat[vertex.offsets[1] + 3] -= 1

    edge = tables.per_edge
    edge.flat[edge.offsets[tables.edges().index((0, 2))] + 4 - 2] -= 1
    verdict = compare(census, tables)
    assert not verdict and "edge (0,2), c_4" in verdict.detail


def test_compare_tolerates_global_only_tables():
    g = random_gnp(10, 0.5, 44)
    census = enumerate_all_cliques(g, store_cliques=False)
    assert compare(census, count(g))


def test_tally_only_mode_stores_no_cliques():
    census = enumerate_all_cliques(complete_graph(5), store_cliques=False)
    assert census.cliques is None
    assert census.global_count(5) == 1


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_geometric_graphs_match_the_oracle(seed):
    # 60 points joined within 0.25: maximum cliques of eight or more,
    # counted global-only and local, for every k and up to 4.
    g = random_geometric(60, 0.25, seed)
    census = enumerate_all_cliques(g, store_cliques=False)
    assert census.max_clique_size() >= 8
    for max_k in (None, 4):
        for tables in (count(g, max_k=max_k),
                       count(g, max_k=max_k, per_vertex=True, per_edge=True)):
            assert tables.max_k == max_k
            verdict = compare(census, tables)
            assert verdict, (max_k, verdict.detail)
            want = census.global_counts[:None if max_k is None else max_k + 1]
            assert tables.global_counts == want


def test_compare_checks_only_up_to_the_tables_max_k():
    g = complete_graph(6)
    census = enumerate_all_cliques(g, store_cliques=False)
    tables = count(g, max_k=3, per_vertex=True, per_edge=True)
    assert compare(census, tables)
    tables.per_vertex.flat[tables.per_vertex.offsets[2] + 3] += 1
    verdict = compare(census, tables)
    assert not verdict and "vertex 2, c_3" in verdict.detail
