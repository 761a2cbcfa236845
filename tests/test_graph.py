import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cliquecount import (EdgeListParseError, Graph, edge_list_text,
                         load_edge_list, write_edge_list)

from conftest import complete_graph, path_graph


def test_load_triangle():
    g = load_edge_list(["0 1", "1 2", "2 0"])
    assert (g.n, g.m) == (3, 3)


def test_load_collapses_self_loops_and_duplicates():
    g = load_edge_list(["0 0", "0 1", "1 0"])
    assert (g.n, g.m) == (2, 1)
    assert list(g.neighbors(0)) == [1]


def test_load_empty_input_is_empty_graph():
    g = load_edge_list([])
    assert (g.n, g.m) == (0, 0)
    g = load_edge_list("\n\n")
    assert (g.n, g.m) == (0, 0)


def test_load_skips_comments_and_blank_lines():
    g = load_edge_list(["# header", "% also a comment", "", "a b", "  ", "b c"])
    assert (g.n, g.m) == (3, 2)


def test_load_malformed_line_reports_line_number():
    with pytest.raises(EdgeListParseError) as err:
        load_edge_list(["0 1", "# fine", "1 2 3"])
    assert err.value.line_number == 3
    assert "line 3" in str(err.value)
    with pytest.raises(EdgeListParseError):
        load_edge_list(["lonely"])


def test_load_reports_line_of_invalid_utf8(tmp_path):
    # the bad byte lies past the first few kilobytes a text reader decodes
    data = b"# header\n" + b"0 1\n" * 3000 + b"1 caf\xc3\xa9\n2 \xff3\n"
    path = tmp_path / "bad.txt"
    path.write_bytes(data)
    for source in (str(path), data, io.BytesIO(data)):
        with pytest.raises(EdgeListParseError) as err:
            load_edge_list(source)
        assert err.value.line_number == 3003
        assert "line 3003: not valid UTF-8 (byte 0xff at column 3)" in \
            str(err.value)


def test_labels_mapped_in_first_appearance_order():
    g = load_edge_list(["b c", "a c"])
    assert g.id_map == {"b": 0, "c": 1, "a": 2}
    assert g.are_adjacent(0, 1) and g.are_adjacent(2, 1)
    assert not g.are_adjacent(0, 2)


def test_load_accepts_bytes_and_streams(tmp_path):
    text = "0 1\n1 2\n"
    assert load_edge_list(text.encode()).m == 2
    assert load_edge_list(io.StringIO(text)).m == 2
    path = tmp_path / "g.txt"
    path.write_text(text)
    assert load_edge_list(str(path)).m == 2


def test_load_rejects_unknown_format():
    with pytest.raises(ValueError):
        load_edge_list(["0 1"], fmt="parquet")


def test_neighbors_examples():
    tri = load_edge_list(["0 1", "1 2", "2 0"])
    assert list(tri.neighbors(0)) == [1, 2]
    path = path_graph(3)
    assert list(path.neighbors(1)) == [0, 2]
    k5 = complete_graph(5)
    for v in range(5):
        assert list(k5.neighbors(v)) == [u for u in range(5) if u != v]
        assert k5.degree(v) == 4


def test_vertex_out_of_range_is_usage_error():
    g = path_graph(3)
    with pytest.raises(ValueError):
        g.neighbors(3)
    with pytest.raises(ValueError):
        g.are_adjacent(0, -1)
    with pytest.raises(ValueError):
        g.degree(17)


def test_are_adjacent_examples():
    tri = load_edge_list(["0 1", "1 2", "2 0"])
    assert tri.are_adjacent(0, 1)
    assert not tri.are_adjacent(0, 0)
    path = path_graph(3)
    assert not path.are_adjacent(0, 2)


def test_from_edges_keeps_isolated_vertices():
    g = Graph.from_edges([(0, 1)], n=4)
    assert (g.n, g.m) == (4, 1)
    assert g.degree(3) == 0


def test_canonical_writer_order():
    g = load_edge_list(["2 1", "0 2", "1 0"])
    assert edge_list_text(g) == "0 1\n0 2\n1 2\n"


def _assert_normalized(g: Graph):
    degrees = np.zeros(g.n, dtype=int)
    for v in range(g.n):
        row = list(g.neighbors(v))
        assert row == sorted(row), "adjacency must be sorted"
        assert len(row) == len(set(row)), "no duplicate entries"
        assert v not in row, "no self-loops"
        degrees[v] = len(row)
        for u in row:
            assert v in list(g.neighbors(int(u))), "must be symmetric"
    assert int(degrees.sum()) == 2 * g.m


edge_lines = st.lists(
    st.tuples(st.integers(0, 12), st.integers(0, 12)).map(
        lambda t: f"{t[0]} {t[1]}"),
    max_size=60)


@settings(max_examples=150, deadline=None)
@given(edge_lines)
def test_normalization_invariants_hold_for_messy_input(lines):
    g = load_edge_list(lines)
    _assert_normalized(g)
    # every dense id in [0, n) exists by construction; spot check bounds
    if g.m:
        assert int(g._neighbors.max()) < g.n


@settings(max_examples=100, deadline=None)
@given(edge_lines)
def test_write_load_round_trip_stabilizes(lines):
    # First-appearance labeling can permute ids for a few cycles, but the
    # write/load iteration reaches a fixed point where re-loading the
    # canonical text reproduces the graph identically. Each cycle keeps
    # the structure (edge count, nonzero degree multiset); only isolated
    # vertices, which the writer cannot mention, drop out of n.
    nonzero = lambda g: sorted(d for d in map(int, np.diff(g._offsets)) if d)
    g = load_edge_list(lines)
    shape = (g.m, nonzero(g))
    for _ in range(g.n + 2):
        g2 = load_edge_list(edge_list_text(g))
        assert (g2.m, nonzero(g2)) == shape
        assert g2.n <= g.n
        if g2 == g:
            break
        g = g2
    else:
        raise AssertionError("write/load never reached its fixed point")
    assert load_edge_list(edge_list_text(g2)) == g2
    assert edge_list_text(load_edge_list(edge_list_text(g2))) == edge_list_text(g2)


def test_round_trip_identity_on_canonical_input():
    g1 = load_edge_list(["0 1", "0 2", "1 2", "2 3"])
    g2 = load_edge_list(edge_list_text(g1))
    assert g2 == g1
    assert g2.id_map == g1.id_map


def test_write_edge_list_stream(tmp_path):
    g = complete_graph(3)
    path = tmp_path / "out.txt"
    with open(path, "w") as fh:
        write_edge_list(g, fh)
    assert path.read_text() == "0 1\n0 2\n1 2\n"
