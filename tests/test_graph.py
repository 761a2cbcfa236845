import gc
import gzip
import io
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cliquecount import (EdgeListParseError, Graph, edge_list_text,
                         load_edge_list, write_edge_list)
from cliquecount import graph as graph_module
from cliquecount.degeneracy import degeneracy_orient

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
    gz = tmp_path / "bad.txt.gz"
    gz.write_bytes(gzip.compress(data))
    for source in (str(path), str(gz), data, io.BytesIO(data)):
        with pytest.raises(EdgeListParseError) as err:
            load_edge_list(source)
        assert err.value.line_number == 3003
        assert "line 3003: not valid UTF-8 (byte 0xff at column 3)" in \
            str(err.value)


def test_first_bad_line_is_reported_whichever_its_kind():
    # a wrong token count before a line that is not UTF-8, and after one
    with pytest.raises(EdgeListParseError, match=r"^line 2: expected 2 tokens"):
        load_edge_list(b"0 1\n1 2 3\n2 \xff\n")
    with pytest.raises(EdgeListParseError, match=r"^line 2: not valid UTF-8"):
        load_edge_list(b"0 1\n2 \xff\n1 2 3\n")


def _big_input(lines):
    """Edge lines "i i+1" for i < lines, more than one tokenizer chunk."""
    data = "".join(f"{i} {i + 1}\n" for i in range(lines)).encode()
    assert len(data) > graph_module._CHUNK_BYTES
    return data


def test_malformed_line_past_the_first_chunk_is_located(tmp_path):
    clean = _big_input(150_000)
    cut = clean.index(b"\n", 1_500_000) + 1
    head, tail = clean[:cut], clean[cut:]
    number = head.count(b"\n") + 1
    data = head + b"x y\tz\n" + tail
    path = tmp_path / "big.txt"
    path.write_bytes(data)
    for source in (str(path), data):
        with pytest.raises(EdgeListParseError) as err:
            load_edge_list(source)
        assert err.value.line_number == number
        assert str(err.value) == (
            f"line {number}: expected 2 tokens, found 3: 'x y\\tz'")
    bad_utf8 = head + b"x \xfe\n" + tail
    with pytest.raises(EdgeListParseError) as err:
        load_edge_list(bad_utf8)
    assert str(err.value) == (
        f"line {number}: not valid UTF-8 (byte 0xfe at column 3)")


def test_malformed_last_line_without_newline_is_located():
    with pytest.raises(EdgeListParseError) as err:
        load_edge_list(b"0 1\n1 2\n  lonely ")
    assert str(err.value) == "line 3: expected 2 tokens, found 1: 'lonely'"
    data = _big_input(150_000) + b"1 2 3"
    with pytest.raises(EdgeListParseError) as err:
        load_edge_list(data)
    assert str(err.value) == (
        "line 150001: expected 2 tokens, found 3: '1 2 3'")


EDGE_TEXT = ("# a comment line\n"
             "% another\n"
             "b a\n"
             "\n"
             "  a\tc  \n"
             "c b\n"
             "d d\n"
             "long-label-of-some-length a\n")


def test_every_source_kind_gives_the_same_graph(tmp_path):
    expected = load_edge_list(EDGE_TEXT)
    assert list(expected.id_map.items()) == [
        ("b", 0), ("a", 1), ("c", 2), ("d", 3), ("long-label-of-some-length", 4)]
    assert (expected.n, expected.m) == (5, 4)
    path = tmp_path / "g.txt"
    path.write_text(EDGE_TEXT)
    gz = tmp_path / "g.txt.gz"
    gz.write_bytes(gzip.compress(EDGE_TEXT.encode()))
    lines = EDGE_TEXT.splitlines()
    sources = [str(path), str(gz), EDGE_TEXT.encode(),
               io.BytesIO(EDGE_TEXT.encode()), io.StringIO(EDGE_TEXT),
               lines, [line + "\n" for line in lines],
               [line.encode() for line in lines]]
    for source in sources:
        g = load_edge_list(source)
        assert g == expected
        assert list(g.id_map.items()) == list(expected.id_map.items())


def test_files_also_break_lines_at_carriage_returns(tmp_path):
    data = b"a b\rb c\r"
    path = tmp_path / "g.txt"
    path.write_bytes(data)
    gz = tmp_path / "g.txt.gz"
    gz.write_bytes(gzip.compress(data))
    crlf = tmp_path / "crlf.txt"
    crlf.write_bytes(b"a b\r\nb c\r\n")
    for source in (path, gz, crlf):
        g = load_edge_list(str(source))
        assert (g.n, g.m) == (3, 2)
        assert list(g.id_map) == ["a", "b", "c"]
    message = r"^line 1: expected 2 tokens, found 4: 'a b\\rb c'$"
    for source in (data, io.BytesIO(data), io.StringIO(data.decode()),
                   data.decode() + "\n"):
        with pytest.raises(EdgeListParseError, match=message):
            load_edge_list(source)


def test_separators_are_those_of_str_split():
    g = load_edge_list("a\tb\nb\x1cc\nc\u00a0d\nd\u3000e\x85\n")
    assert list(g.id_map) == ["a", "b", "c", "d", "e"]
    assert g.m == 4
    wide = [chr(c) for c in range(0x80, 0x3001) if chr(c).isspace()]
    for c in [chr(c) for c in range(1, 128)] + wide + ["\u00a1", "\u200b"]:
        if c == "\n":
            continue
        text = f"x{c}y\n".encode()
        if c.isspace():
            g = load_edge_list(text)
            assert list(g.id_map) == ["x", "y"] and g.m == 1, repr(c)
        else:
            with pytest.raises(EdgeListParseError, match="found 1"):
                load_edge_list(text)


def test_labels_are_compared_as_strings():
    g = load_edge_list(["007 7", "7 07"])
    assert list(g.id_map) == ["007", "7", "07"]
    long = ["abcdefgh", "abcdefghi", "abcdefghijklmnopq", "abcdefgh" * 5]
    g = load_edge_list([f"{a} {b}" for a, b in zip(long, long[1:])] + ["x y"])
    assert list(g.id_map) == long + ["x", "y"]
    assert g.m == 4
    g = load_edge_list(["café 東京", "東京 naïve-😀", "a#b %c", "# comment"])
    assert list(g.id_map) == ["café", "東京", "naïve-😀", "a#b", "%c"]
    assert g.m == 3
    # a NUL byte is part of a label, and labels differ by their length
    g = load_edge_list(b"a a\x00\na\x00\x00 a\n")
    assert list(g.id_map) == ["a", "a\x00", "a\x00\x00"]


def _reference_load(text):
    """Line-by-line parse of ``text``, lines broken at "\\n" alone."""
    id_map, edges = {}, []
    for number, line in enumerate(text.split("\n"), start=1):
        line = line.strip()
        if not line or line[0] in "#%":
            continue
        tokens = line.split()
        if len(tokens) != 2:
            raise EdgeListParseError(
                number, f"expected 2 tokens, found {len(tokens)}: {line!r}")
        edges.append([id_map.setdefault(t, len(id_map)) for t in tokens])
    return id_map, edges


_SEPARATORS = [" ", "  ", "\t", "\r", "\x0b", "\x0c", "\x1c", "\x1f",
               "\x85", "\u00a0", "\u2003", "\u3000"]
_label = st.one_of(
    st.sampled_from(["0", "7", "007", "a#b", "#", "%x", "é", "東京",
                     "x" * 8, "y" * 9, "z" * 17]),
    st.text(st.characters(blacklist_categories=("Cs",)), min_size=1,
            max_size=12).filter(lambda s: not any(c.isspace() for c in s)))
_line = st.tuples(st.lists(_label, max_size=3),
                  st.lists(st.sampled_from(_SEPARATORS), min_size=4, max_size=4)
                  ).map(lambda t: t[1][3] + "".join(
                      label + sep for label, sep in zip(t[0], t[1])))


@settings(max_examples=300, deadline=None)
@given(st.lists(_line, max_size=25), st.booleans(), st.sampled_from([1 << 20, 1, 9]))
def test_loader_matches_a_reference_parser(lines, trailing_newline, chunk_bytes):
    text = "\n".join(lines) + ("\n" if trailing_newline else "")
    try:
        id_map, edges = _reference_load(text)
    except EdgeListParseError as exc:
        with mock.patch.object(graph_module, "_CHUNK_BYTES", chunk_bytes):
            with pytest.raises(EdgeListParseError) as err:
                load_edge_list(text.encode())
        assert str(err.value) == str(exc)
        assert err.value.line_number == exc.line_number
        return
    with mock.patch.object(graph_module, "_CHUNK_BYTES", chunk_bytes):
        g = load_edge_list(text.encode())
    assert list(g.id_map.items()) == list(id_map.items())
    assert g == Graph.from_edges(edges, n=len(id_map))


def test_labels_mapped_in_first_appearance_order():
    g = load_edge_list(["b c", "a c"])
    assert g.id_map == {"b": 0, "c": 1, "a": 2}
    assert g.are_adjacent(0, 1) and g.are_adjacent(2, 1)
    assert not g.are_adjacent(0, 2)


def test_load_and_peel_peak_memory_per_line():
    # tracemalloc's peak over loading 50k edge lines, whose labels take two
    # key words, and then peeling the graph, per input line. Measured with
    # numpy 2.4 on Python 3.11: 88.2 bytes after the load, 132.2 after the
    # peel; the bounds add 5%. Building id_map in the load (96.4 and 189.9),
    # a CSR build that keeps about six int64 entries per edge alive at once
    # (97.0 after the load) or fresh ints in the peel's levels (155.8 after
    # the peel) exceed them.
    lines = 50_000
    ends = np.random.default_rng(7).integers(0, 25_000, (lines, 2)).tolist()
    data = "".join(f"vertex-{u}-x vertex-{v}-x\n" for u, v in ends).encode()
    load_edge_list(data)  # first-use allocations are not counted
    gc.collect()
    tracemalloc.start()
    try:
        graph = load_edge_list(data)
        _, load_peak = tracemalloc.get_traced_memory()
        degeneracy_orient(graph)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert load_peak / lines <= 88.2 * 1.05, load_peak / lines
    assert peak / lines <= 132.2 * 1.05, peak / lines


def test_load_accepts_bytes_and_streams(tmp_path):
    text = "0 1\n1 2\n"
    assert load_edge_list(text.encode()).m == 2
    assert load_edge_list(io.StringIO(text)).m == 2
    path = tmp_path / "g.txt"
    path.write_text(text)
    assert load_edge_list(str(path)).m == 2


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
