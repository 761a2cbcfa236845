import gzip
import io
import itertools
import json
import math
import os
import random
import subprocess
import sys

import numpy as np
import pytest

from cliquecount import Graph, cli, count, load_edge_list, sct

from conftest import complete_graph, random_geometric, random_gnp
from cliquecount import edge_list_text


@pytest.fixture
def triangle_file(tmp_path):
    path = tmp_path / "triangle.txt"
    path.write_text("0 1\n1 2\n2 0\n")
    return str(path)


def write_graph(tmp_path, graph, name="g.txt"):
    path = tmp_path / name
    path.write_text(edge_list_text(graph))
    return str(path)


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_count_triangle_csv(capsys, triangle_file):
    code, out, err = run_cli(capsys, "count", triangle_file)
    assert code == 0
    assert out == "1,3\n2,3\n3,1\n"
    report = json.loads(err)
    assert report["n"] == 3 and report["m"] == 3
    assert report["alpha"] == 2 and report["max_clique_size"] == 3
    assert all(t >= 0 for t in report["times"].values())


def test_count_reads_stdin(capsys, monkeypatch):
    import io
    monkeypatch.setattr(sys, "stdin", io.StringIO("0 1\n"))
    code, out, _ = run_cli(capsys, "count", "-")
    assert code == 0
    assert out == "1,2\n2,1\n"


def test_per_vertex_csv_respects_max_k(capsys, tmp_path):
    path = write_graph(tmp_path, complete_graph(7))
    code, out, _ = run_cli(capsys, "count", path, "--per-vertex", "--max-k", "5")
    assert code == 0
    lines = out.strip().splitlines()
    marker = lines.index("# per-vertex")
    global_rows = [line.split(",") for line in lines[:marker]]
    assert [int(k) for k, _ in global_rows] == [1, 2, 3, 4, 5]
    vertex_rows = [line.split(",") for line in lines[marker + 1:]]
    assert vertex_rows, "expected per-vertex rows"
    assert all(int(k) <= 5 for _, k, _ in vertex_rows)


def test_global_csv_round_trips(capsys, tmp_path):
    g = random_gnp(18, 0.5, 60)
    path = write_graph(tmp_path, g)
    code, out, _ = run_cli(capsys, "count", path)
    assert code == 0
    parsed = {}
    for line in out.strip().splitlines():
        k, c = line.split(",")
        parsed[int(k)] = int(c)
    from cliquecount import count
    tables = count(g)
    assert parsed == {k: c for k, c in enumerate(tables.global_counts) if k}


def test_json_output_serializes_counts_as_strings(capsys, tmp_path):
    path = write_graph(tmp_path, complete_graph(4))
    code, out, _ = run_cli(capsys, "count", path, "--format", "json",
                           "--per-vertex", "--per-edge")
    assert code == 0
    doc = json.loads(out)
    assert doc["global"] == {"1": "4", "2": "6", "3": "4", "4": "1"}
    assert doc["max_clique_size"] == 4
    assert doc["per_vertex"]["0"]["3"] == "3"
    assert [0, 1, {"2": "1", "3": "2", "4": "1"}] in doc["per_edge"]


def test_output_files_and_local_siblings(capsys, tmp_path):
    path = write_graph(tmp_path, complete_graph(4))
    out_path = tmp_path / "counts.csv"
    code, out, _ = run_cli(capsys, "count", path, "--per-vertex", "--per-edge",
                           "--output", str(out_path))
    assert code == 0 and out == ""
    assert out_path.read_text() == "1,4\n2,6\n3,4\n4,1\n"
    per_vertex = (tmp_path / "counts.per-vertex.csv").read_text()
    assert "0,3,3" in per_vertex
    per_edge = (tmp_path / "counts.per-edge.csv").read_text()
    assert "0,1,4,1" in per_edge


def test_report_file_and_sct_stats(capsys, tmp_path, triangle_file):
    report_path = tmp_path / "report.json"
    code, _, err = run_cli(capsys, "count", triangle_file, "--sct-stats",
                           "--report", str(report_path))
    assert code == 0
    assert "sct-stats: m=3 nodes=6" in err
    report = json.loads(report_path.read_text())
    assert report["sct_node_count"] == 6
    assert report["sct_leaf_count"] == 3
    assert report["sct_nodes_per_edge"] == 2.0


def test_parse_error_exit_code(capsys, tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("0 1\n1 2 3\n")
    code, _, err = run_cli(capsys, "count", str(bad))
    assert code == 1
    assert "line 2" in err


def run_cli_process(*argv, stdin=None):
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    return subprocess.run([sys.executable, "-m", "cliquecount.cli", *argv],
                          input=stdin, capture_output=True, text=True, env=env)


@pytest.mark.parametrize("case,reason", [
    ("missing", "No such file or directory"),
    ("directory", "Is a directory"),
    ("not-utf8", "line 2: not valid UTF-8"),
])
def test_input_file_errors_are_one_line(tmp_path, case, reason):
    path = tmp_path / case
    if case == "directory":
        path.mkdir()
    elif case == "not-utf8":
        path.write_bytes(b"0 1\n1 \xff\n")
    result = run_cli_process("count", str(path))
    assert result.returncode == 1
    assert "Traceback" not in result.stderr
    lines = result.stderr.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: ") and reason in lines[0]
    if case != "not-utf8":
        assert lines[0] == f"error: {path}: {reason}"


# A gzip header and a deflate block of the reserved type 3, which zlib
# rejects: gzip passes its zlib.error on.
_BAD_DEFLATE = bytes([0x1f, 0x8b, 8, 0, 0, 0, 0, 0, 0, 0xff, 0x07]) + bytes(16)


@pytest.mark.parametrize("damage,reason", [
    ("truncated",
     "Compressed file ended before the end-of-stream marker was reached"),
    ("corrupt", "Error -3 while decompressing data: invalid block type"),
])
@pytest.mark.parametrize("command", ["count", "stats", "verify"])
def test_damaged_gzip_input_is_one_line(capsys, tmp_path, command, damage,
                                        reason):
    path = tmp_path / f"{damage}.txt.gz"
    whole = gzip.compress(edge_list_text(complete_graph(6)).encode())
    path.write_bytes(whole[:20] if damage == "truncated" else _BAD_DEFLATE)
    code, out, err = run_cli(capsys, command, str(path))
    assert code == 1
    assert out == ""
    assert err == f"error: {path}: {reason}\n"


@pytest.mark.parametrize("stdin,line", [
    ("0 1\n1 2\n2 3 4\n", "error: line 3: expected 2 tokens, found 3: '2 3 4'"),
    ("0 1\r\n1\r\n", "error: line 2: expected 2 tokens, found 1: '1'"),
    ("0 1\nlast", "error: line 2: expected 2 tokens, found 1: 'last'"),
])
def test_malformed_stdin_is_one_line(stdin, line):
    result = run_cli_process("count", "-", stdin=stdin)
    assert result.returncode == 1
    assert result.stdout == ""
    assert result.stderr.splitlines() == [line]


def test_output_file_errors_are_one_line(tmp_path, triangle_file):
    target = tmp_path / "no_such_dir" / "out.csv"
    result = run_cli_process("count", triangle_file, "--output", str(target))
    assert result.returncode == 1
    assert "Traceback" not in result.stderr
    assert result.stderr.splitlines() == [
        f"error: {target}: No such file or directory"]
    assert not target.exists()


def test_failed_output_leaves_no_file(capsys, tmp_path, monkeypatch):
    # A write that fails part-way, on the last of three files, leaves none
    # of them and no temporary file behind.
    path = write_graph(tmp_path, complete_graph(4))
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    (out_dir / "counts.csv").write_text("old\n")

    def failing_write(tables, out):
        out.write("0,1,2,1\n")
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(cli, "_write_per_edge_csv", failing_write)
    code, _, err = run_cli(capsys, "count", path, "--per-vertex", "--per-edge",
                           "--output", str(out_dir / "counts.csv"))
    assert code == 1
    assert err == (f"error: {out_dir / 'counts.per-edge.csv'}: "
                   "No space left on device\n")
    assert sorted(os.listdir(out_dir)) == ["counts.csv"]
    assert (out_dir / "counts.csv").read_text() == "old\n"


def test_out_of_memory_is_one_line(capsys, triangle_file, monkeypatch):
    from cliquecount import counting

    def exhausted(*args, **kwargs):
        raise MemoryError
    monkeypatch.setattr(counting, "count", exhausted)
    code, out, err = run_cli(capsys, "count", triangle_file)
    assert code == 1
    assert err.splitlines() == ["error: out of memory"]
    assert "Traceback" not in out + err


def test_report_to_a_directory_is_one_line(capsys, tmp_path, triangle_file):
    code, out, err = run_cli(capsys, "count", triangle_file,
                             "--report", str(tmp_path))
    assert code == 1
    assert err == f"error: {tmp_path}: Is a directory\n"
    assert [p.name for p in tmp_path.iterdir()] == ["triangle.txt"]


def test_output_through_a_symlink_keeps_the_link(capsys, tmp_path,
                                                  triangle_file):
    target = tmp_path / "target.csv"
    target.write_text("old\n")
    link = tmp_path / "link.csv"
    link.symlink_to(target)
    code, _, _ = run_cli(capsys, "count", triangle_file, "--output", str(link))
    assert code == 0
    assert link.is_symlink()
    assert target.read_text() == "1,3\n2,3\n3,1\n"


def test_local_count_reports_the_one_thread_it_ran(capsys, tmp_path,
                                                   monkeypatch, caplog):
    # Without --threads a count runs in one process, however many cores
    # there are, global-only or local; a local count does not warn.
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    path = write_graph(tmp_path, complete_graph(5))
    report_path = tmp_path / "report.json"
    for flags in (["--per-vertex"], []):
        with caplog.at_level("WARNING"):
            code, _, err = run_cli(capsys, "count", path, *flags,
                                   "--report", str(report_path))
        assert code == 0
        assert json.loads(report_path.read_text())["threads"] == 1, flags
        assert "WARNING" not in err and not caplog.records


def test_usage_error_exit_code(triangle_file):
    with pytest.raises(SystemExit) as exc:
        cli.main(["count", triangle_file, "--format", "xml"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["count", triangle_file, "--max-k", "0"])
    assert exc.value.code == 2


def test_verify_flag_pass(capsys, triangle_file):
    code, _, err = run_cli(capsys, "count", triangle_file, "--verify")
    assert code == 0
    assert "verification passed" in err


def test_verify_flag_mismatch_exit_code(capsys, triangle_file, monkeypatch):
    from cliquecount import oracle

    def broken_compare(census, tables):
        return oracle.ComparisonResult(False, "global C_3: expected 2, got 1")

    monkeypatch.setattr(oracle, "compare", broken_compare)
    code, _, err = run_cli(capsys, "count", triangle_file, "--verify")
    assert code == 3
    assert "verification failed" in err


GOLDEN = os.path.join(os.path.dirname(__file__), "data", "sct_golden.txt")


def test_verify_checks_the_tables_it_emitted(capsys, monkeypatch):
    # A wrong C_3 planted in the global count is printed and caught.
    from cliquecount import parallel
    counter = parallel.count_global_parallel

    def planted(*args, **kwargs):
        tables = counter(*args, **kwargs)
        tables.global_counts[3] += 1
        return tables
    monkeypatch.setattr(parallel, "count_global_parallel", planted)
    code, out, err = run_cli(capsys, "count", GOLDEN, "--verify")
    assert code == 3
    assert "3,28\n" in out
    assert err.splitlines()[-1] == \
        "verification failed: global C_3: expected 27, got 28"


@pytest.mark.parametrize("flags", [
    [], ["--max-k", "3"], ["--max-k", "3", "--per-edge"],
    ["--max-k", "3", "--per-vertex", "--per-edge"], ["--threads", "2"]])
def test_verify_passes_and_counts_once(capsys, monkeypatch, flags):
    from cliquecount import counting, parallel
    monkeypatch.setattr(parallel, "_usable_cores", lambda: 2)
    calls = []
    counter = counting.count

    def counted(*args, **kwargs):
        calls.append(kwargs)
        return counter(*args, **kwargs)
    monkeypatch.setattr(counting, "count", counted)
    code, _, err = run_cli(capsys, "count", GOLDEN, *flags, "--verify")
    assert code == 0, err
    assert err.splitlines()[-1] == "verification passed"
    assert len(calls) == 1


def test_verify_a_geometric_graph_with_local_tables(capsys, tmp_path):
    path = write_graph(tmp_path, random_geometric(60, 0.25, 1))
    code, _, err = run_cli(capsys, "count", path, "--per-vertex",
                           "--per-edge", "--verify")
    assert code == 0
    assert err.splitlines()[-1] == "verification passed"


def test_report_threads_is_the_processes_that_counted(capsys, tmp_path,
                                                      monkeypatch):
    # Eight threads asked for on two usable CPUs count in two processes;
    # K2's roots make one range, which is counted in this process.
    import concurrent.futures
    from cliquecount import parallel
    monkeypatch.setattr(parallel, "_usable_cores", lambda: 2)
    report = tmp_path / "report.json"
    code, _, _ = run_cli(capsys, "count", GOLDEN, "--threads", "8",
                         "--report", str(report))
    assert code == 0
    assert json.loads(report.read_text())["threads"] == 2

    def no_pool(*args, **kwargs):
        raise AssertionError("a pool was opened")
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    path = write_graph(tmp_path, complete_graph(2))
    code, out, _ = run_cli(capsys, "count", path, "--threads", "2",
                           "--report", str(report))
    assert code == 0 and out == "1,2\n2,1\n"
    assert json.loads(report.read_text())["threads"] == 1


def test_verify_subcommand(capsys, triangle_file):
    code, out, _ = run_cli(capsys, "verify", triangle_file)
    assert code == 0
    assert out.startswith("PASS")


def test_verify_subcommand_respects_limit(capsys, tmp_path):
    path = write_graph(tmp_path, complete_graph(8))
    code, _, err = run_cli(capsys, "verify", path, "--limit", "10")
    assert code == 1
    assert "cliques" in err


def test_stats_subcommand(capsys, triangle_file):
    code, out, _ = run_cli(capsys, "stats", triangle_file)
    assert code == 0
    doc = json.loads(out)
    assert doc["alpha"] == 2
    assert doc["max_core_size"] == 3


def test_stats_builds_no_orientation(capsys, tmp_path, monkeypatch):
    g = random_gnp(60, 0.2, 11)
    path = write_graph(tmp_path, g)
    want = cli.degeneracy_orient(g)

    def refuse(graph):
        raise AssertionError("stats must not build the orientation")

    monkeypatch.setattr(cli, "degeneracy_orient", refuse)
    code, out, _ = run_cli(capsys, "stats", path)
    assert code == 0
    doc = json.loads(out)
    assert (doc["n"], doc["m"]) == (g.n, g.m)
    assert (doc["alpha"], doc["max_core_size"]) == \
        (want.alpha, want.max_core_size())
    assert set(doc["times"]) == {"load_s", "core_s"}


# Runs cli.main on argv[1:] in a fresh interpreter, then prints its exit
# code and which of WATCHED it imported, beyond what numpy itself imports,
# as the last line of stdout.
IMPORT_PROBE = """
import json, sys
import numpy
before = set(sys.modules)
from cliquecount import cli
code = cli.main(sys.argv[1:])
print(json.dumps([code] + sorted(set(%r) & set(sys.modules) - before)))
"""
WATCHED = ("cliquecount.counting", "cliquecount.sct", "cliquecount.oracle",
           "cliquecount.parallel", "multiprocessing", "concurrent.futures",
           "numpy.ma", "logging")


def test_each_command_imports_only_what_it_runs(tmp_path):
    path = write_graph(tmp_path, random_gnp(60, 0.3, 5))
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    out = str(tmp_path / "out.csv")

    def loaded(*argv):
        result = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE % (WATCHED,), *argv],
            capture_output=True, text=True, env=env)
        code, *modules = json.loads(result.stdout.splitlines()[-1])
        assert code == 0, result.stderr
        return set(modules)

    assert loaded("stats", path) == set()
    counts = {"cliquecount.counting", "cliquecount.sct", "cliquecount.parallel"}
    assert loaded("count", path, "--threads", "1", "--output", out) == counts
    one = (tmp_path / "out.csv").read_text()
    assert loaded("count", path, "--per-vertex", "--per-edge",
                  "--output", out) == counts - {"cliquecount.parallel"}
    assert (tmp_path / "out.csv").read_text() == one
    # Only a count across workers loads the fork pool, and with it
    # logging, which concurrent.futures imports.
    assert loaded("count", path, "--threads", "2", "--output", out) == \
        counts | {"multiprocessing", "concurrent.futures", "logging"}
    assert (tmp_path / "out.csv").read_text() == one


def test_inspect_sct_text(capsys, tmp_path):
    path = tmp_path / "edge.txt"
    path.write_text("0 1\n")
    code, out, _ = run_cli(capsys, "inspect-sct", str(path))
    assert code == 0
    assert out.splitlines()[0] == "root {0,1}"
    assert "(0,h) {1}" in out


def test_inspect_sct_records_and_cap(capsys, tmp_path):
    path = write_graph(tmp_path, complete_graph(5))
    code, out, _ = run_cli(capsys, "inspect-sct", str(path), "--as-records")
    assert code == 0
    first = out.splitlines()[0].split("\t")
    assert first[:3] == ["0", "-1", "root"]
    code, _, err = run_cli(capsys, "inspect-sct", str(path), "--cap", "3")
    assert code == 1
    assert "node cap" in err


DATA = os.path.join(os.path.dirname(__file__), "data")


def test_inspect_sct_golden_dumps(capsys):
    # Two overlapping cliques, a clique less a matching, a star and
    # isolated vertices, under sparse labels; its tree has 58 nodes.
    path = os.path.join(DATA, "sct_golden.txt")
    for flags, name in (((), "sct_golden.tree.txt"),
                        (("--as-records",), "sct_golden.records.tsv")):
        with open(os.path.join(DATA, name), encoding="utf-8") as fh:
            expected = fh.read()
        assert run_cli(capsys, "inspect-sct", path, *flags) == (
            0, expected, "")
        assert run_cli(capsys, "inspect-sct", path, *flags,
                       "--cap", "58") == (0, expected, "")
        assert run_cli(capsys, "inspect-sct", path, *flags,
                       "--cap", "57") == (
            1, "", "error: clique tree exceeds the node cap (57); "
                   "raise node_cap to materialize anyway\n")


def test_count_golden_local_outputs(capsys, tmp_path):
    # Per-vertex and per-edge counts of the golden input, as CSV (three
    # files) and as JSON, with and without --max-k 3, byte for byte.
    path = os.path.join(DATA, "sct_golden.txt")
    for tag, cap in (("local", ()), ("local-k3", ("--max-k", "3"))):
        for fmt, names in (("csv", ("csv", "per-vertex.csv", "per-edge.csv")),
                           ("json", ("json",))):
            out = tmp_path / f"{tag}.{fmt}"
            assert run_cli(capsys, "count", path, "--per-vertex",
                           "--per-edge", *cap, "--format", fmt,
                           "--output", str(out), "--report", os.devnull
                           ) == (0, "", "")
            for name in names:
                got = (tmp_path / f"{tag}.{name}").read_bytes()
                with open(os.path.join(DATA, f"sct_golden.{tag}.{name}"),
                          "rb") as fh:
                    assert got == fh.read(), name
    # Under --max-k 1 every edge row is empty ({}), and the empty graph
    # has empty sections; the streamed JSON is json.dumps of the tables.
    empty = tmp_path / "empty.txt"
    empty.write_text("")
    for source in (path, str(empty)):
        out = tmp_path / "k1.json"
        assert run_cli(capsys, "count", source, "--per-vertex", "--per-edge",
                       "--max-k", "1", "--format", "json", "--output",
                       str(out), "--report", os.devnull) == (0, "", "")
        graph = load_edge_list(source)
        tables = count(graph, per_vertex=True, per_edge=True, max_k=1)
        want = json.dumps(_json_reference(graph, tables), indent=2) + "\n"
        assert out.read_text() == want, source


def _json_reference(graph, tables):
    """The JSON document of ``count --format json``, built in memory."""
    doc = {"n": graph.n, "m": graph.m, "alpha": tables.alpha,
           "max_clique_size": tables.max_clique_size(),
           "global": {str(k): str(c)
                      for k, c in enumerate(tables.global_counts) if k > 0},
           "per_vertex": {}}
    for v in range(graph.n):
        row = {str(k): str(c) for k, c in enumerate(tables.vertex_row(v)) if c}
        if row:
            doc["per_vertex"][str(v)] = row
    doc["per_edge"] = [
        [u, v, {str(k): str(c)
                for k, c in enumerate(tables.edge_row(u, v), start=2) if c}]
        for u, v in tables.edges()]
    return doc


def _geometric_graph_with_k70(seed):
    """80 random points joined within distance 0.2 (cliques of about ten),
    a K70, 30 edges between the two, and a K40, whose int64 counts pass
    2^31, under a random relabelling, so that wide (limb-plane) rows and
    narrow rows, small and large, alternate in both tables."""
    rng = random.Random(seed)
    points = [(rng.random(), rng.random()) for _ in range(80)]
    edges = [(a, b) for a in range(80) for b in range(a + 1, 80)
             if math.dist(points[a], points[b]) < 0.2]
    edges += itertools.combinations(range(80, 150), 2)
    edges += [(rng.randrange(80), rng.randrange(80, 150)) for _ in range(30)]
    edges += itertools.combinations(range(150, 190), 2)
    label = list(range(190))
    rng.shuffle(label)
    return Graph.from_edges([(label[a], label[b]) for a, b in edges], n=190)


def _csv_reference(tables):
    """The per-vertex and per-edge CSV text, built from the tables' rows."""
    vertex, edge = tables.per_vertex, tables.per_edge
    return ("".join(f"{v},{k},{c}\n" for v in range(tables.n)
                    for k, c in enumerate(vertex.row(v), vertex.base) if c),
            "".join(f"{u},{v},{k},{c}\n"
                    for i, (u, v) in enumerate(tables.edges())
                    for k, c in enumerate(edge.row(i), edge.base) if c))


@pytest.mark.parametrize("write_chunk,carried", [
    (1, True), (7, True), (None, True), (None, False)])
def test_local_text_matches_reference_formatter(write_chunk, carried,
                                                monkeypatch):
    # The numpy writers (digit words from long division of limbs) against
    # f-strings of the rows' Python integers, over chunks of one entry, of
    # seven and of the default size. K70 rows are wide: their counts reach
    # C(69, 34) > 2^66. Uncarried: every plane-0 entry holds 2^31 more and
    # every plane-1 entry one less (-1 where it held 0), the same values,
    # which the writers must carry before they format.
    from cliquecount import counting
    if write_chunk is not None:
        monkeypatch.setattr(counting, "WRITE_CHUNK", write_chunk)
    graph = _geometric_graph_with_k70(5)
    tables = count(graph, per_vertex=True, per_edge=True)
    want_csv = _csv_reference(tables)
    want_json = json.dumps(_json_reference(graph, tables), indent=2) + "\n"
    assert max(max(tables.per_vertex.row(v)) for v in range(graph.n)) >= 2 ** 63
    for table in (tables.per_vertex, tables.per_edge):
        assert 0 < len(table.wide) < len(table.offsets) - 1
        # A chunk's rows, narrow and wide, hold at most WRITE_CHUNK entries,
        # or it is one entity's.
        widths = np.diff(table.offsets)
        widths[table.wide] = table.wide_widths
        for entity, _, _ in table.entries():
            assert widths[entity[0]:entity[-1] + 1].sum() <= \
                counting.WRITE_CHUNK or entity[0] == entity[-1]
        if not carried:
            table.planes[0] += 1 << counting.LIMB_BITS
            table.planes[1] -= 1
    assert _csv_reference(tables) == want_csv
    got = []
    for write, want in zip((cli._write_per_vertex_csv,
                            cli._write_per_edge_csv), want_csv):
        out = io.StringIO()
        write(tables, out)
        got.append(out.getvalue())
        # A file with a binary buffer gets the lines as bytes, in order
        # with the text written around them.
        out = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
        out.write("# before\n")
        write(tables, out)
        out.write("# after\n")
        out.flush()
        assert out.buffer.getvalue() == f"# before\n{want}# after\n".encode()
    assert tuple(got) == want_csv
    out = io.StringIO()
    cli._write_json(graph, tables, out)
    assert out.getvalue() == want_json


def test_decimal_formatter_matches_str():
    # Numbers as LIMB_BITS-bit limbs through decimal_groups and the digit
    # words, against str(): group edges, inner zero groups, the int64 edge,
    # C(68, 34), and the largest value of three planes (the K70's), whose
    # top plane may hold any non-negative int64.
    from cliquecount import counting
    bits = counting.LIMB_BITS
    largest = (2 ** 63 - 1) << 2 * bits | (1 << 2 * bits) - 1
    values = [0, 9999, 10 ** 4, 10 ** 8 - 1, 10 ** 8, 2 ** 62, 2 ** 63,
              math.comb(68, 34), 10 ** 20 + 7, largest]
    for chosen in (values, values[:5], [0], [largest, 0]):
        limbs = np.array([[v >> bits * j & (1 << bits) - 1 for v in chosen]
                          for j in range(2)]
                         + [[v >> 2 * bits for v in chosen]], dtype=np.int64)
        text = cli._lines(cli._words(counting.decimal_groups(limbs)))
        assert text == "".join(f"{v}\n" for v in chosen).encode()
    small = np.array([0, 7, 10 ** 4, 10 ** 12 + 5, 2 ** 63 - 1])
    assert cli._lines(cli._number_words(small)) == "".join(
        f"{v}\n" for v in small.tolist()).encode()


def test_fast_counters_local_k70_exit_code(capsys, tmp_path):
    path = write_graph(tmp_path, complete_graph(70))
    code, out, err = run_cli(capsys, "count", path, "--fast-counters",
                             "--per-vertex", "--per-edge")
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "--exact" in err


def test_fast_counter_overflow_exit_code(capsys, tmp_path):
    edges = []
    for c in range(11):
        base = c * 63
        edges.extend(f"{base + i} {base + j}"
                     for i in range(63) for j in range(i + 1, 63))
    path = tmp_path / "dense.txt"
    path.write_text("\n".join(edges) + "\n")
    code, _, err = run_cli(capsys, "count", str(path), "--fast-counters")
    assert code == 1
    assert "--exact" in err


@pytest.mark.parametrize("flags", [[], ["--threads", "2"], ["--per-vertex"]])
def test_failed_count_self_check_exit_code(capsys, tmp_path, monkeypatch,
                                           flags):
    # A wrong tally planted in the level walk, which every count runs: one
    # extra hold leaf per walk. C_2 then exceeds m, which every count
    # checks.
    walker = sct.walk_levels

    def planted(stats, *args, **kwargs):
        walker(stats, *args, **kwargs)
        stats.leaves[2, 0] = stats.leaves.get((2, 0), 0) + 1
    monkeypatch.setattr(sct, "walk_levels", planted)
    path = write_graph(tmp_path, complete_graph(6))
    code, out, err = run_cli(capsys, "count", path, *flags)
    assert code == 1 and out == ""
    assert err.startswith("error: count self-check failed: C_2")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_output_deterministic_across_threads(capsys, tmp_path):
    g = random_gnp(30, 0.4, 61)
    path = write_graph(tmp_path, g)
    outputs = []
    for threads in ("1", "2"):
        code, out, _ = run_cli(capsys, "count", path, "--threads", threads)
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1]


def test_console_script_installed():
    result = subprocess.run([sys.executable, "-m", "cliquecount.cli", "--help"],
                            capture_output=True, text=True)
    assert result.returncode == 0
    assert "count" in result.stdout


def test_max_clique_matches_closed_form_via_json(capsys, tmp_path):
    n = 9
    path = write_graph(tmp_path, complete_graph(n))
    code, out, _ = run_cli(capsys, "count", path, "--format", "json")
    assert code == 0
    doc = json.loads(out)
    for k in range(1, n + 1):
        assert int(doc["global"][str(k)]) == math.comb(n, k)
