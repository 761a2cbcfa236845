"""Quick tests of the benchmark itself: python3 -m pytest -q bench"""

import json
import os
import shutil
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import run  # noqa: E402
import tracer  # noqa: E402
from checks import check_count, check_stats  # noqa: E402
from cliquecount import cli, counting  # noqa: E402
from inputs import WORKLOADS, _core_numbers, generate, reference  # noqa: E402


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_one_seed_gives_byte_identical_inputs(workload):
    first, edges, _ = generate(workload, 5)
    again, _, _ = generate(workload, 5)
    other, _, _ = generate(workload, 6)
    assert first == again
    assert first != other
    assert first.startswith("#") and len(first.splitlines()) == len(edges) + 1


@pytest.fixture(scope="module")
def small_local_run(tmp_path_factory):
    """A good geo-local output on a 300-point input, with its reference."""
    work = tmp_path_factory.mktemp("good")
    text, edges, planted = generate("geo-local", 7, n=300)
    ref = reference("geo-local", edges, planted, 7)
    graph = work / "graph.txt"
    graph.write_text(text)
    output = work / "counts.csv"
    assert cli.main(["count", str(graph), "--threads", "1", "--output", str(output),
                     *WORKLOADS["geo-local"][2]]) == 0
    assert ref.vertex_samples and ref.edge_samples
    return ref, work


def _corrupted_copy(work, tmp_path, name, edit):
    for f in os.listdir(work):
        shutil.copy(work / f, tmp_path / f)
    path = tmp_path / name
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(edit(lines)))
    return str(tmp_path / "counts.csv")


def _bump_last_field(line):
    *head, count = line.rstrip("\n").split(",")
    return ",".join([*head, str(int(count) + 1)]) + "\n"


def test_good_output_passes(small_local_run):
    ref, work = small_local_run
    assert check_count(ref, str(work / "counts.csv")) == []


@pytest.mark.parametrize("name, edit", [
    ("counts.csv", lambda lines: [lines[0], _bump_last_field(lines[1]), *lines[2:]]),
    ("counts.per-vertex.csv",
     lambda lines: [*lines[:-1], _bump_last_field(lines[-1])]),
    ("counts.per-edge.csv",
     lambda lines: [*lines[:5], _bump_last_field(lines[5]), *lines[6:]]),
    ("counts.per-edge.csv", lambda lines: lines[:7] + lines[8:]),
], ids=["global-off-by-one", "vertex-off-by-one", "edge-off-by-one",
        "edge-row-dropped"])
def test_corrupted_output_is_rejected(small_local_run, tmp_path, name, edit):
    ref, work = small_local_run
    assert check_count(ref, _corrupted_copy(work, tmp_path, name, edit))


@pytest.mark.parametrize("workload", ["desk-global", "geo-local"])
def test_core_numbers_match_networkx(workload):
    import networkx as nx
    _, edges, _ = generate(workload, 4, n=400)
    n = int(edges.max()) + 1
    graph = nx.empty_graph(n)
    graph.add_edges_from(edges.tolist())
    core = nx.core_number(graph)
    sym = nx.to_scipy_sparse_array(graph, nodelist=range(n), format="csr")
    assert _core_numbers(sym).tolist() == [core[v] for v in range(n)]


def test_stats_check_wants_exact_degeneracy(small_local_run, capsys):
    ref, work = small_local_run
    assert cli.main(["stats", str(work / "graph.txt")]) == 0
    good = json.loads(capsys.readouterr().out)
    assert check_stats(ref, json.dumps(good)) == []
    for key in ("alpha", "max_core_size"):
        assert check_stats(ref, json.dumps({**good, key: good[key] + 1}))


def test_trace_survives_a_missing_wrapped_name(tmp_path, monkeypatch):
    # A global-only count never calls traverse, so the program still runs.
    monkeypatch.delattr(counting, "traverse")
    text, edges, planted = generate("geo-local", 3, n=200)
    graph = tmp_path / "graph.txt"
    graph.write_text(text)
    doc = tracer.run(str(graph), str(tmp_path / "counts.csv"), [])
    assert doc["missing"] == ["cliquecount.counting.traverse"]
    assert doc["exit_codes"] == [0, 0, 0]
    found, absent = run._span_metrics(doc, len(edges))
    assert "sct.walk_s" in absent
    assert found["counting.global_walk_s"] > 0 and found["sct.nodes"] > 0
    assert doc["parallel"]["global"][1:4] == [
        str(c) for c in reference("geo-local", edges, planted, 3).global_exact.values()]
    assert counting.count_roots_global.__module__ == "cliquecount.counting"


def test_metric_names_and_units_match_benchmark_json():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS)
