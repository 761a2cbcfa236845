"""Acceptance suite: one test per criterion, exact tolerances, no slack.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line
per criterion. Criteria 8 and 9 reproduce the amazon0601 desk-scale
numbers when the SNAP file is available locally (set the environment
variable CLIQUECOUNT_AMAZON0601 to its path, or drop amazon0601.txt[.gz]
into tests/data/); without it they fall back to a synthetic graph of the
same scale and skip the dataset-specific assertions.
"""

import gc
import json
import math
import os
import time
import tracemalloc

import numpy as np
import pytest

import cliquecount.sct
from cliquecount import (Graph, cli, count, count_global_parallel,
                         degeneracy_orient, enumerate_all_cliques,
                         materialize_sct, compare, verify_unique_representation)

from conftest import (complete_graph, cycle_graph, path_graph, petersen_graph,
                      quadratic_peel, random_gnp)

PS = (0.2, 0.4, 0.6, 0.8)

_cache = {}


def _criterion1_entries():
    """500 random graphs with counter output and oracle census, cached for
    the criteria that piggyback on them (4 and 6)."""
    if "crit1" not in _cache:
        t0 = time.perf_counter()
        entries = []
        for i in range(500):
            n = 4 + (i % 22)
            p = PS[i % 4]
            g = random_gnp(n, p, seed=10_000 + i)
            full = count(g, per_vertex=True, per_edge=True)
            global_only = count(g)  # fused kernel path
            census = enumerate_all_cliques(g, store_cliques=False)
            entries.append((g, full, global_only, census))
        _cache["crit1"] = entries
        _cache["crit1_build_s"] = time.perf_counter() - t0
    return _cache["crit1"]


def test_criterion_01_oracle_equivalence():
    t0 = time.perf_counter()
    entries = _criterion1_entries()
    assert len(entries) == 500
    for g, full, global_only, census in entries:
        verdict = compare(census, full)
        assert verdict, f"n={g.n}: {verdict.detail}"
        verdict = compare(census, global_only)
        assert verdict, f"n={g.n} (global kernel): {verdict.detail}"
    elapsed = _cache["crit1_build_s"] + (time.perf_counter() - t0)
    assert elapsed < 60, f"criterion 1 took {elapsed:.1f}s, budget 60s"
    print(f"\ncriterion 1 PASS: 500 random graphs match the oracle exactly "
          f"(global, per-vertex, per-edge) in {elapsed:.1f}s")


def test_criterion_02_unique_representation():
    t0 = time.perf_counter()
    cases = [random_gnp(12, 0.5, seed=20_000 + i) for i in range(100)]
    cases += [complete_graph(n) for n in range(1, 9)]
    cases += [petersen_graph(), cycle_graph(4)]
    for g in cases:
        census = enumerate_all_cliques(g)
        tree = materialize_sct(g)
        verdict = verify_unique_representation(g, tree, census.cliques)
        assert verdict, f"n={g.n}, m={g.m}: {verdict.detail}"
    petersen = enumerate_all_cliques(petersen_graph())
    assert petersen.global_counts == [0, 10, 15]
    elapsed = time.perf_counter() - t0
    assert elapsed < 30, f"criterion 2 took {elapsed:.1f}s, budget 30s"
    print(f"\ncriterion 2 PASS: unique clique representation verified on "
          f"{len(cases)} graphs in {elapsed:.1f}s")


def test_criterion_03_complete_graph_closed_forms():
    t0 = time.perf_counter()
    for n in range(1, 21):
        tables = count(complete_graph(n), per_edge=True)
        for k in range(1, n + 2):
            assert tables.global_count(k) == math.comb(n, k)
        for u, v in tables.edges():
            for k in range(2, n + 1):
                assert tables.edge_count(u, v, k) == math.comb(n - 2, k - 2)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10, f"criterion 3 took {elapsed:.1f}s, budget 10s"
    print(f"\ncriterion 3 PASS: K_n closed forms, n in [1,20], "
          f"in {elapsed:.1f}s")


def test_criterion_04_sum_identities():
    checked = 0
    for g, full, _, _ in _criterion1_entries():
        for k in range(1, len(full.global_counts)):
            ck = full.global_count(k)
            vertex_sum = sum(full.vertex_count(v, k) for v in range(g.n))
            assert vertex_sum == k * ck, f"vertex identity at k={k}"
            if k >= 2:
                edge_sum = sum(full.edge_count(u, v, k)
                               for u, v in full.edges())
                assert edge_sum == math.comb(k, 2) * ck, f"edge identity k={k}"
            checked += 1
    print(f"\ncriterion 4 PASS: both sum identities hold for {checked} "
          f"(graph, k) pairs across the criterion-1 graphs")


def test_criterion_05_degeneracy():
    t0 = time.perf_counter()
    # trees have degeneracy 1 (paths and random attachment trees)
    assert degeneracy_orient(path_graph(30)).alpha == 1
    import random as _random
    rng = _random.Random(5)
    for trial in range(5):
        edges = [(rng.randrange(i), i) for i in range(1, 40)]
        assert degeneracy_orient(Graph.from_edges(edges, n=40)).alpha == 1
    for n in (3, 5, 9, 16):
        assert degeneracy_orient(cycle_graph(n)).alpha == 2
    for n in range(2, 10):
        assert degeneracy_orient(complete_graph(n)).alpha == n - 1
    checked = []
    for i in range(25):
        g = random_gnp(4 + (i * 2) % 47, (0.1, 0.3, 0.5)[i % 3], 30_000 + i)
        checked.append(g)
    checked += [petersen_graph(), path_graph(12), complete_graph(7)]
    for g in checked:
        o = degeneracy_orient(g)
        assert all(len(row) <= o.alpha for row in o.out_neighbors)
        if g.m:
            assert o.alpha <= math.sqrt(2 * g.m)
        ref_order, ref_alpha = quadratic_peel(g)
        assert o.alpha == ref_alpha
        assert o.order.tolist() == ref_order
    elapsed = time.perf_counter() - t0
    assert elapsed < 10, f"criterion 5 took {elapsed:.1f}s, budget 10s"
    print(f"\ncriterion 5 PASS: degeneracy invariants and quadratic-peeler "
          f"agreement on {len(checked)} graphs in {elapsed:.1f}s")


def test_criterion_06_truncation_prefix():
    graphs = 0
    for idx, (g, full, _, _) in enumerate(_criterion1_entries()):
        top = full.max_clique_size()
        with_locals = idx % 10 == 0
        for cap in range(1, top + 1):
            part = count(g, max_k=cap)
            assert part.global_counts == full.global_counts[:cap + 1], \
                f"n={g.n} cap={cap}"
            if with_locals:
                partial = count(g, per_vertex=True, per_edge=True, max_k=cap)
                assert partial.global_counts == full.global_counts[:cap + 1]
                for v in range(g.n):
                    assert partial.vertex_row(v) == \
                        full.vertex_row(v)[:cap + 1]
                for u, v in g.edges():
                    assert partial.edge_row(u, v) == \
                        full.edge_row(u, v)[:max(cap - 1, 0)]
        graphs += 1
    print(f"\ncriterion 6 PASS: truncated runs equal full-run prefixes for "
          f"every K on {graphs} graphs")


def test_criterion_07_parallel_determinism():
    t0 = time.perf_counter()
    cases = [random_gnp(8 + (i * 3) % 33, (0.3, 0.5, 0.7)[i % 3], 40_000 + i)
             for i in range(50)]
    for g in cases:
        o = degeneracy_orient(g)
        reference = count_global_parallel(g, o, workers=1).global_counts
        for workers in (2, 4, 8):
            got = count_global_parallel(g, o, workers=workers).global_counts
            assert got == reference, f"workers={workers} diverged (n={g.n})"
    k15 = complete_graph(15)
    o = degeneracy_orient(k15)
    for workers in (1, 2, 4, 8):
        tables = count_global_parallel(k15, o, workers=workers)
        assert tables.global_counts[1:] == [math.comb(15, k)
                                            for k in range(1, 16)]
    elapsed = time.perf_counter() - t0
    print(f"\ncriterion 7 PASS: identical global counts for workers in "
          f"{{1,2,4,8}} on 50 random graphs and K15 ({elapsed:.1f}s)")


# -- desk-scale reproduction ----------------------------------------------

def _amazon_path():
    candidates = [os.environ.get("CLIQUECOUNT_AMAZON0601", "")]
    here = os.path.dirname(__file__)
    for name in ("amazon0601.txt", "amazon0601.txt.gz"):
        candidates.append(os.path.join(here, "data", name))
        candidates.append(os.path.join(here, "..", "data", name))
    for path in candidates:
        if path and os.path.exists(path):
            return path
    return None


def _desk_scale_proxy_graph():
    """Synthetic stand-in at amazon0601 scale: n ~ 4e5, m ~ 2.44e6,
    degeneracy 10 and maximum clique 11 via a planted K11."""
    if "proxy" not in _cache:
        rng = np.random.default_rng(8)
        n = 403_000
        raw = 2_480_000
        u = rng.integers(0, n, raw, dtype=np.int64)
        v = rng.integers(0, n, raw, dtype=np.int64)
        keep = u != v
        pairs = np.stack([u[keep], v[keep]], axis=1)
        planted = np.array([(i, j) for i in range(11) for j in range(i + 1, 11)],
                           dtype=np.int64)
        pairs = np.concatenate([pairs, planted])
        _cache["proxy"] = Graph.from_edges(pairs, n=n)
    return _cache["proxy"]


def _timed_global_count(graph, threads):
    t0 = time.perf_counter()
    orientation = degeneracy_orient(graph)
    t1 = time.perf_counter()
    tables = count(graph, threads=threads, orientation=orientation)
    t2 = time.perf_counter()
    return tables, orientation, t1 - t0, t2 - t1


def test_criterion_08_desk_scale_budget():
    """The <60s all-k global counting budget, at amazon0601 scale.

    Runs on the synthetic stand-in so the performance half of criterion 8
    is always exercised; the dataset row itself is the next test.
    """
    threads = os.cpu_count() or 1
    g = _desk_scale_proxy_graph()
    tables, orientation, orient_s, count_s = _timed_global_count(g, threads)
    _cache.setdefault("desk_tables", tables)
    _cache.setdefault("desk_graph", g)
    assert orientation.alpha == 10
    assert tables.max_clique_size() == 11
    elapsed = orient_s + count_s
    assert elapsed < 60, f"desk-scale counting took {elapsed:.1f}s, budget 60s"
    print(f"\ncriterion 8 PASS (scale budget): synthetic n={g.n} m={g.m} "
          f"alpha=10 max_clique=11; all-k global counting in {elapsed:.1f}s "
          f"(orient {orient_s:.1f}s + count {count_s:.1f}s, threads={threads})")


def test_criterion_08_amazon0601():
    path = _amazon_path()
    if path is None:
        pytest.skip("amazon0601 not present and not downloadable from this "
                    "environment; set CLIQUECOUNT_AMAZON0601 or place "
                    "amazon0601.txt[.gz] under tests/data/ to run the "
                    "dataset row (expects alpha=10, max clique 11, <60s)")
    threads = os.cpu_count() or 1
    t_load = time.perf_counter()
    g = cliquecount.load_edge_list(path)
    load_s = time.perf_counter() - t_load
    assert (g.n, g.m) == (403394, 2443408), "unexpected amazon0601 variant"
    tables, orientation, orient_s, count_s = _timed_global_count(g, threads)
    _cache["desk_tables"] = tables
    _cache["desk_graph"] = g
    assert orientation.alpha == 10
    assert tables.max_clique_size() == 11
    elapsed = orient_s + count_s
    assert elapsed < 60, f"amazon0601 counting took {elapsed:.1f}s, budget 60s"
    print(f"\ncriterion 8 PASS: amazon0601 n={g.n} m={g.m} alpha=10 "
          f"max_clique=11; all-k global counting in {elapsed:.1f}s "
          f"(load {load_s:.1f}s, threads={threads})")


def test_criterion_09_sct_size_reporting(tmp_path, capsys):
    # the CLI must emit (m, node count) under --sct-stats
    graph_path = tmp_path / "g.txt"
    graph_path.write_text("0 1\n1 2\n2 0\n2 3\n")
    report_path = tmp_path / "report.json"
    code = cli.main(["count", str(graph_path), "--sct-stats",
                     "--report", str(report_path)])
    capsys.readouterr()
    assert code == 0
    report = json.loads(report_path.read_text())
    assert report["m"] == 4 and report["sct_node_count"] > 0
    ratio = report["sct_nodes_per_edge"]
    assert math.isfinite(ratio) and ratio > 0

    # desk-scale ratio envelope (amazon0601 when present, proxy otherwise)
    if "desk_tables" not in _cache:
        g = _desk_scale_proxy_graph()
        _cache["desk_graph"] = g
        _cache["desk_tables"] = count(g, threads=os.cpu_count() or 1)
    tables = _cache["desk_tables"]
    g = _cache["desk_graph"]
    desk_ratio = tables.stats.node_count / g.m
    assert math.isfinite(desk_ratio) and 0.1 <= desk_ratio <= 100
    source = "amazon0601" if _amazon_path() else "proxy"
    print(f"\ncriterion 9 PASS: sct-stats emitted; desk-scale ({source}) "
          f"m={g.m} nodes={tables.stats.node_count} "
          f"ratio={desk_ratio:.3f} within [0.1, 100]")


def _clique_chain(blocks: int) -> Graph:
    """Chained K8 blocks: degeneracy stays 7 while m scales linearly."""
    edges = []
    for b in range(blocks):
        base = 8 * b
        edges.extend((base + i, base + j)
                     for i in range(8) for j in range(i + 1, 8))
        if b:
            edges.append((base - 1, base))
    return Graph.from_edges(edges, n=8 * blocks)


def test_criterion_10_storage_contract(monkeypatch):
    # the default counting path must never materialize tree nodes
    def forbidden(*args, **kwargs):
        raise AssertionError("count() materialized an SctNode")

    monkeypatch.setattr(cliquecount.sct.SctNode, "__init__", forbidden)
    g = random_gnp(40, 0.4, 777)
    count(g)
    count(g, per_vertex=True, per_edge=True)
    monkeypatch.undo()

    # peak memory across a fixed-alpha, growing-m family stays linear
    sizes = (500, 1000, 2000, 4000)
    peaks = []
    extras = []
    ms = []
    for blocks in sizes:
        gc.collect()
        tracemalloc.start()
        g = _clique_chain(blocks)
        o = degeneracy_orient(g)
        o.out_neighbors  # materialize up front, like a warm engine
        assert o.alpha == 7
        base_current, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        tables = count(g, orientation=o)
        _, peak_during_count = tracemalloc.get_traced_memory()
        total_peak = peak_during_count  # includes graph + orientation
        tracemalloc.stop()
        assert tables.max_clique_size() == 8
        ms.append(g.m)
        peaks.append(total_peak)
        extras.append(peak_during_count - base_current)
    ratios = [p / m for p, m in zip(peaks, ms)]
    assert max(ratios) / min(ratios) <= 2, \
        f"peak memory not linear in m: {list(zip(ms, peaks))}"
    # the walk itself adds only path-proportional scratch, never tree-sized
    # state: its extra stays far below the linear graph storage
    for m, extra, peak in zip(ms, extras, peaks):
        assert extra < 0.35 * peak, \
            f"traversal allocated {extra} bytes vs total {peak} at m={m}"
    print(f"\ncriterion 10 PASS: peak/m ratios {['%.1f' % r for r in ratios]} "
          f"within factor 2; count-phase extra {extras} bytes; "
          f"no tree nodes materialized")
