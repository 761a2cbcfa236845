import concurrent.futures
import math
import os
import subprocess
import sys

import pytest

from cliquecount import (count, count_global_parallel, degeneracy_orient,
                         edge_list_text, parallel)

from conftest import complete_graph, empty_graph, random_gnp


def test_workers_one_equals_sequential():
    g = random_gnp(20, 0.5, 50)
    o = degeneracy_orient(g)
    seq = count(g, orientation=o)
    par = count_global_parallel(g, o, workers=1)
    assert par.global_counts == seq.global_counts
    assert par.stats == seq.stats


@pytest.mark.parametrize("workers", [2, 4, 8])
def test_worker_count_does_not_change_results(workers, monkeypatch):
    # As many CPUs as workers, so that each count splits its roots anew.
    monkeypatch.setattr(parallel, "_usable_cores", lambda: workers)
    g = random_gnp(24, 0.5, 51)
    o = degeneracy_orient(g)
    seq = count(g, orientation=o)
    par = count_global_parallel(g, o, workers=workers)
    assert par.global_counts == seq.global_counts
    assert par.stats.node_count == seq.stats.node_count
    assert par.stats.leaf_count == seq.stats.leaf_count
    assert par.stats.max_depth == seq.stats.max_depth


def test_k15_across_workers():
    g = complete_graph(15)
    tables = count(g, threads=4)
    for k in range(1, 16):
        assert tables.global_count(k) == math.comb(15, k)


def test_parallel_with_max_k():
    g = random_gnp(22, 0.6, 52)
    full = count(g)
    for cap in (2, 3, 4):
        par = count(g, threads=3, max_k=cap)
        assert par.global_counts == full.global_counts[:cap + 1]


def test_parallel_fast_counters():
    g = random_gnp(22, 0.5, 53)
    seq = count(g)
    par = count(g, threads=2, counters="fast")
    assert par.global_counts == seq.global_counts


def test_parallel_empty_graph(monkeypatch):
    # Two usable CPUs, yet no roots to cut: at least one worker counts.
    monkeypatch.setattr(parallel, "_usable_cores", lambda: 2)
    g = empty_graph(0)
    tables = count_global_parallel(g, degeneracy_orient(g), workers=2)
    assert tables.global_counts == [0]
    assert tables.workers == 1


def test_workers_must_be_positive():
    g = complete_graph(3)
    with pytest.raises(ValueError):
        count_global_parallel(g, degeneracy_orient(g), workers=0)


class RecordingPool:
    """A stand-in for ProcessPoolExecutor that records its size and maps
    in this process, so that nothing is forked."""

    sizes = []

    def __init__(self, max_workers, mp_context):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, batches):
        return map(fn, batches)


def test_pool_size_is_bounded(monkeypatch):
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        RecordingPool)
    monkeypatch.setattr(RecordingPool, "sizes", [])
    monkeypatch.setattr(parallel, "_usable_cores", lambda: 3)
    g = random_gnp(20, 0.5, 54)
    o = degeneracy_orient(g)
    tables = count_global_parallel(g, o, workers=10_000)
    assert tables.global_counts == count(g, orientation=o).global_counts
    assert tables.workers == 3
    # Fewer batches than usable CPUs: of K2's two roots, the one without
    # out-neighbours has no work and joins the other's range, which is
    # counted in this process.
    pair = complete_graph(2)
    tables = count_global_parallel(pair, degeneracy_orient(pair),
                                   workers=10_000)
    assert tables.global_counts == [0, 2, 1]
    assert tables.workers == 1
    assert RecordingPool.sizes == [3]


@pytest.mark.parametrize("n_batches", [1, 2, 3, 8, 50])
def test_root_batches_are_consecutive_ranges_of_equal_work(n_batches):
    # Non-empty ranges that cover the roots once, in order, each holding at
    # most its share of the set-up work (out-degree plus wedges) plus one
    # root; the empty graph has none.
    for g in (random_gnp(60, 0.3, 56), complete_graph(9), empty_graph(5),
              empty_graph(0)):
        o = degeneracy_orient(g)
        d = o.out_degrees()
        work = [int(d[v] + d[o.out_targets[o.out_offsets[v]:
                                         o.out_offsets[v + 1]]].sum())
                for v in range(g.n)]
        batches = parallel._root_batches(o, n_batches)
        assert all(isinstance(b, range) and b.step == 1 and len(b)
                   for b in batches)
        assert [v for b in batches for v in b] == list(range(g.n))
        share = sum(work) / n_batches
        for b in batches:
            assert sum(work[v] for v in b) <= share + max(work[v] for v in b)
        # A range only ends where the next root would not fit.
        for b, c in zip(batches, batches[1:]):
            assert sum(work[b.start:c.start + 1]) > share
        assert len(batches) <= min(g.n, 2 * n_batches)


def test_one_usable_cpu_counts_in_process(monkeypatch):
    # Nothing is forked: the stand-in pool would record a size.
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        RecordingPool)
    monkeypatch.setattr(RecordingPool, "sizes", [])
    monkeypatch.setattr(parallel, "_usable_cores", lambda: 1)
    g = random_gnp(20, 0.5, 55)
    o = degeneracy_orient(g)
    tables = count_global_parallel(g, o, workers=4)
    assert tables.global_counts == count(g, orientation=o).global_counts
    assert RecordingPool.sizes == []


def test_a_dead_worker_is_one_line(tmp_path):
    # Every worker of a two-worker pool exits at once, as one killed for
    # memory would, in a subprocess that the test does not share.
    path = tmp_path / "k6.txt"
    path.write_text(edge_list_text(complete_graph(6)))
    script = (
        "import os, sys\n"
        "from cliquecount import cli, parallel\n"
        "def die(roots):\n"
        "    os._exit(9)\n"
        "parallel._count_batch = die\n"
        "parallel._usable_cores = lambda: 2\n"
        "sys.exit(cli.main(['count', sys.argv[1], '--threads', '2']))\n")
    src = os.path.dirname(os.path.dirname(parallel.__file__))
    result = subprocess.run([sys.executable, "-c", script, str(path)],
                            capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": src}, timeout=60)
    assert result.returncode == 1
    assert result.stdout == ""
    assert result.stderr.splitlines() == [
        "error: a worker process died before its roots were counted "
        "(killed, or out of memory)"]
