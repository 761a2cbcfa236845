import itertools
import math
import random
from collections import Counter

import numpy as np
import pytest

from cliquecount import (CounterOverflowError, CountTables,
                         Graph, LeafBatches, TraversalStats, compare, count,
                         counting, degeneracy_orient, enumerate_all_cliques,
                         pascal_rows, traverse)
from cliquecount.counting import FAST_COUNTER_MAX

from conftest import (complete_graph, empty_graph, petersen_graph, random_gnp)


def test_pascal_rows():
    rows = pascal_rows(12)
    for r, row in enumerate(rows):
        assert row[0] == row[-1] == 1
        for i in range(1, r):
            assert row[i] == rows[r - 1][i - 1] + rows[r - 1][i]
        assert row == [math.comb(r, i) for i in range(r + 1)]


def test_pascal_rows_exceed_64_bits_exactly():
    # counts can exceed the 64-bit range; exact integers must carry them
    value = pascal_rows(67)[67][33]
    assert value == math.comb(67, 33) == 14226520737620288370
    assert value > 2 ** 63 - 1


def _accumulate(g, leaves, per_vertex=False, per_edge=False, max_k=None,
                per_call=None):
    """Tables of the given (hold, pivots) leaves, as ``count`` builds them.

    ``accumulate_leaf`` adds the leaves to the local tables, ``per_call``
    of them at a time (all at once by default), and ``global_tables`` the
    global counts of their (|H|, |P|) histogram.
    """
    o = degeneracy_orient(g)
    tables = CountTables(g, *counting.local_tables(o, max_k, per_vertex,
                                                   per_edge))
    batches = LeafBatches(tables, o, max_k)
    step = per_call or max(len(leaves), 1)
    for i in range(0, len(leaves), step):
        part = leaves[i:i + step]
        counting.accumulate_leaf(batches, *(
            np.array(x, dtype=np.int64) for x in (
                [len(hold) for hold, _ in part],
                [len(pivots) for _, pivots in part],
                [v for hold, pivots in part for v in hold + pivots])))
    shape = TraversalStats(leaves=Counter(
        (len(hold), len(pivots)) for hold, pivots in leaves))
    return counting.global_tables(g, o.alpha, [shape], max_k, tables)


def test_accumulate_leaf_single_vertex():
    tables = _accumulate(empty_graph(1), [([0], [])])
    assert tables.global_counts == [0, 1]


def test_accumulate_leaf_hand_derived_triangle():
    g = complete_graph(3)  # vertices a=0, b=1, c=2
    tables = _accumulate(g, [([0], [1, 2])], per_vertex=True, per_edge=True)
    assert tables.global_counts == [0, 1, 2, 1]
    assert tables.vertex_count(0, 3) == 1   # hold rule
    assert tables.vertex_count(1, 3) == 1   # pivot rule, i = 1
    assert tables.vertex_count(1, 2) == 1   # pivot rule, i = 0
    assert tables.vertex_count(0, 1) == 1 and tables.vertex_count(1, 1) == 0
    assert tables.edge_count(0, 1, 2) == 1  # hold-pivot rule
    assert tables.edge_count(0, 1, 3) == 1
    assert tables.edge_count(1, 2, 3) == 1  # pivot-pivot rule
    assert tables.edge_count(1, 2, 2) == 0


def test_accumulate_leaf_respects_max_k():
    g = complete_graph(3)
    tables = _accumulate(g, [([0], [1, 2])], per_vertex=True, per_edge=True,
                         max_k=2)
    assert tables.global_counts == [0, 1, 2]
    assert tables.vertex_count(1, 2) == 1
    assert tables.edge_count(1, 2, 3) == 0


def _reference_accumulate(ref, hold, pivots, max_k):
    """The six increment rules, one increment at a time.

    ``ref`` maps "global", each vertex v and each edge (u, v), u < v, to a
    growable row; vertex and global rows start at k = 0, edge rows at 2.
    Returns the number of increments made to "global", vertex and edge
    rows, by those names.
    """
    h, p = len(hold), len(pivots)
    comb = math.comb

    def edge(u, v):
        return ref.setdefault((min(u, v), max(u, v)), [])

    # (row, k stored at row[0], k, amount)
    increments = [(ref["global"], 0, h + i, comb(p, i)) for i in range(p + 1)]
    for v in hold:
        increments += [(ref.setdefault(v, []), 0, h + i, comb(p, i))
                       for i in range(p + 1)]
    for v in pivots:
        increments += [(ref.setdefault(v, []), 0, h + i + 1, comb(p - 1, i))
                       for i in range(p)]
    for u, v in itertools.combinations(hold, 2):
        increments += [(edge(u, v), 2, h + i, comb(p, i))
                       for i in range(p + 1)]
    for u in hold:
        for v in pivots:
            increments += [(edge(u, v), 2, h + i + 1, comb(p - 1, i))
                           for i in range(p)]
    for u, v in itertools.combinations(pivots, 2):
        increments += [(edge(u, v), 2, h + i + 2, comb(p - 2, i))
                       for i in range(p - 1)]
    made = dict.fromkeys(("global", "vertex", "edge"), 0)
    for row, first_k, k, amount in increments:
        if max_k is not None and k > max_k:
            continue
        while len(row) <= k - first_k:
            row.append(0)
        row[k - first_k] += amount
        made["global" if row is ref["global"] else
             "edge" if first_k == 2 else "vertex"] += 1
    return made


@pytest.mark.parametrize("per_vertex,per_edge",
                         [(False, False), (True, False), (False, True),
                          (True, True)])
def test_accumulate_leaf_matches_increment_rules(per_vertex, per_edge,
                                                 monkeypatch):
    # Random leaves on K17 (h in 1..5, p in 0..12), several per table, so
    # later leaves add into rows that earlier ones already filled. They
    # are added one per call, seven per call (leaves split across calls)
    # and all in one call. Rows are added in blocks of one entity, of a few
    # entities and at the default block size. The calls' increment counts
    # must add up to the transcription's.
    g = complete_graph(17)
    edges = list(g.edges())
    made = []
    batch_add = counting.accumulate_leaf
    monkeypatch.setattr(counting, "accumulate_leaf",
                        lambda *args: made.append(batch_add(*args)))
    for per_call, block in ((1, counting.ADD_BLOCK), (7, 1), (None, 40),
                            (None, counting.ADD_BLOCK)):
        monkeypatch.setattr(counting, "ADD_BLOCK", block)
        rng = random.Random(1400 + 2 * per_vertex + per_edge)
        for _ in range(40):
            leaves = []
            for _ in range(6):
                h, p = rng.randint(1, 5), rng.randint(0, 12)
                members = rng.sample(range(g.n), h + p)
                leaves.append((members[:h], members[h:]))
            h, p = map(len, leaves[0])
            max_k = rng.choice([None, max(h - 1, 1), h, rng.randint(h, h + p)])
            ref = {"global": []}
            want = 0
            for hold, pivots in leaves:
                made_by = _reference_accumulate(ref, hold, pivots, max_k)
                want += (made_by["global"] + per_vertex * made_by["vertex"]
                         + per_edge * made_by["edge"])
            made.clear()
            got = _accumulate(g, leaves, per_vertex, per_edge, max_k,
                              per_call)
            assert sum(made) == want
            assert got.global_counts == (_strip(ref["global"]) or [0])
            if per_vertex:
                for v in range(g.n):
                    assert got.vertex_row(v) == _strip(ref.get(v, [])), v
            if per_edge:
                for u, v in edges:
                    assert got.edge_row(u, v) == _strip(ref.get((u, v), []))


def _strip(row):
    row = list(row)
    while row and not row[-1]:
        row.pop()
    return row


def test_local_counts_beyond_64_bits():
    # K70 on 0..69 plus a disjoint triangle on 70..72; C(68, 34) > 2^63 - 1
    assert math.comb(68, 34) > 2 ** 63 - 1
    edges = [(i, j) for i in range(70) for j in range(i + 1, 70)]
    edges += [(70, 71), (70, 72), (71, 72)]
    g = Graph.from_edges(edges)
    vertex_row = [0] + [math.comb(69, k - 1) for k in range(1, 71)]
    edge_row = [math.comb(68, k - 2) for k in range(2, 71)]
    full = count(g, per_vertex=True, per_edge=True)
    for v in range(70):
        assert full.vertex_row(v) == vertex_row
    for v in range(70, 73):
        assert full.vertex_row(v) == [0, 1, 2, 1]
    for u, v in g.edges():
        assert full.edge_row(u, v) == (edge_row if v < 70 else [1, 1])

    part = count(g, per_vertex=True, per_edge=True, max_k=40)
    for v in range(g.n):
        assert part.vertex_row(v) == full.vertex_row(v)[:41]
    for u, v in g.edges():
        assert part.edge_row(u, v) == full.edge_row(u, v)[:39]


@pytest.mark.parametrize("batch", [7, counting.LEAF_BATCH])
def test_local_rows_across_the_int64_limb_boundary(batch, monkeypatch):
    # Disjoint K66, K67 and K68, a triangle and a 5-leaf star: the cliques'
    # count bounds straddle 2^62, so some of their rows are int64 and some
    # limb planes; C(65, 32) < 2^62 < C(66, 33) and C(67, 33) > 2^63.
    # A batch size of 7 puts nearly every leaf in a batch of its own, and
    # is run with the planes carried after every batch and with rows
    # added in blocks of a few entities; the default batch size runs
    # without any carry.
    monkeypatch.setattr(counting, "LEAF_BATCH", batch)
    carried = batch == 7
    if carried:
        monkeypatch.setattr(counting, "CARRY_AFTER", 1)
        monkeypatch.setattr(counting, "ADD_BLOCK", 200)
    sizes = (66, 67, 68, 3)
    edges, blocks, first = [], [], 0
    for s in sizes:
        edges += itertools.combinations(range(first, first + s), 2)
        blocks.append(range(first, first + s))
        first += s
    edges += [(first, first + i) for i in range(1, 6)]
    g = Graph.from_edges(edges)
    size_of = {v: s for s, block in zip(sizes, blocks) for v in block}
    comb = math.comb
    for max_k in (None, 40):
        t = count(g, per_vertex=True, per_edge=True, max_k=max_k)
        for table in (t.per_vertex, t.per_edge):
            rows = len(table.offsets) - 1
            assert 0 < len(table.wide) < rows
            assert table.planes.shape[0] >= 3
            assert (table.planes >= 0).all()
            # carried: every plane but the top one holds one limb
            assert carried == (table.planes[:-1] < 1 << counting.LIMB_BITS
                               ).all()
        top = max(sizes) if max_k is None else max_k
        for v in range(g.n):
            s = size_of.get(v)
            if s is None:  # star: the hub has 5 edges, each leaf 1
                row = [0, 1, 5 if v == first else 1]
            else:
                row = [0] + [comb(s - 1, k - 1) for k in range(1, s + 1)]
            assert t.vertex_row(v) == row[:top + 1], v
        for u, v in g.edges():
            s = size_of.get(u)
            row = [1] if s is None else [comb(s - 2, k - 2)
                                         for k in range(2, s + 1)]
            assert t.edge_row(u, v) == row[:top - 1], (u, v)


def test_vertex_count_out_of_range_k_is_zero():
    t = count(complete_graph(4), per_vertex=True)
    assert t.vertex_row(0) == [0, 1, 3, 3, 1]
    for k in (-1, -5, 0, 5, 99):
        assert t.vertex_count(0, k) == 0
    assert t.vertex_count(0, 4) == 1
    t = count(complete_graph(4), per_vertex=True, per_edge=True, max_k=2)
    assert t.vertex_count(0, 3) == 0 and t.edge_count(0, 1, 3) == 0
    assert t.edge_count(0, 1, 1) == 0 and t.edge_count(0, 1, -1) == 0


def test_edge_count_of_non_edge_is_zero():
    g = Graph.from_edges([(0, 1), (1, 2), (2, 0), (2, 3)], n=5)
    t = count(g, per_edge=True)
    census = enumerate_all_cliques(g)
    for u, v in ((0, 3), (3, 0), (1, 4), (2, 2)):
        for k in (2, 3):
            assert t.edge_count(u, v, k) == census.edge_count(u, v, k) == 0
        assert t.edge_row(u, v) == []
    assert t.edge_count(3, 2, 2) == 1 and t.edge_count(1, 0, 3) == 1


def test_local_query_on_global_only_tables_raises():
    g = complete_graph(3)
    t = count(g)
    with pytest.raises(ValueError, match="per-vertex counts were not"):
        t.vertex_count(0, 2)
    with pytest.raises(ValueError, match="per-edge counts were not"):
        t.edge_count(0, 1, 2)
    with pytest.raises(ValueError, match="per-edge counts were not"):
        t.edges()
    with pytest.raises(ValueError, match="per-edge counts were not"):
        count(g, per_vertex=True).edge_row(0, 1)
    with pytest.raises(ValueError, match="per-vertex counts were not"):
        count(g, per_edge=True).vertex_row(0)


def test_local_query_bad_vertex_raises():
    t = count(complete_graph(3), per_vertex=True, per_edge=True)
    for v in (3, -1, 10):
        with pytest.raises(ValueError, match=f"vertex {v} out of range"):
            t.vertex_count(v, 2)
        with pytest.raises(ValueError, match=f"vertex {v} out of range"):
            t.edge_count(0, v, 2)
        with pytest.raises(ValueError, match=f"vertex {v} out of range"):
            t.edge_count(v, 0, 2)


def test_k4_end_to_end():
    tables = count(complete_graph(4), per_vertex=True, per_edge=True)
    assert tables.global_count(3) == 4 and tables.global_count(4) == 1
    for v in range(4):
        assert tables.vertex_count(v, 3) == 3
    for u in range(4):
        for v in range(u + 1, 4):
            assert tables.edge_count(u, v, 3) == 2
            assert tables.edge_count(u, v, 4) == 1


def test_complete_graph_closed_form():
    tables = count(complete_graph(7))
    for k in range(1, 8):
        assert tables.global_count(k) == math.comb(7, k)
    assert tables.global_count(8) == 0


def test_petersen_triangle_free():
    tables = count(petersen_graph())
    assert tables.global_counts == [0, 10, 15]
    assert tables.max_clique_size() == 2


@pytest.mark.parametrize("seed", range(5))
def test_random_graph_matches_oracle(seed):
    g = random_gnp(20, 0.4, 700 + seed)
    census = enumerate_all_cliques(g, store_cliques=False)
    assert compare(census, count(g, per_vertex=True, per_edge=True))
    assert compare(census, count(g))  # fused global kernel


def test_max_clique_size():
    assert count(complete_graph(5)).max_clique_size() == 5
    assert count(empty_graph(3)).max_clique_size() == 1
    assert count(empty_graph(0)).max_clique_size() == 0


@pytest.mark.parametrize("seed", range(6))
def test_sum_identities(seed):
    g = random_gnp(16, 0.5, 800 + seed)
    t = count(g, per_vertex=True, per_edge=True)
    for k in range(1, len(t.global_counts)):
        ck = t.global_count(k)
        assert sum(t.vertex_count(v, k) for v in range(g.n)) == k * ck
        if k >= 2:
            total = sum(t.edge_count(u, v, k) for u, v in t.edges())
            assert total == math.comb(k, 2) * ck


@pytest.mark.parametrize("seed", range(4))
def test_truncation_equals_prefix(seed):
    g = random_gnp(15, 0.6, 900 + seed)
    full = count(g, per_vertex=True, per_edge=True)
    for cap in range(1, full.max_clique_size() + 1):
        part = count(g, per_vertex=True, per_edge=True, max_k=cap)
        assert part.global_counts == full.global_counts[:cap + 1]
        for v in range(g.n):
            assert part.vertex_row(v) == full.vertex_row(v)[:cap + 1]
        for u, v in g.edges():
            assert part.edge_row(u, v) == full.edge_row(u, v)[:max(cap - 1, 0)]
        fast = count(g, max_k=cap, counters="fast")
        assert fast.global_counts == full.global_counts[:cap + 1]


def test_basic_count_identities():
    for seed in range(4):
        g = random_gnp(18, 0.3, 1000 + seed)
        t = count(g, per_edge=True)
        assert t.global_count(1) == g.n
        assert t.global_count(2) == g.m
        assert t.edges() == list(g.edges())
        for u, v in t.edges():
            assert t.edge_count(u, v, 2) == 1


def test_leaf_histogram_of_k5():
    # Every root's subproblem is a clique, so each root has one leaf: the
    # root held and its s out-neighbors as pivots, s = 0..4.
    want = {(1, s): 1 for s in range(5)}
    for local in (False, True):
        stats = count(complete_graph(5), per_vertex=local, per_edge=local).stats
        assert stats.leaves == want, local
        assert (stats.leaf_count, stats.max_depth) == (5, 5)


def test_exact_counts_beyond_64_bits():
    t = count(complete_graph(67))
    assert t.global_count(33) == math.comb(67, 33)
    assert t.max_clique_size() == 67


def test_fast_counters_match_exact():
    for seed in range(5):
        g = random_gnp(17, 0.5, 1100 + seed)
        exact = count(g)
        fast = count(g, counters="fast")
        assert fast.global_counts == exact.global_counts
        assert fast.stats == exact.stats


def test_fast_counters_overflow_aborts():
    # eleven disjoint copies of K63: alpha stays 62 but C_31 passes 2^63
    edges = []
    for c in range(11):
        base = c * 63
        edges.extend((base + i, base + j)
                     for i in range(63) for j in range(i + 1, 63))
    g = Graph.from_edges(edges)
    for threads in (1, 2):
        with pytest.raises(CounterOverflowError, match="--exact"):
            count(g, threads=threads, counters="fast")
    # exact mode on the same graph is fine
    assert count(g).global_count(31) == 11 * math.comb(63, 31)


def test_fast_counters_fall_back_when_alpha_large():
    # K70 pushes alpha past the mask width; checked pure path must abort
    g = complete_graph(70)
    with pytest.raises(CounterOverflowError):
        count(g, counters="fast")


def test_checked_bound_enforced_on_local_tables():
    tables = count(complete_graph(3), per_vertex=True)
    tables._enforce_bound(10)
    tables.per_vertex.flat[tables.per_vertex.offsets[0] + 1] += 100
    with pytest.raises(CounterOverflowError):
        tables._enforce_bound(10)
    # a wide row (held in limb planes) over the bound: c_3(e) = 68 on K70
    tables = count(complete_graph(70), per_edge=True, max_k=3)
    assert len(tables.per_edge.wide) == tables.per_edge.offsets.size - 1
    tables.global_counts = [0]
    tables._enforce_bound(68)
    with pytest.raises(CounterOverflowError):
        tables._enforce_bound(67)
    assert FAST_COUNTER_MAX == 2 ** 63 - 1


def test_per_leaf_update_bounds():
    # per leaf: global <= p+1, vertex <= (h+p)(p+1), edge <= (h+p)^2 (p+1)
    # nonzero entries, each leaf added to fresh tables on its own
    g = random_gnp(14, 0.6, 1200)
    leaves = []
    traverse(g, None, lambda hold, pivots: leaves.append(
        (list(hold), list(pivots))))
    assert leaves
    for hold, pivots in leaves:
        h, p = len(hold), len(pivots)
        t = _accumulate(g, [(hold, pivots)], per_vertex=True, per_edge=True)
        assert sum(map(bool, t.global_counts)) <= p + 1
        assert sum(map(bool, t.per_vertex.flat)) <= (h + p) * (p + 1)
        assert sum(map(bool, t.per_edge.flat)) <= (h + p) ** 2 * (p + 1)


def test_local_counts_never_run_the_reference_walker(monkeypatch):
    # walk_root serves traverse's per-leaf sink, the dumps and the tests;
    # every count runs the level walk.
    from cliquecount import sct
    g = random_gnp(30, 0.4, 1700)
    want = count(g, per_vertex=True, per_edge=True)

    def forbidden(*args, **kwargs):
        raise AssertionError("walk_root ran")
    monkeypatch.setattr(sct, "walk_root", forbidden)
    with pytest.raises(AssertionError):
        traverse(g, sink=lambda hold, pivots: None)
    got = count(g, per_vertex=True, per_edge=True)
    assert got.global_counts == want.global_counts
    assert _local_counts(got) == _local_counts(want)


def test_threads_with_local_mode_runs_sequential():
    g = random_gnp(12, 0.5, 1300)
    t = count(g, per_vertex=True, threads=4)
    assert t.workers == 1
    ref = count(g, per_vertex=True)
    assert t.global_counts == ref.global_counts
    assert [t.vertex_row(v) for v in range(g.n)] == \
        [ref.vertex_row(v) for v in range(g.n)]


def test_count_rejects_bad_arguments():
    g = complete_graph(3)
    with pytest.raises(ValueError):
        count(g, max_k=0)
    with pytest.raises(ValueError):
        count(g, threads=0)
    with pytest.raises(ValueError):
        count(g, counters="approximate")


def test_empty_graph_counts():
    t = count(empty_graph(0))
    assert t.global_counts == [0]
    assert t.max_clique_size() == 0


def _traverse_reference(g, o, max_k):
    """``traverse`` with a global-only sink: every leaf's full binomial
    row, those rows cut at ``max_k`` and trimmed, the shape, and the
    leaves."""
    binomial = pascal_rows(o.alpha + 1)
    raw = [0] * (o.alpha + 2)
    leaves = []

    def sink(hold, pivots):
        h, p = len(hold), len(pivots)
        for i in range(p + 1):
            raw[h + i] += binomial[p][i]
        leaves.append((list(hold), list(pivots)))

    stats = traverse(g, o, sink, max_hold=max_k)
    return (raw, _strip(raw[:None if max_k is None else max_k + 1]), stats,
            leaves)


def _strip(counts):
    """``counts`` without trailing zeros, keeping at least one entry."""
    counts = list(counts)
    while len(counts) > 1 and counts[-1] == 0:
        counts.pop()
    return counts


def _mixed_graph(seed):
    """Isolated vertices, edge-free roots, planted cliques, a dense part."""
    rng = random.Random(seed)
    n = 160
    edges = [(rng.randrange(100), rng.randrange(100)) for _ in range(120)]
    for _ in range(4):
        members = rng.sample(range(100), rng.randint(4, 9))
        edges += itertools.combinations(members, 2)
    edges += [(u, v) for u, v in itertools.combinations(range(100, 122), 2)
              if rng.random() < 0.6]
    return Graph.from_edges(edges, n=n)  # 122..159 stay isolated


def _wide_root_graph(seed):
    """K66 (roots of out-degree 65, 64, 63) and K73 less five disjoint
    edges (roots of out-degree 71), plus pendant edges."""
    rng = random.Random(seed)
    edges = list(itertools.combinations(range(66), 2))
    near = range(66, 139)
    missing = rng.sample(near, 10)
    missing = {(min(u, v), max(u, v))
               for u, v in zip(missing[::2], missing[1::2])}
    edges += [e for e in itertools.combinations(near, 2) if e not in missing]
    edges += [(rng.randrange(139), 139 + i) for i in range(10)]
    return Graph.from_edges(edges)


def _multi_word_graph(seed):
    """K135 less five disjoint edges: roots of out-degree 127, 128, 129
    and up to 133, whose rows take two and three words."""
    ends = random.Random(seed).sample(range(135), 10)
    gone = {(min(u, v), max(u, v)) for u, v in zip(ends[::2], ends[1::2])}
    return Graph.from_edges([e for e in itertools.combinations(range(135), 2)
                             if e not in gone])


@pytest.mark.parametrize("chunk_work", [3, None])
@pytest.mark.parametrize("build", [_mixed_graph, _wide_root_graph,
                                   _multi_word_graph])
def test_global_engine_matches_traverse(build, chunk_work, monkeypatch):
    from cliquecount import count_global_parallel, counting, sct
    chunks = []
    if chunk_work is not None:
        # Small enough to split the roots across many chunks: the share
        # of the out-CSR rounds down to 0, so the minimum sets the size.
        monkeypatch.setattr(sct, "ROOT_CHUNK_WORK", chunk_work)
        monkeypatch.setattr(sct, "ROOT_CHUNK_SHARE", 1 << 62)
        chunk_rows = sct._chunk_rows
        monkeypatch.setattr(sct, "_chunk_rows", lambda *args: (
            chunks.append(args[3]) or chunk_rows(*args)))
    for seed in (1, 2):
        g = build(seed)
        o = degeneracy_orient(g)
        out_degrees = set(o.out_degrees().tolist())
        if build is _mixed_graph:
            assert 0 in out_degrees and o.alpha >= 5
        elif build is _wide_root_graph:
            assert {63, 64, 65} <= out_degrees and max(out_degrees) >= 70
        else:
            assert {127, 128, 129} <= out_degrees and max(out_degrees) >= 130
        roots = range(g.n)
        for max_k in (None, 1, 2, 3, 5):
            raw, counts, stats, _ = _traverse_reference(g, o, max_k)
            chunks.clear()
            whole = counting.count_roots_global(o, roots, max_hold=max_k)
            if chunk_work is not None:
                assert len(chunks) > 20, (seed, max_k)
                chunks.clear()
            # Without max_k, the merge keeps the counts past it: the
            # pruned walk's are those of traverse.
            merged = counting.global_tables(g, o.alpha, [whole])
            assert merged.global_counts == _strip(raw), (seed, max_k)
            assert merged.stats == stats, (seed, max_k)
            # Thirds of the roots, one of them split into an empty range,
            # a one-root range and the rest, merge to the same result.
            cut = len(roots) // 3
            slices = [counting.count_roots_global(o, part, max_hold=max_k)
                      for part in (roots[:cut], roots[cut:cut],
                                   roots[cut:cut + 1], roots[cut + 1:2 * cut],
                                   roots[2 * cut:])]
            for parts in ([whole], slices):
                merged = counting.global_tables(g, o.alpha, parts, max_k)
                assert merged.global_counts == counts, (seed, max_k)
                assert merged.stats == stats, (seed, max_k)
            got = count(g, max_k=max_k, orientation=o)
            assert got.global_counts == counts, (seed, max_k)
            assert got.stats == stats, (seed, max_k)
            par = count_global_parallel(g, o, workers=2, max_k=max_k)
            assert par.global_counts == counts, (seed, max_k)
            assert par.stats == stats, (seed, max_k)


def _tripartite_graph(seed):
    """K_{8,8,8}, its vertices numbered in a seeded random order."""
    label = list(range(24))
    random.Random(seed).shuffle(label)
    return Graph.from_edges([(label[u], label[v]) for u, v in
                             _complete_multipartite(3, 8).edges()], n=24)


def _local_counts(tables):
    """The counts of local tables laid out alike, to compare: the flat
    rows, and the limb planes with every carry done."""
    counts = []
    for table in (tables.per_vertex, tables.per_edge):
        planes = table.planes.copy()
        for lower, upper in zip(planes[:-1], planes[1:]):
            upper += lower >> counting.LIMB_BITS
            lower &= (1 << counting.LIMB_BITS) - 1
        counts += [table.flat.tolist(), planes.tolist()]
    return counts


@pytest.mark.parametrize("build", [_mixed_graph, _wide_root_graph,
                                   _multi_word_graph, _tripartite_graph])
def test_level_walk_in_slices_matches_traverse(build, monkeypatch):
    # Budgets small enough that the busy roots of a few chunks make one
    # level walk and split across several, a batch holds one node or a
    # few, and each level but the last splits into slices, walked deepest
    # first. The level walk (walk_levels) must still give the shape and
    # counts of traverse's sink walk (walk_root): global-only, and
    # per-vertex and per-edge, whose tables must be those of walk_root's
    # leaves fed to accumulate_leaf, also with one leaf per LEAF_BATCH.
    from cliquecount import sct
    monkeypatch.setattr(sct, "ROOT_CHUNK_WORK", 128)
    monkeypatch.setattr(sct, "ROOT_CHUNK_SHARE", 1 << 62)
    monkeypatch.setattr(sct, "LEVEL_NODES", 1)
    leaf_batch = counting.LEAF_BATCH
    # Chunks, the depth of every batch, and where each walk's batches start.
    chunks, depths, starts = [], [], []
    chunk_rows, walk_levels, walk_batch = (sct._chunk_rows, sct.walk_levels,
                                           sct._walk_batch)
    monkeypatch.setattr(sct, "_chunk_rows", lambda *args: (
        chunks.append(args[3]) or chunk_rows(*args)))
    monkeypatch.setattr(sct, "walk_levels", lambda *args: (
        starts.append(len(depths)) or walk_levels(*args)))
    monkeypatch.setattr(sct, "_walk_batch", lambda *args: (
        depths.append(args[2]) or walk_batch(*args)))
    for seed in (1, 2):
        g = build(seed)
        o = degeneracy_orient(g)
        # A quarter of all roots' row words; twice the largest root's cost.
        d = o.out_degrees()
        words = -(-d // sct.WORD_BITS)
        monkeypatch.setattr(sct, "LEVEL_ROW_WORDS", int((d * words).sum()) // 4)
        monkeypatch.setattr(sct, "LEVEL_WORDS", 2 * int(((d + 8) * words).max()))
        roots = range(g.n)
        for max_k in (None, 1, 2, 3, 5):
            _, counts, stats, leaves = _traverse_reference(g, o, max_k)
            for log in (chunks, depths, starts):
                log.clear()
            whole = counting.count_roots_global(o, roots, max_hold=max_k)
            assert len(chunks) > len(starts) > 1, (seed, max_k)
            # A slice of a level is walked after a deeper level.
            assert any(depths[i] < depths[i - 1]
                       for i in set(range(1, len(depths))) - set(starts)), (
                seed, max_k)
            # Halves of the roots, with an empty range and a one-root
            # range cut from the second, merge to the same result.
            cut = len(roots) // 2
            halves = [counting.count_roots_global(o, part, max_hold=max_k)
                      for part in (roots[:cut], roots[cut:cut],
                                   roots[cut:cut + 1], roots[cut + 1:])]
            for parts in ([whole], halves):
                merged = counting.global_tables(g, o.alpha, parts, max_k)
                assert merged.global_counts == counts, (seed, max_k)
                assert merged.stats == stats, (seed, max_k)
            want = _accumulate(g, leaves, True, True, max_k)
            # Seed 1 without max_k also adds the leaves one at a time.
            one_by_one = (seed, max_k) == (1, None)
            for batch in (leaf_batch, 1)[:1 + one_by_one]:
                monkeypatch.setattr(counting, "LEAF_BATCH", batch)
                for log in (chunks, depths, starts):
                    log.clear()
                local = count(g, per_vertex=True, per_edge=True, max_k=max_k,
                              orientation=o)
                assert len(chunks) > len(starts) > 1, (seed, max_k)
                assert local.global_counts == counts, (seed, max_k)
                assert local.stats == stats, (seed, max_k)
                assert _local_counts(local) == _local_counts(want), (
                    seed, max_k)


def _expected_rows(top, value):
    """[value(k) for k = 0..top], without trailing zeros."""
    return _strip([value(k) for k in range(top + 1)])


@pytest.mark.parametrize("max_k", [None, 3, 6])
def test_multi_word_rows_closed_forms(max_k):
    # K135 less five disjoint edges: a k-set is a clique unless it holds
    # one of them, so C_k = sum_j (-1)^j C(5, j) C(135 - 2j, k - 2j).
    top = 135 if max_k is None else max_k
    g = _multi_word_graph(1)
    assert count(g, max_k=max_k).global_counts == _expected_rows(
        top, lambda k: sum((-1) ** j * math.comb(5, j)
                           * math.comb(135 - 2 * j, k - 2 * j)
                           for j in range(min(5, k // 2) + 1)) if k else 0)
    # K130: every root has rows of up to three words; c_k(v) = C(129, k -
    # 1) and c_k(uv) = C(128, k - 2).
    n = 130
    t = count(complete_graph(n), per_vertex=True, per_edge=True, max_k=max_k)
    top = n if max_k is None else max_k
    assert t.global_counts == _expected_rows(
        top, lambda k: math.comb(n, k) if k else 0)
    vertex = _expected_rows(top, lambda k: math.comb(n - 1, k - 1) if k else 0)
    edge = _expected_rows(
        top, lambda k: math.comb(n - 2, k - 2) if k >= 2 else 0)[2:]
    assert all(t.vertex_row(v) == vertex for v in range(n))
    assert all(t.edge_row(u, v) == edge for u, v in t.edges())
    assert len(t.edges()) == n * (n - 1) // 2


def _complete_multipartite(parts, size):
    """K_{parts x size}: ``parts`` independent sets of ``size`` vertices,
    every two vertices of different sets adjacent."""
    n = parts * size
    return Graph.from_edges([(u, v) for u, v in itertools.combinations(
        range(n), 2) if u // size != v // size], n=n)


@pytest.mark.parametrize("parts", [3, 4])
@pytest.mark.parametrize("max_k", [None, 1, 2, 3])
def test_complete_multipartite_closed_forms(parts, max_k):
    # Parts of 8 vertices: every walk settles edge-free nodes of up to 8
    # vertices in closed form, capped at max_hold when max_k is set.
    # C_k = C(r, k) s^k, c_k(v) = C(r - 1, k - 1) s^(k - 1) and c_k(uv) =
    # C(r - 2, k - 2) s^(k - 2), for r parts of s vertices.
    r, s = parts, 8
    g = _complete_multipartite(r, s)
    top = r if max_k is None else max_k
    rows = _expected_rows(top, lambda k: math.comb(r, k) * s ** k if k else 0)
    vertex = _expected_rows(
        top, lambda k: math.comb(r - 1, k - 1) * s ** (k - 1) if k else 0)
    edge = _expected_rows(
        top, lambda k: math.comb(r - 2, k - 2) * s ** (k - 2) if k >= 2
        else 0)[2:]
    for threads in (1, 2):
        assert count(g, max_k=max_k, threads=threads).global_counts == rows
    t = count(g, per_vertex=True, per_edge=True, max_k=max_k)
    assert t.global_counts == rows
    assert all(t.vertex_row(v) == vertex for v in range(g.n))
    assert len(t.edges()) == g.m
    assert all(t.edge_row(u, v) == edge for u, v in t.edges())
