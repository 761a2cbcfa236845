import inspect
import itertools
import math
import random
import sys
from collections import Counter

import numpy as np
import pytest

from cliquecount import (Graph, SizeLimitError, TraversalStats, count,
                         degeneracy_orient, enumerate_all_cliques,
                         materialize_sct, sct, traverse,
                         verify_unique_representation)
from cliquecount import graph as graph_module

from conftest import (complete_graph, empty_graph, petersen_graph,
                      quadratic_peel, random_gnp)


def collect_paths(graph, max_hold=None):
    paths = []
    stats = traverse(graph, sink=lambda h, p: paths.append((tuple(h), tuple(p))),
                     max_hold=max_hold)
    return paths, stats


def test_triangle_leaves():
    g = complete_graph(3)
    paths, stats = collect_paths(g)
    assert stats.leaf_count == 3
    assert len(paths) == 3
    for hold, pivots in paths:
        assert not set(hold) & set(pivots)
        members = sorted(set(hold) | set(pivots))
        for i in range(len(members)):
            for j in range(i + 1, len(members)):
                assert g.are_adjacent(members[i], members[j])
    tree = materialize_sct(g)
    assert len(tree.children) == 3


def test_edgeless_graph_one_leaf_per_vertex():
    g = empty_graph(4)
    paths, stats = collect_paths(g)
    assert stats.leaf_count == 4
    assert sorted(paths) == [((v,), ()) for v in range(4)]


def test_k4_expansions_cover_all_cliques_once():
    g = complete_graph(4)
    census = enumerate_all_cliques(g)
    tree = materialize_sct(g)
    assert len(census.cliques) == 15
    assert verify_unique_representation(g, tree, census.cliques)


def test_single_edge_hand_trace():
    g = Graph.from_edges([(0, 1)])
    tree = materialize_sct(g)
    # root children: N+(0) = {1} via (0,h) and the empty set via (1,h)
    assert [(c.link_vertex, c.link_kind, c.label) for c in tree.children] == [
        (0, "hold", (1,)), (1, "hold", ())]
    pivot_chain = tree.children[0].children
    assert [(c.link_vertex, c.link_kind, c.label) for c in pivot_chain] == [
        (1, "pivot", ())]
    assert tree.leaf_count() == 2
    assert tree.node_count() == 3
    _, stats = collect_paths(g)
    assert (stats.node_count, stats.leaf_count) == (3, 2)


def test_empty_graph_root_only():
    tree = materialize_sct(empty_graph(0))
    assert tree.node_count() == 0
    assert tree.label == ()
    stats = traverse(empty_graph(0))
    assert (stats.node_count, stats.leaf_count, stats.max_depth) == (0, 0, 0)


def _clique_rich_graph(seed):
    """Overlapping cliques, a clique less a matching, a star and isolated
    vertices: many subproblems are complete or edge-free."""
    rng = random.Random(seed)
    edges = []
    for _ in range(3):
        edges += itertools.combinations(rng.sample(range(24), 6), 2)
    near = range(24, 33)
    edges += [(u, v) for u, v in itertools.combinations(near, 2)
              if (u - 24) // 2 != (v - 24) // 2 or u % 2 == v % 2]
    edges += [(33, v) for v in range(34, 40)]
    return Graph.from_edges(edges, n=44)


@pytest.mark.parametrize("tail_slice", [1, 7, 64, graph_module.CSR_SLICE])
def test_root_chunks_in_slices(tail_slice, monkeypatch):
    # Sums over slices of the roots' out-CSR rows give the running sum of
    # out-degree plus wedges over all edges, on the clique-rich graph and
    # on a 300-vertex random graph, for all roots and for inner ranges.
    # walk_roots cuts a range into consecutive chunks of that work, each of
    # at most 5 units, so that there are many, or of one root.
    monkeypatch.setattr(graph_module, "CSR_SLICE", tail_slice)
    monkeypatch.setattr(sct, "ROOT_CHUNK_WORK", 5)
    chunks = []
    chunk_rows = sct._chunk_rows
    monkeypatch.setattr(sct, "_chunk_rows", lambda *args: (
        chunks.append(args[3]) or chunk_rows(*args)))
    for g in (_clique_rich_graph(3), random_gnp(300, 0.05, 11)):
        o = degeneracy_orient(g)
        offsets, targets = o.out_offsets, o.out_targets
        out_deg = np.diff(offsets)
        through = np.concatenate(([0], np.cumsum(out_deg[targets])))
        each = out_deg + through[offsets[1:]] - through[offsets[:-1]]
        for roots in (range(g.n, g.n), range(9, 10), range(5, g.n - 7),
                      range(g.n)):
            want = np.concatenate(([0], np.cumsum(each[roots.start:
                                                       roots.stop])))
            got = sct.root_work(offsets, targets, out_deg, roots)
            assert got.tolist() == want.tolist()
            chunks.clear()
            sct.walk_roots(o, roots)
            bounds = [roots.start] + [c.stop for c in chunks]
            assert [c.start for c in chunks] == bounds[:-1]
            assert bounds[-1] == roots.stop and all(chunks)
            step = max(5, len(targets) // sct.ROOT_CHUNK_SHARE)
            for c in chunks:
                lo, hi = c.start - roots.start, c.stop - roots.start
                assert want[hi] - want[lo] <= step or len(c) == 1
                assert hi == len(roots) or want[hi + 1] - want[lo] > step
        assert len(chunks) > 10
        assert got.dtype == np.int64


@pytest.mark.parametrize("seed", range(15))
def test_materialize_matches_traverse(seed):
    # The recorded tree has the walk's shape and its leaves in walk order.
    for g in (random_gnp(4 + seed, 0.5, 300 + seed), _clique_rich_graph(seed)):
        o = degeneracy_orient(g)
        paths = []
        stats = traverse(g, o,
                         lambda h, p: paths.append((tuple(h), tuple(p))))
        tree = materialize_sct(g, o)
        assert tree.node_count() == stats.node_count
        assert tree.leaf_count() == stats.leaf_count
        assert list(tree.iter_paths()) == paths


def _expected_children(graph, label, rank=None):
    """(kind, link vertex, label) of a node's children, from adjacency alone.

    At the root (``rank`` given) every vertex is a hold link labelled with
    its later neighbours in the peel order. Below it the first child is
    the pivot p, the lowest id of maximum degree within the label,
    labelled N(p) & label; then each non-neighbour x of p, ascending, is a
    hold link labelled N(x) & label minus the earlier non-neighbours.
    """
    adjacent = graph.are_adjacent
    if rank is not None:
        return [("hold", v, tuple(u for u in label if adjacent(v, u)
                                  and rank[u] > rank[v])) for v in label]
    if not label:
        return []
    degree = {x: sum(adjacent(x, y) for y in label) for x in label}
    p = min(label, key=lambda x: (-degree[x], x))
    children = [("pivot", p, tuple(y for y in label if adjacent(p, y)))]
    earlier = set()
    for x in label:
        if x != p and not adjacent(p, x):
            children.append(("hold", x, tuple(
                y for y in label if adjacent(x, y) and y not in earlier)))
            earlier.add(x)
    return children


def assert_tree_follows_pivot_rule(graph, tree):
    order, _ = quadratic_peel(graph)
    rank = {v: i for i, v in enumerate(order)}
    assert tree.label == tuple(range(graph.n))
    nodes = [(tree, rank)]
    while nodes:
        node, node_rank = nodes.pop()
        got = [(c.link_kind, c.link_vertex, c.label) for c in node.children]
        assert got == _expected_children(graph, node.label, node_rank), (
            node.link_kind, node.link_vertex, node.label)
        nodes.extend((child, None) for child in node.children)


@pytest.mark.parametrize("seed", range(15))
def test_tree_nodes_follow_pivot_rule(seed):
    for g in (random_gnp(4 + seed, 0.5, 300 + seed),
              random_gnp(8 + seed, 0.8, 700 + seed), _clique_rich_graph(seed)):
        assert_tree_follows_pivot_rule(g, materialize_sct(g))


@pytest.mark.parametrize("seed", range(10))
def test_leaf_labels_are_disjoint_cliques(seed):
    g = random_gnp(12, 0.5, 400 + seed)

    def check(hold, pivots):
        assert not set(hold) & set(pivots)
        members = sorted(set(hold) | set(pivots))
        assert len(members) == len(hold) + len(pivots)
        for i in range(len(members)):
            for j in range(i + 1, len(members)):
                assert g.are_adjacent(members[i], members[j])

    traverse(g, sink=check)


@pytest.mark.parametrize("seed", range(10))
def test_node_count_within_pivoting_bound(seed):
    g = random_gnp(14, 0.6, 500 + seed)
    o = degeneracy_orient(g)
    stats = traverse(g, o)
    assert stats.node_count <= g.n * 3 ** (o.alpha / 3) + g.n + 1
    assert stats.max_depth <= o.alpha + 1


@pytest.mark.parametrize("seed", range(8))
def test_truncated_leaves_are_a_subset(seed):
    g = random_gnp(13, 0.5, 600 + seed)
    full, _ = collect_paths(g)
    for cap in (1, 2, 3):
        truncated, _ = collect_paths(g, max_hold=cap)
        assert set(truncated) <= set(full)
        assert all(len(h) <= cap for h, _ in truncated)
        # every surviving full-run leaf is reproduced
        assert set(truncated) == {(h, p) for h, p in full if len(h) <= cap}


def test_leaf_histogram_matches_the_leaves():
    # The walk tallies leaves by (|H|, |P|) whether or not a sink sees
    # them; with a per-leaf sink walk_root walks the tree, without one
    # walk_levels.
    for seed in range(4):
        g = random_gnp(30, 0.3, 1600 + seed)
        for max_hold in (None, 1, 2, 3):
            paths, stats = collect_paths(g, max_hold)
            want = Counter((len(hold), len(pivots)) for hold, pivots in paths)
            assert stats.leaves == want, (seed, max_hold)
            assert stats.leaf_count == len(paths)
            assert stats.max_depth == max(map(sum, want), default=0)
            assert traverse(g, max_hold=max_hold) == stats, (seed, max_hold)


def test_pivot_scan_stops_at_a_vertex_adjacent_to_all_others():
    # Root 5's subproblem: members a < b < c < d, all adjacent but a and d.
    # The scan meets a (degree 2), then b, adjacent to all the others: it
    # stops there, so b is the pivot, not c, adjacent to all the others
    # too. In the pivot child {a, c, d} it passes a (degree 1) and stops
    # at c. The child {a, d} has no edge: pivot leaf a, hold leaf d.
    a, b, c, d = (1 << i for i in range(4))
    rows = [b | c, a | c | d, a | b | d, b | c]
    leaves = []
    stats = TraversalStats()
    sct.walk_root(stats, 5, [10, 11, 12, 13], rows, on_node=lambda mask, _,
                  hold, pivots: mask or leaves.append((hold[:], pivots[:])))
    assert leaves == [([5], [11, 12, 10]), ([5, 13], [11, 12])]
    assert stats == TraversalStats(5, {(1, 3): 1, (2, 2): 1})
    # The level walk builds the same tree from the same rows.
    level = TraversalStats()
    sct.walk_levels(level, np.array(rows, dtype=np.uint64)[:, None],
                    np.array([4]))
    assert level == stats


def test_truncation_to_zero_emits_nothing():
    stats = traverse(complete_graph(4), max_hold=0)
    assert stats.leaf_count == 0


def test_deep_tree_walks_without_recursion():
    # K120's tree is 120 links deep. With only 60 frames of headroom, a
    # walk or a tree dump that recursed once per level would raise
    # RecursionError.
    g = complete_graph(120)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 60)
    try:
        tables = count(g, per_vertex=True, per_edge=True)
        stats = traverse(g)
        tree = materialize_sct(g)
        nodes, leaves = tree.node_count(), tree.leaf_count()
        paths = list(tree.iter_paths())
        text = tree.to_text()
        records = tree.to_records()
    finally:
        sys.setrecursionlimit(limit)
    assert nodes == stats.node_count and leaves == len(paths) == 120
    assert len(text.splitlines()) == len(records) == nodes + 1
    assert max(len(h) + len(p) for h, p in paths) == 120
    for v in range(g.n):
        row = tables.vertex_row(v)
        assert len(row) == 121
        assert all(row[k] == math.comb(119, k - 1) for k in range(1, 121))
    assert stats.leaf_count == 120


def test_materialize_node_cap():
    with pytest.raises(SizeLimitError):
        materialize_sct(complete_graph(8), node_cap=5)


def test_unique_representation_detects_planted_errors():
    g = complete_graph(3)
    census = enumerate_all_cliques(g)
    tree = materialize_sct(g)
    assert verify_unique_representation(g, tree, census.cliques)
    # a wrong oracle must be flagged, in both directions
    short = [c for c in census.cliques if len(c) < 3]
    assert not verify_unique_representation(g, tree, short)
    extra = census.cliques + [(0,  1, 2, 3)]
    assert not verify_unique_representation(g, tree, extra)


def test_petersen_tree_verifies():
    g = petersen_graph()
    census = enumerate_all_cliques(g)
    assert census.global_count(3) == 0
    tree = materialize_sct(g)
    assert verify_unique_representation(g, tree, census.cliques)


def test_tree_text_and_records():
    g = Graph.from_edges([(0, 1)])
    tree = materialize_sct(g)
    text = tree.to_text()
    assert text.startswith("root {0,1}\n")
    assert "(0,h) {1}" in text and "(1,p) {}" in text
    records = tree.to_records()
    assert records[0] == (0, -1, "root", None, (0, 1))
    kinds = [r[2] for r in records]
    assert kinds.count("hold") == 2 and kinds.count("pivot") == 1
    # parent labels strictly contain child labels; leaves are empty
    by_id = {r[0]: r for r in records}
    for node_id, parent, kind, vertex, label in records[1:]:
        parent_label = set(by_id[parent][4])
        assert set(label) < parent_label
        assert vertex in parent_label


def test_path_length_bound_on_cliquey_graph():
    g = complete_graph(6)
    o = degeneracy_orient(g)
    seen = []
    traverse(g, o, lambda h, p: seen.append(len(h) + len(p)))
    assert max(seen) <= o.alpha + 1


def test_tree_structural_invariants_random():
    g = random_gnp(11, 0.5, 808)
    records = materialize_sct(g).to_records()
    by_id = {r[0]: r for r in records}
    assert records[0][4] == tuple(range(g.n))  # root labeled V
    for node_id, parent, kind, vertex, label in records[1:]:
        parent_label = set(by_id[parent][4])
        assert set(label) < parent_label
        assert vertex in parent_label
        assert kind in ("hold", "pivot")
        if not any(r[1] == node_id for r in records):
            assert label == ()  # leaves carry the empty label
