"""Hypothesis property tests of the peel, the core numbers and the global and
local counts."""

import itertools
import math

import networkx as nx
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cliquecount import (Graph, core_numbers, count, degeneracy,
                         degeneracy_orient, pascal_rows, sct, traverse)
from cliquecount.counting import count_roots_global, global_tables

from conftest import quadratic_peel


@st.composite
def tie_heavy_graphs(draw):
    """Stars, disjoint cliques, circulant (regular) graphs, or a clique
    with a star or path hung off it, lightly perturbed and relabelled, so
    that many vertices tie on degree. The mixed kind makes the core jump
    by more than one, and degrees fall from above the running core to at
    or below it in the middle of a shell."""
    kind = draw(st.sampled_from(["stars", "cliques", "circulant", "mixed"]))
    edges = []
    if kind == "circulant":
        n = draw(st.integers(3, 30))
        steps = draw(st.sets(st.integers(1, n // 2), max_size=3))
        edges = [(v, (v + s) % n) for v in range(n) for s in steps]
    elif kind == "mixed":
        size = draw(st.integers(3, 8))
        tail = draw(st.integers(1, 8))
        n = size + tail
        edges = list(itertools.combinations(range(size), 2))
        edges.append((draw(st.integers(0, size - 1)), size))
        if draw(st.booleans()):
            edges += [(size, v) for v in range(size + 1, n)]
        else:
            edges += [(v, v + 1) for v in range(size, n - 1)]
    else:
        sizes = draw(st.lists(st.integers(1, 7), min_size=1, max_size=6))
        n = sum(sizes)
        base = 0
        for size in sizes:
            block = range(base, base + size)
            if kind == "stars":
                edges += [(base, v) for v in block[1:]]
            else:
                edges += itertools.combinations(block, 2)
            base += size
    extra = draw(st.lists(st.tuples(st.integers(0, n - 1),
                                    st.integers(0, n - 1)), max_size=3))
    label = draw(st.permutations(range(n)))
    return Graph.from_edges([(label[u], label[v]) for u, v in edges + extra],
                            n=n)


@st.composite
def small_graphs(draw, max_n=14):
    n = draw(st.integers(0, max_n))
    pairs = list(itertools.combinations(range(n), 2))
    chosen = draw(st.lists(st.booleans(), min_size=len(pairs),
                           max_size=len(pairs)))
    return Graph.from_edges([e for e, keep in zip(pairs, chosen) if keep], n=n)


@st.composite
def clique_rich_graphs(draw):
    """Overlapping or disjoint cliques, stars and cliques less a matching on
    a vertex set that may leave some vertices isolated: clique trees full
    of complete and edge-free subproblems."""
    n = draw(st.integers(1, 36))
    edges = []
    for _ in range(draw(st.integers(0, 5))):
        kind = draw(st.sampled_from(["clique", "star", "matching"]))
        members = draw(st.lists(st.integers(0, n - 1), min_size=1,
                                max_size=13, unique=True))
        if kind == "star":
            edges += [(members[0], v) for v in members[1:]]
        else:
            pairs = set(itertools.combinations(members, 2))
            if kind == "matching":
                pairs -= set(zip(members[::2], members[1::2]))
            edges += pairs
    return Graph.from_edges(edges, n=n)


def _global_reference(g, o, max_hold):
    """Raw counts and shape of ``traverse`` with a global-only sink."""
    binomial = pascal_rows(o.alpha + 1)
    raw = [0] * (o.alpha + 2)

    def sink(hold, pivots):
        for i, c in enumerate(binomial[len(pivots)]):
            raw[len(hold) + i] += c

    stats = traverse(g, o, sink, max_hold=max_hold)
    return raw, (stats.node_count, stats.leaf_count, stats.max_depth)


@settings(max_examples=150, deadline=None)
@given(tie_heavy_graphs())
def test_peel_matches_quadratic_peel_on_ties(g):
    o = degeneracy_orient(g)
    ref_order, ref_alpha = quadratic_peel(g)
    assert o.order == ref_order
    assert o.alpha == ref_alpha
    gx = nx.Graph()
    gx.add_nodes_from(range(g.n))
    gx.add_edges_from(g.edges())
    cores = nx.core_number(gx)
    assert o.core_numbers == [cores[v] for v in range(g.n)]


@settings(max_examples=150, deadline=None)
@given(st.one_of(small_graphs(), tie_heavy_graphs()))
def test_core_numbers_match_the_peel(g):
    want = degeneracy_orient(g).core_numbers
    assert core_numbers(g).tolist() == want
    # These graphs are small enough for the Python rounds; a threshold of 1
    # sends every round through numpy.
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(degeneracy, "SMALL_ROUND", 1)
        assert core_numbers(g).tolist() == want


@settings(max_examples=80, deadline=None)
@given(small_graphs(), st.randoms(use_true_random=False))
def test_global_counts_ignore_vertex_labels(g, rng):
    label = list(range(g.n))
    rng.shuffle(label)
    relabelled = Graph.from_edges(
        [(label[u], label[v]) for u, v in g.edges()], n=g.n)
    assert count(relabelled).global_counts == count(g).global_counts


@settings(max_examples=60, deadline=None)
@given(small_graphs(max_n=10))
def test_truncated_run_is_a_prefix_of_the_full_run(g):
    full = count(g, per_vertex=True, per_edge=True)
    for max_k in range(1, full.max_clique_size() + 2):
        assert count(g, max_k=max_k).global_counts == \
            full.global_counts[:max_k + 1]
        part = count(g, per_vertex=True, per_edge=True, max_k=max_k)
        assert part.global_counts == full.global_counts[:max_k + 1]
        for v in range(g.n):
            assert part.vertex_row(v) == full.vertex_row(v)[:max_k + 1]
        for u, v in g.edges():
            assert part.edge_row(u, v) == full.edge_row(u, v)[:max_k - 1]


@settings(max_examples=120, deadline=None)
@given(clique_rich_graphs(), st.randoms(use_true_random=False))
def test_global_engine_matches_traverse(g, rng):
    o = degeneracy_orient(g)
    roots = list(range(g.n))
    rng.shuffle(roots)
    for max_k in (None, 1, 2, 3, 5):
        raw, shape = _global_reference(g, o, max_k)
        # The global-only engine (sct.walk_levels) against traverse's sink
        # walk (sct.walk_root), then with every level budget at its least:
        # a batch per node and the levels walked in slices, deepest first.
        engine = count_roots_global(o, roots, max_hold=max_k)
        with pytest.MonkeyPatch.context() as patch:
            for budget in ("LEVEL_ROW_WORDS", "LEVEL_WORDS", "LEVEL_NODES"):
                patch.setattr(sct, budget, 1)
            assert count_roots_global(o, roots, max_hold=max_k) == engine
        tables = global_tables(g, o.alpha, [engine])
        stats = tables.stats
        assert (stats.node_count, stats.leaf_count,
                stats.max_depth) == shape, max_k
        while len(raw) > 1 and raw[-1] == 0:
            raw.pop()
        assert tables.global_counts == raw, max_k
        # The local path builds its global counts and shape, leaf
        # histogram included, from traverse's walk, in the same function.
        trimmed = global_tables(g, o.alpha, [engine], max_k)
        local = count(g, per_vertex=True, per_edge=True, max_k=max_k,
                      orientation=o)
        assert local.global_counts == trimmed.global_counts, max_k
        assert local.stats == trimmed.stats == stats, max_k


@settings(max_examples=80, deadline=None)
@given(st.one_of(small_graphs(), clique_rich_graphs()))
def test_local_counts_sum_to_global_counts(g):
    t = count(g, per_vertex=True, per_edge=True)
    edges = list(g.edges())
    for k, total in enumerate(t.global_counts):
        assert sum(t.vertex_count(v, k) for v in range(g.n)) == k * total
        if k >= 2:
            assert sum(t.edge_count(u, v, k) for u, v in edges) == \
                math.comb(k, 2) * total


@settings(max_examples=80, deadline=None)
@given(st.one_of(small_graphs(), clique_rich_graphs()), st.data())
def test_deleting_an_edge_removes_only_its_cliques(g, data):
    edges = list(g.edges())
    assume(edges)
    u, v = data.draw(st.sampled_from(edges))
    before = count(g, per_edge=True)
    after = count(Graph.from_edges([e for e in edges if e != (u, v)],
                                   n=g.n))
    assert len(after.global_counts) <= len(before.global_counts)
    for k in range(len(before.global_counts)):
        assert after.global_count(k) <= before.global_count(k), k
        assert before.global_count(k) - after.global_count(k) == \
            (before.edge_count(u, v, k) if k >= 2 else 0), k
