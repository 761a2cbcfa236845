"""Hypothesis property tests of the peel and the global and local counts."""

import itertools

import networkx as nx
from hypothesis import given, settings
from hypothesis import strategies as st

from cliquecount import Graph, count, degeneracy_orient

from conftest import quadratic_peel


@st.composite
def tie_heavy_graphs(draw):
    """Stars, disjoint cliques or circulant (regular) graphs, lightly
    perturbed and relabelled, so that many vertices tie on degree."""
    kind = draw(st.sampled_from(["stars", "cliques", "circulant"]))
    edges = []
    if kind == "circulant":
        n = draw(st.integers(3, 30))
        steps = draw(st.sets(st.integers(1, n // 2), max_size=3))
        edges = [(v, (v + s) % n) for v in range(n) for s in steps]
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
        assert part.per_vertex == [row[:max_k + 1] for row in full.per_vertex]
        assert part.per_edge == [row[:max_k - 1] for row in full.per_edge]
