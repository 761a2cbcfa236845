"""Seeded benchmark inputs and reference values computed apart from cliquecount.

Each workload's graph is drawn from ``numpy.random.default_rng(seed)``.
Vertex labels are randomly permuted and edge lines shuffled (each line in a
random direction), so file order, id order and geometric order all differ.
The program sees only the edge-list file.

Reference values are computed here with numpy, scipy and networkx, in the
dense-id space the program reports in: ids are given to labels in order of
first appearance in the file, the loader's documented rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import networkx as nx
import numpy as np
import scipy.sparse as sp
from scipy.spatial import cKDTree

# Workload name -> (family, parameters, cliquecount count flags).
WORKLOADS = {
    "desk-global": ("uniform", {"n": 100_000, "avg_degree": 12.0, "planted": 11}, []),
    "geo-global": ("geometric", {"n": 30_000, "avg_degree": 30.0, "planted": 70}, []),
    "geo-local": ("geometric", {"n": 2_000, "avg_degree": 30.0, "planted": 70},
                  ["--per-vertex", "--per-edge"]),
}

# Sampled local checks enumerate cliques of neighbourhoods up to this size.
SAMPLE_NEIGHBOURHOOD_MAX = 14
SAMPLE_VERTICES = 30
SAMPLE_EDGES = 60


@dataclass
class Reference:
    """What a correct run on one input must report, in dense ids."""
    n: int
    m: int
    alpha: int = 0                           # degeneracy
    max_core_size: int = 0                   # vertices whose core number is alpha
    global_exact: dict[int, int] = field(default_factory=dict)
    max_clique: int | None = None
    planted: np.ndarray | None = None        # dense ids of the planted clique
    planted_above: int | None = None         # C_k = C(planted, k) for k > this
    degrees: np.ndarray | None = None
    edge_keys: np.ndarray | None = None      # u * n + v for each edge u < v
    tri_matrix: sp.csr_matrix | None = None  # c_3(e) per edge, symmetric
    vertex_samples: dict[int, dict[int, int]] = field(default_factory=dict)
    edge_samples: dict[tuple[int, int], dict[int, int]] = field(default_factory=dict)


def _uniform_edges(rng, n, avg_degree, planted):
    raw = int(n * avg_degree / 2)
    u = rng.integers(0, n, raw, dtype=np.int64)
    v = rng.integers(0, n, raw, dtype=np.int64)
    clique = rng.choice(n, planted, replace=False)
    i, j = np.triu_indices(planted, 1)
    return np.concatenate([u, clique[i]]), np.concatenate([v, clique[j]]), None


def _geometric_edges(rng, n, avg_degree, planted):
    points = rng.random((n, 2))
    radius = math.sqrt(avg_degree / (n * math.pi))
    pairs = cKDTree(points).query_pairs(radius, output_type="ndarray")
    clique = np.arange(n, n + planted, dtype=np.int64)
    i, j = np.triu_indices(planted, 1)
    u = np.concatenate([pairs[:, 0].astype(np.int64), clique[i]])
    v = np.concatenate([pairs[:, 1].astype(np.int64), clique[j]])
    return u, v, clique


def generate(workload: str, seed: int, **overrides):
    """Edge-list text and the dense-id edge array for one workload and seed.

    Returns ``(text, edges, planted)``: ``edges`` is an (m, 2) int64 array
    of dense ids with u < v, and ``planted`` the dense ids of the planted
    clique of a geometric input (None for the uniform family).
    ``overrides`` replace family parameters; the tests use smaller inputs.
    """
    family, params, _ = WORKLOADS[workload]
    rng = np.random.default_rng(seed)
    make = _uniform_edges if family == "uniform" else _geometric_edges
    u, v, planted = make(rng, **{**params, **overrides})
    keep = u != v
    a = np.minimum(u[keep], v[keep])
    b = np.maximum(u[keep], v[keep])
    total = int(max(a.max(), b.max())) + 1
    key = np.unique(a * total + b)
    a, b = key // total, key % total
    # Random labels, random line order, random direction per line.
    labels = rng.permutation(total) + 1
    order = rng.permutation(len(a))
    flip = rng.random(len(a)) < 0.5
    first = np.where(flip, b, a)[order]
    second = np.where(flip, a, b)[order]
    body = "\n".join(f"{x} {y}" for x, y in
                     zip(labels[first].tolist(), labels[second].tolist()))
    text = f"# {workload} seed={seed} edges={len(a)}\n{body}\n"

    # Dense ids in order of first appearance in the file.
    sequence = np.stack([first, second], axis=1).ravel()
    seen, first_pos = np.unique(sequence, return_index=True)
    dense = np.full(total, -1, dtype=np.int64)
    dense[seen[np.argsort(first_pos)]] = np.arange(len(seen))
    du, dv = dense[a], dense[b]
    edges = np.stack([np.minimum(du, dv), np.maximum(du, dv)], axis=1)
    planted_dense = None if planted is None else np.sort(dense[planted])
    return text, edges, planted_dense


def _adjacency(n, edges):
    data = np.ones(len(edges), dtype=np.int64)
    upper = sp.csr_matrix((data, (edges[:, 0], edges[:, 1])), shape=(n, n))
    return upper, (upper + upper.T).tocsr()


def _core_numbers(sym: sp.csr_matrix) -> np.ndarray:
    """Core number of every vertex, by level-synchronous pruning.

    At level k, vertices with fewer than k live neighbours are removed in
    rounds until none is left; those removed have core number k - 1. This
    is a different method from the program's bucket-queue peel.
    """
    degree = np.diff(sym.indptr).astype(np.int64)
    alive = np.ones(sym.shape[0], dtype=bool)
    core = np.zeros(sym.shape[0], dtype=np.int64)
    k = 0
    while alive.any():
        k += 1
        while True:
            drop = alive & (degree < k)
            if not drop.any():
                break
            alive[drop] = False
            core[drop] = k - 1
            degree -= sym @ drop.astype(np.int64)
    return core


def _clique_sizes(graph: nx.Graph) -> dict[int, int]:
    sizes: dict[int, int] = {}
    for clique in nx.enumerate_all_cliques(graph):
        sizes[len(clique)] = sizes.get(len(clique), 0) + 1
    return sizes


def _clique_number(graph: nx.Graph) -> int:
    """Largest clique size, by ``find_cliques`` on ever larger cores.

    A clique of size s lies in the (s - 1)-core. So once the c-core holds a
    clique of size at least c, no clique outside it can be larger.
    """
    core = nx.core_number(graph)
    c = max(core.values(), default=0)
    while True:
        inner = graph.subgraph([v for v, k in core.items() if k >= c])
        best = max((len(q) for q in nx.find_cliques(inner)), default=0)
        if best >= c:
            return best
        c -= 1


def reference(workload: str, edges: np.ndarray, planted, seed: int) -> Reference:
    """Independent reference values for one generated input."""
    n = int(edges.max()) + 1
    ref = Reference(n=n, m=len(edges))
    upper, sym = _adjacency(n, edges)
    # Entry (a, c) of upper @ upper counts paths a < b < c; masking by the
    # edge (a, c) counts each triangle exactly once.
    closed = (upper @ upper).multiply(upper)
    ref.global_exact = {1: n, 2: len(edges), 3: int(closed.sum())}
    core = _core_numbers(sym)
    ref.alpha = int(core.max())
    ref.max_core_size = int(np.count_nonzero(core == ref.alpha))

    if planted is None:
        # Every clique of size >= 3 lies on edges that lie in a triangle.
        long_edges = sp.coo_matrix(closed)
        graph = nx.Graph()
        for a, c in zip(long_edges.row.tolist(), long_edges.col.tolist()):
            common = np.intersect1d(sym.indices[sym.indptr[a]:sym.indptr[a + 1]],
                                    sym.indices[sym.indptr[c]:sym.indptr[c + 1]])
            for b in common.tolist():
                graph.add_edges_from([(a, b), (b, c), (a, c)])
        sizes = _clique_sizes(graph)
        for k, c in sizes.items():
            if k >= 3:
                ref.global_exact[k] = c
        ref.max_clique = max(sizes)
        return ref

    size = len(planted)
    ref.planted = planted
    ref.max_clique = size
    is_planted = np.zeros(n, dtype=bool)
    is_planted[planted] = True
    geo_edges = edges[~is_planted[edges[:, 0]]]
    geo = nx.Graph()
    geo.add_edges_from(geo_edges.tolist())
    ref.planted_above = _clique_number(geo)

    if "--per-vertex" not in WORKLOADS[workload][2]:
        return ref
    ref.degrees = np.diff(sym.indptr)
    ref.edge_keys = edges[:, 0] * n + edges[:, 1]
    ref.tri_matrix = (sym @ sym).multiply(sym).tocsr()
    rng = np.random.default_rng([seed, 1])
    small = np.flatnonzero((ref.degrees <= SAMPLE_NEIGHBOURHOOD_MAX) & ~is_planted)
    picked = rng.choice(small, min(SAMPLE_VERTICES, len(small)), replace=False)
    for v in sorted(picked.tolist()):
        nbrs = sym.indices[sym.indptr[v]:sym.indptr[v + 1]].tolist()
        counts = _clique_sizes(geo.subgraph(nbrs))
        row = {1: 1}
        row.update({k + 1: c for k, c in counts.items()})
        ref.vertex_samples[v] = row
    tri_upper = sp.triu(ref.tri_matrix, 1).tocoo()
    small_edges = np.flatnonzero((tri_upper.data <= SAMPLE_NEIGHBOURHOOD_MAX)
                                 & ~is_planted[tri_upper.row])
    picked = rng.choice(small_edges, min(SAMPLE_EDGES, len(small_edges)),
                        replace=False)
    for idx in sorted(picked.tolist()):
        a, b = int(tri_upper.row[idx]), int(tri_upper.col[idx])
        shared = np.intersect1d(sym.indices[sym.indptr[a]:sym.indptr[a + 1]],
                                sym.indices[sym.indptr[b]:sym.indptr[b + 1]])
        counts = _clique_sizes(geo.subgraph(shared.tolist()))
        row = {2: 1}
        row.update({k + 2: c for k, c in counts.items()})
        ref.edge_samples[(a, b)] = row
    return ref


def main(argv=None) -> None:
    import argparse
    import json

    parser = argparse.ArgumentParser(
        description="Print one input's reference values as JSON.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    _, edges, planted = generate(args.workload, args.seed)
    ref = reference(args.workload, edges, planted, args.seed)
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "n": ref.n, "m": ref.m,
        "alpha": ref.alpha, "max_core_size": ref.max_core_size,
        "global_exact": {str(k): str(c) for k, c in ref.global_exact.items()},
        "max_clique": ref.max_clique,
        "geometric_clique_number": ref.planted_above,
        "sampled_vertices": {str(v): row for v, row in ref.vertex_samples.items()},
        "sampled_edges": {f"{u},{v}": row for (u, v), row in ref.edge_samples.items()},
    }, indent=1))


if __name__ == "__main__":
    main()
