"""Shared graph builders and reference helpers for the test suite."""

import math
import random

from cliquecount import Graph


def complete_graph(n: int) -> Graph:
    return Graph.from_edges(
        [(i, j) for i in range(n) for j in range(i + 1, n)], n=n)


def path_graph(n: int) -> Graph:
    return Graph.from_edges([(i, i + 1) for i in range(n - 1)], n=n)


def cycle_graph(n: int) -> Graph:
    return Graph.from_edges(
        [(i, (i + 1) % n) for i in range(n)], n=n)


def star_graph(leaves: int) -> Graph:
    return Graph.from_edges([(0, i) for i in range(1, leaves + 1)],
                            n=leaves + 1)


def empty_graph(n: int = 0) -> Graph:
    return Graph.from_edges([], n=n)


def petersen_graph() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Graph.from_edges(outer + spokes + inner, n=10)


def random_gnp(n: int, p: float, seed: int) -> Graph:
    rng = random.Random(seed)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)
             if rng.random() < p]
    return Graph.from_edges(edges, n=n)


def random_geometric(n: int, radius: float, seed: int) -> Graph:
    """``n`` seeded points in the unit square, joined within ``radius``."""
    rng = random.Random(seed)
    points = [(rng.random(), rng.random()) for _ in range(n)]
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)
             if math.dist(points[u], points[v]) < radius]
    return Graph.from_edges(edges, n=n)


def quadratic_peel(graph: Graph):
    """Reference degeneracy computation, O(n^2) scan per removal.

    Independent of the production bucket/heap structure: repeatedly scan
    all residual degrees for the minimum (lowest id on ties). Returns
    (order, alpha).
    """
    n = graph.n
    alive = set(range(n))
    deg = {v: graph.degree(v) for v in alive}
    order = []
    alpha = 0
    while alive:
        v = min(alive, key=lambda x: (deg[x], x))
        alpha = max(alpha, deg[v])
        order.append(v)
        alive.remove(v)
        for u in graph.neighbors(v):
            u = int(u)
            if u in alive:
                deg[u] -= 1
    return order, alpha
