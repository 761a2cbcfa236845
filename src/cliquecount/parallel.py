"""Parallel global clique counting across root subproblems.

The clique-tree children of the root are independent counting problems
over the out-neighborhoods N+(v), so root vertices can fan out across
worker processes. Each worker accumulates into a private table; the
merge is elementwise integer addition, so the result is identical to the
sequential run for any worker count and any scheduling order.

Each worker runs ``counting.count_roots_global``, the engine of the
sequential count, on its batches of roots. Workers inherit the
orientation's out-CSR arrays by forking, so nothing large is pickled and
nothing is built before the fork. Local (per-vertex, per-edge) counting
is deliberately not parallelized.
"""

from __future__ import annotations

import logging
import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import counting
from .degeneracy import DegeneracyOrientation
from .graph import Graph
from .sct import TraversalStats

log = logging.getLogger(__name__)

BATCHES_PER_WORKER = 4

# Worker-side state, inherited via fork; see _worker_count.
_SHARED = None


@dataclass
class WorkerResult:
    """One worker's private global table plus traversal stats."""
    counts: list[int]
    nodes: int = 0
    leaves: int = 0
    max_depth: int = 0


@dataclass
class _SharedState:
    orientation: DegeneracyOrientation
    max_hold: int | None
    binomial: list[list[int]]


def _worker_count(batch) -> WorkerResult:
    shared = _SHARED
    o = shared.orientation
    counts = [0] * (o.alpha + 2)
    nodes, leaves, depth = counting.count_roots_global(
        o, batch, counts, shared.binomial, max_hold=shared.max_hold)
    return WorkerResult(counts, nodes, leaves, depth)


def _root_batches(orientation: DegeneracyOrientation, n_batches: int):
    """Stripe roots, heaviest first, so batch loads stay balanced."""
    by_cost = np.argsort(-orientation.out_degrees(), kind="stable")
    return [by_cost[i::n_batches] for i in range(n_batches)]


def count_global_parallel(graph: Graph, orientation: DegeneracyOrientation,
                          workers: int, max_k: int | None = None
                          ) -> "counting.CountTables":
    """Global-only counting with root subproblems fanned across workers.

    Bit-identical to the sequential count for every ``workers`` value;
    worker tables are merged only after all workers finish.
    """
    global _SHARED
    if workers < 1:
        raise ValueError("workers must be >= 1")
    tables = counting.CountTables(graph)
    tables.alpha = orientation.alpha
    if graph.n == 0:
        tables.stats = TraversalStats()
        return tables
    if workers == 1:
        tables = counting._count_global_sequential(graph, orientation, max_k)
        tables._trim(max_k)
        tables.alpha = orientation.alpha
        return tables
    try:
        context = multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-forking platform
        log.warning("fork start method unavailable; counting sequentially")
        return count_global_parallel(graph, orientation, 1, max_k)

    shared = _SharedState(orientation, max_k,
                          counting.pascal_rows(orientation.alpha + 1))
    n_batches = min(graph.n, workers * BATCHES_PER_WORKER)
    batches = _root_batches(orientation, n_batches)
    _SHARED = shared
    try:
        with ProcessPoolExecutor(max_workers=workers,
                                 mp_context=context) as pool:
            results = list(pool.map(_worker_count, batches))
    finally:
        _SHARED = None

    merged = [0] * (orientation.alpha + 2)
    stats = TraversalStats()
    for res in results:
        for k, c in enumerate(res.counts):
            merged[k] += c
        stats.node_count += res.nodes
        stats.leaf_count += res.leaves
        stats.max_depth = max(stats.max_depth, res.max_depth)
    tables.global_counts = merged
    tables.stats = stats
    tables._trim(max_k)
    return tables
