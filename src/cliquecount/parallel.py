"""Global clique counting, in this process or across forked workers.

The clique-tree children of the root are independent counting problems
over the out-neighborhoods N+(v), so the roots can be counted in any
split. ``counting.count_roots_global`` walks a set of roots with the
level walk, ``sct.walk_levels``, and returns the shape of their
subtrees, a ``TraversalStats``: the node count and the leaves tallied by
(|H|, |P|).
``counting.global_tables`` adds any number of these and turns the sum
into counts. The merge is integer addition, so the result is identical
for any worker count and any scheduling order.

``count_global_parallel`` is the one global count. With one worker, or
where fork is unavailable, it counts all roots as one batch in this
process. With more, it maps the same call over batches of roots in a
fork pool. Workers inherit the orientation's out-CSR arrays by forking,
so nothing large is pickled and nothing is built before the fork. Local
(per-vertex, per-edge) counting is deliberately not parallelized.
"""

from __future__ import annotations

import logging
import multiprocessing
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from . import counting
from .degeneracy import DegeneracyOrientation
from .graph import Graph

log = logging.getLogger(__name__)

BATCHES_PER_WORKER = 4

# (orientation, max_hold) of the count in progress, inherited by forked
# workers; see _count_batch.
_SHARED = None


def _count_batch(roots):
    orientation, max_hold = _SHARED
    return counting.count_roots_global(orientation, roots, max_hold)


def _root_batches(orientation: DegeneracyOrientation, n_batches: int):
    """Stripe roots, heaviest first, so batch loads stay balanced."""
    by_cost = np.argsort(-orientation.out_degrees(), kind="stable")
    return [by_cost[i::n_batches] for i in range(n_batches)]


def count_global_parallel(graph: Graph, orientation: DegeneracyOrientation,
                          workers: int, max_k: int | None = None
                          ) -> "counting.CountTables":
    """Global-only counts with root subproblems fanned across workers.

    Bit-identical for every ``workers`` value; the batches' shapes are
    merged only after all of them are counted.
    """
    global _SHARED
    if workers < 1:
        raise ValueError("workers must be >= 1")
    context = None
    if workers > 1:
        try:
            context = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-forking platform
            log.warning("fork start method unavailable; counting sequentially")
    _SHARED = orientation, max_k
    try:
        if context is None:
            parts = [_count_batch(np.arange(graph.n))]
        else:
            batches = _root_batches(
                orientation, min(graph.n, workers * BATCHES_PER_WORKER))
            with ProcessPoolExecutor(max_workers=workers,
                                     mp_context=context) as pool:
                parts = list(pool.map(_count_batch, batches))
    finally:
        _SHARED = None
    return counting.global_tables(graph, orientation.alpha, parts, max_k)
