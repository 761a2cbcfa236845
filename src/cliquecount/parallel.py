"""Global clique counting, in this process or across forked workers.

The clique-tree children of the root are independent counting problems
over the out-neighborhoods N+(v), so the roots can be counted in any
split. ``counting.count_roots_global`` walks a range of roots with the
level walk, ``sct.walk_levels``, and returns the shape of their
subtrees, a ``TraversalStats``: the node count and the leaves tallied by
(|H|, |P|).
``counting.global_tables`` adds any number of these and turns the sum
into counts. The merge is integer addition, so the result is identical
for any worker count and any scheduling order.

``count_global_parallel`` is the one global count, and the one place
that decides how many processes count: the threads asked for, capped at
the CPUs this process may run on and at the number of consecutive root
ranges of about equal set-up work (``sct.root_work``), and at least one.
With one, or where fork is unavailable, it counts all roots as one range
in this process; with more, it maps the same call over the ranges in a
fork pool of that many processes. The number is kept as the tables'
``workers``.
Workers inherit the orientation's out-CSR arrays by forking, so nothing
large is pickled and nothing is built before the fork. A worker that
dies ends the count with ``WorkerCrashError``. Local (per-vertex,
per-edge) counting is deliberately not parallelized.
"""

from __future__ import annotations

import os

from . import counting, sct
from .degeneracy import DegeneracyOrientation
from .errors import WorkerCrashError
from .graph import Graph, csr_slices

BATCHES_PER_WORKER = 4

# (orientation, max_hold) of the count in progress, inherited by forked
# workers; see _count_batch.
_SHARED = None


def _count_batch(roots):
    orientation, max_hold = _SHARED
    return counting.count_roots_global(orientation, roots, max_hold)


def _usable_cores() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1  # pragma: no cover - no affinity mask


def _root_batches(orientation: DegeneracyOrientation, n_batches: int
                  ) -> list[range]:
    """Cut the roots into consecutive ranges of about equal set-up work:
    each holds at most a ``n_batches``-th of the work, rounded up, or one
    root that alone has more (``graph.csr_slices``)."""
    work = sct.root_work(orientation.out_offsets, orientation.out_targets,
                         orientation.out_degrees(), range(orientation.n))
    share = -(-int(work[-1]) // n_batches)
    return [range(lo, hi) for lo, hi in csr_slices(work, share)]


def count_global_parallel(graph: Graph, orientation: DegeneracyOrientation,
                          workers: int, max_k: int | None = None
                          ) -> "counting.CountTables":
    """Global-only counts with root subproblems fanned across workers.

    Bit-identical for every ``workers`` value; the batches' shapes are
    merged only after all of them are counted. ``workers`` is capped at
    the number of usable CPUs and at the number of root ranges, about
    ``BATCHES_PER_WORKER`` per worker (fewer for a graph of fewer
    vertices). Where that leaves one, or fork is unavailable, the roots
    are counted in this process; otherwise a fork pool of that many
    processes counts the ranges. The tables' ``workers`` is the number
    of processes that counted. A worker that dies, killed or out of
    memory, raises ``WorkerCrashError``.
    """
    global _SHARED
    if workers < 1:
        raise ValueError("workers must be >= 1")
    workers = min(workers, _usable_cores())
    batches = (_root_batches(orientation, workers * BATCHES_PER_WORKER)
               if workers > 1 else [])
    workers = max(1, min(workers, len(batches)))
    if workers > 1:
        # Imported only to fork: an in-process count loads none of them.
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool
        try:
            context = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-forking platform
            workers = 1
    if workers == 1:
        parts = [counting.count_roots_global(orientation, range(graph.n),
                                             max_k)]
    else:
        _SHARED = orientation, max_k
        try:
            with ProcessPoolExecutor(max_workers=workers,
                                     mp_context=context) as pool:
                parts = list(pool.map(_count_batch, batches))
        except BrokenProcessPool:
            raise WorkerCrashError() from None
        finally:
            _SHARED = None
    tables = counting.global_tables(graph, orientation.alpha, parts, max_k)
    tables.workers = workers
    return tables
