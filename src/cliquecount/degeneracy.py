"""Degeneracy ordering, core numbers, and the low-out-degree orientation.

The ordering repeatedly removes a vertex of minimum residual degree,
breaking ties toward the lowest dense id. Orienting every edge from
earlier to later in this order bounds each out-neighborhood by the
degeneracy alpha, which is what keeps the clique-tree subproblems small.
"""

from __future__ import annotations

import heapq

import numpy as np

from .graph import Graph


class DegeneracyOrientation:
    """Removal order plus the induced acyclic orientation of a Graph.

    Attributes:
        order: vertex ids in removal order.
        rank: inverse permutation of ``order``.
        alpha: graph degeneracy; equals the maximum out-degree and the
            maximum core number.
        core_numbers: per-vertex core value.

    ``out_neighbors[v]`` lists the neighbors of v that come later in the
    order, sorted ascending by id. The orientation is immutable; build it
    once and share it freely across threads or worker processes.
    """

    __slots__ = ("n", "order", "rank", "alpha", "core_numbers",
                 "out_offsets", "out_targets", "_out_lists")

    def __init__(self, n, order, rank, alpha, core_numbers, out_offsets, out_targets):
        self.n = n
        self.order = order
        self.rank = rank
        self.alpha = alpha
        self.core_numbers = core_numbers
        self.out_offsets = out_offsets
        self.out_targets = out_targets
        self._out_lists = None

    @property
    def out_neighbors(self) -> list[list[int]]:
        """Per-vertex sorted out-neighbor lists (built lazily, then cached)."""
        if self._out_lists is None:
            offs, tgt = self.out_offsets, self.out_targets
            self._out_lists = [tgt[offs[v]:offs[v + 1]].tolist() for v in range(self.n)]
        return self._out_lists

    def out_degree(self, v: int) -> int:
        return int(self.out_offsets[v + 1] - self.out_offsets[v])

    def out_degrees(self) -> np.ndarray:
        return np.diff(self.out_offsets)

    def max_core_size(self) -> int:
        """Number of vertices whose core number equals alpha."""
        if self.n == 0:
            return 0
        return int(np.count_nonzero(np.asarray(self.core_numbers) == self.alpha))


def degeneracy_orient(graph: Graph) -> DegeneracyOrientation:
    """Compute the degeneracy ordering and orientation of ``graph``.

    A bucket queue indexed by residual degree, after Batagelj and
    Zaversnik (2003), with a min-heap of vertex ids in each bucket so that
    ties go to the lowest id. Buckets start in id order, which already is
    a heap. When a neighbor's degree drops, its id is pushed into the
    bucket one lower; the entry left behind is stale and dropped when
    popped. A removal lowers the minimum residual degree by at most one,
    so the scan steps back one bucket after each. Neighbors are read from
    the CSR slice of each removed vertex. Core numbers fall out of the
    same pass as the running maximum of removal-time residual degrees.
    """
    n = graph.n
    if n == 0:
        return DegeneracyOrientation(
            0, [], [], 0, [],
            np.zeros(1, dtype=np.int64), np.empty(0, dtype=np.int32))
    offsets = graph._offsets
    neighbors = graph._neighbors
    deg = np.diff(offsets).tolist()
    buckets = [[] for _ in range(max(deg) + 1)]
    for v, d in enumerate(deg):
        buckets[d].append(v)
    bounds = offsets.tolist()
    push = heapq.heappush
    pop = heapq.heappop
    order: list[int] = []
    rank = [0] * n
    core_numbers = [0] * n
    running_core = 0
    d = 0
    for position in range(n):
        while True:
            bucket = buckets[d]
            if not bucket:
                d += 1
            else:
                v = pop(bucket)
                if deg[v] == d:
                    break
        # A removed vertex keeps degree -1, so no bucket entry matches it.
        deg[v] = -1
        rank[v] = position
        order.append(v)
        if d > running_core:
            running_core = d
        core_numbers[v] = running_core
        for u in neighbors[bounds[v]:bounds[v + 1]].tolist():
            du = deg[u]
            if du > 0:
                deg[u] = du - 1
                push(buckets[du - 1], u)
        if d:
            d -= 1
    alpha = running_core

    # Orient edges toward higher rank; CSR rows are id-sorted already, so
    # filtering preserves the ascending order the traversal relies on.
    rank_arr = np.asarray(rank, dtype=np.int32)
    if len(neighbors):
        row_of = np.repeat(np.arange(n, dtype=np.int32), np.diff(offsets))
        keep = rank_arr[neighbors] > rank_arr[row_of]
        out_targets = np.ascontiguousarray(neighbors[keep])
        counts = np.bincount(row_of[keep], minlength=n)
    else:
        out_targets = np.empty(0, dtype=np.int32)
        counts = np.zeros(n, dtype=np.int64)
    out_offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=out_offsets[1:])
    return DegeneracyOrientation(n, order, rank, alpha, core_numbers,
                                 out_offsets, out_targets)


def degeneracy_stats(orientation: DegeneracyOrientation) -> dict:
    """Read-only summary: degeneracy, innermost-core size, removal order."""
    return {
        "alpha": orientation.alpha,
        "max_core_size": orientation.max_core_size(),
        "order": list(orientation.order),
    }
