"""Degeneracy ordering, core numbers, and the low-out-degree orientation.

The ordering repeatedly removes a vertex of minimum residual degree,
breaking ties toward the lowest dense id. Orienting every edge from
earlier to later in this order bounds each out-neighborhood by the
degeneracy alpha, which is what keeps the clique-tree subproblems small.

The peel keeps one level per residual degree. Levels at or below the
running core are min-heaps of ids; levels above it are plain lists,
turned into heaps only when the core rises to them, which all rises
together do in O(n + m). Nothing is removed from above the core, so the
lists change the work and not the order (see ``degeneracy_orient``).
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
    Zaversnik (2003), in which only the levels at or below the running
    core are min-heaps of vertex ids, so that ties go to the lowest id.
    Every level above the core is a plain list. The lists start out
    holding every vertex, filed by degree in id order. A neighbor whose
    degree drops to d is pushed on heap d when d is at most the core, and
    appended to list d otherwise; the entry left behind is stale and
    dropped when popped or read. A removal lowers the minimum residual
    degree by at most one, so the scan steps back one level after each.

    Once no heap up to the core holds a live entry, the minimum residual
    degree is above the core. The core then rises to the next level whose
    list holds a vertex of that degree: those vertices, sorted, become the
    level's heap, and the lists of the levels passed over, which hold no
    live vertex, are dropped. Each level turns from list to heap at most
    once, and a vertex enters a list once initially and then once per
    decrement, so all rises together read O(n + m) entries. A vertex of
    residual degree d is never removed while a live vertex of lower
    degree exists, and every live vertex at or below the core sits in its
    level's heap, so the order is exactly that of one min-heap per level:
    minimum degree first, lowest id on ties. The core is the running
    maximum of removal-time degrees, so core numbers are read from the
    positions at which it rose.
    """
    n = graph.n
    if n == 0:
        return DegeneracyOrientation(
            0, [], [], 0, [],
            np.zeros(1, dtype=np.int64), np.empty(0, dtype=np.int32))
    offsets = graph._offsets
    neighbors = graph._neighbors
    degrees = np.diff(offsets)
    deg = degrees.tolist()
    # Levels hold these ints rather than the fresh ones of each tolist(),
    # so stale entries keep no int of their own alive.
    vertex = list(range(n))
    levels = [[] for _ in range(max(deg) + 1)]
    for v, d in zip(vertex, deg):
        levels[d].append(v)
    bounds = offsets.tolist()
    push = heapq.heappush
    pop = heapq.heappop
    order: list[int] = []
    rise_at = [0]
    rise_to = [0]
    core = 0
    d = 0
    for position in range(n):
        while True:
            if d > core:
                # No live vertex at or below the core: rise to the next
                # level that holds one, dropping the empty levels between.
                while True:
                    core += 1
                    live = [u for u in levels[core] if deg[u] == core]
                    levels[core] = live
                    if live:
                        break
                live.sort()
                rise_at.append(position)
                rise_to.append(core)
                d = core
            bucket = levels[d]
            if not bucket:
                d += 1
            else:
                v = pop(bucket)
                if deg[v] == d:
                    break
        # A removed vertex keeps degree -1, so no level entry matches it.
        deg[v] = -1
        order.append(v)
        for u in neighbors[bounds[v]:bounds[v + 1]].tolist():
            du = deg[u]
            if du > 0:
                du -= 1
                deg[u] = du
                if du <= core:
                    push(levels[du], vertex[u])
                else:
                    levels[du].append(vertex[u])
        if d:
            d -= 1
    alpha = core

    order_arr = np.asarray(order, dtype=np.int32)
    rank_arr = np.empty(n, dtype=np.int32)
    rank_arr[order_arr] = np.arange(n, dtype=np.int32)
    core_arr = np.empty(n, dtype=np.int64)
    core_arr[order_arr] = np.repeat(rise_to, np.diff(rise_at + [n]))

    # Orient edges toward higher rank; CSR rows are id-sorted already, so
    # filtering preserves the ascending order the traversal relies on.
    if len(neighbors):
        row_of = np.repeat(np.arange(n, dtype=np.int32), degrees)
        keep = rank_arr[neighbors] > rank_arr[row_of]
        out_targets = np.ascontiguousarray(neighbors[keep])
        counts = np.bincount(row_of[keep], minlength=n)
    else:
        out_targets = np.empty(0, dtype=np.int32)
        counts = np.zeros(n, dtype=np.int64)
    out_offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=out_offsets[1:])
    return DegeneracyOrientation(n, order, rank_arr.tolist(), alpha,
                                 core_arr.tolist(), out_offsets, out_targets)


def degeneracy_stats(orientation: DegeneracyOrientation) -> dict:
    """Read-only summary: degeneracy, innermost-core size, removal order."""
    return {
        "alpha": orientation.alpha,
        "max_core_size": orientation.max_core_size(),
        "order": list(orientation.order),
    }
