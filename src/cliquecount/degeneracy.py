"""Degeneracy ordering, core numbers, and the low-out-degree orientation.

Two computations live here, and each command runs only the one it reads.

``degeneracy_orient`` is the ordering that counting needs. It repeatedly
removes a vertex of minimum residual degree, breaking ties toward the
lowest dense id. Orienting every edge from earlier to later in this
order bounds each out-neighborhood by the degeneracy alpha, which is
what keeps the clique-tree subproblems small. ``count``, ``verify`` and
``inspect-sct`` run it: the clique tree, and so every tree dump and the
report's tree shape, follows this exact order, so it stays a sequential
peel. It keeps one level per residual degree. Levels at or below the
running core are min-heaps of ids; levels above it are plain lists,
turned into heaps only when the core rises to them, which all rises
together do in O(n + m). Nothing is removed from above the core, so the
lists change the work and not the order.

``core_numbers`` gives the core numbers alone, which fix alpha and the
innermost core but not the order. It peels level by level in numpy
rounds that need no tie-break, in O(n + m) array work plus a constant
per round. ``stats`` runs only this.
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
    # The tail's m-sized arrays need not share the peak with these lists.
    del deg, levels, vertex, bounds

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


# Frontiers smaller than this are peeled in a Python loop. A numpy round
# costs some 40 microseconds however few vertices it removes, the loop
# about one per vertex of a path; at 8, four disjoint 50,000-vertex paths
# (rounds of eight) took 1.1 s, at 32 no set of paths took over 0.26 s.
SMALL_ROUND = 32


def core_numbers(graph: Graph) -> np.ndarray:
    """Core number of every vertex of ``graph``, as an int64 array.

    Level-synchronous peeling, as in PKC (Kabir and Madduri, 2017). At
    level k, the live vertices of degree at most k are removed in rounds:
    each round lowers the degrees of the frontier's live neighbours, and
    those that fall to k form the next frontier. The degree array itself
    becomes the result, since a removed vertex's entry is set to its level
    and no later level decrements an entry at or below it.

    Each level scans only the live vertices, kept as a compacted index
    array; a vertex is live at no more than core(v) + 1 <= deg(v) + 1
    levels, so the scans total at most n + 2m. A round gathers its
    frontier's neighbours and applies all of their decrements with one
    ``np.unique``, except that a frontier of fewer than ``SMALL_ROUND``
    vertices (a long path peels two at a time) is walked in Python.
    """
    offsets = graph._offsets
    neighbors = graph._neighbors
    core = np.diff(offsets)
    # Buffer views index to Python ints, for the small rounds.
    core_at = memoryview(core)
    bound_at = memoryview(offsets)
    neighbors_at = memoryview(neighbors)
    live = np.arange(graph.n, dtype=np.int32)
    k = -1
    while True:
        level = core[live]
        above = level > k
        live = live[above]
        if not len(live):
            return core
        level = level[above]
        k = int(level.min())
        frontier = live[level == k]
        while len(frontier):
            if len(frontier) < SMALL_ROUND:
                following = []
                for v in frontier:
                    core_at[v] = k
                    for u in neighbors_at[bound_at[v]:bound_at[v + 1]]:
                        du = core_at[u]
                        if du > k:
                            core_at[u] = du - 1
                            if du == k + 1:
                                following.append(u)
                frontier = following
                continue
            frontier = np.asarray(frontier, dtype=np.int32)
            core[frontier] = k
            starts = offsets[frontier]
            lengths = offsets[frontier + 1] - starts
            ends = np.cumsum(lengths)
            touched = neighbors[np.repeat(starts - ends + lengths, lengths)
                                + np.arange(ends[-1])]
            touched, hits = np.unique(touched[core[touched] > k],
                                      return_counts=True)
            left = core[touched] - hits
            core[touched] = left
            frontier = touched[left <= k]


def degeneracy_stats(orientation: DegeneracyOrientation) -> dict:
    """Read-only summary: degeneracy, innermost-core size, removal order."""
    return {
        "alpha": orientation.alpha,
        "max_core_size": orientation.max_core_size(),
        "order": list(orientation.order),
    }
