"""Degeneracy ordering, core numbers, and the low-out-degree orientation.

Two computations live here, and each command runs only the one it reads.

``degeneracy_orient`` is the ordering that counting needs. It repeatedly
removes a vertex of minimum residual degree, breaking ties toward the
lowest dense id. Orienting every edge from earlier to later in this
order bounds each out-neighborhood by the degeneracy alpha, which is
what keeps the clique-tree subproblems small. ``count``, ``verify`` and
``inspect-sct`` run it: the clique tree, and so every tree dump and the
report's tree shape, follows this exact order, so it stays a sequential
peel. It files only the vertices at or below the running core, in one
min-heap of ids per residual degree; a vertex above the core is found by
a numpy scan of the live degrees when the core rises to its degree.
Nothing is removed from above the core, so leaving it unfiled changes
the work and not the order. The result keeps only arrays:
the order (int32), the core numbers (int64) and the out-CSR; there is no
rank array, since the count reads only the out-CSR.

``core_numbers`` gives the core numbers alone, which fix alpha and the
innermost core but not the order. It peels level by level in numpy
rounds that need no tie-break, in O(n + m) array work plus a constant
per round. ``stats`` runs only this.
"""

from __future__ import annotations

import heapq

import numpy as np

from .graph import Graph, csr_slices


class DegeneracyOrientation:
    """Removal order plus the induced acyclic orientation of a Graph.

    Attributes:
        order: int32 array of the vertex ids in removal order.
        alpha: graph degeneracy; equals the maximum out-degree and the
            maximum core number.
        core_numbers: int64 array of each vertex's core number.
        out_offsets, out_targets: the out-CSR. Vertex v's out-neighbors,
            the neighbors that come later in the order, are
            ``out_targets[out_offsets[v]:out_offsets[v + 1]]``, sorted
            ascending by id.

    ``out_neighbors[v]`` lists the same out-neighbors as Python ints. The
    orientation is immutable; build it once and share it freely across
    threads or worker processes.
    """

    __slots__ = ("n", "order", "alpha", "core_numbers",
                 "out_offsets", "out_targets", "_out_lists")

    def __init__(self, n, order, alpha, core_numbers, out_offsets, out_targets):
        self.n = n
        self.order = order
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
        return int(np.count_nonzero(self.core_numbers == self.alpha))


def degeneracy_orient(graph: Graph) -> DegeneracyOrientation:
    """Compute the degeneracy ordering and orientation of ``graph``.

    A bucket queue indexed by residual degree, after Batagelj and
    Zaversnik (2003), in which only the levels at or below the running
    core are kept, each a min-heap of vertex ids, so that ties go to the
    lowest id. A neighbor whose degree drops to d is pushed on heap d when
    d is at most the core; above the core only its degree is written. The
    entry left behind is stale and dropped when popped. A removal lowers
    the minimum residual degree by at most one, so the scan steps back
    one level after each.

    Once no heap up to the core holds a live entry, the minimum residual
    degree is above the core. One scan of the live vertices' degrees then
    finds it, c, which is the new core: the vertices of degree c,
    ascending, become level c's heap, and the levels passed over start
    empty. The live ids are an int32 array, compacted at each scan. After
    a rise to c every live vertex has at least c live neighbors, so at
    most 2m / c remain, and the scans total O(n + m log alpha). A vertex
    of residual degree d is never removed while a live vertex of lower
    degree exists, and every live vertex at or below the core sits in its
    level's heap, so the order is exactly that of one min-heap per level:
    minimum degree first, lowest id on ties. The core is the running
    maximum of removal-time degrees, so core numbers are read from the
    positions at which it rose.

    A vertex's out-degree is its residual degree when it is removed, so
    the out-CSR's offsets are known when the peel ends; its targets are
    then filtered by rank from slices of the CSR (``graph.csr_slices``).
    """
    n = graph.n
    offsets = graph._offsets
    neighbors = graph._neighbors
    deg = np.diff(offsets)
    live = np.arange(n, dtype=np.int32)
    levels = []
    # Buffer views index to and store Python ints.
    deg_at = memoryview(deg)
    bound_at = memoryview(offsets)
    order = np.empty(n, dtype=np.int32)
    order_at = memoryview(order)
    out_offsets = np.zeros(n + 1, dtype=np.int64)
    out_degree_at = memoryview(out_offsets[1:])
    push = heapq.heappush
    pop = heapq.heappop
    rise_at = []
    rise_to = []
    # Below every degree, so that the first removal starts with a rise.
    core = -1
    d = 0
    for position in range(n):
        while True:
            if d > core:
                # No live vertex at or below the core: rise to the least
                # live degree, whose vertices, ascending, form its heap.
                live = live[deg[live] >= 0]
                degrees = deg[live]
                d = int(degrees.min())
                levels.extend([] for _ in range(core + 1, d))
                levels.append(live[degrees == d].tolist())
                core = d
                rise_at.append(position)
                rise_to.append(core)
            bucket = levels[d]
            if not bucket:
                d += 1
            else:
                v = pop(bucket)
                if deg_at[v] == d:
                    break
        # A removed vertex keeps degree -1, so no heap entry matches it.
        deg_at[v] = -1
        order_at[position] = v
        out_degree_at[v] = d
        for u in neighbors[bound_at[v]:bound_at[v + 1]].tolist():
            du = deg_at[u]
            if du > 0:
                du -= 1
                deg_at[u] = du
                if du <= core:
                    push(levels[du], u)
        if d:
            d -= 1
    alpha = max(core, 0)
    # The heaps need not share the peak with the tail's arrays.
    del deg, deg_at, live, levels

    core_numbers = np.empty(n, dtype=np.int64)
    core_numbers[order] = np.repeat(rise_to, np.diff(rise_at + [n]))
    rank = np.empty(n, dtype=np.int32)
    rank[order] = np.arange(n, dtype=np.int32)
    np.cumsum(out_offsets, out=out_offsets)
    # Keep the edges toward higher rank. CSR rows are id-sorted already,
    # so filtering preserves the ascending order the traversal relies on.
    out_targets = np.empty(int(out_offsets[-1]), dtype=np.int32)
    for lo, hi in csr_slices(offsets):
        ahead = neighbors[bound_at[lo]:bound_at[hi]]
        keep = rank[ahead] > np.repeat(rank[lo:hi], np.diff(offsets[lo:hi + 1]))
        out_targets[out_offsets[lo]:out_offsets[hi]] = ahead[keep]
    return DegeneracyOrientation(n, order, alpha, core_numbers,
                                 out_offsets, out_targets)


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

