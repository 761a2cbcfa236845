"""Clique-count accumulation from clique-tree leaves.

Every leaf of the clique tree contributes binomial-weighted increments:
a path with hold set H and pivot set P represents C(|P|, i) cliques of
size |H| + i for each i, and membership of a vertex or edge in H versus P
decides which binomial row applies. Global counters are exact Python
integers. Local (per-vertex, per-edge) counts live in flat fixed-width
tables (``LocalTable``) that are exact by construction; ``LeafBatches``
fills them from ``traverse``'s leaves in numpy batches. The "fast"
counter mode adds a check that every count fits the signed 64-bit range,
and aborts otherwise.
"""

from __future__ import annotations

import logging
import math
from collections import defaultdict

import numpy as np

from .degeneracy import DegeneracyOrientation, degeneracy_orient
from .errors import CounterOverflowError
from .graph import Graph
from .sct import TraversalStats, traverse

log = logging.getLogger(__name__)

# Envelope of the fixed-width counter mode (signed 64-bit range).
FAST_COUNTER_MAX = 2 ** 63 - 1

# Roots are set up in chunks of about max(ROOT_CHUNK_WORK, m //
# ROOT_CHUNK_SHARE) oriented edges plus wedges, m the number of oriented
# edges. A chunk's scratch arrays (about 70 bytes per unit) thus stay a
# fixed share of the out-CSR on large graphs and well below the graph's
# own storage on small ones, while large graphs need few numpy calls.
ROOT_CHUNK_WORK = 1 << 11
ROOT_CHUNK_SHARE = 16
# Roots with at most this many out-neighbors get one-word bitmask rows
# built in bulk; wider roots are set up one at a time.
WORD_BITS = 64

# Buffered leaves are added to the local tables once they hold this many
# incidences (vertices plus vertex pairs). A batch's scratch arrays take
# about 150 bytes per incidence; the limb planes' headroom (see LocalTable)
# needs batches far below CARRY_AFTER.
LEAF_BATCH = 1 << 14
# Limb width of the planes that hold wide local rows.
LIMB_BITS = 31
# Wide rows are carried once this many incidences have been added to them
# since the last carry; see LocalTable.
CARRY_AFTER = 1 << 30
# Rows write out in chunks of about this many table entries.
WRITE_CHUNK = 1 << 13
# Leaf rows are added in blocks of about this many table entries, so that
# the scratch arrays of an addition stay small enough to be cached. On the
# geo-local benchmark (2-core x86 host) that took 6% less wall time and
# 1.3 MB less peak memory than one addition per row group.
ADD_BLOCK = 1 << 15

EXACT = "exact"
FAST = "fast"


def pascal_rows(limit: int) -> list[list[int]]:
    """Rows 0..limit of Pascal's triangle, as exact integers."""
    rows = [[1]]
    for r in range(1, limit + 1):
        prev = rows[-1]
        rows.append([1] + [prev[i - 1] + prev[i] for i in range(1, r)] + [1])
    return rows


class LocalTable:
    """Exact local counts of one entity family (vertices or edges), flat.

    Entity e's row holds c_k(e) for k = ``base``, ``base`` + 1, ... in
    ``flat[offsets[e]:offsets[e + 1]]``. A row is as wide as the largest
    clique that can hold the entity, capped by max_k. Each entity comes
    with an upper bound on all its counts, fixed before the walk
    (``local_tables``). Where the bound is below 2^62 the row holds exact
    int64 counts. The other ("wide") entities, ids ``wide`` in ascending
    order, keep zeros in ``flat``: the i-th one's row is
    ``planes[:, i, :width]``, one int64 plane per ``LIMB_BITS``-bit limb,
    least significant first, with enough planes for any count of the
    graph.

    No count can overflow, so there is no check at run time. Counts only
    grow, so a narrow entry never exceeds its final count, which is below
    its bound. Each amount added to it, a leaf tally times C(w, j), counts
    distinct cliques through the entity, so it is below that bound too.
    Each incidence adds less than 2^LIMB_BITS to a wide entry's plane.
    Once ``CARRY_AFTER`` incidences have gone into wide rows since the
    last carry, ``add`` brings every plane but the top one back below
    2^LIMB_BITS, and the top one holds at most LIMB_BITS bits of a final
    count. So no plane entry reaches 2^LIMB_BITS times (1 + CARRY_AFTER +
    the incidences of one batch), below 2^62. Reads combine the planes
    into Python integers exactly whether or not they were carried.
    """

    __slots__ = ("base", "offsets", "flat", "wide", "is_wide", "planes",
                 "uncarried")

    def __init__(self, base: int, widths: np.ndarray, is_wide: np.ndarray,
                 limbs: int):
        self.base = base
        self.offsets = np.zeros(len(widths) + 1, dtype=np.int64)
        np.cumsum(widths, out=self.offsets[1:])
        self.flat = np.zeros(int(self.offsets[-1]), dtype=np.int64)
        self.is_wide = is_wide
        self.wide = np.flatnonzero(is_wide)
        self.planes = np.zeros((limbs if len(self.wide) else 0, len(self.wide),
                                int(widths[self.wide].max(initial=0))),
                               dtype=np.int64)
        self.uncarried = 0

    def add(self, entity, o, w, binomial, limbs, top) -> int:
        """Add C(w[i], j) to c_{o[i]+j}(entity[i]) for every i and j.

        Increments beyond k = ``top`` are dropped. ``binomial`` holds
        C(w, j) where it fits int64 (0 elsewhere; no narrow row reads
        those), and ``limbs(w)`` gives C(w, .) as ``LIMB_BITS``-bit limbs,
        one row per plane. Returns the number of increments, one per i
        and j.
        """
        keep = o <= top
        entity, o, w = entity[keep], o[keep], w[keep]
        span = binomial.shape[0]
        n_entities = len(self.offsets) - 1
        # One key per (wide?, o, w, entity); each group of equal
        # (wide?, o, w) then holds every entity once, with its tally.
        flag = self.is_wide[entity].astype(np.int64)
        key = ((flag * span + o) * span + w) * n_entities + entity
        key, tally = np.unique(key, return_counts=True)
        entity = key % n_entities
        group = key // n_entities
        starts = np.flatnonzero(np.diff(group, prepend=-1)).tolist()
        increments = 0
        for first, last in zip(starts, starts[1:] + [len(key)]):
            wide, rest = divmod(int(group[first]), span * span)
            o, w = divmod(rest, span)
            j = min(w, top - o) + 1
            increments += int(tally[first:last].sum()) * j
            lo, hi = o - self.base, o - self.base + j
            step = max(1, ADD_BLOCK // j)
            for a in range(first, last, step):
                b = min(a + step, last)
                c = tally[a:b, None]
                if wide:
                    self.uncarried += int(c.sum())
                    rows = np.searchsorted(self.wide, entity[a:b])
                    for plane, limb in zip(self.planes, limbs(w)[:, :j]):
                        plane[rows, lo:hi] += c * limb
                else:
                    at = self.offsets[entity[a:b], None] + np.arange(lo, hi)
                    self.flat[at] += c * binomial[w, :j]
        if self.uncarried >= CARRY_AFTER:
            self.uncarried = 0
            for lower, upper in zip(self.planes[:-1], self.planes[1:]):
                upper += lower >> LIMB_BITS
                lower &= (1 << LIMB_BITS) - 1
        return increments

    @staticmethod
    def _combine(limbs: np.ndarray) -> list[int]:
        """Python integers of limb columns, one row of ``limbs`` per plane."""
        values = [0] * limbs.shape[1]
        for plane in limbs[::-1].tolist():
            values = [(x << LIMB_BITS) + y for x, y in zip(values, plane)]
        return values

    def row(self, e: int) -> list[int]:
        """Entity e's full row as Python integers, from k = ``base``."""
        a, b = int(self.offsets[e]), int(self.offsets[e + 1])
        if self.is_wide[e]:
            i = np.searchsorted(self.wide, e)
            return self._combine(self.planes[:, i, :b - a])
        return self.flat[a:b].tolist()

    def entries(self):
        """Yield (entity, k, count) for the nonzero counts, chunk by chunk.

        Each chunk covers a range of entities with about ``WRITE_CHUNK``
        entries and at least one nonzero count; ``entity`` and ``k`` are
        arrays, ``count`` a list of Python integers, all in row order.
        """
        offsets = self.offsets
        stops = np.searchsorted(
            offsets, np.arange(WRITE_CHUNK, offsets[-1], WRITE_CHUNK))
        bounds = np.unique(np.concatenate(
            ([0], stops, [len(offsets) - 1]))).tolist()
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            a = offsets[lo]
            values = self.flat[a:offsets[hi]]
            w0, w1 = np.searchsorted(self.wide, (lo, hi)).tolist()
            if w0 < w1:
                values = values.astype(object)
                for i in range(w0, w1):
                    e = self.wide[i]
                    s, t = offsets[e:e + 2] - a
                    values[s:t] = self._combine(self.planes[:, i, :t - s])
            at = np.flatnonzero(values)
            if not len(at):
                continue
            entity = np.searchsorted(offsets, at + a, side="right") - 1
            k = at + a - offsets[entity] + self.base
            yield entity, k, values[at].tolist()

    def max_count(self) -> int:
        return max([int(self.flat.max(initial=0)),
                    *(c for e in self.wide.tolist() for c in self.row(e))])


def local_tables(orientation: DegeneracyOrientation, max_k: int | None,
                 per_vertex: bool, per_edge: bool):
    """Empty local tables of the oriented graph, laid out for ``max_k``.

    Returns (vertex table, edge table, edge codes), the arguments of
    ``CountTables`` after the graph: the vertex table is None unless
    ``per_vertex``, the other two unless ``per_edge``. Edges are coded
    u * n + v with u < v, ascending. A row is wide when its count bound
    may reach 2^62; wide rows get limb planes.

    A k-clique through v needs k <= core(v) + 1, and through edge uv it
    needs k <= min(core u, core v) + 1. Every k-clique has a unique
    lowest-rank vertex r, and the rest of it lies in N+(r). If r = v, the
    clique is v and k - 1 of v's od(v) out-neighbors; otherwise r is an
    in-neighbor of v, and the clique is r, v and k - 2 of the od(r) - 1
    other out-neighbors of r. So c_k(v) <= C(od v, od v // 2) + sum over
    r in N-(v) of C(od r - 1, (od r - 1) // 2). For an edge u -> v the same
    argument gives C(od u - 1, .) + sum over r in N-(u) of C(od r - 2, .).
    The bounds are float64 sums of at most n < 2^32 terms, each rounded,
    so they are within a factor 1 + 2^-20 of the exact ones: below 2^61
    the exact bound is below 2^62. No count passes the number of cliques,
    at most n * 2^alpha (the subsets of each N+(r), r included), which
    sets the number of limbs.
    """
    n = orientation.n
    offsets = orientation.out_offsets
    targets = orientation.out_targets.astype(np.int64)
    out_deg = np.diff(offsets)
    source = np.repeat(np.arange(n, dtype=np.int64), out_deg)
    # C(x, x // 2) at index x + 2 (0 for x = -2, -1), capped at 2^64:
    # one capped term makes its bound wide anyway.
    central = np.array([0.0, 0.0] + [
        float(min(math.comb(x, x // 2), 1 << 64))
        for x in range(orientation.alpha + 1)])
    limbs = -(-(orientation.alpha + n.bit_length()) // LIMB_BITS)
    core = np.asarray(orientation.core_numbers, dtype=np.int64)
    top = orientation.alpha + 1 if max_k is None else max_k
    vertex_table = None
    if per_vertex:
        wide = central[out_deg + 2] + np.bincount(
            targets, weights=central[out_deg[source] + 1],
            minlength=n) >= 2.0 ** 61
        vertex_table = LocalTable(0, np.minimum(core + 1, top) + 1, wide,
                                  limbs)
    if not per_edge:
        return vertex_table, None, None
    low = np.minimum(source, targets)
    codes = low * n + (source + targets - low)
    order = np.argsort(codes)
    widths = np.maximum(np.minimum(np.minimum(core[source], core[targets]) + 1,
                                   top) - 1, 0)
    into = np.bincount(targets, weights=central[out_deg[source]],
                       minlength=n)
    wide = central[out_deg[source] + 1] + into[source] >= 2.0 ** 61
    return (vertex_table, LocalTable(2, widths[order], wide[order], limbs),
            codes[order])


class CountTables:
    """Global, per-vertex, and per-edge k-clique counts.

    ``global_counts[k]`` is the number of k-cliques, as exact integers;
    the list ends at the largest k with a clique. ``per_vertex`` and
    ``per_edge`` are ``LocalTable``s (None unless requested): vertex rows
    start at k = 0, edge rows at k = 2, the smallest clique an edge can be
    part of. Edge i of ``per_edge`` is ``edge_codes[i]`` = u * n + v, u < v,
    in the canonical order (ascending (u, v)).

    Queries return 0 for a k outside the table and for a pair that is no
    edge. A vertex id outside [0, n) or a query on a table that was not
    requested raises ValueError. ``local_tables`` lays out the local
    tables.
    """

    __slots__ = ("n", "global_counts", "per_vertex", "per_edge",
                 "edge_codes", "counter_bound", "stats", "alpha")

    def __init__(self, graph: Graph, per_vertex: LocalTable | None = None,
                 per_edge: LocalTable | None = None,
                 edge_codes: np.ndarray | None = None):
        self.n = graph.n
        self.global_counts: list[int] = [0]
        self.per_vertex = per_vertex
        self.per_edge = per_edge
        self.edge_codes = edge_codes
        self.counter_bound: int | None = None
        self.stats: TraversalStats | None = None
        self.alpha: int | None = None

    # -- queries ---------------------------------------------------------

    def global_count(self, k: int) -> int:
        if 0 <= k < len(self.global_counts):
            return self.global_counts[k]
        return 0

    def _table(self, table, name: str) -> LocalTable:
        if table is None:
            raise ValueError(f"{name} counts were not requested; count with "
                             f"{name.replace('-', '_')}=True")
        return table

    def _check_vertex(self, v) -> None:
        if not 0 <= v < self.n:
            raise ValueError(f"vertex {v} out of range [0, {self.n})")

    def _edge_id(self, u: int, v: int) -> int | None:
        self._check_vertex(u)
        self._check_vertex(v)
        code = min(u, v) * self.n + max(u, v)
        i = int(np.searchsorted(self.edge_codes, code))
        if i < len(self.edge_codes) and self.edge_codes[i] == code:
            return i
        return None

    def vertex_row(self, v: int) -> list[int]:
        """c_k(v) for k = 0 up to v's largest clique."""
        table = self._table(self.per_vertex, "per-vertex")
        self._check_vertex(v)
        return _strip(table.row(v))

    def edge_row(self, u: int, v: int) -> list[int]:
        """c_k(uv) for k = 2 up to the edge's largest clique ([] for no edge)."""
        table = self._table(self.per_edge, "per-edge")
        eid = self._edge_id(u, v)
        return [] if eid is None else _strip(table.row(eid))

    def vertex_count(self, v: int, k: int) -> int:
        row = self.vertex_row(v)
        return row[k] if 0 <= k < len(row) else 0

    def edge_count(self, u: int, v: int, k: int) -> int:
        row = self.edge_row(u, v)
        return row[k - 2] if 0 <= k - 2 < len(row) else 0

    def edges(self) -> list[tuple[int, int]]:
        """The per-edge table's edges (u, v), u < v, in row order."""
        self._table(self.per_edge, "per-edge")
        u, v = np.divmod(self.edge_codes, self.n)
        return list(zip(u.tolist(), v.tolist()))

    def max_clique_size(self) -> int:
        for k in range(len(self.global_counts) - 1, 0, -1):
            if self.global_counts[k]:
                return k
        return 0

    def global_nonzero(self) -> dict[int, int]:
        return {k: c for k, c in enumerate(self.global_counts) if c and k > 0}

    # -- mutation --------------------------------------------------------

    def _trim(self, max_k: int | None) -> None:
        """Drop global counts past max_k, then trailing zeros.

        Local rows are sized to max_k when they are laid out.
        """
        if max_k is not None:
            del self.global_counts[max_k + 1:]
        while len(self.global_counts) > 1 and self.global_counts[-1] == 0:
            self.global_counts.pop()

    def _enforce_bound(self) -> None:
        bound = self.counter_bound
        if bound is None:
            return
        if any(c > bound for c in self.global_counts) or any(
                table is not None and table.max_count() > bound
                for table in (self.per_vertex, self.per_edge)):
            raise CounterOverflowError()


def _strip(row: list[int]) -> list[int]:
    while row and not row[-1]:
        row.pop()
    return row


def _add_leaf_rows(counts: list[int], binomial: list[list[int]],
                   tally) -> None:
    """Add C(p, i) * leaves to counts[h + i] for each ((h, p), leaves)."""
    for (h, p), leaf_count in tally:
        for i, c in enumerate(binomial[p]):
            counts[h + i] += leaf_count * c


class LeafBatches:
    """A ``traverse`` sink that adds leaves to CountTables in batches.

    Each leaf's |H|, |P| and vertex ids (hold first) go to flat buffers.
    Once they hold ``LEAF_BATCH`` incidences, and once more when ``flush``
    is called after the walk, ``accumulate_leaf`` adds the batch in numpy.
    With h = |H| and p = |P|, a leaf adds:

      global:             C_{h+i}      += C(p, i)    for 0 <= i <= p
      vertex v in hold:   c_{h+i}(v)   += C(p, i)    for 0 <= i <= p
      vertex v in pivots: c_{h+i+1}(v) += C(p-1, i)  for 0 <= i <= p-1
      edge within hold:   c_{h+i}(e)   += C(p, i)    for 0 <= i <= p
      edge hold-pivot:    c_{h+i+1}(e) += C(p-1, i)  for 0 <= i <= p-1
      edge within pivots: c_{h+i+2}(e) += C(p-2, i)  for 0 <= i <= p-2

    So a vertex or edge with r of its vertices among the pivots adds
    C(p - r, ·) from k = h + r. A batch tallies these incidences by
    (entity, h + r, p - r) and adds each distinct one's binomial row,
    times its tally, in one indexed addition per (h + r, p - r). Vertex
    pairs come from ``triu_indices`` per leaf size, and edge ids from a
    binary search on the canonical edge codes. ``max_k`` drops the
    increments beyond it. Global counts go to ``tables.global_counts``,
    which starts as alpha + 2 zeros.
    """

    def __init__(self, tables: CountTables, alpha: int,
                 max_k: int | None = None):
        self.tables = tables
        self.top = alpha + 1 if max_k is None else max_k
        self.rows = pascal_rows(alpha + 1)
        span = alpha + 2
        self.span = span
        tables.global_counts = [0] * span
        self.binomial = np.array(
            [[c if c < 2 ** 63 else 0 for c in row] + [0] * (span - len(row))
             for row in self.rows], dtype=np.int64)
        self.n_planes = max((t.planes.shape[0] for t in (tables.per_vertex,
                                                         tables.per_edge)
                             if t is not None), default=0)
        self.limb_rows: dict[int, np.ndarray] = {}
        self.h: list[int] = []
        self.p: list[int] = []
        self.ids: list[int] = []
        self.pending = 0

    def limbs(self, w: int) -> np.ndarray:
        """C(w, .) as ``LIMB_BITS``-bit limbs, one row per plane."""
        limbs = self.limb_rows.get(w)
        if limbs is None:
            mask = (1 << LIMB_BITS) - 1
            limbs = self.limb_rows[w] = np.array(
                [[c >> (LIMB_BITS * i) & mask for c in self.rows[w]]
                 for i in range(self.n_planes)], dtype=np.int64)
        return limbs

    def __call__(self, hold, pivots) -> None:
        self.h.append(len(hold))
        self.p.append(len(pivots))
        self.ids += hold
        self.ids += pivots
        s = len(hold) + len(pivots)
        self.pending += s * (s + 1) // 2
        if self.pending >= LEAF_BATCH:
            self.flush()

    def flush(self) -> None:
        """Add the buffered leaves to the tables."""
        if not self.h:
            return
        h, p, ids = (np.array(x, dtype=np.int64)
                     for x in (self.h, self.p, self.ids))
        self.h, self.p, self.ids, self.pending = [], [], [], 0
        accumulate_leaf(self, h, p, ids)


def accumulate_leaf(batches: LeafBatches, h: np.ndarray, p: np.ndarray,
                    ids: np.ndarray) -> int:
    """Add a batch of leaves to ``batches.tables`` by the six rules.

    Leaf i has ``h[i]`` hold and ``p[i]`` pivot vertices; ``ids`` lists
    the leaves' vertices one leaf after another, hold first. Returns the
    number of increments: one per entry of each binomial row added, as if
    the rows were added leaf by leaf and entity by entity.
    ``bench/tracer.py`` times the calls of this function by name.
    """
    tables = batches.tables
    top = batches.top
    span = batches.span
    pairs, leaves = np.unique(h * span + p, return_counts=True)
    hs, ps = np.divmod(pairs, span)
    _add_leaf_rows(tables.global_counts, batches.rows,
                   zip(zip(hs.tolist(), ps.tolist()), leaves.tolist()))
    increments = int(np.clip(np.minimum(ps, top - hs) + 1, 0, None) @ leaves)
    size = h + p
    start = np.cumsum(size) - size
    args = (batches.binomial, batches.limbs, top)
    if tables.per_vertex is not None:
        leaf = np.repeat(np.arange(len(h)), size)
        role = (np.arange(len(ids)) - start[leaf] >= h[leaf]).astype(np.int64)
        increments += tables.per_vertex.add(ids, h[leaf] + role,
                                            p[leaf] - role, *args)
    if tables.per_edge is not None:
        parts = []
        for s in np.unique(size[size > 1]).tolist():
            at = np.flatnonzero(size == s)
            a, b = np.triu_indices(s, 1)
            first = start[at, None]
            held = h[at, None]
            role = (a >= held).astype(np.int64) + (b >= held)
            parts.append((ids[first + a].ravel(), ids[first + b].ravel(),
                          (held + role).ravel(),
                          (p[at, None] - role).ravel()))
        if parts:
            u, v, o, w = (np.concatenate(x) for x in zip(*parts))
            low = np.minimum(u, v)
            eid = np.searchsorted(tables.edge_codes,
                                  low * tables.n + (u + v - low))
            increments += tables.per_edge.add(eid, o, w, *args)
    return increments


def count_roots_global(orientation: DegeneracyOrientation, roots,
                       counts: list[int], binomial: list[list[int]],
                       max_hold: int | None = None) -> tuple[int, int, int]:
    """Global-count engine over the given root vertices.

    Gives the counts and tree shape of ``traverse`` with a global-only
    sink, restricted to ``roots``. Adds into ``counts`` (length alpha + 2)
    and returns (nodes, leaves, max depth).

    A root v's subproblem is N+(v) with one bitmask row per out-neighbor.
    Roots whose rows fit one 64-bit word are set up in chunks of about
    max(``ROOT_CHUNK_WORK``, m // ``ROOT_CHUNK_SHARE``) oriented edges
    plus wedges, all in numpy: every wedge v->u->w of the out-CSR is
    closed by a binary search for the edge v->w, and each closed wedge
    sets one bit in the rows of u and w. A root whose rows are all zero
    has the fixed two-level tree of an edge-free subproblem and is
    settled in closed form; only the others are walked (``_walk_root``,
    which settles edge-free nodes at any depth the same way and stops its
    pivot scan at a vertex adjacent to all others). Wider roots build
    Python-integer rows one at a time.

    Leaves are tallied by (|H|, |P|); a leaf adds the binomial row
    C(|P|, i) to C_{|H|+i}, so each distinct pair's row is added to
    ``counts`` once, times its leaf count, after all roots are done. The
    leaf count and the max depth come from the same tally.
    """
    if max_hold is not None and max_hold < 1:
        return 0, 0, 0
    offsets = orientation.out_offsets
    targets = orientation.out_targets
    out_deg = np.diff(offsets)
    roots = np.asarray(roots, dtype=np.int64)
    sizes = out_deg[roots]
    # Leaves per (|H|, |P|); at most (alpha + 1)^2 entries.
    tally: defaultdict[tuple[int, int], int] = defaultdict(int)
    nodes = 0

    for v in roots[sizes > WORD_BITS].tolist():
        nodes += _walk_root(_python_rows(offsets, targets, v), tally, max_hold)

    narrow = sizes <= WORD_BITS
    roots, sizes = roots[narrow], sizes[narrow]
    # Cut the roots into chunks of about `step` oriented edges plus
    # wedges; a root's wedges come from a running sum over its edges.
    through = np.zeros(len(targets) + 1, dtype=np.int64)
    np.cumsum(out_deg[targets], out=through[1:])
    work = np.cumsum(sizes + through[offsets[roots + 1]]
                     - through[offsets[roots]])
    del through
    total = int(work[-1]) if len(work) else 0
    step = max(ROOT_CHUNK_WORK, len(targets) // ROOT_CHUNK_SHARE)
    cuts = np.searchsorted(work, np.arange(step, total, step), side="right")
    bounds = np.unique(np.concatenate(([0], cuts, [len(roots)]))).tolist()
    # Out-degrees of the roots whose subproblem has no edge.
    settled = []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        chunk, chunk_sizes = roots[lo:hi], sizes[lo:hi]
        rows, first, busy = _chunk_rows(offsets, targets, out_deg,
                                        chunk, chunk_sizes)
        settled.append(chunk_sizes[~busy])
        for i in np.flatnonzero(busy).tolist():
            nodes += _walk_root(rows[first[i]:first[i + 1]].tolist(), tally,
                                max_hold)
    settled = np.concatenate(settled) if settled else sizes[:0]

    # An edge-free root with s >= 1 out-neighbors has s + 1 nodes: its
    # lowest out-neighbor is the pivot leaf (1, 1) and every other one a
    # hold leaf (2, 0). Capped at one hold vertex, only the pivot leaf is
    # left. A root with no out-neighbor is one leaf, (1, 0).
    bare = int(np.count_nonzero(settled == 0))
    edge_free = len(settled) - bare
    holds = 0 if max_hold == 1 else int(settled.sum()) - edge_free
    for key, leaf_count in (((1, 0), bare), ((1, 1), edge_free),
                            ((2, 0), holds)):
        if leaf_count:
            tally[key] += leaf_count
    nodes += bare + 2 * edge_free + holds

    _add_leaf_rows(counts, binomial, tally.items())
    leaves = sum(tally.values())
    max_depth = max((h + p for h, p in tally), default=0)
    return nodes, leaves, max_depth


def _chunk_rows(offsets, targets, out_deg, roots, sizes):
    """Bitmask rows of a chunk of roots with at most ``WORD_BITS`` out-neighbors.

    Returns (rows, first, busy): ``rows`` holds one uint64 word per
    oriented edge of the chunk, root by root, the row of root i's j-th
    out-neighbor at ``first[i] + j`` (``first`` has one more entry, the
    end); ``busy[i]`` tells whether root i's subproblem has an edge.
    """
    ends = np.cumsum(sizes)
    first = ends - sizes
    root_of = np.repeat(np.arange(len(roots), dtype=np.int64), sizes)
    local = np.arange(len(root_of), dtype=np.int64) - first[root_of]
    u = targets[offsets[roots][root_of] + local]
    # Every wedge root -> u -> w, tagged with the edge root -> u.
    du = out_deg[u]
    via = np.repeat(np.arange(len(u), dtype=np.int64), du)
    step = np.arange(len(via), dtype=np.int64) - (np.cumsum(du) - du)[via]
    w = targets[offsets[u][via] + step]
    # It closes where root -> w is an edge; (root, u) keys are sorted.
    n = len(out_deg)
    keys = root_of * n + u
    probe = root_of[via] * n + w
    at = np.searchsorted(keys, probe)
    np.minimum(at, len(keys) - 1, out=at)
    hit = keys[at] == probe
    a, b = via[hit], at[hit]
    rows = np.zeros(len(u), dtype=np.uint64)
    one = np.uint64(1)
    np.bitwise_or.at(rows, a, one << local[b].astype(np.uint64))
    np.bitwise_or.at(rows, b, one << local[a].astype(np.uint64))
    busy = np.zeros(len(roots), dtype=bool)
    busy[root_of[a]] = True
    return rows, [0] + ends.tolist(), busy


def _python_rows(offsets, targets, v) -> list[int]:
    """Bitmask rows of root v's subproblem, as Python integers of any width."""
    members = targets[offsets[v]:offsets[v + 1]].tolist()
    index = {u: j for j, u in enumerate(members)}
    rows = [0] * len(members)
    for j, u in enumerate(members):
        for w in targets[offsets[u]:offsets[u + 1]].tolist():
            jj = index.get(w)
            if jj is not None:
                rows[j] |= 1 << jj
                rows[jj] |= 1 << j
    return rows


def _walk_root(rows: list[int], tally: defaultdict,
               max_hold: int | None) -> int:
    """Walk one root's clique tree, tracking only (|H|, |P|) per node.

    ``rows`` are the bitmask rows of the root's subproblem. Adds one to
    ``tally[h, p]`` per leaf with h hold and p pivot vertices and returns
    the number of nodes.

    The pivot scan stops at the first vertex adjacent to every other one:
    no later vertex can have a higher degree, and ties keep the earlier
    vertex, so the pivot is the one a full scan would pick. A node whose
    subproblem has no edge is settled in closed form: its lowest vertex is
    the pivot leaf (h, p + 1) and each other vertex a hold leaf (h + 1, p).
    The pivot child is walked in place rather than pushed, since it would
    be popped next.
    """
    nodes = 0
    # Each stack entry is one tree node: (subproblem mask, |H|, |P|).
    stack = [((1 << len(rows)) - 1, 1, 0)]
    push = stack.append
    pop = stack.pop
    while stack:
        mask, h, p = pop()
        may_hold = max_hold is None or h < max_hold
        while mask:
            nodes += 1
            full = mask.bit_count() - 1
            m = mask
            best_deg = -1
            while m:
                low = m & -m
                row = rows[low.bit_length() - 1] & mask
                d = row.bit_count()
                if d > best_deg:
                    best, best_deg, best_row = low, d, row
                    if d == full:
                        break
                m ^= low
            if not best_deg:
                # No edge: a pivot leaf and `full` hold leaves.
                tally[h, p + 1] += 1
                nodes += 1
                if may_hold and full:
                    tally[h + 1, p] += full
                    nodes += full
                break
            if may_hold and best_deg < full:
                m = mask & ~(best_row | best)
                dropped = 0
                while m:
                    low = m & -m
                    push((rows[low.bit_length() - 1] & mask & ~dropped,
                          h + 1, p))
                    dropped |= low
                    m ^= low
            mask = best_row
            p += 1
        else:
            # The subproblem is empty: a leaf.
            nodes += 1
            tally[h, p] += 1
    return nodes


def count(graph: Graph, *, per_vertex: bool = False, per_edge: bool = False,
          max_k: int | None = None, threads: int = 1,
          counters: str = EXACT,
          orientation: DegeneracyOrientation | None = None) -> CountTables:
    """Count k-cliques for all k (or up to ``max_k``).

    Runs the degeneracy orientation and the clique-tree walk with the
    leaf-accumulation rules. Global-only counting uses a fused engine and
    can fan root subproblems across ``threads`` worker processes; local
    counting is single-threaded. ``counters`` selects "exact" (unbounded
    integers, the default) or "fast" (the same counts, checked against
    the signed 64-bit range: CounterOverflowError if any count exceeds
    it, never a wrapped value).
    """
    if counters not in (EXACT, FAST):
        raise ValueError(f"unknown counter mode: {counters!r}")
    if max_k is not None and max_k < 1:
        raise ValueError("max_k must be >= 1")
    if threads < 1:
        raise ValueError("threads must be >= 1")
    if orientation is None:
        orientation = degeneracy_orient(graph)

    if per_vertex or per_edge:
        if threads > 1:
            log.warning("local clique counting is single-threaded; "
                        "ignoring threads=%d", threads)
        tables = CountTables(graph, *local_tables(orientation, max_k,
                                                  per_vertex, per_edge))
        sink = LeafBatches(tables, orientation.alpha, max_k)
        tables.stats = traverse(graph, orientation, sink, max_hold=max_k)
        sink.flush()
    elif threads > 1:
        from .parallel import count_global_parallel
        tables = count_global_parallel(graph, orientation, workers=threads,
                                       max_k=max_k)
    else:
        tables = _count_global_sequential(graph, orientation, max_k)
    tables._trim(max_k)
    if counters == FAST:
        tables.counter_bound = FAST_COUNTER_MAX
        tables._enforce_bound()
    tables.alpha = orientation.alpha
    return tables


def _count_global_sequential(graph, orientation, max_k) -> CountTables:
    tables = CountTables(graph)
    counts = [0] * (orientation.alpha + 2)
    nodes, leaves, depth = count_roots_global(
        orientation, np.arange(graph.n), counts,
        pascal_rows(orientation.alpha + 1), max_hold=max_k)
    tables.global_counts = counts
    tables.stats = TraversalStats(nodes, leaves, depth)
    return tables
