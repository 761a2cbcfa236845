"""Clique-count accumulation from clique-tree leaves.

Every leaf of the clique tree contributes binomial-weighted increments:
a path with hold set H and pivot set P represents C(|P|, i) cliques of
size |H| + i for each i, and membership of a vertex or edge in H versus P
decides which binomial row applies. Global counts depend only on the
walker's histogram of leaves by (|H|, |P|) (``TraversalStats.leaves``),
and ``global_tables`` is the one place that turns histograms into exact
Python-integer counts, for every count. Every count runs the level walk
(``sct.walk_levels``) through ``sct.walk_roots``. Global-only counts get
their histograms from ``count_roots_global``, over a range of roots, all
of them in one range or consecutive ranges of them in a pool
(``parallel.count_global_parallel``). Local counts
get theirs from ``traverse`` over every root, which also hands every
leaf to ``LeafBatches``, in batches of arrays: it adds them in numpy to
flat fixed-width tables (``LocalTable``) that are exact by construction.
Every count checks C_1 = n and C_2 = m. The "fast" counter mode adds a
check that every count fits the signed 64-bit range, and aborts
otherwise.
"""

from __future__ import annotations

import math

import numpy as np

from . import sct
from .degeneracy import DegeneracyOrientation, degeneracy_orient
from .errors import CountCheckError, CounterOverflowError
from .graph import Graph, csr_slices
from .sct import TraversalStats, traverse

# Envelope of the fixed-width counter mode (signed 64-bit range).
FAST_COUNTER_MAX = 2 ** 63 - 1

# The walk's leaves are added to the local tables in slices of at most this
# many incidences (vertices plus vertex pairs). A slice's scratch arrays
# take about 150 bytes per incidence; the limb planes' headroom (see
# LocalTable) needs slices far below CARRY_AFTER.
LEAF_BATCH = 1 << 14
# Limb width of the planes that hold wide local rows.
LIMB_BITS = 31
# Wide rows are carried once this many incidences have been added to them
# since the last carry; see LocalTable.
CARRY_AFTER = 1 << 30
# Rows write out in chunks of at most this many table entries. A chunk's
# scratch arrays take about 250 bytes per entry; on the geo-local benchmark
# (2-core x86 host) chunks of 2^13 entries raised the peak memory of a
# per-vertex and per-edge count by 1.2 MB more than 2^12, at the same speed.
WRITE_CHUNK = 1 << 12
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

    Entity e's row holds c_k(e) for k = ``base``, ``base`` + 1, ... A row
    is as wide as the largest clique that can hold the entity, capped by
    max_k. Each entity comes with an upper bound on all its counts, fixed
    before the walk (``local_tables``). Where the bound is below 2^62 the
    row holds exact int64 counts in ``flat[offsets[e]:offsets[e + 1]]``.
    The other ("wide") entities, ids ``wide`` in ascending order, have no
    slots in ``flat`` (``offsets[e]`` = ``offsets[e + 1]``): the i-th one's
    row is ``planes[:, i, :wide_widths[i]]``, one int64 plane per
    ``LIMB_BITS``-bit limb, least significant first, with enough planes
    for any count of the graph.

    No count can overflow, so there is no check at run time. Counts only
    grow, so a narrow entry never exceeds its final count, which is below
    its bound. Each amount added to it, a leaf tally times C(w, j), counts
    distinct cliques through the entity, so it is below that bound too.
    Each incidence adds less than 2^LIMB_BITS to a wide entry's plane.
    Once ``CARRY_AFTER`` incidences have gone into wide rows since the
    last carry, ``add`` brings every plane but the top one back below
    2^LIMB_BITS, and the top one holds at most LIMB_BITS bits of a final
    count. So no plane entry reaches 2^LIMB_BITS times (1 + CARRY_AFTER +
    the incidences of one slice), below 2^62. Reads carry the planes, or
    combine them into Python integers, exactly whether or not they were
    carried.
    """

    __slots__ = ("base", "offsets", "flat", "wide", "wide_widths", "is_wide",
                 "planes", "uncarried")

    def __init__(self, base: int, widths: np.ndarray, is_wide: np.ndarray,
                 limbs: int):
        self.base = base
        self.offsets = np.zeros(len(widths) + 1, dtype=np.int64)
        np.cumsum(np.where(is_wide, 0, widths), out=self.offsets[1:])
        self.flat = np.zeros(int(self.offsets[-1]), dtype=np.int64)
        self.is_wide = is_wide
        self.wide = np.flatnonzero(is_wide)
        self.wide_widths = widths[self.wide]
        self.planes = np.zeros((limbs if len(self.wide) else 0, len(self.wide),
                                int(self.wide_widths.max(initial=0))),
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
            _carry(self.planes)
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
        if self.is_wide[e]:
            i = np.searchsorted(self.wide, e)
            return self._combine(self.planes[:, i, :self.wide_widths[i]])
        return self.flat[self.offsets[e]:self.offsets[e + 1]].tolist()

    def entries(self):
        """Yield (entity, k, groups) for the nonzero counts, chunk by chunk.

        Each chunk covers a range of entities whose rows, narrow and wide,
        hold at most ``WRITE_CHUNK`` entries, or one entity's row that alone
        holds more (``graph.csr_slices``), and at least one nonzero count.
        ``entity`` and ``k`` are arrays in row order, and ``groups`` holds
        the counts' base-10^4 digit groups, one row per count
        (``decimal_groups``). Wide rows are carried on a copy of their
        planes and narrow counts split into the same limbs, so no count
        becomes a Python integer.
        """
        offsets = self.offsets
        wide = np.zeros_like(offsets)
        wide[self.wide + 1] = self.wide_widths
        shifts = LIMB_BITS * np.arange(len(self.planes))[:, None]
        for lo, hi in csr_slices(offsets + np.cumsum(wide), WRITE_CHUNK):
            a = offsets[lo]
            values = self.flat[a:offsets[hi]]
            at = np.flatnonzero(values)
            entity = np.repeat(np.arange(lo, hi),
                               np.diff(offsets[lo:hi + 1]))[at]
            k = at + a - offsets[entity] + self.base
            limbs = values[at][None]
            w0, w1 = np.searchsorted(self.wide, (lo, hi)).tolist()
            if w0 < w1:
                planes = self.planes[:, w0:w1].copy()
                _carry(planes)
                row, col = np.nonzero(planes.any(axis=0))
                limbs = limbs >> shifts
                limbs[:-1] &= (1 << LIMB_BITS) - 1
                entity = np.concatenate((entity, self.wide[w0 + row]))
                order = np.argsort(entity, kind="stable")
                entity = entity[order]
                k = np.concatenate((k, col + self.base))[order]
                limbs = np.concatenate((limbs, planes[:, row, col]),
                                       axis=1)[:, order]
            if len(entity):
                yield entity, k, decimal_groups(limbs)

    def max_count(self) -> int:
        return max([int(self.flat.max(initial=0)),
                    *(c for e in self.wide.tolist() for c in self.row(e))])


def _carry(planes: np.ndarray) -> None:
    """Carry limb planes in place, least significant first: every plane
    but the top one ends below 2^LIMB_BITS, and the values stay the same."""
    for lower, upper in zip(planes[:-1], planes[1:]):
        upper += lower >> LIMB_BITS
        lower &= (1 << LIMB_BITS) - 1


def decimal_groups(limbs: np.ndarray) -> np.ndarray:
    """Base-10^4 digit groups of non-negative numbers given as limbs.

    Number i is the sum over j of ``limbs[j, i]`` << (LIMB_BITS * j);
    every limb but the last is below 2^LIMB_BITS, the last may be any
    non-negative int64. Returns an int16 array with one row per number,
    most significant group first, enough groups for the largest number's
    bit length (at least one, so leading groups may be 0). The groups
    come from long division by 10^4, limb by limb from the top, once per
    group: remainders stay below 10^4, so no partial dividend reaches
    2^63.
    """
    while len(limbs) > 1 and not limbs[-1].any():
        limbs = limbs[:-1]
    bits = LIMB_BITS * (len(limbs) - 1) + int(limbs[-1].max(initial=0)
                                               ).bit_length()
    width = -(-len(str((1 << bits) - 1)) // 4)
    groups = np.empty((limbs.shape[1], width), dtype=np.int16)
    limbs = list(limbs[::-1])
    for g in range(width - 1, -1, -1):
        rest = 0
        for i, limb in enumerate(limbs):
            dividend = (rest << LIMB_BITS) + limb
            limbs[i] = dividend // 10 ** 4
            rest = dividend - limbs[i] * 10 ** 4
        groups[:, g] = rest
        if len(limbs) > 1 and not limbs[0].any():
            del limbs[0]
    return groups


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
    tables. ``max_k`` is the cap the tables were counted under (None for
    all k), and ``workers`` the number of processes that counted them.
    """

    __slots__ = ("n", "global_counts", "per_vertex", "per_edge",
                 "edge_codes", "stats", "alpha", "max_k", "workers")

    def __init__(self, graph: Graph, per_vertex: LocalTable | None = None,
                 per_edge: LocalTable | None = None,
                 edge_codes: np.ndarray | None = None):
        self.n = graph.n
        self.global_counts: list[int] = [0]
        self.per_vertex = per_vertex
        self.per_edge = per_edge
        self.edge_codes = edge_codes
        self.stats: TraversalStats | None = None
        self.alpha: int | None = None
        self.max_k: int | None = None
        self.workers = 1

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

    # -- mutation --------------------------------------------------------

    def _trim(self, max_k: int | None) -> None:
        """Drop global counts past max_k, then trailing zeros.

        Local rows are sized to max_k when they are laid out.
        """
        if max_k is not None:
            del self.global_counts[max_k + 1:]
        while len(self.global_counts) > 1 and self.global_counts[-1] == 0:
            self.global_counts.pop()

    def _enforce_bound(self, bound: int) -> None:
        """Raise CounterOverflowError if any count exceeds ``bound``."""
        if any(c > bound for c in self.global_counts) or any(
                table is not None and table.max_count() > bound
                for table in (self.per_vertex, self.per_edge)):
            raise CounterOverflowError()


def _strip(row: list[int]) -> list[int]:
    while row and not row[-1]:
        row.pop()
    return row


class LeafBatches:
    """The leaf sink of a local count: adds leaves to CountTables.

    ``traverse(..., batches=LeafBatches(...))`` hands it every leaf of the
    level walk, a batch of arrays at a time (``add``): each leaf's root,
    and its hold and pivot links as bits over the root's out-neighbors.
    It turns the bits into vertex ids through the orientation's out-CSR,
    and ``accumulate_leaf`` adds the leaves in numpy, in slices of at most
    ``LEAF_BATCH`` incidences (vertices plus vertex pairs; one leaf may
    pass it alone). With h = |H| and p = |P|, a leaf adds C(p, i) to the
    global count C_{h+i} for 0 <= i <= p (``global_tables`` adds these
    from the walk's histogram), and to the local tables:

      vertex v in hold:   c_{h+i}(v)   += C(p, i)    for 0 <= i <= p
      vertex v in pivots: c_{h+i+1}(v) += C(p-1, i)  for 0 <= i <= p-1
      edge within hold:   c_{h+i}(e)   += C(p, i)    for 0 <= i <= p
      edge hold-pivot:    c_{h+i+1}(e) += C(p-1, i)  for 0 <= i <= p-1
      edge within pivots: c_{h+i+2}(e) += C(p-2, i)  for 0 <= i <= p-2

    So a vertex or edge with r of its vertices among the pivots adds
    C(p - r, ·) from k = h + r. A slice tallies these incidences by
    (entity, h + r, p - r) and adds each distinct one's binomial row,
    times its tally, in one indexed addition per (h + r, p - r). Vertex
    pairs come from ``triu_indices`` per leaf size, and edge ids from a
    binary search on the canonical edge codes. ``max_k`` drops the
    increments beyond it.
    """

    def __init__(self, tables: CountTables,
                 orientation: DegeneracyOrientation,
                 max_k: int | None = None):
        alpha = orientation.alpha
        self.tables = tables
        self.offsets = orientation.out_offsets
        self.targets = orientation.out_targets
        self.top = alpha + 1 if max_k is None else max_k
        self.rows = pascal_rows(alpha + 1)
        span = alpha + 2
        self.binomial = np.array(
            [[c if c < 2 ** 63 else 0 for c in row] + [0] * (span - len(row))
             for row in self.rows], dtype=np.int64)
        self.n_planes = max((t.planes.shape[0] for t in (tables.per_vertex,
                                                         tables.per_edge)
                             if t is not None), default=0)
        self.limb_rows: dict[int, np.ndarray] = {}

    def limbs(self, w: int) -> np.ndarray:
        """C(w, .) as ``LIMB_BITS``-bit limbs, one row per plane."""
        limbs = self.limb_rows.get(w)
        if limbs is None:
            mask = (1 << LIMB_BITS) - 1
            limbs = self.limb_rows[w] = np.array(
                [[c >> (LIMB_BITS * i) & mask for c in self.rows[w]]
                 for i in range(self.n_planes)], dtype=np.int64)
        return limbs

    def add(self, roots: np.ndarray, hold: np.ndarray,
            pivots: np.ndarray) -> None:
        """Add leaves to the tables, as ``sct.walk_roots`` hands them over.

        Leaf i holds ``roots[i]`` and the out-neighbors of it marked in
        ``hold[i]``, and its pivots are those marked in ``pivots[i]``: bit
        j of word j // ``WORD_BITS`` marks the j-th out-neighbor in
        ascending order.
        """
        span = hold.shape[1] * sct.WORD_BITS
        h = np.bitwise_count(hold).sum(axis=1, dtype=np.int64) + 1
        p = np.bitwise_count(pivots).sum(axis=1, dtype=np.int64)
        size = h + p
        end = np.cumsum(size)
        start = end - size
        # Leaf after leaf: its root, its other hold vertices, its pivots.
        found = np.flatnonzero(np.unpackbits(np.concatenate(
            (hold, pivots), axis=1).astype("<u8", copy=False).view(np.uint8),
            bitorder="little"))
        members = self.targets[self.offsets[roots][found // (2 * span)]
                               + found % span]
        ids = np.insert(members.astype(np.int64), start - np.arange(len(h)),
                        roots)
        cost = np.zeros(len(size) + 1, dtype=np.int64)
        np.cumsum(size * (size + 1) // 2, out=cost[1:])
        for lo, hi in csr_slices(cost, LEAF_BATCH):
            accumulate_leaf(self, h[lo:hi], p[lo:hi],
                            ids[start[lo]:end[hi - 1]])


def accumulate_leaf(batches: LeafBatches, h: np.ndarray, p: np.ndarray,
                    ids: np.ndarray) -> int:
    """Add a batch of leaves to ``batches.tables`` by the local rules.

    Leaf i has ``h[i]`` hold and ``p[i]`` pivot vertices; ``ids`` lists
    the leaves' vertices one leaf after another, hold first. Returns the
    number of increments of all six rules: one per entry of each binomial
    row added, as if the rows were added leaf by leaf and entity by
    entity. That includes the global rule's, although ``global_tables``
    adds those rows from the histogram instead.
    ``bench/tracer.py`` times the calls of this function by name.
    """
    tables = batches.tables
    top = batches.top
    increments = int(np.clip(np.minimum(p, top - h) + 1, 0, None).sum())
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
        for s in np.flatnonzero(np.bincount(size[size > 1])).tolist():
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


def count_roots_global(orientation: DegeneracyOrientation, roots: range,
                       max_hold: int | None = None) -> TraversalStats:
    """Shape of a range of roots' subtrees, for ``global_tables``.

    ``sct.walk_roots`` without a callback, so the level walk
    (``sct.walk_levels``): the node count and the leaf histogram by (|H|,
    |P|) of ``traverse``'s tree restricted to ``roots``, consecutive
    vertex ids. ``global_tables`` turns any number of these results, for
    disjoint ranges of roots, into counts.
    """
    return sct.walk_roots(orientation, roots, max_hold=max_hold)


def global_tables(graph: Graph, alpha: int, parts, max_k: int | None = None,
                  tables: CountTables | None = None) -> CountTables:
    """Global counts and tree shape from the shapes of disjoint subtrees.

    ``parts`` are ``TraversalStats`` of disjoint ranges of roots, in any
    order: the results of ``count_roots_global``, or the one of
    ``traverse``. Their node counts and leaf histograms are added up and
    kept as ``tables.stats``. A leaf with hold set H and pivot set P adds
    the binomial row C(|P|, i) to C_{|H|+i}, so each distinct (|H|, |P|)
    pair's row is added once, times its number of leaves. Counts past
    ``max_k`` are dropped. The global counts, the stats, alpha and
    ``max_k`` go on ``tables`` (local tables filled by ``LeafBatches``),
    or on new global-only tables. Every count sets them here.
    """
    stats = TraversalStats()
    for part in parts:
        stats.node_count += part.node_count
        for key, leaf_count in part.leaves.items():
            stats.leaves[key] = stats.leaves.get(key, 0) + leaf_count
    if tables is None:
        tables = CountTables(graph)
    counts = [0] * (alpha + 2)
    binomial = pascal_rows(alpha + 1)
    for (h, p), leaf_count in stats.leaves.items():
        for i, c in enumerate(binomial[p]):
            counts[h + i] += leaf_count * c
    tables.global_counts = counts
    tables.stats = stats
    tables.alpha = alpha
    tables.max_k = max_k
    tables._trim(max_k)
    return tables


def count(graph: Graph, *, per_vertex: bool = False, per_edge: bool = False,
          max_k: int | None = None, threads: int = 1,
          counters: str = EXACT,
          orientation: DegeneracyOrientation | None = None) -> CountTables:
    """Count k-cliques for all k (or up to ``max_k``).

    Runs the degeneracy orientation and the clique-tree walk with the
    leaf-accumulation rules. Global-only counting runs
    ``parallel.count_global_parallel``, which decides how many processes
    count, at most ``threads``; local counting runs in this process,
    whatever ``threads``. The tables' ``workers`` is the number of
    processes that counted. ``counters`` selects "exact" (unbounded
    integers, the default) or "fast" (the same counts, checked against
    the signed 64-bit range: CounterOverflowError if any count exceeds
    it, never a wrapped value). Every count checks C_1 = n and, unless
    ``max_k`` is 1, C_2 = m, and raises CountCheckError on a mismatch.
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
        tables = CountTables(graph, *local_tables(orientation, max_k,
                                                  per_vertex, per_edge))
        stats = traverse(graph, orientation, max_hold=max_k,
                         batches=LeafBatches(tables, orientation, max_k))
        tables = global_tables(graph, orientation.alpha, [stats], max_k,
                               tables)
    else:
        from .parallel import count_global_parallel
        tables = count_global_parallel(graph, orientation, threads, max_k)
    # Every vertex is a 1-clique and every edge a 2-clique.
    for k, known in ((1, graph.n), (2, graph.m))[:max_k]:
        if tables.global_count(k) != known:
            raise CountCheckError(
                f"count self-check failed: C_{k} = {tables.global_count(k)}, "
                f"expected {known}")
    if counters == FAST:
        tables._enforce_bound(FAST_COUNTER_MAX)
    return tables
