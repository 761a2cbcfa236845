"""Clique-count accumulation from clique-tree leaves.

Every leaf of the clique tree contributes binomial-weighted increments:
a path with hold set H and pivot set P represents C(|P|, i) cliques of
size |H| + i for each i, and membership of a vertex or edge in H versus P
decides which binomial row applies. Counters are exact Python integers;
the "fast" counter mode adds a check that every count fits the signed
64-bit range, and aborts otherwise.
"""

from __future__ import annotations

import logging
from collections import defaultdict
from operator import add
from typing import Sequence

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

EXACT = "exact"
FAST = "fast"


def pascal_rows(limit: int) -> list[list[int]]:
    """Rows 0..limit of Pascal's triangle, as exact integers."""
    rows = [[1]]
    for r in range(1, limit + 1):
        prev = rows[-1]
        rows.append([1] + [prev[i - 1] + prev[i] for i in range(1, r)] + [1])
    return rows


class CountTables:
    """Global, per-vertex, and per-edge k-clique counts.

    ``global_counts[k]`` is the number of k-cliques; the list is sized to
    the largest k ever touched. Per-vertex tables mirror that layout per
    vertex. Per-edge tables are keyed by position in the canonical edge
    order (u < v, ascending) and start at k = 2, the smallest clique an
    edge can be part of.
    """

    __slots__ = ("n", "global_counts", "per_vertex", "per_edge",
                 "edge_keys", "edge_index", "counter_bound", "stats", "alpha")

    def __init__(self, graph: Graph, per_vertex=False, per_edge=False,
                 counter_bound=None):
        self.n = graph.n
        self.global_counts: list[int] = [0]
        self.per_vertex = [[] for _ in range(graph.n)] if per_vertex else None
        if per_edge:
            self.edge_keys = list(graph.edges())
            self.edge_index = {e: i for i, e in enumerate(self.edge_keys)}
            self.per_edge = [[] for _ in self.edge_keys]
        else:
            self.edge_keys = None
            self.edge_index = None
            self.per_edge = None
        self.counter_bound = counter_bound
        self.stats: TraversalStats | None = None
        self.alpha: int | None = None

    # -- queries ---------------------------------------------------------

    def global_count(self, k: int) -> int:
        if 0 <= k < len(self.global_counts):
            return self.global_counts[k]
        return 0

    def vertex_count(self, v: int, k: int) -> int:
        row = self.per_vertex[v]
        return row[k] if k < len(row) else 0

    def edge_count(self, u: int, v: int, k: int) -> int:
        if u > v:
            u, v = v, u
        row = self.per_edge[self.edge_index[(u, v)]]
        i = k - 2
        return row[i] if 0 <= i < len(row) else 0

    def max_clique_size(self) -> int:
        for k in range(len(self.global_counts) - 1, 0, -1):
            if self.global_counts[k]:
                return k
        return 0

    def global_nonzero(self) -> dict[int, int]:
        return {k: c for k, c in enumerate(self.global_counts) if c and k > 0}

    # -- mutation --------------------------------------------------------

    def _trim(self, max_k: int | None) -> None:
        """Drop truncation garbage past max_k, then trailing zeros."""
        if max_k is not None:
            del self.global_counts[max_k + 1:]
        while len(self.global_counts) > 1 and self.global_counts[-1] == 0:
            self.global_counts.pop()
        if self.per_vertex is not None and max_k is not None:
            for row in self.per_vertex:
                del row[max_k + 1:]
        if self.per_edge is not None and max_k is not None:
            for row in self.per_edge:
                del row[max_k - 1:]

    def _enforce_bound(self) -> None:
        bound = self.counter_bound
        if bound is None:
            return
        if any(c > bound for c in self.global_counts):
            raise CounterOverflowError()
        if self.per_vertex is not None:
            for row in self.per_vertex:
                if any(c > bound for c in row):
                    raise CounterOverflowError()
        if self.per_edge is not None:
            for row in self.per_edge:
                if any(c > bound for c in row):
                    raise CounterOverflowError()


def _add_row(row: list[int], start: int, values: list[int]) -> None:
    """Add ``values`` into ``row`` from index ``start``, growing it to fit."""
    end = start + len(values)
    if len(row) < end:
        row.extend([0] * (end - len(row)))
    row[start:end] = map(add, row[start:end], values)


def accumulate_leaf(tables: CountTables, hold: Sequence[int],
                    pivots: Sequence[int], binomial: list[list[int]],
                    max_k: int | None = None) -> int:
    """Apply one leaf's increments to the tables; returns how many were made.

    With h = |hold| and p = |pivots| the increment rules are:

      global:             C_{h+i}      += C(p, i)    for 0 <= i <= p
      vertex v in hold:   c_{h+i}(v)   += C(p, i)    for 0 <= i <= p
      vertex v in pivots: c_{h+i+1}(v) += C(p-1, i)  for 0 <= i <= p-1
      edge within hold:   c_{h+i}(e)   += C(p, i)    for 0 <= i <= p
      edge hold-pivot:    c_{h+i+1}(e) += C(p-1, i)  for 0 <= i <= p-1
      edge within pivots: c_{h+i+2}(e) += C(p-2, i)  for 0 <= i <= p-2

    ``max_k`` caps the target clique size; increments beyond it are skipped.
    Each rule adds one binomial row, cut at ``max_k``, to each table row it
    touches in a single slice operation; rows grow only as far as the last
    k they receive.
    """
    h = len(hold)
    p = len(pivots)

    def cut(width, shift):
        # C(width, i) for each i whose k = h + i + shift is at most max_k.
        row = binomial[width]
        if max_k is not None:
            return row[:max(0, max_k - h - shift + 1)]
        return row

    row0 = cut(p, 0)
    row1 = cut(p - 1, 1) if p >= 1 else []
    row2 = cut(p - 2, 2) if p >= 2 else []
    n0, n1, n2 = len(row0), len(row1), len(row2)
    if n0:
        _add_row(tables.global_counts, h, row0)
    applied = n0

    per_vertex = tables.per_vertex
    if per_vertex is not None:
        if n0:
            for v in hold:
                _add_row(per_vertex[v], h, row0)
        if n1:
            for v in pivots:
                _add_row(per_vertex[v], h + 1, row1)
        applied += h * n0 + p * n1

    per_edge = tables.per_edge
    if per_edge is not None:
        # Per-edge rows start at k = 2.
        edge_index = tables.edge_index
        if n0:
            ordered = sorted(hold)
            for a, u in enumerate(ordered):
                for v in ordered[a + 1:]:
                    _add_row(per_edge[edge_index[u, v]], h - 2, row0)
        if n1:
            for u in pivots:
                for v in hold:
                    key = (u, v) if u < v else (v, u)
                    _add_row(per_edge[edge_index[key]], h - 1, row1)
        if n2:
            ordered = sorted(pivots)
            for a, u in enumerate(ordered):
                for v in ordered[a + 1:]:
                    _add_row(per_edge[edge_index[u, v]], h, row2)
        applied += (h * (h - 1) // 2 * n0 + p * h * n1
                    + p * (p - 1) // 2 * n2)
    return applied


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

    for (h, p), leaf_count in tally.items():
        for i, c in enumerate(binomial[p]):
            counts[h + i] += leaf_count * c
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
        tables = CountTables(graph, per_vertex=per_vertex, per_edge=per_edge)
        binomial = pascal_rows(orientation.alpha + 1)
        sink = lambda hold, pivots: accumulate_leaf(
            tables, hold, pivots, binomial, max_k)
        tables.stats = traverse(graph, orientation, sink, max_hold=max_k)
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
