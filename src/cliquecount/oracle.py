"""Brute-force clique enumeration used as ground truth in tests.

This module enumerates every clique explicitly and tallies the same
tables the production counter produces, so the two can be compared
exactly. It shares no traversal or pivoting code with the clique-tree
engine: cliques are grown one vertex at a time in ascending id order
(each clique is emitted exactly once, at its lowest vertex), which keeps
its failure modes independent. It is exponential by nature and guarded
by a clique-count cap.
"""

from __future__ import annotations

from dataclasses import dataclass

from .counting import CountTables
from .errors import SizeLimitError
from .graph import Graph

DEFAULT_CLIQUE_CAP = 10 ** 7


class CliqueCensus:
    """Explicit clique inventory with derived count tables.

    ``cliques`` holds each clique as an ascending vertex tuple, or None in
    tally-only mode (recommended when only the tables are needed; storing
    millions of cliques is the memory hog the tally mode avoids).
    """

    __slots__ = ("n", "cliques", "global_counts", "per_vertex", "per_edge",
                 "_tally_locals")

    def __init__(self, n: int, store_cliques: bool, tally_locals: bool = True):
        self.n = n
        self.cliques: list[tuple] | None = [] if store_cliques else None
        self.global_counts: list[int] = [0]
        self.per_vertex: list[list[int]] = [[] for _ in range(n)]
        self.per_edge: dict[tuple, list[int]] = {}
        self._tally_locals = tally_locals

    def global_count(self, k: int) -> int:
        return self.global_counts[k] if k < len(self.global_counts) else 0

    def vertex_count(self, v: int, k: int) -> int:
        row = self.per_vertex[v]
        return row[k] if k < len(row) else 0

    def edge_count(self, u: int, v: int, k: int) -> int:
        row = self.per_edge.get((min(u, v), max(u, v)))
        if row is None:
            return 0
        i = k - 2
        return row[i] if 0 <= i < len(row) else 0

    def max_clique_size(self) -> int:
        for k in range(len(self.global_counts) - 1, 0, -1):
            if self.global_counts[k]:
                return k
        return 0

    def _tally(self, clique: list[int]) -> None:
        k = len(clique)
        if self.cliques is not None:
            self.cliques.append(tuple(clique))
        tbl = self.global_counts
        while len(tbl) <= k:
            tbl.append(0)
        tbl[k] += 1
        if not self._tally_locals:
            return
        for v in clique:
            row = self.per_vertex[v]
            while len(row) <= k:
                row.append(0)
            row[k] += 1
        for a in range(k):
            for b in range(a + 1, k):
                key = (clique[a], clique[b])
                row = self.per_edge.get(key)
                if row is None:
                    row = self.per_edge[key] = []
                while len(row) <= k - 2:
                    row.append(0)
                row[k - 2] += 1


def enumerate_all_cliques(graph: Graph, limit: int = DEFAULT_CLIQUE_CAP,
                          store_cliques: bool = True,
                          tally_locals: bool = True) -> CliqueCensus:
    """Enumerate every clique of a small graph and tally all tables.

    Raises SizeLimitError once more than ``limit`` cliques have been seen.
    ``store_cliques=False`` keeps tables only; ``tally_locals=False``
    additionally skips the per-vertex and per-edge tallies (the quadratic
    per-clique part) when only global counts are being checked.
    """
    n = graph.n
    census = CliqueCensus(n, store_cliques, tally_locals)
    # Bitmask adjacency restricted to higher ids: grow cliques upward only.
    higher = []
    for v in range(n):
        mask = 0
        for u in graph.neighbors(v):
            u = int(u)
            if u > v:
                mask |= 1 << u
        higher.append(mask)
    emitted = 0
    clique: list[int] = []

    def grow(candidates: int) -> None:
        nonlocal emitted
        emitted += 1
        if emitted > limit:
            raise SizeLimitError(
                f"more than {limit} cliques; raise the limit to enumerate anyway")
        census._tally(clique)
        m = candidates
        while m:
            low = m & -m
            u = low.bit_length() - 1
            clique.append(u)
            grow(candidates & higher[u])
            clique.pop()
            m ^= low

    for v in range(n):
        clique.append(v)
        grow(higher[v])
        clique.pop()
    return census


@dataclass
class ComparisonResult:
    ok: bool
    detail: str = ""

    def __bool__(self) -> bool:
        return self.ok


def compare(census: CliqueCensus, tables: CountTables) -> ComparisonResult:
    """Exact equality check of counter output against the census.

    Compares global counts, and local tables when the counter produced
    them, for every k up to the tables' ``max_k`` (every k when None). The
    verdict names the first mismatching entry.
    """
    def ks(start: int, width: int) -> range:
        if tables.max_k is not None:
            width = min(width, tables.max_k + 1)
        return range(start, width)

    top = max(len(census.global_counts), len(tables.global_counts))
    for k in ks(1, top):
        expected = census.global_count(k)
        got = tables.global_count(k)
        if expected != got:
            return ComparisonResult(
                False, f"global C_{k}: expected {expected}, got {got}")
    if tables.per_vertex is not None:
        for v in range(census.n):
            width = max(len(census.per_vertex[v]), len(tables.vertex_row(v)))
            for k in ks(1, width):
                expected = census.vertex_count(v, k)
                got = tables.vertex_count(v, k)
                if expected != got:
                    return ComparisonResult(
                        False,
                        f"vertex {v}, c_{k}: expected {expected}, got {got}")
    if tables.per_edge is not None:
        table_edges = tables.edges()
        missing = set(census.per_edge) - set(table_edges)
        if missing:
            u, v = sorted(missing)[0]
            return ComparisonResult(
                False, f"edge ({u},{v}) missing from counter tables")
        for u, v in table_edges:
            census_row = census.per_edge.get((u, v), [])
            width = 2 + max(len(tables.edge_row(u, v)), len(census_row))
            for k in ks(2, width):
                expected = census.edge_count(u, v, k)
                got = tables.edge_count(u, v, k)
                if expected != got:
                    return ComparisonResult(
                        False,
                        f"edge ({u},{v}), c_{k}: expected {expected}, got {got}")
    return ComparisonResult(True)
