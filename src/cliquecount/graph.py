"""Simple undirected graphs in compressed adjacency form.

The loader accepts whitespace-separated edge lists with arbitrary string
labels, normalizes them (no self-loops, no duplicate edges, dense ids in
first-appearance order), and stores the result as a CSR-style structure:
an offset array plus one flat, per-vertex-sorted neighbor array. Graphs
are immutable after construction and safe to share across workers.
"""

from __future__ import annotations

import io
from typing import Iterable, Iterator, TextIO

import numpy as np

from .errors import EdgeListParseError

EDGE_LIST_FORMAT = "whitespace-edge-list"

_COMMENT_PREFIXES = ("#", "%")


class Graph:
    """Normalized simple undirected graph.

    Attributes:
        n: number of vertices (dense ids 0..n-1, isolated vertices kept).
        m: number of undirected edges.
        id_map: original label -> dense id, in first-appearance order.
    """

    __slots__ = ("n", "m", "id_map", "_offsets", "_neighbors")

    def __init__(self, n, offsets, neighbors, id_map=None):
        self.n = int(n)
        self.m = int(len(neighbors) // 2)
        self.id_map = id_map if id_map is not None else {str(v): v for v in range(n)}
        self._offsets = offsets
        self._neighbors = neighbors

    @classmethod
    def from_edges(cls, edges: Iterable[tuple[int, int]], n: int | None = None) -> "Graph":
        """Build a normalized graph from (u, v) pairs of dense integer ids.

        Self-loops are dropped and duplicates collapsed. ``n`` defaults to
        max id + 1; pass it explicitly to keep trailing isolated vertices.
        """
        pairs = [(int(u), int(v)) for u, v in edges]
        if n is None:
            n = 1 + max((max(u, v) for u, v in pairs), default=-1)
        n = int(n)
        if pairs:
            arr = np.asarray(pairs, dtype=np.int64)
            if arr.min() < 0 or arr.max() >= n:
                raise ValueError("vertex id out of range")
            u, v = arr[:, 0], arr[:, 1]
        else:
            u = v = np.empty(0, dtype=np.int64)
        offsets, neighbors = _build_csr(n, u, v)
        return cls(n, offsets, neighbors, id_map={str(i): i for i in range(n)})

    def degree(self, v: int) -> int:
        self._check_vertex(v)
        return int(self._offsets[v + 1] - self._offsets[v])

    def neighbors(self, v: int) -> np.ndarray:
        """Sorted neighbor ids of ``v`` (read-only view)."""
        self._check_vertex(v)
        return self._neighbors[self._offsets[v]:self._offsets[v + 1]]

    def are_adjacent(self, u: int, v: int) -> bool:
        """Edge test by binary search on the shorter adjacency list."""
        self._check_vertex(u)
        self._check_vertex(v)
        if u == v:
            return False
        if self.degree(u) > self.degree(v):
            u, v = v, u
        row = self.neighbors(u)
        i = int(np.searchsorted(row, v))
        return i < len(row) and int(row[i]) == v

    def edges(self) -> Iterator[tuple[int, int]]:
        """Canonical edge order: pairs (u, v) with u < v, ascending (u, v)."""
        offsets, nbr = self._offsets, self._neighbors
        for u in range(self.n):
            for v in nbr[offsets[u]:offsets[u + 1]]:
                v = int(v)
                if v > u:
                    yield (u, v)

    def degrees(self) -> np.ndarray:
        return np.diff(self._offsets)

    def _check_vertex(self, v) -> None:
        if not 0 <= v < self.n:
            raise ValueError(f"vertex {v} out of range [0, {self.n})")

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return (self.n == other.n and self.m == other.m
                and np.array_equal(self._offsets, other._offsets)
                and np.array_equal(self._neighbors, other._neighbors))

    def __hash__(self):
        return hash((self.n, self.m))

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.m})"


def _build_csr(n, u, v):
    """Normalize raw endpoint arrays into sorted CSR adjacency.

    Each edge becomes the key min * n + max; one sort plus a
    neighbour-inequality mask drops duplicates, and one more sort of the
    keys of both directions (src * n + dst) orders the rows.
    """
    keep = u != v
    u, v = u[keep], v[keep]
    if n == 0 or len(u) == 0:
        return np.zeros(n + 1, dtype=np.int64), np.empty(0, dtype=np.int32)
    n = np.int64(n)
    key = np.minimum(u, v) * n + np.maximum(u, v)
    key.sort()
    key = key[np.concatenate(([True], key[1:] != key[:-1]))]
    both = np.concatenate([key, (key % n) * n + key // n])
    both.sort()
    src = both // n
    neighbors = (both - src * n).astype(np.int32)
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=offsets[1:])
    return offsets, neighbors


def _decode(line: bytes, line_number: int) -> str:
    try:
        return line.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise EdgeListParseError(
            line_number, f"not valid UTF-8 (byte {line[exc.start]:#04x} "
                         f"at column {exc.start + 1})") from None


def _iter_lines(source) -> Iterator[str]:
    if isinstance(source, str):
        # Strings with a newline (and the empty string) are inline content;
        # anything else is a file path. Canonical writer output always ends
        # lines with a newline, so round-trips stay in the inline branch.
        if "\n" in source or source == "":
            yield from io.StringIO(source)
            return
        if source.endswith(".gz"):
            import gzip
            opener = gzip.open
        else:
            opener = open
        try:
            with opener(source, "rt", encoding="utf-8") as fh:
                yield from fh
        except UnicodeDecodeError:
            # Text mode decodes in chunks and cannot tell the line; a
            # second, binary pass finds it (lines split on b"\n", which no
            # multi-byte UTF-8 sequence contains).
            with opener(source, "rb") as fh:
                for line_number, line in enumerate(fh, start=1):
                    _decode(line, line_number)
            raise
        return
    if isinstance(source, bytes):
        source = io.BytesIO(source)
    for line_number, line in enumerate(source, start=1):
        if isinstance(line, bytes):
            line = _decode(line, line_number)
        yield line


def load_edge_list(source, fmt: str = EDGE_LIST_FORMAT) -> Graph:
    """Load and normalize a whitespace edge list.

    ``source`` may be a file path, inline text containing newlines, a byte
    string, an open text/binary stream, or any iterable of lines. Lines
    starting with '#' or '%' are comments; every other non-blank line must
    hold exactly two whitespace-separated labels. Labels are mapped to
    dense ids in first-appearance order; self-loops are dropped and
    parallel or reversed duplicates collapsed.
    """
    if fmt != EDGE_LIST_FORMAT:
        raise ValueError(f"unsupported edge-list format: {fmt!r}")
    id_map: dict[str, int] = {}
    us: list[int] = []
    vs: list[int] = []
    next_id = 0
    for line_number, raw in enumerate(_iter_lines(source), start=1):
        line = raw.strip()
        if not line or line[0] in _COMMENT_PREFIXES:
            continue
        tokens = line.split()
        if len(tokens) != 2:
            raise EdgeListParseError(
                line_number, f"expected 2 tokens, found {len(tokens)}: {line!r}")
        a, b = tokens
        ia = id_map.get(a)
        if ia is None:
            ia = id_map[a] = next_id
            next_id += 1
        ib = id_map.get(b)
        if ib is None:
            ib = id_map[b] = next_id
            next_id += 1
        us.append(ia)
        vs.append(ib)
    n = next_id
    offsets, neighbors = _build_csr(
        n, np.asarray(us, dtype=np.int64), np.asarray(vs, dtype=np.int64))
    return Graph(n, offsets, neighbors, id_map=id_map)


def write_edge_list(graph: Graph, sink: TextIO) -> None:
    """Write the canonical edge list: "u v" with u < v, ascending (u, v)."""
    write = sink.write
    for u, v in graph.edges():
        write(f"{u} {v}\n")


def edge_list_text(graph: Graph) -> str:
    buf = io.StringIO()
    write_edge_list(graph, buf)
    return buf.getvalue()
