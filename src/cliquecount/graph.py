"""Simple undirected graphs in compressed adjacency form.

The loader accepts whitespace-separated edge lists with arbitrary string
labels, normalizes them (no self-loops, no duplicate edges, dense ids in
first-appearance order), and stores the result as a CSR-style structure:
an offset array plus one flat, per-vertex-sorted neighbor array. Graphs
are immutable after construction and safe to share across workers.

Every source is read into memory once as bytes and parsed by numpy with
no Python loop over lines: in newline-aligned chunks, the whitespace that
``str.split()`` separates on gives each label's bounds, a search over the
newline positions gives its line, and each label becomes a key of
space-padded 8-byte words. One sort of the keys gives the dense ids. The
graph keeps only the distinct key rows, and ``id_map`` is built from them
on first read.
"""

from __future__ import annotations

import io
from typing import Iterable, Iterator, TextIO

import numpy as np

from .errors import EdgeListParseError

# What str.split() separates on is, in ASCII, the bytes 9-13 and 28-32
# (tab, newline, vertical tab, form feed, carriage return, \x1c-\x1f and
# space), tested by two range checks. The rest are the UTF-8 encodings of
# U+0085, U+00A0, U+1680, U+2000-U+200A, U+2028, U+2029, U+202F, U+205F
# and U+3000 (none lies above it); a chunk that is not ASCII has them
# replaced by as many spaces first, so byte offsets and lines stay put.
_WIDE_SPACES = [chr(c).encode() for c in range(128, 0x3001) if chr(c).isspace()]

# Inputs are checked and keyed this many bytes at a time, rounded up to
# the end of a line, which bounds the tokenizer's temporaries to a few MB.
_CHUNK_BYTES = 1 << 17
# A key word of eight spaces; _LOW_BYTES[r] keeps the first r bytes of a
# little-endian word.
_SPACES = np.uint64(0x2020202020202020)
_LOW_BYTES = np.array([(1 << 8 * r) - 1 for r in range(9)], dtype=np.uint64)


class Graph:
    """Normalized simple undirected graph.

    Attributes:
        n: number of vertices (dense ids 0..n-1, isolated vertices kept).
        m: number of undirected edges.
        id_map: original label -> dense id, in first-appearance order;
            ``str(v) -> v`` for a graph built without labels. Built on
            first read, from the distinct labels' key rows of
            ``load_edge_list``, unless given.
    """

    __slots__ = ("n", "m", "_id_map", "_keys", "_offsets", "_neighbors")

    def __init__(self, n, offsets, neighbors, id_map=None):
        self.n = int(n)
        self.m = int(len(neighbors) // 2)
        self._id_map = id_map
        self._keys = None
        self._offsets = offsets
        self._neighbors = neighbors

    @property
    def id_map(self) -> dict[str, int]:
        if self._id_map is None:
            labels = (map(str, range(self.n)) if self._keys is None
                      else _labels(self._keys))
            self._id_map = dict(zip(labels, range(self.n)))
            self._keys = None
        return self._id_map

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
        return cls(n, *_build_csr(n, u, v))

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

    Each edge becomes the int64 key min * n + max; one sort plus a
    neighbour-inequality mask drops duplicates. The distinct keys and
    their reverses (max * n + min) fill one array, whose in-place sort
    orders the rows; a search for each row's first key src * n gives the
    offsets, and the keys' remainders the neighbours. At most three int64
    entries per edge are alive at a time.
    """
    keep = u != v
    if n == 0 or not keep.any():
        return np.zeros(n + 1, dtype=np.int64), np.empty(0, dtype=np.int32)
    n = np.int64(n)
    u, v = u[keep], v[keep]
    key = np.minimum(u, v, dtype=np.int64)
    key *= n
    key += np.maximum(u, v)
    del u, v, keep
    key.sort()
    key = key[np.diff(key, prepend=-1) != 0]
    half = len(key)
    both = np.concatenate((key, key))
    del key
    reverse, low = both[half:], np.empty(half, dtype=np.int32)
    np.divmod(reverse, n, out=(low, reverse))
    reverse *= n
    reverse += low
    del low
    both.sort()
    offsets = np.searchsorted(both, np.arange(n + 1) * n)
    np.remainder(both, n, out=both)
    return offsets, both.astype(np.int32)


def _read(source) -> bytes:
    """The whole input as bytes, with every line ended by "\\n" alone."""
    if isinstance(source, str) and "\n" not in source and source != "":
        # A string without a newline (and not empty) is a path; canonical
        # writer output ends every line with one, so round-trips stay
        # inline. Files also break lines at "\r\n" and a lone "\r", as
        # reading them in text mode does.
        if source.endswith(".gz"):
            import gzip
            opener = gzip.open
        else:
            opener = open
        with opener(source, "rb") as fh:
            data = fh.read()
        if b"\r" in data:
            data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
        return data
    if isinstance(source, (str, bytes)):
        data = source
    elif hasattr(source, "read"):
        data = source.read()
    else:
        data = b"".join(map(_line_bytes, source))
    return data.encode() if isinstance(data, str) else data


def _line_bytes(line) -> bytes:
    line = line.encode() if isinstance(line, str) else line
    return line if line.endswith(b"\n") else line + b"\n"


def _label_keys(data: bytes) -> np.ndarray:
    """Key rows of the labels of every edge line, in input order.

    Row 2i holds the first label of the i-th edge line, row 2i + 1 its
    second. The chunks' keys are widened to the widest with spaces.
    """
    parts = []
    line = pos = 0
    while pos < len(data):
        end = data.find(b"\n", pos + _CHUNK_BYTES) + 1 or len(data)
        chunk = data[pos:end]
        parts.append(_chunk_keys(chunk, line))
        line += chunk.count(b"\n")
        pos = end
    width = max((part.shape[1] for part in parts), default=1)
    keys = np.full((sum(map(len, parts)), width), _SPACES)
    row = 0
    for part in parts:
        keys[row:row + len(part), :part.shape[1]] = part
        row += len(part)
    return keys


def _chunk_keys(chunk: bytes, first_line: int) -> np.ndarray:
    """Check the lines of one newline-aligned chunk and key its labels.

    ``first_line`` is the number of lines before the chunk. A label's key
    is its bytes in little-endian 8-byte words, padded with spaces, which
    no label contains, so equal keys mean equal labels.
    """
    text = chunk
    bad_utf8 = None
    if not chunk.isascii():
        try:
            chunk.decode()
        except UnicodeDecodeError as exc:
            # A newline is never part of a multi-byte sequence, so the
            # lines before the bad one are whole; they are checked first.
            start = chunk.rfind(b"\n", 0, exc.start) + 1
            bad_utf8 = EdgeListParseError(
                first_line + chunk.count(b"\n", 0, start) + 1,
                f"not valid UTF-8 (byte {chunk[exc.start]:#04x} "
                f"at column {exc.start - start + 1})")
            chunk = text = chunk[:start]
        for space in _WIDE_SPACES:
            if space in chunk:
                chunk = chunk.replace(space, b" " * len(space))
    # One space before the chunk, so that every label starts where the
    # bytes change from whitespace to not, and eight after, which the last
    # label's key word reads. ASCII whitespace is 9-13 and 28-32; below
    # either bound the uint8 subtraction wraps to a large value.
    buf = np.frombuffer(b" " + chunk + b" " * 8, dtype=np.uint8)
    label = ((buf - 9) > 4) & ((buf - 28) > 4)
    bounds = np.flatnonzero(label[1:] != label[:-1])
    starts, ends = bounds[0::2], bounds[1::2]
    newlines = np.flatnonzero(buf == ord("\n")) - 1
    # Line i holds the labels at starts[edge[i]:edge[i + 1]].
    edge = np.concatenate(([0], np.searchsorted(starts, newlines), [len(starts)]))
    counts = np.diff(edge)
    comment = counts > 0
    head = buf[starts[edge[:-1][comment]] + 1]
    comment[comment] = (head == ord("#")) | (head == ord("%"))
    bad = np.flatnonzero((counts != 0) & (counts != 2) & ~comment)
    if len(bad):
        i = int(bad[0])
        lo = int(newlines[i - 1]) + 1 if i else 0
        hi = int(newlines[i]) if i < len(newlines) else len(text)
        raise EdgeListParseError(
            first_line + i + 1, f"expected 2 tokens, found {counts[i]}: "
                                f"{text[lo:hi].decode().strip()!r}")
    if bad_utf8 is not None:
        raise bad_utf8
    if comment.any():
        keep = ~np.repeat(comment, counts)
        starts, ends = starts[keep], ends[keep]
    length = ends - starts
    width = (int(length.max(initial=1)) + 7) // 8
    words = np.ndarray((len(buf) - 7,), dtype="<u8", buffer=buf, strides=(1,))
    keys = np.empty((len(starts), width), dtype=np.uint64)
    for k in range(width):
        # A label shorter than 8k + 1 bytes reads its own last word here,
        # all of which the mask turns into spaces.
        low = _LOW_BYTES[np.clip(length - 8 * k, 0, 8)]
        word = words[starts + 1 + np.minimum(8 * k, length - 1)]
        keys[:, k] = (word & low) | (_SPACES & ~low)
    return keys


def _dense_ids(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each key row's dense id, in order of first appearance, and the
    distinct rows in that order.

    One sort groups equal rows; a group's first appearance is the least
    input position in it, so the sort need not be stable.
    """
    order = np.argsort(keys[:, 0]) if keys.shape[1] == 1 else np.lexsort(keys.T)
    ordered = keys[order]
    new = np.ones(len(order), dtype=bool)
    new[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    del ordered
    first = np.minimum.reduceat(order, np.flatnonzero(new))
    by_appearance = np.argsort(first)
    rank = np.empty(len(first), dtype=np.int32)
    rank[by_appearance] = np.arange(len(first))
    ids = np.empty(len(order), dtype=np.int32)
    group = np.cumsum(new, dtype=np.int32)
    group -= 1
    ids[order] = rank[group]
    return ids, keys[first[by_appearance]]


def _labels(keys: np.ndarray) -> list[str]:
    """The labels of distinct key rows: their bytes less the space padding."""
    cells = keys.astype("<u8", copy=False).view(np.uint8)
    cells = np.pad(cells, ((0, 0), (0, 1)), constant_values=ord(" "))
    return cells.tobytes().decode().split()


def load_edge_list(source) -> Graph:
    """Load and normalize a whitespace edge list.

    ``source`` may be a file path (``.gz`` read through gzip), inline text
    containing newlines, a byte string, an open text or binary stream
    (such as ``sys.stdin.buffer``), or any iterable of lines, each with or
    without its "\\n". The input is read into memory once, as bytes, and
    must be UTF-8. Files break lines at "\\n", "\\r\\n" and a lone
    "\\r"; every other source at "\\n" alone, so that a "\\r" there
    separates labels. Labels are separated by the whitespace that
    ``str.split()`` splits on, non-ASCII spaces such as U+00A0 included.
    Lines whose first label starts with '#' or '%' are comments; every
    other non-blank line must hold exactly two labels, or
    ``EdgeListParseError`` names the first line that does not (or is not
    UTF-8). Labels are mapped to dense ids in first-appearance order;
    self-loops are dropped and parallel or reversed duplicates collapsed.
    """
    keys = _label_keys(_read(source))
    ids, distinct = _dense_ids(keys)
    del keys
    n = len(distinct)
    offsets, neighbors = _build_csr(n, ids[0::2], ids[1::2])
    del ids
    graph = Graph(n, offsets, neighbors)
    graph._keys = distinct
    return graph


def write_edge_list(graph: Graph, sink: TextIO) -> None:
    """Write the canonical edge list: "u v" with u < v, ascending (u, v)."""
    write = sink.write
    for u, v in graph.edges():
        write(f"{u} {v}\n")


def edge_list_text(graph: Graph) -> str:
    buf = io.StringIO()
    write_edge_list(graph, buf)
    return buf.getvalue()
