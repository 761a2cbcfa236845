"""Simple undirected graphs in compressed adjacency form.

The loader accepts whitespace-separated edge lists with arbitrary string
labels, normalizes them (no self-loops, no duplicate edges, dense ids in
first-appearance order), and stores the result as a CSR-style structure:
an offset array plus one flat, per-vertex-sorted neighbor array. Graphs
are immutable after construction and safe to share across workers.

Every source is read in newline-aligned pieces and parsed by numpy with
no Python loop over lines: in each piece, the whitespace that
``str.split()`` separates on gives each label's bounds, a search over the
newline positions gives its line, and each label becomes a key of
space-padded 8-byte words. Runs of pieces are looked up in a sorted table
of the distinct keys seen so far, which gives each label its dense id;
each line's pair of ids then becomes one int64 edge key, and the edge
keys, their reverses and finally the neighbours share one buffer. The
graph keeps only the distinct key rows, and ``id_map`` is built from them
on first read.
"""

from __future__ import annotations

import functools
import io
import os
from typing import Iterable, Iterator, TextIO

import numpy as np

from .errors import EdgeListParseError

# What str.split() separates on is, in ASCII, the bytes 9-13 and 28-32
# (tab, newline, vertical tab, form feed, carriage return, \x1c-\x1f and
# space), tested by two range checks. The rest are the UTF-8 encodings of
# U+0085, U+00A0, U+1680, U+2000-U+200A, U+2028, U+2029, U+202F, U+205F
# and U+3000 (none lies above it); a chunk that is not ASCII has them
# replaced by as many spaces first, so byte offsets and lines stay put.
# The list is built on first use: an ASCII input never needs it.
@functools.cache
def _wide_spaces() -> list[bytes]:
    return [chr(c).encode() for c in range(128, 0x3001) if chr(c).isspace()]


# Inputs are read, checked and keyed in pieces of about this many bytes,
# cut at the end of a line, which bounds the tokenizer's temporaries to a
# few MB.
_CHUNK_BYTES = 1 << 17
# The keys of consecutive pieces are looked up together, in runs of at
# least max(_RUN_LABELS, half the distinct labels seen so far) labels, so
# that inserting a run's new keys into the sorted table, which copies it,
# costs at most a few entries per label.
_RUN_LABELS = 1 << 14
# CSR arrays are built, filtered and summed in slices of about this many
# entries, which bounds the temporaries.
CSR_SLICE = 1 << 16
# A key word of eight spaces; _LOW_BYTES[r] keeps the first r bytes of a
# little-endian word.
_SPACES = np.uint64(0x2020202020202020)
_LOW_BYTES = np.array([(1 << 8 * r) - 1 for r in range(9)], dtype=np.uint64)
# An int64 edge key src << 32 | dst, seen as two int32, has dst first on a
# little-endian machine.
_LOW_HALF = 0 if np.little_endian else 1


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
        """Build a normalized graph from (u, v) pairs of dense integer ids,
        an array of shape (m, 2) or any iterable of pairs.

        Self-loops are dropped and duplicates collapsed. ``n`` defaults to
        max id + 1; pass it explicitly to keep trailing isolated vertices.
        """
        if not isinstance(edges, (list, tuple, np.ndarray)):
            edges = list(edges)
        arr = np.asarray(edges, dtype=np.int64)
        if arr.size and (arr.ndim != 2 or arr.shape[1] != 2):
            raise ValueError("edges must be (u, v) pairs")
        arr = arr.reshape(-1, 2)
        n = 1 + int(arr.max(initial=-1)) if n is None else int(n)
        if len(arr) and (arr.min() < 0 or arr.max() >= n):
            raise ValueError("vertex id out of range")
        return cls(n, *_edge_csr(n, _edge_keys(arr[:, 0], arr[:, 1])))

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


def _edge_keys(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The int64 key min << 32 | max of each pair (u, v), self-loops left
    out, in a new array that owns its data (``_edge_csr`` grows it)."""
    keep = u != v
    key = np.minimum(u, v)[keep].astype(np.int64, copy=False)
    key <<= 32
    key |= np.maximum(u, v)[keep]
    return key


def _edge_csr(n: int, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sorted CSR adjacency of n vertices, built inside the buffer ``keys``.

    ``keys`` holds the key lo << 32 | hi of every edge (lo < hi, in any
    order, repeats allowed) and must own its data. It is sorted and its
    repeats are dropped; it then grows to hold each distinct key's
    reverse hi << 32 | lo as well, and one more sort puts every row's
    keys together, in neighbour order. A search for each row's first key
    gives the offsets, and the keys' low halves, narrowed to int32 in
    place, are the neighbours, to which the buffer then shrinks. Apart
    from the offsets, no temporary exceeds ``CSR_SLICE`` entries.
    """
    keys.sort()
    count, last = 0, -1
    for lo in range(0, len(keys), CSR_SLICE):
        part = keys[lo:lo + CSR_SLICE]
        new = np.diff(part, prepend=last) != 0
        last = part[-1]
        part = part[new]
        keys[count:count + len(part)] = part
        count += len(part)
    keys.resize(2 * count, refcheck=False)
    # The reverse of a key swaps its two int32 halves.
    halves = keys.view(np.int32)
    halves[2 * count::2] = halves[1:2 * count:2]
    halves[2 * count + 1::2] = halves[0:2 * count:2]
    keys.sort()
    offsets = np.searchsorted(keys, np.arange(n + 1, dtype=np.int64) << 32)
    for lo in range(0, 2 * count, CSR_SLICE):
        hi = min(lo + CSR_SLICE, 2 * count)
        halves[lo:hi] = halves[2 * lo + _LOW_HALF:2 * hi:2]
    del halves
    keys.resize(count, refcheck=False)
    return offsets, keys.view(np.int32)


def csr_slices(ends: np.ndarray, size: int | None = None
               ) -> Iterator[tuple[int, int]]:
    """Consecutive ranges [lo, hi) of the items whose running sum of
    sizes is ``ends`` (one more entry than items, such as CSR offsets),
    each of as many items as fit in ``size`` (``CSR_SLICE`` if None), or
    of one item that alone holds more. Items of size 0 join a range."""
    size = CSR_SLICE if size is None else size
    lo, n = 0, len(ends) - 1
    while lo < n:
        hi = max(lo + 1, int(np.searchsorted(
            ends, ends[lo] + size, side="right")) - 1)
        yield lo, hi
        lo = hi


def _file_blocks(fh) -> Iterator[bytes]:
    """A binary file's bytes in blocks, with "\\r\\n" and a lone "\\r"
    turned into "\\n". A block's last "\\r" waits for the next block,
    which may start with its "\\n"."""
    held = False
    while block := fh.read(_CHUNK_BYTES):
        if held:
            block = b"\r" + block
        held = block.endswith(b"\r")
        if held:
            block = block[:-1]
        if b"\r" in block:
            block = block.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
        yield block
    if held:
        yield b"\n"


def _blocks(source) -> Iterator[bytes]:
    """The bytes of an in-memory text, a stream or an iterable of lines,
    in blocks of about ``_CHUNK_BYTES``: slices of the text, reads of the
    stream, or lines, each ended by "\\n", joined."""
    if isinstance(source, (str, bytes)):
        for lo in range(0, len(source), _CHUNK_BYTES):
            yield _bytes(source[lo:lo + _CHUNK_BYTES])
    elif hasattr(source, "read"):
        while block := source.read(_CHUNK_BYTES):
            yield _bytes(block)
    else:
        lines, size = [], 0
        for line in source:
            line = _bytes(line)
            lines.append(line if line.endswith(b"\n") else line + b"\n")
            size += len(lines[-1])
            if size >= _CHUNK_BYTES:
                yield b"".join(lines)
                lines, size = [], 0
        yield b"".join(lines)


def _bytes(text) -> bytes:
    return text.encode() if isinstance(text, str) else text


def _pieces(blocks: Iterable[bytes]) -> Iterator[bytes]:
    """Consecutive blocks, cut after their last newlines: every piece but
    the last ends with "\\n"."""
    head = []
    for block in blocks:
        cut = block.rfind(b"\n") + 1
        if not cut:
            head.append(block)
            continue
        head.append(block[:cut])
        yield b"".join(head)
        head = [block[cut:]]
    tail = b"".join(head)
    if tail:
        yield tail


def _key_runs(pieces: Iterable[bytes], table: "_LabelTable") -> Iterator[np.ndarray]:
    """Key rows of the labels of consecutive pieces, in input order, in
    runs of at least max(``_RUN_LABELS``, len(table) // 2) rows but the
    last. Row 2i of a run holds the first label of its i-th edge line,
    row 2i + 1 its second; a run's keys are widened to its widest."""
    run, size, line = [], 0, 0
    for piece in pieces:
        run.append(_chunk_keys(piece, line))
        line += piece.count(b"\n")
        size += len(run[-1])
        if size >= max(_RUN_LABELS, len(table) // 2):
            yield _stack(run)
            size = 0
    if size:
        yield _stack(run)


def _stack(parts: list[np.ndarray]) -> np.ndarray:
    """The key rows of ``parts`` in one array, which is emptied."""
    width = max(part.shape[1] for part in parts)
    keys = np.concatenate([_widen(part, width) for part in parts])
    parts.clear()
    return keys


def _widen(keys: np.ndarray, width: int) -> np.ndarray:
    """Key rows padded with space words to ``width`` words."""
    if keys.shape[1] == width:
        return keys
    wider = np.full((len(keys), width), _SPACES, dtype=np.uint64)
    wider[:, :keys.shape[1]] = keys
    return wider


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
        for space in _wide_spaces():
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


class _LabelTable:
    """The distinct label keys seen so far, sorted, with their dense ids.

    ``add`` gives a run of keys their ids: one sort of the run groups its
    equal keys, and a search of the table for each group's key finds the
    labels seen before. The others take the next ids in order of first
    appearance, the least input position in their group, and are
    inserted into the table, so every id is final when its run is added.
    Keys are ordered by their words, first word first: a run of one-word
    keys is sorted by argsort, a wider one by lexsort over its words. The
    table holds each key as one value that compares in that order
    (``_sortable``); a wider run widens it with space words, which keeps
    its order.
    """

    def __init__(self):
        self.width = 1
        self.keys = np.empty(0, dtype=np.uint64)
        self.ids = np.empty(0, dtype=np.int32)

    def __len__(self) -> int:
        return len(self.ids)

    def add(self, keys: np.ndarray) -> np.ndarray:
        """The int32 dense ids of a run of key rows."""
        if keys.shape[1] > self.width:
            # Space words lengthen every key alike: the order stands.
            rows = _widen(_key_rows(self.keys, self.width), keys.shape[1])
            self.width = keys.shape[1]
            self.keys = _sortable(rows)
        keys = _widen(keys, self.width)
        order = (np.argsort(keys[:, 0]) if self.width == 1
                 else np.lexsort(keys.T[::-1]))
        run = np.take(keys, order, axis=0)
        starts = np.ones(len(run), dtype=bool)
        starts[1:] = False
        for k in range(self.width):
            starts[1:] |= run[1:, k] != run[:-1, k]
        starts = np.flatnonzero(starts)
        distinct = _sortable(run[starts])
        del run
        at = np.searchsorted(self.keys, distinct)
        seen = at < len(self.keys)
        seen[seen] = self.keys[at[seen]] == distinct[seen]
        new = ~seen
        group_ids = np.empty(len(distinct), dtype=np.int32)
        group_ids[seen] = self.ids[at[seen]]
        # The numbering's temporaries are gone before the table grows.
        fresh = _first_appearances(order, starts, new, len(self))
        group_ids[new] = fresh
        self.keys = np.insert(self.keys, at[new], distinct[new])
        self.ids = np.insert(self.ids, at[new], fresh)
        ids = np.empty(len(keys), dtype=np.int32)
        ids[order] = np.repeat(group_ids, np.diff(starts, append=len(keys)))
        return ids

    def rows(self) -> np.ndarray:
        """The distinct key rows, in id order."""
        rows = np.empty((len(self), self.width), dtype=np.uint64)
        rows[self.ids] = _key_rows(self.keys, self.width)
        return rows


def _first_appearances(order: np.ndarray, starts: np.ndarray,
                       new: np.ndarray, first_id: int) -> np.ndarray:
    """Ids from ``first_id`` on for the groups of a sorted run that ``new``
    picks, in the order of their first appearances in the run.

    ``order`` sorts the run and ``starts`` holds its groups' starts. A
    group's first appearance is the least position in it. One reduction
    runs over the picked groups and the gaps between them; a last gap that
    would start past the end is left out.
    """
    lo, hi = starts[new], np.append(starts[1:], len(order))[new]
    cuts = np.stack((lo, hi), axis=1).ravel()
    if len(cuts) and cuts[-1] == len(order):
        cuts = cuts[:-1]
    first = np.minimum.reduceat(order, cuts)[::2] if len(cuts) else lo
    ids = np.empty(len(first), dtype=np.int32)
    ids[np.argsort(first)] = np.arange(first_id, first_id + len(first))
    return ids


def _sortable(keys: np.ndarray) -> np.ndarray:
    """Key rows as one comparable value each, in the order of their words,
    first word first: the word of a one-word key, the big-endian bytes of
    a wider one."""
    if keys.shape[1] == 1:
        return keys[:, 0]
    keys = np.ascontiguousarray(keys, dtype=">u8")
    return keys.view(np.dtype((np.void, 8 * keys.shape[1])))[:, 0]


def _key_rows(flat: np.ndarray, width: int) -> np.ndarray:
    """The key rows of ``_sortable`` values of ``width`` words."""
    if width == 1:
        return flat.reshape(len(flat), 1)
    return flat.view(">u8").reshape(len(flat), width)


def _labels(keys: np.ndarray) -> list[str]:
    """The labels of distinct key rows: their bytes less the space padding."""
    cells = keys.astype("<u8", copy=False).view(np.uint8)
    cells = np.pad(cells, ((0, 0), (0, 1)), constant_values=ord(" "))
    return cells.tobytes().decode().split()


def load_edge_list(source) -> Graph:
    """Load and normalize a whitespace edge list.

    ``source`` may be a file path, as a str or any ``os.PathLike`` such as
    a ``pathlib.Path`` (``.gz`` read through gzip), inline text
    containing newlines, a byte string, an open text or binary stream
    (such as ``sys.stdin.buffer``), or any iterable of lines, each with or
    without its "\\n". The input is read in newline-aligned pieces of
    about ``_CHUNK_BYTES``, never whole, and must be UTF-8. Files break
    lines at "\\n", "\\r\\n" and a lone "\\r"; every other source at
    "\\n" alone, so that a "\\r" there separates labels. Labels are
    separated by the whitespace that ``str.split()`` splits on, non-ASCII
    spaces such as U+00A0 included. Lines whose first label starts with
    '#' or '%' are comments; every other non-blank line must hold exactly
    two labels, or ``EdgeListParseError`` names the first line that does
    not (or is not UTF-8). Labels are mapped to dense ids in
    first-appearance order; self-loops are dropped and parallel or
    reversed duplicates collapsed.

    Runs of pieces are keyed and looked up in a table of the distinct
    labels (``_LabelTable``); each line then leaves one int64 edge key in
    a buffer that grows with the input, and ``_edge_csr`` turns that
    buffer into the graph's neighbours.
    """
    # A path-like object is a path, and so is a string without a newline
    # (and not empty); canonical writer output ends every line with one,
    # so round-trips stay inline.
    if isinstance(source, os.PathLike) or (
            isinstance(source, str) and "\n" not in source and source != ""):
        path = os.fsdecode(source)
        if path.endswith(".gz"):
            import gzip
            opener = gzip.open
        else:
            opener = open
        with opener(path, "rb") as fh:
            return _load(_file_blocks(fh))
    return _load(_blocks(source))


def _load(blocks: Iterable[bytes]) -> Graph:
    table = _LabelTable()
    edges = np.empty(0, dtype=np.int64)
    count = 0
    for keys in _key_runs(_pieces(blocks), table):
        ids = table.add(keys)
        del keys
        key = _edge_keys(ids[0::2], ids[1::2])
        del ids
        if count + len(key) > len(edges):
            edges.resize(max(2 * len(edges), count + len(key)), refcheck=False)
        edges[count:count + len(key)] = key
        count += len(key)
    edges.resize(count, refcheck=False)
    graph = Graph(len(table), *_edge_csr(len(table), edges))
    graph._keys = table.rows()
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
