"""Pivoted clique-tree construction and traversal.

The tree explored here compresses every clique of the graph into a unique
(hold set, pivot set) pair: each root-to-leaf path T carries the vertices
of its hold-labeled links H(T) and pivot-labeled links P(T), and the
cliques represented by T are exactly H(T) union Q over all subsets Q of
P(T), each produced by exactly one (path, subset) pair.

Such a path stands for C(|P(T)|, k - |H(T)|) k-cliques, so the global
counts and the tree's shape depend only on the histogram of leaves by
(|H|, |P|), which ``TraversalStats`` keeps.

The root's children are the hold links v, one per vertex, each with the
subproblem N+(v) given as one bitmask row per out-neighbor. Two walkers
build the same tree. ``walk_levels``, the engine of every count, walks
many roots' subtrees at once, level by level in numpy: it tallies the
leaves and, given a sink, hands them over in batches, each leaf as its
root and its hold and pivot links as bits over the root's out-neighbors.
``walk_root`` is the reference walker: it walks one root's subtree in
pre-order, storing only the current path, and calls back at every node
(``traverse``'s per-leaf sink, ``materialize_sct`` and the tests).
``walk_roots`` is their one front end: it sets roots up in chunks, every
root's rows built in numpy by ``_chunk_rows`` whatever its width, hands
them to one walker or the other, and settles the edge-free roots of a
global-only count in closed form. ``traverse`` runs it over all roots in
id order, and ``counting.count_roots_global`` over any set of roots.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator, NamedTuple

import numpy as np

from .degeneracy import DegeneracyOrientation, degeneracy_orient
from .errors import SizeLimitError
from .graph import Graph

DEFAULT_NODE_CAP = 10 ** 6

# Roots are set up in chunks of about max(ROOT_CHUNK_WORK, m //
# ROOT_CHUNK_SHARE) oriented edges plus wedges, m the number of oriented
# edges. A chunk's scratch arrays (about 70 bytes per unit) thus stay a
# fixed share of the out-CSR on large graphs and well below the graph's
# own storage on small ones, while large graphs need few numpy calls.
ROOT_CHUNK_WORK = 1 << 11
ROOT_CHUNK_SHARE = 16
# Bits per word of a bitmask row; a root with d out-neighbors has rows of
# ceil(d / WORD_BITS) words.
WORD_BITS = 64
# A global-only walk takes the busy roots of consecutive chunks until their
# rows come to this many words, and walks them at once (``walk_levels``).
LEVEL_ROW_WORDS = 1 << 16
# ``walk_levels`` walks a level in batches of nodes whose members' rows come
# to at most min(LEVEL_WORDS, m // LEVEL_SHARE) words, m the number of
# oriented edges, counting a node's unpacked mask as 8 words per word. A
# batch's scratch takes about 20 bytes per word, so it stays a fixed share
# of the out-CSR on small graphs. Once the next level holds LEVEL_NODES
# nodes, it is walked before the rest of this one.
LEVEL_WORDS = 1 << 14
LEVEL_SHARE = 2
LEVEL_NODES = 1 << 14


class PathLabels(NamedTuple):
    """Hold and pivot vertices of one root-to-leaf path."""
    hold: tuple
    pivots: tuple


@dataclass
class TraversalStats:
    """Shape of the (implicit) clique tree.

    ``node_count`` counts every node created below the root, including
    empty-labeled leaves; the root itself is not counted. ``leaves`` maps
    (|H|, |P|) to the number of leaves whose path has that many hold and
    pivot links; pairs without a leaf are absent. ``max_depth`` is the
    longest path length in links.
    """
    node_count: int = 0
    leaves: dict[tuple[int, int], int] = field(default_factory=dict)

    @property
    def leaf_count(self) -> int:
        return sum(self.leaves.values())

    @property
    def max_depth(self) -> int:
        return max((h + p for h, p in self.leaves), default=0)


def traverse(graph: Graph,
             orientation: DegeneracyOrientation | None = None,
             sink: Callable[[list, list], None] | None = None,
             max_hold: int | None = None, *, batches=None) -> TraversalStats:
    """Walk the clique tree below every root, roots in id order.

    Every vertex v is a hold link at the root, with the subproblem induced
    on the out-neighborhood of v; ``walk_roots`` walks each one's
    subtree. Children are created even when their label is empty; every
    empty subproblem is a leaf, tallied in the returned stats. With
    ``max_hold`` set, branches whose hold count would exceed it are
    pruned, which preserves all leaves with at most ``max_hold`` hold
    vertices.

    ``batches`` (``counting.LeafBatches``), if given, receives every leaf
    of the level walk, in batches of arrays (``walk_roots``). A
    ``sink(hold, pivots)``, if given instead, fires at every leaf of the
    reference walker, ``walk_root``, in pre-order: at each node the pivot
    child's subtree, then the hold children's by ascending id. It gets
    the live path lists, only valid during the call.
    """
    if orientation is None:
        orientation = degeneracy_orient(graph)

    def on_node(mask, members, hold, pivots):
        if not mask:
            sink(hold, pivots)
    return walk_roots(orientation, np.arange(graph.n), max_hold,
                      None if sink is None else on_node, batches)


def walk_roots(orientation: DegeneracyOrientation, roots,
               max_hold: int | None = None, on_node=None,
               batches=None) -> TraversalStats:
    """Walk the subtrees of the given roots' hold links; return their shape.

    Roots are set up in chunks (``root_chunks``, ``_chunk_rows``). With
    ``on_node``, ``walk_root`` walks every root, in the given order, and
    calls it as there. Otherwise ``walk_levels`` walks them: their rows
    are kept over consecutive chunks, grouped by the number of words per
    row, until they come to ``LEVEL_ROW_WORDS`` words, and each group is
    then walked at once. With ``batches``, every root is walked, and
    each batch of leaves goes to ``batches.add(roots, hold, pivots)``
    (``counting.LeafBatches``). Without, only the roots whose subproblem
    has an edge are walked. The others have the fixed two-level tree of
    an edge-free subproblem and are settled in closed form, all at once.
    The shape is the same either way.
    """
    stats = TraversalStats()
    if max_hold is not None and max_hold < 1:
        return stats
    offsets = orientation.out_offsets
    targets = orientation.out_targets
    out_deg = np.diff(offsets)
    roots = np.asarray(roots, dtype=np.int64)
    # Out-degrees of the roots left to the closed form, and the rows,
    # out-degrees and ids of the roots that wait for the level walk, by
    # the number of words of their rows (one word for a root without
    # out-neighbors).
    settled = [out_deg[:0]]
    waiting: dict[int, list[tuple[np.ndarray, ...]]] = {}
    waiting_words = 0
    budget = min(LEVEL_WORDS, len(targets) // LEVEL_SHARE)
    for lo, hi in root_chunks(offsets, targets, out_deg, roots):
        chunk = roots[lo:hi]
        rows, first, busy = _chunk_rows(offsets, targets, out_deg, chunk)
        if on_node is not None:
            for i, v in enumerate(chunk.tolist()):
                members = targets[offsets[v]:offsets[v + 1]].tolist()
                walk_root(stats, v, members,
                          _int_rows(rows[first[i]:first[i + 1]], len(members)),
                          max_hold, on_node)
            continue
        if batches is not None:
            busy[:] = True
        sizes = out_deg[chunk]
        settled.append(sizes[~busy])
        words = np.maximum(-(-sizes // WORD_BITS), 1)
        for width in np.unique(words[busy]).tolist():
            pick = busy & (words == width)
            waiting.setdefault(width, []).append(
                (rows[np.repeat(pick, sizes * words)], sizes[pick],
                 chunk[pick]))
        waiting_words += int((sizes * words)[busy].sum())
        if waiting_words >= LEVEL_ROW_WORDS:
            _walk_waiting(stats, waiting, max_hold, batches, budget)
            waiting_words = 0
    _walk_waiting(stats, waiting, max_hold, batches, budget)
    settled = np.concatenate(settled)

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
            stats.leaves[key] = stats.leaves.get(key, 0) + leaf_count
    stats.node_count += bare + 2 * edge_free + holds
    return stats


def _walk_waiting(stats, waiting, max_hold, batches, budget) -> None:
    """Level-walk the waiting roots of each row width, forgetting each
    width's parts once they are joined."""
    for width in list(waiting):
        rows, sizes, roots = map(np.concatenate, zip(*waiting.pop(width)))
        sink = None if batches is None else (
            lambda at, hold, pivots: batches.add(roots[at], hold, pivots))
        walk_levels(stats, rows.reshape(-1, width), sizes, max_hold, sink,
                    budget)


def walk_root(stats: TraversalStats, root: int, members: list[int],
              rows: list[int], max_hold: int | None = None,
              on_node=None) -> None:
    """Walk the subtree of root's hold link, adding its shape to ``stats``.

    The reference walker, for ``traverse``'s per-leaf sink,
    ``materialize_sct`` and the tests; counts run ``walk_levels``.
    ``members`` are root's out-neighbors in ascending id order, and
    ``rows[i]`` has bit j set where ``members[i]`` and ``members[j]`` are
    adjacent. The walk is pre-order and keeps the path as two live lists of
    vertex ids, ``hold`` (root first) and ``pivots``. Every node adds to
    ``stats.node_count`` and every leaf, a node whose subproblem ``mask``
    is empty, to ``stats.leaves``. ``on_node(mask, members, hold,
    pivots)``, if given, fires at every node: its label is the set bits
    of ``mask`` mapped through ``members``, and the live path lists end
    with its link.

    At a node with subproblem ``mask`` the pivot is the vertex of maximum
    degree within it, lowest id on ties. The scan stops at the first vertex
    adjacent to every other one: no later vertex can have a higher degree,
    and ties keep the earlier vertex. The pivot child, the pivot's
    neighbors within ``mask``, is walked in place, next. The hold child of
    each non-neighbor x of the pivot, in ascending order, has the
    subproblem N(x) & ``mask`` less the earlier non-neighbors; these wait
    on a stack, pushed in descending order so that they pop in ascending
    order. Hold children are not created once the path holds ``max_hold``
    hold vertices.
    """
    hold: list[int] = []
    pivots: list[int] = []
    nodes = 0
    tally = stats.leaves
    count = tally.get
    # One entry per hold child still to visit: its subproblem, the path
    # lengths at its parent and its vertex.
    stack = [((1 << len(rows)) - 1, 0, 0, root)]
    push = stack.append
    pop = stack.pop
    while stack:
        mask, h, p, v = pop()
        del hold[h:]
        del pivots[p:]
        hold.append(v)
        may_hold = max_hold is None or h + 1 < max_hold
        while True:
            nodes += 1
            if on_node is not None:
                on_node(mask, members, hold, pivots)
            if not mask:
                key = len(hold), len(pivots)
                tally[key] = count(key, 0) + 1
                break
            full = mask.bit_count() - 1
            m = mask
            best_deg = -1
            while m:
                low = m & -m
                i = low.bit_length() - 1
                row = rows[i] & mask
                d = row.bit_count()
                if d > best_deg:
                    best, best_deg, best_row = i, d, row
                    if d == full:
                        break
                m ^= low
            if may_hold and best_deg < full:
                h = len(hold)
                p = len(pivots)
                m = mask & ~(best_row | 1 << best)
                while m:
                    i = m.bit_length() - 1
                    m ^= 1 << i
                    push((rows[i] & mask & ~m, h, p, members[i]))
            pivots.append(members[best])
            mask = best_row
    stats.node_count += nodes


def walk_levels(stats: TraversalStats, rows: np.ndarray, sizes: np.ndarray,
                max_hold: int | None = None, sink=None,
                budget: int = LEVEL_WORDS) -> None:
    """Walk the subtrees of many roots' hold links at once, level by level.

    ``sizes`` are the roots' out-degrees, all with rows of the same number
    W of words, and ``rows`` their ``_chunk_rows`` rows, root after root,
    one row of W words each. The walk builds the tree of ``walk_root`` and
    adds its node count and leaf histogram to ``stats``, not its order:
    every node is one entry of the arrays ``root`` (its root's position in
    ``sizes``), ``mask`` (its subproblem, W words) and ``h`` (its path's
    hold links), and the nodes of a level share their depth h + p. With
    ``sink``, nodes also carry the hold and the pivot links of their path
    below the root, as bits over the root's members (W words each), and
    ``sink(root, hold, pivots)`` receives each batch's leaves. A level is
    walked in batches (``_walk_batch``) of at most ``budget`` words of
    members' rows (``walk_roots`` passes min(``LEVEL_WORDS``, m //
    ``LEVEL_SHARE``)), and their children make the next level. Once that
    holds ``LEVEL_NODES`` nodes, the rest of the level waits on a stack
    and the next level is walked first, deepest slice first, so a wide
    tree never holds a whole level.
    """
    width = rows.shape[1]
    first = np.cumsum(sizes) - sizes
    nodes = [np.arange(len(sizes)), _low_bits(sizes, width),
             np.ones_like(sizes)]
    if sink is not None:
        nodes += list(np.zeros((2, len(sizes), width), dtype=np.uint64))
    # Levels, or the rest of one, not walked yet: (depth, nodes).
    stack = [(1, nodes)]
    while stack:
        depth, nodes = stack.pop()
        members = np.bitwise_count(nodes[1]).sum(axis=1, dtype=np.int64)
        cost = np.cumsum((members + 8) * width)
        done = 0
        below = []
        room = LEVEL_NODES
        while done < len(cost) and room > 0:
            spent = cost[done - 1] if done else 0
            stop = max(done + 1, int(np.searchsorted(cost, spent + budget,
                                                     "right")))
            below.append(_walk_batch(stats, rows, depth,
                                     [x[done:stop] for x in nodes], first,
                                     max_hold, sink))
            room -= len(below[-1][0])
            done = stop
        if done < len(cost):
            stack.append((depth, [x[done:] for x in nodes]))
        if room < LEVEL_NODES:
            stack.append((depth + 1, [np.concatenate(x) for x in zip(*below)]))


def _walk_batch(stats, rows, depth, nodes, first, max_hold, sink):
    """Walk one batch of a level of ``walk_levels``; return its children.

    ``nodes`` are the batch's node arrays and ``first`` the row of each
    root's first member. Every node adds to ``stats.node_count``. An
    empty mask is a leaf (h, depth - h), handed to ``sink`` if given.
    Every other node expands its members in ascending order, with their
    degrees within it, and takes as pivot the first member of maximum
    degree, so the lowest on ties. Its children are returned as node
    arrays: the pivot child, the pivot's neighbors in the mask, and,
    below ``max_hold``, the hold child of each non-neighbor x of the
    pivot, ``rows[x] & mask`` less the non-neighbors below x. The
    children of a node without an edge thus have empty masks.
    """
    width = rows.shape[1]
    stats.node_count += len(nodes[0])
    empty = ~nodes[1].any(axis=1)
    if empty.any():
        _tally(stats.leaves, depth, nodes[2][empty])
        if sink is not None:
            sink(nodes[0][empty], nodes[3][empty], nodes[4][empty])
        nodes = [x[~empty] for x in nodes]
    root, mask, h = nodes[:3]
    if not len(root):
        return nodes
    # Every member of every node, node by node, ascending.
    span = width * WORD_BITS
    found = np.flatnonzero(np.unpackbits(
        mask.astype("<u8", copy=False).view(np.uint8), axis=1,
        bitorder="little").view(bool))
    node = found // span
    bit = found - node * span
    del found
    at = first[root[node]]
    at += bit
    adjacent = rows[at]
    del at
    adjacent &= mask[node]
    # The first member of maximum degree has the largest key degree * 2^32
    # - index, members indexed in batch order.
    key = np.bitwise_count(adjacent).sum(axis=1, dtype=np.int64)
    key <<= 32
    key -= np.arange(len(node))
    key = np.maximum.reduceat(key, np.flatnonzero(np.diff(node, prepend=-1)))
    top = -(-key >> 32)
    pivot = (top << 32) - key
    pivot_row = adjacent[pivot]
    # The pivot's non-neighbors, each but the pivot a hold child.
    apart = mask & ~pivot_row
    word = apart[node, bit // WORD_BITS]
    word >>= (bit % WORD_BITS).astype(np.uint64)
    hold = (word & np.uint64(1)).astype(bool)
    del word
    if max_hold is not None:
        hold &= (h < max_hold)[node]
    hold[pivot] = False
    held = np.flatnonzero(hold)
    of = node[held]
    child = adjacent[held]
    child &= ~(apart[of] & _low_bits(bit[held], width))
    children = [np.concatenate((root, root[of])),
                np.concatenate((pivot_row, child)),
                np.concatenate((h, h[of] + 1))]
    if sink is not None:
        hold_bits, pivot_bits = nodes[3:]
        children += [np.concatenate((hold_bits,
                                     hold_bits[of] | _bit(bit[held], width))),
                     np.concatenate((pivot_bits | _bit(bit[pivot], width),
                                     pivot_bits[of]))]
    return children


# _LOW[f] is a word with its f lowest bits set.
_LOW = np.array([(1 << f) - 1 for f in range(WORD_BITS + 1)], dtype=np.uint64)


def _low_bits(n: np.ndarray, width: int) -> np.ndarray:
    """Masks of ``width`` words, least significant first, each with the
    ``n[i]`` lowest bits set."""
    return _LOW[np.clip(n[:, None] - WORD_BITS * np.arange(width),
                        0, WORD_BITS)]


def _bit(b: np.ndarray, width: int) -> np.ndarray:
    """Masks of ``width`` words, each with the one bit ``b[i]`` set."""
    return _low_bits(b + 1, width) ^ _low_bits(b, width)


def _tally(tally: dict, depth: int, h: np.ndarray) -> None:
    """Add leaves of ``depth`` links, ``h`` of them hold links, to the
    (|H|, |P|) histogram."""
    found = np.bincount(h)
    for i in np.flatnonzero(found).tolist():
        key = i, depth - i
        tally[key] = tally.get(key, 0) + int(found[i])


def root_chunks(offsets, targets, out_deg, roots) -> list[tuple[int, int]]:
    """Cut ``roots`` into consecutive (lo, hi) slices of similar set-up work.

    A root's work is its out-degree plus its wedges v->u->w; a slice holds
    about max(``ROOT_CHUNK_WORK``, m // ``ROOT_CHUNK_SHARE``) of it, m the
    number of oriented edges.
    """
    # A root's wedges come from a running sum over its edges.
    through = np.zeros(len(targets) + 1, dtype=np.int64)
    np.cumsum(out_deg[targets], out=through[1:])
    work = np.cumsum(out_deg[roots] + through[offsets[roots + 1]]
                     - through[offsets[roots]])
    del through
    total = int(work[-1]) if len(work) else 0
    step = max(ROOT_CHUNK_WORK, len(targets) // ROOT_CHUNK_SHARE)
    cuts = np.searchsorted(work, np.arange(step, total, step), side="right")
    bounds = np.unique(np.concatenate(([0], cuts, [len(roots)]))).tolist()
    return list(zip(bounds[:-1], bounds[1:]))


def _chunk_rows(offsets, targets, out_deg, roots):
    """Bitmask rows of a chunk of roots, in uint64 words.

    Returns (rows, first, busy). A root with d out-neighbors has d rows of
    ceil(d / ``WORD_BITS``) words each, least significant word first: bit
    j of the row of its i-th out-neighbor is set where its i-th and j-th
    out-neighbors are adjacent. Root i's rows fill ``rows[first[i]:first[i
    + 1]]``, row after row; ``busy[i]`` tells whether its subproblem has an
    edge. Every wedge root->u->w is closed by a binary search for the edge
    root->w, and each closed wedge sets one bit in the rows of u and w.
    """
    sizes = out_deg[roots]
    start = np.cumsum(sizes) - sizes
    root_of = np.repeat(np.arange(len(roots), dtype=np.int64), sizes)
    local = np.arange(len(root_of), dtype=np.int64) - start[root_of]
    u = targets[offsets[roots][root_of] + local]
    words = -(-sizes // WORD_BITS)
    ends = np.cumsum(sizes * words)
    # The first word of each out-neighbor's row.
    row = (ends - sizes * words)[root_of] + local * words[root_of]
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
    # Each closed wedge sets a distinct bit: flag it, then pack the flags.
    flags = np.zeros(int(ends[-1]) * WORD_BITS, dtype=np.uint8)
    flags[row[a] * WORD_BITS + local[b]] = 1
    flags[row[b] * WORD_BITS + local[a]] = 1
    rows = np.packbits(flags, bitorder="little").view("<u8")
    del flags
    busy = np.zeros(len(roots), dtype=bool)
    busy[root_of[a]] = True
    return rows, [0] + ends.tolist(), busy


def _int_rows(words: np.ndarray, size: int) -> list[int]:
    """One root's ``size`` rows, from ``_chunk_rows`` words to Python ints."""
    if len(words) <= size:
        return words.tolist()
    raw = words.astype("<u8", copy=False).tobytes()
    step = len(raw) // size
    return [int.from_bytes(raw[i:i + step], "little")
            for i in range(0, len(raw), step)]


class SctNode:
    """Explicit tree node for inspection mode.

    ``link_kind`` is "root", "hold", or "pivot"; ``link_vertex`` is the
    vertex on the link from the parent (None at the root). Labels are
    tuples of global vertex ids; parent labels strictly contain child
    labels and leaves carry the empty label.
    """

    __slots__ = ("label", "link_vertex", "link_kind", "children")

    def __init__(self, label, link_vertex, link_kind):
        self.label = tuple(label)
        self.link_vertex = link_vertex
        self.link_kind = link_kind
        self.children: list[SctNode] = []

    def is_leaf(self) -> bool:
        return not self.children

    def _preorder(self) -> Iterator[tuple[int, int, SctNode]]:
        """(depth, parent, node) of every node in pre-order, this one first.

        ``parent`` is the parent's position in the walk (-1 for this
        node). The walk keeps its own stack, so a tree of any depth can
        be walked.
        """
        stack = [(0, -1, self)]
        position = 0
        while stack:
            depth, parent, node = stack.pop()
            yield depth, parent, node
            stack.extend((depth + 1, position, child)
                         for child in reversed(node.children))
            position += 1

    def node_count(self) -> int:
        """Nodes below (and excluding) this node."""
        return sum(1 for _ in self._preorder()) - 1

    def leaf_count(self) -> int:
        return sum(1 for _, _, node in self._preorder() if not node.children)

    def iter_paths(self) -> Iterator[PathLabels]:
        """Yield (hold, pivot) labels of every root-to-leaf path."""
        path: list[SctNode] = []
        for depth, _, node in self._preorder():
            del path[depth:]
            path.append(node)
            if node.is_leaf() and node.link_kind != "root":
                yield PathLabels(
                    tuple(n.link_vertex for n in path if n.link_kind == "hold"),
                    tuple(n.link_vertex for n in path
                          if n.link_kind == "pivot"))

    def to_text(self, max_label: int = 16) -> str:
        """Indented dump: one node per line, "<link> {label}" under parents."""
        lines: list[str] = []
        for depth, _, node in self._preorder():
            if node.link_kind == "root":
                link = "root"
            else:
                mark = "h" if node.link_kind == "hold" else "p"
                link = f"({node.link_vertex},{mark})"
            label = ",".join(map(str, node.label[:max_label]))
            if len(node.label) > max_label:
                label += ",..."
            lines.append(f"{'  ' * depth}{link} {{{label}}}")
        return "\n".join(lines) + "\n"

    def to_records(self) -> list[tuple]:
        """Flat node list: (node id, parent id, link kind, link vertex, label)."""
        return [(node_id, parent, node.link_kind, node.link_vertex, node.label)
                for node_id, (_, parent, node) in enumerate(self._preorder())]


def materialize_sct(graph: Graph,
                    orientation: DegeneracyOrientation | None = None,
                    node_cap: int = DEFAULT_NODE_CAP) -> SctNode:
    """Build the explicit clique tree of the reference walk, ``walk_root``.

    Intended for small graphs; raises SizeLimitError once more than
    ``node_cap`` non-root nodes have been created. Children keep the
    walk's order (pivot link first, then hold links by ascending id), so
    the tree's leaves are those of ``traverse``'s sink in the same order.
    """
    if orientation is None:
        orientation = degeneracy_orient(graph)
    root = SctNode(range(graph.n), None, "root")
    # path[d] is the node at depth d on the walk's current path, with the
    # number of pivot links above and at it.
    path = [(root, 0)]
    created = 0

    def record(mask, members, hold, pivots):
        nonlocal created
        created += 1
        if created > node_cap:
            raise SizeLimitError(
                f"clique tree exceeds the node cap ({node_cap}); "
                "raise node_cap to materialize anyway")
        depth = len(hold) + len(pivots)
        parent, parent_pivots = path[depth - 1]
        label = []
        while mask:
            low = mask & -mask
            label.append(members[low.bit_length() - 1])
            mask ^= low
        if len(pivots) > parent_pivots:
            node = SctNode(label, pivots[-1], "pivot")
        else:
            node = SctNode(label, hold[-1], "hold")
        parent.children.append(node)
        del path[depth:]
        path.append((node, len(pivots)))

    walk_roots(orientation, np.arange(graph.n), on_node=record)
    return root


@dataclass
class VerificationResult:
    ok: bool
    detail: str = ""

    def __bool__(self) -> bool:
        return self.ok


def verify_unique_representation(graph: Graph, tree: SctNode,
                                 oracle_cliques) -> VerificationResult:
    """Check that path expansions cover every clique exactly once.

    Expands each root-to-leaf path (H, P) into all sets H union Q for Q a
    subset of P and verifies that (a) each expansion is a clique of the
    graph, (b) no clique arises from two (path, subset) pairs, and (c) the
    expansions equal ``oracle_cliques`` exactly. The verdict carries the
    first counterexample found.
    """
    expected = {frozenset(c) for c in oracle_cliques}
    seen: set[frozenset] = set()
    for hold, pivots in tree.iter_paths():
        for bits in range(1 << len(pivots)):
            chosen = [p for j, p in enumerate(pivots) if bits >> j & 1]
            clique = frozenset(hold) | frozenset(chosen)
            members = sorted(clique)
            for a in range(len(members)):
                for b in range(a + 1, len(members)):
                    if not graph.are_adjacent(members[a], members[b]):
                        return VerificationResult(
                            False,
                            f"expansion {members} of path H={sorted(hold)} "
                            f"P={sorted(pivots)} is not a clique")
            if clique in seen:
                return VerificationResult(
                    False, f"clique {members} produced by two distinct "
                           f"(path, subset) pairs")
            seen.add(clique)
    if seen != expected:
        missing = expected - seen
        extra = seen - expected
        sample = sorted(next(iter(missing))) if missing else sorted(next(iter(extra)))
        kind = "missing" if missing else "spurious"
        return VerificationResult(
            False, f"{kind} clique {sample} "
                   f"({len(missing)} missing, {len(extra)} spurious)")
    return VerificationResult(True)
