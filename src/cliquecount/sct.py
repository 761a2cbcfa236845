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
build the same tree. ``walk_root`` walks one root's subtree in pre-order,
storing only the current path and the hold children still to visit,
tallies every leaf in the histogram and hands leaves and nodes to
callbacks. ``walk_levels`` walks many roots' subtrees at once, level by
level in numpy, and only tallies. ``walk_roots`` is their one front end:
it sets roots up in chunks, every root's rows built in numpy by
``_chunk_rows`` whatever its width, and hands them to ``walk_root`` when
there is a callback, else to ``walk_levels``. ``traverse`` runs it over
all roots in id order (local counts, ``materialize_sct`` and the tests),
and ``counting.count_roots_global`` over any set of roots, without a
callback.
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
# to at most LEVEL_WORDS words, counting a node's unpacked mask as 8 words
# per word; a batch's scratch takes about 80 bytes per word. Once the next
# level holds LEVEL_NODES nodes, it is walked before the rest of this one.
LEVEL_WORDS = 1 << 14
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
             max_hold: int | None = None, *,
             _on_node=None) -> TraversalStats:
    """Depth-first walk of the clique tree, storing only the current path.

    Every vertex v is a hold link at the root, with the subproblem induced
    on the out-neighborhood of v; ``walk_roots`` walks each one's
    subtree, roots in id order. Children are created even when their
    label is empty; every empty subproblem is a leaf, tallied in the
    returned stats, and fires ``sink(hold, pivots)`` if a sink is given,
    leaves in the order of a recursive pre-order walk: at each node the
    pivot child's subtree, then the hold children's by ascending id.

    The sink receives the live path lists; they are only valid during the
    call, so copy them if you keep them. With ``max_hold`` set, branches
    whose hold count would exceed it are pruned, which preserves all
    leaves with at most ``max_hold`` hold vertices.

    ``_on_node(mask, members, hold, pivots)``, if given, is called at every
    node below the root before its children: the node's label is the set
    bits of ``mask`` mapped through ``members``, and the live path lists
    end with the node's link. ``materialize_sct`` records the tree this way.

    The walk is iterative, so the depth of the tree (up to alpha + 1
    links) is not bounded by the interpreter's recursion limit.
    """
    if orientation is None:
        orientation = degeneracy_orient(graph)
    return walk_roots(orientation, np.arange(graph.n), sink, max_hold,
                      _on_node)


def walk_roots(orientation: DegeneracyOrientation, roots,
               leaf: Callable[[list, list], None] | None = None,
               max_hold: int | None = None, on_node=None) -> TraversalStats:
    """Walk the subtrees of the given roots' hold links; return their shape.

    Roots are set up in chunks (``root_chunks``, ``_chunk_rows``). With a
    callback, ``leaf`` or ``on_node`` as in ``walk_root``, ``walk_root``
    walks every root, in the given order. Without one, only the roots
    whose subproblem has an edge are walked, by ``walk_levels``: their
    rows are kept over consecutive chunks, grouped by the number of words
    per row, until they come to ``LEVEL_ROW_WORDS`` words, and each group
    is then walked at once. The other roots have the fixed two-level tree
    of an edge-free subproblem and are settled in closed form, all at
    once. The shape is the same either way.
    """
    stats = TraversalStats()
    if max_hold is not None and max_hold < 1:
        return stats
    offsets = orientation.out_offsets
    targets = orientation.out_targets
    out_deg = np.diff(offsets)
    roots = np.asarray(roots, dtype=np.int64)
    walk_all = leaf is not None or on_node is not None
    # Out-degrees of the roots left to the closed form, and the rows and
    # out-degrees of the busy roots that wait for the level walk, by the
    # number of words of their rows.
    settled = [out_deg[:0]]
    waiting: dict[int, list[tuple[np.ndarray, np.ndarray]]] = {}
    waiting_words = 0
    for lo, hi in root_chunks(offsets, targets, out_deg, roots):
        chunk = roots[lo:hi]
        rows, first, busy = _chunk_rows(offsets, targets, out_deg, chunk)
        if walk_all:
            for i, v in enumerate(chunk.tolist()):
                members = targets[offsets[v]:offsets[v + 1]].tolist()
                walk_root(stats, v, members,
                          _int_rows(rows[first[i]:first[i + 1]], len(members)),
                          leaf, max_hold, on_node)
            continue
        sizes = out_deg[chunk]
        settled.append(sizes[~busy])
        words = -(-sizes // WORD_BITS)
        for width in np.unique(words[busy]).tolist():
            pick = busy & (words == width)
            waiting.setdefault(width, []).append(
                (rows[np.repeat(pick, sizes * words)], sizes[pick]))
        waiting_words += int((sizes * words)[busy].sum())
        if waiting_words >= LEVEL_ROW_WORDS:
            _walk_waiting(stats, waiting, max_hold)
            waiting_words = 0
    _walk_waiting(stats, waiting, max_hold)
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


def _walk_waiting(stats, waiting, max_hold) -> None:
    """Level-walk the waiting roots of each row width, then forget them."""
    for width, parts in waiting.items():
        rows, sizes = map(np.concatenate, zip(*parts))
        walk_levels(stats, rows.reshape(-1, width), sizes, max_hold)
    waiting.clear()


def walk_root(stats: TraversalStats, root: int, members: list[int],
              rows: list[int], leaf: Callable[[list, list], None] | None = None,
              max_hold: int | None = None, on_node=None) -> None:
    """Walk the subtree of root's hold link, adding its shape to ``stats``.

    ``members`` are root's out-neighbors in ascending id order, and
    ``rows[i]`` has bit j set where ``members[i]`` and ``members[j]`` are
    adjacent. The walk is pre-order and keeps the path as two live lists of
    vertex ids, ``hold`` (root first) and ``pivots``. Every node adds to
    ``stats.node_count`` and every leaf to ``stats.leaves``; ``leaf(hold,
    pivots)``, if given, fires at every leaf and ``on_node(mask, members,
    hold, pivots)`` at every node, as in ``traverse``.

    At a node with subproblem ``mask`` the pivot is the vertex of maximum
    degree within it, lowest id on ties. The scan stops at the first vertex
    adjacent to every other one: no later vertex can have a higher degree,
    and ties keep the earlier vertex. The pivot child, the pivot's
    neighbors within ``mask``, is walked in place, next. The hold child of
    each non-neighbor x of the pivot, in ascending order, has the
    subproblem N(x) & ``mask`` less the earlier non-neighbors; these wait
    on a stack, pushed in descending order so that they pop in ascending
    order. Hold children are not created once the path holds ``max_hold``
    hold vertices. A node whose subproblem has no edge is settled in
    closed form: its lowest vertex is the pivot leaf and each other vertex
    a hold leaf, in ascending order, all tallied with one addition. Only
    the callbacks visit those hold leaves one by one.
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
                if leaf is not None:
                    leaf(hold, pivots)
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
            if not best_deg:
                # No edge: the pivot leaf, then a hold leaf per other vertex.
                key = len(hold), len(pivots) + 1
                tally[key] = count(key, 0) + 1
                m = mask ^ (1 << best) if may_hold else 0
                holds = m.bit_count()
                nodes += 1 + holds
                if holds:
                    key = len(hold) + 1, len(pivots)
                    tally[key] = count(key, 0) + holds
                pivots.append(members[best])
                if on_node is not None:
                    on_node(0, members, hold, pivots)
                if leaf is not None:
                    leaf(hold, pivots)
                pivots.pop()
                while m:
                    low = m & -m
                    hold.append(members[low.bit_length() - 1])
                    if on_node is not None:
                        on_node(0, members, hold, pivots)
                    if leaf is not None:
                        leaf(hold, pivots)
                    hold.pop()
                    m ^= low
                break
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
                max_hold: int | None = None) -> None:
    """Walk the subtrees of many roots' hold links at once, level by level.

    ``sizes`` are the roots' out-degrees, all with rows of the same number
    W of words, and ``rows`` their ``_chunk_rows`` rows, root after root,
    one row of W words each. The walk builds the tree of ``walk_root`` and
    adds its node count and leaf histogram to ``stats``, not its order:
    every node is one entry of the arrays ``base`` (the row of its root's
    first member), ``mask`` (its subproblem, W words) and ``h`` (its
    path's hold links), and the nodes of a level share their depth h + p.
    A level is walked in batches (``_walk_batch``) of at most
    ``LEVEL_WORDS`` words of members' rows, and their children make the
    next level. Once that holds ``LEVEL_NODES`` nodes, the rest of the
    level waits on a stack and the next level is walked first, deepest
    slice first, so a wide tree never holds a whole level.
    """
    width = rows.shape[1]
    # Levels, or the rest of one, not walked yet: (depth, base, mask, h).
    stack = [(1, np.cumsum(sizes) - sizes, _low_bits(sizes, width),
              np.ones_like(sizes))]
    while stack:
        depth, base, mask, h = stack.pop()
        cost = np.cumsum((np.bitwise_count(mask).sum(axis=1, dtype=np.int64)
                          + 8) * width)
        done = 0
        below = []
        room = LEVEL_NODES
        while done < len(base) and room > 0:
            spent = cost[done - 1] if done else 0
            stop = max(done + 1, int(np.searchsorted(cost, spent + LEVEL_WORDS,
                                                     "right")))
            below.append(_walk_batch(stats, rows, depth, base[done:stop],
                                     mask[done:stop], h[done:stop], max_hold))
            room -= len(below[-1][0])
            done = stop
        if done < len(base):
            stack.append((depth, base[done:], mask[done:], h[done:]))
        if room < LEVEL_NODES:
            stack.append((depth + 1, *map(np.concatenate, zip(*below))))


def _walk_batch(stats, rows, depth, base, mask, h, max_hold):
    """Walk one batch of a level of ``walk_levels``; return its children.

    Every node adds to ``stats.node_count``. An empty mask is a leaf (h,
    depth - h). Every other node expands its members in ascending order,
    with their degrees within it, and takes as pivot the first member of
    maximum degree, so the lowest on ties. A node whose subproblem has no
    edge is settled in closed form, as in ``walk_root``: the pivot leaf
    (h, p + 1) and, below ``max_hold`` hold links, a hold leaf (h + 1, p)
    per other member. The others' children are returned as (base, mask,
    h): the pivot child, the pivot's neighbors in the mask, and, below
    ``max_hold``, the hold child of each non-neighbor x of the pivot,
    ``rows[x] & mask`` less the non-neighbors below x.
    """
    width = rows.shape[1]
    stats.node_count += len(base)
    empty = ~mask.any(axis=1)
    if empty.any():
        _tally(stats.leaves, depth, h[empty])
        live = ~empty
        base, mask, h = base[live], mask[live], h[live]
        if not len(base):
            return base, mask, h
    # Every member of every node, node by node, ascending.
    span = width * WORD_BITS
    found = np.flatnonzero(np.unpackbits(
        mask.astype("<u8", copy=False).view(np.uint8), axis=1,
        bitorder="little").view(bool))
    node = found // span
    bit = found - node * span
    del found
    at = base[node]
    at += bit
    adjacent = rows[at]
    del at
    adjacent &= mask[node]
    # The first member of maximum degree has the largest key degree * 2^32
    # - index, members indexed in batch order.
    key = np.bitwise_count(adjacent).sum(axis=1, dtype=np.int64)
    key <<= 32
    key -= np.arange(len(node))
    first = np.flatnonzero(np.diff(node, prepend=-1))
    key = np.maximum.reduceat(key, first)
    top = -(-key >> 32)
    pivot = (top << 32) - key
    pivot_row = adjacent[pivot]
    may_hold = (np.ones(len(h), dtype=bool) if max_hold is None
                else h < max_hold)
    free = top == 0
    if free.any():
        holds = np.where(may_hold[free], np.diff(first, append=len(node))[free]
                         - 1, 0)
        _tally(stats.leaves, depth + 1, h[free])
        _tally(stats.leaves, depth + 1, h[free] + 1, holds)
        stats.node_count += int(np.count_nonzero(free)) + int(holds.sum())
    busy = ~free
    # The pivot's non-neighbors, each but the pivot a hold child.
    apart = mask & ~pivot_row
    word = apart[node, bit // WORD_BITS]
    word >>= (bit % WORD_BITS).astype(np.uint64)
    hold = (word & np.uint64(1)).astype(bool)
    del word
    hold &= (busy & may_hold)[node]
    hold[pivot] = False
    held = np.flatnonzero(hold)
    of = node[held]
    child = adjacent[held]
    child &= ~(apart[of] & _low_bits(bit[held], width))
    return (np.concatenate((base[busy], base[of])),
            np.concatenate((pivot_row[busy], child)),
            np.concatenate((h[busy], h[of] + 1)))


# _LOW[f] is a word with its f lowest bits set.
_LOW = np.array([(1 << f) - 1 for f in range(WORD_BITS + 1)], dtype=np.uint64)


def _low_bits(n: np.ndarray, width: int) -> np.ndarray:
    """Masks of ``width`` words, least significant first, each with the
    ``n[i]`` lowest bits set."""
    return _LOW[np.clip(n[:, None] - WORD_BITS * np.arange(width),
                        0, WORD_BITS)]


def _tally(tally: dict, depth: int, h: np.ndarray, weight=None) -> None:
    """Add leaves of ``depth`` links, ``h`` of them hold links, to the
    (|H|, |P|) histogram, ``weight[i]`` leaves for ``h[i]`` if given.

    A weighted ``bincount`` sums in float64, which is exact here: a batch
    of ``walk_levels`` settles far fewer than 2^53 leaves.
    """
    found = np.bincount(h, weight)
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
    """Build the explicit clique tree of ``traverse``'s walk.

    Intended for small graphs; raises SizeLimitError once more than
    ``node_cap`` non-root nodes have been created. Children keep the
    walk's order (pivot link first, then hold links by ascending id), so
    the tree's leaves are ``traverse``'s leaves in the same order.
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

    traverse(graph, orientation, _on_node=record)
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
