"""Pivoted clique-tree construction and traversal.

The tree explored here compresses every clique of the graph into a unique
(hold set, pivot set) pair: each root-to-leaf path T carries the vertices
of its hold-labeled links H(T) and pivot-labeled links P(T), and the
cliques represented by T are exactly H(T) union Q over all subsets Q of
P(T), each produced by exactly one (path, subset) pair.

``traverse`` walks the tree depth-first while storing only the current
path; local counting hooks in at the leaves. ``materialize_sct`` records
the same walk into explicit nodes, for inspection and cross-checking on
small graphs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, NamedTuple

from .degeneracy import DegeneracyOrientation, degeneracy_orient
from .errors import SizeLimitError
from .graph import Graph

DEFAULT_NODE_CAP = 10 ** 6


class PathLabels(NamedTuple):
    """Hold and pivot vertices of one root-to-leaf path."""
    hold: tuple
    pivots: tuple


@dataclass
class TraversalStats:
    """Shape of the (implicit) clique tree.

    ``node_count`` counts every node created below the root, including
    empty-labeled leaves; the root itself is not counted. ``max_depth`` is
    the longest path length in links.
    """
    node_count: int = 0
    leaf_count: int = 0
    max_depth: int = 0


def traverse(graph: Graph,
             orientation: DegeneracyOrientation | None = None,
             sink: Callable[[list, list], None] | None = None,
             max_hold: int | None = None, *,
             _on_node=None) -> TraversalStats:
    """Depth-first walk of the clique tree, storing only the current path.

    For every vertex v (a hold link at the root) the walk recurses on the
    subproblem induced on the out-neighborhood of v. At each non-empty
    subproblem it picks the pivot p of maximum subproblem degree (lowest
    id on ties; the scan stops at a vertex adjacent to all others), recurses
    on p's neighborhood with p pushed as a pivot, then visits the
    non-neighbors of p in ascending id order, recursing on each one's
    neighborhood minus the earlier non-neighbors with the vertex pushed as
    a hold. Children are created even when their label is empty; an empty
    subproblem is a leaf and fires ``sink(hold, pivots)``.

    The sink receives the live path lists; they are only valid during the
    call, so copy them if you keep them. With ``max_hold`` set, branches
    whose hold count would exceed it are pruned before recursing, which
    preserves all leaves with at most ``max_hold`` hold vertices.

    ``_on_node(mask, members, hold, pivots)``, if given, is called at every
    node below the root before its children: the node's label is the set
    bits of ``mask`` mapped through ``members``, and the live path lists
    end with the node's link. ``materialize_sct`` records the tree this way.

    Native recursion is used deliberately: the path length is bounded by
    alpha + 1 links, far below the interpreter limit.
    """
    if orientation is None:
        orientation = degeneracy_orient(graph)
    stats = TraversalStats()
    if graph.n == 0 or (max_hold is not None and max_hold < 1):
        return stats
    if sink is None:
        sink = _ignore_leaf
    out = orientation.out_neighbors
    local_index = [-1] * graph.n
    hold: list[int] = []
    pivots: list[int] = []
    members: list[int] = []
    rows: list[int] = []

    def walk(mask: int) -> None:
        stats.node_count += 1
        if _on_node is not None:
            _on_node(mask, members, hold, pivots)
        if mask == 0:
            stats.leaf_count += 1
            depth = len(hold) + len(pivots)
            if depth > stats.max_depth:
                stats.max_depth = depth
            sink(hold, pivots)
            return
        # A vertex adjacent to all others ends the scan: none can beat
        # it, and ties keep the earlier vertex.
        full = mask.bit_count() - 1
        m = mask
        best = -1
        best_deg = -1
        best_row = 0
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
        pivots.append(members[best])
        walk(best_row)
        pivots.pop()
        if max_hold is not None and len(hold) >= max_hold:
            return
        m = mask & ~(best_row | (1 << best))
        dropped = 0
        while m:
            low = m & -m
            i = low.bit_length() - 1
            hold.append(members[i])
            walk(rows[i] & mask & ~dropped)
            hold.pop()
            dropped |= low
            m ^= low

    for v in range(graph.n):
        members = out[v]
        s = len(members)
        hold.append(v)
        if s == 0:
            if _on_node is not None:
                _on_node(0, members, hold, pivots)
            stats.node_count += 1
            stats.leaf_count += 1
            if not stats.max_depth:
                stats.max_depth = 1
            sink(hold, pivots)
        else:
            for j, u in enumerate(members):
                local_index[u] = j
            rows = [0] * s
            for j, u in enumerate(members):
                for w in out[u]:
                    jj = local_index[w]
                    if jj >= 0:
                        rows[j] |= 1 << jj
                        rows[jj] |= 1 << j
            for u in members:
                local_index[u] = -1
            walk((1 << s) - 1)
        hold.pop()
    return stats


def _ignore_leaf(hold, pivots):
    return None


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

    def node_count(self) -> int:
        """Nodes below (and excluding) this node."""
        return sum(1 + child.node_count() for child in self.children)

    def leaf_count(self) -> int:
        if not self.children:
            return 1
        return sum(child.leaf_count() for child in self.children)

    def iter_paths(self) -> Iterator[PathLabels]:
        """Yield (hold, pivot) labels of every root-to-leaf path."""
        hold: list[int] = []
        pivots: list[int] = []

        def rec(node: SctNode) -> Iterator[PathLabels]:
            if node.link_kind == "hold":
                hold.append(node.link_vertex)
            elif node.link_kind == "pivot":
                pivots.append(node.link_vertex)
            if node.is_leaf() and node.link_kind != "root":
                yield PathLabels(tuple(hold), tuple(pivots))
            else:
                for child in node.children:
                    yield from rec(child)
            if node.link_kind == "hold":
                hold.pop()
            elif node.link_kind == "pivot":
                pivots.pop()

        yield from rec(self)

    def to_text(self, max_label: int = 16) -> str:
        """Indented dump: one node per line, "<link> {label}" under parents."""
        lines: list[str] = []

        def rec(node: SctNode, depth: int) -> None:
            if node.link_kind == "root":
                link = "root"
            else:
                mark = "h" if node.link_kind == "hold" else "p"
                link = f"({node.link_vertex},{mark})"
            label = ",".join(map(str, node.label[:max_label]))
            if len(node.label) > max_label:
                label += ",..."
            lines.append(f"{'  ' * depth}{link} {{{label}}}")
            for child in node.children:
                rec(child, depth + 1)

        rec(self, 0)
        return "\n".join(lines) + "\n"

    def to_records(self) -> list[tuple]:
        """Flat node list: (node id, parent id, link kind, link vertex, label)."""
        records: list[tuple] = []

        def rec(node: SctNode, parent_id: int) -> None:
            node_id = len(records)
            records.append((node_id, parent_id, node.link_kind,
                            node.link_vertex, node.label))
            for child in node.children:
                rec(child, node_id)

        rec(self, -1)
        return records


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
