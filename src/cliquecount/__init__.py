"""Exact k-clique counting for all k via pivoted clique-tree traversal.

The package builds a degeneracy orientation, walks the pivoted clique
tree it induces while storing only one path, and reads global,
per-vertex, and per-edge clique counts off the leaves. See
``cliquecount.counting.count`` for the main entry point and the
``cliquecount`` CLI for the command-line surface.
"""

from .counting import CountTables, LeafBatches, count, pascal_rows
from .degeneracy import (DegeneracyOrientation, core_numbers, degeneracy_orient,
                         degeneracy_stats)
from .errors import (CliqueCountError, CountCheckError, CounterOverflowError,
                     EdgeListParseError, SizeLimitError)
from .graph import Graph, edge_list_text, load_edge_list, write_edge_list
from .oracle import CliqueCensus, compare, enumerate_all_cliques
from .parallel import count_global_parallel
from .sct import (PathLabels, SctNode, TraversalStats, materialize_sct,
                  traverse, verify_unique_representation)

__version__ = "0.1.0"

__all__ = [
    "CliqueCensus",
    "CliqueCountError",
    "CountCheckError",
    "CountTables",
    "CounterOverflowError",
    "DegeneracyOrientation",
    "EdgeListParseError",
    "Graph",
    "LeafBatches",
    "PathLabels",
    "SctNode",
    "SizeLimitError",
    "TraversalStats",
    "compare",
    "core_numbers",
    "count",
    "count_global_parallel",
    "degeneracy_orient",
    "degeneracy_stats",
    "edge_list_text",
    "enumerate_all_cliques",
    "load_edge_list",
    "materialize_sct",
    "pascal_rows",
    "traverse",
    "verify_unique_representation",
    "write_edge_list",
]
