"""Exact k-clique counting for all k via pivoted clique-tree traversal.

The package builds a degeneracy orientation, walks the pivoted clique
tree it induces level by level, the subtrees of many roots at once in
numpy (``sct.walk_levels``), and reads global, per-vertex, and per-edge
clique counts off the leaves. See ``cliquecount.counting.count`` for the
main entry point and the ``cliquecount`` CLI for the command-line
surface.
"""

import importlib

# The home module of each public name, the one list of them: ``__all__``
# is built from it. A name's module is imported on first use (PEP 562),
# so a command loads only the modules it runs.
_HOMES = {
    "counting": ("CountTables", "LeafBatches", "count", "pascal_rows"),
    "degeneracy": ("DegeneracyOrientation", "core_numbers",
                   "degeneracy_orient"),
    "errors": ("CliqueCountError", "CountCheckError", "CounterOverflowError",
               "EdgeListParseError", "SizeLimitError", "WorkerCrashError"),
    "graph": ("Graph", "edge_list_text", "load_edge_list", "write_edge_list"),
    "oracle": ("CliqueCensus", "compare", "enumerate_all_cliques"),
    "parallel": ("count_global_parallel",),
    "sct": ("PathLabels", "SctNode", "TraversalStats", "materialize_sct",
            "traverse", "verify_unique_representation"),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}

__version__ = "0.1.0"

__all__ = sorted(_HOME)


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
