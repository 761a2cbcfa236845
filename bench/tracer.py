"""Traced in-process run of ``cliquecount count`` for the per-layer metrics.

Run as its own process with cliquecount importable:

    PYTHONPATH=src python3 bench/tracer.py --input G.txt --output OUT.csv \
        --spans SPANS.json [-- COUNT_FLAGS...]

It makes one untraced ``cli.main`` call to warm up, then wraps the layer
entry points listed in ``TARGETS`` and makes the same call under a
``cli.main`` span, then unwraps them and makes one more untraced call, the
base of ``trace.overhead_s``. A global-only count (no COUNT_FLAGS) then
calls ``count_global_parallel`` directly, with one worker per core. Spans
(name, start, end, parent) are kept in memory and written to ``--spans``
at the end. ``accumulate_leaf`` runs once per clique-tree leaf, so its
calls are summed per enclosing span rather than kept one by one. A wrapped name that no longer exists is listed under
``missing`` and the run goes on without it. Nothing under ``src/`` is
edited; the wrappers exist only in this process.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import sys
import time

# (module, attribute, span name). Attributes are looked up on the module
# the caller reads them from, so the wrapper is what the caller runs.
TARGETS = [
    ("cliquecount.cli", "load_edge_list", "graph.load"),
    ("cliquecount.cli", "degeneracy_orient", "degeneracy.orient"),
    ("cliquecount.counting", "count", "counting.count"),
    ("cliquecount.counting", "count_roots_global", "counting.global_walk"),
    ("cliquecount.counting", "traverse", "sct.traverse"),
    ("cliquecount.parallel", "count_global_parallel", "parallel.count"),
]
AGGREGATED = ("cliquecount.counting", "accumulate_leaf")
OUT_LISTS = ("cliquecount.degeneracy", "DegeneracyOrientation.out_neighbors",
             "degeneracy.out_lists")


class Tracer:
    """In-memory span recorder for one single-threaded process."""

    def __init__(self):
        self.spans: list[list] = []          # [name, start, end, parent]
        self.stack: list[int] = []
        self.aggregate: dict[int, list] = {}  # parent -> [calls, seconds, returned]
        self.results: dict[str, object] = {}  # span name -> last return value
        self.missing: list[str] = []
        self._originals: list[tuple] = []    # (owner, attribute, original)

    def call(self, name, fn, args, kwargs):
        index = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self.stack.append(index)
        try:
            result = fn(*args, **kwargs)
        finally:
            self.stack.pop()
            self.spans[index][2] = time.perf_counter()
        self.results[name] = result
        return result

    def wrap(self, module_name: str, attr: str, name: str) -> None:
        module = importlib.import_module(module_name)
        fn = getattr(module, attr, None)
        if fn is None:
            self.missing.append(f"{module_name}.{attr}")
            return

        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs)
        self._replace(module, attr, traced)

    def wrap_aggregated(self, module_name: str, attr: str) -> None:
        module = importlib.import_module(module_name)
        fn = getattr(module, attr, None)
        if fn is None:
            self.missing.append(f"{module_name}.{attr}")
            return
        clock = time.perf_counter

        def traced(*args, **kwargs):
            t0 = clock()
            result = fn(*args, **kwargs)
            dt = clock() - t0
            entry = self.aggregate.setdefault(self.stack[-1] if self.stack else -1,
                                              [0, 0.0, 0])
            entry[0] += 1
            entry[1] += dt
            entry[2] += result if isinstance(result, int) else 0
            return result
        self._replace(module, attr, traced)

    def wrap_property(self, module_name: str, path: str, name: str) -> None:
        module = importlib.import_module(module_name)
        cls_name, attr = path.split(".")
        cls = getattr(module, cls_name, None)
        prop = getattr(cls, "__dict__", {}).get(attr)
        if not isinstance(prop, property):
            self.missing.append(f"{module_name}.{path}")
            return
        tracer = self

        def fget(obj):
            return tracer.call(name, prop.fget, (obj,), {})
        self._replace(cls, attr, property(fget, doc=prop.__doc__))

    def _replace(self, owner, attr, value) -> None:
        self._originals.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        for module_name, attr, name in TARGETS:
            self.wrap(module_name, attr, name)
        self.wrap_aggregated(*AGGREGATED)
        self.wrap_property(*OUT_LISTS)

    def uninstall(self) -> None:
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    def document(self) -> dict:
        return {
            "spans": self.spans,
            "aggregate": {str(k): v for k, v in self.aggregate.items()},
            "missing": self.missing,
        }


def _cpu_seconds() -> float:
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def run(input_path: str, output: str, flags: list[str]) -> dict:
    """Untraced, traced and (global-only) parallel calls; returns the record."""
    from cliquecount import cli

    def argv(out):
        return ["count", input_path, "--threads", "1", "--output", out, *flags]

    base, ext = os.path.splitext(output)
    untraced = f"{base}.untraced{ext}"
    # The first call in a process pays for growing the heap; it warms up
    # both of the calls that are compared.
    codes = [cli.main(argv(untraced))]
    tracer = Tracer()
    tracer.install()
    codes.append(tracer.call("cli.main", cli.main, (argv(output),), {}))
    tracer.uninstall()
    t0 = time.perf_counter()
    codes.append(cli.main(argv(untraced)))
    doc = tracer.document()
    doc.update(untraced_s=time.perf_counter() - t0, exit_codes=codes)

    tables = tracer.results.get("counting.count")
    stats = getattr(tables, "stats", None)
    if stats is not None:
        doc["sct"] = {"nodes": stats.node_count, "leaves": stats.leaf_count,
                      "max_depth": stats.max_depth}
    orientation = tracer.results.get("degeneracy.orient")
    if orientation is not None and hasattr(orientation, "out_offsets"):
        import numpy as np
        out_degree = np.diff(orientation.out_offsets)
        doc["setup_probes"] = int(out_degree[orientation.out_targets].sum())

    graph = tracer.results.get("graph.load")
    if not flags and graph is not None and orientation is not None:
        from cliquecount import parallel as par
        if hasattr(par, "count_global_parallel"):
            cpu0 = _cpu_seconds()
            t0 = time.perf_counter()
            result = par.count_global_parallel(graph, orientation,
                                               workers=os.cpu_count() or 1)
            doc["parallel"] = {
                "count_s": time.perf_counter() - t0,
                "cpu_s": _cpu_seconds() - cpu0,
                "global": [str(c) for c in result.global_counts],
            }
    return doc


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--input", required=True)
    parser.add_argument("--output", required=True)
    parser.add_argument("--spans", required=True)
    parser.add_argument("flags", nargs="*")
    args = parser.parse_args(argv)
    doc = run(args.input, args.output, args.flags)
    with open(args.spans, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return 0 if not any(doc["exit_codes"]) else 1


if __name__ == "__main__":
    sys.exit(main())
