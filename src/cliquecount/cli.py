"""Command-line front end.

Subcommands:
    count        load a graph, count cliques, emit tables and a run report
    stats        degeneracy and core summary only
    verify       compare counter output against the brute-force enumerator
    inspect-sct  dump the materialized clique tree for small graphs

Counts go to stdout or --output as CSV (default) or JSON; the run report
(sizes, degeneracy, clique-tree shape, per-phase wall times) goes to
stderr or --report as JSON. Exit codes: 0 success, 1 runtime failure
(input file missing or unreadable, parse error, size cap, counter
overflow), 2 usage error, 3 verification mismatch.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from . import counting, oracle
from .degeneracy import degeneracy_orient, degeneracy_stats
from .errors import CliqueCountError, CounterOverflowError
from .graph import Graph, load_edge_list
from .sct import DEFAULT_NODE_CAP, materialize_sct

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_USAGE = 2
EXIT_MISMATCH = 3

PARALLEL_AUTO_THRESHOLD = 50_000


@dataclass
class RunReport:
    """Machine-readable summary of one counting run."""
    input: str
    n: int
    m: int
    mode: str
    threads: int
    max_k: int | None
    counters: str
    alpha: int | None = None
    max_clique_size: int | None = None
    sct_node_count: int | None = None
    sct_leaf_count: int | None = None
    sct_max_depth: int | None = None
    sct_nodes_per_edge: float | None = None
    times: dict = field(default_factory=dict)

    def to_json(self, indent=None) -> str:
        payload = {k: v for k, v in self.__dict__.items() if v is not None}
        return json.dumps(payload, indent=indent)


def _load(path: str) -> Graph:
    try:
        if path == "-":
            # Bytes, so that a line that is not UTF-8 is reported by number.
            return load_edge_list(getattr(sys.stdin, "buffer", sys.stdin))
        return load_edge_list(path)
    except OSError as exc:
        raise CliqueCountError(f"{path}: {exc.strerror or exc}") from None


def _auto_threads(n: int) -> int:
    if n < PARALLEL_AUTO_THRESHOLD:
        return 1
    return os.cpu_count() or 1


def _write_global_csv(tables, out) -> None:
    for k in range(1, len(tables.global_counts)):
        out.write(f"{k},{tables.global_counts[k]}\n")


def _write_per_vertex_csv(tables, out) -> None:
    for vs, ks, cs in tables.per_vertex.entries():
        out.write("".join([f"{v},{k},{c}\n"
                           for v, k, c in zip(vs.tolist(), ks.tolist(), cs)]))


def _write_per_edge_csv(tables, out) -> None:
    # Streams in canonical edge order; per-edge output can be very large.
    # A chunk's edges are formatted once each, as line prefixes "u,v,".
    for eids, ks, cs in tables.per_edge.entries():
        first = int(eids[0])
        us, vs = np.divmod(tables.edge_codes[first:int(eids[-1]) + 1],
                           tables.n)
        prefix = [f"{u},{v}," for u, v in zip(us.tolist(), vs.tolist())]
        out.write("".join([f"{prefix[i]}{k},{c}\n" for i, k, c in
                           zip((eids - first).tolist(), ks.tolist(), cs)]))


def _json_document(graph, tables) -> dict:
    doc = {
        "n": graph.n,
        "m": graph.m,
        "alpha": tables.alpha,
        "max_clique_size": tables.max_clique_size(),
        "global": {str(k): str(c)
                   for k, c in enumerate(tables.global_counts) if k > 0},
    }
    if tables.per_vertex is not None:
        vertices = doc["per_vertex"] = {}
        for vs, ks, cs in tables.per_vertex.entries():
            for v, k, c in zip(vs.tolist(), ks.tolist(), cs):
                vertices.setdefault(str(v), {})[str(k)] = str(c)
    if tables.per_edge is not None:
        edges = doc["per_edge"] = [[u, v, {}] for u, v in tables.edges()]
        for eids, ks, cs in tables.per_edge.entries():
            for eid, k, c in zip(eids.tolist(), ks.tolist(), cs):
                edges[eid][2][str(k)] = str(c)
    return doc


def _sibling_path(path: str, tag: str) -> str:
    base, ext = os.path.splitext(path)
    return f"{base}.{tag}{ext or '.csv'}"


def _write_files(jobs) -> None:
    """Write each (path, write) pair; ``write`` gets an open text file.

    Every file is first written to a temporary name beside its path, and
    all of them are moved into place only once each is complete, so a
    failure leaves no partial or truncated file behind. A symbolic link
    (such as /dev/stdout) or a path that exists but is no regular file (a
    device such as /dev/null, a pipe) is written in place, since a rename
    would replace it. An ``OSError`` becomes a one-line
    ``CliqueCountError`` naming the path.
    """
    staged = []
    path = None
    try:
        for path, write in jobs:
            if os.path.islink(path) or (os.path.exists(path)
                                        and not os.path.isfile(path)):
                with open(path, "w", encoding="utf-8") as fh:
                    write(fh)
                continue
            directory, name = os.path.split(path)
            temp = os.path.join(directory, f".{name}.{os.getpid()}.tmp")
            with open(temp, "x", encoding="utf-8") as fh:
                staged.append((temp, path))
                write(fh)
        for temp, path in staged:
            os.replace(temp, path)
        staged = []
    except OSError as exc:
        raise CliqueCountError(f"{path}: {exc.strerror or exc}") from None
    finally:
        for temp, _ in staged:
            try:
                os.remove(temp)
            except OSError:
                pass


def _emit_tables(graph, tables, fmt: str, output: str | None) -> None:
    if fmt == "json":
        doc = _json_document(graph, tables)

        def write_json(fh):
            json.dump(doc, fh, indent=2)
            fh.write("\n")
        if output:
            _write_files([(output, write_json)])
        else:
            write_json(sys.stdout)
        return
    if output:
        jobs = [(output, lambda fh: _write_global_csv(tables, fh))]
        if tables.per_vertex is not None:
            jobs.append((_sibling_path(output, "per-vertex"),
                         lambda fh: _write_per_vertex_csv(tables, fh)))
        if tables.per_edge is not None:
            jobs.append((_sibling_path(output, "per-edge"),
                         lambda fh: _write_per_edge_csv(tables, fh)))
        _write_files(jobs)
    else:
        out = sys.stdout
        _write_global_csv(tables, out)
        if tables.per_vertex is not None:
            out.write("# per-vertex\n")
            _write_per_vertex_csv(tables, out)
        if tables.per_edge is not None:
            out.write("# per-edge\n")
            _write_per_edge_csv(tables, out)


def _emit_report(report: RunReport, path: str | None) -> None:
    if path:
        _write_files([(path, lambda fh: fh.write(report.to_json(indent=2)
                                                 + "\n"))])
    else:
        sys.stderr.write(report.to_json() + "\n")


def cmd_count(args) -> int:
    t0 = time.perf_counter()
    graph = _load(args.input)
    t1 = time.perf_counter()
    orientation = degeneracy_orient(graph)
    t2 = time.perf_counter()
    local = args.per_vertex or args.per_edge
    threads = args.threads or (1 if local else _auto_threads(graph.n))
    tables = counting.count(
        graph, per_vertex=args.per_vertex, per_edge=args.per_edge,
        max_k=args.max_k, threads=threads, counters=args.counters,
        orientation=orientation)
    t3 = time.perf_counter()
    _emit_tables(graph, tables, args.format, args.output)
    t4 = time.perf_counter()

    mode = "global"
    if args.per_vertex:
        mode += "+per-vertex"
    if args.per_edge:
        mode += "+per-edge"
    report = RunReport(
        input=args.input, n=graph.n, m=graph.m, mode=mode,
        threads=1 if local else threads,
        max_k=args.max_k, counters=args.counters, alpha=orientation.alpha,
        max_clique_size=tables.max_clique_size(),
        sct_node_count=tables.stats.node_count,
        sct_leaf_count=tables.stats.leaf_count,
        sct_max_depth=tables.stats.max_depth,
        times={"load_s": round(t1 - t0, 6), "orient_s": round(t2 - t1, 6),
               "count_s": round(t3 - t2, 6), "output_s": round(t4 - t3, 6)})
    if args.sct_stats:
        ratio = tables.stats.node_count / graph.m if graph.m else float(
            tables.stats.node_count)
        report.sct_nodes_per_edge = round(ratio, 6)
        sys.stderr.write(f"sct-stats: m={graph.m} "
                         f"nodes={tables.stats.node_count} "
                         f"nodes_per_edge={ratio:.6f}\n")
    _emit_report(report, args.report)

    if args.verify:
        census = oracle.enumerate_all_cliques(graph, store_cliques=False)
        full = counting.count(graph, per_vertex=True, per_edge=True,
                              orientation=orientation)
        verdict = oracle.compare(census, full)
        if not verdict:
            sys.stderr.write(f"verification failed: {verdict.detail}\n")
            return EXIT_MISMATCH
        sys.stderr.write("verification passed\n")
    return EXIT_OK


def cmd_stats(args) -> int:
    t0 = time.perf_counter()
    graph = _load(args.input)
    t1 = time.perf_counter()
    orientation = degeneracy_orient(graph)
    t2 = time.perf_counter()
    stats = degeneracy_stats(orientation)
    doc = {
        "input": args.input,
        "n": graph.n,
        "m": graph.m,
        "alpha": stats["alpha"],
        "max_core_size": stats["max_core_size"],
        "times": {"load_s": round(t1 - t0, 6), "orient_s": round(t2 - t1, 6)},
    }
    json.dump(doc, sys.stdout, indent=2)
    sys.stdout.write("\n")
    return EXIT_OK


def cmd_verify(args) -> int:
    graph = _load(args.input)
    census = oracle.enumerate_all_cliques(graph, limit=args.limit,
                                          store_cliques=False)
    tables = counting.count(graph, per_vertex=True, per_edge=True)
    verdict = oracle.compare(census, tables)
    if not verdict:
        print(f"FAIL: {verdict.detail}")
        return EXIT_MISMATCH
    print(f"PASS: {graph.n} vertices, {graph.m} edges, "
          f"{sum(census.global_counts)} cliques, "
          f"max clique {census.max_clique_size()}")
    return EXIT_OK


def cmd_inspect_sct(args) -> int:
    graph = _load(args.input)
    tree = materialize_sct(graph, node_cap=args.cap)
    if args.as_records:
        lines = []
        for node_id, parent, kind, vertex, label in tree.to_records():
            label_txt = " ".join(map(str, label))
            vertex_txt = "" if vertex is None else str(vertex)
            lines.append(f"{node_id}\t{parent}\t{kind}\t{vertex_txt}\t{label_txt}")
        text = "\n".join(lines) + "\n"
    else:
        text = tree.to_text()
    if args.output:
        _write_files([(args.output, lambda fh: fh.write(text))])
    else:
        sys.stdout.write(text)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cliquecount",
        description="Exact k-clique counts for all k, without enumeration.")
    sub = parser.add_subparsers(dest="command", required=True)

    count_p = sub.add_parser("count", help="count cliques")
    count_p.add_argument("input", help="edge-list path, or - for stdin")
    count_p.add_argument("--per-vertex", action="store_true",
                         help="also count cliques through each vertex")
    count_p.add_argument("--per-edge", action="store_true",
                         help="also count cliques through each edge")
    count_p.add_argument("--max-k", type=int, default=None, metavar="K",
                         help="count clique sizes up to K only")
    count_p.add_argument("--threads", type=int, default=None, metavar="N",
                         help="worker processes for global counting "
                              "(default: all cores for a global-only count "
                              "of a large graph, else 1)")
    count_p.add_argument("--format", choices=("csv", "json"), default="csv")
    count_p.add_argument("--output", default=None, metavar="PATH",
                         help="write counts here instead of stdout")
    count_p.add_argument("--report", default=None, metavar="PATH",
                         help="write the run report here instead of stderr")
    count_p.add_argument("--verify", action="store_true",
                         help="cross-check against brute-force enumeration "
                              "(small graphs)")
    count_p.add_argument("--sct-stats", action="store_true",
                         help="also report clique-tree size vs edge count")
    counter_group = count_p.add_mutually_exclusive_group()
    counter_group.add_argument("--exact", dest="counters", action="store_const",
                               const=counting.EXACT, default=counting.EXACT,
                               help="unbounded exact counters (default)")
    counter_group.add_argument("--fast-counters", dest="counters",
                               action="store_const", const=counting.FAST,
                               help="counts checked against the signed "
                                    "64-bit range; aborts rather than wrap")
    count_p.set_defaults(func=cmd_count)

    stats_p = sub.add_parser("stats", help="degeneracy and core summary")
    stats_p.add_argument("input", help="edge-list path, or - for stdin")
    stats_p.set_defaults(func=cmd_stats)

    verify_p = sub.add_parser("verify",
                              help="compare against brute-force enumeration")
    verify_p.add_argument("input", help="edge-list path, or - for stdin")
    verify_p.add_argument("--limit", type=int, default=oracle.DEFAULT_CLIQUE_CAP,
                          help="clique-count cap for the enumerator")
    verify_p.set_defaults(func=cmd_verify)

    inspect_p = sub.add_parser("inspect-sct",
                               help="dump the materialized clique tree")
    inspect_p.add_argument("input", help="edge-list path, or - for stdin")
    inspect_p.add_argument("--cap", type=int, default=DEFAULT_NODE_CAP,
                           help="refuse trees with more nodes than this")
    inspect_p.add_argument("--as-records", action="store_true",
                           help="flat node records instead of indented text")
    inspect_p.add_argument("--output", default=None, metavar="PATH")
    inspect_p.set_defaults(func=cmd_inspect_sct)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.WARNING,
                        format="%(levelname)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "max_k", None) is not None and args.max_k < 1:
        parser.error("--max-k must be >= 1")
    if getattr(args, "threads", None) is not None and args.threads < 1:
        parser.error("--threads must be >= 1")
    try:
        return args.func(args)
    except CounterOverflowError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_ERROR
    except CliqueCountError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_ERROR
    except BrokenPipeError:
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
