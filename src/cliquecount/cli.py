"""Command-line front end.

Subcommands:
    count        load a graph, count cliques, emit tables and a run report
    stats        degeneracy and core summary only
    verify       compare counter output against the brute-force enumerator
    inspect-sct  dump the materialized clique tree for small graphs

Counts go to stdout or --output as CSV (default) or JSON; the run report
(sizes, degeneracy, clique-tree shape, per-phase wall times) goes to
stderr or --report as JSON. Exit codes: 0 success, 1 runtime failure
(input file missing, unreadable or a truncated or corrupt gzip file,
parse error, size cap, counter overflow, a failed count self-check, a
worker process that died), 2 usage error, 3 verification mismatch.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
import zlib
from itertools import groupby
from operator import itemgetter

import numpy as np

from .degeneracy import core_numbers, degeneracy_orient
from .errors import CliqueCountError
from .graph import Graph, load_edge_list

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_USAGE = 2
EXIT_MISMATCH = 3

# Parser defaults, written out so that the parser imports none of the
# modules that own them (sct.DEFAULT_NODE_CAP, oracle.DEFAULT_CLIQUE_CAP,
# counting.EXACT and counting.FAST); tests check that they are equal.
NODE_CAP = 10 ** 6
CLIQUE_CAP = 10 ** 7
EXACT, FAST = "exact", "fast"


def _load(path: str) -> Graph:
    try:
        if path == "-":
            # Bytes, so that a line that is not UTF-8 is reported by number.
            return load_edge_list(getattr(sys.stdin, "buffer", sys.stdin))
        return load_edge_list(path)
    except (OSError, EOFError, zlib.error) as exc:
        # gzip raises EOFError for a truncated file and zlib.error for a
        # corrupt stream; neither is an OSError.
        reason = getattr(exc, "strerror", None) or exc
        raise CliqueCountError(f"{path}: {reason}") from None


def _write_global_csv(tables, out) -> None:
    for k in range(1, len(tables.global_counts)):
        out.write(f"{k},{tables.global_counts[k]}\n")


@functools.cache
def _digit_words() -> np.ndarray:
    """Decimal digits as words, built on first use.

    Entry s * 10^4 + g is the base-10^4 group g as four ASCII bytes in one
    little-endian uint32: s = 2 gives every digit, s = 1 a number's
    leading group, with its leading zeros as NUL bytes (0 stays "0"), and
    s = 0 all NUL bytes, for the zero groups ahead of that. Line text
    drops the NUL bytes.
    """
    group = np.arange(10 ** 4, dtype=np.uint16)
    digits = np.zeros((3, 10 ** 4, 4), dtype=np.uint8)
    for j, (place, lead) in enumerate(zip((1000, 100, 10, 1),
                                          (1000, 100, 10, 0))):
        digits[2, :, j] = group // place % 10 + ord("0")
        digits[1, :, j] = digits[2, :, j] * (group >= lead)
    return digits.view("<u4").ravel()


_COMMA, _NEWLINE = np.frombuffer(b",\0\0\0\n\0\0\0", dtype="<u4")


def _words(groups: np.ndarray) -> np.ndarray:
    """The digit words of numbers given as ``counting.decimal_groups``."""
    width = groups.shape[1]
    lead = np.full((len(groups), 1), width - 1, dtype=np.int16)
    for i in range(width - 2, -1, -1):
        lead[groups[:, i] != 0] = i
    state = np.sign(np.arange(width, dtype=np.int16) - lead) + 1
    return _digit_words().take(state * 10 ** 4 + groups)


def _number_words(values: np.ndarray) -> np.ndarray:
    """The digit words of non-negative int64 ``values``."""
    from . import counting
    return _words(counting.decimal_groups(values[None]))


def _lines(*fields: np.ndarray) -> bytes:
    """One line per row of the word arrays ``fields``, comma-separated."""
    comma = np.full((len(fields[0]), 1), _COMMA)
    mat = np.concatenate([x for field in fields for x in (field, comma)],
                         axis=1)
    mat[:, -1] = _NEWLINE
    return mat.tobytes().translate(None, b"\0")


def _write_local_csv(table, ids, out) -> None:
    """Lines "ids,k,count" of the nonzero counts of ``table``, in order.

    ``ids(lo, hi)`` gives the id columns of entities lo..hi - 1, arrays
    of non-negative integers; each entity's ids are formatted once. The
    lines go as bytes to the binary buffer of ``out`` where it has one,
    after what was written to ``out`` as text.
    """
    if hasattr(out, "buffer"):
        out.flush()
        write = out.buffer.write
    else:
        def write(data):
            out.write(data.decode("ascii"))
    for entity, ks, groups in table.entries():
        lo = int(entity[0])
        at = entity - lo
        write(_lines(*[_number_words(column)[at] for column in
                       ids(lo, int(entity[-1]) + 1)],
                     _number_words(ks), _words(groups)))


def _write_per_vertex_csv(tables, out) -> None:
    _write_local_csv(tables.per_vertex, lambda lo, hi: [np.arange(lo, hi)],
                     out)


def _write_per_edge_csv(tables, out) -> None:
    # Streams in canonical edge order; per-edge output can be very large.
    _write_local_csv(tables.per_edge, lambda lo, hi: np.divmod(
        tables.edge_codes[lo:hi], tables.n), out)


def _json_objects(table, indent: int):
    """The nonzero counts of ``table`` as JSON objects, chunk by chunk.

    Each chunk is a list of (entity, text) for the entities with a
    nonzero count, ascending: text is the entity's {"k": "count"} object
    as ``json.dump(..., indent=2)`` lays it out at ``indent`` spaces.
    """
    pad = "\n" + " " * indent
    for es, ks, groups in table.entries():
        counts = _lines(_words(groups)).decode("ascii").split("\n")
        yield [(e, "{" + ",".join([f'{pad}  "{k}": "{c}"'
                                  for _, k, c in group]) + pad + "}")
               for e, group in groupby(zip(es.tolist(), ks.tolist(), counts),
                                       key=itemgetter(0))]


def _json_edge_items(tables):
    """The per-edge list's items, every edge in order, chunk by chunk."""
    from . import counting

    def items(lo, hi, objects):
        us, vs = np.divmod(tables.edge_codes[lo:hi], tables.n)
        return [f"\n    [\n      {u},\n      {v},\n      "
                f"{objects.get(i, '{}')}\n    ]"
                for i, u, v in zip(range(lo, hi), us.tolist(), vs.tolist())]
    done = 0
    for chunk in _json_objects(tables.per_edge, 6):
        yield items(done, chunk[-1][0] + 1, dict(chunk))
        done = chunk[-1][0] + 1
    for lo in range(done, len(tables.edge_codes), counting.WRITE_CHUNK):
        yield items(lo, min(lo + counting.WRITE_CHUNK,
                            len(tables.edge_codes)), {})


def _write_json(graph, tables, out) -> None:
    """The counts as one JSON document, written chunk by chunk.

    The bytes are those of ``json.dump(doc, out, indent=2)`` and a
    newline, for doc = {"n", "m", "alpha", "max_clique_size", "global":
    {k: count}, "per_vertex": {v: {k: count}}, "per_edge": [[u, v, {k:
    count}], ...]}, counts as strings and nonzero only; "per_vertex"
    lists the vertices with a nonzero count, "per_edge" every edge.
    """
    head = json.dumps({
        "n": graph.n,
        "m": graph.m,
        "alpha": tables.alpha,
        "max_clique_size": tables.max_clique_size(),
        "global": {str(k): str(c)
                   for k, c in enumerate(tables.global_counts) if k > 0},
    }, indent=2)
    out.write(head[:-2])  # without the closing "\n}"
    sections = []
    if tables.per_vertex is not None:
        sections.append(("per_vertex", "{}", (
            [f'\n    "{v}": {text}' for v, text in chunk]
            for chunk in _json_objects(tables.per_vertex, 4))))
    if tables.per_edge is not None:
        sections.append(("per_edge", "[]", _json_edge_items(tables)))
    for key, brackets, chunks in sections:
        out.write(f',\n  "{key}": {brackets[0]}')
        sep = ""
        for items in chunks:
            out.write(sep + ",".join(items))
            sep = ","
        out.write(f"\n  {brackets[1]}" if sep else brackets[1])
    out.write("\n}\n")


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
        if output:
            _write_files([(output, lambda fh: _write_json(graph, tables, fh))])
        else:
            _write_json(graph, tables, sys.stdout)
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


def _emit_report(report: dict, path: str | None) -> None:
    """Write the run report, a JSON object of its fields that are set."""
    report = {k: v for k, v in report.items() if v is not None}
    if path:
        _write_files([(path, lambda fh: fh.write(json.dumps(report, indent=2)
                                                 + "\n"))])
    else:
        sys.stderr.write(json.dumps(report) + "\n")


def cmd_count(args) -> int:
    from . import counting
    t0 = time.perf_counter()
    graph = _load(args.input)
    t1 = time.perf_counter()
    orientation = degeneracy_orient(graph)
    t2 = time.perf_counter()
    tables = counting.count(
        graph, per_vertex=args.per_vertex, per_edge=args.per_edge,
        max_k=args.max_k, threads=args.threads, counters=args.counters,
        orientation=orientation)
    t3 = time.perf_counter()
    _emit_tables(graph, tables, args.format, args.output)
    t4 = time.perf_counter()

    mode = "global"
    if args.per_vertex:
        mode += "+per-vertex"
    if args.per_edge:
        mode += "+per-edge"
    # Fields left None are left out of the report; the rest keep this order.
    report = dict(
        input=args.input, n=graph.n, m=graph.m, mode=mode,
        threads=tables.workers,
        max_k=args.max_k, counters=args.counters, alpha=orientation.alpha,
        max_clique_size=tables.max_clique_size(),
        sct_node_count=tables.stats.node_count,
        sct_leaf_count=tables.stats.leaf_count,
        sct_max_depth=tables.stats.max_depth, sct_nodes_per_edge=None,
        times={"load_s": round(t1 - t0, 6), "orient_s": round(t2 - t1, 6),
               "count_s": round(t3 - t2, 6), "output_s": round(t4 - t3, 6)})
    if args.sct_stats:
        ratio = tables.stats.node_count / graph.m if graph.m else float(
            tables.stats.node_count)
        report["sct_nodes_per_edge"] = round(ratio, 6)
        sys.stderr.write(f"sct-stats: m={graph.m} "
                         f"nodes={tables.stats.node_count} "
                         f"nodes_per_edge={ratio:.6f}\n")
    _emit_report(report, args.report)

    if args.verify:
        from . import oracle
        # Checks the tables just emitted: local tallies only where they
        # hold local counts.
        census = oracle.enumerate_all_cliques(
            graph, store_cliques=False,
            tally_locals=args.per_vertex or args.per_edge)
        verdict = oracle.compare(census, tables)
        if not verdict:
            sys.stderr.write(f"verification failed: {verdict.detail}\n")
            return EXIT_MISMATCH
        sys.stderr.write("verification passed\n")
    return EXIT_OK


def cmd_stats(args) -> int:
    t0 = time.perf_counter()
    graph = _load(args.input)
    t1 = time.perf_counter()
    # Alpha and the innermost core depend on the core numbers alone, so
    # stats builds no ordering (see the degeneracy module).
    core = core_numbers(graph)
    alpha = int(core.max(initial=0))
    max_core_size = int(np.count_nonzero(core == alpha))
    t2 = time.perf_counter()
    doc = {
        "input": args.input,
        "n": graph.n,
        "m": graph.m,
        "alpha": alpha,
        "max_core_size": max_core_size,
        "times": {"load_s": round(t1 - t0, 6), "core_s": round(t2 - t1, 6)},
    }
    json.dump(doc, sys.stdout, indent=2)
    sys.stdout.write("\n")
    return EXIT_OK


def cmd_verify(args) -> int:
    from . import counting, oracle
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
    from .sct import materialize_sct
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
    count_p.add_argument("--threads", type=int, default=1, metavar="N",
                         help="worker processes for a global-only count "
                              "(default 1; local counts always use 1)")
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
                               const=EXACT, default=EXACT,
                               help="unbounded exact counters (default)")
    counter_group.add_argument("--fast-counters", dest="counters",
                               action="store_const", const=FAST,
                               help="counts checked against the signed "
                                    "64-bit range; aborts rather than wrap")
    count_p.set_defaults(func=cmd_count)

    stats_p = sub.add_parser("stats", help="degeneracy and core summary")
    stats_p.add_argument("input", help="edge-list path, or - for stdin")
    stats_p.set_defaults(func=cmd_stats)

    verify_p = sub.add_parser("verify",
                              help="compare against brute-force enumeration")
    verify_p.add_argument("input", help="edge-list path, or - for stdin")
    verify_p.add_argument("--limit", type=int, default=CLIQUE_CAP,
                          help="clique-count cap for the enumerator")
    verify_p.set_defaults(func=cmd_verify)

    inspect_p = sub.add_parser("inspect-sct",
                               help="dump the materialized clique tree")
    inspect_p.add_argument("input", help="edge-list path, or - for stdin")
    inspect_p.add_argument("--cap", type=int, default=NODE_CAP,
                           help="refuse trees with more nodes than this")
    inspect_p.add_argument("--as-records", action="store_true",
                           help="flat node records instead of indented text")
    inspect_p.add_argument("--output", default=None, metavar="PATH")
    inspect_p.set_defaults(func=cmd_inspect_sct)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "max_k", None) is not None and args.max_k < 1:
        parser.error("--max-k must be >= 1")
    if getattr(args, "threads", None) is not None and args.threads < 1:
        parser.error("--threads must be >= 1")
    try:
        return args.func(args)
    except CliqueCountError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_ERROR
    except MemoryError:
        sys.stderr.write("error: out of memory\n")
        return EXIT_ERROR
    except BrokenPipeError:
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
