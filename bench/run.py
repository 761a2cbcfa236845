"""cliquecount benchmark: seeded inputs, real CLI runs, independent checks.

    python3 bench/run.py --workload geo-global --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; cliquecount is imported from
``src/``, so nothing needs installing. The input for ``--workload`` is
generated from ``--seed`` (see inputs.py) together with reference values
computed apart from the program, before any timing starts.

``--trace 0`` repeats rounds of one ``cliquecount stats`` process and one
``cliquecount count --threads 1`` process, each in a fresh interpreter,
until ``--seconds`` have passed, checks every output, and reports the
median end-to-end metrics. ``--trace 1`` runs tracer.py once in a fresh
process and reports the per-layer metrics. Either way the last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it print each
metric with its unit. Set-up and check progress goes to standard error.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from checks import check_count, check_global, check_stats  # noqa: E402
from inputs import WORKLOADS, generate, reference  # noqa: E402

ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, ".work")
LAUNCH = os.path.join(HERE, "launch.py")

# No single process may run past this many seconds after the run started,
# so a hung program still ends the benchmark within its time limit.
RUN_DEADLINE_S = 150

MIB = 1024 * 1024

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "graph.load_s": "s", "graph.edges_per_s": "1/s",
    "degeneracy.orient_s": "s", "degeneracy.out_lists_s": "s",
    "counting.count_s": "s", "counting.global_walk_s": "s", "counting.self_s": "s",
    "counting.accumulate_s": "s", "counting.leaf_increments": "count",
    "counting.setup_probes": "count",
    "sct.walk_s": "s", "sct.nodes": "count", "sct.leaves": "count",
    "sct.max_depth": "count", "sct.nodes_per_s": "1/s",
    "parallel.count_s": "s", "parallel.cpu_s": "s", "parallel.speedup": "ratio",
    "cli.main_s": "s", "cli.self_s": "s", "cli.output_mb": "MB",
    "trace.overhead_s": "s",
}


def log(message: str) -> None:
    sys.stderr.write(f"[bench] {message}\n")
    sys.stderr.flush()


class Process:
    """One finished child process: exit code, wall, CPU and peak RSS."""

    def __init__(self, argv, stdout_path, deadline):
        env = dict(os.environ, PYTHONPATH=SRC)
        usage_path = stdout_path + ".usage"
        timeout = max(1.0, deadline - time.monotonic())
        with open(stdout_path, "wb") as out, open(stdout_path + ".err", "wb") as err:
            subprocess.run([sys.executable, LAUNCH, usage_path, str(timeout), *argv],
                           stdout=out, stderr=err, env=env, cwd=ROOT, check=True,
                           timeout=timeout + 10)
        with open(usage_path, encoding="utf-8") as fh:
            usage = json.load(fh)
        self.code = usage["code"]
        self.wall_s = usage["wall_s"]
        self.cpu_s = usage["cpu_s"]
        self.peak_rss_mb = usage["peak_rss_kib"] * 1024 / MIB
        with open(stdout_path, encoding="utf-8", errors="replace") as fh:
            self.stdout = fh.read()
        with open(stdout_path + ".err", encoding="utf-8", errors="replace") as fh:
            self.stderr = fh.read()

    def failure(self, what: str) -> list[str]:
        if self.code == 0:
            return []
        tail = self.stderr.strip().splitlines()[-1:] or [""]
        return [f"{what} exited {self.code}: {tail[0]}"]


def cli(*args: str) -> list[str]:
    return [sys.executable, "-m", "cliquecount.cli", *args]


def timed(workload, ref, input_path, work, seconds, deadline):
    """Rounds of stats + count processes for ``seconds``; end-to-end metrics."""
    flags = WORKLOADS[workload][2]
    output = os.path.join(work, "counts.csv")
    samples = {name: [] for name in END_TO_END_UNITS}
    attempted = failed = 0
    correct = True
    start = time.perf_counter()
    while attempted == 0 or time.perf_counter() - start < seconds:
        stats = Process(cli("stats", input_path), os.path.join(work, "stats.out"),
                        deadline)
        count = Process(cli("count", input_path, "--threads", "1",
                            "--output", output, *flags),
                        os.path.join(work, "count.out"), deadline)
        attempted += 2
        for proc, what, check in (
                (stats, "stats", lambda: check_stats(ref, stats.stdout)),
                (count, "count", lambda: check_count(ref, output))):
            errors = proc.failure(what) or check()
            if errors:
                failed += 1
                correct = correct and proc.code != 0
                log(f"{what} FAILED: " + "; ".join(errors[:3]))
            elif what == "stats":
                samples["setup_s"].append(proc.wall_s)
            else:
                samples["wall_s"].append(proc.wall_s)
                samples["cpu_s"].append(proc.cpu_s)
                samples["peak_rss_mb"].append(proc.peak_rss_mb)
        log(f"round {attempted // 2}: stats {stats.wall_s:.3f} s, "
            f"count {count.wall_s:.3f} s wall {count.cpu_s:.3f} s cpu "
            f"{count.peak_rss_mb:.1f} MB")
        for name in os.listdir(work):
            if name.startswith("counts."):
                os.remove(os.path.join(work, name))
        if time.monotonic() > deadline:
            break
    metrics = {name: statistics.median(values)
               for name, values in samples.items() if values}
    return correct, attempted, failed, metrics


def _span_metrics(doc, m):
    """Per-layer metrics from the traced process's spans."""
    spans = doc["spans"]
    aggregate = {int(k): v for k, v in doc["aggregate"].items()}
    duration = [end - begin for _, begin, end, _ in spans]
    main = next(i for i, s in enumerate(spans) if s[0] == "cli.main")
    inside = [i for i, s in enumerate(spans)
              if i > main and s[2] <= spans[main][2]]

    def first(name):
        return next((i for i in inside if spans[i][0] == name), None)

    def self_time(i):
        children = sum(duration[j] for j in inside if spans[j][3] == i)
        return duration[i] - children - aggregate.get(i, [0, 0.0, 0])[1]

    found, absent = {}, []

    def put(name, value):
        if value is None:
            absent.append(name)
        else:
            found[name] = value

    def span_s(name):
        i = first(name)
        return None if i is None else duration[i]

    load, orient, count = span_s("graph.load"), span_s("degeneracy.orient"), \
        span_s("counting.count")
    walks = [i for i in inside if spans[i][0] == "counting.global_walk"]
    walk_s = sum(duration[i] for i in walks) if walks else None
    traverses = [i for i in inside if spans[i][0] == "sct.traverse"]
    leaf = [v for k, v in aggregate.items() if k in inside]
    put("graph.load_s", load)
    put("graph.edges_per_s", m / load if load else None)
    put("degeneracy.orient_s", orient)
    put("degeneracy.out_lists_s", span_s("degeneracy.out_lists"))
    put("counting.count_s", count)
    put("counting.global_walk_s", walk_s)
    count_i = first("counting.count")
    put("counting.self_s", None if count_i is None else self_time(count_i))
    put("counting.accumulate_s", sum(v[1] for v in leaf) if leaf else None)
    put("counting.leaf_increments", sum(v[2] for v in leaf) if leaf else None)
    put("counting.setup_probes", doc.get("setup_probes"))
    put("sct.walk_s", sum(self_time(i) for i in traverses) if traverses else None)
    sct = doc.get("sct", {})
    for key in ("nodes", "leaves", "max_depth"):
        put(f"sct.{key}", sct.get(key))
    put("sct.nodes_per_s", sct["nodes"] / walk_s if walk_s and sct else None)
    par = doc.get("parallel")
    put("parallel.count_s", par and par["count_s"])
    put("parallel.cpu_s", par and par["cpu_s"])
    put("parallel.speedup", count / par["count_s"] if par and count else None)
    put("cli.main_s", duration[main])
    parts = (load, orient, count)
    put("cli.self_s", None if None in parts else duration[main] - sum(parts))
    put("trace.overhead_s", duration[main] - doc["untraced_s"])
    return found, absent


def traced(workload, ref, input_path, work, seconds, deadline):
    """One traced process; per-layer metrics plus its output checks."""
    flags = WORKLOADS[workload][2]
    output = os.path.join(work, "counts.csv")
    spans_path = os.path.join(work, "spans.json")
    argv = [sys.executable, os.path.join(HERE, "tracer.py"), "--input", input_path,
            "--output", output, "--spans", spans_path]
    proc = Process([*argv, "--", *flags], os.path.join(work, "trace.out"), deadline)
    errors = proc.failure("trace")
    if errors:
        log("trace FAILED: " + "; ".join(errors))
        return True, 1, 1, {}
    with open(spans_path, encoding="utf-8") as fh:
        doc = json.load(fh)
    errors = check_count(ref, output)
    par = doc.get("parallel")
    if par:
        counts = {k: int(c) for k, c in enumerate(par["global"]) if k > 0}
        errors += [f"parallel {e}" for e in check_global(ref, counts)]
    output_bytes = sum(os.path.getsize(os.path.join(work, name))
                       for name in os.listdir(work)
                       if name.startswith("counts.") and ".untraced" not in name)
    found, absent = _span_metrics(doc, ref.m)
    found["cli.output_mb"] = output_bytes / MIB
    for name in doc["missing"]:
        log(f"wrapped name missing, its spans are not measured: {name}")
    if absent:
        print("not measured on this workload (reported as 0): " + ", ".join(absent))
    metrics = {name: found.get(name, 0) for name in PER_LAYER_UNITS}
    if errors:
        log("trace output FAILED: " + "; ".join(errors[:3]))
    return not errors, 1, int(bool(errors)), metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="cliquecount benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_DEADLINE_S
    if not os.path.isfile(os.path.join(SRC, "cliquecount", "cli.py")):
        log(f"cliquecount sources not found under {SRC}; run from a source checkout")
        return 2

    t0 = time.perf_counter()
    text, edges, planted = generate(args.workload, args.seed)
    ref = reference(args.workload, edges, planted, args.seed)
    log(f"{args.workload} seed {args.seed}: n={ref.n} m={ref.m}, input and "
        f"reference values in {time.perf_counter() - t0:.1f} s")
    os.makedirs(WORK, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=WORK)
    try:
        input_path = os.path.join(work, "graph.txt")
        with open(input_path, "w", encoding="utf-8") as fh:
            fh.write(text)
        del text
        # One untimed process on a tiny graph writes the bytecode cache, where
        # Python keeps one, so no timed process pays for it.
        warm = os.path.join(work, "warm.txt")
        with open(warm, "w", encoding="utf-8") as fh:
            fh.write("a b\nb c\n")
        Process(cli("stats", warm), os.path.join(work, "warm.out"), deadline)
        measure = traced if args.trace else timed
        correct, attempted, failed, metrics = measure(
            args.workload, ref, input_path, work, args.seconds, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    print(f"{args.workload} seed {args.seed}: attempted {attempted}, failed {failed}")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": value, "unit": units[name]}
                          for name, value in metrics.items()}}
    print(json.dumps(result))
    return 0 if metrics.keys() == units.keys() else 1


if __name__ == "__main__":
    sys.exit(main())
