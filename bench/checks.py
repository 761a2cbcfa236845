"""Checks of cliquecount's outputs against the independent reference values.

Every function returns a list of failure messages; an empty list is a pass.
Nothing here compares against a stored copy of the program's own output.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

from inputs import Reference


def _read_global(path: str) -> dict[int, int]:
    counts = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            k, c = line.split(",")
            counts[int(k)] = int(c)
    return counts


def _read_table(path: str, width: int):
    """Id columns as an int64 array of shape (rows, width - 1), counts as ints."""
    with open(path, encoding="utf-8") as fh:
        fields = fh.read().replace(",", " ").split()
    if len(fields) % width:
        raise ValueError(f"{os.path.basename(path)}: ragged rows")
    ids = np.array(fields, dtype=object).reshape(-1, width)
    counts = [int(c) for c in ids[:, -1]]
    return ids[:, :-1].astype(np.int64), counts


def _sibling(path: str, tag: str) -> str:
    base, ext = os.path.splitext(path)
    return f"{base}.{tag}{ext or '.csv'}"


def check_stats(ref: Reference, stdout: str) -> list[str]:
    """The ``cliquecount stats`` document agrees with the reference values."""
    try:
        doc = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return [f"stats: output is not JSON ({exc})"]
    got = tuple(doc.get(key) for key in ("n", "m", "alpha", "max_core_size"))
    want = (ref.n, ref.m, ref.alpha, ref.max_core_size)
    if got != want:
        return [f"stats: n, m, alpha, max_core_size = {got}; expected {want}"]
    return []


def check_global(ref: Reference, counts: dict[int, int]) -> list[str]:
    """Global vector: exact values known independently, plus the planted tail."""
    errors = []
    top = max(counts, default=0)
    if sorted(counts) != list(range(1, top + 1)):
        errors.append(f"global: sizes {sorted(counts)[:5]}... are not 1..{top}")
    if top != ref.max_clique:
        errors.append(f"global: max clique {top}, expected {ref.max_clique}")
    for k, c in ref.global_exact.items():
        if counts.get(k) != c:
            errors.append(f"global: C_{k} = {counts.get(k)}, expected {c}")
    if ref.planted is not None:
        size = len(ref.planted)
        for k in range(ref.planted_above + 1, size + 1):
            if counts.get(k) != math.comb(size, k):
                errors.append(f"global: C_{k} = {counts.get(k)}, "
                              f"expected C({size}, {k})")
    return errors


def _sums_by_k(ks: np.ndarray, counts: list[int]) -> dict[int, int]:
    sums: dict[int, int] = {}
    for k, c in zip(ks.tolist(), counts):
        sums[k] = sums.get(k, 0) + c
    return sums


def _rows_for(keys: np.ndarray, ks: np.ndarray, counts: list[int], wanted):
    """Per-key {k: count} rows for the keys in ``wanted``."""
    rows = {key: {} for key in wanted}
    for i in np.flatnonzero(np.isin(keys, list(wanted))).tolist():
        rows[int(keys[i])][int(ks[i])] = counts[i]
    return rows


def check_per_vertex(ref: Reference, global_counts, path: str) -> list[str]:
    ids, counts = _read_table(path, 3)
    v, ks = ids[:, 0], ids[:, 1]
    n = ref.n
    errors = []
    if len(np.unique(v * 128 + ks)) != len(v):
        errors.append("per-vertex: duplicate (vertex, k) rows")
    if v.min() < 0 or v.max() >= n:
        errors.append("per-vertex: vertex id out of range")
        return errors
    sums = _sums_by_k(ks, counts)
    expected = {k: k * c for k, c in global_counts.items()}
    if sums != expected:
        bad = sorted(k for k in set(sums) | set(expected)
                     if sums.get(k) != expected.get(k))
        errors.append(f"per-vertex: sum_v c_k(v) != k*C_k for k in {bad[:8]}")
    for k, want in ((1, np.ones(n, dtype=np.int64)), (2, ref.degrees),
                    (3, np.asarray(ref.tri_matrix.sum(axis=1)).ravel() // 2)):
        got = np.zeros(n, dtype=np.int64)
        sel = ks == k
        got[v[sel]] = [c for c, s in zip(counts, sel) if s]
        if not np.array_equal(got, want):
            bad = np.flatnonzero(got != want)[:5].tolist()
            errors.append(f"per-vertex: c_{k}(v) wrong for vertices {bad}")
    size = len(ref.planted)
    want = {k: math.comb(size - 1, k - 1) for k in range(1, size + 1)}
    for key, row in _rows_for(v, ks, counts, ref.planted.tolist()).items():
        if row != want:
            errors.append(f"per-vertex: planted vertex {key} row is wrong")
            break
    for key, row in _rows_for(v, ks, counts, ref.vertex_samples).items():
        if row != ref.vertex_samples[key]:
            errors.append(f"per-vertex: sampled vertex {key}: {row} != "
                          f"{ref.vertex_samples[key]}")
    return errors


def check_per_edge(ref: Reference, global_counts, path: str) -> list[str]:
    ids, counts = _read_table(path, 4)
    u, v, ks = ids[:, 0], ids[:, 1], ids[:, 2]
    n = ref.n
    errors = []
    if np.any(u >= v) or u.min() < 0 or v.max() >= n:
        errors.append("per-edge: endpoints not ordered u < v within range")
        return errors
    keys = u * n + v
    if len(np.unique(keys * 128 + ks)) != len(keys):
        errors.append("per-edge: duplicate (u, v, k) rows")
    sums = _sums_by_k(ks, counts)
    expected = {k: math.comb(k, 2) * c for k, c in global_counts.items() if k >= 2}
    if sums != expected:
        bad = sorted(k for k in set(sums) | set(expected)
                     if sums.get(k) != expected.get(k))
        errors.append(f"per-edge: sum_e c_k(e) != C(k,2)*C_k for k in {bad[:8]}")
    tri = ref.tri_matrix.tocoo()
    upper = tri.row < tri.col
    edge_keys = np.unique(ref.edge_keys)
    for k, want_keys, want_counts in (
            (2, edge_keys, np.ones(len(edge_keys), dtype=np.int64)),
            (3, tri.row[upper].astype(np.int64) * n + tri.col[upper],
             tri.data[upper])):
        sel = ks == k
        got = sorted(zip(keys[sel].tolist(), (c for c, s in zip(counts, sel) if s)))
        want = sorted(zip(want_keys.tolist(), want_counts.tolist()))
        if got != want:
            errors.append(f"per-edge: c_{k}(e) rows differ from the reference")
    size = len(ref.planted)
    want = {k: math.comb(size - 2, k - 2) for k in range(2, size + 1)}
    planted = ref.planted
    planted_keys = [int(a) * n + int(b) for i, a in enumerate(planted)
                    for b in planted[i + 1:]]
    for key, row in _rows_for(keys, ks, counts, planted_keys).items():
        if row != want:
            errors.append(f"per-edge: planted edge {divmod(key, n)} row is wrong")
            break
    samples = {a * n + b: row for (a, b), row in ref.edge_samples.items()}
    for key, row in _rows_for(keys, ks, counts, samples).items():
        if row != samples[key]:
            errors.append(f"per-edge: sampled edge {divmod(key, n)}: {row} != "
                          f"{samples[key]}")
    return errors


def check_count(ref: Reference, output: str) -> list[str]:
    """All checks that apply to one ``cliquecount count --output`` run."""
    try:
        counts = _read_global(output)
        errors = check_global(ref, counts)
        if ref.tri_matrix is not None:
            errors += check_per_vertex(ref, counts, _sibling(output, "per-vertex"))
            errors += check_per_edge(ref, counts, _sibling(output, "per-edge"))
    except (OSError, ValueError) as exc:
        errors = [f"unreadable output: {exc}"]
    return errors
