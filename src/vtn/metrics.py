"""Objective evaluation: DTW alignment, MCD, log-F0 correlation, duration ratio."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import MetricUndefinedError, ShapeError
from .features import FeatureSequence, VOICED_THRESHOLD

MCD_CONST = 10.0 / math.log(10.0)
LDR_WINDOW = 10  # aligned path steps per local-slope estimate
DTW_BLOCK_ELEMENTS = 1 << 17  # elements per (D, rows, N_b) local-cost block: 1 MiB, cache-sized


@dataclass
class WarpPath:
    """Monotone alignment from (1, 1) to (N_c, N_r), stored 0-based."""

    pairs: np.ndarray  # (steps, 2) of (n_conv, n_ref) indices

    def __len__(self):
        return len(self.pairs)


def dtw(a: np.ndarray, b: np.ndarray) -> tuple[WarpPath, float]:
    """Minimal-cost monotone alignment of two (D x N) sequences under
    Euclidean local cost, steps {(1,1), (1,0), (0,1)} with ties broken in
    that order."""
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    if a.ndim != 2 or b.ndim != 2 or a.shape[0] != b.shape[0]:
        raise ShapeError(f"dtw: incompatible shapes {a.shape}, {b.shape}")
    n_a, n_b = a.shape[1], b.shape[1]
    if n_a == 0 or n_b == 0 or a.shape[0] == 0:
        raise ShapeError(f"dtw: empty sequence or no feature rows {a.shape}, {b.shape}")
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise MetricUndefinedError("dtw: non-finite value in an input sequence")

    # acc[i + 1, j + 1] holds the local cost of (i, j) until the sweep below
    # replaces it by the accumulated cost; row 0 and column 0 are the inf
    # border that stands in for the missing predecessors of the first row and
    # column.
    w = n_b + 1
    acc = np.full((n_a + 1, w), np.inf)
    _local_costs(a, b, acc)

    # Sweep anti-diagonals s = i + j. Cell (i, s - i) sits at flat index
    # i * N_b + s + w + 1, so each diagonal and its three predecessor sets
    # are stride-N_b slices.
    flat = acc.ravel()
    best = np.empty(min(n_a, n_b))
    for s in range(1, n_a + n_b - 1):
        i_lo, i_hi = max(0, s - n_b + 1), min(s, n_a - 1)
        lo, hi = s + w + 1 + i_lo * n_b, s + w + 2 + i_hi * n_b
        t = best[:i_hi - i_lo + 1]
        np.minimum(flat[lo - w - 1:hi - w - 1:n_b], flat[lo - w:hi - w:n_b], out=t)
        np.minimum(t, flat[lo - 1:hi - 1:n_b], out=t)
        cell = flat[lo:hi:n_b]
        np.add(t, cell, out=cell)
    if acc[-1, -1] == np.inf:
        raise MetricUndefinedError("dtw: the alignment cost overflows float64")

    # Trace back over the final accumulated costs with the sweep's rule: the
    # b step when it is below both others, else the a step when it is below
    # the diagonal, else the diagonal.  The inf border keeps the path inside.
    i, j = n_a - 1, n_b - 1
    pairs = [(i, j)]
    while i or j:
        diag, up, left = acc.item(i, j), acc.item(i, j + 1), acc.item(i + 1, j)
        if left < min(diag, up):
            j -= 1
        elif up < diag:
            i -= 1
        else:
            i, j = i - 1, j - 1
        pairs.append((i, j))
    pairs.reverse()
    return WarpPath(np.asarray(pairs, dtype=np.int64)), float(acc[-1, -1])


def _local_costs(a: np.ndarray, b: np.ndarray, acc: np.ndarray) -> None:
    """Write the Euclidean distance between column i of a and column j of b
    into acc[i + 1, j + 1].  Each distance adds its D squared differences in
    feature order, feature 0 first, whatever the memory layout of a and b.

    Row blocks go through one feature-major (D, rows, N_b) buffer, so every
    numpy call runs over whole (rows, N_b) planes.
    """
    d, n_a = a.shape
    n_b = b.shape[1]
    b = np.ascontiguousarray(b)  # frame-contiguous b: one copy, not a strided read per block
    rows = max(1, DTW_BLOCK_ELEMENTS // (d * n_b))
    buf = np.empty(d * min(rows, n_a) * n_b)
    for i0 in range(0, n_a, rows):
        i1 = min(i0 + rows, n_a)
        x = buf[:d * (i1 - i0) * n_b].reshape(d, i1 - i0, n_b)
        np.copyto(x, a[:, i0:i1, None])  # numpy subtracts a broadcast operand slower
        np.subtract(x, b[:, None, :], out=x)
        np.multiply(x, x, out=x)
        total = x[0]
        for plane in x[1:]:  # not np.add.reduce: it sums a one-cell plane pairwise
            total += plane
        np.sqrt(total, out=acc[i0 + 1:i1 + 1, 1:])


def align(converted: FeatureSequence, reference: FeatureSequence) -> WarpPath:
    """DTW path on the MCC rows only, so alignment is content-driven."""
    n_mcc = converted.n_mcc
    if reference.n_mcc != n_mcc:
        raise ShapeError("MCC row counts differ")
    path, _ = dtw(converted.data[:n_mcc], reference.data[:n_mcc])
    return path


def mcd(converted: FeatureSequence, reference: FeatureSequence,
        path: WarpPath | None = None) -> float:
    """Mean mel-cepstral distortion in dB along the DTW path."""
    if path is None:
        path = align(converted, reference)
    n_mcc = converted.n_mcc
    c = converted.data[:n_mcc, path.pairs[:, 0]]
    r = reference.data[:n_mcc, path.pairs[:, 1]]
    per_node = MCD_CONST * np.sqrt(2.0 * ((c - r) ** 2).sum(axis=0))
    return float(per_node.mean())


def lfc(converted: FeatureSequence, reference: FeatureSequence,
        path: WarpPath | None = None) -> float:
    """Pearson correlation of log-F0 over jointly voiced aligned frames."""
    if path is None:
        path = align(converted, reference)
    n_mcc = converted.n_mcc
    ci, ri = path.pairs[:, 0], path.pairs[:, 1]
    both = ((converted.data[-1, ci] >= VOICED_THRESHOLD)
            & (reference.data[-1, ri] >= VOICED_THRESHOLD))
    if both.sum() < 2:
        raise MetricUndefinedError("fewer than 2 jointly voiced aligned frames")
    x = converted.data[n_mcc, ci[both]]
    y = reference.data[n_mcc, ri[both]]
    sx, sy = x.std(), y.std()
    if sx == 0.0 or sy == 0.0:
        raise MetricUndefinedError("constant log-F0 contour")
    return float(((x - x.mean()) * (y - y.mean())).mean() / (sx * sy))


def ldr_deviation(path: WarpPath, window: int = LDR_WINDOW) -> float:
    """Mean absolute deviation of local duration ratios from 1, in percent.

    The path is split into consecutive windows of aligned steps; the local
    ratio is (converted frames advanced) / (reference frames advanced).
    """
    if len(path) <= window:
        raise MetricUndefinedError(f"path of {len(path)} steps too short for window {window}")
    starts = np.arange(0, len(path) - window, window)
    a0, b0 = path.pairs[starts].T
    a1, b1 = path.pairs[starts + window].T
    moved = b1 > b0
    if not moved.any():
        raise MetricUndefinedError("no reference progress inside any window")
    slopes = (a1 - a0)[moved] / (b1 - b0)[moved]
    return float(np.abs(slopes - 1.0).mean() * 100.0)


def evaluate_pair(converted: FeatureSequence, reference: FeatureSequence) -> dict[str, float | None]:
    """All three measures for one pair; undefined metrics come back as None."""
    path = align(converted, reference)
    out: dict[str, float | None] = {"mcd_db": mcd(converted, reference, path)}
    try:
        out["lfc"] = lfc(converted, reference, path)
    except MetricUndefinedError:
        out["lfc"] = None
    try:
        out["ldr_pct"] = ldr_deviation(path)
    except MetricUndefinedError:
        out["ldr_pct"] = None
    return out
