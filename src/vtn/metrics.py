"""Objective evaluation: DTW alignment, MCD, log-F0 correlation, duration ratio."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import MetricUndefinedError, ShapeError
from .features import FeatureSequence, VOICED_THRESHOLD

MCD_CONST = 10.0 / math.log(10.0)
LDR_WINDOW = 10  # aligned path steps per local-slope estimate
DTW_BLOCK_ELEMENTS = 1 << 16  # elements per (rows, N_b, D) difference block: 512 KiB, cache-sized


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
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 2 or b.ndim != 2 or a.shape[0] != b.shape[0]:
        raise ShapeError(f"dtw: incompatible shapes {a.shape}, {b.shape}")
    n_a, n_b = a.shape[1], b.shape[1]
    if n_a == 0 or n_b == 0:
        raise ShapeError("dtw: empty sequence")
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise MetricUndefinedError("dtw: non-finite value in an input sequence")

    # acc[i + 1, j + 1] holds the local cost of (i, j) until the sweep below
    # replaces it by the accumulated cost; row 0 and column 0 are the inf
    # border that stands in for the missing predecessors of the first row and
    # column.  Each row block keeps the (rows, N_b, D) difference layout of
    # the whole-matrix expression, so the sums over D add in the same order.
    w = n_b + 1
    acc = np.full((n_a + 1, w), np.inf)
    at, bt = a.T, b.T
    rows = max(1, DTW_BLOCK_ELEMENTS // max(1, n_b * a.shape[0]))
    for i0 in range(0, n_a, rows):
        diff = at[i0:i0 + rows, None, :] - bt[None, :, :]
        np.sqrt((diff * diff).sum(axis=2), out=acc[i0 + 1:i0 + 1 + rows, 1:])

    # Sweep anti-diagonals s = i + j. Cell (i, s - i) sits at flat index
    # i * N_b + s + w + 1, so each diagonal and its three predecessor sets
    # are stride-N_b slices; move[i + 1, j + 1] follows the same layout.
    # Ties: the diagonal when it is <= both others, else the a step when it
    # is <= the b step, else the b step.
    flat = acc.ravel()
    move = np.zeros((n_a + 1, w), dtype=np.int8)  # 0=diag, 1=from-left(a step), 2=from-below(b step)
    moves = move.ravel()
    for s in range(1, n_a + n_b - 1):
        lo = s + w + 1 + max(0, s - n_b + 1) * n_b
        hi = s + w + 1 + min(s, n_a - 1) * n_b + 1
        diag = flat[lo - w - 1:hi - w - 1:n_b]
        up = flat[lo - w:hi - w:n_b]
        left = flat[lo - 1:hi - 1:n_b]
        diag_up = np.minimum(diag, up)
        step = moves[lo:hi:n_b]
        step[...] = up < diag
        step[left < diag_up] = 2
        cell = flat[lo:hi:n_b]
        np.add(np.minimum(diag_up, left), cell, out=cell)
    move = move[1:, 1:]

    pairs = [(n_a - 1, n_b - 1)]
    i, j = n_a - 1, n_b - 1
    while (i, j) != (0, 0):
        m = move[i, j]
        if m == 0:
            i, j = i - 1, j - 1
        elif m == 1:
            i -= 1
        else:
            j -= 1
        pairs.append((i, j))
    pairs.reverse()
    return WarpPath(np.asarray(pairs, dtype=np.int64)), float(acc[-1, -1])


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
    slopes = []
    for start in range(0, len(path) - window, window):
        a0, b0 = path.pairs[start]
        a1, b1 = path.pairs[start + window]
        if b1 > b0:
            slopes.append((a1 - a0) / (b1 - b0))
    if not slopes:
        raise MetricUndefinedError("no reference progress inside any window")
    return float(np.abs(np.asarray(slopes) - 1.0).mean() * 100.0)


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
