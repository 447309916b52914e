"""Computations made apart from the package, against which its outputs are
checked: the paper's training objective, an anti-diagonal DTW, the three
objective measures and central-difference gradients."""

from __future__ import annotations

import math

import numpy as np

VOICED = 0.5
LDR_WINDOW = 10


def feature_weights(n_mcc: int) -> np.ndarray:
    """Weights of the L1 prediction loss: MCCs 1/I each, log-F0 1/10,
    aperiodicity and V/UV 1/50 each."""
    return np.concatenate([np.full(n_mcc, 1.0 / n_mcc), [0.1, 0.02, 0.02]])


def guided_weights(n_src: int, n_tgt: int, nu: float) -> np.ndarray:
    """Gaussian complement 1 - exp(-(n/N - m/M)^2 / 2 nu^2), 1-based n, m."""
    n = np.arange(1, n_src + 1)[:, None] / n_src
    m = np.arange(1, n_tgt + 1)[None, :] / n_tgt
    return 1.0 - np.exp(-((n - m) ** 2) / (2.0 * nu * nu))


def objective(model, batch, lambda_dal: float, lambda_iml: float, nu: float) -> float:
    """Mean composite loss over cross pairs plus lambda_iml times the mean over
    identity pairs, each composite being the one-step-ahead weighted L1 plus
    lambda_dal times the diagonal attention loss, from teacher-forced
    ``model.forward`` outputs with dropout off."""
    cfg = model.config
    w = np.tile(feature_weights(cfg.n_mcc), cfg.r)[:, None] / cfg.r
    cross, ident = [], []
    for k, kp, src, tgt0 in batch:
        y, attn = model.forward(src, tgt0, k=k, kp=kp, training=False)
        n = tgt0.shape[1] - 1
        main = float((np.abs(y.data[:, :n] - tgt0[:, 1:]) * w).sum()) / n
        heads = [a.data for layer in attn for a in layer]
        g = guided_weights(*heads[0].shape, nu)
        dal = sum(float((g * np.abs(a)).sum()) for a in heads) / (g.size * len(heads))
        (ident if k == kp else cross).append(main + lambda_dal * dal)
    return float(np.mean(cross)) + lambda_iml * float(np.mean(ident))


def local_costs(a: np.ndarray, b: np.ndarray, pairs: np.ndarray) -> np.ndarray:
    """Euclidean distance between a[:, i] and b[:, j] for each (i, j)."""
    d = a[:, pairs[:, 0]] - b[:, pairs[:, 1]]
    return np.sqrt((d * d).sum(axis=0))


def dtw_min_cost(a: np.ndarray, b: np.ndarray) -> float:
    """Minimum summed Euclidean cost of a monotone unit-step alignment from
    (0, 0) to (N_a-1, N_b-1), by dynamic programming along anti-diagonals."""
    n_a, n_b = a.shape[1], b.shape[1]
    cost = np.empty((n_a, n_b))
    for i0 in range(0, n_a, 64):
        d = a[:, i0:i0 + 64, None] - b[:, None, :]
        cost[i0:i0 + 64] = np.sqrt((d * d).sum(axis=0))
    # prev2 / prev1 hold the accumulated costs of diagonals s-2 and s-1,
    # indexed by the row i of each cell
    prev2 = np.full(n_a, np.inf)
    prev1 = np.full(n_a, np.inf)
    prev1[0] = cost[0, 0]
    for s in range(1, n_a + n_b - 1):
        i = np.arange(max(0, s - n_b + 1), min(s, n_a - 1) + 1)
        j = s - i
        best = np.full(len(i), np.inf)
        up = i > 0
        best[up] = np.minimum(best[up], prev1[i[up] - 1])            # (i-1, j)
        left = j > 0
        best[left] = np.minimum(best[left], prev1[i[left]])           # (i, j-1)
        diag = up & left
        best[diag] = np.minimum(best[diag], prev2[i[diag] - 1])       # (i-1, j-1)
        cur = np.full(n_a, np.inf)
        cur[i] = best + cost[i, j]
        prev2, prev1 = prev1, cur
    return float(prev1[n_a - 1])


def path_is_monotone(pairs: np.ndarray, n_a: int, n_b: int) -> bool:
    steps = np.diff(pairs, axis=0)
    unit = ((steps == (1, 1)) | (steps == (1, 0)) | (steps == (0, 1))).all(axis=1)
    return (tuple(pairs[0]) == (0, 0) and tuple(pairs[-1]) == (n_a - 1, n_b - 1)
            and bool(unit.all()))


def scores(conv: np.ndarray, ref: np.ndarray, pairs: np.ndarray) -> dict[str, float]:
    """MCD (dB), log-F0 correlation and local duration ratio deviation (%)
    along an alignment, from (I+3) x N raw feature matrices."""
    n_mcc = conv.shape[0] - 3
    ci, ri = pairs[:, 0], pairs[:, 1]
    mcd = 10.0 / math.log(10.0) * local_costs(conv[:n_mcc], ref[:n_mcc], pairs) * math.sqrt(2.0)
    both = (conv[-1, ci] >= VOICED) & (ref[-1, ri] >= VOICED)
    lfc = float(np.corrcoef(conv[n_mcc, ci[both]], ref[n_mcc, ri[both]])[0, 1])
    slopes = []
    for s in range(0, len(pairs) - LDR_WINDOW, LDR_WINDOW):
        (a0, b0), (a1, b1) = pairs[s], pairs[s + LDR_WINDOW]
        if b1 > b0:
            slopes.append((a1 - a0) / (b1 - b0))
    ldr = 100.0 * float(np.mean(np.abs(np.asarray(slopes) - 1.0)))
    return {"mcd_db": float(mcd.mean()), "lfc": lfc, "ldr_pct": ldr}


def central_difference(f, arr: np.ndarray, idx: tuple, h: float) -> float:
    """(f(x + h e_idx) - f(x - h e_idx)) / 2h, perturbing arr in place."""
    orig = arr[idx]
    arr[idx] = orig + h
    fp = f()
    arr[idx] = orig - h
    fm = f()
    arr[idx] = orig
    return (fp - fm) / (2.0 * h)


def close(a: float, b: float, rtol: float, atol: float = 1e-12) -> bool:
    return abs(a - b) <= atol + rtol * max(abs(a), abs(b))
