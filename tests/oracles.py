"""Reference implementations that the tests check the package against.

The package computes these quantities inside larger operations: attention
runs its softmax inside ``autodiff.attention``, which hides the keys that
``causal_mask`` masks by the key range it gives each query, and
``losses.total_loss`` evaluates the weighted L1 and the diagonal attention
loss of a whole packed batch at once.  The stand-alone versions here are
differentiable autodiff graphs of one pair or one matrix, written the
direct way.

The column-exact references run the package's column-exact kernels one
output column at a time in a Python loop, each column a numpy call of its
own; the package's kernels, which run many columns per call, must equal
them bitwise.  ``convert_per_step`` is the conversion loop that rebuilds
every decoder constant at every step, which ``converter.convert``, building
them once, must equal bitwise.
"""

from __future__ import annotations

import math

import numpy as np

from vtn import autodiff as ad
from vtn.autodiff import Tensor
from vtn.converter import ConversionResult, DecodeConfig
from vtn.errors import DegenerateColumnError, ShapeError
from vtn.losses import guided_weight_matrix
from vtn.model import VtnModel

_MASKED = -1e29  # entries below this are treated as fully masked


def causal_mask(n: int) -> np.ndarray:
    """(key, query) additive mask: key position may not exceed query position."""
    keys = np.arange(n)[:, None]
    queries = np.arange(n)[None, :]
    return np.where(keys <= queries, 0.0, ad.NEG_INF)


def masked_softmax_columns(x: Tensor, mask: np.ndarray) -> Tensor:
    """Column-wise softmax with an additive mask of 0 / -1e30 sentinels.

    Masked rows come out exactly 0; every unmasked column sums to 1.
    """
    x = ad._as_tensor(x)
    mask = np.asarray(mask, dtype=np.float64)
    if mask.shape != x.data.shape:
        raise ShapeError(f"mask shape {mask.shape} != input {x.data.shape}")
    keep = mask > _MASKED
    if not keep.any(axis=0).all():
        raise DegenerateColumnError("softmax column has all rows masked")
    z = x.data + mask
    e = np.exp(z - z.max(axis=0, keepdims=True))
    e[~keep] = 0.0
    y = e / e.sum(axis=0, keepdims=True)

    def backward(g):
        gy = y * (g - (g * y).sum(axis=0, keepdims=True))
        x._accum(gy, owned=True)

    return ad._result(y, (x,), backward)


def slice_cols(a: Tensor, j0: int, j1: int) -> Tensor:
    return ad.index(a, np.s_[:, j0:j1])


def main_loss(y: Tensor, x_tgt: np.ndarray, gamma: np.ndarray, r: int) -> Tensor:
    """One-step-ahead weighted L1: compares output columns 0..N'-1 against
    target columns 1..N' of the zero-prepended target (0-based)."""
    x_tgt = np.asarray(x_tgt, dtype=np.float64)
    if y.data.shape != x_tgt.shape:
        raise ShapeError(f"main_loss: {y.data.shape} vs {x_tgt.shape}")
    d, n1 = x_tgt.shape
    n = n1 - 1
    if d != len(gamma) * r:
        raise ShapeError(f"main_loss: {d} rows incompatible with {len(gamma)} weights x r={r}")
    # stacked column = r sub-frames of (I+3) features; weight each sub-frame by gamma/r
    w = np.tile(gamma, r)[:, None] / r
    diff = ad.sub(slice_cols(y, 0, n), Tensor(x_tgt[:, 1:n + 1]))
    weighted = ad.mul(ad.absolute(diff), Tensor(np.repeat(w, n, axis=1)))
    return ad.mul(ad.sum_all(weighted), Tensor(1.0 / n))


def dal(attn_set: list[list[Tensor]], nu: float) -> Tensor:
    """Diagonal attention loss over every decoder head, normalized by
    source length, target length, head count and layer count."""
    n_src, n_tgt = attn_set[0][0].data.shape
    g = Tensor(guided_weight_matrix(n_src, n_tgt, nu))
    total = None
    for layer in attn_set:
        for a in layer:
            if a.data.shape != (n_src, n_tgt):
                raise ShapeError("attention matrices in one set must share a shape")
            term = ad.sum_all(ad.mul(g, ad.absolute(a)))
            total = term if total is None else ad.add(total, term)
    n_layers = len(attn_set)
    n_heads = len(attn_set[0])
    return ad.mul(total, Tensor(1.0 / (n_src * n_tgt * n_heads * n_layers)))


def column_exact_mm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b as one gemv per output column, on a contiguous copy of it."""
    out = np.empty((a.shape[0], b.shape[1]))
    for j, col in enumerate(np.ascontiguousarray(b.T)):
        out[:, j] = a @ col
    return out


def column_exact_layer_norm(x: np.ndarray, gain: np.ndarray, bias: np.ndarray,
                            eps: float = 1e-5) -> np.ndarray:
    """Layer norm with each column's statistics summed over that column alone."""
    d, n = x.shape
    xhat = np.empty_like(x)
    for j in range(n):
        col = x[:, j]
        mu = col.sum() / d
        c = col - mu
        var = (c * c).sum() / d
        xhat[:, j] = c * (1.0 / math.sqrt(var + eps))
    y = np.empty_like(xhat)
    np.multiply(gain, xhat, out=y)
    y += bias
    return y


def column_exact_attention(q: np.ndarray, kv: np.ndarray, k_row: int, n_heads: int,
                           scale: float, keep: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Attention of one segment, query column by query column; keep[i, j]
    says whether query j sees key i.  Returns the (d x N_q) head outputs and
    the (n_heads, N_k, N_q) attention."""
    d = (kv.shape[0] - k_row) // 2
    dh = d // n_heads
    keys, values = kv[k_row:k_row + d], kv[k_row + d:k_row + 2 * d]
    a = np.zeros((n_heads,) + keep.shape)
    out = np.empty((d, keep.shape[1]))
    for j, qj in enumerate(np.ascontiguousarray(q[:d].T)):
        idx = np.flatnonzero(keep[:, j])
        kh = keys.take(idx, axis=1).reshape(n_heads, dh, -1)
        vh = values.take(idx, axis=1).reshape(n_heads, dh, -1)
        z = np.matmul(kh.swapaxes(1, 2), qj.reshape(n_heads, dh, 1))
        z *= scale
        z -= z.max(axis=1, keepdims=True)
        np.exp(z, out=z)
        z /= z.sum(axis=1, keepdims=True)
        a[:, idx, j] = z[:, :, 0]
        out[:, j] = np.matmul(vh, z).reshape(d)
    return out, a


def convert_per_step(model: VtnModel, src: np.ndarray, k: int | None, kp: int | None,
                     cfg: DecodeConfig | None = None,
                     frame_period_ms: float = 8.0) -> ConversionResult:
    """``converter.convert`` of a valid source, each step decoding the whole
    prefix from the raw encoder output z."""
    cfg = cfg or DecodeConfig()
    n_src = src.shape[1]
    windowed = cfg.mode == "windowed"
    n0, n1 = cfg.window_frames(frame_period_ms, model.config.r)
    with ad.column_exact():
        z = model.encode(src, k=k)
        prefix = np.zeros((model.config.D, 1))
        n_hat_track, step_heads, windows = [], [], []
        n_hat = 1
        for _ in range(cfg.max_len_factor * n_src):
            lo, hi = max(1, n_hat - n0), min(n_hat + n1, n_src)
            windows.append((lo, hi) if windowed else None)
            y, attn = model.decode(prefix, z, kp=kp, window=(lo - 1, hi) if windowed else None)
            prefix = np.concatenate([prefix, y.data[:, -1:]], axis=1)
            heads = attn[..., -1].copy()
            if windowed:
                step_heads.append(heads)
            n_hat = int(np.argmax(heads.reshape(-1, n_src).mean(axis=0))) + 1
            n_hat_track.append(n_hat)
            if n_hat == n_src:
                break
    attention = np.stack(step_heads, axis=-1) if windowed else attn
    return ConversionResult(output=prefix[:, 1:], attention=attention, n_hat=n_hat_track,
                            truncated=n_hat != n_src, windows=windows)
