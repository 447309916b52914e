"""Reference implementations that the tests check the package against.

The package computes these quantities inside larger operations: attention
runs its softmax inside ``autodiff.attention``, and ``losses.total_loss``
evaluates the weighted L1 and the diagonal attention loss of a whole packed
batch at once.  The stand-alone versions here are differentiable autodiff
graphs of one pair or one matrix, written the direct way.
"""

from __future__ import annotations

import numpy as np

from vtn import autodiff as ad
from vtn.autodiff import Tensor
from vtn.errors import DegenerateColumnError, ShapeError
from vtn.losses import guided_weight_matrix

_MASKED = -1e29  # entries below this are treated as fully masked


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
    return ad.scale(ad.sum_all(weighted), 1.0 / n)


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
    return ad.scale(total, 1.0 / (n_src * n_tgt * n_heads * n_layers))
