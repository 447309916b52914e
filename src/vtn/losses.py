"""Training objectives: weighted-L1 prediction loss, diagonal attention loss,
identity mapping term, and their weighted total."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ShapeError


def default_feature_weights(n_mcc: int = 28) -> np.ndarray:
    """Per-feature weights of the L1 norm: MCCs 1/28 each, log-F0 1/10,
    aperiodicity and V/UV 1/50 each."""
    w = np.empty(n_mcc + 3)
    w[:n_mcc] = 1.0 / n_mcc
    w[n_mcc] = 1.0 / 10.0
    w[n_mcc + 1:] = 1.0 / 50.0
    return w


@dataclass
class LossWeights:
    lambda_dal: float = 2000.0
    lambda_iml: float = 1.0
    nu: float = 0.3
    gamma: np.ndarray = field(default_factory=default_feature_weights)


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
    diff = ad.sub(ad.slice_cols(y, 0, n), Tensor(x_tgt[:, 1:n + 1]))
    weighted = ad.mul(ad.absolute(diff), Tensor(np.repeat(w, n, axis=1)))
    return ad.scale(ad.sum_all(weighted), 1.0 / n)


def guided_weight_matrix(n_src: int, n_tgt: int, nu: float) -> np.ndarray:
    """Gaussian-complement weights, exactly 0 on the relative-position diagonal."""
    n = np.arange(1, n_src + 1)[:, None] / n_src
    m = np.arange(1, n_tgt + 1)[None, :] / n_tgt
    return 1.0 - np.exp(-((n - m) ** 2) / (2.0 * nu * nu))


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


def pair_loss(model, src: np.ndarray, tgt0: np.ndarray, k: int | None, kp: int | None,
              weights: LossWeights, training: bool = False,
              rng: np.random.Generator | None = None) -> tuple[Tensor, Tensor, Tensor]:
    """Composite loss for one (source, target) utterance pair.

    Returns (composite, main, dal) where composite = main + lambda_dal * dal.
    tgt0 is the zero-prepended stacked target sequence.
    """
    y, attn = model.forward(src, tgt0, k=k, kp=kp, training=training, rng=rng)
    l_main = main_loss(y, tgt0, weights.gamma, model.config.r)
    l_dal = dal(attn, weights.nu)
    return ad.add(l_main, ad.scale(l_dal, weights.lambda_dal)), l_main, l_dal


def total_loss(model, batch, weights: LossWeights, training: bool = False,
               rng: np.random.Generator | None = None) -> tuple[Tensor, dict[str, float]]:
    """Mean composite loss over cross-speaker pairs plus lambda_iml times the
    mean composite over identity pairs.  batch items are
    (k, kp, src, tgt0) tuples; identity items have k == kp."""
    cross = [item for item in batch if item[0] != item[1]]
    ident = [item for item in batch if item[0] == item[1]]
    if not cross and not ident:
        raise ShapeError("empty batch")

    def mean_of(items):
        comp_sum = None
        main_sum = dal_sum = 0.0
        for k, kp, src, tgt0 in items:
            comp, l_main, l_dal = pair_loss(model, src, tgt0, k, kp, weights, training, rng)
            comp_sum = comp if comp_sum is None else ad.add(comp_sum, comp)
            # reported figures only: plain float adds, no graph
            main_sum += float(l_main.data)
            dal_sum += float(l_dal.data)
        inv = 1.0 / len(items)
        return ad.scale(comp_sum, inv), main_sum * inv, dal_sum * inv

    total = None
    mean_main = mean_dal = 0.0
    if cross:
        total, mean_main, mean_dal = mean_of(cross)
    iml_value = 0.0
    use_iml = ident and model.config.mode != "one_to_one" and weights.lambda_iml != 0.0
    if use_iml:
        iml_comp, _, _ = mean_of(ident)
        iml_value = float(iml_comp.data)
        term = ad.scale(iml_comp, weights.lambda_iml)
        total = term if total is None else ad.add(total, term)
    if total is None:
        raise ShapeError("batch contributes no loss terms")
    breakdown = {
        "main": mean_main,
        "dal": mean_dal,
        "iml": iml_value,
        "total": float(total.data),
    }
    return total, breakdown
