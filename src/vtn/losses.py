"""Training objectives: weighted-L1 prediction loss, diagonal attention loss,
identity mapping term, and their weighted total."""

from __future__ import annotations

import functools
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


def guided_weight_matrix(n_src: int, n_tgt: int, nu: float) -> np.ndarray:
    """Gaussian-complement weights, exactly 0 on the relative-position diagonal."""
    n = np.arange(1, n_src + 1)[:, None] / n_src
    m = np.arange(1, n_tgt + 1)[None, :] / n_tgt
    return 1.0 - np.exp(-((n - m) ** 2) / (2.0 * nu * nu))


# A corpus of S speakers and U parallel utterances trains on up to S * S * U
# pair shapes (cross pairs and identity pairs): 80 for the acceptance gate's
# corpus.  A cache with fewer entries than that keeps evicting shapes that
# later batches need again, each miss an exp over N_src x N_tgt cells.
@functools.lru_cache(maxsize=256)
def _guided(n_src: int, n_tgt: int, nu: float) -> np.ndarray:
    g = guided_weight_matrix(n_src, n_tgt, nu)
    g.flags.writeable = False
    return g


@functools.lru_cache(maxsize=2)
def ragged_guided(src_lengths: tuple[int, ...], tgt_lengths: tuple[int, ...], n_heads: int,
                  nu: float) -> np.ndarray:
    """Every packed pair's guided weights over each of its heads, flat in the
    layout of the ragged attention: pair p's (n_heads, N_src, N_tgt) block
    right after pair p-1's."""
    g = np.concatenate([np.broadcast_to(_guided(ns, nt, nu), (n_heads, ns, nt)).ravel()
                        for ns, nt in zip(src_lengths, tgt_lengths)])
    g.flags.writeable = False
    return g


def pair_dal(attn: list[np.ndarray], src_lengths: tuple[int, ...],
             tgt_lengths: tuple[int, ...], n_heads: int,
             nu: float) -> tuple[np.ndarray, list[np.ndarray]]:
    """Each packed pair's diagonal attention loss (the guided-weighted mean
    of its attention over every decoder layer and head), and that loss in
    each decoder layer alone, from the ragged attention of every layer."""
    guided = ragged_guided(src_lengths, tgt_lengths, n_heads, nu)
    sizes = n_heads * np.asarray(src_lengths) * np.asarray(tgt_lengths)
    sums = [np.add.reduceat(guided * a, np.cumsum(sizes) - sizes) for a in attn]
    return sum(sums) / (sizes * len(attn)), [s / sizes for s in sums]


def total_loss(model, batch, weights: LossWeights, training: bool = False,
               rng: np.random.Generator | None = None) -> tuple[Tensor, dict]:
    """Mean composite loss over cross-speaker pairs plus lambda_iml times the
    mean composite over identity pairs, a pair's composite being its
    one-step-ahead weighted L1 main loss plus lambda_dal times its diagonal
    attention loss.  batch items are (k, kp, src, tgt0) tuples; identity
    items have k == kp, and this is the one place that drops them where the
    identity mapping term is off (one_to_one mode or lambda_iml == 0).

    The contributing pairs, cross pairs first, run through one
    ``forward_packed`` pass.  Each pair's weight in the total is folded into
    a per-column weight matrix over the packed output and a flat vector of
    guided weights over each decoder layer's ragged attention.

    The breakdown reports the cross pairs' mean main loss and DAL, the
    identity pairs' mean composite (iml), the total, and dal_layers, the
    cross pairs' mean DAL in each decoder layer, whose mean is dal."""
    cross = [item for item in batch if item[0] != item[1]]
    ident = [item for item in batch if item[0] == item[1]]
    if not cross and not ident:
        raise ShapeError("empty batch")
    use_iml = ident and model.config.mode != "one_to_one" and weights.lambda_iml != 0.0
    pairs = cross + (ident if use_iml else [])
    if not pairs:
        raise ShapeError("batch contributes no loss terms")
    cfg = model.config
    if cfg.D != len(weights.gamma) * cfg.r:
        raise ShapeError(f"main_loss: {cfg.D} rows incompatible with "
                         f"{len(weights.gamma)} weights x r={cfg.r}")
    n_out = np.array([tgt0.shape[1] - 1 for _, _, _, tgt0 in pairs])
    if n_out.min() < 1:
        raise ShapeError("main_loss: a target has no frames")
    n_cross = len(cross)
    pair_w = np.array([1.0 / n_cross if i < n_cross else weights.lambda_iml / len(ident)
                       for i in range(len(pairs))])

    y, attn, src_segs, segs = model.forward_packed(pairs, training, rng)

    # output column j of a pair predicts its target column j+1, so a pair's
    # last output column predicts nothing and weighs 0
    target = np.concatenate([np.concatenate([tgt0[:, 1:], np.zeros((cfg.D, 1))], axis=1)
                             for _, _, _, tgt0 in pairs], axis=1)
    ends = np.cumsum(segs.lengths)
    col_w = np.repeat(pair_w / n_out, segs.lengths)
    col_w[ends - 1] = 0.0
    feat_w = np.tile(weights.gamma, cfg.r) / cfg.r
    err = ad.absolute(ad.sub(y, Tensor(target)))
    total = ad.sum_all(ad.mul(err, Tensor(feat_w[:, None] * col_w[None, :])))

    # attention is non-negative, so |A| = A
    sizes = cfg.H * np.asarray(src_segs.lengths) * np.asarray(segs.lengths)
    dal_w = (ragged_guided(src_segs.lengths, segs.lengths, cfg.H, weights.nu)
             * np.repeat(weights.lambda_dal * pair_w / (sizes * cfg.L), sizes))
    for a in attn:
        total = ad.add(total, ad.sum_all(ad.mul(a, Tensor(dal_w))))

    # the reported terms, per pair, from the same arrays
    col_err = feat_w @ err.data
    col_err[ends - 1] = 0.0
    main = np.add.reduceat(col_err, segs.starts) / n_out
    dal_, layer_dal = pair_dal([a.data for a in attn], src_segs.lengths, segs.lengths, cfg.H,
                               weights.nu)
    comp = main + weights.lambda_dal * dal_
    breakdown = {
        "main": float(main[:n_cross].mean()) if n_cross else 0.0,
        "dal": float(dal_[:n_cross].mean()) if n_cross else 0.0,
        "iml": float(comp[n_cross:].mean()) if use_iml else 0.0,
        "total": float(total.data),
        "dal_layers": [float(d[:n_cross].mean()) if n_cross else 0.0 for d in layer_dal],
    }
    return total, breakdown
