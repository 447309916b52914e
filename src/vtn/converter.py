"""Autoregressive conversion: incremental decoding, attention windowing,
low-latency identity-aligned mode, and the raw-features-in, raw-features-out
pipeline around the network."""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import autodiff as ad
from . import container
from .errors import AdjustmentError, ShapeError, StatsError
from .features import (Corpus, FeatureSequence, SpeakerStats, StackedSequence,
                       adjust_output_stats, compute_stats, denormalize, normalize,
                       stack, unstack)
from .model import VtnModel


@dataclass
class DecodeConfig:
    mode: str = "default"        # "default", "windowed", "realtime"
    max_len_factor: int = 2
    window_back_ms: float = 160.0
    window_fwd_ms: float = 320.0

    def __post_init__(self):
        container.check_fields(self, "decode config", max_len_factor="[1, inf)",
                               window_back_ms="[0, inf)", window_fwd_ms="[0, inf)")
        if self.mode not in ("default", "windowed", "realtime"):
            raise ShapeError(f"unknown decode mode {self.mode!r}")

    def window_frames(self, frame_period_ms: float, r: int) -> tuple[int, int]:
        """Backward/forward window half-widths in stacked-frame units."""
        step = frame_period_ms * r
        return int(round(self.window_back_ms / step)), int(round(self.window_fwd_ms / step))


def _head_mean(heads) -> np.ndarray:
    """Mean over a sequence of per-head attention arrays."""
    return np.mean(heads, axis=0)


@dataclass
class ConversionResult:
    output: np.ndarray                 # (D x N_out) stacked, normalized domain
    attention: list[list[np.ndarray]]  # L x H of (N_src x N_out); column m is
                                       # the attention decode step m+1 used
    n_hat: list[int]                   # 1-based attended source position per step
    truncated: bool = False
    extra: dict = field(default_factory=dict)

    @property
    def mean_attention(self) -> np.ndarray:
        """Mean over layers and heads, (N_src x N_out)."""
        return _head_mean([a for layer in self.attention for a in layer])


def _window_mask(n_src: int, n_cols: int, n_hat: int, n0: int, n1: int) -> np.ndarray:
    """Additive mask restricting only the newest column to source positions
    [n_hat - n0, n_hat + n1] (1-based, clipped to the sequence)."""
    mask = np.zeros((n_src, n_cols))
    lo = max(1, n_hat - n0)
    hi = min(n_hat + n1, n_src)
    mask[:lo - 1, -1] = ad.NEG_INF
    mask[hi:, -1] = ad.NEG_INF
    return mask


def convert(model: VtnModel, src: np.ndarray, k: int | None, kp: int | None,
            cfg: DecodeConfig | None = None,
            frame_period_ms: float = 8.0) -> ConversionResult:
    """Run the network autoregressively on one stacked, normalized source.

    Decoding happens in the column-exact evaluation mode, so every generated
    column is bit-identical to what a full teacher-forced pass over the same
    prefix would produce.
    """
    cfg = cfg or DecodeConfig()
    src = np.asarray(src, dtype=np.float64)
    if src.shape[0] != model.config.D:
        raise ShapeError(f"source has {src.shape[0]} rows, model expects {model.config.D}")
    if src.shape[1] == 0:
        raise ShapeError("source has no frames")
    if cfg.mode == "realtime" and not model.config.realtime:
        raise ShapeError("realtime decoding needs a model built with realtime=True")
    if cfg.mode != "realtime" and model.config.realtime:
        raise ShapeError("a realtime model only supports realtime decoding")

    n_src = src.shape[1]
    d_rows = model.config.D
    windowed = cfg.mode == "windowed"
    n0, n1 = cfg.window_frames(frame_period_ms, model.config.r)

    with ad.column_exact():
        z = model.encode(src, k=k, training=False)
        prefix = np.zeros((d_rows, 1))
        n_hat_track: list[int] = []
        n_hat = 1
        truncated = False
        step_heads: list[np.ndarray] = []   # per step, (L*H, N_src) newest-column attention
        step_windows: list[tuple[int, int] | None] = []
        if cfg.mode == "realtime":
            max_steps = n_src
        else:
            max_steps = cfg.max_len_factor * n_src
        for step in range(1, max_steps + 1):
            mask = None
            if windowed:
                mask = _window_mask(n_src, prefix.shape[1], n_hat, n0, n1)
                step_windows.append((max(1, n_hat - n0), min(n_hat + n1, n_src)))
            else:
                step_windows.append(None)
            y, attn_set = model.decode(prefix, z, kp=kp, training=False,
                                       window_mask=mask,
                                       tsa_identity=(cfg.mode == "realtime"))
            prefix = np.concatenate([prefix, y.data[:, -1:]], axis=1)
            last = prefix.shape[1] - 2
            heads = np.stack([a.data[:, last] for layer in attn_set for a in layer])
            step_heads.append(heads)
            n_hat = int(np.argmax(_head_mean(heads))) + 1
            n_hat_track.append(n_hat)
            if cfg.mode != "realtime" and n_hat == n_src:
                break
        else:
            truncated = cfg.mode != "realtime"

    # earlier columns of a later step's re-run lose their windows, so the
    # attention reported is assembled from each step's own newest column
    columns = np.stack(step_heads, axis=-1)
    n_heads = model.config.H
    attention = [list(columns[l * n_heads:(l + 1) * n_heads])
                 for l in range(model.config.L)]
    return ConversionResult(output=prefix[:, 1:], attention=attention,
                            n_hat=n_hat_track, truncated=truncated,
                            extra={"step_windows": step_windows})


# ---------------------------------------------------------------------------
# pipeline glue

def convert_sequence(model: VtnModel, seq: FeatureSequence, target_speaker: str,
                     stats: SpeakerStats, cfg: DecodeConfig | None = None
                     ) -> tuple[FeatureSequence, ConversionResult]:
    """Full conversion of one raw utterance into the target speaker's voice."""
    mcfg = model.config
    if model.speakers is None or target_speaker not in model.speakers:
        raise StatsError(f"model has no target speaker {target_speaker!r}")
    kp = model.speakers.index(target_speaker)
    k = None
    if mcfg.src_conditioned:
        if seq.speaker not in model.speakers:
            raise StatsError(f"model has no source speaker {seq.speaker!r}")
        k = model.speakers.index(seq.speaker)

    if seq.speaker in stats.mean:
        src_stats = stats
    elif mcfg.mode == "any_to_many":
        # an unseen source voice is normalised by its own statistics
        src_stats = compute_stats(Corpus([seq.speaker], {seq.speaker: [seq]},
                                         seq.frame_period_ms))
    else:
        raise StatsError(f"no statistics for source speaker {seq.speaker!r}")

    st = stack(normalize(seq, src_stats), mcfg.r)
    result = convert(model, st.data, k, kp, cfg, frame_period_ms=seq.frame_period_ms)

    n_out = result.output.shape[1]
    n_raw = st.n_raw if (cfg and cfg.mode == "realtime") else n_out * mcfg.r
    out_st = StackedSequence(result.output, r=mcfg.r, n_raw=n_raw,
                             n_feat=st.n_feat, speaker=target_speaker,
                             frame_period_ms=seq.frame_period_ms)
    out = denormalize(unstack(out_st), stats, target_speaker)
    out.data[-1] = np.clip(out.data[-1], 0.0, 1.0)
    try:
        out = adjust_output_stats(out, stats)
        result.extra["stats_adjusted"] = True
    except AdjustmentError:
        # untrained or badly converged models can emit (almost) no voiced
        # frames; emit the unadjusted output rather than failing outright
        result.extra["stats_adjusted"] = False
    return out, result


def dump_attention(result: ConversionResult, out_dir) -> list[Path]:
    """Write every head's attention matrix plus the head mean as CSV."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []

    def write_csv(path, matrix):
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            for row in matrix:
                w.writerow([f"{v:.8g}" for v in row])
        written.append(path)

    for l, layer in enumerate(result.attention):
        for h, a in enumerate(layer):
            write_csv(out / f"attn_l{l}_h{h}.csv", a)
    write_csv(out / "mean.csv", result.mean_attention)
    return written
