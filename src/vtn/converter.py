"""Autoregressive conversion, attention windowing, the low-latency
identity-aligned mode, and the raw-features-in, raw-features-out pipeline
around the network.  One ``DecoderCache`` holds a conversion's decoding
state: the constants of every decoder pass (``VtnModel.decoding``), built
once, and the target prenet's columns.  Decoding is incremental in the
convolutions only: each step (``VtnModel.decode_step``) runs the target
prenet over its newest column, every decoder layer but the last over the
whole prefix, and the last layer's queries and everything after them, the
postnet included, over the postnet's receptive field of the column it
keeps."""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import autodiff as ad
from . import container
from .errors import (AdjustmentError, ConfigError, NonFiniteOutputError, ShapeError,
                     StatsError)
from .features import (Corpus, FeatureSequence, SpeakerStats, StackedSequence,
                       adjust_output_stats, compute_stats, denormalize, normalize,
                       stack, unstack)
from .model import DecoderCache, VtnModel


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
        """Backward/forward window half-widths in stacked-frame units, for
        a finite and positive frame period."""
        if not (np.isfinite(frame_period_ms) and frame_period_ms > 0):
            raise ConfigError(f"frame_period_ms={frame_period_ms!r} is not finite and positive")
        step = frame_period_ms * r
        return int(round(self.window_back_ms / step)), int(round(self.window_fwd_ms / step))


def head_mean(attn: np.ndarray) -> np.ndarray:
    """The mean of an (L, H, ...) attention over its layers and heads."""
    return attn.reshape(-1, *attn.shape[2:]).mean(axis=0)


@dataclass
class ConversionResult:
    output: np.ndarray                 # (D x N_out) stacked, normalized domain
    attention: np.ndarray              # (L, H, N_src, N_out); column m is the
                                       # attention decode step m+1 used
    n_hat: list[int]                   # 1-based attended source position per step
    truncated: bool = False
    # per step, the 1-based inclusive source range its window allowed, or
    # None when decoding is not windowed
    windows: list[tuple[int, int] | None] = field(default_factory=list)
    stats_adjusted: bool | None = None  # set by convert_sequence

    @property
    def mean_attention(self) -> np.ndarray:
        """Mean over layers and heads, (N_src x N_out)."""
        return head_mean(self.attention)


def convert(model: VtnModel, src: np.ndarray, k: int | None, kp: int | None,
            cfg: DecodeConfig | None = None,
            frame_period_ms: float = 8.0) -> ConversionResult:
    """Run the network autoregressively on one stacked, normalized source.

    Decoding happens in the column-exact evaluation mode, so every generated
    column is bit-identical to what a full teacher-forced pass over the same
    prefix would produce.  The decoder's constants (``VtnModel.decoding``)
    are built once, after the encoder, from the weights as they are at the
    call, into a ``DecoderCache`` that also keeps the target prenet's work
    on the earlier steps; each step passes it and the previous step's
    output column to ``VtnModel.decode_step``, and the bits equal those of
    a ``VtnModel.decode`` of the whole prefix from the raw encoder output.
    The step runs the decoder layers over the whole prefix, but for the
    last layer's queries and what follows them, which run over the columns
    the postnet reads.  Each step attends where the head mean of its newest
    attention column peaks (n_hat), and ``ConversionResult.attention``
    stacks those columns, or is a realtime model's identity broadcast.
    Decoding stops once n_hat reaches the last source position, or is
    truncated after max_len_factor * N_src steps.  A realtime model's
    identity alignment thus stops after N_src steps.  In windowed mode each
    step's target-to-source attention sees only the source positions
    [n_hat - N0, n_hat + N1] (1-based, clipped to the source) around the
    previous step's n_hat, starting from 1; ``ConversionResult.windows``
    records each step's range.  frame_period_ms converts the window's
    milliseconds into stacked frames; unless it is finite and positive,
    ConfigError is raised before decoding, in every mode.  The first step
    whose output column is not finite raises NonFiniteOutputError: every
    later step would attend through it.
    """
    cfg = cfg or DecodeConfig()
    src = np.asarray(src, dtype=np.float64)
    if src.ndim != 2:
        raise ShapeError(f"source must be 2-D (D x N), got shape {src.shape}")
    if src.shape[0] != model.config.D:
        raise ShapeError(f"source has {src.shape[0]} rows, model expects {model.config.D}")
    if src.shape[1] == 0:
        raise ShapeError("source has no frames")
    if cfg.mode == "realtime" and not model.config.realtime:
        raise ShapeError("realtime decoding needs a model built with realtime=True")
    if cfg.mode != "realtime" and model.config.realtime:
        raise ShapeError("a realtime model only supports realtime decoding")

    n_src = src.shape[1]
    windowed = cfg.mode == "windowed"
    n0, n1 = cfg.window_frames(frame_period_ms, model.config.r)

    with ad.column_exact():
        max_steps = cfg.max_len_factor * n_src
        cache = DecoderCache(model.decoding(model.encode(src, k=k), kp), max_steps)
        column = np.zeros((model.config.D, 1))
        outputs: list[np.ndarray] = []
        n_hat_track: list[int] = []
        n_hat = 1
        step_heads: list[np.ndarray] = []   # per step, its (L, H, N_src) attention column
        windows: list[tuple[int, int] | None] = []
        for step in range(1, max_steps + 1):
            lo, hi = max(1, n_hat - n0), min(n_hat + n1, n_src)
            windows.append((lo, hi) if windowed else None)
            column, heads = model.decode_step(column, cache,
                                              window=(lo - 1, hi) if windowed else None)
            if not np.isfinite(column).all():
                raise NonFiniteOutputError(f"decode step {step} gave a non-finite output column")
            outputs.append(column)
            step_heads.append(heads)
            n_hat = int(np.argmax(head_mean(heads))) + 1
            n_hat_track.append(n_hat)
            if n_hat == n_src:
                break

    attention = (model.identity_attention(n_src, len(outputs)) if model.config.realtime
                 else np.stack(step_heads, axis=-1))
    return ConversionResult(output=np.concatenate(outputs, axis=1), attention=attention,
                            n_hat=n_hat_track, truncated=n_hat != n_src, windows=windows)


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
    n_raw = st.n_raw if mcfg.realtime else n_out * mcfg.r
    out_st = StackedSequence(result.output, r=mcfg.r, n_raw=n_raw,
                             n_feat=st.n_feat, speaker=target_speaker,
                             frame_period_ms=seq.frame_period_ms)
    out = denormalize(unstack(out_st), stats, target_speaker)
    out.data[-1] = np.clip(out.data[-1], 0.0, 1.0)
    try:
        out = adjust_output_stats(out, stats)
        result.stats_adjusted = True
    except AdjustmentError:
        # untrained or badly converged models can emit (almost) no voiced
        # frames; emit the unadjusted output rather than failing outright
        result.stats_adjusted = False
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
