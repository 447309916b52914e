"""Acoustic feature sequences: normalization, stacking, file I/O, synthetic data.

A feature frame has I mel-cepstral coefficients followed by log-F0, coded
aperiodicity and a voiced/unvoiced indicator, i.e. I+3 rows per frame.
Matrices are (rows x frames).  Only the MCC and log-F0 rows are ever
normalized; statistics are computed over voiced frames (V/UV >= 0.5) only.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import container
from .errors import AdjustmentError, ConfigError, FormatError, StatsError

VOICED_THRESHOLD = 0.5
_FEATURES_MAGIC = b"VTNF"
_STATS_MAGIC = b"VTNS"
_FORMAT_VERSION = 1


@dataclass
class FeatureSequence:
    """One utterance: (I+3) x N_raw feature matrix tagged with its speaker."""

    data: np.ndarray
    speaker: str
    frame_period_ms: float = 8.0

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=np.float64)
        if self.data.ndim != 2 or self.data.shape[0] < 4:
            raise FormatError(f"feature matrix must be (I+3) x N, got {self.data.shape}")

    @property
    def n_mcc(self) -> int:
        return self.data.shape[0] - 3

    @property
    def n_frames(self) -> int:
        return self.data.shape[1]

    @property
    def voiced(self) -> np.ndarray:
        return self.data[-1] >= VOICED_THRESHOLD


@dataclass
class StackedSequence:
    """A FeatureSequence with r consecutive frames stacked per column."""

    data: np.ndarray
    r: int
    n_raw: int
    n_feat: int
    speaker: str
    frame_period_ms: float = 8.0

    @property
    def n_frames(self) -> int:
        return self.data.shape[1]


@dataclass
class SpeakerStats:
    """Per-speaker mean/std of the MCC and log-F0 rows over voiced frames."""

    n_mcc: int
    speakers: list[str]
    mean: dict[str, np.ndarray]
    std: dict[str, np.ndarray]

    def for_speaker(self, speaker: str) -> tuple[np.ndarray, np.ndarray]:
        if speaker not in self.mean:
            raise StatsError(f"no statistics for speaker {speaker!r}")
        return self.mean[speaker], self.std[speaker]


@dataclass
class Corpus:
    """Parallel corpus: every speaker has one utterance per index."""

    speakers: list[str]
    utterances: dict[str, list[FeatureSequence]]
    frame_period_ms: float = 8.0
    warp_ratios: dict[str, list[float]] = field(default_factory=dict)

    def __post_init__(self):
        counts = {len(self.utterances[s]) for s in self.speakers}
        if len(counts) > 1:
            raise FormatError(f"corpus is not parallel: utterance counts {sorted(counts)}")

    @property
    def n_utterances(self) -> int:
        return len(self.utterances[self.speakers[0]])

    @property
    def n_mcc(self) -> int:
        return self.utterances[self.speakers[0]][0].n_mcc


# ---------------------------------------------------------------------------
# statistics and normalization

def compute_stats(corpus: Corpus, train_utterances: int | None = None) -> SpeakerStats:
    """Population mean/std per feature over each speaker's voiced frames."""
    n_mcc = corpus.n_mcc
    mean: dict[str, np.ndarray] = {}
    std: dict[str, np.ndarray] = {}
    n_train = corpus.n_utterances if train_utterances is None else train_utterances
    if not 1 <= n_train <= corpus.n_utterances:
        raise StatsError(f"train_utterances={n_train} is outside 1..{corpus.n_utterances}")
    for spk in corpus.speakers:
        frames = [seq.data[:n_mcc + 1, seq.voiced]
                  for seq in corpus.utterances[spk][:n_train]]
        pooled = np.concatenate(frames, axis=1)
        if pooled.shape[1] == 0:
            raise StatsError(f"speaker {spk!r} has no voiced frames")
        mu = pooled.mean(axis=1)
        sigma = pooled.std(axis=1)
        if (sigma <= 1e-12).any():
            bad = int(np.argmax(sigma <= 1e-12))
            raise StatsError(f"speaker {spk!r} feature {bad} has zero variance")
        mean[spk] = mu
        std[spk] = sigma
    return SpeakerStats(n_mcc=n_mcc, speakers=list(corpus.speakers), mean=mean, std=std)


def check_stats_size(n_mcc: int, stats: SpeakerStats) -> None:
    """StatsError unless stats are for features with n_mcc MCCs."""
    if stats.n_mcc != n_mcc:
        raise StatsError(f"statistics are for {stats.n_mcc} MCCs, features have {n_mcc}")


def normalize(seq: FeatureSequence, stats: SpeakerStats) -> FeatureSequence:
    check_stats_size(seq.n_mcc, stats)
    mu, sigma = stats.for_speaker(seq.speaker)
    out = seq.data.copy()
    k = stats.n_mcc + 1
    out[:k] = (out[:k] - mu[:, None]) / sigma[:, None]
    return FeatureSequence(out, seq.speaker, seq.frame_period_ms)


def denormalize(seq: FeatureSequence, stats: SpeakerStats,
                speaker: str | None = None) -> FeatureSequence:
    check_stats_size(seq.n_mcc, stats)
    spk = seq.speaker if speaker is None else speaker
    mu, sigma = stats.for_speaker(spk)
    out = seq.data.copy()
    k = stats.n_mcc + 1
    out[:k] = out[:k] * sigma[:, None] + mu[:, None]
    return FeatureSequence(out, spk, seq.frame_period_ms)


def stack(seq: FeatureSequence, r: int) -> StackedSequence:
    """Concatenate r consecutive frames per column, zero-padding the tail."""
    if r < 1:
        raise FormatError(f"reduction factor must be >= 1, got {r}")
    f, n_raw = seq.data.shape
    n = math.ceil(n_raw / r)
    padded = np.zeros((f, n * r), dtype=np.float64)
    padded[:, :n_raw] = seq.data
    out = padded.reshape(f, n, r).transpose(2, 0, 1).reshape(r * f, n)
    return StackedSequence(out.copy(), r=r, n_raw=n_raw, n_feat=f,
                           speaker=seq.speaker, frame_period_ms=seq.frame_period_ms)


def unstack(st: StackedSequence) -> FeatureSequence:
    f, r = st.n_feat, st.r
    n = st.data.shape[1]
    raw = st.data.reshape(r, f, n).transpose(1, 2, 0).reshape(f, n * r)
    return FeatureSequence(raw[:, :st.n_raw].copy(), st.speaker, st.frame_period_ms)


def adjust_output_stats(seq: FeatureSequence, stats: SpeakerStats) -> FeatureSequence:
    """Affinely map MCC/log-F0 rows so their voiced-frame sample mean/std
    match the stored statistics of seq.speaker."""
    check_stats_size(seq.n_mcc, stats)
    mu, sigma = stats.for_speaker(seq.speaker)
    voiced = seq.voiced
    if voiced.sum() < 2:
        raise AdjustmentError("output adjustment needs at least 2 voiced frames")
    k = stats.n_mcc + 1
    sample = seq.data[:k, voiced]
    m = sample.mean(axis=1)
    s = sample.std(axis=1)
    if (s <= 1e-12).any():
        raise AdjustmentError("zero sample variance in converted output")
    out = seq.data.copy()
    out[:k] = (out[:k] - m[:, None]) / s[:, None] * sigma[:, None] + mu[:, None]
    return FeatureSequence(out, seq.speaker, seq.frame_period_ms)


# ---------------------------------------------------------------------------
# binary file formats

def _stored(path, arr: np.ndarray, dtype: str) -> np.ndarray:
    """arr as the dtype it is stored in, which the reader requires finite
    (1e39, say, overflows <f4 to inf)."""
    with np.errstate(over="ignore"):
        out = np.ascontiguousarray(arr, dtype=dtype)
    if not np.isfinite(out).all():
        container.fail(path, f"non-finite value as {dtype}; nothing written")
    return out


def save_features(seq: FeatureSequence, path) -> None:
    data = _stored(path, seq.data.T, "<f4")
    with container.writing(path, _FEATURES_MAGIC, _FORMAT_VERSION) as w:
        w.fields("<IIf", seq.n_mcc, seq.n_frames, seq.frame_period_ms)
        w.string(seq.speaker)
        w.array(data, "<f4")


def load_features(path) -> FeatureSequence:
    r = container.Reader(path, _FEATURES_MAGIC, _FORMAT_VERSION)
    n_mcc, n_raw, period = r.fields("<IIf")
    if n_mcc < 1 or period <= 0.0:
        container.fail(path, f"bad header: {n_mcc} MCC rows, frame period {period} ms")
    speaker = r.string()
    data = r.array("<f4", (n_raw, n_mcc + 3)).T
    r.end()
    return FeatureSequence(data, speaker, period)


def save_stats(stats: SpeakerStats, path) -> None:
    arrays = [(spk, _stored(path, stats.mean[spk], "<f8"), _stored(path, stats.std[spk], "<f8"))
              for spk in stats.speakers]
    with container.writing(path, _STATS_MAGIC, _FORMAT_VERSION) as w:
        w.fields("<II", stats.n_mcc, len(stats.speakers))
        for spk, mean, std in arrays:
            w.string(spk)
            w.array(mean, "<f8")
            w.array(std, "<f8")


def load_stats(path) -> SpeakerStats:
    r = container.Reader(path, _STATS_MAGIC, _FORMAT_VERSION)
    n_mcc, n_spk = r.fields("<II")
    mean, std = {}, {}
    for _ in range(n_spk):
        spk = r.string()
        if spk in mean:
            container.fail(path, f"duplicate speaker {spk!r}")
        mean[spk] = r.array("<f8", (n_mcc + 1,))
        std[spk] = r.array("<f8", (n_mcc + 1,))
        if not (std[spk] > 0.0).all():
            container.fail(path, f"non-positive standard deviation for speaker {spk!r}")
    r.end()
    return SpeakerStats(n_mcc=n_mcc, speakers=list(mean), mean=mean, std=std)


def save_corpus(corpus: Corpus, out_dir) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for spk in corpus.speakers:
        for i, seq in enumerate(corpus.utterances[spk]):
            save_features(seq, out / f"{spk}_{i:03d}.vtnf")
    manifest = {
        "version": _FORMAT_VERSION,
        "speakers": corpus.speakers,
        "n_utterances": corpus.n_utterances,
        "frame_period_ms": corpus.frame_period_ms,
    }
    (out / "corpus.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def load_corpus(data_dir) -> Corpus:
    root = Path(data_dir)
    path = root / "corpus.json"
    manifest = container.parse_json(path, path.read_bytes())
    speakers = container.value(path, manifest, "speakers", list)
    if not speakers or not all(type(s) is str for s in speakers):
        container.fail(path, "'speakers' must be a non-empty list of names")
    if len(set(speakers)) != len(speakers):
        container.fail(path, f"'speakers' {speakers} repeats a name")
    n_utterances = container.value(path, manifest, "n_utterances", int)
    if n_utterances < 1:
        container.fail(path, f"'n_utterances' is {n_utterances}, expected at least 1")
    frame_period_ms = manifest.get("frame_period_ms", 8.0)
    if type(frame_period_ms) not in (int, float) or not 0 < frame_period_ms < math.inf:
        container.fail(path, f"'frame_period_ms' is {frame_period_ms!r}, "
                             f"expected a finite positive number")
    utterances = {
        spk: [load_features(root / f"{spk}_{i:03d}.vtnf") for i in range(n_utterances)]
        for spk in speakers
    }
    return Corpus(speakers=speakers, utterances=utterances, frame_period_ms=frame_period_ms)


# ---------------------------------------------------------------------------
# synthetic parallel corpus

def _smooth(x: np.ndarray, window: int) -> np.ndarray:
    """Moving average along the last axis, same length."""
    kernel = np.ones(window) / window
    pad = window // 2
    xp = np.pad(x, [(0, 0)] * (x.ndim - 1) + [(pad, pad)], mode="edge")
    return np.apply_along_axis(lambda v: np.convolve(v, kernel, mode="valid"), -1, xp)


def _warp(rows: np.ndarray, ratio: float) -> np.ndarray:
    """Monotone linear-interpolation time warp to round(N * ratio) frames."""
    n = rows.shape[1]
    m = max(2, int(round(n * ratio)))
    pos = np.linspace(0.0, n - 1.0, m)
    grid = np.arange(n, dtype=np.float64)
    return np.stack([np.interp(pos, grid, row) for row in rows])


def gen_synthetic_corpus(n_speakers: int, n_utterances: int, seed: int,
                         n_mcc: int = 28,
                         raw_len_range: tuple[int, int] = (120, 240),
                         warp_range: tuple[float, float] = (0.7, 1.4),
                         identity_maps: bool = False,
                         frame_period_ms: float = 8.0) -> Corpus:
    """Deterministic parallel corpus from a shared latent content trajectory.

    Each utterance is a smoothed random walk; each speaker applies a fixed
    affine feature map, a fixed log-F0 offset and a per-utterance monotone
    time warp.  With identity_maps=True the MCCs are the first n_mcc of the 8
    latent content rows (zero past the eighth), and with warp_range=(1, 1)
    too every speaker produces bit-identical utterances (useful for
    degenerate-setting tests).
    """
    if n_speakers < 2:
        raise FormatError("synthetic corpus needs at least 2 speakers")
    if n_utterances < 1:
        raise ConfigError(f"synthetic corpus: utterances={n_utterances} must be at least 1")
    if n_mcc < 1:
        raise ConfigError(f"synthetic corpus: n_mcc={n_mcc} must be at least 1")
    if seed < 0:
        raise ConfigError(f"synthetic corpus: seed={seed} must not be negative")
    lo, hi = raw_len_range
    if not 1 <= lo <= hi:
        raise ConfigError(f"synthetic corpus: lengths {lo}..{hi} need 1 <= min <= max")
    if not 0.0 < warp_range[0] <= warp_range[1] < math.inf:
        raise ConfigError(f"synthetic corpus: warp ratios {warp_range[0]}..{warp_range[1]} "
                          "need 0 < min <= max < inf")
    rng = np.random.default_rng(seed)
    p = 8  # latent content dimension

    speakers = [f"spk{s}" for s in range(n_speakers)]
    maps = []
    for _ in speakers:
        a = rng.normal(0.0, 0.5, size=(n_mcc, p))
        b = rng.normal(0.0, 0.5, size=n_mcc)
        f0_off = rng.normal(0.0, 0.3)
        ap_off = rng.normal(0.0, 0.2)
        if identity_maps:
            a = np.eye(n_mcc, p)
            b = np.zeros(n_mcc)
            f0_off = 0.0
            ap_off = 0.0
        maps.append((a, b, f0_off, ap_off))

    utterances: dict[str, list[FeatureSequence]] = {s: [] for s in speakers}
    ratios: dict[str, list[float]] = {s: [] for s in speakers}
    for _ in range(n_utterances):
        n = int(rng.integers(lo, hi + 1))
        content = _smooth(np.cumsum(rng.normal(0.0, 0.3, size=(p, n)), axis=1), 5)
        f0_track = _smooth(np.cumsum(rng.normal(0.0, 0.1, size=n)), 5)
        ap_track = _smooth(rng.normal(0.0, 1.0, size=n), 5)
        vuv_latent = _smooth(rng.normal(size=n), 21)
        vuv = (vuv_latent > np.quantile(vuv_latent, 0.25)).astype(np.float64)

        base = np.vstack([content, f0_track[None], ap_track[None], vuv[None]])
        for spk, (a, b, f0_off, ap_off) in zip(speakers, maps):
            ratio = float(rng.uniform(*warp_range))
            warped = _warp(base, ratio)
            c_w = warped[:p]
            f0_w, ap_w = warped[p], warped[p + 1]
            vuv_w = (warped[p + 2] >= 0.5).astype(np.float64)
            data = np.vstack([
                a @ c_w + b[:, None],
                (5.0 + f0_off + 0.2 * f0_w)[None],
                (-1.0 + ap_off + 0.3 * ap_w)[None],
                vuv_w[None],
            ])
            utterances[spk].append(FeatureSequence(data, spk, frame_period_ms))
            ratios[spk].append(ratio)

    return Corpus(speakers=speakers, utterances=utterances,
                  frame_period_ms=frame_period_ms, warp_ratios=ratios)
