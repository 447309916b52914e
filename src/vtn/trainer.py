"""Deterministic training loop: speaker-pair batching, Adam, checkpoints."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import autodiff as ad
from . import container
from .autodiff import AdamState
from .errors import ConfigError, ShapeError, TrainingDivergedError
from .features import Corpus, SpeakerStats, normalize, stack
from .losses import LossWeights, total_loss
from .model import VtnConfig, VtnModel

_STATE_MAGIC = b"VTNO"
_STATE_VERSION = 1

BatchItem = tuple[int, int, np.ndarray, np.ndarray]


@dataclass
class TrainConfig:
    lr: float = 1e-4
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    batch_size: int = 16
    iterations: int = 30000
    seed: int = 0
    lambda_dal: float = 2000.0
    lambda_iml: float = 1.0
    nu: float = 0.3
    grad_clip: float = 1.0
    checkpoint_every: int = 1000
    train_utterances: int | None = None  # None = all utterances

    def __post_init__(self):
        container.check_fields(
            self, "train config", lr="[0, inf)", beta1="[0, 1)", beta2="[0, 1)",
            eps="(0, inf)", batch_size="[1, inf)", iterations="[0, inf)", seed="[0, inf)",
            lambda_dal="[0, inf)", lambda_iml="[0, inf)", nu="(0, inf)",
            grad_clip="[0, inf)", checkpoint_every="[1, inf)", train_utterances="[1, inf)")

    def loss_weights(self, n_mcc: int) -> LossWeights:
        from .losses import default_feature_weights
        return LossWeights(lambda_dal=self.lambda_dal, lambda_iml=self.lambda_iml,
                           nu=self.nu, gamma=default_feature_weights(n_mcc))


def prepare_pair(corpus: Corpus, stats: SpeakerStats, cfg: VtnConfig,
                 k: int, kp: int, utt: int) -> BatchItem:
    """Normalized, stacked source plus zero-prepended normalized stacked target."""
    src_seq = corpus.utterances[corpus.speakers[k]][utt]
    tgt_seq = corpus.utterances[corpus.speakers[kp]][utt]
    src = stack(normalize(src_seq, stats), cfg.r).data
    tgt = stack(normalize(tgt_seq, stats), cfg.r).data
    tgt0 = np.concatenate([np.zeros((tgt.shape[0], 1)), tgt], axis=1)
    return (k, kp, src, tgt0)


def make_batch(corpus: Corpus, stats: SpeakerStats, cfg: VtnConfig,
               train_cfg: TrainConfig, rng: np.random.Generator) -> list[BatchItem]:
    """One mini-batch: a single ordered speaker pair, batch_size utterances,
    plus the matching identity pairs for the identity mapping term."""
    n_spk = len(corpus.speakers)
    if cfg.mode == "one_to_one":
        k, kp = 0, 1
        if n_spk < 2:
            raise ShapeError("one_to_one training needs 2 speakers in the corpus")
    else:
        if n_spk < 2:
            raise ShapeError("many-to-many training needs at least 2 speakers")
        k = int(rng.integers(n_spk))
        kp = int(rng.integers(n_spk - 1))
        if kp >= k:
            kp += 1
    n_train = train_cfg.train_utterances or corpus.n_utterances
    utts = rng.integers(n_train, size=train_cfg.batch_size)
    batch: list[BatchItem] = []
    for u in utts:
        batch.append(prepare_pair(corpus, stats, cfg, k, kp, int(u)))
    if cfg.mode != "one_to_one" and train_cfg.lambda_iml != 0.0:
        for u in utts:
            batch.append(prepare_pair(corpus, stats, cfg, k, k, int(u)))
            batch.append(prepare_pair(corpus, stats, cfg, kp, kp, int(u)))
    return batch


def clip_global_norm(model: VtnModel, max_norm: float) -> float:
    total = 0.0
    for t in model.params.values():
        if t.grad is not None:
            total += float((t.grad * t.grad).sum())
    norm = float(np.sqrt(total))
    if max_norm > 0.0 and norm > max_norm:
        factor = max_norm / norm
        for t in model.params.values():
            if t.grad is not None:
                t.grad *= factor
    return norm


def train_step(model: VtnModel, batch: list[BatchItem], opt_state: AdamState,
               train_cfg: TrainConfig, rng: np.random.Generator) -> dict[str, float]:
    """One forward/backward/Adam update.  Returns the loss breakdown plus
    grad_norm, the global gradient norm before clipping, and clipped,
    whether clipping scaled the gradients down."""
    weights = train_cfg.loss_weights(model.config.n_mcc)
    model.zero_grads()
    loss, breakdown = total_loss(model, batch, weights, training=True, rng=rng)
    if not np.isfinite(loss.data):
        raise TrainingDivergedError(f"non-finite loss at step {opt_state.step + 1}: {breakdown}")
    loss.backward()
    norm = clip_global_norm(model, train_cfg.grad_clip)
    if not np.isfinite(norm):
        # a NaN norm skips clipping, and Adam would write NaN into every weight
        raise TrainingDivergedError(
            f"non-finite gradient norm at step {opt_state.step + 1}: {breakdown}")
    ad.adam_step(model.params, opt_state, train_cfg.lr, train_cfg.beta1,
                 train_cfg.beta2, train_cfg.eps)
    return {**breakdown, "grad_norm": norm,
            "clipped": train_cfg.grad_clip > 0.0 and norm > train_cfg.grad_clip}


@dataclass
class TrainResult:
    model: VtnModel
    log: list[dict[str, float]] = field(default_factory=list)


def save_trainer_state(path, iteration: int, opt_state: AdamState,
                       rng: np.random.Generator) -> None:
    header = {"iteration": iteration, "adam_step": opt_state.step,
              "rng_state": rng.bit_generator.state}
    arrays = {f"m.{k}": v for k, v in opt_state.m.items()}
    arrays.update({f"v.{k}": v for k, v in opt_state.v.items()})
    with container.writing(path, _STATE_MAGIC, _STATE_VERSION) as writer:
        container.write_json_blocks(writer, header, arrays)


def load_trainer_state(path) -> tuple[int, AdamState, dict]:
    header, arrays = container.read_json_blocks(
        container.Reader(path, _STATE_MAGIC, _STATE_VERSION))
    iteration = container.value(path, header, "iteration", int)
    state = AdamState()
    state.step = container.value(path, header, "adam_step", int)
    rng_state = container.value(path, header, "rng_state", dict)
    try:
        # train() restores this state into a default_rng, i.e. a PCG64
        np.random.PCG64(0).state = rng_state
    except (TypeError, ValueError, KeyError, OverflowError) as exc:
        container.fail(path, f"bad rng_state: {exc!r}")
    for name, arr in arrays.items():
        kind, _, pname = name.partition(".")
        if kind not in ("m", "v") or not pname:
            container.fail(path, f"block {name!r} is neither m.<param> nor v.<param>")
        (state.m if kind == "m" else state.v)[pname] = arr
    if state.m.keys() != state.v.keys():
        container.fail(path, "first and second moments cover different parameters")
    return iteration, state, rng_state


def _checkpoint(out_dir: Path, tag: str, model: VtnModel, iteration: int,
                opt_state: AdamState, rng: np.random.Generator) -> None:
    model.save(out_dir / f"{tag}.vtnm")
    save_trainer_state(out_dir / f"{tag}.vtno", iteration, opt_state, rng)


def _truncate_log(path: Path, last_iter: int, row_iter) -> None:
    """Atomically cut a log file back to its rows up to iteration last_iter;
    row_iter reads a row's iteration.  Rows run in iteration order, so the
    first later row, or a row cut short by an interrupted write, ends what
    is kept."""
    if not path.exists():
        return
    kept = []
    for line in path.read_bytes().splitlines(keepends=True):
        try:
            if not line.endswith(b"\n") or row_iter(line) > last_iter:
                break
        except ValueError:
            break
        kept.append(line)
    with container.replacing(path) as fh:
        fh.writelines(kept)


def train(corpus: Corpus, cfg: VtnConfig, train_cfg: TrainConfig,
          stats: SpeakerStats | None = None, out_dir=None,
          resume=None, model: VtnModel | None = None,
          log_every: int = 1) -> TrainResult:
    """Run the full loop.  With out_dir set, writes checkpoints each cadence
    and two append-only logs with a row per logged step: train_log.tsv holds
    the loss terms, train_metrics.jsonl the gradient norm before clipping and
    whether clipping scaled the gradients.  resume points at a checkpoint tag
    path without extension (loads .vtnm + .vtno); both logs in out_dir are
    then cut back to the checkpoint's iteration before training goes on."""
    from .features import compute_stats
    if log_every < 1:
        raise ConfigError(f"log_every={log_every} must be at least 1")
    if (train_cfg.train_utterances or 0) > corpus.n_utterances:
        raise ConfigError(f"train config: train_utterances={train_cfg.train_utterances} "
                          f"exceeds the corpus's {corpus.n_utterances} utterances")
    if stats is None:
        stats = compute_stats(corpus, train_cfg.train_utterances)

    rng = np.random.default_rng(train_cfg.seed)
    start_iter = 0
    opt_state = AdamState()
    if resume is not None:
        resume = Path(resume)
        model = VtnModel.load(resume.with_suffix(".vtnm"))
        start_iter, opt_state, rng_state = load_trainer_state(resume.with_suffix(".vtno"))
        rng.bit_generator.state = rng_state
    elif model is None:
        model = VtnModel.init(cfg, seed=train_cfg.seed, speakers=list(corpus.speakers))
    cfg = model.config

    out_path = Path(out_dir) if out_dir is not None else None
    log_fh = metrics_fh = None
    if out_path is not None:
        out_path.mkdir(parents=True, exist_ok=True)
        log_path, metrics_path = out_path / "train_log.tsv", out_path / "train_metrics.jsonl"
        if resume is not None:
            _truncate_log(log_path, start_iter, lambda row: int(row.split(b"\t", 1)[0]))
            _truncate_log(metrics_path, start_iter, lambda row: json.loads(row)["iter"])
        log_fh = open(log_path, "a", encoding="utf-8")
        metrics_fh = open(metrics_path, "a", encoding="utf-8")

    result = TrainResult(model=model)
    try:
        if train_cfg.iterations == 0 and out_path is not None:
            _checkpoint(out_path, "final", model, 0, opt_state, rng)
        for it in range(start_iter + 1, train_cfg.iterations + 1):
            batch = make_batch(corpus, stats, cfg, train_cfg, rng)
            try:
                breakdown = train_step(model, batch, opt_state, train_cfg, rng)
            except TrainingDivergedError:
                if out_path is not None:
                    # parameters are still pre-update when the loss blows up,
                    # so this checkpoint holds the last usable weights
                    _checkpoint(out_path, "last_good", model, it - 1, opt_state, rng)
                    log_fh.flush()
                    metrics_fh.flush()
                raise
            if it % log_every == 0 or it == train_cfg.iterations:
                row = {"iter": it, **breakdown}
                result.log.append(row)
                if log_fh is not None:
                    log_fh.write("{iter}\t{main:.10g}\t{dal:.10g}\t{iml:.10g}\t{total:.10g}\n"
                                 .format(**row))
                    metrics_fh.write(json.dumps({"iter": it, "grad_norm": row["grad_norm"],
                                                 "clipped": row["clipped"]}) + "\n")
            if out_path is not None and (
                    it % train_cfg.checkpoint_every == 0 or it == train_cfg.iterations):
                # a resume from this checkpoint keeps the rows up to it
                log_fh.flush()
                metrics_fh.flush()
                tag = f"ckpt_{it:06d}" if it != train_cfg.iterations else "final"
                _checkpoint(out_path, tag, model, it, opt_state, rng)
    finally:
        for fh in (log_fh, metrics_fh):
            if fh is not None:
                fh.close()
    return result
