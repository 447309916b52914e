"""The benchmark's workloads.

Each workload builds its inputs in ``setup`` (from the run's seed), hands out
one round of operations, and checks the outputs of every round after the
timed phase.  An operation returns (raw frames consumed, output).  All calls
into the package go through module attributes, so the traced run sees them.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from vtn import autodiff, converter, features, losses, metrics, model, trainer

import reference

# the acceptance gate's experiment size (L=2, H=2, d=32)
OVERFIT_CFG = dict(L=2, H=2, d=32, d_ffn=64, n_mcc=28, r=3, e=8, n_speakers=2)
MODEL_SEED = 0
GATE_CORPUS_SEED = 7          # the acceptance gate's corpus


def _gate_corpus():
    return features.gen_synthetic_corpus(2, 20, seed=GATE_CORPUS_SEED, raw_len_range=(120, 240))


def _fixed_length_corpus(seed: int, n_raw: int, warp: float = 1.0):
    """Two speakers, one utterance of exactly round(n_raw * warp) frames each."""
    return features.gen_synthetic_corpus(2, 1, seed=seed, raw_len_range=(n_raw, n_raw),
                                         warp_range=(warp, warp))


def _conversion_ok(seq, out, res, r: int, realtime: bool) -> bool:
    """Output length, finiteness and V/UV range of one conversion."""
    steps = len(res.n_hat)
    n_raw = seq.n_frames if realtime else r * steps
    return (res.output.shape[1] == steps and out.n_frames == n_raw
            and bool(np.isfinite(out.data).all()) and bool(np.isfinite(res.output).all())
            and bool(((out.data[-1] >= 0.0) & (out.data[-1] <= 1.0)).all()))


def _same_conversion(a, b) -> bool:
    (out_a, res_a), (out_b, res_b) = a, b
    return (np.array_equal(out_a.data, out_b.data) and np.array_equal(res_a.output, res_b.output)
            and res_a.n_hat == res_b.n_hat)


def _repeat_check(rounds, check_first, same) -> list[list[bool]]:
    """Check round 0 in full; a later round passes where its output equals
    round 0's (every operation is deterministic)."""
    first = [out is not None and check_first(j, out) for j, out in enumerate(rounds[0])]
    return [first] + [[first[j] and same(out, rounds[0][j]) for j, out in enumerate(outs)]
                      for outs in rounds[1:]]


class ConvertOffline:
    """An untrained non-realtime model converts one utterance of the gate
    corpus in default and in windowed mode."""

    # Utterance 7 of the gate corpus (143 raw frames) decodes to the
    # 2 x 48-step cap in both modes.  Inputs do not depend on the seed: an
    # untrained model's stop decision depends on the source content, and
    # seeded sources stop anywhere from step 1 to the cap, which would make
    # the work per operation differ by up to 100x between runs.
    UTTERANCE = 7
    MODES = ("default", "windowed")

    def setup(self, seed: int, workdir: Path) -> None:
        corpus = _gate_corpus()
        self.stats = features.compute_stats(corpus)
        self.seq = corpus.utterances["spk0"][self.UTTERANCE]
        self.model = model.VtnModel.init(model.VtnConfig(**OVERFIT_CFG), seed=MODEL_SEED,
                                         speakers=list(corpus.speakers))

    def round(self):
        return [lambda mode=mode: self._convert(mode) for mode in self.MODES]

    def _convert(self, mode):
        cfg = converter.DecodeConfig(mode=mode)
        return self.seq.n_frames, converter.convert_sequence(self.model, self.seq, "spk1",
                                                             self.stats, cfg)

    def check(self, rounds):
        return _repeat_check(rounds, self._check_first, _same_conversion)

    def _check_first(self, j, output) -> bool:
        out, res = output
        m = self.model
        if not _conversion_ok(self.seq, out, res, m.config.r, realtime=False):
            return False
        src = features.stack(features.normalize(self.seq, self.stats), m.config.r).data
        if self.MODES[j] == "default":
            # one teacher-forced pass over the zero-prefixed output reproduces it
            prefix = np.concatenate([np.zeros((m.config.D, 1)), res.output], axis=1)
            with autodiff.column_exact():
                z = m.encode(src, k=0)
                y, _ = m.decode(prefix, z, kp=1)
            return np.array_equal(y.data[:, :res.output.shape[1]], res.output)
        # windowed: each attended position lies in the window around the last
        n0, n1 = converter.DecodeConfig(mode="windowed").window_frames(
            self.seq.frame_period_ms, m.config.r)
        prev, n_src = 1, src.shape[1]
        for n_hat in res.n_hat:
            if not max(1, prev - n0) <= n_hat <= min(prev + n1, n_src):
                return False
            prev = n_hat
        return True


class ConvertRealtime:
    """An untrained realtime model converts short seeded utterances."""

    # Five utterances of one length (raw frames).  With mixed lengths the
    # operation times fall into one cluster per length, and their median
    # jumps between clusters from run to run.
    N_UTTERANCES = 5
    LENGTH = 75

    def setup(self, seed: int, workdir: Path) -> None:
        self.model = model.VtnModel.init(model.VtnConfig(**OVERFIT_CFG, realtime=True),
                                         seed=MODEL_SEED, speakers=["spk0", "spk1"])
        self.inputs = []
        for i in range(self.N_UTTERANCES):
            corpus = _fixed_length_corpus(1000 * seed + i, self.LENGTH)
            self.inputs.append((corpus.utterances["spk0"][0], features.compute_stats(corpus)))

    def round(self):
        return [lambda i=i: self._convert(i) for i in range(len(self.inputs))]

    def _convert(self, i):
        seq, stats = self.inputs[i]
        cfg = converter.DecodeConfig(mode="realtime")
        return seq.n_frames, converter.convert_sequence(self.model, seq, "spk1", stats, cfg)

    def check(self, rounds):
        return _repeat_check(rounds, self._check_first, _same_conversion)

    def _check_first(self, j, output) -> bool:
        out, res = output
        seq, stats = self.inputs[j]
        r = self.model.config.r
        if not _conversion_ok(seq, out, res, r, realtime=True):
            return False
        src = features.stack(features.normalize(seq, stats), r).data
        n = src.shape[1]
        if res.n_hat != list(range(1, n + 1)):
            return False
        # streaming: a prefix of the source gives a prefix of the output
        part = converter.convert(self.model, src[:, :n // 2], 0, 1,
                                 converter.DecodeConfig(mode="realtime"), seq.frame_period_ms)
        return np.array_equal(part.output, res.output[:, :n // 2])


class TrainM2M:
    """Many-to-many training steps with the identity-mapping loss."""

    LR = 1e-3
    BATCH = 4
    LAMBDA_DAL, LAMBDA_IML, NU = 2000.0, 1.0, 0.3
    OBJECTIVE_RTOL = 1e-12
    GRAD_RTOL, GRAD_ATOL = 1e-4, 1e-8
    GRAD_H = 1e-6
    GRAD_PARAMS = 4

    def setup(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.corpus = _gate_corpus()
        self.stats = features.compute_stats(self.corpus)
        self.cfg = model.VtnConfig(**OVERFIT_CFG)
        self.model = model.VtnModel.init(self.cfg, seed=seed, speakers=list(self.corpus.speakers))
        self.train_cfg = trainer.TrainConfig(lr=self.LR, batch_size=self.BATCH, seed=seed,
                                             lambda_dal=self.LAMBDA_DAL,
                                             lambda_iml=self.LAMBDA_IML, nu=self.NU)
        self.opt = autodiff.AdamState()
        self.rng = np.random.default_rng(seed)
        self.last_batch = None

    def round(self):
        return [self._step]

    def _step(self):
        batch = trainer.make_batch(self.corpus, self.stats, self.cfg, self.train_cfg, self.rng)
        breakdown = trainer.train_step(self.model, batch, self.opt, self.train_cfg, self.rng)
        self.last_batch = batch
        # source and target of every pair, without the zero column of tgt0
        frames = self.cfg.r * sum(src.shape[1] + tgt0.shape[1] - 1 for _, _, src, tgt0 in batch)
        return frames, breakdown["total"]

    def check(self, rounds):
        program_ok = (self.last_batch is not None
                      and self._objective_ok() and self._gradients_ok())
        return [[program_ok and loss is not None and bool(np.isfinite(loss)) for loss in outs]
                for outs in rounds]

    def _loss(self):
        weights = self.train_cfg.loss_weights(self.cfg.n_mcc)
        return losses.total_loss(self.model, self.last_batch, weights, training=False)[0]

    def _objective_ok(self) -> bool:
        """The last step's batch, at the final weights with dropout off."""
        want = reference.objective(self.model, self.last_batch, self.LAMBDA_DAL,
                                   self.LAMBDA_IML, self.NU)
        return reference.close(float(self._loss().data), want, self.OBJECTIVE_RTOL)

    def _gradients_ok(self) -> bool:
        """Backward gradients against central differences at the largest
        gradient entry of a few seeded parameters."""
        self.model.zero_grads()
        self._loss().backward()
        params = self.model.params
        rng = np.random.default_rng(self.seed)
        names = rng.choice(sorted(n for n, p in params.items() if p.grad is not None),
                           size=self.GRAD_PARAMS, replace=False)
        ok = True
        for name in names:
            p = params[name]
            idx = np.unravel_index(int(np.argmax(np.abs(p.grad))), p.grad.shape)
            numeric = reference.central_difference(lambda: float(self._loss().data),
                                                   p.data, idx, self.GRAD_H)
            ok &= reference.close(float(p.grad[idx]), numeric, self.GRAD_RTOL, self.GRAD_ATOL)
        self.model.zero_grads()
        return ok


class EvaluateLong:
    """Long parallel pairs written as feature files and scored."""

    # (converted, reference) raw frames.  Both sides come from one latent
    # utterance: two corpora with the same seed share every random draw and
    # differ only in their fixed warp ratio, hence in length.  Every pair has
    # the same 308 000 DTW cells, so every operation does the same work and
    # the median operation time does not jump between pair sizes.
    PAIRS = ((440, 700), (700, 440), (550, 560), (616, 500), (500, 616))
    BASE = 500
    RTOL = 1e-9

    def setup(self, seed: int, workdir: Path) -> None:
        self.files = []
        for i, (n_conv, n_ref) in enumerate(self.PAIRS):
            conv = _fixed_length_corpus(1000 * seed + i, self.BASE, n_conv / self.BASE)
            ref = _fixed_length_corpus(1000 * seed + i, self.BASE, n_ref / self.BASE)
            paths = (workdir / f"conv_{i}.vtnf", workdir / f"ref_{i}.vtnf")
            features.save_features(conv.utterances["spk0"][0], paths[0])
            features.save_features(ref.utterances["spk1"][0], paths[1])
            self.files.append(paths)

    def round(self):
        return [lambda i=i: self._evaluate(i) for i in range(len(self.files))]

    def _evaluate(self, i):
        conv = features.load_features(self.files[i][0])
        ref = features.load_features(self.files[i][1])
        return conv.n_frames + ref.n_frames, metrics.evaluate_pair(conv, ref)

    def check(self, rounds):
        self_ok = self._self_pair_ok()
        return [[self_ok and ok for ok in row]
                for row in _repeat_check(rounds, self._check_first, lambda a, b: a == b)]

    def _check_first(self, j, result) -> bool:
        conv = features.load_features(self.files[j][0]).data
        ref = features.load_features(self.files[j][1]).data
        n_mcc = conv.shape[0] - 3
        a, b = conv[:n_mcc], ref[:n_mcc]
        path, cost = metrics.dtw(a, b)
        pairs = path.pairs
        if not reference.path_is_monotone(pairs, a.shape[1], b.shape[1]):
            return False
        if not (reference.close(float(reference.local_costs(a, b, pairs).sum()), cost, self.RTOL)
                and reference.close(reference.dtw_min_cost(a, b), cost, self.RTOL)):
            return False
        want = reference.scores(conv, ref, pairs)
        return all(result[key] is not None and reference.close(result[key], want[key], self.RTOL)
                   for key in want)

    def _self_pair_ok(self) -> bool:
        seq = features.load_features(self.files[0][0])
        got = metrics.evaluate_pair(seq, seq)
        return (got["mcd_db"] == 0.0 and got["ldr_pct"] == 0.0
                and got["lfc"] is not None and abs(got["lfc"] - 1.0) <= 1e-12)


WORKLOADS = {
    "convert-offline": ConvertOffline,
    "convert-realtime": ConvertRealtime,
    "train-m2m": TrainM2M,
    "evaluate-long": EvaluateLong,
}
