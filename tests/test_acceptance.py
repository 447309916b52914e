"""Acceptance gate: one test per release criterion, each printing a single
PASS/FAIL line.  The slow synthetic-training experiments sit at the bottom;
their thresholds were frozen after a single calibration run with the same
corpus seed (7) and are recorded next to each test.
"""

import math
import sys
import time

import numpy as np
import pytest

from vtn import autodiff as ad
from vtn.autodiff import Tensor, grad_check
from vtn.cli import main as cli_main
from vtn.converter import DecodeConfig, convert, convert_sequence
from vtn.features import FeatureSequence, compute_stats, gen_synthetic_corpus
from vtn.losses import LossWeights, dal, guided_weight_matrix, main_loss, total_loss
from vtn.metrics import dtw, evaluate_pair, ldr_deviation, lfc, mcd
from vtn.model import VtnConfig, VtnModel
from vtn.trainer import TrainConfig, train

from test_metrics import brute_force_dtw_cost


REPORT_LINES: list[str] = []


def _report(name: str, ok: bool, detail: str) -> None:
    line = f"ACCEPTANCE {'PASS' if ok else 'FAIL'} {name}: {detail}"
    # immediate feedback under -s; conftest re-emits all lines in the
    # terminal summary so they survive captured runs too
    print(line, file=sys.__stdout__, flush=True)
    REPORT_LINES.append(line)
    assert ok, line


def tiny_cfg(**kw):
    base = dict(L=1, H=2, d=8, d_ffn=16, n_mcc=28, r=3, e=4, n_speakers=2,
                dropout_rate=0.0)
    base.update(kw)
    return VtnConfig(**base)


# ---------------------------------------------------------------------------
# criterion 1: gradient suite, every primitive + end-to-end loss, < 60 s

def test_gradient_suite():
    t0 = time.time()
    rng = np.random.default_rng(0)
    worst = 0.0

    def check(make, shape, tol=1e-4, h=1e-5):
        nonlocal worst
        x = Tensor(rng.normal(size=shape))
        err = grad_check(make, x, h=h)
        worst = max(worst, err)
        assert err < tol, f"{make} err {err}"

    w = rng.normal(size=(4, 3))
    readout = Tensor(w)
    check(lambda t: ad.sum_all(ad.mul(ad.add(t, Tensor(w)), readout)), (4, 3))
    check(lambda t: ad.sum_all(ad.mul(ad.sub(t, Tensor(w)), readout)), (4, 3))
    check(lambda t: ad.sum_all(ad.mul(ad.mul(t, Tensor(w)), readout)), (4, 3))
    check(lambda t: ad.sum_all(ad.mul(ad.scale(t, -1.7), readout)), (4, 3))
    check(lambda t: ad.sum_all(ad.mul(ad.absolute(ad.add(t, Tensor(np.full((4, 3), 5.0)))),
                                      readout)), (4, 3))
    check(lambda t: ad.sum_all(t), (4, 3))
    check(lambda t: ad.sum_all(ad.mul(ad.transpose(t), Tensor(w.T))), (4, 3))
    check(lambda t: ad.sum_all(ad.mul(ad.slice_rows(t, 1, 3), Tensor(w[1:3]))), (4, 3))
    check(lambda t: ad.sum_all(ad.mul(ad.slice_cols(t, 0, 2), Tensor(w[:, :2]))), (4, 3))
    check(lambda t: ad.sum_all(ad.mul(ad.concat_rows([t, ad.scale(t, 2.0)]),
                                      Tensor(np.vstack([w, w])))), (4, 3))
    check(lambda t: ad.sum_all(ad.mul(ad.tile_cols(t, 3), readout)), (4, 1))

    b = Tensor(rng.normal(size=(3, 2)))
    check(lambda t: ad.sum_all(ad.matmul(t, b)), (4, 3))
    bias = Tensor(rng.normal(size=(4, 1)))
    check(lambda t: ad.sum_all(ad.mul(ad.add_bias(t, bias), readout)), (4, 3))
    check(lambda t: ad.sum_all(ad.mul(ad.add_bias(Tensor(w), t), readout)), (4, 1))

    mask = np.zeros((4, 3))
    mask[3, 1] = ad.NEG_INF
    check(lambda t: ad.sum_all(ad.mul(ad.masked_softmax_columns(t, mask), readout)),
          (4, 3), tol=1e-4)
    gain = Tensor(np.ones((4, 1)))
    bias0 = Tensor(np.zeros((4, 1)))
    check(lambda t: ad.sum_all(ad.mul(ad.layer_norm(t, gain, bias0), readout)), (4, 3))
    check(lambda t: ad.sum_all(ad.mul(ad.glu(t), Tensor(w[:2]))), (4, 3))

    kern = Tensor(rng.normal(size=(2, 2, 3)))
    check(lambda t: ad.sum_all(ad.mul(ad.conv1d(t, kern, dilation=2, causal=True),
                                      Tensor(w[:2]))), (2, 3))
    check(lambda t: ad.sum_all(ad.mul(ad.conv1d(t, kern, dilation=1, causal=False),
                                      Tensor(w[:2]))), (2, 3))
    direction = Tensor(rng.normal(size=(2, 2, 3)))
    scale_p = Tensor(rng.normal(size=(2,)))
    x_in = Tensor(rng.normal(size=(2, 3)))
    check(lambda t: ad.sum_all(ad.mul(
        ad.conv1d(x_in, ad.weight_norm_apply(t, scale_p), dilation=1, causal=True),
        Tensor(w[:2]))), (2, 2, 3))

    # end-to-end: full training loss of a tiny model w.r.t. one weight matrix
    cfg = tiny_cfg()
    model = VtnModel.init(cfg, seed=1, speakers=["a", "b"])
    src = rng.normal(size=(cfg.D, 4))
    tgt0 = np.concatenate([np.zeros((cfg.D, 1)), rng.normal(size=(cfg.D, 3))], axis=1)
    batch = [(0, 1, src, tgt0)]
    weights = LossWeights()

    def loss_of(_):
        loss, _bd = total_loss(model, batch, weights)
        return loss

    e2e = grad_check(loss_of, model.params["enc.0.sa.W1"],
                     indices=[(0, 0), (3, 5), (10, 2), (20, 9)])
    assert e2e < 1e-3, f"end-to-end err {e2e}"

    dt = time.time() - t0
    _report("gradient-suite", dt < 60.0,
            f"primitive worst rel err {worst:.2e}, end-to-end {e2e:.2e}, {dt:.1f} s")


# ---------------------------------------------------------------------------
# criterion 2: causality, exhaustive future-perturbation probes + bit-identical
# incremental decoding

def test_causality_suite():
    worst = 0.0
    for seed in (0, 1, 2):
        rng = np.random.default_rng(100 + seed)
        cfg = tiny_cfg()
        model = VtnModel.init(cfg, seed=seed, speakers=["a", "b"])
        rt = VtnModel.init(tiny_cfg(realtime=True), seed=seed, speakers=["a", "b"])
        n = 7
        src = rng.normal(size=(cfg.D, n))
        tgt0 = rng.normal(size=(cfg.D, n))
        tgt0[:, 0] = 0.0
        hid = rng.normal(size=(cfg.d, n))  # postnet runs on decoder-width input

        z = model.encode(src, k=0)
        base_dec, _ = model.decode(tgt0, z, kp=1)
        base_pre = model._prenet("tgt_prenet", Tensor(tgt0), 1, causal=True)
        base_post = model._postnet(Tensor(hid), 1)
        base_enc = rt.encode(src, k=0)
        for pos in range(n - 1):
            bump = rng.normal(size=(cfg.D, n - pos - 1)) * 5.0
            pert_t = tgt0.copy()
            pert_t[:, pos + 1:] += bump
            pert_s = src.copy()
            pert_s[:, pos + 1:] += bump
            pert_h = hid.copy()
            pert_h[:, pos + 1:] += bump[:cfg.d]
            outs = [
                (model.decode(pert_t, z, kp=1)[0], base_dec),
                (model._prenet("tgt_prenet", Tensor(pert_t), 1, causal=True), base_pre),
                (model._postnet(Tensor(pert_h), 1), base_post),
                (rt.encode(pert_s, k=0), base_enc),
            ]
            for out, base in outs:
                drift = np.abs(out.data[:, :pos + 1] - base.data[:, :pos + 1]).max()
                worst = max(worst, drift)
    assert worst <= 1e-12

    # incremental decoding == teacher-forced forward, bitwise
    model = VtnModel.init(tiny_cfg(), seed=5, speakers=["a", "b"])
    src = np.random.default_rng(50).normal(size=(model.config.D, 8))
    result = convert(model, src, 0, 1)
    prefix = np.concatenate([np.zeros((model.config.D, 1)), result.output], axis=1)
    with ad.column_exact():
        z = model.encode(src, k=0)
        y, _ = model.decode(prefix, z, kp=1)
    identical = np.array_equal(y.data[:, :result.output.shape[1]], result.output)
    _report("causality-suite", identical,
            f"max drift {worst:.1e} (<= 1e-12), incremental == batch: {identical}")


# ---------------------------------------------------------------------------
# criterion 3: loss oracles on 20 random shapes, 1e-12

def _main_loss_oracle(y, tgt0, gamma, r):
    d, n1 = tgt0.shape
    n = n1 - 1
    total = 0.0
    for col in range(n):
        for row in range(d):
            w = gamma[row % len(gamma)] / r
            total += w * abs(y[row, col] - tgt0[row, col + 1])
    return total / n


def _dal_oracle(mats, nu):
    n_src, n_tgt = mats[0].shape
    total = 0.0
    for a in mats:
        for i in range(n_src):
            for j in range(n_tgt):
                g = 1.0 - math.exp(-(((i + 1) / n_src - (j + 1) / n_tgt) ** 2)
                                   / (2.0 * nu * nu))
                total += g * abs(a[i, j])
    return total / (n_src * n_tgt * len(mats))


def test_loss_oracles():
    rng = np.random.default_rng(7)
    worst = 0.0
    for case in range(20):
        n_feat = int(rng.integers(2, 6))
        r = int(rng.integers(1, 4))
        n = int(rng.integers(2, 7))
        gamma = rng.random(n_feat) + 0.1
        y = rng.normal(size=(n_feat * r, n + 1))
        tgt0 = rng.normal(size=(n_feat * r, n + 1))
        got = main_loss(Tensor(y), tgt0, gamma, r).data
        worst = max(worst, abs(got - _main_loss_oracle(y, tgt0, gamma, r)))

        n_src = int(rng.integers(2, 8))
        n_tgt = int(rng.integers(2, 8))
        heads = int(rng.integers(1, 3))
        mats = [rng.random((n_src, n_tgt)) for _ in range(heads)]
        got = dal([[Tensor(m) for m in mats]], 0.3).data
        worst = max(worst, abs(got - _dal_oracle(mats, 0.3)))
    assert worst < 1e-12

    diag_ok = all(guided_weight_matrix(n, n, 0.3)[np.arange(n), np.arange(n)].max() == 0.0
                  for n in (2, 5, 9))
    _report("loss-oracles", diag_ok,
            f"20 shapes, worst abs err {worst:.1e} (< 1e-12), diagonal exactly 0: {diag_ok}")


# ---------------------------------------------------------------------------
# criterion 4: DTW brute-force oracle + metric fixed points

def test_dtw_oracle():
    rng = np.random.default_rng(11)
    for case in range(100):
        n_a = int(rng.integers(1, 9))
        n_b = int(rng.integers(1, 9))
        a = rng.normal(size=(3, n_a))
        b = rng.normal(size=(3, n_b))
        _, cost = dtw(a, b)
        diff = a.T[:, None, :] - b.T[None, :, :]
        local = np.sqrt((diff * diff).sum(axis=2))
        assert cost == brute_force_dtw_cost(local)

    data = np.cumsum(rng.normal(0, 0.3, size=(8, 40)), axis=1)
    data[-1] = 1.0
    seq = FeatureSequence(data, "s", 8.0)
    m = evaluate_pair(seq, seq)
    fixed = (m["mcd_db"] == 0.0 and abs(m["lfc"] - 1.0) < 1e-12
             and m["ldr_pct"] == 0.0)
    _report("dtw-oracle", fixed,
            f"100 cases exact, self-comparison ({m['mcd_db']}, {m['lfc']:.15f}, "
            f"{m['ldr_pct']})")


# ---------------------------------------------------------------------------
# criterion 5: LDR on a 2x time-compressed copy, 50% +- 2%, < 5 s

def test_ldr_compression():
    t0 = time.time()
    rng = np.random.default_rng(13)
    data = np.cumsum(rng.normal(0, 0.2, size=(10, 400)), axis=1)
    data[-1] = 1.0
    ref = FeatureSequence(data, "s", 8.0)
    fast = FeatureSequence(data[:, ::2].copy(), "s", 8.0)
    from vtn.metrics import align
    dev = ldr_deviation(align(fast, ref))
    dt = time.time() - t0
    _report("ldr-compression", abs(dev - 50.0) <= 2.0 and dt < 5.0,
            f"deviation {dev:.2f}% (target 50 +- 2), {dt:.2f} s")


# ---------------------------------------------------------------------------
# criterion 6: windowing, mass outside [n_hat-7, n_hat+13] exactly zero

def test_windowing_exact_zero():
    cfg = DecodeConfig(mode="windowed")
    n0, n1 = cfg.window_frames(8.0, 3)
    assert (n0, n1) == (7, 13)
    model = VtnModel.init(tiny_cfg(), seed=21, speakers=["a", "b"])
    src = np.random.default_rng(21).normal(size=(model.config.D, 30))
    result = convert(model, src, 0, 1, cfg)
    checked = 0
    for m, window in enumerate(result.extra["step_windows"]):
        heads = np.stack([a[:, m] for layer in result.attention for a in layer])
        lo, hi = window
        outside = np.concatenate([heads[:, :lo - 1], heads[:, hi:]], axis=1)
        assert outside.size == 0 or np.abs(outside).max() == 0.0
        checked += 1
    _report("windowing-exact-zero", checked > 0,
            f"N0={n0}, N1={n1}, {checked} steps, outside mass max 0.0")


# ---------------------------------------------------------------------------
# criterion 7: full pipeline byte-identical across two runs

def test_pipeline_determinism(tmp_path):
    tiny = ["--set", "model.L=1", "--set", "model.H=2", "--set", "model.d=8",
            "--set", "model.d_ffn=16", "--set", "model.e=4"]
    digests = []
    for tag in ("a", "b"):
        root = tmp_path / tag
        assert cli_main(["gen-data", "--out", str(root / "data"),
                         "--speakers", "2", "--utterances", "3", "--seed", "4",
                         "--min-len", "40", "--max-len", "60"]) == 0
        assert cli_main(["stats", "--data", str(root / "data"),
                         "--out", str(root / "s.vtns")]) == 0
        assert cli_main(["train", "--data", str(root / "data"),
                         "--stats", str(root / "s.vtns"),
                         "--out", str(root / "run"), *tiny,
                         "--set", "train.iterations=100",
                         "--set", "train.batch_size=1"]) == 0
        assert cli_main(["convert", "--model", str(root / "run" / "final.vtnm"),
                         "--stats", str(root / "s.vtns"),
                         "--input", str(root / "data" / "spk0_000.vtnf"),
                         "--tgt-spk", "spk1",
                         "--out", str(root / "out.vtnf")]) == 0
        assert cli_main(["evaluate", "--converted", str(root / "out.vtnf"),
                         "--reference", str(root / "data" / "spk1_000.vtnf"),
                         "--report", str(root / "report.csv")]) == 0
        blob = b"".join(sorted(
            p.read_bytes() for p in root.rglob("*") if p.is_file()))
        digests.append(blob)
    _report("pipeline-determinism", digests[0] == digests[1],
            "gen-data + train(100) + convert + evaluate byte-identical twice")


# ---------------------------------------------------------------------------
# slow experiments: shared corpus and config

OVERFIT_CFG = dict(L=2, H=2, d=32, d_ffn=64, n_mcc=28, r=3, e=8, n_speakers=2)


def _experiment_corpus():
    corpus = gen_synthetic_corpus(2, 20, seed=7, raw_len_range=(120, 240))
    return corpus, compute_stats(corpus)


def _eval_mcds(model, corpus, stats, n_utts):
    dec = DecodeConfig(mode="windowed")
    mcds, monotone = [], []
    for i in range(n_utts):
        seq = corpus.utterances["spk0"][i]
        out, res = convert_sequence(model, seq, "spk1", stats, dec)
        mcds.append(mcd(out, corpus.utterances["spk1"][i]))
        # monotone until the forward window first covers the source end;
        # after that the stop test dithers around the final position and
        # single-frame backsteps there say nothing about alignment quality
        n_fwd = dec.window_frames(seq.frame_period_ms, model.config.r)[1]
        n_src = -(-seq.n_frames // model.config.r)
        n_hat = np.asarray(res.n_hat)
        reach = np.flatnonzero(n_hat >= n_src - n_fwd)
        cut = int(reach[0]) if len(reach) else len(n_hat)
        steps = np.diff(n_hat[:cut + 1])
        monotone.append(bool((steps >= 0).all()) if len(steps) else True)
    return mcds, monotone


# criterion 8: pre-LN and post-LN both train without divergence

@pytest.mark.slow
def test_pre_vs_post_ln():
    corpus, stats = _experiment_corpus()
    finals = {}
    for place in ("pre", "post"):
        cfg = VtnConfig(**OVERFIT_CFG, ln_placement=place)
        tc = TrainConfig(lr=1e-3, batch_size=1, iterations=200, seed=0,
                         checkpoint_every=10 ** 9)
        result = train(corpus, cfg, tc, stats=stats, log_every=50)
        assert all(np.isfinite(row["total"]) for row in result.log)
        finals[place] = result.log[-1]["main"]
    _report("pre-vs-post-ln", True,
            f"both finite after 200 iters (main: pre {finals['pre']:.3f}, "
            f"post {finals['post']:.3f}); no ordering asserted")


# criterion 9: overfit experiment; thresholds frozen after one calibration run
# (corpus seed 7, model seed 0): main ratio, monotone fraction, MCD ratio below

@pytest.mark.slow
def test_overfit_experiment():
    t0 = time.time()
    corpus, stats = _experiment_corpus()
    cfg = VtnConfig(**OVERFIT_CFG)
    tc = TrainConfig(lr=1e-3, batch_size=4, iterations=2000, seed=0,
                     checkpoint_every=10 ** 9)
    result = train(corpus, cfg, tc, stats=stats, log_every=1)
    # 100-iteration means at both ends: single-iteration losses fluctuate with
    # the batch draw, the means do not
    head = float(np.mean([row["main"] for row in result.log[:100]]))
    tail = float(np.mean([row["main"] for row in result.log[-100:]]))

    untrained = VtnModel.init(cfg, seed=0, speakers=corpus.speakers)
    mcd_un, _ = _eval_mcds(untrained, corpus, stats, 10)
    mcd_tr, monotone = _eval_mcds(result.model, corpus, stats, 10)
    dt = time.time() - t0

    loss_ok = tail <= 0.25 * head
    mono_ok = np.mean(monotone) >= 0.9
    mcd_ok = np.mean(mcd_tr) <= 0.5 * np.mean(mcd_un)
    time_ok = dt <= 15 * 60
    _report("overfit-experiment", loss_ok and mono_ok and mcd_ok and time_ok,
            f"main {head:.3f} -> {tail:.3f} ({tail / head:.2f}x, need <= 0.25), "
            f"monotone {np.mean(monotone):.0%} (need >= 90%), "
            f"MCD {np.mean(mcd_tr):.2f} vs untrained {np.mean(mcd_un):.2f} "
            f"({np.mean(mcd_tr) / np.mean(mcd_un):.2f}x, need <= 0.5), {dt / 60:.1f} min")


# criterion 10: identity-mapping-loss ablation, lower eval MCD on >= 2 of 3 seeds

@pytest.mark.slow
def test_iml_ablation():
    corpus, stats = _experiment_corpus()
    cfg = VtnConfig(**OVERFIT_CFG)
    wins = 0
    details = []
    for seed in (0, 1, 2):
        scores = {}
        for lam in (1.0, 0.0):
            tc = TrainConfig(lr=1e-3, batch_size=1, iterations=600, seed=seed,
                             lambda_iml=lam, checkpoint_every=10 ** 9)
            result = train(corpus, cfg, tc, stats=stats, log_every=200)
            mcds, _ = _eval_mcds(result.model, corpus, stats, 5)
            scores[lam] = float(np.mean(mcds))
        wins += scores[1.0] < scores[0.0]
        details.append(f"seed {seed}: {scores[1.0]:.2f} vs {scores[0.0]:.2f}")
    _report("iml-ablation", wins >= 2,
            f"IML lower MCD on {wins}/3 seeds ({'; '.join(details)})")
