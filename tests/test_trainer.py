import json
import math
import tracemalloc

import numpy as np
import pytest

from vtn import trainer
from vtn.autodiff import AdamState, Tensor
from vtn.errors import ConfigError, FormatError, ShapeError, StatsError, TrainingDivergedError
from vtn.features import compute_stats, gen_synthetic_corpus, normalize, stack
from vtn.losses import total_loss
from vtn.model import VtnConfig, VtnModel
from vtn.trainer import (TrainConfig, _truncate_log, load_trainer_state, make_batch,
                         save_trainer_state, train, train_step)


def small_corpus(seed=7, n_utts=3):
    return gen_synthetic_corpus(2, n_utts, seed=seed, raw_len_range=(60, 90))


def tiny_cfg(**kw):
    base = dict(L=1, H=2, d=8, d_ffn=16, n_mcc=28, r=3, e=4, n_speakers=2,
                dropout_rate=0.1)
    base.update(kw)
    return VtnConfig(**base)


def test_make_batch_two_speakers():
    corpus = small_corpus()
    stats = compute_stats(corpus)
    cfg = tiny_cfg()
    tc = TrainConfig(batch_size=3)
    rng = np.random.default_rng(0)
    for _ in range(10):
        batch = make_batch(corpus, stats, cfg, tc, rng)
        cross = [(k, kp) for k, kp, _, _ in batch if k != kp]
        ident = [(k, kp) for k, kp, _, _ in batch if k == kp]
        assert len(cross) == 3 and len(ident) == 6
        assert len(set(cross)) == 1 and cross[0] in ((0, 1), (1, 0))
        k, kp = cross[0]
        assert sorted(set(ident)) == sorted({(k, k), (kp, kp)})


def test_make_batch_item_shapes():
    corpus = small_corpus()
    stats = compute_stats(corpus)
    cfg = tiny_cfg()
    batch = make_batch(corpus, stats, cfg, TrainConfig(batch_size=1),
                       np.random.default_rng(1))
    k, kp, src, tgt0 = batch[0]
    assert src.shape[0] == cfg.D and tgt0.shape[0] == cfg.D
    assert np.array_equal(tgt0[:, 0], np.zeros(cfg.D))


def test_make_batch_deterministic():
    corpus = small_corpus()
    stats = compute_stats(corpus)
    cfg = tiny_cfg()
    tc = TrainConfig(batch_size=2)
    b1 = [make_batch(corpus, stats, cfg, tc, np.random.default_rng(5))
          for _ in range(3)]
    b2 = [make_batch(corpus, stats, cfg, tc, np.random.default_rng(5))
          for _ in range(3)]
    for x, y in zip(b1, b2):
        for (k1, kp1, s1, t1), (k2, kp2, s2, t2) in zip(x, y):
            assert (k1, kp1) == (k2, kp2)
            assert np.array_equal(s1, s2)
            assert np.array_equal(t1, t2)


def test_make_batch_prepares_each_utterance_once(monkeypatch):
    # batch 6 from 3 utterances repeats some; the reference prepares every
    # item's source and target on their own, as one pair at a time would
    corpus = small_corpus()
    stats = compute_stats(corpus)
    cfg = tiny_cfg()
    tc = TrainConfig(batch_size=6)

    def prepared(spk, utt):
        return stack(normalize(corpus.utterances[corpus.speakers[spk]][utt], stats), cfg.r).data

    calls = []
    real_normalize = trainer.normalize
    monkeypatch.setattr(trainer, "normalize",
                        lambda seq, st: calls.append(seq) or real_normalize(seq, st))
    for seed in range(5):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        calls.clear()
        batch = make_batch(corpus, stats, cfg, tc, rng)
        k = int(ref_rng.integers(2))
        kp = int(ref_rng.integers(1))
        kp += kp >= k
        utts = [int(u) for u in ref_rng.integers(corpus.n_utterances, size=tc.batch_size)]
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        want = ([(k, kp, u) for u in utts]
                + [item for u in utts for item in ((k, k, u), (kp, kp, u))])
        assert len(batch) == len(want)
        for (a, b, src, tgt0), (wa, wb, u) in zip(batch, want):
            assert (a, b) == (wa, wb)
            assert np.array_equal(src, prepared(wa, u))
            assert np.array_equal(tgt0[:, 1:], prepared(wb, u))
            assert np.array_equal(tgt0[:, 0], np.zeros(cfg.D))
        assert len(calls) == 2 * len(set(utts))
        # a cross pair shares its source with its source-side identity pair
        # and its target with its target-side one
        for i in range(tc.batch_size):
            _, _, src, tgt0 = batch[i]
            assert batch[tc.batch_size + 2 * i][2] is src
            assert batch[tc.batch_size + 2 * i + 1][3] is tgt0


def test_make_batch_one_to_one_fixed_pair():
    corpus = small_corpus()
    stats = compute_stats(corpus)
    cfg = tiny_cfg(mode="one_to_one")
    batch = make_batch(corpus, stats, cfg, TrainConfig(batch_size=2),
                       np.random.default_rng(2))
    assert [(k, kp) for k, kp, _, _ in batch] == [(0, 1)] * 2 + [(0, 0), (1, 1)] * 2


@pytest.mark.parametrize("mode, lambda_iml", [("one_to_one", 1.0), ("many_to_many", 0.0)])
def test_total_loss_alone_drops_identity_pairs_where_iml_is_off(mode, lambda_iml):
    # make_batch hands over the identity pairs whatever the loss weights;
    # the loss, its dropout draws and the rng stream are those of the cross
    # pairs alone
    corpus = small_corpus()
    stats = compute_stats(corpus)
    cfg = tiny_cfg(mode=mode)
    tc = TrainConfig(batch_size=2, lambda_iml=lambda_iml)
    batch = make_batch(corpus, stats, cfg, tc, np.random.default_rng(3))
    assert len(batch) == 6
    model = VtnModel.init(cfg, seed=4)
    weights = tc.loss_weights(cfg.n_mcc)
    rngs = [np.random.default_rng(5), np.random.default_rng(5)]
    got, got_terms = total_loss(model, batch, weights, training=True, rng=rngs[0])
    want, want_terms = total_loss(model, batch[:2], weights, training=True, rng=rngs[1])
    assert got.data.tobytes() == want.data.tobytes() and got_terms == want_terms
    assert got_terms["iml"] == 0.0
    assert rngs[0].bit_generator.state == rngs[1].bit_generator.state


def test_make_batch_pair_frequencies():
    corpus = gen_synthetic_corpus(4, 1, seed=3, raw_len_range=(20, 30))
    stats = compute_stats(corpus)
    cfg = tiny_cfg(n_speakers=4)
    tc = TrainConfig(batch_size=1, lambda_iml=0.0)
    rng = np.random.default_rng(4)
    counts = {}
    draws = 10000
    for _ in range(draws):
        k, kp, _, _ = make_batch(corpus, stats, cfg, tc, rng)[0]
        counts[(k, kp)] = counts.get((k, kp), 0) + 1
    assert len(counts) == 12
    for c in counts.values():
        assert abs(c / draws - 1.0 / 12.0) < 0.01


def test_train_step_lr_zero_noop():
    corpus = small_corpus()
    stats = compute_stats(corpus)
    cfg = tiny_cfg()
    model = VtnModel.init(cfg, seed=0, speakers=corpus.speakers)
    before = {k: v.data.copy() for k, v in model.params.items()}
    rng = np.random.default_rng(6)
    batch = make_batch(corpus, stats, cfg, TrainConfig(batch_size=1), rng)
    train_step(model, batch, AdamState(), TrainConfig(lr=0.0), rng)
    for name, arr in before.items():
        assert np.array_equal(model.params[name].data, arr)


def test_train_step_diverged():
    corpus = small_corpus()
    stats = compute_stats(corpus)
    cfg = tiny_cfg()
    model = VtnModel.init(cfg, seed=0, speakers=corpus.speakers)
    model.params["enc.0.sa.W1"].data[0, 0] = np.nan
    rng = np.random.default_rng(7)
    batch = make_batch(corpus, stats, cfg, TrainConfig(batch_size=1), rng)
    with pytest.raises(TrainingDivergedError):
        train_step(model, batch, AdamState(), TrainConfig(), rng)


def test_train_step_nan_gradient_leaves_weights(monkeypatch):
    corpus = small_corpus()
    stats = compute_stats(corpus)
    cfg = tiny_cfg()
    model = VtnModel.init(cfg, seed=0, speakers=corpus.speakers)
    before = {k: v.data.copy() for k, v in model.params.items()}
    real_backward = Tensor.backward

    def backward(self):
        real_backward(self)
        model.params["enc.0.sa.W1"].grad[0, 0] = np.nan

    monkeypatch.setattr(Tensor, "backward", backward)
    rng = np.random.default_rng(7)
    batch = make_batch(corpus, stats, cfg, TrainConfig(batch_size=1), rng)
    state = AdamState()
    with pytest.raises(TrainingDivergedError, match="gradient norm"):
        train_step(model, batch, state, TrainConfig(), rng)
    assert state.step == 0
    for name, arr in before.items():
        assert np.array_equal(model.params[name].data, arr)


def test_train_step_overfits_single_batch():
    corpus = small_corpus(n_utts=1)
    stats = compute_stats(corpus)
    cfg = tiny_cfg(dropout_rate=0.0)
    model = VtnModel.init(cfg, seed=1, speakers=corpus.speakers)
    tc = TrainConfig(lr=1e-3, batch_size=1, lambda_dal=0.0, lambda_iml=0.0)
    rng = np.random.default_rng(8)
    batch = make_batch(corpus, stats, cfg, tc, rng)
    state = AdamState()
    losses = [train_step(model, batch, state, tc, rng)["main"] for _ in range(50)]
    assert losses[-1] < 0.8 * losses[0]


def test_train_step_memory():
    # one batch-4 step (12 pairs) of the acceptance gate's model on its
    # corpus, dropout on.  Traced peak: about 49 MB when backward frees the
    # graph as it sweeps it and conv1d keeps neither an im2col nor a stacked
    # copy of its speaker-conditioned input (the graph holds each kernel
    # weight-normalised and, 1.2 MB in all, in conv1d's layout); about 51 MB
    # with those copies and a transposed kernel per conv, and about 107 MB
    # when the whole graph lives until the step returns.
    corpus = gen_synthetic_corpus(2, 20, seed=7, raw_len_range=(120, 240))
    stats = compute_stats(corpus)
    cfg = VtnConfig(L=2, H=2, d=32, d_ffn=64, n_mcc=28, r=3, e=8, n_speakers=2)
    model = VtnModel.init(cfg, seed=0, speakers=corpus.speakers)
    tc = TrainConfig(lr=1e-3, batch_size=4, seed=0)
    rng = np.random.default_rng(0)
    batch = make_batch(corpus, stats, cfg, tc, rng)
    tracemalloc.start()
    try:
        train_step(model, batch, AdamState(), tc, rng)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 75e6


def test_train_step_reports_pre_clip_grad_norm():
    corpus = small_corpus()
    stats = compute_stats(corpus)
    cfg = tiny_cfg()
    batch = make_batch(corpus, stats, cfg, TrainConfig(batch_size=2), np.random.default_rng(9))
    weights = TrainConfig().loss_weights(cfg.n_mcc)
    for clip in (0.0, 1e-3, 1e9):
        # the same loss at the same weights and dropout draws, backpropagated alone
        model = VtnModel.init(cfg, seed=0, speakers=corpus.speakers)
        total_loss(model, batch, weights, training=True, rng=np.random.default_rng(10))[0].backward()
        want = math.sqrt(sum(float((p.grad * p.grad).sum())
                             for p in model.params.values() if p.grad is not None))
        model = VtnModel.init(cfg, seed=0, speakers=corpus.speakers)
        bd = train_step(model, batch, AdamState(), TrainConfig(grad_clip=clip),
                        np.random.default_rng(10))
        assert bd["grad_norm"] == want
        assert bd["clipped"] == (clip > 0.0 and want > clip)
        assert bd["clipped"] == (clip == 1e-3)


def test_train_zero_iterations(tmp_path):
    corpus = small_corpus()
    cfg = tiny_cfg()
    tc = TrainConfig(iterations=0, seed=3)
    result = train(corpus, cfg, tc, out_dir=tmp_path / "run")
    assert (tmp_path / "run" / "final.vtnm").exists()
    init = VtnModel.init(cfg, seed=3, speakers=corpus.speakers)
    for name in init.params:
        assert np.array_equal(result.model.params[name].data, init.params[name].data)


def test_train_determinism(tmp_path):
    corpus = small_corpus()
    cfg = tiny_cfg()
    tc = TrainConfig(iterations=4, batch_size=1, seed=11, checkpoint_every=10)
    r1 = train(corpus, cfg, tc, out_dir=tmp_path / "a")
    r2 = train(corpus, cfg, tc, out_dir=tmp_path / "b")
    assert (tmp_path / "a" / "final.vtnm").read_bytes() == \
           (tmp_path / "b" / "final.vtnm").read_bytes()
    assert r1.log == r2.log


def test_train_resume_replay(tmp_path):
    corpus = small_corpus()
    cfg = tiny_cfg()
    full = TrainConfig(iterations=6, batch_size=1, seed=13, checkpoint_every=3)
    train(corpus, cfg, full, out_dir=tmp_path / "full")

    half = TrainConfig(iterations=3, batch_size=1, seed=13, checkpoint_every=3)
    train(corpus, cfg, half, out_dir=tmp_path / "half")
    train(corpus, cfg, full, out_dir=tmp_path / "resumed",
          resume=tmp_path / "half" / "final")

    assert (tmp_path / "resumed" / "final.vtnm").read_bytes() == \
           (tmp_path / "full" / "final.vtnm").read_bytes()
    assert (tmp_path / "resumed" / "final.vtno").read_bytes() == \
           (tmp_path / "full" / "final.vtno").read_bytes()


def _resume_with_moments(tmp_path, edit):
    """Resume a 2-step checkpoint whose .vtno moments edit(m, v) has changed."""
    corpus = small_corpus()
    tc = TrainConfig(iterations=2, batch_size=1, seed=13, checkpoint_every=2)
    train(corpus, tiny_cfg(), tc, out_dir=tmp_path / "run")
    tag = tmp_path / "run" / "final"
    iteration, state, rng_state = load_trainer_state(tag.with_suffix(".vtno"))
    edit(state.m, state.v)
    rng = np.random.default_rng(0)
    rng.bit_generator.state = rng_state
    save_trainer_state(tag.with_suffix(".vtno"), iteration, state, rng)
    more = TrainConfig(iterations=3, batch_size=1, seed=13, checkpoint_every=2)
    return lambda: train(corpus, tiny_cfg(), more, out_dir=tmp_path / "run", resume=tag)


def test_train_resume_rejects_moments_of_the_wrong_shape(tmp_path):
    def edit(m, v):
        m["enc.0.sa.W1"] = v["enc.0.sa.W1"] = np.zeros((3, 3))

    with pytest.raises(FormatError, match=r"wrong shapes \['enc.0.sa.W1 \(3, 3\) for"):
        _resume_with_moments(tmp_path, edit)()


def test_train_resume_rejects_missing_moments(tmp_path):
    def edit(m, v):
        del m["emb"], v["emb"]

    with pytest.raises(FormatError, match=r"missing \['emb'\]"):
        _resume_with_moments(tmp_path, edit)()


def test_train_resume_rejects_no_moments_after_a_step(tmp_path):
    with pytest.raises(FormatError, match="after 2 steps"):
        _resume_with_moments(tmp_path, lambda m, v: (m.clear(), v.clear()))()


def test_train_resume_rejects_a_different_model_config(tmp_path):
    corpus = small_corpus()
    run = tmp_path / "run"
    train(corpus, tiny_cfg(), TrainConfig(iterations=2, batch_size=1, seed=13,
                                          checkpoint_every=1), out_dir=run)
    before = {p.name: p.read_bytes() for p in run.iterdir()}
    more = TrainConfig(iterations=3, batch_size=1, seed=13, checkpoint_every=1)
    with pytest.raises(ConfigError, match=r"L=2 \(checkpoint: 1\), d=16 \(checkpoint: 8\)$"):
        train(corpus, tiny_cfg(L=2, d=16), more, out_dir=run, resume=run / "ckpt_000001")
    # nothing written, and the logs not cut back to the checkpoint's row
    assert {p.name: p.read_bytes() for p in run.iterdir()} == before


def test_train_checks_stats_cover_every_speaker_before_writing(tmp_path):
    corpus = gen_synthetic_corpus(3, 2, seed=7, raw_len_range=(60, 90))
    stats = compute_stats(small_corpus())
    tc = TrainConfig(iterations=4, batch_size=1, seed=13)
    with pytest.raises(StatsError, match="no statistics for speaker 'spk2'"):
        train(corpus, tiny_cfg(n_speakers=3), tc, stats=stats, out_dir=tmp_path / "run")
    assert not (tmp_path / "run").exists()


def test_train_log_format(tmp_path):
    corpus = small_corpus()
    tc = TrainConfig(iterations=3, batch_size=1, seed=17, checkpoint_every=10)
    train(corpus, tiny_cfg(), tc, out_dir=tmp_path / "run")
    lines = (tmp_path / "run" / "train_log.tsv").read_text().splitlines()
    assert len(lines) == 3
    for i, line in enumerate(lines, start=1):
        fields = line.split("\t")
        assert len(fields) == 5
        assert int(fields[0]) == i
        for v in fields[1:]:
            float(v)


def test_train_metrics_log(tmp_path):
    corpus = small_corpus()
    tc = TrainConfig(iterations=4, batch_size=1, seed=17, checkpoint_every=10, grad_clip=0.5)
    result = train(corpus, tiny_cfg(), tc, out_dir=tmp_path / "run", log_every=2)
    rows = [json.loads(line)
            for line in (tmp_path / "run" / "train_metrics.jsonl").read_text().splitlines()]
    assert [row["iter"] for row in rows] == [2, 4]
    for row, logged in zip(rows, result.log):
        assert set(row) == {"iter", "grad_norm", "clipped", "dal_layers"}
        assert row["grad_norm"] == logged["grad_norm"]
        assert row["clipped"] is (logged["grad_norm"] > 0.5)
        assert row["dal_layers"] == logged["dal_layers"]
        assert len(row["dal_layers"]) == tiny_cfg().L
        assert np.mean(row["dal_layers"]) == pytest.approx(logged["dal"], rel=1e-12)


def test_train_resume_cuts_logs_back_to_checkpoint(tmp_path):
    corpus = small_corpus()
    tc = TrainConfig(iterations=5, batch_size=1, seed=19, checkpoint_every=2)
    train(corpus, tiny_cfg(), tc, out_dir=tmp_path / "full")
    run = tmp_path / "run"
    train(corpus, tiny_cfg(), tc, out_dir=run)
    train(corpus, tiny_cfg(), tc, out_dir=run, resume=run / "ckpt_000002")
    log = (run / "train_log.tsv").read_text()
    assert [int(line.split("\t")[0]) for line in log.splitlines()] == [1, 2, 3, 4, 5]
    assert log == (tmp_path / "full" / "train_log.tsv").read_text()
    assert ((run / "train_metrics.jsonl").read_bytes()
            == (tmp_path / "full" / "train_metrics.jsonl").read_bytes())
    # nothing but the two logs and the checkpoints is left behind
    assert sorted(p.name for p in run.iterdir()) == sorted(
        p.name for p in (tmp_path / "full").iterdir())


def test_truncate_log_drops_rows_past_checkpoint_and_torn_rows(tmp_path):
    log = tmp_path / "train_log.tsv"
    # "1" is what an interrupted write of row 12 leaves behind
    log.write_bytes(b"1\ta\n2\tb\n1")
    _truncate_log(log, 2, lambda row: int(row.split(b"\t", 1)[0]))
    assert log.read_bytes() == b"1\ta\n2\tb\n"
    _truncate_log(log, 1, lambda row: int(row.split(b"\t", 1)[0]))
    assert log.read_bytes() == b"1\ta\n"
    assert [p.name for p in tmp_path.iterdir()] == ["train_log.tsv"]


def test_trainer_state_round_trip(tmp_path):
    state = AdamState()
    state.step = 42
    rng = np.random.default_rng(19)
    state.m["w"] = rng.normal(size=(3, 4))
    state.v["w"] = rng.random((3, 4))
    rng.normal(size=100)  # advance the stream
    path = tmp_path / "s.vtno"
    save_trainer_state(path, 7, state, rng)
    iteration, back, rng_state = load_trainer_state(path)
    assert iteration == 7
    assert back.step == 42
    assert np.array_equal(back.m["w"], state.m["w"])
    assert np.array_equal(back.v["w"], state.v["w"])
    rng2 = np.random.default_rng(0)
    rng2.bit_generator.state = rng_state
    assert rng2.normal() == rng.normal()


def test_make_batch_needs_two_speakers():
    corpus = gen_synthetic_corpus(2, 1, seed=0, raw_len_range=(20, 30))
    # strip one speaker out
    from vtn.features import Corpus
    solo = Corpus(speakers=["spk0"], utterances={"spk0": corpus.utterances["spk0"]})
    stats = compute_stats(solo)
    with pytest.raises(ShapeError):
        make_batch(solo, stats, tiny_cfg(), TrainConfig(), np.random.default_rng(0))
