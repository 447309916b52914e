import numpy as np
import pytest

from vtn import autodiff as ad
from vtn.converter import (ConversionResult, DecodeConfig, _window_mask,
                           convert, convert_sequence, dump_attention)
from vtn.errors import ShapeError, StatsError
from vtn.features import compute_stats, gen_synthetic_corpus
from vtn.model import VtnConfig, VtnModel


def tiny_cfg(**kw):
    base = dict(L=1, H=2, d=8, d_ffn=16, n_mcc=28, r=3, e=4, n_speakers=2,
                dropout_rate=0.1)
    base.update(kw)
    return VtnConfig(**base)


def _model(seed=0, **kw):
    return VtnModel.init(tiny_cfg(**kw), seed=seed, speakers=["spk0", "spk1"])


def _src(rng, model, n=10):
    return rng.normal(size=(model.config.D, n))


def test_window_frames_paper_values():
    cfg = DecodeConfig(mode="windowed")
    assert cfg.window_frames(8.0, 3) == (7, 13)


def test_window_mask_boundaries():
    # n_hat=1, N0=0, N1=1 -> only source rows 1..2 (1-based) open
    mask = _window_mask(5, 3, 1, 0, 1)
    assert np.array_equal(mask[:, :2], np.zeros((5, 2)))  # only last column masked
    assert np.array_equal(mask[:, 2], [0.0, 0.0, ad.NEG_INF, ad.NEG_INF, ad.NEG_INF])


def test_window_mask_degenerate_is_open():
    mask = _window_mask(4, 2, 2, 10, 10)
    assert np.array_equal(mask, np.zeros((4, 2)))


def test_convert_caps_at_twice_source_length():
    model = _model()
    src = _src(np.random.default_rng(0), model, n=6)
    result = convert(model, src, 0, 1)
    assert result.output.shape[1] <= 12
    if result.output.shape[1] == 12:
        assert result.truncated


def test_incremental_equals_teacher_forced():
    model = _model(seed=1)
    src = _src(np.random.default_rng(1), model, n=8)
    result = convert(model, src, 0, 1)
    # feed the generated outputs back through one full teacher-forced pass
    prefix = np.concatenate([np.zeros((model.config.D, 1)), result.output], axis=1)
    with ad.column_exact():
        z = model.encode(src, k=0)
        y, attn = model.decode(prefix, z, kp=1)
    n_out = result.output.shape[1]
    # column m of the full pass equals the column generated at step m+1
    assert np.array_equal(y.data[:, :n_out], result.output)
    for layer, full_layer in zip(result.attention, attn):
        for a, full in zip(layer, full_layer):
            assert np.array_equal(a, full.data[:, :n_out])
    # and every proper prefix reproduces its columns bit-identically
    for m in range(1, n_out + 1):
        with ad.column_exact():
            yp, _ = model.decode(prefix[:, :m], z, kp=1)
        assert np.array_equal(yp.data[:, m - 1], result.output[:, m - 1])


def test_windowed_huge_window_equals_default():
    model = _model(seed=2)
    src = _src(np.random.default_rng(2), model, n=7)
    default = convert(model, src, 0, 1)
    huge = DecodeConfig(mode="windowed", window_back_ms=1e9, window_fwd_ms=1e9)
    windowed = convert(model, src, 0, 1, huge)
    assert np.array_equal(default.output, windowed.output)
    assert default.n_hat == windowed.n_hat


def test_windowed_mass_outside_window_exactly_zero():
    model = _model(seed=3)
    src = _src(np.random.default_rng(3), model, n=12)
    cfg = DecodeConfig(mode="windowed", window_back_ms=48.0, window_fwd_ms=72.0)
    n0, n1 = cfg.window_frames(8.0, 3)
    assert (n0, n1) == (2, 3)
    result = convert(model, src, 0, 1, cfg)
    for m, window in enumerate(result.extra["step_windows"]):
        heads = np.stack([a[:, m] for layer in result.attention for a in layer])
        lo, hi = window
        outside = np.concatenate([heads[:, :lo - 1], heads[:, hi:]], axis=1)
        assert outside.size == 0 or np.abs(outside).max() == 0.0


def test_windowed_dumped_attention_zero_outside_each_steps_window(tmp_path):
    model = _model(seed=3)
    src = _src(np.random.default_rng(3), model, n=12)
    cfg = DecodeConfig(mode="windowed", window_back_ms=48.0, window_fwd_ms=72.0)
    result = convert(model, src, 0, 1, cfg)
    files = dump_attention(result, tmp_path / "attn")
    windows = result.extra["step_windows"]
    assert len(windows) > 1
    for path in files:
        matrix = np.loadtxt(path, delimiter=",", ndmin=2)
        assert matrix.shape == (12, len(windows))
        for col, (lo, hi) in zip(matrix.T, windows):
            assert not col[:lo - 1].any() and not col[hi:].any()


def test_windowed_n_hat_confined():
    model = _model(seed=4)
    src = _src(np.random.default_rng(4), model, n=12)
    cfg = DecodeConfig(mode="windowed", window_back_ms=48.0, window_fwd_ms=72.0)
    result = convert(model, src, 0, 1, cfg)
    n0, n1 = 2, 3
    prev = 1
    for n_hat in result.n_hat:
        assert max(1, prev - n0) <= n_hat <= min(prev + n1, 12)
        prev = n_hat


def test_realtime_output_length_and_identity_attention():
    model = _model(seed=5, realtime=True)
    src = _src(np.random.default_rng(5), model, n=9)
    result = convert(model, src, 0, 1, DecodeConfig(mode="realtime"))
    assert result.output.shape[1] == 9
    assert not result.truncated
    for layer in result.attention:
        for a in layer:
            n = min(a.shape)
            assert np.array_equal(a[:, :n], np.eye(9)[:, :n])


def test_realtime_streaming_equals_batch():
    model = _model(seed=6, realtime=True)
    src = _src(np.random.default_rng(6), model, n=8)
    full = convert(model, src, 0, 1, DecodeConfig(mode="realtime"))
    for m in (1, 3, 6):
        part = convert(model, src[:, :m], 0, 1, DecodeConfig(mode="realtime"))
        assert np.array_equal(part.output, full.output[:, :m])


def test_mode_model_mismatch():
    rt = _model(seed=7, realtime=True)
    plain = _model(seed=7)
    src = np.zeros((rt.config.D, 4))
    with pytest.raises(ShapeError):
        convert(rt, src, 0, 1)  # realtime model, default decode
    with pytest.raises(ShapeError):
        convert(plain, src, 0, 1, DecodeConfig(mode="realtime"))


def test_convert_determinism():
    model = _model(seed=8)
    src = _src(np.random.default_rng(8), model, n=6)
    r1 = convert(model, src, 0, 1)
    r2 = convert(model, src, 0, 1)
    assert np.array_equal(r1.output, r2.output)


def test_convert_sequence_pipeline():
    corpus = gen_synthetic_corpus(2, 2, seed=7, raw_len_range=(40, 60))
    stats = compute_stats(corpus)
    model = _model(seed=9)
    seq = corpus.utterances["spk0"][0]
    out, result = convert_sequence(model, seq, "spk1", stats)
    assert out.speaker == "spk1"
    assert out.data.shape[0] == 31
    assert np.isfinite(out.data).all()
    assert (out.data[-1] >= 0.0).all() and (out.data[-1] <= 1.0).all()
    assert "stats_adjusted" in result.extra


def test_convert_sequence_unknown_target():
    corpus = gen_synthetic_corpus(2, 1, seed=1, raw_len_range=(30, 40))
    stats = compute_stats(corpus)
    model = _model(seed=10)
    with pytest.raises(StatsError):
        convert_sequence(model, corpus.utterances["spk0"][0], "nobody", stats)


def test_any_to_many_accepts_unseen_speaker():
    corpus = gen_synthetic_corpus(3, 1, seed=2, raw_len_range=(30, 40))
    two_spk = compute_stats(gen_synthetic_corpus(2, 1, seed=2, raw_len_range=(30, 40)))
    model = VtnModel.init(tiny_cfg(mode="any_to_many"), seed=11,
                          speakers=["spk0", "spk1"])
    unseen = corpus.utterances["spk2"][0]
    assert unseen.speaker not in two_spk.mean
    out, result = convert_sequence(model, unseen, "spk1", two_spk)
    assert np.isfinite(out.data).all()
    st_len = -(-unseen.n_frames // 3)
    assert result.output.shape[1] <= 2 * st_len


@pytest.mark.parametrize("n_voiced", [0, 1])
def test_any_to_many_unseen_speaker_needs_two_voiced_frames(n_voiced):
    corpus = gen_synthetic_corpus(3, 1, seed=2, raw_len_range=(30, 40))
    two_spk = compute_stats(gen_synthetic_corpus(2, 1, seed=2, raw_len_range=(30, 40)))
    model = VtnModel.init(tiny_cfg(mode="any_to_many"), seed=11,
                          speakers=["spk0", "spk1"])
    unseen = corpus.utterances["spk2"][0]
    unseen.data[-1] = 0.0
    unseen.data[-1, :n_voiced] = 1.0
    with pytest.raises(StatsError):
        convert_sequence(model, unseen, "spk1", two_spk)


def test_many_to_many_rejects_unknown_source():
    corpus = gen_synthetic_corpus(3, 1, seed=3, raw_len_range=(30, 40))
    stats = compute_stats(corpus)
    model = _model(seed=12)
    with pytest.raises(StatsError):
        convert_sequence(model, corpus.utterances["spk2"][0], "spk1", stats)


def test_dump_attention_file_count(tmp_path):
    model = _model(seed=13)
    src = _src(np.random.default_rng(13), model, n=5)
    result = convert(model, src, 0, 1)
    files = dump_attention(result, tmp_path / "attn")
    cfg = model.config
    assert len(files) == cfg.L * cfg.H + 1
    assert (tmp_path / "attn" / "mean.csv").exists()


def test_mean_attention_is_head_mean():
    a = np.array([[1.0, 0.0], [0.0, 1.0]])
    b = np.array([[0.0, 1.0], [1.0, 0.0]])
    c = np.array([[0.5, 0.0], [0.5, 1.0]])
    result = ConversionResult(output=np.zeros((3, 2)), attention=[[a, b], [c, c]],
                              n_hat=[1, 1])
    assert np.array_equal(result.mean_attention, [[0.5, 0.25], [0.5, 0.75]])
