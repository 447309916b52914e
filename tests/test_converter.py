import tracemalloc

import numpy as np
import pytest

from oracles import convert_per_step
from vtn import autodiff as ad
from vtn.autodiff import AdamState, Tensor
from vtn.converter import (ConversionResult, DecodeConfig, convert, convert_sequence,
                           dump_attention)
from vtn.errors import ConfigError, NonFiniteOutputError, ShapeError, StatsError
from vtn.features import compute_stats, gen_synthetic_corpus
from vtn.model import POSTNET_FIELD, PRENET_KERNEL, VtnConfig, VtnModel
from vtn.trainer import TrainConfig, make_batch, train_step


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


@pytest.mark.parametrize("mode", ["default", "windowed"])
@pytest.mark.parametrize("period", [0.0, float("nan"), -8.0, float("inf")])
def test_a_bad_frame_period_is_a_config_error_before_decoding(monkeypatch, mode, period):
    # a frame period that is not finite and positive has no window in
    # stacked frames, whatever the mode; no column is decoded
    model = _model()
    monkeypatch.setattr(model, "decode_step", lambda *args, **kwargs: pytest.fail("decoded"))
    with pytest.raises(ConfigError, match=f"frame_period_ms={period!r}"):
        convert(model, _src(np.random.default_rng(0), model), 0, 1, DecodeConfig(mode=mode),
                frame_period_ms=period)


def test_convert_caps_at_twice_source_length():
    model = _model()
    src = _src(np.random.default_rng(0), model, n=6)
    result = convert(model, src, 0, 1)
    assert result.output.shape[1] <= 12
    if result.output.shape[1] == 12:
        assert result.truncated


CONFIGS = [{}, {"ln_placement": "post"}, {"H": 4}, {"r": 1}, {"mode": "one_to_one"},
           {"mode": "any_to_many"}, {"realtime": True}]
CONFIG_IDS = ["pre-ln", "post-ln", "H4", "r1", "one_to_one", "any_to_many", "realtime"]


@pytest.mark.parametrize("kw", CONFIGS, ids=CONFIG_IDS)
def test_incremental_equals_teacher_forced(kw):
    model = _model(seed=1, **kw)
    src = _src(np.random.default_rng(1), model, n=8)
    mode = "realtime" if model.config.realtime else "default"
    result = convert(model, src, 0, 1, DecodeConfig(mode=mode))
    n_out = result.output.shape[1]
    # feed the generated outputs back through one full teacher-forced pass;
    # a realtime pass may not outrun the source, so it stops at the last input
    prefix = np.concatenate([np.zeros((model.config.D, 1)), result.output], axis=1)
    if model.config.realtime:
        prefix = prefix[:, :n_out]
    with ad.column_exact():
        z = model.encode(src, k=0)
        y, attn = model.decode(prefix, z, kp=1)
    # column m of the full pass equals the column generated at step m+1
    assert np.array_equal(y.data[:, :n_out], result.output)
    assert np.array_equal(result.attention, attn[..., :n_out])
    # and every proper prefix reproduces its columns bit-identically
    for m in range(1, n_out + 1):
        with ad.column_exact():
            yp, _ = model.decode(prefix[:, :m], z, kp=1)
        assert np.array_equal(yp.data[:, m - 1], result.output[:, m - 1])


@pytest.mark.parametrize("kw, mode, n_src, seed", [
    pytest.param(kw, mode, 8, 1, id=f"{name}-{mode}") for name, kw in zip(CONFIG_IDS, CONFIGS)
    for mode in (["realtime"] if kw.get("realtime") else ["default", "windowed"])] + [
    # long enough to pass the postnet's receptive field and the prenet's
    # dilation-4 taps
    pytest.param({}, "default", 20, 1, id="long-default"),
    pytest.param({}, "windowed", 20, 1, id="long-windowed"),
    pytest.param({"realtime": True}, "realtime", 32, 1, id="long-realtime"),
    # with more than one layer, the earlier layers run over every column and
    # the last one over the postnet's receptive field; seed 1's L=2 and L=3
    # models stop their default decoding before it
    pytest.param({"L": 2}, "default", 20, 2, id="long-L2-default"),
    pytest.param({"L": 2}, "windowed", 20, 2, id="long-L2-windowed"),
    pytest.param({"L": 3, "ln_placement": "post"}, "default", 20, 2,
                 id="long-L3-post-ln-default"),
    pytest.param({"L": 2, "realtime": True}, "realtime", 32, 2, id="long-L2-realtime")])
def test_convert_equals_per_step_decoding(kw, mode, n_src, seed):
    # building the decoder constants once per conversion and decoding step
    # by step from the cache changes no bit
    model = _model(seed=seed, **kw)
    src = _src(np.random.default_rng(seed), model, n=n_src)
    cfg = DecodeConfig(mode=mode, window_back_ms=24.0, window_fwd_ms=48.0)
    got, want = convert(model, src, 0, 1, cfg), convert_per_step(model, src, 0, 1, cfg)
    if n_src > 8:
        assert len(got.n_hat) > POSTNET_FIELD
    assert got.output.tobytes() == want.output.tobytes()
    assert got.output.shape == want.output.shape
    assert got.attention.tobytes() == want.attention.tobytes()
    assert got.attention.shape == want.attention.shape
    assert got.attention.flags.writeable == want.attention.flags.writeable
    assert (got.n_hat, got.windows, got.truncated) == (want.n_hat, want.windows, want.truncated)


def test_each_step_convolves_only_what_its_column_needs(monkeypatch):
    # a 96-step conversion runs each target-prenet conv once per step as
    # one product of its flat kernel and its K taps, and each postnet conv
    # over at most the postnet's receptive field, where decoding the whole
    # prefix reads every column so far
    cfg = VtnConfig(L=2, H=2, d=32, d_ffn=64, n_mcc=28, r=3, e=8, n_speakers=2)
    model = VtnModel.init(cfg, seed=0)
    src = np.random.default_rng(0).normal(size=(cfg.D, 48))
    kernels, prenet, reads = {}, [], []
    conv1d, matmul, decoding = ad.conv1d, ad.matmul, model.decoding

    def step():
        # a step ends with its last postnet conv
        return 1 + sum(r[1:3] == ("postnet", 2) for r in reads)

    def spied_decoding(*args, **kwargs):
        dec = decoding(*args, **kwargs)
        kernels.update({id(w): ("prenet", i) for i, w in enumerate(dec.prenet)})
        kernels.update({id(w): ("postnet", i) for i, w in enumerate(dec.postnet)})
        prenet.extend(w.data for w in dec.prenet)
        return dec

    def spied_conv1d(x, kernel, *args, **kwargs):
        if id(kernel) in kernels:
            first = x[0] if isinstance(x, list) else x
            reads.append((step(), *kernels[id(kernel)], first.data.shape[1]))
        return conv1d(x, kernel, *args, **kwargs)

    def spied_matmul(a, b):
        for i, w in enumerate(prenet):
            if np.shape(a) == (w.shape[0], w.shape[1] * w.shape[2]) and np.array_equal(
                    a, w.reshape(w.shape[0], -1)):
                assert np.shape(b) == (np.shape(a)[1], 1)
                reads.append((step(), "prenet", i, np.shape(b)[0] // w.shape[2]))
        return matmul(a, b)

    monkeypatch.setattr(model, "decoding", spied_decoding)
    monkeypatch.setattr(ad, "conv1d", spied_conv1d)
    monkeypatch.setattr(ad, "matmul", spied_matmul)
    result = convert(model, src, 0, 1)
    assert len(result.n_hat) == 96
    for s in range(1, 97):
        got = sorted((net, i, n) for t, net, i, n in reads if t == s)
        field = min(s, POSTNET_FIELD)
        assert got == [("postnet", i, field) for i in range(3)] + [
            ("prenet", i, PRENET_KERNEL) for i in range(3)]
    assert len(reads) == 6 * 96


def test_last_decoder_layer_queries_only_the_postnets_field(monkeypatch):
    # in a 96-step conversion, the first decoder layer's self-attention
    # queries every column so far, and the last layer's self-attention and
    # target-to-source attention query only the columns the postnet reads
    cfg = VtnConfig(L=2, H=2, d=32, d_ffn=64, n_mcc=28, r=3, e=8, n_speakers=2)
    model = VtnModel.init(cfg, seed=0)
    src = np.random.default_rng(0).normal(size=(cfg.D, 48))
    queries = []
    attention = ad.attention

    def spied_attention(q, kv, k_row, *args, **kwargs):
        queries.append(q.data.shape[1])
        return attention(q, kv, k_row, *args, **kwargs)

    monkeypatch.setattr(ad, "attention", spied_attention)
    result = convert(model, src, 0, 1)
    assert len(result.n_hat) == 96
    # each encoder layer's self-attention over the 48 source columns, then
    # per step each decoder layer's self-attention and target-to-source
    # attention
    assert queries[:cfg.L] == [48] * cfg.L
    steps = np.reshape(queries[cfg.L:], (96, 2 * cfg.L))
    for step, got in enumerate(steps, start=1):
        field = min(step, POSTNET_FIELD)
        assert got.tolist() == [step, step, field, field]


def test_truncated_conversion_builds_decoder_constants_once(monkeypatch):
    # a 96-step conversion weight-normalises each of its 9 conv kernels once
    # and multiplies the encoder output by each layer's W6 once, where
    # rebuilding them every step takes 3 + 96 * 6 weight norms; each kernel
    # is laid out for conv1d once too, the decoder's 6 before the first step
    cfg = VtnConfig(L=2, H=2, d=32, d_ffn=64, n_mcc=28, r=3, e=8, n_speakers=2)
    model = VtnModel.init(cfg, seed=0)
    src = np.random.default_rng(0).normal(size=(cfg.D, 48))
    w6 = {id(model.params[f"dec.{l}.tsa.W6"]): l for l in range(cfg.L)}
    norms, products, events = [], [], []
    weight_norm_apply, matmul, transpose = ad.weight_norm_apply, ad.matmul, ad.transpose

    def counted_weight_norm(direction, w_scale, *args):
        norms.append(direction)
        return weight_norm_apply(direction, w_scale, *args)

    def counted_matmul(a, b):
        if id(a) in w6:
            products.append(w6[id(a)])
        return matmul(a, b)

    def counted_transpose(a, axes=None):
        if axes == (0, 2, 1):
            events.append("layout")
        return transpose(a, axes)

    def logged(name):
        method = getattr(model, name)

        def call(*args, **kwargs):
            events.append(name)
            return method(*args, **kwargs)
        return call

    monkeypatch.setattr(ad, "weight_norm_apply", counted_weight_norm)
    monkeypatch.setattr(ad, "matmul", counted_matmul)
    monkeypatch.setattr(ad, "transpose", counted_transpose)
    for name in ("encode", "decoding", "decode_step"):
        monkeypatch.setattr(model, name, logged(name))
    result = convert(model, src, 0, 1)
    assert len(result.n_hat) == 96 and result.truncated
    assert len(norms) == 9 and len({id(d) for d in norms}) == 9
    assert sorted(products) == list(range(cfg.L))
    assert events == (["encode"] + ["layout"] * 3 + ["decoding"] + ["layout"] * 6
                      + ["decode_step"] * 96)


def test_non_finite_output_column_stops_the_conversion(monkeypatch):
    # a NaN weight makes the first output column NaN; the conversion stops
    # there instead of decoding to the step cap
    model = _model(seed=4)
    model.params["dec.0.ffn.W4"].data[0, 0] = np.nan
    calls = []
    decode_step = model.decode_step

    def counted_decode_step(*args, **kwargs):
        calls.append(args)
        return decode_step(*args, **kwargs)

    monkeypatch.setattr(model, "decode_step", counted_decode_step)
    with pytest.raises(NonFiniteOutputError, match="decode step 1 "):
        convert(model, _src(np.random.default_rng(4), model, n=15), 0, 1)
    assert len(calls) == 1


def test_conversion_after_a_training_step_uses_the_new_weights():
    corpus = gen_synthetic_corpus(2, 2, seed=7, raw_len_range=(30, 45))
    stats = compute_stats(corpus)
    model = _model(seed=14)
    src = _src(np.random.default_rng(14), model, n=7)
    cfg = DecodeConfig(mode="windowed", window_back_ms=24.0, window_fwd_ms=48.0)
    before = convert(model, src, 0, 1, cfg)
    tc = TrainConfig(lr=1e-2, batch_size=2, seed=0)
    rng = np.random.default_rng(0)
    train_step(model, make_batch(corpus, stats, model.config, tc, rng), AdamState(), tc, rng)
    after = convert(model, src, 0, 1, cfg)
    fresh = VtnModel(model.config, {k: Tensor(v.data.copy()) for k, v in model.params.items()},
                     model.speakers)
    want = convert(fresh, src, 0, 1, cfg)
    assert after.output.tobytes() == want.output.tobytes()
    assert after.attention.tobytes() == want.attention.tobytes()
    assert after.n_hat == want.n_hat
    assert after.output.tobytes() != before.output.tobytes()


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
    for m, window in enumerate(result.windows):
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
    windows = result.windows
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
    assert len(result.windows) == len(result.n_hat)
    for window, n_hat in zip(result.windows, result.n_hat):
        # each step's window is clipped to the source around the last n_hat
        assert window == (max(1, prev - n0), min(prev + n1, 12))
        assert max(1, prev - n0) <= n_hat <= min(prev + n1, 12)
        prev = n_hat


def test_realtime_output_length_and_identity_attention():
    model = _model(seed=5, realtime=True)
    src = _src(np.random.default_rng(5), model, n=9)
    result = convert(model, src, 0, 1, DecodeConfig(mode="realtime"))
    assert result.output.shape[1] == 9
    assert not result.truncated
    assert result.n_hat == list(range(1, 10))
    assert len(result.attention) == model.config.L
    for layer in result.attention:
        assert len(layer) == model.config.H
        for a in layer:
            assert np.array_equal(a, np.eye(9))
            assert not a.flags.writeable
    assert np.array_equal(result.mean_attention, np.eye(9))


@pytest.mark.parametrize("mode", ["default", "windowed", "realtime"])
def test_attention_is_one_array_of_every_layer_and_head(mode):
    model = _model(seed=7, L=2, H=3, d=12, realtime=mode == "realtime")
    src = _src(np.random.default_rng(7), model, n=9)
    result = convert(model, src, 0, 1, DecodeConfig(mode=mode, window_back_ms=24.0,
                                                    window_fwd_ms=48.0))
    assert result.attention.shape == (2, 3, 9, result.output.shape[1])
    heads = [a for layer in result.attention for a in layer]
    assert result.mean_attention.tobytes() == np.mean(heads, axis=0).tobytes()
    assert result.attention.flags.writeable == (mode != "realtime")
    # each step attends where the mean over every layer and head peaks
    assert result.n_hat == [int(np.argmax(col)) + 1 for col in result.mean_attention.T]


def test_offline_conversion_keeps_one_attention_column_per_step():
    # a 96-step default conversion of the benchmark's model size keeps each
    # step's (L, H, N_src) attention column, which convert stacks into the
    # (L, H, N_src, N_out) result; keeping every step's whole attention
    # alive traces about 8.6 MB
    cfg = VtnConfig(L=2, H=2, d=32, d_ffn=64, n_mcc=28, r=3, e=8, n_speakers=2)
    model = VtnModel.init(cfg, seed=0)
    src = np.random.default_rng(0).normal(size=(cfg.D, 48))
    tracemalloc.start()
    try:
        result = convert(model, src, 0, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(result.n_hat) == 96 and result.truncated
    assert peak < 4e6


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



@pytest.mark.parametrize("shape", [(), (84,), (84, 4, 1)])
def test_convert_rejects_a_source_that_is_not_2d(shape):
    model = _model(seed=7)
    with pytest.raises(ShapeError, match="source must be 2-D"):
        convert(model, np.zeros(shape), 0, 1)

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
    assert result.stats_adjusted in (True, False)


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
    result = ConversionResult(output=np.zeros((3, 2)), attention=np.array([[a, b], [c, c]]),
                              n_hat=[1, 1])
    assert np.array_equal(result.mean_attention, [[0.5, 0.25], [0.5, 0.75]])
