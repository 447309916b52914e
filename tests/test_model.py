import contextlib
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vtn import autodiff as ad
from vtn.autodiff import Tensor
from vtn.errors import ShapeError
from vtn.model import (PRENET_DILATIONS, PRENET_KERNEL, DecoderCache, Layout, VtnConfig,
                       VtnModel, positional_encoding)

from oracles import causal_mask, teacher_forced

# the decoder columns that one postnet output column reads
POSTNET_FIELD = 1 + (PRENET_KERNEL - 1) * sum(PRENET_DILATIONS)


def tiny_config(**kw):
    base = dict(L=2, H=2, d=8, d_ffn=16, n_mcc=1, r=1, e=4,
                n_speakers=2, dropout_rate=0.1)
    base.update(kw)
    return VtnConfig(**base)


def test_positional_encoding_origin():
    p = positional_encoding(3, 4)
    assert p[0, 0] == 0.0   # sin(0)
    assert p[1, 0] == 1.0   # cos(0)


def test_positional_encoding_row0_period():
    n = 200
    p = positional_encoding(n, 4)
    # row 0 is sin(n / 10000^0) = sin(n)
    assert np.allclose(p[0], np.sin(np.arange(n)))


def test_positional_encoding_formula():
    p = positional_encoding(2, 4)
    assert abs(p[2, 1] - math.sin(1.0 / 100.0)) < 1e-15
    assert abs(p[3, 1] - math.cos(1.0 / 100.0)) < 1e-15


def test_positional_encoding_odd_dim():
    p = positional_encoding(5, 3)
    assert p.shape == (3, 5)
    assert np.allclose(p[2], np.sin(np.arange(5) / 10000.0 ** (2.0 / 3.0)))


def test_causal_mask_orientation():
    m = causal_mask(3)
    # key (row) may not exceed query (column)
    assert m[0, 0] == 0.0 and m[1, 0] == ad.NEG_INF and m[2, 1] == ad.NEG_INF
    assert m[0, 2] == 0.0 and m[1, 2] == 0.0


def _pair(n_q, n_k, window=None):
    """The non-causal Layout of n_q query columns against n_k keys."""
    return Layout(ad.segments((n_q,)), ad.segments((n_k,)), False, window)


def test_sa_uniform_attention():
    cfg = tiny_config(L=1, H=1, mode="one_to_one")
    model = VtnModel.init(cfg, seed=0)
    d = cfg.d
    w1 = np.zeros((3 * d, d))
    w1[2 * d:] = np.eye(d)     # V = x, Q = K = 0
    model.params["enc.0.sa.W1"] = Tensor(w1, requires_grad=True)
    model.params["enc.0.sa.W2"] = Tensor(np.eye(d), requires_grad=True)
    x = np.random.default_rng(0).normal(size=(d, 5))
    y = model._sa("enc.0.sa", Tensor(x), _pair(5, 5))
    expect = np.repeat(x.mean(axis=1, keepdims=True), 5, axis=1)
    assert np.abs(y.data - expect).max() < 1e-12


def _kv(model, z):
    """Layer 0's target-to-source keys and values of the encoded source z."""
    return ad.matmul(model.params["dec.0.tsa.W6"], z)


def test_tsa_single_source_position():
    cfg = tiny_config(L=1, mode="one_to_one")
    model = VtnModel.init(cfg, seed=1)
    rng = np.random.default_rng(2)
    x = Tensor(rng.normal(size=(cfg.d, 4)))
    z = Tensor(rng.normal(size=(cfg.d, 1)))
    _, stack = model._tsa("dec.0.tsa", x, _kv(model, z), _pair(4, 1), False)
    attn = model._per_head([stack], z.data.shape[1], x.data.shape[1])[0]
    for a in attn:
        assert np.array_equal(a.data, np.ones((1, 4)))


def test_tsa_forced_attention_row():
    cfg = tiny_config(L=1, mode="one_to_one")
    model = VtnModel.init(cfg, seed=3)
    rng = np.random.default_rng(4)
    x = Tensor(rng.normal(size=(cfg.d, 2)))
    z = Tensor(rng.normal(size=(cfg.d, 6)))
    # only source row 3 allowed in column 1, the last
    with ad.column_exact():
        _, stack = model._tsa("dec.0.tsa", x, _kv(model, z), _pair(2, 6, (3, 4)), False)
    attn = model._per_head([stack], z.data.shape[1], x.data.shape[1])[0]
    for a in attn:
        assert a.data[3, 1] == 1.0
        assert np.abs(np.delete(a.data[:, 1], 3)).max() == 0.0


def test_tsa_identity_passes_values_through():
    cfg = tiny_config(L=1, mode="one_to_one")
    model = VtnModel.init(cfg, seed=3)
    rng = np.random.default_rng(5)
    x = Tensor(rng.normal(size=(cfg.d, 3)))
    z = Tensor(rng.normal(size=(cfg.d, 5)))
    out, attn = model._tsa("dec.0.tsa", [x], _kv(model, z), _pair(3, 5), True)
    assert attn is None
    p = {k: v.data for k, v in model.params.items()}
    values = (p["dec.0.tsa.W6"] @ z.data)[cfg.d:, :3]
    assert np.allclose(out.data, p["dec.0.tsa.W7"] @ values, rtol=0, atol=1e-12)
    # a realtime model's decode reports the identity as a read-only broadcast
    rt = VtnModel.init(tiny_config(L=2, mode="one_to_one", realtime=True), seed=3)
    _, attn = rt.decode(rng.normal(size=(rt.config.D, 3)), z)
    assert attn.shape == (2, cfg.H, 5, 3)
    assert np.array_equal(attn, np.broadcast_to(np.eye(5, 3), attn.shape))
    assert not attn.flags.writeable


def test_realtime_decode_rejects_more_targets_than_sources():
    model = VtnModel.init(tiny_config(L=1, mode="one_to_one", realtime=True), seed=3)
    rng = np.random.default_rng(6)
    z = Tensor(rng.normal(size=(model.config.d, 4)))
    assert model.decode(rng.normal(size=(model.config.D, 4)), z)[1].shape[-1] == 4
    with pytest.raises(ShapeError, match="N_tgt <= N_src"):
        model.decode(rng.normal(size=(model.config.D, 5)), z)


def test_a_refused_realtime_append_leaves_the_cache_as_it_was():
    # a realtime cache with room for 8 columns against a 4-column source
    # refuses the fifth step before writing any buffer
    model = VtnModel.init(tiny_config(L=1, mode="one_to_one", realtime=True), seed=3)
    rng = np.random.default_rng(6)
    z = Tensor(rng.normal(size=(model.config.d, 4)))
    cache = DecoderCache(model.decoding(z), 8)
    for column in rng.normal(size=(4, model.config.D, 1)):
        model.decode_step(column, cache)
    before = [b.copy() for b in (*cache.inputs, *cache.post, cache.out)]
    with pytest.raises(ShapeError, match="N_tgt <= N_src"):
        model.decode_step(rng.normal(size=(model.config.D, 1)), cache)
    assert cache.n == 4
    after = (*cache.inputs, *cache.post, cache.out)
    assert all(a.tobytes() == b.tobytes() for a, b in zip(after, before))


@pytest.mark.parametrize("shape", [(4,), (5, 3), (4, 0)], ids=["1-D", "rows", "no-columns"])
def test_decode_rejects_a_target_input_of_the_wrong_shape(shape):
    # the model's target input is (4, m), m >= 1
    model = VtnModel.init(tiny_config(L=1), seed=3)
    z = Tensor(np.random.default_rng(6).normal(size=(model.config.d, 4)))
    with pytest.raises(ShapeError, match=re.escape(f"must be ({model.config.D}, m), m >= 1, "
                                                   f"not {shape}")):
        model.decode(np.zeros(shape), z, kp=1)


def test_decode_is_one_append_to_a_fresh_cache(monkeypatch):
    # decode runs no conv of its own: one decode_step of every column
    model = VtnModel.init(tiny_config(L=2), seed=3)
    rng = np.random.default_rng(6)
    z = Tensor(rng.normal(size=(model.config.d, 6)))
    steps = []
    decode_step = model.decode_step

    def counted_decode_step(tgt_in, cache, window=None):
        steps.append((tgt_in.shape, cache.n, cache.out.shape[1]))
        return decode_step(tgt_in, cache, window)

    monkeypatch.setattr(model, "decode_step", counted_decode_step)
    monkeypatch.setattr(ad, "conv1d", lambda *args, **kwargs: pytest.fail("conv1d"))
    y, attn = model.decode(rng.normal(size=(model.config.D, 5)), z, kp=1)
    assert steps == [((model.config.D, 5), 0, 5)]
    assert y.data.shape == (model.config.D, 5) and attn.shape == (2, 2, 6, 5)
    assert not y.requires_grad and y._backward is None


@pytest.mark.parametrize("kw, kp, window", [({}, 1, None), ({}, 0, None), ({}, 1, (3, 7)),
                                             ({"mode": "one_to_one"}, None, None),
                                             ({"realtime": True}, 1, None)],
                         ids=["default", "default-kp0", "windowed", "one_to_one", "realtime"])
def test_decode_step_is_the_last_column_of_decode(kw, kp, window):
    # each one-column append's column and attention column equal the last
    # columns of a column-exact teacher-forced pass over the whole prefix
    # into the cache's target speaker, past the 17 columns of the prenet's
    # dilation-4 taps and the postnet's receptive field
    model = VtnModel.init(tiny_config(L=2, **kw), seed=5)
    rng = np.random.default_rng(8)
    n = POSTNET_FIELD + 6
    z = Tensor(rng.normal(size=(model.config.d, n)))
    prefix = rng.normal(size=(model.config.D, n))
    with ad.column_exact():
        cache = DecoderCache(model.decoding(z, kp), n)
        for j in range(n):
            y, attn = model.decode_step(prefix[:, j:j + 1], cache, window)
            want_y, want_attn = teacher_forced(model, prefix[:, :j + 1], z, kp, window)
            assert y.tobytes() == want_y[:, -1:].tobytes()
            want_attn = want_attn[..., -1:]
            assert attn.tobytes() == want_attn.tobytes() and attn.shape == want_attn.shape
            assert attn.flags.writeable == want_attn.flags.writeable
    assert cache.n == n
    with pytest.raises(ShapeError, match="has room for 0 more columns, not 1"):
        model.decode_step(prefix[:, :1], cache)
    with pytest.raises(ShapeError, match="has room for 2 more columns, not 3"):
        model.decode_step(prefix[:, :3], DecoderCache(cache.dec, 2))


@settings(derandomize=True, deadline=None, max_examples=300)
@given(data=st.data())
def test_appends_in_any_split_equal_one_append_and_the_teacher_forced_pass(data):
    # in column-exact mode, appending n columns in any split, one append of
    # all n (decode) and the teacher-forced pass of the training pieces give
    # the same bits, across the postnet's receptive field, the window
    # cutting the last column alone
    realtime = data.draw(st.booleans())
    model = VtnModel.init(tiny_config(ln_placement=data.draw(st.sampled_from(["pre", "post"])),
                                      L=data.draw(st.integers(1, 3)),
                                      H=data.draw(st.integers(1, 2)), realtime=realtime),
                          seed=data.draw(st.integers(0, 99)))
    n_src = POSTNET_FIELD + 6
    n = data.draw(st.integers(1, n_src))
    cuts = sorted(data.draw(st.sets(st.integers(1, n - 1)))) if n > 1 else []
    window = None
    if not realtime and data.draw(st.booleans()):
        lo = data.draw(st.integers(0, n_src - 1))
        window = (lo, data.draw(st.integers(lo + 1, n_src)))
    rng = np.random.default_rng(n)
    z = Tensor(rng.normal(size=(model.config.d, n_src)))
    tgt_in = rng.normal(size=(model.config.D, n))
    bounds = [0, *cuts, n]
    with ad.column_exact():
        want = teacher_forced(model, tgt_in, z, 1, window)
        y, attn = model.decode(tgt_in, z, 1, window)
        cache = DecoderCache(model.decoding(z, 1), n)
        parts = [model.decode_step(tgt_in[:, a:b], cache, window if b == n else None)
                 for a, b in zip(bounds, bounds[1:])]
    split = [np.concatenate(got, axis=-1) for got in zip(*parts)]
    for got in ((y.data, attn), split):
        for g, w in zip(got, want):
            assert g.shape == w.shape and g.tobytes() == w.tobytes()


def test_decode_step_in_fast_mode_is_close_to_decode():
    # outside column-exact mode the step's columns are decode's to rounding
    model = VtnModel.init(tiny_config(L=2), seed=6)
    rng = np.random.default_rng(9)
    n = POSTNET_FIELD + 3
    z = Tensor(rng.normal(size=(model.config.d, n)))
    prefix = rng.normal(size=(model.config.D, n))
    cache = DecoderCache(model.decoding(z, 1), n)
    for j in range(n):
        y, attn = model.decode_step(prefix[:, j:j + 1], cache)
        want_y, want_attn = model.decode(prefix[:, :j + 1], z, kp=1)
        assert np.allclose(y, want_y.data[:, -1:], rtol=1e-10, atol=1e-12)
        assert np.allclose(attn, want_attn[..., -1:], rtol=1e-10, atol=1e-12)


@pytest.mark.parametrize("built_exact", [False, True], ids=["fast-built", "exact-built"])
@pytest.mark.parametrize("cache_with", ["constants", "step"])
def test_a_decoder_cache_steps_only_in_the_mode_its_constants_were_built_in(built_exact,
                                                                            cache_with):
    # the constants (weight-normalised kernels, W6 @ z) carry the bits of
    # the mode they were built in, and stepping them in the other mode would
    # mix the two modes' bits, wherever the cache itself was built; the
    # refused step leaves the cache as it was
    model = VtnModel.init(tiny_config(L=2), seed=6)
    rng = np.random.default_rng(9)
    z = Tensor(rng.normal(size=(model.config.d, 4)))
    column = rng.normal(size=(model.config.D, 1))
    built, other = ("column-exact", "fast") if built_exact else ("fast", "column-exact")

    def mode(exact):
        return ad.column_exact() if exact else contextlib.nullcontext()

    with mode(built_exact):
        dec = model.decoding(z, 1)
        cache = DecoderCache(dec, 4) if cache_with == "constants" else None
    with mode(not built_exact):
        cache = cache or DecoderCache(dec, 4)
        with pytest.raises(ShapeError, match=f"built in {built} mode cannot step in {other} mode"):
            model.decode_step(column, cache)
    assert cache.n == 0
    with mode(built_exact):
        model.decode_step(column, cache)
    assert cache.n == 1


def test_dropout_identity_cases():
    # dropout off: no factors and no draws
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    assert VtnModel.init(tiny_config(dropout_rate=0.0))._dropout(True, rng, [[(2, 3)]]) is None
    assert VtnModel.init(tiny_config(dropout_rate=0.5))._dropout(False, None, [[(2, 3)]]) is None
    assert rng.bit_generator.state == state


def test_dropout_zero_fraction():
    model = VtnModel.init(tiny_config(dropout_rate=0.1))
    (factor,) = model._dropout(True, np.random.default_rng(9), [[(100, 1000)]])
    frac = (factor == 0.0).mean()
    assert abs(frac - 0.1) < 0.01
    survivors = factor[factor != 0.0]
    assert np.allclose(survivors, 1.0 / 0.9)


def test_dropout_requires_rng():
    with pytest.raises(ValueError):
        VtnModel.init(tiny_config(dropout_rate=0.1))._dropout(True, None, [[(2, 2)]])


def test_ffn_constant_case():
    cfg = tiny_config(L=1, mode="one_to_one")
    model = VtnModel.init(cfg, seed=5)
    model.params["enc.0.ffn.W3"] = Tensor(np.zeros((2 * cfg.d_ffn, cfg.d)))
    c = np.random.default_rng(5).normal(size=(cfg.d, 1))
    model.params["enc.0.ffn.b4"] = Tensor(c)
    x = Tensor(np.random.default_rng(6).normal(size=(cfg.d, 7)))
    y = model._ffn("enc.0.ffn", x)
    assert np.abs(y.data - c).max() < 1e-12


def test_ffn_positionwise_permutation():
    cfg = tiny_config(L=1, mode="one_to_one")
    model = VtnModel.init(cfg, seed=7)
    x = np.random.default_rng(8).normal(size=(cfg.d, 6))
    perm = np.array([3, 0, 5, 1, 4, 2])
    y = model._ffn("enc.0.ffn", Tensor(x)).data
    y_perm = model._ffn("enc.0.ffn", Tensor(x[:, perm])).data
    assert np.array_equal(y[:, perm], y_perm)


def test_preln_encoder_layer_residual_identity():
    cfg = tiny_config(L=1, mode="one_to_one", ln_placement="pre")
    model = VtnModel.init(cfg, seed=9)
    model.params["enc.0.sa.W2"] = Tensor(np.zeros((cfg.d, cfg.d)))
    model.params["enc.0.ffn.W4"] = Tensor(np.zeros((cfg.d, cfg.d_ffn)))
    model.params["enc.0.ffn.b4"] = Tensor(np.zeros((cfg.d, 1)))
    x = np.random.default_rng(10).normal(size=(cfg.d, 5))
    y = model.encoder_layer(0, Tensor(x), None, _pair(5, 5))
    assert np.array_equal(y.data, x)


def test_postln_encoder_layer_residual_identity():
    cfg = tiny_config(L=1, mode="one_to_one", ln_placement="post")
    model = VtnModel.init(cfg, seed=9)
    model.params["enc.0.sa.W2"] = Tensor(np.zeros((cfg.d, cfg.d)))
    model.params["enc.0.ffn.W4"] = Tensor(np.zeros((cfg.d, cfg.d_ffn)))
    model.params["enc.0.ffn.b4"] = Tensor(np.zeros((cfg.d, 1)))
    rng = np.random.default_rng(10)
    for name in ("enc.0.ln1", "enc.0.ln2"):
        model.params[f"{name}.gain"] = Tensor(rng.normal(size=(cfg.d, 1)))
        model.params[f"{name}.bias"] = Tensor(rng.normal(size=(cfg.d, 1)))
    x = Tensor(rng.normal(size=(cfg.d, 5)))
    y = model.encoder_layer(0, x, None, _pair(5, 5))
    assert np.array_equal(y.data, model._ln("enc.0.ln2", model._ln("enc.0.ln1", x)).data)
    # with live sub-layers, each layer norm comes after its residual add
    model = VtnModel.init(cfg, seed=9)
    u = model._ln("enc.0.ln1", ad.add(x, model._sa("enc.0.sa", x, _pair(5, 5))))
    want = model._ln("enc.0.ln2", ad.add(u, model._ffn("enc.0.ffn", u)))
    assert np.array_equal(model.encoder_layer(0, x, None, _pair(5, 5)).data, want.data)


def test_pre_vs_post_ln_differ():
    rng = np.random.default_rng(11)
    src = rng.normal(size=(4, 6))
    outs = []
    for placement in ("pre", "post"):
        cfg = tiny_config(mode="one_to_one", ln_placement=placement, dropout_rate=0.0)
        model = VtnModel.init(cfg, seed=12)
        z = model.encode(src)
        outs.append(z.data)
    assert np.linalg.norm(outs[0] - outs[1]) > 1e-6


def test_forward_shapes_and_stochastic_attention():
    cfg = VtnConfig(L=2, H=2, d=8, d_ffn=16, n_mcc=28, r=3, e=4, n_speakers=2)
    model = VtnModel.init(cfg, seed=13)
    rng = np.random.default_rng(14)
    src = rng.normal(size=(93, 10))
    tgt0 = np.concatenate([np.zeros((93, 1)), rng.normal(size=(93, 7))], axis=1)
    y, attn = model.forward(src, tgt0, k=0, kp=1)
    assert y.data.shape == (93, 8)
    assert len(attn) == 2 and len(attn[0]) == 2
    for layer in attn:
        for a in layer:
            assert a.data.shape == (10, 8)
            assert np.abs(a.data.sum(axis=0) - 1.0).max() < 1e-9


def test_decoder_causality_probe():
    rng = np.random.default_rng(15)
    cfg = tiny_config(dropout_rate=0.0)
    model = VtnModel.init(cfg, seed=16, speakers=["a", "b"])
    src = rng.normal(size=(cfg.D, 6))
    tgt0 = rng.normal(size=(cfg.D, 5))
    tgt0[:, 0] = 0.0
    z = model.encode(src, k=0)
    base, _ = model.decode(tgt0, z, kp=1)
    for n in range(5):
        pert = tgt0.copy()
        pert[:, n + 1:] += rng.normal(size=(cfg.D, 4 - n)) * 5
        out, _ = model.decode(pert, z, kp=1)
        drift = np.abs(out.data[:, :n + 1] - base.data[:, :n + 1]).max()
        assert drift <= 1e-12


def test_realtime_encoder_causality():
    rng = np.random.default_rng(17)
    cfg = tiny_config(mode="one_to_one", realtime=True, dropout_rate=0.0)
    model = VtnModel.init(cfg, seed=18)
    src = rng.normal(size=(cfg.D, 6))
    base = model.encode(src).data
    for n in range(6):
        pert = src.copy()
        pert[:, n + 1:] += rng.normal(size=(cfg.D, 5 - n)) * 5
        out = model.encode(pert).data
        assert np.abs(out[:, :n + 1] - base[:, :n + 1]).max() <= 1e-12


def test_any_to_many_ignores_source_speaker():
    cfg = tiny_config(mode="any_to_many", dropout_rate=0.0)
    model = VtnModel.init(cfg, seed=19)
    src = np.random.default_rng(20).normal(size=(cfg.D, 5))
    z0 = model.encode(src, k=0).data
    z1 = model.encode(src, k=1).data
    assert np.array_equal(z0, z1)


def test_one_to_one_ignores_speakers():
    cfg = tiny_config(mode="one_to_one", dropout_rate=0.0)
    model = VtnModel.init(cfg, seed=21)
    rng = np.random.default_rng(22)
    src = rng.normal(size=(cfg.D, 5))
    tgt0 = np.concatenate([np.zeros((cfg.D, 1)), rng.normal(size=(cfg.D, 3))], axis=1)
    y0, _ = model.forward(src, tgt0, k=0, kp=0)
    y1, _ = model.forward(src, tgt0, k=1, kp=1)
    assert np.array_equal(y0.data, y1.data)


def test_many_to_many_speaker_changes_output():
    cfg = tiny_config(dropout_rate=0.0)
    model = VtnModel.init(cfg, seed=23)
    rng = np.random.default_rng(24)
    src = rng.normal(size=(cfg.D, 5))
    tgt0 = np.concatenate([np.zeros((cfg.D, 1)), rng.normal(size=(cfg.D, 3))], axis=1)
    y0, _ = model.forward(src, tgt0, k=0, kp=0)
    y1, _ = model.forward(src, tgt0, k=0, kp=1)
    assert np.linalg.norm(y0.data - y1.data) > 1e-8


def test_many_to_many_requires_speakers():
    cfg = tiny_config(dropout_rate=0.0)
    model = VtnModel.init(cfg, seed=25)
    src = np.zeros((cfg.D, 3))
    tgt0 = np.zeros((cfg.D, 2))
    with pytest.raises(ShapeError):
        model.forward(src, tgt0, k=None, kp=1)
    with pytest.raises(ShapeError):
        model.forward(src, tgt0, k=0, kp=None)



def _wrong_inputs(d):
    """(pair index, side, the pair list) for each kind of bad model input."""
    good = (0, 1, np.zeros((d, 3)), np.zeros((d, 2)))
    return [
        (0, "source", [(0, 1, Tensor(np.zeros((d, 3))), good[3])]),
        (1, "target", [good, (0, 1, good[2], Tensor(np.zeros((d, 2))))]),
        (0, "source", [(0, 1, np.zeros(d), good[3])]),
        (1, "source", [good, (0, 1, np.zeros((d + 1, 3)), good[3])]),
        (0, "target", [(0, 1, good[2], np.zeros((d, 0)))]),
    ]


@pytest.mark.parametrize("case", range(5))
def test_forward_packed_names_the_pair_and_side_of_a_bad_input(case):
    cfg = tiny_config(L=1, dropout_rate=0.0)
    model = VtnModel.init(cfg, seed=25)
    index, side, pairs = _wrong_inputs(cfg.D)[case]
    with pytest.raises(ShapeError, match=f"pair {index}: the {side} must be a 2-D ndarray"):
        model.forward_packed(pairs)
    if len(pairs) == 1:
        k, kp, src, tgt_in = pairs[0]
        with pytest.raises(ShapeError, match=f"pair 0: the {side}"):
            model.forward(src, tgt_in, k=k, kp=kp)

def test_many_to_many_encode_names_missing_source_index():
    cfg = tiny_config(dropout_rate=0.0)
    model = VtnModel.init(cfg, seed=25)
    with pytest.raises(ShapeError, match="source speaker index"):
        model.encode(np.zeros((cfg.D, 3)), k=None)


def test_speaker_index_out_of_range():
    cfg = tiny_config(dropout_rate=0.0)
    model = VtnModel.init(cfg, seed=26)
    with pytest.raises(ShapeError):
        model.encode(np.zeros((cfg.D, 2)), k=5)


def test_config_validation():
    with pytest.raises(ShapeError):
        VtnConfig(L=1, H=3, d=8)
    with pytest.raises(ShapeError):
        tiny_config(ln_placement="weird")
    with pytest.raises(ShapeError):
        tiny_config(mode="three_to_four")


def test_checkpoint_round_trip(tmp_path):
    cfg = tiny_config(dropout_rate=0.0)
    model = VtnModel.init(cfg, seed=27, speakers=["x", "y"])
    p1, p2 = tmp_path / "a.vtnm", tmp_path / "b.vtnm"
    model.save(p1)
    model.save(p2)
    assert p1.read_bytes() == p2.read_bytes()  # byte-stable
    back = VtnModel.load(p1)
    assert back.config == model.config
    assert back.speakers == ["x", "y"]
    assert set(back.params) == set(model.params)
    for name in model.params:
        assert np.array_equal(back.params[name].data, model.params[name].data)
    rng = np.random.default_rng(28)
    src = rng.normal(size=(cfg.D, 4))
    tgt0 = np.concatenate([np.zeros((cfg.D, 1)), rng.normal(size=(cfg.D, 2))], axis=1)
    y0, _ = model.forward(src, tgt0, k=0, kp=1)
    y1, _ = back.forward(src, tgt0, k=0, kp=1)
    assert np.array_equal(y0.data, y1.data)


def test_end_to_end_gradcheck_tiny():
    # gradient of a scalar readout of a teacher-forced pass w.r.t. the first
    # encoder layer's self-attention weights, through the encoder, the
    # target-to-source attention and the decoder
    cfg = VtnConfig(L=1, H=2, d=8, d_ffn=16, n_mcc=1, r=1, e=4,
                    n_speakers=2, dropout_rate=0.0)
    model = VtnModel.init(cfg, seed=29)
    rng = np.random.default_rng(30)
    tgt0 = np.concatenate([np.zeros((cfg.D, 1)), rng.normal(size=(cfg.D, 3))], axis=1)
    w = rng.normal(size=(cfg.D, 4))
    src = rng.normal(size=(cfg.D, 3))

    def f(_):  # the model reads the probed weight
        y, _ = model.forward(src, tgt0, k=0, kp=1)
        return ad.sum_all(ad.mul(y, Tensor(w)))

    err = ad.grad_check(f, model.params["enc.0.sa.W1"],
                        indices=[(0, 0), (1, 2), (3, 1), (2, 2)])
    assert err < 1e-3
