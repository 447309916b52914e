import contextlib
import math

import numpy as np
import pytest

from vtn import autodiff as ad
from vtn.autodiff import AdamState, Tensor, grad_check
from vtn.errors import DegenerateColumnError, ShapeError


def test_matmul_identity():
    a = Tensor(np.eye(2))
    b = Tensor([[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(ad.matmul(a, b).data, [[1.0, 2.0], [3.0, 4.0]])


def test_matmul_projector():
    a = Tensor([[1.0, 0.0], [0.0, 0.0]])
    b = Tensor([[5.0], [7.0]])
    assert np.array_equal(ad.matmul(a, b).data, [[5.0], [0.0]])


def test_matmul_gradcheck():
    rng = np.random.default_rng(0)
    b = Tensor(rng.normal(size=(4, 2)))
    a = Tensor(rng.normal(size=(3, 4)))
    err = grad_check(lambda t: ad.sum_all(ad.matmul(t, b)), a, h=1e-6)
    assert err < 1e-6


def test_matmul_shape_error():
    with pytest.raises(ShapeError):
        ad.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))


def test_softmax_symmetric_column():
    y = ad.masked_softmax_columns(Tensor([[0.0], [0.0]]), np.zeros((2, 1)))
    assert np.allclose(y.data, [[0.5], [0.5]], atol=1e-15)


def test_softmax_forced_row():
    mask = np.array([[0.0], [ad.NEG_INF]])
    y = ad.masked_softmax_columns(Tensor([[5.0], [5.0]]), mask)
    assert y.data[0, 0] == 1.0
    assert y.data[1, 0] == 0.0  # exactly


def test_softmax_column_sums_and_masked_zeros():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(6, 5))
    mask = np.where(rng.random((6, 5)) < 0.4, ad.NEG_INF, 0.0)
    mask[0] = 0.0  # keep every column alive
    y = ad.masked_softmax_columns(Tensor(x), mask).data
    assert np.abs(y.sum(axis=0) - 1.0).max() < 1e-12
    assert (y[mask < ad._MASKED] == 0.0).all()


def test_softmax_gradcheck():
    rng = np.random.default_rng(1)
    x = Tensor(rng.normal(size=(4, 3)))
    w = rng.normal(size=(4, 3))
    mask = np.zeros((4, 3))
    mask[3, 1] = ad.NEG_INF
    err = grad_check(
        lambda t: ad.sum_all(ad.mul(ad.masked_softmax_columns(t, mask), Tensor(w))), x)
    assert err < 1e-5


def test_softmax_degenerate_column():
    mask = np.full((3, 1), ad.NEG_INF)
    with pytest.raises(DegenerateColumnError):
        ad.masked_softmax_columns(Tensor(np.zeros((3, 1))), mask)


def _ln(x):
    d = x.data.shape[0] if isinstance(x, Tensor) else len(x)
    return ad.layer_norm(x, Tensor(np.ones((d, 1))), Tensor(np.zeros((d, 1))))


def test_layer_norm_constant_column():
    y = _ln(Tensor([[1.0], [1.0]]))
    assert np.allclose(y.data, 0.0, atol=1e-12)


def test_layer_norm_already_normalized():
    y = _ln(Tensor([[-1.0], [1.0]]))
    # epsilon inside the sqrt shrinks the output slightly below +-1
    assert np.allclose(y.data, [[-1.0], [1.0]], atol=1e-4)
    assert abs(y.data[1, 0]) <= 1.0


def test_layer_norm_gradcheck():
    rng = np.random.default_rng(2)
    x = Tensor(rng.normal(size=(5, 2)))
    w = rng.normal(size=(5, 2))
    err = grad_check(lambda t: ad.sum_all(ad.mul(_ln(t), Tensor(w))), x)
    assert err < 1e-4
    g = Tensor(rng.normal(size=(5, 1)))
    err = grad_check(
        lambda t: ad.sum_all(ad.mul(ad.layer_norm(x, t, Tensor(np.zeros((5, 1)))),
                                    Tensor(w))), g)
    assert err < 1e-4


def test_conv1d_identity_kernel():
    x = Tensor(np.arange(10, dtype=float).reshape(2, 5))
    k = np.zeros((2, 2, 5))
    k[0, 0, 2] = 1.0
    k[1, 1, 2] = 1.0
    y = ad.conv1d(x, Tensor(k), dilation=1, causal=False)
    assert np.array_equal(y.data, x.data)


def test_conv1d_causal_pair_sum():
    x = Tensor([[1.0, 2.0, 3.0]])
    k = Tensor(np.ones((1, 1, 2)))
    y = ad.conv1d(x, k, dilation=1, causal=True)
    assert np.array_equal(y.data, [[1.0, 3.0, 5.0]])


def test_conv1d_causal_no_future_leak():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(3, 8))
    k = Tensor(rng.normal(size=(2, 3, 5)))
    base = ad.conv1d(Tensor(x), k, dilation=2, causal=True).data
    for n in range(8):
        pert = x.copy()
        pert[:, n + 1:] += rng.normal(size=(3, 8 - n - 1)) * 10
        out = ad.conv1d(Tensor(pert), k, dilation=2, causal=True).data
        assert np.array_equal(out[:, :n + 1], base[:, :n + 1])


def test_conv1d_even_noncausal_rejected():
    with pytest.raises(ShapeError):
        ad.conv1d(Tensor(np.zeros((1, 4))), Tensor(np.zeros((1, 1, 2))), causal=False)


def test_conv1d_gradcheck():
    rng = np.random.default_rng(5)
    x = Tensor(rng.normal(size=(2, 6)))
    k = Tensor(rng.normal(size=(3, 2, 3)))
    w = rng.normal(size=(3, 6))
    err = grad_check(lambda t: ad.sum_all(ad.mul(ad.conv1d(t, k, 2, True), Tensor(w))), x)
    assert err < 1e-5
    err = grad_check(lambda t: ad.sum_all(ad.mul(ad.conv1d(x, t, 1, False), Tensor(w))), k)
    assert err < 1e-5


def test_glu_zero_gate():
    x = np.vstack([np.arange(6, dtype=float).reshape(2, 3), np.zeros((2, 3))])
    y = ad.glu(Tensor(x))
    assert np.allclose(y.data, x[:2] / 2.0)


def test_glu_zero_values():
    x = np.vstack([np.zeros((2, 3)), np.random.default_rng(0).normal(size=(2, 3))])
    assert np.array_equal(ad.glu(Tensor(x)).data, np.zeros((2, 3)))


def test_glu_gradcheck():
    rng = np.random.default_rng(6)
    x = Tensor(rng.normal(size=(4, 3)))
    w = rng.normal(size=(2, 3))
    err = grad_check(lambda t: ad.sum_all(ad.mul(ad.glu(t), Tensor(w))), x)
    assert err < 1e-5


def test_weight_norm_unit_directions():
    rng = np.random.default_rng(7)
    direction = rng.normal(size=(3, 4))
    direction /= np.sqrt((direction ** 2).sum(axis=1, keepdims=True))
    w = ad.weight_norm_apply(Tensor(direction), Tensor(np.ones(3)))
    assert np.allclose(w.data, direction, atol=1e-11)


def test_weight_norm_zero_scale():
    w = ad.weight_norm_apply(Tensor(np.ones((2, 3))), Tensor(np.zeros(2)))
    assert np.array_equal(w.data, np.zeros((2, 3)))


def test_weight_norm_gradcheck():
    rng = np.random.default_rng(8)
    direction = Tensor(rng.normal(size=(3, 2, 4)))
    scale = Tensor(rng.normal(size=3))
    w = rng.normal(size=(3, 2, 4))
    err = grad_check(
        lambda t: ad.sum_all(ad.mul(ad.weight_norm_apply(direction, t), Tensor(w))), scale)
    assert err < 1e-5
    err = grad_check(
        lambda t: ad.sum_all(ad.mul(ad.weight_norm_apply(t, scale), Tensor(w))), direction,
        indices=[(0, 0, 0), (1, 1, 2), (2, 0, 3)])
    assert err < 1e-5


def test_adam_zero_gradient_noop():
    p = {"w": Tensor(np.array([1.0, 2.0]), requires_grad=True)}
    state = AdamState()
    ad.adam_step(p, state, lr=0.1, beta1=0.9)
    assert np.array_equal(p["w"].data, [1.0, 2.0])


def test_adam_single_step_magnitude():
    p = {"w": Tensor(np.array(1.0), requires_grad=True)}
    p["w"].grad = np.array(1.0)
    ad.adam_step(p, AdamState(), lr=1e-3, beta1=0.9)
    # bias correction makes the very first step almost exactly lr
    assert abs((1.0 - p["w"].data) - 1e-3) < 1e-9


def test_adam_constant_gradient_limit():
    p = {"w": Tensor(np.array(0.0), requires_grad=True)}
    state = AdamState()
    lr = 1e-3
    prev = p["w"].data.copy()
    for _ in range(5000):
        p["w"].grad = np.array(1.0)
        prev = p["w"].data.copy()
        ad.adam_step(p, state, lr=lr, beta1=0.9)
    assert abs(abs(p["w"].data - prev) - lr) < 1e-6


def test_grad_check_linear():
    x = Tensor(np.array([1.0, -2.0, 3.0]))
    assert grad_check(ad.sum_all, x) < 1e-10


def test_grad_check_square():
    x = Tensor(np.array([1.0, 2.0]))
    err = grad_check(lambda t: ad.sum_all(ad.mul(t, t)), x)
    assert err < 1e-8
    x.zero_grad()
    y = ad.sum_all(ad.mul(x, x))
    y.backward()
    assert np.allclose(x.grad, [2.0, 4.0], atol=1e-12)


def test_determinism_bitwise():
    rng = np.random.default_rng(10)
    x = rng.normal(size=(5, 4))
    w = rng.normal(size=(5, 4))

    def run():
        t = Tensor(x.copy(), requires_grad=True)
        loss = ad.sum_all(ad.mul(_ln(ad.glu(ad.concat_rows([t, Tensor(w)]))),
                                 Tensor(np.ones((5, 4)))))
        loss.backward()
        return loss.data.copy(), t.grad.copy()

    l1, g1 = run()
    l2, g2 = run()
    assert l1 == l2
    assert np.array_equal(g1, g2)


@pytest.mark.parametrize("seed", range(5))
def test_primitive_gradchecks_five_seeds(seed):
    rng = np.random.default_rng(seed)
    w = rng.normal(size=(3, 4))
    x = Tensor(rng.normal(size=(3, 4)))
    kernel = Tensor(rng.normal(size=(2, 3, 5)))
    conv_w = Tensor(rng.normal(size=(2, 4)))
    checks = [
        lambda t: ad.sum_all(ad.mul(ad.add(t, Tensor(w)), Tensor(w))),
        # keep abs away from its kink: inputs are N(0,1), shift by 5
        lambda t: ad.sum_all(ad.absolute(ad.add(t, Tensor(np.full((3, 4), 5.0))))),
        lambda t: ad.sum_all(ad.mul(ad.transpose(t), Tensor(w.T))),
        lambda t: ad.sum_all(ad.mul(ad.masked_softmax_columns(t, np.zeros((3, 4))),
                                    Tensor(w))),
        lambda t: ad.sum_all(ad.mul(_ln(t), Tensor(w))),
        lambda t: ad.sum_all(ad.mul(ad.glu(ad.concat_rows([t, Tensor(w)])), Tensor(w[:3]))),
        lambda t: ad.sum_all(ad.mul(ad.conv1d(t, kernel, 1, True), conv_w)),
    ]
    for f in checks:
        assert grad_check(f, Tensor(x.data.copy())) < 1e-4


def test_column_exact_matches_fast_mode_closely():
    rng = np.random.default_rng(11)
    a = rng.normal(size=(6, 6))
    b = rng.normal(size=(6, 9))
    fast = ad.matmul(Tensor(a), Tensor(b)).data
    with ad.column_exact():
        exact = ad.matmul(Tensor(a), Tensor(b)).data
    assert np.allclose(fast, exact, atol=1e-12)


def test_column_exact_matmul_is_one_gemv_per_column():
    # each column is a gemv on a contiguous copy of that column, whether the
    # column is dense or has zeros, and whatever its neighbours are
    rng = np.random.default_rng(13)
    a = rng.normal(size=(7, 9))
    b = rng.normal(size=(9, 6))
    b[4:, 1] = 0.0      # trailing zeros, like a causal attention column
    b[::2, 3] = 0.0
    b[:, 5] = 0.0
    with ad.column_exact():
        out = ad.matmul(Tensor(a), Tensor(b)).data
        for j in range(6):
            assert np.array_equal(out[:, j], a @ np.ascontiguousarray(b[:, j]))
            # the same column between other neighbours
            others = rng.normal(size=(9, 4))
            others[:, 2] = b[:, j]
            assert np.array_equal(ad.matmul(Tensor(a), Tensor(others)).data[:, 2], out[:, j])


def test_column_exact_records_no_graph():
    # column-exact mode is inference-only; fast mode keeps the graph
    rng = np.random.default_rng(14)
    x = Tensor(rng.normal(size=(3, 6)), requires_grad=True)
    kernel = Tensor(rng.normal(size=(4, 3, 5)), requires_grad=True)
    gain = Tensor(np.ones((4, 1)), requires_grad=True)
    bias = Tensor(np.zeros((4, 1)), requires_grad=True)

    def ops():
        return [ad.matmul(Tensor(rng.normal(size=(4, 3)), requires_grad=True), x),
                ad.conv1d(x, kernel, 1, True),
                ad.layer_norm(ad.conv1d(x, kernel, 2, True), gain, bias),
                ad.masked_softmax_columns(x, np.zeros((3, 6))),
                *ad.attention(x, ad.matmul(Tensor(rng.normal(size=(5, 3))), x), 1, 1, 0.5,
                              ad.segments((6,)), ad.segments((6,)), causal=True)]

    with ad.column_exact():
        exact = ops()
    for out in exact:
        assert not out.requires_grad and out._parents == () and out._backward is None
    for out in ops():
        assert out.requires_grad and out._parents and out._backward is not None


def test_column_exact_prefix_stability():
    # the core decoding property: results for column j never change when
    # more columns are appended, for matmul / layer_norm / causal conv1d /
    # causal and windowed attention
    rng = np.random.default_rng(12)
    a = rng.normal(size=(8, 8))
    b = rng.normal(size=(8, 12))
    gain, bias = Tensor(np.ones((8, 1))), Tensor(np.zeros((8, 1)))
    kernel = Tensor(rng.normal(size=(5, 8, 5)))
    with ad.column_exact():
        full_mm = ad.matmul(Tensor(a), Tensor(b)).data
        full_ln = ad.layer_norm(Tensor(b), gain, bias).data
        full_conv = ad.conv1d(Tensor(b), kernel, 4, True).data
        for w in range(1, 12):
            assert np.array_equal(ad.matmul(Tensor(a), Tensor(b[:, :w])).data,
                                  full_mm[:, :w])
            assert np.array_equal(ad.layer_norm(Tensor(b[:, :w]), gain, bias).data,
                                  full_ln[:, :w])
            assert np.array_equal(ad.conv1d(Tensor(b[:, :w]), kernel, 4, True).data,
                                  full_conv[:, :w])

    # causal self-attention: a query's column is unchanged when queries and
    # keys are appended, and keys past it get exactly 0
    n_heads, d = 2, 4
    q = rng.normal(size=(d, 12))
    kv = rng.normal(size=(1 + 2 * d, 12))

    def attend(q, kv, causal, window=None):
        out, attn = ad.attention(Tensor(q), Tensor(kv), 1, n_heads, 0.5,
                                 ad.segments((q.shape[1],)), ad.segments((kv.shape[1],)),
                                 causal, window)
        return out.data, attn.data.reshape(n_heads, kv.shape[1], q.shape[1])

    with ad.column_exact():
        full_out, full_attn = attend(q, kv, True)
        assert not full_attn[:, np.tri(12, k=-1, dtype=bool)].any()
        for w in range(1, 12):
            out, attn = attend(q[:, :w], kv[:, :w], True)
            assert np.array_equal(out, full_out[:, :w])
            assert np.array_equal(attn, full_attn[:, :w, :w])

        # non-causal attention over 9 fixed keys with a window on the newest
        # query column only, as in windowed decoding
        keys = kv[:, :9]
        full_out, full_attn = attend(q, keys, False)
        for w in range(1, 12):
            lo, hi = w % 5, w % 5 + 3
            window = np.zeros((9, w))
            window[:lo, -1] = window[hi + 1:, -1] = ad.NEG_INF
            out, attn = attend(q[:, :w], keys, False, window)
            assert np.array_equal(out[:, :-1], full_out[:, :w - 1])
            assert np.array_equal(attn[:, :, :-1], full_attn[:, :, :w - 1])
            assert not attn[:, :lo, -1].any() and not attn[:, hi + 1:, -1].any()
            # the windowed column equals a pass over its window's keys alone
            alone_out, alone_attn = attend(q[:, w - 1:w], keys[:, lo:hi + 1], False)
            assert np.array_equal(out[:, -1], alone_out[:, 0])
            assert np.array_equal(attn[:, lo:hi + 1, -1], alone_attn[:, :, 0])


def test_column_exact_attention_takes_one_segment():
    with ad.column_exact(), pytest.raises(ShapeError):
        ad.attention(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 3))), 0, 1, 1.0,
                     ad.segments((1, 2)), ad.segments((1, 2)))


def test_attention_window_must_leave_every_query_a_key():
    window = np.zeros((3, 2))
    window[:, 1] = ad.NEG_INF
    for mode in (contextlib.nullcontext, ad.column_exact):
        with mode(), pytest.raises(DegenerateColumnError):
            ad.attention(Tensor(np.zeros((2, 2))), Tensor(np.zeros((4, 3))), 0, 1, 1.0,
                         ad.segments((2,)), ad.segments((3,)), window=window)


def _padded_im2col_conv(x, kernel, dilation, causal):
    """The single-sequence conv as one padded im2col gemm."""
    c_out, c_in, k = kernel.shape
    n = x.shape[1]
    pad_l = (k - 1) * dilation if causal else (k - 1) // 2 * dilation
    xp = np.pad(x, ((0, 0), (pad_l, 0 if causal else pad_l)))
    xcol = np.empty((k * c_in, n))
    for t in range(k):
        xcol[t * c_in:(t + 1) * c_in] = xp[:, t * dilation:t * dilation + n]
    return kernel.transpose(0, 2, 1).reshape(c_out, -1) @ xcol


@pytest.mark.parametrize("dilation", [1, 2, 4])
@pytest.mark.parametrize("causal", [False, True])
def test_conv1d_one_segment_is_padded_im2col_bitwise(dilation, causal):
    rng = np.random.default_rng(40 + dilation)
    for c_in, c_out, n in [(3, 4, 1), (5, 2, 7), (41, 64, 60), (32, 93, 13)]:
        x = rng.normal(size=(c_in, n))
        kernel = rng.normal(size=(c_out, c_in, 5))
        want = _padded_im2col_conv(x, kernel, dilation, causal)
        assert np.array_equal(ad.conv1d(Tensor(x), Tensor(kernel), dilation, causal).data, want)
        segs = ad.segments((n,))
        assert np.array_equal(
            ad.conv1d(Tensor(x), Tensor(kernel), dilation, causal, segs).data, want)


@pytest.mark.parametrize("dilation", [1, 4])
@pytest.mark.parametrize("causal", [False, True])
def test_conv1d_segments_are_separate_sequences(dilation, causal):
    rng = np.random.default_rng(50 + dilation)
    lengths = (3, 1, 6, 2)
    segs = ad.segments(lengths)
    x = rng.normal(size=(3, segs.n))
    kernel = rng.normal(size=(2, 3, 5))
    out = ad.conv1d(Tensor(x), Tensor(kernel), dilation, causal, segs).data
    starts = np.cumsum(lengths) - lengths
    for s, n in zip(starts, lengths):
        alone = _padded_im2col_conv(x[:, s:s + n], kernel, dilation, causal)
        assert np.allclose(out[:, s:s + n], alone, rtol=0, atol=1e-12)
    # perturbing one segment leaves every other column bit-identical
    pert = x.copy()
    pert[:, 4:10] += 3.0
    out2 = ad.conv1d(Tensor(pert), Tensor(kernel), dilation, causal, segs).data
    assert np.array_equal(np.delete(out2, np.s_[4:10], axis=1), np.delete(out, np.s_[4:10], axis=1))
    w = Tensor(rng.normal(size=(2, segs.n)))
    assert grad_check(lambda t: ad.sum_all(ad.mul(ad.conv1d(t, Tensor(kernel), dilation, causal,
                                                               segs), w)), Tensor(x)) < 1e-6
    assert grad_check(lambda t: ad.sum_all(ad.mul(ad.conv1d(Tensor(x), t, dilation, causal,
                                                               segs), w)), Tensor(kernel)) < 1e-6


def test_conv1d_segments_must_cover_input():
    with pytest.raises(ShapeError):
        ad.conv1d(Tensor(np.zeros((1, 4))), Tensor(np.zeros((1, 1, 3))), segs=ad.segments((2, 1)))


def _attention_case(rng, n_heads, q_lengths, k_lengths, dh=2):
    d = n_heads * dh
    qs, ks = ad.segments(q_lengths), ad.segments(k_lengths)
    q = rng.normal(size=(d + 1, qs.n))          # an extra row the op must ignore
    kv = rng.normal(size=(1 + 2 * d, ks.n))     # keys start at row 1
    return d, qs, ks, q, kv


def _blocks(n_heads, q_lengths, k_lengths):
    """Pair p's (n_heads, n_k, n_q) block of the ragged attention, as a
    flat slice."""
    sizes = [n_heads * nk * nq for nq, nk in zip(q_lengths, k_lengths)]
    return [np.s_[o:o + n] for o, n in zip(np.cumsum(sizes) - sizes, sizes)]


@pytest.mark.parametrize("n_heads", [1, 3])
@pytest.mark.parametrize("causal", [False, True])
def test_attention_matches_per_head_softmax(n_heads, causal):
    rng = np.random.default_rng(60 + n_heads)
    q_lengths = (3, 1, 5)
    k_lengths = q_lengths if causal else (4, 2, 1)
    d, qs, ks, q, kv = _attention_case(rng, n_heads, q_lengths, k_lengths)
    out, attn = ad.attention(Tensor(q), Tensor(kv), 1, n_heads, 0.7, qs, ks, causal)
    blocks = _blocks(n_heads, q_lengths, k_lengths)
    # the ragged attention is exactly the pairs' blocks, one after another
    assert out.data.shape == (d, qs.n) and attn.data.shape == (blocks[-1].stop,)
    dh = d // n_heads
    q0 = k0 = 0
    for p, (nq, nk) in enumerate(zip(q_lengths, k_lengths)):
        block = attn.data[blocks[p]].reshape(n_heads, nk, nq)
        mask = ad.causal_mask(max(nk, nq))[:nk, :nq] if causal else np.zeros((nk, nq))
        for h in range(n_heads):
            qh = q[h * dh:(h + 1) * dh, q0:q0 + nq]
            kh = kv[1 + h * dh:1 + (h + 1) * dh, k0:k0 + nk]
            vh = kv[1 + d + h * dh:1 + d + (h + 1) * dh, k0:k0 + nk]
            a = ad.masked_softmax_columns(Tensor(0.7 * (kh.T @ qh)), mask).data
            assert np.allclose(block[h], a, rtol=0, atol=1e-14)
            assert np.allclose(out.data[h * dh:(h + 1) * dh, q0:q0 + nq], vh @ a,
                               rtol=0, atol=1e-13)
        # masked keys are exactly 0
        assert not block[:, mask != 0.0].any()
        q0, k0 = q0 + nq, k0 + nk


@pytest.mark.parametrize("causal", [False, True])
def test_attention_window_of_one_segment(causal):
    rng = np.random.default_rng(65)
    d, qs, ks, q, kv = _attention_case(rng, 2, (4,), (4,))
    window = np.where(rng.random((4, 4)) < 0.5, ad.NEG_INF, 0.0)
    window[np.arange(4), np.arange(4)] = 0.0      # every query keeps its own key
    _, attn = ad.attention(Tensor(q), Tensor(kv), 1, 2, 0.7, qs, ks, causal, window)
    mask = window + (ad.causal_mask(4) if causal else 0.0)
    for h, block in enumerate(attn.data.reshape(2, 4, 4)):
        logits = 0.7 * (kv[1 + 2 * h:3 + 2 * h].T @ q[2 * h:2 * h + 2])
        want = ad.masked_softmax_columns(Tensor(logits), mask).data
        assert np.allclose(block, want, rtol=0, atol=1e-14)
        assert not block[mask != 0.0].any()


@pytest.mark.parametrize("n_heads", [1, 3])
@pytest.mark.parametrize("causal", [False, True])
def test_attention_gradcheck_ragged_segments(n_heads, causal):
    rng = np.random.default_rng(70 + n_heads)
    q_lengths = (2, 1, 4)
    k_lengths = q_lengths if causal else (3, 1, 2)
    d, qs, ks, q, kv = _attention_case(rng, n_heads, q_lengths, k_lengths)
    w_out = Tensor(rng.normal(size=(d, qs.n)))
    w_attn = Tensor(rng.normal(size=(_blocks(n_heads, q_lengths, k_lengths)[-1].stop,)))

    def loss(q_t, kv_t, k_row=1, kseg=ks):
        out, attn = ad.attention(q_t, kv_t, k_row, n_heads, 0.7, qs, kseg, causal)
        return ad.add(ad.sum_all(ad.mul(out, w_out)), ad.sum_all(ad.mul(attn, w_attn)))

    assert grad_check(lambda t: loss(t, Tensor(kv)), Tensor(q)) < 1e-6
    assert grad_check(lambda t: loss(Tensor(q), t), Tensor(kv)) < 1e-6
    # self-attention: queries, keys and values rows of one tensor, through
    # both outputs
    w_attn = Tensor(rng.normal(size=(_blocks(n_heads, q_lengths, q_lengths)[-1].stop,)))
    qkv = rng.normal(size=(3 * d, qs.n))
    assert grad_check(lambda t: loss(t, t, d, qs), Tensor(qkv)) < 1e-6


def test_attention_shape_errors():
    segs = ad.segments((2, 3))
    one = ad.segments((5,))
    with pytest.raises(ShapeError):   # a window over more than one segment
        ad.attention(Tensor(np.zeros((4, 5))), Tensor(np.zeros((8, 5))), 0, 2, 1.0, segs, segs,
                     False, np.zeros((5, 5)))
    with pytest.raises(ShapeError):   # a window of the wrong shape
        ad.attention(Tensor(np.zeros((4, 5))), Tensor(np.zeros((8, 5))), 0, 2, 1.0, one, one,
                     False, np.zeros((5, 4)))
    with pytest.raises(ShapeError):   # d not divisible by the heads
        ad.attention(Tensor(np.zeros((4, 5))), Tensor(np.zeros((8, 5))), 0, 3, 1.0, segs, segs)
    with pytest.raises(ShapeError):   # segments that do not cover the columns
        ad.attention(Tensor(np.zeros((4, 6))), Tensor(np.zeros((8, 5))), 0, 2, 1.0, segs, segs)


def test_causal_slice_is_a_slice_of_one_mask():
    assert np.array_equal(ad._causal_slice(3, 5), ad.causal_mask(5)[:3])
    assert np.array_equal(ad._causal_slice(40, 2), ad.causal_mask(40)[:, :2])
    assert not ad._causal_slice(2, 2).flags.writeable


def _assert_unaliased(tensors):
    """No two of the tensors' gradients share memory, and mutating one
    leaves every other unchanged."""
    grads = [t.grad for t in tensors]
    for i, gi in enumerate(grads):
        for gj in grads[i + 1:]:
            assert not np.shares_memory(gi, gj)
    before = [g.copy() for g in grads]
    for i, gi in enumerate(grads):
        gi += 1.0
        for j, gj in enumerate(grads):
            if j != i:
                assert np.array_equal(gj, before[j])
        gi[...] = before[i]


def test_backward_gradients_do_not_alias():
    rng = np.random.default_rng(80)
    a = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
    b = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
    s = ad.add(a, b)
    ad.sum_all(ad.mul(s, Tensor(rng.normal(size=(2, 3))))).backward()
    _assert_unaliased([a, b, s])

    c = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
    d = Tensor(rng.normal(size=(1, 3)), requires_grad=True)
    bias = Tensor(rng.normal(size=(3, 1)), requires_grad=True)
    cat = ad.concat_rows([c, d])
    shifted = ad.add_bias(cat, bias)
    flipped = ad.transpose(shifted)
    ad.sum_all(ad.mul(flipped, Tensor(rng.normal(size=(3, 3))))).backward()
    _assert_unaliased([c, d, bias, cat, shifted, flipped])

    # the attention op hands q = kv one gradient array of its own
    qkv = Tensor(rng.normal(size=(6, 4)), requires_grad=True)
    segs = ad.segments((3, 1))
    out, attn = ad.attention(qkv, qkv, 2, 1, 0.5, segs, segs, True)
    ad.add(ad.sum_all(ad.mul(out, Tensor(rng.normal(size=(2, 4))))),
           ad.sum_all(ad.mul(attn, Tensor(rng.normal(size=attn.shape))))).backward()
    _assert_unaliased([qkv, out, attn])
