import contextlib
import math
import weakref

import numpy as np
import pytest

from vtn import autodiff as ad
from vtn.autodiff import AdamState, Tensor, grad_check
from vtn.errors import DegenerateColumnError, GraphReleasedError, ShapeError, VtnError
from vtn.trainer import load_trainer_state, save_trainer_state

from oracles import (_MASKED, causal_mask, column_exact_attention, column_exact_layer_norm,
                     column_exact_mm, masked_softmax_columns)


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
    y = masked_softmax_columns(Tensor([[0.0], [0.0]]), np.zeros((2, 1)))
    assert np.allclose(y.data, [[0.5], [0.5]], atol=1e-15)


def test_softmax_forced_row():
    mask = np.array([[0.0], [ad.NEG_INF]])
    y = masked_softmax_columns(Tensor([[5.0], [5.0]]), mask)
    assert y.data[0, 0] == 1.0
    assert y.data[1, 0] == 0.0  # exactly


def test_softmax_column_sums_and_masked_zeros():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(6, 5))
    mask = np.where(rng.random((6, 5)) < 0.4, ad.NEG_INF, 0.0)
    mask[0] = 0.0  # keep every column alive
    y = masked_softmax_columns(Tensor(x), mask).data
    assert np.abs(y.sum(axis=0) - 1.0).max() < 1e-12
    assert (y[mask < _MASKED] == 0.0).all()


def test_softmax_gradcheck():
    rng = np.random.default_rng(1)
    x = Tensor(rng.normal(size=(4, 3)))
    w = rng.normal(size=(4, 3))
    mask = np.zeros((4, 3))
    mask[3, 1] = ad.NEG_INF
    err = grad_check(
        lambda t: ad.sum_all(ad.mul(masked_softmax_columns(t, mask), Tensor(w))), x)
    assert err < 1e-5


def test_softmax_degenerate_column():
    mask = np.full((3, 1), ad.NEG_INF)
    with pytest.raises(DegenerateColumnError):
        masked_softmax_columns(Tensor(np.zeros((3, 1))), mask)


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
    k = np.zeros((2, 5, 2))
    k[0, 2, 0] = 1.0
    k[1, 2, 1] = 1.0
    y = ad.conv1d(x, Tensor(k), dilation=1, causal=False)
    assert np.array_equal(y.data, x.data)


def test_conv1d_causal_pair_sum():
    x = Tensor([[1.0, 2.0, 3.0]])
    k = Tensor(np.ones((1, 2, 1)))
    y = ad.conv1d(x, k, dilation=1, causal=True)
    assert np.array_equal(y.data, [[1.0, 3.0, 5.0]])


def test_conv1d_causal_no_future_leak():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(3, 8))
    k = Tensor(rng.normal(size=(2, 5, 3)))
    base = ad.conv1d(Tensor(x), k, dilation=2, causal=True).data
    for n in range(8):
        pert = x.copy()
        pert[:, n + 1:] += rng.normal(size=(3, 8 - n - 1)) * 10
        out = ad.conv1d(Tensor(pert), k, dilation=2, causal=True).data
        assert np.array_equal(out[:, :n + 1], base[:, :n + 1])


def test_conv1d_even_noncausal_rejected():
    with pytest.raises(ShapeError):
        ad.conv1d(Tensor(np.zeros((1, 4))), Tensor(np.zeros((1, 2, 1))), causal=False)


def test_conv1d_gradcheck():
    rng = np.random.default_rng(5)
    x = Tensor(rng.normal(size=(2, 6)))
    k = Tensor(rng.normal(size=(3, 3, 2)))
    w = rng.normal(size=(3, 6))
    err = grad_check(lambda t: ad.sum_all(ad.mul(ad.conv1d(t, k, 2, True), Tensor(w))), x)
    assert err < 1e-5
    err = grad_check(lambda t: ad.sum_all(ad.mul(ad.conv1d(x, t, 1, False), Tensor(w))), k)
    assert err < 1e-5


def test_transpose_permutes_axes_and_its_gradient_back():
    rng = np.random.default_rng(6)
    x = Tensor(rng.normal(size=(2, 3, 4)))
    for axes in [(0, 2, 1), (1, 2, 0)]:
        y = ad.transpose(x, axes)
        assert y.data.flags.c_contiguous and np.array_equal(y.data, x.data.transpose(axes))
        w = Tensor(rng.normal(size=y.shape))
        assert grad_check(lambda t: ad.sum_all(ad.mul(ad.transpose(t, axes), w)), x) < 1e-6


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
    m = rng.normal(size=(10, 10))

    def run():
        t = Tensor(x.copy(), requires_grad=True)
        loss = ad.sum_all(ad.mul(_ln(ad.glu(ad.matmul(Tensor(m), [t, Tensor(w)]))),
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
    kernel = Tensor(rng.normal(size=(2, 5, 3)))
    conv_w = Tensor(rng.normal(size=(2, 4)))
    m = Tensor(rng.normal(size=(6, 6)))
    checks = [
        lambda t: ad.sum_all(ad.mul(ad.add(t, Tensor(w)), Tensor(w))),
        # keep abs away from its kink: inputs are N(0,1), shift by 5
        lambda t: ad.sum_all(ad.absolute(ad.add(t, Tensor(np.full((3, 4), 5.0))))),
        lambda t: ad.sum_all(ad.mul(ad.transpose(t), Tensor(w.T))),
        lambda t: ad.sum_all(ad.mul(masked_softmax_columns(t, np.zeros((3, 4))),
                                    Tensor(w))),
        lambda t: ad.sum_all(ad.mul(_ln(t), Tensor(w))),
        lambda t: ad.sum_all(ad.mul(ad.glu(ad.matmul(m, [t, Tensor(w)])), Tensor(w[:3]))),
        lambda t: ad.sum_all(ad.mul(ad.conv1d(t, kernel, 1, True), conv_w)),
    ]
    for f in checks:
        assert grad_check(f, Tensor(x.data.copy())) < 1e-4


def _row_block_case(seed):
    """A (5 x 6) matrix, row blocks of 2, 3 and 1 rows that stack to a (6 x 4)
    matrix, and a readout of the product."""
    rng = np.random.default_rng(seed)
    return (rng.normal(size=(5, 6)), [rng.normal(size=(r, 4)) for r in (2, 3, 1)],
            rng.normal(size=(5, 4)))


@pytest.mark.parametrize("i", range(3))
def test_matmul_row_blocks_gradcheck_each_block(i):
    a, blocks, readout = _row_block_case(60)

    def f(t):
        parts = [t if j == i else Tensor(b) for j, b in enumerate(blocks)]
        return ad.sum_all(ad.mul(ad.matmul(Tensor(a), parts), Tensor(readout)))

    assert grad_check(f, Tensor(blocks[i].copy())) < 1e-6


def test_matmul_row_blocks_give_the_stacked_products_bits():
    a, blocks, readout = _row_block_case(61)
    stacked = Tensor(np.concatenate(blocks), requires_grad=True)
    wa = Tensor(a, requires_grad=True)
    want = ad.matmul(wa, stacked)
    ad.sum_all(ad.mul(want, Tensor(readout))).backward()
    # the middle block needs no gradient and gets none; the others still do
    parts = [Tensor(b, requires_grad=j != 1) for j, b in enumerate(blocks)]
    ta = Tensor(a, requires_grad=True)
    got = ad.matmul(ta, parts)
    ad.sum_all(ad.mul(got, Tensor(readout))).backward()
    assert _same_bits(got.data, want.data) and _same_bits(ta.grad, wa.grad)
    assert parts[1].grad is None
    assert _same_bits(parts[0].grad, stacked.grad[:2])
    assert _same_bits(parts[2].grad, stacked.grad[5:])
    with ad.column_exact():
        assert _same_bits(ad.matmul(Tensor(a), [Tensor(b) for b in blocks]).data,
                          ad.matmul(Tensor(a), Tensor(np.concatenate(blocks))).data)


def test_matmul_rejects_row_blocks_of_unequal_width():
    with pytest.raises(ShapeError):
        ad.matmul(Tensor(np.zeros((2, 5))), [Tensor(np.zeros((3, 4))), Tensor(np.zeros((2, 3)))])
    with pytest.raises(ShapeError):   # blocks that stack to too few rows
        ad.matmul(Tensor(np.zeros((2, 5))), [Tensor(np.zeros((3, 4))), Tensor(np.zeros((1, 4)))])


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
    kernel = Tensor(rng.normal(size=(4, 5, 3)), requires_grad=True)
    gain = Tensor(np.ones((4, 1)), requires_grad=True)
    bias = Tensor(np.zeros((4, 1)), requires_grad=True)

    def ops():
        return [ad.matmul(Tensor(rng.normal(size=(4, 3)), requires_grad=True), x),
                ad.conv1d(x, kernel, 1, True),
                ad.layer_norm(ad.conv1d(x, kernel, 2, True), gain, bias),
                masked_softmax_columns(x, np.zeros((3, 6))),
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
    kernel = Tensor(rng.normal(size=(5, 5, 8)))
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
            out, attn = attend(q[:, :w], keys, False, (lo, hi + 1))
            assert np.array_equal(out[:, :-1], full_out[:, :w - 1])
            assert np.array_equal(attn[:, :, :-1], full_attn[:, :, :w - 1])
            assert not attn[:, :lo, -1].any() and not attn[:, hi + 1:, -1].any()
            # the windowed column equals a pass over its window's keys alone
            alone_out, alone_attn = attend(q[:, w - 1:w], keys[:, lo:hi + 1], False)
            assert np.array_equal(out[:, -1], alone_out[:, 0])
            assert np.array_equal(attn[:, lo:hi + 1, -1], alone_attn[:, :, 0])


def test_column_exact_matmul_matches_per_column_oracle():
    rng = np.random.default_rng(15)
    for m, k, n in [(1, 1, 1), (1, 5, 3), (7, 9, 1), (31, 93, 40), (64, 505, 17)]:
        a, b = _signed_zeros(rng, (m, k)), _signed_zeros(rng, (k, n))
        with ad.column_exact():
            out = ad.matmul(Tensor(a), Tensor(b)).data
        assert _same_bits(out, column_exact_mm(a, b))


@pytest.mark.parametrize("d", [1, 7, 8, 127, 128, 129, 512, 1024])
def test_column_exact_layer_norm_matches_per_column_oracle(d):
    rng = np.random.default_rng(16 + d)
    for n in (1, 2, 40):
        x = _signed_zeros(rng, (d, n)) * 3.0 + 0.5
        gain, bias = rng.normal(size=(d, 1)), rng.normal(size=(d, 1))
        before = x.copy()
        with ad.column_exact():
            y = ad.layer_norm(Tensor(x), Tensor(gain), Tensor(bias)).data
        assert _same_bits(y, column_exact_layer_norm(x, gain, bias))
        assert _same_bits(x, before)     # the input is read, not normalised in place


@pytest.mark.parametrize("n_heads", [1, 2, 3, 4])
@pytest.mark.parametrize("causal", [False, True])
def test_column_exact_attention_matches_per_column_oracle(n_heads, causal):
    # key ranges shared by runs of columns, one column each (causal, fewer
    # queries than keys being the last key positions), and a last column
    # cut to a window at either edge or to a single key.  The long case
    # gives columns fewer than 8, 8 to 128 and more than 128 keys, each of
    # numpy's pairwise-sum regimes, in the one softmax sweep
    rng = np.random.default_rng(17 + n_heads)
    d = 3 * n_heads
    for n_q, n_k in [(1, 1), (9, 9), (6, 11), (12, 5), (140, 140) if causal else (3, 130)]:
        qkv = rng.normal(size=(3 * d, n_q)) * 2.0
        kv = np.concatenate([rng.normal(size=(1, n_k)), rng.normal(size=(2 * d, n_k)) * 2.0])
        if causal and n_q > n_k:
            # a causal query needs a key at its own position
            with ad.column_exact(), pytest.raises(ShapeError):
                ad.attention(Tensor(qkv[:d]), Tensor(kv), 1, n_heads, 0.7,
                             ad.segments((n_q,)), ad.segments((n_k,)), causal)
            continue
        last = n_k                                  # keys the last column may see
        windows = {None, (0, last), (0, 1), (last - 1, last), (0, max(1, last - 2)),
                   (min(2, last - 1), last), (last // 2, last // 2 + 1)}
        for (q, kv_, k_row) in [(qkv[:d], kv, 1), (qkv, qkv, d)]:
            if kv_ is qkv and n_k != n_q:
                continue
            nk = kv_.shape[1]
            keep = (np.arange(nk)[:, None] <= np.arange(nk - n_q, nk)[None, :] if causal
                    else np.ones((nk, n_q), bool))
            for window in sorted(windows, key=str):
                if window is not None and window[1] > nk:
                    continue
                want_keep = keep.copy()
                if window is not None:
                    want_keep[:window[0], -1] = want_keep[window[1]:, -1] = False
                with ad.column_exact():
                    out, attn = ad.attention(Tensor(q), Tensor(kv_), k_row, n_heads, 0.7,
                                             ad.segments((n_q,)), ad.segments((nk,)),
                                             causal, window)
                want_out, want_attn = column_exact_attention(q, kv_, k_row, n_heads, 0.7,
                                                             want_keep)
                assert _same_bits(out.data, want_out)
                assert _same_bits(attn.data, want_attn.ravel())


@pytest.mark.parametrize("exact", [False, True])
def test_causal_queries_fewer_than_keys_are_the_last_positions(exact):
    # t causal queries over n keys are the last t key positions, as in a
    # decoding step's last layer: they equal the last t columns of the pass
    # that queries every position (bitwise in column-exact mode)
    rng = np.random.default_rng(18)
    n_heads, d, n = 2, 4, 11
    qkv = rng.normal(size=(3 * d, n))
    mode = ad.column_exact() if exact else contextlib.nullcontext()
    with mode:
        full_out, full_attn = ad.attention(Tensor(qkv), Tensor(qkv), d, n_heads, 0.5,
                                           ad.segments((n,)), ad.segments((n,)), True)
        for t in (1, 4, n):
            out, attn = ad.attention(Tensor(qkv[:, -t:]), Tensor(qkv), d, n_heads, 0.5,
                                     ad.segments((t,)), ad.segments((n,)), True)
            want_attn = full_attn.data.reshape(n_heads, n, n)[..., -t:]
            got_attn = attn.data.reshape(n_heads, n, t)
            if exact:
                assert _same_bits(out.data, full_out.data[:, -t:].copy())
                assert _same_bits(got_attn, want_attn.copy())
            else:
                assert np.allclose(out.data, full_out.data[:, -t:], rtol=1e-12, atol=1e-12)
                assert np.allclose(got_attn, want_attn, rtol=1e-12, atol=1e-12)
        with pytest.raises(ShapeError):
            ad.attention(Tensor(qkv), Tensor(qkv[:, :4]), d, n_heads, 0.5,
                         ad.segments((n,)), ad.segments((4,)), True)


def test_column_exact_attention_takes_one_segment():
    with ad.column_exact(), pytest.raises(ShapeError):
        ad.attention(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 3))), 0, 1, 1.0,
                     ad.segments((1, 2)), ad.segments((1, 2)))


def test_attention_window_must_leave_every_query_a_key():
    with ad.column_exact(), pytest.raises(DegenerateColumnError):
        ad.attention(Tensor(np.zeros((2, 2))), Tensor(np.zeros((4, 3))), 0, 1, 1.0,
                     ad.segments((2,)), ad.segments((3,)), window=(1, 1))


@pytest.mark.parametrize("mode", [contextlib.nullcontext, ad.column_exact])
def test_attention_window_bounds(mode):
    # a window is a column-exact key range; fast (training) attention takes
    # none, however it is bounded
    def attend(window, q_lengths=(2,), k_lengths=(3,)):
        qs, ks = ad.segments(q_lengths), ad.segments(k_lengths)
        return ad.attention(Tensor(np.zeros((2, qs.n))), Tensor(np.zeros((4, ks.n))), 0, 1,
                            1.0, qs, ks, window=window)

    if mode is contextlib.nullcontext:
        for window in [(0, 3), (1, 2), (0, 4), (2, 1), (2, 2)]:
            with pytest.raises(ShapeError, match="column-exact"):
                attend(window)
        with pytest.raises(ShapeError, match="column-exact"):
            attend((0, 1), (1, 1), (1, 2))
        return
    with mode():
        for bad in [(0, 4), (2, 1), (-1, 2)]:   # past N_k, lo > hi, before key 0
            with pytest.raises(ShapeError):
                attend(bad)
        for empty in [(0, 0), (2, 2), (3, 3)]:
            with pytest.raises(DegenerateColumnError):
                attend(empty)
        with pytest.raises(ShapeError):       # a window over two segments
            attend((0, 1), (1, 1), (1, 2))
        # the whole key range and one key are both fine
        _, attn = attend((0, 3))
        assert np.allclose(attn.data.reshape(3, 2).sum(axis=0), 1.0)
        _, attn = attend((1, 2))
        assert np.array_equal(attn.data.reshape(3, 2)[:, 1], [0.0, 1.0, 0.0])


def _padded_im2col_conv(x, kernel, dilation, causal):
    """The single-sequence conv as one padded im2col gemm."""
    c_out, k, c_in = kernel.shape
    n = x.shape[1]
    pad_l = (k - 1) * dilation if causal else (k - 1) // 2 * dilation
    xp = np.pad(x, ((0, 0), (pad_l, 0 if causal else pad_l)))
    xcol = np.empty((k * c_in, n))
    for t in range(k):
        xcol[t * c_in:(t + 1) * c_in] = xp[:, t * dilation:t * dilation + n]
    return kernel.reshape(c_out, -1) @ xcol


@pytest.mark.parametrize("dilation", [1, 2, 4])
@pytest.mark.parametrize("causal", [False, True])
def test_conv1d_one_segment_is_padded_im2col_bitwise(dilation, causal):
    rng = np.random.default_rng(40 + dilation)
    for c_in, c_out, n in [(3, 4, 1), (5, 2, 7), (41, 64, 60), (32, 93, 13)]:
        x = rng.normal(size=(c_in, n))
        kernel = rng.normal(size=(c_out, 5, c_in))
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
    kernel = rng.normal(size=(2, 5, 3))
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
        ad.conv1d(Tensor(np.zeros((1, 4))), Tensor(np.zeros((1, 3, 1))), segs=ad.segments((2, 1)))


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
        mask = causal_mask(max(nk, nq))[:nk, :nq] if causal else np.zeros((nk, nq))
        for h in range(n_heads):
            qh = q[h * dh:(h + 1) * dh, q0:q0 + nq]
            kh = kv[1 + h * dh:1 + (h + 1) * dh, k0:k0 + nk]
            vh = kv[1 + d + h * dh:1 + d + (h + 1) * dh, k0:k0 + nk]
            a = masked_softmax_columns(Tensor(0.7 * (kh.T @ qh)), mask).data
            assert np.allclose(block[h], a, rtol=0, atol=1e-14)
            assert np.allclose(out.data[h * dh:(h + 1) * dh, q0:q0 + nq], vh @ a,
                               rtol=0, atol=1e-13)
        # masked keys are exactly 0
        assert not block[:, mask != 0.0].any()
        q0, k0 = q0 + nq, k0 + nk


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
                     False, (0, 5))
    with pytest.raises(ShapeError):   # a window past the keys
        ad.attention(Tensor(np.zeros((4, 5))), Tensor(np.zeros((8, 5))), 0, 2, 1.0, one, one,
                     False, (0, 6))
    with pytest.raises(ShapeError):   # d not divisible by the heads
        ad.attention(Tensor(np.zeros((4, 5))), Tensor(np.zeros((8, 5))), 0, 3, 1.0, segs, segs)
    with pytest.raises(ShapeError):   # segments that do not cover the columns
        ad.attention(Tensor(np.zeros((4, 6))), Tensor(np.zeros((8, 5))), 0, 2, 1.0, segs, segs)


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
    # c and d are row blocks of one product, whose gradients are rows of
    # one array
    prod = ad.matmul(Tensor(rng.normal(size=(3, 3))), [c, d])
    shifted = ad.add_bias(prod, bias)
    flipped = ad.transpose(shifted)
    ad.sum_all(ad.mul(flipped, Tensor(rng.normal(size=(3, 3))))).backward()
    _assert_unaliased([c, d, bias, prod, shifted, flipped])

    # the attention op hands q = kv one gradient array of its own
    qkv = Tensor(rng.normal(size=(6, 4)), requires_grad=True)
    segs = ad.segments((3, 1))
    out, attn = ad.attention(qkv, qkv, 2, 1, 0.5, segs, segs, True)
    ad.add(ad.sum_all(ad.mul(out, Tensor(rng.normal(size=(2, 4))))),
           ad.sum_all(ad.mul(attn, Tensor(rng.normal(size=attn.shape))))).backward()
    _assert_unaliased([qkv, out, attn])


def test_backward_frees_interior_nodes_as_it_sweeps():
    rng = np.random.default_rng(81)
    x = Tensor(rng.normal(size=(3, 5)), requires_grad=True)
    kernel = Tensor(rng.normal(size=(2, 3, 3)), requires_grad=True)
    held = ad.conv1d(x, kernel, 1, True)
    gated = ad.glu(held)
    loss = ad.sum_all(ad.mul(gated, Tensor(rng.normal(size=(1, 5)))))
    # the node goes once its gradient has moved on to held, before held's
    # own gradient reaches x
    x_grad_when_freed = []
    gone = weakref.ref(gated, lambda _: x_grad_when_freed.append(x.grad))
    del gated
    loss.backward()
    assert gone() is None and x_grad_when_freed == [None]
    assert held.grad is not None and held.grad.shape == held.data.shape
    assert x.grad is not None and kernel.grad is not None


def test_swept_graph_cannot_be_backpropagated_again():
    assert issubclass(GraphReleasedError, VtnError)
    rng = np.random.default_rng(82)
    x = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
    part = ad.sum_all(ad.mul(x, x))
    loss = ad.mul(part, Tensor(3.0))
    loss.backward()
    want = x.grad.copy()
    with pytest.raises(GraphReleasedError):
        loss.backward()
    # from a released interior node, and from a new graph built on one
    with pytest.raises(GraphReleasedError):
        part.backward()
    with pytest.raises(GraphReleasedError):
        ad.add(part, ad.sum_all(x)).backward()
    assert np.array_equal(x.grad, want)


# -- bit-for-bit oracles: the expressions these primitives had before they
# wrote into arrays of their own, and the per-parameter Adam update

def _same_bits(a, b):
    """Byte-equal arrays of one shape: unlike array_equal, -0.0 != 0.0."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _signed_zeros(rng, shape):
    """Normal draws with a few entries set to 0.0 and a few to -0.0."""
    x = rng.normal(size=shape)
    x.flat[rng.choice(x.size, size=max(1, x.size // 8), replace=False)] = 0.0
    x.flat[rng.choice(x.size, size=max(1, x.size // 8), replace=False)] = -0.0
    return x


def _ref_layer_norm(x, gain, bias, g, eps=1e-5):
    mu = x.mean(axis=0, keepdims=True)
    c = x - mu
    var = (c * c).mean(axis=0, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = c * inv_std
    y = gain * xhat + bias
    gx_hat = g * gain
    m1 = gx_hat.mean(axis=0, keepdims=True)
    m2 = (gx_hat * xhat).mean(axis=0, keepdims=True)
    return (y, (g * xhat).sum(axis=1, keepdims=True), g.sum(axis=1, keepdims=True),
            inv_std * (gx_hat - m1 - xhat * m2))


def _ref_glu(x, g):
    c = x.shape[0] // 2
    a, b = x[:c], x[c:]
    sig = 1.0 / (1.0 + np.exp(-b))
    gx = np.empty_like(x)
    gx[:c] = g * sig
    gx[c:] = g * a * sig * (1.0 - sig)
    return a * sig, gx


def _ref_conv(x, kernel, dilation, causal, segs, g):
    """The padded im2col conv and its gradients."""
    c_out, k, c_in = kernel.shape
    n = x.shape[1]
    pad_l = (k - 1) * dilation if causal else (k - 1) // 2 * dilation
    pad_r = 0 if causal else pad_l
    offsets = [t * dilation - pad_l for t in range(k)]
    xp = np.pad(x, ((0, 0), (pad_l, pad_r)))
    xcol = np.empty((k * c_in, n))
    for t, o in enumerate(offsets):
        rows = xcol[t * c_in:(t + 1) * c_in]
        rows[:] = xp[:, o + pad_l:o + pad_l + n]
        rows[:, segs.outside(o)] = 0.0
    w = kernel.reshape(c_out, -1)
    gk = (g @ xcol.T).reshape(c_out, k, c_in)
    gxp = np.zeros((c_in, pad_l + n + pad_r))
    gcol = w.T @ g
    for t, o in enumerate(offsets):
        rows = gcol[t * c_in:(t + 1) * c_in]
        rows[:, segs.outside(o)] = 0.0
        gxp[:, o + pad_l:o + pad_l + n] += rows
    return w @ xcol, gk, gxp[:, pad_l:pad_l + n]


def _grads_of(out, g, *inputs):
    """Backpropagate g from out alone; the inputs' gradients."""
    for t in inputs:
        t.zero_grad()
    out.grad = g
    out._backward(g)
    return [t.grad for t in inputs]


# packed lengths with one-column segments, and a segment shorter than the
# widest dilated tap reaches (offsets up to 16 at dilation 4)
PACKED = [(7,), (1, 5, 1), (3, 1, 6, 2), (20, 2, 9), (1,), (2, 17)]


@pytest.mark.parametrize("lengths", PACKED)
def test_layer_norm_glu_match_reference_bitwise(lengths):
    rng = np.random.default_rng(sum(lengths))
    n = sum(lengths)
    x = Tensor(_signed_zeros(rng, (6, n)), requires_grad=True)
    gain = Tensor(_signed_zeros(rng, (6, 1)), requires_grad=True)
    bias = Tensor(_signed_zeros(rng, (6, 1)), requires_grad=True)
    g = _signed_zeros(rng, (6, n))
    y = ad.layer_norm(x, gain, bias)
    want = _ref_layer_norm(x.data, gain.data, bias.data, g)
    assert _same_bits(y.data, want[0])
    for got, ref in zip(_grads_of(y, g, gain, bias, x), want[1:]):
        assert _same_bits(got, ref)

    y = ad.glu(x)
    want = _ref_glu(x.data, g[:3])
    assert _same_bits(y.data, want[0])
    assert _same_bits(_grads_of(y, g[:3], x)[0], want[1])


@pytest.mark.parametrize("lengths", PACKED)
@pytest.mark.parametrize("dilation, causal", [(1, False), (2, True), (4, False), (4, True)])
def test_conv1d_matches_padded_reference_bitwise(lengths, dilation, causal):
    rng = np.random.default_rng(100 * dilation + sum(lengths))
    segs = ad.segments(lengths)
    x = Tensor(_signed_zeros(rng, (3, segs.n)), requires_grad=True)
    kernel = Tensor(_signed_zeros(rng, (4, 5, 3)), requires_grad=True)
    g = _signed_zeros(rng, (4, segs.n))
    y = ad.conv1d(x, kernel, dilation, causal, segs)
    want = _ref_conv(x.data, kernel.data, dilation, causal, segs, g)
    assert _same_bits(y.data, want[0])
    gk, gx = _grads_of(y, g, kernel, x)
    assert _same_bits(gk, want[1])
    assert _same_bits(gx, want[2])


def _ref_adam(params, m, v, step, lr, beta1, beta2=0.999, eps=1e-8):
    """The per-parameter Adam update over separate arrays."""
    bc1 = 1.0 - beta1 ** step
    bc2 = 1.0 - beta2 ** step
    for name, p in params.items():
        g = p.grad if p.grad is not None else np.zeros_like(p.data)
        m.setdefault(name, np.zeros_like(p.data))
        v.setdefault(name, np.zeros_like(p.data))
        m[name] *= beta1
        m[name] += (1.0 - beta1) * g
        v[name] *= beta2
        v[name] += (1.0 - beta2) * g * g
        p.data -= lr * (m[name] / bc1) / (np.sqrt(v[name] / bc2) + eps)


def test_flat_adam_matches_per_parameter_update_bitwise(tmp_path, monkeypatch):
    # blocks of 7 elements make the sweep cross parameter boundaries mid-block
    monkeypatch.setattr(ad, "_ADAM_BLOCK", 7)
    rng = np.random.default_rng(90)
    shapes = {"w": (3, 4), "s": (), "k": (2, 3, 2), "none": (5,), "b": (4, 1)}
    init = {name: _signed_zeros(rng, shape) for name, shape in shapes.items()}
    flat = {name: Tensor(a.copy(), requires_grad=True) for name, a in init.items()}
    ref = {name: Tensor(a.copy(), requires_grad=True) for name, a in init.items()}
    state, m, v = AdamState(), {}, {}
    for step in range(1, 6):
        if step == 3:
            # a Tensor swapped in between steps is bound on the next step
            swapped = _signed_zeros(rng, shapes["k"])
            flat["k"] = Tensor(swapped.copy(), requires_grad=True)
            ref["k"] = Tensor(swapped.copy(), requires_grad=True)
        for name in shapes:
            g = None if name == "none" else _signed_zeros(rng, shapes[name])
            flat[name].grad, ref[name].grad = g, None if g is None else g.copy()
        ad.adam_step(flat, state, lr=0.01, beta1=0.9)
        _ref_adam(ref, m, v, step, lr=0.01, beta1=0.9)
        assert state.step == step
        for name in shapes:
            assert _same_bits(flat[name].data, ref[name].data)
            assert _same_bits(state.m[name], m[name]) and _same_bits(state.v[name], v[name])
        assert flat["none"].grad is None
        # parameters are views into one buffer
        store = flat["w"].data.base
        assert store is not None and all(p.data.base is store for p in flat.values())

    # the moments' views write the bytes per-parameter arrays would
    path, again = tmp_path / "flat.vtno", tmp_path / "again.vtno"
    save_trainer_state(path, 5, state, np.random.default_rng(0))
    per_param = AdamState()
    per_param.step, per_param.m, per_param.v = 5, m, v
    save_trainer_state(again, 5, per_param, np.random.default_rng(0))
    assert path.read_bytes() == again.read_bytes()
    _, loaded, _ = load_trainer_state(path)
    save_trainer_state(again, 5, loaded, np.random.default_rng(0))
    assert path.read_bytes() == again.read_bytes()

    # a loaded state takes the next step on fresh copies of the parameters
    copies = {name: Tensor(p.data.copy(), requires_grad=True) for name, p in flat.items()}
    for name in shapes:
        g = None if name == "none" else _signed_zeros(rng, shapes[name])
        copies[name].grad, ref[name].grad = g, None if g is None else g.copy()
    ad.adam_step(copies, loaded, lr=0.01, beta1=0.9)
    _ref_adam(ref, m, v, 6, lr=0.01, beta1=0.9)
    for name in shapes:
        assert _same_bits(copies[name].data, ref[name].data)


def test_adam_moments_must_match_parameters():
    p = {"w": Tensor(np.zeros((2, 2)), requires_grad=True)}
    for m in ({"w": np.zeros((2, 3))}, {"x": np.zeros((2, 2))}):
        state = AdamState()
        state.step, state.m, state.v = 1, m, dict(m)
        with pytest.raises(ShapeError, match="moments"):
            ad.adam_step(p, state, lr=0.1, beta1=0.9)
        assert state.step == 1


def _ref_attention(q, kv, k_row, n_heads, scale, qs, ks, causal, g_out, g_attn):
    """Attention and its softmax backward segment by segment, each step on
    one segment's own block; returns out, a and the gradients of q and kv
    (q and kv distinct)."""
    d = (kv.shape[0] - k_row) // 2
    dh = d // n_heads
    out, parts, gq, gkv = np.empty((d, qs.n)), [], np.zeros_like(q), np.zeros_like(kv)
    o = 0
    for q0, nq, k0, nk in zip(qs.starts, qs.lengths, ks.starts, ks.lengths):
        qc, kc = np.s_[q0:q0 + nq], np.s_[k0:k0 + nk]
        qh = q[:d, qc].reshape(n_heads, dh, nq)
        kh = kv[k_row:k_row + d, kc].reshape(n_heads, dh, nk)
        vh = kv[k_row + d:k_row + 2 * d, kc].reshape(n_heads, dh, nk)
        ap = np.matmul(kh.swapaxes(1, 2), qh)
        ap *= scale
        if causal:
            ap += causal_mask(max(nk, nq))[:nk, :nq]
        ap -= ap.max(axis=1, keepdims=True)
        np.exp(ap, out=ap)
        ap /= ap.sum(axis=1, keepdims=True)
        out[:, qc] = np.matmul(vh, ap).reshape(d, nq)
        parts.append(ap.ravel())
        gh = g_out[:, qc].reshape(n_heads, dh, -1)
        ga = np.matmul(vh.swapaxes(1, 2), gh) + g_attn[o:o + ap.size].reshape(ap.shape)
        gkv[k_row + d:k_row + 2 * d, kc] = np.matmul(gh, ap.swapaxes(1, 2)).reshape(d, -1)
        gz = ga - (ga * ap).sum(axis=1, keepdims=True)
        gz *= ap
        gz *= scale
        gq[:d, qc] = np.matmul(kh, gz).reshape(d, -1)
        gkv[k_row:k_row + d, kc] = np.matmul(qh, gz.swapaxes(1, 2)).reshape(d, -1)
        o += ap.size
    return out, np.concatenate(parts), gq, gkv


@pytest.mark.parametrize("causal", [False, True])
def test_attention_matches_per_segment_reference_bitwise(causal):
    rng = np.random.default_rng(66)
    q_lengths = (3, 1, 5, 2)
    k_lengths = q_lengths if causal else (4, 2, 1, 6)
    d, qs, ks, q, kv = _attention_case(rng, 2, q_lengths, k_lengths)
    q_t, kv_t = Tensor(q, requires_grad=True), Tensor(kv, requires_grad=True)
    out, attn = ad.attention(q_t, kv_t, 1, 2, 0.7, qs, ks, causal)
    g_out, g_attn = _signed_zeros(rng, out.shape), _signed_zeros(rng, attn.shape)
    ad.add(ad.sum_all(ad.mul(out, Tensor(g_out))),
           ad.sum_all(ad.mul(attn, Tensor(g_attn)))).backward()
    want = _ref_attention(q, kv, 1, 2, 0.7, qs, ks, causal, g_out, g_attn)
    for got, ref in zip((out.data, attn.data, q_t.grad, kv_t.grad), want):
        assert _same_bits(got, ref)


def test_weight_norm_matches_reference_bitwise():
    rng = np.random.default_rng(67)
    direction = Tensor(_signed_zeros(rng, (4, 3, 5)), requires_grad=True)
    direction.data[2] = 0.0                  # a zero-norm channel
    scale = Tensor(_signed_zeros(rng, (4,)), requires_grad=True)
    g = _signed_zeros(rng, (4, 3, 5))
    w = ad.weight_norm_apply(direction, scale)
    flat = direction.data.reshape(4, -1)
    norm = np.sqrt((flat * flat).sum(axis=1))
    denom = norm + 1e-12
    assert _same_bits(w.data, (scale.data / denom).reshape(4, 1, 1) * direction.data)
    dot = (g.reshape(4, -1) * flat).sum(axis=1)
    corr = (scale.data * dot / (denom * denom * np.where(norm > 0.0, norm, 1.0))).reshape(4, 1, 1)
    gs, gd = _grads_of(w, g, scale, direction)
    assert _same_bits(gs, dot / denom)
    assert _same_bits(gd, (scale.data / denom).reshape(4, 1, 1) * g - corr * direction.data)


@pytest.mark.parametrize("lengths", [(5,), (3, 1, 6, 2)])
def test_conv1d_row_blocks_are_the_stacked_input(lengths):
    """A conv over row blocks is the conv over their stack, bit for bit, and
    backpropagates into only the blocks that need a gradient."""
    rng = np.random.default_rng(68)
    segs = ad.segments(lengths)
    data = Tensor(_signed_zeros(rng, (5, segs.n)))
    spk = Tensor(_signed_zeros(rng, (2, segs.n)), requires_grad=True)
    kernel = Tensor(_signed_zeros(rng, (4, 3, 7)), requires_grad=True)
    g = _signed_zeros(rng, (4, segs.n))
    stacked = Tensor(np.concatenate([data.data, spk.data]), requires_grad=True)
    want = ad.conv1d(stacked, kernel, 2, True, segs)
    want_k, want_x = _grads_of(want, g, kernel, stacked)
    got = ad.conv1d([data, spk], kernel, 2, True, segs)
    assert _same_bits(got.data, want.data)
    got_k, got_spk = _grads_of(got, g, kernel, spk)
    assert _same_bits(got_k, want_k) and _same_bits(got_spk, want_x[5:])
    assert data.grad is None
    with pytest.raises(ShapeError):
        ad.conv1d([data, Tensor(np.zeros((2, segs.n + 1)))], kernel, segs=segs)
