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


def test_dropout_identity_cases():
    x = Tensor(np.arange(6, dtype=float).reshape(2, 3))
    assert ad.dropout(x, 0.0, True, np.random.default_rng(0)) is x
    assert ad.dropout(x, 0.5, False, None) is x


def test_dropout_zero_fraction():
    rng = np.random.default_rng(9)
    x = Tensor(np.ones((100, 1000)))
    y = ad.dropout(x, 0.1, True, rng)
    frac = (y.data == 0.0).mean()
    assert abs(frac - 0.1) < 0.01
    survivors = y.data[y.data != 0.0]
    assert np.allclose(survivors, 1.0 / 0.9)


def test_dropout_requires_rng():
    with pytest.raises(ValueError):
        ad.dropout(Tensor(np.ones((2, 2))), 0.1, True, None)


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


def test_column_exact_matmul_is_per_column_support_gemv():
    # each column is a gemv of the gathered support, whether the column is
    # dense or has zeros, and whatever its neighbours are
    rng = np.random.default_rng(13)
    a = rng.normal(size=(7, 9))
    b = rng.normal(size=(9, 6))
    b[4:, 1] = 0.0      # trailing zeros, like a causal attention column
    b[::2, 3] = 0.0
    b[:, 5] = 0.0
    with ad.column_exact():
        out = ad.matmul(Tensor(a), Tensor(b)).data
    for j in range(6):
        nz = np.flatnonzero(b[:, j])
        want = a[:, nz] @ b[nz, j] if len(nz) else np.zeros(7)
        assert np.array_equal(out[:, j], want)


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
                ad.masked_softmax_columns(x, np.zeros((3, 6)))]

    with ad.column_exact():
        exact = ops()
    for out in exact:
        assert not out.requires_grad and out._parents == () and out._backward is None
    for out in ops():
        assert out.requires_grad and out._parents and out._backward is not None


def test_column_exact_prefix_stability():
    # the core decoding property: results for column j never change when
    # more columns are appended, for matmul / layer_norm / masked softmax
    rng = np.random.default_rng(12)
    a = rng.normal(size=(8, 8))
    b = rng.normal(size=(8, 12))
    gain, bias = Tensor(np.ones((8, 1))), Tensor(np.zeros((8, 1)))
    with ad.column_exact():
        full_mm = ad.matmul(Tensor(a), Tensor(b)).data
        full_ln = ad.layer_norm(Tensor(b), gain, bias).data
        full_sm = ad.masked_softmax_columns(Tensor(b), np.zeros((8, 12))).data
        for w in range(1, 12):
            assert np.array_equal(ad.matmul(Tensor(a), Tensor(b[:, :w])).data,
                                  full_mm[:, :w])
            assert np.array_equal(ad.layer_norm(Tensor(b[:, :w]), gain, bias).data,
                                  full_ln[:, :w])
            assert np.array_equal(
                ad.masked_softmax_columns(Tensor(b[:, :w]), np.zeros((8, w))).data,
                full_sm[:, :w])
