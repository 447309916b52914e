import math

import numpy as np
import pytest

from vtn import autodiff as ad
from vtn import losses
from vtn.autodiff import Tensor
from vtn.errors import ShapeError
from vtn.losses import LossWeights, default_feature_weights, guided_weight_matrix, total_loss
from vtn.model import VtnConfig, VtnModel

from oracles import dal, main_loss, masked_softmax_columns


def scalar_main_loss(y, x_tgt, gamma, r):
    """Independent scalar-loop recomputation of the weighted L1 loss."""
    d, n1 = x_tgt.shape
    n = n1 - 1
    total = 0.0
    for col in range(n):
        for j in range(r):
            for i in range(len(gamma)):
                diff = y[j * len(gamma) + i, col] - x_tgt[j * len(gamma) + i, col + 1]
                total += gamma[i] / r * abs(diff)
    return total / n


def scalar_dal(attn, nu):
    n_src, n_tgt = attn[0][0].shape
    total = 0.0
    for layer in attn:
        for a in layer:
            for n in range(1, n_src + 1):
                for m in range(1, n_tgt + 1):
                    w = 1.0 - math.exp(-((n / n_src - m / n_tgt) ** 2) / (2 * nu * nu))
                    total += w * abs(a[n - 1, m - 1])
    return total / (n_src * n_tgt * len(attn) * len(attn[0]))


def test_default_weights():
    g = default_feature_weights(28)
    assert len(g) == 31
    assert np.allclose(g[:28], 1.0 / 28)
    assert g[28] == 0.1
    assert g[29] == g[30] == 1.0 / 50


def test_main_loss_exact_fit_is_zero():
    rng = np.random.default_rng(0)
    x = np.concatenate([np.zeros((4, 1)), rng.normal(size=(4, 5))], axis=1)
    # output column n predicts target column n+1
    y = np.concatenate([x[:, 1:], np.zeros((4, 1))], axis=1)
    loss = main_loss(Tensor(y), x, np.full(4, 0.25), r=1)
    assert loss.item() == 0.0


def test_main_loss_single_feature_arithmetic():
    # one feature, gamma=1, one step, |y - x| = 2 -> loss 2
    x = np.array([[0.0, 3.0]])
    y = np.array([[1.0, 9.9]])
    loss = main_loss(Tensor(y), x, np.ones(1), r=1)
    assert loss.item() == 2.0


def test_main_loss_scalar_oracle():
    rng = np.random.default_rng(1)
    gamma = default_feature_weights(2)  # 5 raw features
    for _ in range(20):
        r = int(rng.integers(1, 4))
        n = int(rng.integers(1, 9))
        d = 5 * r
        x = np.concatenate([np.zeros((d, 1)), rng.normal(size=(d, n))], axis=1)
        y = rng.normal(size=(d, n + 1))
        got = main_loss(Tensor(y), x, gamma, r).item()
        want = scalar_main_loss(y, x, gamma, r)
        assert abs(got - want) < 1e-12


def test_main_loss_shape_mismatch():
    with pytest.raises(ShapeError):
        main_loss(Tensor(np.zeros((4, 3))), np.zeros((4, 4)), np.ones(4), 1)


def test_guided_matrix_diagonal_zero():
    g = guided_weight_matrix(6, 6, 0.3)
    assert np.array_equal(np.diag(g), np.zeros(6))
    g2 = guided_weight_matrix(4, 8, 0.3)
    for n in range(1, 5):
        assert g2[n - 1, 2 * n - 1] == 0.0  # n/4 == 2n/8


def test_guided_matrix_cell_value():
    g = guided_weight_matrix(4, 4, 0.3)
    assert abs(g[3, 0] - (1.0 - math.exp(-(0.75 ** 2) / 0.18))) < 1e-15


def test_guided_matrix_range_and_symmetry():
    g = guided_weight_matrix(5, 9, 0.3)
    assert (g >= 0.0).all() and (g < 1.0).all()
    assert np.array_equal(g.T, guided_weight_matrix(9, 5, 0.3))


def test_guided_matrix_corner_limit():
    g = guided_weight_matrix(50, 5000, 0.3)
    assert abs(g[49, 0] - (1.0 - math.exp(-1.0 / 0.18))) < 1e-3


def test_dal_uniform_attention():
    n_src, n_tgt = 6, 4
    a = [[Tensor(np.full((n_src, n_tgt), 1.0 / n_src)) for _ in range(2)]]
    g = guided_weight_matrix(n_src, n_tgt, 0.3)
    got = dal(a, 0.3).item()
    assert abs(got - g.mean() / n_src) < 1e-15


def test_dal_large_nu_vanishes():
    rng = np.random.default_rng(2)
    a = rng.random((5, 7))
    a /= a.sum(axis=0)
    assert dal([[Tensor(a)]], 1e6).item() < 1e-10


def test_dal_scalar_oracle():
    rng = np.random.default_rng(3)
    for _ in range(20):
        n_src = int(rng.integers(1, 8))
        n_tgt = int(rng.integers(1, 8))
        n_l = int(rng.integers(1, 3))
        n_h = int(rng.integers(1, 3))
        attn = [[rng.random((n_src, n_tgt)) for _ in range(n_h)] for _ in range(n_l)]
        got = dal([[Tensor(a) for a in layer] for layer in attn], 0.3).item()
        want = scalar_dal(attn, 0.3)
        assert abs(got - want) < 1e-12


def test_loss_gradchecks():
    rng = np.random.default_rng(4)
    gamma = np.full(3, 1.0 / 3)
    x = np.concatenate([np.zeros((3, 1)), rng.normal(size=(3, 4))], axis=1)
    y = Tensor(rng.normal(size=(3, 5)))
    err = ad.grad_check(lambda t: main_loss(t, x, gamma, 1), y)
    assert err < 1e-4
    logits = Tensor(rng.normal(size=(4, 5)))
    err = ad.grad_check(
        lambda t: dal([[masked_softmax_columns(t, np.zeros((4, 5)))]], 0.3), logits)
    assert err < 1e-4


def _tiny_model():
    cfg = VtnConfig(L=1, H=2, d=8, d_ffn=16, n_mcc=1, r=1, e=4,
                    n_speakers=2, dropout_rate=0.0)
    return VtnModel.init(cfg, seed=5, speakers=["a", "b"])


def _item(rng, model, k, kp, n_src=5, n_tgt=4):
    d = model.config.D
    src = rng.normal(size=(d, n_src))
    tgt0 = np.concatenate([np.zeros((d, 1)), rng.normal(size=(d, n_tgt))], axis=1)
    return (k, kp, src, tgt0)


def test_total_loss_cross_only_no_weights():
    model = _tiny_model()
    rng = np.random.default_rng(6)
    weights = LossWeights(lambda_dal=0.0, lambda_iml=0.0,
                          gamma=default_feature_weights(1))
    batch = [_item(rng, model, 0, 1), _item(rng, model, 1, 0)]
    total, bd = total_loss(model, batch, weights)
    mains = []
    for k, kp, src, tgt0 in batch:
        y, _ = model.forward(src, tgt0, k=k, kp=kp)
        mains.append(main_loss(y, tgt0, weights.gamma, 1).item())
    assert abs(total.item() - np.mean(mains)) < 1e-12
    assert abs(bd["main"] - np.mean(mains)) < 1e-12


def test_total_loss_identity_only():
    model = _tiny_model()
    rng = np.random.default_rng(7)
    weights = LossWeights(lambda_dal=2000.0, lambda_iml=1.0,
                          gamma=default_feature_weights(1))
    item = _item(rng, model, 0, 0)
    total, bd = total_loss(model, [item], weights)
    k, kp, src, tgt0 = item
    y, attn = model.forward(src, tgt0, k=k, kp=kp)
    comp = (main_loss(y, tgt0, weights.gamma, 1).item()
            + 2000.0 * dal(attn, weights.nu).item())
    assert abs(total.item() - comp) < 1e-12
    assert bd["iml"] == pytest.approx(comp, abs=1e-12)


def test_total_loss_recomposition_oracle():
    model = _tiny_model()
    rng = np.random.default_rng(8)
    weights = LossWeights(lambda_dal=11.0, lambda_iml=0.7,
                          gamma=default_feature_weights(1))
    cross = [_item(rng, model, 0, 1), _item(rng, model, 1, 0)]
    ident = [_item(rng, model, 0, 0), _item(rng, model, 1, 1)]
    total, bd = total_loss(model, cross + ident, weights)

    def composite(items):
        vals = []
        for k, kp, src, tgt0 in items:
            y, attn = model.forward(src, tgt0, k=k, kp=kp)
            vals.append(main_loss(y, tgt0, weights.gamma, 1).item()
                        + 11.0 * dal(attn, weights.nu).item())
        return np.mean(vals)

    want = composite(cross) + 0.7 * composite(ident)
    assert abs(total.item() - want) < 1e-12


def test_total_loss_empty_batch():
    with pytest.raises(ShapeError):
        total_loss(_tiny_model(), [], LossWeights(gamma=default_feature_weights(1)))


PACK_CONFIGS = [dict(), dict(ln_placement="post"), dict(realtime=True), dict(mode="any_to_many"),
                dict(final_ln=False), dict(mode="one_to_one"), dict(L=3, H=4)]


def _pack_model(dropout_rate=0.0, **kw):
    cfg = VtnConfig(**{**dict(L=2, H=2, d=8, d_ffn=16, n_mcc=1, r=1, e=4, n_speakers=3,
                              dropout_rate=dropout_rate), **kw})
    return VtnModel.init(cfg, seed=31, speakers=["a", "b", "c"])


def _ragged_batch(rng, model):
    """Cross pairs then identity pairs, of different lengths, one of 1 frame."""
    speakers = [(0, 1), (2, 0), (1, 2), (0, 0), (1, 1), (2, 2)]
    sizes = [(5, 4), (1, 1), (7, 3), (3, 6), (6, 2), (4, 4)]
    return [_item(rng, model, k, kp, n_src, n_tgt)
            for (k, kp), (n_src, n_tgt) in zip(speakers, sizes)]


def _per_pair_total(model, batch, weights, training=False, rng=None):
    """The loss as the sum of one model.forward + main_loss + dal per pair."""
    cross = [item for item in batch if item[0] != item[1]]
    ident = [item for item in batch if item[0] == item[1]]
    use_iml = ident and model.config.mode != "one_to_one" and weights.lambda_iml != 0.0
    total = 0.0
    for items, w in ((cross, 1.0), (ident if use_iml else [], weights.lambda_iml)):
        for k, kp, src, tgt0 in items:
            y, attn = model.forward(src, tgt0, k=k, kp=kp, training=training, rng=rng)
            comp = (main_loss(y, tgt0, weights.gamma, model.config.r).item()
                    + weights.lambda_dal * dal(attn, weights.nu).item())
            total += w * comp / len(items)
    return total


@pytest.mark.parametrize("extra", PACK_CONFIGS)
def test_packed_total_loss_equals_per_pair_forwards(extra):
    model = _pack_model(**extra)
    weights = LossWeights(lambda_dal=30.0, lambda_iml=0.6, gamma=default_feature_weights(1))
    batch = _ragged_batch(np.random.default_rng(32), model)
    no_iml = LossWeights(lambda_dal=30.0, lambda_iml=0.0, gamma=default_feature_weights(1))
    for part, w in [(batch, weights), (batch[:3], weights), (batch[3:], weights),
                    (batch, no_iml), (batch[3:], no_iml)]:
        identity_only = all(k == kp for k, kp, _, _ in part)
        if identity_only and (w.lambda_iml == 0.0 or model.config.mode == "one_to_one"):
            with pytest.raises(ShapeError):
                total_loss(model, part, w)
            continue
        got = total_loss(model, part, w)[0].item()
        want = _per_pair_total(model, part, w)
        assert abs(got - want) <= 1e-12 * abs(want)


def test_packed_pairs_are_isolated():
    model = _pack_model()
    batch = _ragged_batch(np.random.default_rng(33), model)
    y, attn, src_segs, segs = model.forward_packed(batch)
    i = 2     # perturb the third pair's source and target
    k, kp, src, tgt0 = batch[i]
    moved = list(batch)
    moved[i] = (k, kp, src + 5.0, np.concatenate([tgt0[:, :1], tgt0[:, 1:] - 3.0], axis=1))
    y2, attn2, _, _ = model.forward_packed(moved)
    cols = np.cumsum(segs.lengths) - segs.lengths
    mine = np.s_[cols[i]:cols[i] + segs.lengths[i]]
    assert not np.array_equal(y2.data[:, mine], y.data[:, mine])
    assert np.array_equal(np.delete(y2.data, mine, axis=1), np.delete(y.data, mine, axis=1))
    sizes = model.config.H * np.asarray(src_segs.lengths) * np.asarray(segs.lengths)
    starts = np.cumsum(sizes) - sizes
    block = np.s_[starts[i]:starts[i] + sizes[i]]    # pair i's attention
    for a, a2 in zip(attn, attn2):
        assert not np.array_equal(a2.data[block], a.data[block])
        assert np.array_equal(np.delete(a2.data, block), np.delete(a.data, block))


@pytest.mark.parametrize("extra", [dict(), dict(L=3, H=4)])
def test_ragged_dal_equals_per_pair_dal(extra):
    model = _pack_model(**extra)
    batch = _ragged_batch(np.random.default_rng(37), model)
    _, attn, src_segs, segs = model.forward_packed(batch)
    got, per_layer = losses.pair_dal([a.data for a in attn], src_segs.lengths, segs.lengths,
                                     model.config.H, 0.3)
    assert len(per_layer) == model.config.L
    for i, (k, kp, src, tgt0) in enumerate(batch):
        attn_set = model.forward(src, tgt0, k=k, kp=kp)[1]
        want = dal(attn_set, 0.3).item()
        assert abs(got[i] - want) <= 1e-12 * abs(want)
        for layer, heads in zip(per_layer, attn_set):
            want = dal([heads], 0.3).item()
            assert abs(layer[i] - want) <= 1e-12 * abs(want)


def test_packed_training_draws_per_pair_dropout():
    model = _pack_model(dropout_rate=0.3)
    weights = LossWeights(lambda_dal=30.0, lambda_iml=0.6, gamma=default_feature_weights(1))
    batch = _ragged_batch(np.random.default_rng(34), model)
    # identity pairs listed first: the packed pass still draws cross pairs first
    batch = batch[3:] + batch[:3]
    packed_rng, pair_rng = np.random.default_rng(35), np.random.default_rng(35)
    got = total_loss(model, batch, weights, training=True, rng=packed_rng)[0].item()
    cross = [item for item in batch if item[0] != item[1]]
    ident = [item for item in batch if item[0] == item[1]]
    want = _per_pair_total(model, cross + ident, weights, training=True, rng=pair_rng)
    assert abs(got - want) <= 1e-12 * abs(want)
    assert packed_rng.random() == pair_rng.random()


def test_packed_breakdown_terms():
    model = _pack_model()
    weights = LossWeights(lambda_dal=30.0, lambda_iml=0.6, gamma=default_feature_weights(1))
    batch = _ragged_batch(np.random.default_rng(36), model)
    total, bd = total_loss(model, batch, weights)
    mains, dals, comps, layer_dals = [], [], [], []
    for k, kp, src, tgt0 in batch:
        y, attn = model.forward(src, tgt0, k=k, kp=kp)
        mains.append(main_loss(y, tgt0, weights.gamma, 1).item())
        dals.append(dal(attn, weights.nu).item())
        comps.append(mains[-1] + 30.0 * dals[-1])
        layer_dals.append([dal([layer], weights.nu).item() for layer in attn])
    assert bd["main"] == pytest.approx(np.mean(mains[:3]), rel=1e-12)
    assert bd["dal"] == pytest.approx(np.mean(dals[:3]), rel=1e-12)
    assert bd["iml"] == pytest.approx(np.mean(comps[3:]), rel=1e-12)
    assert bd["total"] == total.item()
    # each decoder layer's DAL over the cross pairs; their mean is the dal
    assert bd["dal_layers"] == pytest.approx(np.mean(layer_dals[:3], axis=0), rel=1e-12)
    assert np.mean(bd["dal_layers"]) == pytest.approx(bd["dal"], rel=1e-12)
