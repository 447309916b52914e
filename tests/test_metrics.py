import math
import tracemalloc

import numpy as np
import pytest

from vtn.errors import MetricUndefinedError, ShapeError
from vtn.features import FeatureSequence, _warp, gen_synthetic_corpus
from vtn.metrics import MCD_CONST, dtw, evaluate_pair, lfc, ldr_deviation, mcd


def loop_dtw(a, b):
    """Reference DTW: the dense (N_a, N_b, D) difference tensor and a scalar
    double loop over the DP, with the tie-break order diag, a step, b step."""
    diff = a.T[:, None, :] - b.T[None, :, :]
    cost = np.sqrt((diff * diff).sum(axis=2))
    n_a, n_b = cost.shape
    acc = np.full((n_a, n_b), np.inf)
    move = np.zeros((n_a, n_b), dtype=np.int8)
    acc[0, 0] = cost[0, 0]
    for i in range(n_a):
        for j in range(n_b):
            if i == 0 and j == 0:
                continue
            best = np.inf
            m = 0
            if i > 0 and j > 0 and acc[i - 1, j - 1] <= best:
                best, m = acc[i - 1, j - 1], 0
            if i > 0 and acc[i - 1, j] < best:
                best, m = acc[i - 1, j], 1
            if j > 0 and acc[i, j - 1] < best:
                best, m = acc[i, j - 1], 2
            acc[i, j] = best + cost[i, j]
            move[i, j] = m
    pairs = [(n_a - 1, n_b - 1)]
    i, j = n_a - 1, n_b - 1
    while (i, j) != (0, 0):
        m = move[i, j]
        if m == 0:
            i, j = i - 1, j - 1
        elif m == 1:
            i -= 1
        else:
            j -= 1
        pairs.append((i, j))
    pairs.reverse()
    return np.asarray(pairs, dtype=np.int64), float(acc[-1, -1])


def brute_force_dtw_cost(cost):
    """Exhaustive enumeration of every monotone path (no DP shortcuts).

    Costs accumulate front-to-back along each path, the same left-fold
    order the implementation uses, so the minima agree bit-for-bit.
    """
    n_a, n_b = cost.shape
    best = [np.inf]

    def walk(i, j, acc):
        acc = acc + cost[i, j]
        if i == n_a - 1 and j == n_b - 1:
            if acc < best[0]:
                best[0] = acc
            return
        if i + 1 < n_a and j + 1 < n_b:
            walk(i + 1, j + 1, acc)
        if i + 1 < n_a:
            walk(i + 1, j, acc)
        if j + 1 < n_b:
            walk(i, j + 1, acc)

    walk(0, 0, 0.0)
    return best[0]


def _smooth_seq(rng, n_mcc, n):
    data = np.cumsum(rng.normal(0, 0.3, size=(n_mcc + 3, n)), axis=1)
    data[-1] = 1.0
    return data


def _fseq(data, speaker="a"):
    return FeatureSequence(np.asarray(data, dtype=float), speaker)


def test_dtw_identical_is_diagonal():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(4, 7))
    path, cost = dtw(a, a)
    assert cost == 0.0
    assert np.array_equal(path.pairs, np.stack([np.arange(7), np.arange(7)], axis=1))


def test_dtw_empty_rejected():
    with pytest.raises(ShapeError):
        dtw(np.zeros((3, 0)), np.zeros((3, 4)))
    with pytest.raises(ShapeError):
        dtw(np.zeros((3, 4)), np.zeros((2, 4)))


def test_dtw_duplicated_frames_slope():
    rng = np.random.default_rng(1)
    b = np.cumsum(rng.normal(size=(3, 12)), axis=1)
    a = np.repeat(b, 2, axis=1)   # reference at half speed
    path, cost = dtw(b, a)
    assert cost == 0.0
    slope = path.pairs[-1, 0] / path.pairs[-1, 1]
    assert abs(slope - 0.5) < 0.05


def test_dtw_brute_force_random_case():
    rng = np.random.default_rng(2)
    a = rng.normal(size=(6, 8))
    b = rng.normal(size=(6, 8))
    _, cost = dtw(a, b)
    diff = a.T[:, None, :] - b.T[None, :, :]
    local = np.sqrt((diff * diff).sum(axis=2))
    assert cost == brute_force_dtw_cost(local)


def test_dtw_brute_force_many_shapes():
    rng = np.random.default_rng(3)
    for _ in range(25):
        n_a = int(rng.integers(1, 9))
        n_b = int(rng.integers(1, 9))
        a = rng.normal(size=(3, n_a))
        b = rng.normal(size=(3, n_b))
        _, cost = dtw(a, b)
        diff = a.T[:, None, :] - b.T[None, :, :]
        local = np.sqrt((diff * diff).sum(axis=2))
        assert cost == brute_force_dtw_cost(local)


def _oracle_cases():
    rng = np.random.default_rng(18)
    shapes = [(1, 1), (1, 17), (23, 1), (1, 40), (40, 1)]
    shapes += [tuple(int(n) for n in rng.integers(1, 41, size=2)) for _ in range(355)]
    for case, (n_a, n_b) in enumerate(shapes):
        dim = case % 30 + 1
        if case % 3 == 0:   # small integers: equal predecessors are common
            a = rng.integers(-2, 3, size=(dim, n_a)).astype(float)
            b = rng.integers(-2, 3, size=(dim, n_b)).astype(float)
        else:
            a = rng.normal(size=(dim, n_a))
            b = rng.normal(size=(dim, n_b))
        if case % 4 == 3:   # frames contiguous: the sums over D run pairwise
            a, b = np.asfortranarray(a), np.asfortranarray(b)
        yield a, b


def test_dtw_matches_loop_oracle_bitwise():
    moves = set()
    for a, b in _oracle_cases():
        path, cost = dtw(a, b)
        want_pairs, want_cost = loop_dtw(a, b)
        assert np.array_equal(path.pairs, want_pairs)
        assert cost == want_cost
        moves.update(map(tuple, np.diff(want_pairs, axis=0)))
    assert moves == {(1, 1), (1, 0), (0, 1)}


def test_dtw_tie_break_branches():
    # the (1, 1) step wins a three-way tie
    path, _ = dtw(np.zeros((1, 2)), np.zeros((1, 2)))
    assert np.array_equal(path.pairs, [[0, 0], [1, 1]])
    # at (2, 2) the a step from (1, 2) ties the b step from (2, 1) and wins
    path, cost = dtw(np.array([[2.0, 0.0, 2.0]]), np.array([[1.0, 2.0, 1.0]]))
    assert cost == 3.0
    assert np.array_equal(path.pairs, [[0, 0], [0, 1], [1, 2], [2, 2]])


def test_dtw_long_pair_memory():
    rng = np.random.default_rng(19)
    a = rng.normal(size=(28, 2000))
    b = rng.normal(size=(28, 2000))
    tracemalloc.start()
    try:
        dtw(a, b)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 100e6


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_dtw_non_finite_rejected(bad):
    a = np.zeros((3, 5))
    b = np.ones((3, 4))
    a_bad = a.copy()
    a_bad[1, 2] = bad
    b_bad = b.copy()
    b_bad[0, 3] = bad
    with pytest.raises(MetricUndefinedError):
        dtw(a_bad, b)
    with pytest.raises(MetricUndefinedError):
        dtw(a, b_bad)


def test_dtw_path_monotone_unit_steps():
    rng = np.random.default_rng(4)
    path, _ = dtw(rng.normal(size=(3, 10)), rng.normal(size=(3, 14)))
    steps = np.diff(path.pairs, axis=0)
    assert (steps >= 0).all()
    assert (steps <= 1).all()
    assert (steps.sum(axis=1) >= 1).all()


def test_mcd_self_is_zero():
    rng = np.random.default_rng(5)
    seq = _fseq(_smooth_seq(rng, 5, 20))
    assert mcd(seq, seq) == 0.0


def test_mcd_single_coefficient_delta():
    base = np.zeros((7, 1))   # 4 MCCs + 3 prosodic rows
    base[-1] = 1.0
    other = base.copy()
    delta = 0.37
    other[2, 0] += delta
    got = mcd(_fseq(other), _fseq(base))
    assert abs(got - MCD_CONST * math.sqrt(2.0) * delta) < 1e-12


def test_mcd_scalar_recomputation():
    rng = np.random.default_rng(6)
    a = _fseq(_smooth_seq(rng, 6, 12))
    b = _fseq(_smooth_seq(rng, 6, 15))
    from vtn.metrics import align
    path = align(a, b)
    got = mcd(a, b, path)
    vals = []
    for i, j in path.pairs:
        s = 0.0
        for c in range(6):
            s += (a.data[c, i] - b.data[c, j]) ** 2
        vals.append((10.0 / math.log(10.0)) * math.sqrt(2.0 * s))
    assert abs(got - np.mean(vals)) < 1e-10


def test_lfc_identical_is_one():
    rng = np.random.default_rng(7)
    seq = _fseq(_smooth_seq(rng, 5, 25))
    assert lfc(seq, seq) == pytest.approx(1.0, abs=1e-12)


def test_lfc_negated_contour():
    rng = np.random.default_rng(8)
    data = _smooth_seq(rng, 3, 20)
    a = _fseq(data)
    b = data.copy()
    f0 = data[3]
    b[3] = 2 * f0.mean() - f0   # reflect around the mean
    assert lfc(_fseq(b), a) == pytest.approx(-1.0, abs=1e-9)


def test_lfc_affine_invariance():
    rng = np.random.default_rng(9)
    data = _smooth_seq(rng, 3, 20)
    b = data.copy()
    b[3] = 2.0 * data[3] + 3.0
    assert lfc(_fseq(b), _fseq(data)) == pytest.approx(1.0, abs=1e-9)


def test_lfc_needs_jointly_voiced():
    rng = np.random.default_rng(10)
    data = _smooth_seq(rng, 3, 10)
    data[-1] = 0.0
    with pytest.raises(MetricUndefinedError):
        lfc(_fseq(data), _fseq(data))


def test_ldr_diagonal_zero():
    rng = np.random.default_rng(11)
    seq = _fseq(_smooth_seq(rng, 4, 40))
    from vtn.metrics import align
    assert ldr_deviation(align(seq, seq)) == 0.0


def test_ldr_double_speed_fifty_percent():
    rng = np.random.default_rng(12)
    ref = _smooth_seq(rng, 6, 160)
    conv = ref[:, ::2]    # uniformly twice as fast
    path, _ = dtw(conv[:6], ref[:6])
    dev = ldr_deviation(path)
    assert abs(dev - 50.0) < 2.0


def test_ldr_known_warp_ratio():
    rng = np.random.default_rng(13)
    ref = _smooth_seq(rng, 6, 140)
    conv = _warp(ref, 1.25)
    path, _ = dtw(conv[:6], ref[:6])
    dev = ldr_deviation(path)
    assert abs(dev - 25.0) < 2.0


def test_ldr_short_path_rejected():
    rng = np.random.default_rng(14)
    seq = _fseq(_smooth_seq(rng, 3, 5))
    from vtn.metrics import align
    with pytest.raises(MetricUndefinedError):
        ldr_deviation(align(seq, seq))


def test_identical_pair_fixed_points():
    rng = np.random.default_rng(15)
    seq = _fseq(_smooth_seq(rng, 5, 40))
    result = evaluate_pair(seq, seq)
    assert result["mcd_db"] == 0.0
    assert result["lfc"] == pytest.approx(1.0, abs=1e-12)
    assert result["ldr_pct"] == 0.0


def test_trailing_silence_keeps_identity_fixed_points():
    rng = np.random.default_rng(16)
    data = _smooth_seq(rng, 5, 30)
    silence = np.zeros((8, 10))
    padded = np.concatenate([data, silence], axis=1)
    result = evaluate_pair(_fseq(padded), _fseq(padded))
    assert result["mcd_db"] == 0.0
    assert result["ldr_pct"] == 0.0


def test_evaluate_pair_reports_none_for_undefined():
    rng = np.random.default_rng(17)
    a = _smooth_seq(rng, 3, 20)
    b = _smooth_seq(rng, 3, 20)
    a[-1] = 0.0   # no voiced frames at all
    result = evaluate_pair(_fseq(a), _fseq(b))
    assert result["lfc"] is None
    assert result["mcd_db"] is not None
