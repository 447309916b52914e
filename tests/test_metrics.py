import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vtn.errors import MetricUndefinedError, ShapeError
from vtn.features import FeatureSequence, _warp, gen_synthetic_corpus, load_features, save_features
from vtn.metrics import (DTW_BLOCK_ELEMENTS, MCD_CONST, WarpPath, _local_costs, dtw,
                         evaluate_pair, lfc, ldr_deviation, mcd)


def in_order_costs(a, b):
    """Reference local costs from the dense (N_a, N_b, D) difference tensor:
    each adds its squared differences feature 0 first, then 1, and so on."""
    diff = a.T[:, None, :] - b.T[None, :, :]
    sq = diff * diff
    total = sq[:, :, 0].copy()
    for k in range(1, sq.shape[2]):
        total += sq[:, :, k]
    return np.sqrt(total)


def loop_dtw(a, b):
    """Reference DTW: the in-order local costs and a scalar double loop over
    the DP, with the tie-break order diag, a step, b step."""
    cost = in_order_costs(a, b)
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
    with pytest.raises(ShapeError):   # no feature rows
        dtw(np.zeros((0, 4)), np.zeros((0, 5)))


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
    assert cost == brute_force_dtw_cost(in_order_costs(a, b))


def test_dtw_brute_force_many_shapes():
    rng = np.random.default_rng(3)
    for _ in range(25):
        n_a = int(rng.integers(1, 9))
        n_b = int(rng.integers(1, 9))
        a = rng.normal(size=(3, n_a))
        b = rng.normal(size=(3, n_b))
        _, cost = dtw(a, b)
        assert cost == brute_force_dtw_cost(in_order_costs(a, b))


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
        if case % 4 == 3:   # frames contiguous, as read from a .vtnf file
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


def _multi_block_cases():
    """Pairs at the real MCC count whose local costs take several fill blocks
    of a few rows each, N_a not a multiple of the rows, with both sequences
    C-ordered, both frame-contiguous (Fortran-ordered) and one of each.

    Along a long path the accumulated cost absorbs a last-bit change in a
    local cost, so most cases copy a's frames into b (a monotone warp, zero
    cost along the path) and perturb one b frame aligned with the first, a
    middle or the last row of a: the cost is then that one local cost.
    """
    rng = np.random.default_rng(20)
    dim = 28
    for rows in (2, 3, 5):
        n_b = DTW_BLOCK_ELEMENTS // (rows * dim)
        assert DTW_BLOCK_ELEMENTS // (n_b * dim) == rows
        n_a = 3 * rows + 1
        pairs = [(rng.integers(-1, 2, size=(dim, n_a)).astype(float),   # equal predecessors
                  rng.integers(-1, 2, size=(dim, n_b)).astype(float)),
                 (rng.normal(size=(dim, n_a)), rng.normal(size=(dim, n_b)))]
        source = np.linspace(0, n_a - 1, n_b).round().astype(int)
        for i in (0, rows + 1, n_a - 1):
            for _ in range(6):   # a reordered sum changes about a third of the costs
                a = rng.normal(size=(dim, n_a))
                b = np.ascontiguousarray(a[:, source])
                b[:, rng.choice(np.flatnonzero(source == i))] += rng.normal(0, 0.1, size=dim)
                pairs.append((a, b))
        for a, b in pairs:
            yield a, b
            yield np.asfortranarray(a), np.asfortranarray(b)
            yield a, np.asfortranarray(b)


def test_dtw_multi_block_matches_loop_oracle_bitwise():
    for a, b in _multi_block_cases():
        path, cost = dtw(a, b)
        want_pairs, want_cost = loop_dtw(a, b)
        assert np.array_equal(path.pairs, want_pairs)
        assert cost == want_cost



def _taller(x, order):
    """x as the leading rows of a taller array, as ``align`` passes the MCCs."""
    return np.vstack([x, np.ones((3, x.shape[1]))]).copy(order=order)[:len(x)]


def _every_other(x):
    spaced = np.empty((len(x), 2 * x.shape[1]))
    spaced[:, ::2] = x
    return spaced[:, ::2]


LAYOUTS = {
    "C": np.ascontiguousarray,
    "frames contiguous": np.asfortranarray,
    "rows of a taller C array": lambda x: _taller(x, "C"),
    "rows of a taller frame-contiguous array": lambda x: _taller(x, "F"),
    "column step": _every_other,
    "reversed": lambda x: np.ascontiguousarray(x[:, ::-1])[:, ::-1],
}


def _local_cost_matrix(a, b):
    acc = np.full((a.shape[1] + 1, b.shape[1] + 1), np.inf)
    _local_costs(a, b, acc)
    assert np.isinf(acc[0]).all() and np.isinf(acc[:, 0]).all()
    return acc[1:, 1:]


@settings(derandomize=True, deadline=None, max_examples=200)
@given(dim=st.integers(1, 140), n_a=st.integers(1, 40), n_b=st.integers(1, 40),
       layout_a=st.sampled_from(sorted(LAYOUTS)), layout_b=st.sampled_from(sorted(LAYOUTS)),
       seed=st.integers(0, 2**32 - 1))
def test_local_costs_add_features_in_order_for_every_layout(dim, n_a, n_b, layout_a, layout_b,
                                                            seed):
    rng = np.random.default_rng(seed)
    # magnitudes spread over many binades, so a reordered sum changes the bits
    scale = np.exp(rng.normal(0, 3, size=(dim, 1)))
    a = rng.normal(size=(dim, n_a)) * scale
    b = rng.normal(size=(dim, n_b)) * scale
    want = in_order_costs(a, b)
    for layout in LAYOUTS.values():
        assert np.array_equal(_local_cost_matrix(layout(a), LAYOUTS[layout_b](b)), want)
        assert np.array_equal(_local_cost_matrix(LAYOUTS[layout_a](a), layout(b)), want)


def test_scores_do_not_depend_on_the_memory_layout(tmp_path):
    """Sequences held C-ordered and the same values read back from .vtnf
    files (frame-contiguous) align and score to the same bits."""
    rng = np.random.default_rng(22)
    n_mcc = 28
    n_b = DTW_BLOCK_ELEMENTS // (4 * n_mcc)   # 4 rows per fill block
    for case in range(4):
        n_a = int(rng.integers(61, 121))   # 16 to 30 fill blocks
        scale = np.exp(rng.normal(0, 2, size=(n_mcc + 3, 1)))   # many binades
        pair = []
        for n, speaker in ((n_a, "conv"), (n_b, "ref")):
            data = _smooth_seq(rng, n_mcc, n) * scale
            data[-1] = rng.random(n) < 0.8   # voiced/unvoiced
            # float32 values, so the .vtnf round trip is exact
            held = FeatureSequence(data.astype(np.float32).astype(np.float64), speaker)
            save_features(held, tmp_path / f"{case}-{speaker}.vtnf")
            loaded = load_features(tmp_path / f"{case}-{speaker}.vtnf")
            assert held.data.flags.c_contiguous and not loaded.data.flags.c_contiguous
            assert np.array_equal(loaded.data, held.data)
            pair.append((held, loaded))
        (conv, conv_loaded), (ref, ref_loaded) = pair
        want_path, want_cost = dtw(conv.data[:n_mcc], ref.data[:n_mcc])
        want_scores = evaluate_pair(conv, ref)
        for c, r in ((conv_loaded, ref_loaded), (conv, ref_loaded), (conv_loaded, ref)):
            path, cost = dtw(c.data[:n_mcc], r.data[:n_mcc])
            assert np.array_equal(path.pairs, want_path.pairs)
            assert cost == want_cost
            assert evaluate_pair(c, r) == want_scores


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
    # The (2001 x 2001) float64 cost matrix is 32.0 MB and the peak 33.0 MB;
    # a second dense matrix, even an int8 one of 4.0 MB, goes over the bound.
    assert peak < 35e6


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


def test_dtw_cost_overflow_rejected():
    a = np.array([[1e200, -1e200, 1e200]])
    b = np.array([[-1e200, 1e200]])
    with np.errstate(over="ignore"), pytest.raises(MetricUndefinedError):
        dtw(a, b)


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


def loop_ldr_deviation(path, window):
    """Reference local duration ratio: one Python step per window."""
    slopes = []
    for start in range(0, len(path) - window, window):
        a0, b0 = path.pairs[start]
        a1, b1 = path.pairs[start + window]
        if b1 > b0:
            slopes.append((a1 - a0) / (b1 - b0))
    if not slopes:
        raise MetricUndefinedError("no reference progress inside any window")
    return float(np.abs(np.asarray(slopes) - 1.0).mean() * 100.0)


def _random_path(rng, steps, moves):
    picks = rng.integers(0, len(moves), size=steps - 1)
    walk = np.concatenate([[[0, 0]], np.asarray(moves)[picks]]).cumsum(axis=0)
    return WarpPath(walk.astype(np.int64))


def test_ldr_matches_loop_oracle_bitwise():
    rng = np.random.default_rng(21)
    for case in range(200):
        steps = int(rng.integers(2, 120))
        window = int(rng.integers(1, 15))
        moves = [(1, 1), (1, 0), (0, 1)] if case % 4 else [(1, 0), (1, 0), (1, 1)]
        path = _random_path(rng, steps, moves)
        try:
            want = loop_ldr_deviation(path, window)
        except MetricUndefinedError:
            with pytest.raises(MetricUndefinedError):
                ldr_deviation(path, window)
            continue
        assert ldr_deviation(path, window) == want
    no_progress = _random_path(rng, 40, [(1, 0)])
    with pytest.raises(MetricUndefinedError):
        loop_ldr_deviation(no_progress, 10)
    with pytest.raises(MetricUndefinedError):
        ldr_deviation(no_progress, 10)


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
