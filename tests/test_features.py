import numpy as np
import pytest

from vtn import features as ft
from vtn.errors import AdjustmentError, FormatError, StatsError
from vtn.features import (Corpus, FeatureSequence, SpeakerStats,
                          adjust_output_stats, compute_stats, denormalize,
                          gen_synthetic_corpus, load_corpus, load_features,
                          load_stats, normalize, save_corpus, save_features,
                          save_stats, stack, unstack)
from vtn.metrics import dtw


def _seq(data, speaker="a"):
    return FeatureSequence(np.asarray(data, dtype=float), speaker)


def _one_speaker_corpus(seqs, speaker="a"):
    # pad out a second speaker so the Corpus invariant holds
    other = [FeatureSequence(s.data.copy(), "b") for s in seqs]
    return Corpus(speakers=[speaker, "b"],
                  utterances={speaker: seqs, "b": other})


def test_stats_hand_case():
    # two voiced frames with values 0 and 2 -> mu 1, sigma 1 (population)
    data = np.zeros((4, 2))
    data[0] = [0.0, 2.0]
    data[1] = [1.0, 3.0]
    data[3] = 1.0  # voiced
    corpus = _one_speaker_corpus([_seq(data)])
    stats = compute_stats(corpus)
    assert stats.mean["a"][0] == 1.0
    assert stats.std["a"][0] == 1.0


def test_stats_zero_variance_rejected():
    data = np.zeros((4, 3))
    data[0] = 7.0  # constant feature
    data[1] = [1.0, 2.0, 3.0]
    data[3] = 1.0
    with pytest.raises(StatsError):
        compute_stats(_one_speaker_corpus([_seq(data)]))


def test_stats_no_voiced_frames_rejected():
    data = np.random.default_rng(0).normal(size=(4, 5))
    data[3] = 0.0
    with pytest.raises(StatsError):
        compute_stats(_one_speaker_corpus([_seq(data)]))


def test_stats_brute_force_oracle():
    corpus = gen_synthetic_corpus(2, 5, seed=7)
    stats = compute_stats(corpus)
    for spk in corpus.speakers:
        values = []
        for seq in corpus.utterances[spk]:
            for n in range(seq.n_frames):
                if seq.data[-1, n] >= 0.5:
                    values.append(seq.data[:seq.n_mcc + 1, n])
        values = np.array(values)
        assert np.array_equal(stats.mean[spk], values.mean(axis=0))
        assert np.array_equal(stats.std[spk], values.std(axis=0))


def test_stats_ignore_unvoiced_frames():
    corpus = gen_synthetic_corpus(2, 2, seed=3)
    stats = compute_stats(corpus)
    poisoned = {
        spk: [FeatureSequence(s.data.copy(), spk) for s in seqs]
        for spk, seqs in corpus.utterances.items()
    }
    for seqs in poisoned.values():
        for s in seqs:
            unvoiced = ~s.voiced
            s.data[:s.n_mcc + 1, unvoiced] = 1e6
    stats2 = compute_stats(Corpus(speakers=corpus.speakers, utterances=poisoned))
    for spk in corpus.speakers:
        assert np.array_equal(stats.mean[spk], stats2.mean[spk])
        assert np.array_equal(stats.std[spk], stats2.std[spk])


def test_normalize_arithmetic():
    stats = SpeakerStats(n_mcc=1, speakers=["a"],
                         mean={"a": np.array([1.0, 0.0])},
                         std={"a": np.array([2.0, 1.0])})
    seq = _seq([[5.0], [0.0], [0.0], [1.0]])
    out = normalize(seq, stats)
    assert out.data[0, 0] == 2.0
    # aperiodicity and V/UV untouched
    assert np.array_equal(out.data[2:], seq.data[2:])


def test_normalize_round_trip():
    corpus = gen_synthetic_corpus(2, 3, seed=1)
    stats = compute_stats(corpus)
    seq = corpus.utterances["spk0"][0]
    back = denormalize(normalize(seq, stats), stats)
    assert np.abs(back.data - seq.data).max() < 1e-12


def test_normalize_at_mean_gives_zeros():
    stats = SpeakerStats(n_mcc=1, speakers=["a"],
                         mean={"a": np.array([3.0, 5.0])},
                         std={"a": np.array([2.0, 4.0])})
    seq = _seq(np.vstack([np.full((1, 4), 3.0), np.full((1, 4), 5.0),
                          np.zeros((1, 4)), np.ones((1, 4))]))
    out = normalize(seq, stats)
    assert np.array_equal(out.data[:2], np.zeros((2, 4)))


def test_normalize_unknown_speaker():
    stats = SpeakerStats(n_mcc=1, speakers=["a"], mean={"a": np.zeros(2)},
                         std={"a": np.ones(2)})
    with pytest.raises(StatsError):
        normalize(_seq(np.zeros((4, 2)), "zz"), stats)


@pytest.mark.parametrize("n_stats", [0, 3])
@pytest.mark.parametrize("op", [normalize, denormalize, adjust_output_stats])
def test_stats_for_another_feature_size_rejected(op, n_stats):
    # statistics of 0 or 3 MCCs for 1-MCC features would normalise the
    # aperiodicity and V/UV rows, or leave the last MCC and log-F0 raw
    stats = SpeakerStats(n_mcc=n_stats, speakers=["a"], mean={"a": np.zeros(n_stats + 1)},
                         std={"a": np.ones(n_stats + 1)})
    data = np.ones((4, 5))
    data[0] = np.arange(5.0)
    with pytest.raises(StatsError, match=f"statistics are for {n_stats} MCCs, "
                                         f"features have 1"):
        op(_seq(data), stats)


def test_stack_r1_identity():
    seq = _seq(np.random.default_rng(2).normal(size=(5, 7)))
    st = stack(seq, 1)
    assert np.array_equal(st.data, seq.data)
    assert np.array_equal(unstack(st).data, seq.data)


def test_stack_shape_and_padding():
    seq = _seq(np.ones((4, 5)))
    st = stack(seq, 3)
    assert st.data.shape == (12, 2)
    # last column carries two real frames then one zero-padded frame
    assert np.array_equal(st.data[:8, 1], np.ones(8))
    assert np.array_equal(st.data[8:, 1], np.zeros(4))


def test_stack_column_layout():
    seq = _seq(np.arange(24, dtype=float).reshape(4, 6))
    st = stack(seq, 3)
    # column 0 = vertical concat of raw columns 0,1,2
    expect = np.concatenate([seq.data[:, 0], seq.data[:, 1], seq.data[:, 2]])
    assert np.array_equal(st.data[:, 0], expect)


def test_unstack_round_trip():
    rng = np.random.default_rng(3)
    for n_raw in (5, 6, 7, 30):
        seq = _seq(rng.normal(size=(31, n_raw)))
        back = unstack(stack(seq, 3))
        assert np.array_equal(back.data, seq.data)


def test_adjust_affine_arithmetic():
    # sample (mu 0, sigma 1) -> target (mu 3, sigma 2): value 1 -> 5
    stats = SpeakerStats(n_mcc=1, speakers=["a"],
                         mean={"a": np.array([3.0, 0.0])},
                         std={"a": np.array([2.0, 1.0])})
    data = np.zeros((4, 3))
    data[0] = [-1.0, 0.0, 1.0]        # population mu 0, sigma sqrt(2/3)... use exact
    data[0] = [-1.0, 1.0, 0.0]
    data[0, :2] = [-1.0, 1.0]
    data[1] = [0.0, 2.0, 0.0]
    data[3] = [1.0, 1.0, 0.0]          # third frame unvoiced
    out = adjust_output_stats(_seq(data), stats)
    # voiced sample of row 0 was (-1, 1): mu 0, sigma 1 -> mapped to 3 +- 2
    assert np.allclose(out.data[0, :2], [1.0, 5.0])


def test_adjust_fixed_point_and_idempotence():
    rng = np.random.default_rng(4)
    corpus = gen_synthetic_corpus(2, 2, seed=9)
    stats = compute_stats(corpus)
    seq = _seq(rng.normal(size=(31, 40)), "spk0")
    seq.data[-1] = (rng.random(40) > 0.3).astype(float)
    once = adjust_output_stats(seq, stats)
    twice = adjust_output_stats(once, stats)
    assert np.abs(once.data - twice.data).max() < 1e-9
    # sample stats now match the target
    voiced = once.voiced
    sample = once.data[:29, voiced]
    assert np.abs(sample.mean(axis=1) - stats.mean["spk0"]).max() < 1e-9
    assert np.abs(sample.std(axis=1) - stats.std["spk0"]).max() < 1e-9


def test_adjust_too_few_voiced():
    data = np.zeros((4, 5))
    data[3, 0] = 1.0
    with pytest.raises(AdjustmentError):
        adjust_output_stats(_seq(data),
                            SpeakerStats(n_mcc=1, speakers=["a"],
                                         mean={"a": np.zeros(2)},
                                         std={"a": np.ones(2)}))


def test_synthetic_corpus_determinism():
    c1 = gen_synthetic_corpus(2, 3, seed=11)
    c2 = gen_synthetic_corpus(2, 3, seed=11)
    for spk in c1.speakers:
        for a, b in zip(c1.utterances[spk], c2.utterances[spk]):
            assert np.array_equal(a.data, b.data)


def test_synthetic_corpus_degenerate_identity():
    c = gen_synthetic_corpus(2, 2, seed=5, identity_maps=True, warp_range=(1.0, 1.0))
    for i in range(2):
        assert np.array_equal(c.utterances["spk0"][i].data,
                              c.utterances["spk1"][i].data)


def test_synthetic_corpus_needs_two_speakers():
    with pytest.raises(FormatError):
        gen_synthetic_corpus(1, 2, seed=0)


def test_synthetic_corpus_dtw_slope_tracks_warp():
    c = gen_synthetic_corpus(2, 4, seed=7)
    for i in range(4):
        a = c.utterances["spk0"][i]
        b = c.utterances["spk1"][i]
        path, _ = dtw(a.data[:a.n_mcc], b.data[:b.n_mcc])
        slope = (path.pairs[-1, 0] + 1) / (path.pairs[-1, 1] + 1)
        expect = c.warp_ratios["spk0"][i] / c.warp_ratios["spk1"][i]
        assert abs(slope - expect) < 0.05


def test_vtnf_round_trip(tmp_path):
    rng = np.random.default_rng(6)
    seq = _seq(rng.normal(size=(31, 17)).astype(np.float32).astype(np.float64),
               "speaker one")
    path = tmp_path / "x.vtnf"
    save_features(seq, path)
    back = load_features(path)
    assert back.speaker == "speaker one"
    assert back.frame_period_ms == 8.0
    assert np.array_equal(back.data, seq.data)


def test_vtnf_bad_magic(tmp_path):
    p = tmp_path / "bad.vtnf"
    p.write_bytes(b"NOPE" + b"\x00" * 40)
    with pytest.raises(FormatError):
        load_features(p)


def test_vtnf_non_finite_value_rejected(tmp_path):
    # the writer refuses non-finite values, so the last stored <f4 becomes inf
    path = tmp_path / "inf.vtnf"
    save_features(_seq(np.ones((4, 3))), path)
    raw = path.read_bytes()
    path.write_bytes(raw[:-4] + np.array(np.inf, dtype="<f4").tobytes())
    with pytest.raises(FormatError, match="non-finite"):
        load_features(path)


@pytest.mark.parametrize("value", [np.nan, np.inf, 1e39], ids=["nan", "inf", "1e39"])
def test_vtnf_writer_refuses_non_finite_value(tmp_path, value):
    # 1e39 is finite in float64 but overflows the stored <f4 to inf
    data = np.ones((4, 3))
    data[1, 2] = value
    path = tmp_path / "x.vtnf"
    with pytest.raises(FormatError, match=f"{path}: non-finite"):
        save_features(_seq(data), path)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("field", ["mean", "std"])
def test_vtns_writer_refuses_non_finite_value(tmp_path, value, field):
    stats = compute_stats(gen_synthetic_corpus(2, 2, seed=8))
    getattr(stats, field)[stats.speakers[1]][3] = value
    path = tmp_path / "s.vtns"
    with pytest.raises(FormatError, match=f"{path}: non-finite"):
        save_stats(stats, path)
    assert list(tmp_path.iterdir()) == []


def test_vtns_round_trip(tmp_path):
    corpus = gen_synthetic_corpus(3, 2, seed=8)
    stats = compute_stats(corpus)
    path = tmp_path / "s.vtns"
    save_stats(stats, path)
    back = load_stats(path)
    assert back.speakers == stats.speakers
    assert back.n_mcc == stats.n_mcc
    for spk in stats.speakers:
        assert np.array_equal(back.mean[spk], stats.mean[spk])
        assert np.array_equal(back.std[spk], stats.std[spk])


def test_corpus_round_trip(tmp_path):
    corpus = gen_synthetic_corpus(2, 3, seed=10)
    save_corpus(corpus, tmp_path / "data")
    back = load_corpus(tmp_path / "data")
    assert back.speakers == corpus.speakers
    for spk in corpus.speakers:
        for a, b in zip(corpus.utterances[spk], back.utterances[spk]):
            # storage is float32, so round-trip through that precision
            assert np.array_equal(b.data, a.data.astype(np.float32).astype(np.float64))


def test_corpus_parallel_invariant():
    seqs = [_seq(np.random.default_rng(0).normal(size=(4, 6)))]
    with pytest.raises(FormatError):
        Corpus(speakers=["a", "b"],
               utterances={"a": seqs, "b": []})
