from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vtn import container
from vtn.autodiff import AdamState
from vtn.errors import ConfigError, FormatError
from vtn.features import (compute_stats, gen_synthetic_corpus, load_features,
                          load_stats, save_features, save_stats)
from vtn.model import VtnConfig, VtnModel
from vtn.trainer import load_trainer_state, save_trainer_state

TINY = VtnConfig(L=1, H=1, d=2, d_ffn=2, n_mcc=1, r=1, e=1, n_speakers=2)

LOADERS = {".vtnf": load_features, ".vtns": load_stats,
           ".vtnm": VtnModel.load, ".vtno": load_trainer_state}


@pytest.fixture(scope="module")
def originals(tmp_path_factory):
    """One small well-formed file of each format, as bytes."""
    root = tmp_path_factory.mktemp("originals")
    corpus = gen_synthetic_corpus(2, 1, seed=3, n_mcc=1, raw_len_range=(4, 4),
                                  warp_range=(1.0, 1.0))
    save_features(corpus.utterances["spk0"][0], root / "a.vtnf")
    save_stats(compute_stats(corpus), root / "a.vtns")
    model = VtnModel.init(TINY, seed=1, speakers=["spk0", "spk1"])
    model.save(root / "a.vtnm")
    state = AdamState()
    state.step = 3
    state.m["emb"] = np.full((2, 1), 0.5)
    state.v["emb"] = np.full((2, 1), 0.25)
    save_trainer_state(root / "a.vtno", 3, state, np.random.default_rng(2))
    return {ext: (root / f"a{ext}").read_bytes() for ext in LOADERS}


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("damaged")


@pytest.mark.parametrize("ext", sorted(LOADERS))
def test_originals_load(originals, scratch, ext):
    path = scratch / f"whole{ext}"
    path.write_bytes(originals[ext])
    LOADERS[ext](path)


@pytest.mark.parametrize("ext", sorted(LOADERS))
def test_trailing_bytes_rejected(originals, scratch, ext):
    path = scratch / f"long{ext}"
    path.write_bytes(originals[ext] + b"\x00")
    with pytest.raises(FormatError, match="after the end"):
        LOADERS[ext](path)


@pytest.mark.parametrize("ext", sorted(LOADERS))
@settings(derandomize=True, deadline=None, max_examples=150)
@given(data=st.data())
def test_damaged_file_loads_or_raises_format_error(originals, scratch, ext, data):
    raw = bytearray(originals[ext])
    pos = data.draw(st.integers(0, len(raw) - 1), label="position")
    cut = data.draw(st.booleans(), label="truncate")
    if cut:
        raw = raw[:pos]
    else:
        raw[pos] ^= data.draw(st.integers(1, 255), label="xor")
    path = scratch / f"case{ext}"
    path.write_bytes(bytes(raw))
    try:
        loaded = LOADERS[ext](path)
    except FormatError:
        return
    assert not cut, "a truncated file loaded"
    if ext == ".vtnm":
        fresh = VtnModel.init(loaded.config)
        assert {k: v.data.shape for k, v in loaded.params.items()} == \
               {k: v.data.shape for k, v in fresh.params.items()}


@pytest.mark.parametrize("ext", [".vtnf", ".vtns", ".vtno"])
def test_every_cut_and_bit_flip_of_small_files(originals, scratch, ext):
    raw = originals[ext]
    cases = [raw[:n] for n in range(len(raw))]
    for pos in range(len(raw)):
        for bit in range(8):
            flipped = bytearray(raw)
            flipped[pos] ^= 1 << bit
            cases.append(bytes(flipped))
    path = scratch / f"sweep{ext}"
    for i, case in enumerate(cases):
        path.write_bytes(case)
        try:
            LOADERS[ext](path)
        except FormatError:
            continue
        assert i >= len(raw), f"a file cut to {i} bytes loaded"


def test_failed_save_keeps_previous_file(tmp_path, monkeypatch):
    path = tmp_path / "m.vtnm"
    VtnModel.init(TINY, seed=1).save(path)
    before = path.read_bytes()
    calls = []
    real_array = container.Writer.array

    def failing_array(self, arr, dtype):
        calls.append(1)
        if len(calls) == 3:
            raise RuntimeError("disk full")
        real_array(self, arr, dtype)

    monkeypatch.setattr(container.Writer, "array", failing_array)
    with pytest.raises(RuntimeError, match="disk full"):
        VtnModel.init(TINY, seed=2).save(path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["m.vtnm"]


def test_optimizer_state_must_be_restorable(tmp_path):
    path = tmp_path / "s.vtno"
    state = AdamState()
    state.m["a"] = np.zeros(2)
    state.v["b"] = np.zeros(2)
    save_trainer_state(path, 1, state, np.random.default_rng(0))
    with pytest.raises(FormatError, match="different parameters"):
        load_trainer_state(path)
    other = SimpleNamespace(bit_generator=SimpleNamespace(
        state={"bit_generator": "MT19937", "state": {"key": [1, 2], "pos": 0}}))
    save_trainer_state(path, 1, AdamState(), other)
    with pytest.raises(FormatError, match="rng_state"):
        load_trainer_state(path)


def test_json_header_checks(tmp_path):
    path = tmp_path / "h.json"
    for text, message in [(b"{", "bad JSON"), (b"[1]", "not an object"),
                          (b'{"a": NaN}', "non-finite"), (b'{"a": 1e999}', "non-finite"),
                          (b"\xff", "bad JSON")]:
        with pytest.raises(FormatError, match=message):
            container.parse_json(path, text)
    with pytest.raises(FormatError, match="missing key"):
        container.value(path, {}, "n", int)
    with pytest.raises(FormatError, match="expected int"):
        container.value(path, {"n": True}, "n", int)


@pytest.mark.parametrize("change, message", [
    ({"H": 0}, r"H=0 is outside \[1, inf\)"), ({"L": "two"}, "L='two' is str, expected int"),
    ({"final_ln": 1}, "final_ln=1 is int, expected bool"), ({"H": 3}, "not divisible"),
    ({"extra": 1}, "not VtnConfig's"), ({"final_ln": None}, "not VtnConfig's")])
def test_stored_model_config_checked(tmp_path, change, message):
    path = tmp_path / "m.vtnm"
    model = VtnModel.init(TINY, seed=1)
    # a change to None drops the key
    config = {k: v for k, v in {**vars(TINY), **change}.items() if v is not None}
    with container.writing(path, b"VTNM", 1) as writer:
        container.write_json_blocks(writer, {"config": config, "speakers": None},
                                    {k: v.data for k, v in model.params.items()})
    with pytest.raises(FormatError, match=message):
        VtnModel.load(path)


def test_config_fields_checked():
    for kwargs, message in [({"dropout_rate": 1.0}, r"dropout_rate=1.0 is outside \[0, 1\)"),
                            ({"dropout_rate": float("nan")}, "not finite"),
                            ({"n_speakers": 2.0}, "expected int"),
                            ({"e": True}, "expected int")]:
        with pytest.raises(ConfigError, match=message):
            VtnConfig(**kwargs)
    assert VtnConfig(dropout_rate=0).dropout_rate == 0   # an int passes for a float
