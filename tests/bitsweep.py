"""Print a sha256 digest of every conversion configuration, of trained
parameters and of evaluation scores, to compare the bits two source trees
compute.

Each line is ``<name> <sha256>``.  A conversion line digests the output,
attention, attended positions, windows and stop flag of one model shape
in one decode mode and window; a decode line digests the output and
attention of one column-exact ``VtnModel.decode`` of a seeded prefix of
one model shape, its last column windowed unless the model is realtime; a
training line digests every parameter after 8 batch-4 steps of the
acceptance gate's model size, in one speaker conditioning, layer-norm
placement or loss weighting, and the conversions that trained model then
makes; an evaluation line digests the DTW path and cost and the three
scores of one parallel pair, held C-ordered or frame-contiguous (as read
from a .vtnf file).  Run the sweep
on each tree under the same BLAS thread count (training bits depend on
it) and diff the outputs:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=<tree>/src python tests/bitsweep.py > <tree>.txt

``PYTHONPATH=src python tests/bitsweep.py --write`` runs the sweep at one
BLAS thread and writes its lines to ``tests/bits/<build key>.txt``, the key
naming the numpy version and the BLAS library and version; ``test_bits.py``
compares a fresh sweep with that file.  pytest does not collect this file.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from vtn import autodiff as ad
from vtn.autodiff import AdamState
from vtn.converter import DecodeConfig, convert
from vtn.features import FeatureSequence, compute_stats, gen_synthetic_corpus
from vtn.metrics import dtw, evaluate_pair
from vtn.model import VtnConfig, VtnModel
from vtn.trainer import TrainConfig, make_batch, train_step

TINY = dict(L=1, H=2, d=8, d_ffn=16, n_mcc=28, r=3, e=4, n_speakers=2, dropout_rate=0.1)
OVERFIT_CFG = dict(L=2, H=2, d=32, d_ffn=64, n_mcc=28, r=3, e=8, n_speakers=2)

SHAPES = {
    "pre-ln": dict(TINY),
    "post-ln": dict(TINY, ln_placement="post"),
    "H4": dict(TINY, H=4),
    "r1": dict(TINY, r=1),
    "one_to_one": dict(TINY, mode="one_to_one"),
    "any_to_many": dict(TINY, mode="any_to_many"),
    "no-final-ln": dict(TINY, final_ln=False),
    "L2H3": dict(TINY, L=2, H=3, d=12),
    "overfit": dict(OVERFIT_CFG),
}
# (back, forward) window in ms for windowed mode; None for default mode
WINDOWS = [None, (24.0, 48.0), (48.0, 72.0), (160.0, 320.0), (0.0, 0.0)]
# long conversions, (name, shape, N_src, windows): decoder self-attention
# reaches 140 keys, past the 128 elements where numpy's pairwise sums change
# regime, a realtime encoder runs 140 causal groups, three layers decode 80
# steps, and a three-layer and a post-LN model decode 80 windowed steps
# whose window still moves after the postnet's 29-column receptive field,
# so each step's newest decoder column differs from the one the next step
# computes without its window
LONG = [("overfit-long", dict(OVERFIT_CFG), 70, [None, (24.0, 48.0)]),
        ("overfit-long-realtime", dict(OVERFIT_CFG, realtime=True), 140, None),
        ("overfit-L3-long", dict(OVERFIT_CFG, L=3), 40, [None]),
        ("overfit-L3-windowed-long", dict(OVERFIT_CFG, L=3), 40, [(24.0, 48.0)]),
        ("overfit-post-ln-windowed-long", dict(OVERFIT_CFG, ln_placement="post"), 40,
         [(24.0, 48.0)])]
# decode lines: prefix and source columns, past the postnet's 29-column
# receptive field, and the 0-based source range of the last column
DECODE_N, DECODE_WINDOW = 35, (9, 21)
TRAIN_STEPS = 8
# trained models, name -> (model config changes, train config changes)
TRAINED = {
    "default": ({}, {}),
    "realtime": (dict(realtime=True), {}),
    "any_to_many": (dict(mode="any_to_many"), {}),
    "one_to_one": (dict(mode="one_to_one"), {}),
    "post-ln": (dict(ln_placement="post"), {}),
    "iml0": ({}, dict(lambda_iml=0.0)),
}
EVALUATION_SEEDS = (101, 102, 103)  # synthetic corpora whose 3 spk0/spk1 pairs are scored
BITS = Path(__file__).with_name("bits")  # committed digests, one file per build key


def build_key() -> str:
    """The numpy version and the BLAS library and version of this build,
    which the digests depend on: e.g. ``2.4.6_scipy-openblas-0.3.31.188.0``."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return f"{np.__version__}_{blas}".replace(" ", "-")


def sweep() -> list[str]:
    """The lines of this file's sweep over this tree's package, run in a
    subprocess with BLAS at one thread."""
    paths = [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
    run = subprocess.run([sys.executable, __file__], env=env, capture_output=True, text=True)
    if run.returncode:
        raise RuntimeError(f"the bit sweep failed:\n{run.stderr}")
    return run.stdout.splitlines()


def digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.asarray(a)
        h.update(repr((a.dtype.str, a.shape)).encode())
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def conversion_digest(model: VtnModel, src: np.ndarray, cfg: DecodeConfig) -> str:
    res = convert(model, src, 0, 1, cfg)
    windows = [w if w is not None else (0, 0) for w in res.windows]
    return digest(res.output, res.attention, res.n_hat, windows, [res.truncated])


def conversions(name: str, model: VtnModel, n_src: int, seed: int,
                windows: list[tuple[float, float] | None] = WINDOWS) -> None:
    src = np.random.default_rng(seed).normal(size=(model.config.D, n_src))
    if model.config.realtime:
        print(f"convert {name} realtime {conversion_digest(model, src, DecodeConfig('realtime'))}")
        return
    for window in windows:
        if window is None:
            cfg, tag = DecodeConfig(), "default"
        else:
            cfg = DecodeConfig("windowed", window_back_ms=window[0], window_fwd_ms=window[1])
            tag = f"windowed-{window[0]:g}-{window[1]:g}"
        print(f"convert {name} {tag} {conversion_digest(model, src, cfg)}")


def decode_digest(model: VtnModel, seed: int) -> str:
    src, prefix = np.random.default_rng(seed).normal(size=(2, model.config.D, DECODE_N))
    window = None if model.config.realtime else DECODE_WINDOW
    with ad.column_exact():
        y, attn = model.decode(prefix, model.encode(src, k=0), kp=1, window=window)
    return digest(y.data, attn)


def train(model_kw: dict, train_kw: dict) -> VtnModel:
    corpus = gen_synthetic_corpus(2, 6, seed=7, raw_len_range=(60, 120))
    stats = compute_stats(corpus)
    cfg = VtnConfig(**{**OVERFIT_CFG, **model_kw})
    model = VtnModel.init(cfg, seed=0, speakers=list(corpus.speakers))
    tc = TrainConfig(lr=1e-3, batch_size=4, seed=0, **train_kw)
    opt, rng = AdamState(), np.random.default_rng(0)
    for _ in range(TRAIN_STEPS):
        train_step(model, make_batch(corpus, stats, cfg, tc, rng), opt, tc, rng)
    return model


def evaluations(seed: int) -> None:
    corpus = gen_synthetic_corpus(2, 3, seed=seed, raw_len_range=(200, 400))
    for u, pair in enumerate(zip(*(corpus.utterances[s] for s in corpus.speakers))):
        for layout, order in (("C", np.ascontiguousarray), ("frames-contiguous", np.asfortranarray)):
            conv, ref = (FeatureSequence(order(seq.data), seq.speaker) for seq in pair)
            path, cost = dtw(conv.data[:conv.n_mcc], ref.data[:ref.n_mcc])
            scores = [np.nan if v is None else v for v in evaluate_pair(conv, ref).values()]
            print(f"evaluate seed{seed}-pair{u} {layout} {digest(path.pairs, [cost], scores)}")


def main() -> None:
    decodes = []
    for i, (name, kw) in enumerate(SHAPES.items()):
        for realtime in (False, True):
            model = VtnModel.init(VtnConfig(**kw, realtime=realtime), seed=i,
                                  speakers=["spk0", "spk1"])
            label = f"{name}{'-realtime' if realtime else ''}"
            conversions(label, model, 10 + i, i)
            decodes.append(f"decode {label} {decode_digest(model, 300 + i)}")
    for i, (name, kw, n_src, windows) in enumerate(LONG):
        model = VtnModel.init(VtnConfig(**kw), seed=i, speakers=["spk0", "spk1"])
        conversions(name, model, n_src, 200 + i, windows)
    for tag, (model_kw, train_kw) in TRAINED.items():
        model = train(model_kw, train_kw)
        print(f"train {tag} params {digest(*(p.data for p in model.params.values()))}")
        conversions(f"trained-{tag}", model, 24, 100)
    for seed in EVALUATION_SEEDS:
        evaluations(seed)
    print("\n".join(decodes))


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--write", action="store_true",
                        help="write the one-thread sweep to tests/bits/<build key>.txt")
    if parser.parse_args().write:
        BITS.mkdir(exist_ok=True)
        out = BITS / f"{build_key()}.txt"
        out.write_text("".join(f"{line}\n" for line in sweep()))
        print(f"wrote {out}")
    else:
        main()
