"""Command-line surface: data generation, statistics, training, conversion,
evaluation and attention inspection.

Configuration lives in a JSON file with "model", "train" and "decode"
sections; any field can be overridden on the command line with
--set section.field=value.  Exit codes: 0 success, 1 runtime error, 2 usage.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from .container import parse_json
from .converter import DecodeConfig, convert_sequence, dump_attention
from .errors import FormatError, VtnError
from .features import (compute_stats, gen_synthetic_corpus, load_corpus,
                       load_features, load_stats, save_corpus, save_features,
                       save_stats)
from .metrics import evaluate_pair
from .model import VtnConfig, VtnModel
from .trainer import TrainConfig, train

_SECTIONS = {"model": VtnConfig, "train": TrainConfig, "decode": DecodeConfig}


# ---------------------------------------------------------------------------
# configuration plumbing

def _coerce(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text


def load_run_config(config_path, overrides):
    """Merge defaults, an optional JSON file, and --set overrides."""
    merged = {name: {} for name in _SECTIONS}
    if config_path is not None:
        raw = parse_json(config_path, Path(config_path).read_bytes())
        for section, values in raw.items():
            if section not in _SECTIONS:
                raise VtnError(f"unknown config section {section!r}")
            if not isinstance(values, dict):
                raise VtnError(f"config section {section!r} must be an object")
            merged[section].update(values)
    for item in overrides or []:
        if "=" not in item or "." not in item.split("=", 1)[0]:
            raise VtnError(f"--set expects section.field=value, got {item!r}")
        key, value = item.split("=", 1)
        section, field = key.split(".", 1)
        if section not in _SECTIONS:
            raise VtnError(f"unknown config section {section!r} in {item!r}")
        merged[section][field] = _coerce(value)

    out = {}
    for section, cls in _SECTIONS.items():
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(merged[section]) - known
        if unknown:
            raise VtnError(f"unknown {section} config keys: {sorted(unknown)}")
        out[section] = cls(**merged[section])
    return out["model"], out["train"], out["decode"]


def default_config_dict() -> dict:
    return {name: dataclasses.asdict(cls()) for name, cls in _SECTIONS.items()}


# ---------------------------------------------------------------------------
# commands

def cmd_gen_data(args) -> int:
    corpus = gen_synthetic_corpus(
        n_speakers=args.speakers, n_utterances=args.utterances, seed=args.seed,
        n_mcc=args.n_mcc, raw_len_range=(args.min_len, args.max_len),
        warp_range=(args.warp_min, args.warp_max),
        identity_maps=args.identity_maps)
    save_corpus(corpus, args.out)
    n_files = args.speakers * args.utterances
    print(f"wrote {n_files} feature files + corpus.json to {args.out}")
    return 0


def cmd_stats(args) -> int:
    corpus = load_corpus(args.data)
    stats = compute_stats(corpus, args.train_utterances)
    save_stats(stats, args.out)
    print(f"wrote statistics for {len(stats.speakers)} speakers to {args.out}")
    return 0


def cmd_default_config(args) -> int:
    text = json.dumps(default_config_dict(), indent=2, sort_keys=True) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        Path(args.out).write_text(text)
        print(f"wrote default config to {args.out}")
    return 0


def cmd_train(args) -> int:
    model_cfg, train_cfg, _ = load_run_config(args.config, args.set)
    corpus = load_corpus(args.data)
    stats = load_stats(args.stats) if args.stats else None
    if model_cfg.n_speakers != len(corpus.speakers):
        model_cfg = dataclasses.replace(model_cfg, n_speakers=len(corpus.speakers))
    result = train(corpus, model_cfg, train_cfg, stats=stats,
                   out_dir=args.out, resume=args.resume, log_every=args.log_every)
    if result.log:
        last = result.log[-1]
        print(f"finished at iter {last['iter']}: total {last['total']:.6g} "
              f"(main {last['main']:.6g}, dal {last['dal']:.6g}, iml {last['iml']:.6g})")
    else:
        print("finished (no training iterations run)")
    return 0


def cmd_convert(args) -> int:
    model = VtnModel.load(args.model)
    stats = load_stats(args.stats)
    seq = load_features(args.input)
    if args.src_spk is not None:
        if model.config.mode == "any_to_many":
            raise VtnError("--src-spk is not accepted in any_to_many mode")
        seq.speaker = args.src_spk
    _, _, decode_cfg = load_run_config(args.config, args.set)
    if args.mode is not None:
        decode_cfg = dataclasses.replace(decode_cfg, mode=args.mode)
    out, result = convert_sequence(model, seq, args.tgt_spk, stats, decode_cfg)
    save_features(out, args.out)
    if args.dump_attn:
        dump_attention(result, args.dump_attn)
    print(f"frames in: {seq.n_frames}  frames out: {out.n_frames}  "
          f"truncated: {result.truncated}")
    return 0


def _metric_cell(value) -> str:
    return "NA" if value is None else repr(float(value))


def cmd_evaluate(args) -> int:
    conv, ref = Path(args.converted), Path(args.reference)
    if conv.is_dir() != ref.is_dir():
        raise VtnError("--converted and --reference must both be files or both directories")
    if conv.is_dir():
        names = sorted(p.name for p in conv.glob("*.vtnf"))
        if not names:
            raise VtnError(f"no .vtnf files in {conv}")
        pairs = [(n, conv / n, ref / n) for n in names]
    else:
        pairs = [(conv.name, conv, ref)]

    rows = []
    for name, c_path, r_path in pairs:
        c_seq = load_features(c_path)
        r_seq = load_features(r_path)
        try:
            m = evaluate_pair(c_seq, r_seq)
        except VtnError as exc:
            raise type(exc)(f"{c_path} against {r_path}: {exc}") from exc
        rows.append((name, c_seq.speaker, r_seq.speaker, m))

    with open(args.report, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["utterance", "src", "tgt", "mcd_db", "lfc", "ldr_pct"])
        for name, src, tgt, m in rows:
            w.writerow([name, src, tgt, _metric_cell(m["mcd_db"]),
                        _metric_cell(m["lfc"]), _metric_cell(m["ldr_pct"])])
        means = []
        for key in ("mcd_db", "lfc", "ldr_pct"):
            vals = [m[key] for _, _, _, m in rows if m[key] is not None]
            means.append(float(np.mean(vals)) if vals else None)
        w.writerow(["mean", "", ""] + [_metric_cell(v) for v in means])
    print(f"wrote {len(rows)} rows + mean to {args.report}")
    return 0


def _read_matrix_csv(path: Path) -> np.ndarray:
    """A CSV matrix of finite numbers; anything else is a FormatError."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or not rows[0]:
        raise FormatError(f"{path}: no values")
    if any(len(row) != len(rows[0]) for row in rows):
        raise FormatError(f"{path}: rows of different lengths")
    try:
        matrix = np.array([[float(v) for v in row] for row in rows])
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from None
    if not np.isfinite(matrix).all():
        raise FormatError(f"{path}: non-finite value")
    return matrix


def cmd_inspect(args) -> int:
    mean_path = Path(args.attn) / "mean.csv"
    if not mean_path.exists():
        raise VtnError(f"{mean_path} not found (run convert with --dump-attn)")
    matrix = _read_matrix_csv(mean_path)
    peaks = matrix.argmax(axis=0)
    steps = np.diff(peaks)
    monotone = bool((steps >= 0).all()) if len(steps) else True
    n_heads = len(list(Path(args.attn).glob("attn_l*_h*.csv")))
    print(f"attention dir: {args.attn}")
    print(f"head files: {n_heads}  mean matrix: {matrix.shape[0]} source x "
          f"{matrix.shape[1]} steps")
    print(f"peak path: {peaks.tolist()}")
    print(f"monotone: {monotone}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="vtn",
                                     description="Sequence-to-sequence voice conversion toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate a synthetic parallel corpus")
    p.add_argument("--out", required=True)
    p.add_argument("--speakers", type=int, default=2)
    p.add_argument("--utterances", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n-mcc", type=int, default=28)
    p.add_argument("--min-len", type=int, default=120)
    p.add_argument("--max-len", type=int, default=240)
    p.add_argument("--warp-min", type=float, default=0.7)
    p.add_argument("--warp-max", type=float, default=1.4)
    p.add_argument("--identity-maps", action="store_true")
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("stats", help="compute per-speaker feature statistics")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--train-utterances", type=int, default=None)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("default-config", help="emit the default JSON configuration")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_default_config)

    p = sub.add_parser("train", help="train a model on a corpus")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--stats", default=None)
    p.add_argument("--config", default=None)
    p.add_argument("--set", action="append", metavar="SECTION.FIELD=VALUE")
    p.add_argument("--resume", default=None,
                   help="checkpoint path without extension to resume from")
    p.add_argument("--log-every", type=int, default=10)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("convert", help="convert one utterance to a target speaker")
    p.add_argument("--model", required=True)
    p.add_argument("--stats", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--tgt-spk", required=True)
    p.add_argument("--src-spk", default=None)
    p.add_argument("--mode", choices=("default", "windowed", "realtime"),
                   help="decode mode; overrides decode.mode of --config/--set")
    p.add_argument("--out", required=True)
    p.add_argument("--dump-attn", default=None)
    p.add_argument("--config", default=None)
    p.add_argument("--set", action="append", metavar="SECTION.FIELD=VALUE")
    p.set_defaults(func=cmd_convert)

    p = sub.add_parser("evaluate", help="score converted speech against a reference")
    p.add_argument("--converted", required=True)
    p.add_argument("--reference", required=True)
    p.add_argument("--report", required=True)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("inspect", help="summarize a dumped attention directory")
    p.add_argument("--attn", required=True)
    p.set_defaults(func=cmd_inspect)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except VtnError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
