import csv
import json
import shutil

import numpy as np
import pytest

from vtn.cli import main
from vtn.features import load_corpus, load_features, save_features
from vtn.model import VtnModel
from vtn.trainer import load_trainer_state, save_trainer_state

TINY = [
    "--set", "model.L=1", "--set", "model.H=2", "--set", "model.d=8",
    "--set", "model.d_ffn=16", "--set", "model.e=4",
]


def gen(out, speakers=2, utterances=2, seed=0, extra=()):
    args = ["gen-data", "--out", str(out), "--speakers", str(speakers),
            "--utterances", str(utterances), "--seed", str(seed),
            "--min-len", "40", "--max-len", "60", *extra]
    assert main(args) == 0


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Shared corpus + stats + untrained checkpoint for the read-only tests."""
    root = tmp_path_factory.mktemp("cli")
    gen(root / "data")
    assert main(["stats", "--data", str(root / "data"),
                 "--out", str(root / "stats.vtns")]) == 0
    assert main(["train", "--data", str(root / "data"),
                 "--stats", str(root / "stats.vtns"),
                 "--out", str(root / "run"), *TINY,
                 "--set", "train.iterations=0"]) == 0
    return root


def test_gen_data_file_layout(tmp_path):
    gen(tmp_path / "d", speakers=3, utterances=4)
    files = sorted(p.name for p in (tmp_path / "d").glob("*.vtnf"))
    assert len(files) == 12
    assert files[0] == "spk0_000.vtnf"
    manifest = json.loads((tmp_path / "d" / "corpus.json").read_text())
    assert manifest["speakers"] == ["spk0", "spk1", "spk2"]


def test_gen_data_deterministic(tmp_path):
    gen(tmp_path / "a", seed=5)
    gen(tmp_path / "b", seed=5)
    for p in sorted((tmp_path / "a").iterdir()):
        assert p.read_bytes() == (tmp_path / "b" / p.name).read_bytes()


def test_gen_data_round_trip(tmp_path):
    gen(tmp_path / "d")
    corpus = load_corpus(tmp_path / "d")
    assert corpus.speakers == ["spk0", "spk1"]
    seq = corpus.utterances["spk1"][1]
    assert seq.speaker == "spk1"
    assert 40 <= seq.n_frames <= 60
    assert seq.data.shape[0] == seq.n_mcc + 3


def test_train_zero_iterations_writes_final(workspace):
    assert (workspace / "run" / "final.vtnm").exists()
    assert (workspace / "run" / "final.vtno").exists()
    model = VtnModel.load(workspace / "run" / "final.vtnm")
    assert model.config.d == 8
    assert model.speakers == ["spk0", "spk1"]


def test_config_file_and_set_override(workspace, tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"model": {"L": 1, "H": 2, "d": 8,
                                              "d_ffn": 16, "e": 4},
                                    "train": {"iterations": 0}}))
    assert main(["train", "--data", str(workspace / "data"),
                 "--out", str(tmp_path / "run"),
                 "--config", str(cfg_path),
                 "--set", "model.ln_placement=post"]) == 0
    model = VtnModel.load(tmp_path / "run" / "final.vtnm")
    assert model.config.ln_placement == "post"
    assert model.config.d == 8


def test_unknown_config_key_rejected(workspace, tmp_path, capsys):
    rc = main(["train", "--data", str(workspace / "data"),
               "--out", str(tmp_path / "run"),
               "--set", "model.nosuchfield=1",
               "--set", "train.iterations=0"])
    assert rc == 1
    assert "nosuchfield" in capsys.readouterr().err


def test_unknown_section_rejected(workspace, tmp_path):
    rc = main(["train", "--data", str(workspace / "data"),
               "--out", str(tmp_path / "run"),
               "--set", "banana.iterations=0"])
    assert rc == 1


@pytest.mark.parametrize("text", ['{"model": {"L": 1', '[{"model": {}}]'])
def test_malformed_config_file_rejected(workspace, tmp_path, capsys, text):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(text)
    rc = main(["train", "--data", str(workspace / "data"),
               "--out", str(tmp_path / "run"), "--config", str(cfg_path)])
    assert rc == 1
    assert capsys.readouterr().err.startswith(f"error: {cfg_path}: ")


def test_stats_manifest_without_utterance_count(workspace, tmp_path, capsys):
    data = tmp_path / "data"
    data.mkdir()
    manifest = json.loads((workspace / "data" / "corpus.json").read_text())
    del manifest["n_utterances"]
    (data / "corpus.json").write_text(json.dumps(manifest))
    rc = main(["stats", "--data", str(data), "--out", str(tmp_path / "s.vtns")])
    assert rc == 1
    assert "n_utterances" in capsys.readouterr().err


@pytest.mark.parametrize("edit", [
    {"n_utterances": 0}, {"n_utterances": -2}, {"speakers": ["spk0", "spk0"]},
    {"frame_period_ms": "x"}, {"frame_period_ms": 0}, {"frame_period_ms": True},
], ids=["no-utterances", "negative-utterances", "repeated-speaker", "str-period",
        "zero-period", "bool-period"])
def test_stats_rejects_a_malformed_manifest(workspace, tmp_path, capsys, edit):
    data = tmp_path / "data"
    shutil.copytree(workspace / "data", data)
    manifest = json.loads((data / "corpus.json").read_text())
    (data / "corpus.json").write_text(json.dumps({**manifest, **edit}))
    rc = main(["stats", "--data", str(data), "--out", str(tmp_path / "s.vtns")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {data / 'corpus.json'}: ") and "Traceback" not in err
    assert not (tmp_path / "s.vtns").exists()


@pytest.mark.parametrize("setting", [
    "model.L=two", "model.H=0", "train.lr=abc", "train.checkpoint_every=0"])
def test_bad_train_setting_rejected(workspace, tmp_path, capsys, setting):
    rc = main(["train", "--data", str(workspace / "data"),
               "--stats", str(workspace / "stats.vtns"),
               "--out", str(tmp_path / "run"), *TINY,
               "--set", "train.iterations=1", "--set", "train.batch_size=1",
               "--set", setting])
    assert rc == 1
    section, field = setting.split("=")[0].split(".")
    assert capsys.readouterr().err.startswith(f"error: {section} config: {field}=")
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("setting", ["decode.max_len_factor=0", "decode.max_len_factor=1.5"])
def test_bad_decode_setting_rejected(workspace, tmp_path, capsys, setting):
    assert _convert(workspace, tmp_path / "out.vtnf", ("--set", setting)) == 1
    assert capsys.readouterr().err.startswith("error: decode config: max_len_factor=")
    assert not (tmp_path / "out.vtnf").exists()


def test_train_utterances_beyond_corpus_rejected(workspace, tmp_path, capsys):
    rc = main(["train", "--data", str(workspace / "data"),
               "--stats", str(workspace / "stats.vtns"),
               "--out", str(tmp_path / "run"), *TINY,
               "--set", "train.iterations=1", "--set", "train.train_utterances=100"])
    assert rc == 1
    assert "train_utterances=100" in capsys.readouterr().err


def test_convert_zero_frame_input_rejected(workspace, tmp_path, capsys):
    src = load_features(workspace / "data" / "spk0_000.vtnf")
    src.data = src.data[:, :0]
    empty = tmp_path / "empty.vtnf"
    save_features(src, empty)
    rc = main(["convert", "--model", str(workspace / "run" / "final.vtnm"),
               "--stats", str(workspace / "stats.vtns"), "--input", str(empty),
               "--tgt-spk", "spk1", "--out", str(tmp_path / "out.vtnf")])
    assert rc == 1
    assert capsys.readouterr().err == "error: source has no frames\n"
    assert not (tmp_path / "out.vtnf").exists()


def test_convert_with_non_finite_weights_writes_nothing(workspace, tmp_path, capsys):
    # a checkpoint may hold non-finite weights; its conversion must not
    # become a feature file that load_features rejects
    model = VtnModel.load(workspace / "run" / "final.vtnm")
    model.params["dec.0.ffn.W4"].data[0, 0] = np.nan
    model.save(tmp_path / "nan.vtnm")
    out = tmp_path / "out.vtnf"
    rc = main(["convert", "--model", str(tmp_path / "nan.vtnm"),
               "--stats", str(workspace / "stats.vtns"),
               "--input", str(workspace / "data" / "spk0_000.vtnf"),
               "--tgt-spk", "spk1", "--out", str(out)])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.err == "error: decode step 1 gave a non-finite output column\n"
    assert "frames out" not in captured.out
    assert sorted(p.name for p in tmp_path.iterdir()) == ["nan.vtnm"]


@pytest.mark.parametrize("count", ["0", "-1", "3"])
def test_stats_train_utterances_outside_corpus(workspace, tmp_path, capsys, count):
    rc = main(["stats", "--data", str(workspace / "data"), "--out", str(tmp_path / "s.vtns"),
               "--train-utterances", count])
    assert rc == 1
    assert capsys.readouterr().err == f"error: train_utterances={count} is outside 1..2\n"
    assert not (tmp_path / "s.vtns").exists()


@pytest.mark.parametrize("flags, reason", [
    (("--min-len", "200", "--max-len", "100"), "lengths 200..100"),
    (("--min-len", "0"), "lengths 0..240"),
    (("--warp-min", "0"), "warp ratios 0.0..1.4"),
    (("--warp-min", "1.5", "--warp-max", "1.2"), "warp ratios 1.5..1.2"),
    (("--utterances", "0"), "utterances=0"),
    (("--n-mcc", "-1"), "n_mcc=-1"),
    (("--n-mcc", "0"), "n_mcc=0"),
    (("--seed", "-1"), "seed=-1"),
])
def test_gen_data_bad_range_rejected(tmp_path, capsys, flags, reason):
    rc = main(["gen-data", "--out", str(tmp_path / "d"), *flags])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: synthetic corpus: {reason}")
    assert err.count("\n") == 1
    assert not (tmp_path / "d").exists()


def test_gen_data_identity_maps_with_fewer_mccs_than_latents(tmp_path):
    # 4 MCCs copy the first 4 of the 8 latent content rows
    gen(tmp_path / "d", utterances=2, extra=("--n-mcc", "4", "--identity-maps",
                                             "--warp-min", "1", "--warp-max", "1"))
    corpus = load_corpus(tmp_path / "d")
    first, second = (corpus.utterances[s] for s in corpus.speakers)
    for x, y in zip(first, second):
        assert x.n_mcc == 4
        assert np.array_equal(x.data, y.data)


@pytest.mark.parametrize("every", ["0", "-3"])
def test_train_log_every_below_one_rejected(workspace, tmp_path, capsys, every):
    rc = main(["train", "--data", str(workspace / "data"),
               "--stats", str(workspace / "stats.vtns"),
               "--out", str(tmp_path / "run"), *TINY,
               "--set", "train.iterations=1", "--log-every", every])
    assert rc == 1
    assert capsys.readouterr().err == f"error: log_every={every} must be at least 1\n"
    assert not (tmp_path / "run").exists()


@pytest.fixture(scope="module")
def six_mcc_stats(tmp_path_factory):
    """Statistics of a corpus whose frames hold 6 MCCs, not 28."""
    root = tmp_path_factory.mktemp("six")
    gen(root / "data", extra=("--n-mcc", "6"))
    assert main(["stats", "--data", str(root / "data"), "--out", str(root / "b.vtns")]) == 0
    return root / "b.vtns"


def test_train_with_stats_for_another_feature_size_rejected(workspace, six_mcc_stats,
                                                            tmp_path, capsys):
    rc = main(["train", "--data", str(workspace / "data"), "--stats", str(six_mcc_stats),
               "--out", str(tmp_path / "run"), *TINY, "--set", "train.iterations=1"])
    assert rc == 1
    assert capsys.readouterr().err == "error: statistics are for 6 MCCs, features have 28\n"
    assert not (tmp_path / "run").exists()


def test_convert_with_stats_for_another_feature_size_rejected(workspace, six_mcc_stats,
                                                              tmp_path, capsys):
    out = tmp_path / "out.vtnf"
    rc = main(["convert", "--model", str(workspace / "run" / "final.vtnm"),
               "--stats", str(six_mcc_stats),
               "--input", str(workspace / "data" / "spk0_000.vtnf"),
               "--tgt-spk", "spk1", "--out", str(out)])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.err == "error: statistics are for 6 MCCs, features have 28\n"
    assert "frames out" not in captured.out
    assert not out.exists()


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["convert"])  # missing required flags
    assert exc.value.code == 2


def test_train_short_run_and_log(workspace, tmp_path, capsys):
    assert main(["train", "--data", str(workspace / "data"),
                 "--stats", str(workspace / "stats.vtns"),
                 "--out", str(tmp_path / "run"), *TINY,
                 "--set", "train.iterations=2",
                 "--set", "train.batch_size=1",
                 "--log-every", "1"]) == 0
    assert "finished at iter 2" in capsys.readouterr().out
    log = (tmp_path / "run" / "train_log.tsv").read_text().splitlines()
    assert len(log) == 2


def test_train_divergence_exit_and_salvage(workspace, tmp_path, capsys):
    # poison a checkpoint so the very next step produces a non-finite loss
    model = VtnModel.load(workspace / "run" / "final.vtnm")
    model.params["enc.0.sa.W1"].data[0, 0] = np.nan
    run = tmp_path / "run"
    run.mkdir()
    model.save(run / "bad.vtnm")
    (run / "bad.vtno").write_bytes(
        (workspace / "run" / "final.vtno").read_bytes())
    rc = main(["train", "--data", str(workspace / "data"),
               "--stats", str(workspace / "stats.vtns"),
               "--out", str(run), *TINY,
               "--set", "train.iterations=3",
               "--set", "train.batch_size=1",
               "--resume", str(run / "bad")])
    assert rc == 1
    assert "non-finite" in capsys.readouterr().err
    salvage = VtnModel.load(run / "last_good.vtnm")
    assert np.isnan(salvage.params["enc.0.sa.W1"].data[0, 0])


def test_train_resume_with_mismatched_moments_exits_1(workspace, tmp_path, capsys):
    run = tmp_path / "run"
    assert main(["train", "--data", str(workspace / "data"),
                 "--stats", str(workspace / "stats.vtns"), "--out", str(run), *TINY,
                 "--set", "train.iterations=1", "--set", "train.batch_size=1"]) == 0
    iteration, state, _ = load_trainer_state(run / "final.vtno")
    state.m["emb"] = state.v["emb"] = np.zeros((3, 3))
    save_trainer_state(run / "final.vtno", iteration, state, np.random.default_rng(0))
    rc = main(["train", "--data", str(workspace / "data"),
               "--stats", str(workspace / "stats.vtns"), "--out", str(run), *TINY,
               "--set", "train.iterations=2", "--set", "train.batch_size=1",
               "--resume", str(run / "final")])
    assert rc == 1
    err = capsys.readouterr().err
    assert "first moments do not match" in err and "Traceback" not in err


def test_train_resume_without_the_runs_model_config_exits_1(workspace, tmp_path, capsys):
    # the checkpoint holds a TINY model; a resume without those flags is
    # handed the default d = 512
    run = tmp_path / "run"
    rc = main(["train", "--data", str(workspace / "data"),
               "--stats", str(workspace / "stats.vtns"), "--out", str(run),
               "--set", "train.iterations=1", "--resume", str(workspace / "run" / "final")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "d=512 (checkpoint: 8)" in err
    assert "Traceback" not in err and not run.exists()


@pytest.mark.parametrize("row", [b"[1, 2]\n", b'{"x": 1}\n', b'{"iter": "1"}\n'],
                         ids=["list", "no-iter", "str-iter"])
def test_train_resume_ends_metrics_at_a_row_without_an_int_iter(workspace, tmp_path, row):
    run = tmp_path / "run"
    args = ["train", "--data", str(workspace / "data"), "--stats", str(workspace / "stats.vtns"),
            "--out", str(run), *TINY, "--set", "train.batch_size=1"]
    assert main([*args, "--set", "train.iterations=1"]) == 0
    metrics = run / "train_metrics.jsonl"
    with open(metrics, "ab") as fh:
        fh.write(row + b'{"iter": 1}\n')
    assert main([*args, "--set", "train.iterations=2", "--resume", str(run / "final")]) == 0
    assert [json.loads(line)["iter"] for line in metrics.read_text().splitlines()] == [1, 2]


def _convert(workspace, out, extra=()):
    return main(["convert", "--model", str(workspace / "run" / "final.vtnm"),
                 "--stats", str(workspace / "stats.vtns"),
                 "--input", str(workspace / "data" / "spk0_000.vtnf"),
                 "--tgt-spk", "spk1", "--out", str(out), *extra])


def test_convert_reports_frames(workspace, tmp_path, capsys):
    assert _convert(workspace, tmp_path / "out.vtnf") == 0
    text = capsys.readouterr().out
    assert "frames in:" in text and "frames out:" in text and "truncated:" in text
    out = load_features(tmp_path / "out.vtnf")
    assert out.speaker == "spk1"
    assert np.isfinite(out.data).all()


def test_convert_deterministic(workspace, tmp_path):
    assert _convert(workspace, tmp_path / "a.vtnf") == 0
    assert _convert(workspace, tmp_path / "b.vtnf") == 0
    assert (tmp_path / "a.vtnf").read_bytes() == (tmp_path / "b.vtnf").read_bytes()


def test_convert_dump_attention(workspace, tmp_path):
    assert _convert(workspace, tmp_path / "out.vtnf",
                    ("--dump-attn", str(tmp_path / "attn"))) == 0
    files = sorted(p.name for p in (tmp_path / "attn").glob("*.csv"))
    assert len(files) == 1 * 2 + 1  # L*H head files + mean
    assert "mean.csv" in files


def test_convert_takes_decode_mode_from_config(workspace, tmp_path):
    narrow = ("--set", "decode.window_back_ms=8", "--set", "decode.window_fwd_ms=8")
    outs = {}
    for name, extra in [("default", ()), ("flag", ("--mode", "windowed")),
                        ("set", ("--set", "decode.mode=windowed"))]:
        assert _convert(workspace, tmp_path / f"{name}.vtnf", (*narrow, *extra)) == 0
        outs[name] = (tmp_path / f"{name}.vtnf").read_bytes()
    assert outs["set"] == outs["flag"]
    assert outs["set"] != outs["default"]
    # the flag wins over the config
    assert _convert(workspace, tmp_path / "both.vtnf",
                    (*narrow, "--set", "decode.mode=windowed", "--mode", "default")) == 0
    assert (tmp_path / "both.vtnf").read_bytes() == outs["default"]


def test_inspect_reads_dump(workspace, tmp_path, capsys):
    assert _convert(workspace, tmp_path / "out.vtnf",
                    ("--dump-attn", str(tmp_path / "attn"))) == 0
    capsys.readouterr()
    assert main(["inspect", "--attn", str(tmp_path / "attn")]) == 0
    text = capsys.readouterr().out
    assert "head files: 2" in text
    assert "monotone:" in text


@pytest.mark.parametrize("text", ["0.5,x\n0.5,1\n", "0.5,0.5\n0.5\n", "", "0.5,nan\n0.5,1\n"],
                         ids=["non-numeric", "ragged", "empty", "non-finite"])
def test_inspect_malformed_mean_csv(tmp_path, capsys, text):
    (tmp_path / "mean.csv").write_text(text)
    assert main(["inspect", "--attn", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "mean.csv" in err


def test_convert_realtime_preserves_length(workspace, tmp_path, capsys):
    run = tmp_path / "run"
    assert main(["train", "--data", str(workspace / "data"),
                 "--out", str(run), *TINY,
                 "--set", "model.realtime=true",
                 "--set", "train.iterations=0"]) == 0
    src = load_features(workspace / "data" / "spk1_001.vtnf")
    assert main(["convert", "--model", str(run / "final.vtnm"),
                 "--stats", str(workspace / "stats.vtns"),
                 "--input", str(workspace / "data" / "spk1_001.vtnf"),
                 "--tgt-spk", "spk0", "--mode", "realtime",
                 "--out", str(tmp_path / "out.vtnf")]) == 0
    out = load_features(tmp_path / "out.vtnf")
    assert out.n_frames == src.n_frames
    assert "truncated: False" in capsys.readouterr().out


def test_any_to_many_rejects_src_spk_flag(workspace, tmp_path):
    run = tmp_path / "run"
    assert main(["train", "--data", str(workspace / "data"),
                 "--out", str(run), *TINY,
                 "--set", "model.mode=\"any_to_many\"",
                 "--set", "train.iterations=0"]) == 0
    rc = main(["convert", "--model", str(run / "final.vtnm"),
               "--stats", str(workspace / "stats.vtns"),
               "--input", str(workspace / "data" / "spk0_000.vtnf"),
               "--tgt-spk", "spk1", "--src-spk", "spk1",
               "--out", str(tmp_path / "out.vtnf")])
    assert rc == 1


def test_evaluate_identical_pair(workspace, tmp_path, capsys):
    src = workspace / "data" / "spk0_000.vtnf"
    report = tmp_path / "report.csv"
    assert main(["evaluate", "--converted", str(src),
                 "--reference", str(src), "--report", str(report)]) == 0
    rows = list(csv.reader(report.open()))
    assert rows[0] == ["utterance", "src", "tgt", "mcd_db", "lfc", "ldr_pct"]
    assert rows[1][0] == "spk0_000.vtnf"
    assert float(rows[1][3]) == 0.0
    assert abs(float(rows[1][4]) - 1.0) < 1e-12
    assert float(rows[1][5]) == 0.0
    assert rows[2][0] == "mean"


def test_evaluate_directory_matches_per_file(workspace, tmp_path):
    conv = tmp_path / "conv"
    ref = tmp_path / "ref"
    conv.mkdir(); ref.mkdir()
    for name in ("spk0_000.vtnf", "spk0_001.vtnf"):
        seq = load_features(workspace / "data" / name)
        save_features(seq, ref / name)
        seq.data[:seq.n_mcc] *= 1.1
        save_features(seq, conv / name)
    batch = tmp_path / "batch.csv"
    assert main(["evaluate", "--converted", str(conv),
                 "--reference", str(ref), "--report", str(batch)]) == 0
    batch_rows = list(csv.reader(batch.open()))
    assert len(batch_rows) == 4  # header + 2 utterances + mean
    for i, name in enumerate(("spk0_000.vtnf", "spk0_001.vtnf")):
        single = tmp_path / f"single{i}.csv"
        assert main(["evaluate", "--converted", str(conv / name),
                     "--reference", str(ref / name),
                     "--report", str(single)]) == 0
        assert list(csv.reader(single.open()))[1] == batch_rows[1 + i]


def test_evaluate_missing_file_no_partial_report(workspace, tmp_path):
    conv = tmp_path / "conv"
    conv.mkdir()
    seq = load_features(workspace / "data" / "spk0_000.vtnf")
    save_features(seq, conv / "spk0_000.vtnf")
    report = tmp_path / "report.csv"
    rc = main(["evaluate", "--converted", str(conv),
               "--reference", str(tmp_path / "empty"), "--report", str(report)])
    assert rc == 1
    assert not report.exists()


def test_evaluate_truncated_features(workspace, tmp_path, capsys):
    cut = tmp_path / "cut.vtnf"
    cut.write_bytes((workspace / "data" / "spk1_000.vtnf").read_bytes()[:100])
    rc = main(["evaluate", "--converted", str(cut),
               "--reference", str(workspace / "data" / "spk1_000.vtnf"),
               "--report", str(tmp_path / "r.csv")])
    assert rc == 1
    assert capsys.readouterr().err.startswith(f"error: {cut}: truncated")



def test_evaluate_names_the_pair_it_cannot_score(workspace, tmp_path, capsys):
    conv, ref = tmp_path / "conv", tmp_path / "ref"
    conv.mkdir(); ref.mkdir()
    for name in ("spk0_000.vtnf", "spk0_001.vtnf"):
        seq = load_features(workspace / "data" / name)
        save_features(seq, ref / name)
        if name == "spk0_001.vtnf":
            seq.data = seq.data[:, :0]
        save_features(seq, conv / name)
    report = tmp_path / "report.csv"
    rc = main(["evaluate", "--converted", str(conv), "--reference", str(ref),
               "--report", str(report)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {conv / 'spk0_001.vtnf'} against {ref / 'spk0_001.vtnf'}: dtw: ")
    assert not report.exists()

def test_convert_truncated_checkpoint(workspace, tmp_path, capsys):
    cut = tmp_path / "cut.vtnm"
    cut.write_bytes((workspace / "run" / "final.vtnm").read_bytes()[:300])
    rc = main(["convert", "--model", str(cut), "--stats", str(workspace / "stats.vtns"),
               "--input", str(workspace / "data" / "spk0_000.vtnf"),
               "--tgt-spk", "spk1", "--out", str(tmp_path / "out.vtnf")])
    assert rc == 1
    assert capsys.readouterr().err.startswith(f"error: {cut}: truncated")
    assert not (tmp_path / "out.vtnf").exists()


def test_evaluate_mixed_file_dir_rejected(workspace, tmp_path):
    rc = main(["evaluate", "--converted", str(workspace / "data"),
               "--reference", str(workspace / "data" / "spk0_000.vtnf"),
               "--report", str(tmp_path / "r.csv")])
    assert rc == 1


def test_default_config_round_trips(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    assert main(["default-config", "--out", str(cfg_path)]) == 0
    raw = json.loads(cfg_path.read_text())
    assert set(raw) == {"model", "train", "decode"}
    assert raw["model"]["d"] == 512
    assert raw["train"]["lambda_dal"] == 2000.0
    # the emitted file is itself a valid --config input
    assert main(["train", "--data", str(tmp_path), "--out", str(tmp_path / "x"),
                 "--config", str(cfg_path), "--set", "train.iterations=0",
                 *TINY]) == 1  # no corpus.json here, fails at load, not at parse


def test_pipeline_two_runs_byte_identical(tmp_path):
    outputs = []
    for tag in ("a", "b"):
        root = tmp_path / tag
        gen(root / "data", seed=9)
        assert main(["stats", "--data", str(root / "data"),
                     "--out", str(root / "s.vtns")]) == 0
        assert main(["train", "--data", str(root / "data"),
                     "--stats", str(root / "s.vtns"),
                     "--out", str(root / "run"), *TINY,
                     "--set", "train.iterations=2",
                     "--set", "train.batch_size=1"]) == 0
        assert main(["convert", "--model", str(root / "run" / "final.vtnm"),
                     "--stats", str(root / "s.vtns"),
                     "--input", str(root / "data" / "spk0_000.vtnf"),
                     "--tgt-spk", "spk1",
                     "--out", str(root / "out.vtnf")]) == 0
        outputs.append((root / "out.vtnf").read_bytes())
        if tag == "b":
            assert (root / "run" / "final.vtnm").read_bytes() == \
                   (tmp_path / "a" / "run" / "final.vtnm").read_bytes()
    assert outputs[0] == outputs[1]
