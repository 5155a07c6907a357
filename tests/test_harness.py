import json

import numpy as np
import pytest

from avfusion import autodiff as ad
from avfusion import harness
from avfusion.cli import main
from avfusion.data import Dataset, SyntheticConfig, generate_synthetic, save_dataset
from avfusion.harness import (
    ConfigError,
    ReportError,
    SplitFractions,
    gradcheck,
    merge_reports,
    merge_tables,
    prepare_data,
    run_config_from_dict,
    run_sweep,
    train_on_prepared,
    write_sweep_csv,
)
from avfusion.model import clone_params, init_params, load_checkpoint, save_checkpoint

TINY_RUN = {
    "model": {"d_model": 8, "num_layers": 1, "num_heads": 2, "ffn_mult": 2},
    "train": {"epochs": 2, "lr": 1e-3, "batch_size": 4, "seq_len": 100, "seed": 0},
    "data": {"n_clips": 10, "clip_seconds": 5.0, "d_audio_lld": 4, "d_video": 6, "seed": 1},
}


@pytest.fixture(scope="module")
def tiny_dataset():
    return generate_synthetic(SyntheticConfig(**TINY_RUN["data"]))


@pytest.fixture(scope="module")
def tiny_prep(tiny_dataset):
    return prepare_data(tiny_dataset, SplitFractions(), seq_len=100)


@pytest.fixture(scope="module")
def tiny_result(tiny_prep):
    return train_on_prepared(run_config_from_dict(TINY_RUN), tiny_prep)


# --- config parsing ---


def test_run_config_defaults():
    run = run_config_from_dict({"train": {"epochs": 3}})
    assert run.train.lr == 1e-4 and run.train.seq_len == 100 and run.train.batch_size == 16
    assert run.ablation.strategy == "none"
    assert run.splits.train == 0.8 and run.splits.val == 0.2


def test_run_config_ablation_default_probability():
    run = run_config_from_dict({"train": {"epochs": 1},
                                "ablation": {"strategy": "clip_zero"}})
    assert run.ablation.probability == 0.5
    assert run.ablation.modality == "video"


def test_run_config_errors_name_keys():
    with pytest.raises(ConfigError, match="epochs"):
        run_config_from_dict({"train": {}})
    with pytest.raises(ConfigError, match="'wat'"):
        run_config_from_dict({"train": {"epochs": 1, "wat": 5}})
    with pytest.raises(ConfigError, match="train.lr"):
        run_config_from_dict({"train": {"epochs": 1, "lr": 0.0}})
    with pytest.raises(ConfigError, match="splits"):
        run_config_from_dict({"train": {"epochs": 1}, "splits": {"train": 0.9, "val": 0.9}})
    with pytest.raises(ConfigError, match="sigma_video"):
        run_config_from_dict({"train": {"epochs": 1},
                              "data": {"n_clips": 1, "clip_seconds": 1.0, "sigma_video": -1.0}})
    with pytest.raises(ConfigError, match="train section must be a JSON object"):
        run_config_from_dict({"train": 5})
    with pytest.raises(ConfigError, match="model section must be a JSON object"):
        run_config_from_dict({"train": {"epochs": 1}, "model": [["d_model", 8]]})


@pytest.mark.parametrize("section,key,value,message", [
    ("train", "epochs", 2.7, "train.epochs must be an integer, got 2.7"),
    ("train", "batch_size", 16.9, "train.batch_size must be an integer, got 16.9"),
    ("train", "epochs", True, "train.epochs must be a finite number, got True"),
    ("train", "seed", "3", "train.seed must be a finite number, got '3'"),
    ("train", "lr", float("nan"), "train.lr must be a finite number, got nan"),
    ("splits", "val", float("inf"), "splits.val must be a finite number, got inf"),
    ("ablation", "seed", 1.5, "ablation.seed must be an integer, got 1.5"),
])
def test_run_config_numbers_must_be_finite_and_integral_where_counted(section, key, value,
                                                                      message):
    config = {"train": {"epochs": 1}, "ablation": {"strategy": "clip_zero"}}
    config.setdefault(section, {})[key] = value
    with pytest.raises(ConfigError, match=f"^{message}$"):
        run_config_from_dict(config)


def test_run_config_integral_floats_count_as_integers():
    run = run_config_from_dict({"train": {"epochs": 3.0, "batch_size": 8.0}})
    assert (run.train.epochs, run.train.batch_size) == (3, 8)
    assert type(run.train.epochs) is int and type(run.train.batch_size) is int


# --- data preparation ---


def test_prepare_data_split_sizes(tiny_dataset, tiny_prep):
    assert len(tiny_prep.train_windows) == 8  # 8 clips x 1 window, partial tail dropped
    assert len(tiny_prep.val_windows) == 4    # 2 clips x ([0,100) + right-aligned tail)
    assert tiny_prep.d_audio == 60 * 4 and tiny_prep.d_video == 6
    train_ids = {w.clip_id for w in tiny_prep.train_windows}
    val_ids = {w.clip_id for w in tiny_prep.val_windows}
    assert not train_ids & val_ids


def test_prepared_windows_share_the_padded_audio(tiny_prep):
    for w in tiny_prep.train_windows + tiny_prep.val_windows:
        assert not w.audio.flags.owndata and not w.audio.flags.writeable


def test_prepare_data_empty_split_is_error(tiny_dataset):
    with pytest.raises(ConfigError, match="empty partition"):
        prepare_data(tiny_dataset, SplitFractions(train=0.99, val=0.01), seq_len=100)


# --- training ---


def test_training_is_deterministic(tiny_prep):
    run = run_config_from_dict(TINY_RUN)
    a = train_on_prepared(run, tiny_prep)
    b = train_on_prepared(run, tiny_prep)
    assert [r.train_loss for r in a.log] == [r.train_loss for r in b.log]
    for name in a.params:
        np.testing.assert_array_equal(a.params[name].data, b.params[name].data)


def test_training_with_ablation_runs(tiny_prep):
    cfg = dict(TINY_RUN)
    cfg["ablation"] = {"strategy": "frame_zero", "modality": "video",
                       "probability": 0.5, "seed": 7}
    result = train_on_prepared(run_config_from_dict(cfg), tiny_prep)
    assert len(result.log) == 2
    assert np.isfinite([r.train_loss for r in result.log]).all()


def test_checkpoint_roundtrip_preserves_ccc(tiny_result, tiny_prep, tmp_path):
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(tiny_result.params, tiny_result.config, p1)
    params1, config = load_checkpoint(p1)
    s1 = harness.evaluate_windows(params1, config, tiny_prep.val_windows)
    save_checkpoint(params1, config, p2)
    params2, _ = load_checkpoint(p2)
    s2 = harness.evaluate_windows(params2, config, tiny_prep.val_windows)
    assert s1.ccc_valence == s2.ccc_valence and s1.ccc_arousal == s2.ccc_arousal


def test_evaluate_windows_records_no_graph_on_grad_params(tiny_prep, monkeypatch):
    config = harness.model_config_for(run_config_from_dict(TINY_RUN), tiny_prep)
    params = init_params(config, seed=5)
    outputs = []
    real_record = ad._record

    def recording(*args, **kwargs):
        outputs.append(real_record(*args, **kwargs))
        return outputs[-1]

    monkeypatch.setattr(ad, "_record", recording)
    summary = harness.evaluate_windows(params, config, tiny_prep.val_windows)
    monkeypatch.undo()
    assert outputs and not any(out.requires_grad or out._parents for out in outputs)
    assert all(p.requires_grad and not p.grad.any() for p in params.values())
    snapshot = harness.evaluate_windows(clone_params(params), config, tiny_prep.val_windows)
    assert (summary.ccc_valence, summary.ccc_arousal) == (snapshot.ccc_valence,
                                                          snapshot.ccc_arousal)


# --- sweeps ---


def test_sweep_p0_equals_plain_evaluation(tiny_result, tiny_prep):
    plain = harness.evaluate_windows(tiny_result.params, tiny_result.config,
                                     tiny_prep.val_windows)
    rows = run_sweep(tiny_result.params, tiny_result.config, tiny_prep.val_windows,
                     "clip_zero", "video", [0.0], seed=11)
    assert rows[0].ccc_valence == plain.ccc_valence
    assert rows[0].ccc_arousal == plain.ccc_arousal


def test_sweep_p0_identical_across_strategies(tiny_result, tiny_prep):
    rows = [run_sweep(tiny_result.params, tiny_result.config, tiny_prep.val_windows,
                      strategy, "video", [0.0], seed=3)[0]
            for strategy in ("clip_zero", "frame_zero", "frame_repeat")]
    assert len({(r.ccc_valence, r.ccc_arousal) for r in rows}) == 1


def test_sweep_csv_format_and_determinism(tiny_result, tiny_prep, tmp_path):
    rows = run_sweep(tiny_result.params, tiny_result.config, tiny_prep.val_windows,
                     "frame_zero", "video", [1.0, 0.95, 0.0], seed=5)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_sweep_csv(rows, p1)
    write_sweep_csv(rows, p2)
    text = p1.read_text()
    assert text.splitlines()[0] == "strategy,modality,probability,seed,ccc_valence,ccc_arousal"
    assert p1.read_bytes() == p2.read_bytes()
    assert all(len(line.split(",")) == 6 for line in text.splitlines()[1:])


# --- gradcheck ---


def test_gradcheck_passes():
    report = gradcheck(seed=0)
    assert report.passed, f"worst {report.worst_param}: {report.max_rel_err}"
    assert report.max_rel_err < 1e-4


def test_gradcheck_deterministic():
    a, b = gradcheck(seed=3), gradcheck(seed=3)
    assert a.max_rel_err == b.max_rel_err and a.worst_param == b.worst_param


def test_gradcheck_detects_corrupted_backward_rule(monkeypatch):
    real_relu = ad.relu

    def broken_relu(x):
        out = real_relu(x)
        rule = out._backward_rule
        out._backward_rule = lambda g: tuple(1.01 * p for p in rule(g))
        return out

    monkeypatch.setattr(ad, "relu", broken_relu)
    report = gradcheck(seed=0)
    assert not report.passed
    assert report.worst_param  # an affected parameter is named


# --- report merging ---


def _write_csv(path, label_rows):
    lines = ["strategy,modality,probability,seed,ccc_valence,ccc_arousal"] + label_rows
    path.write_text("\n".join(lines) + "\n")


def test_report_merges_two_models(tmp_path):
    a, b = tmp_path / "base.csv", tmp_path / "ablated.csv"
    _write_csv(a, ["clip_zero,video,1.0,0,0.1,0.2"])
    _write_csv(b, ["clip_zero,video,1.0,0,0.3,0.4"])
    labels, keys, models = merge_reports([a, b])
    assert labels == ["base", "ablated"]
    assert keys == [("clip_zero", "video", 1.0)]
    assert models["base"][keys[0]] == (0.1, 0.2)
    assert models["ablated"][keys[0]] == (0.3, 0.4)


def test_report_disjoint_grids_error(tmp_path):
    a, b = tmp_path / "m1.csv", tmp_path / "m2.csv"
    _write_csv(a, ["clip_zero,video,1.0,0,0.1,0.2"])
    _write_csv(b, ["clip_zero,video,0.5,0,0.3,0.4"])
    with pytest.raises(ReportError, match="missing"):
        merge_reports([a, b])


def test_report_remerge_is_idempotent(tmp_path):
    a, b = tmp_path / "base.csv", tmp_path / "ablated.csv"
    _write_csv(a, ["clip_zero,video,1.0,0,0.1,0.2", "clip_zero,video,0.0,0,0.5,0.6"])
    _write_csv(b, ["clip_zero,video,1.0,0,0.3,0.4", "clip_zero,video,0.0,0,0.7,0.8"])
    merged1 = tmp_path / "merged.csv"
    labels, keys, models = merge_reports([a, b])
    harness.write_merged_csv(labels, keys, models, merged1)
    merged2 = tmp_path / "merged2.csv"
    labels2, keys2, models2 = merge_reports([merged1])
    harness.write_merged_csv(labels2, keys2, models2, merged2)
    assert merged1.read_bytes() == merged2.read_bytes()


def test_merge_tables_in_memory_equals_merging_sweep_csvs(tiny_result, tiny_prep, tmp_path):
    tables, paths = {}, []
    for label, seed in (("trained_none", 2), ("trained_clip_zero", 3)):
        rows = run_sweep(tiny_result.params, tiny_result.config, tiny_prep.val_windows,
                         "frame_repeat", "video", [0.0, 1.0, 0.5], seed)
        tables[label] = {(r.strategy, r.modality, r.probability):
                         (r.ccc_valence, r.ccc_arousal) for r in rows}
        paths.append(tmp_path / f"{label}.csv")
        write_sweep_csv(rows, paths[-1])
    merged = merge_tables(tables)
    assert merged == merge_reports(paths)
    assert merged[1] == [("frame_repeat", "video", p) for p in (1.0, 0.5, 0.0)]
    del tables["trained_clip_zero"][("frame_repeat", "video", 0.5)]
    with pytest.raises(ReportError, match="trained_clip_zero missing"):
        merge_tables(tables)


def test_report_averages_multiple_seeds_per_key(tmp_path):
    a = tmp_path / "multi.csv"
    _write_csv(a, ["clip_zero,video,1.0,0,0.1,0.2", "clip_zero,video,1.0,1,0.3,0.4"])
    _, keys, models = merge_reports([a])
    v, ar = models["multi"][keys[0]]
    assert v == pytest.approx(0.2) and ar == pytest.approx(0.3)


# --- CLI ---


@pytest.fixture(scope="module")
def cli_artifacts(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    config = dict(TINY_RUN)
    config_path = root / "run.json"
    config_path.write_text(json.dumps(config))
    data_path = root / "data.avxd"
    ckpt_path = root / "model.ckpt"
    assert main(["synth", "--config", str(config_path), "--out", str(data_path)]) == 0
    assert main(["train", "--config", str(config_path), "--data", str(data_path),
                 "--out", str(ckpt_path), "--log", str(root / "train_log.csv")]) == 0
    return root, config_path, data_path, ckpt_path


def test_cli_synth_deterministic(cli_artifacts):
    root, config_path, data_path, _ = cli_artifacts
    again = root / "data2.avxd"
    assert main(["synth", "--config", str(config_path), "--out", str(again)]) == 0
    assert data_path.read_bytes() == again.read_bytes()


def test_cli_train_deterministic(cli_artifacts):
    root, config_path, data_path, ckpt_path = cli_artifacts
    again = root / "model2.ckpt"
    assert main(["train", "--config", str(config_path), "--data", str(data_path),
                 "--out", str(again)]) == 0
    assert ckpt_path.read_bytes() == again.read_bytes()


def test_cli_eval_sweep_and_report(cli_artifacts):
    root, _, data_path, ckpt_path = cli_artifacts
    out1, out2 = root / "s1.csv", root / "s2.csv"
    argv = ["eval-sweep", "--model", str(ckpt_path), "--data", str(data_path),
            "--strategy", "clip_zero", "--modality", "video", "--seed", "4"]
    assert main(argv + ["--out", str(out1)]) == 0
    assert main(argv + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    lines = out1.read_text().splitlines()
    assert lines[0] == "strategy,modality,probability,seed,ccc_valence,ccc_arousal"
    assert [ln.split(",")[2] for ln in lines[1:]] == ["1.0", "0.7", "0.5", "0.3", "0.0"]
    merged = root / "merged.csv"
    assert main(["report", str(out1), str(out2), "--out", str(merged)]) == 0
    header = merged.read_text().splitlines()[0].split(",")
    assert header == ["strategy", "modality", "probability",
                      "s1_ccc_valence", "s1_ccc_arousal", "s2_ccc_valence", "s2_ccc_arousal"]


def test_cli_invalid_json_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["synth", "--config", str(bad), "--out", str(tmp_path / "x.avxd")]) == 2
    assert "error" in capsys.readouterr().err


def test_cli_negative_sigma_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"n_clips": 2, "clip_seconds": 1.0, "sigma_video": -1.0}))
    assert main(["synth", "--config", str(bad), "--out", str(tmp_path / "x.avxd")]) == 2
    assert "sigma_video" in capsys.readouterr().err


def test_cli_infinite_sigma_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"n_clips": 2, "clip_seconds": 1.0, "sigma_audio": Infinity}')
    assert main(["synth", "--config", str(bad), "--out", str(tmp_path / "x.avxd")]) == 2
    assert "sigma_audio" in capsys.readouterr().err
    assert not (tmp_path / "x.avxd").exists()


def test_cli_train_on_non_finite_features_exits_2(cli_artifacts, tmp_path, capsys):
    _, config_path, _, _ = cli_artifacts
    clip = generate_synthetic(SyntheticConfig(**TINY_RUN["data"])).clips[0]
    clip.audio[3, 1] = np.inf
    save_dataset(Dataset([clip]), tmp_path / "inf.avxd")
    code = main(["train", "--config", str(config_path), "--data", str(tmp_path / "inf.avxd"),
                 "--out", str(tmp_path / "m.ckpt")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "non-finite audio" in err


def test_cli_train_on_unsupported_rate_exits_2(cli_artifacts, tmp_path, capsys):
    _, config_path, _, _ = cli_artifacts
    dataset = generate_synthetic(SyntheticConfig(**TINY_RUN["data"]))
    for clip in dataset.clips:
        clip.fps_a = 50
    save_dataset(dataset, tmp_path / "50fps.avxd")
    code = main(["train", "--config", str(config_path), "--data", str(tmp_path / "50fps.avxd"),
                 "--out", str(tmp_path / "m.ckpt")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "clip 0 has fps_a=50, expected 100" in err
    assert not (tmp_path / "m.ckpt").exists()


def test_cli_report_short_merged_row_exits_2(tmp_path, capsys):
    merged = tmp_path / "merged.csv"
    merged.write_text("strategy,modality,probability,m_ccc_valence,m_ccc_arousal\n"
                      "clip_zero,video,1.0,0.1\n")
    assert main(["report", str(merged), "--out", str(tmp_path / "out.csv")]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "malformed row" in err


@pytest.mark.parametrize("command,section,key,value", [
    ("synth", "data", "sigma_audio", "abc"),
    ("train", "model", "d_model", "abc"),
    ("train", "train", "epochs", None),
    ("train", "train", "epochs", 2.7),
    ("train", "train", "batch_size", True),
])
def test_cli_config_value_of_wrong_type_exits_2(cli_artifacts, tmp_path, capsys,
                                                  command, section, key, value):
    _, _, data_path, _ = cli_artifacts
    config = json.loads(json.dumps(TINY_RUN))
    config[section][key] = value
    path = tmp_path / "bad.json"
    if command == "synth":
        path.write_text(json.dumps(config["data"]))
        argv = ["synth", "--config", str(path), "--out", str(tmp_path / "x.avxd")]
    else:
        path.write_text(json.dumps(config))
        argv = ["train", "--config", str(path), "--data", str(data_path),
                "--out", str(tmp_path / "m.ckpt")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and key in err


def test_cli_eval_sweep_on_non_finite_checkpoint_exits_2(cli_artifacts, tmp_path, capsys):
    _, _, data_path, ckpt_path = cli_artifacts
    params, config = load_checkpoint(ckpt_path)
    params["head.b"].data[1] = np.nan
    save_checkpoint(params, config, tmp_path / "nan.ckpt")
    code = main(["eval-sweep", "--model", str(tmp_path / "nan.ckpt"), "--data", str(data_path),
                 "--strategy", "clip_zero", "--modality", "video",
                 "--out", str(tmp_path / "x.csv")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "non-finite values in param 'head.b'" in err
    assert not (tmp_path / "x.csv").exists()


def test_cli_unknown_strategy_exits_2(cli_artifacts):
    root, _, data_path, ckpt_path = cli_artifacts
    with pytest.raises(SystemExit) as exc:
        main(["eval-sweep", "--model", str(ckpt_path), "--data", str(data_path),
              "--strategy", "explode", "--modality", "video", "--out", str(root / "x.csv")])
    assert exc.value.code == 2


def test_cli_dimension_mismatch_exits_3(cli_artifacts, tmp_path, capsys):
    root, _, _, ckpt_path = cli_artifacts
    other = dict(TINY_RUN["data"])
    other["d_audio_lld"] = 5  # stacked dim will disagree with the checkpoint
    save_dataset(generate_synthetic(SyntheticConfig(**other)), tmp_path / "other.avxd")
    code = main(["eval-sweep", "--model", str(ckpt_path), "--data", str(tmp_path / "other.avxd"),
                 "--strategy", "clip_zero", "--modality", "video",
                 "--out", str(tmp_path / "x.csv")])
    assert code == 3
    assert "dims" in capsys.readouterr().err


def test_cli_gradcheck_passes(capsys):
    assert main(["gradcheck", "--seed", "0"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out


def test_cli_gradcheck_fault_injection(monkeypatch, capsys):
    real_relu = ad.relu

    def broken_relu(x):
        out = real_relu(x)
        rule = out._backward_rule
        out._backward_rule = lambda g: tuple(1.05 * p for p in rule(g))
        return out

    monkeypatch.setattr(ad, "relu", broken_relu)
    assert main(["gradcheck", "--seed", "0"]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out and "worst param" in out
