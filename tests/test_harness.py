import json
import re
import struct

import numpy as np
import pytest

from avfusion import autodiff as ad
from avfusion import harness
from avfusion.augment import AblationSpec
from avfusion.cli import main
from avfusion.data import Dataset, SyntheticConfig, generate_synthetic, save_dataset
from avfusion.harness import (
    ConfigError,
    ReportError,
    RunConfig,
    SplitFractions,
    TrainParams,
    gradcheck,
    load_synthetic_config,
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
    ("data", "n_clips", 3.5, "data.n_clips must be an integer, got 3.5"),
    ("data", "sigma_audio", "abc", "data.sigma_audio must be a finite number, got 'abc'"),
    ("data", "rho", None, "data.rho must be a finite number, got None"),
    ("model", "d_model", 32.5, "model.d_model must be an integer, got 32.5"),
    ("model", "num_heads", True, "model.num_heads must be a finite number, got True"),
])
def test_run_config_numbers_must_be_finite_and_integral_where_counted(section, key, value,
                                                                      message):
    config = {"train": {"epochs": 1}, "ablation": {"strategy": "clip_zero"},
              "data": {"n_clips": 2, "clip_seconds": 1.0}}
    config.setdefault(section, {})[key] = value
    with pytest.raises(ConfigError, match=f"^{message}$"):
        run_config_from_dict(config)


def test_run_config_integral_floats_count_as_integers():
    run = run_config_from_dict({"train": {"epochs": 3.0, "batch_size": 8.0},
                                "model": {"d_model": 32.0, "num_layers": 2},
                                "data": {"n_clips": 3.0, "clip_seconds": 2, "d_video": 4.0}})
    assert (run.train.epochs, run.train.batch_size) == (3, 8)
    assert type(run.train.epochs) is int and type(run.train.batch_size) is int
    assert run.model == {"d_model": 32, "num_layers": 2}
    assert all(type(v) is int for v in run.model.values())
    assert (run.data.n_clips, run.data.d_video, run.data.clip_seconds) == (3, 4, 2.0)
    assert type(run.data.n_clips) is int and type(run.data.clip_seconds) is float


@pytest.mark.parametrize("section,key,value,message", [
    ("train", "seq_len", 0, "train.seq_len must be >= 1"),
    ("train", "seq_len", -4, "train.seq_len must be >= 1"),
    ("train", "seed", -1, "train.seed must be >= 0"),
    ("train", "epochs", 0, "train.epochs must be >= 1"),
    ("train", "batch_size", 0, "train.batch_size must be >= 1"),
    ("splits", "val", 0.0, "splits.train/splits.val must be positive with sum <= 1"),
    ("ablation", "probability", 1.5, "probability must be in [0, 1], got 1.5"),
])
def test_run_config_range_errors_name_keys(section, key, value, message):
    config = {"train": {"epochs": 1}, "ablation": {"strategy": "clip_zero"}}
    config.setdefault(section, {})[key] = value
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        run_config_from_dict(config)


@pytest.mark.parametrize("path", [None, 5, ["d.avxd"]])
def test_run_config_data_path_must_be_a_string(path):
    want = f"^data\\.path must be a string, got {re.escape(repr(path))}$"
    with pytest.raises(ConfigError, match=want):
        run_config_from_dict({"train": {"epochs": 1}, "data": {"path": path}})


def test_run_config_int_beyond_float_range_is_not_finite():
    with pytest.raises(ConfigError, match=r"^train\.lr must be a finite number, got 10+$"):
        run_config_from_dict({"train": {"epochs": 1, "lr": 10**400}})


def test_run_config_defaults_are_the_dataclass_defaults():
    assert run_config_from_dict({"train": {"epochs": 3}}) == RunConfig(TrainParams(epochs=3))
    run = run_config_from_dict({"train": {"epochs": 1}, "ablation": {"strategy": "frame_zero"}})
    assert run.ablation == AblationSpec("frame_zero")


def test_load_synthetic_config_reads_a_data_section_or_a_run_config(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps(TINY_RUN["data"]))
    assert load_synthetic_config(path) == SyntheticConfig(**TINY_RUN["data"])
    path.write_text(json.dumps(TINY_RUN))
    assert load_synthetic_config(path) == SyntheticConfig(**TINY_RUN["data"])
    path.write_text(json.dumps({"train": {"epochs": 1}, "data": {"path": "d.avxd"}}))
    with pytest.raises(ConfigError, match="does not describe a synthetic dataset"):
        load_synthetic_config(path)


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


class _FirstBackward(Exception):
    pass


def test_one_training_step_records_80_ops(tiny_prep, monkeypatch):
    # the study's model: 79 ops of forward graph, and the CCC loss is one more
    run = run_config_from_dict({"model": {"d_model": 32, "num_layers": 2, "num_heads": 4},
                                "train": {"epochs": 1, "batch_size": 4, "seq_len": 100}})
    ops = []
    real_record = ad._record

    def recording(op, *args, **kwargs):
        ops.append(op)
        return real_record(op, *args, **kwargs)

    def stop(loss):
        raise _FirstBackward

    monkeypatch.setattr(ad, "_record", recording)
    monkeypatch.setattr(ad, "backward", stop)
    with pytest.raises(_FirstBackward):
        train_on_prepared(run, tiny_prep)
    assert len(ops) == 80 and ops[-1] == "ccc_loss"
    assert {"sub", "div", "scale", "slice_cols", "mean"}.isdisjoint(ops)


def test_training_leaves_no_grad_on_its_params(tiny_prep, monkeypatch):
    trained = []

    def keeping(config, seed):
        trained.append(init_params(config, seed))
        return trained[-1]

    monkeypatch.setattr(harness, "init_params", keeping)
    result = train_on_prepared(run_config_from_dict(TINY_RUN), tiny_prep)
    (params,) = trained
    fresh = init_params(result.config, TINY_RUN["train"]["seed"])
    assert not np.array_equal(params["head.W"].data, fresh["head.W"].data)  # they were stepped
    assert all(p.requires_grad and p.grad is None for p in params.values())
    assert all(p.grad is None for p in result.params.values())


def test_best_epoch_is_the_first_argmax_and_its_params_are_returned(tiny_prep):
    cfg = {**TINY_RUN, "train": {**TINY_RUN["train"], "epochs": 3, "lr": 1e-2}}
    result = train_on_prepared(run_config_from_dict(cfg), tiny_prep)
    means = [0.5 * (row.ccc_valence + row.ccc_arousal) for row in result.log]
    assert result.best_epoch == int(np.argmax(means)) != len(means) - 1
    best = result.log[result.best_epoch]
    summary = harness.evaluate_windows(result.params, result.config, tiny_prep.val_windows)
    assert (summary.ccc_valence, summary.ccc_arousal) == (best.ccc_valence, best.ccc_arousal)


def test_one_epoch_run_clones_the_params_once(tiny_prep, monkeypatch):
    clones = []

    def counting(params):
        clones.append(params)
        return clone_params(params)

    monkeypatch.setattr(harness, "clone_params", counting)
    cfg = {**TINY_RUN, "train": {**TINY_RUN["train"], "epochs": 1}}
    result = train_on_prepared(run_config_from_dict(cfg), tiny_prep)
    assert len(clones) == 1 and result.best_epoch == 0


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
    assert outputs and not any(out.requires_grad or out._node for out in outputs)
    assert all(p.requires_grad and p.grad is None for p in params.values())
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


def test_report_non_utf8_csv_names_file_and_line(tmp_path):
    path = tmp_path / "m.csv"
    _write_csv(path, ["clip_zero,video,1.0,0,0.1,0.2"])
    path.write_bytes(path.read_bytes().replace(b"video", b"vid\xffo"))
    want = rf"^{re.escape(str(path))}: line 2 is not UTF-8 \(byte 0xff\)$"
    with pytest.raises(ReportError, match=want):
        merge_reports([path])


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


def test_report_merged_duplicate_key_is_error(tmp_path):
    merged = tmp_path / "merged.csv"
    merged.write_text("strategy,modality,probability,m_ccc_valence,m_ccc_arousal\n"
                      "clip_zero,video,1.0,0.1,0.2\n"
                      "clip_zero,video,1.0,0.9,0.9\n")
    want = rf"^{re.escape(str(merged))}: duplicate row for \('clip_zero', 'video', 1\.0\)$"
    with pytest.raises(ReportError, match=want):
        merge_reports([merged])


def test_report_single_model_repeated_row_is_error(tmp_path):
    path = tmp_path / "m.csv"
    _write_csv(path, ["clip_zero,video,1.0,0,0.1,0.2", "clip_zero,video,1.0,1,0.3,0.4",
                      "clip_zero,video,1.0,0,0.1,0.2"])
    want = rf"^{re.escape(str(path))}: duplicate row for \('clip_zero', 'video', 1\.0, 0\)$"
    with pytest.raises(ReportError, match=want):
        merge_reports([path])


def test_report_merged_duplicate_label_is_error(tmp_path):
    merged = tmp_path / "merged.csv"
    merged.write_text("strategy,modality,probability,m_ccc_valence,m_ccc_arousal,"
                      "m_ccc_valence,m_ccc_arousal\n"
                      "clip_zero,video,1.0,0.1,0.2,0.3,0.4\n")
    with pytest.raises(ReportError, match="duplicate model label"):
        merge_reports([merged])


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


@pytest.mark.parametrize("probs,value", [("0,0", "0"), ("1.0,0.5,0.50", "0.5")])
def test_cli_eval_sweep_repeated_probability_exits_2(cli_artifacts, tmp_path, capsys, probs,
                                                     value):
    _, _, data_path, ckpt_path = cli_artifacts
    out = tmp_path / "s.csv"
    assert main(["eval-sweep", "--model", str(ckpt_path), "--data", str(data_path),
                 "--strategy", "clip_zero", "--modality", "video", "--probs", probs,
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: --probs repeats the value {value}\n"
    assert not out.exists()


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
    path = tmp_path / "50fps.avxd"
    save_dataset(generate_synthetic(SyntheticConfig(**TINY_RUN["data"])), path)
    raw = bytearray(path.read_bytes())
    # clip 0's fps_a follows magic, version, count, id, fps_v, T_v and D_v
    raw[28:32] = struct.pack("<I", 50)
    path.write_bytes(bytes(raw))
    code = main(["train", "--config", str(config_path), "--data", str(path),
                 "--out", str(tmp_path / "m.ckpt")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "clip 0 has fps_a=50, expected 100" in err
    assert not (tmp_path / "m.ckpt").exists()


def test_cli_train_on_mixed_feature_widths_exits_2(cli_artifacts, tmp_path, capsys):
    _, config_path, _, _ = cli_artifacts
    dataset = generate_synthetic(SyntheticConfig(**TINY_RUN["data"]))
    dataset.clips[3].video = dataset.clips[3].video[:, :5]
    save_dataset(dataset, tmp_path / "mixed.avxd")
    code = main(["train", "--config", str(config_path), "--data", str(tmp_path / "mixed.avxd"),
                 "--out", str(tmp_path / "m.ckpt")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "clip 3 has D_v=5, but clip 0 has D_v=6" in err


@pytest.mark.parametrize("stream", ["audio", "video"])
def test_cli_train_on_an_empty_stream_exits_2(cli_artifacts, tmp_path, capsys, stream):
    _, config_path, _, _ = cli_artifacts
    dataset = generate_synthetic(SyntheticConfig(**TINY_RUN["data"]))
    clip = dataset.clips[4]
    setattr(clip, stream, getattr(clip, stream)[:0])
    if stream == "video":  # labels share T_v
        clip.labels = clip.labels[:0]
    save_dataset(dataset, tmp_path / "empty.avxd")
    code = main(["train", "--config", str(config_path), "--data", str(tmp_path / "empty.avxd"),
                 "--out", str(tmp_path / "m.ckpt")])
    assert code == 2
    err = capsys.readouterr().err
    assert err == f"error: invariant violation: clip 4 has an empty {stream} stream\n"
    assert not (tmp_path / "m.ckpt").exists()


@pytest.mark.parametrize("command", ["train", "eval-sweep"])
def test_cli_input_with_bytes_after_its_last_record_exits_2(cli_artifacts, tmp_path, capsys,
                                                            command):
    _, config_path, data_path, ckpt_path = cli_artifacts
    damaged = tmp_path / "damaged"
    if command == "train":
        raw = bytearray(data_path.read_bytes())
        raw[8] ^= 0b10  # clip count 10 -> 8: the last two clips become trailing bytes
        damaged.write_bytes(bytes(raw))
        argv = ["train", "--config", str(config_path), "--data", str(damaged),
                "--out", str(tmp_path / "m.ckpt")]
    else:
        damaged.write_bytes(ckpt_path.read_bytes() + b"\0")
        argv = ["eval-sweep", "--model", str(damaged), "--data", str(data_path),
                "--strategy", "clip_zero", "--modality", "video", "--out", str(tmp_path / "s.csv")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "trailing bytes" in err
    assert not (tmp_path / "m.ckpt").exists() and not (tmp_path / "s.csv").exists()


def test_cli_report_short_merged_row_exits_2(tmp_path, capsys):
    merged = tmp_path / "merged.csv"
    merged.write_text("strategy,modality,probability,m_ccc_valence,m_ccc_arousal\n"
                      "clip_zero,video,1.0,0.1\n")
    assert main(["report", str(merged), "--out", str(tmp_path / "out.csv")]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "malformed row" in err


@pytest.mark.parametrize("row,message", [
    ("clip_zero,video,nan,0,inf,7.5", "probability nan outside [0, 1]"),
    ("clip_zero,video,-3,0,nan,0.1", "probability -3.0 outside [0, 1]"),
    ("clip_zero,video,1.5,0,0.1,0.2", "probability 1.5 outside [0, 1]"),
    ("clip_zero,video,0.5,0,inf,0.1", "CCC inf outside [-1, 1]"),
    ("clip_zero,video,0.5,0,0.1,nan", "CCC nan outside [-1, 1]"),
    ("clip_zero,video,0.5,0,0.1,7.5", "CCC 7.5 outside [-1, 1]"),
    ("clip_zero,video,0.5,0,-1.01,0.1", "CCC -1.01 outside [-1, 1]"),
])
def test_cli_report_value_no_sweep_can_produce_exits_2(tmp_path, capsys, row, message):
    path = tmp_path / "m.csv"
    _write_csv(path, ["clip_zero,video,1.0,0,0.1,0.2", row])
    assert main(["report", str(path), "--out", str(tmp_path / "out.csv")]) == 2
    assert capsys.readouterr().err == f"error: {path}: {message} in row {row!r}\n"
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("row", ["clip_zero,video,abc,0,0.1,0.2",   # the probability
                                 "clip_zero,video,0.5,0,0.1,abc"])  # a CCC
def test_cli_report_bad_number_names_the_row_exits_2(tmp_path, capsys, row):
    path = tmp_path / "bad.csv"
    _write_csv(path, ["clip_zero,video,1.0,0,0.1,0.2", row])
    assert main(["report", str(path), "--out", str(tmp_path / "out.csv")]) == 2
    assert capsys.readouterr().err == f"error: {path}: bad number 'abc' in row {row!r}\n"
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("stem", ["a,b", "a\nb", "a\rb"])
def test_cli_report_label_the_merged_header_cannot_hold_exits_2(tmp_path, capsys, stem):
    path, other = tmp_path / f"{stem}.csv", tmp_path / "c.csv"
    for p in (path, other):
        _write_csv(p, ["clip_zero,video,1.0,0,0.1,0.2"])
    assert main(["report", str(path), str(other), "--out", str(tmp_path / "m.csv")]) == 2
    assert capsys.readouterr().err == (f"error: {str(path)!r}: model label {stem!r} contains "
                                       "a comma or line break\n")
    assert not (tmp_path / "m.csv").exists()


@pytest.mark.parametrize("columns", ["a_ccc_valence,zzz", "a_ccc_valence",
                                     "a_ccc_valence,b_ccc_arousal"])
def test_report_merged_header_must_pair_each_label(tmp_path, columns):
    path = tmp_path / "merged.csv"
    cells = ",".join(["0.1"] * len(columns.split(",")))
    path.write_text(f"strategy,modality,probability,{columns}\nclip_zero,video,1.0,{cells}\n")
    with pytest.raises(ReportError, match=f"^{re.escape(str(path))}: un"):
        harness.read_sweep_results(path)


@pytest.mark.parametrize("seed", ["nan", "1.5", "inf"])
def test_cli_report_non_integer_seed_exits_2(tmp_path, capsys, seed):
    # two nan seeds compare unequal, so they would escape the duplicate-row check
    path = tmp_path / "m.csv"
    rows = [f"clip_zero,video,1.0,{seed},0.1,0.2", f"clip_zero,video,1.0,{seed},0.9,0.8"]
    _write_csv(path, rows)
    assert main(["report", str(path), "--out", str(tmp_path / "out.csv")]) == 2
    assert capsys.readouterr().err == (f"error: {path}: seed {seed!r} is not an integer "
                                       f"in row {rows[0]!r}\n")
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("row", ["bogus,video,1.0,0,0.1,0.2", "clip_zero,face,1.0,0,0.1,0.2"])
def test_cli_report_unknown_strategy_or_modality_exits_2(tmp_path, capsys, row):
    path = tmp_path / "m.csv"
    _write_csv(path, ["clip_zero,video,1.0,0,0.1,0.2", row])
    assert main(["report", str(path), "--out", str(tmp_path / "out.csv")]) == 2
    assert capsys.readouterr().err == (f"error: {path}: unknown strategy or modality "
                                       f"in row {row!r}\n")


# every input is missing, so only a check made before any work can name the flag
@pytest.mark.parametrize("argv,flag", [
    (["synth", "--config", "in.json", "--out", "nodir/data.avxd"], "--out"),
    (["train", "--config", "in.json", "--out", "nodir/model.ckpt"], "--out"),
    (["train", "--config", "in.json", "--out", "model.ckpt", "--log", "nodir/log.csv"], "--log"),
    (["eval-sweep", "--model", "m.ckpt", "--data", "d.avxd", "--strategy", "clip_zero",
      "--modality", "video", "--out", "nodir/sweep.csv"], "--out"),
    (["report", "s.csv", "--out", "nodir/merged.csv"], "--out"),
])
def test_cli_missing_output_directory_exits_2_before_any_work(tmp_path, monkeypatch, capsys,
                                                              argv, flag):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {flag}: directory 'nodir' does not exist\n"
    assert list(tmp_path.iterdir()) == []


def test_report_accepts_the_bounds_of_each_range(tmp_path):
    path = tmp_path / "m.csv"
    _write_csv(path, ["clip_zero,video,0.0,0,-1.0,1.0", "clip_zero,video,1.0,0,1.0,-1.0"])
    (table,) = harness.read_sweep_results(path).values()
    assert table == {("clip_zero", "video", 0.0): (-1.0, 1.0),
                     ("clip_zero", "video", 1.0): (1.0, -1.0)}


def test_cli_synth_more_clips_than_u32_ids_exits_2(tmp_path, capsys):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"n_clips": 10000000000000, "clip_seconds": 1.0}))
    assert main(["synth", "--config", str(path), "--out", str(tmp_path / "x.avxd")]) == 2
    assert capsys.readouterr().err == ("error: data.n_clips must be in [1, 4294967295] "
                                       "(clip ids are u32), got 10000000000000\n")
    assert not (tmp_path / "x.avxd").exists()


def test_cli_synth_dataset_too_large_to_allocate_exits_2(tmp_path, capsys):
    path = tmp_path / "huge.json"
    # 2**32 - 1 clips of 15M frames: about 1e18 bytes of labels alone
    path.write_text(json.dumps({"n_clips": 4294967295, "clip_seconds": 500000.0}))
    assert main(["synth", "--config", str(path), "--out", str(tmp_path / "x.avxd")]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: Unable to allocate")
    assert not (tmp_path / "x.avxd").exists()


def test_cli_gradcheck_negative_seed_exits_2(capsys):
    assert main(["gradcheck", "--seed", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: --seed must be >= 0, got -1\n" and captured.out == ""


def test_cli_eval_sweep_negative_seed_exits_2_before_loading_anything(tmp_path, capsys):
    # neither input exists, so only a check made before loading can name the seed
    out = tmp_path / "s.csv"
    assert main(["eval-sweep", "--model", str(tmp_path / "missing.ckpt"),
                 "--data", str(tmp_path / "missing.avxd"), "--strategy", "clip_zero",
                 "--modality", "video", "--seed", "-3", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: --seed must be >= 0, got -3\n" and captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("command,section,value,message", [
    ("train", "ablation", {"strategy": "frame_zero", "seed": -5},
     "ablation.seed must be >= 0, got -5"),
    ("synth", "data", dict(TINY_RUN["data"], seed=-2), "data.seed must be >= 0, got -2"),
])
def test_cli_negative_seed_in_a_config_section_exits_2(cli_artifacts, tmp_path, capsys,
                                                       command, section, value, message):
    _, _, data_path, _ = cli_artifacts
    config = {"model": TINY_RUN["model"], "train": TINY_RUN["train"], section: value}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out.bin"
    argv = [command, "--config", str(path), "--out", str(out)]
    assert main(argv + (["--data", str(data_path)] if command == "train" else [])) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


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


@pytest.mark.parametrize("command", ["synth", "train"])
def test_cli_non_utf8_config_names_the_file(cli_artifacts, tmp_path, capsys, command):
    _, config_path, data_path, _ = cli_artifacts
    path = tmp_path / "bad.json"
    path.write_bytes(config_path.read_bytes().replace(b'"seed"', b'"se\xffd"', 1))
    out = tmp_path / "out"
    if command == "synth":
        argv = ["synth", "--config", str(path), "--out", str(out)]
    else:
        argv = ["train", "--config", str(path), "--data", str(data_path), "--out", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err == f"error: {path}: line 1 is not UTF-8 (byte 0xff)\n"
    assert not out.exists()


@pytest.mark.parametrize("key,value,message", [
    ("seq_len", 0, "train.seq_len must be >= 1"),  # window_clips would never finish
    ("seed", -1, "train.seed must be >= 0"),
])
def test_cli_train_param_out_of_range_exits_2(cli_artifacts, tmp_path, capsys, key, value,
                                              message):
    _, _, data_path, _ = cli_artifacts
    config = json.loads(json.dumps(TINY_RUN))
    config["train"][key] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(config))
    assert main(["train", "--config", str(path), "--data", str(data_path),
                 "--out", str(tmp_path / "m.ckpt")]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("key,value,source", [
    ("seq_len", 50, "train.seq_len"),
    ("d_audio", 12, "the data"),
    ("d_video", 6, "the data"),  # even the data's own width
])
def test_cli_train_with_a_model_key_the_inputs_fix_exits_2(cli_artifacts, tmp_path, capsys,
                                                          key, value, source):
    _, _, data_path, _ = cli_artifacts
    config = json.loads(json.dumps(TINY_RUN))
    config["model"][key] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "m.ckpt"
    assert main(["train", "--config", str(path), "--data", str(data_path),
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err == (f"error: model.{key} cannot be set: "
                                       f"its value comes from {source}\n")
    assert not out.exists()


def test_cli_train_with_a_model_too_large_to_allocate_exits_2(cli_artifacts, tmp_path, capsys):
    _, _, data_path, _ = cli_artifacts
    config = json.loads(json.dumps(TINY_RUN))
    config["model"]["d_model"] = 1099511627776  # 2**40: numpy refuses before allocating
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(config))
    assert main(["train", "--config", str(path), "--data", str(data_path),
                 "--out", str(tmp_path / "m.ckpt")]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: Unable to allocate")
    assert not (tmp_path / "m.ckpt").exists()


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
