import json
import re
import struct
import subprocess
import sys
import threading
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from avfusion import autodiff as ad
from avfusion import harness
from avfusion.augment import MODALITIES, STRATEGIES, AblationSpec, ablate_sequence
from avfusion.cli import main
from avfusion.data import Dataset, SyntheticConfig, Window, generate_synthetic, save_dataset
from avfusion.harness import (
    ConfigError,
    ReportError,
    RunConfig,
    SplitFractions,
    TrainParams,
    gradcheck,
    load_synthetic_config,
    merge_reports,
    merged_keys,
    prepare_data,
    run_config_from_dict,
    run_sweep,
    train_on_prepared,
)
from avfusion.model import (
    ModelConfig,
    clone_params,
    init_params,
    load_checkpoint,
    param_count,
    save_checkpoint,
)

TINY_RUN = {
    "model": {"d_model": 8, "num_layers": 1, "num_heads": 2, "ffn_mult": 2},
    "train": {"epochs": 2, "lr": 1e-3, "batch_size": 4, "seq_len": 100, "seed": 0},
}
TINY_DATA = {"n_clips": 10, "clip_seconds": 5.0, "d_audio_lld": 4, "d_video": 6, "seed": 1}


@pytest.fixture(scope="module")
def tiny_dataset():
    return generate_synthetic(SyntheticConfig(**TINY_DATA))


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
    assert run.ablation is None  # no ablation: the run trains on clean windows


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
    ("ablation", "seed", 1.5, "ablation.seed must be an integer, got 1.5"),
    ("model", "d_model", 32.5, "model.d_model must be an integer, got 32.5"),
    ("model", "num_heads", True, "model.num_heads must be a finite number, got True"),
])
def test_run_config_numbers_must_be_finite_and_integral_where_counted(section, key, value,
                                                                      message):
    config = {"train": {"epochs": 1}, "ablation": {"strategy": "clip_zero"}}
    config.setdefault(section, {})[key] = value
    with pytest.raises(ConfigError, match=f"^{message}$"):
        run_config_from_dict(config)


def test_run_config_integral_floats_count_as_integers():
    run = run_config_from_dict({"train": {"epochs": 3.0, "batch_size": 8.0},
                                "model": {"d_model": 32.0, "num_layers": 2}})
    assert (run.train.epochs, run.train.batch_size) == (3, 8)
    assert type(run.train.epochs) is int and type(run.train.batch_size) is int
    assert run.model == {"d_model": 32, "num_layers": 2}
    assert all(type(v) is int for v in run.model.values())


@pytest.mark.parametrize("section,key,value,message", [
    ("train", "seq_len", 0, "train.seq_len must be >= 1"),
    ("train", "seq_len", -4, "train.seq_len must be >= 1"),
    ("train", "seed", -1, "train.seed must be >= 0"),
    ("train", "epochs", 0, "train.epochs must be >= 1"),
    ("train", "batch_size", 0, "train.batch_size must be >= 1"),
    ("ablation", "probability", 1.5, "probability must be in [0, 1], got 1.5"),
])
def test_run_config_range_errors_name_keys(section, key, value, message):
    config = {"train": {"epochs": 1}, "ablation": {"strategy": "clip_zero"}}
    config.setdefault(section, {})[key] = value
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        run_config_from_dict(config)


def test_run_config_int_beyond_float_range_is_not_finite():
    with pytest.raises(ConfigError, match=r"^train\.lr must be a finite number, got 10+$"):
        run_config_from_dict({"train": {"epochs": 1, "lr": 10**400}})


def test_run_config_defaults_are_the_dataclass_defaults():
    assert run_config_from_dict({"train": {"epochs": 3}}) == RunConfig(TrainParams(epochs=3))
    run = run_config_from_dict({"train": {"epochs": 1}, "ablation": {"strategy": "frame_zero"}})
    assert run.ablation == AblationSpec("frame_zero")


def test_load_synthetic_config_reads_a_bare_object_only(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps(TINY_DATA))
    assert load_synthetic_config(path) == SyntheticConfig(**TINY_DATA)
    path.write_text(json.dumps({**TINY_RUN, "data": TINY_DATA}))  # a run config around it
    with pytest.raises(ConfigError, match="^unknown key 'model' in section 'data'$"):
        load_synthetic_config(path)


@pytest.mark.parametrize("key,value,message", [
    ("n_clips", 3.5, "data.n_clips must be an integer, got 3.5"),
    ("sigma_audio", "abc", "data.sigma_audio must be a finite number, got 'abc'"),
    ("rho", None, "data.rho must be a finite number, got None"),
    ("sigma_video", -1.0, "sigma_video must be finite and >= 0"),
    ("path", "d.avxd", "unknown key 'path' in section 'data'"),
])
def test_synthetic_config_errors_name_keys(tmp_path, key, value, message):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"n_clips": 2, "clip_seconds": 1.0, key: value}))
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        load_synthetic_config(path)


def test_synthetic_config_integral_floats_count_as_integers(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"n_clips": 3.0, "clip_seconds": 2, "d_video": 4.0}))
    config = load_synthetic_config(path)
    assert (config.n_clips, config.d_video, config.clip_seconds) == (3, 4, 2.0)
    assert type(config.n_clips) is int and type(config.clip_seconds) is float


# --- data preparation ---


def test_prepare_data_split_sizes(tiny_dataset, tiny_prep):
    assert len(tiny_prep.train_windows) == 8  # 8 clips x 1 window, partial tail dropped
    assert len(tiny_prep.val_windows) == 4    # 2 clips x ([0,100) + right-aligned tail)
    for w in tiny_prep.train_windows + tiny_prep.val_windows:
        assert w.audio.shape[1] == 60 * 4 and w.video.shape[1] == 6
    train_ids = {w.clip_id for w in tiny_prep.train_windows}
    val_ids = {w.clip_id for w in tiny_prep.val_windows}
    assert not train_ids & val_ids


def test_prepared_windows_share_the_padded_audio(tiny_prep):
    for w in tiny_prep.train_windows + tiny_prep.val_windows:
        assert not w.audio.flags.owndata and not w.audio.flags.writeable


def test_prepare_data_empty_split_is_error(tiny_dataset):
    # 0.2 of 4 clips rounds down to no val clip
    with pytest.raises(ConfigError, match=r"empty partition \(3 train / 0 val clips from 4\)"):
        prepare_data(Dataset(tiny_dataset.clips[:4]), SplitFractions(), seq_len=100)


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


def test_training_on_windows_of_another_seq_len_is_refused_before_the_first_step(
        tiny_prep, monkeypatch):
    def never(*args):
        raise AssertionError("model_forward called")

    monkeypatch.setattr(harness, "model_forward", never)
    cfg = {**TINY_RUN, "train": {**TINY_RUN["train"], "seq_len": 50}}
    with pytest.raises(ConfigError, match="^windows are prepared at seq_len 100, "
                                          "but train.seq_len is 50$"):
        train_on_prepared(run_config_from_dict(cfg), tiny_prep)


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


def random_windows(n, seq_len, d_audio, d_video, seed=0):
    rng = np.random.default_rng(seed)
    return [Window(clip_id=i, start=0, audio=rng.normal(size=(seq_len, d_audio)),
                   video=rng.normal(size=(seq_len, d_video)),
                   labels=rng.uniform(-1.0, 1.0, (seq_len, 2))) for i in range(n)]


SMALL_EVAL = ModelConfig(d_audio=6, d_video=5, num_layers=1, d_model=4, num_heads=2,
                         ffn_mult=1, seq_len=5)


# the `none` cases score clean windows: no spec
SPECS = [pytest.param(None, id="none"), *STRATEGIES]


@pytest.mark.parametrize("modality", MODALITIES)
@pytest.mark.parametrize("strategy", SPECS)
def test_evaluation_keys_streams_by_global_window_position(strategy, modality):
    # 70 windows: two full evaluation chunks and part of a third, so a stream
    # restarted at every chunk would corrupt windows 32..69 differently
    assert harness._EVAL_CHUNK < 40
    windows = random_windows(70, SMALL_EVAL.seq_len, SMALL_EVAL.d_audio, SMALL_EVAL.d_video)
    params = clone_params(init_params(SMALL_EVAL, seed=2))
    if strategy is None:
        # no spec scores what probability 0 of a strategy scores
        spec = None
        want = harness.evaluate_windows(params, SMALL_EVAL, windows,
                                        AblationSpec("frame_repeat", modality, 0.0, seed=6))
    else:
        spec = AblationSpec(strategy, modality, 0.5, seed=6)
        by_hand = [replace(w, **{modality: ablate_sequence(getattr(w, modality), spec, i)})
                   for i, w in enumerate(windows)]
        want = harness.evaluate_windows(params, SMALL_EVAL, by_hand)
    assert harness.evaluate_windows(params, SMALL_EVAL, windows, spec) == want


def test_sweep_point_holds_one_chunk_of_corrupted_copies_at_a_time():
    config = replace(SMALL_EVAL, d_audio=400)
    windows = random_windows(128, config.seq_len, config.d_audio, config.d_video, seed=1)
    params = clone_params(init_params(config, seed=3))
    spec = AblationSpec("frame_zero", "audio", 0.5, seed=4)
    copies = sum(ablate_sequence(w.audio, spec, i).nbytes for i, w in enumerate(windows))
    assert copies == sum(w.audio.nbytes for w in windows)  # every window is corrupted
    tracemalloc.start()
    try:
        run_sweep(params, config, windows, "frame_zero", "audio", [0.5], seed=4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < copies, (peak, copies)


# bounds stated before measuring. A 16-window chunk's corrupted copies take
# 256 kB here, and their stack as much again. Each thread that runs chunks
# holds at most one chunk's copies plus stack: 1.02 MB for two threads, 0.51 MB
# on the worker alone, which runs every chunk inline. A chunk's input kept
# alive while the next chunk is built would add 0.26 MB per thread.
@pytest.mark.parametrize("on_worker,bound", [(False, 1.25e6), (True, 0.64e6)])
def test_sweep_point_frees_each_chunk_before_the_next_is_built(on_worker, bound):
    assert harness._EVAL_CHUNK == 16
    config = replace(SMALL_EVAL, d_audio=400)
    windows = random_windows(128, config.seq_len, config.d_audio, config.d_video, seed=1)
    params = clone_params(init_params(config, seed=3))
    sweep = (params, config, windows, "frame_zero", "audio", [0.5], 4)
    tracemalloc.start()
    try:
        if on_worker:
            ad._worker.submit(run_sweep, *sweep).result()
        else:
            run_sweep(*sweep)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound, peak


@pytest.mark.parametrize("modality", MODALITIES)
@pytest.mark.parametrize("strategy", SPECS)
def test_a_prediction_does_not_depend_on_its_chunk_or_its_thread(strategy, modality,
                                                                 monkeypatch):
    windows = random_windows(45, SMALL_EVAL.seq_len, SMALL_EVAL.d_audio, SMALL_EVAL.d_video,
                             seed=3)
    params = clone_params(init_params(SMALL_EVAL, seed=4))
    spec = None if strategy is None else AblationSpec(strategy, modality, 0.5, seed=8)
    want = harness.evaluate_windows(params, SMALL_EVAL, windows, spec)
    for chunk in (1, 5, 32):  # 32: a full chunk and a partial one of 13 windows
        monkeypatch.setattr(harness, "_EVAL_CHUNK", chunk)
        assert harness.evaluate_windows(params, SMALL_EVAL, windows, spec) == want, chunk
    monkeypatch.undo()
    # on the worker, _share runs every chunk inline
    on_worker = ad._worker.submit(harness.evaluate_windows, params, SMALL_EVAL, windows, spec)
    assert on_worker.result() == want


def test_an_error_in_the_workers_evaluation_chunk_propagates_unchanged(monkeypatch):
    windows = random_windows(3 * harness._EVAL_CHUNK, SMALL_EVAL.seq_len, SMALL_EVAL.d_audio,
                             SMALL_EVAL.d_video, seed=5)
    params = clone_params(init_params(SMALL_EVAL, seed=6))
    want = harness.evaluate_windows(params, SMALL_EVAL, windows)
    real, error = harness.model_forward, RuntimeError("chunk 1 failed")
    failed_on, started = [], threading.Event()

    def failing(audio, video, params, config):
        first = audio.data[:config.seq_len]
        if np.array_equal(first, windows[0].audio):
            # the calling thread always runs chunk 0, so while it waits here
            # chunk 1 can only run on the worker
            assert started.wait(30)
        elif np.array_equal(first, windows[harness._EVAL_CHUNK].audio):
            failed_on.append(threading.current_thread().name)
            started.set()
            raise error
        return real(audio, video, params, config)

    monkeypatch.setattr(harness, "model_forward", failing)
    with pytest.raises(RuntimeError) as caught:
        harness.evaluate_windows(params, SMALL_EVAL, windows)
    assert caught.value is error
    assert len(failed_on) == 1 and failed_on[0].startswith("avfusion-worker")
    monkeypatch.undo()
    assert harness.evaluate_windows(params, SMALL_EVAL, windows) == want


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
    """A merged sweep CSV of one model, labelled by the file stem."""
    label = path.stem
    lines = [f"strategy,modality,probability,{label}_ccc_valence,{label}_ccc_arousal"] + label_rows
    path.write_text("\n".join(lines) + "\n")


def test_report_merges_two_models(tmp_path):
    a, b = tmp_path / "base.csv", tmp_path / "ablated.csv"
    _write_csv(a, ["clip_zero,video,1.0,0.1,0.2"])
    _write_csv(b, ["clip_zero,video,1.0,0.3,0.4"])
    models = merge_reports([a, b])
    keys = merged_keys(models)
    assert list(models) == ["base", "ablated"]
    assert keys == [("clip_zero", "video", 1.0)]
    assert models["base"][keys[0]] == (0.1, 0.2)
    assert models["ablated"][keys[0]] == (0.3, 0.4)


def test_report_disjoint_grids_error(tmp_path):
    a, b = tmp_path / "m1.csv", tmp_path / "m2.csv"
    _write_csv(a, ["clip_zero,video,1.0,0.1,0.2"])
    _write_csv(b, ["clip_zero,video,0.5,0.3,0.4"])
    with pytest.raises(ReportError, match="missing"):
        merge_reports([a, b])


def test_report_non_utf8_csv_names_file_and_line(tmp_path):
    path = tmp_path / "m.csv"
    _write_csv(path, ["clip_zero,video,1.0,0.1,0.2"])
    path.write_bytes(path.read_bytes().replace(b"video", b"vid\xffo"))
    want = rf"^{re.escape(str(path))}: line 2 is not UTF-8 \(byte 0xff\)$"
    with pytest.raises(ReportError, match=want):
        merge_reports([path])


def test_report_remerge_is_idempotent(tmp_path):
    a, b = tmp_path / "base.csv", tmp_path / "ablated.csv"
    _write_csv(a, ["clip_zero,video,1.0,0.1,0.2", "clip_zero,video,0.0,0.5,0.6"])
    _write_csv(b, ["clip_zero,video,1.0,0.3,0.4", "clip_zero,video,0.0,0.7,0.8"])
    merged1 = tmp_path / "merged.csv"
    harness.write_merged_csv(merge_reports([a, b]), merged1)
    merged2 = tmp_path / "merged2.csv"
    harness.write_merged_csv(merge_reports([merged1]), merged2)
    assert merged1.read_bytes() == merged2.read_bytes()


def test_report_orders_keys_by_falling_probability_and_names_a_model_missing_one(tmp_path):
    a, b = tmp_path / "trained_none.csv", tmp_path / "trained_clip_zero.csv"
    rows = [f"frame_repeat,video,{p},0.1,0.2" for p in (0.0, 1.0, 0.5)]
    _write_csv(a, rows)
    _write_csv(b, rows)
    assert merged_keys(merge_reports([a, b])) == [("frame_repeat", "video", p)
                                                  for p in (1.0, 0.5, 0.0)]
    _write_csv(b, rows[:2])
    want = r"trained_clip_zero missing \('frame_repeat', 'video', 0\.5\)"
    with pytest.raises(ReportError, match=want):
        merge_reports([a, b])


def test_report_merged_duplicate_key_is_error(tmp_path):
    merged = tmp_path / "merged.csv"
    merged.write_text("strategy,modality,probability,m_ccc_valence,m_ccc_arousal\n"
                      "clip_zero,video,1.0,0.1,0.2\n"
                      "clip_zero,video,1.0,0.9,0.9\n")
    want = rf"^{re.escape(str(merged))}: duplicate row for \('clip_zero', 'video', 1\.0\)$"
    with pytest.raises(ReportError, match=want):
        merge_reports([merged])


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
    config_path = root / "run.json"
    config_path.write_text(json.dumps(TINY_RUN))
    (root / "data.json").write_text(json.dumps(TINY_DATA))
    data_path = root / "data.avxd"
    ckpt_path = root / "model.ckpt"
    assert main(["synth", "--config", str(root / "data.json"), "--out", str(data_path)]) == 0
    assert main(["train", "--config", str(config_path), "--data", str(data_path),
                 "--out", str(ckpt_path), "--log", str(root / "train_log.csv")]) == 0
    return root, config_path, data_path, ckpt_path


def test_cli_synth_deterministic(cli_artifacts):
    root, _, data_path, _ = cli_artifacts
    again = root / "data2.avxd"
    assert main(["synth", "--config", str(root / "data.json"), "--out", str(again)]) == 0
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
    assert lines[0] == "strategy,modality,probability,model_ccc_valence,model_ccc_arousal"
    assert [ln.split(",")[2] for ln in lines[1:]] == ["1.0", "0.7", "0.5", "0.3", "0.0"]
    merged = root / "merged.csv"
    assert main(["report", str(out1), "--out", str(merged)]) == 0
    assert merged.read_bytes() == out1.read_bytes()


@pytest.fixture(scope="module")
def two_checkpoints(cli_artifacts):
    """The trained checkpoint as a.ckpt, and as b.ckpt with its output bias shifted."""
    root, _, _, ckpt_path = cli_artifacts
    a, b = root / "a.ckpt", root / "b.ckpt"
    a.write_bytes(ckpt_path.read_bytes())
    params, config = load_checkpoint(ckpt_path)
    params["head.b"].data += 0.25
    save_checkpoint(params, config, b)
    return a, b


def eval_sweep(data_path, out, *ckpts, probs="1,0.85,0") -> int:
    return main(["eval-sweep", "--model", *map(str, ckpts), "--data", str(data_path),
                 "--strategy", "frame_zero", "--modality", "audio", f"--probs={probs}",
                 "--seed", "3", "--out", str(out)])


def test_cli_eval_sweep_of_two_checkpoints_equals_report_of_a_sweep_of_each(
        cli_artifacts, two_checkpoints, tmp_path):
    data_path, (a, b) = cli_artifacts[2], two_checkpoints
    for name, ckpts in (("ab", (a, b)), ("a", (a,)), ("b", (b,))):
        assert eval_sweep(data_path, tmp_path / f"{name}.csv", *ckpts) == 0
    merged = tmp_path / "merged.csv"
    assert main(["report", str(tmp_path / "a.csv"), str(tmp_path / "b.csv"),
                 "--out", str(merged)]) == 0
    assert (tmp_path / "ab.csv").read_bytes() == merged.read_bytes()


def test_cli_eval_sweep_columns_follow_the_model_order(cli_artifacts, two_checkpoints, tmp_path,
                                                       capsys):
    data_path, (a, b) = cli_artifacts[2], two_checkpoints
    assert eval_sweep(data_path, tmp_path / "ab.csv", a, b) == 0
    assert eval_sweep(data_path, tmp_path / "ba.csv", b, a) == 0
    models = merge_reports([tmp_path / "ba.csv"])
    assert list(models) == ["b", "a"] and models["a"] != models["b"]
    assert models == merge_reports([tmp_path / "ab.csv"])
    # the printed table is report's, and no line of it ends in a space
    printed = capsys.readouterr().out
    assert printed.endswith(harness.format_merged_table(models) + "\n")
    assert [ln for ln in printed.splitlines() if ln.endswith(" ")] == []


def test_cli_minus_zero_probability_is_the_clean_point(cli_artifacts, two_checkpoints, tmp_path):
    for name, probs in (("minus", "-0,0.5"), ("zero", "0,0.5")):
        assert eval_sweep(cli_artifacts[2], tmp_path / f"{name}.csv", *two_checkpoints,
                          probs=probs) == 0
    assert (tmp_path / "minus.csv").read_text().splitlines()[-1].split(",")[2] == "0.0"
    assert (tmp_path / "minus.csv").read_bytes() == (tmp_path / "zero.csv").read_bytes()
    # a table written with a "-0" row reports it as the clean row
    path, out = tmp_path / "m.csv", tmp_path / "out.csv"
    _write_csv(path, ["clip_zero,video,-0,0.1,0.2"])
    assert main(["report", str(path), "--out", str(out)]) == 0
    assert out.read_text().splitlines()[1] == "clip_zero,video,0.0,0.1,0.2"


def test_cli_eval_sweep_writes_rows_by_falling_probability(cli_artifacts, two_checkpoints,
                                                           tmp_path):
    out = tmp_path / "s.csv"
    assert eval_sweep(cli_artifacts[2], out, *two_checkpoints, probs="0,0.5,1") == 0
    assert [ln.split(",")[2] for ln in out.read_text().splitlines()[1:]] == ["1.0", "0.5", "0.0"]


def sweep_rows(data_path, out, ckpts, strategies, modalities) -> list[str]:
    """The header and rows that eval-sweep writes on the default grids."""
    assert main(["eval-sweep", "--model", *map(str, ckpts), "--data", str(data_path),
                 "--strategy", *strategies, "--modality", *modalities, "--seed", "3",
                 "--out", str(out)]) == 0
    return out.read_text().splitlines()


def test_cli_eval_sweep_of_every_corruption_writes_each_points_single_sweep_bits(
        cli_artifacts, two_checkpoints, tmp_path):
    # p=0 and p=1 are scored once for all corruptions; each row must still be
    # the bits a sweep of its corruption and modality alone writes
    data_path = cli_artifacts[2]
    merged = sweep_rows(data_path, tmp_path / "all.csv", two_checkpoints, STRATEGIES,
                        MODALITIES)
    single = []
    for strategy in STRATEGIES:
        for modality in MODALITIES:
            lines = sweep_rows(data_path, tmp_path / f"{strategy}_{modality}.csv",
                               two_checkpoints, [strategy], [modality])
            assert lines[0] == merged[0]
            single += lines[1:]
    assert len(merged) == 1 + 30 and sorted(merged[1:]) == sorted(single)


def test_cli_eval_sweep_scores_each_distinct_input_once_per_checkpoint(
        cli_artifacts, two_checkpoints, tmp_path, monkeypatch):
    # the default grids hold 30 points per checkpoint: one clean input (p=0),
    # one zero input per modality (p=1) and 18 other points
    calls, evaluate = [], harness.evaluate_windows

    def counted(params, config, windows, spec=None):
        calls.append(spec)
        return evaluate(params, config, windows, spec)

    monkeypatch.setattr(harness, "evaluate_windows", counted)
    lines = sweep_rows(cli_artifacts[2], tmp_path / "all.csv", two_checkpoints, STRATEGIES,
                       MODALITIES)
    assert len(lines) == 1 + 30 and len(calls) == 2 * 21
    assert len(set(calls)) == 21


def test_cli_eval_sweep_two_checkpoints_of_one_stem_exit_2_before_reading_either(
        tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for name in ("x", "y"):
        (tmp_path / name).mkdir()
    assert eval_sweep("d.avxd", "s.csv", "x/m.ckpt", "y/m.ckpt") == 2
    assert capsys.readouterr().err == "error: duplicate model label 'm'\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["x", "y"]


@pytest.mark.parametrize("change,code,message", [
    # model_forward would cut 100-frame windows into 50-frame sequences
    pytest.param({"seq_len": 50}, 2, "{other}: seq_len 50 differs from {first}'s 100",
                 id="seq_len"),
    pytest.param({"d_video": 7}, 3,
                 "{other} expects audio 240 / video 7 dims, data provides 240 / 6", id="widths"),
])
def test_cli_eval_sweep_checkpoint_unlike_the_first_exits_without_a_table(
        cli_artifacts, tmp_path, capsys, change, code, message):
    _, _, data_path, ckpt_path = cli_artifacts
    config = replace(load_checkpoint(ckpt_path)[1], **change)
    other, out = tmp_path / "other.ckpt", tmp_path / "s.csv"
    save_checkpoint(init_params(config, seed=1), config, other)
    assert eval_sweep(data_path, out, ckpt_path, other) == code
    message = message.format(other=repr(str(other)), first=repr(str(ckpt_path)))
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("flags,message", [
    pytest.param(["--probs", "0,0"], "--probs repeats the value 0", id="0,0-0"),
    pytest.param(["--probs", "1.0,0.5,0.50"], "--probs repeats the value 0.5",
                 id="1.0,0.5,0.50-0.5"),
    # one point would get two rows
    pytest.param(["--strategy", "clip_zero", "frame_zero", "clip_zero"],
                 "--strategy repeats the value clip_zero", id="repeated-strategy"),
    pytest.param(["--modality", "audio", "audio"], "--modality repeats the value audio",
                 id="repeated-modality"),
    pytest.param(["--probs", "0,1.5"], "--probs must be in [0, 1], got 1.5", id="above-1"),
    pytest.param(["--probs", "-0.1"], "--probs must be in [0, 1], got -0.1", id="below-0"),
    pytest.param(["--probs", "0.5,nan"], "--probs must be in [0, 1], got nan", id="nan"),
    pytest.param(["--probs", ""], "--probs is empty", id="empty"),
])
def test_cli_eval_sweep_repeated_probability_exits_2(tmp_path, monkeypatch, capsys, flags,
                                                     message):
    # before any file is read: neither input exists
    monkeypatch.chdir(tmp_path)
    assert main(["eval-sweep", "--model", "m.ckpt", "--data", "d.avxd", "--strategy",
                 "clip_zero", "--modality", "video", *flags, "--out", "s.csv"]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert list(tmp_path.iterdir()) == []


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
    clip = generate_synthetic(SyntheticConfig(**TINY_DATA)).clips[0]
    clip.audio[3, 1] = np.inf
    save_dataset(Dataset([clip]), tmp_path / "inf.avxd")
    code = main(["train", "--config", str(config_path), "--data", str(tmp_path / "inf.avxd"),
                 "--out", str(tmp_path / "m.ckpt")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "non-finite audio" in err


def test_cli_synth_overflowing_clip_length_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"n_clips": 1, "clip_seconds": 1e308}))
    assert main(["synth", "--config", str(bad), "--out", str(tmp_path / "x.avxd")]) == 2
    assert capsys.readouterr().err == ("error: clip_seconds must give a finite audio frame "
                                       "count at 100 fps, got 1e+308\n")
    assert not (tmp_path / "x.avxd").exists()


def assert_exits_2_with_one_line_and_no_warning(argv, capsys, message):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert [str(w.message) for w in caught] == []


def test_cli_train_that_diverges_exits_2(cli_artifacts, tmp_path, capsys):
    _, _, data_path, _ = cli_artifacts
    config = json.loads(json.dumps(TINY_RUN))
    config["train"].update(lr=1e300, epochs=1)  # the second step's params overflow a matmul
    config_path = tmp_path / "run.json"
    config_path.write_text(json.dumps(config))
    out = tmp_path / "m.ckpt"
    assert_exits_2_with_one_line_and_no_warning(
        ["train", "--config", str(config_path), "--data", str(data_path), "--out", str(out)],
        capsys, "matmul produced non-finite values")
    assert not out.exists()


def test_cli_eval_sweep_on_weights_that_overflow_the_predictions_exits_2(cli_artifacts,
                                                                       tmp_path, capsys):
    # f32 weights cannot overflow a float64 forward, whose largest values stay
    # near 1e194 here; the CCC's squared deviations from them do
    _, _, data_path, ckpt_path = cli_artifacts
    params, config = load_checkpoint(ckpt_path)
    signs = np.random.default_rng(5)
    for p in params.values():
        p.data[...] = np.where(signs.random(p.data.shape) < 0.5, -3e38, 3e38)
    big, out = tmp_path / "big.ckpt", tmp_path / "s.csv"
    save_checkpoint(params, config, big)
    assert_exits_2_with_one_line_and_no_warning(
        ["eval-sweep", "--model", str(big), "--data", str(data_path), "--strategy", "clip_zero",
         "--modality", "video", "--out", str(out)],
        capsys, "ccc: moments overflow the float range")
    assert not out.exists()


def assert_train_exits_2_on_a_config_section(data_path, tmp_path, capsys, section, value):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({**TINY_RUN, section: value}))
    out = tmp_path / "m.ckpt"
    assert main(["train", "--config", str(path), "--data", str(data_path),
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: unknown key {section!r} in section 'run'\n"
    assert not out.exists()


def test_cli_train_on_a_config_naming_a_dataset_file_exits_2(cli_artifacts, tmp_path, capsys):
    # `train --data` is the one way to give the dataset
    _, _, data_path, _ = cli_artifacts
    assert_train_exits_2_on_a_config_section(data_path, tmp_path, capsys, "data",
                                             {"path": str(data_path)})


def test_cli_train_on_a_config_with_a_splits_section_exits_2(cli_artifacts, tmp_path, capsys):
    # prepare_data splits the dataset 0.8/0.2, whatever the run
    _, _, data_path, _ = cli_artifacts
    assert_train_exits_2_on_a_config_section(data_path, tmp_path, capsys, "splits",
                                             {"train": 0.9, "val": 0.1})


def test_cli_train_with_a_none_ablation_exits_2(cli_artifacts, tmp_path, capsys):
    # a run with no ablation has no `ablation` section; `none` would ignore three keys
    _, _, data_path, _ = cli_artifacts
    path = tmp_path / "run.json"
    path.write_text(json.dumps({**TINY_RUN, "ablation": {
        "strategy": "none", "modality": "audio", "probability": 0.9, "seed": 5}}))
    out = tmp_path / "m.ckpt"
    assert main(["train", "--config", str(path), "--data", str(data_path),
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err == ("error: unknown strategy 'none', "
                                       f"expected one of {STRATEGIES}\n")
    assert not out.exists()


def test_cli_synth_on_a_run_config_exits_2(cli_artifacts, tmp_path, capsys):
    _, config_path, _, _ = cli_artifacts
    out = tmp_path / "x.avxd"
    assert main(["synth", "--config", str(config_path), "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: unknown key 'model' in section 'data'\n"
    assert not out.exists()


@pytest.mark.parametrize("argv,message", [
    pytest.param([], "the following arguments are required: command", id="no-command"),
    pytest.param(["fit"], "argument command: invalid choice: 'fit'", id="unknown-command"),
    pytest.param(["report"], "the following arguments are required: csvs, --out",
                 id="report-without-arguments"),
    pytest.param(["train", "--config", "run.json", "--out", "m.ckpt"],
                 "the following arguments are required: --data", id="train-without-data"),
    pytest.param(["eval-sweep", "--model", "m.ckpt", "--data", "d.avxd", "--strategy",
                  "clip_zero", "--modality", "video", "--config", "run.json", "--out", "s.csv"],
                 "unrecognized arguments: --config run.json", id="eval-sweep-with-config"),
    pytest.param(["report", "a.csv", "--out", "m.csv", "x\ny"],
                 "unrecognized arguments: x\\ny", id="unknown-argument-with-a-line-break"),
    pytest.param(["eval-sweep", "--model", "m.ckpt", "--data", "d.avxd", "--strategy",
                  "clip_zero", "--modality", "face", "--out", "s.csv"],
                 "argument --modality: invalid choice: 'face'", id="bad-choice"),
    pytest.param(["gradcheck", "--seed", "1.5"], "argument --seed: invalid int value: '1.5'",
                 id="non-integer-seed"),
])
def test_cli_argument_error_is_one_line_and_exits_2(tmp_path, monkeypatch, capsys, argv,
                                                    message):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    captured = capsys.readouterr()
    # a choice's message goes on to list the choices
    assert captured.err.startswith(f"error: {message}") and captured.err.count("\n") == 1
    assert captured.err.endswith("\n") and captured.out == ""
    assert list(tmp_path.iterdir()) == []


def test_cli_help_exits_0(capsys):
    assert main(["report", "-h"]) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("usage: avfusion report ") and captured.err == ""
    assert "merged CSV files that eval-sweep or report wrote" in captured.out


@pytest.mark.parametrize("argv,message", [
    (["train", "--config", "run.json", "--data", "data.avxd", "--out", "m.ckpt",
      "--log", "m.ckpt"], "--log: 'm.ckpt' is also --out"),
    (["train", "--config", "run.json", "--data", "data.avxd", "--out", "./run.json"],
     "--out: './run.json' is also --config"),
    (["eval-sweep", "--model", "m.ckpt", "--data", "data.avxd", "--strategy", "clip_zero",
      "--modality", "video", "--out", "m.ckpt"], "--out: 'm.ckpt' is also --model"),
    (["report", "a.csv", "b.csv", "--out", "b.csv"], "--out: 'b.csv' is also a report input"),
])
def test_cli_output_naming_another_path_of_the_command_exits_2_before_any_work(
        tmp_path, monkeypatch, capsys, argv, message):
    monkeypatch.chdir(tmp_path)
    for name in ("run.json", "m.ckpt", "a.csv", "b.csv"):
        (tmp_path / name).write_text("kept")
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert all(p.read_text() == "kept" for p in tmp_path.iterdir())


def test_cli_train_with_seq_len_beyond_every_clip_exits_2_with_one_line(cli_artifacts, tmp_path,
                                                                         capsys, caplog):
    # a warning per skipped clip would print before the error, on stderr
    _, _, data_path, _ = cli_artifacts
    config = json.loads(json.dumps(TINY_RUN))
    config["train"]["seq_len"] = 100000
    path = tmp_path / "run.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "m.ckpt"
    assert main(["train", "--config", str(path), "--data", str(data_path),
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err == ("error: every train clip is shorter than seq_len "
                                       "100000: the longest has 150 frames\n")
    assert caplog.records == []
    assert not out.exists()


def test_prepare_data_windows_a_split_with_some_short_clips(tiny_dataset, caplog):
    clips = list(tiny_dataset.clips)
    short = clips[0]
    clips[0] = replace(short, audio=short.audio[:100], video=short.video[:30],
                       labels=short.labels[:30])
    with caplog.at_level("WARNING"):
        prep = prepare_data(Dataset(clips), SplitFractions(), seq_len=100)
    assert len(prep.train_windows) == 7  # the tiny_prep's 8 less the short clip's
    assert [r.getMessage() for r in caplog.records] == [
        "1 of 8 clips shorter than seq_len 100, skipped"]


def test_cli_train_on_unsupported_rate_exits_2(cli_artifacts, tmp_path, capsys):
    _, config_path, _, _ = cli_artifacts
    path = tmp_path / "50fps.avxd"
    save_dataset(generate_synthetic(SyntheticConfig(**TINY_DATA)), path)
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
    dataset = generate_synthetic(SyntheticConfig(**TINY_DATA))
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
    dataset = generate_synthetic(SyntheticConfig(**TINY_DATA))
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
@pytest.mark.parametrize("stream,field", [("audio", "D_a"), ("video", "D_v")])
def test_cli_on_a_zero_width_stream_exits_2(cli_artifacts, tmp_path, capsys, command, stream,
                                            field):
    _, config_path, _, ckpt_path = cli_artifacts
    dataset = generate_synthetic(SyntheticConfig(**TINY_DATA))
    for clip in dataset.clips:
        setattr(clip, stream, getattr(clip, stream)[:, :0])
    data = tmp_path / "narrow.avxd"
    save_dataset(dataset, data)
    out = tmp_path / "out"
    if command == "train":
        argv = ["train", "--config", str(config_path), "--data", str(data), "--out", str(out)]
    else:
        argv = ["eval-sweep", "--model", str(ckpt_path), "--data", str(data),
                "--strategy", "clip_zero", "--modality", "video", "--out", str(out)]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: invariant violation: clip 0 has {field}=0\n"
    assert not out.exists()


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


@pytest.mark.parametrize("text,message", [
    # the single-model CSV of an older eval-sweep
    ("strategy,modality,probability,seed,ccc_valence,ccc_arousal\n",
     "unrecognized CSV header 'strategy,modality,probability,seed,ccc_valence,ccc_arousal'"),
    ("strategy,modality,probability,m_ccc_valence,m_ccc_arousal\n", "no rows"),
    ("strategy,modality,probability\nclip_zero,video,1.0\n",  # a merged CSV of no model
     "unrecognized CSV header 'strategy,modality,probability'"),
])
def test_cli_report_csv_without_results_exits_2(tmp_path, capsys, text, message):
    path = tmp_path / "e.csv"
    path.write_text(text)
    assert main(["report", str(path), "--out", str(tmp_path / "m.csv")]) == 2
    assert capsys.readouterr().err == f"error: {path}: {message}\n"
    assert not (tmp_path / "m.csv").exists()


@pytest.mark.parametrize("row,message", [
    ("clip_zero,video,nan,inf,7.5", "probability nan outside [0, 1]"),
    ("clip_zero,video,-3,nan,0.1", "probability -3.0 outside [0, 1]"),
    ("clip_zero,video,1.5,0.1,0.2", "probability 1.5 outside [0, 1]"),
    ("clip_zero,video,0.5,inf,0.1", "CCC inf outside [-1, 1]"),
    ("clip_zero,video,0.5,0.1,nan", "CCC nan outside [-1, 1]"),
    ("clip_zero,video,0.5,0.1,7.5", "CCC 7.5 outside [-1, 1]"),
    ("clip_zero,video,0.5,-1.01,0.1", "CCC -1.01 outside [-1, 1]"),
])
def test_cli_report_value_no_sweep_can_produce_exits_2(tmp_path, capsys, row, message):
    path = tmp_path / "m.csv"
    _write_csv(path, ["clip_zero,video,1.0,0.1,0.2", row])
    assert main(["report", str(path), "--out", str(tmp_path / "out.csv")]) == 2
    assert capsys.readouterr().err == f"error: {path}: {message} in row {row!r}\n"
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("row", ["clip_zero,video,abc,0.1,0.2",   # the probability
                                 "clip_zero,video,0.5,0.1,abc"])  # a CCC
def test_cli_report_bad_number_names_the_row_exits_2(tmp_path, capsys, row):
    path = tmp_path / "bad.csv"
    _write_csv(path, ["clip_zero,video,1.0,0.1,0.2", row])
    assert main(["report", str(path), "--out", str(tmp_path / "out.csv")]) == 2
    assert capsys.readouterr().err == f"error: {path}: bad number 'abc' in row {row!r}\n"
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("stem", ["a,b", "a\nb", "a\rb"])
def test_cli_eval_sweep_label_the_merged_header_cannot_hold_exits_2(cli_artifacts, tmp_path,
                                                                    capsys, stem):
    _, _, data_path, ckpt_path = cli_artifacts
    path, out = tmp_path / f"{stem}.ckpt", tmp_path / "m.csv"
    path.write_bytes(ckpt_path.read_bytes())
    assert main(["eval-sweep", "--model", str(ckpt_path), str(path), "--data", str(data_path),
                 "--strategy", "clip_zero", "--modality", "video", "--out", str(out)]) == 2
    assert capsys.readouterr().err == (f"error: {str(path)!r}: model label {stem!r} contains "
                                       "a comma or line break\n")
    assert not out.exists()


@pytest.mark.parametrize("columns", ["a_ccc_valence,zzz", "a_ccc_valence",
                                     "a_ccc_valence,b_ccc_arousal"])
def test_report_merged_header_must_pair_each_label(tmp_path, columns):
    path = tmp_path / "merged.csv"
    cells = ",".join(["0.1"] * len(columns.split(",")))
    path.write_text(f"strategy,modality,probability,{columns}\nclip_zero,video,1.0,{cells}\n")
    with pytest.raises(ReportError, match=f"^{re.escape(str(path))}: un"):
        harness.read_sweep_results(path)


# an older `report` wrote `none` rows, each holding the clean score
@pytest.mark.parametrize("row", ["bogus,video,1.0,0.1,0.2", "clip_zero,face,1.0,0.1,0.2",
                                 "none,video,0.3,0.2208,0.0141"])
def test_cli_report_unknown_strategy_or_modality_exits_2(tmp_path, capsys, row):
    path = tmp_path / "m.csv"
    _write_csv(path, ["clip_zero,video,1.0,0.1,0.2", row])
    assert main(["report", str(path), "--out", str(tmp_path / "out.csv")]) == 2
    assert capsys.readouterr().err == (f"error: {path}: unknown strategy or modality "
                                       f"in row {row!r}\n")


# every input is missing, so only a check made before any work can name the flag;
# `afile` is a file, so an output under it has no directory either
@pytest.mark.parametrize("argv,flag", [
    (["synth", "--config", "in.json", "--out", "nodir/data.avxd"], "--out"),
    (["train", "--config", "in.json", "--data", "d.avxd", "--out", "nodir/model.ckpt"], "--out"),
    (["train", "--config", "in.json", "--data", "d.avxd", "--out", "model.ckpt",
      "--log", "nodir/log.csv"], "--log"),
    (["eval-sweep", "--model", "m.ckpt", "--data", "d.avxd", "--strategy", "clip_zero",
      "--modality", "video", "--out", "nodir/sweep.csv"], "--out"),
    (["report", "s.csv", "--out", "nodir/merged.csv"], "--out"),
    (["report", "s.csv", "--out", "afile/merged.csv"], "--out"),
    (["train", "--config", "in.json", "--data", "d.avxd", "--out", "model.ckpt",
      "--log", "afile/log.csv"], "--log"),
])
def test_cli_missing_output_directory_exits_2_before_any_work(tmp_path, monkeypatch, capsys,
                                                              argv, flag):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "afile").write_text("kept")
    assert main(argv) == 2
    want = ("'afile' is not a directory" if any(a.startswith("afile/") for a in argv)
            else "directory 'nodir' does not exist")
    assert capsys.readouterr().err == f"error: {flag}: {want}\n"
    assert list(tmp_path.iterdir()) == [tmp_path / "afile"]
    assert (tmp_path / "afile").read_text() == "kept"


@pytest.mark.parametrize("argv,flag", [
    (["synth", "--config", "in.json", "--out", "outdir"], "--out"),
    (["train", "--config", "in.json", "--data", "d.avxd", "--out", "outdir"], "--out"),
    (["train", "--config", "in.json", "--data", "d.avxd", "--out", "model.ckpt",
      "--log", "outdir"], "--log"),
    (["eval-sweep", "--model", "m.ckpt", "--data", "d.avxd", "--strategy", "clip_zero",
      "--modality", "video", "--out", "outdir"], "--out"),
    (["report", "s.csv", "--out", "outdir"], "--out"),
])
def test_cli_output_that_is_a_directory_exits_2_before_any_work(tmp_path, monkeypatch, capsys,
                                                                argv, flag):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "outdir").mkdir()
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {flag}: 'outdir' is a directory\n"
    assert list(tmp_path.iterdir()) == [tmp_path / "outdir"]
    assert list((tmp_path / "outdir").iterdir()) == []


def test_report_accepts_the_bounds_of_each_range(tmp_path):
    path = tmp_path / "m.csv"
    _write_csv(path, ["clip_zero,video,0.0,-1.0,1.0", "clip_zero,video,1.0,1.0,-1.0"])
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
    ("synth", "data", dict(TINY_DATA, seed=-2), "data.seed must be >= 0, got -2"),
])
def test_cli_negative_seed_in_a_config_section_exits_2(cli_artifacts, tmp_path, capsys,
                                                       command, section, value, message):
    _, _, data_path, _ = cli_artifacts
    # a synth config is the data section alone
    config = value if section == "data" else {**TINY_RUN, section: value}
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
    path = tmp_path / "bad.json"
    if command == "synth":
        path.write_text(json.dumps(dict(TINY_DATA, **{key: value})))
        argv = ["synth", "--config", str(path), "--out", str(tmp_path / "x.avxd")]
    else:
        config = json.loads(json.dumps(TINY_RUN))
        config[section][key] = value
        path.write_text(json.dumps(config))
        argv = ["train", "--config", str(path), "--data", str(data_path),
                "--out", str(tmp_path / "m.ckpt")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and key in err


@pytest.mark.parametrize("command", ["synth", "train"])
def test_cli_non_utf8_config_names_the_file(cli_artifacts, tmp_path, capsys, command):
    root, config_path, data_path, _ = cli_artifacts
    source = root / "data.json" if command == "synth" else config_path
    path = tmp_path / "bad.json"
    path.write_bytes(source.read_bytes().replace(b'"seed"', b'"se\xffd"', 1))
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
    assert err.count("\n") == 1 and err.startswith(
        "error: model.num_layers=1, model.d_model=1099511627776, model.num_heads=2, "
        "model.ffn_mult=2 describe a model")
    assert not (tmp_path / "m.ckpt").exists()


def test_cli_train_with_a_model_larger_than_memory_exits_2_before_building_it(
        cli_artifacts, tmp_path, monkeypatch, capsys):
    _, _, data_path, _ = cli_artifacts
    config = json.loads(json.dumps(TINY_RUN))
    config["model"] = {"num_layers": 1000000000, "d_model": 2, "num_heads": 1, "ffn_mult": 1}
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(config))

    def never(config, seed):
        raise AssertionError("init_params called")

    monkeypatch.setattr(harness, "init_params", never)
    assert main(["train", "--config", str(path), "--data", str(data_path),
                 "--out", str(tmp_path / "m.ckpt")]) == 2
    assert re.fullmatch(r"error: model\.num_layers=1000000000, model\.d_model=2, "
                        r"model\.num_heads=1, model\.ffn_mult=1 describe a model whose params, "
                        r"grads and Adam state take more than this machine's [0-9.e+]+ GB "
                        r"of memory\n", capsys.readouterr().err)
    assert not (tmp_path / "m.ckpt").exists()


def test_model_config_for_refuses_a_model_one_byte_over_memory(tiny_prep, monkeypatch):
    run = run_config_from_dict(TINY_RUN)
    need = 4 * 8 * param_count(harness.model_config_for(run, tiny_prep))
    monkeypatch.setattr(harness, "_physical_memory", lambda: need)
    assert harness.model_config_for(run, tiny_prep).d_model == TINY_RUN["model"]["d_model"]
    monkeypatch.setattr(harness, "_physical_memory", lambda: need - 1)
    with pytest.raises(ConfigError, match="model.num_layers=1, model.d_model=8"):
        harness.model_config_for(run, tiny_prep)


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
    assert main(["eval-sweep", "--model", str(ckpt_path), "--data", str(data_path), "--strategy",
                 "explode", "--modality", "video", "--out", str(root / "x.csv")]) == 2


def test_cli_eval_sweep_with_strategy_none_exits_2(cli_artifacts, capsys):
    # clean windows are scored at --probs 0 of any strategy
    root, _, data_path, ckpt_path = cli_artifacts
    out = root / "none.csv"
    assert main(["eval-sweep", "--model", str(ckpt_path), "--data", str(data_path),
                 "--strategy", "none", "--modality", "video", "--probs", "0,0.3,1",
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: argument --strategy: invalid choice: 'none'")
    assert err.count("\n") == 1 and err.endswith("\n")
    assert not out.exists()


def test_cli_dimension_mismatch_exits_3(cli_artifacts, tmp_path, capsys):
    root, _, _, ckpt_path = cli_artifacts
    other = dict(TINY_DATA)
    other["d_audio_lld"] = 5  # stacked dim will disagree with the checkpoint
    save_dataset(generate_synthetic(SyntheticConfig(**other)), tmp_path / "other.avxd")
    code = main(["eval-sweep", "--model", str(ckpt_path), "--data", str(tmp_path / "other.avxd"),
                 "--strategy", "clip_zero", "--modality", "video",
                 "--out", str(tmp_path / "x.csv")])
    assert code == 3
    assert capsys.readouterr().err.startswith(f"error: {str(ckpt_path)!r} expects audio 240 / "
                                              "video 6 dims")


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


def test_cli_out_of_memory_without_text_exits_2_with_a_message(cli_artifacts, tmp_path,
                                                                monkeypatch, capsys):
    # Python's own MemoryError carries no text; a model that exhausts memory
    # while its parameter map is built (e.g. num_layers 1e9) raises one
    _, config_path, data_path, _ = cli_artifacts

    def exhausted(config, seed):
        raise MemoryError()

    monkeypatch.setattr(harness, "init_params", exhausted)
    out = tmp_path / "m.ckpt"
    assert main(["train", "--config", str(config_path), "--data", str(data_path),
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: out of memory\n"
    assert not out.exists()


def test_cli_error_without_text_still_prints_a_message(monkeypatch, capsys):
    def failing(seed):
        raise ValueError()

    monkeypatch.setattr(harness, "gradcheck", failing)
    assert main(["gradcheck", "--seed", "0"]) == 2
    assert capsys.readouterr().err == "error: ValueError()\n"


# --- the study script ---


def test_study_quick_run_takes_its_epoch_count_from_epochs(tmp_path):
    script = Path(__file__).resolve().parent.parent / "scripts" / "run_missing_modality_study.py"
    subprocess.run([sys.executable, str(script), "--out", str(tmp_path), "--quick",
                    "--epochs", "1"], check=True, capture_output=True, timeout=600)
    for label in ("none", "clip_zero", "frame_zero", "frame_repeat"):  # the baseline first
        rows = (tmp_path / f"train_log_{label}.csv").read_text().splitlines()
        assert [row.split(",")[0] for row in rows] == ["epoch", "0"]
