"""Run orchestration: config parsing, training with ablation augmentation,
evaluation sweeps over corruption probabilities, the gradient self-check and
its central finite-difference oracle, and merging sweep tables (in memory or
read from sweep CSVs).

Config files have one schema: the dataclasses themselves. Each section's
keys and defaults are its dataclass's fields (TrainParams, SplitFractions,
AblationSpec, SyntheticConfig; ModelConfig's architecture fields for the
`model` dict), its range checks are that dataclass's `__post_init__`, and
one JSON reader serves `load_run_config` and `load_synthetic_config`.

Everything here is deterministic given the config seeds: shuffling, ablation
masks, and sweep corruption all draw from derived RNG streams keyed by stable
indices (epoch, window position), never by wall clock or iteration order.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import MISSING, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .augment import MODALITIES, STRATEGIES, AblationSpec, ablate_sequence
from .data import (
    Dataset,
    SyntheticConfig,
    Window,
    apply_norm,
    fit_norm,
    sync_clip,
    window_clips,
)
from .metrics import EvalSummary, ccc_loss, eval_summary
from .model import ModelConfig, clone_params, init_params, model_forward
from .seeding import derive_rng, mix_seed

SWEEP_HEADER = "strategy,modality,probability,seed,ccc_valence,ccc_arousal"
DEFAULT_GRIDS = {
    "clip_zero": (1.0, 0.7, 0.5, 0.3, 0.0),
    "frame_zero": (1.0, 0.95, 0.90, 0.85, 0.0),
    "frame_repeat": (1.0, 0.95, 0.90, 0.85, 0.0),
    "none": (0.0,),
}


class ConfigError(ValueError):
    """Invalid run configuration; message names the offending key."""


class DimensionMismatchError(ValueError):
    """Data feature dims disagree with a checkpoint's."""


# ---------------------------------------------------------------------------
# run configuration


@dataclass
class TrainParams:
    epochs: int
    lr: float = 1e-4
    batch_size: int = 16
    seq_len: int = 100
    seed: int = 0

    def __post_init__(self):
        if self.lr <= 0:
            raise ConfigError("train.lr must be > 0")
        for name in ("epochs", "batch_size", "seq_len"):
            if getattr(self, name) < 1:
                raise ConfigError(f"train.{name} must be >= 1")
        if self.seed < 0:
            raise ConfigError("train.seed must be >= 0")


@dataclass
class SplitFractions:
    train: float = 0.8
    val: float = 0.2

    def __post_init__(self):
        if self.train <= 0 or self.val <= 0 or self.train + self.val > 1.0 + 1e-9:
            raise ConfigError("splits.train/splits.val must be positive with sum <= 1")


@dataclass
class RunConfig:
    train: TrainParams
    model: dict = field(default_factory=dict)       # architecture keys of ModelConfig
    ablation: AblationSpec = AblationSpec("none", probability=0.0)
    data: SyntheticConfig | None = None
    data_path: str | None = None
    splits: SplitFractions = field(default_factory=SplitFractions)


def _check_keys(section: str, obj: dict, allowed) -> None:
    if not isinstance(obj, dict):
        raise ConfigError(f"{section} section must be a JSON object")
    for key in obj:
        if key not in allowed:
            raise ConfigError(f"unknown key {key!r} in section {section!r}")


def _number(section: str, key: str, value, kind: type):
    """value as a finite `kind`; an int key also takes 3.0, not 2.7."""
    try:
        finite = (not isinstance(value, bool) and isinstance(value, numbers.Real)
                  and math.isfinite(value))
    except OverflowError:  # an int beyond the float range
        finite = False
    if not finite:
        raise ConfigError(f"{section}.{key} must be a finite number, got {value!r}")
    if kind is int and value != int(value):
        raise ConfigError(f"{section}.{key} must be an integer, got {value!r}")
    return kind(value)


_NUMBER_KINDS = {"int": int, "float": float}


def _section_values(cls, section: str, obj: dict) -> dict:
    """The keys of obj, each a field of cls, with numbers parsed by the field's type."""
    types = {f.name: f.type for f in fields(cls)}
    _check_keys(section, obj, types)
    return {key: (_number(section, key, value, _NUMBER_KINDS[types[key]])
                  if types[key] in _NUMBER_KINDS else value)
            for key, value in obj.items()}


def _section(cls, section: str, obj: dict):
    """cls built from obj: its fields with no default are required, and its
    own __post_init__ checks the values."""
    values = _section_values(cls, section, obj)
    for f in fields(cls):
        if f.default is MISSING and f.name not in values:
            raise ConfigError(f"{section}.{f.name} is required")
    try:
        return cls(**values)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def run_config_from_dict(obj: dict) -> RunConfig:
    """A RunConfig from a parsed config JSON object.

    Each section is read against its dataclass (`train`: TrainParams,
    `ablation`: AblationSpec, `splits`: SplitFractions, `data`:
    SyntheticConfig or a `{"path": ...}` object). The dataclass's fields are
    the section's keys, their defaults are the section's defaults, and its
    `__post_init__` checks the values. The `model` section stays a dict of
    ModelConfig's architecture fields; `model_config_for` completes it from
    the data and `train.seq_len` and checks it.
    """
    _check_keys("run", obj, {"model", "train", "ablation", "data", "splits"})
    model = obj.get("model", {})
    for key, source in (("d_audio", "the data"), ("d_video", "the data"),
                        ("seq_len", "train.seq_len")):
        if isinstance(model, dict) and key in model:
            raise ConfigError(f"model.{key} cannot be set: its value comes from {source}")
    run = RunConfig(train=_section(TrainParams, "train", obj.get("train", {})),
                    model=_section_values(ModelConfig, "model", model),
                    splits=_section(SplitFractions, "splits", obj.get("splits", {})))
    if "ablation" in obj:
        run.ablation = _section(AblationSpec, "ablation", obj["ablation"])
    data_obj = obj.get("data")
    if isinstance(data_obj, dict) and "path" in data_obj:
        _check_keys("data", data_obj, {"path"})
        if not isinstance(data_obj["path"], str):
            raise ConfigError(f"data.path must be a string, got {data_obj['path']!r}")
        run.data_path = data_obj["path"]
    elif "data" in obj:
        run.data = _section(SyntheticConfig, "data", data_obj)
    return run


def _read_text(path, error: type[ValueError]) -> str:
    raw = Path(path).read_bytes()
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = raw[:exc.start].count(b"\n") + 1
        raise error(f"{path}: line {line} is not UTF-8 "
                    f"(byte {raw[exc.start]:#04x})") from exc


def _read_json(path) -> dict:
    try:
        obj = json.loads(_read_text(path, ConfigError))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ConfigError("config root must be a JSON object")
    return obj


def load_run_config(path) -> RunConfig:
    return run_config_from_dict(_read_json(path))


def load_synthetic_config(path) -> SyntheticConfig:
    """A synthetic-dataset config: a bare data section, or a run config with one."""
    obj = _read_json(path)
    if "data" not in obj:
        return _section(SyntheticConfig, "data", obj)
    data = run_config_from_dict(obj).data
    if data is None:
        raise ConfigError("config data section does not describe a synthetic dataset")
    return data


# ---------------------------------------------------------------------------
# data preparation


@dataclass
class PreparedData:
    train_windows: list[Window]
    val_windows: list[Window]
    d_audio: int
    d_video: int


def prepare_data(dataset: Dataset, splits: SplitFractions, seq_len: int) -> PreparedData:
    """Split clips, fit normalization on train, sync, and window both splits."""
    n = len(dataset.clips)
    n_train = int(n * splits.train)
    n_val = int(n * splits.val)
    if n_train < 1 or n_val < 1:
        raise ConfigError(f"splits leave an empty partition ({n_train} train / {n_val} val "
                          f"clips from {n})")
    train_clips = dataset.clips[:n_train]
    val_clips = dataset.clips[n_train:n_train + n_val]
    stats = fit_norm(train_clips)
    train_synced = [sync_clip(apply_norm(c, stats)) for c in train_clips]
    val_synced = [sync_clip(apply_norm(c, stats)) for c in val_clips]
    train_windows = window_clips(train_synced, seq_len)
    val_windows = window_clips(val_synced, seq_len, evaluation=True)
    if not train_windows or not val_windows:
        raise ConfigError("no usable windows: clips shorter than seq_len")
    return PreparedData(train_windows, val_windows,
                        d_audio=train_windows[0].audio.shape[1],
                        d_video=train_windows[0].video.shape[1])


def model_config_for(run: RunConfig, prep: PreparedData) -> ModelConfig:
    try:
        return ModelConfig(d_audio=prep.d_audio, d_video=prep.d_video,
                           seq_len=run.train.seq_len, **run.model)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


# ---------------------------------------------------------------------------
# training


@dataclass
class EpochLog:
    epoch: int
    train_loss: float
    ccc_valence: float
    ccc_arousal: float


@dataclass
class TrainResult:
    params: dict
    config: ModelConfig
    log: list[EpochLog]
    best_epoch: int


_EVAL_CHUNK = 32  # windows per batched inference call


def evaluate_windows(params: dict, config: ModelConfig, windows: list[Window]) -> EvalSummary:
    """Global CCC over every scored frame of the given windows."""
    # zero-copy views without grad: inference records no graph whatever params it gets
    params = {name: ad.Tensor(p.data) for name, p in params.items()}
    preds, golds = [], []
    t = config.seq_len
    for at in range(0, len(windows), _EVAL_CHUNK):
        chunk = windows[at:at + _EVAL_CHUNK]
        audio = np.concatenate([w.audio for w in chunk])
        video = np.concatenate([w.video for w in chunk])
        out = model_forward(ad.Tensor(audio), ad.Tensor(video), params, config).data
        for i, w in enumerate(chunk):
            preds.append(out[i * t + w.score_from:(i + 1) * t])
            golds.append(w.labels[w.score_from:])
    return eval_summary(np.concatenate(preds), np.concatenate(golds))


def _ablated_window_inputs(w: Window, spec: AblationSpec, stream_index: int):
    audio, video = w.audio, w.video
    if spec.modality == "audio":
        audio = ablate_sequence(audio, spec, stream_index)
    else:
        video = ablate_sequence(video, spec, stream_index)
    return audio, video


def train_on_prepared(run: RunConfig, prep: PreparedData) -> TrainResult:
    config = model_config_for(run, prep)
    params = init_params(config, run.train.seed)
    plist = list(params.values())
    state = ad.AdamState.for_params(plist)
    best_params = None  # epoch 0 is always taken: a copy before it would never be returned
    best_metric = -np.inf
    best_epoch = 0
    log: list[EpochLog] = []
    for epoch in range(run.train.epochs):
        order = derive_rng(run.train.seed, epoch).permutation(len(prep.train_windows))
        epoch_spec = replace(run.ablation, seed=mix_seed(run.ablation.seed, epoch))
        losses = []
        for at in range(0, len(order), run.train.batch_size):
            batch = order[at:at + run.train.batch_size]
            audios, videos, golds = [], [], []
            for widx in batch:
                w = prep.train_windows[widx]
                audio, video = _ablated_window_inputs(w, epoch_spec, int(widx))
                audios.append(audio)
                videos.append(video)
                golds.append(w.labels)
            pred = model_forward(ad.Tensor(np.concatenate(audios)),
                                 ad.Tensor(np.concatenate(videos)), params, config)
            loss = ccc_loss(pred, np.concatenate(golds))
            ad.backward(loss)
            ad.adam_step(plist, state, run.train.lr)
            losses.append(float(loss.data))
        summary = evaluate_windows(params, config, prep.val_windows)
        log.append(EpochLog(epoch, float(np.mean(losses)),
                            summary.ccc_valence, summary.ccc_arousal))
        if best_params is None or summary.mean_ccc() > best_metric:
            best_metric = summary.mean_ccc()
            best_params = clone_params(params)
            best_epoch = epoch
    return TrainResult(best_params, config, log, best_epoch)


def write_train_log(log: list[EpochLog], path) -> None:
    _write_csv(path, "epoch,train_loss,val_ccc_valence,val_ccc_arousal",
               [(row.epoch, row.train_loss, row.ccc_valence, row.ccc_arousal) for row in log])


def _write_csv(path, header: str, rows) -> None:
    """One line per row; a float cell is written as its repr, so it reads back exactly."""
    lines = [header] + [",".join(repr(float(c)) if isinstance(c, float) else str(c) for c in row)
                        for row in rows]
    Path(path).write_text("\n".join(lines) + "\n", "utf-8")


# ---------------------------------------------------------------------------
# evaluation sweep


@dataclass
class SweepResult:
    strategy: str
    modality: str
    probability: float
    seed: int
    ccc_valence: float
    ccc_arousal: float


def corrupt_windows(windows: list[Window], spec: AblationSpec) -> list[Window]:
    """Corrupt each window's target modality; streams keyed by window position."""
    out = []
    for i, w in enumerate(windows):
        audio, video = _ablated_window_inputs(w, spec, i)
        out.append(replace(w, audio=audio, video=video))
    return out


def run_sweep(params: dict, config: ModelConfig, val_windows: list[Window],
              strategy: str, modality: str, probs: list[float], seed: int) -> list[SweepResult]:
    results = []
    for p in probs:
        spec = AblationSpec(strategy, modality, float(p), seed)
        summary = evaluate_windows(params, config, corrupt_windows(val_windows, spec))
        results.append(SweepResult(strategy, modality, float(p), seed,
                                   summary.ccc_valence, summary.ccc_arousal))
    return results


def write_sweep_csv(rows: list[SweepResult], path) -> None:
    _write_csv(path, SWEEP_HEADER, [(r.strategy, r.modality, float(r.probability), r.seed,
                                     r.ccc_valence, r.ccc_arousal) for r in rows])


# ---------------------------------------------------------------------------
# gradient self-check

FD_STEP, GRADCHECK_TOLERANCE = 1e-5, 1e-4  # finite_diff_grad's step; gradcheck's max rel err


def finite_diff_grad(f, arr: np.ndarray) -> np.ndarray:
    """Central-difference gradient of scalar f() w.r.t. arr; f must re-read arr on every call."""
    grad = np.zeros_like(arr)
    flat = arr.ravel()
    gflat = grad.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + FD_STEP
        fp = f()
        flat[i] = orig - FD_STEP
        fm = f()
        flat[i] = orig
        gflat[i] = (fp - fm) / (2.0 * FD_STEP)
    return grad


def rel_err(got, want) -> float:
    """Max absolute deviation normalized by the oracle's scale."""
    return np.max(np.abs(got - want)) / max(np.max(np.abs(want)), 1e-8)


@dataclass
class GradCheckReport:
    passed: bool
    max_rel_err: float
    worst_param: str
    tolerance: float = GRADCHECK_TOLERANCE


def gradcheck(seed: int) -> GradCheckReport:
    """Compare reverse-mode gradients of the full CCC training loss against
    central finite differences for every parameter of a small model."""
    config = ModelConfig(d_audio=5, d_video=4, num_layers=1, d_model=8,
                         num_heads=2, ffn_mult=2, seq_len=6)
    params = init_params(config, seed)
    rng = derive_rng(seed, 0)
    audio = rng.uniform(-1.0, 1.0, (config.seq_len, config.d_audio))
    video = rng.uniform(-1.0, 1.0, (config.seq_len, config.d_video))
    gold = rng.uniform(-1.0, 1.0, (config.seq_len, 2))

    def loss_value() -> float:
        pred = model_forward(ad.Tensor(audio), ad.Tensor(video), params, config)
        return float(ccc_loss(pred, gold).data)

    pred = model_forward(ad.Tensor(audio), ad.Tensor(video), params, config)
    ad.backward(ccc_loss(pred, gold))

    worst_err, worst_name = 0.0, ""
    for name, p in params.items():
        err = rel_err(p.grad, finite_diff_grad(loss_value, p.data))
        if err > worst_err:
            worst_err, worst_name = float(err), name
    return GradCheckReport(worst_err < GRADCHECK_TOLERANCE, worst_err, worst_name)


# ---------------------------------------------------------------------------
# report merging


class ReportError(ValueError):
    pass


def _parse_float(text: str, path, line: str) -> float:
    try:
        return float(text)
    except ValueError as exc:
        raise ReportError(f"{path}: bad number {text!r} in row {line!r}") from exc


def read_sweep_results(path) -> dict[str, dict[tuple, tuple[float, float]]]:
    """Parse one CSV into {model label: {(strategy, modality, p): (ccc_v, ccc_a)}}.

    Accepts both the single-model sweep format, whose rows for one key (one per
    seed) are averaged, and the merged multi-model format, which has one row
    per key, so merged output can be re-merged unchanged. A second row for one
    (strategy, modality, p, seed) in the single-model format, or for one key
    in the merged one, would count that point twice and raises ReportError
    naming it. A strategy or modality `augment` does not know, a probability
    outside [0, 1] or a CCC outside [-1, 1] (NaN and infinities included) is
    no sweep's output and raises ReportError naming the row. So does a model
    label (a single-model CSV's file stem) holding a comma or line break,
    which the merged format cannot write.
    """
    lines = [ln for ln in _read_text(path, ReportError).splitlines() if ln]
    if not lines:
        raise ReportError(f"{path}: empty CSV")
    header = lines[0].split(",")
    single = lines[0] == SWEEP_HEADER
    if single:
        labels, first = [Path(path).stem], 4
        if any(c in labels[0] for c in ",\r\n"):
            # the merged CSV's header could not hold it as a column name; the
            # path is quoted so that the message stays on one line
            raise ReportError(f"{str(path)!r}: model label {labels[0]!r} contains a comma "
                              "or line break")
    elif header[:3] == ["strategy", "modality", "probability"] and len(header) % 2 == 1:
        labels, first = [], 3
        for valence, arousal in zip(header[3::2], header[4::2]):
            label = valence[: -len("_ccc_valence")]
            if not valence.endswith("_ccc_valence") or arousal != f"{label}_ccc_arousal":
                raise ReportError(f"{path}: unexpected merged columns {valence!r}, {arousal!r}")
            labels.append(label)
        if len(set(labels)) != len(labels):
            raise ReportError(f"{path}: duplicate model label in header {lines[0]!r}")
    else:
        raise ReportError(f"{path}: unrecognized CSV header {lines[0]!r}")
    acc: dict[str, dict[tuple, list[tuple[float, float]]]] = {label: {} for label in labels}
    seen = set()
    for ln in lines[1:]:
        row = ln.split(",")
        if len(row) != first + 2 * len(labels):
            raise ReportError(f"{path}: malformed row {row!r}")
        if row[0] not in STRATEGIES or row[1] not in MODALITIES:
            raise ReportError(f"{path}: unknown strategy or modality in row {ln!r}")
        key = (row[0], row[1], _parse_float(row[2], path, ln))
        if not 0.0 <= key[2] <= 1.0:
            raise ReportError(f"{path}: probability {key[2]!r} outside [0, 1] in row {ln!r}")
        try:  # eval-sweep writes an integer seed
            row_key = key + (int(row[3]),) if single else key
        except ValueError as exc:
            raise ReportError(f"{path}: seed {row[3]!r} is not an integer in row {ln!r}") from exc
        if row_key in seen:
            raise ReportError(f"{path}: duplicate row for {row_key}")
        seen.add(row_key)
        for j, label in enumerate(labels):
            pair = (_parse_float(row[first + 2 * j], path, ln),
                    _parse_float(row[first + 2 * j + 1], path, ln))
            for value in pair:
                if not abs(value) <= 1.0:
                    raise ReportError(f"{path}: CCC {value!r} outside [-1, 1] in row {ln!r}")
            acc[label].setdefault(key, []).append(pair)
    return {label: {key: (float(np.mean([v for v, _ in vals])),
                          float(np.mean([a for _, a in vals]))) if single else vals[0]
                    for key, vals in table.items()}
            for label, table in acc.items()}


def merge_reports(paths) -> tuple[list[str], list[tuple], dict]:
    """Read sweep CSVs (either format) and merge them with `merge_tables`."""
    if not paths:
        raise ReportError("report needs at least one CSV")
    models: dict[str, dict[tuple, tuple[float, float]]] = {}
    for path in paths:
        for label, table in read_sweep_results(path).items():
            if label in models:
                raise ReportError(f"duplicate model label {label!r}")
            models[label] = table
    return merge_tables(models)


def merge_tables(models: dict) -> tuple[list[str], list[tuple], dict]:
    """Merge per-model tables keyed by (strategy, modality, probability).

    Returns (model labels in input order, sorted keys, {label: {key: (v, a)}}).
    Raises ReportError listing missing keys when the grids are inconsistent.
    """
    all_keys = sorted({k for table in models.values() for k in table},
                      key=lambda k: (k[0], k[1], -k[2]))
    problems = []
    for label, table in models.items():
        missing = [k for k in all_keys if k not in table]
        if missing:
            problems.append(f"{label} missing {', '.join(map(str, missing))}")
    if problems:
        raise ReportError("inconsistent probability grids: " + "; ".join(problems))
    return list(models), all_keys, models


def write_merged_csv(labels: list[str], keys: list[tuple], models: dict, path) -> None:
    header = ["strategy", "modality", "probability"]
    for label in labels:
        header += [f"{label}_ccc_valence", f"{label}_ccc_arousal"]
    _write_csv(path, ",".join(header),
               [(key[0], key[1], float(key[2]),
                 *(cell for label in labels for cell in models[label][key])) for key in keys])


def format_merged_table(labels: list[str], keys: list[tuple], models: dict) -> str:
    """Plain-text aligned comparison table."""
    header = ["strategy", "modality", "p"]
    for label in labels:
        header += [f"{label}:V", f"{label}:A"]
    body = []
    for key in keys:
        row = [key[0], key[1], f"{key[2]:g}"]
        for label in labels:
            v, a = models[label][key]
            row += [f"{v:+.4f}", f"{a:+.4f}"]
        body.append(row)
    widths = [max(len(r[i]) for r in [header] + body) for i in range(len(header))]
    fmt = "  ".join(f"{{:<{w}}}" for w in widths)
    return "\n".join(fmt.format(*row) for row in [header] + body)
