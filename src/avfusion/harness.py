"""Run orchestration: config parsing, training with ablation augmentation,
evaluation sweeps over corruption probabilities, the gradient self-check and
its central finite-difference oracle, and reading and merging sweep tables.

Config files have one schema: the dataclasses themselves. A run config
describes training only, in its `train` (TrainParams), `ablation`
(AblationSpec; a run without it trains on clean windows) and `model`
(Architecture) sections; a synthetic-dataset config is one SyntheticConfig
object. Each section's keys and defaults are its dataclass's fields, its
range checks are that dataclass's `__post_init__`, and one JSON reader
serves `load_run_config` and `load_synthetic_config`.

Everything here is deterministic given the config seeds: shuffling and
corruption draw from derived RNG streams keyed by stable indices, never by
wall clock or iteration order. Windows become model input only in
`corrupt_windows`: per training batch, each window's stream keyed by its
train-window index (seeds mixed with the epoch), and per evaluation chunk,
each keyed by its global position among the evaluated windows.
`score_specs` scores sweep points, each distinct input (`augment.input_key`)
once.
"""

from __future__ import annotations

import json
import math
import numbers
import os
from dataclasses import MISSING, asdict, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .augment import MODALITIES, STRATEGIES, AblationSpec, ablate_sequence, input_key
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
from .model import Architecture, ModelConfig, clone_params, init_params, model_forward, param_count
from .seeding import derive_rng, mix_seed

DEFAULT_GRIDS = {
    "clip_zero": (1.0, 0.7, 0.5, 0.3, 0.0),
    "frame_zero": (1.0, 0.95, 0.90, 0.85, 0.0),
    "frame_repeat": (1.0, 0.95, 0.90, 0.85, 0.0),
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


class SplitFractions:
    """The shares of a dataset's clips, in file order, that train and validate a model."""
    train, val = 0.8, 0.2


@dataclass
class RunConfig:
    """What to train: the data it trains on is given apart from it."""
    train: TrainParams
    model: Architecture = field(default_factory=Architecture)
    ablation: AblationSpec | None = None            # None: train on clean windows


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


def _section(cls, section: str, obj: dict):
    """cls built from obj: its keys are cls's fields, numbers are parsed by the
    field's type, fields with no default are required, and cls's own
    __post_init__ checks the values."""
    types = {f.name: f.type for f in fields(cls)}
    _check_keys(section, obj, types)
    values = {key: (_number(section, key, value, _NUMBER_KINDS[types[key]])
                    if types[key] in _NUMBER_KINDS else value)
              for key, value in obj.items()}
    for f in fields(cls):
        if f.default is MISSING and f.name not in values:
            raise ConfigError(f"{section}.{f.name} is required")
    try:
        return cls(**values)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def run_config_from_dict(obj: dict) -> RunConfig:
    """A RunConfig from a parsed config JSON object.

    The sections are `train` (TrainParams), `ablation` (AblationSpec) and
    `model` (Architecture); any other section, such as a dataset's, raises
    ConfigError. A section's dataclass fields are its keys and any other key
    raises ConfigError, its defaults are the section's defaults, and its
    `__post_init__` checks the values. `model_config_for` completes the
    architecture from the data and `train.seq_len`.
    """
    _check_keys("run", obj, {"model", "train", "ablation"})
    model = obj.get("model", {})
    for key, source in (("d_audio", "the data"), ("d_video", "the data"),
                        ("seq_len", "train.seq_len")):
        if isinstance(model, dict) and key in model:
            raise ConfigError(f"model.{key} cannot be set: its value comes from {source}")
    run = RunConfig(train=_section(TrainParams, "train", obj.get("train", {})),
                    model=_section(Architecture, "model", model))
    if "ablation" in obj:
        run.ablation = _section(AblationSpec, "ablation", obj["ablation"])
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
    """A synthetic-dataset config: one object of SyntheticConfig's keys."""
    return _section(SyntheticConfig, "data", _read_json(path))


# ---------------------------------------------------------------------------
# data preparation


@dataclass
class PreparedData:
    train_windows: list[Window]
    val_windows: list[Window]


def split_windows(dataset: Dataset, splits: SplitFractions, seq_len: int,
                  names: list[str]) -> list[list[Window]]:
    """Each named split's clips normalized by stats fit on the train clips,
    synced and windowed (val for evaluation), in `names` order; a split with
    no clip as long as seq_len raises ConfigError."""
    n = len(dataset.clips)
    n_train = int(n * splits.train)
    n_val = int(n * splits.val)
    if n_train < 1 or n_val < 1:
        raise ConfigError(f"splits leave an empty partition ({n_train} train / {n_val} val "
                          f"clips from {n})")
    clips = {"train": dataset.clips[:n_train], "val": dataset.clips[n_train:n_train + n_val]}
    stats = fit_norm(clips["train"])
    windows = []
    for split in names:
        synced = [sync_clip(apply_norm(c, stats)) for c in clips[split]]
        longest = max(c.audio.shape[0] for c in synced)
        if longest < seq_len:
            raise ConfigError(f"every {split} clip is shorter than seq_len {seq_len}: "
                              f"the longest has {longest} frames")
        windows.append(window_clips(synced, seq_len, evaluation=split == "val"))
    return windows


def prepare_data(dataset: Dataset, splits: SplitFractions, seq_len: int) -> PreparedData:
    """Both splits' windows (`split_windows`)."""
    return PreparedData(*split_windows(dataset, splits, seq_len, ["train", "val"]))


def _physical_memory() -> int | None:
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):  # no sysconf, or no such name here
        return None


def model_config_for(run: RunConfig, prep: PreparedData) -> ModelConfig:
    """The run's model for the prepared data; a model whose float64 params,
    grads and two Adam moments would not fit in this machine's physical
    memory is refused before anything is allocated for it."""
    first = prep.train_windows[0]  # its widths are the model's input widths
    config = ModelConfig(**asdict(run.model), d_audio=first.audio.shape[1],
                         d_video=first.video.shape[1], seq_len=run.train.seq_len)
    memory = _physical_memory()
    if memory is not None and 4 * 8 * param_count(config) > memory:
        keys = ", ".join(f"model.{name}={value}" for name, value in asdict(run.model).items())
        # the size is not quoted: it may be beyond the float range
        raise ConfigError(f"{keys} describe a model whose params, grads and Adam state "
                          f"take more than this machine's {memory / 1e9:.3g} GB of memory")
    return config


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


# windows per batched inference call, and per `_share` item of an evaluation.
# At study-full dims (2-core box, one BLAS thread), eval-sweep's 30-window
# units run as two items of 16 and 14 windows, one per thread, scored 44.5k
# frames/s (quartiles 43.7k-45.0k) over 10 alternating bench pairs, against
# 40.1k (39.1k-40.6k) as one 32-window call; at most two 16-window chunks'
# inputs are in flight, as many as in one chunk of 32. Below 16 windows no
# split is forced: 4 windows took 9.6 ms inline and 10.7 ms as 2+2 (medians
# of 6 alternating rounds of 50 calls).
_EVAL_CHUNK = 16


def corrupt_windows(windows: list[Window], spec: AblationSpec | None,
                    streams) -> tuple[np.ndarray, ...]:
    """The windows' audio and video stacked row-wise, spec's modality (if any)
    of window j corrupted from stream streams[j]; the windows are not written."""
    audios, videos = [w.audio for w in windows], [w.video for w in windows]
    if spec is not None:
        target = audios if spec.modality == "audio" else videos
        for j, stream in enumerate(streams):
            target[j] = ablate_sequence(target[j], spec, int(stream))
    return np.concatenate(audios), np.concatenate(videos)


def evaluate_windows(params: dict, config: ModelConfig, windows: list[Window],
                     spec: AblationSpec | None = None) -> EvalSummary:
    """Global CCC over every scored frame of the given windows, with spec's
    modality (if any) corrupted one chunk of windows at a time; window i's
    stream is its position i in `windows`, whatever chunk it falls in.

    Each chunk's corruption and forward is one `autodiff._share` item, run on
    whichever of the calling thread and the worker is free, and writes its
    scored rows into its own slot; the slots are joined in window order. So
    a call holds at most one chunk's model input per thread, and the summary
    is bitwise that of scoring the chunks one after the other. A call of at
    most `_EVAL_CHUNK` windows is one item and runs inline. An error in any
    chunk propagates unchanged once no chunk is running (see `_share`).
    """
    # zero-copy views without grad: inference records no graph whatever params it gets
    params = {name: ad.Tensor(p.data) for name, p in params.items()}
    t = config.seq_len
    starts = range(0, len(windows), _EVAL_CHUNK)
    preds: list[list[np.ndarray] | None] = [None] * len(starts)

    def score_chunk(i: int) -> None:
        at = starts[i]
        chunk = windows[at:at + _EVAL_CHUNK]
        audio, video = corrupt_windows(chunk, spec, range(at, at + len(chunk)))
        out = model_forward(ad.Tensor(audio), ad.Tensor(video), params, config).data
        preds[i] = [out[j * t + w.score_from:(j + 1) * t] for j, w in enumerate(chunk)]

    ad._share(len(starts), score_chunk)
    return eval_summary(np.concatenate([p for chunk in preds for p in chunk]),
                        np.concatenate([w.labels[w.score_from:] for w in windows]))


def train_on_prepared(run: RunConfig, prep: PreparedData) -> TrainResult:
    """Train run's model on prep's windows, which must be run.train.seq_len
    frames long; the params of the epoch with the best val CCC are returned."""
    for w in prep.train_windows + prep.val_windows:
        if len(w.labels) != run.train.seq_len:
            raise ConfigError(f"windows are prepared at seq_len {len(w.labels)}, "
                              f"but train.seq_len is {run.train.seq_len}")
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
        epoch_spec = (None if run.ablation is None
                      else replace(run.ablation, seed=mix_seed(run.ablation.seed, epoch)))
        losses = []
        for at in range(0, len(order), run.train.batch_size):
            batch = order[at:at + run.train.batch_size]
            windows = [prep.train_windows[widx] for widx in batch]
            audio, video = corrupt_windows(windows, epoch_spec, batch)
            pred = model_forward(ad.Tensor(audio), ad.Tensor(video), params, config)
            loss = ccc_loss(pred, np.concatenate([w.labels for w in windows]))
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
    ccc_valence: float
    ccc_arousal: float


def score_specs(params: dict, config: ModelConfig, windows: list[Window],
                specs: list[AblationSpec]) -> list[EvalSummary]:
    """One summary per spec, in order. `evaluate_windows` is called once per
    distinct `augment.input_key`, with the first spec of that key; the specs
    of one key feed the model bitwise the same input, so share its summary."""
    summaries: dict[tuple, EvalSummary] = {}
    for spec in specs:
        if (key := input_key(spec)) not in summaries:
            summaries[key] = evaluate_windows(params, config, windows, spec)
    return [summaries[input_key(spec)] for spec in specs]


def run_sweep(params: dict, config: ModelConfig, val_windows: list[Window],
              strategy: str, modality: str, probs: list[float], seed: int) -> list[SweepResult]:
    """`score_specs` of one corruption over probs. It stays for the bench's
    per-point units and goes when the bench's eval-sweep workload is re-based
    onto `score_specs`."""
    specs = [AblationSpec(strategy, modality, float(p), seed) for p in probs]
    return [SweepResult(strategy, modality, spec.probability, s.ccc_valence, s.ccc_arousal)
            for spec, s in zip(specs, score_specs(params, config, val_windows, specs))]


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

    def loss() -> ad.Tensor:
        return ccc_loss(model_forward(ad.Tensor(audio), ad.Tensor(video), params, config), gold)

    ad.backward(loss())
    worst_err, worst_name = 0.0, ""
    for name, p in params.items():
        err = rel_err(p.grad, finite_diff_grad(lambda: float(loss().data), p.data))
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


def model_labels(paths) -> list[str]:
    """Each path's file stem: the label of its model's columns in a merged
    table. A stem holding a comma or line break, which the merged header
    cannot hold, or one that two paths share raises ReportError."""
    labels = []
    for path in paths:
        label = Path(path).stem
        if any(c in label for c in ",\r\n"):
            # the path is quoted so that the message stays on one line
            raise ReportError(f"{str(path)!r}: model label {label!r} contains a comma "
                              "or line break")
        if label in labels:
            raise ReportError(f"duplicate model label {label!r}")
        labels.append(label)
    return labels


def read_sweep_results(path) -> dict[str, dict[tuple, tuple[float, float]]]:
    """Parse one merged sweep CSV into {model label: {(strategy, modality, p): (ccc_v, ccc_a)}}.

    A second row for one key raises ReportError naming the key. A strategy or
    modality `augment` does not know, a probability outside [0, 1] or a CCC
    outside [-1, 1] (NaN and infinities included) is no sweep's output and
    raises ReportError naming the row. So does a header with no rows under it.
    """
    lines = [ln for ln in _read_text(path, ReportError).splitlines() if ln]
    if not lines:
        raise ReportError(f"{path}: empty CSV")
    header = lines[0].split(",")
    if not (header[:3] == ["strategy", "modality", "probability"]
            and len(header) > 3 and len(header) % 2 == 1):  # at least one model's columns
        raise ReportError(f"{path}: unrecognized CSV header {lines[0]!r}")
    labels = []
    for valence, arousal in zip(header[3::2], header[4::2]):
        label = valence[: -len("_ccc_valence")]
        if not valence.endswith("_ccc_valence") or arousal != f"{label}_ccc_arousal":
            raise ReportError(f"{path}: unexpected merged columns {valence!r}, {arousal!r}")
        labels.append(label)
    if len(set(labels)) != len(labels):
        raise ReportError(f"{path}: duplicate model label in header {lines[0]!r}")
    if len(lines) == 1:  # every sweep writes at least one row
        raise ReportError(f"{path}: no rows")
    tables: dict[str, dict[tuple, tuple[float, float]]] = {label: {} for label in labels}
    for ln in lines[1:]:
        row = ln.split(",")
        if len(row) != 3 + 2 * len(labels):
            raise ReportError(f"{path}: malformed row {row!r}")
        if row[0] not in STRATEGIES or row[1] not in MODALITIES:
            raise ReportError(f"{path}: unknown strategy or modality in row {ln!r}")
        # `+ 0.0` reads "-0" as 0.0, so it keys the clean row, not a "-0.0" row beside it
        key = (row[0], row[1], _parse_float(row[2], path, ln) + 0.0)
        if not 0.0 <= key[2] <= 1.0:
            raise ReportError(f"{path}: probability {key[2]!r} outside [0, 1] in row {ln!r}")
        if key in tables[labels[0]]:
            raise ReportError(f"{path}: duplicate row for {key}")
        for j, label in enumerate(labels):
            pair = (_parse_float(row[3 + 2 * j], path, ln),
                    _parse_float(row[4 + 2 * j], path, ln))
            for value in pair:
                if not abs(value) <= 1.0:
                    raise ReportError(f"{path}: CCC {value!r} outside [-1, 1] in row {ln!r}")
            tables[label][key] = pair
    return tables


def merged_keys(models: dict) -> list[tuple]:
    """The keys of the models' tables by falling probability; a model missing
    a key another has raises ReportError listing what each model misses."""
    all_keys = sorted({k for table in models.values() for k in table},
                      key=lambda k: (k[0], k[1], -k[2]))
    problems = []
    for label, table in models.items():
        missing = [k for k in all_keys if k not in table]
        if missing:
            problems.append(f"{label} missing {', '.join(map(str, missing))}")
    if problems:
        raise ReportError("inconsistent probability grids: " + "; ".join(problems))
    return all_keys


def merge_reports(paths) -> dict[str, dict[tuple, tuple[float, float]]]:
    """{model label: {key: (v, a)}} of merged sweep CSVs, labels in input
    order; a label that two inputs share, or grids that `merged_keys`
    refuses, raise ReportError."""
    models: dict[str, dict[tuple, tuple[float, float]]] = {}
    for path in paths:
        for label, table in read_sweep_results(path).items():
            if label in models:
                raise ReportError(f"duplicate model label {label!r}")
            models[label] = table
    merged_keys(models)
    return models


def write_merged_csv(models: dict, path) -> None:
    """The models' tables as one CSV: columns in dict order, rows in `merged_keys` order."""
    header = ["strategy", "modality", "probability"]
    for label in models:
        header += [f"{label}_ccc_valence", f"{label}_ccc_arousal"]
    _write_csv(path, ",".join(header),
               [(key[0], key[1], float(key[2]),
                 *(cell for table in models.values() for cell in table[key]))
                for key in merged_keys(models)])


def format_merged_table(models: dict) -> str:
    """Plain-text aligned comparison table; the last column is not padded."""
    rows = [["strategy", "modality", "p"] + [f"{label}:{c}" for label in models for c in "VA"]]
    rows += [[key[0], key[1], f"{key[2]:g}"]
             + [f"{x:+.4f}" for table in models.values() for x in table[key]]
             for key in merged_keys(models)]
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]) - 1)]
    fmt = "  ".join([f"{{:<{w}}}" for w in widths] + ["{}"])  # no line ends in a space
    return "\n".join(fmt.format(*row) for row in rows)
