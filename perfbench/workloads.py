"""Benchmark workloads: inputs made from the seed, set-up, the timed units, output checks.

Every workload drives avfusion only through its public functions, looked up
on the module at call time so that the traced run can wrap them.

- train-small: the study-full config (200 clips x 30 s, 16-d LLD stacked to
  960-d audio, 32-d video, d_model 32) with frame_zero video augmentation.
  Many small ops: attention, autodiff bookkeeping and per-window
  augmentation dominate.
- train-paper: the same path at the paper's dims (3900-d audio, 4096-d
  video, d_model 512, 18.8M parameters) on 10 clips x 20 s with clip_zero
  video. Large matmuls and Adam dominate the step; stacking the audio context
  dominates set-up.
- eval-sweep: mirrors `avfusion eval-sweep`. A dataset file and a checkpoint
  are written first; set-up is load_checkpoint + load_dataset +
  prepare_data; each unit is one run_sweep point of the default frame_repeat
  (video) and clip_zero (audio) grids on one 30-window chunk of the val
  windows. Forward-only, so it moves with changes that shift cost between
  forward and backward.

A timed pass does one epoch's work (or one whole sweep) as many short units,
each one public call. On a shared host the CPU runs at a steady loaded speed
with bursts up to 1.6x faster when co-tenants idle; the bursts come and go in
phases from a second to minutes. Throughput is therefore each kind of unit's
lower-quartile rate, the rate three units in four reach: it sits at the loaded
speed whether or not a run caught a burst, where the fastest unit's rate
depends on it. Phases that cover a whole run are taken out by the host probe
(hostprobe.py).
"""

from __future__ import annotations

import math
import statistics
import time
from dataclasses import dataclass, replace
from pathlib import Path

from avfusion import data, harness, model

SPLITS = harness.SplitFractions()
SWEEPS = (("frame_repeat", "video"), ("clip_zero", "audio"))
# the eval-sweep checkpoint is trained in this many calls on the first train /
# val windows; the sweep retrains RETRAINS of them after each chunk, timed, so
# the workload also measures training throughput across the whole pass
CKPT_PARTS, CKPT_WINDOWS, RETRAINS = 18, (288, 72), 2
# re-scorings of each trained model, timed for eval_frames_per_s of train-*
RESCORES = 2
# val windows per sweep unit: 360 train-small val windows make 12 equal chunks,
# each one batched inference call
SWEEP_CHUNK = 30
# stated before measuring, from the float64 dtype the package computes in:
# results may differ only by summation order (another BLAS kernel, ~1e-16
# relative per op), amplified through a few training steps
TOLERANCE = 1e-9


class CheckFailed(Exception):
    """An output of the program is wrong; the run reports failure, not numbers."""


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str                       # "train" or "sweep"
    synth: dict                     # SyntheticConfig fields except the seed
    model: dict
    lr: float
    ablation: dict | None = None    # training augmentation, seeded per run
    parts: int = 1                  # train_on_prepared calls one pass splits the epoch into


SMALL_DATA = {"n_clips": 200, "clip_seconds": 30.0, "d_audio_lld": 16, "d_video": 32}
SMALL_MODEL = {"d_model": 32, "num_layers": 2, "num_heads": 4}

WORKLOADS = {
    "train-small": Workload(
        "train-small", "train", SMALL_DATA, SMALL_MODEL, lr=1e-3,
        ablation={"strategy": "frame_zero", "modality": "video", "probability": 0.5},
        parts=90),  # 90 x (1 step + 4 val windows)
    "train-paper": Workload(
        "train-paper", "train",
        {"n_clips": 10, "clip_seconds": 20.0, "d_audio_lld": 65, "d_video": 4096},
        {"d_model": 512, "num_layers": 2, "num_heads": 4}, lr=1e-4,
        ablation={"strategy": "clip_zero", "modality": "video", "probability": 0.5},
        parts=3),  # 3 x (1 step + 4 val windows)
    "eval-sweep": Workload("eval-sweep", "sweep", SMALL_DATA, SMALL_MODEL, lr=1e-3),
}


def tiny(w: Workload) -> Workload:
    """The same code path on inputs small enough for the reference replay and the tests.

    11 s clips leave a tail window, so scoring with `score_from` is exercised.
    """
    return replace(w, synth={"n_clips": 10, "clip_seconds": 11.0, "d_audio_lld": 5,
                             "d_video": 6},
                   model={"d_model": 8, "num_layers": 1, "num_heads": 2})


def run_config(w: Workload, seed: int, ablation: bool = True) -> harness.RunConfig:
    cfg = {"model": dict(w.model),
           "train": {"epochs": 1, "lr": w.lr, "batch_size": 16, "seq_len": 100, "seed": seed}}
    if ablation and w.ablation:
        cfg["ablation"] = dict(w.ablation, seed=seed + 1000)
    return harness.run_config_from_dict(cfg)


def split(prep: harness.PreparedData, parts: int, n_train: int | None = None,
          n_val: int | None = None) -> list[harness.PreparedData]:
    """Contiguous slices of the first n_train / n_val windows (all by default),
    equal-sized on the train side; fewer than `parts` if a slice would be empty."""
    train, val = prep.train_windows[:n_train], prep.val_windows[:n_val]
    parts = min(parts, len(train), len(val))
    size = len(train) // parts
    bounds = [round(i * len(val) / parts) for i in range(parts + 1)]
    return [replace(prep, train_windows=train[i * size:(i + 1) * size],
                    val_windows=val[bounds[i]:bounds[i + 1]]) for i in range(parts)]


def lower_quartile(rates: list[float]) -> float:
    """The rate that three in four of `rates` reach or beat."""
    if len(rates) == 1:
        return rates[0]
    return statistics.quantiles(rates, n=4, method="inclusive")[0]


def val_frames(dataset: data.Dataset) -> int:
    """Frames of the validation clips after sync, counted from the raw streams."""
    n = len(dataset.clips)
    lo = int(n * SPLITS.train)
    return sum(min(c.audio.shape[0] * 3 // 10, c.video.shape[0])
               for c in dataset.clips[lo:lo + int(n * SPLITS.val)])


@dataclass
class State:
    """What set-up hands to the timed units."""
    prep: harness.PreparedData
    n_val_frames: int
    parts: list                     # one timed unit each
    params: dict | None = None
    config: model.ModelConfig | None = None
    chunks: list | None = None      # eval-sweep: val windows of each sweep unit


@dataclass
class Checked:
    """Results of the output checks of one pass that feed metrics."""
    val_ccc_mean: float
    eval_frames_per_s: float | None = None
    train_windows_per_s: float | None = None


class TrainWorkload:
    """One epoch of training, as `parts` calls of `train_on_prepared` on slices of it."""

    def __init__(self, w: Workload, seed: int, workdir: Path):
        self.w, self.seed = w, seed
        self.run = run_config(w, seed)
        self.eval_rates: list[float] = []  # every re-scoring of the run
        self._reset()

    def _reset(self) -> None:
        self.val_cccs, self.scored = [], 0

    def prepare(self) -> None:
        pass

    def setup(self) -> State:
        dataset = data.generate_synthetic(data.SyntheticConfig(**self.w.synth, seed=self.seed))
        prep = harness.prepare_data(dataset, SPLITS, self.run.train.seq_len)
        return State(prep, val_frames(dataset), split(prep, self.w.parts))

    def ops(self, part: harness.PreparedData) -> int:
        """Training steps in one unit."""
        return math.ceil(len(part.train_windows) / self.run.train.batch_size)

    def throughput(self, state: State, samples: list) -> float:
        """Train windows per second of the lower-quartile unit; every unit is one full batch."""
        return lower_quartile([len(part.train_windows) / dt for part, dt in samples])

    def unit(self, state: State, part: harness.PreparedData) -> harness.TrainResult:
        return harness.train_on_prepared(self.run, part)

    @staticmethod
    def fingerprint(result: harness.TrainResult) -> list:
        return [[row.train_loss, row.ccc_valence, row.ccc_arousal] for row in result.log]

    def check(self, state: State, part: harness.PreparedData, result: harness.TrainResult) -> None:
        """Re-score the returned model RESCORES times, timed: forward-only throughput."""
        if len(result.log) != 1 or result.best_epoch != 0:
            raise CheckFailed(f"expected one logged epoch, got {len(result.log)}")
        row = result.log[0]
        if not (math.isfinite(row.train_loss) and 0.0 <= row.train_loss <= 2.0):
            raise CheckFailed(f"train loss {row.train_loss!r} outside [0, 2]")
        for _ in range(RESCORES):
            t0 = time.perf_counter()
            summary = harness.evaluate_windows(result.params, result.config, part.val_windows)
            self.eval_rates.append(summary.n_frames / (time.perf_counter() - t0))
        # the best params of a one-epoch run are the epoch's params, so the
        # logged validation CCC must be reproduced exactly
        if (summary.ccc_valence, summary.ccc_arousal) != (row.ccc_valence, row.ccc_arousal):
            raise CheckFailed(f"re-scored val CCC {summary.ccc_valence!r}/{summary.ccc_arousal!r} "
                              f"differs from logged {row.ccc_valence!r}/{row.ccc_arousal!r}")
        self.scored += summary.n_frames
        self.val_cccs.append(summary.mean_ccc())

    def finish(self, state: State) -> Checked:
        """Checks over the whole pass; eval_frames_per_s is the lower-quartile
        re-scoring of the run so far."""
        _check_frames(self.scored, state.n_val_frames)
        checked = Checked(statistics.fmean(self.val_cccs), lower_quartile(self.eval_rates))
        self._reset()
        return checked

    def extra(self) -> dict:
        return {}

    def cleanup(self) -> None:
        pass


class SweepWorkload:
    """`run_sweep` over the default grids on a checkpoint and dataset read from
    disk. One unit is one point on one chunk of the val windows; a pass covers
    every chunk at every point, chunk by chunk."""

    def __init__(self, w: Workload, seed: int, workdir: Path):
        self.w, self.seed = w, seed
        self.dataset_path = workdir / f"{w.name}-{seed}.avxd"
        self.ckpt_path = workdir / f"{w.name}-{seed}.ckpt"
        self.ckpt_run = run_config(w, seed, ablation=False)
        self.ckpt_parts: list = []
        self.ckpt_log: list = []
        self.train_rates: list[float] = []  # every retraining of the run
        self.clean: dict = {}       # chunk index (None: all val windows) -> clean summary

    def prepare(self) -> None:
        """Write the dataset file, and a checkpoint trained on the first slice."""
        dataset = data.generate_synthetic(data.SyntheticConfig(**self.w.synth, seed=self.seed))
        data.save_dataset(dataset, self.dataset_path)
        prep = harness.prepare_data(dataset, SPLITS, self.ckpt_run.train.seq_len)
        self.ckpt_parts = split(prep, CKPT_PARTS, *CKPT_WINDOWS)
        for i, part in enumerate(self.ckpt_parts):
            result = harness.train_on_prepared(self.ckpt_run, part)
            self.ckpt_log += TrainWorkload.fingerprint(result)
            if i == 0:
                model.save_checkpoint(result.params, result.config, self.ckpt_path)

    def _retrain(self, i: int) -> None:
        """Train checkpoint slice i again, timed; it must reproduce its logged epoch."""
        part = self.ckpt_parts[i % len(self.ckpt_parts)]
        t0 = time.perf_counter()
        result = harness.train_on_prepared(self.ckpt_run, part)
        self.train_rates.append(len(part.train_windows) / (time.perf_counter() - t0))
        if TrainWorkload.fingerprint(result) != [self.ckpt_log[i % len(self.ckpt_parts)]]:
            raise CheckFailed(f"retraining checkpoint slice {i % len(self.ckpt_parts)} "
                              f"changed its log")

    def setup(self) -> State:
        params, config = model.load_checkpoint(self.ckpt_path)
        dataset = data.load_dataset(self.dataset_path)
        prep = harness.prepare_data(dataset, SPLITS, config.seq_len)
        val = prep.val_windows
        chunks = [val[at:at + SWEEP_CHUNK] for at in range(0, len(val), SWEEP_CHUNK)]
        units = [(s, m, p, c) for c in range(len(chunks))
                 for s, m in SWEEPS for p in harness.DEFAULT_GRIDS[s]]
        return State(prep, val_frames(dataset), units, params, config, chunks)

    def ops(self, unit: tuple) -> int:
        """Sweep points on one chunk in one unit."""
        return 1

    def throughput(self, state: State, samples: list) -> float:
        """Scored frames x sweep points / sweep time, with each point's time
        taken at its lower-quartile chunk rate (chunks are equal in work)."""
        per_point: dict = {}
        for (s, m, p, c), dt in samples:
            per_point.setdefault((s, m, p), []).append(self._clean(state, c).n_frames / dt)
        return statistics.harmonic_mean([lower_quartile(r) for r in per_point.values()])

    def unit(self, state: State, unit: tuple) -> harness.SweepResult:
        strategy, modality, p, c = unit
        return harness.run_sweep(state.params, state.config, state.chunks[c],
                                 strategy, modality, [p], self.seed + 2000)[0]

    @staticmethod
    def fingerprint(r: harness.SweepResult) -> list:
        return [r.strategy, r.modality, r.probability, r.ccc_valence, r.ccc_arousal]

    def _clean(self, state: State, chunk: int | None):
        if chunk not in self.clean:
            windows = state.prep.val_windows if chunk is None else state.chunks[chunk]
            self.clean[chunk] = harness.evaluate_windows(state.params, state.config, windows)
        return self.clean[chunk]

    def check(self, state: State, unit: tuple, r: harness.SweepResult) -> None:
        if not (abs(r.ccc_valence) <= 1.0 and abs(r.ccc_arousal) <= 1.0):
            raise CheckFailed(f"CCC outside [-1, 1] at {r.strategy}/{r.modality} p={r.probability}")
        clean = self._clean(state, unit[3])
        if r.probability == 0.0 and (r.ccc_valence, r.ccc_arousal) != (clean.ccc_valence,
                                                                      clean.ccc_arousal):
            raise CheckFailed(f"{r.strategy}/{r.modality} at p=0 on chunk {unit[3]} scored "
                              f"{r.ccc_valence!r}/{r.ccc_arousal!r}, clean run "
                              f"{clean.ccc_valence!r}/{clean.ccc_arousal!r}")
        if unit[:3] == state.parts[-1][:3]:  # the chunk's last point
            for k in range(RETRAINS):
                self._retrain(RETRAINS * unit[3] + k)

    def finish(self, state: State) -> Checked:
        """Every val frame is scored once, by the whole set and by the chunks;
        train_windows_per_s is the lower-quartile retraining of the run so far."""
        clean = self._clean(state, None)
        _check_frames(clean.n_frames, state.n_val_frames)
        _check_frames(sum(self._clean(state, c).n_frames for c in range(len(state.chunks))),
                      state.n_val_frames)
        if sum(p == 0.0 for _, _, p, _ in state.parts) != len(SWEEPS) * len(state.chunks):
            raise CheckFailed("every grid must include p=0")
        return Checked(clean.mean_ccc(), train_windows_per_s=lower_quartile(self.train_rates))

    def extra(self) -> dict:
        return {"ckpt_log": self.ckpt_log}

    def cleanup(self) -> None:
        self.dataset_path.unlink(missing_ok=True)
        self.ckpt_path.unlink(missing_ok=True)


def _check_frames(scored: int, expected: int) -> None:
    if scored != expected:
        raise CheckFailed(f"scored {scored} frames, validation clips hold {expected}: "
                          f"every frame must be scored exactly once")


def make(w: Workload, seed: int, workdir: Path):
    return (TrainWorkload if w.kind == "train" else SweepWorkload)(w, seed, workdir)


# ---------------------------------------------------------------------------
# reference replay: the tiny variant at a fixed seed against stored outputs

REFERENCE_SEED = 0
REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"


def replay(w: Workload, workdir: Path) -> dict:
    """Outputs of one checked pass of the tiny variant of `w` at the reference seed."""
    bench = make(tiny(w), REFERENCE_SEED, workdir)
    try:
        bench.prepare()
        state = bench.setup()
        outputs = []
        for part in state.parts:
            out = bench.unit(state, part)
            bench.check(state, part, out)
            outputs.append(bench.fingerprint(out))
        checked = bench.finish(state)
    finally:
        bench.cleanup()
    return {"units": outputs, "val_ccc_mean": checked.val_ccc_mean, **bench.extra()}


def compare(got, want, where: str = "") -> None:
    """Raise CheckFailed unless `got` matches `want`: numbers within the float64 tolerance."""
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            raise CheckFailed(f"{where}: shape differs from the reference")
        for i, (g, x) in enumerate(zip(got, want)):
            compare(g, x, f"{where}[{i}]")
    elif isinstance(want, dict):
        if set(got) != set(want):
            raise CheckFailed(f"{where}: keys {sorted(got)} differ from the reference")
        for key in want:
            compare(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, float):
        if not math.isclose(got, want, rel_tol=TOLERANCE, abs_tol=TOLERANCE):
            raise CheckFailed(f"{where}: {got!r} differs from reference {want!r}")
    elif got != want:
        raise CheckFailed(f"{where}: {got!r} differs from reference {want!r}")
