"""Span tracer that wraps avfusion's public functions from outside the package.

Each wrapper is installed at the attribute its callers look up at call time:
a module global for calls inside one module (``model_forward`` calls
``encoder_forward``; ``autodiff.linear`` calls ``matmul``), and the importing
module's own name for ``from x import f`` (``harness`` imports
``model_forward``, ``ccc_loss`` and ``sync_clip`` by name). A wrapper records
one span (name, start, end, parent) in memory. For autodiff ops it also wraps
the backward rule of the tensor the op returns, so the backward pass is timed
per op. ``Tracer.uninstall`` puts every attribute back.

Self time is a span's duration minus the time its direct children cover.
Bookkeeping done after a wrapped call returns is charged to the caller's span;
the traced run reports the total cost of tracing as its overhead.
"""

from __future__ import annotations

import json
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable

from avfusion import augment, data, harness, model
from avfusion import autodiff as ad

TRAIN = ("train-small", "train-paper")
SWEEP = ("eval-sweep",)
ALL = TRAIN + SWEEP

NAMED_OPS = ("matmul", "attention", "layer_norm", "add_bias", "relu")
# every other recorded op the model or the CCC loss can reach; ops a later
# version removes are skipped, and the coverage metric shows any that is missed
OTHER_OPS = ("add", "sub", "mul", "div", "scale", "tmean", "tsum", "slice_cols",
             "softmax", "transpose", "tanh", "concat_cols", "concat_rows")


class Tracer:
    """In-memory spans plus FLOP/byte counters keyed by span name."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.flop: dict[str, float] = defaultdict(float)
        self.nbytes: dict[str, float] = defaultdict(float)
        self._open: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, fn: Callable, name, on_return: Callable | None = None) -> Callable:
        """`fn`, recording a span per call.

        `name` is a string, or a function of the call's arguments that returns one.
        """
        def traced(*args, **kwargs):
            idx = len(self.names)
            self.names.append(name if isinstance(name, str) else name(*args, **kwargs))
            self.parents.append(self._open[-1] if self._open else -1)
            self.ends.append(0.0)
            self._open.append(idx)
            self.starts.append(time.perf_counter())
            try:
                out = fn(*args, **kwargs)
            finally:
                self.ends[idx] = time.perf_counter()
                self._open.pop()
            if on_return is not None:
                on_return(self, out, *args, **kwargs)
            return out

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner, attr: str, name, on_return: Callable | None = None) -> None:
        original = getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self.wrap(original, name, on_return))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def count(self, name: str, flop: float, nbytes: float) -> None:
        self.flop[name] += flop
        self.nbytes[name] += nbytes

    def __enter__(self) -> "Tracer":
        try:
            install(self)
        except BaseException:
            self.uninstall()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def write(self, path, header: dict) -> None:
        """Spans as parallel lists (times in seconds from the first span)."""
        t0 = self.starts[0] if self.starts else 0.0
        doc = dict(header, spans={
            "name": self.names,
            "start": [s - t0 for s in self.starts],
            "end": [e - t0 for e in self.ends],
            "parent": self.parents,
        })
        with open(path, "w", encoding="utf-8") as f:
            json.dump(doc, f)


# ---------------------------------------------------------------------------
# computed FLOPs and bytes: (forward, backward), each (flop, bytes)


def _matmul_cost(a, b):
    (m, k), n = a.data.shape, b.data.shape[1]
    moved = a.data.itemsize * (m * k + k * n + m * n)
    # backward: g @ b.T and a.T @ g, each reading two operands and writing one
    return (2 * m * k * n, moved), (4 * m * k * n, 2 * moved)


def _attention_cost(q, k, v, num_heads, block_len):
    rows, d = q.data.shape
    bh = rows // block_len * num_heads
    t2, dh = block_len * block_len, d // num_heads
    # [T x T] score chunks stay cache resident, so only q, k, v, out (and g,
    # dq, dk, dv in backward) count as moved bytes
    fwd = (4 * bh * t2 * dh + 4 * bh * t2 + rows * d, 4 * rows * d * q.data.itemsize)
    # backward recomputes the scores and softmax, then dV, dS, dQ, dK
    bwd = (10 * bh * t2 * dh + 8 * bh * t2 + rows * d, 7 * rows * d * q.data.itemsize)
    return fwd, bwd


def _op_hook(op: str, cost: Callable | None = None) -> Callable:
    fwd_name = f"autodiff.{op}"

    def hook(tracer: Tracer, out, *args, **kwargs):
        bwd = None
        if cost is not None:
            fwd, bwd = cost(*args, **kwargs)
            tracer.count(fwd_name, *fwd)
        rule = out._backward_rule
        if rule is not None:
            counted = None if bwd is None else (lambda t, _out, *_a: t.count(fwd_name, *bwd))
            out._backward_rule = tracer.wrap(rule, fwd_name + ".bwd", counted)

    return hook


def _sync_mb(tracer: Tracer, out, *args, **kwargs):
    tracer.count("data.sync_clip", 0, out.audio.nbytes)


def _dataset_mb(tracer: Tracer, out, *args, **kwargs):
    tracer.count("data.load_dataset", 0,
                 sum(c.audio.nbytes + c.video.nbytes + c.labels.nbytes for c in out.clips))


def _encoder_name(x, params, branch, *args, **kwargs):
    return f"model.encoder_forward.{branch}"


def install(tracer: Tracer) -> None:
    """Wrap every traced function at the name its callers look up."""
    tracer.patch(ad, "matmul", "autodiff.matmul", _op_hook("matmul", _matmul_cost))
    tracer.patch(ad, "attention", "autodiff.attention", _op_hook("attention", _attention_cost))
    for op in NAMED_OPS[2:] + tuple(o for o in OTHER_OPS if hasattr(ad, o)):
        tracer.patch(ad, op, f"autodiff.{op}", _op_hook(op))
    tracer.patch(ad, "backward", "autodiff.backward")
    tracer.patch(ad, "adam_step", "autodiff.adam_step")

    tracer.patch(harness, "model_forward", "model.model_forward")
    tracer.patch(model, "encoder_forward", _encoder_name)
    tracer.patch(model, "cross_modal_fuse", "model.cross_modal_fuse")
    tracer.patch(model, "multi_head_attention", "model.multi_head_attention")
    tracer.patch(harness, "clone_params", "model.clone_params")
    tracer.patch(model, "load_checkpoint", "model.load_checkpoint")

    tracer.patch(data, "generate_synthetic", "data.generate_synthetic")
    tracer.patch(data, "load_dataset", "data.load_dataset", _dataset_mb)
    for fn in ("fit_norm", "apply_norm", "window_clips"):
        tracer.patch(harness, fn, f"data.{fn}")
    tracer.patch(harness, "sync_clip", "data.sync_clip", _sync_mb)

    tracer.patch(harness, "ablate_sequence", "augment.ablate_sequence")
    for owner in (harness, augment, data):
        tracer.patch(owner, "derive_rng", "seeding.derive_rng")

    tracer.patch(harness, "ccc_loss", "metrics.ccc_loss")
    tracer.patch(harness, "eval_summary", "metrics.eval_summary")
    for fn in ("prepare_data", "train_on_prepared", "run_sweep", "evaluate_windows",
               "corrupt_windows"):
        tracer.patch(harness, fn, f"harness.{fn}")


# ---------------------------------------------------------------------------
# analysis


class TraceStats:
    """Totals per span name, training steps, and the tracing overhead: the
    median over units of traced minus untraced time of the same unit.

    A training step ends when `adam_step` returns. It starts when the previous
    step's `adam_step` returned, or, for an epoch's first step, when the
    epoch's shuffling RNG was derived.
    """

    def __init__(self, tracer: Tracer, plain_unit_s: list[float], traced_unit_s: list[float],
                 val_ccc_mean: float):
        self.tracer = tracer
        self.overhead_s = statistics.median(t - p for p, t in zip(plain_unit_s, traced_unit_s))
        self.overhead_share = statistics.median(
            t / p - 1.0 for p, t in zip(plain_unit_s, traced_unit_s))
        self.val_ccc_mean = val_ccc_mean
        names, starts, ends, parents = tracer.names, tracer.starts, tracer.ends, tracer.parents
        dur = [e - s for s, e in zip(starts, ends)]
        child = [0.0] * len(names)
        for i, p in enumerate(parents):
            if p >= 0:
                child[p] += dur[i]
        self.calls: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        for i, name in enumerate(names):
            self.calls[name] += 1
            self.total[name] += dur[i]
            self.self_s[name] += dur[i] - child[i]

        # steps: (start, end, wall not covered by a child span of train_on_prepared)
        self.steps: list[tuple[float, float, float]] = []
        start, covered = 0.0, 0.0
        for i, name in enumerate(names):
            p = parents[i]
            if p < 0 or names[p] != "harness.train_on_prepared":
                continue
            if name == "seeding.derive_rng":
                start, covered = ends[i], 0.0
                continue
            covered += dur[i]
            if name == "autodiff.adam_step":
                self.steps.append((start, ends[i], ends[i] - start - covered))
                start, covered = ends[i], 0.0

        fwd_ops = {f"autodiff.{op}" for op in NAMED_OPS + OTHER_OPS}
        op_starts = [s for s, n in zip(starts, names) if n in fwd_ops]  # already sorted
        self.ops_per_step = []
        at = 0
        for lo, hi, _ in self.steps:
            while at < len(op_starts) and op_starts[at] < lo:
                at += 1
            n = 0
            while at < len(op_starts) and op_starts[at] < hi:
                at += 1
                n += 1
            self.ops_per_step.append(n)

    def other_ops(self, suffix: str = "") -> float:
        return sum(self.total[f"autodiff.{op}{suffix}"] for op in OTHER_OPS)

    def step_times(self) -> list[float]:
        return [hi - lo for lo, hi, _ in self.steps]

    def step_quantile(self, q: int) -> float:
        times = sorted(self.step_times())
        if not times:
            return 0.0
        return times[min(len(times) - 1, int(q / 100 * len(times)))]

    def coverage(self) -> float:
        """Share of step wall time (or sweep wall time) that wrapped layers' self times cover."""
        if self.steps:
            wall = sum(self.step_times())
            return 1.0 - sum(s for _, _, s in self.steps) / wall
        wall = self.total["harness.run_sweep"]
        return 1.0 - self.self_s["harness.run_sweep"] / wall if wall else 0.0


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    span: str            # the span whose calls this metric reads
    workloads: tuple     # workloads that must exercise that span
    value: Callable[[TraceStats], float]
    better: str = "lower"


def _fb(op: str, flops: bool = False) -> list[Metric]:
    span = f"autodiff.{op}"
    out = [Metric(f"{span}.fwd_s", "s", span, ALL, lambda st: st.total[span]),
           Metric(f"{span}.bwd_s", "s", span + ".bwd", TRAIN,
                  lambda st: st.total[span + ".bwd"])]
    if flops:
        out += [Metric(f"{span}.calls", "count", span, ALL, lambda st: st.calls[span]),
                Metric(f"{span}.gflop", "GFLOP", span, ALL,
                       lambda st: st.tracer.flop[span] / 1e9),
                Metric(f"{span}.mb", "MB", span, ALL, lambda st: st.tracer.nbytes[span] / 1e6)]
    return out


def _seconds(name: str, span: str, workloads) -> Metric:
    return Metric(name, "s", span, workloads, lambda st: st.total[span])


PER_LAYER: list[Metric] = [
    *_fb("attention", flops=True),
    *_fb("matmul", flops=True),
    _seconds("autodiff.adam_step.s", "autodiff.adam_step", TRAIN),
    *_fb("layer_norm"), *_fb("add_bias"), *_fb("relu"),
    Metric("autodiff.other.fwd_s", "s", "autodiff.add", ALL, lambda st: st.other_ops()),
    Metric("autodiff.other.bwd_s", "s", "autodiff.add.bwd", TRAIN,
           lambda st: st.other_ops(".bwd")),
    _seconds("autodiff.backward.s", "autodiff.backward", TRAIN),
    Metric("autodiff.backward.overhead_s", "s", "autodiff.backward", TRAIN,
           lambda st: st.self_s["autodiff.backward"]),
    Metric("autodiff.ops_per_step", "count", "autodiff.adam_step", TRAIN,
           lambda st: int(statistics.median(st.ops_per_step)) if st.ops_per_step else 0),

    _seconds("model.model_forward.s", "model.model_forward", ALL),
    _seconds("model.encoder_forward.audio.s", "model.encoder_forward.audio", ALL),
    _seconds("model.encoder_forward.video.s", "model.encoder_forward.video", ALL),
    _seconds("model.cross_modal_fuse.s", "model.cross_modal_fuse", ALL),
    _seconds("model.multi_head_attention.s", "model.multi_head_attention", ALL),
    _seconds("model.clone_params.s", "model.clone_params", TRAIN),
    _seconds("model.load_checkpoint.s", "model.load_checkpoint", SWEEP),

    _seconds("data.generate_synthetic.s", "data.generate_synthetic", TRAIN),
    _seconds("data.fit_norm.s", "data.fit_norm", ALL),
    _seconds("data.apply_norm.s", "data.apply_norm", ALL),
    _seconds("data.sync_clip.s", "data.sync_clip", ALL),
    _seconds("data.window_clips.s", "data.window_clips", ALL),
    Metric("data.stacked_audio_mb", "MB", "data.sync_clip", ALL,
           lambda st: st.tracer.nbytes["data.sync_clip"] / 1e6),
    _seconds("data.load_dataset.s", "data.load_dataset", SWEEP),
    Metric("data.load_dataset.mb", "MB", "data.load_dataset", SWEEP,
           lambda st: st.tracer.nbytes["data.load_dataset"] / 1e6),

    _seconds("augment.ablate_sequence.s", "augment.ablate_sequence", ALL),
    Metric("augment.ablate_sequence.calls", "count", "augment.ablate_sequence", ALL,
           lambda st: st.calls["augment.ablate_sequence"]),
    _seconds("seeding.derive_rng.s", "seeding.derive_rng", ALL),
    Metric("seeding.derive_rng.calls", "count", "seeding.derive_rng", ALL,
           lambda st: st.calls["seeding.derive_rng"]),

    _seconds("metrics.ccc_loss.s", "metrics.ccc_loss", TRAIN),
    _seconds("metrics.eval_summary.s", "metrics.eval_summary", ALL),
    Metric("metrics.val_ccc_mean", "ccc", "metrics.eval_summary", ALL,
           lambda st: st.val_ccc_mean, "higher"),

    _seconds("harness.prepare_data.s", "harness.prepare_data", ALL),
    _seconds("harness.evaluate_windows.s", "harness.evaluate_windows", ALL),
    _seconds("harness.corrupt_windows.s", "harness.corrupt_windows", SWEEP),
    Metric("harness.train_step_s_p50", "s", "autodiff.adam_step", TRAIN,
           lambda st: st.step_quantile(50)),
    Metric("harness.train_step_s_p90", "s", "autodiff.adam_step", TRAIN,
           lambda st: st.step_quantile(90)),
    Metric("harness.train_step_samples", "count", "autodiff.adam_step", TRAIN,
           lambda st: len(st.steps), "higher"),
    Metric("harness.step_self_s", "s", "autodiff.adam_step", TRAIN,
           lambda st: sum(s for _, _, s in st.steps)),

    Metric("trace.overhead_s", "s", "harness.prepare_data", ALL, lambda st: st.overhead_s),
    Metric("trace.overhead_pct", "%", "harness.prepare_data", ALL,
           lambda st: 100.0 * st.overhead_share),
    Metric("trace.self_time_coverage", "ratio", "harness.prepare_data", ALL,
           lambda st: st.coverage(), "higher"),
]


def per_layer_metrics(stats: TraceStats) -> dict[str, dict]:
    return {m.name: {"value": m.value(stats), "unit": m.unit} for m in PER_LAYER}
