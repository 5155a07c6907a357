#!/usr/bin/env python3
"""Benchmark command: runs one workload in this single process.

    python3 perfbench/run.py --workload train-small --seed 1 --seconds 15 --trace 0

Run it from a checkout that holds ``src/avfusion``; it imports the package
from there. ``--trace 0`` measures the end-to-end metrics with nothing
wrapped. ``--trace 1`` runs each unit of the workload untraced and then
traced, and reports the per-layer metrics and the tracing overhead. Both
modes first run the correctness gate: ``harness.gradcheck(0)`` and a replay
of the workload's tiny variant against ``perfbench/reference.json``. They
check the workload's outputs after each unit. A run that fails a check
prints ``"correct": false`` with no metrics and exits with 1.

Standard output ends with one JSON line:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}``.
A ``provenance`` line before it names the machine and the code measured.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKDIR = ROOT / ".perfbench"
SRC = ROOT / "src"
SETUP_REPEATS = 3
WORKLOAD_NAMES = ("train-small", "train-paper", "eval-sweep")


@dataclass
class Tally:
    """Operations (training steps; sweep points, one per chunk) started and failed."""
    attempted: int = 0
    failed: int = 0


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="time budget of the timed phase; at least one unit always runs")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def git_rev() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "none (not a git checkout)"


def src_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "avfusion").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(args, np) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas['version']}"
    except (AttributeError, KeyError, TypeError):
        blas_name = "unknown"
    return {"workload": args.workload, "seed": args.seed, "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas_name,
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
            "nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu_model(),
            "git_rev": git_rev(), "src_sha256": src_sha256()}


def gate(w, wl, harness) -> None:
    report = harness.gradcheck(0)
    if not report.passed:
        raise wl.CheckFailed(f"gradcheck: relative error {report.max_rel_err!r} at "
                             f"{report.worst_param} exceeds {report.tolerance}")
    reference = json.loads(wl.REFERENCE_PATH.read_text("utf-8"))[w.name]
    wl.compare(wl.replay(w, WORKDIR), reference, f"reference replay {w.name}")


def timed_pass(bench, state, parts, tally: Tally, wl, check: bool = True, probe=None):
    """Each unit in `parts` once: (seconds per unit, outputs as JSON).

    Operations of a unit that raises or fails its check count as failed.
    `probe`, if given, samples the host speed right after each unit.
    """
    times, outputs = [], []
    for part in parts:
        n = bench.ops(part)
        tally.attempted += n
        t0 = time.perf_counter()
        try:
            out = bench.unit(state, part)
        except Exception as exc:
            tally.failed += n
            raise wl.CheckFailed(f"timed unit raised {exc!r}") from exc
        times.append(time.perf_counter() - t0)
        if probe is not None:
            probe.sample(times[-1])
        outputs.append(bench.fingerprint(out))
        if check:
            try:
                bench.check(state, part, out)
            except wl.CheckFailed:
                tally.failed += n
                raise
    return times, json.dumps(outputs)


def measure(args, w, bench, tally: Tally, wl) -> dict:
    """Untraced: median set-up of several, a warm-up unit, then checked passes
    until the time budget is spent.

    Throughputs are lower-quartile unit rates over every pass (see
    workloads.py), scaled to the reference box by the run's host speed (see
    hostprobe.py).
    """
    import hostprobe

    setup_times, state = [], None
    for _ in range(SETUP_REPEATS):
        state = None  # drop the previous set-up first, so memory holds one copy
        t0 = time.perf_counter()
        state = bench.setup()
        setup_times.append(time.perf_counter() - t0)
    bench.unit(state, state.parts[0])  # first-touch allocations are not timed
    probe = hostprobe.HostProbe()
    samples, elapsed, first = [], 0.0, None
    while True:
        times, outputs = timed_pass(bench, state, state.parts, tally, wl, probe=probe)
        checked = bench.finish(state)
        if first is not None and outputs != first:
            raise wl.CheckFailed("a repeated pass gave different outputs")
        first = outputs
        samples += zip(state.parts, times)
        elapsed += sum(times)
        if elapsed + sum(times) > args.seconds:  # another pass would overrun the budget
            break
    rate = bench.throughput(state, samples)
    if w.kind == "train":
        train_rate, eval_rate = rate, checked.eval_frames_per_s
    else:
        train_rate, eval_rate = checked.train_windows_per_s, rate
    setup_s, speed = statistics.median(setup_times), probe.speed(wl.lower_quartile)
    print(f"host speed {speed:.4f} of the reference box; as measured: setup_s {setup_s:.6g}, "
          f"train_windows_per_s {train_rate:.6g}, eval_frames_per_s {eval_rate:.6g}")
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "train_windows_per_s": {"value": train_rate / speed, "unit": "1/s"},
        "eval_frames_per_s": {"value": eval_rate / speed, "unit": "1/s"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "unit": "MB"},
    }


def measure_traced(args, w, bench, tally: Tally, wl, spans, header: dict) -> dict:
    """A traced set-up, then each unit untraced (checked) and right after traced.

    Both runs of a unit must give byte-identical outputs. Running them back
    to back puts both in the same phase of host noise (see workloads.py), so
    their paired difference is the tracing overhead.
    """
    tracer = spans.Tracer()
    with tracer:
        state = bench.setup()
    bench.unit(state, state.parts[0])  # warm-up, as in measure()
    plain, traced = [], []
    for part in state.parts:
        (plain_s,), want = timed_pass(bench, state, [part], tally, wl)
        with tracer:
            (traced_s,), outputs = timed_pass(bench, state, [part], tally, wl, check=False)
        if outputs != want:
            raise wl.CheckFailed("tracing changed the workload's outputs")
        plain.append(plain_s)
        traced.append(traced_s)
    checked = bench.finish(state)
    stats = spans.TraceStats(tracer, plain, traced, checked.val_ccc_mean)
    tracer.write(WORKDIR / f"trace-{w.name}-seed{args.seed}.json",
                 dict(header, untraced_unit_s=plain, traced_unit_s=traced))
    return spans.per_layer_metrics(stats)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "avfusion" / "__init__.py").is_file():
        print(f"perfbench: no avfusion package under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import avfusion  # noqa: F401  (sets the single-threaded BLAS default before numpy loads)
    import numpy as np
    from avfusion import harness

    import spans
    import workloads as wl

    w = wl.WORKLOADS[args.workload]
    WORKDIR.mkdir(exist_ok=True)
    header = {"provenance": provenance(args, np)}
    print("provenance " + json.dumps(header["provenance"]), flush=True)
    tally = Tally()
    bench = wl.make(w, args.seed, WORKDIR)
    try:
        gate(w, wl, harness)
        bench.prepare()
        if args.trace:
            metrics = measure_traced(args, w, bench, tally, wl, spans, header)
        else:
            metrics = measure(args, w, bench, tally, wl)
    except wl.CheckFailed as exc:
        print(f"perfbench: {w.name} failed its check: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": max(tally.attempted, 1),
                          "failed": max(tally.failed, 1), "metrics": {}}))
        return 1
    finally:
        bench.cleanup()
    for name, m in metrics.items():
        print(f"{name:34s} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps({"correct": True, "attempted": tally.attempted, "failed": tally.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
