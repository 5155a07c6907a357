"""Tests of the benchmark itself, on the tiny variant of each workload.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

import argparse
import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import spans  # noqa: E402
import workloads as wl  # noqa: E402
from avfusion import augment, data, harness, model  # noqa: E402
from avfusion import autodiff as ad  # noqa: E402

PATCHED_MODULES = (ad, model, harness, data, augment)
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))


def run_tiny(name: str, workdir: Path, traced: bool):
    """Set-up and one pass of the tiny workload: (outputs as JSON, tracer or None)."""
    bench = wl.make(wl.tiny(wl.WORKLOADS[name]), 3, workdir)
    tracer = None
    try:
        bench.prepare()
        if traced:
            with spans.Tracer() as tracer:
                state = bench.setup()
                _, outputs = run.timed_pass(bench, state, state.parts, run.Tally(), wl, check=False)
        else:
            state = bench.setup()
            _, outputs = run.timed_pass(bench, state, state.parts, run.Tally(), wl)
    finally:
        bench.cleanup()
    return outputs, tracer


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    return {name: run_tiny(name, tmp_path_factory.mktemp(name), True)
            for name in wl.WORKLOADS}


def module_attrs():
    return [dict(vars(m)) for m in PATCHED_MODULES]


def assert_same_attrs(before):
    for module, attrs in zip(PATCHED_MODULES, before):
        now = vars(module)
        assert [k for k in attrs if now.get(k) is not attrs[k]] == [], module.__name__


@pytest.mark.parametrize("name", list(wl.WORKLOADS))
def test_tracing_changes_no_output(name, tmp_path, traced):
    plain, _ = run_tiny(name, tmp_path, False)
    assert plain == traced[name][0]


def test_every_patched_attribute_is_restored(tmp_path):
    before = module_attrs()
    run_tiny("eval-sweep", tmp_path, True)
    assert_same_attrs(before)
    with pytest.raises(RuntimeError, match="inside"):
        with spans.Tracer() as tracer:
            assert tracer._patched and ad.matmul is not before[0]["matmul"]
            raise RuntimeError("inside the traced block")
    assert_same_attrs(before)


def test_benchmark_json_names_the_bench_metrics(tmp_path):
    assert [w["name"] for w in SPEC["workloads"]] == list(wl.WORKLOADS) == list(run.WORKLOAD_NAMES)
    assert ([(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]]
            == [(m.name, m.unit, m.better) for m in spans.PER_LAYER])
    for name, workload in wl.WORKLOADS.items():
        w = wl.tiny(workload)
        bench = wl.make(w, 3, tmp_path)
        try:
            bench.prepare()
            metrics = run.measure(argparse.Namespace(seconds=0), w, bench, run.Tally(), wl)
        finally:
            bench.cleanup()
        assert ([(m["name"], m["unit"]) for m in SPEC["end_to_end"]]
                == [(k, v["unit"]) for k, v in metrics.items()]), name
        assert all(v["value"] > 0 for v in metrics.values()), name


@pytest.mark.parametrize("name", list(wl.WORKLOADS))
def test_each_per_layer_metric_records_calls_on_its_workloads(name, traced):
    """A wrapper on a name nobody looks up would read 0 here instead of passing silently."""
    stats = spans.TraceStats(traced[name][1], [1.0], [1.0], 0.5)
    mapped = [m for m in spans.PER_LAYER if name in m.workloads]
    assert [m.name for m in mapped if stats.calls[m.span] == 0] == []
    assert [m.name for m in mapped
            if not m.name.startswith("trace.") and not m.value(stats) > 0] == []


def test_train_steps_follow_adam_steps(tmp_path, traced):
    bench = wl.make(wl.tiny(wl.WORKLOADS["train-small"]), 3, tmp_path)
    stats = spans.TraceStats(traced["train-small"][1], [1.0], [1.0], 0.0)
    state = bench.setup()
    assert len(stats.steps) == sum(bench.ops(part) for part in state.parts) == len(state.parts)
    assert len(set(stats.ops_per_step)) == 1
    assert all(0 < self_s < hi - lo for lo, hi, self_s in stats.steps)


def test_matmul_flops_and_backward_spans_are_counted():
    a = ad.Tensor(np.ones((3, 4)), requires_grad=True)
    b = ad.Tensor(np.ones((4, 5)), requires_grad=True)
    with spans.Tracer() as tracer:
        ad.backward(ad.tmean(ad.matmul(a, b)))
    assert tracer.flop["autodiff.matmul"] == 2 * 3 * 4 * 5 + 4 * 3 * 4 * 5
    assert tracer.nbytes["autodiff.matmul"] == 3 * 8 * (3 * 4 + 4 * 5 + 3 * 5)
    bwd = tracer.names.index("autodiff.matmul.bwd")
    assert tracer.names[tracer.parents[bwd]] == "autodiff.backward"


@pytest.mark.parametrize("name", list(wl.WORKLOADS))
def test_reference_replay_matches_and_detects_a_change(name, tmp_path):
    reference = json.loads(wl.REFERENCE_PATH.read_text("utf-8"))[name]
    got = wl.replay(wl.WORKLOADS[name], tmp_path)
    wl.compare(got, reference)
    got["val_ccc_mean"] += 1e-6
    with pytest.raises(wl.CheckFailed):
        wl.compare(got, reference)


def test_missing_source_tree_exits_without_a_result(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "train-small", "--seed", "1", "--seconds", "1"]) != 0
    assert capsys.readouterr().out == ""
