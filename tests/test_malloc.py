"""Importing avfusion pins glibc's malloc thresholds, so that a training
step reuses its temporaries from the heap instead of page-faulting fresh
mmapped ones; a threshold the user set in the environment wins."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import avfusion

# 3 warm-up and 5 measured training steps at batch 4, seq_len 100 and the
# study-full dims; prints the measured steps' minor faults per step
STEPS = """
import resource
import numpy as np
import avfusion
from avfusion import autodiff as ad
from avfusion.metrics import ccc_loss
from avfusion.model import ModelConfig, init_params, model_forward

config = ModelConfig(d_audio=960, d_video=32, d_model=32, seq_len=100)
params = init_params(config, 0)
plist = list(params.values())
state = ad.AdamState.for_params(plist)
rng = np.random.default_rng(0)
rows = 4 * config.seq_len
audio, video = rng.standard_normal((rows, 960)), rng.standard_normal((rows, 32))
gold = rng.uniform(-1.0, 1.0, (rows, 2))

def step():
    pred = model_forward(ad.Tensor(audio.copy()), ad.Tensor(video.copy()), params, config)
    loss = ccc_loss(pred, gold)
    ad.backward(loss)
    ad.adam_step(plist, state, 1e-4)

for _ in range(3):
    step()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(5):
    step()
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 5)
"""

# the bench's train-small workload: the study-full data and config, and
# units of one one-step `train_on_prepared` call at batch 16 on the next 16
# train windows, then two re-scorings of its 4 val windows; 3 warm-up and 9
# measured units, printing the median minor faults per unit. A gradcheck
# runs first, as in the bench. A variant that kept attention's softmax
# weights on a graph that held every op output faulted ~15k times per unit
# here (in each of 9 runs), and 0 times without the gradcheck, with 50
# clips, or (in 5 runs of 8) when each unit's result stayed alive into the
# next
UNITS = """
import resource
import statistics
from dataclasses import replace
from avfusion import harness
from avfusion.data import SyntheticConfig, generate_synthetic

harness.gradcheck(0)
data = generate_synthetic(SyntheticConfig(n_clips=200, clip_seconds=30.0, d_audio_lld=16,
                                          d_video=32, seed=1))
prep = harness.prepare_data(data, harness.SplitFractions(), seq_len=100)
parts = [replace(prep, train_windows=prep.train_windows[16 * i:16 * (i + 1)],
                 val_windows=prep.val_windows[4 * i:4 * (i + 1)]) for i in range(12)]
run = harness.run_config_from_dict({
    "model": {"d_model": 32, "num_layers": 2, "num_heads": 4},
    "train": {"epochs": 1, "lr": 1e-3, "batch_size": 16, "seq_len": 100, "seed": 1},
    "ablation": {"strategy": "frame_zero", "modality": "video", "probability": 0.5,
                 "seed": 1001}})

faults = []
for part in parts:
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    result = harness.train_on_prepared(run, part)
    for _ in range(2):
        harness.evaluate_windows(result.params, result.config, part.val_windows)
    del result  # nothing a unit allocated stays below the next unit's heap top
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(statistics.median(faults[3:]))
"""


def _faults(script: str, **env) -> float:
    src = Path(avfusion.__file__).resolve().parent.parent
    clean = {"PATH": os.environ.get("PATH", ""), "PYTHONPATH": str(src), **env}
    done = subprocess.run([sys.executable, "-c", script], env=clean, capture_output=True,
                          text=True, timeout=120, check=True)
    return float(done.stdout.split()[-1])


def _glibc() -> bool:
    try:
        return sys.platform.startswith("linux") and bool(os.confstr("CS_GNU_LIBC_VERSION"))
    except (AttributeError, ValueError):
        return False


@pytest.mark.skipif(not _glibc(), reason="mallopt thresholds are glibc's")
def test_training_step_reuses_its_temporaries_unless_the_user_set_a_threshold():
    # under glibc's dynamic thresholds these steps take 3,400-4,900 faults each
    assert _faults(STEPS) < 300
    assert _faults(STEPS, MALLOC_MMAP_THRESHOLD_="131072") > 1000


@pytest.mark.skipif(not _glibc(), reason="mallopt thresholds are glibc's")
def test_bench_sized_training_units_reuse_their_temporaries():
    # a larger step's heap outgrows the trim threshold sooner: at batch 16
    # the batch-4 steps above can stay under it while these units fault
    assert _faults(UNITS) < 300
