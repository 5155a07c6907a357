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
    for p in plist:
        p.zero_grad()
    pred = model_forward(ad.Tensor(audio.copy()), ad.Tensor(video.copy()), params, config,
                         batch=4)
    loss = ccc_loss(pred, gold)
    ad.backward(loss)
    ad.adam_step(plist, [p.grad for p in plist], state, 1e-4)

for _ in range(3):
    step()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(5):
    step()
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 5)
"""


def _faults_per_step(**env) -> float:
    src = Path(avfusion.__file__).resolve().parent.parent
    clean = {"PATH": os.environ.get("PATH", ""), "PYTHONPATH": str(src), **env}
    done = subprocess.run([sys.executable, "-c", STEPS], env=clean, capture_output=True,
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
    assert _faults_per_step() < 300
    assert _faults_per_step(MALLOC_MMAP_THRESHOLD_="131072") > 1000
