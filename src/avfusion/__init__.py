"""Audio-visual valence/arousal regression with a cross-modal attention
transformer and missing-modality training augmentations."""

import os

# one BLAS thread per Python thread: model_forward already runs the audio and
# video encoders on two threads, and backward runs their rules on the same two,
# which is where a second core is used. OPENBLAS_NUM_THREADS>1 on top of them
# oversubscribes a two-core box, and on the many small matmuls of the workload
# OpenBLAS's spin-waiting workers fight the branches for cores (set the env var
# yourself to override)
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .augment import AblationSpec
from .data import ClipRecord, Dataset, NormStats, SyntheticConfig
from .metrics import EvalSummary, ccc, ccc_loss, eval_summary
from .model import ModelConfig, init_params, load_checkpoint, model_forward, save_checkpoint

__all__ = [
    "AblationSpec",
    "ClipRecord",
    "Dataset",
    "EvalSummary",
    "ModelConfig",
    "NormStats",
    "SyntheticConfig",
    "ccc",
    "ccc_loss",
    "eval_summary",
    "init_params",
    "load_checkpoint",
    "model_forward",
    "save_checkpoint",
]
