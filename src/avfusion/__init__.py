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


def _pin_malloc_thresholds() -> None:
    """Fix glibc's mmap threshold at 32 MiB and its trim threshold at 64 MiB.

    glibc starts with a 128 KiB mmap threshold and raises it, up to 32 MiB
    on 64-bit, each time the process frees an mmapped block larger than it;
    until it has passed a temporary's size, every such temporary is mmapped,
    faulted in page by page and unmapped again. A train-small unit (one
    16-window step and 4 val windows) took 6.8-13.5k minor faults that way,
    and how many depended on which arrays the process had happened to free
    before. Pinned in the state the dynamic rule drifts towards (the cap, and
    twice it for trim, as the rule pairs them), temporaries under 32 MiB are
    reused from the heap: the same unit takes 0 faults in the median (at most
    ~230) and a median 156-172 ms against 173-193 ms on a 2-core box. Both
    values are needed, as setting either one stops the dynamic rule: with the
    trim threshold alone the unit took 354-362 ms and 65k faults.

    Runs before any thread starts (the autodiff worker starts on its first
    submit). Off glibc, when the user set either threshold or
    GLIBC_TUNABLES, or when mallopt refuses the mmap threshold, the
    allocator is left as it is.
    """
    if any(name in os.environ for name in
           ("MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_", "GLIBC_TUNABLES")):
        return
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION"):
            return
        import ctypes

        mallopt = ctypes.CDLL(None).mallopt
        mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    except (AttributeError, ImportError, OSError, ValueError):  # not glibc, or no ctypes
        return
    m_trim_threshold, m_mmap_threshold = -1, -3
    if mallopt(m_mmap_threshold, 32 << 20):
        mallopt(m_trim_threshold, 64 << 20)


_pin_malloc_thresholds()

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
