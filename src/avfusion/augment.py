"""Missing-modality corruptions: clip zeroing, frame zeroing, frame repetition.

All three strategies are pure functions of (sequence, probability, rng). The
frame-level strategies draw one uniform per frame in index order and differ
only in how selected frames are filled, so a shared (seed, index) always
selects the same frame set.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .seeding import derive_rng

STRATEGIES = ("none", "clip_zero", "frame_zero", "frame_repeat")
MODALITIES = ("audio", "video")


@dataclass(frozen=True)
class AblationSpec:
    strategy: str
    modality: str = "video"
    probability: float = 0.5
    seed: int = 0

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}, expected one of {STRATEGIES}")
        if self.modality not in MODALITIES:
            raise ValueError(f"unknown modality {self.modality!r}, expected one of {MODALITIES}")
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError(f"probability must be in [0, 1], got {self.probability}")
        if self.seed < 0:
            raise ValueError(f"ablation.seed must be >= 0, got {self.seed}")


def clip_zero(seq: np.ndarray, p: float, rng: np.random.Generator) -> np.ndarray:
    """Zero the whole sequence with probability p, else pass it through."""
    if rng.random() < p:
        return np.zeros_like(seq)
    return seq


def _frame_mask(t: int, p: float, rng: np.random.Generator) -> np.ndarray:
    return rng.random(t) < p


def frame_zero(seq: np.ndarray, p: float, rng: np.random.Generator) -> np.ndarray:
    """Independently replace each frame by the zero vector with probability p."""
    mask = _frame_mask(seq.shape[0], p, rng)
    if not mask.any():
        return seq
    out = seq.copy()
    out[mask] = 0.0
    return out


def carry_forward_fill(seq: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Replace masked frames by the most recent retained frame; leading masked
    frames (no retained frame yet) become zero vectors."""
    t = seq.shape[0]
    last_retained = np.maximum.accumulate(np.where(mask, -1, np.arange(t)))
    out = seq[np.maximum(last_retained, 0)]  # fancy indexing: a fresh, writeable array
    out[last_retained < 0] = 0.0
    return out


def frame_repeat(seq: np.ndarray, p: float, rng: np.random.Generator) -> np.ndarray:
    """Independently replace each frame by a carry-forward copy with probability p."""
    mask = _frame_mask(seq.shape[0], p, rng)
    if not mask.any():
        return seq
    return carry_forward_fill(seq, mask)


_DISPATCH = {"clip_zero": clip_zero, "frame_zero": frame_zero, "frame_repeat": frame_repeat}


def ablate_sequence(seq: np.ndarray, spec: AblationSpec, stream_index: int) -> np.ndarray:
    """Corrupt one sequence using the stream derived from (spec.seed, stream_index)."""
    if spec.strategy == "none":
        return seq
    return _DISPATCH[spec.strategy](seq, spec.probability, derive_rng(spec.seed, stream_index))

