"""Missing-modality corruptions: clip zeroing, frame zeroing, frame repetition.

Every strategy is a missing-frame mask plus one fill, a pure function of
(sequence, spec, stream index):

- The mask comes from `missing_frames`, drawn from the stream derived from
  (spec.seed, stream index). `clip_zero` draws one uniform and repeats its
  verdict over all frames. The frame-level strategies draw one uniform per
  frame in index order, so a shared (seed, index) always selects the same
  frame set whichever of them is asked for.
- The fill: with no frame missing the input itself is returned, and with every
  frame missing a fresh all-zero array, since no retained frame is left to
  repeat. Otherwise `frame_repeat` carries the last retained frame forward
  (`carry_forward_fill`) and the other strategies zero the missing frames of
  a copy. The input is never written.

`input_key` says which specs feed a model the same input, so that a sweep
scores each distinct input once; a new fill or corruption parameter changes
it here, next to the fills that make it true.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .seeding import derive_rng

STRATEGIES = ("clip_zero", "frame_zero", "frame_repeat")
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


def missing_frames(spec: AblationSpec, t: int, rng: np.random.Generator) -> np.ndarray:
    """The boolean mask of the t frames that `spec` removes, drawn from rng."""
    if spec.strategy == "clip_zero":
        return np.full(t, rng.random() < spec.probability)
    return rng.random(t) < spec.probability


def input_key(spec: AblationSpec) -> tuple:
    """A key that two specs share only if `ablate_sequence` returns bitwise
    equal output under both, for every sequence and stream index.

    `missing_frames` compares uniforms in [0, 1) with the probability, so at
    p=0 no frame is missing and at p=1 every frame is, whatever the strategy
    and stream. With no frame missing `ablate_sequence` returns its input, so
    p=0 of every strategy and modality is one clean key. With every frame
    missing it returns zeros, so p=1 of every strategy is one zeros key per
    modality. Any other point draws its mask from its seed and fills by its
    strategy, and keys on all four fields.
    """
    if spec.probability == 0.0:
        return ("clean",)
    if spec.probability == 1.0:
        return (spec.modality, "zeros")
    return (spec.strategy, spec.modality, spec.probability, spec.seed)


def carry_forward_fill(seq: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Replace masked frames by the most recent retained frame; leading masked
    frames (no retained frame yet) become zero vectors."""
    t = seq.shape[0]
    last_retained = np.maximum.accumulate(np.where(mask, -1, np.arange(t)))
    out = seq[np.maximum(last_retained, 0)]  # fancy indexing: a fresh, writeable array
    out[last_retained < 0] = 0.0
    return out


def ablate_sequence(seq: np.ndarray, spec: AblationSpec, stream_index: int) -> np.ndarray:
    """Corrupt one sequence using the stream derived from (spec.seed, stream_index)."""
    mask = missing_frames(spec, seq.shape[0], derive_rng(spec.seed, stream_index))
    if not mask.any():
        return seq
    if mask.all():
        return np.zeros_like(seq)
    if spec.strategy == "frame_repeat":
        return carry_forward_fill(seq, mask)
    out = seq.copy()
    out[mask] = 0.0
    return out
