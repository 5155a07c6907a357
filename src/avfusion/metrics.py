"""Concordance correlation coefficient as evaluation metric and training loss.

Both read one moment helper (biased, centered moments): `ccc` scores every
evaluation, and `ccc_loss` records the training loss as a single autodiff op
with the closed-form CCC gradient as its backward rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad


@dataclass
class EvalSummary:
    ccc_valence: float
    ccc_arousal: float
    n_frames: int

    def mean_ccc(self) -> float:
        return 0.5 * (self.ccc_valence + self.ccc_arousal)


def _moments(x: np.ndarray, y: np.ndarray):
    """(mean of y, covariance, CCC denominator var_x + var_y + (m_x - m_y)^2)
    of two equal-length contiguous float64 vectors, biased moments; moments
    beyond the float range raise FloatingPointError."""
    with np.errstate(over="ignore", invalid="ignore"):
        mx, my = np.mean(x), np.mean(y)
        dx, dy = x - mx, y - my
        sxy = np.mean(dx * dy)
        denom = np.mean(dx ** 2) + np.mean(dy ** 2) + (mx - my) ** 2
    if not (math.isfinite(sxy) and math.isfinite(denom)):
        raise FloatingPointError("ccc: moments overflow the float range")
    return my, sxy, denom


def ccc(x, y) -> float:
    """Lin's concordance between two equal-length sequences, biased moments.

    Returns 0 when the denominator vanishes (both sequences constant with
    equal means): a constant predictor conveys no concordance.
    """
    x = np.asarray(x, dtype=np.float64).ravel()
    y = np.asarray(y, dtype=np.float64).ravel()
    if x.size != y.size:
        raise ValueError(f"ccc: length mismatch {x.size} vs {y.size}")
    if x.size < 2:
        raise ValueError(f"ccc: need at least 2 samples, got {x.size}")
    _, sxy, denom = _moments(x, y)
    if denom == 0.0:
        return 0.0
    return float(2.0 * sxy / denom)


def ccc_loss(pred: ad.Tensor, gold: np.ndarray) -> ad.Tensor:
    """1 - (CCC_valence + CCC_arousal)/2 over all frames, as one recorded op.

    The value is bitwise `1 - eval_summary(pred, gold).mean_ccc()`; the rule is
    d ccc/d x_i = 2((y_i - m_y) - ccc (x_i - m_y)) / (n denom) per column. A
    zero denominator (constant, equal pred and gold) raises FloatingPointError.
    """
    gold = np.asarray(gold, dtype=np.float64)
    if pred.data.ndim != 2 or pred.data.shape[1] != 2 or pred.data.shape != gold.shape:
        raise ad.ShapeError(f"ccc_loss: expected matching [N x 2] tensors, got "
                            f"{pred.data.shape} vs {gold.shape}")
    n = pred.data.shape[0]
    if n < 2:
        raise ValueError("ccc_loss: need at least 2 frames")
    columns = []  # (x, y, m_y, ccc, denom) of valence, then arousal
    # contiguous columns, as `ccc` ravels them, so the sums match bitwise
    for x, y in zip(pred.data.T.copy(), gold.T.copy()):
        my, sxy, denom = _moments(x, y)
        if denom == 0.0:
            raise FloatingPointError("ccc_loss: zero CCC denominator (constant, equal "
                                     "prediction and gold)")
        columns.append((x, y, my, 2.0 * sxy / denom, denom))

    def bw(g: np.ndarray):
        return (np.column_stack([((y - my) - r * (x - my)) * (-float(g) / (n * denom))
                                 for x, y, my, r, denom in columns]),)

    return ad._record("ccc_loss", np.asarray(1.0 - 0.5 * (columns[0][3] + columns[1][3])),
                      (pred,), bw)


def eval_summary(predictions, labels) -> EvalSummary:
    """Single CCC per attribute over the concatenation of all scored frames."""
    predictions = np.asarray(predictions, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    if predictions.shape != labels.shape or predictions.ndim != 2 or predictions.shape[1] != 2:
        raise ValueError(f"eval_summary: frame count mismatch, predictions "
                         f"{predictions.shape} vs labels {labels.shape}")
    return EvalSummary(
        ccc_valence=ccc(predictions[:, 0], labels[:, 0]),
        ccc_arousal=ccc(predictions[:, 1], labels[:, 1]),
        n_frames=predictions.shape[0],
    )
