import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from avfusion import autodiff as ad
from avfusion.harness import finite_diff_grad, rel_err
from avfusion.metrics import ccc, ccc_loss, eval_summary


def test_ccc_perfect_concordance():
    x = np.random.default_rng(0).normal(size=100)
    assert ccc(x, x) == pytest.approx(1.0, abs=1e-12)


def test_ccc_zero_covariance_constant_x():
    y = np.array([1.0, 2.0, 3.0])
    assert ccc(np.full(3, 2.0), y) == 0.0  # mu_x == mu_y, zero covariance


def test_ccc_hand_oracle():
    # s_x^2 = s_y^2 = s_xy = 2/3, mean gap 1 -> 2*(2/3) / (2/3+2/3+1) = 4/7
    assert abs(ccc([1.0, 2.0, 3.0], [2.0, 3.0, 4.0]) - 4.0 / 7.0) < 1e-12


def test_ccc_errors():
    with pytest.raises(ValueError, match="length mismatch"):
        ccc([1.0, 2.0], [1.0, 2.0, 3.0])
    with pytest.raises(ValueError, match="at least 2"):
        ccc([1.0], [2.0])


def test_ccc_constant_equal_pairs_convention():
    assert ccc([3.0, 3.0, 3.0], [3.0, 3.0, 3.0]) == 0.0


@settings(max_examples=100, deadline=None)
@given(arrays(np.float64, 20, elements=st.floats(-5, 5)),
       arrays(np.float64, 20, elements=st.floats(-5, 5)))
def test_ccc_symmetry(x, y):
    assert abs(ccc(x, y) - ccc(y, x)) < 1e-12


def test_ccc_attenuation_vs_pearson_oracle():
    rng = np.random.default_rng(42)
    for _ in range(1000):
        x = rng.normal(size=30)
        y = 0.5 * x + rng.normal(size=30)
        pearson = np.corrcoef(x, y)[0, 1]  # brute-force oracle
        assert abs(ccc(x, y)) <= abs(pearson) + 1e-12


@settings(max_examples=50, deadline=None)
@given(arrays(np.float64, 15, elements=st.floats(-2, 2)).filter(lambda v: np.std(v) > 1e-3),
       st.floats(0.2, 3.0).filter(lambda a: abs(a - 1.0) > 0.05),
       st.floats(-1.0, 1.0).filter(lambda b: abs(b) > 0.05))
def test_ccc_penalizes_scale_and_location(x, a, b):
    assert ccc(x, a * x) < 1.0
    assert ccc(x, x + b) < 1.0


def test_ccc_permutation_invariance():
    rng = np.random.default_rng(7)
    x, y = rng.normal(size=50), rng.normal(size=50)
    perm = rng.permutation(50)
    assert ccc(x, y) == pytest.approx(ccc(x[perm], y[perm]), abs=1e-12)


# --- differentiable loss ---


def _loss_ref(pred: np.ndarray, gold: np.ndarray) -> float:
    return 1.0 - 0.5 * (ccc(pred[:, 0], gold[:, 0]) + ccc(pred[:, 1], gold[:, 1]))


def test_ccc_loss_zero_on_exact_prediction():
    gold = np.random.default_rng(1).uniform(-1, 1, (20, 2))
    loss = ccc_loss(ad.Tensor(gold.copy(), requires_grad=True), gold)
    assert float(loss.data) == pytest.approx(0.0, abs=1e-12)


def test_ccc_loss_hand_oracle():
    pred = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
    gold = np.array([[2.0, 2.0], [3.0, 3.0], [4.0, 4.0]])
    loss = ccc_loss(ad.Tensor(pred), gold)
    assert float(loss.data) == pytest.approx(3.0 / 7.0, abs=1e-12)


def test_ccc_loss_grad_vs_finite_differences():
    rng = np.random.default_rng(2)
    pred = ad.Tensor(rng.uniform(-1, 1, (50, 2)), requires_grad=True)
    gold = rng.uniform(-1, 1, (50, 2))
    ad.backward(ccc_loss(pred, gold))
    fd = finite_diff_grad(lambda: _loss_ref(pred.data, gold), pred.data)
    assert rel_err(pred.grad, fd) < 1e-4


def test_ccc_loss_shape_mismatch():
    with pytest.raises(ad.ShapeError):
        ccc_loss(ad.Tensor(np.zeros((5, 2))), np.zeros((4, 2)))
    with pytest.raises(ad.ShapeError):
        ccc_loss(ad.Tensor(np.zeros((5, 3))), np.zeros((5, 3)))


# --- eval summary ---


def test_eval_summary_perfect():
    labels = np.random.default_rng(3).uniform(-1, 1, (40, 2))
    s = eval_summary(labels.copy(), labels)
    assert s.ccc_valence == pytest.approx(1.0, abs=1e-12)
    assert s.ccc_arousal == pytest.approx(1.0, abs=1e-12)
    assert s.n_frames == 40


def test_eval_summary_constant_predictions_at_label_mean():
    labels = np.random.default_rng(4).uniform(-1, 1, (40, 2))
    preds = np.tile(np.mean(labels, axis=0), (40, 1))
    s = eval_summary(preds, labels)
    assert s.ccc_valence == 0.0 and s.ccc_arousal == 0.0


def test_eval_summary_permutation_invariant():
    rng = np.random.default_rng(5)
    preds, labels = rng.normal(size=(30, 2)), rng.uniform(-1, 1, (30, 2))
    perm = rng.permutation(30)
    a, b = eval_summary(preds, labels), eval_summary(preds[perm], labels[perm])
    assert a.ccc_valence == pytest.approx(b.ccc_valence, abs=1e-12)
    assert a.ccc_arousal == pytest.approx(b.ccc_arousal, abs=1e-12)


def test_eval_summary_count_mismatch():
    with pytest.raises(ValueError, match="mismatch"):
        eval_summary(np.zeros((5, 2)), np.zeros((6, 2)))
