import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from avfusion.augment import (
    MODALITIES,
    STRATEGIES,
    AblationSpec,
    ablate_sequence,
    carry_forward_fill,
    clip_zero,
    frame_repeat,
    frame_zero,
)
from avfusion.data import Window, stack_context
from avfusion.harness import corrupt_windows
from avfusion.seeding import derive_rng


def make_window(clip_id=0, t=12, d_a=3, d_v=4, seed=0):
    rng = np.random.default_rng(seed + clip_id)
    return Window(clip_id=clip_id, start=0,
                  audio=rng.normal(size=(t, d_a)),
                  video=rng.normal(size=(t, d_v)),
                  labels=rng.uniform(-1, 1, (t, 2)))


def test_spec_validation():
    with pytest.raises(ValueError, match="unknown strategy"):
        AblationSpec("drop_all", "video", 0.5, 0)
    with pytest.raises(ValueError, match="unknown modality"):
        AblationSpec("clip_zero", "text", 0.5, 0)
    with pytest.raises(ValueError, match="probability"):
        AblationSpec("clip_zero", "video", 1.5, 0)


def test_clip_zero_extremes():
    seq = np.random.default_rng(1).normal(size=(10, 4))
    np.testing.assert_array_equal(clip_zero(seq, 0.0, derive_rng(0, 0)), seq)
    np.testing.assert_array_equal(clip_zero(seq, 1.0, derive_rng(0, 0)), np.zeros((10, 4)))


def test_clip_zero_rate():
    seq = np.ones((2, 2))
    zeroed = sum(not clip_zero(seq, 0.5, derive_rng(7, i)).any() for i in range(100_000))
    assert abs(zeroed / 100_000 - 0.5) < 0.01


def test_frame_zero_extremes():
    seq = np.random.default_rng(2).normal(size=(10, 4))
    np.testing.assert_array_equal(frame_zero(seq, 0.0, derive_rng(0, 0)), seq)
    np.testing.assert_array_equal(frame_zero(seq, 1.0, derive_rng(0, 0)), np.zeros((10, 4)))


def test_frame_zero_rate():
    seq = np.ones((100_000, 1))
    out = frame_zero(seq, 0.9, derive_rng(3, 0))
    assert abs(np.mean(out == 0.0) - 0.9) < 0.01


def test_carry_forward_hand_cases():
    seq = np.array([[1.0], [2.0], [3.0], [4.0]])  # frames a, b, c, d
    out = carry_forward_fill(seq, np.array([False, True, True, False]))
    np.testing.assert_array_equal(out, [[1.0], [1.0], [1.0], [4.0]])
    out = carry_forward_fill(seq, np.array([True, False, False, False]))
    np.testing.assert_array_equal(out, [[0.0], [2.0], [3.0], [4.0]])


def test_frame_repeat_p1_is_all_zero():
    seq = np.random.default_rng(4).normal(size=(50, 3))
    np.testing.assert_array_equal(frame_repeat(seq, 1.0, derive_rng(0, 0)),
                                  np.zeros((50, 3)))


def test_frame_strategies_select_same_frames():
    seq = np.random.default_rng(5).normal(size=(200, 3)) + 5.0  # no zero rows
    for p in (0.3, 0.7):
        zeroed = frame_zero(seq, p, derive_rng(11, 9))
        repeated = frame_repeat(seq, p, derive_rng(11, 9))
        mask = np.all(zeroed == 0.0, axis=1)
        np.testing.assert_array_equal(repeated, carry_forward_fill(seq, mask))


def test_vectorized_draws_match_per_frame_draws():
    # the frame mask contract: draws happen frame-by-frame in index order
    a, b = derive_rng(13, 2), derive_rng(13, 2)
    np.testing.assert_array_equal(a.random(50), np.array([b.random() for _ in range(50)]))


def test_apply_none_is_bit_identity():
    windows = [make_window(i) for i in range(3)]
    out = corrupt_windows(windows, AblationSpec("none", "video", 0.9, 1))
    for before, after in zip(windows, out):
        assert after.video is before.video and after.audio is before.audio


def test_apply_clip_zero_video_p1():
    windows = [make_window(i) for i in range(5)]
    out = corrupt_windows(windows, AblationSpec("clip_zero", "video", 1.0, 2))
    for before, after in zip(windows, out):
        assert not after.video.any()
        np.testing.assert_array_equal(after.audio, before.audio)
        np.testing.assert_array_equal(after.labels, before.labels)


def test_apply_is_deterministic():
    windows = [make_window(i) for i in range(4)]
    spec = AblationSpec("frame_zero", "audio", 0.5, 3)
    a, b = corrupt_windows(windows, spec), corrupt_windows(windows, spec)
    for x, y in zip(a, b):
        np.testing.assert_array_equal(x.audio, y.audio)


def test_apply_is_order_independent():
    # each stream is keyed by (seed, index), never by the order of the calls
    seqs = [make_window(i).video for i in range(6)]
    spec = AblationSpec("frame_repeat", "video", 0.5, 4)
    forward = {i: ablate_sequence(seqs[i], spec, i) for i in range(6)}
    backward = {i: ablate_sequence(seqs[i], spec, i) for i in reversed(range(6))}
    for i in forward:
        np.testing.assert_array_equal(forward[i], backward[i])


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(STRATEGIES), st.sampled_from(MODALITIES),
       st.floats(0.0, 1.0), st.integers(0, 2**32))
def test_apply_never_changes_shapes_or_labels(strategy, modality, p, seed):
    windows = [make_window(i, seed=17) for i in range(2)]
    out = corrupt_windows(windows, AblationSpec(strategy, modality, p, seed))
    for before, after in zip(windows, out):
        assert after.audio.shape == before.audio.shape
        assert after.video.shape == before.video.shape
        np.testing.assert_array_equal(after.labels, before.labels)


def test_zero_probability_is_a_unit():
    windows = [make_window(i) for i in range(4)]
    once = corrupt_windows(windows, AblationSpec("clip_zero", "video", 0.6, 5))
    twice = corrupt_windows(once, AblationSpec("clip_zero", "video", 0.0, 99))
    for x, y in zip(once, twice):
        np.testing.assert_array_equal(x.video, y.video)
        np.testing.assert_array_equal(x.audio, y.audio)


@pytest.mark.parametrize("strategy", ["clip_zero", "frame_zero", "frame_repeat"])
@pytest.mark.parametrize("p", [0.0, 0.5, 1.0])
def test_ablation_on_a_stacked_audio_view_matches_a_copy(strategy, p):
    view = stack_context(np.random.default_rng(5).normal(size=(40, 3)))
    before = view.copy()
    spec = AblationSpec(strategy, "audio", p, seed=11)
    for stream in range(4):
        got = ablate_sequence(view, spec, stream)
        want = ablate_sequence(np.ascontiguousarray(view), spec, stream)
        np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(view, before)
    assert not view.flags.writeable


def test_frame_repeat_on_a_stacked_audio_view_returns_a_fresh_array():
    view = stack_context(np.random.default_rng(6).normal(size=(40, 3)))
    before = view.copy()
    got = frame_repeat(view, 0.5, derive_rng(12, 0))
    assert got.flags.writeable and not np.shares_memory(got, view)
    assert not np.array_equal(got, view)  # frames were replaced, so carry_forward_fill ran
    np.testing.assert_array_equal(view, before)
