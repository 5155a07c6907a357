from dataclasses import replace

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
    input_key,
    missing_frames,
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
    np.testing.assert_array_equal(ablate_sequence(seq, AblationSpec("clip_zero", "video", 0.0), 0),
                                  seq)
    np.testing.assert_array_equal(ablate_sequence(seq, AblationSpec("clip_zero", "video", 1.0), 0),
                                  np.zeros((10, 4)))


def test_clip_zero_rate():
    seq = np.ones((2, 2))
    spec = AblationSpec("clip_zero", "video", 0.5, seed=7)
    zeroed = sum(not ablate_sequence(seq, spec, i).any() for i in range(100_000))
    assert abs(zeroed / 100_000 - 0.5) < 0.01


def test_frame_zero_extremes():
    seq = np.random.default_rng(2).normal(size=(10, 4))
    np.testing.assert_array_equal(
        ablate_sequence(seq, AblationSpec("frame_zero", "video", 0.0), 0), seq)
    np.testing.assert_array_equal(
        ablate_sequence(seq, AblationSpec("frame_zero", "video", 1.0), 0), np.zeros((10, 4)))


def test_frame_zero_rate():
    seq = np.ones((100_000, 1))
    out = ablate_sequence(seq, AblationSpec("frame_zero", "video", 0.9, seed=3), 0)
    assert abs(np.mean(out == 0.0) - 0.9) < 0.01


def test_carry_forward_hand_cases():
    seq = np.array([[1.0], [2.0], [3.0], [4.0]])  # frames a, b, c, d
    out = carry_forward_fill(seq, np.array([False, True, True, False]))
    np.testing.assert_array_equal(out, [[1.0], [1.0], [1.0], [4.0]])
    out = carry_forward_fill(seq, np.array([True, False, False, False]))
    np.testing.assert_array_equal(out, [[0.0], [2.0], [3.0], [4.0]])


def test_frame_repeat_p1_is_all_zero():
    seq = np.random.default_rng(4).normal(size=(50, 3))
    np.testing.assert_array_equal(
        ablate_sequence(seq, AblationSpec("frame_repeat", "video", 1.0), 0), np.zeros((50, 3)))


def test_frame_strategies_select_same_frames():
    seq = np.random.default_rng(5).normal(size=(200, 3)) + 5.0  # no zero rows
    for p in (0.3, 0.7):
        zeroed = ablate_sequence(seq, AblationSpec("frame_zero", "video", p, seed=11), 9)
        repeated = ablate_sequence(seq, AblationSpec("frame_repeat", "video", p, seed=11), 9)
        mask = np.all(zeroed == 0.0, axis=1)
        np.testing.assert_array_equal(repeated, carry_forward_fill(seq, mask))
        np.testing.assert_array_equal(
            mask, missing_frames(AblationSpec("frame_repeat", "video", p), 200, derive_rng(11, 9)))


def test_vectorized_draws_match_per_frame_draws():
    # the frame mask contract: draws happen frame-by-frame in index order
    a, b = derive_rng(13, 2), derive_rng(13, 2)
    np.testing.assert_array_equal(a.random(50), np.array([b.random() for _ in range(50)]))
    spec, per_frame = AblationSpec("frame_zero", "video", 0.4), derive_rng(13, 2)
    np.testing.assert_array_equal(missing_frames(spec, 50, derive_rng(13, 2)),
                                  np.array([per_frame.random() < 0.4 for _ in range(50)]))


def test_clip_zero_mask_repeats_one_draw_over_every_frame():
    spec = AblationSpec("clip_zero", "video", 0.5)
    for i in range(20):
        np.testing.assert_array_equal(missing_frames(spec, 7, derive_rng(13, i)),
                                      np.full(7, derive_rng(13, i).random() < 0.5))


@pytest.mark.parametrize("strategy", ["clip_zero", "frame_zero", "frame_repeat"])
def test_missing_set_only_grows_as_p_rises(strategy):
    masks = [missing_frames(AblationSpec(strategy, "video", p), 64, derive_rng(21, 3))
             for p in np.linspace(0.0, 1.0, 41)]
    assert not masks[0].any() and masks[-1].all()
    for smaller, larger in zip(masks, masks[1:]):
        assert not (smaller & ~larger).any()


@pytest.mark.parametrize("strategy", ["clip_zero", "frame_zero", "frame_repeat"])
@pytest.mark.parametrize("stacked", [False, True])
def test_p0_returns_the_input_itself_and_p1_returns_zeros(strategy, stacked):
    seq = np.random.default_rng(8).normal(size=(40, 3))
    if stacked:
        seq = stack_context(seq)
    for stream in range(4):
        assert ablate_sequence(seq, AblationSpec(strategy, "audio", 0.0, seed=5), stream) is seq
        got = ablate_sequence(seq, AblationSpec(strategy, "audio", 1.0, seed=5), stream)
        assert got.shape == seq.shape and not got.any()
        assert got.flags.writeable and not np.shares_memory(got, seq)


def stacked(windows, field):
    return np.concatenate([getattr(w, field) for w in windows])


def snapshot(windows):
    return [(w.audio.copy(), w.video.copy(), w.labels.copy()) for w in windows]


def assert_untouched(windows, before):
    # bitwise: the corruption neither writes an input nor its labels
    for w, (audio, video, labels) in zip(windows, before):
        assert w.audio.tobytes() == audio.tobytes() and w.video.tobytes() == video.tobytes()
        assert w.labels.tobytes() == labels.tobytes()


def test_apply_none_is_bit_identity():
    windows = [make_window(i) for i in range(3)]
    before = snapshot(windows)
    # no spec, and every strategy at p=0
    for spec in [None] + [AblationSpec(s, m, 0.0, 1) for s in STRATEGIES for m in MODALITIES]:
        audio, video = corrupt_windows(windows, spec, range(3))
        assert audio.tobytes() == stacked(windows, "audio").tobytes()
        assert video.tobytes() == stacked(windows, "video").tobytes()
    assert_untouched(windows, before)


def test_apply_clip_zero_video_p1():
    windows = [make_window(i) for i in range(5)]
    before = snapshot(windows)
    audio, video = corrupt_windows(windows, AblationSpec("clip_zero", "video", 1.0, 2), range(5))
    assert video.shape == stacked(windows, "video").shape and not video.any()
    assert audio.tobytes() == stacked(windows, "audio").tobytes()
    assert_untouched(windows, before)


def test_apply_is_deterministic():
    windows = [make_window(i) for i in range(4)]
    spec = AblationSpec("frame_zero", "audio", 0.5, 3)
    a, b = corrupt_windows(windows, spec, range(4)), corrupt_windows(windows, spec, range(4))
    for x, y in zip(a, b):
        np.testing.assert_array_equal(x, y)
    assert not np.array_equal(a[0], stacked(windows, "audio"))  # something was corrupted


def test_apply_keys_window_j_by_streams_j():
    windows = [make_window(i) for i in range(3)]
    spec = AblationSpec("frame_repeat", "video", 0.5, 4)
    streams = [7, 2, 40]
    _, video = corrupt_windows(windows, spec, streams)
    want = np.concatenate([ablate_sequence(w.video, spec, s) for w, s in zip(windows, streams)])
    np.testing.assert_array_equal(video, want)
    assert not np.array_equal(video, corrupt_windows(windows, spec, range(3))[1])


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
    before = snapshot(windows)
    audio, video = corrupt_windows(windows, AblationSpec(strategy, modality, p, seed), range(2))
    assert audio.shape == stacked(windows, "audio").shape
    assert video.shape == stacked(windows, "video").shape
    assert_untouched(windows, before)


def test_specs_share_an_input_key_exactly_when_they_feed_the_same_input():
    # a sweep scores one input per key, so a key shared by two different
    # inputs would write one's score into the other's rows
    windows = [make_window(i) for i in range(8)]
    specs = [AblationSpec(s, m, p, seed) for s in STRATEGIES for m in MODALITIES
             for p in (0.0, 0.5, 1.0) for seed in (1, 2)]
    inputs = {spec: [x.tobytes() for x in corrupt_windows(windows, spec, range(8))]
              for spec in specs}
    for a in specs:
        for b in specs:
            assert (input_key(a) == input_key(b)) == (inputs[a] == inputs[b]), (a, b)


def test_zero_probability_is_a_unit():
    windows = [make_window(i) for i in range(4)]
    once = corrupt_windows(windows, AblationSpec("clip_zero", "video", 0.6, 5), range(4))
    t = windows[0].video.shape[0]
    corrupted = [replace(w, audio=once[0][i * t:(i + 1) * t], video=once[1][i * t:(i + 1) * t])
                 for i, w in enumerate(windows)]
    twice = corrupt_windows(corrupted, AblationSpec("clip_zero", "video", 0.0, 99), range(4))
    for x, y in zip(once, twice):
        assert x.tobytes() == y.tobytes()


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
    got = ablate_sequence(view, AblationSpec("frame_repeat", "audio", 0.5, seed=12), 0)
    assert got.flags.writeable and not np.shares_memory(got, view)
    assert not np.array_equal(got, view)  # frames were replaced, so carry_forward_fill ran
    np.testing.assert_array_equal(view, before)
