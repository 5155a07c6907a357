import struct
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from avfusion import binio, data
from avfusion.data import (
    MAX_CLIPS,
    ClipRecord,
    Dataset,
    NormStats,
    SyntheticConfig,
    apply_norm,
    fit_norm,
    generate_synthetic,
    load_dataset,
    resample_audio,
    save_dataset,
    stack_context,
    sync_clip,
    window_clips,
)
from avfusion.metrics import ccc

TINY = SyntheticConfig(n_clips=4, clip_seconds=5.0, seed=9)


def test_synthetic_config_validation():
    with pytest.raises(ValueError, match="sigma_video"):
        SyntheticConfig(n_clips=1, clip_seconds=1.0, sigma_video=-0.1)
    for field in ("sigma_audio", "sigma_video", "clip_seconds"):
        for bad in (np.inf, np.nan):
            with pytest.raises(ValueError, match=f"{field} must be finite"):
                SyntheticConfig(**{"n_clips": 1, "clip_seconds": 1.0, field: bad})
    with pytest.raises(ValueError, match=r"^clip_seconds must give a finite audio frame count"):
        SyntheticConfig(n_clips=1, clip_seconds=1e308)  # finite, but not at 100 fps
    with pytest.raises(ValueError, match="rho"):
        SyntheticConfig(n_clips=1, clip_seconds=1.0, rho=1.0)
    with pytest.raises(ValueError, match="n_clips"):
        SyntheticConfig(n_clips=0, clip_seconds=1.0)


def test_n_clips_is_bounded_by_u32_clip_ids():
    SyntheticConfig(n_clips=MAX_CLIPS, clip_seconds=1.0)
    for n in (MAX_CLIPS + 1, 10000000000000):
        with pytest.raises(ValueError, match=rf"^data.n_clips must be in \[1, 4294967295\]"):
            SyntheticConfig(n_clips=n, clip_seconds=1.0)


def test_dataset_too_large_to_hold_fails_before_generation(monkeypatch):
    def no_generation(*args):
        raise AssertionError("generation started")

    monkeypatch.setattr(data, "derive_rng", no_generation)
    with pytest.raises(MemoryError):  # about 1e18 bytes of labels alone
        generate_synthetic(SyntheticConfig(n_clips=MAX_CLIPS, clip_seconds=500000.0))


def test_generate_deterministic():
    a, b = generate_synthetic(TINY), generate_synthetic(TINY)
    for ca, cb in zip(a.clips, b.clips):
        np.testing.assert_array_equal(ca.audio, cb.audio)
        np.testing.assert_array_equal(ca.video, cb.video)
        np.testing.assert_array_equal(ca.labels, cb.labels)


def test_clip_streams_do_not_depend_on_the_clip_count():
    cfg = SyntheticConfig(n_clips=7, clip_seconds=3.7, d_audio_lld=3, d_video=5, rho=0.5, seed=4)
    full = generate_synthetic(cfg)
    for k in (1, 3):
        part = generate_synthetic(replace(cfg, n_clips=k))
        assert len(part) == k
        for ca, cb in zip(part.clips, full.clips):
            assert ca.id == cb.id
            np.testing.assert_array_equal(ca.labels, cb.labels, strict=True)
            np.testing.assert_array_equal(ca.video, cb.video, strict=True)
            np.testing.assert_array_equal(ca.audio, cb.audio, strict=True)


def test_generate_shapes_and_label_range():
    ds = generate_synthetic(TINY)
    assert len(ds) == 4
    for clip in ds.clips:
        assert clip.video.shape == (150, TINY.d_video)
        assert clip.audio.shape == (500, TINY.d_audio_lld)
        assert clip.labels.shape == (150, 2)
        assert np.all(np.abs(clip.labels) <= 1.0)


def test_noiseless_features_recoverable_by_linear_probe():
    cfg = SyntheticConfig(n_clips=10, clip_seconds=20.0, sigma_audio=0.0,
                          sigma_video=0.0, seed=3)
    ds = generate_synthetic(cfg)
    feats = np.concatenate([c.video for c in ds.clips], axis=0)
    labels = np.concatenate([c.labels for c in ds.clips], axis=0)
    design = np.column_stack([feats, np.ones(len(feats))])
    for col in range(2):
        coef, *_ = np.linalg.lstsq(design, labels[:, col], rcond=None)
        assert ccc(design @ coef, labels[:, col]) > 0.99


def test_label_autocorrelation_tracks_rho():
    cfg = SyntheticConfig(n_clips=2, clip_seconds=200.0, seed=5)  # 12000 frames
    z = np.concatenate([c.labels for c in generate_synthetic(cfg).clips], axis=0)
    for col in range(2):
        lag1 = np.corrcoef(z[:-1, col], z[1:, col])[0, 1]
        assert abs(lag1 - cfg.rho) < 0.05


# --- resampling and context stacking ---


def test_resample_330_to_99():
    seq = np.arange(330, dtype=float)[:, None]
    out = resample_audio(seq)
    assert out.shape == (99, 1)
    expected = np.floor(np.arange(99) * 10.0 / 3.0 + 0.5)
    np.testing.assert_array_equal(out[:, 0], expected)
    assert list(out[:4, 0]) == [0, 3, 7, 10]
    assert not np.shares_memory(out, seq)


def test_resample_100_to_30():
    assert resample_audio(np.zeros((100, 5))).shape == (30, 5)


def test_resample_constant_and_empty():
    out = resample_audio(np.full((50, 3), 2.5))
    np.testing.assert_array_equal(out, np.full((15, 3), 2.5))
    with pytest.raises(ValueError, match="empty"):
        resample_audio(np.zeros((0, 3)))


def test_stack_context_dimension():
    assert stack_context(np.zeros((100, 65))).shape == (100, 3900)


def test_stack_context_padding_and_order():
    seq = np.arange(100, dtype=float)[:, None]
    out = stack_context(seq)
    np.testing.assert_array_equal(out[0], np.zeros(60))  # 60 copies of frame 0
    np.testing.assert_array_equal(out[70], np.arange(11, 71))  # oldest first
    const = stack_context(np.full((80, 2), 3.0))
    assert np.all(const == 3.0) and np.unique(const, axis=0).shape[0] == 1


def _stacked_copy(seq):
    """The contiguous construction the strided view replaced."""
    w = 60
    padded = np.concatenate([np.repeat(seq[:1], w - 1, axis=0), seq], axis=0)
    view = np.lib.stride_tricks.sliding_window_view(padded, w, axis=0)
    return np.ascontiguousarray(view.transpose(0, 2, 1)).reshape(seq.shape[0], w * seq.shape[1])


def _owner(arr):
    while not (isinstance(arr, np.ndarray) and arr.flags.owndata):
        arr = arr.base
    return arr


@pytest.mark.parametrize("t,d", [(1, 1), (1, 4), (2, 3), (59, 2), (60, 1), (61, 5), (100, 16)])
def test_stack_context_is_a_read_only_view_of_the_padded_frames(t, d):
    seq = np.random.default_rng(t * 100 + d).normal(size=(t, d))
    out = stack_context(seq)
    assert out.shape == (t, 60 * d)
    assert not out.flags.writeable and not out.flags.owndata
    assert _owner(out).size == (t + 59) * d
    np.testing.assert_array_equal(out, _stacked_copy(seq))
    with pytest.raises(ValueError, match="read-only"):
        out[0, 0] = 1.0


# --- normalization ---


def test_fit_norm_statistics_on_train_split():
    ds = generate_synthetic(TINY)
    stats = fit_norm(ds.clips)
    normed = [apply_norm(c, stats) for c in ds.clips]
    audio = np.concatenate([c.audio for c in normed], axis=0)
    assert np.max(np.abs(np.mean(audio, axis=0))) < 1e-9
    assert np.max(np.abs(np.std(audio, axis=0) - 1.0)) < 1e-9


def _numpy_norm(clips):
    """fit_norm's statistics the way numpy computes them on the concatenated split."""
    stats = []
    for stream in ("audio", "video"):
        rows = np.concatenate([getattr(c, stream) for c in clips], axis=0)
        stats += [np.mean(rows, axis=0), np.maximum(np.std(rows, axis=0), 1e-8)]
    return stats


def _ragged_clips():
    rng = np.random.default_rng(8)
    clips = []
    for clip_id in range(30):
        t_a, t_v = (0, 0) if clip_id == 0 else rng.integers(1, 400, size=2)
        clips.append(ClipRecord(id=clip_id, audio=rng.normal(3.0, 50.0, size=(t_a, 16)),
                                video=rng.normal(-2.0, 0.1, size=(t_v, 24)),
                                labels=np.zeros((t_v, 2))))
    return clips


def _round_trip(tmp_path):
    save_dataset(generate_synthetic(SyntheticConfig(n_clips=6, clip_seconds=4.0, seed=2)),
                 tmp_path / "d.avxd")
    return load_dataset(tmp_path / "d.avxd").clips


@pytest.mark.parametrize("make_clips", [
    lambda _: generate_synthetic(SyntheticConfig(n_clips=200, clip_seconds=30.0,
                                                 seed=7)).clips[:160],  # study-full train split
    lambda _: generate_synthetic(SyntheticConfig(n_clips=3, clip_seconds=4.0, d_audio_lld=65,
                                                 d_video=4096, seed=1)).clips,
    lambda _: generate_synthetic(SyntheticConfig(n_clips=20, clip_seconds=10.0, d_audio_lld=1,
                                                 d_video=1, seed=2)).clips,
    lambda _: generate_synthetic(SyntheticConfig(n_clips=1, clip_seconds=3.0, seed=3)).clips,
    _round_trip,
    lambda _: _ragged_clips(),
], ids=["study_full", "paper_dims", "width_1", "one_clip", "round_trip", "ragged"])
def test_fit_norm_is_bitwise_numpy_on_the_concatenation(tmp_path, make_clips):
    clips = make_clips(tmp_path)
    assert all(c.audio.dtype == c.video.dtype == np.float64 for c in clips)
    stats = fit_norm(clips)
    got = [stats.audio_mean, stats.audio_std, stats.video_mean, stats.video_std]
    for have, want in zip(got, _numpy_norm(clips), strict=True):
        assert have.dtype == want.dtype and have.shape == want.shape
        assert have.tobytes() == want.tobytes()


@pytest.mark.parametrize("stream", ["audio", "video"])
def test_fit_norm_rejects_a_width_1_clip_among_wider_ones(stream):
    clips = generate_synthetic(SyntheticConfig(n_clips=4, clip_seconds=2.0, d_audio_lld=16,
                                               d_video=16)).clips
    setattr(clips[2], stream, getattr(clips[2], stream)[:, :1])
    with pytest.raises(ValueError, match=f"clip 2 has {stream} width 1, clip 0 has 16"):
        fit_norm(clips)


def test_fit_norm_memory_does_not_grow_with_the_split():
    clips = generate_synthetic(SyntheticConfig(n_clips=40, clip_seconds=10.0, seed=4)).clips
    clip_bytes = max(c.audio.nbytes + c.video.nbytes for c in clips)
    tracemalloc.start()
    try:
        fit_norm(clips)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * clip_bytes + 64 * 1024, (peak, clip_bytes)


def test_norm_constant_dimension_floors_to_zero():
    clip = ClipRecord(id=0, audio=np.full((10, 2), 4.0),
                      video=np.full((6, 2), -1.0), labels=np.zeros((6, 2)))
    stats = fit_norm([clip])
    out = apply_norm(clip, stats)
    np.testing.assert_array_equal(out.audio, np.zeros((10, 2)))


def test_norm_no_leakage_across_splits():
    ds = generate_synthetic(SyntheticConfig(n_clips=8, clip_seconds=5.0, seed=21))
    stats = fit_norm(ds.clips[:4])
    other = [apply_norm(c, stats) for c in ds.clips[4:]]
    mean_b = np.mean(np.concatenate([c.audio for c in other], axis=0))
    assert abs(mean_b) > 1e-6  # stats were not refit on split B
    with pytest.raises(ValueError, match="empty"):
        fit_norm([])


# --- sync and windowing ---


def test_sync_clip_lengths_match():
    ds = generate_synthetic(TINY)
    for clip in ds.clips:
        synced = sync_clip(clip)
        assert synced.audio.shape[0] == synced.video.shape[0] == synced.labels.shape[0]
        assert synced.audio.shape[1] == 60 * TINY.d_audio_lld


def test_sync_slack_check():
    clip = ClipRecord(id=3, audio=np.zeros((1000, 2)), video=np.zeros((100, 2)),
                      labels=np.zeros((100, 2)))
    with pytest.raises(ValueError, match="clip 3"):
        sync_clip(clip)


def synced(length, clip_id=0):
    from avfusion.data import SyncedClip
    rows = np.arange(length, dtype=float)[:, None]
    return SyncedClip(id=clip_id, audio=rows.copy(), video=rows.copy(),
                      labels=np.column_stack([rows[:, 0], rows[:, 0]]) / max(length, 1))


def test_window_training_counts():
    assert len(window_clips([synced(300)], seq_len=100)) == 3
    assert len(window_clips([synced(250)], seq_len=100)) == 2  # partial tail dropped
    assert len(window_clips([synced(100)], seq_len=100)) == 1


def test_window_eval_250_covering():
    wins = window_clips([synced(250)], seq_len=100, evaluation=True)
    assert [(w.start, w.score_from) for w in wins] == [(0, 0), (100, 0), (150, 50)]
    scored = []
    for w in wins:
        scored.extend(range(w.start + w.score_from, w.start + 100))
    assert sorted(scored) == list(range(250))


@pytest.mark.parametrize("length", [99, 100, 250, 300])
def test_window_eval_scores_every_frame_once(length):
    wins = window_clips([synced(length)], seq_len=100, evaluation=True)
    scored = []
    for w in wins:
        scored.extend(range(w.start + w.score_from, w.start + 100))
    expected = list(range(length)) if length >= 100 else []
    assert sorted(scored) == expected


def test_window_short_clip_warns(caplog):
    with caplog.at_level("WARNING"):
        wins = window_clips([synced(99)], seq_len=100)
    assert wins == []
    assert "shorter than seq_len" in caplog.text


@pytest.mark.parametrize("evaluation", [False, True])
def test_window_short_clips_warn_once_per_call(caplog, evaluation):
    with caplog.at_level("WARNING"):
        wins = window_clips([synced(99, 0), synced(100, 1), synced(50, 2)], seq_len=100,
                            evaluation=evaluation)
    assert [w.clip_id for w in wins] == [1]
    assert [r.getMessage() for r in caplog.records] == [
        "2 of 3 clips shorter than seq_len 100, skipped"]


@pytest.mark.parametrize("seq_len", [0, -1])
@pytest.mark.parametrize("evaluation", [False, True])
def test_window_seq_len_below_one_is_error(seq_len, evaluation):
    # the window start advances by seq_len, so these would never finish
    with pytest.raises(ValueError, match=f"^seq_len must be >= 1, got {seq_len}$"):
        window_clips([synced(10)], seq_len=seq_len, evaluation=evaluation)


def test_window_determinism():
    a = window_clips([synced(310, 1), synced(250, 2)], seq_len=100, evaluation=True)
    b = window_clips([synced(310, 1), synced(250, 2)], seq_len=100, evaluation=True)
    assert [(w.clip_id, w.start, w.score_from) for w in a] == \
           [(w.clip_id, w.start, w.score_from) for w in b]
    for x, y in zip(a, b):
        np.testing.assert_array_equal(x.audio, y.audio)


# --- file format ---


def test_dataset_roundtrip(tmp_path):
    ds = generate_synthetic(TINY)
    path = tmp_path / "d.avxd"
    save_dataset(ds, path)
    loaded = load_dataset(path)
    assert len(loaded) == len(ds)
    for a, b in zip(ds.clips, loaded.clips):
        assert a.id == b.id
        np.testing.assert_array_equal(b.audio, a.audio.astype(np.float32).astype(np.float64))
        np.testing.assert_array_equal(b.video, a.video.astype(np.float32).astype(np.float64))
        np.testing.assert_array_equal(b.labels, a.labels.astype(np.float32).astype(np.float64))


def test_dataset_empty_roundtrip(tmp_path):
    path = tmp_path / "empty.avxd"
    save_dataset(Dataset([]), path)
    assert len(load_dataset(path)) == 0


def test_dataset_same_seed_same_bytes(tmp_path):
    p1, p2 = tmp_path / "a.avxd", tmp_path / "b.avxd"
    save_dataset(generate_synthetic(TINY), p1)
    save_dataset(generate_synthetic(TINY), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_dataset_label_range_error_names_clip(tmp_path):
    for bad in (1.5, np.nan):
        clip = ClipRecord(id=7, audio=np.zeros((10, 2)), video=np.zeros((3, 2)),
                          labels=np.array([[0.0, 0.0], [bad, 0.0], [0.0, 0.0]]))
        path = tmp_path / "bad.avxd"
        save_dataset(Dataset([clip]), path)
        with pytest.raises(binio.FileFormatError, match="clip 7"):
            load_dataset(path)


@pytest.mark.parametrize("stream", ["audio", "video"])
@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_dataset_non_finite_features_error_names_clip(tmp_path, stream, bad):
    clip = ClipRecord(id=4, audio=np.zeros((10, 2)), video=np.zeros((3, 2)),
                      labels=np.zeros((3, 2)))
    getattr(clip, stream)[1, 1] = bad
    path = tmp_path / "bad.avxd"
    save_dataset(Dataset([clip]), path)
    with pytest.raises(binio.FileFormatError, match=f"clip 4 has non-finite {stream}"):
        load_dataset(path)


@pytest.mark.parametrize("field,value", [("fps_a", 50), ("fps_v", 25)])
def test_dataset_unsupported_rate_names_clip_and_field(tmp_path, field, value):
    clips = [ClipRecord(id=i, audio=np.zeros((10, 2)), video=np.zeros((3, 2)),
                        labels=np.zeros((3, 2))) for i in range(3)]
    path = tmp_path / "rate.avxd"
    save_dataset(Dataset(clips), path)
    raw = bytearray(path.read_bytes())
    # clip 2's header starts after magic, version, count and two equal-size clips
    at = 12 + 2 * (len(raw) - 12) // 3 + {"fps_v": 4, "fps_a": 16}[field]
    raw[at:at + 4] = struct.pack("<I", value)
    path.write_bytes(bytes(raw))
    with pytest.raises(binio.FileFormatError, match=f"clip 2 has {field}={value}"):
        load_dataset(path)


@pytest.mark.parametrize("field,stream", [("D_v", "video"), ("D_a", "audio")])
def test_dataset_mixed_feature_widths_name_clip_field_and_widths(tmp_path, field, stream):
    clips = [ClipRecord(id=i, audio=np.zeros((10, 2)), video=np.zeros((3, 2)),
                        labels=np.zeros((3, 2))) for i in (5, 6, 7)]
    setattr(clips[2], stream, np.zeros((10 if stream == "audio" else 3, 3)))
    path = tmp_path / "mixed.avxd"
    save_dataset(Dataset(clips), path)
    with pytest.raises(binio.FileFormatError,
                       match=f"clip 7 has {field}=3, but clip 5 has {field}=2"):
        load_dataset(path)


@pytest.mark.parametrize("field,stream", [("D_v", "video"), ("D_a", "audio")])
def test_dataset_zero_feature_width_names_clip_and_field(tmp_path, field, stream):
    clip = ClipRecord(id=3, audio=np.zeros((10, 2)), video=np.zeros((3, 2)),
                      labels=np.zeros((3, 2)))
    setattr(clip, stream, getattr(clip, stream)[:, :0])
    path = tmp_path / "narrow.avxd"
    save_dataset(Dataset([clip]), path)
    with pytest.raises(binio.FileFormatError,
                       match=f"^invariant violation: clip 3 has {field}=0$"):
        load_dataset(path)


def _one_clip_file(path, t_v, d_v):
    """A valid one-clip dataset file whose header then claims T_v x D_v video."""
    clip = ClipRecord(id=0, audio=np.zeros((10, 2)), video=np.zeros((3, 2)),
                      labels=np.zeros((3, 2)))
    save_dataset(Dataset([clip]), path)
    raw = bytearray(path.read_bytes())
    raw[20:28] = struct.pack("<II", t_v, d_v)  # after magic, version, count, id, fps_v
    path.write_bytes(bytes(raw))
    return len(raw) - 40  # bytes after the clip header


def test_dataset_oversized_dims_name_the_field(tmp_path):
    path = tmp_path / "huge.avxd"
    _one_clip_file(path, 2**32 - 1, 2**32 - 1)
    with pytest.raises(binio.FileFormatError,
                       match=(r"^truncated file: clip 0 video \(T_v x D_v\) "
                              rf"needs {4 * (2**32 - 1)**2} bytes")):
        load_dataset(path)


def test_dataset_count_just_past_end_of_file(tmp_path):
    path = tmp_path / "over.avxd"
    left = _one_clip_file(path, 1, 1)
    _one_clip_file(path, left // 4 + 1, 1)
    with pytest.raises(binio.FileFormatError,
                       match=(r"^truncated file: clip 0 video \(T_v x D_v\) "
                              rf"needs {4 * (left // 4 + 1)} bytes, {left} left")):
        load_dataset(path)


def test_dataset_bad_magic(tmp_path):
    path = tmp_path / "bad.avxd"
    save_dataset(generate_synthetic(TINY), path)
    raw = bytearray(path.read_bytes())
    raw[:4] = b"NOPE"
    path.write_bytes(bytes(raw))
    with pytest.raises(binio.FileFormatError, match=r"^bad magic: expected b'AVXD', got b'NOPE'$"):
        load_dataset(path)


def test_dataset_version_mismatch(tmp_path):
    path = tmp_path / "bad.avxd"
    save_dataset(generate_synthetic(TINY), path)
    raw = bytearray(path.read_bytes())
    raw[4:8] = struct.pack("<I", 42)
    path.write_bytes(bytes(raw))
    with pytest.raises(binio.FileFormatError, match=r"^version mismatch: expected 1, got 42$"):
        load_dataset(path)


def test_dataset_truncated(tmp_path):
    path = tmp_path / "bad.avxd"
    save_dataset(generate_synthetic(TINY), path)
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) - 100])
    with pytest.raises(binio.FileFormatError, match=r"^truncated file: "):
        load_dataset(path)


def test_dataset_bytes_after_the_last_clip(tmp_path):
    path = tmp_path / "d.avxd"
    save_dataset(generate_synthetic(TINY), path)
    raw = bytearray(path.read_bytes())
    raw[8:12] = struct.pack("<I", 2)  # a damaged count: 4 clips written, 2 claimed
    path.write_bytes(bytes(raw))
    with pytest.raises(binio.FileFormatError, match=r"trailing bytes: \d+ bytes after the last"):
        load_dataset(path)
    path.write_bytes(bytes(raw[:8]) + struct.pack("<I", 4) + bytes(raw[12:]) + b"\0")
    with pytest.raises(binio.FileFormatError, match="trailing bytes: 1 bytes after the last clip"):
        load_dataset(path)
