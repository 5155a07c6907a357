"""Synthetic paired audio/video clips, stream synchronization, normalization,
windowing, and the binary dataset file format.

Feature streams arrive at their native rates (audio 100 fps, video 30 fps).
The sync pipeline z-normalizes with train-split statistics, downsamples audio
to the video rate by nearest-index selection, stacks a causal 2 s context
window, and truncates both streams to a common length.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import binio
from .seeding import derive_rng

log = logging.getLogger(__name__)

DATASET_MAGIC = b"AVXD"
DATASET_VERSION = 1
FPS_VIDEO = 30
FPS_AUDIO = 100
# causal audio context stacked onto each video-rate frame: 2 s at 30 fps
CONTEXT_FRAMES = 2 * FPS_VIDEO

# clip ids are u32, so the dataset-level stream index never collides with a clip's
MAX_CLIPS = (1 << 32) - 1
_DATASET_STREAM = 1 << 32


@dataclass
class ClipRecord:
    """One clip's streams and labels. As read or generated, each stream is at
    its own rate; after `sync_clip` both are at 30 fps and of equal length,
    and audio is a read-only [T x (60 * D_a)] view sharing one padded frame
    array (`stack_context`)."""
    id: int
    audio: np.ndarray   # [T_a x D_a] at FPS_AUDIO
    video: np.ndarray   # [T_v x D_v] at FPS_VIDEO
    labels: np.ndarray  # [T_v x 2], valence/arousal in [-1, 1]


@dataclass
class Dataset:
    clips: list[ClipRecord] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.clips)


@dataclass
class SyntheticConfig:
    n_clips: int
    clip_seconds: float
    d_audio_lld: int = 16    # paper-scale: 65
    d_video: int = 32        # paper-scale: 4096
    sigma_audio: float = 1.0
    sigma_video: float = 0.05
    # the +/-1 clamp pulls the label lag-1 autocorrelation ~0.03 below rho;
    # 0.98 keeps the empirical value within 0.05 of the configured one
    rho: float = 0.98
    seed: int = 0

    def __post_init__(self):
        if not 1 <= self.n_clips <= MAX_CLIPS:
            raise ValueError(f"data.n_clips must be in [1, {MAX_CLIPS}] (clip ids are u32), "
                             f"got {self.n_clips}")
        if not 0 < self.clip_seconds < math.inf:
            raise ValueError(f"data.clip_seconds must be finite and > 0, got {self.clip_seconds!r}")
        if not self.clip_seconds * FPS_AUDIO < math.inf:
            raise ValueError(f"data.clip_seconds must give a finite audio frame count at "
                             f"{FPS_AUDIO} fps, got {self.clip_seconds!r}")
        for name in ("sigma_audio", "sigma_video"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ValueError(f"data.{name} must be finite and >= 0, "
                                 f"got {getattr(self, name)!r}")
        if not 0.0 < self.rho < 1.0:
            raise ValueError(f"data.rho must be in (0, 1), got {self.rho!r}")
        for name in ("d_audio_lld", "d_video"):
            if getattr(self, name) < 1:
                raise ValueError(f"data.{name} must be >= 1, got {getattr(self, name)}")
        if self.seed < 0:
            raise ValueError(f"data.seed must be >= 0, got {self.seed}")


@dataclass
class NormStats:
    audio_mean: np.ndarray
    audio_std: np.ndarray
    video_mean: np.ndarray
    video_std: np.ndarray


@dataclass
class Window:
    """A fixed-length model input slice; frames before `score_from` were
    already scored by an earlier window and are excluded from evaluation."""
    clip_id: int
    start: int
    audio: np.ndarray
    video: np.ndarray
    labels: np.ndarray
    score_from: int = 0


# ---------------------------------------------------------------------------
# synthetic generation


def generate_synthetic(config: SyntheticConfig) -> Dataset:
    """Clips driven by a smooth 2-d latent; labels are the latent itself.

    The latent follows z_t = clamp(rho*z_{t-1} + sqrt(1-rho^2)*eps_t, -1, 1)
    at 30 fps, stepped for all clips at once. Video features observe tanh(z)
    through a fixed random matrix with noise sigma_video; audio observes the
    linearly-interpolated latent at 100 fps with noise sigma_audio. Defaults
    keep sigma_video below sigma_audio so video is the richer predictor.

    The matrices come from the dataset stream; clip i draws its innovations,
    then video noise, then audio noise from `derive_rng(seed, i)`, so its
    arrays do not depend on n_clips. Each stream of all clips is allocated up
    front, so a dataset too large for this machine raises MemoryError before
    any clip is generated; each clip's arrays are views of one row of these.
    """
    t_v = int(round(config.clip_seconds * FPS_VIDEO))
    t_a = int(round(config.clip_seconds * FPS_AUDIO))
    if t_v < 1 or t_a < 1:
        raise ValueError(f"clip_seconds={config.clip_seconds} yields empty streams")
    labels = np.empty((config.n_clips, t_v, 2))
    videos = np.empty((config.n_clips, t_v, config.d_video))
    audios = np.empty((config.n_clips, t_a, config.d_audio_lld))
    mix_rng = derive_rng(config.seed, _DATASET_STREAM)
    audio_map = mix_rng.standard_normal((2, config.d_audio_lld))
    video_map = mix_rng.standard_normal((2, config.d_video))

    rngs = [derive_rng(config.seed, clip_id) for clip_id in range(config.n_clips)]
    for rng, eps in zip(rngs, labels):
        rng.standard_normal(out=eps)
    labels *= np.sqrt(1.0 - config.rho * config.rho)
    prev = 0.0
    for t in range(t_v):
        prev = np.clip(labels[:, t] + config.rho * prev, -1.0, 1.0, out=labels[:, t])
    # audio frames sample the latent at their own timestamps
    pos = np.arange(t_a) * (FPS_VIDEO / FPS_AUDIO)
    i0 = np.minimum(pos.astype(int), t_v - 1)
    i1 = np.minimum(i0 + 1, t_v - 1)
    frac = (pos - i0)[:, None]
    clips = []
    for clip_id, (rng, z, video, audio) in enumerate(zip(rngs, labels, videos, audios)):
        np.multiply(rng.standard_normal(out=video), config.sigma_video, out=video)
        video += np.tanh(z) @ video_map
        np.multiply(rng.standard_normal(out=audio), config.sigma_audio, out=audio)
        audio += np.tanh((1.0 - frac) * z[i0] + frac * z[i1]) @ audio_map
        clips.append(ClipRecord(id=clip_id, audio=audio, video=video, labels=z))
    return Dataset(clips)


# ---------------------------------------------------------------------------
# sync pipeline


def resample_audio(seq: np.ndarray) -> np.ndarray:
    """100 fps -> 30 fps by nearest-index selection: out[i] = in[round(i*10/3)]."""
    if seq.shape[0] == 0:
        raise ValueError("resample_audio: empty input")
    t_out = int(seq.shape[0] * 3 // 10)
    idx = np.floor(np.arange(t_out) * (10.0 / 3.0) + 0.5).astype(int)
    return seq[np.minimum(idx, seq.shape[0] - 1)]


def stack_context(seq: np.ndarray) -> np.ndarray:
    """Concatenate each frame with its causal context window (oldest first).

    Frame t becomes [f_{t-W+1}; ...; f_t] with W = CONTEXT_FRAMES; indices
    before the clip start repeat frame 0. At 65 input dims the output rows are
    3900-dimensional.

    The result is a read-only strided view: row t is the W*d values that start
    at row t of one padded (t+W-1) x d array, so consecutive rows share all but
    d of their values and the stacked rows are never materialized. Consumers
    copy (concatenate, corrupt) before writing or multiplying.
    """
    w = CONTEXT_FRAMES
    t, d = seq.shape
    if t == 0:
        return np.zeros((0, w * d))
    padded = np.concatenate([np.repeat(seq[:1], w - 1, axis=0), seq], axis=0)
    return np.lib.stride_tricks.sliding_window_view(padded.ravel(), w * d)[::d]


def fit_norm(clips: list[ClipRecord]) -> NormStats:
    """Per-dimension z-normalization statistics, fitted on the training split only.

    For float64 streams the results are bitwise `np.mean` and `np.std` over
    axis 0 of the concatenated clips, but memory is one clip's: numpy sums
    that axis of a C-contiguous (N, d > 1) array one row at a time, so each of
    two passes (sums, then squared deviations from the mean as in `np.var`)
    carries a running sum through one buffer of [sum; next clip's rows]. A
    width-1 stream is concatenated instead. Differing widths raise ValueError.
    """
    if not clips:
        raise ValueError("fit_norm: empty training split")
    audio_mean, audio_std = _mean_std(clips, "audio")
    video_mean, video_std = _mean_std(clips, "video")
    return NormStats(audio_mean=audio_mean, audio_std=np.maximum(audio_std, 1e-8),
                     video_mean=video_mean, video_std=np.maximum(video_std, 1e-8))


def _mean_std(clips: list[ClipRecord], stream: str) -> tuple[np.ndarray, np.ndarray]:
    seqs = [getattr(c, stream) for c in clips]
    width = seqs[0].shape[1]
    for clip, seq in zip(clips, seqs):
        if seq.shape[1] != width:  # copying into the buffer would broadcast a width-1 clip
            raise ValueError(f"fit_norm: clip {clip.id} has {stream} width {seq.shape[1]}, "
                             f"clip {clips[0].id} has {width}")
    if width == 1:  # numpy sums (N, 1) pairwise as a vector, not row by row; N floats are cheap
        seq = np.concatenate(seqs, axis=0)
        return np.mean(seq, axis=0), np.std(seq, axis=0)
    seqs = [seq for seq in seqs if len(seq)]
    n = sum(len(seq) for seq in seqs)
    buf = np.empty((1 + max(len(seq) for seq in seqs), width))

    def column_sum(fill) -> np.ndarray:
        total = None
        for seq in seqs:
            k = int(total is not None)
            fill(buf[k:k + len(seq)], seq)
            if k:
                buf[0] = total
            total = buf[:k + len(seq)].sum(axis=0)
        return total

    def squared_deviation(out, seq):
        np.square(np.subtract(seq, mean, out=out), out=out)

    mean = column_sum(np.copyto) / n
    return mean, np.sqrt(column_sum(squared_deviation) / n)


def apply_norm(clip: ClipRecord, stats: NormStats) -> ClipRecord:
    audio, video = clip.audio - stats.audio_mean, clip.video - stats.video_mean
    audio /= stats.audio_std
    video /= stats.video_std
    return replace(clip, audio=audio, video=video)


def sync_clip(clip: ClipRecord) -> ClipRecord:
    """Downsample audio, stack its context, truncate both streams to equal length."""
    stacked = stack_context(resample_audio(clip.audio))
    t_audio, t_video = stacked.shape[0], clip.video.shape[0]
    if abs(t_audio - t_video) > 3:
        raise ValueError(f"sync_clip: clip {clip.id} stream lengths diverge: "
                         f"audio {t_audio} vs video {t_video} frames after sync")
    t = min(t_audio, t_video)
    return ClipRecord(id=clip.id, audio=stacked[:t], video=clip.video[:t],
                      labels=clip.labels[:t])


# ---------------------------------------------------------------------------
# windowing


def window_clips(clips: list[ClipRecord], seq_len: int, evaluation: bool = False) -> list[Window]:
    """Cut synced clips into fixed-length model inputs.

    Training: non-overlapping windows, partial tail dropped. Evaluation:
    non-overlapping windows plus one right-aligned tail window whose
    already-covered frames are excluded via score_from, so every frame is
    scored exactly once. Clips shorter than seq_len are skipped, with one
    warning per call that counts them.
    """
    if seq_len < 1:
        raise ValueError(f"seq_len must be >= 1, got {seq_len}")
    windows: list[Window] = []
    skipped = 0
    for clip in clips:
        t = clip.audio.shape[0]
        if t < seq_len:
            skipped += 1
            continue
        start = 0  # after the loop: the frames the full windows cover
        while start + seq_len <= t:
            windows.append(Window(clip.id, start,
                                  clip.audio[start:start + seq_len],
                                  clip.video[start:start + seq_len],
                                  clip.labels[start:start + seq_len]))
            start += seq_len
        if evaluation and start < t:
            tail = t - seq_len
            windows.append(Window(clip.id, tail,
                                  clip.audio[tail:t], clip.video[tail:t], clip.labels[tail:t],
                                  score_from=start - tail))
    if skipped:
        log.warning("%d of %d clips shorter than seq_len %d, skipped",
                    skipped, len(clips), seq_len)
    return windows


# ---------------------------------------------------------------------------
# dataset file format: magic "AVXD", u32 version, u32 n_clips; per clip:
# u32 id, u32 fps_v, u32 T_v, u32 D_v, u32 fps_a, u32 T_a, u32 D_a,
# f32 video[T_v x D_v], f32 audio[T_a x D_a], f32 labels[T_v x 2]; nothing
# after the last clip. fps_v/fps_a must be FPS_VIDEO/FPS_AUDIO; T_v, T_a, D_v
# and D_a must be >= 1. Row-major, little-endian.


def save_dataset(dataset: Dataset, path) -> None:
    with open(path, "wb") as f:
        f.write(DATASET_MAGIC)
        binio.write_u32(f, DATASET_VERSION)
        binio.write_u32(f, len(dataset.clips))
        for clip in dataset.clips:
            for value in (clip.id, FPS_VIDEO, clip.video.shape[0], clip.video.shape[1],
                          FPS_AUDIO, clip.audio.shape[0], clip.audio.shape[1]):
                binio.write_u32(f, value)
            binio.write_f32_array(f, clip.video)
            binio.write_f32_array(f, clip.audio)
            binio.write_f32_array(f, clip.labels)


def load_dataset(path) -> Dataset:
    with open(path, "rb") as f:
        binio.expect_magic(f, DATASET_MAGIC)
        binio.expect_version(f, DATASET_VERSION)
        n_clips = binio.read_u32(f, "clip count")
        clips = []
        for _ in range(n_clips):
            clip_id = binio.read_u32(f, "clip id")
            fps_v = binio.read_u32(f, "fps_v")
            t_v = binio.read_u32(f, "T_v")
            d_v = binio.read_u32(f, "D_v")
            fps_a = binio.read_u32(f, "fps_a")
            t_a = binio.read_u32(f, "T_a")
            d_a = binio.read_u32(f, "D_a")
            # the sync pipeline resamples a fixed 100 -> 30 fps
            for name, fps, want in (("fps_v", fps_v, FPS_VIDEO), ("fps_a", fps_a, FPS_AUDIO)):
                if fps != want:
                    raise binio.FileFormatError(
                        f"unsupported rate: clip {clip_id} has {name}={fps}, expected {want}")
            for stream, frames, name, width in (("video", t_v, "D_v", d_v),
                                                ("audio", t_a, "D_a", d_a)):
                if frames == 0:
                    raise binio.FileFormatError(
                        f"invariant violation: clip {clip_id} has an empty {stream} stream")
                if width == 0:
                    raise binio.FileFormatError(
                        f"invariant violation: clip {clip_id} has {name}=0")
            if clips:  # every clip feeds one model, so all share clip 0's feature widths
                first = clips[0]
                for name, width, want in (("D_v", d_v, first.video.shape[1]),
                                          ("D_a", d_a, first.audio.shape[1])):
                    if width != want:
                        raise binio.FileFormatError(
                            f"invariant violation: clip {clip_id} has {name}={width}, "
                            f"but clip {first.id} has {name}={want}")
            video = binio.read_f32_array(f, (t_v, d_v), f"clip {clip_id} video (T_v x D_v)")
            audio = binio.read_f32_array(f, (t_a, d_a), f"clip {clip_id} audio (T_a x D_a)")
            labels = binio.read_f32_array(f, (t_v, 2), f"clip {clip_id} labels (T_v x 2)")
            if not np.all(np.abs(labels) <= 1.0):  # also rejects NaN
                raise binio.FileFormatError(
                    f"invariant violation: clip {clip_id} has labels outside [-1, 1]")
            for name, feats in (("video", video), ("audio", audio)):
                if not np.isfinite(feats).all():
                    raise binio.FileFormatError(
                        f"invariant violation: clip {clip_id} has non-finite {name} features")
            clips.append(ClipRecord(id=clip_id, audio=audio, video=video, labels=labels))
        binio.expect_end(f, "clip")
    return Dataset(clips)
