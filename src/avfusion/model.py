"""Two-branch transformer with cross-modal attention fusion and a two-output head.

Audio and video feature sequences pass through independent self-attention
encoder branches, which `autodiff.fork_join` runs concurrently on two
threads, forward and backward; a cross-modal layer attends each branch to the
other and adds the results back through learnable scalar weights alpha/beta;
a linear head maps the fused representation to per-frame (valence, arousal).
"""

from __future__ import annotations

import io
import json
import numbers
from dataclasses import asdict, dataclass, fields
from functools import lru_cache

import numpy as np

from . import autodiff as ad
from . import binio

CHECKPOINT_MAGIC = b"AVCK"
CHECKPOINT_VERSION = 1

ParameterSet = dict[str, ad.Tensor]


@dataclass
class ModelConfig:
    d_audio: int
    d_video: int
    num_layers: int = 2
    d_model: int = 512
    num_heads: int = 4
    ffn_mult: int = 4
    seq_len: int = 100

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 1:
                raise ValueError(f"ModelConfig.{f.name} must be an integer >= 1, got {value!r}")
        if self.d_model % self.num_heads != 0:
            raise ValueError(f"d_model={self.d_model} not divisible by num_heads={self.num_heads}")


@lru_cache(maxsize=8)
def positional_encoding(seq_len: int, d_model: int) -> np.ndarray:
    """Sinusoidal position table [seq_len x d_model], values in [-1, 1] (read-only, cached)."""
    pos = np.arange(seq_len, dtype=np.float64)[:, None]
    half = (d_model + 1) // 2
    freq = 1.0 / np.power(10000.0, 2.0 * np.arange(half) / d_model)
    pe = np.zeros((seq_len, d_model))
    angles = pos * freq
    pe[:, 0::2] = np.sin(angles[:, : (d_model + 1) // 2])
    pe[:, 1::2] = np.cos(angles[:, : d_model // 2])
    pe.setflags(write=False)
    return pe


def param_shapes(config: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Canonical parameter name -> shape map; also fixes the creation order."""
    d, ff = config.d_model, config.ffn_mult * config.d_model
    shapes: dict[str, tuple[int, ...]] = {}
    for branch, d_in in (("audio", config.d_audio), ("video", config.d_video)):
        shapes[f"{branch}.in_proj.W"] = (d_in, d)
        shapes[f"{branch}.in_proj.b"] = (d,)
        for i in range(config.num_layers):
            pre = f"{branch}.layers.{i}"
            for w in ("Wq", "Wk", "Wv", "Wo"):
                shapes[f"{pre}.attn.{w}"] = (d, d)
            shapes[f"{pre}.ln1.gain"] = (d,)
            shapes[f"{pre}.ln1.bias"] = (d,)
            shapes[f"{pre}.ffn.W1"] = (d, ff)
            shapes[f"{pre}.ffn.b1"] = (ff,)
            shapes[f"{pre}.ffn.W2"] = (ff, d)
            shapes[f"{pre}.ffn.b2"] = (d,)
            shapes[f"{pre}.ln2.gain"] = (d,)
            shapes[f"{pre}.ln2.bias"] = (d,)
    for side in ("audio", "video"):
        for w in ("Wq", "Wk", "Wv", "Wo"):
            shapes[f"cross.{side}.attn.{w}"] = (d, d)
    shapes["fusion.alpha"] = ()
    shapes["fusion.beta"] = ()
    shapes["head.W"] = (d, 2)
    shapes["head.b"] = (2,)
    return shapes


def init_params(config: ModelConfig, seed: int) -> ParameterSet:
    """Glorot-uniform weights, zero biases, unit layer-norm gains, alpha=beta=1."""
    rng = np.random.default_rng(seed)
    params: ParameterSet = {}
    for name, shape in param_shapes(config).items():
        if name.endswith((".gain",)) :
            data = np.ones(shape)
        elif name in ("fusion.alpha", "fusion.beta"):
            data = np.asarray(1.0)
        elif len(shape) == 2:
            limit = np.sqrt(6.0 / (shape[0] + shape[1]))
            data = rng.uniform(-limit, limit, shape)
        else:
            data = np.zeros(shape)
        params[name] = ad.Tensor(data, requires_grad=True)
    return params


def clone_params(params: ParameterSet) -> ParameterSet:
    """Snapshot of the values as tensors that do not require grad: snapshots
    are only evaluated and saved, so a forward on them records no graph."""
    return {name: ad.Tensor(p.data.copy()) for name, p in params.items()}


def multi_head_attention(q_src: ad.Tensor, kv_src: ad.Tensor,
                         wq: ad.Tensor, wk: ad.Tensor, wv: ad.Tensor, wo: ad.Tensor,
                         num_heads: int, block_len: int) -> ad.Tensor:
    """Scaled dot-product attention: softmax(Q_h K_h^T / sqrt(d_h)) V_h per head.

    Q comes from q_src, K and V from kv_src; the softmax reduces over the
    key axis; head outputs are concatenated and output-projected. Inputs
    stack independent sequences of block_len rows each (attention never
    crosses block boundaries).
    """
    q, k, v = ad.matmul(q_src, wq), ad.matmul(kv_src, wk), ad.matmul(kv_src, wv)
    return ad.matmul(ad.attention(q, k, v, num_heads, block_len), wo)


def _branch_attention(params: ParameterSet, prefix: str):
    return (params[f"{prefix}.Wq"], params[f"{prefix}.Wk"],
            params[f"{prefix}.Wv"], params[f"{prefix}.Wo"])


def _stacked_rows(x: ad.Tensor, where: str, seq_len: int) -> int:
    n = x.data.shape[0] if x.data.ndim else 0
    if n == 0 or n % seq_len:
        raise ad.ShapeError(f"{where} has {n} rows, not a positive multiple of seq_len {seq_len}")
    return n


def encoder_forward(x: ad.Tensor, params: ParameterSet, branch: str,
                    config: ModelConfig) -> ad.Tensor:
    """Input projection + positional encoding, then post-norm self-attention blocks.

    `x` stacks independent sequences of `config.seq_len` rows each;
    self-attention stays within each sequence. 0 rows or a partial sequence raise ShapeError.
    """
    batch = _stacked_rows(x, f"encoder_forward: {branch}", config.seq_len) // config.seq_len
    h = ad.linear(x, params[f"{branch}.in_proj.W"], params[f"{branch}.in_proj.b"])
    pe = positional_encoding(config.seq_len, config.d_model)
    h = ad.add(h, ad.Tensor(pe if batch == 1 else np.tile(pe, (batch, 1))))
    for i in range(config.num_layers):
        pre = f"{branch}.layers.{i}"
        attn = multi_head_attention(h, h, *_branch_attention(params, f"{pre}.attn"),
                                    config.num_heads, config.seq_len)
        h = ad.layer_norm(ad.add(h, attn), params[f"{pre}.ln1.gain"], params[f"{pre}.ln1.bias"])
        ff = ad.linear(ad.relu(ad.linear(h, params[f"{pre}.ffn.W1"], params[f"{pre}.ffn.b1"])),
                       params[f"{pre}.ffn.W2"], params[f"{pre}.ffn.b2"])
        h = ad.layer_norm(ad.add(h, ff), params[f"{pre}.ln2.gain"], params[f"{pre}.ln2.bias"])
    return h


def cross_modal_fuse(enc_a: ad.Tensor, enc_v: ad.Tensor, params: ParameterSet,
                     config: ModelConfig) -> ad.Tensor:
    """Attend each branch to the other, add back with alpha/beta, sum the branches."""
    x_a = multi_head_attention(enc_a, enc_v, *_branch_attention(params, "cross.audio.attn"),
                               config.num_heads, config.seq_len)
    x_v = multi_head_attention(enc_v, enc_a, *_branch_attention(params, "cross.video.attn"),
                               config.num_heads, config.seq_len)
    aud = ad.add(enc_a, ad.mul(x_a, params["fusion.alpha"]))
    vid = ad.add(enc_v, ad.mul(x_v, params["fusion.beta"]))
    return ad.add(aud, vid)


def model_forward(audio: ad.Tensor, video: ad.Tensor, params: ParameterSet,
                  config: ModelConfig) -> ad.Tensor:
    """Per-frame (valence, arousal) predictions, one row per input row.

    The inputs stack seq_len-frame sequences row-wise, each processed alone
    (attention never crosses sequences); 0 rows or a partial sequence raise ShapeError.

    `autodiff.fork_join` runs the video encoder on the autodiff worker
    thread while the calling thread runs the audio encoder; the branches
    share no param and meet only at the cross-modal fusion, so the result is
    bitwise that of running them one after the other. The call returns or
    raises only once both branches have finished, and an error in either
    branch propagates unchanged (the audio branch's, if both fail).
    `backward` on a loss of the result runs the video encoder's rules on the
    worker thread too, while the calling thread runs the audio encoder's,
    with bitwise the grads of a one-thread pass. Whenever the worker is idle,
    in the forward and the backward alike, it also runs head chunks of the
    calling thread's attention calls (the cross-modal fusion's, and the audio
    encoder's once the video encoder is done), again with bitwise the same
    results; inference then holds at most one chunk's softmax weights per
    thread.
    """
    rows = _stacked_rows(audio, "model_forward: audio", config.seq_len)
    for name, x, d in (("audio", audio, config.d_audio), ("video", video, config.d_video)):
        if x.data.shape != (rows, d):
            raise ad.ShapeError(f"model_forward: {name} {x.data.shape} vs expected {(rows, d)}")
    enc_v, enc_a = ad.fork_join(lambda: encoder_forward(video, params, "video", config),
                                lambda: encoder_forward(audio, params, "audio", config))
    fused = cross_modal_fuse(enc_a, enc_v, params, config)
    return ad.linear(fused, params["head.W"], params["head.b"])


# ---------------------------------------------------------------------------
# checkpoint format: magic "AVCK", u32 version, u32 config-JSON length,
# config JSON, u32 param count, then per param: u16 name length, name,
# u8 rank, u32 dims[rank], f32 data row-major; nothing after the last param.
# Little-endian throughout.


def save_checkpoint(params: ParameterSet, config: ModelConfig, path) -> None:
    buf = io.BytesIO()
    buf.write(CHECKPOINT_MAGIC)
    binio.write_u32(buf, CHECKPOINT_VERSION)
    cfg = json.dumps(asdict(config), sort_keys=True, separators=(",", ":")).encode("utf-8")
    binio.write_u32(buf, len(cfg))
    buf.write(cfg)
    binio.write_u32(buf, len(params))
    for name, p in params.items():
        encoded = name.encode("utf-8")
        binio.write_u16(buf, len(encoded))
        buf.write(encoded)
        binio.write_u8(buf, p.data.ndim)
        for dim in p.data.shape:
            binio.write_u32(buf, dim)
        binio.write_f32_array(buf, p.data)
    with open(path, "wb") as f:
        f.write(buf.getvalue())


def load_checkpoint(path) -> tuple[ParameterSet, ModelConfig]:
    """Params and config of a checkpoint; a malformed file raises FileFormatError.

    Params come back like `clone_params` snapshots, not requiring grad: a
    loaded model is only evaluated, so a forward on it records no graph.
    Non-finite weights are rejected by param name.
    """
    with open(path, "rb") as f:
        binio.expect_magic(f, CHECKPOINT_MAGIC)
        binio.expect_version(f, CHECKPOINT_VERSION)
        cfg_len = binio.read_u32(f, "config length")
        cfg_raw = binio.read_exact(f, cfg_len, "config JSON")
        try:
            config = ModelConfig(**json.loads(cfg_raw.decode("utf-8")))
        except (ValueError, TypeError) as exc:
            raise binio.FileFormatError(f"invalid checkpoint config: {exc}") from exc
        expected = param_shapes(config)
        n = binio.read_u32(f, "param count")
        if n != len(expected):
            raise binio.FileFormatError(
                f"shape inconsistency: {n} params in file, config implies {len(expected)}")
        params: ParameterSet = {}
        for _ in range(n):
            name_len = binio.read_u16(f, "param name length")
            raw_name = binio.read_exact(f, name_len, "param name")
            try:
                name = raw_name.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise binio.FileFormatError(
                    f"{path}: param name {raw_name!r} is not UTF-8") from exc
            rank = binio.read_u8(f, "param rank")
            shape = tuple(binio.read_u32(f, "param dim") for _ in range(rank))
            if name in params:
                raise binio.FileFormatError(f"duplicate param {name!r} in checkpoint")
            if name not in expected or expected[name] != shape:
                raise binio.FileFormatError(
                    f"shape inconsistency: param {name!r} has shape {shape}, "
                    f"expected {expected.get(name)}")
            values = binio.read_f32_array(f, shape, f"param {name!r} data")
            if not np.isfinite(values).all():
                raise binio.FileFormatError(f"non-finite values in param {name!r}")
            params[name] = ad.Tensor(values)
        binio.expect_end(f, "param")
    return params, config
