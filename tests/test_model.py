import os
import re
import signal
import struct
import sys
import threading
import time

import numpy as np
import pytest

from avfusion import autodiff as ad
from avfusion import binio
from avfusion import model
from avfusion.metrics import ccc_loss
from avfusion.model import (
    ModelConfig,
    clone_params,
    cross_modal_fuse,
    encoder_forward,
    init_params,
    load_checkpoint,
    model_forward,
    multi_head_attention,
    param_shapes,
    positional_encoding,
    save_checkpoint,
)

SMALL = ModelConfig(d_audio=5, d_video=4, num_layers=1, d_model=8, num_heads=2,
                    ffn_mult=2, seq_len=6)


def small_inputs(seed=0, config=SMALL):
    rng = np.random.default_rng(seed)
    return (ad.Tensor(rng.uniform(-1, 1, (config.seq_len, config.d_audio))),
            ad.Tensor(rng.uniform(-1, 1, (config.seq_len, config.d_video))))


def test_config_validation():
    with pytest.raises(ValueError, match="divisible"):
        ModelConfig(d_audio=4, d_video=4, d_model=10, num_heads=4)
    with pytest.raises(ValueError, match=">= 1"):
        ModelConfig(d_audio=0, d_video=4)


def test_init_params_deterministic():
    a = init_params(SMALL, seed=7)
    b = init_params(SMALL, seed=7)
    assert list(a) == list(b)
    for name in a:
        np.testing.assert_array_equal(a[name].data, b[name].data)


def test_init_params_fusion_scalars_start_at_one():
    params = init_params(SMALL, seed=0)
    assert float(params["fusion.alpha"].data) == 1.0
    assert float(params["fusion.beta"].data) == 1.0


def test_init_params_glorot_bound():
    params = init_params(SMALL, seed=3)
    for name, shape in param_shapes(SMALL).items():
        if len(shape) == 2:
            limit = np.sqrt(6.0 / (shape[0] + shape[1]))
            assert np.max(np.abs(params[name].data)) <= limit, name


def test_positional_encoding_range_and_determinism():
    pe = positional_encoding(100, 16)
    assert pe.shape == (100, 16)
    assert np.all(pe >= -1.0) and np.all(pe <= 1.0)
    np.testing.assert_array_equal(pe, positional_encoding(100, 16))


# --- attention ---


def _mha_weights():
    return (ad.Tensor([[1.0, 0.5], [0.0, 1.0]]),
            ad.Tensor([[0.0, 1.0], [1.0, 0.0]]),
            ad.Tensor([[1.0, 1.0], [0.0, 1.0]]),
            ad.Tensor([[2.0, 0.0], [1.0, 2.0]]))


def test_attention_output_shape():
    params = init_params(SMALL, seed=1)
    a, _ = small_inputs(1)
    enc = encoder_forward(a, params, "audio", SMALL)
    out = multi_head_attention(enc, enc,
                               params["audio.layers.0.attn.Wq"], params["audio.layers.0.attn.Wk"],
                               params["audio.layers.0.attn.Wv"], params["audio.layers.0.attn.Wo"],
                               SMALL.num_heads, SMALL.seq_len)
    assert out.data.shape == (SMALL.seq_len, SMALL.d_model)


def test_attention_single_key_weight_is_one():
    wq, wk, wv, wo = _mha_weights()
    kv = ad.Tensor([[0.3, -0.7]])
    out = multi_head_attention(ad.Tensor([[1.0, 2.0]]), kv, wq, wk, wv, wo, num_heads=1,
                               block_len=1)
    np.testing.assert_array_equal(out.data, kv.data @ wv.data @ wo.data)


def test_attention_hand_computed_oracle():
    # single head, d=2, T=2; expected values computed by hand from
    # softmax((q_src Wq)(kv_src Wk)^T / sqrt(2)) (kv_src Wv) Wo
    wq, wk, wv, wo = _mha_weights()
    out = multi_head_attention(ad.Tensor([[1.0, 0.0], [-1.0, 1.0]]),
                               ad.Tensor([[1.0, 2.0], [3.0, 4.0]]),
                               wq, wk, wv, wo, num_heads=1, block_len=2)
    expected = np.array([[12.143665588278637, 13.143665588278637],
                         [7.641907605386745, 8.641907605386745]])
    np.testing.assert_allclose(out.data, expected, atol=1e-10)


# --- encoder ---


def test_encoder_output_shape():
    params = init_params(SMALL, seed=2)
    a, _ = small_inputs(2)
    assert encoder_forward(a, params, "audio", SMALL).data.shape == (6, 8)


def test_encoder_zero_input_is_finite_and_deterministic():
    params = init_params(SMALL, seed=4)
    zero = ad.Tensor(np.zeros((6, 5)))
    out1 = encoder_forward(zero, params, "audio", SMALL)
    out2 = encoder_forward(ad.Tensor(np.zeros((6, 5))), params, "audio", SMALL)
    assert np.all(np.isfinite(out1.data))
    np.testing.assert_array_equal(out1.data, out2.data)


def test_encoder_attention_is_global():
    params = init_params(SMALL, seed=5)
    a, _ = small_inputs(5)
    bumped = a.data.copy()
    bumped[3] += 0.5  # change one frame only
    out1 = encoder_forward(a, params, "audio", SMALL)
    out2 = encoder_forward(ad.Tensor(bumped), params, "audio", SMALL)
    assert not np.array_equal(out1.data, out2.data)


# --- fusion ---


def test_fuse_zero_scalars_reduce_to_sum():
    params = init_params(SMALL, seed=6)
    params["fusion.alpha"].data[...] = 0.0
    params["fusion.beta"].data[...] = 0.0
    rng = np.random.default_rng(6)
    enc_a = ad.Tensor(rng.normal(size=(6, 8)))
    enc_v = ad.Tensor(rng.normal(size=(6, 8)))
    fused = cross_modal_fuse(enc_a, enc_v, params, SMALL)
    np.testing.assert_array_equal(fused.data, enc_a.data + enc_v.data)


def test_fuse_output_shape():
    params = init_params(SMALL, seed=7)
    rng = np.random.default_rng(7)
    fused = cross_modal_fuse(ad.Tensor(rng.normal(size=(6, 8))),
                             ad.Tensor(rng.normal(size=(6, 8))), params, SMALL)
    assert fused.data.shape == (6, 8)


def test_fuse_symmetric_under_tied_weights():
    params = init_params(SMALL, seed=8)
    for w in ("Wq", "Wk", "Wv", "Wo"):
        params[f"cross.video.attn.{w}"] = params[f"cross.audio.attn.{w}"]
    params["fusion.beta"] = params["fusion.alpha"]
    rng = np.random.default_rng(8)
    enc_a = ad.Tensor(rng.normal(size=(6, 8)))
    enc_v = ad.Tensor(rng.normal(size=(6, 8)))
    ab = cross_modal_fuse(enc_a, enc_v, params, SMALL)
    ba = cross_modal_fuse(enc_v, enc_a, params, SMALL)
    np.testing.assert_allclose(ab.data, ba.data, atol=1e-12)


# --- full model ---


def test_model_forward_paper_shape():
    config = ModelConfig(d_audio=3900, d_video=4096)  # 2 layers, 512 nodes, 4 heads
    params = init_params(config, seed=0)
    rng = np.random.default_rng(0)
    out = model_forward(ad.Tensor(rng.normal(size=(100, 3900))),
                        ad.Tensor(rng.normal(size=(100, 4096))), params, config)
    assert out.data.shape == (100, 2)


def test_model_forward_wrong_seq_len():
    params = init_params(SMALL, seed=1)
    for rows in (0, 5, 9):  # the batch is rows // seq_len, so rows must be a positive multiple
        with pytest.raises(ad.ShapeError, match=f"^model_forward: audio has {rows} rows, not "
                                                "a positive multiple of seq_len 6$"):
            model_forward(ad.Tensor(np.zeros((rows, 5))), ad.Tensor(np.zeros((rows, 4))),
                          params, SMALL)


def test_model_forward_runs_each_stacked_sequence_alone():
    params = init_params(SMALL, seed=1)
    inputs = [small_inputs(seed) for seed in (1, 2)]
    stacked = model_forward(ad.Tensor(np.concatenate([a.data for a, _ in inputs])),
                            ad.Tensor(np.concatenate([v.data for _, v in inputs])),
                            params, SMALL)
    alone = np.concatenate([model_forward(a, v, params, SMALL).data for a, v in inputs])
    np.testing.assert_allclose(stacked.data, alone, rtol=0, atol=1e-12)


def test_model_is_pure_function_of_inputs():
    params = init_params(SMALL, seed=9)
    audio, _ = small_inputs(9)
    v1 = np.zeros((6, 4))
    out1 = model_forward(audio, ad.Tensor(v1), params, SMALL)
    out2 = model_forward(audio, ad.Tensor(np.zeros((6, 4))), params, SMALL)
    np.testing.assert_array_equal(out1.data, out2.data)


def test_model_deterministic_across_runs():
    def run():
        params = init_params(SMALL, seed=10)
        audio, video = small_inputs(10)
        return model_forward(audio, video, params, SMALL).data

    np.testing.assert_array_equal(run(), run())


def test_zeroed_video_hides_original_content():
    params = init_params(SMALL, seed=11)
    audio, _ = small_inputs(11)
    rng = np.random.default_rng(99)
    video_a = rng.normal(size=(6, 4))
    video_b = rng.normal(size=(6, 4)) + 3.0
    out_a = model_forward(audio, ad.Tensor(np.zeros_like(video_a)), params, SMALL)
    out_b = model_forward(audio, ad.Tensor(np.zeros_like(video_b)), params, SMALL)
    np.testing.assert_array_equal(out_a.data, out_b.data)


def test_fusion_scalars_receive_gradient():
    params = init_params(SMALL, seed=12)
    audio, video = small_inputs(12)
    gold = np.random.default_rng(12).uniform(-1, 1, (6, 2))
    pred = model_forward(audio, video, params, SMALL)
    ad.backward(ccc_loss(pred, gold))
    assert abs(float(params["fusion.alpha"].grad)) > 0.0
    assert abs(float(params["fusion.beta"].grad)) > 0.0


# --- concurrent encoder branches ---

DEEP = ModelConfig(d_audio=5, d_video=4, num_layers=2, d_model=8, num_heads=2,
                   ffn_mult=2, seq_len=6)


def test_model_forward_and_grads_equal_serial_branches_bitwise():
    batch = 3
    rng = np.random.default_rng(20)
    audio = rng.uniform(-1, 1, (batch * DEEP.seq_len, DEEP.d_audio))
    video = rng.uniform(-1, 1, (batch * DEEP.seq_len, DEEP.d_video))
    gold = rng.uniform(-1, 1, (batch * DEEP.seq_len, 2))

    def serial(params):
        enc_a = encoder_forward(ad.Tensor(audio), params, "audio", DEEP)
        enc_v = encoder_forward(ad.Tensor(video), params, "video", DEEP)
        fused = cross_modal_fuse(enc_a, enc_v, params, DEEP)
        return ad.linear(fused, params["head.W"], params["head.b"])

    runs = []
    for forward in (lambda ps: model_forward(ad.Tensor(audio), ad.Tensor(video), ps, DEEP),
                    serial):
        params = init_params(DEEP, seed=20)
        pred = forward(params)
        ad.backward(ccc_loss(pred, gold))
        runs.append((pred.data, {name: p.grad for name, p in params.items()}))
    (pred, grads), (want_pred, want_grads) = runs
    np.testing.assert_array_equal(pred, want_pred)
    assert list(grads) == list(want_grads)
    for name, g in grads.items():
        assert g.any(), name  # every leaf is reached through its branch
        np.testing.assert_array_equal(g, want_grads[name], err_msg=name)


def _branch_recorder(monkeypatch, delay_video: float = 0.0):
    """Wrap model.encoder_forward; returns [(branch, thread id, finish time, error)]."""
    real = model.encoder_forward
    calls = []

    def recording(x, params, branch, *args):
        if branch == "video":
            time.sleep(delay_video)
        try:
            out = real(x, params, branch, *args)
        except Exception as exc:
            calls.append((branch, threading.get_ident(), time.perf_counter(), exc))
            raise
        calls.append((branch, threading.get_ident(), time.perf_counter(), None))
        return out

    monkeypatch.setattr(model, "encoder_forward", recording)
    return calls


def test_one_forward_runs_each_branch_once_video_off_the_calling_thread(monkeypatch):
    calls = _branch_recorder(monkeypatch)
    model_forward(*small_inputs(21), init_params(SMALL, seed=21), SMALL)
    threads = {branch: thread for branch, thread, _, _ in calls}
    assert sorted(branch for branch, *_ in calls) == ["audio", "video"]
    assert threads["audio"] == threading.get_ident()
    assert threads["video"] != threading.get_ident()


@pytest.mark.parametrize("bad_branch", ["video", "audio"])
def test_branch_error_propagates_once_both_branches_finished(monkeypatch, bad_branch):
    params = init_params(SMALL, seed=22)
    params[f"{bad_branch}.in_proj.W"].data[0, 0] = np.nan
    calls = _branch_recorder(monkeypatch, delay_video=0.2)
    with pytest.raises(FloatingPointError, match="^matmul produced non-finite values$") as exc:
        model_forward(*small_inputs(22), params, SMALL)
    returned = time.perf_counter()
    errors = {branch: error for branch, _, _, error in calls}
    assert exc.value is errors[bad_branch]  # the branch's own exception, unwrapped
    assert sorted(errors) == ["audio", "video"]
    assert all(finished <= returned for _, _, finished, _ in calls)


def test_concurrent_callers_each_get_the_result_of_a_lone_call():
    params = init_params(DEEP, seed=24)
    inputs = [small_inputs(seed, DEEP) for seed in range(6)]
    want = [model_forward(audio, video, params, DEEP).data for audio, video in inputs]
    got = [[] for _ in inputs]

    def caller(i):
        for _ in range(5):
            got[i].append(model_forward(*inputs[i], params, DEEP).data)

    threads = [threading.Thread(target=caller, args=(i,)) for i in range(len(inputs))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for outputs, expected in zip(got, want):
        assert len(outputs) == 5
        for out in outputs:
            np.testing.assert_array_equal(out, expected)


def test_forward_in_a_forked_child_of_a_process_that_used_the_worker():
    params = init_params(SMALL, seed=25)
    want = model_forward(*small_inputs(25), params, SMALL).data  # starts the worker thread
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:
        try:  # the alarm ends a child whose forward would wait forever
            signal.alarm(20)
            got = model_forward(*small_inputs(25), params, SMALL).data
            os.write(write_end, b"same" if np.array_equal(got, want) else b"differs")
        finally:
            os._exit(0)
    os.close(write_end)
    _, status = os.waitpid(pid, 0)
    with os.fdopen(read_end, "rb") as f:
        assert (f.read(), os.waitstatus_to_exitcode(status)) == (b"same", 0)


# --- concurrent backward ---


def _training_step(params, inputs):
    """Leaf grads of one forward + CCC loss + backward on `params`."""
    audio, video = inputs
    gold = np.random.default_rng(26).uniform(-1, 1, (audio.data.shape[0], 2))
    ad.backward(ccc_loss(model_forward(audio, video, params, DEEP), gold))
    return {name: p.grad for name, p in params.items()}


def test_video_encoder_rules_run_on_the_worker_and_the_rest_on_the_calling_thread(monkeypatch):
    real_encoder, real_record = model.encoder_forward, ad._record
    part = threading.local()  # the model part each thread is recording
    recorded, ran = [], []

    def encoder(x, params, branch, *args):
        part.name = branch
        try:
            return real_encoder(x, params, branch, *args)
        finally:
            part.name = "rest"

    def record(op, out, parents, rule, check=True):
        name = getattr(part, "name", "rest")
        recorded.append(name)

        def traced(g):
            ran.append((name, threading.get_ident()))
            return rule(g)

        return real_record(op, out, parents, traced, check)

    monkeypatch.setattr(model, "encoder_forward", encoder)
    monkeypatch.setattr(ad, "_record", record)
    _training_step(init_params(DEEP, seed=26), small_inputs(26, DEEP))
    worker = ad._worker.submit(threading.get_ident).result()
    assert worker != threading.get_ident()
    assert sorted(ran) == sorted(
        (name, worker if name == "video" else threading.get_ident()) for name in recorded)
    assert {"audio", "video", "rest"} == set(recorded)  # rest: cross-modal, head, loss


def test_a_training_step_meets_the_fork_join_precondition(monkeypatch):
    # fork_join gives one-thread grads only when its `there` branch shares no
    # grad-requiring input with the rest of the graph and nothing but its
    # stand-in reads the branch's outputs; pinned here for its one caller
    real_record = ad._record
    recorded_on = {}  # id(op node) -> (op node, recording thread)

    def record(*args, **kwargs):
        out = real_record(*args, **kwargs)
        recorded_on[id(out._node)] = (out._node, threading.get_ident())
        return out

    monkeypatch.setattr(ad, "_record", record)
    params = init_params(DEEP, seed=30)
    audio, video = small_inputs(30, DEEP)
    gold = np.random.default_rng(30).uniform(-1, 1, (DEEP.seq_len, 2))
    loss = ccc_loss(model_forward(audio, video, params, DEEP), gold)
    name_of = {id(p): name for name, p in params.items()}
    theirs = {key for key, (_, thread) in recorded_on.items() if thread != threading.get_ident()}
    their_leaves = set()
    for key in theirs:
        for parent in recorded_on[key][0].parents:
            if parent is not None and id(parent) not in theirs:
                assert isinstance(parent, ad.Tensor), "worker branch reads a caller's op"
                their_leaves.add(name_of.get(id(parent)))
    assert their_leaves == {name for name in params if name.startswith("video.")}
    tape = ad._build_tape(loss._node)
    assert sum(not node.parents for node in tape) == 1  # the stand-in
    for node in tape:
        assert id(node) not in theirs
        for parent in node.parents:
            assert id(parent) not in theirs
            assert not name_of.get(id(parent), "").startswith("video."), name_of[id(parent)]


def test_concurrent_trainers_each_get_the_grads_of_a_lone_call():
    inputs = [small_inputs(seed, DEEP) for seed in range(6)]
    want = [_training_step(init_params(DEEP, seed=27), x) for x in inputs]
    got = [[] for _ in inputs]

    def trainer(i):
        for _ in range(3):
            got[i].append(_training_step(init_params(DEEP, seed=27), inputs[i]))

    threads = [threading.Thread(target=trainer, args=(i,)) for i in range(len(inputs))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for runs, expected in zip(got, want):
        assert len(runs) == 3
        for grads in runs:
            for name, g in grads.items():
                np.testing.assert_array_equal(g, expected[name], err_msg=name)


def test_training_step_in_a_forked_child_of_a_process_that_used_the_worker():
    inputs = small_inputs(28, DEEP)
    want = _training_step(init_params(DEEP, seed=28), inputs)  # starts the worker thread
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:
        try:  # the alarm ends a child whose forward or backward would wait forever
            signal.alarm(20)
            got = _training_step(init_params(DEEP, seed=28), inputs)
            same = all(np.array_equal(got[name], g) for name, g in want.items())
            os.write(write_end, b"same" if same else b"differs")
        finally:
            os._exit(0)
    os.close(write_end)
    _, status = os.waitpid(pid, 0)
    with os.fdopen(read_end, "rb") as f:
        assert (f.read(), os.waitstatus_to_exitcode(status)) == (b"same", 0)


def test_a_training_step_leaves_one_worker_thread():
    _training_step(init_params(DEEP, seed=29), small_inputs(29, DEEP))
    workers = [t.name for t in threading.enumerate() if t.name.startswith("avfusion")]
    assert len(workers) == 1, workers


# --- checkpoints ---


def test_clone_params_are_snapshots_without_grad_buffers():
    params = init_params(SMALL, seed=2)
    clones = clone_params(params)
    assert list(clones) == list(params)
    for name, c in clones.items():
        assert not c.requires_grad and c.grad is None
        np.testing.assert_array_equal(c.data, params[name].data)
        assert not np.shares_memory(c.data, params[name].data)
    pred = model_forward(*small_inputs(), clones, SMALL)
    assert not pred.requires_grad and pred._backward_rule is None  # no graph recorded
    np.testing.assert_array_equal(pred.data, model_forward(*small_inputs(), params, SMALL).data)


def test_checkpoint_roundtrip(tmp_path):
    params = init_params(SMALL, seed=13)
    path = tmp_path / "m.ckpt"
    save_checkpoint(params, SMALL, path)
    loaded, config = load_checkpoint(path)
    assert config == SMALL
    assert list(loaded) == list(params)
    for name in params:
        assert not loaded[name].requires_grad and loaded[name].grad is None
        assert loaded[name].data.shape == params[name].data.shape
        np.testing.assert_array_equal(loaded[name].data,
                                      params[name].data.astype(np.float32).astype(np.float64))


def test_checkpoint_double_roundtrip_is_exact(tmp_path):
    params = init_params(SMALL, seed=14)
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(params, SMALL, p1)
    loaded1, _ = load_checkpoint(p1)
    save_checkpoint(loaded1, SMALL, p2)
    loaded2, _ = load_checkpoint(p2)
    for name in loaded1:
        np.testing.assert_array_equal(loaded1[name].data, loaded2[name].data)
    assert p1.read_bytes()[8:] == p2.read_bytes()[8:]  # identical payload


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "m.ckpt"
    save_checkpoint(init_params(SMALL, seed=15), SMALL, path)
    raw = bytearray(path.read_bytes())
    raw[0] ^= 0xFF
    path.write_bytes(bytes(raw))
    with pytest.raises(binio.BadMagicError, match="bad magic"):
        load_checkpoint(path)


def test_checkpoint_version_mismatch(tmp_path):
    path = tmp_path / "m.ckpt"
    save_checkpoint(init_params(SMALL, seed=16), SMALL, path)
    raw = bytearray(path.read_bytes())
    raw[4:8] = struct.pack("<I", 99)
    path.write_bytes(bytes(raw))
    with pytest.raises(binio.VersionMismatchError, match="version"):
        load_checkpoint(path)


def test_checkpoint_truncated(tmp_path):
    path = tmp_path / "m.ckpt"
    save_checkpoint(init_params(SMALL, seed=17), SMALL, path)
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) // 2])
    with pytest.raises(binio.TruncatedFileError, match="truncated"):
        load_checkpoint(path)


def test_checkpoint_shape_inconsistency(tmp_path):
    path = tmp_path / "m.ckpt"
    save_checkpoint(init_params(SMALL, seed=18), SMALL, path)
    raw = bytearray(path.read_bytes())
    name = b"audio.in_proj.W"
    at = raw.index(name) + len(name) + 1  # first dim u32 follows the rank byte
    raw[at:at + 4] = struct.pack("<I", SMALL.d_audio + 1)
    path.write_bytes(bytes(raw))
    with pytest.raises(binio.FileFormatError, match="shape inconsistency"):
        load_checkpoint(path)


def test_checkpoint_duplicate_param_name(tmp_path):
    path = tmp_path / "m.ckpt"
    params = init_params(SMALL, seed=19)
    save_checkpoint(params, SMALL, path)
    raw = bytearray(path.read_bytes())
    # Wk becomes a second Wq: same name length and shape, so only the repeat is wrong
    at = raw.index(b"audio.layers.0.attn.Wk")
    raw[at:at + 22] = b"audio.layers.0.attn.Wq"
    path.write_bytes(bytes(raw))
    with pytest.raises(binio.FileFormatError, match="duplicate param 'audio.layers.0.attn.Wq'"):
        load_checkpoint(path)


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_checkpoint_non_finite_weight_names_param(tmp_path, value):
    path = tmp_path / "m.ckpt"
    params = init_params(SMALL, seed=23)
    params["head.b"].data[1] = value
    save_checkpoint(params, SMALL, path)
    with pytest.raises(binio.FileFormatError, match="non-finite values in param 'head.b'"):
        load_checkpoint(path)


def test_checkpoint_bytes_after_the_last_param(tmp_path):
    path = tmp_path / "m.ckpt"
    save_checkpoint(init_params(SMALL, seed=24), SMALL, path)
    path.write_bytes(path.read_bytes() + b"\0\0\0\0")
    with pytest.raises(binio.FileFormatError, match="trailing bytes: 4 bytes after the last param"):
        load_checkpoint(path)


def test_checkpoint_param_name_not_utf8_names_file_and_field(tmp_path):
    path = tmp_path / "m.ckpt"
    save_checkpoint(init_params(SMALL, seed=25), SMALL, path)
    raw = bytearray(path.read_bytes())
    raw[raw.index(b"head.W")] = 0xFF
    path.write_bytes(bytes(raw))
    want = rf"^{re.escape(str(path))}: param name b'\\xffead.W' is not UTF-8$"
    with pytest.raises(binio.FileFormatError, match=want):
        load_checkpoint(path)
