import contextlib
import os
import signal
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings
import weakref
from concurrent import futures
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from avfusion import autodiff as ad
from avfusion.harness import finite_diff_grad, rel_err


def rand(shape, seed=0, lo=-1.0, hi=1.0):
    return np.random.default_rng(seed).uniform(lo, hi, shape)


# --- matmul ---


def test_matmul_identity():
    b = ad.Tensor(rand((2, 3), 1))
    out = ad.matmul(ad.Tensor(np.eye(2)), b)
    np.testing.assert_array_equal(out.data, b.data)


def test_matmul_hand_oracle():
    out = ad.matmul(ad.Tensor([[1.0, 2.0], [3.0, 4.0]]), ad.Tensor([[5.0, 6.0], [7.0, 8.0]]))
    np.testing.assert_array_equal(out.data, [[19.0, 22.0], [43.0, 50.0]])


def test_matmul_grad_vs_finite_differences():
    a = ad.Tensor(rand((3, 4), 2), requires_grad=True)
    b = ad.Tensor(rand((4, 5), 3))
    ad.backward(ad.tmean(ad.matmul(a, b)))
    fd = finite_diff_grad(lambda: np.mean(a.data @ b.data), a.data)
    assert rel_err(a.grad, fd) < 1e-6


def test_matmul_gives_no_gradient_to_a_data_operand():
    x = ad.Tensor(rand((6, 4), 4))
    w = ad.Tensor(rand((4, 3), 5), requires_grad=True)
    g = rand((6, 3), 6)
    dx, dw = ad.matmul(x, w)._backward_rule(g)
    assert dx is None
    np.testing.assert_array_equal(dw, x.data.T @ g)
    wt = ad.Tensor(w.data.T, requires_grad=True)
    dwt, dxt = ad.matmul(wt, ad.Tensor(x.data.T))._backward_rule(g.T)
    assert dxt is None
    np.testing.assert_array_equal(dwt, g.T @ x.data)
    # through backward: the leaf receives exactly the rule's product
    c = rand((6, 3), 7)
    ad.backward(ad.tmean(ad.mul(ad.matmul(x, w), ad.Tensor(c))))
    np.testing.assert_array_equal(w.grad, x.data.T @ (np.full((6, 3), 1.0 / 18) * c))
    assert x.grad is None


def test_matmul_shape_mismatch_names_both_shapes():
    with pytest.raises(ad.ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
        ad.matmul(ad.Tensor(np.zeros((2, 3))), ad.Tensor(np.zeros((2, 3))))


# --- softmax (the key-axis softmax inside the attention kernel) ---


def _attend(q, k, v, num_heads=1):
    q, k, v = (ad.Tensor(np.asarray(x, dtype=float)) for x in (q, k, v))
    return ad.attention(q, k, v, num_heads, block_len=q.data.shape[0]).data


def test_softmax_constant_row_is_uniform():
    # equal keys give equal scores, so every query averages the values
    v = rand((3, 2), 40)
    out = _attend(rand((3, 2), 41), np.full((3, 2), 7.3), v)
    np.testing.assert_allclose(out, np.tile(np.mean(v, axis=0), (3, 1)), rtol=0, atol=1e-15)


def test_softmax_direct_evaluation():
    # one head of width 1: scores 0 and log 2 weight the values 1/3 and 2/3
    out = _attend([[1.0], [1.0]], [[0.0], [np.log(2.0)]], [[3.0], [6.0]])
    np.testing.assert_allclose(out, [[5.0], [5.0]], atol=1e-14)


def test_softmax_large_values_do_not_overflow():
    # scores 1e6 and 0: all weight on the first key, nothing overflows
    out = _attend([[1e3], [1e3]], [[1e3], [0.0]], [[2.0], [-4.0]])
    np.testing.assert_array_equal(out, [[2.0], [2.0]])


@settings(max_examples=50, deadline=None)
@given(arrays(np.float64, (3, 4, 4), elements=st.floats(-1, 1)),
       arrays(np.float64, (4,), elements=st.floats(-10, 10)))
def test_softmax_rows_sum_to_one_and_shift_invariant(qkv, c):
    q, k, v = qkv
    # weights summing to one return a constant value row unchanged
    np.testing.assert_allclose(_attend(q, k, np.ones((4, 4)), num_heads=2),
                               np.ones((4, 4)), atol=1e-12)
    # adding one vector to every key shifts each query's scores by a constant
    np.testing.assert_allclose(_attend(q, k + c, v, num_heads=2),
                               _attend(q, k, v, num_heads=2), atol=1e-12)


def test_softmax_grad_vs_finite_differences():
    q, k, v = (ad.Tensor(rand((6, 4), seed), requires_grad=True) for seed in (4, 42, 43))
    w = rand((6, 4), 5)  # fixed weighting so the loss depends on every output
    ad.backward(ad.tmean(ad.mul(ad.attention(q, k, v, 2, block_len=3), ad.Tensor(w))))

    def f():
        return float(ad.tmean(ad.mul(ad.attention(q, k, v, 2, block_len=3), ad.Tensor(w))).data)

    for t in (q, k, v):
        assert rel_err(t.grad, finite_diff_grad(f, t.data)) < 1e-6


# --- layer_norm ---


def test_layer_norm_constant_row_is_zero():
    out = ad.layer_norm(ad.Tensor([[5.0, 5.0, 5.0]]), ad.Tensor(np.ones(3)), ad.Tensor(np.zeros(3)))
    np.testing.assert_allclose(out.data, np.zeros((1, 3)), atol=1e-12)


def test_layer_norm_two_point_row():
    # row [1,3]: mu=2, var=1, so the normalized row is [-1, 1] / sqrt(1 + eps)
    out = ad.layer_norm(ad.Tensor([[1.0, 3.0]]), ad.Tensor(np.ones(2)), ad.Tensor(np.zeros(2)))
    np.testing.assert_allclose(out.data, [[-1.0, 1.0]] / np.sqrt(1.0 + 1e-5), rtol=0, atol=1e-15)


def test_layer_norm_zero_gain_gives_bias():
    bias = rand(4, 6)
    out = ad.layer_norm(ad.Tensor(rand((3, 4), 7)), ad.Tensor(np.zeros(4)), ad.Tensor(bias))
    np.testing.assert_array_equal(out.data, np.tile(bias, (3, 1)))


def test_layer_norm_whose_variance_overflows_raises():
    # finite rows whose squares overflow; the row must not come out as the bias
    with np.errstate(over="ignore"), pytest.raises(FloatingPointError, match="^layer_norm"):
        ad.layer_norm(ad.Tensor([[1e160, -1e160, 0.0]]), ad.Tensor(np.ones(3)),
                      ad.Tensor(np.zeros(3)))


def test_layer_norm_grad_vs_finite_differences():
    x = ad.Tensor(rand((4, 6), 8), requires_grad=True)
    gain = ad.Tensor(rand(6, 9), requires_grad=True)
    bias = ad.Tensor(rand(6, 10), requires_grad=True)
    w = rand((4, 6), 11)
    eps = 1e-5  # layer_norm's
    ad.backward(ad.tmean(ad.mul(ad.layer_norm(x, gain, bias), ad.Tensor(w))))

    def f():
        mu = np.mean(x.data, axis=1, keepdims=True)
        var = np.mean((x.data - mu) ** 2, axis=1, keepdims=True)
        return np.mean(((x.data - mu) / np.sqrt(var + eps) * gain.data + bias.data) * w)

    for t in (x, gain, bias):
        assert rel_err(t.grad, finite_diff_grad(f, t.data)) < 1e-4


# --- linear ---


def test_linear_identity_and_zero_input():
    x = rand((3, 4), 12)
    out = ad.linear(ad.Tensor(x), ad.Tensor(np.eye(4)), ad.Tensor(np.zeros(4)))
    np.testing.assert_array_equal(out.data, x)
    b = rand(5, 13)
    out = ad.linear(ad.Tensor(np.zeros((3, 4))), ad.Tensor(rand((4, 5), 14)), ad.Tensor(b))
    np.testing.assert_array_equal(out.data, np.tile(b, (3, 1)))


def test_linear_grad_vs_finite_differences():
    x = ad.Tensor(rand((3, 4), 15), requires_grad=True)
    w = ad.Tensor(rand((4, 2), 16), requires_grad=True)
    b = ad.Tensor(rand(2, 17), requires_grad=True)
    ad.backward(ad.tmean(ad.linear(x, w, b)))
    f = lambda: np.mean(x.data @ w.data + b.data)
    for t in (x, w, b):
        assert rel_err(t.grad, finite_diff_grad(f, t.data)) < 1e-6


# --- elementwise ---


def test_add_zero_is_identity():
    x = rand((2, 3), 18)
    out = ad.add(ad.Tensor(x), ad.Tensor(np.zeros((2, 3))))
    np.testing.assert_array_equal(out.data, x)


def test_add_takes_equal_shapes_only():
    for b in (ad.Tensor(1.0), ad.Tensor(np.zeros(3)), ad.Tensor(np.zeros((3, 2)))):
        with pytest.raises(ad.ShapeError, match="add"):
            ad.add(ad.Tensor(np.zeros((2, 3))), b)


def test_relu_forced_values():
    out = ad.relu(ad.Tensor([-1.0, 2.0]))
    np.testing.assert_array_equal(out.data, [0.0, 2.0])


@settings(max_examples=25, deadline=None)
@given(arrays(np.float64, (3, 4), elements=st.floats(-1, 1)),
       arrays(np.float64, (3, 4), elements=st.floats(-1, 1)))
def test_elementwise_ops_are_pure(xa, xb):
    a, b = ad.Tensor(xa.copy()), ad.Tensor(xb.copy())
    for op in (ad.add, ad.mul):
        op(a, b)
    ad.relu(a), ad.mul(a, ad.Tensor(2.5))
    np.testing.assert_array_equal(a.data, xa)
    np.testing.assert_array_equal(b.data, xb)


@pytest.mark.parametrize("op,ref", [
    (ad.add, lambda a, b: a + b),
    (ad.mul, lambda a, b: a * b),
])
def test_binary_op_grads_vs_finite_differences(op, ref):
    a = ad.Tensor(rand((3, 4), 20), requires_grad=True)
    b = ad.Tensor(rand((3, 4), 21, lo=0.5, hi=1.5), requires_grad=True)
    ad.backward(ad.tmean(op(a, b)))
    f = lambda: np.mean(ref(a.data, b.data))
    assert rel_err(a.grad, finite_diff_grad(f, a.data)) < 1e-4
    assert rel_err(b.grad, finite_diff_grad(f, b.data)) < 1e-4


def test_scalar_broadcast_grad():
    a = ad.Tensor(rand((3, 4), 22), requires_grad=True)
    s = ad.Tensor(0.7, requires_grad=True)
    ad.backward(ad.tmean(ad.mul(a, s)))
    np.testing.assert_allclose(s.grad, np.mean(a.data), atol=1e-12)
    np.testing.assert_allclose(a.grad, np.full((3, 4), 0.7 / 12), atol=1e-12)


# --- backward mechanics ---


def test_backward_sum_gives_ones():
    x = ad.Tensor(rand((3, 4), 28), requires_grad=True)
    ad.backward(ad.mul(ad.tmean(x), ad.Tensor(x.data.size)))  # the sum, as n * mean
    np.testing.assert_array_equal(x.grad, np.ones((3, 4)))


def test_backward_sum_of_square_gives_2x():
    x = ad.Tensor(rand((3, 4), 29), requires_grad=True)
    ad.backward(ad.mul(ad.tmean(ad.mul(x, x)), ad.Tensor(x.data.size)))
    np.testing.assert_allclose(x.grad, 2.0 * x.data, atol=1e-12)


def test_a_fresh_leaf_has_no_grad_and_allocates_none():
    data = np.zeros((1000, 1000))
    tracemalloc.start()
    try:
        leaf = ad.Tensor(data, requires_grad=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert leaf.grad is None and leaf.data is data
    assert peak < data.nbytes // 8  # no second 8 MB buffer


def test_a_second_backward_on_the_same_leaves_replaces_their_grads():
    x = ad.Tensor(rand((3, 4), 40), requires_grad=True)
    w = ad.Tensor(rand((4, 2), 41), requires_grad=True)
    grads = []
    for _ in range(2):
        ad.backward(ad.tmean(ad.mul(ad.matmul(x, w), ad.matmul(x, w))))
        grads.append((x.grad.copy(), w.grad.copy()))
    for first, second in zip(*grads):
        assert first.any()
        np.testing.assert_array_equal(second, first)  # not twice the first


def test_add_gives_each_leaf_operand_its_gradient():
    a = ad.Tensor(rand((2, 3), 42), requires_grad=True)
    b = ad.Tensor(rand((2, 3), 43), requires_grad=True)
    ad.backward(ad.tmean(ad.add(a, b)))
    np.testing.assert_array_equal(a.grad, np.full((2, 3), 1.0 / 6))
    np.testing.assert_array_equal(b.grad, np.full((2, 3), 1.0 / 6))
    x = ad.Tensor(rand((2, 3), 44), requires_grad=True)
    ad.backward(ad.tmean(ad.add(x, x)))  # one leaf reached twice through one op
    np.testing.assert_array_equal(x.grad, np.full((2, 3), 2.0 / 6))


def test_backward_twice_raises():
    x = ad.Tensor(rand((2, 2), 30), requires_grad=True)
    loss = ad.tmean(x)
    ad.backward(loss)
    with pytest.raises(RuntimeError, match="freed"):
        ad.backward(loss)


def test_backward_frees_the_graph_and_keeps_only_leaf_grads():
    x = ad.Tensor(rand((3, 4), 33), requires_grad=True)
    w = ad.Tensor(rand((4, 2), 34), requires_grad=True)
    m = ad.matmul(x, w)
    h = ad.relu(m)
    sq = ad.mul(h, h)
    loss = ad.tmean(sq)
    outputs = (m, h, sq, loss)
    ops = ad._build_tape(loss._node)
    assert [id(node) for node in ops] == [id(t._node) for t in outputs]
    ad.backward(loss)
    for t in outputs:
        assert t.grad is None
        assert t._node.parents == () and t._backward_rule is None
    assert x.grad is not None and w.grad is not None
    with pytest.raises(RuntimeError, match="freed"):
        ad.backward(loss)
    # a new graph built on a freed op output cannot reach the leaves any more
    with pytest.raises(RuntimeError, match="freed"):
        ad.backward(ad.tmean(h))


def test_backward_non_scalar_raises():
    x = ad.Tensor(rand((2, 2), 31), requires_grad=True)
    with pytest.raises(ValueError, match="scalar"):
        ad.backward(ad.mul(x, x))


def test_backward_empty_tape_raises():
    with pytest.raises(RuntimeError, match="empty tape"):
        ad.backward(ad.Tensor(1.0, requires_grad=True))


def test_tape_is_topological_and_each_op_visited_once():
    x = ad.Tensor(rand((2, 2), 32), requires_grad=True)
    y = ad.mul(x, x)
    z = ad.add(y, y)  # diamond: y used twice
    loss = ad.tmean(z)
    tape = ad._build_tape(loss._node)
    assert tape[-1] is loss._node
    seen: set[int] = {id(x)}
    for node in tape:
        for parent in node.parents:
            if parent is not None:  # None: an operand that needs no gradient
                assert id(parent) in seen
        assert id(node) not in seen  # visited exactly once
        seen.add(id(node))
    assert ad.backward(loss) is None
    np.testing.assert_allclose(x.grad, 4.0 * x.data / 4, atol=1e-12)


def _graph_over_every_op_kind():
    """A loss whose graph outlives every other reference to its op outputs."""
    x = ad.Tensor(rand((30, 4), 70))
    w1, wq, wk, wv, w2 = (ad.Tensor(rand((4, 4), seed), requires_grad=True)
                          for seed in range(71, 76))
    b1, gain, bias = (ad.Tensor(rand(4, seed), requires_grad=True) for seed in (76, 77, 78))
    alpha = ad.Tensor(0.5, requires_grad=True)
    r = ad.relu(ad.linear(x, w1, b1))
    a = ad.attention(ad.matmul(r, wq), ad.matmul(r, wk), ad.matmul(r, wv), 2, block_len=3)
    n = ad.layer_norm(ad.add(ad.mul(a, alpha), r), gain, bias)
    return ad.tmean(ad.matmul(n, w2))


def test_the_graph_keeps_only_the_op_outputs_a_rule_reads(monkeypatch):
    outputs = []  # (op, weak reference to its output array), in recording order
    real = ad._record

    def record(op, out, *args, **kwargs):
        outputs.append((op, weakref.ref(out)))
        return real(op, out, *args, **kwargs)

    monkeypatch.setattr(ad, "_record", record)
    loss = _graph_over_every_op_kind()
    # read by a rule: relu's output by the q/k/v matmuls, attention's by mul
    # (alpha requires grad), layer_norm's by the last matmul; the loss is held
    assert [(op, ref() is not None) for op, ref in outputs] == [
        ("matmul", False), ("add_bias", False), ("relu", True),
        ("matmul", False), ("matmul", False), ("matmul", False), ("attention", True),
        ("mul", False), ("add", False), ("layer_norm", True), ("matmul", False), ("mean", True)]
    ad.backward(loss)
    assert [op for op, ref in outputs if ref() is not None] == ["mean"]


@contextlib.contextmanager
def worker_held_busy():
    """The autodiff worker blocked in a job of its own until the block exits,
    which must not wait for that job."""
    started, release = threading.Event(), threading.Event()

    def hold():
        started.set()
        release.wait(timeout=10)

    job = ad._worker.submit(hold)
    assert started.wait(timeout=10)
    try:
        yield
        assert not job.done()
    finally:
        release.set()
        job.result(timeout=10)


def assert_attention_keeps_weights_only_for_grad(monkeypatch, max_live):
    made, live = [], []  # weak references to each chunk's weights; live ones at each call
    real = ad._chunk_softmax

    def chunk_softmax(q3c, k3c):
        live.append(sum(ref() is not None for ref in made))
        w = real(q3c, k3c)
        made.append(weakref.ref(w))
        return w

    monkeypatch.setattr(ad, "_chunk_softmax", chunk_softmax)
    q, k = (ad.Tensor(rand((30, 4), seed)) for seed in (80, 81))  # 20 heads: 3 chunks
    v = ad.Tensor(rand((30, 4), 82))
    ad.attention(q, k, v, 2, block_len=3)
    assert len(made) == 3 and max(live) <= max_live
    assert all(ref() is None for ref in made)
    made.clear()
    v.requires_grad = True
    loss = ad.tmean(ad.mul(ad.attention(q, k, v, 2, block_len=3), ad.Tensor(rand((30, 4), 83))))
    assert len(made) == 3 and all(ref() is not None for ref in made)
    ad.backward(loss)
    assert len(made) == 3  # the rule read the kept weights, computing none again
    assert all(ref() is None for ref in made)


def test_attention_keeps_softmax_weights_only_when_an_input_requires_grad(monkeypatch):
    # the calling thread runs every chunk, and the help it submitted, never
    # started, must keep none of them alive
    with worker_held_busy():
        assert_attention_keeps_weights_only_for_grad(monkeypatch, max_live=1)


def test_attention_helped_by_the_worker_holds_one_chunks_weights_per_thread(monkeypatch):
    assert_attention_keeps_weights_only_for_grad(monkeypatch, max_live=2)


def test_finite_values_whose_sum_overflows_are_accepted():
    big = ad.Tensor(np.full(4, 1e308))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the overflowing check sum stays silent
        out = ad.add(big, ad.Tensor(np.zeros(4)))
    np.testing.assert_array_equal(out.data, big.data)
    with pytest.raises(FloatingPointError):
        ad.add(big, ad.Tensor(np.array([0.0, 0.0, np.nan, 0.0])))


# --- concurrent backward ---


@contextlib.contextmanager
def recording_threads(n):
    """n live threads (neither the caller nor the autodiff worker); yields one
    `run(fn)` per thread that returns fn() computed on that thread."""
    pools = [futures.ThreadPoolExecutor(1) for _ in range(n)]
    try:
        yield [lambda fn, pool=pool: pool.submit(fn).result() for pool in pools]
    finally:
        for pool in pools:
            pool.shutdown()


def on_this_thread(fn):
    return fn()


def worker_thread() -> int:
    return ad._worker.submit(threading.get_ident).result()


@pytest.fixture
def rule_runs(monkeypatch):
    """Patch ad._record; returns [(op, recording thread, running thread)], one per rule run."""
    real = ad._record
    runs = []

    def record(op, out, parents, rule, check=True):
        recorded_on = threading.get_ident()

        def traced(g):
            runs.append((op, recorded_on, threading.get_ident()))
            return rule(g)

        return real(op, out, parents, traced, check)

    monkeypatch.setattr(ad, "_record", record)
    return runs


def branch_leaves():
    """Data inputs xa, xv [6 x 4] and weights wa, wv, wu [4 x 3]."""
    leaves = {name: ad.Tensor(rand((6, 4), seed)) for seed, name in enumerate(("xa", "xv"), 60)}
    leaves.update({name: ad.Tensor(rand((4, 3), seed), requires_grad=True)
                   for seed, name in enumerate(("wa", "wv", "wu"), 62)})
    return leaves


def branch(x, w):
    return ad.relu(ad.matmul(x, w))


def square_mean(x):
    return ad.tmean(ad.mul(x, x))


# each builds a loss over branch_leaves(), recording the parts passed to
# run1/run2 on those threads; none goes through fork_join
def two_branches(l, run1, run2):
    ha = branch(l["xa"], l["wa"])
    hv = run1(lambda: branch(l["xv"], l["wv"]))
    return square_mean(ad.add(ad.mul(ha, hv), hv))  # hv read by two calling-thread ops


def theirs_reads_an_own_output(l, run1, run2):
    ha = ad.matmul(l["xa"], l["wa"])
    hv = run1(lambda: ad.relu(ad.mul(ha, ha)))
    return square_mean(ad.add(hv, ha))


def theirs_reaches_an_own_leaf(l, run1, run2):
    ha = branch(l["xa"], l["wa"])
    hv = run1(lambda: branch(l["xv"], l["wa"]))
    return square_mean(ad.add(ad.mul(ha, hv), hv))


def their_output_read_by_both_threads(l, run1, run2):
    def theirs():
        hv = branch(l["xv"], l["wv"])
        return hv, ad.mul(hv, hv)

    ha = branch(l["xa"], l["wa"])
    hv, rv = run1(theirs)
    return square_mean(ad.add(ad.mul(ha, hv), rv))


def two_other_threads(l, run1, run2):
    ha = branch(l["xa"], l["wa"])
    hv = run1(lambda: branch(l["xv"], l["wv"]))
    hu = run2(lambda: branch(l["xv"], l["wu"]))
    return square_mean(ad.add(ad.mul(ha, hv), hu))


def all_on_another_thread(l, run1, run2):
    return run1(lambda: two_branches(l, on_this_thread, on_this_thread))


def leaf_grads(build, run1=on_this_thread, run2=on_this_thread):
    leaves = branch_leaves()
    ad.backward(build(leaves, run1, run2))
    return {name: leaf.grad for name, leaf in leaves.items() if leaf.requires_grad}


def assert_grads_equal(got, want):
    assert list(got) == list(want)
    for name, g in got.items():
        np.testing.assert_array_equal(g, want[name], err_msg=name)


def one_thread(there, here):
    return there(), here()


def forked_branches(l, fork=ad.fork_join):
    """A loss over branch_leaves() whose hv branch `fork` records as `there`.
    The stand-in for hv lands below ha's ops on the tape, so backward hands
    hv's branch to the worker before it runs ha's rules."""
    hv, ha = fork(lambda: branch(l["xv"], l["wv"]), lambda: branch(l["xa"], l["wa"]))
    return square_mean(ad.add(hv, ad.mul(hv, ha)))  # hv read by two calling-thread ops


def test_two_thread_graph_runs_the_other_threads_rules_on_the_worker_bitwise(rule_runs,
                                                                            worker_helps):
    want = leaf_grads(lambda l, *_: forked_branches(l, one_thread))
    rule_runs.clear()
    worker_helps()
    got = leaf_grads(lambda l, *_: forked_branches(l))
    assert_grads_equal(got, want)
    me, worker = threading.get_ident(), worker_thread()
    assert all(running == recorded for _, recorded, running in rule_runs)
    assert sorted(op for op, recorded, _ in rule_runs if recorded == worker) == ["matmul", "relu"]
    assert {recorded for _, recorded, _ in rule_runs} == {me, worker}
    assert len(rule_runs) == 8  # each op's rule ran once


def test_fork_join_and_its_backward_never_wait_for_a_busy_worker(rule_runs):
    want = leaf_grads(lambda l, *_: forked_branches(l, one_thread))
    rule_runs.clear()
    with worker_held_busy():  # the calling thread runs both branches
        got = leaf_grads(lambda l, *_: forked_branches(l))
    assert_grads_equal(got, want)
    me = threading.get_ident()
    assert {(recorded, running) for _, recorded, running in rule_runs} == {(me, me)}
    assert len(rule_runs) == 8  # each op's rule ran once


def test_an_error_on_the_calling_thread_keeps_a_branch_not_yet_started_from_running(rule_runs):
    error, started = ProbeError("calling"), []

    def fail(*_):
        raise error

    def failing_rule(x):
        return ad._record("probe", x.data.copy(), (x,), fail)

    leaves = branch_leaves()
    with worker_held_busy():
        with pytest.raises(ProbeError) as exc:
            ad.fork_join(lambda: started.append("there"), fail)
        assert exc.value is error and started == []
        hv, ha = ad.fork_join(lambda: branch(leaves["xv"], leaves["wv"]),
                              lambda: failing_rule(branch(leaves["xa"], leaves["wa"])))
        loss = square_mean(ad.add(hv, ad.mul(hv, ha)))
        rule_runs.clear()
        with pytest.raises(ProbeError) as exc:
            ad.backward(loss)
    assert exc.value is error
    # the probe is the first of the calling thread's rules after the hand-off
    # of hv's branch, which neither thread then starts
    assert [op for op, *_ in rule_runs] == ["mean", "mul", "add", "mul", "probe"]
    assert leaves["wa"].grad is None and leaves["wv"].grad is None


@pytest.mark.parametrize("build", [theirs_reads_an_own_output, theirs_reaches_an_own_leaf,
                                   their_output_read_by_both_threads, two_other_threads,
                                   all_on_another_thread])
def test_graph_that_cannot_split_exactly_runs_on_the_calling_thread_bitwise(rule_runs, build):
    want = leaf_grads(build)
    rule_runs.clear()
    with recording_threads(2) as (run1, run2):
        got = leaf_grads(build, run1, run2)
    assert_grads_equal(got, want)
    assert any(recorded != threading.get_ident() for _, recorded, _ in rule_runs)
    assert {running for _, _, running in rule_runs} == {threading.get_ident()}


def test_fork_join_branch_goes_to_the_worker_before_the_callers_own_rules_run(rule_runs,
                                                                              monkeypatch,
                                                                              worker_helps):
    def loss_of(l, fork=ad.fork_join):
        hv, ha = fork(lambda: branch(l["xv"], l["wv"]), lambda: branch(l["xa"], l["wa"]))
        # a postorder traversal reaches hv's stand-in before any of ha's ops
        return ad.tmean(ad.add(ad.mul(ha, hv), hv))

    want = leaf_grads(lambda l, *_: loss_of(l, one_thread))
    worker_helps()  # hv's branch is recorded on the worker
    leaves = branch_leaves()
    loss = loss_of(leaves)
    worker, me = ad._worker, threading.get_ident()

    class LoggedWorker:
        def submit(self, fn, *args):
            rule_runs.append(("submit", me, threading.get_ident()))
            return worker.submit(fn, *args)

    rule_runs.clear()
    monkeypatch.setattr(ad, "_worker", LoggedWorker())
    ad.backward(loss)
    assert_grads_equal({name: leaf.grad for name, leaf in leaves.items() if leaf.requires_grad},
                       want)
    # reaching the stand-in submits hv's branch as soon as its last consumer ran
    assert [op for op, recorded, _ in rule_runs if recorded == me] == [
        "mean", "add", "mul", "submit", "relu", "matmul"]


class ProbeError(Exception):
    pass


# the slow side's rule is still running when the other side's rule raises
@pytest.mark.parametrize("failing,slow", [(("calling",), "worker"), (("worker",), "calling"),
                                          (("calling", "worker"), "worker")])
def test_rule_error_on_either_thread_propagates_unwrapped_after_both_finished(failing, slow,
                                                                             worker_helps):
    worker_helps()  # each branch on its own thread, forward and backward
    errors = {side: ProbeError(side) for side in ("calling", "worker")}
    finished = {}

    def probe(x, side):
        def rule(g):
            if side == slow:
                time.sleep(0.2)
            finished[side] = (threading.get_ident(), time.perf_counter())
            if side in failing:
                raise errors[side]
            return (g,)

        return ad._record("probe", x.data.copy(), (x,), rule)

    leaves = branch_leaves()
    hv, ha = ad.fork_join(lambda: probe(branch(leaves["xv"], leaves["wv"]), "worker"),
                          lambda: probe(branch(leaves["xa"], leaves["wa"]), "calling"))
    with pytest.raises(ProbeError) as exc:
        ad.backward(square_mean(ad.add(hv, ad.mul(hv, ha))))
    returned = time.perf_counter()
    assert exc.value is errors[failing[0]]  # the calling thread's, when both fail
    assert finished["calling"][0] == threading.get_ident()
    assert finished["worker"][0] == worker_thread()
    assert all(at <= returned for _, at in finished.values())


# a fork_join nested in a `there` that the calling thread's `here` waits to
# see start on the worker, on a thread joined with a timeout, in a child
# process: a worker waiting on itself could not be stopped, and would hold up
# the exit
NESTED_FORK_JOIN = """
import os, threading
import numpy as np
from avfusion import autodiff as ad

leaf = lambda: ad.Tensor(np.ones(2))
outcome = ["still waiting after 10 s"]
started = threading.Event()

def there():
    started.set()
    return ad.fork_join(leaf, leaf)[0]

def here():
    if not started.wait(timeout=10):
        raise RuntimeError("there did not start on the worker")
    return leaf()

def nested():
    ad.fork_join(there, here)
    outcome[0] = "returned"

caller = threading.Thread(target=nested, daemon=True)
caller.start()
caller.join(timeout=10)
print(outcome[0], flush=True)
if not caller.is_alive():
    print(ad.fork_join(leaf, leaf)[0].data.sum(), flush=True)  # the worker is free again
os._exit(0)
"""


def test_fork_join_called_from_its_worker_runs_both_inline():
    env = {"PATH": os.environ.get("PATH", ""),
           "PYTHONPATH": str(Path(ad.__file__).resolve().parent.parent)}
    done = subprocess.run([sys.executable, "-c", NESTED_FORK_JOIN], env=env,
                          capture_output=True, text=True, timeout=60, check=True)
    assert done.stdout.splitlines() == ["returned", "2.0"]


def test_backward_frees_a_two_thread_graph_and_keeps_only_leaf_grads(monkeypatch):
    leaves = branch_leaves()
    roots = []
    outputs = []  # every op output, recorded on either thread
    real = ad._record

    def record(*args, **kwargs):
        outputs.append(real(*args, **kwargs))
        return outputs[-1]

    monkeypatch.setattr(ad, "_record", record)

    def there():
        roots.append(branch(leaves["xv"], leaves["wv"]))
        return roots[0]

    hv, ha = ad.fork_join(there, lambda: branch(leaves["xa"], leaves["wa"]))
    loss = square_mean(ad.add(hv, ad.mul(hv, ha)))
    own, theirs = ad._build_tape(loss._node), ad._build_tape(roots[0]._node)
    assert len(own) == 7 and len(theirs) == 2  # the stand-in hv is one of own
    assert ({id(node) for node in own + theirs}
            == {id(t._node) for t in outputs} | {id(hv._node)})
    ad.backward(loss)
    for t in outputs + [hv]:
        assert t.grad is None
        assert t._node.parents == () and t._backward_rule is None
    for name in ("wa", "wv"):
        assert leaves[name].grad.any(), name
    with pytest.raises(RuntimeError, match="freed"):
        ad.backward(loss)
    # a calling-thread op output, the stand-in, a worker op output
    for t in (outputs[-2], hv, roots[0]):
        with pytest.raises(RuntimeError, match="freed"):
            ad.backward(ad.tmean(t))


# --- attention chunks shared with the worker ---


def attention_and_grads(q, k, v, g, num_heads, block_len):
    """Inference output, then the recorded output and the grads of q, k, v."""
    plain = ad.attention(ad.Tensor(q), ad.Tensor(k), ad.Tensor(v), num_heads, block_len)
    leaves = [ad.Tensor(x, requires_grad=True) for x in (q, k, v)]
    out = ad.attention(*leaves, num_heads, block_len)
    ad.backward(ad.tmean(ad.mul(out, ad.Tensor(g))))
    return [plain.data, out.data] + [leaf.grad for leaf in leaves]


# (blocks, block_len, heads, d_model): 5, 16, 20 and 33 head rows, in chunks of 8
@pytest.mark.parametrize("b,t,h,d", [(5, 7, 1, 3), (4, 6, 4, 8), (10, 3, 2, 4), (11, 5, 3, 6)])
def test_attention_is_bitwise_the_same_whichever_thread_runs_each_chunk(worker_helps, b, t, h, d):
    q, k, v, g = (rand((b * t, d), seed) for seed in range(90, 94))
    with worker_held_busy():  # the calling thread runs every chunk
        want = attention_and_grads(q, k, v, g, h, t)
    ran = worker_helps()
    got = attention_and_grads(q, k, v, g, h, t)
    for name, x, y in zip(("inference", "out", "dq", "dk", "dv"), got, want):
        np.testing.assert_array_equal(x, y, err_msg=name)
    chunks = -(-b * h // ad._ATTN_CHUNK)
    assert len(ran) == 3 * chunks  # two forwards and a backward, each chunk once
    threads = {threading.get_ident()} | ({worker_thread()} if chunks > 1 else set())
    assert set(ran) == threads


@pytest.mark.parametrize("failing", ["calling", "worker"])
def test_an_error_in_a_shared_item_propagates_unwrapped_once_no_item_runs(failing):
    me, error = threading.get_ident(), ProbeError(failing)
    both_started = threading.Barrier(2, timeout=10)
    finished = []

    def work(i):
        side = "calling" if threading.get_ident() == me else "worker"
        both_started.wait()  # each thread holds one item when the failing one raises
        if side == failing:
            raise error
        time.sleep(0.2)
        finished.append((i, time.perf_counter()))

    with pytest.raises(ProbeError) as exc:
        ad._share(6, work)
    returned = time.perf_counter()
    assert exc.value is error
    assert len(finished) == 1 and finished[0][1] <= returned  # neither took another item
    ran = []
    ad._share(3, ran.append)  # the next call still runs every item
    assert sorted(ran) == [0, 1, 2]


@pytest.fixture
def submitted(monkeypatch):
    """Every function submitted to ad._worker, which still runs them all."""
    worker, log = ad._worker, []

    class LoggedWorker:
        def submit(self, fn, *args):
            log.append(fn)
            return worker.submit(fn, *args)

    monkeypatch.setattr(ad, "_worker", LoggedWorker())
    return log


def test_a_one_chunk_attention_submits_nothing_to_the_worker(submitted):
    q, k, v, g = (rand((12, 4), seed) for seed in range(95, 99))
    attention_and_grads(q, k, v, g, 2, 3)  # 4 blocks x 2 heads: one chunk
    assert submitted == []
    attention_and_grads(q, k, v, g, 4, 2)  # 6 blocks x 4 heads: three chunks
    assert len(submitted) == 3  # one hand-off per forward and one for the backward


def test_attention_on_the_worker_runs_inline(submitted):
    q, k, v, g = (rand((30, 4), seed) for seed in range(95, 99))  # 20 head rows: 3 chunks
    want = attention_and_grads(q, k, v, g, 2, 3)
    submitted.clear()
    got = ad._worker.submit(attention_and_grads, q, k, v, g, 2, 3).result(timeout=30)
    assert submitted == [attention_and_grads]  # the job itself, and nothing from within
    for x, y in zip(got, want):
        np.testing.assert_array_equal(x, y)


def test_shared_items_each_run_once_when_many_threads_share_the_worker():
    ran = {caller: [] for caller in range(6)}  # more callers than cores

    def call(caller):
        for _ in range(20):
            ran[caller].clear()
            ad._share(50, ran[caller].append)
            assert sorted(ran[caller]) == list(range(50))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with futures.ThreadPoolExecutor(len(ran)) as pool:
            jobs = [pool.submit(call, caller) for caller in ran]
            for job in futures.as_completed(jobs, timeout=60):
                job.result()
    finally:
        sys.setswitchinterval(interval)


def _attention_training_step(q, k, v, g):
    leaves = [ad.Tensor(x, requires_grad=True) for x in (q, k, v)]
    ad.backward(ad.tmean(ad.mul(ad.attention(*leaves, 4, 5), ad.Tensor(g))))
    ad.adam_step(leaves, ad.AdamState.for_params(leaves), lr=0.1)
    return [leaf.data for leaf in leaves]


def test_a_training_step_with_shared_chunks_completes_in_a_forked_child():
    q, k, v, g = (rand((60, 8), seed) for seed in range(100, 104))  # 48 head rows: 6 chunks
    want = _attention_training_step(q, k, v, g)  # starts the worker thread
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:
        try:  # the alarm ends a child whose step would wait forever
            signal.alarm(20)
            got = _attention_training_step(q, k, v, g)
            same = all(np.array_equal(x, y) for x, y in zip(got, want))
            os.write(write_end, b"same" if same else b"differs")
        finally:
            os._exit(0)
    os.close(write_end)
    _, status = os.waitpid(pid, 0)
    with os.fdopen(read_end, "rb") as f:
        assert (f.read(), os.waitstatus_to_exitcode(status)) == (b"same", 0)


# --- adam ---


def test_adam_on_a_gradient_of_zeros_leaves_params_unchanged():
    p = ad.Tensor(rand((2, 3), 33), requires_grad=True)
    p.grad = np.zeros_like(p.data)
    before = p.data.copy()
    state = ad.AdamState.for_params([p])
    ad.adam_step([p], state, lr=0.1)
    np.testing.assert_array_equal(p.data, before)
    assert state.t == 1


def test_adam_first_step_bias_correction():
    # w=0, g=1, lr=0.1: corrected m-hat = v-hat = 1, so w moves to ~ -0.1
    p = ad.Tensor(0.0, requires_grad=True)
    p.grad = np.ones_like(p.data)
    state = ad.AdamState.for_params([p])
    ad.adam_step([p], state, lr=0.1)
    assert abs(float(p.data) - (-0.1)) < 1e-6


def test_adam_is_deterministic():
    def run():
        p = ad.Tensor(rand((3, 3), 34), requires_grad=True)
        state = ad.AdamState.for_params([p])
        for _ in range(5):
            p.grad = rand((3, 3), 35)  # adam_step drops the grad it read
            ad.adam_step([p], state, lr=0.01)
        return p.data

    np.testing.assert_array_equal(run(), run())


def test_adam_drops_each_grad_and_refuses_a_param_without_one():
    p = ad.Tensor(rand((2, 2), 38), requires_grad=True)
    q = ad.Tensor(rand((3,), 39), requires_grad=True)
    ad.backward(ad.add(ad.tmean(p), ad.tmean(q)))
    state = ad.AdamState.for_params([p, q])
    ad.adam_step([p, q], state, lr=0.1)
    assert p.grad is None and q.grad is None
    after = p.data.copy(), q.data.copy(), state.m[0].copy()
    # a second step without a backward in between is refused before any
    # update, even of a param that has a grad
    p.grad = np.ones_like(p.data)
    with pytest.raises(ValueError, match="no grad"):
        ad.adam_step([p, q], state, lr=0.1)
    assert state.t == 1
    for got, want in zip((p.data, q.data, state.m[0]), after):
        np.testing.assert_array_equal(got, want)


def test_adam_shape_mismatch_raises():
    # params that are not the ones their AdamState was made for
    p = ad.Tensor(rand((2, 2), 36), requires_grad=True)
    q = ad.Tensor(rand((3, 3), 37), requires_grad=True)
    state = ad.AdamState.for_params([p])
    for params in ([q], [p, q]):
        with pytest.raises(ad.ShapeError, match="^adam_step: incompatible shapes"):
            ad.adam_step(params, state, lr=0.1)
    assert state.t == 0 and not state.m[0].any()
