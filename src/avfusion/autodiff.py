"""Minimal dense-tensor reverse-mode autodiff on float64 numpy arrays.

Covers exactly the operations the fusion model needs: matmul, layer norm,
linear, equal-shape add, multiply (with scalar broadcast for the fusion
weights), relu, mean reduction and a blocked multi-head attention kernel,
plus a bias-corrected Adam step. Other modules record their own fused ops
through `_record` (the CCC training loss in `metrics` is one op).

The recorded graph keeps only what backward reads. Its edges join value-free
nodes, and each op's backward rule closes over exactly the arrays it reads:
matmul and mul keep each operand only when the other requires grad,
layer_norm keeps its normalized input, inverse deviation and gain, relu its
mask, attention its head-split inputs and softmax weights, and add, add_bias
and mean keep nothing. Any other op output's array is freed as soon as the
forward stops using it, so activation memory is set by what backward saves,
not by everything the forward computed. A leaf's grad exists only from the
`backward` that sets it to the `adam_step` that reads and drops it.

Every value-producing operation checks its output for NaN/Inf and raises
instead of propagating (pure data-movement ops skip the check; their inputs
were checked by their producers). `fork_join` records one branch of a graph
on the package's worker thread while the calling thread records the other,
and `backward` runs that branch's rules on the worker too, concurrently with
the calling thread's own. When the worker is idle it also takes head chunks
of the calling thread's `attention` calls, forward and backward (`_share`);
each chunk is the same numpy calls on the same slices whichever thread runs
it, so every result is bitwise that of one thread. Tensors are plain data and
safe to hand between threads.
"""

from __future__ import annotations

import math
import os
import threading
from concurrent import futures
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np


class ShapeError(ValueError):
    """Raised when operand shapes are incompatible."""


def _shape_err(op: str, *shapes) -> ShapeError:
    return ShapeError(f"{op}: incompatible shapes {' vs '.join(str(tuple(s)) for s in shapes)}")


def _check_finite(arr: np.ndarray, op: str) -> None:
    # single pass: any NaN/Inf survives the sum; only a non-finite sum (finite
    # values near the float64 limit can overflow) needs the elementwise test
    with np.errstate(over="ignore"):
        total = arr.sum()
    if not math.isfinite(float(total)) and not np.isfinite(arr).all():
        raise FloatingPointError(f"{op} produced non-finite values")


class Tensor:
    """Dense row-major float64 tensor: a value plus, for an op output, its
    node in the recorded graph.

    A requires_grad leaf has no grad until backward() sets d(loss)/d(leaf),
    and adam_step() drops it. A grad may be shared (`add` returns one `g` for
    both operands), so it must never be written in place. Operation outputs
    never hold a grad: their gradient is transient inside backward(). The
    graph holds no tensor and no value: an op output's `_node` holds its
    parents' nodes and its backward rule, and the rule holds only the arrays
    it reads. So an op output's array is freed as soon as the forward stops
    using it, unless a rule reads it; backward() drops each rule once it has
    run, which frees those arrays too.
    """

    __slots__ = ("data", "requires_grad", "grad", "_node")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = requires_grad
        self.grad: np.ndarray | None = None
        self._node: _Node | None = None

    @property
    def _backward_rule(self) -> Callable[[np.ndarray], tuple] | None:
        """The rule of the op that produced this tensor, None for a leaf or an
        output recorded without a graph. Reassigning it (to time or corrupt the
        rule) changes the rule that backward() runs."""
        return None if self._node is None else self._node.rule

    @_backward_rule.setter
    def _backward_rule(self, rule: Callable[[np.ndarray], tuple]) -> None:
        self._node.rule = rule


class _Node:
    """One recorded op: per operand, its node (an op output), the tensor
    itself (a grad-requiring leaf) or None (no gradient), plus the op's
    backward rule. backward() empties both once the rule has run, so a node
    with no rule belongs to a freed graph."""

    __slots__ = ("parents", "rule")

    def __init__(self, parents: tuple, rule: Callable[[np.ndarray], tuple]):
        self.parents = parents
        self.rule = rule


def _record(op: str, out_data: np.ndarray, parents: tuple[Tensor, ...],
            backward_rule: Callable[[np.ndarray], tuple[np.ndarray, ...]],
            check: bool = True) -> Tensor:
    if check:
        _check_finite(out_data, op)
    out = Tensor.__new__(Tensor)
    out.data = out_data
    out.grad = None
    edges = tuple(p._node or (p if p.requires_grad else None) for p in parents)
    out.requires_grad = any(e is not None for e in edges)
    # without a grad-requiring operand the rule is dropped here, and with it
    # every array it would have kept
    out._node = _Node(edges, backward_rule) if out.requires_grad else None
    return out


def _build_tape(root: _Node) -> list[_Node]:
    """Nodes of the subgraph below `root`, in topological order.

    A parentless node (a fork_join stand-in) goes directly below its lowest
    consumer, not where the traversal first reaches it: its rule hands its
    branch to the worker, which so starts as soon as the stand-in's gradient
    is complete. Having no parents, it can move there without reordering any
    other rule.
    """
    tape: list[_Node] = []
    placed: set[int] = set()
    # iterative postorder: children are appended before their consumer
    stack: list[tuple[_Node, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            for parent in node.parents:
                if type(parent) is _Node and not parent.parents and id(parent) not in placed:
                    placed.add(id(parent))
                    tape.append(parent)
            tape.append(node)
            continue
        if id(node) in placed:
            continue
        if node.rule is None:
            raise RuntimeError("backward through a graph already freed by an earlier "
                               "backward: rerun the forward")
        if not node.parents and node is not root:
            continue  # placed with its lowest consumer
        placed.add(id(node))
        stack.append((node, True))
        for parent in node.parents:
            if type(parent) is _Node and id(parent) not in placed:
                stack.append((parent, False))
    return tape


def _new_worker() -> None:
    # the package's one worker thread, which runs fork_join's `there` branch
    # forward and backward, and helps with attention chunks (`_share`) when
    # idle. The executor starts its thread on the first submit, not here; a
    # forked child gets a fresh one, as it has no copy of the parent's thread
    global _worker
    _worker = futures.ThreadPoolExecutor(1, thread_name_prefix="avfusion-worker")


_new_worker()
os.register_at_fork(after_in_child=_new_worker)


def fork_join(there: Callable[[], Tensor], here: Callable[[], Tensor]) -> tuple[Tensor, Tensor]:
    """(there(), here()), with `there` run on the worker thread while the
    calling thread runs `here`.

    Returns or raises only once both have finished; an error in either
    propagates unchanged (here's, if both fail). `backward` through there's
    tensor runs the rules of the subgraph below it on the worker, as soon as
    its gradient is complete and while the calling thread runs its remaining
    rules. Each gradient then sums its terms in one-thread order, so every
    result is bitwise that of a one-thread pass, provided the rest of the
    graph reaches the subgraph below there's tensor only through that tensor
    and shares no grad-requiring leaf with it (the model's two encoder
    branches meet only at the cross-modal fusion). Called from `there`, it
    raises RuntimeError: the one worker would wait on itself.

    The worker runs one job at a time. Outside `there` and its backward, an
    idle worker also takes `attention` head chunks (see `_share`); `here`'s
    attention calls never wait for `there`, and `there`'s run on the worker
    alone.
    """
    if threading.current_thread().name.startswith("avfusion-worker"):
        raise RuntimeError("fork_join called on its own worker thread, which would wait on itself")
    job = _worker.submit(there)
    try:
        mine = here()
    finally:
        futures.wait((job,))
    theirs = job.result()
    root = theirs._node
    if root is None:
        return theirs, mine
    # a parentless stand-in for theirs, built without _record so the graph
    # gains no op: its rule hands root's subgraph to the worker, building the
    # sub-tape first so that the job holds no more than the ops left to run
    handoff = Tensor.__new__(Tensor)
    handoff.data, handoff.requires_grad, handoff.grad = theirs.data, True, None
    handoff._node = _Node((), lambda g: _worker.submit(
        _run_rules, _build_tape(root), {root: g}, []))
    return handoff, mine


def _share(n: int, work: Callable[[int], None]) -> None:
    """Run work(i) for each i in range(n), on the calling thread and, while it
    is idle, the worker: each takes the next i until none is left.

    Returns or raises only once no work(i) is running; an error in one stops
    both from taking more and propagates unchanged (the calling thread's, if
    both fail). The caller never waits for the worker's earlier jobs: if the
    worker has not started helping when the caller runs out of work, the help
    is cancelled. With one item, or on the worker itself, work runs inline and
    nothing is submitted.
    """
    if n <= 1 or threading.current_thread().name.startswith("avfusion-worker"):
        for i in range(n):
            work(i)
        return
    lock = threading.Lock()
    next_i = 0

    def take() -> None:
        nonlocal next_i, work
        while True:
            with lock:
                i, fn = next_i, work
                if fn is None or i == n:
                    return
                next_i = i + 1
            try:
                fn(i)
            except BaseException:
                work = None  # neither thread takes another i
                raise

    job = _worker.submit(take)
    try:
        take()
    finally:
        if not job.cancel():
            futures.wait((job,))
        # a cancelled job stays queued until the worker reaches it; it must
        # not keep work, and with it the arrays work writes, alive till then
        work = None
    if not job.cancelled():
        job.result()


def _run_rules(tape: list[_Node], grads: dict, jobs: list[futures.Future]) -> None:
    """Run the rules of `tape`, last first, summing gradients in `grads`, keyed
    by op node or leaf tensor; a fork_join stand-in's rule adds its worker job
    to `jobs`. Once the tape is empty every entry left is a leaf's `.grad`. On
    the worker the tape is one fork_join branch, whose leaves the calling
    thread never touches."""
    while tape:
        # popping drops the tape's reference; every consumer of `node` ran
        # before it, so once its rule has run nothing in the graph holds it
        node = tape.pop()
        parents, rule = node.parents, node.rule
        node.parents, node.rule = (), None
        pgs = rule(grads.pop(node))
        if isinstance(pgs, futures.Future):
            jobs.append(pgs)
            continue
        for parent, pg in zip(parents, pgs):
            if pg is None or parent is None:
                continue
            acc = grads.get(parent)
            # rules may return views of g; never mutate, always reallocate
            grads[parent] = pg if acc is None else acc + pg
    for leaf, grad in grads.items():
        leaf.grad = grad


def backward(loss: Tensor) -> None:
    """Set each grad-requiring leaf's `.grad` to d(loss)/d(leaf), replacing any it held.

    `loss` must be a scalar produced by recorded operations. The pass frees
    the graph as it goes, so a second backward on the same tensor, or on a
    new graph built on its op outputs, is an error (rerun the forward instead).

    The rules of a branch recorded by `fork_join` run on the worker thread
    (see there); every other rule runs on the calling thread, whichever
    thread recorded it. The call returns or raises only once the worker has
    finished too; a rule's error propagates unchanged (the calling thread's,
    if both fail).
    """
    if loss.data.ndim != 0:
        raise ValueError(f"backward requires a scalar loss, got shape {loss.data.shape}")
    root = loss._node
    if root is None:
        raise RuntimeError("backward on empty tape: loss was not produced by recorded ops")
    tape = _build_tape(root)
    jobs: list[futures.Future] = []
    try:
        _run_rules(tape, {root: np.ones_like(loss.data)}, jobs)
    finally:
        futures.wait(jobs)
    for job in jobs:
        job.result()


# ---------------------------------------------------------------------------
# operations


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product of two rank-2 tensors."""
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
        raise _shape_err("matmul", a.data.shape, b.data.shape)
    out = a.data @ b.data
    # each operand's gradient reads the other operand; a data input
    # (requires_grad=False) gets no gradient product, so its partner is not kept
    a_data = a.data if b.requires_grad else None
    b_data = b.data if a.requires_grad else None

    def bw(g: np.ndarray):
        return (None if b_data is None else g @ b_data.T,
                None if a_data is None else a_data.T @ g)

    return _record("matmul", out, (a, b), bw)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Per-row normalization with biased variance: (x-mu)/sqrt(var+1e-5)*gain + bias."""
    if x.data.ndim != 2 or gain.data.shape != (x.data.shape[1],) or bias.data.shape != (x.data.shape[1],):
        raise _shape_err("layer_norm", x.data.shape, gain.data.shape, bias.data.shape)
    mu = np.mean(x.data, axis=1, keepdims=True)
    xhat = x.data - mu
    var = np.mean(xhat * xhat, axis=1, keepdims=True)
    inv = 1.0 / np.sqrt(var + 1e-5)
    xhat *= inv
    gain_data = gain.data
    out = xhat * gain_data
    out += bias.data

    def bw(g: np.ndarray):
        dgain = np.sum(g * xhat, axis=0)
        dbias = np.sum(g, axis=0)
        dx = g * gain_data
        dx -= np.mean(dx, axis=1, keepdims=True)
        dx -= xhat * np.mean((g * gain_data) * xhat, axis=1, keepdims=True)
        dx *= inv
        return dx, dgain, dbias

    return _record("layer_norm", out, (x, gain, bias), bw)


def add_bias(x: Tensor, b: Tensor) -> Tensor:
    """Row-wise bias add, the only broadcasting form supported."""
    if x.data.ndim != 2 or b.data.shape != (x.data.shape[1],):
        raise _shape_err("add_bias", x.data.shape, b.data.shape)
    return _record("add_bias", x.data + b.data, (x, b), lambda g: (g, np.sum(g, axis=0)))


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w + b with b broadcast over rows."""
    return add_bias(matmul(x, w), b)


def _reduce_to(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    # scalar operand in a broadcast op collects the summed gradient
    if shape == ():
        return np.asarray(np.sum(g))
    return g


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum of two tensors of equal shape."""
    if a.data.shape != b.data.shape:
        raise _shape_err("add", a.data.shape, b.data.shape)
    return _record("add", a.data + b.data, (a, b), lambda g: (g, g))


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Hadamard product; either operand may be a scalar tensor."""
    if a.data.shape != b.data.shape and a.data.ndim != 0 and b.data.ndim != 0:
        raise _shape_err("mul", a.data.shape, b.data.shape)
    # as in matmul, each operand's gradient reads the other operand
    a_data = a.data if b.requires_grad else None
    b_data = b.data if a.requires_grad else None
    shape_a, shape_b = a.data.shape, b.data.shape
    return _record("mul", a.data * b.data, (a, b),
                   lambda g: (None if b_data is None else _reduce_to(g * b_data, shape_a),
                              None if a_data is None else _reduce_to(g * a_data, shape_b)))


def relu(x: Tensor) -> Tensor:
    mask = x.data > 0.0  # subgradient at 0 is 0
    return _record("relu", x.data * mask, (x,), lambda g: (g * mask,), check=False)


def tmean(x: Tensor) -> Tensor:
    """Mean of all elements, as a scalar tensor."""
    shape = x.data.shape
    n = x.data.size
    return _record("mean", np.asarray(np.mean(x.data)), (x,),
                   lambda g: (np.full(shape, float(g) / n),))


# ---------------------------------------------------------------------------
# blocked multi-head attention kernel
#
# Sequences are stored 2-D as [(B*T) x d]: B independent blocks (batch items)
# of T frames. Heads split the feature axis. The whole
# scores -> softmax-over-keys -> weighted-value-sum chain runs as one recorded
# op so the [B*H, T, T] intermediates stay in place; the backward rule is the
# analytic composition of the three stages (validated against finite
# differences by the gradient self-check).


def _split_heads(x: np.ndarray, b: int, t: int, h: int, dh: int) -> np.ndarray:
    # [(B*T) x (H*dh)] -> [(B*H) x T x dh]
    return x.reshape(b, t, h, dh).transpose(0, 2, 1, 3).reshape(b * h, t, dh)


def _merge_heads(x: np.ndarray, b: int, t: int, h: int, dh: int) -> np.ndarray:
    # [(B*H) x T x dh] -> [(B*T) x (H*dh)]
    return x.reshape(b, h, t, dh).transpose(0, 2, 1, 3).reshape(b * t, h * dh)


# score buffers are processed in head chunks small enough to stay cache
# resident, and the chunks are shared with the idle worker. At B16 T100 H4
# d_model 32 (2-core box, one BLAS thread, worker idle), fwd+bwd took
# 9.2-10.5 ms with chunks of 8 over 4 alternating rounds, 9.8-11.3 with 4,
# 9.5-11.1 with 16 and 19-21 with 64 (one chunk, so one thread); the
# inference forward, which keeps no weights, took 3.8-4.5 ms with 8,
# 4.4-5.4 with 4 or 16 and 6.4-7.6 with 64. Recomputing the weights in the
# backward instead of keeping them took 16-21 ms at every size, measured
# before the sharing.
_ATTN_CHUNK = 8


def _chunk_softmax(q3c: np.ndarray, k3c: np.ndarray) -> np.ndarray:
    # q3c carries the 1/sqrt(d_h) factor; max subtraction is mandatory
    s = q3c @ k3c.transpose(0, 2, 1)
    s -= np.max(s, axis=2, keepdims=True)
    np.exp(s, out=s)
    s /= np.sum(s, axis=2, keepdims=True)
    return s


def attention(q: Tensor, k: Tensor, v: Tensor, num_heads: int, block_len: int) -> Tensor:
    """Blocked multi-head scaled dot-product attention.

    q, k, v: [(B*T) x d] with T = block_len. Per block and head:
    softmax(q_h k_h^T / sqrt(d_h), over the key axis) @ v_h, with the usual
    max subtraction inside the softmax; head outputs are re-concatenated.
    Chunking over heads never changes results (blocks are independent), and
    neither does the thread that runs a chunk: the forward and the backward
    rule each hand their chunks to `_share`, so an idle worker takes some.

    When any of q, k, v requires grad, the forward keeps each chunk's softmax
    weights ([B*H, T, T] in all) and the backward rule reads them, with its
    head-split q3, k3, v3, not q, k, v (with one head, k3 and v3 are views of
    k and v, so keeping them costs no more). A forward with no grad-requiring
    input keeps no weights, so inference holds at most one chunk's per thread
    that runs chunks: two at a time.
    """
    if not (q.data.shape == k.data.shape == v.data.shape) or q.data.ndim != 2:
        raise _shape_err("attention", q.data.shape, k.data.shape, v.data.shape)
    rows, d = q.data.shape
    if rows % block_len != 0:
        raise ShapeError(f"attention: rows {rows} not divisible by block_len {block_len}")
    if d % num_heads != 0:
        raise ShapeError(f"attention: width {d} not divisible by num_heads {num_heads}")
    b, dh = rows // block_len, d // num_heads
    bh, t = b * num_heads, block_len
    c = 1.0 / np.sqrt(dh)
    q3 = _split_heads(q.data, b, t, num_heads, dh) * c
    k3 = _split_heads(k.data, b, t, num_heads, dh)
    v3 = _split_heads(v.data, b, t, num_heads, dh)
    out3 = np.empty_like(v3)
    los = range(0, bh, _ATTN_CHUNK)
    keep = q.requires_grad or k.requires_grad or v.requires_grad
    weights = [None] * len(los) if keep else None  # each chunk's softmax weights, for bw

    def forward_chunk(i: int) -> None:
        lo = los[i]
        hi = min(lo + _ATTN_CHUNK, bh)
        w = _chunk_softmax(q3[lo:hi], k3[lo:hi])
        out3[lo:hi] = w @ v3[lo:hi]
        if weights is not None:
            weights[i] = w

    _share(len(los), forward_chunk)
    out = _merge_heads(out3, b, t, num_heads, dh)

    def bw(g: np.ndarray):
        g3 = _split_heads(g, b, t, num_heads, dh)
        dq3 = np.empty_like(q3)
        dk3 = np.empty_like(k3)
        dv3 = np.empty_like(v3)

        def backward_chunk(i: int) -> None:
            lo, w = los[i], weights[i]
            hi = min(lo + _ATTN_CHUNK, bh)
            gc = g3[lo:hi]
            dv3[lo:hi] = w.transpose(0, 2, 1) @ gc
            ds = gc @ v3[lo:hi].transpose(0, 2, 1)
            ds -= np.sum(ds * w, axis=2, keepdims=True)
            ds *= w
            dq3[lo:hi] = ds @ k3[lo:hi]
            dk3[lo:hi] = ds.transpose(0, 2, 1) @ q3[lo:hi]  # q3 carries 1/sqrt(d_h)

        _share(len(los), backward_chunk)
        dq3 *= c
        return (_merge_heads(dq3, b, t, num_heads, dh),
                _merge_heads(dk3, b, t, num_heads, dh),
                _merge_heads(dv3, b, t, num_heads, dh))

    return _record("attention", out, (q, k, v), bw)


# ---------------------------------------------------------------------------
# Adam

ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


@dataclass
class AdamState:
    """First/second moment buffers and step counter for a fixed parameter list."""

    m: list[np.ndarray]
    v: list[np.ndarray]
    t: int = 0

    @classmethod
    def for_params(cls, params: Sequence[Tensor]) -> "AdamState":
        return cls(m=[np.zeros_like(p.data) for p in params],
                   v=[np.zeros_like(p.data) for p in params])


def adam_step(params: Sequence[Tensor], state: AdamState, lr: float) -> None:
    """Bias-corrected Adam update from each param's grad, in place; drops the grads it read."""
    if lr <= 0:
        raise ValueError("adam_step lr must be > 0")
    if len(params) != len(state.m) or any(p.data.shape != m.shape
                                          for p, m in zip(params, state.m)):
        raise _shape_err("adam_step", [p.data.shape for p in params], [m.shape for m in state.m])
    if any(p.grad is None for p in params):
        raise ValueError("adam_step: a param has no grad (run backward before each step)")
    state.t += 1
    c1 = 1.0 - ADAM_BETA1 ** state.t
    c2 = 1.0 - ADAM_BETA2 ** state.t
    for p, m, v in zip(params, state.m, state.v):
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * p.grad
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * (p.grad * p.grad)
        p.data -= lr * (m / c1) / (np.sqrt(v / c2) + ADAM_EPS)
        p.grad = None
