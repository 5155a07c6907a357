"""Minimal dense-tensor reverse-mode autodiff on float64 numpy arrays.

Covers exactly the operations the fusion model needs: matmul, layer norm,
linear, equal-shape add, multiply (with scalar broadcast for the fusion
weights), relu, mean reduction and a blocked multi-head attention kernel,
plus a bias-corrected Adam step. Other modules record their own fused ops
through `_record` (the CCC training loss in `metrics` is one op).

Every value-producing operation checks its output for NaN/Inf and raises
instead of propagating (pure data-movement ops skip the check; their inputs
were checked by their producers). `fork_join` records one branch of a graph
on the package's worker thread while the calling thread records the other,
and `backward` runs that branch's rules on the worker too, concurrently with
the calling thread's own. Tensors are plain data and safe to hand between
threads.
"""

from __future__ import annotations

import math
import os
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
    """Dense row-major float64 tensor; participates in the recorded graph.

    Leaf tensors created with requires_grad=True own a zeroed grad buffer that
    backward() accumulates into. Operation outputs never hold a grad: their
    gradient is transient inside backward(), which also drops each output's
    parents and backward rule once the rule has run, so forward activations
    are freed as the pass goes.
    """

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward_rule", "_backward_done")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = requires_grad
        self.grad = np.zeros_like(self.data) if requires_grad else None
        self._parents: tuple[Tensor, ...] = ()
        self._backward_rule: Callable[[np.ndarray], tuple[np.ndarray, ...]] | None = None
        self._backward_done = False

    def zero_grad(self) -> None:
        if self.grad is not None:
            self.grad[...] = 0.0


def _record(op: str, out_data: np.ndarray, parents: tuple[Tensor, ...],
            backward_rule: Callable[[np.ndarray], tuple[np.ndarray, ...]],
            check: bool = True) -> Tensor:
    if check:
        _check_finite(out_data, op)
    out = Tensor.__new__(Tensor)
    out.data = out_data
    out.grad = None
    out._backward_done = False
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
        out._backward_rule = backward_rule
    else:
        out.requires_grad = False
        out._parents = ()
        out._backward_rule = None
    return out


def _build_tape(root: Tensor) -> list[Tensor]:
    """Op outputs of the grad-requiring subgraph below `root`, in topological order."""
    tape: list[Tensor] = []
    visited: set[int] = set()
    # iterative postorder: children are appended before their consumer
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if id(node) in visited:
            continue
        if expanded:
            visited.add(id(node))
            if node._backward_rule is not None:
                tape.append(node)
            elif node._backward_done:
                raise RuntimeError("backward through a graph already freed by an earlier "
                                   "backward: rerun the forward")
            continue
        stack.append((node, True))
        for parent in node._parents:
            if parent.requires_grad and id(parent) not in visited:
                stack.append((parent, False))
    return tape


def _new_worker() -> None:
    # the package's one worker thread, which runs fork_join's `there` branch
    # forward and backward. The executor starts its thread on the first
    # submit, not here; a forked child gets a fresh one, as it has no copy of
    # the parent's thread
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
    branches meet only at the cross-modal fusion). `there` must not call
    fork_join itself.
    """
    job = _worker.submit(there)
    try:
        mine = here()
    finally:
        futures.wait((job,))
    root = job.result()
    if root._backward_rule is None:
        return root, mine
    # a parentless stand-in for root, built without _record so the graph
    # gains no op: its rule hands root's subgraph to the worker, building the
    # sub-tape first so that the job holds no more than the ops left to run
    handoff = Tensor.__new__(Tensor)
    handoff.data, handoff.requires_grad, handoff.grad = root.data, True, None
    handoff._parents, handoff._backward_done = (), False
    handoff._backward_rule = lambda g: _worker.submit(
        _run_rules, _build_tape(root), {id(root): g}, [])
    return handoff, mine


def _run_rules(tape: list[Tensor], grads: dict[int, np.ndarray],
               jobs: list[futures.Future]) -> None:
    """Run the rules of `tape`, last first, accumulating into `grads` and leaf
    grads; a fork_join stand-in's rule adds its worker job to `jobs`."""
    while tape:
        # popping drops the tape's reference; every consumer of `node` ran
        # before it, so once its rule has run nothing in the graph holds it
        node = tape.pop()
        parents, rule = node._parents, node._backward_rule
        node._parents, node._backward_rule, node._backward_done = (), None, True
        pgs = rule(grads.pop(id(node)))
        if isinstance(pgs, futures.Future):
            jobs.append(pgs)
            continue
        for parent, pg in zip(parents, pgs):
            if pg is None or not parent.requires_grad:
                continue
            if parent._backward_rule is None:
                if parent.grad is None:
                    parent.grad = np.zeros_like(parent.data)
                parent.grad += pg
            else:
                acc = grads.get(id(parent))
                # rules may return views of g; never mutate, always reallocate
                grads[id(parent)] = pg if acc is None else acc + pg


def backward(loss: Tensor) -> None:
    """Reverse-mode accumulation of d(loss)/d(leaf) into leaf `.grad` buffers.

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
    if loss._backward_done:
        raise RuntimeError("backward called twice on the same graph without reset")
    tape = _build_tape(loss)
    if not tape:
        raise RuntimeError("backward on empty tape: loss was not produced by recorded ops")
    # transient grads for op outputs; leaves accumulate into their own buffers
    jobs: list[futures.Future] = []
    try:
        _run_rules(tape, {id(loss): np.ones_like(loss.data)}, jobs)
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

    def bw(g: np.ndarray):
        # a data input (requires_grad=False) gets no gradient product
        return (g @ b.data.T if a.requires_grad else None,
                a.data.T @ g if b.requires_grad else None)

    return _record("matmul", out, (a, b), bw)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Per-row normalization with biased variance: (x-mu)/sqrt(var+eps)*gain + bias."""
    if eps <= 0:
        raise ValueError("layer_norm eps must be > 0")
    if x.data.ndim != 2 or gain.data.shape != (x.data.shape[1],) or bias.data.shape != (x.data.shape[1],):
        raise _shape_err("layer_norm", x.data.shape, gain.data.shape, bias.data.shape)
    mu = np.mean(x.data, axis=1, keepdims=True)
    xhat = x.data - mu
    var = np.mean(xhat * xhat, axis=1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat *= inv
    out = xhat * gain.data
    out += bias.data

    def bw(g: np.ndarray):
        dgain = np.sum(g * xhat, axis=0)
        dbias = np.sum(g, axis=0)
        dx = g * gain.data
        dx -= np.mean(dx, axis=1, keepdims=True)
        dx -= xhat * np.mean((g * gain.data) * xhat, axis=1, keepdims=True)
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
    return _record("mul", a.data * b.data, (a, b),
                   lambda g: (_reduce_to(g * b.data, a.data.shape),
                              _reduce_to(g * a.data, b.data.shape)))


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


def _block_dims(op: str, rows: int, d: int, num_heads: int, block_len: int) -> tuple[int, int]:
    if rows % block_len != 0:
        raise _shape_err(f"{op}: rows {rows} not divisible by block_len {block_len}", (rows, d))
    if d % num_heads != 0:
        raise _shape_err(f"{op}: width {d} not divisible by num_heads {num_heads}", (rows, d))
    return rows // block_len, d // num_heads


# score buffers are processed in head chunks small enough to stay cache
# resident: at B16 T100 H4 d_model 32, fwd+bwd took 12-14 ms with chunks of
# 4 or 8, 14 with 16 and 16 with 64 (2-core box, 32 MiB mmap threshold).
# The backward pass recomputes each chunk's softmax weights instead of
# keeping all [B*H, T, T] of them from the forward. That is not the faster
# kernel: keeping them (5 MB at those dims) took 10-11 ms fwd+bwd against
# 13-14, with bitwise-equal grads, and a study-full one-step training call
# 150-158 ms against 167-179. Recomputing keeps the inference forward free
# of weights it would never read: keeping them there too slowed a batch-16
# inference forward from 43-58 to 53-63 ms. Keeping them only when an input
# requires grad would take both gains, and is not done yet.
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
    Chunking over heads never changes results (blocks are independent).
    """
    if not (q.data.shape == k.data.shape == v.data.shape) or q.data.ndim != 2:
        raise _shape_err("attention", q.data.shape, k.data.shape, v.data.shape)
    rows, d = q.data.shape
    b, dh = _block_dims("attention", rows, d, num_heads, block_len)
    bh, t = b * num_heads, block_len
    c = 1.0 / np.sqrt(dh)
    q3 = _split_heads(q.data, b, t, num_heads, dh) * c
    k3 = _split_heads(k.data, b, t, num_heads, dh)
    v3 = _split_heads(v.data, b, t, num_heads, dh)
    out3 = np.empty_like(v3)
    for lo in range(0, bh, _ATTN_CHUNK):
        hi = min(lo + _ATTN_CHUNK, bh)
        out3[lo:hi] = _chunk_softmax(q3[lo:hi], k3[lo:hi]) @ v3[lo:hi]
    out = _merge_heads(out3, b, t, num_heads, dh)

    def bw(g: np.ndarray):
        g3 = _split_heads(g, b, t, num_heads, dh)
        dq3 = np.empty_like(q3)
        dk3 = np.empty_like(k3)
        dv3 = np.empty_like(v3)
        for lo in range(0, bh, _ATTN_CHUNK):
            hi = min(lo + _ATTN_CHUNK, bh)
            w = _chunk_softmax(q3[lo:hi], k3[lo:hi])  # bitwise equal to forward
            gc = g3[lo:hi]
            dv3[lo:hi] = w.transpose(0, 2, 1) @ gc
            ds = gc @ v3[lo:hi].transpose(0, 2, 1)
            ds -= np.sum(ds * w, axis=2, keepdims=True)
            ds *= w
            dq3[lo:hi] = ds @ k3[lo:hi]
            dk3[lo:hi] = ds.transpose(0, 2, 1) @ q3[lo:hi]  # q3 carries 1/sqrt(d_h)
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


def adam_step(params: Sequence[Tensor], grads: Sequence[np.ndarray], state: AdamState,
              lr: float) -> None:
    """Bias-corrected Adam update, in place on `params` and `state`."""
    if lr <= 0:
        raise ValueError("adam_step lr must be > 0")
    if len(params) != len(grads) or len(params) != len(state.m):
        raise _shape_err("adam_step", (len(params),), (len(grads),), (len(state.m),))
    for p, g, m in zip(params, grads, state.m):
        if p.data.shape != g.shape or p.data.shape != m.shape:
            raise _shape_err("adam_step", p.data.shape, g.shape, m.shape)
    state.t += 1
    c1 = 1.0 - ADAM_BETA1 ** state.t
    c2 = 1.0 - ADAM_BETA2 ** state.t
    for p, g, m, v in zip(params, grads, state.m, state.v):
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * (g * g)
        p.data -= lr * (m / c1) / (np.sqrt(v / c2) + ADAM_EPS)
