"""Dense tensors with tape-based reverse-mode autodiff and gradient
checkpointing.

Everything downstream (samplers, encoders, reward losses) is built from the
ops in this module. Ops execute eagerly on numpy arrays and, while a Tape is
active, append nodes carrying exactly the values their backward rules need.
Backward walks the tape in strict reverse creation order, so two runs over
the same graph accumulate gradients in the same order and produce
bit-identical results.

Checkpoint segments keep memory flat on long denoising chains: at record
time a segment's interior nodes are discarded and replaced by one node
holding only the boundary tensors; during backward the segment function is
replayed to rebuild the interior, which must reproduce the recorded op count
exactly. Because the replay performs the identical arithmetic in the
identical order, checkpointed gradients are bit-for-bit equal to
un-checkpointed ones.

Reductions (sum, mean, dot, matmul) accumulate in float64 and round back to
the working dtype. The working dtype is float32 by default; tests that
compare against central finite differences run under ``default_dtype
(np.float64)`` so the difference quotient is not drowned by rounding noise.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import threading

import numpy as np

__all__ = [
    "AutodiffError",
    "Tensor",
    "Tape",
    "TapeNode",
    "SegmentNode",
    "backward",
    "checkpoint_segment",
    "finite_diff_grad",
    "pause_recording",
    "default_dtype",
    "get_default_dtype",
    "debug_checks",
    "add",
    "sub",
    "mul",
    "div",
    "neg",
    "matmul",
    "dot",
    "concat",
    "stack",
    "slice1d",
    "row",
    "tensor_sum",
    "tensor_mean",
    "tanh",
    "silu",
    "exp",
    "log",
    "sqrt",
    "norm",
    "cosine_similarity",
    "squared_error",
    "time_embedding",
]

_ID_COUNTER = itertools.count(1)


class _ThreadState(threading.local):
    def __init__(self):
        self.tape_stack = []
        self.dtype = np.dtype(np.float32)
        self.debug = False


_STATE = _ThreadState()


class AutodiffError(RuntimeError):
    """Malformed backward pass, non-finite value in debug mode, or a
    checkpoint-segment contract violation."""


@contextlib.contextmanager
def debug_checks():
    """Enable NaN/Inf trapping on op outputs and gradients inside the block."""
    old = _STATE.debug
    _STATE.debug = True
    try:
        yield
    finally:
        _STATE.debug = old


def get_default_dtype():
    return _STATE.dtype


@contextlib.contextmanager
def default_dtype(dtype):
    """Temporarily switch the working dtype (float32 by default).

    A tape must be built and differentiated under a single dtype setting.
    """
    old = _STATE.dtype
    _STATE.dtype = np.dtype(dtype)
    try:
        yield
    finally:
        _STATE.dtype = old


def _active_tape():
    stack = _STATE.tape_stack
    return stack[-1] if stack else None


@contextlib.contextmanager
def pause_recording():
    """Evaluate ops inside the block without recording them (detached)."""
    _STATE.tape_stack.append(None)
    try:
        yield
    finally:
        _STATE.tape_stack.pop()


class Tensor:
    """Immutable dense array plus autodiff metadata.

    The value buffer is frozen after construction; only ``grad`` is written
    later (by ``backward``). Updates during training therefore replace
    Tensors instead of mutating them.
    """

    __slots__ = ("data", "requires_grad", "grad", "id", "_needs", "_from_op", "_boundary")

    def __init__(self, data, requires_grad=False):
        arr = np.array(data, dtype=_STATE.dtype)
        if _STATE.debug and not np.all(np.isfinite(arr)):
            raise AutodiffError("non-finite value in tensor construction")
        arr.flags.writeable = False
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self.id = next(_ID_COUNTER)
        self._needs = self.requires_grad
        self._from_op = False
        self._boundary = False

    @classmethod
    def _wrap(cls, arr, needs):
        t = cls.__new__(cls)
        arr = np.asarray(arr)
        if arr.dtype != _STATE.dtype:
            arr = arr.astype(_STATE.dtype)
        if _STATE.debug and not np.all(np.isfinite(arr)):
            raise AutodiffError("non-finite value in op output")
        arr.flags.writeable = False
        t.data = arr
        t.requires_grad = False
        t.grad = None
        t.id = next(_ID_COUNTER)
        t._needs = needs
        t._from_op = True
        t._boundary = False
        return t

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    def item(self):
        return float(self.data)

    def detach(self):
        """A constant copy carrying the same values and no grad path."""
        return Tensor(self.data)

    def __repr__(self):
        return f"Tensor(id={self.id}, shape={self.data.shape}, requires_grad={self.requires_grad})"

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, other)

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)

    def sum(self):
        return tensor_sum(self)

    def mean(self):
        return tensor_mean(self)


class TapeNode:
    """One recorded op: kind tag, operand ids, and the saved forward values
    its backward rule needs."""

    __slots__ = ("op", "input_ids", "out_id", "saved", "ctx", "bw")

    def __init__(self, op, input_ids, out_id, saved, ctx, bw):
        self.op = op
        self.input_ids = input_ids
        self.out_id = out_id
        self.saved = saved
        self.ctx = ctx
        self.bw = bw


class SegmentNode:
    """Placeholder for a checkpointed segment: keeps boundary tensors and the
    segment function, never interior activations."""

    __slots__ = ("op", "fn", "inputs", "out_ids", "recorded_len")

    def __init__(self, fn, inputs, out_ids, recorded_len):
        self.op = "segment"
        self.fn = fn
        self.inputs = inputs
        self.out_ids = out_ids
        self.recorded_len = recorded_len


class TapeStats:
    """Counts op-produced tensors currently retained for backward.

    Boundary tensors of checkpoint segments and leaf parameters are excluded,
    so ``peak_live_interior`` measures exactly the quantity the checkpointing
    memory bound is stated in: interior activations alive at once.
    """

    __slots__ = ("_refs", "live_interior", "peak_live_interior")

    def __init__(self):
        self._refs = {}
        self.live_interior = 0
        self.peak_live_interior = 0

    def note(self, tensors):
        for t in tensors:
            if not t._from_op or t._boundary:
                continue
            n = self._refs.get(t.id, 0)
            self._refs[t.id] = n + 1
            if n == 0:
                self.live_interior += 1
        if self.live_interior > self.peak_live_interior:
            self.peak_live_interior = self.live_interior

    def release(self, tensors):
        for t in tensors:
            if not t._from_op or t._boundary:
                continue
            n = self._refs.get(t.id)
            if n is None:
                continue
            if n == 1:
                del self._refs[t.id]
                self.live_interior -= 1
            else:
                self._refs[t.id] = n - 1


class Tape:
    """Append-only op record for one forward evaluation.

    Use as a context manager; ops executed inside record themselves. A tape
    is single-threaded; independent tapes may live on separate threads.
    """

    def __init__(self):
        self.nodes = []
        self._leaves = {}
        self._target = self.nodes
        self._guard = None  # (allowed boundary ids, id watermark) inside a segment
        self._used = False
        self.stats = TapeStats()
        self.grad_taps = None

    def __enter__(self):
        _STATE.tape_stack.append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        popped = _STATE.tape_stack.pop()
        assert popped is self
        return False

    def __len__(self):
        return len(self.nodes)

    def _check_guard(self, op, inputs):
        if self._guard is None:
            return
        allowed, watermark = self._guard
        for t in inputs:
            if t.id not in allowed and t.id <= watermark:
                raise AutodiffError(
                    f"op '{op}' touches tensor id={t.id} that is not a declared "
                    "boundary input of the enclosing checkpoint segment"
                )

    def _record(self, op, inputs, out, saved, ctx, bw):
        self._check_guard(op, inputs)
        if not any(t._needs for t in inputs):
            return out
        out._needs = True
        for t in inputs:
            if t.requires_grad and not t._from_op:
                self._leaves.setdefault(t.id, t)
        node = TapeNode(op, tuple(t.id for t in inputs), out.id, saved, ctx, bw)
        self._target.append(node)
        self.stats.note(saved)
        return out

    @contextlib.contextmanager
    def _capture(self, scratch, boundary_ids, watermark):
        old_target, old_guard = self._target, self._guard
        self._target = scratch
        self._guard = (boundary_ids, watermark)
        try:
            yield
        finally:
            self._target = old_target
            self._guard = old_guard


def _trace(op, inputs, out_arr, saved, ctx, bw, save_out=False):
    """Wrap an op's output and record it on the active tape. ``save_out``
    appends the output itself to ``saved``, for backward rules that use it."""
    needs = any(t._needs for t in inputs)
    out = Tensor._wrap(out_arr, needs and _active_tape() is not None)
    tape = _active_tape()
    if tape is not None:
        if save_out:
            saved = saved + (out,)
        tape._record(op, inputs, out, saved, ctx, bw)
    return out


def _as_tensor(x):
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x))


def _check_same_shape(op, a, b):
    if a.data.shape != b.data.shape:
        raise ValueError(f"{op}: shape mismatch {a.data.shape} vs {b.data.shape}")


# ---------------------------------------------------------------------------
# primitive ops


def _bw_add(g, saved, ctx):
    return g, g


def _bw_add_scalar(g, saved, ctx):
    return (g,)


def add(a, b):
    if isinstance(b, (int, float)) or (isinstance(b, np.ndarray) and b.ndim == 0):
        a = _as_tensor(a)
        out = a.data + _STATE.dtype.type(b)
        return _trace("add_scalar", (a,), out, (), None, _bw_add_scalar)
    if isinstance(a, (int, float)):
        return add(b, a)
    a, b = _as_tensor(a), _as_tensor(b)
    _check_same_shape("add", a, b)
    return _trace("add", (a, b), a.data + b.data, (), None, _bw_add)


def _bw_sub(g, saved, ctx):
    return g, -g


def _bw_sub_scalar(g, saved, ctx):
    return (g,)


def _bw_rsub_scalar(g, saved, ctx):
    return (-g,)


def sub(a, b):
    if isinstance(b, (int, float)):
        a = _as_tensor(a)
        return _trace("sub_scalar", (a,), a.data - _STATE.dtype.type(b), (), None, _bw_sub_scalar)
    if isinstance(a, (int, float)):
        b = _as_tensor(b)
        return _trace("rsub_scalar", (b,), _STATE.dtype.type(a) - b.data, (), None, _bw_rsub_scalar)
    a, b = _as_tensor(a), _as_tensor(b)
    _check_same_shape("sub", a, b)
    return _trace("sub", (a, b), a.data - b.data, (), None, _bw_sub)


def _unbroadcast(g, shape):
    if g.shape == shape:
        return g
    # only scalar-against-tensor broadcasting is supported
    return np.asarray(g.sum(dtype=np.float64)).astype(g.dtype)


def _bw_mul(g, saved, ctx):
    a, b = saved
    return _unbroadcast(g * b.data, a.data.shape), _unbroadcast(g * a.data, b.data.shape)


def _bw_mul_scalar(g, saved, ctx):
    return (g * ctx,)


def mul(a, b):
    if isinstance(b, (int, float)):
        a = _as_tensor(a)
        s = _STATE.dtype.type(b)
        return _trace("mul_scalar", (a,), a.data * s, (), s, _bw_mul_scalar)
    if isinstance(a, (int, float)):
        return mul(b, a)
    a, b = _as_tensor(a), _as_tensor(b)
    if a.data.ndim == 0 or b.data.ndim == 0:
        pass  # scalar tensor against anything is fine
    else:
        _check_same_shape("mul", a, b)
    return _trace("mul", (a, b), a.data * b.data, (a, b), None, _bw_mul)


def _bw_div(g, saved, ctx):
    b, out = saved
    ga = g / b.data
    gb = _unbroadcast(-g * out.data / b.data, b.data.shape)
    return ga, gb


def _bw_div_scalar(g, saved, ctx):
    return (g / ctx,)


def div(a, b):
    if isinstance(b, (int, float)):
        if b == 0:
            raise ZeroDivisionError("div: scalar divisor is zero")
        a = _as_tensor(a)
        s = _STATE.dtype.type(b)
        return _trace("div_scalar", (a,), a.data / s, (), s, _bw_div_scalar)
    a, b = _as_tensor(a), _as_tensor(b)
    if b.data.ndim != 0:
        _check_same_shape("div", a, b)
    return _trace("div", (a, b), a.data / b.data, (b,), None, _bw_div, save_out=True)


def _bw_neg(g, saved, ctx):
    return (-g,)


def neg(a):
    a = _as_tensor(a)
    return _trace("neg", (a,), -a.data, (), None, _bw_neg)


def _f64(x):
    return x.astype(np.float64, copy=False)


def _bw_matmul(g, saved, ctx):
    a, b = saved
    ad, bd = _f64(a.data), _f64(b.data)
    gd = _f64(g)
    dt = a.data.dtype
    if ad.ndim == 1 and bd.ndim == 2:
        ga = (bd @ gd).astype(dt)
        gb = np.outer(ad, gd).astype(dt)
    elif ad.ndim == 2 and bd.ndim == 1:
        ga = np.outer(gd, bd).astype(dt)
        gb = (ad.T @ gd).astype(dt)
    else:
        ga = (gd @ bd.T).astype(dt)
        gb = (ad.T @ gd).astype(dt)
    return ga, gb


def matmul(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    if a.data.ndim == 0 or b.data.ndim == 0:
        raise ValueError("matmul: operands must be 1-D or 2-D")
    if a.data.shape[-1] != b.data.shape[0]:
        raise ValueError(f"matmul: inner dims differ {a.data.shape} vs {b.data.shape}")
    out = (_f64(a.data) @ _f64(b.data)).astype(_STATE.dtype)
    return _trace("matmul", (a, b), out, (a, b), None, _bw_matmul)


def _bw_dot(g, saved, ctx):
    a, b = saved
    return g * b.data, g * a.data


def dot(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    if a.data.ndim != 1 or b.data.ndim != 1:
        raise ValueError("dot: operands must be 1-D")
    _check_same_shape("dot", a, b)
    out = np.float64(np.dot(_f64(a.data), _f64(b.data))).astype(_STATE.dtype)
    return _trace("dot", (a, b), np.asarray(out), (a, b), None, _bw_dot)


def _bw_concat(g, saved, ctx):
    grads = []
    offset = 0
    for n in ctx:
        grads.append(g[offset:offset + n])
        offset += n
    return tuple(grads)


def concat(parts):
    parts = [_as_tensor(p) for p in parts]
    if not parts:
        raise ValueError("concat: no inputs")
    for p in parts:
        if p.data.ndim != 1:
            raise ValueError("concat: inputs must be 1-D")
    lengths = tuple(p.data.shape[0] for p in parts)
    out = np.concatenate([p.data for p in parts])
    return _trace("concat", tuple(parts), out, (), lengths, _bw_concat)


def _bw_stack(g, saved, ctx):
    return tuple(np.asarray(g[i]) for i in range(ctx))


def stack(scalars):
    scalars = [_as_tensor(s) for s in scalars]
    if not scalars:
        raise ValueError("stack: no inputs")
    for s in scalars:
        if s.data.ndim != 0:
            raise ValueError("stack: inputs must be 0-D scalars")
    out = np.array([s.data for s in scalars], dtype=_STATE.dtype)
    return _trace("stack", tuple(scalars), out, (), len(scalars), _bw_stack)


def _bw_slice(g, saved, ctx):
    length, start, stop = ctx
    full = np.zeros(length, dtype=g.dtype)
    full[start:stop] = g
    return (full,)


def slice1d(a, start, stop):
    a = _as_tensor(a)
    if a.data.ndim != 1:
        raise ValueError("slice1d: input must be 1-D")
    n = a.data.shape[0]
    if not (0 <= start < stop <= n):
        raise ValueError(f"slice1d: bad range [{start}, {stop}) for length {n}")
    out = a.data[start:stop].copy()
    return _trace("slice", (a,), out, (), (n, start, stop), _bw_slice)


def _bw_row(g, saved, ctx):
    shape, i = ctx
    full = np.zeros(shape, dtype=g.dtype)
    full[i] = g
    return (full,)


def row(m, i):
    m = _as_tensor(m)
    if m.data.ndim != 2:
        raise ValueError("row: input must be 2-D")
    if not (0 <= i < m.data.shape[0]):
        raise ValueError(f"row: index {i} out of range for {m.data.shape[0]} rows")
    out = m.data[i].copy()
    return _trace("row", (m,), out, (), (m.data.shape, int(i)), _bw_row)


def _bw_sum(g, saved, ctx):
    return (np.full(ctx, g, dtype=g.dtype),)


def tensor_sum(a):
    a = _as_tensor(a)
    out = np.asarray(a.data.sum(dtype=np.float64).astype(_STATE.dtype))
    return _trace("sum", (a,), out, (), a.data.shape, _bw_sum)


def _bw_mean(g, saved, ctx):
    shape, n = ctx
    return (np.full(shape, g / n, dtype=g.dtype),)


def tensor_mean(a):
    a = _as_tensor(a)
    n = a.data.size
    if n == 0:
        raise ValueError("mean: empty tensor")
    out = np.asarray((a.data.sum(dtype=np.float64) / n).astype(_STATE.dtype))
    return _trace("mean", (a,), out, (), (a.data.shape, n), _bw_mean)


def _bw_tanh(g, saved, ctx):
    (out,) = saved
    return (g * (1.0 - out.data * out.data),)


def tanh(a):
    a = _as_tensor(a)
    return _trace("tanh", (a,), np.tanh(a.data), (), None, _bw_tanh, save_out=True)


def _sigmoid(x):
    # exp may overflow to inf for very negative inputs; 1/(1+inf) saturates
    # to exactly 0.0, which is the correct limit, so the warning is noise.
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


def _bw_silu(g, saved, ctx):
    (a,) = saved
    s = _sigmoid(a.data)
    return (g * (s + a.data * s * (1.0 - s)),)


def silu(a):
    """Sigmoid-weighted linear unit: x * sigmoid(x)."""
    a = _as_tensor(a)
    out = a.data * _sigmoid(a.data)
    return _trace("silu", (a,), out, (a,), None, _bw_silu)


def _bw_exp(g, saved, ctx):
    (out,) = saved
    return (g * out.data,)


def exp(a):
    a = _as_tensor(a)
    return _trace("exp", (a,), np.exp(a.data), (), None, _bw_exp, save_out=True)


def _bw_log(g, saved, ctx):
    (a,) = saved
    return (g / a.data,)


def log(a):
    a = _as_tensor(a)
    if np.any(a.data <= 0):
        raise ValueError("log: input must be positive")
    return _trace("log", (a,), np.log(a.data), (a,), None, _bw_log)


def _bw_sqrt(g, saved, ctx):
    (out,) = saved
    return (g / (2.0 * out.data),)


def sqrt(a):
    a = _as_tensor(a)
    if np.any(a.data < 0):
        raise ValueError("sqrt: input must be non-negative")
    return _trace("sqrt", (a,), np.sqrt(a.data), (), None, _bw_sqrt, save_out=True)


# ---------------------------------------------------------------------------
# composed helpers (differentiable through the primitives above)


def norm(a):
    """Euclidean norm as sqrt(dot(a, a))."""
    return sqrt(dot(a, a))


def cosine_similarity(a, b):
    """cos(a, b); raises on a zero-norm operand."""
    a, b = _as_tensor(a), _as_tensor(b)
    if float(np.linalg.norm(a.data)) == 0.0 or float(np.linalg.norm(b.data)) == 0.0:
        raise ValueError("cosine_similarity: zero-norm operand")
    return div(dot(a, b), mul(norm(a), norm(b)))


def squared_error(a, b):
    """Mean squared error between two same-shape tensors."""
    d = sub(a, b)
    return tensor_mean(mul(d, d))


def time_embedding(t, dim):
    """Sinusoidal embedding of an integer timestep; constant w.r.t. autodiff.

    t is never a learned quantity, so the result carries no grad path.
    """
    if dim % 2 != 0:
        raise ValueError("time_embedding: dim must be even")
    half = dim // 2
    freqs = np.exp(-math.log(10000.0) * np.arange(half, dtype=np.float64) / half)
    ang = float(t) * freqs
    emb = np.concatenate([np.sin(ang), np.cos(ang)])
    return Tensor(emb)


# ---------------------------------------------------------------------------
# backward and checkpointing


def backward(tape, loss, tap_ids=None):
    """Reverse sweep over the tape seeded with dL/dL = 1.

    Returns a map from leaf tensor id to its gradient array; every
    requires_grad leaf that was touched by a recorded op appears, with zeros
    when no path reaches the loss. Leaf ``.grad`` buffers are set to the same
    arrays. ``tap_ids`` optionally captures gradients of intermediate tensors
    by id into ``tape.grad_taps``.
    """
    if not isinstance(loss, Tensor):
        raise AutodiffError("backward: loss must be a Tensor")
    if loss.data.ndim != 0:
        raise AutodiffError("backward: loss must be 0-dimensional")
    if tape._used:
        raise AutodiffError("backward: tape already differentiated")
    tape._used = True
    taps = {} if tap_ids else None
    tap_set = set(tap_ids) if tap_ids else ()

    grads = {loss.id: np.ones((), dtype=loss.data.dtype)}
    # keep the tape active so segment replays record, whether or not the
    # caller is still inside the tape's ``with`` block
    _STATE.tape_stack.append(tape)
    try:
        _sweep(tape, tape.nodes, grads, taps, tap_set)
    finally:
        popped = _STATE.tape_stack.pop()
        assert popped is tape

    result = {}
    for leaf_id, leaf in tape._leaves.items():
        g = grads.get(leaf_id)
        if g is None:
            g = np.zeros_like(leaf.data)
        g = np.asarray(g, dtype=leaf.data.dtype)
        leaf.grad = g
        result[leaf_id] = g
    tape.grad_taps = taps
    return result


def _sweep(tape, nodes, grads, taps, tap_set):
    debug = _STATE.debug
    for node in reversed(nodes):
        if isinstance(node, SegmentNode):
            _sweep_segment(tape, node, grads, taps, tap_set)
            continue
        g = grads.pop(node.out_id, None)
        if g is None:
            continue
        input_grads = node.bw(g, node.saved, node.ctx)
        for iid, ig in zip(node.input_ids, input_grads):
            if ig is None:
                continue
            if debug and not np.all(np.isfinite(ig)):
                raise AutodiffError(f"non-finite gradient in backward of '{node.op}'")
            if iid in tap_set:
                prev = taps.get(iid)
                taps[iid] = ig.copy() if prev is None else prev + ig
            acc = grads.get(iid)
            grads[iid] = ig if acc is None else acc + ig


def _sweep_segment(tape, node, grads, taps, tap_set):
    g_outs = [grads.pop(oid, None) for oid in node.out_ids]
    if all(g is None for g in g_outs):
        return
    scratch = []
    boundary_ids = frozenset(t.id for t in node.inputs)
    watermark = next(_ID_COUNTER)
    with tape._capture(scratch, boundary_ids, watermark):
        outs = node.fn(*node.inputs)
    outs = outs if isinstance(outs, tuple) else (outs,)
    if len(scratch) != node.recorded_len:
        raise AutodiffError(
            f"checkpoint replay recorded {len(scratch)} ops, expected {node.recorded_len}; "
            "segment function is not pure"
        )
    if len(outs) != len(node.out_ids):
        raise AutodiffError("checkpoint replay returned a different number of outputs")
    for g, replayed in zip(g_outs, outs):
        if g is None:
            continue
        acc = grads.get(replayed.id)
        grads[replayed.id] = g if acc is None else acc + g
    _sweep(tape, scratch, grads, taps, tap_set)
    for sub_node in scratch:
        if isinstance(sub_node, TapeNode):
            tape.stats.release(sub_node.saved)


def checkpoint_segment(fn, inputs):
    """Run ``fn(*inputs)`` recording only the segment boundary.

    ``fn`` must be a pure function of the declared boundary input tensors; it
    is re-executed during backward and must replay the identical op sequence
    (asserted via the recorded op count). With no active tape this is a plain
    call.
    """
    inputs = tuple(inputs)
    for t in inputs:
        if not isinstance(t, Tensor):
            raise AutodiffError("checkpoint_segment: boundary inputs must be Tensors")
    tape = _active_tape()
    if tape is None:
        return fn(*inputs)
    tape._check_guard("segment", inputs)
    for t in inputs:
        t._boundary = True
    scratch = []
    boundary_ids = frozenset(t.id for t in inputs)
    watermark = next(_ID_COUNTER)
    with tape._capture(scratch, boundary_ids, watermark):
        outs = fn(*inputs)
    single = not isinstance(outs, tuple)
    outs_t = (outs,) if single else tuple(outs)
    for o in outs_t:
        if not isinstance(o, Tensor):
            raise AutodiffError("checkpoint_segment: outputs must be Tensors")
        o._boundary = True
    if scratch:
        node = SegmentNode(fn, inputs, tuple(o.id for o in outs_t), len(scratch))
        tape._target.append(node)
        for sub_node in scratch:
            if isinstance(sub_node, TapeNode):
                tape.stats.release(sub_node.saved)
    return outs


def finite_diff_grad(f, params, h=1e-3):
    """Central-difference gradient oracle: (f(p + h e) - f(p - h e)) / 2h.

    ``params`` maps names to Tensors; ``f`` takes the same mapping and
    returns a scalar (Tensor or float). Evaluations run detached. Returns a
    map from name to gradient array. Independent of the tape machinery, so it
    can be used to check it.
    """
    if h <= 0:
        raise ValueError("finite_diff_grad: h must be positive")

    def eval_f(p):
        with pause_recording():
            out = f(p)
        if isinstance(out, Tensor):
            if out.data.ndim != 0:
                raise ValueError("finite_diff_grad: f must return a scalar")
            return float(out.data)
        return float(out)

    grads = {}
    for name, t in params.items():
        base = t.data
        g = np.zeros(base.shape, dtype=np.float64)
        flat_g = g.reshape(-1)
        flat_b = base.reshape(-1)
        for i in range(flat_b.size):
            plus = flat_b.copy()
            minus = flat_b.copy()
            plus[i] += h
            minus[i] -= h
            p_plus = dict(params)
            p_minus = dict(params)
            p_plus[name] = Tensor(plus.reshape(base.shape))
            p_minus[name] = Tensor(minus.reshape(base.shape))
            flat_g[i] = (eval_f(p_plus) - eval_f(p_minus)) / (2.0 * h)
        grads[name] = g
    return grads
