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

Reductions (sum, mean, dot, matmul, linear) accumulate in float64 and round
back to the working dtype. The elementwise ops, ``linear``, ``concat``,
``broadcast_rows``, ``put_rows``, ``row_mean`` and ``batch_mean`` also take a
batch of rows, shape (B, n), and a batched tape reproduces B single-row tapes
bit for bit, forward and backward: each row gets the bits that row alone
would get, and a gradient summed over the rows (a weight, a row bias, a
broadcast row) adds the per-row terms in the order the B tapes would, last
row first (``_tape_sum``). The working dtype is float32 by default; tests
that compare against central finite differences run under ``default_dtype
(np.float64)`` so the difference quotient is not drowned by rounding noise.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import math

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
    "debug_checks",
    "add",
    "sub",
    "mul",
    "div",
    "neg",
    "matmul",
    "linear",
    "dot",
    "concat",
    "stack",
    "slice1d",
    "row",
    "broadcast_rows",
    "put_rows",
    "tensor_sum",
    "tensor_mean",
    "row_mean",
    "batch_mean",
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


class _State:
    """The stack of active tapes, the working dtype and the debug switch: one
    set per process, not thread-safe, so tapes are built on one thread."""

    def __init__(self):
        self.tape_stack = []
        self.dtype = np.dtype(np.float32)
        self.debug = False


_STATE = _State()


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
    Tensors instead of mutating them, which also keeps ``data64``, the
    float64 copy cached on first use, in step with ``data``.
    """

    __slots__ = ("data", "grad", "id", "_needs", "_from_op", "_boundary", "_data64")

    def __init__(self, data, requires_grad=False):
        self._fill(np.array(data, dtype=_STATE.dtype), bool(requires_grad), False)

    @classmethod
    def _wrap(cls, arr, needs):
        """An op's output: ``arr`` itself when it has the working dtype."""
        t = cls.__new__(cls)
        t._fill(np.asarray(arr, dtype=_STATE.dtype), needs, True)
        return t

    def _fill(self, arr, needs, from_op):
        if _STATE.debug and not np.all(np.isfinite(arr)):
            raise AutodiffError("non-finite tensor value")
        arr.flags.writeable = False
        self.data = arr
        self.grad = None
        self.id = next(_ID_COUNTER)
        self._needs = needs
        self._from_op = from_op
        self._boundary = False
        self._data64 = None

    @property
    def requires_grad(self):
        """True for a leaf built with ``requires_grad=True``; never for an op's
        output."""
        return self._needs and not self._from_op

    @property
    def data64(self):
        """Read-only float64 copy of ``data``, widened once and then kept."""
        wide = self._data64
        if wide is None:
            wide = self.data.astype(np.float64, copy=False)
            wide.flags.writeable = False
            self._data64 = wide
        return wide

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    def item(self):
        return float(self.data)

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

    Use as a context manager; ops executed inside record themselves. The
    stack of active tapes is one per process, so build and differentiate
    tapes on one thread.
    """

    def __init__(self):
        self.nodes = []
        self._leaves = {}
        self._target = self.nodes
        self._guard = None  # (allowed boundary ids, id watermark) inside a segment
        self._used = False
        self.stats = TapeStats()

    def __enter__(self):
        _STATE.tape_stack.append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        popped = _STATE.tape_stack.pop()
        assert popped is self
        return False

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
    """Wrap an op's output; record it when a tape is active and an input needs
    a gradient. ``save_out`` appends the output itself to ``saved``."""
    stack = _STATE.tape_stack  # _active_tape(), inlined: every op passes here
    tape = stack[-1] if stack else None
    if tape is None:
        return Tensor._wrap(out_arr, False)
    needs = any(t._needs for t in inputs)
    out = Tensor._wrap(out_arr, needs)
    tape._check_guard(op, inputs)
    if needs:
        if save_out:
            saved = saved + (out,)
        for t in inputs:
            if t._needs and not t._from_op:
                tape._leaves.setdefault(t.id, t)
        tape._target.append(TapeNode(op, tuple(t.id for t in inputs), out.id, saved, ctx, bw))
        tape.stats.note(saved)
    return out


def _as_tensor(x):
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x))


def _scalar(x):
    """True for a constant operand of add, sub, mul and div: a Python or
    NumPy number, or a 0-D array (a 0-D Tensor is an operand like any other)."""
    return isinstance(x, (int, float, np.number)) or (isinstance(x, np.ndarray) and x.ndim == 0)


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
    if _scalar(b):
        a = _as_tensor(a)
        out = a.data + _STATE.dtype.type(b)
        return _trace("add_scalar", (a,), out, (), None, _bw_add_scalar)
    if _scalar(a):
        return add(b, a)
    a, b = _as_tensor(a), _as_tensor(b)
    _check_same_shape("add", a, b)
    return _trace("add", (a, b), a.data + b.data, (), None, _bw_add)


def _bw_sub(g, saved, ctx):
    return g, -g


def _bw_neg(g, saved, ctx):
    return (-g,)


def sub(a, b):
    if _scalar(b):
        a = _as_tensor(a)
        return _trace("sub_scalar", (a,), a.data - _STATE.dtype.type(b), (), None, _bw_add_scalar)
    if _scalar(a):
        b = _as_tensor(b)
        return _trace("rsub_scalar", (b,), _STATE.dtype.type(a) - b.data, (), None, _bw_neg)
    a, b = _as_tensor(a), _as_tensor(b)
    _check_same_shape("sub", a, b)
    return _trace("sub", (a, b), a.data - b.data, (), None, _bw_sub)


def _tape_sum(terms):
    """A (B, ...) stack of per-row gradient terms summed over the rows as B
    single-row tapes add them into one tensor: in the terms' dtype, last row
    first. ``np.add.reduce`` over the reversed rows adds them one by one,
    starting from -0.0 so that the first term keeps its sign of zero, as it
    does on a tape; with one element per row it would pair the terms
    instead, so that case takes the strictly sequential ``np.cumsum``."""
    rev = terms[::-1]
    if terms[0].size > 1:
        return np.add.reduce(rev, axis=0, initial=-0.0)
    return np.asarray(np.cumsum(rev, axis=0)[-1])


def _unbroadcast(g, shape):
    """``g`` reduced to an operand's ``shape``: over the rows in tape order
    for a row operand (a row bias or a broadcast row), in float64 along each
    row for a (B, 1) column, and in float64 over everything for a 0-D
    operand."""
    if g.shape == shape:
        return g
    if shape and len(shape) == g.ndim - 1:
        return _tape_sum(g)
    column = len(shape) == g.ndim
    return np.asarray(g.sum(axis=-1 if column else None, dtype=np.float64,
                            keepdims=column)).astype(g.dtype)


def _is_column(c, a):
    """True when ``c`` is a (B, 1) column scaling the rows of the (B, n) ``a``."""
    return a.ndim == 2 and c.shape == (a.shape[0], 1)


def _bw_mul(g, saved, ctx):
    a, b = saved
    return _unbroadcast(g * b.data, a.data.shape), _unbroadcast(g * a.data, b.data.shape)


def _bw_mul_scalar(g, saved, ctx):
    return (g * ctx,)


def mul(a, b):
    if _scalar(b):
        a = _as_tensor(a)
        s = _STATE.dtype.type(b)
        return _trace("mul_scalar", (a,), a.data * s, (), s, _bw_mul_scalar)
    if _scalar(a):
        return mul(b, a)
    a, b = _as_tensor(a), _as_tensor(b)
    x, y = a.data, b.data
    # a scalar tensor against anything, or a (B, 1) column against (B, n) rows
    if (x.shape != y.shape and x.ndim and y.ndim
            and not (_is_column(y, x) or _is_column(x, y))):
        _check_same_shape("mul", a, b)
    return _trace("mul", (a, b), x * y, (a, b), None, _bw_mul)


def _bw_div(g, saved, ctx):
    b, out = saved
    ga = g / b.data
    gb = _unbroadcast(-g * out.data / b.data, b.data.shape)
    return ga, gb


def _bw_div_scalar(g, saved, ctx):
    return (g / ctx,)


def div(a, b):
    if _scalar(b):
        if b == 0:
            raise ZeroDivisionError("div: scalar divisor is zero")
        a = _as_tensor(a)
        s = _STATE.dtype.type(b)
        return _trace("div_scalar", (a,), a.data / s, (), s, _bw_div_scalar)
    a, b = _as_tensor(a), _as_tensor(b)
    if b.data.ndim != 0:
        _check_same_shape("div", a, b)
    return _trace("div", (a, b), a.data / b.data, (b,), None, _bw_div, save_out=True)


def neg(a):
    a = _as_tensor(a)
    return _trace("neg", (a,), -a.data, (), None, _bw_neg)


def _f64(x):
    return x.astype(np.float64, copy=False)


def _product(op, x, w):
    """x @ w in float64, rounded to the working dtype: the one place a dense
    product widens, multiplies and rounds. ``w`` is read through its kept
    float64 copy. A 2-D ``x`` is a stack of row vectors, each multiplied on
    its own (``np.matmul`` over (B, 1, K)), so row i equals the product of
    ``x[i]`` alone bit for bit; a 2-D gemm would not."""
    if x.data.ndim == 0 or w.data.ndim == 0:
        raise ValueError(f"{op}: operands must be 1-D or 2-D")
    if x.data.shape[-1] != w.data.shape[0]:
        raise ValueError(f"{op}: inner dims differ {x.data.shape} vs {w.data.shape}")
    x64 = _f64(x.data)
    if x64.ndim == 2:
        return np.matmul(x64[:, None, :], w.data64)[:, 0].astype(_STATE.dtype)
    return (x64 @ w.data64).astype(_STATE.dtype)


def _product_grads(g, x, w):
    """(dL/dx, dL/dw) of ``_product`` for upstream gradient ``g``. A 2-D ``x``
    is a stack of rows, so each row's dx is that row's own product and dw
    sums the rows' terms as their single-row tapes would (``_tape_sum``).
    A row's term is ``x_i * g_i`` rounded once to the working dtype: in f64
    the product of two f32 values is exact, so this is the 1-D rule's
    f64 outer product cast down."""
    wd, dt = w.data64, x.data.dtype
    if x.data.ndim == 1:
        xd, gd = _f64(x.data), _f64(g)
        if wd.ndim == 1:  # vector . vector: g is 0-D
            return (wd * gd).astype(dt), (xd * gd).astype(dt)
        return (wd @ gd).astype(dt), np.outer(xd, gd).astype(dt)
    if wd.ndim == 1:
        dx = np.outer(_f64(g), wd)
        terms = x.data * g[:, None]
    else:
        dx = np.matmul(wd, _f64(g)[:, :, None])[:, :, 0]
        terms = x.data[:, :, None] * g[:, None, :]
    return dx.astype(dt), _tape_sum(terms.astype(dt, copy=False))


def _bw_matmul(g, saved, ctx):
    return _product_grads(g, *saved)


def matmul(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    return _trace("matmul", (a, b), _product("matmul", a, b), (a, b), None, _bw_matmul)


def _bw_linear(g, saved, ctx):
    return (*_product_grads(g, *saved), _unbroadcast(g, ctx))


def linear(x, w, b):
    """Dense layer x @ w + b as one op: bit for bit ``add(matmul(x, w), b)``,
    recorded as a single node. ``b`` has the output's shape or, for a batch
    of rows, one row's shape."""
    x, w, b = _as_tensor(x), _as_tensor(w), _as_tensor(b)
    out = _product("linear", x, w)
    bias = b.data.shape
    if bias != out.shape and bias != out.shape[-1:]:
        raise ValueError(f"linear: bias shape {bias} does not match output {out.shape}")
    return _trace("linear", (x, w, b), out + b.data, (x, w), bias, _bw_linear)


def dot(a, b):
    """1-D a . b: the dense product's vector . vector case."""
    a, b = _as_tensor(a), _as_tensor(b)
    if a.data.ndim != 1 or b.data.ndim != 1:
        raise ValueError("dot: operands must be 1-D")
    return _trace("dot", (a, b), _product("dot", a, b), (a, b), None, _bw_matmul)


def _bw_concat(g, saved, ctx):
    grads = []
    offset = 0
    for n in ctx:
        grads.append(g[..., offset:offset + n])
        offset += n
    return tuple(grads)


def concat(parts):
    """Join on the last axis: 1-D vectors, or 2-D batches with equal row counts."""
    parts = [_as_tensor(p) for p in parts]
    arrays = [p.data for p in parts]
    try:
        out = np.concatenate(arrays, -1)
    except ValueError:  # no inputs, a 0-D input, or ranks or row counts that differ
        out = None
    if out is None or out.ndim > 2:
        raise ValueError("concat: inputs must be 1-D, or 2-D with equal row counts; got ["
                         + ", ".join(str(a.shape) for a in arrays) + "]")
    lengths = tuple(a.shape[-1] for a in arrays)
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


def _bw_broadcast_rows(g, saved, ctx):
    return (_unbroadcast(g, ctx),)


def broadcast_rows(a, shape):
    """``a`` as a (B, n) batch of B equal rows; ``a`` itself when it already
    has the tuple ``shape``. The backward rule sums the rows' gradients, so a
    taped batch keeps the graph back to ``a``, a Tensor."""
    if a.data.shape == shape:
        return a
    if a.data.ndim != 1 or len(shape) != 2 or shape[1:] != a.data.shape:
        raise ValueError(f"broadcast_rows: cannot broadcast {a.data.shape} to {shape}")
    out = np.broadcast_to(a.data, shape).copy()
    return _trace("broadcast_rows", (a,), out, (), a.data.shape, _bw_broadcast_rows)


def _bw_put_rows(g, saved, ctx):
    ga = g.copy()
    ga[ctx, :] = 0
    gv = _tape_sum(g[ctx, :]) if ctx else np.zeros(g.shape[1:], dtype=g.dtype)
    return ga, gv


def put_rows(a, rows, v):
    """The (B, n) batch ``a`` with each row listed in ``rows`` (ascending
    indices) replaced by the 1-D ``v``, as if each of those rows had used
    ``v`` itself: ``v``'s gradient adds those rows' gradients last row first,
    and is zeros when ``rows`` is empty."""
    a, v = _as_tensor(a), _as_tensor(v)
    rows = list(rows)
    if a.data.ndim != 2 or v.data.shape != a.data.shape[1:]:
        raise ValueError(f"put_rows: cannot put {v.data.shape} into rows of {a.data.shape}")
    if rows != sorted(set(rows)) or not all(0 <= i < a.data.shape[0] for i in rows):
        raise ValueError(f"put_rows: rows {rows} are not ascending indices below "
                         f"{a.data.shape[0]}")
    out = a.data.copy()
    out[rows, :] = v.data
    return _trace("put_rows", (a, v), out, (), rows, _bw_put_rows)


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


def _bw_row_mean(g, saved, ctx):
    return (np.repeat((g / ctx[1])[:, None], ctx[1], axis=1),)


def row_mean(a):
    """Mean of each row of a (B, n) batch: the (B,) vector of what
    ``tensor_mean`` gives each row alone (float64 row sums)."""
    a = _as_tensor(a)
    if a.data.ndim != 2 or a.data.shape[1] == 0:
        raise ValueError(f"row_mean: input must be (B, n) with n >= 1, got {a.data.shape}")
    n = a.data.shape[1]
    out = (a.data.sum(axis=1, dtype=np.float64) / n).astype(_STATE.dtype)
    return _trace("row_mean", (a,), out, (), a.data.shape, _bw_row_mean)


def _bw_batch_mean(g, saved, ctx):
    n, scale = ctx
    return (np.full(n, g * scale, dtype=g.dtype),)


def batch_mean(a):
    """Mean of a (B,) vector of per-row losses, bit for bit the loop
    ``total = l_0; total = add(total, l_i) ...; mul(total, 1 / B)``: the
    working dtype's adds in row order, strictly sequential (``np.cumsum``; a
    1-D ``np.add.reduce`` pairs its terms from 9 on), then one multiply."""
    a = _as_tensor(a)
    if a.data.ndim != 1 or a.data.shape[0] == 0:
        raise ValueError(f"batch_mean: input must be a non-empty vector, got {a.data.shape}")
    n = a.data.shape[0]
    scale = _STATE.dtype.type(1.0 / n)
    out = np.asarray(np.cumsum(a.data)[-1] * scale)
    return _trace("batch_mean", (a,), out, (), (n, scale), _bw_batch_mean)


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
    """Mean squared error between two same-shape tensors; for (B, n) rows,
    the (B,) vector of each row's error."""
    d = sub(a, b)
    sq = mul(d, d)
    return row_mean(sq) if sq.data.ndim == 2 else tensor_mean(sq)


def time_embedding(t, dim):
    """Sinusoidal embedding of an integer timestep, or a (B, dim) row per
    timestep of a sequence; constant w.r.t. autodiff.

    t is never a learned quantity, so the result carries no grad path. The
    float64 values are computed once per (t, dim); every call still returns
    a fresh Tensor, so a checkpoint-segment replay sees a tensor of its own.
    """
    if isinstance(t, (int, np.integer)):
        return Tensor(_time_angles(t, dim))
    return Tensor(np.array([_time_angles(int(s), dim) for s in t]))


@functools.lru_cache(maxsize=4096)
def _time_angles(t, dim):
    if dim % 2 != 0:
        raise ValueError("time_embedding: dim must be even")
    half = dim // 2
    freqs = np.exp(-math.log(10000.0) * np.arange(half, dtype=np.float64) / half)
    ang = float(t) * freqs
    emb = np.concatenate([np.sin(ang), np.cos(ang)])
    emb.flags.writeable = False
    return emb


# ---------------------------------------------------------------------------
# backward and checkpointing


def backward(tape, loss, tap_ids=None):
    """Reverse sweep over the tape seeded with dL/dL = 1.

    Returns a map from tensor id to its gradient array. Every requires_grad
    leaf that was touched by a recorded op appears, with zeros when no path
    reaches the loss; leaf ``.grad`` buffers are set to the same arrays.
    ``tap_ids`` names intermediate tensors whose gradients the map also
    carries, each one that a gradient reaches.
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

    result = taps or {}
    for leaf_id, leaf in tape._leaves.items():
        g = grads.get(leaf_id)
        if g is None:
            g = np.zeros_like(leaf.data)
        g = np.asarray(g, dtype=leaf.data.dtype)
        leaf.grad = g
        result[leaf_id] = g
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
    outs, scratch = _run_segment(tape, node.fn, node.inputs)
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
    _release(tape, scratch)


def _run_segment(tape, fn, inputs):
    """Call ``fn(*inputs)`` capturing its ops into a fresh scratch list, guarded
    to touch only the boundary inputs and its own tensors; (outputs, scratch)."""
    scratch = []
    with tape._capture(scratch, frozenset(t.id for t in inputs), next(_ID_COUNTER)):
        outs = fn(*inputs)
    return outs, scratch


def _release(tape, scratch):
    """Stop counting the saved values of captured nodes as live."""
    for node in scratch:
        if isinstance(node, TapeNode):
            tape.stats.release(node.saved)


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
    outs, scratch = _run_segment(tape, fn, inputs)
    single = not isinstance(outs, tuple)
    outs_t = (outs,) if single else tuple(outs)
    for o in outs_t:
        if not isinstance(o, Tensor):
            raise AutodiffError("checkpoint_segment: outputs must be Tensors")
        o._boundary = True
    if scratch:
        tape._target.append(SegmentNode(fn, inputs, tuple(o.id for o in outs_t), len(scratch)))
        _release(tape, scratch)
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
