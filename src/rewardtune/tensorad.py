"""Dense tensors with tape-based reverse-mode autodiff and gradient
checkpointing.

Everything downstream (samplers, encoders, reward losses) is built from the
ops in this module. Ops execute eagerly on numpy arrays and, while a Tape is
active, append nodes carrying exactly the values their backward rules need.
Backward walks the tape in strict reverse creation order, so two runs over
the same graph accumulate gradients in the same order and produce
bit-identical results. ``backward`` returns the gradients as a map from
tensor id to array, the only place they live: a tensor carries no gradient
and no per-tape mark, so one tape cannot leave state for a later one.

Checkpoint segments trade recomputation for memory on any taped function:
at record time a segment's interior nodes are discarded and replaced by one
node holding only the boundary tensors; during backward the segment
function is replayed to rebuild the interior, which must reproduce the
recorded op count exactly. Because the replay performs the identical
arithmetic in the identical order, checkpointed gradients are bit-for-bit
equal to un-checkpointed ones. Release criterion 2 (a checkpointed chain's
gradients and flat memory) and the tests' reference chains use them; the
fine-tune chain does not: its recorded steps recompute their own
activations (``mlp_step``, below).

Three fused ops record one node where a chain of the primitives would
record several, and are bit for bit that chain, forward and backward:
``mlp``, a dense stack over the concatenation of its parts (``concat``,
``matmul``, ``add`` and ``silu`` or ``tanh``); ``axpby``, ``x * a + y * b``
for constants ``a`` and ``b``; and ``mlp_step``, a guided sampler step (one
``mlp`` per guidance branch, an ``axpby`` combining them, one ``axpby``
per sampler update), so a recorded denoising step is one node, not
dozens: per-node Python dispatch, not arithmetic, is most of what a step
costs. The forward arithmetic of each is one array function,
``mlp_kernel``, ``axpby_kernel`` and ``mlp_step_kernel``, which a detached
walk calls directly. ``mlp_kernel`` computes every layer into the arrays of
a workspace, which holds per layer the float64 input and product, the
output, the bias copied to the output's rows and the activation, and the
layer Tensors it was built from, the only layers it steps. A taped ``mlp``
makes one per call, so the arrays a node keeps are its own. A guided step
runs on a ``step_rows`` buffer: one such workspace for the stacked
[cond; uncond] rows, with the conditioning columns written and the views
of the columns a step writes and of the guidance halves it reads, so a
step issues only its arithmetic. The buffer is the one source of its
step's fixed inputs (layers, conditioning, null conditioning and guidance
pair): ``mlp_step_kernel`` and ``mlp_step`` take only the latent, the time
embedding and the sampler pairs beside it, so a step cannot mix one
model's buffer with another's inputs. A detached walk makes one buffer
per walk; a fine-tune step shares one between its walk and every recorded
step, and a recorded step whose buffer another step wrote since its
forward reruns its kernel from its input latent in backward, so the
buffer holds its activations again: the same recompute a checkpoint
segment's replay makes, with no node recorded.

Three more fused ops stand for the reward arithmetic the same way:
``cosine_similarity`` (``dot``, ``sqrt``, ``mul``, ``div``),
``squared_error`` (``sub``, ``mul``, a mean) and ``weighted_sum`` (a
constant ``mul`` per term and the ``add`` chain over them).

Reductions (sum, mean, dot, matmul, mlp) accumulate in float64 and
round back to the working dtype. The ops that take rows follow one shape
rule: a (B, n) batch is B rows, each computed on its own, and a 1-D operand
is the one-row batch; the products, ``dot``, ``mlp`` and ``pool_tokens`` (a
list of prompts to (B, E) rows) run it as that row and give the result its
1-D shape. The binary elementwise ops take operands of one shape, a 0-D
constant, or a (B, 1) column against (B, n) rows, on either side. So a
batched tape reproduces B single-row tapes bit for bit, forward and
backward: each row gets the bits that row alone would get. A gradient
summed over the rows (a weight, a row bias, a broadcast or put row) is not
summed in the backward rules: they return the per-row terms with their row
indices. The sweep sums them at once, last row first (``_tape_sum``),
except for a leaf that several recorded nodes read (a weight used by K
recorded steps): it keeps those, and ``backward`` folds them item-major,
rows last to first, each row's terms in sweep order, one add at a time. So
every leaf gets the sum B single-row tapes give it; an embedding table
pooled by ``pool_tokens`` gets its rows' gradients the same way, token by
token.
The working dtype is float32 by default; tests that compare against central
finite differences run under ``default_dtype(np.float64)`` so the difference
quotient is not drowned by rounding noise.
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
    "transpose",
    "dot",
    "concat",
    "stack",
    "slice1d",
    "row",
    "pool_tokens",
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
    "cosine_similarity",
    "squared_error",
    "weighted_sum",
    "time_embedding_array",
    "axpby",
    "axpby_kernel",
    "mlp",
    "mlp_kernel",
    "mlp_step",
    "mlp_step_kernel",
    "step_rows",
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

    Nothing is written to a Tensor after construction except ``data64``, the
    float64 copy cached on first use; a gradient lives only in the map
    ``backward`` returns, so no tape leaves state on a tensor for a later
    tape to read. Updates during training replace Tensors instead of
    mutating them.
    """

    __slots__ = ("data", "id", "_needs", "_from_op", "_data64")

    def __init__(self, data, requires_grad=False):
        # C order always: a dense product's bits follow its operands' memory order
        self._fill(np.array(data, dtype=_STATE.dtype, order="C"), bool(requires_grad), False)

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
        self.id = next(_ID_COUNTER)
        self._needs = needs
        self._from_op = from_op
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

    def __rtruediv__(self, other):
        return div(other, self)

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
    """Counts op-produced tensors, and the arrays fused ops keep, currently
    retained for backward: each once however many nodes keep it (the K
    recorded steps of a fine-tune chain keep the arrays of one buffer).

    Boundary tensors of this tape's checkpoint segments (their ids in
    ``boundary``) and leaf parameters are excluded, so ``peak_live_interior``
    measures exactly the quantity the checkpointing memory bound is stated
    in: interior activations alive at once.
    """

    __slots__ = ("_refs", "boundary", "live_interior", "peak_live_interior")

    def __init__(self):
        self._refs = {}
        self.boundary = set()
        self.live_interior = 0
        self.peak_live_interior = 0

    def _keys(self, saved):
        """The counted values of ``saved``: an interior tensor by its id, an
        array by its object id negated, apart from every tensor id."""
        for t in saved:
            if type(t) is np.ndarray:
                yield ~id(t)
            elif t._from_op and t.id not in self.boundary:
                yield t.id

    def note(self, saved):
        """Count a new node's saved values."""
        refs = self._refs
        for key in self._keys(saved):
            n = refs.get(key, 0)
            refs[key] = n + 1
            if n == 0:
                self.live_interior += 1
        if self.live_interior > self.peak_live_interior:
            self.peak_live_interior = self.live_interior

    def release(self, saved):
        refs = self._refs
        for key in self._keys(saved):
            n = refs.get(key)
            if n == 1:
                del refs[key]
                self.live_interior -= 1
            elif n is not None:
                refs[key] = n - 1


class Tape:
    """Append-only op record for one forward evaluation.

    Use as a context manager; ops executed inside record themselves. The
    stack of active tapes is one per process, so build and differentiate
    tapes on one thread.
    """

    def __init__(self):
        self.nodes = []
        self._uses = {}  # leaf id -> nodes that read it, replays included
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
                tape._uses[t.id] = tape._uses.get(t.id, 0) + 1
        tape._target.append(TapeNode(op, tuple(t.id for t in inputs), out.id, saved, ctx, bw))
        tape.stats.note(saved)
    return out


def _as_tensor(x):
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x))


def _scalar(x):
    """True for a constant: a Python or NumPy number, or a 0-D array.
    ``axpby`` takes its ``a`` and ``b`` only as constants; add, sub, mul and
    div take one as a 0-D tensor (``_operands``), so a tap on it reads
    nothing."""
    return isinstance(x, (int, float, np.number)) or (isinstance(x, np.ndarray) and x.ndim == 0)


def _is_column(c, a):
    """True when ``c`` is a (B, 1) column against the rows of the (B, n) ``a``."""
    return a.ndim == 2 and c.shape == (a.shape[0], 1)


def _operands(op, a, b):
    """The operand rule of add, sub, mul and div: ``a`` and ``b`` as Tensors,
    a constant as a 0-D tensor of the working dtype that needs no gradient
    (the same arithmetic as the scalar it holds). They have one shape, or
    one is 0-D, or one is a (B, 1) column against (B, n) rows, on either
    side. Returns them and the node's backward context: each operand's
    shape, None for one that needs no gradient, which the node gives
    nothing and keeps nothing for."""
    a, b = _as_tensor(a), _as_tensor(b)
    x, y = a.data, b.data
    if x.shape != y.shape and x.ndim and y.ndim and not (_is_column(y, x) or _is_column(x, y)):
        raise ValueError(f"{op}: shape mismatch {x.shape} vs {y.shape}")
    return a, b, (x.shape if a._needs else None, y.shape if b._needs else None)


# ---------------------------------------------------------------------------
# primitive ops


def _bw_add(g, saved, ctx):
    sa, sb = ctx
    return (None if sa is None else _unbroadcast(g, sa),
            None if sb is None else _unbroadcast(g, sb))


def add(a, b):
    a, b, ctx = _operands("add", a, b)
    return _trace("add", (a, b), a.data + b.data, (), ctx, _bw_add)


def _bw_sub(g, saved, ctx):
    sa, sb = ctx
    return (None if sa is None else _unbroadcast(g, sa),
            None if sb is None else _unbroadcast(-g, sb))


def _bw_neg(g, saved, ctx):
    return (-g,)


def sub(a, b):
    a, b, ctx = _operands("sub", a, b)
    return _trace("sub", (a, b), a.data - b.data, (), ctx, _bw_sub)


def _add_in_order(terms):
    """``terms[0] + terms[1] + ...`` in the terms' dtype, one add at a time,
    as a tape adds the gradients a tensor receives. ``np.add.reduce`` over
    the first axis adds the terms one by one, starting from -0.0 so that the
    first term keeps its sign of zero, as it does on a tape; with one element
    per term it would pair them instead, so that case takes the strictly
    sequential ``np.cumsum``."""
    if terms[0].size > 1:
        return np.add.reduce(terms, axis=0, initial=-0.0)
    return np.asarray(np.cumsum(terms, axis=0)[-1])


def _tape_sum(terms):
    """A (B, ...) stack of per-row gradient terms summed over the rows as B
    single-row tapes add them into one tensor: last row first."""
    return _add_in_order(terms[::-1])


class _RowTerms:
    """A backward rule's gradient for a row operand, left unsummed:
    ``terms[j]`` is what row ``rows[j]`` alone gives the operand, rows
    ascending. ``_sweep`` sums them (``total``) or, for a leaf that several
    nodes read, keeps them for ``backward`` to fold (``_fold_rows``)."""

    __slots__ = ("terms", "rows")

    def __init__(self, terms, rows):
        self.terms = terms
        self.rows = rows

    def total(self):
        """The terms summed last row first; zeros when there are none."""
        if not len(self.rows):
            return np.zeros(self.terms.shape[1:], dtype=self.terms.dtype)
        return _tape_sum(self.terms)


def _fold_rows(parts):
    """A leaf's gradient from the ``_RowTerms`` its nodes gave it, in sweep
    order, summed as B single-row tapes sum it: rows last to first, each
    row's terms in sweep order, one add at a time from -0.0. With one node
    this is that node's ``_tape_sum``."""
    order = sorted((-r, k, j) for k, p in enumerate(parts) for j, r in enumerate(p.rows))
    if not order:
        return parts[0].total()
    return _add_in_order(np.stack([parts[k].terms[j] for _, k, j in order]))


def _unbroadcast(g, shape):
    """``g`` reduced to an operand's ``shape``: unsummed ``_RowTerms`` for a
    row operand (a row bias or a broadcast row), in float64 along each row
    for a (B, 1) column, and in float64 over everything for a 0-D operand."""
    if g.shape == shape:
        return g
    if shape and len(shape) == g.ndim - 1:
        return _RowTerms(g, range(g.shape[0]))
    column = len(shape) == g.ndim
    return np.asarray(g.sum(axis=-1 if column else None, dtype=np.float64,
                            keepdims=column)).astype(g.dtype)


def _bw_mul(g, saved, ctx):
    """``saved`` holds b when a needs a gradient, then a when b needs one."""
    sa, sb = ctx
    return (None if sa is None else _unbroadcast(g * saved[0].data, sa),
            None if sb is None else _unbroadcast(g * saved[-1].data, sb))


def mul(a, b):
    """a * b, where a constant or a 0-D tensor scales the other operand and a
    (B, 1) column scales (B, n) rows, on either side. The node keeps an
    operand only when the other operand needs a gradient, which reads it."""
    a, b, ctx = _operands("mul", a, b)
    kept = ((b,) if a._needs else ()) + ((a,) if b._needs else ())
    return _trace("mul", (a, b), a.data * b.data, kept, ctx, _bw_mul)


def _bw_div(g, saved, ctx):
    """``saved`` holds b, then the output when b needs a gradient."""
    sa, sb = ctx
    b = saved[0].data
    return (None if sa is None else _unbroadcast(g / b, sa),
            None if sb is None else _unbroadcast(-g * saved[1].data / b, sb))


def div(a, b):
    """a / b, where a constant, a 0-D tensor or a (B, 1) column against
    (B, n) rows is either operand; a constant zero divisor raises
    ZeroDivisionError. The node keeps b, which every gradient reads,
    and the output only when b needs a gradient, which reads it."""
    if _scalar(b) and b == 0:
        raise ZeroDivisionError("div: constant divisor is zero")
    a, b, ctx = _operands("div", a, b)
    return _trace("div", (a, b), a.data / b.data, (b,), ctx, _bw_div, save_out=b._needs)


def neg(a):
    a = _as_tensor(a)
    return _trace("neg", (a,), -a.data, (), None, _bw_neg)


def _f64(x):
    return x.astype(np.float64, copy=False)


def _product_shape(op, xshape, w, b=None):
    """The shape of ``_product(op, x, w)`` for an ``x`` of ``xshape``;
    raises its errors: an operand that is not 1-D or 2-D, inner dims that
    differ, and a bias whose shape is neither the output's nor one row's."""
    ws = w.data.shape
    if not (0 < len(xshape) < 3 and 0 < len(ws) < 3):
        raise ValueError(f"{op}: operands must be 1-D or 2-D")
    if xshape[-1] != ws[0]:
        raise ValueError(f"{op}: inner dims differ {xshape} vs {ws}")
    shape = xshape[:-1] + ws[1:]
    if b is not None and b.data.shape != shape and b.data.shape != shape[-1:]:
        raise ValueError(f"{op}: bias shape {b.data.shape} does not match output {shape}")
    return shape


def _product(op, x, w):
    """The array ``x`` @ the Tensor ``w`` in float64, rounded to the working
    dtype, with ``_product_shape``'s checks. ``w`` is read through its kept
    float64 copy. ``x`` is a stack of row vectors, a 1-D ``x`` the one-row
    stack, each multiplied on its own (``np.matmul`` over (B, 1, K)), so
    row i equals the product of ``x[i]`` alone bit for bit; a 2-D gemm
    would not. ``mlp_kernel`` does the same arithmetic into arrays made
    once (``_mlp_work``)."""
    shape = _product_shape(op, x.shape, w)
    out = np.matmul(_f64(x).reshape(-1, 1, x.shape[-1]), w.data64)
    return out.reshape(shape).astype(_STATE.dtype)


def _product_dx(g, x, w):
    """dL/dx of ``_product(x, w)`` for upstream gradient ``g``: each row's
    own product, an outer product for a 1-D ``w``."""
    wd, g64 = w.data64, _f64(g)
    dx = np.multiply.outer(g64, wd) if wd.ndim == 1 else np.matmul(wd, g64[..., None])[..., 0]
    return dx.astype(x.dtype)


def _product_dw(g, x, w):
    """dL/dw of ``_product(x, w)``: row i's term is ``x_i * g_i``, the outer
    product in the working dtype (in f64 the product of two f32 values is
    exact, so that is the f64 product rounded once). For a 1-D ``x`` the
    one row's term is the whole gradient; for a 2-D ``x`` the rows' terms
    come unsummed (``_RowTerms``)."""
    terms = x * g[..., None] if w.data.ndim == 1 else x[..., None] * g[..., None, :]
    terms = terms.astype(x.dtype, copy=False)
    return terms if x.ndim == 1 else _RowTerms(terms, range(len(terms)))


def _bw_matmul(g, saved, ctx):
    x, w = saved
    return _product_dx(g, x.data, w), _product_dw(g, x.data, w)


def matmul(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    return _trace("matmul", (a, b), _product("matmul", a.data, b), (a, b), None, _bw_matmul)


def _bw_transpose(g, saved, ctx):
    return (g.T.copy(),)


def transpose(a):
    """The 2-D ``a`` with its axes swapped; the gradient is swapped back."""
    a = _as_tensor(a)
    if a.data.ndim != 2:
        raise ValueError(f"transpose: input must be 2-D, got {a.data.shape}")
    return _trace("transpose", (a,), a.data.T.copy(), (), None, _bw_transpose)


def _dot_dx(g, y64):
    """dL/dx of ``dot(x, y)`` for upstream gradient ``g``, with ``y64`` the
    float64 ``y``: their product, rounded to ``g``'s dtype."""
    return (y64 * _f64(g)[..., None]).astype(g.dtype)


def _bw_dot(g, saved, ctx):
    a, b = saved
    return _dot_dx(g, b.data64), _dot_dx(g, _f64(a.data))


def _dots(op, a, b):
    """The array of ``dot(a, b)``, with its check: each row's dot is one
    stacked (1, n) x (n, 1) product in float64, rounded to the working
    dtype."""
    if a.data.ndim not in (1, 2) or a.data.shape != b.data.shape:
        raise ValueError(f"{op}: operands must be 1-D or (B, n) rows of one shape, got "
                         f"{a.data.shape} and {b.data.shape}")
    out = np.matmul(_f64(a.data)[..., None, :], b.data64[..., None])[..., 0, 0]
    return out.astype(_STATE.dtype)


def dot(a, b):
    """1-D a . b, or the (B,) dots of two (B, n) batches of rows: a 1-D pair
    is the one-row batch, so row i gets the bits the 1-D dot of ``a[i]`` and
    ``b[i]`` gets."""
    a, b = _as_tensor(a), _as_tensor(b)
    return _trace("dot", (a, b), _dots("dot", a, b), (a, b), None, _bw_dot)


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


def stack(parts):
    """0-D scalars as a vector, or equal 1-D rows as a (B, n) batch; row i
    holds ``parts[i]``'s bits and its gradient is row i of the batch's."""
    parts = [_as_tensor(p) for p in parts]
    if not parts:
        raise ValueError("stack: no inputs")
    shape = parts[0].data.shape
    if len(shape) > 1 or any(p.data.shape != shape for p in parts):
        raise ValueError("stack: inputs must be 0-D scalars or 1-D rows of one length; got ["
                         + ", ".join(str(p.data.shape) for p in parts) + "]")
    out = np.array([p.data for p in parts], dtype=_STATE.dtype)
    return _trace("stack", tuple(parts), out, (), len(parts), _bw_stack)


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
    full = np.full(shape, -0.0, dtype=g.dtype)
    full[i] = g
    return (full,)


def row(m, i):
    """Row ``i`` of the 2-D ``m``, or the (k, n) rows listed in ``i`` (distinct
    indices, in the order given). The backward rule fills the other rows
    with -0.0, the additive identity, so the gradients of a batch split into
    its rows add up to each row's own gradient, the sign of a zero kept."""
    m = _as_tensor(m)
    if m.data.ndim != 2:
        raise ValueError("row: input must be 2-D")
    many = isinstance(i, (list, tuple, range))
    idx = [int(j) for j in i] if many else int(i)
    listed, n = idx if many else [idx], m.data.shape[0]
    if not all(0 <= j < n for j in listed) or len(set(listed)) != len(listed):
        raise ValueError(f"row: index {i} out of range for {n} rows, or repeated")
    return _trace("row", (m,), m.data[idx].copy(), (), (m.data.shape, idx), _bw_row)


def _bw_pool_tokens(g, saved, ctx):
    shape, inv, rows, order = ctx
    gs = g.reshape(len(inv), -1) * inv
    full = np.full(shape, -0.0, dtype=g.dtype)
    np.add.at(full, order, gs[rows])
    return (full,)


def pool_tokens(embed, tokens):
    """Mean of the rows of the (V, E) ``embed`` that a prompt's tokens name:
    a list of token lists to (B, E), or one token list, the one-prompt
    batch, to (E,). Each prompt's rows
    are added in sorted token order, position by position in the working
    dtype (a prompt that has run out of tokens is masked, never padded with
    a zero, which would turn a -0.0 into +0.0), then multiplied by 1/len.
    The backward rule returns the whole (V, E) gradient, added onto -0.0
    one token at a time: prompts last to first, each prompt's tokens last to
    first, duplicates one by one, as the pooling written out with ``row``
    and ``add`` on one tape adds them."""
    embed = _as_tensor(embed)
    single = len(tokens) > 0 and isinstance(tokens[0], (int, np.integer))
    prompts = [sorted(int(t) for t in p) for p in ([tokens] if single else tokens)]
    if embed.data.ndim != 2:
        raise ValueError(f"pool_tokens: embedding table must be 2-D, got {embed.data.shape}")
    if not prompts or not all(prompts):
        raise ValueError(f"pool_tokens: empty prompt in {tokens!r}")
    vocab = embed.data.shape[0]
    bad = [t for p in prompts for t in p if not 0 <= t < vocab]
    if bad:
        raise ValueError(f"pool_tokens: token {bad[0]} outside vocabulary [0, {vocab})")
    lengths = np.array([len(p) for p in prompts])
    longest = int(lengths.max())
    index = np.array([p + p[:1] * (longest - len(p)) for p in prompts])
    acc = embed.data[index[:, 0]]
    for pos in range(1, index.shape[1]):
        np.add(acc, embed.data[index[:, pos]], out=acc, where=(lengths > pos)[:, None])
    inv = (1.0 / lengths).astype(_STATE.dtype)[:, None]
    out = acc * inv
    if single:
        out = out[0]
    # the backward scatter's order: prompts last to first, tokens last to first
    rows = [b for b in reversed(range(len(prompts))) for _ in prompts[b]]
    order = [t for p in reversed(prompts) for t in reversed(p)]
    return _trace("pool_tokens", (embed,), out, (), (embed.data.shape, inv, rows, order),
                  _bw_pool_tokens)


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
    return ga, _RowTerms(g[ctx, :], ctx)


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


def _mean(x):
    """The array of ``tensor_mean`` of the array ``x``, with its check."""
    if x.size == 0:
        raise ValueError("mean: empty tensor")
    return np.asarray((x.sum(dtype=np.float64) / x.size).astype(_STATE.dtype))


def tensor_mean(a):
    a = _as_tensor(a)
    return _trace("mean", (a,), _mean(a.data), (), (a.data.shape, a.data.size), _bw_mean)


def _bw_row_mean(g, saved, ctx):
    return (np.repeat((g / ctx[1])[:, None], ctx[1], axis=1),)


def _row_mean(x):
    """The array of ``row_mean`` of the array ``x``, with its check."""
    if x.ndim != 2 or x.shape[1] == 0:
        raise ValueError(f"row_mean: input must be (B, n) with n >= 1, got {x.shape}")
    return (x.sum(axis=1, dtype=np.float64) / x.shape[1]).astype(_STATE.dtype)


def row_mean(a):
    """Mean of each row of a (B, n) batch: the (B,) vector of what
    ``tensor_mean`` gives each row alone (float64 row sums)."""
    a = _as_tensor(a)
    return _trace("row_mean", (a,), _row_mean(a.data), (), a.data.shape, _bw_row_mean)


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


# exp may overflow to inf for very negative inputs; 1/(1+inf) saturates to
# exactly 0.0, which is the correct limit, so the warning is noise. The
# decorator form is thread-safe and sets the error state for exp alone.
_exp_saturating = np.errstate(over="ignore")(np.exp)


# 1 as a 0-D array of each float dtype: the same sums as the Python float,
# on NumPy's quicker path for two arrays
_ONES = {np.dtype(t): np.ones((), t) for t in (np.float32, np.float64)}


def _sigmoid(x):
    """1 / (1 + exp(-x)), as ``reciprocal`` of ``exp(-x) + 1``: the same IEEE
    operations on NumPy's quicker paths."""
    e = _exp_saturating(-x)
    return np.reciprocal(e + _ONES.get(e.dtype, 1.0))


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
# fused ops: one node where a chain of the primitives above would record
# several, bit for bit that chain, forward and backward


def _interior(arr):
    """An array a fused op computes on the way, as the op it stands for
    would have made it: in the working dtype, trapped under debug_checks."""
    arr = np.asarray(arr, dtype=_STATE.dtype)
    if _STATE.debug and not np.all(np.isfinite(arr)):
        raise AutodiffError("non-finite tensor value")
    return arr


def _bw_cosine(g, saved, ctx):
    """Yields the gradients as the chain's sweep gives them: ``dot(b, b)``'s
    two through its ``sqrt``, ``dot(a, a)``'s two through its ``sqrt`` (None
    for an operand that needs none: the chain records no such dot), then
    ``dot(a, b)``'s two."""
    a, b, na, nb, den, out = saved
    g_den = -g * out.data / den
    for x, n, other, needs in ((b, nb, na, ctx[1]), (a, na, nb, ctx[0])):
        # mul's gradient to one norm, then sqrt's to its dot
        gx = _dot_dx(g_den * other / (2.0 * n), x.data64) if needs else None
        yield gx
        yield gx
    g_ab = g / den
    yield _dot_dx(g_ab, b.data64)
    yield _dot_dx(g_ab, a.data64)


def cosine_similarity(a, b):
    """cos(a, b); for (B, n) rows, the (B,) cosines of paired rows. Raises on
    a zero-norm operand or row.

    Bit for bit the chain ``div(dot(a, b), mul(sqrt(dot(a, a)),
    sqrt(dot(b, b))))``,
    forward and backward, recorded as one node whose inputs are
    ``(b, b, a, a, a, b)``: ``dot(b, b)``'s, ``dot(a, a)``'s and
    ``dot(a, b)``'s, the order in which the chain's sweep gives them
    gradients. The node keeps what the chain's nodes kept: both operands,
    both norms, their product and the output."""
    a, b = _as_tensor(a), _as_tensor(b)
    if not (np.all(np.linalg.norm(a.data, axis=-1)) and np.all(np.linalg.norm(b.data, axis=-1))):
        raise ValueError("cosine_similarity: zero-norm operand")
    ab = _interior(_dots("cosine_similarity", a, b))
    na = _interior(np.sqrt(_interior(_dots("cosine_similarity", a, a))))
    nb = _interior(np.sqrt(_interior(_dots("cosine_similarity", b, b))))
    den = _interior(na * nb)
    return _trace("cosine_similarity", (b, b, a, a, a, b), ab / den, (a, b, na, nb, den),
                  (a._needs, b._needs), _bw_cosine, save_out=True)


def _bw_squared_error(g, saved, ctx):
    """The mean's gradient, ``mul(d, d)``'s two equal terms added as the
    sweep adds them, then ``sub``'s two."""
    sa, sb, bw_mean, mean_ctx = ctx
    (d,) = saved
    (g_sq,) = bw_mean(g, (), mean_ctx)
    g_d = g_sq * d + g_sq * d
    return (None if sa is None else _unbroadcast(g_d, sa),
            None if sb is None else _unbroadcast(-g_d, sb))


def squared_error(a, b):
    """Mean squared error between two same-shape tensors; for (B, n) rows,
    the (B,) vector of each row's error.

    Bit for bit the chain ``d = sub(a, b)``, ``mul(d, d)``, then
    ``row_mean`` of (B, n) rows or ``tensor_mean`` of anything else,
    forward and backward, recorded as one node whose inputs are ``sub``'s,
    ``(a, b)``, with ``sub``'s operand rule and errors. The node keeps
    ``d``, as the chain's ``mul`` did."""
    a, b, ctx = _operands("sub", a, b)
    d = _interior(a.data - b.data)
    sq = _interior(d * d)
    if sq.ndim == 2:
        out, ctx = _row_mean(sq), ctx + (_bw_row_mean, sq.shape)
    else:
        out, ctx = _mean(sq), ctx + (_bw_mean, (sq.shape, sq.size))
    return _trace("squared_error", (a, b), out, (d,), ctx, _bw_squared_error)


def _bw_weighted_sum(g, saved, ctx):
    return tuple(g * w if needs else None for w, needs in ctx)


def weighted_sum(terms, weights):
    """``terms[0] * weights[0] + terms[1] * weights[1] + ...`` for terms of
    one shape and constant weights, added left to right in the working
    dtype: bit for bit ``add(... add(mul(t0, w0), mul(t1, w1)) ...,
    mul(tk, wk))``, forward and backward, recorded as one node whose inputs
    are the terms, last first, the order in which that chain's sweep gives
    them gradients."""
    terms = [_as_tensor(t) for t in terms]
    if not terms or len(weights) != len(terms) or not all(_scalar(w) for w in weights):
        raise ValueError("weighted_sum: need one constant weight per term, and a term")
    shape = terms[0].data.shape
    if any(t.data.shape != shape for t in terms):
        raise ValueError("weighted_sum: terms of different shapes ["
                         + ", ".join(str(t.data.shape) for t in terms) + "]")
    # each weight as mul takes a constant: a 0-D array of the working dtype
    ws = [np.asarray(w, _STATE.dtype) for w in weights]
    out = None
    for t, w in zip(terms, ws):
        term = _interior(t.data * w)
        out = term if out is None else _interior(out + term)
    return _trace("weighted_sum", terms[::-1], out, (),
                  tuple((w, t._needs) for t, w in zip(terms[::-1], ws[::-1])), _bw_weighted_sum)


def _bw_axpby(g, saved, ctx):
    a, b = ctx
    return g * b, g * a


def axpby_kernel(x, a, y, b):
    """The arithmetic of ``axpby`` on same-shape arrays ``x`` and ``y``:
    ``x * a + y * b``, trapped under debug_checks. Every operand comes in
    the working dtype, so the result has it: the walk's step table and
    guidance pair hold 0-D arrays of it (the same products as its scalars,
    on NumPy's quicker array path), and ``axpby`` passes its scalars. With
    debug off, nothing is checked."""
    out = x * a + y * b
    return _interior(out) if _STATE.debug else out


def axpby(x, a, y, b):
    """``x * a + y * b`` for same-shape ``x`` and ``y`` and the constants
    ``a`` and ``b``, in the working dtype: bit for bit
    ``add(mul(x, a), mul(y, b))``, recorded as one node whose inputs are
    ``(y, x)``, the order in which that chain's sweep gives them gradients."""
    x, y = _as_tensor(x), _as_tensor(y)
    if not (_scalar(a) and _scalar(b)):
        raise ValueError("axpby: a and b must be scalar constants")
    if x.data.shape != y.data.shape:
        raise ValueError(f"axpby: shape mismatch {x.data.shape} vs {y.data.shape}")
    dt = _STATE.dtype
    a, b = dt.type(a), dt.type(b)
    return _trace("axpby", (y, x), axpby_kernel(x.data, a, y.data, b), (), (a, b), _bw_axpby)


def _mlp_input(arrays):
    """The first layer's input array: the one part's array, or the parts'
    last-axis concatenation with each 1-D part repeated over the rows of
    the 2-D ones, as ``broadcast_rows`` and ``concat`` make it; 1-D parts
    alone join as the one-row batch, and the join is that row."""
    if len(arrays) == 1 and 0 < arrays[0].ndim < 3:
        return arrays[0]
    rows = {a.shape[0] for a in arrays if a.ndim == 2}
    if len(arrays) < 2 or len(rows) > 1 or not {a.ndim for a in arrays} <= {1, 2}:
        raise ValueError("mlp: parts must be 1-D, or 2-D with equal row counts; got ["
                         + ", ".join(str(a.shape) for a in arrays) + "]")
    # a fresh C-ordered join, each 1-D part repeated over the rows: a
    # product's bits follow memory order
    n = max(rows, default=1)
    x = np.concatenate([a if a.ndim == 2 else a[None].repeat(n, 0) for a in arrays], -1)
    return _interior(x if rows else x[0])


class _Work(list):
    """An ``_mlp_work`` workspace: a tuple of arrays per layer, and
    ``layers``, the ``(w, b)`` Tensors it was built from and steps."""


def _mlp_work(shape, layers):
    """A fresh ``mlp_kernel`` workspace for an input of ``shape``, with
    ``_product_shape``'s checks of every layer: per layer, the float64 input,
    it as (B, 1, K) rows (a 1-D input the one row), the float64 (B, 1, H)
    product and its view in the output's shape, the output in the working
    dtype, the bias in the output's shape and, below the last layer, the
    activation (a silu's sigmoid is made in it first). A bias of one row's
    shape is copied to every row in its own dtype, so adding the copy
    rounds as adding the row does; a bias of the output's shape is its own
    array."""
    dt, work, last = _STATE.dtype, _Work(), len(layers) - 1
    for i, (w, b) in enumerate(layers):
        out = _product_shape("mlp", shape, w, b)
        x64 = np.empty(shape)
        rows = x64.reshape(-1, 1, shape[-1])
        prod = np.empty(rows.shape[:-1] + w.data.shape[1:])
        bias = b.data
        if bias.shape != out:
            bias = np.empty(out, bias.dtype)
            bias[...] = b.data
        work.append((x64, rows, prod, prod.reshape(out), np.empty(out, dt), bias,
                     None if i == last else np.empty(out, dt)))
        shape = out
    work.layers = [(w, b) for w, b in layers]
    return work


def mlp_kernel(x, work, act, xs=None, pres=None):
    """The arithmetic of ``mlp`` on its first layer's input array ``x``
    (``_mlp_input``'s join), with ``act`` checked by the caller, over the
    layers of ``work``, an ``_mlp_work`` workspace for ``x``'s shape, into
    its arrays: the next call through ``work`` overwrites what this one
    returns. Returns the output array. Each layer rounds its product to the
    working dtype, then adds the workspace's bias (one of another dtype in
    the wider one, rounded once). Under debug_checks each layer's product
    is trapped (an activation of a finite array is finite). A 2-D ``x`` is
    the first layer's input as it is: each row's bits follow from that row
    alone, so a caller may stack rows of different conditionings into one
    pass. With ``xs`` and ``pres`` lists, appends what the taped node keeps:
    each layer's input and each silu pre-activation."""
    debug, silu, one = _STATE.debug, act == "silu", _ONES.get(_STATE.dtype, 1.0)
    for (w, _), (x64, rows, prod, prod_rows, out, bias, y) in zip(work.layers, work):
        if xs is not None:
            xs.append(x)
        x64[...] = x
        np.matmul(rows, w.data64, out=prod)
        out[...] = prod_rows
        np.add(out, bias, out=out)
        if debug and not np.all(np.isfinite(out)):
            raise AutodiffError("non-finite tensor value")
        if y is None:
            return out
        if silu:
            if pres is not None:
                pres.append(out)
            # out * _sigmoid(out) in y: the same IEEE operations
            np.negative(out, out=y)
            _exp_saturating(y, out=y)
            np.add(y, one, out=y)
            np.reciprocal(y, out=y)
            np.multiply(out, y, out=y)
        else:
            np.tanh(out, out=y)
        x = y


def _bw_mlp(g, saved, ctx):
    """Yields the gradients one at a time in the node's input order, last
    layer first, as the chain's sweep gives them: the sweep sums or keeps a
    weight's row terms before the layer below makes its own."""
    act, shapes, biases, needs, onward, gets = ctx
    n = len(biases)
    xs, pres, ws = saved[:n], saved[n:-n], saved[-n:]
    for i in reversed(range(n)):
        x = xs[i].data if type(xs[i]) is Tensor else xs[i]
        yield _product_dw(g, x, ws[i]) if needs[i][0] else None
        yield _unbroadcast(g, biases[i]) if needs[i][1] else None
        if not onward[i]:  # Nones keep a fused node's later ids aligned
            yield from itertools.repeat(None, 2 * i + len(shapes))
            return
        g = _product_dx(g, x, ws[i])
        if i and act == "silu":
            a = pres[i - 1]
            s = _sigmoid(a)
            g = g * (s + a * s * (1.0 - s))
        elif i:
            g = g * (1.0 - x * x)
    offset = 0
    for shape, get in zip(shapes, gets):
        yield _unbroadcast(g[..., offset:offset + shape[-1]], shape) if get else None
        offset += shape[-1]


def mlp(parts, layers, act):
    """A dense stack as one op: the layers ``(w, b)`` in order over the
    last-axis concatenation of ``parts``, with ``act`` ("silu" or "tanh")
    after every layer but the last.

    Bit for bit the chain ``concat`` (of each 1-D part ``broadcast_rows``
    over the rows of the 2-D parts), then per layer ``add(matmul(x, w),
    b)`` (a row bias broadcast too) and ``act`` below the last, forward
    and backward, recorded as one node whose inputs are the weights and
    biases, last layer first, then the parts: the order in which the
    chain's sweep gives them gradients. The gradient of a weight, a row
    bias or a broadcast part comes as the rows' unsummed terms. The
    backward rule computes nothing for a weight or bias that needs no
    gradient, and gives a part a gradient, which a tap on it sees, where
    the chain's recorded nodes would: the one part whenever the first
    layer is reached (the chain's first ``matmul`` is not when only its
    bias needs a gradient), several parts only when one of them needs a
    gradient (else ``concat`` is not recorded), and a broadcast part only
    when it needs one. The node keeps the arrays the chain's nodes kept:
    each layer's input and, for silu, each pre-activation; ``TapeStats``
    counts them."""
    if act not in ("silu", "tanh") or not layers:
        raise ValueError(f"mlp: need at least one layer and act 'silu' or 'tanh', got {act!r}")
    parts = [_as_tensor(p) for p in parts]
    layers = [(_as_tensor(w), _as_tensor(b)) for w, b in layers]
    xs, pres, x = [], [], _mlp_input([p.data for p in parts])
    out = mlp_kernel(x, _mlp_work(x.shape, layers), act, xs, pres)
    if _active_tape() is None:
        return Tensor._wrap(out, False)
    if len(parts) == 1:
        xs[0] = parts[0]
    inputs, ctx = _mlp_node(act, parts, layers, out.ndim)
    return _trace("mlp", inputs, out, (*xs, *pres, *(w for w, _ in layers)), ctx, _bw_mlp)


def _mlp_node(act, parts, layers, ndim):
    """``mlp``'s node inputs and backward context, for an output of rank ``ndim``."""
    # onward[i]: layer i passes a gradient down to its input; at the first
    # layer, to the one part or a recorded concat, above it, to an
    # activation that needs one
    joined = any([p._needs for p in parts])
    onward, below = [len(parts) == 1 or joined], joined
    for w, b in layers[:-1]:
        below = below or w._needs or b._needs
        onward.append(below)
    # a broadcast part that needs no gradient has no recorded broadcast_rows
    gets = (True,) if len(parts) == 1 else tuple(
        [joined and (p._needs or p.data.ndim == ndim) for p in parts])
    ctx = (act, tuple([p.data.shape for p in parts]), tuple([b.data.shape for _, b in layers]),
           tuple([(w._needs, b._needs) for w, b in layers]), onward, gets)
    return (*(t for w, b in reversed(layers) for t in (w, b)), *parts), ctx


class _StepRows(tuple):
    """A ``step_rows`` buffer, the tuple (rows, stack, work), with the views
    a step writes and reads: ``latent`` and ``temb``, the rows' latent and
    time-embedding columns, and ``halves``, the cond and uncond rows of the
    last layer's output (None without guidance); the step's fixed inputs:
    ``c`` and ``null``, the conditioning Tensors written into its rows
    (``null`` None without guidance), and ``cfg``, the guidance pair; and
    its ``writer``: the token of the taped ``mlp_step`` whose activations
    the buffer holds, None once a step that keeps nothing has written it."""

    writer = None


def step_rows(z, c, null, cfg, layers):
    """A fresh ``mlp_step_kernel`` buffer, the one source of its steps'
    fixed inputs, kept as they are now: the conditioning Tensor ``c``, the
    guidance pair ``cfg`` (None for none) with the null conditioning Tensor
    ``null`` (read only under guidance) and the silu stack ``layers``. As
    (rows, stack, work): (2, B, width) rows for latents of ``z``'s shape
    with the conditioning columns written, c's over null's, their (2B,
    width) stack, or without guidance, ``z``'s rows twice, and the stack's
    ``_mlp_work`` workspace. A detached walk makes one per walk, a
    fine-tune step one for its walk and all its recorded steps."""
    width, d, cw = layers[0][0].data.shape[0], z.shape[-1], c.data.shape[-1]
    n = z.shape[0] if z.ndim == 2 else 1
    stack = np.empty(z.shape[:-1] + (width,) if cfg is None else (2 * n, width), _STATE.dtype)
    rows = stack if cfg is None else stack.reshape(2, n, width)
    rows[..., width - cw:] = c.data
    if cfg is not None:
        rows[1, :, width - cw:] = null.data
    work = _mlp_work(stack.shape, layers)
    buffer = _StepRows((rows, stack, work))
    buffer.latent, buffer.temb = rows[..., :d], rows[..., d:width - cw]
    eps = work[-1][4]  # the last layer's output
    buffer.halves = None if cfg is None else (eps[:n], eps[n:])
    buffer.c, buffer.null, buffer.cfg = c, None if cfg is None else null, cfg
    return buffer


def mlp_step_kernel(buffer, z, temb, pairs, xs=None, pres=None):
    """``mlp_step``'s arithmetic over the ``step_rows`` buffer ``buffer``,
    which gives the layers, the conditioning and the guidance pair: writes
    ``z`` and ``temb`` into the buffer's columns, makes one ``mlp_kernel``
    pass over the stack in the buffer's workspace (``xs`` and ``pres`` are
    its lists), guides the output's halves and applies the sampler
    ``pairs``; returns the new latent, a fresh array, one (1, D) row for a
    guided 1-D ``z``. Each row's bits follow from that row alone. The
    buffer's writer is None after it."""
    _, stack, work = buffer
    buffer.writer = None
    buffer.latent[...] = z
    buffer.temb[...] = temb
    eps = mlp_kernel(stack, work, "silu", xs, pres)
    cfg = buffer.cfg
    if cfg is not None:
        cond, uncond = buffer.halves
        eps = axpby_kernel(cond, cfg[0], uncond, cfg[1])
    for a, b in pairs:
        z = axpby_kernel(z, a, eps, b)
    return z


def _bw_mlp_step(g, saved, ctx):
    """Yields the gradients as the chain's sweep gives them: the sampler
    pairs last first (eps adds ``g * b`` terms, z takes ``g * a`` products),
    the guidance split, ``_bw_mlp`` over the uncond rows, then the cond rows.
    When another step has written the buffer the saved arrays live in since
    this node's forward, it first reruns ``mlp_step_kernel`` from the node's
    input latent, which writes the same bits into the same arrays."""
    pairs, blocks, branches, buffer, writer, z, temb = ctx
    if buffer.writer is not writer:
        mlp_step_kernel(buffer, z, temb, pairs)
        buffer.writer = writer
    cfg, ws = buffer.cfg, [w for w, _ in buffer[2].layers]
    ge = None
    for a, b in reversed(pairs):
        ge = g * b if ge is None else ge + g * b
        g = g * a
    yield g
    split = [(None, ge)] if cfg is None else [(1, ge * cfg[1]), (0, ge * cfg[0])]
    for (k, gk), branch in zip(split, branches):
        yield from _bw_mlp(gk, [x if k is None else x.reshape(blocks)[k] for x in saved] + ws,
                           branch)


def mlp_step(z, temb, pairs, buffer):
    """A guided sampler step around a silu dense stack as one node, over the
    ``step_rows`` buffer ``buffer``, whose layers, conditioning ``c``, null
    conditioning and guidance pair ``cfg`` the step reads: bit for bit the
    chain of 2 to 5: ``mlp`` over [z, temb, c] and, under guidance, over
    [z, temb, null], combined by ``axpby``, then an ``axpby`` (z, a, eps, b)
    per sampler pair; ``temb`` and the constants are arrays of the working
    dtype. Its inputs are z, then the unconditional ``mlp``'s, then the
    conditional one's, the order the chain's sweep gives them gradients in:
    each leaf is counted and folded as there, and a branch that needs
    nothing gets nothing.

    The node keeps arrays of the buffer, and its input latent to recompute
    them: steps that share a buffer each get their own activations back in
    backward, the last one written as it is, each earlier one by one rerun
    of the kernel."""
    z = _as_tensor(z)
    xs, pres = [], []
    out = mlp_step_kernel(buffer, z.data, temb, pairs, xs, pres).reshape(z.shape)
    if _active_tape() is None:
        return Tensor._wrap(out, False)
    t, layers = Tensor._wrap(temb, False), buffer[2].layers
    nodes = [_mlp_node("silu", [z, t, cond], layers, out.ndim)
             for cond in ((buffer.c,) if buffer.cfg is None else (buffer.null, buffer.c))]
    buffer.writer = object()
    ctx = (pairs, (2,) + z.shape[:-1] + (-1,), [n[1] for n in nodes], buffer, buffer.writer,
           z.data, temb)
    return _trace("mlp_step", (z, *(i for n in nodes for i in n[0])), out, (*xs, *pres), ctx,
                  _bw_mlp_step)


# ---------------------------------------------------------------------------
# the time embedding


def time_embedding_array(t, dim):
    """Sinusoidal embedding of an integer timestep, or a (B, dim) row per
    timestep of a sequence, as a fresh array of the working dtype: a
    constant to autodiff, since t is never a learned quantity. The float64
    values are computed once per (t, dim)."""
    if isinstance(t, (int, np.integer)):
        return _time_angles(t, dim).astype(_STATE.dtype)
    return np.array([_time_angles(int(s), dim) for s in t], dtype=_STATE.dtype)


@functools.lru_cache(maxsize=4096)
def _time_angles(t, dim):
    if dim % 2 != 0:
        raise ValueError("time_embedding_array: dim must be even")
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

    Returns a map from tensor id to its gradient array, the only place a
    gradient is kept: each requires_grad leaf that a gradient reaches, and
    each tensor named in ``tap_ids`` that a gradient reaches. A leaf no
    gradient reaches is absent (``finetune.collect_grads`` gives it zeros).
    A leaf that batched nodes reach gets their per-row terms folded
    item-major (``_fold_rows``); one leaf may not get both kinds. A binary
    op gives an operand that needs no gradient nothing, so a tap on it
    reads nothing from that node.
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
    for leaf_id in tape._uses:
        g = grads.get(leaf_id)
        if g is not None:  # a 0-D sum can be a NumPy scalar
            result[leaf_id] = np.asarray(_fold_rows(g) if type(g) is list else g)
    return result


def _mixed(iid, op):
    return AutodiffError(f"backward of '{op}': leaf id={iid} receives both whole "
                         "gradients and per-row terms of a batch")


def _sweep(tape, nodes, grads, taps, tap_set):
    """Push gradients through ``nodes`` in reverse. The ``_RowTerms`` of a
    leaf that several recorded nodes read are kept in a list under its id in
    ``grads``, for ``backward``'s fold; any other tensor's are summed at once
    (for a leaf one node reads, that sum is the fold), so a batched tape with
    one node per leaf frees each node's terms as it goes."""
    debug = _STATE.debug
    uses = tape._uses
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
            if debug and not np.all(np.isfinite(getattr(ig, "terms", ig))):
                raise AutodiffError(f"non-finite gradient in backward of '{node.op}'")
            if type(ig) is _RowTerms:
                if uses.get(iid, 0) > 1:
                    parts = grads.setdefault(iid, [])
                    if type(parts) is not list:
                        raise _mixed(iid, node.op)
                    parts.append(ig)
                    continue
                ig = ig.total()
            if iid in tap_set:
                prev = taps.get(iid)
                taps[iid] = ig.copy() if prev is None else prev + ig
            acc = grads.get(iid)
            if acc is None:
                grads[iid] = ig
            elif type(acc) is list:
                raise _mixed(iid, node.op)
            else:
                grads[iid] = acc + ig


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
    call. The fine-tune chain does without it: its recorded steps are
    ``mlp_step`` nodes that recompute their own activations.
    """
    inputs = tuple(inputs)
    for t in inputs:
        if not isinstance(t, Tensor):
            raise AutodiffError("checkpoint_segment: boundary inputs must be Tensors")
    tape = _active_tape()
    if tape is None:
        return fn(*inputs)
    tape._check_guard("segment", inputs)
    boundary = tape.stats.boundary
    boundary.update(t.id for t in inputs)
    outs, scratch = _run_segment(tape, fn, inputs)
    outs_t = outs if isinstance(outs, tuple) else (outs,)
    if not all(isinstance(o, Tensor) for o in outs_t):
        raise AutodiffError("checkpoint_segment: outputs must be Tensors")
    # release before the outputs become boundaries: an output the segment's
    # last op saved (tanh, exp, ...) was counted as interior while fn ran
    _release(tape, scratch)
    boundary.update(o.id for o in outs_t)
    if scratch:
        tape._target.append(SegmentNode(fn, inputs, tuple(o.id for o in outs_t), len(scratch)))
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
