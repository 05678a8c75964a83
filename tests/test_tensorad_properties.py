"""Property tests: every differentiable tensorad op's backward rule against
the central-difference oracle, over hypothesis-drawn shapes and values.

Runs in float64 so the difference quotient is not drowned by rounding noise.
The draws are derandomized, so every run checks the same examples.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from rewardtune import tensorad as ta
from rewardtune.tensorad import Tape, Tensor, backward, finite_diff_grad

_SETTINGS = settings(derandomize=True, max_examples=20, deadline=None, database=None)
_LENGTHS = st.integers(1, 8)
_DIMS = st.integers(1, 6)


def _values(shape, lo=-2.0, hi=2.0):
    return hnp.arrays(np.float64, shape, elements=st.floats(lo, hi))


def _signed(lo, hi):
    """Floats with lo <= |x| <= hi, either sign: divisors kept off zero."""
    return st.tuples(st.floats(lo, hi), st.booleans()).map(lambda p: -p[0] if p[1] else p[0])


def _readout(out):
    # a fixed weighting turns any output into a scalar the oracle can see
    if out.data.ndim == 0:
        return out
    w = Tensor(np.linspace(0.5, 1.5, out.data.size).reshape(out.data.shape))
    return ta.tensor_sum(ta.mul(out, w))


def _check_backward(build, arrays, h=1e-6):
    with ta.default_dtype(np.float64):
        params = {k: Tensor(a, requires_grad=True) for k, a in arrays.items()}
        with Tape() as tape:
            grads = backward(tape, _readout(build(params)))
        fd = finite_diff_grad(lambda p: _readout(build(p)), params, h=h)
    for k, t in params.items():
        np.testing.assert_allclose(grads[t.id], fd[k], rtol=1e-5, atol=1e-6, err_msg=k)


# (op, input range): log and sqrt need positive inputs
_UNARY = {
    "neg": (ta.neg, (-2.0, 2.0)),
    "tanh": (ta.tanh, (-2.0, 2.0)),
    "silu": (ta.silu, (-2.0, 2.0)),
    "exp": (ta.exp, (-2.0, 2.0)),
    "log": (ta.log, (0.5, 3.0)),
    "sqrt": (ta.sqrt, (0.5, 3.0)),
    "tensor_sum": (ta.tensor_sum, (-2.0, 2.0)),
    "tensor_mean": (ta.tensor_mean, (-2.0, 2.0)),
}


@pytest.mark.parametrize("name", sorted(_UNARY))
@_SETTINGS
@given(data=st.data())
def test_unary(name, data):
    op, (lo, hi) = _UNARY[name]
    a = data.draw(_LENGTHS.flatmap(lambda n: _values(n, lo, hi)))
    _check_backward(lambda p: op(p["a"]), {"a": a})


@pytest.mark.parametrize("name", ["add", "sub", "mul", "div", "dot"])
@_SETTINGS
@given(data=st.data())
def test_binary_same_shape(name, data):
    n = data.draw(_LENGTHS)
    a = data.draw(_values(n))
    b = data.draw(hnp.arrays(np.float64, n, elements=_signed(0.5, 3.0)) if name == "div"
                  else _values(n))
    op = getattr(ta, name)
    _check_backward(lambda p: op(p["a"], p["b"]), {"a": a, "b": b})


# (label, op with the scalar s on the given side)
_SCALAR_SIDES = {
    "add-right": lambda a, s: ta.add(a, s),
    "add-left": lambda a, s: ta.add(s, a),
    "sub-right": lambda a, s: ta.sub(a, s),
    "sub-left": lambda a, s: ta.sub(s, a),
    "mul-right": lambda a, s: ta.mul(a, s),
    "mul-left": lambda a, s: ta.mul(s, a),
    "div-right": lambda a, s: ta.div(a, s),
}


@pytest.mark.parametrize("label", sorted(_SCALAR_SIDES))
@_SETTINGS
@given(data=st.data())
def test_python_scalar_operand(label, data):
    a = data.draw(_LENGTHS.flatmap(_values))
    s = data.draw(_signed(0.5, 3.0))
    op = _SCALAR_SIDES[label]
    _check_backward(lambda p: op(p["a"], s), {"a": a})


# a NumPy number or a 0-D array is the same constant as the Python float it holds
_SCALAR_FORMS = {
    "np.float32": np.float32,
    "np.float64": np.float64,
    "0-D f32 array": lambda s: np.array(s, dtype=np.float32),
    "0-D f64 array": lambda s: np.array(s, dtype=np.float64),
}


def _scalar_op_bytes(op, a, s, dtype):
    with ta.default_dtype(dtype):
        x = Tensor(a, requires_grad=True)
        with Tape() as tape:
            out = op(x, s)
            grads = backward(tape, _readout(out))
    return out.data.tobytes(), grads[x.id].tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("form", sorted(_SCALAR_FORMS))
@pytest.mark.parametrize("label", sorted(_SCALAR_SIDES))
@_SETTINGS
@given(data=st.data())
def test_numpy_scalar_operand_bytes(label, form, dtype, data):
    a = data.draw(_LENGTHS.flatmap(_values))
    s = _SCALAR_FORMS[form](data.draw(_signed(0.5, 3.0)))
    op = _SCALAR_SIDES[label]
    assert _scalar_op_bytes(op, a, s, dtype) == _scalar_op_bytes(op, a, float(s), dtype)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@_SETTINGS
@given(data=st.data())
def test_dot_is_vector_matmul_bitwise(dtype, data):
    n = data.draw(_LENGTHS)
    a, b = data.draw(_values(n)), data.draw(_values(n))

    def run(op):
        with ta.default_dtype(dtype):
            x, y = Tensor(a, requires_grad=True), Tensor(b, requires_grad=True)
            with Tape() as tape:
                out = op(x, y)
                grads = backward(tape, out)
        return out.data.tobytes(), grads[x.id].tobytes(), grads[y.id].tobytes()

    assert run(ta.dot) == run(ta.matmul)


# a 0-D tensor broadcasts against a vector in mul (either side) and div (right)
_TENSOR_SCALAR_SIDES = {
    "mul-right": lambda a, s: ta.mul(a, s),
    "mul-left": lambda a, s: ta.mul(s, a),
    "div-right": lambda a, s: ta.div(a, s),
}


@pytest.mark.parametrize("label", sorted(_TENSOR_SCALAR_SIDES))
@_SETTINGS
@given(data=st.data())
def test_tensor_scalar_operand(label, data):
    a = data.draw(_LENGTHS.flatmap(_values))
    s = np.asarray(data.draw(_signed(0.5, 3.0)))
    op = _TENSOR_SCALAR_SIDES[label]
    _check_backward(lambda p: op(p["a"], p["s"]), {"a": a, "s": s})


@pytest.mark.parametrize("form", ["vec-vec", "vec-mat", "mat-vec", "mat-mat"])
@_SETTINGS
@given(data=st.data())
def test_matmul(form, data):
    m, n, k = data.draw(_DIMS), data.draw(_DIMS), data.draw(_DIMS)
    a_shape = (n,) if form.startswith("vec") else (m, n)
    b_shape = (n,) if form.endswith("vec") else (n, k)
    a, b = data.draw(_values(a_shape)), data.draw(_values(b_shape))
    _check_backward(lambda p: ta.matmul(p["a"], p["b"]), {"a": a, "b": b})


@pytest.mark.parametrize("form", ["vec-mat", "mat-mat"])
@_SETTINGS
@given(data=st.data())
def test_linear(form, data):
    m, n, k = data.draw(_DIMS), data.draw(_DIMS), data.draw(_DIMS)
    x_shape, out_shape = ((n,), (k,)) if form == "vec-mat" else ((m, n), (m, k))
    arrays = {"x": data.draw(_values(x_shape)), "w": data.draw(_values((n, k))),
              "b": data.draw(_values(out_shape))}
    _check_backward(lambda p: ta.linear(p["x"], p["w"], p["b"]), arrays)


@_SETTINGS
@given(parts=st.lists(_LENGTHS.flatmap(_values), min_size=1, max_size=3))
def test_concat(parts):
    names = [f"p{i}" for i in range(len(parts))]
    _check_backward(lambda p: ta.concat([p[k] for k in names]), dict(zip(names, parts)))


@_SETTINGS
@given(values=st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=6))
def test_stack(values):
    names = [f"s{i}" for i in range(len(values))]
    _check_backward(lambda p: ta.stack([p[k] for k in names]),
                    {k: np.asarray(v) for k, v in zip(names, values)})


@_SETTINGS
@given(data=st.data())
def test_row(data):
    m, n = data.draw(_DIMS), data.draw(_DIMS)
    i = data.draw(st.integers(0, m - 1))
    _check_backward(lambda p: ta.row(p["m"], i), {"m": data.draw(_values((m, n)))})


@_SETTINGS
@given(data=st.data())
def test_slice1d(data):
    n = data.draw(_LENGTHS)
    start = data.draw(st.integers(0, n - 1))
    stop = data.draw(st.integers(start + 1, n))
    _check_backward(lambda p: ta.slice1d(p["a"], start, stop), {"a": data.draw(_values(n))})


# ---------------------------------------------------------------------------
# batched forward ops: a (B, n) batch gives every row the bits that row alone
# gets, in float32 (the working dtype the batched chain relies on) and in
# float64, where a product's rounding is not hidden by the cast to float32

_BATCHES = [1, 2, 5]


def _rows(batch, n, lo=-3.0, hi=3.0):
    return _values((batch, n), lo, hi)


def _assert_rowwise(batched, per_row, arrays, batch):
    """``batched(arrays)`` row i equals ``per_row`` on row i of every array
    named ``r_*`` (and the other arrays whole), byte for byte."""
    for dtype in (np.float32, np.float64):
        with ta.default_dtype(dtype):
            out = batched({k: Tensor(a) for k, a in arrays.items()}).data
            assert out.shape[0] == batch
            for i in range(batch):
                want = per_row({k: Tensor(a[i] if k.startswith("r_") else a)
                                for k, a in arrays.items()}).data
                assert out[i].dtype == want.dtype == dtype
                assert out[i].tobytes() == want.tobytes(), (dtype, i)


@pytest.mark.parametrize("batch", _BATCHES)
@_SETTINGS
@given(data=st.data())
def test_linear_rows_bitwise(batch, data):
    n, k = data.draw(st.integers(1, 70)), data.draw(st.integers(1, 70))
    arrays = {"r_x": data.draw(_rows(batch, n)), "w": data.draw(_values((n, k))),
              "b": data.draw(_values(k))}
    layer = lambda p: ta.linear(p["r_x"], p["w"], p["b"])  # noqa: E731
    _assert_rowwise(layer, layer, arrays, batch)


@pytest.mark.parametrize("batch", _BATCHES)
@_SETTINGS
@given(data=st.data())
def test_concat_rows_bitwise(batch, data):
    widths = data.draw(st.lists(_LENGTHS, min_size=1, max_size=3))
    arrays = {f"r_{i}": data.draw(_rows(batch, n)) for i, n in enumerate(widths)}
    join = lambda p: ta.concat([p[k] for k in sorted(p)])  # noqa: E731
    _assert_rowwise(join, join, arrays, batch)


# elementwise ops on a batch: every (B, n) operand is split into its rows
_ELEMENTWISE = {
    "silu": lambda p: ta.silu(p["r_a"]),
    "tanh": lambda p: ta.tanh(p["r_a"]),
    "add": lambda p: ta.add(p["r_a"], p["r_b"]),
    "sub": lambda p: ta.sub(p["r_a"], p["r_b"]),
    "mul": lambda p: ta.mul(p["r_a"], p["r_b"]),
    "add-scalar": lambda p: ta.add(p["r_a"], 0.37),
    "sub-scalar": lambda p: ta.sub(p["r_a"], 0.37),
    "rsub-scalar": lambda p: ta.sub(0.37, p["r_a"]),
    "mul-scalar": lambda p: ta.mul(p["r_a"], 1.7),
    "mul-0d-tensor": lambda p: ta.mul(p["r_a"], p["s"]),
}


@pytest.mark.parametrize("name", sorted(_ELEMENTWISE))
@pytest.mark.parametrize("batch", _BATCHES)
@_SETTINGS
@given(data=st.data())
def test_elementwise_rows_bitwise(name, batch, data):
    n = data.draw(st.integers(1, 70))
    arrays = {"r_a": data.draw(_rows(batch, n, -9.0, 9.0)), "r_b": data.draw(_rows(batch, n)),
              "s": np.asarray(data.draw(_signed(0.5, 3.0)))}
    _assert_rowwise(_ELEMENTWISE[name], _ELEMENTWISE[name], arrays, batch)


@pytest.mark.parametrize("batch", _BATCHES)
@_SETTINGS
@given(a=_LENGTHS.flatmap(_values))
def test_broadcast_rows_bitwise(batch, a):
    out = ta.broadcast_rows(Tensor(a), (batch, a.size)).data
    row = Tensor(a).data
    assert out.shape == (batch, a.size)
    assert all(out[i].tobytes() == row.tobytes() for i in range(batch))
    same = Tensor(a)
    assert ta.broadcast_rows(same, same.data.shape) is same


# backward rules of the batched forms


@pytest.mark.parametrize("batch", _BATCHES)
@_SETTINGS
@given(data=st.data())
def test_linear_row_bias(batch, data):
    n, k = data.draw(_DIMS), data.draw(_DIMS)
    arrays = {"x": data.draw(_values((batch, n))), "w": data.draw(_values((n, k))),
              "b": data.draw(_values(k))}
    _check_backward(lambda p: ta.linear(p["x"], p["w"], p["b"]), arrays)


@pytest.mark.parametrize("batch", _BATCHES)
@_SETTINGS
@given(data=st.data())
def test_concat_rows(batch, data):
    widths = data.draw(st.lists(_LENGTHS, min_size=1, max_size=3))
    arrays = {f"p{i}": data.draw(_values((batch, n))) for i, n in enumerate(widths)}
    _check_backward(lambda p: ta.concat([p[k] for k in sorted(p)]), arrays)


@pytest.mark.parametrize("batch", _BATCHES)
@_SETTINGS
@given(a=_LENGTHS.flatmap(_values))
def test_broadcast_rows(batch, a):
    # through a silu so each row's gradient differs and the row sum is seen
    _check_backward(lambda p: ta.silu(ta.broadcast_rows(p["a"], (batch, a.size))), {"a": a})


# ---------------------------------------------------------------------------
# a batched tape equals B single-row tapes, forward and backward: the
# denoiser stage's op sequence (null-row put, concat, two dense layers with a
# silu, the squared error, the batch mean) over (B, ·) rows against the same
# ops on each row alone, summed as the per-row loop sums them. B >= 9 catches
# a pairwise sum where a sequential one is due.

_TAPE_BATCHES = [1, 2, 5, 9, 33]


def _batched_loss(p, nulls):
    c = ta.put_rows(p["cond"], nulls, p["null"])
    inp = ta.concat([p["x"], c])
    h = ta.silu(ta.linear(inp, p["w1"], p["b1"]))
    d = ta.sub(ta.linear(h, p["w2"], p["b2"]), p["target"])
    return ta.batch_mean(ta.row_mean(ta.mul(d, d)))


def _row_loss(p, i, null):
    c = p["null"] if null else p["cond"][i]
    inp = ta.concat([p["x"][i], c])
    h = ta.silu(ta.linear(inp, p["w1"], p["b1"]))
    d = ta.sub(ta.linear(h, p["w2"], p["b2"]), p["target"][i])
    return ta.tensor_mean(ta.mul(d, d))


def _grad(leaf):
    """A leaf's gradient; zeros for one the tape never touched."""
    return leaf.grad if leaf.grad is not None else np.zeros_like(leaf.data)


@pytest.mark.parametrize("batch", _TAPE_BATCHES)
@_SETTINGS
@given(data=st.data())
def test_batched_tape_equals_row_tapes(batch, data):
    n, m, hidden, k = (data.draw(st.integers(1, 9)) for _ in range(4))
    nulls = sorted(data.draw(st.sets(st.integers(0, batch - 1))))
    arrays = {"x": _rows(batch, n), "cond": _rows(batch, m), "target": _rows(batch, k),
              "null": _values(m), "w1": _values((n + m, hidden)), "b1": _values(hidden),
              "w2": _values((hidden, k)), "b2": _values(k)}
    arrays = {name: data.draw(s) for name, s in arrays.items()}
    row_leaves = ("x", "cond", "target")  # one leaf per row in the row tapes
    for dtype in (np.float32, np.float64):
        with ta.default_dtype(dtype):
            p = {name: Tensor(a, requires_grad=True) for name, a in arrays.items()}
            with Tape() as tape:
                loss = _batched_loss(p, nulls)
            backward(tape, loss)

            q = {name: ([Tensor(r, requires_grad=True) for r in a] if name in row_leaves
                        else Tensor(a, requires_grad=True)) for name, a in arrays.items()}
            with Tape() as tape:
                total = None
                for i in range(batch):
                    li = _row_loss(q, i, i in nulls)
                    total = li if total is None else ta.add(total, li)
                want = ta.mul(total, 1.0 / batch)
            backward(tape, want)

        assert loss.data.dtype == want.data.dtype == dtype
        assert loss.data.tobytes() == want.data.tobytes(), dtype
        for name, t in p.items():
            if name in row_leaves:
                expected = np.stack([_grad(r) for r in q[name]])
            else:
                expected = _grad(q[name])
            assert t.grad.dtype == expected.dtype == dtype, name
            assert t.grad.tobytes() == expected.tobytes(), (dtype, name)


# backward rules of the row ops, against the central-difference oracle


@pytest.mark.parametrize("batch", _BATCHES)
@_SETTINGS
@given(data=st.data())
def test_put_rows(batch, data):
    n = data.draw(_LENGTHS)
    rows = sorted(data.draw(st.sets(st.integers(0, batch - 1))))
    arrays = {"a": data.draw(_values((batch, n))), "v": data.draw(_values(n))}
    # through a silu so each row's gradient differs and the row sum is seen
    _check_backward(lambda p: ta.silu(ta.put_rows(p["a"], rows, p["v"])), arrays)


@pytest.mark.parametrize("batch", _BATCHES)
@_SETTINGS
@given(data=st.data())
def test_row_mean(batch, data):
    a = data.draw(_LENGTHS.flatmap(lambda n: _values((batch, n))))
    _check_backward(lambda p: ta.row_mean(p["a"]), {"a": a})


@_SETTINGS
@given(a=_LENGTHS.flatmap(_values))
def test_batch_mean(a):
    _check_backward(lambda p: ta.batch_mean(p["a"]), {"a": a})


@pytest.mark.parametrize("batch", _BATCHES)
@_SETTINGS
@given(data=st.data())
def test_mul_column(batch, data):
    n = data.draw(_LENGTHS)
    arrays = {"a": data.draw(_values((batch, n))), "c": data.draw(_values((batch, 1)))}
    _check_backward(lambda p: ta.mul(p["a"], p["c"]), arrays)
    _check_backward(lambda p: ta.mul(p["c"], p["a"]), arrays)
