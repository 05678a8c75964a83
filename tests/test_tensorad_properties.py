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
from rewardtune.models import ImageEncoderParams, image_encode
from rewardtune.tensorad import Tape, Tensor, backward, finite_diff_grad

from reference_ops import dense, written_out_mlp

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


# a NumPy number or a 0-D array is the same constant as the Python float it
# holds, and so is a 0-D Tensor that needs no gradient, made in the working dtype
_SCALAR_FORMS = {
    "np.float32": np.float32,
    "np.float64": np.float64,
    "0-D f32 array": lambda s: np.array(s, dtype=np.float32),
    "0-D f64 array": lambda s: np.array(s, dtype=np.float64),
    "0-D Tensor": Tensor,
}


def _scalar_op_bytes(op, a, s, dtype, form=float):
    with ta.default_dtype(dtype):
        x = Tensor(a, requires_grad=True)
        with Tape() as tape:
            out = op(x, form(s))
            grads = backward(tape, _readout(out))
    return out.data.tobytes(), grads[x.id].tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("form", sorted(_SCALAR_FORMS))
@pytest.mark.parametrize("label", sorted(_SCALAR_SIDES))
@_SETTINGS
@given(data=st.data())
def test_numpy_scalar_operand_bytes(label, form, dtype, data):
    a = data.draw(_LENGTHS.flatmap(_values))
    s = data.draw(_signed(0.5, 3.0))
    op, form = _SCALAR_SIDES[label], _SCALAR_FORMS[form]
    with ta.default_dtype(dtype):
        value = form(s).item()
    assert _scalar_op_bytes(op, a, s, dtype, form) == _scalar_op_bytes(op, a, value, dtype)


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


# a 0-D tensor broadcasts against a vector on either side of add, sub, mul and
# div, and so does a (B, 1) column against (B, n) rows (the "column" rows)
_TENSOR_SCALAR_SIDES = {
    "add-right": lambda a, s: ta.add(a, s),
    "add-left": lambda a, s: ta.add(s, a),
    "sub-right": lambda a, s: ta.sub(a, s),
    "sub-left": lambda a, s: ta.sub(s, a),
    "mul-right": lambda a, s: ta.mul(a, s),
    "mul-left": lambda a, s: ta.mul(s, a),
    "div-right": lambda a, s: ta.div(a, s),
    "div-left": lambda a, s: ta.div(s, a),
    "add-column-right": lambda a, s: ta.add(a, s),
    "add-column-left": lambda a, s: ta.add(s, a),
    "sub-column-right": lambda a, s: ta.sub(a, s),
    "sub-column-left": lambda a, s: ta.sub(s, a),
    "div-column-right": lambda a, s: ta.div(a, s),
    "div-column-left": lambda a, s: ta.div(s, a),
}


@pytest.mark.parametrize("label", sorted(_TENSOR_SCALAR_SIDES))
@_SETTINGS
@given(data=st.data())
def test_tensor_scalar_operand(label, data):
    # a divisor a is kept off zero
    elements = (_signed(0.5, 3.0) if label in ("div-left", "div-column-left")
                else st.floats(-2.0, 2.0))
    if "column" in label:
        a = data.draw(st.tuples(_DIMS, _LENGTHS).flatmap(
            lambda shape: hnp.arrays(np.float64, shape, elements=elements)))
        s = data.draw(hnp.arrays(np.float64, (len(a), 1), elements=_signed(0.5, 3.0)))
    else:
        a = data.draw(_LENGTHS.flatmap(lambda n: hnp.arrays(np.float64, n, elements=elements)))
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
def test_dense_layer(form, data):
    m, n, k = data.draw(_DIMS), data.draw(_DIMS), data.draw(_DIMS)
    x_shape, out_shape = ((n,), (k,)) if form == "vec-mat" else ((m, n), (m, k))
    arrays = {"x": data.draw(_values(x_shape)), "w": data.draw(_values((n, k))),
              "b": data.draw(_values(out_shape))}
    _check_backward(lambda p: dense(p["x"], p["w"], p["b"]), arrays)


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
def test_dense_layer_rows_bitwise(batch, data):
    n, k = data.draw(st.integers(1, 70)), data.draw(st.integers(1, 70))
    arrays = {"r_x": data.draw(_rows(batch, n)), "w": data.draw(_values((n, k))),
              "b": data.draw(_values(k))}
    layer = lambda p: dense(p["r_x"], p["w"], p["b"])  # noqa: E731
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
def test_dense_layer_row_bias(batch, data):
    n, k = data.draw(_DIMS), data.draw(_DIMS)
    arrays = {"x": data.draw(_values((batch, n))), "w": data.draw(_values((n, k))),
              "b": data.draw(_values(k))}
    _check_backward(lambda p: dense(p["x"], p["w"], p["b"]), arrays)


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
    h = ta.silu(dense(inp, p["w1"], p["b1"]))
    d = ta.sub(dense(h, p["w2"], p["b2"]), p["target"])
    return ta.batch_mean(ta.row_mean(ta.mul(d, d)))


def _row_loss(p, i, null):
    c = p["null"] if null else p["cond"][i]
    inp = ta.concat([p["x"][i], c])
    h = ta.silu(dense(inp, p["w1"], p["b1"]))
    d = ta.sub(dense(h, p["w2"], p["b2"]), p["target"][i])
    return ta.tensor_mean(ta.mul(d, d))


def _grad(grads, leaf):
    """A leaf's gradient in ``backward``'s map; zeros for one no gradient reached."""
    return grads[leaf.id] if leaf.id in grads else np.zeros_like(leaf.data)


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
            got = backward(tape, loss)

            q = {name: ([Tensor(r, requires_grad=True) for r in a] if name in row_leaves
                        else Tensor(a, requires_grad=True)) for name, a in arrays.items()}
            with Tape() as tape:
                total = None
                for i in range(batch):
                    li = _row_loss(q, i, i in nulls)
                    total = li if total is None else ta.add(total, li)
                want = ta.mul(total, 1.0 / batch)
            ref = backward(tape, want)

        assert loss.data.dtype == want.data.dtype == dtype
        assert loss.data.tobytes() == want.data.tobytes(), dtype
        for name, t in p.items():
            if name in row_leaves:
                expected = np.stack([_grad(ref, r) for r in q[name]])
            else:
                expected = _grad(ref, q[name])
            assert got[t.id].dtype == expected.dtype == dtype, name
            assert got[t.id].tobytes() == expected.tobytes(), (dtype, name)


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


@pytest.mark.parametrize("batch", _BATCHES)
@_SETTINGS
@given(data=st.data())
def test_div_column(batch, data):
    # a (B, 1) column divides each row by its own value: the contrastive
    # stage's row normalisation
    n = data.draw(_LENGTHS)
    arrays = {"a": data.draw(_values((batch, n))),
              "c": data.draw(hnp.arrays(np.float64, (batch, 1), elements=_signed(0.5, 3.0)))}
    _check_backward(lambda p: ta.div(p["a"], p["c"]), arrays)
    for dtype in (np.float32, np.float64):
        with ta.default_dtype(dtype):
            a, c = Tensor(arrays["a"]), Tensor(arrays["c"])
            out = ta.div(a, c).data
            for i in range(batch):
                row = ta.div(Tensor(a.data[i]), Tensor(c.data[i, 0])).data
                assert out[i].tobytes() == row.tobytes(), (dtype, i)


# ---------------------------------------------------------------------------
# a leaf that several batched nodes reach: a weight and bias used by J dense
# layers, and a row v put into row subsets of constant batches (and, when
# drawn, broadcast to every row). The per-row terms are folded item-major in
# backward, so every leaf gradient equals B single-row tapes byte for byte.


def _shared_leaves_loss(p, consts, put_sets, broadcast, layers):
    h = consts["x"]
    for j, rows in enumerate(put_sets):
        h = ta.add(h, ta.put_rows(consts[f"base{j}"], rows, p["v"]))
    if broadcast:
        h = ta.add(h, ta.broadcast_rows(p["v"], h.data.shape))
    for _ in range(layers):
        h = ta.silu(dense(h, p["w"], p["b"]))
    return ta.batch_mean(ta.row_mean(ta.mul(h, h)))


def _shared_leaves_row_loss(p, consts, i, put_sets, broadcast, layers):
    h = Tensor(consts["x"][i])
    for j, rows in enumerate(put_sets):
        h = ta.add(h, p["v"] if i in rows else Tensor(consts[f"base{j}"][i]))
    if broadcast:
        h = ta.add(h, p["v"])
    for _ in range(layers):
        h = ta.silu(dense(h, p["w"], p["b"]))
    return ta.tensor_mean(ta.mul(h, h))


@pytest.mark.parametrize("batch", _TAPE_BATCHES)
@_SETTINGS
@given(data=st.data())
def test_leaf_reached_by_several_batched_nodes(batch, data):
    n = data.draw(st.integers(1, 7))
    layers = data.draw(st.integers(1, 4))
    put_sets = data.draw(st.lists(st.sets(st.integers(0, batch - 1)).map(sorted), max_size=3))
    broadcast = data.draw(st.booleans())
    consts = {"x": data.draw(_rows(batch, n))}
    consts.update({f"base{j}": data.draw(_rows(batch, n)) for j in range(len(put_sets))})
    leaves = {"v": data.draw(_values(n)), "b": data.draw(_values(n)),
              "w": data.draw(_values((n, n), -0.8, 0.8))}
    for dtype in (np.float32, np.float64):
        with ta.default_dtype(dtype):
            p = {k: Tensor(a, requires_grad=True) for k, a in leaves.items()}
            c = {k: Tensor(a) for k, a in consts.items()}
            with Tape() as tape:
                loss = _shared_leaves_loss(p, c, put_sets, broadcast, layers)
            got = backward(tape, loss)

            q = {k: Tensor(a, requires_grad=True) for k, a in leaves.items()}
            with Tape() as tape:
                total = None
                for i in range(batch):
                    li = _shared_leaves_row_loss(q, consts, i, put_sets, broadcast, layers)
                    total = li if total is None else ta.add(total, li)
                want_loss = ta.mul(total, 1.0 / batch)
            want = backward(tape, want_loss)

        assert loss.data.tobytes() == want_loss.data.tobytes(), dtype
        for k in leaves:
            g = got.get(p[k].id, np.zeros_like(p[k].data))
            w = want.get(q[k].id, np.zeros_like(q[k].data))
            assert g.dtype == w.dtype == dtype, k
            assert g.tobytes() == w.tobytes(), (dtype, k)


@pytest.mark.parametrize("batched_first", [False, True])
def test_leaf_with_whole_and_row_terms_rejected(batched_first):
    w = Tensor(np.ones((3, 2)), requires_grad=True)
    b = Tensor(np.zeros(2))
    one = lambda: ta.tensor_sum(dense(Tensor(np.ones(3)), w, b))  # noqa: E731
    rows = lambda: ta.tensor_sum(dense(Tensor(np.ones((4, 3))), w, b))  # noqa: E731
    with Tape() as tape:
        first, second = (rows, one) if batched_first else (one, rows)
        loss = ta.add(first(), second())
    with pytest.raises(ta.AutodiffError, match="both whole gradients and per-row terms"):
        backward(tape, loss)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@_SETTINGS
@given(data=st.data())
def test_stack_rows_bitwise(dtype, data):
    batch, n = data.draw(st.integers(1, 6)), data.draw(_LENGTHS)
    a = data.draw(_rows(batch, n))
    up = data.draw(_rows(batch, n))
    with ta.default_dtype(dtype):
        rows = [Tensor(r, requires_grad=True) for r in a]
        with Tape() as tape:
            out = ta.stack(rows)
            grads = backward(tape, ta.tensor_sum(ta.mul(out, Tensor(up))))
        assert out.data.dtype == dtype and out.data.shape == (batch, n)
        for i, r in enumerate(rows):
            assert out.data[i].tobytes() == r.data.tobytes(), i
            assert grads[r.id].tobytes() == Tensor(up).data[i].tobytes(), i


@_SETTINGS
@given(data=st.data())
def test_stack_rows_backward(data):
    batch, n = data.draw(st.integers(1, 5)), data.draw(_LENGTHS)
    arrays = {f"r{i}": data.draw(_values(n)) for i in range(batch)}
    _check_backward(lambda p: ta.stack([p[k] for k in sorted(p)]), arrays)


def test_stack_rejects_rows_of_different_lengths():
    with pytest.raises(ValueError, match="1-D rows of one length"):
        ta.stack([Tensor(np.ones(2)), Tensor(np.ones(3))])
    with pytest.raises(ValueError, match="1-D rows of one length"):
        ta.stack([Tensor(np.ones((2, 2)))])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_row_split_keeps_negative_zero_gradient(dtype):
    # row 1's gradient is exactly -0.0; the split batch's gradient must hold
    # that row's bits, not the +0.0 a sum with zero-filled rows would give
    with ta.default_dtype(dtype):
        m = Tensor(np.arange(12.0).reshape(4, 3) - 5.0, requires_grad=True)
        scales = [1.5, -0.0, 2.0, -1.0]
        with Tape() as tape:
            parts = [ta.tensor_sum(ta.mul(ta.row(ta.mul(m, 1.0), i), s))
                     for i, s in enumerate(scales)]
            loss = ta.batch_mean(ta.stack(parts))
        g = backward(tape, loss)[m.id]
    assert np.all(g[1] == 0) and np.all(np.signbit(g[1]))
    for i, s in enumerate(scales):
        want = np.full(3, dtype(1.0 / 4) * dtype(s), dtype=dtype)
        assert g[i].tobytes() == want.tobytes(), i


# a constant numerator: div(s, x) and s / x


@_SETTINGS
@given(data=st.data())
def test_div_constant_numerator(data):
    a = data.draw(_LENGTHS.flatmap(lambda n: hnp.arrays(np.float64, n,
                                                        elements=_signed(0.5, 3.0))))
    s = data.draw(_signed(0.5, 3.0))
    _check_backward(lambda p: ta.div(s, p["a"]), {"a": a})
    _check_backward(lambda p: s / p["a"], {"a": a})
    for dtype in (np.float32, np.float64):
        with ta.default_dtype(dtype):
            x = Tensor(a)
            want = (dtype(s) / x.data).tobytes()
            assert ta.div(s, x).data.tobytes() == want
            assert (s / x).data.tobytes() == want


# ---------------------------------------------------------------------------
# transpose, and matmul against a 2-D right operand that an op produced: the
# contrastive stage's logits are matmul(texts, transpose(images))


@_SETTINGS
@given(data=st.data())
def test_transpose(data):
    m, n = data.draw(_DIMS), data.draw(_DIMS)
    _check_backward(lambda p: ta.transpose(p["a"]), {"a": data.draw(_values((m, n)))})


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@_SETTINGS
@given(data=st.data())
def test_transpose_bytes(dtype, data):
    m, n = data.draw(_DIMS), data.draw(_DIMS)
    a, up = data.draw(_values((m, n))), data.draw(_values((n, m)))
    with ta.default_dtype(dtype):
        x, u = Tensor(a, requires_grad=True), Tensor(up)
        with Tape() as tape:
            out = ta.transpose(x)
            grads = backward(tape, ta.tensor_sum(ta.mul(out, u)))
        assert out.data.dtype == grads[x.id].dtype == dtype
        assert out.data.tobytes() == np.ascontiguousarray(x.data.T).tobytes()
        assert grads[x.id].tobytes() == np.ascontiguousarray(u.data.T).tobytes()


def test_transpose_rejects_other_ranks():
    for shape in [(), (3,), (2, 2, 2)]:
        with pytest.raises(ValueError, match="must be 2-D"):
            ta.transpose(Tensor(np.ones(shape)))


# a non-leaf right operand: through transpose, and through an elementwise op
_NON_LEAF_RIGHT = {
    "transpose": lambda b: ta.transpose(b),
    "tanh": lambda b: ta.tanh(b),
}


@pytest.mark.parametrize("name", sorted(_NON_LEAF_RIGHT))
@pytest.mark.parametrize("form", ["vec-mat", "mat-mat"])
@_SETTINGS
@given(data=st.data())
def test_matmul_non_leaf_right(name, form, data):
    m, n, k = data.draw(_DIMS), data.draw(_DIMS), data.draw(_DIMS)
    a_shape = (n,) if form == "vec-mat" else (m, n)
    b_shape = (k, n) if name == "transpose" else (n, k)
    arrays = {"a": data.draw(_values(a_shape)), "b": data.draw(_values(b_shape))}
    inner = _NON_LEAF_RIGHT[name]
    _check_backward(lambda p: ta.matmul(p["a"], inner(p["b"])), arrays)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("batch", _BATCHES)
@_SETTINGS
@given(data=st.data())
def test_matmul_non_leaf_right_bytes(dtype, batch, data):
    # the gradient matmul gives a non-leaf right operand is the one it gives a
    # leaf holding the same values, byte for byte, and transpose hands it back
    # swapped; the left operand's gradient does not depend on which it is
    n, k = data.draw(_DIMS), data.draw(_DIMS)
    a, b = data.draw(_rows(batch, n)), data.draw(_values((k, n)))
    up = data.draw(_rows(batch, k))
    with ta.default_dtype(dtype):
        x, y, u = Tensor(a, requires_grad=True), Tensor(b, requires_grad=True), Tensor(up)
        with Tape() as tape:
            out = ta.matmul(x, ta.transpose(y))
            got = backward(tape, ta.tensor_sum(ta.mul(out, u)))
        # a C-ordered leaf, as transpose's output is: a product's bits follow
        # its operands' memory order
        x2 = Tensor(a, requires_grad=True)
        yt = Tensor(np.ascontiguousarray(b.T), requires_grad=True)
        with Tape() as tape:
            want_out = ta.matmul(x2, yt)
            want = backward(tape, ta.tensor_sum(ta.mul(want_out, u)))
    assert out.data.tobytes() == want_out.data.tobytes()
    assert got[x.id].tobytes() == want[x2.id].tobytes()
    assert got[y.id].dtype == dtype
    assert got[y.id].tobytes() == np.ascontiguousarray(want[yt.id].T).tobytes()


# image_encode over a (B, D) batch gives row i the bits x[i] alone gets


@pytest.mark.parametrize("batch", _BATCHES)
@_SETTINGS
@given(data=st.data())
def test_image_encode_rows_bitwise(batch, data):
    d, h, c = data.draw(st.integers(1, 20)), data.draw(st.integers(1, 70)), data.draw(_DIMS)
    arrays = {"r_x": data.draw(_rows(batch, d)), "w1": data.draw(_values((d, h))),
              "b1": data.draw(_values(h)), "w2": data.draw(_values((h, c))),
              "b2": data.draw(_values(c))}

    def encode(p):
        params = ImageEncoderParams(w1=p["w1"], b1=p["b1"], w2=p["w2"], b2=p["b2"])
        return image_encode(params, p["r_x"])

    _assert_rowwise(encode, encode, arrays, batch)


# a leaf is C-ordered whatever array it is built from: a dense product's bits
# follow its operands' memory order, so a leaf built from a transposed view
# must multiply as its C-ordered copy does


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_leaf_from_transposed_view_multiplies_as_its_copy(dtype):
    rng = np.random.default_rng(11)
    with ta.default_dtype(dtype):
        for _ in range(40):
            batch, n, k = (int(v) for v in rng.integers(1, 40, size=3))
            x = Tensor(rng.standard_normal((batch, n)))
            b = rng.standard_normal((k, n))
            view, copy = Tensor(b.T), Tensor(np.ascontiguousarray(b.T))
            assert view.data.flags.c_contiguous
            assert ta.matmul(x, view).data.tobytes() == ta.matmul(x, copy).data.tobytes()


# ---------------------------------------------------------------------------
# the reward ops and the dense products on (B, n) rows against B 1-D calls,
# forward and backward, byte for byte in float32 and float64: each row is
# seeded with its own upstream gradient (a fixed weight), so a row's gradient
# shows its own bits. B = 1 is the one-row batch against the 1-D call. The
# second operand is split into rows with the first ("rows") or shared by the
# rows, a vector or a matrix, whose gradient is then the rows' 1-D gradients
# added last row first, as B single-row tapes add them; matmul meets every
# rank pair, the rows' call (mat-vec, mat-mat) against the 1-D one (vec-vec,
# vec-mat)


def _const(*shape):
    """A fixed Tensor of ``shape`` in the working dtype, needing no gradient."""
    return Tensor(np.linspace(-1.0, 1.0, int(np.prod(shape))).reshape(shape))


_ROW_OPS = {
    "dot": (lambda a, b: ta.dot(a, b), "rows"),
    "norm": (lambda a, b: ta.sqrt(ta.dot(a, a)), "rows"),
    "cosine_similarity": (lambda a, b: ta.cosine_similarity(a, b), "rows"),
    "matmul-vector": (lambda a, b: ta.matmul(a, b), "vector"),
    "matmul-matrix": (lambda a, b: ta.matmul(a, b), "matrix"),
    "dense": (lambda a, b: dense(a, b, _const(b.data.shape[1])), "matrix"),
    "mlp": (lambda a, b: ta.mlp([a], [(b, _const(b.data.shape[1])),
                                      (_const(b.data.shape[1], 3), _const(3))], "silu"),
            "matrix"),
}


@pytest.mark.parametrize("name", sorted(_ROW_OPS))
@pytest.mark.parametrize("batch", _BATCHES)
@_SETTINGS
@given(data=st.data())
def test_reward_ops_rows_bitwise(name, batch, data):
    op, second = _ROW_OPS[name]
    n = data.draw(st.integers(1, 70))
    # entries kept off zero so no row has a zero norm
    a = data.draw(hnp.arrays(np.float64, (batch, n), elements=_signed(0.01, 3.0)))
    if second == "rows":
        shape = (batch, n)
    else:
        shape = (n,) if second == "vector" else (n, data.draw(_DIMS))
    b = data.draw(hnp.arrays(np.float64, shape, elements=_signed(0.01, 3.0)))
    w = np.linspace(0.5, 1.5, batch)
    for dtype in (np.float32, np.float64):
        with ta.default_dtype(dtype):
            x, y = Tensor(a, requires_grad=True), Tensor(b, requires_grad=True)
            with Tape() as tape:
                out = op(x, y)
                upstream = Tensor(w.reshape((batch,) + (1,) * (out.data.ndim - 1)))
                got = backward(tape, ta.tensor_sum(ta.mul(out, upstream)))
            shared = []
            for i in range(batch):
                bi = b[i] if second == "rows" else b
                xi, yi = Tensor(a[i], requires_grad=True), Tensor(bi, requires_grad=True)
                with Tape() as tape:
                    want = op(xi, yi)
                    ref = backward(tape, ta.tensor_sum(ta.mul(want, Tensor(w[i]))))
                assert out.data.shape == (batch,) + want.data.shape, (dtype, i)
                assert out.data[i].tobytes() == want.data.tobytes(), (dtype, i)
                assert got[x.id][i].tobytes() == ref[xi.id].tobytes(), (dtype, i)
                if second != "rows":
                    shared.append(ref[yi.id])
                elif yi.id in ref:
                    assert got[y.id][i].tobytes() == ref[yi.id].tobytes(), (dtype, i)
                else:
                    assert y.id not in got
            if second != "rows":
                # B single-row tapes add the rows' terms last row first
                total = np.full(y.data.shape, -0.0, dtype)
                for term in reversed(shared):
                    total = total + term
                assert got[y.id].tobytes() == total.tobytes(), dtype


# ---------------------------------------------------------------------------
# pool_tokens against the pooling written out with row and add, one prompt
# at a time on one tape (sorted tokens, f32 adds, times 1/len), followed by
# a dense layer: forward bytes, and the embedding and weight gradients


def _written_out_pool(embed, prompt):
    ordered = sorted(prompt)
    acc = ta.row(embed, ordered[0])
    for tok in ordered[1:]:
        acc = ta.add(acc, ta.row(embed, tok))
    return ta.mul(acc, 1.0 / len(prompt))


def _zero_padded_pool(embed, prompts):
    """The rejected form: prompts padded to one length with +0.0 rows and
    summed, which turns a pooled -0.0 into +0.0 (forward only)."""
    width = max(len(p) for p in prompts)
    table = np.concatenate([embed.data, np.zeros((1, embed.data.shape[1]), embed.data.dtype)])
    index = np.array([sorted(p) + [len(table) - 1] * (width - len(p)) for p in prompts])
    acc = table[index[:, 0]]
    for pos in range(1, width):
        acc = acc + table[index[:, pos]]
    return Tensor(acc * (1.0 / np.array([len(p) for p in prompts]))[:, None].astype(acc.dtype))


def _assert_pool_matches(pool, embed_values, w_values, prompts, single=False):
    """``pool(embed, prompts)`` (or ``pool(embed, prompts[0])`` when
    ``single``) through a dense layer and the batch mean of the row means,
    against the written-out pooling of each prompt on one tape, its losses
    added in order and times 1/B: forward and gradient bytes."""
    bias = np.zeros(w_values.shape[1])
    for dtype in (np.float32, np.float64):
        with ta.default_dtype(dtype):
            embed, w = Tensor(embed_values, requires_grad=True), Tensor(w_values, requires_grad=True)
            with Tape() as tape:
                pooled = pool(embed, prompts[0] if single else prompts)
                out = dense(pooled, w, Tensor(bias))
                loss = ta.tensor_mean(out) if single else ta.batch_mean(ta.row_mean(out))
            got = backward(tape, loss)

            embed2, w2 = Tensor(embed_values, requires_grad=True), Tensor(w_values, requires_grad=True)
            with Tape() as tape:
                rows, total = [], None
                for p in prompts:
                    rows.append(_written_out_pool(embed2, p))
                    term = ta.tensor_mean(dense(rows[-1], w2, Tensor(bias)))
                    total = term if total is None else ta.add(total, term)
                want_loss = total if single else ta.mul(total, 1.0 / len(prompts))
            want = backward(tape, want_loss)
        got_rows = pooled.data[None] if single else pooled.data
        assert [r.tobytes() for r in got_rows] == [r.data.tobytes() for r in rows], dtype
        assert loss.data.tobytes() == want_loss.data.tobytes(), dtype
        assert got[embed.id].tobytes() == want[embed2.id].tobytes(), dtype
        assert got[w.id].tobytes() == want[w2.id].tobytes(), dtype


_PROMPTS = st.lists(st.lists(st.integers(0, 5), min_size=1, max_size=4), min_size=1, max_size=9)


@_SETTINGS
@given(data=st.data())
def test_pool_tokens_rows_match_written_out_pooling(data):
    # a vocabulary of 6 so prompts share and repeat tokens
    prompts = data.draw(_PROMPTS)
    e, h = data.draw(_DIMS), data.draw(_DIMS)
    embed, w = data.draw(_values((6, e))), data.draw(_values((e, h)))
    _assert_pool_matches(ta.pool_tokens, embed, w, prompts)
    # one prompt, alone and as the one-prompt batch: both are its written-out pooling
    _assert_pool_matches(ta.pool_tokens, embed, w, prompts[:1], single=True)
    _assert_pool_matches(ta.pool_tokens, embed, w, prompts[:1])


def test_pool_tokens_duplicates_mixed_lengths_and_negative_zero():
    rng = np.random.default_rng(5)
    embed = rng.standard_normal((9, 4))
    embed[3, 0] = -0.0  # a one-token prompt of 3 pools to -0.0 there
    embed[5, 1] = -0.0
    w = rng.standard_normal((4, 3))
    prompts = [[3], [7, 7, 7], [5, 1, 7], [3, 5], [2, 8, 1, 3], [7]]
    _assert_pool_matches(ta.pool_tokens, embed, w, prompts)
    _assert_pool_matches(ta.pool_tokens, embed, w, [[7, 7, 7]], single=True)
    _assert_pool_matches(ta.pool_tokens, embed, w, [[3]], single=True)
    with pytest.raises(AssertionError):
        _assert_pool_matches(_zero_padded_pool, embed, w, prompts)


def test_pool_tokens_rejects_bad_prompts():
    embed = Tensor(np.ones((4, 2)))
    for bad in ([], [[1], []], [4], [[0], [-1]]):
        with pytest.raises(ValueError, match="pool_tokens"):
            ta.pool_tokens(embed, bad)


# ---------------------------------------------------------------------------
# fused ops against the op chains they stand for: forward bytes, the bytes of
# every gradient in backward's map (taps included), f32 and f64, 1-D parts
# and (B, ·) rows, 1-D parts broadcast over the rows, frozen weights


def _draw_mlp(data, batch):
    """(part arrays, layer arrays): each part 1-D or, with a batch, drawn 1-D
    or (B, n); at least one part has rows when there is a batch."""
    widths = data.draw(st.lists(_LENGTHS, min_size=1, max_size=3))
    ranks = [1] * len(widths)
    if batch:
        ranks = data.draw(st.lists(st.sampled_from([1, 2]), min_size=len(widths),
                                   max_size=len(widths)))
        ranks[data.draw(st.integers(0, len(widths) - 1))] = 2
    parts = [data.draw(_values((batch, n) if r == 2 else n)) for n, r in zip(widths, ranks)]
    sizes = [sum(widths)] + data.draw(st.lists(_DIMS, min_size=1, max_size=3))
    layers = [(data.draw(_values((m, k), -1.0, 1.0)), data.draw(_values(k)))
              for m, k in zip(sizes, sizes[1:])]
    return parts, layers


def _fused_run(op, parts, layers, act, dtype, part_grad, layer_grad):
    with ta.default_dtype(dtype):
        ps = [Tensor(a, requires_grad=r) for a, r in zip(parts, part_grad)]
        ls = [(Tensor(w, requires_grad=r), Tensor(b, requires_grad=r))
              for (w, b), r in zip(layers, layer_grad)]
        with Tape() as tape:
            out = op(ps, ls, act)
            loss = _readout(out)
        if not out._needs:
            return out.data.tobytes(), None
        grads = backward(tape, loss, tap_ids=[p.id for p in ps])
    leaves = ps + [t for wb in ls for t in wb]
    return out.data.tobytes(), [grads[t.id].tobytes() if t.id in grads else None for t in leaves]


@pytest.mark.parametrize("act", ["silu", "tanh"])
@pytest.mark.parametrize("batch", [None] + _BATCHES)
@_SETTINGS
@given(data=st.data())
def test_mlp_is_its_op_chain_bitwise(act, batch, data):
    parts, layers = _draw_mlp(data, batch)
    part_grad = data.draw(st.lists(st.booleans(), min_size=len(parts), max_size=len(parts)))
    layer_grad = data.draw(st.lists(st.booleans(), min_size=len(layers), max_size=len(layers)))
    for dtype in (np.float32, np.float64):
        want = _fused_run(written_out_mlp, parts, layers, act, dtype, part_grad, layer_grad)
        assert _fused_run(ta.mlp, parts, layers, act, dtype, part_grad, layer_grad) == want


@pytest.mark.parametrize("batch", _BATCHES)
@_SETTINGS
@given(data=st.data())
def test_mlp_denoiser_shape_bitwise(batch, data):
    # the denoiser's call: (B, D) latents, a shared 1-D time embedding that
    # needs no gradient, a 1-D conditioning (the null vector) broadcast over
    # the rows, three silu layers; every weight trained
    d, te, c, h = (data.draw(_DIMS) for _ in range(4))
    parts = [data.draw(_values((batch, d))), data.draw(_values(te)), data.draw(_values(c))]
    sizes = [d + te + c, h, h, d]
    layers = [(data.draw(_values((m, k), -1.0, 1.0)), data.draw(_values(k)))
              for m, k in zip(sizes, sizes[1:])]
    for dtype in (np.float32, np.float64):
        args = (parts, layers, "silu", dtype, [True, False, True], [True] * 3)
        assert _fused_run(ta.mlp, *args) == _fused_run(written_out_mlp, *args)


def _segment_chain(op, z0, c, leaves, k_segments, dtype):
    """K checkpoint segments over (B, ·) rows, each one dense stack that reads
    the same weights and the broadcast 1-D ``c``; the gradient bytes of every
    leaf and tap."""
    with ta.default_dtype(dtype):
        z = Tensor(z0, requires_grad=True)
        ct = Tensor(c, requires_grad=True)
        ws = [Tensor(a, requires_grad=True) for a in leaves]

        def step(z_in, c_in, w1, b1, w2, b2):
            return op([z_in, c_in], [(w1, b1), (w2, b2)], "silu")

        taps = []
        with Tape() as tape:
            for _ in range(k_segments):
                taps.append(z.id)
                z = ta.checkpoint_segment(step, (z, ct, *ws))
            loss = _readout(z)
        grads = backward(tape, loss, tap_ids=taps[1:])
    return [grads[i].tobytes() for i in [ct.id, *(w.id for w in ws), *taps]]


@pytest.mark.parametrize("batch", _BATCHES)
@_SETTINGS
@given(data=st.data())
def test_mlp_weight_read_by_k_segments_bitwise(batch, data):
    n, m, h = data.draw(_DIMS), data.draw(_DIMS), data.draw(_DIMS)
    k_segments = data.draw(st.integers(1, 5))
    z0, c = data.draw(_values((batch, n))), data.draw(_values(m))
    leaves = [data.draw(_values((n + m, h), -0.8, 0.8)), data.draw(_values(h)),
              data.draw(_values((h, n), -0.8, 0.8)), data.draw(_values(n))]
    for dtype in (np.float32, np.float64):
        want = _segment_chain(written_out_mlp, z0, c, leaves, k_segments, dtype)
        assert _segment_chain(ta.mlp, z0, c, leaves, k_segments, dtype) == want


# the samplers' updates: (fused, written out) for the step's constants
_AXPBY_FORMS = {
    "axpby": (lambda x, y, a, b: ta.axpby(x, a, y, b),
              lambda x, y, a, b: ta.add(ta.mul(x, a), ta.mul(y, b))),
    "cfg": (lambda x, y, a, b: ta.axpby(x, a, y, -(a - 1.0)),
            lambda x, y, a, b: ta.sub(ta.mul(x, a), ta.mul(y, a - 1.0))),
    "ddim": (lambda x, y, a, b: ta.axpby(ta.axpby(x, 1.0, y, -a), a / b, y, b),
             lambda x, y, a, b: ta.add(ta.mul(ta.sub(x, ta.mul(y, a)), a / b), ta.mul(y, b))),
}


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("batch", [None] + _BATCHES)
@pytest.mark.parametrize("form", sorted(_AXPBY_FORMS))
@_SETTINGS
@given(data=st.data())
def test_axpby_is_its_op_chain_bitwise(form, batch, dtype, data):
    n = data.draw(_LENGTHS)
    shape = (batch, n) if batch else n
    x, y = data.draw(_values(shape)), data.draw(_values(shape))
    a, b = data.draw(_signed(0.01, 3.0)), data.draw(_signed(0.01, 3.0))

    def run(op):
        with ta.default_dtype(dtype):
            xt, yt = Tensor(x, requires_grad=True), Tensor(y, requires_grad=True)
            with Tape() as tape:
                out = op(xt, yt, a, b)
                grads = backward(tape, _readout(out))
        return out.data.tobytes(), grads[xt.id].tobytes(), grads[yt.id].tobytes()

    fused, chain = _AXPBY_FORMS[form]
    assert run(fused) == run(chain)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("batch", [None, 3])
@_SETTINGS
@given(data=st.data())
def test_fused_ops_repeated_operand_bitwise(batch, dtype, data):
    # one tensor in several input slots of a fused node (a layer pair sharing
    # its weights, x and y of one axpby) and read again by a later node: its
    # gradient terms add up in the order the op chain's sweep adds them
    n = data.draw(_DIMS)
    x = data.draw(_values((batch, n) if batch else n))
    w, b = data.draw(_values((n, n), -1.0, 1.0)), data.draw(_values(n))
    a, c = data.draw(_signed(0.1, 3.0)), data.draw(_signed(0.1, 3.0))

    def run(fused):
        with ta.default_dtype(dtype):
            xt, wt, bt = (Tensor(v, requires_grad=True) for v in (x, w, b))
            with Tape() as tape:
                if fused:
                    h = ta.mlp([xt], [(wt, bt), (wt, bt)], "silu")
                    y = ta.axpby(h, a, h, c)
                else:
                    h = written_out_mlp([xt], [(wt, bt), (wt, bt)], "silu")
                    y = ta.add(ta.mul(h, a), ta.mul(h, c))
                loss = ta.add(_readout(ta.add(y, h)), _readout(dense(xt, wt, bt)))
                grads = backward(tape, loss)
        return [grads[t.id].tobytes() for t in (xt, wt, bt)]

    assert run(True) == run(False)


@pytest.mark.parametrize("act", ["silu", "tanh"])
@pytest.mark.parametrize("batch", [None, 1, 3])
@_SETTINGS
@given(data=st.data())
def test_mlp(act, batch, data):
    parts, layers = _draw_mlp(data, batch)
    arrays = {f"p{i}": a for i, a in enumerate(parts)}
    arrays.update({f"{k}{i}": a for i, wb in enumerate(layers) for k, a in zip("wb", wb)})

    def build(p):
        return ta.mlp([p[f"p{i}"] for i in range(len(parts))],
                      [(p[f"w{i}"], p[f"b{i}"]) for i in range(len(layers))], act)

    _check_backward(build, arrays)


@pytest.mark.parametrize("batch", [None, 1, 3])
@_SETTINGS
@given(data=st.data())
def test_axpby(batch, data):
    n = data.draw(_LENGTHS)
    shape = (batch, n) if batch else n
    arrays = {"x": data.draw(_values(shape)), "y": data.draw(_values(shape))}
    a, b = data.draw(_signed(0.1, 3.0)), data.draw(_signed(0.1, 3.0))
    _check_backward(lambda p: ta.axpby(p["x"], a, p["y"], b), arrays)


def test_mlp_backward_skips_frozen_weights():
    # a frozen layer's weight and bias get None from the backward rule and
    # nothing is computed for them; the trained ones and the part still get
    # theirs, and backward's map is what the op chain gives
    rng = np.random.default_rng(8)
    def leaf(*shape, trained=False):
        return Tensor(rng.standard_normal(shape), requires_grad=trained)

    x = leaf(3, 4, trained=True)
    layers = [(leaf(4, 5), leaf(5)), (leaf(5, 5, trained=True), leaf(5, trained=True)),
              (leaf(5, 2), leaf(2))]
    with Tape() as tape:
        out = ta.mlp([x], layers, "silu")
    (node,) = tape.nodes
    grads = list(node.bw(np.ones((3, 2), dtype=np.float32), node.saved, node.ctx))
    # inputs: w3, b3, w2, b2, w1, b1, x
    assert [g is None for g in grads] == [True, True, False, False, True, True, False]
    want = [_fused_run(op, [x.data], [(w.data, b.data) for w, b in layers], "silu",
                       np.float32, [True], [False, True, False]) for op in (ta.mlp, written_out_mlp)]
    assert want[0] == want[1]
    assert out.data.tobytes() == want[0][0]


def test_fused_ops_reject_bad_operands():
    v, rows = Tensor(np.ones(3)), Tensor(np.ones((2, 3)))
    w, b = Tensor(np.ones((3, 2))), Tensor(np.ones(2))
    for bad in ([], [Tensor(np.ones((2, 2, 3)))], [rows, Tensor(np.ones((3, 3)))]):
        with pytest.raises(ValueError, match="mlp"):
            ta.mlp(bad, [(w, b)], "silu")
    with pytest.raises(ValueError, match="mlp"):
        ta.mlp([v], [(w, b)], "relu")
    with pytest.raises(ValueError, match="mlp"):
        ta.mlp([v], [], "silu")
    with pytest.raises(ValueError, match="inner dims"):
        ta.mlp([v, v], [(w, b)], "tanh")
    with pytest.raises(ValueError, match="axpby"):
        ta.axpby(v, 1.0, rows, 1.0)
    with pytest.raises(ValueError, match="axpby"):
        ta.axpby(v, v, v, 1.0)


# ---------------------------------------------------------------------------
# ``mlp_kernel`` over a workspace kept across calls, as a walk keeps one: the
# bias copies it holds add as the bias itself does


def _kernel_layers(data, batch, n, dtype):
    """Input shape and layers for ``mlp_kernel`` in ``dtype``; each
    bias is one row, a row per input row (with a batch), or one row kept in
    float64."""
    shape = (lambda k: (batch, k)) if batch else (lambda k: (k,))
    sizes = [n] + data.draw(st.lists(_DIMS, min_size=1, max_size=3))
    kinds = ["row", "float64"] + (["rows"] if batch else [])
    layers = []
    for m, k in zip(sizes, sizes[1:]):
        kind = data.draw(st.sampled_from(kinds))
        w = Tensor(data.draw(_values((m, k), -1.0, 1.0)))
        b = data.draw(_values(shape(k) if kind == "rows" else k))
        with ta.default_dtype(np.float64 if kind == "float64" else dtype):
            layers.append((w, Tensor(b)))
    return shape(n), layers


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("act", ["silu", "tanh"])
@pytest.mark.parametrize("batch", [None] + _BATCHES)
@_SETTINGS
@given(data=st.data())
def test_mlp_kernel_kept_workspace_bitwise(dtype, act, batch, data):
    with ta.default_dtype(dtype):
        shape, layers = _kernel_layers(data, batch, data.draw(_LENGTHS), dtype)
        work = ta._mlp_work(shape, layers)
        for _ in range(3):
            x = data.draw(_values(shape)).astype(dtype)
            got = ta.mlp_kernel(x, work, act)
            assert got.dtype == dtype and got.shape == shape[:-1] + layers[-1][0].shape[1:]
            assert got.tobytes() == ta.mlp_kernel(x, ta._mlp_work(shape, layers), act).tobytes()
            assert got.tobytes() == written_out_mlp([Tensor(x)], layers, act).data.tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("batch", [None, 3])
@_SETTINGS
@given(data=st.data())
def test_mlp_kernel_kept_workspace_traps_non_finite_product(dtype, batch, data):
    # a non-finite input makes the first product non-finite (inf * 0 is a
    # nan NumPy warns of): under debug_checks the kept workspace traps it as
    # the chain's matmul does, and the next call through it is a fresh
    # workspace's
    with ta.default_dtype(dtype):
        shape, layers = _kernel_layers(data, batch, data.draw(_LENGTHS), dtype)
        work = ta._mlp_work(shape, layers)
        bad = data.draw(_values(shape)).astype(dtype)
        bad.reshape(-1)[data.draw(st.integers(0, bad.size - 1))] = np.inf
        with ta.debug_checks(), np.errstate(invalid="ignore"):
            for run in (lambda: ta.mlp_kernel(bad, work, "silu"),
                        lambda: written_out_mlp([Tensor(bad)], layers, "silu")):
                with pytest.raises(ta.AutodiffError, match="non-finite"):
                    run()
            x = data.draw(_values(shape)).astype(dtype)
            got = ta.mlp_kernel(x, work, "silu")
            fresh = ta._mlp_work(shape, layers)
            assert got.tobytes() == ta.mlp_kernel(x, fresh, "silu").tobytes()


# ---------------------------------------------------------------------------
# the fused reward ops against the op chains they stand for: forward bytes,
# the bytes of every leaf's gradient and of a tap on each operand, f32 and
# f64, 1-D and (B, n) operands, each operand needing a gradient or not (a
# constant, as the alignment target is), one tensor in both operand slots,
# and operands that a later node reads too, so the order in which a fused
# node hands out its terms shows in the sums


def _chain_cosine(a, b):
    return ta.div(ta.dot(a, b), ta.mul(ta.sqrt(ta.dot(a, a)), ta.sqrt(ta.dot(b, b))))


def _chain_squared_error(a, b):
    d = ta.sub(a, b)
    sq = ta.mul(d, d)
    return ta.row_mean(sq) if sq.data.ndim == 2 else ta.tensor_mean(sq)


_PAIR_OPS = {
    "cosine_similarity": (ta.cosine_similarity, _chain_cosine),
    "squared_error": (ta.squared_error, _chain_squared_error),
}


def _pair_run(op, x, y, needs, shared, dtype):
    """``op`` on leaves of ``x`` and ``y`` (one leaf in both slots when
    ``shared``), read again by a ``mul``: the output bytes and the bytes of
    backward's map at each leaf's id, None where it has none."""
    with ta.default_dtype(dtype):
        a = Tensor(x, requires_grad=needs[0])
        b = a if shared else Tensor(y, requires_grad=needs[1])
        with Tape() as tape:
            out = op(a, b)
            loss = ta.add(_readout(out), _readout(ta.mul(a, b)))
        if not loss._needs:
            return out.data.tobytes(), None
        grads = backward(tape, loss, tap_ids=[a.id, b.id])
    return out.data.tobytes(), [grads[t.id].tobytes() if t.id in grads else None for t in (a, b)]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("batch", [None] + _BATCHES)
@pytest.mark.parametrize("name", sorted(_PAIR_OPS))
@_SETTINGS
@given(data=st.data())
def test_reward_ops_are_their_op_chains_bitwise(name, batch, dtype, data):
    n = data.draw(_LENGTHS)
    shape = (batch, n) if batch else n
    # entries kept off zero so no row has a zero norm
    x, y = (data.draw(hnp.arrays(np.float64, shape, elements=_signed(0.01, 3.0)))
            for _ in range(2))
    needs = data.draw(st.tuples(st.booleans(), st.booleans()))
    shared = data.draw(st.booleans())
    fused, chain = _PAIR_OPS[name]
    want = _pair_run(chain, x, y, needs, shared, dtype)
    assert _pair_run(fused, x, y, needs, shared, dtype) == want


def test_reward_ops_record_one_node_with_the_chains_inputs():
    # the inputs in the order the chain's sweep gives them gradients, so the
    # leaves' use counts are the chain's too
    a, b = Tensor(np.ones((2, 3)), requires_grad=True), Tensor(np.full((2, 3), 2.0))
    with Tape() as tape:
        ta.cosine_similarity(a, b)
        ta.squared_error(a, b)
        ta.weighted_sum([ta.neg(a), a], [2.0, -1.0])
    assert [(node.op, node.input_ids) for node in tape.nodes] == [
        ("cosine_similarity", (b.id, b.id, a.id, a.id, a.id, b.id)),
        ("squared_error", (a.id, b.id)),
        ("neg", (a.id,)),
        ("weighted_sum", (a.id, tape.nodes[2].out_id)),
    ]
    assert tape._uses == {a.id: 3 + 1 + 1 + 1}


def _chain_weighted_sum(terms, weights):
    total = None
    for t, w in zip(terms, weights):
        term = ta.mul(t, w)
        total = term if total is None else ta.add(total, term)
    return total


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("batch", [None] + _BATCHES)
@_SETTINGS
@given(data=st.data())
def test_weighted_sum_is_its_op_chain_bitwise(batch, dtype, data):
    # terms from leaves, one leaf possibly in several slots, each leaf
    # needing a gradient or not and read again after the sum
    k = data.draw(st.integers(1, 4))
    shape = (batch,) if batch else ()
    values = [data.draw(_values(shape, -3.0, 3.0)) for _ in range(k)]
    which = data.draw(st.lists(st.integers(0, k - 1), min_size=k, max_size=k))
    needs = data.draw(st.lists(st.booleans(), min_size=k, max_size=k))
    weights = data.draw(st.lists(_signed(0.01, 100.0), min_size=k, max_size=k))

    def run(op):
        with ta.default_dtype(dtype):
            leaves = [Tensor(v, requires_grad=r) for v, r in zip(values, needs)]
            with Tape() as tape:
                out = op([leaves[i] for i in which], weights)
                loss = ta.add(_readout(out), _readout(ta.mul(leaves[which[0]], 0.5)))
            if not loss._needs:
                return out.data.tobytes(), None
            grads = backward(tape, loss, tap_ids=[t.id for t in leaves])
        return out.data.tobytes(), [grads[t.id].tobytes() if t.id in grads else None
                                    for t in leaves]

    assert run(ta.weighted_sum) == run(_chain_weighted_sum)


@pytest.mark.parametrize("op", [ta.cosine_similarity, _chain_cosine])
def test_cosine_traps_a_non_finite_intermediate(op):
    # |a|^2 overflows float32 while a . b and the cosine stay finite: the
    # cosine reads 0 unchecked, and debug_checks traps the squared norm, in
    # the fused op as in the chain
    a, b = np.full(2, 1e20), np.full(2, 1e-20)
    with np.errstate(over="ignore"):
        x, y = Tensor(a, requires_grad=True), Tensor(b)
        assert op(x, y).data.tobytes() == np.float32(0.0).tobytes()
        with ta.debug_checks(), pytest.raises(ta.AutodiffError, match="non-finite"):
            op(x, y)


@pytest.mark.parametrize("name,args", [
    ("squared_error", (np.full(3, 1e20), np.zeros(3))),
    ("weighted_sum", ([np.full(3, 1e30), np.ones(3)], [1e10, 1.0])),
])
def test_fused_reward_ops_trap_non_finite_values(name, args):
    def run(op):
        if name == "squared_error":
            return op(Tensor(args[0], requires_grad=True), Tensor(args[1]))
        return op([Tensor(v, requires_grad=True) for v in args[0]], args[1])

    for op in ((ta.squared_error, _chain_squared_error) if name == "squared_error"
               else (ta.weighted_sum, _chain_weighted_sum)):
        with np.errstate(over="ignore"), ta.debug_checks():
            with pytest.raises(ta.AutodiffError, match="non-finite"):
                run(op)


def test_cosine_zero_norm_error_is_unchanged():
    # the check is np.linalg.norm's, per operand and row, before any node
    # is recorded; a norm that underflows in the working dtype is zero
    for a, b in [(np.zeros(3), np.ones(3)), (np.ones(3), np.zeros(3)),
                 (np.array([[1.0, 2.0, 3.0], [0.0, 0.0, 0.0]]), np.ones((2, 3))),
                 (np.array([1e-23, 0.0]), np.ones(2))]:
        with Tape() as tape, pytest.raises(ValueError,
                                           match="cosine_similarity: zero-norm operand"):
            ta.cosine_similarity(Tensor(a, requires_grad=True), Tensor(b))
        assert tape.nodes == []


def test_fused_reward_ops_reject_bad_operands():
    v, rows = Tensor(np.ones(3)), Tensor(np.ones((2, 3)))
    with pytest.raises(ValueError, match="cosine_similarity: operands"):
        ta.cosine_similarity(v, rows)
    with pytest.raises(ValueError, match="sub: shape mismatch"):
        ta.squared_error(v, Tensor(np.ones(4)))
    with pytest.raises(ValueError, match="weighted_sum"):
        ta.weighted_sum([v, rows], [1.0, 1.0])
    with pytest.raises(ValueError, match="weighted_sum"):
        ta.weighted_sum([v], [1.0, 2.0])
    with pytest.raises(ValueError, match="weighted_sum"):
        ta.weighted_sum([v], [v])
    with pytest.raises(ValueError, match="weighted_sum"):
        ta.weighted_sum([], [])
