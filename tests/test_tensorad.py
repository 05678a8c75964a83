import ast
import inspect

import numpy as np
import pytest

from rewardtune import tensorad as ta
from rewardtune.tensorad import (
    AutodiffError,
    Tape,
    Tensor,
    backward,
    checkpoint_segment,
    finite_diff_grad,
)
from rewardtune.finetune import collect_grads


def rel_err(a, b, floor=1e-6):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.maximum(np.abs(b), floor)
    return np.max(np.abs(a - b) / denom)


# ---------------------------------------------------------------------------
# the finite-difference oracle itself


def test_fd_oracle_square():
    # f(x) = x^2 at x = 3 -> derivative 6 (float64 so the quotient is clean)
    def f(p):
        x = p["x"]
        return ta.mul(x, x)

    with ta.default_dtype(np.float64):
        g = finite_diff_grad(f, {"x": Tensor(3.0)}, h=1e-3)
    assert abs(float(g["x"]) - 6.0) < 1e-4


def test_fd_oracle_constant():
    def f(p):
        return Tensor(5.0)

    g = finite_diff_grad(f, {"x": Tensor([1.0, 2.0])}, h=1e-3)
    assert np.all(g["x"] == 0.0)


def test_fd_oracle_rejects_bad_h():
    with pytest.raises(ValueError):
        finite_diff_grad(lambda p: Tensor(0.0), {"x": Tensor(1.0)}, h=0.0)


def test_fd_oracle_rejects_nonscalar_f():
    with pytest.raises(ValueError):
        finite_diff_grad(lambda p: p["x"], {"x": Tensor([1.0, 2.0])}, h=1e-3)


# ---------------------------------------------------------------------------
# backward basics


def test_backward_sum_of_squares():
    with Tape() as tape:
        x = Tensor([1.0, 2.0, 3.0], requires_grad=True)
        y = ta.mul(x, x).sum()
        grads = backward(tape, y)
    assert np.allclose(grads[x.id], [2.0, 4.0, 6.0])


def test_backward_requires_scalar_loss():
    with Tape() as tape:
        x = Tensor([1.0, 2.0], requires_grad=True)
        y = ta.mul(x, x)
        with pytest.raises(AutodiffError):
            backward(tape, y)


def test_backward_unreachable_leaf_gets_zeros():
    # backward's map holds only the leaves a gradient reaches; collect_grads
    # gives zeros to a leaf the tape touched off the loss path, as it does
    # to a leaf no op touched
    with Tape() as tape:
        x = Tensor([1.0, 2.0], requires_grad=True)
        z = Tensor([3.0, 4.0], requires_grad=True)
        u = Tensor([5.0], requires_grad=True)  # never touched
        _dead = ta.mul(z, z)  # touched by the tape but not on the loss path
        y = ta.mul(x, x).sum()
        grads = backward(tape, y)
    assert z.id not in grads and u.id not in grads
    named = collect_grads({"x": x, "z": z, "u": u}, grads)
    assert np.allclose(named["x"], [2.0, 4.0])
    for name, leaf in (("z", z), ("u", u)):
        assert named[name].dtype == leaf.data.dtype and np.all(named[name] == 0.0), name


def test_backward_constant_loss_gives_zeros():
    with Tape() as tape:
        x = Tensor([1.0, 2.0], requires_grad=True)
        _ = ta.mul(x, x).sum()
        grads = backward(tape, Tensor(0.0))
    assert x.id not in grads
    g = collect_grads({"x": x}, grads)["x"]
    assert g.shape == x.shape and np.all(g == 0.0)


def test_backward_twice_raises():
    with Tape() as tape:
        x = Tensor(2.0, requires_grad=True)
        y = ta.mul(x, x)
        backward(tape, y)
        with pytest.raises(AutodiffError):
            backward(tape, y)


def test_tape_is_append_only_and_ordered():
    with Tape() as tape:
        x = Tensor([1.0, 2.0], requires_grad=True)
        a = ta.mul(x, x)
        b = a.sum()
    assert [n.op for n in tape.nodes] == ["mul", "sum"]
    assert tape.nodes[0].out_id == a.id
    assert tape.nodes[1].out_id == b.id


def test_determinism_same_graph_twice():
    def build():
        rng = np.random.default_rng(11)
        with Tape() as tape:
            x = Tensor(rng.standard_normal(8), requires_grad=True)
            w = Tensor(rng.standard_normal((8, 4)), requires_grad=True)
            y = ta.silu(ta.matmul(x, w)).sum()
            grads = backward(tape, y)
        return grads[x.id].tobytes(), grads[w.id].tobytes()

    assert build() == build()


def test_debug_mode_traps_nan():
    with ta.debug_checks():
        with pytest.raises(AutodiffError):
            Tensor([np.nan, 1.0])
        with Tape() as tape, np.errstate(divide="ignore"):
            x = Tensor(0.0, requires_grad=True)
            y = ta.sqrt(x)  # d/dx sqrt at 0 is inf
            with pytest.raises(AutodiffError):
                backward(tape, y)


def test_every_export_exists():
    assert [name for name in ta.__all__ if not hasattr(ta, name)] == []


def test_no_tape_means_detached():
    x = Tensor([1.0, 2.0], requires_grad=True)
    y = ta.mul(x, x)
    assert y._needs is False  # nothing recorded, nothing to differentiate


def test_pause_recording_detaches():
    with Tape() as tape:
        x = Tensor([1.0, 2.0], requires_grad=True)
        with ta.pause_recording():
            _dead = ta.mul(x, x)
        y = x.sum()
        backward(tape, y)
    assert [n.op for n in tape.nodes] == ["sum"]


# ---------------------------------------------------------------------------
# per-op gradients against the oracle (float64 so the difference quotient is
# not dominated by rounding noise)


def _check_op(build, shapes, seed, h=1e-3, tol=1e-3):
    rng = np.random.default_rng(seed)
    with ta.default_dtype(np.float64):
        params = {
            name: Tensor(rng.uniform(-2.0, 2.0, size=shape), requires_grad=True)
            for name, shape in shapes.items()
        }
        with Tape() as tape:
            loss = build(params)
            grads = backward(tape, loss)
        fd = finite_diff_grad(build, params, h=h)
        for name, t in params.items():
            assert rel_err(grads[t.id], fd[name]) < tol, name


def _as_scalar(x, rng=None):
    # reduce any tensor to a scalar via a fixed weighting (must be the same
    # on every call so the finite-difference oracle sees one function)
    w = Tensor(np.linspace(0.5, 1.5, x.data.size).reshape(x.data.shape))
    return ta.mul(x, w).sum() if x.data.ndim else ta.mul(x, w)


def test_grad_add():
    rng = np.random.default_rng(0)
    _check_op(lambda p: _as_scalar(ta.add(p["a"], p["b"]), rng), {"a": (5,), "b": (5,)}, 1)


def test_grad_add_scalar():
    rng = np.random.default_rng(2)
    _check_op(lambda p: _as_scalar(ta.add(p["a"], 1.5), rng), {"a": (5,)}, 3)


def test_grad_sub():
    rng = np.random.default_rng(4)
    _check_op(lambda p: _as_scalar(ta.sub(p["a"], p["b"]), rng), {"a": (4,), "b": (4,)}, 5)
    _check_op(lambda p: _as_scalar(ta.sub(2.0, p["a"]), rng), {"a": (4,)}, 6)


def test_grad_mul():
    rng = np.random.default_rng(7)
    _check_op(lambda p: _as_scalar(ta.mul(p["a"], p["b"]), rng), {"a": (6,), "b": (6,)}, 8)
    _check_op(lambda p: _as_scalar(ta.mul(p["a"], -0.7), rng), {"a": (6,)}, 9)


def test_grad_div():
    rng = np.random.default_rng(10)

    def f(p):
        shifted = ta.add(ta.mul(p["b"], 0.1), 3.0)  # keep divisor away from 0
        return _as_scalar(ta.div(p["a"], shifted), rng)

    _check_op(f, {"a": (5,), "b": (5,)}, 11)
    _check_op(lambda p: _as_scalar(ta.div(p["a"], 2.5), rng), {"a": (5,)}, 12)


def test_grad_matmul_all_shapes():
    rng = np.random.default_rng(13)
    _check_op(lambda p: _as_scalar(ta.matmul(p["a"], p["b"]), rng), {"a": (4,), "b": (4, 3)}, 14)
    _check_op(lambda p: _as_scalar(ta.matmul(p["a"], p["b"]), rng), {"a": (3, 4), "b": (4,)}, 15)
    _check_op(lambda p: _as_scalar(ta.matmul(p["a"], p["b"]), rng), {"a": (3, 4), "b": (4, 2)}, 16)


def test_grad_dot():
    rng = np.random.default_rng(17)
    _check_op(lambda p: ta.dot(p["a"], p["b"]), {"a": (6,), "b": (6,)}, 18)
    del rng


def test_grad_concat_slice():
    rng = np.random.default_rng(19)

    def f(p):
        cat = ta.concat([p["a"], p["b"]])
        return _as_scalar(ta.slice1d(cat, 1, 6), rng)

    _check_op(f, {"a": (4,), "b": (4,)}, 20)


def test_grad_stack():
    rng = np.random.default_rng(21)

    def f(p):
        s = ta.stack([p["a"].sum(), p["b"].mean()])
        return _as_scalar(s, rng)

    _check_op(f, {"a": (3,), "b": (5,)}, 22)


def test_grad_row():
    rng = np.random.default_rng(23)
    _check_op(lambda p: _as_scalar(ta.row(p["m"], 2), rng), {"m": (4, 3)}, 24)


def test_grad_sum_mean():
    _check_op(lambda p: p["a"].sum(), {"a": (7,)}, 25)
    _check_op(lambda p: p["a"].mean(), {"a": (7,)}, 26)


def test_grad_tanh_silu_exp_log_sqrt():
    rng = np.random.default_rng(27)
    _check_op(lambda p: _as_scalar(ta.tanh(p["a"]), rng), {"a": (6,)}, 28)
    _check_op(lambda p: _as_scalar(ta.silu(p["a"]), rng), {"a": (6,)}, 29)
    _check_op(lambda p: _as_scalar(ta.exp(ta.mul(p["a"], 0.5)), rng), {"a": (6,)}, 30)

    def f_log(p):
        pos = ta.add(ta.mul(ta.tanh(p["a"]), 0.4), 2.0)
        return _as_scalar(ta.log(pos), rng)

    _check_op(f_log, {"a": (6,)}, 31)

    def f_sqrt(p):
        pos = ta.add(ta.mul(ta.tanh(p["a"]), 0.4), 2.0)
        return _as_scalar(ta.sqrt(pos), rng)

    _check_op(f_sqrt, {"a": (6,)}, 32)


def test_grad_norm_cosine_squared_error():
    rng = np.random.default_rng(33)
    _check_op(lambda p: ta.norm(p["a"]), {"a": (5,)}, 34)
    _check_op(lambda p: ta.cosine_similarity(p["a"], p["b"]), {"a": (5,), "b": (5,)}, 35)
    _check_op(lambda p: ta.squared_error(p["a"], p["b"]), {"a": (5,), "b": (5,)}, 36)
    del rng


def test_cosine_rejects_zero_norm():
    with pytest.raises(ValueError):
        ta.cosine_similarity(Tensor([0.0, 0.0]), Tensor([1.0, 0.0]))


def test_grad_scalar_times_vector_chain():
    # scalar tensor broadcast against a vector (used by reward scalings)
    rng = np.random.default_rng(37)

    def f(p):
        s = p["a"].mean()
        return _as_scalar(ta.mul(p["b"], s), rng)

    _check_op(f, {"a": (3,), "b": (4,)}, 38)


def test_time_embedding_constant_and_distinct():
    e1 = ta.time_embedding(5, 8)
    e2 = ta.time_embedding(5, 8)
    e3 = ta.time_embedding(6, 8)
    assert e1.data.shape == (8,)
    assert np.array_equal(e1.data, e2.data)
    assert not np.array_equal(e1.data, e3.data)
    assert e1.data.tobytes() == e2.data.tobytes() and e1.id != e2.id
    assert e1._needs is False and e1.requires_grad is False
    with pytest.raises(ValueError):
        ta.time_embedding(3, 7)


def test_linear_equals_matmul_then_add_bitwise():
    rng = np.random.default_rng(41)
    arrays = {"x": rng.standard_normal(6), "w": rng.standard_normal((6, 6)),
              "b": rng.standard_normal(6)}
    runs = []
    for layer in (ta.linear, lambda x, w, b: ta.add(ta.matmul(x, w), b)):
        leaves = {k: Tensor(a, requires_grad=True) for k, a in arrays.items()}
        with Tape() as tape:
            x, w, b = leaves.values()
            out = layer(ta.tanh(layer(x, w, b)), w, b)  # w and b used twice
            loss = ta.tensor_sum(ta.mul(out, Tensor(np.linspace(0.5, 1.5, 6))))
        grads = backward(tape, loss)
        runs.append([out.data.tobytes()] + [grads[t.id].tobytes() for t in leaves.values()])
    assert runs[0] == runs[1]


def test_linear_records_one_node():
    w = Tensor(np.ones((3, 2)), requires_grad=True)
    with Tape() as tape:
        ta.linear(Tensor(np.ones(3)), w, Tensor(np.zeros(2)))
    assert [n.op for n in tape.nodes] == ["linear"]
    with pytest.raises(ValueError, match="bias shape"):
        ta.linear(Tensor(np.ones(3)), w, Tensor(np.zeros(3)))


def test_data64_is_read_only_widened_copy():
    t = Tensor(np.random.default_rng(42).standard_normal((4, 3)))
    wide = t.data64
    assert wide.dtype == np.float64 and not wide.flags.writeable
    assert np.array_equal(wide, t.data.astype(np.float64))
    assert t.data64 is wide
    with pytest.raises(ValueError):
        wide[0, 0] = 1.0


# ---------------------------------------------------------------------------
# a composed multi-step chain checked against the oracle


def _toy_chain(p, n_steps=3):
    """A miniature denoising-like chain: z' = a*z + b*f(z, w)."""
    z = p["z0"]
    for k in range(n_steps):
        eps = ta.tanh(ta.matmul(z, p["w"]))
        z = ta.add(ta.mul(z, 0.9), ta.mul(eps, 0.2 + 0.1 * k))
    return ta.squared_error(z, p["target"])


def test_chain_gradient_matches_fd():
    rng = np.random.default_rng(40)
    with ta.default_dtype(np.float64):
        params = {
            "z0": Tensor(rng.uniform(-1.0, 1.0, size=6), requires_grad=True),
            "w": Tensor(rng.uniform(-0.8, 0.8, size=(6, 6)), requires_grad=True),
            "target": Tensor(rng.uniform(-1.0, 1.0, size=6)),
        }
        with Tape() as tape:
            loss = _toy_chain(params)
            grads = backward(tape, loss)
        fd = finite_diff_grad(_toy_chain, params, h=1e-3)
        assert rel_err(grads[params["z0"].id], fd["z0"]) < 1e-3
        assert rel_err(grads[params["w"].id], fd["w"]) < 1e-3


# ---------------------------------------------------------------------------
# checkpoint segments


def test_segment_identity_passthrough():
    with Tape() as tape:
        x = Tensor([1.0, 2.0], requires_grad=True)
        out = checkpoint_segment(lambda t: t, (x,))
        assert out is x
        y = ta.mul(out, out).sum()
        grads = backward(tape, y)
    assert np.allclose(grads[x.id], [2.0, 4.0])


def _run_chain(params, use_checkpoints):
    z = params["z0"]
    w = params["w"]
    for k in range(4):
        scale = 0.2 + 0.1 * k

        def step(z_in, w_in, _s=scale):
            eps = ta.tanh(ta.matmul(z_in, w_in))
            return ta.add(ta.mul(z_in, 0.9), ta.mul(eps, _s))

        if use_checkpoints:
            z = checkpoint_segment(step, (z, w))
        else:
            z = step(z, w)
    return ta.mul(z, z).sum()


def test_checkpointed_gradients_bit_identical():
    rng = np.random.default_rng(50)
    z0 = rng.standard_normal(8)
    w = rng.standard_normal((8, 8)) * 0.4

    def run(use_ckpt):
        params = {"z0": Tensor(z0, requires_grad=True), "w": Tensor(w, requires_grad=True)}
        with Tape() as tape:
            loss = _run_chain(params, use_ckpt)
            grads = backward(tape, loss)
        return (
            float(loss.data),
            grads[params["z0"].id].tobytes(),
            grads[params["w"].id].tobytes(),
        )

    plain = run(False)
    ckpt = run(True)
    assert plain[0] == ckpt[0]
    assert plain[1] == ckpt[1]
    assert plain[2] == ckpt[2]


def test_backward_outside_tape_block_replays_segments():
    # segment replay must work when backward runs after the recording block
    # has exited (the training loop's calling convention)
    def run(inside):
        params = {"z0": Tensor(np.linspace(-1, 1, 8), requires_grad=True),
                  "w": Tensor(np.eye(8) * 0.3, requires_grad=True)}
        with Tape() as tape:
            loss = _run_chain(params, use_checkpoints=True)
            if inside:
                grads = backward(tape, loss)
        if not inside:
            grads = backward(tape, loss)
        return grads[params["w"].id].tobytes()

    assert run(inside=True) == run(inside=False)


def test_segment_memory_stays_flat():
    rng = np.random.default_rng(51)
    z0 = rng.standard_normal(8)
    w = rng.standard_normal((8, 8)) * 0.4
    n_steps = 25

    def step(z_in, w_in):
        eps = ta.tanh(ta.matmul(z_in, w_in))
        return ta.add(ta.mul(z_in, 0.9), ta.mul(eps, 0.1))

    def peak(use_ckpt):
        with Tape() as tape:
            z = Tensor(z0, requires_grad=True)
            wt = Tensor(w, requires_grad=True)
            for _ in range(n_steps):
                z = checkpoint_segment(step, (z, wt)) if use_ckpt else step(z, wt)
            loss = z.sum()
            backward(tape, loss)
        return tape.stats.peak_live_interior

    # measure one step's interior activation count with a probe tape
    with Tape() as probe:
        z = Tensor(z0, requires_grad=True)
        wt = Tensor(w, requires_grad=True)
        step(z, wt)
    one_step = probe.stats.peak_live_interior
    assert one_step > 0

    flat = peak(True)
    full = peak(False)
    assert flat <= one_step + n_steps  # budget: one step interior + boundary latents
    assert full >= n_steps * one_step  # without checkpointing everything stays live
    assert flat < full


def test_boundary_mark_stays_on_its_tape():
    # a segment boundary is excluded from its own tape's live count only: a
    # later tape that saves the same tensor counts it like any other
    x = Tensor([1.0, 2.0], requires_grad=True)
    with Tape():
        marked = checkpoint_segment(lambda a: ta.mul(a, 2.0), (x,))
        fresh = ta.mul(x, 2.0)

    def peak_saving(t):
        with Tape() as tape:
            ta.log(t)  # records a node that saves t
        return tape.stats.peak_live_interior

    assert peak_saving(fresh) == 1
    assert peak_saving(marked) == 1


@pytest.mark.parametrize("fn", [lambda a: ta.tanh(ta.mul(a, 2.0)),
                                lambda a: ta.mul(ta.tanh(a), 2.0)],
                         ids=["saves-own-output", "saves-interior"])
def test_segment_output_leaves_no_interior_count(fn):
    # a segment whose last op saves its own output (tanh) counts that output
    # as interior while it runs; once it is a boundary nothing may stay
    # counted, so five chained segments end as the other form does
    with Tape() as tape:
        z = Tensor(np.linspace(-1.0, 1.0, 4), requires_grad=True)
        for _ in range(5):
            z = checkpoint_segment(fn, (z,))
    assert tape.stats.live_interior == 0
    assert tape.stats.peak_live_interior == 1


def test_binary_node_keeps_only_what_a_needed_gradient_reads():
    # y needs a gradient and no other node keeps it; f, an op's output that
    # needs none, and a constant, given as a number or a frozen 0-D tensor,
    # get no gradient, so the node keeps only what y's gradient reads
    x = Tensor([1.0, -2.0, 3.0], requires_grad=True)
    with Tape() as tape:
        y = ta.add(x, x)
        f = ta.tanh(Tensor([0.5, 0.25, 2.0]))
        kept = []
        for op, a, b in ((ta.mul, y, 2.0), (ta.mul, Tensor(2.0), y), (ta.mul, y, f),
                         (ta.div, y, f)):
            out = op(a, b)
            kept.append((tape.nodes[-1].saved, tape.stats.live_interior))
        loss = ta.tensor_sum(out)
    assert [len(saved) for saved, _ in kept] == [1, 1, 1, 1]
    assert kept[2][0][0] is f and kept[3][0][0] is f
    # the constants are leaves; f, interior, is counted once however many keep it
    assert [live for _, live in kept] == [0, 0, 1, 1]
    grads = backward(tape, loss, tap_ids=[y.id, f.id])
    assert f.id not in grads
    np.testing.assert_array_equal(grads[x.id], 2 * grads[y.id])


def test_stats_count_an_array_two_nodes_keep_once():
    # recorded steps that share a buffer keep the same arrays: an array is
    # live once however many nodes keep it, and stops being live when the
    # last node that keeps it is released, as a tensor does
    stats = ta.TapeStats()
    shared, own = np.zeros(3), np.ones(3)
    stats.note((shared,))
    stats.note((shared, own))
    assert (stats.live_interior, stats.peak_live_interior) == (2, 2)
    stats.release((shared,))
    assert stats.live_interior == 2
    stats.release((shared, own))
    assert (stats.live_interior, stats.peak_live_interior) == (0, 2)


def test_every_backward_rule_is_used():
    # a rule no op names any more is dead code
    tree = ast.parse(inspect.getsource(ta))
    rules = {node.name for node in tree.body
             if isinstance(node, ast.FunctionDef) and node.name.startswith("_bw_")}
    used = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    assert rules and not rules - used, sorted(rules - used)


def test_segment_rejects_undeclared_tensor():
    with Tape() as tape:
        x = Tensor([1.0, 2.0], requires_grad=True)
        outside = Tensor([3.0, 4.0], requires_grad=True)

        def bad(t):
            return ta.mul(t, outside)

        with pytest.raises(AutodiffError):
            checkpoint_segment(bad, (x,))
    del tape


def test_segment_replay_length_mismatch_detected():
    calls = {"n": 0}

    def impure(t):
        calls["n"] += 1
        if calls["n"] > 1:
            return ta.mul(ta.mul(t, 2.0), 1.0)  # extra op on replay
        return ta.mul(t, 2.0)

    with Tape() as tape:
        x = Tensor([1.0, 2.0], requires_grad=True)
        out = checkpoint_segment(impure, (x,))
        loss = out.sum()
        with pytest.raises(AutodiffError):
            backward(tape, loss)


def test_segment_without_tape_is_plain_call():
    x = Tensor([2.0])
    out = checkpoint_segment(lambda t: ta.mul(t, 3.0), (x,))
    assert np.allclose(out.data, [6.0])


def test_nested_segments():
    rng = np.random.default_rng(52)
    z0 = rng.standard_normal(6)
    w = rng.standard_normal((6, 6)) * 0.3

    def inner(z_in, w_in):
        return ta.tanh(ta.matmul(z_in, w_in))

    def outer(z_in, w_in):
        h = checkpoint_segment(inner, (z_in, w_in))
        return ta.add(h, z_in)

    def run(nested):
        params = {"z": Tensor(z0, requires_grad=True), "w": Tensor(w, requires_grad=True)}
        with Tape() as tape:
            if nested:
                out = checkpoint_segment(outer, (params["z"], params["w"]))
            else:
                out = ta.add(ta.tanh(ta.matmul(params["z"], params["w"])), params["z"])
            grads = backward(tape, out.sum())
        return grads[params["z"].id].tobytes(), grads[params["w"].id].tobytes()

    assert run(True) == run(False)


def test_grad_taps_capture_intermediates():
    with Tape() as tape:
        x = Tensor([1.0, 2.0], requires_grad=True)
        mid = ta.mul(x, 3.0)
        loss = mid.sum()
        grads = backward(tape, loss, tap_ids=[mid.id])
    assert np.allclose(grads[mid.id], [1.0, 1.0])
    assert np.allclose(grads[x.id], [3.0, 3.0])


# ---------------------------------------------------------------------------
# tensor basics


def test_tensor_immutable():
    t = Tensor([1.0, 2.0])
    with pytest.raises(ValueError):
        t.data[0] = 5.0


def test_shape_mismatch_raises():
    with pytest.raises(ValueError):
        ta.add(Tensor([1.0, 2.0]), Tensor([1.0, 2.0, 3.0]))
    with pytest.raises(ValueError):
        ta.matmul(Tensor([1.0, 2.0]), Tensor([[1.0], [2.0], [3.0]]))


def test_operator_sugar():
    a = Tensor([1.0, 2.0])
    b = Tensor([3.0, 4.0])
    assert np.allclose((a + b).data, [4.0, 6.0])
    assert np.allclose((a - b).data, [-2.0, -2.0])
    assert np.allclose((a * b).data, [3.0, 8.0])
    assert np.allclose((a / 2.0).data, [0.5, 1.0])
    assert np.allclose((-a).data, [-1.0, -2.0])
    assert np.allclose((2.0 * a).data, [2.0, 4.0])
    assert float((a @ Tensor([[1.0], [1.0]])).data[0]) == 3.0
