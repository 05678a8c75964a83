import math
import re

import numpy as np
import pytest

from rewardtune import schedule as sc
from rewardtune import tensorad as ta
from rewardtune.tensorad import Tape, Tensor, backward, finite_diff_grad


class StubSched:
    """Hand-set (alpha, sigma) pairs for closed-form step examples."""

    def __init__(self, table, t_train=1000):
        self.table = table
        self.t_train = t_train

    def alpha_at(self, t):
        return self.table[t][0]

    def sigma_at(self, t):
        return self.table[t][1]


# ---------------------------------------------------------------------------
# make_schedule


@pytest.mark.parametrize("kind", ["cosine", "linear-beta"])
def test_schedule_invariants(kind):
    s = sc.make_schedule(kind, t_train=1000)
    vp = s.alpha**2 + s.sigma**2
    assert np.max(np.abs(vp - 1.0)) <= 1e-6
    assert np.all(np.diff(s.alpha) < 0)
    assert np.all(np.diff(s.sigma) > 0)
    assert abs(s.alpha[0] - 1.0) < 1e-4
    assert abs(s.sigma[0]) < 1e-4


def test_schedule_rejects_bad_args():
    with pytest.raises(ValueError):
        sc.make_schedule("quadratic")
    with pytest.raises(ValueError):
        sc.make_schedule("cosine", t_train=1)


def test_schedule_arrays_are_read_only():
    # a schedule keys the step-table cache, so its arrays cannot change under
    # it; the arrays a caller passes in are copied, and stay writable
    s = sc.make_schedule("linear-beta", t_train=1000)
    for arr in (s.alpha, s.sigma):
        with pytest.raises(ValueError, match="read-only"):
            arr[799] = 0.5
    alpha = np.array([1.0, 0.5])
    sigma = np.sqrt(1.0 - alpha**2)
    own = sc.NoiseSchedule(kind="custom", t_train=2, alpha=alpha, sigma=sigma)
    assert alpha.flags.writeable and sigma.flags.writeable
    alpha[1] = 0.25
    assert own.alpha_at(1) == 0.5


def test_linear_beta_spot_values_scalar_oracle():
    # independent scalar recomputation: beta_s linear in [1e-4, 2e-2],
    # alpha_t = prod over applied transitions s < t of sqrt(1 - beta_s)
    t_train = 1000
    s = sc.make_schedule("linear-beta", t_train=t_train)
    for t in (0, 1, 17, 500, 999):
        prod = 1.0
        for k in range(t):
            beta = 1e-4 + (2e-2 - 1e-4) * k / (t_train - 1)
            prod *= 1.0 - beta
        assert abs(s.alpha_at(t) - math.sqrt(prod)) < 1e-12


def test_schedule_timestep_range_checked():
    s = sc.make_schedule("cosine", t_train=100)
    with pytest.raises(ValueError):
        s.alpha_at(100)
    with pytest.raises(ValueError):
        s.sigma_at(-1)


# ---------------------------------------------------------------------------
# forward_diffuse / predict_x0


def test_forward_diffuse_identity_at_zero():
    s = sc.make_schedule("cosine", t_train=1000)
    x = Tensor([0.3, -1.2, 0.7])
    eps = Tensor([1.0, 1.0, 1.0])
    z0 = sc.forward_diffuse(x, 0, eps, s)
    assert np.max(np.abs(z0.data - x.data)) < 1e-4


def test_forward_diffuse_zero_noise():
    s = sc.make_schedule("cosine", t_train=1000)
    x = Tensor([0.5, 2.0])
    z = sc.forward_diffuse(x, 700, Tensor([0.0, 0.0]), s)
    assert np.array_equal(z.data, (x.data * np.float32(s.alpha_at(700))))


def test_forward_diffuse_direct_formula():
    stub = StubSched({5: (0.8, 0.6)})
    z = sc.forward_diffuse(Tensor([1.0, 0.0]), 5, Tensor([0.0, 1.0]), stub)
    assert np.allclose(z.data, [0.8, 0.6], atol=1e-7)


def test_forward_diffuse_shape_mismatch():
    s = sc.make_schedule("cosine", t_train=100)
    with pytest.raises(ValueError):
        sc.forward_diffuse(Tensor([1.0]), 5, Tensor([1.0, 2.0]), s)


def test_forward_diffuse_per_row_timesteps_bitwise():
    s = sc.make_schedule("linear-beta", t_train=1000)
    rng = np.random.default_rng(6)
    x = Tensor(rng.standard_normal((4, 16)))
    eps = Tensor(rng.standard_normal((4, 16)))
    ts = (0, 999, 500, 500)
    z = sc.forward_diffuse(x, ts, eps, s).data
    for i, t in enumerate(ts):
        want = sc.forward_diffuse(Tensor(x.data[i]), t, Tensor(eps.data[i]), s).data
        assert z[i].tobytes() == want.tobytes()
    with pytest.raises(ValueError, match="timestep 1000 outside"):
        sc.forward_diffuse(x, (0, 1, 1000, 2), eps, s)
    with pytest.raises(ValueError, match="shape mismatch"):
        sc.forward_diffuse(x, (0, 1, 2), eps, s)


def test_predict_x0_zero_sigma():
    stub = StubSched({0: (0.5, 0.0)})
    xh = sc.predict_x0(Tensor([1.0, 2.0]), Tensor([9.0, 9.0]), 0, stub)
    assert np.allclose(xh.data, [2.0, 4.0])


def test_predict_x0_direct_formula():
    stub = StubSched({5: (0.8, 0.6)})
    xh = sc.predict_x0(Tensor([1.0]), Tensor([0.5]), 5, stub)
    assert np.allclose(xh.data, [0.875], atol=1e-7)


def test_predict_x0_alpha_floor():
    stub = StubSched({5: (1e-9, 1.0)})
    with pytest.raises(ValueError):
        sc.predict_x0(Tensor([1.0]), Tensor([0.5]), 5, stub)


@pytest.mark.parametrize("kind", ["cosine", "linear-beta"])
def test_roundtrip_recovers_x(kind):
    # the 1e-5 bound needs f64: at extreme t the 1/alpha division amplifies
    # f32 rounding of the forward sum beyond the tolerance by conditioning
    s = sc.make_schedule(kind, t_train=1000)
    rng = np.random.default_rng(3)
    with ta.default_dtype(np.float64):
        x = Tensor(rng.standard_normal(8))
        eps = Tensor(rng.standard_normal(8))
        for t in (1, 10, 400, 850, 999):
            z = sc.forward_diffuse(x, t, eps, s)
            xh = sc.predict_x0(z, eps, t, s)
            assert np.max(np.abs(xh.data - x.data)) < 1e-5, t


def test_roundtrip_f32_moderate_t():
    s = sc.make_schedule("cosine", t_train=1000)
    rng = np.random.default_rng(3)
    x = Tensor(rng.standard_normal(8))
    eps = Tensor(rng.standard_normal(8))
    for t in (1, 10, 400, 800):
        z = sc.forward_diffuse(x, t, eps, s)
        xh = sc.predict_x0(z, eps, t, s)
        assert np.max(np.abs(xh.data - x.data)) < 1e-5, t


# ---------------------------------------------------------------------------
# the DDIM update


def test_ddim_terminal_step_equals_predict_x0():
    s = sc.make_schedule("cosine", t_train=1000)
    rng = np.random.default_rng(4)
    z = Tensor(rng.standard_normal(6))
    eps = Tensor(rng.standard_normal(6))
    t = 40
    z0 = sc.sampler_step("ddim", z, eps, t, 0, s)
    xh = sc.predict_x0(z, eps, t, s)
    assert np.array_equal(z0.data, xh.data)


def test_ddim_zero_eps():
    stub = StubSched({3: (0.6, 0.8), 1: (0.9, math.sqrt(1 - 0.81))})
    z = Tensor([2.0, -1.0])
    out = sc.sampler_step("ddim", z, Tensor([0.0, 0.0]), 3, 1, stub)
    assert np.allclose(out.data, z.data * (0.9 / 0.6), atol=1e-6)


def test_ddim_scalar_case():
    stub = StubSched({7: (0.6, 0.8), 2: (0.9, 0.435)})
    out = sc.sampler_step("ddim", Tensor([1.0]), Tensor([0.5]), 7, 2, stub)
    # 0.9*(1.0 - 0.8*0.5)/0.6 + 0.435*0.5 = 1.1175
    assert abs(float(out.data[0]) - 1.1175) < 1e-6


def test_ddim_rejects_bad_order():
    s = sc.make_schedule("cosine", t_train=100)
    z = Tensor([1.0])
    with pytest.raises(ValueError, match=r"^ddim_step: t_prev \(5\) must be < t \(5\)$"):
        sc.sampler_step("ddim", z, z, 5, 5, s)
    with pytest.raises(ValueError, match=r"^ddim_step: t_prev \(9\) must be < t \(5\)$"):
        sc.sampler_step("ddim", z, z, 5, 9, s)


# ---------------------------------------------------------------------------
# the Euler update


def test_euler_rejects_bad_order():
    s = sc.make_schedule("cosine", t_train=100)
    z = Tensor([1.0])
    with pytest.raises(ValueError, match=r"^euler_step: t_prev \(7\) must be < t \(7\)$"):
        sc.sampler_step("euler", z, z, 7, 7, s)


def test_euler_single_step_closed_form():
    # regression against a scalar recomputation of the discretized flow
    s = sc.make_schedule("cosine", t_train=1000)
    t, t_prev = 999, 0
    z_val, eps_val = 1.25, -0.5
    out = sc.sampler_step("euler", Tensor([z_val]), Tensor([eps_val]), t, t_prev, s)
    a_t, a_p = s.alpha_at(t), s.alpha_at(t_prev)
    s_t, s_p = s.sigma_at(t), s.sigma_at(t_prev)
    dlog = math.log(a_p) - math.log(a_t)
    coeff = ((s_p * s_p - s_t * s_t) - 2.0 * s_t * s_t * dlog) / (2.0 * s_t)
    expected = z_val * (1.0 + dlog) + eps_val * coeff
    assert abs(float(out.data[0]) - expected) < 1e-5


def _oracle_denoiser_run(kind, sched, plan, x, z_start):
    """Walk a plan with sampler ``kind`` and the exact linear denoiser
    eps = (z - alpha*x)/sigma."""
    z = z_start
    for t, t_prev in plan.transitions():
        a, s = sched.alpha_at(t), sched.sigma_at(t)
        eps = Tensor((z.data - a * x) / s)
        z = sc.sampler_step(kind, z, eps, t, t_prev, sched)
    return z.data


def _euler_ddim_gap(n_steps, seed=9):
    sched = sc.make_schedule("cosine", t_train=1000)
    plan = sc.make_step_plan(n_steps, 1000)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(8).astype(np.float32) * 0.5
    z_start = Tensor(rng.standard_normal(8))
    end_ddim = _oracle_denoiser_run("ddim", sched, plan, x, z_start)
    end_euler = _oracle_denoiser_run("euler", sched, plan, x, z_start)
    assert np.allclose(end_ddim, x, atol=1e-4)  # DDIM is exact here
    return np.linalg.norm(end_euler - end_ddim) / np.linalg.norm(end_ddim)


def test_euler_agrees_with_ddim_at_50_steps():
    # tolerance frozen from the oracle run: measured 0.059..0.090 over seeds;
    # the schemes converge to the same flow as steps grow
    assert _euler_ddim_gap(50) < 0.12


def test_euler_error_shrinks_first_order():
    gaps = [_euler_ddim_gap(n) for n in (25, 50, 100)]
    assert gaps[1] < gaps[0]
    assert gaps[2] < gaps[1]
    # halving ratio consistent with a first-order scheme
    assert gaps[1] / gaps[0] < 0.75
    assert gaps[2] / gaps[1] < 0.75


# ---------------------------------------------------------------------------
# cfg_combine


def test_cfg_w1_is_conditional():
    c = Tensor([0.3, -0.7])
    u = Tensor([5.0, 5.0])
    out = sc.cfg_combine(c, u, 1.0)
    assert np.array_equal(out.data, c.data)


def test_cfg_w0_is_unconditional():
    c = Tensor([0.3, -0.7])
    u = Tensor([5.0, -5.0])
    out = sc.cfg_combine(c, u, 0.0)
    assert np.array_equal(out.data, u.data)


def test_cfg_paper_scale():
    out = sc.cfg_combine(Tensor([1.0]), Tensor([0.0]), 7.5)
    assert float(out.data[0]) == 7.5


def test_cfg_rejects_negative_w():
    with pytest.raises(ValueError):
        sc.cfg_combine(Tensor([1.0]), Tensor([0.0]), -1.0)


@pytest.mark.parametrize("w", [math.nan, math.inf, -math.inf])
def test_cfg_rejects_non_finite_w(w):
    with pytest.raises(ValueError, match="non-negative"):
        sc.cfg_combine(Tensor([1.0]), Tensor([0.0]), w)


# ---------------------------------------------------------------------------
# make_step_plan


def test_plan_full_horizon():
    plan = sc.make_step_plan(1000, 1000)
    assert plan.timesteps == tuple(range(999, -1, -1))


def test_plan_single_step():
    plan = sc.make_step_plan(1, 1000)
    assert plan.timesteps == (999, 0)
    assert plan.transitions() == [(999, 0)]


def test_plan_25_of_1000():
    plan = sc.make_step_plan(25, 1000)
    evals = plan.timesteps[:-1]
    # independent recomputation of the spacing formula
    assert list(evals) == [999 - 40 * i for i in range(25)]
    strides = {a - b for a, b in zip(evals, evals[1:])}
    assert strides == {40}
    assert plan.timesteps[-1] == 0
    assert len(plan.transitions()) == 25


def test_plan_out_of_range():
    with pytest.raises(ValueError):
        sc.make_step_plan(0, 1000)
    with pytest.raises(ValueError):
        sc.make_step_plan(1001, 1000)


def test_plan_invariants_hold_for_many_sizes():
    for n in (1, 2, 3, 5, 7, 15, 25, 50, 333, 999, 1000):
        plan = sc.make_step_plan(n, 1000)
        ts = plan.timesteps
        assert ts[-1] == 0
        assert all(a > b for a, b in zip(ts, ts[1:]))
        assert ts[0] == 999  # largest schedulable timestep


# ---------------------------------------------------------------------------
# differentiability of the step functions


@pytest.mark.parametrize("step_name", ["ddim", "euler"])
def test_step_gradients_match_fd(step_name):
    sched = sc.make_schedule("cosine", t_train=1000)
    def f(p):
        out = sc.sampler_step(step_name, p["z"], p["eps"], 600, 560, sched)
        w = Tensor(np.linspace(0.5, 1.5, 6))
        return ta.mul(out, w).sum()

    rng = np.random.default_rng(21)
    with ta.default_dtype(np.float64):
        params = {
            "z": Tensor(rng.standard_normal(6), requires_grad=True),
            "eps": Tensor(rng.standard_normal(6), requires_grad=True),
        }
        with Tape() as tape:
            loss = f(params)
            grads = backward(tape, loss)
        fd = finite_diff_grad(f, params, h=1e-3)
        for name in params:
            num = np.abs(grads[params[name].id] - fd[name])
            den = np.maximum(np.abs(fd[name]), 1e-6)
            assert np.max(num / den) < 1e-3, name


def test_forward_diffuse_and_predict_gradients():
    sched = sc.make_schedule("cosine", t_train=1000)

    def f(p):
        z = sc.forward_diffuse(p["x"], 300, p["eps"], sched)
        xh = sc.predict_x0(z, p["eps_hat"], 300, sched)
        w = Tensor(np.linspace(0.5, 1.5, 4))
        return ta.mul(xh, w).sum()

    rng = np.random.default_rng(22)
    with ta.default_dtype(np.float64):
        params = {
            "x": Tensor(rng.standard_normal(4), requires_grad=True),
            "eps": Tensor(rng.standard_normal(4), requires_grad=True),
            "eps_hat": Tensor(rng.standard_normal(4), requires_grad=True),
        }
        with Tape() as tape:
            grads = backward(tape, f(params))
        fd = finite_diff_grad(f, params, h=1e-3)
        for name in params:
            num = np.abs(grads[params[name].id] - fd[name])
            den = np.maximum(np.abs(fd[name]), 1e-6)
            assert np.max(num / den) < 1e-3, name


def test_sampler_step_dispatch():
    with pytest.raises(ValueError):
        sc.sampler_step("pndm", Tensor([1.0]), Tensor([0.0]), 5, 0,
                        sc.make_schedule("cosine", t_train=100))


# ---------------------------------------------------------------------------
# input checks: each bad input fails in its own check, with its message


def _schedule(alpha, sigma, t_train=3):
    return sc.NoiseSchedule("test", t_train, np.array(alpha), np.array(sigma))


_INPUT_CHECKS = {
    "schedule-length": (lambda: _schedule([1.0, 0.6], [0.0, 0.8]),
                        "schedule arrays must have length t_train"),
    "schedule-vp": (lambda: _schedule([1.0, 0.6, 0.5], [0.0, 0.8, 0.5]),
                    "schedule is not variance preserving"),
    "schedule-decreasing": (lambda: _schedule([1.0, 0.6, 0.6], [0.0, 0.8, 0.8]),
                            "alpha must be strictly decreasing in t"),
    "plan-end": (lambda: sc.StepPlan(1, 10, (5, 2)), "step plan must end at 0"),
    "plan-order": (lambda: sc.StepPlan(2, 10, (5, 5, 0)), "step plan must be strictly decreasing"),
    "plan-horizon": (lambda: sc.StepPlan(1, 10, (10, 0)),
                     "step plan exceeds the training horizon"),
    "columns-rank": (lambda: sc.make_schedule("cosine", 10).columns_at([[1, 2]]),
                     "expected one timestep per row, got shape (1, 2)"),
    "euler-zero-noise": (lambda: sc.sampler_step("euler", Tensor([1.0]), Tensor([0.5]), 3, 1,
                                                 StubSched({3: (1.0, 0.0), 1: (1.0, 0.0)})),
                         "euler_step: cannot step from a zero-noise timestep"),
}


@pytest.mark.parametrize("case", sorted(_INPUT_CHECKS))
def test_input_check_raises_its_own_error(case):
    run, message = _INPUT_CHECKS[case]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        run()
