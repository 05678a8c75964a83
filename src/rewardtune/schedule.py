"""Variance-preserving noise schedules, step plans, and sampler steps.

The schedule stores cumulative signal/noise coefficients alpha_t, sigma_t
with alpha_t^2 + sigma_t^2 = 1. Each sampler update (DDIM and a
probability-flow Euler step) and the guidance combination is one function
that checks its arguments and returns plain floats, constants with respect
to differentiation, as the (a, b) pairs of updates x * a + y * b. The taped
step (``tensorad.mlp_step``) and the detached walk apply them; so do
``cfg_combine`` and ``sampler_step``, as ``axpby`` nodes over autodiff
tensors: the reference chain that step is checked against.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import tensorad as ta
from .tensorad import Tensor

DEFAULT_T_TRAIN = 1000
DEFAULT_SCHEDULE = "linear-beta"
SCHEDULE_KINDS = ("cosine", "linear-beta")
ALPHA_FLOOR = 1e-6  # below this the x-hat division is meaningless


@dataclass(frozen=True, eq=False)
class NoiseSchedule:
    """Cumulative coefficients for z_t = alpha_t * x + sigma_t * eps. A
    schedule is equal only to itself and hashes by identity (its arrays
    have no hash), so it can key a cache of what is built from it: it holds
    read-only copies of the arrays it is given, which no one can change
    under the cache."""

    kind: str
    t_train: int
    alpha: np.ndarray  # float64, shape (t_train,), strictly decreasing
    sigma: np.ndarray  # float64, derived as sqrt(1 - alpha^2)

    def __post_init__(self):
        for name in ("alpha", "sigma"):
            arr = np.array(getattr(self, name))
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        if self.alpha.shape != (self.t_train,) or self.sigma.shape != (self.t_train,):
            raise ValueError("schedule arrays must have length t_train")
        vp = self.alpha**2 + self.sigma**2
        if np.max(np.abs(vp - 1.0)) > 1e-6:
            raise ValueError("schedule is not variance preserving")
        if np.any(np.diff(self.alpha) >= 0):
            raise ValueError("alpha must be strictly decreasing in t")

    def alpha_at(self, t):
        self._check_t(t)
        return float(self.alpha[t])

    def sigma_at(self, t):
        self._check_t(t)
        return float(self.sigma[t])

    def columns_at(self, ts):
        """(alpha, sigma) at one timestep per row, as (B, 1) Tensor columns
        in the working dtype: row i holds the bits ``alpha_at(ts[i])`` and
        ``sigma_at(ts[i])`` take as a scalar operand."""
        idx = np.asarray(ts, dtype=np.int64)
        if idx.ndim != 1:
            raise ValueError(f"expected one timestep per row, got shape {idx.shape}")
        bad = idx[(idx < 0) | (idx >= self.t_train)]
        if bad.size:
            self._check_t(int(bad[0]))
        return Tensor(self.alpha[idx, None]), Tensor(self.sigma[idx, None])

    def _check_t(self, t):
        if not (0 <= t < self.t_train):
            raise ValueError(f"timestep {t} outside [0, {self.t_train})")


def make_schedule(kind=DEFAULT_SCHEDULE, t_train=DEFAULT_T_TRAIN):
    """Build a schedule of the given kind.

    cosine: squared-cosine cumulative signal curve (alpha_0 = 1 exactly).
    linear-beta: betas linear in [1e-4, 2e-2], alpha_t = prod sqrt(1 - beta_s).
    """
    if t_train < 2:
        raise ValueError("t_train must be at least 2")
    # index t counts applied noising transitions, so alpha[0] = 1 exactly and
    # the terminal sampler step reproduces x-hat bit-for-bit
    if kind == "linear-beta":
        betas = np.linspace(1e-4, 2e-2, t_train, dtype=np.float64)
        alpha_sq = np.concatenate([[1.0], np.cumprod(1.0 - betas[:-1])])
    elif kind == "cosine":
        s = 0.008
        steps = np.arange(t_train + 1, dtype=np.float64)
        f = np.cos((steps / t_train + s) / (1.0 + s) * math.pi / 2.0) ** 2
        abar = f / f[0]
        betas = np.minimum(1.0 - abar[1:] / abar[:-1], 0.999)
        alpha_sq = np.concatenate([[1.0], np.cumprod(1.0 - betas)])[:t_train]
    else:
        raise ValueError(f"unknown schedule kind {kind!r}")
    alpha = np.sqrt(alpha_sq)
    sigma = np.sqrt(1.0 - alpha_sq)
    return NoiseSchedule(kind=kind, t_train=t_train, alpha=alpha, sigma=sigma)


@dataclass(frozen=True)
class StepPlan:
    """Strictly decreasing timestep trajectory ending at 0.

    ``timesteps[:-1]`` are the denoiser-evaluation points (uniform stride);
    the final 0 is the terminal boundary. ``transitions()`` yields the
    (t, t_prev) pairs the sampler walks.
    """

    n_steps: int
    t_train: int
    timesteps: tuple = field(default_factory=tuple)

    def __post_init__(self):
        ts = self.timesteps
        if not ts or ts[-1] != 0:
            raise ValueError("step plan must end at 0")
        if any(b >= a for a, b in zip(ts, ts[1:])):
            raise ValueError("step plan must be strictly decreasing")
        if ts[0] >= self.t_train:
            raise ValueError("step plan exceeds the training horizon")

    def transitions(self):
        return list(zip(self.timesteps, self.timesteps[1:]))


def make_step_plan(n_steps, t_train=DEFAULT_T_TRAIN):
    """Uniformly spaced (leading-edge) inference plan.

    Evaluation timesteps are (t_train-1) - i*(t_train//n_steps); the terminal
    boundary 0 is appended when the last evaluation point is not already 0.
    """
    if not (1 <= n_steps <= t_train):
        raise ValueError(f"n_steps must be in [1, {t_train}]")
    stride = t_train // n_steps
    ts = [(t_train - 1) - i * stride for i in range(n_steps)]
    if ts[-1] != 0:
        ts.append(0)
    return StepPlan(n_steps=n_steps, t_train=t_train, timesteps=tuple(ts))


def forward_diffuse(x, t, eps, sched):
    """z_t = alpha_t * x + sigma_t * eps; differentiable in x and eps. For
    (B, D) rows ``t`` may hold one timestep per row; row i then gets the bits
    ``forward_diffuse(x[i], t[i], eps[i], sched)`` gets."""
    if isinstance(t, (int, np.integer)):
        a, s = sched.alpha_at(t), sched.sigma_at(t)
    else:
        a, s = sched.columns_at(t)
    return ta.add(ta.mul(x, a), ta.mul(eps, s))


def predict_x0(z_t, eps_hat, t, sched):
    """x_hat = (z_t - sigma_t * eps_hat) / alpha_t, as a multiply by 1/alpha_t.
    For (B, D) rows ``t`` may hold one timestep per row; row i then gets the
    bits ``predict_x0(z_t[i], eps_hat[i], t[i], sched)`` gets."""
    if isinstance(t, (int, np.integer)):
        a, s = sched.alpha_at(t), sched.sigma_at(t)
        t_low, inv = t, 1.0 / a
    else:
        _, s = sched.columns_at(t)
        alphas = sched.alpha[np.asarray(t)]
        t_low, a = t[int(np.argmin(alphas))], alphas.min()
        inv = Tensor(1.0 / alphas[:, None])
    if a < ALPHA_FLOOR:
        raise ValueError(f"alpha at t={t_low} is below {ALPHA_FLOOR}; x-hat undefined")
    return ta.mul(ta.sub(z_t, ta.mul(eps_hat, s)), inv)


def ddim_coefficients(t, t_prev, sched):
    """The deterministic DDIM update (eta = 0) t -> t_prev as (a, b) pairs,
    each applied in turn as z <- z * a + eps_hat * b:

    z_{t'} = alpha_{t'} * (z_t - sigma_t * eps_hat) / alpha_t + sigma_{t'} * eps_hat
    """
    if t_prev >= t:
        raise ValueError(f"ddim_step: t_prev ({t_prev}) must be < t ({t})")
    a_t = sched.alpha_at(t)
    if a_t < ALPHA_FLOOR:
        raise ValueError(f"alpha at t={t} is below {ALPHA_FLOOR}")
    s_t = sched.sigma_at(t)
    a_p = sched.alpha_at(t_prev)
    s_p = sched.sigma_at(t_prev)
    # (z_t - eps_hat * s_t) * (a_p / a_t) + eps_hat * s_p, to the bit
    return ((1.0, -s_t), (a_p / a_t, s_p))


def euler_coefficients(t, t_prev, sched):
    """First-order Euler step t -> t_prev of the VP probability-flow
    formulation, as one (a, b) pair: z <- z * a + eps_hat * b.

    Discretizes dz = [f z + g^2/(2 sigma) eps_hat] dt on the schedule grid
    using exact finite differences of ln(alpha) and sigma^2 between t and
    t_prev. Deliberately a different discretization from DDIM (which is exact
    for a frozen eps_hat); the two agree as the step count grows.
    """
    if t_prev >= t:
        raise ValueError(f"euler_step: t_prev ({t_prev}) must be < t ({t})")
    a_t = sched.alpha_at(t)
    a_p = sched.alpha_at(t_prev)
    s_t = sched.sigma_at(t)
    s_p = sched.sigma_at(t_prev)
    if s_t == 0.0:
        raise ValueError("euler_step: cannot step from a zero-noise timestep")
    dlog_a = math.log(a_p) - math.log(a_t)
    dsig2 = s_p * s_p - s_t * s_t
    eps_coeff = (dsig2 - 2.0 * s_t * s_t * dlog_a) / (2.0 * s_t)
    return ((1.0 + dlog_a, eps_coeff),)


def cfg_coefficients(w):
    """Classifier-free guidance at scale ``w`` as the (a, b) of
    eps_cond * a + eps_uncond * b, that is w * eps_cond - (w - 1) * eps_uncond.
    Raises ValueError unless ``w`` is finite and non-negative."""
    if not 0 <= w < math.inf:
        raise ValueError(f"guidance scale must be finite and non-negative, got {w!r}")
    return float(w), -(float(w) - 1.0)


def cfg_combine(eps_cond, eps_uncond, w):
    """Classifier-free guidance: w * eps_cond - (w - 1) * eps_uncond."""
    a, b = cfg_coefficients(w)
    return ta.axpby(eps_cond, a, eps_uncond, b)


# the one table of samplers: a config, the CLI and the walk accept its keys
SAMPLER_COEFFICIENTS = {"ddim": ddim_coefficients, "euler": euler_coefficients}


def check_sampler(kind):
    """The one sampler-name check: ValueError unless SAMPLER_COEFFICIENTS has ``kind``."""
    if kind not in SAMPLER_COEFFICIENTS:
        raise ValueError(f"unknown sampler {kind!r}")


def sampler_coefficients(kind, t, t_prev, sched):
    """The (a, b) pairs of sampler ``kind``'s update t -> t_prev."""
    check_sampler(kind)
    return SAMPLER_COEFFICIENTS[kind](t, t_prev, sched)


def sampler_step(kind, z_t, eps_hat, t, t_prev, sched):
    """Sampler ``kind``'s update t -> t_prev, one fused ``axpby`` per pair."""
    for a, b in sampler_coefficients(kind, t, t_prev, sched):
        z_t = ta.axpby(z_t, a, eps_hat, b)
    return z_t


# each sampler's taped step (z_t, eps_hat, t, t_prev, sched), by name
SAMPLER_STEPS = {kind: functools.partial(sampler_step, kind) for kind in SAMPLER_COEFFICIENTS}
ddim_step, euler_step = SAMPLER_STEPS["ddim"], SAMPLER_STEPS["euler"]
