"""Reward fine-tuning regimes and the optimizer.

Three regimes over the frozen pieces of the pipeline:

- direct: diffuse a data sample to a random t, predict x_hat in one shot,
  and push the reward gradient into the text encoder.
- prompt-chain: run the full N-step sampler from pure noise on a prompt,
  backpropagate the reward through the last K denoising steps (earlier steps
  detached), each recorded step wrapped as a recompute-on-backward segment.
- unet-chain: the same chain, but gradients land on the denoiser while the
  (already fine-tuned) text encoder stays frozen.

Plus AdamW with decoupled weight decay, global-norm gradient clipping, the
one update step every training loop takes (``optimizer_step``), and the
seed-deterministic training loop with CSV metrics.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

from . import tensorad as ta
from .data import DEFAULT_SPLIT_SEED, make_prompt_sets, sample_pair, world_from_state, world_state
from .models import (
    DenoiserParams,
    ImageEncoderParams,
    TextEncoderParams,
    denoise,
    save_checkpoint,
    text_encode,
)
from .inference import guided_step
from .rewards import RewardSpec, combined_loss, readout_means
from .schedule import (
    DEFAULT_T_TRAIN,
    SAMPLER_STEPS,
    SCHEDULE_KINDS,
    forward_diffuse,
    make_schedule,
    make_step_plan,
    predict_x0,
)
from .tensorad import Tensor
from .util import derive_seed, reject_unknown_keys

REGIMES = ("direct", "prompt-chain", "unet-chain")

METRICS_HEADER = "iter,loss,reward_image,reward_align,reward_clip"


# ---------------------------------------------------------------------------
# configuration


@dataclass(frozen=True)
class TrainConfig:
    regime: str = "prompt-chain"
    n_steps: int = 25
    k_last: int = 5
    cfg_in_chain: bool = False
    cfg_scale: float = 7.5
    lr: float = 1e-3
    weight_decay: float = 0.0
    iterations: int = 100
    batch_size: int = 4
    seed: int = 0
    rewards: RewardSpec = field(default_factory=RewardSpec.default)
    grad_clip: float = 1.0  # None disables clipping
    sampler: str = "ddim"
    schedule_kind: str = "linear-beta"
    t_train: int = DEFAULT_T_TRAIN
    checkpoint_interval: int = 0  # 0 = final checkpoint only
    n_train_prompts: int = 48
    n_holdout_prompts: int = 36

    def __post_init__(self):
        if self.regime not in REGIMES:
            raise ValueError(f"unknown regime {self.regime!r}")
        if not (1 <= self.k_last <= self.n_steps):
            raise ValueError(f"need 1 <= K <= N, got K={self.k_last}, N={self.n_steps}")
        if self.lr <= 0:
            raise ValueError("learning rate must be positive")
        if self.iterations < 0:
            raise ValueError("iterations must be non-negative")
        if self.batch_size < 1:
            raise ValueError("batch size must be at least 1")
        if self.cfg_scale < 0:
            raise ValueError("cfg scale must be non-negative")
        if self.sampler not in SAMPLER_STEPS:
            raise ValueError(f"unknown sampler {self.sampler!r}")
        if self.schedule_kind not in SCHEDULE_KINDS:
            raise ValueError(f"unknown schedule kind {self.schedule_kind!r}")
        if self.grad_clip is not None and self.grad_clip <= 0:
            raise ValueError("grad_clip must be positive or None")
        if self.checkpoint_interval < 0:
            raise ValueError("checkpoint_interval must be non-negative")

    @classmethod
    def from_dict(cls, raw):
        """Build from a parsed JSON config; unknown keys are rejected."""
        reject_unknown_keys(cls, raw)
        kwargs = dict(raw)
        if "rewards" in kwargs and not isinstance(kwargs["rewards"], RewardSpec):
            kwargs["rewards"] = RewardSpec.from_config(kwargs["rewards"])
        return cls(**kwargs)


# ---------------------------------------------------------------------------
# optimizer

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class OptimizerState:
    m: dict
    v: dict
    step: int
    weight_decay: float

    @classmethod
    def for_params(cls, named, weight_decay=0.0):
        return cls(
            m={k: np.zeros(t.data.shape, dtype=np.float64) for k, t in named.items()},
            v={k: np.zeros(t.data.shape, dtype=np.float64) for k, t in named.items()},
            step=0,
            weight_decay=weight_decay,
        )


def clip_global_norm(grads, max_norm):
    """Scale the whole gradient set so its global L2 norm is <= max_norm."""
    total = 0.0
    for g in grads.values():
        total += float(np.sum(np.asarray(g, dtype=np.float64) ** 2))
    norm = math.sqrt(total)
    if max_norm is None or norm <= max_norm or norm == 0.0:
        return grads, norm
    scale = max_norm / norm
    clipped = {k: (np.asarray(g, dtype=np.float64) * scale).astype(g.dtype) for k, g in grads.items()}
    return clipped, norm


def adamw_update(params, grads, state, lr):
    """Bias-corrected Adam step with weight decay applied to the parameters.

    Moments are kept in float64; the decayed-and-stepped parameters are cast
    back to the parameter dtype. Mutates ``params`` and ``state`` in place.
    """
    named = params.named()
    for name in named:
        if name not in grads:
            raise KeyError(f"missing gradient for trainable parameter '{name}'")
    state.step += 1
    t = state.step
    b1, b2, wd = ADAM_BETA1, ADAM_BETA2, state.weight_decay
    updated = {}
    for name, tensor in named.items():
        g = np.asarray(grads[name], dtype=np.float64)
        state.m[name] = b1 * state.m[name] + (1.0 - b1) * g
        state.v[name] = b2 * state.v[name] + (1.0 - b2) * g * g
        m_hat = state.m[name] / (1.0 - b1**t)
        v_hat = state.v[name] / (1.0 - b2**t)
        p = tensor.data.astype(np.float64)
        p = p - lr * wd * p - lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
        updated[name] = Tensor(p.astype(tensor.data.dtype), requires_grad=tensor.requires_grad)
    params.apply_update(updated)
    return params, state


def optimizer_step(params, grads, loss, opt, lr, grad_clip, iteration):
    """The update policy of every training loop: clip ``grads`` to global
    norm ``grad_clip``, stop before the update when the loss or the pre-clip
    norm is non-finite, then take one AdamW step.
    """
    grads, grad_norm = clip_global_norm(grads, grad_clip)
    if not (math.isfinite(loss) and math.isfinite(grad_norm)):
        raise FloatingPointError(
            f"iteration {iteration}: non-finite loss {loss} or gradient norm "
            f"{grad_norm}; stopped before the update")
    adamw_update(params, grads, opt, lr)


# ---------------------------------------------------------------------------
# fine-tuning steps


@dataclass
class StepResult:
    loss: float
    grads: dict        # parameter name -> gradient array
    x_hats: list       # final predictions, one per batch item
    reward_means: dict  # the three standard readouts, unweighted
    step_grad_norms: list = None  # per item: |dL/dz| entering each recorded step


def _segment_step(t, t_prev, sampler, w, sched):
    def step(z_in, c_in, *den):
        return guided_step(DenoiserParams(*den), t, t_prev, z_in, c_in, w, sampler, sched)

    return step


def _run_chain(text_params, denoiser, prompt, z_init, plan, sched, k_last,
               sampler="ddim", cfg_in_chain=False, cfg_scale=7.5, collect_taps=False):
    """Forward the N-step chain; record only the last K transitions.

    Steps before the cut run detached on a value copy of c, so the gradient
    counts exactly the dependence through the recorded suffix. Each recorded
    transition is one recompute-on-backward segment.
    """
    transitions = plan.transitions()
    n = len(transitions)
    if not (1 <= k_last <= n):
        raise ValueError(f"need 1 <= K <= {n} recorded steps, got K={k_last}")
    c = text_encode(text_params, prompt)
    den_tensors = denoiser.tensors()
    w = cfg_scale if cfg_in_chain else 1.0
    z = z_init if isinstance(z_init, Tensor) else Tensor(np.asarray(z_init))
    split = n - k_last
    if split:
        with ta.pause_recording():
            c_frozen = Tensor(c.data)
            z_cur = z
            for t, t_prev in transitions[:split]:
                z_cur = guided_step(denoiser, t, t_prev, z_cur, c_frozen, w, sampler, sched)
        z = Tensor(z_cur.data)
    taps = []
    for t, t_prev in transitions[split:]:
        if collect_taps:
            taps.append(z.id)
        z = ta.checkpoint_segment(_segment_step(t, t_prev, sampler, w, sched),
                                  (z, c) + den_tensors)
    return z, taps


def collect_grads(param_set):
    """Gradients keyed by name; parameters the loss never touched get zeros."""
    out = {}
    for name, t in param_set.named().items():
        out[name] = t.grad if t.grad is not None else np.zeros_like(t.data)
    return out


def direct_finetune_step(text_params, denoiser, image_params, world, batch,
                         ts, noises, sched, spec):
    """One-shot regime: z_t from data, x_hat = predict_x0, reward gradient on T.

    ``batch`` is a list of (x, prompt) pairs; ``ts`` and ``noises`` give the
    diffusion time and noise draw per item. The denoiser stays frozen.
    """
    if not batch:
        raise ValueError("empty batch")
    if not (len(batch) == len(ts) == len(noises)):
        raise ValueError("batch, ts, and noises must have equal length")
    tape = ta.Tape()
    x_hats = []
    prompts = []
    with tape:
        total = None
        for (x, prompt), t, eps in zip(batch, ts, noises):
            t = int(t)
            sched.alpha_at(t)  # range check before any work
            c = text_encode(text_params, prompt)
            z_t = forward_diffuse(Tensor(np.asarray(x)), int(t), Tensor(np.asarray(eps)), sched)
            eps_hat = denoise(denoiser, t, z_t, c)
            x_hat = predict_x0(z_t, eps_hat, t, sched)
            li = combined_loss(x_hat, prompt, spec, world=world,
                               image_params=image_params, text_params=text_params)
            total = li if total is None else ta.add(total, li)
            x_hats.append(x_hat)
            prompts.append(prompt)
        loss = ta.mul(total, 1.0 / len(batch))
    ta.backward(tape, loss)
    return StepResult(
        loss=loss.item(),
        grads=collect_grads(text_params),
        x_hats=[x.data for x in x_hats],
        reward_means=readout_means(x_hats, prompts, world=world,
                                   image_params=image_params, text_params=text_params),
    )


def _chain_step(trainable, text_params, denoiser, image_params, world, prompts,
                z_inits, plan, k_last, sched, spec, sampler, cfg_in_chain,
                cfg_scale, record_step_norms):
    if not prompts:
        raise ValueError("empty prompt batch")
    if len(prompts) != len(z_inits):
        raise ValueError("prompts and z_inits must have equal length")
    tape = ta.Tape()
    x_hats = []
    all_taps = []
    with tape:
        total = None
        for prompt, z0 in zip(prompts, z_inits):
            x_hat, taps = _run_chain(
                text_params, denoiser, prompt, z0, plan, sched, k_last,
                sampler=sampler, cfg_in_chain=cfg_in_chain, cfg_scale=cfg_scale,
                collect_taps=record_step_norms,
            )
            li = combined_loss(x_hat, prompt, spec, world=world,
                               image_params=image_params, text_params=text_params)
            total = li if total is None else ta.add(total, li)
            x_hats.append(x_hat)
            all_taps.append(taps)
        loss = ta.mul(total, 1.0 / len(prompts))
    flat_taps = [tid for taps in all_taps for tid in taps] or None
    ta.backward(tape, loss, tap_ids=flat_taps)
    step_norms = None
    if record_step_norms:
        step_norms = []
        for taps in all_taps:
            norms = []
            for tid in taps:
                g = tape.grad_taps.get(tid)
                norms.append(0.0 if g is None else float(np.linalg.norm(g)))
            step_norms.append(norms)
    return StepResult(
        loss=loss.item(),
        grads=collect_grads(trainable),
        x_hats=[x.data for x in x_hats],
        reward_means=readout_means(x_hats, prompts, world=world,
                                   image_params=image_params, text_params=text_params),
        step_grad_norms=step_norms,
    )


def prompt_finetune_step(text_params, denoiser, image_params, world, prompts,
                         z_inits, plan, k_last, sched, spec, sampler="ddim",
                         cfg_in_chain=False, cfg_scale=7.5, record_step_norms=False):
    """Full-chain regime: gradients through the last K steps land on T."""
    return _chain_step(text_params, text_params, denoiser, image_params, world,
                       prompts, z_inits, plan, k_last, sched, spec, sampler,
                       cfg_in_chain, cfg_scale, record_step_norms)


def unet_finetune_step(denoiser, text_params, image_params, world, prompts,
                       z_inits, plan, k_last, sched, spec, sampler="ddim",
                       cfg_in_chain=False, cfg_scale=7.5, record_step_norms=False):
    """Denoiser stage: same chain, frozen text encoder, gradients on the denoiser."""
    return _chain_step(denoiser, text_params, denoiser, image_params, world,
                       prompts, z_inits, plan, k_last, sched, spec, sampler,
                       cfg_in_chain, cfg_scale, record_step_norms)


# ---------------------------------------------------------------------------
# training loop


@dataclass
class RunMetrics:
    rows: list  # of (iter, loss, reward_image, reward_align, reward_clip)

    def to_csv(self):
        lines = [METRICS_HEADER]
        for it, loss, r_img, r_align, r_clip in self.rows:
            lines.append(f"{it},{loss:.10g},{r_img:.10g},{r_align:.10g},{r_clip:.10g}")
        return "\n".join(lines) + "\n"

    def write_csv(self, path):
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(self.to_csv())
        return path


def _merged_state(text, image, denoiser, world):
    return {**text.state(), **image.state(), **denoiser.state(), **world_state(world)}


def run_training(config, state_in, out_dir=None):
    """Execute one fine-tuning run; returns (state_out, RunMetrics).

    ``state_in`` is a merged checkpoint state holding text/image/denoiser
    parameters and the world. Fully determined by (config, state_in).
    """
    text = TextEncoderParams.from_state(state_in)
    image = ImageEncoderParams.from_state(state_in)
    denoiser = DenoiserParams.from_state(state_in)
    world = world_from_state(state_in)

    if config.regime == "unet-chain":
        trainable, frozen, step_fn = denoiser, text, unet_finetune_step
    else:
        trainable, frozen, step_fn = text, denoiser, prompt_finetune_step
    trainable.set_requires_grad(True)

    sched = make_schedule(config.schedule_kind, config.t_train)
    plan = make_step_plan(config.n_steps, config.t_train)
    train_set, _ = make_prompt_sets(
        world, config.n_train_prompts, config.n_holdout_prompts, seed=DEFAULT_SPLIT_SEED
    )
    rng = np.random.default_rng(derive_seed(config.seed, "train", config.regime))
    opt = OptimizerState.for_params(trainable.named(), weight_decay=config.weight_decay)
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)

    rows = []
    for it in range(config.iterations):
        if config.regime == "direct":
            batch = [sample_pair(world, rng) for _ in range(config.batch_size)]
            ts = rng.integers(0, config.t_train, size=config.batch_size)
            noises = rng.standard_normal((config.batch_size, world.d)).astype(np.float32)
            result = direct_finetune_step(text, denoiser, image, world, batch, ts,
                                          noises, sched, config.rewards)
        else:
            idx = rng.integers(0, len(train_set), size=config.batch_size)
            prompts = [train_set.prompts[i] for i in idx]
            z_inits = rng.standard_normal((config.batch_size, world.d)).astype(np.float32)
            result = step_fn(
                trainable, frozen, image, world, prompts, z_inits, plan,
                config.k_last, sched, config.rewards, sampler=config.sampler,
                cfg_in_chain=config.cfg_in_chain, cfg_scale=config.cfg_scale,
            )
        optimizer_step(trainable, result.grads, result.loss, opt, config.lr,
                       config.grad_clip, it)
        rows.append((
            it,
            result.loss,
            result.reward_means["image-style"],
            result.reward_means["alignment"],
            result.reward_means["clip-constraint"],
        ))
        if out_dir and config.checkpoint_interval and (it + 1) % config.checkpoint_interval == 0:
            path = os.path.join(out_dir, f"checkpoint_{it + 1:06d}.rcpt")
            save_checkpoint(_merged_state(text, image, denoiser, world), path)

    metrics = RunMetrics(rows=rows)
    state_out = _merged_state(text, image, denoiser, world)
    if out_dir:
        save_checkpoint(state_out, os.path.join(out_dir, "model.rcpt"))
        metrics.write_csv(os.path.join(out_dir, "metrics.csv"))
    return state_out, metrics
