"""Pretraining: the toy CLIP pair and the noise-prediction denoiser.

Produces the baseline every fine-tuning regime starts from: the text encoder
is trained contrastively against the image encoder (symmetric cross-entropy
over temperature-scaled cosine logits), then the denoiser is trained to
predict the injected noise with the text encoder frozen, dropping the
conditioning to the learned null vector 10% of the time so classifier-free
guidance works at inference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tensorad as ta
from .data import make_world, sample_pair, world_state
from .finetune import OptimizerState, collect_grads, optimizer_step
from .models import (
    ParamBag,
    denoise,
    image_encode,
    init_denoiser,
    init_image_encoder,
    init_text_encoder,
    text_encode,
)
from .rewards import reward_clip_constraint
from .schedule import DEFAULT_T_TRAIN, forward_diffuse, make_schedule
from .tensorad import Tensor
from .util import derive_seed, reject_unknown_keys

# contrastive stage: the learned log logit scale starts at log(1/0.07) and is
# clamped at log(100) so exp() stays in float range
TEMP_INIT = math.log(1.0 / 0.07)
LOG_TEMP_MAX = math.log(100.0)


@dataclass(frozen=True)
class PretrainConfig:
    iterations: int = 400
    batch_size: int = 16
    lr: float = 5e-3
    lr_final: float | None = None               # denoiser stage: geometric decay target
    weight_decay: float = 0.0
    seed: int = 0
    grad_clip: float = 1.0
    null_drop: float = 0.1                      # denoiser stage only

    def __post_init__(self):
        if self.lr <= 0:
            raise ValueError("learning rate must be positive")
        if self.iterations < 0:
            raise ValueError("iterations must be non-negative")
        if self.batch_size < 2:
            raise ValueError("contrastive pretraining needs batch size >= 2")
        if self.grad_clip is not None and self.grad_clip <= 0:
            raise ValueError("grad_clip must be positive or None")
        if not (0.0 <= self.null_drop < 1.0):
            raise ValueError("null_drop must be in [0, 1)")
        if self.lr_final is not None and not (0.0 < self.lr_final <= self.lr):
            raise ValueError("lr_final must be in (0, lr]")

    def lr_at(self, iteration):
        """Learning rate for one iteration: geometric decay lr -> lr_final."""
        if self.lr_final is None or self.iterations <= 1:
            return self.lr
        frac = iteration / (self.iterations - 1)
        return self.lr * (self.lr_final / self.lr) ** frac

    @classmethod
    def from_dict(cls, raw):
        """Build from a parsed JSON config; unknown keys are rejected."""
        reject_unknown_keys(cls, raw)
        return cls(**raw)


def _logsumexp(row):
    """Numerically stable log-sum-exp of a 1-d tensor."""
    shift = float(row.data.max())
    return ta.add(ta.log(ta.tensor_sum(ta.exp(ta.sub(row, shift)))), shift)


def contrastive_loss_from_logits(logits):
    """Symmetric cross-entropy over a square logit matrix of scalar tensors.

    ``logits[i][j]`` scores text i against image j; the matched pairs sit on
    the diagonal. At all-zero logits with batch B this equals ln(B).
    """
    b = len(logits)
    if b < 2:
        raise ValueError("contrastive loss needs at least 2 pairs")
    ce_rows = []
    ce_cols = []
    for i in range(b):
        row = ta.stack([logits[i][j] for j in range(b)])
        col = ta.stack([logits[j][i] for j in range(b)])
        ce_rows.append(ta.sub(_logsumexp(row), logits[i][i]))
        ce_cols.append(ta.sub(_logsumexp(col), logits[i][i]))
    ce_t = ta.tensor_mean(ta.stack(ce_rows))
    ce_i = ta.tensor_mean(ta.stack(ce_cols))
    return ta.mul(ta.add(ce_t, ce_i), 0.5)


def _unit(v):
    return ta.div(v, ta.norm(v))


def clip_pretrain(text_params, image_params, world, config):
    """Contrastive pretraining of both encoders with a learned temperature.

    Returns (text_params, image_params, info) where info carries the loss
    trajectory and the (always positive) temperature trajectory.
    """
    rng = np.random.default_rng(derive_seed(config.seed, "clip-pretrain"))
    text_params.set_requires_grad(True)
    image_params.set_requires_grad(True)
    log_temp = Tensor(np.asarray(TEMP_INIT), requires_grad=True)
    bag = ParamBag({**text_params.named(), **image_params.named(), "clip/log_temp": log_temp})
    opt = OptimizerState.for_params(bag.named(), weight_decay=config.weight_decay)

    losses = []
    temperatures = []
    for it in range(config.iterations):
        batch = [sample_pair(world, rng) for _ in range(config.batch_size)]
        tape = ta.Tape()
        with tape:
            scale = ta.exp(bag["clip/log_temp"])
            t_emb = [_unit(text_encode(text_params, p)) for _, p in batch]
            i_emb = [_unit(image_encode(image_params, Tensor(x))) for x, _ in batch]
            logits = [
                [ta.mul(ta.dot(t_emb[i], i_emb[j]), scale) for j in range(len(batch))]
                for i in range(len(batch))
            ]
            loss = contrastive_loss_from_logits(logits)
        ta.backward(tape, loss)
        losses.append(loss.item())
        optimizer_step(bag, collect_grads(bag), losses[-1], opt, config.lr,
                       config.grad_clip, it)
        lt = bag["clip/log_temp"]
        clamped = np.minimum(lt.data, np.float32(LOG_TEMP_MAX))
        bag.apply_update({"clip/log_temp": Tensor(clamped, requires_grad=True)})
        text_params.apply_update({k: v for k, v in bag.named().items() if k.startswith("text/")})
        image_params.apply_update({k: v for k, v in bag.named().items() if k.startswith("image/")})
        temperatures.append(float(np.exp(bag["clip/log_temp"].data)))

    text_params.set_requires_grad(False)
    image_params.set_requires_grad(False)
    info = {"losses": losses, "temperatures": temperatures,
            "log_temp": float(bag["clip/log_temp"].data)}
    return text_params, image_params, info


def clip_holdout_stats(text_params, image_params, world, prompts, seed):
    """Matched vs. mismatched cosine stats on held-out prompts.

    Returns (matched_mean, mismatched_mean, triple_accuracy) where a triple
    compares prompt i's own image against the next prompt's image.
    """
    rng = np.random.default_rng(derive_seed(seed, "clip-holdout"))
    xs = []
    with ta.pause_recording():
        for p in prompts:
            x = world.pattern_sum(p).astype(np.float64)
            x = x + world.noise_scale * rng.standard_normal(world.d)
            xs.append(x.astype(np.float32))
        matched = []
        mismatched = []
        for i, p in enumerate(prompts):
            j = (i + 1) % len(prompts)
            matched.append(
                reward_clip_constraint(Tensor(xs[i]), p, image_params, text_params).item()
            )
            mismatched.append(
                reward_clip_constraint(Tensor(xs[j]), p, image_params, text_params).item()
            )
    matched = np.asarray(matched)
    mismatched = np.asarray(mismatched)
    accuracy = float(np.mean(matched > mismatched))
    return float(matched.mean()), float(mismatched.mean()), accuracy


def diffusion_pretrain(denoiser, text_params, world, sched, config):
    """Noise-prediction training of the denoiser with the text encoder frozen.

    Conditioning is replaced by the learned null vector with probability
    ``config.null_drop``. Returns (denoiser, info).
    """
    rng = np.random.default_rng(derive_seed(config.seed, "diffusion-pretrain"))
    text_params.set_requires_grad(False)
    denoiser.set_requires_grad(True)
    opt = OptimizerState.for_params(denoiser.named(), weight_decay=config.weight_decay)

    losses = []
    for it in range(config.iterations):
        tape = ta.Tape()
        with tape:
            total = None
            for _ in range(config.batch_size):
                x, prompt = sample_pair(world, rng)
                t = int(rng.integers(0, sched.t_train))
                eps = rng.standard_normal(world.d).astype(np.float32)
                use_null = bool(rng.random() < config.null_drop)
                c = denoiser.null_cond if use_null else text_encode(text_params, prompt)
                z_t = forward_diffuse(Tensor(x), t, Tensor(eps), sched)
                eps_hat = denoise(denoiser, t, z_t, c)
                li = ta.squared_error(eps_hat, Tensor(eps))
                total = li if total is None else ta.add(total, li)
            loss = ta.mul(total, 1.0 / config.batch_size)
        ta.backward(tape, loss)
        losses.append(loss.item())
        optimizer_step(denoiser, collect_grads(denoiser), losses[-1], opt,
                       config.lr_at(it), config.grad_clip, it)

    denoiser.set_requires_grad(False)
    return denoiser, {"losses": losses}


def diffusion_holdout_mse(denoiser, text_params, world, sched, seed):
    """Mean conditioned noise-prediction error on 200 fresh draws."""
    n = 200
    rng = np.random.default_rng(derive_seed(seed, "diffusion-holdout"))
    total = 0.0
    with ta.pause_recording():
        for _ in range(n):
            x, prompt = sample_pair(world, rng)
            t = int(rng.integers(0, sched.t_train))
            eps = rng.standard_normal(world.d).astype(np.float32)
            c = text_encode(text_params, prompt)
            z_t = forward_diffuse(Tensor(x), t, Tensor(eps), sched)
            eps_hat = denoise(denoiser, t, z_t, c)
            total += ta.squared_error(eps_hat, Tensor(eps)).item()
    return total / n


def moving_average(values, window):
    vals = np.asarray(values, dtype=np.float64)
    if len(vals) < window:
        return vals.copy()
    kernel = np.ones(window) / window
    return np.convolve(vals, kernel, mode="valid")


# Denoiser training runs as lr-staged warm restarts: each stage restarts the
# optimizer moments at a lower rate. This reaches a conditioned holdout MSE of
# ~0.05 — essentially the irreducible noise floor — which single-rate training
# of the same length does not; that accuracy is what few-step sampling needs.
DENOISER_STAGES = ((6000, 3e-3), (4000, 1e-3), (3000, 3e-4))


def pretrain_encoders(seed, config=None):
    """World, encoder inits and the contrastive stage, all from ``seed``;
    ``config`` replaces the default stage config. Returns (text, image,
    world, info) with clip_pretrain's info."""
    world = make_world(derive_seed(seed, "world"))
    text = init_text_encoder(derive_seed(seed, "init-text"))
    image = init_image_encoder(derive_seed(seed, "init-image"))
    if config is None:
        config = PretrainConfig(seed=derive_seed(seed, "clip"))
    _, _, info = clip_pretrain(text, image, world, config)
    return text, image, world, info


def pretrain_denoiser(text, world, seed, sched, config=None):
    """Denoiser init from ``seed``, then one stage under ``config`` or, by
    default, every DENOISER_STAGES entry. Returns (denoiser, losses) with the
    losses of all stages in order."""
    denoiser = init_denoiser(derive_seed(seed, "init-denoiser"))
    if config is not None:
        stages = [config]
    else:
        stages = [PretrainConfig(seed=derive_seed(seed, "diffusion", i),
                                 iterations=n, batch_size=32, lr=lr)
                  for i, (n, lr) in enumerate(DENOISER_STAGES)]
    losses = []
    for cfg in stages:
        _, info = diffusion_pretrain(denoiser, text, world, sched, cfg)
        losses.extend(info["losses"])
    return denoiser, losses


def make_pretrained_baseline(seed=42, clip_config=None, diffusion_config=None):
    """World + both pretraining stages from one seed; returns the merged state."""
    text, image, world, _ = pretrain_encoders(seed, clip_config)
    sched = make_schedule("linear-beta", DEFAULT_T_TRAIN)
    denoiser, _ = pretrain_denoiser(text, world, seed, sched, diffusion_config)
    return {**text.state(), **image.state(), **denoiser.state(), **world_state(world)}
