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
from .data import make_world, sample_pairs, world_from_state, world_state
from .finetune import OptimizerState, check_update_fields, collect_grads, optimizer_step
from .models import (
    check_shared_widths,
    denoise,
    image_encode,
    init_denoiser,
    init_image_encoder,
    init_text_encoder,
    merged_state,
    text_encode,
    text_encode_rows,
)
from .rewards import reward_clip_constraint
from .schedule import DEFAULT_SCHEDULE, DEFAULT_T_TRAIN, forward_diffuse, make_schedule
from .tensorad import Tensor
from .util import check_config, derive_seed

# contrastive stage: the learned log logit scale starts at log(1/0.07) and is
# clamped at log(100) so exp() stays in float range
TEMP_INIT = math.log(1.0 / 0.07)
LOG_TEMP_MAX = math.log(100.0)


@dataclass(frozen=True)
class PretrainConfig:
    iterations: int = 400
    batch_size: int = 16
    lr: float = 5e-3
    weight_decay: float = 0.0
    seed: int = 0
    grad_clip: float | None = 1.0
    null_drop: float = 0.1                      # denoiser stage only

    def __post_init__(self):
        check_update_fields(self)
        if self.batch_size < 2:
            raise ValueError("contrastive pretraining needs batch size >= 2")
        if not (0.0 <= self.null_drop < 1.0):
            raise ValueError("null_drop must be in [0, 1)")

    @classmethod
    def from_dict(cls, raw):
        """Build from a parsed JSON config, checked by ``check_config``."""
        check_config(cls, raw)
        return cls(**raw)


def _row_logsumexp(m):
    """Numerically stable log-sum-exp of each row of the 2-D ``m``: the (B,)
    vector, each row shifted by its own max, a (B, 1) column."""
    shift = m.data.max(axis=1)
    e = ta.exp(ta.sub(m, Tensor(shift[:, None])))
    return ta.add(ta.log(ta.matmul(e, Tensor(np.ones(m.data.shape[1])))), Tensor(shift))


def contrastive_loss_from_logits(logits):
    """Symmetric cross-entropy over the (B, B) logit Tensor: one row and one
    column log-sum-exp. ``logits[i, j]`` scores text i against image j; the
    matched pairs sit on the diagonal. At all-zero logits this equals ln(B).
    """
    b = logits.data.shape[0]
    if b < 2:
        raise ValueError("contrastive loss needs at least 2 pairs")
    diag = ta.matmul(ta.mul(logits, Tensor(np.eye(b))), Tensor(np.ones(b)))
    ce_t = ta.tensor_mean(ta.sub(_row_logsumexp(logits), diag))
    ce_i = ta.tensor_mean(ta.sub(_row_logsumexp(ta.transpose(logits)), diag))
    return ta.mul(ta.add(ce_t, ce_i), 0.5)


def _unit_rows(v, kind, iteration):
    """Each row of the (B, C) ``v`` over its norm. A diverging run overflows a
    norm while the loss stays finite (the unit rows are then all zeros and
    the loss sits at exactly ln B), so the norms are where such a run is
    stopped, naming the first row's non-finite norm."""
    n = ta.sqrt(ta.matmul(ta.mul(v, v), Tensor(np.ones((v.data.shape[1], 1)))))
    bad = ~np.isfinite(n.data[:, 0])
    if bad.any():
        raise FloatingPointError(
            f"iteration {iteration}: non-finite {kind} embedding norm {float(n.data[bad, 0][0])}; "
            "stopped before the update")
    return ta.div(v, n)


def contrastive_loss(text_params, image_params, log_temp, batch, iteration=0):
    """The contrastive stage's loss on one batch of (x, prompt) pairs: the
    (B, C) unit text and image embeddings, their (B, B) products as one
    matmul times exp(log_temp) as the logits, then the symmetric
    cross-entropy. Text norms are checked before the image side runs."""
    texts = _unit_rows(text_encode_rows(text_params, [p for _, p in batch]), "text", iteration)
    xs = Tensor(np.stack([x for x, _ in batch]))
    images = _unit_rows(image_encode(image_params, xs), "image", iteration)
    logits = ta.mul(ta.matmul(texts, ta.transpose(images)), ta.exp(log_temp))
    return contrastive_loss_from_logits(logits)


def clip_pretrain(text_params, image_params, world, config):
    """Contrastive pretraining of both encoders with a learned temperature.

    Returns (text_params, image_params, info) where info carries the loss
    trajectory and the (always positive) temperature trajectory.
    """
    rng = np.random.default_rng(derive_seed(config.seed, "clip-pretrain"))
    text_params.set_requires_grad(True)
    image_params.set_requires_grad(True)
    log_temp = Tensor(np.asarray(TEMP_INIT), requires_grad=True)
    # one optimizer over both encoders and the temperature; the key order fixes the norm sum
    params = {**text_params.named(), **image_params.named(), "clip/log_temp": log_temp}
    opt = OptimizerState.for_params(params, weight_decay=config.weight_decay)

    losses = []
    temperatures = []
    for it in range(config.iterations):
        batch = list(zip(*sample_pairs(world, rng, config.batch_size)))
        # a diverging run overflows in here; _unit_rows or optimizer_step then
        # stops it with one error
        with np.errstate(over="ignore", invalid="ignore"):
            tape = ta.Tape()
            with tape:
                loss = contrastive_loss(text_params, image_params, log_temp, batch, it)
            grads = ta.backward(tape, loss)
        losses.append(loss.item())
        params = optimizer_step(params, collect_grads(params, grads), losses[-1], opt,
                                config.lr, config.grad_clip, it)
        text_params.apply_update(params)
        image_params.apply_update(params)
        params["clip/log_temp"] = log_temp = Tensor(
            np.minimum(params["clip/log_temp"].data, np.float32(LOG_TEMP_MAX)), requires_grad=True)
        temperatures.append(float(np.exp(log_temp.data)))

    text_params.set_requires_grad(False)
    image_params.set_requires_grad(False)
    info = {"losses": losses, "temperatures": temperatures,
            "log_temp": float(log_temp.data)}
    return text_params, image_params, info


def clip_holdout_stats(text_params, image_params, world, prompts, seed):
    """Matched vs. mismatched cosine stats on held-out prompts.

    Returns (matched_mean, mismatched_mean, triple_accuracy) where a triple
    compares prompt i's own image against the next prompt's image. The cosines
    are one detached pass over the (P, ·) rows; the means are taken in float64.
    """
    rng = np.random.default_rng(derive_seed(seed, "clip-holdout"))
    xs = np.stack([(world.pattern_sum(p).astype(np.float64)
                    + world.noise_scale * rng.standard_normal(world.d)).astype(np.float32)
                   for p in prompts])  # one draw per prompt, in prompt order
    with ta.pause_recording():
        txt = text_encode_rows(text_params, prompts)
        matched, mismatched = [
            reward_clip_constraint(Tensor(images), prompts, image_params, text_params,
                                   txt).data.astype(np.float64)
            for images in (xs, np.roll(xs, -1, axis=0))]
    accuracy = float(np.mean(matched > mismatched))
    return float(matched.mean()), float(mismatched.mean()), accuracy


@dataclass(frozen=True)
class NoisedBatch:
    """Denoiser training rows: clean data, a timestep and injected noise per
    row, the prompts, and the rows conditioned on the learned null vector."""

    x: np.ndarray        # (B, D) float32
    t: tuple             # one timestep per row
    eps: np.ndarray      # (B, D) float32
    prompts: tuple
    null_rows: tuple     # ascending row indices

    @classmethod
    def draw(cls, world, sched, rng, n, null_drop=None):
        """``n`` rows, each drawn in the order one item has always drawn
        them: the (x, prompt) pair, t, eps and, when ``null_drop`` is given,
        the null flag."""
        ts, nulls = [], []
        eps = np.empty((n, world.d))

        def after(i):
            ts.append(int(rng.integers(0, sched.t_train)))
            rng.standard_normal(out=eps[i])
            if null_drop is not None and rng.random() < null_drop:
                nulls.append(i)

        x, prompts = sample_pairs(world, rng, n, after)
        return cls(x, tuple(ts), eps.astype(np.float32), prompts, tuple(nulls))

    def conditioning(self, text_params, codes):
        """(B, C) frozen text encodings, one per row. ``codes`` keeps each
        distinct prompt's encoding (keyed by its sorted tokens, which is all
        ``text_encode`` reads), so a prompt is encoded once per ``codes``."""
        rows = []
        for prompt in self.prompts:
            key = tuple(sorted(prompt))
            code = codes.get(key)
            if code is None:
                code = codes[key] = text_encode(text_params, key).data
            rows.append(code)
        return Tensor(np.stack(rows))

    def errors(self, denoiser, cond, sched):
        """The (B,) noise-prediction errors of ``denoiser`` under ``cond``."""
        eps = Tensor(self.eps)
        z_t = forward_diffuse(Tensor(self.x), self.t, eps, sched)
        return ta.squared_error(denoise(denoiser, self.t, z_t, cond), eps)


def denoiser_loss(denoiser, batch, cond, sched):
    """The denoiser stage's loss: the batch mean of the rows' errors, with
    the null rows of ``cond`` replaced by ``denoiser.null_cond``. Bit for bit
    the loop that sums B single-row losses in row order."""
    cond = ta.put_rows(cond, batch.null_rows, denoiser.null_cond)
    return ta.batch_mean(batch.errors(denoiser, cond, sched))


def diffusion_pretrain(denoiser, text_params, world, sched, config):
    """Noise-prediction training of the denoiser with the text encoder frozen.

    Conditioning is replaced by the learned null vector with probability
    ``config.null_drop``. Each iteration is one taped pass over the batch's
    rows. Returns (denoiser, info).
    """
    rng = np.random.default_rng(derive_seed(config.seed, "diffusion-pretrain"))
    text_params.set_requires_grad(False)
    denoiser.set_requires_grad(True)
    opt = OptimizerState.for_params(denoiser.named(), weight_decay=config.weight_decay)

    codes = {}
    losses = []
    for it in range(config.iterations):
        batch = NoisedBatch.draw(world, sched, rng, config.batch_size, config.null_drop)
        cond = batch.conditioning(text_params, codes)
        # a diverging run overflows in here; optimizer_step then stops it
        # with one error
        with np.errstate(over="ignore", invalid="ignore"):
            tape = ta.Tape()
            with tape:
                loss = denoiser_loss(denoiser, batch, cond, sched)
            grads = ta.backward(tape, loss)
        losses.append(loss.item())
        denoiser.apply_update(optimizer_step(
            denoiser.named(), collect_grads(denoiser.named(), grads), losses[-1], opt,
            config.lr, config.grad_clip, it))

    denoiser.set_requires_grad(False)
    return denoiser, {"losses": losses}


def diffusion_holdout_mse(denoiser, text_params, world, sched, seed):
    """Mean conditioned noise-prediction error on 200 fresh draws, summed as
    Python floats in draw order."""
    n = 200
    rng = np.random.default_rng(derive_seed(seed, "diffusion-holdout"))
    batch = NoisedBatch.draw(world, sched, rng, n)
    with ta.pause_recording():
        errors = batch.errors(denoiser, batch.conditioning(text_params, {}), sched)
    total = 0.0
    for e in errors.data.tolist():
        total += e
    return total / n


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
    losses of all stages in order. A ``text`` or ``world`` of another width
    than the fresh denoiser is a CheckpointError before any iteration."""
    denoiser = init_denoiser(derive_seed(seed, "init-denoiser"))
    check_shared_widths(merged_state(world, text, denoiser))
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
    # the denoiser stage sees the world as a checkpoint carries it (its
    # noise_scale rounded to f32), as the CLI's pretrain-diffusion does
    world = world_from_state(world_state(world))
    sched = make_schedule(DEFAULT_SCHEDULE, DEFAULT_T_TRAIN)
    denoiser, _ = pretrain_denoiser(text, world, seed, sched, diffusion_config)
    return merged_state(world, text, image, denoiser)
