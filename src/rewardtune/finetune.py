"""Reward fine-tuning regimes and the optimizer.

Three regimes over the frozen pieces of the pipeline:

- direct: diffuse a data sample to a random t, predict x_hat in one shot,
  and push the reward gradient into the text encoder.
- prompt-chain: run the full N-step sampler from pure noise on a prompt,
  backpropagate the reward through the last K denoising steps (earlier steps
  detached), each recorded step one node that recomputes its activations in
  backward, all but the last.
- unet-chain: the same chain, but gradients land on the denoiser while the
  (already fine-tuned) text encoder stays frozen.

Plus AdamW with decoupled weight decay, global-norm gradient clipping, the
one update step every training loop takes (``optimizer_step``, returning the
updated tensors), and the seed-deterministic training loop with CSV metrics.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

from . import tensorad as ta
from .data import make_prompt_sets, sample_pairs
from .models import denoise, merged_state, model_from_state, save_checkpoint, text_encode_rows
from .inference import step_table, walk_steps
from .rewards import READOUT_COLUMNS, RewardSpec, clip_entries, combined_loss, readout_means
from .schedule import (
    DEFAULT_SCHEDULE,
    DEFAULT_T_TRAIN,
    cfg_coefficients,
    check_sampler,
    forward_diffuse,
    make_schedule,
    make_step_plan,
    predict_x0,
)
from .tensorad import Tensor
from .util import check_config, csv_text, derive_seed, write_text

REGIMES = ("direct", "prompt-chain", "unet-chain")

METRICS_COLUMNS = ("iter", "loss") + tuple(col for _, col in READOUT_COLUMNS)
METRICS_HEADER = ",".join(METRICS_COLUMNS)


# ---------------------------------------------------------------------------
# configuration


@dataclass(frozen=True)
class TrainConfig:
    regime: str = "prompt-chain"
    n_steps: int = 25
    k_last: int = 5
    chain_cfg_scale: float = 1.0  # guidance scale w in the chain; 1 = no unconditional branch
    lr: float = 1e-3
    weight_decay: float = 0.0
    iterations: int = 100
    batch_size: int = 4
    seed: int = 0
    rewards: RewardSpec = field(default_factory=RewardSpec.default)
    grad_clip: float | None = 1.0  # None disables clipping
    sampler: str = "ddim"
    schedule_kind: str = DEFAULT_SCHEDULE
    t_train: int = DEFAULT_T_TRAIN
    checkpoint_interval: int = 0  # 0 = final checkpoint only
    n_train_prompts: int = 48
    n_holdout_prompts: int = 36

    def __post_init__(self):
        if self.regime not in REGIMES:
            raise ValueError(f"unknown regime {self.regime!r}")
        if not (1 <= self.k_last <= self.n_steps):
            raise ValueError(f"need 1 <= K <= N, got K={self.k_last}, N={self.n_steps}")
        check_update_fields(self)
        if self.batch_size < 1:
            raise ValueError("batch size must be at least 1")
        try:
            cfg_coefficients(self.chain_cfg_scale)
        except ValueError as exc:
            raise ValueError(f"chain cfg scale: {exc}") from None
        check_sampler(self.sampler)
        make_schedule(self.schedule_kind, self.t_train)  # the schedule's own checks
        if self.checkpoint_interval < 0:
            raise ValueError("checkpoint_interval must be non-negative")

    @classmethod
    def from_dict(cls, raw):
        """Build from a parsed JSON config, checked by ``check_config``."""
        check_config(cls, raw)
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
    """AdamW state over a fixed set of named parameters: the first and second
    moments as one float64 vector each, laid out in the order ``for_params``
    saw the parameters, with ``m[name]`` and ``v[name]`` views into them."""

    m: dict
    v: dict
    step: int
    weight_decay: float
    m_flat: np.ndarray
    v_flat: np.ndarray
    bounds: dict  # name -> (start, stop) in the flat vectors

    @classmethod
    def for_params(cls, named, weight_decay=0.0):
        bounds, size = {}, 0
        for name, t in named.items():
            bounds[name] = (size, size + t.data.size)
            size += t.data.size
        m_flat, v_flat = np.zeros(size), np.zeros(size)

        def views(flat):
            return {name: flat[a:b].reshape(named[name].data.shape)
                    for name, (a, b) in bounds.items()}

        return cls(m=views(m_flat), v=views(v_flat), step=0, weight_decay=weight_decay,
                   m_flat=m_flat, v_flat=v_flat, bounds=bounds)


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


def adamw_update(named, grads, state, lr):
    """Bias-corrected Adam step with weight decay applied to the parameters.

    ``named`` maps names to tensors, the names ``state`` was made for. The
    arithmetic runs once over all of them in float64, in ``state``'s flat
    layout, element for element the per-parameter update; returns name ->
    Tensor of the stepped parameters, cast back to each dtype.
    """
    if named.keys() != state.bounds.keys():
        raise KeyError(f"parameters {sorted(named)} are not the optimizer's {sorted(state.bounds)}")
    gs, ps = [], []
    for name in state.bounds:
        if name not in grads:
            raise KeyError(f"missing gradient for trainable parameter '{name}'")
        g, p = grads[name], named[name].data
        if np.shape(g) != p.shape:
            raise ValueError(f"gradient for '{name}' has shape {np.shape(g)}, "
                             f"the parameter {p.shape}")
        gs.append(np.ravel(g))
        ps.append(p.ravel())
    g = np.concatenate(gs, dtype=np.float64)
    state.step += 1
    t = state.step
    b1, b2, wd = ADAM_BETA1, ADAM_BETA2, state.weight_decay
    # in place, so m[name] and v[name] stay views of the stepped moments; each
    # step is the per-parameter rule's own elementwise op, in its order:
    # m = b1 m + (1 - b1) g, v = b2 v + (1 - b2) g g,
    # p = p - lr wd p - lr m_hat / (sqrt(v_hat) + eps)
    m, v = state.m_flat, state.v_flat
    m *= b1
    m += (1.0 - b1) * g
    v *= b2
    g2 = (1.0 - b2) * g
    g2 *= g
    v += g2
    m_hat = m / (1.0 - b1**t)
    v_hat = np.divide(v, 1.0 - b2**t, out=g2)
    np.sqrt(v_hat, out=v_hat)
    v_hat += ADAM_EPS
    m_hat *= lr
    m_hat /= v_hat
    p = np.concatenate(ps, dtype=np.float64)
    p -= lr * wd * p
    p -= m_hat
    updated = {}
    for name, (a, b) in state.bounds.items():
        tensor = named[name]
        updated[name] = Tensor(p[a:b].reshape(tensor.data.shape).astype(tensor.data.dtype),
                               requires_grad=tensor.requires_grad)
    return updated


def check_update_fields(config):
    """Check the fields every training config has; a NaN fails each comparison,
    and an infinite rate or decay would write non-finite weights."""
    if not config.lr > 0:
        raise ValueError("learning rate must be positive")
    if config.lr == math.inf:
        raise ValueError("learning rate must be finite")
    if not config.weight_decay >= 0:
        raise ValueError("weight_decay must be non-negative")
    if config.weight_decay == math.inf:
        raise ValueError("weight_decay must be finite")
    if config.iterations < 0:
        raise ValueError("iterations must be non-negative")
    if config.grad_clip is not None and not config.grad_clip > 0:
        raise ValueError("grad_clip must be positive or None")


def optimizer_step(named, grads, loss, opt, lr, grad_clip, iteration):
    """The update policy of every training loop: clip ``grads`` to global
    norm ``grad_clip``, stop before the update when the loss or the pre-clip
    norm is non-finite, then return ``adamw_update``'s tensors for ``named``.
    """
    grads, grad_norm = clip_global_norm(grads, grad_clip)
    if not (math.isfinite(loss) and math.isfinite(grad_norm)):
        raise FloatingPointError(
            f"iteration {iteration}: non-finite loss {loss} or gradient norm "
            f"{grad_norm}; stopped before the update")
    return adamw_update(named, grads, opt, lr)


# ---------------------------------------------------------------------------
# fine-tuning steps


@dataclass
class StepResult:
    loss: float
    grads: dict        # parameter name -> gradient array
    x_hats: np.ndarray  # (B, D) final predictions, one row per batch item
    reward_means: dict  # the three standard readouts, unweighted
    step_grad_norms: list  # per item: |dL/dz| entering each recorded step


def collect_grads(named, leaf_grads):
    """Gradients of the name -> tensor map ``named``, keyed by name, from the
    tensor id -> gradient map this step's ``ta.backward`` returned; the one
    place a parameter no gradient reached, or no op touched, gets zeros."""
    return {name: leaf_grads[t.id] if t.id in leaf_grads else np.zeros_like(t.data)
            for name, t in named.items()}


# a diverging run overflows in here; optimizer_step then stops it with one error
@np.errstate(over="ignore", invalid="ignore")
def _reward_step(trainable, prompts, forward, text_params, image_params, world, spec):
    """The step every regime shares: one tape over (B, ·) rows, with a fixed
    number of recorded ops whatever B is.

    One text encode covers every prompt row of the step, in the order
    per-item tapes create them: item b's prompt, then one copy per weighted
    clip-constraint term. Its weight gradients (summed last row first) and
    its embedding gradient (added token by token, last row first) therefore
    come in the order per-item tapes give them: clip, then chain, last item
    first. The (B, C) conditioning and the clip texts are rows selected from
    it. ``forward(c)`` -> ((B, D) x_hat rows, ids of (B, D) latents to tap)
    records the regime's forward pass under c. ``combined_loss`` gives the
    (B,) losses of the rows, and their ``ta.batch_mean`` (adds in item
    order) is differentiated into ``trainable``; |dL/dz| is read per item
    at every tap. The readouts reuse the rewards the losses computed."""
    per_item = 1 + clip_entries(spec)
    rows = per_item * len(prompts)
    tape = ta.Tape()
    with tape:
        encodes = text_encode_rows(text_params, [p for p in prompts for _ in range(per_item)])
        c, clip_texts = encodes, []
        if per_item > 1:
            c, *clip_texts = (ta.row(encodes, range(j, rows, per_item)) for j in range(per_item))
        x_hats, taps = forward(c)
        values = {}
        loss = ta.batch_mean(combined_loss(x_hats, prompts, spec, world=world,
                                           image_params=image_params, text_params=text_params,
                                           clip_texts=clip_texts, values=values))
    g = ta.backward(tape, loss, tap_ids=taps)
    return StepResult(
        loss=loss.item(),
        grads=collect_grads(trainable.named(), g),
        x_hats=x_hats.data,
        reward_means=readout_means(x_hats.data, prompts, world=world, image_params=image_params,
                                   text_params=text_params, known=values, txt_embs=c),
        step_grad_norms=[[float(np.linalg.norm(g[tid][b])) if tid in g else 0.0 for tid in taps]
                         for b in range(len(prompts))],
    )


def direct_finetune_step(text_params, denoiser, image_params, world, batch,
                         ts, noises, sched, spec):
    """One-shot regime: z_t from data, x_hat = predict_x0, reward gradient on T.

    ``batch`` is a list of (x, prompt) pairs; ``ts`` and ``noises`` give the
    diffusion time and noise draw per item. The items run as (B, ·) rows,
    one timestep per row. The denoiser stays frozen.
    """
    if not batch:
        raise ValueError("empty batch")
    if not (len(batch) == len(ts) == len(noises)):
        raise ValueError("batch, ts, and noises must have equal length")
    ts = [int(t) for t in ts]
    xs = Tensor(np.stack([np.asarray(x) for x, _ in batch]))
    eps = Tensor(np.stack([np.asarray(e) for e in noises]))

    def one_shot(c):
        z_t = forward_diffuse(xs, ts, eps, sched)
        return predict_x0(z_t, denoise(denoiser, ts, z_t, c), ts, sched), []

    return _reward_step(text_params, [prompt for _, prompt in batch], one_shot, text_params,
                        image_params, world, spec)


def _chain_step(trainable, text_params, denoiser, image_params, world, prompts,
                z_inits, plan, k_last, sched, spec, sampler, w):
    """Forward the N-step chain of every item, guided at scale ``w``; record
    only the last K steps.

    The B items walk as one (B, D) latent under the (B, C) conditioning of
    their taped prompt encodes, with one ``step_table`` for all N steps:
    its constants built by a run's first iteration and shared by the rest,
    its step buffer made per iteration from the model as it is then. One
    detached walk runs the first N-K steps, so the gradient counts exactly
    the dependence through the recorded suffix. Each of the last K steps is
    one ``ta.mlp_step`` node over the batch, and the last one's output the
    x_hat rows. The walk and every recorded step run on that one buffer: in
    backward the last step reads its activations from the buffer as they
    are, and each earlier one first recomputes its own (``ta.mlp_step``).
    """
    if not prompts:
        raise ValueError("empty prompt batch")
    if len(prompts) != len(z_inits):
        raise ValueError("prompts and z_inits must have equal length")
    transitions = plan.transitions()
    n = len(transitions)
    if not (1 <= k_last <= n):
        raise ValueError(f"need 1 <= K <= {n} recorded steps, got K={k_last}")
    split = n - k_last
    z0 = Tensor(np.stack([z.data if isinstance(z, Tensor) else np.asarray(z) for z in z_inits]))

    def chain(c):
        steps, buffer = step_table(denoiser, transitions, z0, c, w, sampler, sched)
        z, taps = Tensor(walk_steps(steps[:split], z0.data, buffer)), []
        for temb, pairs in steps[split:]:
            taps.append(z.id)
            z = ta.mlp_step(z, temb, pairs, buffer)
        return z, taps

    return _reward_step(trainable, prompts, chain, text_params, image_params, world, spec)


def prompt_finetune_step(text_params, denoiser, image_params, world, prompts,
                         z_inits, plan, k_last, sched, spec, sampler="ddim", w=1.0):
    """Full-chain regime: gradients through the last K steps land on T."""
    return _chain_step(text_params, text_params, denoiser, image_params, world,
                       prompts, z_inits, plan, k_last, sched, spec, sampler, w)


def unet_finetune_step(denoiser, text_params, image_params, world, prompts,
                       z_inits, plan, k_last, sched, spec, sampler="ddim", w=1.0):
    """Denoiser stage: same chain, frozen text encoder, gradients on the denoiser."""
    return _chain_step(denoiser, text_params, denoiser, image_params, world,
                       prompts, z_inits, plan, k_last, sched, spec, sampler, w)


# ---------------------------------------------------------------------------
# training loop


@dataclass
class RunMetrics:
    rows: list  # of METRICS_COLUMNS tuples

    def to_csv(self):
        return csv_text(METRICS_COLUMNS, self.rows)

    def write_csv(self, path):
        return write_text(path, self.to_csv())


def prompt_split(config, world):
    """The (train, holdout) prompt sets of ``config``'s sizes; every run shares the split."""
    return make_prompt_sets(world, config.n_train_prompts, config.n_holdout_prompts)


def run_training(config, state_in, out_dir=None):
    """Execute one fine-tuning run; returns (state_out, RunMetrics).

    ``state_in`` is a merged checkpoint state holding text/image/denoiser
    parameters and the world. Fully determined by (config, state_in).
    """
    text, image, denoiser, world = model_from_state(state_in)

    if config.regime == "unet-chain":
        trainable, frozen, step_fn = denoiser, text, unet_finetune_step
    else:
        trainable, frozen, step_fn = text, denoiser, prompt_finetune_step
    trainable.set_requires_grad(True)

    sched = make_schedule(config.schedule_kind, config.t_train)
    plan = make_step_plan(config.n_steps, config.t_train)
    train_set, _ = prompt_split(config, world)
    rng = np.random.default_rng(derive_seed(config.seed, "train", config.regime))
    opt = OptimizerState.for_params(trainable.named(), weight_decay=config.weight_decay)
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)

    rows = []
    for it in range(config.iterations):
        if config.regime == "direct":
            batch = list(zip(*sample_pairs(world, rng, config.batch_size)))
            ts = rng.integers(0, config.t_train, size=config.batch_size)
            noises = rng.standard_normal((config.batch_size, world.d)).astype(np.float32)
            result = direct_finetune_step(text, denoiser, image, world, batch, ts,
                                          noises, sched, config.rewards)
        else:
            idx = rng.integers(0, len(train_set), size=config.batch_size)
            prompts = [train_set.prompts[i] for i in idx]
            z_inits = rng.standard_normal((config.batch_size, world.d)).astype(np.float32)
            result = step_fn(trainable, frozen, image, world, prompts, z_inits, plan,
                             config.k_last, sched, config.rewards, sampler=config.sampler,
                             w=config.chain_cfg_scale)
        trainable.apply_update(optimizer_step(trainable.named(), result.grads, result.loss,
                                              opt, config.lr, config.grad_clip, it))
        rows.append((it, result.loss)
                    + tuple(result.reward_means[kind] for kind, _ in READOUT_COLUMNS))
        if out_dir and config.checkpoint_interval and (it + 1) % config.checkpoint_interval == 0:
            path = os.path.join(out_dir, f"checkpoint_{it + 1:06d}.rcpt")
            save_checkpoint(merged_state(world, text, image, denoiser), path)

    metrics = RunMetrics(rows=rows)
    state_out = merged_state(world, text, image, denoiser)
    if out_dir:
        save_checkpoint(state_out, os.path.join(out_dir, "model.rcpt"))
        metrics.write_csv(os.path.join(out_dir, "metrics.csv"))
    return state_out, metrics
