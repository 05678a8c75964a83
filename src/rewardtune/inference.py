"""Sampling pipelines and embedding-space control.

``sample`` walks a seeded noise draw down a step plan with classifier-free
guidance. ``interpolate_embeddings`` and ``mix_styles`` blend conditioning
vectors from differently fine-tuned text encoders at inference time, which is
how one model's style is dialed in or several are combined without touching
any weights. Samples persist as little-endian float32 vectors with a JSON
sidecar describing how they were made.
"""

from __future__ import annotations

import functools
import json

import numpy as np

from . import tensorad as ta
from .models import _denoise_parts, denoise, text_encode
from .schedule import (cfg_coefficients, cfg_combine, make_schedule, sampler_coefficients,
                       sampler_step)
from .tensorad import Tensor
from .util import derive_seed, write_text

DEFAULT_LAMBDA_SWEEP = (0.0, 0.25, 0.5, 0.75, 1.0)


def guided_step(denoiser, t, t_prev, z, c, w, sampler, sched):
    """One sampler transition t -> t_prev under guidance scale ``w``.

    The unconditional branch runs only when w != 1, so w=1 is bit-identical
    to conditional-only denoising. Recorded like any other ops when a tape is
    active: the fine-tuning chain's checkpoint segments step through here,
    as two ``denoise`` calls, and ``walk_chain`` is the same step on arrays.
    """
    eps = denoise(denoiser, t, z, c)
    if w != 1.0:
        eps_u = denoise(denoiser, t, z, denoiser.null_cond)
        eps = cfg_combine(eps, eps_u, w)
    return sampler_step(sampler, z, eps, t, t_prev, sched)


def walk_chain(denoiser, transitions, z, c, w, sampler, sched):
    """Detached walk of ``z`` down ``transitions`` under conditioning ``c``;
    returns the final latent array. A (B, D) ``z`` with a (B, C) ``c`` walks
    B chains at once, each row bit for bit the walk of that row alone.

    Each step is ``guided_step`` on plain arrays of the working dtype, with
    its bits, errors and warnings but no Tensor and no op dispatch: one
    dense-stack pass over the rows [cond; uncond] of a buffer whose
    conditioning columns are written once per walk. ``guided_step``'s
    checks run once, before the first step: the shapes of ``z`` and ``c``,
    each step's sampler constants (sampler name, then transition), then
    ``w``'s guidance constants; an empty walk checks nothing. Nothing is
    recorded, so ``c`` may be a taped tensor."""
    if not transitions:
        return z.data
    shape, z, c, null = z.shape, z.data, c.data, denoiser.null_cond.data
    guided, t0 = w != 1.0, transitions[0][0]
    # the parts are [z, time embedding, c]; the embedding has the working
    # dtype. The null branch passes the same checks: C is null_cond's width
    dt = _denoise_parts(denoiser, t0, z, c)[1].dtype
    d, te = denoiser.d, denoiser.t_embed
    steps = [(ta.time_embedding_array(t, te),
              [(np.asarray(a, dt), np.asarray(b, dt))
               for a, b in sampler_coefficients(sampler, t, t_prev, sched)])
             for t, t_prev in transitions]
    if guided:
        cfg = [np.asarray(k, dt) for k in cfg_coefficients(w)]
    n, width = len(z) if z.ndim == 2 else 1, d + te + denoiser.c_width
    # (branch, row, column) when guided; the stack reads it as (2n, width)
    rows = np.empty((2, n, width) if guided else z.shape[:-1] + (width,), dt)
    rows[..., d + te:] = c
    if guided:
        rows[1, :, d + te:] = null
    stacked = rows.reshape(-1, width) if guided else rows
    layers = denoiser.layers()
    for temb, pairs in steps:
        rows[..., :d] = z
        rows[..., d:d + te] = temb
        eps = ta.mlp_kernel([stacked], layers, "silu")
        if guided:
            eps = ta.axpby_kernel(eps[:n], cfg[0], eps[n:], cfg[1])
        for a, b in pairs:
            z = ta.axpby_kernel(z, a, eps, b)
    return z.reshape(shape)


def start_noise(seed, d):
    """The (D,) latent every sampling chain of ``seed`` starts from, as a
    fresh Tensor of the working dtype."""
    return Tensor(_noise_draw(seed, d))


@functools.lru_cache(maxsize=256)
def _noise_draw(seed, d):
    """``start_noise``'s float32 draw, read-only: a grid reuses a few seeds."""
    rng = np.random.default_rng(derive_seed(seed, "sample"))
    draw = rng.standard_normal(d).astype(np.float32)
    draw.flags.writeable = False
    return draw


def _walk_sched(plan, sched):
    """The schedule to walk: ``sched``, or linear-beta over the plan's
    horizon when it is None. ``walk_chain`` checks the sampler and ``w``."""
    return make_schedule("linear-beta", plan.t_train) if sched is None else sched


def sample_from_cond(cond, denoiser_params, plan, w, seed, *, sampler="ddim",
                     sched=None):
    """Deterministic sample from a fixed conditioning vector.

    The starting noise is drawn from the seed alone, so the same seed always
    walks the same trajectory. ``w`` is the guidance scale: 0 is purely
    unconditional, 1 skips the unconditional branch entirely (bit-identical
    to conditional-only sampling), larger values extrapolate.
    """
    sched = _walk_sched(plan, sched)
    z = start_noise(seed, denoiser_params.d)
    return walk_chain(denoiser_params, plan.transitions(), z, cond, w, sampler, sched)


def sample(text_params, denoiser_params, prompt, plan, w, seed, *,
           sampler="ddim", sched=None):
    """Encode the prompt and sample; see ``sample_from_cond``."""
    with ta.pause_recording():
        cond = text_encode(text_params, prompt)
    return sample_from_cond(cond, denoiser_params, plan, w, seed,
                            sampler=sampler, sched=sched)


def interpolate_embeddings(c_original, c_finetuned, lam):
    """Linear blend (1-lam) * original + lam * finetuned.

    The endpoints return the corresponding input unchanged, so lam=0 and
    lam=1 are bit-exact by construction.
    """
    if not (0.0 <= lam <= 1.0):
        raise ValueError("interpolation weight must be in [0, 1]")
    if c_original.data.shape != c_finetuned.data.shape:
        raise ValueError("embedding width mismatch")
    if lam == 0.0:
        return c_original
    if lam == 1.0:
        return c_finetuned
    return ta.add(ta.mul(c_original, 1.0 - lam), ta.mul(c_finetuned, lam))


def mix_styles(entries):
    """Weighted sum of conditioning vectors, with weights summing to 1.

    ``entries`` holds (embedding, weight) pairs; weights may be negative and
    must sum to 1 within 1e-6. Accumulation in float64 keeps one-hot weight
    vectors and equal-weight blends of identical embeddings exact.
    """
    entries = list(entries)
    if len(entries) < 2:
        raise ValueError("style mixing needs at least 2 entries")
    total = sum(float(w) for _, w in entries)
    if not abs(total - 1.0) <= 1e-6:
        raise ValueError(f"mixing weights must sum to 1, got {total!r}")
    width = entries[0][0].data.shape
    acc = np.zeros(width, dtype=np.float64)
    for c, w in entries:
        if c.data.shape != width:
            raise ValueError("embedding width mismatch")
        acc += float(w) * c.data.astype(np.float64)
    return Tensor(acc)


def continuity_probe(text_original, text_finetuned, denoiser_params, prompt,
                     plan, w, seed, lambdas=DEFAULT_LAMBDA_SWEEP, *,
                     sampler="ddim", sched=None):
    """Samples along the interpolation sweep, all from the same noise draw.

    Returns (samples, distances): one sample per interpolation weight and the
    Euclidean gap between consecutive samples. The sweep walks as one (L, D)
    chain; each sample is bit-identical to ``sample_from_cond`` on its blend,
    so the first equals sampling with the original encoder.
    """
    if not lambdas:
        raise ValueError("continuity_probe: empty interpolation sweep")
    sched = _walk_sched(plan, sched)
    d = denoiser_params.d
    with ta.pause_recording():
        c0 = text_encode(text_original, prompt)
        c1 = text_encode(text_finetuned, prompt)
        conds = Tensor(np.stack([interpolate_embeddings(c0, c1, lam).data for lam in lambdas]))
        z = ta.broadcast_rows(start_noise(seed, d), (len(lambdas), d))
    samples = list(walk_chain(denoiser_params, plan.transitions(), z, conds, w, sampler, sched))
    distances = [
        float(np.linalg.norm(b.astype(np.float64) - a.astype(np.float64)))
        for a, b in zip(samples, samples[1:])
    ]
    return samples, distances


def write_sample(path, x, meta):
    """Persist ``x`` as raw little-endian float32 plus ``path``.json sidecar."""
    arr = np.ascontiguousarray(np.asarray(x, dtype="<f4"))
    with open(path, "wb") as fh:
        fh.write(arr.tobytes())
    write_text(f"{path}.json", json.dumps(meta, sort_keys=True, indent=2) + "\n")
    return path


def read_sample(path):
    """Load a sample written by ``write_sample``; returns (x, meta)."""
    with open(path, "rb") as fh:
        arr = np.frombuffer(fh.read(), dtype="<f4")
    with open(f"{path}.json", encoding="utf-8") as fh:
        meta = json.load(fh)
    return arr, meta
