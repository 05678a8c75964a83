"""Sampling pipelines and embedding-space control.

``sample`` walks a seeded noise draw down a step plan with classifier-free
guidance; a sample that is not finite is an error, as a non-finite loss is.
``interpolate_embeddings`` and ``mix_styles`` blend conditioning vectors
from differently fine-tuned text encoders at inference time, which is how
one model's style is dialed in or several are combined without touching
any weights. Samples persist as little-endian float32 vectors with a JSON
sidecar describing how they were made.
"""

from __future__ import annotations

import functools
import json

import numpy as np

from . import tensorad as ta
from .models import _denoise_parts, text_encode
from .schedule import DEFAULT_SCHEDULE, cfg_coefficients, make_schedule, sampler_coefficients
from .tensorad import Tensor
from .util import derive_seed, write_text

DEFAULT_LAMBDA_SWEEP = (0.0, 0.25, 0.5, 0.75, 1.0)


def step_table(denoiser, transitions, z, c, w, sampler, sched):
    """The constants of a walk of ``z`` down the non-empty ``transitions``
    under ``c``, in the working dtype, and the step buffer every step of
    the walk runs on: each transition's (time embedding, sampler (a, b)
    pairs), and a fresh ``ta.step_rows`` buffer of ``z``'s shape holding
    the denoiser's layers and null conditioning as they are now, ``c`` and
    the guidance pair (None at w=1). Checks, in order: the shapes of ``z``
    and ``c``, each transition's sampler constants (sampler name, then
    transition), then ``w``. The shape and ``w`` checks and the buffer run
    per call; the transitions' part is built once per (transitions,
    sampler, schedule object, working dtype, t_embed) and shared, read-only
    (``_transition_table``)."""
    # the parts are [z, time embedding, c]; the embedding has the working
    # dtype. The null branch passes the same checks: C is null_cond's width
    dt = _denoise_parts(denoiser, transitions[0][0], z, c)[1].dtype
    steps = _transition_table(tuple(transitions), sampler, sched, dt, denoiser.t_embed)
    cfg = None if w == 1.0 else tuple([np.asarray(k, dt) for k in cfg_coefficients(w)])
    return steps, ta.step_rows(z, ta._as_tensor(c), denoiser.null_cond, cfg, denoiser.layers())


@functools.lru_cache(maxsize=64)
def _transition_table(transitions, sampler, sched, dt, te):
    """``step_table``'s per-transition constants as nested tuples of
    read-only arrays of ``dt``. The key holds ``sched`` itself, which is
    equal only to itself, so no other schedule object can share its entry;
    a build that raises is not cached."""
    def frozen(arr):
        arr.flags.writeable = False
        return arr

    return tuple((frozen(ta.time_embedding_array(t, te)),
                  tuple((frozen(np.asarray(a, dt)), frozen(np.asarray(b, dt)))
                        for a, b in sampler_coefficients(sampler, t, t_prev, sched)))
                 for t, t_prev in transitions)


def walk_chain(denoiser, transitions, z, c, w, sampler, sched):
    """Detached walk of ``z`` down ``transitions`` under conditioning ``c``;
    returns the final latent array, never a view of the walk's buffer. A
    (B, D) ``z`` with a (B, C) ``c`` walks B chains at once, each row bit
    for bit the walk of that row alone.

    Each step is the arithmetic of a taped ``ta.mlp_step`` on the same
    ``step_table``, ``ta.mlp_step_kernel``, on plain arrays, with its bits,
    errors and warnings but no Tensor and no op dispatch: one dense-stack
    pass over the rows [cond; uncond] of the buffer of one ``step_table``,
    whose checks run once, before the first step, and whose transitions'
    constants are shared with every walk of the same key; an empty walk
    checks nothing. Nothing is recorded, so ``c`` may be a taped tensor."""
    if not transitions:
        return z.data
    steps, buffer = step_table(denoiser, transitions, z, c, w, sampler, sched)
    return walk_steps(steps, z.data, buffer)


def walk_steps(steps, z, buffer):
    """``walk_chain`` of the array ``z`` down ``step_table`` entries on the
    step buffer ``buffer``, which gives every step its layers, conditioning
    and guidance; checks nothing. Returns the last latent in ``z``'s shape,
    a fresh array, never a view of the buffer (a view of ``z`` for no
    steps)."""
    shape = z.shape
    for temb, pairs in steps:
        z = ta.mlp_step_kernel(buffer, z, temb, pairs)
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


@functools.lru_cache(maxsize=8)
def _default_schedule(t_train):
    """The default kind's schedule over ``t_train``, one object per horizon,
    so that sampling with ``sched=None`` shares one step table per key."""
    return make_schedule(DEFAULT_SCHEDULE, t_train)


def sample_from_cond(cond, denoiser_params, plan, w, seed, *, sampler="ddim",
                     sched=None):
    """Deterministic sample from a fixed conditioning vector, or one (L, D)
    row per row of (L, C) conditioning, all from one noise draw.

    The starting noise is drawn from the seed alone, so the same seed always
    walks the same trajectory. ``w`` is the guidance scale: 0 is purely
    unconditional, 1 skips the unconditional branch entirely (bit-identical
    to conditional-only sampling), larger values extrapolate. ``sched``
    defaults to the default kind over the plan's horizon. A sample that is
    not finite (a large ``w`` overflows the walk) raises FloatingPointError,
    with no NumPy warning before it.
    """
    d = denoiser_params.d
    z = start_noise(seed, d)
    if cond.data.ndim == 2:
        z = ta.broadcast_rows(z, (len(cond.data), d))
    sched = _default_schedule(plan.t_train) if sched is None else sched
    with np.errstate(over="ignore", invalid="ignore"):
        x = walk_chain(denoiser_params, plan.transitions(), z, cond, w, sampler, sched)
    if not np.all(np.isfinite(x)):
        raise FloatingPointError(
            f"the sample is not finite at w={float(w)!r} over {plan.n_steps} steps")
    return x


def sample(text_params, denoiser_params, prompt, plan, w, seed, *,
           sampler="ddim", sched=None):
    """Encode the prompt and sample; see ``sample_from_cond``, which raises
    on a non-finite sample."""
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
    ``sample_from_cond`` chain, which raises when any sample is not finite;
    each sample is bit-identical to ``sample_from_cond`` on its blend alone,
    so the first equals sampling with the original encoder.
    """
    if not lambdas:
        raise ValueError("continuity_probe: empty interpolation sweep")
    with ta.pause_recording():
        c0 = text_encode(text_original, prompt)
        c1 = text_encode(text_finetuned, prompt)
        conds = Tensor(np.stack([interpolate_embeddings(c0, c1, lam).data for lam in lambdas]))
    samples = list(sample_from_cond(conds, denoiser_params, plan, w, seed, sampler=sampler,
                                    sched=sched))
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
