"""Analytic reward functions and their weighted combination.

Stand-ins for learned scorers, chosen so every acceptance check is exact:
an image-only style reward (negative squared distance to a fixed style
vector), a prompt alignment reward (cosine to the ground-truth pattern sum),
the similarity constraint cos(I(x_hat), T(p)) that keeps the conditioning
encoder anchored to the image embedding space, and a deliberately degenerate
prompt-independent probe used to demonstrate output collapse. The total
training loss is L = -sum_i gamma_i * R_i.

Each reward is one tape node past its encoder: a fused
``ta.cosine_similarity`` or ``ta.squared_error`` (the latter negated), and
the weighting and sum over the terms is one ``ta.weighted_sum``. The style
vector and the collapse target are built once per width.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import tensorad as ta
from .models import image_encode, text_encode, text_encode_rows
from .tensorad import Tensor
from .util import is_number

REWARD_KINDS = ("image-style", "alignment", "clip-constraint", "degenerate-collapse-probe")

# each reward is normalized to O(1) range so the default weights below keep
# their contributions comparable in magnitude
DEFAULT_WEIGHTS = {"clip-constraint": 100.0, "image-style": 1.0, "alignment": 100.0}


def _frozen(arr):
    arr.flags.writeable = False
    return arr


@functools.lru_cache(maxsize=16)
def style_vector(d):
    """The fixed style target s: alternating signs, unit norm; read-only,
    one array per width."""
    s = np.ones(d, dtype=np.float64)
    s[1::2] = -1.0
    return _frozen((s / math.sqrt(d)).astype(np.float32))


@functools.lru_cache(maxsize=16)
def collapse_target(d):
    """The fixed point c0 the degenerate probe pulls everything toward;
    read-only, one array per width."""
    return _frozen((np.ones(d, dtype=np.float64) / math.sqrt(d)).astype(np.float32))


def _per_row(x_hat, target):
    """A constant target beside ``x_hat``: ``target`` itself for one (D,)
    sample, repeated on every row of (B, D) rows."""
    return Tensor(np.broadcast_to(target, x_hat.data.shape))


def reward_image(x_hat):
    """-||x_hat - s||^2 / D: 0 at the style vector, ~[-1, 0] nearby."""
    return ta.neg(ta.squared_error(x_hat, _per_row(x_hat, style_vector(x_hat.data.shape[-1]))))


def reward_alignment(x_hat, prompt, world):
    """cos(x_hat, ground-truth pattern sum of the prompt); on rows, ``prompt``
    lists one prompt per row."""
    target = (world.pattern_sum(prompt) if x_hat.data.ndim == 1
              else np.stack([world.pattern_sum(p) for p in prompt]))
    return ta.cosine_similarity(x_hat, Tensor(target))


def reward_clip_constraint(x_hat, prompt, image_params, text_params, txt_emb=None):
    """cos(I(x_hat), T(p)); gradient reaches both x_hat and the text encoder.
    ``txt_emb`` is T(p) when the caller has encoded it already; on rows,
    ``prompt`` lists one prompt per row and ``txt_emb`` is (B, C)."""
    img_emb = image_encode(image_params, x_hat)
    if txt_emb is None:
        encode = text_encode if x_hat.data.ndim == 1 else text_encode_rows
        txt_emb = encode(text_params, prompt)
    return ta.cosine_similarity(img_emb, txt_emb)


def reward_collapse_probe(x_hat):
    """-||x_hat - c0||^2 / D toward one fixed point, ignoring the prompt."""
    return ta.neg(ta.squared_error(x_hat, _per_row(x_hat, collapse_target(x_hat.data.shape[-1]))))


@dataclass(frozen=True)
class RewardSpec:
    """Weighted list of reward terms: L = -sum gamma_i R_i."""

    entries: tuple = field(default_factory=tuple)  # of (kind, weight)

    def __post_init__(self):
        for kind, weight in self.entries:
            if kind not in REWARD_KINDS:
                raise ValueError(f"unknown reward kind {kind!r}")
            if not math.isfinite(weight):
                raise ValueError(f"non-finite weight for {kind!r}: {weight}")

    @classmethod
    def from_config(cls, items):
        """Parse [{"kind": ..., "weight": ...}, ...] from a run config; a
        malformed entry is rejected with one line naming ``rewards[i]``."""
        form = '{"kind": ..., "weight": ...}'
        if not isinstance(items, list):
            raise ValueError(f"rewards must be a list of {form} objects, got {items!r}")
        entries = ()
        for i, item in enumerate(items):
            if not isinstance(item, dict) or sorted(item) != ["kind", "weight"]:
                raise ValueError(f"rewards[{i}] must be an object {form}, got {item!r}")
            weight = item["weight"]
            if not is_number(weight):
                raise ValueError(f"rewards[{i}]: weight must be a number, got {weight!r}")
            try:
                entries += cls(entries=((str(item["kind"]), float(weight)),)).entries
            except ValueError as exc:
                raise ValueError(f"rewards[{i}]: {exc}") from None
        return cls(entries=entries)

    @classmethod
    def default(cls):
        return cls(entries=tuple(DEFAULT_WEIGHTS.items()))


def _eval_reward(kind, x_hat, prompt, world, image_params, text_params, txt_emb=None):
    if kind == "image-style":
        return reward_image(x_hat)
    if kind == "alignment":
        if world is None:
            raise ValueError("alignment reward needs a world")
        return reward_alignment(x_hat, prompt, world)
    if kind == "clip-constraint":
        if image_params is None or text_params is None:
            raise ValueError("clip-constraint reward needs both encoders")
        return reward_clip_constraint(x_hat, prompt, image_params, text_params, txt_emb)
    if kind == "degenerate-collapse-probe":
        return reward_collapse_probe(x_hat)
    raise ValueError(f"unknown reward kind {kind!r}")


def clip_entries(spec):
    """How many clip-constraint terms ``spec`` weights: each encodes the prompt."""
    return sum(1 for kind, weight in spec.entries if kind == "clip-constraint" and weight != 0.0)


def combined_loss(x_hat, prompt, spec, *, world=None, image_params=None, text_params=None,
                  clip_texts=None, values=None):
    """L = -sum gamma_i R_i, one ``ta.weighted_sum`` node over the rewards;
    zero-weight terms are skipped entirely.

    ``x_hat`` is one (D,) sample with its ``prompt``, or (B, D) rows with a
    list of B prompts; on rows the result is the (B,) losses, row i with the
    bits item i alone gets, ready for ``ta.batch_mean``. ``clip_texts`` holds
    T(p), (C,) or (B, C), for each weighted clip-constraint term in order
    (``clip_entries``), encoded by the caller; without it each term encodes
    the prompts here. A ``values`` dict receives each computed reward,
    unweighted, by kind: a float, or on rows the (B,) array.
    """
    clip_texts = iter(clip_texts or ())
    rewards, weights = [], []
    for kind, weight in spec.entries:
        if weight == 0.0:
            continue
        txt_emb = next(clip_texts, None) if kind == "clip-constraint" else None
        r = _eval_reward(kind, x_hat, prompt, world, image_params, text_params, txt_emb)
        if values is not None:
            values[kind] = r.item() if r.data.ndim == 0 else r.data
        rewards.append(r)
        weights.append(-float(weight))
    if not rewards:
        return Tensor(np.zeros(x_hat.data.shape[:-1]))
    return ta.weighted_sum(rewards, weights)


def reward_values(x_hat, prompt, spec, *, world=None, image_params=None, text_params=None,
                  txt_emb=None):
    """Unweighted reward readouts for metrics rows, keyed by kind; a clip
    readout uses ``txt_emb`` as T(p) when given."""
    out = {}
    with ta.pause_recording():
        for kind, _ in spec.entries:
            out[kind] = _eval_reward(
                kind, x_hat, prompt, world, image_params, text_params, txt_emb
            ).item()
    return out


# the three standard readouts reported for every sample, in reporting order:
# (reward kind, CSV column name)
READOUT_COLUMNS = (
    ("image-style", "reward_image"),
    ("alignment", "reward_align"),
    ("clip-constraint", "reward_clip"),
)

# the weights are irrelevant because readouts are unweighted
READOUT_SPEC = RewardSpec(entries=tuple((kind, 1.0) for kind, _ in READOUT_COLUMNS))


def readout_means(x_hats, prompts, *, world, image_params, text_params, known=None,
                  txt_embs=None):
    """Mean of each standard readout over the (n, D) samples ``x_hats``
    paired with ``prompts``, summed as Python floats in row order. ``known``
    maps kinds to the (n,) readouts already computed (``combined_loss``'s
    ``values`` on rows); the others are computed here in one detached pass
    over the rows, a clip readout with the (n, C) ``txt_embs`` as T(p) when
    given."""
    x = Tensor(x_hats)
    vals = dict(known or {})
    with ta.pause_recording():
        for kind, _ in READOUT_SPEC.entries:
            if kind not in vals:
                vals[kind] = _eval_reward(kind, x, prompts, world, image_params, text_params,
                                          txt_embs).data
    means = {}
    for kind, _ in READOUT_SPEC.entries:
        total = 0.0
        for v in vals[kind]:
            total += float(v)
        means[kind] = total / len(prompts)
    return means
