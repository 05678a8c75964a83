"""Analytic reward functions and their weighted combination.

Stand-ins for learned scorers, chosen so every acceptance check is exact:
an image-only style reward (negative squared distance to a fixed style
vector), a prompt alignment reward (cosine to the ground-truth pattern sum),
the similarity constraint cos(I(x_hat), T(p)) that keeps the conditioning
encoder anchored to the image embedding space, and a deliberately degenerate
prompt-independent probe used to demonstrate output collapse. The total
training loss is L = -sum_i gamma_i * R_i.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import tensorad as ta
from .models import image_encode, text_encode
from .tensorad import Tensor

REWARD_KINDS = ("image-style", "alignment", "clip-constraint", "degenerate-collapse-probe")

# each reward is normalized to O(1) range so the default weights below keep
# their contributions comparable in magnitude
DEFAULT_WEIGHTS = {"clip-constraint": 100.0, "image-style": 1.0, "alignment": 100.0}


def style_vector(d):
    """The fixed style target s: alternating signs, unit norm."""
    s = np.ones(d, dtype=np.float64)
    s[1::2] = -1.0
    return (s / math.sqrt(d)).astype(np.float32)


def collapse_target(d):
    """The fixed point c0 the degenerate probe pulls everything toward."""
    return (np.ones(d, dtype=np.float64) / math.sqrt(d)).astype(np.float32)


def reward_image(x_hat, scale=1.0):
    """-scale * ||x_hat - s||^2 / D: 0 at the style vector, ~[-1, 0] nearby."""
    s = Tensor(style_vector(x_hat.data.shape[0]))
    return ta.mul(ta.neg(ta.squared_error(x_hat, s)), float(scale))


def reward_alignment(x_hat, prompt, world):
    """cos(x_hat, ground-truth pattern sum of the prompt)."""
    target = Tensor(world.pattern_sum(prompt))
    return ta.cosine_similarity(x_hat, target)


def reward_clip_constraint(x_hat, prompt, image_params, text_params):
    """cos(I(x_hat), T(p)); gradient reaches both x_hat and the text encoder."""
    img_emb = image_encode(image_params, x_hat)
    txt_emb = text_encode(text_params, prompt)
    return ta.cosine_similarity(img_emb, txt_emb)


def reward_collapse_probe(x_hat):
    """-||x_hat - c0||^2 / D toward one fixed point, ignoring the prompt."""
    c0 = Tensor(collapse_target(x_hat.data.shape[0]))
    return ta.neg(ta.squared_error(x_hat, c0))


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
            if isinstance(weight, bool) or not isinstance(weight, (int, float)):
                raise ValueError(f"rewards[{i}]: weight must be a number, got {weight!r}")
            try:
                entries += cls(entries=((str(item["kind"]), float(weight)),)).entries
            except (ValueError, OverflowError) as exc:
                raise ValueError(f"rewards[{i}]: {exc}") from None
        return cls(entries=entries)

    @classmethod
    def default(cls):
        return cls(entries=tuple(DEFAULT_WEIGHTS.items()))


def _eval_reward(kind, x_hat, prompt, world, image_params, text_params):
    if kind == "image-style":
        return reward_image(x_hat)
    if kind == "alignment":
        if world is None:
            raise ValueError("alignment reward needs a world")
        return reward_alignment(x_hat, prompt, world)
    if kind == "clip-constraint":
        if image_params is None or text_params is None:
            raise ValueError("clip-constraint reward needs both encoders")
        return reward_clip_constraint(x_hat, prompt, image_params, text_params)
    if kind == "degenerate-collapse-probe":
        return reward_collapse_probe(x_hat)
    raise ValueError(f"unknown reward kind {kind!r}")


def combined_loss(x_hat, prompt, spec, *, world=None, image_params=None, text_params=None):
    """L = -sum gamma_i R_i; zero-weight terms are skipped entirely."""
    loss = None
    for kind, weight in spec.entries:
        if weight == 0.0:
            continue
        r = _eval_reward(kind, x_hat, prompt, world, image_params, text_params)
        term = ta.mul(r, -float(weight))
        loss = term if loss is None else ta.add(loss, term)
    if loss is None:
        return Tensor(np.zeros(()))
    return loss


def reward_values(x_hat, prompt, spec, *, world=None, image_params=None, text_params=None):
    """Unweighted reward readouts for metrics rows, keyed by kind."""
    out = {}
    with ta.pause_recording():
        for kind, _ in spec.entries:
            out[kind] = _eval_reward(
                kind, x_hat, prompt, world, image_params, text_params
            ).item()
    return out


# the three standard readouts reported for every sample, in reporting order:
# (reward kind, CSV column name)
READOUT_COLUMNS = (
    ("image-style", "reward_image"),
    ("alignment", "reward_align"),
    ("clip-constraint", "reward_clip"),
)

# the weights are irrelevant because reward_values returns unweighted values
READOUT_SPEC = RewardSpec(entries=tuple((kind, 1.0) for kind, _ in READOUT_COLUMNS))


def readout_means(x_hats, prompts, *, world, image_params, text_params):
    """Mean of each standard readout over paired samples and prompts, summed
    in the order given."""
    sums = {kind: 0.0 for kind, _ in READOUT_SPEC.entries}
    for x_hat, prompt in zip(x_hats, prompts):
        x = x_hat if isinstance(x_hat, Tensor) else Tensor(np.asarray(x_hat))
        vals = reward_values(x, prompt, READOUT_SPEC, world=world,
                             image_params=image_params, text_params=text_params)
        for kind, v in vals.items():
            sums[kind] += v
    n = len(prompts)
    return {kind: total / n for kind, total in sums.items()}
