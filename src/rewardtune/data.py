"""Synthetic world: attribute vocabulary, prompt -> pattern mapping, sampling.

Each attribute owns a unit pattern vector; a prompt is 1-3 attribute tokens
and its ground-truth data point is the sum of the named patterns plus noise.
With noise scale 0 the optimal reconstruction is the pattern sum, which the
alignment reward uses as an exact oracle.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

MAX_PROMPT_LEN = 3
_SEPARABILITY_COS = 0.5
_MAX_REDRAWS = 200

# one fixed shuffle seed so every run sees the same train/holdout split
DEFAULT_SPLIT_SEED = 7311


@dataclass(frozen=True)
class ToyWorld:
    token_ids: tuple      # token id of each attribute, length A
    patterns: np.ndarray  # (A, D) float32, unit rows, pairwise cos < 0.5
    noise_scale: float

    @property
    def a(self):
        return self.patterns.shape[0]

    @property
    def d(self):
        return self.patterns.shape[1]

    def pattern_sum(self, prompt_tokens):
        """Ground-truth target for a prompt: sum of its attribute patterns,
        a read-only float32 array built once per distinct prompt of this
        world and shared; a bad prompt raises on every call."""
        prompt_tokens = tuple(prompt_tokens)
        total = self._sums.get(prompt_tokens)
        if total is not None:
            return total
        tok_to_row = {tok: i for i, tok in enumerate(self.token_ids)}
        rows = []
        for tok in prompt_tokens:
            if int(tok) not in tok_to_row:
                raise ValueError(f"token {tok} is not an attribute of this world")
            rows.append(self.patterns[tok_to_row[int(tok)]])
        if not rows:
            raise ValueError("empty prompt")
        if len(set(map(int, prompt_tokens))) < len(rows):
            raise ValueError(f"prompt {' '.join(map(str, prompt_tokens))} repeats a token")
        total = np.zeros(self.d, dtype=np.float64)
        for r in rows:
            total += r
        total = total.astype(np.float32)
        total.flags.writeable = False
        self._sums[prompt_tokens] = total
        return total

    @functools.cached_property
    def _sums(self):
        """``pattern_sum``'s results by prompt, per world object."""
        return {}

    @functools.cached_property
    def _draws(self):
        """``sample_pairs``' float64 pattern sum and prompt by drawn attribute
        indices, in draw order, per world object."""
        return {}


def _max_offdiag_cos(patterns):
    gram = patterns @ patterns.T
    np.fill_diagonal(gram, 0.0)
    return float(np.abs(gram).max())


def make_world(seed, a=8, d=16, noise_scale=0.1):
    """Draw attribute patterns, redrawing until pairwise separability holds."""
    if a < 1 or d < 1:
        raise ValueError("world sizes must be positive")
    rng = np.random.default_rng(seed)
    for _ in range(_MAX_REDRAWS):
        raw = rng.standard_normal((a, d))
        patterns = raw / np.linalg.norm(raw, axis=1, keepdims=True)
        if _max_offdiag_cos(patterns) < _SEPARABILITY_COS:
            return ToyWorld(
                token_ids=tuple(range(a)),
                patterns=patterns.astype(np.float32),
                noise_scale=float(noise_scale),
            )
    raise RuntimeError(
        f"could not draw {a} patterns in {d} dims with pairwise cos < {_SEPARABILITY_COS}"
    )


def sample_pair(world, rng):
    """One (x, prompt) draw: 1-3 distinct attributes, x = pattern sum + noise."""
    x, prompts = sample_pairs(world, rng, 1)
    return x[0], prompts[0]


def sample_pairs(world, rng, n, after=None):
    """``n`` (x, prompt) draws as the (n, D) float32 rows and the n prompts.

    Row i makes the generator calls one draw has always made, in order: k,
    the k distinct attributes, then the D noise values; ``after(i)`` then
    makes the caller's own draws for the row. The arithmetic runs once over
    the rows, so stream and bytes are those of n one-row draws."""
    draws = world._draws
    base = np.empty((n, world.d))
    noise = np.empty((n, world.d))
    prompts = []
    for i in range(n):
        k = int(rng.integers(1, MAX_PROMPT_LEN + 1))
        idx = tuple(rng.choice(world.a, size=k, replace=False).tolist())
        entry = draws.get(idx)
        if entry is None:
            # accumulate in f64 so the noise-free draw matches pattern_sum bit-exactly
            total = world.patterns[list(idx)].astype(np.float64).sum(axis=0)
            total.flags.writeable = False
            entry = draws[idx] = (total, tuple(int(world.token_ids[j]) for j in idx))
        base[i] = entry[0]
        prompts.append(entry[1])
        rng.standard_normal(out=noise[i])
        if after is not None:
            after(i)
    x = base + world.noise_scale * noise
    return x.astype(np.float32), tuple(prompts)


@dataclass(frozen=True)
class PromptSet:
    prompts: tuple
    split: str

    def __len__(self):
        return len(self.prompts)

    def __iter__(self):
        return iter(self.prompts)


def all_prompts(world):
    """Every attribute combination of length 1..3, in lexicographic order."""
    combos = []
    for k in range(1, MAX_PROMPT_LEN + 1):
        combos.extend(itertools.combinations(world.token_ids, k))
    return combos


def make_prompt_sets(world, n_train, n_holdout, seed=DEFAULT_SPLIT_SEED):
    """Disjoint train/holdout prompt sets from a seeded shuffle of all combos."""
    combos = all_prompts(world)
    if n_train < 1 or n_holdout < 1:
        raise ValueError("split sizes must be positive")
    if n_train + n_holdout > len(combos):
        raise ValueError(
            f"requested {n_train}+{n_holdout} prompts but only {len(combos)} distinct combos exist"
        )
    order = np.random.default_rng(seed).permutation(len(combos))
    picked = [combos[i] for i in order]
    train = PromptSet(prompts=tuple(picked[:n_train]), split="train")
    holdout = PromptSet(prompts=tuple(picked[n_train:n_train + n_holdout]), split="holdout")
    return train, holdout


def load_prompts(path, vocab=32):
    """Parse a prompt file: one prompt per line, whitespace-separated token ids."""
    prompts = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped:
                continue
            tokens = []
            for word in stripped.split():
                try:
                    tok = int(word)
                except ValueError:
                    raise ValueError(f"line {lineno}: non-integer token {word!r}") from None
                if not (0 <= tok < vocab):
                    raise ValueError(f"line {lineno}: token {tok} outside vocabulary [0, {vocab})")
                tokens.append(tok)
            prompts.append(tuple(tokens))
    if not prompts:
        raise ValueError(f"{path}: no prompts found")
    return PromptSet(prompts=tuple(prompts), split="file")


# ---------------------------------------------------------------------------
# checkpoint persistence: the world travels with the parameters so rewards
# stay meaningful across processes


def world_state(world):
    state = {}
    for k in range(world.a):
        state[f"world/pattern_{k}"] = world.patterns[k]
    state["world/token_ids"] = np.asarray(world.token_ids, dtype=np.float32)
    state["world/noise_scale"] = np.asarray(world.noise_scale, dtype=np.float32)
    return state


def world_from_state(state):
    keys = sorted(k for k in state if k.startswith("world/pattern_"))
    if not keys:
        raise ValueError("state holds no world patterns")
    indices = sorted(int(k.rsplit("_", 1)[1]) for k in keys)
    if indices != list(range(len(indices))):
        raise ValueError(f"world pattern indices not contiguous: {indices}")
    patterns = np.stack([state[f"world/pattern_{k}"] for k in indices])
    token_ids = tuple(int(v) for v in state["world/token_ids"])
    noise_scale = float(state["world/noise_scale"])
    return ToyWorld(token_ids=token_ids, patterns=patterns, noise_scale=noise_scale)
