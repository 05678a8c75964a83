"""Small shared helpers."""

from __future__ import annotations

import dataclasses
import zlib

import numpy as np


def derive_seed(base_seed, *parts):
    """Deterministic child seed from a base seed plus context labels.

    Stable across runs and platforms: labels are crc32-folded so strings and
    ints both work, then mixed through SeedSequence.
    """
    folded = [int(base_seed)]
    for part in parts:
        if isinstance(part, (int, np.integer)):
            folded.append(int(part))
        else:
            folded.append(zlib.crc32(str(part).encode("utf-8")))
    seq = np.random.SeedSequence(folded)
    return int(seq.generate_state(1, dtype=np.uint64)[0])


def reject_unknown_keys(cls, raw):
    """Raise ValueError naming every key of ``raw`` that is not a field of
    the dataclass ``cls``."""
    unknown = sorted(set(raw) - {f.name for f in dataclasses.fields(cls)})
    if unknown:
        raise ValueError(f"unknown config keys: {', '.join(unknown)}")
