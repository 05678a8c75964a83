"""Small shared helpers: seeds, config keys and the one text-file writer."""

from __future__ import annotations

import dataclasses
import sys
import zlib

import numpy as np


def derive_seed(base_seed, *parts):
    """Deterministic child seed from a base seed plus context labels.

    Stable across runs and platforms: labels are crc32-folded so strings and
    ints both work, then mixed through SeedSequence. The one seed rule: every
    seed a flag or config gives must be a non-negative integer.
    """
    folded = [int(base_seed)]
    if folded[0] < 0:
        raise ValueError(f"seed must be a non-negative integer, got {folded[0]}")
    for part in parts:
        if isinstance(part, (int, np.integer)):
            folded.append(int(part))
        else:
            folded.append(zlib.crc32(str(part).encode("utf-8")))
    seq = np.random.SeedSequence(folded)
    return int(seq.generate_state(1, dtype=np.uint64)[0])


def is_number(value, kind=float):
    """The one number rule of configs and flags: an int or a float, never a bool,
    finite in float range (so never NaN), and an int when ``kind`` is ``int``."""
    if isinstance(value, bool) or not isinstance(value, int if kind is int else (int, float)):
        return False
    return kind is int or abs(value) <= sys.float_info.max


# field annotation -> (accepted type, what the message says a value must be)
_CONFIG_TYPES = {"int": (int, "an integer"), "float": (float, "a number"),
                 "str": (str, "a string")}


def check_config(cls, raw):
    """Check a parsed JSON config against the fields of the dataclass
    ``cls`` before anything uses it: a ValueError names every key of ``raw``
    that is not a field, or the first value whose type its field's
    annotation does not take. An ``int`` or ``float`` field takes what
    ``is_number`` takes of that kind, a ``str`` field a string; ``... | None``
    also takes None. A field of another type is left to its own parser."""
    annotations = {f.name: str(f.type) for f in dataclasses.fields(cls)}
    unknown = sorted(set(raw) - set(annotations))
    if unknown:
        raise ValueError(f"unknown config keys: {', '.join(unknown)}")
    for name, value in raw.items():
        kind, _, rest = annotations[name].partition(" | ")
        if kind not in _CONFIG_TYPES or (value is None and rest == "None"):
            continue
        want, what = _CONFIG_TYPES[kind]
        if not (isinstance(value, str) if want is str else is_number(value, want)):
            raise ValueError(f"config field '{name}' must be {what}, got {value!r}")


def format_cell(value):
    """One table or CSV cell: bools and ints as written, floats to 10
    significant digits, anything else through ``str``."""
    if isinstance(value, (bool, np.bool_)):
        return str(bool(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.10g}"
    return str(value)


def csv_text(header, rows):
    """Header line plus one ``format_cell`` line per row, newline-terminated."""
    lines = [",".join(header)]
    lines.extend(",".join(format_cell(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def write_text(path, text):
    """Write ``text`` to ``path`` as UTF-8 with ``\\n`` line ends; returns the path."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    return path
