"""The three toy networks and the binary checkpoint format.

Text encoder T(p) -> conditioning c, frozen image encoder I(x) -> embedding,
and the conditional denoiser eps(t, z_t, c) with a learned null-conditioning
vector. All are small dense stacks over the autodiff ops, sized so the full
denoising chain backprop runs in seconds.
"""

from __future__ import annotations

import hashlib
import math
import os
import struct
from collections import Counter
from dataclasses import dataclass, fields

import numpy as np

from . import tensorad as ta
from .tensorad import Tensor


@dataclass(frozen=True)
class ModelConfig:
    d: int = 16          # data width (4x4 toy "image")
    c_width: int = 8     # conditioning width
    e_width: int = 8     # token embedding width
    vocab: int = 32
    hidden: int = 64
    t_embed: int = 8


class _ParamSet:
    """Shared plumbing: named tensors, state packing, trainability.

    ``dims`` gives each field's shape as one letter per axis; a letter names
    one width, which every field using it must share.
    """

    prefix = ""
    dims = {}

    def named(self):
        return {f"{self.prefix}/{f.name}": getattr(self, f.name) for f in fields(self)}

    def tensors(self):
        return tuple(getattr(self, f.name) for f in fields(self))

    def state(self):
        return {name: t.data for name, t in self.named().items()}

    @classmethod
    def from_state(cls, state, requires_grad=False):
        """Build from a merged state. Raises KeyError for a missing entry and
        CheckpointError naming an entry that holds a non-finite value or whose
        shape disagrees with the widths most of the set's entries agree on."""
        vals = {}
        for f in fields(cls):
            key = f"{cls.prefix}/{f.name}"
            if key not in state:
                raise KeyError(f"checkpoint missing entry '{key}'")
            vals[f.name] = Tensor(state[key], requires_grad=requires_grad)
            if not np.all(np.isfinite(vals[f.name].data)):
                raise CheckpointError(f"checkpoint entry '{key}' holds a non-finite value")
        votes = {}
        for name, t in vals.items():
            if t.data.ndim == len(cls.dims[name]):
                for letter, n in zip(cls.dims[name], t.data.shape):
                    votes.setdefault(letter, Counter())[n] += 1
        for name, t in vals.items():
            want = [votes[letter].most_common(1)[0][0] if letter in votes else letter
                    for letter in cls.dims[name]]
            if list(t.data.shape) != want:
                raise CheckpointError(
                    f"checkpoint entry '{cls.prefix}/{name}' has shape {t.data.shape}; "
                    f"the other '{cls.prefix}/' entries need ({', '.join(map(str, want))})")
        return cls(**vals)

    def set_requires_grad(self, flag):
        for f in fields(self):
            t = getattr(self, f.name)
            setattr(self, f.name, Tensor(t.data, requires_grad=flag))

    def apply_update(self, updated):
        """Replace parameter tensors from a name -> Tensor mapping."""
        for name, t in updated.items():
            field = name.split("/", 1)[1]
            setattr(self, field, t)


class ParamBag:
    """Ad-hoc named tensor collection with the optimizer-facing interface."""

    def __init__(self, tensors):
        self._tensors = dict(tensors)

    def named(self):
        return dict(self._tensors)

    def apply_update(self, updated):
        for name, t in updated.items():
            if name not in self._tensors:
                raise KeyError(f"unknown parameter '{name}'")
            self._tensors[name] = t

    def __getitem__(self, name):
        return self._tensors[name]


@dataclass
class TextEncoderParams(_ParamSet):
    embed: Tensor  # (V, E)
    w1: Tensor     # (E, H)
    b1: Tensor     # (H,)
    w2: Tensor     # (H, C)
    b2: Tensor     # (C,)

    prefix = "text"
    dims = {"embed": "VE", "w1": "EH", "b1": "H", "w2": "HC", "b2": "C"}


@dataclass
class ImageEncoderParams(_ParamSet):
    w1: Tensor  # (D, H)
    b1: Tensor
    w2: Tensor  # (H, C)
    b2: Tensor

    prefix = "image"
    dims = {"w1": "DH", "b1": "H", "w2": "HC", "b2": "C"}


@dataclass
class DenoiserParams(_ParamSet):
    w1: Tensor  # (D + t_embed + C, H)
    b1: Tensor
    w2: Tensor  # (H, H)
    b2: Tensor
    w3: Tensor  # (H, D)
    b3: Tensor
    null_cond: Tensor  # (C,), the learned null conditioning

    prefix = "denoiser"
    dims = {"w1": "IH", "b1": "H", "w2": "HH", "b2": "H", "w3": "HD", "b3": "D",
            "null_cond": "C"}

    @property
    def d(self):
        return self.w3.data.shape[1]

    @property
    def c_width(self):
        return self.null_cond.data.shape[0]

    @property
    def t_embed(self):
        return self.w1.data.shape[0] - self.d - self.c_width


def _uniform(rng, shape, fan_in):
    bound = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape)


def init_text_encoder(seed, cfg=ModelConfig()):
    rng = np.random.default_rng(seed)
    return TextEncoderParams(
        embed=Tensor(_uniform(rng, (cfg.vocab, cfg.e_width), cfg.e_width)),
        w1=Tensor(_uniform(rng, (cfg.e_width, cfg.hidden), cfg.e_width)),
        b1=Tensor(np.zeros(cfg.hidden)),
        w2=Tensor(_uniform(rng, (cfg.hidden, cfg.c_width), cfg.hidden)),
        b2=Tensor(np.zeros(cfg.c_width)),
    )


def init_image_encoder(seed, cfg=ModelConfig()):
    rng = np.random.default_rng(seed)
    return ImageEncoderParams(
        w1=Tensor(_uniform(rng, (cfg.d, cfg.hidden), cfg.d)),
        b1=Tensor(np.zeros(cfg.hidden)),
        w2=Tensor(_uniform(rng, (cfg.hidden, cfg.c_width), cfg.hidden)),
        b2=Tensor(np.zeros(cfg.c_width)),
    )


def init_denoiser(seed, cfg=ModelConfig()):
    rng = np.random.default_rng(seed)
    in_width = cfg.d + cfg.t_embed + cfg.c_width
    return DenoiserParams(
        w1=Tensor(_uniform(rng, (in_width, cfg.hidden), in_width)),
        b1=Tensor(np.zeros(cfg.hidden)),
        w2=Tensor(_uniform(rng, (cfg.hidden, cfg.hidden), cfg.hidden)),
        b2=Tensor(np.zeros(cfg.hidden)),
        w3=Tensor(_uniform(rng, (cfg.hidden, cfg.d), cfg.hidden)),
        b3=Tensor(np.zeros(cfg.d)),
        null_cond=Tensor(_uniform(rng, (cfg.c_width,), cfg.c_width)),
    )


# ---------------------------------------------------------------------------
# forward functions


def text_encode(params, prompt_tokens):
    """c = T(p): mean-pooled token embeddings through two dense layers."""
    tokens = list(prompt_tokens)
    if not tokens:
        raise ValueError("text_encode: empty prompt")
    vocab = params.embed.data.shape[0]
    for tok in tokens:
        if not (0 <= int(tok) < vocab):
            raise ValueError(f"text_encode: token {tok} outside vocabulary [0, {vocab})")
    # accumulate in sorted token order so pooling is exactly permutation
    # invariant (f32 addition is order-sensitive)
    ordered = sorted(int(t) for t in tokens)
    acc = ta.row(params.embed, ordered[0])
    for tok in ordered[1:]:
        acc = ta.add(acc, ta.row(params.embed, tok))
    pooled = ta.mul(acc, 1.0 / len(tokens))
    h = ta.tanh(ta.add(ta.matmul(pooled, params.w1), params.b1))
    return ta.add(ta.matmul(h, params.w2), params.b2)


def image_encode(params, x):
    """I(x): data vector to the shared embedding space."""
    if x.data.shape != (params.w1.data.shape[0],):
        raise ValueError(
            f"image_encode: expected width {params.w1.data.shape[0]}, got {x.data.shape}"
        )
    h = ta.tanh(ta.add(ta.matmul(x, params.w1), params.b1))
    return ta.add(ta.matmul(h, params.w2), params.b2)


def denoise(params, t, z_t, c):
    """eps(t, z_t, c): predicted noise, conditioned on c (or the null vector)."""
    d = params.d
    if z_t.data.shape != (d,):
        raise ValueError(f"denoise: expected z_t width {d}, got {z_t.data.shape}")
    if c.data.shape != (params.c_width,):
        raise ValueError(f"denoise: expected conditioning width {params.c_width}, got {c.data.shape}")
    temb = ta.time_embedding(t, params.t_embed)
    inp = ta.concat([z_t, temb, c])
    h1 = ta.silu(ta.add(ta.matmul(inp, params.w1), params.b1))
    h2 = ta.silu(ta.add(ta.matmul(h1, params.w2), params.b2))
    return ta.add(ta.matmul(h2, params.w3), params.b3)


# ---------------------------------------------------------------------------
# checkpoint format: magic "RCPT", version u32, count u32, then per entry
# (name_len u32, utf-8 name, ndim u32, dims u32..., f32 little-endian data),
# entries sorted lexicographically by name


CHECKPOINT_MAGIC = b"RCPT"
CHECKPOINT_VERSION = 1
CHECKPOINT_MAX_NDIM = 32  # the lowest array rank limit of supported NumPy releases


class CheckpointError(RuntimeError):
    pass


def _entry_array(value):
    arr = value.data if isinstance(value, Tensor) else np.asarray(value)
    # astype keeps 0-d shapes (ascontiguousarray would promote them to 1-d)
    return arr.astype("<f4", order="C")


def serialize_state(state):
    names = sorted(state)
    if len(names) != len(set(names)):
        raise CheckpointError("duplicate parameter names")
    out = [CHECKPOINT_MAGIC, struct.pack("<II", CHECKPOINT_VERSION, len(names))]
    for name in names:
        raw = name.encode("utf-8")
        arr = _entry_array(state[name])
        out.append(struct.pack("<I", len(raw)))
        out.append(raw)
        out.append(struct.pack("<I", arr.ndim))
        for dim in arr.shape:
            out.append(struct.pack("<I", dim))
        out.append(arr.tobytes())
    return b"".join(out)


def deserialize_state(blob):
    view = memoryview(blob)
    if len(view) < 12:
        raise CheckpointError("truncated checkpoint header")
    if bytes(view[:4]) != CHECKPOINT_MAGIC:
        raise CheckpointError("bad checkpoint magic")
    version, count = struct.unpack_from("<II", view, 4)
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}")
    offset = 12
    state = {}

    def take(n):
        nonlocal offset
        if offset + n > len(view):
            raise CheckpointError("truncated checkpoint")
        chunk = view[offset:offset + n]
        offset += n
        return chunk

    for _ in range(count):
        (name_len,) = struct.unpack("<I", take(4))
        try:
            name = bytes(take(name_len)).decode("utf-8")
        except UnicodeDecodeError:
            raise CheckpointError("checkpoint entry name is not valid UTF-8") from None
        if name in state:
            raise CheckpointError(f"duplicate checkpoint entry '{name}'")
        (ndim,) = struct.unpack("<I", take(4))
        if ndim > CHECKPOINT_MAX_NDIM:
            raise CheckpointError(f"checkpoint entry '{name}' has {ndim} dimensions "
                                  f"(max {CHECKPOINT_MAX_NDIM})")
        dims = tuple(struct.unpack("<I", take(4))[0] for _ in range(ndim))
        # Python ints, so a huge shape cannot wrap to a small byte count
        payload = take(4 * math.prod(dims))
        try:
            state[name] = np.frombuffer(payload, dtype="<f4").reshape(dims).copy()
        except ValueError:  # e.g. a zero-size shape too large for NumPy
            raise CheckpointError(f"checkpoint entry '{name}' has bad shape {dims}") from None
    if offset != len(view):
        raise CheckpointError("trailing bytes after checkpoint payload")
    return state


def save_checkpoint(state, path):
    """Write through a temporary file in the same directory, then rename it
    over ``path``, so a failed or interrupted save leaves any earlier file
    intact."""
    blob = serialize_state(state)
    tmp = f"{os.fspath(path)}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(blob)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)
    return path


def load_checkpoint(path):
    with open(path, "rb") as fh:
        blob = fh.read()
    return deserialize_state(blob)


def state_digest(state):
    """Stable content hash; used to assert parameters stayed frozen."""
    return hashlib.sha256(serialize_state(state)).hexdigest()
