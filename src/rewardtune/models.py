"""The three toy networks and the binary checkpoint format.

Text encoder T(p) -> conditioning c, frozen image encoder I(x) -> embedding,
and the conditional denoiser eps(t, z_t, c) with a learned null-conditioning
vector. Each is one small dense stack, a single ``tensorad.mlp`` node (the
text encoder adds one token-pooling node), sized so the full denoising
chain backprop runs in seconds. Every forward takes one input or a (B, ·)
batch of rows, and row i of a batch gets the bits that row alone gets.
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
from .data import world_from_state, world_state
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

    ``dims`` is the one description of the set's layout: each field's shape
    as one letter per axis, where a letter names one width, which every field
    using it must share. ``init`` draws from it and ``from_state`` checks
    against it.
    """

    prefix = ""
    dims = {}

    @classmethod
    def init(cls, seed, cfg=ModelConfig()):
        """A fresh set at ``cfg``'s widths, its fields drawn in field order
        from ``default_rng(seed)``: a ``b*`` field is zeros, every other field
        uniform in +-1/sqrt(fan-in), where fan-in is its first axis
        (``embed``'s is its width)."""
        widths = {"V": cfg.vocab, "E": cfg.e_width, "H": cfg.hidden, "C": cfg.c_width,
                  "D": cfg.d, "I": cfg.d + cfg.t_embed + cfg.c_width}  # I: denoiser input
        rng = np.random.default_rng(seed)
        vals = {}
        for f in fields(cls):
            shape = tuple(widths[letter] for letter in cls.dims[f.name])
            if f.name.startswith("b"):
                vals[f.name] = Tensor(np.zeros(shape))
            else:
                bound = 1.0 / np.sqrt(shape[-1] if f.name == "embed" else shape[0])
                vals[f.name] = Tensor(rng.uniform(-bound, bound, size=shape))
        return cls(**vals)

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
        """Replace each tensor of the set by its entry in ``updated`` (name ->
        Tensor, as ``optimizer_step`` returns), which may hold other sets' too."""
        for f in fields(self):
            setattr(self, f.name, updated[f"{self.prefix}/{f.name}"])


@dataclass
class TextEncoderParams(_ParamSet):
    embed: Tensor
    w1: Tensor
    b1: Tensor
    w2: Tensor
    b2: Tensor

    prefix = "text"
    dims = {"embed": "VE", "w1": "EH", "b1": "H", "w2": "HC", "b2": "C"}


@dataclass
class ImageEncoderParams(_ParamSet):
    w1: Tensor
    b1: Tensor
    w2: Tensor
    b2: Tensor

    prefix = "image"
    dims = {"w1": "DH", "b1": "H", "w2": "HC", "b2": "C"}


@dataclass
class DenoiserParams(_ParamSet):
    w1: Tensor
    b1: Tensor
    w2: Tensor
    b2: Tensor
    w3: Tensor
    b3: Tensor
    null_cond: Tensor  # the learned null conditioning

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

    def layers(self):
        """The dense stack's ``(w, b)`` pairs, first layer first."""
        return [(self.w1, self.b1), (self.w2, self.b2), (self.w3, self.b3)]


# widths that more than one set carries, each as the entries (axis 0) that
# must agree: the conditioning width C and the data width D
_SHARED_WIDTHS = {
    "conditioning": ("text/b2", "image/b2", "denoiser/null_cond"),
    "data": ("world/pattern_0", "image/w1", "denoiser/b3"),
}


def merged_state(world, *param_sets):
    """One checkpoint state: every set's entries plus the world's."""
    return {k: v for params in param_sets for k, v in params.state().items()} | world_state(world)


def model_from_state(state):
    """(text, image, denoiser, world) from a merged state. Besides each set's
    own checks, raises CheckpointError naming both entries when two sets
    disagree on a width they share."""
    model = (TextEncoderParams.from_state(state), ImageEncoderParams.from_state(state),
             DenoiserParams.from_state(state), world_from_state(state))
    for width, (first, *others) in _SHARED_WIDTHS.items():
        for key in others:
            a, b = np.shape(state[first]), np.shape(state[key])
            if a[:1] != b[:1]:
                raise CheckpointError(
                    f"checkpoint entries '{first}' and '{key}' disagree on the {width} "
                    f"width: shapes {a} and {b}")
    return model


init_text_encoder = TextEncoderParams.init
init_image_encoder = ImageEncoderParams.init
init_denoiser = DenoiserParams.init


# ---------------------------------------------------------------------------
# forward functions


def text_encode(params, prompt_tokens):
    """c = T(p): mean-pooled token embeddings through two dense layers. The
    pooling adds the tokens in sorted order, so it is exactly permutation
    invariant (f32 addition is order-sensitive)."""
    return _text_head(params, ta.pool_tokens(params.embed, list(prompt_tokens)))


def text_encode_rows(params, prompts):
    """T(p) of each prompt in ``prompts`` as one (B, C) batch, recorded as one
    pooling node and one dense-stack node; row i gets the bits
    ``text_encode(params, prompts[i])`` gets."""
    return _text_head(params, ta.pool_tokens(params.embed, [list(p) for p in prompts]))


def _text_head(params, pooled):
    return ta.mlp([pooled], [(params.w1, params.b1), (params.w2, params.b2)], "tanh")


def image_encode(params, x):
    """I(x): data vector (D,), or a batch of them (B, D), to the shared
    embedding space. Row i of a batch gets the bits ``x[i]`` alone gets."""
    d = params.w1.data.shape[0]
    if x.data.shape[-1:] != (d,) or x.data.ndim > 2:
        raise ValueError(f"image_encode: expected width {d}, got {x.data.shape}")
    return ta.mlp([x], [(params.w1, params.b1), (params.w2, params.b2)], "tanh")


def denoise(params, t, z_t, c):
    """eps(t, z_t, c): predicted noise, conditioned on c (or the null vector).

    ``z_t`` is one latent (D,) or a batch (B, D); ``t`` is one timestep,
    shared by every row, or a sequence of one per row; ``c`` is one
    conditioning (C,), shared by every row, or one per row (B, C). Row i of
    a batch gets the bits ``denoise(params, t[i], z_t[i], c[i])`` gets.
    """
    return ta.mlp(_denoise_parts(params, t, z_t, c), params.layers(), "silu")


def _denoise_parts(params, t, z_t, c):
    """``denoise``'s checks of ``z_t``, ``c`` and ``t``; the parts of its
    dense stack's input: ``z_t``, the time embedding array and ``c``, where
    ``z_t`` and ``c`` are both Tensors or both arrays."""
    d, cw, te = params.d, params.c_width, params.t_embed
    zs, cs = z_t.shape, c.shape
    rows = zs[:-1]
    if zs != rows + (d,) or len(rows) > 1:
        raise ValueError(f"denoise: expected z_t width {d}, got {zs} (conditioning {cs})")
    c_rows = rows + (cw,)
    if cs != c_rows and cs != (cw,):
        if cs[-1:] != (cw,) or len(cs) > 2:
            raise ValueError(f"denoise: expected conditioning width {cw}, got {cs} (z_t {zs})")
        raise ValueError(f"denoise: z_t {zs} and conditioning {cs} disagree on the row count")
    temb = ta.time_embedding_array(t, te)
    if temb.shape[:-1] != rows and temb.ndim != 1:
        raise ValueError(f"denoise: {len(temb)} timesteps for z_t {zs}")
    return [z_t, temb, c]


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
