import os
import struct

import numpy as np
import pytest

from rewardtune import tensorad as ta
from rewardtune.models import (
    CHECKPOINT_MAGIC,
    CheckpointError,
    DenoiserParams,
    ImageEncoderParams,
    ModelConfig,
    TextEncoderParams,
    denoise,
    deserialize_state,
    image_encode,
    init_denoiser,
    init_image_encoder,
    init_text_encoder,
    load_checkpoint,
    save_checkpoint,
    serialize_state,
    state_digest,
    text_encode,
)
from rewardtune.tensorad import Tensor

SMALL = ModelConfig(d=6, c_width=4, e_width=3, vocab=5, hidden=7, t_embed=4)


def _zero_text(cfg=ModelConfig()):
    return TextEncoderParams(
        embed=Tensor(np.zeros((cfg.vocab, cfg.e_width))),
        w1=Tensor(np.zeros((cfg.e_width, cfg.hidden))),
        b1=Tensor(np.zeros(cfg.hidden)),
        w2=Tensor(np.zeros((cfg.hidden, cfg.c_width))),
        b2=Tensor(np.zeros(cfg.c_width)),
    )


def _rel(a, b):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    return np.abs(a - b) / np.maximum(np.abs(b), 1e-6)


class TestTextEncode:
    def test_zero_params_give_zero_vector(self):
        c = text_encode(_zero_text(), [3, 1, 4])
        assert np.array_equal(c.data, np.zeros(8, dtype=np.float32))

    def test_output_width_fixed_regardless_of_length(self):
        params = init_text_encoder(0)
        for prompt in ([2], [2, 5], [2, 5, 9, 11, 30]):
            assert text_encode(params, prompt).data.shape == (8,)

    def test_pooling_is_permutation_invariant(self):
        params = init_text_encoder(1)
        a = text_encode(params, [3, 1, 4]).data
        b = text_encode(params, [4, 3, 1]).data
        assert np.array_equal(a, b)

    def test_repeated_identical_tokens_match_single(self):
        params = init_text_encoder(2)
        one = text_encode(params, [7]).data
        three = text_encode(params, [7, 7, 7]).data
        assert np.allclose(one, three, atol=1e-6)

    def test_empty_prompt_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            text_encode(init_text_encoder(0), [])

    def test_out_of_vocab_rejected(self):
        params = init_text_encoder(0)
        with pytest.raises(ValueError, match="vocabulary"):
            text_encode(params, [32])
        with pytest.raises(ValueError, match="vocabulary"):
            text_encode(params, [1, -1])

    def test_gradient_matches_finite_differences(self):
        with ta.default_dtype(np.float64):
            params = init_text_encoder(5, SMALL)
            params.set_requires_grad(True)
            weights = Tensor(np.linspace(0.5, 1.5, SMALL.c_width))

            def run(p):
                tp = TextEncoderParams(**{f: p[f"text/{f}"] for f in
                                          ("embed", "w1", "b1", "w2", "b2")})
                return ta.dot(text_encode(tp, [3, 1, 4]), weights)

            fd = ta.finite_diff_grad(run, params.named(), h=1e-4)
            tape = ta.Tape()
            with tape:
                loss = run(params.named())
            ta.backward(tape, loss)
            for name, t in params.named().items():
                mask = np.abs(fd[name]) > 1e-7
                if mask.any():
                    assert _rel(t.grad[mask], fd[name][mask]).max() < 1e-3, name

    def test_unused_embedding_rows_get_zero_grad(self):
        params = init_text_encoder(6, SMALL)
        params.set_requires_grad(True)
        tape = ta.Tape()
        with tape:
            loss = ta.tensor_sum(text_encode(params, [2]))
        ta.backward(tape, loss)
        g = params.embed.grad
        assert np.any(g[2] != 0)
        untouched = [i for i in range(SMALL.vocab) if i != 2]
        assert np.array_equal(g[untouched], np.zeros((len(untouched), SMALL.e_width), np.float32))


class TestImageEncode:
    def test_zero_params_give_zero_vector(self):
        cfg = ModelConfig()
        params = ImageEncoderParams(
            w1=Tensor(np.zeros((cfg.d, cfg.hidden))),
            b1=Tensor(np.zeros(cfg.hidden)),
            w2=Tensor(np.zeros((cfg.hidden, cfg.c_width))),
            b2=Tensor(np.zeros(cfg.c_width)),
        )
        out = image_encode(params, Tensor(np.ones(cfg.d)))
        assert np.array_equal(out.data, np.zeros(cfg.c_width, dtype=np.float32))

    def test_first_layer_preactivation_is_linear(self):
        params = init_image_encoder(3)
        x = Tensor(np.linspace(-1.0, 1.0, 16))
        x2 = Tensor(2.0 * np.linspace(-1.0, 1.0, 16))
        pre1 = ta.matmul(x, params.w1).data
        pre2 = ta.matmul(x2, params.w1).data
        assert np.allclose(pre2, 2.0 * pre1, atol=1e-6)

    def test_width_mismatch_rejected(self):
        params = init_image_encoder(0)
        with pytest.raises(ValueError, match="width"):
            image_encode(params, Tensor(np.ones(7)))

    def test_output_width(self):
        params = init_image_encoder(0)
        assert image_encode(params, Tensor(np.ones(16))).data.shape == (8,)


class TestDenoise:
    def test_zero_params_give_zero_output(self):
        cfg = ModelConfig()
        in_w = cfg.d + cfg.t_embed + cfg.c_width
        params = DenoiserParams(
            w1=Tensor(np.zeros((in_w, cfg.hidden))),
            b1=Tensor(np.zeros(cfg.hidden)),
            w2=Tensor(np.zeros((cfg.hidden, cfg.hidden))),
            b2=Tensor(np.zeros(cfg.hidden)),
            w3=Tensor(np.zeros((cfg.hidden, cfg.d))),
            b3=Tensor(np.zeros(cfg.d)),
            null_cond=Tensor(np.zeros(cfg.c_width)),
        )
        out = denoise(params, 500, Tensor(np.ones(cfg.d)), Tensor(np.ones(cfg.c_width)))
        assert np.array_equal(out.data, np.zeros(cfg.d, dtype=np.float32))

    def test_same_inputs_twice_identical(self):
        params = init_denoiser(9)
        z = Tensor(np.random.default_rng(0).standard_normal(16))
        c = Tensor(np.random.default_rng(1).standard_normal(8))
        a = denoise(params, 123, z, c).data
        b = denoise(params, 123, z, c).data
        assert np.array_equal(a, b)

    def test_shape_and_width_checks(self):
        params = init_denoiser(0)
        z = Tensor(np.zeros(16))
        c = Tensor(np.zeros(8))
        with pytest.raises(ValueError, match="z_t width"):
            denoise(params, 0, Tensor(np.zeros(4)), c)
        with pytest.raises(ValueError, match="conditioning width"):
            denoise(params, 0, z, Tensor(np.zeros(3)))
        assert denoise(params, 0, z, c).data.shape == (16,)

    def test_derived_size_properties(self):
        params = init_denoiser(0, SMALL)
        assert params.d == SMALL.d
        assert params.c_width == SMALL.c_width
        assert params.t_embed == SMALL.t_embed

    def test_conditioning_reaches_output(self):
        # gradient flows from the denoiser output back into the text encoder
        text = init_text_encoder(11, SMALL)
        den = init_denoiser(12, SMALL)
        text.set_requires_grad(True)
        z = Tensor(np.random.default_rng(2).standard_normal(SMALL.d))
        tape = ta.Tape()
        with tape:
            c = text_encode(text, [1, 3])
            eps = denoise(den, 42, z, c)
            loss = ta.tensor_sum(eps)
        ta.backward(tape, loss)
        assert np.any(text.w1.grad != 0)
        assert np.any(text.embed.grad[1] != 0)

    def test_gradient_matches_finite_differences(self):
        with ta.default_dtype(np.float64):
            params = init_denoiser(13, SMALL)
            params.set_requires_grad(True)
            rng = np.random.default_rng(3)
            named = dict(params.named())
            named["z"] = Tensor(rng.standard_normal(SMALL.d), requires_grad=True)
            named["c"] = Tensor(rng.standard_normal(SMALL.c_width), requires_grad=True)
            weights = Tensor(np.linspace(0.5, 1.5, SMALL.d))
            dfields = ("w1", "b1", "w2", "b2", "w3", "b3", "null_cond")

            def run(p):
                dp = DenoiserParams(**{f: p[f"denoiser/{f}"] for f in dfields})
                return ta.dot(denoise(dp, 17, p["z"], p["c"]), weights)

            fd = ta.finite_diff_grad(run, named, h=1e-4)
            tape = ta.Tape()
            with tape:
                loss = run(named)
            ta.backward(tape, loss)
            for name, t in named.items():
                mask = np.abs(fd[name]) > 1e-7
                if mask.any():
                    assert _rel(t.grad[mask], fd[name][mask]).max() < 1e-3, name


class TestInitialization:
    def test_same_seed_same_parameters(self):
        a = init_text_encoder(42).state()
        b = init_text_encoder(42).state()
        for k in a:
            assert np.array_equal(a[k], b[k])

    def test_different_seed_different_parameters(self):
        a = init_denoiser(1).state()
        b = init_denoiser(2).state()
        assert any(not np.array_equal(a[k], b[k]) for k in a)

    def test_biases_start_at_zero(self):
        params = init_denoiser(5)
        for name in ("b1", "b2", "b3"):
            assert not np.any(getattr(params, name).data)

    def test_fan_in_bounds(self):
        params = init_text_encoder(7)
        assert np.abs(params.w1.data).max() <= 1.0 / np.sqrt(8)
        assert np.abs(params.w2.data).max() <= 1.0 / np.sqrt(64)


class TestCheckpoint:
    def _random_state(self, seed=0):
        rng = np.random.default_rng(seed)
        return {
            "denoiser/w1": rng.standard_normal((5, 3)).astype(np.float32),
            "text/embed": rng.standard_normal((4, 2)).astype(np.float32),
            "text/b1": np.zeros(3, dtype=np.float32),
        }

    def test_round_trip_bit_exact(self, tmp_path):
        state = self._random_state()
        path = tmp_path / "ck.rcpt"
        save_checkpoint(state, path)
        back = load_checkpoint(path)
        assert sorted(back) == sorted(state)
        for k in state:
            assert back[k].dtype == np.float32
            assert back[k].shape == state[k].shape
            assert back[k].tobytes() == state[k].tobytes()

    def test_empty_state_is_twelve_byte_header(self, tmp_path):
        path = tmp_path / "empty.rcpt"
        save_checkpoint({}, path)
        blob = path.read_bytes()
        assert len(blob) == 12
        assert blob[:4] == CHECKPOINT_MAGIC
        assert load_checkpoint(path) == {}

    def test_names_sorted_in_file(self):
        state = {"zzz": np.zeros(1, np.float32), "aaa": np.ones(1, np.float32)}
        blob = serialize_state(state)
        assert blob.index(b"aaa") < blob.index(b"zzz")

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.rcpt"
        path.write_bytes(b"NOPE" + b"\x00" * 8)
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(path)

    def test_truncated_rejected(self, tmp_path):
        state = self._random_state()
        blob = serialize_state(state)
        path = tmp_path / "trunc.rcpt"
        path.write_bytes(blob[:-3])
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(path)
        path.write_bytes(blob[:8])
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(path)

    def test_trailing_bytes_rejected(self):
        blob = serialize_state({"a": np.zeros(2, np.float32)}) + b"\x00"
        with pytest.raises(CheckpointError, match="trailing"):
            deserialize_state(blob)

    def test_duplicate_names_rejected(self):
        entry = serialize_state({"dup": np.zeros(1, np.float32)})[12:]
        blob = CHECKPOINT_MAGIC + struct.pack("<II", 1, 2) + entry + entry
        with pytest.raises(CheckpointError, match="duplicate"):
            deserialize_state(blob)

    def test_unknown_version_rejected(self):
        blob = CHECKPOINT_MAGIC + struct.pack("<II", 99, 0)
        with pytest.raises(CheckpointError, match="version"):
            deserialize_state(blob)

    def test_non_utf8_name_rejected(self):
        blob = serialize_state({"ab": np.zeros(1, np.float32)})
        bad = blob.replace(b"ab", b"\xff\xfe", 1)
        with pytest.raises(CheckpointError, match="UTF-8"):
            deserialize_state(bad)

    @staticmethod
    def _one_entry_blob(dims):
        """A one-entry checkpoint declaring ``dims`` but carrying no data."""
        head = struct.pack("<I", 1) + b"x" + struct.pack("<I", len(dims))
        return (CHECKPOINT_MAGIC + struct.pack("<II", 1, 1) + head
                + b"".join(struct.pack("<I", d) for d in dims))

    @pytest.mark.parametrize("dims,match", [
        ((1,) * 70, "70 dimensions"),
        # 2**64 elements: the product wraps to 0 in int64
        ((2 ** 21, 2 ** 21, 2 ** 22), "truncated"),
        ((0, 2 ** 32 - 1, 2 ** 32 - 1, 2 ** 32 - 1), "bad shape"),
    ])
    def test_impossible_shape_rejected(self, dims, match):
        with pytest.raises(CheckpointError, match=match):
            deserialize_state(self._one_entry_blob(dims))

    def test_mutated_blobs_raise_only_checkpoint_error(self):
        good = serialize_state({"a/b": np.arange(6, dtype=np.float32).reshape(2, 3),
                                "c": np.float32(1.0)})
        rng = np.random.default_rng(0)
        for _ in range(3000):
            blob = bytearray(good)
            for _ in range(rng.integers(1, 4)):
                blob[rng.integers(0, len(blob))] = rng.integers(0, 256)
            if rng.random() < 0.3:
                blob = blob[:rng.integers(0, len(blob))]
            try:
                deserialize_state(bytes(blob))
            except CheckpointError:
                pass

    def test_failed_save_keeps_earlier_file(self, tmp_path, monkeypatch):
        path = tmp_path / "ck.rcpt"
        save_checkpoint(self._random_state(0), path)
        before = path.read_bytes()

        def failing_replace(src, dst):
            raise OSError("replace failed")

        monkeypatch.setattr(os, "replace", failing_replace)
        with pytest.raises(OSError, match="replace failed"):
            save_checkpoint(self._random_state(1), path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["ck.rcpt"]

    def test_zero_and_single_element_tensors(self, tmp_path):
        state = {
            "zeros": np.zeros((3, 2), dtype=np.float32),
            "one_elem": np.asarray([2.5], dtype=np.float32),
            "scalar": np.asarray(7.0, dtype=np.float32),
        }
        path = tmp_path / "edge.rcpt"
        save_checkpoint(state, path)
        back = load_checkpoint(path)
        assert back["zeros"].shape == (3, 2) and not back["zeros"].any()
        assert back["one_elem"].shape == (1,) and back["one_elem"][0] == 2.5
        assert back["scalar"].shape == () and float(back["scalar"]) == 7.0

    def test_accepts_tensors_and_float64(self, tmp_path):
        state = {"t": Tensor(np.asarray([1.0, 2.0])), "d": np.asarray([3.0], dtype=np.float64)}
        path = tmp_path / "mixed.rcpt"
        save_checkpoint(state, path)
        back = load_checkpoint(path)
        assert back["t"].dtype == np.float32
        assert np.array_equal(back["d"], np.asarray([3.0], dtype=np.float32))

    def test_full_model_round_trip(self, tmp_path):
        text = init_text_encoder(1)
        image = init_image_encoder(2)
        den = init_denoiser(3)
        state = {**text.state(), **image.state(), **den.state()}
        path = tmp_path / "model.rcpt"
        save_checkpoint(state, path)
        back = load_checkpoint(path)
        text2 = TextEncoderParams.from_state(back)
        den2 = DenoiserParams.from_state(back)
        for k, v in text.state().items():
            assert np.array_equal(text2.state()[k], v)
        c = text_encode(text2, [3, 1, 4])
        assert np.array_equal(c.data, text_encode(text, [3, 1, 4]).data)
        e = denoise(den2, 10, Tensor(np.ones(16)), c)
        assert np.array_equal(e.data, denoise(den, 10, Tensor(np.ones(16)), c).data)
        assert state_digest(back) == state_digest(state)

    def test_from_state_missing_key(self):
        with pytest.raises(KeyError, match="text/embed"):
            TextEncoderParams.from_state({})

    @pytest.mark.parametrize("key,cut", [
        ("denoiser/w1", np.s_[:, :-1]),      # one column short
        ("denoiser/b3", np.s_[:-1]),
        ("denoiser/w2", np.s_[:-1, :]),
        ("text/embed", np.s_[0]),            # wrong rank
        ("image/b1", np.s_[1:]),
    ])
    def test_from_state_names_mismatched_shape(self, key, cut):
        state = {**init_text_encoder(1).state(), **init_image_encoder(2).state(),
                 **init_denoiser(3).state()}
        state[key] = state[key][cut]
        cls = {"text": TextEncoderParams, "image": ImageEncoderParams,
               "denoiser": DenoiserParams}[key.split("/")[0]]
        with pytest.raises(CheckpointError, match=f"entry '{key}' has shape"):
            cls.from_state(state)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_from_state_names_non_finite_entry(self, value):
        state = init_text_encoder(1).state()
        b2 = state["text/b2"].copy()
        b2[3] = value
        state["text/b2"] = b2
        with pytest.raises(CheckpointError, match="entry 'text/b2' holds a non-finite"):
            TextEncoderParams.from_state(state)

    def test_from_state_accepts_other_model_widths(self):
        den = init_denoiser(3, SMALL)
        back = DenoiserParams.from_state(den.state())
        assert (back.d, back.c_width, back.t_embed) == (SMALL.d, SMALL.c_width, SMALL.t_embed)

    def test_digest_sensitive_to_values(self):
        a = {"x": np.zeros(3, np.float32)}
        b = {"x": np.asarray([0.0, 0.0, 1e-7], np.float32)}
        assert state_digest(a) != state_digest(b)
        assert state_digest(a) == state_digest({"x": np.zeros(3, np.float32)})
