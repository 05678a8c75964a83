import numpy as np
import pytest

from rewardtune.data import (
    PromptSet,
    all_prompts,
    load_prompts,
    make_prompt_sets,
    make_world,
    sample_pair,
    world_from_state,
    world_state,
)
from rewardtune.models import deserialize_state, serialize_state
from rewardtune.util import derive_seed


class TestWorld:
    def test_deterministic_per_seed(self):
        a = make_world(7)
        b = make_world(7)
        assert a.patterns.tobytes() == b.patterns.tobytes()
        assert make_world(8).patterns.tobytes() != a.patterns.tobytes()

    def test_shapes_and_defaults(self):
        w = make_world(0)
        assert w.a == 8 and w.d == 16
        assert w.patterns.shape == (8, 16)
        assert w.patterns.dtype == np.float32
        assert w.token_ids == tuple(range(8))

    def test_patterns_unit_norm(self):
        w = make_world(3)
        norms = np.linalg.norm(w.patterns, axis=1)
        assert np.allclose(norms, 1.0, atol=1e-6)

    def test_separability(self):
        for seed in range(6):
            p = make_world(seed).patterns.astype(np.float64)
            gram = p @ p.T
            np.fill_diagonal(gram, 0.0)
            assert gram.max() < 0.5

    def test_bad_sizes(self):
        with pytest.raises(ValueError):
            make_world(0, a=0)

    def test_pattern_sum_oracle(self):
        w = make_world(1)
        got = w.pattern_sum((2, 5))
        want = (w.patterns[2].astype(np.float64) + w.patterns[5]).astype(np.float32)
        assert np.array_equal(got, want)
        with pytest.raises(ValueError, match="not an attribute"):
            w.pattern_sum((99,))
        with pytest.raises(ValueError, match="empty"):
            w.pattern_sum(())

    def test_pattern_sum_rejects_a_repeated_token(self):
        w = make_world(1)
        with pytest.raises(ValueError, match="^prompt 2 5 2 repeats a token$"):
            w.pattern_sum((2, 5, 2))
        with pytest.raises(ValueError, match="token 99 is not an attribute"):
            w.pattern_sum((99, 99))


class TestSamplePair:
    def test_noise_free_single_attribute_equals_pattern(self):
        w = make_world(2, noise_scale=0.0)
        rng = np.random.default_rng(0)
        seen_single = False
        for _ in range(50):
            x, prompt = sample_pair(w, rng)
            assert 1 <= len(prompt) <= 3
            assert len(set(prompt)) == len(prompt)
            assert np.array_equal(x, w.pattern_sum(prompt))
            if len(prompt) == 1:
                seen_single = True
                assert np.array_equal(x, w.patterns[prompt[0]])
        assert seen_single

    def test_noise_free_pair_equals_vector_sum(self):
        w = make_world(4, noise_scale=0.0)
        rng = np.random.default_rng(1)
        for _ in range(50):
            x, prompt = sample_pair(w, rng)
            if len(prompt) == 2:
                i, j = prompt
                want = (w.patterns[i].astype(np.float64) + w.patterns[j]).astype(np.float32)
                assert np.array_equal(x, want)
                return
        pytest.fail("no length-2 prompt drawn in 50 samples")

    def test_noise_perturbs_at_configured_scale(self):
        w = make_world(5, noise_scale=0.1)
        rng = np.random.default_rng(2)
        devs = []
        for _ in range(200):
            x, prompt = sample_pair(w, rng)
            devs.append(x - w.pattern_sum(prompt))
        std = np.concatenate(devs).std()
        assert 0.08 < std < 0.12

    def test_seeded_stream_reproducible(self):
        w = make_world(6)
        a = [sample_pair(w, np.random.default_rng(9)) for _ in range(5)]
        b = [sample_pair(w, np.random.default_rng(9)) for _ in range(5)]
        for (xa, pa), (xb, pb) in zip(a, b):
            assert pa == pb
            assert np.array_equal(xa, xb)


class TestPromptSets:
    def test_total_combination_count(self):
        # 8 attributes: C(8,1) + C(8,2) + C(8,3) = 8 + 28 + 56
        assert len(all_prompts(make_world(0))) == 92

    def test_disjoint_and_sized(self):
        w = make_world(0)
        train, holdout = make_prompt_sets(w, n_train=48, n_holdout=36, seed=123)
        assert len(train) == 48 and len(holdout) == 36
        assert train.split == "train" and holdout.split == "holdout"
        assert not set(train.prompts) & set(holdout.prompts)
        for p in list(train) + list(holdout):
            assert 1 <= len(p) <= 3

    def test_deterministic_split(self):
        w = make_world(0)
        a = make_prompt_sets(w, 10, 10, seed=5)
        b = make_prompt_sets(w, 10, 10, seed=5)
        assert a[0].prompts == b[0].prompts and a[1].prompts == b[1].prompts
        c = make_prompt_sets(w, 10, 10, seed=6)
        assert c[0].prompts != a[0].prompts

    def test_oversized_request_rejected(self):
        with pytest.raises(ValueError, match="92"):
            make_prompt_sets(make_world(0), 60, 40, seed=0)
        with pytest.raises(ValueError, match="positive"):
            make_prompt_sets(make_world(0), 0, 5, seed=0)


class TestLoadPrompts:
    def test_basic_file(self, tmp_path):
        path = tmp_path / "p.txt"
        path.write_text("3 1 4\n2 7\n")
        ps = load_prompts(path)
        assert ps.prompts == ((3, 1, 4), (2, 7))
        assert ps.split == "file"

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "p.txt"
        path.write_text("\n3 1 4\n\n2 7\n   \n")
        assert load_prompts(path).prompts == ((3, 1, 4), (2, 7))

    def test_non_integer_token(self, tmp_path):
        path = tmp_path / "p.txt"
        path.write_text("abc\n")
        with pytest.raises(ValueError, match="line 1"):
            load_prompts(path)

    def test_error_line_number_counts_real_lines(self, tmp_path):
        path = tmp_path / "p.txt"
        path.write_text("1 2\n\n3 x\n")
        with pytest.raises(ValueError, match="line 3"):
            load_prompts(path)

    def test_out_of_vocab_token(self, tmp_path):
        path = tmp_path / "p.txt"
        path.write_text("1 2\n5 32\n")
        with pytest.raises(ValueError, match="line 2.*32"):
            load_prompts(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "p.txt"
        path.write_text("")
        with pytest.raises(ValueError, match="no prompts"):
            load_prompts(path)
        path.write_text("\n\n")
        with pytest.raises(ValueError, match="no prompts"):
            load_prompts(path)


class TestWorldPersistence:
    def test_state_round_trip(self):
        w = make_world(11, noise_scale=0.25)
        back = world_from_state(world_state(w))
        assert back.token_ids == w.token_ids
        assert back.noise_scale == w.noise_scale
        assert np.array_equal(back.patterns, w.patterns)

    def test_through_checkpoint_bytes(self):
        w = make_world(12)
        blob = serialize_state(world_state(w))
        back = world_from_state(deserialize_state(blob))
        assert back.patterns.tobytes() == w.patterns.tobytes()

    def test_reserved_names(self):
        state = world_state(make_world(0))
        assert {f"world/pattern_{k}" for k in range(8)} <= set(state)
        assert state["world/pattern_0"].shape == (16,)

    def test_missing_patterns_rejected(self):
        with pytest.raises(ValueError, match="no world patterns"):
            world_from_state({})
        state = world_state(make_world(0))
        del state["world/pattern_3"]
        with pytest.raises(ValueError, match="contiguous"):
            world_from_state(state)


class TestDeriveSeed:
    def test_stable_and_distinct(self):
        assert derive_seed(42, "cell", 5, 10) == derive_seed(42, "cell", 5, 10)
        assert derive_seed(42, "cell", 5, 10) != derive_seed(42, "cell", 5, 11)
        assert derive_seed(42, "a") != derive_seed(43, "a")
        assert derive_seed(1, "x") != derive_seed(1, "y")

    def test_returns_plain_int(self):
        s = derive_seed(0, "k")
        assert isinstance(s, int) and s >= 0
