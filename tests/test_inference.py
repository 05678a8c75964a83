"""Inference tests: seeded sampling, guidance, embedding blending, sample IO."""

import dataclasses
import json
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from rewardtune import evalcli, inference
from rewardtune import tensorad as ta
from rewardtune.data import make_prompt_sets
from rewardtune.finetune import TrainConfig, run_training
from rewardtune.inference import (
    DEFAULT_LAMBDA_SWEEP,
    _noise_draw,
    continuity_probe,
    interpolate_embeddings,
    mix_styles,
    read_sample,
    sample,
    sample_from_cond,
    start_noise,
    step_table,
    walk_chain,
    write_sample,
)
from rewardtune.models import (
    DenoiserParams,
    ModelConfig,
    TextEncoderParams,
    _denoise_parts,
    denoise,
    init_text_encoder,
    text_encode,
    text_encode_rows,
)
from rewardtune.schedule import (NoiseSchedule, cfg_combine, make_schedule, make_step_plan,
                                 sampler_step)
from rewardtune.tensorad import Tensor
from rewardtune.util import derive_seed

from reference_ops import taped_step, written_out_mlp


class TestSample:
    def test_same_seed_reproduces_exactly(self, baseline_text, baseline_denoiser):
        plan = make_step_plan(10)
        a = sample(baseline_text, baseline_denoiser, (1, 2), plan, 7.5, seed=3)
        b = sample(baseline_text, baseline_denoiser, (1, 2), plan, 7.5, seed=3)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self, baseline_text, baseline_denoiser):
        plan = make_step_plan(10)
        a = sample(baseline_text, baseline_denoiser, (1, 2), plan, 7.5, seed=3)
        b = sample(baseline_text, baseline_denoiser, (1, 2), plan, 7.5, seed=4)
        assert not np.array_equal(a, b)

    def test_negative_guidance_rejected(self, baseline_text, baseline_denoiser):
        plan = make_step_plan(5)
        with pytest.raises(ValueError, match="non-negative"):
            sample(baseline_text, baseline_denoiser, (1,), plan, -0.5, seed=0)

    def test_unknown_sampler_rejected(self, baseline_text, baseline_denoiser):
        plan = make_step_plan(5)
        with pytest.raises(ValueError, match="unknown sampler"):
            sample(baseline_text, baseline_denoiser, (1,), plan, 1.0, seed=0,
                   sampler="heun")

    @pytest.mark.parametrize("w", [math.nan, math.inf])
    def test_non_finite_guidance_rejected(self, baseline_text, baseline_denoiser, w):
        # rejected at the first guided step, before a NumPy warning or a NaN
        plan = make_step_plan(5)
        with pytest.raises(ValueError, match="non-negative"):
            sample(baseline_text, baseline_denoiser, (1,), plan, w, seed=0)
        with pytest.raises(ValueError, match="non-negative"):
            continuity_probe(baseline_text, baseline_text, baseline_denoiser, (1,), plan,
                             w, seed=0)

    @pytest.mark.parametrize("w", [1e30, 1e300])
    def test_non_finite_sample_raises(self, baseline_text, baseline_denoiser, w):
        # a finite w that overflows the walk: one error naming w and the step
        # count, and no NumPy warning (the suite makes one an exception)
        plan = make_step_plan(5)
        match = "^" + re.escape(f"the sample is not finite at w={w!r} over 5 steps") + "$"
        with pytest.raises(FloatingPointError, match=match):
            sample(baseline_text, baseline_denoiser, (1, 2), plan, w, seed=0)
        with pytest.raises(FloatingPointError, match=match):
            continuity_probe(baseline_text, baseline_text, baseline_denoiser, (1, 2), plan,
                             w, seed=0)

    def test_unit_guidance_equals_conditional_only(self, baseline_text,
                                                   baseline_denoiser):
        # w=1 must skip the unconditional branch, matching a hand-rolled
        # conditional chain bit for bit
        plan = make_step_plan(8)
        sched = make_schedule("linear-beta", 1000)
        got = sample(baseline_text, baseline_denoiser, (2, 4), plan, 1.0, seed=9)
        rng = np.random.default_rng(derive_seed(9, "sample"))
        with ta.pause_recording():
            z = Tensor(rng.standard_normal(16).astype(np.float32))
            c = text_encode(baseline_text, (2, 4))
            for t, t_prev in plan.transitions():
                eps = denoise(baseline_denoiser, t, z, c)
                z = sampler_step("ddim", z, eps, t, t_prev, sched)
        assert np.array_equal(got, z.data)

    def test_zero_guidance_ignores_prompt(self, baseline_text, baseline_denoiser):
        plan = make_step_plan(8)
        a = sample(baseline_text, baseline_denoiser, (1,), plan, 0.0, seed=5)
        b = sample(baseline_text, baseline_denoiser, (6, 7), plan, 0.0, seed=5)
        assert np.array_equal(a, b)

    def test_euler_sampler_selectable(self, baseline_text, baseline_denoiser):
        plan = make_step_plan(10)
        ddim = sample(baseline_text, baseline_denoiser, (1,), plan, 1.0, seed=2)
        euler = sample(baseline_text, baseline_denoiser, (1,), plan, 1.0, seed=2,
                       sampler="euler")
        assert not np.array_equal(ddim, euler)
        assert np.linalg.norm(ddim - euler) < 2.0  # same target, nearby ends

    def test_single_attribute_prompts_land_on_pattern(self, baseline_world,
                                                      baseline_text,
                                                      baseline_denoiser):
        plan = make_step_plan(25)
        thresh = 2 * baseline_world.noise_scale * math.sqrt(baseline_world.d)
        for tok in baseline_world.token_ids:
            x = sample(baseline_text, baseline_denoiser, (tok,), plan, 1.0,
                       seed=derive_seed(500, tok))
            dist = np.linalg.norm(x - baseline_world.pattern_sum((tok,)))
            assert dist < thresh, f"prompt ({tok},): {dist:.3f}"


class TestInterpolateEmbeddings:
    def _pair(self):
        a = Tensor(np.linspace(-1.0, 1.0, 8).astype(np.float32))
        b = Tensor(np.linspace(2.0, -0.5, 8).astype(np.float32))
        return a, b

    def test_endpoints_are_bit_exact(self):
        a, b = self._pair()
        assert interpolate_embeddings(a, b, 0.0) is a
        assert interpolate_embeddings(a, b, 1.0) is b

    def test_midpoint_closed_form(self):
        a, b = self._pair()
        mid = interpolate_embeddings(a, b, 0.5)
        assert np.allclose(mid.data, 0.5 * (a.data + b.data), rtol=1e-7)

    def test_weight_range_enforced(self):
        a, b = self._pair()
        for lam in (-0.01, 1.01):
            with pytest.raises(ValueError, match=r"\[0, 1\]"):
                interpolate_embeddings(a, b, lam)

    def test_width_mismatch_rejected(self):
        a, _ = self._pair()
        with pytest.raises(ValueError, match="width mismatch"):
            interpolate_embeddings(a, Tensor(np.zeros(4, dtype=np.float32)), 0.5)

    def test_self_interpolation_is_identity(self):
        a, _ = self._pair()
        for lam in (0.0, 0.25, 0.5, 0.75, 1.0):
            out = interpolate_embeddings(a, a, lam)
            assert np.allclose(out.data, a.data, rtol=1e-6)


class TestMixStyles:
    def _embeddings(self, n=4):
        rng = np.random.default_rng(12)
        return [Tensor(rng.standard_normal(8).astype(np.float32)) for _ in range(n)]

    def test_one_hot_reproduces_input_exactly(self):
        cs = self._embeddings()
        out = mix_styles([(c, 1.0 if i == 2 else 0.0) for i, c in enumerate(cs)])
        assert np.array_equal(out.data, cs[2].data)

    def test_equal_weights_of_identical_embeddings(self):
        c = self._embeddings(1)[0]
        out = mix_styles([(c, 0.25)] * 4)
        assert np.array_equal(out.data, c.data)

    def test_general_combination_matches_numpy(self):
        cs = self._embeddings(3)
        weights = (0.2, 0.3, 0.5)
        out = mix_styles(list(zip(cs, weights)))
        want = sum(w * c.data.astype(np.float64) for c, w in zip(cs, weights))
        assert np.allclose(out.data, want.astype(np.float32), rtol=1e-7)

    def test_needs_two_entries(self):
        c = self._embeddings(1)[0]
        with pytest.raises(ValueError, match="at least 2"):
            mix_styles([(c, 1.0)])

    def test_weight_sum_enforced(self):
        cs = self._embeddings(2)
        with pytest.raises(ValueError, match="sum to 1"):
            mix_styles([(cs[0], 0.6), (cs[1], 0.5)])

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_weight_fails_the_sum(self, bad):
        cs = self._embeddings(2)
        with pytest.raises(ValueError, match="sum to 1"):
            mix_styles([(cs[0], bad), (cs[1], 0.5)])

    def test_width_mismatch_rejected(self):
        a = Tensor(np.zeros(8, dtype=np.float32))
        b = Tensor(np.zeros(4, dtype=np.float32))
        with pytest.raises(ValueError, match="width mismatch"):
            mix_styles([(a, 0.5), (b, 0.5)])


class TestContinuityProbe:
    def test_sweep_shape_and_baseline_endpoint(self, baseline_text,
                                               baseline_denoiser):
        other = init_text_encoder(99)
        plan = make_step_plan(8)
        samples, dists = continuity_probe(baseline_text, other,
                                          baseline_denoiser, (3,), plan,
                                          1.0, seed=4)
        assert len(samples) == len(DEFAULT_LAMBDA_SWEEP)
        assert len(dists) == len(DEFAULT_LAMBDA_SWEEP) - 1
        assert all(math.isfinite(d) for d in dists)
        baseline = sample(baseline_text, baseline_denoiser, (3,), plan, 1.0,
                          seed=4)
        assert np.array_equal(samples[0], baseline)
        finetuned = sample(other, baseline_denoiser, (3,), plan, 1.0, seed=4)
        assert np.array_equal(samples[-1], finetuned)


class TestSampleIO:
    def test_round_trip(self, tmp_path):
        x = np.linspace(-2, 2, 16).astype(np.float32)
        meta = {"prompt": [3, 1], "seed": 7, "weights": [0.5, 0.5],
                "rewards": {"alignment": 0.25}}
        path = str(tmp_path / "sample.f32")
        write_sample(path, x, meta)
        got, got_meta = read_sample(path)
        assert np.array_equal(got, x)
        assert got_meta == json.loads(json.dumps(meta))

    def test_file_bytes_deterministic(self, tmp_path):
        x = np.arange(4, dtype=np.float32)
        meta = {"seed": 1, "prompt": [2]}
        p1 = str(tmp_path / "a.f32")
        p2 = str(tmp_path / "b.f32")
        write_sample(p1, x, meta)
        write_sample(p2, x, meta)
        for ext in ("", ".json"):
            with open(p1 + ext, "rb") as f1, open(p2 + ext, "rb") as f2:
                assert f1.read() == f2.read()

    def test_raw_payload_is_little_endian_f32(self, tmp_path):
        x = np.array([1.0, -2.0], dtype=np.float32)
        path = str(tmp_path / "c.f32")
        write_sample(path, x, {})
        with open(path, "rb") as fh:
            raw = fh.read()
        assert raw == x.astype("<f4").tobytes()

    def test_cond_sampling_used_by_probe_matches_direct(self, baseline_text,
                                                        baseline_denoiser):
        plan = make_step_plan(6)
        with ta.pause_recording():
            cond = text_encode(baseline_text, (5,))
        a = sample_from_cond(cond, baseline_denoiser, plan, 1.0, seed=8)
        b = sample(baseline_text, baseline_denoiser, (5,), plan, 1.0, seed=8)
        assert np.array_equal(a, b)


class TestBatchedWalk:
    @pytest.mark.parametrize("batch", [1, 4])
    @pytest.mark.parametrize("w", [1.0, 3.0])
    @pytest.mark.parametrize("sampler", ["ddim", "euler"])
    def test_rows_equal_single_walks_bytewise(self, baseline_text, baseline_denoiser,
                                              sampler, w, batch):
        plan = make_step_plan(7)
        sched = make_schedule("linear-beta", 1000)
        rng = np.random.default_rng(31)
        prompts = [(1, 2), (5,), (3, 3, 7), (0, 6)][:batch]
        with ta.pause_recording():
            conds = [text_encode(baseline_text, p) for p in prompts]
        zs = rng.standard_normal((batch, 16)).astype(np.float32)
        got = walk_chain(baseline_denoiser, plan.transitions(), Tensor(zs),
                         Tensor(np.stack([c.data for c in conds])), w, sampler, sched)
        assert got.shape == (batch, 16)
        for i in range(batch):
            alone = walk_chain(baseline_denoiser, plan.transitions(), Tensor(zs[i]),
                               conds[i], w, sampler, sched)
            assert got[i].dtype == alone.dtype
            assert got[i].tobytes() == alone.tobytes(), i

    @pytest.mark.parametrize("w", [1.0, 3.0])
    def test_probe_rows_equal_sampling_each_blend(self, baseline_text, baseline_denoiser, w):
        # the sweep walks as one batch; every sample, not only the endpoints,
        # is the sample of its own blend
        other = init_text_encoder(99)
        plan = make_step_plan(6)
        lambdas = (0.0, 0.3, 0.5, 1.0)
        samples, _ = continuity_probe(baseline_text, other, baseline_denoiser, (3, 4),
                                      plan, w, seed=2, lambdas=lambdas, sampler="euler")
        with ta.pause_recording():
            c0 = text_encode(baseline_text, (3, 4))
            c1 = text_encode(other, (3, 4))
        for lam, x in zip(lambdas, samples):
            alone = sample_from_cond(interpolate_embeddings(c0, c1, lam), baseline_denoiser,
                                     plan, w, seed=2, sampler="euler")
            assert x.tobytes() == alone.tobytes(), lam

    def test_probe_checks_arguments(self, baseline_text, baseline_denoiser):
        plan = make_step_plan(3)
        with pytest.raises(ValueError, match="non-negative"):
            continuity_probe(baseline_text, baseline_text, baseline_denoiser, (1,), plan,
                             -1.0, seed=0)
        with pytest.raises(ValueError, match="unknown sampler"):
            continuity_probe(baseline_text, baseline_text, baseline_denoiser, (1,), plan,
                             1.0, seed=0, sampler="heun")
        with pytest.raises(ValueError, match="empty interpolation sweep"):
            continuity_probe(baseline_text, baseline_text, baseline_denoiser, (1,), plan,
                             1.0, seed=0, lambdas=())

    def test_start_noise_is_the_seeded_draw(self):
        rng = np.random.default_rng(derive_seed(12, "sample"))
        want = rng.standard_normal(16).astype(np.float32)
        assert start_noise(12, 16).data.tobytes() == want.tobytes()


def _stepped_walk(denoiser, transitions, z, c, w, sampler, sched):
    """``walk_chain`` written out as a detached loop of ``taped_step``."""
    with ta.pause_recording():
        for t, t_prev in transitions:
            z = taped_step(denoiser, t, t_prev, z, c, w, sampler, sched)
    return z.data


class TestWalkEqualsGuidedSteps:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("rows", [None, 4])
    @pytest.mark.parametrize("w", [0.0, 1.0, 3.0])
    @pytest.mark.parametrize("sampler", ["ddim", "euler"])
    def test_bytes_equal_stepped_loop(self, baseline_state, sampler, w, rows, dtype):
        plan = make_step_plan(9)
        rng = np.random.default_rng(17)
        prompts = [(1, 2), (5,), (3, 3, 7), (0, 6)]
        with ta.default_dtype(dtype):
            text = TextEncoderParams.from_state(baseline_state)
            den = DenoiserParams.from_state(baseline_state)
            sched = make_schedule("linear-beta", 1000)
            with ta.pause_recording():
                if rows is None:
                    z = Tensor(rng.standard_normal(16))
                    c = text_encode(text, prompts[0])
                else:
                    z = Tensor(rng.standard_normal((rows, 16)))
                    c = text_encode_rows(text, prompts[:rows])
            got = walk_chain(den, plan.transitions(), z, c, w, sampler, sched)
            want = _stepped_walk(den, plan.transitions(), z, c, w, sampler, sched)
        assert got.dtype == want.dtype == np.dtype(dtype)
        assert got.shape == want.shape == z.data.shape
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("w", [1.0, 3.0])
    def test_walk_makes_no_tensor(self, baseline_text, baseline_denoiser, monkeypatch, w):
        # the walk runs on arrays: no op is dispatched and no Tensor is built
        plan = make_step_plan(5)
        sched = make_schedule("linear-beta", 1000)
        with ta.pause_recording():
            c = text_encode(baseline_text, (1, 2))
        z = start_noise(4, 16)

        def no_tensor(*args, **kwargs):
            raise AssertionError("walk_chain built a Tensor")

        monkeypatch.setattr(Tensor, "_fill", no_tensor)
        got = walk_chain(baseline_denoiser, plan.transitions(), z, c, w, "euler", sched)
        monkeypatch.undo()
        want = _stepped_walk(baseline_denoiser, plan.transitions(), z, c, w, "euler", sched)
        assert got.tobytes() == want.tobytes()

    def test_taped_conditioning_records_nothing(self, baseline_text, baseline_denoiser):
        plan = make_step_plan(4)
        sched = make_schedule("linear-beta", 1000)
        tape = ta.Tape()
        with tape:
            c = text_encode(baseline_text, (1, 2))
            n = len(tape.nodes)
            got = walk_chain(baseline_denoiser, plan.transitions(), start_noise(3, 16), c,
                             3.0, "ddim", sched)
            assert len(tape.nodes) == n
        want = _stepped_walk(baseline_denoiser, plan.transitions(), start_noise(3, 16),
                             Tensor(c.data), 3.0, "ddim", sched)
        assert got.tobytes() == want.tobytes()


class TestWalkFailures:
    """How a walk fails: the same errors and warnings a stepped walk gives."""

    def _walk(self, den, transitions=((999, 500), (500, 0)), z=None, w=3.0,
              sampler="ddim"):
        sched = make_schedule("linear-beta", 1000)
        z = Tensor(np.ones(16)) if z is None else z
        return walk_chain(den, list(transitions), z, Tensor(np.ones(8)), w, sampler, sched)

    def test_non_finite_hidden_activation_trapped_under_debug(self, baseline_denoiser):
        den = dataclasses.replace(baseline_denoiser,
                                  b1=Tensor(np.full(baseline_denoiser.b1.shape, np.nan)))
        with ta.debug_checks(), pytest.raises(ta.AutodiffError, match="non-finite"):
            self._walk(den)
        assert np.isnan(self._walk(den)).all()

    @pytest.mark.parametrize("sampler", ["ddim", "euler"])
    def test_overflowing_product_warns(self, baseline_denoiser, sampler):
        den = dataclasses.replace(baseline_denoiser,
                                  w1=Tensor(np.full(baseline_denoiser.w1.shape, 3e38)))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(RuntimeWarning, match="overflow encountered in cast"):
                self._walk(den, z=Tensor(np.full(16, 10.0)), sampler=sampler)

    @pytest.mark.parametrize("w", [1.0, 3.0])
    @pytest.mark.parametrize("sampler", ["ddim", "euler"])
    def test_overflowing_hidden_product_warns(self, baseline_denoiser, sampler, w):
        # a hidden layer's product overflows the cast to the working dtype:
        # the exp's saturation is silenced, this cast's overflow is not
        den = dataclasses.replace(baseline_denoiser,
                                  w2=Tensor(np.full(baseline_denoiser.w2.shape, 3e38)))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(RuntimeWarning, match="overflow encountered in cast"):
                self._walk(den, w=w, sampler=sampler)

    @pytest.mark.parametrize("w", [-1.0, math.nan, math.inf])
    def test_bad_guidance_scale(self, baseline_denoiser, w):
        with pytest.raises(ValueError,
                           match="guidance scale must be finite and non-negative"):
            self._walk(baseline_denoiser, w=w)

    def test_empty_walk_checks_nothing(self, baseline_denoiser):
        assert self._walk(baseline_denoiser, transitions=(), w=-1.0).tobytes() == \
            np.ones(16, dtype=np.float32).tobytes()

    def test_unknown_sampler(self, baseline_denoiser):
        with pytest.raises(ValueError, match="unknown sampler 'heun'"):
            self._walk(baseline_denoiser, sampler="heun")

    @pytest.mark.parametrize("sampler", ["ddim", "euler"])
    @pytest.mark.parametrize("step", [(500, 500), (400, 500)])
    def test_t_prev_not_below_t(self, baseline_denoiser, sampler, step):
        t, t_prev = step
        with pytest.raises(ValueError,
                           match=rf"{sampler}_step: t_prev \({t_prev}\) must be < t \({t}\)"):
            self._walk(baseline_denoiser, transitions=((999, 500), step), sampler=sampler)

    def test_timestep_outside_schedule(self, baseline_denoiser):
        with pytest.raises(ValueError, match=r"timestep 1000 outside \[0, 1000\)"):
            self._walk(baseline_denoiser, transitions=((1000, 0),))

    def test_alpha_floor(self, baseline_denoiser):
        alpha = np.array([1.0, 0.5, 1e-3, 1e-7])
        sched = NoiseSchedule(kind="custom", t_train=4, alpha=alpha,
                              sigma=np.sqrt(1.0 - alpha**2))
        with pytest.raises(ValueError, match="alpha at t=3 is below 1e-06"):
            walk_chain(baseline_denoiser, [(3, 0)], Tensor(np.ones(16)),
                       Tensor(np.ones(8)), 1.0, "ddim", sched)

    def test_latent_width_checked_by_denoise(self, baseline_denoiser):
        with pytest.raises(ValueError, match=r"denoise: expected z_t width 16, got \(15,\)"):
            self._walk(baseline_denoiser, z=Tensor(np.ones(15)))
        sched = make_schedule("linear-beta", 1000)
        with pytest.raises(ValueError, match="disagree on the row count"):
            walk_chain(baseline_denoiser, [(999, 0)], Tensor(np.ones((3, 16))),
                       Tensor(np.ones((2, 8))), 1.0, "ddim", sched)


class TestStackedWalk:
    """One dense-stack pass per step over the rows [cond; uncond]."""

    @pytest.mark.parametrize("w", [1.0, 3.0])
    @pytest.mark.parametrize("batch", [1, 4])
    def test_one_dense_stack_pass_per_step(self, baseline_text, baseline_denoiser,
                                           monkeypatch, batch, w):
        plan = make_step_plan(6)
        sched = make_schedule("linear-beta", 1000)
        with ta.pause_recording():
            c = text_encode_rows(baseline_text, [(1, 2), (5,), (3, 3, 7), (0, 6)][:batch])
        z = Tensor(np.random.default_rng(3).standard_normal((batch, 16)))
        heights = []
        kernel = ta.mlp_kernel

        def counted(x, *args, **kwargs):
            heights.append(x.shape[0])
            return kernel(x, *args, **kwargs)

        monkeypatch.setattr(ta, "mlp_kernel", counted)
        got = walk_chain(baseline_denoiser, plan.transitions(), z, c, w, "ddim", sched)
        monkeypatch.undo()
        assert heights == [batch * (1 if w == 1.0 else 2)] * len(plan.transitions())
        want = _stepped_walk(baseline_denoiser, plan.transitions(), z, c, w, "ddim", sched)
        assert got.tobytes() == want.tobytes()

    def test_non_finite_null_rows(self, baseline_text, baseline_denoiser):
        # the null rows are trapped when guidance reads them and never read at w=1
        den = dataclasses.replace(baseline_denoiser,
                                  null_cond=Tensor(np.full(baseline_denoiser.c_width, np.nan)))
        plan = make_step_plan(5)
        sched = make_schedule("linear-beta", 1000)
        with ta.pause_recording():
            c = text_encode(baseline_text, (1, 2))
        z = start_noise(6, 16)
        with ta.debug_checks(), pytest.raises(ta.AutodiffError, match="non-finite"):
            walk_chain(den, plan.transitions(), z, c, 3.0, "ddim", sched)
        with ta.debug_checks():
            got = walk_chain(den, plan.transitions(), z, c, 1.0, "ddim", sched)
        assert np.isfinite(got).all()
        want = _stepped_walk(den, plan.transitions(), z, c, 1.0, "ddim", sched)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("w", [1.0, 3.0])
    @pytest.mark.parametrize("sampler", ["ddim", "euler"])
    def test_one_row_latent(self, baseline_text, baseline_denoiser, sampler, w):
        plan = make_step_plan(7)
        sched = make_schedule("linear-beta", 1000)
        with ta.pause_recording():
            c = text_encode_rows(baseline_text, [(4, 1)])
        z = Tensor(np.random.default_rng(8).standard_normal((1, 16)))
        got = walk_chain(baseline_denoiser, plan.transitions(), z, c, w, sampler, sched)
        want = _stepped_walk(baseline_denoiser, plan.transitions(), z, c, w, sampler, sched)
        assert got.shape == want.shape == (1, 16)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("sampler", ["ddim", "euler"])
    def test_three_rows_fractional_guidance(self, baseline_text, baseline_denoiser, sampler):
        plan = make_step_plan(7)
        sched = make_schedule("linear-beta", 1000)
        with ta.pause_recording():
            c = text_encode_rows(baseline_text, [(4, 1), (2,), (6, 6, 0)])
        z = Tensor(np.random.default_rng(9).standard_normal((3, 16)))
        got = walk_chain(baseline_denoiser, plan.transitions(), z, c, 0.5, sampler, sched)
        want = _stepped_walk(baseline_denoiser, plan.transitions(), z, c, 0.5, sampler, sched)
        assert got.shape == (3, 16)
        assert got.tobytes() == want.tobytes()

    def test_guided_probe_rows_equal_sampling_each_blend(self, baseline_text,
                                                         baseline_denoiser):
        other = init_text_encoder(98)
        plan = make_step_plan(6)
        samples, _ = continuity_probe(baseline_text, other, baseline_denoiser, (2, 5), plan,
                                      3.0, seed=4, lambdas=DEFAULT_LAMBDA_SWEEP)
        assert len(samples) == len(DEFAULT_LAMBDA_SWEEP) == 5
        with ta.pause_recording():
            c0 = text_encode(baseline_text, (2, 5))
            c1 = text_encode(other, (2, 5))
        for lam, x in zip(DEFAULT_LAMBDA_SWEEP, samples):
            alone = sample_from_cond(interpolate_embeddings(c0, c1, lam), baseline_denoiser,
                                     plan, 3.0, seed=4)
            assert x.tobytes() == alone.tobytes(), lam

    def test_start_noise_draw_is_cached_read_only(self):
        first, second = start_noise(21, 16), start_noise(21, 16)
        assert first is not second and first.data is not second.data
        assert first.data.tobytes() == second.data.tobytes()
        cached = _noise_draw(21, 16)
        assert cached.dtype == np.float32 and not cached.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            cached[0] = 0.0
        with ta.default_dtype(np.float64):
            wide = start_noise(21, 16)
        assert wide.data.dtype == np.float64
        assert wide.data.tobytes() == cached.astype(np.float64).tobytes()


def _primitive_step(denoiser, t, t_prev, z, c, w, sampler, sched):
    """A guided step as the primitive chain: 2 to 5 recorded nodes."""
    eps = denoise(denoiser, t, z, c)
    if w != 1.0:
        eps = cfg_combine(eps, denoise(denoiser, t, z, denoiser.null_cond), w)
    return sampler_step(sampler, z, eps, t, t_prev, sched)


class TestOneNodeStep:
    """``taped_step`` records one node, bit for bit the primitive chain."""

    @staticmethod
    def _run(step, state, dtype, shape, trainable, w, sampler):
        # three steps on one plain tape: every leaf is read by three steps,
        # so row terms are folded; dL/dz is tapped at each step's input
        prompts = [(1, 2), (5,), (3, 7, 0)]
        plan = make_step_plan(9)
        with ta.default_dtype(dtype):
            text = TextEncoderParams.from_state(state)
            den = DenoiserParams.from_state(state)
            (text if trainable == "text" else den).set_requires_grad(True)
            sched = make_schedule("linear-beta", 1000)
            rng = np.random.default_rng(29)
            z = Tensor(rng.standard_normal(16 if shape is None else (shape, 16)))
            tape = ta.Tape()
            with tape:
                c = (text_encode(text, prompts[0]) if shape is None
                     else text_encode_rows(text, prompts[:shape]))
                taps, before = [c.id], len(tape.nodes)
                for t, t_prev in plan.transitions()[-3:]:
                    taps.append(z.id)
                    z = step(den, t, t_prev, z, c, w, sampler, sched)
                nodes = len(tape.nodes) - before
                loss = ta.tensor_sum(ta.mul(z, z))
            grads = ta.backward(tape, loss, tap_ids=taps)
            named = {**text.named(), **den.named()}
            return (z.data, nodes, [grads.get(i) for i in taps],
                    {k: grads.get(p.id) for k, p in named.items()})

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("trainable", ["text", "denoiser"])
    @pytest.mark.parametrize("shape", [None, 1, 3], ids=["1-D", "B1", "B3"])
    @pytest.mark.parametrize("w", [0.0, 1.0, 3.0])
    @pytest.mark.parametrize("sampler", ["ddim", "euler"])
    def test_bytes_equal_primitive_chain(self, baseline_state, sampler, w, shape, trainable,
                                         dtype):
        got = self._run(taped_step, baseline_state, dtype, shape, trainable, w, sampler)
        want = self._run(_primitive_step, baseline_state, dtype, shape, trainable, w, sampler)
        assert got[0].dtype == np.dtype(dtype)
        assert got[0].tobytes() == want[0].tobytes()
        assert got[1] == 3 and want[1] > 3
        for g, h in zip(got[2], want[2]):
            assert g is not None and g.tobytes() == h.tobytes()
        assert got[3].keys() == want[3].keys()
        reached = 0
        for name, g in want[3].items():
            if g is None:
                assert got[3][name] is None, name
            else:
                reached += 1
                assert got[3][name].tobytes() == g.tobytes(), name
        assert reached == (5 if trainable == "text" else 6 + (w != 1.0))


def _primitive_walk(denoiser, transitions, z, c, w, sampler, sched):
    """A detached walk as a loop of ``_primitive_step``: no step table."""
    with ta.pause_recording():
        for t, t_prev in transitions:
            z = _primitive_step(denoiser, t, t_prev, z, c, w, sampler, sched)
    return z.data


@pytest.fixture()
def sampler_calls(monkeypatch):
    """The (sampler, t, t_prev) of every step-table build's sampler constants."""
    calls = []
    coefficients = inference.sampler_coefficients

    def counted(sampler, t, t_prev, sched):
        calls.append((sampler, t, t_prev))
        return coefficients(sampler, t, t_prev, sched)

    monkeypatch.setattr(inference, "sampler_coefficients", counted)
    return calls


class TestStepTableReuse:
    """One step table per (transitions, sampler, schedule object, dtype,
    t_embed), reused by every chain and iteration that walks it."""

    def test_evaluate_builds_one_table_per_model(self, baseline_state, baseline_world,
                                                 sampler_calls, monkeypatch):
        holdout = make_prompt_sets(baseline_world, 48, 36)[1]
        plan = make_step_plan(4)
        chains = []
        sample = evalcli.sample_from_cond

        def counted(*args, **kwargs):
            chains.append(1)
            return sample(*args, **kwargs)

        monkeypatch.setattr(evalcli, "sample_from_cond", counted)
        evalcli.evaluate([("model", baseline_state)], holdout, plan, 3.0, [0, 1], sampler="euler")
        # one sampling call per chain, P * S of them, and one table for all
        assert len(chains) == 36 * 2
        assert sampler_calls == [("euler", t, t_prev) for t, t_prev in plan.transitions()]

    def test_default_schedule_shares_one_table(self, baseline_text, baseline_denoiser):
        # sched=None resolves to one schedule object per horizon, so repeated
        # sampling builds at most one table (none when an earlier test built it)
        plan = make_step_plan(5)
        before = inference._transition_table.cache_info().misses
        for seed in range(3):
            sample(baseline_text, baseline_denoiser, (1, 2), plan, 3.0, seed)
        assert inference._transition_table.cache_info().misses - before <= 1

    def test_default_schedule_shared_by_evaluate(self, baseline_state, baseline_world):
        # library evaluate() calls with sched=None share sampling's default
        # schedule, so together they build at most one table
        holdout = make_prompt_sets(baseline_world, 48, 36)[1]
        plan = make_step_plan(3)
        before = inference._transition_table.cache_info().misses
        for _ in range(3):
            evalcli.evaluate([("model", baseline_state)], holdout, plan, 3.0, [0, 1])
        assert inference._transition_table.cache_info().misses - before <= 1

    def test_run_training_builds_one_table(self, baseline_state, sampler_calls):
        cfg = TrainConfig(iterations=3, batch_size=2, n_steps=5, k_last=2,
                          chain_cfg_scale=3.0)
        run_training(cfg, baseline_state)
        plan = make_step_plan(5, cfg.t_train)
        assert sampler_calls == [("ddim", t, t_prev) for t, t_prev in plan.transitions()]

    def test_schedule_objects_never_share_a_table(self, baseline_text, baseline_denoiser,
                                                  sampler_calls):
        # same kind and t_train, other arrays: a table of its own, and its own samples
        plan = make_step_plan(6)
        first = make_schedule("linear-beta", 1000)
        cosine = make_schedule("cosine", 1000)
        second = NoiseSchedule(kind="linear-beta", t_train=1000, alpha=cosine.alpha,
                               sigma=cosine.sigma)
        with ta.pause_recording():
            c = text_encode(baseline_text, (1, 2))
        z = start_noise(8, 16)
        got = [walk_chain(baseline_denoiser, plan.transitions(), z, c, 3.0, "ddim", sched)
               for sched in (first, second, first, second)]
        assert len(sampler_calls) == 2 * len(plan.transitions())
        for sched, x in zip((first, second), got):
            want = _primitive_walk(baseline_denoiser, plan.transitions(), z, c, 3.0, "ddim",
                                   sched)
            assert x.tobytes() == want.tobytes()
        assert got[0].tobytes() != got[1].tobytes()
        assert got[2].tobytes() == got[0].tobytes() and got[3].tobytes() == got[1].tobytes()

    def test_keys_never_share_an_entry(self, baseline_state, baseline_text):
        # each change of w, sampler, dtype or t_embed walks its own constants:
        # every walk, in one order, equals the primitive chain's
        plan = make_step_plan(5)
        sched = make_schedule("linear-beta", 1000)
        states = [baseline_state, DenoiserParams.init(4, ModelConfig(t_embed=12)).state()]
        cases = [(w, sampler, dtype, state) for state in states
                 for dtype in (np.float32, np.float64) for sampler in ("ddim", "euler")
                 for w in (1.0, 3.0, 0.0)]
        for w, sampler, dtype, state in cases * 2:
            with ta.default_dtype(dtype):
                den = DenoiserParams.from_state(state)
                with ta.pause_recording():
                    c = text_encode(TextEncoderParams.from_state(baseline_state), (3, 7))
                z = Tensor(np.linspace(-1.0, 1.0, 16))
                got = walk_chain(den, plan.transitions(), z, c, w, sampler, sched)
                want = _primitive_walk(den, plan.transitions(), z, c, w, sampler, sched)
            assert got.dtype == np.dtype(dtype)
            assert got.tobytes() == want.tobytes(), (w, sampler, dtype, den.t_embed)

    def test_cached_arrays_are_read_only(self, baseline_text, baseline_denoiser):
        plan = make_step_plan(4)
        sched = make_schedule("linear-beta", 1000)
        with ta.pause_recording():
            c = text_encode(baseline_text, (1, 2))
        steps, cfg = step_table(baseline_denoiser, plan.transitions(), start_noise(1, 16), c,
                                3.0, "euler", sched)
        again, _ = step_table(baseline_denoiser, plan.transitions(), start_noise(1, 16), c,
                              3.0, "euler", sched)
        assert again is steps and isinstance(steps, tuple)
        arrays = [a for temb, pairs in steps for a in (temb, *(x for p in pairs for x in p))]
        assert len(arrays) == 3 * len(plan.transitions())
        for a in arrays:
            assert a.dtype == np.float32 and not a.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                a[...] = 0.0

    def test_shape_checks_run_on_a_cache_hit(self, baseline_text, baseline_denoiser,
                                             sampler_calls):
        plan = make_step_plan(4)
        sched = make_schedule("linear-beta", 1000)
        with ta.pause_recording():
            c = text_encode(baseline_text, (1, 2))
        walk_chain(baseline_denoiser, plan.transitions(), start_noise(1, 16), c, 3.0, "ddim",
                   sched)
        built = len(sampler_calls)
        bad = [(Tensor(np.ones(15)), c), (start_noise(1, 16), Tensor(np.ones(7))),
               (Tensor(np.ones((2, 16))), Tensor(np.ones((3, 8))))]
        for z, cond in bad:
            with pytest.raises(ValueError) as caught:
                walk_chain(baseline_denoiser, plan.transitions(), z, cond, 3.0, "ddim", sched)
            with pytest.raises(ValueError) as direct:
                _denoise_parts(baseline_denoiser, plan.transitions()[0][0], z, cond)
            assert str(caught.value) == str(direct.value)
        with pytest.raises(ValueError, match="guidance scale must be finite"):
            walk_chain(baseline_denoiser, plan.transitions(), start_noise(1, 16), c, -1.0,
                       "ddim", sched)
        assert len(sampler_calls) == built

    def test_failed_build_caches_nothing(self, baseline_denoiser, sampler_calls):
        sched = make_schedule("linear-beta", 1000)
        transitions = [(999, 500), (400, 500)]
        for _ in range(2):
            with pytest.raises(ValueError, match=r"t_prev \(500\) must be < t \(400\)"):
                walk_chain(baseline_denoiser, transitions, Tensor(np.ones(16)),
                           Tensor(np.ones(8)), 3.0, "ddim", sched)
        assert len(sampler_calls) == 4


def _written_out_step(denoiser, t, t_prev, z, c, w, sampler, sched):
    """``_primitive_step`` with the dense stacks written out."""
    def eps_of(cond):
        temb = Tensor(ta.time_embedding_array(t, denoiser.t_embed))
        return written_out_mlp([z, temb, cond], denoiser.layers(), "silu")

    eps = eps_of(c)
    if w != 1.0:
        eps = cfg_combine(eps, eps_of(denoiser.null_cond), w)
    return sampler_step(sampler, z, eps, t, t_prev, sched)


class TestWorkspaceRounding:
    """The workspace keeps ``_product``'s rounding: a bias of another dtype
    is added in the wider one and rounded once."""

    @staticmethod
    def _denoiser(state, bias_dtype, dtype, requires_grad=False):
        with ta.default_dtype(bias_dtype):
            biased = DenoiserParams.from_state(state, requires_grad)
        with ta.default_dtype(dtype):
            den = DenoiserParams.from_state(state, requires_grad)
        return dataclasses.replace(den, b1=biased.b1, b2=biased.b2, b3=biased.b3)

    @pytest.mark.parametrize("dtypes", [(np.float32, np.float64), (np.float64, np.float64),
                                        (np.float64, np.float32)],
                             ids=["f64-bias-f32", "f64", "f32-bias-f64"])
    @pytest.mark.parametrize("w", [1.0, 3.0])
    def test_walk_equals_written_out_chain(self, baseline_state, w, dtypes):
        dtype, bias_dtype = dtypes
        plan = make_step_plan(6)
        den = self._denoiser(baseline_state, bias_dtype, dtype)
        assert den.b2.data.dtype == np.dtype(bias_dtype)
        with ta.default_dtype(dtype):
            sched = make_schedule("linear-beta", 1000)
            c = Tensor(np.linspace(-0.5, 0.5, 16).reshape(2, 8))
            z = Tensor(np.random.default_rng(5).standard_normal((2, 16)))
            got = walk_chain(den, plan.transitions(), z, c, w, "ddim", sched)
            with ta.pause_recording():
                want = z
                for t, t_prev in plan.transitions():
                    want = _written_out_step(den, t, t_prev, want, c, w, "ddim", sched)
        assert got.dtype == np.dtype(dtype)
        assert got.tobytes() == want.data.tobytes()

    @staticmethod
    def _taped(op, den, dtype, z0, c0):
        with ta.default_dtype(dtype):
            z, c = Tensor(z0, requires_grad=True), Tensor(c0, requires_grad=True)
            tape = ta.Tape()
            with tape:
                out = op(den, z, c)
                loss = ta.tensor_sum(ta.mul(out, out))
            grads = ta.backward(tape, loss)
        leaves = (z, c, *den.tensors())
        return [out.data.tobytes()] + [None if t.id not in grads else grads[t.id].tobytes()
                                       for t in leaves]

    @pytest.mark.parametrize("dtypes", [(np.float32, np.float64), (np.float64, np.float64)],
                             ids=["f64-bias-f32", "f64"])
    @pytest.mark.parametrize("node", ["mlp", "mlp_step"])
    def test_taped_nodes_equal_written_out_chain(self, baseline_state, node, dtypes):
        dtype, bias_dtype = dtypes
        rng = np.random.default_rng(6)
        z0, c0 = rng.standard_normal((3, 16)), rng.standard_normal((3, 8))
        sched = make_schedule("linear-beta", 1000)

        def temb(den):
            return Tensor(ta.time_embedding_array(700, den.t_embed))

        if node == "mlp":
            fused = lambda den, z, c: ta.mlp([z, temb(den), c], den.layers(), "silu")
            chain = lambda den, z, c: written_out_mlp([z, temb(den), c], den.layers(), "silu")
        else:
            fused = lambda den, z, c: taped_step(den, 700, 600, z, c, 3.0, "euler", sched)
            chain = lambda den, z, c: _written_out_step(den, 700, 600, z, c, 3.0, "euler",
                                                        sched)
        got, want = (self._taped(op, self._denoiser(baseline_state, bias_dtype, dtype, True),
                                 dtype, z0, c0) for op in (fused, chain))
        assert got[3] is not None and got == want

    def test_nan_bias_trapped_by_walk_and_node(self, baseline_denoiser):
        den = dataclasses.replace(baseline_denoiser,
                                  b2=Tensor(np.full(baseline_denoiser.b2.shape, np.nan)))
        sched = make_schedule("linear-beta", 1000)
        z, c = Tensor(np.ones((2, 16))), Tensor(np.ones((2, 8)))
        assert np.isnan(walk_chain(den, [(999, 500)], z, c, 3.0, "ddim", sched)).all()
        with ta.debug_checks():
            with pytest.raises(ta.AutodiffError, match="non-finite"):
                walk_chain(den, [(999, 500), (500, 0)], z, c, 3.0, "ddim", sched)
        den.set_requires_grad(True)
        with ta.debug_checks():
            with ta.Tape(), pytest.raises(ta.AutodiffError, match="non-finite"):
                taped_step(den, 999, 500, z, c, 3.0, "ddim", sched)


def _array_saved(node):
    return [a for a in node.saved if type(a) is np.ndarray]


class TestWorkspaceAliasing:
    """Taped calls get a workspace each; a walk's result is its own."""

    def test_recorded_steps_keep_their_own_arrays(self, baseline_text, baseline_denoiser):
        sched = make_schedule("linear-beta", 1000)
        baseline_denoiser.set_requires_grad(True)
        z = Tensor(np.random.default_rng(7).standard_normal((2, 16)))
        with ta.Tape() as tape:
            c = text_encode_rows(baseline_text, [(1, 2), (5,)])
            for t, t_prev in [(999, 700), (700, 400)]:
                z = taped_step(baseline_denoiser, t, t_prev, z, c, 3.0, "ddim", sched)
        first, second = [n for n in tape.nodes if n.op == "mlp_step"]
        kept = [a.copy() for a in _array_saved(first)]
        assert len(kept) == 5  # three layer inputs, two pre-activations
        for a in _array_saved(first):
            assert not any(np.shares_memory(a, b) for b in _array_saved(second))
        assert [a.tobytes() for a in _array_saved(first)] == [a.tobytes() for a in kept]

    def test_taped_mlp_calls_keep_their_own_arrays(self, baseline_denoiser):
        baseline_denoiser.set_requires_grad(True)
        rng = np.random.default_rng(8)
        with ta.Tape() as tape:
            outs = [denoise(baseline_denoiser, 500, Tensor(rng.standard_normal((3, 16))),
                            Tensor(rng.standard_normal((3, 8)))) for _ in range(2)]
        first, second = tape.nodes
        assert not np.shares_memory(outs[0].data, outs[1].data)
        for a in _array_saved(first) + [outs[0].data]:
            assert not any(np.shares_memory(a, b) for b in _array_saved(second))

    def test_walk_result_survives_a_later_walk(self, baseline_text, baseline_denoiser,
                                               monkeypatch):
        plan = make_step_plan(5)
        sched = make_schedule("linear-beta", 1000)
        with ta.pause_recording():
            c = text_encode_rows(baseline_text, [(1, 2), (5,), (3, 7)])
        z = Tensor(np.random.default_rng(9).standard_normal((3, 16)))
        make, buffers = ta.step_rows, []

        def kept_buffer(*args):
            buffers.append(make(*args))
            return buffers[-1]

        monkeypatch.setattr(ta, "step_rows", kept_buffer)
        for w in (1.0, 3.0):
            first = walk_chain(baseline_denoiser, plan.transitions(), z, c, w, "ddim", sched)
            kept = first.copy()
            later = walk_chain(baseline_denoiser, plan.transitions(), Tensor(z.data[::-1].copy()),
                               c, w, "ddim", sched)
            assert not np.shares_memory(first, later)
            assert first.tobytes() == kept.tobytes()
            rows, stack, work = buffers[-2]
            owned = [rows, stack, *(a for layer in work for a in layer if a is not None)]
            assert not any(np.shares_memory(first, a) for a in owned)


class TestWalkAllocation:
    """A regression guard on allocation, not on time: tracemalloc keeps no
    trace of a freed block, so what a step allocates is read as its peak of
    traced bytes above what it started with (``reset_peak`` per step)."""

    def test_dense_stack_is_allocated_once_per_walk(self, baseline_text, baseline_denoiser,
                                                    monkeypatch):
        batch, w = 4, 3.0
        sched = make_schedule("linear-beta", 1000)
        with ta.pause_recording():
            c = text_encode_rows(baseline_text, [(1, 2), (5,), (3, 7), (0, 6)])
        z = Tensor(np.random.default_rng(3).standard_normal((batch, 16)))
        kernel, peaks = ta.mlp_step_kernel, []

        def traced(*args, **kwargs):
            start = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            out = kernel(*args, **kwargs)
            peaks.append(tracemalloc.get_traced_memory()[1] - start)
            return out

        totals = {}
        for n in (10, 20):
            plan = make_step_plan(n)
            walk_chain(baseline_denoiser, plan.transitions(), z, c, w, "ddim", sched)
            monkeypatch.setattr(ta, "mlp_step_kernel", traced)
            peaks.clear()
            tracemalloc.start()
            try:
                walk_chain(baseline_denoiser, plan.transitions(), z, c, w, "ddim", sched)
            finally:
                tracemalloc.stop()
                monkeypatch.undo()
            assert len(peaks) == n
            totals[n] = sum(peaks)
        # a step holds the guidance's and the sampler update's fresh (B, D)
        # arrays and NumPy's own call buffers (about 3.4 KB here), never the
        # float64 input and product of a (2B, H) hidden layer (8 KB): a
        # dense stack allocating per step held 16 KB at its peak
        layer_f64 = 2 * (2 * batch * baseline_denoiser.w2.data.shape[0] * 8)
        assert max(peaks) < layer_f64
        assert totals[20] - totals[10] < 10 * layer_f64
