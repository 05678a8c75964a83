"""Inference tests: seeded sampling, guidance, embedding blending, sample IO."""

import dataclasses
import json
import math
import re
import warnings

import numpy as np
import pytest

from rewardtune import tensorad as ta
from rewardtune.inference import (
    DEFAULT_LAMBDA_SWEEP,
    _noise_draw,
    continuity_probe,
    guided_step,
    interpolate_embeddings,
    mix_styles,
    read_sample,
    sample,
    sample_from_cond,
    start_noise,
    walk_chain,
    write_sample,
)
from rewardtune.models import (
    DenoiserParams,
    TextEncoderParams,
    denoise,
    init_text_encoder,
    text_encode,
    text_encode_rows,
)
from rewardtune.schedule import (NoiseSchedule, cfg_combine, make_schedule, make_step_plan,
                                 sampler_step)
from rewardtune.tensorad import Tensor
from rewardtune.util import derive_seed


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
    """``walk_chain`` written out as a detached loop of ``guided_step``."""
    with ta.pause_recording():
        for t, t_prev in transitions:
            z = guided_step(denoiser, t, t_prev, z, c, w, sampler, sched)
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

        def counted(arrays, *args, **kwargs):
            heights.append([a.shape[0] for a in arrays])
            return kernel(arrays, *args, **kwargs)

        monkeypatch.setattr(ta, "mlp_kernel", counted)
        got = walk_chain(baseline_denoiser, plan.transitions(), z, c, w, "ddim", sched)
        monkeypatch.undo()
        assert heights == [[batch * (1 if w == 1.0 else 2)]] * len(plan.transitions())
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
    """``guided_step`` records one node, bit for bit the primitive chain."""

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
        got = self._run(guided_step, baseline_state, dtype, shape, trainable, w, sampler)
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
