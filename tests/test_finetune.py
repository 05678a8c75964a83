"""Fine-tuning tests: optimizer, config, and the three training regimes.

Gradient correctness for the truncated denoising chain is checked against a
central-finite-difference oracle of the same objective (prefix pinned at its
detached value, suffix differentiated), run in float64 so roundoff does not
mask real defects. Optimizer trajectories are compared against an in-test
float64 re-implementation of the same update rule.
"""

import math
import os

import numpy as np
import pytest

from rewardtune import tensorad as ta
from rewardtune.data import make_world
from rewardtune.finetune import (
    METRICS_HEADER,
    OptimizerState,
    RunMetrics,
    TrainConfig,
    adamw_update,
    clip_global_norm,
    direct_finetune_step,
    prompt_finetune_step,
    run_training,
    unet_finetune_step,
)
from rewardtune.inference import sample_from_cond
from rewardtune.models import (
    DenoiserParams,
    ParamBag,
    TextEncoderParams,
    denoise,
    init_denoiser,
    init_image_encoder,
    init_text_encoder,
    load_checkpoint,
    state_digest,
    text_encode,
)
from rewardtune.rewards import RewardSpec, combined_loss
from rewardtune.schedule import make_schedule, make_step_plan, sampler_step
from rewardtune.tensorad import Tensor
from rewardtune.util import derive_seed

_TEXT_FIELDS = ("embed", "w1", "b1", "w2", "b2")


def _rel(a, b):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    return np.abs(a - b) / np.maximum(np.abs(b), 1e-6)


# ---------------------------------------------------------------------------
# gradient clipping


class TestClipGlobalNorm:
    def test_small_gradients_pass_through(self):
        grads = {"a": np.array([0.3, -0.4], dtype=np.float32)}
        out, norm = clip_global_norm(grads, 1.0)
        assert out["a"] is grads["a"]
        assert abs(norm - 0.5) < 1e-7

    def test_large_gradients_scaled_to_bound(self):
        grads = {
            "a": np.array([3.0, 4.0], dtype=np.float32),
            "b": np.array([12.0], dtype=np.float32),
        }
        out, norm = clip_global_norm(grads, 1.0)
        assert abs(norm - 13.0) < 1e-6
        new_norm = math.sqrt(sum(float(np.sum(g.astype(np.float64) ** 2))
                                 for g in out.values()))
        assert abs(new_norm - 1.0) < 1e-6
        # direction preserved: every entry scaled by the same factor
        assert np.allclose(out["a"] / grads["a"], 1.0 / 13.0, rtol=1e-6)

    def test_none_disables_clipping(self):
        grads = {"a": np.array([100.0], dtype=np.float32)}
        out, norm = clip_global_norm(grads, None)
        assert out["a"] is grads["a"]
        assert abs(norm - 100.0) < 1e-4

    def test_zero_gradients_unchanged(self):
        grads = {"a": np.zeros(3, dtype=np.float32)}
        out, norm = clip_global_norm(grads, 1.0)
        assert norm == 0.0
        assert np.array_equal(out["a"], grads["a"])


# ---------------------------------------------------------------------------
# optimizer


def _scalar_bag(value):
    return ParamBag({"p/x": Tensor(np.asarray(value, dtype=np.float32),
                                   requires_grad=True)})


class TestAdamW:
    def test_zero_gradients_leave_params_untouched(self):
        bag = _scalar_bag([1.5, -2.0])
        before = bag["p/x"].data.copy()
        opt = OptimizerState.for_params(bag.named())
        adamw_update(bag, {"p/x": np.zeros(2, dtype=np.float32)}, opt, lr=0.1)
        assert np.array_equal(bag["p/x"].data, before)

    def test_single_step_bounded_by_learning_rate(self):
        bag = _scalar_bag([1.0, 1.0, 1.0])
        opt = OptimizerState.for_params(bag.named())
        g = np.array([10.0, -0.01, 3e-4], dtype=np.float32)
        before = bag["p/x"].data.copy()
        adamw_update(bag, {"p/x": g}, opt, lr=0.01)
        delta = np.abs(bag["p/x"].data.astype(np.float64) - before)
        assert np.all(delta <= 0.01 * (1 + 1e-6))

    def test_trajectory_matches_float64_reference(self):
        lr, wd = 0.01, 0.1
        grads_seq = [np.array([0.3], np.float32), np.array([-0.2], np.float32),
                     np.array([0.5], np.float32)]
        bag = _scalar_bag([1.0])
        opt = OptimizerState.for_params(bag.named(), weight_decay=wd)

        # independent reference of the same rule: float64 moments and math,
        # parameters cast back to float32 after each step
        p = np.array([1.0], dtype=np.float32)
        m = np.zeros(1)
        v = np.zeros(1)
        for step, g32 in enumerate(grads_seq, start=1):
            adamw_update(bag, {"p/x": g32}, opt, lr)
            g = g32.astype(np.float64)
            m = 0.9 * m + 0.1 * g
            v = 0.999 * v + 0.001 * g * g
            m_hat = m / (1.0 - 0.9**step)
            v_hat = v / (1.0 - 0.999**step)
            p64 = p.astype(np.float64)
            p64 = p64 - lr * wd * p64 - lr * m_hat / (np.sqrt(v_hat) + 1e-8)
            p = p64.astype(np.float32)
            assert np.array_equal(bag["p/x"].data, p), f"step {step}"

    def test_weight_decay_is_decoupled(self):
        # zero gradient, positive decay: pure multiplicative shrink
        bag = _scalar_bag([2.0])
        opt = OptimizerState.for_params(bag.named(), weight_decay=0.5)
        adamw_update(bag, {"p/x": np.zeros(1, dtype=np.float32)}, opt, lr=0.1)
        want = np.float32(2.0 * (1.0 - 0.1 * 0.5))
        assert np.allclose(bag["p/x"].data, want, rtol=1e-7)

    def test_missing_gradient_rejected(self):
        bag = _scalar_bag([1.0])
        opt = OptimizerState.for_params(bag.named())
        with pytest.raises(KeyError, match="missing gradient"):
            adamw_update(bag, {}, opt, lr=0.1)


# ---------------------------------------------------------------------------
# configuration


class TestTrainConfig:
    def test_defaults_are_valid(self):
        cfg = TrainConfig()
        assert cfg.regime == "prompt-chain"
        assert 1 <= cfg.k_last <= cfg.n_steps

    @pytest.mark.parametrize("kwargs,match", [
        (dict(regime="both"), "unknown regime"),
        (dict(k_last=0), "1 <= K <= N"),
        (dict(k_last=6, n_steps=5), "1 <= K <= N"),
        (dict(lr=0.0), "learning rate"),
        (dict(iterations=-1), "iterations"),
        (dict(batch_size=0), "batch size"),
        (dict(cfg_scale=-1.0), "cfg scale"),
        (dict(sampler="heun"), "unknown sampler"),
        (dict(schedule_kind="sigmoid"), "unknown schedule"),
        (dict(grad_clip=0.0), "grad_clip"),
        (dict(checkpoint_interval=-2), "checkpoint_interval"),
    ])
    def test_invalid_values_rejected(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            TrainConfig(**kwargs)

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown config keys: momentum, nsteps"):
            TrainConfig.from_dict({"nsteps": 5, "momentum": 0.9})

    def test_from_dict_rejects_removed_keys(self):
        with pytest.raises(ValueError,
                           match="unknown config keys: constraint_uses_frozen_copy"):
            TrainConfig.from_dict({"constraint_uses_frozen_copy": True})

    def test_from_dict_parses_rewards(self):
        cfg = TrainConfig.from_dict({
            "regime": "direct",
            "rewards": [{"kind": "image-style", "weight": 2.0}],
        })
        assert cfg.rewards.entries == (("image-style", 2.0),)

    def test_from_dict_round_trip(self):
        cfg = TrainConfig.from_dict({"n_steps": 10, "k_last": 3, "seed": 5})
        assert (cfg.n_steps, cfg.k_last, cfg.seed) == (10, 3, 5)


# ---------------------------------------------------------------------------
# direct regime


class TestDirectStep:
    def _inputs(self, baseline_world, n=2, seed=0):
        rng = np.random.default_rng(seed)
        batch = []
        for _ in range(n):
            from rewardtune.data import sample_pair
            batch.append(sample_pair(baseline_world, rng))
        ts = rng.integers(0, 1000, size=n)
        noises = rng.standard_normal((n, baseline_world.d)).astype(np.float32)
        return batch, ts, noises

    def test_empty_batch_rejected(self, baseline_world, baseline_text,
                                  baseline_image, baseline_denoiser):
        sched = make_schedule("linear-beta", 1000)
        with pytest.raises(ValueError, match="empty batch"):
            direct_finetune_step(baseline_text, baseline_denoiser, baseline_image,
                                 baseline_world, [], [], [], sched,
                                 RewardSpec.default())

    def test_mismatched_lengths_rejected(self, baseline_world, baseline_text,
                                         baseline_image, baseline_denoiser):
        sched = make_schedule("linear-beta", 1000)
        batch, ts, noises = self._inputs(baseline_world)
        with pytest.raises(ValueError, match="equal length"):
            direct_finetune_step(baseline_text, baseline_denoiser, baseline_image,
                                 baseline_world, batch, ts[:1], noises, sched,
                                 RewardSpec.default())

    def test_zero_weights_give_zero_loss_and_grads(self, baseline_world,
                                                   baseline_text, baseline_image,
                                                   baseline_denoiser):
        sched = make_schedule("linear-beta", 1000)
        baseline_text.set_requires_grad(True)
        batch, ts, noises = self._inputs(baseline_world)
        spec = RewardSpec(entries=(("image-style", 0.0),))
        result = direct_finetune_step(baseline_text, baseline_denoiser,
                                      baseline_image, baseline_world, batch,
                                      ts, noises, sched, spec)
        assert result.loss == 0.0
        assert all(np.all(g == 0) for g in result.grads.values())

    def test_gradients_cover_all_text_params(self, baseline_world, baseline_text,
                                             baseline_image, baseline_denoiser):
        sched = make_schedule("linear-beta", 1000)
        baseline_text.set_requires_grad(True)
        batch, ts, noises = self._inputs(baseline_world)
        result = direct_finetune_step(baseline_text, baseline_denoiser,
                                      baseline_image, baseline_world, batch,
                                      ts, noises, sched, RewardSpec.default())
        assert set(result.grads) == set(baseline_text.named())
        assert any(np.any(g != 0) for g in result.grads.values())
        assert math.isfinite(result.loss)
        assert set(result.reward_means) == {"image-style", "alignment",
                                            "clip-constraint"}

    def test_deterministic(self, baseline_world, baseline_text, baseline_image,
                           baseline_denoiser):
        sched = make_schedule("linear-beta", 1000)
        baseline_text.set_requires_grad(True)
        batch, ts, noises = self._inputs(baseline_world)
        args = (baseline_text, baseline_denoiser, baseline_image, baseline_world,
                batch, ts, noises, sched, RewardSpec.default())
        a = direct_finetune_step(*args)
        b = direct_finetune_step(*args)
        assert a.loss == b.loss
        for name in a.grads:
            assert np.array_equal(a.grads[name], b.grads[name])


# ---------------------------------------------------------------------------
# chain regimes


def _f64_setup(seed=21):
    """Fresh float64 models + world for finite-difference comparisons."""
    world = make_world(derive_seed(seed, "world"))
    text = init_text_encoder(derive_seed(seed, "text"))
    image = init_image_encoder(derive_seed(seed, "image"))
    den = init_denoiser(derive_seed(seed, "den"))
    return world, text, image, den


class TestChainStep:
    def test_k_out_of_range_rejected(self, baseline_world, baseline_text,
                                     baseline_image, baseline_denoiser):
        sched = make_schedule("linear-beta", 1000)
        plan = make_step_plan(3)
        z0 = np.zeros(16, dtype=np.float32)
        for k in (0, 4):
            with pytest.raises(ValueError, match="1 <= K"):
                prompt_finetune_step(baseline_text, baseline_denoiser,
                                     baseline_image, baseline_world,
                                     [(1, 2)], [z0], plan, k, sched,
                                     RewardSpec.default())

    def test_empty_prompt_batch_rejected(self, baseline_world, baseline_text,
                                         baseline_image, baseline_denoiser):
        sched = make_schedule("linear-beta", 1000)
        plan = make_step_plan(3)
        with pytest.raises(ValueError, match="empty prompt batch"):
            prompt_finetune_step(baseline_text, baseline_denoiser, baseline_image,
                                 baseline_world, [], [], plan, 1, sched,
                                 RewardSpec.default())

    def test_mismatched_batch_rejected(self, baseline_world, baseline_text,
                                       baseline_image, baseline_denoiser):
        sched = make_schedule("linear-beta", 1000)
        plan = make_step_plan(3)
        with pytest.raises(ValueError, match="equal length"):
            prompt_finetune_step(baseline_text, baseline_denoiser, baseline_image,
                                 baseline_world, [(1,)], [], plan, 1, sched,
                                 RewardSpec.default())

    @pytest.mark.parametrize("cfg_in_chain", [False, True])
    @pytest.mark.parametrize("sampler", ["ddim", "euler"])
    def test_chain_gradient_matches_finite_differences(self, sampler, cfg_in_chain):
        # truncated objective: the first N-K steps are a fixed (detached)
        # function of the starting noise, so the oracle pins that prefix at
        # its baseline value and differentiates only the recorded suffix;
        # guidance is written out here, sharing no code with the chain
        w = 3.0

        def guided_eps(den, t, z, c):
            eps = denoise(den, t, z, c)
            if cfg_in_chain:
                eps_u = denoise(den, t, z, den.null_cond)
                eps = ta.sub(ta.mul(eps, w), ta.mul(eps_u, w - 1.0))
            return eps

        with ta.default_dtype(np.float64):
            world, text, image, den = _f64_setup()
            text.set_requires_grad(True)
            sched = make_schedule("linear-beta", 1000)
            plan = make_step_plan(5)
            transitions = plan.transitions()
            k_last = 2
            split = len(transitions) - k_last
            prompt = (1, 3)
            spec = RewardSpec.default()
            rng = np.random.default_rng(17)
            z0 = rng.standard_normal(world.d)

            with ta.pause_recording():
                c0 = text_encode(text, prompt)
                z = Tensor(z0.copy())
                for t, t_prev in transitions[:split]:
                    eps = guided_eps(den, t, z, c0)
                    z = sampler_step(sampler, z, eps, t, t_prev, sched)
                z_mid = z.data.copy()

            def objective(named):
                tp = TextEncoderParams(**{f: named[f"text/{f}"] for f in _TEXT_FIELDS})
                c = text_encode(tp, prompt)
                zz = Tensor(z_mid.copy())
                for t, t_prev in transitions[split:]:
                    eps = guided_eps(den, t, zz, c)
                    zz = sampler_step(sampler, zz, eps, t, t_prev, sched)
                return combined_loss(zz, prompt, spec, world=world,
                                     image_params=image, text_params=tp)

            fd = ta.finite_diff_grad(objective, text.named(), h=1e-4)
            result = prompt_finetune_step(text, den, image, world, [prompt],
                                          [z0], plan, k_last, sched, spec,
                                          sampler=sampler, cfg_in_chain=cfg_in_chain,
                                          cfg_scale=w)
            for name, g in result.grads.items():
                mask = np.abs(fd[name]) > 1e-7
                if mask.any():
                    assert _rel(g[mask], fd[name][mask]).max() < 1e-3, name

    @pytest.mark.parametrize("k_last", [1, 6])
    @pytest.mark.parametrize("w", [1.0, 3.0])
    @pytest.mark.parametrize("sampler", ["ddim", "euler"])
    def test_chain_forward_matches_sampler(self, sampler, w, k_last):
        # the chain the gradient runs through walks, bit for bit, the same
        # trajectory the sampler does from the same noise draw
        world, text, image, den = _f64_setup()
        text.set_requires_grad(True)
        sched = make_schedule("linear-beta", 1000)
        plan = make_step_plan(6)
        prompt = (1, 3)
        seed = 5
        rng = np.random.default_rng(derive_seed(seed, "sample"))
        z0 = rng.standard_normal(world.d).astype(np.float32)

        result = prompt_finetune_step(text, den, image, world, [prompt], [z0],
                                      plan, k_last, sched, RewardSpec.default(),
                                      sampler=sampler, cfg_in_chain=True,
                                      cfg_scale=w)
        with ta.pause_recording():
            cond = text_encode(text, prompt)
        expected = sample_from_cond(cond, den, plan, w, seed, sampler=sampler,
                                    sched=sched)
        assert result.x_hats[0].dtype == expected.dtype
        assert result.x_hats[0].tobytes() == expected.tobytes()

    def test_checkpointed_chain_matches_plain_tape(self, baseline_world,
                                                   baseline_text, baseline_image,
                                                   baseline_denoiser):
        # recompute-on-backward must be invisible: same loss and gradients,
        # bit for bit, as one tape holding the whole chain
        sched = make_schedule("linear-beta", 1000)
        plan = make_step_plan(4)
        prompt = (2, 5)
        spec = RewardSpec.default()
        rng = np.random.default_rng(11)
        z0 = rng.standard_normal(16).astype(np.float32)
        baseline_text.set_requires_grad(True)

        result = prompt_finetune_step(baseline_text, baseline_denoiser,
                                      baseline_image, baseline_world, [prompt],
                                      [z0], plan, plan.n_steps, sched, spec)

        for t in baseline_text.tensors():
            t.grad = None
        tape = ta.Tape()
        with tape:
            c = text_encode(baseline_text, prompt)
            z = Tensor(z0)
            for t, t_prev in plan.transitions():
                eps = denoise(baseline_denoiser, t, z, c)
                z = sampler_step("ddim", z, eps, t, t_prev, sched)
            loss = ta.mul(combined_loss(z, prompt, spec, world=baseline_world,
                                        image_params=baseline_image,
                                        text_params=baseline_text), 1.0)
        ta.backward(tape, loss)

        assert np.float32(result.loss) == loss.data.astype(np.float32)
        for name, t in baseline_text.named().items():
            assert np.array_equal(result.grads[name], t.grad), name

    def test_single_step_chain_equals_direct(self, baseline_world, baseline_text,
                                             baseline_image, baseline_denoiser):
        # a one-step plan evaluates the denoiser once at the terminal time and
        # jumps straight to the prediction — exactly the one-shot regime fed
        # the matching noise draw
        sched = make_schedule("linear-beta", 1000)
        plan = make_step_plan(1)
        prompt = (4, 7)
        spec = RewardSpec.default()
        rng = np.random.default_rng(23)
        eps = rng.standard_normal(16).astype(np.float32)
        sigma = np.float32(sched.sigma_at(999))
        z0 = (sigma * eps).astype(np.float32)
        baseline_text.set_requires_grad(True)

        chain = prompt_finetune_step(baseline_text, baseline_denoiser,
                                     baseline_image, baseline_world, [prompt],
                                     [z0], plan, 1, sched, spec)
        for t in baseline_text.tensors():
            t.grad = None
        direct = direct_finetune_step(baseline_text, baseline_denoiser,
                                      baseline_image, baseline_world,
                                      [(np.zeros(16, dtype=np.float32), prompt)],
                                      [999], [eps], sched, spec)
        assert abs(chain.loss - direct.loss) <= 1e-6 * max(1.0, abs(direct.loss))
        for name in chain.grads:
            assert np.allclose(chain.grads[name], direct.grads[name],
                               rtol=1e-5, atol=1e-6), name

    def test_frozen_parts_stay_frozen(self, baseline_world, baseline_text,
                                      baseline_image, baseline_denoiser):
        sched = make_schedule("linear-beta", 1000)
        plan = make_step_plan(3)
        den_before = state_digest(baseline_denoiser.state())
        img_before = state_digest(baseline_image.state())
        baseline_text.set_requires_grad(True)
        z0 = np.random.default_rng(2).standard_normal(16).astype(np.float32)
        result = prompt_finetune_step(baseline_text, baseline_denoiser,
                                      baseline_image, baseline_world, [(1,)],
                                      [z0], plan, 2, sched, RewardSpec.default())
        opt = OptimizerState.for_params(baseline_text.named())
        adamw_update(baseline_text, result.grads, opt, lr=1e-3)
        assert state_digest(baseline_denoiser.state()) == den_before
        assert state_digest(baseline_image.state()) == img_before
        assert set(result.grads) == set(baseline_text.named())

    def test_step_gradient_norms_recorded(self, baseline_world, baseline_text,
                                          baseline_image, baseline_denoiser):
        sched = make_schedule("linear-beta", 1000)
        plan = make_step_plan(3)
        baseline_text.set_requires_grad(True)
        rng = np.random.default_rng(6)
        z = [rng.standard_normal(16).astype(np.float32) for _ in range(2)]
        result = prompt_finetune_step(baseline_text, baseline_denoiser,
                                      baseline_image, baseline_world,
                                      [(1,), (2, 3)], z, plan, 3, sched,
                                      RewardSpec.default(),
                                      record_step_norms=True)
        assert len(result.step_grad_norms) == 2
        for norms in result.step_grad_norms:
            assert len(norms) == 3
            assert all(math.isfinite(n) and n >= 0 for n in norms)
        assert any(n > 0 for norms in result.step_grad_norms for n in norms)

    def test_unet_step_trains_denoiser_not_text(self, baseline_world,
                                                baseline_text, baseline_image,
                                                baseline_denoiser):
        sched = make_schedule("linear-beta", 1000)
        plan = make_step_plan(3)
        baseline_denoiser.set_requires_grad(True)
        text_before = state_digest(baseline_text.state())
        z0 = np.random.default_rng(3).standard_normal(16).astype(np.float32)
        result = unet_finetune_step(baseline_denoiser, baseline_text,
                                    baseline_image, baseline_world, [(5,)],
                                    [z0], plan, 2, sched, RewardSpec.default())
        assert set(result.grads) == set(baseline_denoiser.named())
        assert any(np.any(g != 0) for g in result.grads.values())
        opt = OptimizerState.for_params(baseline_denoiser.named())
        adamw_update(baseline_denoiser, result.grads, opt, lr=1e-3)
        assert state_digest(baseline_text.state()) == text_before


# ---------------------------------------------------------------------------
# the training loop


class TestRunTraining:
    def test_zero_iterations_is_identity(self, baseline_state):
        cfg = TrainConfig(regime="direct", iterations=0)
        state_out, metrics = run_training(cfg, baseline_state)
        assert state_digest(state_out) == state_digest(baseline_state)
        assert metrics.rows == []

    def test_deterministic_given_seed(self, baseline_state):
        cfg = TrainConfig(regime="direct", iterations=5, batch_size=2, seed=3)
        out_a, met_a = run_training(cfg, baseline_state)
        out_b, met_b = run_training(cfg, baseline_state)
        assert met_a.to_csv() == met_b.to_csv()
        assert state_digest(out_a) == state_digest(out_b)

    def test_metrics_and_checkpoints_written(self, baseline_state, tmp_path):
        out_dir = str(tmp_path / "run")
        cfg = TrainConfig(regime="direct", iterations=4, batch_size=2, seed=3,
                          checkpoint_interval=2)
        state_out, metrics = run_training(cfg, baseline_state, out_dir=out_dir)
        csv_path = os.path.join(out_dir, "metrics.csv")
        with open(csv_path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        assert lines[0] == METRICS_HEADER
        assert len(lines) == 1 + 4
        assert metrics.to_csv().splitlines() == lines
        reloaded = load_checkpoint(os.path.join(out_dir, "model.rcpt"))
        assert state_digest(reloaded) == state_digest(state_out)
        assert os.path.exists(os.path.join(out_dir, "checkpoint_000002.rcpt"))
        assert os.path.exists(os.path.join(out_dir, "checkpoint_000004.rcpt"))

    def test_prompt_chain_updates_text_only(self, baseline_state):
        cfg = TrainConfig(regime="prompt-chain", n_steps=3, k_last=2,
                          iterations=2, batch_size=2, seed=4)
        state_out, metrics = run_training(cfg, baseline_state)
        changed = [k for k in baseline_state
                   if not np.array_equal(
                       np.asarray(state_out[k], dtype=np.float32),
                       np.asarray(baseline_state[k] if not isinstance(
                           baseline_state[k], Tensor) else baseline_state[k].data,
                           dtype=np.float32))]
        assert changed
        assert all(k.startswith("text/") for k in changed)
        assert len(metrics.rows) == 2

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                                "ignore:invalid value:RuntimeWarning")
    def test_non_finite_loss_stops_before_update(self, baseline_state, tmp_path):
        # lr=1e30 blows the text encoder up after one update: the loss of
        # iteration 1 is inf, so no update or file may follow it
        cfg = TrainConfig(lr=1e30, iterations=4, batch_size=1, n_steps=3, k_last=1,
                          checkpoint_interval=1)
        out_dir = tmp_path / "run"
        with pytest.raises(FloatingPointError, match="iteration 1: non-finite"):
            run_training(cfg, baseline_state, out_dir=str(out_dir))
        assert sorted(p.name for p in out_dir.iterdir()) == ["checkpoint_000001.rcpt"]

    def test_unet_chain_improves_reward(self, baseline_state):
        cfg = TrainConfig(regime="unet-chain", n_steps=5, k_last=3,
                          iterations=40, batch_size=2, seed=5, lr=1e-3)
        _, metrics = run_training(cfg, baseline_state)
        losses = [row[1] for row in metrics.rows]
        assert np.mean(losses[-10:]) < np.mean(losses[:10])


class TestRunMetrics:
    def test_csv_format(self):
        metrics = RunMetrics(rows=[(0, -1.25, 0.5, 0.25, 0.125)])
        text = metrics.to_csv()
        lines = text.splitlines()
        assert lines[0] == METRICS_HEADER
        assert lines[1] == "0,-1.25,0.5,0.25,0.125"
        assert text.endswith("\n")
