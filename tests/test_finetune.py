"""Fine-tuning tests: optimizer, config, and the three training regimes.

Gradient correctness for the truncated denoising chain is checked against a
central-finite-difference oracle of the same objective (prefix pinned at its
detached value, suffix differentiated), run in float64 so roundoff does not
mask real defects. Optimizer trajectories are compared against an in-test
float64 re-implementation of the same update rule.
"""

import dataclasses
import math
import os

import numpy as np
import pytest

from rewardtune import tensorad as ta
from rewardtune.data import make_world, sample_pair
from rewardtune.finetune import (
    METRICS_HEADER,
    OptimizerState,
    RunMetrics,
    TrainConfig,
    adamw_update,
    clip_global_norm,
    collect_grads,
    direct_finetune_step,
    prompt_finetune_step,
    run_training,
    unet_finetune_step,
)
from rewardtune.inference import (guided_step, sample_from_cond, step_table, walk_chain,
                                  walk_steps)
from rewardtune.models import (
    DenoiserParams,
    TextEncoderParams,
    denoise,
    init_denoiser,
    init_image_encoder,
    init_text_encoder,
    load_checkpoint,
    state_digest,
    text_encode,
    text_encode_rows,
)
from rewardtune.rewards import RewardSpec, combined_loss
from rewardtune.rewards import READOUT_SPEC, reward_values
from rewardtune.schedule import (forward_diffuse, make_schedule, make_step_plan,
                                 predict_x0, sampler_step)
from rewardtune.tensorad import Tensor
from rewardtune.pretrain import PretrainConfig
from rewardtune.util import derive_seed, is_number
import test_byte_manifest

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
    return {"p/x": Tensor(np.asarray(value, dtype=np.float32), requires_grad=True)}


class TestAdamW:
    def test_zero_gradients_leave_params_untouched(self):
        bag = _scalar_bag([1.5, -2.0])
        before = bag["p/x"].data.copy()
        opt = OptimizerState.for_params(bag)
        bag = adamw_update(bag, {"p/x": np.zeros(2, dtype=np.float32)}, opt, lr=0.1)
        assert np.array_equal(bag["p/x"].data, before)

    def test_single_step_bounded_by_learning_rate(self):
        bag = _scalar_bag([1.0, 1.0, 1.0])
        opt = OptimizerState.for_params(bag)
        g = np.array([10.0, -0.01, 3e-4], dtype=np.float32)
        before = bag["p/x"].data.copy()
        bag = adamw_update(bag, {"p/x": g}, opt, lr=0.01)
        delta = np.abs(bag["p/x"].data.astype(np.float64) - before)
        assert np.all(delta <= 0.01 * (1 + 1e-6))

    def test_trajectory_matches_float64_reference(self):
        lr, wd = 0.01, 0.1
        grads_seq = [np.array([0.3], np.float32), np.array([-0.2], np.float32),
                     np.array([0.5], np.float32)]
        bag = _scalar_bag([1.0])
        opt = OptimizerState.for_params(bag, weight_decay=wd)

        # independent reference of the same rule: float64 moments and math,
        # parameters cast back to float32 after each step
        p = np.array([1.0], dtype=np.float32)
        m = np.zeros(1)
        v = np.zeros(1)
        for step, g32 in enumerate(grads_seq, start=1):
            bag = adamw_update(bag, {"p/x": g32}, opt, lr)
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
        opt = OptimizerState.for_params(bag, weight_decay=0.5)
        bag = adamw_update(bag, {"p/x": np.zeros(1, dtype=np.float32)}, opt, lr=0.1)
        want = np.float32(2.0 * (1.0 - 0.1 * 0.5))
        assert np.allclose(bag["p/x"].data, want, rtol=1e-7)

    def test_replaced_parameter_widens_its_own_values(self):
        bag = _scalar_bag([1.0, -1.0])
        old = bag["p/x"]
        old_wide = old.data64
        opt = OptimizerState.for_params(bag)
        bag = adamw_update(bag, {"p/x": np.ones(2, dtype=np.float32)}, opt, lr=0.1)
        new = bag["p/x"]
        assert new is not old
        assert np.array_equal(new.data64, new.data.astype(np.float64))
        assert not np.array_equal(new.data64, old_wide)

    def test_missing_gradient_rejected(self):
        bag = _scalar_bag([1.0])
        opt = OptimizerState.for_params(bag)
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
        (dict(chain_cfg_scale=-1.0), "cfg scale"),
        (dict(sampler="heun"), "unknown sampler"),
        (dict(schedule_kind="sigmoid"), "unknown schedule"),
        (dict(grad_clip=0.0), "grad_clip"),
        (dict(checkpoint_interval=-2), "checkpoint_interval"),
        (dict(chain_cfg_scale=math.inf), "cfg scale"),
    ])
    def test_invalid_values_rejected(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            TrainConfig(**kwargs)

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown config keys: momentum, nsteps"):
            TrainConfig.from_dict({"nsteps": 5, "momentum": 0.9})

    def test_from_dict_rejects_removed_keys(self):
        for key, value in [("constraint_uses_frozen_copy", True), ("cfg_in_chain", True),
                           ("cfg_scale", 7.5)]:
            with pytest.raises(ValueError, match=f"unknown config keys: {key}"):
                TrainConfig.from_dict({key: value})

    def test_from_dict_parses_rewards(self):
        cfg = TrainConfig.from_dict({
            "regime": "direct",
            "rewards": [{"kind": "image-style", "weight": 2.0}],
        })
        assert cfg.rewards.entries == (("image-style", 2.0),)

    def test_from_dict_round_trip(self):
        cfg = TrainConfig.from_dict({"n_steps": 10, "k_last": 3, "seed": 5})
        assert (cfg.n_steps, cfg.k_last, cfg.seed) == (10, 3, 5)

    @pytest.mark.parametrize("cls", [TrainConfig, PretrainConfig])
    @pytest.mark.parametrize("kwargs,match", [
        (dict(lr=math.nan), "learning rate"),
        (dict(grad_clip=math.nan), "grad_clip"),
        (dict(weight_decay=math.nan), "weight_decay"),
        (dict(weight_decay=-1e-3), "weight_decay"),
    ])
    def test_nan_and_negative_decay_rejected(self, cls, kwargs, match):
        # configs built in Python never reach the JSON number rule
        with pytest.raises(ValueError, match=match):
            cls(**kwargs)

    @pytest.mark.parametrize("cls", [TrainConfig, PretrainConfig])
    @pytest.mark.parametrize("kwargs,match", [
        (dict(lr=math.inf), "learning rate must be finite"),
        (dict(weight_decay=math.inf), "weight_decay must be finite"),
    ])
    def test_infinite_lr_and_decay_rejected(self, cls, kwargs, match):
        # an infinite lr or decay would write non-finite weights at the first update
        with pytest.raises(ValueError, match=match):
            cls(**kwargs)

    def test_infinite_lr_writes_no_checkpoint(self, baseline_state, tmp_path):
        with pytest.raises(ValueError, match="learning rate"):
            run_training(TrainConfig(lr=math.inf, iterations=3, batch_size=1, n_steps=3,
                                     k_last=1, checkpoint_interval=1),
                         baseline_state, str(tmp_path))
        assert not list(tmp_path.iterdir())

    def test_nan_chain_cfg_scale_rejected(self):
        with pytest.raises(ValueError, match="cfg scale"):
            TrainConfig(chain_cfg_scale=math.nan)

    @pytest.mark.parametrize("raw,match", [
        ({"lr": math.nan}, "config field 'lr' must be a number, got nan"),
        ({"lr": math.inf}, "config field 'lr' must be a number, got inf"),
        ({"grad_clip": math.inf}, "config field 'grad_clip' must be a number, got inf"),
        ({"weight_decay": -math.inf}, "config field 'weight_decay' must be a number, got -inf"),
        ({"weight_decay": -1.0}, "weight_decay must be non-negative"),
        ({"weight_decay": -5}, "weight_decay must be non-negative"),
    ])
    @pytest.mark.parametrize("cls", [TrainConfig, PretrainConfig])
    def test_from_dict_rejects_non_finite_and_negative_decay(self, cls, raw, match):
        with pytest.raises(ValueError, match=match):
            cls.from_dict(raw)

    def test_from_dict_rejects_non_finite_chain_cfg_scale(self):
        with pytest.raises(ValueError, match="'chain_cfg_scale' must be a number, got nan"):
            TrainConfig.from_dict({"chain_cfg_scale": math.nan})


@pytest.mark.parametrize("value,kind,want", [
    (1, float, True), (0.5, float, True), (-0.0, float, True), (10**400, float, False),
    (1, int, True), (10**400, int, True), (1.0, int, False),
    (True, float, False), (False, int, False),
    (math.nan, float, False), (math.inf, float, False), (-math.inf, float, False),
    ("1", float, False), (None, float, False), ([1], float, False),
])
def test_number_rule(value, kind, want):
    assert is_number(value, kind) is want


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

    def test_timestep_at_the_horizon_rejected(self, baseline_world, baseline_text,
                                               baseline_image, baseline_denoiser):
        sched = make_schedule("linear-beta", 1000)
        batch, ts, noises = self._inputs(baseline_world)
        with pytest.raises(ValueError, match=r"^timestep 1000 outside \[0, 1000\)$"):
            direct_finetune_step(baseline_text, baseline_denoiser, baseline_image,
                                 baseline_world, batch, [ts[0], 1000], noises, sched,
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

    def test_matches_plain_tape(self, baseline_world, baseline_text, baseline_image,
                                baseline_denoiser):
        # the step is one tape over the batch: each item's forward pass and
        # loss, summed in item order, then the mean; same bits as written out
        sched = make_schedule("linear-beta", 1000)
        spec = RewardSpec.default()
        baseline_text.set_requires_grad(True)
        batch, ts, noises = self._inputs(baseline_world, n=3, seed=4)
        result = direct_finetune_step(baseline_text, baseline_denoiser,
                                      baseline_image, baseline_world, batch,
                                      ts, noises, sched, spec)

        tape = ta.Tape()
        with tape:
            total = None
            for (x, prompt), t, eps in zip(batch, ts, noises):
                t = int(t)
                c = text_encode(baseline_text, prompt)
                z_t = forward_diffuse(Tensor(x), t, Tensor(eps), sched)
                x_hat = predict_x0(z_t, denoise(baseline_denoiser, t, z_t, c), t, sched)
                li = combined_loss(x_hat, prompt, spec, world=baseline_world,
                                   image_params=baseline_image,
                                   text_params=baseline_text)
                total = li if total is None else ta.add(total, li)
            loss = ta.mul(total, 1.0 / 3)
        g = ta.backward(tape, loss)

        assert np.float32(result.loss) == loss.data.astype(np.float32)
        for name, t in baseline_text.named().items():
            assert np.array_equal(result.grads[name], g[t.id]), name


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
                                          sampler=sampler,
                                          w=w if cfg_in_chain else 1.0)
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
                                      sampler=sampler, w=w)
        with ta.pause_recording():
            cond = text_encode(text, prompt)
        expected = sample_from_cond(cond, den, plan, w, seed, sampler=sampler,
                                    sched=sched)
        assert result.x_hats[0].dtype == expected.dtype
        assert result.x_hats[0].tobytes() == expected.tobytes()

    @pytest.mark.parametrize("regime,w,n,k,batch", [
        *[(regime, w, 6, 3, 2) for regime in ("prompt-chain", "unet-chain") for w in (1.0, 3.0)],
        ("prompt-chain", 1.0, 25, 5, 4),  # the golden config
    ])
    def test_each_recorded_step_is_one_node(self, baseline_world, baseline_text,
                                            baseline_image, baseline_denoiser, monkeypatch,
                                            regime, w, n, k, batch):
        # the forward is one detached walk over the first N-K steps in one
        # buffer, then K mlp_step nodes on that buffer; in backward the last
        # step reads its activations as the buffer holds them, and each
        # earlier one reruns its kernel once
        phase, kernels, buffers, tapes = ["forward"], [], [], []
        kernel, rows, backward = ta.mlp_step_kernel, ta.step_rows, ta.backward

        def kernel_call(buffer, z, temb, pairs, xs=None, pres=None):
            # a recorded step passes the lists its node keeps; a walk step
            # and a recompute keep nothing
            kernels.append((phase[0], "detached" if xs is None else "recorded", id(buffer)))
            return kernel(buffer, z, temb, pairs, xs, pres)

        def rows_call(*args):
            buffers.append(phase[0])
            return rows(*args)

        def marked(*args, **kwargs):
            phase[0] = "backward"
            return backward(*args, **kwargs)

        class Recorded(ta.Tape):
            def __init__(self):
                super().__init__()
                tapes.append(self)

        for name, fn in [("mlp_step_kernel", kernel_call), ("step_rows", rows_call),
                         ("backward", marked), ("Tape", Recorded)]:
            monkeypatch.setattr(ta, name, fn)
        trainable, step = ((baseline_text, prompt_finetune_step) if regime == "prompt-chain"
                           else (baseline_denoiser, unet_finetune_step))
        trainable.set_requires_grad(True)
        frozen = baseline_denoiser if trainable is baseline_text else baseline_text
        z0s = np.random.default_rng(6).standard_normal((batch, 16)).astype(np.float32)
        prompts = [(1, 2), (4,), (0, 6), (3, 5, 7)][:batch]
        step(trainable, frozen, baseline_image, baseline_world, prompts, list(z0s),
             make_step_plan(n), k, make_schedule("linear-beta", 1000), RewardSpec.default(),
             w=w)
        # one buffer for the walk, every recorded step and every recompute
        assert buffers == ["forward"]
        buffer_id = kernels[0][2]
        assert kernels == ([("forward", "detached", buffer_id)] * (n - k)
                           + [("forward", "recorded", buffer_id)] * k
                           + [("backward", "detached", buffer_id)] * (k - 1))
        (tape,) = tapes
        assert [node.op for node in tape.nodes if node.op in ("segment", "mlp_step")] == (
            ["mlp_step"] * k)
        assert not any(isinstance(node, ta.SegmentNode) for node in tape.nodes)

    @pytest.mark.parametrize("w", [1.0, 3.0])
    @pytest.mark.parametrize("regime", ["prompt-chain", "unet-chain"])
    def test_live_interior_constant_in_k(self, baseline_state, monkeypatch, regime, w):
        # the K recorded steps keep the arrays of one buffer, so a training
        # step holds as many interior values at once whatever K is
        tapes = []

        class Recorded(ta.Tape):
            def __init__(self):
                super().__init__()
                tapes.append(self)

        monkeypatch.setattr(ta, "Tape", Recorded)
        n, peaks = 6, []
        for k_last in range(1, n + 1):
            tapes.clear()
            run_training(TrainConfig(regime=regime, n_steps=n, k_last=k_last, batch_size=2,
                                     chain_cfg_scale=w, iterations=1), baseline_state)
            (tape,) = tapes
            assert sum(node.op == "mlp_step" for node in tape.nodes) == k_last
            peaks.append(tape.stats.peak_live_interior)
        assert peaks == [peaks[0]] * n, peaks

    @pytest.mark.parametrize("batch", [1, 3])
    @pytest.mark.parametrize("k_last", [1, 2, 4])
    @pytest.mark.parametrize("w", [1.0, 3.0])
    @pytest.mark.parametrize("regime", ["prompt-chain", "unet-chain"])
    def test_one_step_buffer_per_iteration(self, baseline_state, monkeypatch, regime, w,
                                           k_last, batch):
        # the walk, the last recorded step and every replay of an iteration
        # share one buffer, K = N included
        rows, calls = ta.step_rows, []

        def counted(*args):
            calls.append(args[0].shape)
            return rows(*args)

        monkeypatch.setattr(ta, "step_rows", counted)
        run_training(TrainConfig(regime=regime, n_steps=4, k_last=k_last, batch_size=batch,
                                 chain_cfg_scale=w, iterations=2), baseline_state)
        assert calls == [(batch, 16)] * 2

    @pytest.mark.parametrize("w", [1.0, 3.0])
    def test_steps_sharing_a_buffer_on_one_tape_match_a_buffer_each(self, baseline_text,
                                                                    baseline_denoiser, w):
        # three recorded steps on one plain tape writing one buffer: each
        # later step overwrites the activations an earlier one saved, so the
        # earlier ones recompute theirs in backward, and every gradient has
        # the bytes of a tape whose steps have a buffer each
        den, sched = baseline_denoiser, make_schedule("linear-beta", 1000)
        den.set_requires_grad(True)
        with ta.pause_recording():
            c = text_encode_rows(baseline_text, [(1, 2), (5,)])
        z0 = Tensor(np.random.default_rng(4).standard_normal((2, 16)), requires_grad=True)
        transitions = make_step_plan(3).transitions()
        steps, shared = step_table(den, transitions, z0, c, w, "ddim", sched)

        def run(buffers):
            z = z0
            with ta.Tape() as tape:
                for (temb, pairs), buffer in zip(steps, buffers):
                    z = ta.mlp_step(z, temb, pairs, buffer)
                loss = ta.tensor_sum(z)
            grads = ta.backward(tape, loss)
            return {i: g.tobytes() for i, g in grads.items()}

        each = run([step_table(den, transitions, z0, c, w, "ddim", sched)[1] for _ in steps])
        assert z0.id in each and den.w1.id in each
        assert run([shared] * len(steps)) == each

    @pytest.mark.parametrize("field", ["b1", "b2", "b3", "w2", "null_cond"])
    @pytest.mark.parametrize("w", [1.0, 3.0])
    def test_buffer_steps_the_model_it_was_built_from(self, baseline_text, baseline_denoiser,
                                                      w, field):
        # a step buffer holds the layers, conditioning and guidance it was
        # built from; once one is replaced (as an optimizer update replaces
        # a layer), the buffer built before keeps stepping the old model and
        # one built after steps the new one, each bit for bit a fresh buffer
        # of its model, its walk and its taped step alike
        den, sched = baseline_denoiser, make_schedule("linear-beta", 1000)
        with ta.pause_recording():
            c = text_encode_rows(baseline_text, [(1, 2), (5,)])
        z0 = Tensor(np.random.default_rng(4).standard_normal((2, 16)), requires_grad=True)
        transitions = make_step_plan(3).transitions()

        def table(model):
            return step_table(model, transitions, z0, c, w, "ddim", sched)

        def stepped(buffer):
            walked = walk_steps(steps, z0.data, buffer)
            with ta.Tape() as tape:
                z = ta.mlp_step(z0, *steps[0], buffer)
                loss = ta.tensor_sum(z)
            return walked.tobytes(), z.data.tobytes(), ta.backward(tape, loss)[z0.id].tobytes()

        steps, before = table(den)
        updated = dataclasses.replace(den, **{field: Tensor(getattr(den, field).data * 0.5)})
        after = table(updated)[1]
        old, new = stepped(before), stepped(after)
        assert old == stepped(table(den)[1])
        assert new == stepped(table(updated)[1])
        # the null conditioning is read only under guidance
        assert (new != old) == (field != "null_cond" or w != 1.0)

    @pytest.mark.parametrize("regime,sampler,w,k_last,batch", [
        ("prompt-chain", "ddim", 1.0, 4, 1),
        *[(regime, "euler", 3.0, k_last, batch) for regime in ("prompt-chain", "unet-chain")
          for k_last in (1, 2, 4) for batch in (1, 3)],
    ])
    def test_checkpointed_chain_matches_plain_tape(self, baseline_world,
                                                   baseline_text, baseline_image,
                                                   baseline_denoiser, regime, sampler, w,
                                                   k_last, batch):
        # recompute-on-backward must be invisible: same loss, gradients and
        # |dL/dz| at every recorded step, bit for bit, as one tape holding
        # each item's recorded steps as guided_step nodes after its prefix
        # stepped detached
        sched = make_schedule("linear-beta", 1000)
        plan = make_step_plan(4)
        prompts = [(2, 5), (0,), (3, 6, 7)][:batch]
        spec = RewardSpec.default()
        z0s = np.random.default_rng(11).standard_normal((batch, 16)).astype(np.float32)
        text, den = baseline_text, baseline_denoiser
        trainable, step = ((text, prompt_finetune_step) if regime == "prompt-chain"
                           else (den, unet_finetune_step))
        trainable.set_requires_grad(True)
        frozen = den if trainable is text else text
        result = step(trainable, frozen, baseline_image, baseline_world, prompts, list(z0s),
                      plan, k_last, sched, spec, sampler=sampler, w=w)

        transitions = plan.transitions()
        split = len(transitions) - k_last
        tape = ta.Tape()
        taps = []
        with tape:
            total = None
            for prompt, z0 in zip(prompts, z0s):
                c = text_encode(text, prompt)
                z = Tensor(z0)
                with ta.pause_recording():
                    for t, t_prev in transitions[:split]:
                        z = guided_step(den, t, t_prev, z, c, w, sampler, sched)
                taps.append([])
                for t, t_prev in transitions[split:]:
                    taps[-1].append(z.id)
                    z = guided_step(den, t, t_prev, z, c, w, sampler, sched)
                li = combined_loss(z, prompt, spec, world=baseline_world,
                                   image_params=baseline_image, text_params=text)
                total = li if total is None else ta.add(total, li)
            loss = ta.mul(total, 1.0 / len(prompts))
        g = ta.backward(tape, loss, tap_ids=[tid for item in taps for tid in item])
        want = collect_grads(trainable.named(), g)

        assert np.float64(result.loss).tobytes() == np.float64(loss.item()).tobytes()
        for name in trainable.named():
            assert result.grads[name].tobytes() == want[name].tobytes(), name
        assert result.step_grad_norms == [
            [float(np.linalg.norm(g[tid])) if tid in g else 0.0 for tid in item]
            for item in taps]

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
        baseline_text.apply_update(adamw_update(baseline_text.named(), result.grads, opt,
                                                lr=1e-3))
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
                                      RewardSpec.default())
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
        baseline_denoiser.apply_update(adamw_update(baseline_denoiser.named(), result.grads,
                                                    opt, lr=1e-3))
        assert state_digest(baseline_text.state()) == text_before

    def test_gradients_come_from_this_steps_tape(self, baseline_world, baseline_text,
                                                 baseline_image, baseline_state):
        # a guided step reaches null_cond; an unguided step on the same
        # tensors never does, so it must report what a fresh denoiser reports
        # (zeros), not the earlier tape's value
        sched = make_schedule("linear-beta", 1000)
        plan = make_step_plan(3)
        z0 = np.random.default_rng(8).standard_normal(16).astype(np.float32)

        def step(den, guided):
            return unet_finetune_step(den, baseline_text, baseline_image, baseline_world,
                                      [(1, 2)], [z0], plan, 2, sched, RewardSpec.default(),
                                      w=3.0 if guided else 1.0)

        reused, fresh = (DenoiserParams.from_state(baseline_state) for _ in range(2))
        reused.set_requires_grad(True)
        fresh.set_requires_grad(True)
        assert np.any(step(reused, True).grads["denoiser/null_cond"] != 0)
        again, want = step(reused, False), step(fresh, False)
        assert not np.any(again.grads["denoiser/null_cond"])
        for name, g in want.grads.items():
            assert again.grads[name].tobytes() == g.tobytes(), name
        assert again.step_grad_norms == want.step_grad_norms


    @pytest.mark.parametrize("cfg_in_chain", [False, True])
    @pytest.mark.parametrize("sampler", ["ddim", "euler"])
    @pytest.mark.parametrize("regime", ["prompt-chain", "unet-chain"])
    def test_batched_prefix_matches_per_item_chains(self, baseline_world, baseline_text,
                                                    baseline_image, baseline_denoiser,
                                                    regime, sampler, cfg_in_chain):
        # the detached prefix walks all items as one batch; against a reference
        # that walks each item's prefix alone and records each suffix on one
        # plain tape, loss, every gradient and every x_hat agree to the byte
        w = 3.0
        sched = make_schedule("linear-beta", 1000)
        plan = make_step_plan(6)
        k_last = 2
        prompts = [(1, 3), (0,), (2, 5, 7)]
        z0s = np.random.default_rng(41).standard_normal((3, 16)).astype(np.float32)
        spec = RewardSpec.default()
        text, den = baseline_text, baseline_denoiser
        trainable, step = ((text, prompt_finetune_step) if regime == "prompt-chain"
                           else (den, unet_finetune_step))
        trainable.set_requires_grad(True)
        frozen = den if trainable is text else text
        chain_w = w if cfg_in_chain else 1.0
        result = step(trainable, frozen, baseline_image, baseline_world, prompts, list(z0s),
                      plan, k_last, sched, spec, sampler=sampler, w=chain_w)

        transitions = plan.transitions()
        split = len(transitions) - k_last
        tape = ta.Tape()
        x_hats = []
        with tape:
            total = None
            for prompt, z0 in zip(prompts, z0s):
                c = text_encode(text, prompt)
                z = Tensor(walk_chain(den, transitions[:split], Tensor(z0), c, chain_w,
                                      sampler, sched))
                for t, t_prev in transitions[split:]:
                    z = guided_step(den, t, t_prev, z, c, chain_w, sampler, sched)
                li = combined_loss(z, prompt, spec, world=baseline_world,
                                   image_params=baseline_image, text_params=text)
                total = li if total is None else ta.add(total, li)
                x_hats.append(z.data)
            loss = ta.mul(total, 1.0 / len(prompts))
        want = collect_grads(trainable.named(), ta.backward(tape, loss))

        assert np.float64(result.loss).tobytes() == np.float64(loss.item()).tobytes()
        for name in trainable.named():
            assert result.grads[name].tobytes() == want[name].tobytes(), name
        assert [x.tobytes() for x in result.x_hats] == [x.tobytes() for x in x_hats]


    @pytest.mark.parametrize("spec", [RewardSpec.default(),
                                      RewardSpec(entries=(("clip-constraint", 0.0),
                                                          ("degenerate-collapse-probe", 1.0)))],
                             ids=["default", "collapse"])
    @pytest.mark.parametrize("cfg_in_chain", [False, True])
    @pytest.mark.parametrize("regime", ["prompt-chain", "unet-chain"])
    def test_step_norms_and_readouts_match_per_item_tape(self, baseline_world, baseline_text,
                                                         baseline_image, baseline_denoiser,
                                                         regime, cfg_in_chain, spec):
        # the batched step's |dL/dz| per item and recorded step, and its
        # readout means, against each item's chain on one plain tape, its
        # latents tapped, and readouts computed afresh from its x_hat
        w = 3.0
        sched = make_schedule("linear-beta", 1000)
        plan = make_step_plan(6)
        k_last = 3
        prompts = [(4, 1), (6,), (0, 2, 3), (5, 7)]
        z0s = np.random.default_rng(53).standard_normal((4, 16)).astype(np.float32)
        text, den = baseline_text, baseline_denoiser
        trainable, step = ((text, prompt_finetune_step) if regime == "prompt-chain"
                           else (den, unet_finetune_step))
        trainable.set_requires_grad(True)
        frozen = den if trainable is text else text
        chain_w = w if cfg_in_chain else 1.0
        result = step(trainable, frozen, baseline_image, baseline_world, prompts, list(z0s),
                      plan, k_last, sched, spec, sampler="ddim", w=chain_w)

        transitions = plan.transitions()
        split = len(transitions) - k_last
        tape = ta.Tape()
        taps, x_hats = [], []
        with tape:
            total = None
            for prompt, z0 in zip(prompts, z0s):
                c = text_encode(text, prompt)
                z = Tensor(walk_chain(den, transitions[:split], Tensor(z0), c, chain_w,
                                      "ddim", sched))
                taps.append([])
                for t, t_prev in transitions[split:]:
                    taps[-1].append(z.id)
                    z = guided_step(den, t, t_prev, z, c, chain_w, "ddim", sched)
                li = combined_loss(z, prompt, spec, world=baseline_world,
                                   image_params=baseline_image, text_params=text)
                total = li if total is None else ta.add(total, li)
                x_hats.append(z)
            loss = ta.mul(total, 1.0 / len(prompts))
        g = ta.backward(tape, loss, tap_ids=[tid for item in taps for tid in item])
        norms = [[float(np.linalg.norm(g[tid])) if tid in g else 0.0 for tid in item]
                 for item in taps]
        sums = {kind: 0.0 for kind, _ in READOUT_SPEC.entries}
        for x, prompt in zip(x_hats, prompts):
            vals = reward_values(Tensor(x.data), prompt, READOUT_SPEC, world=baseline_world,
                                 image_params=baseline_image, text_params=text)
            for kind, v in vals.items():
                sums[kind] += v

        assert result.step_grad_norms == norms
        assert any(n > 0 for item in norms for n in item)
        assert result.reward_means == {kind: v / len(prompts) for kind, v in sums.items()}

# ---------------------------------------------------------------------------
# directional-derivative oracle: <grad L, v> against (L(p+hv) - L(p-hv)) / 2h
# along seeded unit directions v over every trainable entry, in float64; two
# loss evaluations per direction instead of two per parameter


def _check_directional(named, grads, objective, n_dirs=3, h=1e-5, seed=0):
    assert set(grads) == set(named)
    rng = np.random.default_rng(seed)
    for _ in range(n_dirs):
        v = {k: rng.standard_normal(t.data.shape) for k, t in named.items()}
        norm = math.sqrt(sum(float(np.sum(a * a)) for a in v.values()))
        analytic = sum(float(np.sum(grads[k] * v[k])) for k in named) / norm

        def loss_at(step):
            return objective({k: Tensor(t.data + step * v[k] / norm)
                              for k, t in named.items()})

        fd = (loss_at(h) - loss_at(-h)) / (2 * h)
        assert abs(analytic - fd) <= 1e-7 + 1e-5 * abs(fd), (analytic, fd)


class TestDirectionalOracle:
    @pytest.mark.parametrize("batch", [1, 3])
    @pytest.mark.parametrize("k_last", [1, 4], ids=["K1", "KN"])
    @pytest.mark.parametrize("cfg_in_chain", [False, True])
    @pytest.mark.parametrize("sampler", ["ddim", "euler"])
    def test_unet_chain(self, sampler, cfg_in_chain, k_last, batch):
        # the prefix is pinned at its unperturbed (detached) latent and the
        # guidance is written out here, as in the text-encoder oracle above
        w = 3.0

        def guided_eps(den, t, z, c):
            eps = denoise(den, t, z, c)
            if cfg_in_chain:
                eps_u = denoise(den, t, z, den.null_cond)
                eps = ta.sub(ta.mul(eps, w), ta.mul(eps_u, w - 1.0))
            return eps

        with ta.default_dtype(np.float64):
            world, text, image, den = _f64_setup()
            den.set_requires_grad(True)
            sched = make_schedule("linear-beta", 1000)
            plan = make_step_plan(4)
            transitions = plan.transitions()
            split = len(transitions) - k_last
            prompts = [(1, 3), (0,), (2, 5, 7)][:batch]
            spec = RewardSpec.default()
            z0s = np.random.default_rng(17).standard_normal((batch, world.d))

            with ta.pause_recording():
                z_mids = []
                for prompt, z0 in zip(prompts, z0s):
                    c = text_encode(text, prompt)
                    z = Tensor(z0)
                    for t, t_prev in transitions[:split]:
                        z = sampler_step(sampler, z, guided_eps(den, t, z, c),
                                         t, t_prev, sched)
                    z_mids.append(z.data.copy())

            def objective(named):
                dp = DenoiserParams(**{k.split("/", 1)[1]: t for k, t in named.items()})
                total = 0.0
                for prompt, z_mid in zip(prompts, z_mids):
                    c = text_encode(text, prompt)
                    z = Tensor(z_mid)
                    for t, t_prev in transitions[split:]:
                        z = sampler_step(sampler, z, guided_eps(dp, t, z, c),
                                         t, t_prev, sched)
                    total += combined_loss(z, prompt, spec, world=world,
                                           image_params=image, text_params=text).item()
                return total / batch

            result = unet_finetune_step(den, text, image, world, prompts, list(z0s),
                                        plan, k_last, sched, spec, sampler=sampler,
                                        w=w if cfg_in_chain else 1.0)
            _check_directional(den.named(), result.grads, objective)

    def test_direct(self):
        with ta.default_dtype(np.float64):
            world, text, image, den = _f64_setup()
            text.set_requires_grad(True)
            sched = make_schedule("linear-beta", 1000)
            spec = RewardSpec.default()
            rng = np.random.default_rng(23)
            batch = [sample_pair(world, rng) for _ in range(3)]
            ts = [int(t) for t in rng.integers(0, 1000, size=3)]
            noises = rng.standard_normal((3, world.d))

            def objective(named):
                tp = TextEncoderParams(**{f: named[f"text/{f}"] for f in _TEXT_FIELDS})
                total = 0.0
                for (x, prompt), t, eps in zip(batch, ts, noises):
                    z_t = forward_diffuse(Tensor(x), t, Tensor(eps), sched)
                    eps_hat = denoise(den, t, z_t, text_encode(tp, prompt))
                    x_hat = predict_x0(z_t, eps_hat, t, sched)
                    total += combined_loss(x_hat, prompt, spec, world=world,
                                           image_params=image, text_params=tp).item()
                return total / len(batch)

            result = direct_finetune_step(text, den, image, world, batch, ts, noises,
                                          sched, spec)
            _check_directional(text.named(), result.grads, objective)


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

    def test_unet_chain_reads_every_update(self, baseline_state, monkeypatch, tmp_path):
        # the unet-chain regime replaces the denoiser's tensors after every
        # iteration, and each iteration's step buffer copies the biases it
        # is built from: a 2-iteration run at w=3 is the first two rows of
        # the manifest's 3-iteration run, whose bytes the manifest pins
        rows, layers = ta.step_rows, []

        def kept_layers(*args):
            layers.append(args[-1])
            return rows(*args)

        cfg = test_byte_manifest.RUNS["unet-chain"]
        assert cfg.chain_cfg_scale == 3.0
        _, full = run_training(cfg, baseline_state, out_dir=str(tmp_path))
        assert (test_byte_manifest._file_digest(tmp_path / "metrics.csv")
                == test_byte_manifest._manifest()["entries"]["unet-chain/metrics.csv"])
        monkeypatch.setattr(ta, "step_rows", kept_layers)
        _, short = run_training(dataclasses.replace(cfg, iterations=2), baseline_state)
        assert short.rows == full.rows[:2]
        first, second = layers
        assert all(b.data.tobytes() != b_next.data.tobytes()
                   for (_, b), (_, b_next) in zip(first, second))

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

    def test_non_finite_loss_stops_before_update(self, baseline_state, tmp_path):
        # lr=1e30 blows the text encoder up after one update: the loss of
        # iteration 1 is inf, so no update or file may follow it
        cfg = TrainConfig(lr=1e30, iterations=4, batch_size=1, n_steps=3, k_last=1,
                          checkpoint_interval=1)
        out_dir = tmp_path / "run"
        with pytest.raises(FloatingPointError, match="iteration 1: non-finite"):
            run_training(cfg, baseline_state, out_dir=str(out_dir))
        assert sorted(p.name for p in out_dir.iterdir()) == ["checkpoint_000001.rcpt"]

    @pytest.mark.parametrize("kwargs, nodes", [
        ({"regime": "prompt-chain"}, 16),
        ({"regime": "unet-chain", "chain_cfg_scale": 3.0, "sampler": "euler"}, 12),
        ({"regime": "direct"}, 15),
    ], ids=["prompt-chain", "unet-chain", "direct"])
    def test_one_step_records_one_node_per_op(self, baseline_state, monkeypatch, kwargs,
                                              nodes):
        # a constant operand is a 0-D tensor: no op records a scalar node kind
        tapes = []

        class Counted(ta.Tape):
            def __init__(self):
                super().__init__()
                tapes.append(self)

        monkeypatch.setattr(ta, "Tape", Counted)
        run_training(TrainConfig(iterations=1, **kwargs), baseline_state)
        (tape,) = tapes
        ops = [node.op for node in tape.nodes]
        assert len(ops) == nodes
        assert not [op for op in ops if op.endswith("_scalar")]

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
