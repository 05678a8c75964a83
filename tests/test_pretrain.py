"""Pretraining tests: contrastive stage, denoiser stage, baseline quality.

Closed-form values (log-batch loss at zero logits, the untrained-MSE level)
are asserted analytically; trained-quality thresholds are frozen from oracle
runs of the shipped recipe and hold with wide margin.
"""

import math

import numpy as np
import pytest

from rewardtune import tensorad as ta
from rewardtune.data import make_prompt_sets, make_world, sample_pair
from rewardtune.finetune import OptimizerState, collect_grads, optimizer_step
from rewardtune.models import (
    DenoiserParams,
    ImageEncoderParams,
    TextEncoderParams,
    init_denoiser,
    init_image_encoder,
    init_text_encoder,
    state_digest,
    text_encode,
    denoise,
)
from rewardtune.pretrain import (
    TEMP_INIT,
    NoisedBatch,
    PretrainConfig,
    clip_holdout_stats,
    clip_pretrain,
    contrastive_loss,
    contrastive_loss_from_logits,
    denoiser_loss,
    diffusion_holdout_mse,
    diffusion_pretrain,
    make_pretrained_baseline,
)
from rewardtune.rewards import reward_clip_constraint
from rewardtune.schedule import forward_diffuse, make_schedule, make_step_plan, sampler_step
from rewardtune.tensorad import Tensor
from rewardtune.util import derive_seed
from test_finetune import _check_directional, _f64_setup


def moving_average(values, window):
    vals = np.asarray(values, dtype=np.float64)
    if len(vals) < window:
        return vals.copy()
    kernel = np.ones(window) / window
    return np.convolve(vals, kernel, mode="valid")


def _logit_matrix(values):
    """The (B, B) logit Tensor of a nested list of floats."""
    return Tensor(np.asarray(values, dtype=np.float32))


def _oracle_symmetric_ce(mat):
    """Independent float64 recomputation of the symmetric cross-entropy."""
    mat = np.asarray(mat, dtype=np.float64)
    b = mat.shape[0]

    def lse(v):
        m = v.max()
        return m + np.log(np.exp(v - m).sum())

    ce_t = np.mean([lse(mat[i]) - mat[i, i] for i in range(b)])
    ce_i = np.mean([lse(mat[:, i]) - mat[i, i] for i in range(b)])
    return 0.5 * (ce_t + ce_i)


class TestContrastiveLoss:
    def test_zero_logits_equal_log_batch(self):
        for b in (2, 4, 7):
            logits = _logit_matrix(np.zeros((b, b)))
            loss = contrastive_loss_from_logits(logits)
            assert abs(loss.item() - math.log(b)) < 1e-6

    def test_strong_diagonal_drives_loss_to_zero(self):
        mat = np.full((4, 4), -20.0)
        np.fill_diagonal(mat, 20.0)
        loss = contrastive_loss_from_logits(_logit_matrix(mat))
        assert loss.item() < 1e-6

    def test_matches_independent_recomputation(self):
        rng = np.random.default_rng(3)
        mat = rng.normal(scale=2.0, size=(5, 5))
        loss = contrastive_loss_from_logits(_logit_matrix(mat))
        assert abs(loss.item() - _oracle_symmetric_ce(mat)) < 1e-5

    def test_symmetric_under_transpose(self):
        rng = np.random.default_rng(4)
        mat = rng.normal(size=(4, 4))
        a = contrastive_loss_from_logits(_logit_matrix(mat)).item()
        b = contrastive_loss_from_logits(_logit_matrix(mat.T)).item()
        assert a == b

    def test_needs_at_least_two_pairs(self):
        with pytest.raises(ValueError, match="at least 2"):
            contrastive_loss_from_logits(_logit_matrix([[0.0]]))


def _contrastive_batch(b, seed=43):
    """Fresh encoders, a world and ``b`` drawn (x, prompt) pairs."""
    world = make_world(derive_seed(seed, "world"))
    text = init_text_encoder(derive_seed(seed, "init-text"))
    image = init_image_encoder(derive_seed(seed, "init-image"))
    rng = np.random.default_rng(seed)
    return text, image, [sample_pair(world, rng) for _ in range(b)]


def _oracle_contrastive(text, image, log_temp, batch):
    """The contrastive loss recomputed in float64 NumPy from the weights:
    both encoders, unit embeddings, logits, symmetric cross-entropy."""
    tw = {k: t.data.astype(np.float64) for k, t in text.named().items()}
    iw = {k: t.data.astype(np.float64) for k, t in image.named().items()}
    pooled = np.stack([tw["text/embed"][list(p)].mean(axis=0) for _, p in batch])
    t_emb = np.tanh(pooled @ tw["text/w1"] + tw["text/b1"]) @ tw["text/w2"] + tw["text/b2"]
    xs = np.stack([x for x, _ in batch]).astype(np.float64)
    i_emb = np.tanh(xs @ iw["image/w1"] + iw["image/b1"]) @ iw["image/w2"] + iw["image/b2"]
    t_emb /= np.linalg.norm(t_emb, axis=1, keepdims=True)
    i_emb /= np.linalg.norm(i_emb, axis=1, keepdims=True)
    return _oracle_symmetric_ce(np.exp(log_temp) * t_emb @ i_emb.T)


class TestContrastiveBatch:
    """The stage's loss over whole batches at pretrain's default batch size."""

    def test_matches_numpy_recomputation_at_default_batch(self):
        b = PretrainConfig().batch_size
        assert b == 16
        text, image, batch = _contrastive_batch(b)
        log_temp = Tensor(np.asarray(TEMP_INIT))
        got = contrastive_loss(text, image, log_temp, batch).item()
        want = _oracle_contrastive(text, image, float(log_temp.data), batch)
        assert abs(got - want) < 1e-5, (got, want)

    @staticmethod
    def _tape_nodes(b):
        text, image, batch = _contrastive_batch(b)
        text.set_requires_grad(True)
        image.set_requires_grad(True)
        with ta.Tape() as tape:
            contrastive_loss(text, image, Tensor(np.asarray(TEMP_INIT), requires_grad=True),
                             batch)
        return len(tape.nodes)

    def test_op_budget(self):
        # one logit matmul, not B * B scalar dot/mul nodes: the text encodes
        # grow with B, the rest of the loss does not
        at16 = self._tape_nodes(16)
        assert at16 < 200
        assert self._tape_nodes(32) < 2 * at16


class TestPretrainConfig:
    def test_batch_size_floor(self):
        with pytest.raises(ValueError, match="batch size"):
            PretrainConfig(batch_size=1)

    def test_null_drop_range(self):
        with pytest.raises(ValueError, match="null_drop"):
            PretrainConfig(null_drop=1.0)
        with pytest.raises(ValueError, match="null_drop"):
            PretrainConfig(null_drop=-0.1)

    @pytest.mark.parametrize("kwargs,match", [
        (dict(lr=0.0), "learning rate"),
        (dict(lr=-1e-3), "learning rate"),
        (dict(iterations=-1), "iterations"),
        (dict(grad_clip=0.0), "grad_clip"),
        (dict(grad_clip=-1.0), "grad_clip"),
    ])
    def test_invalid_values_rejected(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            PretrainConfig(**kwargs)

    @pytest.mark.parametrize("key", ["temp_init", "log_temp_max"])
    def test_from_dict_rejects_removed_keys(self, key):
        with pytest.raises(ValueError, match=f"unknown config keys: {key}"):
            PretrainConfig.from_dict({"iterations": 3, key: 1.0})

    def test_clipping_can_be_disabled(self):
        assert PretrainConfig(grad_clip=None).grad_clip is None


@pytest.fixture(scope="module")
def clip_run():
    """One short contrastive run on a fresh world (independent of the
    session baseline so its statistics stay visible to these tests)."""
    world = make_world(derive_seed(7, "world"))
    text = init_text_encoder(derive_seed(7, "init-text"))
    image = init_image_encoder(derive_seed(7, "init-image"))
    cfg = PretrainConfig(seed=derive_seed(7, "clip"))
    text, image, info = clip_pretrain(text, image, world, cfg)
    return world, text, image, info


class TestClipPretrain:
    def test_loss_decreases(self, clip_run):
        _, _, _, info = clip_run
        smoothed = moving_average(info["losses"], 50)
        assert smoothed[-1] < 0.5 * smoothed[0]

    def test_temperature_stays_positive_and_bounded(self, clip_run):
        _, _, _, info = clip_run
        temps = np.asarray(info["temperatures"])
        assert np.all(temps > 0)
        assert np.all(temps <= 100.0 * (1 + 1e-6))

    def test_holdout_margin_and_accuracy(self, clip_run):
        world, text, image, _ = clip_run
        _, holdout = make_prompt_sets(world, 56, 36)
        matched, mismatched, acc = clip_holdout_stats(
            text, image, world, list(holdout), seed=11
        )
        assert matched - mismatched >= 0.3
        assert acc >= 0.9

    def test_deterministic_given_seed(self, clip_run):
        world, _, _, _ = clip_run
        cfg = PretrainConfig(seed=derive_seed(7, "clip"), iterations=120)
        results = []
        for _ in range(2):
            text = init_text_encoder(derive_seed(7, "init-text"))
            image = init_image_encoder(derive_seed(7, "init-image"))
            clip_pretrain(text, image, world, cfg)
            results.append((state_digest(text.state()), state_digest(image.state())))
        assert results[0] == results[1]


def _per_prompt_holdout_stats(text, image, world, prompts, seed):
    """clip_holdout_stats as a loop over prompts: one 1-D image draw per
    prompt in order, then one 1-D cosine per (prompt, own image) and per
    (prompt, next prompt's image), read back as Python floats."""
    rng = np.random.default_rng(derive_seed(seed, "clip-holdout"))
    xs = []
    for p in prompts:
        x = world.pattern_sum(p).astype(np.float64)
        x = x + world.noise_scale * rng.standard_normal(world.d)
        xs.append(x.astype(np.float32))
    matched, mismatched = [], []
    with ta.pause_recording():
        for i, p in enumerate(prompts):
            j = (i + 1) % len(prompts)
            matched.append(reward_clip_constraint(Tensor(xs[i]), p, image, text).item())
            mismatched.append(reward_clip_constraint(Tensor(xs[j]), p, image, text).item())
    matched, mismatched = np.asarray(matched), np.asarray(mismatched)
    return (float(matched.mean()), float(mismatched.mean()),
            float(np.mean(matched > mismatched)))


class TestClipHoldoutStats:
    @pytest.mark.parametrize("seed", [11, 42])
    @pytest.mark.parametrize("trained", [False, True], ids=["fresh", "trained"])
    def test_rows_equal_per_prompt_loop(self, clip_run, seed, trained):
        world, text, image, _ = clip_run
        if not trained:
            text = init_text_encoder(derive_seed(seed, "init-text"))
            image = init_image_encoder(derive_seed(seed, "init-image"))
        _, holdout = make_prompt_sets(world, 56, 36)
        with ta.Tape() as tape:  # detached: nothing is recorded on an open tape
            got = clip_holdout_stats(text, image, world, list(holdout), seed)
        assert not tape.nodes
        want = _per_prompt_holdout_stats(text, image, world, list(holdout), seed)
        assert [v.hex() for v in got] == [v.hex() for v in want]


@pytest.fixture(scope="module")
def diffusion_run():
    """Short denoiser training on the same fresh world as the clip fixture."""
    world = make_world(derive_seed(7, "world"))
    text = init_text_encoder(derive_seed(7, "init-text"))
    image = init_image_encoder(derive_seed(7, "init-image"))
    clip_pretrain(text, image, world, PretrainConfig(seed=derive_seed(7, "clip")))
    den = init_denoiser(derive_seed(7, "init-denoiser"))
    sched = make_schedule("linear-beta", 1000)
    cfg = PretrainConfig(seed=derive_seed(7, "diff"), iterations=800,
                         batch_size=16, lr=3e-3)
    den, info = diffusion_pretrain(den, text, world, sched, cfg)
    return world, text, den, sched, info


class TestDiffusionPretrain:
    def test_untrained_error_sits_at_noise_variance(self):
        # an untrained net predicts ~0, so the error is ~E|eps|^2 / d = 1
        world = make_world(derive_seed(7, "world"))
        text = init_text_encoder(derive_seed(7, "init-text"))
        den = init_denoiser(derive_seed(7, "init-denoiser"))
        sched = make_schedule("linear-beta", 1000)
        mse = diffusion_holdout_mse(den, text, world, sched, seed=3)
        assert 0.8 < mse < 1.2

    def test_short_training_reaches_half_error(self, diffusion_run):
        world, text, den, sched, _ = diffusion_run
        mse = diffusion_holdout_mse(den, text, world, sched, seed=3)
        assert mse < 0.5

    def test_loss_trajectory_decreases(self, diffusion_run):
        _, _, _, _, info = diffusion_run
        smoothed = moving_average(info["losses"], 100)
        assert smoothed[-1] < 0.5 * smoothed[0]

    def test_text_encoder_left_untouched(self, diffusion_run):
        world, text, _, sched, _ = diffusion_run
        before = state_digest(text.state())
        den = init_denoiser(derive_seed(8, "init-denoiser"))
        cfg = PretrainConfig(seed=13, iterations=40, batch_size=8, lr=3e-3)
        diffusion_pretrain(den, text, world, sched, cfg)
        assert state_digest(text.state()) == before

    def test_non_finite_loss_stops_before_update(self):
        # lr=1e30 blows the denoiser up after one update: iteration 1's loss
        # is NaN, so no second update may follow
        world = make_world(derive_seed(7, "world"))
        text = init_text_encoder(derive_seed(7, "init-text"))
        den = init_denoiser(derive_seed(7, "init-denoiser"))
        sched = make_schedule("linear-beta", 1000)
        cfg = PretrainConfig(seed=3, iterations=3, batch_size=2, lr=1e30)
        with pytest.raises(FloatingPointError, match="iteration 1: non-finite"):
            diffusion_pretrain(den, text, world, sched, cfg)

    def test_deterministic_given_seed(self, diffusion_run):
        world, text, _, sched, _ = diffusion_run
        cfg = PretrainConfig(seed=29, iterations=60, batch_size=8, lr=3e-3)
        digests = []
        for _ in range(2):
            den = init_denoiser(derive_seed(7, "init-denoiser"))
            diffusion_pretrain(den, text, world, sched, cfg)
            digests.append(state_digest(den.state()))
        assert digests[0] == digests[1]


def _per_item_pretrain(denoiser, text_params, world, sched, config):
    """The denoiser stage as a loop over items, each its own 1-D ops on one
    tape, summed in item order: the reference the batched tape reproduces."""
    rng = np.random.default_rng(derive_seed(config.seed, "diffusion-pretrain"))
    denoiser.set_requires_grad(True)
    opt = OptimizerState.for_params(denoiser.named(), weight_decay=config.weight_decay)
    losses = []
    for it in range(config.iterations):
        tape = ta.Tape()
        with tape:
            total = None
            for _ in range(config.batch_size):
                x, prompt = sample_pair(world, rng)
                t = int(rng.integers(0, sched.t_train))
                eps = rng.standard_normal(world.d).astype(np.float32)
                use_null = bool(rng.random() < config.null_drop)
                c = denoiser.null_cond if use_null else text_encode(text_params, prompt)
                z_t = forward_diffuse(Tensor(x), t, Tensor(eps), sched)
                eps_hat = denoise(denoiser, t, z_t, c)
                li = ta.squared_error(eps_hat, Tensor(eps))
                total = li if total is None else ta.add(total, li)
            loss = ta.mul(total, 1.0 / config.batch_size)
        grads = ta.backward(tape, loss)
        losses.append(loss.item())
        named = denoiser.named()
        denoiser.apply_update(optimizer_step(named, collect_grads(named, grads), losses[-1], opt,
                                             config.lr, config.grad_clip, it))
    return losses


class TestBatchedDenoiserStage:
    """One taped (B, ·) pass per iteration reproduces the per-item loop."""

    @pytest.mark.parametrize("null_drop", [0.0, 0.1, 0.5])
    @pytest.mark.parametrize("batch", [2, 9, 32])
    def test_matches_per_item_loop(self, batch, null_drop):
        world = make_world(derive_seed(7, "world"))
        text = init_text_encoder(derive_seed(7, "init-text"))
        sched = make_schedule("linear-beta", 1000)
        cfg = PretrainConfig(seed=derive_seed(31, batch), iterations=6, batch_size=batch,
                             lr=3e-3, null_drop=null_drop)
        want_den = init_denoiser(derive_seed(7, "init-denoiser"))
        want = _per_item_pretrain(want_den, text, world, sched, cfg)
        den, info = diffusion_pretrain(init_denoiser(derive_seed(7, "init-denoiser")),
                                       text, world, sched, cfg)
        assert np.array(info["losses"]).tobytes() == np.array(want).tobytes()
        assert state_digest(den.state()) == state_digest(want_den.state())

    def test_holdout_matches_per_draw_loop(self):
        world = make_world(derive_seed(7, "world"))
        text = init_text_encoder(derive_seed(7, "init-text"))
        den = init_denoiser(derive_seed(7, "init-denoiser"))
        sched = make_schedule("linear-beta", 1000)
        rng = np.random.default_rng(derive_seed(3, "diffusion-holdout"))
        total = 0.0
        with ta.pause_recording():
            for _ in range(200):
                x, prompt = sample_pair(world, rng)
                t = int(rng.integers(0, sched.t_train))
                eps = rng.standard_normal(world.d).astype(np.float32)
                z_t = forward_diffuse(Tensor(x), t, Tensor(eps), sched)
                eps_hat = denoise(den, t, z_t, text_encode(text, prompt))
                total += ta.squared_error(eps_hat, Tensor(eps)).item()
        got = diffusion_holdout_mse(den, text, world, sched, seed=3)
        assert got.hex() == (total / 200).hex()


# directional-derivative oracle for both pretraining losses, in float64


class TestPretrainingLossOracle:
    @pytest.mark.parametrize("null_drop", [None, 0.5], ids=["no-null-rows", "null-rows"])
    def test_denoiser_loss(self, null_drop):
        with ta.default_dtype(np.float64):
            world, text, _, den = _f64_setup()
            den.set_requires_grad(True)
            sched = make_schedule("linear-beta", 1000)
            rng = np.random.default_rng(41)
            batch = NoisedBatch.draw(world, sched, rng, 6, null_drop)
            assert bool(batch.null_rows) == (null_drop is not None)
            cond = batch.conditioning(text, {})
            with ta.Tape() as tape:
                loss = denoiser_loss(den, batch, cond, sched)
            grads = ta.backward(tape, loss)

            def objective(named):
                dp = DenoiserParams(**{k.split("/", 1)[1]: t for k, t in named.items()})
                return denoiser_loss(dp, batch, cond, sched).item()

            _check_directional(den.named(), collect_grads(den.named(), grads), objective)

    def test_contrastive_loss(self):
        with ta.default_dtype(np.float64):
            world, text, image, _ = _f64_setup()
            text.set_requires_grad(True)
            image.set_requires_grad(True)
            log_temp = Tensor(np.asarray(TEMP_INIT), requires_grad=True)
            bag = {**text.named(), **image.named(), "clip/log_temp": log_temp}
            rng = np.random.default_rng(43)
            batch = [sample_pair(world, rng) for _ in range(4)]
            with ta.Tape() as tape:
                loss = contrastive_loss(text, image, log_temp, batch)
            grads = ta.backward(tape, loss)

            def objective(named):
                def part(cls):
                    return cls(**{k.split("/", 1)[1]: t for k, t in named.items()
                                  if k.startswith(cls.prefix + "/")})
                return contrastive_loss(part(TextEncoderParams), part(ImageEncoderParams),
                                        named["clip/log_temp"], batch).item()

            _check_directional(bag, collect_grads(bag, grads), objective)

    def test_contrastive_loss_default_batch(self):
        # the same oracle at pretrain's default batch size, B = 16
        with ta.default_dtype(np.float64):
            world, text, image, _ = _f64_setup()
            text.set_requires_grad(True)
            image.set_requires_grad(True)
            log_temp = Tensor(np.asarray(TEMP_INIT), requires_grad=True)
            bag = {**text.named(), **image.named(), "clip/log_temp": log_temp}
            rng = np.random.default_rng(47)
            batch = [sample_pair(world, rng) for _ in range(PretrainConfig().batch_size)]
            with ta.Tape() as tape:
                loss = contrastive_loss(text, image, log_temp, batch)
            grads = ta.backward(tape, loss)

            def objective(named):
                t = TextEncoderParams(**{k.split("/", 1)[1]: v for k, v in named.items()
                                         if k.startswith("text/")})
                i = ImageEncoderParams(**{k.split("/", 1)[1]: v for k, v in named.items()
                                          if k.startswith("image/")})
                return contrastive_loss(t, i, named["clip/log_temp"], batch).item()

            _check_directional(bag, collect_grads(bag, grads), objective)


class TestMovingAverage:
    def test_matches_numpy_windows(self):
        vals = np.arange(10.0)
        got = moving_average(vals, 4)
        want = [vals[i:i + 4].mean() for i in range(7)]
        assert np.allclose(got, want)

    def test_short_input_returned_whole(self):
        got = moving_average([1.0, 2.0], 5)
        assert np.allclose(got, [1.0, 2.0])


class TestBaselineQuality:
    """The seed-42 baseline every fine-tuning experiment starts from."""

    def test_holdout_error_near_noise_floor(self, baseline_state, baseline_world,
                                            baseline_text, baseline_denoiser):
        sched = make_schedule("linear-beta", 1000)
        mse = diffusion_holdout_mse(baseline_denoiser, baseline_text,
                                    baseline_world, sched, seed=9)
        # the analytic optimum for 0.1 pattern noise is ~0.05
        assert mse < 0.08

    def test_sampling_lands_near_prompt_target(self, baseline_world,
                                               baseline_text, baseline_denoiser):
        sched = make_schedule("linear-beta", 1000)
        plan = make_step_plan(25)
        _, holdout = make_prompt_sets(baseline_world, 56, 36)
        thresh = 2 * baseline_world.noise_scale * math.sqrt(baseline_world.d)
        hits = 0
        with ta.pause_recording():
            for i, prompt in enumerate(holdout):
                rng = np.random.default_rng(derive_seed(777, i))
                z = Tensor(rng.standard_normal(baseline_world.d).astype(np.float32))
                c = text_encode(baseline_text, prompt)
                for t, t_prev in plan.transitions():
                    eps = denoise(baseline_denoiser, t, z, c)
                    z = sampler_step("ddim", z, eps, t, t_prev, sched)
                dist = np.linalg.norm(z.data - baseline_world.pattern_sum(prompt))
                hits += dist < thresh
        assert hits >= 0.8 * len(holdout)

    def test_conditioning_matters(self, baseline_world, baseline_text,
                                  baseline_denoiser):
        # prompt-conditioned samples track their target; null-conditioned
        # samples do not
        sched = make_schedule("linear-beta", 1000)
        plan = make_step_plan(25)
        _, holdout = make_prompt_sets(baseline_world, 56, 36)
        null = Tensor(baseline_denoiser.null_cond.data)

        def end_distance(prompt, cond, seed):
            rng = np.random.default_rng(seed)
            z = Tensor(rng.standard_normal(baseline_world.d).astype(np.float32))
            for t, t_prev in plan.transitions():
                eps = denoise(baseline_denoiser, t, z, cond)
                z = sampler_step("ddim", z, eps, t, t_prev, sched)
            return float(np.linalg.norm(z.data - baseline_world.pattern_sum(prompt)))

        cond_d, null_d = [], []
        with ta.pause_recording():
            for i, prompt in enumerate(list(holdout)[:12]):
                seed = derive_seed(778, i)
                cond_d.append(end_distance(prompt, text_encode(baseline_text, prompt), seed))
                null_d.append(end_distance(prompt, null, seed))
        assert np.mean(cond_d) < np.mean(null_d)

    def test_clip_stage_separates_prompts(self, baseline_world, baseline_text,
                                          baseline_image):
        _, holdout = make_prompt_sets(baseline_world, 56, 36)
        matched, mismatched, acc = clip_holdout_stats(
            baseline_text, baseline_image, baseline_world, list(holdout), seed=11
        )
        assert matched - mismatched >= 0.3
        assert acc >= 0.9

    def test_single_stage_override_is_honored(self):
        # a caller-supplied denoiser config replaces the staged recipe
        cfg = PretrainConfig(seed=1, iterations=2, batch_size=4, lr=1e-3)
        ccfg = PretrainConfig(seed=1, iterations=2, batch_size=4, lr=1e-3)
        state = make_pretrained_baseline(seed=5, clip_config=ccfg,
                                         diffusion_config=cfg)
        assert "denoiser/w1" in state and "world/noise_scale" in state
