"""End-to-end acceptance gates, one test per release criterion.

Each test verifies its claim against an independent check: central finite
differences, byte-for-byte comparison, digest equality, an analytic bound,
or a threshold frozen from a calibration run of the exact configuration
used here. Every test ends by printing one "criterion N (...): PASS" line;
under ``pytest -v`` the test list itself is the pass/fail scorecard, one
line per criterion. Runtime budgets are asserted inside the tests that
carry one.

The heaviest shared input -- the pretrained seed-42 baseline -- comes from
the session-scoped ``baseline_state`` fixture (set REWARDTUNE_TEST_CACHE to
reuse it across pytest invocations).
"""

import json
import os
import time

import numpy as np
import pytest

from rewardtune import tensorad as ta
from rewardtune.data import make_prompt_sets, make_world, world_from_state
from rewardtune.evalcli import cli_main, collapse_experiment, evaluate
from rewardtune.finetune import (
    TrainConfig,
    direct_finetune_step,
    prompt_finetune_step,
    run_training,
)
from rewardtune.inference import (
    continuity_probe,
    mix_styles,
    sample,
    sample_from_cond,
)
from rewardtune.models import (
    DenoiserParams,
    TextEncoderParams,
    denoise,
    init_denoiser,
    init_image_encoder,
    init_text_encoder,
    load_checkpoint,
    save_checkpoint,
    serialize_state,
    state_digest,
    text_encode,
)
from rewardtune.rewards import DEFAULT_WEIGHTS, RewardSpec, combined_loss
from rewardtune.schedule import make_schedule, make_step_plan, sampler_step
from rewardtune.tensorad import Tensor
from rewardtune.util import derive_seed

_TEXT_FIELDS = ("embed", "w1", "b1", "w2", "b2")

# The golden text fine-tune shared by criteria 4, 5, and 7. Calibration of
# this exact run: baseline holdout combined reward 189.2298, analytic
# maximum 200.0, fine-tuned result 26.0% of the way across that gap; the
# gate below requires >= 20%.
GOLDEN_TUNE = TrainConfig(iterations=500, lr=5e-4, seed=0)

# Calibration of the collapse experiment at this configuration: diversity
# fraction 0.039 without the constraint, 1.385 with gamma_clip=100.
COLLAPSE_TUNE = TrainConfig(iterations=400, lr=3e-3, batch_size=4, seed=11)


@pytest.fixture(scope="module")
def tuned_run(baseline_state):
    """The golden 500-iteration fine-tune, trained once; elapsed recorded."""
    start = time.perf_counter()
    state_out, _ = run_training(GOLDEN_TUNE, baseline_state)
    return state_out, time.perf_counter() - start


def _fresh_models(seed=21):
    """Small untrained models + world, for engine-level criteria."""
    world = make_world(derive_seed(seed, "world"))
    text = init_text_encoder(derive_seed(seed, "text"))
    image = init_image_encoder(derive_seed(seed, "image"))
    den = init_denoiser(derive_seed(seed, "den"))
    return world, text, image, den


def _rel_err(a, b, floor=1e-6):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return np.abs(a - b) / denom


def _combined_reward(entry):
    return sum(w * entry.reward_means[k] for k, w in DEFAULT_WEIGHTS.items())


def _partial_digest(state, prefix):
    return state_digest({k: v for k, v in state.items() if k.startswith(prefix + "/")})


def _tree_bytes(root):
    files = {}
    for dirpath, _, names in os.walk(root):
        for name in names:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                files[os.path.relpath(path, root)] = fh.read()
    return files


def _cli(args):
    rc = cli_main(list(args))
    assert rc == 0, f"command failed: {args}"


def test_criterion_01_chain_gradients_match_finite_differences():
    # N=5 chain, K in {1, 3, 5} recorded steps, float64 throughout so the
    # oracle comparison is not limited by f32 roundoff. The objective is the
    # truncated one the trainer optimizes: steps before the cut are pinned
    # at their baseline value, so the oracle differentiates only the suffix.
    start = time.perf_counter()
    with ta.default_dtype(np.float64):
        world, text, image, den = _fresh_models()
        text.set_requires_grad(True)
        sched = make_schedule("linear-beta", 1000)
        plan = make_step_plan(5)
        transitions = plan.transitions()
        prompt = (1, 3)
        spec = RewardSpec.default()
        z0 = np.random.default_rng(17).standard_normal(world.d)

        worst = 0.0
        for k_last in (1, 3, 5):
            split = len(transitions) - k_last
            with ta.pause_recording():
                c0 = text_encode(text, prompt)
                z = Tensor(z0.copy())
                for t, t_prev in transitions[:split]:
                    eps = denoise(den, t, z, c0)
                    z = sampler_step("ddim", z, eps, t, t_prev, sched)
                z_mid = z.data.copy()

            def objective(named, split=split, z_mid=z_mid):
                tp = TextEncoderParams(**{f: named[f"text/{f}"] for f in _TEXT_FIELDS})
                c = text_encode(tp, prompt)
                zz = Tensor(z_mid.copy())
                for t, t_prev in transitions[split:]:
                    eps = denoise(den, t, zz, c)
                    zz = sampler_step("ddim", zz, eps, t, t_prev, sched)
                return combined_loss(zz, prompt, spec, world=world,
                                     image_params=image, text_params=tp)

            fd = ta.finite_diff_grad(objective, text.named(), h=1e-3)
            result = prompt_finetune_step(text, den, image, world, [prompt],
                                          [z0], plan, k_last, sched, spec)
            for name, grad in result.grads.items():
                worst = max(worst, float(_rel_err(grad, fd[name]).max()))

    elapsed = time.perf_counter() - start
    assert worst < 1e-3, worst
    assert elapsed < 60.0, elapsed
    print(f"criterion 1 (chain gradients vs central finite differences, "
          f"worst rel err {worst:.3e} across every text parameter): PASS")


def test_criterion_02_checkpointing_bit_identical_and_memory_flat():
    start = time.perf_counter()
    world, text, image, den = _fresh_models()
    text.set_requires_grad(True)
    sched = make_schedule("linear-beta", 1000)
    prompt = (2, 5)
    spec = RewardSpec.default()
    rng = np.random.default_rng(11)

    # recompute-on-backward must be invisible: for every chain length the
    # checkpointed training step returns the same loss and gradients, bit
    # for bit, as one tape holding the whole chain
    for n in range(1, 9):
        plan = make_step_plan(n)
        z0 = rng.standard_normal(world.d).astype(np.float32)
        ckpt = prompt_finetune_step(text, den, image, world, [prompt], [z0],
                                    plan, n, sched, spec)
        tape = ta.Tape()
        with tape:
            c = text_encode(text, prompt)
            z = Tensor(z0)
            for t, t_prev in plan.transitions():
                eps = denoise(den, t, z, c)
                z = sampler_step("ddim", z, eps, t, t_prev, sched)
            loss = ta.mul(combined_loss(z, prompt, spec, world=world,
                                        image_params=image, text_params=text),
                          1.0)
        g = ta.backward(tape, loss)
        assert np.float32(ckpt.loss).tobytes() == \
            loss.data.astype(np.float32).tobytes(), n
        for name, leaf in text.named().items():
            assert ckpt.grads[name].tobytes() == g[leaf.id].tobytes(), (n, name)

    # memory bound: with the conditioning entering as a detached input, the
    # tape's peak live interior-activation count under checkpointing stays
    # within one step's activations plus the N retained boundary latents --
    # and is in fact constant in N, while the full tape grows linearly
    with ta.pause_recording():
        cond_val = text_encode(text, prompt).data.copy()
    den_tensors = den.tensors()
    z_fix = np.random.default_rng(29).standard_normal(world.d).astype(np.float32)

    def make_step(t, t_prev):
        def step(z_in, c_in, *dp):
            params = DenoiserParams(*dp)
            eps = denoise(params, t, z_in, c_in)
            return sampler_step("ddim", z_in, eps, t, t_prev, sched)
        return step

    def chain_peak(n, use_ckpt):
        with ta.Tape() as tape:
            z = Tensor(z_fix)
            c = Tensor(cond_val, requires_grad=True)
            for t, t_prev in make_step_plan(n).transitions():
                step = make_step(t, t_prev)
                z = (ta.checkpoint_segment(step, (z, c) + den_tensors)
                     if use_ckpt else step(z, c, *den_tensors))
            ta.backward(tape, z.sum())
        return tape.stats.peak_live_interior

    t_hi, t_hi_prev = make_step_plan(8).transitions()[0]
    with ta.Tape() as probe:
        make_step(t_hi, t_hi_prev)(Tensor(z_fix),
                                   Tensor(cond_val, requires_grad=True),
                                   *den_tensors)
    one_step = probe.stats.peak_live_interior
    assert one_step > 0

    peaks = []
    for n in range(1, 9):
        peak_ckpt = chain_peak(n, use_ckpt=True)
        peak_full = chain_peak(n, use_ckpt=False)
        assert peak_ckpt <= one_step + n, (n, peak_ckpt, one_step)
        assert peak_full >= n * one_step, (n, peak_full, one_step)
        peaks.append(peak_ckpt)
    assert len(set(peaks)) == 1, peaks

    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, elapsed
    print(f"criterion 2 (checkpointed gradients bit-identical for N=1..8; "
          f"peak {peaks[0]} activations vs one step {one_step} + N): PASS")


def test_criterion_03_one_step_chain_coincides_with_direct_regime():
    # a one-step plan evaluates the denoiser once at the top timestep and
    # jumps straight to the prediction, which is exactly the one-shot step
    # fed the matching noise draw (x=0, so z_t = sigma_t * eps)
    world, text, image, den = _fresh_models()
    text.set_requires_grad(True)
    sched = make_schedule("linear-beta", 1000)
    plan = make_step_plan(1)
    t_top = plan.transitions()[0][0]
    prompt = (4, 7)
    spec = RewardSpec.default()
    eps = np.random.default_rng(23).standard_normal(world.d).astype(np.float32)
    z0 = (np.float32(sched.sigma_at(t_top)) * eps).astype(np.float32)

    chain = prompt_finetune_step(text, den, image, world, [prompt], [z0],
                                 plan, 1, sched, spec)
    x_clean = np.zeros(world.d, dtype=np.float32)
    direct = direct_finetune_step(text, den, image, world, [(x_clean, prompt)],
                                  [t_top], [eps], sched, spec)

    loss_err = float(_rel_err(chain.loss, direct.loss))
    assert loss_err <= 1e-6, loss_err
    assert chain.grads.keys() == direct.grads.keys()
    worst = 0.0
    for name in chain.grads:
        worst = max(worst, float(_rel_err(chain.grads[name],
                                          direct.grads[name]).max()))
    assert worst <= 1e-6, worst
    print(f"criterion 3 (N=K=1 chain vs direct regime at t={t_top}, worst "
          f"grad rel err {worst:.1e}): PASS")


def test_criterion_04_finetuning_lifts_holdout_reward(baseline_state, tuned_run):
    tuned_state, train_elapsed = tuned_run
    start = time.perf_counter()
    world = world_from_state(baseline_state)
    holdout = make_prompt_sets(world, GOLDEN_TUNE.n_train_prompts,
                               GOLDEN_TUNE.n_holdout_prompts)[1]
    plan = make_step_plan(GOLDEN_TUNE.n_steps)
    seeds = (derive_seed(GOLDEN_TUNE.seed, "accept4", 0),
             derive_seed(GOLDEN_TUNE.seed, "accept4", 1))
    report = evaluate([("baseline", baseline_state), ("tuned", tuned_state)],
                      holdout, plan, 1.0, seeds)

    base = _combined_reward(report["baseline"])
    tuned = _combined_reward(report["tuned"])
    # analytic maximum of the combined default-weight reward: the two cosine
    # terms cap at 1.0 (100 each) and the style distance term caps at 0
    gap = 200.0 - base
    assert gap > 0, base
    assert tuned > base, (base, tuned)
    margin = (tuned - base) / gap
    assert margin >= 0.20, margin

    elapsed = train_elapsed + (time.perf_counter() - start)
    assert elapsed < 600.0, elapsed
    print(f"criterion 4 (holdout combined reward {base:.4f} -> {tuned:.4f}, "
          f"{margin:.1%} of the gap to the analytic max 200): PASS")


def test_criterion_05_frozen_components_stay_frozen(baseline_state, tuned_run):
    tuned_state, _ = tuned_run
    for prefix in ("denoiser", "image", "world"):
        assert _partial_digest(tuned_state, prefix) == \
            _partial_digest(baseline_state, prefix), prefix
    assert _partial_digest(tuned_state, "text") != \
        _partial_digest(baseline_state, "text")

    unet_cfg = TrainConfig(regime="unet-chain", iterations=2, batch_size=2,
                           n_steps=6, k_last=2, seed=5)
    unet_state, _ = run_training(unet_cfg, baseline_state)
    for prefix in ("text", "image", "world"):
        assert _partial_digest(unet_state, prefix) == \
            _partial_digest(baseline_state, prefix), prefix
    assert _partial_digest(unet_state, "denoiser") != \
        _partial_digest(baseline_state, "denoiser")
    print("criterion 5 (text stage leaves denoiser+image digests intact; "
          "denoiser stage leaves text digest intact): PASS")


def test_criterion_06_clip_constraint_prevents_collapse(baseline_state):
    start = time.perf_counter()
    result = collapse_experiment(COLLAPSE_TUNE, baseline_state, gamma_clip=100.0)
    assert result.collapsed_fraction < 0.25, result.collapsed_fraction
    assert result.constrained_fraction >= 0.60, result.constrained_fraction
    elapsed = time.perf_counter() - start
    assert elapsed < 600.0, elapsed
    print(f"criterion 6 (diversity fraction {result.collapsed_fraction:.3f} "
          f"unconstrained vs {result.constrained_fraction:.3f} with the "
          f"similarity constraint): PASS")


def test_criterion_07_interpolation_and_mixing_endpoints_bit_exact(
        baseline_state, tuned_run):
    tuned_state, _ = tuned_run
    text0 = TextEncoderParams.from_state(baseline_state)
    text1 = TextEncoderParams.from_state(tuned_state)
    den = DenoiserParams.from_state(baseline_state)
    plan = make_step_plan(12)
    prompt = (2, 5)

    samples, _ = continuity_probe(text0, text1, den, prompt, plan, 1.0,
                                  seed=9, lambdas=(0.0, 0.5, 1.0))
    original = sample(text0, den, prompt, plan, 1.0, seed=9)
    finetuned = sample(text1, den, prompt, plan, 1.0, seed=9)
    assert samples[0].tobytes() == original.tobytes()
    assert samples[-1].tobytes() == finetuned.tobytes()

    with ta.pause_recording():
        conds = [text_encode(enc, prompt)
                 for enc in (text0, text1, init_text_encoder(99))]
    for hot in range(len(conds)):
        weights = [1.0 if i == hot else 0.0 for i in range(len(conds))]
        mixed = mix_styles(list(zip(conds, weights)))
        from_mix = sample_from_cond(mixed, den, plan, 1.0, seed=9)
        from_single = sample_from_cond(conds[hot], den, plan, 1.0, seed=9)
        assert from_mix.tobytes() == from_single.tobytes(), hot
    print("criterion 7 (interpolation endpoints and one-hot style mixes "
          "reproduce the single-encoder samples bit-exactly): PASS")


def test_criterion_08_ablation_grids_complete_and_deterministic(
        baseline_ckpt, tmp_path):
    start = time.perf_counter()
    cfg_path = tmp_path / "base.json"
    cfg_path.write_text(json.dumps({"iterations": 2, "batch_size": 1}))

    def rows_of(blob):
        lines = blob.decode().strip().split("\n")
        return lines[0].split(","), [line.split(",") for line in lines[1:]]

    grids = {}
    for attempt in ("a", "b"):
        out = tmp_path / f"steps-{attempt}"
        _cli(["ablate-steps", "--checkpoint", baseline_ckpt,
              "--config", str(cfg_path), "--out-dir", str(out)])
        grids[attempt] = (out / "ablate_steps.csv").read_bytes()
    assert grids["a"] == grids["b"]
    header, rows = rows_of(grids["a"])
    assert header[:2] == ["train_k", "test_n"]
    assert [(int(r[0]), int(r[1])) for r in rows] == \
        [(k, n) for k in (5, 10, 15) for n in (5, 10, 15, 25)]

    scheds = {}
    for attempt in ("a", "b"):
        out = tmp_path / f"sched-{attempt}"
        _cli(["ablate-schedulers", "--checkpoint", baseline_ckpt,
              "--config", str(cfg_path), "--out-dir", str(out)])
        scheds[attempt] = (out / "ablate_schedulers.csv").read_bytes()
    assert scheds["a"] == scheds["b"]
    header, rows = rows_of(scheds["a"])
    assert header[:2] == ["sampler", "steps"]
    assert [(r[0], int(r[1])) for r in rows] == \
        [("ddim", 25), ("ddim", 50), ("euler", 25), ("euler", 50)]

    elapsed = time.perf_counter() - start
    assert elapsed < 1800.0, elapsed
    print("criterion 8 (ablate-steps emits the {5,10,15}x{5,10,15,25} grid, "
          "ablate-schedulers the {ddim,euler}x{25,50} grid, both "
          "byte-deterministic): PASS")


def test_criterion_09_cli_outputs_reproduce_byte_for_byte(baseline_ckpt, tmp_path):
    tiny_tune = tmp_path / "tune.json"
    tiny_tune.write_text(json.dumps(
        {"iterations": 2, "batch_size": 2, "n_steps": 6, "k_last": 2}))
    clip_cfg = tmp_path / "clip.json"
    clip_cfg.write_text(json.dumps({"iterations": 6, "batch_size": 8}))
    diff_cfg = tmp_path / "diffusion.json"
    diff_cfg.write_text(json.dumps({"iterations": 8, "batch_size": 8}))

    produced = {}

    def run_twice(name, argv_of):
        first = None
        for attempt in ("a", "b"):
            out = tmp_path / f"{name}-{attempt}"
            _cli(argv_of(str(out)))
            tree = _tree_bytes(out)
            assert tree, name  # every command must leave artifacts
            if first is None:
                first = tree
                produced[name] = out
            else:
                assert tree == first, name
        return produced[name]

    clip_dir = run_twice("pretrain-clip", lambda out: [
        "pretrain-clip", "--config", str(clip_cfg), "--out-dir", out])
    clip_ckpt = str(clip_dir / "clip.rcpt")
    run_twice("pretrain-diffusion", lambda out: [
        "pretrain-diffusion", "--checkpoint", clip_ckpt,
        "--config", str(diff_cfg), "--out-dir", out])
    tuned_dir = run_twice("finetune-text", lambda out: [
        "finetune-text", "--checkpoint", baseline_ckpt,
        "--config", str(tiny_tune), "--out-dir", out])
    tuned_ckpt = str(tuned_dir / "model.rcpt")
    run_twice("finetune-unet", lambda out: [
        "finetune-unet", "--checkpoint", baseline_ckpt,
        "--config", str(tiny_tune), "--out-dir", out])
    run_twice("sample", lambda out: [
        "sample", "--checkpoint", baseline_ckpt, "--prompt", "1 2",
        "--steps", "8", "--out-dir", out])
    run_twice("interpolate", lambda out: [
        "interpolate", "--checkpoint-a", baseline_ckpt,
        "--checkpoint-b", tuned_ckpt, "--prompt", "2 5",
        "--lambdas", "0,0.5,1", "--steps", "6", "--out-dir", out])
    run_twice("mix", lambda out: [
        "mix", "--checkpoints", f"{baseline_ckpt},{tuned_ckpt}",
        "--weights", "0.5,0.5", "--prompt", "3", "--steps", "6",
        "--out-dir", out])
    run_twice("evaluate", lambda out: [
        "evaluate", "--checkpoint", baseline_ckpt, "--steps", "6",
        "--out-dir", out])
    run_twice("ablate-steps", lambda out: [
        "ablate-steps", "--checkpoint", baseline_ckpt,
        "--config", str(tiny_tune), "--train-k", "2", "--test-n", "4",
        "--out-dir", out])
    run_twice("ablate-schedulers", lambda out: [
        "ablate-schedulers", "--checkpoint", baseline_ckpt,
        "--config", str(tiny_tune), "--steps", "4,6", "--out-dir", out])
    run_twice("collapse", lambda out: [
        "collapse", "--checkpoint", baseline_ckpt,
        "--config", str(tiny_tune), "--out-dir", out])

    assert len(produced) == 11
    print("criterion 9 (all 11 CLI commands reproduce every output file "
          "byte-for-byte under a repeated config+seed): PASS")


def test_criterion_10_checkpoint_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(123)
    for trial in range(3):
        state = {}
        for i in range(int(rng.integers(3, 8))):
            ndim = int(rng.integers(1, 4))
            shape = tuple(int(s) for s in rng.integers(1, 7, size=ndim))
            state[f"set{trial}/param_{i}"] = \
                rng.standard_normal(shape).astype(np.float32)
        state["edge/zeros"] = np.zeros((4, 2), dtype=np.float32)
        state["edge/signed_zero"] = np.array([0.0, -0.0], dtype=np.float32)
        state["edge/one_element"] = np.array([0.125], dtype=np.float32)
        state["edge/scalar"] = np.float32(3.5)

        path = tmp_path / f"trial{trial}.rcpt"
        save_checkpoint(state, str(path))
        loaded = load_checkpoint(str(path))
        assert sorted(loaded) == sorted(state), trial
        for name, want in state.items():
            want = np.asarray(want, dtype="<f4")
            got = loaded[name]
            assert got.shape == want.shape, name
            assert got.dtype == np.float32, name
            assert got.tobytes() == want.tobytes(), name
        # the reloaded state re-serializes to the exact same file bytes
        assert serialize_state(loaded) == path.read_bytes(), trial
    print("criterion 10 (checkpoint save/load round-trip bit-exact, "
          "including all-zero, signed-zero, 1-element, and 0-d tensors): PASS")
