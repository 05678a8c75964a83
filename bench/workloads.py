"""The benchmark's three workloads: set-up, rounds and output checks.

A workload builds its start state (``build_start`` then ``warm_up``) once per
set-up and then runs rounds. A
round is a fixed amount of work made only from (workload seed, round index),
so round r of a seed always produces the same trained state and the same
output rows, whatever the speed of the machine. ``measure.run`` repeats
rounds until the measured time is used up.

- ``pretrain``: both pretraining stages from a fresh init at their default
  batch sizes (contrastive B=16 with B*B scalar logits, denoiser B=32).
  Every op is taped and every weight gradient is used: no sampler, no
  checkpoint replay, no detached op.
- ``tune-chain``: ``run_training`` in the prompt-chain regime at the golden
  config (N=25, K=5, B=4, DDIM, no CFG) from a short pretrained baseline.
  Per chain 20 steps run detached, 5 are checkpoint segments replayed in
  backward.
- ``eval-grid``: ``ablate_schedulers`` over {ddim, euler} x {25, 50} steps
  with guidance w>1 on the 36-prompt holdout with 2 seeds, after a short
  tune. Detached ops only in its cells, run by the package's thread pool.
"""

from __future__ import annotations

import hashlib
import math
import os
from dataclasses import dataclass

import numpy as np

# Package functions are called through their modules, so the probes and
# spans that ``tracing`` installs in those modules see the benchmark's calls.
from rewardtune import evalcli, finetune, inference, models, pretrain, rewards
from rewardtune.data import (DEFAULT_SPLIT_SEED, make_prompt_sets, make_world,
                             world_from_state, world_state)
from rewardtune.finetune import TrainConfig
from rewardtune.models import (DenoiserParams, ImageEncoderParams, TextEncoderParams,
                               init_denoiser, init_image_encoder, init_text_encoder,
                               state_digest)
from rewardtune.pretrain import DENOISER_STAGES, PretrainConfig
from rewardtune.schedule import make_schedule, make_step_plan
from rewardtune.tensorad import Tensor, pause_recording
from rewardtune.util import derive_seed

WORKLOADS = ("pretrain", "tune-chain", "eval-grid")

DIFFUSION_BATCH = 32  # the denoiser stage recipe's batch
DIFFUSION_LR = DENOISER_STAGES[0][1]
GRID_SAMPLERS = ("ddim", "euler")
EVAL_SEEDS = 2  # ablate_schedulers evaluates every cell under two derived seeds


@dataclass(frozen=True)
class Sizes:
    """How much work one set-up and one round do."""

    fresh_setups: int = 5            # pretrain: set-ups per run, median reported
    baseline_setups: int = 2         # tune-chain, eval-grid
    baseline_clip_iters: int = 20    # short make_pretrained_baseline recipe
    baseline_diffusion_iters: int = 100
    warmup_iters: int = 2
    clip_iters: int = 20             # pretrain round
    diffusion_iters: int = 40
    tune_iters: int = 100            # tune-chain round
    grid_tune_iters: int = 3         # eval-grid round: the short tune before the grid
    grid_steps: tuple = (25, 50)
    grid_w: float = 3.0
    heap_iters: int = 2              # traced run: steps under tracemalloc


FULL = Sizes()
# for the benchmark's own tests: every code path, seconds instead of minutes
TINY = Sizes(fresh_setups=1, baseline_setups=1, baseline_clip_iters=2,
             baseline_diffusion_iters=2, warmup_iters=1, clip_iters=4,
             diffusion_iters=4, tune_iters=4, grid_tune_iters=1, grid_steps=(2, 3),
             heap_iters=1)


@dataclass
class Outcome:
    """What one round produced, before timing is attached."""

    items: int          # batch items trained, or chains sampled
    attempted: int      # iterations, chains and cells tried
    failed: int         # of those: raised or non-finite
    digest: str         # state_digest of the trained state (eval-grid: its start state)
    output_sha256: str  # the loss rows, or the grid table
    checks: dict        # check name -> passed
    losses: dict        # stage -> per-iteration losses (training workloads)
    chains_expected: int = 0
    state: dict = None  # the trained state, for checks made after the round


def _sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _losses_sha256(losses):
    blob = b"".join(np.asarray(v, dtype=np.float64).tobytes() for _, v in sorted(losses.items()))
    return hashlib.sha256(blob).hexdigest()


def tenth_means(values):
    """Mean of the first and of the last tenth (at least one value each)."""
    n = max(1, len(values) // 10)
    return float(np.mean(values[:n])), float(np.mean(values[-n:]))


def _loss_checks(stage, losses):
    finite = bool(np.all(np.isfinite(losses)))
    start, end = tenth_means(losses)
    return {f"{stage}.losses_finite": finite, f"{stage}.loss_decreased": finite and end < start}


def _merged(text, image, denoiser, world):
    return {**text.state(), **image.state(), **denoiser.state(), **world_state(world)}


class Workload:
    """Set-up and rounds of one workload at one seed."""

    name = ""
    setups = 1
    reference_threads = 1  # threads the measured rounds keep busy at once

    def __init__(self, seed, sizes=FULL):
        self.seed = int(seed)
        self.sizes = sizes

    def derive(self, *labels):
        return derive_seed(self.seed, "bench", self.name, *labels)

    def inputs(self, r=0):
        """The seeds and configs round r is made from."""
        raise NotImplementedError

    def build_start(self):
        raise NotImplementedError

    def warm_up(self, start):
        raise NotImplementedError

    def run_round(self, start, r):
        raise NotImplementedError

    def heap_steps(self, start):
        """A few training steps, run under tracemalloc in the traced run."""
        raise NotImplementedError

    def check(self, start, outcome):
        """Checks that need more work than the round did; run untimed."""
        return {}

    def run_checks(self):
        """Checks over all the rounds checked so far; run once, at the end."""
        return {}


class Pretrain(Workload):
    name = "pretrain"

    def __init__(self, seed, sizes=FULL):
        super().__init__(seed, sizes)
        self.setups = sizes.fresh_setups
        self.sched = make_schedule("linear-beta", 1000)

    def _configs(self, r, clip_iters, diffusion_iters):
        clip = PretrainConfig(seed=self.derive("clip", r), iterations=clip_iters)
        diffusion = PretrainConfig(seed=self.derive("diffusion", r), iterations=diffusion_iters,
                                   batch_size=DIFFUSION_BATCH, lr=DIFFUSION_LR)
        return clip, diffusion

    def inputs(self, r=0):
        clip, diffusion = self._configs(r, self.sizes.clip_iters, self.sizes.diffusion_iters)
        return {"world_seed": self.derive("world"), "clip": clip, "diffusion": diffusion}

    def build_start(self):
        world = make_world(self.derive("world"))
        text = init_text_encoder(self.derive("init-text"))
        image = init_image_encoder(self.derive("init-image"))
        denoiser = init_denoiser(self.derive("init-denoiser"))
        return _merged(text, image, denoiser, world)

    def _train(self, start, clip_cfg, diffusion_cfg):
        text = TextEncoderParams.from_state(start)
        image = ImageEncoderParams.from_state(start)
        denoiser = DenoiserParams.from_state(start)
        world = world_from_state(start)
        _, _, clip_info = pretrain.clip_pretrain(text, image, world, clip_cfg)
        _, diffusion_info = pretrain.diffusion_pretrain(denoiser, text, world, self.sched,
                                                        diffusion_cfg)
        state = _merged(text, image, denoiser, world)
        return state, {"clip": clip_info["losses"], "diffusion": diffusion_info["losses"]}

    def warm_up(self, start):
        n = self.sizes.warmup_iters
        self._train(start, *self._configs("warm-up", n, n))

    def heap_steps(self, start):
        n = self.sizes.heap_iters
        self._train(start, *self._configs("heap", n, n))

    def run_round(self, start, r):
        s = self.sizes
        clip_cfg, diffusion_cfg = self._configs(r, s.clip_iters, s.diffusion_iters)
        state, losses = self._train(start, clip_cfg, diffusion_cfg)
        checks = {**_loss_checks("clip", losses["clip"]),
                  **_loss_checks("diffusion", losses["diffusion"])}
        failed = sum(int(not math.isfinite(v)) for v in losses["clip"] + losses["diffusion"])
        return Outcome(
            items=clip_cfg.iterations * clip_cfg.batch_size
            + diffusion_cfg.iterations * diffusion_cfg.batch_size,
            attempted=clip_cfg.iterations + diffusion_cfg.iterations,
            failed=failed,
            digest=state_digest(state),
            output_sha256=_losses_sha256(losses),
            checks=checks,
            losses=losses,
        )


class _FromBaseline(Workload):
    """Workloads that start from a short pretrained baseline."""

    def __init__(self, seed, sizes=FULL):
        super().__init__(seed, sizes)
        self.setups = sizes.baseline_setups

    def _baseline_configs(self):
        s = self.sizes
        clip = PretrainConfig(seed=self.derive("baseline-clip"), iterations=s.baseline_clip_iters)
        diffusion = PretrainConfig(seed=self.derive("baseline-diffusion"),
                                   iterations=s.baseline_diffusion_iters,
                                   batch_size=DIFFUSION_BATCH, lr=DIFFUSION_LR)
        return clip, diffusion

    def build_start(self):
        clip, diffusion = self._baseline_configs()
        return pretrain.make_pretrained_baseline(seed=self.derive("baseline"), clip_config=clip,
                                                 diffusion_config=diffusion)

    def inputs(self, r=0):
        clip, diffusion = self._baseline_configs()
        return {"baseline_seed": self.derive("baseline"), "baseline_clip": clip,
                "baseline_diffusion": diffusion, "round": self.round_config(r)}

    def tune_config(self, r, iterations):
        """The golden prompt-chain config: N=25, K=5, B=4, DDIM, no CFG."""
        return TrainConfig(iterations=iterations, seed=self.derive("tune", r))

    def warm_up(self, start):
        finetune.run_training(self.tune_config("warm-up", self.sizes.warmup_iters), start)

    def heap_steps(self, start):
        finetune.run_training(self.tune_config("heap", self.sizes.heap_iters), start)


class TuneChain(_FromBaseline):
    name = "tune-chain"
    check_chains = 16

    def __init__(self, seed, sizes=FULL):
        super().__init__(seed, sizes)
        self._start_loss = None
        self._end_losses = []

    def fixed_batch_loss(self, text_state, start):
        """Mean training loss of the golden chain (N=25, DDIM, no CFG) on
        fixed (prompt, noise) pairs, with the text encoder from text_state."""
        cfg = TrainConfig()
        text = TextEncoderParams.from_state(text_state)
        image = ImageEncoderParams.from_state(start)
        denoiser = DenoiserParams.from_state(start)
        world = world_from_state(start)
        train, _ = make_prompt_sets(world, cfg.n_train_prompts, cfg.n_holdout_prompts,
                                    seed=DEFAULT_SPLIT_SEED)
        plan = make_step_plan(cfg.n_steps, cfg.t_train)
        total = 0.0
        with pause_recording():
            for i in range(self.check_chains):
                prompt = train.prompts[i % len(train)]
                cond = models.text_encode(text, prompt)
                x = inference.sample_from_cond(cond, denoiser, plan, 1.0,
                                               self.derive("check", i), sampler=cfg.sampler)
                total += rewards.combined_loss(Tensor(x), prompt, cfg.rewards, world=world,
                                               image_params=image, text_params=text).item()
        return total / self.check_chains

    def check(self, start, outcome):
        """Scores the tuned encoder on the fixed inputs, for ``run_checks``."""
        if self._start_loss is None:
            self._start_loss = self.fixed_batch_loss(start, start)
        end = self.fixed_batch_loss(outcome.state, start)
        self._end_losses.append(end)
        return {"tune.fixed_batch_loss_finite": math.isfinite(end)}

    def run_checks(self):
        """The tuned encoders have, on the mean over the rounds, a lower loss
        than the start on the same fixed inputs. Comparing iterations would
        compare different batches; comparing each round alone fails now and
        then on a correct program, as one round's 100 steps of batch noise can
        leave 16 fixed chains slightly worse off while its training loss
        falls (seed 31, round 2: +0.34 against a start of -60.8, while the
        other eight rounds of that run lowered it by 1.0 to 6.4)."""
        if not self._end_losses:
            return {}
        mean_end = sum(self._end_losses) / len(self._end_losses)
        return {"tune.fixed_batch_loss_decreased": math.isfinite(mean_end)
                and mean_end < self._start_loss}

    def round_config(self, r):
        return self.tune_config(r, self.sizes.tune_iters)

    def run_round(self, start, r):
        cfg = self.round_config(r)
        state, metrics = finetune.run_training(cfg, start)
        losses = [row[1] for row in metrics.rows]
        finite_rows = [all(math.isfinite(v) for v in row[1:]) for row in metrics.rows]
        checks = {"tune.losses_finite": bool(np.all(np.isfinite(losses))),
                  "tune.readouts_finite": all(finite_rows)}
        return Outcome(
            items=cfg.iterations * cfg.batch_size,
            attempted=cfg.iterations,
            failed=finite_rows.count(False),
            digest=state_digest(state),
            output_sha256=_sha256(metrics.to_csv()),
            checks=checks,
            losses={"tune": losses},
            state=state,
        )


class EvalGrid(_FromBaseline):
    name = "eval-grid"

    @property
    def reference_threads(self):
        """The package's cell pool runs one thread per cell, up to the CPU count."""
        return min(len(GRID_SAMPLERS) * len(self.sizes.grid_steps), os.cpu_count() or 1)

    def round_config(self, r):
        return self.tune_config(r, self.sizes.grid_tune_iters)

    def warm_up(self, start):
        super().warm_up(start)
        text = TextEncoderParams.from_state(start)
        denoiser = DenoiserParams.from_state(start)
        with pause_recording():
            cond = models.text_encode(text, (0,))
        plan = make_step_plan(min(self.sizes.grid_steps), 1000)
        for sampler in GRID_SAMPLERS:
            inference.sample_from_cond(cond, denoiser, plan, self.sizes.grid_w, 0, sampler=sampler)

    def run_round(self, start, r):
        cfg = self.round_config(r)
        table = evalcli.ablate_schedulers(cfg, start, GRID_SAMPLERS, self.sizes.grid_steps,
                                          w=self.sizes.grid_w)
        cells = len(GRID_SAMPLERS) * len(self.sizes.grid_steps)
        finite_rows = [all(math.isfinite(v) for v in row[2:]) for row in table.rows]
        checks = {"grid.rows_finite": all(finite_rows),
                  "grid.complete": len(table.rows) == cells}
        return Outcome(
            items=0,  # chains are counted by the sampling probe
            attempted=cells + cfg.iterations,
            failed=finite_rows.count(False),
            digest=state_digest(start),
            output_sha256=_sha256(table.to_csv()),
            checks=checks,
            losses={},
            chains_expected=cells * cfg.n_holdout_prompts * EVAL_SEEDS,
        )


def make_workload(name, seed, sizes=FULL):
    classes = {"pretrain": Pretrain, "tune-chain": TuneChain, "eval-grid": EvalGrid}
    return classes[name](seed, sizes)
