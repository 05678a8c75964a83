"""Evaluation reports, ablation grids, the collapse experiment, and the CLI.

Every table-producing operation emits two renderings of the same numbers: a
machine-readable CSV and an aligned plain-text table. Both are byte-identical
across repeated runs with the same config and seed.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import tensorad as ta
from .data import load_prompts, world_from_state
from .finetune import TrainConfig, prompt_split, run_training
from .inference import (DEFAULT_LAMBDA_SWEEP, continuity_probe, mix_styles, sample,
                        sample_from_cond, write_sample)
from .models import (ImageEncoderParams, TextEncoderParams, check_shared_widths,
                     load_checkpoint, merged_state, model_from_state, save_checkpoint,
                     state_digest, text_encode, text_encode_rows)
from .pretrain import PretrainConfig, pretrain_denoiser, pretrain_encoders
from .rewards import (READOUT_COLUMNS, READOUT_SPEC, RewardSpec, readout_means,
                      reward_values)
from .schedule import (DEFAULT_SCHEDULE, DEFAULT_T_TRAIN, SAMPLER_COEFFICIENTS, SCHEDULE_KINDS,
                       cfg_coefficients, check_sampler, make_schedule, make_step_plan)
from .tensorad import Tensor
from .util import csv_text, derive_seed, format_cell, is_number, write_text

MIN_EVAL_PROMPTS = 32


# ---------------------------------------------------------------------------
# tables: one set of numbers, two renderings


@dataclass(frozen=True)
class Table:
    """Column header plus rows of plain values, rendered on demand."""

    header: tuple
    rows: tuple

    def to_csv(self):
        return csv_text(self.header, self.rows)

    def render_text(self):
        cells = [list(self.header)] + [
            [format_cell(v) for v in row] for row in self.rows
        ]
        widths = [max(len(r[i]) for r in cells) for i in range(len(self.header))]
        lines = ["  ".join(c.rjust(w) for c, w in zip(row, widths)) for row in cells]
        return "\n".join(lines) + "\n"

    def write(self, directory, stem):
        """Write ``<stem>.csv`` and ``<stem>.txt``; returns both paths."""
        os.makedirs(directory, exist_ok=True)
        csv_path = os.path.join(directory, f"{stem}.csv")
        txt_path = os.path.join(directory, f"{stem}.txt")
        write_text(csv_path, self.to_csv())
        write_text(txt_path, self.render_text())
        return csv_path, txt_path


# ---------------------------------------------------------------------------
# evaluation


@dataclass(frozen=True)
class ModelEval:
    """Metrics for one model: reward means, diversity, spread."""

    name: str
    reward_means: dict
    diversity: float
    spread: float

    def __post_init__(self):
        values = [self.diversity, self.spread, *self.reward_means.values()]
        if not all(np.isfinite(v) for v in values):
            raise ValueError(f"non-finite metric for model {self.name!r}")

    def reward_row(self):
        """The reward means in READOUT_COLUMNS order."""
        return tuple(self.reward_means[k] for k, _ in READOUT_COLUMNS)


@dataclass(frozen=True)
class EvalReport:
    """Per-model metrics over a holdout prompt set.

    diversity: mean pairwise Euclidean distance among samples from distinct
    prompts (one sample per prompt, first seed). spread: mean pairwise
    distance among samples of the same prompt across seeds, averaged over
    prompts.
    """

    entries: tuple
    n_prompts: int
    n_seeds: int

    def __post_init__(self):
        _check_prompt_count(self.n_prompts)
        if self.n_seeds < 2:
            raise ValueError("report needs at least 2 seeds")

    def table(self):
        header = ("model",) + tuple(col for _, col in READOUT_COLUMNS) + (
            "diversity", "spread")
        rows = tuple((e.name,) + e.reward_row() + (e.diversity, e.spread)
                     for e in self.entries)
        return Table(header=header, rows=rows)

    def to_csv(self):
        return self.table().to_csv()

    def render_text(self):
        return self.table().render_text()

    def __getitem__(self, name):
        for e in self.entries:
            if e.name == name:
                return e
        raise KeyError(name)


def _mean_pairwise_distance(samples):
    """Mean Euclidean distance over all unordered pairs of the (n, D) rows, in
    float64."""
    n = len(samples)
    if n < 2:
        return 0.0
    arr = samples.astype(np.float64)
    total = 0.0
    for i in range(n - 1):
        total += float(np.linalg.norm(arr[i + 1:] - arr[i], axis=1).sum())
    return total / (n * (n - 1) / 2)


def _eval_one_model(name, state, prompts, plan, w, seeds, sampler, sched):
    text, image, denoiser, world = model_from_state(state)
    for p in prompts:
        world.pattern_sum(p)  # the world's token rule, before any encode

    with ta.pause_recording():
        conds = text_encode_rows(text, prompts).data

    # samples[j, i]: prompt i under seed j; one shared noise draw per seed so
    # diversity across prompts reflects conditioning, not the initial latent
    try:
        samples = np.array([[sample_from_cond(Tensor(cond), denoiser, plan, w, s, sampler=sampler,
                                              sched=sched) for cond in conds] for s in seeds])
    except FloatingPointError as exc:
        raise FloatingPointError(f"model {name!r}: {exc}") from None

    means = readout_means(samples.reshape(-1, samples.shape[-1]), prompts * len(seeds),
                          world=world, image_params=image, text_params=text,
                          txt_embs=Tensor(np.tile(conds, (len(seeds), 1))))
    diversity = _mean_pairwise_distance(samples[0])
    spread = float(np.mean([_mean_pairwise_distance(samples[:, i])
                            for i in range(len(prompts))]))
    return ModelEval(name=name, reward_means=means, diversity=diversity, spread=spread)


def _check_prompt_count(n):
    """The prompt rule of every evaluation: at least MIN_EVAL_PROMPTS prompts."""
    if n == 0:
        raise ValueError("empty prompt set")
    if n < MIN_EVAL_PROMPTS:
        raise ValueError(f"evaluation needs at least {MIN_EVAL_PROMPTS} prompts, got {n}")


def evaluate(checkpoints, prompt_set, plan, w, seeds, *, sampler="ddim",
             sched=None, out_dir=None):
    """Score one or more checkpoints on a prompt set; returns an EvalReport.

    ``checkpoints`` is a sequence of (name, state) pairs, whose names must
    differ (the report is read by name). Each model is scored against the
    world stored in its own checkpoint. The prompt set must pass
    ``_check_prompt_count``, the experiments' holdout check too. ``seeds``
    needs at least two distinct entries so per-prompt spread is measurable.
    When ``out_dir`` is given the report is written as report.csv and
    report.txt.
    """
    prompts = list(prompt_set)
    _check_prompt_count(len(prompts))
    seeds = [int(s) for s in seeds]
    if len(set(seeds)) < 2:
        raise ValueError("evaluation needs at least 2 distinct seeds")

    named = [(str(name), state) for name, state in checkpoints]
    if not named:
        raise ValueError("no checkpoints given")
    names = [name for name, _ in named]
    for name in names:
        if names.count(name) > 1:
            raise ValueError(f"model name {name!r} given more than once: a report row "
                             f"is looked up by name")
    entries = tuple(
        _eval_one_model(name, state, prompts, plan, w, seeds, sampler, sched)
        for name, state in named
    )
    report = EvalReport(entries=entries, n_prompts=len(prompts), n_seeds=len(seeds))
    if out_dir:
        report.table().write(out_dir, "report")
    return report


# ---------------------------------------------------------------------------
# ablation grids


def _cell_seeds(base_seed, *labels):
    """Two derived seeds per grid cell, reproducible in isolation."""
    return (derive_seed(base_seed, *labels), derive_seed(base_seed, *labels, 1))


def _experiment_setup(config, state_in, w, step_counts):
    """Every evaluation input of an experiment, checked before any training,
    in order: guidance scale ``w``, holdout split under ``evaluate``'s prompt
    rule, schedule, one step plan per distinct count in ``step_counts``.
    Returns (holdout, schedule, {n: plan}), the plans in ascending n."""
    cfg_coefficients(w)
    _, holdout = prompt_split(config, world_from_state(state_in))
    _check_prompt_count(len(holdout))
    sched = make_schedule(config.schedule_kind, config.t_train)
    plans = {n: make_step_plan(n, config.t_train) for n in sorted({int(n) for n in step_counts})}
    return holdout, sched, plans


def _score_grid(base_config, header, cells, holdout, sched, plans, w, out_dir, stem):
    """Score each (label, state, sampler, n) cell with ``evaluate`` on the
    holdout under ``sched``, ``plans[n]`` and ``_cell_seeds(base_config.seed,
    label, n)``; one row per cell, in order.

    Returns the Table; when ``out_dir`` is given writes <stem>.csv/.txt.
    """
    rows = []
    for label, state, sampler, n in cells:
        report = evaluate([(label, state)], holdout, plans[n], w,
                          _cell_seeds(base_config.seed, label, n), sampler=sampler, sched=sched)
        rows.append((label, n) + report.entries[0].reward_row())
    table = Table(header=header + tuple(col for _, col in READOUT_COLUMNS),
                  rows=tuple(rows))
    if out_dir:
        table.write(out_dir, stem)
    return table


def ablate_steps(base_config, state_in, train_ks, test_ns, *, w=1.0, out_dir=None):
    """Train once per K (gradient steps), evaluate each at every test step
    count N; returns the grid as a Table sorted by (train_k, test_n).

    After ``_experiment_setup``, every K must satisfy 1 <= K <=
    base_config.n_steps (the fine-tuning chain length). When ``out_dir`` is
    given writes ablate_steps.csv/.txt.
    """
    holdout, sched, plans = _experiment_setup(base_config, state_in, w, test_ns)
    ks = sorted({int(k) for k in train_ks})
    if not ks or not plans:
        raise ValueError("train_ks and test_ns must be non-empty")
    for k in ks:
        if not (1 <= k <= base_config.n_steps):
            raise ValueError(
                f"train K={k} outside [1, {base_config.n_steps}] for N={base_config.n_steps}"
            )

    cells = []
    for k in ks:
        state, _ = run_training(dataclasses.replace(base_config, k_last=k), state_in)
        cells.extend((k, state, base_config.sampler, n) for n in plans)
    return _score_grid(base_config, ("train_k", "test_n"), cells, holdout, sched, plans, w,
                       out_dir, "ablate_steps")


def ablate_schedulers(base_config, state_in, kinds, steps, *, w=1.0, out_dir=None):
    """Fine-tune once, then evaluate under each (sampler, steps) pair.

    After ``_experiment_setup``, ``kinds`` must name known samplers;
    duplicates are dropped. Returns a Table sorted by (sampler, steps); when
    ``out_dir`` is given writes ablate_schedulers.csv/.txt.
    """
    holdout, sched, plans = _experiment_setup(base_config, state_in, w, steps)
    kinds = list(kinds)
    for kind in kinds:
        check_sampler(kind)
    if not kinds or not plans:
        raise ValueError("kinds and steps must be non-empty")

    state_ft, _ = run_training(base_config, state_in)
    cells = [(kind, state_ft, kind, n) for kind in sorted(set(kinds)) for n in plans]
    return _score_grid(base_config, ("sampler", "steps"), cells, holdout, sched, plans, w,
                       out_dir, "ablate_schedulers")


# ---------------------------------------------------------------------------
# collapse experiment


@dataclass(frozen=True)
class CollapseResult:
    """Paired-run outcome: diversity with and without the similarity anchor."""

    gamma_clip: float
    baseline: ModelEval
    collapsed: ModelEval
    constrained: ModelEval
    collapsed_state: dict
    constrained_state: dict

    @property
    def collapsed_fraction(self):
        return self.collapsed.diversity / self.baseline.diversity

    @property
    def constrained_fraction(self):
        return self.constrained.diversity / self.baseline.diversity

    def table(self):
        rows = (
            ("baseline", self.baseline.diversity, 1.0),
            ("gamma_clip=0", self.collapsed.diversity, self.collapsed_fraction),
            (f"gamma_clip={self.gamma_clip:g}", self.constrained.diversity,
             self.constrained_fraction),
        )
        return Table(header=("run", "diversity", "fraction_of_baseline"), rows=rows)


def collapse_experiment(config, state_in, *, gamma_clip=100.0, w=1.0, out_dir=None):
    """Train the collapse probe with and without the similarity constraint.

    Both runs share ``config`` except for the reward weights: the probe alone
    (gamma_clip = 0) versus the probe plus the image-text similarity term at
    ``gamma_clip``, which like ``w`` must be positive. Reports holdout
    diversity for the untouched baseline and both trained models, scored by
    one ``evaluate`` call; when ``out_dir`` is given writes collapse.csv/.txt
    plus the two trained checkpoints.
    """
    holdout, sched, plans = _experiment_setup(config, state_in, w, [config.n_steps])
    if gamma_clip <= 0:
        raise ValueError("gamma_clip must be positive for the constrained run")
    if w == 0:  # the baseline's diversity, each fraction's divisor, would be 0
        raise ValueError("collapse needs w > 0: at w = 0 no sample depends on its prompt")
    probe = RewardSpec(entries=(("degenerate-collapse-probe", 1.0),))
    anchored = RewardSpec(entries=(
        ("degenerate-collapse-probe", 1.0), ("clip-constraint", float(gamma_clip)),
    ))

    collapsed_state, _ = run_training(dataclasses.replace(config, rewards=probe), state_in)
    constrained_state, _ = run_training(dataclasses.replace(config, rewards=anchored), state_in)

    report = evaluate([("baseline", state_in), ("collapsed", collapsed_state),
                       ("constrained", constrained_state)], holdout, plans[config.n_steps], w,
                      _cell_seeds(config.seed, "collapse-eval"), sampler=config.sampler,
                      sched=sched)
    result = CollapseResult(
        gamma_clip=float(gamma_clip),
        baseline=report["baseline"],
        collapsed=report["collapsed"],
        constrained=report["constrained"],
        collapsed_state=collapsed_state,
        constrained_state=constrained_state,
    )
    if out_dir:
        result.table().write(out_dir, "collapse")
        save_checkpoint(collapsed_state, os.path.join(out_dir, "collapsed.rcpt"))
        save_checkpoint(constrained_state, os.path.join(out_dir, "constrained.rcpt"))
    return result


# ---------------------------------------------------------------------------
# command-line interface


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(f"{self.format_usage()}{self.prog}: error: {message}")


def _finite_float(text):
    """A float flag's value: ``float(text)`` when ``is_number`` takes it."""
    try:
        if is_number(value := float(text)):
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")


def _parse_numbers(text, flag, kind=int):
    """Comma- or space-separated ints (or ``kind``) from one flag's text."""
    try:
        values = [kind(v) for v in text.replace(",", " ").split()]
    except (ValueError, argparse.ArgumentTypeError):
        noun = "integers" if kind is int else "numbers"
        raise ValueError(f"{flag} expects {noun}, got {text!r}") from None
    if not values:
        raise ValueError(f"{flag} is empty")
    return values


def _parse_prompt(text, world):
    tokens = tuple(_parse_numbers(text, "--prompt"))
    world.pattern_sum(tokens)  # the world's token rule
    return tokens


def _load_json_config(path):
    if path is None:
        return {}
    with open(path, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise ValueError("config file must hold a JSON object")
    return raw


def _sampling_inputs(args):
    """Check a sampling command's flags before any checkpoint is read: no
    --config, the guidance scale; returns the (step plan, schedule)."""
    if args.config is not None:
        raise ValueError(f"the {args.command} command takes no --config")
    cfg_coefficients(args.w)
    return make_step_plan(args.steps, args.t_train), make_schedule(args.schedule, args.t_train)


def _cli_seed(args):
    return 0 if args.seed is None else args.seed


def _train_config(args, **fixed):
    """The --config file's TrainConfig, set to the command's ``fixed`` fields
    (which the file may only repeat) and to an explicit --seed."""
    raw = _load_json_config(args.config)
    cfg = TrainConfig.from_dict(raw)
    for key, value in fixed.items():
        if raw.get(key, value) != value:
            raise ValueError(f"the config's {key} {raw[key]!r} differs from the "
                             f"{args.command} command's {value!r}")
    if args.seed is not None:
        fixed["seed"] = args.seed
    return dataclasses.replace(cfg, **fixed)


def _pretrain_config(args, *labels, unread=()):
    """The --config file's PretrainConfig, or None without one; an explicit
    --seed replaces its seed with one derived under ``labels``. A field in
    ``unread``, which the command's stage does not read, is rejected."""
    raw = _load_json_config(args.config)
    if not raw:
        return None
    cfg = PretrainConfig.from_dict(raw)
    for name in unread:
        if name in raw:
            raise ValueError(f"config field '{name}' is not read by {args.command}")
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=derive_seed(args.seed, *labels))
    return cfg


def _sample_meta(prompt, args, extra=None):
    meta = {
        "prompt": list(prompt),
        "seed": _cli_seed(args),
        "guidance_scale": float(args.w),
        "sampler": args.sampler,
        "steps": int(args.steps),
        "schedule": args.schedule,
    }
    if extra:
        meta.update(extra)
    return meta


def _announce(path):
    print(f"wrote {path}")


def _cmd_pretrain_clip(args):
    text, image, world, info = pretrain_encoders(_cli_seed(args),
                                                 _pretrain_config(args, "clip",
                                                                  unread=("null_drop",)))

    rows = tuple((it, loss, temp) for it, (loss, temp)
                 in enumerate(zip(info["losses"], info["temperatures"])))
    Table(header=("iter", "loss", "temperature"), rows=rows).write(
        args.out_dir, "clip_metrics")
    state = merged_state(world, text, image)
    path = os.path.join(args.out_dir, "clip.rcpt")
    save_checkpoint(state, path)
    _announce(path)
    print(f"digest {state_digest(state)}")


def _cmd_pretrain_diffusion(args):
    state = load_checkpoint(args.checkpoint)
    text = TextEncoderParams.from_state(state)
    image = ImageEncoderParams.from_state(state)
    world = world_from_state(state)
    check_shared_widths(state)
    sched = make_schedule(args.schedule, args.t_train)
    denoiser, losses = pretrain_denoiser(text, world, _cli_seed(args), sched,
                                         _pretrain_config(args, "diffusion", 0))

    rows = tuple((it, loss) for it, loss in enumerate(losses))
    Table(header=("iter", "loss"), rows=rows).write(args.out_dir, "diffusion_metrics")
    out_state = merged_state(world, text, image, denoiser)
    path = os.path.join(args.out_dir, "model.rcpt")
    save_checkpoint(out_state, path)
    _announce(path)
    print(f"digest {state_digest(out_state)}")


def _cmd_finetune(args):
    cfg = _train_config(args, regime=args.regime)
    state_in = load_checkpoint(args.checkpoint)
    state_out, _ = run_training(cfg, state_in, out_dir=args.out_dir)
    _announce(os.path.join(args.out_dir, "model.rcpt"))
    _announce(os.path.join(args.out_dir, "metrics.csv"))
    print(f"digest {state_digest(state_out)}")


def _cmd_sample(args):
    plan, sched = _sampling_inputs(args)
    text, image, denoiser, world = model_from_state(load_checkpoint(args.checkpoint))
    prompt = _parse_prompt(args.prompt, world)
    x = sample(text, denoiser, prompt, plan, args.w, _cli_seed(args),
               sampler=args.sampler, sched=sched)
    scores = reward_values(Tensor(x), prompt, READOUT_SPEC, world=world,
                           image_params=image, text_params=text)
    os.makedirs(args.out_dir, exist_ok=True)
    path = os.path.join(args.out_dir, "sample.f32")
    write_sample(path, x, _sample_meta(prompt, args, {"rewards": scores}))
    _announce(path)
    _announce(f"{path}.json")


def _extra_text_encoder(path, base):
    """The text encoder of the checkpoint at ``path``, checked against the
    conditioning width of the denoiser in the base checkpoint's ``base``."""
    state = load_checkpoint(path)
    text = TextEncoderParams.from_state(state)
    pair = {"text/b2": state["text/b2"], "denoiser/null_cond": base["denoiser/null_cond"]}
    check_shared_widths(pair, f"{path} against the base denoiser: ")
    return text


def _cmd_interpolate(args):
    plan, sched = _sampling_inputs(args)
    # the denoiser and world come from the first (base) checkpoint
    base = load_checkpoint(args.checkpoint_a)
    text_a, _, denoiser, world = model_from_state(base)
    text_b = _extra_text_encoder(args.checkpoint_b, base)
    prompt = _parse_prompt(args.prompt, world)
    lambdas = _parse_numbers(args.lambdas, "--lambdas", _finite_float)

    samples, distances = continuity_probe(
        text_a, text_b, denoiser, prompt, plan, args.w, _cli_seed(args),
        lambdas=lambdas, sampler=args.sampler, sched=sched,
    )
    os.makedirs(args.out_dir, exist_ok=True)
    for i, (lam, x) in enumerate(zip(lambdas, samples)):
        path = os.path.join(args.out_dir, f"sample_{i:02d}.f32")
        write_sample(path, x, _sample_meta(prompt, args, {"lambda": float(lam)}))
        _announce(path)
    Table(header=("lambda_from", "lambda_to", "distance"),
          rows=tuple(zip(lambdas, lambdas[1:], distances))).write(args.out_dir, "interpolation")
    _announce(os.path.join(args.out_dir, "interpolation.csv"))


def _cmd_mix(args):
    plan, sched = _sampling_inputs(args)
    paths = [p for p in args.checkpoints.split(",") if p]
    weights = _parse_numbers(args.weights, "--weights", _finite_float)
    if len(paths) != len(weights):
        raise ValueError(
            f"got {len(paths)} checkpoints but {len(weights)} weights")
    # the denoiser and world come from the first (base) checkpoint
    base = load_checkpoint(paths[0])
    text, _, denoiser, world = model_from_state(base)
    texts = [text] + [_extra_text_encoder(p, base) for p in paths[1:]]
    prompt = _parse_prompt(args.prompt, world)

    with ta.pause_recording():
        conds = [text_encode(t, prompt) for t in texts]
        mixed = mix_styles(list(zip(conds, weights)))
    x = sample_from_cond(mixed, denoiser, plan, args.w, _cli_seed(args),
                         sampler=args.sampler, sched=sched)
    os.makedirs(args.out_dir, exist_ok=True)
    path = os.path.join(args.out_dir, "mix.f32")
    write_sample(path, x, _sample_meta(prompt, args, {"weights": weights}))
    _announce(path)


def _cmd_evaluate(args):
    plan, sched = _sampling_inputs(args)
    named = []
    for path in args.checkpoint:
        name = os.path.splitext(os.path.basename(path))[0]
        named.append((name, load_checkpoint(path)))
    world = world_from_state(named[0][1])
    if args.prompts:
        prompt_set = load_prompts(args.prompts)
    else:
        _, prompt_set = prompt_split(TrainConfig(), world)
    seeds = (_parse_numbers(args.seeds, "--seeds") if args.seeds
             else list(_cell_seeds(_cli_seed(args), "eval")))

    report = evaluate(named, prompt_set, plan, args.w, seeds,
                      sampler=args.sampler, sched=sched, out_dir=args.out_dir)
    _announce(os.path.join(args.out_dir, "report.csv"))
    print(report.render_text(), end="")


def _run_experiment(args, stem, run):
    """Build the TrainConfig, load the checkpoint, run the experiment that
    writes ``<stem>.csv``, announce that file and print the returned Table."""
    cfg = _train_config(args)
    state = load_checkpoint(args.checkpoint)
    table = run(cfg, state)
    _announce(os.path.join(args.out_dir, f"{stem}.csv"))
    print(table.render_text(), end="")


def _cmd_ablate_steps(args):
    _run_experiment(args, "ablate_steps", lambda cfg, state: ablate_steps(
        cfg, state, _parse_numbers(args.train_k, "--train-k"),
        _parse_numbers(args.test_n, "--test-n"), w=args.w, out_dir=args.out_dir))


def _cmd_ablate_schedulers(args):
    _run_experiment(args, "ablate_schedulers", lambda cfg, state: ablate_schedulers(
        cfg, state, [k for k in args.kinds.split(",") if k],
        _parse_numbers(args.steps, "--steps"), w=args.w, out_dir=args.out_dir))


def _cmd_collapse(args):
    _run_experiment(args, "collapse", lambda cfg, state: collapse_experiment(
        cfg, state, gamma_clip=args.gamma_clip, w=args.w, out_dir=args.out_dir).table())


def _add_sampling_flags(p):
    p.add_argument("--steps", type=int, default=25, help="denoising steps")
    p.add_argument("--w", type=_finite_float, default=1.0, help="guidance scale")
    p.add_argument("--sampler", choices=sorted(SAMPLER_COEFFICIENTS), default="ddim")
    p.add_argument("--schedule", choices=sorted(SCHEDULE_KINDS), default=DEFAULT_SCHEDULE)
    p.add_argument("--t-train", type=int, default=DEFAULT_T_TRAIN, help="training timestep count")


def build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config file")
    common.add_argument("--seed", type=int, default=None,
                        help="base seed for all randomness (default 0)")
    common.add_argument("--out-dir", required=True, help="output directory")

    parser = _Parser(prog="rewardtune",
                     description="Reward fine-tuning of a toy diffusion model.")
    sub = parser.add_subparsers(dest="command", metavar="command")

    def add(name, fn, help_text):
        p = sub.add_parser(name, parents=[common], help=help_text)
        p.set_defaults(func=fn, command=name)
        return p

    add("pretrain-clip", _cmd_pretrain_clip,
        "contrastive pretraining of both encoders")

    p = add("pretrain-diffusion", _cmd_pretrain_diffusion,
            "noise-prediction pretraining of the denoiser")
    p.add_argument("--checkpoint", required=True, help="encoder checkpoint")
    p.add_argument("--schedule", choices=sorted(SCHEDULE_KINDS), default=DEFAULT_SCHEDULE)
    p.add_argument("--t-train", type=int, default=DEFAULT_T_TRAIN)

    p = add("finetune-text", _cmd_finetune,
            "reward fine-tuning of the text encoder")
    p.add_argument("--checkpoint", required=True, help="pretrained checkpoint")
    p.add_argument("--regime", choices=("prompt-chain", "direct"),
                   default="prompt-chain")

    p = add("finetune-unet", _cmd_finetune,
            "reward fine-tuning of the denoiser")
    p.add_argument("--checkpoint", required=True, help="pretrained checkpoint")
    p.set_defaults(regime="unet-chain")

    p = add("sample", _cmd_sample, "draw one sample for a prompt")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--prompt", required=True, help="token ids, e.g. '3 14 27'")
    _add_sampling_flags(p)

    p = add("interpolate", _cmd_interpolate,
            "sample along an embedding interpolation sweep")
    p.add_argument("--checkpoint-a", required=True, help="original model")
    p.add_argument("--checkpoint-b", required=True, help="fine-tuned model")
    p.add_argument("--prompt", required=True)
    p.add_argument("--lambdas", default=",".join(str(v) for v in DEFAULT_LAMBDA_SWEEP))
    _add_sampling_flags(p)

    p = add("mix", _cmd_mix, "sample from a weighted mix of text encoders")
    p.add_argument("--checkpoints", required=True, help="comma-separated paths")
    p.add_argument("--weights", required=True, help="comma-separated weights")
    p.add_argument("--prompt", required=True)
    _add_sampling_flags(p)

    p = add("evaluate", _cmd_evaluate, "score checkpoints on holdout prompts")
    p.add_argument("--checkpoint", action="append", required=True,
                   help="checkpoint path (repeatable)")
    p.add_argument("--prompts", help="prompt file (default: holdout split)")
    p.add_argument("--seeds", help="comma-separated evaluation seeds")
    _add_sampling_flags(p)

    p = add("ablate-steps", _cmd_ablate_steps,
            "grid over training-K and test-N step counts")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--train-k", default="5,10,15")
    p.add_argument("--test-n", default="5,10,15,25")
    p.add_argument("--w", type=_finite_float, default=1.0)

    p = add("ablate-schedulers", _cmd_ablate_schedulers,
            "table over samplers and step counts")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--kinds", default="ddim,euler")
    p.add_argument("--steps", default="25,50")
    p.add_argument("--w", type=_finite_float, default=1.0)

    p = add("collapse", _cmd_collapse,
            "paired collapse-probe runs with and without the constraint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--gamma-clip", type=_finite_float, default=100.0)
    p.add_argument("--w", type=_finite_float, default=1.0)

    return parser


def cli_main(argv=None):
    """Entry point; returns 0 on success, 1 on usage error, 2 on failure."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "func", None) is None:
            raise _UsageError(parser.format_usage()
                              + f"{parser.prog}: error: a command is required")
    except _UsageError as exc:
        print(exc, file=sys.stderr)
        return 1
    except SystemExit as exc:  # argparse --help path
        return int(exc.code or 0)
    try:
        args.func(args)
    except Exception as exc:
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return 2
    return 0


def main():
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
