"""Evaluation reports, ablation grids, the collapse experiment, and the CLI."""

import dataclasses
import json
import os
import warnings

import numpy as np
import pytest

from rewardtune import evalcli, inference, rewards
from rewardtune.data import make_prompt_sets
from rewardtune.evalcli import (
    EvalReport,
    ModelEval,
    Table,
    ablate_schedulers,
    ablate_steps,
    cli_main,
    collapse_experiment,
    evaluate,
)
from rewardtune.finetune import TrainConfig, run_training
from rewardtune.models import load_checkpoint, save_checkpoint, state_digest
from rewardtune.pretrain import PretrainConfig, make_pretrained_baseline
from rewardtune.schedule import make_step_plan
from rewardtune.util import derive_seed

PLAN25 = make_step_plan(25)
PLAN5 = make_step_plan(5)

# golden-run regression fixtures: produced once by this implementation on the
# seed-42 baseline and frozen; every run is bit-deterministic, so equality is
# exact
BASELINE_REPORT_CSV = (
    "model,reward_image,reward_align,reward_clip,diversity,spread\n"
    "model,-0.215896282,0.9719414827,0.9402115949,1.709938216,0.5121828477\n"
)
COLLAPSE_TABLE_CSV = (
    "run,diversity,fraction_of_baseline\n"
    "baseline,1.610811685,1\n"
    "gamma_clip=0,1.199803069,0.7448437828\n"
    "gamma_clip=100,2.12433702,1.318799112\n"
)


@pytest.fixture(scope="module")
def holdout(baseline_world):
    _, h = make_prompt_sets(baseline_world, 48, 36)
    return h


def _partial_digest(state, prefix):
    return state_digest({k: v for k, v in state.items() if k.startswith(prefix)})


class TestTable:
    def test_csv_formatting(self):
        t = Table(header=("a", "b", "c"), rows=((1, 0.5, "x"), (20, -1.0 / 3.0, "yy")))
        assert t.to_csv() == "a,b,c\n1,0.5,x\n20,-0.3333333333,yy\n"

    def test_text_rendering_aligns_columns(self):
        t = Table(header=("a", "b"), rows=((1, 0.5), (20000, -0.25)))
        lines = t.render_text().splitlines()
        assert len(lines) == 3
        assert len({len(line) for line in lines}) == 1
        assert lines[1].endswith("0.5")

    def test_write_emits_both_renderings(self, tmp_path):
        t = Table(header=("x",), rows=((1,), (2,)))
        csv_path, txt_path = t.write(str(tmp_path), "grid")
        assert open(csv_path).read() == t.to_csv()
        assert open(txt_path).read() == t.render_text()


class TestEvalReportInvariants:
    def _entry(self, **kw):
        base = dict(
            name="m",
            reward_means={"image-style": -0.1, "alignment": 0.9, "clip-constraint": 0.9},
            diversity=1.0,
            spread=0.5,
        )
        base.update(kw)
        return ModelEval(**base)

    def test_non_finite_metric_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            self._entry(diversity=float("nan"))

    def test_too_few_prompts_rejected(self):
        with pytest.raises(ValueError, match="at least 32 prompts"):
            EvalReport(entries=(self._entry(),), n_prompts=31, n_seeds=2)

    def test_too_few_seeds_rejected(self):
        with pytest.raises(ValueError, match="at least 2 seeds"):
            EvalReport(entries=(self._entry(),), n_prompts=36, n_seeds=1)

    def test_lookup_by_name(self):
        report = EvalReport(entries=(self._entry(),), n_prompts=36, n_seeds=2)
        assert report["m"].diversity == 1.0
        with pytest.raises(KeyError):
            report["missing"]


class TestEvaluate:
    def test_baseline_report_matches_golden_fixture(self, baseline_state, holdout):
        report = evaluate(baseline_state, holdout, PLAN25, 1.0, [0, 1])
        assert report.to_csv() == BASELINE_REPORT_CSV

    def test_same_checkpoint_twice_gives_identical_rows(self, baseline_state, holdout):
        report = evaluate({"a": baseline_state, "b": baseline_state},
                          holdout, PLAN5, 1.0, [0, 1])
        a, b = report.entries
        assert a.reward_means == b.reward_means
        assert a.diversity == b.diversity
        assert a.spread == b.spread

    def test_repeat_call_is_deterministic(self, baseline_state, holdout):
        first = evaluate(baseline_state, holdout, PLAN5, 1.0, [3, 4])
        second = evaluate(baseline_state, holdout, PLAN5, 1.0, [3, 4])
        assert first.to_csv() == second.to_csv()

    def test_constant_output_model_has_zero_diversity(self, baseline_state, holdout):
        # a text encoder that ignores its prompt: every sample for a given
        # seed is bit-identical, so distinct-prompt diversity is exactly zero
        state = dict(baseline_state)
        state["text/embed"] = np.zeros_like(state["text/embed"])
        state["text/w1"] = np.zeros_like(state["text/w1"])
        report = evaluate(state, holdout, PLAN5, 1.0, [0, 1])
        assert report.entries[0].diversity == 0.0
        assert report.entries[0].spread > 0.0

    def test_baseline_diversity_and_spread_positive(self, baseline_state, holdout):
        report = evaluate(baseline_state, holdout, PLAN5, 1.0, [0, 1])
        assert report.entries[0].diversity > 0.0
        assert report.entries[0].spread > 0.0

    def test_writes_report_files(self, baseline_state, holdout, tmp_path):
        report = evaluate(baseline_state, holdout, PLAN5, 1.0, [0, 1],
                          out_dir=str(tmp_path))
        assert open(tmp_path / "report.csv").read() == report.to_csv()
        assert open(tmp_path / "report.txt").read() == report.render_text()

    def test_empty_prompt_set_rejected(self, baseline_state):
        with pytest.raises(ValueError, match="empty prompt set"):
            evaluate(baseline_state, [], PLAN5, 1.0, [0, 1])

    def test_too_few_prompts_rejected(self, baseline_state, holdout):
        with pytest.raises(ValueError, match="at least 32 prompts"):
            evaluate(baseline_state, list(holdout)[:8], PLAN5, 1.0, [0, 1])

    def test_needs_two_distinct_seeds(self, baseline_state, holdout):
        with pytest.raises(ValueError, match="2 distinct seeds"):
            evaluate(baseline_state, holdout, PLAN5, 1.0, [7, 7])

    def test_unknown_sampler_rejected(self, baseline_state, holdout):
        with pytest.raises(ValueError, match="unknown sampler"):
            evaluate(baseline_state, holdout, PLAN5, 1.0, [0, 1], sampler="heun")

    def test_no_checkpoints_rejected(self, holdout):
        with pytest.raises(ValueError, match="no checkpoints"):
            evaluate({}, holdout, PLAN5, 1.0, [0, 1])

    def test_one_rows_encode_per_model(self, baseline_state, holdout, monkeypatch):
        calls = []

        def counting(name, fn):
            def wrapped(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)
            return wrapped

        for module in (evalcli, rewards, inference):
            for name in ("text_encode", "text_encode_rows"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
        report = evaluate({"a": baseline_state, "b": baseline_state}, holdout, PLAN5, 1.0,
                          [0, 1])
        assert calls == ["text_encode_rows", "text_encode_rows"]
        assert report.entries[0].reward_means == report.entries[1].reward_means

    @pytest.mark.parametrize("token", [40, 20])
    def test_prompt_token_checked_by_the_world_before_any_chain(
            self, baseline_state, holdout, monkeypatch, token):
        chains = []
        monkeypatch.setattr(evalcli, "sample_from_cond",
                            lambda *args, **kwargs: chains.append(args))
        prompts = list(holdout)
        prompts[3] = (1, token)
        with pytest.raises(ValueError,
                           match=f"^token {token} is not an attribute of this world$"):
            evaluate(baseline_state, prompts, PLAN5, 1.0, [0, 1])
        assert chains == []


TINY = TrainConfig(iterations=2, batch_size=2, n_steps=10, k_last=3, seed=3)
READOUTS = ("image-style", "alignment", "clip-constraint")


def _isolated_cell(state, holdout, label, n, w, sampler):
    """Reward means of one grid cell, scored on its own under its derived seeds."""
    seeds = (derive_seed(TINY.seed, label, n), derive_seed(TINY.seed, label, n, 1))
    report = evaluate(state, holdout, make_step_plan(n), w, seeds, sampler=sampler)
    return tuple(report.entries[0].reward_means[k] for k in READOUTS)


class TestGridCellsReproducibleInIsolation:
    def test_scheduler_cell_matches_direct_evaluate(self, baseline_state, holdout):
        table = ablate_schedulers(TINY, baseline_state, ["euler"], [5], w=3.0)
        trained, _ = run_training(TINY, baseline_state)
        assert table.rows[0][:2] == ("euler", 5)
        assert table.rows[0][2:] == _isolated_cell(trained, holdout, "euler", 5, 3.0, "euler")

    def test_steps_cell_matches_direct_evaluate(self, baseline_state, holdout):
        table = ablate_steps(TINY, baseline_state, [2], [5], w=1.0)
        trained, _ = run_training(dataclasses.replace(TINY, k_last=2), baseline_state)
        assert table.rows[0][:2] == (2, 5)
        assert table.rows[0][2:] == _isolated_cell(trained, holdout, 2, 5, 1.0, TINY.sampler)


class TestAblateSteps:
    def test_single_cell_grid_has_one_row(self, baseline_state):
        table = ablate_steps(TINY, baseline_state, [5], [5], w=1.0)
        assert table.header == ("train_k", "test_n", "reward_image",
                                "reward_align", "reward_clip")
        assert len(table.rows) == 1
        assert table.rows[0][:2] == (5, 5)

    def test_default_grid_has_twelve_sorted_rows(self, baseline_state):
        cfg = TrainConfig(iterations=2, batch_size=1, n_steps=25, k_last=5, seed=3)
        table = ablate_steps(cfg, baseline_state, [15, 5, 10], [25, 5, 15, 10], w=1.0)
        cells = [(r[0], r[1]) for r in table.rows]
        assert cells == [(k, n) for k in (5, 10, 15) for n in (5, 10, 15, 25)]
        assert all(np.isfinite(v) for row in table.rows for v in row[2:])

    def test_same_seed_gives_identical_grid(self, baseline_state):
        first = ablate_steps(TINY, baseline_state, [3], [5], w=1.0)
        second = ablate_steps(TINY, baseline_state, [3], [5], w=1.0)
        assert first.to_csv() == second.to_csv()

    def test_train_k_beyond_chain_length_rejected(self, baseline_state):
        with pytest.raises(ValueError, match="outside"):
            ablate_steps(TINY, baseline_state, [11], [5], w=1.0)

    def test_empty_lists_rejected(self, baseline_state):
        with pytest.raises(ValueError, match="non-empty"):
            ablate_steps(TINY, baseline_state, [], [5], w=1.0)

    def test_writes_grid_files(self, baseline_state, tmp_path):
        table = ablate_steps(TINY, baseline_state, [3], [5], w=1.0,
                             out_dir=str(tmp_path))
        assert open(tmp_path / "ablate_steps.csv").read() == table.to_csv()
        assert (tmp_path / "ablate_steps.txt").exists()


@pytest.fixture(scope="module")
def scheduler_table(baseline_state):
    """150-iteration fine-tune, then the sampler/steps table (golden config)."""
    cfg = TrainConfig(iterations=150, batch_size=4, seed=11)
    return ablate_schedulers(cfg, baseline_state, ["ddim", "euler"], [25, 50], w=1.0)


class TestAblateSchedulers:
    def test_default_table_shape_and_ddim25_present(self, scheduler_table):
        cells = [(r[0], r[1]) for r in scheduler_table.rows]
        assert cells == [("ddim", 25), ("ddim", 50), ("euler", 25), ("euler", 50)]

    def test_euler_tracks_ddim_at_25_steps(self, scheduler_table):
        # frozen from the golden run: cosine-valued rewards agree within 10%,
        # the near-zero style distance within 0.3 absolute
        rows = {(r[0], r[1]): r[2:] for r in scheduler_table.rows}
        d25, e25 = rows[("ddim", 25)], rows[("euler", 25)]
        assert abs(e25[0] - d25[0]) < 0.3
        assert abs(e25[1] - d25[1]) / abs(d25[1]) < 0.10
        assert abs(e25[2] - d25[2]) / abs(d25[2]) < 0.10

    def test_duplicate_kinds_deduplicated(self, baseline_state):
        table = ablate_schedulers(TINY, baseline_state, ["ddim", "ddim"], [5], w=1.0)
        assert [(r[0], r[1]) for r in table.rows] == [("ddim", 5)]

    def test_unknown_kind_rejected(self, baseline_state):
        with pytest.raises(ValueError, match="unknown scheduler kind"):
            ablate_schedulers(TINY, baseline_state, ["ddim", "heun"], [5], w=1.0)


@pytest.fixture(scope="module")
def collapse_result(baseline_state, tmp_path_factory):
    out = tmp_path_factory.mktemp("collapse")
    cfg = TrainConfig(iterations=100, batch_size=4, seed=11)
    res = collapse_experiment(cfg, baseline_state, gamma_clip=100.0, out_dir=str(out))
    return res, out


class TestCollapseExperiment:
    def test_paired_diversity_matches_golden_fixture(self, collapse_result):
        res, _ = collapse_result
        assert res.table().to_csv() == COLLAPSE_TABLE_CSV

    def test_constrained_run_keeps_image_encoder_frozen(self, baseline_state,
                                                        collapse_result):
        res, _ = collapse_result
        for trained in (res.collapsed_state, res.constrained_state):
            assert _partial_digest(trained, "image/") == _partial_digest(
                baseline_state, "image/")
            assert _partial_digest(trained, "denoiser/") == _partial_digest(
                baseline_state, "denoiser/")
            assert _partial_digest(trained, "text/") != _partial_digest(
                baseline_state, "text/")

    def test_identical_seeds_give_identical_paired_reports(self, baseline_state,
                                                           collapse_result):
        res, _ = collapse_result
        cfg = TrainConfig(iterations=100, batch_size=4, seed=11)
        again = collapse_experiment(cfg, baseline_state, gamma_clip=100.0)
        assert again.table().to_csv() == res.table().to_csv()

    def test_persists_tables_and_checkpoints(self, collapse_result):
        res, out = collapse_result
        assert open(out / "collapse.csv").read() == res.table().to_csv()
        assert (out / "collapse.txt").exists()
        reloaded = load_checkpoint(str(out / "collapsed.rcpt"))
        assert state_digest(reloaded) == state_digest(res.collapsed_state)

    def test_gamma_must_be_positive(self, baseline_state):
        with pytest.raises(ValueError, match="gamma_clip"):
            collapse_experiment(TINY, baseline_state, gamma_clip=0.0)


class TestCliUsage:
    def test_no_arguments_prints_usage_and_exits_1(self, capsys):
        assert cli_main([]) == 1
        err = capsys.readouterr().err
        assert "usage:" in err

    def test_unknown_subcommand_exits_1(self, capsys):
        assert cli_main(["frobnicate"]) == 1
        assert "usage:" in capsys.readouterr().err

    def test_unknown_flag_exits_1(self, capsys):
        assert cli_main(["sample", "--no-such-flag"]) == 1
        assert "error" in capsys.readouterr().err

    def test_missing_required_flag_exits_1(self, capsys):
        assert cli_main(["sample", "--out-dir", "/tmp/x"]) == 1
        assert "required" in capsys.readouterr().err

    def test_help_exits_0(self, capsys):
        assert cli_main(["--help"]) == 0
        assert "usage:" in capsys.readouterr().out


class TestCliSample:
    def test_repeat_run_reproduces_files_byte_for_byte(self, baseline_ckpt, tmp_path):
        args = ["sample", "--checkpoint", baseline_ckpt, "--prompt", "0 3",
                "--seed", "7", "--steps", "10"]
        assert cli_main(args + ["--out-dir", str(tmp_path / "a")]) == 0
        assert cli_main(args + ["--out-dir", str(tmp_path / "b")]) == 0
        for name in ("sample.f32", "sample.f32.json"):
            first = (tmp_path / "a" / name).read_bytes()
            second = (tmp_path / "b" / name).read_bytes()
            assert first == second

    def test_different_seeds_differ(self, baseline_ckpt, tmp_path):
        base = ["sample", "--checkpoint", baseline_ckpt, "--prompt", "0",
                "--steps", "5"]
        assert cli_main(base + ["--seed", "1", "--out-dir", str(tmp_path / "a")]) == 0
        assert cli_main(base + ["--seed", "2", "--out-dir", str(tmp_path / "b")]) == 0
        assert (tmp_path / "a" / "sample.f32").read_bytes() != \
            (tmp_path / "b" / "sample.f32").read_bytes()

    def test_non_attribute_token_exits_2(self, baseline_ckpt, tmp_path, capsys):
        rc = cli_main(["sample", "--checkpoint", baseline_ckpt, "--prompt", "30",
                       "--out-dir", str(tmp_path)])
        assert rc == 2
        assert "not a world attribute" in capsys.readouterr().err

    def test_missing_checkpoint_exits_2(self, tmp_path, capsys):
        rc = cli_main(["sample", "--checkpoint", str(tmp_path / "nope.rcpt"),
                       "--prompt", "0", "--out-dir", str(tmp_path)])
        assert rc == 2

    @pytest.mark.parametrize("key,corrupt,message", [
        ("denoiser/w1", lambda a: a[:, :-1], "entry 'denoiser/w1' has shape"),
        ("text/b2", lambda a: np.full_like(a, np.nan), "entry 'text/b2' holds a non-finite"),
        # the denoiser's only conditioning-width entry: only the cross-set check sees it
        ("denoiser/null_cond", lambda a: a[:-1], "and 'denoiser/null_cond' disagree"),
    ], ids=["short-column", "nan", "short-null-cond"])
    def test_corrupt_checkpoint_exits_2_at_load(self, baseline_state, tmp_path, capsys,
                                                key, corrupt, message):
        state = dict(baseline_state)
        state[key] = corrupt(state[key])
        path = tmp_path / "bad.rcpt"
        save_checkpoint(state, str(path))
        rc = cli_main(["sample", "--checkpoint", str(path), "--prompt", "1",
                       "--out-dir", str(tmp_path / "out")])
        assert rc == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_config_flag_rejected_for_sample(self, baseline_ckpt, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text("{}")
        rc = cli_main(["sample", "--checkpoint", baseline_ckpt, "--prompt", "0",
                       "--config", str(cfg), "--out-dir", str(tmp_path)])
        assert rc == 2
        assert "takes no --config" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["sample", "--checkpoint", "missing.rcpt", "--prompt", "1"],
    ["interpolate", "--checkpoint-a", "missing.rcpt", "--checkpoint-b", "missing.rcpt",
     "--prompt", "1"],
    ["mix", "--checkpoints", "missing.rcpt", "--weights", "1", "--prompt", "1"],
    ["evaluate", "--checkpoint", "missing.rcpt"],
])
def test_sampling_flags_checked_before_any_checkpoint_read(tmp_path, capsys, argv):
    out = tmp_path / "out"
    assert cli_main(argv + ["--steps", "0", "--out-dir", str(out)]) == 2
    assert capsys.readouterr().err == "rewardtune: error: n_steps must be in [1, 1000]\n"
    assert not out.exists()


class TestCliPipeline:
    def test_pretrain_then_finetune_chain(self, tmp_path, capsys):
        clip_cfg = tmp_path / "clip.json"
        clip_cfg.write_text(json.dumps({"iterations": 30, "batch_size": 8}))
        rc = cli_main(["pretrain-clip", "--config", str(clip_cfg), "--seed", "5",
                       "--out-dir", str(tmp_path / "clip")])
        assert rc == 0
        assert (tmp_path / "clip" / "clip.rcpt").exists()
        assert (tmp_path / "clip" / "clip_metrics.csv").exists()

        diff_cfg = tmp_path / "diff.json"
        diff_cfg.write_text(json.dumps({"iterations": 20, "batch_size": 8}))
        rc = cli_main(["pretrain-diffusion", "--config", str(diff_cfg), "--seed", "5",
                       "--checkpoint", str(tmp_path / "clip" / "clip.rcpt"),
                       "--out-dir", str(tmp_path / "diff")])
        assert rc == 0
        model = tmp_path / "diff" / "model.rcpt"
        assert model.exists()
        assert (tmp_path / "diff" / "diffusion_metrics.csv").exists()

        ft_cfg = tmp_path / "ft.json"
        ft_cfg.write_text(json.dumps({"iterations": 2, "batch_size": 1,
                                      "n_steps": 5, "k_last": 2}))
        rc = cli_main(["finetune-text", "--config", str(ft_cfg), "--seed", "5",
                       "--checkpoint", str(model),
                       "--out-dir", str(tmp_path / "ft")])
        assert rc == 0
        assert (tmp_path / "ft" / "model.rcpt").exists()
        assert (tmp_path / "ft" / "metrics.csv").exists()

    def test_pretrain_commands_reproduce_baseline(self, tmp_path):
        # the world's noise_scale crosses the f32 checkpoint between the two
        # commands; make_pretrained_baseline rounds it the same way
        raw = {"iterations": 5, "batch_size": 4}
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(raw))
        assert cli_main(["pretrain-clip", "--config", str(cfg), "--seed", "5",
                         "--out-dir", str(tmp_path / "clip")]) == 0
        assert cli_main(["pretrain-diffusion", "--config", str(cfg), "--seed", "5",
                         "--checkpoint", str(tmp_path / "clip" / "clip.rcpt"),
                         "--out-dir", str(tmp_path / "diff")]) == 0
        clip = PretrainConfig(**raw, seed=derive_seed(5, "clip"))
        diffusion = PretrainConfig(**raw, seed=derive_seed(5, "diffusion", 0))
        want = state_digest(make_pretrained_baseline(5, clip, diffusion))
        assert state_digest(load_checkpoint(str(tmp_path / "diff" / "model.rcpt"))) == want

    def test_finetune_text_repeat_is_byte_identical(self, baseline_ckpt, tmp_path):
        cfg = tmp_path / "ft.json"
        cfg.write_text(json.dumps({"iterations": 2, "batch_size": 1,
                                   "n_steps": 5, "k_last": 2}))
        args = ["finetune-text", "--config", str(cfg), "--seed", "9",
                "--checkpoint", baseline_ckpt]
        assert cli_main(args + ["--out-dir", str(tmp_path / "a")]) == 0
        assert cli_main(args + ["--out-dir", str(tmp_path / "b")]) == 0
        for name in ("model.rcpt", "metrics.csv"):
            assert (tmp_path / "a" / name).read_bytes() == \
                (tmp_path / "b" / name).read_bytes()

    def test_direct_regime_flag(self, baseline_ckpt, tmp_path):
        cfg = tmp_path / "ft.json"
        cfg.write_text(json.dumps({"iterations": 2, "batch_size": 2}))
        rc = cli_main(["finetune-text", "--config", str(cfg), "--regime", "direct",
                       "--checkpoint", baseline_ckpt,
                       "--out-dir", str(tmp_path / "out")])
        assert rc == 0

    def test_finetune_unet_leaves_text_unchanged(self, baseline_ckpt,
                                                 baseline_state, tmp_path):
        cfg = tmp_path / "ft.json"
        cfg.write_text(json.dumps({"iterations": 2, "batch_size": 1,
                                   "n_steps": 5, "k_last": 2}))
        rc = cli_main(["finetune-unet", "--config", str(cfg),
                       "--checkpoint", baseline_ckpt,
                       "--out-dir", str(tmp_path / "out")])
        assert rc == 0
        trained = load_checkpoint(str(tmp_path / "out" / "model.rcpt"))
        assert _partial_digest(trained, "text/") == _partial_digest(
            baseline_state, "text/")
        assert _partial_digest(trained, "denoiser/") != _partial_digest(
            baseline_state, "denoiser/")

    def test_non_finite_run_exits_2_without_checkpoint(self, baseline_ckpt, tmp_path,
                                                       capsys):
        cfg = tmp_path / "ft.json"
        cfg.write_text(json.dumps({"lr": 1e30, "iterations": 4, "batch_size": 1,
                                   "n_steps": 3, "k_last": 1}))
        rc = cli_main(["finetune-text", "--config", str(cfg),
                       "--checkpoint", baseline_ckpt,
                       "--out-dir", str(tmp_path / "out")])
        assert rc == 2
        assert "iteration 1: non-finite" in capsys.readouterr().err
        assert not (tmp_path / "out" / "model.rcpt").exists()
        assert not (tmp_path / "out" / "metrics.csv").exists()

    def test_unknown_config_key_exits_2(self, baseline_ckpt, tmp_path, capsys):
        cfg = tmp_path / "ft.json"
        cfg.write_text(json.dumps({"iterations": 2, "learning_rate": 0.1}))
        rc = cli_main(["finetune-text", "--config", str(cfg),
                       "--checkpoint", baseline_ckpt,
                       "--out-dir", str(tmp_path / "out")])
        assert rc == 2
        assert "unknown config keys" in capsys.readouterr().err

    @pytest.mark.parametrize("rewards,want", [
        ([{"kind": "alignment", "weight": 1, "wieght": 2}], "rewards[0] must be an object"),
        ([{"weight": 1}], "rewards[0] must be an object"),
        (["alignment"], "rewards[0] must be an object"),
        ({"kind": "alignment", "weight": 1}, "rewards must be a list"),
        ([{"kind": "alignment", "weight": "1e2"}], "rewards[0]: weight must be a number, got '1e2'"),
        ([{"kind": "alignment", "weight": True}], "rewards[0]: weight must be a number, got True"),
        ([{"kind": "alignment", "weight": None}], "rewards[0]: weight must be a number, got None"),
    ], ids=["misspelled-key", "missing-kind", "bare-string", "bare-object", "string-weight",
            "bool-weight", "null-weight"])
    def test_malformed_reward_entry_exits_2(self, baseline_ckpt, tmp_path, capsys,
                                            rewards, want):
        cfg = tmp_path / "ft.json"
        cfg.write_text(json.dumps({"iterations": 1, "batch_size": 1, "n_steps": 3,
                                   "k_last": 1, "rewards": rewards}))
        rc = cli_main(["finetune-text", "--config", str(cfg),
                       "--checkpoint", baseline_ckpt,
                       "--out-dir", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith(f"rewardtune: error: {want}")
        assert not (tmp_path / "out").exists()

    def test_diverging_pretrain_exits_2_without_checkpoint(self, baseline_ckpt, tmp_path,
                                                           capsys):
        cfg = tmp_path / "diff.json"
        cfg.write_text(json.dumps({"iterations": 3, "batch_size": 2, "lr": 1e30}))
        rc = cli_main(["pretrain-diffusion", "--config", str(cfg),
                       "--checkpoint", baseline_ckpt,
                       "--out-dir", str(tmp_path / "out")])
        assert rc == 2
        assert "iteration 1: non-finite" in capsys.readouterr().err
        assert not (tmp_path / "out" / "model.rcpt").exists()
        assert not (tmp_path / "out" / "diffusion_metrics.csv").exists()

    @pytest.mark.parametrize("command,extra,chain,what", [
        ("finetune-text", [], {"n_steps": 3, "k_last": 1}, "loss"),
        ("finetune-text", ["--regime", "direct"], {}, "loss"),
        ("finetune-unet", [], {"n_steps": 3, "k_last": 1}, "loss"),
        ("pretrain-diffusion", [], {}, "loss"),
        ("pretrain-clip", [], {}, "text embedding norm"),
    ], ids=["prompt-chain", "direct", "unet-chain", "pretrain-diffusion", "pretrain-clip"])
    def test_diverging_run_prints_one_line(self, baseline_ckpt, tmp_path, capsys,
                                           command, extra, chain, what):
        # any NumPy RuntimeWarning raised on the way would surface as the error
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"lr": 1e30, "iterations": 3, "batch_size": 2, **chain}))
        if command != "pretrain-clip":
            extra = ["--checkpoint", baseline_ckpt] + extra
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rc = cli_main([command, "--config", str(cfg),
                           "--out-dir", str(tmp_path / "out")] + extra)
        assert rc == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith(f"rewardtune: error: iteration 1: non-finite {what} ")
        assert not [p for p in (tmp_path / "out").rglob("*") if p.is_file()]

    @pytest.mark.parametrize("command,key", [
        ("finetune-text", "constraint_uses_frozen_copy"),
        ("finetune-text", "cfg_in_chain"),
        ("finetune-text", "cfg_scale"),
        ("pretrain-diffusion", "temp_init"),
        ("pretrain-diffusion", "log_temp_max"),
        ("pretrain-diffusion", "lr_final"),
    ])
    def test_removed_config_key_exits_2(self, baseline_ckpt, tmp_path, capsys,
                                        command, key):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"iterations": 2, key: 1.0}))
        rc = cli_main([command, "--config", str(cfg), "--checkpoint", baseline_ckpt,
                       "--out-dir", str(tmp_path / "out")])
        assert rc == 2
        assert f"unknown config keys: {key}" in capsys.readouterr().err

    @pytest.mark.parametrize("command,raw,want", [
        ("finetune-text", {"iterations": True}, "'iterations' must be an integer, got True"),
        ("finetune-text", {"batch_size": 2.0}, "'batch_size' must be an integer, got 2.0"),
        ("finetune-text", {"iterations": 2.5, "batch_size": 1, "n_steps": 3, "k_last": 1},
         "'iterations' must be an integer, got 2.5"),
        ("finetune-text", {"lr": "0.001"}, "'lr' must be a number, got '0.001'"),
        ("finetune-text", {"sampler": 1}, "'sampler' must be a string, got 1"),
        ("pretrain-clip", {"iterations": 2, "batch_size": "4"},
         "'batch_size' must be an integer, got '4'"),
        ("pretrain-diffusion", {"null_drop": True}, "'null_drop' must be a number, got True"),
    ])
    def test_mistyped_config_field_exits_2(self, baseline_ckpt, tmp_path, capsys,
                                           command, raw, want):
        # rejected before any file is written, in one line naming the field
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(raw))
        checkpoint = [] if command == "pretrain-clip" else ["--checkpoint", baseline_ckpt]
        rc = cli_main([command, "--config", str(cfg), *checkpoint,
                       "--out-dir", str(tmp_path / "out")])
        assert rc == 2
        assert capsys.readouterr().err == f"rewardtune: error: config field {want}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command,raw,want", [
        ("finetune-text", {"lr": float("nan")}, "config field 'lr' must be a number, got nan"),
        ("finetune-text", {"grad_clip": float("inf")},
         "config field 'grad_clip' must be a number, got inf"),
        ("finetune-text", {"chain_cfg_scale": float("nan")},
         "config field 'chain_cfg_scale' must be a number, got nan"),
        ("finetune-text", {"weight_decay": -1}, "weight_decay must be non-negative"),
        ("pretrain-clip", {"lr": float("nan")}, "config field 'lr' must be a number, got nan"),
        ("pretrain-clip", {"grad_clip": float("inf")},
         "config field 'grad_clip' must be a number, got inf"),
        ("pretrain-clip", {"weight_decay": -1}, "weight_decay must be non-negative"),
    ], ids=["ft-nan-lr", "ft-inf-clip", "ft-nan-cfg", "ft-neg-decay", "clip-nan-lr",
            "clip-inf-clip", "clip-neg-decay"])
    def test_non_finite_or_negative_decay_config_exits_2(self, baseline_ckpt, tmp_path, capsys,
                                                         command, raw, want):
        # JSON NaN and Infinity parse to floats; the run they would start
        # checkpoints at every iteration, so any file in --out-dir means an
        # update ran on the bad value
        base = {"iterations": 3, "batch_size": 2}
        if command == "finetune-text":
            base.update(n_steps=3, k_last=1, checkpoint_interval=1)
            checkpoint = ["--checkpoint", baseline_ckpt]
        else:
            checkpoint = []
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({**base, **raw}))
        rc = cli_main([command, "--config", str(cfg), *checkpoint,
                       "--out-dir", str(tmp_path / "out")])
        assert rc == 2
        assert capsys.readouterr().err == f"rewardtune: error: {want}\n"
        assert not (tmp_path / "out").exists()

    def test_non_object_config_exits_2(self, baseline_ckpt, tmp_path, capsys):
        cfg = tmp_path / "ft.json"
        cfg.write_text("[1, 2]")
        rc = cli_main(["finetune-text", "--config", str(cfg),
                       "--checkpoint", baseline_ckpt,
                       "--out-dir", str(tmp_path / "out")])
        assert rc == 2
        assert "JSON object" in capsys.readouterr().err


class TestCliEvaluate:
    def test_writes_report_and_repeats_identically(self, baseline_ckpt, tmp_path):
        args = ["evaluate", "--checkpoint", baseline_ckpt, "--seed", "5",
                "--steps", "5"]
        assert cli_main(args + ["--out-dir", str(tmp_path / "a")]) == 0
        assert cli_main(args + ["--out-dir", str(tmp_path / "b")]) == 0
        first = (tmp_path / "a" / "report.csv").read_bytes()
        assert first == (tmp_path / "b" / "report.csv").read_bytes()
        assert (tmp_path / "a" / "report.txt").exists()

    def test_two_checkpoints_give_two_rows(self, baseline_ckpt, tmp_path):
        rc = cli_main(["evaluate", "--checkpoint", baseline_ckpt,
                       "--checkpoint", baseline_ckpt, "--steps", "5",
                       "--out-dir", str(tmp_path)])
        assert rc == 0
        lines = (tmp_path / "report.csv").read_text().splitlines()
        assert len(lines) == 3
        assert lines[1].split(",")[1:] == lines[2].split(",")[1:]

    def test_prompt_token_outside_the_world_exits_2_before_any_chain(
            self, baseline_ckpt, tmp_path, capsys, monkeypatch):
        chains = []
        monkeypatch.setattr(evalcli, "sample_from_cond",
                            lambda *args, **kwargs: chains.append(args))
        prompts = tmp_path / "prompts.txt"
        prompts.write_text("".join(f"{i % 8}\n" for i in range(31)) + "1 20\n")
        out = tmp_path / "out"
        rc = cli_main(["evaluate", "--checkpoint", baseline_ckpt, "--prompts", str(prompts),
                       "--steps", "5", "--out-dir", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err == "rewardtune: error: token 20 is not an attribute of this world\n"
        assert chains == []
        assert not out.exists()


class TestCliInterpolateAndMix:
    def test_interpolate_identical_encoders_has_zero_distances(
            self, baseline_ckpt, tmp_path):
        rc = cli_main(["interpolate", "--checkpoint-a", baseline_ckpt,
                       "--checkpoint-b", baseline_ckpt, "--prompt", "1 4",
                       "--lambdas", "0,0.5,1", "--steps", "5",
                       "--out-dir", str(tmp_path)])
        assert rc == 0
        for i in range(3):
            assert (tmp_path / f"sample_{i:02d}.f32").exists()
        lines = (tmp_path / "interpolation.csv").read_text().splitlines()
        assert lines[0] == "lambda_from,lambda_to,distance"
        assert [row.split(",")[2] for row in lines[1:]] == ["0", "0"]

    def test_interpolate_rejects_lambda_outside_unit_interval(
            self, baseline_ckpt, tmp_path):
        rc = cli_main(["interpolate", "--checkpoint-a", baseline_ckpt,
                       "--checkpoint-b", baseline_ckpt, "--prompt", "1",
                       "--lambdas", "0,1.5", "--steps", "5",
                       "--out-dir", str(tmp_path)])
        assert rc == 2

    def test_mix_writes_sample(self, baseline_ckpt, tmp_path):
        rc = cli_main(["mix", "--checkpoints", f"{baseline_ckpt},{baseline_ckpt}",
                       "--weights", "0.5,0.5", "--prompt", "2", "--steps", "5",
                       "--out-dir", str(tmp_path)])
        assert rc == 0
        assert (tmp_path / "mix.f32").exists()

    def test_mix_count_mismatch_exits_2(self, baseline_ckpt, tmp_path, capsys):
        rc = cli_main(["mix", "--checkpoints", f"{baseline_ckpt},{baseline_ckpt}",
                       "--weights", "1.0", "--prompt", "2",
                       "--out-dir", str(tmp_path)])
        assert rc == 2

    def test_mix_weights_must_sum_to_one(self, baseline_ckpt, tmp_path, capsys):
        rc = cli_main(["mix", "--checkpoints", f"{baseline_ckpt},{baseline_ckpt}",
                       "--weights", "0.5,0.6", "--prompt", "2",
                       "--out-dir", str(tmp_path)])
        assert rc == 2
        assert "sum to 1" in capsys.readouterr().err

    @pytest.mark.parametrize("corrupt,message", [
        ({"denoiser/null_cond": lambda a: a[:-1]}, "and 'denoiser/null_cond' disagree"),
        # one data column narrower than the world, consistent within the set
        ({"denoiser/b3": lambda a: a[:-1], "denoiser/w3": lambda a: a[:, :-1],
          "denoiser/w1": lambda a: a[:-1]}, "and 'denoiser/b3' disagree"),
    ], ids=["short-null-cond", "narrow-denoiser"])
    @pytest.mark.parametrize("command", ["interpolate", "mix"])
    def test_corrupt_base_checkpoint_exits_2_at_load(self, baseline_state, baseline_ckpt,
                                                     tmp_path, capsys, command, corrupt,
                                                     message):
        state = dict(baseline_state)
        for key, fn in corrupt.items():
            state[key] = fn(state[key])
        bad = str(tmp_path / "bad.rcpt")
        save_checkpoint(state, bad)
        if command == "interpolate":
            args = ["interpolate", "--checkpoint-a", bad, "--checkpoint-b", baseline_ckpt]
        else:
            args = ["mix", "--checkpoints", f"{bad},{baseline_ckpt}",
                    "--weights", "0.5,0.5"]
        out = tmp_path / "out"
        rc = cli_main(args + ["--prompt", "1", "--steps", "5", "--out-dir", str(out)])
        assert rc == 2
        assert message in capsys.readouterr().err
        assert not list(tmp_path.rglob("*.f32"))


class TestCliNumberFlags:
    @pytest.mark.parametrize("argv,code,want", [
        ("sample --checkpoint {ckpt} --prompt 1 --steps 5 --w nan", 1,
         "argument --w: expected a finite number, got 'nan'"),
        ("sample --checkpoint {ckpt} --prompt 1 --steps 5 --w inf", 1,
         "argument --w: expected a finite number, got 'inf'"),
        ("interpolate --checkpoint-a {ckpt} --checkpoint-b {ckpt} --prompt 1 --steps 5 --w nan",
         1, "argument --w: expected a finite number, got 'nan'"),
        ("interpolate --checkpoint-a {ckpt} --checkpoint-b {ckpt} --prompt 1 --steps 5 "
         "--lambdas 0,nan", 2, "--lambdas expects numbers, got '0,nan'"),
        ("mix --checkpoints {ckpt},{ckpt} --weights nan,0.5 --prompt 1 --steps 5", 2,
         "--weights expects numbers, got 'nan,0.5'"),
        ("ablate-schedulers --checkpoint {ckpt} --w nan", 1,
         "argument --w: expected a finite number, got 'nan'"),
        ("collapse --checkpoint {ckpt} --gamma-clip nan", 1,
         "argument --gamma-clip: expected a finite number, got 'nan'"),
        ("sample --checkpoint {ckpt} --prompt 1 --steps 5 --w 1e", 1,
         "argument --w: expected a finite number, got '1e'"),
    ], ids=["sample-nan", "sample-inf", "interpolate-nan", "lambdas-nan", "weights-nan",
            "ablate-nan", "gamma-clip-nan", "malformed"])
    def test_non_finite_value_exits_before_any_file(self, baseline_ckpt, tmp_path, capsys,
                                                    argv, code, want):
        # each would otherwise write an all-NaN sample or start a run
        out = tmp_path / "out"
        rc = cli_main(argv.format(ckpt=baseline_ckpt).split() + ["--out-dir", str(out)])
        assert rc == code
        assert want in capsys.readouterr().err
        assert not out.exists()


class TestGuidanceCheckedBeforeTraining:
    """The experiment commands reject a bad guidance scale or step count
    before any training."""

    @pytest.fixture()
    def trainings(self, monkeypatch):
        calls = []

        def fake_run_training(config, state_in, *args, **kwargs):
            calls.append(config)
            return state_in, None

        monkeypatch.setattr(evalcli, "run_training", fake_run_training)
        return calls

    @pytest.mark.parametrize("command,extra", [
        ("ablate-steps", ["--train-k", "2", "--test-n", "5"]),
        ("ablate-schedulers", ["--kinds", "ddim", "--steps", "5"]),
        ("collapse", []),
    ])
    def test_cli_exits_2_before_training(self, baseline_ckpt, tmp_path, capsys, trainings,
                                         command, extra):
        cfg = tmp_path / "base.json"
        cfg.write_text(json.dumps({"iterations": 600, "batch_size": 2,
                                   "n_steps": 5, "k_last": 2}))
        out = tmp_path / "out"
        rc = cli_main([command, "--config", str(cfg), "--checkpoint", baseline_ckpt,
                       "--w", "-1", *extra, "--out-dir", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "guidance scale must be finite and non-negative, got -1.0" in err
        assert trainings == []
        assert not out.exists()

    @pytest.mark.parametrize("w", [-0.5, float("nan"), float("inf")])
    def test_functions_raise_before_training(self, baseline_state, trainings, w):
        match = "guidance scale must be finite and non-negative"
        with pytest.raises(ValueError, match=match):
            ablate_steps(TINY, baseline_state, [2], [5], w=w)
        with pytest.raises(ValueError, match=match):
            ablate_schedulers(TINY, baseline_state, ["ddim"], [5], w=w)
        with pytest.raises(ValueError, match=match):
            collapse_experiment(TINY, baseline_state, w=w)
        assert trainings == []

    def test_step_counts_raise_before_training(self, baseline_state, trainings):
        with pytest.raises(ValueError, match=r"n_steps must be in \[1, 1000\]"):
            ablate_steps(TINY, baseline_state, [2], [5, 5000])
        with pytest.raises(ValueError, match=r"n_steps must be in \[1, 1000\]"):
            ablate_schedulers(TINY, baseline_state, ["ddim"], [0, 5])
        assert trainings == []

    @pytest.mark.parametrize("command,extra", [
        ("ablate-steps", ["--train-k", "1,2", "--test-n", "5000"]),
        ("ablate-schedulers", ["--kinds", "ddim", "--steps", "0"]),
    ])
    def test_cli_step_counts_exit_2_before_training(self, baseline_ckpt, tmp_path, capsys,
                                                    trainings, command, extra):
        cfg = tmp_path / "base.json"
        cfg.write_text(json.dumps({"iterations": 600, "batch_size": 2,
                                   "n_steps": 5, "k_last": 2}))
        out = tmp_path / "out"
        rc = cli_main([command, "--config", str(cfg), "--checkpoint", baseline_ckpt,
                       *extra, "--out-dir", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err == "rewardtune: error: n_steps must be in [1, 1000]\n"
        assert trainings == []
        assert not out.exists()


class TestCliAblations:
    def test_ablate_steps_writes_grid(self, baseline_ckpt, tmp_path):
        cfg = tmp_path / "base.json"
        cfg.write_text(json.dumps({"iterations": 2, "batch_size": 1,
                                   "n_steps": 5, "k_last": 2}))
        args = ["ablate-steps", "--config", str(cfg), "--checkpoint", baseline_ckpt,
                "--train-k", "2", "--test-n", "3", "--seed", "3"]
        assert cli_main(args + ["--out-dir", str(tmp_path / "a")]) == 0
        assert cli_main(args + ["--out-dir", str(tmp_path / "b")]) == 0
        first = (tmp_path / "a" / "ablate_steps.csv").read_bytes()
        assert first == (tmp_path / "b" / "ablate_steps.csv").read_bytes()
        assert (tmp_path / "a" / "ablate_steps.txt").exists()

    def test_ablate_schedulers_writes_table(self, baseline_ckpt, tmp_path):
        cfg = tmp_path / "base.json"
        cfg.write_text(json.dumps({"iterations": 2, "batch_size": 1,
                                   "n_steps": 5, "k_last": 2}))
        rc = cli_main(["ablate-schedulers", "--config", str(cfg),
                       "--checkpoint", baseline_ckpt, "--kinds", "ddim",
                       "--steps", "5", "--out-dir", str(tmp_path / "out")])
        assert rc == 0
        lines = (tmp_path / "out" / "ablate_schedulers.csv").read_text().splitlines()
        assert lines[0] == "sampler,steps,reward_image,reward_align,reward_clip"
        assert len(lines) == 2

    def test_collapse_writes_report_and_checkpoints(self, baseline_ckpt, tmp_path):
        cfg = tmp_path / "base.json"
        cfg.write_text(json.dumps({"iterations": 2, "batch_size": 1,
                                   "n_steps": 5, "k_last": 2}))
        rc = cli_main(["collapse", "--config", str(cfg),
                       "--checkpoint", baseline_ckpt,
                       "--out-dir", str(tmp_path / "out")])
        assert rc == 0
        for name in ("collapse.csv", "collapse.txt", "collapsed.rcpt",
                     "constrained.rcpt"):
            assert (tmp_path / "out" / name).exists()
