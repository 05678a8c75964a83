"""Tests of the benchmark itself. Run with ``python -m pytest bench``."""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import measure  # noqa: E402
import reference  # noqa: E402
from rewardtune.data import world_from_state  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def _declared():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_declared_names_match_the_code():
    spec = _declared()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert list(run.WORKLOADS) == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == measure.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == measure.PER_LAYER


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_tiny_run_emits_declared_metrics_without_failures(name, tmp_path):
    for trace, declared in ((False, measure.END_TO_END), (True, measure.PER_LAYER)):
        report, result = measure.run(name, 3, 0, trace, sizes=workloads.TINY,
                                     spans_path=tmp_path / "spans.jsonl")
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["failed"] == 0 and result["attempted"] >= 1
        assert report["failed_ratio"] == 0
        assert set(result["metrics"]) == set(declared)
        for key, metric in result["metrics"].items():
            assert metric["unit"] == declared[key]
            assert math.isfinite(metric["value"]), key
    assert (tmp_path / "spans.jsonl").stat().st_size > 0


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_seed_changes_generated_inputs(name):
    def inputs(seed):
        workload = workloads.make_workload(name, seed, workloads.TINY)
        world = world_from_state(workload.build_start())
        return workload.inputs(), world.patterns.tolist()

    assert inputs(1) == inputs(1)
    one, two = inputs(1), inputs(2)
    assert one[0] != two[0]
    assert one[1] != two[1]


def test_same_code_and_seed_give_same_digests():
    first, _ = measure.run("tune-chain", 5, 0, False, sizes=workloads.TINY)
    second, _ = measure.run("tune-chain", 5, 0, False, sizes=workloads.TINY)
    other, _ = measure.run("tune-chain", 6, 0, False, sizes=workloads.TINY)
    assert first["digests"] == second["digests"]
    assert first["digests"]["state"] != other["digests"]["state"]


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "pretrain", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_scaled_times_follow_the_reference_kernel():
    rnd = measure.Round.__new__(measure.Round)
    rnd.work_ns, rnd.step_ns = 30e6, [10e6, 20e6]
    rnd.kernel_ns = [2e6, 4e6]  # sampled after each iteration: the machine slowed down
    round_ns, steps = rnd.scaled(2e6, 4e6)
    ref_ns = reference.REFERENCE_MS * 1e6
    assert steps == pytest.approx([10e6 * ref_ns / 2e6, 20e6 * ref_ns / 3e6])
    assert round_ns == pytest.approx(30e6 * ref_ns / 3e6)  # mean of the samples inside


def test_untraced_run_samples_the_kernel_beside_every_round():
    report, _ = measure.run("pretrain", 3, 0, False, sizes=workloads.TINY)
    metrics = report["metrics"]
    assert len(metrics["reference"]["boundary_ms"]) == report["rounds"] + 1
    assert all(ms > 0 for ms in metrics["reference"]["boundary_ms"])
    assert set(metrics["scaled"]) == set(metrics["wall"])
