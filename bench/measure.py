"""Measurement loop, metrics and the result report of one benchmark run."""

from __future__ import annotations

import hashlib
import os
import platform
import statistics
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

import numpy as np

import reference
import workloads
from rewardtune.models import state_digest
from tracing import HeapProbe, Probes, Tracer

ROOT = Path(__file__).resolve().parent.parent

# the metrics of the last output line; BENCHMARK.json declares the same names.
# Every time in them is scaled to the reference kernel's speed (reference.py).
END_TO_END = {
    "setup_s": "s",           # median over the run's set-ups
    "items_per_s": "items/s",  # train: batch items trained; eval-grid: chains sampled
    "step_ms_p50": "ms",      # train: one iteration; eval-grid: grid time per denoising step
}
OP_KINDS_REPORTED = ("matmul", "add", "mul", "silu")
# Counts, and the times that all three workloads make non-zero: every traced
# run prints each of these, and a layer a workload never calls would read 0
# on every run. The report's "layers" holds the other layer times too.
PER_LAYER = {
    "tensorad.ops.taped.calls": "count",
    "tensorad.ops.taped.us_per_call": "us",
    "tensorad.ops.detached.calls": "count",
    **{f"tensorad.ops.{k}.taped.calls": "count" for k in OP_KINDS_REPORTED},
    **{f"tensorad.ops.{k}.taped.us_per_call": "us" for k in OP_KINDS_REPORTED},
    **{f"tensorad.ops.{k}.detached.calls": "count" for k in OP_KINDS_REPORTED},
    "tensorad.backward.calls": "count",
    "tensorad.backward.s": "s",
    "tensorad.segment.replays": "count",
    "tensorad.tape.nodes": "count",
    "tensorad.peak_live_interior": "count",
    "tensorad.heap_peak_bytes": "bytes",
    **{f"models.{m}.calls": "count" for m in ("denoise", "text_encode", "image_encode")},
    **{f"models.{m}.s": "s" for m in ("denoise", "text_encode", "image_encode")},
    "models.text_encode.repeat_share": "share",
    "schedule.sampler_step.calls": "count",
    "schedule.cfg_combine.calls": "count",
    "rewards.combined_loss.calls": "count",
    "rewards.reward_values.calls": "count",
    "inference.sample_from_cond.calls": "count",
    "finetune.step.calls": "count",
    "finetune.adamw_update.s": "s",
    "finetune.clip_global_norm.s": "s",
    "finetune.clip_active_share": "share",
    "data.sample_pair.calls": "count",
    "evalcli.evaluate.calls": "count",
    "evalcli.cells.concurrency": "cells",
    "trace.overhead": "share",
}


def _percentile_tail(values):
    """Highest of p99.9/p99/p90/p50 with at least ten samples beyond it."""
    n = len(values)
    for p in (99.9, 99.0, 90.0, 50.0):
        if n * (1.0 - p / 100.0) >= 10:
            return {"percentile": p, "value": float(np.percentile(values, p)), "samples": n}
    return {"percentile": None, "value": None, "samples": n}


def _git_revision():
    """HEAD of the checkout from .git files, or "unknown" outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _src_sha256():
    """Content hash of the package sources, which identifies code outside git too."""
    h = hashlib.sha256()
    src = ROOT / "src"
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _blas():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return "unknown"
    return {k: blas.get(k) for k in ("name", "version", "openblas configuration")}


def header(workload, seed, seconds, trace):
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "cpu_count": os.cpu_count(), "python": platform.python_version(),
        "numpy": np.__version__, "blas": _blas(),
        "git_revision": _git_revision(), "src_sha256": _src_sha256(),
    }


class Round:
    """One timed round: its outcome plus what the probes saw.

    ``ns`` is the round's wall time and ``work_ns`` the same less the
    reference samples taken inside it; ``step_ns`` holds the iteration times
    of a training round and the chain times of a grid round.
    """

    def __init__(self, workload, start, r, probes, tracer=None):
        if tracer is not None:
            tracer.install()
        t0 = time.perf_counter_ns()
        probes.reset(t0)
        try:
            self.outcome = workload.run_round(start, r)
        except Exception:  # a failed round is counted, and the run goes on
            traceback.print_exc(file=sys.stderr)
            self.outcome = None
        finally:
            self.ns = time.perf_counter_ns() - t0
            if tracer is not None:
                tracer.uninstall()
        self.work_ns = self.ns - probes.paused_ns
        self.kernel_ns = list(probes.kernel_ns)
        self.steps = list(probes.steps)
        self.chains = list(probes.chains)
        self.checks = {}
        out = self.outcome
        if out is None:
            self.items, self.attempted, self.failed, self.step_ns = 0, 1, 1, []
            self.checks[f"round{r}.completed"] = False
            return
        self.checks.update(out.checks)
        self.checks.update(workload.check(start, out))
        self.attempted, self.failed = out.attempted, out.failed
        if out.chains_expected:
            self.step_ns = [ns for ns, _, _ in self.chains]
            self.items = len(self.chains)
            self.attempted += len(self.chains)
            self.failed += sum(1 for _, _, finite in self.chains if not finite)
            self.checks["grid.chains_finite"] = all(finite for _, _, finite in self.chains)
            self.checks["grid.chain_count"] = len(self.chains) == out.chains_expected
        else:
            self.step_ns = list(probes.iter_ns)
            self.items = out.items
            self.checks["train.iteration_count"] = len(self.step_ns) == out.attempted

    def scaled(self, before_ns, after_ns):
        """(round work time, iteration times) of a single-threaded round, in
        ns at the reference speed.

        ``before_ns`` and ``after_ns`` are the kernel samples taken beside
        the round. An iteration is scaled by the mean of the samples just
        before and after it, the round by ``_span_kernel``.
        """
        kernels = [before_ns] + self.kernel_ns + [after_ns]
        steps = [reference.scale(ns, (kernels[i] + kernels[i + 1]) / 2)
                 for i, ns in enumerate(self.step_ns)]
        return reference.scale(self.work_ns, _span_kernel(self.kernel_ns, before_ns, after_ns)), steps


def _span_kernel(inside_ns, before_ns, after_ns):
    """The kernel time that scales a span: the mean of the samples taken
    inside it, or of the two beside it when there are none.

    A mean, not a median: when the host stops the run for a few tens of
    milliseconds now and then, the stops lengthen the span and the kernel
    samples in proportion to their time, and a mean follows that while a
    median passes over the few samples they hit.
    """
    return statistics.fmean(inside_ns) if inside_ns else (before_ns + after_ns) / 2


def _step_counters(steps):
    if not steps:
        return {"steps": 0, "tape_nodes_per_step": 0.0, "segments_per_step": 0.0,
                "peak_live_interior": 0}
    return {
        "steps": len(steps),
        "tape_nodes_per_step": sum(s["nodes"] for s in steps) / len(steps),
        "segments_per_step": sum(s["segments"] for s in steps) / len(steps),
        "peak_live_interior": max(s["peak_live_interior"] for s in steps),
    }


def _union_ns(intervals):
    total, end = 0, None
    for a, b in sorted(intervals):
        if end is None or a > end:
            total += b - a
            end = b
        elif b > end:
            total += b - end
            end = b
    return total


def layer_metrics(tracer, round0, steps0, n_rounds, overhead, heap_peak):
    """Every per-layer number the traced run knows, by name.

    Counts are those of the first traced round, which is the same work for a
    given seed on every machine. Times are per traced round (mean over all
    of them); ``us_per_call`` and ``iter_ms`` divide by all their calls.
    """
    calls, ns = tracer.op_totals()
    calls0 = round0["calls"]
    names = {sid: name for sid, _, _, name, _, _, _ in tracer.spans}
    span_calls0 = Counter(s[3] for s in tracer.spans[:round0["spans"]])
    span_ns, span_self = Counter(), Counter()
    for _, _, _, name, t0, t1, self_ns in tracer.spans:
        span_ns[name] += t1 - t0
        span_self[name] += self_ns
    notes, notes0 = tracer.notes, round0["notes"]

    def op_calls(taped, kind=None):
        return sum(n for (k, t), n in calls0.items() if t == taped and kind in (None, k))

    def op_us(taped, kind=None):
        keys = [(k, t) for (k, t) in calls if t == taped and kind in (None, k)]
        n = sum(calls[key] for key in keys)
        return sum(ns[key] for key in keys) / n / 1e3 if n else 0.0

    def per_round_s(name):
        return span_ns[name] / n_rounds / 1e9

    def share(part, whole):
        return part / whole if whole else 0.0

    out = {}
    for taped, label in ((True, "taped"), (False, "detached")):
        out[f"tensorad.ops.{label}.calls"] = op_calls(taped)
        out[f"tensorad.ops.{label}.us_per_call"] = op_us(taped)
        for kind in OP_KINDS_REPORTED:
            out[f"tensorad.ops.{kind}.{label}.calls"] = op_calls(taped, kind)
            out[f"tensorad.ops.{kind}.{label}.us_per_call"] = op_us(taped, kind)
    counters = _step_counters(steps0)
    out.update({
        "tensorad.backward.calls": span_calls0["tensorad.backward"],
        "tensorad.backward.s": per_round_s("tensorad.backward"),
        "tensorad.segment.record_s": per_round_s("tensorad.segment.record"),
        "tensorad.segment.replays": sum(s["segments"] for s in steps0),
        "tensorad.tape.nodes": counters["tape_nodes_per_step"],
        "tensorad.peak_live_interior": counters["peak_live_interior"],
        "tensorad.heap_peak_bytes": heap_peak,
    })
    for name in ("models.denoise", "models.text_encode", "models.image_encode",
                 "schedule.sampler_step", "schedule.cfg_combine", "rewards.combined_loss",
                 "rewards.reward_values", "inference.sample_from_cond", "finetune.step",
                 "data.sample_pair", "evalcli.evaluate", "evalcli.ablate_schedulers"):
        out[f"{name}.calls"] = span_calls0[name]
        out[f"{name}.s"] = per_round_s(name)
        out[f"{name}.self_s"] = span_self[name] / n_rounds / 1e9
    out["models.text_encode.repeat_share"] = share(notes0["models.text_encode.repeats"],
                                                   span_calls0["models.text_encode"])
    out["inference.us_per_step"] = share(span_ns["inference.sample_from_cond"],
                                         notes["chain.steps"]) / 1e3
    out["finetune.adamw_update.s"] = per_round_s("finetune.adamw_update")
    out["finetune.clip_global_norm.s"] = per_round_s("finetune.clip_global_norm")
    out["finetune.clip_active_share"] = share(notes0["clip.active"], notes0["clip.calls"])
    for stage in ("clip", "diffusion"):
        out[f"pretrain.{stage}.iter_ms"] = share(span_ns[f"pretrain.{stage}"],
                                                 notes[f"pretrain.{stage}.iters"]) / 1e6
    out["pretrain.contrastive_loss.s"] = per_round_s("pretrain.contrastive_loss")
    out["evalcli.run_training.s"] = sum(
        t1 - t0 for _, parent, _, name, t0, t1, _ in tracer.spans
        if name == "finetune.run_training" and names.get(parent, "").startswith("evalcli.")
    ) / n_rounds / 1e9
    cells = [(t0, t1) for _, _, _, name, t0, t1, _ in tracer.spans if name == "evalcli.evaluate"]
    out["evalcli.cells.concurrency"] = share(sum(b - a for a, b in cells), _union_ns(cells))
    out["trace.overhead"] = overhead
    return out


def _median_s(rounds):
    return statistics.median(r.ns for r in rounds) / 1e9


def _figures(name, rounds, round_ns, step_ns, setup_s):
    """The declared end-to-end numbers from one set of round and step times.

    Every round does the same amount of work, so throughput is items per
    round over the median round time, which a slow moment of the machine
    moves less than a total would.
    """
    round_s = statistics.median(round_ns) / 1e9
    out = {"setup_s": statistics.median(setup_s),
           "items_per_s": statistics.median(r.items for r in rounds) / round_s}
    if name == "eval-grid":
        # Cells run two at a time in the package's thread pool, so one chain's
        # latency depends on what the other thread runs meanwhile and flips
        # between a shared and a solo mode from run to run. The declared step
        # is the grid's time per denoising step, median over rounds.
        out["step_ms_p50"] = statistics.median(
            ns / 1e6 / sum(n for _, n, _ in r.chains)
            for r, ns in zip(rounds, round_ns) if r.chains)
    else:
        out["step_ms_p50"] = statistics.median(step_ns) / 1e6
    return out


def _train_detail(name, rounds, step_ns):
    """Tail and per-stage medians of the iteration times, in ms."""
    steps = [ns / 1e6 for ns in step_ns]
    detail = {"iter_ms_tail": _percentile_tail(steps)}
    first = rounds[0].outcome
    if name == "pretrain" and first is not None:
        n_clip = len(first.losses["clip"])
        per_round = len(first.losses["clip"]) + len(first.losses["diffusion"])
        detail["clip.iter_ms_p50"] = statistics.median(
            ms for i, ms in enumerate(steps) if i % per_round < n_clip)
        detail["diffusion.iter_ms_p50"] = statistics.median(
            ms for i, ms in enumerate(steps) if i % per_round >= n_clip)
    return detail


def _end_to_end(name, rounds, boundary_ns, threads, setup):
    """The declared end-to-end metrics, and the report's view of them.

    The declared numbers are scaled to the reference speed (``reference``);
    the report holds them under the per-workload names, and next to them
    the same numbers from wall times, the kernel samples and every round.
    """
    if threads > 1:
        # A sample of the threaded kernel swings by up to a factor of two with
        # how the interpreter lock passes between the threads at that moment,
        # while a grid round averages over seconds of such moments: the
        # rounds are scaled by the median of all the run's samples.
        kernel = statistics.median(boundary_ns)
        scaled = [(reference.scale(r.work_ns, kernel), []) for r in rounds]
    else:
        scaled = [r.scaled(boundary_ns[i], boundary_ns[i + 1]) for i, r in enumerate(rounds)]
    round_ns = [ns for ns, _ in scaled]
    scaled_steps = [ns for _, steps in scaled for ns in steps]
    wall_steps = [ns for r in rounds for ns in r.step_ns]
    metrics = _figures(name, rounds, round_ns, scaled_steps, setup["scaled_s"])
    wall = _figures(name, rounds, [r.work_ns for r in rounds], wall_steps, setup["wall_s"])
    named = {"reference": {"reference_ms": reference.REFERENCE_MS, "threads": threads,
                           "boundary_ms": [ns / 1e6 for ns in boundary_ns],
                           "in_round_ms_mean": [statistics.fmean(r.kernel_ns) / 1e6
                                                for r in rounds if r.kernel_ns]}}
    first = rounds[0].outcome
    if name == "eval-grid":
        chains = [(ns / 1e6, n) for r in rounds for ns, n, _ in r.chains]
        named["scaled"] = {"chains_per_s": metrics["items_per_s"],
                           "grid_step_ms_p50": metrics["step_ms_p50"],
                           "grid_s": statistics.median(round_ns) / 1e9}
        named["wall"] = {
            "chains_per_s": wall["items_per_s"],
            "grid_step_ms_p50": wall["step_ms_p50"],
            "grid_s": statistics.median(r.work_ns for r in rounds) / 1e9,
            "chain_ms_p50": {str(n): statistics.median(ms for ms, k in chains if k == n)
                             for n in sorted({k for _, k in chains})},
            "chain_ms_tail": _percentile_tail([ms for ms, _ in chains]),
        }
    else:
        named["scaled"] = {"train_samples_per_s": metrics["items_per_s"],
                           "iter_ms_p50": metrics["step_ms_p50"],
                           **_train_detail(name, rounds, scaled_steps)}
        named["wall"] = {"train_samples_per_s": wall["items_per_s"],
                         "iter_ms_p50": wall["step_ms_p50"],
                         **_train_detail(name, rounds, wall_steps)}
        if first is not None:
            for stage, losses in first.losses.items():
                named[f"{stage}.loss_final"] = workloads.tenth_means(losses)[1]
    named["scaled"]["setup_s"] = metrics["setup_s"]
    named["wall"]["setup_s"] = wall["setup_s"]
    named["setup_s_each"] = {"scaled": setup["scaled_s"], "wall": setup["wall_s"]}
    named["round_s_each"] = {"scaled": [ns / 1e9 for ns in round_ns],
                             "wall": [r.work_ns / 1e9 for r in rounds]}
    return metrics, named


def _set_up(workload, probes, repeats, sample):
    """Build the start state and warm up, ``repeats`` times.

    Returns the start state, the state digest of every set-up (they must
    match) and the set-up times: ``wall_s``, and with a ``sample`` function
    ``scaled_s``, each set-up scaled by the kernel samples taken after each
    of its training iterations (``_span_kernel``).
    """
    start, digests, setup = None, [], {"wall_s": [], "scaled_s": []}
    for _ in range(repeats):
        before = sample() if sample else None
        t0 = time.perf_counter_ns()
        probes.reset(t0)
        start = workload.build_start()
        workload.warm_up(start)
        ns = time.perf_counter_ns() - t0
        setup["wall_s"].append(ns / 1e9)
        if sample:
            kernel = _span_kernel(probes.kernel_ns, before, sample())
            setup["scaled_s"].append(reference.scale(ns - probes.paused_ns, kernel) / 1e9)
        digests.append(state_digest(start))
    return start, digests, setup


def run(workload_name, seed, seconds, trace, sizes=workloads.FULL, spans_path=None):
    """One benchmark run; returns (report, final result object).

    An untraced run times the reference kernel between rounds, on as many
    threads as the workload's rounds use, and after every training
    iteration; the traced run leaves the kernel out, so that no span holds
    its time.
    """
    workload = workloads.make_workload(workload_name, seed, sizes)
    threads = workload.reference_threads
    probes = Probes()
    if not trace:
        probes.reference = reference.call_ns
    probes.install()
    tracer = None
    try:
        start, setup_digests, setup = _set_up(
            workload, probes, 1 if trace else workload.setups,
            None if trace else reference.sample_ns)
        rounds, traced, boundary_ns = [], [], []
        if not trace:
            boundary_ns.append(reference.sample_ns(threads))
        t_begin = time.perf_counter()
        r = 0
        while r == 0 or time.perf_counter() - t_begin < seconds:
            rounds.append(Round(workload, start, r, probes))
            if not trace:
                boundary_ns.append(reference.sample_ns(threads))
            if trace:
                tracer = tracer or Tracer()
                traced.append(Round(workload, start, r, probes, tracer))
                if r == 0:
                    round0 = tracer.snapshot()
            r += 1
        heap_peak = 0
        if trace:
            with HeapProbe(probes) as heap:
                workload.heap_steps(start)
            heap_peak = heap.peak
    finally:
        probes.uninstall()

    measured = traced if trace else rounds
    checks = {"setup.deterministic": len(set(setup_digests)) == 1, **workload.run_checks()}
    for rnd in measured:
        for key, ok in rnd.checks.items():
            checks[key] = checks.get(key, True) and ok
    attempted = sum(rnd.attempted for rnd in measured)
    failed = sum(rnd.failed for rnd in measured)
    first = rounds[0].outcome
    report = {
        "header": header(workload_name, seed, seconds, trace),
        "rounds": len(measured),
        "failed_ratio": failed / attempted,
        "digests": {
            "start_state": setup_digests[0],
            "state": first.digest if first else None,
            "output_sha256": first.output_sha256 if first else None,
        },
        "counters": _step_counters(rounds[0].steps),
    }
    if trace:
        checks["trace.same_outputs"] = all(
            u.outcome is not None and t.outcome is not None
            and (u.outcome.digest, u.outcome.output_sha256)
            == (t.outcome.digest, t.outcome.output_sha256)
            for u, t in zip(rounds, traced))
        overhead = sum(t.ns for t in traced) / sum(u.ns for u in rounds) - 1.0
        layers = layer_metrics(tracer, round0, traced[0].steps, len(traced), overhead, heap_peak)
        report["layers"] = layers
        report["trace"] = {"untraced_round_s": _median_s(rounds),
                           "traced_round_s": _median_s(traced), "overhead": overhead,
                           "spans": len(tracer.spans)}
        if spans_path is not None:
            report["trace"]["spans_file"] = str(tracer.write_spans(spans_path))
        metrics = {k: {"value": layers[k], "unit": unit} for k, unit in PER_LAYER.items()}
    else:
        values, named = _end_to_end(workload_name, rounds, boundary_ns, threads, setup)
        report["metrics"] = named
        metrics = {k: {"value": values[k], "unit": unit} for k, unit in END_TO_END.items()}
    report["checks"] = checks
    correct = failed == 0 and all(checks.values())
    final = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    return report, final
