"""Probes and tracing installed around rewardtune's public functions.

Nothing here edits the package: every probe is a wrapper that replaces a
function object in each package module that binds it (``denoise`` is bound
in ``models``, ``finetune``, ``inference`` and ``pretrain``, for example) and
is put back on ``uninstall``.

Two layers of instrumentation:

- ``Probes`` is always on. It costs a few hundred nanoseconds per training
  step or chain: it timestamps the end of every ``adamw_update`` (one per
  training iteration), times every ``sample_from_cond`` chain and checks its
  output is finite, and reads the counters of every ``Tape`` a step creates.
  In untraced runs it also times the reference kernel after every training
  iteration, and keeps that time out of the iteration's.
- ``Tracer`` is on only in the traced run. It records a span (id, parent id,
  thread, name, start, end) for each call into a layer's public functions and
  aggregates ``tensorad`` primitive ops per (kind, taped) instead of keeping
  one span per op. Spans stay in memory until ``write_spans``. All times are
  wall time: in the eval grid's thread pool they include waiting for the
  interpreter lock.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import threading
import time
import tracemalloc
from collections import Counter

import numpy as np

from rewardtune import (data, evalcli, finetune, inference, models, pretrain,
                        rewards, schedule)
from rewardtune import tensorad as ta

PACKAGE_MODULES = (ta, schedule, models, data, pretrain, rewards, finetune,
                   inference, evalcli)

# tensorad primitives; composed helpers (norm, cosine_similarity,
# squared_error) are counted through the primitives they call
OP_KINDS = ("add", "sub", "mul", "div", "neg", "matmul", "dot", "concat", "stack",
            "slice1d", "row", "tensor_sum", "tensor_mean", "tanh", "silu", "exp",
            "log", "sqrt")

# (home module, function, span name)
SPAN_FUNCTIONS = (
    (models, "denoise", "models.denoise"),
    (models, "text_encode", "models.text_encode"),
    (models, "image_encode", "models.image_encode"),
    (schedule, "sampler_step", "schedule.sampler_step"),
    (schedule, "cfg_combine", "schedule.cfg_combine"),
    (rewards, "combined_loss", "rewards.combined_loss"),
    (rewards, "reward_values", "rewards.reward_values"),
    (inference, "sample_from_cond", "inference.sample_from_cond"),
    (finetune, "prompt_finetune_step", "finetune.step"),
    (finetune, "unet_finetune_step", "finetune.step"),
    (finetune, "direct_finetune_step", "finetune.step"),
    (finetune, "adamw_update", "finetune.adamw_update"),
    (finetune, "clip_global_norm", "finetune.clip_global_norm"),
    (finetune, "run_training", "finetune.run_training"),
    (pretrain, "clip_pretrain", "pretrain.clip"),
    (pretrain, "diffusion_pretrain", "pretrain.diffusion"),
    (pretrain, "contrastive_loss_from_logits", "pretrain.contrastive_loss"),
    (data, "sample_pair", "data.sample_pair"),
    (evalcli, "evaluate", "evalcli.evaluate"),
    (evalcli, "ablate_schedulers", "evalcli.ablate_schedulers"),
    (ta, "backward", "tensorad.backward"),
    (ta, "checkpoint_segment", "tensorad.segment.record"),
)


class _Patches:
    """Replace one function object in every package module that binds it."""

    def __init__(self):
        self._undo = []

    def replace(self, original, wrapper):
        for module in PACKAGE_MODULES:
            for name, value in list(vars(module).items()):
                if value is original:
                    setattr(module, name, wrapper)
                    self._undo.append((module, name, original))

    def restore(self):
        for module, name, original in reversed(self._undo):
            setattr(module, name, original)
        self._undo.clear()


def _tape_counts(tape):
    nodes = tape.nodes
    return {
        "nodes": len(nodes),
        "segments": sum(1 for n in nodes if isinstance(n, ta.SegmentNode)),
        "peak_live_interior": tape.stats.peak_live_interior,
    }


class Probes:
    """Iteration timings, chain timings, tape counters and reference samples.

    ``iter_ns`` holds the duration of each training iteration: from the end
    of the previous optimizer update (or of the last reference sample after
    it) to the end of this one. ``chains`` holds (duration ns, sampler steps,
    output finite) per ``sample_from_cond`` call; ``steps`` holds the tape
    counters of each training step. With ``reference`` set, the kernel is
    timed after every optimizer update: ``kernel_ns`` holds one sample per
    iteration and ``paused_ns`` the wall time spent on them, which is no
    part of any iteration. ``reset(t0)`` clears all of it and marks where
    the first iteration starts.
    """

    def __init__(self):
        self.iter_ns = []
        self.kernel_ns = []
        self.paused_ns = 0
        self.reference = None  # callable -> ns of one kernel call, or None
        self._resume = 0
        self.chains = []
        self.steps = []
        self.on_step_start = None  # hook for the heap probe
        self.on_step_end = None
        self._open_tapes = []
        self._patches = _Patches()

    def install(self):
        probes = self
        orig_tape = ta.Tape

        class CountingTape(orig_tape):
            def __init__(self):
                super().__init__()
                probes._open_tapes.append(self)
                if probes.on_step_start is not None:
                    probes.on_step_start()

        orig_adamw = finetune.adamw_update

        def adamw_update(*args, **kwargs):
            if probes.on_step_end is not None:
                probes.on_step_end()
            out = orig_adamw(*args, **kwargs)
            end = time.perf_counter_ns()
            probes.iter_ns.append(end - probes._resume)
            for tape in probes._open_tapes:
                probes.steps.append(_tape_counts(tape))
            probes._open_tapes.clear()
            if probes.reference is not None:
                probes.kernel_ns.append(probes.reference())
            probes._resume = time.perf_counter_ns()
            probes.paused_ns += probes._resume - end
            return out

        orig_sample = inference.sample_from_cond

        def sample_from_cond(*args, **kwargs):
            t0 = time.perf_counter_ns()
            x = orig_sample(*args, **kwargs)
            ns = time.perf_counter_ns() - t0
            plan = args[2] if len(args) > 2 else kwargs["plan"]
            probes.chains.append((ns, len(plan.transitions()), bool(np.all(np.isfinite(x)))))
            return x

        self._patches.replace(orig_tape, CountingTape)
        self._patches.replace(orig_adamw, adamw_update)
        self._patches.replace(orig_sample, sample_from_cond)

    def uninstall(self):
        self._patches.restore()

    def reset(self, t0=None):
        self.iter_ns.clear()
        self.kernel_ns.clear()
        self.paused_ns = 0
        self._resume = time.perf_counter_ns() if t0 is None else t0
        self.chains.clear()
        self.steps.clear()
        self._open_tapes.clear()


class HeapProbe:
    """tracemalloc peak bytes per training step, from tape creation to the
    optimizer update. Slow: run it on a few steps outside any timed round."""

    def __init__(self, probes):
        self.probes = probes
        self.peak = 0

    def __enter__(self):
        tracemalloc.start()
        self.probes.on_step_start = tracemalloc.reset_peak
        self.probes.on_step_end = self._read
        return self

    def _read(self):
        self.peak = max(self.peak, tracemalloc.get_traced_memory()[1])

    def __exit__(self, *exc):
        self.probes.on_step_start = None
        self.probes.on_step_end = None
        tracemalloc.stop()
        return False


class _ThreadTrace(threading.local):
    def __init__(self):
        self.stack = []        # open spans: [span_id, child_ns]
        self.op_depth = 0
        self.registered = False


class Tracer:
    """Spans around layer functions plus aggregated op counters."""

    def __init__(self):
        self.spans = []          # (span_id, parent_id, thread, name, start_ns, end_ns, self_ns)
        self.notes = Counter()   # counts kept by span hooks
        self._local = _ThreadTrace()
        self._thread_ops = []  # per-thread (calls, ns) counters, merged on read
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._patches = _Patches()
        self._digests = {}     # tensor id -> parameter digest, for repeat detection
        self._encodes_seen = set()
        self.t0_ns = time.perf_counter_ns()

    # -- installation -------------------------------------------------------

    def install(self):
        for kind in OP_KINDS:
            original = getattr(ta, kind)
            self._patches.replace(original, self._wrap_op(original, kind))
        hooks = {
            "models.text_encode": self._note_encode,
            "finetune.clip_global_norm": self._note_clip,
            "inference.sample_from_cond": self._note_chain,
            "pretrain.clip": self._note_stage,
            "pretrain.diffusion": self._note_stage,
        }
        for module, fn_name, span in SPAN_FUNCTIONS:
            original = getattr(module, fn_name)
            self._patches.replace(original, self._wrap_span(original, span, hooks.get(span)))

    def uninstall(self):
        self._patches.restore()

    def _thread(self):
        local = self._local
        if not local.registered:
            local.registered = True
            local.calls = Counter()
            local.ns = Counter()
            with self._lock:
                self._thread_ops.append((local.calls, local.ns))
        return local

    def _wrap_op(self, fn, kind):
        clock = time.perf_counter_ns
        active_tape = ta._active_tape

        def op(*args, **kwargs):
            local = self._thread()
            if local.op_depth:  # a primitive calling another (add(1.0, t) -> add(t, 1.0))
                return fn(*args, **kwargs)
            key = (kind, active_tape() is not None)
            local.op_depth = 1
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                local.ns[key] += clock() - t0
                local.calls[key] += 1
                local.op_depth = 0

        return op

    def _wrap_span(self, fn, name, hook):
        clock = time.perf_counter_ns

        def span(*args, **kwargs):
            local = self._thread()
            stack = local.stack
            parent = stack[-1][0] if stack else 0
            span_id = next(self._ids)
            frame = [span_id, 0]
            stack.append(frame)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][1] += dur
                self.spans.append((span_id, parent, threading.get_ident(), name,
                                   t0, t1, dur - frame[1]))
            if hook is not None:
                hook(name, args, kwargs, out)
            return out

        return span

    # -- span hooks ---------------------------------------------------------

    def _param_digest(self, tensor):
        digest = self._digests.get(tensor.id)
        if digest is None:
            digest = hashlib.blake2b(tensor.data.tobytes(), digest_size=8).digest()
            self._digests[tensor.id] = digest
        return digest

    def _note_encode(self, name, args, kwargs, out):
        params, prompt = args[0], args[1]
        key = (tuple(self._param_digest(t) for t in params.tensors()),
               tuple(sorted(int(tok) for tok in prompt)))
        with self._lock:
            if key in self._encodes_seen:
                self.notes["models.text_encode.repeats"] += 1
            else:
                self._encodes_seen.add(key)

    def _note_clip(self, name, args, kwargs, out):
        max_norm = args[1] if len(args) > 1 else kwargs.get("max_norm")
        _, norm = out
        with self._lock:
            self.notes["clip.calls"] += 1
            if max_norm is not None and norm > max_norm and norm != 0.0:
                self.notes["clip.active"] += 1

    def _note_chain(self, name, args, kwargs, out):
        plan = args[2] if len(args) > 2 else kwargs["plan"]
        with self._lock:
            self.notes["chain.steps"] += len(plan.transitions())

    def _note_stage(self, name, args, kwargs, out):
        config = args[-1] if args else kwargs["config"]
        with self._lock:
            self.notes[f"{name}.iters"] += config.iterations

    # -- reading ------------------------------------------------------------

    def op_totals(self):
        calls, ns = Counter(), Counter()
        with self._lock:
            for c, n in self._thread_ops:
                calls.update(c)
                ns.update(n)
        return calls, ns

    def snapshot(self):
        """Span count, op calls and notes so far."""
        calls, _ = self.op_totals()
        return {"spans": len(self.spans), "calls": calls, "notes": Counter(self.notes)}

    def write_spans(self, path):
        """One JSON array per line: id, parent, thread, name, start_us, dur_us, self_us."""
        threads = {}
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, thread, name, t0, t1, self_ns in self.spans:
                tid = threads.setdefault(thread, len(threads))
                fh.write(json.dumps([sid, parent, tid, name, round((t0 - self.t0_ns) / 1e3, 3),
                                     round((t1 - t0) / 1e3, 3), round(self_ns / 1e3, 3)]))
                fh.write("\n")
        return path
