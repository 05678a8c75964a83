#!/usr/bin/env python3
"""rewardtune benchmark: one workload, one seed, one run.

Run from the repository root (stdlib and NumPy only; the package is imported
from ``src/``)::

    python3 bench/run.py --workload tune-chain --seed 1 --seconds 34 --trace 0

Workloads (see ``workloads.py`` for why each exists):

- ``pretrain``: both pretraining stages from a fresh init.
- ``tune-chain``: ``run_training`` at the golden prompt-chain config.
- ``eval-grid``: ``ablate_schedulers`` over {ddim, euler} x {25, 50}, w>1.

The seed generates the world, prompts, noise and configs. After set-up the
run repeats rounds of fixed work until ``--seconds`` have been measured.

Output: two JSON lines on stdout.

1. ``{"report": {...}}`` with
   - ``header``: workload, seed, seconds, trace, CPU count, Python, NumPy and
     BLAS versions, git revision (``unknown`` outside git) and a hash of the
     package sources;
   - ``rounds``, ``failed_ratio``;
   - ``digests``: ``state_digest`` of the start state and of round 0's trained
     state, and a hash of round 0's loss rows or grid table. Identical code
     and seed give identical digests; a change to them is a change to the
     arithmetic;
   - ``counters``: tape nodes, segments and ``peak_live_interior`` per
     training step of round 0;
   - ``checks``: every output check by name;
   - untraced: ``metrics``, the end-to-end numbers under their per-workload
     names (``train_samples_per_s``, ``iter_ms_p50``, ``iter_ms_tail``,
     ``loss_final`` per stage; ``chains_per_s``, ``chain_ms_p50``,
     ``chain_ms_tail``, ``grid_s``; ``setup_s``), each ``scaled`` to the
     reference speed and from ``wall`` times, with the ``reference`` kernel
     samples and every round's and set-up's time. A tail gives its
     percentile and sample count;
   - traced: ``layers``, every per-layer number, including the ones of layers
     the workload does not use (zero there), and ``trace`` with the traced and
     untraced round times and the tracing overhead.
2. The result line ``{"correct", "attempted", "failed", "metrics"}``: with
   ``--trace 0`` the metrics are ``measure.END_TO_END``, with ``--trace 1``
   ``measure.PER_LAYER``; each is ``{"value", "unit"}``. ``correct`` is false
   if any check failed or any iteration, chain or cell failed. The end-to-end
   metrics mean the same on every workload. Their times are scaled to the
   speed of a fixed reference kernel timed beside the work (``reference.py``):
   on a shared host the same work runs up to 1.7 times faster in one second
   than in the next, and the scaled times follow the work, not the host.
   - ``setup_s``: median over the run's set-ups (pretrain: fresh init plus
     warm-up, 5 times; the others: a short baseline build plus warm-up,
     2 times), each scaled by the kernel samples beside it and after each of
     its training iterations;
   - ``items_per_s``: items of one round over the median round time; items
     are batch items trained, or chains sampled on ``eval-grid``; a training
     round is scaled by the kernel samples after each of its iterations, a
     grid round by the median of the run's two-thread samples, taken
     between rounds;
   - ``step_ms_p50``: median training iteration, each scaled by the samples
     just before and after it; on ``eval-grid`` the grid's time per
     denoising step, median over rounds.

The traced run times no reference kernel and reports wall times. It
alternates untraced and traced copies of each round, so the overhead compares
equal work, and writes its spans to
``bench/out/spans-<workload>-seed<seed>.jsonl``.

Exit status: 0 after a result, 2 when the package sources are missing.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
WORKLOADS = ("pretrain", "tune-chain", "eval-grid")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=34.0,
                   help="time to spend on measured rounds (at least one round runs)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "rewardtune" / "__init__.py").is_file():
        print(f"error: package sources not found at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import measure

    spans_path = None
    if args.trace:
        out_dir = BENCH / "out"
        out_dir.mkdir(exist_ok=True)
        spans_path = out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl"
    report, result = measure.run(args.workload, args.seed, args.seconds, bool(args.trace),
                                 spans_path=spans_path)
    failed_checks = sorted(k for k, ok in report["checks"].items() if not ok)
    if failed_checks:
        print(f"failed checks: {', '.join(failed_checks)}", file=sys.stderr)
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
