"""A fixed reference kernel that gauges the speed of the machine right now.

On a shared host the same work runs up to about 1.7 times as fast in one
second as in the next, and a run can spend all of its seconds in a slow or in
a fast phase. The benchmark therefore times this kernel next to the work it
measures, while nothing else of the run is working and on as many threads as
that work uses, and scales each measured time by ``REFERENCE_MS`` over the
kernel's time per call: a scaled time is the time the work would take on a
machine that runs one kernel call in ``REFERENCE_MS``.

The kernel is dense-network arithmetic in the shape of the package's own
work: forward and backward passes of a two-layer tanh network on a 4x16
batch, as Python-level calls on tiny NumPy arrays that keep a tape of dicts,
cycling through 32 weight sets (half a megabyte) so that it also reads
memory beyond the first-level caches. It never changes, so a change to the
package moves the scaled times and leaves the kernel alone.
"""

from __future__ import annotations

import statistics
import threading
import time

import numpy as np

REFERENCE_MS = 1.0  # the nominal time of one kernel call; scaled times are at this speed
PASSES = 32         # forward/backward passes per call: 0.6-1.2 ms on a 2-vCPU Xeon VM

_rng = np.random.default_rng(20231)
_WEIGHTS = [(_rng.standard_normal((16, 64)) * 0.25, _rng.standard_normal((64, 16)) * 0.25)
            for _ in range(32)]
_X = _rng.standard_normal((4, 16))


def kernel():
    """One call of the reference work; returns a checksum so it is not idle."""
    x = _X
    total = 0.0
    tape = []
    for p in range(PASSES):
        w1, w2 = _WEIGHTS[(p * 7) % len(_WEIGHTS)]
        h = x @ w1
        tape.append({"op": "matmul", "inputs": (x, w1), "out": h})
        a = np.tanh(h)
        tape.append({"op": "tanh", "inputs": (h,), "out": a})
        y = a @ w2 + x
        tape.append({"op": "matmul", "inputs": (a, w2), "out": y})
        gy = y * 2.0
        gw2 = a.T @ gy
        gh = (gy @ w2.T) * (1.0 - a ** 2)
        gw1 = x.T @ gh
        total += float(gw1[0, 0] + gw2[0, 0])
    return total


def call_ns():
    """Wall time of one kernel call on the calling thread, in ns."""
    t0 = time.perf_counter_ns()
    kernel()
    return time.perf_counter_ns() - t0


def _threaded_call_ns(threads, calls):
    """Wall time per call while ``threads`` threads each make ``calls`` calls."""
    barrier = threading.Barrier(threads + 1)

    def work():
        barrier.wait()
        for _ in range(calls):
            kernel()

    workers = [threading.Thread(target=work) for _ in range(threads)]
    for w in workers:
        w.start()
    t0 = time.perf_counter_ns()
    barrier.wait()
    for w in workers:
        w.join()
    return (time.perf_counter_ns() - t0) / (threads * calls)


def sample_ns(threads=1, repeats=8):
    """Median time per kernel call, in ns, with the kernel on ``threads`` threads.

    One thread: the median of ``repeats`` calls on the calling thread. More
    threads: the median of five runs in which every thread makes ``repeats``
    calls at once, each run's wall time divided by all its calls, so the
    sample includes the waits for the interpreter lock that such work meets.
    """
    if threads <= 1:
        return statistics.median(call_ns() for _ in range(repeats))
    return statistics.median(_threaded_call_ns(threads, repeats) for _ in range(5))


def scale(ns, kernel_ns):
    """A measured time in ns, scaled to the reference speed (still in ns)."""
    return ns * REFERENCE_MS * 1e6 / kernel_ns
