"""Reference kernels that measure how fast the host runs right now.

On a shared VM the same job's wall time swings by up to 1.7x within a
minute, in steps of a few seconds, as neighbours come and go: a 2-vCPU
Xeon VM ran `mult --root 16,15` in 61 to 106 ms (medians of 5-second
bins over 90 s).  Jobs of the same kind of code slow down together, so
run.py times fixed kernels between every two jobs and rescales each
job's time by how much slower than nominal the kernels around it ran.

There are two kernels because the two kinds of code suffer differently:
`py` (Fraction and dict arithmetic in the interpreter) tracks Peterson
and counting (`mult`, `table`, `bound`), and `estimate`, which mixes
numpy draws with an interpreted cond2 stage, takes the geometric mean of
`py` and `np` (numpy draws and walks through a few fresh MB).  `stats`,
numpy over arrays of many MB with nothing interpreted in its inner loop,
is rescaled by the square root of `np`'s slowdown alone.  Over 100 s on
that VM, rescaling cut the quartile spread of single job times from 37%
to 10% for `mult 16,15` and 36% to 15% for `bound 11,10`, and that of
per-pass command totals from 12-19% to 3-9% on `tables` and `survey`.
The kernels use nothing from rootbounds, so a change to the program
cannot move them.

`np` tracks `stats` in some stretches and not in others.  About half of
its time is spent faulting in its fresh pages, which the jobs' large
arrays (backed by huge pages) mostly do not: in one set of ten `survey`
runs stats_s divided by `np` spread 22% between runs while the unscaled
times spread 10%, and in another 1% against 8%.  Over the sets measured,
the square root kept the worst spread lowest (10%, against 13% unscaled
and 16-22% fully scaled).  A version of `np` on preallocated memory does
not track `stats` at all, and weighting in `py` overcorrects, because
the interpreter slows more than numpy when the host is busy.
"""

from __future__ import annotations

import bisect
import signal
import time
from contextlib import contextmanager
from fractions import Fraction
from statistics import median

import numpy as np

# Nominal kernel times: their medians over the passes of five `mult` runs
# (and, for "import", over 250 reference imports) on the 2-vCPU Xeon VM
# the benchmark was tuned on.  A rescaled time is in seconds at that speed.
NOMINAL_S = {"py": 0.015, "np": 0.011, "import": 0.036}

# Probes taken this close to a job, in seconds, say how fast the host ran
# it.  Over 150 s of passes of each workload, a median over +-1 s gave
# per-pass command totals a quartile spread of 2-10%, against 4-14% for
# the mean of the two probes next to the job.
WINDOW_S = 1.0

# Weight of each kernel in the speed of each CLI command.
WEIGHTS = {
    "mult": {"py": 1.0},
    "table": {"py": 1.0},
    "bound": {"py": 1.0},
    "estimate": {"py": 0.5, "np": 0.5},
    # half-weighted: see the module docstring
    "stats": {"np": 0.5},
}

# setup_s, the time a fresh interpreter takes to import rootbounds.cli, is
# rescaled by a fresh interpreter's time to import this fixed set of
# standard modules (`ssl`, by way of http.client, loads shared libraries as
# numpy does).  The interpreter kernels do not track import time: over
# 100 s, the quartile spread of medians of ten imports was 12% raw, 16%
# divided by `py`, and 6.5% divided by this reference import.
IMPORT_PROBE = ("import time; t = time.perf_counter(); "
                "import argparse, decimal, email.parser, fractions, http.client, json; "
                "print(time.perf_counter() - t)")


def _py_kernel() -> int:
    acc = Fraction(0)
    seen = {}
    for i in range(1, 1500):
        acc += Fraction(i % 97 + 1, i + 3) * Fraction(3, i % 13 + 1)
        seen[i, i % 7] = acc.numerator % 1009
    return len(seen)


class _NpKernel:
    """Random walks of +-1 steps, drawn into fresh arrays, and their lowest points."""

    def __init__(self) -> None:
        self.rng = np.random.default_rng(20260101)

    def __call__(self) -> int:
        steps = self.rng.integers(0, 2, size=(2000, 400), dtype=np.int8)
        walks = np.cumsum(steps * 2 - 1, axis=1, dtype=np.int32)
        return int((walks.min(axis=1) >= -3).sum())


# Single-threaded interpreted commands, whose jobs are also probed while
# they run: a SIGALRM handler takes a `py` probe every IN_JOB_S, and the
# time it took is taken off the job's.  Probes around a job cannot see
# the host's speed inside a long one: for a 7 s `mult 51,50` they left
# its rescaled time with a quartile spread of 19% over 16 runs, probes
# every 0.25 s inside it 8.6%.  Sampler commands are not probed inside:
# their threads would compete with the handler for the interpreter lock.
IN_JOB = ("mult", "table", "bound")
IN_JOB_S = 0.25


class Probes:
    """Kernel times taken during a pass, with the time each was taken."""

    def __init__(self) -> None:
        self.times: list[float] = []
        self.kernels: list[dict[str, float]] = []
        self._run = {"py": _py_kernel, "np": _NpKernel()}
        # wall and CPU time the in-job probes of the last job took
        self.in_job_s = self.in_job_cpu_s = 0.0

    def take(self) -> None:
        """Run each kernel once and record its wall time."""
        self.times.append(time.perf_counter())
        taken = {}
        for name, kernel in self._run.items():
            start = time.perf_counter()
            kernel()
            taken[name] = time.perf_counter() - start
        self.kernels.append(taken)

    def _take_in_job(self, signum, frame) -> None:
        start, cpu_start = time.perf_counter(), time.process_time()
        _py_kernel()
        took = time.perf_counter() - start
        self.times.append(start)
        self.kernels.append({"py": took})
        self.in_job_s += took
        self.in_job_cpu_s += time.process_time() - cpu_start

    @contextmanager
    def inside(self, command: str):
        """Probe a job of `command` while it runs, if it is one of IN_JOB."""
        self.in_job_s = self.in_job_cpu_s = 0.0
        if command not in IN_JOB:
            yield
            return
        previous = signal.signal(signal.SIGALRM, self._take_in_job)
        signal.setitimer(signal.ITIMER_REAL, IN_JOB_S, IN_JOB_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def medians(self) -> dict[str, float]:
        return {name: median(k[name] for k in self.kernels if name in k) for name in self._run}

    def scale(self, command: str, start: float, end: float) -> float:
        """Factor from the time of a job run from `start` to `end` to seconds at nominal speed.

        A single kernel time is noisy (its IQR between two back-to-back
        runs is 5-30%), so the host's slowdown is taken, per kernel, as the
        median over the probes within WINDOW_S of the job, the two next to
        it always included, and weighted geometrically by WEIGHTS.
        """
        first = bisect.bisect_right(self.times, start) - 1
        last = bisect.bisect_left(self.times, end)
        lo = min(first, bisect.bisect_left(self.times, start - WINDOW_S))
        hi = max(last, bisect.bisect_right(self.times, end + WINDOW_S) - 1)
        near = self.kernels[max(lo, 0):hi + 1]
        factor = 1.0
        for kernel, weight in WEIGHTS[command].items():
            slowdown = median(k[kernel] for k in near if kernel in k) / NOMINAL_S[kernel]
            factor /= slowdown ** weight
        return factor
