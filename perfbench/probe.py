"""Speed probe: samples how fast this machine runs while a workload runs.

The benchmark's sandbox shares its host, and its speed drifts by tens of
percent within seconds to minutes, moving every timing of a run together. A
wall-clock timer signal interrupts whatever runs every PERIOD_S and times a
fixed numpy kernel that is not program code. Each time a run reports is then
scaled to the reference machine's nominal speed (see workloads.Run).

The probe must run in the process that does the work: a second process
measures a different core. CLI commands therefore run under ``child_main``,
which probes inside the command's own process.

This module imports nothing from the program, so a CLI child can load it
before ``siftmasks``.
"""

from __future__ import annotations

import atexit
import bisect
import contextlib
import json
import runpy
import signal
import sys
import time

import numpy as np

PERIOD_S = 0.1
MIN_SAMPLES = 5  # samples behind the speed of an interval shorter than that
# Mean probe time on the reference machine (2-vCPU Intel Xeon VM). It only
# sets the scale of speed-adjusted metrics.
NOMINAL_S = 0.0008
_W = np.linspace(-1.0, 1.0, 128).reshape(16, 8)
_X = np.linspace(-1.0, 1.0, 512).reshape(64, 8)
_V = np.linspace(-1.0, 1.0, 16384)
_M = np.linspace(-1.0, 1.0, 256 * 64).reshape(256, 64)

# Runs siftmasks.cli (or only imports it, with no arguments) under the probe:
#   python -c BOOTSTRAP <dir of this file> <samples file> [cli arguments...]
BOOTSTRAP = "import sys; sys.path.insert(0, sys.argv[1]); import probe; probe.child_main()"


def _kernel() -> None:
    """Fixed work in two shapes: a per-example loop over tiny arrays, like
    the trainer at M=738, and passes over 16k-entry vectors with a 256x64
    product, like serving and replay at M=17,154."""
    acc = np.zeros_like(_W)
    for x in _X:
        acc += np.outer(np.tanh(_W @ x), x)
    for row in _X[:4]:
        np.where(_V > 0.0, _V, 0.0) * 0.5 + _V
        np.tanh(_M @ np.resize(row, 64))


class SpeedProbe:
    """Probe samples as (end time, duration) on the perf_counter clock, which
    on Linux is CLOCK_MONOTONIC and so shared by the CLI child processes."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []
        self._ends: list[float] = []  # sorted end times, rebuilt as samples arrive

    def sample(self) -> None:
        """Time one run of the kernel; touches no program state."""
        start = time.perf_counter()
        _kernel()
        end = time.perf_counter()
        self.samples.append((end, end - start))

    @contextlib.contextmanager
    def running(self):
        previous = signal.signal(signal.SIGALRM, lambda signum, frame: self.sample())
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def factor(self, t0: float, t1: float) -> float:
        """Nominal over mean probe time while [t0, t1] ran: above 1 when fast.

        Samples taken in the interval count; a short interval takes the
        MIN_SAMPLES samples nearest to it instead. The mean, not the median,
        because slow spells come in bursts and the work pays for all of them.
        """
        if not self.samples:  # a run shorter than the probe period
            self.sample()
        if len(self._ends) != len(self.samples):
            self.samples.sort()
            self._ends = [t for t, _ in self.samples]
        ends = self._ends
        lo, hi = bisect.bisect_left(ends, t0), bisect.bisect_right(ends, t1)
        while hi - lo < min(MIN_SAMPLES, len(ends)):
            if hi == len(ends) or (lo > 0 and t0 - ends[lo - 1] <= ends[hi] - t1):
                lo -= 1
            else:
                hi += 1
        window = [d for _, d in self.samples[lo:hi]]
        return NOMINAL_S / (sum(window) / len(window))


def child_main() -> None:
    """Entry of a probed CLI process; writes its samples as JSON at exit."""
    samples_path, argv = sys.argv[2], sys.argv[3:]
    probe = SpeedProbe()

    def save():
        # disarm first: a timer signal during interpreter shutdown would
        # kill the process with SIGALRM's default action
        signal.setitimer(signal.ITIMER_REAL, 0)
        with open(samples_path, "w", encoding="utf8") as fh:
            json.dump(probe.samples, fh)

    atexit.register(save)
    signal.signal(signal.SIGALRM, lambda signum, frame: probe.sample())
    signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
    if not argv:
        import siftmasks.cli  # noqa: F401  (set-up: start and import only)
        return
    sys.argv = ["siftmasks.cli", *argv]
    runpy.run_module("siftmasks.cli", run_name="__main__", alter_sys=True)
