"""CPU time rescaled to a fixed reference speed.

On a shared virtual machine the CPU a process gets changes speed by tens of
percent from one few-second stretch to the next, as the host boosts or
throttles it for other tenants, and CPU time follows: on the 2-vCPU Xeon
this was calibrated on, the same ``decide`` call took 26 ms in one stretch
and 47 ms in the next, and the same training run 9 s in one run and 16 s
in another. The ratio of the work's time to a fixed reference kernel run
next to it stayed within a few percent.

So the benchmark samples the kernel all through a run: at the edges of
every measured call and, from a CPU-time interval timer, every
``INTERVAL_S`` of CPU inside long calls. Each stretch of work between two
samples is weighted by ``REFERENCE_S / k``, ``k`` being the median of the
latest kernel times; the sum is the work's time in seconds at the
reference speed, which on the machine above is close to its raw CPU time
averaged over the speed changes. CPU spent in the kernel itself is left
out of every measurement. The kernel is the benchmark's own code (small
numpy and formatting work in a Python loop, a little of each kind the
program does), so no change to diffsentry can move it.
"""

from __future__ import annotations

import collections
import signal
import statistics
import time

import numpy as np

CLOCK = time.thread_time

#: CPU seconds of one kernel run at the reference speed
REFERENCE_S = 5.4e-3
#: CPU seconds between two samples taken by the interval timer
INTERVAL_S = 0.25


class Speed:
    """Reference-speed clock for one process; ``start``/``stop`` the timer."""

    def __init__(self, window: int = 3):
        rng = np.random.default_rng(0)
        self._x = rng.standard_normal((64, 3))
        self._y = rng.standard_normal(500)
        self._recent: collections.deque = collections.deque(maxlen=window)
        self._kernel_cpu = 0.0      # CPU spent in the kernel so far
        self._last = None           # work CPU at the latest sample
        self._ref = 0.0             # reference seconds of work up to then
        self._busy = False
        self.samples: list[float] = []

    def _kernel(self) -> float:
        # a little of each kind of work the program does: sorts and sums of
        # short columns (tree fitting), quantiles, differences and a DFT of a
        # window (features), number formatting (CSV)
        x, y = self._x, self._y
        acc = 0.0
        for i in range(40):
            col = x[:, i % 3]
            acc += float(np.cumsum(col[np.argsort(col)])[-1])
            acc += float(np.quantile(y, 0.3)) + float(np.abs(np.diff(y)).mean())
            acc += float(np.abs(np.fft.rfft(y)[3]))
            acc += len(f"{acc:.10g},{i * 0.1:.10g}")
        return acc

    def cpu(self) -> float:
        """CPU seconds of this process, less the time spent in the kernel."""
        return CLOCK() - self._kernel_cpu

    def sample(self) -> None:
        if self._busy:              # the timer fired inside a sample
            return
        self._busy = True
        try:
            now = self.cpu()
            t0 = CLOCK()
            self._kernel()
            took = CLOCK() - t0
            self._kernel_cpu += took
            self._recent.append(took)
            self.samples.append(took)
            if self._last is not None:
                self._ref += (now - self._last) * self.factor()
            self._last = now
        finally:
            self._busy = False

    def factor(self) -> float:
        """Reference seconds per raw CPU second at the current speed."""
        return REFERENCE_S / statistics.median(self._recent)

    def now(self) -> float:
        """Reference seconds of work so far, closed with a fresh sample."""
        self.sample()
        return self._ref

    def start(self) -> None:
        signal.signal(signal.SIGPROF, lambda signum, frame: self.sample())
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)

    def timed(self, fn, *args, **kwargs):
        """Run ``fn``: (result, reference seconds, raw CPU seconds)."""
        ref0, cpu0 = self.now(), self.cpu()
        result = fn(*args, **kwargs)
        raw = self.cpu() - cpu0
        return result, self.now() - ref0, raw
