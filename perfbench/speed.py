"""Host-speed normalization: time measured at a fixed reference speed.

The benchmark runs on shared machines whose neighbours slow every core
by up to ~1.7x, in spells that flip within a second and can last for
minutes.  Interpreter-bound code slows the most, and by the same factor
as any other code of its kind: on such a host the ratio of two
interpreter-bound loops run side by side stays within a few percent
while each alone swings by half.

So the benchmark interleaves a small fixed reference computation (the
*probe*) with the program's work, and weighs each stretch of work by the
host speed the probes on either side of it saw: ``REFERENCE_MS`` over
the probe's time.  A stretch runs from the end of one probe to the start
of the next, so probe time is never counted as work.  The sum is the
work's wall time on the host at the reference speed, the speed at which
one probe takes ``REFERENCE_MS``.

Probes run either explicitly (:meth:`Speedometer.probe`, say between two
ticks) or from a ``SIGALRM`` interval timer (:meth:`Speedometer.ticking`)
for long calls into the program; Python runs the handler between two
bytecodes of the main thread, so no program function is wrapped.
"""

from __future__ import annotations

import bisect
import contextlib
import math
import signal
import time

import numpy as np

# The probe's wall time on an unloaded 2-vCPU Xeon (Sapphire Rapids)
# guest; it only sets the scale of normalized times.
REFERENCE_MS = 0.78
PROBE_SWEEPS = 6
PROBE_INTERVAL_S = 0.025

_P = 48
_rng = np.random.default_rng(20240)
_design = _rng.standard_normal((4 * _P, _P))
_GRAM = _design.T @ _design / (4 * _P)
_CORRELATIONS = _design.T @ _rng.standard_normal(4 * _P) / (4 * _P)


def probe_work(sweeps: int = PROBE_SWEEPS) -> float:
    """Fixed work shaped like the program's hot loops: cyclic
    coordinate-descent sweeps over a small Gram matrix, a Python loop of
    scalar arithmetic around small numpy vector updates.  Every sweep
    updates every coordinate, so the work never depends on convergence."""
    beta = np.zeros(_P)
    gradient = _CORRELATIONS.copy()
    for _ in range(sweeps):
        for j in range(_P):
            norm = _GRAM[j, j]
            rho = gradient[j] + norm * beta[j]
            new = math.copysign(max(abs(rho) - 1e-3, 0.0), rho) / norm
            delta = new - beta[j]
            gradient -= _GRAM[:, j] * delta
            beta[j] = new
    return float(beta.sum())


class Speedometer:
    """Probe times, in order, and the work time between them."""

    def __init__(self, clock=time.perf_counter, work=probe_work):
        self._clock = clock
        self._work = work
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.speeds: list[float] = []
        self._busy = False

    def probe(self) -> None:
        """Run one probe now and record the host speed it saw."""
        if self._busy:  # the timer fired inside a probe
            return
        self._busy = True
        try:
            start = self._clock()
            self._work()
            end = self._clock()
        finally:
            self._busy = False
        self.starts.append(start)
        self.ends.append(end)
        self.speeds.append(REFERENCE_MS / max((end - start) * 1e3, 1e-9))

    @contextlib.contextmanager
    def ticking(self, interval_s: float = PROBE_INTERVAL_S):
        """Probe every ``interval_s`` of wall time inside the block, and
        once on entry and exit so the block is bracketed."""

        def handler(signum, frame):
            self.probe()

        previous = signal.signal(signal.SIGALRM, handler)
        self.probe()
        signal.setitimer(signal.ITIMER_REAL, interval_s, interval_s)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, previous)
            self.probe()

    def probe_s(self, t0: float, t1: float) -> float:
        """Wall seconds spent in probes inside ``[t0, t1]``."""
        return sum(
            max(0.0, min(end, t1) - max(start, t0))
            for start, end in zip(self.starts, self.ends)
        )

    def normalized(self, t0: float, t1: float) -> float:
        """Work seconds in ``[t0, t1]`` at the reference speed.

        Each stretch between two probes counts at the mean speed of the
        probes that bracket it; a stretch before the first or after the
        last probe counts at that probe's speed.
        """
        if not self.speeds:
            raise ValueError("no probes recorded")
        total = 0.0
        # Stretches are [end of probe i - 1, start of probe i], with the
        # open ends before the first and after the last probe.
        first = max(0, bisect.bisect_right(self.ends, t0) - 1)
        last = min(len(self.starts), bisect.bisect_left(self.starts, t1) + 1)
        for i in range(first, last + 1):
            lo = self.ends[i - 1] if i > 0 else -math.inf
            hi = self.starts[i] if i < len(self.starts) else math.inf
            stretch = min(hi, t1) - max(lo, t0)
            if stretch <= 0:
                continue
            if i == 0:
                speed = self.speeds[0]
            elif i == len(self.speeds):
                speed = self.speeds[-1]
            else:
                speed = 0.5 * (self.speeds[i - 1] + self.speeds[i])
            total += stretch * speed
        return total
