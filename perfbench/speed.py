"""Machine-speed probe that scales measured times to a reference speed.

On a shared host the same machine's speed drifts over tens of seconds: on
the 2-core Xeon VM this benchmark was built on, 10-second medians of one
identical ``dense`` job ranged from 162 to 219 ms within 90 s.  The probe
times a fixed kernel that never calls ``fastla`` and does the three kinds of
work ``fastla`` does -- Python-level row updates, a BLAS product and
elementwise arithmetic on large arrays -- and returns the factor
``REFERENCE_S / kernel seconds``.  A time multiplied by the factor measured
next to it is the time at the reference speed.  ``ScaledClock`` probes
between calls, at most every ``PROBE_EVERY_S`` of call time, because the
drift changes within one ``spectral`` job.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

# Kernel seconds at the reference speed (about the kernel's best-of-3 on the
# machine above).  It only sets the scale of the reported times.
REFERENCE_S = 4.0e-3
PROBE_EVERY_S = 0.1


class SpeedProbe:
    REPEATS = 3

    def __init__(self):
        rng = np.random.default_rng(0x5BEED)
        self._rows = rng.standard_normal((160, 160))
        self._gemm = rng.standard_normal((256, 256))
        self._elem = rng.standard_normal((256, 256))

    def _kernel(self) -> None:
        m = self._rows
        x = m.copy()
        for i in range(1, m.shape[0]):
            x[i, :] -= m[i, :i] @ x[:i, :]
        self._gemm @ self._gemm
        v = self._elem
        for _ in range(6):
            s = v + v
            e = s - v
            v = (self._elem - (s - e)) * 0.5 + v

    def seconds(self) -> float:
        """Best of ``REPEATS`` kernel times."""
        best = float("inf")
        for _ in range(self.REPEATS):
            t0 = perf_counter()
            self._kernel()
            best = min(best, perf_counter() - t0)
        return best

    def factor(self) -> float:
        """Reference speed over the current speed."""
        return REFERENCE_S / self.seconds()


class ScaledClock:
    """Call seconds scaled by the mean of the probe factors on either side.

    ``add`` takes the seconds of one call and probes once at least
    ``PROBE_EVERY_S`` of calls have run since the last probe; ``flush``
    probes for what is left.  Probes run between calls, outside their time.
    """

    def __init__(self, probe: SpeedProbe):
        self._probe = probe
        self._factor = probe.factor()
        self._pending = 0.0
        self.total = 0.0  # scaled seconds so far

    def add(self, seconds: float) -> None:
        self._pending += seconds
        if self._pending >= PROBE_EVERY_S:
            self.flush()

    def flush(self) -> None:
        if self._pending:
            factor = self._probe.factor()
            self.total += self._pending * 0.5 * (self._factor + factor)
            self._factor = factor
            self._pending = 0.0
