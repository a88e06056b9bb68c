"""Host-speed index, so that times are reported at a nominal host speed.

On a shared host the CPU speed a process gets drifts by 30-50 % over
minutes as other tenants come and go, far more than the changes this
benchmark has to resolve. The measuring worker therefore times a fixed
reference kernel about once a second between requests. The kernel has
four parts, in the program's mix: interpreter loops with dict and string
churn, small LAPACK calls, a batched LAPACK call, and simplex-style
sorting of a small array. A sample is the mean, over the parts, of each
part's time against its nominal time, so ``1.0`` means nominal speed and
``1.3`` a host 30 % slow. Every time of a run is divided by the median
sample of that run.

In a 200 s trace on the host this was built on, 20 s means of the sample
tracked the time of fixed `run_suite` requests and of short
`minimize_entropy_batch` calls with a correlation of 0.97-0.98 and a slope
of 1.0, and dividing by them cut the coefficient of variation of those
times from 9.5 % to 2-2.5 %. The kernel is the benchmark's own code, so
a slower program still reads slower.
"""

from __future__ import annotations

import time

import numpy as np

# Minimum time between two samples in a timed loop.
SAMPLE_EVERY_S = 1.0
# Runs of each part per sample; the part's time is their median.
RUNS = 9

_RNG = np.random.default_rng(12345)
_G = _RNG.standard_normal((64, 4, 4)) + 1j * _RNG.standard_normal((64, 4, 4))
_BATCH = _G @ np.swapaxes(_G.conj(), 1, 2)
_SMALL = _BATCH[0]
_SLOTS = _RNG.standard_normal((64, 17))


def _interpreter() -> None:
    x = 0
    for i in range(6000):
        x += i * i
    d = {}
    for i in range(1500):
        d[str(i)] = i


def _small_lapack() -> None:
    for _ in range(60):
        np.linalg.eigvalsh(_SMALL)


def _batched_lapack() -> None:
    for _ in range(6):
        np.linalg.eigh(_BATCH)


def _simplex_sort() -> None:
    for _ in range(40):
        order = np.argsort(_SLOTS, axis=1, kind="stable")
        ranked = np.take_along_axis(_SLOTS, order, axis=1)
        ranked.mean(axis=1)
        np.abs(ranked - ranked[:, :1]).max(axis=1)


# Part -> its time at nominal speed, measured on the host this was built on.
PARTS = (
    (_interpreter, 0.0009),
    (_small_lapack, 0.0007),
    (_batched_lapack, 0.0021),
    (_simplex_sort, 0.0021),
)


def _part_time(fn) -> float:
    times = []
    for _ in range(RUNS):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return sorted(times)[RUNS // 2]


def sample() -> float:
    """Host slowness now: 1.0 at nominal speed, larger when slower."""
    return sum(_part_time(fn) / nominal for fn, nominal in PARTS) / len(PARTS)


class SpeedIndex:
    """Samples taken between requests during one timed loop."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._last = -float("inf")

    def mark(self, force: bool = False) -> None:
        """Take a sample if one is due, or if ``force``."""
        if force or time.perf_counter() - self._last >= SAMPLE_EVERY_S:
            self.samples.append(sample())
            self._last = time.perf_counter()

    def slowness(self) -> float:
        """Median sample: divide a time measured in the loop by this."""
        ordered = sorted(self.samples)
        return ordered[len(ordered) // 2]
