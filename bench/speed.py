"""Machine-speed calibration: times are reported at a fixed reference speed.

The machines this benchmark runs on are shared, and their speed drifts. On
the 2-core machine of the recorded baseline, a fixed pure-Python loop ran
at two speeds about 2x apart, each state lasting from seconds to over a
minute; the slow state matches load on the other core. Raw seconds then
depend more on when a run happened than on the code.

So timed queries are bracketed by a fixed kernel, run between queries
whenever CALIBRATE_EVERY_S of measured time has passed since the last
one.  The kernel's profile follows the workload's: interpreter work alone
("python"), or that plus a numpy pass that streams through buffers larger
than a core's L2 cache ("memory").  Load on the other core slows the
interpreter about 2x but the numpy pass much less, so one kernel cannot
serve every workload.  Times are rescaled to a machine on which one kernel
pass takes REFERENCE_S:

    reported = measured * REFERENCE_S[profile] / kernel_seconds_around_it

The result is still seconds: an estimate of what the interval would take
at the reference speed. A change to the program moves it in full, because
the kernel is the benchmark's own code.

The kernel runs in the workload's process, so it must not set that
process's peak memory: its buffers are allocated once and reused in place,
with no temporaries, and add a constant 8 MiB.
"""

from __future__ import annotations

import functools
import statistics
import time
from fractions import Fraction

import numpy as np

# One kernel pass, per profile, on the 2-core machine of the recorded
# baseline in its fast state.
REFERENCE_S = {"python": 0.0055, "memory": 0.080}
_PASSES = 3
# Measured seconds between calibrations: cheap kernels run more often.
CALIBRATE_EVERY_S = {"python": 0.5, "memory": 1.5}


# The numpy pass covers 2^21 points in chunks of 2^18: 8 MiB of buffers.
_CHUNK = 1 << 18
_CHUNKS = 8


@functools.cache
def _buffers() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The first chunk's points, a float scratch chunk and a complex output
    chunk.  Built on first use, so that only the "memory" profile holds them."""
    base = np.linspace(0.0, 1.0 / _CHUNKS, _CHUNK, endpoint=False)
    return base, np.empty(_CHUNK), np.empty(_CHUNK, dtype=complex)


def _numpy_pass() -> float:
    """Sum of cos(2 pi x) over 2^21 points of [0, 1), computed in place."""
    base, points, out = _buffers()
    total = 0.0
    for c in range(_CHUNKS):
        np.add(base, c / _CHUNKS, out=points)
        np.multiply(points, 2j * np.pi, out=out)
        np.exp(out, out=out)
        total += float(out.real.sum())
    return total


def _interpreter() -> int:
    acc, total, table = Fraction(0), 0, {}
    for i in range(1, 2000):
        total += i * i % 7
        acc += Fraction(1, i % 31 + 1)
        table[i % 17] = [i, total]
    return total + acc.denominator % 7


def _kernel(profile: str) -> float:
    """Interpreter work (integers, Fractions, dict churn), plus for the
    "memory" profile a numpy pass through the L3 cache."""
    total = float(_interpreter())
    if profile == "memory":
        total += _numpy_pass()
    return total


def pass_seconds(profile: str) -> float:
    """Median time of one kernel pass, over a few passes."""
    samples = []
    for _ in range(_PASSES):
        start = time.perf_counter()
        _kernel(profile)
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def factor(profile: str, before: float, after: float) -> float:
    """Multiplier taking seconds measured between two calibrations to reference seconds."""
    return REFERENCE_S[profile] / ((before + after) / 2)


class Calibrator:
    """Rescales timed intervals, calibrating between them as they accumulate."""

    def __init__(self, profile: str) -> None:
        self.profile = profile
        self._before = pass_seconds(profile)
        self._pending: list[list] = []
        self._since = 0.0

    def add(self, seconds: float) -> list:
        """Record an interval; returns the cell [seconds, factor], factor set later."""
        cell = [seconds, None]
        self._pending.append(cell)
        self._since += seconds
        if self._since >= CALIBRATE_EVERY_S[self.profile]:
            self.flush()
        return cell

    def flush(self) -> None:
        """Calibrate now and give every pending interval its factor."""
        after = pass_seconds(self.profile)
        scale = factor(self.profile, self._before, after)
        for cell in self._pending:
            cell[1] = scale
        self._pending.clear()
        self._before, self._since = after, 0.0
