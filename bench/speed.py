"""A machine-speed probe that runs alongside the measured calls.

The benchmark shares its machine: identical passes over identical inputs
were measured to run up to 30% slower or faster from one second to the
next, in CPU time as well as wall time, with nothing else running in the
container.  To keep that out of the throughput, a fixed reference kernel
is timed every ``INTERVAL`` seconds of wall time, from a SIGALRM handler,
while the workload runs.  The kernel is the same kind of work as the
program's (small-array numpy, LAPACK, Python-level scalar calls and one
larger grid scan), so a slow second slows both alike.  The workload's time
is then restated at the kernel's reference speed:

    normalized time = measured time * REFERENCE_KERNEL_S / mean kernel time

Time spent in the handler is subtracted from the calls it interrupts.
"""

from __future__ import annotations

import signal
import time

import numpy as np

from oracle import _profile

INTERVAL = 0.1
# About the kernel's time on a quiet 2-core x86-64 VM with Python 3.11 and
# numpy 2.4; only the ratio of two runs' normalized figures is meaningful.
REFERENCE_KERNEL_S = 1.3e-3

def _curve(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    s = np.geomspace(1.0, 300.0, n)
    return s, 100.0 * s / (20.0 + s) + np.cos(np.arange(float(n))), np.sqrt(s)


_SMALL, _MID, _LARGE = _curve(12), _curve(30), _curve(120)
_GRID48, _GRID64, _GRID256 = (np.geomspace(0.01, 3e6, k) for k in (48, 64, 256))


def _scan(grid, s, y, h) -> np.ndarray:
    """The profile equation on a grid of k, as one (grid x n) array sweep."""
    d = grid[:, None] + s
    w = s / (d * h)
    return (w * y).sum(axis=1) * (w * s / d / d).sum(axis=1) - (
        (w * y / d).sum(axis=1) * (w * s / d).sum(axis=1)
    )


def kernel() -> None:
    """About 1.3 ms of the program's kinds of work, on fixed bench-owned data.

    A miniature bootstrap refit of a 12-point curve (a keyed random stream
    and Rademacher draws, a grid scan of the profile equation, twelve
    bisection steps of Python-level scalar evaluations, a 2x2 information
    matrix with its condition number and inverse, a quantile); a scan and
    24 scalar evaluations for a 30-point curve; and one 256 x 120 grid
    scan, the size the solver scans for the largest bootstrap curve.  The
    small parts stay in the core's caches and the large scan does not, so
    the kernel slows with the machine in both of the program's regimes.
    """
    s, y0, h = _SMALL
    rng = np.random.default_rng(np.random.SeedSequence((7, 3, 11)))
    y = y0 + rng.integers(0, 2, size=s.size) * 2.0 - 1.0
    f = _scan(_GRID48, s, y, h)
    i = int(np.flatnonzero(np.sign(f[:-1]) != np.sign(f[1:]))[0])
    a, b = float(_GRID48[i]), float(_GRID48[i + 1])
    fa = _profile(a, s, y, h)[0]
    for _ in range(12):
        m = 0.5 * (a + b)
        fm = _profile(m, s, y, h)[0]
        if (fm > 0.0) == (fa > 0.0):
            a, fa = m, fm
        else:
            b = m
    g = np.stack([s / (m + s), -100.0 * s / (m + s) ** 2], axis=1)
    info = g.T @ (g / h[:, None]) / s.size
    np.linalg.cond(info)
    np.linalg.inv(info)
    np.quantile(y, [0.025, 0.975])
    _scan(_GRID64, *_MID)
    for k in _GRID64[:24]:
        _profile(float(k), *_MID)
    _scan(_GRID256, *_LARGE)


class SpeedProbe:
    """Context manager sampling ``kernel`` every ``INTERVAL`` s of wall time."""

    def __init__(self):
        self.samples: list[float] = []
        self.handler_s = 0.0
        self._previous = None

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        kernel()
        self.samples.append(time.perf_counter() - start)
        self.handler_s += time.perf_counter() - start

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def speed_factor(self, first: int = 0, last: int | None = None) -> float:
        """Reference kernel time over the mean kernel time of samples[first:last]."""
        taken = self.samples[first:last] or self.samples
        return REFERENCE_KERNEL_S / (sum(taken) / len(taken))
