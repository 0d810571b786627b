"""Host-speed calibration for the end-to-end timings.

The benchmark runs on shared hosts whose speed for the same pure-Python code
drifts by tens of percent over tens of seconds, so raw wall times of the same
code spread more between runs than a regression bound allows.  This module
times a fixed pure-Python kernel, independent of ``subexp``, while the
program runs: a ``HostClock`` interrupts the program every ``period_s``
seconds of wall time and runs one calibration chunk.  Timings are then
reported in reference seconds,

    measured seconds * REF_CHUNK_S / (mean chunk time while they were measured),

which is the time the same work takes on a host where one chunk takes
``REF_CHUNK_S``.  The chunk's own time is taken off the program's interval.

Chunks are timed in the calibrating thread's CPU time, so a program that
later runs work in other threads or processes does not slow the chunk by
sharing the core with it; the host's own slow stretches (frequency, shared
caches and cores) slow the chunk and the program alike.

The kernel is an adaptive Simpson rule on a fixed log-integrand: tuples,
float arithmetic and ``math.exp``/``math.log`` in an interpreter loop, the
mix the program's quadrature runs.  Its work is fixed, so the chunk time
depends on the host alone.  Do not change the kernel or ``REF_CHUNK_S``
without re-measuring the baseline: both define the reported unit.
"""

from __future__ import annotations

import math
import signal
import time

# CPU time of one chunk on the host of the recorded baseline (perfbench/BASELINE.md)
REF_CHUNK_S = 7.5e-4
PERIOD_S = 0.02
_TOL = 3e-8


def _f_log(t: float) -> float:
    return -0.5 * t * t + math.log(1.001 + abs(math.sin(3.0 * t)))


def _kernel(lo: float = -3.0, hi: float = 3.0) -> float:
    """log of the integral of exp(_f_log) over [lo, hi] by adaptive Simpson."""
    def g(t):
        return math.exp(_f_log(t))

    mid = 0.5 * (lo + hi)
    fa, fm, fb = g(lo), g(mid), g(hi)
    stack = [(lo, fa, mid, fm, hi, fb, (hi - lo) * (fa + 4.0 * fm + fb) / 6.0, _TOL)]
    total = 0.0
    while stack:
        a, fa, m, fm, b, fb, s1, bud = stack.pop()
        lm, rm = 0.5 * (a + m), 0.5 * (m + b)
        flm, frm = g(lm), g(rm)
        h = 0.5 * (b - a)
        sl = h * (fa + 4.0 * flm + fm) / 6.0
        sr = h * (fm + 4.0 * frm + fb) / 6.0
        err = (sl + sr - s1) / 15.0
        if abs(err) <= bud:
            total += sl + sr + err
        else:
            stack.append((a, fa, lm, flm, m, fm, sl, 0.5 * bud))
            stack.append((m, fm, rm, frm, b, fb, sr, 0.5 * bud))
    return math.log(total)


def chunk() -> float:
    """CPU seconds of this thread for one run of the calibration kernel."""
    t0 = time.thread_time()
    _kernel()
    return time.thread_time() - t0


def burst(n: int = 30, warm: int = 5) -> float:
    """Mean chunk time over ``n`` chunks run back to back after ``warm`` untimed ones.

    The untimed chunks let a fresh interpreter specialise the kernel's code.
    """
    for _ in range(warm):
        chunk()
    return sum(chunk() for _ in range(n)) / n


class Mark:
    """State of a ``HostClock`` at one instant."""

    __slots__ = ("wall", "paused", "chunks", "chunk_s")

    def __init__(self, wall, paused, chunks, chunk_s):
        self.wall, self.paused, self.chunks, self.chunk_s = wall, paused, chunks, chunk_s


class HostClock:
    """Runs a calibration chunk every ``period_s`` of wall time (SIGALRM).

    Use ``mark()`` around a stretch of program work; ``program_s`` gives the
    stretch's wall time without the chunks run inside it, and ``ref_s`` the
    same time in reference seconds.
    """

    def __init__(self, period_s: float = PERIOD_S):
        self.period_s = period_s
        self.paused = 0.0  # wall time spent in the handler
        self.chunks = 0
        self.chunk_s = 0.0
        self._old = None

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        self.chunk_s += chunk()
        self.chunks += 1
        self.paused += time.perf_counter() - t0

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.period_s, self.period_s)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._old)
        return False

    def mark(self) -> Mark:
        return Mark(time.perf_counter(), self.paused, self.chunks, self.chunk_s)

    def program_s(self, m0: Mark, m1: Mark) -> float:
        return (m1.wall - m0.wall) - (m1.paused - m0.paused)

    def slowness(self, m0: Mark, m1: Mark) -> float:
        """Mean chunk time between the marks over ``REF_CHUNK_S``."""
        n = m1.chunks - m0.chunks
        if n <= 0:
            raise ValueError("no calibration chunk ran between the marks")
        return (m1.chunk_s - m0.chunk_s) / n / REF_CHUNK_S

    def ref_s(self, m0: Mark, m1: Mark) -> float:
        return self.program_s(m0, m1) / self.slowness(m0, m1)


class WallClock:
    """The ``HostClock`` interface with plain wall time: no chunks, slowness 1."""

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def mark(self) -> Mark:
        return Mark(time.perf_counter(), 0.0, 0, 0.0)

    def program_s(self, m0: Mark, m1: Mark) -> float:
        return m1.wall - m0.wall

    def slowness(self, m0: Mark, m1: Mark) -> float:
        return 1.0

    def ref_s(self, m0: Mark, m1: Mark) -> float:
        return self.program_s(m0, m1)
