"""Log-space arithmetic helpers.

All densities and masses in this package travel as natural logs; zero mass is
``-inf``.  Sums of many log-values are accumulated in a scaled linear domain
with Neumaier compensation so that ratios reported at the 1e-12 level are not
polluted by summation error.
"""

from __future__ import annotations

import math

LOG_ZERO = float("-inf")


def log_add(a: float, b: float) -> float:
    """log(e^a + e^b), safe for -inf arguments."""
    if a == LOG_ZERO:
        return b
    if b == LOG_ZERO:
        return a
    if a < b:
        a, b = b, a
    return a + math.log1p(math.exp(b - a))


class NeumaierSum:
    """Running compensated sum (Neumaier's variant of Kahan summation)."""

    __slots__ = ("_s", "_c")

    def __init__(self) -> None:
        self._s = 0.0
        self._c = 0.0

    def add(self, value: float) -> None:
        s = self._s + value
        if abs(self._s) >= abs(value):
            self._c += (self._s - s) + value
        else:
            self._c += (value - s) + self._s
        self._s = s

    @property
    def total(self) -> float:
        return self._s + self._c


def log_sum(values) -> float:
    """log of the sum of e^v over an iterable of log-values.

    Scaled by the running maximum and compensated; the input order is
    preserved, so results are deterministic for a deterministic input order.
    A lone value is returned as the sum would return it, ``-0.0`` as ``0.0``.
    """
    vals = [v for v in values if v != LOG_ZERO]
    if len(vals) == 1:
        return vals[0] + 0.0
    if not vals:
        return LOG_ZERO
    ref = max(vals)
    if ref == float("inf"):
        return ref
    acc = NeumaierSum()
    for v in vals:
        acc.add(math.exp(v - ref))
    total = acc.total
    if total <= 0.0:
        return LOG_ZERO
    return ref + math.log(total)
