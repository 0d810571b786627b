"""Segment quadrature for log-scale integrands.

The integrands here span hundreds of orders of magnitude across a run but only
a handful within any single integral, so each integral is evaluated in a
linear domain scaled by the largest sampled log-value.  Structure points (the
dip centers and ring edges of the periodic profile, support edges, kernel
knots) are passed as hints and split the range into segments; between hints
the integrands are smooth, and each segment gets the rule that fits it:

- A segment with an endpoint in ``singular`` runs the tanh-sinh rule of
  Takahasi & Mori (1974).  The dip profile ``-1/log|y - x0|`` has an
  unbounded derivative at a dip center; the double-exponential change of
  variables makes it a rapidly decaying analytic integrand, so halving the
  step converges in a few dozen evaluations where bisection would crawl
  toward the center.  The halving stops once two levels agree, or once the
  changes between levels shrink fast enough that the next one would fit
  the budget.
- Every other segment runs adaptive Simpson with Richardson extrapolation.
  Its exhaustion floor accepts a panel whose whole possible contribution is
  negligible, so a jump or an unflagged singular derivative still ends.

No single-level query of :mod:`measures` comes here: windows, tails and the
normalizer take closed forms or fixed Gauss-Legendre rules, tilted or not.
What runs here is the outer integrals of convolutions and probes, and the
generic ``Component`` default (weight times density), which a dip-density
window takes only where its structure is not resolved.

Refinement is budgeted: the total error target ``rel_tol * I`` is distributed
over the segments proportionally to their first-pass mass (with a floor so
empty-looking segments still get attention); each bisection passes half its
budget to each child, and a tanh-sinh segment stops once its error estimate
fits its budget.  Accepted sums are combined with compensated
summation in a fixed order, so a given integral always returns the same bits.
``max_depth`` bounds the nodes of a segment for both rules: bisection depth
``d`` and tanh-sinh level ``d - 2`` each reach about ``2^(d+1)`` nodes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .errors import ParameterError, QuadratureError
from .logsum import LOG_ZERO, NeumaierSum

_ONE_THIRD = 1.0 / 3.0

# tanh-sinh nodes run over |t| <= _DE_T.  Beyond it the weights fall below
# 1e-20 of the peak, so for the bounded integrands here the truncation is far
# below any tolerance.
_DE_T = 3.5
# Step halvings past this level only chase rounding noise in double precision.
_DE_MAX_LEVEL = 8
# Level k has about 2^(k+3) nodes, as many as bisection reaches at depth
# k + 2, so ``max_depth`` allows levels up to max_depth - 2.
_DE_DEPTH_OFFSET = 2


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerance and subdivision policy for all adaptive integrals."""

    rel_tol: float = 1e-9
    abs_floor: float = 1e-300
    max_depth: int = 48

    def __post_init__(self):
        if not (0.0 < self.rel_tol <= 1e-3):
            raise ParameterError(f"rel_tol must be in (0, 1e-3], got {self.rel_tol}")
        if not (0 < self.max_depth <= 60):
            raise ParameterError(f"max_depth must be in [1, 60], got {self.max_depth}")
        if self.abs_floor < 0.0:
            raise ParameterError("abs_floor must be nonnegative")


def _simpson(fa, fm, fb, width):
    return width * (fa + 4.0 * fm + fb) / 6.0


@lru_cache(maxsize=None)
def _de_nodes(level: int) -> tuple:
    """Nodes of tanh-sinh level ``level`` on [-1, 1], for t >= 0 only.

    Each node is ``(q, w)``: the node lies ``q`` half-widths inside the
    nearer endpoint (so nodes crowding an endpoint keep full precision), and
    ``w`` is its weight per half-width and unit step.  Level 0 has step 1
    and holds t = 0 first; level k > 0 holds the new odd multiples of 2^-k.
    """
    h = 2.0 ** -level
    if level == 0:
        ts = [float(j) for j in range(int(_DE_T) + 1)]
    else:
        ts = [j * h for j in range(1, int(_DE_T / h) + 1, 2)]
    nodes = []
    for t in ts:
        s = 0.5 * math.pi * math.sinh(t)
        e = math.exp(-2.0 * s)
        nodes.append((2.0 * e / (1.0 + e),
                      0.5 * math.pi * math.cosh(t) * 4.0 * e / (1.0 + e) ** 2))
    return tuple(nodes)


def _de_points(a: float, b: float, level: int) -> list:
    """(abscissa, weight) of the new nodes of one tanh-sinh level on [a, b].

    Weights are per unit step; the level's step ``2^-level`` is applied by
    the caller.
    """
    hw = 0.5 * (b - a)
    nodes = _de_nodes(level)
    out = []
    if level == 0:
        _q, w = nodes[0]
        out.append((a + hw, hw * w))
        nodes = nodes[1:]
    for q, w in nodes:
        d = hw * q
        out.append((a + d, hw * w))
        out.append((b - d, hw * w))
    return out


def integrate_log(f_log, lo: float, hi: float, quad: QuadratureSpec, hints=(),
                  singular=()) -> float:
    """Return log of the integral of exp(f_log(t)) over [lo, hi].

    ``hints`` split the range into segments.  ``singular`` lists points
    (inside the range or at its ends) where the integrand has an unbounded
    derivative; they split the range too, and every segment ending at one is
    integrated with the tanh-sinh rule.  ``f_log`` may return -inf where the
    integrand vanishes.  Raises :class:`QuadratureError` when the depth budget
    is exhausted before the error estimate falls below tolerance.
    """
    if not (hi > lo):
        return LOG_ZERO

    cuts = {lo, hi}
    for h in hints:
        if lo < h < hi:
            cuts.add(float(h))
    ends = set()
    for s in singular:
        if lo <= s <= hi:
            ends.add(float(s))
            if s < hi:
                cuts.add(float(s))
    pts = sorted(cuts)

    # First pass: 5-point composite Simpson, or tanh-sinh level 0 at a
    # singular end; the values stay in log space until the shared scale is known.
    first = []
    ref = LOG_ZERO
    for a, b in zip(pts[:-1], pts[1:]):
        de = a in ends or b in ends
        if de:
            nodes = _de_points(a, b, 0)
            fs = tuple(f_log(x) for x, _w in nodes)
        else:
            width = b - a
            nodes = (a, a + 0.25 * width, a + 0.5 * width, a + 0.75 * width, b)
            fs = tuple(f_log(x) for x in nodes)
        first.append((a, b, de, nodes, fs))
        m = max(fs)
        if m > ref:
            ref = m
    if ref == LOG_ZERO:
        return LOG_ZERO

    def f(t):
        v = f_log(t)
        return 0.0 if v == LOG_ZERO else math.exp(v - ref)

    # each segment's first estimate and, for Simpson, the linear values and
    # half sums its refinement starts from
    seg_est = []
    total0 = 0.0
    for a, b, de, nodes, fs in first:
        if de:
            s0 = math.fsum(0.0 if v == LOG_ZERO else w * math.exp(v - ref)
                           for (_x, w), v in zip(nodes, fs))
            seg_est.append((s0, None, None, None))
        else:
            g = tuple(0.0 if v == LOG_ZERO else math.exp(v - ref) for v in fs)
            half = 0.5 * (b - a)
            s_left = _simpson(g[0], g[1], g[2], half)
            s_right = _simpson(g[2], g[3], g[4], half)
            s0 = s_left + s_right
            seg_est.append((s0, g, s_left, s_right))
        total0 += s0

    if total0 <= 0.0:
        return LOG_ZERO

    budget_total = quad.rel_tol * total0
    floor_share = 1.0 / (8.0 * len(first))
    # Exhaustion floor: a Simpson panel whose whole possible contribution is
    # below this is accepted outright.  At a jump, or at a singular
    # derivative that no ``singular`` point flags, the Simpson error only
    # halves per bisection level, as the budget does, so refinement alone
    # would never end.
    floor_abs = budget_total / 64.0
    acc = NeumaierSum()
    err_acc = NeumaierSum()
    failed = False

    for (a, b, de, xs, _fs), (est, g, s_left, s_right) in zip(first, seg_est):
        budget = budget_total * max(est / total0, floor_share)
        if de:
            s, err, ok = _tanh_sinh(f, a, b, est, budget, quad)
            acc.add(s)
            err_acc.add(err)
            failed = failed or not ok
            continue

        # Iterative adaptive bisection over (a, fa, m, fm, b, fb, S, budget, depth).
        stack = [
            (a, g[0], xs[1], g[1], xs[2], g[2], s_left, 0.5 * budget, 1),
            (xs[2], g[2], xs[3], g[3], b, g[4], s_right, 0.5 * budget, 1),
        ]
        while stack:
            a0, fa, m0, fm, b0, fb, s1, bud, depth = stack.pop()
            lm = 0.5 * (a0 + m0)
            rm = 0.5 * (m0 + b0)
            flm = f(lm)
            frm = f(rm)
            half_w = 0.5 * (b0 - a0)
            sl = _simpson(fa, flm, fm, half_w)
            sr = _simpson(fm, frm, fb, half_w)
            s2 = sl + sr
            err = (s2 - s1) * _ONE_THIRD * 0.2  # |S2-S1|/15
            cap = (b0 - a0) * max(fa, flm, fm, frm, fb)
            if abs(err) <= bud or abs(err) <= quad.abs_floor:
                acc.add(s2 + err)  # Richardson extrapolation
                err_acc.add(abs(err))
            elif cap <= floor_abs:
                acc.add(s2)
                err_acc.add(cap)
            elif depth >= quad.max_depth:
                acc.add(s2)
                err_acc.add(abs(err))
                failed = True
            else:
                stack.append((a0, fa, lm, flm, m0, fm, sl, 0.5 * bud, depth + 1))
                stack.append((m0, fm, rm, frm, b0, fb, sr, 0.5 * bud, depth + 1))

    total = acc.total
    log_total = LOG_ZERO if total <= 0.0 else ref + math.log(total)
    if failed:
        bound = err_acc.total
        raise QuadratureError(
            f"adaptive quadrature did not converge within depth {quad.max_depth}",
            partial_log=log_total,
            bound_log=(LOG_ZERO if bound <= 0.0 else ref + math.log(bound)),
        )
    return log_total


def _tanh_sinh(f, a: float, b: float, s0: float, budget: float, quad: QuadratureSpec):
    """Refine a tanh-sinh level-0 sum ``s0`` on [a, b] by halving the step.

    Returns (integral, error estimate, converged).  Level k is accepted when
    its change ``d_k`` from the previous level fits the budget, which for a
    double-exponential rule bounds the error of the coarser level, or, from
    level 2 on, when the changes shrink and ``d_k^2 / d_(k-1)`` fits it: the
    error of a double-exponential rule falls about quadratically per level,
    so that ratio estimates the error of level k itself (Bailey, Jeyabalan &
    Li, Exp. Math. 14, 2005).
    """
    raw = s0  # weighted node sum at unit step
    prev, err, d_prev = s0, s0, math.inf
    for level in range(1, min(quad.max_depth - _DE_DEPTH_OFFSET, _DE_MAX_LEVEL) + 1):
        raw += math.fsum(w * f(x) for x, w in _de_points(a, b, level))
        cur = raw * 2.0 ** -level
        err = abs(cur - prev)
        if err <= budget or err <= quad.abs_floor:
            return cur, err, True
        if level >= 2 and err < d_prev and err * err / d_prev <= budget:
            return cur, err * err / d_prev, True
        prev, d_prev = cur, err
    return prev, err, False


def integrate_linear(f, lo: float, hi: float, quad: QuadratureSpec, hints=(),
                     singular=()) -> float:
    """:func:`integrate_log` for plain nonnegative integrands (convenience wrapper)."""

    def f_log(t):
        v = f(t)
        return LOG_ZERO if v <= 0.0 else math.log(v)

    r = integrate_log(f_log, lo, hi, quad, hints=hints, singular=singular)
    return 0.0 if r == LOG_ZERO else math.exp(r)
