"""Segment quadrature for log-scale integrands.

The integrands here span hundreds of orders of magnitude across a run but only
a handful within any single integral, so each integral is evaluated in a
linear domain scaled by the largest sampled log-value.  Structure points (the
dip centers and ring edges of the periodic profile, support edges, kernel
knots, and where a window end of one factor crosses them) are passed as
hints and split the range into segments; between hints the integrands are
analytic, and each segment gets the rule that fits it:

- A segment with an endpoint in ``singular`` runs the tanh-sinh rule of
  Takahasi & Mori (1974).  The dip profile ``-1/log|y - x0|`` has an
  unbounded derivative at a dip center, and a window mass whose end crosses
  one an unbounded second derivative; the double-exponential change of
  variables makes either a rapidly decaying analytic integrand, so halving
  the step converges in a few dozen evaluations where bisection would crawl
  toward the center.  The halving stops once two levels agree, or once the
  changes between levels shrink fast enough that the next one would fit
  the budget.
- Every other segment is a 15-point Gauss-Kronrod panel (QUADPACK's qk15,
  Piessens et al. 1983), bisected while ``|K15 - G7|``, the difference from
  its embedded 7-point Gauss rule, exceeds the panel's budget.  Its
  exhaustion floor accepts a panel whose whole possible contribution is
  negligible, so a jump or an unflagged singular derivative still ends.

No single-level query of :mod:`measures` comes here: windows, tails and the
normalizer take closed forms or fixed Gauss-Legendre rules, tilted or not.
What runs here is the outer integrals of convolutions and probes, and the
generic ``Component`` default (weight times density), which a dip-density
window takes only where its structure is not resolved.

The first pass is the first panel of each segment (tanh-sinh level 0 at a
singular end), and it sets both the shared scale and the budgets: the
total error target ``rel_tol * I`` is distributed over the segments
proportionally to their first-pass mass (with a floor so empty-looking
segments still get attention); each bisection passes half its budget to
each child, and a tanh-sinh segment stops once its error estimate fits its
budget.  Accepted sums are combined with compensated summation in a fixed
order, so a given integral always returns the same bits.  ``max_depth``
bounds both rules: the bisection depth of a panel and, less two, the
tanh-sinh level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .errors import ParameterError, QuadratureError
from .logsum import LOG_ZERO, NeumaierSum

# The 15-point Gauss-Kronrod rule and its embedded 7-point Gauss rule on
# [-1, 1] (QUADPACK's qk15, Piessens et al. 1983).  _GK_NODES holds the
# distances 1 - x of the positive Kronrod nodes from the end, so nodes near
# an end keep full precision; the Gauss nodes are the second, fourth and
# sixth of them and the centre.
_GK_NODES = (
    1.0 - 0.991455371120812639206854697526329,
    1.0 - 0.949107912342758524526189684047851,
    1.0 - 0.864864423359769072789712788640926,
    1.0 - 0.741531185599394439863864773280788,
    1.0 - 0.586087235467691130294144845693013,
    1.0 - 0.405845151377397166906606412076961,
    1.0 - 0.207784955007898467600689403773245,
)
_GK_WEIGHTS = (  # the centre's first
    0.209482141084727828012999174891714,
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
)
_G7_WEIGHTS = (  # aligned with _GK_WEIGHTS, zero at the Kronrod-only nodes
    0.417959183673469387755102040816327, 0.0,
    0.129484966168869693270611432679082, 0.0,
    0.279705391489276667901467771423780, 0.0,
    0.381830050505118944950369775488975, 0.0,
)
# both weight sets in the order of _gk_points
_GK_PAIR_WEIGHTS, _G7_PAIR_WEIGHTS = (
    (ws[0],) + tuple(w for w in ws[1:] for _ in (0, 1)) for ws in (_GK_WEIGHTS, _G7_WEIGHTS))

# tanh-sinh nodes run over |t| <= _DE_T.  Beyond it the weights fall below
# 1e-20 of the peak, so for the bounded integrands here the truncation is far
# below any tolerance.
_DE_T = 3.5
# Step halvings past this level only chase rounding noise in double precision.
_DE_MAX_LEVEL = 8
# Level k has about 2^(k+3) nodes, and ``max_depth`` allows levels up to
# max_depth - 2.
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


def _gk_points(a: float, b: float) -> list:
    """The 15 Gauss-Kronrod nodes on [a, b]: the centre, then pairs from the
    ends inward."""
    hw = 0.5 * (b - a)
    out = [a + hw]
    for q in _GK_NODES:
        d = hw * q  # the node lies q half-widths inside the nearer end
        out += (a + d, b - d)
    return out


def _gk_sums(g, hw: float) -> tuple:
    """(K15, |K15 - G7|, largest value) of a panel of half-width ``hw`` from
    its 15 values ``g``, in :func:`_gk_points` order."""
    k = math.fsum(w * v for w, v in zip(_GK_PAIR_WEIGHTS, g))
    g7 = math.fsum(w * v for w, v in zip(_G7_PAIR_WEIGHTS, g))
    return hw * k, hw * abs(k - g7), max(g)


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

    # First pass: a Gauss-Kronrod panel on each segment, or tanh-sinh level 0
    # at a singular end; the values stay in log space until the shared scale
    # is known.
    first = []
    ref = LOG_ZERO
    for a, b in zip(pts[:-1], pts[1:]):
        de = a in ends or b in ends
        xs, ws = zip(*_de_points(a, b, 0)) if de else (_gk_points(a, b), None)
        fs = [f_log(x) for x in xs]
        first.append((a, b, de, ws, fs))
        m = max(fs)
        if m > ref:
            ref = m
    if ref == LOG_ZERO:
        return LOG_ZERO

    def f(t):
        v = f_log(t)
        return 0.0 if v == LOG_ZERO else math.exp(v - ref)

    # each segment's first estimate, and for a panel its error estimate and
    # largest value
    seg_est = []
    total0 = 0.0
    for a, b, de, ws, fs in first:
        g = [0.0 if v == LOG_ZERO else math.exp(v - ref) for v in fs]
        if de:
            seg_est.append((math.fsum(w * v for w, v in zip(ws, g)), None))
        else:
            seg_est.append(_gk_sums(g, 0.5 * (b - a)))
        total0 += seg_est[-1][0]

    if total0 <= 0.0:
        return LOG_ZERO

    budget_total = quad.rel_tol * total0
    floor_share = 1.0 / (8.0 * len(first))
    # Exhaustion floor: a panel whose whole possible contribution is below
    # this is accepted outright.  At a jump, or at a singular derivative that
    # no ``singular`` point flags, the panel error only halves per bisection
    # level, as the budget does, so refinement alone would never end.
    floor_abs = budget_total / 64.0
    acc = NeumaierSum()
    err_acc = NeumaierSum()
    failed = False

    for (a, b, de, _ws, _fs), est in zip(first, seg_est):
        budget = budget_total * max(est[0] / total0, floor_share)
        if de:
            s, err, ok = _tanh_sinh(f, a, b, est[0], budget, quad)
            acc.add(s)
            err_acc.add(err)
            failed = failed or not ok
            continue

        # Iterative bisection over (a, b, (K15, |K15 - G7|, max value), budget, depth).
        stack = [(a, b, est, budget, 0)]
        while stack:
            a0, b0, (k, err, top), bud, depth = stack.pop()
            cap = (b0 - a0) * top
            if err <= bud or err <= quad.abs_floor:
                acc.add(k)
                err_acc.add(err)
            elif cap <= floor_abs:
                acc.add(k)
                err_acc.add(cap)
            elif depth >= quad.max_depth:
                acc.add(k)
                err_acc.add(err)
                failed = True
            else:
                m0 = 0.5 * (a0 + b0)
                for p, q in ((a0, m0), (m0, b0)):
                    g = [f(x) for x in _gk_points(p, q)]
                    stack.append((p, q, _gk_sums(g, 0.5 * (q - p)), 0.5 * bud, depth + 1))

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
