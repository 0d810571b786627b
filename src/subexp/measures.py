"""Distributions as weighted mixtures of a closed set of component kinds.

Components: the normalized dip density (``PhiAC``), uniform densities,
shifted-Pareto densities, kernel-smoothed measures, atom series at scaled
locations, point masses, and exponential-tilt wrappers.  Every component
integrates to 1 on its own; mixtures carry the weights.

All masses, tails, and moments are computed and returned in natural-log
space.  A window mass takes either a width c, for (x, x+c], or a
piecewise-polynomial :class:`Weight` w, for ``int w(t) (x + dt)``.  Each
query takes an extra keyword exponent ``gamma`` so that tilted wrappers can
delegate ``int e^{gamma u} (du)`` to their base components; the plain
(untilted) quantities are the ``gamma = 0`` case.  Every query is in closed
form and takes no quadrature spec: the one adaptive integral here is the
oracle :func:`phi_integral_log`, and outer integrals live in ``convolve``.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from functools import lru_cache, partial

import numpy as np

from .errors import DivergentMomentError, ParameterError
from .logsum import LOG_ZERO, log_add, log_sum
from .quadrature import QuadratureSpec, integrate_log
from .scaledcore import (
    ModelParams,
    PeriodicProfile,
    PointPhase,
    ScaledSum,
    _range_fix,
    as_point,
    dip_distance_eval,
    phi_window_log_eval,
)

_END_SNAP = 2.0 ** -40
# A dip segment at least one width from its centre, on one side of it, takes
# a Gauss-Legendre rule: with the nearest singularity of the density (the
# centre, or the pole of -1/log|s| at |s| = 1) r half-widths from the
# segment's midpoint, the n-node rule's error falls like rho^-2n with
# rho = r + sqrt(r^2 - 1), and n is the least that takes it to 2^-56: 12
# nodes one width from the centre, 5 at sixteen.  A segment nearer its
# centre, within two widths at its far end so that the one-sided difference
# cancels at most one bit, takes the exponential-integral antiderivative
# when that end lies within r0 = 2^-8 min(x0, 2) of the centre in mantissa
# units, where ``L = -log|s|`` is at least 7 log 2; a segment that reaches
# further is cut at 2^k times that reach into pieces of these two kinds.  On
# segments one width from the centre, (1, 2] and (1/2, 1] at 4^4 and 4^8, the
# rule took 4-5 us against the series' 7-11 us (2-core Xeon, CPython 3.11).
_DIP_GAUSS_MIN_RATIO = 3.0
_DIP_SERIES_REACH = 2.0 ** -8
# The antiderivative's series takes, per power j of its weight, a
# Gauss-Laguerre rule whose size comes from ``z = (j+1) L`` alone: the
# ``_LAGUERRE_NODES[k]``-node rule, k the number of bounds of ``_LAGUERRE_Z``
# at or below z (z >= 7 log 2 by the reach).  The integrand's nearest
# singularity is the pole at ``-z``, so each rule's error falls as z grows;
# from its bound up it is within 2^-53 of ``int e^-t / (t + z) dt`` (bounds
# bisected against mpmath), and within 1e-15 under the binomial factor of
# the end's own ``q = s/x0``, ``|q| = e^-L / x0``.
_LAGUERRE_Z = (6.8, 9.3, 12.6, 19.7, 31.0, 61.0, 105.0, 218.0, 840.0, 15500.0)
_LAGUERRE_NODES = (26, 20, 16, 13, 10, 8, 6, 5, 4, 3, 2)
# Pareto and uniform weighted masses take Gauss-Legendre rules sized by
# ``_tilted_gauss_nodes``; a span that would need more nodes is halved.
_TILT_MAX_NODES = 24
# Under a tilt e^(gamma u) the exponential-integral series reaches at most
# this over |gamma| from its centre, and takes the tilt's Taylor polynomial in
# the offset d as a factor of the weight: its piece is at most 1/(8 |gamma|)
# wide, and the polynomial's terms shrink by 2^-4 per power or faster.
_TILT_SERIES_REACH = 1.0 / 16.0
# A tilted tail is first the window of this many e-folds of its tilt.
_TILT_TAIL_FOLDS = 44.0
_LOG_2_56 = 56.0 * math.log(2.0)
# A round of window nodes this large or larger walks as arrays
# (PhiAC._round_masses), a smaller one node by node.  The array walk's numpy
# calls cost a fixed time a round: on the rounds of one pass of the reports
# (2-core Xeon, numpy 2.4, CPython 3.11) it took 0.33 ms plus 0.7-0.8 us a
# node on unit windows and 0.6 ms plus 2.6-3.0 us a node on weighted ones,
# against a median of 3.8 and 44 us a node node by node.  The benchmark's
# traffic (seeds 1 and 9): a reports pass sends all 64 of its rounds
# (22,251 nodes) through arrays; mixtures runs no outer integral, so no
# round (its uniform pairs are weighted masses; when they were outer
# integrals, its 148 rounds of 41 nodes or fewer took 75-77 ms through
# arrays against 51-53 ms node by node); far-windows runs 14,129 single
# windows and no round.
_GAUSS_BATCH_MIN = 48


def _as_width(w) -> float:
    """A window width, checked positive."""
    c = float(w)
    if not (c > 0.0):
        raise ParameterError(f"window width must be positive, got {c}")
    return c


def _poly_value(coeffs: tuple, tau: float) -> float:
    """sum_j coeffs[j] tau^j by Horner's rule."""
    v = 0.0
    for a in reversed(coeffs):
        v = v * tau + a
    return v


def _poly_shift(coeffs: tuple, h: float) -> tuple:
    """The coefficients of ``tau -> p(tau + h)`` (Taylor shift by repeated
    synthetic division); a constant stays exact."""
    c = list(coeffs)
    for i in range(len(c) - 1):
        for j in range(len(c) - 2, i - 1, -1):
            c[j] += h * c[j + 1]
    return tuple(c)


def _nearer_end(piece: tuple, z: float) -> tuple:
    """``(origin, coeffs)`` of a weight piece ``(lo, hi, coeffs, upper)``: its
    polynomial in offsets from the end nearer z."""
    lo, hi, coeffs, upper = piece
    return (lo, coeffs) if z - lo <= hi - z else (hi, upper)


def _poly_integral(coeffs: tuple) -> tuple:
    """The antiderivative of p vanishing at 0."""
    return (0.0, *(a / (j + 1) for j, a in enumerate(coeffs)))


@dataclass(frozen=True)
class Weight:
    """A piecewise-polynomial weight ``w(t) >= 0`` in offsets t from a point.

    ``pieces`` are contiguous ``(t_lo, t_hi, coeffs, upper)``: on ``(t_lo,
    t_hi]`` the weight is ``sum_j coeffs[j] (t - t_lo)^j``, or equally ``sum_j
    upper[j] (t - t_hi)^j``, and zero outside them.  A piece given as ``(t_lo,
    t_hi, coeffs)`` takes ``upper`` by a Taylor shift.  Values are taken from
    the end nearer the point, so a weight that vanishes at a piece end keeps
    its digits next to it.  ``log_window_mass(x, w, ...)`` of any measure
    takes a weight in place of a width and returns ``log int w(t) (x +
    dt)``; the window ``(x, x+c]`` is the one-piece constant case
    :meth:`window`, and passes as its width.

    A smoothing of the measure is a weight too: a kernel, or a kernel factor
    of a convolution, turns w into :meth:`smoothed`, and a uniform factor
    into :meth:`averaged`, each one weight against the unsmoothed measure
    whose pieces keep no top coefficient that is zero at both ends.
    """

    pieces: tuple
    # c for the window (0, c]; None for any other weight
    width: float | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.pieces or any(not (p[1] > p[0]) for p in self.pieces) or any(
                a[1] != b[0] for a, b in zip(self.pieces[:-1], self.pieces[1:])):
            raise ParameterError("weight pieces must be nonempty, ordered and contiguous")
        object.__setattr__(self, "pieces", tuple(
            p if len(p) == 4 else (*p, _poly_shift(p[2], p[1] - p[0])) for p in self.pieces))
        lo, hi, coeffs, _upper = self.pieces[0]
        window = len(self.pieces) == 1 and lo == 0.0 and coeffs == (1.0,)
        object.__setattr__(self, "width", hi if window else None)

    @classmethod
    def window(cls, c: float) -> "Weight":
        return cls(((0.0, _as_width(c), (1.0,)),))

    @property
    def lo(self) -> float:
        return self.pieces[0][0]

    @property
    def hi(self) -> float:
        return self.pieces[-1][1]

    @property
    def knots(self) -> tuple:
        return (self.lo, *(p[1] for p in self.pieces))

    def mass(self) -> float:
        """``int w``."""
        return math.fsum(_poly_value(_poly_integral(c), hi - lo) for lo, hi, c, _u in self.pieces)

    def value(self, t: float) -> float:
        for piece in self.pieces:
            if piece[0] < t <= piece[1]:
                origin, coeffs = _nearer_end(piece, t)
                return _poly_value(coeffs, t - origin)
        return 0.0

    def shift(self, s: float, above: float = -math.inf):
        """``t -> w(t - s)`` restricted to ``t > above``; None where nothing is left."""
        pieces = []
        for lo, hi, coeffs, upper in self.pieces:
            lo, hi = lo + s, hi + s
            if hi <= above:
                continue
            if lo < above:
                origin, coeffs = _nearer_end((lo, hi, coeffs, upper), above)
                lo, coeffs = above, _poly_shift(coeffs, above - origin)
            pieces.append((lo, hi, coeffs, upper))
        return Weight(tuple(pieces)) if pieces else None

    def smoothed(self, kernel: "PiecewiseLinearDensity") -> "Weight":
        """``t -> int w(t + u) kernel(u) du``: the weight of ``int kernel(u)
        M((x - u) + dt) w(t) du`` as one weight against ``M(x + dt)``.

        The kernel, vanishing at its ends, is ``sum_i beta_i (u - k_i)_+``
        with ``beta_i`` its slope change at knot ``k_i``, so the result is
        ``sum_i beta_i R(t + k_i)`` with ``R(z) = int_z^inf (r - z) w(r) dr``,
        a polynomial of two degrees more on each piece of ``w``.
        """
        ks = kernel.knots
        slopes = [0.0, *_kernel_slopes(kernel), 0.0]
        betas = [b - a for a, b in zip(slopes[:-1], slopes[1:])]
        # R on each piece of w, right to left, as (lo, hi, coeffs in z - lo,
        # coeffs in z - hi): R(hi + s) = R(hi) - s int_hi^inf w + int int w
        r_pieces, mass, r_hi = [], 0.0, 0.0
        for lo, hi, coeffs, upper in reversed(self.pieces):
            h = hi - lo
            i1 = _poly_integral(coeffs)
            i2 = _poly_integral(i1)
            tail = mass + _poly_value(i1, h)  # int_lo^inf w
            r_lo = r_hi + tail * h - _poly_value(i2, h)
            r_pieces.append((lo, hi, (r_lo, -tail, *i2[2:]),
                             (r_hi, -mass, *_poly_integral(_poly_integral(upper))[2:])))
            mass, r_hi = tail, r_lo
        r_pieces.append((-math.inf, self.lo, None, (r_hi, -mass)))  # linear below the support
        return self._shifted_sum(r_pieces, ks, betas)

    def averaged(self, left: float, width: float) -> "Weight":
        """``t -> (1/h) int_l^{l+h} w(t + u) du`` for ``l = left``, ``h =
        width``: the weight of ``int w(t) (A*U)(x + dt)``, U uniform on (l,
        l+h], as one weight against ``A(x + dt)``.

        It is ``(T(t + l) - T(t + l + h)) / h`` with ``T(z) = int_z^inf w``,
        a polynomial of one degree more on each piece of ``w``, and has the
        same mass as ``w``.
        """
        # T on each piece of w, right to left, as in smoothed
        t_pieces, mass = [], 0.0
        for lo, hi, coeffs, upper in reversed(self.pieces):
            i1 = _poly_integral(coeffs)
            tail = mass + _poly_value(i1, hi - lo)
            t_pieces.append((lo, hi, (tail, *[-a for a in i1[1:]]),
                             (mass, *[-a for a in _poly_integral(upper)[1:]])))
            mass = tail
        t_pieces.append((-math.inf, self.lo, None, (mass,)))  # constant below the support
        return self._shifted_sum(t_pieces, (left, left + width), (1.0 / width, -1.0 / width))

    def _shifted_sum(self, f_pieces: list, ks, betas) -> "Weight":
        """``t -> sum_i betas[i] F(t + ks[i])``, ks ascending, for F given on
        ``f_pieces`` as ``(lo, hi, coeffs in z - lo, coeffs in z - hi)`` from
        the right, zero above w's support: a weight on ``(w.lo - ks[-1], w.hi
        - ks[0]]`` with knots at w's knots less each k, where the sum
        vanishes outside that span, and no top coefficient zero at both ends."""
        lo, hi = self.lo - ks[-1], self.hi - ks[0]
        knots = sorted({t for t in (a - k for a in self.knots for k in ks) if lo <= t <= hi})
        n_coeffs = max(len(p[3]) for p in f_pieces)
        pieces = []
        for t0, t1 in zip(knots[:-1], knots[1:]):
            ends = ([0.0] * n_coeffs, [0.0] * n_coeffs)  # in offsets from t0 and from t1
            for k, beta in zip(ks, betas):
                z_mid = 0.5 * (t0 + t1) + k
                piece = next((p for p in f_pieces if p[0] < z_mid <= p[1]), None)
                if piece is None or beta == 0.0:
                    continue
                for acc, z in zip(ends, (t0 + k, t1 + k)):
                    origin, coeffs = _nearer_end(piece, z)
                    for j, a in enumerate(_poly_shift(coeffs, z - origin)):
                        acc[j] += beta * a
            while len(ends[0]) > 1 and ends[0][-1] == ends[1][-1] == 0.0:
                del ends[0][-1], ends[1][-1]
            pieces.append((t0, t1, *map(tuple, ends)))
        return Weight(tuple(pieces))


def _kernel_slopes(kernel: "PiecewiseLinearDensity") -> list:
    """The slope of each linear piece of a kernel that vanishes at its
    support ends; any other kernel raises."""
    ks, vs = kernel.knots, kernel.values
    if vs[0] != 0.0 or vs[-1] != 0.0:
        raise ParameterError("smoothing needs a kernel that vanishes at its support ends")
    return [(v1 - v0) / (k1 - k0) for k0, k1, v0, v1 in zip(ks[:-1], ks[1:], vs[:-1], vs[1:])]


def as_weight(w) -> Weight:
    """A :class:`Weight` as given; a width as its window."""
    return w if isinstance(w, Weight) else Weight.window(w)


# ---------------------------------------------------------------------------
# normalizer of the dip density
# ---------------------------------------------------------------------------

def phi_integral_log(profile: PeriodicProfile, lo: float, hi: float,
                     quad: QuadratureSpec) -> float:
    """log of the integral of the raw dip density over a finite [lo, hi]."""
    zero = ScaledSum.zero(profile.params.b)
    hints, centres = PhiAC(profile, 0.0).density_cuts(zero, lo, hi)
    return integrate_log(phi_window_log_eval(profile, zero), lo, hi, quad, hints=hints,
                         singular=centres)


def _scales(params: ModelParams, ph: PointPhase, lo: float, hi: float, bm):
    """Scales m >= 0 whose cell [b^m, b^(m+1)) may hold structure at the
    offsets [lo, hi] from the point of ``ph`` (each dip ring lies inside its
    cell, and none below the support edge 1).  None stands for the head cell
    alone, where the span stays short of the rings of both cells next to a
    point ``b^M y1 + R``, counting R, which may move the point towards
    either; ``bm`` is ``b^M`` (inf beyond float range), None for a point
    without a head cell of the profile.  Any other span takes the cells
    between the logs of its ends, clamped at 0, with a margin of 1e-9 in
    ``log_b`` for their rounding."""
    b, x0, delta = params.b, params.x0, params.delta
    if bm is not None:
        r = ph.info.rem or 0.0  # b^M is beyond float range where the remainder is
        if hi + r < (x0 - delta - 1.0) * bm * b and -(lo + r) < (b - x0 - delta) * bm / b:
            return None
    hi_log = ph.log_point(hi)
    if not hi_log >= 0.0:
        return ()
    log_b = params.log_b
    m_lo = math.floor(max(ph.log_point(lo), 0.0) / log_b - 1e-9)
    return range(max(m_lo, 0), math.floor(hi_log / log_b + 1e-9) + 1)


def _offsets_in_units(ys, y1: float, R, b1: float, b2: float, units) -> list:
    """``b^M y - x`` for each mantissa y in units of ``b^M``, taken as two
    normal factors ``b1 b2``, at a point ``x = b^M y1 + R``: ``(y - y1) b^M
    - R``, or with R beyond float range (None), the ``math.fsum`` of ``y -
    y1`` less the remainder's ``units`` (:meth:`PointPhase.rem_units`)."""
    if units is None:
        return [((y - y1) * b1 * b2 if y != y1 else 0.0) - R for y in ys]
    return [d * b1 * b2 if d else 0.0 for d in (-math.fsum([-y, y1, *units]) for y in ys)]


def normalizer_M(params: ModelParams, profile: PeriodicProfile | None = None) -> float:
    """Total integral of the raw dip density over [1, inf).

    The raw density is log-periodic, ``phi(b u) = b^(-alpha-1) phi(u)``, so
    the cell [b^m, b^(m+1)] holds ``b^(-alpha m) I1`` with ``I1`` the mass of
    [1, b], and the cells sum to ``I1 / (1 - b^-alpha)`` exactly.  ``I1`` is
    the closed-form window (1, b] of the raw density (a :class:`PhiAC` with
    unit normalizer).
    """
    profile = profile or PeriodicProfile(params)
    raw = PhiAC(profile=profile, m_log=0.0)
    log_i1 = raw.log_window_mass(ScaledSum.from_float(1.0, params.b), params.b - 1.0)
    return math.exp(log_i1) / -math.expm1(-params.alpha * params.log_b)


@lru_cache(maxsize=None)
def _gauss_legendre(n: int) -> tuple:
    """The n-node Gauss-Legendre rule on [-1, 1] as (node, weight) pairs:
    Newton's method on the Legendre polynomial P_n from the usual
    cos(pi (i - 1/4) / (n + 1/2)) guesses."""
    rule = []
    for i in range(1, n + 1):
        x = math.cos(math.pi * (i - 0.25) / (n + 0.5))
        for _ in range(100):
            p0, p1 = 1.0, x  # P_(k-1), P_k by the three-term recurrence
            for k in range(2, n + 1):
                p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
            dp = n * (p0 - x * p1) / (1.0 - x * x)
            step = p1 / dp
            x -= step
            if abs(step) <= 1e-16:
                break
        rule.append((x, 2.0 / ((1.0 - x * x) * dp * dp)))
    return tuple(rule)


@lru_cache(maxsize=None)
def _gauss_laguerre(n: int) -> tuple:
    """The n-node Gauss-Laguerre rule on [0, inf) for the weight e^-t as
    (node, weight) pairs: Newton's method on the Laguerre polynomial L_n
    from the guesses of Numerical Recipes' ``gaulag``, in floats until a
    step is below 2^-40 of the node, then in fixed point at 2^-200, so that
    each node and weight ``1 / (t L_n'(t)^2)`` rounds once."""
    one = 1 << 200
    rule = []
    for i in range(n):
        if i == 0:
            t = 3.0 / (1.0 + 2.4 * n)
        elif i == 1:
            t = rule[0][0] + 15.0 / (1.0 + 2.5 * n)
        else:
            t = rule[-1][0] + (1.0 + 2.55 * (i - 1)) / (1.9 * (i - 1)) * (rule[-1][0] - rule[-2][0])
        for _ in range(100):
            p0, p1 = 1.0, 1.0 - t
            for k in range(2, n + 1):
                p0, p1 = p1, ((2 * k - 1 - t) * p1 - (k - 1) * p0) / k
            step = p1 * t / (n * (p1 - p0))
            t -= step
            if abs(step) <= 2.0 ** -40 * t:
                break
        x = int(t * one)
        for _ in range(100):
            p0, p1 = one, one - x  # L_(k-1), L_k by the three-term recurrence
            for k in range(2, n + 1):
                p0, p1 = p1, (((2 * k - 1) * one - x) * p1 // one - (k - 1) * p0) // k
            dp = n * (p1 - p0) * one // x  # L_n' = n (L_n - L_(n-1)) / t
            step = p1 * one // dp
            x -= step
            if abs(step) <= x >> 100:
                break
        rule.append((x / one, one ** 3 / (x * dp * dp)))
    return tuple(rule)


@lru_cache(maxsize=None)
def _laguerre_decays(n: int, j: int) -> tuple:
    """The n-node Gauss-Laguerre rule as (node t, weight, ``e^(-t/(j+1))``)
    triples, the factor :meth:`PhiAC._dip_series` takes for the power j."""
    c = -1.0 / (j + 1)
    return tuple((t, wt, math.exp(c * t)) for t, wt in _gauss_laguerre(n))


def _gauss_nodes(ratio: float) -> int:
    """Nodes of the Gauss-Legendre rule that takes an integrand analytic out
    to ``ratio`` half-widths from the segment's midpoint to 2^-56: its error
    falls like ``rho^-2n``, ``rho = ratio + sqrt(ratio^2 - 1)``.  A polynomial
    weight of degree d needs ``ceil(d/2)`` more."""
    rho = ratio + math.sqrt(ratio * ratio - 1.0)
    return max(1, math.ceil(28.0 * math.log(2.0) / math.log(rho)))


def _tilted_gauss_nodes(ratio: float, gh: float, a1: float):
    """Nodes of the Gauss-Legendre rule that takes ``f(z) = (1 + z/ratio)^-a1
    e^(gh z)`` on [-1, 1] to 2^-56 of its integral; None where that takes
    more than ``_TILT_MAX_NODES``.

    On the Bernstein ellipse ``rho = e^eta`` inside the pole at ``z =
    -ratio`` (``cosh eta < ratio``), ``|f| <= M = (1 - cosh eta / ratio)^-a1
    e^(|gh| cosh eta)``, and the n-node rule errs by at most ``64 M / (15
    (1 - rho^-2) rho^2n)`` (Trefethen, SIAM Rev. 50, 2008, Thm 4.5, whose
    rule has n + 1 nodes); the integral is at least ``2 (1 + 1/ratio)^-a1
    e^-|gh|``.  The least n over the ellipses ``eta = j/8`` of the pole's,
    j = 1..7, is taken.
    """
    eta_pole = math.acosh(ratio)
    g = abs(gh)
    fixed = 56.0 * math.log(2.0) + math.log(32.0 / 15.0) + g + a1 * math.log1p(1.0 / ratio)
    best = math.inf
    for j in range(1, 8):
        eta = eta_pole * (j / 8.0)
        ch = math.cosh(eta)
        n = (fixed - a1 * math.log1p(-ch / ratio) + g * ch
             - math.log(-math.expm1(-2.0 * eta))) / (2.0 * eta)
        if n >= best:  # past the best ellipse: the pole's growth takes over
            break
        best = n
    n = max(1, math.ceil(best))
    return n if n <= _TILT_MAX_NODES else None


def _log_tilted_power(a1: float, gamma: float, v: float, e: float, h: float,
                      poly=None) -> float:
    """log of ``int_-h^h (v + r)^-a1 e^(gamma (e + r)) p(r) dr`` for ``v > h >
    0``: a power law tilted by an exponential, under ``p(r) = sum_j
    coeffs[j] (tau + r)^j`` for ``poly = (tau, coeffs)``, or 1 for None.

    A Gauss-Legendre rule on the integrand factored at the midpoint, ``v^-a1
    e^(gamma e) (1 + z/ratio)^-a1 e^(gamma h z)`` with ``ratio = v/h``, of
    :func:`_tilted_gauss_nodes` nodes (``ceil(deg/2)`` more under p).  A span
    too wide for a bounded rule is halved.  Without p the integrand is
    log-convex, so a half holds at most its width times its larger end
    value: the half with the larger outer end goes first, and the other is
    dropped where that bound is below 2^-56 of it.
    """
    n = _tilted_gauss_nodes(v / h, gamma * h, a1)
    if n is None:
        g = 0.5 * h
        if poly is not None:
            tau, coeffs = poly
            return log_add(_log_tilted_power(a1, gamma, v - g, e - g, g, (tau - g, coeffs)),
                           _log_tilted_power(a1, gamma, v + g, e + g, g, (tau + g, coeffs)))

        def log_f(r):  # the integrand's log at v + r
            return gamma * (e + r) - a1 * math.log(v + r)

        if log_f(h) >= log_f(-h):
            first, other, ends = g, -g, (-h, 0.0)
        else:
            first, other, ends = -g, g, (0.0, h)
        big = _log_tilted_power(a1, gamma, v + first, e + first, g)
        bound = math.log(h) + max(log_f(r) for r in ends)
        if bound < big - _LOG_2_56:
            return big
        return log_add(big, _log_tilted_power(a1, gamma, v + other, e + other, g))
    r = h / v
    gh = gamma * h
    total = 0.0
    if poly is None:
        for z, wt in _gauss_legendre(n):
            total += wt * (1.0 + r * z) ** -a1 * math.exp(gh * z)
    else:
        tau, coeffs = poly
        for z, wt in _gauss_legendre(n + len(coeffs) // 2):
            total += (wt * _poly_value(coeffs, tau + h * z)
                      * (1.0 + r * z) ** -a1 * math.exp(gh * z))
    if total <= 0.0:
        return LOG_ZERO
    return gamma * e - a1 * math.log(v) + math.log(h) + math.log(total)


def _log_power_bracket(a: float, log_r: float) -> float:
    """log of ``(1 - (1+r)^-a) / a = int_0^r (1+v)^(-a-1) dv`` from log r:
    the mass of a power-law window (X, X(1+r)] over ``X^-a``.  Once r
    underflows, it is log r."""
    if log_r > -700.0:
        return math.log(-math.expm1(-a * math.log1p(math.exp(log_r)))) - math.log(a)
    return log_r


def _exp_taylor(gamma: float, reach: float) -> tuple:
    """The Taylor coefficients of ``e^(gamma d)`` in d, up to the last power
    whose term exceeds 2^-56 somewhere in ``|d| <= reach``."""
    coeffs, term, j = [1.0], 1.0, 0
    while True:
        j += 1
        term *= gamma / j
        if abs(term) * reach ** j <= 2.0 ** -56:
            return tuple(coeffs)
        coeffs.append(term)


def _poly_mul(p: tuple, q: tuple) -> tuple:
    """The coefficients of the product of two polynomials."""
    out = [0.0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, c in enumerate(q):
            out[i + j] += a * c
    return tuple(out)


def _log_power_pieces(pieces, xv: float, lo: float, hi: float, a1: float, gamma: float):
    """log of ``int w(t) (1 + u)^-a1 e^(gamma u) dt``, ``u = xv + t`` in the
    support [lo, hi], by :func:`_log_tilted_power` on each weight piece
    clipped to it, with its width and polynomial in offsets.  For ``a1 = 0``
    the pole is 2^40 half-widths out.  Nothing beyond float range."""
    if not math.isfinite(xv):
        return LOG_ZERO
    terms = []
    for piece in pieces:
        t1, t2 = max(piece[0], lo - xv), min(piece[1], hi - xv)
        h, tm = 0.5 * (t2 - t1), 0.5 * (t1 + t2)
        if h > 0.0:
            mid = xv + tm
            origin, coeffs = _nearer_end(piece, tm)
            terms.append(_log_tilted_power(a1, gamma, 1.0 + mid if a1 else 2.0 ** 40 * h,
                                           mid, h, (tm - origin, coeffs)))
    return log_sum(terms)


# ---------------------------------------------------------------------------
# the round walk: a round of window nodes as arrays
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _rule_arrays(n: int) -> tuple:
    """The n-node :func:`_gauss_legendre` rule as read-only arrays of nodes
    and weights."""
    z, w = (np.array(v) for v in zip(*_gauss_legendre(n)))
    z.flags.writeable = w.flags.writeable = False
    return z, w


def _gauss_nodes_many(ratio: np.ndarray) -> np.ndarray:
    """:func:`_gauss_nodes` of each ratio."""
    ratio = np.minimum(ratio, 1e150)  # a huge ratio takes one node, as in the scalar form
    rho = ratio + np.sqrt(ratio * ratio - 1.0)
    return np.maximum(1, np.ceil(28.0 * math.log(2.0) / np.log(rho))).astype(int)


def _weight_ends(shape) -> list:
    """The polynomials of a weight's pieces from each end, as ``(origin,
    coeffs)`` (see :func:`_nearer_end`): the lower end's of piece j is row 2j
    and the upper end's row 2j + 1."""
    return [end for lo, hi, coeffs, upper in shape.pieces for end in ((lo, coeffs), (hi, upper))]


def _weight_polys(shape) -> tuple:
    """The rows of :func:`_weight_ends` as ``(origins, coefficients padded
    with zeros, extra Gauss nodes ceil(deg/2))``; None for the window
    itself."""
    if shape is None:
        return None
    polys = _weight_ends(shape)
    k = max(len(c) for _o, c in polys)
    return (np.array([o for o, _c in polys]),
            np.array([c + (0.0,) * (k - len(c)) for _o, c in polys]),
            np.array([len(c) // 2 for _o, c in polys]))


def _horner(c: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Each row's polynomial of ``c`` at that row of ``x``."""
    p = c[:, -1:]
    for j in range(c.shape[1] - 2, -1, -1):
        p = p * x + c[:, j:j + 1]
    return p


def _gauss_sums(n: np.ndarray, cols: tuple, f) -> np.ndarray:
    """Each row's sum over the Gauss-Legendre rule of ``n[i]`` nodes, one numpy
    pass per rule size: ``f(z, *cols)`` is the integrand at the nodes ``z``
    (a row) of the rows of ``cols`` (columns, or a matrix of them)."""
    order = np.argsort(n, kind="stable")
    n = n[order]
    cols = [c[order] if c.ndim == 2 else c[order, None] for c in cols]
    cuts = [0, *(np.flatnonzero(n[1:] != n[:-1]) + 1).tolist(), len(n)]
    total = np.empty(len(n))
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        if hi > lo:
            z, wt = _rule_arrays(int(n[lo]))
            total[order[lo:hi]] = f(z, *(c[lo:hi] for c in cols)) @ wt
    return total


def _row_logs(lead: np.ndarray, total: np.ndarray) -> np.ndarray:
    """``lead + log(total)``, or log zero where the total is not positive."""
    out = np.full(len(total), LOG_ZERO)
    pos = total > 0.0
    out[pos] = lead[pos] + np.log(total[pos])
    return out


def _segments(lo: np.ndarray, hi: np.ndarray, group: np.ndarray, cuts: np.ndarray) -> tuple:
    """The segments from ``lo[g]`` to ``hi[g]`` of each group g, cut at the
    ``cuts`` of that group (``lo[g] < cut < hi[g]``), as ``(group, a, b)``;
    a cut repeated makes a segment of zero width."""
    n = len(lo)
    g = np.concatenate((np.arange(n), np.arange(n), group))
    v = np.concatenate((lo, hi, cuts))
    order = np.lexsort((v, g))
    g, v = g[order], v[order]
    same = g[1:] == g[:-1]
    return g[:-1][same], v[:-1][same], v[1:][same]


def _log_points(ph: PointPhase, t: np.ndarray) -> np.ndarray:
    """:meth:`PointPhase.log_point` of each offset t."""
    info = ph.info
    if info is not None and info.rem is None:  # the remainder absorbs every offset
        return np.full(t.shape, ph.log_point(0.0))
    if info is None or ph.head is not None:
        u = ph.value + t if info is None else ph.head + (info.rem + t)
        return np.log(u, out=np.full(u.shape, LOG_ZERO), where=u > 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        v = info.rem + t
        e = np.log(np.abs(v)) - ph.head_log
        rel = np.copysign(np.exp(e), v)
        out = np.where(rel > -1.0, ph.head_log + np.log1p(rel), LOG_ZERO)
        return np.where((v == 0.0) | (e < -745.0), ph.head_log, out)


def _range_fixed(y: np.ndarray, b: float) -> np.ndarray:
    """Each mantissa into [1, b), by the divisions of ``_range_fix``."""
    while True:
        up, down = y >= b, y < 1.0
        if not (up.any() or down.any()):
            return y
        y = np.where(up, y / b, np.where(down, y * b, y))


def _dip_logs(ph: PointPhase, x0: float, t: np.ndarray) -> tuple:
    """:func:`~subexp.scaledcore.dip_distance_eval` at each offset t, as
    arrays ``(log x, log|y - x0|)``, for a positive-headed point whose
    remainder is a float: the same two-sum errors, ``b^-M`` as two factors
    where it is below the normal floats, the exact anchor in the head cell
    and the range fix elsewhere, each an array operation in the scalar
    order."""
    info = ph.info
    b = ph.base.b
    M, y1, R = info.scale, info.mantissa, info.rem
    Mlnb = M * math.log(b)
    dy = y1 - x0
    binv1, binv2 = (b ** -M, 1.0) if Mlnb < 708.0 else (b ** -(M // 2), b ** -(M - M // 2))
    v = R + t
    w = v - R
    rel = v * binv1 * binv2
    rel_lo = ((R - (v - w)) + (t - w)) * binv1 * binv2  # (R + t - v) b^-M
    ys = y1 + rel
    xlog, dlog = np.full((2, len(t)), LOG_ZERO)
    head = (ys > 1.0) & (ys < b)  # the head cell, its lower end aside
    xlog[head] = Mlnb + np.log(ys[head])
    if dy == 0.0:  # an exact anchor, at any scale
        dlog[head] = np.log(np.abs(v[head])) - Mlnb
    else:
        dlog[head] = np.log(np.abs((dy + rel[head]) + rel_lo[head]))
    off = ~head & (ys > 0.0)
    ys, rel, rel_lo = ys[off], rel[off], rel_lo[off]
    w = ys - y1
    y_lo = ((y1 - (ys - w)) + (rel - w)) + rel_lo  # y1 + (R + t) b^-M - ys
    xlog[off] = Mlnb + (np.log(ys) + y_lo / ys)
    y = _range_fixed(ys, b)
    dlog[off] = np.log(np.abs((y - x0) + y_lo * (y / ys)))
    return xlog, dlog


def _log_sums(n: int, node: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """Each of n nodes' log of the sum of ``e^v`` over its values ``vals``
    (``node`` holds the owner of each), scaled by the node's largest; log
    zero for a node without a positive one.  A node of one value gets it
    back unchanged."""
    live = vals != LOG_ZERO
    node, vals = node[live], vals[live]
    top = np.full(n, LOG_ZERO)
    np.maximum.at(top, node, vals)
    total = np.bincount(node, np.exp(vals - top[node]), n)
    return top + np.log(total, out=np.full(n, LOG_ZERO), where=total > 0.0)


# ---------------------------------------------------------------------------
# components
# ---------------------------------------------------------------------------

class Component:
    """Shared primitive queries, in closed form and without a quadrature
    spec; a tilt ``gamma`` goes by keyword.  Every subclass integrates to one."""

    is_atomic = False

    def log_window_mass(self, x: ScaledSum, w, *, gamma: float = 0.0) -> float:
        """log of the mass of (x, x+c] for a width c, or of ``int w(t) (x +
        dt)`` for a :class:`Weight` w: ``_log_window_mass`` or
        ``_log_weighted_mass`` of the component."""
        if type(w) is Weight:
            c = w.width
            if c is None:
                return self._log_weighted_mass(x, w, gamma=gamma)
            w = c
        return self._log_window_mass(x, w, gamma=gamma)

    def log_window_mass_eval(self, base: ScaledSum, lo: float, hi: float, w, *, gamma: float = 0.0):
        """``t -> log_window_mass(base + t, w)`` for offsets t in [lo, hi]: the
        inner masses of an outer integral.  By default each node is a window
        at its own point; :class:`PhiAC` sets up the span once."""
        return lambda t: self.log_window_mass(base.add_offset(t), w, gamma=gamma)

    def log_weight_mass_eval(self, base: ScaledSum, lo: float, hi: float, *, gamma: float = 0.0):
        """``w -> log_window_mass(base, w)`` for weights w supported in [lo,
        hi]: the inner masses of an integral whose weight moves with its
        variable.  By default each is a window of its own at ``base + w.lo``,
        so a constant weight takes the closed form of a width;
        :class:`PhiAC` sets up the span once."""
        return lambda w: self.log_window_mass(base.add_offset(w.lo), w.shift(-w.lo), gamma=gamma)

    def _log_window_mass(self, x: ScaledSum, c: float, *, gamma: float = 0.0) -> float:
        raise NotImplementedError

    def _log_weighted_mass(self, x: ScaledSum, w: Weight, *, gamma: float = 0.0) -> float:
        """The weight summed over the atoms."""
        terms = []
        for loc, aw in self.atoms():
            loc = loc if isinstance(loc, ScaledSum) else ScaledSum.from_float(loc, x.b)
            v = x.sub(loc).value()  # the atom lies at offset -v
            wv = w.value(-v) if math.isfinite(v) else 0.0
            if aw > 0.0 and wv > 0.0:
                term = math.log(aw) + math.log(wv)
                terms.append(term + gamma * loc.value() if gamma else term)
        return log_sum(terms)

    def log_density(self, x: ScaledSum, *, gamma: float = 0.0) -> float:
        """log of the density at x: its evaluator at offset 0."""
        return self.log_density_eval(x, gamma=gamma)(0.0)

    def log_density_eval(self, base: ScaledSum, *, gamma: float = 0.0):
        raise ParameterError(f"{type(self).__name__} has no density")

    def log_tail(self, x: ScaledSum, *, gamma: float = 0.0) -> float:
        raise NotImplementedError

    def _log_tilted_tail(self, xv: float, b: float, gamma: float) -> float:
        """log of ``int_xv^inf e^(gamma u) (du)`` for gamma < 0, with xv at or
        above the support's lower end: the window of ``44/|gamma|`` from xv,
        then windows that double the span until the component's envelope
        (:meth:`_log_tail_envelope`) bounds the rest below 2^-56 of the sum."""
        span = _TILT_TAIL_FOLDS / -gamma
        total = self.log_window_mass(ScaledSum.from_float(xv, b), span, gamma=gamma)
        while self._log_tail_envelope(xv + span, gamma) > total - _LOG_2_56:
            total = log_add(total, self.log_window_mass(ScaledSum.from_float(xv + span, b),
                                                        span, gamma=gamma))
            span *= 2.0
        return total

    def _log_tail_envelope(self, x: float, gamma: float) -> float:
        """log of a bound on ``int_x^inf e^(gamma u) (du)`` for gamma < 0."""
        raise NotImplementedError

    def log_exp_moment(self, gamma: float) -> float:
        raise NotImplementedError

    def support_bounds(self):
        """(lo, hi) as floats; hi may be inf, lo may be -inf."""
        raise NotImplementedError

    def density_cuts(self, base: ScaledSum, lo: float, hi: float) -> tuple:
        """Structure of the measure at base + t for t in [lo, hi], as
        (hints, centres): the offsets in (lo, hi) where its density changes
        formula, and the offsets in [lo, hi] where the derivative of its
        density is unbounded, the ``singular`` points of its integrals.

        This is the one structure query on a measure: every integral over a
        density or over shifted windows takes its cuts from it, reflected
        where the integration variable enters as ``x - u``.  Atomic
        components report their atom offsets, where a window mass jumps.
        """
        return [], []


def _weight_shape(w) -> tuple:
    """A width or :class:`Weight` as ``(w0, c, shape)``: the weight's lower
    end, and its width and shape on (0, c] (None for the window itself)."""
    if type(w) is not Weight:
        return 0.0, w, None
    if w.width is not None:
        return 0.0, w.width, None
    shape = w.shift(-w.lo)
    if shape.width is not None:
        return w.lo, shape.width, None
    return w.lo, shape.hi, shape


def _offsets(base: ScaledSum, points, lo: float, hi: float) -> list:
    """The offsets ``p - base`` in (lo, hi) of absolute float points; none
    when ``base`` is beyond float range."""
    xv = base.value()
    if not math.isfinite(xv):
        return []
    return [t for t in (p - xv for p in points) if lo < t < hi]


def _log1p_point(x: ScaledSum, xv: float) -> float:
    """log(1 + x) for a point x >= 0 of value xv: beyond float range, x's
    own log."""
    return math.log1p(xv) if xv < math.inf else x.log_abs()


def _finite_value(x: ScaledSum, what: str) -> float:
    v = x.value()
    if not math.isfinite(v):
        raise ParameterError(f"{what} requires a float-representable point, got {x.describe()}")
    return v


@dataclass(frozen=True)
class PhiAC(Component):
    """The normalized dip density on [1, inf)."""

    profile: PeriodicProfile
    m_log: float  # log of the normalizer
    # logs the closed forms take on every segment
    _k_log: float = field(init=False, repr=False, compare=False)  # log(plateau / M)
    _log_x0: float = field(init=False, repr=False, compare=False)
    _log_b: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_k_log", math.log(self.profile.plateau) - self.m_log)
        object.__setattr__(self, "_log_x0", math.log(self.params.x0))
        object.__setattr__(self, "_log_b", self.params.log_b)

    @property
    def params(self) -> ModelParams:
        return self.profile.params

    def support_bounds(self):
        return (1.0, math.inf)

    def _window_cuts(self, ph: PointPhase, hi: float, lo: float = 0.0):
        """Structure of the offsets [lo, hi] from x, for the windows inside it.

        Returns (edges, rings): the support edge, the ring edges and the dip
        centres as one list, ascending by construction (the hints of a window
        are those strictly inside it); and the dip rings, ascending, as (lo,
        hi, t0, m): the ring's offset range, so that a segment between hints
        lies in a ring exactly when its midpoint does, and the offset t0 and
        scale m of its centre ``b^m x0``.

        Every offset ``b^m y - x`` of a point ``x = b^M y1 + R`` is ``(y
        b^(m-M) - y1) b^M - R`` (:func:`_offsets_in_units`), for every cell
        the span meets (:func:`_scales`), so a centre lands where the
        evaluator puts it at any scale; a point without a head cell of the
        profile (not positive-headed, or below 1) takes ``M = 0``, ``y1 =
        0`` and its float value for R.  A span within the head cell's reach
        takes its ring directly, and the support edge only at scale 0.
        Where that ring's centre offset is beyond float range, the window
        sits at the point's dip distance to float precision: the one ring is
        ``(-inf, inf, None, h)``, h the log of the profile there over the
        plateau, or there is none on a plateau.
        """
        p = self.params
        b, x0, delta = p.b, p.x0, p.delta
        info = ph.info
        if info is None or info.scale < 0:
            M, y1, R, b1, b2, bm = 0, 0.0, ph.value, 1.0, 1.0, None
        else:
            M, y1, R = info.scale, info.mantissa, info.rem
            # b^M as two normal factors: their product overflows only where
            # every offset but an exact centre's is beyond float range
            b1, b2 = ((b ** (M // 2), b ** (M - M // 2)) if M * self._log_b < 760.0
                      else (1.0, math.inf))
            bm = b1 * b2
        units = None if R is not None else ph.rem_units()
        scales = _scales(p, ph, lo, hi, bm)
        if scales is None:  # the head cell alone, the usual window
            if units is None:  # as _offsets_in_units, inline
                y = x0 - delta
                r_lo = ((y - y1) * b1 * b2 if y != y1 else 0.0) - R
                t0 = ((x0 - y1) * b1 * b2 if x0 != y1 else 0.0) - R
                y = x0 + delta
                r_hi = ((y - y1) * b1 * b2 if y != y1 else 0.0) - R
            else:
                r_lo, t0, r_hi = _offsets_in_units((x0 - delta, x0, x0 + delta),
                                                   y1, R, b1, b2, units)
            if not math.isfinite(t0):
                h = self.profile.at_distance(dip_distance_eval(ph, x0)(0.0)[1])
                h_log = math.log(h / self.profile.plateau) if h else LOG_ZERO
                return [], [(-math.inf, math.inf, None, h_log)] if h_log != 0.0 else []
            edges = [r_lo, t0, r_hi]
            if M == 0:  # from M = 1 the support edge lies below the span
                edges.insert(0, _offsets_in_units((1.0,), y1, R, b1, b2, units)[0])
            return edges, [(r_lo, r_hi, t0, M)]
        edges, rings = _offsets_in_units((b ** -M,), y1, R, b1, b2, units), []
        for m in scales:
            k = b ** (m - M)
            r_lo, t0, r_hi = _offsets_in_units(((x0 - delta) * k, x0 * k, (x0 + delta) * k),
                                               y1, R, b1, b2, units)
            if math.isfinite(t0):  # else the ring lies beyond float range of x, and of the span
                edges += [r_lo, t0, r_hi]
                rings.append((r_lo, r_hi, t0, m))
        return edges, rings

    def density_cuts(self, base: ScaledSum, lo: float, hi: float) -> tuple:
        edges, rings = self._window_cuts(PointPhase(base), hi, lo)
        tol = _END_SNAP * (1.0 + (hi - lo))  # as for a window's ends
        centres = dict.fromkeys(min(max(t0, lo), hi) for _r_lo, _r_hi, t0, _m in rings
                                if t0 is not None and lo - tol <= t0 <= hi + tol)
        return [t for t in edges if lo < t < hi], list(centres)

    def log_density_eval(self, base, *, gamma=0.0):
        """``t -> log_density(base + t)``; untilted, it carries the batch form
        ``many(ts)`` (:meth:`_log_densities`): the outer density of a product
        integrand takes it at a plain float base, and the inner density of
        the pointwise self-convolution at a positive head ``b^M y1 + R``."""
        ev = phi_window_log_eval(self.profile, base)
        m_log = self.m_log
        if gamma == 0.0:
            def f(t):
                return ev(t) - m_log

            f.many = partial(self._log_densities, base)
            return f
        xv = _finite_value(base, "tilted dip density")
        return lambda t: ev(t) - m_log + gamma * (xv + t)

    def _log_densities(self, base: ScaledSum, ts) -> list:
        """The density's log at each ``base + t``, read as the evaluator of
        :func:`~subexp.scaledcore.phi_window_log_eval` reads it: at a point
        without a positive head in place, the cell from the log and then the
        mantissa's distance to x0; at a positive head with a float remainder
        by the arithmetic of :func:`~subexp.scaledcore.dip_distance_eval` as
        arrays (:func:`_dip_logs`); beyond float range a remainder absorbs
        every offset, and the evaluator reads each node."""
        p = self.params
        ph = PointPhase(base)
        if ph.info is not None and ph.info.rem is None:
            ev = phi_window_log_eval(self.profile, base)
            return [ev(t) - self.m_log for t in ts]
        t = np.asarray(ts, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):  # at a centre, and off the ring
            if ph.info is None:
                x = ph.value + t
                on = x >= 1.0
                xlog = np.log(x[on])
                y = x[on] / p.b ** (xlog / self._log_b).astype(int)
                y = _range_fixed(y, p.b)  # where the log rounds across a cell edge
                d = np.abs(y - p.x0)
                h_log = np.where(d >= p.delta, math.log(self.profile.plateau),
                                 np.log(-1.0 / np.log(d)))
            else:
                xlog, dlog = _dip_logs(ph, p.x0, t)
                on = xlog >= 0.0
                xlog, dlog = xlog[on], dlog[on]
                h_log = np.where(dlog >= math.log(p.delta), math.log(self.profile.plateau),
                                 np.log(-1.0 / dlog))
        out = np.full(len(t), LOG_ZERO)
        out[on] = -(p.alpha + 1.0) * xlog + h_log - self.m_log
        return out.tolist()

    def log_window_mass(self, x, c, *, gamma=0.0):
        """Mass of (x, x+c], or under a :class:`Weight` in place of c: the
        evaluator of :meth:`log_window_mass_eval` at offset 0."""
        return self._node_mass(self._window_plan(x, 0.0, 0.0, c, gamma), 0.0)

    def log_window_mass_eval(self, base, lo, hi, w, *, gamma=0.0):
        """``t -> log_window_mass(base + t, w)`` for t in [lo, hi], by segments
        between each window's structure points and the weight's knots.

        The set-up is made once: the phase of base, one structure query
        (:meth:`_window_cuts`) over every window of the span, and a weight in
        offsets from its lower end (from then on ``shape`` is the weight on
        (0, c], or None for the window itself).  A node then costs a
        bisection into the span's structure and the closed forms.  The
        structure's offsets are taken from the head and exact remainder of
        base, less t, for every cell the span meets, so near base the dip
        distance is exact up to ``b^1024``; a node far below a base within
        float range has each offset rounded at ``ulp(base)``, where
        ``base.add_offset(t)`` rounds the point itself there.

        Every segment integrates in closed form: plateau segments take the
        power-law antiderivative and dip segments the exponential-integral
        one or, a width or more from their centre, a Gauss-Legendre rule
        exact to rounding (:meth:`_log_dip_mass`).  The antiderivative's
        series is one Gauss-Laguerre sum per power of the weight, its node
        count fixed a priori by ``(j+1) L`` (:meth:`_dip_series`).  A
        weight's polynomial enters each form: a Gauss-Legendre rule with more
        nodes on plateau segments and far dip segments, and one Laguerre sum
        per power near a centre; a dip segment near its centre that reaches
        beyond ``2^-8 min(x0, 2)`` of it in mantissa units is cut into pieces
        of these kinds.  A tilt ``e^(gamma u)`` enters the same forms: the
        Gauss-Legendre rules take it as a factor, with node counts from
        :func:`_tilted_gauss_nodes`, and near a centre its Taylor polynomial
        joins the weight's.  Where the centre offset ``(x0 - y1) b^M - R`` of
        the head cell is beyond float range, the dip distance is the point's
        over the whole window (see :meth:`_window_cuts`).

        The evaluator's batch form ``many(ts)`` takes a round of nodes
        (:meth:`_node_masses`): from ``_GAUSS_BATCH_MIN`` nodes up, an
        untilted round walks as arrays, every node's segments at once
        (:meth:`_round_masses`), unless the window sits at one dip distance.
        Its plateau segments and its dip segments far enough to one side of
        their centre for a Gauss rule take array forms; the few near a
        centre take :meth:`_log_dip_mass` as a node does.
        """
        plan = self._window_plan(base, lo, hi, w, gamma)
        ev = partial(self._node_mass, plan)
        ev.many = partial(self._node_masses, plan)
        return ev

    def log_weight_mass_eval(self, base, lo, hi, *, gamma=0.0):
        """``w -> log_window_mass(base, w)`` for weights w supported in [lo,
        hi], from the set-up of the window (base + lo, base + hi], which
        holds the structure of every such weight."""
        span = self._window_plan(base, lo, lo, hi - lo, gamma)[:4]  # a weight adds (w0, c, shape)
        return lambda w: self._node_mass(span + _weight_shape(w), 0.0)

    def _window_plan(self, base, lo, hi, w, gamma):
        """The set-up of :meth:`log_window_mass_eval` as one tuple."""
        if gamma != 0.0:
            _finite_value(base, "tilted dip density")
        ph = PointPhase(base)
        w0, c, shape = _weight_shape(w)
        edges, rings = self._window_cuts(ph, hi + w0 + c, lo + w0)
        return (ph, edges, rings, gamma, w0, c, shape)

    def _node_mass(self, plan, t):
        """The window mass at ``base + t`` from its evaluator's set-up."""
        ph, edges, rings, gamma, w0, c, shape = plan
        s = t + w0
        end = s + c
        tol = _END_SNAP * (1.0 + c)  # for edges that round into the window
        hints = [h for e in edges[bisect_left(edges, s - tol):bisect_right(edges, end + tol)]
                 if 0.0 < (h := e - s) < c]  # edges ascend, and so do hints
        if shape is None:
            cuts = [0.0, *hints, c]
        else:
            cuts = [0.0, *sorted(set(hints).union(shape.knots[1:-1])), c]
        # the rings that meet the window, in its offsets
        near = [(r_lo - s, r_hi - s, None if t0 is None else t0 - s, m)
                for r_lo, r_hi, t0, m in rings if r_lo < end and r_hi > s]
        in_support = ph.value + s >= 1.0
        tilt = (gamma, ph.value + s) if gamma != 0.0 else None
        terms = []
        piece = None
        j = 0  # the weight piece of the segment: cuts take every knot, and ascend
        for a, b in zip(cuts, cuts[1:]):
            mid = 0.5 * (a + b)
            # edges that round together (as the support edge and x0 - delta
            # can) or to within an ulp, where the midpoint falls on an end
            if not a < mid < b:
                continue
            if not in_support and ph.log_point(s + mid) < 0.0:  # below the support edge at 1
                continue
            if shape is not None:
                while mid > shape.pieces[j][1]:
                    j += 1
                piece = _nearer_end(shape.pieces[j], mid)
            for ring in near:
                if ring[0] < mid < ring[1]:
                    if ring[2] is None:
                        terms.append(self._log_plateau_mass(ph, s, a, b, piece, tilt) + ring[3])
                    else:
                        terms.append(self._log_dip_mass(ring, a, b, piece, tilt))
                    break
            else:
                terms.append(self._log_plateau_mass(ph, s, a, b, piece, tilt))
        return terms[0] if len(terms) == 1 else log_sum(terms)

    def _node_masses(self, plan, ts):
        """``[_node_mass(plan, t) for t in ts]`` for a round of nodes: by
        :meth:`_round_masses` where the round has ``_GAUSS_BATCH_MIN`` nodes
        or more, is untilted and has rings with centres, else node by
        node."""
        _ph, _edges, rings, gamma, *_ = plan
        if len(ts) < _GAUSS_BATCH_MIN or gamma != 0.0 or (rings and rings[0][2] is None):
            return [self._node_mass(plan, t) for t in ts]
        return self._round_masses(plan, np.asarray(ts, dtype=float)).tolist()

    def _round_masses(self, plan, t: np.ndarray) -> np.ndarray:
        """:meth:`_node_mass` of each node t of an untilted plan whose rings
        have centres, as one walk over arrays: every node's cuts, the kinds
        of its segments and their closed forms, then a log-sum per node.

        The cuts are the span's structure points inside each window, found
        by ``searchsorted`` with the same snap and filter as a node's
        bisection, and the weight's inner knots.  A segment is dropped where
        it has no width or lies below the support edge; it takes its weight
        piece by its midpoint and its ring by a ``searchsorted`` of its
        point, checked in window offsets as the scalar walk compares.  The
        two bulk kinds are arrays: plateau segments take the power-law
        antiderivative or, weighted, Gauss rows, and dip segments on one side
        of their centre at a ratio of ``_DIP_GAUSS_MIN_RATIO`` or more take
        Gauss rows, one numpy pass per rule size.  Every other dip segment,
        near a centre, takes the scalar :meth:`_log_dip_mass`.  The terms
        agree with the scalar forms within a few ulps."""
        ph, edges, rings, _gamma, w0, c, shape = plan
        n = len(t)
        s = t + w0
        end = s + c
        tol = _END_SNAP * (1.0 + c)  # as in _node_mass
        e = np.asarray(edges, dtype=float)
        i0 = np.searchsorted(e, s - tol, "left")
        cnt = np.searchsorted(e, end + tol, "right") - i0
        node = np.repeat(np.arange(n), cnt)
        hint = e[np.arange(node.size) + np.repeat(i0 - (np.cumsum(cnt) - cnt), cnt)] - s[node]
        inside = (hint > 0.0) & (hint < c)
        node, hint = node[inside], hint[inside]
        polys = _weight_polys(shape)
        if shape is not None:
            knots = np.asarray(shape.knots[1:-1])
            node = np.concatenate((node, np.repeat(np.arange(n), knots.size)))
            hint = np.concatenate((hint, np.tile(knots, n)))
        node, a, b = _segments(np.zeros(n), np.full(n, c), node, hint)
        mid = 0.5 * (a + b)
        keep = (a < mid) & (mid < b)
        below = keep & (ph.value + s < 1.0)[node]  # may lie below the support edge at 1
        keep[below] = _log_points(ph, s[node[below]] + mid[below]) >= 0.0
        node, a, b, mid = node[keep], a[keep], b[keep], mid[keep]
        sn = s[node]
        poly = np.zeros(node.size, int)  # the window itself takes no polynomial
        if shape is not None:  # the piece by the midpoint, from its nearer end
            lo, hi = (np.array([p[i] for p in shape.pieces]) for i in (0, 1))
            j = np.searchsorted(hi, mid, "left")
            poly = 2 * j + (mid - lo[j] > hi[j] - mid)
        ring = np.full(node.size, -1)
        if rings:
            r_lo, r_hi, r_t0 = (np.array([r[i] for r in rings]) for i in range(3))
            # the ring below the segment's point and the next, as the sum may
            # round across a ring's lower end; each checked as _node_mass does
            k = r_lo.searchsorted(sn + mid, "right") - 1
            cand = np.concatenate((np.maximum(k, 0), np.minimum(k + 1, len(rings) - 1)))
            cand = cand.reshape(2, -1)
            lo, hi = r_lo[cand], r_hi[cand]
            hit = (lo < end[node]) & (hi > sn) & (lo - sn < mid) & (mid < hi - sn)
            ring = np.where(hit[0], cand[0], np.where(hit[1], cand[1], -1))
        pl = ring < 0
        terms = [(node[pl], self._plateau_masses(ph, sn[pl], a[pl], b[pl], poly[pl], polys))]
        if not pl.all():
            dp = ~pl
            terms += self._dip_masses(rings, shape, polys, node[dp], poly[dp], ring[dp],
                                      r_t0[ring[dp]] - sn[dp], a[dp], b[dp])
        return _log_sums(n, *(np.concatenate(v) for v in zip(*terms)))

    def _plateau_masses(self, ph: PointPhase, s, a, b, poly, polys) -> np.ndarray:
        """:meth:`_log_plateau_mass` (untilted) of each segment ``(a, b)`` of
        a node at ``base + s``, under the weight row ``poly`` of ``polys``
        (see :func:`_weight_polys`)."""
        alpha = self.params.alpha
        if polys is None:
            log_x = _log_points(ph, s + a)
            log_r = np.log(b - a) - log_x
            closed = np.log(-np.expm1(-alpha * np.log1p(np.exp(np.maximum(log_r, -700.0)))))
            body = np.where(log_r > -700.0, closed - math.log(alpha), log_r)
            return self._k_log - alpha * log_x + body
        a1 = alpha + 1.0
        h, mid = 0.5 * (b - a), 0.5 * (a + b)
        log_x = _log_points(ph, s + mid)
        r = np.exp(np.maximum(np.log(h) - log_x, -700.0))  # half-widths per distance to u = 0
        origin, table, extra = polys

        def f(z, r, h, tau, c):
            return (1.0 + r * z) ** -a1 * _horner(c, tau + h * z)

        total = _gauss_sums(_gauss_nodes_many(1.0 / r) + extra[poly],
                            (r, h, mid - origin[poly], table[poly]), f)
        return _row_logs(self._k_log - a1 * log_x + np.log(h), total)

    def _dip_masses(self, rings, shape, polys, node, poly, ring, t0, a, b) -> list:
        """:meth:`_log_dip_mass` (untilted) of each segment ``(a, b)`` of a
        node in the ring ``rings[ring]``, whose centre lies at the window
        offset t0, under the weight row ``poly`` (see :func:`_weight_polys`).
        A segment on one side of its centre at a ratio of
        ``_DIP_GAUSS_MIN_RATIO`` or more, the bulk of a round, is a Gauss row
        (:meth:`_dip_gauss_rows`); every other takes the scalar form, which
        picks the series or the cut at ``±2^k r0``.  Returned as two ``(node,
        log mass)`` pairs of arrays."""
        lnbm = np.array([m * self._log_b for *_r, m in rings])
        bm = np.array([math.exp(v) if v < 700.0 else math.inf for v in lnbm.tolist()])
        lnbm, bm = lnbm[ring], bm[ring]
        d1, d2 = a - t0, b - t0
        h = 0.5 * (b - a)
        d_mid = 0.5 * d1 + 0.5 * d2
        with np.errstate(over="ignore"):  # inf for an ulp-wide segment far out, as in floats
            ratio = np.minimum(np.abs(d_mid), bm - np.abs(d_mid)) / h
        # d1 d2 > 0 by the signs, as the product may overflow
        g = (np.sign(d1) * np.sign(d2) > 0.0) & (ratio >= _DIP_GAUSS_MIN_RATIO)
        ends = None if shape is None else _weight_ends(shape)
        near = [self._log_dip_mass((None, None, t, rings[r][3]), lo, hi,
                                   None if ends is None else ends[p])
                for r, t, lo, hi, p in zip(*(v[~g].tolist() for v in (ring, t0, a, b, poly)))]
        return [self._dip_gauss_rows(node[g], poly[g], lnbm[g], h[g], d_mid[g], ratio[g],
                                     0.5 * (a[g] + b[g]), polys),
                (node[~g], np.array(near))]

    def _dip_gauss_rows(self, node, poly, lnbm, h, d_mid, ratio, mid, polys) -> tuple:
        """:meth:`_dip_gauss_mass` (untilted) of each row in one numpy pass
        per rule size: the offsets ``d_mid ± h`` from the centre of a ring of
        scale ``lnbm = m log b``, on one side of it at ``ratio`` half-widths
        (at least ``_DIP_GAUSS_MIN_RATIO``), and the midpoint ``mid`` in
        window offsets.  With ``x + t = b^m (x0 + s)`` and ``s = x0 q d``,
        the density over ``d_mid + h z`` is ``b^(-m (alpha+1)) x0^(-alpha-1) /
        M`` times ``(1 + q d)^(-alpha-1) / (m log b - log|d|)``, and the
        weight's polynomial is taken at ``mid + h z`` from its origin."""
        a1 = self.params.alpha + 1.0
        ad = np.abs(d_mid)
        log_q = np.log(ad) - lnbm - self._log_x0
        q = np.where(log_q > -745.0, np.exp(log_q) / ad, 0.0)
        n = _gauss_nodes_many(ratio)
        cols = (d_mid, h, q, lnbm)
        if polys is not None:
            origin, table, extra = polys
            n = n + extra[poly]
            cols += (mid - origin[poly], table[poly])

        def f(z, d_mid, h, q, lnbm, *weight):
            d = d_mid + h * z
            out = (1.0 + q * d) ** -a1 / (lnbm - np.log(np.abs(d)))
            return out * _horner(weight[1], weight[0] + h * z) if weight else out

        total = _gauss_sums(n, cols, f)
        return node, _row_logs(-a1 * (lnbm + self._log_x0) - self.m_log + np.log(h), total)

    def _log_dip_mass(self, ring: tuple, a: float, b: float, piece=None, tilt=None):
        """log of the mass over (x+a, x+b] inside the dip ring ``ring``, under
        the weight piece ``piece``, as ``(origin, coeffs)`` in offsets from
        ``origin`` (None for the unit weight), and the tilt ``e^(gamma u)``
        of ``tilt = (gamma, x)`` (None for none).

        With ``x + t = b^m (x0 + s)`` the density is ``b^(-m alpha)/M (x0 +
        s)^(-alpha-1) (-1/log|s|)`` in ``s``.  A segment a width or more from
        its centre takes a Gauss-Legendre rule (see ``_DIP_GAUSS_MIN_RATIO``),
        one within ``r0 = 2^-8 min(x0, 2) b^m`` of it the exponential-integral
        series (:meth:`_dip_series_mass`), whose rule then needs at most 26
        nodes (``L >= 7 log 2``); under a tilt r0 is at most ``1/(16
        |gamma|)``.  Any other segment is cut at the offsets ``±2^k r0`` from
        its centre: the piece at the centre lies within r0, and every other
        piece lies within ``[2^k r0, 2^(k+1) r0]`` on one side, three
        half-widths or more from the centre, and takes the rule.
        """
        _lo, _hi, t0, m = ring
        lnbm = m * self._log_b
        bm = math.exp(lnbm) if lnbm < 700.0 else math.inf  # |d| at the pole, |s| = 1
        d1, d2 = a - t0, b - t0
        h = 0.5 * (b - a)
        if d1 * d2 > 0.0:
            d_mid = 0.5 * d1 + 0.5 * d2  # halved first: near the float maximum d1 + d2 overflows
            ratio = min(abs(d_mid), bm - abs(d_mid)) / h
            if ratio >= _DIP_GAUSS_MIN_RATIO:
                return self._dip_gauss_mass(lnbm, bm, d_mid, h, ratio, 0.5 * (a + b), piece, tilt)
        r0 = bm * min(self.params.x0, 2.0) * _DIP_SERIES_REACH
        if tilt is not None:
            r0 = min(r0, _TILT_SERIES_REACH / abs(tilt[0]))
        if max(-d1, d2) <= r0:
            return self._dip_series_mass(lnbm, t0, d1, d2, piece, tilt)
        cuts, k = [], r0
        while k < max(-d1, d2):
            cuts += [c for c in (-k, k) if d1 < c < d2]
            k *= 2.0
        ends = [d1, *sorted(cuts), d2]
        terms = []
        for p, q in zip(ends[:-1], ends[1:]):
            h, d_mid = 0.5 * (q - p), 0.5 * p + 0.5 * q
            ratio = min(abs(d_mid), bm - abs(d_mid)) / h
            if q <= -r0 or p >= r0 or (p * q > 0.0 and ratio >= _DIP_GAUSS_MIN_RATIO):
                terms.append(self._dip_gauss_mass(lnbm, bm, d_mid, h, ratio, t0 + d_mid, piece,
                                                  tilt))
            else:
                terms.append(self._dip_series_mass(lnbm, t0, p, q, piece, tilt))
        return log_sum(terms)

    def _dip_gauss_mass(self, lnbm: float, bm: float, d_mid: float, h: float, ratio: float,
                        mid: float, piece, tilt=None):
        """The mass over the offsets ``d_mid ± h`` from the centre, on one side
        of it, by a Gauss-Legendre rule of :func:`_gauss_nodes` nodes for
        ``ratio``, the distance in half-widths to the nearer of the centre and
        the pole of ``-1/log|s|`` at ``|s| = 1``, ``|d| = bm``; under a tilt,
        of at least the nodes :func:`_tilted_gauss_nodes` takes for a pole
        there.  The midpoint ``mid`` is in window offsets, where the weight
        piece takes its argument: far from a centre ``t0 + d`` loses it.

        A segment within two half-widths of the pole (``delta > 0.8``), or
        too wide for a bounded rule under its tilt, is halved.  Off a
        centre piece the distance to the centre is three half-widths less
        rounding."""
        n = _gauss_nodes(ratio) if ratio >= 2.0 else None
        if tilt is not None and n is not None:
            n_tilt = _tilted_gauss_nodes(ratio, tilt[0] * h, 1.0)
            n = None if n_tilt is None else max(n, n_tilt)
        if n is None:
            g = 0.5 * h
            halves = []
            for k in (-g, g):
                d = d_mid + k
                halves.append(self._dip_gauss_mass(lnbm, bm, d, g, min(abs(d), bm - abs(d)) / g,
                                                   mid + k, piece, tilt))
            return log_add(*halves)
        a1 = self.params.alpha + 1.0
        log_x0 = self._log_x0
        log_q = math.log(abs(d_mid)) - lnbm - log_x0
        q = math.exp(log_q) / abs(d_mid) if log_q > -745.0 else 0.0  # s / (x0 d)
        head = -a1 * (lnbm + log_x0) - self.m_log
        total = 0.0
        if piece is None and tilt is None:
            for z, wt in _gauss_legendre(n):
                d = d_mid + h * z
                total += wt * (1.0 + q * d) ** -a1 / (lnbm - math.log(abs(d)))
        else:
            origin, coeffs = (0.0, (1.0,)) if piece is None else piece
            tau = mid - origin
            rule = _gauss_legendre(n + len(coeffs) // 2)
            if tilt is None:
                for z, wt in rule:
                    d = d_mid + h * z
                    total += (wt * _poly_value(coeffs, tau + h * z)
                              * (1.0 + q * d) ** -a1 / (lnbm - math.log(abs(d))))
            else:
                gamma, x = tilt
                gh = gamma * h
                head += gamma * (x + mid)
                for z, wt in rule:
                    d = d_mid + h * z
                    total += (wt * _poly_value(coeffs, tau + h * z) * math.exp(gh * z)
                              * (1.0 + q * d) ** -a1 / (lnbm - math.log(abs(d))))
        return head + math.log(h) + math.log(total) if total > 0.0 else LOG_ZERO

    def _dip_series_mass(self, lnbm: float, t0: float, d1: float, d2: float, piece, tilt):
        """The mass over the offsets (d1, d2] from the centre at window offset
        t0, within r0 of it (see :meth:`_log_dip_mass`) and within two widths
        of it at the far end, so that the one-sided difference cancels at
        most one bit.

        ``G(s) = x0^(-alpha-1) sum_k C(-alpha-1, k) x0^-k sgn(s)^(k+1)
        E1((k+1) L)`` with ``L = -log|s|`` is an exact antiderivative of the
        density across the centre.  Writing ``E1(z) = e^-z int_0^inf e^-t /
        (t + z) dt`` factors out the far end's ``e^-L = |d| b^-m``; the near
        end then enters through the exact ratio of the offsets, so neither
        end's ``L`` is exponentiated and nothing underflows up to ``b^1024``.
        A weight ``sum_j p_j d^j`` in offsets from the centre turns ``E1((k+1)
        L)`` into ``sum_j p_j d^j E1((k+j+1) L)``, and each power's series
        over k sums under the integral (:meth:`_dip_series`).  A tilt
        ``e^(gamma (x_c + d))`` about the centre ``x_c`` is ``e^(gamma x_c)``
        times its Taylor polynomial in d, a factor of the weight.
        """
        a1 = self.params.alpha + 1.0
        log_x0 = self._log_x0
        far, near = (d2, d1) if abs(d2) >= abs(d1) else (d1, d2)
        log_far = math.log(abs(far))
        log_q = log_far - lnbm - log_x0  # log |s_far / x0|
        q = math.copysign(math.exp(log_q), far) if log_q > -745.0 else 0.0
        r = abs(near) / abs(far)
        head = -a1 * (lnbm + log_x0) - self.m_log
        if piece is None and tilt is None:
            p_far = p_near = (1.0,)
        else:
            # the weight in offsets from the centre
            coeffs = (1.0,) if piece is None else _poly_shift(piece[1], t0 - piece[0])
            if tilt is not None:
                gamma, x = tilt
                head += gamma * (x + t0)
                coeffs = _poly_mul(coeffs, _exp_taylor(gamma, abs(far)))
            p_far = tuple(c * far ** j for j, c in enumerate(coeffs))
            p_near = tuple(c * near ** j for j, c in enumerate(coeffs))
        # sgn(d) from G's sgn(s)^(k+1); under a weight of mixed signs the
        # series itself may be negative
        s_far = math.copysign(1.0, far) * self._dip_series(q, lnbm - log_far, p_far)
        s_near = 0.0 if near == 0.0 else math.copysign(1.0, near) * self._dip_series(
            q * (near / far), lnbm - math.log(abs(near)), p_near)
        body = s_far - r * s_near if far == d2 else r * s_near - s_far
        return head + log_far + math.log(body) if body > 0.0 else LOG_ZERO

    def _dip_series(self, q: float, L: float, p: tuple) -> float:
        """``sum_j p_j sum_k C(-alpha-1, k) q^k e^z E1(z)``, ``z = (k+j+1)
        L``, for the dip offset ``s = x0 q`` with ``L = -log|s|``.

        With ``e^z E1(z) = int_0^inf e^-t / (t + z) dt`` and ``t = (k+j+1)
        v``, the sum over k is the binomial series of ``(1 + q e^-v)^(-alpha-1)``
        under one integral; in ``t = (j+1) v`` each power's is ``int_0^inf e^-t
        (1 + q e^(-t/(j+1)))^(-alpha-1) / (t + z) dt``, ``z = (j+1) L``: one
        Gauss-Laguerre sum, its size from z (``_LAGUERRE_Z``).  The binomial
        factor's singularities lie at ``|t| >= (j+1) (L + log x0)``, beyond
        the pole at ``-z``."""
        neg_a1 = -self.params.alpha - 1.0
        out = 0.0
        for j, pj in enumerate(p):
            z = (j + 1) * L
            total = 0.0
            for t, wt, e in _laguerre_decays(_LAGUERRE_NODES[bisect_right(_LAGUERRE_Z, z)], j):
                total += wt * (1.0 + q * e) ** neg_a1 / (t + z)
            out += pj * total
        return out

    def _log_plateau_mass(self, ph: PointPhase, s: float, a: float, b: float,
                          piece=None, tilt=None) -> float:
        """log of the plateau mass over (x+a, x+b] under the weight piece
        ``piece`` and the tilt ``tilt`` (as for :meth:`_log_dip_mass`), for
        the point ``x = base + s`` of the phase ``ph`` of base.

        K/M int u^(-alpha-1) du = K/(alpha M) X^-alpha (1 - (1+r)^-alpha) with
        X = x + a and r = (b-a)/X (:func:`_log_power_bracket`).
        Under a polynomial weight a Gauss-Legendre rule, with the pole of
        ``u^(-alpha-1)`` at ``u = 0`` the nearest singularity; under a tilt
        the tilted power-law rule of :func:`_log_tilted_power`.
        """
        alpha = self.params.alpha
        k_log = self._k_log
        if tilt is not None:
            gamma, x = tilt
            h, mid = 0.5 * (b - a), 0.5 * (a + b)
            poly = None if piece is None else (mid - piece[0], piece[1])
            return k_log + _log_tilted_power(alpha + 1.0, gamma, x + mid, x + mid, h, poly)
        if piece is not None:
            h, mid = 0.5 * (b - a), 0.5 * (a + b)
            log_x = ph.log_point(s + mid)
            r = math.exp(max(math.log(h) - log_x, -700.0))  # half-widths per distance to u = 0
            origin, coeffs = piece
            tau = mid - origin
            total = 0.0
            for z, wt in _gauss_legendre(_gauss_nodes(1.0 / r) + len(coeffs) // 2):
                total += wt * _poly_value(coeffs, tau + h * z) * (1.0 + r * z) ** (-alpha - 1.0)
            if total <= 0.0:
                return LOG_ZERO
            return k_log - (alpha + 1.0) * log_x + math.log(h) + math.log(total)
        log_x = ph.log_point(s + a)
        return k_log - alpha * log_x + _log_power_bracket(alpha, math.log(b - a) - log_x)

    def log_tail(self, x, *, gamma=0.0):
        """Mass above x, a float-representable point.  Untilted, by
        self-similarity: for ``x = b^m y`` with y in [1, b), the mass above x
        is ``b^(-alpha m)`` times the mass above y, which is the window (y, b]
        plus ``b^-alpha`` above b.  The window lies in one cell at scale 0
        for every x; a point on a cell boundary takes ``b^(-alpha m)``
        alone."""
        p = self.params
        if gamma > 0.0:
            raise DivergentMomentError(
                "power-law tail has no positive exponential moment", gamma)
        below = x.sign() <= 0 or x.log_abs() < 0.0  # below the support edge at 1
        xv = 1.0 if below else _finite_value(x, "tail")
        if gamma < 0.0:
            return self._log_tilted_tail(xv, p.b, gamma)
        if below:
            return 0.0
        info = x.phase()
        m, y = _range_fix(info.scale, info.mantissa + info.rem_sign * math.exp(
            info.rem_log - info.scale * self._log_b), p.b)
        head = -p.alpha * m * self._log_b
        if y == 1.0:
            return head
        window = self.log_window_mass(ScaledSum.from_float(y, p.b), p.b - y)
        return log_add(head + window, head - p.alpha * self._log_b)

    def _log_tail_envelope(self, x, gamma):
        return self._k_log - (self.params.alpha + 1.0) * math.log(x) + gamma * x \
            - math.log(-gamma)

    def log_exp_moment(self, gamma):
        if gamma == 0.0:
            return 0.0
        if gamma > 0.0:
            raise DivergentMomentError(
                "power-law tail has no positive exponential moment", gamma)
        return self.log_tail(ScaledSum.from_float(1.0, self.params.b), gamma=gamma)


@dataclass(frozen=True)
class UniformAC(Component):
    """Uniform density on [left, left + width)."""

    left: float
    width: float

    def __post_init__(self):
        if not (self.width > 0.0):
            raise ParameterError("uniform width must be positive")

    def support_bounds(self):
        return (self.left, self.left + self.width)

    def density_cuts(self, base, lo, hi):
        return _offsets(base, self.support_bounds(), lo, hi), []

    def _segment(self, xv, c):
        o1 = max(xv, self.left)
        o2 = min(xv + c, self.left + self.width)
        return o1, o2

    def _log_window_mass(self, x, c, *, gamma=0.0):
        xv = x.value()
        if not math.isfinite(xv):
            return LOG_ZERO
        o1, o2 = self._segment(xv, c)
        if o2 <= o1:
            return LOG_ZERO
        if gamma == 0.0:
            return math.log((o2 - o1) / self.width)
        if gamma > 0.0:
            body = gamma * o2 + math.log1p(-math.exp(gamma * (o1 - o2))) - math.log(gamma)
        else:
            body = gamma * o1 + math.log1p(-math.exp(gamma * (o2 - o1))) - math.log(-gamma)
        return body - math.log(self.width)

    def _log_weighted_mass(self, x, w, *, gamma=0.0):
        """:func:`_log_power_pieces` without a power law: exact untilted."""
        lo, hi = self.support_bounds()
        return _log_power_pieces(w.pieces, x.value(), lo, hi, 0.0, gamma) - math.log(self.width)

    def log_density_eval(self, base, *, gamma=0.0):
        xv = base.value()
        if not math.isfinite(xv):
            return lambda t: LOG_ZERO
        lw = math.log(self.width)
        lo, hi = self.support_bounds()
        return lambda t: (gamma * (xv + t) - lw) if lo <= xv + t < hi else LOG_ZERO

    def log_tail(self, x, *, gamma=0.0):
        xv = x.value()
        if xv == math.inf:
            return LOG_ZERO
        xv = max(xv, self.left) if math.isfinite(xv) else self.left
        right = self.left + self.width
        if xv >= right:
            return LOG_ZERO
        return self.log_window_mass(ScaledSum.from_float(xv, x.b), right - xv, gamma=gamma)

    def log_exp_moment(self, gamma):
        if gamma == 0.0:
            return 0.0
        return self._log_window_mass(ScaledSum.from_float(self.left), self.width, gamma=gamma)


@dataclass(frozen=True)
class ParetoAC(Component):
    """Density a (1+u)^(-a-1) on [0, inf) (shifted Pareto, tail index a)."""

    shape: float

    def __post_init__(self):
        if not (self.shape > 0.0):
            raise ParameterError("pareto shape must be positive")

    def support_bounds(self):
        return (0.0, math.inf)

    def density_cuts(self, base, lo, hi):
        return _offsets(base, (0.0,), lo, hi), []

    def _log_window_mass(self, x, c, *, gamma=0.0):
        """Untilted, ``(1+o)^-a (1 - (1+r)^-a)`` for the window (o, o+w] of
        the support, with ``r = w/(1+o)`` (:func:`_log_power_bracket`): the
        window's own width c, or ``x + c`` from 0 for a window that starts
        below the support.  Tilted, the tilted power-law rule."""
        xv = x.value()
        a = self.shape
        if gamma == 0.0:
            if xv >= 0.0:
                log_v, w = _log1p_point(x, xv), c
            else:
                log_v, w = 0.0, xv + c
                if not w > 0.0:
                    return LOG_ZERO
            return math.log(a) - a * log_v + _log_power_bracket(a, math.log(w) - log_v)
        if not math.isfinite(xv):
            return LOG_ZERO
        if xv >= 0.0:  # the width is c, however xv + c rounds
            h = 0.5 * c
            mid = xv + h
        else:
            h = mid = 0.5 * (xv + c)
            if not h > 0.0:
                return LOG_ZERO
        # the tilted power-law rule in v = 1 + u
        return math.log(a) + _log_tilted_power(a + 1.0, gamma, 1.0 + mid, mid, h)

    def _log_weighted_mass(self, x, w, *, gamma=0.0):
        """:func:`_log_power_pieces`; beyond float range, untilted, density times mass."""
        xv, a = x.value(), self.shape
        if xv == math.inf and not gamma:
            return self.log_density(x) + math.log(w.mass())
        return math.log(a) + _log_power_pieces(w.pieces, xv, 0.0, math.inf, a + 1.0, gamma)

    def log_density_eval(self, base, *, gamma=0.0):
        xv = base.value()
        a = self.shape
        la = math.log(a)
        if xv == -math.inf:
            return lambda t: LOG_ZERO
        if xv == math.inf:  # an offset leaves such a point as it is
            v = la - (a + 1.0) * _log1p_point(base, xv) + (gamma * xv if gamma else 0.0)
            return lambda t: v

        def f(t):
            u = xv + t
            if u < 0.0:
                return LOG_ZERO
            return la - (a + 1.0) * math.log1p(u) + gamma * u

        return f

    def log_tail(self, x, *, gamma=0.0):
        xv = max(x.value(), 0.0)
        a = self.shape
        if gamma > 0.0:
            raise DivergentMomentError(
                "power-law tail has no positive exponential moment", gamma)
        if gamma == 0.0:
            return -a * _log1p_point(x, xv)
        if xv == math.inf:
            return LOG_ZERO
        return self._log_tilted_tail(xv, x.b, gamma)

    def _log_tail_envelope(self, x, gamma):
        a = self.shape
        return math.log(a) - (a + 1.0) * math.log1p(x) + gamma * x - math.log(-gamma)

    def log_exp_moment(self, gamma):
        if gamma == 0.0:
            return 0.0
        if gamma > 0.0:
            raise DivergentMomentError(
                "power-law tail has no positive exponential moment", gamma)
        return self.log_tail(ScaledSum.zero(4.0), gamma=gamma)


@dataclass(frozen=True)
class PointMass(Component):
    """Unit mass at a plain-float location."""

    location: float
    is_atomic = True

    def support_bounds(self):
        return (self.location, self.location)

    def atoms(self):
        return ((self.location, 1.0),)

    def density_cuts(self, base, lo, hi):
        return _offsets(base, (self.location,), lo, hi), []

    def _log_window_mass(self, x, c, *, gamma=0.0):
        below = x.add_offset(-self.location)  # x - loc < 0  <=>  loc > x
        above = x.add_offset(c - self.location)  # x + c - loc >= 0  <=>  loc <= x+c
        if below.sign() < 0 and above.sign() >= 0:
            return gamma * self.location
        return LOG_ZERO

    def log_tail(self, x, *, gamma=0.0):
        return gamma * self.location if x.add_offset(-self.location).sign() < 0 else LOG_ZERO

    def log_exp_moment(self, gamma):
        return gamma * self.location


@dataclass(frozen=True)
class AtomSeries(Component):
    """Atoms at scale-split locations with weights summing to one."""

    locations: tuple  # tuple[ScaledSum]
    weights: tuple

    is_atomic = True

    def __post_init__(self):
        if len(self.locations) != len(self.weights):
            raise ParameterError("locations and weights must align")
        if any(w < 0 for w in self.weights):
            raise ParameterError("weights must be nonnegative")
        if abs(math.fsum(self.weights) - 1.0) > 1e-12:
            raise ParameterError("atom weights must sum to 1")

    def support_bounds(self):
        vals = [loc.value() for loc in self.locations]
        return (min(vals), max(vals))

    def atoms(self):
        return tuple(zip(self.locations, self.weights))

    def density_cuts(self, base, lo, hi):
        return _offsets(base, [loc.value() for loc, w in self.atoms() if w > 0.0], lo, hi), []

    def _gamma_term(self, loc: ScaledSum, w: float, gamma: float) -> float:
        if gamma == 0.0:
            return math.log(w) if w > 0 else LOG_ZERO
        g = gamma * loc.value()
        if g == math.inf:
            raise DivergentMomentError(
                "exponential weight overflows at a scaled atom", gamma)
        return g + (math.log(w) if w > 0 else LOG_ZERO)

    def _log_window_mass(self, x, c, *, gamma=0.0):
        terms = []
        for loc, w in zip(self.locations, self.weights):
            d = loc.sub(x)
            if d.sign() > 0 and d.add_offset(-c).sign() <= 0:
                terms.append(self._gamma_term(loc, w, gamma))
        return log_sum(terms)

    def log_tail(self, x, *, gamma=0.0):
        terms = [self._gamma_term(loc, w, gamma)
                 for loc, w in zip(self.locations, self.weights)
                 if loc.sub(x).sign() > 0]
        return log_sum(terms)

    def log_exp_moment(self, gamma):
        return log_sum([self._gamma_term(loc, w, gamma)
                        for loc, w in zip(self.locations, self.weights)])


@dataclass(frozen=True)
class PiecewiseLinearDensity:
    """Continuous piecewise-linear density with compact support [knots0, knotsN]."""

    knots: tuple
    values: tuple

    def __post_init__(self):
        if len(self.knots) != len(self.values) or len(self.knots) < 2:
            raise ParameterError("need matching knots/values, at least two")
        if any(b <= a for a, b in zip(self.knots[:-1], self.knots[1:])):
            raise ParameterError("knots must be strictly increasing")
        if any(v < 0 for v in self.values):
            raise ParameterError("density values must be nonnegative")
        if abs(self.integral() - 1.0) > 1e-9:
            raise ParameterError(f"kernel must integrate to 1, got {self.integral()}")

    @classmethod
    def triangle(cls, lo: float = 0.0, hi: float = 1.0) -> "PiecewiseLinearDensity":
        mid = 0.5 * (lo + hi)
        peak = 2.0 / (hi - lo)
        return cls(knots=(lo, mid, hi), values=(0.0, peak, 0.0))

    def integral(self) -> float:
        return math.fsum(0.5 * (v0 + v1) * (k1 - k0) for k0, k1, v0, v1 in
                         zip(self.knots[:-1], self.knots[1:], self.values[:-1], self.values[1:]))

    def value(self, x: float) -> float:
        if x <= self.knots[0] or x >= self.knots[-1]:
            if x == self.knots[0]:
                return self.values[0]
            if x == self.knots[-1]:
                return self.values[-1]
            return 0.0
        for k0, k1, v0, v1 in zip(self.knots[:-1], self.knots[1:],
                                  self.values[:-1], self.values[1:]):
            if k0 <= x <= k1:
                return v0 + (v1 - v0) * (x - k0) / (k1 - k0)
        return 0.0

    def cdf(self, x: float) -> float:
        if x <= self.knots[0]:
            return 0.0
        if x >= self.knots[-1]:
            return 1.0
        total = 0.0
        for k0, k1, v0, v1 in zip(self.knots[:-1], self.knots[1:],
                                  self.values[:-1], self.values[1:]):
            if x >= k1:
                total += 0.5 * (v0 + v1) * (k1 - k0)
            else:
                t = (x - k0) / (k1 - k0)
                vx = v0 + (v1 - v0) * t
                total += 0.5 * (v0 + vx) * (x - k0)
                break
        return total

    def log_tilt_integral(self, gamma: float) -> float:
        """log of int e^{gamma v} q(v) dv (exact per linear piece)."""
        if gamma == 0.0:
            return 0.0
        total = 0.0
        for k0, k1, v0, v1 in zip(self.knots[:-1], self.knots[1:],
                                  self.values[:-1], self.values[1:]):
            w = k1 - k0
            s = (v1 - v0) / w
            # int_{k0}^{k1} (v0 + s (v-k0)) e^{gamma v} dv
            e0, e1 = math.exp(gamma * k0), math.exp(gamma * k1)
            total += (v1 * e1 - v0 * e0) / gamma - s * (e1 - e0) / gamma ** 2
        return math.log(total)

    def self_convolution_value(self, v: float) -> float:
        """(q ** q)(v) by exact Simpson on the piecewise-quadratic overlap."""
        a = max(self.knots[0], v - self.knots[-1])
        b = min(self.knots[-1], v - self.knots[0])
        if b <= a:
            return 0.0
        cuts = sorted({a, b, *(k for k in self.knots if a < k < b),
                       *(v - k for k in self.knots if a < v - k < b)})
        total = 0.0
        for s0, s1 in zip(cuts[:-1], cuts[1:]):
            sm = 0.5 * (s0 + s1)
            g = lambda s: self.value(s) * self.value(v - s)
            total += (s1 - s0) * (g(s0) + 4.0 * g(sm) + g(s1)) / 6.0
        return total


@dataclass(frozen=True)
class KernelAC(Component):
    """The measure q(x) dx with q(x) = int q1(x-u) base(du).

    ``q1`` is a continuous piecewise-linear density on ``[n_lo, n_hi]`` that
    vanishes at its ends.  Every untilted query is one query on the base,
    under a weight built from the kernel: a window or weight w is
    ``w.smoothed(q1)``, the density is ``R(t) = q1(-t)``, and the tail is
    the base's tail at ``x - n_lo`` plus the base under ``T(t) = 1 -
    Q1(-t)``, with R and T on ``(-n_hi, -n_lo]``.  A convolution pair takes
    its base's pair (see :mod:`subexp.convolve`).  Tilted windows and tails
    raise :class:`ParameterError`.
    """

    kernel: PiecewiseLinearDensity
    base: "MixtureDistribution"
    # R and T above, each piece's coefficients at both ends from the knot values
    _density_weight: Weight = field(init=False, repr=False, compare=False)
    _tail_weight: Weight = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        ks, vs = self.kernel.knots, self.kernel.values
        r_pieces, t_pieces, above = [], [], 0.0  # above: int_(k1)^(n_hi) q1
        for k0, k1, v0, v1, slope in reversed(tuple(zip(
                ks[:-1], ks[1:], vs[:-1], vs[1:], _kernel_slopes(self.kernel)))):
            # t in (-k1, -k0], where q1(-t) runs from v1 down the piece to v0
            r_pieces.append((-k1, -k0, (v1, -slope), (v0, -slope)))
            total = above + 0.5 * (v0 + v1) * (k1 - k0)
            t_pieces.append((-k1, -k0, (above, v1, -0.5 * slope), (total, v0, -0.5 * slope)))
            above = total
        object.__setattr__(self, "_density_weight", Weight(tuple(r_pieces)))
        object.__setattr__(self, "_tail_weight", Weight(tuple(t_pieces)))

    def support_bounds(self):
        blo, bhi = self.base.support_bounds()
        return (blo + self.kernel.knots[0], bhi + self.kernel.knots[-1])

    def log_window_mass(self, x, w, *, gamma=0.0):
        if gamma != 0.0:
            raise ParameterError("tilted windows of smoothed measures are not supported")
        return self.base.log_window_mass(x, as_weight(w).smoothed(self.kernel))

    def density_cuts(self, base, lo, hi):
        # the kernel's knots placed at either end of the base's support
        ends = self.base.support_bounds()
        return _offsets(base, [e + k for e in ends for k in self.kernel.knots], lo, hi), []

    def log_density_eval(self, base, *, gamma=0.0):
        r = self._density_weight

        def q_log(t):
            pt = base.add_offset(t) if t != 0.0 else base
            out = self.base.log_window_mass(pt, r)
            if gamma != 0.0 and out != LOG_ZERO:
                out += gamma * pt.value()
            return out

        return q_log

    def log_tail(self, x, *, gamma=0.0):
        if gamma != 0.0:
            raise ParameterError("tilted tails of smoothed measures are not supported")
        return log_add(self.base.log_tail(x.add_offset(-self.kernel.knots[0])),
                       self.base.log_window_mass(x, self._tail_weight))

    def log_exp_moment(self, gamma):
        if gamma == 0.0:
            return 0.0
        return self.kernel.log_tilt_integral(gamma) + self.base.log_exp_moment(gamma)


@dataclass(frozen=True)
class Tilted(Component):
    """Exponential reweighting e^{gamma u}/Z of a base mixture."""

    gamma: float
    base: "MixtureDistribution"
    log_norm: float

    @property
    def is_atomic(self):
        return all(comp.is_atomic for w, comp in self.base.components if w > 0.0)

    def atoms(self):
        """Reweighted atoms when the base is purely atomic (exact tilt)."""
        out = []
        for w, comp in self.base.components:
            if w <= 0.0:
                continue
            for loc, aw in comp.atoms():
                if aw <= 0.0:
                    continue
                lv = loc.value() if isinstance(loc, ScaledSum) else loc
                lw = math.log(w * aw) + self.gamma * lv - self.log_norm
                out.append((loc, math.exp(lw) if lw < 700.0 else math.inf))
        return tuple(out)

    def support_bounds(self):
        return self.base.support_bounds()

    def log_window_mass(self, x, w, *, gamma=0.0):
        return self.base.log_window_mass(x, w, gamma=self.gamma + gamma) - self.log_norm

    def log_window_mass_eval(self, base, lo, hi, w, *, gamma=0.0):
        f = self.base.log_window_mass_eval(base, lo, hi, w, gamma=self.gamma + gamma)
        ln = self.log_norm
        return lambda t: f(t) - ln

    def log_density_eval(self, base, *, gamma=0.0):
        f = self.base.log_density_eval(base, gamma=self.gamma + gamma)
        ln = self.log_norm
        return lambda t: f(t) - ln

    def log_tail(self, x, *, gamma=0.0):
        return self.base.log_tail(x, gamma=self.gamma + gamma) - self.log_norm

    def log_exp_moment(self, gamma):
        return self.base.log_exp_moment(self.gamma + gamma) - self.log_norm

    def density_cuts(self, base, lo, hi):
        return self.base.density_cuts(base, lo, hi)


# ---------------------------------------------------------------------------
# mixtures
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MixtureDistribution:
    """Weighted mixture of components; weights sum to one."""

    components: tuple  # tuple[(weight, Component)]
    # the point base: the first dip component's b, else 4
    base: float = field(init=False, repr=False, compare=False)
    # (log weight, component) of the components with weight
    _parts: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.components:
            raise ParameterError("mixture needs at least one component")
        if any(w < 0 for w, _ in self.components):
            raise ParameterError("mixture weights must be nonnegative")
        total = math.fsum(w for w, _ in self.components)
        if abs(total - 1.0) > 1e-12:
            raise ParameterError(f"mixture weights must sum to 1, got {total}")
        object.__setattr__(self, "base", next(
            (c.params.b for _w, c in self.components if isinstance(c, PhiAC)), 4.0))
        object.__setattr__(self, "_parts", tuple(
            (math.log(w), c) for w, c in self.components if w > 0.0))

    @classmethod
    def single(cls, comp: Component) -> "MixtureDistribution":
        return cls(components=((1.0, comp),))

    def support_bounds(self):
        los, his = zip(*(c.support_bounds() for _lw, c in self._parts))
        return (min(los), max(his))

    def _combine(self, fn):
        """log of the weighted sum of ``fn(comp)``; a lone component's value
        is returned as :func:`log_sum` would return it, without the sum."""
        if len(self._parts) == 1:
            lw, comp = self._parts[0]
            return lw + fn(comp) + 0.0
        return log_sum([lw + fn(comp) for lw, comp in self._parts])

    def log_window_mass(self, x, w, *, gamma=0.0):
        return self._combine(lambda comp: comp.log_window_mass(x, w, gamma=gamma))

    def log_window_mass_eval(self, base, lo, hi, w, *, gamma=0.0):
        evs = [(lw, comp.log_window_mass_eval(base, lo, hi, w, gamma=gamma))
               for lw, comp in self._parts]
        return lambda t: log_sum([lw + f(t) for lw, f in evs])

    def log_density(self, x, *, gamma=0.0):
        return self.log_density_eval(x, gamma=gamma)(0.0)

    def log_density_eval(self, base, *, gamma=0.0):
        evs = [(lw, comp.log_density_eval(base, gamma=gamma)) for lw, comp in self._parts]
        return lambda t: log_sum([lw + f(t) for lw, f in evs])

    def log_tail(self, x, *, gamma=0.0):
        return self._combine(lambda comp: comp.log_tail(x, gamma=gamma))

    def log_exp_moment(self, gamma):
        return self._combine(lambda comp: comp.log_exp_moment(gamma))

    def density_cuts(self, base, lo, hi):
        hints, centres = [], []
        for _lw, comp in self._parts:
            h, c = comp.density_cuts(base, lo, hi)
            hints += h
            centres += c
        return hints, centres


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------

def local_mass(dist: MixtureDistribution, x, w, quad=None) -> float:
    """log of dist((x, x+c]) for a width c, or of ``int w(t) dist(x + dt)``
    for a :class:`Weight` w.  The trailing spec is unread: no single-level
    query integrates adaptively."""
    w = w if isinstance(w, Weight) else _as_width(w)
    return dist.log_window_mass(as_point(x, dist.base), w)


def local_density(dist: MixtureDistribution, x, c: float, quad=None) -> float:
    """log of c^-1 dist((x-c, x]), the window density anchored at x.  The
    trailing spec is unread: no single-level query integrates adaptively."""
    c = _as_width(c)
    pt = as_point(x, dist.base).add_offset(-c)
    return dist.log_window_mass(pt, c) - math.log(c)


def tail(dist: MixtureDistribution, x, quad=None) -> float:
    """log of dist((x, inf)).  The trailing spec is unread: no single-level
    query integrates adaptively."""
    return dist.log_tail(as_point(x, dist.base))


def exp_moment(dist: MixtureDistribution, gamma: float, quad=None) -> float:
    """int e^{gamma u} dist(du); raises DivergentMomentError when infinite.
    The trailing spec is unread: no single-level query integrates adaptively."""
    if gamma == 0.0:
        return 1.0
    lm = dist.log_exp_moment(gamma)
    if lm > 700.0:
        raise DivergentMomentError("exponential moment overflows float64", gamma)
    return math.exp(lm)


def tilt(dist: MixtureDistribution, gamma: float, quad=None) -> MixtureDistribution:
    """The reweighting e^{gamma u} dist(du) / Z, with Z checked finite.  The
    trailing spec is unread: no single-level query integrates adaptively.

    Tilting a tilted mixture combines the exponents analytically; in
    particular a round trip tilt(tilt(d, g), -g) has total exponent zero and
    unit normalizer, so it reproduces d's masses through the same code path.
    """
    if gamma == 0.0 and not _is_pure_tilt(dist):
        return dist
    if _is_pure_tilt(dist):
        inner: Tilted = dist.components[0][1]
        g_total = inner.gamma + gamma
        base = inner.base
    else:
        g_total = gamma
        base = dist
    if g_total == 0.0:
        return base
    log_norm = base.log_exp_moment(g_total)
    if log_norm > 700.0:
        raise DivergentMomentError("tilt normalizer overflows float64", g_total)
    return MixtureDistribution.single(Tilted(gamma=g_total, base=base, log_norm=log_norm))


def _is_pure_tilt(dist: MixtureDistribution) -> bool:
    return len(dist.components) == 1 and isinstance(dist.components[0][1], Tilted)
