"""Convolutions: pointwise self-convolution of the dip density, window masses
of convolutions of mixtures, n-fold powers, kernel smoothing, and a
brute-force Riemann oracle for cross-validation.

Window masses of a convolution expand bilinearly over component pairs, and
each takes a :class:`~subexp.measures.Weight` in place of its window: the
window (x, x+c] is the weight's one-piece constant case, and ``int w(t)
(A*B)(x + dt)`` is one integral however many shifted windows the weight
averages.  Atoms shift the weight.  A uniform factor is a weight: for U on
(l, l+h], ``int w(t) (A*U)(x + dt) = int W(t) A(x + dt)`` with ``W(t) =
(1/h) int_l^{l+h} w(t+u) du`` (:meth:`~subexp.measures.Weight.averaged`),
so the pair is one weighted mass of A, with no outer integral.  A kernel
factor is a weight as well: for K = q * B, ``int w(t) (K*C)(x + dt) = int
W(t) (B*C)(x + dt)`` with ``W = w.smoothed(q)``, so the pair is the pair of
its base with C (:meth:`~subexp.measures.Weight.smoothed`).  Other
absolutely continuous pairs reduce to an outer integral of one side's
density against the other side's weighted masses at the shifted point.
Those come from one evaluator per outer integral,
``log_window_mass_eval(x, -ohi, -olo, w)``, which sets up the
inner measure's windows over the whole range once and takes offsets from
x's head and exact remainder, so near x dip phases survive the
subtraction exactly; a node then costs its closed forms and a bisection
into the range's structure.  A density at a point, such as the dip
density's self-convolution, is the same integral with the inner density
``log_density_eval(x)`` in place of the masses (see :func:`_outer_integral`).
Every such integral takes its cuts from the components' one structure
query, ``density_cuts``: the outer density's own hints and dip centres, and
the inner measure's hints reflected through each knot of the weight ``x + s
- u``, or through x itself for a density (see :func:`_crossings`).  A
component paired with itself folds the outer range at (x + t_lo)/2, x/2 for
a window or a point, by the exchange symmetry u <-> v (see
:func:`_self_pair_window_mass`): every inner weight then starts there or
beyond, which cut one ``mu*mu`` window at 4^6*3 from 50,531 integrand
evaluations to 3,756 at ``rel_tol = 1e-7``.

For the dip-density pair at points above ``ConvPlan.split_threshold``
(1e8), too large to traverse numerically, the integral is split at ``L =
(log x)^beta``: the two near-edge pieces are computed numerically (they are
equal by symmetry) and the middle piece is covered by the envelope bound ``2
(int w) K^2 (2/(x + t_lo))^(1+alpha) L^(-alpha) / alpha``, so the result is a
certified (lower, upper) bracket rather than a point value.  Downstream ratio
probes propagate such brackets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .errors import ParameterError
from .logsum import LOG_ZERO, log_add, log_sum
from .quadrature import QuadratureSpec, integrate_log
from .scaledcore import ModelParams, PeriodicProfile, ScaledSum, as_point
from .measures import (
    KernelAC,
    MixtureDistribution,
    ParetoAC,
    PhiAC,
    UniformAC,
    Weight,
    as_weight,
)


@dataclass(frozen=True)
class LogBracket:
    """Certified log-scale interval [lo, hi] for a positive quantity."""

    lo: float
    hi: float

    @property
    def mid(self) -> float:
        return 0.5 * (self.lo + self.hi)

    @property
    def width(self) -> float:
        return self.hi - self.lo


def bracket_pair(v) -> tuple:
    if isinstance(v, LogBracket):
        return v.lo, v.hi
    return v, v


def _combine_log_terms(terms):
    """log-sum-exp over a list of floats or LogBrackets."""
    if any(isinstance(t, LogBracket) for t in terms):
        lo = log_sum([bracket_pair(t)[0] for t in terms])
        hi = log_sum([bracket_pair(t)[1] for t in terms])
        if hi - lo < 1e-15:
            return lo
        return LogBracket(lo, hi)
    return log_sum(terms)


def _shift_terms(terms, delta: float):
    if isinstance(terms, LogBracket):
        return LogBracket(terms.lo + delta, terms.hi + delta)
    return terms + delta


@dataclass(frozen=True)
class ConvPlan:
    """The split rule of the dip-density pair: at points above
    ``split_threshold`` its window masses and its density switch from full
    numeric integration to the split-plus-bracket form of
    :func:`_phi_pair_split`."""

    params: ModelParams
    split_threshold: ClassVar[float] = 1e8

    def splits(self, x: ScaledSum) -> bool:
        return x.sign() > 0 and x.log_abs() > math.log(self.split_threshold)


# ---------------------------------------------------------------------------
# dip-density self-convolution at a point
# ---------------------------------------------------------------------------

def phi_self_conv_at(profile: PeriodicProfile, x, quad: QuadratureSpec):
    """log of (phi (x) phi)(x) = log 2 int_1^{x/2} phi(x-u) phi(u) du for the
    raw profile: the density case of the self pair of ``PhiAC(profile,
    m_log=0)`` (see :func:`_self_pair_density`).

    Returns a float for representable points, a :class:`LogBracket` beyond
    the split threshold.
    """
    p = profile.params
    x = as_point(x, p.b)
    if x.sign() <= 0 or x.log_abs() <= math.log(2.0):
        return LOG_ZERO
    phi = PhiAC(profile=profile, m_log=0.0)
    if ConvPlan(p).splits(x):
        return _phi_pair_split(phi, phi, x, None, quad)
    return _self_pair_density(phi, x, 1.0, quad)


def _self_pair_density(comp, x: ScaledSum, lo: float, quad) -> float:
    """log of 2 int_lo^{x/2} a(u) a(x-u) du, a the component's density: for
    lo at or below its support, the density (A*A)(x), folded at x/2 by the
    exchange u <-> x-u.  A point has no diagonal term, unlike a weight (see
    :func:`_self_pair_window_mass`)."""
    xv = x.value()
    half = 0.5 * xv
    if half <= lo:
        return LOG_ZERO
    return math.log(2.0) + _outer_integral(comp, comp, x, xv, lo, half, quad,
                                           comp.log_density_eval(x), (0.0,))


# ---------------------------------------------------------------------------
# window masses of convolutions
# ---------------------------------------------------------------------------

def conv_local_mass(d1: MixtureDistribution, d2: MixtureDistribution, x, w,
                    quad: QuadratureSpec):
    """log of (d1 * d2)((x, x+c]) for a width c, or of ``int w(t) (d1 *
    d2)(x + dt)`` for a :class:`~subexp.measures.Weight` w; LogBracket when a
    far-tail bound is active."""
    w = as_weight(w)
    x = as_point(x, d1.base)
    terms = []
    for w1, c1 in d1.components:
        if w1 == 0.0:
            continue
        for w2, c2 in d2.components:
            if w2 == 0.0:
                continue
            pair = _pair_window_mass(c1, c2, x, w, quad)
            if pair == LOG_ZERO:
                continue
            terms.append(_shift_terms(pair, math.log(w1) + math.log(w2)))
    return _combine_log_terms(terms) if terms else LOG_ZERO


def _pair_window_mass(c1, c2, x: ScaledSum, w: Weight, quad):
    if c1.is_atomic:
        terms = []
        for loc, aw in c1.atoms():
            if aw <= 0.0:
                continue
            pt = x.sub(loc) if isinstance(loc, ScaledSum) else x.add_offset(-loc)
            m = c2.log_window_mass(pt, w)
            if m != LOG_ZERO:
                terms.append(_shift_terms(m, math.log(aw)))
        return _combine_log_terms(terms) if terms else LOG_ZERO
    if c2.is_atomic:
        return _pair_window_mass(c2, c1, x, w, quad)
    if type(c1) is UniformAC:
        return c2.log_window_mass(x, w.averaged(c1.left, c1.width))
    if type(c2) is UniformAC:
        return c1.log_window_mass(x, w.averaged(c2.left, c2.width))
    for k, other in ((c1, c2), (c2, c1)):
        if type(k) is KernelAC:
            return conv_local_mass(k.base, MixtureDistribution.single(other), x,
                                   w.smoothed(k.kernel), quad)

    if isinstance(c1, PhiAC) and isinstance(c2, PhiAC) and ConvPlan(c1.params).splits(x):
        return _phi_pair_split(c1, c2, x, w, quad)

    xv = x.value()
    if c1 == c2 and math.isfinite(xv):
        return _self_pair_window_mass(c1, x, xv, w, quad)

    lo1, hi1 = c1.support_bounds()
    lo2, hi2 = c2.support_bounds()
    outer, inner = c1, c2
    olo, ohi, ilo = lo1, hi1, lo2
    if not math.isfinite(hi1) and math.isfinite(hi2):
        outer, inner = c2, c1
        olo, ohi, ilo = lo2, hi2, lo1

    if math.isfinite(xv):
        ohi = min(ohi, xv + w.hi - ilo)
    if not math.isfinite(ohi):
        raise ParameterError(
            "convolution pair with two unbounded supports beyond float range "
            "is only handled for the dip-density pair")
    if ohi <= olo:
        return LOG_ZERO

    return _outer_integral(outer, inner, x, xv, olo, ohi, quad,
                           inner.log_window_mass_eval(x, -ohi, -olo, w), w.knots)


def _outer_integral(outer, inner, x: ScaledSum, xv: float, olo: float, ohi: float,
                    quad, mass, shifts) -> float:
    """log of int_olo^ohi a(u) B(x-u) du, a the outer density and ``mass(t) =
    log B(x + t)`` the inner measure's evaluator from the caller: its weighted
    mass ``B_w(z) = int w(t) B(z + dt)``, from ``log_window_mass_eval(x,
    -ohi, -olo, w)`` with the weight's knots as ``shifts``, or its density,
    from ``log_density_eval(x)`` with shifts ``(0.0,)``.  Cut where the
    density or a shifted point ``x + s - u`` meets structure (see
    :func:`_crossings`); with no shifts, where the density does."""
    f = _product_integrand(outer, mass, x)
    hints, centres = outer.density_cuts(ScaledSum.zero(x.b), olo, ohi)
    c_hints, c_centres = _crossings(inner, x, xv, olo, ohi, shifts)
    return integrate_log(f, olo, ohi, quad, hints=hints + c_hints,
                         singular=centres + c_centres)


def _crossings(inner, x: ScaledSum, xv: float, olo: float, ohi: float, shifts) -> tuple:
    """Outer abscissae u in [olo, ohi] where a window end or knot x + s - u,
    s in ``shifts``, meets the inner measure's structure, as (hints,
    centres): u = s - t for each cut t of ``inner.density_cuts(x, s - ohi, s
    - olo)``.  Where x + s - u crosses a dip centre the mass is C^1 with an
    unbounded second derivative, so those are singular points of the outer
    integral.  None beyond float range."""
    hints, centres = [], []
    if math.isfinite(xv):
        for s in shifts:
            edges, cs = inner.density_cuts(x, s - ohi, s - olo)
            hints += [s - t for t in edges]
            centres += [s - t for t in cs]
    return hints, centres


def _product_integrand(outer, mass, x: ScaledSum):
    """u -> log of a(u) B(x-u), a the outer density and ``mass(t) = log B(x +
    t)`` the inner factor: a density, a weighted mass from one evaluator over
    the span, or a pair's mass.  Every product integrand is this one.  Where
    the mass carries a batch form ``mass.many``, so does the integrand (see
    :func:`~subexp.quadrature.integrate_log`): a round takes the densities at
    once where the density has a batch form too, and the masses where the
    density is positive."""
    dens = outer.log_density_eval(ScaledSum.zero(x.b))
    dens_many = getattr(dens, "many", None)

    def f(u):
        a = dens(u)
        if a == LOG_ZERO:
            return LOG_ZERO
        m = mass(-u)
        if m == LOG_ZERO:
            return LOG_ZERO
        return a + m

    many = getattr(mass, "many", None)
    if many is not None:
        def f_many(us):
            out = dens_many(us) if dens_many is not None else [dens(u) for u in us]
            live = [i for i, a in enumerate(out) if a != LOG_ZERO]
            for i, m in zip(live, many([-us[i] for i in live])):
                out[i] = LOG_ZERO if m == LOG_ZERO else out[i] + m
            return out

        f.many = f_many
    return f


def _self_pair_window_mass(comp, x: ScaledSum, xv: float, w: Weight, quad):
    """``int w(t) (A*A)(x + dt)`` for one absolutely continuous component,
    folded at ``(x + t_lo)/2``, with w supported on ``(t_lo, t_hi]``.

    The exchange u <-> v maps the weight's strip onto itself, so it is twice
    the part with u < v:

        2 [ int_lo^{(x+t_lo)/2} a(u) A_w(x-u) du
            + int_{(x+t_lo)/2}^{(x+t_hi)/2} a(u) int_{v>u} w(u+v-x) A(dv) du ].

    In the first integral v > x + t_lo - u >= u holds already; the second
    covers the triangle next to the diagonal, where the inner weight, cut at
    v = u, shrinks to nothing at u = (x+t_hi)/2.  Every inner weight thus
    starts at (x+t_lo)/2 or beyond, away from the small points where a unit
    window crosses many dip rings.
    """
    lo, hi = comp.support_bounds()
    zero = ScaledSum.zero(x.b)
    terms = []

    half = 0.5 * (xv + w.lo)
    n_hi = min(half, hi)
    if n_hi > lo:
        terms.append(_outer_integral(comp, comp, x, xv, lo, n_hi, quad,
                                     comp.log_window_mass_eval(x, -n_hi, -lo, w), w.knots))
    d_lo, d_hi = max(half, lo), min(0.5 * (xv + w.hi), hi)
    if d_hi > d_lo:
        # every inner weight lies in (d_lo, x + t_hi - d_lo], one set-up
        mass = comp.log_weight_mass_eval(zero, d_lo, xv + w.hi - d_lo)

        def inner_mass(t):
            inner = w.shift(xv + t, above=-t)  # at u = -t: v -> w(u + v - x), v > u
            return LOG_ZERO if inner is None else mass(inner)

        # the inner weight starts at u, on the density's own structure, and
        # its moving knots x+s-u cross the structure reflected
        terms.append(_outer_integral(comp, comp, x, xv, d_lo, d_hi, quad, inner_mass,
                                     w.knots[1:]))
    return math.log(2.0) + log_sum(terms)


def _phi_pair_split(c1: PhiAC, c2: PhiAC, x: ScaledSum, w: Weight | None, quad):
    """Split-plus-bracket weighted mass for the dip-density pair at huge x,
    or its density at x for ``w = None``.

    ``int w(t) (phi1*phi2)(x + dt) = 2 int_1^L f1(u) F2_w(x-u) du + middle``,
    with w supported on ``(t_lo, t_hi]``, ``F2_w(z) = int w(t) F2(z + dt)``
    and L = (log x)^beta.  The doubling is exact because {u <= L} and {v <=
    L} contribute symmetrically and cannot overlap where u + v > x + t_lo,
    and ``0 <= middle <= 2 (int w) K^2 (2/(x+t_lo))^(1+alpha) L^(-alpha) /
    alpha`` in normalized units, since the larger of u and v exceeds
    ``(x+t_lo)/2`` there.  A point has ``int w = 1`` and ``t_lo = 0``.
    """
    p = c1.params
    xlog = x.log_abs()
    L = xlog ** p.beta
    if w is None:
        mass, log_w, log_left = c2.log_density_eval(x), 0.0, xlog
    else:
        mass, log_w = c2.log_window_mass_eval(x, -L, -1.0, w), math.log(w.mass())
        log_left = xlog + math.log1p(w.lo * math.exp(-min(xlog, 700.0)))
    if math.log(2.0 * L) >= log_left:
        raise ParameterError("split point exceeds (x + t_lo)/2; point too small for split mode")

    numeric = math.log(2.0) + _outer_integral(c1, c2, x, x.value(), 1.0, L, quad, mass, ())
    k_log = math.log(c1.profile.plateau)
    bound = (math.log(2.0) + log_w + 2.0 * k_log - c1.m_log - c2.m_log
             + (1.0 + p.alpha) * (math.log(2.0) - log_left)
             - math.log(p.alpha) - p.alpha * math.log(L))
    return LogBracket(numeric, log_add(numeric, bound))


def nfold_local_mass(dist: MixtureDistribution, n: int, x, w,
                     quad: QuadratureSpec):
    """log of dist^{n*}((x, x+c]) for n in {1, 2, 3}, or of its weighted mass
    for a :class:`~subexp.measures.Weight` w."""
    if n not in (1, 2, 3):
        raise ParameterError(f"n-fold masses support n in {{1,2,3}}, got {n}")
    w = as_weight(w)
    x = as_point(x, dist.base)
    if n == 1:
        return dist.log_window_mass(x, w)
    if n == 2:
        return conv_local_mass(dist, dist, x, w, quad)

    def pair(pt):
        m2 = conv_local_mass(dist, dist, pt, w, quad)
        if isinstance(m2, LogBracket):
            raise ParameterError("3-fold masses do not propagate far-tail brackets")
        return m2

    terms = []
    for wt, comp in dist.components:
        if wt == 0.0:
            continue
        lw = math.log(wt)
        if comp.is_atomic:
            for loc, aw in comp.atoms():
                if aw <= 0.0:
                    continue
                m2 = pair(x.sub(loc) if isinstance(loc, ScaledSum) else x.add_offset(-loc))
                if m2 != LOG_ZERO:
                    terms.append(lw + math.log(aw) + m2)
        else:
            lo, hi = comp.support_bounds()
            xv = x.value()
            if not math.isfinite(xv):
                raise ParameterError("3-fold masses need float-representable points")
            hi = min(hi, xv + w.hi)
            if hi <= lo:
                continue
            f = _product_integrand(comp, lambda t: pair(x.add_offset(t)), x)
            # the pair's density changes formula where its argument x + s - u
            # is a cut of the component shifted by its support's lower edge
            hints, centres = comp.density_cuts(ScaledSum.zero(x.b), lo, hi)
            p_hints, _ = _crossings(comp, x.add_offset(-lo), xv - lo, lo, hi, w.knots)
            terms.append(lw + integrate_log(f, lo, hi, quad, hints=hints + p_hints,
                                            singular=centres))
    return log_sum(terms) if terms else LOG_ZERO


# ---------------------------------------------------------------------------
# brute-force Riemann oracle
# ---------------------------------------------------------------------------

def phi_values(profile: PeriodicProfile, u: np.ndarray) -> np.ndarray:
    """Vectorized raw dip density (linear scale) for oracle grids."""
    p = profile.params
    u = np.asarray(u, dtype=float)
    out = np.zeros_like(u)
    pos = u >= 1.0
    if not np.any(pos):
        return out
    v = u[pos]
    lnb = p.log_b
    m = np.floor(np.log(v) / lnb)
    y = v / p.b ** m
    y = np.where(y >= p.b, y / p.b, y)
    y = np.where(y < 1.0, y * p.b, y)
    d = np.abs(y - p.x0)
    h = np.full_like(v, profile.plateau)
    dip = (d < p.delta) & (d > 0.0)
    h[dip] = -1.0 / np.log(d[dip])
    h[d == 0.0] = 0.0
    out[pos] = v ** (-p.alpha - 1.0) * h
    return out


def mixture_density_grid(dist: MixtureDistribution, u: np.ndarray) -> np.ndarray:
    """Vectorized density of an absolutely continuous mixture on a float grid."""
    u = np.asarray(u, dtype=float)
    out = np.zeros_like(u)
    for w, comp in dist.components:
        if w == 0.0:
            continue
        if isinstance(comp, PhiAC):
            out += w * phi_values(comp.profile, u) / math.exp(comp.m_log)
        elif isinstance(comp, UniformAC):
            lo, hi = comp.support_bounds()
            out += w * ((u >= lo) & (u < hi)) / comp.width
        elif isinstance(comp, ParetoAC):
            a = comp.shape
            mask = u >= 0.0
            vals = np.zeros_like(u)
            vals[mask] = a * (1.0 + u[mask]) ** (-a - 1.0)
            out += w * vals
        else:
            raise ParameterError(f"no vectorized density for {type(comp).__name__}")
    return out


_MAX_ORACLE_POINTS = 2e8
# midpoints summed per numpy pass of an oracle
_ORACLE_CHUNK = 4_000_000


def _check_grid(lo, hi, step):
    if step > 1e-3:
        raise ParameterError(f"oracle step must be <= 1e-3, got {step}")
    if not (-1e6 <= lo < hi <= 1e6):
        raise ParameterError("oracle supports are truncated to [-1e6, 1e6]")
    if (hi - lo) / step > _MAX_ORACLE_POINTS:
        raise ParameterError("oracle grid exceeds the memory budget")


def oracle_window_mass(density_grid, lo: float, hi: float, step: float) -> float:
    """Midpoint-Riemann integral of a vectorized density over [lo, hi].

    Chunk sums are combined with math.fsum, so the summation error stays at
    the level of a single rounding.
    """
    _check_grid(lo, hi, step)
    n = max(1, int(round((hi - lo) / step)))
    edges = np.linspace(lo, hi, n + 1)
    partials = []
    for i in range(0, n, _ORACLE_CHUNK):
        j = min(n, i + _ORACLE_CHUNK)
        mids = 0.5 * (edges[i:j] + edges[i + 1:j + 1])
        partials.append(float(np.sum(density_grid(mids) * np.diff(edges[i:j + 1]))))
    return math.fsum(partials)


def oracle_conv_density_at(grid1, grid2, x: float, lo: float, hi: float,
                           step: float) -> float:
    """Midpoint-Riemann value of (f1 (x) f2)(x) over u in [lo, hi]."""
    _check_grid(lo, hi, step)
    n = max(1, int(round((hi - lo) / step)))
    edges = np.linspace(lo, hi, n + 1)
    partials = []
    for i in range(0, n, _ORACLE_CHUNK):
        j = min(n, i + _ORACLE_CHUNK)
        mids = 0.5 * (edges[i:j] + edges[i + 1:j + 1])
        partials.append(float(np.sum(grid1(mids) * grid2(x - mids)
                                     * np.diff(edges[i:j + 1]))))
    return math.fsum(partials)


def brute_force_conv_oracle(d1: MixtureDistribution, d2: MixtureDistribution,
                            x_points, step: float, lo: float | None = None,
                            hi: float | None = None) -> list:
    """Density table of d1 * d2 at the given points by midpoint Riemann sums."""
    lo1, hi1 = d1.support_bounds()
    lo = lo1 if lo is None else lo
    hi = (max(x_points) - lo1 + 1.0) if hi is None else hi
    lo = max(lo, -1e6)
    hi = min(hi, 1e6)
    g1 = lambda u: mixture_density_grid(d1, u)
    g2 = lambda u: mixture_density_grid(d2, u)
    return [(float(xp), oracle_conv_density_at(g1, g2, float(xp), lo, hi, step))
            for xp in x_points]
