"""Window masses, tails, normalizers and the pair masses built on them,
against one mpmath reference for a mass; the profile at a point, against the
exact point in mpmath.

The reference, ``_mp_mass``, is ``log int w(t) e^(gamma (x+t)) C(x + dt)`` at
the exact point of x, for C the dip density, a Pareto or a uniform density,
under a window, a tail or polynomial weight pieces, by mpmath at 50 digits.
Closed-form queries run under ``no_quadrature`` and must agree with it to
``rel_tol`` or better, as must the outer integrals that still run a
quadrature.  ``log phi`` and the profile's value at points ``4^n y + t`` up to
``n = 1024`` must agree to 1e-12 with the same formulas at the exact point.
"""

import dataclasses
import functools
import math
from bisect import bisect_right
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from subexp import (GallerySpec, KernelAC, MixtureDistribution, ModelParams, ParetoAC,
                    PeriodicProfile, PhiAC, ScaledSum, SequenceSpec, UniformAC,
                    build_mu, conv_local_mass, integrate_log, local_density, local_mass,
                    make_sequence, phi_self_conv_at, tail, tilt)
from subexp import measures
from subexp.measures import PiecewiseLinearDensity, Weight, phi_integral_log
from subexp.scaledcore import (DOMINANCE, DUST, PointPhase, _range_fix, phi_log_value,
                               phi_window_log_eval, point_lambda)

mp = pytest.importorskip("mpmath")

DPS = 50
# Bits that hold every point below exactly: b^n y with b = 4 and n <= 1024,
# a term beyond float range and float offsets, down to 2^-1074, span about
# 3,130 bits.  Sums, mantissas and dip distances are then exact in mpmath;
# the logs of exact values are taken at 128 bits.
EXACT_PREC = 3500
LOG_PREC = 128


@pytest.fixture
def no_quadrature(monkeypatch):
    """Fail the test if ``measures`` or ``convolve`` runs a quadrature: the
    query under test must be a closed form."""
    def raiser(*args, **kwargs):
        raise AssertionError("a closed-form query ran a quadrature")

    for module in ("measures", "convolve"):
        monkeypatch.setattr(f"subexp.{module}.integrate_log", raiser)


# ---------------------------------------------------------------------------
# the mass reference
# ---------------------------------------------------------------------------

def _mp_point(x, t=0.0):
    """``x + t`` as an exact mpf, for a ScaledSum or a float x; call under
    ``mp.workprec(EXACT_PREC)``."""
    if not isinstance(x, ScaledSum):
        return mp.mpf(x) + mp.mpf(t)
    b = mp.mpf(x.b)
    return sum((s * mp.mpf(y) * b ** m for s, m, y in x.terms), mp.mpf(x.offset) + mp.mpf(t))


def _mp_cell(params, u):
    """The scale m of the cell [b^m, b^(m+1)) of an exact point u >= 1."""
    b = mp.mpf(params.b)
    with mp.workprec(64):
        m = int(mp.floor(mp.log(u) / mp.log(b)))
    return m + (u >= b ** (m + 1)) - (u < b ** m)


def _mp_poly(lo, coeffs):
    """``t -> sum_j coeffs[j] (t - lo)^j``."""
    lo, coeffs = mp.mpf(lo), [mp.mpf(c) for c in coeffs]
    return lambda t: mp.fsum(c * (t - lo) ** j for j, c in enumerate(coeffs))


def _mp_weight(w):
    """The pieces ``(lo, hi, f)`` of a weight in offsets t: a width c is the
    window (0, c], and c = inf the tail; a Weight gives its polynomial pieces,
    and a list is the pieces themselves."""
    if isinstance(w, list):
        return w
    if not isinstance(w, Weight):
        return [(mp.mpf(0), mp.mpf(w), lambda t: 1)]
    return [(mp.mpf(lo), mp.mpf(hi), _mp_poly(lo, c)) for lo, hi, c, _upper in w.pieces]


def _mp_averaged(w, left, width):
    """The pieces of ``W(t) = (1/h) int_l^{l+h} w(t + s) ds``, l = left and
    h = width, between the knots of w less l and l + h: the weight that a
    uniform factor U(l, l+h] of a pair puts on the other factor.  W is
    ``(T(t + l) - T(t + l + h)) / h`` from the exact antiderivative
    ``T(z) = int_z^inf w``, one function on every piece."""
    with mp.workdps(DPS):
        # each piece's ends and antiderivative from its lower end
        pieces = [(mp.mpf(lo), mp.mpf(hi),
                   _mp_poly(lo, (0, *(mp.mpf(c) / (j + 1) for j, c in enumerate(q)))))
                  for lo, hi, q, _upper in w.pieces]
        # the mass of w at and above each piece
        above = [mp.fsum(F(hi) for _lo, hi, F in pieces[k:]) for k in range(len(pieces))]
        l, h = mp.mpf(left), mp.mpf(width)
        knots = sorted({mp.mpf(k) - s for k in w.knots for s in (l, l + h)})

    def tail(z):
        k = bisect_right(pieces, z, key=lambda p: p[0]) - 1
        return above[0] if k < 0 else above[k] - pieces[k][2](min(z, pieces[k][1]))

    def avg(t):
        return (tail(t + l) - tail(t + l + h)) / h

    return [(a, c, avg) for a, c in zip(knots, knots[1:])]


def _mp_segments(comp, u, lo, hi, gamma=0.0):
    """The density of ``comp``, tilted by ``e^(gamma u)``, at u + t for the
    offsets t in (lo, hi] on its support, as pieces ``(t0, t1, scale, rel)``:
    ``scale`` is the density at u + t0 without its dip profile, and ``rel(t)``
    the density at u + t over ``scale``.  The dip density's pieces end at
    its cell and ring edges and centres; each takes its dip distance from
    the exact offset from its centre, over the cell's scale.  u, lo and
    hi are exact (call under ``mp.workprec(EXACT_PREC)``); the pieces are
    50-digit mpfs."""
    dip = isinstance(comp, PhiAC)
    if dip:
        p = comp.profile.params
        b, support = mp.mpf(p.b), (1, mp.inf)
    elif isinstance(comp, ParetoAC):
        support = (0, mp.inf)
    else:
        support = (mp.mpf(comp.left), mp.mpf(comp.left) + comp.width)
    lo, hi = max(lo, support[0] - u), min(hi, support[1] - u)
    if hi <= lo:
        return []
    ends = {lo, hi}
    if dip:
        for m in range(_mp_cell(p, u + lo), _mp_cell(p, u + hi) + 1):
            for v in (1, p.x0 - p.delta, p.x0, p.x0 + p.delta):
                t = b ** m * v - u
                if lo < t < hi:
                    ends.add(t)
    ends = sorted(ends)
    out = []
    for t0, t1 in zip(ends, ends[1:]):
        base = u + t0
        if dip:
            m = _mp_cell(p, u + (t0 + t1) / 2)
            centre = b ** m * p.x0 - u
        with mp.workdps(DPS):
            t0, t1, base, g = mp.mpf(t0), mp.mpf(t1), mp.mpf(base), mp.mpf(gamma)
            if dip:
                a1, inv = p.alpha + 1, 1 / base
                scale = base ** -a1 / mp.exp(mp.mpf(comp.m_log))
                log_delta, plateau = mp.log(p.delta), -1 / mp.log(mp.mpf(p.delta))

                def rel(t, t0=t0, inv=inv, c=mp.mpf(centre), unit=b ** -m):
                    d = abs(t - c) * unit
                    if d == 0:
                        return mp.mpf(0)
                    dlog = mp.log(d)
                    h = -1 / dlog if dlog < log_delta else plateau
                    return (1 + (t - t0) * inv) ** -a1 * h
            elif isinstance(comp, ParetoAC):
                a1, inv = mp.mpf(comp.shape) + 1, 1 / (1 + base)
                scale = comp.shape * (1 + base) ** -a1

                def rel(t, t0=t0, inv=inv):
                    return (1 + (t - t0) * inv) ** -a1
            else:
                scale = 1 / mp.mpf(comp.width)

                def rel(t):
                    return 1
            if g:
                out.append((t0, t1, scale * mp.exp(g * base),
                            lambda t, rel=rel, t0=t0: rel(t) * mp.exp(g * (t - t0))))
            else:
                out.append((t0, t1, scale, rel))
    return out


@functools.lru_cache(maxsize=None)
def _mp_raw_mass(params):
    """The raw dip mass above 1: ``int_1^b phi / (1 - b^-alpha)`` by
    self-similarity."""
    raw = PhiAC(profile=PeriodicProfile(params), m_log=0.0)
    cell = _mp_mass(raw, 0.0, Weight(((1.0, params.b, (1.0,)),)))
    with mp.workdps(DPS):
        return mp.exp(cell) / (1 - mp.mpf(params.b) ** -params.alpha)


def _mp_mass(comp, x, weight=1.0, gamma=0.0):
    """``log int w(t) e^(gamma (x+t)) C(x + dt)`` at the exact point of x, for
    C = ``comp``: a PhiAC (the dip density over ``e^m_log``, so the raw one
    at ``m_log = 0``), a ParetoAC or a UniformAC; w is a weight as
    ``_mp_weight`` reads it.  Each piece of w is integrated over the
    density's pieces (``_mp_segments``) by mpmath at 50 digits: Gauss-Legendre
    where the tilt and the Pareto's scale ``1 + u`` change the density by
    e^4 or less over the piece, tanh-sinh elsewhere, and in units of that
    scale on an unbounded piece.
    A dip tail runs to 60 e-folds of its tilt or, untilted, to the next
    ``b^K``, beyond which it is ``b^(-alpha K)`` of the raw mass.  -inf where
    the weight misses the support."""
    with mp.workprec(EXACT_PREC):
        u = _mp_point(x)
        total, parts = mp.mpf(0), []
        for lo, hi, f in _mp_weight(weight):
            if isinstance(comp, PhiAC) and hi == mp.inf:
                p = comp.profile.params
                start = max(u + lo, 1)
                if gamma:
                    hi = start - u + 60 / abs(mp.mpf(gamma)) + 10
                else:
                    k = _mp_cell(p, start) + 1
                    hi = mp.mpf(p.b) ** k - u
                    with mp.workdps(DPS):
                        total += (mp.mpf(p.b) ** (-p.alpha * k) * _mp_raw_mass(p)
                                  / mp.exp(mp.mpf(comp.m_log)))
            parts += [(seg, f) for seg in _mp_segments(comp, u, lo, hi, gamma)]
    with mp.workdps(DPS):
        for (t0, t1, scale, rel), f in parts:
            def g(t, f=f, rel=rel):
                return f(t) * rel(t)

            # the length over which the density changes by a factor of about e
            length = min(1 / abs(mp.mpf(gamma)) if gamma else mp.inf,
                         1 + mp.mpf(u) + t0 if isinstance(comp, ParetoAC) else mp.inf)
            # in units of that length or of the piece's width: mpmath's quad
            # stops on an absolute error
            if t1 == mp.inf:
                part = length * mp.quad(lambda s: g(t0 + length * s), [0, 1, mp.inf])
            else:
                width = t1 - t0
                smooth = not isinstance(comp, PhiAC) and width <= 4 * length
                part = width * mp.quad(lambda s: g(t0 + width * s), [0, 1],
                                       method="gauss-legendre" if smooth else "tanh-sinh")
            total += scale * part
        return mp.log(total) if total > 0 else -math.inf


def _agree(got, ref, tol=1e-12):
    return got == ref if ref == -math.inf else abs(got - float(ref)) <= tol


def _tail_tol(gamma, x):
    """1e-12 plus the conditioning of ``e^(gamma x)`` at a point rounded to
    its ulp."""
    return 1e-12 + 4.0 * abs(gamma * x) * 2.0 ** -53


_G1 = Weight.window(1.0).smoothed(PiecewiseLinearDensity.triangle(0.0, 1.0))
_G2 = _G1.smoothed(PiecewiseLinearDensity.triangle(0.0, 1.0))
# the smoothed-pair weights G1 over (-1, 1] and G2 over (-2, 1], and the
# triangle(0, 2) kernel reflected, R(t) = q1(-t) on (-2, 0]
_WEIGHTS = {"g1": _G1, "g2": _G2,
            "triangle": Weight(((-2.0, -1.0, (0.0, 1.0)), (-1.0, 0.0, (1.0, -1.0))))}


# ---------------------------------------------------------------------------
# window masses, tails and normalizers
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("side", [-1, 1])
def test_centre_segment_tanh_sinh(params, profile, quad, side):
    lo, hi = sorted((params.x0, params.x0 + side * params.delta))
    ev = phi_window_log_eval(profile, ScaledSum.zero(params.b))
    got = integrate_log(ev, lo, hi, quad, singular=[params.x0])
    ref = _mp_mass(PhiAC(profile=profile, m_log=0.0), 0.0, Weight(((lo, hi, (1.0,)),)))
    assert abs(got - float(ref)) <= quad.rel_tol


@pytest.mark.parametrize("n", [1, 64, 1024])
def test_plateau_window_closed_form(mu, quad, no_quadrature, n):
    phi = mu.components[0][1]
    x = ScaledSum.scaled(n, 3.0)
    assert abs(phi.log_window_mass(x, 1.0) - float(_mp_mass(phi, x))) <= quad.rel_tol


@pytest.mark.parametrize("n", [6, 64, 1024])
def test_anchor_window(mu, params, quad, n):
    # the window (b^n x0, b^n x0 + 1] starts at a dip centre: one tanh-sinh segment
    phi = mu.components[0][1]
    x = ScaledSum.scaled(n, params.x0)
    assert abs(phi.log_window_mass(x, 1.0) - float(_mp_mass(phi, x))) <= quad.rel_tol


def test_window_narrower_than_rounding_at_a_centre(mu):
    # (x, x+c] holds the centre b^2 x0 = 32 and c is below ulp(x) / 1e-9:
    # in offsets from x the dip distance near the centre rounds to ulp(x)
    x, c = 31.999999999785675, 4.2864911620199564e-10
    ref = _mp_mass(mu.components[0][1], x, c)
    assert abs(local_mass(mu, x, c) - float(ref)) <= 1e-9


def test_normalizer_cell(params, profile, quad_fast):
    # the period cell [1, b] holds the dip centre x0, flagged like any other
    got = phi_integral_log(profile, 1.0, params.b, quad_fast)
    ref = _mp_mass(PhiAC(profile=profile, m_log=0.0), 0.0, Weight(((1.0, params.b, (1.0,)),)))
    assert abs(got - float(ref)) <= 1e-9


def _mp_series_power(q, L, j, a1):
    """The dip series of one power j, ``sum_k C(-a1, k) q^k e^w E1(w)`` with
    ``w = (k+j+1) L``, summed until a term is below 10^-40 of the sum."""
    with mp.workdps(DPS):
        total, coef, k = mp.mpf(0), mp.mpf(1), 0
        while True:
            w = (k + j + 1) * mp.mpf(L)
            term = coef * mp.exp(w) * mp.e1(w)
            total += term
            if abs(term) < mp.mpf(10) ** -40 * abs(total):
                return total
            coef *= mp.mpf(q) * (-a1 - k) / (k + 1)
            k += 1


# the least z of each Gauss-Laguerre rule: its bound, or 7 log 2 for the
# largest rule, where the series' reach puts the least L
_LAGUERRE_BOUNDS = [(n, z) for n, z in zip(measures._LAGUERRE_NODES,
                                           (7.0 * math.log(2.0), *measures._LAGUERRE_Z))]


@pytest.mark.parametrize("n, z", _LAGUERRE_BOUNDS)
@pytest.mark.parametrize("model", [{}, {"alpha": 2.5}, {"x0": 1.3}])
def test_laguerre_series_at_each_rule_bound(n, z, model):
    # each power j whose L = z/(j+1) the reach allows (|s| <= 2^-8 min(x0, 2)),
    # with q = s/x0 of both signs, |q| = e^-L/x0, at the least z of each rule
    params = ModelParams(**model)
    phi = PhiAC(profile=PeriodicProfile(params), m_log=0.0)
    assert measures._LAGUERRE_NODES[bisect_right(measures._LAGUERRE_Z, z)] == n
    least_L = math.log(2.0 ** 8 / min(params.x0, 2.0))
    for j in (0, 1, 3):
        L = z / (j + 1)
        if L < least_L * (1.0 - 1e-15):
            continue
        p = (0.0,) * j + (1.0,)
        for q in (-math.exp(-L) / params.x0, math.exp(-L) / params.x0):
            ref = _mp_series_power(q, L, j, params.alpha + 1.0)
            assert abs(phi._dip_series(q, L, p) / float(ref) - 1.0) <= 1e-15, (j, q)


@pytest.mark.parametrize("n", sorted(set(measures._LAGUERRE_NODES)))
def test_laguerre_rule_against_golub_welsch(n):
    # nodes and weights against the eigen-decomposition of the Jacobi matrix
    # of the Laguerre polynomials (diagonal 2i+1, off-diagonal i+1) at 50 digits
    with mp.workdps(DPS):
        jacobi = mp.matrix(n, n)
        for i in range(n):
            jacobi[i, i] = 2 * i + 1
            if i + 1 < n:
                jacobi[i, i + 1] = jacobi[i + 1, i] = i + 1
        nodes, vectors = mp.eigsy(jacobi)
        ref = sorted((nodes[i], vectors[0, i] ** 2) for i in range(n))
    for (t, w), (t_ref, w_ref) in zip(measures._gauss_laguerre(n), ref):
        assert abs(t / t_ref - 1) <= 1e-15 and abs(w / w_ref - 1) <= 1e-15, (t, w)


@pytest.mark.parametrize("m, off, c", [
    (8, 0.25, 1.0),  # dip offset s > 0
    (8, -1.25, 1.0),  # s < 0
    (8, -0.5, 1.0),  # holds the centre
    (8, 1e-296, 1.0),  # starts 1.5e-301 from the centre in s
    (1024, 1e-10, 1.0),  # starts 1e-627 from the centre in s
    (1024, -1.0, 1.0),  # ends at the centre
    (1024, -0.75, 2.0),
    (1024, -3.0, 2.5),
    # one-sided, a width and more from the centre: Gauss-Legendre rules
    (4, 1.0, 1.0),
    (8, 16.0, 1.0),
    (8, -17.0, 1.0),
    (1024, -14.834430405213574, 1e-3),
    (600, 8.848955145648752, 1e-3),
    (200, -39.77310821269575, 1e-3),
])
def test_dip_window_closed_form(mu, params, no_quadrature, m, off, c):
    phi = mu.components[0][1]
    x = ScaledSum(b=params.b, terms=((1, m, params.x0),), offset=off).normalize()
    assert abs(phi.log_window_mass(x, c) - float(_mp_mass(phi, x, c))) <= 1e-11


def test_narrow_window_far_from_its_centre(mu):
    # 4^499 * 1.9 lies in a ring 3e299 from its centre: the window is
    # 5e309 half-widths from it, and one Gauss node integrates it
    phi = mu.components[0][1]
    x = ScaledSum.scaled(499, 1.9)
    assert abs(phi.log_window_mass(x, 1e-10) - float(_mp_mass(phi, x, 1e-10))) <= 1e-11


@pytest.mark.parametrize("m", [0, 1, 8, 1024])
def test_dip_segment_across_a_centre(mu, params, m):
    # window ends are cuts at every centre, so only a direct call straddles
    # one; at scales 0 and 1 it reaches beyond 2^-8 x0 b^m and is cut.  The
    # segment takes the ring's formula over the whole window, which at scale
    # 0 reaches beyond the ring: the density of a ring of half-width 0.6
    phi = mu.components[0][1]
    x = ScaledSum(b=params.b, terms=((1, m, params.x0),), offset=-0.5).normalize()
    ring = next(r for r in phi._window_cuts(PointPhase(x), 1.0)[1] if r[0] < 0.5 < r[1])
    got = phi._log_dip_mass(ring, 0.0, 1.0)
    wide = PeriodicProfile(dataclasses.replace(params, delta=0.6, x1=0.7))
    ref = _mp_mass(PhiAC(profile=wide, m_log=phi.m_log), x)
    assert abs(got - float(ref)) <= 1e-11


def test_tanh_sinh_stops_when_the_next_level_would_fit(mu, params, quad_fast):
    # the kernel-smoothed density at 4^6 x0 + 0.5 over its centre segment:
    # level 2 already meets the budget, so level 3 does not run: levels 0 to 2
    # have 7 + 8 + 14 nodes, and the two of them that round onto the end -0.5
    # evaluate it once
    phi = mu.components[0][1]
    x = ScaledSum.scaled(6, params.x0, offset=0.5)
    dens = phi.log_density_eval(x)
    kernel = PiecewiseLinearDensity.triangle(0.0, 1.0)
    nodes = []

    def f(s):
        nodes.append(s)
        return dens(s) + math.log(kernel.value(-s))

    got = integrate_log(f, -0.5, 0.0, quad_fast, singular=[-0.5])
    assert len(nodes) == 28
    # kernel(-s) = -4 s = 2 - 4 (s + 1/2) on (-1/2, 0]
    ref = _mp_mass(phi, x, Weight(((-0.5, 0.0, (2.0, -4.0)),)))
    assert abs(got - float(ref)) <= 1e-9


_PIECE = (0.3, 1.1, -0.7, 0.4, 0.2)  # positive on [0, 0.5]


@pytest.mark.parametrize("m, off, weight", [
    # the smoothed-pair weight G = G2 over (-2, 1], and G1 over (-1, 1]
    (8, 0.0, "g2"),  # a knot at the centre
    (8, -0.25, "g2"),  # a piece across the centre
    (8, 0.0, "g1"),
    (256, -1.3, "g2"),  # the centre 0.3 beyond the support
    (1024, 0.7, "g2"),
    (1024, -0.4, "g1"),
    # single pieces of degree 0..4: across the centre, touching it, and one
    # and sixteen widths from it
    *((m, off, (lo, lo + 0.5, _PIECE[:deg + 1]))
      for deg in range(5) for m, off, lo in ((8, 0.25, -0.5), (8, 0.0, 0.0),
                                              (1024, 0.0, 0.5), (8, 0.0, 8.0))),
    (1024, -0.25, (0.0, 0.5, _PIECE)),
    (256, -8.75, (0.0, 0.5, _PIECE)),
    # one-sided pieces between touching a centre and one width from it whose
    # polynomial is negative at the centre, so that the series is negative
    (8, 0.0, (-1.7, -0.7, (1.0, -1.0))),
    (256, 0.0, (-1.7, -0.7, (1.0, -1.0))),
    (8, 0.0, (0.25, 0.75, (0.0, 2.0))),
    (1024, 0.0, (0.1, 1.1, (0.0, 1.0))),
    (8, 0.0, (-0.9, -0.4, (0.0, 4.0, -8.0))),
    (64, 0.0, (0.3, 0.8, (0.0, 1.0, 0.5, 0.25))),
])
def test_weighted_dip_mass(mu, params, no_quadrature, m, off, weight):
    w = _WEIGHTS.get(weight) or Weight((weight,))
    phi = mu.components[0][1]
    x = ScaledSum(b=params.b, terms=((1, m, params.x0),), offset=off).normalize()
    assert abs(phi.log_window_mass(x, w) - float(_mp_mass(phi, x, w))) <= 1e-11


def test_smoothed_density(mu, params):
    # the triangle(0, 2) smoothing of mu is mu under R(t) = q1(-t) on (-2, 0]
    ker = KernelAC(kernel=PiecewiseLinearDensity.triangle(0.0, 2.0), base=mu)
    x = ScaledSum(b=params.b, terms=((1, 8, params.x0),), offset=-0.7).normalize()
    ref = _mp_mass(mu.components[0][1], x, _WEIGHTS["triangle"])
    assert abs(ker.log_density(x) - float(ref)) <= 1e-11


def test_weighted_plateau_mass(mu, no_quadrature):
    # 4^8 * 3 + t, t in (-2, 1], lies on the plateau: a Gauss-Legendre rule
    # per piece of G under x^(-alpha-1)
    phi = mu.components[0][1]
    x = ScaledSum.scaled(8, 3.0)
    assert abs(phi.log_window_mass(x, _G2) - float(_mp_mass(phi, x, _G2))) <= 1e-11


@pytest.mark.parametrize("m, off, c", [(8, 0.25, 1.0), (8, -0.5, 1.0), (40, 0.0, 3.0),
                                       (1024, -14.834430405213574, 1e-3), (8, 3.0, 0.5)])
def test_unit_weight_is_the_window(mu, params, m, off, c):
    phi = mu.components[0][1]
    x = ScaledSum(b=params.b, terms=((1, m, params.x0),), offset=off).normalize()
    assert phi.log_window_mass(x, Weight(((0.0, c, (1.0,)),))) == \
        phi.log_window_mass(x, c)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_window_density_ending_beside_a_centre(n):
    # the window (x - 1, x] ends 1.2e-7 b^(n-1) below the centre b^n x0: its
    # segment beside the centre reaches beyond 2^-8 x0 b^n of it for n < 4
    mu = build_mu(GallerySpec())
    x = 4.0 ** n * 1.9999999696019541
    ref = _mp_mass(mu.components[0][1], x, Weight(((-1.0, 0.0, (1.0,)),)))
    assert abs(local_density(mu, x, 1.0) - float(ref)) <= 1e-12


@pytest.mark.parametrize("m, off, weight", [
    # windows inside the ring: across it, from the centre, beside it, and
    # ending 1.2e-7 below it
    *((m, -0.25 * 4.0 ** m, 0.5 * 4.0 ** m) for m in range(4)),
    *((m, 0.0, 0.25 * 4.0 ** m) for m in range(4)),
    *((m, 1e-9, 0.2 * 4.0 ** m) for m in range(4)),
    *((m, -0.2 * 4.0 ** m, 0.2 * 4.0 ** m - 1.2e-7) for m in range(4)),
    (1, -0.37, 0.9),
    (3, -10.0, 9.9),
    # the smoothed-pair weights and a reflected triangle over the centre
    (0, 0.0, "g1"),
    (0, 1.0, "g2"),
    (1, 0.0, "g1"),
    (1, -0.5, "g2"),
    (1, 0.3, "g2"),
    (2, 0.5, "g1"),
    (2, -1.0, "g2"),
    (3, -0.7, "g1"),
    (3, 0.0, "g2"),
    (0, 1.5, "triangle"),
    (1, 0.5, "triangle"),
])
def test_near_centre_dip_window_at_small_scales(mu, params, no_quadrature, m, off, weight):
    w = _WEIGHTS.get(weight, weight)
    phi = mu.components[0][1]
    x = ScaledSum(b=params.b, terms=((1, m, params.x0),), offset=off).normalize()
    assert abs(phi.log_window_mass(x, w) - float(_mp_mass(phi, x, w))) <= 1e-11


# b = 8, x0 = 2.4, delta = 0.9: a ring whose runs reach within 0.11 in log|d|
# of the pole of 1/(m log b - log|d|) at |d| = b^m
_WIDE_RING = ModelParams(b=8.0, x0=2.4, delta=0.9, x1=1.0, x2=1.5)


@pytest.mark.parametrize("wide, m, off, gamma, weight, nodes, graded", [
    # windows across the centre b^m x0 to both sides, beyond r0 = 2^-8 x0
    # b^m (1/(16 |gamma|) or less under a tilt), and under a tilt beyond
    # 2/|gamma|, where the run's log-scale rule ends
    *((False, m, off, g, c, n, k) for m, off, c, runs in (
        (0, -0.24, 0.48, ((0.0, 48, 118), (-0.5, 48, 140), (-2.0, 48, 140), (-8.0, 56, 140))),
        (3, -12.0, 24.0, ((0.0, 40, 114), (-0.5, 48, 142), (-2.0, 48, 142), (-8.0, 48, 142))),
        (6, -100.0, 200.0, ((0.0, 24, 42), (-0.5, 48, 142), (-2.0, 48, 142), (-8.0, 48, 142))))
      for g, n, k in runs),
    # G2 over (-2, 1] and the reflected triangle over (-2, 0] at b^m x0 + 0.5
    (False, 0, 0.5, 0.0, "g2", 48, 140),
    (False, 0, 0.5, -2.0, "g2", 48, 160),
    (False, 3, 0.5, -2.0, "g2", 40, 128),
    (False, 6, 0.5, -2.0, "g2", 40, 128),
    (False, 0, 0.5, 0.0, "triangle", 48, 130),
    (False, 0, 0.5, -2.0, "triangle", 48, 150),
    (False, 3, 0.5, 0.0, "triangle", 12, 27),
    (False, 3, 0.5, -2.0, "triangle", 40, 136),
    (False, 6, 0.5, -2.0, "triangle", 40, 136),
    # the wide ring to both its edges: runs near the pole, halved in log|d|
    (True, 0, -0.9, 0.0, 1.8, 160, 194),
    (True, 0, -0.9, -0.5, 1.8, 160, 230),
    (True, 1, -7.0, 0.0, 14.0, 152, 192),
    # and beyond 2/|gamma| = 4, where Gauss pieces within two half-widths of
    # the pole halve
    (True, 1, -7.0, -0.5, 14.0, 88, 170),
    # an anchor beyond float range: r0 lies beyond every float offset, so
    # the series takes the whole ring, and no run is left
    (False, 600, -0.5, 0.0, 1.0, 0, 0),
    (False, 600, 0.0, 0.0, "g2", 0, 0),
])
def test_dip_run_in_log_scale(mu, no_quadrature, monkeypatch, wide, m, off, gamma, weight,
                              nodes, graded):
    # a one-sided dip run beyond the series' reach takes one Gauss-Legendre
    # rule in v = log|d| with a node count from its Bernstein-ellipse bound,
    # and is halved in v above 32 nodes; its nodes are pinned, and below the
    # `graded` nodes that the pieces cut at +-2^k r0 took, each a rule of its
    # own, before this rule replaced them
    phi = PhiAC(profile=PeriodicProfile(_WIDE_RING), m_log=0.0) if wide else mu.components[0][1]
    p = phi.params
    counts = []
    rule = measures._dip_log_nodes
    monkeypatch.setattr(measures, "_dip_log_nodes",
                        lambda *args: counts.append(rule(*args)) or counts[-1])
    w = _WEIGHTS.get(weight, weight)
    if m < 600:
        x = ScaledSum.from_float(p.b ** m * p.x0 + off, p.b)
    else:
        x = ScaledSum.scaled(m, p.x0, offset=off)
    got = phi.log_window_mass(x, w, gamma=gamma)
    assert sum(n for n in counts if n is not None) == nodes
    assert nodes < graded or nodes == graded == 0
    assert (None in counts) == wide  # only the wide ring's runs are halved
    tol = _tail_tol(gamma, x.value()) if gamma else 1e-12
    assert abs(got - float(_mp_mass(phi, x, w, gamma))) <= tol


@pytest.mark.parametrize("shape", [0.3, 1.0, 2.5])
@pytest.mark.parametrize("gamma", [0.5, 1.0, 2.0, 8.0, -0.5, -1.0, -2.0, -8.0])
def test_tilted_pareto_window(shape, gamma, no_quadrature):
    comp = ParetoAC(shape)
    windows = [(0.0, 2.0 ** -20), (0.0, 40.0), (0.2, 2.0), (3.7, 40.0), (10.0, 0.5),
               (123.4, 7.0), (1e6, 2.0 ** -20), (1e6, 40.0),
               (-0.5, 1.0), (-3.0, 5.0)]  # the last two start below 0
    for x, c in windows:
        pt = ScaledSum.from_float(x, 4.0) if x else ScaledSum.zero(4.0)
        got = comp.log_window_mass(pt, c, gamma=gamma)
        ref = float(_mp_mass(comp, pt, c, gamma))
        # at 1e6 the log itself is near 8e6, whose ulp is 9e-10
        assert abs(got - ref) <= 1e-12 * max(1.0, abs(ref)), (x, c)


@pytest.mark.parametrize("x, c, gamma", [
    (1e6 + 0.1, 1.1e-6, -1.0), (1e6 + 0.1, 1.1e-6, 0.5), (1e6 + 0.1, 0.3, -1.0),
    (1e12 + 0.1, 1.1e-6, -1e-9), (1e12 + 0.1, 0.3, -1e-9), (1e16, 0.75, -1e-13)])
def test_tilted_pareto_window_keeps_its_width(x, c, gamma):
    # x + c rounds at ulp(1e6) = 2^-33, 1e-4 of the narrow width, at
    # ulp(1e12) = 2^-24, more than it, and at 1e16 + 0.75 == 1e16: the
    # window takes its width c, not (x + c) - x
    got = ParetoAC(1.0).log_window_mass(ScaledSum.from_float(x), c, gamma=gamma)
    ref = float(_mp_mass(ParetoAC(1.0), x, c, gamma))
    assert abs(got - ref) <= 4.0 * math.ulp(ref) + 1e-15, (got, ref)


@pytest.mark.parametrize("shape", [0.3, 2.5])
@pytest.mark.parametrize("gamma", [-8.0, -1.0, 0.5])
def test_wide_tilted_pareto_window(shape, gamma, monkeypatch):
    # 1e5 wide: a half whose bound falls below 2^-56 of the other half's mass
    # is dropped, so a handful of rules integrate the window, where halving
    # every half took thousands
    rules = []
    rule = measures._gauss_legendre
    monkeypatch.setattr(measures, "_gauss_legendre", lambda n: rules.append(n) or rule(n))
    got = ParetoAC(shape).log_window_mass(ScaledSum.zero(4.0), 1e5, gamma=gamma)
    assert len(rules) <= 20
    if gamma < 0.0:
        assert abs(got - float(_mp_mass(ParetoAC(shape), 0.0, 1e5, gamma))) <= 1e-12


# points from just below the support to 1e300, and beyond float range
_PARETO_POINTS = (-0.3, -2.0 ** -9, 0.0, 0.7, 40.0, 123.4, 1e6, 1e10, 1e14, 1e17, 1e100, 1e300,
                  (600, 3.0), (1000, 3.0))


@pytest.mark.parametrize("a", [1.0, 2.5])
@pytest.mark.parametrize("c", [2.0 ** -8, 0.5, 1.0, 2.0])
def test_pareto_window_density_and_tail(a, c, no_quadrature):
    # the window is (1+o)^-a (1 - (1 + w/(1+o))^-a) for its part (o, o+w]
    # on the support, of width c where it starts on the support, so it keeps
    # its digits where x + c rounds; beyond float range log(1+x) is x's log,
    # for the density and the tail too
    comp = ParetoAC(a)
    for v in _PARETO_POINTS:
        x = ScaledSum.scaled(*v) if isinstance(v, tuple) else ScaledSum.from_float(v)
        with mp.workprec(EXACT_PREC):
            u = _mp_point(x)
            density = mp.log(a) - (a + 1) * mp.log1p(u) if u >= 0 else -math.inf
        for got, ref in ((comp.log_window_mass(x, c), _mp_mass(comp, x, c)),
                         (comp.log_density(x), density),
                         (comp.log_tail(x), _mp_mass(comp, x, math.inf))):
            assert got == ref or abs(got - float(ref)) <= 1e-15 * max(1.0, abs(float(ref))), v


# G1, G2, a triangle, a trapezoid with a constant piece of 1/2, and the
# sandwich probe's trapezoid for c = 0.3 and width 1, flat over (0, 0.7]
_POWER_LAW_WEIGHTS = (_G1, _G2,
                      Weight(((0.0, 0.5, (0.0, 4.0)), (0.5, 1.0, (2.0, -4.0)))),
                      Weight(((-0.25, 0.0, (0.0, 2.0)), (0.0, 0.75, (0.5,)),
                              (0.75, 1.0, (0.5, -2.0)))),
                      Weight(((-0.3, 0.0, (0.0, 1.0 / 0.3)), (0.0, 0.7, (1.0,)),
                              (0.7, 1.0, (1.0, -1.0 / 0.3), (0.0, -1.0 / 0.3)))))
# below both supports to 1e6, where x + t rounds (1e12 + 0.1, 1e16), and
# beyond float range
_POWER_LAW_POINTS = (-0.7, -0.2, 0.0, 0.3, 0.55, 1.7, 40.0, 123.4, 1e6, 1e12 + 0.1, 1e16,
                     (600, 2.0))


@pytest.mark.parametrize("comp, gamma", [
    *((ParetoAC(a), g) for a in (1.0, 2.5) for g in (0.0, -0.01, -1.0, -3.0)),
    *((UniformAC(-0.25, 1.5), g) for g in (0.0, -0.01, -1.0, -3.0, 2.0))])
def test_weighted_power_law_mass(comp, gamma, no_quadrature):
    # Pareto and uniform masses under four weights: one fixed Gauss rule
    # per weight piece clipped to the support.  Beyond float range an
    # untilted Pareto mass is the density at x times the weight's mass, and
    # a tilted one is nothing, as its float value is
    for v in _POWER_LAW_POINTS:
        x = ScaledSum.scaled(*v) if isinstance(v, tuple) else ScaledSum.from_float(v)
        for w in _POWER_LAW_WEIGHTS:
            got = comp.log_window_mass(x, w, gamma=gamma)
            ref = float(_mp_mass(comp, x, w, gamma))
            assert _agree(got, ref, 1e-13 * max(1.0, abs(ref))), (v, w.knots, got, ref)


@pytest.mark.parametrize("comp, v", [
    (ParetoAC(1.0), 1e6 + 0.1), (UniformAC(1e6, 1.0), 1e6 + 0.1),
    (ParetoAC(1.0), 1e12 + 0.1), (UniformAC(1e12, 1.0), 1e12 + 0.1)])
def test_narrow_weight_piece_keeps_its_width(comp, v):
    # x + t rounds at ulp(1e6) = 2^-33, 1e-4 of these pieces' width, and at
    # ulp(1e12) = 2^-24, more than it: a piece, linear or constant, takes
    # its width in offsets, not as (x + t2) - (x + t1)
    x = ScaledSum.from_float(v)
    for w in (Weight(((0.0, 1.1e-6, (0.0, 1.0)),)), Weight(((0.0, 1.1e-6, (0.7,)),))):
        for gamma in (0.0, -1.0):
            ref = float(_mp_mass(comp, x, w, gamma))
            got = comp.log_window_mass(x, w, gamma=gamma)
            assert abs(got - ref) <= 1e-13 * max(1.0, abs(ref)), (gamma, w.pieces, got, ref)


# ---------------------------------------------------------------------------
# uniform pairs: a uniform factor is a weight on the other
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [1, 3, 7, 20])
@pytest.mark.parametrize("t", [0.0, -1.7])
@pytest.mark.parametrize("c", [0.25, 1.0, 2.0])
def test_uniform_dip_convolution(mu, params, quad, n, t, c):
    # (U(0,1) * mu)((x, x+c]) at x = b^n x0 + t: the outer integral's window
    # ends cross the dip centre, where the inner mass has an unbounded
    # second derivative; in mpmath the overlap of the two windows weights mu
    uni = MixtureDistribution.single(UniformAC(0.0, 1.0))
    x = ScaledSum.scaled(n, params.x0).add_offset(t)
    got = conv_local_mass(uni, mu, x, c, quad)
    ref = _mp_mass(mu.components[0][1], x, _mp_averaged(Weight.window(c), 0.0, 1.0))
    assert abs(got - float(ref)) <= 1e-9


_UNIFORM_FACTORS = (UniformAC(0.0, 1.0), UniformAC(1.5, 1.0), UniformAC(-0.25, 0.5))
_PAIR_WEIGHTS = {"unit": Weight.window(1.0), "g2": _G2}


def _pair_both_ways(uni, other, x, w, quad):
    """The pair's weighted mass with the uniform factor on either side,
    which must read alike."""
    u = MixtureDistribution.single(uni)
    got = conv_local_mass(u, other, x, w, quad)
    assert conv_local_mass(other, u, x, w, quad) == got
    return got


@pytest.mark.parametrize("uni", _UNIFORM_FACTORS)
@pytest.mark.parametrize("weight", sorted(_PAIR_WEIGHTS))
@pytest.mark.parametrize("a, gamma", [(1.0, 0.0), (2.5, 0.0), (1.0, -1.0)])
def test_uniform_power_law_pair(uni, weight, a, gamma, quad, no_quadrature):
    # (U * P) under w is P under the average of w over U, a Pareto or a
    # tilted Pareto, with no quadrature
    other = MixtureDistribution.single(ParetoAC(a))
    log_z = 0.0
    if gamma:
        other = tilt(other, gamma)
        log_z = _mp_mass(ParetoAC(a), 0.0, math.inf, gamma)
    w = _PAIR_WEIGHTS[weight]
    avg = _mp_averaged(w, uni.left, uni.width)
    for xv in (-3.0, -0.7, 0.0, 0.7, 3.2, 40.0, 1e6):
        x = ScaledSum.from_float(xv) if xv else ScaledSum.zero()
        got = _pair_both_ways(uni, other, x, w, quad)
        ref = float(_mp_mass(ParetoAC(a), x, avg, gamma) - log_z)
        assert _agree(got, ref, 1e-12 * max(1.0, abs(ref))), (xv, got, ref)


@pytest.mark.parametrize("uni", _UNIFORM_FACTORS)
@pytest.mark.parametrize("weight", sorted(_PAIR_WEIGHTS))
@pytest.mark.parametrize("n, t", [(1, 0.0), (3, -1.7), (7, 0.0), (7, 0.4)])
def test_uniform_dip_pair(mu, params, uni, weight, n, t, quad, no_quadrature):
    # (U * mu) under w as mu under the average of w over U, with no
    # quadrature, at and near the dip centre 4^n x0
    w = _PAIR_WEIGHTS[weight]
    x = ScaledSum.scaled(n, params.x0).add_offset(t)
    got = _pair_both_ways(uni, mu, x, w, quad)
    ref = float(_mp_mass(mu.components[0][1], x, _mp_averaged(w, uni.left, uni.width)))
    assert abs(got - ref) <= 1e-12 * max(1.0, abs(ref)), (got, ref)


# G2 averaged over h = 1/64: a difference of two tails of G2 scaled by 1/h
# reads its mass 1.5e-14 off
@example(w=_G2, left=1.9999999999999998, width=0.015625, s=0.5)
@given(w=st.sampled_from(_POWER_LAW_WEIGHTS + (Weight.window(1.0), Weight.window(0.3))),
       left=st.floats(-2.0, 2.0), width=st.floats(2.0 ** -6, 4.0), s=st.floats(0.0, 1.0))
@settings(max_examples=100, deadline=None)
def test_averaged_weight(w, left, width, s):
    # W(t) = (1/h) int_l^{l+h} w(t + u) du, with the mass of w
    avg = w.averaged(left, width)
    t = avg.lo + s * (avg.hi - avg.lo)
    _lo, _hi, ref = _mp_averaged(w, left, width)[0]  # one function on every piece
    with mp.workdps(DPS):
        ref = float(ref(mp.mpf(t)))
    assert abs(avg.value(t) - ref) <= 1e-13 * max(1.0, w.mass() / width), (t, ref)
    assert math.isclose(avg.mass(), w.mass(), rel_tol=1e-14)


# ---------------------------------------------------------------------------
# tilts and tails
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("gamma", [-0.5, -1.0, -2.0])
def test_tilted_normalizers(mu, no_quadrature, gamma):
    pareto = tilt(MixtureDistribution.single(ParetoAC(1.0)), gamma)
    ref = _mp_mass(ParetoAC(1.0), 0.0, math.inf, gamma)
    assert abs(pareto.components[0][1].log_norm - float(ref)) <= 1e-12
    tmu = tilt(mu, gamma)
    want = float(_mp_mass(mu.components[0][1], 0.0, math.inf, gamma))
    assert abs(tmu.components[0][1].log_norm - want) <= 1e-12


_TILTED_TAIL_GAMMAS = [-0.01, -0.5, -1.0, -2.0, -8.0]


@pytest.mark.parametrize("shape", [0.3, 1.0, 2.5])
@pytest.mark.parametrize("gamma", _TILTED_TAIL_GAMMAS)
def test_tilted_pareto_tail(shape, gamma, no_quadrature):
    comp = ParetoAC(shape)
    for x in (0.0, 0.5, 3.7, 30.0, 1e3, 1e6):
        got = comp.log_tail(ScaledSum.from_float(x) if x else ScaledSum.zero(), gamma=gamma)
        assert abs(got - float(_mp_mass(comp, x, math.inf, gamma))) <= _tail_tol(gamma, x), x


@pytest.mark.parametrize("gamma", _TILTED_TAIL_GAMMAS)
def test_tilted_dip_tail(mu, no_quadrature, gamma):
    phi = mu.components[0][1]
    for x in (0.0, 1.0, 2.0, 3.7, 30.0) + ((1e3,) if gamma != -0.01 else ()):
        got = phi.log_tail(ScaledSum.from_float(x) if x else ScaledSum.zero(), gamma=gamma)
        want = float(_mp_mass(phi, x, math.inf, gamma))
        assert abs(got - want) <= _tail_tol(gamma, x), x


@pytest.mark.parametrize("n", [1, 64, 256])
@pytest.mark.parametrize("y", [2.0, 3.0, 2.1, 1.0])  # anchor, plateau, ring, cell edge
def test_untilted_dip_tail(mu, no_quadrature, n, y):
    # up to the next power of b, and beyond it by self-similarity
    phi = mu.components[0][1]
    x = ScaledSum.scaled(n, y)
    assert abs(phi.log_tail(x) - float(_mp_mass(phi, x, math.inf))) <= 1e-12


@pytest.mark.parametrize("n", [500, 700, 1024])
@pytest.mark.parametrize("y, c", [(2.1, 1.0), (1.8, 1e-3), (2.2, 37.0), (2.0 + 2.0 ** -40, 1.0)])
def test_window_in_a_ring_beyond_float_range(mu, no_quadrature, n, y, c):
    # the centre is beyond float range: over the window the dip distance is
    # the head mantissa's to far below rounding
    phi = mu.components[0][1]
    x = ScaledSum.scaled(n, y)
    assert abs(phi.log_window_mass(x, c) - float(_mp_mass(phi, x, c))) <= 1e-12


@pytest.mark.parametrize("gamma", [-0.01, -0.5, -8.0])
@pytest.mark.parametrize("m, off, weight", [
    (0, 0.0, 1.0), (1, -0.3, 7.0), (3, 1e-9, 0.05), (5, 0.0, 1.0),
    (1, 0.2, "g1"), (3, 0.0, "g2"), (2, -0.3, "g2")])
def test_tilted_dip_window(mu, params, no_quadrature, gamma, m, off, weight):
    # plateau segments by the tilted power-law rule, far dip segments by
    # Gauss rules with the tilt as a factor, near-centre pieces by the
    # weighted series with the tilt's Taylor polynomial
    w = _WEIGHTS.get(weight, weight)
    phi = mu.components[0][1]
    x = 4.0 ** m * (params.x0 + off)
    got = phi.log_window_mass(ScaledSum.from_float(x), w, gamma=gamma)
    assert abs(got - float(_mp_mass(phi, x, w, gamma))) <= _tail_tol(gamma, x)


@pytest.mark.parametrize("n, regime", [(4, "gamma"), (5, "gamma"), (4, "anchor")])
def test_dip_self_convolution(params, profile, quad, n, regime):
    # (phi*phi)(x) = 2 int_1^{x/2} phi(u) phi(x-u) du at lem32's gamma points,
    # where a ring edge of one factor lies 1.3e-10 from a centre of the
    # other, and at the anchor b^n x0, where x - u meets every centre at u =
    # b^m x0: the mass of phi under the weight phi(x - u), cut where it is
    if regime == "gamma":
        x = make_sequence(SequenceSpec("gamma", 1.0, (n,)), params)[0]
    else:
        x = ScaledSum.scaled(n, params.x0)
    got = phi_self_conv_at(profile, x, quad)
    raw = PhiAC(profile=profile, m_log=0.0)
    with mp.workprec(EXACT_PREC):
        u = _mp_point(x)
        other = [(-t1, -t0, lambda v, scale=scale, rel=rel: scale * rel(-v))
                 for t0, t1, scale, rel in _mp_segments(raw, u, -u / 2, -1)]
    ref = float(mp.log(2) + _mp_mass(raw, 0.0, other))
    assert abs(got - ref) <= 1e-9


# ---------------------------------------------------------------------------
# the profile at a point, and windows there, beyond 4^500
# ---------------------------------------------------------------------------

def _mp_profile(params, u):
    """(log h, branch) of the profile at the exact point ``u > 0``."""
    b = mp.mpf(params.b)
    with mp.workprec(64):
        m = int(mp.floor(mp.log(u) / mp.log(b)))
    y = u / b ** m
    while y >= b:
        y /= b
    while y < 1:
        y *= b
    d = abs(y - params.x0)
    with mp.workprec(LOG_PREC):
        if d == 0:
            return -math.inf, "center"
        if d < params.delta:
            return mp.log(-1 / mp.log(d)), "dip"
        return mp.log(-1 / mp.log(mp.mpf(params.delta))), "plateau"


def _mp_phi_log(params, u):
    """log phi at the exact point ``u``."""
    if u < 1:
        return -math.inf
    log_h, _branch = _mp_profile(params, u)
    with mp.workprec(LOG_PREC):
        return log_h - (params.alpha + 1) * mp.log(u)


def _binary(draw, lo, hi):
    """A signed float ``m 2^e`` with m in [1, 2) and e in [lo, hi]."""
    m = draw(st.floats(1.0, 2.0, exclude_max=True))
    return draw(st.sampled_from([1.0, -1.0])) * math.ldexp(m, draw(st.integers(lo, hi)))


@st.composite
def _far_points(draw):
    """Canonical ``4^n y + R``, n in [0, 1024]: y a float mantissa, the dip
    centre x0 = 2 or x0 +- k ulp; R zero or a float, mostly within reach of
    the dip ring at scale n; and, with n >= 523, maybe a term beyond float
    range 4^(n-j) y2 in the remainder."""
    x0 = 2.0
    head = draw(st.sampled_from(["float", "anchor", "ulp"]))
    far = draw(st.booleans())
    n = draw(st.integers(523 if far else 0, 1024))
    if head == "float":
        y = draw(st.floats(1.0, 4.0, exclude_max=True))
    elif head == "anchor":
        y = x0
    else:
        k = draw(st.integers(-2 ** 12, 2 ** 12).filter(bool))
        y = x0 + k * 2.0 ** (-51 if k > 0 else -52)
    terms = [(1, n, y)]
    if far:
        terms.append((draw(st.sampled_from([1, -1])), n - draw(st.integers(11, n - 512)),
                      draw(st.floats(1.0, 4.0, exclude_max=True))))
    rem = draw(st.sampled_from(["none", "any", "ring"]))
    if rem == "none":
        off = 0.0
    elif rem == "any":
        off = _binary(draw, -1074, 1023)
    else:  # a dip distance of 2^-1 .. 2^-220 at scale n
        e = 2 * n - draw(st.integers(1, 220))
        off = _binary(draw, max(min(e, 1023), -1074), max(min(e, 1023), -1074))
    x = ScaledSum(b=4.0, terms=tuple(terms), offset=off).normalize()
    assume(x.sign() > 0)  # a remainder folded into the head may cancel it
    return x


@st.composite
def _offsets(draw):
    """0, or a signed float of magnitude 2^-80 .. 2^81."""
    return 0.0 if draw(st.booleans()) else _binary(draw, -80, 80)


_HEAD = 2.0 + 2.0 ** -51  # x0 + 1 ulp


@pytest.mark.parametrize("delta", [0.25, 1e-12])
@example(x=ScaledSum(b=4.0, terms=((1, 520, _HEAD),), offset=1e300), t=0.0)
@example(x=ScaledSum(b=4.0, terms=((1, 530, _HEAD),), offset=1e308), t=0.0)
@example(x=ScaledSum(b=4.0, terms=((1, 530, 2.0),), offset=1e308), t=0.0)
# x0 + 1 ulp less that ulp at scale 530, and the same at 540 by a term
# beyond float range: each is the centre 4^n x0 itself
@example(x=ScaledSum(b=4.0, terms=((1, 530, _HEAD),), offset=-2.0 ** 1009), t=0.0)
@example(x=ScaledSum(b=4.0, terms=((1, 540, _HEAD), (-1, 514, 2.0))), t=0.0)
# 1e-300 above the centre 4^1024 x0: a dip distance of 1e-300 4^-1024
@example(x=ScaledSum(b=4.0, terms=((1, 1024, 2.0),)), t=1e-300)
# offsets that round: 2^53 + 1 beside the centre 4^26 x0, 2^-60 below the
# float resolution of a remainder that leaves 2^-43 of x0 + 1 ulp at scale
# 30, and 1 - 2^-54 just below the support edge
@example(x=ScaledSum(b=4.0, terms=((1, 0, 1.0),)), t=2.0 ** 53)
@example(x=ScaledSum(b=4.0, terms=((1, 30, _HEAD),), offset=-512.0 + 2.0 ** -43), t=2.0 ** -60)
@example(x=ScaledSum(b=4.0, terms=((1, 0, 1.0),), offset=-2.0 ** -54), t=0.0)
@given(x=_far_points(), t=_offsets())
@settings(max_examples=300, deadline=None, derandomize=True)
def test_profile_at_far_points(delta, x, t):
    # phi_log_value, the evaluator at an offset, and the profile's value and
    # branch against the exact point; within the ring the dip distance lies
    # far below one ulp of the point
    params = ModelParams(delta=delta)
    profile = PeriodicProfile(params)
    with mp.workprec(EXACT_PREC):
        u, ut = _mp_point(x), _mp_point(x, t)
        log_h, branch = _mp_profile(params, u)
        assert _agree(phi_log_value(profile, x), _mp_phi_log(params, u))
        assert _agree(phi_window_log_eval(profile, x)(t), _mp_phi_log(params, ut))
        h = profile.value(x)
        assert _agree(math.log(h) if h else -math.inf, log_h)
        # the formula, where the distance is not within rounding of the ring edge
        got = "center" if h == 0.0 else "plateau" if h == profile.plateau else "dip"
        assert got == branch or ("center" not in (got, branch)
                                 and abs(math.log(h / profile.plateau)) <= 1e-12)
        if ut == float(ut):  # a float point: the plain evaluator too
            plain = phi_window_log_eval(profile, ScaledSum.zero(4.0))(float(ut))
            assert _agree(plain, _mp_phi_log(params, ut))


@pytest.mark.parametrize("terms", [
    ((1, 600, 3.0), (1, 589, 3.0)),  # 2^-22 of the head above it
    ((1, 600, 3.0), (-1, 582, 1.5)),
    ((1, 1024, 1.5), (-1, 1005, 3.5)),
    ((1, 560, 2.0 + 2.0 ** -51), (-1, 534, 2.0)),  # the centre 4^560 x0
])
def test_log_point_where_the_remainder_is_beyond_float_range(terms):
    # the remainder absorbs any float offset, and enters log_point through
    # log1p of its ratio to the head
    x = ScaledSum(b=4.0, terms=terms)
    assert x.is_canonical() and x.phase().rem is None
    ph = PointPhase(x)
    with mp.workprec(EXACT_PREC):
        ref = mp.log(_mp_point(x))
    for t in (0.0, -1.0, 1e300):
        assert _agree(ph.log_point(t), ref)
    assert _agree(x.log_abs(), ref)


@pytest.mark.parametrize("n, y, off", [
    (520, _HEAD, 1e300),  # the remainder is 2^-43.4 in mantissa units, 2^-51 the head's distance
    (530, _HEAD, 1e308),
    (530, 2.0, 1e308),  # an anchor: offsets from the centre near the float maximum
])
def test_window_near_an_anchor_beyond_float_range(mu, params, no_quadrature, n, y, off):
    # over (x, x+1] the dip distance moves by 4^-n, far below rounding, so
    # the density is (x+s)^(-alpha-1) h(x) / M
    phi = mu.components[0][1]
    x = ScaledSum(b=params.b, terms=((1, n, y),), offset=off).normalize()
    assert abs(phi.log_window_mass(x, 1.0) - float(_mp_mass(phi, x))) <= 1e-12


@pytest.mark.parametrize("off", [-2.0 ** 1009, -2.0 ** 1009 - 2.0 ** 990])
def test_window_where_the_remainder_reaches_a_far_centre(mu, params, no_quadrature, off):
    # 4^530 (2 + 2^-51) - 2^1009 is the centre 4^530 x0 itself, and 2^990
    # below it is 2^-70 from it in mantissa units: the window takes the ring
    # from the centre offset (x0 - y1) b^M - R, which is finite here
    phi = mu.components[0][1]
    x = ScaledSum(b=params.b, terms=((1, 530, 2.0 + 2.0 ** -51),), offset=off)
    assert x.is_canonical()
    got = phi.log_window_mass(x, 1.0)
    assert abs(got - float(_mp_mass(phi, x))) <= 1e-12
    if off == -2.0 ** 1009:  # the same point in its canonical form
        assert got == phi.log_window_mass(ScaledSum.scaled(530, params.x0), 1.0)


@pytest.mark.parametrize("n", [340, 400])
def test_window_in_base_8_beyond_float_range(no_quadrature, n):
    # 8^400 overflows a float below scale 500: the ring of 8^n * 3, inside
    # the wide ring of x0 = 2.4, delta = 0.9, is read at the point's dip
    # distance, which is constant to rounding over the window
    params = ModelParams(b=8.0, x0=2.4, delta=0.9, x1=1.0, x2=1.5)
    phi = PhiAC(profile=PeriodicProfile(params), m_log=0.0)
    x = ScaledSum.scaled(n, 3.0, b=8.0)
    got = phi.log_window_mass(x, 1.0)
    with mp.workprec(EXACT_PREC):
        _log_h, branch = _mp_profile(params, _mp_point(x))
    assert branch == "dip" and abs(got - float(_mp_mass(phi, x))) <= 1e-12


# ---------------------------------------------------------------------------
# one point in several forms
# ---------------------------------------------------------------------------

def _log_or_zero(v):
    return math.log(v) if v else -math.inf


@st.composite
def _point_forms(draw):
    """One point ``4^n y + R``, n in [0, 1024], in up to three canonical
    forms: the head and the float remainder R; the head moved by k ulp with
    R less that move as its remainder, where that is exact; and R as a second
    term ``4^m y2``.  y is a float, the dip centre x0 = 2 or x0 +- k ulp, and
    R zero, a short float near the ring's reach at scale n, or any float
    below 2^-20 of the head."""
    n = draw(st.integers(0, 1024))
    head = draw(st.sampled_from(["float", "anchor", "ulp"]))
    if head == "float":
        y = draw(st.floats(1.0, 4.0, exclude_max=True))
    elif head == "anchor":
        y = 2.0
    else:
        k = draw(st.integers(1, 2 ** 12)) * draw(st.sampled_from([1, -1]))
        y = 2.0 + k * 2.0 ** (-51 if k > 0 else -52)
    rem = draw(st.sampled_from(["none", "short", "any"]))
    top = min(2 * n - 21, 1023)  # the remainder stays below 2^-20 of the head
    if rem == "none" or top < -1074:
        R = 0.0
    elif rem == "short":  # a 20-bit mantissa 2^-1 .. 2^-90 of the head
        e = max(min(2 * n - draw(st.integers(21, 90)), 1023), -1054)
        R = draw(st.sampled_from([1, -1])) * math.ldexp(draw(st.integers(1, 2 ** 20 - 1)), e - 20)
    else:
        R = _binary(draw, -1074, top)
    forms = [ScaledSum(b=4.0, terms=((1, n, y),), offset=R)]
    ulp = 2.0 ** -52 if y < 2.0 else 2.0 ** -51
    k = draw(st.integers(1, 2 ** 12)) * draw(st.sampled_from([1, -1]))
    y2 = y + k * ulp
    if 1.0 <= y2 < 4.0 and 2 * n - 40 < 1023:
        moved = Fraction(R) - k * Fraction(ulp) * 4 ** n
        R2 = float(moved)
        if Fraction(y2) == Fraction(y) + k * Fraction(ulp) and Fraction(R2) == moved:
            forms.append(ScaledSum(b=4.0, terms=((1, n, y2),), offset=R2))
    if R:
        m = math.floor(math.log(abs(R)) / math.log(4.0))
        m, y3 = _range_fix(m, abs(R) / 4.0 ** m, 4.0)
        forms.append(ScaledSum(b=4.0, terms=((1, n, y), (1 if R > 0 else -1, m, y3))))
    return forms


@given(forms=_point_forms(), c=st.sampled_from([2.0 ** -8, 1.0]))
@settings(max_examples=40, deadline=None)
def test_point_forms_read_alike(mu, params, forms, c):
    # every form of a point gives the window mass, density, tail and
    # point_lambda of the others, and of mpmath at the exact point
    phi = mu.components[0][1]
    with mp.workprec(EXACT_PREC):
        u = _mp_point(forms[0])
        assert all(x.is_canonical() and _mp_point(x) == u for x in forms)
        cell = _mp_cell(params, u)
        lam = abs(u - mp.mpf(params.b) ** cell * params.x0)
        with mp.workprec(LOG_PREC):
            log_lam = mp.log(lam) if lam else -math.inf
        density = _mp_phi_log(params, u)
    assume(u >= 1 and cell == forms[0].terms[0][1])  # the head's cell
    refs = {
        "window": (lambda x: local_mass(mu, x, c), _mp_mass(phi, forms[0], c)),
        "density": (lambda x: mu.log_density(x), density - phi.m_log),
        "lambda": (lambda x: _log_or_zero(point_lambda(x, params)), log_lam),
    }
    if cell <= 500:
        refs["tail"] = (lambda x: tail(mu, x), _mp_mass(phi, forms[0], math.inf))
    for name, (query, ref) in refs.items():
        if name == "lambda" and ref > 709.8:  # beyond float range
            assert all(point_lambda(x, params) == math.inf for x in forms)
            continue
        got = [query(x) for x in forms]
        assert all(_agree(g, got[0]) for g in got[1:]), (name, got)
        assert _agree(got[0], ref), (name, got[0], float(ref))


# ScaledSum arithmetic against the exact value.  Mantissas and offsets have
# 20 bits, so most folds and merges of these sums are exact.  Every value is
# a multiple of 2^-270 below 2^2052, which ARITH_PREC
# (about 720 digits) holds exactly.
ARITH_PREC = 2400


def _bits20(draw, lo, hi):
    """A signed float with a 20-bit mantissa, of magnitude 2^lo .. 2^(hi+1)."""
    j = draw(st.integers(2 ** 19, 2 ** 20 - 1))
    return draw(st.sampled_from([1.0, -1.0])) * math.ldexp(j, draw(st.integers(lo, hi)) - 19)


@st.composite
def _float20(draw):
    return 0.0 if draw(st.booleans()) else _bits20(draw, -250, 1000)


@st.composite
def _hand_sums(draw):
    """A hand-built sum of one to three terms ``4^m y``, m in [-8, 1024], the
    lesser ones a few scales below the head or anywhere, plus an offset: zero,
    near the head's magnitude (so it may fold), or any of 2^-250 .. 2^1001."""
    m = draw(st.integers(-8, 1024))
    terms = []
    for i in range(draw(st.integers(1, 3))):
        if i == 0:
            mi = m
        elif draw(st.booleans()):
            mi = m - draw(st.integers(0, 12))
        else:
            mi = draw(st.integers(-8, 1024))
        y = 1.0 + draw(st.integers(0, 3 * 2 ** 20 - 1)) * 2.0 ** -20
        terms.append((draw(st.sampled_from([1, -1])), mi, y))
    kind = draw(st.sampled_from(["none", "near", "any"]))
    if kind == "none":
        offset = 0.0
    elif kind == "near":
        e = max(-250, min(2 * m + draw(st.integers(-70, 2)), 1000))
        offset = _bits20(draw, e, e)
    else:
        offset = _bits20(draw, -250, 1000)
    return ScaledSum(b=4.0, terms=tuple(terms), offset=offset)


def _check_arithmetic(r, exact, ins, offsets, offset_sum=None):
    """``r`` is canonical and ``exact`` within the dust threshold of its
    leading remainder, give or take the roundings the form makes: the float
    ``offset_sum`` once, each term that is not among the input terms ``ins``
    once, and a head made anew, or a sum collapsed to a float, at float
    precision of the largest input (terms and ``offsets``)."""
    b = mp.mpf(4)

    def value(s, m, y):
        return s * mp.mpf(y) * b ** m

    got = mp.fsum([value(*t) for t in r.terms]) + r.offset
    tol = mp.mpf(0)
    if len(r.terms) >= 2:  # terms dropped as dust
        tol += 8 * DUST * max(abs(value(*r.terms[1])), abs(mp.mpf(r.offset)))
    if offset_sum is not None:
        tol += math.ulp(offset_sum) / 2
    made = [t for t in r.terms if t not in ins]
    tol += 2.0 ** -51 * mp.fsum([abs(value(*t)) for t in made])
    if r.terms and (r.terms[0] in made or (len(r.terms) == 1 and not r.offset
                                           and r.terms[0][1] <= 26)):
        top = max([abs(value(*t)) for t in ins] + [abs(mp.mpf(o)) for o in offsets])
        tol += 2.0 ** -50 * top
    assert abs(got - exact) <= tol, (r, mp.nstr(got - exact, 5), mp.nstr(tol, 5))
    assert r.normalize() == r and r.is_canonical(), r
    if r.terms:
        s1, m1, y1 = r.terms[0]
        assert all(s in (1, -1) and 1.0 <= y < 4.0 for s, m, y in r.terms)
        assert list(r.terms) == sorted(r.terms, key=lambda t: (t[1], t[2]), reverse=True)
        assert abs(mp.mpf(r.offset)) < DOMINANCE * (1 + 1e-12) * value(1, m1, y1)


# an offset of exactly minus a head beyond 2^50 leaves the rest of the sum;
# one that leaves 2^-20 of it leaves a head the next term must fold into;
# a sum less its own head beyond float range leaves the offsets
@example(raw=ScaledSum(b=4.0, terms=((1, 30, 1.0), (1, 15, 1.0)), offset=-2.0 ** 60 + 2.0 ** 40),
         other=ScaledSum(b=4.0, terms=((1, 15, 1.0),)), t=0.0)
@example(raw=ScaledSum(b=4.0, terms=((1, 30, 1.0), (1, 5, 1.0)), offset=-4.0 ** 30),
         other=ScaledSum(b=4.0, terms=((1, 30, 1.0),)), t=-4.0 ** 30)
@example(raw=ScaledSum(b=4.0, terms=((1, 600, 2.0),), offset=0.5),
         other=ScaledSum(b=4.0, terms=((-1, 600, 2.0),), offset=0.25), t=0.0)
@given(raw=_hand_sums(), other=_hand_sums(), t=_float20())
@settings(max_examples=200, deadline=None)
def test_scaled_sum_arithmetic(raw, other, t):
    # normalize, add, sub and add_offset against the exact sums
    b = mp.mpf(4)
    with mp.workprec(ARITH_PREC):
        def exact(z):
            return mp.fsum([s * mp.mpf(y) * b ** m for s, m, y in z.terms]) + z.offset

        x, y = raw.normalize(), other.normalize()
        _check_arithmetic(x, exact(raw), raw.terms, [raw.offset])
        neg = tuple((-s, m, v) for s, m, v in y.terms)
        _check_arithmetic(x.add(y), exact(x) + exact(y), x.terms + y.terms,
                          [x.offset, y.offset], x.offset + y.offset)
        _check_arithmetic(x.sub(y), exact(x) - exact(y), x.terms + neg,
                          [x.offset, y.offset], x.offset - y.offset)
        _check_arithmetic(x.add_offset(t), exact(x) + t, x.terms, [x.offset, t], x.offset + t)
