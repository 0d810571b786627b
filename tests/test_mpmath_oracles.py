"""The segment rules of window masses against mpmath at 50 digits.

Dip-centre segments run the tanh-sinh rule and plateau windows take the
exact antiderivative; both must agree with ``mpmath.quad`` to ``rel_tol``.
"""

import pytest

from subexp import QuadratureSpec, ScaledSum, integrate_log, local_mass
from subexp.measures import phi_integral_log
from subexp.scaledcore import phi_window_log_eval

mp = pytest.importorskip("mpmath")

DPS = 50


def _mp_phi(params):
    """Raw dip density u^(-alpha-1) h(u) on the period cell [1, b)."""
    x0 = mp.mpf(params.x0)
    delta = mp.mpf(params.delta)
    plateau = -1 / mp.log(delta)

    def f(u):
        d = abs(u - x0)
        if d == 0:
            return mp.mpf(0)
        h = -1 / mp.log(d) if d < delta else plateau
        return u ** (-(params.alpha + 1)) * h

    return f


@pytest.mark.parametrize("side", [-1, 1])
def test_centre_segment_tanh_sinh(params, profile, quad, side):
    lo, hi = sorted((params.x0, params.x0 + side * params.delta))
    ev = phi_window_log_eval(profile, ScaledSum.zero(params.b))
    got = integrate_log(ev, lo, hi, quad, singular=[params.x0])
    with mp.workdps(DPS):
        ref = mp.log(mp.quad(_mp_phi(params), [lo, hi]))
    assert abs(got - float(ref)) <= quad.rel_tol


@pytest.mark.parametrize("n", [1, 64, 1024])
def test_plateau_window_closed_form(mu, params, quad, monkeypatch, n):
    def no_quadrature(*args, **kwargs):
        raise AssertionError("a plateau window ran a quadrature")

    monkeypatch.setattr("subexp.measures.integrate_log", no_quadrature)
    phi = mu.components[0][1]
    got = phi.log_window_mass(ScaledSum.scaled(n, 3.0), 1.0, quad)
    with mp.workdps(DPS):
        x = mp.mpf(params.b) ** n * 3
        plateau = -1 / mp.log(mp.mpf(params.delta))
        mass = mp.quad(lambda t: (x + t) ** (-(params.alpha + 1)), [0, 1])
        ref = mp.log(plateau * mass) - mp.mpf(phi.m_log)
    assert abs(got - float(ref)) <= quad.rel_tol


@pytest.mark.parametrize("n", [6, 64, 1024])
def test_anchor_window(mu, params, quad, n):
    # the window (b^n x0, b^n x0 + 1] starts at a dip centre: one tanh-sinh segment
    phi = mu.components[0][1]
    got = phi.log_window_mass(ScaledSum.scaled(n, params.x0), 1.0, quad)
    with mp.workdps(DPS):
        log_x = n * mp.log(params.b) + mp.log(params.x0)
        a1 = params.alpha + 1

        def f(t):  # density at x + t relative to x^-(alpha+1), as the dip distance t b^-n
            return (1 + t * mp.exp(-log_x)) ** (-a1) * (-1 / (mp.log(t) - n * mp.log(params.b)))

        ref = mp.log(mp.quad(f, [0, 1])) - a1 * log_x - mp.mpf(phi.m_log)
    assert abs(got - float(ref)) <= quad.rel_tol


@pytest.mark.parametrize("rel_tol", [1e-7, 1e-9])
def test_window_narrower_than_rounding_at_a_centre(mu, params, rel_tol):
    # (x, x+c] holds the centre b^2 x0 = 32 and c is below ulp(x) / rel_tol:
    # in offsets from x the dip distance near the centre rounds to ulp(x)
    x, c = 31.999999999785675, 4.2864911620199564e-10
    got = local_mass(mu, x, c, QuadratureSpec(rel_tol=rel_tol))
    with mp.workdps(DPS):
        scale = mp.mpf(params.b) ** 2

        def f(u):
            return u ** (-(params.alpha + 1)) * (-1 / mp.log(abs(u / scale - params.x0)))

        lo = mp.mpf(x)
        ref = mp.log(mp.quad(f, [lo, scale * params.x0, lo + mp.mpf(c)]))
    assert abs(got - float(ref - mp.mpf(mu.components[0][1].m_log))) <= rel_tol


def test_normalizer_cell(params, profile, quad_fast):
    # the period cell [1, b] holds the dip centre x0, flagged like any other
    got = phi_integral_log(profile, 1.0, params.b, quad_fast)
    x0, delta = params.x0, params.delta
    with mp.workdps(DPS):
        ref = mp.log(mp.quad(_mp_phi(params), [1, x0 - delta, x0, x0 + delta, params.b]))
    assert abs(got - float(ref)) <= 1e-9
