import ast
import inspect
import math
import random
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from subexp import (
    AtomSeries,
    DivergentMomentError,
    KernelAC,
    MixtureDistribution,
    ModelParams,
    ParameterError,
    ParetoAC,
    PeriodicProfile,
    PhiAC,
    PiecewiseLinearDensity,
    PointMass,
    QuadratureSpec,
    ScaledSum,
    UniformAC,
    exp_moment,
    local_density,
    local_mass,
    normalizer_M,
    tail,
    tilt,
)
from subexp import measures, quadrature
from subexp.measures import Weight, phi_integral_log
from subexp.convolve import conv_local_mass, oracle_window_mass, phi_self_conv_at, phi_values
from subexp.probes import long_tail_probe, tilt_identity_probe
from subexp import scaledcore
from subexp.scaledcore import phi_log_value

LN4 = math.log(4.0)


def riemann_cell(profile, lo, hi, step=1e-6):
    grid = lambda u: phi_values(profile, u)
    return oracle_window_mass(grid, lo, hi, step)


class TestNormalizer:
    def test_matched_cutoff_oracle(self, params, profile, quad):
        # same construction on both sides: integral over [1, 1e4] plus the
        # plateau envelope for the remainder; periodic-cell Riemann with
        # phase step 1e-6 as the independent reference
        adaptive = math.exp(phi_integral_log(profile, 1.0, 1e4, quad)) \
            + profile.plateau * 1e4 ** -params.alpha / params.alpha
        cell = riemann_cell(profile, 1.0, params.b)
        m_cells = int(math.floor(math.log(1e4) / LN4))
        oracle = sum(params.b ** (-m) * cell for m in range(m_cells))
        oracle += params.b ** (-m_cells) * riemann_cell(
            profile, 1.0, 1e4 / params.b ** m_cells)
        oracle += profile.plateau * 1e4 ** -params.alpha / params.alpha
        assert abs(adaptive / oracle - 1.0) < 1e-8

    def test_full_policy_close_to_oracle(self, m_norm, profile, params):
        # the policy cut uses the plateau envelope, which overshoots the true
        # remainder by the dip deficit; agreement is at the envelope level
        cell = riemann_cell(profile, 1.0, params.b)
        exact = cell / (1.0 - 1.0 / params.b)
        assert abs(m_norm / exact - 1.0) < 1e-7

    def test_closed_form_against_mpmath(self, params, profile):
        # M = I1 / (1 - b^-alpha) with I1 the cell [1, b], exactly
        mp = pytest.importorskip("mpmath")
        with mp.workdps(50):
            x0, delta = mp.mpf(params.x0), mp.mpf(params.delta)
            plateau = -1 / mp.log(delta)

            def raw(u):
                d = abs(u - x0)
                h = -1 / mp.log(d) if 0 < d < delta else (plateau if d else 0)
                return u ** -(params.alpha + 1) * h

            i1 = mp.quad(raw, [1, x0 - delta, x0, x0 + delta, params.b])
            ref = i1 / (1 - mp.mpf(params.b) ** -params.alpha)
        assert abs(normalizer_M(params, profile) / float(ref) - 1.0) <= 1e-12

    def test_large_alpha_envelope(self):
        p10 = __import__("subexp").ModelParams(alpha=10.0)
        from subexp import PeriodicProfile
        prof = PeriodicProfile(p10)
        m10 = normalizer_M(p10, prof)
        assert 0.0 < m10 < prof.plateau / p10.alpha * (1.0 + 1e-6)

    def test_unit_total_mass(self, mu):
        assert abs(math.exp(tail(mu, 1.0)) - 1.0) < 1e-9


class TestLocalMass:
    def test_dip_window_vs_oracle(self, mu, profile, m_norm):
        # windows ending at, straddling, and away from dip structure
        for x in (32.0, 100.0, 511.5, 8192.0, 9999.0):
            adaptive = math.exp(local_mass(mu, ScaledSum.from_float(x, 4.0), 1.0))
            oracle = riemann_cell(profile, x, x + 1.0) / m_norm
            assert abs(adaptive / oracle - 1.0) < 1e-6, x

    def test_leading_order_at_dip_anchor(self, mu, m_norm):
        got = math.exp(local_mass(mu, ScaledSum.scaled(2, 2.0), 1.0))
        lead = 4.0 ** -4 * 2.0 ** -2 / (2 * LN4) / m_norm
        assert 0.5 * lead < got < 1.5 * lead  # leading order only

    def test_atom_window(self):
        d = MixtureDistribution.single(PointMass(0.0))
        assert local_mass(d, -0.5, 1.0) == 0.0  # log 1

    def test_window_left_of_support(self, mu):
        assert local_mass(mu, -10.0, 1.0) == -math.inf

    def test_windowspec_and_bad_width(self, mu):
        with pytest.raises(ParameterError):
            local_mass(mu, 100.0, -1.0)

    def test_mixture_additivity(self):
        u1 = UniformAC(0.0, 1.0)
        u2 = UniformAC(0.5, 2.0)
        mix = MixtureDistribution(components=((0.3, u1), (0.7, u2)))
        got = math.exp(local_mass(mix, 0.25, 1.0))
        want = 0.3 * math.exp(u1.log_window_mass(ScaledSum.from_float(0.25, 4.0), 1.0)) \
            + 0.7 * math.exp(u2.log_window_mass(ScaledSum.from_float(0.25, 4.0), 1.0))
        assert math.isclose(got, want, rel_tol=1e-12)

    def test_windows_tile(self, mu):
        x0 = 100.0
        total = math.exp(local_mass(mu, x0, 4.0))
        parts = sum(math.exp(local_mass(mu, x0 + j * 0.5, 0.5)) for j in range(8))
        assert abs(parts / total - 1.0) < 1e-8


class TestLocalDensity:
    def test_uniform_constant(self):
        uni = MixtureDistribution.single(UniformAC(0.0, 1.0))
        assert abs(local_density(uni, 0.5, 0.25)) < 1e-12

    def test_window_width_consistency(self, mu):
        # c=1 vs c=0.5 densities approach each other along plateau points
        rs = []
        for n in (4, 8):
            x = ScaledSum.scaled(n, 3.0)
            r = math.exp(local_density(mu, x, 1.0)
                         - local_density(mu, x, 0.5))
            rs.append(abs(r - 1.0))
        assert rs[1] < rs[0] and rs[1] < 1e-4

    def test_atom_in_window(self):
        d0 = MixtureDistribution(components=((0.5, PointMass(0.0)),
                                             (0.5, UniformAC(0.0, 1.0))))
        got = math.exp(local_density(d0, 0.5, 1.0))
        assert math.isclose(got, 0.5 + 0.5 * 0.5, rel_tol=1e-12)


class TestTailAndMoments:
    def test_uniform_tail(self):
        uni = MixtureDistribution.single(UniformAC(0.0, 1.0))
        assert math.isclose(math.exp(tail(uni, 0.25)), 0.75, rel_tol=1e-12)

    def test_tail_monotone(self, mu):
        xs = [1.0, 2.0, 3.5, 8.0, 31.9, 32.5, 100.0, 1000.0]
        vals = [tail(mu, x) for x in xs]
        assert all(a >= b - 1e-12 for a, b in zip(vals[:-1], vals[1:]))

    def test_pareto_tail_analytic(self):
        par = MixtureDistribution.single(ParetoAC(1.0))
        assert math.isclose(math.exp(tail(par, 3.0)), 0.25, rel_tol=1e-12)

    def test_moment_at_zero(self, mu):
        assert exp_moment(mu, 0.0) == 1.0

    def test_positive_moment_divergent(self, mu):
        with pytest.raises(DivergentMomentError):
            exp_moment(mu, 0.1)

    def test_uniform_moment_analytic(self):
        uni = MixtureDistribution.single(UniformAC(0.0, 1.0))
        for g in (-2.0, 0.5, 3.0):
            want = (math.exp(g) - 1.0) / g
            assert math.isclose(exp_moment(uni, g), want, rel_tol=1e-10)

    def test_mu_negative_moment(self, mu, profile, m_norm):
        got = exp_moment(mu, -1.0)
        grid = lambda u: np.exp(-u) * phi_values(profile, u) / m_norm
        want = oracle_window_mass(grid, 1.0, 60.0, 1e-5)
        assert abs(got / want - 1.0) < 1e-7


class TestTilt:
    def test_identity_tilt(self, mu):
        assert tilt(mu, 0.0) is mu

    def test_tilted_uniform_window_exact(self):
        uni = MixtureDistribution.single(UniformAC(0.0, 1.0))
        tu = tilt(uni, 1.3)
        got = math.exp(local_mass(tu, 0.2, 0.3))
        want = (math.exp(1.3 * 0.5) - math.exp(1.3 * 0.2)) / (math.exp(1.3) - 1.0)
        assert math.isclose(got, want, rel_tol=1e-12)

    def test_round_trip(self):
        mix = MixtureDistribution(components=((0.5, UniformAC(0.0, 1.0)),
                                              (0.25, PointMass(0.5)),
                                              (0.25, ParetoAC(2.0))))
        back = tilt(tilt(mix, -0.7), 0.7)
        for x in (0.1, 0.45, 1.5, 3.0):
            a = local_mass(mix, x, 0.3)
            b = local_mass(back, x, 0.3)
            assert abs(a - b) < 1e-10

    def test_point_mass_tilt_fixed_point(self):
        pm = MixtureDistribution.single(PointMass(2.0))
        tp = tilt(pm, 0.7)
        assert local_mass(tp, 1.5, 1.0) == 0.0
        assert local_mass(tp, 2.0, 1.0) == -math.inf

    def test_divergent_tilt_rejected(self, mu):
        with pytest.raises(DivergentMomentError):
            tilt(mu, 0.5)


class TestAtomSeries:
    def test_weights_must_sum_to_one(self):
        locs = (ScaledSum.from_float(-4.0, 4.0), ScaledSum.from_float(-16.0, 4.0))
        with pytest.raises(ParameterError):
            AtomSeries(locations=locs, weights=(0.5, 0.4))

    def test_scaled_atom_membership(self):
        locs = (ScaledSum.scaled(16, 1.0, sign=-1), ScaledSum.scaled(4, 1.0, sign=-1))
        series = MixtureDistribution.single(AtomSeries(locations=locs, weights=(0.5, 0.5)))
        x = ScaledSum.scaled(16, 1.0, sign=-1).add_offset(-0.5)
        assert math.isclose(math.exp(local_mass(series, x, 1.0)), 0.5,
                            rel_tol=1e-12)


class TestKernel:
    def test_triangle_integral_and_cdf(self):
        tri = PiecewiseLinearDensity.triangle(0.0, 1.0)
        assert math.isclose(tri.integral(), 1.0, rel_tol=1e-15)
        assert tri.cdf(0.5) == 0.5
        assert tri.value(0.5) == 2.0

    def test_tilt_integral_vs_numeric(self):
        tri = PiecewiseLinearDensity.triangle(0.0, 2.0)
        g = 0.8
        xs = np.linspace(0.0, 2.0, 200_001)
        mids = 0.5 * (xs[:-1] + xs[1:])
        vals = np.array([tri.value(float(t)) for t in mids])
        want = float(np.sum(np.exp(g * mids) * vals * np.diff(xs)))
        assert math.isclose(math.exp(tri.log_tilt_integral(g)), want, rel_tol=1e-8)

    def test_self_convolution_exact_peak(self):
        tri = PiecewiseLinearDensity.triangle(0.0, 1.0)
        # triangle self-convolution integrates to 1 and is symmetric about 1
        vs = np.linspace(0.0, 2.0, 2001)
        vals = np.array([tri.self_convolution_value(float(v)) for v in vs])
        assert math.isclose(float(np.trapezoid(vals, vs)), 1.0, rel_tol=1e-6)
        assert math.isclose(tri.self_convolution_value(0.7),
                            tri.self_convolution_value(1.3), rel_tol=1e-12)

    def test_kernel_of_point_mass_is_kernel(self):
        tri = PiecewiseLinearDensity.triangle(0.0, 2.0)
        base = MixtureDistribution.single(PointMass(0.0))
        ker = KernelAC(kernel=tri, base=base)
        for x in (0.3, 1.0, 1.7):
            got = math.exp(ker.log_density(ScaledSum.from_float(x, 4.0)))
            assert math.isclose(got, tri.value(x), rel_tol=1e-12)

    def test_kernel_window_mass_is_cdf_difference(self):
        tri = PiecewiseLinearDensity.triangle(0.0, 2.0)
        base = MixtureDistribution.single(PointMass(0.5))
        ker = MixtureDistribution.single(KernelAC(kernel=tri, base=base))
        got = math.exp(local_mass(ker, 1.0, 0.5))
        want = tri.cdf(1.0) - tri.cdf(0.5)
        assert math.isclose(got, want, rel_tol=1e-12)


class TestDensityHints:
    def test_negative_offsets_see_the_structure(self, mu):
        # the dip centre 4^6*2 lies at offset -0.5 from x
        x = ScaledSum.scaled(6, 2.0, offset=0.5)
        assert -0.5 in mu.components[0][1].density_cuts(x, -1.0, 0.0)[0]
        uni = UniformAC(0.0, 1.0)
        assert uni.density_cuts(ScaledSum.from_float(0.5, 4.0), -1.0, 0.0)[0] == [-0.5]

    def test_density_centres(self, mu):
        x = ScaledSum.scaled(6, 2.0, offset=0.5)
        phi = mu.components[0][1]
        hints, centres = phi.density_cuts(x, -1.0, 0.0)
        assert centres == [-0.5]
        assert -0.5 in hints
        assert mu.density_cuts(x, -1.0, 0.0)[1] == [-0.5]
        assert tilt(mu, -0.5).components[0][1].density_cuts(x, -1.0, 0.0)[1] == [-0.5]
        assert UniformAC(0.0, 1.0).density_cuts(x, -1.0, 0.0)[1] == []
        assert phi.density_cuts(ScaledSum.scaled(6, 3.0, offset=0.5), -1.0, 0.0)[1] == []

    def test_pareto_support_edge(self):
        cuts = ParetoAC(1.0).density_cuts(ScaledSum.from_float(0.25, 4.0), -1.0, 1.0)
        assert cuts == ([-0.25], [])

    def test_atoms_report_their_offsets(self):
        x = ScaledSum.from_float(0.5, 4.0)
        assert PointMass(1.5).density_cuts(x, 0.0, 2.0) == ([1.0], [])
        atoms = AtomSeries(locations=(ScaledSum.from_float(1.0, 4.0),
                                      ScaledSum.from_float(3.0, 4.0)), weights=(0.5, 0.5))
        assert atoms.density_cuts(x, 0.0, 2.0) == ([0.5], [])
        assert atoms.density_cuts(x, 0.0, 3.0) == ([0.5, 2.5], [])

    def test_phi_has_no_cut_below_its_support_edge(self, mu):
        phi = mu.components[0][1]
        hints, centres = phi.density_cuts(ScaledSum.zero(4.0), 0.0, 3.0)
        assert hints and min(hints) == 1.0
        assert centres == [2.0]

    def test_tilted_mixture_reports_its_atom(self, mu):
        rho = MixtureDistribution(components=((0.5, PointMass(0.0)),
                                              (0.5, mu.components[0][1])))
        tilted = tilt(rho, -0.5).components[0][1]
        hints, _centres = tilted.density_cuts(ScaledSum.from_float(0.5, 4.0), -1.0, 0.0)
        assert -0.5 in hints


class TestKernelCentres:
    """A ``KernelAC`` query is one query on its base under a weight built
    from the kernel, so a dip anchor costs a small multiple of a plateau
    point: untilted windows and densities take the dip density's closed
    forms, and tails add the base's own tail."""

    @pytest.mark.parametrize("query, bound", [
        ("log_window_mass", 4.0),
        ("log_tail", 4.0),
        ("log_density", 4.0),
    ])
    def test_anchor_cost(self, mu, eval_count, query, bound):
        base = MixtureDistribution(components=((0.5, PointMass(0.0)),
                                               (0.5, mu.components[0][1])))
        ker = KernelAC(kernel=PiecewiseLinearDensity.triangle(0.0, 1.0), base=base)
        args = {"log_window_mass": (1.0,)}.get(query, ())
        cost = {}
        for y in (2.0, 3.0):  # the dip centre 4^6*2 lies at offset -0.5
            eval_count[0] = 0
            getattr(ker, query)(ScaledSum.scaled(6, y, offset=0.5), *args)
            cost[y] = eval_count[0]
        assert cost[2.0] <= bound * cost[3.0], cost

    @pytest.mark.parametrize("query", ["log_window_mass", "log_density"])
    @pytest.mark.parametrize("n", [6, 1024])
    def test_untilted_anchor_runs_no_quadrature(self, mu, eval_count, query, n):
        base = MixtureDistribution(components=((0.5, PointMass(0.0)),
                                               (0.5, mu.components[0][1])))
        ker = KernelAC(kernel=PiecewiseLinearDensity.triangle(0.0, 1.0), base=base)
        args = {"log_window_mass": (1.0,)}.get(query, ())
        assert getattr(ker, query)(ScaledSum.scaled(n, 2.0, offset=0.5), *args) > -math.inf
        assert eval_count[0] == 0

    def test_tilted_window_of_smoothed_atom(self):
        # raises, as tilted tails do: no report or workload tilts a smoothed
        # measure
        tri = PiecewiseLinearDensity.triangle(0.0, 2.0)
        ker = KernelAC(kernel=tri, base=MixtureDistribution.single(PointMass(0.5)))
        x = ScaledSum.from_float(0.7)
        for query in (lambda: ker.log_window_mass(x, 1.0, gamma=-0.5),
                      lambda: ker.log_window_mass(x, Weight.window(1.0).smoothed(tri), gamma=-0.5),
                      lambda: ker.log_window_mass_eval(x, 0.0, 1.0, 1.0, gamma=-0.5)(0.0),
                      lambda: ker.log_tail(x, gamma=-0.5)):
            with pytest.raises(ParameterError):
                query()
        assert ker.log_window_mass(x, 1.0) > -math.inf

    def test_rejects_a_kernel_that_does_not_vanish_at_its_ends(self, mu):
        with pytest.raises(ParameterError):
            KernelAC(kernel=PiecewiseLinearDensity((0.0, 1.0), (1.0, 1.0)), base=mu)


def test_untilted_dip_window_runs_no_quadrature(mu, eval_count):
    # windows that hold a centre or end beside it: closed form, tilted too.
    # At small scales a segment beside the centre reaches beyond 2^-8 x0 b^m
    # of it: windows across the ring, from the centre, and ending just below
    # it
    phi = mu.components[0][1]
    windows = [(8, -0.5, 1.0), (1, -1.0 - 1.2e-7, 1.0)]
    for m in range(4):
        ring = 0.25 * 4.0 ** m
        windows += [(m, -ring, 2.0 * ring), (m, 0.0, ring), (m, -0.9 * ring, 0.9 * ring - 1.2e-7)]
    for m, off, c in windows:
        x = ScaledSum.scaled(m, 2.0, offset=off).normalize()
        phi.log_window_mass(x, c)
        assert eval_count[0] == 0, (m, off, c)
    phi.log_window_mass(ScaledSum.scaled(8, 2.0, offset=-0.5), 1.0, gamma=-0.01)
    assert eval_count[0] == 0


def test_single_level_queries_run_no_quadrature(mu, params, eval_count):
    # windows, shifted windows, densities and tails of mu at plateau, anchor,
    # anchor-plus-offset and ring points from 4^1 to 4^1024 (tails while the
    # point is a float), then the tilted laws: normalizers, windows and tails
    ring = params.x0 + 0.5 * params.delta
    points = [(n, y, t) for n in (1, 7, 64, 255, 499, 500, 700, 1024)
              for y, t in ((1.3, 0.0), (params.x0, 0.0), (params.x0, -0.37 * n), (ring, 0.0))]
    for n, y, t in points:
        x = ScaledSum.scaled(n, y, offset=t)
        for c in (4.0 ** -5, 0.5, 1.0, 2.0):
            local_mass(mu, x, c)
            local_mass(mu, x.add_offset(1.0), c)
            local_density(mu, x, c)
        if n < 500:
            tail(mu, x)
    pareto = MixtureDistribution.single(ParetoAC(1.0))
    for g in (0.5, 1.0, 2.0):
        for dist in (tilt(pareto, -g), tilt(mu, -g)):
            for x in (0.3, 29.06, 1e3):
                local_mass(dist, x, 0.5)
                tail(dist, x)
    assert eval_count[0] == 0
    # windows whose structure reaches beyond the head cell or beyond float
    # range: spans across 2^50, windows 0.5 to 5 times their point wide,
    # and remainders beyond float range (the centre 4^600 x0 itself, a
    # plateau point, a ring point), each against mpmath at the exact point
    phi = mu.components[0][1]
    ring = params.x0 + 0.5 * params.delta
    windows = [(ScaledSum.scaled(24, 3.0), 5e14), (ScaledSum.scaled(24, ring), 2e15),
               (ScaledSum.from_float(2.0 ** 50 - 0.5), 1.0),
               (ScaledSum.scaled(25, 1.0, offset=-3.0), 4.0)]
    windows += [(ScaledSum.scaled(n, y), k * params.b ** n * y)
                for n, y, k in ((26, params.x0, 0.5), (26, 1.3, 5.0), (40, ring, 2.0),
                                (100, params.x0, 1.0), (300, 1.3, 0.5), (300, ring, 5.0))]
    for terms in (((1, 600, 2.0 + 2.0 ** -51), (-1, 574, 2.0)), ((1, 600, 3.0), (1, 589, 3.0)),
                  ((1, 600, ring), (-1, 590, 1.5))):
        x = ScaledSum(b=params.b, terms=terms)
        assert x.is_canonical() and x.phase().rem is None
        windows += [(x, 1.0), (x, 1e300)]
    for x, c in windows:
        got = phi.log_window_mass(x, c)
        ref = _mp_window_log(params, phi.m_log, x, c)
        assert abs(got - ref) <= 1e-12, (x, c, got, ref)
    # the same span across 2^50 node by node through one evaluator
    x = ScaledSum.scaled(24, 3.0)
    ev = phi.log_window_mass_eval(x, 0.0, 5e14, 1.0)
    for t in (0.0, 2.5e14, 5e14):
        assert ev(t) == phi.log_window_mass(x.add_offset(t), 1.0), t
    assert eval_count[0] == 0


def test_measures_integrates_only_in_its_oracle():
    # the component layer cannot nest a quadrature: measures refers to
    # integrate_log only inside phi_integral_log, the dip density's oracle
    tree = ast.parse(Path(measures.__file__).read_text())
    users = [getattr(node, "name", None) for node in tree.body
             if not isinstance(node, ast.ImportFrom) and any(
                 getattr(n, "id", getattr(n, "attr", None)) == "integrate_log"
                 for n in ast.walk(node))]
    assert users == ["phi_integral_log"]


def test_component_queries_take_no_spec(mu):
    # a closed form holds no quadrature spec, and a tilt goes by keyword, so
    # a spec passed where a query once took one raises rather than tilting
    kinds = [measures.Component, *measures.Component.__subclasses__(), MixtureDistribution]
    tilts = 0
    for kind in kinds:
        for name, fn in inspect.getmembers(kind, inspect.isfunction):
            if name.startswith("__"):
                continue
            params = inspect.signature(fn).parameters
            assert "quad" not in params, (kind.__name__, name)
            gamma = params.get("gamma")
            if gamma is not None and gamma.default is not inspect.Parameter.empty:
                assert gamma.kind is inspect.Parameter.KEYWORD_ONLY, (kind.__name__, name)
                tilts += 1
    assert len(kinds) == 9 and tilts >= 9 * 5
    with pytest.raises(TypeError):
        mu.log_window_mass(ScaledSum.from_float(100.0), 1.0, QuadratureSpec())


def test_facades_read_no_spec(mu):
    # the entry points that still take a trailing spec give the same bits
    # without one as with the coarsest: no single-level query integrates
    coarse = QuadratureSpec(rel_tol=1e-3, max_depth=1)
    pareto = MixtureDistribution.single(ParetoAC(1.0))
    tp = tilt(pareto, -1.0)
    x = ScaledSum.scaled(6, 2.0, offset=0.5)
    smooth = Weight.window(1.0).smoothed(PiecewiseLinearDensity.triangle())
    calls = [(local_mass, (mu, x, 1.0)), (local_mass, (mu, x, smooth)),
             (local_density, (mu, x, 0.5)), (tail, (mu, x)), (tail, (tp, 30.0)),
             (exp_moment, (mu, -1.0)), (tilt, (pareto, -1.0)), (tilt, (mu, -0.5)),
             (tilt_identity_probe, (tp, 1.0, (0.1, 1.0), (20.0, 40.0)))]
    for fn, args in calls:
        assert repr(fn(*args)) == repr(fn(*args, coarse)), fn.__name__


def test_weighted_masses_run_no_quadrature(eval_count):
    # uniform and Pareto weighted masses, tilted and untilted, from below
    # the support to beyond float range, and atoms under a smoothed window
    kernel = PiecewiseLinearDensity.triangle(0.0, 1.0)
    g1 = Weight.window(1.0).smoothed(kernel)
    points = [ScaledSum.from_float(v) for v in (-0.7, 0.3, 2.5, 1e6)] + [ScaledSum.scaled(600, 2.0)]
    for comp, gammas in ((UniformAC(0.0, 1.0), (0.0, -1.0, 2.0)),
                         (ParetoAC(1.0), (0.0, -1.0)), (ParetoAC(2.5), (0.0, -0.01))):
        for w in (g1, g1.smoothed(kernel)):
            for x in points:
                for gamma in gammas:
                    comp.log_window_mass(x, w, gamma=gamma)
    atoms = MixtureDistribution(components=((0.5, PointMass(0.3)), (0.5, AtomSeries(
        locations=(ScaledSum.from_float(-0.2), ScaledSum.from_float(0.9)), weights=(0.25, 0.75)))))
    assert local_mass(atoms, 0.0, g1) > -math.inf
    assert eval_count[0] == 0
    # untilted beyond float range: the density at x times the weight's mass
    got = ParetoAC(1.0).log_window_mass(points[-1], g1.smoothed(kernel))
    assert abs(got + 2.0 * (600 * LN4 + math.log(2.0))) < 1e-12


def _mp_window_log(params, m_log, x, c):
    """log mu((x, x+c]) at the exact point of x, by mpmath: the offsets of
    the support edge and of the centres and ring edges of every cell the
    window meets, from the exact point at 3500 bits, then the density over
    the window's offsets at 50 digits, relative to ``u^(-alpha-1)``."""
    mp = pytest.importorskip("mpmath")
    a1 = params.alpha + 1
    with mp.workprec(3500):
        b = mp.mpf(params.b)
        u = sum((s * mp.mpf(y) * b ** m for s, m, y in x.terms), mp.mpf(x.offset))
        with mp.workprec(64):
            m_lo = int(mp.floor(mp.log(u) / mp.log(b))) - 1
            m_hi = int(mp.floor(mp.log(u + c) / mp.log(b))) + 1
        cuts, rings = {1 - u}, []
        for m in range(max(m_lo, 0), m_hi + 1):
            centre, half = b ** m * params.x0 - u, b ** m * params.delta
            cuts |= {centre - half, centre, centre + half}
            rings.append((centre - half, centre + half, centre, m))
        cuts = sorted(t for t in cuts if 0 < t < c)
    with mp.workdps(50):
        log_b, log_u = mp.log(params.b), mp.log(u)
        plateau = -1 / mp.log(mp.mpf(params.delta))
        ends = [mp.mpf(0), *(mp.mpf(t) for t in cuts), mp.mpf(c)]
        total = 0
        for lo, hi in zip(ends[:-1], ends[1:]):
            mid = (lo + hi) / 2
            if u + mid < 1:
                continue
            dip = next(((t0, m) for r_lo, r_hi, t0, m in rings if r_lo < mid < r_hi), None)

            def f(t, dip=dip):
                if dip is None:
                    h = plateau
                elif t == dip[0]:
                    return mp.mpf(0)
                else:
                    h = -1 / (mp.log(abs(t - dip[0])) - dip[1] * log_b)
                return (1 + t / u) ** -a1 * h

            total += mp.quad(f, [lo, hi])
        return float(mp.log(total) - a1 * log_u - mp.mpf(m_log))


def test_scale_walk_meets_every_ring(mu, params, monkeypatch):
    # the cells walked by _scales, the head cell alone where the span stays
    # within its reach, against a walk from the logs three cells wider on
    # each side wherever b^M is a float: windows at anchors, in rings and
    # on plateaus, 4^0 to 4^1024, widths 1e-6 to 37, and absolute ranges,
    # all bit for bit
    phi = mu.components[0][1]
    rng = random.Random(11)
    windows = []
    for _ in range(2000):
        n = rng.choice([rng.randint(0, 30), rng.randint(0, 1024)])
        y = rng.choice([params.x0, params.x0 + rng.uniform(-params.delta, params.delta),
                        rng.uniform(1.0, params.b)])
        t = rng.choice([0.0, rng.uniform(-40.0, 40.0), -rng.uniform(0.0, 1e-3)])
        c = math.exp(rng.uniform(math.log(1e-6), math.log(37.0)))
        windows.append((ScaledSum.scaled(n, y, offset=t).normalize(), c))
    ranges = []
    for _ in range(2000):
        lo = math.exp(rng.uniform(0.0, 30.0)) * rng.choice([1.0, params.x0, params.b])
        lo += rng.uniform(-3.0, 3.0)
        ranges.append((lo, lo + math.exp(rng.uniform(math.log(1e-6), math.log(1e4)))))
    for _ in range(300):  # points below the support edge, the window below it or across it
        x = ScaledSum.from_float(rng.choice([rng.uniform(-3.0, 1.0), rng.uniform(0.0, 1e-3)]))
        windows.append((x, math.exp(rng.uniform(math.log(1e-6), math.log(37.0)))))

    # evaluator spans that meet a neighbouring cell's ring only because the
    # point's remainder r moves it out of its head cell towards that ring
    b, x0, delta = params.b, params.x0, params.delta
    spans = []
    for n in (12, 30):
        r = b ** n * 2.0 ** -22
        for y, off, edge in ((1.0, -r, (x0 + delta) * b ** (n - 1)),
                             (b - 2.0 ** -50, r, (x0 - delta) * b ** (n + 1))):
            x = ScaledSum.scaled(n, y, offset=off)
            assert x.phase().rem == off
            t = (edge - b ** n * y) - off  # the ring edge's offset from x
            spans.append((x, t - 0.5 * r, t + 0.5 * r))

    def run():
        return ([phi.log_window_mass(x, c) for x, c in windows],
                [phi.density_cuts(ScaledSum.zero(params.b), lo, hi) for lo, hi in ranges],
                [phi.log_window_mass_eval(x, lo, hi, 1.0)(t)
                 for x, lo, hi in spans for t in (lo, 0.5 * (lo + hi), hi)])

    trimmed = run()

    def brute(p, ph, lo, hi, bm):
        if bm == math.inf:  # no cell but the head cell's within float range
            return None
        hi_log = ph.log_point(hi)
        if not hi_log >= 0.0:
            return ()
        m_lo = math.floor(max(ph.log_point(lo), 0.0) / p.log_b) - 3
        return range(max(m_lo, 0), math.floor(hi_log / p.log_b) + 4)

    monkeypatch.setattr("subexp.measures._scales", brute)
    assert run() == trimmed


@pytest.mark.parametrize("n, y, t", [(1, 3.0, 0.25), (6, 2.0, -0.5), (30, 2.1, 0.0),
                                     (600, 2.0, -7.0), (1024, 2.0, 1.0)])
def test_one_window_reads_its_point_once(mu, monkeypatch, n, y, t):
    # local_mass canonicalizes its point and builds its phase once;
    # local_density also moves the point to the window's lower end
    counts = {"normalize": 0, "phase": 0}
    normalize = ScaledSum.normalize

    def counted_normalize(self):
        counts["normalize"] += 1
        return normalize(self)

    class CountedPhase(scaledcore.PointPhase):
        __slots__ = ()

        def __init__(self, base):
            counts["phase"] += 1
            super().__init__(base)

    monkeypatch.setattr(ScaledSum, "normalize", counted_normalize)
    monkeypatch.setattr(measures, "PointPhase", CountedPhase)
    monkeypatch.setattr(scaledcore, "PointPhase", CountedPhase)
    x = ScaledSum.scaled(n, y, offset=t)
    counts.update(normalize=0, phase=0)
    local_mass(mu, x, 0.5)
    assert counts == {"normalize": 1, "phase": 1}
    counts.update(normalize=0, phase=0)
    local_density(mu, x, 0.5)
    assert counts == {"normalize": 2, "phase": 1}


class TestCanonicalBoundary:
    def test_hand_built_point_matches_its_normal_form(self, mu, profile, quad):
        raw = ScaledSum(b=4.0, terms=((1, 6, 2.0), (1, 6, 1.0)), offset=0.5)
        canon = raw.normalize()
        assert canon.terms != raw.terms
        uni = MixtureDistribution.single(UniformAC(0.0, 1.0))
        calls = {
            "local_mass": lambda x: local_mass(mu, x, 1.0),
            "local_density": lambda x: local_density(mu, x, 1.0),
            "tail": lambda x: tail(mu, x),
            "conv_local_mass": lambda x: conv_local_mass(mu, uni, x, 1.0, quad),
            "phi_log_value": lambda x: phi_log_value(profile, x),
            "long_tail_probe": lambda x: [(e.log_num, e.log_den) for e in
                                          long_tail_probe(mu, 1.0, [x], profile.params).entries],
        }
        for name, call in calls.items():
            assert call(raw) == call(canon), name


@st.composite
def _scaled_bases(draw):
    # b^n y + R, n in [0, 1024]: anchors y = x0 (with lambda offsets R),
    # x0 +- k ulp, mantissas k ulp from a cell edge, and any mantissa
    ulp = 2.0 ** -51
    n = draw(st.integers(0, 1024))
    y = draw(st.one_of(
        st.just(2.0), st.floats(1.0, 4.0, exclude_max=True),
        st.builds(lambda k, side: 2.0 + side * k * ulp, st.integers(1, 8), st.sampled_from([-1, 1])),
        st.builds(lambda k: 1.0 + 0.5 * k * ulp, st.integers(1, 8)),
        st.builds(lambda k: 4.0 - k * ulp, st.integers(1, 8))))
    rem = draw(st.one_of(st.just(0.0), st.floats(-2.0 ** 40, 2.0 ** 40),
                         st.floats(-4.0, 4.0)))
    return ScaledSum.scaled(n, y, offset=rem)


class TestGaussRounds:
    """A round of window nodes through the evaluator's batch form against the
    scalar walk, node by node."""

    kernel = PiecewiseLinearDensity.triangle(0.0, 1.0)
    g1 = Weight.window(1.0).smoothed(kernel)
    weights = {"unit": Weight.window(1.0), "G1": g1, "G2": g1.smoothed(kernel),
               # prop11's reflected triangle of the two window uniforms, c = 1
               "triangle": Weight(((-2.0, -1.0, (0.0, 1.0)), (-1.0, 0.0, (1.0, -1.0))))}

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(0, 500), in_ring=st.booleans(), u=st.floats(-0.999, 0.999),
           weight=st.sampled_from(sorted(weights)), size=st.sampled_from([3, 40, 250]),
           seed=st.integers(0, 2 ** 32 - 1), all_numpy=st.booleans())
    def test_round_matches_each_node(self, mu, params, n, in_ring, u, weight, size,
                                     seed, all_numpy):
        # bases 4^n y in and out of the ring; nodes spread over the span and
        # nodes that put a centre or ring edge within 2^-39 of a window end
        # or knot; rounds above and below the crossover, or all numpy
        phi = mu.components[0][1]
        w = self.weights[weight]
        if in_ring:
            y = params.x0 + u * params.delta
        elif u >= 0.0:
            y = params.x0 + params.delta + u * (params.b - params.x0 - params.delta)
        else:
            y = 1.0 - u * (params.x0 - params.delta - 1.0)
        x = ScaledSum.scaled(n, y)
        span = max(1.0, min(0.5 * x.value(), 4.0 + (n * LN4) ** 2))
        ev = phi.log_window_mass_eval(x, -span, 0.0, w)
        rng = random.Random(seed)
        ts = [-span * rng.random() for _ in range(size)]
        hints, centres = phi.density_cuts(x, w.lo - span, w.hi)
        points = hints + centres
        for _ in range(size // 3 if points else 0):
            t = rng.choice(points) - rng.choice(w.knots) + rng.choice(
                (-2.0 ** -39, -2.0 ** -45, 0.0, 2.0 ** -45, 2.0 ** -39))
            if -span <= t <= 0.0:
                ts.append(t)
        batch_min = 1 if all_numpy else measures._GAUSS_BATCH_MIN
        with patch("subexp.measures._GAUSS_BATCH_MIN", batch_min):
            got = ev.many(ts)
        for t, a in zip(ts, got):
            b = ev(t)
            assert a == b or abs(a - b) <= max(1e-13, 4 * math.ulp(max(abs(a), abs(b)))), (t, a, b)

    # b = 8, x0 = 2.4, delta = 0.9: a ring reaching within two half-widths of
    # the pole of -1/log|s| at |s| = 1, where a dip piece's Gauss rule halves
    wide = ModelParams(b=8.0, x0=2.4, delta=0.9, x1=1.0, x2=1.5)

    @pytest.mark.parametrize("weight", sorted(weights))
    @pytest.mark.parametrize("case", ["series", "cut", "halved", "support", "far"])
    def test_round_walk_takes_every_segment_kind(self, mu, params, case, weight):
        # rounds built to reach one kind of segment, all through the round
        # walk, against the scalar walk node by node.  Its Gauss rows lie on
        # one side of a centre at a ratio of 3 or more; it hands every other
        # dip segment to the scalar form, whose calls show the kind was
        # taken: series segments within r0 = 2^-8 x0 b^m of a centre,
        # segments cut at +-2^k r0, Gauss rules halved below a ratio of 2,
        # windows across the support edge at 1, and around a centre reached
        # by a remainder beyond float range
        phi = mu.components[0][1]
        if case == "series":  # around the centre 4^6 x0, within r0 = 32 of it
            x, lo, hi = ScaledSum.scaled(6, params.x0), -16.0, 16.0
        elif case == "cut":  # across the centre x0 of cell 0, r0 = 2^-7
            x, lo, hi = ScaledSum.from_float(1.5), -0.5, 0.5
        elif case == "halved":  # up to the wide ring's upper edge at 3.3
            phi = PhiAC(profile=PeriodicProfile(self.wide), m_log=0.0)
            x, lo, hi = ScaledSum.from_float(2.5, self.wide.b), -0.2, 0.2
        elif case == "support":  # windows that start below 1
            x, lo, hi = ScaledSum.from_float(0.25), 0.0, 1.0
        else:  # 4^600 (2 + 2^-51) - 4^574 2, the centre 4^600 x0 itself
            x = ScaledSum(b=4.0, terms=((1, 600, 2.0 + 2.0 ** -51), (-1, 574, 2.0)))
            lo, hi = -16.0, 16.0
        w = self.weights[weight]
        ev = phi.log_window_mass_eval(x, lo, hi, w)
        ts = [lo + (hi - lo) * (i + 0.5) / 97 for i in range(97)]
        ratios, near, rules, rounds = [], [], [], []
        gauss_rows, log_dip_mass, gauss_mass, round_masses = (
            PhiAC._dip_gauss_rows, PhiAC._log_dip_mass, PhiAC._dip_gauss_mass,
            PhiAC._round_masses)

        def spy_round(self, plan, t):
            rounds.append(len(t))
            return round_masses(self, plan, t)

        def no_node(self, *args):
            raise AssertionError("a node of the round took the scalar walk")

        def spy_rows(self, *args):
            ratios.append(args[5])
            return gauss_rows(self, *args)

        def spy_near(self, ring, a, b, *args):
            near.append((ring[3], max(ring[2] - a, b - ring[2])))  # scale, reach from the centre
            return log_dip_mass(self, ring, a, b, *args)

        def spy_rule(self, lnbm, bm, d_mid, h, ratio, *args):
            rules.append(ratio)
            return gauss_mass(self, lnbm, bm, d_mid, h, ratio, *args)

        with patch("subexp.measures._GAUSS_BATCH_MIN", 1), \
                patch.object(PhiAC, "_dip_gauss_rows", spy_rows), \
                patch.object(PhiAC, "_log_dip_mass", spy_near), \
                patch.object(PhiAC, "_dip_gauss_mass", spy_rule), \
                patch.object(PhiAC, "_round_masses", spy_round), \
                patch.object(PhiAC, "_node_mass", no_node):
            got = ev.many(ts)
        # so every spied call above came from the round walk
        assert rounds == [len(ts)]
        for t, a in zip(ts, got):
            b = ev(t)
            assert a == b or abs(a - b) <= max(1e-13, 4 * math.ulp(max(abs(a), abs(b)))), (t, a, b)
        rows = np.concatenate([np.zeros(0), *ratios])
        assert np.all(rows >= 3.0)
        # every case takes Gauss rows but these four, whose dip segments all
        # lie too near a centre for a Gauss row, or which meet no ring
        if (case, weight) not in {("cut", "unit"), ("halved", "G1"), ("halved", "unit"),
                                  ("support", "triangle")}:
            assert rows.size > 0
        p = phi.params
        # log(reach / r0) of each segment the walk handed to the scalar form
        reach = [math.log(d) - m * p.log_b - math.log(min(p.x0, 2.0) * measures._DIP_SERIES_REACH)
                 for m, d in near]
        if case == "series":
            assert any(v <= 0.0 for v in reach)
        elif case == "cut":
            assert any(v > 0.0 for v in reach)
        elif case == "halved":
            assert near and any(v < 2.0 for v in rules)
        elif case == "support":
            assert x.value() + lo + w.lo < 1.0 < x.value() + hi + w.hi
        else:
            assert x.phase().rem is None and near

    @settings(max_examples=60, deadline=None)
    @given(us=st.lists(st.one_of(
        st.floats(1.0, 2.0 ** 50, exclude_max=True), st.floats(0.0, 1.0),
        st.integers(0, 24).map(lambda m: 4.0 ** m),
        st.tuples(st.integers(0, 24), st.sampled_from([1.75, 2.0, 2.25])).map(
            lambda my: 4.0 ** my[0] * my[1])), min_size=1, max_size=40))
    def test_density_many_matches_each(self, mu, us):
        # the batch form of the outer density against the evaluator point by
        # point, at cell edges 4^m, ring edges and centres among others
        dens = mu.components[0][1].log_density_eval(ScaledSum.zero(4.0))
        for u, a in zip(us, dens.many(us)):
            b = dens(u)
            assert a == b or abs(a - b) <= 4 * math.ulp(max(abs(a), abs(b))), (u, a, b)

    @settings(max_examples=80, deadline=None)
    @given(base=_scaled_bases(), ts=st.lists(st.one_of(
        st.floats(-2.0 ** 40, 2.0 ** 40), st.floats(-4.0, 4.0),
        st.integers(-60, 60).map(lambda k: math.copysign(2.0 ** abs(k), k))),
        min_size=1, max_size=40))
    # a remainder beyond float range, 4^600 * 2, which absorbs every offset
    @example(base=ScaledSum(4.0, ((1, 1000, 3.0), (1, 600, 2.0))).normalize(), ts=[0.0, -3.5])
    def test_density_many_matches_each_at_scaled_bases(self, mu, base, ts):
        # the batch form at a positive head against the scalar kernel point
        # by point; offsets up to 2^40 move points near a cell edge across it
        # from n = 26 up, and onto the centre or off it at anchors
        dens = mu.components[0][1].log_density_eval(base)
        assert hasattr(dens, "many")
        _s, n, y = base.terms[0]
        if n < 500:  # and offsets at, and within rounding of, the head cell's centre
            centre = (2.0 - y) * 4.0 ** n - base.offset
            ts = ts + [centre + d for d in (-1.0, -2.0 ** -20, -2.0 ** -40, 0.0, 2.0 ** -30, 1.0)]
        for t, a in zip(ts, dens.many(ts)):
            b = dens(t)
            assert a == b or abs(a - b) <= 4 * math.ulp(max(abs(a), abs(b))), (t, a, b)

    def test_self_convolution_rounds_take_the_batch_density(self, profile, quad):
        # each round of the pointwise self-convolution reads its inner
        # density, at the point b^M y1 + R, in one batch call, as it reads
        # its outer density, and no node by itself
        calls = []
        original = PhiAC._log_densities

        def spy(self, base, ts):
            calls.append((base.sign() > 0 and bool(base.terms), len(ts)))
            return original(self, base, ts)

        scalar = []
        plain = measures.phi_window_log_eval

        def counted(profile, base):
            ev = plain(profile, base)
            return lambda t: (scalar.append(t), ev(t))[1]

        with patch.object(PhiAC, "_log_densities", spy), \
                patch("subexp.measures.phi_window_log_eval", counted):
            got = phi_self_conv_at(profile, ScaledSum.scaled(6, 3.0), quad)
        ref = phi_self_conv_at(profile, ScaledSum.scaled(6, 3.0), quad)
        inner = [k for head, k in calls if head]
        assert got == ref and not scalar
        assert len(inner) == len(calls) - len(inner) > 0 and max(inner) > 1


class TestWeight:
    kernel = PiecewiseLinearDensity.triangle(0.0, 1.0)

    def g1(self):
        return Weight.window(1.0).smoothed(self.kernel)

    def test_smoothed_window_is_the_cdf_difference(self):
        # G1(t) = F(1-t) - F(-t), G2(t) = F2(1-t) - F2(-t) with F2 the CDF of
        # kernel * kernel, exact per piece by 2-node Gauss on its cubic pieces
        g1 = self.g1()
        g2 = g1.smoothed(self.kernel)
        ts = [i / 64.0 - 2.0 for i in range(1, 193)] + [-1.3, 0.1, 0.77]
        for t in ts:
            assert abs(g1.value(t) - (self.kernel.cdf(1.0 - t) - self.kernel.cdf(-t))) < 1e-15

        def f2_cdf(v):
            total = 0.0
            for lo in (0.0, 0.5, 1.0, 1.5):
                hi = min(lo + 0.5, v)
                if hi > lo:
                    for z in (-1.0 / math.sqrt(3.0), 1.0 / math.sqrt(3.0)):
                        s = 0.5 * (lo + hi) + 0.5 * (hi - lo) * z
                        total += 0.5 * (hi - lo) * self.kernel.self_convolution_value(s)
            return total

        for t in ts:
            assert abs(g2.value(t) - (f2_cdf(1.0 - t) - f2_cdf(-t))) < 1e-14, t
        assert g1.knots == (-1.0, -0.5, 0.0, 0.5, 1.0)
        assert g2.knots == (-2.0, -1.5, -1.0, -0.5, 0.0, 0.5, 1.0)
        assert abs(g2.mass() - 1.0) < 1e-15
        assert Weight.window(2.5).mass() == 2.5

    def test_shift_cuts_and_moves(self):
        g1 = self.g1()
        cut = g1.shift(0.4, above=0.0)
        assert cut.lo == 0.0 and cut.hi == 1.4
        for t in (1e-9, 0.05, 0.1, 0.6, 0.9, 1.39):
            assert abs(cut.value(t) - g1.value(t - 0.4)) < 1e-15
        assert g1.shift(-2.0, above=0.0) is None
        assert Weight.window(1.0).shift(-0.25, above=0.0).width == 0.75

    def test_rejects_bad_pieces_and_kernels(self):
        with pytest.raises(ParameterError):
            Weight(((0.0, 0.5, (1.0,)), (0.6, 1.0, (1.0,))))
        with pytest.raises(ParameterError):
            Weight.window(1.0).smoothed(PiecewiseLinearDensity((0.0, 1.0), (1.0, 1.0)))

    def test_default_weighted_masses(self):
        g1 = self.g1()
        # uniform: the weight's exact integral over the support, t in [-x, 1-x)
        uni = MixtureDistribution.single(UniformAC(0.0, 1.0))
        x = 0.3
        exact = 0.0
        for lo, hi, c, _upper in g1.pieces:
            a, b = max(lo, -x), min(hi, 1.0 - x)
            if b > a:
                exact += sum(cj * ((b - lo) ** (j + 1) - (a - lo) ** (j + 1)) / (j + 1)
                             for j, cj in enumerate(c))
        assert abs(local_mass(uni, x, g1) - math.log(exact)) < 1e-13
        # atoms: the weight at each atom's offset, tilts included
        atoms = MixtureDistribution(components=((0.5, PointMass(0.3)), (0.5, AtomSeries(
            locations=(ScaledSum.from_float(-0.2), ScaledSum.from_float(0.9)),
            weights=(0.25, 0.75)))))
        want = 0.5 * g1.value(0.3) + 0.5 * (0.25 * g1.value(-0.2) + 0.75 * g1.value(0.9))
        assert abs(local_mass(atoms, 0.0, g1) - math.log(want)) < 1e-15
        tp = tilt(MixtureDistribution.single(PointMass(0.3)), 0.7)
        assert abs(local_mass(tp, 0.0, g1) - math.log(g1.value(0.3))) < 1e-15
        # a mixture is the weighted sum of its components
        mix = MixtureDistribution(components=((0.4, UniformAC(0.0, 1.0)), (0.6, ParetoAC(1.0))))
        parts = (0.4 * math.exp(local_mass(uni, 0.5, g1))
                 + 0.6 * math.exp(local_mass(MixtureDistribution.single(ParetoAC(1.0)), 0.5,
                                             g1)))
        assert abs(math.exp(local_mass(mix, 0.5, g1)) / parts - 1.0) < 1e-12

    @pytest.mark.parametrize("gamma", [0.0, -0.01])
    def test_dip_weighted_mass_matches_the_plain_default(self, mu, gamma):
        # closed forms (untilted) and the weighted quadrature runs (tilted, or
        # near a centre at small scales) against weight times density by
        # quadrature, cut at the density's structure and the weight's knots
        phi = mu.components[0][1]
        quad = QuadratureSpec(rel_tol=1e-10)
        g2 = self.g1().smoothed(self.kernel)
        for x in (ScaledSum.scaled(3, 2.0), ScaledSum.scaled(2, 2.0, offset=0.3),
                  ScaledSum.from_float(1.5), ScaledSum.scaled(5, 3.0), ScaledSum.scaled(9, 2.0)):
            f = phi.log_density_eval(x, gamma=gamma)
            hints, centres = phi.density_cuts(x, g2.lo, g2.hi)
            want = quadrature.integrate_log(
                lambda t: f(t) + math.log(g2.value(t)) if g2.value(t) > 0.0 else -math.inf,
                g2.lo, g2.hi, quad, hints=hints + list(g2.knots[1:-1]), singular=centres)
            assert abs(phi.log_window_mass(x, g2, gamma=gamma) - want) < 1e-9, x

    @pytest.mark.parametrize("times, gamma, x", [
        (times, gamma, x) for times in (1, 2) for gamma in (0.0, -0.01)
        for x in (2.0 ** -44, 8 * 2.0 ** -44)])
    def test_weight_vanishing_at_the_support_edge(self, mu, times, gamma, x):
        # G1 and G2 meet the dip density's support only on (1 - x, 1], where
        # they are 2 (t - 1)^2 and (2/3) (t - 1)^4 and the density K/M to O(x):
        # the masses are (2/3) x^3 and (2/15) x^5 times K/M e^gamma, which
        # offsets from the last piece's lower end cancel to nothing
        phi = mu.components[0][1]
        w = self.g1() if times == 1 else self.g1().smoothed(self.kernel)
        mass = 2.0 / 3.0 * x ** 3 if times == 1 else 2.0 / 15.0 * x ** 5
        want = math.log(mass * phi.profile.plateau) - phi.m_log + gamma
        got = phi.log_window_mass(ScaledSum.from_float(x), w, gamma=gamma)
        assert abs(got - want) < 1e-11


@pytest.fixture(scope="module")
def phi_non_dyadic():
    p = ModelParams(x0=1.7, delta=0.3, x1=0.4, x2=1.2)
    return PhiAC(profile=PeriodicProfile(p), m_log=math.log(normalizer_M(p)))


class TestWindowEvaluator:
    """``PhiAC.log_window_mass_eval``: one set-up for the windows of a span."""

    kernel = PiecewiseLinearDensity.triangle(0.0, 1.0)
    g1 = Weight.window(1.0).smoothed(kernel)
    g2 = g1.smoothed(kernel)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_node_is_the_window_at_its_point(self, mu, data):
        # bases 4^0 to 4^1024, in and out of the dip ring, below the support
        # edge at 1; nodes that put a dip centre, cell edge or the support
        # edge inside the window or within 2^-39 of one of its ends, down to
        # the scale-0 rings of a base 4^12 above them, in spans that may
        # reach down to the support edge; all inputs dyadic, so that base + t
        # is exact on both paths
        phi = mu.components[0][1]
        n = data.draw(st.one_of(st.integers(0, 12), st.integers(0, 1024)), label="n")
        y = data.draw(st.one_of(st.just(2.0), st.integers(1024, 4095).map(lambda k: k / 1024),
                                st.integers(-255, 255).map(lambda k: 2.0 + k / 1024)), label="y")
        off = data.draw(st.integers(-2560 if n <= 12 else -512, 2560 if n <= 12 else 512),
                        label="off") / 64
        base = ScaledSum.scaled(n, y, offset=off)
        w = data.draw(st.one_of(
            st.builds(lambda m, e: m * 2.0 ** e, st.integers(1, 37), st.integers(-20, 0)),
            st.sampled_from([self.g1, self.g2])), label="w")
        if n <= 12:
            xv = base.value()
            m = data.draw(st.one_of(st.integers(max(n - 1, 0), n + 1), st.integers(0, n)),
                          label="m")
            anchor = data.draw(st.sampled_from(
                [0.0, 2.0 * 4.0 ** m - xv, 4.0 ** m - xv, 1.0 - xv]), label="anchor")
        else:
            anchor = data.draw(st.sampled_from([0.0, -off]), label="anchor")  # -off: 4^n x0
        ends = (w.lo, w.hi) if isinstance(w, Weight) else (0.0, w)
        ulp = 2.0 ** -44 if n <= 2 or n > 12 else 0.0  # where base + t stays exact
        t = anchor + data.draw(st.one_of(
            st.integers(-4096, 4096).map(lambda j: j / 1024),
            st.tuples(st.sampled_from(ends), st.integers(-32, 32)).map(
                lambda e: -e[0] + e[1] * ulp)), label="shift")
        below = data.draw(st.sampled_from(
            [0.0, 0.125, 40.0] + ([max(base.value() + t - 1.0, 0.0)] if n <= 12 else [])),
            label="below")  # the last one reaches the support edge at 1
        above = data.draw(st.sampled_from([0.0, 0.125, 40.0]), label="above")
        gamma = data.draw(st.sampled_from([0.0, 0.0, -0.01]), label="gamma") if n <= 8 else 0.0
        got = phi.log_window_mass_eval(base, t - below, t + above, w, gamma=gamma)(t)
        want = phi.log_window_mass(base.add_offset(t), w, gamma=gamma)
        assert got == want or abs(got - want) <= 1e-12

    @pytest.mark.parametrize("base", [ScaledSum.from_float(-1.0), ScaledSum.from_float(1.5),
                                      ScaledSum.from_float(6.5), ScaledSum.scaled(3, 2.0),
                                      ScaledSum.scaled(640, 2.0)])
    def test_moving_weight_is_the_window_at_its_lower_end(self, mu, base):
        # ``log_weight_mass_eval``: one set-up of the span for weights that
        # move through it, as on a self-convolution's diagonal; each is the
        # window at its own lower end, within rounding of the dyadic offsets
        phi = mu.components[0][1]
        ev = phi.log_weight_mass_eval(base, 0.0, 4.0)
        for w in (Weight.window(1.0), self.g1, self.g2):
            for s in (0.0, 0.5, 1.25, 1.5 - 2.0 ** -30):
                moved = w.shift(s - w.lo - 0.5, above=s)  # cut to (s, s - 0.5 + width]
                want = phi.log_window_mass(base.add_offset(moved.lo), moved.shift(-moved.lo))
                got = ev(moved)
                assert got == want or abs(got - want) <= 1e-12, (w, s)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_non_dyadic_node_is_the_window_to_rounding(self, phi_non_dyadic, quad, data):
        # x0 = 1.7, bases and offsets of full precision: a node far below a
        # float-range base takes each structure point's offset from the base's
        # head, rounded at ulp(base), where base.add_offset(t) rounds the
        # point itself at the ulp of the larger of base and base + t.  So the
        # node is the window at base + t to what a move of a few such ulp does
        # to that window.  Beyond 2^50 the offsets stay near the base.
        phi = phi_non_dyadic
        p = phi.params
        n = data.draw(st.one_of(st.integers(0, 12), st.integers(13, 1024)), label="n")
        y = data.draw(st.floats(1.0, 3.99), label="y")
        base = ScaledSum.scaled(n, y, offset=data.draw(st.floats(-40.0, 40.0), label="off"))
        xv = base.value()
        w = data.draw(st.one_of(st.floats(1e-6, 37.0), st.sampled_from([self.g1, self.g2])),
                      label="w")
        if n <= 12:
            # nodes at the structure of every scale up to the base's, in a
            # span from the support edge at 1 to above the base
            m = data.draw(st.integers(0, n), label="m")
            anchor = data.draw(st.sampled_from(
                [0.0, p.x0 * 4.0 ** m, (p.x0 - p.delta) * 4.0 ** m, 1.0]), label="anchor")
            t = (anchor - xv if anchor else 0.0) + data.draw(st.floats(-4.0, 4.0), label="shift")
            lo, hi = min(t, 1.0 - xv), max(t, 0.0) + 40.0
        else:
            t = data.draw(st.floats(-40.0, 40.0), label="t")
            lo, hi = t - 40.0, t + 40.0
        got = phi.log_window_mass_eval(base, lo, hi, w)(t)
        want = phi.log_window_mass(base.add_offset(t), w)
        ulp = math.ulp(max(abs(xv), abs(xv + t))) if xv < 2.0 ** 50 else 0.0
        moved = max(abs(phi.log_window_mass(base.add_offset(t + k * ulp), w) - want)
                    for k in (-4, 4))
        assert got == want or abs(got - want) <= 2.0 * quad.rel_tol + 2.0 * moved

    def test_plateau_piece_whose_mass_underflows(self, phi_non_dyadic):
        # base = 1 - 5.7e-139 and G1 on (-1, 1] at base + 1: the piece from the
        # window's start to the support edge is 5.7e-139 wide under a weight
        # of about 1e-277, so its mass underflows in linear units
        phi = phi_non_dyadic
        base = ScaledSum.scaled(0, 1.0, offset=-5.6715435122405205e-139)
        got = phi.log_window_mass_eval(base, 0.0, 41.0, self.g1)(1.0)
        assert got == phi.log_window_mass(base.add_offset(1.0), self.g1)

    def test_edges_that_round_together(self):
        # x0 - delta rounds to the support edge 1: the zero-width segment
        # between them is skipped, and the masses are those of deduplicated
        # cuts
        p = ModelParams(x0=1.5, delta=0.49999999999999994, x1=0.5, x2=1.5)
        assert p.x0 - p.delta == 1.0
        phi = PhiAC(profile=PeriodicProfile(p), m_log=math.log(normalizer_M(p)))
        # (the values agree with mpmath at 40 digits to 7e-16)
        for x, c, want in ((0.5, 1.0, -1.2863902171408386), (0.9, 0.25, -1.8717967955812145),
                           (0.9, 1.0, -1.0225539787913638)):
            got = phi.log_window_mass(ScaledSum.from_float(x, 4.0), c)
            assert abs(got - want) < 1e-12
            assert phi.log_window_mass_eval(ScaledSum.from_float(1.0, 4.0), -1.0, 0.0, c)(
                x - 1.0) == got

    def test_span_across_float_range(self, mu):
        # nodes on both sides of 2^50 = 4^25, where the structure changes
        # form, take a window each
        phi = mu.components[0][1]
        base = ScaledSum.scaled(25, 1.0, offset=0.5)
        mass = phi.log_window_mass_eval(base, -2.0, 1.0, 1.0)
        for t in (-2.0, -0.5, 0.0, 1.0):
            assert mass(t) == phi.log_window_mass(base.add_offset(t), 1.0)

