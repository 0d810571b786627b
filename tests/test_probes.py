import math

import pytest

from subexp import (
    MixtureDistribution,
    ParameterError,
    ParetoAC,
    PointMass,
    ProbePreconditionError,
    RatioSeries,
    ScaledSum,
    SequenceSpec,
    UniformAC,
    classify_limit,
    integrate_log,
    long_tail_probe,
    sandwich_probe,
    scaling_probe,
    sd_probe,
    tilt,
    tilt_identity_probe,
    truncated_tail_density,
    truncated_tail_local,
    uniformity_probe,
)
from subexp.gallery import PhiDensityHandle
from subexp.probes import ProbeEntry


@pytest.fixture(scope="module")
def phi_handle(spec_default, mu):
    return PhiDensityHandle(spec_default, mu)


class TestLongTail:
    def test_zero_shift_exact(self, mu, params):
        s = long_tail_probe(mu, 0.0, SequenceSpec("fixed-y", 3.0, (3, 5)), params=params)
        for e in s.entries:
            assert e.ratio == 1.0

    def test_shift_bound(self, mu, params):
        with pytest.raises(ParameterError):
            long_tail_probe(mu, 6.0, SequenceSpec("fixed-y", 3.0, (3,)), params=params)

    def test_trend_to_one(self, mu, params):
        s = long_tail_probe(mu, 1.0, SequenceSpec("fixed-y", 3.0, (4, 5, 6, 7, 8)),
                            params=params)
        assert abs(s.entries[-1].ratio - 1.0) < 1e-4
        assert classify_limit(s).classification == "converges-to"

    def test_zero_denominator_flagged(self, params):
        uni = MixtureDistribution.single(UniformAC(0.0, 1.0))
        pts = [ScaledSum.from_float(5.0, 4.0)]
        s = long_tail_probe(uni, 1.0, pts, params=params)
        assert s.entries[0].flagged

    def test_invariant_under_renormalization(self, mu, params):
        x_raw = ScaledSum(b=4.0, terms=((1, 8, 3.0),), offset=0.0)
        x_float = ScaledSum.from_float(4.0 ** 8 * 3.0, 4.0)
        a = long_tail_probe(mu, 1.0, [x_raw.normalize()], params=params)
        b = long_tail_probe(mu, 1.0, [x_float], params=params)
        assert a.entries[0].log_ratio == b.entries[0].log_ratio

    def test_tilted_example_decay_rate(self, params):
        # exponential-class distributions shift by e^{-gamma a}
        gamma = 1.0
        rho = tilt(MixtureDistribution.single(ParetoAC(1.0)), -gamma)
        pts = [ScaledSum.from_float(float(x), 4.0) for x in (30.0, 50.0)]
        s = long_tail_probe(rho, 1.0, pts, params=params)
        assert abs(s.entries[-1].ratio / math.exp(-gamma) - 1.0) < 0.05

    def test_density_mode(self, phi_handle, params):
        s = long_tail_probe(phi_handle, 1.0, SequenceSpec("fixed-y", 3.0, (4, 8)),
                            params=params)
        assert s.meta["mode"] == "density"
        assert abs(s.entries[-1].ratio - 1.0) < 1e-4


class TestSd:
    def test_fixed_mantissa_trend(self, phi_handle, params):
        s = sd_probe(phi_handle, SequenceSpec("fixed-y", 3.0, (2, 4, 6, 8)),
                     params=params)
        assert abs(s.entries[-1].ratio - 1.0) < 1e-3
        assert classify_limit(s).classification == "converges-to"

    def test_anchor_regime_slower(self, phi_handle, params):
        s = sd_probe(phi_handle, SequenceSpec("lambda", 0.0, (4, 6, 8)),
                     params=params)
        rs = [abs(e.ratio - 1.0) for e in s.entries]
        assert rs[-1] < rs[0]  # converging, with the slow 1/n-type correction
        assert rs[-1] < 0.25


class UniformHandle:
    """A density handle over a uniform component on [0, width)."""

    def __init__(self, width, params):
        self.params = params
        self.component = UniformAC(0.0, width)

    def log_value(self, x):
        return self.component.log_density(x)


class TestTruncatedTail:
    def test_uniform_empty_range(self, quad_fast, params):
        val, flagged = truncated_tail_density(UniformHandle(1.0, params), 2.0,
                                              ScaledSum.from_float(6.0, 4.0), quad_fast)
        assert val == math.inf and flagged  # denominator vanishes off support

    def test_non_long_tailed_flagged(self, quad_fast, params):
        val, flagged = truncated_tail_density(UniformHandle(10.0, params), 2.0,
                                              ScaledSum.from_float(9.5, 4.0), quad_fast)
        assert flagged

    def test_density_version_flags_centres(self, phi_handle, quad_fast, eval_count):
        # with hints but no centres, this integral took 3,789 evaluations
        truncated_tail_density(phi_handle, 4.0, ScaledSum.scaled(6, 3.0), quad_fast)
        assert 0 < eval_count[0] <= 2_600

    def test_matrix_rows_decrease_in_A(self, phi_handle, quad_fast):
        rows = {}
        for a_cut in (4.0, 16.0, 64.0):
            rows[a_cut] = [truncated_tail_density(
                phi_handle, a_cut, ScaledSum.scaled(n, 3.0), quad_fast)[0]
                for n in (6, 8)]
        for i in range(2):
            assert rows[64.0][i] < rows[16.0][i] < rows[4.0][i]

    def test_local_version_decreases(self, mu, quad_fast):
        vals = [truncated_tail_local(mu, a_cut, ScaledSum.scaled(7, 3.0), 1.0, quad_fast)
                for a_cut in (4.0, 16.0, 64.0)]
        assert vals[2] < vals[1] < vals[0]

    def test_precondition(self, phi_handle, quad_fast):
        with pytest.raises(ParameterError):
            truncated_tail_density(phi_handle, 0.5, ScaledSum.scaled(6, 3.0), quad_fast)


class TestUniformity:
    def test_m_zero_exact(self, mu, params):
        s = uniformity_probe(mu, (5,), (0,), params=params)
        assert s.entries[0].ratio == 1.0

    def test_diagonal_near_half(self, mu, params):
        s = uniformity_probe(mu, (6,), (6,), params=params)
        assert abs(s.entries[0].ratio - 0.5) < 0.05

    def test_fixed_m_approaches_one(self, mu, params):
        s = uniformity_probe(mu, (4, 8), (2,), params=params)
        r4, r8 = [e.ratio for e in s.entries]
        assert abs(r8 - 8.0 / 10.0) < 0.05
        assert r8 > r4

    def test_oracle_agreement_small_n(self, mu, params, profile, m_norm):
        # direct Riemann quadrature of the shrinking windows at n = 4..6
        from subexp.convolve import oracle_window_mass, phi_values
        for n in (4, 5, 6):
            x = params.b ** n * params.x0
            c = params.b ** -n
            grid = lambda u: phi_values(profile, u) / m_norm
            num = oracle_window_mass(grid, x, x + c, c * 1e-6) / c
            den = oracle_window_mass(grid, x, x + 1.0, 1e-6)
            s = uniformity_probe(mu, (n,), (n,), params=params)
            assert abs(s.entries[0].ratio / (num / den) - 1.0) < 1e-6


class TestScaling:
    def test_c_one_exact(self, mu, params):
        s = scaling_probe(mu, (1.0,), SequenceSpec("fixed-y", 3.0, (4, 6)),
                          params=params)
        for e in s.entries:
            assert e.ratio == 1.0

    def test_fixed_mantissa(self, mu, params):
        s = scaling_probe(mu, (0.5,), SequenceSpec("fixed-y", 3.0, (4, 8)),
                          params=params)
        assert abs(s.entries[-1].ratio - 1.0) < 1e-4

    def test_anchor_regime_all_widths(self, mu, params):
        s = scaling_probe(mu, (2.0,), SequenceSpec("lambda", 0.0, (4, 8)),
                          params=params)
        rs = [abs(e.ratio - 1.0) for e in s.entries]
        assert rs[1] < rs[0]


class TestSandwich:
    def test_zero_shift(self, mu, params):
        entries = sandwich_probe(mu, 0.25, 1.0, 0.0,
                                 SequenceSpec("fixed-y", 3.0, (5,)), params=params)
        e = entries[0]
        assert abs(e.mid - 1.0) < 1e-9
        assert e.j1 <= 1.0 + 1e-9 <= e.j2 + 2e-9

    def test_limits_and_ordering(self, mu, params):
        entries = sandwich_probe(mu, 0.25, 1.0, 1.0,
                                 SequenceSpec("fixed-y", 3.0, (4, 6, 8)), params=params)
        for e in entries:
            assert e.ordered
        last = entries[-1]
        assert abs(last.j1 - 0.8) < 0.01
        assert abs(last.j2 - 1.25) < 0.01


    @pytest.mark.parametrize("c1", [0.125, 0.25, 1.0])
    def test_bounds_match_the_smoothing_integral(self, mu, quad, params, c1):
        # each smoothed window is one weighted mass under a trapezoid weight;
        # the oracle integrates the window masses over the uniform's shift,
        # for widths below, equal to and above c
        c, a = 0.25, 1.0
        uni = MixtureDistribution.single(UniformAC(0.0, params.b))

        def smoothed(dist, x, width):
            mass = dist.log_window_mass_eval(x, -c, 0.0, width)
            return integrate_log(lambda s: mass(-s), 0.0, c, quad) - math.log(c)

        for dist, pts in ((mu, [ScaledSum.scaled(n, 3.0) for n in (3, 6)]),
                          (uni, [ScaledSum.from_float(1.5, params.b)])):
            got = sandwich_probe(dist, c, c1, a, pts, params=params)
            for e, x in zip(got, pts):
                j1 = math.exp(smoothed(dist, x.add_offset(a), c1) - smoothed(dist, x, c1 + c))
                j2 = math.exp(smoothed(dist, x.add_offset(a), c1 + c) - smoothed(dist, x, c1))
                assert e.j1 == pytest.approx(j1, rel=1e-12) and e.j2 == pytest.approx(j2, rel=1e-12)

    def test_uniform_runs_no_quadrature(self, params, eval_count):
        # a uniform's weighted masses under the trapezoids are a fixed rule
        uni = MixtureDistribution.single(UniformAC(0.0, params.b))
        pts = [ScaledSum.from_float(v, params.b) for v in (0.5, 1.5, 2.75)]
        assert all(e.ordered for e in sandwich_probe(uni, 0.25, 0.5, 1.0, pts, params=params))
        assert eval_count[0] == 0


class TestTiltIdentity:
    def test_ratio_near_one(self):
        rho = tilt(MixtureDistribution.single(ParetoAC(1.0)), -1.0)
        s = tilt_identity_probe(rho, 1.0, (1.0,), (40.0, 60.0))
        assert abs(s.entries[-1].ratio - 1.0) < 0.02

    def test_point_mass_guard(self):
        pm = MixtureDistribution.single(PointMass(1.0))
        with pytest.raises(ProbePreconditionError):
            tilt_identity_probe(pm, 1.0, (1.0,), (5.0,))

    def test_gamma_positive_required(self):
        rho = tilt(MixtureDistribution.single(ParetoAC(1.0)), -1.0)
        with pytest.raises(ParameterError):
            tilt_identity_probe(rho, -1.0, (1.0,), (5.0,))


class TestClassify:
    def _series(self, ratios, ns=None):
        entries = tuple(ProbeEntry(x_label=str(i), log_num=math.log(r), log_den=0.0,
                                   n=(ns[i] if ns else i + 1), x_log=float(i + 1))
                        for i, r in enumerate(ratios))
        return RatioSeries(name="t", entries=entries)

    def test_constant_converges(self):
        v = classify_limit(self._series([1.7] * 6))
        assert v.classification == "converges-to"
        assert abs(v.limit - 1.7) < 1e-9

    def test_geometric_diverges(self):
        v = classify_limit(self._series([2.0 ** k * 4 / 9 for k in range(1, 6)]))
        assert v.classification == "diverges"

    def test_alternating_inconclusive(self):
        v = classify_limit(self._series([1.0, 2.0, 1.0, 2.0, 1.0, 2.0]))
        assert v.classification == "inconclusive"

    def test_slow_correction_converges(self):
        v = classify_limit(self._series([1.0 + 0.5 / n for n in range(2, 10)],
                                        ns=list(range(2, 10))))
        assert v.classification == "converges-to"
        assert abs(v.limit - 1.0) < 0.02
