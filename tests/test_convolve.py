import math

import numpy as np
import pytest

from subexp import (
    KernelAC,
    LogBracket,
    MixtureDistribution,
    ParameterError,
    ParetoAC,
    PiecewiseLinearDensity,
    PointMass,
    QuadratureSpec,
    ScaledSum,
    SequenceSpec,
    UniformAC,
    brute_force_conv_oracle,
    build_mu,
    build_rho1_rho2,
    conv_local_mass,
    interval_family,
    local_mass,
    make_sequence,
    nfold_local_mass,
    phi_self_conv_at,
    tilt,
)
from subexp.convolve import (
    _phi_pair_split,
    bracket_pair,
    oracle_conv_density_at,
    oracle_window_mass,
    phi_values,
)
from subexp.gallery import default_kernel
from subexp.measures import PhiAC, Weight, phi_integral_log

LN4 = math.log(4.0)


@pytest.fixture(scope="module")
def uni():
    return MixtureDistribution.single(UniformAC(0.0, 1.0))


class TestAnalyticCases:
    def test_uniform_pair_triangle_masses(self, uni, quad):
        # triangle density on [0, 2]
        assert math.isclose(math.exp(conv_local_mass(uni, uni, 0.0, 1.0, quad)),
                            0.5, rel_tol=1e-10)
        assert math.isclose(math.exp(conv_local_mass(uni, uni, 1.0, 1.0, quad)),
                            0.5, rel_tol=1e-10)
        assert conv_local_mass(uni, uni, 2.5, 1.0, quad) == -math.inf

    def test_delta_is_identity(self, mu, quad):
        d0 = MixtureDistribution.single(PointMass(0.0))
        x = ScaledSum.scaled(2, 2.0)
        assert conv_local_mass(d0, mu, x, 1.0, quad) == \
            local_mass(mu, x, 1.0)

    def test_commutativity(self, mu, uni, quad):
        for x in (5.0, 33.0):
            a = conv_local_mass(mu, uni, x, 1.0, quad)
            b = conv_local_mass(uni, mu, x, 1.0, quad)
            assert abs(a - b) < 1e-10

    def test_mass_conservation(self, uni, quad):
        total = sum(math.exp(conv_local_mass(uni, uni, 0.25 * j, 0.25, quad))
                    for j in range(8))
        assert abs(total - 1.0) < 1e-9


class TestSelfConvOracle:
    def test_at_192(self, profile, quad):
        got = phi_self_conv_at(profile, 192.0, quad)
        g = lambda u: phi_values(profile, u)
        oracle = oracle_conv_density_at(g, g, 192.0, 1.0, 191.0, 1e-4)
        assert abs(math.exp(got) / oracle - 1.0) < 1e-6

    @pytest.mark.parametrize("x", [10.0, 100.0, 1000.0])
    def test_small_points(self, profile, quad, x):
        got = phi_self_conv_at(profile, x, quad)
        g = lambda u: phi_values(profile, u)
        oracle = oracle_conv_density_at(g, g, x, 1.0, x - 1.0, 1e-4)
        assert abs(math.exp(got) / oracle - 1.0) < 1e-5

    def test_below_two(self, profile, quad):
        assert phi_self_conv_at(profile, 1.9, quad) == -math.inf

    def test_far_point_bracketed(self, profile, quad):
        v = phi_self_conv_at(profile, ScaledSum.scaled(64, 3.0), quad)
        assert isinstance(v, LogBracket)
        assert v.hi >= v.lo
        # the bracket stays tight relative to trend tolerances
        assert v.width < 0.05

    def test_gamma_regime_evaluation_count(self, params, profile, quad_fast, eval_count):
        # lem32's gamma points put a ring edge of one factor 1.3e-10 from a
        # centre of the other; cut where x - u crosses the inner structure,
        # they take 3,499 evaluations, where cuts of the rounded x - u took
        # 6,420 and 5 panels through the exhaustion floor
        for x in make_sequence(SequenceSpec("gamma", 1.0, (4, 5, 6, 7, 8)), params):
            phi_self_conv_at(profile, x, quad_fast)
        assert 0 < eval_count[0] <= 4_000

    def test_trend_to_self_conv_limit(self, profile, mu, m_norm, quad):
        # phi(x)phi / (2 M int_x^{x+1} phi) -> 1 along mantissa-3 points
        rs = []
        for n in (2, 5, 8):
            x = ScaledSum.scaled(n, 3.0)
            num = phi_self_conv_at(profile, x, quad)
            den = math.log(2.0) + math.log(m_norm) + m_norm_window(mu, m_norm, x)
            rs.append(abs(math.exp(num - den) - 1.0))
        assert rs[2] < rs[0]
        assert rs[2] < 0.01


def m_norm_window(mu, m_norm, x):
    return local_mass(mu, x, 1.0) + math.log(m_norm)


class TestSplitBracketsContainFullNumeric:
    """The split form below its threshold brackets the full-numeric value."""

    @pytest.mark.parametrize("n, y", [(7, 3.0), (8, 3.0), (8, 2.0), (9, 2.0)])
    def test_self_conv(self, profile, quad_fast, n, y):
        x = ScaledSum.scaled(n, y)
        phi = PhiAC(profile=profile, m_log=0.0)
        split = _phi_pair_split(phi, phi, x, None, quad_fast)
        full = phi_self_conv_at(profile, x, quad_fast)
        assert isinstance(split, LogBracket)
        assert split.lo <= full <= split.hi

    @pytest.mark.parametrize("y", [3.0, 2.0])
    def test_conv_window(self, mu, quad_fast, y):
        x = ScaledSum.scaled(6, y)
        comp = mu.components[0][1]
        split = _phi_pair_split(comp, comp, x, Weight.window(1.0), quad_fast)
        full = conv_local_mass(mu, mu, x, 1.0, quad_fast)
        assert isinstance(split, LogBracket)
        assert split.lo <= full <= split.hi


class TestConvWindows:
    def test_conv_window_vs_oracle(self, mu, profile, m_norm, quad):
        # two-fold window mass against a Riemann oracle: outer density grid
        # against exact window masses read off a cumulative fine grid
        x, c = 50.0, 1.0
        got = math.exp(conv_local_mass(mu, mu, x, c, quad))
        step = 4e-6
        n = int(round((x + c) / step))
        edges = np.linspace(0.0, x + c, n + 1)
        mids = 0.5 * (edges[:-1] + edges[1:])
        dens = phi_values(profile, mids) / m_norm
        cdf = np.concatenate([[0.0], np.cumsum(dens) * step])  # G on the edges
        lo = int(round(1.0 / step))
        u = mids[lo:]
        du = dens[lo:]
        g_hi = np.interp(x + c - u, edges, cdf)
        g_lo = np.interp(x - u, edges, cdf)
        oracle = float(np.sum(du * (g_hi - g_lo)) * step)
        assert abs(got / oracle - 1.0) < 1e-5

    def test_phi_uniform_pair_vs_oracle(self, mu, profile, m_norm, quad):
        # mixed pair: uniform smoothing of the dip measure, window over a dip
        x, c = 31.6, 1.0
        got = math.exp(conv_local_mass(
            MixtureDistribution.single(UniformAC(0.0, 1.0)), mu, x, c, quad))
        step = 1e-6
        n = int(round(1.0 / step))
        edges = np.linspace(0.0, 1.0, n + 1)
        mids = 0.5 * (edges[:-1] + edges[1:])
        # inner window masses on a cumulative grid over [x-1, x+c]
        fine = np.linspace(x - 1.0, x + c, 2_000_001)
        fm = 0.5 * (fine[:-1] + fine[1:])
        dens = phi_values(profile, fm) / m_norm
        cdf = np.concatenate([[0.0], np.cumsum(dens) * (fine[1] - fine[0])])
        g_hi = np.interp(x + c - mids, fine, cdf)
        g_lo = np.interp(x - mids, fine, cdf)
        oracle = float(np.sum(g_hi - g_lo) * step)
        assert abs(got / oracle - 1.0) < 1e-5

    @pytest.mark.parametrize("a", [1.0, 2.5])
    @pytest.mark.parametrize("x", [0.7, 3.2, 40.0])
    def test_smooth_pair_takes_few_evaluations(self, uni, eval_count, x, a):
        # between the kinks of a Pareto-Pareto pair the outer integrand is
        # analytic, so a few Gauss-Kronrod panels per segment meet the
        # tolerance (caps: the counts measured when they were set); a
        # uniform factor is a weight on the other, with no integral at all
        cap = {(1.0, 0.7): 30, (1.0, 3.2): 60, (1.0, 40.0): 180,
               (2.5, 0.7): 30, (2.5, 3.2): 120, (2.5, 40.0): 330}[a, x]
        pareto = MixtureDistribution.single(ParetoAC(a))
        conv_local_mass(MixtureDistribution.single(ParetoAC(1.0)), pareto, x, 0.5,
                        QuadratureSpec())
        assert 0 < eval_count[0] <= cap
        eval_count[0] = 0
        conv_local_mass(uni, pareto, x, 0.5, QuadratureSpec())
        assert eval_count[0] == 0

    def test_ratio_to_two_trend(self, mu, quad_fast):
        rs = []
        for n in (4, 8):
            x = ScaledSum.scaled(n, 3.0)
            r = math.exp(conv_local_mass(mu, mu, x, 1.0, quad_fast)
                         - local_mass(mu, x, 1.0))
            rs.append(abs(r / 2.0 - 1.0))
        assert rs[1] < rs[0] < 0.05
        assert rs[1] < 1e-3

    def test_split_bracket_contains_two(self, mu, quad_fast):
        x = ScaledSum.scaled(64, 3.0)
        v = conv_local_mass(mu, mu, x, 1.0, quad_fast)
        den = local_mass(mu, x, 1.0)
        assert isinstance(v, LogBracket)
        lo, hi = math.exp(v.lo - den), math.exp(v.hi - den)
        assert lo < 2.0 < hi or abs(lo / 2.0 - 1.0) < 0.02


def _riemann_self_conv_window(profile, m_norm, x, c, step):
    """Midpoint-Riemann (A*A)((x, x+c]) over the whole strip, unfolded: the
    outer density on a grid against window masses read off a cumulative grid."""
    n = int(round((x + c) / step))
    edges = np.linspace(0.0, x + c, n + 1)
    mids = 0.5 * (edges[:-1] + edges[1:])
    dens = phi_values(profile, mids) / m_norm
    cdf = np.concatenate([[0.0], np.cumsum(dens) * step])
    inner = np.interp(x + c - mids, edges, cdf) - np.interp(x - mids, edges, cdf)
    return float(np.sum(dens * inner) * step)


class TestSelfPairFold:
    """Identical absolutely continuous pairs integrate the outer variable up
    to (x+c)/2 only: a near term up to x/2 and a diagonal triangle beyond."""

    @pytest.mark.parametrize("y", [2.0, 3.0])
    @pytest.mark.parametrize("c", [0.5, 2.0])
    def test_vs_riemann(self, mu, profile, m_norm, quad, y, c):
        # the oracle's error is below 1e-6 at this step (4e-7 at half the step)
        got = math.exp(conv_local_mass(mu, mu, ScaledSum.scaled(4, y), c, quad))
        oracle = _riemann_self_conv_window(profile, m_norm, 256.0 * y, c, 2e-4)
        assert abs(got / oracle - 1.0) < 5e-6

    def test_diagonal_term_alone(self, mu, m_norm, quad):
        # x/2 lies below the support edge at 1, so only the diagonal term is
        # left; both sides sit on the plateau K u^-2 / M of [1, 1.5] (alpha = 1)
        mp = pytest.importorskip("mpmath")
        got = conv_local_mass(mu, mu, 1.5, 1.0, quad)
        k_over_m = (-1.0 / math.log(0.25)) / m_norm
        with mp.workdps(30):
            # unfolded: int_1^1.5 a(u) A((1, 2.5-u]) du with A((1, v]) = K/M (1 - 1/v)
            ref = mp.quad(lambda u: k_over_m ** 2 * u ** -2 * (1 - 1 / (2.5 - u)), [1, 1.5])
        assert abs(got - float(mp.log(ref))) < 1e-9

    @pytest.mark.parametrize("x, c, want", [
        (63.0, 1.0, -7.4458000944),
        (62.0, 2.0, -6.7364048487),
        (63.5, 0.5, -8.1470135990),
    ])
    def test_diagonal_ends_at_a_dip_centre(self, mu, quad_fast, x, c, want):
        # (x+c)/2 = 32 is the dip centre 4^2*2: the diagonal's inner windows
        # shrink onto it, below ulp(x) / rel_tol wide; want is the unfolded value
        assert abs(conv_local_mass(mu, mu, x, c, quad_fast) - want) < 1e-6

    def test_evaluation_count(self, mu, quad_fast, eval_count):
        # unfolded, this window took 50,531 integrand evaluations
        conv_local_mass(mu, mu, ScaledSum.scaled(6, 3.0), 1.0, quad_fast)
        assert eval_count[0] <= 10_000

    def test_one_window_set_up_per_outer_integral(self, mu, quad_fast, eval_count, monkeypatch):
        # the outer integral's inner windows share one set-up of the span,
        # with one phase of x; a PointPhase per outer node would be about 1,000
        from subexp.scaledcore import PointPhase

        built = [0]
        init = PointPhase.__init__

        def counting(self, base):
            built[0] += 1
            init(self, base)

        monkeypatch.setattr(PointPhase, "__init__", counting)
        conv_local_mass(mu, mu, ScaledSum.scaled(6, 3.0), 1.0, quad_fast)
        assert eval_count[0] >= 500  # outer nodes, each an inner window
        assert built[0] <= 20  # the diagonal's few nodes take a window each

    def test_tanh_sinh_level_one_joins_the_first_round(self, mu, spec_default, monkeypatch):
        # The first round of an outer integral also takes tanh-sinh levels 1
        # and 2 at each centre crossing, so its inner windows walk as arrays
        # in at most two rounds (three when level 2 had a round of its own,
        # four when level 1 did too); the value is that of a plain
        # integrand, walked node by node.
        from subexp import convolve, quadrature

        x, quad = ScaledSum.scaled(3, 3.0), spec_default.quad
        walks = []
        round_masses = PhiAC._round_masses

        def counting_walks(self, *args):
            walks[-1] += 1
            return round_masses(self, *args)

        def batched(f, *args, **kwargs):
            walks.append(0)
            return quadrature.integrate_log(f, *args, **kwargs)

        def plain(f, *args, **kwargs):
            return quadrature.integrate_log(lambda t: f(t), *args, **kwargs)

        monkeypatch.setattr(PhiAC, "_round_masses", counting_walks)
        monkeypatch.setattr(convolve, "integrate_log", batched)
        got = conv_local_mass(mu, mu, x, 1.0, quad)
        assert 1 <= max(walks) <= 2
        monkeypatch.setattr(convolve, "integrate_log", plain)
        assert conv_local_mass(mu, mu, x, 1.0, quad) == got


class TestNFold:
    def test_n1_equals_local(self, uni, quad):
        assert nfold_local_mass(uni, 1, 0.25, 0.5, quad) == \
            local_mass(uni, 0.25, 0.5)

    def test_n2_triangle(self, uni, quad):
        assert math.isclose(math.exp(nfold_local_mass(uni, 2, 1.0, 1.0, quad)),
                            0.5, rel_tol=1e-10)

    def test_n3_uniform(self, uni, quad):
        # Irwin-Hall(3): P(S <= 1) = 1/6, symmetric about 1.5
        got = math.exp(nfold_local_mass(uni, 3, 0.0, 1.0, quad))
        assert math.isclose(got, 1.0 / 6.0, rel_tol=1e-7)

    def test_n_out_of_range(self, uni, quad):
        with pytest.raises(ParameterError):
            nfold_local_mass(uni, 4, 0.0, 1.0, quad)

    def test_n2_long_tail_at_anchor(self, mu, quad_fast):
        # two-fold masses stay shift-insensitive at large plateau points
        x = ScaledSum.scaled(8, 3.0)
        a = nfold_local_mass(mu, 2, x, 1.0, quad_fast)
        b = nfold_local_mass(mu, 2, x.add_offset(1.0), 1.0, quad_fast)
        assert abs(math.exp(a - b) - 1.0) < 1e-3

    def test_n2_shift_ratio_near_dip_anchor(self, mu, quad_fast):
        # two-fold masses keep their shift-insensitivity trend even at the
        # dip anchors, with the usual slow 1/(n log b) correction
        devs = []
        for n in (4, 7):
            x = ScaledSum.scaled(n, 2.0)
            a = nfold_local_mass(mu, 2, x, 1.0, quad_fast)
            b = nfold_local_mass(mu, 2, x.add_offset(1.0), 1.0, quad_fast)
            devs.append(abs(math.exp(b - a) - 1.0))
        assert devs[1] < devs[0] < 0.35


class TestSmoothing:
    def test_kernel_on_delta(self):
        tri = PiecewiseLinearDensity.triangle(0.0, 2.0)
        ker = KernelAC(kernel=tri, base=MixtureDistribution.single(PointMass(0.0)))
        for x in (0.4, 1.0, 1.9):
            got = math.exp(ker.log_density(ScaledSum.from_float(x)))
            assert math.isclose(got, tri.value(x), rel_tol=1e-12)

    def test_negative_point(self, mu):
        ker = KernelAC(kernel=PiecewiseLinearDensity.triangle(0.0, 2.0), base=mu)
        assert ker.log_density(ScaledSum.from_float(-1.0)) == -math.inf

    def test_smoothing_tracks_window(self, mu):
        ker = KernelAC(kernel=PiecewiseLinearDensity.triangle(0.0, 2.0), base=mu)
        rs = []
        for n in (4, 8):
            x = ScaledSum.scaled(n, 3.0)
            q = ker.log_density(x)
            w = local_mass(mu, x.add_offset(-1.0), 1.0)
            rs.append(abs(math.exp(q - w) - 1.0))
        assert rs[1] < rs[0] < 0.01


class TestKernelFactor:
    """A kernel factor is a weight: for K = q * B, the pair of K with C is
    the pair of B with C under ``w.smoothed(q)``, with the same integrals."""

    @pytest.fixture(scope="class")
    def bases(self, spec_default):
        rho1, rho2 = build_rho1_rho2(spec_default)
        return {"mu": build_mu(spec_default), "rho1": rho1, "rho2": rho2}

    @pytest.mark.parametrize("other, kernel_first", [
        ("same", True), ("mu", True), ("mu", False), ("pareto", True), ("pareto", False)])
    @pytest.mark.parametrize("base", ["mu", "rho1", "rho2"])
    def test_pair_is_the_base_pair_under_the_smoothed_weight(
            self, bases, spec_default, eval_count, base, other, kernel_first):
        q, quad = default_kernel(), spec_default.quad
        smoothed = MixtureDistribution.single(KernelAC(kernel=q, base=bases[base]))
        c = {"same": smoothed, "mu": bases["mu"],
             "pareto": MixtureDistribution.single(ParetoAC(1.0))}[other]
        x, w = ScaledSum.scaled(3, 3.0), Weight.window(1.0)
        got = conv_local_mass(*((smoothed, c) if kernel_first else (c, smoothed)), x, w, quad)
        got_count, eval_count[0] = eval_count[0], 0
        want = conv_local_mass(bases[base], c, x, w.smoothed(q), quad)
        assert got == want
        assert got_count == eval_count[0]

    @pytest.mark.parametrize("n, count", [(3, 806), (5, 1010)])
    def test_smoothed_dip_pair_takes_the_dip_pair_count(self, bases, spec_default,
                                                       eval_count, n, count):
        # an outer integral over the smoothed density took 2,550 and 5,550
        smoothed = MixtureDistribution.single(KernelAC(kernel=default_kernel(), base=bases["mu"]))
        conv_local_mass(smoothed, smoothed, ScaledSum.scaled(n, 3.0), 1.0, spec_default.quad)
        assert eval_count[0] == count

    def test_self_pair_of_the_atom_series_twin(self, bases, spec_default):
        # p2 = q * rho2: its deepest atom, -4^(4^5) (x1 + x2)/2, lies beyond
        # float range, and so does the lower end of its support
        p2 = MixtureDistribution.single(KernelAC(kernel=default_kernel(), base=bases["rho2"]))
        for anchor in interval_family(spec_default).d_anchor:
            lo, hi = bracket_pair(conv_local_mass(p2, p2, anchor, 1.0, spec_default.quad))
            assert -math.inf < lo <= hi < 0.0

    @pytest.mark.parametrize("x", [0.3, 1.7, 6.0])
    @pytest.mark.parametrize("other", ["pareto", "uniform"])
    @pytest.mark.parametrize("base", ["point", "uniform"])
    def test_small_points_against_mpmath(self, quad, base, other, x):
        # the smoothed density from the kernel's own value and cdf, never
        # through a weight: q for an atom at 0, Q(y) - Q(y - 1) for U(0, 1)
        mp = pytest.importorskip("mpmath")
        q = PiecewiseLinearDensity.triangle(0.0, 1.0)
        dens, knots = {"point": (q.value, (0.0, 0.5, 1.0)),
                       "uniform": (lambda y: q.cdf(y) - q.cdf(y - 1.0),
                                   (0.0, 0.5, 1.0, 1.5, 2.0))}[base]
        cdf = {"pareto": lambda z: z / (1 + z) if z > 0 else 0,
               "uniform": lambda z: min(max(z, 0), 1)}[other]
        single = MixtureDistribution.single
        comps = {"point": PointMass(0.0), "uniform": UniformAC(0.0, 1.0),
                 "pareto": ParetoAC(1.0)}
        smoothed = single(KernelAC(kernel=q, base=single(comps[base])))
        got = conv_local_mass(smoothed, single(comps[other]), x, 1.0, quad)
        # the window's ends x - y and x + 1 - y cross the other's kinks at 0 and 1
        cuts = sorted({*knots, *(v for v in (x - 1.0, x, x + 1.0) if knots[0] < v < knots[-1])})
        with mp.workdps(30):
            ref = mp.quad(lambda y: dens(y) * (cdf(x + 1.0 - y) - cdf(x - y)), cuts)
        assert math.isclose(math.exp(got), float(ref), rel_tol=1e-12)


def test_no_quadrature_runs_inside_another(mu, quad, uni, monkeypatch):
    # a uniform factor is a weight on the other, so uniform pairs run no
    # quadrature; the pairs whose outer integral is a quadrature ask it for
    # inner masses that are closed forms or fixed rules
    from subexp import ParetoAC, convolve, measures, quadrature

    depth, calls = [0], [0]

    def guarded(*args, **kwargs):
        assert depth[0] == 0, "quadrature inside another"
        depth[0] += 1
        calls[0] += 1
        try:
            return quadrature.integrate_log(*args, **kwargs)
        finally:
            depth[0] -= 1

    for module in (convolve, measures):
        monkeypatch.setattr(module, "integrate_log", guarded)
    mix = MixtureDistribution(components=((0.5, UniformAC(0.0, 1.0)), (0.5, PointMass(1.5))))
    tp = tilt(MixtureDistribution.single(ParetoAC(1.0)), -1.0)
    for x in (0.7, 3.2, 40.0):
        for a in (1.0, 2.5):
            conv_local_mass(uni, MixtureDistribution.single(ParetoAC(a)), x, 0.5, quad)
        conv_local_mass(mix, tp, x, 0.5, quad)
    for n, t in ((1, 0.0), (6, -3.0), (40, 0.0)):
        conv_local_mass(uni, mu, ScaledSum.scaled(n, 1.9, offset=t), 1.0, quad)
    assert calls[0] == 0
    for x in (0.7, 3.2, 40.0):
        conv_local_mass(MixtureDistribution.single(ParetoAC(1.0)), tp, x, 0.5, quad)
    conv_local_mass(mu, mu, ScaledSum.scaled(2, 3.0), 1.0, quad)
    assert calls[0] > 0


class TestBruteForceOracle:
    def test_uniform_table(self, uni):
        rows = brute_force_conv_oracle(uni, uni, (0.5, 1.0, 1.5), 1e-3)
        for x, dens in rows:
            want = x if x <= 1.0 else 2.0 - x
            assert abs(dens - want) < 2e-3  # sup error below the step

    def test_atom_shift_table(self, uni):
        d = MixtureDistribution(components=((1.0, UniformAC(2.0, 1.0)),))
        rows = brute_force_conv_oracle(uni, d, (2.5, 3.0), 1e-3)
        assert abs(rows[0][1] - 0.5) < 2e-3

    def test_step_guard(self, uni):
        with pytest.raises(ParameterError):
            brute_force_conv_oracle(uni, uni, (0.5,), 0.01)

    def test_grid_guard(self, uni):
        with pytest.raises(ParameterError):
            oracle_window_mass(lambda u: u, 0.0, 1e6, 1e-3 / 300)


class TestTiltConvCommute:
    def test_commuting_diagram(self, quad):
        g = 0.9
        uni = MixtureDistribution.single(UniformAC(0.0, 1.0))
        atoms = MixtureDistribution(components=((0.5, PointMass(0.0)),
                                                (0.5, PointMass(1.5))))
        plain_conv = MixtureDistribution(components=((0.5, UniformAC(0.0, 1.0)),
                                                     (0.5, UniformAC(1.5, 1.0))))
        lhs = tilt(plain_conv, g)
        tu, ta = tilt(uni, g), tilt(atoms, g)
        for x in (0.25, 0.75, 1.75, 2.25):
            a = local_mass(lhs, x, 0.2)
            b = conv_local_mass(tu, ta, x, 0.2, quad)
            assert abs(a - b) < 1e-8


class TestOuterIntegralBits:
    # float.hex pins of outer integrals, taken before the first round took
    # tanh-sinh level 2 and each end that a node rounds onto: which round
    # evaluates a node, and how often, changes no bit
    @pytest.mark.parametrize("n, c, want", [
        (4, 0.5, "-0x1.a6de4a6575e23p+3"),
        (4, 2.0, "-0x1.7a91ca9536511p+3"),
        (8, 0.5, "-0x1.85193cd2697e6p+4"),
        (8, 2.0, "-0x1.6eeb01d381245p+4"),
    ])
    def test_dip_pair(self, spec_default, n, c, want):
        mu = build_mu(spec_default)
        got = conv_local_mass(mu, mu, ScaledSum.scaled(n, 3.0), c, spec_default.quad)
        assert float.hex(got) == want

    def test_dip_self_convolution_density(self, spec_default):
        got = phi_self_conv_at(spec_default.profile, ScaledSum.scaled(6, 3.0),
                               spec_default.quad)
        assert float.hex(got) == "-0x1.2d9c6635a5720p+4"

    def test_dip_profile_integral(self, spec_default):
        got = phi_integral_log(spec_default.profile, 1.0, spec_default.params.b,
                               spec_default.quad)
        assert float.hex(got) == "-0x1.58d235260e884p-1"

    @pytest.mark.parametrize("x, want", [
        (0.7, "-0x1.c181cceba2d04p+0"),
        (3.2, "-0x1.ae99c99504130p+1"),
        (40.0, "-0x1.03796bce194e2p+3"),
    ])
    def test_smooth_pair(self, x, want):
        pareto = MixtureDistribution.single(ParetoAC(1.0))
        got = conv_local_mass(pareto, tilt(pareto, -1.0), x, 0.5, QuadratureSpec())
        assert float.hex(got) == want
