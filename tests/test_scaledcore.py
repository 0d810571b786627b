import math
import struct
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subexp import (
    ContractViolationError,
    ModelParams,
    ParameterError,
    PeriodicProfile,
    ScaledSum,
    SequenceSpec,
    make_sequence,
    phi_log_value,
)
from subexp.logsum import NeumaierSum, log_sum
from subexp.scaledcore import PhaseInfo, point_lambda

LN4 = math.log(4.0)


class TestModelParams:
    def test_defaults_valid(self):
        p = ModelParams()
        assert p.b == 4.0 and p.x0 == 2.0 and p.delta == 0.25
        assert p.alpha * p.beta > 1.0

    @pytest.mark.parametrize("kw", [
        {"x0": 0.5}, {"x0": 5.0}, {"delta": 1.5}, {"delta": 1.2},
        {"alpha": -1.0}, {"alpha": 0.4, "beta": 2.0}, {"x1": 2.0, "x2": 1.0},
        {"x2": 3.0}, {"x1": 0.1},
    ])
    def test_invalid_rejected(self, kw):
        with pytest.raises(ParameterError):
            ModelParams(**kw)


class TestScaledSum:
    @given(st.floats(min_value=-2.0 ** 50, max_value=2.0 ** 50,
                     allow_nan=False, allow_infinity=False))
    @settings(max_examples=200, deadline=None)
    def test_round_trip(self, x):
        s = ScaledSum.from_float(x, 4.0)
        v = s.value()
        if x == 0.0:
            assert v == 0.0
        else:
            assert abs(v / x - 1.0) < 2.0 ** -40

    @given(st.floats(min_value=1e-6, max_value=1e12, allow_nan=False))
    @settings(max_examples=100, deadline=None)
    def test_normalize_idempotent(self, x):
        s = ScaledSum.from_float(x, 4.0)
        assert s.normalize() == s
        assert s.is_canonical()

    @given(st.integers(min_value=-8, max_value=1100),
           st.floats(min_value=1.0, max_value=4.0, exclude_max=True),
           st.sampled_from([1, -1]),
           st.floats(min_value=-1e6, max_value=1e6),
           st.floats(min_value=-1e300, max_value=1e300))
    @settings(max_examples=300, deadline=None)
    def test_add_offset_is_normalize(self, m, y, sign, offset, t):
        # a zero-mantissa term is skipped by the merge, so the padded sum
        # reaches the general path and checks normalize's one-term rule
        for s in (ScaledSum(b=4.0, terms=((sign, m, y),), offset=offset).normalize(),
                  ScaledSum.zero(4.0)):
            got = s.add_offset(t)
            want = ScaledSum(b=4.0, terms=s.terms + ((1, m, 0.0),), offset=s.offset + t).normalize()
            assert got == want and repr(got) == repr(want)

    def test_dominance_invariant(self):
        s = ScaledSum(b=4.0, terms=((1, 10, 2.0), (1, 9, 1.0)), offset=0.0).normalize()
        # second term within 2^-20 of the head gets folded
        assert len(s.terms) == 1
        assert s.value() == 4.0 ** 10 * 2.0 + 4.0 ** 9

    def test_two_scale_form_survives(self):
        s = ScaledSum(b=4.0, terms=((1, 256, 2.0), (1, 4, 1.0)), offset=0.5).normalize()
        assert len(s.terms) == 2  # remainder term far below head is the signal, kept
        info = s.phase()
        assert info.mantissa == 2.0
        assert info.rem == 4.0 ** 4 + 0.5

    def test_same_scale_merge_exact(self):
        a = ScaledSum.scaled(256, 2.0)
        u = ScaledSum.scaled(256, 1.0, sign=-1)
        d = a.sub(u)  # b^256*2 + b^256*1
        assert d.terms == ((1, 256, 3.0),)

    def test_log_abs(self):
        s = ScaledSum.scaled(64, 2.0, offset=1.0)
        expect = 64 * LN4 + math.log(2.0)
        assert math.isclose(s.log_abs(), expect + math.log1p(1.0 / (4.0 ** 64 * 2)),
                            rel_tol=1e-15)

    def test_negative_and_sign(self):
        s = ScaledSum.scaled(16, 1.5, sign=-1)
        assert s.sign() == -1
        assert s.sub(s).sign() == 0

    def test_offset_fold_folds_the_terms_again(self):
        # the offset cancels all but 2^-20 of the head 4^30, and the term
        # 4^15 is within 2^-20 of what is left
        s = ScaledSum(b=4.0, terms=((1, 30, 1.0), (1, 15, 1.0)),
                      offset=-2.0 ** 60 + 2.0 ** 40).normalize()
        assert s.terms == ((1, 20, 1.0 + 2.0 ** -10),) and s.offset == 0.0
        assert s.is_canonical() and s.normalize() == s
        assert s.value() == 2.0 ** 40 + 2.0 ** 30

    @pytest.mark.parametrize("offset", [math.inf, -math.inf, math.nan])
    def test_non_finite_offset_rejected(self, offset):
        with pytest.raises(ParameterError):
            ScaledSum(b=4.0, terms=((1, 600, 2.0),), offset=offset).normalize()
        with pytest.raises(ParameterError):
            ScaledSum.zero(4.0).add_offset(offset)

    @pytest.mark.parametrize("y", [math.inf, math.nan])
    def test_non_finite_mantissa_rejected(self, y):
        # a hand-built term takes the general path, as does a sum of two
        bad = ScaledSum(b=4.0, terms=((1, 5, y),))
        x = ScaledSum.scaled(5, 2.0)
        for make in (bad.normalize, lambda: x.add(bad), lambda: x.sub(bad)):
            with pytest.raises(ParameterError):
                make()

    def test_offset_overflow_rejected(self):
        x = ScaledSum.scaled(600, 2.0).add_offset(1e308)
        with pytest.raises(ParameterError):
            x.add_offset(1e308)

    @pytest.mark.parametrize("x", [sys.float_info.max, -sys.float_info.max,
                                   sys.float_info.min, 5e-324])
    def test_from_float_at_the_float_extremes(self, x):
        s = ScaledSum.from_float(x, 4.0)
        assert s.value() == x and s.is_canonical()
        big = ScaledSum.zero(4.0).add_offset(x)  # an offset alone stays one
        assert big.offset == x

    def test_phase_info_reads_and_compares(self):
        x = ScaledSum.scaled(40, 2.5, offset=3.0)
        info = x.phase()
        assert (info.scale, info.mantissa, info.rem, info.rem_sign) == (40, 2.5, 3.0, 1)
        assert info.rem_log == math.log(3.0)
        assert info == PhaseInfo(scale=40, mantissa=2.5, rem=3.0, rem_sign=1,
                                 rem_log=math.log(3.0))
        assert info != ScaledSum.scaled(40, 2.5, offset=2.0).phase()
        far = ScaledSum(b=4.0, terms=((1, 1000, 2.0), (1, 600, 1.0))).phase()
        assert far.rem is None and far.rem_sign == 1 and far.rem_log == 600 * LN4


def _log_sum_long(values):
    # the compensated path of log_sum, for any number of values
    vals = [v for v in values if v != -math.inf]
    if not vals:
        return -math.inf
    ref = max(vals)
    if ref == math.inf:
        return ref
    acc = NeumaierSum()
    for v in vals:
        acc.add(math.exp(v - ref))
    return -math.inf if acc.total <= 0.0 else ref + math.log(acc.total)


@pytest.mark.parametrize("v", [-0.0, 0.0, -3.25, 1e300, -745.5, math.inf, -math.inf, math.nan])
def test_log_sum_of_one_value_is_the_long_path(v):
    bits = lambda z: struct.pack("<d", z)
    assert bits(log_sum([v])) == bits(_log_sum_long([v]))
    assert bits(log_sum([v, -math.inf])) == bits(_log_sum_long([v]))


class TestProfile:
    def test_dip_value(self, profile):
        assert math.isclose(profile.value(2.1), -1.0 / math.log(0.1),
                            rel_tol=1e-14)

    def test_center_zero(self, profile):
        assert profile.value(2.0) == 0.0

    def test_periodicity(self, profile):
        assert math.isclose(profile.value(8.4), profile.value(2.1),
                            rel_tol=1e-14)

    def test_periodicity_scaled_points(self, profile):
        # exact at representable points across ten scales
        ref = profile.value(ScaledSum.from_float(2.1, 4.0))
        for k in range(1, 11):
            v = profile.value(ScaledSum.scaled(k, 2.1))
            assert abs(v / ref - 1.0) < 1e-12

    def test_huge_scale_dip_distance(self, profile):
        x = ScaledSum.scaled(64, 2.0, offset=1.0)
        assert math.isclose(profile.value(x), 1.0 / (64 * LN4),
                            rel_tol=1e-14)

    def test_plateau_value(self, profile):
        assert math.isclose(profile.plateau, 1.0 / LN4, rel_tol=1e-15)
        assert profile.value(3.0) == profile.plateau

    def test_positive_away_from_center(self, profile):
        for x in (1.0, 1.5, 1.76, 1.9999, 2.0001, 2.24, 3.0, 4.0):
            assert profile.value(x) > 0.0

    def test_continuity_grid(self, profile):
        # phase grid of spacing 1e-6 over one period; excursions allowed only
        # within 1e-4 of the branch-change phases
        import numpy as np
        p = profile.params
        s = np.arange(0.0, math.log(p.b), 1e-6)
        x = np.exp(s)
        m = np.floor(np.log(x) / math.log(p.b))
        y = x / p.b ** m
        d = np.abs(y - p.x0)
        h = np.full_like(x, profile.plateau)
        dip = (d < p.delta) & (d > 0)
        h[dip] = -1.0 / np.log(d[dip])
        h[d == 0] = 0.0
        dh = np.abs(np.diff(h))
        boundary_phases = [math.log(p.x0 - p.delta), math.log(p.x0),
                           math.log(p.x0 + p.delta)]
        keep = np.ones(len(dh), dtype=bool)
        mid = 0.5 * (s[:-1] + s[1:])
        for bp in boundary_phases:
            keep &= np.abs(mid - bp) > 1e-4
        assert float(np.max(dh[keep])) < 1e-3

    def test_non_normalized_rejected(self, profile):
        raw = ScaledSum(b=4.0, terms=((1, 3, 2.0), (1, 3, 1.0)), offset=0.0)
        with pytest.raises(ContractViolationError):
            profile.value(raw)


class TestPhiLog:
    def test_plateau_point(self, profile):
        expect = math.log(3.0 ** -2 * profile.plateau)
        assert math.isclose(phi_log_value(profile, 3.0), expect, rel_tol=1e-14)

    def test_below_support(self, profile):
        assert phi_log_value(profile, 0.5) == -math.inf

    def test_center(self, profile):
        assert phi_log_value(profile, 2.0) == -math.inf

    def test_scaled_vs_naive(self, profile):
        # log-uniform samples over [1, 2^40]: the scale-split path agrees with
        # direct float evaluation
        import random
        rng = random.Random(20260810)
        p = profile.params
        for _ in range(300):
            x = math.exp(rng.uniform(0.0, 40 * math.log(2.0)))
            via_scaled = phi_log_value(profile, ScaledSum.from_float(x, p.b))
            m = math.floor(math.log(x) / math.log(p.b))
            y = x / p.b ** m
            if y >= p.b:
                y /= p.b
            if y < 1:
                y *= p.b
            d = abs(y - p.x0)
            h = profile.plateau if d >= p.delta else (0.0 if d == 0 else -1 / math.log(d))
            if h == 0.0:
                assert via_scaled == -math.inf
            else:
                naive = -(p.alpha + 1) * math.log(x) + math.log(h)
                assert abs(via_scaled - naive) < 1e-10 * max(1.0, abs(naive))


def _gamma(x, params):
    """The gamma regime's target |y - x0| b^m (log x)^-beta at a probe point."""
    return point_lambda(x, params) * x.log_abs() ** -params.beta


class TestSequences:
    def test_fixed_y(self, params):
        pts = make_sequence(SequenceSpec("fixed-y", 3.0, (1, 2, 3)), params)
        assert [p.value() for p in pts] == [12.0, 48.0, 192.0]

    def test_fixed_y_out_of_range(self, params):
        with pytest.raises(ParameterError):
            make_sequence(SequenceSpec("fixed-y", 5.0, (1,)), params)

    def test_lambda_zero_exact_anchor(self, params):
        pts = make_sequence(SequenceSpec("lambda", 0.0, (4, 5)), params)
        for n, x in zip((4, 5), pts):
            assert x.terms == ((1, n, params.x0),)
            assert x.offset == 0.0
            assert point_lambda(x, params) == 0.0

    def test_lambda_inf_linear(self, params):
        pts = make_sequence(SequenceSpec("lambda", math.inf, (6, 7, 8)), params)
        for n, x in zip((6, 7, 8), pts):
            assert math.isclose(point_lambda(x, params), float(n), rel_tol=1e-9)

    def test_gamma_target_recompute(self, params):
        pts = make_sequence(SequenceSpec("gamma", 1.0, (4, 6, 8, 12, 40)), params)
        for x in pts:
            assert abs(_gamma(x, params) - 1.0) < 1e-9

    def test_gamma_inf(self, params):
        pts = make_sequence(SequenceSpec("gamma", math.inf, (6, 8)), params)
        for n, x in zip((6, 8), pts):
            assert math.isclose(_gamma(x, params), float(n), rel_tol=1e-9)

    @pytest.mark.parametrize("n", [300, 511, 512, 520, 1024])
    def test_lambda_gamma_off_anchor_at_far_scales(self, params, n):
        # |y - x0| b^n at 4^n 2.1 against mpmath: inf exactly where the value
        # exceeds float range (from n = 520 on), else within a few ulps of its log
        mp = pytest.importorskip("mpmath")
        x = ScaledSum.scaled(n, 2.1)
        with mp.workdps(60):
            want = abs(mp.mpf(2.1) - params.x0) * mp.mpf(params.b) ** n
            got = point_lambda(x, params)
            if want > mp.mpf(2) ** 1024:
                assert got == math.inf
            else:
                assert abs(mp.mpf(got) / want - 1) <= 4 * math.ulp(float(mp.log(want)))

    def test_mantissa_out_of_cell_rejected(self, params):
        with pytest.raises(ParameterError):
            make_sequence(SequenceSpec("lambda", 1e9, (2,)), params)

    def test_side(self, params):
        lo = make_sequence(SequenceSpec("lambda", 1.0, (6,), side=-1), params)[0]
        hi = make_sequence(SequenceSpec("lambda", 1.0, (6,), side=1), params)[0]
        assert lo.value() < 4.0 ** 6 * 2.0 < hi.value()
