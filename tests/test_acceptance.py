"""Acceptance gate: one test per criterion, at the stated tolerances.

Each check records a PASS/FAIL line that pytest prints in the terminal
summary.  Three subcases are mathematically unattainable at the stated
finite probe points (the defining limits converge logarithmically there, or
carry an O(1/x) correction larger than the stated tolerance); those are
implemented literally, marked as expected failures, and each is paired with
a test pinning the measured value to its analytic prediction.  The full
analysis lives in the project notes ledger.
"""

import math

import numpy as np
import pytest

from subexp import (
    MixtureDistribution,
    ScaledSum,
    UniformAC,
    build_p1_p2,
    conv_local_mass,
    local_mass,
    phi_self_conv_at,
)
from subexp.convolve import oracle_conv_density_at, oracle_window_mass, phi_values
from subexp.probes import sandwich_probe
from subexp.scaledcore import SequenceSpec

from conftest import record_criterion


def series_by_name(report, name):
    for s in report.series:
        if s.name == name:
            return s
    raise KeyError(name)


def entry_at(series, n, **match):
    for e in series.entries:
        if e.n == n and all(getattr(e, k) == v for k, v in match.items()):
            return e
    raise KeyError((n, match))


# -----------------------------------------------------------------------
# criterion 1: oracle equivalence
# -----------------------------------------------------------------------

class TestCriterion1:
    def test_uniform_conv_against_triangle(self, quad):
        uni = MixtureDistribution.single(UniformAC(0.0, 1.0))
        worst = 0.0
        for x in (0.0, 0.25, 1.0):
            got = math.exp(conv_local_mass(uni, uni, x, 1.0, quad))
            tri_mass = _triangle_mass(x, x + 1.0)
            worst = max(worst, abs(got / tri_mass - 1.0))
        ok = worst < 1e-5
        record_criterion("criterion 1a: uniform conv vs analytic triangle", ok,
                         f"max rel err {worst:.2e} (tol 1e-5)")
        assert ok

    @pytest.mark.parametrize("x", [10.0, 100.0, 1000.0])
    def test_phi_self_conv_vs_riemann(self, profile, quad, x):
        got = phi_self_conv_at(profile, x, quad)
        g = lambda u: phi_values(profile, u)
        oracle = oracle_conv_density_at(g, g, x, 1.0, x - 1.0, 1e-4)
        err = abs(math.exp(got) / oracle - 1.0)
        ok = err < 1e-5
        record_criterion(f"criterion 1b: dip-density self-conv at x={x:g}", ok,
                         f"rel err {err:.2e} (tol 1e-5)")
        assert ok

    def test_mu_local_masses_vs_riemann(self, mu, profile, m_norm):
        worst = 0.0
        for x in (32.0, 100.0, 2048.0, 8192.0, 1e4):
            got = math.exp(local_mass(mu, ScaledSum.from_float(x, 4.0), 1.0))
            grid = lambda u: phi_values(profile, u) / m_norm
            oracle = oracle_window_mass(grid, x, x + 1.0, 1e-6)
            worst = max(worst, abs(got / oracle - 1.0))
        ok = worst < 1e-5
        record_criterion("criterion 1c: window masses vs Riemann at x <= 1e4", ok,
                         f"max rel err {worst:.2e} (tol 1e-5)")
        assert ok


def _triangle_mass(lo, hi):
    # closed form for the uniform-pair density on [0, 2]
    def cdf(t):
        t = min(max(t, 0.0), 2.0)
        return 0.5 * t * t if t <= 1.0 else 1.0 - 0.5 * (2.0 - t) ** 2
    return cdf(hi) - cdf(lo)


# -----------------------------------------------------------------------
# criterion 2: shift ratios across the four regimes
# -----------------------------------------------------------------------

_REGIMES_2 = [("y=3", 1.0), ("y=3", -1.0), ("lam=0", -1.0),
              ("lam=inf", 1.0), ("lam=inf", -1.0), ("gam=1", 1.0), ("gam=1", -1.0)]


class TestCriterion2:
    @pytest.mark.parametrize("label,a", _REGIMES_2)
    def test_shift_ratio(self, thm11, label, a):
        s = series_by_name(thm11, f"long_tail[{label},a={a:+g}]")
        r4 = abs(entry_at(s, 4).ratio - 1.0)
        r8 = abs(entry_at(s, 8).ratio - 1.0)
        ok = r8 < r4 and r8 < 0.05
        record_criterion(f"criterion 2: shift ratio [{label}, a={a:+g}]", ok,
                         f"|r-1| n=4: {r4:.4f} -> n=8: {r8:.4f} (tol 0.05)")
        assert ok

    @pytest.mark.xfail(strict=True, reason="shift ratios at exact dip anchors "
                       "converge like 1/(n log b); at n=8 the ratio is ~1.12, "
                       "provably outside the stated 0.05 (see notes ledger)")
    def test_shift_ratio_anchor_forward(self, thm11):
        s = series_by_name(thm11, "long_tail[lam=0,a=+1]")
        r4 = abs(entry_at(s, 4).ratio - 1.0)
        r8 = abs(entry_at(s, 8).ratio - 1.0)
        ok = r8 < r4 and r8 < 0.05
        record_criterion("criterion 2: shift ratio [lam=0, a=+1]", ok,
                         f"|r-1| n=4: {r4:.4f} -> n=8: {r8:.4f} (tol 0.05)",
                         expected_failure=True)
        assert ok

    def test_anchor_forward_matches_prediction(self, thm11):
        # the window one past the anchor sees log-distances near log(1+t)
        # instead of log t; the predicted ratio is the quotient of the two
        # exact window integrals of 1/(n log b - log s)
        s = series_by_name(thm11, "long_tail[lam=0,a=+1]")
        measured = entry_at(s, 8).ratio
        a_n = 8 * math.log(4.0)
        grid = np.linspace(0.0, 1.0, 2_000_001)
        mids = 0.5 * (grid[:-1] + grid[1:])
        den = float(np.sum(1.0 / (a_n - np.log(mids)) * np.diff(grid)))
        num = float(np.sum(1.0 / (a_n - np.log1p(mids)) * np.diff(grid)))
        assert abs(measured - num / den) < 2e-3
        assert entry_at(s, 8).ratio < entry_at(s, 4).ratio  # still converging


# -----------------------------------------------------------------------
# criterion 3: self-convolution window ratio to 2
# -----------------------------------------------------------------------

class TestCriterion3:
    def test_fixed_mantissa_all_widths(self, thm11):
        worst = 0.0
        for c in (0.5, 1.0, 2.0):
            s = series_by_name(thm11, f"conv2[y=3,c={c:g}]")
            worst = max(worst, abs(entry_at(s, 8, c=c).ratio / 2.0 - 1.0))
        ok = worst < 0.05
        record_criterion("criterion 3: conv ratio to 2 at n=8 (c in 0.5/1/2)", ok,
                         f"max |r/2-1| = {worst:.2e} (tol 0.05)")
        assert ok

    def test_anchor_regime_monotone(self, thm11):
        s = series_by_name(thm11, "conv2[lam=0,c=1]")
        devs = [abs(e.ratio / 2.0 - 1.0) for e in s.entries]
        ok = all(b < a for a, b in zip(devs[:-1], devs[1:]))
        record_criterion("criterion 3: anchor-regime trend toward 2", ok,
                         "|r/2-1| over n=4..8: " + ", ".join(f"{d:.3f}" for d in devs))
        assert ok


# -----------------------------------------------------------------------
# criterion 4: non-uniform window convergence
# -----------------------------------------------------------------------

class TestCriterion4:
    def test_diagonal_near_half(self, thm11):
        s = series_by_name(thm11, "uniformity[m=n]")
        worst = max(abs(entry_at(s, n, m=n).ratio - 0.5) for n in (6, 8))
        ok = worst < 0.1
        record_criterion("criterion 4: r(n,n) near 1/2 at n=6,8", ok,
                         f"max |r-1/2| = {worst:.3f} (tol 0.1)")
        assert ok

    def test_fixed_width_tracks_n(self, thm11):
        s = series_by_name(thm11, "uniformity[m=2]")
        worst = max(abs(entry_at(s, n, m=2).ratio - n / (n + 2.0)) for n in (6, 8))
        ok = worst < 0.1
        record_criterion("criterion 4: r(n,2) near n/(n+2)", ok,
                         f"max |r - n/(n+2)| = {worst:.3f} (tol 0.1; quadrature "
                         "oracle at n=4..6 in the probes suite)")
        assert ok


# -----------------------------------------------------------------------
# criterion 5: divergence along the sparse family
# -----------------------------------------------------------------------

class TestCriterion5:
    def test_rk_strictly_increasing(self, thm12):
        rk = [row["ratio"] for row in thm12.tables["mixed_mass_ratio"]]
        ok = all(b > a for a, b in zip(rk[:-1], rk[1:]))
        record_criterion("criterion 5: R_k strictly increasing k=1..4", ok,
                         "R_k = " + ", ".join(f"{r:.3f}" for r in rk))
        assert ok

    def test_increment_doubling_k2_k3(self, thm12):
        rk = [row["ratio"] for row in thm12.tables["mixed_mass_ratio"]]
        ratios = [(rk[i + 1] - 1.0) / (rk[i] - 1.0) for i in (1, 2)]
        ok = all(1.4 <= r <= 2.6 for r in ratios)
        record_criterion("criterion 5: increment ratios k=2,3 in [1.4, 2.6]", ok,
                         ", ".join(f"{r:.3f}" for r in ratios))
        assert ok

    @pytest.mark.xfail(strict=True, reason="R_1 = 1.03: at k=1 the anchor window "
                       "is only one scale deep, so R_1 - 1 is tiny and the first "
                       "increment ratio is ~50, provably outside [1.4, 2.6] "
                       "(see notes ledger)")
    def test_increment_doubling_k1(self, thm12):
        rk = [row["ratio"] for row in thm12.tables["mixed_mass_ratio"]]
        r = (rk[1] - 1.0) / (rk[0] - 1.0)
        ok = 1.4 <= r <= 2.6
        record_criterion("criterion 5: increment ratio k=1 in [1.4, 2.6]", ok,
                         f"(R_2-1)/(R_1-1) = {r:.1f}", expected_failure=True)
        assert ok

    def test_k1_matches_prediction(self, thm12):
        # R_1 = 1 + w_1 (ratio_1 - ...) with ratio_1 the plateau/anchor window
        # quotient; pin the measured value against a direct Riemann quotient
        r1 = thm12.tables["mixed_mass_ratio"][0]["ratio"]
        grid = np.linspace(0.0, 1.0, 2_000_001)
        mids = 0.5 * (grid[:-1] + grid[1:])
        den = float(np.sum((512.0 + mids) ** -2
                           / (4 * math.log(4.0) - np.log(mids)) * np.diff(grid)))
        num = float(np.sum((768.0 + mids) ** -2 * np.diff(grid))) / math.log(4.0)
        assert abs(r1 - 0.5 * num / den) < 5e-3

    def test_smoothed_pair_split(self, thm12):
        rows = thm12.tables["smoothed_pair"]
        fail_ok = all(b["p2_fail_lo"] > a["p2_fail_hi"]
                      for a, b in zip(rows[:-1], rows[1:]))
        sd_ok = all(b["p1_sd_hi"] < a["p1_sd_lo"]
                    for a, b in zip(rows[:-1], rows[1:]))
        sd_ok = sd_ok and all(row["p1_sd_lo"] > 0.999 for row in rows)
        ok = fail_ok and sd_ok
        record_criterion("criterion 5: smoothed pair split verdicts", ok,
                         "p2 ratio increasing, p1 ratio -> 1 "
                         f"(last p1 in [{rows[-1]['p1_sd_lo']:.4f}, "
                         f"{rows[-1]['p1_sd_hi']:.4f}])")
        assert ok


# -----------------------------------------------------------------------
# criterion 6: pointwise equality of the smoothed pair
# -----------------------------------------------------------------------

class TestCriterion6:
    def test_equal_beyond_one_and_differ_inside(self, spec_default):
        p1, p2 = build_p1_p2(spec_default)
        pts = [1.0 + 2 ** -20, 1.5, 2.0, 3.0, 32.5, 513.0,
               ScaledSum.scaled(8, 3.0), ScaledSum.scaled(16, 2.0).add_offset(0.25)]
        equal = all(p1.log_value(x) == p2.log_value(x) for x in pts)
        differ = any(p1.value(x) != p2.value(x) for x in (0.25, 0.5, 0.75))
        ok = equal and differ
        record_criterion("criterion 6: smoothed pair equal on x>1, differ on [0,1]",
                         ok, "bit-identical beyond 1; kernel bump only in p1")
        assert ok


# -----------------------------------------------------------------------
# criterion 7: kernel smoothing tracks the unit window
# -----------------------------------------------------------------------

class TestCriterion7:
    def test_smoothing_ratio(self, prop11):
        s = series_by_name(prop11, "smoothing")
        dev = abs(entry_at(s, 8).ratio - 1.0)
        ok = dev < 0.05
        record_criterion("criterion 7: smoothing ratio at n=8", ok,
                         f"|r-1| = {dev:.2e} (tol 0.05)")
        assert ok


# -----------------------------------------------------------------------
# criterion 8: two-sided sandwich
# -----------------------------------------------------------------------

class TestCriterion8:
    def test_sandwich(self, mu, params):
        entries = sandwich_probe(mu, 0.25, 1.0, 1.0,
                                 SequenceSpec("fixed-y", 3.0, (4, 5, 6, 7, 8)),
                                 params=params)
        ordered = all(e.ordered for e in entries)
        last = entries[-1]
        j1_dev = abs(last.j1 - 1.0 / 1.25)
        j2_dev = abs(last.j2 - 1.25)
        ok = ordered and j1_dev < 0.05 and j2_dev < 0.05
        record_criterion("criterion 8: sandwich limits and ordering", ok,
                         f"J1 dev {j1_dev:.2e}, J2 dev {j2_dev:.2e}, ordering "
                         f"{'holds' if ordered else 'violated'}")
        assert ok


# -----------------------------------------------------------------------
# criterion 9: tilt identities
# -----------------------------------------------------------------------

class TestCriterion9:
    def test_identity_at_unit_window(self, tiltrep):
        s = series_by_name(tiltrep, "tilt_identity")
        dev = abs(entry_at(s, 60, c=1.0).ratio - 1.0)
        ok = dev < 0.02
        record_criterion("criterion 9: tilt identity x=60, c=1", ok,
                         f"|r-1| = {dev:.4f} (tol 0.02)")
        assert ok

    @pytest.mark.xfail(strict=True, reason="the identity carries a first-order "
                       "correction (2/gamma - c)/(1+x); at x=60, c=0.1 that is "
                       "~0.031, provably outside 0.02 (see notes ledger)")
    def test_identity_at_narrow_window(self, tiltrep):
        s = series_by_name(tiltrep, "tilt_identity")
        dev = abs(entry_at(s, 60, c=0.1).ratio - 1.0)
        ok = dev < 0.02
        record_criterion("criterion 9: tilt identity x=60, c=0.1", ok,
                         f"|r-1| = {dev:.4f} (tol 0.02)", expected_failure=True)
        assert ok

    def test_narrow_window_matches_prediction(self, tiltrep):
        s = series_by_name(tiltrep, "tilt_identity")
        measured = entry_at(s, 60, c=0.1).ratio
        predicted = 1.0 + (2.0 - 0.1) / 61.0  # (2/gamma - c)/(1+x) to first order
        assert abs(measured - predicted) < 2e-3

    def test_round_trip_and_commuting(self, tiltrep):
        diag = tiltrep.tables["tilt_diagnostics"][0]
        ok = diag["round_trip_max_log_err"] < 1e-8 and \
            diag["commute_max_log_err"] < 1e-8
        record_criterion("criterion 9: tilt round trip / convolution commuting", ok,
                         f"round trip {diag['round_trip_max_log_err']:.1e}, "
                         f"commuting {diag['commute_max_log_err']:.1e} (tol 1e-8)")
        assert ok


# -----------------------------------------------------------------------
# criterion 10: invariant suites
# -----------------------------------------------------------------------

class TestCriterion10:
    def test_representative_invariants(self, profile, mu, quad, tmp_path):
        import subprocess
        import sys

        checks = {}
        base = ScaledSum.from_float(2.1, 4.0)
        ref = profile.value(base)
        checks["periodicity"] = all(
            abs(profile.value(base.scale_pow_b(k)) / ref - 1.0) < 1e-12
            for k in range(1, 11))

        from subexp import phi_log_value
        x = 12345.678
        direct = phi_log_value(profile, ScaledSum.from_float(x, 4.0))
        m = math.floor(math.log(x) / math.log(4.0))
        y = x / 4.0 ** m
        naive = -2.0 * math.log(x) + math.log(profile.plateau)
        checks["scaled-vs-naive"] = abs(direct - naive) < 1e-10

        from subexp import tail
        checks["mass-normalization"] = abs(math.exp(tail(mu, 1.0)) - 1.0) < 1e-7

        uni = MixtureDistribution.single(UniformAC(0.0, 1.0))
        a = conv_local_mass(mu, uni, 33.0, 1.0, quad)
        b = conv_local_mass(uni, mu, 33.0, 1.0, quad)
        checks["commutativity"] = abs(a - b) < 1e-10

        r1 = subprocess.run([sys.executable, "-m", "subexp.cli", "gallery", "lem32",
                             "--out", str(tmp_path / "t1")], capture_output=True)
        r2 = subprocess.run([sys.executable, "-m", "subexp.cli", "gallery", "lem32",
                             "--out", str(tmp_path / "t2")], capture_output=True)
        checks["run-determinism"] = (
            r1.returncode == 0 and r2.returncode == 0 and
            (tmp_path / "t1" / "lem32.csv").read_bytes()
            == (tmp_path / "t2" / "lem32.csv").read_bytes())

        ok = all(checks.values())
        record_criterion("criterion 10: invariant suites", ok,
                         ", ".join(f"{k}={'ok' if v else 'FAIL'}"
                                   for k, v in checks.items())
                         + " (full suites in the unit test modules)")
        assert ok
