import math

import pytest

from subexp import (
    GallerySpec,
    ParameterError,
    QuadratureSpec,
    ScaledSum,
    build_mu,
    build_mu1,
    build_p1_p2,
    build_rho1_rho2,
    interval_family,
    local_mass,
    tail,
)
from subexp.gallery import thm12_report


class TestBuilders:
    def test_mu_total_mass(self):
        # the normalizer and the tail are closed forms, whatever the spec
        spec = GallerySpec(quad=QuadratureSpec(rel_tol=1e-9))
        mu = build_mu(spec)
        assert abs(math.exp(tail(mu, 1.0)) - 1.0) < 1e-9

    def test_mu1_weights(self, spec_default):
        mu1 = build_mu1(spec_default)
        atom = mu1.components[0][1]
        # five atoms, residual tail weight folded into the last
        assert atom.weights == (0.5, 0.25, 0.125, 0.0625, 0.0625)
        assert math.fsum(atom.weights) == 1.0

    def test_mu1_negative_support(self, spec_default):
        mu1 = build_mu1(spec_default)
        # every atom sits strictly below zero and above -b^(n_max + 1)
        deep = ScaledSum.scaled(4 ** 5 + 1, 1.0, sign=-1)
        assert math.exp(tail(mu1, deep)) == 1.0
        assert tail(mu1, 0.0) == -math.inf

    def test_mu1_atoms_inside_intervals(self, spec_default):
        fam = interval_family(spec_default)
        mu1 = build_mu1(spec_default)
        atom = mu1.components[0][1]
        for loc, ll, rr in zip(atom.locations[:len(fam.n_k)], fam.b_left, fam.b_right):
            assert loc.sub(ll).sign() > 0
            assert loc.sub(rr).sign() < 0

    def test_family_disjoint(self, spec_default):
        fam = interval_family(spec_default)
        for r, l_next in zip(fam.b_right[:-1], fam.b_left[1:]):
            # next interval lies strictly left of the previous one
            assert l_next.sub(r).sign() < 0

    def test_k_max_guard(self):
        with pytest.raises(ParameterError):
            GallerySpec(k_max=9)

    def test_rho_mixtures(self, spec_default):
        rho1, rho2 = build_rho1_rho2(spec_default)
        # the point mass at zero shows up in windows covering zero
        m = math.exp(local_mass(rho1, -0.5, 1.0))
        assert abs(m - 0.5) < 1e-12
        assert math.exp(local_mass(rho2, -0.5, 1.0)) < 1e-12


class TestSmoothedPair:
    def test_equal_beyond_one(self, spec_default):
        p1, p2 = build_p1_p2(spec_default)
        pts = [1.5, 3.0, 32.5, 100.0, ScaledSum.scaled(8, 3.0),
               ScaledSum.scaled(16, 2.0).add_offset(0.5)]
        for x in pts:
            a, b = p1.log_value(x), p2.log_value(x)
            assert a == b  # same code path, bit-identical

    def test_differ_inside_kernel_support(self, spec_default):
        p1, p2 = build_p1_p2(spec_default)
        assert p1.value(0.5) == pytest.approx(0.5 * 2.0)  # half the kernel peak
        assert p2.value(0.5) == 0.0

    def test_window_branch_routing(self, spec_default):
        # shifted anchors: same-scale shift lands on the plateau, smaller-scale
        # shifts stay inside the dip
        fam = interval_family(spec_default)
        mu1 = build_mu1(spec_default)
        atom = mu1.components[0][1]
        profile = spec_default.profile
        k = 3
        anchor = fam.d_anchor[k - 1]
        same = anchor.sub(atom.locations[k - 1])
        smaller = anchor.sub(atom.locations[0])
        assert profile.value(same) == profile.plateau
        assert 0.0 < profile.value(smaller) < profile.plateau

    def test_unit_mass(self, spec_default):
        p1, p2 = build_p1_p2(spec_default)
        from subexp.measures import MixtureDistribution
        deep = ScaledSum.scaled(4 ** 5 + 1, 1.0, sign=-1)
        for handle in (p1, p2):
            dist = MixtureDistribution.single(handle.component)
            total = math.exp(tail(dist, deep))
            assert abs(total - 1.0) < 1e-7


class TestReports:
    def test_thm11_series_present(self, thm11):
        names = {s.name for s in thm11.series}
        assert {"conv2[y=3,c=1]", "uniformity[m=n]", "sd"} <= names
        assert thm11.notes  # chosen constants are printed

    def test_thm12_rk_increasing(self, thm12):
        rk = [r["ratio"] for r in thm12.tables["mixed_mass_ratio"]]
        assert all(b > a for a, b in zip(rk[:-1], rk[1:]))

    def test_thm12_leading_order_tracks(self, thm12):
        for row in thm12.tables["mixed_mass_ratio"][1:]:  # k >= 2
            assert abs(row["ratio"] / row["leading_order"] - 1.0) < 0.1

    def test_single_atom_case(self, spec_default):
        # with only the first atom, the mixed ratio reduces to one shifted
        # window over the anchor window, at half weight
        from subexp.measures import AtomSeries, MixtureDistribution
        from subexp.convolve import conv_local_mass
        mu = build_mu(spec_default)
        fam = interval_family(spec_default)
        quad = spec_default.quad
        loc = fam.atom_locations[0]
        single = MixtureDistribution.single(
            AtomSeries(locations=(loc,), weights=(1.0,)))
        anchor = fam.d_anchor[0]
        lhs = conv_local_mass(mu, single, anchor, 1.0, quad)
        rhs = local_mass(mu, anchor.sub(loc), 1.0)
        assert abs(lhs - rhs) < 1e-12

    def test_report_determinism(self, spec_default, thm12):
        again = thm12_report(spec_default)
        assert again.rows() == thm12.rows()

    @pytest.mark.parametrize("name", ["thm12", "prop11"])
    def test_scalar_integrands_give_the_same_rows(self, request, spec_default, monkeypatch,
                                                  name):
        # every integrand stripped of its batch form, as a tracer that wraps
        # it in a plain function does: each quadrature round then runs node
        # by node through the scalar rules
        from subexp import convolve, gallery, measures, quadrature

        def plain(f, *args, **kwargs):
            return quadrature.integrate_log(lambda t: f(t), *args, **kwargs)

        batched = request.getfixturevalue(name)
        for mod in (convolve, measures):
            monkeypatch.setattr(mod, "integrate_log", plain)
        stripped = gallery.REPORTS[name](spec_default)
        assert ({k: v.classification for k, v in stripped.verdicts.items()}
                == {k: v.classification for k, v in batched.verdicts.items()})
        rows, want = stripped.rows(), batched.rows()
        assert len(rows) == len(want)
        for row, ref in zip(rows, want):
            assert row.keys() == ref.keys()
            for key, v in row.items():
                if isinstance(v, float) and math.isfinite(v):
                    assert math.isclose(v, ref[key], rel_tol=1e-12, abs_tol=0.0), (key, v, ref[key])
                else:
                    assert v == ref[key] or (v != v and ref[key] != ref[key]), (key, v, ref[key])


class TestSmoothedPairWeight:
    """The smoothed pair's self-convolution term as one weighted mass per k."""

    def test_four_dip_pair_integrals(self, spec_default, monkeypatch):
        from subexp import gallery
        from subexp.measures import PhiAC
        calls = []
        conv = gallery.conv_local_mass

        def counted(d1, d2, *args, **kwargs):
            if all(any(isinstance(c, PhiAC) for _w, c in d.components) for d in (d1, d2)):
                calls.append(args[0])
            return conv(d1, d2, *args, **kwargs)

        monkeypatch.setattr(gallery, "conv_local_mass", counted)
        report = thm12_report(spec_default)
        assert len(report.tables["smoothed_pair"]) == spec_default.k_max == 4
        assert len(calls) == 4  # one per k; the 5-node f2 rule took 20 per k

    def test_rows_equal_the_direct_pairs(self, spec_default, thm12):
        # pair_rows expands (q * rho) * (q * rho) by hand; the pair asked for
        # directly gives the same columns, in another order of summation
        from subexp.convolve import bracket_pair, conv_local_mass
        from subexp.measures import MixtureDistribution
        p1, p2 = (MixtureDistribution.single(h.component) for h in build_p1_p2(spec_default))
        anchors = interval_family(spec_default).d_anchor
        for row, anchor in zip(thm12.tables["smoothed_pair"], anchors):
            for dist, col, shift in ((p2, "p2_fail", 0.0), (p1, "p1_sd", math.log(2.0))):
                den = dist.log_window_mass(anchor, 1.0) + shift
                pair = bracket_pair(conv_local_mass(dist, dist, anchor, 1.0, spec_default.quad))
                for end, v in zip(("lo", "hi"), pair):
                    assert math.isclose(row[f"{col}_{end}"], math.exp(v - den), rel_tol=1e-12)

    @pytest.mark.parametrize("k", [1, 2])
    def test_weighted_term_matches_the_f2_rule(self, spec_default, k):
        # int f2(v) (mu*mu)((x-v, x-v+1]) dv by the 5-node Gauss-Legendre rule
        # per piece of f2 = kernel * kernel, from unit-window masses, against
        # the weighted mass of mu*mu under G2; k = 1 runs full numeric, k = 2
        # the split bracket
        from subexp.convolve import bracket_pair, conv_local_mass
        from subexp.gallery import default_kernel
        from subexp.logsum import log_sum
        from subexp.measures import Weight, _gauss_legendre
        mu = build_mu(spec_default)
        quad = spec_default.quad
        kernel = default_kernel()
        anchor = interval_family(spec_default).d_anchor[k - 1]
        terms_lo, terms_hi = [], []
        for lo in (0.0, 0.5, 1.0, 1.5):
            for z, wt in _gauss_legendre(5):
                v = lo + 0.25 + 0.25 * z
                m_lo, m_hi = bracket_pair(conv_local_mass(mu, mu, anchor.add_offset(-v), 1.0,
                                                          quad))
                base = math.log(wt * 0.25 * kernel.self_convolution_value(v))
                terms_lo.append(base + m_lo)
                terms_hi.append(base + m_hi)
        old_lo, old_hi = log_sum(terms_lo), log_sum(terms_hi)
        g2 = Weight.window(1.0).smoothed(kernel).smoothed(kernel)
        new_lo, new_hi = bracket_pair(conv_local_mass(mu, mu, anchor, g2, quad))
        assert abs(new_lo - old_lo) <= 5e-9 and abs(new_hi - old_hi) <= 5e-9
        assert (new_hi > new_lo) == (old_hi > old_lo) == (k > 1)
        if k > 1:
            assert new_lo <= old_hi and old_lo <= new_hi
