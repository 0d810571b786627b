"""Constructions and packaged reports.

Builds every distribution of the study -- the dip-density measure, the
negative-side atom series, their mixtures, and the smoothed density pair
that agrees beyond a point while only one of the two keeps the
self-convolution property -- and bundles the probe runs that witness each
headline phenomenon:

  thm11  local self-convolution behaviour with its non-uniform window
         convergence (ratio to 2, shift ratios, shrinking-window table);
  thm12  divergence of mixed local masses along the sparse interval family,
         plus the smoothed pair's split verdicts;
  lem32  pointwise self-convolution ratio across the three mantissa regimes;
  prop11 the window-density bridge (dual ratio checks, kernel smoothing,
         two-sided sandwich);
  tilt   exponential-tilt identities.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

from .errors import ParameterError
from .logsum import LOG_ZERO, log_sum
from .quadrature import QuadratureSpec
from .scaledcore import (
    ModelParams,
    PeriodicProfile,
    ScaledSum,
    SequenceSpec,
    as_point,
    make_sequence,
    point_lambda,
)
from .measures import (
    AtomSeries,
    KernelAC,
    MixtureDistribution,
    ParetoAC,
    PhiAC,
    PiecewiseLinearDensity,
    PointMass,
    UniformAC,
    Weight,
    local_density,
    normalizer_M,
    tilt,
)
from .convolve import LogBracket, bracket_pair, conv_local_mass, phi_self_conv_at
from .probes import (
    RatioSeries,
    _entry,
    classify_limit,
    long_tail_probe,
    sandwich_probe,
    sd_probe,
    tilt_identity_probe,
    uniformity_probe,
)


@dataclass(frozen=True)
class GallerySpec:
    """Configuration of the constructions and report runs."""

    params: ModelParams = field(default_factory=ModelParams)
    k_max: int = 4
    n_range: tuple = (4, 5, 6, 7, 8)
    quad: QuadratureSpec = field(default_factory=lambda: QuadratureSpec(rel_tol=1e-7))

    def __post_init__(self):
        if not (1 <= self.k_max <= 6):
            raise ParameterError("k_max must lie in [1, 6]")
        if not self.n_range:
            raise ParameterError("n_range must be nonempty")

    @property
    def profile(self) -> PeriodicProfile:
        return PeriodicProfile(self.params)


@dataclass(frozen=True)
class IntervalFamily:
    """The sparse intervals B_k (negative side) and D_k (dip anchors).

    n_k = 4^k, so the atom weights 1/sqrt(n_k) = 2^-k sum to one exactly.
    """

    n_k: tuple
    b_left: tuple  # ScaledSum endpoints of B_k = (-b^{n_k} x2, -b^{n_k} x1]
    b_right: tuple
    d_anchor: tuple  # left endpoints of D_k = (b^{n_k} x0, b^{n_k} x0 + 1]
    atom_locations: tuple  # midpoints -b^{n_k} (x1+x2)/2


def interval_family(spec: GallerySpec) -> IntervalFamily:
    p = spec.params
    ks = range(1, spec.k_max + 1)
    n_k = tuple(4 ** k for k in ks)
    return IntervalFamily(
        n_k=n_k,
        b_left=tuple(ScaledSum.scaled(n, p.x2, b=p.b, sign=-1) for n in n_k),
        b_right=tuple(ScaledSum.scaled(n, p.x1, b=p.b, sign=-1) for n in n_k),
        d_anchor=tuple(ScaledSum.scaled(n, p.x0, b=p.b) for n in n_k),
        atom_locations=tuple(
            ScaledSum.scaled(n, 0.5 * (p.x1 + p.x2), b=p.b, sign=-1) for n in n_k),
    )


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------

def build_mu(spec: GallerySpec) -> MixtureDistribution:
    """The normalized dip-density measure."""
    profile = spec.profile
    m = normalizer_M(spec.params, profile)
    return MixtureDistribution.single(PhiAC(profile=profile, m_log=math.log(m)))


def build_mu1(spec: GallerySpec) -> MixtureDistribution:
    """The negative-side atom series.

    One atom per B_k at the midpoint -b^{n_k}(x1+x2)/2 with weight 2^-k;
    the series is truncated one level beyond the reported family depth
    (5 atoms at the default depth) and the residual tail weight 2^-K is
    assigned to the last atom so the weights still sum to one exactly.
    """
    p = spec.params
    kk = spec.k_max + 1
    mid = 0.5 * (p.x1 + p.x2)
    locs = tuple(ScaledSum.scaled(4 ** k, mid, b=p.b, sign=-1) for k in range(1, kk + 1))
    weights = [2.0 ** -k for k in range(1, kk + 1)]
    weights[-1] += 2.0 ** -kk
    return MixtureDistribution.single(AtomSeries(locations=locs, weights=tuple(weights)))


def build_rho1_rho2(spec: GallerySpec):
    """Half point-mass-at-zero + half dip measure, and its asymptotic twin
    with the negative-side atoms in place of the point mass."""
    mu = build_mu(spec)
    mu1 = build_mu1(spec)
    phi_comp = mu.components[0][1]
    atom_comp = mu1.components[0][1]
    rho1 = MixtureDistribution(components=((0.5, PointMass(0.0)), (0.5, phi_comp)))
    rho2 = MixtureDistribution(components=((0.5, atom_comp), (0.5, phi_comp)))
    return rho1, rho2


def default_kernel() -> PiecewiseLinearDensity:
    """Symmetric triangle on [0, 1] (continuous, compact support)."""
    return PiecewiseLinearDensity.triangle(0.0, 1.0)


def build_p1_p2(spec: GallerySpec, kernel: PiecewiseLinearDensity | None = None):
    """The kernel-smoothed densities of the two mixtures.

    p1 smooths the point-mass mixture, p2 the atom-series mixture; on
    (1, inf) both reduce to the same smoothed dip-density term evaluated by
    the same code path, so they agree to the last bit there, while on [0, 1]
    only p1 carries the kernel's own bump.
    """
    kernel = kernel or default_kernel()
    rho1, rho2 = build_rho1_rho2(spec)
    return (SmoothedDensityHandle("p1", kernel, rho1, spec),
            SmoothedDensityHandle("p2", kernel, rho2, spec))


# ---------------------------------------------------------------------------
# density handles for the self-convolution probes
# ---------------------------------------------------------------------------

class PhiDensityHandle:
    """The normalized dip density as a pointwise object.

    The self-convolution ratio denominator uses the unit-window average
    (mass of (x, x+1]) instead of the raw point value: the two agree in the
    long-tailed limit, and the window form stays positive at dip anchors
    where the pointwise density vanishes.
    """

    denominator_form = "unit-window"

    def __init__(self, spec: GallerySpec, mu: MixtureDistribution):
        self.spec = spec
        self.params = spec.params
        self.component: PhiAC = mu.components[0][1]
        self.mu = mu
        self.profile = self.component.profile
        self.quad = spec.quad

    def log_value(self, x) -> float:
        return self.component.log_density(as_point(x, self.params.b))

    def log_self_conv(self, x):
        raw = phi_self_conv_at(self.profile, x, self.quad)
        m2 = 2 * self.component.m_log
        if isinstance(raw, LogBracket):
            return LogBracket(raw.lo - m2, raw.hi - m2)
        return raw if raw == LOG_ZERO else raw - m2

    def log_sd_denominator(self, x: ScaledSum) -> float:
        return self.mu.log_window_mass(x, 1.0)


class BridgeDensityHandle:
    """The window density p(x) = mu((x-1, x]) as a pointwise object.

    Its self-convolution, the density of X1 + X2 + U1 + U2 with U uniform on
    [0, 1], is one weighted mass of ``mu * mu``: the triangle of two window
    uniforms, reflected, as the weight.
    """

    denominator_form = "point"

    def __init__(self, spec: GallerySpec, mu: MixtureDistribution):
        self.spec = spec
        self.params = spec.params
        self.mu = mu
        self.quad = spec.quad
        # p(x) is the weight of the window (-1, 0]; p * p averages it over U2
        self.triangle = Weight.window(1.0).shift(-1.0).averaged(0.0, 1.0)

    def log_value(self, x) -> float:
        return local_density(self.mu, x, 1.0)

    def log_self_conv(self, x: ScaledSum):
        return conv_local_mass(self.mu, self.mu, x, self.triangle, self.quad)

    def log_sd_denominator(self, x: ScaledSum) -> float:
        return self.log_value(x)


class SmoothedDensityHandle:
    """Density of kernel * base as a pointwise object (the p1/p2 pair)."""

    def __init__(self, name: str, kernel: PiecewiseLinearDensity,
                 base: MixtureDistribution, spec: GallerySpec):
        self.name = name
        self.kernel = kernel
        self.base = base
        self.spec = spec
        self.params = spec.params
        self.component = KernelAC(kernel=kernel, base=base)

    def log_value(self, x) -> float:
        return self.component.log_density(as_point(x, self.params.b))

    def value(self, x) -> float:
        v = self.log_value(x)
        return 0.0 if v == LOG_ZERO else math.exp(v)


# ---------------------------------------------------------------------------
# report container
# ---------------------------------------------------------------------------

_COLUMNS = ("probe", "n", "m", "c", "log_num", "log_den", "log_ratio", "ratio",
            "bracket_lo", "bracket_hi", "flag")


@dataclass(frozen=True)
class Report:
    name: str
    params: ModelParams
    series: tuple  # tuple[RatioSeries]
    tables: dict = field(default_factory=dict)
    verdicts: dict = field(default_factory=dict)
    notes: tuple = ()

    def rows(self) -> list:
        out = []
        for s in self.series:
            out += series_rows(s, self.params)
        pcols = asdict(self.params)
        for tname, rows in self.tables.items():
            for r in rows:
                base = {k: None for k in _COLUMNS}
                base.update({"probe": tname, "flag": r.get("_flag", "")})
                base.update({k: v for k, v in r.items() if k != "_flag"})
                base.update(pcols)
                out.append(base)
        return out


def series_rows(series: RatioSeries, params: ModelParams) -> list:
    """One output row per entry of a ratio series, with the model constants."""
    pcols = asdict(params)
    rows = []
    for e in series.entries:
        lo, hi = e.ratio_bounds()
        rows.append({
            "probe": series.name, "n": e.n, "m": e.m, "c": e.c,
            "log_num": e.log_num, "log_den": e.log_den,
            "log_ratio": e.log_ratio, "ratio": e.ratio,
            "bracket_lo": lo if e.num_bracket else None,
            "bracket_hi": hi if e.num_bracket else None,
            "flag": "flagged" if e.flagged else ("bracketed" if e.num_bracket else ""),
            **pcols,
        })
    return rows


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

def _conv_ratio_series(name, mu, pts, ns, c, quad) -> RatioSeries:
    entries = tuple(_entry(x, conv_local_mass(mu, mu, x, c, quad),
                           mu.log_window_mass(x, c), n=n, c=c)
                    for n, x in zip(ns, pts))
    return RatioSeries(name=name, entries=entries, meta={"c": c, "target": 2.0})


def _std_notes(spec: GallerySpec) -> tuple:
    p = spec.params
    prof = spec.profile
    return (
        f"model constants: b={p.b:g} x0={p.x0:g} delta={p.delta:g} alpha={p.alpha:g} "
        f"beta={p.beta:g} x1={p.x1:g} x2={p.x2:g}",
        f"profile outside the dip ring: constant plateau -1/log(delta) = {prof.plateau!r}; "
        "dip distance measured in mantissa space",
        "window convention: mass over (x, x+c]; probes sample the listed n/c/a sets only",
    )


def thm11_report(spec: GallerySpec) -> Report:
    """Local self-convolution evidence and the non-uniformity witness."""
    mu = build_mu(spec)
    quad = spec.quad
    p = spec.params
    ns = [int(n) for n in spec.n_range]

    series = []
    regimes = (("y=3", SequenceSpec("fixed-y", 3.0, tuple(ns))),
               ("lam=0", SequenceSpec("lambda", 0.0, tuple(ns))),
               ("lam=inf", SequenceSpec("lambda", math.inf, tuple(ns))),
               ("gam=1", SequenceSpec("gamma", 1.0, tuple(ns))))
    for label, seq in regimes:
        for a in (1.0, -1.0):
            s = long_tail_probe(mu, a, seq, params=p)
            series.append(RatioSeries(name=f"long_tail[{label},a={a:+g}]",
                                      entries=s.entries, meta=s.meta))

    pts_y3 = make_sequence(SequenceSpec("fixed-y", 3.0, tuple(ns)), p)
    for c in (0.5, 1.0, 2.0):
        series.append(_conv_ratio_series(f"conv2[y=3,c={c:g}]", mu, pts_y3, ns, c, quad))
    pts_l0 = make_sequence(SequenceSpec("lambda", 0.0, tuple(ns)), p)
    series.append(_conv_ratio_series("conv2[lam=0,c=1]", mu, pts_l0, ns, 1.0, quad))

    handle = PhiDensityHandle(spec, mu)
    sd_ns = tuple(range(2, max(ns) + 1))
    series.append(sd_probe(handle, SequenceSpec("fixed-y", 3.0, sd_ns), params=p))

    u_nn = uniformity_probe(mu, ns, lambda n: (n,), params=p)
    series.append(RatioSeries(name="uniformity[m=n]", entries=u_nn.entries))
    u_n2 = uniformity_probe(mu, ns, lambda n: (2,), params=p)
    series.append(RatioSeries(name="uniformity[m=2]", entries=u_n2.entries))

    verdicts = {s.name: classify_limit(s) for s in series}
    return Report(name="thm11", params=p, series=tuple(series), verdicts=verdicts,
                  notes=_std_notes(spec) + (
                      "uniformity witness: r(n,n) tracks n/(2n) = 1/2, r(n,2) tracks "
                      "n/(n+2); shrinking windows at dip anchors converge at rate "
                      "1/(scale exponent), which no single density can absorb uniformly",))


def thm12_report(spec: GallerySpec) -> Report:
    """Divergence along the sparse interval family and the smoothed pair."""
    p = spec.params
    quad = spec.quad
    mu = build_mu(spec)
    mu1 = build_mu1(spec)
    fam = interval_family(spec)
    kernel = default_kernel()
    prof = spec.profile

    mid = 0.5 * (p.x1 + p.x2)
    lead_coeff = (p.x0 / (p.x0 + mid)) ** (p.alpha + 1.0) \
        * prof.value(ScaledSum.from_float(p.x0 + mid, p.b)) * p.log_b

    def r_k(k, anchor):
        num = conv_local_mass(mu, mu1, anchor, 1.0, quad)
        den = mu.log_window_mass(anchor, 1.0)
        num_shift = conv_local_mass(mu, mu1, anchor.add_offset(1.0), 1.0, quad)
        den_shift = mu.log_window_mass(anchor.add_offset(1.0), 1.0)
        n_k = fam.n_k[k - 1]
        lead = 1.0 + 2.0 ** -k * lead_coeff * n_k
        return {"n": k, "m": n_k, "c": 1.0,
                "ratio": math.exp(num - den),
                "ratio_shifted": math.exp(num_shift - den_shift),
                "leading_order": lead,
                "log_num": num, "log_den": den,
                "log_ratio": num - den}

    rk_rows = [r_k(k, anchor) for k, anchor in enumerate(fam.d_anchor, start=1)]

    # smoothed pair: the kernel-smoothed unit window on D_k.  With f the
    # kernel and f2 = f * f, int f(u) M((x-u, x-u+1]) du = int G1(t) M(x + dt)
    # and int f2(v) M((x-v, x-v+1]) dv = int G2(t) M(x + dt), one weighted
    # mass each
    g1 = Weight.window(1.0).smoothed(kernel)
    g2 = g1.smoothed(kernel)
    atom_comp: AtomSeries = mu1.components[0][1]

    def pair_rows(k, anchor):
        # (q * rho) * (q * rho) is rho * rho under G2, expanded here by hand
        # so that p1's and p2's rows share one mu * mu
        den = mu.log_window_mass(anchor, g1)
        b = conv_local_mass(mu, mu1, anchor, g2, quad)
        c_lo, c_hi = bracket_pair(conv_local_mass(mu, mu, anchor, g2, quad))
        b1 = mu.log_window_mass(anchor, g2)

        half_den = math.log(0.5) + den
        fail_lo = log_sum([math.log(0.5) + b, math.log(0.25) + c_lo]) - half_den
        fail_hi = log_sum([math.log(0.5) + b, math.log(0.25) + c_hi]) - half_den
        sd1_lo = log_sum([math.log(0.5) + b1, math.log(0.25) + c_lo]) \
            - math.log(2.0) - half_den
        sd1_hi = log_sum([math.log(0.5) + b1, math.log(0.25) + c_hi]) \
            - math.log(2.0) - half_den
        return {"n": k, "m": fam.n_k[k - 1], "c": 1.0,
                "p2_fail_lo": math.exp(fail_lo), "p2_fail_hi": math.exp(fail_hi),
                "p1_sd_lo": math.exp(sd1_lo), "p1_sd_hi": math.exp(sd1_hi),
                "_flag": "bracketed" if c_hi > c_lo + 1e-15 else ""}

    pair_table = [pair_rows(k, anchor) for k, anchor in enumerate(fam.d_anchor, start=1)]

    return Report(
        name="thm12", params=p, series=(),
        tables={"mixed_mass_ratio": rk_rows, "smoothed_pair": pair_table},
        verdicts={},
        notes=_std_notes(spec) + (
            f"atom series truncated at {len(atom_comp.weights)} atoms; residual weight "
            "assigned to the last atom so the total stays 1",
            "smoothed-pair ratios integrate the kernel-smoothed unit window at each anchor "
            "as one weighted mass; the full lim-inf bound over the kernel support is not "
            "re-derived here",
            "leading_order column: 1 + 2^-k (x0/(x0+(x1+x2)/2))^(alpha+1) "
            "h(log(x0+(x1+x2)/2)) n_k log b",))


def lem32_report(spec: GallerySpec) -> Report:
    """Pointwise self-convolution ratios across the three mantissa regimes."""
    p = spec.params
    mu = build_mu(spec)
    handle = PhiDensityHandle(spec, mu)
    prof = spec.profile
    ns = [int(n) for n in spec.n_range]

    regimes = (
        ("fixed-y", SequenceSpec("fixed-y", 3.0, tuple(range(2, max(ns) + 1)))),
        ("gamma-finite", SequenceSpec("gamma", 1.0, tuple(ns))),
        ("gamma-inf", SequenceSpec("gamma", math.inf, tuple(n + 1 for n in ns))),
    )
    series = []
    tables = {}
    for label, seq in regimes:
        pts = make_sequence(seq, p)
        s = sd_probe(handle, seq, params=p)
        series.append(RatioSeries(name=f"sd[{label}]", entries=s.entries, meta=s.meta))
        rows = []
        for n, x in zip(seq.m_range, pts):
            info = x.phase()
            if label == "fixed-y":
                pred = prof.value(ScaledSum.from_float(3.0, p.b))
            elif label == "gamma-finite":
                pred = 1.0 / (info.scale * p.log_b)
            else:
                lam = point_lambda(x, p)
                pred = -1.0 / (math.log(lam) - info.scale * p.log_b)
            measured = math.exp(mu.log_window_mass(x, 1.0)
                                + (p.alpha + 1.0) * x.log_abs()
                                + handle.component.m_log)
            rows.append({"n": int(n), "c": 1.0, "predicted_factor": pred,
                         "measured_factor": measured,
                         "ratio": measured / pred})
        tables[f"denominator[{label}]"] = rows

    verdicts = {s.name: classify_limit(s) for s in series}
    return Report(name="lem32", params=p, series=tuple(series), tables=tables,
                  verdicts=verdicts,
                  notes=_std_notes(spec) + (
                      "predicted denominator factors per regime: plateau-level h at the "
                      "fixed mantissa; 1/(m log b) when the scaled dip distance stays "
                      "bounded relative to (log x)^beta; -1/log|y-x0| when it diverges",))


def prop11_report(spec: GallerySpec) -> Report:
    """Window-density bridge checks: dual ratios, smoothing, sandwich."""
    p = spec.params
    quad = spec.quad
    mu = build_mu(spec)
    ns = [int(n) for n in spec.n_range]
    pts = make_sequence(SequenceSpec("fixed-y", 3.0, tuple(ns)), p)

    series = [_conv_ratio_series("window_conv2[c=1]", mu, pts, ns, 1.0, quad)]

    bridge = BridgeDensityHandle(spec, mu)
    bridge_ns = tuple(n for n in ns if n % 2 == 0) or tuple(ns[-1:])
    series.append(RatioSeries(
        name="bridge_sd",
        entries=sd_probe(bridge, SequenceSpec("fixed-y", 3.0, bridge_ns), params=p).entries))

    kernel2 = PiecewiseLinearDensity.triangle(0.0, 2.0)
    ker = KernelAC(kernel=kernel2, base=mu)
    entries = []
    for n, x in zip(ns, pts):
        entries.append(_entry(x, ker.log_density(x),
                              mu.log_window_mass(x.add_offset(-1.0), 1.0), n=n))
    series.append(RatioSeries(name="smoothing", entries=tuple(entries)))

    sandwich = sandwich_probe(mu, 0.25, 1.0, 1.0,
                              SequenceSpec("fixed-y", 3.0, tuple(ns)), params=p)
    sandwich_rows = [{"n": e.n, "c": 0.25, "j1": e.j1, "mid": e.mid, "j2": e.j2,
                      "_flag": "" if e.ordered else "order-violation"}
                     for e in sandwich]

    verdicts = {s.name: classify_limit(s) for s in series}
    return Report(name="prop11", params=p, series=tuple(series),
                  tables={"sandwich[c=0.25,c1=1,a=1]": sandwich_rows},
                  verdicts=verdicts, notes=_std_notes(spec))


def tilt_report(spec: GallerySpec) -> Report:
    """Exponential-tilt identities at gamma = 1: window asymptotic, round
    trip, convolution."""
    p = spec.params
    gamma = 1.0
    rho = tilt(MixtureDistribution.single(ParetoAC(1.0)), -gamma)
    series = [tilt_identity_probe(rho, gamma, (0.1, 1.0),
                                  tuple(range(20, 61, 10)))]

    mix = MixtureDistribution(components=((0.5, UniformAC(0.0, 1.0)),
                                          (0.5, PointMass(1.5))))
    round_trip = tilt(tilt(mix, gamma), -gamma)
    rt_err = max(abs(mix.log_window_mass(ScaledSum.from_float(x, p.b), 0.5)
                     - round_trip.log_window_mass(ScaledSum.from_float(x, p.b), 0.5))
                 for x in (0.2, 0.9, 1.4))

    uni = MixtureDistribution.single(UniformAC(0.0, 1.0))
    atoms = MixtureDistribution(components=((0.5, PointMass(0.0)),
                                            (0.5, PointMass(1.5))))
    conv_plain = MixtureDistribution(components=((0.5, UniformAC(0.0, 1.0)),
                                                 (0.5, UniformAC(1.5, 1.0))))
    lhs = tilt(conv_plain, gamma)
    rhs_u = tilt(uni, gamma)
    rhs_a = tilt(atoms, gamma)
    commute_err = 0.0
    for x in (0.25, 0.75, 1.75, 2.25):
        a = lhs.log_window_mass(ScaledSum.from_float(x, p.b), 0.2)
        b = conv_local_mass(rhs_u, rhs_a, ScaledSum.from_float(x, p.b), 0.2, spec.quad)
        if a == LOG_ZERO and b == LOG_ZERO:
            continue
        commute_err = max(commute_err, abs(a - b))

    diag = [{"n": None, "c": None, "round_trip_max_log_err": rt_err,
             "commute_max_log_err": commute_err}]
    verdicts = {"tilt_identity": classify_limit(series[0])}
    return Report(name="tilt", params=p, series=tuple(series),
                  tables={"tilt_diagnostics": diag}, verdicts=verdicts,
                  notes=_std_notes(spec) + (
                      f"identity example: tilt by -{gamma:g} of the unit-shape shifted "
                      "power law, probed at the listed windows and points",))


REPORTS = {
    "thm11": thm11_report,
    "thm12": thm12_report,
    "lem32": lem32_report,
    "prop11": prop11_report,
    "tilt": tilt_report,
}
