"""Ratio-sequence probes with trend classification.

The asymptotic class memberships under study are limit statements, so they
are not decidable numerically; these probes corroborate them by evaluating
the defining ratios along structured point families and classifying the
trend.  Raw series are always returned in full; verdict thresholds are
reporting conventions, never part of the mathematics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError, ProbePreconditionError
from .logsum import LOG_ZERO, log_sum
from .quadrature import QuadratureSpec
from .scaledcore import ModelParams, ScaledSum, SequenceSpec, as_point, make_sequence
from .measures import MixtureDistribution, Weight
from .convolve import LogBracket, _outer_integral, _self_pair_density

__all__ = [
    "ProbeEntry", "RatioSeries", "Verdict", "SequenceSpec",
    "long_tail_probe", "sd_probe", "truncated_tail_density",
    "truncated_tail_local", "uniformity_probe", "scaling_probe",
    "sandwich_probe", "tilt_identity_probe", "classify_limit",
]

# Linear forms of log values are clipped at 1e+-300; the log form is authoritative.
CLIP = 1e300
# The residual and intercept tolerance of a converging trend, in log ratio.
_TREND_TOL = 0.05


def _clip_exp(v: float) -> float:
    if v == LOG_ZERO:
        return 0.0
    return math.exp(min(max(v, -math.log(CLIP)), math.log(CLIP)))


@dataclass(frozen=True)
class ProbeEntry:
    """One probe evaluation: numerator/denominator in log scale.

    When the numerator carries a far-tail bracket, ``num_bracket`` holds its
    (lo, hi) log pair and ``log_num`` its midpoint.
    """

    x_label: str
    log_num: float
    log_den: float
    n: int | None = None
    m: int | None = None
    c: float | None = None
    a: float | None = None
    num_bracket: tuple | None = None
    flagged: bool = False
    x_log: float = 0.0

    @property
    def log_ratio(self) -> float:
        return self.log_num - self.log_den

    @property
    def ratio(self) -> float:
        return _clip_exp(self.log_ratio)

    def ratio_bounds(self) -> tuple:
        if self.num_bracket is None:
            r = self.ratio
            return r, r
        lo, hi = self.num_bracket
        return _clip_exp(lo - self.log_den), _clip_exp(hi - self.log_den)


@dataclass(frozen=True)
class RatioSeries:
    """Ordered probe entries plus bookkeeping for reports."""

    name: str
    entries: tuple
    meta: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Verdict:
    classification: str  # 'converges-to' | 'diverges' | 'inconclusive'
    limit: float | None
    residual: float


def _entry(x: ScaledSum, log_num, log_den, **kw) -> ProbeEntry:
    bracket = None
    if isinstance(log_num, LogBracket):
        bracket = (log_num.lo, log_num.hi)
        log_num = log_num.mid
    return ProbeEntry(x_label=x.describe(), log_num=log_num, log_den=log_den,
                      num_bracket=bracket, x_log=x.log_abs(), **kw)


def _points(seq, params: ModelParams) -> list:
    if isinstance(seq, SequenceSpec):
        return make_sequence(seq, params)
    return [as_point(x, params.b) for x in seq]


def _seq_ns(seq, pts) -> list:
    if isinstance(seq, SequenceSpec):
        return [int(n) for n in seq.m_range]
    return list(range(1, len(pts) + 1))


# ---------------------------------------------------------------------------
# probes
# ---------------------------------------------------------------------------

def long_tail_probe(target, a: float, seq, params: ModelParams,
                    c: float = 1.0) -> RatioSeries:
    """Shift-invariance ratios g(x+a)/g(x).

    ``target`` is either a mixture (local mode: window masses of width ``c``)
    or a density handle with ``log_value`` (density mode).  Entries with a
    vanishing denominator are flagged rather than fatal.
    """
    if not (-5.0 <= a <= 5.0):
        raise ParameterError(f"shift must lie in [-5, 5], got {a}")
    pts = _points(seq, params)
    ns = _seq_ns(seq, pts)
    entries = []
    local_mode = isinstance(target, MixtureDistribution)
    for n, x in zip(ns, pts):
        if local_mode:
            num = target.log_window_mass(x.add_offset(a), c)
            den = target.log_window_mass(x, c)
        else:
            num = target.log_value(x.add_offset(a))
            den = target.log_value(x)
        entries.append(_entry(x, num, den, n=n, a=a, c=(c if local_mode else None),
                              flagged=(den == LOG_ZERO)))
    return RatioSeries(name=f"long_tail[a={a:g}]", entries=tuple(entries),
                       meta={"a": a, "c": c if local_mode else None,
                             "mode": "local" if local_mode else "density"})


def sd_probe(handle, seq, params: ModelParams) -> RatioSeries:
    """Self-convolution ratios g(x)g(x)/(2 d(x)).

    ``handle`` provides ``log_self_conv(x)`` and ``log_sd_denominator(x)``.
    For window-level handles the denominator is the unit-window average of
    the density rather than a point value; the two agree in the limit for
    long-tailed objects and the window form stays finite at dip anchors,
    where the pointwise density vanishes.
    """
    pts = _points(seq, params)
    ns = _seq_ns(seq, pts)
    entries = []
    for n, x in zip(ns, pts):
        num = handle.log_self_conv(x)
        den = math.log(2.0) + handle.log_sd_denominator(x)
        entries.append(_entry(x, num, den, n=n, flagged=(den == LOG_ZERO)))
    return RatioSeries(name="sd", entries=tuple(entries),
                       meta={"denominator": getattr(handle, "denominator_form", "point")})


def is_long_tailed_at(handle, x: ScaledSum) -> bool:
    """Cheap applicability check: g(x+1)/g(x) within a factor of 2."""
    num = handle.log_value(x.add_offset(1.0))
    den = handle.log_value(x)
    if den == LOG_ZERO or num == LOG_ZERO:
        return False
    return abs(num - den) <= math.log(2.0)


def truncated_tail_density(handle, A: float, x: ScaledSum, quad: QuadratureSpec):
    """The truncated self-convolution functional
    (1/g(x)) * int_A^{x-A} g(x-u) g(u) du  (linear scale), with g the
    density of ``handle.component``: twice the integral over [A, x/2] by
    the symmetry u <-> x-u, as for the self pair's density at x.

    Membership in the self-convolution class requires this to vanish as
    first x then A grow.  Returns (value, flagged): flagged means the
    applicability precondition (long-tailedness at x) failed and the number
    is not meaningful as a class criterion.
    """
    if A < 1.0:
        raise ParameterError("truncation point A must be >= 1")
    x = as_point(x, handle.params.b)
    xv = x.value()
    if not math.isfinite(xv):
        raise ParameterError("truncated functionals need float-representable points")
    flagged = not is_long_tailed_at(handle, x)
    den = handle.log_value(x)
    if den == LOG_ZERO:
        return math.inf, True
    if xv - A <= A:
        return 0.0, flagged
    val = _self_pair_density(handle.component, x, A, quad)
    return _clip_exp(val - den), flagged


def truncated_tail_local(dist: MixtureDistribution, A: float, x: ScaledSum,
                         c: float, quad: QuadratureSpec) -> float:
    """The window version: int over u in (A, x-A) of rho((x-u, x+c-u]) rho(du),
    normalized by rho((x, x+c])."""
    if A < 1.0:
        raise ParameterError("truncation point A must be >= 1")
    x = as_point(x, dist.base)
    xv = x.value()
    if not math.isfinite(xv):
        raise ParameterError("truncated functionals need float-representable points")
    den = dist.log_window_mass(x, c)
    if den == LOG_ZERO:
        return math.inf
    if xv - A <= A:
        return 0.0
    terms = []
    for w, comp in dist.components:
        if w == 0.0:
            continue
        lw = math.log(w)
        if comp.is_atomic:
            for loc, aw in comp.atoms():
                if aw <= 0.0:
                    continue
                lv = loc.value() if isinstance(loc, ScaledSum) else loc
                if A < lv < xv - A:
                    pt = x.sub(loc) if isinstance(loc, ScaledSum) else x.add_offset(-lv)
                    m = dist.log_window_mass(pt, c)
                    if m != LOG_ZERO:
                        terms.append(lw + math.log(aw) + m)
        else:
            win = Weight.window(c)
            mass = dist.log_window_mass_eval(x, A - xv, -A, win)
            terms.append(lw + _outer_integral(comp, dist, x, xv, A, xv - A, quad, mass, win.knots))
    total = log_sum(terms) if terms else LOG_ZERO
    return _clip_exp(total - den)


def uniformity_probe(dist: MixtureDistribution, n_list, m_list,
                     params: ModelParams) -> RatioSeries:
    """Window-density ratios at dip anchors across shrinking window widths.

    r(n, m) = [c^-1 mass((x, x+c]) with c = b^-m] / [mass((x, x+1])] at
    x = b^n x0.  Uniform local convergence would force r -> 1 for every
    joint growth of (n, m); along m == n the construction pins r near 1/2.
    """
    entries = []
    for n in n_list:
        x = ScaledSum.scaled(int(n), params.x0, b=params.b)
        den = dist.log_window_mass(x, 1.0)
        for m in m_list(n) if callable(m_list) else m_list:
            c = params.b ** (-int(m))
            num = dist.log_window_mass(x, c) - math.log(c)
            entries.append(_entry(x, num, den, n=int(n), m=int(m), c=c))
    return RatioSeries(name="uniformity", entries=tuple(entries))


def scaling_probe(dist: MixtureDistribution, c_list, seq,
                  params: ModelParams) -> RatioSeries:
    """Window rescaling ratios mass((x-c, x]) / (c * mass((x-1, x]))."""
    pts = _points(seq, params)
    ns = _seq_ns(seq, pts)
    entries = []
    for c in c_list:
        if not (c > 0.0):
            raise ParameterError("window widths must be positive")
        for n, x in zip(ns, pts):
            num = dist.log_window_mass(x.add_offset(-c), c)
            den = math.log(c) + dist.log_window_mass(x.add_offset(-1.0), 1.0)
            entries.append(_entry(x, num, den, n=n, c=c))
    return RatioSeries(name="scaling", entries=tuple(entries))


@dataclass(frozen=True)
class SandwichEntry:
    n: int
    x_label: str
    j1: float
    mid: float
    j2: float

    @property
    def ordered(self) -> bool:
        return self.j1 <= self.mid * (1 + 1e-9) and self.mid <= self.j2 * (1 + 1e-9)


def sandwich_probe(dist: MixtureDistribution, c: float, c1: float, a: float,
                   seq, params: ModelParams) -> list:
    """Two-sided bounds for shift ratios after uniform smoothing.

    With U uniform on [0, c] independent of X ~ dist:
      J1 = P(x+a < X+U <= x+c1+a) / P(x < X+U <= x+c1+c),
      J2 = P(x+a < X+U <= x+c1+c+a) / P(x < X+U <= x+c1),
    which sandwich the raw shift ratio P(x+a < X <= x+c1+a)/P(x < X <= x+c1)
    pointwise; their limits are c1/(c1+c) and (c1+c)/c1.
    """
    if not (c > 0.0 and c1 > 0.0):
        raise ParameterError("c and c1 must be positive")
    pts = _points(seq, params)
    ns = _seq_ns(seq, pts)

    def smoothed(x: ScaledSum, width: float) -> float:
        # P(x < X + U <= x + width): the window averaged over U, a trapezoid
        return dist.log_window_mass(x, Weight.window(width).averaged(0.0, c))

    out = []
    for n, x in zip(ns, pts):
        j1 = math.exp(smoothed(x.add_offset(a), c1) - smoothed(x, c1 + c))
        j2 = math.exp(smoothed(x.add_offset(a), c1 + c) - smoothed(x, c1))
        mid = math.exp(dist.log_window_mass(x.add_offset(a), c1)
                       - dist.log_window_mass(x, c1))
        out.append(SandwichEntry(n=n, x_label=x.describe(), j1=j1, mid=mid, j2=j2))
    return out


def tilt_identity_probe(rho: MixtureDistribution, gamma: float, c_list, x_grid,
                        quad=None) -> RatioSeries:
    """Ratio of tilted window masses to the closed-form tail asymptotic.

    For rho with finite gamma-exponential moment, the tilt's local masses
    should satisfy  rho_tilt((x, x+c]) ~ (c gamma / Z) e^{gamma x} tail(x)
    with Z the moment.  Entries are the LHS/RHS ratios per (x, c).  The
    trailing spec is unread: no single-level query integrates adaptively.
    """
    if gamma <= 0.0:
        raise ParameterError("tilt identity probe needs gamma > 0")
    log_z = rho.log_exp_moment(gamma)  # raises when divergent
    entries = []
    for c in c_list:
        if not (c > 0.0):
            raise ParameterError("window widths must be positive")
        for xv in x_grid:
            x = ScaledSum.from_float(float(xv), rho.base)
            log_tail = rho.log_tail(x)
            if log_tail == LOG_ZERO:
                raise ProbePreconditionError(
                    f"tail vanishes at x={xv}; the identity's right side is zero there")
            num = rho.log_window_mass(x, c, gamma=gamma) - log_z
            den = math.log(c) + math.log(gamma) - log_z + gamma * float(xv) + log_tail
            entries.append(_entry(x, num, den, c=c, n=int(round(float(xv)))))
    return RatioSeries(name="tilt_identity", entries=tuple(entries),
                       meta={"gamma": gamma})


# ---------------------------------------------------------------------------
# trend classification
# ---------------------------------------------------------------------------

def classify_limit(series: RatioSeries) -> Verdict:
    """Deterministic trend verdict for a ratio series.

    Divergence: the last three ratios each grow by a factor >= 1.3.
    Convergence: least-squares fit of log-ratio against [1, 1/n, 1/log x]
    over the last half of the entries has RMS residual <= 0.05 and an
    extrapolated intercept within 0.05 + spread of the last value.  All raw
    entries remain available, so these thresholds hide nothing.
    """
    entries = [e for e in series.entries if not e.flagged]
    rs = [e.ratio for e in entries]
    if len(rs) < 2:
        return Verdict("inconclusive", None, math.inf)
    if len(rs) >= 3 and all(r > 0 for r in rs[-3:]):
        if rs[-2] >= 1.3 * rs[-3] and rs[-1] >= 1.3 * rs[-2]:
            return Verdict("diverges", None, math.inf)
    if any(r <= 0 for r in rs):
        return Verdict("inconclusive", None, math.inf)

    half = entries[len(entries) // 2:]
    if len(half) < 3:
        half = entries[-3:] if len(entries) >= 3 else entries
    logs = np.array([math.log(e.ratio) for e in half])
    ns = np.array([float(e.n if e.n else i + 1) for i, e in enumerate(half)])
    xls = np.array([max(e.x_log, 1.0) for e in half])
    design = np.column_stack([np.ones_like(ns), 1.0 / ns, 1.0 / xls])
    coef, *_ = np.linalg.lstsq(design, logs, rcond=None)
    resid = logs - design @ coef
    rms = float(np.sqrt(np.mean(resid ** 2)))
    limit = float(math.exp(coef[0]))
    spread = float(np.max(logs) - np.min(logs))
    if rms <= _TREND_TOL and abs(coef[0] - logs[-1]) <= _TREND_TOL + spread:
        return Verdict("converges-to", limit, rms)
    return Verdict("inconclusive", limit, rms)
