"""Construction constants, the log-periodic dip profile, and scale-split points.

The whole laboratory is built around one density shape::

    phi(x) = x^(-alpha-1) * h(log x) * 1[x >= 1]

where ``h`` is continuous, periodic with period ``log b``, positive away from
the mantissa point ``x0``, and collapses there like ``-1/log|x - x0|`` within
a ring of radius ``delta`` (the "dip").  Everything interesting happens at
probe points of the form ``x = b^m * y`` with ``m`` up to several hundred,
where the value of ``h`` depends on the distance of the mantissa ``y`` from
``x0`` at resolutions far below one float64 ulp of ``x``.

``ScaledSum`` therefore represents a point as a short signed sum of scaled
mantissas plus a small offset,

    x = sum_i  s_i * b^(m_i) * y_i  +  offset,

with the leading term strictly dominant.  The dip distance of the phase is
then ``|rest| * b^(-m_1)`` whenever ``y_1 == x0`` exactly, which is computable
in log space without any cancellation.  One kernel reads it for every point,
:func:`dip_distance_eval`, and the profile, ``log phi`` and the window
masses' far rings all take ``h`` from its log.  Dominance threshold: a
lesser term within 2^-20 of the head is folded into the head mantissa
(float64 still has >30 bits of headroom to represent the perturbed phase).
Dust threshold: terms below 2^-70 of the *leading remainder* are dropped;
such dust cannot move any reported ratio at the 1e-12 level.  The leading
remainder itself is never dropped, no matter how small relative to the
head: when the head mantissa sits exactly on the dip center it carries the
entire phase signal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

from .errors import ContractViolationError, ParameterError

DOMINANCE = 2.0 ** -20
DUST = 2.0 ** -70

_LOG_ZERO = float("-inf")
_LOG_DOMINANCE = math.log(DOMINANCE)
_LOG_DUST = math.log(DUST)
_LOG_2_50 = 50.0 * math.log(2.0)


# ---------------------------------------------------------------------------
# model constants
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ModelParams:
    """Constants of the construction, with their ordering invariants.

    Defaults: ``b=4, x0=2, delta=0.25, alpha=1, beta=2, x1=0.5, x2=1.5``.
    They satisfy every constraint below and keep the shifted-interval
    mantissa ``x0 + x1`` outside the dip ring.
    """

    b: float = 4.0
    x0: float = 2.0
    delta: float = 0.25
    alpha: float = 1.0
    beta: float = 2.0
    x1: float = 0.5
    x2: float = 1.5

    def __post_init__(self):
        p = self
        if not (1.0 < p.x0 < p.b):
            raise ParameterError(f"need 1 < x0 < b, got x0={p.x0}, b={p.b}")
        if not (0.0 < p.delta < 1.0):
            raise ParameterError(f"need delta in (0,1), got {p.delta}")
        if not (p.delta < min(p.x0 - 1.0, p.b - p.x0)):
            raise ParameterError("delta must keep the dip ring inside the period cell")
        if not (p.alpha > 0.0):
            raise ParameterError(f"need alpha > 0, got {p.alpha}")
        if not (p.alpha * p.beta > 1.0):
            raise ParameterError(f"need alpha*beta > 1, got {p.alpha * p.beta}")
        if not (0.0 < p.x1 < p.x2):
            raise ParameterError(f"need 0 < x1 < x2, got x1={p.x1}, x2={p.x2}")
        if not (p.x0 + p.x2 < p.b):
            raise ParameterError("need x0 + x2 < b")
        if not (p.x1 > p.delta):
            raise ParameterError("need x1 > delta so shifted intervals clear the dip")

    @property
    def log_b(self) -> float:
        return math.log(self.b)


# ---------------------------------------------------------------------------
# scale-split points
# ---------------------------------------------------------------------------

def _range_fix(m: int, y: float, b: float):
    # mantissa into [1, b); exact when b is a power of two
    while y >= b:
        y /= b
        m += 1
    while y < 1.0:
        y *= b
        m -= 1
    return m, y


class PhaseInfo(NamedTuple):
    """Head scale/mantissa of a positive point plus its remainder.

    ``rem`` is the remainder in absolute units (``x - b^scale * mantissa``)
    as a float when representable, else None with (sign, log) fallback.
    """

    scale: int
    mantissa: float
    rem: float | None
    rem_sign: int
    rem_log: float


@dataclass(frozen=True)
class ScaledSum:
    """Immutable scale-split representation of a real number.

    Construct via :meth:`from_float`, :meth:`scaled`, or arithmetic on
    existing values, :meth:`add_offset` included: each returns the canonical
    form, which :meth:`normalize` alone defines, and hand-built instances
    take it from there too.
    """

    b: float
    terms: tuple  # tuple of (sign: ±1, m: int, y: float in [1, b))
    offset: float = 0.0

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, b: float = 4.0) -> "ScaledSum":
        return cls(b=b, terms=(), offset=0.0)

    @classmethod
    def from_float(cls, x: float, b: float = 4.0) -> "ScaledSum":
        if not math.isfinite(x):
            raise ParameterError(f"cannot represent non-finite value {x}")
        if x == 0.0:
            return cls.zero(b)
        s = 1 if x > 0 else -1
        ax = abs(x)
        m = int(math.floor(math.log(ax) / math.log(b)))
        # b^m as two factors: at the ends of the float range it is beyond it
        m, y = _range_fix(m, ax / b ** (m // 2) / b ** (m - m // 2), b)
        return cls(b=b, terms=((s, m, y),), offset=0.0)

    @classmethod
    def scaled(cls, m: int, y: float, b: float = 4.0, offset: float = 0.0, sign: int = 1) -> "ScaledSum":
        """b^m * y (+ offset), canonicalized."""
        if y <= 0.0 or not math.isfinite(y):
            raise ParameterError(f"mantissa must be positive finite, got {y}")
        return cls(b=b, terms=((1 if sign >= 0 else -1, int(m), float(y)),), offset=float(offset)).normalize()

    # -- canonical form -----------------------------------------------------

    def normalize(self) -> "ScaledSum":
        """The canonical form: terms merged per scale and sorted, lesser terms
        and an offset at 2^-20 of the head or above folded into it, dust
        dropped.  One term with a mantissa in ``[1, b)`` skips the merge, and
        a head within 2^50 takes a larger offset through :meth:`from_float`.
        A non-finite offset or mantissa raises :class:`ParameterError`."""
        b = self.b
        offset = self.offset
        if not math.isfinite(offset):
            raise ParameterError(f"cannot represent non-finite offset {offset}")
        if len(self.terms) == 1 and 1.0 <= self.terms[0][2] < b:
            if offset == 0.0:
                return self
            s1, m1, y1 = self.terms[0]
            head_mag = m1 * math.log(b) + math.log(y1)
            if math.log(abs(offset)) - head_mag < _LOG_DOMINANCE:
                return self
            if head_mag <= _LOG_2_50:
                return ScaledSum.from_float(s1 * y1 * b ** m1 + offset, b)

        lnb = math.log(b)

        def mag(m, y):
            return m * lnb + math.log(y)

        # signed mantissas per scale
        acc: dict[int, float] = {}
        for s, m, y in self.terms:
            if not math.isfinite(y):
                raise ParameterError(f"cannot represent non-finite mantissa {y}")
            if y == 0.0:
                continue
            sy = s * y
            m2, y2 = _range_fix(m, abs(sy), b)
            acc[m2] = acc.get(m2, 0.0) + math.copysign(y2, sy)

        changed = True
        while changed:
            changed = False
            for m in list(acc):
                v = acc[m]
                if v == 0.0:
                    del acc[m]
                    changed = True
                    continue
                if abs(v) >= b or abs(v) < 1.0:
                    del acc[m]
                    m2, y2 = _range_fix(m, abs(v), b)
                    prev = acc.get(m2, 0.0)
                    acc[m2] = prev + math.copysign(y2, v)
                    changed = True

        terms = sorted(((1 if v > 0 else -1, m, abs(v)) for m, v in acc.items()),
                       key=lambda t: (t[1], t[2]), reverse=True)

        while True:
            # fold lesser terms within the dominance threshold into the head
            while len(terms) >= 2:
                s1, m1, y1 = terms[0]
                s2, m2, y2 = terms[1]
                if mag(m2, y2) - mag(m1, y1) < _LOG_DOMINANCE:
                    break
                combined = s1 * y1 + s2 * y2 * b ** (m2 - m1)
                rest = terms[2:]
                if combined == 0.0:
                    terms = rest
                    continue
                m3, y3 = _range_fix(m1, abs(combined), b)
                terms = sorted(rest + [(1 if combined > 0 else -1, m3, y3)],
                               key=lambda t: (t[1], t[2]), reverse=True)

            # fold a large offset into the terms, then the terms it now
            # dominates into its head
            if not terms or offset == 0.0:
                break
            s1, m1, y1 = terms[0]
            head_mag = mag(m1, y1)
            if math.log(abs(offset)) - head_mag < _LOG_DOMINANCE:
                break
            if head_mag <= _LOG_2_50:
                total = math.fsum([s * y * b ** m for s, m, y in terms]) + offset
                return ScaledSum.from_float(total, b)
            combined = s1 * y1 + offset * b ** (-m1)
            terms, offset = terms[1:], 0.0
            if combined != 0.0:  # an offset of exactly -head leaves the rest
                m3, y3 = _range_fix(m1, abs(combined), b)
                terms = sorted(terms + [(1 if combined > 0 else -1, m3, y3)],
                               key=lambda t: (t[1], t[2]), reverse=True)

        # drop dust relative to the leading remainder (never the remainder head)
        if len(terms) >= 2:
            rem_head = mag(terms[1][1], terms[1][2])
            if offset != 0.0:
                rem_head = max(rem_head, math.log(abs(offset)))
            kept = list(terms[:2])
            for s, m, y in terms[2:]:
                if mag(m, y) - rem_head >= _LOG_DUST:
                    kept.append((s, m, y))
            terms = kept

        return ScaledSum(b=b, terms=tuple(terms), offset=offset)

    def is_canonical(self) -> bool:
        try:
            other = self.normalize()
        except (OverflowError, ValueError):
            return False
        return other.terms == self.terms and other.offset == self.offset

    # -- queries ------------------------------------------------------------

    def value(self) -> float:
        """Plain float value; overflows to inf beyond float64 range."""
        total = self.offset
        for s, m, y in self.terms:
            try:
                total += s * y * self.b ** m
            except OverflowError:
                return math.copysign(math.inf, s)
        return total

    def sign(self) -> int:
        if self.terms:
            return self.terms[0][0]
        if self.offset > 0:
            return 1
        if self.offset < 0:
            return -1
        return 0

    def log_abs(self) -> float:
        """log |x|; -inf for zero."""
        if not self.terms:
            return _LOG_ZERO if self.offset == 0.0 else math.log(abs(self.offset))
        lnb = math.log(self.b)
        s1, m1, y1 = self.terms[0]
        head = m1 * lnb + math.log(y1)
        rel = 0.0
        for s, m, y in self.terms[1:]:
            rel += (s * s1) * math.exp((m - m1) * lnb + math.log(y / y1))
        if self.offset != 0.0:
            e = math.log(abs(self.offset)) - head
            if e > -745.0:
                rel += math.copysign(math.exp(e), self.offset * s1)
        return head + math.log1p(rel)

    def phase(self) -> PhaseInfo:
        """Head scale/mantissa plus remainder; requires a positive value."""
        if not self.terms:
            x = self.offset
            if x <= 0.0:
                raise ParameterError("phase undefined for non-positive values")
            _s, m, y = ScaledSum.from_float(x, self.b).terms[0]
            return PhaseInfo(m, y, 0.0, 0, _LOG_ZERO)
        s1, m1, y1 = self.terms[0]
        if s1 < 0:
            raise ParameterError("phase undefined for negative values")
        rem = self.offset
        overflow = False
        for s, m, y in self.terms[1:]:
            try:
                rem += s * y * self.b ** m
            except OverflowError:
                overflow = True
                break
        if overflow or not math.isfinite(rem):
            rest = ScaledSum(b=self.b, terms=self.terms[1:], offset=self.offset)
            return PhaseInfo(m1, y1, None, rest.sign(), rest.log_abs())
        rlog = _LOG_ZERO if rem == 0.0 else math.log(abs(rem))
        rsign = 0 if rem == 0.0 else (1 if rem > 0 else -1)
        return PhaseInfo(m1, y1, rem, rsign, rlog)

    # -- arithmetic ----------------------------------------------------------

    def add_offset(self, t: float) -> "ScaledSum":
        return ScaledSum(b=self.b, terms=self.terms, offset=self.offset + t).normalize()

    def add(self, other: "ScaledSum") -> "ScaledSum":
        if other.b != self.b:
            raise ParameterError("mismatched bases")
        return ScaledSum(b=self.b, terms=self.terms + other.terms,
                         offset=self.offset + other.offset).normalize()

    def sub(self, other: "ScaledSum") -> "ScaledSum":
        neg = tuple((-s, m, y) for s, m, y in other.terms)
        return ScaledSum(b=self.b, terms=self.terms + neg,
                         offset=self.offset - other.offset).normalize()

    def describe(self) -> str:
        """Compact human-readable form, e.g. '4^8*2+138.87'."""
        if not self.terms:
            return repr(self.offset)
        parts = []
        for s, m, y in self.terms:
            sgn = "-" if s < 0 else ("+" if parts else "")
            parts.append(f"{sgn}{self.b:g}^{m}*{y:.17g}")
        if self.offset:
            parts.append(f"{'+' if self.offset > 0 else '-'}{abs(self.offset):.17g}")
        return "".join(parts)


# ---------------------------------------------------------------------------
# the periodic dip profile
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PeriodicProfile:
    """The period-``log b`` profile ``h``.

    Inside the dip ring (mantissa distance ``d = |y - x0| < delta``) the value
    is ``-1/log d``; at the center it is 0.  Outside the ring the profile is a
    constant plateau ``-1/log delta``, which matches the ring boundary value,
    so ``h`` is continuous on the whole line and the period endpoints agree
    with zero tuning.  The plateau is also the supremum of ``h``.
    """

    params: ModelParams
    plateau: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "plateau", -1.0 / math.log(self.params.delta))

    def at_distance(self, dlog: float) -> float:
        """h at the mantissa distance ``e^dlog`` from ``x0``: 0 at the centre,
        ``-1/dlog`` in the ring, the plateau outside it."""
        if dlog == _LOG_ZERO:
            return 0.0
        return -1.0 / dlog if dlog < math.log(self.params.delta) else self.plateau

    def value(self, x) -> float:
        """h(log x) for SupportsFloat or ScaledSum x; x must be positive."""
        return self.at_distance(self._dip_log(x))

    def _dip_log(self, x) -> float:
        # the dip-distance kernel at the point x itself
        if isinstance(x, ScaledSum):
            if not x.is_canonical():
                raise ContractViolationError("the profile requires a normalized ScaledSum")
            if not x.terms:
                x = x.offset
        if not isinstance(x, ScaledSum):
            xf = float(x)
            if xf <= 0.0:
                raise ParameterError("profile phase undefined for non-positive x")
            x = ScaledSum.from_float(xf, self.params.b)
        if x.terms[0][0] < 0:
            raise ParameterError("profile phase undefined for non-positive x")
        return dip_distance_eval(PointPhase(x), self.params.x0)(0.0)[1]


def as_point(x, b: float) -> ScaledSum:
    """The canonical point for ``x``: a float via :meth:`ScaledSum.from_float`
    in base ``b``, a ``ScaledSum`` (which keeps its own base) in normalized form.

    Public entry points call this once; past it, points stay canonical
    because ``ScaledSum`` arithmetic returns canonical sums.
    """
    if isinstance(x, ScaledSum):
        return x.normalize()
    return ScaledSum.from_float(float(x), b)


def phi_log_value(profile: PeriodicProfile, x) -> float:
    """log phi(x) = -(alpha+1) log x + log h(log x); -inf for x < 1 or h = 0."""
    return phi_window_log_eval(profile, as_point(x, profile.params.b))(0.0)


class PointPhase:
    """Phase decomposition of a point, made once and shared.

    A window mass reads it for the structure points of the window, for the
    closed-form plateau pieces and to build the ``phi`` evaluator, and the
    dip-distance kernel (:func:`dip_distance_eval`) reads the profile from
    it.  ``base`` must be canonical and is taken as given: public entry
    points canonicalize their input with :func:`as_point`, and ``ScaledSum``
    arithmetic returns canonical sums.  ``value`` is its float value (+-inf
    beyond float range) and ``info`` its :class:`PhaseInfo`, or None when the
    point is not positive-headed.  ``head`` is the head term ``b^scale
    mantissa`` as a float, None when there is no head or it is beyond float
    range.
    """

    __slots__ = ("base", "value", "info", "head", "head_log")

    def __init__(self, base: ScaledSum):
        self.base = base
        self.info = info = base.phase() if base.terms and base.terms[0][0] > 0 else None
        self.head = self.head_log = None
        if info is not None:
            self.head_log = info.scale * math.log(base.b) + math.log(info.mantissa)
            if self.head_log < 709.0:
                self.head = base.b ** info.scale * info.mantissa
        # a canonical remainder is below 2^-19 of the head: past e^710 the
        # point overflows, and base.value() would find it by an exception
        self.value = math.inf if info is not None and self.head_log > 710.0 else base.value()

    def rem_units(self) -> list:
        """The remainder's terms in units of the head's ``b^M``, each exact for
        a power-of-two b: their ``math.fsum`` is the remainder rounded once."""
        base = self.base
        b, M = base.b, self.info.scale
        units = [s * y * b ** (m - M) for s, m, y in base.terms[1:]]
        units.append(base.offset * b ** -(M // 2) * b ** -(M - M // 2))
        return units

    def log_point(self, t: float) -> float:
        """log(base + t); -inf where base + t <= 0.  Within float range the
        head and remainder are added as floats, so the point is rounded once
        even where it is much smaller than base."""
        info = self.info
        if info is None:
            u = self.value + t
            return math.log(u) if u > 0.0 else _LOG_ZERO
        if info.rem is None:
            # O(1) offsets are below the remainder's resolution; the
            # remainder itself is below 2^-19 of the head
            return self.head_log + math.log1p(
                info.rem_sign * math.exp(info.rem_log - self.head_log))
        v = info.rem + t
        if self.head is not None:
            u = self.head + v
            return math.log(u) if u > 0.0 else _LOG_ZERO
        if v == 0.0:
            return self.head_log
        e = math.log(abs(v)) - self.head_log
        if e < -745.0:
            return self.head_log
        rel = math.copysign(math.exp(e), v)
        return self.head_log + math.log1p(rel) if rel > -1.0 else _LOG_ZERO


def dip_distance_eval(ph: PointPhase, x0: float):
    """The dip-distance kernel: ``t -> (log x, log|y - x0|)`` for ``x = base +
    t`` and ``y`` its mantissa in ``[1, b)``, where ``ph`` is the phase of a
    positive-headed base ``b^M y1 + R``.

    The point is carried in mantissa units as ``y1 + (R + t) b^-M``, a float
    ``ys`` and its rounding error: ``R + t`` is summed with its error, and
    ``b^-M`` taken as two factors where it is below the normal floats.  The
    distance is then ``(y - x0)`` plus the error, with ``y`` the range-fixed
    ``ys`` (``ys`` itself in the head cell), rounded about once.  At an exact
    anchor (``y1 == x0``) in the head cell its log is ``log|R + t| - M log
    b``, exact at any scale.  A remainder beyond float range absorbs O(1)
    offsets ``t``, and its distance in the head cell is the exact sum of its
    terms, rounded once.  ``log x`` is -inf where ``x <= 0``, and the
    distance's log is -inf at a centre.  The profile is one rule of that
    log (:meth:`PeriodicProfile.at_distance`).
    """
    info = ph.info
    base = ph.base
    b = base.b
    M, y1, R = info.scale, info.mantissa, info.rem
    Mlnb = M * math.log(b)
    dy = y1 - x0
    # b^-M = binv1 binv2, each a normal float where b^-M is not
    binv1, binv2 = (b ** -M, 1.0) if Mlnb < 708.0 else (b ** -(M // 2), b ** -(M - M // 2))
    if R is None:
        scaled = ph.rem_units()
        far_rel, far_d = math.fsum(scaled), math.fsum([dy, *scaled])

    def kernel(t: float):
        if R is None:
            rel, rel_lo = far_rel, 0.0
        else:
            v = R + t
            w = v - R
            rel = v * binv1 * binv2
            rel_lo = ((R - (v - w)) + (t - w)) * binv1 * binv2  # (R + t - v) b^-M
        ys = y1 + rel
        if 1.0 < ys < b:  # the head cell, its lower end aside
            xlog = Mlnb + math.log(ys)
            if dy == 0.0:  # an exact anchor, at any scale
                if R is None:
                    return xlog, info.rem_log - Mlnb
                return xlog, math.log(abs(v)) - Mlnb if v else _LOG_ZERO
            d = far_d if R is None else (dy + rel) + rel_lo
        elif ys > 0.0:
            w = ys - y1
            y_lo = ((y1 - (ys - w)) + (rel - w)) + rel_lo  # y1 + (R + t) b^-M - ys
            xlog = Mlnb + (math.log(ys) + y_lo / ys)  # below 0 for x < 1 however near
            y = _range_fix(M, ys, b)[1]
            d = (y - x0) + y_lo * (y / ys)
        else:
            return _LOG_ZERO, _LOG_ZERO
        return xlog, math.log(abs(d)) if d else _LOG_ZERO

    return kernel


def phi_window_log_eval(profile: PeriodicProfile, base: ScaledSum):
    """Specialized evaluator ``t -> log phi(base + t)``.

    This is the hot kernel behind every pointwise density and outer
    integrand: the phase decomposition of ``base`` is made once, after which
    each call costs a couple of logs.  A plain float point (no positive head)
    is read in place; any other reads the dip-distance kernel
    (:func:`dip_distance_eval`), which carries the remainder of ``base`` in
    absolute units, so the dip distance of ``base + t`` is exact for scales
    far beyond float64 ulp resolution.
    """
    p = profile.params
    ph = PointPhase(base)
    alpha1 = p.alpha + 1.0
    lnb = p.log_b
    b, x0, delta = p.b, p.x0, p.delta
    ln_delta = math.log(delta)
    log_plateau = math.log(profile.plateau)
    xv = ph.value
    kernel = None if ph.info is None else dip_distance_eval(ph, x0)

    def f(t: float) -> float:
        if kernel is None:
            x = xv + t
            if x < 1.0:
                return _LOG_ZERO
            xlog = math.log(x)
            m = int(xlog / lnb)
            y = x / b ** m
            if not 1.0 <= y < b:
                y = _range_fix(m, y, b)[1]
            d = abs(y - x0)
            if d >= delta:
                return -alpha1 * xlog + log_plateau
            dlog = math.log(d) if d else _LOG_ZERO
        else:
            xlog, dlog = kernel(t)
            if xlog < 0.0:
                return _LOG_ZERO
            if dlog >= ln_delta:
                return -alpha1 * xlog + log_plateau
        if dlog == _LOG_ZERO:
            return _LOG_ZERO
        return -alpha1 * xlog + math.log(-1.0 / dlog)

    return f


# ---------------------------------------------------------------------------
# structured probe sequences
# ---------------------------------------------------------------------------

INF = math.inf


@dataclass(frozen=True)
class SequenceSpec:
    """A family x_n = b^n * y_n along one of the construction's regimes.

    regime 'fixed-y':  y_n = target for all n (target in [1, b], != x0 for
        the plateau sections).
    regime 'lambda':   |y_n - x0| * b^n = target; target may be ``math.inf``,
        realized as the linearly growing family ``lambda_n = n``.
    regime 'gamma':    |y_n - x0| * b^n * (log x_n)^(-beta) = target, same
        convention for ``inf``.
    """

    regime: str
    target: float
    m_range: tuple
    side: int = 1

    def __post_init__(self):
        if self.regime not in ("fixed-y", "lambda", "gamma"):
            raise ParameterError(f"unknown regime {self.regime!r}")
        if self.regime != "fixed-y" and self.target < 0.0:
            raise ParameterError("lambda/gamma targets must be nonnegative")
        if self.side not in (1, -1):
            raise ParameterError("side must be +1 or -1")
        if not self.m_range:
            raise ParameterError("m_range must be nonempty")


def make_sequence(spec: SequenceSpec, params: ModelParams) -> list:
    """Generate the probe points of a SequenceSpec as ScaledSums."""
    out = []
    b, x0, beta = params.b, params.x0, params.beta
    for n in spec.m_range:
        n = int(n)
        if spec.regime == "fixed-y":
            y = spec.target
            if not (1.0 <= y <= b):
                raise ParameterError(f"fixed mantissa {y} outside [1, {b}]")
            out.append(ScaledSum.scaled(n, y, b=b))
            continue
        if spec.regime == "lambda":
            lam = float(n) if spec.target == INF else spec.target
            off = spec.side * lam
        else:
            gam = float(n) if spec.target == INF else spec.target
            L = n * params.log_b + math.log(x0)
            off = gam * L ** beta
            for _ in range(6):
                xv_log = n * params.log_b + math.log(x0) + math.log1p(
                    spec.side * off * math.exp(-n * params.log_b) / x0)
                off = gam * xv_log ** beta
            off *= spec.side
        y_n = x0 + off * b ** (-n) if n < 530 else x0
        if not (1.0 <= y_n <= b):
            raise ParameterError(
                f"regime {spec.regime} target {spec.target} puts mantissa {y_n} outside [1, {b}] at n={n}")
        out.append(ScaledSum.scaled(n, x0, b=b, offset=off))
    return out


def _log_lambda(x: ScaledSum, params: ModelParams) -> float:
    """log of |y - x0| * b^m at a probe point x = b^m y + R: at an anchor (y
    = x0) the remainder's own log, elsewhere the dip-distance kernel's log
    distance plus ``m log b``; -inf at a centre."""
    info = x.phase()
    if info.mantissa == params.x0:
        return info.rem_log if info.rem_sign else _LOG_ZERO
    return dip_distance_eval(PointPhase(x), params.x0)(0.0)[1] + info.scale * params.log_b


def _exp_or_inf(v: float) -> float:
    try:
        return math.exp(v)
    except OverflowError:
        return math.inf


def point_lambda(x: ScaledSum, params: ModelParams) -> float:
    """Recover |y - x0| * b^m from a probe point (diagnostic for sequences);
    inf where it exceeds float range."""
    return _exp_or_inf(_log_lambda(x, params))

