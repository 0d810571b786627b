"""Independent high-precision oracles for the far-windows and mixtures workloads.

Nothing here calls into ``subexp``: points arrive as exact ``(scale, mantissa,
offset)`` data or exact mpmath numbers, and every mass is built from the
model constants alone.

The dip density is ``phi(u) = u^(-alpha-1) h(u)`` with ``h`` equal to the
plateau ``K = -1/log(delta)`` except inside the ring ``|u/b^j - x0| < delta``
of each scale ``j``, where ``h = -1/log|u/b^j - x0|``.  A window at
``b^1024`` needs ~2000 bits to hold its end points, so end points and the
distances to the structure points are formed at a working precision grown
with the scale.  The integrals themselves run in the variable ``v = u - a``
relative to an anchor ``a`` at ordinary precision, where the ring's
logarithmic singularity is a break point of ``mpmath.quad``.

Closed forms cover the uniform, Pareto, atom and tilt pieces.
"""

from __future__ import annotations

import mpmath as mp

LOW_DPS = 30


class DipModel:
    """Oracle for the normalized dip density with constants ``b, x0, delta, alpha``."""

    def __init__(self, b: float, x0: float, delta: float, alpha: float):
        self.b, self.x0, self.delta, self.alpha = b, x0, delta, alpha
        with mp.workdps(LOW_DPS):
            self.plateau = -1 / mp.log(mp.mpf(delta))
            # mass of one period cell [1, b); the whole line follows by
            # self-similarity: M = I1 / (1 - b^-alpha)
            self.i1 = self._cell_integral()
            self.log_m = mp.log(self.i1) - mp.log(1 - mp.mpf(b) ** (-alpha))

    def _cell_integral(self):
        x0, d, a1 = mp.mpf(self.x0), mp.mpf(self.delta), self.alpha + 1

        def ring(w):  # y = x0 + w
            return 0 if w == 0 else (x0 + w) ** (-a1) * (-1 / mp.log(abs(w)))

        plateau = self.plateau * (self._power_integral(1, x0 - d)
                                  + self._power_integral(x0 + d, self.b))
        return plateau + mp.quad(ring, [-d, 0, d])

    def _power_integral(self, lo, hi):
        al = mp.mpf(self.alpha)
        return (mp.mpf(lo) ** (-al) - mp.mpf(hi) ** (-al)) / al

    # -- exact points ---------------------------------------------------------

    def bits_for(self, scale: int) -> int:
        """Working precision that holds b^scale * y + t exactly for O(1) offsets."""
        return int(abs(scale) * mp.log(self.b, 2)) + 160

    def point(self, scale: int, mantissa: float, offset: float = 0.0, sign: int = 1):
        """The exact mpf ``sign * b^scale * mantissa + offset`` (call inside workprec)."""
        return sign * mp.mpf(self.b) ** scale * mp.mpf(mantissa) + mp.mpf(offset)

    # -- integrals --------------------------------------------------------------

    def log_integral(self, a, v1, v2, weight=None, breaks=(), bits=None):
        """log of int_{a+v1}^{a+v2} phi(u)/M * weight(v) du with u = a + v.

        ``a`` is an exact mpf; ``v1``, ``v2`` and ``breaks`` are offsets from it
        small enough for ordinary precision (they may be exact mpfs too).
        ``weight`` takes v and must be smooth between ``breaks``.
        """
        bits = bits or self.bits_for(int(mp.log(abs(a) + 2, self.b)) + 2)
        b, x0, dl = self.b, self.x0, self.delta
        with mp.workprec(bits):
            lo_u = a + v1
            hi_u = a + v2
            if hi_u <= 1:
                return -mp.inf
            if lo_u < 1:  # the density starts at 1: re-anchor there
                shift = 1 - a
                a, v1, v2 = mp.mpf(1), 0, v2 - shift
                breaks = [t - shift for t in breaks]
                if weight is not None:
                    weight = (lambda w: lambda v: w(v + shift))(weight)
                lo_u = a
            j_lo = int(mp.floor(mp.log(lo_u, b)))
            j_hi = int(mp.floor(mp.log(hi_u, b)))
            cuts = []
            for j in range(j_lo - 1, j_hi + 2):
                s = mp.mpf(b) ** j
                for y in (1, x0 - dl, x0, x0 + dl):
                    cuts.append(s * y - a)
            v1h, v2h = mp.mpf(v1), mp.mpf(v2)
            inner = sorted({c for c in list(cuts) + [mp.mpf(t) for t in breaks] if v1h < c < v2h})
            # per-segment data at high precision: scale j and R_j = a - x0 b^j
            pts = [v1h] + inner + [v2h]
            segs = []
            for s0, s1 in zip(pts[:-1], pts[1:]):
                mid_u = a + (s0 + s1) / 2
                j = int(mp.floor(mp.log(mid_u, b)))
                r_j = a - x0 * mp.mpf(b) ** j
                segs.append((s0, s1, j, r_j))
        with mp.workdps(LOW_DPS):
            a_low = +a
            log_a = mp.log(a_low)
            a1 = self.alpha + 1
            total = mp.mpf(0)
            for s0, s1, j, r_j in segs:
                s0, s1, r_j = +s0, +s1, +r_j
                log_s = j * mp.log(self.b)
                mid_d = abs(r_j + (s0 + s1) / 2) / mp.mpf(b) ** j
                in_ring = mid_d < dl

                def f(v, r_j=r_j, log_s=log_s, in_ring=in_ring):
                    if in_ring:
                        w = abs(r_j + v)
                        if w == 0:
                            return mp.mpf(0)
                        h = -1 / (mp.log(w) - log_s)
                    else:
                        h = self.plateau
                    val = (1 + v / a_low) ** (-a1) * h
                    return val * weight(v) if weight is not None else val

                seg_pts = [s0, s1]
                if in_ring and s0 < -r_j < s1:
                    seg_pts = [s0, -r_j, s1]
                total += _quad(f, seg_pts)
            if total <= 0:
                return -mp.inf
            return mp.log(total) - a1 * log_a - self.log_m

    def log_window(self, x, c):
        """log mu((x, x+c]) for an exact mpf x."""
        return self.log_integral(x, 0, c)

    def log_tail(self, x):
        """log mu((x, inf)) for an exact mpf x."""
        with mp.workprec(self.bits_for(int(mp.log(abs(x) + 2, self.b)) + 2)):
            if x < 1:
                return mp.mpf(0)
            k = int(mp.floor(mp.log(x, self.b)))
            top = mp.mpf(self.b) ** (k + 1)
            span = top - x
        part = self.log_integral(x, 0, span)
        with mp.workdps(LOW_DPS):
            rest = -self.alpha * (k + 1) * mp.log(self.b)
            return log_add(part, rest)

    def log_tilted_integral(self, gamma, lo, hi):
        """log of int_lo^hi e^{gamma u} phi(u)/M du for moderate float lo < hi."""
        a = mp.mpf(1)
        return self.log_integral(a, lo - 1, hi - 1, weight=lambda v: mp.exp(gamma * (1 + v)))


def _quad(f, pts):
    """``mp.quad``, retried on halved pieces where its error estimate divides by zero.

    mpmath's extrapolated error estimate divides by log10 of the difference of
    two estimates, which is zero when that difference is exactly 1: rare, but
    it happens for the large tail integrals.  Other pieces give other estimates.
    """
    try:
        return mp.quad(f, pts)
    except ZeroDivisionError:
        finer = [pts[0]]
        for lo, hi in zip(pts[:-1], pts[1:]):
            finer += [(lo + hi) / 2, hi]
        return mp.quad(f, finer)


def log_add(a, b):
    if a == -mp.inf:
        return b
    if b == -mp.inf:
        return a
    m = max(a, b)
    return m + mp.log(mp.exp(a - m) + mp.exp(b - m))


def log_sum(values):
    out = -mp.inf
    for v in values:
        out = log_add(out, v)
    return out


def log_of(x):
    return -mp.inf if x <= 0 else mp.log(x)


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def uniform_tilted_mass(left, width, gamma, lo, hi):
    """int_{lo}^{hi} e^{gamma u} du / width over the overlap with [left, left+width)."""
    o1, o2 = max(mp.mpf(lo), left), min(mp.mpf(hi), left + width)
    if o2 <= o1:
        return mp.mpf(0)
    if gamma == 0:
        return (o2 - o1) / width
    return (mp.exp(gamma * o2) - mp.exp(gamma * o1)) / (gamma * width)


def pareto_tilted_mass(shape, gamma, lo, hi=mp.inf):
    """int_{lo}^{hi} e^{gamma u} shape (1+u)^(-shape-1) du over u >= 0, gamma <= 0."""
    o1 = max(mp.mpf(lo), 0)
    o2 = mp.mpf(hi)
    if o2 <= o1:
        return mp.mpf(0)
    a = mp.mpf(shape)
    if gamma == 0:
        top = 0 if o2 == mp.inf else (1 + o2) ** (-a)
        return (1 + o1) ** (-a) - top
    g = -mp.mpf(gamma)  # > 0
    # s = g (1 + u) turns the integral into a e^g g^a [Gamma(-a, s1) - Gamma(-a, s2)];
    # the difference of upper incomplete gammas runs at doubled precision
    with mp.extradps(mp.mp.dps):
        upper = 0 if o2 == mp.inf else mp.gammainc(-a, g * (1 + o2))
        return a * mp.exp(g) * g ** a * (mp.gammainc(-a, g * (1 + o1)) - upper)


def uniform_pareto_conv_mass(shape, x, c):
    """(U(0,1) * Pareto(shape))((x, x+c]) in closed form."""
    a = mp.mpf(shape)

    def h(t):  # int_0^t F(u) du, F the Pareto cdf
        if t <= 0:
            return mp.mpf(0)
        if a == 1:
            return t - mp.log1p(t)
        return t - ((1 + t) ** (1 - a) - 1) / (1 - a)

    def g(z):  # int_0^1 F(z - s) ds
        return h(z) - h(z - 1)

    x, c = mp.mpf(x), mp.mpf(c)
    return g(x + c) - g(x)
