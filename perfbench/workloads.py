"""Seeded inputs, program calls and oracle answers for the query workloads.

``far-windows`` queries single-level window masses, shift pairs, window
densities and tails of the dip-density measure ``mu`` at ``b^n y + t`` with
``n`` across 1..1024.  ``mixtures`` queries every other construction: the
``rho1``/``rho2`` mixtures around the sparse intervals, the ``mu * mu1``
pair, the smoothed ``p1``/``p2`` densities, tilts of Pareto, uniform, point
mass and dip mixtures, and generic non-dip convolution pairs.

Inputs are stratified: every seed draws the same number of operations of
each kind (on far-windows also of each mantissa class and width category),
and scales are spread evenly over their range, so pass times and latency
quantiles compare across seeds; only the points inside each stratum vary.
The program sees the generated points only; oracles see the same numbers.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import subexp as sx

# Mantissas of the plateau class stay this far from the dip ring.
_RING_MARGIN = 0.05
# Largest scale at which b^n y stays a float for tails (b = 4: 4^500 * 4 < 1.8e308).
_TAIL_MAX_N = 500
_FLOAT_MAX_N = 510


@dataclass(frozen=True)
class Op:
    """One benchmark operation: a program call plus the properties it has."""

    kind: str
    args: tuple
    mantissa: str  # plateau | anchor | lambda | ring | none
    beyond_float: bool
    narrow: bool  # window width below 1
    nested: bool  # the call nests one integral inside another


def property_shares(ops) -> dict:
    """Share of operations with each property value, for the run's report."""
    n = len(ops)
    out = {}
    for cls in sorted({op.mantissa for op in ops}):
        out[f"mantissa={cls}"] = sum(op.mantissa == cls for op in ops) / n
    for prop in ("beyond_float", "narrow", "nested"):
        out[prop] = sum(getattr(op, prop) for op in ops) / n
    return out


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

def _width(rng: random.Random, cat: str, tiny_max_m: int) -> float:
    if cat == "tiny":
        return 4.0 ** -rng.randint(1, tiny_max_m)
    return float(cat)


def _stratified_ints(rng: random.Random, k: int, lo: int, hi: int) -> list:
    """k integers in [lo, hi], one drawn from each of k equal sub-ranges."""
    span = hi - lo + 1
    vals = [lo + int((i + rng.random()) * span / k) for i in range(k)]
    rng.shuffle(vals)
    return vals


def _plateau_mantissa(rng: random.Random, p) -> float:
    lo_band = (1.0, p.x0 - p.delta - _RING_MARGIN)
    hi_band = (p.x0 + p.delta + _RING_MARGIN, p.b - 1e-9)
    wl = lo_band[1] - lo_band[0]
    wh = hi_band[1] - hi_band[0]
    u = rng.uniform(0.0, wl + wh)
    return lo_band[0] + u if u < wl else hi_band[0] + (u - wl)


def _dip_point(rng: random.Random, p, cls: str, n: int):
    """(mantissa, offset) of a point of mantissa class ``cls`` at scale n."""
    if cls == "plateau":
        return _plateau_mantissa(rng, p), 0.0
    if cls == "anchor":
        return p.x0, 0.0
    if cls == "lambda":
        return p.x0, rng.uniform(-n, n)
    d = math.exp(rng.uniform(math.log(1e-9), math.log(p.delta - _RING_MARGIN)))
    return p.x0 + rng.choice((-1.0, 1.0)) * d, 0.0


FAR_CLASSES = ("plateau", "anchor", "lambda", "ring")
FAR_WIDTHS = ("tiny", "0.5", "1", "2")
# operations per (class, kind, width) stratum; tails have no width and stay
# under 1% of the pass, so the dip anchors, not the tails, set op_ms.p99
FAR_PER_CELL = {"mass": 320, "shift": 160, "density": 240, "tail": 12}


def far_windows_ops(seed: int, params) -> list:
    rng = random.Random(f"far-windows:{seed}")
    ops = []
    for cls in FAR_CLASSES:
        for kind in ("mass", "shift", "density"):
            for cat in FAR_WIDTHS:
                for n in _stratified_ints(rng, FAR_PER_CELL[kind], 1, 1024):
                    y, t = _dip_point(rng, params, cls, n)
                    c = _width(rng, cat, 8)
                    ops.append(Op(kind, (n, y, t, c), cls, n > _FLOAT_MAX_N, c < 1.0, False))
        for n in _stratified_ints(rng, FAR_PER_CELL["tail"], 1, _TAIL_MAX_N):
            y, t = _dip_point(rng, params, cls, n)
            ops.append(Op("tail", (n, y, t), cls, False, False, False))
    rng.shuffle(ops)
    return ops


MIX_WIDTHS = ("tiny", "0.5", "1", "2")
MIX_GAMMAS = (0.5, 1.0, 2.0)
PARETO_SHAPES = (1.0, 2.5)
# operations per kind and pass
MIX_COUNTS = {
    "rho2_mass": 200, "rho2_tail": 150, "rho1_mass": 200, "rho1_tail": 100,
    "conv_mu_mu1": 150, "p_density": 200,
    "tp_mass": 200, "tp_tail": 150, "moment": 120, "tm_mass": 200,
    "tmu_mass": 100, "tmu_tail": 50, "tilt_identity": 100, "round_trip": 150,
    "conv_u_pareto": 200, "conv_mix_tp": 40,
}
# scales of the conv_u_mu operations: a fixed log grid from 4^1 to 4^1000
CONV_U_MU_N = (1, 3, 7, 20, 52, 139, 373, 1000)
NESTED_KINDS = {"conv_u_pareto", "conv_mix_tp", "conv_u_mu"}


def mixtures_ops(seed: int, params, k_atoms: int) -> list:
    rng = random.Random(f"mixtures:{seed}")
    ops = []

    def add(kind, args, mantissa="none", beyond=False, c=None):
        ops.append(Op(kind, args, mantissa, beyond, c is not None and c < 1.0,
                      kind in NESTED_KINDS))

    def width():
        return _width(rng, rng.choice(MIX_WIDTHS), 4)

    def anchor_point(k_max):
        k = rng.randint(1, k_max)
        n = 4 ** k
        cls = rng.choice(("plateau", "anchor", "lambda"))
        y, t = _dip_point(rng, params, cls, min(n, 50))
        return (n, y, t), cls, n > _FLOAT_MAX_N

    for _ in range(MIX_COUNTS["rho2_mass"]):
        k, c = rng.randint(1, k_atoms), width()
        add("rho2_mass", (k, rng.uniform(-c, c), c), beyond=4 ** k > _FLOAT_MAX_N, c=c)
    for _ in range(MIX_COUNTS["rho2_tail"]):
        k = rng.randint(1, k_atoms)
        add("rho2_tail", (k, rng.uniform(-2.0, 2.0)), beyond=4 ** k > _FLOAT_MAX_N)
    for _ in range(MIX_COUNTS["rho1_mass"]):
        c = width()
        if rng.random() < 0.25:
            add("rho1_mass", ((0, 1.0, rng.uniform(-c, 0.5)), c), c=c)
        else:
            pt, cls, beyond = anchor_point(k_atoms)
            add("rho1_mass", (pt, c), cls, beyond, c)
    for _ in range(MIX_COUNTS["rho1_tail"]):
        pt, cls, beyond = anchor_point(k_atoms - 1)
        add("rho1_tail", (pt,), cls, beyond)
    for _ in range(MIX_COUNTS["conv_mu_mu1"]):
        c = width()
        pt, cls, beyond = anchor_point(k_atoms)
        add("conv_mu_mu1", (pt, c), cls, beyond, c)
    for _ in range(MIX_COUNTS["p_density"]):
        which = rng.choice((1, 2))
        if which == 1 and rng.random() < 0.25:
            add("p_density", (1, (0, 1.0, rng.uniform(0.05, 0.95))))
        else:
            pt, cls, beyond = anchor_point(k_atoms)
            add("p_density", (which, pt), cls, beyond)
    for _ in range(MIX_COUNTS["tp_mass"]):
        c = width()
        add("tp_mass", (rng.choice(MIX_GAMMAS), rng.uniform(0.0, 30.0), c), c=c)
    for _ in range(MIX_COUNTS["tp_tail"]):
        add("tp_tail", (rng.choice(MIX_GAMMAS), rng.uniform(0.0, 30.0)))
    for i in range(MIX_COUNTS["moment"]):
        which = ("pareto", "uniform", "mix", "mu")[i % 4]
        g = -rng.choice(MIX_GAMMAS)
        if which in ("uniform", "mix") and rng.random() < 0.5:
            g = -g
        add("moment", (which, g))
    for _ in range(MIX_COUNTS["tm_mass"]):
        c = width()
        add("tm_mass", (rng.choice((-1.0, 1.0)), rng.uniform(-0.5, 2.0), c), c=c)
    for _ in range(MIX_COUNTS["tmu_mass"]):
        c = width()
        add("tmu_mass", (rng.choice(MIX_GAMMAS), rng.uniform(1.0, 30.0), c), c=c)
    for _ in range(MIX_COUNTS["tmu_tail"]):
        add("tmu_tail", (rng.choice(MIX_GAMMAS), rng.uniform(1.0, 30.0)))
    for _ in range(MIX_COUNTS["tilt_identity"]):
        c = rng.choice((0.1, 0.5, 1.0))
        add("tilt_identity", (rng.choice(MIX_GAMMAS), rng.uniform(5.0, 60.0), c), c=c)
    for _ in range(MIX_COUNTS["round_trip"]):
        c = width()
        add("round_trip", (rng.choice((-1.0, 1.0)), rng.uniform(-0.5, 2.0), c), c=c)
    for _ in range(MIX_COUNTS["conv_u_pareto"]):
        c = width()
        add("conv_u_pareto", (rng.choice(PARETO_SHAPES), rng.uniform(-0.5, 40.0), c), c=c)
    for _ in range(MIX_COUNTS["conv_mix_tp"]):
        c = width()
        add("conv_mix_tp", (rng.uniform(-0.5, 20.0), c), c=c)
    # The dip anchors of the costliest kind set op_ms.p99.  An anchor costs
    # 2-5x more at n = 1 than at n = 1000, more again at widths 1 and 2, and
    # a random draw of these ~30 operations moved op_ms.p99 by 20% between
    # seeds.  So every width category runs the exact anchors (y = x0, t = 0)
    # at each scale of a fixed grid, the same operations for every seed, plus
    # plateau points and lambda offsets at every other scale, drawn from the
    # seed with |t| / n stratified.  The anchors are more than the 1% of a
    # pass above op_ms.p99 (~24), so p99 falls inside their costs.
    for cat in MIX_WIDTHS:
        for j, n in enumerate(CONV_U_MU_N):
            c = 4.0 ** -(1 + j % 4) if cat == "tiny" else float(cat)
            add("conv_u_mu", ((n, params.x0, 0.0), c), "anchor", n > _FLOAT_MAX_N, c)
            if j % 2:
                y, t = _dip_point(rng, params, "plateau", n)
                add("conv_u_mu", ((n, y, t), c), "plateau", n > _FLOAT_MAX_N, c)
            else:
                t = rng.choice((-1.0, 1.0)) * n * (j // 2 + rng.random()) / 4
                add("conv_u_mu", ((n, params.x0, t), c), "lambda", n > _FLOAT_MAX_N, c)
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# program side
# ---------------------------------------------------------------------------

class Program:
    """Distributions built once per run (the set-up) and the calls per kind."""

    def __init__(self, workload: str):
        spec = sx.GallerySpec()
        self.spec = spec
        self.params = p = spec.params
        self.quad = spec.quad
        self.mu = sx.build_mu(spec)
        if workload != "mixtures":
            return
        self.mu1 = sx.build_mu1(spec)
        self.rho1, self.rho2 = sx.build_rho1_rho2(spec)
        self.p12 = sx.build_p1_p2(spec)
        q = self.quad
        pareto = sx.MixtureDistribution.single(sx.ParetoAC(1.0))
        self.uniform = sx.MixtureDistribution.single(sx.UniformAC(0.0, 1.0))
        self.mix = sx.MixtureDistribution(components=((0.5, sx.UniformAC(0.0, 1.0)),
                                                      (0.5, sx.PointMass(1.5))))
        self.moment_dists = {"pareto": pareto, "uniform": self.uniform,
                             "mix": self.mix, "mu": self.mu}
        self.tp = {g: sx.tilt(pareto, -g, q) for g in MIX_GAMMAS}
        self.tm = {g: sx.tilt(self.mix, g, q) for g in (-1.0, 1.0)}
        self.tmu = {g: sx.tilt(self.mu, -g, q) for g in MIX_GAMMAS}
        self.round_trip = {g: sx.tilt(sx.tilt(self.mix, g, q), -g, q) for g in (-1.0, 1.0)}
        self.paretos = {a: sx.MixtureDistribution.single(sx.ParetoAC(a)) for a in PARETO_SHAPES}
        self.k_atoms = len(self.mu1.components[0][1].weights)

    def point(self, n, y, t):
        """b^n y + t; scale 0 stands for the plain float t."""
        if n == 0:
            return sx.ScaledSum.from_float(t, self.params.b)
        return sx.ScaledSum.scaled(n, y, b=self.params.b, offset=t)

    def run(self, op: Op) -> tuple:
        return getattr(self, "_" + op.kind)(*op.args)

    # far-windows
    def _mass(self, n, y, t, c):
        return (sx.local_mass(self.mu, self.point(n, y, t), c, self.quad),)

    def _shift(self, n, y, t, c):
        x = self.point(n, y, t)
        return (sx.local_mass(self.mu, x, c, self.quad),
                sx.local_mass(self.mu, x.add_offset(1.0), c, self.quad))

    def _density(self, n, y, t, c):
        return (sx.local_density(self.mu, self.point(n, y, t), c, self.quad),)

    def _tail(self, n, y, t):
        return (sx.tail(self.mu, self.point(n, y, t), self.quad),)

    # mixtures
    def _atom_point(self, k, s):
        p = self.params
        return sx.ScaledSum.scaled(4 ** k, 0.5 * (p.x1 + p.x2), b=p.b, offset=s, sign=-1)

    def _rho2_mass(self, k, s, c):
        return (sx.local_mass(self.rho2, self._atom_point(k, s), c, self.quad),)

    def _rho2_tail(self, k, s):
        return (sx.tail(self.rho2, self._atom_point(k, s), self.quad),)

    def _rho1_mass(self, pt, c):
        return (sx.local_mass(self.rho1, self.point(*pt), c, self.quad),)

    def _rho1_tail(self, pt):
        return (sx.tail(self.rho1, self.point(*pt), self.quad),)

    def _conv_mu_mu1(self, pt, c):
        return (_plain(sx.conv_local_mass(self.mu, self.mu1, self.point(*pt), c, self.quad)),)

    def _p_density(self, which, pt):
        return (self.p12[which - 1].log_value(self.point(*pt)),)

    def _tp_mass(self, g, x, c):
        return (sx.local_mass(self.tp[g], x, c, self.quad),)

    def _tp_tail(self, g, x):
        return (sx.tail(self.tp[g], x, self.quad),)

    def _moment(self, which, g):
        return (math.log(sx.exp_moment(self.moment_dists[which], g, self.quad)),)

    def _tm_mass(self, g, x, c):
        return (sx.local_mass(self.tm[g], x, c, self.quad),)

    def _tmu_mass(self, g, x, c):
        return (sx.local_mass(self.tmu[g], x, c, self.quad),)

    def _tmu_tail(self, g, x):
        return (sx.tail(self.tmu[g], x, self.quad),)

    def _tilt_identity(self, g, x, c):
        series = sx.tilt_identity_probe(self.tp[g], g, (c,), (x,), self.quad)
        return (series.entries[0].log_ratio,)

    def _round_trip(self, g, x, c):
        return (sx.local_mass(self.round_trip[g], x, c, self.quad),)

    def _conv_u_pareto(self, a, x, c):
        return (_plain(sx.conv_local_mass(self.uniform, self.paretos[a], x, c, self.quad)),)

    def _conv_mix_tp(self, x, c):
        return (_plain(sx.conv_local_mass(self.mix, self.tp[1.0], x, c, self.quad)),)

    def _conv_u_mu(self, pt, c):
        return (_plain(sx.conv_local_mass(self.uniform, self.mu, self.point(*pt), c, self.quad)),)


def _plain(v) -> float:
    """A convolution result as a float (brackets do not occur on these inputs)."""
    if isinstance(v, sx.LogBracket):
        raise TypeError(f"unexpected bracket {v}")
    return v


# ---------------------------------------------------------------------------
# oracle side
# ---------------------------------------------------------------------------

class Oracle:
    """Expected log values per operation, from ``oracles`` alone.

    Uses the model constants and the documented constructions (atom series
    at -b^(4^k) (x1+x2)/2 with weights 2^-k, residual on the last atom;
    triangle kernel on [0, 1]); never a value computed by the program.
    """

    def __init__(self, params, k_atoms: int):
        # imported here so that mpmath loads only after the timed passes
        import mpmath
        import oracles

        self.mp = mpmath
        self.O = oracles
        self.dm = oracles.DipModel(params.b, params.x0, params.delta, params.alpha)
        self.mid = 0.5 * (params.x1 + params.x2)
        self.weights = [2.0 ** -k for k in range(1, k_atoms + 1)]
        self.weights[-1] += 2.0 ** -k_atoms

    def expected(self, op: Op) -> tuple:
        return getattr(self, "_" + op.kind)(*op.args)

    # -- helpers -------------------------------------------------------------

    def _x(self, n, y, t, sign=1):
        """Exact point and the precision that holds it."""
        bits = self.dm.bits_for(n)
        with self.mp.workprec(bits):
            if n == 0:
                return self.mp.mpf(t), bits
            return self.dm.point(n, y, t, sign), bits

    def _atom_locs(self, bits):
        with self.mp.workprec(bits):
            return [self.dm.point(4 ** k, self.mid, 0.0, -1)
                    for k in range(1, len(self.weights) + 1)]

    def _window(self, x, c):
        return self.dm.log_window(x, c)

    def _tail_mu(self, x):
        return self.dm.log_tail(x)

    def _half_mix(self, linear_part, log_part):
        mp = self.mp
        half = mp.log(0.5)
        return self.O.log_sum([half + self.O.log_of(linear_part), half + log_part])

    # -- far-windows ---------------------------------------------------------

    def _mass(self, n, y, t, c):
        x, _ = self._x(n, y, t)
        return (self._window(x, c),)

    def _shift(self, n, y, t, c):
        x, bits = self._x(n, y, t)
        with self.mp.workprec(bits):
            x1 = x + 1
        return (self._window(x, c), self._window(x1, c))

    def _density(self, n, y, t, c):
        x, bits = self._x(n, y, t)
        with self.mp.workprec(bits):
            x0 = x - self.mp.mpf(c)
        return (self._window(x0, c) - self.mp.log(c),)

    def _tail(self, n, y, t):
        x, _ = self._x(n, y, t)
        return (self._tail_mu(x),)

    # -- mixtures ------------------------------------------------------------

    def _rho2_mass(self, k, s, c):
        x, bits = self._x(4 ** k, self.mid, s, -1)
        locs = self._atom_locs(bits)
        with self.mp.workprec(bits):
            atoms = sum(w for loc, w in zip(locs, self.weights) if 0 < loc - x <= c)
        return (self._half_mix(atoms, self._window(x, c)),)

    def _rho2_tail(self, k, s):
        x, bits = self._x(4 ** k, self.mid, s, -1)
        locs = self._atom_locs(bits)
        with self.mp.workprec(bits):
            atoms = sum(w for loc, w in zip(locs, self.weights) if loc > x)
        return (self._half_mix(atoms, self._tail_mu(x)),)

    def _rho1_mass(self, pt, c):
        x, bits = self._x(*pt)
        with self.mp.workprec(bits):
            atom = 1 if x < 0 <= x + c else 0
        return (self._half_mix(atom, self._window(x, c)),)

    def _rho1_tail(self, pt):
        x, bits = self._x(*pt)
        with self.mp.workprec(bits):
            atom = 1 if x < 0 else 0
        return (self._half_mix(atom, self._tail_mu(x)),)

    def _conv_mu_mu1(self, pt, c):
        x, bits = self._x(*pt)
        locs = self._atom_locs(max(bits, self.dm.bits_for(4 ** len(self.weights))))
        terms = []
        for loc, w in zip(locs, self.weights):
            with self.mp.workprec(self.dm.bits_for(4 ** len(self.weights))):
                shifted = x - loc
            terms.append(self.mp.log(w) + self._window(shifted, c))
        return (self.O.log_sum(terms),)

    def _p_density(self, which, pt):
        mp = self.mp
        x, bits = self._x(*pt)

        def q(s):  # triangle kernel on [0, 1]
            return 4 * s if s <= 0.5 else 4 * (1 - s)

        smooth = self.dm.log_integral(x, -1, 0, weight=lambda v: q(-v), breaks=(-0.5,))
        with mp.workprec(bits):
            bump = q(x) if (which == 1 and 0 <= x <= 1) else 0
        return (self._half_mix(bump, smooth),)

    def _pareto_z(self, g):
        return self.O.pareto_tilted_mass(1.0, -g, 0)

    def _tp_mass(self, g, x, c):
        return (self.O.log_of(self.O.pareto_tilted_mass(1.0, -g, x, x + c) / self._pareto_z(g)),)

    def _tp_tail(self, g, x):
        return (self.O.log_of(self.O.pareto_tilted_mass(1.0, -g, x) / self._pareto_z(g)),)

    def _mix_tilted(self, g, lo, hi):
        mp = self.mp
        atom = mp.exp(1.5 * g) if lo < 1.5 <= hi else 0
        return 0.5 * self.O.uniform_tilted_mass(0, 1, g, lo, hi) + 0.5 * atom

    def _moment(self, which, g):
        mp = self.mp
        if which == "pareto":
            return (mp.log(self.O.pareto_tilted_mass(1.0, g, 0)),)
        if which == "uniform":
            return (mp.log(self.O.uniform_tilted_mass(0, 1, g, 0, 1)),)
        if which == "mix":
            return (mp.log(self._mix_tilted(g, -1, 2)),)
        return (self.dm.log_tilted_integral(g, 1.0, 1.0 + 60.0 / abs(g)),)

    def _tm_mass(self, g, x, c):
        return (self.O.log_of(self._mix_tilted(g, x, x + c) / self._mix_tilted(g, -1, 2)),)

    def _tmu_z(self, g):
        return self.dm.log_tilted_integral(-g, 1.0, 1.0 + 60.0 / g)

    def _tmu_mass(self, g, x, c):
        return (self.dm.log_tilted_integral(-g, x, x + c) - self._tmu_z(g),)

    def _tmu_tail(self, g, x):
        return (self.dm.log_tilted_integral(-g, x, x + 60.0 / g) - self._tmu_z(g),)

    def _tilt_identity(self, g, x, c):
        mp = self.mp
        window = self.O.pareto_tilted_mass(1.0, 0, x, x + c)
        return (mp.log(window) - mp.log(c) - mp.log(g) - g * mp.mpf(x)
                - mp.log(self.O.pareto_tilted_mass(1.0, -g, x)),)

    def _round_trip(self, g, x, c):
        return (self.O.log_of(self._mix_tilted(0, x, x + c)),)

    def _conv_u_pareto(self, a, x, c):
        return (self.O.log_of(self.O.uniform_pareto_conv_mass(a, x, c)),)

    def _conv_mix_tp(self, x, c):
        mp = self.mp
        z = self._pareto_z(1.0)

        def tp_window(lo):
            return self.O.pareto_tilted_mass(1.0, -1.0, lo, lo + c) / z

        breaks = sorted({0.0, 1.0, *(s for s in (x, x + c) if 0.0 < s < 1.0)})
        with mp.workdps(30):
            smooth = mp.quad(lambda s: tp_window(x - s), breaks)
        return (self.O.log_of(0.5 * smooth + 0.5 * tp_window(x - 1.5)),)

    def _conv_u_mu(self, pt, c):
        x, _ = self._x(*pt)

        def overlap(v):  # length of {s in [0, 1]: x - s < x + v <= x - s + c}
            return max(0, min(1, c - v) - max(0, -v))

        return (self.dm.log_integral(x, -1, c, weight=overlap, breaks=(0.0, c - 1.0)),)
