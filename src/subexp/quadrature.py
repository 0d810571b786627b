"""Segment quadrature for log-scale integrands.

The integrands here span hundreds of orders of magnitude across a run but only
a handful within any single integral, so each integral is evaluated in a
linear domain scaled by the largest sampled log-value.  Structure points (the
dip centers and ring edges of the periodic profile, support edges, kernel
knots, and where a window end of one factor crosses them) are passed as
hints and split the range into segments; between hints the integrands are
analytic, and each segment gets the rule that fits it:

- A segment with an endpoint in ``singular`` runs the tanh-sinh rule of
  Takahasi & Mori (1974).  The dip profile ``-1/log|y - x0|`` has an
  unbounded derivative at a dip center, and a window mass whose end crosses
  one an unbounded second derivative; the double-exponential change of
  variables makes either a rapidly decaying analytic integrand, so halving
  the step converges in a few dozen evaluations where bisection would crawl
  toward the center.  The halving stops once two levels agree, or once the
  changes between levels shrink fast enough that the next one would fit
  the budget.
- Every other segment is a 15-point Gauss-Kronrod panel (QUADPACK's qk15,
  Piessens et al. 1983), bisected while ``|K15 - G7|``, the difference from
  its embedded 7-point Gauss rule, exceeds the panel's budget.  Its
  exhaustion floor accepts a panel whose whole possible contribution is
  negligible, so a jump or an unflagged singular derivative still ends.

No single-level query of :mod:`measures` comes here: windows, weighted
masses, tails and the normalizer take closed forms or fixed Gauss-Legendre
rules, tilted or not, and a dip-density window resolves its structure at
every scale.  What runs here is the outer integrals of convolutions and the
raw profile's integral ``phi_integral_log`` (an oracle).

The first pass is the first panel of each segment (tanh-sinh level 0 at a
singular end), and it alone sets both the shared scale and the budgets:
the total error target ``rel_tol * I`` is distributed over the segments
proportionally to their first-pass mass (with a floor so empty-looking
segments still get attention); each bisection passes half its budget to
each child, and a tanh-sinh segment stops once its error estimate fits its
budget.  Accepted sums are combined with compensated summation in a fixed
order, so a given integral always returns the same bits.  ``max_depth``
bounds both rules: the bisection depth of a panel and, less two, the
tanh-sinh level.

Refinement runs a round at a time, breadth-first.  A tanh-sinh segment
never stops at level 0, and seldom at level 1 (16 of the 776 on one pass
of the five reports), so the first round holds the first pass and levels 1
and 2 of every singular segment (as far as ``max_depth`` allows them);
round k after it holds level k + 2 of every singular segment still open
and the depth-k halves of every panel bisected at depth k - 1.  A tanh-sinh
node whose abscissa rounds onto its segment's end is that end, and the
first round evaluates each such end once; each node's product with the
end's value still enters its level's sum.  Level 1's last node lies
nearest the ends, so no later level reaches an end the first round has
not.  Each segment refines on its own budget, so the rounds take the nodes
that refining one segment after another would, less the repeated ends and
plus level 2 of a segment that stops at level 1, and the accepted sums are
added in that order (segment by segment, and within a segment in the
depth-first order of a bisection stack).  An integrand that carries a
batch form ``f_log.many(xs)`` takes each round in one call.  On one pass
of the five reports (counts, the same on any host), the 56 outer integrals
with a batch form take 115 rounds, and the dip density's evaluator takes
64 rounds of inner windows, a median of 273 nodes each.  The product
integrand reads the dip density at a round's nodes as arrays, and the dip
density's evaluator of inner masses walks a round's windows as arrays:
their cuts and the kinds of their segments, then a numpy pass for each
bulk kind, plateau segments and dip segments far enough to one side of
their centre for a Gauss rule.  The few dip segments near a centre take
the scalar closed form: the exponential-integral series near the centre,
and one Gauss-Legendre rule in log-distance over each run beyond its
reach.  The walk's fixed cost pays from about 48 nodes
(``measures._GAUSS_BATCH_MIN``); a panel of 15 nodes would hold too few,
and a smaller round walks node by node.  A plain function, such as the
wrapper a tracer or counter puts around the integrand, has no batch form:
its rounds run node by node through the scalar walk, on the same nodes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain
from operator import mul

from .errors import ParameterError, QuadratureError
from .logsum import LOG_ZERO, NeumaierSum

# The 15-point Gauss-Kronrod rule and its embedded 7-point Gauss rule on
# [-1, 1] (QUADPACK's qk15, Piessens et al. 1983).  _GK_NODES holds the
# distances 1 - x of the positive Kronrod nodes from the end, so nodes near
# an end keep full precision; the Gauss nodes are the second, fourth and
# sixth of them and the centre.
_GK_NODES = (
    1.0 - 0.991455371120812639206854697526329,
    1.0 - 0.949107912342758524526189684047851,
    1.0 - 0.864864423359769072789712788640926,
    1.0 - 0.741531185599394439863864773280788,
    1.0 - 0.586087235467691130294144845693013,
    1.0 - 0.405845151377397166906606412076961,
    1.0 - 0.207784955007898467600689403773245,
)
_GK_WEIGHTS = (  # the centre's first
    0.209482141084727828012999174891714,
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
)
_G7_WEIGHTS = (  # aligned with _GK_WEIGHTS, zero at the Kronrod-only nodes
    0.417959183673469387755102040816327, 0.0,
    0.129484966168869693270611432679082, 0.0,
    0.279705391489276667901467771423780, 0.0,
    0.381830050505118944950369775488975, 0.0,
)
# both weight sets in the order of _gk_points
_GK_PAIR_WEIGHTS, _G7_PAIR_WEIGHTS = (
    (ws[0],) + tuple(w for w in ws[1:] for _ in (0, 1)) for ws in (_GK_WEIGHTS, _G7_WEIGHTS))

# tanh-sinh nodes run over |t| <= _DE_T.  Beyond it the weights fall below
# 1e-20 of the peak, so for the bounded integrands here the truncation is far
# below any tolerance.
_DE_T = 3.5
# Step halvings past this level only chase rounding noise in double precision.
_DE_MAX_LEVEL = 8
# Level k has about 2^(k+3) nodes, and ``max_depth`` allows levels up to
# max_depth - 2.
_DE_DEPTH_OFFSET = 2
# An error estimate at or below this is accepted whatever the budget.
_ABS_FLOOR = 1e-300


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerance and subdivision policy for all adaptive integrals."""

    rel_tol: float = 1e-9
    max_depth: int = 48

    def __post_init__(self):
        if not (0.0 < self.rel_tol <= 1e-3):
            raise ParameterError(f"rel_tol must be in (0, 1e-3], got {self.rel_tol}")
        if not (0 < self.max_depth <= 60):
            raise ParameterError(f"max_depth must be in [1, 60], got {self.max_depth}")


def _gk_points(a: float, b: float) -> list:
    """The 15 Gauss-Kronrod nodes on [a, b]: the centre, then pairs from the
    ends inward."""
    hw = 0.5 * (b - a)
    out = [a + hw]
    for q in _GK_NODES:
        d = hw * q  # the node lies q half-widths inside the nearer end
        out += (a + d, b - d)
    return out


def _gk_sums(g, hw: float) -> tuple:
    """(K15, |K15 - G7|, largest value) of a panel of half-width ``hw`` from
    its 15 values ``g``, in :func:`_gk_points` order."""
    k = math.fsum(map(mul, _GK_PAIR_WEIGHTS, g))
    g7 = math.fsum(map(mul, _G7_PAIR_WEIGHTS, g))
    return hw * k, hw * abs(k - g7), max(g)


@lru_cache(maxsize=None)
def _de_nodes(level: int) -> tuple:
    """Nodes of tanh-sinh level ``level`` on [-1, 1], for t >= 0 only.

    Each node is ``(q, w)``: the node lies ``q`` half-widths inside the
    nearer endpoint (so nodes crowding an endpoint keep full precision), and
    ``w`` is its weight per half-width and unit step.  Level 0 has step 1
    and holds t = 0 first; level k > 0 holds the new odd multiples of 2^-k.
    """
    h = 2.0 ** -level
    if level == 0:
        ts = [float(j) for j in range(int(_DE_T) + 1)]
    else:
        ts = [j * h for j in range(1, int(_DE_T / h) + 1, 2)]
    nodes = []
    for t in ts:
        s = 0.5 * math.pi * math.sinh(t)
        e = math.exp(-2.0 * s)
        nodes.append((2.0 * e / (1.0 + e),
                      0.5 * math.pi * math.cosh(t) * 4.0 * e / (1.0 + e) ** 2))
    return tuple(nodes)


def _de_points(a: float, b: float, level: int) -> tuple:
    """(abscissae, weights, ends) of the new nodes of one tanh-sinh level on
    [a, b].

    A node whose abscissa rounds onto its segment's end (``a + d == a`` or
    ``b - d == b``) is that end: it goes into ``ends`` as (end, weight), and
    the others into the abscissae and their weights.  The nodes crowd the
    ends as t grows, so the node at ``t = _DE_T`` (level 1's last) lies
    nearest either end, and any end a level reaches, level 1 reaches too.
    Weights are per unit step; the level's step ``2^-level`` is applied by
    the caller.
    """
    hw = 0.5 * (b - a)
    nodes = _de_nodes(level)
    xs, ws, ends = [], [], []
    if level == 0:
        _q, w = nodes[0]
        xs.append(a + hw)
        ws.append(hw * w)
        nodes = nodes[1:]
    for q, w in nodes:
        d = hw * q
        w = hw * w
        lo, hi = a + d, b - d
        if lo == a:
            ends.append((a, w))
        else:
            xs.append(lo)
            ws.append(w)
        if hi == b:
            ends.append((b, w))
        else:
            xs.append(hi)
            ws.append(w)
    return xs, ws, ends


def _de_sum(ws, g, ends, end_g) -> float:
    """The weighted sum of one tanh-sinh level's scaled values: ``g`` at its
    abscissae, and ``end_g`` (by end) at its nodes that round onto an end."""
    return math.fsum(chain(map(mul, ws, g), [w * end_g[e] for e, w in ends]))


def integrate_log(f_log, lo: float, hi: float, quad: QuadratureSpec, hints=(),
                  singular=()) -> float:
    """Return log of the integral of exp(f_log(t)) over [lo, hi].

    ``hints`` split the range into segments.  ``singular`` lists points
    (inside the range or at its ends) where the integrand has an unbounded
    derivative; they split the range too, and every segment ending at one is
    integrated with the tanh-sinh rule.  ``f_log`` may return -inf where the
    integrand vanishes, and may carry a batch form ``f_log.many(xs)``, the
    list of its values at the abscissae ``xs``, which then takes each round
    in one call.  The first pass decides whether the integral vanishes: where
    it samples only zeros the result is log zero, though its round also
    evaluated tanh-sinh levels 1 and 2.  Each segment end that a tanh-sinh
    node rounds onto is evaluated once.  Raises :class:`QuadratureError`
    when the depth budget is exhausted before the error estimate falls below
    tolerance.
    """
    if not (hi > lo):
        return LOG_ZERO

    cuts = {lo, hi}
    for h in hints:
        if lo < h < hi:
            cuts.add(float(h))
    ends = set()
    for s in singular:
        if lo <= s <= hi:
            ends.add(float(s))
            if s < hi:
                cuts.add(float(s))
    pts = sorted(cuts)
    many = getattr(f_log, "many", None)

    def round_logs(xs):
        # a round whose every node rounds onto an end (on segments one ulp
        # wide) asks for no abscissa
        if not xs:
            return []
        return list(many(xs)) if many is not None else [f_log(x) for x in xs]

    # First pass: a Gauss-Kronrod panel on each segment, or tanh-sinh level 0
    # at a singular end; the values stay in log space until the shared scale
    # is known.  The same round takes levels 1 and 2 of every singular
    # segment, which never stops at level 0; their values wait for the scale
    # and the budgets, which the first pass alone sets.  It also takes each
    # end that a tanh-sinh node rounds onto, once: level 1 reaches every end
    # a later level does (see _de_points).
    first, xs = [], []
    rounded = {}  # those ends, in the order the round takes them
    for a, b in zip(pts[:-1], pts[1:]):
        de = a in ends or b in ends
        seg_xs, ws, seg_ends = _de_points(a, b, 0) if de else (_gk_points(a, b), None, ())
        first.append((a, b, de, ws, seg_ends, len(xs)))
        xs += seg_xs
        rounded.update((e, None) for e, _w in seg_ends)
    n_first, n_first_ends = len(xs), len(rounded)
    early = []  # per singular segment and level: (weights, slice of the round, ends)
    for a, b, de, *_ in first:
        if de:
            levels = []
            for level in range(1, min(_de_top_level(quad), 2) + 1):
                seg_xs, ws, seg_ends = _de_points(a, b, level)
                levels.append((ws, slice(len(xs), len(xs) + len(seg_xs)), seg_ends))
                xs += seg_xs
                rounded.update((e, None) for e, _w in seg_ends)
            early.append(levels)
    n_xs = len(xs)
    fs = round_logs(xs + list(rounded))
    ref = max(fs[:n_first] + fs[n_xs:n_xs + n_first_ends])
    if ref == LOG_ZERO:
        return LOG_ZERO

    def scaled(vs):
        return [0.0 if v == LOG_ZERO else math.exp(v - ref) for v in vs]

    # each segment's first estimate, and for a panel its error estimate and
    # largest value
    g = scaled(fs)
    end_g = dict(zip(rounded, g[n_xs:]))
    seg_est = []
    total0 = 0.0
    for a, b, de, ws, seg_ends, i in first:
        if de:
            seg_est.append((_de_sum(ws, g[i:i + len(ws)], seg_ends, end_g), None))
        else:
            seg_est.append(_gk_sums(g[i:i + 15], 0.5 * (b - a)))
        total0 += seg_est[-1][0]

    if total0 <= 0.0:
        return LOG_ZERO

    budget_total = quad.rel_tol * total0
    floor_share = 1.0 / (8.0 * len(first))
    # Exhaustion floor: a panel whose whole possible contribution is below
    # this is accepted outright.  At a jump, or at a singular derivative that
    # no ``singular`` point flags, the panel error only halves per bisection
    # level, as the budget does, so refinement alone would never end.
    floor_abs = budget_total / 64.0

    # Refinement, a round at a time (see the module docstring): each segment
    # is a generator that yields its next round's abscissae.
    results = [None] * len(first)
    live = []

    def advance(j, gen, vals):
        try:
            live.append((j, gen, gen.send(vals)))
        except StopIteration as stop:
            results[j] = stop.value

    early_g = iter([[(ws, g[sl], seg_ends) for ws, sl, seg_ends in levels]
                    for levels in early])
    for j, ((a, b, de, *_), est) in enumerate(zip(first, seg_est)):
        budget = budget_total * max(est[0] / total0, floor_share)
        advance(j, _tanh_sinh(a, b, est[0], next(early_g), end_g, budget, quad)
                if de else _bisect(a, b, est, budget, quad, floor_abs), None)
    while live:
        requests, live = live, []
        xs = []
        for _j, _gen, req in requests:
            xs += req
        g = scaled(round_logs(xs))
        i = 0
        for j, gen, req in requests:
            advance(j, gen, g[i:i + len(req)])
            i += len(req)

    # accepted sums in a fixed order: segment by segment, and within a
    # segment the depth-first order of a bisection stack
    acc = NeumaierSum()
    err_acc = NeumaierSum()
    failed = False
    for accepted, ok in results:
        for k, err in accepted:
            acc.add(k)
            err_acc.add(err)
        failed = failed or not ok

    total = acc.total
    log_total = LOG_ZERO if total <= 0.0 else ref + math.log(total)
    if failed:
        bound = err_acc.total
        raise QuadratureError(
            f"adaptive quadrature did not converge within depth {quad.max_depth}",
            partial_log=log_total,
            bound_log=(LOG_ZERO if bound <= 0.0 else ref + math.log(bound)),
        )
    return log_total


def _bisect(a: float, b: float, est: tuple, budget: float, quad: QuadratureSpec,
            floor_abs: float):
    """Bisect the Gauss-Kronrod panel [a, b] of first sums ``est = (K15,
    |K15 - G7|, largest value)`` until each piece fits its share of
    ``budget``, a depth at a time.

    A generator: it yields the abscissae of each depth's new panels and
    takes their scaled values.  Returns (accepted ``(sum, error)`` pairs in
    the depth-first order of a bisection stack that takes the upper half
    first, converged).
    """
    root = [a, b, est, budget, 0, None]  # the last: (sum, error) or the two halves
    level = [root]
    ok = True
    while True:
        opened = []
        for panel in level:
            a0, b0, (k, err, top), bud, depth, _ = panel
            cap = (b0 - a0) * top
            if err <= bud or err <= _ABS_FLOOR:
                panel[5] = (k, err)
            elif cap <= floor_abs:
                panel[5] = (k, cap)
            elif depth >= quad.max_depth:
                panel[5] = (k, err)
                ok = False
            else:
                opened.append(panel)
        if not opened:
            break
        halves = [pq for a0, b0, *_ in opened
                  for pq in ((a0, 0.5 * (a0 + b0)), (0.5 * (a0 + b0), b0))]
        xs = []
        for p, q in halves:
            xs += _gk_points(p, q)
        g = yield xs
        level = [[p, q, _gk_sums(g[15 * i:15 * i + 15], 0.5 * (q - p)),
                  0.5 * opened[i // 2][3], opened[i // 2][4] + 1, None]
                 for i, (p, q) in enumerate(halves)]
        for i, panel in enumerate(opened):
            panel[5] = level[2 * i:2 * i + 2]
    accepted, stack = [], [root]
    while stack:
        panel = stack.pop()
        if type(panel[5]) is tuple:
            accepted.append(panel[5])
        else:
            stack += panel[5]
    return accepted, ok


def _de_top_level(quad: QuadratureSpec) -> int:
    """The finest tanh-sinh level that ``quad`` allows."""
    return min(quad.max_depth - _DE_DEPTH_OFFSET, _DE_MAX_LEVEL)


def _tanh_sinh(a: float, b: float, s0: float, early, end_g, budget: float,
               quad: QuadratureSpec):
    """Refine a tanh-sinh level-0 sum ``s0`` on [a, b] by halving the step.

    ``early`` holds the weights, scaled values and rounded ends (see
    :func:`_de_points`) of levels 1 and 2, taken with the first pass (as far
    as ``quad`` allows them), and ``end_g`` the scaled value at each end.  A
    generator: from level 3 on it yields the abscissae of each level's new
    nodes and takes their scaled values.  Returns ([(integral, error
    estimate)], converged).
    Level k is accepted when its change ``d_k`` from the previous level fits
    the budget, which for a double-exponential rule bounds the error of the
    coarser level, or, from level 2 on, when the changes shrink and ``d_k^2 /
    d_(k-1)`` fits it: the error of a double-exponential rule falls about
    quadratically per level, so that ratio estimates the error of level k
    itself (Bailey, Jeyabalan & Li, Exp. Math. 14, 2005).
    """
    raw = s0  # weighted node sum at unit step
    prev, err, d_prev = s0, s0, math.inf
    for level in range(1, _de_top_level(quad) + 1):
        if level <= len(early):
            ws, g, ends = early[level - 1]
        else:
            xs, ws, ends = _de_points(a, b, level)
            g = yield xs
        raw += _de_sum(ws, g, ends, end_g)
        cur = raw * 2.0 ** -level
        err = abs(cur - prev)
        if err <= budget or err <= _ABS_FLOOR:
            return [(cur, err)], True
        if level >= 2 and err < d_prev and err * err / d_prev <= budget:
            return [(cur, err * err / d_prev)], True
        prev, d_prev = cur, err
    return [(prev, err)], False
