import math

import pytest

from subexp import ParameterError, QuadratureError, QuadratureSpec, integrate_log


def _batched(f):
    """``f`` with a batch form that evaluates it node by node; the list
    records the length of each batch, one per round."""
    rounds = []

    def many(xs):
        rounds.append(len(xs))
        return [f(x) for x in xs]

    g = lambda t: f(t)
    g.many = many
    return g, rounds


def _counted(f):
    n = [0]

    def g(t):
        n[0] += 1
        return f(t)

    return g, n


# log of -1/log(t), the dip profile at its centre 0
_DIP = lambda t: -math.inf if t <= 0 else math.log(-1.0 / math.log(t))
_WIGGLE = lambda t: math.log(1.0 + math.sin(40.0 * t) ** 2)


def test_spec_validation():
    with pytest.raises(ParameterError):
        QuadratureSpec(rel_tol=1e-2)
    with pytest.raises(ParameterError):
        QuadratureSpec(max_depth=100)


def test_polynomial_exact():
    # a Gauss-Kronrod panel integrates polynomials of degree 22 exactly
    spec = QuadratureSpec()
    val = integrate_log(lambda t: math.log(3 * t ** 2), 0.0, 2.0, spec)
    assert math.isclose(math.exp(val), 8.0, rel_tol=1e-12)


def test_exponential():
    spec = QuadratureSpec()
    val = integrate_log(lambda t: -t, 0.0, 50.0, spec)
    # log of the integral of e^-t over [0, 50] is -1.93e-22; the check is on
    # the integral's relative error
    assert math.isclose(val, math.log(1.0 - math.exp(-50.0)), abs_tol=1e-9)


def test_log_singular_derivative_endpoint():
    # integrand -1/log(t) near 0: continuous, infinite slope at the endpoint;
    # bisection alone, and the tanh-sinh rule once 0 is flagged singular
    spec = QuadratureSpec()
    # reference: 200k-panel midpoint rule refined near 0 (geometric grid)
    import numpy as np
    edges = np.concatenate([[0.0], np.geomspace(1e-18, 0.5, 400_000)])
    mids = 0.5 * (edges[:-1] + edges[1:])
    ref = float(np.sum(-1.0 / np.log(mids) * np.diff(edges)))
    for singular in ((), (0.0,)):
        val = math.exp(integrate_log(_DIP, 0.0, 0.5, spec, singular=singular))
        assert abs(val / ref - 1.0) < 1e-8, singular


def test_singular_end_uses_few_evaluations():
    # the tanh-sinh rule needs a few dozen evaluations where bisection
    # crawls toward the singular end
    counts = {}
    for singular in ((), (0.0,)):
        f, n = _counted(_DIP)
        integrate_log(f, 0.0, 0.5, QuadratureSpec(), singular=singular)
        counts[singular] = n[0]
    assert counts[(0.0,)] <= 64
    assert counts[(0.0,)] * 4 < counts[()]


def test_singular_point_inside_range():
    # -1/log|t| on [-0.5, 0.5], singular in the middle: twice the half integral
    spec = QuadratureSpec()
    f = lambda t: -math.inf if t == 0 else math.log(-1.0 / math.log(abs(t)))
    whole = math.exp(integrate_log(f, -0.5, 0.5, spec, singular=(0.0,)))
    half = math.exp(integrate_log(f, 0.0, 0.5, spec, singular=(0.0,)))
    assert math.isclose(whole, 2.0 * half, rel_tol=1e-12)


def test_zero_integrand():
    spec = QuadratureSpec()
    assert integrate_log(lambda t: -math.inf, 0.0, 1.0, spec) == -math.inf


def test_empty_range():
    spec = QuadratureSpec()
    assert integrate_log(lambda t: 0.0, 1.0, 1.0, spec) == -math.inf


def test_hints_allow_narrow_support():
    # without the hint the first panel's 15 nodes miss the bump entirely
    spec = QuadratureSpec()
    f = lambda t: 0.0 if 0.1001 < t < 0.1002 else -math.inf
    with_hint = integrate_log(f, 0.0, 1.0, spec, hints=(0.1001, 0.1002))
    assert math.isclose(with_hint, math.log(1e-4), rel_tol=1e-6)


def test_depth_exhaustion_raises():
    # max_depth bounds bisection and, at a singular end, the step halvings
    wiggle = lambda t: math.log(1e-30 + abs(math.sin(200.0 * t)))
    dip = lambda t: -math.inf if t <= 0 else math.log(-1.0 / math.log(t))
    for f, hi, singular, depth in ((wiggle, 3.0, (), 4), (dip, 0.5, (0.0,), 3)):
        spec = QuadratureSpec(rel_tol=1e-9, max_depth=depth)
        with pytest.raises(QuadratureError) as exc:
            integrate_log(f, 0.0, hi, spec, singular=singular)
        assert math.isfinite(exc.value.partial_log)
        assert exc.value.bound_log > -math.inf


@pytest.mark.parametrize("f, hi, singular", [(_DIP, 0.5, (0.0, 0.5)), (_WIGGLE, 3.0, ())])
def test_batch_form_takes_the_same_nodes(f, hi, singular):
    # one call per round, the same nodes and the same bits: a single
    # segment refined to tanh-sinh level 3, or bisected to depth 3 and more
    spec = QuadratureSpec(rel_tol=1e-12)
    batched, rounds = _batched(f)
    plain, n = _counted(f)
    got = integrate_log(batched, 0.0, hi, spec, singular=singular)
    assert got == integrate_log(plain, 0.0, hi, spec, singular=singular)
    assert sum(rounds) == n[0]
    # levels 0 to 2 in the first round, then 3; one node of levels 1, 2 and 3
    # each rounds onto the end 0.5, which the first round evaluates once
    if singular:
        assert rounds == [28, 27]
    else:
        assert len(rounds) >= 4


@pytest.mark.parametrize("f, hi, singular, depth", [
    (_WIGGLE, 3.0, (), 3),
    (_DIP, 0.5, (0.0,), 4),
    # max_depth 2 and 1 allow no tanh-sinh level beyond 0
    (_DIP, 0.5, (0.0,), 2),
    (_DIP, 0.5, (0.0,), 1),
])
def test_batch_form_fails_alike(f, hi, singular, depth):
    spec = QuadratureSpec(rel_tol=1e-12, max_depth=depth)
    errors = []
    for g in (_batched(f)[0], f):
        with pytest.raises(QuadratureError) as exc:
            integrate_log(g, 0.0, hi, spec, singular=singular)
        errors.append((exc.value.partial_log, exc.value.bound_log))
    assert errors[0] == errors[1]
    assert math.isfinite(errors[0][0])


def test_zero_first_pass():
    # The first pass alone decides that an integral vanishes.  This dip lives
    # between level 0's nodes, where level 1 has two of its nodes; the first
    # round holds levels 1 and 2 too, so their 22 nodes are evaluated (less
    # the one of each that rounds onto the end 0.5, evaluated once), and the
    # integral is still log zero in both forms.  Level 2's 14 nodes are what
    # taking it in the first round costs an integral that vanishes.
    f = lambda t: _DIP(t) if 0.05 < t < 0.2 else -math.inf
    spec = QuadratureSpec()
    batched, rounds = _batched(f)
    assert integrate_log(batched, 0.0, 0.5, spec, singular=(0.0,)) == -math.inf
    assert rounds == [28]
    assert integrate_log(f, 0.0, 0.5, spec, singular=(0.0,)) == -math.inf



def test_each_segment_end_is_evaluated_once():
    # Near ends as large as 4^6, tanh-sinh nodes from level 0's t = 3 on
    # round onto their segment's end.  Each end, the dip centre shared by
    # the two segments too, is evaluated once per integral, in either form,
    # and both forms return the same bits.
    centre = 4.0 ** 6
    lo, hi = centre - 0.5, centre + 0.75
    got = []
    for batch in (False, True):
        seen = []
        spy = lambda t: seen.append(t) or _DIP(abs(t - centre))
        f = _batched(spy)[0] if batch else spy
        got.append(integrate_log(f, lo, hi, QuadratureSpec(rel_tol=1e-12), singular=(centre,)))
        assert [seen.count(e) for e in (lo, centre, hi)] == [1, 1, 1]
    assert got[0] == got[1]


def test_segment_one_ulp_wide():
    # On a segment one ulp wide every tanh-sinh node rounds onto an end, so
    # the first round takes the centre and the two ends, and the later rounds
    # ask for no abscissa: the batch form is not called with an empty round.
    # A jump at the end keeps the levels apart, and both forms fail alike.
    a = 1.0
    f = lambda t: -math.inf if t == a else 0.0
    spec = QuadratureSpec(rel_tol=1e-12)
    batched, rounds = _batched(f)
    errors = []
    for g in (batched, f):
        with pytest.raises(QuadratureError) as exc:
            integrate_log(g, a, math.nextafter(a, 2.0), spec, singular=(a,))
        errors.append((exc.value.partial_log, exc.value.bound_log))
    assert rounds == [3]
    assert errors[0] == errors[1]
