import math

import numpy as np
import pytest

from lossywave.numerics import QUADRATURE_RTOL, NumericalError, _kronrod_groups, integrate_intervals


def integrate(f, a, b, rtol=QUADRATURE_RTOL):
    """`integrate_intervals` on the one interval [a, b] of an integrand f(x)."""
    return integrate_intervals(lambda x, k: f(x), [a], [b], rtol)[0]


@pytest.mark.parametrize("degree", range(24))
def test_rule_integrates_polynomials_to_degree_23_on_one_panel(degree):
    # K15 is exact to degree 23 and its embedded G7 to degree 13
    def poly(x):
        return (degree + 1) * x**degree

    (value, gap), = _kronrod_groups(lambda x, k: poly(x), [(np.array([0.0]), np.array([1.0]))],
                                    [0])
    assert value[0] == pytest.approx(1.0, rel=1e-14)
    if degree <= 13:
        assert gap[0] <= 1e-14
        quad = integrate(poly, 0.0, 1.0)
        assert (quad.samples, list(quad.edges)) == (15, [0.0, 1.0])
    else:
        assert gap[0] > 1e-8
        assert integrate(poly, 0.0, 1.0).value == pytest.approx(1.0, rel=1e-14)


def test_rule_sine():
    assert integrate(np.sin, 0.0, np.pi).value == pytest.approx(2.0, rel=1e-9)


def test_rule_empty_and_reversed_intervals_give_zero():
    for a, b in ((1.0, 1.0), (2.0, 1.0)):
        quad = integrate(np.exp, a, b)
        assert (quad.value, quad.error, quad.samples) == (0.0, 0.0, 0)


def test_rule_underflowed_integrand_gives_zero():
    quad = integrate(lambda x: np.exp(-1e4 * (x + 1.0)), 0.0, 10.0)
    assert quad.value == 0.0
    assert quad.samples == 15


def test_rule_noisy_integrand_raises():
    # deterministic wideband noise: no panel set settles to 1e-9
    def noisy(x):
        return np.sin(1e12 * x) ** 2

    with pytest.raises(NumericalError, match="did not reach rtol"):
        integrate(noisy, 0.0, 1.0, rtol=1e-9)


def test_rule_nan_integrand_raises_at_once():
    calls = []

    def nan_beyond_half(x):
        calls.append(x.size)
        return np.where(x > 0.5, np.nan, 1.0)

    with pytest.raises(NumericalError, match="not finite"):
        integrate(nan_beyond_half, 0.0, 1.0)
    assert calls == [15]


def test_rule_error_estimate_within_rtol():
    quad = integrate(lambda x: np.exp(-(x**1.66)), 0.0, 70.0 ** (1 / 1.66))
    assert 0.0 < quad.error <= 1e-9 * quad.value
    assert quad.samples > 15
    # the panels tile the interval and their integrals sum to the value
    assert quad.edges[0] == 0.0 and quad.edges[-1] == 70.0 ** (1 / 1.66)
    assert np.all(np.diff(quad.edges) > 0.0)
    assert quad.panels.sum() == pytest.approx(quad.value, rel=1e-15)


def test_integrate_decaying_exponential():
    val = integrate(lambda x: np.exp(-x), 0.0, 80.0).value
    assert val == pytest.approx(1.0, rel=1e-9)


def test_integrate_decaying_stretched_exponential():
    # integral of exp(-x**1.66) over [0, inf) = Gamma(1 + 1/1.66)
    val = integrate(lambda x: np.exp(-(x**1.66)), 0.0, 70.0 ** (1 / 1.66)).value
    assert val == pytest.approx(math.gamma(1.0 + 1.0 / 1.66), rel=1e-7)



def test_intervals_integrate_as_each_alone():
    # one integrand call per round for all intervals; each interval refines and sums
    # as it would alone, so every Quadrature is the same bit for bit
    rates = np.array([0.5, 3.0, 40.0, 1e3])

    def f(x, k):
        return np.exp(-rates[k] * x**1.66)

    batch = integrate_intervals(f, [0.0, 0.0, 1.0, 2.0], [80.0, 10.0, 2.0, 2.0])
    for k, (a, b) in enumerate(zip([0.0, 0.0, 1.0, 2.0], [80.0, 10.0, 2.0, 2.0])):
        alone = integrate(lambda x: np.exp(-rates[k] * x**1.66), a, b)
        got = batch[k]
        assert (got.value, got.error, got.samples) == (alone.value, alone.error, alone.samples)
        assert np.array_equal(got.edges, alone.edges)
        assert np.array_equal(got.panels, alone.panels)
    assert batch[3].samples == 0 and batch[3].value == 0.0


def test_a_non_finite_interval_raises_as_run_alone():
    # a nan in the third of four intervals, reached only after its panels are refined:
    # the batch raises that interval's error, naming its r, as the interval run alone
    rs = [1e-6, 1e-3, 0.1, 10.0]

    def where(k):
        return f" at r={rs[k]!r}"

    def f(x, k):
        return np.where((k == 2) & (np.abs(x - 0.3) < 1e-3), np.nan, np.exp(-30.0 * x))

    with pytest.raises(NumericalError) as batched:
        integrate_intervals(f, [0.0] * 4, [1.0] * 4, where=where)
    with pytest.raises(NumericalError) as alone:
        integrate_intervals(lambda x, k: f(x, k + 2), [0.0], [1.0],
                            where=lambda k: where(k + 2))
    assert str(batched.value) == str(alone.value)
    assert str(batched.value).startswith("the integrand at r=0.1 is not finite at ")
