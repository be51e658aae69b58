import math

import numpy as np
import pytest

from lossywave.numerics import (
    NumericalError,
    gauss_kronrod,
    bisect_root,
    complex_expm1,
    integrate_decaying,
    scan_max,
)


@pytest.mark.parametrize("degree", range(24))
def test_rule_integrates_polynomials_to_degree_23_on_one_panel(degree):
    # K15 is exact to degree 23 and its embedded G7 to degree 13
    def poly(x):
        return (degree + 1) * x**degree

    value, gap = gauss_kronrod(poly, np.array([0.0]), np.array([1.0]))
    assert value[0] == pytest.approx(1.0, rel=1e-14)
    if degree <= 13:
        assert gap[0] <= 1e-14
        quad = integrate_decaying(poly, 0.0, 1.0)
        assert (quad.samples, list(quad.edges)) == (15, [0.0, 1.0])
    else:
        assert gap[0] > 1e-8
        assert integrate_decaying(poly, 0.0, 1.0).value == pytest.approx(1.0, rel=1e-14)


def test_rule_sine():
    assert integrate_decaying(np.sin, 0.0, np.pi).value == pytest.approx(2.0, rel=1e-9)


def test_rule_empty_and_reversed_intervals_give_zero():
    for a, b in ((1.0, 1.0), (2.0, 1.0)):
        quad = integrate_decaying(np.exp, a, b)
        assert (quad.value, quad.error, quad.samples) == (0.0, 0.0, 0)


def test_rule_underflowed_integrand_gives_zero():
    quad = integrate_decaying(lambda x: np.exp(-1e4 * (x + 1.0)), 0.0, 10.0)
    assert quad.value == 0.0
    assert quad.samples == 15


def test_rule_noisy_integrand_raises():
    # deterministic wideband noise: no panel set settles to 1e-9
    def noisy(x):
        return np.sin(1e12 * x) ** 2

    with pytest.raises(NumericalError, match="did not reach rtol"):
        integrate_decaying(noisy, 0.0, 1.0, rtol=1e-9)


def test_rule_nan_integrand_raises_at_once():
    calls = []

    def nan_beyond_half(x):
        calls.append(x.size)
        return np.where(x > 0.5, np.nan, 1.0)

    with pytest.raises(NumericalError, match="not finite"):
        integrate_decaying(nan_beyond_half, 0.0, 1.0)
    assert calls == [15]


def test_rule_error_estimate_within_rtol():
    quad = integrate_decaying(lambda x: np.exp(-(x**1.66)), 0.0, 70.0 ** (1 / 1.66))
    assert 0.0 < quad.error <= 1e-9 * quad.value
    assert quad.samples > 15
    # the panels tile the interval and their integrals sum to the value
    assert quad.edges[0] == 0.0 and quad.edges[-1] == 70.0 ** (1 / 1.66)
    assert np.all(np.diff(quad.edges) > 0.0)
    assert quad.panels.sum() == pytest.approx(quad.value, rel=1e-15)


def test_integrate_decaying_exponential():
    val = integrate_decaying(lambda x: np.exp(-x), 0.0, 80.0).value
    assert val == pytest.approx(1.0, rel=1e-9)


def test_integrate_decaying_stretched_exponential():
    # integral of exp(-x**1.66) over [0, inf) = Gamma(1 + 1/1.66)
    val = integrate_decaying(lambda x: np.exp(-(x**1.66)), 0.0, 70.0 ** (1 / 1.66)).value
    assert val == pytest.approx(math.gamma(1.0 + 1.0 / 1.66), rel=1e-7)


def test_bisect_root_cosine():
    assert bisect_root(math.cos, 0.0, 2.0) == pytest.approx(math.pi / 2.0, rel=1e-12)


def test_bisect_root_endpoint():
    assert bisect_root(lambda x: x, 0.0, 1.0) == 0.0


def test_bisect_root_unbracketed():
    with pytest.raises(NumericalError):
        bisect_root(lambda x: 1.0 + x**2, 0.0, 1.0)


def test_bisect_root_raises_when_iterations_run_out():
    # 200 halvings of [1e-300, 1] leave a bracket near 6e-61, far above the root
    with pytest.raises(NumericalError, match="did not reach rtol"):
        bisect_root(lambda x: x - 1e-100, 1e-300, 1.0, rtol=1e-9)


def test_bisect_solves_flat_spectrum_band_energy():
    # flat spectrum of amplitude A hard-cut at Omega: band energy 2*m*A**2,
    # so the band edge holding (1-delta) of the energy is exactly (1-delta)*Omega
    omega, amp, delta = 37.5, 0.25, 6e-4
    full = 2.0 * omega * amp**2

    def energy_gap(m):
        return 2.0 * m * amp**2 - (1.0 - delta) * full

    root = bisect_root(energy_gap, 0.0, omega, rtol=1e-15)
    assert root == pytest.approx((1.0 - delta) * omega, rel=1e-9)


def test_scan_max_parabola():
    # a coarse seed grid leaves the refinement rounds to locate the peak
    x, fx = scan_max(lambda t: -((t - 1.3) ** 2), 0.0, 2.0, n_grid=11)
    assert x == pytest.approx(1.3, abs=1e-9)
    assert fx == pytest.approx(0.0, abs=1e-12)


def test_scan_max_matches_known_peak():
    x, fx = scan_max(lambda t: np.exp(-((t - 4.0) ** 2)), 0.0, 10.0, n_grid=1001)
    assert x == pytest.approx(4.0, abs=1e-6)
    assert fx == pytest.approx(1.0, rel=1e-10)


def test_complex_expm1_small_argument():
    z = 1e-9 * np.exp(1j * 0.7)
    exact = z + z**2 / 2.0 + z**3 / 6.0
    assert abs(complex_expm1(z) - exact) <= 1e-12 * abs(exact)


def test_complex_expm1_moderate_argument():
    z = 0.3 - 1.2j
    assert complex_expm1(z) == pytest.approx(np.exp(z) - 1.0, rel=1e-14)
