"""Closed-form tests of the benchmark's reference computations.

A wrong oracle could pass a faulty program or fail a correct one, so each
reference path is checked here against a value known in closed form.
Run with `python -m pytest bench/test_reference.py -q` from the repository root.
"""

import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import reference as ref  # noqa: E402

CASTOR = ref.Medium(gamma=1.66, c0=0.15, alpha1=138.08, tau0=1e-6)


def erfcx(x):
    """exp(x**2)*erfc(x) from math.erfc, where the product is finite."""
    assert 0.0 <= x <= 26.0
    return math.exp(x * x) * math.erfc(x)


@pytest.mark.parametrize("r", [1e-6, 1e-4, 1e-2, 1.0, 10.0])
def test_exponential_half_line(r):
    a2 = CASTOR.a2
    got = ref.log_decay_integral(lambda w: a2 * w, r, 0.0)
    assert got == pytest.approx(-math.log(2.0 * r * a2), abs=1e-12)


@pytest.mark.parametrize("r", [1e-6, 1e-2, 10.0])
def test_exponential_tail_in_log_space(r):
    # at r = 10 the tail is exp(-1.8e6): only its log is representable
    a2, m = CASTOR.a2, 100.0
    got = ref.log_decay_integral(lambda w: a2 * w, r, m)
    want = -2.0 * r * a2 * m - math.log(2.0 * r * a2)
    assert got == pytest.approx(want, rel=1e-13, abs=1e-11)


@pytest.mark.parametrize("r, a2", [(1e-8, 920.53), (1e-6, 920.53), (1e-5, 920.53),
                                   (1e-2, 10.0), (1.0, 1.0)])
def test_upper_envelope_gaussian(r, a2):
    a1 = CASTOR.a1
    x = a2 * math.sqrt(r / (2.0 * a1))
    want = math.sqrt(math.pi / (8.0 * r * a1)) * erfcx(x)
    got = ref.log_decay_integral(lambda w: a1 * w * w + a2 * w, r, 0.0)
    assert got == pytest.approx(math.log(want), abs=1e-12)


@pytest.mark.parametrize("r", [1e-4, 1e-2, 1.0, 10.0])
def test_gamma_two_power_law_energy(r):
    med = ref.Medium(gamma=2.0, c0=0.15, alpha1=138.08, tau0=1e-6)
    got = ref.log_decay_integral(ref.attenuation(med, "power-law"), r, 0.0)
    assert got == pytest.approx(0.5 * math.log(math.pi / (8.0 * r * med.a1)), abs=1e-12)


def test_graded_rule_on_endpoint_singularity_and_oscillation():
    assert ref.integrate(lambda x: x**0.66, 0.0, 1.0) == pytest.approx(1.0 / 1.66, rel=1e-13)
    assert ref.integrate(np.sin, 0.0, math.pi) == pytest.approx(2.0, rel=1e-13)


def test_band_and_tail_fractions_add_up():
    for r in (1e-4, 1.0):
        band = ref.band_over_full(CASTOR, r, 100.0) ** 2
        tail = ref.tail_fraction(CASTOR, r, 100.0)
        assert band + tail == pytest.approx(1.0, rel=1e-12)


def test_laws_closed_forms():
    w = np.array([-50.0, -0.3, 0.7, 20.0, 3e4])
    for law in ("causal", "power-law"):
        a = ref.alpha(CASTOR, law, w)
        assert np.allclose(ref.alpha(CASTOR, law, -w), np.conj(a), rtol=1e-15, atol=0.0)
    # gamma = 2: (-i tau0 w)**1 is exact, and the power law is a1 w**2 - i a2 w
    med = ref.Medium(gamma=2.0, c0=0.15, alpha1=138.08, tau0=1e-6)
    direct = (med.alpha1 / med.c0) * (-1j * w) / np.sqrt(1.0 - 1j * med.tau0 * w)
    assert np.allclose(ref.causal_alpha(med, w), direct, rtol=1e-15, atol=0.0)
    assert np.allclose(ref.powerlaw_alpha(med, w), med.a1 * w**2 - 1j * med.a2 * w,
                       rtol=1e-15, atol=0.0)
    # the power law is the small-frequency limit of the causal law
    small = np.array([1e-3, 1e-1, 10.0])
    rel = np.abs(ref.causal_alpha(CASTOR, small) / ref.powerlaw_alpha(CASTOR, small) - 1.0)
    assert np.all(rel < 3.0 * np.abs(CASTOR.tau0 * small) ** (2.0 * (CASTOR.gamma - 1.0)))


def test_alpha_gap_against_series_and_plain_difference():
    # small u: 1 - u/2 - (1+u)**-0.5 = -(3/8)u**2 + (5/16)u**3 - ...
    w = np.array([1e-6, 1e-3, 1.0])
    u = (-1j * CASTOR.tau0 * w) ** (CASTOR.gamma - 1.0)
    series = (CASTOR.a2 * (-1j * w)) * (-(3.0 / 8.0) * u**2 + (5.0 / 16.0) * u**3
                                        - (35.0 / 128.0) * u**4)
    assert np.allclose(ref.alpha_gap(CASTOR, w), series, rtol=1e-10, atol=0.0)
    # large w: the plain difference keeps its digits
    big = np.array([1e5, 1e7, 1e9])
    plain = ref.powerlaw_alpha(CASTOR, big) - ref.causal_alpha(CASTOR, big)
    assert np.allclose(ref.alpha_gap(CASTOR, big), plain, rtol=1e-12, atol=0.0)


def test_expm1_abs_sq():
    z = np.array([0.3 - 2.0j, -1.5 + 0.2j, 2.0 + 3.0j])
    assert np.allclose(ref.expm1_abs_sq(z), np.abs(np.exp(z) - 1.0) ** 2, rtol=1e-14, atol=0.0)
    tiny = np.array([1e-20 + 3e-21j, -2e-30j])
    assert np.allclose(ref.expm1_abs_sq(tiny), np.abs(tiny) ** 2, rtol=1e-14, atol=0.0)


def test_phase_pole_is_a_root_of_the_wavenumber():
    pole = ref.phase_pole(CASTOR)
    k, scale = ref.wavenumber(CASTOR, "power-law", pole)
    assert abs(k) <= 1e-13 * scale
    assert 0.98 * 7.950959e6 <= pole <= 1.02 * 7.950959e6  # the published pole


def test_synthesis_of_a_delta_and_parseval():
    # a delta at t = c has spectrum exp(i w c)/sqrt(2 pi); it lands on sample c/dt
    omega_max, n, j = 100.0, 256, 37
    dt = math.pi / omega_max
    w = ref.grid_omegas(omega_max, n)
    g = ref.synthesize(ref.forcing_hat("delta", w, j * dt, 0.0, 0.0), omega_max)
    assert int(np.argmax(g)) == j
    spec = ref.forcing_hat("gaussian-modulated-sine", w, 1.0, 0.2, 20.0)
    g = ref.synthesize(spec, omega_max)
    assert np.sum(g**2) * dt == pytest.approx(np.sum(np.abs(spec) ** 2) * (2 * omega_max / n),
                                              rel=1e-13)


def test_truncation_lower_bound_is_below_the_reference_error():
    for r in (1e-6, 1e-4, 1e-2, 1.0, 10.0):
        assert ref.truncation_lower_bound_log10(CASTOR, r, 100.0) <= ref.log10_truncation_error(
            CASTOR, r, 100.0)
