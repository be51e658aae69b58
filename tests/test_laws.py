import json
import math

import numpy as np
import pytest

from lossywave import (
    CausalLaw,
    MediumPreset,
    NumericalError,
    PowerLaw,
    alpha_difference_majorants,
    attenuation_rise,
    builtin_preset,
    derive_powerlaw_coeffs,
    eval_alpha,
    load_preset,
    phase_speed,
    powerlaw_phase_singularity,
    small_frequency_bound,
    wavenumber,
)
from lossywave.laws import _alpha_difference, _attenuation_and_difference, alpha_parts

from conftest import alpha1_from_a1


class TestValidation:
    def test_causal_rejects_bad_gamma(self):
        with pytest.raises(ValueError):
            CausalLaw(gamma=1.0, c0=0.15, alpha1=1.0, tau0=1e-6)
        with pytest.raises(ValueError):
            CausalLaw(gamma=2.2, c0=0.15, alpha1=1.0, tau0=1e-6)

    def test_causal_rejects_nonpositive_constants(self):
        for kw in ({"c0": 0.0}, {"alpha1": -1.0}, {"tau0": 0.0}):
            params = dict(gamma=1.5, c0=1.0, alpha1=1.0, tau0=1e-6)
            params.update(kw)
            with pytest.raises(ValueError):
                CausalLaw(**params)

    def test_powerlaw_accepts_gamma_two_and_lossless(self):
        PowerLaw(gamma=2.0, a1=0.1, a2=0.2, c0=1.0)
        PowerLaw(gamma=1.5, a1=0.0, a2=0.0, c0=1.0)

    def test_powerlaw_rejects_negative_coefficients(self):
        with pytest.raises(ValueError):
            PowerLaw(gamma=1.5, a1=-0.1, a2=0.0, c0=1.0)

    def test_preset_consistency_enforced(self, castor):
        # the power law is derived on construction: no pair can be passed in
        mismatched = PowerLaw(gamma=1.66, a1=0.05, a2=900.0, c0=0.15)
        for powerlaw in (mismatched, castor.powerlaw):
            with pytest.raises(TypeError):
                MediumPreset("broken", castor.causal, powerlaw)
            with pytest.raises(TypeError):
                MediumPreset(name="broken", causal=castor.causal, powerlaw=powerlaw)

    def test_preset_rejects_a_causal_law_without_a_finite_derived_power_law(self):
        # a2 = alpha1/c0 = 1e310 leaves the double range; so does a1 = a2*tau0/2 = 5e309 at
        # gamma = 2, tau0 = 1e300, where a2 = 1e10 is a double
        for causal, formula in (
                (CausalLaw(gamma=1.5, c0=1e-10, alpha1=1e300, tau0=1e-6), "a2 = alpha1/c0"),
                (CausalLaw(gamma=2.0, c0=1.0, alpha1=1e10, tau0=1e300),
                 "a1 = alpha1*tau0**(gamma-1)*|cos(gamma*pi/2)|/(2*c0)")):
            with pytest.raises(ValueError) as err:
                MediumPreset("x", causal)
            assert str(err.value) == (f"the derived power law leaves the doubles: {formula} "
                                      f"overflows for {causal}")


class TestDeriveCoefficients:
    def test_castor_values(self, castor):
        a1, a2 = derive_powerlaw_coeffs(castor.causal)
        assert a1 == pytest.approx(0.04344, rel=5e-3)
        assert a2 == pytest.approx(920.55, rel=5e-3)

    def test_half_power_example(self):
        # independent scalar evaluation: a1 = 2*sqrt(1e-3)*|cos(3*pi/4)|/2 = sqrt(5e-4)
        a1, a2 = derive_powerlaw_coeffs(CausalLaw(gamma=1.5, c0=1.0, alpha1=2.0, tau0=1e-3))
        assert a1 == pytest.approx(math.sqrt(5e-4), rel=1e-14)
        assert a2 == pytest.approx(2.0, rel=1e-14)

    def test_linear_in_alpha1(self):
        lo = CausalLaw(gamma=1.7, c0=0.2, alpha1=1e-9, tau0=1e-6)
        hi = CausalLaw(gamma=1.7, c0=0.2, alpha1=3e-9, tau0=1e-6)
        a1_lo, a2_lo = derive_powerlaw_coeffs(lo)
        a1_hi, a2_hi = derive_powerlaw_coeffs(hi)
        assert a1_hi == pytest.approx(3.0 * a1_lo, rel=1e-12)
        assert a2_hi == pytest.approx(3.0 * a2_lo, rel=1e-12)

    def test_round_trip_alpha1(self, castor):
        a1, _ = derive_powerlaw_coeffs(castor.causal)
        back = alpha1_from_a1(a1, castor.causal.gamma, castor.causal.c0, castor.causal.tau0)
        assert back == pytest.approx(castor.causal.alpha1, rel=1e-12)


class TestEvalAlpha:
    def test_zero_frequency_is_zero(self, castor):
        assert eval_alpha(castor.causal, 0.0) == 0.0 + 0.0j
        assert eval_alpha(castor.powerlaw, 0.0) == 0.0 + 0.0j

    def test_rejects_non_finite(self, castor):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError):
                eval_alpha(castor.causal, bad)

    def test_gamma_two_is_thermoviscous_quadratic(self):
        law = PowerLaw(gamma=2.0, a1=0.3, a2=0.7, c0=1.0)
        w = np.array([-5.0, 0.5, 12.0])
        expected = 0.3 * w**2 - 1j * 0.7 * w
        assert np.allclose(eval_alpha(law, w), expected, rtol=1e-15)

    def test_small_frequency_attenuation_matches_powerlaw(self, castor):
        # |tau0*w|^(gamma-1) ~ 5e-4 at w = 10: the power-law attenuation is a
        # sub-0.1% approximation of the causal one there
        re_causal = eval_alpha(castor.causal, 10.0).real
        re_power = castor.powerlaw.a1 * 10.0**1.66
        assert re_causal == pytest.approx(re_power, rel=1e-3)

    def test_hermitian_symmetry_random(self, castor):
        # both parts are formed at |w| and Im takes the sign of w: exact symmetry
        rng = np.random.default_rng(42)
        w = rng.uniform(-1e7, 1e7, size=1000)
        for law in (castor.causal, castor.powerlaw):
            assert np.array_equal(eval_alpha(law, -w), np.conj(eval_alpha(law, w)))

    def test_attenuation_positive(self, castor):
        rng = np.random.default_rng(3)
        w = rng.uniform(-1e7, 1e7, size=500)
        w = w[w != 0.0]
        for law in (castor.causal, castor.powerlaw):
            assert np.all(np.real(eval_alpha(law, w)) > 0.0)

    def test_small_frequency_agreement_two_percent(self, castor):
        # on |tau0*w|^(gamma-1) <= 0.01 the two laws differ by well under 2%
        w_max = 0.01 ** (1.0 / 0.66) / castor.causal.tau0
        w = np.geomspace(1e-3, w_max, 400)
        ac = eval_alpha(castor.causal, w)
        apl = eval_alpha(castor.powerlaw, w)
        assert np.max(np.abs(ac - apl) / np.abs(apl)) <= 0.02

    def test_asymptotic_growth_exponent(self, castor):
        # Re alpha / w**((3-gamma)/2) settles to a positive constant at large w
        w = np.geomspace(1e8, 1e12, 9)
        ratio = np.real(eval_alpha(castor.causal, w)) / w ** ((3.0 - 1.66) / 2.0)
        assert np.all(ratio > 0.0)
        assert abs(ratio[-1] / ratio[-2] - 1.0) < 1e-3
        assert abs(ratio[1] / ratio[0] - 1.0) > 1e-2  # still drifting at the low end


class TestAlphaDifference:
    def test_each_node_is_formed_alone(self, castor):
        # numpy rounds the complex products of a one-element array apart from those of
        # longer ones; batched passes need every node's value to be that of the node alone
        w = np.geomspace(1e-3, 1e10, 400)  # both branches, |u| from 1e-9 to 2e2
        alone = np.array([_alpha_difference(castor.causal, w[i:i + 1])[0] for i in range(w.size)])
        assert np.array_equal(_alpha_difference(castor.causal, w), alone)

    def test_attenuation_and_difference_share_one_reduced_evaluation(self, castor):
        w = np.geomspace(1e-3, 1e10, 400)
        re, b = _attenuation_and_difference(castor.causal, w)
        assert np.array_equal(re, alpha_parts(castor.causal, w)[0])
        assert np.array_equal(b, _alpha_difference(castor.causal, w))

    def test_matches_plain_difference_at_moderate_frequencies(self, castor):
        # the plain difference keeps ~3 digits of headroom here, enough to
        # validate the series path against it
        w = np.geomspace(2e4, 2e6, 25)
        stable = _alpha_difference(castor.causal, w)
        plain = eval_alpha(castor.powerlaw, w) - eval_alpha(castor.causal, w)
        assert np.max(np.abs(stable - plain) / np.abs(plain)) <= 1e-10

    def test_continuous_across_series_switch(self, castor):
        w = np.linspace(900.0, 970.0, 141)  # |u| crosses 0.01 near 933
        v = _alpha_difference(castor.causal, w)
        steps = np.abs(np.diff(v)) / np.abs(v[:-1])
        assert np.max(steps) <= 5.0 * np.median(steps)

    def test_leading_order_magnitude(self, castor):
        # |diff| ~ (3/8) |u|^2 * (alpha1/c0) * w for small u
        w = 10.0
        u = (-1j * castor.causal.tau0 * w) ** (castor.causal.gamma - 1.0)
        predicted = 0.375 * abs(u) ** 2 * (castor.causal.alpha1 / castor.causal.c0) * w
        got = abs(_alpha_difference(castor.causal, w))
        assert got == pytest.approx(predicted, rel=1e-3)



class TestAlphaDifferenceSlopeBound:
    @pytest.mark.parametrize("gamma", [1.05, 1.3, 1.66, 2.0])
    def test_bounds_every_chord(self, gamma):
        # |b(w2) - b(w1)| <= B(w2)*(w2 - w1): B bounds |b'| on [0, w2]
        causal = CausalLaw(gamma=gamma, c0=0.15, alpha1=138.08, tau0=1e-6)
        w = np.geomspace(1e-3, 1e12, 30001)
        b = _alpha_difference(causal, w)
        chords = np.abs(np.diff(b)) / np.diff(w)
        assert np.all(chords <= alpha_difference_majorants(causal, w[:-1], w[1:])[0]
                      * (1.0 + 1e-9))

    def test_leading_term_at_small_frequency(self, castor):
        # at |u| = 1e-4 the bound is the slope of (3/8)(alpha1/c0)*w*|u|**2 to 1e-3
        w = 1e6 * 1e-4 ** (1.0 / 0.66)
        h = 1e-6 * w
        b = _alpha_difference(castor.causal, np.array([w - h, w]))
        slope = abs(b[1] - b[0]) / h
        assert slope == pytest.approx(alpha_difference_majorants(castor.causal, w - h, w)[0],
                                      rel=1e-3)


class TestAlphaDifferenceCurvatureBound:
    def test_infinite_where_the_cell_reaches_zero(self, castor):
        _, bound = alpha_difference_majorants(castor.causal, np.array([0.0, 1.0]),
                                              np.array([1.0, 2.0]))
        assert bound[0] == math.inf and 0.0 < bound[1] < math.inf

    def test_leading_term_at_small_frequency(self, castor):
        # at |u| = 1e-4 the bound on the one-point cell [w, w] is the second difference of b to 1e-3
        w = 1e6 * 1e-4 ** (1.0 / 0.66)
        h = 1e-3 * w
        b = _alpha_difference(castor.causal, np.array([w - h, w, w + h]))
        curvature = abs(b[0] - 2.0 * b[1] + b[2]) / h**2
        assert curvature == pytest.approx(alpha_difference_majorants(castor.causal, w, w)[1],
                                          rel=1e-3)


class TestAttenuationRise:
    def test_matches_plain_difference_over_wide_steps(self, castor):
        h = np.geomspace(1.0, 1e9, 19)
        for law in (castor.causal, castor.powerlaw):
            for lo in (0.0, 3.0, 100.0, 1e7):
                top = np.real(eval_alpha(law, lo + h))
                plain = top - np.real(eval_alpha(law, lo))
                # the plain difference carries rounding of order eps*top
                got = attenuation_rise(law, lo)(h)
                assert np.all(np.abs(got - plain) <= 1e-12 * plain + 1e-14 * top)

    def test_tiny_steps_follow_the_slope(self, castor):
        # a step of 1e-13*lo leaves the plain difference with ~1e-3 relative
        # rounding; the rise must be slope*h to the curvature term
        lo, h = 100.0, 1e-11
        for law in (castor.causal, castor.powerlaw):
            step = 1e-3
            slope = (np.real(eval_alpha(law, lo + step))
                     - np.real(eval_alpha(law, lo - step))) / (2.0 * step)
            assert attenuation_rise(law, lo)(h) == pytest.approx(slope * h, rel=1e-7)

    def test_quadratic_power_law_is_exact(self):
        law = PowerLaw(gamma=2.0, a1=0.5, a2=3.0, c0=0.15)
        assert attenuation_rise(law, 2.0)(1.0) == pytest.approx(0.5 * (9.0 - 4.0), rel=1e-15)


class TestPhaseSpeed:
    def test_low_frequency_limit(self, castor):
        limit = 1.0 / (1.0 / castor.causal.c0 + castor.powerlaw.a2)
        for law in (castor.causal, castor.powerlaw):
            assert phase_speed(law, 1e-6) == pytest.approx(limit, rel=1e-5)
        assert limit == pytest.approx(1.0785e-3, rel=1e-4)

    def test_even_symmetry(self, castor):
        for w in (0.5, 12.0, 4e3):
            assert phase_speed(castor.causal, -w) == pytest.approx(
                phase_speed(castor.causal, w), rel=1e-14)

    def test_rejects_zero(self, castor):
        with pytest.raises(ValueError):
            phase_speed(castor.causal, 0.0)

    def test_powerlaw_singularity_raises_at_pole(self, castor):
        pole = powerlaw_phase_singularity(castor.powerlaw)
        with pytest.raises(ValueError):
            phase_speed(castor.powerlaw, pole)

    def test_causal_wavenumber_never_vanishes(self, castor):
        w = np.geomspace(1.0, 1e8, 2000)
        assert np.all(wavenumber(castor.causal, w) > 0.0)


class TestPhaseSingularity:
    def test_castor_location(self, castor):
        assert 7.79e6 <= powerlaw_phase_singularity(castor.powerlaw) <= 8.11e6

    def test_unit_example(self):
        law = PowerLaw(gamma=1.5, a1=1.0, a2=0.0, c0=1.0)
        assert powerlaw_phase_singularity(law) == pytest.approx(1.0, rel=1e-9)

    def test_scaling_in_a1(self, castor):
        pl = castor.powerlaw
        doubled = PowerLaw(gamma=pl.gamma, a1=2.0 * pl.a1, a2=pl.a2, c0=pl.c0)
        w1 = powerlaw_phase_singularity(pl)
        w2 = powerlaw_phase_singularity(doubled)
        assert w2 == pytest.approx(w1 * 2.0 ** (-1.0 / (pl.gamma - 1.0)), rel=1e-9)

    @pytest.mark.parametrize("gamma", [None, 1.1, 1.5, 1.9])
    def test_closed_form_is_wavenumber_root(self, castor, gamma):
        # gamma None is castor oil itself; the others vary its gamma only
        preset = castor if gamma is None else MediumPreset(
            "varied", CausalLaw(gamma=gamma, c0=castor.causal.c0,
                                alpha1=castor.causal.alpha1, tau0=castor.causal.tau0))
        law = preset.powerlaw
        root = powerlaw_phase_singularity(law)
        assert abs(wavenumber(law, root)) <= 1e-9 * root * (1.0 / law.c0 + law.a2)

    def test_gamma_two_has_no_singularity(self):
        with pytest.raises(ValueError):
            powerlaw_phase_singularity(PowerLaw(gamma=2.0, a1=0.1, a2=0.1, c0=1.0))


class TestSmallFrequencyBound:
    @pytest.mark.parametrize("gamma,expected", [(1.1, 1e-4), (1.5, 1e4), (2.0, 1e5)])
    def test_reference_rows(self, gamma, expected):
        assert small_frequency_bound(gamma, 1e-6) == pytest.approx(expected, rel=1e-12)

    def test_tighter_threshold(self):
        assert small_frequency_bound(1.5, 1e-6, threshold=0.01) == pytest.approx(1e2, rel=1e-12)

    def test_rejects_gamma_at_most_one(self):
        with pytest.raises(ValueError):
            small_frequency_bound(1.0, 1e-6)

    @pytest.mark.parametrize("gamma", [2.0 + 1e-12, 3.0, math.inf, math.nan])
    def test_rejects_gamma_beyond_the_law_domain(self, gamma):
        with pytest.raises(ValueError, match=r"gamma must lie in \(1, 2\]"):
            small_frequency_bound(gamma, 1e-6)

    @pytest.mark.parametrize("tau0", [0.0, -1e-6, math.inf, math.nan])
    def test_rejects_tau0_that_is_not_finite_and_positive(self, tau0):
        with pytest.raises(ValueError, match="tau0 must be finite and positive"):
            small_frequency_bound(1.5, tau0)

    @pytest.mark.parametrize("gamma,tau0", [(1.1, 1e-320), (1.5, 5e-324), (2.0, 1e-310)])
    def test_bound_beyond_the_largest_double_raises(self, gamma, tau0):
        with pytest.raises(NumericalError, match="exceeds the largest double"):
            small_frequency_bound(gamma, tau0)
        # a bound just inside the double range is returned
        assert small_frequency_bound(2.0, 1e-308) == pytest.approx(1e307, rel=1e-12)

    @pytest.mark.parametrize("gamma,tau0", [(1.0001, 1e-6), (1.5, 1e306), (1.0025, 1e10)])
    def test_bound_below_the_smallest_normal_double_raises(self, gamma, tau0):
        # 0.1**10000 / 1e-6 and 0.01 / 1e306 wrote 0 or a subnormal
        with pytest.raises(NumericalError, match="lies below the smallest normal double"):
            small_frequency_bound(gamma, tau0)

    def test_bound_where_only_the_power_underflows(self):
        # 0.1**400 underflows to 0 although 0.1**400 / 1e-300 = 1e-100 does not
        gamma = 1.0025
        got = small_frequency_bound(gamma, 1e-300)
        assert got == pytest.approx(10.0 ** (300.0 - 1.0 / (gamma - 1.0)), rel=1e-12)


class TestPresets:
    def test_builtin_castor(self, castor):
        assert castor.name == "castor-oil"
        assert castor.causal.gamma == 1.66
        assert castor.powerlaw.c0 == castor.causal.c0

    def test_unknown_builtin(self):
        with pytest.raises(ValueError):
            load_preset("olive-oil")

    def test_load_from_json(self, tmp_path):
        doc = {"name": "demo", "gamma": 1.5, "c0": 1.0, "alpha1": 2.0, "tau0": 1e-3}
        path = tmp_path / "demo.json"
        path.write_text(json.dumps(doc))
        preset = load_preset(path)
        assert preset.name == "demo"
        assert preset.powerlaw.a1 == pytest.approx(math.sqrt(5e-4), rel=1e-14)

    def test_load_rejects_missing_fields(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"name": "x", "gamma": 1.5}))
        with pytest.raises(ValueError):
            load_preset(path)
