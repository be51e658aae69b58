import math
from dataclasses import asdict, replace

import numpy as np
import pytest

from lossywave import (
    CausalLaw,
    EnvelopeBoundConstants,
    PowerLaw,
    bound_coefficient,
    bound_decay_rate,
    corrected_truncation_error_bound,
    deviation_factor,
    energy_profile,
    envelope_bound_constants,
    envelope_split,
    erfcx,
    eval_alpha,
    log10_truncation_error_bound,
    model_error_report,
    power_lower_envelope,
    truncation_error_bound,
    verify_envelope,
)


class TestEnvelopeConstants:
    def test_castor_values(self, castor):
        c = envelope_bound_constants(castor, 100.0)
        pl = castor.powerlaw
        assert c.a1 == pl.a1
        assert c.a2 == pl.a2
        assert c.a0 == pytest.approx(0.7 * pl.a1 * pl.gamma * 100.0**0.66, rel=1e-14)
        assert c.a0 == pytest.approx(1.055, rel=1e-3)
        assert c.alpha_m == pytest.approx(eval_alpha(castor.causal, 100.0).real, rel=1e-14)

    def test_slope_factor_scales_linearly(self, castor):
        base = envelope_bound_constants(castor, 100.0, slope_factor=0.7)
        half = envelope_bound_constants(castor, 100.0, slope_factor=0.35)
        assert half.a0 == pytest.approx(0.5 * base.a0, rel=1e-14)

    def test_decay_rate_matches_reference(self, castor):
        c = envelope_bound_constants(castor, 100.0)
        assert bound_decay_rate(c) == pytest.approx(4.877e6, rel=2e-3)

    def test_coefficient_formula(self, castor):
        c = envelope_bound_constants(castor, 100.0)
        assert bound_coefficient(c) == pytest.approx(
            (2.0 * c.a1 / (math.pi * c.a0**2)) ** 0.25, rel=1e-14)

    @pytest.mark.parametrize("a0", [1e-300, 1e300])
    def test_coefficient_where_a0_squared_leaves_the_double_range(self, castor, a0):
        c = replace(envelope_bound_constants(castor, 100.0), a0=a0)
        expected = 10.0 ** (0.25 * math.log10(2.0 * c.a1 / math.pi) - 0.5 * math.log10(a0))
        assert bound_coefficient(c) == pytest.approx(expected, rel=1e-13)


class TestVerifyEnvelope:
    def test_holds_on_effective_support(self, castor):
        c = envelope_bound_constants(castor, 100.0)
        cut = energy_profile(castor.causal, 1e-6).top
        check = verify_envelope(castor.causal, c, cut)
        assert check.holds_lower and check.holds_upper
        assert check.worst_lower_violation == 0.0
        assert check.worst_upper_violation == 0.0

    def test_zero_slope_reduces_to_monotonicity(self, castor):
        c = envelope_bound_constants(castor, 100.0)
        flat = EnvelopeBoundConstants(m=c.m, a0=0.0, a1=c.a1, a2=c.a2, alpha_m=c.alpha_m)
        check = verify_envelope(castor.causal, flat, 1e8)
        assert check.holds_lower

    def test_lower_bound_fails_far_out(self, castor):
        # the causal attenuation grows sublinearly (~w**0.67), so the linear
        # lower envelope must eventually overtake it
        c = envelope_bound_constants(castor, 100.0)
        check = verify_envelope(castor.causal, c, 1e15)
        assert not check.holds_lower
        assert check.worst_lower_violation > 0.0
        assert check.holds_upper

    def test_requires_omega_beyond_m(self, castor):
        c = envelope_bound_constants(castor, 100.0)
        with pytest.raises(ValueError):
            verify_envelope(castor.causal, c, 50.0)


class TestTruncationBound:
    def test_strictly_decreasing_in_r(self, castor):
        c = envelope_bound_constants(castor, 100.0)
        values = [truncation_error_bound(c, r) for r in (1e-8, 1e-7, 1e-6)]
        assert values[0] > values[1] > values[2] > 0.0

    def test_coefficient_override(self, castor):
        c = envelope_bound_constants(castor, 100.0)
        rate = bound_decay_rate(c)
        expected = 0.0828 * math.exp(-rate * 1e-6) / 1e-6**0.25
        assert truncation_error_bound(c, 1e-6, coefficient=0.0828) == pytest.approx(
            expected, rel=1e-14)

    def test_zero_distance_rejected(self, castor):
        c = envelope_bound_constants(castor, 100.0)
        with pytest.raises(ValueError):
            truncation_error_bound(c, 0.0)


    def test_log10_matches_linear_value(self, castor):
        c = envelope_bound_constants(castor, 100.0)
        for r in (1e-8, 1e-6, 1e-4):
            for coefficient in (None, 0.0828):
                linear = truncation_error_bound(c, r, coefficient=coefficient)
                assert log10_truncation_error_bound(c, r, coefficient=coefficient) == \
                    pytest.approx(math.log10(linear), rel=1e-12)


class TestErfcx:
    def test_matches_direct_product_while_finite(self):
        # exp(x*x) overflows just above x = 26.6
        for x in np.linspace(0.0, 26.5, 531):
            direct = math.erfc(x) * math.exp(x * x)
            assert erfcx(float(x)) == pytest.approx(direct, rel=1e-13)

    def test_matches_scipy_beyond_overflow(self):
        special = pytest.importorskip("scipy.special")
        for x in np.geomspace(10.0, 1e12, 200):
            assert erfcx(float(x)) == pytest.approx(float(special.erfcx(x)), rel=1e-14)

    def test_rejects_negative_argument(self):
        with pytest.raises(ValueError):
            erfcx(-1.0)


def _envelope_integrals(constants, r, n=2**20):
    """Trapezoid values of the two envelope integrals of the corrected bound.

    Returns log10 of the integral over w >= M of exp(-2r(alpha_M + a0 (w - M)))
    and of the integral over w >= 0 of exp(-2r(a1 w^2 + a2 w)).  Both
    integrands are cut where the exponent reaches 80.
    """
    c = constants
    u = np.linspace(0.0, 80.0 / (2.0 * r * c.a0), n + 1)
    tail = np.trapezoid(np.exp(-2.0 * r * c.a0 * u), u)
    a, b = 2.0 * r * c.a1, 2.0 * r * c.a2
    w = np.linspace(0.0, (-b + math.sqrt(b * b + 320.0 * a)) / (2.0 * a), n + 1)
    full = np.trapezoid(np.exp(-(a * w * w + b * w)), w)
    return (math.log10(tail) - 2.0 * r * c.alpha_m / math.log(10.0),
            math.log10(full))


class TestCorrectedTruncationBound:
    @pytest.mark.parametrize("r", [1e-4, 1.0])
    def test_closed_form_matches_envelope_quadrature(self, castor, r):
        c = envelope_bound_constants(castor, 100.0)
        bound = corrected_truncation_error_bound(castor.causal, c, r)
        tail, full = _envelope_integrals(c, r)
        assert bound.log10_tail_linear == pytest.approx(tail, abs=1e-8)
        assert bound.log10_full_lower == pytest.approx(full, abs=1e-8)
        # the power-envelope tail beyond the split is negligible here, so
        # the bound reduces to the closed form with the erfcx denominator
        assert bound.log10_tail_power < bound.log10_tail_linear - 100.0
        assert bound.log10_unclipped == pytest.approx(0.5 * (tail - full), abs=1e-8)
        x = c.a2 * math.sqrt(r / (2.0 * c.a1))
        closed = (math.log10(bound_coefficient(c)) - c.alpha_m * r / math.log(10.0)
                  - 0.25 * math.log10(r) - 0.5 * math.log10(erfcx(x)))
        assert bound.log10_unclipped == pytest.approx(closed, abs=1e-10)

    def test_clipped_at_one_for_small_distance(self, castor):
        c = envelope_bound_constants(castor, 100.0)
        bound = corrected_truncation_error_bound(castor.causal, c, 1e-6)
        assert bound.log10_unclipped == pytest.approx(1.48, abs=0.01)
        assert bound.log10_bound == 0.0
        assert bound.bound == 1.0

    def test_log10_finite_where_linear_value_underflows(self, castor):
        c = envelope_bound_constants(castor, 100.0)
        bound = corrected_truncation_error_bound(castor.causal, c, 10.0)
        assert bound.bound == 0.0
        assert bound.log10_bound == pytest.approx(-391.99, abs=0.01)
        assert bound.to_dict()["log10_bound"] == bound.log10_bound

    def test_split_covers_linear_envelope(self, castor):
        c = envelope_bound_constants(castor, 100.0)
        bound = corrected_truncation_error_bound(castor.causal, c, 1.0)
        assert bound.split == envelope_split(castor.causal, 100.0) == 1e6
        check = verify_envelope(castor.causal, c, bound.split)
        assert check.holds_lower and check.holds_upper

    def test_extreme_distances(self, castor):
        c = envelope_bound_constants(castor, 100.0)
        assert corrected_truncation_error_bound(castor.causal, c, 1e-300).log10_bound == 0.0
        far = corrected_truncation_error_bound(castor.causal, c, 1e300).log10_bound
        assert math.isfinite(far) and far < -1e300

    def test_zero_distance_rejected(self, castor):
        c = envelope_bound_constants(castor, 100.0)
        with pytest.raises(ValueError):
            corrected_truncation_error_bound(castor.causal, c, 0.0)


class TestPowerLowerEnvelope:
    @pytest.mark.parametrize("gamma", [1.1, 1.66, 2.0])
    @pytest.mark.parametrize("omega", [1e2, 1e6, 1e10])
    def test_holds_beyond_omega(self, gamma, omega):
        law = CausalLaw(gamma=gamma, c0=0.15, alpha1=138.08, tau0=1e-6)
        kappa, p = power_lower_envelope(law, omega)
        assert p == pytest.approx(0.5 * (3.0 - gamma), rel=1e-15)
        w = np.geomspace(omega, 1e40, 20_000)
        assert np.all(np.real(eval_alpha(law, w)) >= kappa * w**p)

    def test_tight_far_out(self, castor):
        # the envelope becomes the large-frequency asymptote of the law
        kappa, p = power_lower_envelope(castor.causal, 1e30)
        w = 1e35
        assert kappa * w**p == pytest.approx(float(np.real(eval_alpha(castor.causal, w))),
                                             rel=1e-3)


class TestDeviationFactor:
    def test_identical_laws_vanish(self, castor):
        w = np.linspace(-20.0, 20.0, 41)
        assert np.all(deviation_factor(castor.causal, castor.causal, 1.0, w) == 0.0)

    def test_limit_is_one_when_powerlaw_dominates(self, castor):
        # at w = 1e4 the power-law attenuation exceeds the causal by ~1e4 Np/cm
        val = deviation_factor(castor.causal, castor.powerlaw, 1.0, 1e4)
        assert val == pytest.approx(1.0, rel=1e-6)

    def test_matches_expm1_identity(self, castor):
        from lossywave import alpha_difference

        rng = np.random.default_rng(5)
        for _ in range(1000):
            r = 10.0 ** rng.uniform(-6, 1)
            w = rng.uniform(-100.0, 100.0)
            got = deviation_factor(castor.causal, castor.powerlaw, r, w)
            b = alpha_difference(castor.causal, castor.powerlaw, w) * r
            ref = abs(np.exp(-b) - 1.0) ** 2
            assert abs(got - ref) <= 1e-12 * max(1.0, ref) + 1e-15
            # the displayed form |1 - 2 e^(-b1 r) cos(b2 r) + e^(-2 b1 r)|
            displayed = abs(1.0 - 2.0 * math.exp(-b.real) * math.cos(b.imag)
                            + math.exp(-2.0 * b.real))
            assert abs(displayed - got) <= 1e-12 * max(1.0, got)

    def test_castor_inner_band_scale(self, castor):
        # the inner-band supremum of the deviation factor at r = 1 sits at the
        # band edge; its square is the quantity entering the error bound
        w = np.linspace(0.0, 10.0, 100001)
        c_max = float(np.max(deviation_factor(castor.causal, castor.powerlaw, 1.0, w)))
        assert c_max**2 == pytest.approx(5.6e-13, rel=0.15)


class TestModelErrorReport:
    def test_castor_reference(self, castor):
        rep = model_error_report(energy_profile(castor.causal, 1.0), castor.powerlaw, 100.0, 6e-4)
        assert 5.0 <= rep.m_delta <= 20.0
        assert 0.5 <= rep.d2 <= 2.1
        assert 0.0125 <= rep.bound <= 0.05
        assert rep.exact_error_band_norm == pytest.approx(1.79e-4, rel=0.05)
        assert rep.dominates_sq or rep.dominates_max_c

    def test_identical_laws_give_zero_bound(self, castor):
        rep = model_error_report(energy_profile(castor.causal, 1.0), castor.causal, 100.0, 6e-4)
        assert rep.d1 == 0.0
        assert rep.d2 == 0.0
        assert rep.bound == 0.0
        assert rep.exact_error == 0.0

    def test_delta_one_edge(self, castor):
        rep = model_error_report(energy_profile(castor.causal, 1.0), castor.powerlaw, 100.0, 1.0)
        assert rep.m_delta == 0.0
        assert rep.d1 == 0.0
        assert rep.bound == pytest.approx(math.sqrt(rep.d2), rel=1e-12)

    def test_serializes_every_constant(self, castor):
        rep = model_error_report(energy_profile(castor.causal, 1.0), castor.powerlaw, 100.0, 6e-4)
        doc = asdict(rep)
        for key in ("r", "m", "delta", "m_delta", "d1", "d2", "bound", "bound_band_norm",
                    "d1_max_c", "d2_max_c", "bound_max_c", "bound_max_c_band_norm",
                    "omega_at_d1", "omega_at_d2",
                    "exact_error", "exact_error_band_norm", "dominates_sq", "dominates_max_c"):
            assert key in doc
        assert doc["omega_at_d2"] == math.inf  # supremum attained at the analytic limit

    def test_rejects_a_band_profile(self, castor):
        # a band profile's total is the band energy and its band edge stops
        # at the band's end: m_delta read 50 where the line gives 210.84
        band = energy_profile(castor.causal, 1e-2, 50.0)
        with pytest.raises(ValueError, match="line energy profile"):
            model_error_report(band, castor.powerlaw, 100.0, 6e-4)

    def test_bound_formula_consistency(self, castor):
        rep = model_error_report(energy_profile(castor.causal, 0.5), castor.powerlaw, 100.0, 1e-3)
        assert rep.bound == pytest.approx(
            math.sqrt((1.0 - rep.delta) * rep.d1 + rep.delta * rep.d2), rel=1e-12)
        assert rep.d1 == pytest.approx(rep.d1_max_c**2, rel=1e-12)
        assert rep.d2 == pytest.approx(rep.d2_max_c**2, rel=1e-12)

    @pytest.mark.parametrize("where", [0.0, 5.0, 1e3])
    def test_non_finite_deviation_raises(self, castor, monkeypatch, where):
        # one nan on a seed grid, inside the band or beyond it, is an error
        from lossywave import NumericalError, bounds

        factor = bounds.deviation_factor

        def with_nan(causal, powerlaw, r, omega):
            values = factor(causal, powerlaw, r, omega)
            values[np.asarray(omega) == omega[np.argmin(np.abs(omega - where))]] = math.nan
            return values

        monkeypatch.setattr(bounds, "deviation_factor", with_nan)
        with pytest.raises(NumericalError, match="deviation factor"):
            model_error_report(energy_profile(castor.causal, 1.0), castor.powerlaw, 100.0, 6e-4)
