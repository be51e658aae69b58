import math
import sys
import warnings
from dataclasses import asdict, replace
from fractions import Fraction

import numpy as np
import pytest

from lossywave import (
    CausalLaw,
    EnvelopeBoundConstants,
    EnvelopeCheck,
    PowerLaw,
    corrected_truncation_error_bound,
    deviation_factor,
    energy_profiles,
    eval_alpha,
    log10_truncation_error_bound,
    model_error_reports,
    power_lower_envelope,
    verify_envelope,
)


class TestEnvelopeConstants:
    def test_castor_values(self, castor):
        c = EnvelopeBoundConstants(castor.causal, 100.0)
        pl = castor.powerlaw
        assert c.a1 == pl.a1
        assert c.a2 == pl.a2
        assert c.a0 == pytest.approx(0.7 * pl.a1 * pl.gamma * 100.0**0.66, rel=1e-14)
        assert c.a0 == pytest.approx(1.055, rel=1e-3)
        assert c.alpha_m == pytest.approx(eval_alpha(castor.causal, 100.0).real, rel=1e-14)

    def test_slope_factor_scales_linearly(self, castor):
        base = EnvelopeBoundConstants(castor.causal, 100.0, slope_factor=0.7)
        half = EnvelopeBoundConstants(castor.causal, 100.0, slope_factor=0.35)
        assert half.a0 == pytest.approx(0.5 * base.a0, rel=1e-14)

    def test_decay_rate_matches_reference(self, castor):
        c = EnvelopeBoundConstants(castor.causal, 100.0)
        assert c.bound_decay_rate == pytest.approx(4.877e6, rel=2e-3)

    def test_coefficient_formula(self, castor):
        c = EnvelopeBoundConstants(castor.causal, 100.0)
        assert c.bound_coefficient == pytest.approx(
            (2.0 * c.a1 / (math.pi * c.a0**2)) ** 0.25, rel=1e-14)

    @pytest.mark.parametrize("a0", [1e-300, 1e300])
    def test_coefficient_where_a0_squared_leaves_the_double_range(self, castor, a0):
        # a0 is linear in the slope factor, so this slope factor puts a0 near the target
        unit = EnvelopeBoundConstants(castor.causal, 100.0, slope_factor=1.0).a0
        c = EnvelopeBoundConstants(castor.causal, 100.0, slope_factor=a0 / unit)
        assert c.a0 == pytest.approx(a0, rel=1e-14)
        expected = 10.0 ** (0.25 * math.log10(2.0 * c.a1 / math.pi) - 0.5 * math.log10(c.a0))
        assert c.bound_coefficient == pytest.approx(expected, rel=1e-13)

    def test_decay_rate_where_a2_squared_leaves_the_double_range(self):
        # a2 = 1e290, so a2**2 overflows; a2**2/(4*a1), about 7e292, does not
        c = EnvelopeBoundConstants(CausalLaw(gamma=1.5, c0=1e10, alpha1=1e300, tau0=1e-6), 1e-3)
        expected = Fraction(c.alpha_m) + Fraction(c.a2) ** 2 / (4 * Fraction(c.a1))
        assert c.bound_decay_rate == pytest.approx(float(expected), rel=1e-15)

    def test_derived_fields_cannot_be_passed(self, castor):
        c = EnvelopeBoundConstants(castor.causal, 100.0)
        with pytest.raises(TypeError):
            EnvelopeBoundConstants(castor.causal, 100.0, a0=1.0)
        with pytest.raises(ValueError):
            replace(c, a0=1.0)
        assert replace(c, slope_factor=0.35).a0 == pytest.approx(0.5 * c.a0, rel=1e-14)


class TestVerifyEnvelope:
    def test_holds_on_effective_support(self, castor):
        c = EnvelopeBoundConstants(castor.causal, 100.0)
        cut = energy_profiles(castor.causal, [1e-6])[0].top
        check = verify_envelope(c, cut)
        assert check.holds_lower and check.holds_upper
        assert check.worst_lower_violation == 0.0
        assert check.worst_upper_violation == 0.0

    def test_zero_slope_reduces_to_monotonicity(self, castor):
        flat = EnvelopeBoundConstants(castor.causal, 100.0, slope_factor=1e-300)
        assert flat.a0 < 1e-299  # the line rises by less than 1e-291 up to 1e8
        check = verify_envelope(flat, 1e8)
        assert check.holds_lower

    def test_lower_bound_fails_far_out(self, castor):
        # the causal attenuation grows sublinearly (~w**0.67), so the linear
        # lower envelope must eventually overtake it
        c = EnvelopeBoundConstants(castor.causal, 100.0)
        check = verify_envelope(c, 1e15)
        assert not check.holds_lower
        assert check.worst_lower_violation > 0.0
        assert check.holds_upper

    def test_fails_without_a_warning_where_both_sides_overflow(self):
        # at M = 1e300 the line and Re alpha_c both overflow: the violation inf - inf
        # is unknown, and the upper side, a theorem, cannot fail
        c = EnvelopeBoundConstants(CausalLaw(gamma=1.3, c0=0.15, alpha1=1e100, tau0=1e-6), 1e300)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            check = verify_envelope(c, 1.0001e300)
        assert not check.holds_lower and math.isnan(check.worst_lower_violation)
        assert check.holds_upper and check.worst_upper_violation == 0.0
        with pytest.raises(TypeError):
            EnvelopeCheck(holds_lower=True, holds_upper=False, worst_lower_violation=0.0,
                          omega_checked_max=1.0)

    def test_requires_omega_beyond_m(self, castor):
        c = EnvelopeBoundConstants(castor.causal, 100.0)
        with pytest.raises(ValueError):
            verify_envelope(c, 50.0)


class TestTruncationBound:
    def test_strictly_decreasing_in_r(self, castor):
        c = EnvelopeBoundConstants(castor.causal, 100.0)
        values = [log10_truncation_error_bound(c, r) for r in (1e-8, 1e-7, 1e-6)]
        assert all(math.isfinite(v) for v in values)
        assert values[0] > values[1] > values[2]

    def test_coefficient_override(self, castor):
        c = EnvelopeBoundConstants(castor.causal, 100.0)
        expected = c.bound_coefficient * math.exp(-c.bound_decay_rate * 1e-6) / 1e-6**0.25
        assert log10_truncation_error_bound(c, 1e-6) == pytest.approx(
            math.log10(expected), rel=1e-14)

    def test_zero_distance_rejected(self, castor):
        c = EnvelopeBoundConstants(castor.causal, 100.0)
        with pytest.raises(ValueError):
            log10_truncation_error_bound(c, 0.0)


def _envelope_integrals(constants, r, n=2**20):
    """Trapezoid values of the two envelope integrals of the corrected bound.

    Returns log10 of the integral over w >= M of exp(-2r(alpha_M + a0 (w - M)))
    and of the integral over w >= 0 of exp(-2r a2 w).  Both integrands are
    cut where the exponent reaches 80.
    """
    c = constants
    u = np.linspace(0.0, 80.0 / (2.0 * r * c.a0), n + 1)
    tail = np.trapezoid(np.exp(-2.0 * r * c.a0 * u), u)
    w = np.linspace(0.0, 80.0 / (2.0 * r * c.a2), n + 1)
    full = np.trapezoid(np.exp(-2.0 * r * c.a2 * w), w)
    return (math.log10(tail) - 2.0 * r * c.alpha_m / math.log(10.0),
            math.log10(full))


class TestCorrectedTruncationBound:
    @pytest.mark.parametrize("r", [1e-4, 1.0])
    def test_closed_form_matches_envelope_quadrature(self, castor, r):
        c = EnvelopeBoundConstants(castor.causal, 100.0)
        bound = corrected_truncation_error_bound(c, r)
        tail, full = _envelope_integrals(c, r)
        assert bound.log10_tail_linear == pytest.approx(tail, abs=1e-8)
        assert bound.log10_full_lower == pytest.approx(full, abs=1e-8)
        # the power-envelope tail beyond the split is negligible here, so
        # the bound reduces to the closed form sqrt(a2/a0) * exp(-r*alpha(M))
        assert bound.log10_tail_power < bound.log10_tail_linear - 100.0
        assert bound.log10_unclipped == pytest.approx(0.5 * (tail - full), abs=1e-8)
        closed = 0.5 * math.log10(c.a2 / c.a0) - c.alpha_m * r / math.log(10.0)
        assert bound.log10_unclipped == pytest.approx(closed, abs=1e-10)

    def test_clipped_at_one_for_small_distance(self, castor):
        c = EnvelopeBoundConstants(castor.causal, 100.0)
        bound = corrected_truncation_error_bound(c, 1e-6)
        assert bound.log10_unclipped == pytest.approx(1.48, abs=0.01)
        assert bound.log10_bound == 0.0

    def test_log10_finite_where_linear_value_underflows(self, castor):
        c = EnvelopeBoundConstants(castor.causal, 100.0)
        bound = corrected_truncation_error_bound(c, 10.0)
        assert 10.0**bound.log10_bound == 0.0
        assert bound.log10_bound == pytest.approx(-391.99, abs=0.01)

    def test_split_covers_linear_envelope(self, castor):
        c = EnvelopeBoundConstants(castor.causal, 100.0)
        bound = corrected_truncation_error_bound(c, 1.0)
        assert bound.split == c.split == 1e6
        check = verify_envelope(c, bound.split)
        assert check.holds_lower and check.holds_upper

    def test_extreme_distances(self, castor):
        c = EnvelopeBoundConstants(castor.causal, 100.0)
        assert corrected_truncation_error_bound(c, 1e-300).log10_bound == 0.0
        far = corrected_truncation_error_bound(c, 1e300).log10_bound
        assert math.isfinite(far) and far < -1e300

    # 2*r*a0 underflows to 0 in the first medium and overflows in the second, so the
    # log of the product would raise or read inf; the reference takes it from the factors'
    # binary exponents, log(2*r*a0) = log(product of mantissas) + (sum of exponents)*log(2)
    @pytest.mark.parametrize("medium,r", [((1.5, 1e-10, 1e-10, 1e-300), 1e-300),
                                          ((1.05, 1e-10, 1e-10, 1e300), 1e300)])
    def test_logs_where_the_products_leave_the_doubles(self, medium, r):
        c = EnvelopeBoundConstants(CausalLaw(*medium), 1e-3)
        assert not sys.float_info.min <= 2.0 * r * c.a0 < math.inf
        mantissas, exponents = zip(*map(math.frexp, (2.0, r, c.a0)))
        log_product = math.log(math.prod(mantissas)) + sum(exponents) * math.log(2.0)
        bound = corrected_truncation_error_bound(c, r)
        assert bound.log10_tail_linear * math.log(10.0) == pytest.approx(
            -2.0 * r * c.alpha_m - log_product, rel=1e-14)
        assert all(math.isfinite(v) for v in (bound.log10_tail_power, bound.log10_unclipped))

    def test_zero_distance_rejected(self, castor):
        c = EnvelopeBoundConstants(castor.causal, 100.0)
        with pytest.raises(ValueError):
            corrected_truncation_error_bound(c, 0.0)


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
    def test_limit_is_one_when_powerlaw_dominates(self, castor):
        # at w = 1e4 the power-law attenuation exceeds the causal by ~1e4 Np/cm
        val = deviation_factor(castor.causal, 1.0, 1e4)
        assert val == pytest.approx(1.0, rel=1e-6)

    def test_exactly_one_where_the_difference_overflows(self, castor):
        # b*r is inf at 1e200: exp(-b1*r) = 0 times sin(inf) gave nan
        w = np.array([1e7, 1e50, 1e200])
        assert np.all(deviation_factor(castor.causal, 1.0, w) == 1.0)

    def test_matches_expm1_identity(self, castor):
        from lossywave.laws import _alpha_difference

        rng = np.random.default_rng(5)
        for _ in range(1000):
            r = 10.0 ** rng.uniform(-6, 1)
            w = rng.uniform(-100.0, 100.0)
            got = deviation_factor(castor.causal, r, w)
            b = _alpha_difference(castor.causal, w) * r
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
        c_max = float(np.max(deviation_factor(castor.causal, 1.0, w)))
        assert c_max**2 == pytest.approx(5.6e-13, rel=0.15)


class TestModelErrorReport:
    def test_castor_reference(self, castor):
        rep = model_error_reports(energy_profiles(castor.causal, [1.0]), 100.0, 6e-4)[0]
        assert 5.0 <= rep.m_delta <= 20.0
        assert 0.5 <= rep.d2 <= 2.1
        assert 0.0125 <= rep.bound <= 0.05
        assert rep.exact_error_band_norm == pytest.approx(1.79e-4, rel=0.05)
        assert rep.dominates_sq or rep.dominates_max_c

    @pytest.mark.parametrize("delta", [1e-8, 1e-10])
    def test_max_c_form_dominates_at_small_delta(self, castor, delta):
        # the max-of-C form bounds the error at every delta; the C**2 form, the stated
        # convention, undercuts it at these deltas and is reported as no bound
        reports = model_error_reports(energy_profiles(castor.causal, [1.0, 10.0]), 100.0, delta)
        for rep in reports:
            assert rep.dominates_max_c
            assert rep.bound_max_c_band_norm >= rep.exact_error_band_norm
        # the C**2 form undercuts the error at r = 1 for both deltas, at r = 10 for 1e-10
        assert [rep.dominates_sq for rep in reports] == [False, delta == 1e-8]
        if delta == 1e-8:
            assert reports[0].bound == pytest.approx(1.108e-4, rel=1e-3)
            assert reports[0].exact_error == pytest.approx(1.787e-4, rel=1e-3)

    def test_delta_one_edge(self, castor):
        rep = model_error_reports(energy_profiles(castor.causal, [1.0]), 100.0, 1.0)[0]
        assert rep.m_delta == 0.0
        assert rep.d1 == 0.0
        assert rep.bound == pytest.approx(math.sqrt(rep.d2), rel=1e-12)

    def test_serializes_every_constant(self, castor):
        rep = model_error_reports(energy_profiles(castor.causal, [1.0]), 100.0, 6e-4)[0]
        doc = asdict(rep)
        for key in ("r", "m", "delta", "m_delta", "d1", "d2", "bound", "bound_band_norm",
                    "d1_max_c", "d2_max_c", "d1_max_c_lower", "d2_max_c_lower",
                    "bound_max_c", "bound_max_c_band_norm", "omega_at_d1", "omega_at_d2",
                    "omega_closed", "exact_error", "exact_error_band_norm", "dominates_sq",
                    "dominates_max_c"):
            assert key in doc
        # the outer supremum is the peak at 391 beyond M = 100, not a limit at infinity
        assert doc["omega_at_d2"] == pytest.approx(391.31, rel=1e-4)
        assert doc["m_delta"] < doc["omega_at_d2"] < doc["omega_closed"] < math.inf
        assert doc["d2_max_c_lower"] <= doc["d2_max_c"] <= doc["d2_max_c_lower"] * (1.0 + 1e-7)

    def test_rejects_a_band_profile(self, castor):
        # a band profile's total is the band energy and its band edge stops
        # at the band's end: m_delta read 50 where the line gives 210.84
        band = energy_profiles(castor.causal, [1e-2], 50.0)[0]
        with pytest.raises(ValueError, match="line energy profile"):
            model_error_reports([band], 100.0, 6e-4)[0]

    def test_bound_formula_consistency(self, castor):
        rep = model_error_reports(energy_profiles(castor.causal, [0.5]), 100.0, 1e-3)[0]
        assert rep.bound == pytest.approx(
            math.sqrt((1.0 - rep.delta) * rep.d1 + rep.delta * rep.d2), rel=1e-12)
        assert rep.d1 == pytest.approx(rep.d1_max_c**2, rel=1e-12)
        assert rep.d2 == pytest.approx(rep.d2_max_c**2, rel=1e-12)

    @pytest.mark.parametrize("where", [0.0, 5.0, 1e3])
    def test_non_finite_deviation_raises(self, castor, monkeypatch, where):
        # one nan among the seed nodes, inside the band or beyond it, is an error
        from lossywave import NumericalError, bounds

        kernel = bounds._deviation

        def with_nan(causal, r, omega):
            values, x = kernel(causal, r, omega)
            values[np.asarray(omega) == omega[np.argmin(np.abs(omega - where))]] = math.nan
            return values, x

        monkeypatch.setattr(bounds, "_deviation", with_nan)
        with pytest.raises(NumericalError, match="deviation factor"):
            model_error_reports(energy_profiles(castor.causal, [1.0]), 100.0, 6e-4)[0]

    @pytest.mark.parametrize("r", [1e-2, 1.0, 10.0])
    @pytest.mark.parametrize("side", ["inner", "outer"])
    def test_non_finite_deviation_names_its_search(self, castor, monkeypatch, r, side):
        # one nan at one node of one search, among the six searches of three distances
        from lossywave import NumericalError, bounds

        rep = model_error_reports(energy_profiles(castor.causal, [r]), 100.0, 6e-4)[0]
        lo, hi = (0.0, rep.m_delta) if side == "inner" else (rep.m_delta, rep.omega_closed)
        kernel = bounds._deviation

        def with_nan(causal, rs, omega):
            values, x = kernel(causal, rs, omega)
            values[np.flatnonzero((rs == r) & (lo < omega) & (omega < hi))[:1]] = math.nan
            return values, x

        monkeypatch.setattr(bounds, "_deviation", with_nan)
        profiles = [energy_profiles(castor.causal, [d])[0] for d in (1e-2, 1.0, 10.0)]
        with pytest.raises(NumericalError) as failure:
            bounds.model_error_reports(profiles, 100.0, 6e-4)
        assert str(failure.value) == (f"the deviation factor at r={r!r} overflows on "
                                      f"[{lo!r}, {hi!r}]")

    @pytest.mark.parametrize("distances", [(1e-2, 1.0, 10.0), (10.0, 1.0, 1e-2)])
    @pytest.mark.parametrize("cap", [80, 128])
    def test_cell_limit_names_its_search(self, castor, monkeypatch, distances, cap):
        # under a lowered cell limit the one search fails in the earliest round in which
        # any search run alone fails, naming the first such search as that search alone does
        from lossywave import NumericalError, bounds

        profiles = [energy_profiles(castor.causal, [d])[0] for d in distances]
        searches = []
        for profile in profiles:
            rep = model_error_reports([profile], 100.0, 6e-4)[0]
            searches += [(rep.r, 0.0, rep.m_delta), (rep.r, rep.m_delta, rep.omega_closed)]
        monkeypatch.setattr(bounds, "_MAX_CELLS", cap)
        failures = []
        for k, search in enumerate(searches):
            try:
                bounds._certified_maxima(castor.causal, [search])
            except NumericalError as exc:
                rounds = int(str(exc).rsplit(" after ", 1)[1].split()[0])
                failures.append((rounds, k, str(exc)))
        assert 0 < len(failures) < len(searches)
        with pytest.raises(NumericalError) as failure:
            bounds.model_error_reports(profiles, 100.0, 6e-4)
        assert str(failure.value) == min(failures)[2]
