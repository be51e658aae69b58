import math

import numpy as np
import pytest

from lossywave import (
    ComplexSpectrum,
    FrequencyGrid,
    NumericalError,
    PowerLaw,
    attenuation_rise,
    deviation_factor,
    energy_profile,
    eval_alpha,
    green_hat,
    log10_relative_truncation_error,
    model_error_report,
    relative_model_error,
    sample_green_spectrum,
    write_table,
)

from lossywave.laws import _rise
from lossywave.numerics import integrate_decaying
from lossywave.spectrum import (_CUT_RTOL, _TAIL_DECADES, _energy_pass, _log_energy,
                                _secant_root, _tail_width)

from conftest import trapezoid_norm

LOSSLESS = PowerLaw(gamma=1.5, a1=0.0, a2=0.0, c0=0.15)


class TestFrequencyGrid:
    def test_symmetric_and_contains_zero(self):
        # half grid: 0 and omega_max are nodes, every node an exact multiple
        # of the step, so the implied mirror nodes -w are exactly symmetric
        # also for a non-round omega_max
        for omega_max, n in ((100.0, 32), (1046.324, 2**18)):
            g = FrequencyGrid(omega_max, n)
            w = g.omegas()
            assert len(w) == n // 2 + 1
            assert w[0] == 0.0
            assert w[-1] == omega_max
            assert np.array_equal(w, g.delta_omega * np.arange(n // 2 + 1))

    def test_rejects_bad_n(self):
        with pytest.raises(ValueError):
            FrequencyGrid(100.0, 24)
        with pytest.raises(ValueError):
            FrequencyGrid(100.0, 8)

    def test_rejects_bad_omega_max(self):
        with pytest.raises(ValueError):
            FrequencyGrid(0.0, 32)


class TestGreenHat:
    def test_zero_frequency_value(self, castor):
        r = 0.7
        assert green_hat(castor.causal, r, 0.0) == pytest.approx(1.0 / (4.0 * math.pi * r))

    def test_modulus_identity(self, castor):
        rng = np.random.default_rng(11)
        w = rng.uniform(-200.0, 200.0, size=64)
        r = 0.3
        got = np.abs(green_hat(castor.causal, r, w))
        expected = np.exp(-np.real(eval_alpha(castor.causal, w)) * r) / (4.0 * math.pi * r)
        assert np.allclose(got, expected, rtol=1e-14)

    def test_castor_reference_modulus(self, castor):
        # attenuation at w=10 is ~1.9859 Np/cm, so the r=1 modulus drops to
        # exp(-1.9859)/(4 pi) within 0.2%
        got = abs(green_hat(castor.causal, 1.0, 10.0))
        assert got == pytest.approx(math.exp(-1.9859) / (4.0 * math.pi), rel=2e-3)

    def test_zero_distance_rejected(self, castor):
        with pytest.raises(ValueError):
            green_hat(castor.causal, 0.0, 1.0)


class TestSampling:
    def test_length_and_center_value(self, castor):
        grid = FrequencyGrid(50.0, 16)
        spec = sample_green_spectrum(castor.causal, 2.0, grid)
        assert len(spec.values) == 9
        assert spec.values[0] == pytest.approx(1.0 / (8.0 * math.pi))

    def test_hermitian_defect_tiny(self, castor):
        # the stored half stands for G_hat(-w) = conj(G_hat(w)); check that
        # against the Green function sampled at the mirrored nodes
        spec = sample_green_spectrum(castor.causal, 1.0, FrequencyGrid(200.0, 4096))
        mirrored = green_hat(castor.causal, 1.0, -spec.grid.omegas())
        defect = np.max(np.abs(mirrored - np.conj(spec.values)))
        assert defect <= 1e-12 * np.max(np.abs(spec.values))

    def test_peak_at_zero_frequency(self, castor):
        spec = sample_green_spectrum(castor.causal, 1.0, FrequencyGrid(200.0, 4096))
        mods = np.abs(spec.values)
        assert int(np.argmax(mods)) == 0


class TestTruncation:
    def test_identity_when_cut_beyond_grid(self, castor):
        grid = FrequencyGrid(100.0, 64)
        spec = sample_green_spectrum(castor.causal, 1.0, grid)
        out = sample_green_spectrum(castor.causal, 1.0, grid, band_edge=150.0)
        assert np.array_equal(out.values, spec.values)

    def test_removed_mass_negligible_for_castor(self, castor):
        grid = FrequencyGrid(200.0, 8192)
        spec = sample_green_spectrum(castor.causal, 1.0, grid)
        cut = sample_green_spectrum(castor.causal, 1.0, grid, band_edge=100.0)
        total = np.sum(np.abs(spec.values) ** 2)
        removed = total - np.sum(np.abs(cut.values) ** 2)
        assert removed / total <= 1e-3

    @pytest.mark.parametrize("omega_max,n,m", [(430.0, 2**19, 78.956), (400.0, 2**16, 100.0),
                                               (900.0, 2**14, 120.0), (50.0, 32, 1e-9),
                                               (50.0, 32, 1e9)])
    def test_band_sampling_is_truncation_bit_for_bit(self, castor, omega_max, n, m):
        grid = FrequencyGrid(omega_max, n)
        full = sample_green_spectrum(castor.powerlaw, 0.05, grid)
        ref = np.where(grid.omegas() > m, 0.0 + 0.0j, full.values)
        band = sample_green_spectrum(castor.powerlaw, 0.05, grid, band_edge=m)
        assert np.array_equal(band.values.view(np.uint64), ref.view(np.uint64))

    def test_rejects_nonpositive_cut(self, castor):
        with pytest.raises(ValueError):
            sample_green_spectrum(castor.causal, 1.0, FrequencyGrid(100.0, 64), band_edge=0.0)


class TestNorms:
    def test_lossless_band_closed_form(self):
        r, m = 2.0, 25.0
        got = energy_profile(LOSSLESS, r, m).norm
        assert got == pytest.approx(math.sqrt(2.0 * m) / (4.0 * math.pi * r), rel=1e-12)

    def test_lossless_full_line_diverges(self):
        with pytest.raises(ValueError):
            energy_profile(LOSSLESS, 1.0).norm

    def test_full_at_least_band(self, castor):
        full = energy_profile(castor.causal, 1.0).norm
        band = energy_profile(castor.causal, 1.0, 100.0).norm
        assert full >= band

    def test_matches_trapezoid_oracle(self, castor):
        r = 0.4
        profile = energy_profile(castor.causal, r)
        got = profile.norm
        assert got == pytest.approx(trapezoid_norm(castor.causal, r, 0.0, profile.top), rel=1e-6)

    def test_band_norm_strictly_increasing(self, castor):
        # resolvable range: increments must exceed the quadrature tolerance
        m_values = np.linspace(0.5, 12.0, 50)
        norms = [energy_profile(castor.causal, 1.0, m).norm for m in m_values]
        assert all(b > a for a, b in zip(norms, norms[1:]))

    def test_zero_distance_rejected(self, castor):
        with pytest.raises(ValueError):
            energy_profile(castor.causal, 0.0).norm


class TestTruncationError:
    def test_within_unit_interval(self, castor):
        # an error in [0, 1] is a log10 of at most 0
        for r in (1e-4, 1e-2, 1.0):
            assert log10_relative_truncation_error(energy_profile(castor.causal, r), 100.0) <= 0.0

    def test_vanishes_for_huge_band(self, castor):
        line = energy_profile(castor.causal, 1.0)
        assert log10_relative_truncation_error(line, 2.0 * line.top) <= -12.0

    def test_decreasing_in_distance(self, castor):
        errors = [log10_relative_truncation_error(energy_profile(castor.causal, r), 100.0)
                  for r in (1e-6, 1e-4, 1e-2, 1.0, 10.0)]
        assert all(b <= a for a, b in zip(errors, errors[1:]))
        assert errors[3] == pytest.approx(-39.88, abs=0.005)


class TestLog10TruncationError:

    def test_matches_scaled_trapezoid_oracle(self, castor):
        r, m = 10.0, 100.0
        alpha_m = float(np.real(eval_alpha(castor.causal, m)))
        tail = trapezoid_norm(castor.causal, r, m, m + _tail_width(_rise(castor.causal, m), r),
                              alpha_ref=alpha_m)
        full = trapezoid_norm(castor.causal, r, 0.0, _tail_width(_rise(castor.causal, 0.0), r))
        oracle = math.log10(tail / full) - r * alpha_m / math.log(10.0)
        profile = energy_profile(castor.causal, r)
        assert log10_relative_truncation_error(profile, m) == pytest.approx(oracle, abs=1e-8)

    @pytest.mark.parametrize("r", [10.0, 1e3])
    def test_finite_where_linear_value_underflows(self, castor, r):
        got = log10_relative_truncation_error(energy_profile(castor.causal, r), 100.0)
        assert 10.0**got == 0.0
        assert math.isfinite(got)
        assert got < -300.0

    def test_rejects_bad_arguments(self, castor):
        with pytest.raises(ValueError):
            log10_relative_truncation_error(energy_profile(castor.causal, 0.0), 100.0)
        with pytest.raises(ValueError):
            log10_relative_truncation_error(energy_profile(castor.causal, 1.0), 0.0)
        with pytest.raises(ValueError):
            log10_relative_truncation_error(energy_profile(LOSSLESS, 1.0), 100.0)


class TestExtremeDistances:
    @pytest.mark.parametrize("r,cut", [(1e200, 1.857e-119), (1e300, 1.066e-179)])
    def test_tail_cut_converges_far_below_one(self, castor, r, cut):
        # the cut lies hundreds of decades below 1, inside the bracket of the
        # powers of two that the width solve starts from
        got = _tail_width(_rise(castor.causal, 0.0), r)
        assert got == pytest.approx(cut, rel=1e-3)
        attenuation = float(np.real(eval_alpha(castor.causal, got)))
        assert 2.0 * r * attenuation == pytest.approx(70.0, rel=1e-6)
        # a tail cut from a start far below 1 brackets above the start
        assert 0.5 * got + _tail_width(_rise(castor.causal, 0.5 * got), r) > 0.5 * got

    def test_tail_cut_beyond_the_double_range_names_r(self, castor):
        with pytest.raises(NumericalError, match="r=1e-300"):
            _tail_width(_rise(castor.causal, 0.0), 1e-300)
        # a law that does not decay still has no cut at all
        assert _tail_width(_rise(LOSSLESS, 0.0), 1e-300) == math.inf

    @pytest.mark.parametrize("r", [1e16, 1e22, 1e26])
    def test_subnormal_width_is_the_first_double_past_the_threshold(self, r):
        # a steep law decays within a subnormal width, where no double lies within
        # 1e-9 of h: the solve stops at adjacent doubles instead of looping
        steep = PowerLaw(gamma=2.0, a1=1e300, a2=0.0, c0=0.15)
        h = _tail_width(_rise(steep, 1.0), r)

        def exponent(width):
            return 2.0 * r * float(attenuation_rise(steep, 1.0, np.array([width]))[0])

        assert h < np.finfo(float).tiny
        assert exponent(h) >= 70.0 > exponent(h - math.ulp(h))

    def test_band_quantities_need_no_cut(self, castor):
        r, m = 1e-300, 100.0
        # exp(-2 r alpha) is 1 to double precision on the band
        band_profile = energy_profile(castor.causal, r, m)
        assert band_profile.norm == pytest.approx(math.sqrt(2.0 * m) / (4.0 * math.pi * r),
                                                  rel=1e-12)
        assert 0.0 <= relative_model_error(band_profile, m) < 1e-290

    def test_norm_underflows_only_below_the_smallest_double(self, castor):
        # the tail energy (~1e-541) underflows; the tail norm (~1e-271) does not
        r, m = 10.0, 79.333
        tail = math.exp(0.5 * (math.log(2.0) + _log_energy(castor.causal, r, m))
                        - math.log(4.0 * math.pi * r))
        full = energy_profile(castor.causal, r).norm
        log10_error = log10_relative_truncation_error(energy_profile(castor.causal, r), m)
        assert log10_error == pytest.approx(-268.683, abs=1e-3)
        assert tail / full == pytest.approx(10.0**log10_error, rel=1e-12, abs=0.0)

    def test_norm_above_the_largest_double_raises(self, castor):
        with pytest.raises(NumericalError, match="exceeds the largest double"):
            energy_profile(castor.causal, 1e-200).norm

    @pytest.mark.parametrize("r", [0.0, -1.0, math.nan, math.inf])
    def test_invalid_distance_rejected_everywhere(self, castor, r):
        for call in (lambda: green_hat(castor.causal, r, 1.0),
                     lambda: _tail_width(_rise(castor.causal, 0.0), r),
                     lambda: energy_profile(castor.causal, r, 10.0).norm,
                     lambda: relative_model_error(energy_profile(castor.causal, r, 100.0), 100.0),
                     lambda: energy_profile(castor.causal, r)):
            with pytest.raises(ValueError, match="distance must be finite and positive"):
                call()


def _attenuation_slopes(law, w):
    """First and second derivatives of Re alpha*(w) for a causal law, closed form."""
    g = law.gamma
    u = (-1j * law.tau0 * w) ** (g - 1.0)
    s = 1.0 + u
    d1 = s**-0.5 - 0.5 * (g - 1.0) * u * s**-1.5
    d2 = (g - 1.0) * u / w * s**-2.5 * (-0.5 * g * s + 0.75 * (g - 1.0) * u)
    return law.alpha1 / law.c0 * d1.imag, law.alpha1 / law.c0 * d2.imag


class TestNarrowTail:
    @pytest.mark.parametrize("r", [1e5, 1e6, 3e7, 5e7, 1e8, 2e8, 1e9, 1e20, 1e100])
    def test_tail_energy_matches_laplace_expansion(self, castor, r):
        # the tail beyond M is (70/k) wide: the integral of exp(-k h - r a'' h^2)
        # is 1/k - 2 r a''/k^3 up to terms of relative order (a''/(r a'^2))^2
        m = 100.0
        slope, curvature = _attenuation_slopes(castor.causal, m)
        k = 2.0 * r * slope
        expected = math.log(1.0 / k - 2.0 * r * curvature / k**3)
        _, tail = _energy_pass(castor.causal, r, m, math.inf)
        assert math.log(tail.value) == pytest.approx(expected, rel=1e-8)
        # the unscaled log energy differs by 2 r Re alpha*(m) up to its rounding
        scale = 2.0 * r * float(np.real(eval_alpha(castor.causal, m)))
        assert _log_energy(castor.causal, r, m) + scale == pytest.approx(
            expected, abs=4.0 * math.ulp(scale))


class TestTailWidthSafeguards:
    """`_tail_width` on rises that defeat its secant steps: the bracket still closes.

    A step has no line through (ln h, ln exponent): an exponent of 0 below the
    step, or two equal ones on one side of it, makes `_secant_root` nan, and
    the geometric midpoint of the bracket is taken instead.
    """

    def test_secant_root_is_nan_without_a_line(self):
        assert math.isnan(_secant_root([1.0, 2.0], [0.0, 100.0]))
        assert math.isnan(_secant_root([1.0, 2.0], [10.0, math.inf]))
        assert math.isnan(_secant_root([1.0, 2.0], [50.0, 50.0]))
        assert _secant_root([1.0, 4.0], [35.0, 140.0]) == pytest.approx(2.0, rel=1e-15)

    @pytest.mark.parametrize("below", [0.0, 1e-3, 30.0])
    @pytest.mark.parametrize("r", [1.0, 1e-200, 1e200])
    def test_step_rise_meets_the_contract(self, below, r):
        edge = 3.7e-9 / r**0.5

        def rise(h):  # the exponent 2*r*rise jumps from 2*r*below/r to 2e3 at the edge
            return np.where(np.asarray(h) < edge, below / r, 1e3 / r)

        h = _tail_width(rise, r)
        short = h - max(_CUT_RTOL * h, math.ulp(h))
        reached, missed = 2.0 * r * rise(np.array([h, short]))
        assert reached >= _TAIL_DECADES and missed < _TAIL_DECADES
        assert edge <= h <= edge * (1.0 + _CUT_RTOL)


class TestModelError:
    def test_triangle_sanity(self, castor):
        r, m = 0.1, 100.0
        eps = relative_model_error(energy_profile(castor.causal, r, m), m)
        band_c = energy_profile(castor.causal, r, m).norm
        band_pl = energy_profile(castor.powerlaw, r, m).norm
        assert eps <= (band_c + band_pl) / band_c

    @pytest.mark.parametrize("r,reference", [(1e-6, 7.62e-8), (1e-3, 7.35e-5),
                                             (1e-1, 4.46e-4), (10.0, 7.13e-5)])
    def test_castor_reference_values(self, castor, r, reference):
        eps = relative_model_error(energy_profile(castor.causal, r, 100.0), 100.0)
        assert reference / 2.0 <= eps <= reference * 2.0

    def test_halved_band_stable_under_tolerance(self, castor):
        # values at M = 50 agree with a numerator integrated here at rtol 1e-11
        # over the same profile denominator, pinning the pipeline rather than
        # a published figure
        m = 50.0
        for r in (1e-3, 1e-1, 10.0):
            profile = energy_profile(castor.causal, r, m)

            def diff_sq(w, r=r):
                return (np.exp(-2.0 * r * np.real(eval_alpha(castor.causal, w)))
                        * deviation_factor(castor.causal, r, w))

            fine = integrate_decaying(diff_sq, 0.0, profile.top, rtol=1e-11).value
            assert relative_model_error(profile, m) == pytest.approx(
                math.sqrt(fine / profile.at(m)), rel=1e-6)

    @pytest.mark.parametrize("r", [1e-6, 1e-3, 1e-1, 1.0, 10.0])
    def test_line_profile_gives_the_band_value(self, castor, r):
        # the line profile of `bounds` and the band profile of `table2` give
        # one model error: the same numerator, denominators E(M) that agree to
        # the profile pass's tolerance
        m = 100.0
        line = relative_model_error(energy_profile(castor.causal, r), m)
        band = relative_model_error(energy_profile(castor.causal, r, m), m)
        assert line == pytest.approx(band, rel=1e-12, abs=0.0)

    def test_profile_short_of_the_band_edge_rejected(self, castor):
        # a band profile ending below M has no energy for the band [0, M]
        short = energy_profile(castor.causal, 1.0, 50.0)
        with pytest.raises(ValueError, match=r"needs a profile that reaches M, got one of the "
                                             r"band \[0, 50.0\]"):
            relative_model_error(short, 100.0)
        assert relative_model_error(short, 50.0) > 0.0


    @pytest.mark.parametrize("omega", [math.nan, math.inf, -math.inf])
    def test_deviation_factor_rejects_a_non_finite_omega(self, castor, omega):
        with pytest.raises(ValueError, match="omega must be finite"):
            deviation_factor(castor.causal, 1.0, np.array([0.0, omega]))


class TestEnergyProfile:
    @staticmethod
    def _oracle_energy(law, r, m):
        # E(m) from the dense-trapezoid norm, prefactor and doubling undone
        return 0.5 * (4.0 * math.pi * r * trapezoid_norm(law, r, 0.0, m)) ** 2

    def test_matches_trapezoid_oracle(self, castor):
        r = 0.4
        profile = energy_profile(castor.causal, r)
        edges = profile.energy.edges
        assert profile.top == _tail_width(_rise(castor.causal, 0.0), r)
        # inside the first graded panel, on a panel edge, mid-range and at the top
        for m in (0.5 * edges[1], edges[5], 0.5 * profile.top, profile.top):
            assert profile.at(m) == pytest.approx(
                self._oracle_energy(castor.causal, r, m), rel=1e-6)
        assert profile.at(profile.top) == pytest.approx(profile.total, rel=1e-15)

    def test_array_call_equals_scalar_calls(self, castor):
        profile = energy_profile(castor.causal, 1.0)
        m = np.concatenate((profile.energy.edges[[0, 3, 7]], np.linspace(0.1, 60.0, 7)))
        # equal up to the summation order of one vectorized panel rule
        assert profile.at(m) == pytest.approx([profile.at(x) for x in m], rel=1e-15, abs=0.0)
        assert isinstance(profile.at(3.0), float)

    def test_non_decreasing(self, castor):
        profile = energy_profile(castor.causal, 1.0)
        energy = profile.at(np.linspace(0.0, profile.top, 1000))
        assert energy[0] == 0.0
        assert np.all(np.diff(energy) >= 0.0)

    def test_band_limited_lossless_profile_is_the_band_width(self):
        profile = energy_profile(LOSSLESS, 2.0, 25.0)
        assert profile.top == 25.0
        m = np.array([1e-3, 0.7, 12.5, 24.9, 25.0])
        assert np.allclose(profile.at(m), m, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("what,call", [
        ("the band edge", lambda band: band.band_edge(6e-4)),
        ("the truncation error", lambda band: log10_relative_truncation_error(band, 20.0)),
        ("the model-error report", lambda band: model_error_report(band, 20.0, 6e-4))],
        ids=["band_edge", "log10_relative_truncation_error", "model_error_report"])
    def test_band_profile_rejected_where_the_full_energy_is_read(self, castor, what, call):
        # a band profile's total is the band energy, not the full energy
        band = energy_profile(castor.causal, 1.0, 30.0)
        with pytest.raises(ValueError, match=f"^{what} needs the line energy profile, "
                                             r"got one of the band \[0, 30.0\]$"):
            call(band)

    @pytest.mark.parametrize("m", [0.0, -1.0, math.nan, math.inf])
    def test_invalid_band_edge_rejected_everywhere(self, castor, m):
        profile = energy_profile(castor.causal, 1.0)
        calls = [lambda: log10_relative_truncation_error(profile, m),
                 lambda: relative_model_error(profile, m),
                 lambda: sample_green_spectrum(castor.causal, 1.0, FrequencyGrid(50.0, 32),
                                               band_edge=m)]
        if m != math.inf:  # a profile up to hi = inf is the full line
            calls.append(lambda: energy_profile(castor.causal, 1.0, m))
        for call in calls:
            with pytest.raises(ValueError, match="band edge must be finite and positive, got M="):
                call()


class TestEnergyBandEdge:
    def test_castor_reference(self, castor):
        edge = energy_profile(castor.causal, 1.0).band_edge(6e-4)
        assert 5.0 <= edge <= 20.0
        # the returned edge solves the energy equation to its stated tolerance
        full_sq = energy_profile(castor.causal, 1.0).norm ** 2
        band_sq = energy_profile(castor.causal, 1.0, edge).norm ** 2
        assert band_sq == pytest.approx((1.0 - 6e-4) * full_sq, rel=5e-6)

    def test_tiny_delta_returns_tail_cut(self, castor):
        line = energy_profile(castor.causal, 1.0)
        assert line.band_edge(1e-40) == pytest.approx(line.top, rel=1e-12)

    def test_delta_one_returns_zero(self, castor):
        assert energy_profile(castor.causal, 1.0).band_edge(1.0) == 0.0

    def test_rejects_out_of_range_delta(self, castor):
        for bad in (0.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                energy_profile(castor.causal, 1.0).band_edge(bad)


class TestCsvExport:
    def test_roundtrip(self, castor, tmp_path):
        grid = FrequencyGrid(50.0, 32)
        spec = sample_green_spectrum(castor.causal, 1.0, grid, band_edge=30.0)
        v = spec.values
        path = write_table(tmp_path / "spec", ["omega", "re", "im", "modulus"],
                           [grid.omegas(), v.real, v.imag, np.abs(v)],
                           comment=f"law={castor.causal.tag} band_edge={30.0:.17g}")
        assert path.name == "spec.csv"
        lines = path.read_text().splitlines()
        assert lines[0].startswith("# law=causal")
        assert "band_edge=30" in lines[0]
        assert lines[1] == "omega,re,im,modulus"
        data = np.loadtxt(path, delimiter=",", skiprows=2)
        assert data.shape == (17, 4)
        # 17 significant digits round-trip exactly
        assert np.array_equal(data[:, 0], grid.omegas())
        assert np.array_equal(data[:, 1] + 1j * data[:, 2], spec.values)
