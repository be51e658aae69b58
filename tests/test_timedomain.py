import copy
import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest

from lossywave import (
    ForcingSignal,
    FrequencyGrid,
    PowerLaw,
    RealSignal,
    energy_profiles,
    eval_alpha,
    forward_point_source,
    log10_truncation_errors,
    pre_arrival_fractions,
    sample_green_spectrum,
    synthesize_time_signal,
    write_table,
)
from lossywave import spectrum
from lossywave.timedomain import _energy_fractions, _inverse_transform

from conftest import full_grid_synthesis, helmholtz_radial_residual, l2_norm, pre_arrival_fraction

LOSSLESS = PowerLaw(gamma=1.5, a1=0.0, a2=0.0, c0=0.15)
SQRT_2PI = math.sqrt(2.0 * math.pi)


def _gaussian_signal(n=1024, dt=0.05, center=25.0, width=2.0):
    t = dt * np.arange(n)
    return RealSignal(dt=dt, samples=np.exp(-0.5 * ((t - center) / width) ** 2), r=1.0)


class TestSynthesize:
    def test_lossless_spectrum_gives_delta_at_arrival(self):
        r = 1.0
        spec = sample_green_spectrum(LOSSLESS, r, FrequencyGrid(100.0, 2**14))
        sig = synthesize_time_signal(spec)
        peak_t = sig.times()[np.argmax(np.abs(sig.samples))]
        assert abs(peak_t - r / LOSSLESS.c0) <= sig.dt

    def test_dt_formula(self):
        spec = sample_green_spectrum(LOSSLESS, 1.0, FrequencyGrid(400.0, 2**10))
        sig = synthesize_time_signal(spec)
        assert sig.dt == pytest.approx(math.pi / 400.0, rel=1e-15)

    def test_realness_residual_tiny(self, castor):
        # irfft output is real by type; the complex full-grid transform
        # leaves a round-off imaginary residue and its real part is the signal
        grid = FrequencyGrid(400.0, 2**15)
        sig = synthesize_time_signal(sample_green_spectrum(castor.causal, 1.0, grid))
        oracle, _ = full_grid_synthesis(castor.causal, 1.0, grid)
        peak = np.max(np.abs(sig.samples))
        assert sig.samples.dtype == np.float64
        assert np.max(np.abs(oracle.imag)) <= 1e-8 * peak
        assert np.max(np.abs(sig.samples - oracle.real)) <= 1e-8 * peak

    def test_parseval_against_quadrature(self, castor):
        # time-domain norm of the synthesized wave equals the spectral norm
        for r in (0.1, 1.0):
            spec = sample_green_spectrum(castor.causal, r, FrequencyGrid(400.0, 2**17))
            sig = synthesize_time_signal(spec)
            qnorm = energy_profiles(castor.causal, [r])[0].norm
            assert l2_norm(sig) == pytest.approx(qnorm, rel=1e-5)

    def test_non_hermitian_rejected(self, castor):
        # the spectrum type stores w >= 0 only, so a full-grid array, which
        # could break the pairing, does not fit it
        spec = sample_green_spectrum(castor.causal, 1.0, FrequencyGrid(100.0, 64))
        values = np.concatenate([np.conj(spec.values[:0:-1]), spec.values[:-1]])
        values[40] += 0.1 * np.max(np.abs(values))
        with pytest.raises(ValueError):
            replace(spec, values=values)

    def test_fft_matches_direct_summation(self):
        # thermoviscous quadratic law against an O(n^2) direct inverse transform
        law = PowerLaw(gamma=2.0, a1=0.005, a2=0.1, c0=0.15)
        grid = FrequencyGrid(50.0, 2**10)
        spec = sample_green_spectrum(law, 0.5, grid)
        sig = synthesize_time_signal(spec)
        # the Hermitian extension on w_k = (k - n/2)*dw; the lone -omega_max
        # node carries the real part of the Nyquist value
        w = grid.delta_omega * (np.arange(grid.n) - grid.n // 2)
        v = spec.values
        vals = np.concatenate([[v[-1].real], np.conj(v[-2:0:-1]), v[:-1]])
        t_sel = sig.times()[:96]
        direct = np.array([
            (grid.delta_omega / SQRT_2PI) * np.sum(vals * np.exp(-1j * w * tj))
            for tj in t_sel
        ])
        scale = np.max(np.abs(sig.samples))
        assert np.max(np.abs(sig.samples[:96] - direct.real)) <= 1e-4 * scale


class TestCausalityFraction:
    def test_zero_before_arrival(self):
        energy = np.concatenate([np.zeros(50), np.ones(50)])
        assert _energy_fractions(energy, 0.1, [5.0]) == [0.0]

    def test_counts_pre_arrival_mass(self):
        energy = np.concatenate([np.ones(25), np.zeros(75)])
        assert _energy_fractions(energy, 0.1, [5.0, 10.0]) == pytest.approx([1.0, 1.0])

    def test_guard_defaults_to_two_dt(self, castor):
        # the command's fractions at guard 0 and 2*dt against the mask over the times of the
        # synthesized signal, bit for bit, for the causal and the truncated power law
        grid, arrival = FrequencyGrid(400.0, 2**12), 1.0 / castor.causal.c0
        for law, band_edge in ((castor.causal, None), (castor.powerlaw, 100.0)):
            raw, guarded, guard = pre_arrival_fractions(law, 1.0, grid, band_edge, arrival)
            signal = synthesize_time_signal(sample_green_spectrum(law, 1.0, grid, band_edge))
            assert guard == 2.0 * signal.dt
            assert raw == pre_arrival_fraction(signal, arrival)
            assert guarded == pre_arrival_fraction(signal, arrival - guard)
            assert 0.0 < guarded < raw

    def test_matches_the_time_mask_bit_for_bit(self):
        # the pre-arrival count by index equals the mask times() < edge, also
        # where the edge falls on a sample time or between rounded neighbours
        rng = np.random.default_rng(3)
        for dt in [0.1, math.pi / 400.0, 1e-7]:
            sig = RealSignal(dt=dt, samples=rng.standard_normal(1000), r=1.0)
            times = sig.times()
            edges = [*times[[1, 2, 333, 999]], *np.nextafter(times[[1, 500]], -np.inf),
                     *np.nextafter(times[[1, 500]], np.inf), times[-1] + 5.0 * dt, 0.5 * dt]
            assert _energy_fractions(sig.samples**2, dt, edges) == [
                pre_arrival_fraction(sig, edge) for edge in edges]

    def test_window_too_short(self, castor):
        grid = FrequencyGrid(400.0, 64)
        with pytest.raises(ValueError, match="window too short"):
            pre_arrival_fractions(castor.causal, 1.0, grid, None, math.pi / 400.0)

    def test_all_zero_signal(self):
        assert _energy_fractions(np.zeros(64), 0.1, [3.0, 2.8]) == [0.0, 0.0]


class TestForwardPointSource:
    def test_delta_recovers_green_function(self, castor):
        grid = FrequencyGrid(400.0, 2**14)
        via_forcing = forward_point_source(castor.causal, 1.0, ForcingSignal("delta"), grid)
        direct = synthesize_time_signal(sample_green_spectrum(castor.causal, 1.0, grid))
        scale = np.max(np.abs(direct.samples))
        assert np.max(np.abs(via_forcing.samples - direct.samples)) <= 1e-12 * scale

    def test_lossless_transport_delays_gaussian(self):
        r, center = 1.0, 3.0
        grid = FrequencyGrid(200.0, 2**15)
        forcing = ForcingSignal("gaussian-pulse", center=center, width=0.5)
        out = forward_point_source(LOSSLESS, r, forcing, grid)
        peak_t = out.times()[np.argmax(out.samples)]
        assert abs(peak_t - (center + r / LOSSLESS.c0)) <= out.dt
        # unit-peak input scales to sqrt(2 pi)/(4 pi r) under this convention
        assert out.samples.max() == pytest.approx(SQRT_2PI / (4.0 * math.pi * r), rel=1e-3)

    def test_modulated_sine_attenuated_by_band_factor(self, castor):
        r = 1.0
        forcing = ForcingSignal("gaussian-modulated-sine", center=3.0, width=0.5, carrier=10.0)
        out = forward_point_source(castor.causal, r, forcing, FrequencyGrid(400.0, 2**17))
        lossless_peak = SQRT_2PI / (4.0 * math.pi * r)
        ratio = out.samples.max() / lossless_peak
        # attenuation across the one-sigma band [8, 12] brackets the peak loss
        hi = math.exp(-eval_alpha(castor.causal, 8.0).real * r)
        lo = math.exp(-eval_alpha(castor.causal, 12.0).real * r)
        assert lo <= ratio <= hi

    def test_band_limited_precondition(self):
        grid = FrequencyGrid(2.0, 64)  # Gaussian spectrum clearly alive at the edge
        with pytest.raises(ValueError):
            forward_point_source(LOSSLESS, 1.0, ForcingSignal("gaussian-pulse", width=0.5), grid)

    def test_rest_before_forcing_onset(self, castor):
        forcing = ForcingSignal("gaussian-pulse", center=10.0, width=0.8)
        out = forward_point_source(castor.causal, 1.0, forcing, FrequencyGrid(200.0, 2**16))
        arrival = 10.0 + 1.0 / castor.causal.c0
        assert pre_arrival_fraction(out, arrival - 2.0 * out.dt) <= 1e-6


class TestInputsUnchanged:
    """Synthesis overwrites only the arrays it makes: a caller's spectrum and inputs stay."""

    def test_synthesize_leaves_the_spectrum(self, castor):
        spec = sample_green_spectrum(castor.causal, 1.0, FrequencyGrid(400.0, 2**12))
        before = spec.values.copy()
        first = synthesize_time_signal(spec)
        assert spec.values.tobytes() == before.tobytes()
        assert synthesize_time_signal(spec).samples.tobytes() == first.samples.tobytes()

    @pytest.mark.parametrize("kind", ["delta", "gaussian-pulse", "gaussian-modulated-sine"])
    def test_forward_point_source_leaves_its_inputs(self, castor, kind):
        law, grid = castor.causal, FrequencyGrid(400.0, 2**12)
        forcing = ForcingSignal(kind, center=2.0, width=0.5, carrier=10.0)
        before = copy.deepcopy((law, forcing, grid))
        first = forward_point_source(law, 1.0, forcing, grid)
        assert (law, forcing, grid) == before
        assert forward_point_source(law, 1.0, forcing, grid).samples.tobytes() == \
            first.samples.tobytes()


class TestForcingErrors:
    """The two forcing checks keep their messages, also where the grid spans many chunks."""

    @pytest.mark.parametrize("chunk", [spectrum._CHUNK_NODES, 5])
    def test_bandwidth_beyond_the_grid(self, chunk):
        with mock.patch.object(spectrum, "_CHUNK_NODES", chunk), \
                pytest.raises(ValueError) as err:
            forward_point_source(LOSSLESS, 1.0, ForcingSignal("gaussian-pulse", width=0.5),
                                 FrequencyGrid(2.0, 64))
        assert str(err.value) == "forcing bandwidth exceeds the grid: raise omega_max"

    @pytest.mark.parametrize("chunk", [spectrum._CHUNK_NODES, 2])
    def test_forcing_zero_at_every_node(self, chunk):
        # a carrier halfway between the nodes 1000 and 1250: exp(-125**2/2) = 0 at every node
        forcing = ForcingSignal("gaussian-modulated-sine", width=1.0, carrier=1125.0)
        with mock.patch.object(spectrum, "_CHUNK_NODES", chunk), \
                pytest.raises(ValueError) as err:
            forward_point_source(LOSSLESS, 1.0, forcing, FrequencyGrid(2000.0, 16))
        assert str(err.value) == ("the forcing spectrum is 0 at every node: the spacing "
                                  "2*omega_max/n = 250.0 is too coarse, raise n")


class TestHelmholtzResidual:
    def test_lossless_second_order(self):
        res_h = helmholtz_radial_residual(LOSSLESS, 1.0, 10.0, 1e-3)
        res_h2 = helmholtz_radial_residual(LOSSLESS, 1.0, 10.0, 5e-4)
        assert res_h <= 1e-3
        assert res_h / res_h2 == pytest.approx(4.0, rel=0.1)

    @pytest.mark.parametrize("law_name", ["causal", "powerlaw"])
    def test_castor_richardson_ratio(self, castor, law_name):
        law = getattr(castor, law_name)
        res_h = helmholtz_radial_residual(law, 1.0, 10.0, 1e-6)
        res_h2 = helmholtz_radial_residual(law, 1.0, 10.0, 5e-7)
        assert res_h <= 1e-4
        assert res_h / res_h2 == pytest.approx(4.0, rel=0.1)

    def test_step_too_large(self, castor):
        with pytest.raises(ValueError):
            helmholtz_radial_residual(castor.causal, 1.0, 10.0, 0.5)


class TestInverseTransform:
    def test_inverts_the_forward_transform(self):
        sig = _gaussian_signal()
        grid = FrequencyGrid(omega_max=math.pi / sig.dt, n=len(sig.samples))
        # the forward transform onto the half grid under the package convention
        ghat = (sig.dt / SQRT_2PI) * np.conj(np.fft.rfft(sig.samples))
        back = _inverse_transform(ghat, grid)
        assert np.max(np.abs(back - sig.samples)) <= 1e-12


class TestTimeFrequencyConsistency:
    def test_truncation_error_matches_spectral(self, castor):
        # the discrete hard cut sits half a bin off the continuous one, so the
        # grid must resolve the tail decay scale well below the 1e-4 target
        r, m = 0.1, 100.0
        grid = FrequencyGrid(400.0, 2**21)
        spec = sample_green_spectrum(castor.causal, r, grid)
        tail_spec = replace(spec, values=np.where(grid.omegas() > m, spec.values, 0.0))
        err_time = (l2_norm(synthesize_time_signal(tail_spec))
                    / l2_norm(synthesize_time_signal(spec)))
        log10_spectral = log10_truncation_errors(energy_profiles(castor.causal, [r]), m)[0]
        assert err_time == pytest.approx(10.0**log10_spectral, rel=1e-4)

    def test_grid_refinement_shrinks_preband_leakage(self, castor):
        arrival = 1.0 / castor.causal.c0
        fractions = [pre_arrival_fractions(castor.causal, 1.0, FrequencyGrid(400.0, n), None,
                                           arrival)[1] for n in (2**17, 2**18)]
        assert fractions[1] < fractions[0]
        assert abs(fractions[1] - fractions[0]) < fractions[0]


class TestForcingSignal:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            ForcingSignal("square-wave")

    def test_rejects_zero_width(self):
        with pytest.raises(ValueError):
            ForcingSignal("gaussian-pulse", width=0.0)

    def test_spectra_are_hermitian(self):
        w = np.linspace(-40.0, 40.0, 81)
        for forcing in (ForcingSignal("delta", center=2.0),
                        ForcingSignal("gaussian-pulse", center=2.0, width=0.7),
                        ForcingSignal("gaussian-modulated-sine", center=2.0, width=0.7,
                                      carrier=9.0)):
            vals = forcing.spectrum(w)
            assert np.allclose(vals, np.conj(vals[::-1]), rtol=0.0, atol=1e-15)


def test_write_signal_csv(tmp_path, castor):
    # a synthesized signal through the package writer: rows round-trip exactly
    spec = sample_green_spectrum(castor.causal, 1.0, FrequencyGrid(100.0, 64))
    sig = synthesize_time_signal(spec)
    path = write_table(tmp_path / "signal", ["t", "value"], [sig.times(), sig.samples],
                       comment=f"r={sig.r:.17g}")
    lines = path.read_text().splitlines()
    assert lines[0] == "# r=1"
    assert lines[1] == "t,value"
    data = np.loadtxt(path, delimiter=",", skiprows=2)
    assert data.shape == (64, 2)
    assert np.array_equal(data[:, 0], sig.times())
    assert np.array_equal(data[:, 1], sig.samples)
