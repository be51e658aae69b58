"""Property tests: the half-spectrum synthesis across laws, distances and grids."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

import math  # noqa: E402
from unittest import mock  # noqa: E402

import numpy as np  # noqa: E402

from lossywave import (  # noqa: E402
    CausalLaw,
    ComplexSpectrum,
    ForcingSignal,
    FrequencyGrid,
    MediumPreset,
    forward_point_source,
    green_hat,
    sample_green_spectrum,
    synthesize_time_signal,
)

from lossywave import spectrum  # noqa: E402
from lossywave.spectrum import _band_nodes  # noqa: E402
from lossywave.timedomain import _energy_fractions  # noqa: E402

from conftest import full_grid_synthesis  # noqa: E402


@settings(max_examples=40, deadline=None)
@given(gamma=st.floats(min_value=1.05, max_value=2.0),
       c0=st.floats(min_value=0.05, max_value=2.0),
       log10_alpha1=st.floats(min_value=0.0, max_value=3.0),
       log10_tau0=st.floats(min_value=-8.0, max_value=-4.0),
       powerlaw=st.booleans(),
       log10_r=st.floats(min_value=-3.0, max_value=0.0),
       omega_max=st.floats(min_value=1.0, max_value=5000.0),
       log2_n=st.integers(min_value=4, max_value=12))
def test_irfft_synthesis_matches_full_grid_oracle(gamma, c0, log10_alpha1, log10_tau0,
                                                  powerlaw, log10_r, omega_max, log2_n):
    causal = CausalLaw(gamma=gamma, c0=c0, alpha1=10.0**log10_alpha1, tau0=10.0**log10_tau0)
    law = MediumPreset("random", causal).powerlaw if powerlaw else causal
    r = 10.0**log10_r
    grid = FrequencyGrid(omega_max, 2**log2_n)
    sig = synthesize_time_signal(sample_green_spectrum(law, r, grid))
    oracle, energy = full_grid_synthesis(law, r, grid)
    peak = float(np.max(np.abs(oracle)))
    assert np.max(np.abs(sig.samples - oracle.real)) <= 1e-12 * peak
    # discrete Parseval over the Hermitian extension
    assert float(np.sum(sig.samples**2)) * sig.dt == pytest.approx(energy, rel=1e-12)


@st.composite
def forcings(draw, omega_max, window):
    """A forcing of each kind whose spectrum is below 1e-14 of its peak at omega_max.

    The width is 16 to 40 times 1/omega_max and the carrier at most half of
    omega_max, so even the modulated sine's upper lobe has fallen by e**-32
    at the grid edge; the center lies in the first quarter of the window.
    """
    kind = draw(st.sampled_from(["delta", "gaussian-pulse", "gaussian-modulated-sine"]))
    center = draw(st.floats(0.0, 0.25)) * window
    if kind == "delta":
        return ForcingSignal(kind, center=center)
    width = draw(st.floats(16.0, 40.0)) / omega_max
    carrier = draw(st.floats(0.05, 0.5)) * omega_max if kind != "gaussian-pulse" else 0.0
    return ForcingSignal(kind, center=center, width=width, carrier=carrier)


@settings(max_examples=60, deadline=None)
@given(data=st.data(),
       gamma=st.floats(min_value=1.05, max_value=2.0),
       c0=st.floats(min_value=0.05, max_value=2.0),
       log10_alpha1=st.floats(min_value=0.0, max_value=3.0),
       log10_tau0=st.floats(min_value=-8.0, max_value=-4.0),
       powerlaw=st.booleans(),
       log10_arrival=st.floats(min_value=-3.0, max_value=math.log10(0.5)),
       omega_max=st.floats(min_value=1.0, max_value=5000.0),
       log2_n=st.integers(min_value=4, max_value=12))
def test_forward_point_source_is_the_product_of_the_spectra(
        data, gamma, c0, log10_alpha1, log10_tau0, powerlaw, log10_arrival, omega_max, log2_n):
    # r puts the bulk arrival r*(1 + alpha1)/c0 at a drawn share of the window, so no
    # grid wraps the wave; the two sides round phases below n*pi apart, ~n*1e-16 each
    causal = CausalLaw(gamma=gamma, c0=c0, alpha1=10.0**log10_alpha1, tau0=10.0**log10_tau0)
    law = MediumPreset("random", causal).powerlaw if powerlaw else causal
    grid = FrequencyGrid(omega_max, 2**log2_n)
    window = grid.n * math.pi / omega_max
    r = 10.0**log10_arrival * window * c0 / (1.0 + causal.alpha1)
    forcing = data.draw(forcings(omega_max, window))
    w = grid.omegas()
    values = green_hat(law, r, w) * forcing.spectrum(w) * math.sqrt(2.0 * math.pi)
    oracle = synthesize_time_signal(ComplexSpectrum(grid=grid, r=r, values=values))
    sig = forward_point_source(law, r, forcing, grid)
    peak = float(np.max(np.abs(oracle.samples)))
    assert np.max(np.abs(sig.samples - oracle.samples)) <= 1e-12 * peak
    # discrete Parseval over the Hermitian extension: w = 0 and omega_max enter by their real parts
    energy = (values[0].real ** 2 + 2.0 * float(np.sum(np.abs(values[1:-1]) ** 2))
              + values[-1].real ** 2) * grid.delta_omega
    assert float(np.sum(sig.samples**2)) * sig.dt == pytest.approx(energy, rel=1e-12)


# Edges on a sample time dt*j and one ulp to either side, where edge/dt rounds to the
# wrong side of the count; the example is one where it rounds down.
@settings(max_examples=300, deadline=None)
@given(log2_dt=st.floats(-30.0, 5.0), n=st.integers(1, 300), j=st.integers(0, 300),
       ulps=st.sampled_from([-1, 0, 1]), seed=st.integers(0, 2**16))
@example(log2_dt=math.log2(0.1), n=300, j=9, ulps=1, seed=0)
def test_pre_arrival_fraction_counts_the_samples_before_the_edge(log2_dt, n, j, ulps, seed):
    dt = 2.0**log2_dt
    edge = dt * min(j, n)
    if ulps:
        edge = math.nextafter(edge, ulps * math.inf)
    samples = np.random.default_rng(seed).standard_normal(n)
    count = int(np.count_nonzero(dt * np.arange(n) < edge))  # brute force
    expected = float(np.sum(samples[:count] ** 2)) / float(np.sum(samples**2))
    assert _energy_fractions(samples**2, dt, [edge]) == [expected]


def _band_edge(grid, where, share, u):
    """None, or a band edge on a node, one ulp under it, between two nodes, below the spacing
    or above omega_max.

    The node is k = share*n/2, at least 1; u in (0, 1) places the edge within a spacing.
    """
    dw, k = grid.delta_omega, max(1, round(share * (grid.n // 2)))
    return {"none": None, "node": dw * k, "under": math.nextafter(dw * k, 0.0),
            "between": dw * (k - u), "below": dw * u,
            "above": grid.omega_max * (1.0 + u)}[where]


def _chunked(chunk, n):
    """The drawn chunk length, or the module's; at most 200 chunks, so no draw is slow."""
    return max(chunk or spectrum._CHUNK_NODES, (n // 2 + 1) // 200 + 1)


# n up to 2**18, so chunk boundaries fall anywhere against the band's end; omega_max
# above 1/tau0 for many draws, so that some chunks take the sigma != 1 branch of
# `laws._reduced` and others its sigma = 1 shortcut, and the whole grid the former.
# The examples put the band's end on a node that ends a chunk and one that starts the
# next, in a grid whose chunks past 1/tau0 = 1e6 take the sigma != 1 branch, and one ulp
# under a node where band_edge/delta_omega rounds up to that node's index.
@settings(max_examples=60, deadline=None, derandomize=True)
@given(gamma=st.floats(min_value=1.05, max_value=2.0),
       log10_tau0=st.floats(min_value=-8.0, max_value=-4.0),
       powerlaw=st.booleans(),
       log10_r=st.floats(min_value=-3.0, max_value=1.0),
       log10_omega_max=st.floats(min_value=0.0, max_value=7.0),
       log2_n=st.integers(min_value=4, max_value=18),
       chunk=st.sampled_from([None, 1, 7, 1000, 4097]),
       where=st.sampled_from(["none", "node", "under", "between", "below", "above"]),
       share=st.floats(min_value=0.0, max_value=1.0),
       u=st.floats(min_value=1e-9, max_value=1.0, exclude_max=True))
@example(gamma=1.66, log10_tau0=-6.0, powerlaw=False, log10_r=0.0, log10_omega_max=6.5,
         log2_n=18, chunk=None, where="node", share=2**14 / 2**17, u=0.5)
@example(gamma=1.66, log10_tau0=-6.0, powerlaw=False, log10_r=0.0, log10_omega_max=6.5,
         log2_n=18, chunk=None, where="node", share=(2**14 - 1) / 2**17, u=0.5)
@example(gamma=1.66, log10_tau0=-6.0, powerlaw=False, log10_r=0.0, log10_omega_max=2.5,
         log2_n=10, chunk=7, where="under", share=0.4, u=0.5)
@example(gamma=1.66, log10_tau0=-6.0, powerlaw=True, log10_r=-2.0, log10_omega_max=6.5,
         log2_n=18, chunk=1000, where="between", share=0.9, u=0.25)
def test_chunked_sampling_is_green_hat_on_the_grid_bit_for_bit(
        gamma, log10_tau0, powerlaw, log10_r, log10_omega_max, log2_n, chunk, where, share, u):
    causal = CausalLaw(gamma=gamma, c0=0.15, alpha1=138.08, tau0=10.0**log10_tau0)
    law = MediumPreset("random", causal).powerlaw if powerlaw else causal
    r, grid = 10.0**log10_r, FrequencyGrid(10.0**log10_omega_max, 2**log2_n)
    m = _band_edge(grid, where, share, u)
    w = grid.omegas()
    band = len(w) if m is None else int(np.searchsorted(w, m, side="right"))
    if m is not None:
        assert _band_nodes(grid, m) == band
    expected = np.zeros(len(w), dtype=complex)
    expected[:band] = green_hat(law, r, w)[:band]
    with mock.patch.object(spectrum, "_CHUNK_NODES", _chunked(chunk, grid.n)):
        values = sample_green_spectrum(law, r, grid, m).values
    assert values.tobytes() == expected.tobytes()


@settings(max_examples=30, deadline=None, derandomize=True)
@given(data=st.data(),
       powerlaw=st.booleans(),
       log10_r=st.floats(min_value=-3.0, max_value=0.0),
       omega_max=st.floats(min_value=1.0, max_value=5000.0),
       log2_n=st.integers(min_value=4, max_value=16),
       chunk=st.sampled_from([1, 7, 1000, 4097]))
def test_forward_point_source_does_not_depend_on_the_chunks(data, powerlaw, log10_r, omega_max,
                                                            log2_n, chunk):
    causal = CausalLaw(gamma=1.66, c0=0.15, alpha1=138.08, tau0=1e-6)
    law = MediumPreset("random", causal).powerlaw if powerlaw else causal
    grid = FrequencyGrid(omega_max, 2**log2_n)
    forcing = data.draw(forcings(omega_max, grid.n * math.pi / omega_max))
    whole = forward_point_source(law, 10.0**log10_r, forcing, grid)
    with mock.patch.object(spectrum, "_CHUNK_NODES", _chunked(chunk, grid.n)):
        chunked = forward_point_source(law, 10.0**log10_r, forcing, grid)
    assert chunked.samples.tobytes() == whole.samples.tobytes()
