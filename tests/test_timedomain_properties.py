"""Property tests: the half-spectrum synthesis across laws, distances and grids."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

import numpy as np  # noqa: E402

from lossywave import (  # noqa: E402
    CausalLaw,
    FrequencyGrid,
    MediumPreset,
    sample_green_spectrum,
    synthesize_time_signal,
)

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
    law = MediumPreset.from_causal("random", causal).powerlaw if powerlaw else causal
    r = 10.0**log10_r
    grid = FrequencyGrid(omega_max, 2**log2_n)
    sig = synthesize_time_signal(sample_green_spectrum(law, r, grid))
    oracle, energy = full_grid_synthesis(law, r, grid)
    peak = float(np.max(np.abs(oracle)))
    assert np.max(np.abs(sig.samples - oracle.real)) <= 1e-12 * peak
    # discrete Parseval over the Hermitian extension
    assert float(np.sum(sig.samples**2)) * sig.dt == pytest.approx(energy, rel=1e-12)
