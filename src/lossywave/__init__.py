"""Dissipative pressure-wave toolkit.

Evaluates causal and power-law attenuation-dispersion models, samples
and integrates the corresponding frequency-domain Green functions,
bounds the L2 error of band truncation and of the power-law
approximation, and synthesizes time-domain pulses by inverse FFT.
"""

from .numerics import NumericalError, integrate_intervals
from .laws import (
    CausalLaw,
    PowerLaw,
    DispersionLaw,
    MediumPreset,
    derive_powerlaw_coeffs,
    alpha_parts,
    eval_alpha,
    alpha_difference_majorants,
    attenuation_rise,
    wavenumber,
    phase_speed,
    powerlaw_phase_singularity,
    small_frequency_bound,
    builtin_preset,
    load_preset,
)
from .spectrum import (
    FrequencyGrid,
    ComplexSpectrum,
    EnergyProfile,
    energy_profiles,
    energies_at,
    band_edges,
    green_hat,
    sample_green_spectrum,
    log10_truncation_errors,
    deviation_factor,
    relative_model_errors,
)
from .timedomain import (
    RealSignal,
    ForcingSignal,
    synthesize_time_signal,
    pre_arrival_fractions,
    forward_point_source,
)
from .tables import write_json, write_table
from .bounds import (
    EnvelopeBoundConstants,
    EnvelopeCheck,
    ModelErrorReport,
    verify_envelope,
    log10_truncation_error_bound,
    TruncationBound,
    power_lower_envelope,
    corrected_truncation_error_bound,
    model_error_reports,
)

__version__ = "0.1.0"
