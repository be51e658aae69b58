"""Dissipative pressure-wave toolkit.

Evaluates causal and power-law attenuation-dispersion models, samples
and integrates the corresponding frequency-domain Green functions,
bounds the L2 error of band truncation and of the power-law
approximation, and synthesizes time-domain pulses by inverse FFT.
"""

from .numerics import NumericalError
from .laws import (
    CausalLaw,
    PowerLaw,
    DispersionLaw,
    MediumPreset,
    derive_powerlaw_coeffs,
    alpha1_from_a1,
    eval_alpha,
    alpha_difference_slope_bound,
    alpha_difference_curvature_bound,
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
    energy_profile,
    green_hat,
    sample_green_spectrum,
    log10_relative_truncation_error,
    deviation_factor,
    relative_model_error,
)
from .timedomain import (
    RealSignal,
    ForcingSignal,
    synthesize_time_signal,
    causality_energy_fraction,
    forward_point_source,
    helmholtz_radial_residual,
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
    model_error_report,
)

__version__ = "0.1.0"
