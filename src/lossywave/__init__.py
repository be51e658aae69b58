"""Dissipative pressure-wave toolkit.

Evaluates causal and power-law attenuation-dispersion models, samples
and integrates the corresponding frequency-domain Green functions,
bounds the L2 error of band truncation and of the power-law
approximation, and synthesizes time-domain pulses by inverse FFT.
"""

from .numerics import NumericalError, erfcx
from .laws import (
    CausalLaw,
    PowerLaw,
    DispersionLaw,
    MediumPreset,
    derive_powerlaw_coeffs,
    alpha1_from_a1,
    eval_alpha,
    alpha_difference,
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
    relative_truncation_error,
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
    apply_dissipation_operator,
)
from .tables import write_json, write_table
from .bounds import (
    EnvelopeBoundConstants,
    EnvelopeCheck,
    ModelErrorReport,
    envelope_bound_constants,
    verify_envelope,
    bound_coefficient,
    bound_decay_rate,
    truncation_error_bound,
    log10_truncation_error_bound,
    TruncationBound,
    envelope_split,
    power_lower_envelope,
    corrected_truncation_error_bound,
    model_error_report,
)

__version__ = "0.1.0"
