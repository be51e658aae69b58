"""Property test: every relative quantity depends on (gamma, Lambda, M*tau0) only.

With w' = tau0*w the causal law reads r*alpha_c(w) = Lambda*psi_gamma(w'),
Lambda = alpha1*r/(c0*tau0), and the phase w*r/c0 is common to both Green
functions.  So a rescaling of tau0, c0 and r that keeps Lambda and M*tau0
leaves table2's model error, the relative truncation error and the
model-error report unchanged, and moves the report's frequencies by the
factor of 1/tau0.  The corrected truncation bound is unchanged too, and
its three energies, each an integral over w, move with the frequencies.
"""

import dataclasses
import math

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from lossywave import (  # noqa: E402
    CausalLaw,
    EnvelopeBoundConstants,
    builtin_preset,
    corrected_truncation_error_bound,
    energy_profile,
    log10_relative_truncation_error,
    model_error_report,
    relative_model_error,
)

RTOL = 1e-13
DELTA = 6e-4  # the CLI's default


def reported(gamma, c0, alpha1, tau0, r, m):
    """Every compared quantity, each with the power of tau0 that makes it invariant."""
    law = CausalLaw(gamma, c0, alpha1, tau0)
    line = energy_profile(law, r)
    bound = corrected_truncation_error_bound(EnvelopeBoundConstants(law, m), r)
    out = {"table2": relative_model_error(energy_profile(law, r, m), m),
           "log10_truncation_error": log10_relative_truncation_error(line, m),
           "log10_tail_linear": bound.log10_tail_linear + math.log10(tau0),
           "log10_tail_power": bound.log10_tail_power + math.log10(tau0),
           "log10_full_lower": bound.log10_full_lower + math.log10(tau0),
           "log10_unclipped": bound.log10_unclipped}
    for name, value in dataclasses.asdict(model_error_report(line, m, DELTA)).items():
        if name in ("m", "m_delta") or name.startswith("omega"):
            out[name] = value * tau0
        elif name not in ("r", "delta") and isinstance(value, float):
            out[name] = value
    return out


def assert_invariant(medium, r, m, tau0_factor, c0_factor, r_factor):
    gamma, c0, alpha1, tau0 = medium
    scaled = reported(gamma, c0 * c0_factor, alpha1 * tau0_factor * c0_factor / r_factor,
                      tau0 * tau0_factor, r * r_factor, m / tau0_factor)
    for name, value in reported(gamma, c0, alpha1, tau0, r, m).items():
        scale = max(1.0, abs(value)) if name.startswith("log10") else abs(value)
        assert abs(scaled[name] - value) <= RTOL * scale, (name, value, scaled[name])


@settings(max_examples=60, deadline=None)
@given(gamma=st.one_of(st.just(2.0), st.floats(1.05, 2.0)),
       c0=st.floats(0.01, 1.0), log10_alpha1=st.floats(0.0, 3.0),
       log10_tau0=st.floats(-9.0, -3.0), log10_r=st.floats(-2.0, 1.0),
       log10_m_tau0=st.floats(-6.0, 0.0),
       exponents=st.tuples(*[st.integers(-20, 20)] * 3))
def test_power_of_two_rescalings_keep_every_relative_quantity(
        gamma, c0, log10_alpha1, log10_tau0, log10_r, log10_m_tau0, exponents):
    tau0 = 10.0**log10_tau0
    medium = (gamma, c0, 10.0**log10_alpha1, tau0)
    assert_invariant(medium, 10.0**log10_r, 10.0**log10_m_tau0 / tau0,
                     *(2.0**e for e in exponents))


def test_the_rescaling_that_moved_the_closing_term():
    # Lambda = 1.2e10 puts the closure where phi nearly cancels: its closing term's
    # excess over 1 (1e-7) moves with the last bit of tau0*W
    assert_invariant((1.525, 0.0381, 65.38, 2.38e-7), 1.715, 203.2, 4.0, 8.0, 2.0**-15)


@pytest.mark.parametrize("factors", [(10.0, 1.0, 1.0), (0.01, 7.0, 1.0), (1.0, 3.0, 5.0),
                                     (1e3, 0.2, 0.01)], ids=str)
def test_decimal_rescalings_of_castor_oil(factors):
    causal = builtin_preset("castor-oil").causal
    medium = (causal.gamma, causal.c0, causal.alpha1, causal.tau0)
    assert_invariant(medium, 1.0, 100.0, *factors)
