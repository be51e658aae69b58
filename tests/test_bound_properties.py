"""Property tests: invariants of the truncation bounds across parameter space."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from lossywave import (  # noqa: E402
    builtin_preset,
    corrected_truncation_error_bound,
    energy_profile,
    envelope_bound_constants,
    log10_relative_truncation_error,
    verify_envelope,
)

CASTOR = builtin_preset("castor-oil")


@settings(max_examples=15, deadline=None)
@given(log10_r=st.floats(min_value=-6.0, max_value=1.0),
       m=st.floats(min_value=20.0, max_value=200.0))
def test_corrected_bound_dominates_exact_error(log10_r, m):
    r = 10.0**log10_r
    constants = envelope_bound_constants(CASTOR, m)
    bound = corrected_truncation_error_bound(CASTOR.causal, constants, r)
    envelope = verify_envelope(CASTOR.causal, constants, bound.split)
    assert envelope.holds_lower and envelope.holds_upper
    profile = energy_profile(CASTOR.causal, r)
    assert bound.log10_bound >= log10_relative_truncation_error(profile, m)
