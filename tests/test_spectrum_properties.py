"""Property tests: the tail width across laws, distances and starts."""

import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from lossywave import CausalLaw, MediumPreset, NumericalError, PowerLaw  # noqa: E402
from lossywave.laws import attenuation_rise  # noqa: E402
from lossywave.spectrum import _TAIL_DECADES, _tail_width  # noqa: E402

LOSSLESS = PowerLaw(gamma=1.5, a1=0.0, a2=0.0, c0=0.15)


@st.composite
def laws(draw):
    """A causal law or the power law derived from it, or the lossless law."""
    kind = draw(st.sampled_from(["causal", "powerlaw", "lossless"]))
    if kind == "lossless":
        return LOSSLESS
    causal = CausalLaw(gamma=draw(st.floats(1.05, 2.0)), c0=0.15,
                       alpha1=10.0 ** draw(st.floats(0.0, 3.0)),
                       tau0=10.0 ** draw(st.floats(-9.0, -3.0)))
    return causal if kind == "causal" else MediumPreset.from_causal("drawn", causal).powerlaw


@settings(max_examples=300, deadline=None)
@given(law=laws(), log10_r=st.floats(-300.0, 300.0),
       start=st.one_of(st.just(0.0), st.floats(-3.0, 6.0).map(lambda e: 10.0**e)))
def test_tail_width_meets_the_threshold_or_raises_naming_r(law, log10_r, start):
    # stated on the width h: start + h rounds to start where h < ulp(start)
    r = 10.0**log10_r
    try:
        h = _tail_width(law, r, start)
    except NumericalError as err:
        assert law is not LOSSLESS
        assert f"r={r!r}" in str(err)
        return
    if law is LOSSLESS:
        assert h == math.inf
        return
    assert 0.0 < h < math.inf
    reached = 2.0 * r * float(attenuation_rise(law, start, np.array([h]))[0])
    assert _TAIL_DECADES <= reached <= _TAIL_DECADES * (1.0 + 1e-8)
