"""Property tests: the tail width, the energy pass and the band edge across laws and distances."""

import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from lossywave import CausalLaw, MediumPreset, NumericalError, PowerLaw  # noqa: E402
from lossywave.laws import _rise, attenuation_rise  # noqa: E402
from lossywave.spectrum import (  # noqa: E402
    _CUT_RTOL, _TAIL_DECADES, BAND_EDGE_RTOL, _log_energy, _tail_width, energy_profile)

LOSSLESS = PowerLaw(gamma=1.5, a1=0.0, a2=0.0, c0=0.15)


@st.composite
def laws(draw, lossless=True, log10_tau0_max=-3.0):
    """A causal law or the power law derived from it, or (if `lossless`) the lossless law."""
    kind = draw(st.sampled_from(["causal", "powerlaw", "lossless"][:3 if lossless else 2]))
    if kind == "lossless":
        return LOSSLESS
    causal = CausalLaw(gamma=draw(st.floats(1.05, 2.0)), c0=0.15,
                       alpha1=10.0 ** draw(st.floats(0.0, 3.0)),
                       tau0=10.0 ** draw(st.floats(-9.0, log10_tau0_max)))
    return causal if kind == "causal" else MediumPreset("drawn", causal).powerlaw


@settings(max_examples=300, deadline=None)
@given(law=laws(log10_tau0_max=1.0), log10_r=st.floats(-300.0, 300.0),
       start=st.one_of(st.just(0.0), st.floats(-3.0, 6.0).map(lambda e: 10.0**e)))
# tau0*start = 1e301 puts |u| beyond 1e205, where an unscaled conjugate form overflows to nan
@example(law=CausalLaw(gamma=2.0, c0=0.15, alpha1=138.08, tau0=10.0), log10_r=0.0, start=1e300)
def test_tail_width_meets_the_threshold_or_raises_naming_r(law, log10_r, start):
    # stated on the width h: start + h rounds to start where h < ulp(start); slow
    # media (tau0 up to 10) put |u| beyond 1e205 from start = 1e300 on
    r = 10.0**log10_r
    try:
        h = _tail_width(_rise(law, start), r)
    except NumericalError as err:
        assert law is not LOSSLESS
        assert f"r={r!r}" in str(err)
        return
    if law is LOSSLESS:
        assert h == math.inf
        return
    assert 0.0 < h < math.inf
    # h is the upper end of a bracket no wider than _CUT_RTOL*h or one ulp
    below = h - max(_CUT_RTOL * h, math.ulp(h))
    reached, short = 2.0 * r * attenuation_rise(law, start, np.array([h, below]))
    assert _TAIL_DECADES <= reached <= _TAIL_DECADES * (1.0 + 1e-8)
    assert short < _TAIL_DECADES


@settings(max_examples=100, deadline=None)
@given(law=laws(lossless=False), log10_r=st.floats(-6.0, 2.0), log10_m=st.floats(-1.0, 5.0))
def test_band_and_tail_passes_add_up_to_the_line(law, log10_r, log10_m):
    # E(M) from the line profile plus the tail pass from M is the line
    # energy, the profile's total
    r, m = 10.0**log10_r, 10.0**log10_m
    line = energy_profile(law, r)
    tail = math.exp(_log_energy(law, r, m))
    if tail >= 1e-3 * line.total:
        assert line.at(m) + tail == pytest.approx(line.total, rel=1e-10, abs=0.0)


@settings(max_examples=100, deadline=None)
@given(law=laws(lossless=False), log10_r=st.floats(-6.0, 2.0),
       log10_delta=st.floats(-12.0, math.log10(0.9)))
def test_band_edge_leaves_delta_of_the_energy_beyond_it(law, log10_r, log10_delta):
    # the tail beyond M from its own energy pass: the profile's tails are accurate to
    # 1e-12 of the full energy, 1e-12/delta of delta*full, the pass to 1e-12 of itself
    r, delta = 10.0**log10_r, 10.0**log10_delta
    profile = energy_profile(law, r)
    m = profile.band_edge(delta)
    assert 0.0 < m < profile.top
    tail = math.exp(_log_energy(law, r, m))
    assert tail == pytest.approx(delta * profile.total,
                                 rel=BAND_EDGE_RTOL + 1e-12 / delta + 1e-12)


@settings(max_examples=50, deadline=None)
@given(law=laws(lossless=False), log10_r=st.floats(-6.0, 2.0))
def test_band_edge_exits_at_zero(law, log10_r):
    assert energy_profile(law, 10.0**log10_r).band_edge(1.0) == 0.0


@settings(max_examples=100, deadline=None)
@given(law=laws(lossless=False), log10_r=st.floats(-6.0, 2.0))
def test_energy_beyond_the_tail_cut_is_invisible(law, log10_r):
    # the line profile's total stands for the full energy: an independent pass
    # from its cut finds at most 1e-20 of it beyond (measured at most 2.3e-30)
    r = 10.0**log10_r
    profile = energy_profile(law, r)
    assert _log_energy(law, r, profile.top) <= math.log(1e-20 * profile.total)
