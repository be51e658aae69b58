"""Property tests: the tail width, the energy pass and the band edge across laws and distances."""

import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from lossywave import CausalLaw, MediumPreset, NumericalError, PowerLaw  # noqa: E402
from lossywave.laws import _rise, attenuation_rise  # noqa: E402
from lossywave.spectrum import (  # noqa: E402
    _CUT_RTOL, _TAIL_DECADES, BAND_EDGE_RTOL, _band_edges, _energies_at, _energy_profiles,
    _log10_truncation_errors, _log_energies, _log_energy, _relative_model_errors, _tail_width,
    energy_profile, log10_relative_truncation_error, relative_model_error)

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


CASTOR = CausalLaw(gamma=1.66, c0=0.15, alpha1=138.08, tau0=1e-6)


def _same_profiles(batch, alone):
    return all(a.top == b.top and a.hi == b.hi and a.energy.value == b.energy.value
               and a.energy.error == b.energy.error and a.energy.samples == b.energy.samples
               and np.array_equal(a.energy.edges, b.energy.edges)
               and np.array_equal(a.energy.panels, b.energy.panels)
               for a, b in zip(batch, alone, strict=True))


# `bounds` and `table2` run every stage once for all their distances: one rise shared by
# the tail-width solves, one quadrature whose intervals refine as they would alone, each
# summed in a matrix product of its own.  So each distance's profile, tail, band energy,
# band edge and model error is that of the distance run alone, bit for bit.
@settings(max_examples=25, deadline=None, derandomize=True)
@given(law=laws(lossless=False), log10_rs=st.lists(st.floats(-6.0, 2.0), min_size=1, max_size=8),
       m=st.floats(20.0, 200.0), log10_delta=st.floats(-6.0, -0.5))
@example(law=CASTOR, log10_rs=[-6.0, -4.0, -2.0, 0.0, 1.0], m=100.0,
         log10_delta=math.log10(6e-4))
@example(law=CASTOR, log10_rs=[-6.0, -4.0, -2.0, 0.0, 1.0], m=77.123,
         log10_delta=math.log10(6e-4))
def test_every_batched_pass_equals_each_distance_alone(law, log10_rs, m, log10_delta):
    rs, delta = [10.0**e for e in log10_rs], 10.0**log10_delta
    lines, bands = _energy_profiles(law, rs), _energy_profiles(law, rs, m)
    assert _same_profiles(lines, [energy_profile(law, r) for r in rs])
    assert _same_profiles(bands, [energy_profile(law, r, m) for r in rs])
    assert _log_energies(law, rs, m) == [_log_energy(law, r, m) for r in rs]
    assert _log10_truncation_errors(lines, m) == [log10_relative_truncation_error(p, m)
                                                  for p in lines]
    assert _energies_at(lines, m) == [p.at(m) for p in lines]
    assert _band_edges(lines, delta) == [p.band_edge(delta) for p in lines]
    if isinstance(law, CausalLaw):
        for profiles in (lines, bands):
            assert _relative_model_errors(profiles, m) == [relative_model_error(p, m)
                                                           for p in profiles]
