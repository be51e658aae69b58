"""Property tests: the derived power law, the truncation bound and the certified suprema."""

import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
mpmath = pytest.importorskip("mpmath")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from lossywave import (  # noqa: E402
    CausalLaw,
    EnvelopeBoundConstants,
    MediumPreset,
    PowerLaw,
    builtin_preset,
    corrected_truncation_error_bound,
    derive_powerlaw_coeffs,
    alpha_parts,
    deviation_factor,
    energy_profiles,
    eval_alpha,
    log10_truncation_errors,
    model_error_reports,
    power_lower_envelope,
    verify_envelope,
)
from lossywave.bounds import SUPREMUM_RTOL, _certified_maxima  # noqa: E402

CASTOR = builtin_preset("castor-oil")


@settings(max_examples=15, deadline=None)
@given(log10_r=st.floats(min_value=-6.0, max_value=1.0),
       m=st.floats(min_value=20.0, max_value=200.0))
def test_corrected_bound_dominates_exact_error(log10_r, m):
    r = 10.0**log10_r
    constants = EnvelopeBoundConstants(CASTOR.causal, m)
    bound = corrected_truncation_error_bound(constants, r)
    envelope = verify_envelope(constants, bound.split)
    assert envelope.holds_lower and envelope.holds_upper
    profile = energy_profiles(CASTOR.causal, [r])[0]
    assert bound.log10_bound >= log10_truncation_errors([profile], m)[0]


@st.composite
def derived_media(draw):
    """A causal law over the ranges of test_spectrum_properties' `laws()`, with its power law."""
    causal = CausalLaw(gamma=draw(st.floats(1.05, 2.0)), c0=0.15,
                       alpha1=10.0 ** draw(st.floats(0.0, 3.0)),
                       tau0=10.0 ** draw(st.floats(-9.0, -3.0)))
    return MediumPreset("drawn", causal)


def _extreme(gamma, c0, alpha1, tau0):
    return MediumPreset("extreme", CausalLaw(gamma=gamma, c0=c0, alpha1=alpha1, tau0=tau0))


# The upper envelope is a theorem, which `verify_envelope` no longer evaluates:
# Re u >= 0 gives |1 + u| >= 1, so Re alpha_c <= |alpha_c| = a2*w/sqrt(|1 + u|) <= a2*w.
# The exact value is at most sin((gamma-1)*pi/4)*a2*w <= 0.71*a2*w, so the kernel's
# rounding needs no allowance.  The media at the ends of the double range are those
# of test_cli's extreme-medium exits, each read at w = 1/tau0 or, where a2/tau0
# overflows, at the largest decade where a2*w is a double.
@settings(max_examples=200, deadline=None)
@given(medium=derived_media(), log10_w=st.floats(-300.0, 300.0))
@example(medium=CASTOR, log10_w=6.0)
@example(medium=CASTOR, log10_w=300.0)
@example(medium=_extreme(1.05, 0.15, 1e300, 1e-300), log10_w=7.0)
@example(medium=_extreme(1.3, 0.15, 1e100, 1e-300), log10_w=207.0)
@example(medium=_extreme(1.05, 1e-10, 1e100, 1e300), log10_w=-300.0)
@example(medium=_extreme(1.05, 1e-10, 1e-10, 1e-300), log10_w=300.0)
def test_causal_attenuation_is_below_a2_w(medium, log10_w):
    w = 10.0**log10_w
    _, a2 = derive_powerlaw_coeffs(medium.causal)
    with np.errstate(over="ignore"):  # a2*w = inf holds trivially
        assert alpha_parts(medium.causal, w)[0] <= a2 * w


@settings(max_examples=40, deadline=None)
@given(medium=derived_media(), log10_r=st.floats(-6.0, 2.0))
def test_full_energy_lower_bound_is_below_the_line_energy(medium, log10_r):
    # the corrected bound's denominator 1/(2*r*a2) against the quadrature of the
    # line energy, the line profile's total
    r = 10.0**log10_r
    bound = corrected_truncation_error_bound(EnvelopeBoundConstants(medium.causal, 100.0), r)
    line = energy_profiles(medium.causal, [r])[0]
    assert bound.log10_full_lower <= math.log10(line.total)


@settings(max_examples=50, deadline=None)
@given(medium=derived_media(), log10_m=st.floats(-3.0, 9.0),
       slope_factor=st.floats(1e-3, 10.0))
def test_envelope_constants_are_derived_from_the_law(medium, log10_m, slope_factor):
    causal, m = medium.causal, 10.0**log10_m
    c = EnvelopeBoundConstants(causal, m, slope_factor)
    a1, a2 = derive_powerlaw_coeffs(causal)
    split = max(m, 1.0 / causal.tau0)
    assert (c.a1, c.a2) == (a1, a2)
    assert c.a0 == slope_factor * a1 * causal.gamma * m ** (causal.gamma - 1.0)
    assert c.alpha_m == eval_alpha(causal, m).real
    assert (c.split, c.kappa, c.exponent) == (split, *power_lower_envelope(causal, split))


@settings(max_examples=100, deadline=None)
@given(gamma=st.floats(1.0001, 2.0), log10_c0=st.floats(-3.0, 3.0),
       log10_alpha1=st.floats(-3.0, 6.0), log10_tau0=st.floats(-12.0, 0.0))
def test_preset_power_law_is_the_derived_one(gamma, log10_c0, log10_alpha1, log10_tau0):
    causal = CausalLaw(gamma=gamma, c0=10.0**log10_c0, alpha1=10.0**log10_alpha1,
                       tau0=10.0**log10_tau0)
    expected = PowerLaw(causal.gamma, *derive_powerlaw_coeffs(causal), causal.c0)
    assert MediumPreset("drawn", causal).powerlaw == expected


def _grid(lo, hi, n=100_001):
    """Nodes of [lo, hi]: uniform, and geometric in the distance from lo, down to 1e-12 of it."""
    span = hi - lo
    return np.concatenate((np.linspace(lo, hi, n), lo + np.geomspace(1e-12 * span, span, n)))


def _closing(causal, r, w):
    """(1 + exp(-r*phi(w)))**2, phi = a1*w**gamma - a2*w, in 60-digit mpmath from the causal law.

    In doubles the two terms of phi, each above 1e21 after r for some drawn
    media, cancel to the wrong sign, and a1 rounded to a double alone moves
    r*phi by more than its value.
    """
    with mpmath.workdps(60):
        g, c0, alpha1, tau0 = (mpmath.mpf(v) for v in
                               (causal.gamma, causal.c0, causal.alpha1, causal.tau0))
        a1 = alpha1 * tau0 ** (g - 1) * abs(mpmath.cos(g * mpmath.pi / 2)) / (2 * c0)
        w = mpmath.mpf(w)
        return float((1 + mpmath.exp(-mpmath.mpf(r) * (a1 * w**g - alpha1 / c0 * w))) ** 2)


# Two media where a weaker certificate shows.  Castor oil at r = 1: C peaks
# at w = 391, beyond both M and the tail cut, where a search without the
# closure to infinity stops.  The second: a cell bound from half the slope
# majorant prunes the outer peak at w ~ 2e3 and certifies 1.05808, 7e-5 short.
@settings(max_examples=40, deadline=None)
@given(medium=derived_media(), log10_r=st.floats(-6.0, 2.0), log10_delta=st.floats(-6.0, -0.3))
@example(medium=CASTOR, log10_r=0.0, log10_delta=math.log10(6e-4))
@example(medium=MediumPreset("drawn", CausalLaw(
    gamma=1.6991225607030942, c0=0.15, alpha1=229.76867756400878, tau0=1.4115541855112513e-08)),
    log10_r=math.log10(2.623694646100546), log10_delta=math.log10(1.2318175251253916e-05))
# Here phi in doubles cancels to the wrong sign at the closing frequency 3.4e18.
@example(medium=MediumPreset("drawn", CausalLaw(
    gamma=1.111328125, c0=0.15, alpha1=17.78279410038923, tau0=1e-9)),
    log10_r=1.0, log10_delta=-4.0)
def test_certified_suprema_cover_a_dense_grid(medium, log10_r, log10_delta):
    # C sampled independently of the search, on [0, m_delta] and on [m_delta, 1e12]
    # with a geometric grid out to 1e12 as well, never exceeds the certified bound
    causal = medium.causal
    r, delta = 10.0**log10_r, 10.0**log10_delta
    rep = model_error_reports(energy_profiles(causal, [r]), 100.0, delta)[0]
    inner = deviation_factor(causal, r, _grid(0.0, rep.m_delta))
    outer = deviation_factor(causal, r, np.concatenate(
        (_grid(rep.m_delta, 1e12), np.geomspace(rep.m_delta, 1e12, 100_001))))
    assert np.max(inner) <= rep.d1_max_c * (1.0 + 1e-12)
    assert np.max(outer) <= rep.d2_max_c * (1.0 + 1e-12)

    # the best points evaluated, and how far above them the certificates lie;
    # the closing term is recomputed here with rounding of its own, hence 1e-12
    w = rep.omega_closed
    closing = _closing(causal, r, w)
    assert 0.0 <= rep.omega_at_d1 <= rep.m_delta <= rep.omega_at_d2 <= w
    for omega, lower in ((rep.omega_at_d1, rep.d1_max_c_lower),
                         (rep.omega_at_d2, rep.d2_max_c_lower)):
        # a lone node may round differently from one in a vector call
        assert deviation_factor(causal, r, omega) == pytest.approx(lower, rel=1e-14)
    assert rep.d1_max_c_lower <= rep.d1_max_c <= rep.d1_max_c_lower * (1.0 + SUPREMUM_RTOL)
    assert rep.d2_max_c_lower <= rep.d2_max_c <= max(rep.d2_max_c_lower * (1.0 + SUPREMUM_RTOL),
                                                     closing) * (1.0 + 1e-12)


# `bounds` certifies every supremum of every distance in one branch and bound.  Each
# search keeps its cells contiguous and in order, so its (omega, lower, upper) is that of
# the search run alone, bit for bit, and so is each report; delta = 1 leaves the inner
# search a single node.
@settings(max_examples=25, deadline=None, derandomize=True)
@given(medium=derived_media(), log10_rs=st.lists(st.floats(-6.0, 2.0), min_size=1, max_size=6),
       log10_delta=st.floats(-6.0, 0.0), m=st.floats(20.0, 200.0))
@example(medium=CASTOR, log10_rs=[-6.0, -4.0, -2.0, 0.0, 1.0], log10_delta=math.log10(6e-4),
         m=100.0)
@example(medium=CASTOR, log10_rs=[-6.0, -4.0, -2.0, 0.0, 1.0], log10_delta=math.log10(6e-4),
         m=77.123)
@example(medium=CASTOR, log10_rs=[-2.0, 0.0], log10_delta=0.0, m=100.0)
def test_one_search_equals_each_search_alone(medium, log10_rs, log10_delta, m):
    causal, delta = medium.causal, 10.0**log10_delta
    profiles = [energy_profiles(causal, [10.0**e])[0] for e in log10_rs]
    reports = model_error_reports(profiles, m, delta)
    assert reports == [model_error_reports([profile], m, delta)[0] for profile in profiles]
    searches = [search for rep in reports for search in
                ((rep.r, 0.0, rep.m_delta), (rep.r, rep.m_delta, rep.omega_closed))]
    assert _certified_maxima(causal, searches) == [_certified_maxima(causal, [search])[0]
                                                   for search in searches]
