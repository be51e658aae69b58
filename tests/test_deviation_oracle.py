"""_alpha_difference and deviation_factor against 50-digit mpmath.

The oracle derives a1 and a2 from (gamma, c0, alpha1, tau0) in mpmath
and subtracts the two laws there: the float a2 = alpha1/c0 alone would
put an error of 1e-16*|alpha| into the plain difference.  Measured
worst cases: 5e-15 for the difference, 6e-13 for its real or imaginary
part alone, 2e-13 for the deviation factor, whose sin(y/2) term near
y = 2*pi*k amplifies the error of the difference.  At gamma = 2 the
phase of u is -1j exactly, so Re(b), the attenuation difference, keeps
its digits where it is a higher-order term.
The direct form 1 - u/2 - (1+u)**-0.5 loses four digits to cancellation
just above the |u| = 0.01 switch of the series and misses RTOL_DIFF there.
The curvature majorant is checked against the second derivative of that
mpmath difference, taken by `mpmath.diff` at a precision that covers the
cancellation of the two laws (2*log10(1/|u|) digits).
"""

import math

import numpy as np
import pytest

mpmath = pytest.importorskip("mpmath")
hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from lossywave import CausalLaw, alpha_difference_curvature_bound, deviation_factor  # noqa: E402
from lossywave.laws import _alpha_difference  # noqa: E402

mp = mpmath.mp
RTOL_DIFF = 1e-13
RTOL_PART = 1e-11  # each of Re and Im, relative to itself
RTOL = 5e-12
OMEGAS = np.geomspace(1e-3, 1e7, 121)
DISTANCES = (1e-6, 1e-2, 1.0, 10.0)


def _difference(causal, w):
    """alpha_powerlaw(w) - alpha_causal(w) at mpmath's working precision."""
    g, c0, alpha1, tau0 = (mp.mpf(v) for v in
                           (causal.gamma, causal.c0, causal.alpha1, causal.tau0))
    cos = mp.cos(g * mp.pi / 2)
    a1 = alpha1 * tau0 ** (g - 1) * abs(cos) / (2 * c0)
    a2 = alpha1 / c0
    z = mp.mpc(0, -mp.mpf(w))  # -1j*w
    powerlaw = a1 * z**g / cos + a2 * z
    causal_value = alpha1 * z / (c0 * mp.sqrt(1 + (tau0 * z) ** (g - 1)))
    return powerlaw - causal_value


def _exact_difference(causal, w):
    with mp.workdps(50):
        return _difference(causal, w)


@pytest.mark.parametrize("gamma", [1.1, 1.5, 1.66, 1.9, 2.0])
def test_matches_mpmath(gamma):
    causal = CausalLaw(gamma=gamma, c0=0.15, alpha1=138.08, tau0=1e-6)
    w = np.concatenate((OMEGAS, -OMEGAS))
    got = _alpha_difference(causal, w)
    devs = {r: deviation_factor(causal, r, w) for r in DISTANCES}
    with mp.workdps(50):
        for k, omega in enumerate(w):
            exact = _exact_difference(causal, omega)
            assert abs(mpmath.mpc(got[k]) - exact) <= RTOL_DIFF * abs(exact), (omega, got[k])
            for part, exact_part in ((got[k].real, exact.real), (got[k].imag, exact.imag)):
                assert abs(part - exact_part) <= RTOL_PART * abs(exact_part), (omega, got[k])
            for r, dev in devs.items():
                c = abs(mp.expm1(-exact * mp.mpf(r))) ** 2
                assert abs(dev[k] - c) <= RTOL * c, (omega, r, dev[k])
    # conjugate symmetry holds exactly, not only to the tolerance
    n = OMEGAS.size
    assert np.array_equal(got[n:], np.conj(got[:n]))


# Drawn cells [a, b] from 1e-9 of b wide to 98% of it, with |u| at b from
# (1e-8)**(gamma-1) up to 1e3**(gamma-1).  The example is a narrow cell at
# |u| = 1e-4, where the majorant is the leading term of |b''| and any
# smaller multiple of it fails.
@settings(max_examples=100, deadline=None)
@given(gamma=st.floats(1.05, 2.0), log10_c0=st.floats(-3.0, 3.0),
       log10_alpha1=st.floats(-3.0, 6.0), log10_tau0=st.floats(-12.0, 0.0),
       log10_tau0_b=st.floats(-8.0, 3.0), log10_gap=st.floats(-9.0, -0.01))
@example(gamma=1.66, log10_c0=math.log10(0.15), log10_alpha1=math.log10(138.08),
         log10_tau0=-6.0, log10_tau0_b=-4.0 / 0.66, log10_gap=-9.0)
def test_curvature_bound_dominates_the_exact_second_derivative(
        gamma, log10_c0, log10_alpha1, log10_tau0, log10_tau0_b, log10_gap):
    causal = CausalLaw(gamma=gamma, c0=10.0**log10_c0, alpha1=10.0**log10_alpha1,
                       tau0=10.0**log10_tau0)
    b = 10.0**log10_tau0_b / causal.tau0
    a = b * (1.0 - 10.0**log10_gap)
    bound = float(alpha_difference_curvature_bound(causal, a, b))
    s = 10.0 ** ((gamma - 1.0) * min(log10_tau0_b, 0.0))
    with mp.workdps(30 + 2 * math.ceil(-math.log10(s))):
        for v in (a, 0.5 * (a + b), b):
            exact = abs(mp.diff(lambda w: _difference(causal, w), mp.mpf(v), 2))
            # 1e-12: B2 is a rounded double, the exact value is not
            assert bound >= exact * (1.0 - 1e-12), (v, bound, exact)
