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
"""

import numpy as np
import pytest

mpmath = pytest.importorskip("mpmath")
from lossywave import CausalLaw, deviation_factor  # noqa: E402
from lossywave.laws import _alpha_difference  # noqa: E402

mp = mpmath.mp
RTOL_DIFF = 1e-13
RTOL_PART = 1e-11  # each of Re and Im, relative to itself
RTOL = 5e-12
OMEGAS = np.geomspace(1e-3, 1e7, 121)
DISTANCES = (1e-6, 1e-2, 1.0, 10.0)


def _exact_difference(causal, w):
    with mp.workdps(50):
        g, c0, alpha1, tau0 = (mp.mpf(v) for v in
                               (causal.gamma, causal.c0, causal.alpha1, causal.tau0))
        cos = mp.cos(g * mp.pi / 2)
        a1 = alpha1 * tau0 ** (g - 1) * abs(cos) / (2 * c0)
        a2 = alpha1 / c0
        z = mp.mpc(0, -mp.mpf(w))  # -1j*w
        powerlaw = a1 * z**g / cos + a2 * z
        causal_value = alpha1 * z / (c0 * mp.sqrt(1 + (tau0 * z) ** (g - 1)))
        return powerlaw - causal_value


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
