"""eval_alpha against 50-digit mpmath, for both laws from gamma near 1 to gamma = 2.

The oracle evaluates each law's closed form, the power law with the
float coefficients a1 and a2 the law object holds, the causal law with
the principal square root, both on the principal branch of (-1j*w)**p.
Re(alpha*) is checked relative to itself and Im(alpha*) relative to
|alpha*|, since Im of the power law passes through zero at its phase-speed
pole.  Measured worst cases: 7e-16 for the real-arithmetic kernel, 2.7e-14
for the complex power it replaced (power law, gamma = 1.005).
"""

import numpy as np
import pytest

mpmath = pytest.importorskip("mpmath")
from lossywave import CausalLaw, MediumPreset, eval_alpha  # noqa: E402

mp = mpmath.mp
RTOL = 5e-14
OMEGAS = np.geomspace(1e-3, 1e12, 151)


def _exact(law, w):
    with mp.workdps(50):
        g = mp.mpf(law.gamma)
        z = mp.mpc(0, -mp.mpf(w))  # -1j*w
        if isinstance(law, CausalLaw):
            u = (mp.mpf(law.tau0) * z) ** (g - 1)
            return mp.mpf(law.alpha1) * z / (mp.mpf(law.c0) * mp.sqrt(1 + u))
        if law.gamma == 2.0:  # cos(gamma*pi/2) = -1: a1*w**2 - 1j*a2*w
            return mp.mpf(law.a1) * mp.mpf(w) ** 2 + mp.mpf(law.a2) * z
        return mp.mpf(law.a1) * z**g / mp.cos(g * mp.pi / 2) + mp.mpf(law.a2) * z


@pytest.mark.parametrize("gamma", [1.005, 1.3, 1.66, 1.95, 2.0])
@pytest.mark.parametrize("kind", ["causal", "power-law"])
def test_matches_mpmath(gamma, kind):
    preset = MediumPreset.from_causal("oracle", CausalLaw(gamma=gamma, c0=0.15, alpha1=138.08,
                                                          tau0=1e-6))
    law = preset.causal if kind == "causal" else preset.powerlaw
    w = np.concatenate((OMEGAS, -OMEGAS))
    got = eval_alpha(law, w)
    with mp.workdps(50):
        for omega, value in zip(w, got):
            exact = _exact(law, omega)
            assert abs(value.real - exact.real) <= RTOL * abs(exact.real), (omega, value)
            assert abs(value.imag - exact.imag) <= RTOL * abs(exact), (omega, value)
