"""eval_alpha against 50-digit mpmath, for both laws from gamma near 1 to gamma = 2.

The oracle evaluates each law's closed form, the power law with the
float coefficients a1 and a2 the law object holds, the causal law with
the principal square root, both on the principal branch of (-1j*w)**p.
Re(alpha*) is checked relative to itself and Im(alpha*) relative to
|alpha*|, since Im of the power law passes through zero at its phase-speed
pole.  Measured worst cases: 7e-16 for the real-arithmetic kernel, 2.7e-14
for the complex power it replaced (power law, gamma = 1.005).  The causal
law is also checked up to |w| = 1.7e308, where alpha1*|w| overflows although
alpha* need not; for tau0 = 10, whose tau0*|w| leaves the doubles there
(worst case 1.6e-15: the reciprocal 1/(tau0*|w|) is subnormal); for
c0 = 1e300, whose c0*|1 + u| overflows while alpha* is far below 1; and for
a medium whose scale alpha1/(c0*tau0) = 1e310 is no double, whose power law
also overflows in both terms of Im(alpha*).  A part beyond the doubles must
be inf with the sign of the exact value, with no RuntimeWarning.
"""

import math
import sys

import numpy as np
import pytest

mpmath = pytest.importorskip("mpmath")
from lossywave import CausalLaw, MediumPreset, eval_alpha  # noqa: E402

mp = mpmath.mp
RTOL = 5e-14
OMEGAS = np.geomspace(1e-3, 1e12, 151)
HUGE = np.geomspace(1e300, 1.7e308, 41)  # the intermediates overflow from |w| ~ 2e305 at gamma 1.66


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


def _close(value, exact, scale):
    if abs(exact) > sys.float_info.max:
        return value == math.copysign(math.inf, exact)
    return abs(value - exact) <= RTOL * scale


MEDIA = {str(gamma): dict(gamma=gamma, c0=0.15, alpha1=138.08, tau0=1e-6)
         for gamma in (1.005, 1.3, 1.66, 1.95, 2.0)}
# c0*|1 + u| overflows from |w| ~ 3e22 on, where alpha* is still a double
MEDIA["c0=1e300"] = dict(gamma=1.5, c0=1e300, alpha1=1.0, tau0=1e-6)
# tau0*|w| overflows from |w| ~ 1.8e307 on, where alpha* ~ 2e156 is still a double
MEDIA["tau0=10"] = dict(gamma=2.0, c0=0.15, alpha1=138.08, tau0=10.0)
MEDIA["tau0=10,gamma=1.66"] = dict(gamma=1.66, c0=0.15, alpha1=138.08, tau0=10.0)
# K = alpha1/(c0*tau0) = 1e310 lies beyond the doubles, alpha1/c0 does not.  Its
# power law's a1*w**gamma and a2*w = 1e300*w both leave the doubles from w ~ 1.8e8 on.
MEDIA["alpha1=1e300"] = dict(gamma=1.66, c0=1.0, alpha1=1e300, tau0=1e-10)
CASES = [pytest.param(medium, kind, id=f"{kind}-{name}")
         for kind in ("causal", "power-law") for name, medium in MEDIA.items()]


@pytest.mark.parametrize("medium,kind", CASES)
def test_matches_mpmath(medium, kind):
    preset = MediumPreset("oracle", CausalLaw(**medium))
    law = preset.causal if kind == "causal" else preset.powerlaw
    omegas = np.concatenate((OMEGAS, HUGE)) if kind == "causal" else OMEGAS
    w = np.concatenate((omegas, -omegas))
    got = eval_alpha(law, w)
    with mp.workdps(50):
        for omega, value in zip(w, got):
            exact = _exact(law, omega)
            assert _close(value.real, exact.real, abs(exact.real)), (omega, value)
            assert _close(value.imag, exact.imag, abs(exact)), (omega, value)
