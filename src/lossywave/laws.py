"""Attenuation-dispersion laws for dissipative pressure waves.

Two complex-valued laws alpha*(omega) are implemented:

* ``CausalLaw`` -- a relaxation model with parameters (gamma, c0,
  alpha1, tau0) whose wave front travels at the finite speed c0,
* ``PowerLaw`` -- the empirical frequency power law with coefficients
  (gamma, a1, a2) whose attenuation grows like a1*|omega|**gamma.

The real part of alpha* is the attenuation in Np/cm, the imaginary
part shifts the phase of a propagating wave.  For small |tau0*omega|
the power law with coefficients from ``derive_powerlaw_coeffs``
approximates the causal law.

Unit convention, fixed throughout the package: angular frequency
omega in rad/us (conventionally written "MHz"), length in cm, time in
us, attenuation in Np/cm.  All constants are bare numbers in these
units; no dimensional analysis is performed.

Branch convention for the fractional power:

    (-1j*omega)**p = |omega|**p * exp(-1j * p * (pi/2) * sign(omega)),

the principal branch approached from the lower half-plane, which is
exactly what numpy's complex power evaluates.  With it Re(alpha*) is
even in omega, Im(alpha*) is odd, so sampled Green-function spectra
are Hermitian and synthesized signals are real.  The square root in
the causal law is the principal square root; its argument always has
real part >= 1, so no branch cut is ever crossed.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Union

import numpy as np

from .numerics import NumericalError

__all__ = [
    "CausalLaw",
    "PowerLaw",
    "DispersionLaw",
    "MediumPreset",
    "derive_powerlaw_coeffs",
    "alpha1_from_a1",
    "eval_alpha",
    "alpha_difference",
    "attenuation_rise",
    "wavenumber",
    "phase_speed",
    "powerlaw_phase_singularity",
    "small_frequency_bound",
    "builtin_preset",
    "load_preset",
]


def _require(condition, message):
    if not condition:
        raise ValueError(message)


def _finite(*values):
    return all(math.isfinite(v) for v in values)


@dataclass(frozen=True)
class CausalLaw:
    """Causal relaxation law alpha*(w) = alpha1*(-i w) / (c0*sqrt(1 + (-i tau0 w)**(gamma-1))).

    gamma in (1, 2]; c0 [cm/us], alpha1 [1/us] and tau0 [us] positive.
    """

    gamma: float
    c0: float
    alpha1: float
    tau0: float

    def __post_init__(self):
        _require(_finite(self.gamma, self.c0, self.alpha1, self.tau0),
                 "causal law parameters must be finite")
        _require(1.0 < self.gamma <= 2.0, f"gamma must lie in (1, 2], got {self.gamma}")
        _require(self.c0 > 0.0, "c0 must be positive")
        _require(self.alpha1 > 0.0, "alpha1 must be positive")
        _require(self.tau0 > 0.0, "tau0 must be positive")

    @property
    def tag(self):
        return "causal"


@dataclass(frozen=True)
class PowerLaw:
    """Frequency power law alpha*(w) = a1*(-i w)**gamma / cos(gamma*pi/2) + a2*(-i w).

    a1 [1/(cm (rad/us)^gamma)] and a2 [1/(cm (rad/us))] are the
    attenuation and dispersion-offset coefficients.  c0 [cm/us] is the
    phase reference of the originating medium: the law itself does not
    depend on it, but the Green-function phase factor and the phase
    speed do.

    gamma = 2 makes cos(gamma*pi/2) = -1 and the law degenerates to
    the thermoviscous quadratic a1*w**2 - i*a2*w, which is evaluated
    directly to avoid sign ambiguity.  a1 = a2 = 0 yields the lossless
    law alpha* = 0, useful as a reference medium.
    """

    gamma: float
    a1: float
    a2: float
    c0: float

    def __post_init__(self):
        _require(_finite(self.gamma, self.a1, self.a2, self.c0),
                 "power law parameters must be finite")
        _require(1.0 < self.gamma <= 2.0, f"gamma must lie in (1, 2], got {self.gamma}")
        _require(self.a1 >= 0.0, "a1 must be non-negative")
        _require(self.a2 >= 0.0, "a2 must be non-negative")
        _require(self.c0 > 0.0, "c0 must be positive")

    @property
    def tag(self):
        return "power-law"


DispersionLaw = Union[CausalLaw, PowerLaw]


def derive_powerlaw_coeffs(causal):
    """Small-frequency power-law coefficients (a1, a2) of a causal law.

    a1 = alpha1 * tau0**(gamma-1) * |cos(gamma*pi/2)| / (2*c0)
    a2 = alpha1 / c0

    Both scale linearly with alpha1.
    """
    g = causal.gamma
    a1 = causal.alpha1 * causal.tau0 ** (g - 1.0) * abs(math.cos(g * math.pi / 2.0)) / (2.0 * causal.c0)
    a2 = causal.alpha1 / causal.c0
    return a1, a2


def alpha1_from_a1(a1, gamma, c0, tau0):
    """Invert the a1 relation of `derive_powerlaw_coeffs` back to alpha1."""
    _require(a1 > 0.0 and c0 > 0.0 and tau0 > 0.0, "a1, c0 and tau0 must be positive")
    _require(1.0 < gamma <= 2.0, f"gamma must lie in (1, 2], got {gamma}")
    return 2.0 * c0 * a1 / (tau0 ** (gamma - 1.0) * abs(math.cos(gamma * math.pi / 2.0)))


def _is_derived_pair(causal, powerlaw):
    """True when powerlaw carries the coefficients derived from causal, to 1e-12."""
    if not (isinstance(causal, CausalLaw) and isinstance(powerlaw, PowerLaw)):
        return False
    if powerlaw.gamma != causal.gamma or powerlaw.c0 != causal.c0:
        return False
    a1, a2 = derive_powerlaw_coeffs(causal)
    return (abs(powerlaw.a1 - a1) <= 1e-12 * abs(a1)
            and abs(powerlaw.a2 - a2) <= 1e-12 * abs(a2))


@dataclass(frozen=True)
class MediumPreset:
    """Named bundle of a causal law and its derived power law."""

    name: str
    causal: CausalLaw
    powerlaw: PowerLaw

    def __post_init__(self):
        _require(_is_derived_pair(self.causal, self.powerlaw),
                 "power-law coefficients are inconsistent with the causal law")

    @classmethod
    def from_causal(cls, name, causal):
        a1, a2 = derive_powerlaw_coeffs(causal)
        return cls(name=name, causal=causal,
                   powerlaw=PowerLaw(gamma=causal.gamma, a1=a1, a2=a2, c0=causal.c0))


_BUILTIN_PRESETS = {
    "castor-oil": dict(gamma=1.66, c0=0.15, alpha1=138.08, tau0=1e-6),
}


def builtin_preset(name):
    """Return a built-in medium preset by name ("castor-oil")."""
    try:
        params = _BUILTIN_PRESETS[name]
    except KeyError:
        raise ValueError(f"unknown preset {name!r}; built-ins: {sorted(_BUILTIN_PRESETS)}") from None
    return MediumPreset.from_causal(name, CausalLaw(**params))


def load_preset(source):
    """Load a preset from a built-in name or a JSON file.

    The file schema is {"name", "gamma", "c0", "alpha1", "tau0"}; the
    power-law coefficients are always derived on load, never stored.
    """
    if isinstance(source, str) and source in _BUILTIN_PRESETS:
        return builtin_preset(source)
    path = Path(source)
    if not path.exists():
        raise ValueError(f"preset {source!r} is neither a built-in name nor an existing file")
    doc = json.loads(path.read_text(encoding="utf-8"))
    missing = {"name", "gamma", "c0", "alpha1", "tau0"} - set(doc)
    _require(not missing, f"preset file {path} lacks fields {sorted(missing)}")
    causal = CausalLaw(gamma=float(doc["gamma"]), c0=float(doc["c0"]),
                       alpha1=float(doc["alpha1"]), tau0=float(doc["tau0"]))
    return MediumPreset.from_causal(str(doc["name"]), causal)


def eval_alpha(law, omega):
    """Complex attenuation-dispersion value alpha*(omega) in 1/cm.

    Accepts a scalar or a numpy array of finite frequencies in rad/us.
    Re(alpha*) is even in omega and positive away from zero (for
    non-degenerate laws); Im(alpha*) is odd, so
    eval_alpha(law, -w) == conj(eval_alpha(law, w)).
    """
    w = np.asarray(omega, dtype=float)
    if not np.all(np.isfinite(w)):
        raise ValueError("omega must be finite")
    if isinstance(law, CausalLaw):
        root = np.sqrt(1.0 + (-1j * law.tau0 * w) ** (law.gamma - 1.0))
        out = law.alpha1 * (-1j * w) / (law.c0 * root)
    elif isinstance(law, PowerLaw):
        if law.gamma == 2.0:
            out = law.a1 * w**2 - 1j * law.a2 * w
        else:
            out = (law.a1 * (-1j * w) ** law.gamma / math.cos(law.gamma * math.pi / 2.0)
                   + law.a2 * (-1j * w))
    else:
        raise TypeError(f"not a dispersion law: {law!r}")
    return out if out.ndim else complex(out)


# Taylor coefficients of g(u) = 1 - u/2 - (1+u)**-0.5 from u**2 up:
# g(u) = -(3/8)u^2 + (5/16)u^3 - (35/128)u^4 + ...
_DIFF_SERIES = (-3.0 / 8.0, 5.0 / 16.0, -35.0 / 128.0, 63.0 / 256.0,
                -231.0 / 1024.0, 429.0 / 2048.0, -6435.0 / 32768.0)


def alpha_difference(causal, powerlaw, omega):
    """alpha*_powerlaw(omega) - alpha*_causal(omega), cancellation-free.

    For a power law derived from the causal law the difference has the
    closed form (alpha1/c0)*(-1j*w)*g(u) with u = (-1j*tau0*w)**(gamma-1)
    and g(u) = 1 - u/2 - (1+u)**-0.5, which the plain difference loses to
    cancellation at small |u|.  With q = sqrt(1+u), t = q - 1 = u/(1+q),
    g = -t**2*(1 + 2/q)/2 has none (Re q >= 1); from |u| = 4 on, t/q - u/2
    also keeps the digits of Re g.  For |u| <= 0.01 its series runs as two
    real Horner loops in |u|, the phase (-1j)**(gamma-1) of u folded into
    the coefficients.  g is formed at |w| and conjugated for w < 0.
    Unrelated law pairs fall back to the plain difference.
    """
    if not _is_derived_pair(causal, powerlaw):
        return eval_alpha(powerlaw, omega) - eval_alpha(causal, omega)
    w = np.asarray(omega, dtype=float)
    if not np.all(np.isfinite(w)):
        raise ValueError("omega must be finite")
    p = causal.gamma - 1.0
    s = (causal.tau0 * np.abs(w)) ** p
    g = np.empty(w.shape, dtype=complex)
    small = s <= 0.01
    if small.all():
        small = ...  # the common case: every node, without masked copies
    else:
        u = s[~small] * (-1j) ** p
        q = np.sqrt(1.0 + u)
        t = u / (1.0 + q)  # q - 1 without cancellation: g = -t**2*(1 + 2/q)/2 = t/q - u/2
        u *= -0.5
        u += t / q
        t *= t
        t *= -0.5 - 1.0 / q
        g[~small] = np.where(s[~small] <= 4.0, t, u)
    x = s[small]
    folded = _DIFF_SERIES * np.complex128(-1j) ** (p * np.arange(2, 2 + len(_DIFF_SERIES)))
    re, im = np.full_like(x, folded[-1].real), np.full_like(x, folded[-1].imag)
    for coeff in folded[-2::-1]:
        re *= x
        re += coeff.real
        im *= x
        im += coeff.imag
    x *= x
    g.real[small], g.imag[small] = re * x, im * x
    scale = causal.alpha1 / causal.c0  # times -1j*|w|, then conjugated where w < 0
    with np.errstate(over="ignore"):  # beyond the double range the difference is inf
        g.real, g.imag = scale * np.abs(w) * g.imag, -scale * w * g.real
    return g if g.ndim else complex(g)


def attenuation_rise(law, lo, h):
    """Re alpha*(lo + h) - Re alpha*(lo) for lo >= 0 and h >= 0, cancellation-free.

    Vectorized over h.  Subtracting two evaluations of the law leaves
    rounding of order eps*Re alpha*(lo) in a rise that may be far
    smaller; here the rise is formed from h.  With t = log1p(h/lo):
    the power law gives a1*lo**gamma*expm1(gamma*t); the causal law
    writes u(lo + h) - u(lo) = u(lo)*expm1((gamma-1)*t) and differences
    1/sqrt(1 + u) in conjugate form.  lo = 0 returns Re alpha*(h).
    """
    h = np.asarray(h, dtype=float)
    if lo == 0.0:
        return np.real(eval_alpha(law, h))
    t = np.log1p(h / lo)
    if isinstance(law, PowerLaw):
        with np.errstate(over="ignore"):  # beyond the double range the rise is +inf
            return law.a1 * lo**law.gamma * np.expm1(law.gamma * t)
    if not isinstance(law, CausalLaw):
        raise TypeError(f"not a dispersion law: {law!r}")
    u_lo = (-1j * law.tau0 * lo) ** (law.gamma - 1.0)
    du = u_lo * np.expm1((law.gamma - 1.0) * t)
    s_lo = np.sqrt(1.0 + u_lo)
    s = np.sqrt(1.0 + u_lo + du)
    # alpha*(lo + h) - alpha*(lo) = (alpha1/c0)*(-1j)*(h/s + lo*(1/s - 1/s_lo))
    rise = h / s - lo * (du / (s * s_lo * (s_lo + s)))
    return (law.alpha1 / law.c0) * np.imag(rise)


def wavenumber(law, omega):
    """Effective wavenumber k(omega) = omega/c0 - Im(alpha*(omega)) in rad/cm."""
    w = np.asarray(omega, dtype=float)
    out = w / law.c0 - np.imag(eval_alpha(law, w))
    return out if out.ndim else float(out)


def phase_speed(law, omega):
    """Phase speed c(omega) = omega / k(omega) in cm/us, for omega != 0.

    Raises ValueError when k(omega) vanishes to machine precision: the
    power law's phase speed has a pole there (see
    `powerlaw_phase_singularity`); the causal law's does not.
    """
    w = float(omega)
    _require(w != 0.0 and math.isfinite(w), "omega must be finite and non-zero")
    k = wavenumber(law, w)
    scale = abs(w) / law.c0 + abs(float(np.imag(eval_alpha(law, w))))
    if abs(k) <= 1e-9 * scale:
        raise ValueError(f"phase speed singular near omega={w!r}")
    return w / k


def powerlaw_phase_singularity(medium):
    """Positive frequency where the power-law phase speed diverges.

    Accepts a MediumPreset or a bare PowerLaw.  The root of
    k(w) = w*(1/c0 + a2) - a1*|tan(gamma*pi/2)|*w**gamma has the closed
    form ((1/c0 + a2)/(a1*|tan(gamma*pi/2)|))**(1/(gamma-1)).  Raises
    ValueError when no singularity exists (gamma = 2, or a vanishing
    tangent/attenuation coefficient).
    """
    law = medium.powerlaw if isinstance(medium, MediumPreset) else medium
    _require(isinstance(law, PowerLaw), "a power law is required")
    g = law.gamma
    if g == 2.0:
        raise ValueError("no phase-speed singularity: gamma = 2")
    a_tan = law.a1 * abs(math.tan(g * math.pi / 2.0))
    if a_tan == 0.0:
        raise ValueError("no phase-speed singularity: a1*|tan(gamma*pi/2)| vanishes")
    return ((1.0 / law.c0 + law.a2) / a_tan) ** (1.0 / (g - 1.0))


def small_frequency_bound(gamma, tau0, threshold=0.1):
    """Largest M with |tau0*omega|**(gamma-1) <= threshold for |omega| <= M.

    M = threshold**(1/(gamma-1)) / tau0 on the laws' domain 1 < gamma <= 2
    and a finite tau0 > 0; where the power alone underflows, M is formed
    from logarithms.  Raises NumericalError where M exceeds the largest
    double or lies below the smallest normal one.
    """
    _require(1.0 < gamma <= 2.0, f"gamma must lie in (1, 2], got {gamma}")
    _require(0.0 < tau0 < math.inf, f"tau0 must be finite and positive, got {tau0}")
    _require(0.0 < threshold < 1.0, "threshold must lie in (0, 1)")
    exponent = 1.0 / (gamma - 1.0)
    power = threshold**exponent
    if power >= sys.float_info.min:
        bound = power / tau0
    else:  # the power underflows, the bound need not; it stays below 2**52
        bound = math.exp(exponent * math.log(threshold) - math.log(tau0))
    where = f"the small-frequency bound at gamma={gamma!r}, tau0={tau0!r}"
    if bound == math.inf:
        raise NumericalError(f"{where} exceeds the largest double")
    if bound < sys.float_info.min:
        raise NumericalError(f"{where} lies below the smallest normal double")
    return bound
