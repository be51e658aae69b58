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
units.  With w' = tau0*omega the causal law is r*alpha*(omega) =
Lambda*psi(w'), Lambda = alpha1*r/(c0*tau0): `_reduced` alone forms w' and
the scale, and the model and truncation errors depend on gamma, Lambda and
M*tau0 only.

Branch convention for the fractional power:

    (-1j*omega)**p = |omega|**p * exp(-1j * p * (pi/2) * sign(omega)),

the principal branch approached from the lower half-plane.  Both laws
are evaluated in real arithmetic on this form: a real power of |omega|
times the constant phase (-1j)**p, the pair (Re alpha*, Im alpha*)
formed at |omega| and the sign of omega applied to Im alpha* afterwards.
So Re(alpha*) is even in omega and Im(alpha*) odd bit for bit, sampled
Green-function spectra are Hermitian and synthesized signals are real.
The square root in the causal law is the principal square root; its
argument always has real part >= 1, so no branch cut is ever crossed.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
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
    "alpha_parts",
    "eval_alpha",
    "alpha_difference_majorants",
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


# Taylor coefficients of g(u) = 1 - u/2 - (1+u)**-0.5 from u**2 up:
# g(u) = -(3/8)u^2 + (5/16)u^3 - (35/128)u^4 + ...
_DIFF_SERIES = (-3.0 / 8.0, 5.0 / 16.0, -35.0 / 128.0, 63.0 / 256.0,
                -231.0 / 1024.0, 429.0 / 2048.0, -6435.0 / 32768.0)


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
        # the constants of `_reduced` and `_alpha_difference`, formed once: plain attributes,
        # not fields, so that equality, repr and asdict do not see them
        p, (m_alpha, e_alpha), (m_c, e_c) = (self.gamma - 1.0, math.frexp(self.alpha1),
                                             math.frexp(self.c0))
        vars(self).update(_edge=min(1.0 / self.tau0, sys.float_info.max), _phase=(-1j) ** p,
                          _scale=(m_alpha / m_c, e_alpha - e_c), _series=_DIFF_SERIES
                          * np.complex128(-1j) ** (p * np.arange(2, 2 + len(_DIFF_SERIES))))

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


@dataclass(frozen=True)
class MediumPreset:
    """Named causal law and the power law derived from it on construction, never passed in.

    Raises ValueError where a derived coefficient leaves the doubles: the
    medium is legal, but it has no power law to compare with.
    """

    name: str
    causal: CausalLaw
    powerlaw: PowerLaw = field(init=False)

    def __post_init__(self):
        a1, a2 = derive_powerlaw_coeffs(self.causal)
        for formula, value in (("a2 = alpha1/c0", a2),
                               ("a1 = alpha1*tau0**(gamma-1)*|cos(gamma*pi/2)|/(2*c0)", a1)):
            _require(math.isfinite(value), f"the derived power law leaves the doubles: "
                                           f"{formula} overflows for {self.causal}")
        object.__setattr__(self, "powerlaw", PowerLaw(self.causal.gamma, a1, a2, self.causal.c0))


_BUILTIN_PRESETS = {
    "castor-oil": dict(gamma=1.66, c0=0.15, alpha1=138.08, tau0=1e-6),
}


def builtin_preset(name):
    """Return a built-in medium preset by name ("castor-oil")."""
    try:
        params = _BUILTIN_PRESETS[name]
    except KeyError:
        raise ValueError(f"unknown preset {name!r}; built-ins: {sorted(_BUILTIN_PRESETS)}") from None
    return MediumPreset(name, CausalLaw(**params))


def load_preset(source):
    """Load a preset from a built-in name or a JSON file.

    The file schema is {"name", "gamma", "c0", "alpha1", "tau0"}; the
    power-law coefficients are always derived on load, never stored.
    """
    if isinstance(source, str) and source in _BUILTIN_PRESETS:
        return builtin_preset(source)
    import json  # here, not at import: a built-in preset needs no json

    path = Path(source)
    if not path.exists():
        raise ValueError(f"preset {source!r} is neither a built-in name nor an existing file")
    doc = json.loads(path.read_text(encoding="utf-8"))
    missing = {"name", "gamma", "c0", "alpha1", "tau0"} - set(doc)
    _require(not missing, f"preset file {path} lacks fields {sorted(missing)}")
    causal = CausalLaw(gamma=float(doc["gamma"]), c0=float(doc["c0"]),
                       alpha1=float(doc["alpha1"]), tau0=float(doc["tau0"]))
    return MediumPreset(str(doc["name"]), causal)


def _reduced(causal, omega):
    """(|omega|, s, sigma, phase, scale): the causal law at w' = tau0*|omega| in reduced form.

    alpha*(omega) = K*(-1j*w')/sqrt(1 + u), K = alpha1/(c0*tau0), u = (-1j*w')**p
    = |u|*phase, p = gamma - 1.  |u| = s/sigma with s = min(w', 1)**p and
    sigma = min(1/w', 1)**p, from tau0*min(|omega|, 1/tau0) and
    (1/tau0)/max(|omega|, 1/tau0): neither leaves the doubles where w' does
    (tau0 > 1), and both keep their bits when tau0 and omega are rescaled by
    reciprocal powers of two.  ln(w') = (ln(s) - ln(sigma))/p.  The scale
    K*w' = (alpha1/c0)*|omega| is the (mantissa, exponent) of alpha1/c0, which
    `_scaled` applies exactly: K is no double for alpha1 = 1e300, c0 = 1,
    tau0 = 1e-10.  The edge 1/tau0, the phase and the scale are the law's,
    formed once when it is built.
    """
    p, a = causal.gamma - 1.0, np.abs(np.asarray(omega, dtype=float).reshape(-1))
    edge = causal._edge
    s = np.minimum(a, edge)
    np.power(np.multiply(s, causal.tau0, out=s), p, out=s)
    if a.max(initial=0.0) <= edge:  # every w' <= 1: sigma is 1**p = 1 exactly
        sigma = np.ones_like(a)
    else:
        sigma = np.maximum(a, edge)
        np.power(np.divide(edge, sigma, out=sigma), p, out=sigma)
    return a, s, sigma, causal._phase, causal._scale


def _scaled(x, scale):
    """The float array x times mantissa * 2**exponent of a (mantissa, exponent) scale, in place."""
    np.multiply(x, scale[0], out=x)
    return np.ldexp(x, scale[1], out=x)


def _finite_omega(omega):
    """omega as a float array; raises ValueError unless every value is finite."""
    w = np.asarray(omega, dtype=float)
    if not np.isfinite(w).all():
        raise ValueError("omega must be finite")
    return w


def _causal_parts(a, s, sigma, phase, scale):
    """(Re alpha*, Im alpha*) of the causal law at |omega| from `_reduced`, in its arrays."""
    x = s * phase.real
    x += sigma
    y = np.multiply(s, -phase.imag, out=s)
    f = np.multiply(a, np.sqrt(sigma, out=sigma), out=a)  # a*sqrt(sigma)
    m = np.hypot(x, y, out=sigma)
    x += m
    x *= 0.5
    q = np.sqrt(x, out=x)
    f /= m
    y *= f
    y /= q
    y *= 0.5
    q *= f
    with np.errstate(over="ignore"):  # inf where the part lies beyond the doubles
        return _scaled(y, scale), np.negative(_scaled(q, scale), out=q)


def alpha_parts(law, omega):
    """(Re alpha*(omega), Im alpha*(omega)) as two real arrays, the one law kernel.

    Both parts are formed at a = |omega| and Im alpha* takes the sign of
    omega afterwards.  Causal law, from `_reduced`: 1 + u = (x - 1j*y)/sigma
    with x = sigma + s*cos(p*pi/2) > 0 and y = s*sin(p*pi/2) at most 2; with
    q = sqrt((m + x)/2), m = hypot(x, y), alpha* = (alpha1/c0)*a*sqrt(sigma)*
    (y/(2q) - 1j*q)/m has no cancellation and no intermediate above a before
    the scale, applied last: a part is inf only beyond the doubles.
    Power law: a1*a**gamma*(1 + 1j*cot(p*pi/2)) - 1j*a2*a, since
    -tan(gamma*pi/2) = cot(p*pi/2), formed as (a1*a**p)*a and
    a*((a1*a**p)*cot(p*pi/2) - a2); gamma = 2 is the thermoviscous
    a1*a**2 - 1j*a2*a, whose cotangent 0 the rounded pi would miss.  a**p
    is a double for every finite a (p <= 1), so a part beyond the doubles
    overflows to inf with the exact value's sign, never to nan.
    """
    w = _finite_omega(omega)
    if isinstance(law, CausalLaw):
        re, im = _causal_parts(*_reduced(law, w))
    elif isinstance(law, PowerLaw):
        a = np.abs(w.reshape(-1))  # 1-d, so that every step below can work in place
        p = law.gamma - 1.0
        with np.errstate(over="ignore"):  # inf where the part lies beyond the doubles
            t = np.power(a, p)
            t *= law.a1  # a1*a**p
            re = t * a
            if law.gamma == 2.0:
                im = np.multiply(a, -law.a2, out=a)
            else:
                t /= math.tan(0.5 * math.pi * p)
                t -= law.a2
                im = np.multiply(t, a, out=t)
    else:
        raise TypeError(f"not a dispersion law: {law!r}")
    np.negative(im, out=im, where=np.signbit(w.reshape(-1)))
    return re.reshape(w.shape), im.reshape(w.shape)


def eval_alpha(law, omega):
    """Complex attenuation-dispersion value alpha*(omega) in 1/cm.

    Accepts a scalar or a numpy array of finite frequencies in rad/us.
    Re(alpha*) is even in omega and positive away from zero (for
    non-degenerate laws); Im(alpha*) is odd, and
    eval_alpha(law, -w) == conj(eval_alpha(law, w)) holds bit for bit.
    """
    re, im = alpha_parts(law, omega)
    out = np.empty(re.shape, dtype=complex)
    out.real, out.imag = re, im
    return out if out.ndim else complex(out)


def _difference(causal, w, a, s, sigma, phase, scale):
    """`_alpha_difference` at the finite omega w from `_reduced`; s is overwritten."""
    s = np.divide(s, sigma, out=s)  # |u|; inf or nan where sigma underflows to 0
    g = np.empty(s.shape, dtype=complex)
    small = s <= 0.01
    if small.all():
        small = ...  # the common case: every node, without masked copies
    else:
        # numpy rounds the complex products of a one-element array apart from those
        # of longer ones; a lone node is taken twice, so it rounds as in any batch
        large = np.flatnonzero(~small)
        large = np.repeat(large, 2) if large.size == 1 else large
        u = s[large] * phase
        q = np.sqrt(1.0 + u)
        t = u / (1.0 + q)  # q - 1 without cancellation: g = -t**2*(1 + 2/q)/2 = t/q - u/2
        u *= -0.5
        u += t / q
        t *= t
        t *= -0.5 - 1.0 / q
        g[large] = np.where(s[large] <= 4.0, t, u)
    x = s[small]
    folded = causal._series
    re, im = np.full_like(x, folded[-1].real), np.full_like(x, folded[-1].imag)
    for coeff in folded[-2::-1]:
        re *= x
        re += coeff.real
        im *= x
        im += coeff.imag
    x *= x
    g.real[small], g.imag[small] = re * x, im * x
    # beyond the double range the difference is inf; times -1j*|w|, then conjugated where w < 0
    g.real, g.imag = _scaled(a * g.imag, scale), _scaled(-w.reshape(-1) * g.real, scale)
    return g.reshape(w.shape)


def _alpha_difference(causal, omega):
    """alpha*_powerlaw(omega) - alpha*_causal(omega), cancellation-free.

    The power law is the one derived from the causal law, so the
    difference has the closed form K*(-1j*w')*g(u) = (alpha1/c0)*(-1j*w)*g(u)
    in the variables of `_reduced`, g(u) = 1 - u/2 - (1+u)**-0.5, which the
    plain difference loses to cancellation at small |u|.  With q = sqrt(1+u),
    t = q - 1 = u/(1+q), g = -t**2*(1 + 2/q)/2 has none (Re q >= 1); from
    |u| = 4 on, t/q - u/2 also keeps the digits of Re g.  For |u| <= 0.01
    its series runs as two real Horner loops in |u|, the phase
    (-1j)**(gamma-1) of u folded into the coefficients.  g is formed at
    |w| and conjugated for w < 0.  The product form alone is more accurate
    in |g| there, but at gamma = 1.5 Re(u**2) vanishes and Re g is a
    third-order term that it gets only to 1.2e-11 (at w = 2.6e-3 for
    castor oil), where the series keeps each part to 1e-11 of itself.
    Every node is formed alone, so the values do not depend on the other
    nodes of a call.  Where sigma of `_reduced` underflows to 0 (tau0*|w|
    beyond the doubles) the value is not finite, without a warning: the
    callers check it.
    """
    w = _finite_omega(omega)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        g = _difference(causal, w, *_reduced(causal, w))
    return g if g.ndim else complex(g)


def _attenuation_and_difference(causal, omega):
    """(Re alpha*_c, `_alpha_difference`) at the frequencies omega >= 0, from one `_reduced`.

    The two values of the model-error integrand at one node set, the
    bits of `alpha_parts(causal, omega)[0]` and `_alpha_difference`.
    """
    w = _finite_omega(omega)
    a, s, sigma, phase, scale = _reduced(causal, w)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        b = _difference(causal, w, a, s.copy(), sigma, phase, scale)
    return _causal_parts(a, s, sigma, phase, scale)[0].reshape(w.shape), b


def alpha_difference_majorants(causal, a, b):
    """(B(b), B2): majorants of the slope and curvature of `_alpha_difference(causal, .)`.

    B(b) >= |b'(v)| for every v in [0, b], and B2 >= |b''(v)| for every v
    in the cell [a, b], a > 0; B2 is inf at a = 0.  Both are read from one
    `_reduced` at b and are vectorized over the cells (a, b), omega >= 0.
    For the derived pair b = (alpha1/c0)*(-1j*w)*g(u) and u' = p*u/w,
    p = gamma - 1, so b' = (alpha1/c0)*(-1j)*(g + p*u*g'(u)).  With
    s = |u| = (tau0*w)**p, q = sqrt(1+u) (Re q >= 1, hence |q| >= 1 and
    |1 + q| >= 2) and t = q - 1 = u/(1+q), |t| <= s/2.  Then
    g = -t**2*(1 + 2/q)/2 gives |g| <= min(3s**2/8, 2 + s/2), and
    u*g' = u*(q**-3 - 1)/2 = -u*t*(1 + 1/q + 1/q**2)/(2q) gives
    |u*g'| <= min(3s**2/4, s).  Hence

        B(w) = (alpha1/c0)*(min(3s**2/8, 2 + s/2) + p*min(3s**2/4, s)),

    formed without squaring s.  B rises with w, so it bounds |b'| on all
    of [0, w]; it has no cancellation and at small s equals the leading
    term of the series of |b'|.  Next, b'' = (alpha1/c0)*(-1j)*(p/w)*
    ((1 + p)*u*g'(u) + p*u**2*g''(u)), and g'' = -(3/4)*(1 + u)**(-5/2)
    with |1 + u| >= 1 gives |u**2*g''| <= 3s**2/4.  With |u*g'| as above,

        B2 = (alpha1/c0)*(p/a)*((1 + p)*min(3s**2/4, s) + (3/4)*p*s**2),

    s taken at b, where it is largest.  At small s it equals the leading
    term of the series of |b''|.
    """
    _, s, sigma, _, scale = _reduced(causal, b)
    a, p = np.asarray(a, dtype=float).reshape(-1), causal.gamma - 1.0
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):  # inf beyond the doubles
        s = np.divide(s, sigma, out=s)  # and where a = 0
        slope = np.minimum(0.375 * s, 0.5 + 2.0 / np.maximum(s, 1.0)) * s
        slope += p * np.minimum(0.75 * s, 1.0) * s
        curve = ((1.0 + p) * np.minimum(0.75 * s, 1.0) + 0.75 * p * s) * s
        curve = _scaled(np.divide(p * curve, a, out=curve), scale)
        slope = _scaled(slope, scale)
    return (slope.reshape(np.shape(b)),
            np.where(a > 0.0, curve, np.inf).reshape(np.shape(b)))


def attenuation_rise(law, lo):
    """The rise h -> Re alpha*(lo + h) - Re alpha*(lo), for lo >= 0 and h >= 0, built once from lo.

    The returned function is vectorized over h and cancellation-free.
    Subtracting two evaluations of the law leaves rounding of order
    eps*Re alpha*(lo) in a rise that may be far smaller; here the rise is
    formed from h.  With t = log1p(h/lo): the power law gives
    a1*lo**gamma*expm1(gamma*t); the causal law writes u(lo + h) - u(lo) =
    u(lo)*expm1((gamma-1)*t) and differences 1/sqrt(1 + u) in conjugate
    form, all of it times sigma of `_reduced` at lo, so that no term
    overflows.  Built once per start, `_reduced` at lo, u(lo)*sigma,
    sqrt(sigma + u(lo)) and the scale serve every call; lo = 0 gives
    Re alpha*(h), one call of the law kernel per call.
    """
    if lo == 0.0:
        return lambda h: alpha_parts(law, h)[0]
    if isinstance(law, PowerLaw):
        with np.errstate(over="ignore"):  # beyond the double range the rise is +inf
            start = law.a1 * lo**law.gamma

        def power_rise(h):
            t = np.log1p(np.asarray(h, dtype=float) / lo)
            with np.errstate(over="ignore"):
                return start * np.expm1(law.gamma * t)

        return power_rise
    if not isinstance(law, CausalLaw):
        raise TypeError(f"not a dispersion law: {law!r}")
    _, s, sigma, phase, scale = _reduced(law, lo)
    sigma, u_lo = float(sigma[0]), float(s[0]) * phase  # u(lo)*sigma
    base = sigma + u_lo
    q_lo, root = np.sqrt(base), math.sqrt(sigma)  # sqrt(1 + u(lo))*sqrt(sigma), sqrt(sigma)

    def causal_rise(h):
        h = np.asarray(h, dtype=float)
        du = u_lo * np.expm1((law.gamma - 1.0) * np.log1p(h / lo))  # (u(lo + h) - u(lo))*sigma
        q = np.sqrt(base + du)
        # alpha*(lo + h) - alpha*(lo)
        #   = (alpha1/c0)*(-1j)*sqrt(sigma)*(h/q - lo*du/(q*q_lo*(q_lo + q)))
        rise = np.imag(h / q - lo * (du / (q * q_lo * (q_lo + q))))
        return _scaled(np.asarray(root * rise), scale)

    return causal_rise


def wavenumber(law, omega):
    """Effective wavenumber k(omega) = omega/c0 - Im(alpha*(omega)) in rad/cm."""
    w = np.asarray(omega, dtype=float)
    out = w / law.c0 - alpha_parts(law, w)[1]
    return out if out.ndim else float(out)


def phase_speed(law, omega):
    """Phase speed c(omega) = omega / k(omega) in cm/us, vectorized over omega != 0.

    Where k leaves the doubles, as omega/c0 does for a tiny c0, c is formed
    as c0/q from the reduced wavenumber q = c0*k/omega = 1 - c0*Im alpha*/omega,
    which is a double wherever Im alpha* is.  Raises ValueError naming the
    first omega where k(omega) vanishes to machine precision, 1e-9 of
    |omega|/c0 + |Im alpha*| (of 1 + |1 - q| in the reduced form): the power
    law's phase speed has a pole there (see `powerlaw_phase_singularity`);
    the causal law's does not.  Raises NumericalError naming the first omega
    where q leaves the doubles too, where c would read 0.
    """
    shape = np.shape(omega)
    w = np.atleast_1d(np.asarray(omega, dtype=float))
    _require(np.all(w != 0.0) and np.all(np.isfinite(w)), "omega must be finite and non-zero")
    with np.errstate(over="ignore", invalid="ignore"):  # |Im alpha*| = |drift - k|
        k = wavenumber(law, w)
        drift = w / law.c0
        wide = ~np.isfinite(k)
        vanishes = (np.abs(k) <= 1e-9 * (np.abs(drift) + np.abs(drift - k))) & ~wide
        c = w / k
        if wide.any():  # c = c0/q, nan where q is no double either
            q = 1.0 - law.c0 * alpha_parts(law, w[wide])[1] / w[wide]
            vanishes[wide] = (np.abs(q) <= 1e-9 * (1.0 + np.abs(1.0 - q))) & np.isfinite(q)
            c[wide] = np.where(np.isfinite(q), law.c0 / q, np.nan)
    if np.any(vanishes):
        raise ValueError(f"phase speed singular near omega={float(w[vanishes].flat[0])!r}")
    if np.any(np.isnan(c)):
        raise NumericalError(f"the wavenumber leaves the doubles at "
                             f"omega={float(w[np.isnan(c)].flat[0])!r}: no phase speed there")
    return c.reshape(shape) if shape else float(c[0])


def powerlaw_phase_singularity(law):
    """Positive frequency where the phase speed of the PowerLaw law diverges.

    The root of k(w) = w*(1/c0 + a2) - a1*|tan(gamma*pi/2)|*w**gamma has
    the closed form ((1/c0 + a2)/(a1*|tan(gamma*pi/2)|))**(1/(gamma-1)).
    Raises ValueError when no singularity exists (gamma = 2, or a
    vanishing tangent/attenuation coefficient), NumericalError where it
    exceeds the largest double.
    """
    _require(isinstance(law, PowerLaw), "a power law is required")
    g = law.gamma
    if g == 2.0:
        raise ValueError("no phase-speed singularity: gamma = 2")
    a_tan = law.a1 * abs(math.tan(g * math.pi / 2.0))
    if a_tan == 0.0:
        raise ValueError("no phase-speed singularity: a1*|tan(gamma*pi/2)| vanishes")
    try:
        return ((1.0 / law.c0 + law.a2) / a_tan) ** (1.0 / (g - 1.0))
    except OverflowError:
        raise NumericalError("the phase-speed singularity exceeds the largest double") from None


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
