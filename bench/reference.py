"""Reference computations that the benchmark checks lossywave's outputs against.

Everything here is written from the model formulas in the README and uses
only the standard library and numpy; nothing calls into lossywave, so a
fault in the package cannot hide by agreeing with itself.

Units follow the package: omega in rad/us, length in cm, time in us.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)
_DECADES = 16          # graded panels reach down to 1e-16 of the interval
_PANELS_PER_DECADE = 10
_E_FOLDS = 100.0       # semi-infinite integrals stop where the integrand fell by e**-100


@dataclass(frozen=True)
class Medium:
    """Causal-law parameters; the power-law coefficients follow from them."""

    gamma: float
    c0: float
    alpha1: float
    tau0: float

    @property
    def a1(self):
        g = self.gamma
        return self.alpha1 * self.tau0 ** (g - 1.0) * abs(math.cos(g * math.pi / 2.0)) / (2.0 * self.c0)

    @property
    def a2(self):
        return self.alpha1 / self.c0


def _minus_i_power(w, p):
    """(-i*w)**p on the branch |w|**p * exp(-i*p*(pi/2)*sign(w))."""
    w = np.asarray(w, dtype=float)
    return np.abs(w) ** p * np.exp(-0.5j * p * math.pi * np.sign(w))


def causal_alpha(med, w):
    """alpha*(w) = alpha1*(-i w) / (c0*sqrt(1 + (-i tau0 w)**(gamma-1)))."""
    w = np.asarray(w, dtype=float)
    u = _minus_i_power(med.tau0 * w, med.gamma - 1.0)
    return (med.alpha1 / med.c0) * (-1j * w) / np.sqrt(1.0 + u)


def powerlaw_alpha(med, w):
    """alpha*(w) = a1*(-i w)**gamma / cos(gamma pi/2) + a2*(-i w), split by hand.

    Dividing the branch power by cos(gamma pi/2) leaves
    a1*|w|**gamma * (1 - i*sign(w)*tan(gamma pi/2)); tan(pi) is taken as 0.
    """
    w = np.asarray(w, dtype=float)
    g = med.gamma
    tan = 0.0 if g == 2.0 else math.tan(g * math.pi / 2.0)
    mag = med.a1 * np.abs(w) ** g
    return mag - 1j * (mag * tan * np.sign(w) + med.a2 * w)


def alpha(med, law, w):
    return causal_alpha(med, w) if law == "causal" else powerlaw_alpha(med, w)


def attenuation(med, law):
    """The even attenuation Re alpha*(w) of one law, as a function of w."""
    return lambda w: np.real(alpha(med, law, w))


def wavenumber(med, law, w):
    """k(w) = w/c0 - Im alpha*(w) and the scale |w|/c0 + |Im alpha*| it is compared on."""
    w = np.asarray(w, dtype=float)
    im = np.imag(alpha(med, law, w))
    return w / med.c0 - im, np.abs(w) / med.c0 + np.abs(im)


def phase_pole(med):
    """Closed-form root of the power-law wavenumber w*(1/c0 + a2) - a1*|tan(gamma pi/2)|*w**gamma."""
    a_tan = med.a1 * abs(math.tan(med.gamma * math.pi / 2.0))
    return ((1.0 / med.c0 + med.a2) / a_tan) ** (1.0 / (med.gamma - 1.0))


def alpha_gap(med, w):
    """alpha*_powerlaw - alpha*_causal without cancellation.

    Both laws share the factor (alpha1/c0)*(-i w): the power law times
    1 - u/2 and the causal law times 1/s, with u = (-i tau0 w)**(gamma-1)
    and s = sqrt(1 + u).  Using s - 1 = u/(s + 1),

        1 - u/2 - 1/s = -u**2 * (s + 2) / (2 * s * (s + 1)**2),

    which has no difference of nearly equal terms.
    """
    w = np.asarray(w, dtype=float)
    u = _minus_i_power(med.tau0 * w, med.gamma - 1.0)
    s = np.sqrt(1.0 + u)
    g = -(u * u) * (s + 2.0) / (2.0 * s * (s + 1.0) ** 2)
    return (med.alpha1 / med.c0) * (-1j * w) * g


def expm1_abs_sq(z):
    """|exp(z) - 1|**2 without cancellation for small |z|.

    exp(z) - 1 = exp(i y/2) * (expm1(x)*cos(y/2) + i*sin(y/2)*(exp(x) + 1)).
    """
    z = np.asarray(z, dtype=complex)
    x, half = z.real, 0.5 * z.imag
    return (np.expm1(x) * np.cos(half)) ** 2 + (np.sin(half) * (np.exp(x) + 1.0)) ** 2


def integrate(f, lo, hi):
    """Integral of a smooth f on [lo, hi], panels graded geometrically toward lo.

    Panel edges sit at lo + (hi - lo)*10**(-k/10), k = 0..160, with a
    16-point Gauss-Legendre rule on each.  Every panel spans a ratio
    10**0.1 of its distance to lo, so an integrand that peaks at lo and
    decays on any length between 1e-16 and 1 of the interval is resolved
    where it matters; power-law endpoint behaviour at lo is resolved too.
    """
    if not hi > lo:
        return 0.0
    fractions = np.concatenate(([0.0], np.logspace(-_DECADES, 0.0, _DECADES * _PANELS_PER_DECADE + 1)))
    edges = lo + (hi - lo) * fractions
    a, b = edges[:-1, None], edges[1:, None]
    x = 0.5 * (a + b) + 0.5 * (b - a) * _GL_NODES
    weights = 0.5 * (b - a) * _GL_WEIGHTS
    return float(np.sum(weights * np.asarray(f(x), dtype=float)))


def _decay_end(att, r, lo):
    """Offset beyond lo where 2*r*(att(w) - att(lo)) first exceeds _E_FOLDS."""
    base = float(att(lo))
    step = 1e-6 * max(lo, 1.0)
    while 2.0 * r * (float(att(lo + step)) - base) < _E_FOLDS:
        step *= 2.0
        if step > 1e300:
            raise ValueError("attenuation does not grow: the integral diverges")
    return step


def log_decay_integral(att, r, lo, hi=None):
    """Natural log of the integral of exp(-2*r*att(w)) over [lo, hi].

    hi=None integrates to infinity (to e**-100 below the value at lo).
    The integrand is scaled by exp(2*r*att(lo)) so that it is 1 at lo,
    and the factor is restored in log space: the result stays finite
    where the integral itself underflows, e.g. a tail at r = 10 that is
    of order exp(-1.8e6).
    """
    base = float(att(lo))
    if hi is None:
        hi = lo + _decay_end(att, r, lo)
    scaled = integrate(lambda w: np.exp(-2.0 * r * (att(w) - base)), lo, hi)
    return math.log(scaled) - 2.0 * r * base


def log10_truncation_error(med, r, m):
    """log10 of the relative L2 truncation error of the causal Green spectrum at band edge m."""
    att = attenuation(med, "causal")
    tail = log_decay_integral(att, r, m)
    full = log_decay_integral(att, r, 0.0)
    return 0.5 * (tail - full) / math.log(10.0)


def band_over_full(med, r, m):
    """Ratio of the band-limited to the full-line norm of the causal Green spectrum."""
    att = attenuation(med, "causal")
    return math.exp(0.5 * (log_decay_integral(att, r, 0.0, m) - log_decay_integral(att, r, 0.0)))


def tail_fraction(med, r, m):
    """Tail energy beyond m over the full energy, causal law."""
    att = attenuation(med, "causal")
    return math.exp(log_decay_integral(att, r, m) - log_decay_integral(att, r, 0.0))


def model_gap_energy(med, r, m):
    """Integral over [0, m] of |G_c - G_pl|**2 * (4 pi r)**2 (one side of the band)."""
    def f(w):
        return np.exp(-2.0 * r * np.real(causal_alpha(med, w))) * expm1_abs_sq(-alpha_gap(med, w) * r)

    return integrate(f, 0.0, m)


def relative_model_error(med, r, m):
    """||G_c - G_pl|| / ||G_c|| over the band [-m, m]."""
    band = math.exp(log_decay_integral(attenuation(med, "causal"), r, 0.0, m))
    return math.sqrt(model_gap_energy(med, r, m) / band)


def band_norm(med, r, m):
    """L2 norm of the causal Green spectrum over [-m, m]."""
    energy = math.exp(log_decay_integral(attenuation(med, "causal"), r, 0.0, m))
    return math.sqrt(2.0 * energy) / (4.0 * math.pi * r)


def deviation_factor(med, r, w):
    """|G_pl/G_c - 1|**2 = |exp(-(alpha_pl - alpha_c)*r) - 1|**2."""
    return expm1_abs_sq(-alpha_gap(med, w) * r)


def truncation_lower_bound_log10(med, r, m):
    """Quadrature-free lower bound on the log10 relative truncation error.

    Re alpha_c(w) <= a2*|w|, so with t = exp(-2 r a2 m)/(2 r a2) the tail
    energy is at least t and the band energy at most m (common factors
    dropped): error**2 >= t/(m + t).
    """
    log_t = -2.0 * r * med.a2 * m - math.log(2.0 * r * med.a2)
    log_sq = log_t - float(np.logaddexp(math.log(m), log_t))
    return 0.5 * log_sq / math.log(10.0)


def green_hat(med, law, r, w):
    """Green spectrum exp(-alpha*(w) r)/(4 pi r) * exp(i w r/c0)."""
    w = np.asarray(w, dtype=float)
    return np.exp(-alpha(med, law, w) * r + 1j * w * r / med.c0) / (4.0 * math.pi * r)


def forcing_hat(kind, w, center, width, carrier):
    """Forcing spectrum under the forward kernel exp(+i w t)/sqrt(2 pi).

    A delta at c gives exp(i w c)/sqrt(2 pi); the Gaussian
    exp(-(t-c)**2/(2 s**2)) gives s*exp(i w c)*exp(-(w s)**2/2); the
    modulated sine sin(k (t-c)) times that Gaussian is the difference of
    two shifted copies over 2i.
    """
    w = np.asarray(w, dtype=float)
    phase = np.exp(1j * w * center)
    if kind == "delta":
        return phase / math.sqrt(2.0 * math.pi)
    if kind == "gaussian-pulse":
        return width * phase * np.exp(-0.5 * (w * width) ** 2)
    return (width * phase / 2j) * (np.exp(-0.5 * ((w + carrier) * width) ** 2)
                                   - np.exp(-0.5 * ((w - carrier) * width) ** 2))


def grid_omegas(omega_max, n):
    """w_k = -omega_max + k*(2 omega_max/n), k = 0..n-1."""
    return -omega_max + (2.0 * omega_max / n) * np.arange(n)


def synthesize(values, omega_max):
    """Real samples g_j = (dw/sqrt(2 pi)) * sum_k values_k exp(-i w_k t_j), t_j = j*pi/omega_max.

    exp(-i w_k t_j) = (-1)**j * exp(-2 pi i k j/n), so the sum is a
    forward DFT with alternating signs.  The unpaired -omega_max bin is
    taken as its real part, as a real signal requires.
    """
    n = len(values)
    v = np.array(values, dtype=complex)
    v[0] = v[0].real
    sign = 1.0 - 2.0 * (np.arange(n) % 2)
    return ((2.0 * omega_max / n) / math.sqrt(2.0 * math.pi)) * sign * np.fft.fft(v).real
