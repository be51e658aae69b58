"""Frequency-domain Green function: sampling, band truncation, L2 energies.

The Green function of a homogeneous dissipative medium at distance
r > 0 from a point impulse has the spectrum

    G_hat(r, w) = exp(-alpha*(w) * r) / (4*pi*r) * exp(1j*w*r/c0),

where alpha* is one of the dispersion laws from `lossywave.laws` and
c0 is the phase reference carried by the law (for a power law, the c0
of the medium it was derived from, so that two laws of one medium
differ only through alpha*).

Norms are L2 in omega over the full line or a band [-M, M]; by the
Plancherel-Parseval equality they match the time-domain norms that
`lossywave.timedomain` verifies.  Every energy of |G_hat|^2 is one
energy pass from a start lo: the integral of exp(-2*r*(Re alpha*(lo + h)
- Re alpha*(lo))) over the offset h, one graded Gauss-Kronrod 7/15 pass
at rtol 1e-12 up to a band edge or to the tail cut, where the integrand
has decayed by exp(-70) ~ 4e-31.  From lo = 0 it is the `EnergyProfile`
E(m) that line and band energies, norms and the band edge holding a
share of the energy read.  From a band edge M it is the tail beyond M,
scaled to 1 at M and returned as a logarithm: the rise of the
attenuation carries no rounding of the attenuation itself, and a tail
below the smallest double keeps a finite log10.  r and M must be finite
and positive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .laws import DispersionLaw, alpha_difference, attenuation_rise, eval_alpha
from .numerics import NumericalError, Quadrature, gauss_kronrod, integrate_decaying

__all__ = [
    "FrequencyGrid",
    "ComplexSpectrum",
    "EnergyProfile",
    "energy_profile",
    "green_hat",
    "sample_green_spectrum",
    "relative_truncation_error",
    "log10_relative_truncation_error",
    "deviation_factor",
    "relative_model_error",
]

_TAIL_DECADES = 70.0  # exp(-70) ~ 4e-31: neglected tail mass is invisible at rtol 1e-12
_CUT_RTOL = 1e-9  # relative tolerance of the tail width h beyond the start, not of start + h
QUADRATURE_RTOL = 1e-12  # every |G_hat|^2 energy; above the rounding noise of exponents up to 70
BAND_EDGE_RTOL = 1e-10  # `EnergyProfile.band_edge` solves its energy equation to this residual
_BAND_EDGE_STEPS = 100  # Newton converges in a few; every other step halves the bracket
_LN_4PI = math.log(4.0 * math.pi)


def _check_distance(r):
    """Raise ValueError unless the distance r is finite and positive."""
    if not (r > 0.0 and math.isfinite(r)):
        raise ValueError(f"distance must be finite and positive, got r={r!r}")


def _check_band_edge(m):
    """Raise ValueError unless the band edge M is finite and positive."""
    if not (m > 0.0 and math.isfinite(m)):
        raise ValueError(f"band edge must be finite and positive, got M={m!r}")


@dataclass(frozen=True)
class FrequencyGrid:
    """Half-line frequency grid of an n-sample time window.

    Nodes w_m = m*delta, m = 0..n/2, with delta = 2*omega_max/n; n is
    the number of time samples and must be a power of two >= 16.  The
    nodes are exact multiples of delta (the last one is omega_max), so
    the mirrored nodes -w_m that a real signal implies are exactly
    symmetric for any omega_max.
    """

    omega_max: float
    n: int

    def __post_init__(self):
        if not (self.omega_max > 0.0 and math.isfinite(self.omega_max)):
            raise ValueError("omega_max must be positive and finite")
        if self.n < 16 or (self.n & (self.n - 1)) != 0:
            raise ValueError(f"n must be a power of two >= 16, got {self.n}")

    @property
    def delta_omega(self):
        return 2.0 * self.omega_max / self.n

    def omegas(self):
        return self.delta_omega * np.arange(self.n // 2 + 1)


@dataclass(frozen=True)
class ComplexSpectrum:
    """Sampled Green-function spectrum on the nodes w_m >= 0 of a FrequencyGrid.

    values[m] = G_hat(r, w_m).  The values at -w_m are the conjugates
    of the stored ones and are never stored, so the spectrum is
    Hermitian by construction.  Only the real parts of the values at
    w = 0 and at the Nyquist node w = omega_max enter a real signal.
    `cutoff` records a band truncation (values are zero for w_m > cutoff).
    """

    grid: FrequencyGrid
    r: float
    values: np.ndarray
    law_tag: str
    cutoff: Optional[float] = None

    def __post_init__(self):
        if len(self.values) != self.grid.n // 2 + 1:
            raise ValueError("values length does not match the grid: n/2 + 1 expected")


def green_hat(law, r, omega):
    """Green-function spectrum exp(-alpha*(w)*r)/(4*pi*r) * exp(1j*w*r/c0).

    r must be positive: the Green function is singular at the origin.
    Vectorized over omega.
    """
    _check_distance(r)
    w = np.asarray(omega, dtype=float)
    out = np.exp(-eval_alpha(law, w) * r + 1j * (w * (r / law.c0))) / (4.0 * math.pi * r)
    return out if out.ndim else complex(out)


def sample_green_spectrum(law, r, grid, band_edge=None):
    """Sample the Green-function spectrum on a FrequencyGrid.

    With a band edge M only the nodes w_m <= M are evaluated; the rest
    are zero (a hard cut of the band [-M, M]) and `cutoff` is M.  The
    band values equal those of the untruncated sampling bit for bit.
    """
    omegas = grid.omegas()
    if band_edge is None:
        return ComplexSpectrum(grid=grid, r=float(r), values=green_hat(law, r, omegas),
                               law_tag=law.tag)
    _check_band_edge(band_edge)
    band = np.searchsorted(omegas, band_edge, side="right")
    values = np.zeros(len(omegas), dtype=complex)
    values[:band] = green_hat(law, r, omegas[:band])
    return ComplexSpectrum(grid=grid, r=float(r), values=values, law_tag=law.tag,
                           cutoff=band_edge)


def _gain_sq(law, r, lo=0.0):
    """|G_hat(r, lo + h)|**2 / |G_hat(r, lo)|**2 in the offset h, from `attenuation_rise`.

    From lo = 0 it is |G_hat(r, w)|**2 without the prefactor 1/(4*pi*r)**2.
    """

    def f(h):
        return np.exp(-2.0 * r * attenuation_rise(law, lo, h))

    return f


# every power of two of the double range, after 0: one vector call brackets any tail width
_WIDTHS = np.concatenate(([0.0], np.ldexp(1.0, np.arange(-1074, 1024))))
_CUT_POINTS = 33  # points per vector call of a refinement round of `_tail_width`


def _tail_width(law, r, start):
    """Width h > 0 at which 2*r*attenuation_rise(law, start, h) reaches _TAIL_DECADES.

    One vector call of the rise at every power of two of the double
    range brackets the first crossing.  Each round splits the bracket
    by a grid of _CUT_POINTS points, evaluates its interior in one
    vector call and keeps the sub-interval holding the crossing, until
    the bracket is within _CUT_RTOL of h (or holds no double between its
    ends); its upper end is returned.  Returns inf for a
    law whose attenuation never grows; raises NumericalError for a
    growing attenuation that reaches the threshold only beyond the
    double range.
    """
    _check_distance(r)

    def exponent(h):
        with np.errstate(over="ignore", invalid="ignore"):  # the top powers overflow the rise
            return 2.0 * r * attenuation_rise(law, start, h)

    exponents = exponent(_WIDTHS)
    k = int(np.argmax(exponents >= _TAIL_DECADES))  # 0, the width 0, where none reaches it
    if not _TAIL_DECADES <= exponents[k] < math.inf:  # an overflowed rise is no crossing
        if np.any(exponents > 0.0):
            raise NumericalError(
                f"the tail cut at r={r!r} lies beyond the frequencies where alpha is finite")
        return math.inf
    lo, hi = _WIDTHS[k - 1], _WIDTHS[k]
    while hi - lo > max(_CUT_RTOL * hi, math.ulp(hi)):
        grid = np.linspace(lo, hi, _CUT_POINTS)
        j = 1 + int(np.count_nonzero(exponent(grid[1:-1]) < _TAIL_DECADES))
        lo, hi = grid[j - 1], grid[j]
    return float(hi)


def _energy_pass(law, r, lo, hi):
    """(extent, Quadrature) of `_gain_sq` from lo over the offsets [0, extent] at QUADRATURE_RTOL.

    extent is hi - lo where the integrand is still above exp(-70) at hi,
    else the smaller of hi - lo and the `_tail_width` from lo.  Kept in
    the offset, the integrand carries no rounding of Re alpha*(lo) or of
    lo itself, so a tail narrower than one ulp of lo keeps its digits.
    Raises ValueError where the extent is infinite: the law does not decay.
    """
    _check_distance(r)
    extent = hi - lo  # no width is solved where hi comes first
    if not (extent < math.inf
            and 2.0 * r * float(attenuation_rise(law, lo, extent)) < _TAIL_DECADES):
        extent = min(extent, _tail_width(law, r, lo))
    if not math.isfinite(extent):
        raise ValueError("norm diverges: the law has no spectral decay")
    return extent, integrate_decaying(_gain_sq(law, r, lo), 0.0, extent, rtol=QUADRATURE_RTOL)


def _log_energy(law, r, lo):
    """ln of the integral of exp(-2*r*Re alpha*(w)) over [lo, inf), finite where it underflows."""
    _, tail = _energy_pass(law, r, lo, math.inf)
    return math.log(tail.value) - 2.0 * r * float(np.real(eval_alpha(law, lo)))


@dataclass(frozen=True)
class EnergyProfile:
    """E(m), the integral over [0, m] of exp(-2*r*Re alpha*(w)); `energy` is its pass to top."""

    law: DispersionLaw
    r: float
    top: float
    energy: Quadrature
    hi: float  # the end of the band it was built for; inf for the line profile

    @property
    def total(self):
        """E(top)."""
        return self.energy.value

    @cached_property
    def log_beyond(self):
        """ln of the energy beyond top, from an energy pass from top on first use."""
        return _log_energy(self.law, self.r, self.top)

    @property
    def norm(self):
        """L2 norm of G_hat over [-top, top]: the band's, or the line's up to its tail cut.

        sqrt(2*total)/(4*pi*r), with the prefactor applied in log space,
        so the norm underflows to 0.0 only where it lies below the
        smallest double, not where its integrand underflows.
        """
        try:
            return math.exp(0.5 * (math.log(2.0) + math.log(self.total)) - _LN_4PI
                            - math.log(self.r))
        except OverflowError:
            raise NumericalError(f"the norm at r={self.r!r} exceeds the largest double") from None

    def at(self, m):
        """E(m), vectorized over m; an m outside [0, top] counts as the nearer end.

        The panels below m plus one 15-node Gauss-Kronrod panel from the last edge to m.
        """
        m = np.clip(np.asarray(m, dtype=float), 0.0, self.top)
        edges = self.energy.edges
        k = np.searchsorted(edges, m, side="right") - 1
        below = np.concatenate(([0.0], np.cumsum(self.energy.panels)))[k]
        partial, _ = gauss_kronrod(_gain_sq(self.law, self.r), np.ravel(edges[k]), np.ravel(m))
        out = below + partial.reshape(m.shape)
        return out if out.ndim else float(out)

    def band_edge(self, delta):
        """Band edge M capturing the fraction (1 - delta) of the spectral energy.

        Solves tail(M) = delta * full, better conditioned for small delta
        than the band equation.  The tail energy at every panel edge, the
        energy beyond top plus the panels above, locates the panel holding
        the root; a tail near delta * full is accurate to 1e-12/delta.
        Newton steps inside it use tail'(M) = -exp(-2*r*Re alpha*(M)) and
        one 15-node integral from the panel's left edge each, falling back
        to bisection outside the bracket, until the residual meets
        BAND_EDGE_RTOL relative to delta * full.  Where even top leaves
        more than delta * full beyond it, top is returned; delta = 1 gives 0.
        """
        if not 0.0 < delta <= 1.0:
            raise ValueError(f"delta must lie in (0, 1], got {delta!r}")
        if delta == 1.0:
            return 0.0
        band, cut, r = self.energy, self.top, self.r
        gain_sq = _gain_sq(self.law, r)
        beyond = math.exp(self.log_beyond)
        target = delta * (band.value + beyond)
        if beyond >= target:
            return cut
        # tails[k]: energy beyond edges[k]; the root lies where it falls through target
        tails = np.append(beyond + np.cumsum(band.panels[::-1])[::-1], beyond)
        k = int(np.count_nonzero(tails >= target)) - 1
        anchor, excess = band.edges[k], tails[k] - target
        lo, hi = anchor, band.edges[k + 1]
        m = anchor + (hi - anchor) * (excess / band.panels[k])
        for _ in range(_BAND_EDGE_STEPS):
            if not lo < m < hi:
                m = 0.5 * (lo + hi)
            gap = excess - integrate_decaying(gain_sq, anchor, m, rtol=QUADRATURE_RTOL).value
            if abs(gap) <= BAND_EDGE_RTOL * target or m in (lo, hi):
                return float(m)
            if gap > 0.0:
                lo = m
            else:
                hi = m
            slope = float(gain_sq(np.array([m]))[0])  # -tail'(m)
            m += gap / slope if slope > 0.0 else math.inf
        raise NumericalError(f"the band edge at r={r!r} did not converge in the bracket "
                             f"[{lo!r}, {hi!r}]")


def energy_profile(law, r, hi=math.inf):
    """EnergyProfile of `law` at r: the energy pass from 0 over [0, min(hi, tail cut)]."""
    if hi != math.inf:
        _check_band_edge(hi)
    top, energy = _energy_pass(law, r, 0.0, hi)
    return EnergyProfile(law, float(r), float(top), energy, float(hi))


def relative_truncation_error(profile, m):
    """Relative L2 error of the band truncation at m, from an EnergyProfile.

    norm over |w| > m divided by the full-line norm; by the
    Plancherel-Parseval equality this equals the time-domain relative
    error of the truncated signal.  Always in [0, 1]; it is formed as
    10**`log10_relative_truncation_error`.
    """
    return 10.0 ** log10_relative_truncation_error(profile, m)


def log10_relative_truncation_error(profile, m):
    """log10 of `relative_truncation_error`, finite where the linear value underflows.

    Half the difference of the log energies of the tail [m, inf) and of
    the full line, the profile's total and the energy beyond it, in
    decades; the prefactor of |G_hat|^2 cancels.
    """
    _check_band_edge(m)
    tail = _log_energy(profile.law, profile.r, m)
    full = np.logaddexp(math.log(profile.total), profile.log_beyond)
    return float(tail - full) / (2.0 * math.log(10.0))


def deviation_factor(causal, powerlaw, r, omega):
    """Squared relative deviation C = |G_hat_pl/G_hat_c - 1|**2 of the two Green spectra.

    With b1 + i*b2 = alpha_pl(w) - alpha_c(w), C = |exp(-(b1 + i*b2)*r) - 1|**2
    = |1 - 2*exp(-b1*r)*cos(b2*r) + exp(-2*b1*r)|, returned as
    expm1(-b1*r)**2 + 4*exp(-b1*r)*sin(b2*r/2)**2: two non-negative terms
    in real arithmetic that keep their digits where b*r is small.
    Vectorized over omega; non-finite where b*r overflows.
    """
    b = alpha_difference(causal, powerlaw, omega)
    with np.errstate(over="ignore", invalid="ignore"):
        x = -r * np.real(b)
        half_sin = np.sin(0.5 * r * np.imag(b))
        c = np.expm1(x) ** 2 + 4.0 * np.exp(x) * half_sin * half_sin
    return c if np.ndim(c) else float(c)


def relative_model_error(profile, powerlaw, m):
    """Relative L2 distance of the band-limited causal and power-law Green functions.

    ||G_hat_causal - G_hat_powerlaw|| / ||G_hat_causal||, both restricted
    to the band [-m, m], with the causal law and r of `profile`, an
    EnergyProfile that reaches m.  The denominator is profile.at(m); the
    numerator is one integral at QUADRATURE_RTOL of |G_hat_causal|**2 times
    `deviation_factor` over [0, min(m, profile.top)].  The common phase
    factor and the prefactor 1/(4*pi*r) cancel, so only the
    attenuation-dispersion difference contributes.
    """
    _check_band_edge(m)
    if profile.hi < m:
        raise ValueError(f"the model error at M={m!r} needs a profile that reaches M, "
                         f"got one of the band [0, {profile.hi!r}]")
    causal, r = profile.law, profile.r
    gain_sq = _gain_sq(causal, r)

    def diff_sq(w):  # |e^(-ac r) - e^(-ap r)|^2 = e^(-2 Re(ac) r) |expm1(-(ap - ac) r)|^2
        return gain_sq(w) * deviation_factor(causal, powerlaw, r, w)

    num_sq = integrate_decaying(diff_sq, 0.0, min(m, profile.top), rtol=QUADRATURE_RTOL).value
    return math.sqrt(num_sq / profile.at(m))
