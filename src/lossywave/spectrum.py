"""Frequency-domain Green function: sampling, truncation, L2 norms.

The Green function of a homogeneous dissipative medium at distance
r > 0 from a point impulse has the spectrum

    G_hat(r, w) = exp(-alpha*(w) * r) / (4*pi*r) * exp(1j*w*r/c0),

where alpha* is one of the dispersion laws from `lossywave.laws` and
c0 is the phase reference carried by the law (for a power law, the c0
of the medium it was derived from, so that two laws of one medium
differ only through alpha*).

Norms are L2 in omega over the full line, a band [-M, M], or its
complement ("tail"); by the Plancherel-Parseval equality they match
the time-domain norms that `lossywave.timedomain` verifies.  Line and
band energies and the band edge holding a share of the energy read one
`EnergyProfile`: E(m), the integral of |G_hat|^2 without its prefactor
over [0, m], from one graded Gauss-Kronrod 7/15 pass at rtol 1e-12.
Semi-infinite integrals stop at the tail cut, where the integrand has
decayed by exp(-70) ~ 4e-31.  Tails beyond a band edge M are integrated
at rtol 1e-9 in the offset from M, scaled to 1 there, and returned as
a logarithm: the rise of the attenuation carries no rounding of the
attenuation itself, and a tail below the smallest double keeps a
finite log10.  r and M must be finite and positive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Optional

import numpy as np

from .laws import DispersionLaw, alpha_difference, attenuation_rise, eval_alpha
from .numerics import NumericalError, Quadrature, bisect_root, gauss_kronrod, integrate_decaying

__all__ = [
    "FrequencyGrid",
    "ComplexSpectrum",
    "NormDomain",
    "EnergyProfile",
    "energy_profile",
    "green_hat",
    "sample_green_spectrum",
    "truncate_spectrum",
    "tail_cut_frequency",
    "spectral_l2_norm",
    "relative_truncation_error",
    "log10_relative_truncation_error",
    "relative_model_error",
]

_TAIL_DECADES = 70.0  # exp(-70) ~ 4e-31: neglected tail mass is invisible at rtol 1e-9
_CUT_RTOL = 1e-9  # relative tolerance of the tail-cut bisection
NORM_RTOL = 1e-9  # tails beyond a band edge and the band-limited model error
ENERGY_PASS_RTOL = 1e-12  # the energy profile; well above the rounding noise of exponents up to 70
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


@dataclass(frozen=True)
class NormDomain:
    """Integration domain for spectral norms: full line, band or tail."""

    kind: str
    m: Optional[float] = None

    def __post_init__(self):
        if self.kind not in ("full", "band", "tail"):
            raise ValueError(f"unknown norm domain {self.kind!r}")
        if self.kind != "full":
            _check_band_edge(self.m)

    @classmethod
    def full_line(cls):
        return cls("full")

    @classmethod
    def band(cls, m):
        return cls("band", float(m))

    @classmethod
    def tail(cls, m):
        return cls("tail", float(m))


def green_hat(law, r, omega):
    """Green-function spectrum exp(-alpha*(w)*r)/(4*pi*r) * exp(1j*w*r/c0).

    r must be positive: the Green function is singular at the origin.
    Vectorized over omega.
    """
    _check_distance(r)
    w = np.asarray(omega, dtype=float)
    out = np.exp(-eval_alpha(law, w) * r + 1j * (w * (r / law.c0))) / (4.0 * math.pi * r)
    return out if out.ndim else complex(out)


def sample_green_spectrum(law, r, grid):
    """Sample the Green-function spectrum on a FrequencyGrid."""
    values = green_hat(law, r, grid.omegas())
    return ComplexSpectrum(grid=grid, r=float(r), values=values, law_tag=law.tag)


def truncate_spectrum(spec, m):
    """Zero the spectrum outside [-m, m] (hard characteristic-function cut).

    Samples at w_m = m are kept.  Repeated truncation composes:
    the recorded cutoff is the minimum of m and any existing cutoff.
    """
    _check_band_edge(m)
    values = np.where(spec.grid.omegas() > m, 0.0 + 0.0j, spec.values)
    cutoff = m if spec.cutoff is None else min(m, spec.cutoff)
    return replace(spec, values=values, cutoff=cutoff)


def _gain_sq(law, r):
    """|G_hat(r, w)|**2 without the prefactor 1/(4*pi*r)**2."""

    def f(w):
        return np.exp(-2.0 * r * np.real(eval_alpha(law, w)))

    return f


def tail_cut_frequency(law, r, start=0.0):
    """Frequency beyond which |G_hat|^2 is below exp(-70) of its value at `start`.

    Solves 2*r*Re(alpha*(w)) = 2*r*Re(alpha*(start)) + 70 on the
    monotone attenuation, bracketed in factors of 4 from max(start, 1);
    used to cut semi-infinite norm integrals.  Returns inf for laws
    whose attenuation never grows (degenerate lossless laws): their
    line/tail norms diverge.  Raises NumericalError for a growing
    attenuation that reaches the threshold only where alpha overflows.
    """
    _check_distance(r)

    def att(w):
        with np.errstate(over="ignore", invalid="ignore"):
            return float(np.real(eval_alpha(law, w)))

    target = 2.0 * r * att(start) + _TAIL_DECADES

    def excess(w):
        return 2.0 * r * att(w) - target

    lo = hi = max(abs(start), 1.0)
    f_hi = excess(hi)
    while f_hi < 0.0 and hi <= np.finfo(float).max / 4.0:
        lo, hi = hi, 4.0 * hi
        f_hi = excess(hi)
    if not (0.0 <= f_hi < math.inf):
        if att(lo) > att(start):
            raise NumericalError(
                f"the tail cut at r={r!r} lies beyond the frequencies where alpha is finite")
        return math.inf
    while lo > start and excess(lo) > 0.0:  # the cut lies below 1
        lo, hi = max(lo / 4.0, start), lo
    return bisect_root(excess, lo, hi, rtol=_CUT_RTOL)


def _integration_limit(law, r, hi):
    """min(hi, tail cut); no cut is searched where it lies beyond a finite hi."""
    _check_distance(r)
    if math.isfinite(hi) and 2.0 * r * float(np.real(eval_alpha(law, hi))) < _TAIL_DECADES:
        return hi
    return min(hi, tail_cut_frequency(law, r))


def _log_scaled_energy(law, r, lo):
    """ln of the integral of exp(-2*r*(Re alpha*(w) - Re alpha*(lo))) over [lo, inf).

    The integrand, 1 at lo, is integrated to the tail cut from lo in the
    offset h = w - lo through `attenuation_rise`, free of the rounding of
    Re alpha*(lo).  A cut within twice its bisection tolerance of lo raises.
    """
    top = tail_cut_frequency(law, r, start=lo)
    if not math.isfinite(top):
        raise ValueError("norm diverges: the law has no spectral decay")
    if top - lo < 2.0 * _CUT_RTOL * lo:
        raise NumericalError(f"at r={r!r} the spectrum beyond w={lo!r} decays within "
                             f"{top - lo!r}, too narrow for the tail cut to resolve")

    def scaled_gain_sq(h):
        return np.exp(-2.0 * r * attenuation_rise(law, lo, h))

    return math.log(integrate_decaying(scaled_gain_sq, 0.0, top - lo, rtol=NORM_RTOL).value)


def _log_energy(law, r, lo):
    """ln of the integral of exp(-2*r*Re alpha*(w)) over [lo, inf), finite where it underflows."""
    return _log_scaled_energy(law, r, lo) - 2.0 * r * float(np.real(eval_alpha(law, lo)))


@dataclass(frozen=True)
class EnergyProfile:
    """E(m), the integral over [0, m] of exp(-2*r*Re alpha*(w)); `energy` is its pass to top."""

    law: DispersionLaw
    r: float
    top: float
    energy: Quadrature

    @property
    def total(self):
        """E(top)."""
        return self.energy.value

    @cached_property
    def log_beyond(self):
        """ln of the energy beyond top, integrated log-scaled from top on first use."""
        return _log_energy(self.law, self.r, self.top)

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
            gap = excess - integrate_decaying(gain_sq, anchor, m, rtol=ENERGY_PASS_RTOL).value
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
    """EnergyProfile of `law` at r: one pass at ENERGY_PASS_RTOL over [0, min(hi, tail cut)]."""
    if hi != math.inf:
        _check_band_edge(hi)
    top = _integration_limit(law, r, hi)
    if not math.isfinite(top):
        raise ValueError("norm diverges: the law has no spectral decay")
    energy = integrate_decaying(_gain_sq(law, r), 0.0, top, rtol=ENERGY_PASS_RTOL)
    return EnergyProfile(law, float(r), float(top), energy)


def spectral_l2_norm(law, r, domain):
    """L2 norm of the Green-function spectrum over a NormDomain.

    Returns (integral of |G_hat(r, w)|^2 over the domain)**0.5, using
    the even symmetry of the integrand (integrate [0, inf) and
    double).  The prefactor sqrt(2)/(4*pi*r) is applied in log space,
    so the norm underflows to 0.0 only where it lies below the smallest
    double, not where its integrand underflows.
    """
    if domain.kind == "tail":
        log_energy = _log_energy(law, r, domain.m)
    else:
        hi = domain.m if domain.kind == "band" else math.inf
        log_energy = math.log(energy_profile(law, r, hi).total)
    try:
        return math.exp(0.5 * (math.log(2.0) + log_energy) - _LN_4PI - math.log(r))
    except OverflowError:
        raise NumericalError(f"the {domain.kind} norm at r={r!r} exceeds the largest double")


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


def _deviation_sq(causal, powerlaw, r, w):
    """|exp(-b*r) - 1|**2, b = alpha_pl(w) - alpha_c(w), as expm1(x)**2 + 4*exp(x)*sin(y/2)**2.

    x = -r*Re(b), y = r*Im(b): two non-negative terms that keep their
    digits where b*r is small.  Non-finite where b*r overflows.
    """
    b = alpha_difference(causal, powerlaw, w)
    with np.errstate(over="ignore", invalid="ignore"):
        x = -r * np.real(b)
        half_sin = np.sin(0.5 * r * np.imag(b))
        return np.expm1(x) ** 2 + 4.0 * np.exp(x) * half_sin * half_sin


def _model_diff_sq(causal, powerlaw, r):
    """|G_hat_causal - G_hat_powerlaw|**2 without the prefactor 1/(4*pi*r)**2."""
    gain_sq = _gain_sq(causal, r)

    def f(w):  # |e^(-ac r) - e^(-ap r)|^2 = e^(-2 Re(ac) r) |expm1(-(ap - ac) r)|^2
        return gain_sq(w) * _deviation_sq(causal, powerlaw, r, w)

    return f


def relative_model_error(causal, powerlaw, r, m, rtol=NORM_RTOL):
    """Relative L2 distance of the two band-limited Green functions.

    ||G_hat_causal - G_hat_powerlaw|| / ||G_hat_causal||, both
    restricted to the band [-m, m] and integrated over [0, min(m, tail
    cut)] with one rule at rtol.  The common phase factor and the
    prefactor 1/(4*pi*r) cancel, so only the attenuation-dispersion
    difference contributes.
    """
    _check_band_edge(m)
    hi = _integration_limit(causal, r, m)
    num_sq = integrate_decaying(_model_diff_sq(causal, powerlaw, r), 0.0, hi, rtol=rtol).value
    den_sq = integrate_decaying(_gain_sq(causal, r), 0.0, hi, rtol=rtol).value
    return math.sqrt(num_sq / den_sq)
