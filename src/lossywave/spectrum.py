"""Frequency-domain Green function: sampling, truncation, L2 norms.

The Green function of a homogeneous dissipative medium at distance
r > 0 from a point impulse has the spectrum

    G_hat(r, w) = exp(-alpha*(w) * r) / (4*pi*r) * exp(1j*w*r/c0),

where alpha* is one of the dispersion laws from `lossywave.laws` and
c0 is the phase reference carried by the law (for a power law, the c0
of the medium it was derived from, so that two laws of one medium
differ only through alpha*).

Norms are L2 in omega over the full line, a band [-M, M], or its
complement ("tail").  By the Plancherel-Parseval equality these match
the time-domain L2 norms of the synthesized signals, which is what
`lossywave.timedomain` verifies.  Integration is adaptive Simpson
with panel doubling (relative tolerance 1e-9, absolute floor 1e-300)
on a geometrically subdivided interval; semi-infinite tails are cut
where the integrand has decayed by a factor exp(-70) ~ 4e-31 from the
domain peak, far below the quadrature tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .laws import alpha_difference, eval_alpha
from .numerics import bisect_root, complex_expm1, integrate_decaying

__all__ = [
    "FrequencyGrid",
    "ComplexSpectrum",
    "NormDomain",
    "green_hat",
    "sample_green_spectrum",
    "truncate_spectrum",
    "tail_cut_frequency",
    "spectral_l2_norm",
    "relative_truncation_error",
    "log10_relative_truncation_error",
    "relative_model_error",
    "energy_band_edge",
]

_TAIL_DECADES = 70.0  # exp(-70) ~ 4e-31: neglected tail mass is invisible at rtol 1e-9


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
        if self.kind != "full" and not (self.m is not None and self.m > 0.0):
            raise ValueError("band/tail domains need m > 0")

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
    if not r > 0.0:
        raise ValueError("zero distance: the Green function is singular at r = 0")
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
    if not m > 0.0:
        raise ValueError("truncation frequency must be positive")
    values = np.where(spec.grid.omegas() > m, 0.0 + 0.0j, spec.values)
    cutoff = m if spec.cutoff is None else min(m, spec.cutoff)
    return replace(spec, values=values, cutoff=cutoff)


def _gain_sq(law, r, alpha_ref=0.0):
    """|G_hat(r, w)|**2, scaled by exp(2*r*alpha_ref) when alpha_ref is given."""
    scale = 1.0 / (4.0 * math.pi * r) ** 2

    def f(w):
        return scale * np.exp(-2.0 * (np.real(eval_alpha(law, w)) - alpha_ref) * r)

    return f


def tail_cut_frequency(law, r, start=0.0):
    """Frequency beyond which |G_hat|^2 is below exp(-70) of its value at `start`.

    Solves 2*r*Re(alpha*(w)) = 2*r*Re(alpha*(start)) + 70 on the
    monotone attenuation; used to cut semi-infinite norm integrals.
    Returns inf for laws whose attenuation never reaches the threshold
    (degenerate lossless laws): their line/tail norms diverge.
    """
    if not r > 0.0:
        raise ValueError("zero distance: the Green function is singular at r = 0")
    target = 2.0 * r * float(np.real(eval_alpha(law, start))) + _TAIL_DECADES

    def excess(w):
        return 2.0 * r * float(np.real(eval_alpha(law, w))) - target

    hi = max(abs(start), 1.0)
    f_hi = excess(hi)
    while f_hi < 0.0 and hi < 1e150:
        hi *= 4.0
        f_hi = excess(hi)
    if not (math.isfinite(f_hi) and f_hi > 0.0):
        return math.inf
    lo = max(start, hi / 4.0 if start == 0.0 else start)
    if excess(lo) > 0.0:
        lo = max(start, 1e-300)
    return bisect_root(excess, lo, hi, rtol=1e-9)


def spectral_l2_norm(law, r, domain, rtol=1e-9):
    """L2 norm of the Green-function spectrum over a NormDomain.

    Returns (integral of |G_hat(r, w)|^2 over the domain)**0.5, using
    the even symmetry of the integrand (integrate [0, inf) and
    double).  Tail norms whose integrand underflows return 0.0.
    """
    if not r > 0.0:
        raise ValueError("zero distance: the Green function is singular at r = 0")
    f = _gain_sq(law, r)
    if domain.kind == "full":
        lo, hi = 0.0, tail_cut_frequency(law, r)
    elif domain.kind == "band":
        lo, hi = 0.0, min(domain.m, tail_cut_frequency(law, r))
    else:
        lo = domain.m
        hi = tail_cut_frequency(law, r, start=domain.m)
    if not math.isfinite(hi):
        raise ValueError("norm diverges: the law has no spectral decay")
    return math.sqrt(2.0 * integrate_decaying(f, lo, hi, rtol=rtol))


def relative_truncation_error(law, r, m, rtol=1e-9):
    """Relative L2 error of the band truncation at m.

    norm over |w| > m divided by the full-line norm; by the
    Plancherel-Parseval equality this equals the time-domain relative
    error of the truncated signal.  Always in [0, 1].
    """
    tail = spectral_l2_norm(law, r, NormDomain.tail(m), rtol=rtol)
    full = spectral_l2_norm(law, r, NormDomain.full_line(), rtol=rtol)
    return tail / full


def log10_relative_truncation_error(law, r, m, rtol=1e-9):
    """log10 of `relative_truncation_error`, finite where the linear value underflows.

    The tail integrand is scaled by exp(2*r*alpha(m)), which makes its
    peak at w = m equal to the band-edge value instead of e.g.
    exp(-1800) at r = 10; the factor is restored in log space.  The
    full-line integrand peaks at w = 0, where alpha vanishes, and needs
    no scaling.
    """
    if not r > 0.0:
        raise ValueError("zero distance: the Green function is singular at r = 0")
    if not m > 0.0:
        raise ValueError("band edge must be positive")
    alpha_m = float(np.real(eval_alpha(law, m)))
    tail_cut = tail_cut_frequency(law, r, start=m)
    full_cut = tail_cut_frequency(law, r)
    if not (math.isfinite(tail_cut) and math.isfinite(full_cut)):
        raise ValueError("norm diverges: the law has no spectral decay")
    tail = integrate_decaying(_gain_sq(law, r, alpha_ref=alpha_m), m, tail_cut, rtol=rtol)
    full = integrate_decaying(_gain_sq(law, r), 0.0, full_cut, rtol=rtol)
    return (math.log(tail) - 2.0 * r * alpha_m - math.log(full)) / (2.0 * math.log(10.0))


def _model_diff_sq(causal, powerlaw, r):
    scale = 1.0 / (4.0 * math.pi * r) ** 2

    def f(w):
        ac = eval_alpha(causal, w)
        diff = alpha_difference(causal, powerlaw, w)
        # |e^(-ac r) - e^(-ap r)| = e^(-Re(ac) r) |expm1(-(ap - ac) r)|; the
        # expm1 form survives the near-cancellation at small frequencies.
        mod = np.exp(-np.real(ac) * r) * np.abs(complex_expm1(-diff * r))
        return scale * mod**2

    return f


def relative_model_error(causal, powerlaw, r, m, rtol=1e-9):
    """Relative L2 distance of the two band-limited Green functions.

    ||G_hat_causal - G_hat_powerlaw|| / ||G_hat_causal||, both
    restricted to the band [-m, m].  The common phase factor cancels,
    so only the attenuation-dispersion difference contributes.
    """
    if not m > 0.0:
        raise ValueError("band edge must be positive")
    hi = min(m, tail_cut_frequency(causal, r))
    num_sq = 2.0 * integrate_decaying(_model_diff_sq(causal, powerlaw, r), 0.0, hi, rtol=rtol)
    den = spectral_l2_norm(causal, r, NormDomain.band(m), rtol=rtol)
    return math.sqrt(num_sq) / den


def energy_band_edge(law, r, delta, rtol=1e-9):
    """Band edge M capturing the fraction (1 - delta) of the spectral energy.

    Solves band-norm(M)^2 = (1 - delta) * full-norm^2 by bisection on
    the equivalent tail equation tail(M)^2 = delta * full^2, which is
    better conditioned for small delta; the band energy is strictly
    increasing in M so the root is unique.  Relative tolerance 1e-6 on
    the energy equation.

    delta -> 0 edge: when even the tail-cut frequency cannot push the
    tail mass below delta * full^2 the cut frequency itself is
    returned.  delta = 1 returns 0.
    """
    if not 0.0 < delta <= 1.0:
        raise ValueError(f"delta must lie in (0, 1], got {delta!r}")
    if delta == 1.0:
        return 0.0
    full_sq = spectral_l2_norm(law, r, NormDomain.full_line(), rtol=rtol) ** 2
    target = delta * full_sq
    cut = tail_cut_frequency(law, r)

    def tail_sq(m):
        if m <= 0.0:
            return full_sq
        return spectral_l2_norm(law, r, NormDomain.tail(m), rtol=rtol) ** 2

    if tail_sq(cut) >= target:
        return cut
    return bisect_root(lambda m: tail_sq(m) - target, 0.0, cut,
                       rtol=1e-12, f_tol=1e-6 * target)
