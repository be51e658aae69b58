"""Time-domain synthesis and causality metrics.

Fourier convention, fixed package-wide:

    forward   F{g}(w) = (1/sqrt(2*pi)) * integral g(t) * exp(+1j*w*t) dt
    inverse   g(t)    = (1/sqrt(2*pi)) * integral ghat(w) * exp(-1j*w*t) dw

With the +1j*w*t forward kernel a delta at t = r/c0 transforms to
exp(1j*w*r/c0)/sqrt(2*pi), matching the phase factor of the sampled
Green spectrum.  This is a modeling choice; it is asserted by the
delta-arrival test rather than assumed.

Discretely, a spectrum stored on the half grid w_m = m*dw, m = 0..n/2,
stands for its Hermitian extension ghat(-w) = conj(ghat(w)) and maps to
n real samples on t_j = j*dt with dt = 2*pi/(n*dw) = pi/W through a
real inverse FFT.  The Nyquist node w = W has no partner in the
extension and contributes its real part, as does w = 0.  Discrete
Parseval holds exactly over the extension:
sum g_j^2 dt = (|ghat_0|^2 + 2*sum_{0<m<n/2} |ghat_m|^2 + (Re ghat_{n/2})^2) dw.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from .numerics import NumericalError
from .spectrum import _from_polar, _green_polar, _node_chunks, sample_green_spectrum

__all__ = [
    "RealSignal",
    "ForcingSignal",
    "synthesize_time_signal",
    "pre_arrival_fractions",
    "forward_point_source",
]

_SQRT_2PI = math.sqrt(2.0 * math.pi)


@dataclass(frozen=True)
class RealSignal:
    """Real time-domain samples on t_j = j*dt at distance r."""

    dt: float
    samples: np.ndarray
    r: float

    def times(self):
        return self.dt * np.arange(len(self.samples))


_FORCING_KINDS = ("delta", "gaussian-pulse", "gaussian-modulated-sine")


@dataclass(frozen=True)
class ForcingSignal:
    """Source time profile g(t) for point-source forward solves.

    kinds: "delta" (impulse at `center`), "gaussian-pulse"
    (exp(-(t-center)^2/(2 width^2))), "gaussian-modulated-sine"
    (sin(carrier*(t-center)) times the same envelope).
    """

    kind: str
    center: float = 0.0
    width: float = 0.0
    carrier: float = 0.0

    def __post_init__(self):
        if self.kind not in _FORCING_KINDS:
            raise ValueError(f"unknown forcing kind {self.kind!r}; choose from {_FORCING_KINDS}")
        if not all(map(math.isfinite, (self.center, self.width, self.carrier))):
            raise ValueError(f"forcing center, width and carrier must be finite, got {self}")
        if self.kind != "delta" and not self.width > 0.0:
            raise ValueError("width must be positive for non-delta forcings")

    @property
    def _lags(self):
        """True where the spectrum's phase is w*center - pi/2: the 1/(2j) of the modulated sine."""
        return self.kind == "gaussian-modulated-sine"

    def _envelope(self, w):
        """Real envelope E(w) of the spectrum E(w)*exp(1j*w*center), lagged by pi/2 if `_lags`.

        E is odd for the modulated sine, even otherwise.
        """
        with np.errstate(over="ignore"):  # an envelope exp(-inf) = 0 where (w*width)**2 overflows
            if self.kind == "delta":
                return np.full(np.shape(w), 1.0 / _SQRT_2PI)
            if self.kind == "gaussian-pulse":
                return self.width * np.exp(-0.5 * (w * self.width) ** 2)
            k = self.carrier
            return 0.5 * self.width * (np.exp(-0.5 * ((w + k) * self.width) ** 2)
                                       - np.exp(-0.5 * ((w - k) * self.width) ** 2))

    def spectrum(self, omega):
        """Forcing spectrum under the package Fourier convention: envelope times phase."""
        w = np.asarray(omega, dtype=float)
        out = _from_polar(self._envelope(w), w * self.center, lag=self._lags)
        return out if out.ndim else complex(out)


def _inverse_transform(values, grid):
    """Real samples on t_j = j*dt from half-grid spectrum values, which it overwrites.

    g_j = (dw/sqrt(2pi)) * sum over the Hermitian extension of
    values_m * exp(-1j*w_m*t_j); with w_m = m*dw and dt = pi/W this is
    (dw/sqrt(2pi)) * n * irfft(conj(values)), which uses the real parts
    of the w = 0 and Nyquist values.  values is conjugated in place and
    the scale applied to the samples in place, so the n samples that
    irfft returns are the one array made.
    """
    samples = np.fft.irfft(np.conjugate(values, out=values), grid.n)
    samples *= grid.delta_omega / _SQRT_2PI * grid.n
    return samples


def _signal(values, grid, r):
    """RealSignal of `_inverse_transform`, which overwrites values."""
    return RealSignal(dt=math.pi / grid.omega_max, samples=_inverse_transform(values, grid),
                      r=float(r))


def synthesize_time_signal(spec):
    """Real time signal from a sampled half spectrum.

    The output window is t in [0, n*dt) with dt = pi/omega_max.
    spec.values is left as it is: a copy of it is transformed.
    """
    return _signal(np.array(spec.values, dtype=complex), spec.grid, spec.r)


def _energy_fractions(energy, dt, edges):
    """Share of sum(energy) in the samples dt*j < edge, for each edge.

    Each count is a bisection over the products dt*j that `RealSignal.times`
    forms, so it is the count of times() < edge without building times().
    """
    total = float(np.sum(energy))
    if total == 0.0:
        return [0.0] * len(edges)
    counts = (bisect.bisect_left(range(len(energy)), edge, key=lambda j: dt * j)
              for edge in edges)
    return [float(np.sum(energy[:k])) / total for k in counts]


def pre_arrival_fractions(law, r, grid, band_edge, arrival):
    """(raw, guarded, guard): the pre-arrival energy fractions of the synthesized Green function.

    The Green function of `law` at r is sampled on grid up to the band
    edge (None: the whole grid) and synthesized on t_j = j*dt; its
    fractions are the shares of the signal energy in the samples before
    arrival - guard, at guard 0 and at guard 2*dt, which absorbs the
    discretization ringing at the wave front.  Raises ValueError when the
    guarded arrival precedes the window, NumericalError where the signal
    energy exceeds the largest double.  The spectrum is transformed in
    place and dropped, and the signal is squared in place: both fractions
    read that one energy array, and it is dropped on return, so a caller's
    next law is synthesized with no signal of this one alive.
    """
    dt = math.pi / grid.omega_max
    samples = _inverse_transform(sample_green_spectrum(law, r, grid, band_edge).values, grid)
    guard = 2.0 * dt
    if arrival - guard <= 0.0:
        raise ValueError("window too short: guarded arrival precedes the first sample")
    with np.errstate(over="ignore"):  # an energy beyond the doubles is refused below
        energy = np.square(samples, out=samples)
        total = np.sum(energy)
    if not np.isfinite(total):
        raise NumericalError(f"the energy of the synthesized signal exceeds the largest double "
                             f"at omega_max={grid.omega_max!r}, n={grid.n}")
    return (*_energy_fractions(energy, dt, [arrival, arrival - guard]), guard)


def forward_point_source(law, r, forcing, grid):
    """Pressure at distance r from a point source with time profile g.

    The output is the inverse transform of
    G_hat(r, w) * ghat(w) * sqrt(2*pi) (convolution theorem under the
    unitary convention), formed in one magnitude and one phase per node:
    the Green magnitude times the forcing's real envelope, and the Green
    phase plus w*center (less pi/2 for the modulated sine).  A delta forcing
    therefore reproduces synthesize_time_signal of the Green spectrum to
    rounding, within 1e-12 of its peak.  Non-delta forcing spectra must be
    negligible at the grid edge, |ghat(omega_max)| < 1e-12 * max|ghat|,
    and nonzero at some node, which is checked once every chunk is formed.
    A delta is exempt (it is never band-limited; the product decays
    through G_hat alone).  The nodes are formed and evaluated a chunk at a
    time, as in `sample_green_spectrum`, straight into the one
    half-spectrum array that the inverse transform then overwrites.
    """
    values = np.empty(grid.n // 2 + 1, dtype=complex)
    peak = 0.0
    for nodes, w in _node_chunks(grid, len(values)):
        envelope = forcing._envelope(w)
        if forcing.kind != "delta":
            peak = max(peak, float(np.max(np.abs(envelope))))
        magnitude, phase = _green_polar(law, r, w)
        magnitude *= envelope
        magnitude *= _SQRT_2PI
        phase += w * forcing.center
        _from_polar(magnitude, phase, lag=forcing._lags, out=values[nodes])
    if forcing.kind != "delta":
        if peak == 0.0:
            raise ValueError(f"the forcing spectrum is 0 at every node: the spacing "
                             f"2*omega_max/n = {grid.delta_omega!r} is too coarse, raise n")
        if abs(envelope[-1]) >= 1e-12 * peak:
            raise ValueError("forcing bandwidth exceeds the grid: raise omega_max")
    return _signal(values, grid, r)
