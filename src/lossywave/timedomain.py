"""Time-domain synthesis, causality metrics, and wave-equation residuals.

Fourier convention, fixed package-wide:

    forward   F{g}(w) = (1/sqrt(2*pi)) * integral g(t) * exp(+1j*w*t) dt
    inverse   g(t)    = (1/sqrt(2*pi)) * integral ghat(w) * exp(-1j*w*t) dw

With the +1j*w*t forward kernel a delta at t = r/c0 transforms to
exp(1j*w*r/c0)/sqrt(2*pi), matching the phase factor of the sampled
Green spectrum, and the dissipation operator has the multiplier
alpha*(w)/sqrt(2*pi).  This is a modeling choice; it is asserted by
the delta-arrival test rather than assumed.

Discretely, a spectrum stored on the half grid w_m = m*dw, m = 0..n/2,
stands for its Hermitian extension ghat(-w) = conj(ghat(w)) and maps to
n real samples on t_j = j*dt with dt = 2*pi/(n*dw) = pi/W through a
real inverse FFT.  The Nyquist node w = W has no partner in the
extension and contributes its real part, as does w = 0.  Discrete
Parseval holds exactly over the extension:
sum g_j^2 dt = (|ghat_0|^2 + 2*sum_{0<m<n/2} |ghat_m|^2 + (Re ghat_{n/2})^2) dw.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .laws import eval_alpha
from .spectrum import ComplexSpectrum, FrequencyGrid, sample_green_spectrum

__all__ = [
    "RealSignal",
    "ForcingSignal",
    "synthesize_time_signal",
    "causality_energy_fraction",
    "forward_point_source",
    "helmholtz_radial_residual",
    "apply_dissipation_operator",
]

_SQRT_2PI = math.sqrt(2.0 * math.pi)


@dataclass(frozen=True)
class RealSignal:
    """Real time-domain samples on t_j = t0 + j*dt at distance r."""

    t0: float
    dt: float
    samples: np.ndarray
    r: float

    def times(self):
        return self.t0 + self.dt * np.arange(len(self.samples))

    def l2_norm(self):
        """Time-domain L2 norm sqrt(sum samples^2 * dt)."""
        return math.sqrt(float(np.sum(self.samples**2)) * self.dt)


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

    def spectrum(self, omega):
        """Forcing spectrum under the package Fourier convention."""
        w = np.asarray(omega, dtype=float)
        phase = np.exp(1j * w * self.center)
        with np.errstate(over="ignore"):  # an envelope exp(-inf) = 0 where (w*width)**2 overflows
            if self.kind == "delta":
                out = phase / _SQRT_2PI
            elif self.kind == "gaussian-pulse":
                out = self.width * phase * np.exp(-0.5 * (w * self.width) ** 2)
            else:
                k = self.carrier
                out = (self.width * phase / 2j) * (
                    np.exp(-0.5 * ((w + k) * self.width) ** 2)
                    - np.exp(-0.5 * ((w - k) * self.width) ** 2)
                )
        return out if out.ndim else complex(out)


def _inverse_transform(values, grid, t0=0.0):
    """Real samples on t_j = t0 + j*dt from half-grid spectrum values.

    g_j = (dw/sqrt(2pi)) * sum over the Hermitian extension of
    values_m * exp(-1j*w_m*t_j); with w_m = m*dw and dt = pi/W this is
    (dw/sqrt(2pi)) * n * irfft(conj(values)), which uses the real parts
    of the w = 0 and Nyquist values.
    """
    v = np.asarray(values, dtype=complex)
    if t0 != 0.0:
        v = v * np.exp(-1j * grid.omegas() * t0)
    return (grid.delta_omega / _SQRT_2PI * grid.n) * np.fft.irfft(np.conj(v), grid.n)


def _forward_transform(signal):
    """Forward transform of a RealSignal onto the half grid its window implies."""
    n = len(signal.samples)
    dw = 2.0 * math.pi / (n * signal.dt)
    grid = FrequencyGrid(omega_max=0.5 * n * dw, n=n)
    ghat = (signal.dt / _SQRT_2PI) * np.conj(np.fft.rfft(signal.samples))
    if signal.t0 != 0.0:
        ghat = ghat * np.exp(1j * grid.omegas() * signal.t0)
    return ghat, grid


def synthesize_time_signal(spec):
    """Real time signal from a sampled half spectrum.

    The output window is t in [0, n*dt) with dt = pi/omega_max.
    """
    return RealSignal(t0=0.0, dt=math.pi / spec.grid.omega_max,
                      samples=_inverse_transform(spec.values, spec.grid), r=spec.r)


def causality_energy_fraction(signal, arrival, guard=None):
    """Fraction of signal energy arriving before `arrival - guard`.

    guard defaults to 2*dt to absorb discretization ringing at the
    wave front; pass guard=0.0 for the raw fraction.  Raises when the
    guarded arrival precedes the signal window.
    """
    if guard is None:
        guard = 2.0 * signal.dt
    if guard < 0.0:
        raise ValueError("guard must be non-negative")
    edge = arrival - guard
    if edge <= signal.t0:
        raise ValueError("window too short: guarded arrival precedes the first sample")
    total = float(np.sum(signal.samples**2))
    if total == 0.0:
        return 0.0
    pre = float(np.sum(signal.samples[signal.times() < edge] ** 2))
    return pre / total


def forward_point_source(law, r, forcing, grid):
    """Pressure at distance r from a point source with time profile g.

    The output is the inverse transform of
    G_hat(r, w) * ghat(w) * sqrt(2*pi) (convolution theorem under the
    unitary convention); a delta forcing therefore reproduces
    synthesize_time_signal of the Green spectrum sample for sample.
    Non-delta forcing spectra must be negligible at the grid edge,
    |ghat(omega_max)| < 1e-12 * max|ghat|, and nonzero at some node.  A
    delta is exempt (it is never band-limited; the product decays
    through G_hat alone).
    """
    ghat = forcing.spectrum(grid.omegas())
    if forcing.kind != "delta":
        peak = float(np.max(np.abs(ghat)))
        if peak == 0.0:
            raise ValueError(f"the forcing spectrum is 0 at every node: the spacing "
                             f"2*omega_max/n = {grid.delta_omega!r} is too coarse, raise n")
        if abs(ghat[-1]) >= 1e-12 * peak:
            raise ValueError("forcing bandwidth exceeds the grid: raise omega_max")
    spec = sample_green_spectrum(law, r, grid)
    product = ComplexSpectrum(grid=grid, r=float(r),
                              values=spec.values * ghat * _SQRT_2PI,
                              law_tag=spec.law_tag)
    return synthesize_time_signal(product)


def helmholtz_radial_residual(law, r, omega, h):
    """Relative residual of the radial Helmholtz identity at (r, omega).

    u(rho) = rho * G_hat(rho, w) satisfies u'' = k*^2 u away from the
    origin, with k* = alpha*(w) - 1j*w/c0.  Returns
    |second-difference(u, h) - k*^2 u| / |k*^2 u|, which converges to
    zero at O(h^2) once h resolves the local wavelength 2*pi/|k*|.
    """
    if not (h > 0.0 and r > 2.0 * h):
        raise ValueError("step too large: r > 2h > 0 is required")
    a = complex(eval_alpha(law, omega))

    def u(rho):
        return np.exp((-a + 1j * omega / law.c0) * rho) / (4.0 * math.pi)

    k = a - 1j * omega / law.c0
    center = u(r)
    second = (u(r + h) - 2.0 * center + u(r - h)) / h**2
    return abs(second - k**2 * center) / abs(k**2 * center)


def apply_dissipation_operator(law, signal):
    """Apply the dissipative time-convolution operator to a signal.

    The operator multiplies the signal spectrum by
    alpha*(w)/sqrt(2*pi) under the package Fourier convention.  The
    multiplier is Hermitian, so the output is real.
    """
    ghat, grid = _forward_transform(signal)
    product = ghat * eval_alpha(law, grid.omegas()) / _SQRT_2PI
    return replace(signal, samples=_inverse_transform(product, grid, t0=signal.t0))
