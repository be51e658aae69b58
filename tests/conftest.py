import math

import numpy as np
import pytest

from lossywave import builtin_preset, eval_alpha, green_hat

SQRT_2PI = np.sqrt(2.0 * np.pi)


@pytest.fixture(scope="session")
def castor():
    return builtin_preset("castor-oil")


def trapezoid_norm(law, r, lo, hi, n=2**22, alpha_ref=0.0):
    """Dense-trapezoid L2 norm oracle, independent of the adaptive path.

    With alpha_ref the integrand is scaled by exp(2*r*alpha_ref), so the
    norm comes out multiplied by exp(r*alpha_ref).
    """
    w = np.linspace(lo, hi, n + 1)
    f = np.exp(-2.0 * (np.real(eval_alpha(law, w)) - alpha_ref) * r) / (4.0 * np.pi * r) ** 2
    return float(np.sqrt(2.0 * np.trapezoid(f, w)))


def full_grid_synthesis(law, r, grid):
    """Complex full-grid synthesis, the oracle for the half-spectrum path.

    Samples the Green function on w_k = (k - n/2)*dw, k = 0..n-1, the
    negative nodes included, keeps the real part at the lone -omega_max
    node and inverts with a complex FFT and an alternating-sign twiddle.
    Returns the complex samples and the spectral energy sum |values|^2 dw.
    """
    n, dw = grid.n, grid.delta_omega
    values = green_hat(law, r, dw * (np.arange(n) - n // 2))
    values[0] = values[0].real
    sign = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
    samples = (dw / SQRT_2PI) * sign * np.fft.fft(values)
    return samples, float(np.sum(np.abs(values) ** 2)) * dw


def pre_arrival_fraction(signal, edge):
    """Share of a RealSignal's energy in the samples at times() < edge, by a boolean mask.

    The reference of the pre-arrival fraction: it builds the times and the
    mask that `timedomain._energy_fractions` counts without.
    """
    energy = signal.samples**2
    return float(np.sum(energy[signal.times() < edge])) / float(np.sum(energy))


def l2_norm(signal):
    """Time-domain L2 norm sqrt(sum samples^2 * dt) of a RealSignal."""
    return math.sqrt(float(np.sum(signal.samples**2)) * signal.dt)


def alpha1_from_a1(a1, gamma, c0, tau0):
    """Invert the a1 relation of `derive_powerlaw_coeffs` back to alpha1."""
    if not (a1 > 0.0 and c0 > 0.0 and tau0 > 0.0):
        raise ValueError("a1, c0 and tau0 must be positive")
    if not 1.0 < gamma <= 2.0:
        raise ValueError(f"gamma must lie in (1, 2], got {gamma}")
    return 2.0 * c0 * a1 / (tau0 ** (gamma - 1.0) * abs(math.cos(gamma * math.pi / 2.0)))


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
