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
