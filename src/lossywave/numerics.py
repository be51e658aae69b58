"""Shared numerical routines: quadrature, bracketed roots, extrema search.

Every integrand handled here is smooth, non-negative and decays
monotonically past its peak, so composite Simpson with panel doubling
on a geometrically subdivided interval is both fast and reliable.
Intervals whose integrand underflows converge immediately to zero.
"""

from __future__ import annotations

import math

import numpy as np


class NumericalError(RuntimeError):
    """Quadrature or root bracketing failed to converge."""


def complex_expm1(z):
    """exp(z) - 1 for complex z, accurate for small |z|.

    numpy has no complex expm1; the naive exp(z) - 1 loses all digits
    once |z| approaches machine epsilon.  Split into real/imaginary
    parts: Re = expm1(x)*cos(y) - 2*sin(y/2)**2, Im = exp(x)*sin(y).
    """
    z = np.asarray(z, dtype=complex)
    x = z.real
    y = z.imag
    re = np.expm1(x) * np.cos(y) - 2.0 * np.sin(0.5 * y) ** 2
    im = np.exp(x) * np.sin(y)
    out = re + 1j * im
    return out if out.ndim else complex(out)


_ERFCX_SERIES_FROM = 10.0  # the A&S 7.1.23 series reaches full precision beyond here


def erfcx(x):
    """Scaled complementary error function exp(x**2) * erfc(x) for x >= 0.

    Up to x = 10 the product is formed directly (exp(100) ~ 3e43 and
    erfc(10) ~ 2e-45 are both representable).  Beyond, the asymptotic
    series of Abramowitz & Stegun 7.1.23,

        erfcx(x) ~ 1/(x*sqrt(pi)) * sum_m (-1)**m (2m-1)!! / (2x**2)**m,

    is summed until a term no longer changes the sum; its smallest
    term lies below e**(-100), far under double precision.
    """
    if not x >= 0.0:
        raise ValueError(f"erfcx is implemented for x >= 0, got {x!r}")
    if x <= _ERFCX_SERIES_FROM:
        return math.erfc(x) * math.exp(x * x)
    inv = 1.0 / (2.0 * x * x)
    total, term, m = 1.0, 1.0, 1
    while True:
        term *= -(2 * m - 1) * inv
        if total + term == total:
            break
        total += term
        m += 1
    return total / (x * math.sqrt(math.pi))


def _simpson_sum(values, h):
    return (h / 3.0) * (
        values[0] + values[-1] + 4.0 * values[1:-1:2].sum() + 2.0 * values[2:-1:2].sum()
    )


def simpson_doubling(f, a, b, rtol=1e-9, floor=1e-300, max_doublings=22):
    """Integrate f over [a, b] with composite Simpson, doubling panels.

    f must map a numpy array of abscissae to an array of values.
    Convergence: two successive refinements agree to rtol relative,
    with an absolute floor so integrals that are identically zero
    (underflowed integrands) return immediately.

    Raises NumericalError when the panel count limit is exceeded.
    """
    if not b > a:
        return 0.0
    x = np.linspace(a, b, 5)
    v = np.asarray(f(x), dtype=float)
    s_prev = _simpson_sum(v, (b - a) / 4.0)
    panels = 4
    for _ in range(max_doublings):
        mid = 0.5 * (x[:-1] + x[1:])
        vm = np.asarray(f(mid), dtype=float)
        x2 = np.empty(2 * panels + 1)
        v2 = np.empty(2 * panels + 1)
        x2[0::2] = x
        x2[1::2] = mid
        v2[0::2] = v
        v2[1::2] = vm
        x, v, panels = x2, v2, 2 * panels
        s = _simpson_sum(v, (b - a) / panels)
        if abs(s - s_prev) <= rtol * abs(s) + floor:
            return s
        s_prev = s
    raise NumericalError(
        f"quadrature did not converge on [{a!r}, {b!r}] after {panels} panels"
    )


def integrate_decaying(f, a, b, rtol=1e-9, n_geometric=8, max_doublings=22):
    """Integrate a smooth, non-negative integrand on [a, b].

    The interval is subdivided geometrically toward the left endpoint,
    where decaying integrands peak and vary fastest; each piece runs
    through `simpson_doubling` and the pieces are summed.  Because the
    integrand is non-negative, per-piece relative tolerances add up to
    a relative tolerance on the sum.

    A coarse fixed-panel pre-pass estimates the total so that pieces
    whose contribution is negligible (often dominated by float
    cancellation noise) converge against an absolute floor instead of
    an unreachable relative one.
    """
    if not b > a:
        return 0.0
    span = b - a
    edges = [a]
    edges.extend(a + span * 0.25**k for k in range(n_geometric, 0, -1))
    edges.append(b)
    pieces = list(zip(edges[:-1], edges[1:]))
    coarse = 0.0
    for lo, hi in pieces:
        x = np.linspace(lo, hi, 257)
        coarse += abs(_simpson_sum(np.asarray(f(x), dtype=float), (hi - lo) / 256.0))
    floor = max(1e-300, 0.01 * rtol * coarse / len(pieces))
    total = 0.0
    for lo, hi in pieces:
        total += simpson_doubling(f, lo, hi, rtol=rtol, floor=floor,
                                  max_doublings=max_doublings)
    return total


def bisect_root(f, lo, hi, rtol=1e-12, f_tol=0.0, max_iter=200):
    """Root of f on [lo, hi] by bisection; f(lo) and f(hi) must differ in sign.

    Stops when the bracket shrinks below rtol relative to its midpoint
    or |f(mid)| <= f_tol.  Endpoints that are exact roots are returned
    as-is.  Raises NumericalError when max_iter halvings do not meet the
    tolerance, rather than return a midpoint that is not a root.
    """
    flo = f(lo)
    if flo == 0.0:
        return lo
    fhi = f(hi)
    if fhi == 0.0:
        return hi
    if flo * fhi > 0.0:
        raise NumericalError(f"root not bracketed on [{lo!r}, {hi!r}]")
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if fm == 0.0 or abs(fm) <= f_tol or (hi - lo) <= rtol * abs(mid):
            return mid
        if (fm > 0.0) == (flo > 0.0):
            lo, flo = mid, fm
        else:
            hi = mid
    raise NumericalError(
        f"bisection did not reach rtol {rtol!r} in {max_iter} steps; bracket [{lo!r}, {hi!r}]")


def golden_section_max(f, lo, hi, iters=120):
    """Maximum of a smooth function on [lo, hi] by golden-section search."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(iters):
        if b - a <= 1e-15 * max(1.0, abs(a) + abs(b)):
            break
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    x = c if fc > fd else d
    return x, max(fc, fd)


def scan_max(f_vec, lo, hi, n_grid=100_001):
    """Maximum of f on [lo, hi]: dense vectorized grid seed + golden refinement.

    f_vec must accept a numpy array.  Returns (argmax, max).
    """
    if hi <= lo:
        x = float(lo)
        return x, float(np.asarray(f_vec(np.array([x])))[0])
    grid = np.linspace(lo, hi, n_grid)
    vals = np.asarray(f_vec(grid), dtype=float)
    i = int(np.argmax(vals))
    a = grid[max(i - 1, 0)]
    b = grid[min(i + 1, n_grid - 1)]
    x, fx = golden_section_max(lambda t: float(f_vec(np.array([t]))[0]), a, b)
    if fx >= vals[i]:
        return float(x), float(fx)
    return float(grid[i]), float(vals[i])
