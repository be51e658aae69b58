"""Shared numerical routines: quadrature.

Every integrand handled here is smooth and non-negative, and most
peak at the left end of their interval and decay past it.  One fixed
rule integrates them all: Gauss-Kronrod 7/15 panels graded
geometrically toward the left end, every panel evaluated in one
vectorized call, and panels whose embedded error estimate exceeds
their share of the tolerance halved.  The rule returns its value
together with the error estimate, the sample count and the panels.
Integrands that underflow to zero integrate to zero at once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["NumericalError"]


class NumericalError(RuntimeError):
    """Quadrature or root bracketing failed to converge."""


# Gauss-Kronrod 7/15 on [-1, 1] (QUADPACK qk15, Piessens et al. 1983): the
# 15 Kronrod nodes hold the 7 Gauss nodes, so one set of samples gives both.
_GK_HALF_NODES = np.array([
    0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
    0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
    0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
    0.207784955007898467600689403773245, 0.0])
_GK_HALF_KRONROD = np.array([
    0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
    0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
    0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
    0.204432940075298892414161999234649, 0.209482141084727828012999174891714])
_GK_HALF_GAUSS = np.array([
    0.0, 0.129484966168869693270611432679082, 0.0, 0.279705391489276667901467771423780,
    0.0, 0.381830050505118944950369775488975, 0.0, 0.417959183673469387755102040816327])
_GK_NODES = np.concatenate((-_GK_HALF_NODES, _GK_HALF_NODES[-2::-1]))
_GK_KRONROD = np.concatenate((_GK_HALF_KRONROD, _GK_HALF_KRONROD[-2::-1]))
_GK_GAP = _GK_KRONROD - np.concatenate((_GK_HALF_GAUSS, _GK_HALF_GAUSS[-2::-1]))

QUADRATURE_RTOL = 1e-12  # every |G_hat|^2 energy; above the rounding noise of exponents up to 70
_GRADED_PANELS = 12  # edges a + (b - a)*2**-k, k = 0..11, and a itself
_MAX_PANELS = 4096


@dataclass(frozen=True)
class Quadrature:
    """Result of `integrate_decaying`.

    value is the Kronrod sum over all panels and error the sum of the
    panel estimates |K15 - G7|; samples counts integrand evaluations.
    edges (ascending, from a to b) bound the panels and panels holds
    the integral over each, so panels[k] covers [edges[k], edges[k+1]].
    """

    value: float
    error: float
    samples: int
    edges: np.ndarray
    panels: np.ndarray


def gauss_kronrod(f, left, right):
    """K15 integrals and |K15 - G7| estimates of the panels [left, right], one call of f."""
    half = 0.5 * (right - left)
    x = (0.5 * (left + right))[:, None] + half[:, None] * _GK_NODES
    values = np.asarray(f(x.ravel()), dtype=float).reshape(x.shape)
    if not np.all(np.isfinite(values)):
        bad = x[~np.isfinite(values)][0]
        raise NumericalError(f"the integrand is not finite at {bad!r}")
    return half * (values @ _GK_KRONROD), np.abs(half * (values @ _GK_GAP))


def integrate_decaying(f, a, b, rtol=QUADRATURE_RTOL):
    """Integrate a smooth, non-negative integrand on [a, b]; returns a Quadrature.

    f maps a 1-d numpy array of abscissae to an array of values.  One
    Gauss-Kronrod 7/15 panel over [a, b] is tried first: a smooth
    interval such as one step of a root solve needs no more.  Otherwise
    the interval is split into panels graded geometrically toward a,
    where decaying integrands peak and vary fastest.  Every panel whose
    estimate |K15 - G7| exceeds its equal share of rtol times the total
    is halved, all of them in one call of f, until none does; the
    estimates then sum to at most rtol times the value.  An integrand
    that underflows to zero gives zero at once.

    Raises NumericalError for a non-finite integrand value, or when
    the panels needed exceed a fixed cap (integrand noise above rtol).
    """
    if not b > a:
        return Quadrature(0.0, 0.0, 0, np.empty(0), np.empty(0))
    left, right = np.array([float(a)]), np.array([float(b)])
    value, error = gauss_kronrod(f, left, right)
    samples = _GK_NODES.size
    if error[0] > rtol * value[0]:
        edges = np.concatenate(([a], a + (b - a) * 0.5 ** np.arange(_GRADED_PANELS - 1, -1, -1)))
        edges[-1] = b
        left, right = edges[:-1], edges[1:]
        value, error = gauss_kronrod(f, left, right)
        samples += _GK_NODES.size * left.size
    while True:
        split = error > rtol * value.sum() / value.size
        n_split = int(np.count_nonzero(split))
        if not n_split:
            break
        if value.size + n_split > _MAX_PANELS:
            raise NumericalError(
                f"quadrature did not reach rtol {rtol!r} on [{a!r}, {b!r}] "
                f"within {_MAX_PANELS} panels")
        lo, hi = left[split], right[split]
        mid = 0.5 * (lo + hi)
        new_value, new_error = gauss_kronrod(f, np.concatenate((lo, mid)),
                                             np.concatenate((mid, hi)))
        samples += _GK_NODES.size * 2 * n_split
        keep = ~split
        left = np.concatenate((left[keep], lo, mid))
        right = np.concatenate((right[keep], mid, hi))
        value = np.concatenate((value[keep], new_value))
        error = np.concatenate((error[keep], new_error))
    order = np.argsort(left)
    return Quadrature(value=float(value.sum()), error=float(error.sum()), samples=samples,
                      edges=np.append(left[order], float(b)), panels=value[order])
