"""Shared numerical routines: quadrature, and solvers run in lockstep.

Every integrand handled here is smooth and non-negative, and most
peak at the left end of their interval and decay past it.  One fixed
rule integrates them all: Gauss-Kronrod 7/15 panels graded
geometrically toward the left end, every panel evaluated in one
vectorized call, and panels whose embedded error estimate exceeds
their share of the tolerance halved.  The rule returns its value
together with the error estimate, the sample count and the panels.
Integrands that underflow to zero integrate to zero at once.  Many
intervals integrate together, one integrand call per round for all,
each bit for bit as alone (`integrate_intervals`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["NumericalError", "integrate_intervals"]


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
    """Result of `integrate_intervals` on one interval.

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


def _run_together(runs, answer):
    """Return values of the generators `runs`, driven in lockstep.

    Each round every unfinished generator yields a request, answer(requests,
    indices) answers all of them in one vectorized call, and each is sent
    its answer.  An exception propagates at once, the lowest index first.
    """
    results, pending = [None] * len(runs), {}
    for i, run in enumerate(runs):
        try:
            pending[i] = next(run)
        except StopIteration as stop:
            results[i] = stop.value
    while pending:
        indices = list(pending)
        for i, reply in zip(indices, answer([pending[i] for i in indices], indices)):
            try:
                pending[i] = runs[i].send(reply)
            except StopIteration as stop:
                results[i] = stop.value
                del pending[i]
    return results


def _kronrod_groups(f, groups, ids, where=None):
    """[(K15 integrals, |K15 - G7| estimates)] of each group (left, right) of panels.

    One call f(x, k) takes the nodes of all groups, a row of 15 per panel,
    and the column k of each row's group id from ids.  Each group is
    summed in a matrix product of its own: the rows of one product over
    all panels depend on how many rows it has.  A non-finite value raises
    NumericalError naming where(id) of its group.
    """
    counts = [lo.size for lo, _ in groups]
    left, right = (np.concatenate(ends) for ends in zip(*groups))
    k = np.asarray(ids).repeat(counts)[:, None]
    half = 0.5 * (right - left)
    x = (0.5 * (left + right))[:, None] + half[:, None] * _GK_NODES
    values = np.asarray(f(x, k), dtype=float).reshape(x.shape)
    if not np.isfinite(values).all():
        bad = np.argmin(np.isfinite(values), axis=None)
        label = where(np.broadcast_to(k, x.shape).flat[bad]) if where else ""
        raise NumericalError(f"the integrand{label} is not finite at {float(x.flat[bad])!r}")
    sums, stop = [], 0
    for count in counts:
        rows, stop = slice(stop, stop + count), stop + count
        sums.append((half[rows] * (values[rows] @ _GK_KRONROD),
                     np.abs(half[rows] * (values[rows] @ _GK_GAP))))
    return sums


def _refine(a, b, rtol, k, where):
    """`integrate_intervals` on [a, b] as a generator: it yields the panels (left, right)
    it needs, is sent their (value, error) and returns the Quadrature."""
    if not b > a:
        return Quadrature(0.0, 0.0, 0, np.empty(0), np.empty(0))
    left, right = np.array([a]), np.array([b])
    value, error = yield left, right
    samples = _GK_NODES.size
    if error[0] > rtol * value[0]:
        edges = np.concatenate(([a], a + (b - a) * 0.5 ** np.arange(_GRADED_PANELS - 1, -1, -1)))
        edges[-1] = b
        left, right = edges[:-1], edges[1:]
        value, error = yield left, right
        samples += _GK_NODES.size * left.size
    while True:
        split = error > rtol * value.sum() / value.size
        n_split = int(np.count_nonzero(split))
        if not n_split:
            break
        if value.size + n_split > _MAX_PANELS:
            raise NumericalError(
                f"quadrature{where(k) if where else ''} did not reach rtol {rtol!r} "
                f"on [{a!r}, {b!r}] within {_MAX_PANELS} panels")
        lo, hi = left[split], right[split]
        mid = 0.5 * (lo + hi)
        new_value, new_error = yield np.concatenate((lo, mid)), np.concatenate((mid, hi))
        samples += _GK_NODES.size * 2 * n_split
        keep = ~split
        left = np.concatenate((left[keep], lo, mid))
        right = np.concatenate((right[keep], mid, hi))
        value = np.concatenate((value[keep], new_value))
        error = np.concatenate((error[keep], new_error))
    order = np.argsort(left)
    return Quadrature(value=float(value.sum()), error=float(error.sum()), samples=samples,
                      edges=np.append(left[order], float(b)), panels=value[order])


def integrate_intervals(f, a, b, rtol=QUADRATURE_RTOL, where=None):
    """Integrate a smooth, non-negative integrand over each interval [a[k], b[k]].

    Returns one Quadrature per interval.  f(x, k) takes a row of 15 nodes
    per panel and the column k of each row's interval and returns the
    values at x.  On each interval one Gauss-Kronrod 7/15 panel over [a, b]
    is tried first: a smooth interval such as one step of a root solve
    needs no more.  Otherwise the interval is split into panels graded
    geometrically toward a, where decaying integrands peak and vary
    fastest.  Every panel whose estimate |K15 - G7| exceeds its equal
    share of rtol times the total is halved, until none does; the
    estimates then sum to at most rtol times the value.  An integrand
    that underflows to zero gives zero at once, and an empty or reversed
    interval gives zero without a call.  Every round takes one call of f
    for the panels of all intervals.  Each interval refines as it would
    alone, its panels one block in its own order, so its Quadrature is the
    same bit for bit as in a one-element call.

    Raises NumericalError for a non-finite integrand value, or when the
    panels needed exceed a fixed cap (integrand noise above rtol).  Errors
    name where(k), a text such as " at r=1.0", of their interval.
    """
    runs = [_refine(float(lo), float(hi), rtol, k, where) for k, (lo, hi) in enumerate(zip(a, b))]
    return _run_together(runs, lambda panels, indices: _kronrod_groups(f, panels, indices, where))
