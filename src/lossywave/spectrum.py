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
share of the energy read; the line profile's total, E up to the tail
cut, is the full energy, since what lies beyond the cut, at most 1e-20
of it, is below every tolerance.  From a band edge M it is the tail
beyond M, scaled to 1 at M and returned as a logarithm: the rise of the
attenuation carries no rounding of the attenuation itself, and a tail
below the smallest double keeps a finite log10.  r and M must be finite
and positive.

Every stage runs for all distances of one law at once, each distance bit
for bit as alone: one rise serves every distance's width solve and
integrand, one quadrature takes every interval, and the public
one-distance functions are the one-element case of the batched ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
import numpy as np

from .laws import (DispersionLaw, _alpha_difference, _alpha_parts, _attenuation_and_difference,
                   _rise)
from .numerics import (NumericalError, Quadrature, _integrate_intervals, _kronrod_groups,
                       _run_together)

__all__ = [
    "FrequencyGrid",
    "ComplexSpectrum",
    "EnergyProfile",
    "energy_profile",
    "green_hat",
    "sample_green_spectrum",
    "log10_relative_truncation_error",
    "deviation_factor",
    "relative_model_error",
]

_TAIL_DECADES = 70.0  # exp(-70) ~ 4e-31: neglected tail mass is invisible at rtol 1e-12
_CUT_RTOL = 1e-9  # relative tolerance of the tail width h beyond the start, not of start + h
BAND_EDGE_RTOL = 1e-10  # `EnergyProfile.band_edge` solves its energy equation to this residual
_BAND_EDGE_STEPS = 100  # Newton converges in one or two; a step leaving the bracket bisects
_LN_4PI = math.log(4.0 * math.pi)
# Nodes per chunk of a sampled spectrum.  Timed from 2**12 to 2**20 on a 2-core Xeon with a
# 4 MB L2 cache (medians of 9 to 15 runs): 2**14 to 2**16 sample the causal spectrum of 2**20
# samples in 23-24 ms, 2**12 in 26 ms, 2**17 in 25 ms and one whole-grid chunk in 35 ms;
# 2**14 is the smallest chunk of that plateau, so its temporaries weigh least
_CHUNK_NODES = 2**14


def _check_distance(r):
    """Raise ValueError unless the distance r is finite and positive."""
    if not (r > 0.0 and math.isfinite(r)):
        raise ValueError(f"distance must be finite and positive, got r={r!r}")


def _check_band_edge(m):
    """Raise ValueError unless the band edge M is finite and positive."""
    if not (m > 0.0 and math.isfinite(m)):
        raise ValueError(f"band edge must be finite and positive, got M={m!r}")


def _check_line_profile(profile, what):
    """Raise ValueError naming `what` unless profile is the line EnergyProfile (hi = inf)."""
    if profile.hi != math.inf:
        raise ValueError(f"{what} needs the line energy profile, "
                         f"got one of the band [0, {profile.hi!r}]")


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
        return self.delta_omega * np.arange(self.n // 2 + 1, dtype=float)


@dataclass(frozen=True)
class ComplexSpectrum:
    """Sampled Green-function spectrum on the nodes w_m >= 0 of a FrequencyGrid.

    values[m] = G_hat(r, w_m).  The values at -w_m are the conjugates
    of the stored ones and are never stored, so the spectrum is
    Hermitian by construction.  Only the real parts of the values at
    w = 0 and at the Nyquist node w = omega_max enter a real signal.
    """

    grid: FrequencyGrid
    r: float
    values: np.ndarray

    def __post_init__(self):
        if len(self.values) != self.grid.n // 2 + 1:
            raise ValueError("values length does not match the grid: n/2 + 1 expected")


def _from_polar(magnitude, phase, lag=False, out=None):
    """magnitude*exp(1j*phase) from one cos and one sin pass over real arrays, into out if given.

    lag=True subtracts a quarter turn from the phase exactly:
    exp(1j*(phase - pi/2)) = sin(phase) - 1j*cos(phase).
    """
    if out is None:
        out = np.empty(np.shape(magnitude), dtype=complex)
    first, second = (np.sin, np.cos) if lag else (np.cos, np.sin)
    part = first(phase, out=np.empty(out.shape))
    np.multiply(magnitude, part, out=out.real)
    second(phase, out=part)
    if lag:
        np.negative(part, out=part)
    np.multiply(magnitude, part, out=out.imag)
    return out


def _green_polar(law, r, w):
    """(magnitude, phase) of G_hat(r, w): exp(-r*Re alpha*)/(4*pi*r) and w*r/c0 - r*Im alpha*."""
    _check_distance(r)
    magnitude, phase = _alpha_parts(law, w)
    magnitude *= -r
    np.exp(magnitude, out=magnitude)
    magnitude /= 4.0 * math.pi * r
    phase *= -r
    phase += w * (r / law.c0)
    return magnitude, phase


def green_hat(law, r, omega):
    """Green-function spectrum exp(-alpha*(w)*r)/(4*pi*r) * exp(1j*w*r/c0).

    r must be positive: the Green function is singular at the origin.
    Vectorized over omega.  Formed in real arithmetic as a magnitude
    exp(-r*Re alpha*)/(4*pi*r) times exp(1j*phi), phi = w*r/c0 - r*Im alpha*:
    one exp and one cos/sin pass per node.
    """
    w = np.asarray(omega, dtype=float)
    out = _from_polar(*_green_polar(law, r, w))
    return out if out.ndim else complex(out)


def _band_nodes(grid, band_edge):
    """The count of grid nodes w_m = m*delta_omega <= band_edge, a positive band edge.

    The estimate from band_edge/delta_omega is corrected against the same
    products that `FrequencyGrid.omegas` forms, so it is the count
    np.searchsorted(grid.omegas(), band_edge, side="right").
    """
    dw, last = grid.delta_omega, grid.n // 2
    k = math.floor(min(band_edge / dw, last))
    while k > 0 and dw * k > band_edge:
        k -= 1
    while k < last and dw * (k + 1) <= band_edge:
        k += 1
    return k + 1


def _node_chunks(grid, stop):
    """(slice, nodes) of the grid nodes w_m = m*delta_omega, m < stop, _CHUNK_NODES at a time.

    Each chunk's nodes are the products `FrequencyGrid.omegas` forms, so a
    chunk of an elementwise evaluation equals its slice of the whole-grid one.
    """
    dw = grid.delta_omega
    for lo in range(0, stop, _CHUNK_NODES):
        hi = min(lo + _CHUNK_NODES, stop)
        yield slice(lo, hi), dw * np.arange(lo, hi, dtype=float)


def sample_green_spectrum(law, r, grid, band_edge=None):
    """Sample the Green-function spectrum on a FrequencyGrid.

    With a band edge M only the nodes w_m <= M are evaluated; the rest
    are zero (a hard cut of the band [-M, M]).  The nodes are formed and
    evaluated _CHUNK_NODES at a time, each chunk written straight into
    its slice of the values: no array spans the grid but the values.
    Every step is elementwise, so the values are those of `green_hat` on
    grid.omegas() bit for bit, and the band values those of the
    untruncated sampling.
    """
    if band_edge is not None:
        _check_band_edge(band_edge)
    _check_distance(r)
    values = np.empty(grid.n // 2 + 1, dtype=complex)
    stop = len(values) if band_edge is None else _band_nodes(grid, band_edge)
    values[stop:] = 0.0
    for nodes, w in _node_chunks(grid, stop):
        _from_polar(*_green_polar(law, r, w), out=values[nodes])
    return ComplexSpectrum(grid=grid, r=float(r), values=values)


def _gain_sq(rise, r):
    """|G_hat(r, lo + h)|**2 / |G_hat(r, lo)|**2 in the offset h, from `laws._rise` from lo.

    f(h, k) takes the distance r[k] of each node; each call is one
    evaluation of the rise for all of them.  From lo = 0 it is
    |G_hat(r, w)|**2 without the prefactor 1/(4*pi*r)**2.  Where the
    exponent overflows, the gain underflows to 0: callers turn numpy's
    overflow warning off around a whole quadrature.
    """
    r = np.asarray(r, dtype=float)

    def f(h, k):
        return np.exp(-2.0 * r[k] * rise(h))

    return f


def _at_r(rs):
    """where(k) of `numerics._integrate_intervals`: the distance rs[k] in its messages."""
    return lambda k: f" at r={rs[k]!r}"


# every power of two of the double range after 0, and the indices of every 32nd of them
# and of the last: `_tail_width` brackets a crossing in two calls of at most 67 points
_WIDTHS = np.concatenate(([0.0], np.ldexp(1.0, np.arange(-1074, 1024))))
_COARSE = np.append(np.arange(0, _WIDTHS.size, 32), _WIDTHS.size - 1)
_SECANT_STEPS = 6  # secant steps before bisection; a tail width takes one to three
_LN_TAIL = math.log(_TAIL_DECADES)


def _secant_root(points, reached):
    """Width where the line through (ln h, ln exponent) at two points meets ln _TAIL_DECADES.

    nan where an exponent is not positive and finite or both are equal.
    """
    (a, b), (ea, eb) = points, reached
    if not (0.0 < ea < math.inf and 0.0 < eb < math.inf):
        return math.nan
    ya, yb = math.log(ea) - _LN_TAIL, math.log(eb) - _LN_TAIL
    if ya == yb:
        return math.nan
    return math.exp(min(math.log(a) - ya * math.log(b / a) / (yb - ya), 710.0))


def _width_steps(r, coarse):
    """`_tail_widths` at r from its exponents at the coarse widths: a generator that
    yields the widths where it needs the exponent next and returns the width."""
    # the first width whose exponent is not below the threshold: it reaches it, or the rise
    # overflowed there (inf or nan), which is no crossing; 0, the width 0, where there is none
    c = int(np.argmax(~(coarse < _TAIL_DECADES)))
    if c:
        widths = _WIDTHS[_COARSE[c - 1]:_COARSE[c] + 1]
        values = np.concatenate((coarse[c - 1:c], (yield widths[1:-1]), coarse[c:c + 1]))
        k = int(np.argmax(~(values < _TAIL_DECADES)))
    if not (c and values[k] < math.inf):
        if np.any(coarse > 0.0):
            raise NumericalError(
                f"the tail cut at r={r!r} lies beyond the frequencies where alpha is finite")
        return math.inf
    points, reached = widths[k - 1:k + 1].tolist(), values[k - 1:k + 1].tolist()
    (lo, hi), steps = points, 0
    while hi - lo > max(_CUT_RTOL * hi, math.ulp(hi)):
        h = _secant_root(points, reached) if steps < _SECANT_STEPS else math.nan
        if not lo < h < hi:
            h = math.sqrt(lo) * math.sqrt(hi)
        steps += 1
        step = max(0.45 * _CUT_RTOL * h, math.ulp(h))
        points = [max(h - step, math.nextafter(lo, hi)), min(h + step, math.nextafter(hi, lo))]
        reached = (yield np.array(points)).tolist()
        for point, value in zip(points, reached):
            if value >= _TAIL_DECADES:
                hi = min(hi, point)
            else:
                lo = max(lo, point)
    return hi


def _tail_widths(rise, rs):
    """Widths h > 0 at which 2*r*rise(h) reaches _TAIL_DECADES, for a rise of `laws._rise`.

    A vector call at every 32nd power of two of the double range, then one
    at the powers of two inside the first coarse bracket, find the first
    crossing between two adjacent powers.  Safeguarded secant steps in
    (ln h, ln exponent), where the exponent is nearly a power of h, close
    that bracket: each step takes one vector call at the two points
    h -+ max(0.45*_CUT_RTOL*h, ulp(h)) around its estimate h, the secant
    root through the bracket's ends at first and through the last two
    points after, so that they close the bracket once the estimate is
    within them, in two or three steps.  A step that leaves the bracket,
    and every step after _SECANT_STEPS, takes the bracket's geometric
    midpoint instead.  The steps end once the bracket is within _CUT_RTOL
    of h (or holds no double between its ends); its upper end is returned.
    The rise does not depend on r: the solves of every distance of rs
    share each call, the coarse one among them.  A width is inf for a law
    whose attenuation never grows; NumericalError is raised for a growing
    attenuation that reaches the threshold only beyond the double range.
    """
    for r in rs:
        _check_distance(r)
    if not rs:
        return []

    def exponents(requests, indices):
        with np.errstate(over="ignore", invalid="ignore"):  # the top powers overflow the rise
            values, stop, out = rise(np.concatenate(requests)), 0, []
            for i, widths in zip(indices, requests):
                out.append(2.0 * rs[i] * values[stop:stop + widths.size])
                stop += widths.size
        return out

    with np.errstate(over="ignore", invalid="ignore"):
        coarse = rise(_WIDTHS[_COARSE])
        runs = [_width_steps(r, 2.0 * r * coarse) for r in rs]
    return _run_together(runs, exponents)


def _tail_width(rise, r):
    """`_tail_widths` at one distance."""
    return _tail_widths(rise, [r])[0]


def _energy_passes(law, rs, lo, hi):
    """[(extent, Quadrature)] of `_gain_sq` from lo over [0, extent] at every r, QUADRATURE_RTOL.

    extent is hi - lo where the integrand is still above exp(-70) at hi,
    else the smaller of hi - lo and the `_tail_widths` from lo.  The rise
    from lo, which does not depend on r, is built once and serves that
    check, the width solves and the integrand of every distance, and one
    quadrature integrates the intervals of all of them.  Kept in the
    offset, the integrand carries no rounding of Re alpha*(lo) or of lo
    itself, so a tail narrower than one ulp of lo keeps its digits.
    Raises ValueError where an extent is infinite: the law does not decay.
    """
    for r in rs:
        _check_distance(r)
    rise = _rise(law, lo)
    extent = hi - lo  # no width is solved where hi comes first
    at_hi = float(rise(extent)) if extent < math.inf else math.inf
    cut = [not 2.0 * r * at_hi < _TAIL_DECADES for r in rs]
    widths = iter(_tail_widths(rise, [r for r, solve in zip(rs, cut) if solve]))
    extents = [min(extent, next(widths)) if solve else extent for solve in cut]
    if not all(map(math.isfinite, extents)):
        raise ValueError("norm diverges: the law has no spectral decay")
    with np.errstate(over="ignore"):
        quads = _integrate_intervals(_gain_sq(rise, rs), [0.0] * len(rs), extents,
                                     where=_at_r(rs))
    return list(zip(extents, quads))


def _energy_pass(law, r, lo, hi):
    """`_energy_passes` at one distance."""
    return _energy_passes(law, [r], lo, hi)[0]


def _log_tail_root(tails, gains, width, target):
    """Offset s in [0, 1] across a panel where ln tail = ln target, in the panel's cubic model.

    The cubic matches ln tail and its slopes -width*gain/tail at the two
    ends, from the tails and the integrand there; ln tail linear would be
    an exponential tail.  Three Newton steps on it from its chord; nan
    where a tail or a gain underflows.
    """
    with np.errstate(all="ignore"):
        t0, t1 = np.log(tails / target)
        d0, d1 = -width * gains / tails
        c2, c3 = 3.0 * (t1 - t0) - 2.0 * d0 - d1, 2.0 * (t0 - t1) + d0 + d1
        s = t0 / (t0 - t1)
        for _ in range(3):
            s -= (t0 + s * (d0 + s * (c2 + s * c3))) / (d0 + s * (2.0 * c2 + 3.0 * s * c3))
    return float(s)


def _log_energies(law, rs, lo):
    """ln of the integral of exp(-2*r*Re alpha*(w)) over [lo, inf) at every r, finite where
    it underflows: one tail pass from lo for all distances."""
    passes = _energy_passes(law, rs, lo, math.inf)
    start = float(_alpha_parts(law, lo)[0])
    return [math.log(tail.value) - 2.0 * r * start for r, (_, tail) in zip(rs, passes)]


def _log_energy(law, r, lo):
    """`_log_energies` at one distance."""
    return _log_energies(law, [r], lo)[0]


def _energies_at(profiles, m):
    """`EnergyProfile.at` of every profile of one law at m, one kernel call for all."""
    reads = []
    for profile in profiles:
        top = np.clip(np.asarray(m, dtype=float), 0.0, profile.top)
        edges = profile.energy.edges
        k = np.searchsorted(edges, top, side="right") - 1
        below = np.concatenate(([0.0], np.cumsum(profile.energy.panels)))[k]
        reads.append((top, below, (np.ravel(edges[k]), np.ravel(top))))
    rs = [profile.r for profile in profiles]
    with np.errstate(over="ignore"):
        sums = _kronrod_groups(_gain_sq(_rise(profiles[0].law, 0.0), rs),
                               [panel for *_, panel in reads], range(len(rs)), _at_r(rs))
    out = [below + part.reshape(top.shape) for (top, below, _), (part, _) in zip(reads, sums)]
    return [e if e.ndim else float(e) for e in out]


def _edge_steps(r, target, excess, lo, hi, m):
    """The Newton steps of `EnergyProfile.band_edge` from m as a generator: it yields each m,
    is sent the integral from the bracket's start to m and the integrand at m, and returns
    the edge."""
    for _ in range(_BAND_EDGE_STEPS):
        if not lo < m < hi:
            m = 0.5 * (lo + hi)
        integral, slope = yield m  # slope: -tail'(m)
        gap = excess - integral
        # a Newton step on ln tail(m) = ln target, exact for an exponential tail
        step = (math.log1p(gap / target) * (target + gap) / slope
                if gap > -target and slope > 0.0 else math.inf)
        if abs(gap) <= BAND_EDGE_RTOL * target:
            return float(m + step if lo < m + step < hi else m)
        if m in (lo, hi):
            return float(m)
        if gap > 0.0:
            lo = m
        else:
            hi = m
        m += step
    raise NumericalError(f"the band edge at r={r!r} did not converge in the bracket "
                         f"[{lo!r}, {hi!r}]")


def _band_edges(profiles, delta):
    """`EnergyProfile.band_edge` of every line profile of one law, each round one call for all."""
    for profile in profiles:
        _check_line_profile(profile, "the band edge")
    if not 0.0 < delta <= 1.0:
        raise ValueError(f"delta must lie in (0, 1], got {delta!r}")
    if delta == 1.0:
        return [0.0] * len(profiles)
    brackets = []
    for profile in profiles:
        band, r = profile.energy, profile.r
        target = delta * band.value
        if target == 0.0:
            raise NumericalError(f"the band edge at r={r!r} is lost: delta times the line "
                                 f"energy {band.value!r} underflows to 0")
        # tails[k]: energy beyond edges[k]; the root lies where it falls through target
        tails = np.append(np.cumsum(band.panels[::-1])[::-1], 0.0)
        k = int(np.count_nonzero(tails >= target)) - 1
        brackets.append((r, target, tails[k:k + 2], band.edges[k], band.edges[k + 1]))
    rs = [profile.r for profile in profiles]
    rise = _rise(profiles[0].law, 0.0)
    with np.errstate(over="ignore"):
        ends = _gain_sq(rise, rs)(np.array([(lo, hi) for *_, lo, hi in brackets]).ravel(),
                                  np.repeat(np.arange(len(rs)), 2)).reshape(-1, 2)
    runs = [_edge_steps(r, target, tails[0] - target, lo, hi,
                        lo + (hi - lo) * _log_tail_root(tails, gains, hi - lo, target))
            for (r, target, tails, lo, hi), gains in zip(brackets, ends)]

    def steps(ms, indices):
        # every step's integral from its anchor and, in the same first call, the integrand at m
        at, slopes = [rs[i] for i in indices], []
        gain_sq = _gain_sq(rise, at)

        def f(x, k):
            if slopes:
                return gain_sq(x, k)
            values = gain_sq(np.append(x, ms), np.append(np.broadcast_to(k, x.shape),
                                                        np.arange(len(ms))))
            slopes.extend(values[x.size:].tolist())
            return values[:x.size]

        quads = _integrate_intervals(f, [brackets[i][3] for i in indices], ms, where=_at_r(at))
        return [(quad.value, slope) for quad, slope in zip(quads, slopes)]

    with np.errstate(over="ignore"):
        return _run_together(runs, steps)


@dataclass(frozen=True)
class EnergyProfile:
    """E(m), the integral over [0, m] of exp(-2*r*Re alpha*(w)); `energy` is its pass to top.

    A line profile (hi = inf) ends at the tail cut, and its total is the
    full energy; a band profile ends at its band's end hi.
    """

    law: DispersionLaw
    r: float
    top: float
    energy: Quadrature
    hi: float  # the end of the band it was built for; inf for the line profile

    @property
    def total(self):
        """E(top)."""
        return self.energy.value

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
        return _energies_at([self], m)[0]

    def band_edge(self, delta):
        """Band edge M capturing the fraction (1 - delta) of the spectral energy.

        Needs the line profile: full is its total.  Solves tail(M) = delta
        * full, better conditioned for small delta than the band equation.
        The tail energy at every panel edge, the sum of the panels above it,
        locates the panel holding the root; a tail near delta * full is
        accurate to 1e-12/delta.
        One 2-point call of the integrand at the panel's ends starts Newton
        from `_log_tail_root`, about 1e-6 from the root.  Newton steps on
        ln tail(M) = ln(delta * full), exact for an exponential tail, take
        one kernel call each: a 15-node integral from the panel's left edge
        and, in the same call, tail'(M) = -exp(-2*r*Re alpha*(M)).  A step
        that leaves the bracket bisects it.  Once the residual meets
        BAND_EDGE_RTOL relative to delta * full, the Newton step from that
        point, second order in a residual already within it, is returned
        without another call where it stays in the bracket.  delta = 1
        gives 0; a delta * full that underflows to 0 raises NumericalError.
        """
        return _band_edges([self], delta)[0]


def _energy_profiles(law, rs, hi=math.inf):
    """`energy_profile` at every distance of rs: one energy pass from 0 for all of them."""
    if hi != math.inf:
        _check_band_edge(hi)
    return [EnergyProfile(law, float(r), float(top), energy, float(hi))
            for r, (top, energy) in zip(rs, _energy_passes(law, rs, 0.0, hi))]


def energy_profile(law, r, hi=math.inf):
    """EnergyProfile of `law` at r: the energy pass from 0 over [0, min(hi, tail cut)]."""
    return _energy_profiles(law, [r], hi)[0]


def _log10_truncation_errors(profiles, m):
    """`log10_relative_truncation_error` of each line profile of one law: one tail pass for all."""
    _check_band_edge(m)
    for profile in profiles:
        _check_line_profile(profile, "the truncation error")
    tails = _log_energies(profiles[0].law, [profile.r for profile in profiles], m)
    return [(tail - math.log(profile.total)) / (2.0 * math.log(10.0))
            for tail, profile in zip(tails, profiles)]


def log10_relative_truncation_error(profile, m):
    """log10 of the relative L2 error of the band truncation at m, from an EnergyProfile.

    The error is the norm over |w| > m divided by the full-line norm; by
    the Plancherel-Parseval equality it equals the time-domain relative
    error of the truncated signal.  Its log10 is at most 0 and stays
    finite where the error itself underflows.  It is half the difference
    of the log energies of the tail [m, inf) and of the full line, the
    line profile's total, in decades; the prefactor of |G_hat|^2 cancels.
    """
    return _log10_truncation_errors([profile], m)[0]


def _deviation_of(b, r):
    """(C, x) of `deviation_factor` from the law difference b = alpha_pl - alpha_c at r.

    x = -r*Re(b), so |exp(-b*r)| = exp(x); it is -inf where r*Re b
    overflows.  Where exp(x) underflows to 0, C is expm1(x)**2 = 1
    exactly: the sine term is dropped there, which would be 0*sin(inf) =
    nan once b*r overflows.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        x = -r * np.real(b)
        decay = np.exp(x)
        half_sin = np.sin(0.5 * r * np.imag(b))
        c = np.expm1(x) ** 2 + np.where(decay > 0.0, 4.0 * decay * half_sin * half_sin, 0.0)
    return c, x


def _deviation(causal, r, omega):
    """(C, x) of `deviation_factor` at the nodes omega, from one `_alpha_difference` call."""
    return _deviation_of(_alpha_difference(causal, omega), r)


def deviation_factor(causal, r, omega):
    """Squared relative deviation C = |G_hat_pl/G_hat_c - 1|**2 of a causal law's Green spectra.

    With b1 + i*b2 = alpha_pl(w) - alpha_c(w), pl the derived power law, C =
    |exp(-(b1 + i*b2)*r) - 1|**2 = |1 - 2*exp(-b1*r)*cos(b2*r) + exp(-2*b1*r)|,
    returned as expm1(-b1*r)**2 + 4*exp(-b1*r)*sin(b2*r/2)**2: two non-negative
    terms in real arithmetic that keep their digits where b*r is small.
    Vectorized over omega; non-finite where b1*r overflows negative or
    b2*r overflows while exp(-b1*r) does not underflow.
    """
    c = _deviation(causal, r, omega)[0]
    return c if np.ndim(c) else float(c)


def _relative_model_errors(profiles, m, band=None):
    """`relative_model_error` of each profile of one law at m: one quadrature for all.

    band, the profiles' E(m) where the caller has it, spares reading it again.
    """
    _check_band_edge(m)
    for profile in profiles:
        if profile.hi < m:
            raise ValueError(f"the model error at M={m!r} needs a profile that reaches M, "
                             f"got one of the band [0, {profile.hi!r}]")
    causal, rs = profiles[0].law, [profile.r for profile in profiles]
    r_of = np.array(rs)

    def diff_sq(w, k):  # |e^(-ac r) - e^(-ap r)|^2 = e^(-2 Re(ac) r) |expm1(-(ap - ac) r)|^2
        re, b = _attenuation_and_difference(causal, w)
        r = r_of[k]
        return np.exp(-2.0 * r * re) * _deviation_of(b, r)[0]

    with np.errstate(over="ignore"):
        nums = _integrate_intervals(diff_sq, [0.0] * len(rs),
                                    [min(m, profile.top) for profile in profiles], where=_at_r(rs))
    band = _energies_at(profiles, m) if band is None else band
    return [math.sqrt(num.value / energy) for num, energy in zip(nums, band)]


def relative_model_error(profile, m):
    """Relative L2 distance of the band-limited causal and power-law Green functions.

    ||G_hat_causal - G_hat_powerlaw|| / ||G_hat_causal||, both restricted
    to the band [-m, m], with the causal law and r of `profile`, an
    EnergyProfile that reaches m, and the power law derived from that law.
    The denominator is profile.at(m); the numerator is one integral at
    QUADRATURE_RTOL of |G_hat_causal|**2 times `deviation_factor` over
    [0, min(m, profile.top)], whose integrand forms the gain and the law
    difference from one reduced evaluation of the law.  The common phase
    factor and the prefactor 1/(4*pi*r) cancel, so only the
    attenuation-dispersion difference contributes.
    """
    return _relative_model_errors([profile], m)[0]
