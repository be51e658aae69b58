"""Error bounds for band truncation and for the power-law approximation.

Two truncation bounds and one model-error bound are evaluated and
compared against the exact quadrature errors from `lossywave.spectrum`:

* Published truncation bound.  When the causal attenuation is
  enveloped by

      alpha(M) + a0*|w - M| <= alpha_c(w) <= a1*w**2 + a2*|w|

  for |w| > M, the published closed form for the relative L2
  truncation error at band edge M reads

      error(r) <= (2*a1/(pi*a0**2))**(1/4)
                  * exp(-(alpha(M) + a2**2/(4*a1)) * r) / r**(1/4).

  The envelope's right side always holds, as alpha_c <= a2*|w| below
  shows.  Its left side fails beyond a finite w for every medium, since
  Re alpha_c grows like w**((3-gamma)/2).

  `log10_truncation_error_bound` evaluates the log10 of this form.  It
  is not a bound: its derivation lower-bounds the full energy under the
  upper envelope, integral over w >= 0 of exp(-2*r*(a1*w**2 + a2*w)), by
  completing the square as if the shifted Gaussian were integrated over
  the whole line.  The term a2**2/(4*a1) is nearly all of the decay
  rate, and the form undercuts the exact error at every r > ~1e-7 for
  castor oil.

* Corrected truncation bound.  |1 + (-i*tau0*w)**(gamma-1)| >= 1 gives
  alpha_c(w) <= a2*|w| for all w, so the full energy is at least the
  integral over w >= 0 of exp(-2*r*a2*w), 1/(2*r*a2), which exceeds the
  Gaussian integral above at every r.  Hence

      error(r) <= sqrt((a2/a0)*exp(-2*r*alpha(M)) + 2*r*a2*T_pow(r)),
                  clipped at 1,

  a function of gamma, Lambda = alpha1*r/(c0*tau0) and M*tau0 only.  The
  linear lower envelope does not hold for all w: the causal attenuation
  grows like w**((3-gamma)/2), so the line overtakes it far out (near
  w = 1e14 rad/us for castor oil at M = 100).  It is therefore used on
  [M, W] only, W = max(M, 1/tau0), and checked there by `verify_envelope`.
  Beyond W the analytic envelope alpha_c(w) >= kappa*w**p,
  p = (3 - gamma)/2, of `power_lower_envelope` holds; T_pow is its tail
  energy, an upper incomplete gamma function.
  `corrected_truncation_error_bound` returns the bound in log10 only,
  so it does not underflow at large r.  Both bounds read the law, a0,
  a1, a2, alpha(M), W, kappa and p from one `EnvelopeBoundConstants`.

* Band-limited model-error bound.  With the deviation factor

      C(r, w) = |1 - 2*exp(-b1*r)*cos(b2*r) + exp(-2*b1*r)|,
      b1 + i*b2 = alpha_powerlaw(w) - alpha_causal(w)
      (identically |exp(-(b1 + i*b2)*r) - 1|^2),

  and a band edge m_delta capturing the fraction (1 - delta) of the
  spectral energy, the band-limited relative model error obeys

      error <= sqrt((1 - delta)*d1 + delta*d2),

  where d1/d2 are suprema of C^2 inside/outside [-m_delta, m_delta].
  Because C itself is already a squared modulus, both the stated
  convention (max of C^2) and the milder one (max of C) are computed
  and reported.  C is `spectrum.deviation_factor`, which also weights
  the exact model error.  m_delta, the full/band norm ratio and the
  exact error's denominator come from one `EnergyProfile` per distance.

  Every supremum is a pair: the best C evaluated (a lower bound) and a
  certified upper bound, which every bound uses.  Both come from a
  branch and bound in the manner of Piyavskii and Shubert (Shubert
  1972, "A sequential method seeking the global maximum of a
  function"), run on [0, m_delta] and on [m_delta, W]:

  - Majorants.  `laws.alpha_difference_slope_bound` gives B(w)
    with |b'(v)| <= B(w) on all of [0, w], where b = b1 + i*b2; B rises
    with w and at small frequency is the leading term of |b'|.
    `laws.alpha_difference_curvature_bound` gives B2 with |b''| <= B2 on
    a cell [a, b], a > 0, also the leading term at small frequency.
  - Cell bound.  On a cell [a, b] of width h, with x = -r*b1 (so that
    |E| = exp(x) for E = exp(-(b1 + i*b2)*r)) and D = sqrt(C) = |E - 1|
    at both ends, x changes by at most r*B(b)*h across the cell, so
    |E| <= Emax = exp(min(x_a, x_b) + r*B(b)*h) on it, and
    |D'| <= |E'| = |E|*r*|b'| <= r*B(b)*Emax.  Both slopes meet above the
    cell no higher than the mean of the ends plus half the rise (first
    order):

        C <= U1 = min((1 + Emax)**2, ((D_a + D_b)/2 + r*B(b)*Emax*h/2)**2).

    With F = E - 1, C = |F|**2 has C'' = 2*|F'|**2 + 2*Re(conj(F)*F''),
    F' = -r*b'*E and F'' = (r**2*b'**2 - r*b'')*E, so (second order)

        |C''| <= K = 2*Emax*((r**2*B**2 + r*B2)*(1 + Emax) + r**2*B**2*Emax),

    and C lies below the chord of C_a and C_b plus (K/2)*(w - a)*(b - w).
    With q = K*h**2/2, the largest value of that parabola on the cell is

        U2 = max(C_a, C_b) + max(q - |C_b - C_a|, 0)**2/(4*q).

    U = min(U1, U2); U2 is skipped where it cannot be formed (a = 0, where
    B2 is inf, or a non-finite K).  Near a smooth maximum a cell is
    pruned once h is about sqrt(SUPREMUM_RTOL) of the peak's scale,
    where U1 needs about SUPREMUM_RTOL of it (Breiman and Cutler 1993,
    "A deterministic algorithm for global optimization").
  - Search.  SUPREMUM_RTOL = 1e-7.  One branch and bound certifies
    every supremum of a `bounds` command, inside and beyond m_delta at
    every distance: each cell carries the index of its search, and the
    kernels read r per node.  Each round splits every cell with
    U > best*(1 + SUPREMUM_RTOL), best that of the cell's own search,
    into 16, evaluating the new nodes of all searches in one vector
    call; the others are pruned and keep their U.  A search's cells stay
    contiguous and in the order it alone would give them, so each
    search's result is the same, bit for bit, as when it runs alone.
    Each certified upper bound is max(best, largest pruned U) of its own
    search, so it lies within SUPREMUM_RTOL of the best value evaluated.
    Cells a few ulps wide are pruned too, and where C underflows to 0 at
    every seed node of a search, its largest seed-cell U is the
    certificate.  Where x = -inf because r*b1 overflows, r > 1 puts the
    true x below -DBL_MAX, which serves as the end value; for r <= 1, b1
    itself overflowed and the search raises NumericalError, naming the
    failing search's r and interval, as it does for a non-finite C.
  - Closure to infinity.  Re alpha_powerlaw = a1*w**gamma exactly, and
    Re alpha_causal <= a2*w since |1 + (-i*tau0*w)**(gamma-1)| >= 1, so
    b1 >= phi(w) = a1*w**gamma - a2*w, and with E as above
    C <= (1 + |E|)**2 <= (1 + exp(-r*phi(W)))**2 for every w >= W where
    phi rises.  `_closure` solves for W, and the outer supremum is the larger
    of the search on [m_delta, W] and this closing term, at most
    (1 + SUPREMUM_RTOL/2)**2.  The report records W as omega_closed.

  The exact error is reported under both normalizations: by the
  full-line norm and by the band-limited norm; the report flags which
  bound convention dominates the band-normalized error.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .laws import (CausalLaw, _alpha_parts, _reduced, _scaled, alpha_difference_curvature_bound,
                   alpha_difference_slope_bound, derive_powerlaw_coeffs)
from .numerics import NumericalError
from .spectrum import (_band_edges, _check_band_edge, _check_distance, _check_line_profile,
                       _deviation, _energies_at, _relative_model_errors)

__all__ = [
    "EnvelopeBoundConstants",
    "EnvelopeCheck",
    "ModelErrorReport",
    "verify_envelope",
    "log10_truncation_error_bound",
    "TruncationBound",
    "power_lower_envelope",
    "corrected_truncation_error_bound",
    "model_error_report",
]

ENVELOPE_GRID_POINTS = 10_000  # log grid on which `verify_envelope` checks the envelope
SUPREMUM_RTOL = 1e-7  # a certified supremum exceeds the best value evaluated by at most this
_SEED_CELLS = 64  # first cells of each supremum search
_SPLIT = 16  # a cell the search keeps is split into this many
_MAX_CELLS = 2**20  # cells one search may create
_NARROW_ULPS = 32  # cells narrower than this many ulps are not split
_DOUBLE_MAX = sys.float_info.max
_LOG_DOUBLE_MAX = math.log(_DOUBLE_MAX)


@dataclass(frozen=True)
class EnvelopeBoundConstants:
    """Envelope constants of the truncation bounds of one causal law at band edge m.

    Every field past slope_factor is derived on construction and cannot
    be passed in: a1/a2 from `derive_powerlaw_coeffs`, the lower-envelope
    slope a0 = slope_factor * a1 * gamma * m**(gamma-1), the causal
    attenuation alpha_m at m, the published form's
    (2*a1/(pi*a0**2))**(1/4) (formed without a0**2) and decay rate
    alpha_m + a2**2/(4*a1), and the power envelope kappa*w**exponent of
    `power_lower_envelope` beyond split = max(m, 1/tau0).
    """

    causal: CausalLaw
    m: float
    slope_factor: float = 0.7
    a0: float = field(init=False)
    a1: float = field(init=False)
    a2: float = field(init=False)
    alpha_m: float = field(init=False)
    bound_coefficient: float = field(init=False)
    bound_decay_rate: float = field(init=False)
    split: float = field(init=False)
    kappa: float = field(init=False)
    exponent: float = field(init=False)

    def __post_init__(self):
        m, causal, slope_factor = self.m, self.causal, self.slope_factor
        _check_band_edge(m)
        if not (slope_factor > 0.0 and math.isfinite(slope_factor)):
            raise ValueError(f"slope_factor must be finite and positive, got {slope_factor!r}")
        m = float(m)
        a1, a2 = derive_powerlaw_coeffs(causal)
        a0 = slope_factor * a1 * causal.gamma * m ** (causal.gamma - 1.0)
        if a0 == math.inf:
            raise NumericalError(f"the envelope slope a0 at M={m!r} exceeds the largest double")
        if a0 == 0.0:  # the published form divides by sqrt(a0)
            raise NumericalError(f"the envelope slope a0 at M={m!r} underflows to 0")
        alpha_m = float(_alpha_parts(causal, m)[0])
        split = max(m, 1.0 / causal.tau0)
        kappa, exponent = power_lower_envelope(causal, split)
        if kappa == math.inf:
            raise NumericalError(f"the power envelope's kappa at w={split!r} exceeds the "
                                 "largest double")
        try:
            rate = a2**2 / (4.0 * a1)
        except OverflowError:  # a2**2 leaves the doubles, the ratio need not
            rate = a2 * (a2 / (4.0 * a1))
        derived = dict(m=m, a0=a0, a1=a1, a2=a2, alpha_m=alpha_m,
                       bound_coefficient=(2.0 * a1 / math.pi) ** 0.25 / math.sqrt(a0),
                       bound_decay_rate=alpha_m + rate, split=split, kappa=kappa,
                       exponent=exponent)
        for name, value in derived.items():
            object.__setattr__(self, name, value)


@dataclass(frozen=True)
class EnvelopeCheck:
    """Result of checking the attenuation envelope on a grid.

    Only the lower side, alpha(M) + a0*(w - M) <= Re alpha_c(w), is
    evaluated; its violation is the worst excess of the line over
    Re alpha_c, zero when it holds on the whole grid, and null (nan)
    where both sides overflow.  The upper side is a theorem, so
    holds_upper is True and worst_upper_violation 0.0 by construction:
    with u = (-i*tau0*w)**(gamma-1), Re u >= 0 gives |1 + u| >= 1, so

        Re alpha_c <= |alpha_c| = a2*w/sqrt(|1 + u|) <= a2*w <= a1*w**2 + a2*w.
    """

    holds_lower: bool
    holds_upper: bool = field(default=True, init=False)
    worst_lower_violation: float
    worst_upper_violation: float = field(default=0.0, init=False)
    omega_checked_max: float


def verify_envelope(constants, omega_max):
    """Check the lower envelope on a log grid of (m, omega_max], ENVELOPE_GRID_POINTS long.

    A failed inequality is data (reported via the flag and worst
    violation), not an exception: the truncation bound is meaningful
    exactly where this check passes.
    """
    m = constants.m
    if not omega_max > m:
        raise ValueError("omega_max must exceed the band edge m")
    w = np.geomspace(m * (1.0 + 1e-9), omega_max, ENVELOPE_GRID_POINTS)
    alpha = _alpha_parts(constants.causal, w)[0]
    # an infinite line fails by inf, or by nan where Re alpha_c overflows too
    with np.errstate(over="ignore", invalid="ignore"):
        worst = float(np.max(constants.alpha_m + constants.a0 * (w - m) - alpha))
    return EnvelopeCheck(holds_lower=worst <= 0.0, worst_lower_violation=max(worst, 0.0),
                         omega_checked_max=float(omega_max))


def log10_truncation_error_bound(constants, r):
    """log10 of the published form bound_coefficient * exp(-rate*r) / r**(1/4) at distance r.

    This evaluates the published closed form, which undercuts the exact
    truncation error (see the module docstring); the valid bound is
    `corrected_truncation_error_bound`.  Strictly decreasing in r, and
    finite where the form itself underflows.
    """
    _check_distance(r)
    return (math.log10(constants.bound_coefficient)
            - constants.bound_decay_rate * r / math.log(10.0) - 0.25 * math.log10(r))


def power_lower_envelope(causal, omega):
    """Constants (kappa, p) with Re alpha_c(w) >= kappa * w**p for all w >= omega > 0.

    p = (3 - gamma)/2.  Write z = 1 + t*exp(-i*theta), t = |u| of `_reduced`,
    theta = (gamma-1)*pi/2 and phi = -arg(z)/2.  Then
    Re alpha_c(w) = (alpha1/c0) * w * sin(phi) / sqrt(|z|), where phi grows
    with w and |z| <= 1 + t <= (1 + t_omega)*(w/omega)**(gamma-1).  Hence

        kappa = (alpha1/c0) * omega**((gamma-1)/2) * sin(phi_omega) / sqrt(1 + t_omega),

    with t_omega kept as the ratio s/sigma, which never leaves the doubles.
    kappa is inf where it exceeds the largest double.
    """
    if not omega > 0.0:
        raise ValueError("the power envelope needs omega > 0")
    _, (s,), (sigma,), phase, scale = _reduced(causal, omega)
    phi = 0.5 * math.atan2(-s * phase.imag, sigma + s * phase.real)
    kappa = omega ** (0.5 * (causal.gamma - 1.0)) * math.sin(phi) * math.sqrt(sigma / (sigma + s))
    with np.errstate(over="ignore"):  # inf where kappa exceeds the doubles
        return float(_scaled(np.asarray(kappa), scale)), 0.5 * (3.0 - causal.gamma)


def _log_upper_gamma_bound(s, log_x):
    """Natural log of an upper bound on Gamma(s, X), s > 1, X = exp(log_x).

    ln(u) <= ln(X) + u/X - 1 gives u**(s-1) <= X**(s-1) * exp((s-1)*(u/X - 1)),
    so Gamma(s, X) <= X**(s-1) * exp(-X) / (1 - (s-1)/X) for X > s - 1.
    Gamma(s, X) <= Gamma(s) always.  Gamma(s, X) decreases in X, so
    capping X at exp(700) keeps the bound valid and exp() finite.
    """
    log_x = min(log_x, 700.0)
    x = math.exp(log_x)
    whole = math.lgamma(s)
    if x <= 2.0 * (s - 1.0):
        return whole
    return min(whole, (s - 1.0) * log_x - x - math.log1p(-(s - 1.0) / x))


@dataclass(frozen=True)
class TruncationBound:
    """Corrected truncation bound at one distance, with its parts in log10.

    log10_tail_linear is log10 of the tail energy under the linear lower
    envelope, integrated from M to infinity; log10_tail_power that of
    the power envelope beyond `split`; log10_full_lower is log10 of the
    full energy under the upper envelope a2*w, 1/(2*r*a2).  All three
    are one-sided integrals of exp(-2*r*envelope) over w, and the bound
    is sqrt(tail/full).  The linear envelope must hold on [M, split],
    which `verify_envelope` checks.
    """

    r: float
    split: float
    log10_tail_linear: float
    log10_tail_power: float
    log10_full_lower: float
    log10_unclipped: float

    @property
    def log10_bound(self):
        """log10 of the bound after clipping at 1."""
        return min(self.log10_unclipped, 0.0)


def _log_twice(r, factor, name):
    """ln(2*r*factor): the log of the product where it is a normal double, else the sum of logs.

    The product's log keeps more digits; the sum keeps a value where the
    product underflows or overflows.  A factor of 0 raises NumericalError.
    """
    product = 2.0 * r * factor
    if sys.float_info.min <= product < math.inf:
        return math.log(product)
    if factor == 0.0:
        raise NumericalError(f"the corrected truncation bound at r={r!r} is lost: "
                             f"{name} underflows to 0")
    return math.log(2.0) + math.log(r) + math.log(factor)


def corrected_truncation_error_bound(constants, r):
    """Corrected truncation bound at distance r (see the module docstring).

    Computed in log space throughout: the tail energy under the linear
    envelope, exp(-2*r*alpha(M)) / (2*r*a0), plus that under the power
    envelope beyond W = split, (2*r*kappa)**(-1/p)/p
    * Gamma(1/p, 2*r*kappa*W**p), p = exponent, over 1/(2*r*a2).
    """
    _check_distance(r)
    c = constants
    ln10 = math.log(10.0)
    log_lin = -2.0 * r * c.alpha_m - _log_twice(r, c.a0, "a0")
    log_rate = _log_twice(r, c.kappa, "kappa")
    p = c.exponent
    log_pow = (-math.log(p) - log_rate / p
               + _log_upper_gamma_bound(1.0 / p, log_rate + p * math.log(c.split)))
    log_full = -(math.log(2.0) + math.log(r) + math.log(c.a2))
    log_tail = float(np.logaddexp(log_lin, log_pow))
    return TruncationBound(
        r=float(r), split=c.split,
        log10_tail_linear=log_lin / ln10, log10_tail_power=log_pow / ln10,
        log10_full_lower=log_full / ln10,
        log10_unclipped=0.5 * (log_tail - log_full) / ln10,
    )


def _cell_bounds(causal, r, a, b, xa, xb, da, db):
    """Upper bounds U of C on the cells [a, b], from x and D = sqrt(C) at their ends.

    r*B(b)*(b - a), B the slope majorant at the right end, bounds the
    change of x across a cell, so exp(x) stays below Emax =
    exp(min(xa, xb) + r*B*h) and |D'| below r*B*Emax.  With B2 the
    curvature majorant, |C''| <= K and C lies below the chord of its end
    values plus (K/2)*(w - a)*(b - w); see the module docstring.  U is the
    smaller of the two bounds, and a bound that cannot be formed (nan) is inf.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        slope = r * alpha_difference_slope_bound(causal, b)
        rise = slope * (b - a)
        e_max = np.exp(np.minimum(xa, xb) + rise)
        first = np.minimum((1.0 + e_max) ** 2, (0.5 * (da + db + rise * e_max)) ** 2)
        curve = slope * slope + r * alpha_difference_curvature_bound(causal, a, b)
        q = e_max * (curve * (1.0 + e_max) + slope * slope * e_max) * (b - a) ** 2  # K*h**2/2
        ca, cb = da * da, db * db
        second = np.maximum(ca, cb) + np.maximum(q - np.abs(cb - ca), 0.0) ** 2 / (4.0 * q)
    return np.fmin(np.where(np.isnan(first), np.inf, first), second)


def _first_max(values, sid):
    """(search, index) per search in the sorted sid: where its first largest value lies."""
    starts = np.flatnonzero(np.diff(sid, prepend=-1))
    top = np.repeat(np.maximum.reduceat(values, starts), np.diff(starts, append=len(values)))
    hits = np.flatnonzero(values == top)
    return sid[starts], hits[np.searchsorted(hits, starts)]


def _certified_maxima(causal, searches):
    """[(omega, lower, upper)] per search (r, lo, hi): the best C on [lo, hi], where, and a bound.

    Piyavskii-Shubert branch and bound (module docstring), one for every
    search of one causal law: _SEED_CELLS cells per search, geometric
    where lo > 0 and hi > 4*lo, each bounded by `_cell_bounds`; every
    round splits each cell whose bound exceeds its search's
    best*(1 + SUPREMUM_RTOL) into _SPLIT, the new nodes of all searches
    evaluated in one kernel call.  Each search's cells stay contiguous
    and in order, so its result is that of the search run alone.  Pruned
    cells keep their bound, so lower <= upper <= lower*(1 + SUPREMUM_RTOL).
    Raises NumericalError, naming the search, on a non-finite C or when
    its cells exceed _MAX_CELLS.
    """
    r_of = np.array([r for r, _, _ in searches])

    def evaluate(sid, w):
        rs = r_of[sid]
        c, x = _deviation(causal, rs, w)
        # x = -inf where r*Re(b) overflows.  For r > 1 the true x lies below
        # -DBL_MAX, which anchors the cell bounds; for r <= 1 Re(b) itself
        # overflowed and leaves no anchor.
        bad = ~np.isfinite(c) | ((rs <= 1.0) & np.isneginf(x))
        if bad.any():
            r, lo, hi = searches[sid[np.argmax(bad)]]
            raise NumericalError(f"the deviation factor at r={r!r} overflows on [{lo!r}, {hi!r}]")
        return c, np.maximum(x, -_DOUBLE_MAX)

    seeds = []
    for r, lo, hi in searches:
        if not hi > lo:
            seeds.append(np.array([float(lo)]))
            continue
        # geometric as lo times a grid of ratios, so that scaling lo and hi scales every node,
        # or from lo to hi where their ratio leaves the doubles
        nodes = (np.linspace(lo, hi, _SEED_CELLS + 1) if not (4.0 * lo < hi and lo > 0.0)
                 else lo * np.geomspace(1.0, hi / lo, _SEED_CELLS + 1) if hi / lo < math.inf
                 else np.geomspace(lo, hi, _SEED_CELLS + 1))
        nodes[0], nodes[-1] = lo, hi
        seeds.append(nodes)
    sid = np.repeat(np.arange(len(searches)), [len(nodes) for nodes in seeds])
    nodes = np.concatenate(seeds)
    c, x = evaluate(sid, nodes)
    _, i = _first_max(c, sid)
    omega, best, pruned = nodes[i], c[i], np.zeros(len(searches))
    d, cell = np.sqrt(c), sid[1:] == sid[:-1]  # a single node (lo = hi) has no cell
    sid, a, b, xa, xb, da, db = (v[cell] for v in (sid[:-1], nodes[:-1], nodes[1:], x[:-1],
                                                    x[1:], d[:-1], d[1:]))
    u = _cell_bounds(causal, r_of[sid], a, b, xa, xb, da, db)
    cells, rounds = np.full(len(searches), _SEED_CELLS), 0
    fractions = np.arange(1, _SPLIT) / _SPLIT
    while True:
        # where C underflows on every seed node, best stays 0 and the seed cells' bounds certify it
        limit = np.where(best > 0.0, best * (1.0 + SUPREMUM_RTOL), np.inf)
        split = (u > limit[sid]) & (b - a > _NARROW_ULPS * np.spacing(b))
        np.maximum.at(pruned, sid[~split], u[~split])
        kept = np.bincount(sid[split], minlength=len(searches))
        cells += _SPLIT * kept
        over = np.flatnonzero((kept > 0) & (cells > _MAX_CELLS))
        if over.size:
            r, lo, hi = searches[over[0]]
            raise NumericalError(
                f"the deviation-factor supremum on [{lo!r}, {hi!r}] at r={r!r} did not "
                f"converge within {_MAX_CELLS} cells: best {float(best[over[0]])!r} after "
                f"{rounds} rounds")
        if not kept.any():
            return [(float(w), float(lower), float(max(lower, upper)))
                    for w, lower, upper in zip(omega, best, pruned)]
        sid, a, b, xa, xb, da, db = (v[split] for v in (sid, a, b, xa, xb, da, db))
        w = a[:, None] + (b - a)[:, None] * fractions
        new = np.repeat(sid, _SPLIT - 1)
        c, x = evaluate(new, w.ravel())
        k, j = _first_max(c, new)
        better = c[j] > best[k]
        omega[k[better]], best[k[better]] = w.flat[j[better]], c[j[better]]
        w = np.column_stack((a, w, b))
        x = np.column_stack((xa, x.reshape(len(a), -1), xb))
        d = np.column_stack((da, np.sqrt(c).reshape(len(a), -1), db))
        a, b, xa, xb, da, db = (v.ravel() for v in (w[:, :-1], w[:, 1:], x[:, :-1], x[:, 1:],
                                                     d[:, :-1], d[:, 1:]))
        sid = np.repeat(sid, _SPLIT)
        u = _cell_bounds(causal, r_of[sid], a, b, xa, xb, da, db)
        rounds += 1


def _closure(causal, r, lo):
    """(W, closing): C <= closing <= (1 + SUPREMUM_RTOL/2)**2 for every w >= W.

    Re b >= phi(w) = a1*w**gamma - a2*w.  In y = ln(tau0*w), read from
    `_reduced` at ref = lo (1 where lo = 0 or tau0*lo underflows), c = |cos(gamma*pi/2)|/2,

        ln(r*phi) = ln(Lambda) + ln(c) + gamma*y + ln(-expm1(-ln(c) - (gamma-1)*y)),

    which overflows nowhere and rises beyond y* = -ln(gamma*c)/(gamma-1).
    W is the least w >= max(lo, w*) with r*phi(W) >= ln(2/SUPREMUM_RTOL),
    by bisection in y, so tau0*W depends on gamma, ln(Lambda) and tau0*lo
    only; closing is (1 + exp(-r*phi(W)))**2.  Raises NumericalError where
    W lies beyond the double range.
    """
    gamma, p, ref = causal.gamma, causal.gamma - 1.0, (lo if lo > 0.0 else 1.0)
    _, (s,), (sigma,), _, (m_scale, e_scale) = _reduced(causal, ref)
    if s == 0.0:  # then tau0 <= 1, so lo and 1 lie below 1/tau0 <= w* and bind nothing
        ref = 1.0
        _, (s,), (sigma,), _, (m_scale, e_scale) = _reduced(causal, ref)
    y_ref = (math.log(s) - math.log(sigma)) / p  # ln(tau0*ref)
    (m_r, e_r), (m_ref, e_ref) = math.frexp(r), math.frexp(ref)
    log_c = math.log(0.5 * abs(math.cos(0.5 * gamma * math.pi)))
    # ln(Lambda*c), Lambda = (alpha1/c0)*r*ref/e**y_ref from binary exponents: it need be no double
    log_lambda_c = (math.log(m_scale * m_r * m_ref) + (e_scale + e_r + e_ref) * math.log(2.0)
                    - y_ref + log_c)
    log_target = math.log(math.log(2.0 / SUPREMUM_RTOL))

    def log_r_phi(y):  # ln(r*phi(w)) at y = ln(tau0*w), -inf where phi <= 0
        z = -log_c - p * y
        return -math.inf if z >= 0.0 else log_lambda_c + gamma * y + math.log(-math.expm1(z))

    y_lo = -(log_c + math.log(gamma)) / p  # y*
    if lo > 0.0:
        y_lo = max(y_lo, y_ref)
    # there phi/(Lambda*c*w'**gamma) >= 1/2 and Lambda*c*w'**gamma >= 2*ln(2/rtol)
    y_hi = max(y_lo, (math.log(2.0) - log_c) / p,
               (log_target + math.log(2.0) - log_lambda_c) / gamma)
    if log_r_phi(y_lo) >= log_target:
        y_hi = y_lo
    while y_hi - y_lo > 1e-15 * max(1.0, abs(y_hi)):
        mid = 0.5 * (y_lo + y_hi)
        if log_r_phi(mid) >= log_target:
            y_hi = mid
        else:
            y_lo = mid
    log_w = y_hi - y_ref + math.log(ref)
    if log_w > _LOG_DOUBLE_MAX:
        raise NumericalError(f"the deviation factor at r={r!r} does not settle below the "
                             f"largest double: the closure needs w = e**{log_w!r}")
    # exp(y_hi - y_ref) alone may leave the doubles where ref < 1; r*phi(W) > e**700 closes at 1
    w_closed = ref * math.exp(y_hi - y_ref) if y_hi - y_ref < 700.0 else math.exp(log_w)
    return w_closed, (1.0 + math.exp(-math.exp(min(log_r_phi(y_hi), 700.0)))) ** 2


@dataclass(frozen=True)
class ModelErrorReport:
    """Model-error bound and exact error at one (r, m, delta).

    d1/d2 and bound follow the stated convention (suprema of C^2);
    the *_max_c fields use the milder max-of-C convention.  d1_max_c
    and d2_max_c are certified upper bounds of the suprema of C on
    [0, m_delta] and on [m_delta, inf); every bound uses them.
    d1_max_c_lower and d2_max_c_lower are the best values evaluated,
    at omega_at_d1 and omega_at_d2, and lie within SUPREMUM_RTOL of
    the upper ones (the outer one within the closing term beyond
    omega_closed, where C <= (1 + SUPREMUM_RTOL/2)**2).  bound_*
    compares against exact_error (full-line normalization), the
    *_band_norm variants against exact_error_band_norm (band-limited
    normalization, bound scaled by full/band norm ratio).  The
    dominates_* flags state whether each convention's band-normalized
    bound covers the band-normalized exact error.
    """

    r: float
    m: float
    delta: float
    m_delta: float
    d1: float
    d2: float
    bound: float
    bound_band_norm: float
    d1_max_c: float
    d2_max_c: float
    d1_max_c_lower: float
    d2_max_c_lower: float
    bound_max_c: float
    bound_max_c_band_norm: float
    omega_at_d1: float
    omega_at_d2: float
    omega_closed: float
    exact_error: float
    exact_error_band_norm: float
    dominates_sq: bool
    dominates_max_c: bool


def model_error_report(profile, m, delta):
    """Evaluate the band-limited model-error bound and the exact error.

    m_delta and the full/band norm ratio come from `profile`, the
    line `EnergyProfile` of the causal law, which the power law
    derived from it approximates.  The suprema of the deviation factor
    are certified by `_certified_maxima` on [0, m_delta] and on
    [m_delta, W], and `_closure` bounds C beyond W.  Both C-conventions
    and both normalizations are reported; nothing is silently chosen.
    """
    return _model_error_reports([profile], m, delta)[0]


def _model_error_reports(profiles, m, delta):
    """`model_error_report` of each line profile of one causal law, every stage once for all.

    The band edges, the suprema of one search, the band energies and the
    exact errors' numerators are each formed for every distance at once.
    """
    _check_band_edge(m)
    for profile in profiles:
        _check_line_profile(profile, "the model-error report")
    causal = profiles[0].law
    edges = _band_edges(profiles, delta)
    closures = [_closure(causal, profile.r, m_delta) for profile, m_delta in zip(profiles, edges)]
    maxima = iter(_certified_maxima(causal, [
        search for profile, m_delta, (w_closed, _) in zip(profiles, edges, closures)
        for search in ((profile.r, 0.0, m_delta), (profile.r, m_delta, w_closed))]))
    band = _energies_at(profiles, m)
    errors = _relative_model_errors(profiles, m, band)
    reports = []
    for profile, m_delta, (w_closed, closing), energy, err_band_norm in zip(
            profiles, edges, closures, band, errors):
        (w_inner, lo_inner, c_inner), (w_outer, lo_outer, c_outer) = next(maxima), next(maxima)
        c_outer = max(c_outer, closing)

        d1, d2 = c_inner**2, c_outer**2
        bound = math.sqrt((1.0 - delta) * d1 + delta * d2)
        bound_lin = math.sqrt((1.0 - delta) * c_inner + delta * c_outer)

        ratio = math.sqrt(profile.total / energy)  # full-line norm / band norm
        err_full_norm = err_band_norm / ratio

        reports.append(ModelErrorReport(
            r=float(profile.r), m=float(m), delta=float(delta), m_delta=float(m_delta),
            d1=d1, d2=d2, bound=bound, bound_band_norm=bound * ratio,
            d1_max_c=c_inner, d2_max_c=c_outer, d1_max_c_lower=lo_inner, d2_max_c_lower=lo_outer,
            bound_max_c=bound_lin, bound_max_c_band_norm=bound_lin * ratio,
            omega_at_d1=float(w_inner), omega_at_d2=float(w_outer), omega_closed=float(w_closed),
            exact_error=err_full_norm, exact_error_band_norm=err_band_norm,
            dominates_sq=bound * ratio >= err_band_norm,
            dominates_max_c=bound_lin * ratio >= err_band_norm,
        ))
    return reports
