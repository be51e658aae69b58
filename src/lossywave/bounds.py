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

  `truncation_error_bound` evaluates this form, with the coefficient
  from the constants or a published figure.  It is not a bound: its
  derivation lower-bounds the full energy under the upper envelope,
  integral over w >= 0 of exp(-2*r*(a1*w**2 + a2*w)), by completing the
  square as if the shifted Gaussian were integrated over the whole
  line.  The term a2**2/(4*a1) is nearly all of the decay rate, and
  the form undercuts the exact error at every r > ~1e-7 for castor oil.

* Corrected truncation bound.  With x = a2*sqrt(r/(2*a1)) the exact
  value of that integral is sqrt(pi/(8*r*a1)) * erfcx(x), which gives

      error(r) <= (2*a1/(pi*a0**2))**(1/4) * exp(-alpha(M)*r) / r**(1/4)
                  / sqrt(erfcx(x)) * sqrt(1 + s(r)),   clipped at 1.

  The upper envelope holds for all w: |1 + (-i*tau0*w)**(gamma-1)| >= 1
  gives alpha_c(w) <= a2*|w|.  The linear lower envelope does not: the
  causal attenuation grows like w**((3-gamma)/2), so the line overtakes
  it far out (near w = 1e14 rad/us for castor oil at M = 100).  The
  linear envelope is therefore used on [M, W] only, W = max(M, 1/tau0)
  from `envelope_split`, and checked there by `verify_envelope`.
  Beyond W the analytic envelope alpha_c(w) >= kappa*w**p,
  p = (3 - gamma)/2, of `power_lower_envelope` holds; s(r) is the
  ratio of its tail energy, an upper incomplete gamma function, to
  that of the linear envelope.
  `corrected_truncation_error_bound` returns the bound in log10 as
  well, so it does not underflow at large r.

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
  the exact model error.  Each supremum is a `scan_max` of C; on a flat
  maximum its argmax holds about 8 digits.  The outer scan ends at the
  tail cut and the analytic limit 1.0 (C -> 1 as the power-law
  attenuation outgrows the causal one) is appended.  m_delta, the tail
  cut, the full/band norm ratio and the exact error's denominator come
  from one `EnergyProfile` per distance.

  The exact error is reported under both normalizations: by the
  full-line norm and by the band-limited norm; the report flags which
  bound convention dominates the band-normalized error.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .laws import alpha_difference, eval_alpha
from .numerics import NumericalError, erfcx, scan_max
from .spectrum import _check_band_edge, _check_distance, deviation_factor, relative_model_error

__all__ = [
    "EnvelopeBoundConstants",
    "EnvelopeCheck",
    "ModelErrorReport",
    "envelope_bound_constants",
    "verify_envelope",
    "bound_coefficient",
    "bound_decay_rate",
    "truncation_error_bound",
    "log10_truncation_error_bound",
    "TruncationBound",
    "envelope_split",
    "power_lower_envelope",
    "corrected_truncation_error_bound",
    "model_error_report",
]

ENVELOPE_GRID_POINTS = 10_000  # log grid on which `verify_envelope` checks the envelope
DEVIATION_SCAN_POINTS = 100_001  # seed grid of each deviation-factor supremum scan


@dataclass(frozen=True)
class EnvelopeBoundConstants:
    """Envelope constants for the truncation bound at band edge m.

    a0 is the lower-envelope slope, a1/a2 the upper-envelope quadratic
    and linear coefficients, alpha_m the causal attenuation at m.
    """

    m: float
    a0: float
    a1: float
    a2: float
    alpha_m: float


def envelope_bound_constants(preset, m, slope_factor=0.7):
    """Derive envelope constants from a medium preset.

    a0 = slope_factor * d(alpha_powerlaw)/dw at m = slope_factor * a1 * gamma * m**(gamma-1);
    a1 and a2 are the power-law coefficients themselves; alpha_m is
    the exact causal attenuation at m.
    """
    _check_band_edge(m)
    if not (slope_factor > 0.0 and math.isfinite(slope_factor)):
        raise ValueError(f"slope_factor must be finite and positive, got {slope_factor!r}")
    pl = preset.powerlaw
    a0 = slope_factor * pl.a1 * pl.gamma * m ** (pl.gamma - 1.0)
    alpha_m = float(np.real(eval_alpha(preset.causal, m)))
    return EnvelopeBoundConstants(m=float(m), a0=a0, a1=pl.a1, a2=pl.a2, alpha_m=alpha_m)


@dataclass(frozen=True)
class EnvelopeCheck:
    """Result of checking the two-sided attenuation envelope on a grid.

    Violations are worst-case positive excesses (required - actual for
    the lower bound, actual - allowed for the upper); zero when the
    inequality holds everywhere on the checked grid.
    """

    holds_lower: bool
    holds_upper: bool
    worst_lower_violation: float
    worst_upper_violation: float
    omega_checked_max: float


def verify_envelope(causal, constants, omega_max):
    """Check the envelope hypothesis on a log grid of (m, omega_max], ENVELOPE_GRID_POINTS long.

    A failed inequality is data (reported via the flags and worst
    violations), not an exception: the truncation bound is meaningful
    exactly where this check passes.
    """
    m = constants.m
    if not omega_max > m:
        raise ValueError("omega_max must exceed the band edge m")
    w = np.geomspace(m * (1.0 + 1e-9), omega_max, ENVELOPE_GRID_POINTS)
    alpha = np.real(eval_alpha(causal, w))
    lower = constants.alpha_m + constants.a0 * (w - m)
    with np.errstate(over="ignore"):  # an infinite upper envelope holds trivially
        upper = constants.a1 * w**2 + constants.a2 * w
    worst_lower = float(np.max(lower - alpha))
    worst_upper = float(np.max(alpha - upper))
    return EnvelopeCheck(
        holds_lower=worst_lower <= 0.0,
        holds_upper=worst_upper <= 0.0,
        worst_lower_violation=max(worst_lower, 0.0),
        worst_upper_violation=max(worst_upper, 0.0),
        omega_checked_max=float(omega_max),
    )


def bound_coefficient(constants):
    """Coefficient (2*a1/(pi*a0**2))**(1/4) of the bound, formed without a0**2 (over/underflow)."""
    return (2.0 * constants.a1 / math.pi) ** 0.25 / math.sqrt(constants.a0)


def bound_decay_rate(constants):
    """Exponential decay rate alpha_m + a2**2/(4*a1) of the truncation bound."""
    return constants.alpha_m + constants.a2**2 / (4.0 * constants.a1)


def truncation_error_bound(constants, r, coefficient=None):
    """Published truncation form coefficient * exp(-rate*r) / r**(1/4) at distance r.

    This evaluates the published closed form, which undercuts the exact
    truncation error (see the module docstring); the valid bound is
    `corrected_truncation_error_bound`.  `coefficient` defaults to the
    closed form from the constants; pass an external reference value
    to evaluate a published figure instead.  Strictly decreasing in r.
    """
    return 10.0 ** log10_truncation_error_bound(constants, r, coefficient)


def log10_truncation_error_bound(constants, r, coefficient=None):
    """log10 of `truncation_error_bound`, finite where the linear value underflows."""
    _check_distance(r)
    coef = bound_coefficient(constants) if coefficient is None else coefficient
    return (math.log10(coef) - bound_decay_rate(constants) * r / math.log(10.0)
            - 0.25 * math.log10(r))


def envelope_split(causal, m):
    """Frequency W = max(m, 1/tau0) where the linear lower envelope hands over.

    The corrected bound needs the linear envelope on [m, W] only; beyond
    W it uses `power_lower_envelope`.
    """
    return max(float(m), 1.0 / causal.tau0)


def power_lower_envelope(causal, omega):
    """Constants (kappa, p) with Re alpha_c(w) >= kappa * w**p for all w >= omega > 0.

    p = (3 - gamma)/2.  Write z = 1 + t*exp(-i*theta), t = (tau0*w)**(gamma-1),
    theta = (gamma-1)*pi/2 and phi = -arg(z)/2.  Then
    Re alpha_c(w) = (alpha1/c0) * w * sin(phi) / sqrt(|z|), where phi grows
    with w and |z| <= 1 + t <= t*(1 + 1/t_omega).  Hence

        kappa = (alpha1/c0) * tau0**((1-gamma)/2) * sin(phi_omega)
                / sqrt(1 + 1/t_omega).
    """
    if not omega > 0.0:
        raise ValueError("the power envelope needs omega > 0")
    g = causal.gamma
    theta = 0.5 * (g - 1.0) * math.pi
    t = (causal.tau0 * omega) ** (g - 1.0)
    phi = 0.5 * math.atan2(t * math.sin(theta), 1.0 + t * math.cos(theta))
    kappa = (causal.alpha1 / causal.c0 * causal.tau0 ** (0.5 * (1.0 - g))
             * math.sin(phi) / math.sqrt(1.0 + 1.0 / t))
    return kappa, 0.5 * (3.0 - g)


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
    full energy under the upper envelope.  All three are one-sided
    integrals of exp(-2*r*envelope) over w.  The linear envelope must
    hold on [M, split], which `verify_envelope` checks.
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

    @property
    def bound(self):
        """The clipped bound; underflows to 0.0 where log10_bound < -308."""
        return 10.0**self.log10_bound

    def to_dict(self):
        return {**asdict(self), "log10_bound": self.log10_bound, "bound": self.bound}


def corrected_truncation_error_bound(causal, constants, r):
    """Corrected truncation bound at distance r (see the module docstring).

    Computed in log space throughout: the tail energy under the linear
    envelope, exp(-2*r*alpha(M)) / (2*r*a0), plus that under the power
    envelope beyond W = max(M, 1/tau0), (2*r*kappa)**(-1/p)/p
    * Gamma(1/p, 2*r*kappa*W**p), over sqrt(pi/(8*r*a1)) * erfcx(x).
    """
    _check_distance(r)
    c = constants
    split = envelope_split(causal, c.m)
    ln10 = math.log(10.0)
    log_lin = -2.0 * r * c.alpha_m - math.log(2.0 * r * c.a0)
    kappa, p = power_lower_envelope(causal, split)
    log_rate = math.log(2.0 * r * kappa)
    log_pow = (-math.log(p) - log_rate / p
               + _log_upper_gamma_bound(1.0 / p, log_rate + p * math.log(split)))
    x = c.a2 * math.sqrt(r / (2.0 * c.a1))
    log_full = 0.5 * math.log(math.pi / (8.0 * r * c.a1)) + math.log(erfcx(x))
    log_tail = float(np.logaddexp(log_lin, log_pow))
    return TruncationBound(
        r=float(r), split=float(split),
        log10_tail_linear=log_lin / ln10, log10_tail_power=log_pow / ln10,
        log10_full_lower=log_full / ln10,
        log10_unclipped=0.5 * (log_tail - log_full) / ln10,
    )


@dataclass(frozen=True)
class ModelErrorReport:
    """Model-error bound and exact error at one (r, m, delta).

    d1/d2 and bound follow the stated convention (suprema of C^2);
    the *_max_c fields use the milder max-of-C convention.  bound_*
    compares against exact_error (full-line normalization), the
    *_band_norm variants against exact_error_band_norm (band-limited
    normalization, bound scaled by full/band norm ratio).  The
    dominates_* flags state whether each convention's band-normalized
    bound covers the band-normalized exact error.  omega_at_d1 and
    omega_at_d2 locate the suprema; omega_at_d2 is inf (None in JSON)
    when the analytic large-frequency limit is the supremum.
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
    bound_max_c: float
    bound_max_c_band_norm: float
    omega_at_d1: float
    omega_at_d2: float
    exact_error: float
    exact_error_band_norm: float
    dominates_sq: bool
    dominates_max_c: bool


def model_error_report(profile, powerlaw, m, delta):
    """Evaluate the band-limited model-error bound and the exact error.

    m_delta and the full/band norm ratio come from `profile`, the
    line `EnergyProfile` of the causal law; the inner supremum of the
    deviation factor is scanned on [0, m_delta], the outer one on
    [m_delta, max(m, tail cut)] with the analytic limit 1.0 appended.
    Both C-conventions and both normalizations are reported; nothing
    is silently chosen.
    """
    _check_band_edge(m)
    if profile.hi != math.inf:
        raise ValueError(f"the model-error report needs the line energy profile, "
                         f"got one of the band [0, {profile.hi!r}]")
    causal, r = profile.law, profile.r
    m_delta = profile.band_edge(delta)

    def c_of(w):
        return deviation_factor(causal, powerlaw, r, w)

    if m_delta > 0.0:
        w_inner, c_inner = scan_max(c_of, 0.0, m_delta, n_grid=DEVIATION_SCAN_POINTS)
    else:
        w_inner, c_inner = 0.0, 0.0
    outer_hi = max(m, profile.top)
    w_outer, c_outer_scan = scan_max(c_of, m_delta, outer_hi, n_grid=DEVIATION_SCAN_POINTS)
    if not (math.isfinite(c_inner) and math.isfinite(c_outer_scan)):
        raise NumericalError(f"the deviation factor at r={r!r} overflows on [0, {outer_hi!r}]")
    # C -> 1 beyond the sampled range whenever the power-law attenuation
    # outgrows the causal one there; for coinciding laws the deviation
    # vanishes identically and no limit is appended.
    diverges = float(np.real(alpha_difference(causal, powerlaw, outer_hi))) > 0.0
    if diverges and 1.0 > c_outer_scan:
        w_outer, c_outer = math.inf, 1.0
    else:
        c_outer = c_outer_scan

    d1, d2 = c_inner**2, c_outer**2
    bound = math.sqrt((1.0 - delta) * d1 + delta * d2)
    bound_lin = math.sqrt((1.0 - delta) * c_inner + delta * c_outer)

    ratio = math.sqrt(profile.total / profile.at(m))  # full-line norm / band norm
    err_band_norm = relative_model_error(profile, powerlaw, m)
    err_full_norm = err_band_norm / ratio

    return ModelErrorReport(
        r=float(r), m=float(m), delta=float(delta), m_delta=float(m_delta),
        d1=d1, d2=d2, bound=bound, bound_band_norm=bound * ratio,
        d1_max_c=c_inner, d2_max_c=c_outer, bound_max_c=bound_lin,
        bound_max_c_band_norm=bound_lin * ratio,
        omega_at_d1=float(w_inner), omega_at_d2=float(w_outer),
        exact_error=err_full_norm, exact_error_band_norm=err_band_norm,
        dominates_sq=bound * ratio >= err_band_norm,
        dominates_max_c=bound_lin * ratio >= err_band_norm,
    )
