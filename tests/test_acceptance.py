"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v` (add -s to see the lines for
passing criteria too).  Reference values are frozen from the tabulations
this package reproduces; tolerances are stated per criterion.
"""

import math
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from lossywave import (
    EnvelopeBoundConstants,
    FrequencyGrid,
    alpha1_from_a1,
    builtin_preset,
    causality_energy_fraction,
    corrected_truncation_error_bound,
    derive_powerlaw_coeffs,
    energy_profile,
    helmholtz_radial_residual,
    log10_relative_truncation_error,
    log10_truncation_error_bound,
    model_error_report,
    powerlaw_phase_singularity,
    relative_model_error,
    sample_green_spectrum,
    synthesize_time_signal,
    verify_envelope,
)

from conftest import trapezoid_norm

CASTOR = builtin_preset("castor-oil")

# published reference values this suite checks against
TABLE1_REFERENCE = {1.1: 1e-4, 1.5: 1e4, 2.0: 1e5}
TABLE2_REFERENCE = {1e-6: 7.62e-8, 1e-3: 7.35e-5, 1e-1: 4.46e-4, 10.0: 7.13e-5}
REFERENCE_ALPHA1 = 138.08
REFERENCE_A2 = 920.55
REFERENCE_SINGULARITY = 7.950959e6
REFERENCE_DECAY_RATE = 4.877e6
REFERENCE_BOUND_COEFFICIENT = 0.0828


def report(num, description, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    print(f"[{status}] criterion {num:02d}: {description} {detail}".rstrip())
    assert passed, f"criterion {num:02d} failed: {description} {detail}"


def test_criterion_01_small_frequency_table(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "lossywave", "table1", "--gammas", "1.1,1.5,2.0",
         "--tau0", "1e-6", "--out", str(tmp_path)],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    data = np.loadtxt(tmp_path / "table1.csv", delimiter=",", skiprows=2, ndmin=2)
    worst = max(abs(bound / TABLE1_REFERENCE[round(g, 3)] - 1.0) for g, bound in data)
    report(1, "small-frequency bound table to 1e-12 relative", worst <= 1e-12,
           f"(worst relative error {worst:.2e})")


def test_criterion_02_coefficient_round_trip():
    a1, a2 = derive_powerlaw_coeffs(CASTOR.causal)
    causal = CASTOR.causal
    alpha1 = alpha1_from_a1(0.04344, causal.gamma, causal.c0, causal.tau0)
    ok_alpha1 = abs(alpha1 / REFERENCE_ALPHA1 - 1.0) <= 5e-3
    ok_a2 = abs(a2 / REFERENCE_A2 - 1.0) <= 5e-3
    report(2, "coefficient bridge round trip within 0.5%", ok_alpha1 and ok_a2,
           f"(alpha1 {alpha1:.5g}, a2 {a2:.5g})")


def test_criterion_03_phase_speed_singularity():
    pole = powerlaw_phase_singularity(CASTOR)
    ok = 0.98 * REFERENCE_SINGULARITY <= pole <= 1.02 * REFERENCE_SINGULARITY
    report(3, "power-law phase-speed singularity within 2%", ok, f"(pole {pole:.6e})")


def test_criterion_04_truncation_bound_decay_rate():
    constants = EnvelopeBoundConstants(CASTOR.causal, 100.0)
    rate = constants.bound_decay_rate
    ok = abs(rate / REFERENCE_DECAY_RATE - 1.0) <= 2e-3
    report(4, "truncation-bound decay rate 4.877e6 within 0.2%", ok, f"(rate {rate:.6e})")


def _log10_truncation_error_lower_bound(causal, r, m):
    """Lower bound on the relative truncation error, in log10, without quadrature.

    |1 + (-i*tau0*w)**(gamma-1)| >= 1 gives Re alpha_c(w) <= a2*|w| with
    a2 = alpha1/c0.  With the common factor (4*pi*r)**-2 dropped, the tail
    energy over w > m is at least t = exp(-2*r*a2*m)/(2*r*a2) and the band
    energy at most m, so error**2 = tail/(band + tail) >= t/(m + t).
    """
    a2 = causal.alpha1 / causal.c0
    log_t = -2.0 * r * a2 * m - math.log(2.0 * r * a2)
    log_sq = log_t - np.logaddexp(math.log(m), log_t)
    return 0.5 * log_sq / math.log(10.0)


def test_criterion_05_truncation_bound_dominates():
    # All comparisons are in log10, so an underflow cannot pass as 0 >= 0.
    # The corrected bound (full energy at least 1/(2*r*a2), power envelope
    # beyond the split) must dominate the exact error.  The published
    # 0.0828 / 4.877e6 figure is still evaluated: it must fall below an
    # independent lower bound on the exact error, which shows it is not a
    # bound.  Its coefficient differs from the one derived from the
    # constants by a factor ~4.8; where 0.0828 comes from is unknown.
    causal = CASTOR.causal
    m = 100.0
    constants = EnvelopeBoundConstants(CASTOR.causal, m)
    formula_coefficient = constants.bound_coefficient
    rows = []
    ok = True
    for r in (1e-6, 1e-4, 1e-2, 1.0, 10.0):
        corrected = corrected_truncation_error_bound(constants, r)
        envelope = verify_envelope(constants, corrected.split)
        exact = log10_relative_truncation_error(energy_profile(causal, r), m)
        published = (log10_truncation_error_bound(constants, r)
                     + math.log10(REFERENCE_BOUND_COEFFICIENT / formula_coefficient))
        lower = _log10_truncation_error_lower_bound(causal, r, m)
        values = (corrected.log10_bound, exact, published, lower)
        ok = (ok and envelope.holds_lower and envelope.holds_upper
              and all(math.isfinite(v) for v in values)
              and corrected.log10_bound >= exact >= lower > published
              and (r < 1.0 or corrected.log10_bound < 0.0))
        rows.append(f"r={r:g}: log10 corrected {corrected.log10_bound:.4g} "
                    f"(unclipped {corrected.log10_unclipped:.4g}) vs exact {exact:.4g}; "
                    f"published {published:.4g} vs lower bound {lower:.4g}")
    report(5, "corrected truncation bound dominates exact error; "
              "published figure undercuts a lower bound", ok,
           f"(derived coefficient {formula_coefficient:.4g}, published "
           f"{REFERENCE_BOUND_COEFFICIENT:g}, ratio "
           f"{formula_coefficient / REFERENCE_BOUND_COEFFICIENT:.3g}; " + "; ".join(rows) + ")")


def test_criterion_06_model_error_table():
    values = {r: relative_model_error(energy_profile(CASTOR.causal, r, 100.0), 100.0)
              for r in TABLE2_REFERENCE}
    within_factor_two = all(ref / 2.0 <= values[r] <= ref * 2.0
                            for r, ref in TABLE2_REFERENCE.items())
    ordered = values[1e-6] < values[10.0] < values[1e-3] < values[1e-1]
    detail = ", ".join(f"eps({r:g})={values[r]:.3e}" for r in sorted(values))
    report(6, "band-limited model-error table within factor 2 and ordered",
           within_factor_two and ordered, f"({detail})")


def test_criterion_07_model_error_bound_report():
    rep = model_error_report(energy_profile(CASTOR.causal, 1.0), 100.0, 6e-4)
    ok = (5.0 <= rep.m_delta <= 20.0
          and 0.5 <= rep.d2 <= 2.1
          and 0.0125 <= rep.bound <= 0.05
          and (rep.dominates_sq or rep.dominates_max_c))
    report(7, "model-error bound report at r=1 within reference bands", ok,
           f"(m_delta {rep.m_delta:.3g}, d2 {rep.d2:.3g}, bound {rep.bound:.3e}, "
           f"exact {rep.exact_error_band_norm:.3e})")


def _time_domain_truncation_error(law, r, m, omega_max, n):
    grid = FrequencyGrid(omega_max, n)
    spec = sample_green_spectrum(law, r, grid)
    # G - G_M is synthesized from its own (tail-only) spectrum: by linearity
    # of the transform this is exact, and it keeps a 1e-40-scale difference
    # representable where direct sample subtraction would round to zero.
    # The spectrum holds w >= 0 only; the tail is w > m.
    tail_spec = replace(spec, values=np.where(grid.omegas() > m, spec.values, 0.0))
    return synthesize_time_signal(tail_spec).l2_norm() / synthesize_time_signal(spec).l2_norm()


def test_criterion_08_plancherel_consistency():
    cases = {1.0: (200.0, 2**23), 0.1: (400.0, 2**22)}
    worst = 0.0
    details = []
    for r, (omega_max, n) in cases.items():
        err_t = _time_domain_truncation_error(CASTOR.causal, r, 100.0, omega_max, n)
        err_w = 10.0 ** log10_relative_truncation_error(energy_profile(CASTOR.causal, r), 100.0)
        rel = abs(err_t - err_w) / err_w
        worst = max(worst, rel)
        details.append(f"r={r:g}: {rel:.2e}")
    report(8, "time-domain and spectral truncation errors agree to 1e-4",
           worst <= 1e-4, f"({'; '.join(details)})")


def test_criterion_09_causality_energy_fractions():
    arrival = 1.0 / CASTOR.causal.c0
    fractions = []
    for n in (2**17, 2**18):
        spec = sample_green_spectrum(CASTOR.causal, 1.0, FrequencyGrid(400.0, n))
        fractions.append(causality_energy_fraction(synthesize_time_signal(spec), arrival))
    pl_spec = sample_green_spectrum(CASTOR.powerlaw, 1.0, FrequencyGrid(400.0, 2**17),
                                    band_edge=100.0)
    pl_fraction = causality_energy_fraction(synthesize_time_signal(pl_spec), arrival)
    ok = (fractions[0] < 1e-6 and fractions[1] < fractions[0]
          and 0.0 < pl_fraction < 1e-3)
    report(9, "pre-arrival energy: causal tiny and refining, truncated power law positive",
           ok, f"(causal {fractions[0]:.2e} -> {fractions[1]:.2e}, "
               f"truncated power law {pl_fraction:.2e})")


def test_criterion_10_helmholtz_residual_convergence():
    ratios = {}
    for name, law in (("causal", CASTOR.causal), ("power-law", CASTOR.powerlaw)):
        res_h = helmholtz_radial_residual(law, 1.0, 10.0, 1e-6)
        res_h2 = helmholtz_radial_residual(law, 1.0, 10.0, 5e-7)
        ratios[name] = res_h / res_h2
    ok = all(abs(ratio - 4.0) <= 0.4 for ratio in ratios.values())
    report(10, "radial wave-equation residual converges at second order", ok,
           f"(Richardson ratios {ratios['causal']:.3f}, {ratios['power-law']:.3f})")


def test_criterion_11_quadrature_matches_brute_force():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for i in range(5):
        law = CASTOR.causal if i % 2 == 0 else CASTOR.powerlaw
        r = 10.0 ** rng.uniform(-1.3, 0.7)
        m = rng.uniform(20.0, 200.0)
        line = energy_profile(law, r)
        cut = line.top
        band = energy_profile(law, r, m).norm
        full = line.norm
        worst = max(worst,
                    abs(band / trapezoid_norm(law, r, 0.0, min(m, cut)) - 1.0),
                    abs(full / trapezoid_norm(law, r, 0.0, cut) - 1.0))
    report(11, "adaptive norms match dense-trapezoid brute force to 1e-6",
           worst <= 1e-6, f"(worst relative deviation {worst:.2e})")
