"""Checks of one pass's artifacts against reference.py and properties the method must have.

No check compares against a stored copy of earlier output.  Each check
appends a message per failed expectation to a `Failures` list; an empty
list means every artifact holds.
Tolerances sit between the agreement measured on a correct program (about
1e-11 for quadrature results, 1e-15 for closed forms) and the change that a
relative error of 1e-4 in the causal attenuation makes (3e-5 to 1e-4).
"""

from __future__ import annotations

import json
import math

import numpy as np

import reference as ref
from workloads import TABLE2_PUBLISHED

QUADRATURE_RTOL = 1e-7     # program quadrature runs at rtol 1e-9
BAND_EDGE_RTOL = 1.1e-6    # the band-edge energy contract is 1e-6
TAIL_DECADES = 70.0        # the tail cut solves 2 r Re alpha(w) = 70


class Failures(list):
    """Messages of failed expectations."""

    def expect(self, ok, message):
        if not ok:
            self.append(message)

    def close(self, got, want, rtol, what, atol=0.0):
        self.expect(math.isfinite(got) and abs(got - want) <= rtol * abs(want) + atol,
                    f"{what}: got {got!r}, reference {want!r}")

    def close_arrays(self, got, want, rtol, what, atol=0.0):
        got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
        bad = ~(np.abs(got - want) <= rtol * np.abs(want) + atol)
        self.expect(got.shape == want.shape and not bad.any(),
                    f"{what}: {int(bad.sum())} of {want.size} values off the reference"
                    + (f", first at index {int(np.argmax(bad))}" if bad.any() else ""))


def read_csv(path):
    """Header fields (key=value pairs of the comment line) and float columns of a CSV artifact."""
    with open(path, encoding="utf-8") as fh:
        first = fh.readline()
    header = dict(item.partition("=")[::2] for item in first[2:].split() if "=" in item) \
        if first.startswith("#") else {}
    data = np.loadtxt(path, delimiter=",", skiprows=2 if first.startswith("#") else 1, ndmin=2)
    return header, data.T


def check_bounds(op, out, fails):
    doc = json.loads((out / "bounds.json").read_text(encoding="utf-8"))
    med, m = op.params["medium"], op.params["m"]
    linear = doc["corrected_bound_envelope"]["linear_envelope"]
    envelope_holds = linear["holds_lower"] and linear["holds_upper"]
    delta = doc["delta"]
    causal_att = ref.attenuation(med, "causal")
    for row in doc["per_distance"]:
        r = row["r"]
        tag = f"bounds M={m} r={r:g}"
        exact = row["log10_truncation_error"]
        want = ref.log10_truncation_error(med, r, m)
        fails.close(exact, want, 1e-10, f"{tag} log10 truncation error", atol=1e-9)
        lower = ref.truncation_lower_bound_log10(med, r, m)
        fails.expect(exact >= lower - 1e-12 * abs(lower),
                     f"{tag}: log10 exact error {exact} below the lower bound {lower}")
        if envelope_holds:
            bound = row["corrected_truncation_bound"]["log10_bound"]
            fails.expect(math.isfinite(bound) and math.isfinite(exact) and bound >= exact,
                         f"{tag}: corrected bound {bound} does not dominate the exact error {exact}")
        # the linear error is formed from energies, which underflow where error**2 does
        if want > -140.0:
            fails.close(row["truncation_error"], 10.0**want, 1e-8, f"{tag} truncation error")
        else:
            fails.expect(0.0 <= row["truncation_error"] <= 10.0**want * (1.0 + 1e-8) + 1e-300,
                         f"{tag}: truncation error {row['truncation_error']} above 10**{want}")
        report = row["model_error_report"]
        fails.close(report["exact_error_band_norm"], ref.relative_model_error(med, r, m),
                    QUADRATURE_RTOL, f"{tag} band-normalized model error")
        fails.close(report["exact_error"] / report["exact_error_band_norm"],
                    ref.band_over_full(med, r, m), QUADRATURE_RTOL, f"{tag} band/full norm ratio")
        fails.close(ref.tail_fraction(med, r, report["m_delta"]), delta, BAND_EDGE_RTOL,
                    f"{tag} tail energy fraction at the band edge {report['m_delta']!r}")
        fails.close(2.0 * r * float(causal_att(row["tail_cut"])), TAIL_DECADES, 1e-6,
                    f"{tag} attenuation exponent at the tail cut")


def check_table2(op, out, fails):
    med, m = op.params["medium"], op.params["m"]
    _, (rs, errors) = read_csv(out / "table2.csv")
    want = [ref.relative_model_error(med, r, m) for r in rs]
    fails.close_arrays(errors, want, QUADRATURE_RTOL, f"table2 M={m} model errors")
    if m == 100.0:
        values = {r: e for r, e in zip(rs, errors) if r in TABLE2_PUBLISHED}
        for r, e in values.items():
            fails.expect(TABLE2_PUBLISHED[r] / 2.0 <= e <= 2.0 * TABLE2_PUBLISHED[r],
                         f"table2 r={r:g}: {e} not within a factor two of {TABLE2_PUBLISHED[r]}")
        order = sorted(values, key=values.get)
        fails.expect(order == sorted(values, key=TABLE2_PUBLISHED.get),
                     f"table2: order {order} differs from the published table")


def check_pulse(op, out, fails):
    p = op.params
    med, w_max, n = p["medium"], p["omega_max"], p["n"]
    header, (t, g) = read_csv(out / "pulse.csv")
    tag = f"pulse {p['law']} {p['kind']}"
    dt, dw = math.pi / w_max, 2.0 * w_max / n
    fails.expect(len(g) == n, f"{tag}: {len(g)} samples, expected {n}")
    if len(g) != n:
        return
    fails.close(float(header.get("dt", "nan")), dt, 1e-15, f"{tag} header dt")
    fails.close_arrays(t, dt * np.arange(n), 1e-14, f"{tag} time axis", atol=1e-14 * dt)
    w = ref.grid_omegas(w_max, n)
    law = "causal" if p["law"] == "causal" else "power-law"
    values = (ref.green_hat(med, law, p["r"], w) * math.sqrt(2.0 * math.pi)
              * ref.forcing_hat(p["kind"], w, p["center"], p["width"], p["carrier"]))
    values[0] = values[0].real
    fails.close(float(np.sum(g * g)) * dt, float(np.sum(np.abs(values) ** 2)) * dw, 1e-12,
                f"{tag} Parseval energy")
    expected = ref.synthesize(values, w_max)
    worst = float(np.max(np.abs(g - expected)))
    fails.expect(worst <= 1e-9 * float(np.max(np.abs(expected))),
                 f"{tag}: samples differ from the reference synthesis by {worst:.3e}")


def check_causality(op, out, fails):
    p = op.params
    med, r, m, w_max, n = p["medium"], p["r"], p["m"], p["omega_max"], p["n"]
    doc = json.loads((out / "causality.json").read_text(encoding="utf-8"))
    tag = f"causality r={r:g} n={n}"
    causal = doc["causal"]["guarded_fraction"]
    power = doc["truncated_powerlaw"]["guarded_fraction"]
    fails.expect(0.0 <= causal < 1e-12, f"{tag}: causal pre-front fraction {causal}")
    fails.expect(0.0 < power < 1e-3, f"{tag}: truncated power-law pre-front fraction {power}")
    # G_c vanishes before the front, so the pre-front energy of G_M^pl is at
    # most ||G_c - G_M^pl||**2 (Plancherel); common factor (4 pi r)**-2 dropped.
    w = ref.grid_omegas(w_max, n)
    band = np.abs(w) <= m
    signal_energy = float(np.sum(np.abs(ref.green_hat(med, "power-law", r, w[band])) ** 2)) \
        * (2.0 * w_max / n) * (4.0 * math.pi * r) ** 2
    gap = 2.0 * (ref.model_gap_energy(med, r, m)
                 + math.exp(ref.log_decay_integral(ref.attenuation(med, "causal"), r, m)))
    fails.expect(power * signal_energy <= gap,
                 f"{tag}: pre-front energy {power * signal_energy:.3e} exceeds "
                 f"||G_c - G_M^pl||^2 = {gap:.3e}")
    return causal, power


def check_causality_pair(coarse, fine, tag, fails):
    """The same distance on two grids: the causal fraction falls, the power-law one settles."""
    fails.expect(fine[0] < coarse[0] or fine[0] == coarse[0] == 0.0,
                 f"{tag}: causal pre-front fraction does not fall with n ({coarse[0]} -> {fine[0]})")
    fails.expect(abs(fine[1] / coarse[1] - 1.0) <= 0.05,
                 f"{tag}: power-law pre-front fraction moves with n ({coarse[1]} -> {fine[1]})")


def check_table1(op, out, fails):
    med, threshold = op.params["medium"], op.params["threshold"]
    _, (gammas, bounds) = read_csv(out / "table1.csv")
    want = threshold ** (1.0 / (gammas - 1.0)) / med.tau0
    fails.close_arrays(bounds, want, 1e-12, "table1 small-frequency bound")


def _check_curves(out, fig, med, fails):
    _, (w, att_c, att_pl) = read_csv(out / f"{fig}_attenuation.csv")
    fails.close_arrays(att_c, np.real(ref.causal_alpha(med, w)), 1e-11,
                       f"{fig} causal attenuation", atol=1e-300)
    fails.close_arrays(att_pl, np.real(ref.powerlaw_alpha(med, w)), 1e-11,
                       f"{fig} power-law attenuation", atol=1e-300)
    header, (w, speed_c, speed_pl) = read_csv(out / f"{fig}_phasespeed.csv")
    for law, speed in (("causal", speed_c), ("power-law", speed_pl)):
        k, scale = ref.wavenumber(med, law, w)
        bad = ~(np.abs(w / speed - k) <= 1e-10 * scale)
        fails.expect(not bad.any(), f"{fig} {law} phase speed: {int(bad.sum())} wavenumbers "
                                    "off the reference")
    return header


def check_fig1(op, out, fails):
    _check_curves(out, "fig1", op.params["medium"], fails)


def check_fig2(op, out, fails):
    med = op.params["medium"]
    header = _check_curves(out, "fig2", med, fails)
    if med.gamma == 2.0:
        fails.expect("phase_speed_pole_omega" not in header, "fig2: pole marked for gamma = 2")
        return
    pole = float(header.get("phase_speed_pole_omega", "nan"))
    fails.close(pole, ref.phase_pole(med), 1e-9, "fig2 phase-speed pole")
    k, scale = ref.wavenumber(med, "power-law", pole)
    fails.expect(abs(k) <= 1e-9 * scale, f"fig2: pole {pole!r} is not a root of the wavenumber")


def check_fig3(op, out, fails):
    med, r = op.params["medium"], op.params["r"]
    _, (m0, norm) = read_csv(out / "fig3_bandnorm.csv")
    fails.expect(bool(np.all(np.diff(norm) >= 0.0)), "fig3: band norm decreases")
    fails.close(float(norm[-1]), ref.band_norm(med, r, float(m0[-1])), QUADRATURE_RTOL,
                f"fig3 band norm at M={m0[-1]}")
    _, (w, dev) = read_csv(out / "fig3_deviation.csv")
    fails.close_arrays(dev, ref.deviation_factor(med, r, w), 1e-9, "fig3 deviation factor",
                       atol=1e-300)


CHECKS = {"bounds": check_bounds, "table2": check_table2, "pulse": check_pulse,
          "table1": check_table1, "fig1": check_fig1, "fig2": check_fig2, "fig3": check_fig3}


def check_pass(ops, pass_dir, codes):
    """Check every artifact of the operations that succeeded in one pass."""
    fails = Failures()
    causality = {}
    for j, (op, code) in enumerate(zip(ops, codes)):
        if code != 0:
            continue
        out = pass_dir / str(j)
        try:
            if op.command == "causality":
                causality[(op.params["r"], op.params["n"])] = check_causality(op, out, fails)
            else:
                CHECKS[op.command](op, out, fails)
        except (OSError, ValueError, KeyError) as exc:
            fails.append(f"{' '.join(op.argv)}: unreadable artifact: {exc!r}")
    for (r, n), fractions in causality.items():
        finer = causality.get((r, 2 * n))
        if finer is not None:
            check_causality_pair(fractions, finer, f"causality r={r:g} n={n}->{2 * n}", fails)
    return fails
