"""Command-line front end: tables, figure data, bound reports, pulses.

Every command loads a medium preset (built-in name or JSON file),
computes its artifact deterministically and writes CSV/JSON files
into the output directory.  Floats in CSV files carry 17 significant
digits; identical invocations produce byte-identical output.

Exit codes: 0 success, 2 usage error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__
from .bounds import (DEVIATION_SCAN_POINTS, ENVELOPE_GRID_POINTS, bound_coefficient,
                     bound_decay_rate, corrected_truncation_error_bound, deviation_factor,
                     envelope_bound_constants, envelope_split, log10_truncation_error_bound,
                     model_error_report, power_lower_envelope, truncation_error_bound,
                     verify_envelope)
from .laws import (
    eval_alpha,
    load_preset,
    powerlaw_phase_singularity,
    small_frequency_bound,
    wavenumber,
)
from .numerics import NumericalError
from .spectrum import (BAND_EDGE_RTOL, ENERGY_PASS_RTOL, NORM_RTOL, FrequencyGrid,
                       _check_band_edge, energy_profile, log10_relative_truncation_error,
                       relative_model_error, sample_green_spectrum)
from .tables import write_table
from .timedomain import (
    ForcingSignal,
    causality_energy_fraction,
    forward_point_source,
    synthesize_time_signal,
)

def _fmt(x):
    return f"{x:.17g}"


def _parse_floats(text, what):
    items = [s for s in text.split(",") if s.strip()]
    if not items:
        raise ValueError(f"{what} must contain at least one value")
    return [float(s) for s in items]


def _out_dir(args):
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _preset_dict(preset):
    return {"name": preset.name, **asdict(preset.causal),
            "a1": preset.powerlaw.a1, "a2": preset.powerlaw.a2}


def cmd_table1(args):
    gammas = _parse_floats(args.gammas, "--gammas")
    bounds = [small_frequency_bound(g, args.tau0, args.threshold) for g in gammas]
    path = write_table(_out_dir(args) / "table1", ["gamma", "bound_M"], [gammas, bounds],
                       comment=f"tau0={_fmt(args.tau0)} threshold={_fmt(args.threshold)}",
                       fmt=args.format)
    print(f"wrote {path}")
    return 0


def cmd_table2(args):
    preset = load_preset(args.preset)
    r_list = _parse_floats(args.r_list, "--r-list")
    errors = [relative_model_error(preset.causal, preset.powerlaw, r, args.m) for r in r_list]
    path = write_table(_out_dir(args) / "table2", ["r", "model_error"], [r_list, errors],
                       comment=f"preset={preset.name} M={_fmt(args.m)}", fmt=args.format)
    print(f"wrote {path}")
    return 0


def _attenuations(preset, omegas):
    return (np.real(eval_alpha(preset.causal, omegas)),
            np.real(eval_alpha(preset.powerlaw, omegas)))


def _phase_speeds(preset, omegas):
    return (omegas / wavenumber(preset.causal, omegas),
            omegas / wavenumber(preset.powerlaw, omegas))


def cmd_fig(args):
    preset = load_preset(args.preset)
    out = _out_dir(args)
    which = args.which
    written = []
    if which == "fig1":
        w_att = np.linspace(0.0, 60.0, 601)
        w_spd = np.linspace(0.1, 60.0, 600)
        att_c, att_pl = _attenuations(preset, w_att)
        spd_c, spd_pl = _phase_speeds(preset, w_spd)
        written.append(write_table(
            out / "fig1_attenuation", ["omega", "attenuation_causal", "attenuation_powerlaw"],
            [w_att, att_c, att_pl], comment=f"preset={preset.name}"))
        written.append(write_table(
            out / "fig1_phasespeed", ["omega", "speed_causal", "speed_powerlaw"],
            [w_spd, spd_c, spd_pl], comment=f"preset={preset.name}"))
    elif which == "fig2":
        w = np.geomspace(1.0, 1e8, 961)
        att_c, att_pl = _attenuations(preset, w)
        spd_c, spd_pl = _phase_speeds(preset, w)
        # a gamma = 2 power law has no phase-speed pole: the marker is left out
        marker = ("" if preset.powerlaw.gamma == 2.0 else
                  f" phase_speed_pole_omega={_fmt(powerlaw_phase_singularity(preset))}")
        written.append(write_table(
            out / "fig2_attenuation", ["omega", "attenuation_causal", "attenuation_powerlaw"],
            [w, att_c, att_pl], comment=f"preset={preset.name} log grid"))
        written.append(write_table(
            out / "fig2_phasespeed", ["omega", "speed_causal", "speed_powerlaw"],
            [w, spd_c, spd_pl], comment=f"preset={preset.name}{marker}"))
    elif which == "fig3":
        r = args.r
        _check_band_edge(args.m)
        if not 2.0 * args.m > 0.5:
            raise ValueError(f"fig3 plots band edges from 0.5 to 2M, so M must exceed 0.25, "
                             f"got M={args.m!r}")
        m0 = np.linspace(0.5, 2.0 * args.m, 100)
        # one energy profile of [0, 2M] read at every band edge; the
        # absolute norm carries the prefactor 1/(4*pi*r) of G_hat
        energy = energy_profile(preset.causal, r, 2.0 * args.m).at(m0)
        g_curve = np.sqrt(2.0 * energy) / (4.0 * math.pi * r)
        written.append(write_table(
            out / "fig3_bandnorm", ["m0", "band_norm"], [m0, g_curve],
            comment=f"preset={preset.name} r={_fmt(r)}"))
        w = np.linspace(0.0, args.m, 501)
        dev = deviation_factor(preset.causal, preset.powerlaw, r, w)
        written.append(write_table(
            out / "fig3_deviation", ["omega", "deviation_factor"], [w, dev],
            comment=f"preset={preset.name} r={_fmt(r)}"))
    for path in written:
        print(f"wrote {path}")
    return 0


def cmd_bounds(args):
    preset = load_preset(args.preset)
    r_list = _parse_floats(args.r_list, "--r-list")
    constants = envelope_bound_constants(preset, args.m, slope_factor=args.slope_factor)
    per_r = []
    for r in r_list:
        profile = energy_profile(preset.causal, r)
        env = verify_envelope(preset.causal, constants, max(profile.top, 1.0001 * args.m))
        report = model_error_report(profile, preset.powerlaw, args.m, args.delta)
        corrected = corrected_truncation_error_bound(preset.causal, constants, r)
        log10_error = log10_relative_truncation_error(profile, args.m)
        per_r.append({
            "r": r,
            "tail_cut": profile.top,
            "envelope": env.to_dict(),
            "truncation_bound": truncation_error_bound(constants, r),
            "log10_truncation_bound": log10_truncation_error_bound(constants, r),
            "corrected_truncation_bound": corrected.to_dict(),
            "truncation_error": 10.0**log10_error,
            "log10_truncation_error": log10_error,
            "model_error_report": report.to_dict(),
        })
    # the corrected bound uses the linear lower envelope on [m, split] and
    # the analytic power envelope beyond; the split does not depend on r
    split = envelope_split(preset.causal, args.m)
    kappa, exponent = power_lower_envelope(preset.causal, split)
    doc = {
        "preset": _preset_dict(preset),
        "m": args.m,
        "delta": args.delta,
        "settings": {
            "quadrature_rtol": NORM_RTOL,
            "energy_pass_rtol": ENERGY_PASS_RTOL,
            "energy_equation_rtol": BAND_EDGE_RTOL,
            "envelope_grid_points": ENVELOPE_GRID_POINTS,
            "deviation_scan_points": DEVIATION_SCAN_POINTS,
            "slope_factor": args.slope_factor,
        },
        "envelope_constants": {
            **constants.to_dict(),
            "bound_coefficient": bound_coefficient(constants),
            "bound_decay_rate": bound_decay_rate(constants),
        },
        "truncation_bound_form": "published closed form; undercuts the exact error, "
                                 "see corrected_truncation_bound",
        "corrected_bound_envelope": {
            "split": split,
            "linear_envelope": verify_envelope(
                preset.causal, constants, max(split, 1.0001 * args.m)).to_dict(),
            "power_envelope_kappa": kappa,
            "power_envelope_exponent": exponent,
        },
        "per_distance": per_r,
    }
    out = _out_dir(args) / "bounds.json"
    out.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {out}")
    return 0


def _grid_from_args(args):
    return FrequencyGrid(omega_max=args.omega_max, n=args.samples)


def cmd_pulse(args):
    preset = load_preset(args.preset)
    law = preset.causal if args.law == "causal" else preset.powerlaw
    forcing = ForcingSignal(kind=args.kind, center=args.center, width=args.width,
                            carrier=args.carrier)
    signal = forward_point_source(law, args.r, forcing, _grid_from_args(args))
    comment = (f"r={_fmt(signal.r)} law={law.tag} t0={_fmt(signal.t0)} dt={_fmt(signal.dt)} "
               f"n={len(signal.samples)} omega_max={_fmt(args.omega_max)} "
               f"samples={args.samples} convention=forward-kernel exp(+i w t), "
               "unitary 1/sqrt(2 pi)")
    out = write_table(_out_dir(args) / "pulse", ["t", "value"],
                      [signal.times(), signal.samples], comment=comment)
    print(f"wrote {out}")
    return 0


def cmd_causality(args):
    preset = load_preset(args.preset)
    grid = _grid_from_args(args)
    arrival = args.r / preset.causal.c0
    doc = {
        "preset": _preset_dict(preset),
        "r": args.r,
        "arrival": arrival,
        "grid": {"omega_max": args.omega_max, "n": args.samples},
        "m": args.m,
    }
    for key, spec in (
        ("causal", sample_green_spectrum(preset.causal, args.r, grid)),
        ("truncated_powerlaw", sample_green_spectrum(preset.powerlaw, args.r, grid, args.m)),
    ):
        signal = synthesize_time_signal(spec)
        doc[key] = {
            "raw_fraction": causality_energy_fraction(signal, arrival, guard=0.0),
            "guarded_fraction": causality_energy_fraction(signal, arrival),
            "guard": 2.0 * signal.dt,
        }
    out = _out_dir(args) / "causality.json"
    out.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {out}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="lossywave",
        description="Dissipative pressure-wave toolkit: laws, spectra, bounds, pulses.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--preset", default="castor-oil",
                        help="built-in preset name or path to a preset JSON file")
    common.add_argument("--out", default=".", help="output directory")
    common.add_argument("--format", choices=("csv", "json"), default="csv",
                        help="tabular output format")
    common.add_argument("--omega-max", type=float, default=400.0, dest="omega_max",
                        help="frequency grid half-width, rad/us")
    common.add_argument("--samples", type=int, default=2**16,
                        help="frequency grid sample count (power of two)")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("table1", parents=[common],
                       help="small-frequency bound per gamma")
    p.add_argument("--gammas", default="1.1,1.5,2.0", help="comma-separated gamma values")
    p.add_argument("--tau0", type=float, default=1e-6, help="relaxation time, us")
    p.add_argument("--threshold", type=float, default=0.1,
                   help="smallness threshold for |tau0*omega|**(gamma-1)")
    p.set_defaults(func=cmd_table1)

    p = sub.add_parser("table2", parents=[common],
                       help="band-limited model error per distance")
    p.add_argument("--m", type=float, default=100.0, help="band edge M, rad/us")
    p.add_argument("--r-list", default="1e-6,1e-3,1e-1,10", dest="r_list",
                   help="comma-separated distances, cm")
    p.set_defaults(func=cmd_table2)

    for fig in ("fig1", "fig2", "fig3"):
        p = sub.add_parser(fig, parents=[common], help=f"{fig} curve data")
        p.add_argument("--r", type=float, default=1.0, help="distance, cm (fig3)")
        p.add_argument("--m", type=float, default=100.0, help="band edge M, rad/us (fig3)")
        p.set_defaults(func=cmd_fig, which=fig)

    p = sub.add_parser("bounds", parents=[common],
                       help="truncation and model-error bound report")
    p.add_argument("--m", type=float, default=100.0, help="band edge M, rad/us")
    p.add_argument("--r-list", default="1e-6,1e-4,1e-2,1,10", dest="r_list",
                   help="comma-separated distances, cm")
    p.add_argument("--delta", type=float, default=6e-4,
                   help="spectral energy fraction outside the inner band")
    p.add_argument("--slope-factor", type=float, default=0.7, dest="slope_factor",
                   help="lower-envelope slope factor")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("pulse", parents=[common], help="point-source forward solve")
    p.add_argument("--r", type=float, default=1.0, help="distance, cm")
    p.add_argument("--law", choices=("causal", "powerlaw"), default="causal")
    p.add_argument("--kind", choices=("delta", "gaussian-pulse", "gaussian-modulated-sine"),
                   default="gaussian-pulse")
    p.add_argument("--center", type=float, default=5.0, help="forcing center, us")
    p.add_argument("--width", type=float, default=0.5, help="forcing width, us")
    p.add_argument("--carrier", type=float, default=10.0,
                   help="carrier frequency, rad/us (modulated sine)")
    p.set_defaults(func=cmd_pulse)

    p = sub.add_parser("causality", parents=[common],
                       help="pre-arrival energy fractions of synthesized waves")
    p.add_argument("--r", type=float, default=1.0, help="distance, cm")
    p.add_argument("--m", type=float, default=100.0,
                   help="band edge M for the truncated power law, rad/us")
    p.set_defaults(func=cmd_causality)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
