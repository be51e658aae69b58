"""Command-line front end: tables, figure data, bound reports, pulses.

Every command computes its artifacts deterministically and returns
them, without writing: a table as (name, {column: values}, comment),
a document as (filename, dict).  `main` alone writes, through
`lossywave.tables`: tables as CSV or JSON by --format, documents as
JSON.  Floats in CSV files carry 17 significant digits; identical
invocations produce byte-identical output.  Each subcommand accepts
only the flags it reads.

Exit codes: 0 success, 2 usage error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__
from .bounds import (DEVIATION_SCAN_POINTS, ENVELOPE_GRID_POINTS, bound_coefficient,
                     bound_decay_rate, corrected_truncation_error_bound, envelope_bound_constants,
                     envelope_split, log10_truncation_error_bound, model_error_report,
                     power_lower_envelope, truncation_error_bound, verify_envelope)
from .laws import (eval_alpha, load_preset, powerlaw_phase_singularity, small_frequency_bound,
                   wavenumber)
from .numerics import NumericalError
from .spectrum import (BAND_EDGE_RTOL, QUADRATURE_RTOL, FrequencyGrid, _check_band_edge,
                       deviation_factor, energy_profile, log10_relative_truncation_error,
                       relative_model_error, sample_green_spectrum)
from .tables import write_json, write_table
from .timedomain import (ForcingSignal, causality_energy_fraction, forward_point_source,
                         synthesize_time_signal)


def _fmt(x):
    return f"{x:.17g}"


def _parse_floats(text, what):
    items = [s for s in text.split(",") if s.strip()]
    if not items:
        raise ValueError(f"{what} must contain at least one value")
    return [float(s) for s in items]


def _preset_dict(preset):
    return {"name": preset.name, **asdict(preset.causal),
            "a1": preset.powerlaw.a1, "a2": preset.powerlaw.a2}


def cmd_table1(args):
    gammas = _parse_floats(args.gammas, "--gammas")
    bounds = [small_frequency_bound(g, args.tau0, args.threshold) for g in gammas]
    return [("table1", {"gamma": gammas, "bound_M": bounds},
             f"tau0={_fmt(args.tau0)} threshold={_fmt(args.threshold)}")]


def cmd_table2(args):
    preset = load_preset(args.preset)
    r_list = _parse_floats(args.r_list, "--r-list")
    causal, powerlaw, m = preset.causal, preset.powerlaw, args.m
    _check_band_edge(m)  # energy_profile takes M = inf for the whole line
    errors = [relative_model_error(energy_profile(causal, r, m), powerlaw, m) for r in r_list]
    return [("table2", {"r": r_list, "model_error": errors},
             f"preset={preset.name} M={_fmt(args.m)}")]


def _curves(preset, fig, w_att, w_spd, att_note="", spd_note=""):
    """Attenuation and phase-speed tables of both laws, `fig`_attenuation and `fig`_phasespeed."""
    both = (preset.causal, preset.powerlaw)
    att_c, att_pl = (np.real(eval_alpha(law, w_att)) for law in both)
    spd_c, spd_pl = (w_spd / wavenumber(law, w_spd) for law in both)
    return [(f"{fig}_attenuation",
             {"omega": w_att, "attenuation_causal": att_c, "attenuation_powerlaw": att_pl},
             f"preset={preset.name}{att_note}"),
            (f"{fig}_phasespeed", {"omega": w_spd, "speed_causal": spd_c, "speed_powerlaw": spd_pl},
             f"preset={preset.name}{spd_note}")]


def cmd_fig1(args):
    return _curves(load_preset(args.preset), "fig1", np.linspace(0.0, 60.0, 601),
                   np.linspace(0.1, 60.0, 600))


def cmd_fig2(args):
    preset = load_preset(args.preset)
    w = np.geomspace(1.0, 1e8, 961)
    # a gamma = 2 power law has no phase-speed pole: the marker is left out
    marker = ("" if preset.powerlaw.gamma == 2.0 else
              f" phase_speed_pole_omega={_fmt(powerlaw_phase_singularity(preset))}")
    return _curves(preset, "fig2", w, w, " log grid", marker)


def cmd_fig3(args):
    preset = load_preset(args.preset)
    r, m = args.r, args.m
    _check_band_edge(m)
    if not 2.0 * m > 0.5:
        raise ValueError(f"fig3 plots band edges from 0.5 to 2M, so M must exceed 0.25, "
                         f"got M={m!r}")
    m0 = np.linspace(0.5, 2.0 * m, 100)
    # one energy profile of [0, 2M] read at every band edge; the
    # absolute norm carries the prefactor 1/(4*pi*r) of G_hat
    energy = energy_profile(preset.causal, r, 2.0 * m).at(m0)
    g_curve = np.sqrt(2.0 * energy) / (4.0 * math.pi * r)
    w = np.linspace(0.0, m, 501)
    dev = deviation_factor(preset.causal, preset.powerlaw, r, w)
    comment = f"preset={preset.name} r={_fmt(r)}"
    return [("fig3_bandnorm", {"m0": m0, "band_norm": g_curve}, comment),
            ("fig3_deviation", {"omega": w, "deviation_factor": dev}, comment)]


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
            "envelope": asdict(env),
            "truncation_bound": truncation_error_bound(constants, r),
            "log10_truncation_bound": log10_truncation_error_bound(constants, r),
            "corrected_truncation_bound": corrected.to_dict(),
            "truncation_error": 10.0**log10_error,
            "log10_truncation_error": log10_error,
            "model_error_report": asdict(report),
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
            "quadrature_rtol": QUADRATURE_RTOL,
            "energy_equation_rtol": BAND_EDGE_RTOL,
            "envelope_grid_points": ENVELOPE_GRID_POINTS,
            "deviation_scan_points": DEVIATION_SCAN_POINTS,
            "slope_factor": args.slope_factor,
        },
        "envelope_constants": {
            **asdict(constants),
            "bound_coefficient": bound_coefficient(constants),
            "bound_decay_rate": bound_decay_rate(constants),
        },
        "truncation_bound_form": "published closed form; undercuts the exact error, "
                                 "see corrected_truncation_bound",
        "corrected_bound_envelope": {
            "split": split,
            "linear_envelope": asdict(verify_envelope(
                preset.causal, constants, max(split, 1.0001 * args.m))),
            "power_envelope_kappa": kappa,
            "power_envelope_exponent": exponent,
        },
        "per_distance": per_r,
    }
    return [("bounds.json", doc)]


def cmd_pulse(args):
    preset = load_preset(args.preset)
    law = preset.causal if args.law == "causal" else preset.powerlaw
    forcing = ForcingSignal(kind=args.kind, center=args.center, width=args.width,
                            carrier=args.carrier)
    grid = FrequencyGrid(omega_max=args.omega_max, n=args.samples)
    signal = forward_point_source(law, args.r, forcing, grid)
    comment = (f"r={_fmt(signal.r)} law={law.tag} t0={_fmt(signal.t0)} dt={_fmt(signal.dt)} "
               f"n={len(signal.samples)} omega_max={_fmt(args.omega_max)} "
               f"samples={args.samples} convention=forward-kernel exp(+i w t), "
               "unitary 1/sqrt(2 pi)")
    return [("pulse", {"t": signal.times(), "value": signal.samples}, comment)]


def cmd_causality(args):
    preset = load_preset(args.preset)
    grid = FrequencyGrid(omega_max=args.omega_max, n=args.samples)
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
    return [("causality.json", doc)]


def build_parser():
    parser = argparse.ArgumentParser(
        prog="lossywave",
        description="Dissipative pressure-wave toolkit: laws, spectra, bounds, pulses.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")

    # flags shared by several commands, one parent parser each
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", default=".", help="output directory")
    preset = argparse.ArgumentParser(add_help=False)
    preset.add_argument("--preset", default="castor-oil",
                        help="built-in preset name or path to a preset JSON file")
    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument("--format", choices=("csv", "json"), default="csv", help="table format")
    grid = argparse.ArgumentParser(add_help=False)
    grid.add_argument("--omega-max", type=float, default=400.0, dest="omega_max",
                      help="frequency grid half-width, rad/us")
    grid.add_argument("--samples", type=int, default=2**16,
                      help="frequency grid sample count (power of two)")
    tables = [out, preset, fmt]

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("table1", parents=[out, fmt], help="small-frequency bound per gamma")
    p.add_argument("--gammas", default="1.1,1.5,2.0", help="comma-separated gamma values")
    p.add_argument("--tau0", type=float, default=1e-6, help="relaxation time, us")
    p.add_argument("--threshold", type=float, default=0.1,
                   help="smallness threshold for |tau0*omega|**(gamma-1)")
    p.set_defaults(func=cmd_table1)

    p = sub.add_parser("table2", parents=tables, help="band-limited model error per distance")
    p.add_argument("--m", type=float, default=100.0, help="band edge M, rad/us")
    p.add_argument("--r-list", default="1e-6,1e-3,1e-1,10", dest="r_list",
                   help="comma-separated distances, cm")
    p.set_defaults(func=cmd_table2)

    sub.add_parser("fig1", parents=tables, help="fig1 curve data").set_defaults(func=cmd_fig1)
    sub.add_parser("fig2", parents=tables, help="fig2 curve data").set_defaults(func=cmd_fig2)
    p = sub.add_parser("fig3", parents=tables, help="fig3 curve data")
    p.add_argument("--r", type=float, default=1.0, help="distance, cm")
    p.add_argument("--m", type=float, default=100.0, help="band edge M, rad/us")
    p.set_defaults(func=cmd_fig3)

    p = sub.add_parser("bounds", parents=[out, preset],
                       help="truncation and model-error bound report")
    p.add_argument("--m", type=float, default=100.0, help="band edge M, rad/us")
    p.add_argument("--r-list", default="1e-6,1e-4,1e-2,1,10", dest="r_list",
                   help="comma-separated distances, cm")
    p.add_argument("--delta", type=float, default=6e-4,
                   help="spectral energy fraction outside the inner band")
    p.add_argument("--slope-factor", type=float, default=0.7, dest="slope_factor",
                   help="lower-envelope slope factor")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("pulse", parents=[*tables, grid], help="point-source forward solve")
    p.add_argument("--r", type=float, default=1.0, help="distance, cm")
    p.add_argument("--law", choices=("causal", "powerlaw"), default="causal")
    p.add_argument("--kind", choices=("delta", "gaussian-pulse", "gaussian-modulated-sine"),
                   default="gaussian-pulse")
    p.add_argument("--center", type=float, default=5.0, help="forcing center, us")
    p.add_argument("--width", type=float, default=0.5, help="forcing width, us")
    p.add_argument("--carrier", type=float, default=10.0,
                   help="carrier frequency, rad/us (modulated sine)")
    p.set_defaults(func=cmd_pulse)

    p = sub.add_parser("causality", parents=[out, preset, grid],
                       help="pre-arrival energy fractions of synthesized waves")
    p.add_argument("--r", type=float, default=1.0, help="distance, cm")
    p.add_argument("--m", type=float, default=100.0,
                   help="band edge M for the truncated power law, rad/us")
    p.set_defaults(func=cmd_causality)

    return parser


def _write(out, artifact, fmt):
    """Write one artifact into `out`: a table in `fmt`, a document as JSON; returns the path."""
    if len(artifact) == 2:
        filename, doc = artifact
        return write_json(out / filename, doc)
    name, columns, comment = artifact
    return write_table(out / name, list(columns), list(columns.values()), comment, fmt)


def main(argv=None):
    """Run one command and write its artifacts; the exit code (argparse exits 2 itself)."""
    args = build_parser().parse_args(argv)
    try:
        artifacts = args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for artifact in artifacts:
        print(f"wrote {_write(out, artifact, getattr(args, 'format', 'csv'))}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
