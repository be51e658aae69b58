"""Command-line front end: tables, figure data, bound reports, pulses.

Every command computes its artifacts deterministically and returns
them, without writing: a table as (name, {column: values}, comment),
a document as (filename, dict).  `main` alone writes, through
`lossywave.tables`: tables as CSV or JSON by --format, documents as
JSON.  Floats in CSV files carry 17 significant digits; identical
invocations produce byte-identical output.  Each subcommand accepts
only the flags it reads.  The parser is built once per process, on the
first call of `main`, and reused: parsing does not change it.
Every command reads `laws`, `numerics` and `tables`, imported here;
`spectrum`, `bounds` and `timedomain` are imported by the commands that
run them, so a process loads only the modules its commands read.

Exit codes: 0 success, 2 usage error (also a grid or table that does not
fit in memory), 3 numerical failure.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__
from .laws import (alpha_parts, load_preset, phase_speed, powerlaw_phase_singularity,
                   small_frequency_bound)
from .numerics import QUADRATURE_RTOL, NumericalError
from .tables import write_json, write_table


def _fmt(x):
    return f"{x:.17g}"


def _parse_floats(text, what):
    items = [s for s in text.split(",") if s.strip()]
    if not items:
        raise ValueError(f"{what} must contain at least one value")
    return [float(s) for s in items]


def _log10_pair(name, log10):
    """{name: 10**log10, log10_name: log10}: a reported value is formed from its log10 once."""
    return {name: 10.0**log10, f"log10_{name}": log10}


def _preset_dict(preset):
    return {"name": preset.name, **asdict(preset.causal),
            "a1": preset.powerlaw.a1, "a2": preset.powerlaw.a2}


def cmd_table1(args):
    gammas = _parse_floats(args.gammas, "--gammas")
    bounds = [small_frequency_bound(g, args.tau0, args.threshold) for g in gammas]
    return [("table1", {"gamma": gammas, "bound_M": bounds},
             f"tau0={_fmt(args.tau0)} threshold={_fmt(args.threshold)}")]


def cmd_table2(args):
    from .spectrum import energy_profiles, relative_model_errors

    preset = load_preset(args.preset)
    r_list = _parse_floats(args.r_list, "--r-list")
    m = args.m
    errors = relative_model_errors(energy_profiles(preset.causal, r_list, m), m)
    return [("table2", {"r": r_list, "model_error": errors},
             f"preset={preset.name} M={_fmt(m)}")]


def _check_curves(fig, columns):
    """Raise NumericalError naming the first column of a `fig` table that is not finite."""
    for name, values in columns.items():
        if not np.isfinite(values).all():
            omega = columns["omega"][~np.isfinite(values)][0]
            raise NumericalError(f"the {fig} curve {name} is not finite at "
                                 f"omega={float(omega)!r}")


def _curves(preset, fig, w_att, w_spd, att_note="", spd_note=""):
    """Attenuation and phase-speed tables of both laws, `fig`_attenuation and `fig`_phasespeed.

    Raises NumericalError where a curve is not finite: a law whose values
    leave the doubles on the grid.  The attenuation is checked before the
    phase speeds are formed, which raise where the wavenumber leaves them.
    """
    both = (preset.causal, preset.powerlaw)
    att_c, att_pl = (alpha_parts(law, w_att)[0] for law in both)
    attenuation = {"omega": w_att, "attenuation_causal": att_c, "attenuation_powerlaw": att_pl}
    _check_curves(fig, attenuation)
    spd_c, spd_pl = (phase_speed(law, w_spd) for law in both)
    speed = {"omega": w_spd, "speed_causal": spd_c, "speed_powerlaw": spd_pl}
    _check_curves(fig, speed)
    return [(f"{fig}_attenuation", attenuation, f"preset={preset.name}{att_note}"),
            (f"{fig}_phasespeed", speed, f"preset={preset.name}{spd_note}")]


def cmd_fig1(args):
    return _curves(load_preset(args.preset), "fig1", np.linspace(0.0, 60.0, 601),
                   np.linspace(0.1, 60.0, 600))


def cmd_fig2(args):
    preset = load_preset(args.preset)
    w = np.geomspace(1.0, 1e8, 961)
    # a gamma = 2 power law has no phase-speed pole: the marker is left out
    marker = ("" if preset.powerlaw.gamma == 2.0 else
              f" phase_speed_pole_omega={_fmt(powerlaw_phase_singularity(preset.powerlaw))}")
    return _curves(preset, "fig2", w, w, " log grid", marker)


def cmd_fig3(args):
    from .spectrum import check_band_edge, deviation_factor, energies_at, energy_profiles

    preset = load_preset(args.preset)
    r, m = args.r, args.m
    check_band_edge(m)
    if not 0.5 < 2.0 * m < math.inf:
        raise ValueError(f"fig3 plots band edges from 0.5 to 2M, so M must exceed 0.25 "
                         f"and 2M must be a finite double, got M={m!r}")
    m0 = np.linspace(0.5, 2.0 * m, 100)
    # one energy profile of [0, 2M] read at every band edge; the
    # absolute norm carries the prefactor 1/(4*pi*r) of G_hat
    energy, = energies_at(energy_profiles(preset.causal, [r], 2.0 * m), m0)
    w = np.linspace(0.0, m, 501)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):  # checked below
        g_curve = np.sqrt(2.0 * energy) / (4.0 * math.pi * r)
        dev = deviation_factor(preset.causal, r, w)
    if not np.all(np.isfinite(g_curve)):
        raise NumericalError(f"the band norm at r={r!r} exceeds the largest double")
    if not np.all(np.isfinite(dev)):
        raise NumericalError(f"the deviation factor at r={r!r} overflows on [0.0, {m!r}]")
    comment = f"preset={preset.name} r={_fmt(r)}"
    return [("fig3_bandnorm", {"m0": m0, "band_norm": g_curve}, comment),
            ("fig3_deviation", {"omega": w, "deviation_factor": dev}, comment)]


def cmd_bounds(args):
    from .bounds import (ENVELOPE_GRID_POINTS, SUPREMUM_RTOL, EnvelopeBoundConstants,
                         corrected_truncation_error_bound, log10_truncation_error_bound,
                         model_error_reports, verify_envelope)
    from .spectrum import BAND_EDGE_RTOL, energy_profiles, log10_truncation_errors

    preset = load_preset(args.preset)
    r_list = _parse_floats(args.r_list, "--r-list")
    constants = EnvelopeBoundConstants(preset.causal, args.m, args.slope_factor)
    profiles = energy_profiles(preset.causal, r_list)
    reports = model_error_reports(profiles, args.m, args.delta)
    corrected = [corrected_truncation_error_bound(constants, r) for r in r_list]
    truncation = log10_truncation_errors(profiles, args.m)
    per_r = []
    for r, profile, report, bound, log10_error in zip(r_list, profiles, reports, corrected,
                                                      truncation):
        per_r.append({
            "r": r,
            "tail_cut": profile.top,
            **_log10_pair("truncation_bound", log10_truncation_error_bound(constants, r)),
            "corrected_truncation_bound": {**asdict(bound),
                                           **_log10_pair("bound", bound.log10_bound)},
            **_log10_pair("truncation_error", log10_error),
            "model_error_report": asdict(report),
        })
    c = constants
    doc = {
        "preset": _preset_dict(preset),
        "m": args.m,
        "delta": args.delta,
        "settings": {
            "quadrature_rtol": QUADRATURE_RTOL,
            "energy_equation_rtol": BAND_EDGE_RTOL,
            "envelope_grid_points": ENVELOPE_GRID_POINTS,
            "supremum_rtol": SUPREMUM_RTOL,
            "slope_factor": args.slope_factor,
        },
        "envelope_constants": {name: getattr(c, name) for name in (
            "m", "a0", "a1", "a2", "alpha_m", "bound_coefficient", "bound_decay_rate")},
        "truncation_bound_form": "published closed form; undercuts the exact error, "
                                 "see corrected_truncation_bound",
        # the corrected bound uses the linear lower envelope on [m, split] and
        # the analytic power envelope beyond; neither depends on r
        "corrected_bound_envelope": {
            "split": c.split,
            "linear_envelope": asdict(verify_envelope(c, max(c.split, 1.0001 * args.m))),
            "power_envelope_kappa": c.kappa,
            "power_envelope_exponent": c.exponent,
        },
        "per_distance": per_r,
    }
    return [("bounds.json", doc)]


def cmd_pulse(args):
    from .spectrum import FrequencyGrid
    from .timedomain import ForcingSignal, forward_point_source

    preset = load_preset(args.preset)
    law = preset.causal if args.law == "causal" else preset.powerlaw
    forcing = ForcingSignal(kind=args.kind, center=args.center, width=args.width,
                            carrier=args.carrier)
    grid = FrequencyGrid(omega_max=args.omega_max, n=args.samples)
    signal = forward_point_source(law, args.r, forcing, grid)
    comment = (f"r={_fmt(signal.r)} law={law.tag} t0=0 dt={_fmt(signal.dt)} "
               f"n={len(signal.samples)} omega_max={_fmt(args.omega_max)} "
               f"samples={args.samples} convention=forward-kernel exp(+i w t), "
               "unitary 1/sqrt(2 pi)")
    return [("pulse", {"t": signal.times(), "value": signal.samples}, comment)]


def cmd_causality(args):
    from .spectrum import FrequencyGrid
    from .timedomain import pre_arrival_fractions

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
    for key, law, band_edge in (("causal", preset.causal, None),
                                ("truncated_powerlaw", preset.powerlaw, args.m)):
        raw, guarded, guard = pre_arrival_fractions(law, args.r, grid, band_edge, arrival)
        doc[key] = {"raw_fraction": raw, "guarded_fraction": guarded, "guard": guard}
    return [("causality.json", doc)]


@functools.cache
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


def _memory_needed(args):
    """The memory a command's grid needs, if it has one: 16 bytes a sample.

    That is its half spectrum of n/2 + 1 complex values and its signal of n reals.
    """
    n = getattr(args, "samples", None)
    if n is None:
        return ""
    return f": --samples {n} needs about {16 * n} bytes, a half spectrum and a signal"


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
    except MemoryError:
        print(f"error: out of memory{_memory_needed(args)}", file=sys.stderr)
        return 2
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for artifact in artifacts:
        print(f"wrote {_write(out, artifact, getattr(args, 'format', 'csv'))}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
