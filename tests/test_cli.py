import argparse
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from lossywave import FrequencyGrid, ForcingSignal, builtin_preset, green_hat
from lossywave import bounds, cli, laws, numerics, spectrum


def run_cli(*args, cwd=None):
    return subprocess.run([sys.executable, "-m", "lossywave", *args],
                          capture_output=True, text=True, cwd=cwd)


def load_csv(path, skiprows=2):
    return np.loadtxt(path, delimiter=",", skiprows=skiprows, ndmin=2)


class TestTable1:
    def test_reference_rows(self, tmp_path):
        proc = run_cli("table1", "--out", str(tmp_path))
        assert proc.returncode == 0, proc.stderr
        data = load_csv(tmp_path / "table1.csv")
        assert data.shape == (3, 2)
        expected = {1.1: 1e-4, 1.5: 1e4, 2.0: 1e5}
        for gamma, bound in data:
            assert bound == pytest.approx(expected[round(gamma, 3)], rel=1e-12)

    def test_single_gamma(self, tmp_path):
        proc = run_cli("table1", "--gammas", "1.5", "--out", str(tmp_path))
        assert proc.returncode == 0
        assert load_csv(tmp_path / "table1.csv").shape == (1, 2)

    def test_custom_threshold(self, tmp_path):
        proc = run_cli("table1", "--gammas", "1.5", "--threshold", "0.01",
                       "--out", str(tmp_path))
        assert proc.returncode == 0
        data = load_csv(tmp_path / "table1.csv")
        assert data[0, 1] == pytest.approx(1e2, rel=1e-12)

    def test_json_format(self, tmp_path):
        proc = run_cli("table1", "--gammas", "1.5", "--format", "json",
                       "--out", str(tmp_path))
        assert proc.returncode == 0
        doc = json.loads((tmp_path / "table1.json").read_text())
        assert doc["comment"] == "tau0=9.9999999999999995e-07 threshold=0.10000000000000001"
        assert doc["rows"][0]["bound_M"] == pytest.approx(1e4, rel=1e-12)

    def test_invalid_gamma_exits_2(self, tmp_path):
        proc = run_cli("table1", "--gammas", "0.9", "--out", str(tmp_path))
        assert proc.returncode == 2
        assert not (tmp_path / "table1.csv").exists()

    @pytest.mark.parametrize("flag,value,message", [
        ("--gammas", "inf", "gamma must lie in (1, 2], got inf"),
        ("--gammas", "inf,3", "gamma must lie in (1, 2], got inf"),
        ("--gammas", "1.5,2.5", "gamma must lie in (1, 2], got 2.5"),
        ("--tau0", "inf", "tau0 must be finite and positive, got inf"),
        ("--tau0", "nan", "tau0 must be finite and positive, got nan"),
        ("--tau0", "0", "tau0 must be finite and positive, got 0.0")])
    def test_outside_the_law_domain_exits_2(self, tmp_path, capsys, flag, value, message):
        # tau0 = inf wrote bound_M = 0, gamma = inf and 3 wrote rows
        assert cli.main(["table1", flag, value, "--out", str(tmp_path)]) == 2
        assert message in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_bound_beyond_the_largest_double_exits_3(self, tmp_path, capsys):
        # 0.1**10 / 1e-320 is not a double: it wrote inf
        assert cli.main(["table1", "--tau0", "1e-320", "--out", str(tmp_path)]) == 3
        assert "exceeds the largest double" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_bound_below_the_smallest_normal_double_exits_3(self, tmp_path, capsys):
        # 0.1**10000 / 1e-6 underflows: it wrote bound_M 0
        assert cli.main(["table1", "--gammas", "1.0001", "--out", str(tmp_path)]) == 3
        assert "lies below the smallest normal double" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())


class TestTable2:
    def test_single_distance(self, tmp_path):
        proc = run_cli("table2", "--r-list", "1e-3", "--out", str(tmp_path))
        assert proc.returncode == 0, proc.stderr
        data = load_csv(tmp_path / "table2.csv")
        assert data.shape == (1, 2)
        assert data[0, 1] == pytest.approx(7.35e-5, rel=0.1)

    def test_empty_r_list_is_usage_error(self, tmp_path):
        proc = run_cli("table2", "--r-list", "", "--out", str(tmp_path))
        assert proc.returncode == 2
        assert not (tmp_path / "table2.csv").exists()

    def test_preset_file(self, tmp_path):
        preset = {"name": "demo", "gamma": 1.5, "c0": 1.0, "alpha1": 2.0, "tau0": 1e-3}
        path = tmp_path / "demo.json"
        path.write_text(json.dumps(preset))
        proc = run_cli("table2", "--preset", str(path), "--r-list", "0.1",
                       "--out", str(tmp_path))
        assert proc.returncode == 0, proc.stderr
        assert "preset=demo" in (tmp_path / "table2.csv").read_text().splitlines()[0]

    def test_unknown_preset_exits_2(self, tmp_path):
        proc = run_cli("table2", "--preset", "nonexistent", "--out", str(tmp_path))
        assert proc.returncode == 2


# the values of every flag a subcommand does not read, which argparse rejects
REMOVED_FLAGS = [
    ("table1", "--preset", "castor-oil"), ("table1", "--omega-max", "400"),
    ("table1", "--samples", "1024"), ("table2", "--omega-max", "400"),
    ("table2", "--samples", "5"),
    *[(fig, flag, value) for fig in ("fig1", "fig2")
      for flag, value in (("--omega-max", "400"), ("--samples", "1024"), ("--r", "-5"),
                          ("--m", "nan"))],
    ("fig3", "--omega-max", "400"), ("fig3", "--samples", "1024"),
    ("bounds", "--format", "json"), ("bounds", "--omega-max", "400"),
    ("bounds", "--samples", "1024"), ("causality", "--format", "json"),
]

# small but complete runs of every command that writes tables
TABLE_COMMANDS = [["table1"], ["table2", "--r-list", "1e-3,1"], ["fig1"], ["fig2"], ["fig3"],
                  ["pulse", "--omega-max", "200", "--samples", "4096", "--center", "3"]]


class TestArtifacts:
    """`main` writes every artifact; each subcommand accepts only the flags it reads."""

    def test_settable_flag_count(self):
        assert len(REMOVED_FLAGS) == 19
        subparsers = next(a for a in cli.build_parser()._actions
                          if isinstance(a, argparse._SubParsersAction))
        flags = [opt for p in subparsers.choices.values() for a in p._actions
                 if a.dest != "help" for opt in a.option_strings[:1]]
        assert len(flags) == 44

    @pytest.mark.parametrize("command,flag,value", REMOVED_FLAGS)
    def test_unread_flag_exits_2(self, tmp_path, capsys, command, flag, value):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            cli.main([command, flag, value, "--out", str(out)])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", TABLE_COMMANDS, ids=lambda argv: argv[0])
    def test_json_format_rows_equal_csv_values(self, tmp_path, capsys, argv):
        assert cli.main([*argv, "--out", str(tmp_path / "csv")]) == 0
        assert cli.main([*argv, "--format", "json", "--out", str(tmp_path / "json")]) == 0
        tables = sorted(path.stem for path in (tmp_path / "csv").iterdir())
        assert tables
        assert sorted(path.name for path in (tmp_path / "json").iterdir()) == \
            [f"{name}.json" for name in tables]
        for name in tables:
            path = tmp_path / "csv" / f"{name}.csv"
            comment, header = path.read_text().splitlines()[:2]
            doc = json.loads((tmp_path / "json" / f"{name}.json").read_text())
            assert comment == f"# {doc['comment']}"
            assert [[row[key] for key in header.split(",")] for row in doc["rows"]] == \
                load_csv(path).tolist()

    def test_json_pulse_keeps_its_grid(self, tmp_path, capsys):
        # a JSON table carries the comment a CSV file has as its first line
        argv = ["pulse", "--omega-max", "200", "--samples", "64", "--center", "3"]
        assert cli.main([*argv, "--format", "json", "--out", str(tmp_path)]) == 0
        doc = json.loads((tmp_path / "pulse.json").read_text())
        fields = dict(item.split("=", 1) for item in doc["comment"].split() if "=" in item)
        assert float(fields["dt"]) == math.pi / 200.0
        assert fields["r"] == "1" and fields["law"] == "causal" and fields["t0"] == "0"
        times = [row["t"] for row in doc["rows"]]
        assert times == (float(fields["dt"]) * np.arange(64)).tolist()

    @pytest.mark.parametrize("argv,code", [(["fig3", "--m", "0.2"], 2),
                                           (["pulse", "--center", "inf"], 2),
                                           (["bounds", "--r-list", "1e-300"], 3)])
    def test_failure_leaves_no_output_directory(self, tmp_path, capsys, argv, code):
        out = tmp_path / "new" / "out"
        assert cli.main([*argv, "--out", str(out)]) == code
        assert capsys.readouterr().out == ""
        assert not (tmp_path / "new").exists()

    def test_non_finite_values_written_as_null(self, tmp_path, capsys):
        # at M = 1e300 the linear lower envelope overflows: it fails by inf
        assert cli.main(["bounds", "--m", "1e300", "--r-list", "1", "--out", str(tmp_path)]) == 0
        text = (tmp_path / "bounds.json").read_text()
        assert "Infinity" not in text and "NaN" not in text
        envelope = json.loads(text)["corrected_bound_envelope"]["linear_envelope"]
        assert envelope["worst_lower_violation"] is None
        assert not envelope["holds_lower"]


class TestParserCache:
    """`main` parses with one parser per process, and one call leaves nothing to the next."""

    def test_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_import_leaves_the_parser_unbuilt(self):
        src = str(Path(cli.__file__).parents[1])
        probe = "import lossywave.cli; print(lossywave.cli.build_parser.cache_info().currsize)"
        out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                             check=True, env={**os.environ, "PYTHONPATH": src})
        assert out.stdout.strip() == "0"

    def test_successive_calls_are_independent(self, tmp_path, capsys):
        proc = run_cli("fig3", "--out", str(tmp_path / "lone"))
        assert proc.returncode == 0, proc.stderr
        assert cli.main(["fig3", "--r", "2", "--format", "json",
                         "--out", str(tmp_path / "r2")]) == 0
        assert cli.main(["fig3", "--out", str(tmp_path / "next")]) == 0
        for name in ("fig3_bandnorm.csv", "fig3_deviation.csv"):
            assert (tmp_path / "next" / name).read_bytes() == \
                (tmp_path / "lone" / name).read_bytes()

    def test_unread_flags_exit_2_after_other_commands(self, tmp_path, capsys):
        for argv in (["table1"], ["fig3", "--r", "2", "--m", "50"],
                     ["pulse", "--omega-max", "200", "--samples", "64", "--center", "3"]):
            assert cli.main([*argv, "--out", str(tmp_path / "ran")]) == 0
        capsys.readouterr()
        for command, flag, value in REMOVED_FLAGS:
            with pytest.raises(SystemExit) as exc:
                cli.main([command, flag, value, "--out", str(tmp_path / "rejected")])
            assert exc.value.code == 2
            assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
        assert not (tmp_path / "rejected").exists()


class TestDeterminism:
    def test_byte_identical_reruns(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        grid = ("--omega-max", "200", "--samples", "4096")
        for out in (out1, out2):
            proc = run_cli("table2", "--r-list", "1e-2,1", "--out", str(out))
            assert proc.returncode == 0, proc.stderr
            proc = run_cli("fig1", "--out", str(out))
            assert proc.returncode == 0, proc.stderr
            proc = run_cli("pulse", *grid, "--kind", "gaussian-modulated-sine", "--center", "3",
                           "--out", str(out))
            assert proc.returncode == 0, proc.stderr
            proc = run_cli("causality", *grid, "--r", "0.1", "--out", str(out))
            assert proc.returncode == 0, proc.stderr
        for name in ("table2.csv", "fig1_attenuation.csv", "fig1_phasespeed.csv",
                     "pulse.csv", "causality.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


class TestFigures:
    def test_fig1_attenuations_agree_to_two_percent(self, tmp_path):
        proc = run_cli("fig1", "--out", str(tmp_path))
        assert proc.returncode == 0, proc.stderr
        data = load_csv(tmp_path / "fig1_attenuation.csv")
        w, att_c, att_pl = data[:, 0], data[:, 1], data[:, 2]
        mask = w > 0
        assert np.max(np.abs(att_c[mask] - att_pl[mask]) / att_pl[mask]) <= 0.02

    def test_fig2_has_pole_marker(self, tmp_path):
        proc = run_cli("fig2", "--out", str(tmp_path))
        assert proc.returncode == 0, proc.stderr
        header = (tmp_path / "fig2_phasespeed.csv").read_text().splitlines()[0]
        assert "phase_speed_pole_omega=" in header
        pole = float(header.split("phase_speed_pole_omega=")[1].split()[0])
        assert 7.79e6 <= pole <= 8.11e6

    def test_fig2_gamma_two_leaves_out_pole_marker(self, tmp_path):
        # a gamma = 2 power law has no phase-speed pole; the curves are still defined
        preset = {"name": "quadratic", "gamma": 2.0, "c0": 0.15, "alpha1": 138.08, "tau0": 1e-6}
        path = tmp_path / "quadratic.json"
        path.write_text(json.dumps(preset))
        proc = run_cli("fig2", "--preset", str(path), "--out", str(tmp_path))
        assert proc.returncode == 0, proc.stderr
        header = (tmp_path / "fig2_phasespeed.csv").read_text().splitlines()[0]
        assert header == "# preset=quadratic"
        for name in ("fig2_attenuation.csv", "fig2_phasespeed.csv"):
            data = load_csv(tmp_path / name)
            assert data.shape == (961, 3)
            assert np.all(np.isfinite(data))

    @pytest.mark.parametrize("r", [1e10, 1e100, 1e300])
    def test_fig3_band_norm_where_the_first_slice_underflowed(self, tmp_path, capsys, r):
        # every node of one 15-node panel over [0, 0.5] lies beyond the decay
        # here, so slice-by-slice quadrature wrote 0.0; the profile grades
        # its panels toward 0 over [0, tail cut]
        assert cli.main(["fig3", "--r", repr(r), "--out", str(tmp_path)]) == 0, \
            capsys.readouterr().err
        m0, g = load_csv(tmp_path / "fig3_bandnorm.csv").T
        assert np.all(np.diff(g) >= 0.0)
        law = builtin_preset("castor-oil").causal
        for i in (0, 37, 99):
            want = spectrum.energy_profiles(law, [r], m0[i])[0].norm
            assert g[i] == pytest.approx(want, rel=1e-9, abs=0.0)
        # at r = 1e300 the norm, about 2.4e-391, lies below the smallest double
        if spectrum.energy_profiles(law, [r], 0.5)[0].norm > 0.0:
            assert np.all(g > 0.0)

    def test_fig3_band_norm_monotone(self, tmp_path):
        proc = run_cli("fig3", "--out", str(tmp_path))
        assert proc.returncode == 0, proc.stderr
        g = load_csv(tmp_path / "fig3_bandnorm.csv")[:, 1]
        assert np.all(np.diff(g) >= 0.0)
        dev = load_csv(tmp_path / "fig3_deviation.csv")
        assert dev.shape[0] == 501


class TestBoundsCommand:
    def test_report_contents(self, tmp_path):
        proc = run_cli("bounds", "--r-list", "1e-6,1", "--out", str(tmp_path))
        assert proc.returncode == 0, proc.stderr
        doc = json.loads((tmp_path / "bounds.json").read_text())
        assert doc["preset"]["name"] == "castor-oil"
        assert doc["envelope_constants"]["bound_decay_rate"] == pytest.approx(4.877e6, rel=2e-3)
        assert "bound_coefficient" in doc["envelope_constants"]
        assert doc["settings"]["quadrature_rtol"] == 1e-12
        assert doc["settings"]["supremum_rtol"] == 1e-7
        assert "energy_pass_rtol" not in doc["settings"]
        assert "deviation_scan_points" not in doc["settings"]
        by_r = {entry["r"]: entry for entry in doc["per_distance"]}
        # the envelope is checked once, on the range the corrected bound uses
        assert not any("envelope" in entry for entry in doc["per_distance"])
        assert doc["corrected_bound_envelope"]["linear_envelope"]["holds_lower"]
        assert doc["corrected_bound_envelope"]["linear_envelope"]["holds_upper"]
        report = by_r[1.0]["model_error_report"]
        assert 0.0125 <= report["bound"] <= 0.05
        assert by_r[1e-6]["truncation_error"] <= 1.0

    def test_log10_fields_at_large_distance(self, tmp_path):
        proc = run_cli("bounds", "--r-list", "10", "--out", str(tmp_path))
        assert proc.returncode == 0, proc.stderr
        doc = json.loads((tmp_path / "bounds.json").read_text())
        assert doc["truncation_bound_form"].startswith("published")
        assert doc["corrected_bound_envelope"]["linear_envelope"]["holds_lower"]
        entry = doc["per_distance"][0]
        # the linear values underflow; the log10 values tell them apart
        assert entry["truncation_bound"] == entry["truncation_error"] == 0.0
        corrected = entry["corrected_truncation_bound"]["log10_bound"]
        assert corrected == pytest.approx(-391.99, abs=0.01)
        assert entry["log10_truncation_error"] == pytest.approx(-394.20, abs=0.01)
        assert entry["log10_truncation_bound"] < entry["log10_truncation_error"] < corrected

    def test_truncation_error_is_not_flushed_to_zero(self, tmp_path):
        # the exact error 2.07e-269 is a double; its energy ratio (~4e-538) is not
        proc = run_cli("bounds", "--r-list", "10", "--m", "79.333", "--out", str(tmp_path))
        assert proc.returncode == 0, proc.stderr
        entry = json.loads((tmp_path / "bounds.json").read_text())["per_distance"][0]
        assert entry["truncation_error"] == pytest.approx(
            10.0 ** entry["log10_truncation_error"], rel=1e-12, abs=0.0)
        assert entry["truncation_error"] == pytest.approx(2.0734e-269, rel=1e-4, abs=0.0)

    def test_each_linear_field_is_its_log10_raised(self, tmp_path, capsys):
        # a reported value X beside its log10_X is written once, as 10**log10_X
        assert cli.main(["bounds", "--m", "79.333", "--r-list", "1e-6,1,10",
                         "--out", str(tmp_path)]) == 0, capsys.readouterr().err
        doc = json.loads((tmp_path / "bounds.json").read_text())
        pairs = []

        def walk(node, path):
            if isinstance(node, list):
                for item in node:
                    walk(item, path)
            elif isinstance(node, dict):
                for key, value in node.items():
                    if key.startswith("log10_") and key[len("log10_"):] in node:
                        name = key[len("log10_"):]
                        pairs.append(".".join((*path, name)))
                        assert node[name] == 10.0**value, (path, name)
                    walk(value, (*path, key))

        walk(doc, ())
        assert sorted(pairs) == sorted(
            3 * ["per_distance.truncation_bound", "per_distance.truncation_error",
                 "per_distance.corrected_truncation_bound.bound"])

    def test_outer_peak_found_at_large_distance(self, tmp_path, capsys):
        # the peak of C sits just above m_delta, at w ~ 2e-15 ... 2e-127; a
        # uniform grid on [m_delta, 100] reported 1.022631 at 1e40 and 1.0 beyond
        assert cli.main(["bounds", "--r-list", "1e40,1e50,1e300", "--out", str(tmp_path)]) == 0
        doc = json.loads((tmp_path / "bounds.json").read_text())
        for entry in doc["per_distance"]:
            report = entry["model_error_report"]
            assert report["d2_max_c"] >= 1.0227256, entry["r"]
            assert report["m_delta"] < report["omega_at_d2"] < 1e-14

    def test_envelope_blocks_are_the_constants_fields(self, tmp_path, capsys):
        # cmd_bounds writes both blocks field by field, in this key order
        assert cli.main(["bounds", "--m", "70", "--slope-factor", "0.3", "--r-list", "1",
                         "--out", str(tmp_path)]) == 0, capsys.readouterr().err
        doc = json.loads((tmp_path / "bounds.json").read_text())
        c = bounds.EnvelopeBoundConstants(laws.load_preset("castor-oil").causal, 70.0, 0.3)
        constants = doc["envelope_constants"]
        assert list(constants) == ["m", "a0", "a1", "a2", "alpha_m", "bound_coefficient",
                                   "bound_decay_rate"]
        assert constants == {name: getattr(c, name) for name in constants}
        envelope = doc["corrected_bound_envelope"]
        assert list(envelope) == ["split", "linear_envelope", "power_envelope_kappa",
                                  "power_envelope_exponent"]
        assert (envelope["split"], envelope["power_envelope_kappa"],
                envelope["power_envelope_exponent"]) == (c.split, c.kappa, c.exponent)
        assert envelope["linear_envelope"] == asdict(bounds.verify_envelope(c, c.split))

    def test_empty_r_list_exits_2(self, tmp_path):
        proc = run_cli("bounds", "--r-list", ",", "--out", str(tmp_path))
        assert proc.returncode == 2
        assert not (tmp_path / "bounds.json").exists()

    @pytest.mark.parametrize("flag,value", [("--m", "1e-300"), ("--m", "1e-30"),
                                            ("--slope-factor", "1e300"),
                                            ("--slope-factor", "1e-300")])
    def test_extreme_lower_envelope_slopes_exit_0(self, tmp_path, capsys, flag, value):
        # a0**2 underflowed (ZeroDivisionError) or overflowed (OverflowError)
        # in the bound coefficient at the first two slopes
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert cli.main(["bounds", flag, value, "--r-list", "1", "--out", str(tmp_path)]) \
                == 0, capsys.readouterr().err
        doc = json.loads((tmp_path / "bounds.json").read_text())
        assert 0.0 < doc["envelope_constants"]["bound_coefficient"] < math.inf

    @pytest.mark.parametrize("factor", ["nan", "0", "-1"])
    def test_invalid_slope_factor_exits_2(self, tmp_path, capsys, factor):
        assert cli.main(["bounds", f"--slope-factor={factor}", "--out", str(tmp_path)]) == 2
        assert (f"slope_factor must be finite and positive, got {float(factor)!r}"
                in capsys.readouterr().err)
        assert not (tmp_path / "bounds.json").exists()


class TestPulseAndCausality:
    def test_pulse_writes_signal(self, tmp_path):
        proc = run_cli("pulse", "--omega-max", "200", "--samples", "16384",
                       "--center", "3", "--width", "0.5", "--out", str(tmp_path))
        assert proc.returncode == 0, proc.stderr
        header = (tmp_path / "pulse.csv").read_text().splitlines()[:2]
        assert header[0].startswith("# r=1 law=causal t0=0 dt=")
        assert header[0].endswith("convention=forward-kernel exp(+i w t), unitary 1/sqrt(2 pi)")
        assert header[1] == "t,value"
        data = load_csv(tmp_path / "pulse.csv")
        assert data.shape == (16384, 2)
        assert np.max(np.abs(data[:, 1])) > 0.0

    def test_pulse_on_non_round_grid(self, tmp_path):
        # this grid used to fail a 1e-12 Hermitian check that rounding in the
        # full grid's negative nodes broke; the half grid has no such check
        r, w_max, n = 0.0072, 1800.399, 2**18
        forcing = ForcingSignal("gaussian-modulated-sine", center=0.088, width=0.011,
                                carrier=400.0)
        proc = run_cli("pulse", "--kind", forcing.kind, "--r", str(r), "--omega-max", str(w_max),
                       "--samples", str(n), "--center", str(forcing.center),
                       "--width", str(forcing.width), "--carrier", str(forcing.carrier),
                       "--out", str(tmp_path))
        assert proc.returncode == 0, proc.stderr
        g = load_csv(tmp_path / "pulse.csv")[:, 1]
        # discrete Parseval against the spectrum on the full grid
        # w_k = -W + k*dw, whose lone -W node carries its real part
        dw = FrequencyGrid(w_max, n).delta_omega
        w = dw * (np.arange(n) - n // 2)
        law = builtin_preset("castor-oil").causal
        values = green_hat(law, r, w) * math.sqrt(2.0 * math.pi) * forcing.spectrum(w)
        values[0] = values[0].real
        energy = float(np.sum(np.abs(values) ** 2)) * dw
        assert float(np.sum(g * g)) * (math.pi / w_max) == pytest.approx(energy, rel=1e-12)

    @pytest.mark.parametrize("forcing", [["--center", "inf"], ["--center", "nan"],
                                         ["--kind", "gaussian-modulated-sine", "--carrier", "nan"],
                                         ["--width", "inf"]])
    def test_pulse_non_finite_forcing_exits_2(self, tmp_path, forcing):
        proc = run_cli("pulse", "--omega-max", "200", "--samples", "64", *forcing,
                       "--out", str(tmp_path))
        assert proc.returncode == 2
        assert "forcing center, width and carrier must be finite" in proc.stderr
        assert not (tmp_path / "pulse.csv").exists()

    def test_pulse_beyond_the_gaussian_range_warns_nothing(self, tmp_path, capsys):
        # (w*width)**2 overflows at these nodes, where the envelope exp(-inf) = 0 is exact
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert cli.main(["pulse", "--omega-max", "1e300", "--samples", "16",
                             "--out", str(tmp_path)]) == 0, capsys.readouterr().err
        assert np.all(np.isfinite(load_csv(tmp_path / "pulse.csv")))

    def test_pulse_forcing_missed_by_every_node_exits_2(self, tmp_path, capsys):
        # the spacing 1250 steps over the band around the carrier 10, and the
        # modulated sine has no energy at 0: it said "raise omega_max"
        assert cli.main(["pulse", "--kind", "gaussian-modulated-sine", "--omega-max", "1e4",
                         "--samples", "16", "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "2*omega_max/n = 1250.0 is too coarse, raise n" in err
        assert "raise omega_max" not in err
        assert not list(tmp_path.iterdir())

    def test_pulse_band_violation_exits_2(self, tmp_path):
        proc = run_cli("pulse", "--omega-max", "2", "--samples", "64",
                       "--width", "0.5", "--out", str(tmp_path))
        assert proc.returncode == 2

    @pytest.mark.parametrize("command", ["pulse", "causality"])
    @pytest.mark.parametrize("omega_max,spacing", [("1e308", "inf"), ("5e-324", "0.0")])
    def test_grid_spacing_beyond_the_doubles_exits_2(self, tmp_path, capsys, command, omega_max,
                                                     spacing):
        # 2*omega_max/n overflows or underflows: the grid names omega_max, without numpy's
        # "invalid value encountered in multiply" (once "omega must be finite")
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main([command, "--omega-max", omega_max, "--samples", "16",
                             "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: omega_max={float(omega_max)!r} makes the node spacing 2*omega_max/n = "
            f"{spacing} at n=16: it must be finite and positive\n")
        assert not out.exists()

    def test_causality_energy_beyond_the_doubles_exits_3(self, tmp_path, capsys):
        # at omega_max = 1e160 the squares of the synthesized samples leave the doubles (once
        # an overflow warning and null fractions at exit 0); at 1e156 they do not
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert cli.main(["causality", "--omega-max", "1e160", "--samples", "64",
                             "--out", str(out)]) == 3
            assert capsys.readouterr().err == (
                "numerical failure: the energy of the synthesized signal exceeds the largest "
                "double at omega_max=1e+160, n=64\n")
            assert cli.main(["causality", "--omega-max", "1e156", "--samples", "64",
                             "--out", str(tmp_path / "finite")]) == 0
        assert not out.exists()
        doc = json.loads((tmp_path / "finite" / "causality.json").read_text())
        assert all(math.isfinite(doc[key][name]) for key in ("causal", "truncated_powerlaw")
                   for name in ("raw_fraction", "guarded_fraction"))

    def test_causality_report(self, tmp_path):
        proc = run_cli("causality", "--samples", "131072", "--out", str(tmp_path))
        assert proc.returncode == 0, proc.stderr
        doc = json.loads((tmp_path / "causality.json").read_text())
        assert doc["arrival"] == pytest.approx(1.0 / 0.15, rel=1e-12)
        for key in ("causal", "truncated_powerlaw"):
            entry = doc[key]
            assert 0.0 <= entry["guarded_fraction"] <= entry["raw_fraction"] <= 1.0
        assert doc["causal"]["guarded_fraction"] < 1e-6

    def test_causality_on_non_round_grid(self, tmp_path):
        proc = run_cli("causality", "--r", "0.017888", "--omega-max", "1046.324",
                       "--samples", "262144", "--out", str(tmp_path))
        assert proc.returncode == 0, proc.stderr
        doc = json.loads((tmp_path / "causality.json").read_text())
        assert doc["grid"] == {"omega_max": 1046.324, "n": 262144}
        assert 0.0 <= doc["causal"]["guarded_fraction"] < 1e-12
        assert 0.0 < doc["truncated_powerlaw"]["guarded_fraction"] < 1e-3


def _log10_fields(doc):
    if isinstance(doc, dict):
        for key, value in doc.items():
            if key.startswith("log10"):
                yield key, value
            yield from _log10_fields(value)
    elif isinstance(doc, list):
        for item in doc:
            yield from _log10_fields(item)


class TestDistanceContract:
    @pytest.mark.parametrize("command", ["table2", "bounds"])
    @pytest.mark.parametrize("r", ["nan", "inf", "0", "-1"])
    def test_invalid_distance_exits_2(self, tmp_path, command, r):
        proc = run_cli(command, f"--r-list={r}", "--out", str(tmp_path))
        assert proc.returncode == 2
        assert f"distance must be finite and positive, got r={float(r)!r}" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("command", ["table2", "bounds", "fig3"])
    @pytest.mark.parametrize("r", ["1e-300", "1e200", "1e300"])
    def test_extreme_distances_exit_cleanly(self, tmp_path, command, r):
        flag = "--r" if command == "fig3" else "--r-list"
        proc = run_cli(command, flag, r, "--out", str(tmp_path))
        assert proc.returncode in (0, 3), proc.stderr
        assert "Traceback" not in proc.stderr
        if command != "bounds":
            # band-limited quantities are finite at every distance
            assert proc.returncode == 0, proc.stderr
            name = "table2.csv" if command == "table2" else "fig3_bandnorm.csv"
            assert np.all(np.isfinite(load_csv(tmp_path / name)))
        elif proc.returncode == 0:
            doc = json.loads((tmp_path / "bounds.json").read_text())
            fields = list(_log10_fields(doc))
            assert fields
            assert all(value is not None and math.isfinite(value) for _, value in fields)
        else:
            assert proc.stderr.startswith("numerical failure:")

    @pytest.mark.parametrize("m", ["1e300", "1e306"])
    def test_slow_medium_at_extreme_band_edges_exits_cleanly(self, tmp_path, m):
        # tau0 = 10 puts |u| = 1e301 at M = 1e300, where the rise of the tail beyond M
        # must not overflow; at M = 1e306 the envelope slope a0 leaves the doubles
        path = tmp_path / "slow.json"
        path.write_text(json.dumps({"name": "slow", "gamma": 2.0, "c0": 0.15,
                                    "alpha1": 138.08, "tau0": 10.0}))
        proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m", "lossywave",
                               "bounds", "--preset", str(path), "--r-list", "1", "--m", m,
                               "--out", str(tmp_path)], capture_output=True, text=True)
        assert proc.returncode in (0, 3), proc.stderr
        if proc.returncode == 0:
            fields = list(_log10_fields(json.loads((tmp_path / "bounds.json").read_text())))
            assert fields
            assert all(value is not None and math.isfinite(value) for _, value in fields)
        else:
            assert proc.stderr.startswith("numerical failure:")

    @pytest.mark.parametrize("command", ["table2", "fig3", "bounds"])
    @pytest.mark.parametrize("m", ["nan", "inf", "0", "-5"])
    def test_invalid_band_edge_exits_2(self, tmp_path, capsys, command, m):
        assert cli.main([command, f"--m={m}", "--out", str(tmp_path)]) == 2
        assert f"band edge must be finite and positive, got M={float(m)!r}" in \
            capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_fig3_band_edges_must_rise(self, tmp_path, capsys):
        # fig3 plots band edges from 0.5 to 2M; below M = 0.25 they would fall, and
        # from M = 2**1023 on 2M overflows; either is refused before any sampling
        for m in ("0.2", "1e308"):
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                assert cli.main(["fig3", "--m", m, "--out", str(tmp_path)]) == 2
            assert ("so M must exceed 0.25 and 2M must be a finite double, "
                    f"got M={float(m)!r}") in capsys.readouterr().err
            assert not list(tmp_path.iterdir())

    # castor-oil bounds exits 0 from r = 1e-120 to 1e300, the narrow tails of
    # 1e5 ... 1e9 included; below, it exits 3 (a cut beyond the double range,
    # a law difference that overflows inside the band [0, m_delta])
    @pytest.mark.parametrize("r,code", [(f"1e{e}", 0 if e >= -120 else 3)
                                        for e in range(-300, 301, 10)]
                             + [(r, 0) for r in ("1e5", "1e6", "3e7", "5e7", "1e8",
                                                 "2e8", "5e8", "1e9")])
    def test_bounds_exit_code_across_decades(self, tmp_path, capsys, r, code):
        assert cli.main(["bounds", "--r-list", r, "--out", str(tmp_path)]) == code, \
            capsys.readouterr().err

    # (gamma, c0, alpha1, tau0), the command's flags and the failure it reports.  The
    # first five ended in a traceback: a2**2 overflowed in the first two (in the second
    # after an overflow warning for kappa), W = ref*exp(...) in the closure of the third,
    # the fourth indexed past the panels where delta times a subnormal line energy is 0,
    # and the phase-speed pole's power overflowed in the fifth
    @pytest.mark.parametrize("medium,argv,message", [
        ((1.05, 0.15, 1e300, 1e-300), ["bounds", "--m", "1e-3", "--r-list", "1"],
         "does not settle below the largest double"),
        ((1.3, 0.15, 1e300, 1e-300), ["bounds", "--m", "1e-3", "--r-list", "1"],
         "the power envelope's kappa at w=9.999999999999999e+299 exceeds the largest double"),
        ((1.3, 0.15, 1e100, 1e-300), ["bounds", "--m", "1e-3", "--r-list", "1"],
         "the deviation factor at r=1.0 overflows"),
        ((1.05, 1e-10, 1e100, 1e300), ["bounds", "--m", "1e-3", "--r-list", "1e300"],
         "the band edge at r=1e+300 is lost: delta times the line energy"),
        ((1.05, 1e-10, 1e-10, 1e-300), ["fig2"],
         "the phase-speed singularity exceeds the largest double"),
        # castor oil's c0, alpha1 and tau0 at gamma = 1.005, and the slow medium at M = 1e306
        ((1.005, 0.15, 138.08, 1e-6), ["bounds", "--r-list", "1"],
         "the deviation factor at r=1.0 does not settle below the largest double"),
        ((2.0, 0.15, 138.08, 10.0), ["bounds", "--r-list", "1", "--m", "1e306"],
         "the envelope slope a0 at M=1e+306 exceeds the largest double"),
        # kappa underflows to 0, so ln(2*r*kappa) has no value (once a usage error, "math
        # domain error"); fig3 where sigma of `_reduced` underflows in the law difference
        # (once 500 nan rows) and where sqrt(2E)/(4*pi*r) overflows at r = 1e-300 (99 inf rows)
        ((1.05, 1e-10, 1e-10, 1e300), ["bounds", "--m", "1e100", "--r-list", "1e6"],
         "the corrected truncation bound at r=1000000.0 is lost: kappa underflows to 0"),
        ((2.0, 1e-10, 1e-10, 1e300), ["fig3", "--m", "1e100", "--r", "1e-6"],
         "the deviation factor at r=1e-06 overflows on [0.0, 1e+100]"),
        ((2.0, 1e-10, 1e100, 1e-300), ["fig3", "--m", "1e100", "--r", "1e-300"],
         "the band norm at r=1e-300 exceeds the largest double"),
        # castor oil with an envelope slope a0 below the smallest double, once a
        # ZeroDivisionError in the published form's coefficient
        ((1.66, 0.15, 138.08, 1e-6), ["bounds", "--m", "1e-300", "--slope-factor", "1e-300"],
         "the envelope slope a0 at M=1e-300 underflows to 0"),
        # fig2 where a1*w**2 leaves the doubles (once 447 inf rows and exit 0); table2 where
        # sigma of `_reduced` underflows in the law difference (once divide and invalid
        # warnings, and a numpy repr in the message); fig3 at r = 1e300, where 2*r*Re alpha*
        # overflows in the band energy's integrand (once an overflow warning)
        ((2.0, 1e-10, 1e-10, 1e300), ["fig2"],
         "the fig2 curve attenuation_powerlaw is not finite at omega=19201.41938638801"),
        ((1.05, 1e-10, 1e-10, 1e300), ["table2", "--m", "1e100", "--r-list", "1e-6"],
         "the integrand at r=1e-06 is not finite at 4.2723144395937196e+97"),
        ((1.5, 1e-10, 1e100, 1e300), ["fig3", "--m", "1e100", "--r", "1e300"],
         "the deviation factor at r=1e+300 overflows on [0.0, 1e+100]"),
        # a law that decays, but where 2*r*Re alpha* stays below 70 up to the largest double
        # (once exit 2, "norm diverges: the law has no spectral decay")
        ((1.5, 1e-10, 1e-10, 1e300), ["bounds", "--m", "1e-3", "--r-list", "1e-300"],
         "the tail cut at r=1e-300 lies beyond the frequencies where alpha is finite"),
        ((2.0, 1e-10, 1e-10, 1e300), ["bounds", "--m", "1e-3", "--r-list", "1e-300"],
         "the tail cut at r=1e-300 lies beyond the frequencies where alpha is finite"),
        # fig1 where Im alpha* overflows, and with it the wavenumber and its reduced form
        # 1 - c0*Im alpha*/w (once an overflow warning and rows of phase speed 0 at exit 0; at
        # omega = 13 only k overflowed, and c0/q is the speed); fig2 of that medium, whose
        # causal attenuation leaves the doubles too, names that curve first (once after an
        # overflow warning)
        ((1.5, 1e-305, 138.08, 1e-6), ["fig1"],
         "the wavenumber leaves the doubles at omega=13.099999999999998"),
        ((1.5, 1e-305, 138.08, 1e-6), ["fig2"],
         "the fig2 curve attenuation_causal is not finite at omega=1143.7558630495378"),
    ], ids=["a2-squared", "kappa", "closure-exp", "band-edge-underflow", "fig2-pole", "gamma-1.005",
            "slow-a0", "kappa-underflow", "fig3-deviation", "fig3-band-norm", "a0-underflow",
            "fig2-inf", "table2-sigma-underflow", "fig3-far", "cut-beyond-doubles-gamma-1.5",
            "cut-beyond-doubles-gamma-2", "fig1-wavenumber", "fig2-attenuation-first"])
    def test_extreme_medium_exits_3(self, tmp_path, capsys, medium, argv, message):
        path = tmp_path / "medium.json"
        path.write_text(json.dumps(dict(zip(("gamma", "c0", "alpha1", "tau0"), medium),
                                        name="extreme")))
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert cli.main([*argv, "--preset", str(path), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical failure:") and message in err, err
        assert not out.exists()


    def test_fig2_beyond_the_wavenumber_overflow_exits_0(self, tmp_path):
        # from omega = 1812.73 on w/c0 and so k = w/c0 - Im alpha* leave the doubles, but
        # c = c0/(1 - c0*Im alpha*/w) stays near c0 for both laws (once exit 3 there); the
        # worst relative error over all 961 nodes of both laws measured 2.2e-16
        mpmath = pytest.importorskip("mpmath")
        path = tmp_path / "medium.json"
        path.write_text(json.dumps({"name": "extreme", "gamma": 1.5, "c0": 1e-305,
                                    "alpha1": 1e-10, "tau0": 1e-6}))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert cli.main(["fig2", "--preset", str(path), "--out", str(tmp_path / "out")]) == 0
        table = load_csv(tmp_path / "out" / "fig2_phasespeed.csv")
        assert table.shape == (961, 3) and np.all(np.isfinite(table)) and np.all(table[:, 1:] > 0)
        preset = laws.load_preset(str(path))
        causal, power = preset.causal, preset.powerlaw
        mp = mpmath.mp
        with mp.workdps(50):
            g, c0 = mp.mpf(1.5), mp.mpf(causal.c0)
            for omega, c_causal, c_power in table[[0, 390, 391, 480, 700, 960]]:
                w = mp.mpf(omega)
                z = mp.mpc(0, -w)  # -1j*w
                alpha_c = (mp.mpf(causal.alpha1) * z
                           / (c0 * mp.sqrt(1 + (mp.mpf(causal.tau0) * z) ** (g - 1))))
                alpha_pl = mp.mpf(power.a1) * z**g / mp.cos(g * mp.pi / 2) + mp.mpf(power.a2) * z
                for got, alpha in ((c_causal, alpha_c), (c_power, alpha_pl)):
                    exact = w / (w / c0 - mp.im(alpha))
                    assert abs(got - exact) <= 1e-15 * abs(exact), (omega, got, exact)

    def test_fig1_below_the_wavenumber_overflow_exits_0(self, tmp_path):
        # the medium of fig2 above: fig1's grid ends at 60, where w/c0 = 6e306 is a double
        path = tmp_path / "medium.json"
        path.write_text(json.dumps({"name": "extreme", "gamma": 1.5, "c0": 1e-305,
                                    "alpha1": 1e-10, "tau0": 1e-6}))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert cli.main(["fig1", "--preset", str(path), "--out", str(tmp_path / "out")]) == 0
        rows = (tmp_path / "out" / "fig1_phasespeed.csv").read_text().splitlines()[2:]
        assert len(rows) == 600 and all(float(row.split(",")[1]) > 0.0 for row in rows)

    @pytest.mark.parametrize("command", ["table2", "fig1", "fig2", "fig3", "bounds"])
    def test_derived_power_law_beyond_the_doubles_exits_2(self, tmp_path, capsys, command):
        # a legal causal medium whose a2 = alpha1/c0 = 1e310 is no double: a usage error
        # that names the overflow (once "power law parameters must be finite")
        path = tmp_path / "medium.json"
        path.write_text(json.dumps({"name": "extreme", "gamma": 1.05, "c0": 1e-10,
                                    "alpha1": 1e300, "tau0": 1e-6}))
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert cli.main([command, "--preset", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: the derived power law leaves the doubles: a2 = alpha1/c0 overflows for "
            "CausalLaw(gamma=1.05, c0=1e-10, alpha1=1e+300, tau0=1e-06)\n")
        assert not out.exists()


class TestQuadratureWork:
    """Integrand samples, quadratures and tail-width solves per command at its defaults.

    The counts are deterministic, so they gate the cost of the
    quadrature where wall time on a shared machine cannot.  Samples
    include the single panels `energies_at` evaluates.  Measured
    with one energy profile per distance: bounds 6435 samples in 56
    quadratures and 17 tail cuts, fig3 1875 in 1; table2 1530 in 8.
    Before the profile, bounds took 9405 samples in 71 quadratures and
    41 tail cuts, and fig3 11040 in 100.  Since the model error reads
    the profile, bounds took 5655 in 51 and 15 tail-width solves, and
    table2 2010 in 8.  With one energy pass at the one QUADRATURE_RTOL
    of 1e-12 for profiles, tails and the model error's numerator, in
    place of 1e-9 for the last two, bounds takes 6615 in 51 with the
    same 15 solves (5 from 0), table2 2160 in 8 and fig3 1875 in 1; the
    gates keep their parameters.  With the band edge started from a cubic
    model of ln tail, 3 kernel calls per edge, bounds takes 6300 in 30
    with the same 15 solves; table2 and fig3 are unchanged, and so are the
    gates.  With the line profile's total read as the full energy and no
    pass beyond its cut, bounds takes 4875 in 25 and 10 solves (5 from 0),
    and its gate falls to those counts; table2 and fig3 are unchanged.

    Every stage now integrates the intervals of all distances in one
    batched pass, one integrand call per round for all of them, counted
    at `numerics._kronrod_groups`, which every integrand sample passes.
    bounds takes 4800 samples (the band energy at M is read once per
    distance, not twice) in 25 quadratures, 5 passes and 17 integrand
    calls, with its 10 tail widths solved in 2 batches; table2 2160 in 8
    quadratures, 2 passes and 10 calls; fig3 1875 in 1 and 6 calls.  One
    quadrature per distance took 76 integrand calls in bounds and 28 in
    table2.  The sample gates keep their parameters.
    """

    @staticmethod
    def _count(monkeypatch, argv):
        groups, intervals, build, widths = (numerics._kronrod_groups,
                                            numerics.integrate_intervals,
                                            spectrum.attenuation_rise, spectrum._tail_widths)
        counts = {"samples": 0, "calls": 0, "passes": [], "width_batches": []}
        starts = {}  # the start of every rise built

        def counting_groups(f, panels, ids, where=None):
            def g(x, k):
                counts["samples"] += np.size(x)
                counts["calls"] += 1
                return f(x, k)
            return groups(g, panels, ids, where)

        def counting_intervals(f, a, b, rtol=numerics.QUADRATURE_RTOL, where=None):
            counts["passes"].append([(lo, hi, rtol) for lo, hi in zip(a, b)])
            return intervals(f, a, b, rtol, where)

        def recording_build(law, lo):
            rise = build(law, lo)
            starts[rise] = lo
            return rise

        def counting_widths(rise, rs):
            counts["width_batches"].append((starts[rise], len(rs)))
            return widths(rise, rs)

        for module in (numerics, spectrum):  # every module that binds them
            monkeypatch.setattr(module, "_kronrod_groups", counting_groups)
            monkeypatch.setattr(module, "integrate_intervals", counting_intervals)
        monkeypatch.setattr(spectrum, "attenuation_rise", recording_build)
        monkeypatch.setattr(spectrum, "_tail_widths", counting_widths)
        assert cli.main(argv) == 0
        return counts

    # batched passes and integrand calls per command
    BATCHED = {"bounds": (5, 17), "table2": (2, 10), "fig3": (1, 6)}

    @pytest.mark.parametrize("command,samples,quadratures", [("bounds", 4875, 25),
                                                             ("table2", 2010, 8),
                                                             ("fig3", 1875, 1)])
    def test_within_a_tenth_of_the_measured_counts(self, tmp_path, monkeypatch, capsys,
                                                   command, samples, quadratures):
        passes, calls = self.BATCHED[command]
        counts = self._count(monkeypatch, [command, "--out", str(tmp_path)])
        assert 0 < counts["samples"] <= 1.1 * samples, capsys.readouterr().err
        assert 0 < sum(map(len, counts["passes"])) <= 1.1 * quadratures
        assert 0 < len(counts["passes"]) <= passes
        assert 0 < counts["calls"] <= 1.1 * calls

    def test_bounds_integrates_each_line_once(self, tmp_path, monkeypatch):
        # one line profile per distance: its cut and the tail beyond M, each stage one
        # batch for all five distances; the model error reads the profile and searches no cut
        counts = self._count(monkeypatch, ["bounds", "--out", str(tmp_path)])
        assert counts["width_batches"] == [(0.0, 5), (100.0, 5)]
        intervals = [interval for batch in counts["passes"] for interval in batch]
        assert {rtol for _, _, rtol in intervals} == {numerics.QUADRATURE_RTOL}
        cuts = [entry["tail_cut"] for entry in
                json.loads((tmp_path / "bounds.json").read_text())["per_distance"]]
        assert len(cuts) == 5
        for cut in cuts:
            # the profile pass, and where the cut lies inside the band [0, 100]
            # the model error's numerator; its denominator is the profile's
            passes = [b for a, b, _ in intervals if a == 0.0 and b == cut]
            assert len(passes) == 1 + (cut < 100.0)


class TestTailCutWork:
    """Law evaluations per batch of tail-width solves in a default castor `bounds`.

    Each energy pass that reaches no band edge first solves for the
    width beyond its start, the line profile's cut from 0 among them.
    The rise from the start is built once and does not depend on r, so
    the solves of all distances share its calls: a vector call at every
    32nd power of two of the double range (67 points) serves every
    distance, one call at the powers inside each distance's coarse
    bracket (up to 31 each) brackets every width within a factor of two,
    and two or three secant rounds of two points per distance close the
    brackets to 1e-9 relative: measured 5 calls per batch of five solves
    (67, 155, 10, 10 and 4 or 8 points), and no scalar `eval_alpha`
    call.  Solved one distance at a time, each solve took 4-5 calls of at
    most 67 points, 22 and 24 for the five cuts and the five tails; one
    call at all 2,099 powers of two and six rounds of 33 points took 7;
    bracketing in factors of 4 and bisecting took 37-48 scalar calls per
    cut.  Each distance solves two
    widths, the line profile's cut and the tail beyond M; a third, for
    the energy beyond the cut, made 15 solves in all.
    """

    def test_at_most_five_small_vector_calls_per_solve(self, tmp_path, monkeypatch):
        build, alpha, widths = spectrum.attenuation_rise, laws.alpha_parts, spectrum._tail_widths
        per_batch = []  # [distances, sizes of the rise calls, scalar law-kernel calls]
        inside = []

        def counting_build(law, lo):
            rise = build(law, lo)

            def counting_rise(h):
                if inside:
                    per_batch[-1][1].append(np.size(h))
                return rise(h)

            return counting_rise

        def counting_alpha(law, omega):
            if inside and np.ndim(omega) == 0:
                per_batch[-1][2] += 1
            return alpha(law, omega)

        def counting_widths(rise, rs):
            per_batch.append([len(rs), [], 0])
            inside.append(True)
            try:
                return widths(rise, rs)
            finally:
                inside.pop()

        monkeypatch.setattr(spectrum, "attenuation_rise", counting_build)
        monkeypatch.setattr(spectrum, "alpha_parts", counting_alpha)
        monkeypatch.setattr(laws, "alpha_parts", counting_alpha)
        monkeypatch.setattr(spectrum, "_tail_widths", counting_widths)
        assert cli.main(["bounds", "--out", str(tmp_path)]) == 0
        # the line profiles' cuts and the tails beyond M, five distances each
        assert [n for n, _, _ in per_batch] == [5, 5]
        assert all(1 <= len(sizes) <= 5 and max(sizes) <= max(67, 31 * n) and scalars == 0
                   for n, sizes, scalars in per_batch), per_batch


class TestBandEdgeWork:
    """Law-kernel calls per batch of `band_edges` solves in a default castor `bounds`.

    One call takes the integrand at both ends of the panel holding each
    root, for a cubic model of ln tail that starts Newton within about
    1e-6 of the edge; each Newton round is one call for every distance,
    their 15-node integrals and slopes -tail'(m) together.  Measured 3
    calls for the five edges; one edge at a time took 3 calls each, 15
    in all, and a linear start and a separate slope call per step took
    11-13 per edge.
    """

    def test_at_most_four_kernel_calls_per_solve(self, tmp_path, monkeypatch):
        alpha, band_edges = laws.alpha_parts, spectrum.band_edges
        per_batch = []
        inside = []

        def counting_alpha(law, omega):
            if inside:
                per_batch[-1] += 1
            return alpha(law, omega)

        def counting_band_edges(profiles, delta):
            per_batch.append(0)
            inside.append(True)
            try:
                return band_edges(profiles, delta)
            finally:
                inside.pop()

        monkeypatch.setattr(spectrum, "alpha_parts", counting_alpha)
        monkeypatch.setattr(laws, "alpha_parts", counting_alpha)
        monkeypatch.setattr(bounds, "band_edges", counting_band_edges)
        assert cli.main(["bounds", "--out", str(tmp_path)]) == 0
        assert len(per_batch) == 1
        assert all(1 <= calls <= 4 for calls in per_batch), per_batch


class TestEnvelopeWork:
    """Envelope checks and law-kernel calls in a default castor `bounds`.

    The corrected bound uses the linear lower envelope on [M, split] alone,
    a range no distance moves, so `bounds` checks it once: one
    `verify_envelope` call over ENVELOPE_GRID_POINTS law nodes.  A check per
    distance up to its tail cut, the published form's hypothesis, which no
    bound reads, made 6 calls over 60,000 nodes.

    The law kernels are `alpha_parts`, `_alpha_difference` and
    `_attenuation_and_difference`, the model-error integrand's gain and
    law difference from one reduced evaluation, counted at every module
    that binds them.  With every stage batched across the five distances,
    measured 26 calls: 18, 4 and 4.  One pass per distance took 112: 94
    `alpha_parts` (99 with the per-distance checks) and 18
    `_alpha_difference`.
    """

    def test_one_check_over_one_grid(self, tmp_path, monkeypatch):
        check = bounds.verify_envelope
        calls, checks, inside = [], [], []

        def counting(kernel):
            def counted(law, omega):
                calls.append(np.size(omega))
                if inside:
                    checks[-1] += np.size(omega)
                return kernel(law, omega)
            return counted

        def counting_check(constants, omega_max):
            checks.append(0)
            inside.append(True)
            try:
                return check(constants, omega_max)
            finally:
                inside.pop()

        for name in ("alpha_parts", "_alpha_difference", "_attenuation_and_difference"):
            counted = counting(getattr(laws, name))
            for module in (laws, spectrum, bounds, cli):  # every module that binds the kernel
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, counted)
        monkeypatch.setattr(bounds, "verify_envelope", counting_check)  # cmd_bounds reads it there
        assert cli.main(["bounds", "--out", str(tmp_path)]) == 0
        assert checks == [bounds.ENVELOPE_GRID_POINTS]
        assert len(calls) <= 1.1 * 26


class TestScanWork:
    """Deviation-kernel calls and samples in a default castor `bounds`.

    Ten certified suprema, inside and beyond m_delta at five distances,
    run as one branch and bound that evaluates the new nodes of every
    search in one call per round: measured 4 calls (the seed nodes and
    the deepest search's 3 rounds) and 1,190 samples with the
    second-order cell bound.  Run one search after another, the same
    nodes took 27 calls.  The first-order cells alone took 49 calls and
    50,495 samples, most of them in the outer searches out to the
    closure near 3.6e6; the 100,001-point seed grids before them took 82
    calls and 1,002,386 samples and certified nothing.

    The cell bounds of each call read the law once, both majorants from
    one `laws._reduced` at the cells' right ends; one read per majorant
    took 8 for the 4 calls.
    """

    def test_within_the_measured_counts(self, tmp_path, monkeypatch):
        counts = {"calls": 0, "samples": 0}
        kernel = bounds._deviation

        def counting(causal, r, omega):
            counts["calls"] += 1
            counts["samples"] += np.size(omega)
            return kernel(causal, r, omega)

        monkeypatch.setattr(bounds, "_deviation", counting)
        assert cli.main(["bounds", "--out", str(tmp_path)]) == 0
        assert 1 <= counts["calls"] <= 5
        assert 10 * (bounds._SEED_CELLS + 1) <= counts["samples"] <= 1.1 * 1_190

    def test_one_law_read_per_cell_bound_call(self, tmp_path, monkeypatch):
        # the slope and curvature majorants of every cell come from one `_reduced` at the
        # cells' right ends: 4 reads for the seed cells and 3 rounds, where a read per
        # majorant made 8
        cell_bounds, reduced = bounds._cell_bounds, laws._reduced
        counts = {"cell_bounds": 0, "reads": 0}
        inside = []

        def counting_cell_bounds(*args):
            counts["cell_bounds"] += 1
            inside.append(True)
            try:
                return cell_bounds(*args)
            finally:
                inside.pop()

        def counting_reduced(causal, omega):
            counts["reads"] += bool(inside)
            return reduced(causal, omega)

        monkeypatch.setattr(bounds, "_cell_bounds", counting_cell_bounds)
        for module in (laws, bounds):  # every module that binds it
            monkeypatch.setattr(module, "_reduced", counting_reduced)
        assert cli.main(["bounds", "--out", str(tmp_path)]) == 0
        assert counts == {"cell_bounds": 4, "reads": 4}


class TestTimeDomainWork:
    """Law evaluations of `pulse` and `causality`, counted at the one law kernel.

    `pulse` forms the Green spectrum times the forcing as one magnitude and
    one phase per node: one kernel call per chunk of the n/2 + 1 grid nodes
    (one in all below 2**15 samples) and no complex forcing spectrum.  `causality` samples the causal law on the
    whole grid and the truncated power law only on its band.
    """

    N = 2**12

    def _count_kernel(self, monkeypatch):
        calls = []
        kernel = laws.alpha_parts

        def counting(law, omega):
            calls.append((law.tag, np.size(omega)))
            return kernel(law, omega)

        for module in (laws, spectrum):  # every module that binds the kernel
            monkeypatch.setattr(module, "alpha_parts", counting)
        return calls

    @pytest.mark.parametrize("law", ["causal", "powerlaw"])
    @pytest.mark.parametrize("kind", ["delta", "gaussian-pulse", "gaussian-modulated-sine"])
    def test_pulse_evaluates_the_law_once_per_node(self, tmp_path, monkeypatch, law, kind):
        calls = self._count_kernel(monkeypatch)
        spectra = []
        forcing_spectrum = ForcingSignal.spectrum

        def counting_spectrum(self, omega):
            spectra.append(np.size(omega))
            return forcing_spectrum(self, omega)

        monkeypatch.setattr(ForcingSignal, "spectrum", counting_spectrum)
        assert cli.main(["pulse", "--out", str(tmp_path), "--law", law, "--kind", kind,
                         "--samples", str(self.N)]) == 0
        tag = "causal" if law == "causal" else "power-law"
        assert calls == [(tag, self.N // 2 + 1)]
        assert spectra == []

    def test_a_grid_of_many_chunks_evaluates_each_node_once(self, tmp_path, monkeypatch):
        # one kernel call per chunk of at most _CHUNK_NODES nodes, the chunks in order
        calls = self._count_kernel(monkeypatch)
        n, chunk = 2**16, spectrum._CHUNK_NODES
        assert cli.main(["pulse", "--out", str(tmp_path), "--samples", str(n)]) == 0
        sizes = [size for _, size in calls]
        assert sum(sizes) == n // 2 + 1
        assert sizes == [chunk] * (len(sizes) - 1) + [n // 2 + 1 - chunk * (len(sizes) - 1)]

    def test_causality_samples_the_power_law_only_in_its_band(self, tmp_path, monkeypatch):
        calls = self._count_kernel(monkeypatch)
        assert cli.main(["causality", "--out", str(tmp_path), "--samples", str(self.N)]) == 0
        band = int(np.count_nonzero(FrequencyGrid(400.0, self.N).omegas() <= 100.0))
        assert calls == [("causal", self.N // 2 + 1), ("power-law", band)]


class TestTimeDomainMemory:
    """Traced peaks of `causality` and `pulse` at n = 2**18 samples, in process.

    Synthesis holds one half spectrum of n/2 + 1 complex values, which the
    inverse transform overwrites, and one signal of n reals: `causality`
    peaks at 4.20 MB against the bound of 5.24 MB, where it peaked at
    8.39 MB with whole-grid nodes, magnitudes and phases, a conjugated
    copy of the spectrum, an energy array per fraction and the causal
    signal alive while the power law was synthesized.  `pulse` peaks at
    6.88 MB, while its times, its samples and the CSV writer's buffers are
    alive, against the same bound plus the writer's 2.8 MB bound of
    tests/test_tables.py::test_writer_peak_memory; it peaked at 10.49 MB
    with whole-grid synthesis and at 7.53 MB with whole-block compaction.
    """

    N = 2**18
    BOUND = (N // 2 + 1) * 16 + N * 8 + 2**20
    WRITER = 2.8e6

    def _peak(self, tmp_path, command):
        # a first small run builds the parser and the writer's tables and imports json
        assert cli.main([command, "--samples", "1024", "--out", str(tmp_path)]) == 0
        tracemalloc.start()
        try:
            assert cli.main([command, "--samples", str(self.N), "--out", str(tmp_path)]) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_causality(self, tmp_path):
        peak = self._peak(tmp_path, "causality")
        assert peak <= self.BOUND, peak

    def test_pulse(self, tmp_path):
        peak = self._peak(tmp_path, "pulse")
        assert peak <= self.BOUND + self.WRITER, peak


class TestOutOfMemory:
    """A grid that does not fit in memory exits 2 naming --samples and the bytes it needs."""

    @pytest.mark.parametrize("command", ["pulse", "causality"])
    def test_grid_beyond_memory_exits_2(self, tmp_path, monkeypatch, capsys, command):
        n = 2**40
        empty = np.empty

        def refusing(shape, *args, **kwargs):  # no allocation of n/2 + 1 values is tried
            if np.prod(shape) > 2**30:
                raise MemoryError
            return empty(shape, *args, **kwargs)

        monkeypatch.setattr(np, "empty", refusing)
        assert cli.main([command, "--samples", str(n), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: out of memory: ")
        assert f"--samples {n} needs about {16 * n} bytes" in err
        assert not tmp_path.exists() or not any(tmp_path.iterdir())
