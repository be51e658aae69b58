import argparse
import json
import math
import subprocess
import sys
import warnings

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
        assert doc[0]["bound_M"] == pytest.approx(1e4, rel=1e-12)

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
            header = path.read_text().splitlines()[1].split(",")
            rows = json.loads((tmp_path / "json" / f"{name}.json").read_text())
            assert [[row[key] for key in header] for row in rows] == load_csv(path).tolist()

    @pytest.mark.parametrize("argv,code", [(["fig3", "--m", "0.2"], 2),
                                           (["pulse", "--center", "inf"], 2),
                                           (["bounds", "--r-list", "1e-300"], 3)])
    def test_failure_leaves_no_output_directory(self, tmp_path, capsys, argv, code):
        out = tmp_path / "new" / "out"
        assert cli.main([*argv, "--out", str(out)]) == code
        assert capsys.readouterr().out == ""
        assert not (tmp_path / "new").exists()

    def test_non_finite_values_written_as_null(self, tmp_path, capsys):
        # the model-error supremum beyond the band is the analytic limit at omega = inf
        assert cli.main(["bounds", "--r-list", "1", "--out", str(tmp_path)]) == 0
        text = (tmp_path / "bounds.json").read_text()
        assert "Infinity" not in text and "NaN" not in text
        report = json.loads(text)["per_distance"][0]["model_error_report"]
        assert report["omega_at_d2"] is None


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
            want = spectrum.energy_profile(law, r, m0[i]).norm
            assert g[i] == pytest.approx(want, rel=1e-9, abs=0.0)
        # at r = 1e300 the norm, about 2.4e-391, lies below the smallest double
        if spectrum.energy_profile(law, r, 0.5).norm > 0.0:
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
        assert "energy_pass_rtol" not in doc["settings"]
        by_r = {entry["r"]: entry for entry in doc["per_distance"]}
        assert by_r[1.0]["envelope"]["holds_lower"]
        assert by_r[1.0]["envelope"]["holds_upper"]
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

    @pytest.mark.parametrize("command", ["table2", "fig3", "bounds"])
    @pytest.mark.parametrize("m", ["nan", "inf", "0", "-5"])
    def test_invalid_band_edge_exits_2(self, tmp_path, capsys, command, m):
        assert cli.main([command, f"--m={m}", "--out", str(tmp_path)]) == 2
        assert f"band edge must be finite and positive, got M={float(m)!r}" in \
            capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_fig3_band_edges_must_rise(self, tmp_path, capsys):
        # fig3 plots band edges from 0.5 to 2M; below M = 0.25 they would fall
        assert cli.main(["fig3", "--m", "0.2", "--out", str(tmp_path)]) == 2
        assert "got M=0.2" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    # castor-oil bounds exits 0 from r = 1e-120 to 1e300, the narrow tails of
    # 1e5 ... 1e9 included; below, it exits 3 (a cut beyond the double range,
    # a deviation scan that overflows)
    @pytest.mark.parametrize("r,code", [(f"1e{e}", 0 if e >= -120 else 3)
                                        for e in range(-300, 301, 10)]
                             + [(r, 0) for r in ("1e5", "1e6", "3e7", "5e7", "1e8",
                                                 "2e8", "5e8", "1e9")])
    def test_bounds_exit_code_across_decades(self, tmp_path, capsys, r, code):
        assert cli.main(["bounds", "--r-list", r, "--out", str(tmp_path)]) == code, \
            capsys.readouterr().err


class TestQuadratureWork:
    """Integrand samples, quadratures and tail-width solves per command at its defaults.

    The counts are deterministic, so they gate the cost of the
    quadrature where wall time on a shared machine cannot.  Samples
    include the single panels `EnergyProfile.at` evaluates.  Measured
    with one energy profile per distance: bounds 6435 samples in 56
    quadratures and 17 tail cuts, fig3 1875 in 1; table2 1530 in 8.
    Before the profile, bounds took 9405 samples in 71 quadratures and
    41 tail cuts, and fig3 11040 in 100.  Since the model error reads
    the profile, bounds took 5655 in 51 and 15 tail-width solves, and
    table2 2010 in 8.  With one energy pass at the one QUADRATURE_RTOL
    of 1e-12 for profiles, tails and the model error's numerator, in
    place of 1e-9 for the last two, bounds takes 6615 in 51 with the
    same 15 solves (5 from 0), table2 2160 in 8 and fig3 1875 in 1; the
    gates keep their parameters.
    """

    @staticmethod
    def _count(monkeypatch, argv):
        integrate, panels, width = (numerics.integrate_decaying, spectrum.gauss_kronrod,
                                    spectrum._tail_width)
        counts = {"samples": 0, "quadratures": 0, "width_starts": [], "passes": []}

        def counted(f):
            def g(x):
                counts["samples"] += np.size(x)
                return f(x)
            return g

        def counting(f, a, b, rtol=1e-9):
            counts["quadratures"] += 1
            counts["passes"].append((a, b, rtol))
            return integrate(counted(f), a, b, rtol=rtol)

        def counting_width(law, r, start):
            counts["width_starts"].append(start)
            return width(law, r, start)

        for module in (numerics, spectrum, bounds, cli):
            if getattr(module, "integrate_decaying", None) is integrate:
                monkeypatch.setattr(module, "integrate_decaying", counting)
        monkeypatch.setattr(spectrum, "_tail_width", counting_width)
        monkeypatch.setattr(spectrum, "gauss_kronrod",
                            lambda f, *args: panels(counted(f), *args))
        assert cli.main(argv) == 0
        return counts

    @pytest.mark.parametrize("command,samples,quadratures", [("bounds", 6435, 56),
                                                             ("table2", 2010, 8),
                                                             ("fig3", 1875, 1)])
    def test_within_a_tenth_of_the_measured_counts(self, tmp_path, monkeypatch, capsys,
                                                   command, samples, quadratures):
        counts = self._count(monkeypatch, [command, "--out", str(tmp_path)])
        assert 0 < counts["samples"] <= 1.1 * samples, capsys.readouterr().err
        assert 0 < counts["quadratures"] <= 1.1 * quadratures

    def test_bounds_integrates_each_line_once(self, tmp_path, monkeypatch):
        # one line profile per distance: its cut, the energy beyond it and the
        # tail beyond M; the model error reads the profile and searches no cut
        counts = self._count(monkeypatch, ["bounds", "--out", str(tmp_path)])
        assert counts["width_starts"].count(0.0) == 5
        assert len(counts["width_starts"]) == 15
        assert {rtol for _, _, rtol in counts["passes"]} == {spectrum.QUADRATURE_RTOL}
        cuts = [entry["tail_cut"] for entry in
                json.loads((tmp_path / "bounds.json").read_text())["per_distance"]]
        assert len(cuts) == 5
        for cut in cuts:
            # the profile pass, and where the cut lies inside the band [0, 100]
            # the model error's numerator; its denominator is the profile's
            passes = [b for a, b, _ in counts["passes"] if a == 0.0 and b == cut]
            assert len(passes) == 1 + (cut < 100.0)


class TestTailCutWork:
    """Law evaluations per tail-width solve in a default castor `bounds`.

    Each energy pass that reaches no band edge first solves for the
    width beyond its start, the line profile's cut from 0 among them:
    one vector call of `attenuation_rise` at every power of two of the
    double range brackets it, and six rounds of 33 points narrow it to
    1e-9 relative, 7 calls and no scalar `eval_alpha` call.  Solving
    the cut in w by bracketing in factors of 4 and bisecting took 37-48
    scalar calls per cut.
    """

    def test_at_most_seven_vector_calls_per_solve(self, tmp_path, monkeypatch):
        rise, alpha, width = spectrum.attenuation_rise, laws.eval_alpha, spectrum._tail_width
        per_solve = []  # [rise calls, scalar eval_alpha calls] of each solve, the open one last
        inside = []

        def counting_rise(law, lo, h):
            if inside:
                per_solve[-1][0] += 1
            return rise(law, lo, h)

        def counting_alpha(law, omega):
            if inside and np.ndim(omega) == 0:
                per_solve[-1][1] += 1
            return alpha(law, omega)

        def counting_width(*args):
            per_solve.append([0, 0])
            inside.append(True)
            try:
                return width(*args)
            finally:
                inside.pop()

        monkeypatch.setattr(spectrum, "attenuation_rise", counting_rise)
        monkeypatch.setattr(spectrum, "eval_alpha", counting_alpha)
        monkeypatch.setattr(laws, "eval_alpha", counting_alpha)
        monkeypatch.setattr(spectrum, "_tail_width", counting_width)
        assert cli.main(["bounds", "--out", str(tmp_path)]) == 0
        # per distance the line profile's cut, the energy beyond it and the tail
        # beyond M; the model error's own cut search at r = 1 and 10 made 17
        assert len(per_solve) == 15
        assert all(1 <= rises <= 7 and scalars == 0 for rises, scalars in per_solve), per_solve


class TestScanWork:
    """Deviation-factor calls and samples in a default castor `bounds`.

    Ten scans, each a 100,001-point seed grid refined by calls of 33
    points: measured 82 calls and 1,002,386 samples.  Refining with one
    point per call, as a golden-section search does, took 500 calls.  The
    sample cap keeps the seed grids from shrinking to buy speed.
    """

    def test_within_the_measured_counts(self, tmp_path, monkeypatch):
        counts = {"calls": 0, "samples": 0}
        factor = bounds.deviation_factor

        def counting(causal, powerlaw, r, omega):
            counts["calls"] += 1
            counts["samples"] += np.size(omega)
            return factor(causal, powerlaw, r, omega)

        monkeypatch.setattr(bounds, "deviation_factor", counting)
        assert cli.main(["bounds", "--out", str(tmp_path)]) == 0
        assert 10 <= counts["calls"] <= 1.1 * 82
        assert 10 * bounds.DEVIATION_SCAN_POINTS <= counts["samples"] <= 1.01 * 1_002_386
