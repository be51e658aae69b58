import json
import math
import subprocess
import sys

import numpy as np
import pytest

from lossywave import FrequencyGrid, ForcingSignal, builtin_preset, green_hat
from lossywave import bounds, cli, numerics, spectrum


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
            want = spectrum.spectral_l2_norm(law, r, spectrum.NormDomain.band(m0[i]))
            assert g[i] == pytest.approx(want, rel=1e-9, abs=0.0)
        # at r = 1e300 the norm, about 2.4e-391, lies below the smallest double
        if spectrum.spectral_l2_norm(law, r, spectrum.NormDomain.band(0.5)) > 0.0:
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
        assert doc["settings"]["quadrature_rtol"] == 1e-9
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

    # castor-oil bounds exits 0 from r = 1e-120 to 1 and at the narrow tails
    # of 1e5 ... 1e8; every other decade exits 3 (a norm or cut beyond the
    # double range, a deviation scan that overflows, a tail too narrow to cut)
    @pytest.mark.parametrize("r,code", [(f"1e{e}", 0 if -120 <= e <= 0 else 3)
                                        for e in range(-300, 301, 10)]
                             + [(r, 0) for r in ("1e5", "1e6", "3e7", "5e7", "1e8")])
    def test_bounds_exit_code_across_decades(self, tmp_path, capsys, r, code):
        assert cli.main(["bounds", "--r-list", r, "--out", str(tmp_path)]) == code, \
            capsys.readouterr().err


class TestQuadratureWork:
    """Integrand samples, quadratures and tail cuts per command at its defaults.

    The counts are deterministic, so they gate the cost of the
    quadrature where wall time on a shared machine cannot.  Samples
    include the single panels `EnergyProfile.at` evaluates.  Measured
    with one energy profile per distance: bounds 6435 samples in 56
    quadratures and 17 tail cuts, fig3 1875 in 1; table2 1530 in 8.
    Before the profile, bounds took 9405 samples in 71 quadratures and
    41 tail cuts, and fig3 11040 in 100.
    """

    @staticmethod
    def _count(monkeypatch, argv):
        integrate, panels, cut = (numerics.integrate_decaying, spectrum.gauss_kronrod,
                                  spectrum.tail_cut_frequency)
        counts = {"samples": 0, "quadratures": 0, "tail_cuts": 0, "passes": []}

        def counted(f):
            def g(x):
                counts["samples"] += np.size(x)
                return f(x)
            return g

        def counting(f, a, b, rtol=1e-9):
            counts["quadratures"] += 1
            counts["passes"].append((a, b, rtol))
            return integrate(counted(f), a, b, rtol=rtol)

        def counting_cut(*args, **kwargs):
            counts["tail_cuts"] += 1
            return cut(*args, **kwargs)

        for module in (numerics, spectrum, bounds, cli):
            if getattr(module, "integrate_decaying", None) is integrate:
                monkeypatch.setattr(module, "integrate_decaying", counting)
            if getattr(module, "tail_cut_frequency", None) is cut:
                monkeypatch.setattr(module, "tail_cut_frequency", counting_cut)
        monkeypatch.setattr(spectrum, "gauss_kronrod",
                            lambda f, *args: panels(counted(f), *args))
        assert cli.main(argv) == 0
        return counts

    @pytest.mark.parametrize("command,samples,quadratures", [("bounds", 6435, 56),
                                                             ("table2", 1530, 8),
                                                             ("fig3", 1875, 1)])
    def test_within_a_tenth_of_the_measured_counts(self, tmp_path, monkeypatch, capsys,
                                                   command, samples, quadratures):
        counts = self._count(monkeypatch, [command, "--out", str(tmp_path)])
        assert 0 < counts["samples"] <= 1.1 * samples, capsys.readouterr().err
        assert 0 < counts["quadratures"] <= 1.1 * quadratures

    def test_bounds_integrates_each_line_once(self, tmp_path, monkeypatch):
        # one line profile per distance: its cut, the energy beyond it, the
        # tail beyond M and the model-error band where it needs a cut
        counts = self._count(monkeypatch, ["bounds", "--out", str(tmp_path)])
        assert counts["tail_cuts"] <= 20
        cuts = [entry["tail_cut"] for entry in
                json.loads((tmp_path / "bounds.json").read_text())["per_distance"]]
        assert len(cuts) == 5
        for cut in cuts:
            # the profile pass, and where the cut lies inside the band [0, 100]
            # the model error's numerator and denominator at their own tolerance
            passes = [rtol for a, b, rtol in counts["passes"] if a == 0.0 and b == cut]
            assert sorted(passes) == sorted([spectrum.ENERGY_PASS_RTOL]
                                            + [spectrum.NORM_RTOL] * 2 * (cut < 100.0))


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
