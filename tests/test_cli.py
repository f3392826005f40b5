"""Command-line interface: artifacts, determinism, and exit codes."""

import csv
import json
import re

import numpy as np
import pytest

from tumorspec.cli import main, parse_seed_shape
from tumorspec.errors import ValidationError

from oracles import identity_steady_A


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


class TestSeedShapeParsing:
    def test_basic(self):
        assert parse_seed_shape("2:0.001:0.5") == [(2, 0.001, 0.5)]

    def test_phase_defaults_to_zero(self):
        assert parse_seed_shape("3:1e-4") == [(3, 1e-4, 0.0)]

    def test_multiple(self):
        assert parse_seed_shape("2:1e-3,5:2e-4:1.0") == [
            (2, 1e-3, 0.0), (5, 2e-4, 1.0)]

    def test_malformed_rejected(self):
        with pytest.raises(ValidationError):
            parse_seed_shape("2")
        with pytest.raises(ValidationError):
            parse_seed_shape("a:b")


class TestSteadyCommand:
    def test_report_and_profile(self, tmp_path):
        A = identity_steady_A()
        code = main(["steady", "--A", str(A), "--out", str(tmp_path)])
        assert code == 0
        report = json.loads((tmp_path / "steady.json").read_text())
        assert report["R_A"] == pytest.approx(1.0, abs=1e-6)
        assert report["alpha_A"] == pytest.approx(
            report["R_A"] ** 2 * (1.0 - A / 2.0), rel=1e-12)
        rows = read_csv(tmp_path / "profile.csv")
        assert rows[0] == ["r", "v0"]
        assert float(rows[-1][1]) == pytest.approx(1.0, abs=1e-12)

    def test_invalid_A_exits_2(self, tmp_path):
        assert main(["steady", "--A", "1.5", "--out", str(tmp_path)]) == 2

    def test_missing_A_exits_2(self, tmp_path):
        assert main(["steady", "--out", str(tmp_path)]) == 2


class TestSpectrumCommand:
    def test_artifacts(self, tmp_path):
        A = identity_steady_A()
        code = main(["spectrum", "--A", str(A), "--G", "1.0", "--kmax", "32",
                     "--out", str(tmp_path)])
        assert code == 0
        rows = read_csv(tmp_path / "spectrum.csv")
        assert rows[0] == ["k", "lambda_k", "ratio_k", "mu_k", "g_threshold_k"]
        assert len(rows) == 34
        report = json.loads((tmp_path / "report.json").read_text())
        assert abs(report["mu"]["1"]) <= 1e-8
        assert report["g_star"] == pytest.approx(175.0, abs=1.0)
        assert report["g_star_mode"] == 2

    def test_zero_mitosis_reduces_to_principal_part(self, tmp_path):
        code = main(["spectrum", "--A", "0.5", "--G", "0", "--kmax", "8",
                     "--out", str(tmp_path)])
        assert code == 0
        rows = read_csv(tmp_path / "spectrum.csv")
        report = json.loads((tmp_path / "report.json").read_text())
        R = report["R"]
        for row in rows[1:]:
            k = int(row[0])
            assert float(row[3]) == pytest.approx((-k**3 + k) / R**3, abs=1e-12)

    def test_deterministic_output(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main(["spectrum", "--A", "0.5", "--G", "2.0", "--kmax", "8",
                         "--out", str(out)]) == 0
        assert (a / "spectrum.csv").read_bytes() == (b / "spectrum.csv").read_bytes()
        assert (a / "report.json").read_bytes() == (b / "report.json").read_bytes()

    def test_polynomial_model_flag(self, tmp_path):
        code = main(["spectrum", "--A", "0.5", "--G", "1.0", "--kmax", "4",
                     "--model", "poly:1,0.3", "--out", str(tmp_path)])
        assert code == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert abs(report["mu"]["1"]) <= 1e-8

    def test_bad_model_exits_2(self, tmp_path):
        assert main(["spectrum", "--A", "0.5", "--G", "1.0",
                     "--model", "poly:-1", "--out", str(tmp_path)]) == 2

    def test_nan_G_exits_2(self, tmp_path):
        assert main(["spectrum", "--A", "0.5", "--G", "nan",
                     "--out", str(tmp_path)]) == 2
        assert not (tmp_path / "report.json").exists()

    def test_mistyped_kmax_in_config_exits_2(self, tmp_path):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({"A": 0.5, "G": 1.0, "kmax": "x"}))
        assert main(["spectrum", "--config", str(cfg_path),
                     "--out", str(tmp_path)]) == 2

    def test_no_negative_zero(self, tmp_path):
        # lambda_0 = -0 / R**3 used to be written as "-0"
        assert main(["spectrum", "--A", "0.5", "--G", "2.0", "--kmax", "8",
                     "--out", str(tmp_path)]) == 0
        rows = read_csv(tmp_path / "spectrum.csv")
        assert rows[1][1] == "0"
        assert not any(re.fullmatch(r"-0(\.0*)?(e[-+]?\d+)?", cell)
                       for row in rows for cell in row)


class TestEvolveCommand:
    def test_infinite_t_end_exits_2(self, tmp_path):
        assert main(["evolve", "--A", "0.5", "--G", "2.0", "--mode", "linear",
                     "--t-end", "inf", "--out", str(tmp_path)]) == 2
        assert not (tmp_path / "trajectory.csv").exists()

    def test_linear_mode_one_constant(self, tmp_path):
        code = main(["evolve", "--A", "0.5", "--G", "2.0", "--mode", "linear",
                     "--t-end", "1.0", "--seed-shape", "1:1e-3",
                     "--out", str(tmp_path)])
        assert code == 0
        rows = read_csv(tmp_path / "trajectory.csv")
        assert rows[0][:2] == ["t", "sup_norm"]
        col = rows[0].index("amp_1")
        amps = [float(r[col]) for r in rows[1:]]
        assert np.allclose(amps, 1e-3, rtol=1e-9)

    def test_nonlinear_equilibrium_quiet(self, tmp_path):
        code = main(["evolve", "--A", "0.5", "--G", "2.0", "--mode", "nonlinear",
                     "--t-end", "0.05", "--out", str(tmp_path)])
        assert code == 0
        rows = read_csv(tmp_path / "trajectory.csv")
        sup_col = rows[0].index("sup_norm")
        assert all(float(r[sup_col]) <= 1e-8 for r in rows[1:])
        snap = json.loads((tmp_path / "snapshots.json").read_text())
        assert snap["status"] == "completed"

    def test_nonlinear_with_config_file(self, tmp_path):
        cfg = {"A": 0.5, "G": 2.0, "mode": "nonlinear", "t_end": 0.1,
               "seed_shape": "3:1e-3", "n_r": 24, "n_theta": 48,
               "out": str(tmp_path)}
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["evolve", "--config", str(cfg_path)]) == 0
        snap = json.loads((tmp_path / "snapshots.json").read_text())
        assert snap["mode"] == "nonlinear"
        assert "3" in snap["fitted_rates"]
        assert snap["fitted_rates"]["3"]["rate"] < 0.0

    def test_flag_overrides_config(self, tmp_path):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({"A": 0.5, "G": 2.0, "mode": "linear",
                                        "t_end": 0.5}))
        code = main(["evolve", "--config", str(cfg_path), "--t-end", "0.25",
                     "--seed-shape", "2:1e-3", "--out", str(tmp_path)])
        assert code == 0
        snap = json.loads((tmp_path / "snapshots.json").read_text())
        assert snap["t_end"] == 0.25

    def test_left_neighbourhood_exit_code(self, tmp_path):
        # far above threshold a large seed escapes quickly
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(
            {"n_r": 24, "n_theta": 48, "err_target": 1e-4}))
        code = main(["evolve", "--config", str(cfg_path),
                     "--A", "0.8927799318", "--G", "600",
                     "--mode", "nonlinear", "--t-end", "50",
                     "--seed-shape", "2:0.15", "--out", str(tmp_path)])
        assert code == 4
        snap = json.loads((tmp_path / "snapshots.json").read_text())
        assert snap["status"] == "left_neighbourhood"

    def test_inadmissible_seed_exits_2(self, tmp_path):
        assert main(["evolve", "--A", "0.5", "--G", "1.0",
                     "--seed-shape", "2:0.3", "--out", str(tmp_path)]) == 2

    def test_bad_mode_exits_2(self, tmp_path):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({"A": 0.5, "G": 1.0, "mode": "sideways"}))
        assert main(["evolve", "--config", str(cfg_path),
                     "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("bad", [
        {"n_r": "x"},                         # used to raise TypeError
        {"krylov_tol": -1},                   # used to reach gmres' atol check
        {"seed_shape": [["a", 1e-3, 0]]},     # used to raise ValueError
    ], ids=["n_r_string", "negative_krylov_tol", "seed_shape_string_mode"])
    def test_bad_grid_stepper_or_seed_value_exits_2(self, tmp_path, bad):
        cfg = {"A": 0.5, "G": 2.0, "mode": "nonlinear", "t_end": 0.01,
               "seed_shape": "2:1e-3", "n_r": 16, "n_theta": 32, **bad}
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["evolve", "--config", str(cfg_path),
                     "--out", str(tmp_path)]) == 2
        assert not (tmp_path / "trajectory.csv").exists()

    def test_time_step_underflow_exits_3(self, tmp_path, capsys):
        # no step can meet an error target far below roundoff
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(
            {"n_r": 16, "n_theta": 32, "err_target": 1e-30}))
        assert main(["evolve", "--config", str(cfg_path), "--A", "0.5",
                     "--G", "2.0", "--mode", "nonlinear", "--t-end", "0.1",
                     "--seed-shape", "2:1e-3", "--out", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert "time step underflow" in err
        assert "dt = " in err and "at t = " in err and "error estimate" in err


class TestAppendixCheckCommand:
    def test_passes_for_identity(self, tmp_path):
        assert main(["appendix-check", "--out", str(tmp_path)]) == 0
        result = json.loads((tmp_path / "appendix_check.json").read_text())
        assert result["passed"] is True
        assert result["ratios"]["u0"] == pytest.approx(0.446, abs=5e-4)
        assert result["ratios"]["u1"] == pytest.approx(0.240, abs=5e-4)

    def test_rejects_polynomial_model(self, tmp_path):
        assert main(["appendix-check", "--model", "poly:1,0.3",
                     "--out", str(tmp_path)]) == 2


class TestSweepCommand:
    def test_fan_out(self, tmp_path):
        cfg = {"A": 0.5, "kmax": 4, "model": "identity",
               "sweep": {"parameter": "G", "values": [0.5, 1.0, 2.0]},
               "out": str(tmp_path)}
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["sweep", "--config", str(cfg_path)]) == 0
        index = json.loads((tmp_path / "sweep.json").read_text())
        assert index["parameter"] == "G"
        runs = sorted(p.name for p in tmp_path.iterdir() if p.is_dir())
        assert runs == ["run_000", "run_001", "run_002"]
        for run in runs:
            assert (tmp_path / run / "spectrum.csv").exists()

    def test_requires_sweep_object(self, tmp_path):
        assert main(["sweep", "--A", "0.5", "--out", str(tmp_path)]) == 2
