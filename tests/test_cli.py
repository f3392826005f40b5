"""Command-line interface: artifacts, determinism, and exit codes."""

import csv
import json
import math
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from tumorspec import cli
from tumorspec.cli import SCHEMA, main, parse_seed_shape
from tumorspec.errors import ValidationError

from oracles import bessel_i, identity_steady_A


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def _reject_constant(token):
    raise AssertionError(f"non-finite JSON token {token}")


def assert_finite_artifacts(out):
    """Every number in every CSV and JSON file under ``out`` is finite."""
    for path in out.rglob("*"):
        if path.suffix == ".json":
            json.loads(path.read_text(), parse_constant=_reject_constant)
        elif path.suffix == ".csv":
            for row in read_csv(path)[1:]:
                assert all(math.isfinite(float(cell)) for cell in row if cell), path


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

    def test_radius_above_bracket_exits_3(self, tmp_path, capsys):
        # for the identity model the steady radius at A = 0.1 lies above R_MAX
        out = tmp_path / "out"
        assert main(["steady", "--A", "0.1", "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "R_MAX = 16" in err and "smallest reachable A is 0.121" in err
        assert not out.exists()

    @pytest.mark.parametrize("A", [1.0 - 1e-7, 1.0 - 1e-12],
                             ids=["1-1e-7", "1-1e-12"])
    def test_radius_near_zero_exits_0(self, tmp_path, A):
        # the steady radius lies far below R = 1e-3 here (A ~ 1 - R**2 / 8);
        # the forward error of R_A is bounded by how A itself rounds,
        # eps / (2 (1 - A)) relative, so the check is the backward error
        assert main(["steady", "--A", repr(A), "--out", str(tmp_path)]) == 0
        R = json.loads((tmp_path / "steady.json").read_text())["R_A"]
        assert 0.0 < R < 1e-3
        assert abs(2.0 * bessel_i(1, R) / (R * bessel_i(0, R)) - A) <= 1e-14

    @pytest.mark.parametrize("model, code", [("poly:1,-0.1", 0), ("poly:0,1", 2)],
                             ids=["negative_coefficient", "zero_slope_at_0"])
    def test_model_rule_is_a_positive_derivative(self, tmp_path, model, code):
        # the rule is f' > 0 on [0, 1.5], not the sign of the coefficients
        assert main(["steady", "--A", "0.3", "--model", model,
                     "--out", str(tmp_path)]) == code
        if code == 0:
            report = json.loads((tmp_path / "steady.json").read_text())
            assert report["R_A"] == pytest.approx(5.829, abs=1e-3)


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
        assert main(["spectrum", "--A", "0.5", "--G", "1.0",
                     "--model", "poly:1,inf", "--out", str(tmp_path)]) == 2

    def test_nan_G_exits_2(self, tmp_path):
        assert main(["spectrum", "--A", "0.5", "--G", "nan",
                     "--out", str(tmp_path)]) == 2
        assert not (tmp_path / "report.json").exists()

    def test_mistyped_kmax_in_config_exits_2(self, tmp_path):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({"A": 0.5, "G": 1.0, "kmax": "x"}))
        assert main(["spectrum", "--config", str(cfg_path),
                     "--out", str(tmp_path)]) == 2

    def test_unresolved_profile_exits_3(self, tmp_path, capsys):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({"R": 100}))
        out = tmp_path / "out"
        assert main(["spectrum", "--A", "0.5", "--G", "1", "--config",
                     str(cfg_path), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "R = sqrt(lam) = 100)" in err and "N_NODES = 65" in err
        assert "choose a smaller R (or a larger A)" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", [["spectrum"],
                                         ["evolve", "--mode", "linear"],
                                         ["evolve", "--mode", "nonlinear"]],
                             ids=["spectrum", "linear", "nonlinear"])
    def test_radius_whose_square_overflows_exits_2(self, tmp_path, capsys,
                                                   command):
        # lam = R**2 overflows from R = 1.35e154; the message names R, the
        # value the user gave, not lam
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({"R": 1e200}))
        out = tmp_path / "out"
        assert main(command + ["--A", "0.5", "--G", "2", "--config",
                               str(cfg_path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "R = 1e+200 overflows" in err and "lam" not in err
        assert not out.exists()

    def test_huge_finite_radius_exits_3(self, tmp_path, capsys):
        # R = 1e100 squares to a finite lam, unresolved like R = 100 above
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({"R": 1e100}))
        out = tmp_path / "out"
        assert main(["spectrum", "--A", "0.5", "--G", "2", "--config",
                     str(cfg_path), "--out", str(out)]) == 3
        assert "R = sqrt(lam) = 1e+100)" in capsys.readouterr().err
        assert not out.exists()

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

    def test_overflowing_step_still_leaves_neighbourhood(self, tmp_path):
        # far above threshold e^{mu dt} overflows at the first step size;
        # that step is rejected, and a smaller one leaves the neighbourhood
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({"n_r": 16, "n_theta": 32}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["evolve", "--config", str(cfg_path), "--A", "0.5",
                         "--G", "1e7", "--seed-shape", "2:1e-3",
                         "--t-end", "0.5", "--out", str(tmp_path)])
        assert code == 4
        snap = json.loads((tmp_path / "snapshots.json").read_text())
        assert snap["status"] == "left_neighbourhood"
        assert_finite_artifacts(tmp_path)

    def test_linear_table_ends_at_the_top_mode(self, tmp_path, monkeypatch):
        # the linear flow reads mu[k] for k <= max(8, the top seeded mode)
        # alone, so the table ends there whatever kmax says
        k_maxes = []

        def recorded(*args):
            k_maxes.append(args[-1])
            return build(*args)

        build = cli.build_table
        monkeypatch.setattr(cli, "build_table", recorded)
        for seed in ("2:1e-3", "12:1e-3"):
            assert main(["evolve", "--A", "0.5", "--G", "2.0", "--mode", "linear",
                         "--t-end", "0.1", "--kmax", "64", "--seed-shape", seed,
                         "--out", str(tmp_path)]) == 0
        assert k_maxes == [8, 12]

    def test_linear_equilibrium_stays_zero(self, tmp_path):
        # above threshold exp(mu_2 t) overflows; an absent mode must stay 0
        assert main(["evolve", "--A", "0.5", "--G", "2.0", "--mode", "linear",
                     "--t-end", "1e6", "--out", str(tmp_path)]) == 0
        rows = read_csv(tmp_path / "trajectory.csv")
        assert all(float(cell) == 0.0 for row in rows[1:] for cell in row[1:])
        assert_finite_artifacts(tmp_path)

    def test_nonlinear_output_independent_of_blas_threads(self, tmp_path,
                                                         package_env):
        # the default 64x128 grid, then 64x256, where OpenBLAS's threaded and
        # single-threaded products round differently and only the one thread
        # that main sets keeps the files equal; the single-mode runs take
        # four accepted steps, so the adaptive step size is read from err
        # more than once
        for case, (seed, t_end, rows, grid) in enumerate((
                ("3:1e-3,2:5e-4:0.3", "0.005", 4, {}),
                ("3:1e-3", "0.05", 5, {}),
                ("3:1e-3", "0.01", 5, {"n_r": 64, "n_theta": 256}))):
            if grid and cli._openblas_threads() is None:
                pytest.skip("numpy's BLAS does not export "
                            "scipy_openblas_set_num_threads64_, so main leaves "
                            "the thread count of a finer grid as it is")
            config = tmp_path / f"{case}.json"
            config.write_text(json.dumps(grid))
            outputs = []
            for threads in ("1", "2"):
                out = tmp_path / str(case) / threads
                subprocess.run(
                    [sys.executable, "-m", "tumorspec.cli", "evolve", "--config",
                     str(config), "--A", "0.5", "--G", "2.0", "--seed-shape", seed,
                     "--t-end", t_end, "--out", str(out)],
                    env=dict(package_env, OPENBLAS_NUM_THREADS=threads), check=True,
                    capture_output=True)
                outputs.append([(out / name).read_bytes()
                                for name in ("trajectory.csv", "snapshots.json")])
            assert len(read_csv(out / "trajectory.csv")) >= rows
            assert outputs[0] == outputs[1]

    def test_command_runs_on_one_blas_thread(self, monkeypatch):
        threads = cli._openblas_threads()
        if threads is None:
            pytest.skip("numpy's BLAS does not export "
                        "scipy_openblas_set_num_threads64_")
        get_threads, set_threads = threads
        seen = []
        monkeypatch.setitem(cli.COMMANDS, "steady",
                            lambda cfg: seen.append(get_threads()) or 0)
        previous = get_threads()
        set_threads(2)
        try:
            assert main(["steady"]) == 0
            assert seen == [1] and get_threads() == 2
        finally:
            set_threads(previous)

    def test_inadmissible_seed_exits_2(self, tmp_path):
        assert main(["evolve", "--A", "0.5", "--G", "1.0",
                     "--seed-shape", "2:0.3", "--out", str(tmp_path)]) == 2

    def test_seed_inadmissible_on_the_grid_exits_2(self, tmp_path, capsys):
        # the seed's 64 samples peak at about 0.2494; padded to the default
        # grid's modes it is sampled more finely and peaks at about 0.2505
        assert main(["evolve", "--A", "0.5", "--G", "2", "--mode", "nonlinear",
                     "--seed-shape", "2:0.2505:0.3",
                     "--out", str(tmp_path)]) == 2
        assert "outside the admissible neighbourhood" in capsys.readouterr().err

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
        # the work done so far: one velocity at the seed and two per attempt
        counts = re.search(r"(\d+) steps accepted, (\d+) rejected, "
                           r"(\d+) velocity evaluations", err)
        assert counts is not None, err
        accepted, rejected, calls = map(int, counts.groups())
        assert accepted == 0 and rejected > 0
        assert calls == 1 + 2 * rejected


class TestAppendixCheckCommand:
    def test_passes_for_identity(self, tmp_path):
        assert main(["appendix-check", "--out", str(tmp_path)]) == 0
        result = json.loads((tmp_path / "appendix_check.json").read_text())
        assert result["passed"] is True
        assert result["ratios"]["u0"] == pytest.approx(0.446, abs=5e-4)
        assert result["ratios"]["u1"] == pytest.approx(0.240, abs=5e-4)
        # the identity is the polynomial with c1 = 1
        assert main(["appendix-check", "--model", "poly:1",
                     "--out", str(tmp_path / "poly")]) == 0

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

    def test_failed_run_recorded_and_worst_code_returned(self, tmp_path):
        # A = 2 is outside (0, f(1)) for the identity model
        cfg = {"G": 1, "kmax": 4, "sweep": {"parameter": "A", "values": [0.5, 2.0]},
               "out": str(tmp_path)}
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["sweep", "--config", str(cfg_path)]) == 2
        index = json.loads((tmp_path / "sweep.json").read_text())
        assert [run["exit_code"] for run in index["runs"]] == [0, 2]
        assert (tmp_path / "run_000" / "spectrum.csv").exists()


class TestInvalidInput:
    @pytest.mark.parametrize("command, cfg, flags", [
        ("spectrum", {"A": 0.5, "G": 1.0, "model": 5}, []),
        ("spectrum", {"A": 0.5, "G": 1.0, "n_thetaa": 64}, []),
        ("evolve", {"A": 0.5, "G": 1.0, "mode": "linear", "n_samples": -1}, []),
        ("evolve", {"A": 0.5, "G": 1.0, "mode": "linear", "n_samples": 0}, []),
        ("evolve", {"A": 0.5, "G": 1.0, "mode": "linear"}, ["--seed-shape", "2:nan"]),
        ("evolve", {"A": 0.5, "G": 1.0, "mode": "linear"}, ["--seed-shape", "2:inf"]),
        ("evolve", {"A": 0.5, "G": 1.0, "mode": "linear"}, ["--seed-shape=-2:1e-3"]),
        ("sweep", {"A": 0.5, "sweep": {"parameter": "G", "values": ["x"]}}, []),
        ("sweep", {"A": 0.5, "sweep": {"parameter": "G", "values": [1, "nan"]}}, []),
        ("spectrum", {"A": 0.5, "G": 1.0, "R": 1e-200, "kmax": 4}, []),
        ("evolve", {"A": 0.5, "G": 2.0, "mode": "linear", "t_end": 1e6},
         ["--seed-shape", "2:1e-3"]),
        ("evolve", {"A": 0.5, "G": 2.0, "mode": "linear", "t_end": 0.0},
         ["--seed-shape", "2:1e-3"]),
        ("evolve", {"A": 5, "G": 1, "R": 1, "mode": "nonlinear", "t_end": 0.01,
                    "n_r": 16, "n_theta": 32}, []),
        ("evolve", {"A": 0.5, "G": 2, "mode": "linear", "t_end": 9900},
         ["--seed-shape", "2:0.2"]),
        ("evolve", {"A": 0.5, "G": 2, "mode": "nonlinear", "t_end": 0.01,
                    "seed_shape": "12:1e-3", "n_r": 16, "n_theta": 32}, []),
        ("spectrum", {"A": 0.5, "G": 1.0}, ["--mode", "bogus"]),
        ("sweep", {"A": 0.5, "workers": 2,
                   "sweep": {"parameter": "G", "values": [1.0]}}, []),
    ], ids=["model_number", "unknown_key", "negative_n_samples", "zero_n_samples",
            "nan_seed", "inf_seed", "negative_seed_mode", "sweep_value_string",
            "sweep_value_nan_string", "spectrum_overflow", "linear_flow_overflow",
            "rate_fit_without_time_span", "nonlinear_A_out_of_range",
            "linear_samples_overflow", "nonlinear_seed_above_grid",
            "bad_mode_flag", "sweep_workers_key"])
    def test_exits_2_before_any_artifact(self, tmp_path, command, cfg, flags):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg_path), "--out", str(out)]
                    + flags) == 2
        assert not out.exists()

    @pytest.mark.parametrize("command, key, bound, cfg", [
        ("spectrum", "kmax", 1024, {"A": 0.5, "G": 1.0}),
        ("evolve", "seed_shape", 1024, {"A": 0.5, "G": 1.0, "mode": "linear"}),
        ("evolve", "n_samples", 10000, {"A": 0.5, "G": 1.0, "mode": "linear"}),
        ("evolve", "n_r", 256, {"A": 0.5, "G": 1.0}),
        ("evolve", "n_theta", 1024, {"A": 0.5, "G": 1.0}),
    ])
    def test_size_above_its_bound_exits_2(self, tmp_path, capsys, command,
                                          key, bound, cfg):
        # the bound itself is only checked, never run: it may be costly
        check = SCHEMA[key][0]
        if key == "seed_shape":
            assert check(f"{bound}:1e-3", key) == [(bound, 1e-3, 0.0)]
            cfg = dict(cfg, seed_shape=f"{bound + 1}:1e-3")
        else:
            assert check(bound, key) == bound
            cfg = dict(cfg, **{key: bound + 1})
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg_path), "--out", str(out)]) == 2
        assert f"at most {bound}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("text, message", [
        ('{"A": 0.5', "config is not valid JSON"),
        ("[0.5, 2.0]", "config must be a JSON object"),
        ('{"seed_shape": 5}', "seed_shape must be a string or a list"),
        ('{"seed_shape": [[1, 2]]}', "bad seed_shape entry [1, 2]"),
        ('{"n_r": 3}', "n_r must be at least 4"),
        ('{"n_theta": 63}', "n_theta must be positive and even"),
    ], ids=["not_json", "json_array", "seed_shape_number", "seed_shape_pair",
            "n_r_below_4", "odd_n_theta"])
    def test_rejected_evolve_config_exits_2(self, tmp_path, capsys, text,
                                            message):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(text)
        out = tmp_path / "out"
        assert main(["evolve", "--config", str(cfg_path), "--A", "0.5",
                     "--G", "2", "--t-end", "0.01", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "validation error" in err and message in err
        assert not out.exists()

    def test_unknown_key_lists_known_keys(self, tmp_path, capsys):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({"A": 0.5, "dt_min": 1e-9}))
        assert main(["steady", "--config", str(cfg_path),
                     "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "'dt_min'" in err and all(key in err for key in SCHEMA)

    def test_unreadable_config_exits_2(self, tmp_path):
        assert main(["steady", "--config", str(tmp_path)]) == 2
        assert main(["steady", "--config", str(tmp_path / "missing.json")]) == 2


class TestFlagsAndConfig:
    def test_every_flag_is_a_config_key(self):
        assert set(cli.FLAGS) <= set(SCHEMA)

    # between them the first two cases set every flag; the last two keep
    # modes above 127, which a snapshot samples on more than 256 angles
    @pytest.mark.parametrize("command, cfg, flags", [
        ("spectrum", {"A": 0.5, "G": 2.0, "model": "poly:1,0.3", "kmax": 8},
         ["--A", "0.5", "--G", "2.0", "--model", "poly:1,0.3", "--kmax", "8"]),
        ("evolve", {"A": 0.5, "G": 2.0, "mode": "linear", "t_end": 0.5,
                    "seed_shape": "2:1e-3,3:5e-4:0.3"},
         ["--A", "0.5", "--G", "2.0", "--mode", "linear", "--t-end", "0.5",
          "--seed-shape", "2:1e-3,3:5e-4:0.3"]),
        ("evolve", {"A": 0.5, "G": 2.0, "mode": "linear", "t_end": 0.5,
                    "seed_shape": "200:1e-3"},
         ["--A", "0.5", "--G", "2.0", "--mode", "linear", "--t-end", "0.5",
          "--seed-shape", "200:1e-3"]),
        ("evolve", {"A": 0.5, "G": 2, "mode": "nonlinear", "n_r": 16,
                    "n_theta": 384, "t_end": 0.001, "seed_shape": "3:1e-3"},
         ["--A", "0.5", "--G", "2", "--mode", "nonlinear", "--t-end", "0.001",
          "--seed-shape", "3:1e-3"]),
    ], ids=["spectrum", "linear_evolve", "linear_evolve_mode_200",
            "nonlinear_evolve_384_angles"])
    def test_flags_and_config_write_identical_artifacts(self, tmp_path, command,
                                                        cfg, flags):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(cfg))
        by_config, by_flags = tmp_path / "config", tmp_path / "flags"
        assert main([command, "--config", str(cfg_path),
                     "--out", str(by_config)]) == 0
        # keys without a flag (the grid) reach the flag run by a config
        rest = {key: value for key, value in cfg.items() if key not in cli.FLAGS}
        rest_path = tmp_path / "rest.json"
        rest_path.write_text(json.dumps(rest))
        assert main([command, "--config", str(rest_path), *flags,
                     "--out", str(by_flags)]) == 0
        names = sorted(p.name for p in by_config.iterdir())
        assert names == sorted(p.name for p in by_flags.iterdir())
        for name in names:
            assert (by_config / name).read_bytes() == (by_flags / name).read_bytes()

    def test_command_after_flags(self, tmp_path):
        first, last = tmp_path / "first", tmp_path / "last"
        assert main(["steady", "--A", "0.5", "--out", str(first)]) == 0
        assert main(["--A", "0.5", "steady", "--out", str(last)]) == 0
        for name in ("steady.json", "profile.csv"):
            assert (first / name).read_bytes() == (last / name).read_bytes()


# Each run starts from an in-range A and G and in-range values for some other
# keys, then gives up to two keys any value: a wrong type, NaN, an infinity, a
# huge or negative number, or an unknown key (n_thetaa, krylov_tol, workers).
# A bad size (kmax, n_samples, n_r, n_theta, a seed mode) is of a wrong type,
# not positive, or above the bound that SCHEMA enforces. A size SCHEMA accepts
# is only ever drawn small, because a large one costs memory and time in
# proportion. mode is never "nonlinear" or unset, which would start a field
# solve.
_WRONG = st.one_of(st.text(max_size=3), st.booleans(), st.none(),
                   st.lists(st.integers(0, 3), max_size=2), st.just({}))
_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_ANY = st.floats() | st.integers(-10**400, 10**400) | _WRONG


def _any_size(bound):
    return (st.floats() | st.integers(-10**400, 0)
            | st.integers(bound + 1, 10**400) | _WRONG)


def _seed_text(triples):
    return ",".join(":".join(str(v) for v in t) for t in triples)


def _seed_shape(numbers, modes=st.integers(-2, 10)):
    triple = st.tuples(modes, numbers, numbers)
    return (st.lists(triple, min_size=1, max_size=3).map(_seed_text)
            | st.lists(triple.map(list), max_size=3))


def _sweep(parameter, value):
    return st.fixed_dictionaries({"parameter": parameter,
                                  "values": st.lists(value, min_size=1, max_size=3)})


_GOOD = {
    "A": st.floats(0.05, 0.95) | _FINITE,
    "G": st.floats(-5.0, 500.0) | _FINITE,
    "R": st.floats(0.2, 5.0) | _FINITE,
    "model": st.sampled_from(["identity", "poly:1,0.3"]),
    "kmax": st.integers(-2, 8),
    "t_end": st.floats(0.0, 10.0) | _FINITE,
    "seed_shape": _seed_shape(st.floats(-0.1, 0.1) | _FINITE),
    "n_samples": st.integers(1, 50),
    "n_r": st.integers(4, 80),
    "n_theta": st.integers(1, 80).map(lambda n: 2 * n),
    "err_target": st.floats(1e-12, 1.0),
}
_BAD = {key: _ANY for key in _GOOD}
_BAD.update(kmax=_any_size(cli.MAX_MODE), n_samples=_any_size(cli.MAX_SAMPLES),
            n_r=_any_size(cli.MAX_N_R), n_theta=_any_size(cli.MAX_N_THETA))
_BAD.update(
    model=st.sampled_from(["poly:-1", "poly:x", "poly:nan", "poly:1,inf", "cubic"]) | _ANY,
    seed_shape=_seed_shape(_ANY) | _WRONG
    | _seed_shape(_FINITE, st.integers(cli.MAX_MODE + 1, 10**400)),
    sweep=_sweep(st.sampled_from(["R"]) | _WRONG, st.floats(0.05, 3.0))
    | _sweep(st.sampled_from(["A", "G"]), _ANY) | _WRONG,
    n_thetaa=st.integers(), krylov_tol=_FINITE, workers=st.integers(1, 64))
_MODE = st.sampled_from(["linear", "linear", "linear", "sideways", 1, True, ["linear"]])


@st.composite
def _runs(draw):
    command = draw(st.sampled_from(["steady", "spectrum", "evolve", "sweep"]))
    cfg = {"A": draw(st.floats(0.05, 0.95)), "G": draw(st.floats(-5.0, 500.0))}
    if command == "evolve":
        cfg["mode"] = draw(_MODE)
    if command == "sweep":
        cfg["sweep"] = draw(_sweep(st.sampled_from(["A", "G"]),
                                   st.floats(0.05, 3.0) | _FINITE))
    for key in draw(st.lists(st.sampled_from(sorted(_GOOD)), unique=True)):
        cfg[key] = draw(_GOOD[key])
    for key in draw(st.lists(st.sampled_from(sorted(_BAD)), unique=True,
                             max_size=2)):
        cfg[key] = draw(_BAD[key])
    return command, cfg


class TestCommandLineFuzz:
    @settings(max_examples=250, deadline=None)
    @given(run=_runs())
    # a time span whose square underflows once made np.polyfit divide by 0
    @example(run=("evolve", {"A": 0.5, "G": 0.0, "mode": "linear",
                             "seed_shape": "1:0.0625:0.0", "err_target": 1.0,
                             "t_end": 9.71628076279447e-226}))
    def test_exit_code_and_finite_artifacts(self, run):
        command, cfg = run
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "out"
            cfg_path = Path(tmp) / "run.json"
            cfg_path.write_text(json.dumps(cfg))
            code = main([command, "--config", str(cfg_path), "--out", str(out)])
            assert code in (0, 2, 3, 4)
            assert_finite_artifacts(out)
