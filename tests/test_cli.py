"""Command-line interface: artifacts, determinism, and exit codes."""

import csv
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import tumorspec
from tumorspec import cli
from tumorspec.cli import SCHEMA, main, parse_seed_shape
from tumorspec.errors import ValidationError

from oracles import identity_steady_A


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

    def test_linear_equilibrium_stays_zero(self, tmp_path):
        # above threshold exp(mu_2 t) overflows; an absent mode must stay 0
        assert main(["evolve", "--A", "0.5", "--G", "2.0", "--mode", "linear",
                     "--t-end", "1e6", "--out", str(tmp_path)]) == 0
        rows = read_csv(tmp_path / "trajectory.csv")
        assert all(float(cell) == 0.0 for row in rows[1:] for cell in row[1:])
        assert_finite_artifacts(tmp_path)

    def test_nonlinear_output_independent_of_blas_threads(self, tmp_path):
        # the default 64x128 grid, three accepted steps
        src = str(Path(tumorspec.__file__).resolve().parents[1])
        outputs = []
        for threads in ("1", "2"):
            out = tmp_path / threads
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join(
                           [src] + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
            subprocess.run(
                [sys.executable, "-m", "tumorspec.cli", "evolve", "--A", "0.5",
                 "--G", "2.0", "--seed-shape", "3:1e-3,2:5e-4:0.3",
                 "--t-end", "0.005", "--out", str(out)],
                env=env, check=True, capture_output=True)
            outputs.append([(out / name).read_bytes()
                            for name in ("trajectory.csv", "snapshots.json")])
        assert len(read_csv(tmp_path / "1" / "trajectory.csv")) >= 4
        assert outputs[0] == outputs[1]

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

    def test_pool_no_larger_than_the_runs(self, tmp_path, monkeypatch):
        # a forked pool starts all its workers at once; this one starts none
        sizes = []

        class SerialPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs):
                return map(fn, jobs)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", SerialPool)
        cfg = {"A": 0.5, "kmax": 4, "workers": 4,
               "sweep": {"parameter": "G", "values": [0.5, 1.0]},
               "out": str(tmp_path)}
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["sweep", "--config", str(cfg_path)]) == 0
        assert sizes == [2]

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
    ], ids=["model_number", "unknown_key", "negative_n_samples", "zero_n_samples",
            "nan_seed", "inf_seed", "negative_seed_mode", "sweep_value_string",
            "sweep_value_nan_string", "spectrum_overflow", "linear_flow_overflow",
            "rate_fit_without_time_span", "nonlinear_A_out_of_range",
            "linear_samples_overflow", "nonlinear_seed_above_grid"])
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
        ("sweep", "workers", 64,
         {"A": 0.5, "kmax": 4, "sweep": {"parameter": "G", "values": [1.0]}}),
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


# Each run starts from an in-range A and G and in-range values for some other
# keys, then gives up to two keys any value: a wrong type, NaN, an infinity, a
# huge or negative number, or an unknown key. A bad size (kmax, n_samples,
# n_r, n_theta, workers, a seed mode) is of a wrong type, not positive, or
# above the bound that SCHEMA enforces. A size SCHEMA accepts is only ever
# drawn small, because a large one costs memory and time in proportion and
# more than one worker starts processes. mode is never "nonlinear" or unset,
# which would start a field solve.
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
    "workers": st.just(1),
}
_BAD = {key: _ANY for key in _GOOD}
_BAD.update(kmax=_any_size(cli.MAX_MODE), n_samples=_any_size(cli.MAX_SAMPLES),
            n_r=_any_size(cli.MAX_N_R), n_theta=_any_size(cli.MAX_N_THETA),
            workers=_any_size(cli.MAX_WORKERS))
_BAD.update(
    model=st.sampled_from(["poly:-1", "poly:x", "poly:nan", "poly:1,inf", "cubic"]) | _ANY,
    seed_shape=_seed_shape(_ANY) | _WRONG
    | _seed_shape(_FINITE, st.integers(cli.MAX_MODE + 1, 10**400)),
    sweep=_sweep(st.sampled_from(["R"]) | _WRONG, st.floats(0.05, 3.0))
    | _sweep(st.sampled_from(["A", "G"]), _ANY) | _WRONG,
    n_thetaa=st.integers(), krylov_tol=_FINITE)
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
    def test_exit_code_and_finite_artifacts(self, run):
        command, cfg = run
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "out"
            cfg_path = Path(tmp) / "run.json"
            cfg_path.write_text(json.dumps(cfg))
            code = main([command, "--config", str(cfg_path), "--out", str(out)])
            assert code in (0, 2, 3, 4)
            assert_finite_artifacts(out)
