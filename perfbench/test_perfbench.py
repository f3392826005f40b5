"""Tests of the benchmark's own code. Run with ``python3 -m pytest perfbench``."""

import json
import math
import random
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import bessel
import run
import spans
import workloads

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
import oracles  # noqa: E402  power-series references of the package's tests


def rec(name, start, end, parent, task=0, info=None):
    return [name, start, end, parent, task, info]


# task [0,10] > cli [1,9] > {a [2,5] > a [3,4], b [5,8]}
TREE = [rec("task", 0.0, 10.0, None), rec("cli", 1.0, 9.0, 0),
        rec("a", 2.0, 5.0, 1), rec("a", 3.0, 4.0, 2), rec("b", 5.0, 8.0, 1)]


def test_self_times_subtract_direct_children():
    assert spans.self_times(TREE) == [2.0, 2.0, 2.0, 1.0, 3.0]
    assert sum(spans.self_times(TREE)) == TREE[0][2] - TREE[0][1]


def test_aggregate_sums_calls_durations_and_self_time():
    agg = spans.aggregate(TREE)
    assert agg["a"]["calls"] == 2
    assert agg["a"]["s"] == 4.0            # nested calls count in full
    assert agg["a"]["self_s"] == 3.0
    assert agg["a"]["durations"] == [3.0, 1.0]
    assert spans.ancestor(TREE, 3, "cli") == 1
    assert spans.ancestor(TREE, 3, "a") == 2
    assert spans.ancestor(TREE, 1, "a") is None


def test_percentile_matches_numpy_and_sample_rule():
    xs = [random.Random(4).random() for _ in range(37)]
    for q in (0, 10, 50, 90, 100):
        assert spans.percentile(xs, q) == pytest.approx(np.percentile(xs, q))
    assert not spans.percentile_supported(99, 90)
    assert spans.percentile_supported(100, 90)
    assert spans.percentile_supported(20, 50)
    with pytest.raises(ValueError):
        spans.percentile([], 50)


def _traced_metrics(n_phi):
    tracer = spans.Tracer()
    tracer.spans = [rec("task", 0.0, 100.0, None),
                    rec("cli", 0.5, 99.0, 0),
                    rec("dynamics.evolve_nonlinear", 1.0, 98.0, 1, info=3)]
    for i in range(n_phi):
        tracer.spans.append(rec("dynamics.phi", 2.0 + i * 0.5,
                                2.25 + i * 0.5 + 0.001 * i, 2))
    plain = [workloads.Outcome(seconds=90.0)]
    traced = [workloads.Outcome(seconds=100.0, obs={"rate_relerr": 0.01})]
    return run.layer_metrics(tracer, plain, traced, ["disk.gone"])


def test_layer_metrics_reports_p90_only_with_ten_samples_beyond():
    few, many = _traced_metrics(20), _traced_metrics(100)
    assert few["dynamics.phi.s_p50"][0] > 0.0
    assert few["dynamics.phi.s_p90"][0] == 0.0
    assert few["dynamics.phi.s_p90"][2] == 20
    assert many["dynamics.phi.s_p90"][0] > many["dynamics.phi.s_p50"][0]
    assert many["dynamics.phi.calls"][:2] == (100.0, "count/task")


def test_layer_metrics_self_times_add_up_to_traced_task_time():
    m = _traced_metrics(7)
    layers = sum(m[f"{t.name}.self_s"][0] for t in spans.TARGETS)
    total = layers + m["trace.unattributed_s"][0]
    assert total == pytest.approx(m["trace.task_s"][0], rel=1e-12)
    assert m["trace.task_s"][0] == 100.0
    assert m["trace.overhead_ratio"][0] == pytest.approx(100.0 / 90.0 - 1.0)
    assert m["trace.absent_targets"][0] == 1
    # 7 phi calls = 1 initial + 3 accepted steps * 2: nothing rejected
    assert m["dynamics.steps_accepted"][0] == 3
    assert m["dynamics.steps_rejected"][0] == 0
    assert m["dynamics.rate_relerr_max"][0] == 0.01


@pytest.fixture
def fake_package(monkeypatch):
    """fakepkg.core defines f and K; fakepkg.user imported f by name."""
    pkg = types.ModuleType("fakepkg")
    core = types.ModuleType("fakepkg.core")
    user = types.ModuleType("fakepkg.user")

    def f(x):
        return x + 1

    class K:
        @classmethod
        def make(cls, x):
            return (cls, x)

        def method(self, x):
            return 2 * x

    core.f, core.K = f, K
    user.f = f
    for mod in (pkg, core, user):
        monkeypatch.setitem(sys.modules, mod.__name__, mod)
    return core, user


def test_wrappers_go_where_callers_look_names_up(fake_package):
    core, user = fake_package
    original = core.f
    ticks = iter(range(100))
    tracer = spans.Tracer(clock=lambda: float(next(ticks)))
    absent = tracer.install([
        spans.Target("core.f", "fakepkg.core", "f"),
        spans.Target("core.K.make", "fakepkg.core", "K.make"),
        spans.Target("core.K.method", "fakepkg.core", "K.method"),
    ], observers={"core.f": lambda args, result: result})
    assert absent == []
    assert user.f is not original and core.f is not original
    assert user.f(1) == 2
    assert core.K.make(5) == (core.K, 5)
    assert core.K().method(4) == 8
    assert [s[0] for s in tracer.spans] == ["core.f", "core.K.make",
                                            "core.K.method"]
    assert tracer.spans[0][5] == 2
    tracer.uninstall()
    assert user.f is original and core.f is original
    assert isinstance(vars(core.K)["make"], classmethod)


def test_absent_targets_are_reported_not_raised(fake_package):
    core, _ = fake_package
    tracer = spans.Tracer()
    absent = tracer.install([
        spans.Target("core.f", "fakepkg.core", "f"),
        spans.Target("core.gone", "fakepkg.core", "gone"),
        spans.Target("core.K.gone", "fakepkg.core", "K.gone"),
        spans.Target("core.Gone.m", "fakepkg.core", "Gone.m"),
        spans.Target("missing.f", "fakepkg.missing", "f"),
    ])
    assert absent == ["core.gone", "core.K.gone", "core.Gone.m", "missing.f"]
    assert core.f(1) == 2
    tracer.uninstall()


def test_bessel_oracle_matches_power_series_at_unit_radius():
    for n in range(0, 65, 4):
        assert bessel.ratio(n, 1.0) == pytest.approx(oracles.identity_ratio(n),
                                                     rel=1e-13)
    A = oracles.identity_steady_A()
    assert bessel.steady_A(1.0) == pytest.approx(A, rel=1e-14)
    assert bessel.steady_R(A) == pytest.approx(1.0, rel=1e-13)
    mu = bessel.mu(A, 2.5, 1.0, 8)
    for k in range(9):
        assert mu[k] == pytest.approx(oracles.identity_mu(k, A, 2.5),
                                      rel=1e-12, abs=1e-12)
    g, k0 = bessel.g_star(A, 1.0, 64)
    g_ref, k_ref = oracles.identity_g_star(A)
    assert k0 == k_ref and g == pytest.approx(g_ref, rel=1e-12)


def test_strict_artifact_parsing_rejects_nan(tmp_path):
    bad = tmp_path / "r.json"
    bad.write_text('{"x": NaN}')
    with pytest.raises(workloads.CheckFailed):
        workloads.read_json(bad)
    table = tmp_path / "t.csv"
    table.write_text("k,v\n0,1.5\n1,\n2,nan\n")
    with pytest.raises(workloads.CheckFailed):
        workloads.read_csv(table, ["k", "v"])
    table.write_text("k,v\n0,1.5\n1,\n")
    assert workloads.read_csv(table, ["k", "v"]) == [[0.0, 1.5], [1.0, None]]
    with pytest.raises(workloads.CheckFailed):
        workloads.read_csv(table, ["k", "w"])


def _write_identity_spectrum(out, A, G, R, ratio_scale=1.0):
    k_max = workloads.K_MAX
    ratio = bessel.ratio(range(k_max + 1), R) * ratio_scale
    mu = bessel.mu(A, G, R, k_max)
    lines = ["k,lambda_k,ratio_k,mu_k,g_threshold_k"]
    for k in range(k_max + 1):
        lines.append(f"{k},{-k**3 / R**3!r},{float(ratio[k])!r},"
                     f"{float(mu[k])!r},")
    (out / "spectrum.csv").write_text("\n".join(lines) + "\n")
    g, k0 = bessel.g_star(A, R, k_max)
    (out / "report.json").write_text(json.dumps(
        {"R": R, "mu": {str(k): float(mu[k]) for k in range(k_max + 1)},
         "g_star": g, "g_star_mode": k0}))


def test_spectrum_check_accepts_closed_form_and_rejects_ratio_error(tmp_path):
    R = 0.52
    A = float(bessel.steady_A(R))
    task = workloads.Task(kind="spectrum", argv=[],
                          expect={"model": "identity", "A": A, "G": 2.0})
    _write_identity_spectrum(tmp_path, A, 2.0, R)
    obs = {}
    workloads.check_spectrum(task, tmp_path, obs)
    assert obs["ratio_relerr"] < 1e-15 and obs["R_relerr"] < 1e-12
    _write_identity_spectrum(tmp_path, A, 2.0, R, ratio_scale=1 + 1e-9)
    with pytest.raises(workloads.CheckFailed, match="ratio"):
        workloads.check_spectrum(task, tmp_path, {})


def test_rounds_are_determined_by_the_seed():
    wl = workloads.WORKLOADS["spectrum_k64"]
    first = [[t.argv for t in r] for r, _ in zip(workloads.rounds(wl, 7), range(3))]
    again = [[t.argv for t in r] for r, _ in zip(workloads.rounds(wl, 7), range(3))]
    other = [[t.argv for t in r] for r, _ in zip(workloads.rounds(wl, 8), range(3))]
    assert first == again != other
    assert [t.expect["model"] for t in next(workloads.rounds(wl, 7))] == [
        "identity", workloads.POLY_MODEL]
    (task,) = next(workloads.rounds(workloads.WORKLOADS["evolve_coarse"], 3))
    assert all(rate != 0.0 and math.isfinite(rate)
               for rate in task.expect["rates"].values())


def test_plain_task_s_is_the_median_of_round_means():
    rounds = [[workloads.Outcome(1.0), workloads.Outcome(3.0)],
              [workloads.Outcome(2.0), workloads.Outcome(4.0)],
              [workloads.Outcome(9.0), workloads.Outcome(9.0)]]
    m = run.plain_metrics(rounds, (0.5, 7))
    assert m["task_s"] == (3.0, "s", 3)
    assert m["setup_s"] == (0.5, "s", 7)
    assert m["peak_rss_mb"][0] > 0.0


def test_benchmark_json_lists_every_metric_the_run_reports():
    spec = json.loads((Path(__file__).resolve().parent.parent
                       / "BENCHMARK.json").read_text())
    plain = run.plain_metrics([[workloads.Outcome(1.0)]], (0.5, 7))
    traced = _traced_metrics(7)
    for listed, reported in ((spec["end_to_end"], plain),
                             (spec["per_layer"], traced)):
        assert {m["name"]: m["unit"] for m in listed} == \
            {name: unit for name, (_, unit, _) in reported.items()}
    assert set(w["name"] for w in spec["workloads"]) == set(workloads.WORKLOADS)
