"""Workloads: seed-drawn tasks, their execution through the CLI, and checks.

A workload is a cycle of task kinds; one pass over the cycle is a round.
``spectrum_k64`` alternates the identity and the polynomial model, so each
round costs the same mix of work whatever the seed draws. Every task runs
``tumorspec.cli.main`` in-process, and its artifacts are checked against the
closed forms in ``bessel``, never against the package itself.
"""

import contextlib
import csv
import io
import json
import math
import random
import shutil
import time
import traceback
from dataclasses import dataclass, field

import bessel
import spans

POLY_MODEL = "poly:1,0.3"
# A of the polynomial model at steady radii 0.55 and 0.5; A decreases as R
# grows. Computed once from the radial equation; the checks do not use them.
POLY_A_RANGE = (1.2279640077706548, 1.2395929990859325)
IDENTITY_R_RANGE = (0.5, 0.55)
G_RANGE = (0.5, 4.0)
K_MAX = 64

RATIO_RTOL = 1e-10     # ROADMAP item 1: Bessel ratios for k <= 64
R_RTOL = 1e-6          # tests/test_radial.py: steady radius at R = 1
MU1_ATOL = 1e-8        # acceptance criterion 2: neutral mode
G_STAR_RTOL = 5e-3     # acceptance criterion 5
RATE_RTOL = 0.05       # acceptance criterion 7a


@dataclass
class Task:
    kind: str                     # "spectrum" or "evolve"
    argv: list
    config: dict = None           # written to config.json for evolve tasks
    expect: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    name: str
    grid: tuple                   # (n_r, n_theta) built during set-up, or None
    trace_rounds: int             # fixed, so traced counts repeat exactly
    make_round: object            # (random.Random) -> list of Task


def _spectrum_round(rng):
    tasks = []
    R = rng.uniform(*IDENTITY_R_RANGE)
    for model, A in (("identity", bessel.steady_A(R)),
                     (POLY_MODEL, rng.uniform(*POLY_A_RANGE))):
        G = rng.uniform(*G_RANGE)
        tasks.append(Task(
            kind="spectrum",
            argv=["spectrum", "--A", repr(float(A)), "--G", repr(G),
                  "--model", model, "--kmax", str(K_MAX)],
            expect={"model": model, "A": float(A), "G": G}))
    return tasks


def _evolve_task(A, G, R, t_end, modes, grid):
    config = {"A": A, "G": G, "R": R, "mode": "nonlinear", "t_end": t_end,
              "seed_shape": [[k, amp, phase] for k, amp, phase in modes],
              "n_r": grid[0], "n_theta": grid[1]}
    mu = bessel.mu(A, G, R, max(k for k, _, _ in modes))
    return Task(kind="evolve", argv=["evolve"], config=config,
                expect={"rates": {k: float(mu[k]) for k, _, _ in modes}})


def _evolve_coarse_round(rng):
    R = 1.0
    A = float(bessel.steady_A(R))
    G = 1.5 * bessel.g_star(A, R, K_MAX)[0]
    modes = [(2, 1e-3, rng.uniform(0.0, 2.0 * math.pi))]
    return [_evolve_task(A, G, R, 0.5, modes, (32, 64))]


WORKLOADS = {
    "spectrum_k64": Workload("spectrum_k64", None, 1, _spectrum_round),
    "evolve_coarse": Workload("evolve_coarse", (32, 64), 2,
                              _evolve_coarse_round),
}


def rounds(workload, seed):
    """Endless, seed-determined sequence of rounds."""
    rng = random.Random(seed)
    while True:
        yield workload.make_round(rng)


class CheckFailed(Exception):
    pass


def _reject_constant(token):
    raise CheckFailed(f"non-strict JSON token {token}")


def read_json(path):
    """Parse strict JSON: NaN and Infinity are rejected."""
    return json.loads(path.read_text(), parse_constant=_reject_constant)


def _finite(text):
    value = float(text)
    if not math.isfinite(value):
        raise CheckFailed(f"non-finite CSV value {text!r}")
    return value


def read_csv(path, header):
    """Rows of a numeric CSV with the given header; empty cells become None."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != header:
        raise CheckFailed(f"{path.name}: header {rows[:1]} != {header}")
    return [[None if cell == "" else _finite(cell) for cell in row]
            for row in rows[1:]]


def check_spectrum(task, out, obs):
    header = ["k", "lambda_k", "ratio_k", "mu_k", "g_threshold_k"]
    rows = read_csv(out / "spectrum.csv", header)
    report = read_json(out / "report.json")
    if [int(r[0]) for r in rows] != list(range(K_MAX + 1)):
        raise CheckFailed("spectrum.csv does not list k = 0..64")
    mu1 = max(abs(rows[1][3]), abs(report["mu"]["1"]))
    obs["mu1_abs"] = mu1
    if mu1 > MU1_ATOL:
        raise CheckFailed(f"|mu_1| = {mu1:.3e} > {MU1_ATOL}")
    if task.expect["model"] != "identity":
        return
    A, R = task.expect["A"], report["R"]
    R_ref = bessel.steady_R(A)
    obs["R_relerr"] = abs(R - R_ref) / R_ref
    if obs["R_relerr"] > R_RTOL:
        raise CheckFailed(f"R = {R!r}, closed form {R_ref!r}")
    ref = bessel.ratio(range(K_MAX + 1), R)
    err = max(abs(row[2] - r) / abs(r) for row, r in zip(rows, ref))
    obs["ratio_relerr"] = err
    if err > RATIO_RTOL:
        raise CheckFailed(f"ratio relative error {err:.3e} > {RATIO_RTOL}")
    if report["g_star"] is not None:
        g_ref, k_ref = bessel.g_star(A, R, K_MAX)
        if g_ref is None or report["g_star_mode"] != k_ref or \
                abs(report["g_star"] - g_ref) > G_STAR_RTOL * abs(g_ref):
            raise CheckFailed(f"G* = {report['g_star']} at "
                              f"k0 = {report['g_star_mode']}, closed form "
                              f"{g_ref} at {k_ref}")


def check_evolve(task, out, obs):
    traj = out / "trajectory.csv"
    with open(traj, newline="") as fh:
        header = next(csv.reader(fh), [])
    if header[:2] != ["t", "sup_norm"]:
        raise CheckFailed(f"trajectory.csv header {header}")
    rows = read_csv(traj, header)
    snap = read_json(out / "snapshots.json")
    if snap["status"] != "completed":
        raise CheckFailed(f"status {snap['status']}")
    if not rows or abs(rows[-1][0] - task.config["t_end"]) > 1e-12:
        raise CheckFailed("trajectory does not reach t_end")
    worst = 0.0
    for k, mu in task.expect["rates"].items():
        fit = snap["fitted_rates"].get(str(k))
        if fit is None:
            raise CheckFailed(f"no fitted rate for seeded mode {k}")
        worst = max(worst, abs(fit["rate"] - mu) / abs(mu))
    obs["rate_relerr"] = worst
    if worst > RATE_RTOL:
        raise CheckFailed(f"fitted rate relative error {worst:.3e} > {RATE_RTOL}")


CHECKS = {"spectrum": check_spectrum, "evolve": check_evolve}


@dataclass
class Outcome:
    seconds: float
    failure: str = None           # None when the task passed every check
    obs: dict = field(default_factory=dict)


def run_task(task, cli, workdir, tracer=None):
    """Run one task through ``cli.main`` and check its artifacts.

    Only the ``main`` call is timed. With a tracer, the call is recorded as a
    task span, so the layer spans inside it have a common root.
    """
    if workdir.exists():
        shutil.rmtree(workdir)
    out = workdir / "out"
    out.mkdir(parents=True)
    argv = list(task.argv)
    if task.config is not None:
        cfg_path = workdir / "config.json"
        cfg_path.write_text(json.dumps(task.config))
        argv += ["--config", str(cfg_path)]
    argv += ["--out", str(out)]

    def call():
        return cli.main(argv)   # looked up per call, so a wrapper is seen

    if tracer is not None:
        call = tracer.span(spans.TASK, call)
    sink = io.StringIO()
    failure = None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = call()
    except SystemExit as exc:   # argparse rejected the arguments
        code = exc.code
    except Exception:           # the run goes on; the task counts as failed
        code = None
        failure = traceback.format_exc(limit=3).strip().splitlines()[-1]
    seconds = time.perf_counter() - t0

    outcome = Outcome(seconds=seconds)
    if failure is None and code != 0:
        failure = f"exit code {code}: {sink.getvalue().strip()[-200:]}"
    if failure is None:
        try:
            CHECKS[task.kind](task, out, outcome.obs)
        except (CheckFailed, OSError, ValueError, KeyError, TypeError,
                IndexError) as exc:
            failure = f"{type(exc).__name__}: {exc}"
    outcome.failure = failure
    shutil.rmtree(workdir, ignore_errors=True)
    return outcome
