"""tumorspec benchmark: one workload per run, end to end or traced by layer.

    python3 perfbench/run.py --workload spectrum_k64 --seed 1 --seconds 40 --trace 0

Run from anywhere; the package is imported from ``src/`` next to this
directory. With ``--trace 0`` the run times whole rounds of tasks, closed
loop and one at a time, until ``--seconds`` have passed, and reports the
end-to-end metrics. With ``--trace 1`` it runs the workload's fixed number of
rounds, each task once plain and once with every layer wrapped in spans, and
reports the per-layer metrics. The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``. The environment
fingerprint, every metric with its sample count, and (traced runs) the spans
go to ``.bench_out/`` in the checkout.
"""

import argparse
import ctypes
import glob
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

# One BLAS thread, set before numpy is loaded. With OpenBLAS's default of one
# thread per core, the small per-mode solves of the field layers run about 4x
# slower on 2 cores, and their time swings by 20 % from run to run; with one
# thread a task repeats within a few per cent. Set-up subprocesses inherit it.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import spans  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 7

SETUP_CODE = """\
import sys, time
sys.path.insert(0, sys.argv[1])
import tumorspec.cli
if len(sys.argv) > 2:
    from tumorspec.disk import DiskGrid
    DiskGrid(n_r=int(sys.argv[2]), n_theta=int(sys.argv[3]))
print(repr(time.perf_counter()))
"""


def import_package():
    """Import tumorspec from this checkout's src/, or exit with an error."""
    if not (SRC / "tumorspec" / "__init__.py").is_file():
        sys.exit(f"error: no tumorspec package under {SRC}")
    sys.path.insert(0, str(SRC))
    import tumorspec
    import tumorspec.cli
    if Path(tumorspec.__file__).resolve().parent != SRC / "tumorspec":
        sys.exit(f"error: imported tumorspec from {tumorspec.__file__}")
    return tumorspec


def blas_threads():
    """(library config, thread count) of the OpenBLAS bundled with numpy."""
    import numpy
    libdir = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libdir / "*openblas*"))):
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"),
                               ("openblas", "")):
            get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            conf = getattr(lib, f"{prefix}_get_config{suffix}", None)
            if get is not None and conf is not None:
                get.restype, conf.restype = ctypes.c_int, ctypes.c_char_p
                return conf().decode(), get()
    return None, None


def fingerprint(tumorspec, seed):
    import numpy
    import scipy
    blas, threads = blas_threads()
    git_sha = None
    if (ROOT / ".git").exists():   # never the SHA of an enclosing repository
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True, timeout=30)
            git_sha = sha.stdout.strip() if sha.returncode == 0 else None
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "tumorspec").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    try:
        numba_version = importlib.metadata.version("numba")
    except importlib.metadata.PackageNotFoundError:
        numba_version = None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba": numba_version,
        "blas": blas,
        "blas_threads": threads,
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": git_sha,
        "src_sha256": digest.hexdigest(),
        "tumorspec_backend": getattr(tumorspec, "BACKEND", None),
        "seed": seed,
    }


def measure_setup(workload):
    """Median wall time of a fresh interpreter importing the CLI and
    building the workload's grid.

    The child prints the clock when it is done: perf_counter is the
    system-wide monotonic clock on Linux, and waiting on a child with a
    timeout polls in steps of up to 50 ms, which would round every sample.
    """
    argv = [sys.executable, "-c", SETUP_CODE, str(SRC)]
    if workload.grid is not None:
        argv += [str(n) for n in workload.grid]
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        child = subprocess.run(argv, check=True, timeout=120,
                               capture_output=True, text=True)
        times.append(float(child.stdout) - t0)
    return statistics.median(times), len(times)


def plain_metrics(done, setup):
    """End-to-end metrics {name: (value, unit, sample count)} of a plain run.

    ``done`` lists the outcomes of each round; ``setup`` is (median, count).
    """
    means = [sum(o.seconds for o in r) / len(r) for r in done]
    return {
        "task_s": (statistics.median(means), "s", len(means)),
        "setup_s": (setup[0], "s", setup[1]),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB", 1),
    }


def run_plain(workload, seed, seconds, cli):
    """Closed loop: whole rounds, one task at a time, until ``seconds``."""
    done = []
    t_start = time.perf_counter()
    for tasks in workloads.rounds(workload, seed):
        done.append([workloads.run_task(t, cli, OUT / "work") for t in tasks])
        if time.perf_counter() - t_start >= seconds:
            return done


def run_traced(workload, seed, cli):
    """Each task of the fixed rounds runs plain and traced, in alternating
    order, so a drift in machine speed does not read as tracing overhead."""
    tracer = spans.Tracer()
    plain, traced, absent = [], [], []
    gen = workloads.rounds(workload, seed)
    for _ in range(workload.trace_rounds):
        for task in next(gen):
            traced_first = len(traced) % 2 == 1
            for with_trace in (traced_first, not traced_first):
                if not with_trace:
                    plain.append(workloads.run_task(task, cli, OUT / "work"))
                    continue
                tracer.task_id = len(traced)
                absent = tracer.install(spans.TARGETS, OBSERVERS)
                try:
                    traced.append(
                        workloads.run_task(task, cli, OUT / "work", tracer))
                finally:
                    tracer.uninstall()
    return tracer, plain, traced, absent


def _interior_apply_flops(args, result):
    """Operation count of one preconditioner apply, from its array sizes:
    two complex triangular solves per angular column (8 n_r**2 flops) and a
    forward plus an inverse FFT of every interior row (5 n log2 n each)."""
    n_int, n_theta = args[1].shape
    n_r = n_int + 1
    return 8.0 * n_r**2 * n_theta + 10.0 * n_int * n_theta * math.log2(n_theta)


OBSERVERS = {
    "dynamics.evolve_nonlinear": lambda args, result: len(result.points) - 1,
    "disk.ModePreconditioner.solve_interior": _interior_apply_flops,
}


def layer_metrics(tracer, plain, traced, absent):
    """{name: (value, unit, sample count)}; per-task values divide by the
    number of traced tasks. Layers a workload never reaches read 0."""
    recs = tracer.spans
    n = len(traced)
    agg = spans.aggregate(recs)
    m = {}
    for target in spans.TARGETS:
        entry = agg.get(target.name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        m[f"{target.name}.calls"] = (entry["calls"] / n, "count/task", n)
        m[f"{target.name}.s"] = (entry["s"] / n, "s/task", n)
        m[f"{target.name}.self_s"] = (entry["self_s"] / n, "s/task", n)

    phi = agg.get("dynamics.phi", {"durations": []})["durations"]
    m["dynamics.phi.s_p50"] = (spans.percentile(phi, 50) if phi else 0.0, "s",
                               len(phi))
    m["dynamics.phi.s_p90"] = (
        spans.percentile(phi, 90)
        if spans.percentile_supported(len(phi), 90) else 0.0, "s", len(phi))

    phi_calls = Counter(spans.ancestor(recs, i, "dynamics.evolve_nonlinear")
                        for i, rec in enumerate(recs)
                        if rec[0] == "dynamics.phi")
    accepted = rejected = 0
    for i, rec in enumerate(recs):
        if rec[0] == "dynamics.evolve_nonlinear" and rec[5] is not None:
            accepted += rec[5]
            # one phi to start, one per attempted step, one per accepted step
            rejected += phi_calls[i] - 1 - 2 * rec[5]
    m["dynamics.steps_accepted"] = (accepted / n, "count/task", n)
    m["dynamics.steps_rejected"] = (rejected / n, "count/task", n)

    builds = sum(1 for i, rec in enumerate(recs)
                 if rec[0] == "disk.ModePreconditioner.init"
                 and spans.ancestor(recs, i, "fields.solve_nutrient") is not None)
    solves = agg.get("fields.solve_nutrient", {"calls": 0})["calls"]
    m["fields.newton_iters_per_solve"] = (builds / solves if solves else 0.0,
                                          "count", solves)
    flops = [rec[5] for rec in recs
             if rec[0] == "disk.ModePreconditioner.solve_interior"
             and rec[5] is not None]
    m["disk.ModePreconditioner.solve_interior.flop_computed"] = (
        max(flops) if flops else 0.0, "flop", len(flops))

    obs = [o.obs for o in plain + traced]
    for name, key in (("radial.ratio_relerr_max", "ratio_relerr"),
                      ("radial.R_relerr", "R_relerr"),
                      ("spectrum.mu1_abs_max", "mu1_abs"),
                      ("dynamics.rate_relerr_max", "rate_relerr")):
        vals = [o[key] for o in obs if key in o]
        m[name] = (max(vals, default=0.0), "ratio", len(vals))

    task_total = sum(rec[2] - rec[1] for rec in recs if rec[0] == spans.TASK)
    unattributed = sum(own for rec, own in zip(recs, spans.self_times(recs))
                       if rec[0] == spans.TASK)
    m["trace.task_s"] = (task_total / n, "s", n)
    m["trace.unattributed_s"] = (unattributed / n, "s", n)
    m["trace.overhead_ratio"] = (
        sum(o.seconds for o in traced) / sum(o.seconds for o in plain) - 1.0,
        "ratio", n)
    m["trace.absent_targets"] = (len(absent), "count", len(spans.TARGETS))
    return m


def write_spans(path, recs):
    path.write_text(json.dumps({
        "fields": ["name", "start", "end", "parent", "task"],
        "spans": [rec[:5] for rec in recs]}))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    tumorspec = import_package()
    cli = sys.modules["tumorspec.cli"]
    workload = workloads.WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    env = fingerprint(tumorspec, args.seed)
    print("env: " + json.dumps(env, sort_keys=True))
    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}"

    if args.trace:
        tracer, plain, traced, absent = run_traced(workload, args.seed, cli)
        outcomes = plain + traced
        metrics = layer_metrics(tracer, plain, traced, absent)
        write_spans(OUT / f"spans-{tag}.json", tracer.spans)
        if absent:
            print("absent targets (reported as 0): " + ", ".join(absent))
        attributed = sum(metrics[f"{t.name}.self_s"][0] for t in spans.TARGETS)
        print(f"attribution: layer self_s {attributed:.6g} s + unattributed "
              f"{metrics['trace.unattributed_s'][0]:.6g} s = traced task_s "
              f"{metrics['trace.task_s'][0]:.6g} s")
    else:
        setup = measure_setup(workload)
        done = run_plain(workload, args.seed, args.seconds, cli)
        outcomes = [o for r in done for o in r]
        metrics = plain_metrics(done, setup)

    failed = [o.failure for o in outcomes if o.failure is not None]
    for msg in failed:
        print(f"FAILED: {msg}")
    print(f"fail_ratio = {len(failed) / len(outcomes):.4g} "
          f"({len(failed)} of {len(outcomes)} tasks)")
    for name, (value, unit, n) in metrics.items():
        print(f"{name} = {value:.6g} {unit} (n={n})")

    result = {
        "correct": not failed,
        "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }
    (OUT / f"result-{tag}.json").write_text(json.dumps(
        dict(result, env=env, failures=failed,
             samples={name: n for name, (_, _, n) in metrics.items()},
             task_seconds=[o.seconds for o in outcomes]), indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
