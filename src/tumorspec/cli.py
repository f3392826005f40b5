"""Command-line front end.

Commands: steady, spectrum, evolve, appendix-check, sweep. Configuration is
a single JSON document; the FLAGS, before or after the command, override its
fields, and load_config checks the merged keys once against SCHEMA. Every
artifact is written by _write_json or _write_csv, every CSV number by _fmt
with 17 significant digits under a header row, and identical configurations
produce byte-identical files with the OpenBLAS that numpy >= 2 bundles,
which :func:`main` runs on one thread (it says what other BLAS builds do).

Exit codes: 0 success, 2 validation error (an unknown key is one), 3 solver
failure, 4 halt because the evolving shape left the admissible
neighbourhood. A sweep returns the worst code of its runs.
"""

import argparse
import csv
import ctypes
import functools
import json
import sys
from pathlib import Path

import numpy as np

from .disk import DiskGrid
from .errors import SolverError, ValidationError
from .models import identity_model, parse_model_spec
from .radial import (appendix_series, boundary_ratio, solve_U, solve_u_n,
                     steady_radius)
from .spectrum import DEFAULT_K_MAX, build_table, report_dict

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_SOLVER = 3
EXIT_LEFT_NEIGHBOURHOOD = 4

FMT = "%.17g"

# upper bounds of the size keys
MAX_MODE = 1024         # kmax and a seed mode's k
MAX_SAMPLES = 10000     # n_samples
MAX_N_R = 256
MAX_N_THETA = 1024


def _fmt(x):
    return FMT % float(x)


def _write_json(path, obj):
    with open(path, "w") as fh:
        fh.write(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _write_csv(path, rows):
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


def parse_seed_shape(text):
    """Parse 'k:amp[:phase],...' into (k, amplitude, phase) triples."""
    modes = []
    for part in str(text).split(","):
        bits = part.strip().split(":")
        if len(bits) not in (2, 3):
            raise ValidationError(
                f"bad seed-shape component {part!r}; expected k:amp[:phase]")
        try:
            k = int(bits[0])
            amp = float(bits[1])
            phase = float(bits[2]) if len(bits) == 3 else 0.0
        except ValueError as exc:
            raise ValidationError(f"bad seed-shape component {part!r}") from exc
        modes.append((k, amp, phase))
    return modes


def _real(value, key):
    """value as a finite float; booleans, strings, NaN and infinities fail."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(f"{key} must be a number; got {value!r}")
    if not abs(value) <= sys.float_info.max:   # also catches NaN and huge ints
        raise ValidationError(f"{key} must be finite; got {value!r}")
    return float(value)


def _instance(kind, noun):
    def check(value, key):
        if isinstance(value, bool) or not isinstance(value, kind):
            raise ValidationError(f"{key} must be {noun}; got {value!r}")
        return value
    return check


_integer = _instance(int, "an integer")
_text = _instance(str, "a string")


def _positive(check):
    def positive(value, key):
        value = check(value, key)
        if value <= 0:
            raise ValidationError(f"{key} must be positive; got {value!r}")
        return value
    return positive


def _at_most(bound, check):
    def bounded(value, key):
        value = check(value, key)
        if value > bound:
            raise ValidationError(f"{key} must be at most {bound}; got {value!r}")
        return value
    return bounded


_mode_number = _at_most(MAX_MODE, _integer)


def _mode(value, key):
    if value not in ("linear", "nonlinear"):
        raise ValidationError(f"{key} must be linear or nonlinear; got {value!r}")
    return value


def _seed_shape(value, key):
    """Either seed-shape form as a list of (k, amplitude, phase) triples."""
    if isinstance(value, str):
        value = parse_seed_shape(value)
    if not isinstance(value, list):
        raise ValidationError(f"{key} must be a string or a list; got {value!r}")
    modes = []
    for entry in value:
        if not isinstance(entry, (list, tuple)) or len(entry) != 3:
            raise ValidationError(
                f"bad {key} entry {entry!r}; expected [k, amp, phase]")
        k, amp, phase = entry
        modes.append((_mode_number(k, f"{key} k"), _real(amp, f"{key} amplitude"),
                      _real(phase, f"{key} phase")))
    return modes


def _sweep(value, key):
    if not (isinstance(value, dict) and set(value) == {"parameter", "values"}
            and value["parameter"] in ("A", "G")
            and isinstance(value["values"], list) and value["values"]):
        raise ValidationError(
            f'{key} must be an object {{"parameter": "A"|"G", "values": [...]}} '
            f"with at least one value; got {value!r}")
    return {"parameter": value["parameter"],
            "values": [_real(v, f"{key} value") for v in value["values"]]}


# key: (check of its type and of any range nothing downstream enforces,
# default). The library checks A in (0, f(1)), R > 0, kmax >= 2, n_r >= 4,
# even n_theta, t_end >= 0, and the seed shape's modes and admissibility.
# Every size has an upper bound, so no value costs unbounded memory or time.
SCHEMA = {
    "A": (_real, None),
    "G": (_real, None),
    "R": (_real, None),                   # None: the steady radius R_A
    "model": (_text, "identity"),
    "kmax": (_mode_number, DEFAULT_K_MAX),
    "mode": (_mode, "nonlinear"),
    "t_end": (_real, 1.0),
    "seed_shape": (_seed_shape, None),    # None: the equilibrium
    "n_samples": (_at_most(MAX_SAMPLES, _positive(_integer)), 200),
    "n_r": (_at_most(MAX_N_R, _integer), DiskGrid.n_r),
    "n_theta": (_at_most(MAX_N_THETA, _integer), DiskGrid.n_theta),
    "err_target": (_positive(_real), None),   # None: dynamics.ERR_TARGET
    "sweep": (_sweep, None),
    "out": (_text, "."),
}

# config keys settable by a flag (--t-end for t_end), with their argparse types
FLAGS = {"A": float, "G": float, "model": str, "kmax": int, "mode": str,
         "t_end": float, "seed_shape": str, "out": str}
_FLAG_HELP = {"model": "identity or poly:c1,c2,...",
              "seed_shape": "k:amp[:phase],... cosine mode list"}


def load_config(args):
    """Merge the JSON config (if any) with the flags and check it against SCHEMA.

    Returns a value for every key of SCHEMA; an unset key (or a null) takes
    its default.
    """
    cfg = {}
    if args.config:
        try:
            cfg = json.loads(Path(args.config).read_bytes())
        except OSError as exc:
            raise ValidationError(f"cannot read config: {exc}") from exc
        except ValueError as exc:
            raise ValidationError(f"config is not valid JSON: {exc}") from exc
        if not isinstance(cfg, dict):
            raise ValidationError("config must be a JSON object")
    cfg.update((key, getattr(args, key)) for key in FLAGS
               if getattr(args, key) is not None)
    unknown = sorted(set(cfg) - set(SCHEMA))
    if unknown:
        raise ValidationError(f"unknown config keys {unknown}; "
                              f"known keys: {', '.join(SCHEMA)}")
    return {key: default if cfg.get(key) is None else check(cfg[key], key)
            for key, (check, default) in SCHEMA.items()}


def _required(cfg, key):
    if cfg[key] is None:
        raise ValidationError(f"missing required parameter {key!r}")
    return cfg[key]


def _outdir(cfg):
    out = Path(cfg["out"])
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_steady(cfg):
    model = parse_model_spec(cfg["model"])
    A = _required(cfg, "A")
    steady = steady_radius(A, model)
    out = _outdir(cfg)

    report = {
        "A": A,
        "model": cfg["model"],
        "R_A": steady.R_A,
        "alpha_A": steady.alpha_A,
        "profile_file": "profile.csv",
    }
    _write_json(out / "steady.json", report)
    _write_csv(out / "profile.csv", [["r", "v0"]] + [
        [_fmt(r), _fmt(v)] for r, v in zip(steady.v0.grid, steady.v0.values)])
    print(f"R_A = {_fmt(steady.R_A)}  alpha_A = {_fmt(steady.alpha_A)}")
    return EXIT_OK


def cmd_spectrum(cfg):
    k_max = cfg["kmax"]
    table = build_table(_required(cfg, "A"), _required(cfg, "G"),
                        parse_model_spec(cfg["model"]), cfg["R"], k_max)
    rows = [["k", "lambda_k", "ratio_k", "mu_k", "g_threshold_k"]] + [
        [k, _fmt(table.lam[k]), _fmt(table.ratio[k]), _fmt(table.mu[k]),
         "" if np.isnan(table.g_threshold[k]) else _fmt(table.g_threshold[k])]
        for k in range(k_max + 1)]
    out = _outdir(cfg)
    _write_csv(out / "spectrum.csv", rows)
    _write_json(out / "report.json", report_dict(table))
    print(f"R = {_fmt(table.R)}  modes 0..{k_max} -> "
          f"{out / 'spectrum.csv'}, {out / 'report.json'}")
    return EXIT_OK


def _trajectory_rows(points, k_top):
    ks = range(k_top + 1)
    return [["t", "sup_norm"] + [f"amp_{k}" for k in ks]] + [
        [_fmt(t), _fmt(sup)] + [_fmt(s.amplitude(k)) for k in ks]
        for t, s, sup in points]


def _snapshot(t, shape):
    n_theta = max(256, 2 * shape.n_modes + 2)
    return {"t": float(t), "rho": [float(v) for v in shape.to_grid(n_theta)]}


def cmd_evolve(cfg):
    # the evolution modules load only for this command
    from .dynamics import ERR_TARGET, evolve_nonlinear
    from .linear import evolve_linear, fit_growth_rate
    from .shapes import ShapeState

    model = parse_model_spec(cfg["model"])
    A, G = _required(cfg, "A"), _required(cfg, "G")
    mode, t_end, R = cfg["mode"], cfg["t_end"], cfg["R"]
    if R is None:
        R = steady_radius(A, model).R_A

    if cfg["seed_shape"] is None:
        shape0 = ShapeState.zero(8, R)
    else:
        shape0 = ShapeState.from_modes(cfg["seed_shape"], R)
    shape0.require_admissible()
    k_top = max(8, shape0.n_modes)
    status = "completed"

    if mode == "linear":
        table = build_table(A, G, model, R, k_top)   # all the modes evolve_linear reads
        shapes = [(float(t), evolve_linear(shape0, float(t), table))
                  for t in np.linspace(0.0, t_end, cfg["n_samples"] + 1)]
        points = [(t, s, s.sup_norm()) for t, s in shapes]
    else:
        grid = DiskGrid(n_r=cfg["n_r"], n_theta=cfg["n_theta"])
        traj = evolve_nonlinear(shape0, t_end, A, G, model, grid,
                                cfg["err_target"] or ERR_TARGET)
        status = traj.status
        points = [(p.t, p.shape, p.sup_norm) for p in traj.points]

    rates = {}
    seeded = [k for k in range(1, k_top + 1)
              if shape0.amplitude(k) > 0.0]
    for k in seeded:
        series = [(t, s.amplitude(k)) for t, s, _ in points if s.amplitude(k) > 0]
        if len(series) >= 3:
            fit = fit_growth_rate(series)
            rates[str(k)] = {"rate": fit.rate, "residual": fit.residual}

    # everything is computed before the output directory is made, so a
    # shape that cannot be sampled leaves no artifact
    rows = _trajectory_rows(points, k_top)
    snap = {
        "status": status,
        "mode": mode,
        "A": A,
        "G": G,
        "R": R,
        "t_end": t_end,
        "fitted_rates": rates,
        "snapshots": [_snapshot(*points[0][:2]), _snapshot(*points[-1][:2])],
    }
    out = _outdir(cfg)
    _write_csv(out / "trajectory.csv", rows)
    _write_json(out / "snapshots.json", snap)
    print(f"{mode} evolution to t = {_fmt(points[-1][0])}, status = {status}")
    return EXIT_LEFT_NEIGHBOURHOOD if status == "left_neighbourhood" else EXIT_OK


def cmd_appendix_check(cfg):
    """Compare the closed-form series solutions with the ODE solver."""
    model = parse_model_spec(cfg["model"])
    if model != identity_model():
        raise ValidationError("the series check is defined for the identity model")
    out = _outdir(cfg)
    v0 = solve_U(1.0, model)
    radii = [0.1 * j for j in range(1, 11)]
    result = {"ratios": {}, "max_series_solver_diff": {}}
    ok = True
    for n, name in ((0, "u0"), (1, "u1")):
        prof = solve_u_n(n, 1.0, v0, model)
        diff = max(abs(appendix_series(name, r, 40) - prof.at(r)) for r in radii)
        ratio = boundary_ratio(n, 1.0, v0, model)
        result["max_series_solver_diff"][name] = diff
        result["ratios"][name] = ratio
        ok = ok and diff <= 1e-8
    ok = ok and abs(result["ratios"]["u0"] - 0.446) < 5e-4
    ok = ok and abs(result["ratios"]["u1"] - 0.240) < 5e-4
    result["passed"] = ok
    _write_json(out / "appendix_check.json", result)
    for name in ("u0", "u1"):
        print(f"{name}: ratio = {_fmt(result['ratios'][name])}, "
              f"series vs solver diff = {_fmt(result['max_series_solver_diff'][name])}")
    print("passed" if ok else "FAILED")
    return EXIT_OK if ok else EXIT_SOLVER


def cmd_sweep(cfg):
    """Run one spectrum per value of a parameter list, in this process.

    Each run's errors map to its own exit code, recorded in sweep.json; the
    sweep returns the worst one.
    """
    sweep = _required(cfg, "sweep")
    param, values = sweep["parameter"], sweep["values"]

    out = _outdir(cfg)
    jobs = [dict(cfg, **{param: value, "out": str(out / f"run_{i:03d}")})
            for i, value in enumerate(values)]
    codes = [_guarded(cmd_spectrum, job) for job in jobs]

    index = {"parameter": param,
             "runs": [{"index": i, param: v, "dir": f"run_{i:03d}",
                       "exit_code": code}
                      for i, (v, code) in enumerate(zip(values, codes))]}
    _write_json(out / "sweep.json", index)
    print(f"swept {param} over {len(values)} values -> {out}")
    return max(codes)


COMMANDS = {
    "steady": cmd_steady,
    "spectrum": cmd_spectrum,
    "evolve": cmd_evolve,
    "appendix-check": cmd_appendix_check,
    "sweep": cmd_sweep,
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="tumorspec",
        description="Moving-boundary tumour growth model: equilibria, "
                    "linearized spectrum, and boundary evolution.")
    parser.add_argument(
        "command", choices=COMMANDS, metavar="COMMAND",
        help="steady: radially symmetric equilibrium; spectrum: linearization "
             "spectrum and thresholds; evolve: linear or nonlinear boundary "
             "evolution; appendix-check: series vs solver consistency check; "
             "sweep: independent spectrum runs over a parameter list")
    parser.add_argument("--config",
                        help="JSON config file; flags override its fields")
    for key, kind in FLAGS.items():
        parser.add_argument("--" + key.replace("_", "-"), dest=key, type=kind,
                            help=_FLAG_HELP.get(key))
    return parser


def _guarded(fn, *args):
    """fn(*args), with validation and solver errors reported as exit codes."""
    try:
        return fn(*args)
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER


@functools.lru_cache(maxsize=1)
def _openblas_threads():
    """The get and set functions of the thread count of the OpenBLAS that
    numpy bundles, or None where numpy's BLAS does not export them."""
    try:
        from numpy._core import _multiarray_umath
        lib = ctypes.CDLL(_multiarray_umath.__file__)   # dlsym sees its BLAS
        get_threads = lib.scipy_openblas_get_num_threads64_
        set_threads = lib.scipy_openblas_set_num_threads64_
    except (ImportError, OSError, AttributeError):
        return None
    get_threads.argtypes, get_threads.restype = [], ctypes.c_int
    set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
    return get_threads, set_threads


def main(argv=None):
    """Run one command and return its exit code.

    The command runs on one thread of the OpenBLAS that numpy >= 2 bundles,
    whose threaded and single-threaded products round differently, and the
    previous count is restored on return. Where numpy's BLAS does not export
    ``scipy_openblas_set_num_threads64_`` (a numpy built against another
    BLAS), the count is left as it is, and the pressure's LU may then round
    differently between thread counts from n_theta = 128 up. A library
    caller of :func:`tumorspec.dynamics.phi` runs with the count its
    environment sets.
    """
    args = build_parser().parse_args(argv)
    threads = _openblas_threads()
    if threads:
        get_threads, set_threads = threads
        previous = get_threads()
        set_threads(1)
    try:
        return _guarded(lambda: COMMANDS[args.command](load_config(args)))
    finally:
        if threads:
            set_threads(previous)


if __name__ == "__main__":
    sys.exit(main())
