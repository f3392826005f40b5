"""Command-line front end.

Subcommands: steady, spectrum, evolve, appendix-check, sweep. Configuration
is a single JSON document; command-line flags override config fields. All
numeric CSV output uses 17 significant digits and carries a header row, and
identical configurations produce byte-identical files.

Exit codes: 0 success, 2 validation error, 3 solver failure, 4 halt because
the evolving shape left the admissible neighbourhood.
"""

import argparse
import csv
import json
import math
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from .dynamics import StepperSettings, evolve_nonlinear
from .errors import SolverError, ValidationError
from .fields import GridSettings
from .linear import fit_growth_rate, linear_trajectory
from .models import parse_model_spec
from .radial import (appendix_series, boundary_ratio, solve_U, solve_u_n,
                     steady_radius)
from .shapes import ShapeState
from .spectrum import (DEFAULT_K_MAX, ModelParameters, build_table, write_csv,
                       write_report)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_SOLVER = 3
EXIT_LEFT_NEIGHBOURHOOD = 4

FMT = "%.17g"


def _fmt(x):
    return FMT % float(x)


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


def load_config(args):
    """Merge the JSON config (if any) with flag overrides."""
    cfg = {}
    if args.config:
        path = Path(args.config)
        if not path.exists():
            raise ValidationError(f"config file not found: {path}")
        try:
            cfg = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise ValidationError(f"config is not valid JSON: {exc}") from exc
        if not isinstance(cfg, dict):
            raise ValidationError("config must be a JSON object")
    for key in ("A", "G", "model", "kmax", "mode", "t_end", "seed_shape", "out"):
        val = getattr(args, key, None)
        if val is not None:
            cfg[key] = val
    return cfg


REQUIRED = object()


def _number(cfg, key, kind, default):
    """cfg[key] as a finite ``kind`` (int or float), or ``default`` if unset.

    Pass REQUIRED as ``default`` for a parameter that must be given.
    """
    value = cfg.get(key)
    if value is None:
        if default is REQUIRED:
            raise ValidationError(f"missing required parameter {key!r}")
        return default
    return _checked_number(value, key, kind)


def _checked_number(value, name, kind):
    """value as a finite ``kind`` (int or float).

    Booleans, strings, floats given for an int, NaN and infinities are
    rejected.
    """
    allowed = int if kind is int else (int, float)
    if isinstance(value, bool) or not isinstance(value, allowed):
        raise ValidationError(f"{name} must be of type {kind.__name__}; got {value!r}")
    if not math.isfinite(value):
        raise ValidationError(f"{name} must be finite; got {value!r}")
    return kind(value)


def _positive_settings(cls, cfg, kinds):
    """``cls`` built from the keys of ``kinds`` present in cfg, each positive."""
    kw = {}
    for key, kind in kinds.items():
        value = _number(cfg, key, kind, None)
        if value is not None:
            if value <= 0:
                raise ValidationError(f"{key} must be positive; got {value!r}")
            kw[key] = value
    return cls(**kw)


def _model(cfg):
    return parse_model_spec(cfg.get("model", "identity"))


def _outdir(cfg):
    out = Path(cfg.get("out", "."))
    out.mkdir(parents=True, exist_ok=True)
    return out


def _grid_settings(cfg):
    return _positive_settings(GridSettings, cfg, {
        "n_r": int, "n_theta": int, "newton_tol": float,
        "max_newton_iters": int, "krylov_tol": float})


def _stepper_settings(cfg):
    return _positive_settings(StepperSettings, cfg, {
        "dt_init": float, "dt_min": float, "dt_max": float,
        "err_target": float})


def cmd_steady(cfg):
    model = _model(cfg)
    A = _number(cfg, "A", float, REQUIRED)
    steady = steady_radius(A, model)
    out = _outdir(cfg)

    report = {
        "A": A,
        "model": cfg.get("model", "identity"),
        "R_A": steady.R_A,
        "alpha_A": steady.alpha_A,
        "profile_file": "profile.csv",
    }
    with open(out / "steady.json", "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    with open(out / "profile.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["r", "v0"])
        for r, v in zip(steady.v0.grid, steady.v0.values):
            writer.writerow([_fmt(r), _fmt(v)])
    print(f"R_A = {_fmt(steady.R_A)}  alpha_A = {_fmt(steady.alpha_A)}")
    return EXIT_OK


def cmd_spectrum(cfg):
    model = _model(cfg)
    A = _number(cfg, "A", float, REQUIRED)
    G = _number(cfg, "G", float, REQUIRED)
    k_max = _number(cfg, "kmax", int, DEFAULT_K_MAX)
    params = ModelParameters(A=A, G=G, model=model,
                             R=_number(cfg, "R", float, None))
    table = build_table(params, k_max=k_max)
    out = _outdir(cfg)
    write_csv(table, out / "spectrum.csv")
    write_report(table, out / "report.json")
    print(f"R = {_fmt(table.R)}  modes 0..{k_max} -> "
          f"{out / 'spectrum.csv'}, {out / 'report.json'}")
    return EXIT_OK


def _seed_shape(cfg, R):
    spec = cfg.get("seed_shape")
    if spec is None:
        return ShapeState.zero(8, R)
    if isinstance(spec, str):
        modes = parse_seed_shape(spec)
    elif isinstance(spec, list):
        modes = []
        for entry in spec:
            if not isinstance(entry, list) or len(entry) != 3:
                raise ValidationError(
                    f"bad seed_shape entry {entry!r}; expected [k, amp, phase]")
            k, amp, phase = entry
            modes.append((_checked_number(k, "seed_shape k", int),
                          _checked_number(amp, "seed_shape amplitude", float),
                          _checked_number(phase, "seed_shape phase", float)))
    else:
        raise ValidationError(
            f"seed_shape must be a string or a list; got {spec!r}")
    return ShapeState.from_modes(modes, R)


def _write_trajectory(path, rows, k_top):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "sup_norm"] + [f"amp_{k}" for k in range(k_top + 1)])
        for t, sup, amps in rows:
            writer.writerow([_fmt(t), _fmt(sup)] + [_fmt(a) for a in amps])


def _snapshot(t, shape, n_theta=256):
    return {"t": float(t), "rho": [float(v) for v in shape.to_grid(n_theta)]}


def cmd_evolve(cfg):
    model = _model(cfg)
    A = _number(cfg, "A", float, REQUIRED)
    G = _number(cfg, "G", float, REQUIRED)
    mode = cfg.get("mode", "nonlinear")
    if mode not in ("linear", "nonlinear"):
        raise ValidationError(f"mode must be linear or nonlinear, got {mode!r}")
    t_end = _number(cfg, "t_end", float, 1.0)
    if t_end < 0:
        raise ValidationError("t_end must be nonnegative")
    R = _number(cfg, "R", float, None)
    if R is None:
        R = steady_radius(A, model).R_A

    shape0 = _seed_shape(cfg, R)
    shape0.require_admissible()
    k_top = max(8, shape0.n_modes)
    out = _outdir(cfg)
    status = "completed"

    if mode == "linear":
        k_max = max(_number(cfg, "kmax", int, DEFAULT_K_MAX), k_top, 2)
        table = build_table(ModelParameters(A=A, G=G, model=model, R=R),
                            k_max=k_max)
        n_samples = _number(cfg, "n_samples", int, 200)
        times = np.linspace(0.0, t_end, n_samples + 1)
        traj = linear_trajectory(shape0, times, table)
        rows = [(t, s.sup_norm(), [s.amplitude(k) for k in range(k_top + 1)])
                for t, s in traj]
        shapes = traj
    else:
        traj = evolve_nonlinear(shape0, t_end, A, G, model,
                                grid_settings=_grid_settings(cfg),
                                stepper=_stepper_settings(cfg))
        status = traj.status
        rows = [(p.t, p.sup_norm,
                 [p.shape.amplitude(k) for k in range(k_top + 1)])
                for p in traj.points]
        shapes = [(p.t, p.shape) for p in traj.points]

    _write_trajectory(out / "trajectory.csv", rows, k_top)

    rates = {}
    seeded = [k for k in range(1, k_top + 1)
              if shape0.amplitude(k) > 0.0]
    for k in seeded:
        series = [(t, s.amplitude(k)) for t, s in shapes if s.amplitude(k) > 0]
        if len(series) >= 3:
            fit = fit_growth_rate(series)
            rates[str(k)] = {"rate": fit.rate, "residual": fit.residual}

    snap = {
        "status": status,
        "mode": mode,
        "A": A,
        "G": G,
        "R": R,
        "t_end": t_end,
        "fitted_rates": rates,
        "snapshots": [_snapshot(*shapes[0]), _snapshot(*shapes[-1])],
    }
    with open(out / "snapshots.json", "w") as fh:
        json.dump(snap, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"{mode} evolution to t = {_fmt(shapes[-1][0])}, status = {status}")
    return EXIT_LEFT_NEIGHBOURHOOD if status == "left_neighbourhood" else EXIT_OK


def cmd_appendix_check(cfg):
    """Compare the closed-form series solutions with the ODE solver."""
    model = _model(cfg)
    if model.kind != "identity":
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
    with open(out / "appendix_check.json", "w") as fh:
        json.dump(result, fh, indent=2, sort_keys=True)
        fh.write("\n")
    for name in ("u0", "u1"):
        print(f"{name}: ratio = {_fmt(result['ratios'][name])}, "
              f"series vs solver diff = {_fmt(result['max_series_solver_diff'][name])}")
    print("passed" if ok else "FAILED")
    return EXIT_OK if ok else EXIT_SOLVER


def _sweep_one(payload):
    cfg, index = payload
    return index, cmd_spectrum(cfg)


def cmd_sweep(cfg):
    """Fan out independent spectrum runs over a parameter list."""
    sweep = cfg.get("sweep")
    if not isinstance(sweep, dict):
        raise ValidationError(
            'sweep requires a config with a "sweep" object: '
            '{"parameter": "A"|"G", "values": [...]}')
    param = sweep.get("parameter")
    values = sweep.get("values")
    if param not in ("A", "G"):
        raise ValidationError('sweep parameter must be "A" or "G"')
    if not isinstance(values, list) or not values:
        raise ValidationError("sweep values must be a nonempty list")

    out = _outdir(cfg)
    jobs = []
    for i, value in enumerate(values):
        sub = dict(cfg)
        sub.pop("sweep", None)
        sub[param] = float(value)
        sub["out"] = str(out / f"run_{i:03d}")
        jobs.append((sub, i))

    workers = _number(cfg, "workers", int, 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            codes = dict(pool.map(_sweep_one, jobs))
    else:
        codes = dict(map(_sweep_one, jobs))

    index = {"parameter": param,
             "runs": [{"index": i, param: float(v), "dir": f"run_{i:03d}"}
                      for i, v in enumerate(values)]}
    with open(out / "sweep.json", "w") as fh:
        json.dump(index, fh, indent=2, sort_keys=True)
        fh.write("\n")
    worst = max(codes.values())
    print(f"swept {param} over {len(values)} values -> {out}")
    return worst


def build_parser():
    parser = argparse.ArgumentParser(
        prog="tumorspec",
        description="Moving-boundary tumour growth model: equilibria, "
                    "linearized spectrum, and boundary evolution.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in (
            ("steady", "radially symmetric equilibrium"),
            ("spectrum", "linearization spectrum and thresholds"),
            ("evolve", "linear or nonlinear boundary evolution"),
            ("appendix-check", "series vs solver consistency check"),
            ("sweep", "independent spectrum runs over a parameter list")):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--config", type=str, default=None,
                       help="JSON config file; flags override its fields")
        p.add_argument("--A", type=float, default=None)
        p.add_argument("--G", type=float, default=None)
        p.add_argument("--model", type=str, default=None,
                       help="identity or poly:c1,c2,...")
        p.add_argument("--kmax", type=int, default=None)
        p.add_argument("--mode", type=str, default=None,
                       choices=("linear", "nonlinear"))
        p.add_argument("--t-end", dest="t_end", type=float, default=None)
        p.add_argument("--seed-shape", dest="seed_shape", type=str, default=None,
                       help="k:amp[:phase],... cosine mode list")
        p.add_argument("--out", type=str, default=None)
    return parser


COMMANDS = {
    "steady": cmd_steady,
    "spectrum": cmd_spectrum,
    "evolve": cmd_evolve,
    "appendix-check": cmd_appendix_check,
    "sweep": cmd_sweep,
}


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args)
        return COMMANDS[args.command](cfg)
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
