"""End-to-end acceptance gate.

Each test exercises one headline guarantee of the package at its pinned
tolerance and prints a single [PASS]/[FAIL] line (bypassing capture) so the
gate is auditable from the raw pytest log. Time budgets are asserted after a
one-time warm-up so they measure the algorithm, not first-call set-up such as
module imports and the cached radial collocation matrices.
"""

import time

import numpy as np
import pytest

from tumorspec.disk import DiskGrid, MappedCoefficients
from tumorspec.fields import solve_nutrient, solve_pressure
from tumorspec.linear import evolve_linear, fit_growth_rate
from tumorspec.models import identity_model
from tumorspec.radial import appendix_series, boundary_ratio, solve_U, solve_u_n
from tumorspec.shapes import ShapeState
from tumorspec.spectrum import build_table, g_star, l_G_index
from tumorspec.dynamics import evolve_nonlinear, phi

from oracles import (center_value, eval_field_columns, harmonic_values,
                     identity_g_star, identity_steady_A, linearized_mode_profile,
                     mapped_radius, pressure_data)


@pytest.fixture(scope="module", autouse=True)
def warm_kernels():
    # the first radial solve builds and caches the folded collocation
    # matrices; exclude that from the per-criterion budgets
    solve_U(1.0, identity_model())


def check(capsys, name, ok, detail):
    with capsys.disabled():
        print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}", flush=True)
    assert ok, f"{name}: {detail}"


def test_criterion_1_boundary_ratios(capsys, id_model):
    t0 = time.perf_counter()
    v0 = solve_U(1.0, id_model)
    r0 = boundary_ratio(0, 1.0, v0, id_model)
    r1 = boundary_ratio(1, 1.0, v0, id_model)
    dt = time.perf_counter() - t0
    ok = round(r0, 3) == 0.446 and round(r1, 3) == 0.240 and dt < 1.0
    check(capsys, "boundary ratios",
          ok, f"r0={r0:.6f} r1={r1:.6f} ({dt:.2f}s < 1s)")


def test_criterion_2_neutral_mode(capsys, id_model, poly_model):
    t0 = time.perf_counter()
    worst = 0.0
    for model in (id_model, poly_model):
        f1 = model.f_of_one
        for frac in (0.2, 0.4, 0.6, 0.8):
            table = build_table(A=frac * f1, G=1.0, model=model, k_max=2)
            worst = max(worst, abs(table.mu_at(1)))
    dt = time.perf_counter() - t0
    ok = worst <= 1e-8 and dt < 10.0
    check(capsys, "neutral mode-1 at equilibrium",
          ok, f"max |mu_1| = {worst:.2e} <= 1e-8 ({dt:.2f}s < 10s)")


def test_criterion_3_series_vs_solver(capsys, id_model, unit_steady):
    t0 = time.perf_counter()
    worst = 0.0
    for n, name in ((0, "u0"), (1, "u1")):
        prof = solve_u_n(n, 1.0, unit_steady.v0, id_model)
        for r in np.arange(0.1, 1.05, 0.1):
            worst = max(worst, abs(appendix_series(name, float(r), 40)
                                   - prof.at(float(r))))
    dt = time.perf_counter() - t0
    ok = worst <= 1e-8 and dt < 1.0
    check(capsys, "closed-form series vs ODE solver",
          ok, f"max diff = {worst:.2e} <= 1e-8 ({dt:.2f}s < 1s)")


def test_criterion_4_ratio_decay(capsys, id_model, unit_steady):
    t0 = time.perf_counter()
    ratios = [boundary_ratio(n, 1.0, unit_steady.v0, id_model)
              for n in range(13)]
    dt = time.perf_counter() - t0
    mono = all(ratios[n + 1] < ratios[n] for n in range(12))
    ok = mono and ratios[12] < 0.05 and dt < 5.0
    check(capsys, "monotone boundary-ratio decay",
          ok, f"monotone={mono} r_12={ratios[12]:.4f} < 0.05 ({dt:.2f}s < 5s)")


def test_criterion_5_thresholds(capsys, id_model):
    t0 = time.perf_counter()
    A = identity_steady_A()
    base = build_table(A=A, G=1.0, model=id_model, k_max=32)
    worst_mu = 0.0
    flips = True
    for k in range(2, 9):
        gk = float(base.g_threshold[k])
        at = build_table(A=A, G=gk, model=id_model, R=base.R, k_max=k)
        worst_mu = max(worst_mu, abs(at.mu_at(k)))
        below = build_table(A=A, G=0.99 * gk, model=id_model,
                            R=base.R, k_max=k)
        above = build_table(A=A, G=1.01 * gk, model=id_model,
                            R=base.R, k_max=k)
        flips = flips and below.mu_at(k) < 0.0 < above.mu_at(k)
    gs, k0 = g_star(base)
    gs_ref, k0_ref = identity_g_star(A)
    rel = abs(gs - gs_ref) / gs_ref
    dt = time.perf_counter() - t0
    ok = (worst_mu <= 1e-8 and flips and k0 == 2 == k0_ref
          and rel <= 5e-3 and dt < 10.0)
    check(capsys, "instability thresholds",
          ok, f"max |mu_k(G_k)| = {worst_mu:.2e}, sign flips={flips}, "
              f"G*={gs:.3f} at k0={k0} (rel err {rel:.2e} <= 5e-3) "
              f"({dt:.2f}s < 10s)")


def test_criterion_6_symbol_cross_validation(capsys, id_model, small_grid):
    t0 = time.perf_counter()
    A, G = 0.5, 2.0
    table = build_table(A=A, G=G, model=id_model, k_max=8)
    details = []
    ok = True
    for k in (0, 2, 3, 4, 5):
        mu = table.mu_at(k)
        errs = {}
        for eps in (1e-3, 5e-4):
            s = ShapeState.from_modes([(k, eps, 0.0)], table.R)
            res = phi(s, A, G, id_model, small_grid)
            rho_hat = eps if k == 0 else s.coeff(k).real
            errs[eps] = abs(res.coeffs[k].real / rho_hat - mu)
        ok = ok and errs[1e-3] <= 0.02 * (1.0 + abs(mu))
        ok = ok and errs[5e-4] <= 0.55 * errs[1e-3] + 1e-9
        details.append(f"k={k}: {errs[1e-3]:.1e}/{errs[5e-4]:.1e}")
    dt = time.perf_counter() - t0
    ok = ok and dt < 120.0
    check(capsys, "nonlinear velocity matches symbol",
          ok, "; ".join(details) + f" ({dt:.1f}s < 120s)")


def test_criterion_7a_supercritical_growth(capsys, id_model, small_grid):
    t0 = time.perf_counter()
    A = identity_steady_A()
    base = build_table(A=A, G=1.0, model=id_model, k_max=32)
    gs, _ = g_star(base)
    G = 1.5 * gs
    table = build_table(A=A, G=G, model=id_model, R=base.R, k_max=8)
    mu2 = table.mu_at(2)
    seed = ShapeState.from_modes([(2, 1e-3, 0.0)], base.R)
    traj = evolve_nonlinear(seed, 0.5, A, G, id_model, small_grid)
    window = [(p.t, p.shape.amplitude(2)) for p in traj.points
              if p.sup_norm <= 5e-3]
    fit = fit_growth_rate(window)
    rel = abs(fit.rate - mu2) / mu2
    dt = time.perf_counter() - t0
    ok = mu2 > 0.0 and rel < 0.05 and dt < 300.0
    check(capsys, "supercritical mode-2 growth",
          ok, f"rate={fit.rate:.4f} vs mu_2={mu2:.4f} "
              f"(rel {rel:.2%} < 5%) ({dt:.1f}s < 300s)")


def test_criterion_7b_lattice_decay(capsys, id_model, small_grid):
    t0 = time.perf_counter()
    A, G = identity_steady_A(), 1.0
    table = build_table(A=A, G=G, model=id_model, k_max=32)
    l = max(2, l_G_index(table))
    mu_l = table.mu_at(l)
    seed = ShapeState.from_modes([(l, 1e-3, 0.0)], table.R)
    traj = evolve_nonlinear(seed, 0.3, A, G, id_model, small_grid)
    fit = fit_growth_rate([(p.t, p.shape.amplitude(l)) for p in traj.points])
    rel = abs(fit.rate - mu_l) / abs(mu_l)
    off = [k for k in range(1, 10) if k % l]
    leak = max(max(p.shape.amplitude(k) for k in off) for p in traj.points)
    dt = time.perf_counter() - t0
    ok = mu_l < 0.0 and rel < 0.05 and leak <= 1e-10 and dt < 300.0
    check(capsys, "periodic-lattice decay",
          ok, f"l={l} rate={fit.rate:.4f} vs mu_l={mu_l:.4f} "
              f"(rel {rel:.2%} < 5%), leakage={leak:.1e} <= 1e-10 "
              f"({dt:.1f}s < 300s)")


def test_criterion_8_field_solvers(capsys, id_model, unit_steady, small_grid):
    t0 = time.perf_counter()
    grid = small_grid
    R, v0 = unit_steady.R_A, unit_steady.v0

    # unperturbed nutrient against the shooting profile
    z = ShapeState.zero(4, R)
    nut = solve_nutrient(MappedCoefficients.from_boundary(z, grid), id_model)
    err_nut = float(np.max(np.abs(nut.values - v0.at(grid.r)[:, None])))

    # pressure mean-value property at the center
    s = ShapeState.from_modes([(2, 1e-2, 0.0), (5, 5e-3, 0.9)], R)
    coefs = MappedCoefficients.from_boundary(s, grid)
    pres = harmonic_values(grid, coefs, pressure_data(coefs, unit_steady.A, 2.0),
                           solve_pressure(coefs, unit_steady.A, 2.0))
    radii = np.array([mapped_radius(coefs, 0.5, j)
                      for j in range(grid.n_theta)])
    ring = eval_field_columns(grid, pres, radii)
    err_pres = abs(center_value(grid, pres) - float(ring.mean()))

    # perturbed nutrient converges quadratically to the linearized profile
    k = 3
    uk = solve_u_n(k, R, v0, id_model)
    prof = linearized_mode_profile(k, 1.0, v0, uk)
    errs = []
    for eps in (1e-2, 1e-3):
        sp = ShapeState.from_modes([(k, eps, 0.0)], R)
        coefs_p = MappedCoefficients.from_boundary(sp, grid)
        nutp = solve_nutrient(coefs_p, id_model)
        radii_p = np.array([mapped_radius(coefs_p, 0.6, j)
                            for j in range(grid.n_theta)])
        wnum = eval_field_columns(grid, nutp.values, radii_p)
        pred = v0.at(0.6) + eps * prof.at(0.6) * np.cos(k * grid.theta)
        errs.append(float(np.max(np.abs(wnum - pred))))
    quadratic = errs[0] < 50.0 * 1e-4 and errs[1] < errs[0] / 20.0

    dt = time.perf_counter() - t0
    ok = err_nut <= 1e-8 and err_pres <= 1e-8 and quadratic and dt < 30.0
    check(capsys, "field solvers",
          ok, f"nutrient={err_nut:.1e} <= 1e-8, pressure mean-value="
              f"{err_pres:.1e} <= 1e-8, perturbation errs {errs[0]:.1e}"
              f"->{errs[1]:.1e} quadratic={quadratic} ({dt:.1f}s < 30s)")


def test_criterion_9_property_suite(capsys, id_model, poly_model, unit_table,
                                    rng):
    t0 = time.perf_counter()
    n_cases = 100
    failures = []
    for case in range(n_cases):
        # symmetry: the symbol is even in the mode index
        k = int(rng.integers(0, unit_table.k_max + 1))
        if unit_table.mu_at(k) != unit_table.mu_at(-k):
            failures.append(f"case {case}: symmetry at k={k}")

        # reality: linear evolution of a real shape stays real
        modes = [(int(kk), float(rng.uniform(0, 1e-3)),
                  float(rng.uniform(0, 2 * np.pi)))
                 for kk in rng.choice(np.arange(1, 9), size=3, replace=False)]
        s = ShapeState.from_modes(modes, unit_table.R, n_modes=8)
        t1, t2 = float(rng.uniform(0.1, 1.0)), float(rng.uniform(0.1, 1.0))
        out = evolve_linear(s, t1 + t2, unit_table)
        if float(np.max(np.abs(np.imag(out.to_grid(64))))) != 0.0:
            failures.append(f"case {case}: reality")

        # semigroup: one step of t1+t2 equals two composed steps
        two = evolve_linear(evolve_linear(s, t1, unit_table), t2, unit_table)
        if not np.allclose(out.coeffs, two.coeffs, rtol=1e-13, atol=1e-20):
            failures.append(f"case {case}: semigroup")

        # lattice invariance: a p-periodic shape keeps its lattice
        p = int(rng.integers(2, 5))
        lat = ShapeState.from_modes(
            [(p, float(rng.uniform(0, 1e-3)), float(rng.uniform(0, 2 * np.pi)))],
            unit_table.R, n_modes=8)
        lat_out = evolve_linear(lat, t1, unit_table)
        if any(lat_out.coeff(kk) != 0.0 for kk in range(1, 9) if kk % p):
            failures.append(f"case {case}: lattice invariance")

        # maximum principle: radial concentrations stay in (0, 1]
        lam = float(rng.uniform(0.05, 25.0))
        model = id_model if case % 2 == 0 else poly_model
        prof = solve_U(lam, model)
        if not (np.all(prof.values > 0.0)
                and np.all(prof.values <= 1.0 + 1e-12)):
            failures.append(f"case {case}: maximum principle (lam={lam:.3f})")

        # curvature linearization: kappa = 1/R - (rho + rho'')/R + O(eps^2)
        kc = int(rng.integers(1, 7))
        eps = 1e-5
        R = float(rng.uniform(0.5, 2.0))
        sc = ShapeState.from_modes(
            [(kc, eps, float(rng.uniform(0, 2 * np.pi)))], R)
        rho = sc.to_grid(128)
        kappa = MappedCoefficients.from_boundary(
            sc, DiskGrid(n_r=4, n_theta=128)).curvature
        linear = 1.0 / R - (1.0 - kc**2) * rho / R   # rho'' = -kc**2 rho
        if float(np.max(np.abs(kappa - linear))) >= 100.0 * eps**2 * kc**4 / R:
            failures.append(f"case {case}: curvature linearization")

    dt = time.perf_counter() - t0
    ok = not failures and dt < 120.0
    check(capsys, "randomized property suite",
          ok, f"{n_cases} cases, {len(failures)} failures ({dt:.1f}s < 120s)"
              + (f"; first: {failures[0]}" if failures else ""))
