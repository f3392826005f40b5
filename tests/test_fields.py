"""Field solves on the perturbed domain against radial and harmonic oracles."""

import dataclasses
import gc
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tumorspec import dynamics, fields
from tumorspec.disk import (DiskGrid, MappedCoefficients, ModePreconditioner,
                            apply_mapped_laplacian, barycentric_matrix,
                            barycentric_weights, chebyshev_nodes,
                            chebyshev_points, mapped_laplacian_kernel,
                            radial_fold)
from tumorspec.dynamics import evolve_nonlinear, phi
from tumorspec.errors import DomainValidityError, SolverError, ValidationError
from tumorspec.fields import gmres, solve_nutrient, solve_pressure
from tumorspec.models import parse_model_spec
from tumorspec.radial import solve_u_n, steady_radius
from tumorspec.shapes import ShapeState

from oracles import (center_value, eval_field_columns, exact_harmonic,
                     fold_interpolation, harmonic_residual, harmonic_values,
                     linearized_mode_profile, mapped_phi, mapped_radius,
                     oracle_shape, pressure_data, translated_disk,
                     translated_nutrient, translated_shape)


@pytest.fixture
def built(monkeypatch):
    """The grid size of each ModePreconditioner built from now on.

    The kept preconditioner is dropped first, so the count does not depend
    on which tests ran before.
    """
    fields._equilibrium.cache_clear()
    built = []
    init = ModePreconditioner.__init__

    def counted(self, grid, potential):
        built.append((grid.n_r, grid.n_theta))
        init(self, grid, potential)

    monkeypatch.setattr(ModePreconditioner, "__init__", counted)
    return built


def _translated_nutrient_solve(model, A, d, n_r, n_theta):
    """The grid, the map, the nutrient solve and the model of the translated
    disk of sup|rho| = d at the model's steady radius."""
    model = parse_model_spec(model)
    R = steady_radius(A, model).R_A
    grid = DiskGrid(n_r=n_r, n_theta=n_theta)
    coefs = MappedCoefficients.from_boundary(
        translated_shape(d, R, n_theta // 2 - 1), grid)
    return grid, coefs, solve_nutrient(coefs, model), model


def _pressure_values(grid, coefs, A, G):
    """The pressure's samples on the grid, from its Dirichlet data and the
    flux that solve_pressure returns."""
    return harmonic_values(grid, coefs, pressure_data(coefs, A, G),
                           solve_pressure(coefs, A, G))


class TestNutrientAtEquilibrium:
    def test_matches_radial_profile(self, unit_steady, id_model, small_grid):
        grid = small_grid
        z = ShapeState.zero(4, unit_steady.R_A)
        nut = solve_nutrient(MappedCoefficients.from_boundary(z, grid), id_model)
        expected = unit_steady.v0.at(grid.r)[:, None]
        assert np.max(np.abs(nut.values - expected)) < 1e-8

    def test_boundary_derivative_matches_shooting(self, unit_steady, id_model,
                                                  small_grid):
        grid = small_grid
        z = ShapeState.zero(4, unit_steady.R_A)
        nut = solve_nutrient(MappedCoefficients.from_boundary(z, grid), id_model)
        assert np.max(np.abs(unit_steady.R_A * nut.flux
                             - unit_steady.v0.deriv_values[-1])) < 1e-8

    def test_center_value(self, unit_steady, id_model, small_grid):
        grid = small_grid
        z = ShapeState.zero(4, unit_steady.R_A)
        nut = solve_nutrient(MappedCoefficients.from_boundary(z, grid), id_model)
        assert center_value(grid, nut.values) == pytest.approx(
            unit_steady.v0.values[0], abs=1e-10)

    def test_maximum_principle_on_perturbed_domain(self, unit_steady, id_model,
                                                   small_grid):
        grid = small_grid
        s = ShapeState.from_modes([(3, 5e-2, 0.4)], unit_steady.R_A)
        nut = solve_nutrient(MappedCoefficients.from_boundary(s, grid), id_model)
        assert np.all(nut.values > 0.0)
        assert np.all(nut.values <= 1.0 + 1e-10)


class TestPressure:
    def test_constant_for_disk_with_balanced_data(self, unit_steady, small_grid):
        # on the unperturbed disk the boundary data is constant, so the
        # harmonic extension is that constant
        grid = small_grid
        z = ShapeState.zero(4, unit_steady.R_A)
        A, G = unit_steady.A, 2.0
        values = _pressure_values(grid, MappedCoefficients.from_boundary(z, grid),
                                  A, G)
        expected = 1.0 / unit_steady.R_A - 0.25 * A * G * unit_steady.R_A**2
        assert np.max(np.abs(values - expected)) < 1e-10

    def test_center_mean_value_property(self, unit_steady, small_grid):
        grid = small_grid
        s = ShapeState.from_modes([(2, 1e-2, 0.0), (5, 5e-3, 0.9)],
                                  unit_steady.R_A)
        coefs = MappedCoefficients.from_boundary(s, grid)
        values = _pressure_values(grid, coefs, unit_steady.A, 2.0)
        # the mean over any interior physical circle equals the center value
        for frac in (0.3, 0.6):
            radii = np.array([mapped_radius(coefs, frac, j)
                              for j in range(grid.n_theta)])
            ring = eval_field_columns(grid, values, radii)
            assert abs(center_value(grid, values) - ring.mean()) < 1e-8

    def test_boundary_trace_is_the_dealiased_data(self, unit_steady, small_grid,
                                                  monkeypatch):
        # the Dirichlet data the boundary solve receives are the samples of
        # the truncated data spectrum
        received = []
        solve = fields._harmonic_field

        def recorded(coefs, data):
            received.append(data)
            return solve(coefs, data)

        monkeypatch.setattr(fields, "_harmonic_field", recorded)
        grid = small_grid
        s = ShapeState.from_modes([(2, 5e-2, 0.3), (5, 2e-2, 0.9)],
                                  unit_steady.R_A)
        coefs = MappedCoefficients.from_boundary(s, grid)
        A, G = unit_steady.A, 2.0
        solve_pressure(coefs, A, G)
        data = pressure_data(coefs, A, G)
        assert np.max(np.abs(received[0] - data)) \
            <= 1e-13 * np.max(np.abs(data))

    def test_harmonic_residual_small(self, unit_steady, small_grid):
        grid = small_grid
        s = ShapeState.from_modes([(3, 2e-2, 0.0)], unit_steady.R_A)
        coefs = MappedCoefficients.from_boundary(s, grid)
        values = _pressure_values(grid, coefs, unit_steady.A, 2.0)
        assert harmonic_residual(coefs, values) < 1e-7

    def test_normal_derivative_symbol(self, unit_steady, small_grid):
        # linearized boundary data curvature - A G R^2 h^2 / 4 excites mode k
        # with the harmonic r^|k| profile; check R dq/dn against |k| times
        # the boundary coefficient
        grid = small_grid
        eps, k = 1e-4, 4
        R = unit_steady.R_A
        A, G = unit_steady.A, 2.0
        s = ShapeState.from_modes([(k, eps, 0.0)], R)
        coefs = MappedCoefficients.from_boundary(s, grid)
        spec_b = np.fft.rfft(pressure_data(coefs, A, G)) / grid.n_theta
        spec_d = np.fft.rfft(R * solve_pressure(coefs, A, G)) / grid.n_theta
        assert spec_d[k] == pytest.approx(k * spec_b[k], rel=1e-4)
        expected = (k**2 - 1.0) / R - 0.5 * A * G * R**2
        assert 2.0 * spec_b[k].real / eps == pytest.approx(expected, rel=1e-3)

    @pytest.mark.parametrize("R", [1.0, 3.33])
    @pytest.mark.parametrize("n, a, bound", [(64, 0.01, 1e-8), (64, 0.03, 1e-8),
                                             (128, 0.08, 1e-11),
                                             (128, 0.15, 1e-11),
                                             (256, 0.15, 1e-11),
                                             (1024, 0.15, 1e-11)])
    def test_normal_derivative_of_an_exact_harmonic(self, n, a, bound, R):
        # the physical normal derivative of a field that is harmonic
        # everywhere, from its samples on the boundary nodes
        grid = DiskGrid(n_r=8, n_theta=n)
        coefs = MappedCoefficients.from_boundary(oracle_shape(n, a, R), grid)
        y = R * coefs.h * np.exp(1j * grid.theta)
        q, dF = exact_harmonic(y, R)
        got = fields._harmonic_field(coefs, q)
        normal = -1j * y * (coefs.beta + 1j) / np.abs(y * (coefs.beta + 1j))
        flux = (dF * normal).real
        assert np.max(np.abs(got - flux)) <= bound * np.max(np.abs(flux))

    @pytest.mark.parametrize("n", [64, 128])
    def test_one_lu_and_no_qr(self, n, monkeypatch):
        # the bordered single-layer system is solved by one LU; no QR
        # factorization precedes it
        calls = []
        solve, qr = np.linalg.solve, np.linalg.qr

        def counted(name, call):
            def wrapped(*args, **kwargs):
                calls.append(name)
                return call(*args, **kwargs)
            return wrapped

        monkeypatch.setattr(np.linalg, "solve", counted("solve", solve))
        monkeypatch.setattr(np.linalg, "qr", counted("qr", qr))
        grid = DiskGrid(n_r=8, n_theta=n)
        coefs = MappedCoefficients.from_boundary(oracle_shape(n, 0.03, 1.0), grid)
        y = coefs.h * np.exp(1j * grid.theta)
        fields._harmonic_field(coefs, exact_harmonic(y, 1.0)[0])
        assert calls == ["solve"]

    @pytest.mark.parametrize("n", [128, 256])
    @pytest.mark.parametrize("d", [0.1, 0.2])
    @pytest.mark.parametrize("model, A, G", [("identity", 0.5, 2.0),
                                             ("poly:1,0.3", 0.7, 1.0)])
    def test_pressure_of_a_translated_disk(self, model, A, G, d, n):
        # at the steady radius, sup|rho| = d: the pressure is affine, and its
        # flux is -(A G / 2) c.nu at every node
        R = steady_radius(A, parse_model_spec(model)).R_A
        exact = translated_disk(n, d, R, A, G)[1]
        grid = DiskGrid(n_r=8, n_theta=n)
        coefs = MappedCoefficients.from_boundary(translated_shape(d, R, n // 2 - 1),
                                                 grid)
        got = solve_pressure(coefs, A, G)
        assert np.max(np.abs(got - exact)) <= 1e-10 * np.max(np.abs(exact))

    @pytest.mark.parametrize("R", [1.0, 3.33])
    @pytest.mark.parametrize("a", [0.01, 0.03])
    def test_values_of_an_exact_harmonic(self, small_grid, a, R):
        # every grid row, the one next to the boundary (r = 0.9988) included
        grid = small_grid
        coefs = MappedCoefficients.from_boundary(oracle_shape(grid.n_theta, a, R),
                                                 grid)
        y = R * coefs.h * np.exp(1j * grid.theta)
        q = exact_harmonic(y, R)[0]
        values = harmonic_values(grid, coefs, q,
                                 fields._harmonic_field(coefs, q))
        exact = exact_harmonic(R * mapped_phi(coefs, grid.r)
                               * np.exp(1j * grid.theta), R)[0]
        assert np.max(np.abs(values - exact)) <= 1e-8 * np.max(np.abs(exact))

    def test_memory_of_a_fine_boundary_solve(self):
        # n_theta = 1024: the system is 8.4 MB, and a Cauchy evaluation of
        # all 15 interior rows at once would hold 250 MB
        grid = DiskGrid(n_r=16, n_theta=1024)
        s = ShapeState.from_modes([(3, 0.1, 0.0), (40, 0.01, 0.5)], 1.0)
        coefs = MappedCoefficients.from_boundary(s, grid)
        fields._log_weights.cache_clear()
        tracemalloc.start()
        try:
            assert np.isfinite(_pressure_values(grid, coefs, 0.5, 2.0)).all()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 128 * 2**20

    def test_returns_only_the_flux(self, unit_steady, small_grid):
        # the velocity reads only the flux on the boundary nodes, so no grid
        # sample is computed
        grid = small_grid
        s = ShapeState.from_modes([(3, 2e-2, 0.0)], unit_steady.R_A)
        flux = solve_pressure(MappedCoefficients.from_boundary(s, grid),
                              unit_steady.A, 2.0)
        assert type(flux) is np.ndarray and flux.shape == (grid.n_theta,)


def _random_system(seed, n, preconditioner):
    """A nonsymmetric matrix, a preconditioner apply and a right-hand side."""
    gen = np.random.default_rng(seed)
    A = gen.standard_normal((n, n)) + np.diag(gen.uniform(1.0, 10.0, n))
    if preconditioner == "jacobi":
        d = np.diag(A).copy()
        psolve = lambda w: w / d   # noqa: E731
    elif preconditioner == "dense":
        inverse = np.linalg.inv(A + 0.1 * gen.standard_normal((n, n)))
        psolve = lambda w: inverse @ w   # noqa: E731
    else:
        psolve = lambda w: w.copy()   # noqa: E731
    return A, psolve, gen.standard_normal(n)


class TestGmres:
    @pytest.mark.parametrize("seed, n, preconditioner, rtol, restart, maxiter", [
        (1, 40, "jacobi", 1e-11, 60, 10),
        (2, 40, "jacobi", 1e-13, 5, 20),
        (3, 30, "dense", 1e-14, 3, 10),
        (4, 25, "identity", 1e-8, 4, 3),
        (5, 50, "identity", 1e-14, 3, 1),
    ])
    def test_agrees_with_the_dense_oracle(self, seed, n, preconditioner, rtol,
                                          restart, maxiter):
        A, psolve, b = _random_system(seed, n, preconditioner)
        x, history, r = gmres(lambda v: A @ v, psolve, b, rtol=rtol,
                              restart=restart, maxiter=maxiter)
        assert np.array_equal(r, b - A @ x)
        rnorm = np.linalg.norm(r)
        # the roundoff of evaluating b - A x; the measured gaps below stay
        # under it by a factor of 100 or more
        roundoff = n * np.finfo(float).eps * (
            np.linalg.norm(b) + np.linalg.norm(A, 2) * np.linalg.norm(x))
        # x - A^-1 b = -A^-1 r
        exact = np.linalg.solve(A, b)
        assert np.linalg.norm(x - exact) \
            <= np.linalg.norm(np.linalg.inv(A), 2) * (rnorm + roundoff)
        # right preconditioning: the last cycle's last estimate is |b - A x|
        # of the returned x, converged or not
        assert abs(history[-1][-1] - rnorm) <= roundoff

    def test_large_shape_needs_restarts(self, id_model, small_grid,
                                        monkeypatch):
        # mode 12 at amplitude 0.2: the last Newton step takes more than one
        # cycle of 60 iterations, so a single cycle would raise SolverError
        cycles = []
        solve = fields.gmres

        def recorded(*args, **kwargs):
            out = solve(*args, **kwargs)
            cycles.append(len(out[1]))
            return out

        monkeypatch.setattr(fields, "gmres", recorded)
        s = ShapeState.from_modes([(12, 0.2, 0.0)], 1.0)
        res = phi(s, 0.5, 2.0, id_model, small_grid)
        assert np.all(np.isfinite(res.coeffs))
        assert max(cycles) > 1

    @pytest.fixture
    def system(self):
        # nonsymmetric and diagonally dominant, so Jacobi preconditions it
        gen = np.random.default_rng(12)
        A = gen.standard_normal((40, 40)) + np.diag(gen.uniform(40.0, 60.0, 40))
        return A, gen.standard_normal(40)

    @pytest.mark.parametrize("restart", [60, 5])
    def test_matches_dense_solve(self, system, restart):
        A, b = system
        jacobi = np.diag(A).copy()
        x, history, r = gmres(lambda v: A @ v, lambda v: v / jacobi, b,
                              rtol=1e-13, restart=restart, maxiter=20)
        assert np.linalg.norm(r) <= 1e-13 * np.linalg.norm(b)
        assert np.array_equal(r, b - A @ x)
        exact = np.linalg.solve(A, b)
        assert np.max(np.abs(x - exact)) <= 1e-10 * np.max(np.abs(exact))
        assert all(len(cycle) <= restart for cycle in history)
        # a cycle of at least 40 steps is full GMRES, exact within 40 steps
        assert len(history) == 1 if restart == 60 else len(history) > 1

    def test_zero_rhs_gives_zero(self, system):
        A, _ = system
        x, history, r = gmres(lambda v: A @ v, lambda v: v, np.zeros(40),
                              rtol=1e-12, restart=60, maxiter=10)
        assert history == [] and not r.any()
        assert not x.any()

    def test_unconverged_reports_maxiter(self, system):
        A, b = system
        x, history, r = gmres(lambda v: A @ v, lambda v: v, b,
                              rtol=1e-14, restart=3, maxiter=1)
        assert np.linalg.norm(r) > 1e-14 * np.linalg.norm(b)
        assert [len(cycle) for cycle in history] == [3]
        assert np.array_equal(r, b - A @ x)
        assert np.linalg.norm(r) > 1e-14 * np.linalg.norm(b)


class TestPerturbedNutrient:
    @pytest.mark.parametrize("k", [2, 3])
    def test_matches_linearized_profile_to_second_order(self, k, unit_steady,
                                                        id_model, small_grid):
        grid = small_grid
        R, v0 = unit_steady.R_A, unit_steady.v0
        uk = solve_u_n(k, R, v0, id_model)
        errs = []
        for eps in (1e-2, 1e-3):
            s = ShapeState.from_modes([(k, eps, 0.0)], R)
            coefs = MappedCoefficients.from_boundary(s, grid)
            nut = solve_nutrient(coefs, id_model)
            prof = linearized_mode_profile(k, 1.0, v0, uk)
            frac = 0.6
            radii = np.array([mapped_radius(coefs, frac, j)
                              for j in range(grid.n_theta)])
            wnum = eval_field_columns(grid, nut.values, radii)
            pred = v0.at(frac) + eps * prof.at(frac) * np.cos(k * grid.theta)
            errs.append(np.max(np.abs(wnum - pred)))
        assert errs[0] < 50.0 * 1e-4   # O(eps^2) at eps = 1e-2
        assert errs[1] < errs[0] / 20.0   # quadratic, not linear, in eps

    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_flux_matches_linearized_profile(self, k, unit_steady, id_model,
                                             small_grid):
        # on r = R (1 + eps cos k theta), v = v0(s/R) + eps prof(s/R) cos k
        # theta + O(eps^2), so R dv/dn = v0'(1) + eps cos k theta (v0''(1) +
        # prof'(1)) + O(eps^2), with v0''(1) = R**2 f(1) - v0'(1) from the
        # radial equation
        grid = small_grid
        R, v0 = unit_steady.R_A, unit_steady.v0
        prof = linearized_mode_profile(k, 1.0, v0, solve_u_n(k, R, v0, id_model))
        v0_rr = R**2 * id_model.f_of_one - v0.deriv_values[-1]
        errs = []
        for eps in (1e-2, 1e-3):
            s = ShapeState.from_modes([(k, eps, 0.0)], R)
            nut = solve_nutrient(MappedCoefficients.from_boundary(s, grid), id_model)
            pred = (v0.deriv_values[-1] + eps * np.cos(k * grid.theta)
                    * (v0_rr + prof.deriv_values[-1])) / R
            errs.append(np.max(np.abs(nut.flux - pred)))
        assert errs[1] <= errs[0] / 50.0   # quadratic, not linear, in eps

    def test_stalled_krylov_raises(self, unit_steady, id_model, monkeypatch):
        # without a preconditioner GMRES ends far above the tolerance; the
        # solve must report that instead of probing a dense matrix
        monkeypatch.setattr(ModePreconditioner, "solve_interior",
                            lambda self, residual: residual)
        grid = DiskGrid(n_r=16, n_theta=32)
        s = ShapeState.from_modes([(3, 2e-2, 0.0)], unit_steady.R_A)
        with pytest.raises(SolverError, match=r"after 10 cycles \(600 "
                           r"iterations\); relative residual \S+ on 480 "
                           r"equations;"):
            solve_nutrient(MappedCoefficients.from_boundary(s, grid), id_model)

    def test_interior_solve_returns_the_residual_samples(self, poly_model):
        # the residual is the samples of rhs - (operator - potential) W of
        # the returned W, here at a 1e-4 tolerance, so it is not negligible;
        # recomputed afresh it agrees to roundoff, 1e-14 of max|rhs|
        grid = DiskGrid(n_r=16, n_theta=32)
        s = ShapeState.from_modes([(2, 3e-2, 0.0), (3, 2e-2, 0.5)], 1.2)
        coefs = MappedCoefficients.from_boundary(s, grid)
        v0, precond = fields._equilibrium(grid.n_r, grid.n_theta, 1.2,
                                          poly_model)
        v = np.broadcast_to(v0, (grid.n_r, grid.n_theta)).copy()
        v[0, :] = 1.0
        scale = coefs.scale[1:]
        rhs = scale * poly_model.f_at(v[1:]) \
            - mapped_laplacian_kernel(coefs, grid.to_modes(v))
        potential = scale * poly_model.fprime_at(v[1:])
        W, r = fields._interior_solve(coefs, potential, rhs, precond, 1e-4)
        assert r.shape == rhs.shape and not W[0].any()
        expected = rhs - mapped_laplacian_kernel(coefs, W, potential)
        assert np.max(np.abs(expected)) >= 1e-7 * np.max(np.abs(rhs))
        assert np.max(np.abs(r - expected)) <= 1e-14 * np.max(np.abs(rhs))

    @pytest.mark.parametrize("n_r, n_theta", [(32, 128), (64, 128), (32, 256)])
    @pytest.mark.parametrize("d", [0.1, 0.2])
    @pytest.mark.parametrize("model, A", [("identity", 0.5),
                                          ("poly:1,0.3", 0.7)])
    def test_flux_of_a_translated_disk(self, model, A, d, n_r, n_theta):
        # at the steady radius, sup|rho| = d: the nutrient is the radial
        # profile about the disk's centre, so its flux is U'(1) / R at every
        # node (measured at most 3.9e-12 relative)
        grid, coefs, nut, model = _translated_nutrient_solve(model, A, d, n_r,
                                                             n_theta)
        _, flux = translated_nutrient(0.0, d, coefs.R, model)
        assert np.max(np.abs(nut.flux - flux)) <= 1e-11 * abs(flux)

    @pytest.mark.parametrize("n_r, n_theta", [(32, 128), (64, 128), (32, 256)])
    @pytest.mark.parametrize("d", [0.1, 0.2])
    @pytest.mark.parametrize("model, A", [("identity", 0.5),
                                          ("poly:1,0.3", 0.7)])
    def test_values_of_a_translated_disk(self, model, A, d, n_r, n_theta):
        # the grid field, interpolated on each ray at 0.3, 0.6 and 0.9 of the
        # way to the boundary, is U(|x - c| / R) there (measured at most
        # 1.2e-13; U <= 1)
        grid, coefs, nut, model = _translated_nutrient_solve(model, A, d, n_r,
                                                             n_theta)
        for frac in (0.3, 0.6, 0.9):
            radii = [mapped_radius(coefs, frac * coefs.h[j], j)
                     for j in range(n_theta)]
            x = frac * coefs.R * coefs.h * np.exp(1j * grid.theta)
            exact, _ = translated_nutrient(x, d, coefs.R, model)
            got = eval_field_columns(grid, nut.values, radii)
            assert np.max(np.abs(got - exact)) <= 1e-11, frac

    def test_unconverged_newton_raises(self, unit_steady, poly_model,
                                       monkeypatch):
        # the first Krylov solve of a model with f'' != 0 stops at its 1e-4
        # forcing, so one Newton step leaves the residual above NEWTON_TOL
        monkeypatch.setattr(fields, "MAX_NEWTON_ITERS", 1)
        grid = DiskGrid(n_r=16, n_theta=32)
        s = ShapeState.from_modes([(3, 2e-2, 0.0)], unit_steady.R_A)
        with pytest.raises(SolverError, match=r"nutrient Newton iteration did "
                           r"not converge; residual history: \d\.\d{3}e-\d\d$"):
            solve_nutrient(MappedCoefficients.from_boundary(s, grid), poly_model)

    @pytest.mark.parametrize("n_r, n_theta, modes", [
        (32, 64, [(2, 1e-3, 0.0)]),
        (64, 128, [(3, 3e-2, 0.0), (2, 1.5e-2, 0.3)]),
    ], ids=["32x64", "64x128"])
    def test_one_krylov_solve_per_identity_solve(self, n_r, n_theta, modes,
                                                 unit_steady, id_model,
                                                 monkeypatch):
        # criterion 7a's velocity evaluation, and the default evolve's seed
        # on the default grid: the identity's Newton step is exact, so its
        # one Krylov solve goes to the residual that ends the loop
        solves = []
        solve = fields.gmres

        def counted(*args, **kwargs):
            solves.append(None)
            return solve(*args, **kwargs)

        monkeypatch.setattr(fields, "gmres", counted)
        grid = DiskGrid(n_r=n_r, n_theta=n_theta)
        s = ShapeState.from_modes(modes, unit_steady.R_A)
        solve_nutrient(MappedCoefficients.from_boundary(s, grid), id_model)
        assert len(solves) == 1

    @pytest.mark.parametrize("n_r, n_theta", [(32, 64), (64, 128), (256, 32)],
                             ids=["32x64", "64x128", "256x32"])
    def test_evaluated_residual_at_the_roundoff_bound(self, n_r, n_theta,
                                                      id_model, poly_model):
        # the loop reads each residual after the first from its Krylov
        # solve; evaluated afresh, the returned field's residual stays within
        # max(1e3 NEWTON_TOL, eps |r**2 D2 + r D|_inf), the roundoff of
        # evaluating it (1e-7 at n_r <= 64, 5.0e-6 at n_r = 256)
        grid = DiskGrid(n_r=n_r, n_theta=n_theta)
        fold = radial_fold(n_r)
        r = fold.r[:, None]
        bound = max(1e3 * fields.NEWTON_TOL, np.finfo(float).eps
                    * np.linalg.norm(r**2 * fold.D2[0] + r * fold.D[0], np.inf))
        s = ShapeState.from_modes([(2, 3e-2, 0.0), (3, 2e-2, 0.5)], 1.2)
        coefs = MappedCoefficients.from_boundary(s, grid)
        for model in (id_model, poly_model):
            v = solve_nutrient(coefs, model).values
            F = apply_mapped_laplacian(coefs, v) \
                - coefs.scale[1:] * model.f_at(v[1:])
            assert np.max(np.abs(F)) <= bound

    def test_finer_radial_grid_agrees(self, id_model):
        # mode 16 at amplitude 0.2 around R_A(0.5) = 3.33: the residual of
        # the 96x192 field, evaluated afresh, wanders above NEWTON_TOL at
        # the roundoff of the mapped operator, which the Newton loop must not
        # chase; the velocity agrees with 64x192 to 1e-9 of max|c_k|
        # (2.7e-11 of 3.23 seen)
        R = steady_radius(0.5, id_model).R_A
        s = ShapeState.from_modes([(16, 0.2, 0.0)], R)
        coeffs = [phi(s, 0.5, 2.0, id_model, DiskGrid(n_r=n_r, n_theta=192)).coeffs
                  for n_r in (64, 96)]
        assert np.max(np.abs(coeffs[1] - coeffs[0])) \
            <= 1e-9 * np.max(np.abs(coeffs[0]))

    def test_every_reducing_step_is_taken(self, poly_model):
        # f is not linear: the remainder keeps the loop going until one more
        # Newton step changes the field by no more than roundoff
        grid = DiskGrid()
        s = ShapeState.from_modes([(3, 0.15, 0.0), (7, 0.05, 0.4)], 3.0)
        assert s.sup_norm() == pytest.approx(0.196, abs=5e-4)
        coefs = MappedCoefficients.from_boundary(s, grid)
        v = solve_nutrient(coefs, poly_model).values
        scale = coefs.scale[1:, :]
        F = apply_mapped_laplacian(coefs, v) - scale * poly_model.f_at(v[1:, :])
        _, precond = fields._equilibrium(grid.n_r, grid.n_theta, 3.0, poly_model)
        delta, _ = fields._interior_solve(
            coefs, scale * poly_model.fprime_at(v[1:, :]), -F,
            precond, 1e-11)
        assert np.max(np.abs(grid.from_modes(delta))) <= 1e-12

    def test_largest_grid_matches_the_default_radial_resolution(self, id_model):
        # the roundoff of an exact field's residual grows with n_r (about
        # 2e-6 at n_r = 256); the Newton loop must stop there, not fail
        s = ShapeState.from_modes([(2, 3e-2, 0.0), (3, 2e-2, 0.5)], 1.2)
        low = []
        for n_r in (64, 256):
            grid = DiskGrid(n_r=n_r, n_theta=32)
            nut = solve_nutrient(MappedCoefficients.from_boundary(s, grid), id_model)
            low.append(np.fft.rfft(nut.flux)[:6] / grid.n_theta)
        assert np.max(np.abs(low[1] - low[0])) <= 1e-9


class TestMappedOperator:
    def test_map_holds_the_grid_it_samples(self, small_grid):
        s = ShapeState.from_modes([(2, 1e-2, 0.3)], 1.2)
        coefs = MappedCoefficients.from_boundary(s, small_grid)
        assert coefs.grid is small_grid and coefs.R == 1.2
        assert coefs.a_rr.shape == (small_grid.n_r, small_grid.n_theta)
        with pytest.raises(dataclasses.FrozenInstanceError):
            coefs.grid = DiskGrid(n_r=16, n_theta=small_grid.n_theta)

    @pytest.mark.parametrize("a", [0.5, 0.8])
    def test_map_refuses_an_inadmissible_shape(self, a):
        # at a = 0.5 the map's coefficients were NaN, and the nutrient solve
        # ran 600 GMRES iterations before it failed; at a = 0.8 the map
        # folded over (min J1 = -0.6) and the pressure solve returned a flux
        s = ShapeState.from_modes([(1, a, 0.0)], 1.0)
        with pytest.raises(DomainValidityError, match="admissible"):
            MappedCoefficients.from_boundary(s, DiskGrid(n_r=16, n_theta=64))

    @pytest.mark.parametrize("n_theta", [32, 128])
    def test_map_refuses_a_grid_that_cannot_resolve_the_shape(self, n_theta):
        # 64 modes need n_theta > 128; to_grid refuses in the same words
        s = ShapeState.from_modes([(2, 1e-2, 0.3), (64, 1e-3, 0.0)], 1.2)
        message = f"n_theta={n_theta} cannot resolve 64 modes"
        with pytest.raises(ValidationError, match=message):
            MappedCoefficients.from_boundary(s, DiskGrid(n_r=8, n_theta=n_theta))
        with pytest.raises(ValidationError, match=message):
            s.to_grid(n_theta)

    def test_one_shape_maps_alike_on_finer_angles(self):
        # the boundary quantities of a shape do not depend on the grid that
        # resolves it: 128 angles hold the 64 angles at their even indices
        s = ShapeState.from_modes([(2, 5e-2, 0.3), (3, 2e-2, 1.0), (7, 1e-2, 2.0)],
                                  1.3)
        coarse, fine = (MappedCoefficients.from_boundary(s, DiskGrid(32, n))
                        for n in (64, 128))
        for name in ("h", "beta", "J1", "curvature"):
            a, b = getattr(coarse, name), getattr(fine, name)[::2]
            assert np.max(np.abs(a - b)) <= 1e-14, name

    @pytest.mark.parametrize("rho_mode", [2, 3])
    def test_exact_harmonics_in_kernel(self, rho_mode, small_grid):
        # Re(z^m) is harmonic; its pullback must sit in the operator kernel
        grid = small_grid
        R = 2.0
        s = ShapeState.from_modes([(rho_mode, 1e-2, 0.3)], R)
        coefs = MappedCoefficients.from_boundary(s, grid)
        z = mapped_phi(coefs, grid.r) * R * np.exp(1j * grid.theta[None, :])
        for m in (2, 3, 5):
            V = (z**m).real
            res = apply_mapped_laplacian(coefs, V)   # the interior rows
            assert np.max(np.abs(res)) < 1e-5 * R**m

    def test_reduces_to_polar_laplacian_unperturbed(self, small_grid):
        # r**k cos(k theta + c) is harmonic, for either parity of k
        grid = small_grid
        s = ShapeState.zero(4, 1.5)
        coefs = MappedCoefficients.from_boundary(s, grid)
        for k in (0, 1, 2, 3, 4, 7):
            V = grid.r[:, None] ** k * np.cos(k * grid.theta[None, :] + 0.4)
            res = apply_mapped_laplacian(coefs, V)
            assert np.max(np.abs(res)) < 1e-8

    def test_interior_kernel_matches_the_operator(self, small_grid, rng):
        # the interior rows of the operator, minus a potential, on a field
        # that vanishes on the boundary, as the Krylov matvec applies them
        grid = small_grid
        s = ShapeState.from_modes([(2, 5e-2, 0.3), (3, 2e-2, 1.0)], 1.4)
        coefs = MappedCoefficients.from_boundary(s, grid)
        W = rng.standard_normal((grid.n_r, grid.n_theta))
        W[0, :] = 0.0
        potential = rng.uniform(0.5, 2.0, (grid.n_r - 1, grid.n_theta))
        expected = apply_mapped_laplacian(coefs, W) - potential * W[1:, :]
        got = mapped_laplacian_kernel(coefs, grid.to_modes(W), potential=potential)
        assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))

    def test_mapped_radius_inverts_map(self, small_grid):
        grid = small_grid
        s = ShapeState.from_modes([(3, 2e-2, 0.7)], 1.0)
        coefs = MappedCoefficients.from_boundary(s, grid)
        rho = s.to_grid(grid.n_theta)
        half = grid.n_theta // 2
        for j in (0, 5, 17):
            r = mapped_radius(coefs, 0.43, j)
            E = 0.5 * (rho + np.roll(rho, half))[j]
            O = 0.5 * (rho - np.roll(rho, half))[j]
            assert r * (1.0 + E + r * O) == pytest.approx(0.43, abs=1e-14)


def _curvature(shape, n_theta):
    """The boundary curvature that the map of the shape carries."""
    return MappedCoefficients.from_boundary(
        shape, DiskGrid(n_r=4, n_theta=n_theta)).curvature


class TestCurvature:
    def test_circle(self):
        z = ShapeState.zero(4, 2.0)
        assert np.allclose(_curvature(z, 64), 0.5, atol=1e-14)

    def test_linearization(self, rng):
        # kappa(eps rho) = 1/R - eps (rho + rho'') / R + O(eps^2)
        R = 1.3
        for _ in range(5):
            k = int(rng.integers(1, 7))
            phase = float(rng.uniform(0, 2 * np.pi))
            eps = 1e-5
            s = ShapeState.from_modes([(k, eps, phase)], R)
            n_theta = 128
            kappa = _curvature(s, n_theta)
            rho = s.to_grid(n_theta)
            linear = 1.0 / R - (1.0 - k**2) * rho / R   # rho'' = -k**2 rho
            assert np.max(np.abs(kappa - linear)) < 100.0 * eps**2 * k**4 / R

    def test_ellipse_against_closed_form(self):
        # boundary r(theta) = 1 + eps cos 2 theta approximates an ellipse;
        # compare against direct parametric curvature of that polar curve at
        # the nodes, which the diagonal of the pressure's flux kernel needs
        # exactly (dealiasing it would cost 1.2e-5 at eps = 0.2, n = 64)
        R = 1.0
        for eps, n in ((0.1, 256), (0.2, 64)):
            s = ShapeState.from_modes([(2, eps, 0.0)], R)
            th = 2.0 * np.pi * np.arange(n) / n
            r = 1.0 + eps * np.cos(2 * th)
            rp = -2 * eps * np.sin(2 * th)
            rpp = -4 * eps * np.cos(2 * th)
            expected = (r**2 + 2 * rp**2 - r * rpp) / (r**2 + rp**2) ** 1.5 / R
            got = _curvature(s, n)
            assert np.max(np.abs(got - expected)) < 1e-10


class TestSingleMapPerVelocity:
    def test_phi_builds_one_map(self, unit_steady, id_model, small_grid,
                                monkeypatch):
        calls = []
        build = MappedCoefficients.from_boundary

        def counted(*args, **kwargs):
            calls.append(1)
            return build(*args, **kwargs)

        monkeypatch.setattr(MappedCoefficients, "from_boundary",
                            staticmethod(counted))
        s = ShapeState.from_modes([(2, 1e-3, 0.0)], unit_steady.R_A)
        phi(s, unit_steady.A, 2.0, id_model, small_grid)
        assert len(calls) == 1


class TestModePreconditioner:
    @pytest.mark.parametrize("n_r, n_theta", [(16, 32), (64, 128)])
    @pytest.mark.parametrize("with_potential", [False, True])
    def test_inverts_operator_on_unperturbed_disk(self, n_r, n_theta,
                                                  with_potential, rng):
        # with rho = 0 the mapped operator r**2 v_rr + r v_r + v_tt minus a
        # radial potential has angularly constant coefficients, so the
        # per-mode inverses are exact: solving for the operator applied to
        # any field with zero boundary row gives that field back. (Applying
        # the operator after the solve instead amplifies the solve's
        # roundoff by the size of the D2 rows next to the boundary, about
        # 1e-8 relative on 64 x 128 for either this or an LU solve.)
        grid = DiskGrid(n_r=n_r, n_theta=n_theta)
        coefs = MappedCoefficients.from_boundary(ShapeState.zero(4, 1.7), grid)
        potential = 2.0 * grid.r**2 * (1.0 + grid.r**2) if with_potential \
            else np.zeros(n_r)
        V = rng.standard_normal((n_r, n_theta))
        V[0, :] = 0.0
        res = apply_mapped_laplacian(coefs, V) \
            - potential[1:, None] * V[1:, :]            # the interior rows
        back = ModePreconditioner(grid, potential).solve_interior(
            grid.to_modes(res))
        assert np.max(np.abs(grid.from_modes(back) - V[1:, :])) \
            <= 1e-10 * np.max(np.abs(V))

    @pytest.mark.parametrize("n_r, n_theta", [(16, 32), (64, 128)])
    @pytest.mark.parametrize("with_potential", [False, True])
    def test_matches_the_explicit_inverse(self, n_r, n_theta, with_potential,
                                          rng):
        # V_p (Lambda_p - q**2)^-1 V_p^-1 is the inverse of each mode's block
        grid = DiskGrid(n_r=n_r, n_theta=n_theta)
        potential = 2.0 * grid.r**2 * (1.0 + grid.r**2) if with_potential \
            else np.zeros(n_r)
        X = rng.standard_normal((n_r - 1, 2 * len(grid.modes)))
        got = ModePreconditioner(grid, potential).solve_interior(X)
        for j, q in enumerate(np.repeat(grid.modes, 2)):
            block = grid.fold.operator(1, q % 2)[1:, 1:] \
                - np.diag(q**2 + potential[1:])
            expected = np.linalg.inv(block) @ X[:, j]
            assert np.max(np.abs(got[:, j] - expected)) \
                <= 1e-12 * np.max(np.abs(expected))

    def test_complex_eigenvalues_are_refused(self, monkeypatch):
        eig = np.linalg.eig
        monkeypatch.setattr(np.linalg, "eig",
                            lambda L: (eig(L)[0] + 1e-3j, eig(L)[1] + 0j))
        with pytest.raises(SolverError, match="complex eigenvalues"):
            ModePreconditioner(DiskGrid(n_r=8, n_theta=8), np.zeros(8))

    def test_one_transform_pair_per_iteration(self, unit_steady, id_model,
                                              monkeypatch, count_transforms):
        # a GMRES iteration (one preconditioner and one operator application)
        # costs one rfft, of the preconditioner's samples, and one irfft, in
        # the operator
        grid = DiskGrid(n_r=16, n_theta=32)
        s = ShapeState.from_modes([(3, 2e-2, 0.0)], unit_steady.R_A)
        solved = []
        solve = fields.gmres

        def recorded(matvec, psolve, b, **kwargs):
            solved.append((matvec, psolve, b))
            return solve(matvec, psolve, b, **kwargs)

        monkeypatch.setattr(fields, "gmres", recorded)
        solve_nutrient(MappedCoefficients.from_boundary(s, grid), id_model)
        calls = count_transforms()
        matvec, psolve, b = solved[0]
        matvec(psolve(b))
        assert sorted(calls) == ["irfft", "rfft"]

    @pytest.mark.parametrize("n_r, n_theta, amplitude, k", [
        (16, 32, 2e-2, 6), (32, 64, 3e-3, 4)], ids=["16x32", "32x64"])
    def test_transforms_per_nutrient_solve(self, n_r, n_theta, amplitude, k,
                                           unit_steady, id_model,
                                           krylov_iterations,
                                           count_transforms):
        # from the equilibrium, one Newton step of k GMRES iterations: k + 2
        # rfft (the start, one per iteration and the update) and k + 4 irfft
        # (the first residual, one per iteration, the true residual, the
        # correction's samples and the flux)
        iterations = krylov_iterations()
        grid = DiskGrid(n_r=n_r, n_theta=n_theta)
        s = ShapeState.from_modes([(3, amplitude, 0.0)], unit_steady.R_A)
        coefs = MappedCoefficients.from_boundary(s, grid)
        fields._equilibrium(n_r, n_theta, unit_steady.R_A, id_model)
        calls = count_transforms()
        solve_nutrient(coefs, id_model)
        assert iterations == [k]
        assert calls.count("rfft") == k + 2
        assert calls.count("irfft") == k + 4

    def test_equal_grid_reuses_both_preconditioners(self, unit_steady,
                                                    id_model, built):
        # the cache is keyed on the grid size, not on the grid object; the
        # nutrient preconditioner is the only one (the pressure has none)
        s = ShapeState.from_modes([(2, 1e-3, 0.0)], unit_steady.R_A)
        evolve_nonlinear(s, 0.01, unit_steady.A, 2.0, id_model,
                         DiskGrid(n_r=16, n_theta=32))
        assert built == [(16, 32)]
        built.clear()
        evolve_nonlinear(s, 0.01, unit_steady.A, 2.0, id_model,
                         DiskGrid(n_r=16, n_theta=32))
        assert built == []

    def test_grid_of_a_finished_evolve_is_collectable(self, unit_steady,
                                                      id_model):
        grid = DiskGrid(n_r=16, n_theta=32)
        s = ShapeState.from_modes([(2, 1e-3, 0.0)], unit_steady.R_A)
        evolve_nonlinear(s, 0.01, unit_steady.A, 2.0, id_model, grid)
        ref = weakref.ref(grid)
        del grid
        gc.collect()
        assert ref() is None

    @pytest.mark.parametrize("model_name", ["id_model", "poly_model"])
    def test_one_nutrient_preconditioner_per_evolve(self, unit_steady,
                                                    model_name, request, built):
        model = request.getfixturevalue(model_name)
        s = ShapeState.from_modes([(2, 1e-3, 0.0)], unit_steady.R_A)
        traj = evolve_nonlinear(s, 0.01, unit_steady.A, 2.0, model,
                                DiskGrid(n_r=16, n_theta=32))
        assert len(traj.points) >= 4          # at least 3 steps
        assert built == [(16, 32)]            # one nutrient preconditioner

    def test_equilibrium_preconditioner_serves_a_large_perturbation(
            self, poly_model, monkeypatch):
        # every nutrient solve uses the equilibrium preconditioner; near the
        # admissibility bound it costs at most 2 more operator applications
        # than one built from the potential at the solve's own start
        grid = DiskGrid()
        R = 3.0
        s = ShapeState.from_modes([(3, 0.15, 0.0), (7, 0.05, 0.4)], R)
        assert s.sup_norm() == pytest.approx(0.196, abs=5e-4)
        coefs = MappedCoefficients.from_boundary(s, grid)
        v0, equilibrium = fields._equilibrium(grid.n_r, grid.n_theta, R,
                                              poly_model)
        start = np.broadcast_to(v0, (grid.n_r, grid.n_theta)).copy()
        start[0, :] = 1.0
        per_shape = ModePreconditioner(
            grid, (coefs.scale * poly_model.fprime_at(start)).mean(axis=1))

        # an operator application is a residual or a GMRES matvec, each one
        # call of the kernel
        applies = []
        kernel = fields.mapped_laplacian_kernel

        def counted(*args, **kwargs):
            applies.append(None)
            return kernel(*args, **kwargs)

        monkeypatch.setattr(fields, "mapped_laplacian_kernel", counted)

        def solve(precond):
            monkeypatch.setattr(fields, "_equilibrium",
                                lambda n_r, n_theta, R, model: (v0, precond))
            applies.clear()
            nut = solve_nutrient(coefs, poly_model)
            return nut, len(applies)

        own, own_applies = solve(per_shape)
        eq, eq_applies = solve(equilibrium)
        assert eq_applies <= own_applies + 2
        assert np.max(np.abs(eq.values - own.values)) <= 1e-12

    def test_one_nutrient_preconditioner_per_solve(self, poly_model, built):
        # f' varies for this model, so the Newton loop takes several steps
        grid = DiskGrid(n_r=16, n_theta=32)
        s = ShapeState.from_modes([(2, 3e-2, 0.0), (3, 2e-2, 0.5)], 1.2)
        solve_nutrient(MappedCoefficients.from_boundary(s, grid), poly_model)
        assert built == [(16, 32)]

    def test_standalone_phi_is_the_first_velocity_of_an_evolve(self, poly_model,
                                                               monkeypatch):
        # the equilibrium preconditioner is derived from (grid, R, model), so
        # a standalone evaluation solves exactly as an evolve does
        grid = DiskGrid(n_r=16, n_theta=32)
        s = ShapeState.from_modes([(2, 3e-2, 0.0), (3, 2e-2, 0.5)], 1.2)
        fields._equilibrium.cache_clear()
        alone = phi(s, 0.5, 2.0, poly_model, grid)

        first = []

        def recorded(*args, **kwargs):
            first.append(phi(*args, **kwargs))
            return first[-1]

        monkeypatch.setattr(dynamics, "phi", recorded)
        fields._equilibrium.cache_clear()
        evolve_nonlinear(s, 1e-3, 0.5, 2.0, poly_model, grid)
        assert np.array_equal(first[0].coeffs, alone.coeffs)
        assert np.array_equal(first[0].nutrient.values, alone.nutrient.values)


class TestBarycentricMatrix:
    @settings(max_examples=60, deadline=None)
    @given(N=st.integers(1, 64), seed=st.integers(0, 2**32 - 1))
    def test_reproduces_polynomials(self, N, seed):
        # a polynomial of degree <= N is its own interpolant on N + 1 points
        gen = np.random.default_rng(seed)
        coef = gen.uniform(-1.0, 1.0, N + 1)
        nodes = chebyshev_points(N)
        x = gen.uniform(-1.0, 1.0, 20)
        m = barycentric_matrix(nodes, barycentric_weights(N + 1), x)
        exact = np.polynomial.chebyshev.chebval(x, coef)
        interp = m @ np.polynomial.chebyshev.chebval(nodes, coef)
        assert np.max(np.abs(interp - exact)) <= 1e-12

    @settings(max_examples=30, deadline=None)
    @given(N=st.integers(1, 64))
    def test_unit_rows_at_nodes(self, N):
        nodes = chebyshev_points(N)
        m = barycentric_matrix(nodes, barycentric_weights(N + 1), nodes[::-1])
        assert np.array_equal(m, np.eye(N + 1)[::-1])


class TestRadialFold:
    @pytest.mark.parametrize("n", [16, 33])
    def test_reproduces_polynomials_of_either_parity(self, n, rng):
        fold = radial_fold(n)
        r = fold.r
        # D2 carries a roundoff of about N**4 eps, 2e-9 at N = 65
        assert np.max(np.abs(fold.D[0] @ r**4 - 4 * r**3)) <= 1e-12
        assert np.max(np.abs(fold.D2[0] @ r**4 - 12 * r**2)) <= 1e-8
        assert np.max(np.abs(fold.D[1] @ r**3 - 3 * r**2)) <= 1e-12
        assert np.max(np.abs(fold.D2[1] @ r**3 - 6 * r)) <= 1e-8
        p = np.arange(n)
        T_even = np.cos(np.outer(np.arccos(r), 2 * p))   # column p is T_2p
        assert np.max(np.abs(fold.to_cheb @ T_even - np.eye(n))) <= 1e-13
        assert fold.weights @ np.ones(n) == pytest.approx(0.5, abs=1e-15)
        assert fold.weights @ r**2 == pytest.approx(0.25, abs=1e-15)
        u = rng.uniform(0.0, 1.0, 20)
        for x, (even, odd) in [(chebyshev_nodes(2 * n - 1), fold.to_unit),
                               (u, fold_interpolation(fold, u))]:
            assert np.max(np.abs(even @ r**2 - x**2)) <= 1e-14
            assert np.max(np.abs(odd @ r**3 - x**3)) <= 1e-14

    @pytest.mark.parametrize("parity", [0, 1])
    def test_operator_is_the_dirichlet_matrix(self, parity):
        # row 0 is the value at r = 1, rows 1 and up apply r**2 D2 + m r D;
        # a stack over m holds the matrices built one m at a time
        fold = radial_fold(16)
        r, D, D2 = fold.r, fold.D[parity], fold.D2[parity]
        ms = np.array([1, 3, 7])
        stack = fold.operator(ms, parity)
        for m, op in zip(ms, stack):
            assert np.array_equal(op[0], np.eye(16)[0])
            assert np.array_equal(op[1:], ((m * r)[:, None] * D
                                           + r[:, None] ** 2 * D2)[1:])
            assert np.array_equal(op, fold.operator(m, parity))

    def test_arrays_are_read_only(self):
        fold = radial_fold(16)
        for array in (fold.r, *fold.D, *fold.D2, fold.to_cheb, fold.weights,
                      *fold.to_unit, *fold.stacked):
            with pytest.raises(ValueError):
                array[0] = 0.0

    def test_grids_of_equal_n_r_share_one_fold(self):
        grid = DiskGrid(n_r=33, n_theta=8)
        assert grid.fold is radial_fold(33)
        misses = radial_fold.cache_info().misses
        assert DiskGrid(n_r=33, n_theta=16).fold is grid.fold
        assert radial_fold.cache_info().misses == misses
