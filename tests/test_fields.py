"""Field solves on the perturbed domain against radial and harmonic oracles."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tumorspec.disk import (DiskGrid, MappedCoefficients, ModePreconditioner,
                            apply_mapped_laplacian, barycentric_matrix,
                            barycentric_weights, chebyshev_points,
                            eval_field_columns, mapped_radius,
                            theta_derivative)
from tumorspec.dynamics import evolve_nonlinear, phi
from tumorspec.errors import SolverError
from tumorspec.fields import (center_value, curvature, harmonic_residual,
                              solve_nutrient, solve_pressure)
from tumorspec.linear import linearized_mode_profile
from tumorspec.radial import solve_u_n
from tumorspec.shapes import ShapeState


def _map_coefs(shape, grid):
    return MappedCoefficients.from_boundary(shape.to_grid(grid.n_theta),
                                            shape.radius_scale, grid.r)


class TestNutrientAtEquilibrium:
    def test_matches_radial_profile(self, unit_steady, id_model, small_grid):
        grid = small_grid
        z = ShapeState.zero(4, unit_steady.R_A)
        nut = solve_nutrient(_map_coefs(z, grid), id_model, grid)
        expected = unit_steady.v0.at(grid.r)[:, None]
        assert np.max(np.abs(nut.values - expected)) < 1e-8

    def test_boundary_derivative_matches_shooting(self, unit_steady, id_model,
                                                  small_grid):
        grid = small_grid
        z = ShapeState.zero(4, unit_steady.R_A)
        nut = solve_nutrient(_map_coefs(z, grid), id_model, grid)
        assert np.max(np.abs(nut.normal_derivative_trace
                             - unit_steady.v0.deriv_at_1)) < 1e-8

    def test_center_value(self, unit_steady, id_model, small_grid):
        grid = small_grid
        z = ShapeState.zero(4, unit_steady.R_A)
        nut = solve_nutrient(_map_coefs(z, grid), id_model, grid)
        assert center_value(grid, nut.values) == pytest.approx(
            unit_steady.v0.value_at_0, abs=1e-10)

    def test_maximum_principle_on_perturbed_domain(self, unit_steady, id_model,
                                                   small_grid):
        grid = small_grid
        s = ShapeState.from_modes([(3, 5e-2, 0.4)], unit_steady.R_A)
        nut = solve_nutrient(_map_coefs(s, grid), id_model, grid)
        assert np.all(nut.values > 0.0)
        assert np.all(nut.values <= 1.0 + 1e-10)


class TestPressure:
    def test_constant_for_disk_with_balanced_data(self, unit_steady, small_grid):
        # on the unperturbed disk the boundary data is constant, so the
        # harmonic extension is that constant
        grid = small_grid
        z = ShapeState.zero(4, unit_steady.R_A)
        A, G = unit_steady.A, 2.0
        pres = solve_pressure(_map_coefs(z, grid), A, G, grid)
        expected = 1.0 / unit_steady.R_A - 0.25 * A * G * unit_steady.R_A**2
        assert np.max(np.abs(pres.values - expected)) < 1e-10

    def test_center_mean_value_property(self, unit_steady, small_grid):
        grid = small_grid
        s = ShapeState.from_modes([(2, 1e-2, 0.0), (5, 5e-3, 0.9)],
                                  unit_steady.R_A)
        coefs = _map_coefs(s, grid)
        pres = solve_pressure(coefs, unit_steady.A, 2.0, grid)
        # the mean over any interior physical circle equals the center value
        for frac in (0.3, 0.6):
            radii = np.array([mapped_radius(coefs, frac, j)
                              for j in range(grid.n_theta)])
            ring = eval_field_columns(grid, pres.values, radii)
            assert abs(center_value(grid, pres.values) - ring.mean()) < 1e-8

    def test_harmonic_residual_small(self, unit_steady, small_grid):
        grid = small_grid
        s = ShapeState.from_modes([(3, 2e-2, 0.0)], unit_steady.R_A)
        coefs = _map_coefs(s, grid)
        pres = solve_pressure(coefs, unit_steady.A, 2.0, grid)
        assert harmonic_residual(grid, coefs, pres) < 1e-7

    def test_normal_derivative_symbol(self, unit_steady, small_grid):
        # linearized boundary data curvature - A G R^2 h^2 / 4 excites mode k
        # with the harmonic r^|k| profile; check dq/dr against |k| times the
        # boundary coefficient
        grid = small_grid
        eps, k = 1e-4, 4
        R = unit_steady.R_A
        A, G = unit_steady.A, 2.0
        s = ShapeState.from_modes([(k, eps, 0.0)], R)
        pres = solve_pressure(_map_coefs(s, grid), A, G, grid)
        spec_b = np.fft.rfft(pres.boundary_trace) / grid.n_theta
        spec_d = np.fft.rfft(pres.normal_derivative_trace) / grid.n_theta
        assert spec_d[k] == pytest.approx(k * spec_b[k], rel=1e-4)
        expected = (k**2 - 1.0) / R - 0.5 * A * G * R**2
        assert 2.0 * spec_b[k].real / eps == pytest.approx(expected, rel=1e-3)

    def test_stalled_krylov_raises(self, unit_steady, monkeypatch):
        # without a preconditioner GMRES ends far above the tolerance; the
        # solve must report that instead of probing a dense matrix
        monkeypatch.setattr(ModePreconditioner, "solve_interior",
                            lambda self, residual: residual)
        grid = DiskGrid(n_r=16, n_theta=32)
        s = ShapeState.from_modes([(3, 2e-2, 0.0)], unit_steady.R_A)
        with pytest.raises(SolverError, match="relative residual"):
            solve_pressure(_map_coefs(s, grid), unit_steady.A, 2.0, grid)


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
            coefs = _map_coefs(s, grid)
            nut = solve_nutrient(coefs, id_model, grid)
            prof = linearized_mode_profile(k, 1.0, v0, uk)
            frac = 0.6
            radii = np.array([mapped_radius(coefs, frac, j)
                              for j in range(grid.n_theta)])
            wnum = eval_field_columns(grid, nut.values, radii)
            pred = v0.at(frac) + eps * prof.at(frac) * np.cos(k * grid.theta)
            errs.append(np.max(np.abs(wnum - pred)))
        assert errs[0] < 50.0 * 1e-4   # O(eps^2) at eps = 1e-2
        assert errs[1] < errs[0] / 20.0   # quadratic, not linear, in eps


class TestMappedOperator:
    @pytest.mark.parametrize("rho_mode", [2, 3])
    def test_exact_harmonics_in_kernel(self, rho_mode, small_grid):
        # Re(z^m) is harmonic; its pullback must sit in the operator kernel
        grid = small_grid
        R = 2.0
        s = ShapeState.from_modes([(rho_mode, 1e-2, 0.3)], R)
        coefs = _map_coefs(s, grid)
        z = coefs.phi * R * np.exp(1j * grid.theta[None, :])
        for m in (2, 3, 5):
            V = (z**m).real
            res = apply_mapped_laplacian(grid, coefs, V)
            assert np.max(np.abs(res[1:, :])) < 1e-5 * R**m

    def test_reduces_to_polar_laplacian_unperturbed(self, small_grid):
        grid = small_grid
        s = ShapeState.zero(4, 1.5)
        coefs = _map_coefs(s, grid)
        V = grid.r[:, None] ** 2 * np.cos(2.0 * grid.theta[None, :])
        res = apply_mapped_laplacian(grid, coefs, V)
        assert np.max(np.abs(res)) < 1e-8

    def test_mapped_radius_inverts_map(self, small_grid):
        grid = small_grid
        s = ShapeState.from_modes([(3, 2e-2, 0.7)], 1.0)
        coefs = _map_coefs(s, grid)
        rho = s.to_grid(grid.n_theta)
        half = grid.n_theta // 2
        for j in (0, 5, 17):
            r = mapped_radius(coefs, 0.43, j)
            E = 0.5 * (rho + np.roll(rho, half))[j]
            O = 0.5 * (rho - np.roll(rho, half))[j]
            assert r * (1.0 + E + r * O) == pytest.approx(0.43, abs=1e-14)


class TestCurvature:
    def test_circle(self):
        z = ShapeState.zero(4, 2.0)
        assert np.allclose(curvature(z), 0.5, atol=1e-14)

    def test_linearization(self, rng):
        # kappa(eps rho) = 1/R - eps (rho + rho'') / R + O(eps^2)
        R = 1.3
        for _ in range(5):
            k = int(rng.integers(1, 7))
            phase = float(rng.uniform(0, 2 * np.pi))
            eps = 1e-5
            s = ShapeState.from_modes([(k, eps, phase)], R)
            n_theta = 128
            kappa = curvature(s, n_theta)
            rho = s.to_grid(n_theta)
            rho_pp = theta_derivative(rho, 2)
            linear = 1.0 / R - (rho + rho_pp) / R
            assert np.max(np.abs(kappa - linear)) < 100.0 * eps**2 * k**4 / R

    def test_ellipse_against_closed_form(self):
        # boundary r(theta) = 1 + eps cos 2 theta approximates an ellipse;
        # compare against direct parametric curvature of that polar curve
        eps, R, n = 0.1, 1.0, 256
        s = ShapeState.from_modes([(2, eps, 0.0)], R)
        th = 2.0 * np.pi * np.arange(n) / n
        r = 1.0 + eps * np.cos(2 * th)
        rp = -2 * eps * np.sin(2 * th)
        rpp = -4 * eps * np.cos(2 * th)
        expected = (r**2 + 2 * rp**2 - r * rpp) / (r**2 + rp**2) ** 1.5 / R
        got = curvature(s, n)
        assert np.max(np.abs(got - expected)) < 1e-10

    def test_map_carries_the_same_curvature(self, small_grid):
        s = ShapeState.from_modes([(2, 3e-2, 0.0), (5, 1e-2, 0.4)], 1.3)
        coefs = MappedCoefficients.from_boundary(
            s.to_grid(small_grid.n_theta), s.radius_scale, small_grid.r)
        assert np.array_equal(coefs.curvature, curvature(s, small_grid.n_theta))


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
        coefs = MappedCoefficients.from_boundary(np.zeros(n_theta), 1.7, grid.r)
        potential = 2.0 * grid.r**2 * (1.0 + grid.r**2) if with_potential else None
        V = rng.standard_normal((n_r, n_theta))
        V[0, :] = 0.0
        res = apply_mapped_laplacian(grid, coefs, V)
        if with_potential:
            res -= potential[:, None] * V
        back = ModePreconditioner(grid, potential).solve_interior(res[1:, :])
        assert np.max(np.abs(back - V[1:, :])) <= 1e-10 * np.max(np.abs(V))

    def test_one_laplace_preconditioner_per_grid(self, unit_steady, id_model,
                                                 monkeypatch):
        built = []
        init = ModePreconditioner.__init__

        def counted(self, grid, potential=None):
            built.append(potential is None)
            init(self, grid, potential)

        monkeypatch.setattr(ModePreconditioner, "__init__", counted)
        s = ShapeState.from_modes([(2, 1e-3, 0.0)], unit_steady.R_A)
        traj = evolve_nonlinear(s, 0.01, unit_steady.A, 2.0, id_model,
                                DiskGrid(n_r=16, n_theta=32))
        assert len(traj.points) >= 3          # several velocity evaluations
        assert built.count(True) == 1         # one pressure preconditioner

    def test_one_nutrient_preconditioner_per_solve(self, poly_model,
                                                   monkeypatch):
        # f' varies for this model, so the Newton loop takes several steps
        built = []
        init = ModePreconditioner.__init__

        def counted(self, grid, potential=None):
            built.append(potential is None)
            init(self, grid, potential)

        monkeypatch.setattr(ModePreconditioner, "__init__", counted)
        grid = DiskGrid(n_r=16, n_theta=32)
        s = ShapeState.from_modes([(2, 3e-2, 0.0), (3, 2e-2, 0.5)], 1.2)
        solve_nutrient(_map_coefs(s, grid), poly_model, grid)
        assert built == [False]


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
