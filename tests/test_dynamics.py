"""Nonlinear boundary velocity and its time integration."""

import numpy as np
import pytest

from tumorspec.dynamics import evolve_nonlinear, phi
from tumorspec.errors import ValidationError
from tumorspec.disk import DiskGrid
from tumorspec.linear import fit_growth_rate
from tumorspec.shapes import ShapeState
from tumorspec.spectrum import (ModelParameters, build_table, g_star,
                                l_G_index)


@pytest.fixture(scope="module")
def setup(id_model):
    """Identity model at a moderate steady radius, G = 2."""
    A, G = 0.5, 2.0
    table = build_table(ModelParameters(A=A, G=G, model=id_model), k_max=16)
    return A, G, table


class TestVelocityAtEquilibrium:
    def test_vanishes_at_steady_radius(self, setup, id_model, small_grid):
        A, G, table = setup
        z = ShapeState.zero(4, table.R)
        res = phi(z, A, G, id_model, small_grid)
        assert np.max(np.abs(res.values)) < 1e-8

    def test_radial_velocity_off_equilibrium(self, setup, id_model, small_grid):
        # for a circle of the wrong radius the velocity is uniform and
        # predicted by the radial profile
        from tumorspec.radial import solve_U
        A, G, _ = setup
        R = 2.0
        z = ShapeState.zero(4, R)
        res = phi(z, A, G, id_model, small_grid)
        v0 = solve_U(R * R, id_model)
        expected = G * (v0.deriv_at_1 / R**2 - A / 2.0)
        assert np.allclose(res.values, expected, atol=1e-9)
        assert expected > 0.0  # smaller than steady: the radius grows


class TestSymbolCrossValidation:
    @pytest.mark.parametrize("k", [0, 2, 3, 4, 5])
    def test_linearization_matches_spectrum(self, k, setup, id_model,
                                            small_grid):
        A, G, table = setup
        mu = table.mu_at(k)
        errs = {}
        for eps in (1e-3, 5e-4):
            s = ShapeState.from_modes([(k, eps, 0.0)], table.R)
            res = phi(s, A, G, id_model, small_grid)
            rho_hat = eps if k == 0 else s.coeff(k).real
            est = res.coeffs[k].real / rho_hat
            errs[eps] = abs(est - mu)
        assert errs[1e-3] <= 0.02 * (1.0 + abs(mu))
        assert errs[5e-4] <= 0.55 * errs[1e-3] + 1e-9

    def test_independent_of_seed_phase(self, setup, id_model, small_grid):
        A, G, table = setup
        ests = []
        for phase in (0.0, 1.1):
            s = ShapeState.from_modes([(3, 1e-3, phase)], table.R)
            res = phi(s, A, G, id_model, small_grid)
            ests.append(res.coeffs[3] / s.coeff(3))
        assert ests[0].real == pytest.approx(ests[1].real, abs=1e-7)


class TestNonlinearEvolution:
    def test_equilibrium_stays_put(self, setup, id_model, small_grid):
        A, G, table = setup
        z = ShapeState.zero(4, table.R)
        traj = evolve_nonlinear(z, 0.2, A, G, id_model, small_grid)
        assert traj.status == "completed"
        assert all(p.sup_norm < 1e-8 for p in traj.points)

    def test_decay_rate_matches_symbol(self, setup, id_model, small_grid):
        A, G, table = setup
        k = 4
        seed = ShapeState.from_modes([(k, 1e-3, 0.0)], table.R)
        traj = evolve_nonlinear(seed, 0.5, A, G, id_model, small_grid)
        fit = fit_growth_rate([(p.t, p.shape.amplitude(k)) for p in traj.points])
        mu = table.mu_at(k)
        assert mu < 0.0
        assert abs(fit.rate - mu) < 0.05 * abs(mu)

    def test_lattice_leakage_negligible(self, setup, id_model, small_grid):
        A, G, table = setup
        seed = ShapeState.from_modes([(3, 1e-3, 0.0)], table.R)
        traj = evolve_nonlinear(seed, 0.3, A, G, id_model, small_grid)
        leak = max(max(p.shape.amplitude(k) for k in (1, 2, 4, 5, 7, 8))
                   for p in traj.points)
        assert leak <= 1e-10

    def test_reality_and_monotone_times(self, setup, id_model, small_grid):
        A, G, table = setup
        seed = ShapeState.from_modes([(2, 1e-3, 0.4), (6, 5e-4, 1.3)], table.R)
        traj = evolve_nonlinear(seed, 0.2, A, G, id_model, small_grid)
        times = traj.times
        assert np.all(np.diff(times) > 0.0)
        for p in traj.points[-2:]:
            assert np.max(np.abs(np.imag(p.shape.to_grid(64)))) == 0.0

    def test_left_neighbourhood_halt(self, id_model, small_grid):
        # strong growth above threshold drives the shape out of the
        # admissible neighbourhood
        A = 0.8927799318
        table = build_table(ModelParameters(A=A, G=1.0, model=id_model),
                            k_max=32)
        gs_val, _ = g_star(table)
        G = 3.0 * gs_val
        seed = ShapeState.from_modes([(2, 0.15, 0.0)], table.R)
        traj = evolve_nonlinear(seed, 50.0, A, G, id_model, small_grid,
                                err_target=1e-5)
        assert traj.status == "left_neighbourhood"
        assert traj.points[-1].t < 50.0

    def test_rejects_negative_horizon(self, setup, id_model, small_grid):
        A, G, table = setup
        z = ShapeState.zero(4, table.R)
        with pytest.raises(ValidationError):
            evolve_nonlinear(z, -1.0, A, G, id_model, small_grid)

    def test_rejects_seed_mode_above_the_grid(self, setup, id_model):
        # a 32-angle grid evolves modes up to 10; zero padding above is fine
        A, G, table = setup
        grid = DiskGrid(n_r=16, n_theta=32)
        padded = ShapeState.from_modes([(2, 1e-3, 0.0)], table.R, n_modes=16)
        assert evolve_nonlinear(padded, 0.0, A, G, id_model, grid).status \
            == "completed"
        lost = ShapeState.from_modes([(2, 1e-3, 0.0), (11, 1e-4, 0.0)],
                                     table.R, n_modes=16)
        with pytest.raises(ValidationError, match="mode 11 .* n_theta >= 34"):
            evolve_nonlinear(lost, 0.0, A, G, id_model, grid)

    def test_grid_refinement_consistency(self, setup, id_model):
        # the fitted rate is already grid-converged at the coarse resolution
        A, G, table = setup
        k = 3
        rates = []
        for n_r, n_theta in ((24, 48), (32, 64)):
            gs = DiskGrid(n_r=n_r, n_theta=n_theta)
            seed = ShapeState.from_modes([(k, 1e-3, 0.0)], table.R)
            traj = evolve_nonlinear(seed, 0.4, A, G, id_model, gs)
            rates.append(fit_growth_rate(
                [(p.t, p.shape.amplitude(k)) for p in traj.points]).rate)
        assert abs(rates[0] - rates[1]) < 1e-4 * max(1.0, abs(rates[1]))


class TestInstabilityAboveThreshold:
    def test_growth_rate_matches_symbol(self, id_model, small_grid):
        A = 0.8927799318  # steady radius 1
        base = build_table(ModelParameters(A=A, G=1.0, model=id_model), k_max=32)
        gs_val, k0 = g_star(base)
        assert k0 == 2
        G = 1.5 * gs_val
        table = build_table(ModelParameters(A=A, G=G, model=id_model,
                                            R=base.R), k_max=8)
        mu2 = table.mu_at(2)
        assert mu2 > 0.0
        seed = ShapeState.from_modes([(2, 1e-3, 0.0)], base.R)
        traj = evolve_nonlinear(seed, 0.5, A, G, id_model, small_grid)
        window = [(p.t, p.shape.amplitude(2)) for p in traj.points
                  if p.sup_norm <= 5e-3]
        fit = fit_growth_rate(window)
        assert abs(fit.rate - mu2) < 0.05 * mu2


class TestStabilityOnPeriodicLattice:
    def test_decay_rate_and_leakage(self, id_model, small_grid):
        A = 0.8927799318
        G = 1.0
        table = build_table(ModelParameters(A=A, G=G, model=id_model), k_max=32)
        l = max(2, l_G_index(table))
        mu_l = table.mu_at(l)
        assert mu_l < 0.0
        seed = ShapeState.from_modes([(l, 1e-3, 0.0)], table.R,
                                     periodicity=l)
        traj = evolve_nonlinear(seed, 0.3, A, G, id_model, small_grid)
        fit = fit_growth_rate([(p.t, p.shape.amplitude(l)) for p in traj.points])
        assert abs(fit.rate - mu_l) < 0.05 * abs(mu_l)
        off_lattice = [k for k in range(1, 10) if k % l]
        leak = max(max(p.shape.amplitude(k) for k in off_lattice)
                   for p in traj.points)
        assert leak <= 1e-10
