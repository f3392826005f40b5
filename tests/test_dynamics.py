"""Nonlinear boundary velocity and its time integration."""

import dataclasses
import json
import math

import numpy as np
import pytest

from tumorspec import dynamics, fields
from tumorspec.cli import main
from tumorspec.dynamics import ERR_TARGET, evolve_nonlinear, phi
from tumorspec.errors import ValidationError
from tumorspec.disk import DiskGrid, MappedCoefficients
from tumorspec.fields import solve_pressure
from tumorspec.linear import fit_growth_rate
from tumorspec.models import parse_model_spec
from tumorspec.radial import steady_radius
from tumorspec.shapes import ShapeState
from tumorspec.spectrum import build_table, g_star, l_G_index

from oracles import identity_steady_A, translated_shape


def _samples(res, n):
    """The dealiased velocity on n angles, from the coefficients of phi."""
    return np.fft.irfft(n * res.coeffs, n=n)


@pytest.fixture(scope="module")
def setup(id_model):
    """Identity model at a moderate steady radius, G = 2."""
    A, G = 0.5, 2.0
    table = build_table(A=A, G=G, model=id_model, k_max=16)
    return A, G, table


class TestVelocityAtEquilibrium:
    def test_vanishes_at_steady_radius(self, setup, id_model, small_grid):
        A, G, table = setup
        z = ShapeState.zero(4, table.R)
        res = phi(z, A, G, id_model, small_grid)
        assert np.max(np.abs(_samples(res, small_grid.n_theta))) < 1e-8

    def test_radial_velocity_off_equilibrium(self, setup, id_model, small_grid):
        # for a circle of the wrong radius the velocity is uniform and
        # predicted by the radial profile
        from tumorspec.radial import solve_U
        A, G, _ = setup
        R = 2.0
        z = ShapeState.zero(4, R)
        res = phi(z, A, G, id_model, small_grid)
        v0 = solve_U(R * R, id_model)
        expected = G * (v0.deriv_values[-1] / R**2 - A / 2.0)
        assert np.allclose(_samples(res, small_grid.n_theta), expected,
                           atol=1e-9)
        assert expected > 0.0  # smaller than steady: the radius grows

    def test_assembly_takes_one_transform(self, setup, id_model, small_grid,
                                          monkeypatch, count_transforms):
        # past the map, which checks and reads the shape, and the field
        # solves: one rfft for the coefficients, which the 2/3 rule keeps up
        # to n // 3
        A, G, table = setup
        n = small_grid.n_theta
        s = ShapeState.from_modes([(3, 2e-2, 0.0), (2, 1e-2, 0.3)], table.R)
        ref = phi(s, A, G, id_model, small_grid)
        coefs = MappedCoefficients.from_boundary(s, small_grid)
        pres = solve_pressure(coefs, A, G)
        monkeypatch.setattr(dynamics.MappedCoefficients, "from_boundary",
                            lambda *args: coefs)
        monkeypatch.setattr(dynamics, "solve_nutrient",
                            lambda *args, **kwargs: ref.nutrient)
        monkeypatch.setattr(dynamics, "solve_pressure", lambda *args: pres)
        calls = count_transforms()
        got = phi(s, A, G, id_model, small_grid)
        assert calls == ["rfft"]
        assert np.array_equal(got.coeffs, ref.coeffs)
        values = np.hypot(1.0, coefs.beta) / table.R \
            * (G * ref.nutrient.flux - pres) - 0.5 * A * G * coefs.h
        expected = np.fft.rfft(values)[:n // 3 + 1] / n
        assert np.max(np.abs(got.coeffs - expected)) <= \
            1e-14 * np.max(np.abs(expected))

    def test_velocity_of_criterion_7a_takes_23_transforms(
            self, supercritical, id_model, small_grid, krylov_iterations,
            count_transforms):
        # the map (8: the seed's admissibility, one stacked irfft of its
        # spectrum and three dealiased products), a nutrient solve of k = 3
        # GMRES iterations (2k + 6), the dealiased pressure data (2) and the
        # coefficients (1); the cached preconditioner and log weights, which
        # an evolve builds once, are built first
        A, G, table = supercritical
        s = ShapeState.from_modes([(2, 1e-3, 0.0)], table.R)
        fields._equilibrium(small_grid.n_r, small_grid.n_theta, table.R,
                            id_model)
        fields._log_weights(small_grid.n_theta)
        iterations = krylov_iterations()
        calls = count_transforms()
        phi(s, A, G, id_model, small_grid)
        assert iterations == [3]
        assert len(calls) == 23


class TestTranslatedDisk:
    # a disk of the steady radius whose centre is shifted by d R is a steady
    # state for every model, A and G; sup|rho| = d
    @pytest.mark.parametrize("n_r, n_theta", [(64, 128), (32, 256), (64, 256)])
    @pytest.mark.parametrize("d", [0.1, 0.2])
    @pytest.mark.parametrize("model, A, G", [("identity", 0.5, 2.0),
                                             ("poly:1,0.3", 0.7, 1.0)])
    def test_velocity_vanishes(self, model, A, G, d, n_r, n_theta):
        # measured at most 1.1e-12
        model = parse_model_spec(model)
        R = steady_radius(A, model).R_A
        res = phi(translated_shape(d, R, n_theta // 3), A, G, model,
                  DiskGrid(n_r=n_r, n_theta=n_theta))
        assert np.max(np.abs(res.coeffs)) <= 1e-11

    @pytest.mark.parametrize("d", [0.1, 0.2])
    @pytest.mark.parametrize("model, A, G", [("identity", None, 2.0),
                                             ("identity", 0.5, 1.0),
                                             ("poly:1,0.3", 0.7, 1.0)],
                             ids=["identity-R1", "identity", "poly"])
    def test_evolve_stays_put(self, model, A, G, d, small_grid):
        # below G* the translated disk is a stable steady state; every mode
        # the 32x64 grid evolves (21) stays within 1e-11 of its start to
        # t = 0.5 (measured at most 1.7e-13). A = None is the identity's
        # A at R = 1, where G* = 174.8
        model = parse_model_spec(model)
        A = identity_steady_A() if A is None else A
        R = steady_radius(A, model).R_A
        assert G < g_star(build_table(A, 1.0, model, R, k_max=21))[0]
        s = translated_shape(d, R, small_grid.n_theta // 3)
        traj = evolve_nonlinear(s, 0.5, A, G, model, small_grid)
        assert traj.status == "completed"
        assert max(np.max(np.abs(p.shape.coeffs - s.coeffs))
                   for p in traj.points) <= 1e-11


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

    @pytest.mark.parametrize("model, A, G", [("identity", 0.5, 2.0),
                                             ("identity", 0.15, 0.5),
                                             ("poly:1,0.3", 0.7, 1.0),
                                             ("poly:1,0.3", 0.3, 5.0)])
    def test_central_difference_in_every_mode(self, model, A, G, small_grid):
        # (phi(+eps e_k) - phi(-eps e_k)) / 2 eps against mu_k for every
        # mode the grid resolves; measured at most 2.7e-8 of max(1, |mu_k|)
        model = parse_model_spec(model)
        n_modes = small_grid.n_theta // 3
        table = build_table(A, G, model, k_max=n_modes)
        errs = []
        for k in range(n_modes + 1):
            rates = []
            for eps in (1e-5, -1e-5):
                s = ShapeState.from_modes([(k, eps, 0.0)], table.R)
                res = phi(s, A, G, model, small_grid)
                rates.append(res.coeffs[k].real / s.coeff(k).real)
            mu = table.mu_at(k)
            errs.append(abs(0.5 * sum(rates) - mu) / max(1.0, abs(mu)))
        assert max(errs) <= 1e-7, errs

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
        assert np.all(np.diff([p.t for p in traj.points]) > 0.0)
        for p in traj.points[-2:]:
            assert np.max(np.abs(np.imag(p.shape.to_grid(64)))) == 0.0

    def test_left_neighbourhood_halt(self, id_model, small_grid):
        # strong growth above threshold drives the shape out of the
        # admissible neighbourhood
        A = 0.8927799318
        table = build_table(A=A, G=1.0, model=id_model, k_max=32)
        gs_val, _ = g_star(table)
        G = 3.0 * gs_val
        seed = ShapeState.from_modes([(2, 0.15, 0.0)], table.R)
        traj = evolve_nonlinear(seed, 50.0, A, G, id_model, small_grid,
                                err_target=1e-5)
        assert traj.status == "left_neighbourhood"
        assert traj.points[-1].t < 50.0

    def test_accepted_state_on_the_bound_halts(self, id_model, monkeypatch):
        # the run above ends when dt underflows with every stage beyond the
        # bound; with the halt bound lowered to 0.2 (the velocity is still
        # defined up to 1/4) an accepted state reaches it first, and it is
        # the last point
        monkeypatch.setattr(dynamics, "ADMISSIBLE_SUP_NORM", 0.2)
        A = 0.8927799318
        table = build_table(A=A, G=1.0, model=id_model, k_max=32)
        seed = ShapeState.from_modes([(2, 0.15, 0.0)], table.R)
        traj = evolve_nonlinear(seed, 50.0, A, 3.0 * g_star(table)[0],
                                id_model, DiskGrid(n_r=16, n_theta=32),
                                err_target=1e-5)
        assert traj.status == "left_neighbourhood"
        assert traj.points[-2].sup_norm < 0.2 <= traj.points[-1].sup_norm
        assert traj.points[-1].t < 50.0

    def test_fast_exit_is_resolved(self, poly_model):
        # mu_0 is about 31, so the shape leaves within the first capped step
        # (t_end / 4); a stage beyond the bound rejects that step instead of
        # halting the run at its seed, so the approach is recorded
        seed = ShapeState.from_modes([(2, 2e-2, 0.0)], 1.0)
        traj = evolve_nonlinear(seed, 0.5, 0.8927799318, 262.22, poly_model,
                                DiskGrid(n_r=32, n_theta=64))
        assert traj.status == "left_neighbourhood"
        assert len(traj.points) > 1
        assert 0.0 < traj.points[-1].t < 0.125
        assert traj.points[-1].sup_norm > 0.24

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
        base = build_table(A=A, G=1.0, model=id_model, k_max=32)
        gs_val, k0 = g_star(base)
        assert k0 == 2
        G = 1.5 * gs_val
        table = build_table(A=A, G=G, model=id_model, R=base.R, k_max=8)
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
        table = build_table(A=A, G=G, model=id_model, k_max=32)
        l = max(2, l_G_index(table))
        mu_l = table.mu_at(l)
        assert mu_l < 0.0
        seed = ShapeState.from_modes([(l, 1e-3, 0.0)], table.R)
        traj = evolve_nonlinear(seed, 0.3, A, G, id_model, small_grid)
        fit = fit_growth_rate([(p.t, p.shape.amplitude(l)) for p in traj.points])
        assert abs(fit.rate - mu_l) < 0.05 * abs(mu_l)
        off_lattice = [k for k in range(1, 10) if k % l]
        leak = max(max(p.shape.amplitude(k) for k in off_lattice)
                   for p in traj.points)
        assert leak <= 1e-10


@pytest.fixture(scope="module")
def supercritical(id_model):
    """Criterion 7a: steady radius 1, G = 1.5 G*, so mode 2 grows."""
    A = identity_steady_A()
    base = build_table(A=A, G=1.0, model=id_model, k_max=32)
    G = 1.5 * g_star(base)[0]
    table = build_table(A=A, G=G, model=id_model, R=base.R, k_max=8)
    return A, G, table


class TestExponentialStepper:
    def test_converges_to_a_tight_error_target(self, supercritical, id_model):
        # a 2e-2 seed is in the nonlinear range, where the remainder matters
        A, G, table = supercritical
        grid = DiskGrid(n_r=16, n_theta=32)
        seed = ShapeState.from_modes([(2, 2e-2, 0.0)], table.R)
        amps = [evolve_nonlinear(seed, 0.1, A, G, id_model, grid,
                                 err_target=tol).final_shape.amplitude(2)
                for tol in (ERR_TARGET, 1e-8)]
        assert amps[0] == pytest.approx(amps[1], rel=1e-5)

    @pytest.mark.parametrize("wrong_mu", [
        lambda table: table.lam,
        lambda table: table.mu + 0.5,
    ], ids=["cubic_symbol_only", "shifted_spectrum"])
    def test_trajectory_does_not_depend_on_the_split(
            self, monkeypatch, supercritical, id_model, wrong_mu):
        # the linear part only splits phi; the trajectory is set by phi
        # alone, so a phi that misses mu_k cannot be hidden by the split
        A, G, table = supercritical
        grid = DiskGrid(n_r=16, n_theta=32)
        seed = ShapeState.from_modes([(2, 2e-2, 0.0), (3, 1e-2, 0.7)], table.R)
        true = evolve_nonlinear(seed, 0.1, A, G, id_model, grid)

        def build_wrong_table(*args):
            t = build_table(*args)
            return dataclasses.replace(t, mu=wrong_mu(t))

        monkeypatch.setattr(dynamics, "build_table", build_wrong_table)
        wrong = evolve_nonlinear(seed, 0.1, A, G, id_model, grid)
        # every accepted step of either run errs by at most ERR_TARGET
        tol = (len(true.points) + len(wrong.points)) * ERR_TARGET
        for k in range(7):
            assert abs(wrong.final_shape.amplitude(k)
                       - true.final_shape.amplitude(k)) <= tol, k

    def test_few_velocity_evaluations_on_criterion_7a(
            self, monkeypatch, supercritical, id_model, small_grid):
        # the linear flow is exact, so the steps are sized by the small
        # nonlinear remainder alone: four ETD3RK steps of t_end / 4 at three
        # evaluations each (ETD1 with step doubling took 20, the linearly
        # implicit stepper 137)
        A, G, table = supercritical
        calls = []

        def counting_phi(*args, **kwargs):
            calls.append(1)
            return phi(*args, **kwargs)

        monkeypatch.setattr(dynamics, "phi", counting_phi)
        seed = ShapeState.from_modes([(2, 1e-3, 0.0)], table.R)
        traj = evolve_nonlinear(seed, 0.5, A, G, id_model, small_grid)
        assert traj.status == "completed"
        assert len(calls) <= 14
        fit = fit_growth_rate([(p.t, p.shape.amplitude(2)) for p in traj.points])
        mu2 = table.mu_at(2)
        assert fit.rate == pytest.approx(mu2, rel=1e-4)

    def test_sup_norm_calls_on_criterion_7a(self, monkeypatch, supercritical,
                                            id_model, small_grid):
        # one per velocity evaluation (12), one per trajectory point (5) and
        # one check of the padded seed
        A, G, table = supercritical
        seed = ShapeState.from_modes([(2, 1e-3, 0.0)], table.R)
        calls = []
        sup_norm = ShapeState.sup_norm

        def counted(shape):
            calls.append(1)
            return sup_norm(shape)

        monkeypatch.setattr(ShapeState, "sup_norm", counted)
        traj = evolve_nonlinear(seed, 0.5, A, G, id_model, small_grid)
        assert len(traj.points) == 5
        assert len(calls) == 18

    @pytest.mark.parametrize("mode, n_rows, count", [("nonlinear", 6, 19),
                                                     ("linear", 202, 202)])
    def test_sup_norm_calls_of_the_evolve_command(self, monkeypatch, tmp_path,
                                                  supercritical, mode, n_rows,
                                                  count):
        # criterion 7a through the command: its check of the seed, then the
        # 18 of the evolve above, whose trajectory rows reuse the points'
        # sup-norms; a linear run takes one per row (201)
        A, G, table = supercritical
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({"R": table.R, "n_r": 32, "n_theta": 64}))
        calls = []
        sup_norm = ShapeState.sup_norm

        def counted(shape):
            calls.append(1)
            return sup_norm(shape)

        monkeypatch.setattr(ShapeState, "sup_norm", counted)
        assert main(["evolve", "--config", str(cfg_path), "--A", repr(A),
                     "--G", repr(G), "--mode", mode, "--t-end", "0.5",
                     "--seed-shape", "2:1e-3", "--out", str(tmp_path)]) == 0
        rows = (tmp_path / "trajectory.csv").read_text().splitlines()
        assert len(rows) == n_rows   # the header and the points
        assert len(calls) == count

    def test_few_matvecs_on_criterion_7a(self, monkeypatch, supercritical,
                                         id_model, small_grid):
        # right-preconditioned GMRES minimises |b - A x| itself: the same
        # evolve made 136 GMRES matvecs with left preconditioning
        calls = []
        solve = fields.gmres

        def counted(matvec, *args, **kwargs):
            def counted_matvec(x):
                calls.append(1)
                return matvec(x)
            return solve(counted_matvec, *args, **kwargs)

        monkeypatch.setattr(fields, "gmres", counted)
        A, G, table = supercritical
        seed = ShapeState.from_modes([(2, 1e-3, 0.0)], table.R)
        traj = evolve_nonlinear(seed, 0.5, A, G, id_model, small_grid)
        assert traj.status == "completed"
        assert len(calls) <= 128

    def test_krylov_iterations_per_solve_on_criterion_7a(
            self, krylov_iterations, supercritical, id_model, small_grid):
        # each nutrient solve takes at most the GMRES iterations it took when
        # GMRES iterated on mode coefficients scaled to the samples' norm
        iterations = krylov_iterations()
        A, G, table = supercritical
        seed = ShapeState.from_modes([(2, 1e-3, 0.0)], table.R)
        evolve_nonlinear(seed, 0.5, A, G, id_model, small_grid)
        before = [3, 3, 3, 2, 3, 3, 3, 3, 3, 3, 4, 4]
        assert len(iterations) == len(before)
        assert all(now <= then for now, then in zip(iterations, before))

    def test_short_run_keeps_five_points_and_a_rate(
            self, supercritical, id_model, small_grid):
        # every step is at most t_end / 4, however small the error
        A, G, table = supercritical
        seed = ShapeState.from_modes([(2, 1e-3, 0.0)], table.R)
        traj = evolve_nonlinear(seed, 0.005, A, G, id_model, small_grid)
        assert traj.status == "completed"
        assert len(traj.points) >= 5
        fit = fit_growth_rate([(p.t, p.shape.amplitude(2)) for p in traj.points])
        assert fit.rate == pytest.approx(table.mu_at(2), rel=1e-3)

    def test_one_step_error_is_third_order(self, supercritical, id_model):
        # the embedded estimate is the local error of the second-order
        # solution, so it falls as dt**3; it also bounds the error of the
        # third-order step against 16 steps of dt / 16
        A, G, table = supercritical
        grid = DiskGrid(n_r=16, n_theta=32)
        mu = build_table(A=A, G=G, model=id_model, R=table.R,
                         k_max=grid.n_theta // 3).mu

        def remainder(c):
            shape = ShapeState(coeffs=c, radius_scale=table.R)
            return phi(shape, A, G, id_model, grid).coeffs - mu * c

        c0 = ShapeState.from_modes([(2, 2e-2, 0.0)], table.R,
                                   n_modes=mu.size - 1).coeffs
        n0 = remainder(c0)
        estimates = []
        for dt in (0.1, 0.05):
            stepped, err = dynamics._etd3rk_step(c0, n0, dt, mu, remainder)
            c, n = c0, n0
            for _ in range(16):
                c, _ = dynamics._etd3rk_step(c, n, dt / 16, mu, remainder)
                n = remainder(c)
            assert np.max(np.abs(stepped - c)) < err
            estimates.append(err)
        assert 6.0 <= estimates[0] / estimates[1] <= 10.0


def _phi_reference(z, j):
    """phi_j(z) = sum_m z**m / (m + j)!, summed exactly in integers."""
    p, q = float(z).as_integer_ratio()
    top = 3 * int(abs(z)) + 60       # the tail is below 1e-20 relative
    # term m is z**m / (m + j)! times the common denominator q**top (top + j)!
    num, term = 0, q**top * math.factorial(top + j) // math.factorial(j)
    for m in range(top + 1):
        num += term
        term = term * p // (q * (m + j + 1))     # exact
    return num / (q**top * math.factorial(top + j))   # correctly rounded


class TestPhiFunctions:
    @pytest.mark.parametrize("z", [
        0.0, 1e-12, -1e-12, 1e-3, -0.3,
        np.nextafter(dynamics.TAYLOR_RADIUS, 0.0), dynamics.TAYLOR_RADIUS,
        -np.nextafter(dynamics.TAYLOR_RADIUS, 0.0), -dynamics.TAYLOR_RADIUS,
        1.5, -2.0, 30.0, -45.0, 700.0, -1e3])
    def test_match_exact_taylor_sums(self, z):
        got = dynamics._phi_functions(np.array([z]))
        for j, value in enumerate(got, start=1):
            assert value[0] == pytest.approx(_phi_reference(z, j), rel=1e-14,
                                             abs=0.0), j

    def test_overflow_is_inf_without_warning(self):
        # pytest turns a RuntimeWarning into an error
        got = dynamics._phi_functions(np.array([1e3, -1e3, 0.0]))
        for j, value in enumerate(got, start=1):
            assert value[0] == np.inf
            assert value[2] == pytest.approx(1.0 / math.factorial(j), rel=1e-15)
