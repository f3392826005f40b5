"""Shape states and the diagonal (linearized) evolution."""

import numpy as np
import pytest

from tumorspec.errors import DomainValidityError, ValidationError
from tumorspec.disk import DiskGrid
from tumorspec.linear import evolve_linear, fit_growth_rate
from tumorspec.radial import solve_u_n
from tumorspec.shapes import ShapeState

from oracles import bessel_i, linearized_mode_profile


def random_small_shape(rng, radius_scale=1.0, n_modes=8, amp=1e-3,
                       periodicity=None):
    modes = []
    ks = range(periodicity, n_modes + 1, periodicity) if periodicity \
        else range(1, n_modes + 1)
    for k in ks:
        modes.append((k, float(rng.uniform(0, amp)), float(rng.uniform(0, 2 * np.pi))))
    return ShapeState.from_modes(modes, radius_scale, n_modes=n_modes)


class TestShapeState:
    def test_grid_values_are_real_cosine_sums(self):
        s = ShapeState.from_modes([(2, 1e-2, 0.5)], 1.0)
        th = DiskGrid(n_r=4, n_theta=32).theta
        assert np.allclose(s.to_grid(32), 1e-2 * np.cos(2 * th + 0.5), atol=1e-16)

    def test_negative_mode_coefficient_is_conjugate(self, rng):
        s = random_small_shape(rng)
        for k in (1, 3, 7):
            assert s.coeff(-k) == np.conj(s.coeff(k))

    def test_sup_norm_of_single_mode(self):
        # grid sampling puts the reported maximum within O((k/n)^2) of the peak
        s = ShapeState.from_modes([(3, 2e-3, 1.0)], 1.0)
        assert s.sup_norm() == pytest.approx(2e-3, rel=2e-2)
        assert s.sup_norm() <= 2e-3 * (1 + 1e-12)

    def test_admissibility_boundary(self):
        ok = ShapeState.from_modes([(2, 0.24, 0.0)], 1.0)
        ok.require_admissible()
        bad = ShapeState.from_modes([(2, 0.26, 0.0)], 1.0)
        with pytest.raises(DomainValidityError):
            bad.require_admissible()

    def test_mode_out_of_range_rejected(self):
        with pytest.raises(ValidationError):
            ShapeState.from_modes([(-2, 1e-3, 0.0)], 1.0)
        with pytest.raises(ValidationError):
            ShapeState.from_modes([(9, 1e-3, 0.0)], 1.0, n_modes=8)

    def test_n_modes_is_read_from_the_coefficients(self):
        s = ShapeState(coeffs=np.zeros(5, dtype=complex), radius_scale=1.0)
        assert s.n_modes == 4
        assert ShapeState.zero(8, 1.0).n_modes == 8
        assert ShapeState.from_modes([(3, 1e-3, 0.0)], 1.0, n_modes=6).n_modes == 6
        for bad in (np.zeros(0), np.zeros((2, 3)), 0.0):
            with pytest.raises(ValidationError, match="nonempty 1-D"):
                ShapeState(coeffs=bad, radius_scale=1.0)

    def test_owns_its_coefficients(self):
        # a shape checked finite and admissible cannot change afterwards
        c = np.array([0.0, 0.0, 0.01], dtype=complex)
        s = ShapeState(coeffs=c, radius_scale=1.0)
        c[2] = 0.2
        assert s.sup_norm() == pytest.approx(0.02, rel=1e-12)
        with pytest.raises(ValueError, match="read-only"):
            s.coeffs[2] = 0.3

    def test_amplitude_reading(self):
        s = ShapeState.from_modes([(4, 3e-3, 0.7)], 1.0)
        assert s.amplitude(4) == pytest.approx(3e-3, rel=1e-12)
        assert s.amplitude(-4) == pytest.approx(3e-3, rel=1e-12)


class TestLinearEvolution:
    def test_mode_one_amplitude_is_conserved(self, unit_table):
        s = ShapeState.from_modes([(1, 1e-3, 0.3)], unit_table.R)
        out = evolve_linear(s, 5.0, unit_table)
        assert out.amplitude(1) == pytest.approx(1e-3, rel=1e-12)

    def test_exact_exponential_per_mode(self, unit_table):
        s = ShapeState.from_modes([(2, 1e-3, 0.0), (5, 2e-4, 1.0)], unit_table.R)
        t = 0.7
        out = evolve_linear(s, t, unit_table)
        for k in (2, 5):
            expected = s.amplitude(k) * np.exp(unit_table.mu_at(k) * t)
            assert out.amplitude(k) == pytest.approx(expected, rel=1e-13)

    def test_semigroup_property(self, unit_table, rng):
        s = random_small_shape(rng, radius_scale=unit_table.R)
        one = evolve_linear(s, 0.9, unit_table)
        two = evolve_linear(evolve_linear(s, 0.4, unit_table), 0.5, unit_table)
        assert np.allclose(one.coeffs, two.coeffs, rtol=1e-14, atol=1e-20)

    def test_reality_preserved(self, unit_table, rng):
        s = random_small_shape(rng, radius_scale=unit_table.R)
        out = evolve_linear(s, 1.3, unit_table)
        assert np.max(np.abs(np.imag(out.to_grid(64)))) == 0.0
        assert abs(out.coeffs[0].imag) == 0.0

    def test_periodic_lattice_invariance(self, unit_table, rng):
        s = random_small_shape(rng, radius_scale=unit_table.R, periodicity=3)
        out = evolve_linear(s, 2.0, unit_table)
        for k in range(1, 9):
            if k % 3:
                assert out.coeff(k) == 0.0

    def test_decay_bound_by_slowest_retained_mode(self, unit_table, rng):
        # every mode with k >= 2 decays at least as fast as exp(mu_0 t)
        s = random_small_shape(rng, radius_scale=unit_table.R, periodicity=2)
        t = 3.0
        out = evolve_linear(s, t, unit_table)
        bound = np.exp(unit_table.mu_at(0) * t)
        for k in range(2, 9):
            if s.amplitude(k) > 0:
                assert out.amplitude(k) <= s.amplitude(k) * bound * (1 + 1e-12)

    def test_trajectory_sampling(self, unit_table):
        s = ShapeState.from_modes([(2, 1e-3, 0.0)], unit_table.R)
        traj = [evolve_linear(s, t, unit_table) for t in (0.0, 0.5, 1.0)]
        assert traj[0].amplitude(2) == pytest.approx(1e-3)
        assert traj[2].amplitude(2) == pytest.approx(
            1e-3 * np.exp(unit_table.mu_at(2)), rel=1e-13)

    def test_rejects_negative_time(self, unit_table):
        s = ShapeState.from_modes([(2, 1e-3, 0.0)], unit_table.R)
        with pytest.raises(ValidationError):
            evolve_linear(s, -1.0, unit_table)


class TestGrowthRateFit:
    def test_exact_exponential_recovered(self):
        t = np.linspace(0.0, 2.0, 20)
        series = list(zip(t, 3e-4 * np.exp(-1.7 * t)))
        fit = fit_growth_rate(series)
        assert fit.rate == pytest.approx(-1.7, abs=1e-12)
        assert fit.residual < 1e-12

    def test_consistency_with_linear_evolution(self, unit_table):
        s = ShapeState.from_modes([(3, 1e-3, 0.0)], unit_table.R)
        times = np.linspace(0.0, 1.0, 11)
        series = [(t, evolve_linear(s, float(t), unit_table).amplitude(3))
                  for t in times]
        fit = fit_growth_rate(series)
        assert fit.rate == pytest.approx(unit_table.mu_at(3), abs=1e-10)

    def test_requires_enough_positive_samples(self):
        with pytest.raises(ValidationError):
            fit_growth_rate([(0.0, 1.0), (1.0, 0.5)])
        with pytest.raises(ValidationError):
            fit_growth_rate([(0.0, 1.0), (1.0, 0.0), (2.0, 1.0)])

    def test_samples_at_one_time_raise(self):
        # np.polyfit would return a meaningless slope with a RankWarning
        with pytest.raises(ValidationError, match="span no time"):
            fit_growth_rate([(0.3, 1.0), (0.3, 2.0), (0.3, 0.5)])

    def test_span_whose_square_underflows_raises(self):
        # np.polyfit would divide by zero (a RuntimeWarning, an error here)
        with pytest.raises(ValidationError, match="span no time"):
            fit_growth_rate([(0.0, 1.0), (1e-160, 1.0), (2e-160, 1.0)])
        fit = fit_growth_rate([(0.0, 1.0), (1e-150, 1.0), (2e-150, 1.0)])
        assert fit.rate == 0.0


class TestLinearizedModeProfile:
    def test_boundary_value(self, id_model, unit_steady):
        u2 = solve_u_n(2, 1.0, unit_steady.v0, id_model)
        prof = linearized_mode_profile(2, 1e-3, unit_steady.v0, u2)
        assert prof.values[-1] == pytest.approx(-unit_steady.v0.deriv_values[-1] * 1e-3,
                                                rel=1e-10)

    def test_identity_closed_form(self, id_model, unit_steady):
        # for f = id and unit radius the mode profile is a Bessel ratio
        k = 3
        uk = solve_u_n(k, 1.0, unit_steady.v0, id_model)
        prof = linearized_mode_profile(k, 1.0, unit_steady.v0, uk)
        c = -unit_steady.v0.deriv_values[-1]
        for r in (0.3, 0.6, 0.9):
            expected = c * bessel_i(k, r, 80) / bessel_i(k, 1.0, 80)
            assert prof.at(r) == pytest.approx(expected, abs=1e-8)
