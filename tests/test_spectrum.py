"""Stability spectrum, thresholds, and classification."""

import math

import numpy as np
import pytest

from tumorspec.errors import ValidationError
from tumorspec.radial import boundary_ratio, solve_U
from tumorspec.shapes import ShapeState
from tumorspec.spectrum import build_table, g_star, l_G_index, report_dict

from oracles import identity_g_star, identity_g_threshold, identity_mu


class TestNeutralMode:
    @pytest.mark.parametrize("frac", [0.2, 0.4, 0.6, 0.8])
    def test_identity_mode_one_is_neutral(self, id_model, frac):
        A = frac * id_model.f_of_one
        table = build_table(A=A, G=3.0, model=id_model, k_max=4)
        assert abs(table.mu_at(1)) <= 1e-8

    @pytest.mark.parametrize("frac", [0.2, 0.4, 0.6, 0.8])
    def test_polynomial_mode_one_is_neutral(self, poly_model, frac):
        A = frac * poly_model.f_of_one
        table = build_table(A=A, G=3.0, model=poly_model, k_max=4)
        assert abs(table.mu_at(1)) <= 1e-8

    def test_mode_one_not_neutral_off_equilibrium(self, id_model, unit_radius_A):
        table = build_table(A=unit_radius_A, G=3.0, model=id_model, R=1.4,
                            k_max=4)
        assert abs(table.mu_at(1)) > 1e-4


class TestSymbol:
    def test_matches_bessel_oracle_at_unit_radius(self, unit_table, unit_radius_A):
        for k in range(10):
            expected = identity_mu(k, unit_radius_A, 1.0)
            assert unit_table.mu_at(k) == pytest.approx(expected, abs=1e-8)

    def test_even_in_k(self, unit_table):
        for k in (1, 2, 5, 9):
            assert unit_table.mu_at(-k) == unit_table.mu_at(k)

    def test_principal_part_at_zero_mitosis(self, id_model, unit_radius_A):
        table = build_table(A=unit_radius_A, G=0.0, model=id_model, k_max=8)
        for k in range(9):
            assert table.mu_at(k) == pytest.approx(
                float(-k**3 + k) / table.R**3, abs=1e-12)

    def test_principal_symbol(self, id_model, unit_radius_A):
        table = build_table(A=unit_radius_A, G=1.0, model=id_model, R=2.0,
                            k_max=4)
        assert table.lam[3] == pytest.approx(-27.0 / 8.0)
        assert table.lam[0] == 0.0


class TestThresholds:
    def test_sign_flip_across_threshold(self, id_model, unit_radius_A):
        base = build_table(A=unit_radius_A, G=1.0, model=id_model, k_max=10)
        for k in range(2, 9):
            if base.denom[k] >= 0:
                continue
            gk = base.g_threshold[k]
            for g, sign in ((gk, 0), (0.9 * gk, -1), (1.1 * gk, 1)):
                t = build_table(
                    A=unit_radius_A, G=g, model=id_model, R=base.R, k_max=10)
                if sign == 0:
                    assert abs(t.mu_at(k)) <= 1e-8
                else:
                    assert math.copysign(1.0, t.mu_at(k)) == sign

    def test_threshold_matches_oracle(self, unit_table, unit_radius_A):
        for k in range(2, 9):
            expected = identity_g_threshold(k, unit_radius_A)
            got = unit_table.g_threshold[k]
            assert got == pytest.approx(expected, rel=1e-8)

    def test_g_star_against_bruteforce_oracle(self, unit_table, unit_radius_A):
        expected, k_expected = identity_g_star(unit_radius_A)
        value, k0 = g_star(unit_table)
        assert k0 == k_expected == 2
        assert value == pytest.approx(expected, rel=5e-3)
        assert value > 0.0

    def test_desk_scale_value(self, unit_table):
        value, k0 = g_star(unit_table)
        assert value == pytest.approx(175.0, abs=1.0)


class TestClassification:
    def test_hele_shaw_limit_is_stable(self, id_model, unit_radius_A):
        table = build_table(A=unit_radius_A, G=0.0, model=id_model, k_max=8)
        report = report_dict(table)
        assert report["regime"] == "hele_shaw_stable"
        assert report["unstable_modes"] == []

    def test_negative_mitosis_is_unstable(self, id_model, unit_radius_A):
        table = build_table(A=unit_radius_A, G=-2.0, model=id_model, k_max=16)
        report = report_dict(table)
        assert report["regime"] == "high_vascularisation_unstable"
        assert report["spectral_bound"] > 0.0

    def test_above_threshold_flags_unstable_modes(self, id_model, unit_radius_A):
        gs, k0 = g_star(build_table(
            A=unit_radius_A, G=1.0, model=id_model, k_max=32))
        table = build_table(A=unit_radius_A, G=1.5 * gs, model=id_model,
                            k_max=32)
        report = report_dict(table)
        assert report["regime"] == "above_threshold_unstable"
        assert k0 in report["unstable_modes"]

    def test_below_threshold_all_modes_decay(self, unit_table):
        report = report_dict(unit_table)
        assert report["spectral_bound"] < 0.0
        assert abs(report["neutral_mode_value"]) <= 1e-8


class TestPeriodicityIndex:
    def test_small_mitosis_gives_two(self, unit_table):
        assert l_G_index(unit_table) == 2

    def test_grows_with_mitosis(self, id_model, unit_radius_A):
        l_small = l_G_index(build_table(
            A=unit_radius_A, G=1.0, model=id_model, k_max=64))
        l_large = l_G_index(build_table(
            A=unit_radius_A, G=500.0, model=id_model, k_max=64))
        assert l_large > l_small

    def test_all_modes_beyond_index_decay_faster_than_zero(self, id_model,
                                                           unit_radius_A):
        table = build_table(A=unit_radius_A, G=300.0, model=id_model, k_max=64)
        l = l_G_index(table)
        mu0 = table.mu_at(0)
        assert all(table.mu_at(k) <= mu0 for k in range(l, 65))
        assert table.mu_at(l - 1) > mu0 or l == 2

    def test_requires_positive_mitosis(self, id_model, unit_radius_A):
        table = build_table(A=unit_radius_A, G=0.0, model=id_model, k_max=8)
        with pytest.raises(ValidationError):
            l_G_index(table)


class TestCubicDecayBound:
    def test_symbol_dominated_by_cubic_tail(self, unit_table):
        # mu_k + |k|**3/R**3 stays bounded as k grows (ratio term decays)
        shifted = [unit_table.mu_at(k) + k**3 / unit_table.R**3
                   for k in range(2, 33)]
        assert np.max(np.abs(shifted)) < 40.0
        tail = [unit_table.mu_at(k) for k in range(2, 33)]
        assert all(a > b for a, b in zip(tail, tail[1:]))


class TestValidation:
    def test_A_outside_range_rejected(self, id_model):
        with pytest.raises(ValidationError):
            build_table(A=1.5, G=1.0, model=id_model)

    def test_small_k_max_rejected(self, id_model, unit_radius_A):
        with pytest.raises(ValidationError):
            build_table(A=unit_radius_A, G=1.0, model=id_model, k_max=1)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("call, message", [
        (lambda x, m: ShapeState.from_modes([(2, 1e-3, 0.0)], x),
         "radius_scale must be positive"),
        (lambda x, m: build_table(0.5, 2.0, m, R=x), "R must be positive"),
        (lambda x, m: build_table(0.5, x, m, R=1.0), "G must be finite"),
        (lambda x, m: solve_U(x, m), "lam must be nonnegative"),
        (lambda x, m: boundary_ratio(2, x, solve_U(1.0, m), m),
         "R_A must be positive"),
    ], ids=["radius_scale", "R", "G", "lam", "R_A"])
    def test_non_finite_value_rejected_where_it_enters(self, id_model, call,
                                                       message, value):
        # not a solver failure further in, nor a NaN passed on
        with pytest.raises(ValidationError, match=message):
            call(value, id_model)

    def test_table_uses_steady_radius_by_default(self, id_model, unit_radius_A,
                                                 unit_steady):
        table = build_table(A=unit_radius_A, G=1.0, model=id_model, k_max=2)
        assert table.R == pytest.approx(unit_steady.R_A, abs=1e-12)
