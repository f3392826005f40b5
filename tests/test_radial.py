"""Radial ODE solvers against independent Bessel-series references."""

import math
import re
import subprocess
import sys

import numpy as np
import pytest

from tumorspec import radial
from tumorspec.errors import BracketError, SolverError, ValidationError
from tumorspec.models import parse_model_spec
from tumorspec.radial import (appendix_series, boundary_ratio, solve_U,
                              solve_u_n, steady_radius)

from oracles import (bessel_i, brentq, identity_ratio, identity_steady_A,
                     ode_residual_on_midpoints)
from shooting_reference import SHOOTING_REFERENCE


def worst_relative_error(got, expected):
    return max(abs(g / e - 1.0) for g, e in zip(got, expected))


class TestCenterShooting:
    def test_identity_center_value_is_inverse_bessel(self, id_model):
        prof = solve_U(1.0, id_model)
        assert prof.values[0] == pytest.approx(1.0 / bessel_i(0, 1.0), abs=1e-10)

    def test_identity_boundary_derivative(self, id_model):
        prof = solve_U(1.0, id_model)
        expected = bessel_i(1, 1.0) / bessel_i(0, 1.0)
        assert prof.deriv_values[-1] == pytest.approx(expected, abs=1e-10)

    def test_identity_profile_matches_closed_form(self, id_model):
        lam = 2.25
        prof = solve_U(lam, id_model)
        s = np.sqrt(lam)
        for r in (0.2, 0.5, 0.9):
            expected = bessel_i(0, s * r) / bessel_i(0, s)
            assert prof.at(r) == pytest.approx(expected, abs=1e-10)

    def test_zero_lambda_gives_constant_one(self, id_model):
        prof = solve_U(0.0, id_model)
        assert np.allclose(prof.values, 1.0)
        assert prof.deriv_values[-1] == 0.0

    def test_maximum_principle(self, id_model, poly_model, rng):
        for model in (id_model, poly_model):
            for _ in range(10):
                lam = float(rng.uniform(0.05, 25.0))
                prof = solve_U(lam, model)
                assert prof.values[0] > 0.0
                assert np.all(prof.values <= 1.0 + 1e-12)
                assert np.all(np.diff(prof.values) >= -1e-12)

    def test_center_value_monotone_in_lambda(self, id_model):
        centers = [solve_U(lam, id_model).values[0] for lam in (0.5, 1.0, 2.0, 4.0)]
        assert all(a > b for a, b in zip(centers, centers[1:]))

    def test_ode_residual_small(self, id_model):
        prof = solve_U(1.5, id_model)
        res = ode_residual_on_midpoints(prof, 1, 1.5, lambda r, u: 1.5 * u)
        assert res < 1e-7


class TestModeFamilies:
    def test_u0_value_at_one(self, id_model, unit_steady):
        prof = solve_u_n(0, 1.0, unit_steady.v0, id_model)
        assert prof.values[-1] == pytest.approx(bessel_i(0, 1.0), abs=1e-9)

    def test_u1_value_at_one(self, id_model, unit_steady):
        prof = solve_u_n(1, 1.0, unit_steady.v0, id_model)
        assert prof.values[-1] == pytest.approx(2.0 * bessel_i(1, 1.0), abs=1e-9)

    def test_boundary_ratios_match_bessel(self, id_model, unit_steady):
        for n in range(6):
            got = boundary_ratio(n, 1.0, unit_steady.v0, id_model)
            assert got == pytest.approx(identity_ratio(n), abs=1e-9)

    def test_ratio_decays_monotonically(self, id_model, unit_steady):
        ratios = [boundary_ratio(n, 1.0, unit_steady.v0, id_model)
                  for n in range(14)]
        assert all(a > b for a, b in zip(ratios, ratios[1:]))
        assert ratios[12] < 0.05

    def test_three_decimal_constants(self, id_model, unit_steady):
        r0 = boundary_ratio(0, 1.0, unit_steady.v0, id_model)
        r1 = boundary_ratio(1, 1.0, unit_steady.v0, id_model)
        assert round(r0, 3) == 0.446
        assert round(r1, 3) == 0.240

    def test_one_product_gives_every_ratio(self, id_model, unit_steady):
        # the row-by-row products D w at r = 1 are the reference; one GEMV
        # sums them in another order, so they agree to roundoff
        ks = np.arange(65)
        fold, w = radial._solve_mode(ks, 1.0, unit_steady.v0, id_model)
        expected = np.array([(fold.D[0] @ row)[0] for row in w])
        got = boundary_ratio(ks, 1.0, unit_steady.v0, id_model)
        assert worst_relative_error(got, expected) <= 1e-13
        one = boundary_ratio(5, 1.0, unit_steady.v0, id_model)
        assert type(one) is float
        assert one == pytest.approx(expected[5], rel=1e-13)

    def test_v0_not_from_solve_U_rejected(self, id_model, unit_steady):
        # a profile without the folded collocation values, such as a mode profile
        u1 = solve_u_n(1, 1.0, unit_steady.v0, id_model)
        for solve in (boundary_ratio, solve_u_n):
            with pytest.raises(ValidationError, match="solve_U"):
                solve(0, 1.0, u1, id_model)


class TestCollocationAccuracy:
    """Ratios away from R = 1 and up to k = 64, in relative terms."""

    @pytest.mark.parametrize("R", [0.5, 1.0, 4.0, 16.0])
    def test_identity_ratios_match_bessel(self, id_model, R):
        # u_k = I_k(R r) / r**k, so u_k'(1)/u_k(1) = R I_{k+1}(R) / I_k(R)
        v0 = solve_U(R * R, id_model)
        got = [boundary_ratio(k, R, v0, id_model) for k in range(65)]
        expected = [R * bessel_i(k + 1, R) / bessel_i(k, R) for k in range(65)]
        assert worst_relative_error(got, expected) <= 1e-10

    @pytest.mark.parametrize("A", sorted(SHOOTING_REFERENCE))
    def test_polynomial_ratios_match_shooting(self, poly_model, A):
        ref = SHOOTING_REFERENCE[A]
        st = steady_radius(A, poly_model)
        assert abs(st.R_A / ref["R_A"] - 1.0) <= 1e-10
        got = [boundary_ratio(k, st.R_A, st.v0, poly_model) for k in range(65)]
        assert worst_relative_error(got, ref["ratios"]) <= 1e-10

    def test_newton_cap_raises_with_history(self, poly_model, monkeypatch):
        monkeypatch.setattr(radial, "MAX_NEWTON_ITERS", 2)
        with pytest.raises(SolverError, match="residual history"):
            solve_U(10.0, poly_model)

    def test_overflowing_iterate_raises_without_a_numpy_warning(self,
                                                                 poly_model):
        # f(1 + w) overflows in the first Newton step; RuntimeWarnings are
        # errors under this suite's settings
        with pytest.raises(SolverError, match="residual history: .*nan"):
            solve_U(2.309195390555727e85**2, poly_model)

    def test_unresolved_profile_raises(self, id_model, monkeypatch):
        with pytest.raises(SolverError, match=r"R = sqrt\(lam\) = 100\) is not "
                           r"resolved by the fixed N_NODES = 65 .*; choose a "
                           r"smaller R \(or a larger A\)"):
            solve_U(100.0**2, id_model)
        monkeypatch.setattr(radial, "N_NODES", 129)
        prof = solve_U(100.0**2, id_model)
        expected = 100.0 * bessel_i(1, 100.0, 200) / bessel_i(0, 100.0, 200)
        assert abs(prof.deriv_values[-1] / expected - 1.0) <= 1e-10


class TestSeries:
    def test_series_matches_solver(self, id_model, unit_steady):
        for n, name in ((0, "u0"), (1, "u1")):
            prof = solve_u_n(n, 1.0, unit_steady.v0, id_model)
            for r in np.arange(0.1, 1.05, 0.1):
                r = float(r)
                assert abs(appendix_series(name, r, 40) - prof.at(r)) < 1e-8

    def test_u0_quadratic_coefficient(self):
        # second series coefficient is 1/4 of the leading one
        x = 1e-4
        assert (appendix_series("u0", x, 40) - 1.0) / x**2 == pytest.approx(
            0.25, rel=1e-6)

    def test_series_is_bessel(self):
        assert appendix_series("u0", 1.0, 60) == pytest.approx(
            bessel_i(0, 1.0), abs=1e-12)
        assert appendix_series("u1", 1.0, 60) == pytest.approx(
            2.0 * bessel_i(1, 1.0), abs=1e-12)


class TestSteadyRadius:
    def test_unit_radius_at_bessel_ratio_A(self, id_model):
        A = identity_steady_A()
        st = steady_radius(A, id_model)
        assert st.R_A == pytest.approx(1.0, abs=1e-6)

    def test_steady_condition_holds(self, id_model):
        st = steady_radius(0.5, id_model)
        assert st.v0.deriv_values[-1] == pytest.approx(0.5 * st.R_A**2 / 2.0, abs=1e-9)

    def test_alpha_echo(self, id_model):
        st = steady_radius(0.5, id_model)
        assert st.alpha_A == pytest.approx(st.R_A**2 * (1.0 - 0.25), abs=1e-12)

    def test_radius_grows_as_A_shrinks(self, id_model):
        radii = [steady_radius(A, id_model).R_A for A in (0.8, 0.6, 0.4, 0.3)]
        assert all(a < b for a, b in zip(radii, radii[1:]))

    def test_identity_condition_is_bessel_ratio(self, id_model):
        # the steady condition reduces to I1(R)/I0(R) = A R / 2
        st = steady_radius(0.6, id_model)
        R = st.R_A
        assert bessel_i(1, R, 80) / bessel_i(0, R, 80) == pytest.approx(
            0.6 * R / 2.0, abs=1e-9)

    def test_invalid_A_rejected(self, id_model):
        with pytest.raises(ValidationError):
            steady_radius(1.0, id_model)
        with pytest.raises(ValidationError):
            steady_radius(-0.2, id_model)

    def test_polynomial_model_steady_condition(self, poly_model):
        st = steady_radius(0.7, poly_model)
        assert st.v0.deriv_values[-1] == pytest.approx(0.7 * st.R_A**2 / 2.0, abs=1e-9)

    def test_radius_above_R_MAX_names_the_smallest_reachable_A(self, id_model):
        # dU/dr(1, R**2) = R I1(R)/I0(R), so the steady radius is at most
        # R_MAX for A above 2 I1(R_MAX) / (R_MAX I0(R_MAX)) = 0.12103
        R = radial.R_MAX
        A_min = 2.0 * bessel_i(1, R, 80) / (R * bessel_i(0, R, 80))
        with pytest.raises(BracketError, match=f"above R_MAX = {R:g};") as info:
            steady_radius(0.1, id_model)
        reported = re.search(r"smallest reachable A is (\S+),", str(info.value))
        assert float(reported.group(1)) == pytest.approx(A_min, rel=1e-5)
        assert info.value.samples[-1][0] == R
        assert steady_radius(0.1215, id_model).R_A < R


    @pytest.mark.parametrize("A", [1.0 - 1e-7, 1.0 - 1e-12],
                             ids=["1-1e-7", "1-1e-12"])
    def test_radius_near_zero_is_found(self, id_model, A):
        # the bracket starts at lam = R**2 = 0, so no A below f(1) is out
        # of reach at the small end; R_A is checked by its backward error,
        # as its forward error is bounded by how A rounds, eps / (2 (1 - A))
        R = steady_radius(A, id_model).R_A
        assert 0.0 < R < 1e-3
        assert abs(2.0 * bessel_i(1, R) / (R * bessel_i(0, R)) - A) <= 1e-14

    def test_exact_zero_at_the_bracket_end_is_the_root(self, id_model,
                                                       monkeypatch):
        # a stub center problem with g(R) = A R**2 (1 - R**2) / 2, so g(1) = 0
        # exactly and g > 0 below R = 1
        A = 0.5
        monkeypatch.setattr(radial, "_solve_center",
                            lambda lam, model, start=None: (
                                np.zeros((radial.N_NODES + 1) // 2),
                                A * (2.0 - lam) / 2.0))
        assert steady_radius(A, id_model).R_A == 1.0

    @pytest.mark.parametrize("model, budget", [("identity", 6),
                                               ("poly:1,0.3", 9)],
                             ids=["identity", "poly:1,0.3"])
    def test_root_takes_few_center_solves(self, model, budget, monkeypatch):
        # the bracket's one center solve at R = 1, then bordered Newton
        # steps on lam and U together, one LU solve each, and no bisection
        model = parse_model_spec(model)
        A = 2.0 * solve_U(0.52**2, model).deriv_values[-1] / 0.52**2
        calls, solves = [], []
        solve, lu_solve = radial._solve_center, np.linalg.solve

        def counted(lam, model, start=None):
            calls.append(lam)
            return solve(lam, model, start)

        def counted_lu(a, b):
            solves.append(None)
            return lu_solve(a, b)

        monkeypatch.setattr(radial, "_solve_center", counted)
        monkeypatch.setattr(np.linalg, "solve", counted_lu)
        assert steady_radius(A, model).R_A == pytest.approx(0.52, rel=1e-12)
        assert calls == [1.0]
        assert len(solves) <= budget

    @pytest.mark.parametrize("model", ["identity", "poly:1,0.3"])
    def test_newton_leaving_the_bracket_bisects(self, model, monkeypatch):
        # the top of the bracket lies 1e-9 above the root, and its h is
        # given as -1e3, so Newton starts near lam = 0 and its first step
        # overshoots the bracket; the bisections that replace such steps
        # still end at the root
        model = parse_model_spec(model)
        R_A = steady_radius(0.5, model).R_A
        top = R_A**2 * (1.0 + 1e-9)
        lo = (0.0, (model.f_of_one - 0.5) / 2.0,
              np.zeros((radial.N_NODES + 1) // 2))
        hi = (top, -1e3, radial._solve_center(top, model)[0])
        calls = []
        solve = radial._solve_center

        def counted(lam, model, start=None):
            calls.append(lam)
            return solve(lam, model, start)

        monkeypatch.setattr(radial, "_solve_center", counted)
        lam, w, uptake = radial._bordered_root(0.5, model, lo, hi)
        assert calls and all(0.0 < c < top for c in calls)
        assert abs(math.sqrt(lam) / R_A - 1.0) <= 1e-13
        assert uptake == pytest.approx(0.25, abs=1e-14)

    def test_newton_cap_raises_with_history(self, id_model, monkeypatch):
        # the center solves of the identity bracket take one step each; the
        # bordered Newton needs more than two
        monkeypatch.setattr(radial, "MAX_NEWTON_ITERS", 2)
        with pytest.raises(SolverError, match=r"did not converge at lam=\S+; "
                           r"residual history: \S+, \S+$"):
            steady_radius(0.5, id_model)

    def test_nonfinite_newton_step_raises(self, id_model, monkeypatch):
        # a NaN from the bordered (n + 1) x (n + 1) solve stops Newton at once
        lu_solve = np.linalg.solve
        bordered = (radial.N_NODES + 1) // 2 + 1
        monkeypatch.setattr(np.linalg, "solve", lambda a, b: (
            np.full_like(b, np.nan) if len(b) == bordered else lu_solve(a, b)))
        with pytest.raises(SolverError, match=r"residual history: [^,]+$"):
            steady_radius(0.5, id_model)

    def test_unresolved_profile_raises(self, id_model, monkeypatch):
        monkeypatch.setattr(radial, "N_NODES", 9)
        with pytest.raises(SolverError, match="not resolved by the fixed "
                           "N_NODES = 9 collocation nodes"):
            steady_radius(0.5, id_model)

    def test_identity_sweep_backward_error(self, id_model):
        # R_A from 2e-6, where the lam update of Newton reaches its roundoff
        # floor before ROOT_RTOL * lam, to 15.9, and on both sides of the
        # bracket's samples at R = 1, 2, 4 and 8; the steady condition for
        # the identity is 2 I1(R) / (R I0(R)) = A
        radii = list(np.geomspace(2e-6, 15.9, 240)) + [
            b * (1.0 + e) for b in (1.0, 2.0, 4.0, 8.0)
            for e in (-1e-9, -1e-15, 1e-15, 1e-9)]

        def bessel_A(R):
            return 2.0 * bessel_i(1, R) / (R * bessel_i(0, R))

        for R in radii:
            A = bessel_A(R)
            assert abs(bessel_A(steady_radius(A, id_model).R_A) - A) <= 1e-14

    def test_polynomial_sweep(self, poly_model):
        radii = []
        for A in np.linspace(0.135, 1.2999, 100):
            st = steady_radius(float(A), poly_model)
            assert st.v0.deriv_values[-1] == pytest.approx(A * st.R_A**2 / 2.0,
                                                           rel=1e-13)
            radii.append(st.R_A)
        assert np.all(np.diff(radii) < 0.0)

    @pytest.mark.parametrize("model", ["identity", "poly:1,0.3"])
    def test_matches_brent_on_h(self, model):
        # Brent brackets the root of h(lam) = int_0^1 r f(U) dr - A/2 with
        # each h from a center solve, with no Newton step on lam
        model = parse_model_spec(model)
        for A in (0.3, 0.7):
            def h(lam):
                return radial._solve_center(lam, model)[1] - A / 2.0

            top = radial.R_MAX**2
            lam = brentq(h, 0.0, top, h(0.0), h(top), xtol=1e-300, rtol=1e-15)
            R_A = steady_radius(A, model).R_A
            assert abs(R_A / math.sqrt(lam) - 1.0) <= 1e-13


class TestBrent:
    @pytest.mark.parametrize("f, a, b, root", [
        (lambda x: math.cos(x) - x, 0.0, 1.0, 0.7390851332151607),
        (lambda x: x**3 - 2.0, 1.0, 2.0, 2.0 ** (1.0 / 3.0)),
    ], ids=["dottie", "cube_root_2"])
    def test_known_roots_in_few_calls(self, f, a, b, root):
        calls = []

        def counted(x):
            calls.append(x)
            return f(x)

        x = brentq(counted, a, b, f(a), f(b), xtol=1e-14, rtol=8.9e-16)
        assert abs(x - root) <= 1e-14 + 8.9e-16 * root
        assert len(calls) <= 15

    def test_root_at_an_endpoint_is_returned(self):
        def never(x):
            raise AssertionError("no evaluation needed")

        assert brentq(never, 1.0, 2.0, 0.0, 1.0, xtol=1e-14,
                      rtol=8.9e-16) == 1.0
        assert brentq(never, 0.5, 2.0, -1.0, 0.0, xtol=1e-14,
                      rtol=8.9e-16) == 2.0

    def test_no_convergence_raises(self):
        f = lambda x: math.cos(x) - x   # noqa: E731
        with pytest.raises(SolverError, match="did not converge in 2 steps"):
            brentq(f, 0.0, 1.0, f(0.0), f(1.0), xtol=1e-14,
                   rtol=8.9e-16, maxiter=2)
        with pytest.raises(SolverError, match="no sign change"):
            brentq(f, 0.0, 0.5, f(0.0), f(0.5), xtol=1e-14,
                   rtol=8.9e-16)


class TestDeterminism:
    def test_fresh_process_gives_identical_profile(self, id_model, package_env):
        code = (
            "from tumorspec.models import identity_model\n"
            "from tumorspec.radial import solve_U\n"
            "p = solve_U(1.0, identity_model())\n"
            "print(repr(float(p.values[0])), repr(float(p.deriv_values[-1])))\n"
        )
        out = subprocess.run([sys.executable, "-c", code], env=package_env,
                             capture_output=True, text=True, check=True)
        prof = solve_U(1.0, id_model)
        assert out.stdout.split() == [repr(float(prof.values[0])),
                                      repr(float(prof.deriv_values[-1]))]
