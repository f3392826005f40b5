"""Nutrient and pressure solves on the perturbed domain.

Both Dirichlet problems are posed on the physical domain bounded by
r = R (1 + rho(theta)) and pulled back to the unit disk with the blended
radial map s = R phi(r, theta) (see
:class:`tumorspec.disk.MappedCoefficients`). The caller builds that map once
per shape and passes it to both solves, together with the
:class:`tumorspec.disk.DiskGrid` whose nodes the map was built on; the grid
is the only resolution setting. The collocation systems are solved by GMRES
preconditioned with the per-angular-mode radial inverses; the pressure one
does not depend on the shape and is kept on the grid. A Krylov iteration
that ends above the roundoff floor raises SolverError. The semilinear
nutrient problem wraps this in a Newton iteration. The tolerances of both
loops are the module constants below.
"""

from dataclasses import dataclass

import numpy as np
from scipy.sparse.linalg import LinearOperator, gmres

from .disk import (DiskGrid, MappedCoefficients, ModePreconditioner,
                   apply_mapped_laplacian, boundary_radial_derivative, dealias,
                   eval_field_columns, harmonic_extension, theta_derivative)
from .errors import SolverError
from .models import NutrientModel
from .radial import RadialProfile
from .shapes import ShapeState

NEWTON_TOL = 1e-10        # max interior residual that ends the nutrient Newton loop
MAX_NEWTON_ITERS = 30
KRYLOV_TOL = 1e-11        # relative GMRES tolerance of the field solves


@dataclass(frozen=True)
class BoundaryGeometry:
    rho: np.ndarray
    rho_p: np.ndarray
    rho_pp: np.ndarray
    curvature: np.ndarray

    @classmethod
    def from_shape(cls, shape: ShapeState, n_theta):
        shape.require_admissible()
        R = shape.radius_scale
        rho = shape.to_grid(n_theta)
        rho_p = theta_derivative(rho, 1)
        rho_pp = theta_derivative(rho, 2)
        h = 1.0 + rho
        denom = h**2 + rho_p**2
        kappa = dealias((h**2 + 2.0 * rho_p**2 - h * rho_pp) / (R * denom**1.5))
        return cls(rho=rho, rho_p=rho_p, rho_pp=rho_pp, curvature=kappa)


def curvature(shape: ShapeState, n_theta=None):
    """Pointwise curvature of the perturbed boundary on the angular grid."""
    if n_theta is None:
        n_theta = max(64, 4 * (shape.n_modes + 1))
        n_theta += n_theta % 2
    return BoundaryGeometry.from_shape(shape, n_theta).curvature


@dataclass(frozen=True)
class DiskField:
    n_r: int
    n_theta: int
    values: np.ndarray                    # row 0 = boundary, radii descending
    boundary_trace: np.ndarray
    normal_derivative_trace: np.ndarray   # d/dr at r = 1 in mapped coordinates
    r: np.ndarray
    theta: np.ndarray


def _interior_solve(grid, coefs, potential, boundary_values, rhs, precond,
                    initial, krylov_tol):
    """Solve the mapped Dirichlet problem; returns the full field array.

    potential is either None or an (n_r, n_theta) array subtracted from the
    operator; boundary_values fixes row 0.
    """
    n_int = (grid.n_r - 1) * grid.n_theta

    def full_apply(V):
        out = apply_mapped_laplacian(grid, coefs, V)
        if potential is not None:
            out = out - potential * V
        return out

    V0 = initial.copy()
    V0[0, :] = boundary_values

    def matvec(w):
        W = np.zeros((grid.n_r, grid.n_theta))
        W[1:, :] = w.reshape(grid.n_r - 1, grid.n_theta)
        return full_apply(W)[1:, :].ravel()

    rhs_int = (rhs - full_apply(V0))[1:, :]
    b = rhs_int.ravel()
    bnorm = np.linalg.norm(b)
    if bnorm == 0.0:
        return V0

    op = LinearOperator((n_int, n_int), matvec=matvec)
    prec = LinearOperator(
        (n_int, n_int),
        matvec=lambda w: precond.solve_interior(
            w.reshape(grid.n_r - 1, grid.n_theta)).ravel())

    x, info = gmres(op, b, M=prec, rtol=krylov_tol, atol=0.25 * krylov_tol * bnorm,
                    maxiter=10, restart=60)
    if info != 0:
        # the preconditioned iteration stalls once the unpreconditioned
        # residual reaches the roundoff floor of the differentiation
        # matrices; accept the iterate in that case
        achieved = np.linalg.norm(matvec(x) - b) / bnorm
        if achieved > 1e-8:
            raise SolverError(
                f"GMRES did not converge (info={info}); relative residual "
                f"{achieved:.3e} on {n_int} unknowns")

    V = V0.copy()
    V[1:, :] += x.reshape(grid.n_r - 1, grid.n_theta)
    return V


def solve_pressure(geom: BoundaryGeometry, coefs: MappedCoefficients, A, G,
                   grid: DiskGrid):
    """Harmonic pressure with curvature + mitosis boundary data.

    ``geom`` and ``coefs`` describe one shape, ``coefs`` on the nodes of ``grid``.
    """
    boundary = dealias(geom.curvature
                       - 0.25 * A * G * coefs.R**2 * (1.0 + geom.rho) ** 2)
    init = harmonic_extension(grid, boundary)
    V = _interior_solve(grid, coefs, None, boundary, np.zeros_like(init),
                        grid.laplace_preconditioner, init, KRYLOV_TOL)
    return DiskField(n_r=grid.n_r, n_theta=grid.n_theta, values=V,
                     boundary_trace=V[0, :].copy(),
                     normal_derivative_trace=boundary_radial_derivative(grid, V),
                     r=grid.r, theta=grid.theta)


def solve_nutrient(coefs: MappedCoefficients, model: NutrientModel, grid: DiskGrid,
                   radial_guess: RadialProfile = None,
                   initial_values: np.ndarray = None):
    """Semilinear nutrient problem, Newton iteration on the mapped disk.

    ``coefs`` is the map of the domain on the nodes of ``grid``. The initial
    iterate is, in order of preference: ``initial_values`` (warm start from a
    previous time step), the interpolated radial equilibrium profile
    ``radial_guess``, or the constant boundary value.
    """
    scale = coefs.scale

    if initial_values is not None:
        v = initial_values.copy()
    elif radial_guess is not None:
        v = np.repeat(radial_guess.at(grid.r)[:, None], grid.n_theta, axis=1)
    else:
        v = np.ones((grid.n_r, grid.n_theta))
    v[0, :] = 1.0

    history = []
    for _ in range(MAX_NEWTON_ITERS):
        F = apply_mapped_laplacian(grid, coefs, v) - scale * model.f_at(v)
        res = float(np.max(np.abs(F[1:, :])))
        history.append(res)
        if res <= NEWTON_TOL:
            break
        if len(history) >= 2 and res > 0.5 * history[-2] \
                and res <= 1e3 * NEWTON_TOL:
            # roundoff floor of the collocation operator; no further progress
            break
        potential = scale * model.fprime_at(v)
        precond = ModePreconditioner(grid, potential.mean(axis=1))
        rhs = np.zeros_like(v)
        rhs[1:, :] = -F[1:, :]
        # one Newton correction: J delta = -F with zero boundary data
        delta = _interior_solve(grid, coefs, potential, np.zeros(grid.n_theta),
                                rhs, precond, np.zeros_like(v),
                                max(KRYLOV_TOL, 1e-4 * res))
        v = v + delta
        v[0, :] = 1.0
    else:
        raise SolverError(
            "nutrient Newton iteration did not converge; residual history: "
            + ", ".join(f"{r:.3e}" for r in history))

    return DiskField(n_r=grid.n_r, n_theta=grid.n_theta, values=v,
                     boundary_trace=v[0, :].copy(),
                     normal_derivative_trace=boundary_radial_derivative(grid, v),
                     r=grid.r, theta=grid.theta)


def center_value(grid: DiskGrid, values):
    """Field value at the origin: the mean of the column interpolants there."""
    return float(eval_field_columns(grid, values, 0.0).mean())


def harmonic_residual(grid: DiskGrid, coefs: MappedCoefficients, field: DiskField):
    """Max interior residual of the mapped Laplace operator on the field."""
    res = apply_mapped_laplacian(grid, coefs, field.values)
    return float(np.max(np.abs(res[1:, :])))
