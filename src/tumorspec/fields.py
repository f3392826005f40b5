"""Nutrient and pressure solves on the perturbed domain.

Both Dirichlet problems are posed on the physical domain bounded by
r = R (1 + rho(theta)) and pulled back to the unit disk with the blended
radial map s = R phi(r, theta). One :class:`tumorspec.disk.MappedCoefficients`
holds that map for a shape: the operator coefficients, and the boundary
quantities (h = 1 + rho, the curvature) that the pressure data read. The
caller builds it once per shape and passes it to both solves, together with
the :class:`tumorspec.disk.DiskGrid` whose nodes it was built on; the grid is
the only resolution setting.

Every linear solve is for a correction with zero boundary data: the pressure
starts from the harmonic extension of its boundary data and adds the
correction for the interior residual of the mapped Laplacian, and each
nutrient Newton step adds the correction for the interior residual of the
semilinear equation. The collocation systems are solved by GMRES
preconditioned with the per-angular-mode radial inverses. The pressure one
does not depend on the shape and is kept on the grid; the nutrient one is
built once per solve, from the potential at the Newton start, and serves
every Newton step of that solve (for the identity model f' is constant, so
it is the one every step would build). A Krylov iteration that ends above
the roundoff floor raises SolverError. The tolerances of both loops are the
module constants below.
"""

from dataclasses import dataclass

import numpy as np
from scipy.sparse.linalg import LinearOperator, gmres

from .disk import (DiskGrid, MappedCoefficients, ModePreconditioner,
                   apply_mapped_laplacian, boundary_curvature,
                   boundary_radial_derivative, dealias, eval_field_columns,
                   harmonic_extension, theta_derivative)
from .errors import SolverError
from .models import NutrientModel
from .radial import solve_U
from .shapes import ShapeState

NEWTON_TOL = 1e-10        # max interior residual that ends the nutrient Newton loop
MAX_NEWTON_ITERS = 30
KRYLOV_TOL = 1e-11        # relative GMRES tolerance of the field solves


def curvature(shape: ShapeState, n_theta=None):
    """Pointwise curvature of the perturbed boundary on the angular grid."""
    if n_theta is None:
        n_theta = max(64, 4 * (shape.n_modes + 1))
        n_theta += n_theta % 2
    shape.require_admissible()
    rho = shape.to_grid(n_theta)
    return boundary_curvature(rho, theta_derivative(rho, 1), shape.radius_scale)


@dataclass(frozen=True)
class DiskField:
    values: np.ndarray                    # row 0 = boundary, radii descending
    normal_derivative_trace: np.ndarray   # d/dr at r = 1 in mapped coordinates

    @property
    def boundary_trace(self):
        return self.values[0]


def _interior_solve(grid, coefs, potential, rhs, precond, tol):
    """Interior values of the correction with zero boundary data.

    Solves (mapped Laplacian - potential) W = rhs on the interior rows, with
    W = 0 on the boundary row; potential is None or an (n_r, n_theta) array,
    and rhs holds the n_r - 1 interior rows.
    """
    n_int = (grid.n_r - 1) * grid.n_theta

    def matvec(w):
        W = np.zeros((grid.n_r, grid.n_theta))
        W[1:, :] = w.reshape(grid.n_r - 1, grid.n_theta)
        out = apply_mapped_laplacian(grid, coefs, W)
        if potential is not None:
            out = out - potential * W
        return out[1:, :].ravel()

    b = rhs.ravel()
    bnorm = np.linalg.norm(b)
    if bnorm == 0.0:
        return np.zeros_like(rhs)

    op = LinearOperator((n_int, n_int), matvec=matvec)
    prec = LinearOperator(
        (n_int, n_int),
        matvec=lambda w: precond.solve_interior(
            w.reshape(grid.n_r - 1, grid.n_theta)).ravel())

    x, info = gmres(op, b, M=prec, rtol=tol, atol=0.25 * tol * bnorm,
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
    return x.reshape(grid.n_r - 1, grid.n_theta)


def solve_pressure(coefs: MappedCoefficients, A, G, grid: DiskGrid):
    """Harmonic pressure with curvature + mitosis boundary data.

    ``coefs`` is the map of the domain on the nodes of ``grid``.
    """
    boundary = dealias(coefs.curvature - 0.25 * A * G * coefs.R**2 * coefs.h**2)
    V = harmonic_extension(grid, boundary)
    V[0, :] = boundary
    V[1:, :] += _interior_solve(grid, coefs, None,
                                -apply_mapped_laplacian(grid, coefs, V)[1:, :],
                                grid.laplace_preconditioner, KRYLOV_TOL)
    return DiskField(values=V,
                     normal_derivative_trace=boundary_radial_derivative(grid, V))


def solve_nutrient(coefs: MappedCoefficients, model: NutrientModel, grid: DiskGrid,
                   start=None):
    """Semilinear nutrient problem, Newton iteration on the mapped disk.

    ``coefs`` is the map of the domain on the nodes of ``grid``. ``start`` is
    the initial iterate, any array that broadcasts to the grid (such as the
    field of a previous time step); None starts from the radial equilibrium
    profile of radius ``coefs.R``. The boundary row is set to 1 either way.
    The preconditioner is built once, from the potential at the start, and
    serves every Newton step.
    """
    scale = coefs.scale
    if start is None:
        start = solve_U(coefs.R * coefs.R, model).at(grid.r)[:, None]
    v = np.broadcast_to(start, (grid.n_r, grid.n_theta)).copy()
    v[0, :] = 1.0
    precond = ModePreconditioner(grid, (scale * model.fprime_at(v)).mean(axis=1))

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
        # one Newton correction: J delta = -F with zero boundary data
        v[1:, :] += _interior_solve(grid, coefs, potential, -F[1:, :], precond,
                                    max(KRYLOV_TOL, 1e-4 * res))
    else:
        raise SolverError(
            "nutrient Newton iteration did not converge; residual history: "
            + ", ".join(f"{r:.3e}" for r in history))

    return DiskField(values=v,
                     normal_derivative_trace=boundary_radial_derivative(grid, v))


def center_value(grid: DiskGrid, values):
    """Field value at the origin: the mean of the column interpolants there."""
    return float(eval_field_columns(grid, values, 0.0).mean())


def harmonic_residual(grid: DiskGrid, coefs: MappedCoefficients, field: DiskField):
    """Max interior residual of the mapped Laplace operator on the field."""
    res = apply_mapped_laplacian(grid, coefs, field.values)
    return float(np.max(np.abs(res[1:, :])))
