"""Nutrient and pressure solves on the perturbed domain.

Both Dirichlet problems are posed on the physical domain bounded by
r = R (1 + rho(theta)) and pulled back to the unit disk with the blended
radial map s = R phi(r, theta). One :class:`tumorspec.disk.MappedCoefficients`
holds that map for a shape: the operator coefficients, and the boundary
quantities (h = 1 + rho, the curvature) that the pressure data read. The
caller builds it once per shape on a :class:`tumorspec.disk.DiskGrid`, the
only resolution setting, which the map keeps, and passes the map alone to
both solves. Each solve returns its field's physical outward normal
derivative on the boundary nodes, the one quantity the boundary velocity
reads: the nutrient's as the ``flux`` of a :class:`DiskField`, which also
holds the samples that start the next solve, the pressure's as the bare
array.

The pressure is harmonic, and the boundary velocity reads only its normal
derivative, so it is solved on the n_theta boundary nodes alone
(:func:`_harmonic_field`): a single-layer potential plus a constant, with
Kress's quadrature of the log kernel, is one LU of a dense (n_theta + 1)**2
system per shape, and the normal derivative is the adjoint double layer of its
density. Nothing in the package reads the pressure inside the domain;
the tests evaluate it on the grid from the Dirichlet data and this flux by
the compensated Cauchy formula (``harmonic_values`` in ``tests/oracles.py``).
The circulant log weights depend only on n_theta: :func:`_log_weights`
keeps the last two.

The nutrient lives in the mode layout of
:meth:`tumorspec.disk.DiskGrid.to_modes` (even modes first, then odd). The
first residual and every Krylov matvec is one call of
:func:`tumorspec.disk.mapped_laplacian_kernel`, which reads all n_r rows of a
spectrum and returns the n_r - 1 interior rows, and each Newton step solves
for the correction, with zero boundary data, of the residual of the semilinear
equation. The collocation systems are solved by :func:`gmres`, restarted GMRES
with right preconditioning (Saad & Schultz, *SIAM J. Sci. Stat. Comput.* 7,
1986): its residual estimates are those of the unpreconditioned system, so it
stops on the residual that the tolerance bounds. Its residuals and Arnoldi
basis are the interior samples the kernel writes, so the relative tolerance is
one on the physical residual, and its unknowns the interior spectra the
preconditioner returns. An iteration costs one rfft of the preconditioner's
argument, and one GEMM per parity and one irfft in the kernel:
:class:`tumorspec.disk.ModePreconditioner` inverts every angular mode's radial
operator by one eigendecomposition per parity (fast diagonalisation), without
a transform. The preconditioner is the exact inverse at the radial equilibrium
of radius R, which depends only on the grid size, R and the model:
:func:`_equilibrium` builds it with that equilibrium and keeps the last one,
so every nutrient solve of an evolution, which keeps R and moves the boundary
only near the equilibrium, shares one. It serves every Newton step of a solve
(for the identity model f' is constant, so it is the one every step would
build). The cache is keyed on (n_r, n_theta, R, model), so it keeps no
caller's grid alive and equal grids share its entry.

The nutrient Newton loop evaluates the residual F = L v - scale f(v) once,
at the start. After a correction delta, GMRES leaves the linear residual
r = -F - J delta, which it computed from its last product, and the new
residual is F = -r - scale (f(v + delta) - f(v) - f'(v) delta), the
inexact-Newton bookkeeping of Eisenstat & Walker (*SIAM J. Sci. Comput.*
17, 1996); v's spectrum, which the flux reads, is updated by delta's. The
loop stops once max|F| is at most ``NEWTON_TOL``. A residual derived so
carries the roundoff of the corrections, not that of applying the operator
to v, which grows with n_r and with the map (eps |r**2 D2 + r D|_inf alone
is 1.9e-8 at n_r = 64) and would keep a residual evaluated afresh above
``NEWTON_TOL``. Each Krylov solve targets |r|_2 <= ``NEWTON_TOL`` / 2, which
bounds max|r|; for a model with f'' != 0 it stops already at 1e-4 max|F|
relative to |F|_2, since the nonlinear remainder calls for another step
anyway. A Newton step of a model with f'' = 0 is exact, so its one Krylov
solve ends the loop. GMRES raises SolverError when its true relative
residual ends above 1e-8, and ``MAX_NEWTON_ITERS`` bounds the loop.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .disk import (DiskGrid, MappedCoefficients, ModePreconditioner,
                   boundary_radial_derivative, dealias, mapped_laplacian_kernel)
from .errors import SolverError
from .models import NutrientModel
from .radial import solve_U

NEWTON_TOL = 1e-10        # max interior residual that ends the nutrient Newton loop
MAX_NEWTON_ITERS = 30


@dataclass(frozen=True)
class DiskField:
    values: np.ndarray   # row 0 = boundary, radii descending
    flux: np.ndarray     # physical outward normal derivative on the boundary


def gmres(matvec, psolve, b, rtol, restart, maxiter):
    """Restarted GMRES with right preconditioning, from x = 0.

    Solves A x = b (Saad & Schultz 1986), where ``psolve`` applies the
    preconditioner M, an approximate inverse of A, to a flat array of b's size
    and ``matvec`` applies A to one of M's range, whose size may differ. Each
    cycle builds an Arnoldi basis V of A M from the residual r by classical
    Gram-Schmidt with one reorthogonalisation (two products with the basis per
    iteration, orthogonal to working precision; Giraud, Langou & Rozloznik,
    *Comput. Math. Appl.* 50, 2005) and reduces its Hessenberg matrix by
    Givens rotations, so the residual estimate after each inner iteration is
    |b - A x| of the iterate it stands for, up to roundoff. A cycle ends once
    that estimate falls to rtol |b|, at breakdown, or after ``restart`` inner
    iterations; it then updates x by M (V y), one preconditioner application,
    and computes the true residual. Only a cycle that ran all ``restart``
    iterations is followed by another, from that residual.

    Returns (x, history, r): history lists, per cycle run, the residual
    estimate after each of its inner iterations; r is the true residual
    b - A x of the returned x, computed at the end of the last cycle (b
    itself when b = 0, where x = M b = 0). The caller judges convergence
    from r.
    """
    n = len(b)
    history = []
    r = b
    rnorm = float(np.linalg.norm(b))
    if rnorm == 0.0:
        return psolve(b), history, b
    x = 0.0   # an array of psolve's range after the first cycle
    atol = rtol * rnorm
    eps = np.finfo(float).eps
    restart = min(restart, n)
    v = np.empty((restart + 1, n))
    h = np.zeros((restart, restart))   # row j: column j of the triangular factor
    for _ in range(maxiter):
        np.multiply(r, 1 / rnorm, out=v[0])
        g = [rnorm]   # right side of the rotated least-squares problem
        rotations = []
        estimates = []
        history.append(estimates)
        for j in range(restart):
            w = matvec(psolve(v[j]))
            h0 = np.linalg.norm(w)
            basis = v[:j + 1]
            coords = basis @ w
            w -= coords @ basis
            again = basis @ w   # the one reorthogonalisation
            w -= again @ basis
            column = (coords + again).tolist()
            h1 = float(np.linalg.norm(w))
            breakdown = h1 <= eps * h0   # A M z = r solved exactly in this basis
            if breakdown:
                h1 = 0.0
            else:
                np.multiply(w, 1 / h1, out=v[j + 1])
            column.append(h1)
            for k, (c, s) in enumerate(rotations):
                column[k:k + 2] = (c * column[k] + s * column[k + 1],
                                   c * column[k + 1] - s * column[k])
            d = math.hypot(column[j], h1)
            c, s = column[j] / d, h1 / d
            rotations.append((c, s))
            column[j] = d
            h[j, :j + 1] = column[:j + 1]
            g[j:] = [c * g[j], -s * g[j]]
            estimates.append(abs(g[j + 1]))
            if estimates[-1] <= atol or breakdown:
                break
        m = len(estimates)
        y = np.linalg.solve(h[:m, :m].T, g[:m])
        x = x + psolve(y @ v[:m])
        r = b - matvec(x)
        rnorm = float(np.linalg.norm(r))
        if rnorm <= atol or m < restart:
            break
    return x, history, r


def _interior_solve(coefs, potential, rhs, precond, tol):
    """The theta-spectrum (mode layout, all n_r rows) of the correction with
    zero boundary data, and the samples of its linear residual on the
    interior rows, from GMRES's last product.

    Solves (mapped Laplacian - potential) W = rhs on the interior rows, with
    W = 0 on the boundary row; potential, like rhs, holds the samples of the
    n_r - 1 interior rows. GMRES iterates on those samples; its unknowns are
    the interior rows of W's spectrum, which the preconditioner returns and
    each matvec writes below the zero boundary row of the buffer the kernel
    reads.
    """
    W = np.zeros((coefs.grid.n_r, 2 * len(coefs.grid.modes)))
    interior = W[1:]   # the boundary row of W stays zero

    def matvec(x):
        np.copyto(interior, x.reshape(interior.shape))
        return mapped_laplacian_kernel(coefs, W, potential).ravel()

    def psolve(x):
        return precond.solve_interior(coefs.grid.to_modes(x.reshape(rhs.shape))).ravel()

    b = rhs.ravel()
    x, history, r = gmres(matvec, psolve, b, rtol=tol, restart=60, maxiter=10)
    rnorm, bnorm = np.linalg.norm(r), np.linalg.norm(b)
    # once the residual reaches the roundoff floor of the differentiation
    # matrices, the residual estimates fall below the tolerance but the true
    # residual does not; accept the iterate there
    if rnorm > tol * bnorm and rnorm / bnorm > 1e-8:
        last = [e for estimates in history for e in estimates][-4:]
        raise SolverError(
            f"GMRES did not converge after {len(history)} cycles "
            f"({sum(map(len, history))} iterations); relative residual "
            f"{rnorm / bnorm:.3e} on {b.size} equations; last residual "
            "estimates " + ", ".join(f"{e:.3e}" for e in last))
    np.copyto(interior, x.reshape(interior.shape))
    return W, r.reshape(rhs.shape)


def solve_pressure(coefs: MappedCoefficients, A, G):
    """Physical outward normal derivative on the n_theta boundary nodes of
    ``coefs`` of the harmonic pressure with curvature + mitosis boundary
    data, solved from the dealiased data (:func:`_harmonic_field`)."""
    return _harmonic_field(coefs, dealias(
        coefs.curvature - 0.25 * A * G * coefs.R**2 * coefs.h**2))


@functools.lru_cache(maxsize=2)
def _log_weights(n):
    """The read-only circulant matrix of the log singularity of the single
    layer on n nodes: -1/(4 pi) times Kress's weights of int log(4
    sin**2((t - s)/2)) g(s) ds (Kress, *Linear Integral Equations*, 3rd ed.,
    2014, section 12.3), plus log|2 sin((t_i - t_j)/2)| / n off the
    diagonal, which the smooth remainder subtracts again. Kress's weights
    are the irfft of -2 pi / k (k = 1..n/2), so the matrix is built from
    that one symmetric row (row[l] = row[n - l])."""
    row = np.fft.irfft(np.concatenate([[0.0], -2.0 * np.pi / np.arange(1, n // 2 + 1)]),
                       n=n) / (-4.0 * np.pi)
    row[1:] += np.log(2.0 * np.sin(np.pi * np.arange(1, n) / n)) / n
    i = np.arange(n)
    weights = row[np.abs(i[:, None] - i)]
    weights.flags.writeable = False
    return weights


def _harmonic_field(coefs: MappedCoefficients, data):
    """The physical outward normal derivative on the boundary nodes of
    ``coefs`` of the harmonic field whose Dirichlet data there are the
    samples ``data``.

    q = S sigma + c, with the single layer S sigma(x) = -1/(2 pi) int log|x -
    y| sigma(y) ds_y and int sigma ds = 0, is uniquely solvable on every
    curve (the constant covers the curves of logarithmic capacity 1). The
    log kernel is integrated by Kress's split trapezoid rule
    (:func:`_log_weights`) and its smooth remainder log(|y_i - y_j| / |2
    sin((t_i - t_j)/2)|), which is log|y'_i| on the diagonal, by the
    trapezoid rule, so the collocation system is one LU of a dense (n + 1)**2
    matrix. The outward normal derivative is the interior trace of the
    adjoint double layer, dq/dn = sigma/2 + K' sigma, whose smooth kernel
    -(1/2 pi) (x - y).nu_x / |x - y|**2 is -kappa/(4 pi) on the diagonal,
    with kappa the exact curvature ``coefs.curvature`` of the nodes' curve.
    """
    n = len(coefs.h)
    # the boundary nodes y = R h e^{i theta} and their y' = dy/dtheta = R (h'
    # + i h) e^{i theta} = y (beta + i)
    y = coefs.R * coefs.h * np.exp(2j * np.pi * np.arange(n) / n)
    dy = y * (coefs.beta + 1j)
    speed = np.abs(dy)
    points = np.stack([y.real, y.imag])
    diff = points[:, :, None] - points[:, None, :]   # x - y, componentwise
    dist2 = np.einsum("kij,kij->ij", diff, diff)
    np.fill_diagonal(dist2, speed * speed)
    matrix = np.zeros((n + 1, n + 1))
    block = matrix[:n, :n]
    np.log(dist2, out=block)
    block *= -0.5 / n
    block += _log_weights(n)
    block *= speed
    matrix[:n, n] = 1.0
    matrix[n, :n] = speed
    rhs = np.append(data, 0.0)
    # one LU with partial pivoting (backward stable: Higham, *Accuracy and
    # Stability of Numerical Algorithms*, 2nd ed., 2002, ch. 9); cli.main pins
    # numpy's bundled OpenBLAS to one thread, so CLI artifacts do not depend on
    # the count, but other callers may see last-digit changes from n_theta 128
    sigma = np.linalg.solve(matrix, rhs)[:n]

    # (x - y) / |x - y|**2, 0 on the diagonal, where x - y = 0, applied to
    # sigma ds and dotted with nu_x = -i y' / |y'| = (Im y', -Re y') / |y'|
    diff /= dist2
    density = sigma * speed
    kx, ky = diff @ density
    return 0.5 * sigma - ((dy.imag * kx - dy.real * ky) / speed
                          + 0.5 * coefs.curvature * density) / n


@functools.lru_cache(maxsize=1)
def _equilibrium(n_r, n_theta, R, model: NutrientModel):
    """The radial equilibrium v0 = U(R**2; r) on the grid and its preconditioner.

    Returns v0 as a read-only (n_r, 1) column and the ModePreconditioner of
    the potential R**2 r**2 f'(v0(r)), the exact radial inverse on the circle
    of radius R. One entry is kept: an evolution uses one key throughout.
    """
    grid = DiskGrid(n_r=n_r, n_theta=n_theta)
    v0 = solve_U(R * R, model).at(grid.r)
    precond = ModePreconditioner(grid, (R * grid.r) ** 2 * model.fprime_at(v0))
    v0.flags.writeable = False   # shared by every caller of the cache
    return v0[:, None], precond


def solve_nutrient(coefs: MappedCoefficients, model: NutrientModel, start=None):
    """Semilinear nutrient problem, Newton iteration on the mapped disk.

    ``coefs`` is the map of the domain and holds its grid. ``start`` is
    the initial iterate, any array that broadcasts to the grid (such as the
    field of a previous time step); None starts from the radial equilibrium
    profile of radius ``coefs.R``. The boundary row is set to 1 either way.
    Every Newton step is preconditioned with the exact radial inverse at that
    equilibrium (:func:`_equilibrium`). The residual is evaluated once, at
    the start; each later one is derived from the linear residual of the
    correction's Krylov solve and the nonlinear remainder of f, and the loop
    stops once its max is at most ``NEWTON_TOL`` (see the module docstring).
    """
    grid, scale = coefs.grid, coefs.scale[1:]
    v0, precond = _equilibrium(grid.n_r, grid.n_theta, coefs.R, model)
    v = np.broadcast_to(v0 if start is None else start,
                        (grid.n_r, grid.n_theta)).copy()
    v[0, :] = 1.0
    interior = v[1:]   # the rows the Newton corrections update
    X = grid.to_modes(v)
    sf = scale * model.f_at(interior)
    F = mapped_laplacian_kernel(coefs, X) - sf
    # a Newton step of a model with f'' = 0 is exact: its Krylov solve goes
    # straight to the target
    forcing = 0.0 if model.is_linear else 1e-4

    history = []
    for _ in range(MAX_NEWTON_ITERS):
        res = float(np.max(np.abs(F)))
        history.append(res)
        if res <= NEWTON_TOL:
            break
        potential = scale * model.fprime_at(interior)
        # one Newton correction: J delta = -F with zero boundary data, to a
        # linear residual r with |r|_2 <= NEWTON_TOL / 2, which bounds max|r|
        delta, r = _interior_solve(
            coefs, potential, -F, precond,
            max(0.5 * NEWTON_TOL / np.linalg.norm(F), forcing * res))
        X += delta
        step = grid.from_modes(delta[1:])
        interior += step
        sf_new = scale * model.f_at(interior)
        # F(v + delta) = F + J delta - scale (f(v + delta) - f(v) - f'(v) delta)
        F = -r - (sf_new - sf - potential * step)
        sf = sf_new
    else:
        raise SolverError(
            "nutrient Newton iteration did not converge; residual history: "
            + ", ".join(f"{e:.3e}" for e in history))

    # v = 1 on the boundary, so its gradient there is normal, and the flux
    # is hypot(1, beta) times the physical d/ds = v_r / (R J1)
    v_r = boundary_radial_derivative(grid, X)
    return DiskField(values=v,
                     flux=np.hypot(1.0, coefs.beta) * v_r / (coefs.R * coefs.J1))
