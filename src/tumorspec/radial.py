"""Singular radial ODE solvers.

This module handles the two ODE families posed on [0, 1]:

* the semilinear boundary value problem
  ``U'' + U'/r = lam f(U), U'(0) = 0, U(1) = 1``, solved by Newton's method,
* the linear mode equations
  ``u'' + (2n+1)/r u' = R**2 f'(v0) u``, regular at r = 0, for the angular
  mode families,

together with the steady-radius equation ``dU/dr(1, R**2) = A R**2 / 2``,
whose root in lam = R**2 is bracketed from the exact value of
dU/dr(1, lam) / lam - A/2 at lam = 0 and then found with U by one Newton
iteration on the collocation system bordered by that equation, and the
explicit power series for the first two mode profiles of the identity model.

Both families are singular at r = 0 and have even solutions. They are
discretised by Chebyshev collocation on the :class:`tumorspec.disk.RadialFold`
of (N + 1)/2 nodes, N = ``N_NODES``, the fold the field grid uses too
(Trefethen, *Spectral Methods in MATLAB*, ch. 11): the odd degree N places
the N + 1 Chebyshev points of [-1, 1] symmetrically about the origin but
never on it, and the even fold of the differentiation matrices acts on the
positive ones. Every row is multiplied by r**2, so no 1/r is ever formed,
and the fold's operator matrices carry the boundary condition in row 0.
Profiles are returned on the N Chebyshev-Lobatto points of [0, 1], which
hold the even interpolant (of degree at most N - 1) exactly. Particular to
the radial problems are the Newton loops for U and for (U, lam), the
trailing Chebyshev-coefficient check that rejects an unresolved U, and U'(1)
taken by the fold's flux quadrature.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .disk import (barycentric_matrix, barycentric_weights, chebyshev_nodes,
                   radial_fold)
from .errors import BracketError, SolverError, ValidationError
from .models import NutrientModel

ABS_TOL = 1e-14           # Newton on U stops once its update is at most
REL_TOL = 1e-12           # REL_TOL * max|U| + ABS_TOL
MAX_NEWTON_ITERS = 60
N_NODES = 65              # odd collocation degree of the folded grid (>= 5)
# largest radius the steady-radius bracket reaches: it must stay where
# N_NODES resolves U at lam = R**2 (for the identity model, 65 nodes resolve
# it at R = 64 and not at R = 96)
R_MAX = 16.0
# the Newton root on lam = R**2 stops at ROOT_RTOL relative to lam (1e-14
# relative to R), above the roundoff floor of its step at small lam
ROOT_RTOL = 2e-14


@dataclass(frozen=True)
class RadialProfile:
    """A radially symmetric field sampled on a Chebyshev grid of [0, 1].

    ``fold_values`` holds the collocation solution on the folded nodes when
    the profile comes from :func:`solve_U`; the mode solves read ``v0`` there
    and reject a profile without it.
    """

    grid: np.ndarray
    values: np.ndarray
    deriv_values: np.ndarray
    fold_values: np.ndarray = field(default=None, repr=False, compare=False)
    _weights: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_weights", barycentric_weights(len(self.grid)))

    def at(self, r):
        """Barycentric evaluation at scalar or array radii."""
        r_arr = np.asarray(r, dtype=float)
        out = barycentric_matrix(self.grid, self._weights, r_arr.ravel()) @ self.values
        return out.reshape(r_arr.shape) if np.ndim(r) else out[0].item()


def _solve_center(lam, model, start=None):
    """Newton's method for the center problem at lam, from W = U - 1 = start
    (zero if None) on the folded nodes.

    Returns W and the uptake int_0^1 r f(U) dr, taken by the fold's flux
    quadrature, so that U'(1) = lam * uptake. For a model with f'' = 0 the
    first Newton step solves the collocation system, so no second solve
    confirms it. Raises SolverError when Newton takes more than
    ``MAX_NEWTON_ITERS`` steps, when an iterate is not finite, and when the
    trailing Chebyshev coefficients of U show that ``N_NODES`` does not
    resolve it.
    """
    if not 0 <= lam < math.inf:
        raise ValidationError("lam must be nonnegative and finite")
    fold = radial_fold((N_NODES + 1) // 2)
    op = fold.operator(1)
    diagonal = np.arange(len(fold.r))
    scale = lam * fold.r**2
    scale[0] = 0.0
    w = np.zeros_like(fold.r) if start is None else start
    history = []
    converged = False
    # at a huge lam the iterate overflows; the finiteness test turns that
    # into the SolverError below, so numpy need not warn first
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(MAX_NEWTON_ITERS):
            F = op @ w - scale * model.f_at(1.0 + w)
            history.append(float(np.max(np.abs(F))))
            jacobian = op.copy()
            jacobian[diagonal, diagonal] -= scale * model.fprime_at(1.0 + w)
            try:
                step = np.linalg.solve(jacobian, -F)
            except np.linalg.LinAlgError as exc:
                raise SolverError(f"singular Newton matrix for U at lam={lam}") from exc
            w = w + step
            if not np.all(np.isfinite(w)):
                break
            # a step of a model with f'' = 0 is exact
            if model.is_linear or \
                    np.max(np.abs(step)) <= REL_TOL * np.max(np.abs(1.0 + w)) + ABS_TOL:
                converged = True
                break
    return w, _checked_uptake(lam, w, converged, history, model)


def _checked_uptake(lam, w, converged, history, model):
    """The uptake int_0^1 r f(U) dr of a center solution W = U - 1 at lam, by
    the fold's flux quadrature, once the checks named in
    :func:`_solve_center` pass."""
    if not converged:
        raise SolverError(
            f"Newton iteration for the center problem did not converge at lam={lam}; "
            "residual history: " + ", ".join(f"{r:.3e}" for r in history))
    fold = radial_fold((N_NODES + 1) // 2)
    u = 1.0 + w
    tail = float(np.max(np.abs(fold.to_cheb[-2:] @ u)))
    if tail > 100.0 * REL_TOL:
        raise SolverError(
            f"U at lam={lam} (R = sqrt(lam) = {math.sqrt(lam):.6g}) is not "
            f"resolved by the fixed N_NODES = {N_NODES} collocation nodes "
            f"(trailing Chebyshev coefficient {tail:.1e}); choose a "
            "smaller R (or a larger A)")
    return fold.weights @ model.f_at(u)


def _center_profile(lam, w, uptake):
    """The RadialProfile of the center solution W = U - 1 at lam."""
    fold = radial_fold((N_NODES + 1) // 2)
    u = 1.0 + w
    du = fold.D[0] @ u
    du[0] = lam * uptake
    return RadialProfile(grid=chebyshev_nodes(N_NODES), values=fold.to_unit[0] @ u,
                         deriv_values=fold.to_unit[1] @ du, fold_values=u)


def solve_U(lam, model: NutrientModel):
    """Solve the parameter-dependent center problem by collocation and Newton.

    Newton iterates on W = U - 1 from W = 0 and stops once its update falls
    below ``REL_TOL * max|U| + ABS_TOL``, or after one step for a model with
    f'' = 0, whose step is exact. A SolverError is raised when that
    takes more than ``MAX_NEWTON_ITERS`` steps (it carries the residual
    history), and when the trailing Chebyshev coefficients of U show that
    ``N_NODES`` does not resolve it. The boundary flux
    U'(1) = lam * int_0^1 r f(U) dr is taken by quadrature, which is better
    conditioned than differentiating U at r = 1.
    """
    return _center_profile(lam, *_solve_center(lam, model))


def _solve_mode(n, R_A, v0, model):
    """Solve w = u - 1 for the mode-n equation with u(1) = 1 on the folded nodes.

    In this deviation form, w'' + (2n+1)/r w' - R**2 f'(v0) w = R**2 f'(v0)
    with w(1) = 0, the boundary ratio u'(1)/u(1) = w'(1) keeps its relative
    accuracy when it is small (small R or large n). Returns the fold and w;
    for an array of modes n, w stacks one solution per mode, all from one
    stacked solve.
    """
    if np.any(np.asarray(n) < 0):
        raise ValidationError("n must be nonnegative")
    if not 0 < R_A < math.inf:
        raise ValidationError("R_A must be positive and finite")
    if v0.fold_values is None:
        raise ValidationError("v0 must be a profile returned by solve_U")
    fold = radial_fold((N_NODES + 1) // 2)
    op = fold.operator(2 * np.asarray(n) + 1)
    q = R_A * R_A * fold.r**2 * model.fprime_at(v0.fold_values)
    q[0] = 0.0
    diagonal = np.arange(len(q))
    op[..., diagonal, diagonal] -= q
    return fold, np.linalg.solve(op, q)


def solve_u_n(n, R_A, v0: RadialProfile, model: NutrientModel):
    """Solve the mode-n linear equation, normalised to u(0) = 1."""
    fold, w = _solve_mode(n, R_A, v0, model)
    even, odd = fold.to_unit
    values = even @ (1.0 + w)
    c = values[0]
    return RadialProfile(grid=chebyshev_nodes(N_NODES),
                         values=values / c, deriv_values=odd @ (fold.D[0] @ w) / c)


def boundary_ratio(n, R_A, v0, model):
    """Return u_n'(1) / u_n(1): a float for an int n, an array for an array
    of modes (one stacked solve)."""
    fold, w = _solve_mode(n, R_A, v0, model)
    ratio = w @ fold.D[0][0]
    return ratio if np.ndim(n) else float(ratio)


@dataclass(frozen=True)
class SteadyState:
    R_A: float
    alpha_A: float
    v0: RadialProfile
    A: float


def _bordered_root(A, model, lo, hi):
    """Newton's method for lam and W = U - 1 together: the collocation system
    of :func:`_solve_center` bordered by h = 0 (Keller, *Numerical solution
    of bifurcation and nonlinear eigenvalue problems*, 1977).

    ``lo`` and ``hi`` are (lam, h, W) at the ends of a bracket with
    h(lo) > 0 > h(hi), and Newton starts from its secant point with W
    interpolated. A step whose lam leaves the bracket or does not halve the
    last lam update is replaced by a bisection: a center solve at the
    midpoint, which shrinks the bracket by the sign of h. Newton stops once
    its W update passes :func:`_solve_center`'s test and its estimate of the
    error in lam is at most ``ROOT_RTOL * lam`` plus the lam error of
    rounding h by 4 eps A. Returns lam, W and the checked uptake.
    """
    (lam_lo, h_lo, w_lo), (lam_hi, h_hi, w_hi) = lo, hi
    fold = radial_fold((N_NODES + 1) // 2)
    op = fold.operator(1)
    n = len(fold.r)
    s = np.append(0.0, fold.r[1:] ** 2)
    system = np.zeros((n + 1, n + 1))
    t = h_lo / (h_lo - h_hi)
    lam, w = lam_lo + t * (lam_hi - lam_lo), w_lo + t * (w_hi - w_lo)
    lam_floor = 4.0 * np.finfo(float).eps * A * (lam_hi - lam_lo) / (h_lo - h_hi)
    history, last, converged = [], math.inf, False
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(MAX_NEWTON_ITERS):
            f, fprime = model.f_at(1.0 + w), model.fprime_at(1.0 + w)
            residual = np.append(op @ w - lam * s * f, fold.weights @ f - A / 2.0)
            history.append(float(np.max(np.abs(residual))))
            system[:n, :n] = op - np.diag(lam * s * fprime)
            system[:n, n], system[n, :n] = -s * f, fold.weights * fprime
            try:
                step = np.linalg.solve(system, -residual)
            except np.linalg.LinAlgError as exc:
                raise SolverError(f"singular Newton matrix for U at lam={lam}") from exc
            if not np.all(np.isfinite(step)):
                break
            theta = abs(step[n]) / last
            if lam_lo <= lam + step[n] <= lam_hi and theta <= 0.5:
                w, lam, last = w + step[:n], lam + step[n], abs(step[n])
                # lam is within last * theta / (1 - theta) of the root after
                # a step that contracts by theta (Deuflhard, *Newton Methods
                # for Nonlinear Problems*, 2004); a first step is its own estimate
                error = last * theta / (1.0 - theta) if theta else last
                if np.max(np.abs(step[:n])) <= REL_TOL * np.max(np.abs(1.0 + w)) + ABS_TOL \
                        and error <= ROOT_RTOL * lam + lam_floor:
                    converged = True
                    break
            else:
                lam, last = (lam_lo + lam_hi) / 2.0, math.inf
                w, uptake = _solve_center(lam, model, w)
                lam_lo, lam_hi = (lam, lam_hi) if uptake > A / 2.0 else (lam_lo, lam)
    return lam, w, _checked_uptake(lam, w, converged, history, model)


def steady_radius(A, model: NutrientModel):
    """Locate the steady radius and its radial nutrient profile.

    The steady radius solves dU/dr(1, R**2) = A R**2 / 2. Divided by R**2 and
    written in lam = R**2 this is h(lam) = int_0^1 r f(U) dr - A / 2 = 0, a
    nearly linear function of lam with the exact value h(0) = (f(1) - A) / 2
    > 0 (U = 1 at lam = 0). The bracket runs from lam = 0, which costs no
    solve, to the first of R = 1, 2, 4, ..., ``R_MAX`` where h <= 0, each
    sampled by a center solve from U = 1. :func:`_bordered_root` then solves
    for lam and U together between the last two samples, to ``ROOT_RTOL``
    relative to lam (half of it relative to R). The profile is that of the
    root's own solution.
    """
    f1 = model.f_of_one
    if not 0.0 < A < f1:
        raise ValidationError(f"A must lie in (0, f(1)) = (0, {f1}); got {A}")

    lo = (0.0, (f1 - A) / 2.0, np.zeros((N_NODES + 1) // 2))
    R, samples = 1.0, []
    while True:
        w, uptake = _solve_center(R * R, model)
        h = uptake - A / 2.0
        samples.append((R, R * R * h))      # (R, g(R) = R**2 h(R**2))
        if h <= 0.0 or R >= R_MAX:
            break
        lo, R = (R * R, h, w), min(2.0 * R, R_MAX)
    if h > 0.0:
        # the root lies above R_MAX, and only an A above A + 2 h(R_MAX**2)
        # brings it in
        raise BracketError(
            "no sign change when bracketing the steady radius; the steady "
            f"radius lies above R_MAX = {R_MAX:g}; the smallest reachable A is "
            f"{A + 2.0 * h:.6g}, got {A:.6g}; sampled "
            + ", ".join(f"g({r:.4g})={v:.4g}" for r, v in samples),
            samples=samples)

    # an exact zero at the bracket's end is the root
    lam_A, w, uptake = (R * R, w, uptake) if h == 0.0 else \
        _bordered_root(A, model, lo, (R * R, h, w))
    R_A = math.sqrt(lam_A)
    v0 = _center_profile(lam_A, w, uptake)
    alpha_A = R_A * R_A * (f1 - A / 2.0)
    return SteadyState(R_A=float(R_A), alpha_A=float(alpha_A), v0=v0, A=float(A))


def appendix_series(which, x, terms):
    """Partial sums of the explicit power series for the first two mode profiles."""
    if terms < 1:
        raise ValidationError("terms must be >= 1")
    if which not in ("u0", "u1"):
        raise ValidationError("which must be 'u0' or 'u1'")
    total = 1.0
    coeff = 1.0
    for k in range(1, terms):
        if which == "u0":
            coeff /= (2.0 * k) ** 2
        else:
            coeff /= 2.0 * k * (2.0 * k + 2.0)
        total += coeff * x ** (2 * k)
    return total
