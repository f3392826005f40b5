"""Singular radial ODE solvers.

This module handles the two ODE families posed on [0, 1]:

* the semilinear boundary value problem
  ``U'' + U'/r = lam f(U), U'(0) = 0, U(1) = 1``, solved by Newton's method,
* the linear mode equations
  ``u'' + (2n+1)/r u' = R**2 f'(v0) u``, regular at r = 0, for the angular
  mode families,

together with the steady-radius equation ``dU/dr(1, R**2) = A R**2 / 2``,
whose root is sought in lam = R**2 from the exact value of
dU/dr(1, lam) / lam - A/2 at lam = 0, and the explicit power series for the
first two mode profiles of the identity model.

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
the radial problems are the Newton loop for U, the trailing
Chebyshev-coefficient check that rejects an unresolved U, and U'(1) taken by
the fold's flux quadrature.
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
# Brent on lam = R**2 stops at ROOT_RTOL relative to lam (1e-14 relative to
# R); the absolute floor only keeps the step positive at lam = 0
ROOT_RTOL = 2e-14
ROOT_XTOL = 1e-300


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
    if lam < 0:
        raise ValidationError("lam must be nonnegative")
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
    if not converged:
        raise SolverError(
            f"Newton iteration for the center problem did not converge at lam={lam}; "
            "residual history: " + ", ".join(f"{r:.3e}" for r in history))
    u = 1.0 + w
    tail = float(np.max(np.abs(fold.to_cheb[-2:] @ u)))
    if tail > 100.0 * REL_TOL:
        raise SolverError(
            f"U at lam={lam} (R = sqrt(lam) = {math.sqrt(lam):.6g}) is not "
            f"resolved by the fixed N_NODES = {N_NODES} collocation nodes "
            f"(trailing Chebyshev coefficient {tail:.1e}); choose a "
            "smaller R (or a larger A)")
    return w, fold.weights @ model.f_at(u)


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
    if R_A <= 0:
        raise ValidationError("R_A must be positive")
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


def _brentq(f, a, b, f_a, f_b, xtol, rtol, maxiter=100):
    """Root of f in [a, b] by Brent's method, given f_a = f(a) and f_b = f(b).

    Brent, *Algorithms for Minimization without Derivatives* (1973), ch. 4:
    the iterate with the smaller |f| is kept as the current one; a step
    interpolates (secant) or extrapolates (inverse quadratic) when it is
    short enough and bisects otherwise; the iteration stops once half the
    bracket is below delta = (xtol + rtol |x|) / 2. The steady radius
    depends on the order of the floating-point operations here bit for bit.
    Raises SolverError after ``maxiter`` steps.
    """
    if f_a == 0:
        return a
    if f_b == 0:
        return b
    if math.copysign(1.0, f_a) == math.copysign(1.0, f_b):
        raise SolverError(f"no sign change on [{a}, {b}]: f = {f_a}, {f_b}")
    xpre, xcur, fpre, fcur = a, b, f_a, f_b
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and \
                math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:    # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:               # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = (-fcur * (fblk * dblk - fpre * dpre)
                        / (dblk * dpre * (fblk - fpre)))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry     # good short step
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = f(xcur)
    raise SolverError(f"Brent iteration did not converge in {maxiter} steps; "
                      f"last iterate {xcur:.17g}, f = {fcur:.3e}")


def steady_radius(A, model: NutrientModel):
    """Locate the steady radius and its radial nutrient profile.

    The steady radius solves dU/dr(1, R**2) = A R**2 / 2. Divided by R**2 and
    written in lam = R**2 this is h(lam) = int_0^1 r f(U) dr - A / 2 = 0, a
    nearly linear function of lam with the exact value h(0) = (f(1) - A) / 2
    > 0 (U = 1 at lam = 0). The bracket runs from lam = 0, which costs no
    solve, to the first of R = 1, 2, 4, ..., ``R_MAX`` where h <= 0, each
    sampled by a center solve from U = 1. :func:`_brentq`, this module's
    port of Brent's method, then locates the root to ``ROOT_RTOL`` relative
    to lam (half of it relative to R) in at most 100 steps; each of its
    center solves starts Newton from the previous solution. The profile is
    that of the root's own solution.
    """
    f1 = model.f_of_one
    if not 0.0 < A < f1:
        raise ValidationError(f"A must lie in (0, f(1)) = (0, {f1}); got {A}")

    solutions = {}
    w = None

    def h(lam, warm=True):
        nonlocal w
        w, uptake = _solve_center(lam, model, w if warm else None)
        solutions[lam] = (w, uptake)
        return uptake - A / 2.0

    hi = 1.0
    samples = []
    while True:
        h_hi = h(hi * hi, warm=False)
        samples.append((hi, hi * hi * h_hi))     # (R, g(R) = R**2 h(R**2))
        if h_hi <= 0.0 or hi >= R_MAX:
            break
        hi = min(2.0 * hi, R_MAX)
    if h_hi > 0.0:
        # the root lies above R_MAX, and only an A above A + 2 h(R_MAX**2)
        # brings it in; an exact zero at hi is a root, which _brentq returns
        raise BracketError(
            "no sign change when bracketing the steady radius; the steady "
            f"radius lies above R_MAX = {R_MAX:g}; the smallest reachable A is "
            f"{A + 2.0 * h_hi:.6g}, got {A:.6g}; sampled "
            + ", ".join(f"g({r:.4g})={v:.4g}" for r, v in samples),
            samples=samples)

    lam_A = _brentq(h, 0.0, hi * hi, (f1 - A) / 2.0, h_hi,
                    xtol=ROOT_XTOL, rtol=ROOT_RTOL)
    R_A = math.sqrt(lam_A)
    v0 = _center_profile(lam_A, *solutions[lam_A])
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
