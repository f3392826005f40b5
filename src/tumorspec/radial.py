"""Singular radial ODE solvers.

This module handles the two ODE families posed on [0, 1]:

* the semilinear boundary value problem
  ``U'' + U'/r = lam f(U), U'(0) = 0, U(1) = 1``, solved by Newton's method,
* the linear mode equations
  ``u'' + (2n+1)/r u' = R**2 f'(v0) u``, regular at r = 0, for the angular
  mode families,

together with the steady-radius equation ``dU/dr(1, R**2) = A R**2 / 2`` and
the explicit power series for the first two mode profiles of the identity
model.

Both families are singular at r = 0 and have even solutions. They are
discretised by Chebyshev collocation on the folded grid of
:mod:`tumorspec.disk` (Trefethen, *Spectral Methods in MATLAB*, ch. 11): an
odd degree N = ``N_NODES`` places the N + 1 Chebyshev points of [-1, 1]
symmetrically about the origin but never on it, and the even fold of the
differentiation matrices acts on the (N + 1)/2 positive nodes. Every row is
multiplied by r**2, so no 1/r is ever formed. Profiles are returned on the
N Chebyshev-Lobatto points of [0, 1], which hold the even interpolant (of
degree at most N - 1) exactly.

The Chebyshev points, barycentric weights and interpolation, differentiation
matrices and the fold all come from :mod:`tumorspec.disk`. What is particular
to the radial problems lives here: the Newton loop for U, the trailing
Chebyshev-coefficient check that rejects an unresolved U, and the flux
quadrature for U'(1).
"""

import functools
from dataclasses import dataclass, field

import numpy as np

from .disk import (barycentric_matrix, barycentric_weights, chebyshev_matrix,
                   chebyshev_nodes, differentiation_matrix, fold_columns)
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


@dataclass(frozen=True)
class _FoldedGrid:
    r: np.ndarray        # positive collocation nodes, descending from r = 1
    d1: np.ndarray       # even-folded first derivative
    d2: np.ndarray       # even-folded second derivative
    to_cheb: np.ndarray  # even samples on r -> coefficients of T_0, T_2, ...
    weights: np.ndarray  # quadrature of int_0^1 r g(r) dr for even g
    even: np.ndarray     # even samples on r -> values on the [0, 1] grid
    odd: np.ndarray      # odd samples on r -> values on the [0, 1] grid

    def operator(self, m):
        """r**2 (d2/dr2 + (m/r) d/dr) with row 0 replaced by the value at r = 1."""
        op = self.r[:, None] ** 2 * self.d2 + (m * self.r)[:, None] * self.d1
        op[0] = 0.0
        op[0, 0] = 1.0
        return op


@functools.lru_cache(maxsize=4)
def _folded_grid(n_nodes):
    D, x = chebyshev_matrix(n_nodes)
    n = (n_nodes + 1) // 2
    p = np.arange(n)
    to_cheb = np.linalg.inv(np.cos(np.outer(p, 2 * p) * np.pi / n_nodes))
    # with s = 2r**2 - 1, int_0^1 r T_2p(r) dr = int_{-1}^1 T_p(s) ds / 4,
    # which is 1/(2(1 - p**2)) for even p and 0 for odd p
    moments = np.zeros(n)
    moments[::2] = 0.5 / (1.0 - p[::2] ** 2.0)
    to_grid = barycentric_matrix(x, barycentric_weights(n_nodes + 1),
                                 chebyshev_nodes(n_nodes))
    even, odd = fold_columns(to_grid)
    folded = _FoldedGrid(r=x[:n],
                         d1=fold_columns(D[:n])[0],
                         d2=fold_columns((D @ D)[:n])[0],
                         to_cheb=to_cheb,
                         weights=moments @ to_cheb,
                         even=even,
                         odd=odd)
    for array in vars(folded).values():
        array.flags.writeable = False  # shared by every caller of the cache
    return folded


@dataclass(frozen=True)
class RadialProfile:
    """A radially symmetric field sampled on a Chebyshev grid of [0, 1].

    ``fold_values`` holds the collocation solution on the folded nodes when
    the profile comes from :func:`solve_U`; the mode solves read ``v0`` there.
    """

    grid: np.ndarray
    values: np.ndarray
    deriv_at_1: float
    deriv_values: np.ndarray = None
    fold_values: np.ndarray = field(default=None, repr=False, compare=False)
    _weights: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_weights", barycentric_weights(len(self.grid)))

    def at(self, r):
        """Barycentric evaluation at scalar or array radii."""
        r_arr = np.asarray(r, dtype=float)
        out = barycentric_matrix(self.grid, self._weights, r_arr.ravel()) @ self.values
        return out.reshape(r_arr.shape) if np.ndim(r) else out[0].item()

    @property
    def value_at_1(self):
        return float(self.values[-1])

    @property
    def value_at_0(self):
        return float(self.values[0])


def solve_U(lam, model: NutrientModel):
    """Solve the parameter-dependent center problem by collocation and Newton.

    Newton iterates on W = U - 1 from W = 0 and stops once its update falls
    below ``REL_TOL * max|U| + ABS_TOL``. A SolverError is raised when that
    takes more than ``MAX_NEWTON_ITERS`` steps (it carries the residual
    history), and when the trailing Chebyshev coefficients of U show that
    ``N_NODES`` does not resolve it. The boundary flux
    U'(1) = lam * int_0^1 r f(U) dr is taken by quadrature, which is better
    conditioned than differentiating U at r = 1.
    """
    if lam < 0:
        raise ValidationError("lam must be nonnegative")
    fold = _folded_grid(N_NODES)
    grid = chebyshev_nodes(N_NODES)

    if lam == 0.0:
        return RadialProfile(grid=grid, values=np.ones_like(grid),
                             deriv_at_1=0.0, deriv_values=np.zeros_like(grid),
                             fold_values=np.ones_like(fold.r))

    op = fold.operator(1)
    scale = lam * fold.r**2
    scale[0] = 0.0
    w = np.zeros_like(fold.r)
    history = []
    for _ in range(MAX_NEWTON_ITERS):
        F = op @ w - scale * model.f_at(1.0 + w)
        history.append(float(np.max(np.abs(F))))
        try:
            step = np.linalg.solve(op - np.diag(scale * model.fprime_at(1.0 + w)), -F)
        except np.linalg.LinAlgError as exc:
            raise SolverError(f"singular Newton matrix for U at lam={lam}") from exc
        w = w + step
        if not np.all(np.isfinite(w)):
            break
        if np.max(np.abs(step)) <= REL_TOL * np.max(np.abs(1.0 + w)) + ABS_TOL:
            u = 1.0 + w
            tail = float(np.max(np.abs(fold.to_cheb[-2:] @ u)))
            if tail > 100.0 * REL_TOL:
                raise SolverError(
                    f"U at lam={lam} is not resolved by {N_NODES} nodes "
                    f"(trailing Chebyshev coefficient {tail:.1e}); increase n_nodes")
            du = fold.d1 @ u
            du[0] = lam * (fold.weights @ model.f_at(u))
            return RadialProfile(grid=grid, values=fold.even @ u,
                                 deriv_at_1=float(du[0]),
                                 deriv_values=fold.odd @ du, fold_values=u)
    raise SolverError(
        f"Newton iteration for the center problem did not converge at lam={lam}; "
        "residual history: " + ", ".join(f"{r:.3e}" for r in history))


def _solve_mode(n, R_A, v0, model):
    """Solve w = u - 1 for the mode-n equation with u(1) = 1 on the folded nodes.

    In this deviation form, w'' + (2n+1)/r w' - R**2 f'(v0) w = R**2 f'(v0)
    with w(1) = 0, the boundary ratio u'(1)/u(1) = w'(1) keeps its relative
    accuracy when it is small (small R or large n). Returns w and w'.
    """
    if n < 0:
        raise ValidationError("n must be nonnegative")
    if R_A <= 0:
        raise ValidationError("R_A must be positive")
    fold = _folded_grid(N_NODES)
    v = v0.fold_values
    if v is None or len(v) != len(fold.r):
        v = v0.at(fold.r)
    q = R_A * R_A * fold.r**2 * model.fprime_at(v)
    q[0] = 0.0
    w = np.linalg.solve(fold.operator(2 * n + 1) - np.diag(q), q)
    return w, fold.d1 @ w


def solve_u_n(n, R_A, v0: RadialProfile, model: NutrientModel):
    """Solve the mode-n linear equation, normalised to u(0) = 1."""
    w, dw = _solve_mode(n, R_A, v0, model)
    fold = _folded_grid(N_NODES)
    values = fold.even @ (1.0 + w)
    c = values[0]
    return RadialProfile(grid=chebyshev_nodes(N_NODES),
                         values=values / c, deriv_at_1=float(dw[0] / c),
                         deriv_values=fold.odd @ dw / c)


def boundary_ratio(n, R_A, v0, model):
    """Return u_n'(1) / u_n(1)."""
    return float(_solve_mode(n, R_A, v0, model)[1][0])


@dataclass(frozen=True)
class SteadyState:
    R_A: float
    alpha_A: float
    v0: RadialProfile
    A: float


def steady_radius(A, model: NutrientModel):
    """Locate the steady radius and its radial nutrient profile.

    The steady radius solves dU/dr(1, R**2) = A R**2 / 2; the left side is
    computed by collocation and Newton (:func:`solve_U`), the root located by
    bracketing up to ``R_MAX`` and Brent iteration.
    """
    f1 = model.f_of_one
    if not 0.0 < A < f1:
        raise ValidationError(f"A must lie in (0, f(1)) = (0, {f1}); got {A}")

    def g(R):
        return solve_U(R * R, model).deriv_at_1 - A * R * R / 2.0

    lo = 1e-3
    g_lo = g(lo)
    hi = 1.0
    g_hi = g(hi)
    samples = [(lo, g_lo), (hi, g_hi)]
    while g_hi > 0.0 and hi < R_MAX:
        hi = min(2.0 * hi, R_MAX)
        g_hi = g(hi)
        samples.append((hi, g_hi))
    if g_lo <= 0.0 or g_hi >= 0.0:
        raise BracketError(
            "no sign change when bracketing the steady radius; sampled "
            + ", ".join(f"g({r:.4g})={v:.4g}" for r, v in samples),
            samples=samples)

    from scipy.optimize import brentq
    R_A = brentq(g, lo, hi, xtol=1e-14, rtol=8.9e-16)

    v0 = solve_U(R_A * R_A, model)
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


def ode_residual_on_midpoints(profile: RadialProfile, m, lam, rhs):
    """Max residual of u'' + (m/r) u' = rhs(r, u) on the interpolated midpoint grid.

    Differentiates the stored derivative samples on the profile's own [0, 1]
    grid, so the check does not reuse the folded operator that produced the
    profile.
    """
    nodes, w = profile.grid, barycentric_weights(len(profile.grid))
    d = differentiation_matrix(nodes, w)
    mids = 0.5 * (nodes[1:] + nodes[:-1])
    mids = mids[mids > 1e-3]  # avoid the 1/r amplification near the center
    interp = barycentric_matrix(nodes, w, mids)
    upp = interp @ (d @ profile.deriv_values)
    up = interp @ profile.deriv_values
    u = interp @ profile.values
    res = upp + m * up / mids - rhs(mids, u)
    return float(np.max(np.abs(res)))
