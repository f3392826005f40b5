"""The nonlinear boundary velocity and its time integration.

phi assembles the boundary velocity from the normal fluxes of the two
fields and the mitosis drift:

    phi(rho) = sqrt(1 + beta**2) (G dv/dn - dq/dn) / R - (A G / 2) h,
    h = 1 + rho,  beta = rho'/h,

with dv/dn and dq/dn the physical outward normal derivatives of the
nutrient and the pressure at the boundary nodes (the nutrient field's
``flux`` and the array the pressure solve returns); the factor
sqrt(1 + beta**2) / R turns the normal speed into the rate of rho. Each
evaluation builds the map of the shape once
(:class:`tumorspec.disk.MappedCoefficients`); both field solves and the
boundary factors h and beta are read from it. Every nutrient solve is
preconditioned with the exact radial inverse at the equilibrium of radius
R (:func:`tumorspec.fields._equilibrium`), so one is built per evolution
and a standalone evaluation gets the same.

Time stepping is the third-order exponential Runge-Kutta scheme ETD3RK of
Cox and Matthews (J. Comput. Phys. 176, 2002) on the linearized spectrum.
The linearization of phi about the circle is diagonal in Fourier modes with
eigenvalues mu_k (:func:`tumorspec.spectrum.build_table`), so with the
remainder N(c) = phi(c) - mu c and z = mu dt a step from u is

    a = e^{z/2} u + (dt/2) phi_1(z/2) N(u),
    b = e^{z} u + dt phi_1(z) (2 N(a) - N(u)),
    u <- e^{z} u + dt [ (phi_1 - 3 phi_2 + 4 phi_3) N(u)
                        + (4 phi_2 - 8 phi_3) N(a) + (4 phi_3 - phi_2) N(b) ],

with phi_j(z) = sum_m z**m / (m + j)! (phi_1(z) = (e^z - 1)/z), exact for
the linear flow. The second-order solution from the same stages, with the
weights phi_1 - 2 phi_2 and 2 phi_2 on N(u) and N(a), differs from it by
dt (4 phi_3 - phi_2)(N(u) - 2 N(a) + N(b)); that error estimate measures only
the nonlinear remainder and sizes the steps (Hochbruck and Ostermann, Acta
Numerica 19, 2010, survey such schemes).
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainValidityError, SolverError, ValidationError
from .fields import solve_nutrient, solve_pressure
from .disk import DiskGrid, MappedCoefficients
from .models import NutrientModel
from .shapes import ADMISSIBLE_SUP_NORM, ShapeState
from .spectrum import build_table

ERR_TARGET = 1e-6     # default bound on the embedded error estimate
DT_MIN = 1e-10        # a step size below this is a SolverError
DT_MAX = 0.25
TAYLOR_RADIUS = 1.0   # |z| below which phi_1..phi_3 are Taylor sums


@dataclass(frozen=True)
class PhiResult:
    coeffs: np.ndarray        # the velocity's coefficients, k = 0..n_theta // 3
    nutrient: object


def phi(shape: ShapeState, A, G, model: NutrientModel, grid: DiskGrid = None,
        nutrient_start=None):
    """Evaluate the boundary velocity for the given shape.

    The fields are solved on ``grid`` (the default 64x128 DiskGrid if None).
    The map of the shape is built once here and shared by both field solves;
    it refuses a shape it cannot map (inadmissible, or unresolved on grid).
    ``nutrient_start`` is the Newton start of the nutrient solve (such as the
    nutrient field of a nearby shape); None starts from the radial
    equilibrium.
    """
    coefs = MappedCoefficients.from_boundary(shape, grid or DiskGrid())
    nut = solve_nutrient(coefs, model, start=nutrient_start)
    pres = solve_pressure(coefs, A, G)
    values = np.hypot(1.0, coefs.beta) / coefs.R * (G * nut.flux - pres) \
        - 0.5 * A * G * coefs.h

    # the coefficients the stepper evolves, those below the 2/3-rule cutoff
    n = len(values)
    coeffs = np.fft.rfft(values)[:n // 3 + 1] / n
    return PhiResult(coeffs=coeffs, nutrient=nut)


@dataclass(frozen=True)
class TrajectoryPoint:
    t: float
    shape: ShapeState
    sup_norm: float


@dataclass(frozen=True)
class Trajectory:
    points: tuple
    status: str       # "completed" or "left_neighbourhood"

    @property
    def final_shape(self):
        return self.points[-1].shape


def _phi_functions(z):
    """phi_1, phi_2 and phi_3 of the real array z, without cancellation at 0.

    These are the weight functions of the scheme, not the velocity phi:
    phi_j(z) = sum_m z**m / (m + j)!. Away from 0 they follow from
    phi_1 = expm1(z)/z by phi_{j+1} = (phi_j - 1/j!)/z, which loses about
    j*log10(1/|z|) digits as z -> 0, so for |z| < TAYLOR_RADIUS phi_3 is the
    Taylor sum (17 terms reach roundoff) and the recurrence is run backwards,
    phi_j = 1/j! + z phi_{j+1}, which is stable there. Where e^z overflows
    the values are inf.
    """
    z = np.asarray(z, dtype=float)
    small = np.abs(z) < TAYLOR_RADIUS
    zs = np.where(small, z, 0.0)
    p3 = np.full_like(z, 1.0 / math.factorial(19))
    for m in range(15, -1, -1):
        p3 = p3 * zs + 1.0 / math.factorial(m + 3)
    p2 = 0.5 + zs * p3
    p1 = 1.0 + zs * p2
    zl = np.where(small, 1.0, z)
    with np.errstate(over="ignore"):
        q1 = np.expm1(zl) / zl
    q2 = (q1 - 1.0) / zl
    q3 = (q2 - 0.5) / zl
    return (np.where(small, p1, q1), np.where(small, p2, q2),
            np.where(small, p3, q3))


def _etd3rk_step(c, n_c, dt, mu, remainder):
    """One ETD3RK step (Cox and Matthews 2002) of size dt from coefficients c.

    ``n_c`` is the remainder N(c) = phi(c) - mu c, and ``remainder`` maps
    stage coefficients to theirs. Returns the third-order state and the
    max-norm of the embedded error estimate dt (4 phi_3 - phi_2)(N_c - 2 N_a
    + N_b), or (None, inf) where e^{mu dt} overflows.
    """
    z = mu * dt
    with np.errstate(over="ignore"):
        e_half, e = np.exp(0.5 * z), np.exp(z)
    if not np.isfinite(e).all():
        return None, np.inf
    p1, p2, p3 = _phi_functions(z)
    a = e_half * c + 0.5 * dt * _phi_functions(0.5 * z)[0] * n_c
    n_a = remainder(a)
    b = e * c + dt * p1 * (2.0 * n_a - n_c)
    n_b = remainder(b)
    stepped = e * c + dt * ((p1 - 3.0 * p2 + 4.0 * p3) * n_c
                            + 4.0 * (p2 - 2.0 * p3) * n_a
                            + (4.0 * p3 - p2) * n_b)
    err = dt * np.abs((4.0 * p3 - p2) * (n_c - 2.0 * n_a + n_b))
    return stepped, float(np.max(err))


def evolve_nonlinear(shape0: ShapeState, t_end, A, G, model: NutrientModel,
                     grid: DiskGrid = None, err_target=ERR_TARGET):
    """Integrate the boundary evolution up to t_end.

    The fields are solved on ``grid`` (the default 64x128 DiskGrid if None).
    Each step is ETD3RK on the spectrum mu_k of the circle of radius
    ``shape0.radius_scale`` (see the module docstring), so the linear flow
    is integrated exactly and a step is accepted when its embedded error
    estimate, which bounds only the nonlinear remainder, is at most
    ``err_target``. A step whose e^{mu dt} overflows, or one with a stage
    whose sup-norm reaches the admissibility bound 1/4, is rejected and dt
    shrinks 5x. Every step is at most min(DT_MAX, t_end / 4), so a completed
    trajectory has at least five points. The seed, padded to the grid's
    modes, must be admissible. Halts with status "left_neighbourhood" if an
    accepted state reaches the bound, or if a stage still reaches it when dt
    falls below DT_MIN. A step costs three velocity evaluations: two stages
    and the accepted state, which the next step starts from (the final state
    is not evaluated), and a rejected step at most two. The step size follows
    0.65 (err_target / err)**(1/3), within a factor 5 either way. Each
    nutrient solve starts from the field of the previous evaluation, the
    first from the radial equilibrium.
    """
    if t_end < 0:
        raise ValidationError("t_end must be nonnegative")
    grid = grid or DiskGrid()
    n_modes = grid.n_theta // 3
    unresolved = np.flatnonzero(shape0.coeffs[n_modes + 1:])
    if unresolved.size:
        k = n_modes + 1 + int(unresolved[-1])
        raise ValidationError(
            f"seed mode {k} lies above n_theta // 3 = {n_modes}, the highest "
            f"mode the grid evolves; use n_theta >= {3 * k + k % 2}")
    R = shape0.radius_scale

    def make_shape(coeffs):
        return ShapeState(coeffs=coeffs, radius_scale=R)

    c = np.zeros(n_modes + 1, dtype=complex)
    m = min(n_modes, shape0.n_modes)
    c[:m + 1] = shape0.coeffs[:m + 1]
    state = make_shape(c)
    state.require_admissible()
    mu = build_table(A, G, model, R, max(n_modes, 2)).mu[:n_modes + 1]

    warm, calls = None, 0

    def remainder(coeffs):
        nonlocal warm, calls
        result = phi(make_shape(coeffs), A, G, model, grid, warm)
        warm, calls = result.nutrient.values, calls + 1
        return result.coeffs - mu * coeffs

    t, accepted, rejected, err, n_c = 0.0, 0, 0, np.nan, None
    points = [TrajectoryPoint(t=0.0, shape=state, sup_norm=state.sup_norm())]
    status = "completed"
    dt_max = min(DT_MAX, max(0.25 * t_end, DT_MIN))
    dt, stage_left = dt_max, False

    while t < t_end - 1e-14:
        if dt < DT_MIN:
            if stage_left:
                # the state lies on the bound: every step's stage leaves
                status = "left_neighbourhood"
                break
            raise SolverError(
                f"time step underflow in nonlinear evolution: dt = {dt:.3e} "
                f"< dt_min = {DT_MIN:.3e} at t = {t:.6g}, "
                f"last error estimate {err:.3e} (target {err_target:.3e}); "
                f"{accepted} steps accepted, {rejected} rejected, "
                f"{calls} velocity evaluations")
        dt = min(dt, t_end - t)
        if n_c is None:
            n_c = remainder(state.coeffs)   # state is checked admissible
        try:
            stepped, err = _etd3rk_step(state.coeffs, n_c, dt, mu, remainder)
            stage_left = False
        except DomainValidityError:
            # a stage left the admissible set, where the velocity is
            # undefined: rejected like an overflowing step, so the exit
            # time is resolved
            err, stage_left = np.inf, True
        if err <= err_target:
            t += dt
            accepted += 1
            state, n_c = make_shape(stepped), None
            sup = state.sup_norm()
            points.append(TrajectoryPoint(t=t, shape=state, sup_norm=sup))
            if sup >= ADMISSIBLE_SUP_NORM:
                status = "left_neighbourhood"
                break
        else:
            rejected += 1
        factor = 5.0 if err == 0.0 else 0.65 * (err_target / err) ** (1 / 3)
        dt = min(dt * min(5.0, max(0.2, factor)), dt_max)

    return Trajectory(points=tuple(points), status=status)
