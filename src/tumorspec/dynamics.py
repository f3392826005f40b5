"""The nonlinear boundary velocity and its time integration.

phi assembles the boundary velocity from the two field solves, the boundary
normal factor, and the mitosis drift:

    phi(rho) = [ c (G v_r - q_r) - beta (G v_t - q_t) ] / (R**2 h)
               - (A G / 2) h,
    h = 1 + rho,  beta = rho'/h,  c = (1 + beta**2) h / phi_r(1),

with all traces taken at the mapped boundary r = 1 and phi_r the radial
Jacobian of the blended map there. Each evaluation builds the map of the
shape once (:class:`tumorspec.disk.MappedCoefficients`); both field solves
and the boundary factors h, beta and phi_r(1) are read from it. Time
stepping treats the stiff cubic principal symbol -|k|**3/R**3 implicitly per
Fourier mode and the remainder explicitly; step doubling supplies both the
error estimate and a second-order extrapolated update.
"""

from dataclasses import dataclass

import numpy as np

from .errors import SolverError, ValidationError
from .fields import solve_nutrient, solve_pressure
from .disk import DiskGrid, MappedCoefficients, dealias, theta_derivative
from .models import NutrientModel
from .shapes import ADMISSIBLE_SUP_NORM, ShapeState

ERR_TARGET = 1e-6     # default bound on the step-doubling error estimate
DT_INIT = 1e-3
DT_MIN = 1e-10        # a step size below this is a SolverError
DT_MAX = 0.25


@dataclass(frozen=True)
class PhiResult:
    values: np.ndarray        # boundary velocity on the angular grid
    coeffs: np.ndarray        # its Fourier coefficients, k = 0..n_theta // 3
    nutrient: object


def phi(shape: ShapeState, A, G, model: NutrientModel, grid: DiskGrid = None,
        nutrient_start=None):
    """Evaluate the boundary velocity for the given shape.

    The fields are solved on ``grid`` (the default 64x128 DiskGrid if None).
    The map of the shape is built once here and shared by both field solves.
    ``nutrient_start`` is the Newton start of the nutrient solve (such as the
    nutrient field of a nearby shape); None starts from the radial
    equilibrium. The nutrient solve builds one preconditioner from its start.
    """
    shape.require_admissible()
    grid = grid or DiskGrid()
    R = shape.radius_scale

    coefs = MappedCoefficients.from_boundary(shape.to_grid(grid.n_theta), R, grid.r)
    nut = solve_nutrient(coefs, model, grid, start=nutrient_start)
    pres = solve_pressure(coefs, A, G, grid)

    h, beta = coefs.h, coefs.beta
    v_r = nut.normal_derivative_trace
    v_t = theta_derivative(nut.boundary_trace)
    q_r = pres.normal_derivative_trace
    q_t = theta_derivative(pres.boundary_trace)

    radial_factor = (1.0 + beta**2) * h / coefs.J1
    values = (radial_factor * (G * v_r - q_r) - beta * (G * v_t - q_t)) \
        / (R * R * h) - 0.5 * A * G * h
    values = dealias(values)

    spec = np.fft.rfft(values) / grid.n_theta
    coeffs = spec[:grid.n_theta // 3 + 1].copy()
    coeffs[0] = coeffs[0].real
    return PhiResult(values=values, coeffs=coeffs, nutrient=nut)


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
    def times(self):
        return np.array([p.t for p in self.points])

    @property
    def final_shape(self):
        return self.points[-1].shape


def evolve_nonlinear(shape0: ShapeState, t_end, A, G, model: NutrientModel,
                     grid: DiskGrid = None, err_target=ERR_TARGET):
    """Integrate the boundary evolution up to t_end.

    The fields are solved on ``grid`` (the default 64x128 DiskGrid if None),
    and a step is accepted when its step-doubling error estimate is at most
    ``err_target``. Halts with status "left_neighbourhood" if the sup-norm
    reaches the admissibility bound 1/4. Each accepted step costs two
    velocity evaluations (one full step, two half steps sharing the first).
    """
    shape0.require_admissible()
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
    lam = -np.arange(n_modes + 1, dtype=float) ** 3 / R**3

    c = np.zeros(n_modes + 1, dtype=complex)
    m = min(n_modes, shape0.n_modes)
    c[:m + 1] = shape0.coeffs[:m + 1]

    def make_shape(coeffs):
        return ShapeState(n_modes=n_modes, coeffs=coeffs, radius_scale=R)

    def imex_step(coeffs, phi_coeffs, dt):
        return coeffs + dt * phi_coeffs / (1.0 - dt * lam)

    t = 0.0
    state = make_shape(c)
    warm = None
    result = phi(state, A, G, model, grid)
    points = [TrajectoryPoint(t=0.0, shape=state, sup_norm=state.sup_norm())]
    status = "completed"
    dt = min(DT_INIT, max(t_end, DT_MIN))

    while t < t_end - 1e-14:
        dt = min(dt, t_end - t)
        c1 = imex_step(state.coeffs, result.coeffs, dt)
        ch = imex_step(state.coeffs, result.coeffs, 0.5 * dt)
        shape_h = make_shape(ch)
        if shape_h.sup_norm() >= ADMISSIBLE_SUP_NORM:
            status = "left_neighbourhood"
            break
        res_h = phi(shape_h, A, G, model, grid, nutrient_start=warm)
        c2 = imex_step(ch, res_h.coeffs, 0.5 * dt)

        err = float(np.max(np.abs(c2 - c1)))
        if err <= err_target:
            t += dt
            state = make_shape(2.0 * c2 - c1)  # local extrapolation
            sup = state.sup_norm()
            points.append(TrajectoryPoint(t=t, shape=state, sup_norm=sup))
            warm = res_h.nutrient.values
            if sup >= ADMISSIBLE_SUP_NORM:
                # the velocity is undefined outside the admissible set
                status = "left_neighbourhood"
                break
            result = phi(state, A, G, model, grid, nutrient_start=warm)
        factor = 5.0 if err == 0.0 else 0.9 * np.sqrt(err_target / err)
        dt *= min(5.0, max(0.2, factor))
        dt = min(dt, DT_MAX)
        if dt < DT_MIN:
            raise SolverError(
                f"time step underflow in nonlinear evolution: dt = {dt:.3e} "
                f"< dt_min = {DT_MIN:.3e} at t = {t:.6g}, "
                f"last error estimate {err:.3e} (target {err_target:.3e})")

    return Trajectory(points=tuple(points), status=status)
