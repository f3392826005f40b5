"""Linearized shape evolution and mode field profiles.

The linearization is diagonal in Fourier modes, so evolution is exact:
each coefficient is scaled by exp(mu_k t). The module also builds the radial
field perturbation excited by a single boundary mode, used to cross-check the
nonlinear field solver.
"""

from collections import namedtuple

import numpy as np

from .errors import ValidationError
from .radial import RadialProfile
from .shapes import ShapeState
from .spectrum import SpectrumTable

GrowthFit = namedtuple("GrowthFit", ["rate", "residual"])


def evolve_linear(shape: ShapeState, t, table: SpectrumTable):
    """Advance the diagonal flow by time t (exact per-mode exponentials)."""
    if t < 0:
        raise ValidationError("t must be nonnegative")
    if shape.n_modes > table.k_max:
        raise ValidationError(
            f"shape retains {shape.n_modes} modes but table stops at {table.k_max}")
    with np.errstate(over="ignore", invalid="ignore"):
        coeffs = shape.coeffs * np.exp(table.mu[:shape.n_modes + 1] * t)
    # an absent mode stays absent where exp(mu t) overflows; a present one
    # that overflows makes the shape non-finite, which ShapeState rejects
    return shape.with_coeffs(np.where(shape.coeffs == 0, 0.0, coeffs))


def linearized_mode_profile(k, rho_hat_k, v0: RadialProfile, u_k: RadialProfile):
    """Radial nutrient perturbation profile excited by boundary mode k.

    The profile is -v0'(1)/u_k(1) * rho_hat_k * r^|k| * u_k(r); its boundary
    value is -v0'(1) * rho_hat_k.
    """
    k = abs(int(k))
    c = -v0.deriv_at_1 / u_k.value_at_1 * rho_hat_k
    r = u_k.grid
    values = c * r**k * u_k.values
    derivs = c * (k * r**(max(k, 1) - 1) * u_k.values * (1 if k else 0)
                  + r**k * u_k.deriv_values)
    return RadialProfile(grid=r, values=values,
                         deriv_at_1=complex(derivs[-1]) if np.iscomplexobj(values)
                         else float(derivs[-1]),
                         deriv_values=derivs)


def fit_growth_rate(series):
    """Least-squares slope of log amplitude over time.

    series is an iterable of (t, amplitude) with positive amplitudes; returns
    the fitted exponential rate and the max absolute log-residual.
    """
    pts = [(float(t), float(a)) for t, a in series]
    if len(pts) < 3:
        raise ValidationError("need at least 3 samples to fit a growth rate")
    t = np.array([p[0] for p in pts])
    a = np.array([p[1] for p in pts])
    if np.any(a <= 0):
        raise ValidationError("amplitudes must be positive for a log fit")
    if np.ptp(t) == 0:
        raise ValidationError("the samples span no time, so no rate can be fitted")
    slope, intercept = np.polyfit(t, np.log(a), 1)
    residual = float(np.max(np.abs(np.log(a) - (slope * t + intercept))))
    return GrowthFit(rate=float(slope), residual=residual)


def linear_trajectory(shape: ShapeState, times, table: SpectrumTable):
    """Sample the diagonal flow at the given times (from the initial state)."""
    return [(float(t), evolve_linear(shape, float(t), table)) for t in times]
