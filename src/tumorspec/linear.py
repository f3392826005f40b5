"""Linearized shape evolution and the fit of a growth rate.

The linearization is diagonal in Fourier modes, so evolution is exact:
each coefficient is scaled by exp(mu_k t). The radial field perturbation
excited by a single boundary mode, which cross-checks the nonlinear field
solver, is a test oracle (``linearized_mode_profile`` in
``tests/oracles.py``).
"""

import math
from collections import namedtuple

import numpy as np

from .errors import ValidationError
from .shapes import ShapeState
from .spectrum import SpectrumTable

MIN_TIME_SPAN = math.sqrt(np.finfo(float).tiny)   # ~1.5e-154
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
    return ShapeState(coeffs=np.where(shape.coeffs == 0, 0.0, coeffs),
                      radius_scale=shape.radius_scale)


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
    # np.polyfit scales by the root sum of squares of t, which underflows
    # to 0 (a division by zero) when the samples span no more than this
    if np.ptp(t) < MIN_TIME_SPAN:
        raise ValidationError(
            f"the samples span no time (t_last - t_first = {np.ptp(t):.3g} < "
            f"{MIN_TIME_SPAN:.3g}), so no rate can be fitted")
    slope, intercept = np.polyfit(t, np.log(a), 1)
    residual = float(np.max(np.abs(np.log(a) - (slope * t + intercept))))
    return GrowthFit(rate=float(slope), residual=residual)

