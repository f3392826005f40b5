"""Closed forms for the identity model, built without the package under test.

For f(u) = u the radial problems of tumorspec have modified-Bessel solutions:

    ratio_k(R) = u_k'(1)/u_k(1) = R I_{k+1}(R) / I_k(R)
    A(R)       = 2 I_1(R) / (R I_0(R))       (steady-radius condition)
    d_k        = (A/2) ratio_k + A - 1
    mu_k       = (-k**3 + k) / R**3 - G d_k
    G_k        = (-k**3 + k) / R**3 / d_k    (where d_k < 0)

Only scipy.special.ive and scipy.optimize.brentq are used; the exponential
scaling of ive cancels in every quotient.
"""

import numpy as np
from scipy.optimize import brentq
from scipy.special import ive

DENOM_TOL = 1e-12


def ratio(k, R):
    """Boundary ratio u_k'(1)/u_k(1) of the identity model at radius R."""
    k = np.asarray(k, dtype=float)
    return R * ive(k + 1.0, R) / ive(k, R)


def steady_A(R):
    """Apoptosis parameter whose identity-model steady radius is R."""
    return 2.0 * ive(1, R) / (R * ive(0, R))


def steady_R(A):
    """Identity-model steady radius for A in (0, 1), by Brent's method."""
    if not 0.0 < A < 1.0:
        raise ValueError(f"A must lie in (0, 1), got {A}")
    return brentq(lambda R: steady_A(R) - A, 1e-6, 64.0, xtol=1e-15,
                  rtol=8.9e-16)


def denominators(A, R, k_max):
    return 0.5 * A * ratio(np.arange(k_max + 1), R) + A - 1.0


def mu(A, G, R, k_max):
    """Symbol mu_k for k = 0..k_max."""
    k = np.arange(k_max + 1, dtype=float)
    return (-k**3 + k) / R**3 - G * denominators(A, R, k_max)


def g_star(A, R, k_max):
    """(G*, k0): the least threshold over modes with negative denominator.

    Returns (None, None) when no mode up to k_max has one.
    """
    d = denominators(A, R, k_max)
    k = np.arange(k_max + 1, dtype=float)
    best = None
    for kk in np.flatnonzero(d < -DENOM_TOL):
        g = (-k[kk] ** 3 + k[kk]) / R**3 / d[kk]
        if best is None or g < best[0]:
            best = (float(g), int(kk))
    return best if best is not None else (None, None)
