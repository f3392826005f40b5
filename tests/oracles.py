"""Independent reference values used by the test suite.

Everything here is computed by direct series summation, without touching the
package under test. For f(u) = u the radial problems have modified-Bessel
closed forms, which is what makes these oracles possible:

    U(r, lam)      = I0(sqrt(lam) r) / I0(sqrt(lam))
    u_n(r)         = 2^n n! I_n(r) / r^n          (unit radius, identity model)
    u_n'(1)/u_n(1) = I_n'(1)/I_n(1) - n

For the pressure solve, the real part of an entire function is harmonic on
every domain, so its boundary samples and its derivatives are closed forms
too (:func:`exact_harmonic` on the boundary of :func:`oracle_boundary`).
"""

import math

import numpy as np


def bessel_i(n, x, terms=60):
    """Modified Bessel function I_n(x) by direct summation of its power series."""
    term = (0.5 * x) ** n / math.factorial(n)
    total = term
    q = 0.25 * x * x
    for m in range(1, terms):
        term *= q / (m * (m + n))
        total += term
    return total


def bessel_i_prime(n, x, terms=60):
    """I_n'(x) via the recurrence I_n' = (I_{n-1} + I_{n+1}) / 2."""
    if n == 0:
        return bessel_i(1, x, terms)
    return 0.5 * (bessel_i(n - 1, x, terms) + bessel_i(n + 1, x, terms))


def identity_ratio(n, terms=60):
    """Boundary ratio u_n'(1)/u_n(1) for the identity model at unit radius."""
    return bessel_i_prime(n, 1.0, terms) / bessel_i(n, 1.0, terms) - n


def identity_steady_A():
    """The apoptosis parameter for which the steady radius is exactly 1."""
    return 2.0 * bessel_i(1, 1.0) / bessel_i(0, 1.0)


def identity_mu(k, A, G, terms=60):
    """Full stability symbol for the identity model at unit steady radius."""
    k = abs(k)
    d = 0.5 * A * identity_ratio(k, terms) + A - 1.0
    return -float(k**3) + float(k) - G * d


def identity_g_threshold(k, A, terms=60):
    """Per-mode instability threshold for the identity model at unit radius."""
    d = 0.5 * A * identity_ratio(k, terms) + A - 1.0
    return (-float(k**3) + float(k)) / d


def identity_g_star(A, k_max=64):
    """Brute-force minimum of the thresholds over modes with negative denominator."""
    best = None
    best_k = None
    for k in range(k_max + 1):
        d = 0.5 * A * identity_ratio(k) + A - 1.0
        if d < 0:
            g = (-float(k**3) + float(k)) / d
            if best is None or g < best:
                best, best_k = g, k
    return best, best_k


def oracle_boundary(n, a):
    """rho = cos 3t + sin(7t + 0.3)/3 on n equispaced angles, scaled so that
    its sup-norm over the circle (sampled at 2**16 angles) is a."""
    def rho(t):
        return np.cos(3 * t) + np.sin(7 * t + 0.3) / 3

    sup = np.max(np.abs(rho(2 * np.pi * np.arange(2**16) / 2**16)))
    return a * rho(2 * np.pi * np.arange(n) / n) / sup


def exact_harmonic(z, R):
    """q = Re F(z) with F(z) = e^{z/R} + (z/R)**5, and F'(z): the derivative
    of q along a unit complex direction d at z is Re(F'(z) d)."""
    w = np.asarray(z) / R
    return (np.exp(w) + w**5).real, (np.exp(w) + 5 * w**4) / R
