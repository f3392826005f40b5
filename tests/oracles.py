"""Independent reference values and the evaluators that the test suite
checks the package against.

The reference values are computed by direct series summation, without
touching the package under test. For f(u) = u the radial problems have
modified-Bessel closed forms, which is what makes these oracles possible:

    U(r, lam)      = I0(sqrt(lam) r) / I0(sqrt(lam))
    u_n(r)         = 2^n n! I_n(r) / r^n          (unit radius, identity model)
    u_n'(1)/u_n(1) = I_n'(1)/I_n(1) - n

For the pressure solve, the real part of an entire function is harmonic on
every domain, so its boundary samples and its derivatives are closed forms
too (:func:`exact_harmonic` on the boundary of :func:`oracle_boundary`). A
disk of the steady radius translated off the origin is a steady state at
finite amplitude for every model: its pressure data are affine, so the
pressure is that affine function (:func:`translated_disk`), and its nutrient
is the radial profile about the disk's centre (:func:`translated_nutrient`).

The evaluators below read fields in ways no command does, so they live here
and not in the package. Some build on its Chebyshev toolkit
(:mod:`tumorspec.disk`, tested on its own) and import it where they run:
the benchmark's tests import this module for its series references without
the package on the path.

- the blended map of a ``MappedCoefficients``, rederived from its boundary h
  = 1 + rho: :func:`half_turn_parts`, :func:`mapped_phi` and its inverse
  :func:`mapped_radius`;
- the pressure inside the domain, which the package solves only on the
  boundary: :func:`pressure_data` and the compensated Cauchy evaluator
  :func:`harmonic_values`;
- grid fields off the collocation nodes: :func:`fold_interpolation`,
  :func:`eval_field_columns` and :func:`center_value`;
- residuals of the solved equations: :func:`harmonic_residual` (the mapped
  Laplacian) and :func:`ode_residual_on_midpoints` (the radial ODEs);
- :func:`linearized_mode_profile`, the nutrient perturbation that one
  boundary mode excites to first order;
- :func:`brentq`, a port of scipy's Brent root finder, which finds the
  steady radius by bracketing alone, independently of the package's
  bordered Newton solve, where scipy is not installed.
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


def brentq(f, a, b, f_a, f_b, xtol, rtol, maxiter=100):
    """Root of f in [a, b] by Brent's method, given f_a = f(a) and f_b = f(b).

    Brent, *Algorithms for Minimization without Derivatives* (1973), ch. 4:
    the iterate with the smaller |f| is kept as the current one; a step
    interpolates (secant) or extrapolates (inverse quadratic) when it is
    short enough and bisects otherwise; the iteration stops once half the
    bracket is below delta = (xtol + rtol |x|) / 2. The order of the floating-point operations follows scipy's ``brentq``
    bit for bit. Raises SolverError after ``maxiter`` steps.
    """
    from tumorspec.errors import SolverError

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


def oracle_boundary(n, a):
    """rho = cos 3t + sin(7t + 0.3)/3 on n equispaced angles, scaled so that
    its sup-norm over the circle (sampled at 2**16 angles) is a."""
    def rho(t):
        return np.cos(3 * t) + np.sin(7 * t + 0.3) / 3

    sup = np.max(np.abs(rho(2 * np.pi * np.arange(2**16) / 2**16)))
    return a * rho(2 * np.pi * np.arange(n) / n) / sup


def oracle_shape(n, a, R):
    """:func:`oracle_boundary` as a ``ShapeState`` of radius R: the modes
    0..7 of the rfft of its n >= 16 samples, of which 3 and 7 are nonzero."""
    from tumorspec.shapes import ShapeState
    return ShapeState(coeffs=np.fft.rfft(oracle_boundary(n, a))[:8] / n,
                      radius_scale=R)


def exact_harmonic(z, R):
    """q = Re F(z) with F(z) = e^{z/R} + (z/R)**5, and F'(z): the derivative
    of q along a unit complex direction d at z is Re(F'(z) d)."""
    w = np.asarray(z) / R
    return (np.exp(w) + w**5).real, (np.exp(w) + 5 * w**4) / R


def translated_disk(n, d, R, A, G):
    """The disk of radius R centred at c = (d R, 0), d < 1, on n equispaced
    angles: rho with r(theta)/R = 1 + rho = d cos theta + sqrt(1 - d**2
    sin**2 theta), and the physical outward normal derivative there of the
    pressure of the model's data, curvature - (A G / 4) |x|**2.

    On that circle |x|**2 = R**2 - |c|**2 + 2 c.x, so the data are affine and
    the pressure is the same affine function; its flux is -(A G / 2) c.nu,
    with nu = (x - c) / R.
    """
    theta = 2 * np.pi * np.arange(n) / n
    h = d * np.cos(theta) + np.sqrt(1.0 - (d * np.sin(theta))**2)
    x = R * h * np.cos(theta)
    return h - 1.0, -0.5 * A * G * d * (x - d * R)


def translated_nutrient(x, d, R, model):
    """The nutrient of the disk of :func:`translated_disk` at its physical
    points x (complex), v(x) = U(|x - c| / R) with U the model's radial
    profile at lam = R**2, and its physical outward normal derivative U'(1) /
    R, the same at every boundary node."""
    from tumorspec.radial import solve_U
    U = solve_U(R * R, model)
    return U.at(np.abs(x - d * R) / R), U.deriv_values[-1] / R


def translated_shape(d, R, n_modes):
    """The disk of :func:`translated_disk` as a ``ShapeState`` of the modes
    0..n_modes. Its coefficients fall like (d/2)**k, so those above n_modes
    and the aliases of 512 samples are far below roundoff for d <= 0.2 and
    n_modes >= 20."""
    from tumorspec.shapes import ShapeState
    rho = translated_disk(512, d, R, 0.0, 0.0)[0]
    return ShapeState(coeffs=np.fft.rfft(rho)[:n_modes + 1] / 512,
                      radius_scale=R)


def half_turn_parts(rho):
    """E and O, the even and odd parts of the samples rho under the half-turn
    theta -> theta + pi, of which the blended map is built."""
    turned = np.roll(rho, -(len(rho) // 2))   # rho(theta + pi)
    return 0.5 * (rho + turned), 0.5 * (rho - turned)


def mapped_phi(coefs, r):
    """The mapped radius / R, phi = r (1 + E + r O), at the radii r (one row
    each) of the map ``coefs``."""
    E, O = half_turn_parts(coefs.h - 1.0)
    r = np.asarray(r, dtype=float)[:, None]
    return r * (1.0 + E + r * O)


def mapped_radius(coefs, s_over_R, theta_index):
    """Invert the blended map: mapped r with R phi(r, theta) = s.

    theta_index selects the angular column; s_over_R = s / R must lie in
    [0, phi(1, theta)].
    """
    E, O = half_turn_parts(coefs.h - 1.0)
    c1 = 1.0 + E[theta_index]
    O = O[theta_index]
    # the root of O r**2 + c1 r = s in the form without cancellation
    return 2.0 * s_over_R / (c1 + np.sqrt(c1 * c1 + 4.0 * O * s_over_R))


def pressure_data(coefs, A, G):
    """The pressure's Dirichlet data on the boundary nodes of ``coefs``: the
    curvature + mitosis data, dealiased."""
    from tumorspec.disk import dealias
    return dealias(coefs.curvature - 0.25 * A * G * coefs.R**2 * coefs.h**2)


def harmonic_values(grid, coefs, data, flux):
    """Samples on ``grid`` (row 0 = boundary, radii descending) of the
    harmonic field on the domain of ``coefs`` with the Dirichlet data
    ``data`` and the physical outward normal derivative ``flux`` on its
    boundary nodes.

    By the compensated Cauchy formula (Helsing & Ojala, *J. Comput. Phys.*
    227, 2008; Barnett, Wu & Veerapaneni, *SIAM J. Sci. Comput.* 37, 2015):
    with f = q + i p analytic in the domain, f(z) = sum_j f_j y'_j / (y_j -
    z) / sum_j y'_j / (y_j - z), whose quadrature errors cancel between
    numerator and denominator up to the boundary. The conjugate p has dp/ds
    = dq/dn along the boundary (Cauchy-Riemann), so its trace is the
    spectral theta-integral of the flux times |y'|. The boundary nodes are y
    = R h e^{i theta}, with y' = dy/dtheta = y (beta + i), and the grid point
    R phi e^{i theta} is y phi / h. One grid row at a time, so memory stays
    O(n_theta**2).
    """
    n = len(coefs.h)
    y = coefs.R * coefs.h * np.exp(2j * np.pi * np.arange(n) / n)
    dy = y * (coefs.beta + 1j)
    spec = np.fft.rfft(flux * np.abs(dy))
    spec[1:-1] /= 1j * np.arange(1, len(spec) - 1)
    spec[[0, -1]] = 0.0   # the constant is free; Nyquist has no antiderivative
    f = data + 1j * np.fft.irfft(spec, n=n)
    phi = mapped_phi(coefs, grid.r)
    values = np.empty(phi.shape)
    values[0] = data
    for row, radius in zip(values[1:], phi[1:]):
        kernel = dy / (y - (y * radius / coefs.h)[:, None])
        row[:] = ((kernel @ f) / kernel.sum(axis=1)).real
    return values


def fold_interpolation(fold, x):
    """(even, odd) matrices from samples on the nodes of the RadialFold
    ``fold`` to values at the radii x."""
    from tumorspec.disk import (_fold, barycentric_matrix, barycentric_weights,
                                chebyshev_points)
    N = 2 * len(fold.r) - 1
    return _fold(barycentric_matrix(chebyshev_points(N),
                                    barycentric_weights(N + 1), x))


def eval_field_columns(grid, V, radii):
    """Barycentric evaluation of each theta-column at a per-column radius.

    Column j continues to negative radii as the column at theta_j + pi, so
    its even and odd parts under that half-turn see the even and odd folds of
    the interpolation matrix on the full Chebyshev point set. The result is
    spectrally accurate for any radius in [0, 1].
    """
    radii = np.broadcast_to(np.asarray(radii, dtype=float), (grid.n_theta,))
    even, odd = fold_interpolation(grid.fold, radii)
    turned = np.roll(V, -(grid.n_theta // 2), axis=1)   # V(r, theta + pi)
    return (np.einsum("ji,ij->j", even, 0.5 * (V + turned))
            + np.einsum("ji,ij->j", odd, 0.5 * (V - turned)))


def center_value(grid, values):
    """Field value at the origin: the mean of the column interpolants there."""
    return float(eval_field_columns(grid, values, 0.0).mean())


def harmonic_residual(coefs, values):
    """Max interior residual of the mapped Laplace operator of ``coefs`` on its
    grid's samples ``values`` of a field.

    The pressure is harmonic to the accuracy of its boundary solve, so for
    it this measures how well the grid resolves the exact field, not a
    solver tolerance."""
    from tumorspec.disk import apply_mapped_laplacian
    return float(np.max(np.abs(apply_mapped_laplacian(coefs, values))))


def ode_residual_on_midpoints(profile, m, lam, rhs):
    """Max residual of u'' + (m/r) u' = rhs(r, u) on the interpolated midpoint grid.

    Differentiates the stored derivative samples on the profile's own [0, 1]
    grid, so the check does not reuse the folded operator that produced the
    profile.
    """
    from tumorspec.disk import (barycentric_matrix, barycentric_weights,
                                differentiation_matrix)
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


def linearized_mode_profile(k, rho_hat_k, v0, u_k):
    """Radial nutrient perturbation profile excited by boundary mode k.

    The profile is -v0'(1)/u_k(1) * rho_hat_k * r^|k| * u_k(r); its boundary
    value is -v0'(1) * rho_hat_k.
    """
    from tumorspec.radial import RadialProfile
    k = abs(int(k))
    c = -v0.deriv_values[-1] / u_k.values[-1] * rho_hat_k
    r = u_k.grid
    values = c * r**k * u_k.values
    derivs = c * (k * r**(max(k, 1) - 1) * u_k.values * (1 if k else 0)
                  + r**k * u_k.deriv_values)
    return RadialProfile(grid=r, values=values, deriv_values=derivs)
