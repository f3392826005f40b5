"""Spectral collocation machinery on the unit disk.

Angle: equispaced Fourier grid, derivatives via FFT. Radius: Chebyshev
points on [-1, 1] with an odd polynomial degree so the origin is excluded,
folded to the positive half using the disk identification
v(-r, theta) = v(r, theta + pi); an angular mode of parity p then sees the
even- or odd-folded differentiation matrix. This is the standard way to
avoid both the coordinate singularity at r = 0 and any 1/r evaluation there.

Row 0 of every (n_r x n_theta) field array is the boundary r = 1; radii are
stored descending. Theta-spectra are stored in the mode layout of
:meth:`DiskGrid.to_modes` (even modes first, then odd), in which
:func:`mapped_laplacian_kernel` applies the mapped operator with one GEMM
per parity and :class:`ModePreconditioner` inverts its angularly constant
part without a transform. The operator reads the spectrum of all n_r rows
and returns its n_r - 1 interior rows only, the rows that every Dirichlet
residual and Krylov matvec reads.

A perturbed domain is pulled back to this disk by one map per shape,
:class:`MappedCoefficients`: built from the shape's spectrum, which it splits
into its half-turn parts once, it refuses shapes it cannot map and holds its
:class:`DiskGrid`, the transformed Laplacian's coefficients, the scale R**2
phi**2 and the boundary quantities (h, beta, phi_r(1), curvature) that the
field solves and the boundary velocity read. The mapped radius phi and the
half-turn parts themselves are not kept; the tests derive them from h
(``tests/oracles.py``).

The Chebyshev toolkit at the top of this module (points, barycentric weights,
interpolation and differentiation matrices, and the fold :class:`RadialFold`)
is the only one in the package; :class:`DiskGrid` and :mod:`tumorspec.radial`
read the same cached folds. Interpolation uses the barycentric formula of
Berrut & Trefethen, *Barycentric Lagrange Interpolation*, SIAM Review 46 (2004).
"""

import functools
from dataclasses import dataclass, field

import numpy as np

from .errors import SolverError, ValidationError


def chebyshev_points(N):
    """The N + 1 Chebyshev points cos(j pi / N) of [-1, 1], descending."""
    return np.cos(np.pi * np.arange(N + 1) / N)


def chebyshev_nodes(n_nodes):
    """Chebyshev-Lobatto nodes mapped to [0, 1], ascending, endpoints included."""
    return 0.5 * (1.0 - chebyshev_points(n_nodes - 1))


def barycentric_weights(n_nodes):
    """Barycentric weights of n_nodes Chebyshev-Lobatto points (either order)."""
    w = (-1.0) ** np.arange(n_nodes)
    w[0] *= 0.5
    w[-1] *= 0.5
    return w


def differentiation_matrix(nodes, weights):
    """Nodal differentiation matrix from barycentric weights."""
    x = nodes[:, None] - nodes[None, :]
    np.fill_diagonal(x, 1.0)
    d = (weights[None, :] / weights[:, None]) / x
    np.fill_diagonal(d, 0.0)
    np.fill_diagonal(d, -d.sum(axis=1))
    return d


def barycentric_matrix(nodes, weights, x):
    """Matrix taking samples at ``nodes`` to their interpolant at the points ``x``.

    This is the second (true) barycentric formula; a point within 1e-15 of a
    node gets that node's unit row.
    """
    dx = np.asarray(x, dtype=float)[:, None] - nodes[None, :]
    hit = np.abs(dx) < 1e-15
    dx[hit] = 1.0
    m = weights / dx
    m /= m.sum(axis=1, keepdims=True)
    on_node = hit.any(axis=1)
    m[on_node] = hit[on_node]
    return m


def _fold(M):
    """Even and odd column folds of M, which acts on samples at the 2n points
    cos(j pi / (2n - 1)): point 2n - 1 - i reflects point i, so an even (odd)
    function sampled at the first n points sees M[:, :n] + M[:, refl]
    (M[:, :n] - M[:, refl])."""
    N = M.shape[1] - 1
    n = (N + 1) // 2
    refl = N - np.arange(n)
    return M[:, :n] + M[:, refl], M[:, :n] - M[:, refl]


@dataclass(frozen=True, eq=False)   # compared and hashed by identity
class RadialFold:
    """The 2n Chebyshev points cos(j pi / (2n - 1)) folded onto their n positive ones.

    Every pair is (even, odd): the fold of a matrix for functions of that
    parity under r -> -r. All arrays are read-only, as the fold is shared by
    every caller of :func:`radial_fold`.
    """

    r: np.ndarray          # positive nodes, descending from r = 1
    D: tuple               # folded first derivative
    D2: tuple              # folded second derivative
    to_cheb: np.ndarray    # even samples on r -> coefficients of T_0, T_2, ...
    weights: np.ndarray    # quadrature of int_0^1 r g(r) dr for even g
    to_unit: tuple         # samples on r -> values on the [0, 1] profile grid
    stacked: tuple         # rows below r = 1 of [D; D2], one matrix per parity

    def operator(self, m, parity=0):
        """The Dirichlet collocation matrix of r**2 d2/dr2 + m r d/dr on
        functions of the given parity: row 0 is the value at r = 1, the
        other rows apply the operator at their node. For an array of m, the
        stack of one matrix per m."""
        op = (np.asarray(m)[..., None] * self.r)[..., None] * self.D[parity]
        op += self.r[:, None] ** 2 * self.D2[parity]
        op[..., 0, :] = 0.0
        op[..., 0, 0] = 1.0
        return op


@functools.lru_cache(maxsize=8)
def radial_fold(n):
    """The cached :class:`RadialFold` of n positive nodes (a fold of 256
    nodes holds about 5 MB, so the eight last used are kept)."""
    N = 2 * n - 1
    x = chebyshev_points(N)
    w = barycentric_weights(N + 1)
    D = differentiation_matrix(x, w)
    p = np.arange(n)
    to_cheb = np.linalg.inv(np.cos(np.outer(p, 2 * p) * np.pi / N))
    # with s = 2r**2 - 1, int_0^1 r T_2p(r) dr = int_{-1}^1 T_p(s) ds / 4,
    # which is 1/(2(1 - p**2)) for even p and 0 for odd p
    moments = np.zeros(n)
    moments[::2] = 0.5 / (1.0 - p[::2] ** 2.0)
    D1, D2 = _fold(D[:n]), _fold((D @ D)[:n])
    fold = RadialFold(r=x[:n], D=D1, D2=D2, to_cheb=to_cheb,
                      weights=moments @ to_cheb,
                      to_unit=_fold(barycentric_matrix(x, w, chebyshev_nodes(N))),
                      stacked=tuple(np.vstack([d[1:] for d in pair])
                                    for pair in zip(D1, D2)))
    for array in (fold.r, *fold.D, *fold.D2, fold.to_cheb, fold.weights,
                  *fold.to_unit, *fold.stacked):
        array.flags.writeable = False
    return fold


@dataclass(frozen=True)
class DiskGrid:
    """The collocation grid: n_r folded Chebyshev radii times n_theta angles.

    A field's theta-spectrum is stored in the mode layout of
    :meth:`to_modes`: the real view of the rfft coefficients (real and
    imaginary part of each mode side by side), the even modes first and the
    odd ones after them, so each parity's radial derivatives are one real
    GEMM on a contiguous block of columns.
    """
    n_r: int = 64        # positive radial collocation nodes (incl. boundary)
    n_theta: int = 128
    fold: RadialFold = field(init=False, repr=False, compare=False)
    r: np.ndarray = field(init=False, repr=False, compare=False)
    theta: np.ndarray = field(init=False, repr=False, compare=False)
    modes: np.ndarray = field(init=False, repr=False, compare=False)
    _natural: np.ndarray = field(init=False, repr=False, compare=False)
    _symbols: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.n_theta <= 0 or self.n_theta % 2:
            raise ValidationError("n_theta must be positive and even")
        if self.n_r < 4:
            raise ValidationError("n_r must be at least 4")
        fold = radial_fold(self.n_r)
        object.__setattr__(self, "fold", fold)
        object.__setattr__(self, "r", fold.r)
        object.__setattr__(self, "theta", 2.0 * np.pi * np.arange(self.n_theta) / self.n_theta)
        q = np.arange(self.n_theta // 2 + 1)
        modes = np.concatenate([q[0::2], q[1::2]])
        object.__setattr__(self, "modes", modes)
        object.__setattr__(self, "_natural", np.argsort(modes))
        # symbols of d/dtheta and d2/dtheta2 in the mode layout
        object.__setattr__(self, "_symbols", (1j * modes, -modes**2.0))

    @property
    def split(self):
        """Number of columns of the even modes in the mode layout."""
        return 2 * ((self.n_theta // 2 + 2) // 2)

    def to_modes(self, V):
        """The theta-spectrum of the samples V in the mode layout."""
        return np.fft.rfft(V, axis=-1).take(self.modes, axis=-1).view(float)

    def from_modes(self, X):
        """The samples whose theta-spectrum in the mode layout is X."""
        return np.fft.irfft(X.view(complex).take(self._natural, axis=-1),
                            n=self.n_theta, axis=-1)

    def fold_derivative(self, X, out):
        """Parity-correct [V_r; V_rr] on the n_r - 1 interior rows from the
        theta-spectrum X (mode layout, all n_r rows), written to ``out``
        (2 (n_r - 1) rows): one real GEMM per parity with the fold's
        ``stacked``.
        """
        split = self.split
        np.matmul(self.fold.stacked[0], X[:, :split], out=out[:, :split])
        np.matmul(self.fold.stacked[1], X[:, split:], out=out[:, split:])


def dealias(values):
    """2/3-rule truncation along the last (angular) axis: the samples whose
    rfft is that of ``values`` with the modes above n // 3 set to zero."""
    spec = np.fft.rfft(values, axis=-1)
    spec[..., np.shape(values)[-1] // 3 + 1:] = 0.0
    return np.fft.irfft(spec, n=np.shape(values)[-1], axis=-1)


@dataclass(frozen=True, eq=False)   # compared and hashed by identity
class MappedCoefficients:
    """The map of one shape on the grid it holds: the blended radial map, its
    boundary quantities and the coefficients of the Laplacian it transforms to.

    The physical radius is s = R phi(r, theta) with

        phi = r (1 + E(theta) + r O(theta)),

    where E and O are the even and odd parts of rho under the half-turn
    theta -> theta + pi. The blend makes the map parity consistent,
    phi(-r, theta) = -phi(r, theta + pi), so the folded radial
    differentiation stays exact when rho has odd modes, and phi is
    polynomial in r, so each folded column remains analytic. With
    J = phi_r and g = phi_theta / J the scaled operator reads

        R**2 phi**2 Delta = a_rr v_rr + a_r v_r + v_tt + a_rt v_rt,
        a_rr = (phi/J)**2 + g**2,   a_rt = -2 g,
        a_r  = -phi**2 J_r / J**3 + phi/J - g_theta + g g_r.

    It is invertible on the whole admissible set: J >= 1 - 3 sup|rho| > 0.
    Of the interior only these coefficients and R**2 phi**2 are kept: phi,
    E and O are locals of :meth:`from_boundary`. The boundary quantities (h,
    beta, J1, curvature) are the ones the pressure and the boundary velocity
    read. The curvature is the exact curvature of the node curve, not
    dealiased: the pressure dealiases its data itself, and its boundary
    solve needs the exact value on the diagonal of its flux kernel.
    """
    grid: DiskGrid       # the grid every array samples, read by the solves
    a_rr: np.ndarray
    a_r: np.ndarray
    a_rt: np.ndarray
    scale: np.ndarray    # R**2 phi**2, multiplies the physical right-hand side
    h: np.ndarray        # 1 + rho on the boundary
    beta: np.ndarray     # rho' / h
    J1: np.ndarray       # phi_r at r = 1, that is 1 + E + 2 O
    curvature: np.ndarray
    R: float

    @classmethod
    def from_boundary(cls, shape, grid: DiskGrid):
        """The map of ``shape`` (a ShapeState of radius R = shape.radius_scale)
        on the nodes of ``grid``, refusing an inadmissible shape, where the map
        may fold over, and a grid that does not resolve its modes. E and O are
        the even- and odd-mode parts of its spectrum, so one stacked irfft
        gives them with their theta-derivatives."""
        shape.require_admissible()
        spec = shape.spectrum(grid.n_theta)
        q = np.arange(len(spec))
        parts = spec * np.array([q % 2 == 0, q % 2 == 1])   # even and odd modes
        E, O, Ep, Op, Epp, Opp = np.fft.irfft(
            np.concatenate([parts, 1j * q * parts, -q**2 * parts]), n=grid.n_theta)
        R = float(shape.radius_scale)

        r = grid.r[:, None]
        phi = r * (1.0 + E + r * O)
        J = 1.0 + E + 2.0 * r * O
        phi_t = r * Ep + r**2 * Op
        Jp = Ep + 2.0 * r * Op     # J_theta

        g = dealias(phi_t / J)
        g_r, g_t = dealias(np.stack([Jp - 2.0 * g * O,
                                     r * Epp + r**2 * Opp - g * Jp]) / J)
        a_rr, a_r = dealias(np.stack([(phi / J) ** 2 + g**2,
                                      -2.0 * phi**2 * O / J**3 + phi / J
                                      - g_t + g * g_r]))

        h = 1.0 + E + O
        rho_p, rho_pp = Ep + Op, Epp + Opp
        curvature = ((h**2 + 2.0 * rho_p**2 - h * rho_pp)
                     / (R * (h**2 + rho_p**2) ** 1.5))
        return cls(grid=grid, a_rr=a_rr, a_r=a_r, a_rt=-2.0 * g,
                   scale=(R * phi) ** 2, h=h, beta=rho_p / h,
                   J1=1.0 + E + 2.0 * O, curvature=curvature, R=R)


def mapped_laplacian_kernel(coefs: MappedCoefficients, X, potential=None):
    """Scaled Laplacian R**2 phi**2 Delta of the map ``coefs``, minus
    ``potential`` times the field, on the n_r - 1 interior rows of its grid,
    in samples, from the field's theta-spectrum X (mode layout, all n_r rows).

    ``potential`` is None or holds the interior rows. One GEMM per parity
    gives V_r and V_rr (:meth:`DiskGrid.fold_derivative`), the angular
    derivatives are products with the mode numbers, and one irfft of
    [V_r, V_rr, V_rt, V_tt (, V)] brings them to the samples, where the
    coefficients of the map combine them.
    """
    grid = coefs.grid
    n = len(X) - 1
    spectra = np.empty((4 if potential is None else 5, n, X.shape[1] // 2), complex)
    grid.fold_derivative(X, spectra[:2].view(float).reshape(2 * n, X.shape[1]))
    Vh = X[1:].view(complex)
    np.multiply(grid._symbols[0], spectra[0], out=spectra[2])
    np.multiply(grid._symbols[1], Vh, out=spectra[3])
    if potential is not None:
        spectra[4] = Vh
    Vr, Vrr, Vrt, Vtt, *V = np.fft.irfft(spectra.take(grid._natural, axis=-1),
                                         n=grid.n_theta, axis=-1)
    out = coefs.a_rr[1:] * Vrr + coefs.a_r[1:] * Vr + Vtt + coefs.a_rt[1:] * Vrt
    if potential is not None:
        out -= potential * V[0]
    return out


# read only by tests and by the layer perfbench/spans.py wraps; it moves to
# tests/oracles.py with the benchmark refresh of ROADMAP item 1
def apply_mapped_laplacian(coefs: MappedCoefficients, V):
    """Scaled Laplacian R**2 phi**2 * Delta of samples on the map's grid, on
    the n_r - 1 interior rows."""
    return mapped_laplacian_kernel(coefs, coefs.grid.to_modes(V))


def boundary_radial_derivative(grid: DiskGrid, X):
    """d/dr at r = 1 of the field whose theta-spectrum (mode layout) is X:
    row 0 of each parity's D."""
    split = grid.split
    return grid.from_modes(np.concatenate([grid.fold.D[0][0] @ X[:, :split],
                                           grid.fold.D[1][0] @ X[:, split:]]))


class ModePreconditioner:
    """Fast diagonalisation of the radial collocation operators of every
    angular mode (Lynch, Rice & Thomas, *Numer. Math.* 6, 1964).

    Mode q >= 0 sees L_p - q**2, where L_p is the fold's Dirichlet matrix
    :meth:`RadialFold.operator` of r**2 d2/dr2 + r d/dr, of parity
    p = q mod 2, minus the diagonal ``potential`` (an (n_r,) array already
    carrying the r**2 scaling of the mapped operator). Its row 0 is the
    value at r = 1 and the boundary data are zero, so the interior values of
    the solution are the inverse of the interior block (row and column 0
    sliced off) applied to the interior residual. One real eigendecomposition
    of each parity's interior block, L_p = V_p Lambda_p V_p^-1, inverts every
    mode of that parity: (L_p - q**2)^-1 = V_p (Lambda_p - q**2)^-1 V_p^-1.
    Exact for angularly constant coefficients; used as the preconditioner of
    the Krylov solves of the mapped (variable-coefficient) problems.
    """

    def __init__(self, grid: DiskGrid, potential):
        split = grid.split
        self._parities = []
        for parity, cols in enumerate((slice(0, split), slice(split, None))):
            L = grid.fold.operator(1, parity)[1:, 1:]
            L[np.diag_indices_from(L)] -= np.asarray(potential, dtype=float)[1:]
            lam, V = np.linalg.eig(L)
            if np.iscomplexobj(lam):
                raise SolverError(
                    f"the radial operator of parity {parity} on {grid.n_r} "
                    "nodes has complex eigenvalues; the preconditioner "
                    "needs real ones")
            q = np.repeat(grid.modes, 2)[cols]
            self._parities.append((V, np.linalg.inv(V),
                                   1.0 / (lam[:, None] - q**2), cols))

    def solve_interior(self, X):
        """Solve with zero boundary data for the residual X: the theta-spectrum
        (mode layout) of its n_r - 1 interior rows. Returns the solution's,
        with two GEMMs and one product per parity and no transform."""
        out = np.empty_like(X)
        for V, V_inv, inv_shift, cols in self._parities:
            np.matmul(V, inv_shift * (V_inv @ X[:, cols]), out=out[:, cols])
        return out
