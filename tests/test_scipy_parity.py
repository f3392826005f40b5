"""Bit-for-bit agreement of the GMRES and Brent ports with scipy.

The field and steady-radius artifacts depend on the order of the
floating-point operations in :func:`tumorspec.fields.gmres` and
:func:`tumorspec.radial._brentq`, which follow scipy's ``gmres`` (1.12 and
later) and ``brentq``. These checks run where scipy is installed (the
``bench`` extra) and are skipped elsewhere.
"""

import math

import numpy as np
import pytest

from tumorspec import radial
from tumorspec.errors import SolverError
from tumorspec.fields import gmres

pytest.importorskip("scipy", minversion="1.12")
sparse_linalg = pytest.importorskip("scipy.sparse.linalg")
optimize = pytest.importorskip("scipy.optimize")


def _system(seed, n, preconditioner):
    gen = np.random.default_rng(seed)
    A = gen.standard_normal((n, n)) + np.diag(gen.uniform(1.0, 10.0, n))
    if preconditioner == "jacobi":
        d = np.diag(A).copy()
        psolve = lambda w: w / d   # noqa: E731
    elif preconditioner == "dense":
        inverse = np.linalg.inv(A + 0.1 * gen.standard_normal((n, n)))
        psolve = lambda w: inverse @ w   # noqa: E731
    else:
        psolve = lambda w: w.copy()   # noqa: E731
    return (lambda x: A @ x), psolve, gen.standard_normal(n)


@pytest.mark.parametrize("seed, n, preconditioner, rtol, restart, maxiter", [
    (1, 40, "jacobi", 1e-11, 60, 10),
    (2, 40, "jacobi", 1e-13, 5, 20),
    (3, 30, "dense", 1e-14, 3, 10),
    (4, 25, "identity", 1e-8, 4, 3),
    (5, 50, "identity", 1e-14, 3, 1),
])
def test_gmres_matches_scipy_bit_for_bit(seed, n, preconditioner, rtol,
                                         restart, maxiter):
    matvec, psolve, b = _system(seed, n, preconditioner)
    x, info, _, _ = gmres(matvec, psolve, b, rtol=rtol, restart=restart,
                          maxiter=maxiter)
    op = sparse_linalg.LinearOperator((n, n), matvec=matvec)
    M = sparse_linalg.LinearOperator((n, n), matvec=psolve)
    x_ref, info_ref = sparse_linalg.gmres(op, b, M=M, rtol=rtol, atol=0.0,
                                          restart=restart, maxiter=maxiter)
    assert np.array_equal(x, x_ref)
    assert info == info_ref


@pytest.mark.parametrize("f, a, b", [
    (lambda x: math.cos(x) - x, 0.0, 1.0),
    (lambda x: x**3 - 2.0, 1.0, 2.0),
    (lambda x: math.tanh(5.0 * (x - 0.3)), -1.0, 2.5),
    (lambda x: (x - 0.7) ** 3, -0.4, 2.9),
    (lambda x: math.sin(20.0 * x) + 0.3, 0.1, 0.25),
])
@pytest.mark.parametrize("xtol, rtol", [(1e-14, 8.9e-16), (1e-10, 1e-10)])
def test_brent_matches_scipy_bit_for_bit(f, a, b, xtol, rtol):
    ours, theirs = [], []

    def counted(calls):
        def g(x):
            calls.append(x)
            return f(x)
        return g

    try:
        root_ref = optimize.brentq(counted(theirs), a, b, xtol=xtol, rtol=rtol)
    except RuntimeError:    # the triple root at 0.7 exhausts 100 steps
        with pytest.raises(SolverError, match="did not converge"):
            radial._brentq(counted(ours), a, b, f(a), f(b), xtol=xtol,
                           rtol=rtol)
    else:
        root = radial._brentq(counted(ours), a, b, f(a), f(b), xtol=xtol,
                              rtol=rtol)
        assert root == root_ref
    # scipy evaluates both ends first; the port is given them
    assert ours == theirs[2:]
