"""Bit-for-bit agreement of the Brent port with scipy.

The steady-radius artifacts depend on the order of the floating-point
operations in :func:`tumorspec.radial._brentq`, which follows scipy's
``brentq``. This check runs where scipy is installed (the ``bench`` extra,
``scipy>=1.10``) and is skipped elsewhere.
"""

import math

import pytest

from tumorspec import radial
from tumorspec.errors import SolverError

pytest.importorskip("scipy", minversion="1.10")
optimize = pytest.importorskip("scipy.optimize")


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
