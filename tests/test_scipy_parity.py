"""The steady radius and the Brent oracle against scipy's ``brentq``.

:func:`tumorspec.radial.steady_radius` solves for lam = R**2 and the center
profile together by a bordered Newton iteration. Here scipy's Brent finds
the root of h(lam) = int_0^1 r f(U) dr - A/2 with each h from a center
solve of :func:`tumorspec.radial._solve_center`, and the two radii must
agree. The Brent port in ``oracles``, which checks the steady radius
where scipy is missing, follows scipy's order of floating-point operations
bit for bit. These checks run where scipy is installed (the ``bench``
extra, ``scipy>=1.10``) and are skipped elsewhere.
"""

import math

import pytest

from tumorspec import radial
from tumorspec.errors import SolverError
from tumorspec.models import parse_model_spec

from oracles import brentq

pytest.importorskip("scipy", minversion="1.10")
optimize = pytest.importorskip("scipy.optimize")


@pytest.mark.parametrize("A", [0.15, 0.3, 0.5, 0.7, 0.9])
@pytest.mark.parametrize("spec", ["identity", "poly:1,0.3"])
def test_steady_radius_matches_scipy_brentq(spec, A):
    model = parse_model_spec(spec)

    def h(lam):
        return radial._solve_center(lam, model)[1] - A / 2.0

    lam = optimize.brentq(h, 0.0, radial.R_MAX**2, xtol=1e-300, rtol=1e-15)
    R_A = radial.steady_radius(A, model).R_A
    assert abs(R_A / math.sqrt(lam) - 1.0) <= 1e-13


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
            brentq(counted(ours), a, b, f(a), f(b), xtol=xtol, rtol=rtol)
    else:
        root = brentq(counted(ours), a, b, f(a), f(b), xtol=xtol,
                      rtol=rtol)
        assert root == root_ref
    # scipy evaluates both ends first; the port is given them
    assert ours == theirs[2:]
