import os
from pathlib import Path

import numpy as np
import pytest

import tumorspec
from tumorspec import fields
from tumorspec.disk import DiskGrid
from tumorspec.models import identity_model, polynomial_model
from tumorspec.radial import steady_radius
from tumorspec.spectrum import build_table

from oracles import identity_steady_A


@pytest.fixture(scope="session")
def id_model():
    return identity_model()


@pytest.fixture(scope="session")
def poly_model():
    # strictly increasing on [0, 1.5]: f(u) = u + 0.3 u^2
    return polynomial_model(1.0, 0.3)


@pytest.fixture(scope="session")
def unit_radius_A():
    """Apoptosis parameter at which the identity steady radius is exactly 1."""
    return identity_steady_A()


@pytest.fixture(scope="session")
def unit_steady(id_model, unit_radius_A):
    return steady_radius(unit_radius_A, id_model)


@pytest.fixture(scope="session")
def unit_table(id_model, unit_radius_A):
    """Identity-model spectrum table at R = R_A = 1, G = 1, modes 0..32."""
    return build_table(A=unit_radius_A, G=1.0, model=id_model, k_max=32)


@pytest.fixture(scope="session")
def small_grid():
    return DiskGrid(n_r=32, n_theta=64)


@pytest.fixture
def count_transforms(monkeypatch):
    """Call it to count np.fft.rfft and irfft from then on: it returns the
    list to which each call appends its name."""
    def start():
        calls = []
        for name in ("rfft", "irfft"):
            transform = getattr(np.fft, name)

            def counted(*args, name=name, transform=transform, **kwargs):
                calls.append(name)
                return transform(*args, **kwargs)

            monkeypatch.setattr(np.fft, name, counted)
        return calls
    return start


@pytest.fixture
def krylov_iterations(monkeypatch):
    """Call it to record the GMRES iterations of each nutrient Krylov solve
    from then on: it returns the list to which each solve appends its
    count."""
    def start():
        iterations = []
        solve = fields.gmres

        def recorded(*args, **kwargs):
            out = solve(*args, **kwargs)
            iterations.append(sum(map(len, out[1])))
            return out

        monkeypatch.setattr(fields, "gmres", recorded)
        return iterations
    return start


@pytest.fixture
def rng():
    return np.random.default_rng(20260823)


@pytest.fixture(scope="session")
def package_env():
    """Environment in which a subprocess imports this tumorspec package."""
    src = str(Path(tumorspec.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
