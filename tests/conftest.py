import os
from pathlib import Path

import numpy as np
import pytest

import tumorspec
from tumorspec.disk import DiskGrid
from tumorspec.models import identity_model, polynomial_model
from tumorspec.radial import steady_radius
from tumorspec.spectrum import ModelParameters, build_table

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
    return build_table(ModelParameters(A=unit_radius_A, G=1.0, model=id_model),
                       k_max=32)


@pytest.fixture(scope="session")
def small_grid():
    return DiskGrid(n_r=32, n_theta=64)


@pytest.fixture
def rng():
    return np.random.default_rng(20260823)


@pytest.fixture(scope="session")
def package_env():
    """Environment in which a subprocess imports this tumorspec package."""
    src = str(Path(tumorspec.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
