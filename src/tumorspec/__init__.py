"""Moving-boundary tumour growth on the disk.

Steady radial equilibria, the stability spectrum of the linearized boundary
dynamics, and linear / fully nonlinear shape evolution with spectral field
solves on the perturbed domain.
"""

from .dynamics import (PhiResult, Trajectory, TrajectoryPoint,
                       evolve_nonlinear, phi)
from .errors import (BracketError, DomainValidityError, SolverError,
                     TumorSpecError, ValidationError)
from .disk import DiskGrid
from .fields import (DiskField, center_value, harmonic_residual,
                     solve_nutrient, solve_pressure)
from .linear import (GrowthFit, evolve_linear, fit_growth_rate,
                     linearized_mode_profile)
from .models import (NutrientModel, identity_model, parse_model_spec,
                     polynomial_model)
from .radial import (RadialProfile, SteadyState, appendix_series,
                     boundary_ratio, solve_U, solve_u_n, steady_radius)
from .shapes import ADMISSIBLE_SUP_NORM, ShapeState
from .spectrum import (DEFAULT_K_MAX, ModelParameters, SpectrumTable,
                       build_table, g_star, l_G_index)

__version__ = "0.1.0"

__all__ = [
    "ADMISSIBLE_SUP_NORM", "BracketError", "DEFAULT_K_MAX", "DiskField",
    "DiskGrid", "DomainValidityError", "GrowthFit", "ModelParameters",
    "NutrientModel", "PhiResult", "RadialProfile", "ShapeState", "SolverError",
    "SpectrumTable", "SteadyState", "Trajectory", "TrajectoryPoint",
    "TumorSpecError", "ValidationError", "appendix_series", "boundary_ratio",
    "build_table", "center_value", "evolve_linear", "evolve_nonlinear",
    "fit_growth_rate", "g_star", "harmonic_residual", "identity_model",
    "l_G_index", "linearized_mode_profile", "parse_model_spec", "phi",
    "polynomial_model", "solve_U", "solve_nutrient", "solve_pressure",
    "solve_u_n", "steady_radius",
]
