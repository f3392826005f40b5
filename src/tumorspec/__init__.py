"""Moving-boundary tumour growth on the disk.

Steady radial equilibria, the stability spectrum of the linearized boundary
dynamics, and linear / fully nonlinear shape evolution with spectral field
solves on the perturbed domain.

Each export is imported from its module on first access (PEP 562), so a
command loads only the modules it runs.
"""

import importlib

__version__ = "0.1.0"

_MODULES = {
    "dynamics": ("PhiResult", "Trajectory", "TrajectoryPoint",
                 "evolve_nonlinear", "phi"),
    "errors": ("BracketError", "DomainValidityError", "SolverError",
               "TumorSpecError", "ValidationError"),
    "disk": ("DiskGrid",),
    "fields": ("DiskField", "solve_nutrient", "solve_pressure"),
    "linear": ("GrowthFit", "evolve_linear", "fit_growth_rate"),
    "models": ("NutrientModel", "identity_model", "parse_model_spec",
               "polynomial_model"),
    "radial": ("RadialProfile", "SteadyState", "appendix_series",
               "boundary_ratio", "solve_U", "solve_u_n", "steady_radius"),
    "shapes": ("ADMISSIBLE_SUP_NORM", "ShapeState"),
    "spectrum": ("DEFAULT_K_MAX", "SpectrumTable", "build_table", "g_star",
                 "l_G_index"),
}
_MODULE_OF = {name: module for module, names in _MODULES.items()
              for name in names}
__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    if name in _MODULES:   # the submodules stay reachable as attributes
        return importlib.import_module(f".{name}", __name__)
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value
