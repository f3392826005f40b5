"""Nutrient consumption models.

A model is the scalar function f appearing on the right-hand side of the
nutrient equation: a polynomial f(u) = c1 u + c2 u**2 + ... with zero
constant term, so f vanishes at zero and f and f' are coefficient arrays. The
identity f(u) = u is the polynomial with c1 = 1. The coefficients may have
either sign, but f must be strictly increasing on the range the solvers
visit: f' > 0 on [0, 1.5] is checked at construction time on a sampled grid.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError

_VALIDATION_SAMPLES = 1024
_VALIDATION_MARGIN = 0.5


@dataclass(frozen=True)
class NutrientModel:
    coefficients: tuple
    # ascending-power coefficient arrays of f and f'
    f_coeffs: np.ndarray = field(init=False, repr=False, compare=False)
    fprime_coeffs: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.coefficients:
            raise ValidationError("polynomial model needs coefficients")
        coeffs = np.concatenate(([0.0], np.asarray(self.coefficients, dtype=float)))
        if not np.all(np.isfinite(coeffs)):
            raise ValidationError("polynomial coefficients must be finite")
        deriv = coeffs[1:] * np.arange(1, len(coeffs))
        object.__setattr__(self, "f_coeffs", coeffs)
        object.__setattr__(self, "fprime_coeffs", deriv)
        self._validate()

    def _validate(self):
        # f' > 0 on [0, 1 + margin]: solver iterates can slightly exceed 1.
        grid = np.linspace(0.0, 1.0 + _VALIDATION_MARGIN, _VALIDATION_SAMPLES)
        if np.any(self.fprime_at(grid) <= 0.0):
            raise ValidationError(
                "nutrient model must have strictly positive derivative on "
                f"[0, {1.0 + _VALIDATION_MARGIN}]"
            )

    def f_at(self, u):
        return _horner(u, self.f_coeffs)

    def fprime_at(self, u):
        return _horner(u, self.fprime_coeffs)

    @property
    def is_linear(self):
        """Whether f'' = 0, so that one Newton step solves a collocation system."""
        return not np.any(self.fprime_coeffs[1:])

    @property
    def f_of_one(self):
        return float(self.f_at(1.0))


def _horner(x, c):
    """The polynomial with ascending coefficients c at x, in the operations
    of numpy's polyval (bit for bit) without its argument handling."""
    c0 = c[-1] + x * 0
    for i in range(2, len(c) + 1):
        c0 = c[-i] + c0 * x
    return c0


def identity_model():
    return polynomial_model(1.0)


def polynomial_model(*coefficients):
    """Model f(u) = c1*u + c2*u**2 + ... (zero constant term is implied)."""
    return NutrientModel(coefficients=tuple(float(c) for c in coefficients))


def parse_model_spec(spec):
    """Parse a CLI model spec: 'identity' or 'poly:c1,c2,...'."""
    if spec == "identity":
        return identity_model()
    if spec.startswith("poly:"):
        try:
            coeffs = [float(c) for c in spec[len("poly:"):].split(",")]
        except ValueError as exc:
            raise ValidationError(f"bad polynomial coefficients in {spec!r}") from exc
        return polynomial_model(*coeffs)
    raise ValidationError(f"bad model spec {spec!r}; expected 'identity' or 'poly:c1,c2,...'")
