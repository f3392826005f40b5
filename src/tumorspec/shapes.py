"""Truncated Fourier representation of boundary perturbations.

A shape is the function rho on the unit circle describing the boundary
r = R (1 + rho(theta)). Coefficients are stored for k >= 0 only; negative
modes are implied by reality, which makes the reality invariant structural.
Admissibility means sup |rho| < 1/4, the bound under which the perturbed
boundary is a valid star-shaped curve.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DomainValidityError, ValidationError

ADMISSIBLE_SUP_NORM = 0.25
SUP_NORM_OVERSAMPLE = 8     # samples per retained mode when taking sup |rho|


@dataclass(frozen=True)
class ShapeState:
    coeffs: np.ndarray          # complex, index k = 0..n_modes
    radius_scale: float

    def __post_init__(self):
        if not 0 < self.radius_scale < np.inf:
            raise ValidationError("radius_scale must be positive and finite")
        # a read-only copy, so the checks below keep holding
        c = np.array(self.coeffs, dtype=complex)
        if c.ndim != 1 or len(c) == 0:
            raise ValidationError("coeffs must be a nonempty 1-D array")
        if not np.all(np.isfinite(c)):
            raise ValidationError("shape coefficients must be finite")
        if abs(c[0].imag) > 1e-14 * max(1.0, abs(c[0])):
            raise ValidationError("mode zero must be real")
        c.flags.writeable = False
        object.__setattr__(self, "coeffs", c)

    @property
    def n_modes(self):
        """Highest retained mode."""
        return len(self.coeffs) - 1

    @classmethod
    def zero(cls, n_modes, radius_scale):
        return cls(coeffs=np.zeros(n_modes + 1, dtype=complex),
                   radius_scale=radius_scale)

    @classmethod
    def from_modes(cls, modes, radius_scale, n_modes=None):
        """Build from (k, amplitude, phase) triples: sum of amp*cos(k theta + phase)."""
        modes = list(modes)
        if n_modes is None:
            # floored at 0 so that a negative k fails the range check below
            n_modes = max([0] + [k for k, _, _ in modes])
        c = np.zeros(n_modes + 1, dtype=complex)
        for k, amp, phase in modes:
            if k < 0 or k > n_modes:
                raise ValidationError(f"mode {k} out of range 0..{n_modes}")
            if k == 0:
                c[0] += amp * np.cos(phase)
            else:
                c[k] += 0.5 * amp * np.exp(1j * phase)
        return cls(coeffs=c, radius_scale=radius_scale)

    def coeff(self, k):
        """Fourier coefficient at any integer k (reality supplies k < 0)."""
        k = int(k)
        if abs(k) > self.n_modes:
            return 0.0 + 0.0j
        return complex(self.coeffs[k]) if k >= 0 else complex(np.conj(self.coeffs[-k]))

    def spectrum(self, n_theta):
        """The rfft of rho on n_theta angles, which must resolve every mode
        (n_theta > 2 n_modes): the coefficients times n_theta, zero-padded."""
        if n_theta <= 2 * self.n_modes:
            raise ValidationError(
                f"n_theta={n_theta} cannot resolve {self.n_modes} modes")
        spec = np.zeros(n_theta // 2 + 1, dtype=complex)
        spec[:self.n_modes + 1] = self.coeffs
        return spec * n_theta

    def to_grid(self, n_theta):
        """Sample rho on n_theta equispaced angles."""
        with np.errstate(over="ignore", invalid="ignore"):
            values = np.fft.irfft(self.spectrum(n_theta), n=n_theta)
        if not np.all(np.isfinite(values)):
            raise ValidationError(
                f"the samples of rho on {n_theta} angles overflow double precision")
        return values

    def sup_norm(self):
        n = max(64, SUP_NORM_OVERSAMPLE * (self.n_modes + 1))
        n += n % 2
        return float(np.max(np.abs(self.to_grid(n))))

    def require_admissible(self):
        s = self.sup_norm()
        if s >= ADMISSIBLE_SUP_NORM:
            raise DomainValidityError(
                f"shape sup-norm {s:.4g} >= {ADMISSIBLE_SUP_NORM}; outside the "
                "admissible neighbourhood")

    def amplitude(self, k):
        """Real amplitude of the cos(k theta) component (2|coeff| for k > 0)."""
        k = abs(int(k))
        if k == 0:
            return abs(float(self.coeffs[0].real))
        return 2.0 * abs(self.coeff(k))

