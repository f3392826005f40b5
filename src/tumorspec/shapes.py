"""Truncated Fourier representation of boundary perturbations.

A shape is the function rho on the unit circle describing the boundary
r = R (1 + rho(theta)). Coefficients are stored for k >= 0 only; negative
modes are implied by reality, which makes the reality invariant structural.
Admissibility means sup |rho| < 1/4, the bound under which the perturbed
boundary is a valid star-shaped curve.
"""

from dataclasses import dataclass, replace

import numpy as np

from .errors import DomainValidityError, ValidationError

ADMISSIBLE_SUP_NORM = 0.25
SUP_NORM_OVERSAMPLE = 8     # samples per retained mode when taking sup |rho|


@dataclass(frozen=True)
class ShapeState:
    n_modes: int
    coeffs: np.ndarray          # complex, index k = 0..n_modes
    radius_scale: float
    periodicity: int = None     # if set, only multiples of this mode are present

    def __post_init__(self):
        if self.radius_scale <= 0:
            raise ValidationError("radius_scale must be positive")
        c = np.asarray(self.coeffs, dtype=complex)
        if c.shape != (self.n_modes + 1,):
            raise ValidationError("coeffs must have length n_modes + 1")
        if not np.all(np.isfinite(c)):
            raise ValidationError("shape coefficients must be finite")
        if abs(c[0].imag) > 1e-14 * max(1.0, abs(c[0])):
            raise ValidationError("mode zero must be real")
        object.__setattr__(self, "coeffs", c)
        if self.periodicity is not None:
            if self.periodicity < 1:
                raise ValidationError("periodicity must be a positive integer")
            k = np.arange(self.n_modes + 1)
            off = (k % self.periodicity != 0) & (k > 0)
            if np.any(np.abs(c[off]) > 1e-14):
                raise ValidationError(
                    f"coefficients off the {self.periodicity}-lattice are nonzero")

    @classmethod
    def zero(cls, n_modes, radius_scale):
        return cls(n_modes=n_modes, coeffs=np.zeros(n_modes + 1, dtype=complex),
                   radius_scale=radius_scale)

    @classmethod
    def from_modes(cls, modes, radius_scale, n_modes=None, periodicity=None):
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
        return cls(n_modes=n_modes, coeffs=c, radius_scale=radius_scale,
                   periodicity=periodicity)

    @classmethod
    def from_grid(cls, values, radius_scale, n_modes=None, periodicity=None):
        values = np.asarray(values, dtype=float)
        n_theta = len(values)
        c_full = np.fft.rfft(values) / n_theta
        if n_modes is None:
            n_modes = n_theta // 2
        c = np.zeros(n_modes + 1, dtype=complex)
        m = min(n_modes, len(c_full) - 1)
        c[:m + 1] = c_full[:m + 1]
        c[0] = c[0].real
        return cls(n_modes=n_modes, coeffs=c, radius_scale=radius_scale,
                   periodicity=periodicity)

    def coeff(self, k):
        """Fourier coefficient at any integer k (reality supplies k < 0)."""
        k = int(k)
        if abs(k) > self.n_modes:
            return 0.0 + 0.0j
        return complex(self.coeffs[k]) if k >= 0 else complex(np.conj(self.coeffs[-k]))

    def to_grid(self, n_theta):
        """Sample rho on n_theta equispaced angles."""
        if n_theta < 2 * self.n_modes + 1:
            raise ValidationError(
                f"n_theta={n_theta} cannot resolve {self.n_modes} modes")
        spec = np.zeros(n_theta // 2 + 1, dtype=complex)
        spec[:self.n_modes + 1] = self.coeffs
        with np.errstate(over="ignore", invalid="ignore"):
            values = np.fft.irfft(spec * n_theta, n=n_theta)
        if not np.all(np.isfinite(values)):
            raise ValidationError(
                f"the samples of rho on {n_theta} angles overflow double precision")
        return values

    def sup_norm(self):
        n = max(64, SUP_NORM_OVERSAMPLE * (self.n_modes + 1))
        n += n % 2
        return float(np.max(np.abs(self.to_grid(n))))

    @property
    def in_admissible_set(self):
        return self.sup_norm() < ADMISSIBLE_SUP_NORM

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

    def with_coeffs(self, coeffs):
        return replace(self, coeffs=np.asarray(coeffs, dtype=complex))


def theta_grid(n_theta):
    return 2.0 * np.pi * np.arange(n_theta) / n_theta
