"""Stability spectrum of the linearized boundary dynamics.

For each integer mode k the linearized evolution acts diagonally with

    mu_k = (-|k|**3 + |k|) / R**3 - G * d_k,
    d_k  = (A/2) * u_k'(1)/u_k(1) + A - f(1),

where the boundary ratios come from :mod:`tumorspec.radial`. From the table we
derive the per-mode instability thresholds G_k, their minimum G* over modes
with negative denominator, a stability classification, and the smallest
periodicity index l for which every retained mode decays at least as fast as
mode zero.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import SolverError, ValidationError
from .models import NutrientModel
from .radial import boundary_ratio, solve_U, steady_radius

DENOM_TOL = 1e-12
DEFAULT_K_MAX = 64


@dataclass(frozen=True)
class SpectrumTable:
    k_max: int
    R: float
    A: float
    G: float
    f_of_one: float
    ratio: np.ndarray       # ratio[k] = u_k'(1)/u_k(1), k = 0..k_max
    lam: np.ndarray         # lam[k] = -k**3 / R**3
    mu: np.ndarray          # mu[k], k = 0..k_max
    denom: np.ndarray       # d_k
    g_threshold: np.ndarray  # G_k, nan where the denominator vanishes

    def mu_at(self, k):
        k = abs(int(k))
        if k > self.k_max:
            raise ValidationError(f"mode {k} beyond table range {self.k_max}")
        return float(self.mu[k])


def build_table(A, G, model: NutrientModel, R=None, k_max=DEFAULT_K_MAX):
    """Compute ratios and the full symbol for modes 0..k_max about the
    circle of radius R, the steady radius of A when R is None."""
    f1 = model.f_of_one
    if not 0.0 < A < f1:
        raise ValidationError(f"A must lie in (0, f(1)) = (0, {f1}); got {A}")
    if R is not None and not 0 < R < math.inf:
        raise ValidationError("R must be positive and finite")
    if R is not None and R * R == math.inf:
        raise ValidationError(f"R = {R} overflows double precision when squared")
    if not math.isfinite(G):
        raise ValidationError("G must be finite")
    if k_max < 2:
        raise ValidationError("k_max must be at least 2")
    if R is None:
        steady = steady_radius(A, model)
        R, v0 = steady.R_A, steady.v0
    else:
        v0 = solve_U(R * R, model)

    ks = np.arange(k_max + 1)
    ratio = boundary_ratio(ks, R, v0, model)
    denom = 0.5 * A * ratio + A - f1
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        lam = -ks.astype(float) ** 3 / R**3 + 0.0   # + 0.0 makes lambda_0 0, not -0
        principal = (-ks.astype(float) ** 3 + ks) / R**3
        mu = principal - G * denom
        g_thr = np.where(np.abs(denom) > DENOM_TOL, principal / denom, np.nan)
    if not np.all(np.isfinite(lam) & np.isfinite(mu)) or np.any(np.isinf(g_thr)):
        raise ValidationError(
            f"the spectrum at R = {R}, G = {G} overflows double precision")

    return SpectrumTable(k_max=k_max, R=float(R), A=A, G=G,
                         f_of_one=f1, ratio=ratio, lam=lam, mu=mu,
                         denom=denom, g_threshold=g_thr)


def g_star(table: SpectrumTable):
    """Minimum threshold over modes with negative denominator, with its mode.

    The scan is only trusted if the thresholds grow over the last quarter of
    the scanned range, confirming that the minimum was attained inside it.
    """
    candidates = [(float(table.g_threshold[k]), k)
                  for k in range(table.k_max + 1)
                  if table.denom[k] < -DENOM_TOL]
    if not candidates:
        raise SolverError(
            f"no mode with negative denominator up to k_max={table.k_max}; "
            "increase k_max")
    value, k0 = min(candidates)

    tail_start = max(2, table.k_max - max(1, table.k_max // 4))
    tail = [table.g_threshold[k] for k in range(tail_start, table.k_max + 1)
            if not math.isnan(table.g_threshold[k]) and table.denom[k] < 0]
    if len(tail) >= 2 and np.any(np.diff(tail) <= 0):
        raise SolverError(
            "thresholds are not increasing over the scan tail; "
            "increase k_max to certify attainment of the minimum")
    return float(value), int(k0)


def l_G_index(table: SpectrumTable):
    """Smallest l >= 2 with mu_k <= mu_0 for all retained k >= l.

    Modes beyond the table are certified by the cubic decay bound: the ratio
    term is bounded by its k = 0 value, so for k > k_max

        mu_k <= (-k**3 + k)/R**3 - G * min(d_0, A - f(1))

    which must already fall below mu_0 at k = k_max + 1.
    """
    if table.denom[0] <= 0.0:
        raise ValidationError(
            "mode-zero denominator is nonpositive; the assumption that mode "
            "zero decays for all G > 0 fails for this model")
    if table.G <= 0:
        raise ValidationError("the periodicity index is defined for G > 0")
    mu0 = float(table.mu[0])

    k_tail = table.k_max + 1
    d_min = min(float(table.denom[0]), table.A - table.f_of_one)
    tail_bound = (-(k_tail**3) + k_tail) / table.R**3 - table.G * d_min
    if tail_bound > mu0:
        raise SolverError("cannot certify the tail beyond k_max; increase k_max")

    ok_from = table.k_max + 1
    for l in range(table.k_max, 1, -1):
        if table.mu[l] <= mu0:
            ok_from = l
        else:
            break
    if ok_from > table.k_max:
        raise SolverError("no admissible periodicity index up to k_max")
    return max(2, int(ok_from))


def report_dict(table: SpectrumTable):
    """The report of a spectrum run: the symbol, G*, the sign pattern, l_G.

    Mode +-1 is the neutral direction and reported separately; the spectral
    bound maxes the symbol over k = 0 and 2 <= |k| <= k_max. The regime
    labels the vascularisation sign of G and where it lies against G*.
    """
    mus = {k: float(table.mu[k]) for k in [0] + list(range(2, table.k_max + 1))}
    gs = gk = None
    try:
        gs, gk = g_star(table)
    except SolverError:
        pass

    if table.G < 0:
        regime = "high_vascularisation_unstable"
    elif table.G == 0:
        regime = "hele_shaw_stable"
    elif gs is not None and table.G > gs:
        regime = "above_threshold_unstable"
    else:
        regime = "inconclusive_below_threshold"

    out = {
        "R": table.R,
        "A": table.A,
        "G": table.G,
        "k_max": table.k_max,
        "mode_zero_damping_holds": bool(table.denom[0] > 0.0),
        "mu": {str(k): float(table.mu[k]) for k in range(table.k_max + 1)},
        "g_star": gs,
        "g_star_mode": gk,
        "unstable_modes": sorted(k for k, v in mus.items() if v > 0),
        "spectral_bound": max(mus.values()),
        "neutral_mode_value": float(table.mu[1]),
        "regime": regime,
    }
    if table.G > 0 and table.denom[0] > 0.0:
        try:
            out["l_G"] = l_G_index(table)
        except SolverError:
            out["l_G"] = None
    else:
        out["l_G"] = None
    return out
