"""Parameter schedules and spectral diagnostics.

Schedules map the sample size n to regularization strength, cell count,
and landmark count for a problem described by :class:`ModelParams`
(smoothness r, capacity gamma, norm R, noise scale sigma). All constant
factors are exactly 1, so slope measurements downstream are constant-free.

Diagnostics: empirical effective dimension of a Gram matrix, the
finite-sample inflation factor b_quantity, a sufficient-n calculator, and
the exact identity relating local effective dimensions to the global one.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import kernels, linalg
from .exceptions import ContractError


@dataclass(frozen=True)
class ModelParams:
    """Regularity and noise description of a learning problem.

    r is the smoothness exponent, gamma the capacity exponent (eigenvalue
    decay), R the target norm bound and sigma the noise scale. Every
    schedule reads r; a schedule at another smoothness takes
    ``dataclasses.replace(params, r=...)``, which checks r again.
    """

    r: float
    gamma: float
    R: float = 1.0
    sigma: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "r", _exponent(self.r, "r"))
        object.__setattr__(self, "gamma", _exponent(self.gamma, "gamma", high=1))
        for name in ("R", "sigma"):
            object.__setattr__(self, name, kernels._real(getattr(self, name), name))


def _exponent(value, name: str, high: float = 0.5) -> float:
    """value as a float if it is a real number in (0, high], read as
    ``kernels._real`` reads it."""
    real = kernels._number(value)
    if isinstance(real, numbers.Real) and 0 < real <= high:
        return float(real)
    bound = "1/2" if high == 0.5 else f"{high:g}"
    raise ContractError(f"{name}={value!r} must lie in (0, {bound}]")


def _power(n: int, num: float, den: float) -> float:
    """n^(num/den) through log2, exact when everything lands on dyadics."""
    return 2.0 ** (math.log2(n) * num / den)


_SNAP = 1e-9


def _snap(x: float, rounding) -> int:
    """``rounding`` (math.floor or math.ceil) that treats values within a hair
    of an integer as that integer."""
    nearest = round(x)
    if abs(x - nearest) <= _SNAP * max(1.0, abs(x)):
        return int(nearest)
    return rounding(x)


def lambda_schedule(n: int, params: ModelParams, noise_scaled: bool = False) -> float:
    """Regularization strength n^{-1/(2r+1+gamma)}, capped at 1.

    With ``noise_scaled`` the base 1/n becomes sigma^2/(R^2 n), a variant
    useful when the noise-to-signal ratio is far from 1; the default is the
    pure-n form.
    """
    n = kernels._count(n, "n")
    den = 2 * params.r + 1 + params.gamma
    value = _power(n, -1.0, den)
    if noise_scaled:
        # factored so sigma = R reduces exactly to the pure-n schedule
        value *= (params.sigma / params.R) ** (2.0 / den)
    return min(1.0, value)


def m_schedule(n: int, params: ModelParams) -> int:
    """Cell count floor(n^{2r/(2r+1+gamma)}), at least 1.

    Powers within 1e-9 of an integer count as exact before flooring, so
    grid sizes like 1024^0.4 = 16 do not slip to 15 through roundoff.
    """
    n, r = kernels._count(n, "n"), params.r
    return max(1, _snap(_power(n, 2 * r, 2 * r + 1 + params.gamma), math.floor))


def l_schedule(n: int, params: ModelParams) -> int:
    """Landmark count ceil(n^{(1+gamma)/(2r+1+gamma)}), with the same
    near-integer snapping as m_schedule before the ceiling."""
    n = kernels._count(n, "n")
    exact = _power(n, 1 + params.gamma, 2 * params.r + 1 + params.gamma)
    return max(1, _snap(exact, math.ceil))


def rate_exponent(params: ModelParams) -> float:
    """Predicted MISE decay exponent (2r+1)/(2r+1+gamma).

    The expected log-log slope of MISE against n is the negative of this.
    Strictly decreasing in gamma at fixed r.
    """
    return (2 * params.r + 1) / (2 * params.r + 1 + params.gamma)


def effective_dimension(k: np.ndarray, lam: float, kappa_sq: float = 1.0) -> float:
    """Empirical effective dimension sum_i mu_i / (mu_i + lam).

    mu_i are the eigenvalues of K / (n kappa_sq); a kappa_sq other than 1
    folds the kernel bound into the operator. Negative eigenvalues from
    roundoff are clipped to zero, so the result is bounded by rank(K).
    """
    lam = kernels._real(lam, "lam")
    kappa_sq = kernels._real(kappa_sq, "kappa_sq")
    k = np.asarray(k, dtype=float)
    scale = 1.0 / k.shape[0] / kappa_sq
    return effective_dimension_from_spectrum(linalg.eigh(k * scale).eigenvalues, lam)


def effective_dimension_from_spectrum(mu, lam: float) -> float:
    """Effective dimension of an operator given its eigenvalues directly."""
    lam = kernels._real(lam, "lam")
    mu = np.maximum(np.asarray(mu, dtype=float), 0.0)
    return float(np.sum(mu / (mu + lam)))


def b_quantity(n: int, lam: float, eff_dim: float) -> float:
    """Finite-sample inflation factor 1 + (2/(n lam) + sqrt(N/(n lam)))^2.

    Approaches 1 from above as n lam grows; always at least 1.
    """
    n, lam = kernels._count(n, "n"), kernels._real(lam, "lam")
    eff_dim = kernels._real(eff_dim, "eff_dim", zero=True)
    t = 2.0 / (n * lam) + math.sqrt(eff_dim / (n * lam))
    return 1.0 + t * t


def n0_sufficient(m: int, params: ModelParams, p_max: float, c_gamma: float) -> int:
    """Sufficient sample size for m cells, rounded up.

    (4m)^{(2r+gamma+1)/(2r)} * max((R/sigma)^{2/(2r+gamma)},
    (p_max*C_gamma)^{(2r+gamma+1)/(2r)} * (R/sigma)^{2(gamma+1)/(2r)}).
    Doubling m multiplies the result by 2^{(2r+gamma+1)/(2r)} before
    rounding; R = sigma makes it independent of both. A bound beyond the
    float range raises ContractError.
    """
    m = kernels._count(m, "m")
    p_max, c_gamma = kernels._real(p_max, "p_max"), kernels._real(c_gamma, "C_gamma")
    r, g = params.r, params.gamma
    expo = (2 * r + g + 1) / (2 * r)
    ratio = params.R / params.sigma
    try:
        first = ratio ** (2 / (2 * r + g))
        second = (p_max * c_gamma) ** expo * ratio ** (2 * (g + 1) / (2 * r))
        return math.ceil((4 * m) ** expo * max(first, second))
    except OverflowError:
        raise ContractError(f"the sufficient n for m={m} exceeds the float range") from None


def effective_dimension_sum_check(local_spectra, p, lam: float):
    """Exact identity: sum_j N(T_j, p_j lam) = N(T, lam).

    T is the weighted direct sum whose spectrum is the union over cells of
    {mu / p_j}. Returns (lhs, rhs, gap); the gap is zero up to roundoff
    for any positive spectra and any positive weights summing to 1.
    """
    lam = kernels._real(lam, "lam")
    p = np.asarray(p, dtype=float)
    if len(local_spectra) != p.shape[0]:
        raise ContractError("need one weight per local spectrum")
    if not np.all(p > 0):
        raise ContractError("weights must be positive")
    if abs(p.sum() - 1.0) > 1e-12:
        raise ContractError(f"weights sum to {p.sum()!r}, not 1")
    lhs = 0.0
    rhs = 0.0
    for spectrum, pj in zip(local_spectra, p):
        mu = np.asarray(spectrum, dtype=float)
        lhs += effective_dimension_from_spectrum(mu, pj * lam)
        rhs += effective_dimension_from_spectrum(mu / pj, lam)
    return lhs, rhs, abs(lhs - rhs)


def local_dimension_diagnostic(local_grams, p, lam: float):
    """Plug-in comparison of m * sum_j p_j * N(K_j, lam) against N(K, m lam).

    Empirical, non-certifying: it reports the two numbers for inspection
    and cannot verify the asymptotic compatibility claim they relate to.
    The global matrix is assembled as the direct sum of the local Grams.
    """
    lam = kernels._real(lam, "lam")
    p = np.asarray(p, dtype=float)
    m = len(local_grams)
    if m != p.shape[0]:
        raise ContractError("need one weight per local Gram")
    lhs = 0.0
    spectra = []
    total = 0
    for k, pj in zip(local_grams, p):
        k = np.asarray(k, dtype=float)
        nj = k.shape[0]
        total += nj
        mu = np.maximum(linalg.eigh(k / nj).eigenvalues, 0.0) if nj else []
        spectra.append(np.asarray(mu))
        lhs += pj * effective_dimension_from_spectrum(mu, lam)
    lhs *= m
    pooled = np.concatenate([s for s in spectra if s.size]) if total else np.array([])
    rhs = effective_dimension_from_spectrum(pooled, m * lam)
    return lhs, rhs
