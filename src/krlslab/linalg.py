"""Dense symmetric linear algebra with explicit numerical contracts.

Thin wrappers over scipy that pin down the behaviors the rest of the
package relies on: eigendecompositions come back sorted descending,
shifted SPD solves factor one copy in place and retry once with a
fixed-size jitter before giving up, and pseudo-inverse solves truncate at a
relative eigenvalue tolerance. Gram-based fits, symmetric by construction,
skip the symmetry check through the private ``_spd_solve``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .exceptions import ContractError, IllConditionedError

SYMMETRY_RTOL = 1e-10
RESIDUAL_RTOL = 1e-10
JITTER_SCALE = 1e-12
PINV_RTOL = 1e-10


@dataclass(frozen=True)
class EigenDecomposition:
    """Eigenvalues sorted descending; eigenvectors[:, i] pairs with eigenvalues[i]."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def _require_symmetric(a: np.ndarray, op: str) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ContractError(f"{op} needs a square matrix, got shape {a.shape}")
    norm = np.linalg.norm(a)
    if not np.isfinite(norm):
        raise ContractError(f"{op} needs a finite matrix")
    gap = np.abs(a - a.T).max() if a.size else 0.0
    if gap > SYMMETRY_RTOL * max(norm, np.finfo(float).tiny):
        raise ContractError(
            f"{op} needs a symmetric matrix; asymmetry {gap:.3e} exceeds "
            f"{SYMMETRY_RTOL:.0e} * frobenius norm {norm:.3e}"
        )
    return a


def eigh(a: np.ndarray) -> EigenDecomposition:
    """Full symmetric eigendecomposition, eigenvalues descending."""
    a = _require_symmetric(a, "eigh")
    w, v = scipy.linalg.eigh(a)
    return EigenDecomposition(w[::-1].copy(), v[:, ::-1].copy())


def spd_solve(a: np.ndarray, shift: float, b: np.ndarray) -> np.ndarray:
    """Solve (a + shift * I) x = b by Cholesky with one jitter retry.

    Parameters
    ----------
    a : symmetric positive semidefinite matrix, left unchanged
    shift : nonnegative diagonal shift
    b : finite right-hand side, vector or matrix

    Raises
    ------
    IllConditionedError
        If factorization (or the residual check) still fails after adding a
        diagonal jitter of 1e-12 * trace(a) / n. The jitter used is attached
        to the exception.
    """
    return _spd_solve(_require_symmetric(a, "spd_solve"), shift, b)


def _spd_solve(a: np.ndarray, shift: float, b: np.ndarray) -> np.ndarray:
    """spd_solve for a float matrix that is symmetric by construction."""
    if shift < 0:
        raise ContractError("shift must be nonnegative")
    b = np.asarray(b, dtype=float)
    if b.shape[0] != a.shape[0]:
        raise ContractError("right-hand side length does not match matrix")
    if not np.all(np.isfinite(b)):
        raise ContractError("right-hand side must be finite")
    jitter = JITTER_SCALE * float(np.trace(a)) / a.shape[0]
    for diag in (shift, shift + jitter):
        try:
            return _cholesky_solve(a, diag, b)
        except np.linalg.LinAlgError as exc:
            error = exc
    raise IllConditionedError(
        f"shifted solve failed even with diagonal jitter {jitter:.3e}: {error}",
        jitter=jitter,
    ) from error


def _cholesky_solve(a: np.ndarray, diag: float, b: np.ndarray) -> np.ndarray:
    """One Cholesky solve of (a + diag * I) x = b, leaving a unchanged.

    Raises LinAlgError when factorization fails or when the residual is not
    within RESIDUAL_RTOL * |b|, a NaN residual included.
    """
    m = a.copy().T  # Fortran-ordered, so LAPACK factors it without a copy
    m.flat[:: a.shape[0] + 1] += diag
    c = scipy.linalg.cho_factor(m, lower=True, overwrite_a=True, check_finite=False)
    x = scipy.linalg.cho_solve(c, b, check_finite=False)
    residual = np.linalg.norm(a @ x + diag * x - b)
    if not residual <= RESIDUAL_RTOL * max(np.linalg.norm(b), np.finfo(float).tiny):
        raise np.linalg.LinAlgError("residual above tolerance")
    return x


def pinv_solve(a: np.ndarray, b: np.ndarray, rel_tol: float = PINV_RTOL) -> np.ndarray:
    """Least-squares solve a x = b through a truncated eigendecomposition.

    Eigenvalues at or below rel_tol times the largest eigenvalue are dropped.
    An all-zero matrix yields the zero solution rather than an error.
    """
    if rel_tol <= 0:
        raise ContractError("rel_tol must be positive")
    dec = eigh(a)
    b = np.asarray(b, dtype=float)
    if b.shape[0] != a.shape[0]:
        raise ContractError("right-hand side length does not match matrix")
    w, v = dec.eigenvalues, dec.eigenvectors
    top = w[0] if w.size else 0.0
    if top <= 0.0:
        return np.zeros_like(b)
    keep = w > rel_tol * top
    vk = v[:, keep]
    coeffs = (vk.T @ b).T / w[keep]
    return vk @ coeffs.T
