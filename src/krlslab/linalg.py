"""Dense symmetric linear algebra with explicit numerical contracts.

Thin wrappers over scipy that pin down the behaviors the rest of the
package relies on: eigendecompositions come back sorted descending,
shifted SPD solves retry once with a fixed-size jitter before giving up,
and pseudo-inverse solves truncate at a relative eigenvalue tolerance.
Right-hand sides are checked before any factorization.

Every product, dot and norm here, as everywhere in krlslab but the Gram
matrix's x @ x.T, goes through scipy's BLAS, the library its LAPACK calls use. numpy and scipy each load
their own OpenBLAS with its own thread pool; a fit or predict that
alternated between them left one pool's workers spinning on the cores the
other needed. numpy keeps the elementwise work.

``_cholesky_solve`` is the one Cholesky solve. It consumes either a
C-ordered float64 matrix whose upper triangle holds K, which it factors in
place by dpotrf, or a float32 K in Rectangular Full Packed storage (RFP,
Gustavson et al., ACM TOMS 37(2), 2010; layout in
``krls._packed_min_gram32``), which it factors in place by spftrf: n (n + 1)
/ 2 entries, 2 n^2 + O(n) bytes, and each of its three blocks contiguous,
so the triangular solves run on them without a copy. It accepts x only
within RESIDUAL_RTOL * |b| by an exact float64 product with K that the
caller hands it. Gram-based fits, symmetric by construction, skip the
symmetry check through the private ``_spd_solve`` and hand it a function
that builds the matrix, so that a dense fit holds one n x n buffer and the
jitter retry factors a rebuilt Gram; the public ``spd_solve`` factors a
copy. Brownian fits, KRLS and whitened Nystrom alike, hand it a packed
float32 matrix with an exact float64 product (``krls._min_solve``). Only
a float32 factor is refined in float64, as LAPACK's dsposv does (Buttari
et al., IJHPCA 2007); when that fails, the caller frees it and solves in
float64, so a fit never holds more than that solve would.

Nystrom fits of every family but the brownian one solve their normal
equations by ``_psd_solve``, which falls back to ``_pinv_solve``, the
public ``pinv_solve`` less its checks; both read an upper triangle only.

Every LAPACK call of the package is made here.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.linalg import blas, lapack

from . import kernels
from .exceptions import ContractError, EmptyInputError, IllConditionedError

SYMMETRY_RTOL = 1e-10
RESIDUAL_RTOL = 1e-10
JITTER_SCALE = 1e-12
PINV_RTOL = 1e-10
# Most correction steps of a float32 Cholesky solve, as in LAPACK's dsposv.
REFINE_STEPS = 30


@dataclass(frozen=True)
class EigenDecomposition:
    """Eigenvalues sorted descending; eigenvectors[:, i] pairs with eigenvalues[i]."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def _norm(a: np.ndarray) -> float:
    """Frobenius norm by scipy's dnrm2, over the entries in memory order."""
    return float(blas.dnrm2(np.ravel(a, order="K"))) if a.size else 0.0


def _require_symmetric(a: np.ndarray, op: str) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ContractError(f"{op} needs a square matrix, got shape {a.shape}")
    norm = _norm(a)
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
    w, v = scipy.linalg.eigh(_require_symmetric(a, "eigh"), check_finite=False)
    return EigenDecomposition(w[::-1].copy(), v[:, ::-1].copy())


def _rhs(b, n: int) -> np.ndarray:
    """The right-hand side as a finite float vector of n entries, or matrix
    of n rows and at least one column."""
    b = np.asarray(b, dtype=float)
    if b.ndim not in (1, 2) or b.shape[1:] == (0,):
        raise ContractError("right-hand side must be a vector or a matrix of at least "
                            f"one column, got shape {b.shape}")
    if b.shape[0] != n:
        raise ContractError("right-hand side length does not match matrix")
    if not np.all(np.isfinite(b)):
        raise ContractError("right-hand side must be finite")
    return b


def spd_solve(a: np.ndarray, shift: float, b: np.ndarray) -> np.ndarray:
    """Solve (a + shift * I) x = b by Cholesky with one jitter retry.

    Parameters
    ----------
    a : symmetric positive semidefinite matrix, at least 1 x 1, left
        unchanged: the solve factors a copy of it
    shift : nonnegative diagonal shift
    b : finite right-hand side, vector or matrix

    Raises
    ------
    EmptyInputError
        If a is 0 x 0.
    IllConditionedError
        If factorization (or the residual check) still fails after adding a
        diagonal jitter of 1e-12 * trace(a) / n to a fresh copy. The jitter
        used is attached to the exception.

    The retry rescues only right-hand sides that lie nearly in the range of
    a: a component in the null space of a singular a comes back divided by
    the jitter, which misses the residual tolerance.
    """
    shift = kernels._real(shift, "shift", zero=True)
    a = _require_symmetric(a, "spd_solve")
    if a.shape[0] == 0:
        raise EmptyInputError("spd_solve needs a nonempty matrix")
    return _spd_solve(a.copy, shift, b)


def _spd_solve(build: Callable[[], np.ndarray], shift: float, b) -> np.ndarray:
    """spd_solve for a matrix that build() returns and the solve consumes.

    build() must return a fresh, C-ordered, nonempty float matrix that is
    exactly symmetric by construction. It is called once, and once more
    for the jitter retry, after the first matrix has been dropped: a dense
    fit never holds two n x n matrices. shift must be nonnegative and finite.
    """
    a = build()
    b = _rhs(b, a.shape[0])
    jitter = JITTER_SCALE * float(np.trace(a)) / a.shape[0]
    try:
        return _cholesky_solve(a, shift, b, _lower_product(a))
    except np.linalg.LinAlgError:
        pass
    del a  # consumed by the failed attempt; free it before the rebuild
    a = build()
    try:
        return _cholesky_solve(a, shift + jitter, b, _lower_product(a))
    except np.linalg.LinAlgError as error:
        raise IllConditionedError(
            f"shifted solve failed even with diagonal jitter {jitter:.3e}: {error}",
            jitter=jitter,
        ) from error


def _psd_solve(build: Callable[[], np.ndarray], b, apply) -> np.ndarray:
    """Solve K x = b for a positive semidefinite K, apply(v) = K v, whose
    upper triangle build() returns, C-ordered float64: by ``_cholesky_solve``
    on one build(), or else by ``_pinv_solve`` on a second."""
    try:
        return _cholesky_solve(build(), 0.0, b, apply)
    except np.linalg.LinAlgError:
        pass  # leave the except clause first: its traceback holds the factor
    return _pinv_solve(build(), b)


def _lower_product(a: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """v -> K v for the exactly symmetric matrix K that a holds, valid once
    ``_cholesky_solve`` has consumed a: potrf leaves a's strict lower
    triangle holding K, and K's diagonal is saved here."""
    d = a.diagonal().copy()

    def apply(v):
        # The upper triangle of a.T is a's strict lower one over the
        # factor's diagonal: symv/symm read it in place, and (d - diagonal)
        # * v swaps K's diagonal in. The product runs on the BLAS that potrf
        # just used. With numpy's matmul here and in the Nystrom normal
        # equations, each fit woke both pools: on a 2-core VM, the
        # cells_n32768 benchmark's fit_s fell from 3.20 to 1.89 s (medians
        # of 10 alternating pairs) once all of them ran on scipy's.
        if v.ndim == 1:
            product = blas.dsymv(1.0, a.T, v)
        else:
            product = blas.dsymm(1.0, a.T, v)
        product += ((d - a.diagonal()) * v.T).T
        return product

    return apply


def _cholesky_solve(k: np.ndarray, shift: float, b: np.ndarray,
                    apply: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """Solve (K + shift * I) x = b from a Cholesky factor of k, consuming k.

    k holds K, rounded to k's dtype, in one of two layouts. A float64 k is
    a C-ordered n x n matrix whose upper triangle holds K; nothing below its
    diagonal is read or written, and dpotrf writes the factor over that
    triangle. A float32 k is K in RFP storage, C-ordered of shape (m + 1,
    m / 2) for an even m that is n, or n + 1 with K padded by one decoupled
    point (see ``krls._packed_min_gram32``); spftrf writes the factor over
    it. The shift goes onto the diagonal first, through strided slices.
    Triangular solves on the factor (``_triangular_solve``) give x. apply(v)
    must return K v in float64, and x is returned only if the residual
    b - apply(x) - shift * x is within RESIDUAL_RTOL * |b|_2.

    A float32 factor is refined as in LAPACK's dsposv, for a vector b and an
    entrywise nonnegative K, so that |K|_inf = max(apply(1)). Each step
    solves the system for the float64 residual on the factor and adds the
    correction to x, until |r|_inf <= |x|_inf * |K + shift * I|_inf * eps *
    sqrt(n). A float64 factor is not refined: apply runs once.

    Raises LinAlgError when the factorization fails, when the residual is
    above tolerance, a NaN included, or, for float32, when a step does not
    halve the residual's largest entry or REFINE_STEPS corrections leave it
    above the stopping bound. The factor lives as long as that exception,
    so a caller drops it before it solves otherwise.
    """
    n = b.shape[0]
    if k.dtype == np.float32:
        half = k.shape[1]
        # the diagonals of K[half:, half:] and K[:half, :half]
        k[:half].reshape(-1)[:: half + 1] += np.float32(shift)
        k[1:half + 1].reshape(-1)[:: half + 1] += np.float32(shift)
        packed, info = lapack.spftrf(2 * half, k.reshape(-1), transr="T", uplo="L",
                                     overwrite_a=1)
        routine, factor = "spftrf", packed.reshape(k.shape)
    else:
        k.flat[:: n + 1] += shift
        # k.T is Fortran-ordered, so dpotrf factors it without a copy; its
        # lower triangle is k's upper one.
        factor, info = lapack.dpotrf(k.T, lower=1, clean=0, overwrite_a=1)
        routine = "dpotrf"
    if info != 0:
        raise np.linalg.LinAlgError(f"{routine} failed with info {info}")
    x = _triangular_solve(factor, b).astype(float, copy=False)
    residual = b - apply(x) - shift * x
    if k.dtype == np.float32:
        bound = (apply(np.ones(n)).max() + shift) * np.finfo(float).eps * np.sqrt(n)
        last = np.inf
        for step in range(REFINE_STEPS + 1):
            size = np.abs(residual).max()
            if size <= np.abs(x).max() * bound:
                break
            if step == REFINE_STEPS or not size <= last / 2:
                raise np.linalg.LinAlgError(f"refinement stalled at residual {size:.3e}")
            last = size
            x += _triangular_solve(factor, residual)
            residual = b - apply(x) - shift * x
    _check_residual(residual, b)
    return x


def _triangular_solve(factor: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve L L^T x = b for the Cholesky factor L that ``_cholesky_solve``
    leaves, into a new array of L's dtype.

    A float64 L is Fortran-ordered and lower: a vector takes two dtrsv, a
    matrix two dtrsm. On a 2-core VM (OpenBLAS 0.3.31), potrs took 213 us
    against 81 for the two dtrsv at n = 512.

    A float32 L is packed (RFP, vector b only) and splits into L11 (the
    lower triangle of factor[1:h + 1]), L21 (factor[h + 1:]) and L22 (the
    upper triangle of factor[:h], transposed), each contiguous, so their
    transposes are Fortran-ordered views that BLAS reads in place. L w = b
    is strsv on L11, sgemv by L21 and strsv on L22; L^T x = w runs them
    backwards. A padded system solves with a 0 appended to b, whose entry of
    x comes out exactly 0 and is dropped. At n = 8192 on a 2-core VM
    (OpenBLAS 0.3.30) these six calls took 12 ms per vector, spftrs 70 ms
    and two strsv on a full n x n float32 factor 17 ms.
    """
    if factor.dtype == np.float64:
        if b.ndim == 1:
            w = blas.dtrsv(factor, b, lower=1)
            return blas.dtrsv(factor, w, lower=1, trans=1, overwrite_x=1)
        w = blas.dtrsm(1.0, factor, b, lower=1)
        return blas.dtrsm(1.0, factor, w, lower=1, trans_a=1, overwrite_b=1)
    half = factor.shape[1]
    # Fortran-ordered views: L11^T in the upper triangle, L21^T, and L22 in
    # the lower triangle
    l11t, l21t, l22 = factor[1:half + 1].T, factor[half + 1:].T, factor[:half].T
    w = np.zeros(2 * half, dtype=np.float32)
    w[:b.shape[0]] = b
    w1, w2 = w[:half], w[half:]
    w1[:] = blas.strsv(l11t, w1, trans=1, overwrite_x=1)
    w2[:] = blas.sgemv(-1.0, l21t, w1, beta=1.0, y=w2, trans=1, overwrite_y=1)
    w2[:] = blas.strsv(l22, w2, lower=1, overwrite_x=1)
    w2[:] = blas.strsv(l22, w2, lower=1, trans=1, overwrite_x=1)
    w1[:] = blas.sgemv(-1.0, l21t, w2, beta=1.0, y=w1, overwrite_y=1)
    w1[:] = blas.strsv(l11t, w1, overwrite_x=1)
    return w[:b.shape[0]]


def _check_residual(residual: np.ndarray, b: np.ndarray):
    """Raise LinAlgError unless |residual| <= RESIDUAL_RTOL * |b|; a NaN
    residual fails."""
    if not _norm(residual) <= RESIDUAL_RTOL * max(_norm(b), np.finfo(float).tiny):
        raise np.linalg.LinAlgError("residual above tolerance")


def pinv_solve(a: np.ndarray, b: np.ndarray, rel_tol: float = PINV_RTOL) -> np.ndarray:
    """Least-squares solve a x = b through a truncated eigendecomposition.

    Eigenvalues at or below rel_tol times the largest eigenvalue are dropped.
    An all-zero matrix yields the zero solution rather than an error.
    """
    rel_tol = kernels._real(rel_tol, "rel_tol")
    a = _require_symmetric(a, "pinv_solve")
    return _pinv_solve(a, _rhs(b, a.shape[0]), rel_tol)


def _pinv_solve(a: np.ndarray, b: np.ndarray, rel_tol: float = PINV_RTOL) -> np.ndarray:
    """pinv_solve of the finite symmetric matrix held in a's upper triangle."""
    w, v = scipy.linalg.eigh(a.T, check_finite=False)  # a.T's lower triangle is a's upper one
    w, v = w[::-1], v[:, ::-1]
    top = w[0] if w.size else 0.0
    if top <= 0.0:
        return np.zeros_like(b)
    keep = w > rel_tol * top
    vkt = v[:, keep].T  # Fortran-ordered, so gemm reads it without a copy
    coeffs = blas.dgemm(1.0, vkt, b.reshape(b.shape[0], -1)) / w[keep][:, None]
    return blas.dgemm(1.0, vkt, coeffs, trans_a=1).reshape(b.shape)
