"""Nystrom-subsampled kernel regularized least squares.

Restricts the KRLS search space to the span of l landmark points drawn
uniformly without replacement from the training inputs. The coefficients
solve the explicit normal equations

    (K_nl^T K_nl + n * lam * K_ll) alpha = K_nl^T y

whose left and right sides are accumulated in place by scipy's syrk and
gemv over row blocks of K_nl of the size ``krls._row_blocks`` gives, so the
n x l cross-Gram is never stored whole: the fit holds one block at a time,
and no block adds an l x l matrix.
They are solved by Cholesky, falling back to an eigenvalue-truncated
pseudo-inverse when factorization or its residual check fails, so
rank-deficient landmark sets (duplicate coordinates, l near the numerical
rank) stay well defined.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import blas

from . import kernels, krls, linalg
from .exceptions import ContractError, EmptyInputError
from .kernels import KernelSpec


@dataclass(frozen=True)
class NystromModel:
    """Dual-form regressor on landmark points: f(x) = sum_j alpha_j K(z_j, x)."""

    landmarks: np.ndarray
    landmark_indices: np.ndarray
    alpha: np.ndarray
    lam: float
    kernel: KernelSpec
    seed: object

    def __post_init__(self):
        krls._check_expansion(self, "landmarks")
        idx = np.asarray(self.landmark_indices, dtype=int)
        if idx.shape != self.landmarks.shape[:1]:
            raise ContractError("landmark_indices needs one entry per landmark")
        object.__setattr__(self, "landmark_indices", idx)

    def predict(self, x):
        """Evaluate the fitted function. Scalar in, float out; array in, array out."""
        return krls._kernel_expansion(self.kernel, x, self.landmarks, self.alpha)


def sample_landmarks(n: int, l: int, seed) -> np.ndarray:
    """Draw l indices from range(n) uniformly without replacement.

    Deterministic in the seed; every size-l subset is equally likely.
    """
    if n < 1:
        raise EmptyInputError("need at least one point to sample from")
    if not 1 <= l <= n:
        raise ContractError(f"landmark count l={l} must satisfy 1 <= l <= n={n}")
    rng = np.random.default_rng(seed)
    return rng.choice(n, size=l, replace=False)


def _mirror_upper(b: np.ndarray):
    """Copy the upper triangle of square b onto its lower one, in place.

    Column band by column band: the block below a band's diagonal block is
    the transpose of the block to its right, and the diagonal block mirrors
    itself through a triangular mask. No temporary is larger than one band
    of b.
    """
    l, band = b.shape[0], 64
    for i in range(0, l, band):
        j = min(i + band, l)
        b[j:, i:j] = b[i:j, j:].T
        diag = b[i:j, i:j]
        np.copyto(diag, diag.T, where=np.tri(j - i, k=-1, dtype=bool))


def fit_nystrom(x, y, lam: float, l: int, seed, spec: KernelSpec) -> NystromModel:
    """Fit the landmark-restricted regressor.

    Parameters
    ----------
    x, y : training data
    lam : regularization strength, positive
    l : number of landmarks, 1 <= l <= n
    seed : RNG seed for the landmark draw, recorded on the model
    spec : kernel

    With l = n and a numerically positive definite Gram this reproduces the
    full KRLS solution, since the search spaces coincide.
    """
    if not lam > 0:
        raise ContractError("lam must be positive")
    pts, y = kernels._as_data(x, y, spec.dim)
    n = pts.shape[0]
    idx = sample_landmarks(n, l, seed)
    landmarks = pts[idx]
    # syrk and gemv accumulate into b and rhs in place: c = b.T and k.T are
    # Fortran-ordered, so scipy's BLAS copies neither. syrk fills c's lower
    # triangle, b's upper one, which is mirrored once at the end so that b
    # is exactly symmetric. syrk adds each panel of the inner dimension into c
    # as it goes, so only a block within one panel (a few hundred rows) is
    # bitwise numpy's K_nl.T @ K_nl + n * lam * K_ll; longer ones agree to
    # rounding.
    b = kernels.gram(spec, landmarks)
    b *= n * lam
    c = b.T
    rhs = np.zeros(l)
    for rows in krls._row_blocks(n, l):
        k = kernels.cross_gram(spec, pts[rows], landmarks).T
        c = blas.dsyrk(1.0, k, beta=1.0, c=c, lower=1, overwrite_c=1)
        rhs = blas.dgemv(1.0, k, y[rows], beta=1.0, y=rhs, overwrite_y=1)
        del k  # let the block go before the next one is built
    b = c.T
    _mirror_upper(b)
    try:
        # on a copy: the attempt consumes its matrix, and the fallback needs b
        alpha = linalg._cholesky_solve(b.copy(), 0.0, rhs)
    except np.linalg.LinAlgError:
        alpha = linalg.pinv_solve(b, rhs)
    return NystromModel(
        landmarks=landmarks,
        landmark_indices=idx,
        alpha=alpha,
        lam=float(lam),
        kernel=spec,
        seed=seed,
    )
