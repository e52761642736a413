"""Nystrom-subsampled kernel regularized least squares.

Restricts the KRLS search space to the span of l landmark points drawn
uniformly without replacement from the training inputs. The coefficients
solve the explicit normal equations

    (K_nl^T K_nl + n * lam * K_ll) alpha = K_nl^T y

For the min kernel both sides have a closed form in prefix sums over the
sorted inputs (see ``_min_nystrom_solve``): O(n log n + l^2) time and
O(n + l^2) memory, with no cross-Gram at all, and an O(l) product checks
the solution. For other kernels they are accumulated in place by scipy's
syrk and gemv over row blocks of K_nl of the size ``krls._row_blocks``
gives, so the n x l cross-Gram is never stored whole: the fit holds one
block at a time, and no block adds an l x l matrix, for O(n l^2) time; a
symv on the matrix itself checks the solution.
Either way only the upper triangle is written, and ``linalg._psd_solve``
factors it by a dense O(l^3) Cholesky or, when factorization or the
residual check fails, solves by an eigenvalue-truncated pseudo-inverse of
the same triangle, so rank-deficient landmark sets (duplicate coordinates,
l near the numerical rank) stay well defined. It is never mirrored, and its
symmetry, exact by construction, is never re-checked.
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
    n = kernels._count(n, "n", low=0)
    if n == 0:
        raise EmptyInputError("need at least one point to sample from")
    l = kernels._count(l, "landmark count l")
    if l > n:
        raise ContractError(f"landmark count l={l} must satisfy 1 <= l <= n={n}")
    return kernels._rng(seed).choice(n, size=l, replace=False)


def fit_nystrom(x, y, lam: float, l: int, seed, spec: KernelSpec) -> NystromModel:
    """Fit the landmark-restricted regressor.

    Parameters
    ----------
    x, y : training data
    lam : regularization strength, positive and finite
    l : number of landmarks, 1 <= l <= n
    seed : RNG seed for the landmark draw, recorded on the model
    spec : kernel

    With l = n and a numerically positive definite Gram this reproduces the
    full KRLS solution, since the search spaces coincide. A min-kernel fit
    builds the upper triangle of its normal equations from prefix sums in
    O(n log n + l^2) time, factors it in O(l^3) and checks the solution
    against an O(l) product; they agree with the blocked syrk build to
    rounding, not bit for bit. Other kernels stream K_nl in row blocks in
    O(n l^2) time.
    """
    lam = kernels._real(lam, "lam")
    pts, y = kernels._as_data(x, y, spec.dim)
    n = pts.shape[0]
    idx = sample_landmarks(n, l, seed)
    landmarks = pts[idx]
    if spec.family == "brownian":
        kernels._check_in_box(pts, spec.domain)
        alpha = _min_nystrom_solve(pts[:, 0], y, landmarks[:, 0], n * lam)
    else:
        b, rhs = _blocked_normal_equations(spec, pts, y, landmarks, n * lam)
        alpha = linalg._psd_solve(b.copy, rhs, lambda v: blas.dsymv(1.0, b.T, v, lower=1))
    return NystromModel(
        landmarks=landmarks,
        landmark_indices=idx,
        alpha=alpha,
        lam=lam,
        kernel=spec,
        seed=seed,
    )


def _blocked_normal_equations(spec: KernelSpec, pts: np.ndarray, y: np.ndarray,
                              landmarks: np.ndarray, shift: float):
    """The upper triangle of b = K_nl^T K_nl + shift * K_ll, and rhs =
    K_nl^T y, one row block of K_nl at a time."""
    # syrk and gemv accumulate into b and rhs in place: c = b.T and k.T are
    # Fortran-ordered, so scipy's BLAS copies neither. syrk fills c's lower
    # triangle, b's upper one, and leaves the rest as it was. syrk adds each
    # panel of the inner dimension into c as it goes, so only a block within
    # one panel (a few hundred rows) is bitwise numpy's K_nl.T @ K_nl + n *
    # lam * K_ll; longer ones agree to rounding.
    n, l = pts.shape[0], landmarks.shape[0]
    b = kernels.gram(spec, landmarks)
    b *= shift
    c = b.T
    rhs = np.zeros(l)
    for rows in krls._row_blocks(n, l):
        k = kernels.cross_gram(spec, pts[rows], landmarks).T
        c = blas.dsyrk(1.0, k, beta=1.0, c=c, lower=1, overwrite_c=1)
        rhs = blas.dgemv(1.0, k, y[rows], beta=1.0, y=rhs, overwrite_y=1)
        del k  # let the block go before the next one is built
    return c.T, rhs


def _min_nystrom_solve(t: np.ndarray, y: np.ndarray, z: np.ndarray, shift: float):
    """alpha of a min-kernel Nystrom fit on inputs t with landmarks z, in
    z's order.

    The normal equations are built for the landmarks in ascending order,
    solved, and alpha scattered back. With the inputs sorted, N(s) =
    #{t_i <= s}, S1(s) = sum_{t_i <= s} t_i and S2(s) = sum_{t_i <= s} t_i^2,
    entry a <= c of b is

        S2(z_a) + z_a (S1(z_c) - S1(z_a) + z_c (n - N(z_c))) + shift * z_a,

    since sum_i min(t_i, z_a) min(t_i, z_c) splits at z_a and z_c. That is
    z_a u_c + v_a, with u_c = S1(z_c) + z_c (n - N(z_c)) and v_a =
    S2(z_a) - z_a S1(z_a) + shift * z_a, so one dger over a broadcast of v
    writes the upper triangle. The same split gives b x in O(l) for
    ``linalg._psd_solve``, which factors that triangle in float64 and
    checks the residual against it. rhs is ``krls._sorted_min_expansion``
    with inputs and landmarks swapped, on the same sort. After the
    O(n log n) sort, b costs O(l^2) and its Cholesky factor O(l^3). The
    solve consumes b, so the fallback builds it again.
    """
    n = t.shape[0]
    landmark_order = np.argsort(z, kind="stable")
    z = z[landmark_order]
    order = np.argsort(t, kind="stable")
    t, y = t[order], y[order]
    k = np.searchsorted(t, z, side="right")
    rhs = krls._sorted_min_expansion(z, k, t, y)
    s1 = np.concatenate(([0.0], np.cumsum(t)))[k]
    s2 = np.concatenate(([0.0], np.cumsum(t * t)))[k]
    u = s1 + z * (n - k)
    v = s2 - z * s1 + shift * z
    l = z.shape[0]

    def upper():
        # b[a, c] = v_a, C-ordered; dger adds u z^T to its Fortran-ordered
        # transpose in place, so z_a u_c + v_a is right on and above the
        # diagonal
        b = np.repeat(v, l).reshape(l, l)
        blas.dger(1.0, u, z, a=b.T, overwrite_a=1)
        return b

    # (b x)_a = z_a sum_{c >= a} u_c x_c + v_a sum_{c >= a} x_c
    #         + u_a sum_{c < a} z_c x_c + sum_{c < a} v_c x_c
    terms = np.array((u, np.ones(l), z, v))
    weights = terms[[2, 3, 0, 1]]

    def apply(x):
        # the first two rows summed from the right, inclusive; the last two
        # from the left, exclusive
        products = terms * x
        sums = np.empty_like(products)
        products[:2, ::-1].cumsum(axis=1, out=sums[:2, ::-1])
        sums[2:, 0] = 0.0
        products[2:, :-1].cumsum(axis=1, out=sums[2:, 1:])
        sums *= weights
        return sums.sum(axis=0)

    alpha = linalg._psd_solve(upper, rhs, apply)
    out = np.empty_like(alpha)
    out[landmark_order] = alpha
    return out
