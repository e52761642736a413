"""Nystrom-subsampled kernel regularized least squares.

Restricts the KRLS search space to the span of l landmark points drawn
uniformly without replacement from the training inputs. The coefficients
solve the normal equations

    (K_nl^T K_nl + n * lam * K_ll) alpha = K_nl^T y

which square the condition number of the least-squares problem.

For the min kernel, K_ll's Cholesky factor L has a closed form, so the fit
solves in coordinates whitened by it, (W^T W + n * lam * I) beta = W^T y
with W = K_nl L^-T and alpha = L^-T beta, as in "Less is More" (Rudi,
Camoriano and Rosasco, NeurIPS 2015) and FALKON (arXiv:1705.10958); see
``_min_nystrom_solve``. W^T W has a closed form in per-point offsets
summed per landmark step, so building it costs O(n log l + l^2) time and
O(n + l^2) memory, with no cross-Gram, no trsm and no eigh. Its condition
number is at most 1 + 1 / lam, so it takes the solve of a brownian KRLS
Gram (``krls._min_solve``): packed in float32 and refined in float64
against an O(l) product from ``krls._FLOAT32_MIN_N`` landmarks on, a
float64 Cholesky of its upper triangle below that. Its shift keeps it
positive definite, duplicate landmarks included, so it has no fallback.

For other kernels the normal equations are accumulated in place by scipy's
syrk and gemv over row blocks of K_nl of the size ``krls._row_blocks``
gives, so the n x l cross-Gram is never stored whole: the fit holds one
block at a time, and no block adds an l x l matrix, for O(n l^2) time.
Only the upper triangle is written, and ``linalg._psd_solve`` factors it
by a dense O(l^3) Cholesky, checked by a symv on the matrix itself, or,
when factorization or the residual check fails, solves by an
eigenvalue-truncated pseudo-inverse of the same triangle, so
rank-deficient landmark sets (duplicate coordinates, l near the numerical
rank) stay well defined. It is never mirrored, and its symmetry, exact by
construction, is never re-checked.
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
    solves in coordinates whitened by K_ll's closed-form Cholesky factor:
    it builds that system in O(n log l + l^2) time, factors it in O(l^3),
    in float32 with float64 refinement from ``krls._FLOAT32_MIN_N``
    landmarks on, and checks the solution against an O(l) product. Through
    the factor it is the normal equations, so the two agree to rounding,
    and with a duplicate landmark it predicts as their pseudo-inverse does.
    Other kernels stream K_nl in row blocks in O(n l^2) time and solve the
    normal equations themselves.
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
    z's order, solved in coordinates whitened by K_ll's closed-form
    Cholesky factor.

    With the landmarks ascending, z_0 = 0, steps delta_c = z_c - z_{c-1}
    and s_c = sqrt(delta_c), min(z_a, z_c) sums delta_j over j <= min(a, c),
    so K_ll = L L^T with L = E diag(s), E the lower triangle of ones. Then
    W = K_nl L^-T has entries W_ic = clip(t_i - z_{c-1}, 0, delta_c) / s_c:
    s_c for each landmark at or below t_i, the offset of t_i past the last
    of them over s there, and 0 beyond. The normal equations become

        (W^T W + shift * I) beta = W^T y,   alpha = L^-T beta,

    so alpha_c = beta_c / s_c - beta_{c+1} / s_{c+1}. M = W^T W has
    M_ac = s_a g_c for a < c, with g_c the sum of column c of W, and the
    column's sum of squares h_c on its diagonal; every entry is >= 0, and
    M x takes two cumulative sums. Its largest eigenvalue is at most
    trace K_nn <= n on [0, 1], so the condition number is at most
    1 + 1 / lam. The partial entries are formed point by point and summed
    per step, since prefix sums of t and t^2 would cancel over steps of
    1e-6. A zero step (a duplicate landmark, or one at 0) has a zero column
    of W: its s, g, h and rhs entries are 0, so its beta is 0 and the
    fitted function is that of the pseudo-inverse fit. ``krls._min_solve``
    solves M + shift * I as it solves a brownian KRLS Gram. Building M costs
    O(n log l + l^2) and factoring it O(l^3).
    """
    l = z.shape[0]
    landmark_order = np.argsort(z, kind="stable")
    z0 = np.concatenate(([0.0], z[landmark_order]))  # z_0 = 0, then z ascending
    delta = z0[1:] - z0[:-1]
    s = np.sqrt(delta)
    # 1 / s, and 0 on a zero step and past the last landmark
    inv_s = np.zeros(l + 1)
    np.divide(1.0, s, out=inv_s[:l], where=delta > 0)
    # k_i landmarks lie at or below t_i: row i of W holds s in the columns
    # before k_i and its one partial entry, w_i, in column k_i
    k = np.searchsorted(z0[1:], t, side="right")
    w = (t - z0[k]) * inv_s[k]

    def per_step(weights):  # the sum over the points with each k
        return np.bincount(k, weights, minlength=l + 1)

    def beyond(sums):  # the sum over the points with k > c, for each column c
        return sums[:0:-1].cumsum()[::-1]

    full = beyond(per_step(None))  # rows holding s_c in column c
    g = s * full + per_step(w)[:l]
    h = delta * full + per_step(w * w)[:l]
    rhs = s * beyond(per_step(y)) + per_step(w * y)[:l]

    def upper():
        # s_a g_c in every entry, then h on the diagonal: dgemm writes the
        # outer product g s^T Fortran-ordered, so its transpose is C-ordered.
        # At l = 223 on a 2-core VM that took 36 us, np.multiply.outer 70 us.
        b = blas.dgemm(1.0, g[:, None], s[None, :]).T
        b.reshape(-1)[:: l + 1] = h
        return b

    def apply(x):
        # (M x)_a = g_a sum_{c < a} s_c x_c + h_a x_a + s_a sum_{c > a} g_c x_c
        out = h * x
        out[1:] += g[1:] * (s[:-1] * x[:-1]).cumsum()
        out[:-1] += s[:-1] * (g[:0:-1] * x[:0:-1]).cumsum()[::-1]
        return out

    beta = krls._min_solve(lambda: (krls._packed_min_gram32(np.multiply, g, s, h), apply),
                           shift, rhs, lambda: linalg._cholesky_solve(upper(), shift, rhs, apply))
    q = beta * inv_s[:l]
    q[:-1] -= q[1:]
    alpha = np.empty_like(q)
    alpha[landmark_order] = q
    return alpha
