"""Global kernel regularized least squares.

Fits the dual coefficients alpha = (K + lam * n * I)^{-1} y, which minimizes
(1/n) sum_i (f(x_i) - y_i)^2 + lam * |f|_H^2 over the kernel's RKHS.

Every dual-form model predicts through ``_kernel_expansion``, which has two
paths chosen by the kernel family. The min (brownian) kernel is summed by
prefix sums over the sorted centers in O((N + n) log n) time and O(N + n)
memory for N query points and n centers; it agrees with the cross-Gram
product to rounding but is not bitwise equal to it. Its O(N log n) part is
one binary search per point, and on unsorted queries each search takes a
path the branch predictor cannot follow: at N = 20000 and n = 2048 the
lookup took 1.65 ms on points in random order and 0.27 ms on the same
points ascending (a 2-core VM), so the scorers in ``synth`` sort their
test draw. Every other family forms the N x n cross-Gram in row blocks and
multiplies it by alpha, in O(N n) time and one block of memory.

A fit holds one Gram and factors it in place. A min-kernel fit of at
least ``_FLOAT32_MIN_N`` points holds its Gram in float32, packed in
Rectangular Full Packed storage (``_packed_min_gram32``): one dense array
of n (n + 1) / 2 entries, about 2 n^2 bytes, a quarter of the float64 Gram,
which spftrf factors at BLAS-3 speed. Every page of it is written, so the
huge pages numpy advises for an array this large fault it in 2 MB at a
time and waste nothing. ``linalg._cholesky_solve`` refines that solve in
float64 against ``_min_expansion``, by blocked triangular solves on the
packed factor, until it matches the float64 solve to rounding. If the
float32 factorization fails or the refinement stalls, the float32 Gram is
freed and the fit solves in float64 through the same function, as every
other fit does.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import blas

from . import kernels, linalg
from .exceptions import ContractError
from .kernels import KernelSpec

# Cross-Gram entries per row block (8 MB), shared by predict and the Nystrom
# normal equations. A block this small is reused from the heap instead of
# being mapped and page-faulted in afresh. On the benchmark, 2**18 to 2**21
# scored alike and peak RSS grew with the block by a few MB.
_BLOCK_ENTRIES = 2**20
# Rows per band of the packed Gram's triangle written band by band, and the
# strict lower triangle of one diagonal block, sliced rather than built per
# band.
_BAND = 64
_STRICT_LOWER = np.tri(_BAND, k=-1, dtype=bool)
# Fewest points of a min-kernel fit factored in float32 and refined. On a
# 2-core VM (OpenBLAS 0.3.30), in 400 alternating calls on [0.9, 1] data,
# the packed float32 solve beat the float64 solve in at most 10 at each of
# n = 128, 144, 160 and 192, in 64 to 355 at 224 to 384 (varying from run
# to run) and in 356 to 391 at 416, 448 and 512 (two or three runs each);
# from 448 every run won at least 377. Smaller fits stay bitwise those of
# the float64 solve.
_FLOAT32_MIN_N = 448


@dataclass(frozen=True)
class KrlsModel:
    """Fitted dual-form regressor: f(x) = sum_j alpha_j K(x_j, x)."""

    inputs: np.ndarray
    alpha: np.ndarray
    lam: float
    kernel: KernelSpec

    def __post_init__(self):
        _check_expansion(self, "inputs")

    def predict(self, x):
        """Evaluate the fitted function. Scalar in, float out; array in, array out."""
        return _kernel_expansion(self.kernel, x, self.inputs, self.alpha)


def _check_expansion(model, centers: str):
    """Hold a dual-form model's centers as (n, d) points inside the kernel's
    domain, alpha as a flat, finite array with one entry per center and lam
    as a positive float; float arrays are not copied."""
    rows = kernels._as_points(getattr(model, centers), model.kernel.dim)
    try:
        kernels._check_in_box(rows, model.kernel.domain)
    except ContractError as exc:
        raise type(exc)(f"{centers}: {exc}") from None
    alpha = np.asarray(model.alpha, dtype=float)
    if alpha.ndim != 1 or alpha.shape != rows.shape[:1]:
        raise ContractError(f"alpha of shape {alpha.shape} needs one entry per row of "
                            f"{centers}, shape {rows.shape}")
    if not np.isfinite(alpha).all():
        raise ContractError("alpha must be finite")
    object.__setattr__(model, centers, rows)
    object.__setattr__(model, "alpha", alpha)
    object.__setattr__(model, "lam", kernels._real(model.lam, "lam"))


def _row_blocks(n: int, cols: int):
    """Row slices covering range(n), each holding at most _BLOCK_ENTRIES
    entries of an n x cols matrix (one row at least); one slice at least,
    so that cross_gram sees and rejects empty input.

    A block of more than 64 rows is cut to a multiple of 8: OpenBLAS's gemv
    sums rows left over from its 4-row groups in another order, so with
    aligned blocks a predict at a multiple of 8 points matches one unblocked
    product bit for bit.
    """
    rows = max(1, _BLOCK_ENTRIES // cols)
    if rows > 64:
        rows -= rows % 8
    return [slice(i, i + rows) for i in range(0, max(n, 1), rows)]


def _kernel_expansion(spec: KernelSpec, x, centers: np.ndarray, alpha: np.ndarray):
    """sum_j alpha_j K(c_j, x) at x. Scalar in, float out; array in, array out.

    Shared by every dual-form model, whose centers were checked against the
    domain at construction. For the min kernel, see ``_min_expansion``: it
    costs O((N + n) log n) for N points and n centers and matches the
    cross-Gram product to rounding, not bitwise. Other families evaluate the
    cross-Gram in row blocks and multiply each by alpha, in O(N n).
    """
    pts = kernels._as_points(x, spec.dim)
    if spec.family == "brownian":
        kernels._check_in_box(pts, spec.domain)
        values = _min_expansion(pts[:, 0], centers[:, 0], alpha)
    else:
        values = np.concatenate([
            blas.dgemv(1.0, kernels.cross_gram(spec, pts[rows], centers).T, alpha, trans=1)
            for rows in _row_blocks(pts.shape[0], centers.shape[0])
        ])
    return float(values[0]) if np.ndim(x) == 0 else values


def _min_expansion(t: np.ndarray, c: np.ndarray, alpha: np.ndarray) -> np.ndarray:
    """sum_j alpha_j min(t, c_j) as prefix[k] + t * suffix[k].

    With the centers sorted and k the number of them at or below t, prefix[k]
    sums alpha_j c_j over those and suffix[k] sums alpha_j over the rest. The
    suffix is its own reverse cumulative sum, not the total minus a prefix,
    so its rounding scales with the terms it holds. A center equal to t adds
    alpha_j t on either side. k is one binary search per point, which costs
    about six times as much on unsorted t as on ascending t (see the module
    docstring), so a caller free to order its points passes them ascending.
    """
    order = np.argsort(c, kind="stable")
    c = c[order]
    return _sorted_min_expansion(t, np.searchsorted(c, t, side="right"), c, alpha[order])


def _sorted_min_expansion(t: np.ndarray, k: np.ndarray, c: np.ndarray,
                          alpha: np.ndarray) -> np.ndarray:
    """``_min_expansion`` for centers c already in ascending order, given
    k = np.searchsorted(c, t, side="right"), so that products at the same
    points and centers share one lookup."""
    prefix = np.concatenate(([0.0], np.cumsum(alpha * c)))
    suffix = np.concatenate((np.cumsum(alpha[::-1])[::-1], [0.0]))
    return prefix[k] + t * suffix[k]


def fit_krls(x, y, lam: float, spec: KernelSpec) -> KrlsModel:
    """Solve the regularized least-squares problem on (x, y).

    Parameters
    ----------
    x : array of inputs, shape (n,) or (n, d)
    y : array of labels, shape (n,)
    lam : regularization strength, positive and finite
    spec : kernel to use

    The n-scaled shift lam * n comes from the 1/n weighting of the squared
    error in the objective. The Gram is factored in place, so the fit holds
    one Gram; the rare jitter retry builds it again. A min-kernel
    fit of at least ``_FLOAT32_MIN_N`` points, where float32 was measured
    faster, holds its Gram in float32 packed storage (2 n^2 + O(n) bytes),
    factors it there and refines the solve in float64 against the
    prefix-sum product by triangular solves on the packed factor. If the
    refined solve fails, the packed Gram is freed and the fit solves in
    float64; smaller fits solve in float64 from the start.
    """
    lam = kernels._real(lam, "lam")
    pts, y = kernels._as_data(x, y, spec.dim)
    shift = lam * y.shape[0]
    alpha = None
    # Other families have no exact float64 product cheaper than a Gram.
    if spec.family == "brownian" and pts.shape[0] >= _FLOAT32_MIN_N:
        alpha = _refined_min_solve(spec, pts, shift, y)
    if alpha is None:
        alpha = linalg._spd_solve(lambda: kernels.gram(spec, pts), shift, y)
    return KrlsModel(inputs=pts, alpha=alpha, lam=lam, kernel=spec)


def _refined_min_solve(spec: KernelSpec, pts: np.ndarray, shift: float, y: np.ndarray):
    """alpha of a min-kernel fit from a float32 Gram refined in float64, or
    None if ``linalg._cholesky_solve`` fails; the float32 Gram is freed on
    return either way."""
    kernels._check_in_box(pts, spec.domain)
    t = pts[:, 0]
    order = np.argsort(t, kind="stable")
    sorted_t = t[order]
    k = np.searchsorted(sorted_t, t, side="right")

    def apply(v):  # K v, as _min_expansion(t, t, v) with the sort and lookup done once
        return _sorted_min_expansion(t, k, sorted_t, v[order])

    try:
        return linalg._cholesky_solve(_packed_min_gram32(t), shift, y, apply)
    except np.linalg.LinAlgError:
        return None


def _packed_min_gram32(t: np.ndarray) -> np.ndarray:
    """The min-kernel Gram A of t in float32, in Rectangular Full Packed
    storage with TRANSR = 'T' and UPLO = 'L' (Gustavson et al., ACM TOMS
    37(2), 2010), as LAPACK's spftrf reads it. Rounding is monotone, so the
    min of the rounded points is the rounded float64 Gram, entry for entry.

    For an even order m = 2h the result R is C-ordered, of shape (m + 1, h):
    R[h + 1:] is the dense block A[h:, :h], the lower triangle of R[1:h + 1]
    is that of A[:h, :h] and the upper triangle of R[:h] is that of
    A[h:, h:]. That is m (m + 1) / 2 entries and no n x n temporary. An odd
    n is padded to m = n + 1 by one decoupled point: a last row and column
    of zeros with 1 on the diagonal, so that a zero right-hand side entry
    there solves to exactly 0. The zeros are the min of a padded point at 0
    and t, which lies in [0, 1]. The odd RFP layout is not used, because its
    trailing triangle is a strided block that scipy's BLAS would copy on
    every triangular solve.
    """
    n = t.shape[0]
    h = (n + 1) // 2
    # p is a 0, then the points padded by a point at 0 to even order, so
    # A[i - 1, j] = min(p[i], left[j]) for every i >= 1 and j < h.
    p = np.zeros(2 * h + 1, dtype=np.float32)
    p[1:n + 1] = t
    left, right = p[1:h + 1], p[h + 1:]
    r = np.empty((2 * h + 1, h), dtype=np.float32)
    # R[h] is A[h - 1, :h] and R[h + 1:] is A[h:, :h]: all from the left half
    np.minimum(p[h:, None], left[None, :], out=r[h:])
    # Row i < h of R holds A[h + i, h + j] for j >= i and A[i - 1, j] for
    # j < i: the first goes everywhere in one call, then the second over it
    # band by band. At n = 512 on a 2-core VM that took 113 us, and four
    # calls per band that wrote each entry once 138 us.
    np.minimum.outer(right, right, out=r[:h])
    for i in range(0, h, _BAND):
        j = min(i + _BAND, h)
        np.minimum(p[i:j, None], left[None, :i], out=r[i:j, :i])
        np.minimum(p[i:j, None], left[None, i:j], out=r[i:j, i:j],
                   where=_STRICT_LOWER[: j - i, : j - i])
    if 2 * h > n:  # the padded point is 0, so its row and column are 0
        r[h - 1, h - 1] = 1.0
    return r
