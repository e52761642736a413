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
other fit does. ``_min_solve`` makes that choice, and the whitened
brownian Nystrom system (``nystrom._min_nystrom_solve``) goes through it
too, written by the same ``_packed_min_gram32``.
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

    def dense():
        return linalg._spd_solve(lambda: kernels.gram(spec, pts), shift, y)

    # Other families have no exact float64 product cheaper than a Gram.
    if spec.family == "brownian":
        alpha = _min_solve(lambda: _min_gram_system(spec, pts), shift, y, dense)
    else:
        alpha = dense()
    return KrlsModel(inputs=pts, alpha=alpha, lam=lam, kernel=spec)


def _min_gram_system(spec: KernelSpec, pts: np.ndarray):
    """The min-kernel Gram K of pts in float32 RFP storage, and v -> K v by
    prefix sums in float64."""
    kernels._check_in_box(pts, spec.domain)
    t = pts[:, 0]
    order = np.argsort(t, kind="stable")
    sorted_t = t[order]
    k = np.searchsorted(sorted_t, t, side="right")

    def apply(v):  # K v, as _min_expansion(t, t, v) with the sort and lookup done once
        return _sorted_min_expansion(t, k, sorted_t, v[order])

    return _packed_min_gram32(np.minimum, t, t, t), apply


def _min_solve(system, shift: float, b: np.ndarray, dense):
    """x of (A + shift * I) x = b for a brownian system A, entrywise
    nonnegative, of order b.shape[0]: ``fit_krls``'s Gram or the whitened
    Nystrom matrix.

    From ``_FLOAT32_MIN_N`` on, system() returns A in float32 RFP storage
    (``_packed_min_gram32``) and v -> A v exact in float64, and
    ``linalg._cholesky_solve`` factors the one and refines against the
    other. Below that size, or when that solve fails, dense() solves in
    float64, once the float32 matrix is freed.
    """
    if b.shape[0] >= _FLOAT32_MIN_N:
        packed, apply = system()
        try:
            return linalg._cholesky_solve(packed, shift, b, apply)
        except np.linalg.LinAlgError:
            del packed  # the traceback holds it until this clause ends
    return dense()


def _packed_min_gram32(op, u: np.ndarray, v: np.ndarray, diag: np.ndarray) -> np.ndarray:
    """The symmetric matrix A with A[i, j] = op(u[i], v[j]) below its
    diagonal and diag on it, in float32 Rectangular Full Packed storage with
    TRANSR = 'T' and UPLO = 'L' (Gustavson et al., ACM TOMS 37(2), 2010), as
    LAPACK's spftrf reads it. op is a commutative ufunc with op(0, x) = 0 for
    every x >= 0 in u and v, evaluated on the float32 roundings of u and v.

    Both brownian systems are written here: ``fit_krls``'s Gram is
    (np.minimum, t, t, t), and since rounding is monotone, that is the
    rounded float64 Gram entry for entry; ``nystrom._min_nystrom_solve``'s
    whitened matrix is (np.multiply, g, s, h).

    For an even order m = 2h the result R is C-ordered, of shape (m + 1, h):
    R[h + 1:] is the dense block A[h:, :h], the lower triangle of R[1:h + 1]
    is that of A[:h, :h] and the upper triangle of R[:h] is that of
    A[h:, h:]. That is m (m + 1) / 2 entries and no n x n temporary. An odd
    n is padded to m = n + 1 by one decoupled point: a last row and column
    of zeros with 1 on the diagonal, so that a zero right-hand side entry
    there solves to exactly 0. The zeros are op of a padded 0 in u and v.
    The odd RFP layout is not used, because its trailing triangle is a
    strided block that scipy's BLAS would copy on every triangular solve.
    """
    n = u.shape[0]
    h = (n + 1) // 2
    # p is a 0, then u padded by a 0 to even order, and q is v padded the
    # same way, so that A[i - 1, j] = op(p[i], q[j]) below the diagonal
    p = np.zeros(2 * h + 1, dtype=np.float32)
    p[1:n + 1] = u
    q = np.zeros(2 * h, dtype=np.float32)
    q[:n] = v
    left = q[:h]
    r = np.empty((2 * h + 1, h), dtype=np.float32)
    # R[h] is A[h - 1, :h] and R[h + 1:] is A[h:, :h]: all from the left half
    op(p[h:, None], left[None, :], out=r[h:])
    # Row i < h of R holds A[h + j, h + i] for j >= i and A[i - 1, j] for
    # j < i: the first goes everywhere in one call, then the second over it
    # band by band. At n = 512 on a 2-core VM that took 113 us, and four
    # calls per band that wrote each entry once 138 us.
    op.outer(q[h:], p[h + 1:], out=r[:h])
    for i in range(0, h, _BAND):
        j = min(i + _BAND, h)
        op(p[i:j, None], left[None, :i], out=r[i:j, :i])
        op(p[i:j, None], left[None, i:j], out=r[i:j, i:j], where=_STRICT_LOWER[: j - i, : j - i])
    # the diagonals of A[:h, :h] and A[h:, h:], the padded point's 1 last
    d = np.ones(2 * h, dtype=np.float32)
    d[:n] = diag
    r[1:h + 1].reshape(-1)[:: h + 1] = d[:h]
    r[:h].reshape(-1)[:: h + 1] = d[h:]
    return r
