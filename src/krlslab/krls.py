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

A fit holds one n x n Gram and factors it in place. A min-kernel fit of
at least ``_FLOAT32_MIN_N`` points holds its Gram in float32 and factors
it by spotrf, which reads one triangle. Up to one row block (n <= 1024)
that Gram is one numpy array; above it only the upper triangle is written,
into an anonymous mapping without huge pages, so the untouched half is
never faulted in and the fit keeps about 2 n^2 bytes resident, a quarter
of the float64 Gram. ``linalg._cholesky_solve`` refines that solve in
float64 against ``_min_expansion``, by two triangular solves on the factor
per step, until it matches the float64 solve to rounding. If the float32
factorization fails or the refinement stalls, the float32 Gram is freed and
the fit solves in float64 through the same function, as every other fit
does.
"""

from __future__ import annotations

import mmap
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
# Rows per band of a triangle written band by band, and the strict
# lower triangle of one diagonal block, sliced rather than built per band.
_BAND = 64
_STRICT_LOWER = np.tri(_BAND, k=-1, dtype=bool)
# Fewest points of a min-kernel fit factored in float32 and refined. On a
# 2-core VM (OpenBLAS 0.3.31), in 400 alternating calls on [0.9, 1] data,
# float32 was faster than the float64 solve in 154 at n = 128, 313 at 144
# and 391 at 160; it lost all 200 at n = 97. Smaller fits stay bitwise
# those of the float64 solve.
_FLOAT32_MIN_N = 144


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
    one n x n matrix; the rare jitter retry builds it again. A min-kernel
    fit of at least ``_FLOAT32_MIN_N`` points, where float32 was measured
    faster, is factored in float32 from the upper triangle of its Gram and
    the solve refined in float64 against the prefix-sum product by
    triangular solves on the factor. Above one row block only that triangle
    is written, into a lazily mapped buffer whose lower half is never
    touched (about 2 n^2 bytes resident). If the refined solve fails, its
    buffer is freed and the fit solves in float64; smaller fits solve in
    float64 from the start.
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
        return linalg._cholesky_solve(_upper_min_gram32(t), shift, y, apply)
    except np.linalg.LinAlgError:
        return None


def _upper_min_gram32(t: np.ndarray) -> np.ndarray:
    """The min-kernel Gram of t in float32, C-ordered, with at least its
    upper triangle written. Rounding is monotone, so the min of the rounded
    points is the rounded float64 Gram, entry for entry.

    Up to one row block the whole Gram is one np.minimum.outer on the heap.
    Above it, only the upper triangle is written and the strict lower one
    reads 0: the n x n buffer is an anonymous mapping advised against huge
    pages, so the pages of the lower half, never written, are never faulted
    in. numpy would advise huge pages for a buffer this large and fault in
    the lower half 2 MB at a time along with the upper one. A small Gram is
    not mapped, because a fresh mapping's pages are faulted in on every fit
    (about 0.6 ms per MB on a 2-core VM) where the heap reuses its own: at
    n = 512 the mapped triangle took 0.76 ms and the heap Gram 0.16 ms.
    """
    n = t.shape[0]
    t32 = t.astype(np.float32)
    if n * n <= _BLOCK_ENTRIES:
        return np.minimum.outer(t32, t32)
    buffer = mmap.mmap(-1, 4 * n * n)
    if hasattr(mmap, "MADV_NOHUGEPAGE"):  # Linux only
        buffer.madvise(mmap.MADV_NOHUGEPAGE)
    k32 = np.frombuffer(buffer, dtype=np.float32).reshape(n, n)
    for i in range(0, n, _BAND):
        j = min(i + _BAND, n)
        np.minimum(t32[i:j, None], t32[None, j:], out=k32[i:j, j:])
        np.minimum(t32[i:j, None], t32[None, i:j], out=k32[i:j, i:j],
                   where=~_STRICT_LOWER[: j - i, : j - i])
    return k32
