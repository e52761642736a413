"""Kernel specifications and Gram matrix assembly.

Four positive-definite families on a box domain: gaussian, laplacian,
brownian (the min kernel, 1-d on a subinterval of [0, 1]) and polynomial.
A kernel is described by an immutable :class:`KernelSpec`; all evaluation
goes through :func:`eval_kernel`, :func:`gram` and :func:`cross_gram`.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import blas

from .exceptions import ContractError, DomainError, EmptyInputError

FAMILIES = ("gaussian", "laplacian", "brownian", "polynomial")

# Entries of the temporary that _sq_dist and _dist add per row block (512 KB).
_ADD_ENTRIES = 2**16


@dataclass(frozen=True)
class KernelSpec:
    """Immutable description of a kernel.

    Parameters
    ----------
    family : str
        One of ``gaussian``, ``laplacian``, ``brownian``, ``polynomial``.
    domain : tuple of (low, high) pairs
        Box the kernel is defined on, one pair per coordinate. Evaluation
        outside the box raises :class:`DomainError`.
    bandwidth : float, optional
        Length scale for gaussian and laplacian. Must be positive.
    degree : int, optional
        Polynomial degree, at least 1.
    offset : float, optional
        Polynomial additive constant, nonnegative.
    """

    family: str
    domain: tuple = field(default=((0.0, 1.0),))
    bandwidth: float | None = None
    degree: int | None = None
    offset: float | None = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ContractError(f"unknown kernel family {self.family!r}")
        dom = tuple(_interval(pair, "domain interval") for pair in self.domain)
        object.__setattr__(self, "domain", dom)
        if not dom:
            raise ContractError("domain needs at least one coordinate")
        if self.family in ("gaussian", "laplacian"):
            object.__setattr__(self, "bandwidth", _real(self.bandwidth, "bandwidth"))
        if self.family == "polynomial":
            object.__setattr__(self, "degree", _count(self.degree, "degree"))
            object.__setattr__(self, "offset", _real(self.offset, "offset", zero=True))
        if self.family == "brownian":
            if len(dom) != 1:
                raise ContractError("brownian kernel is one-dimensional")
            lo, hi = dom[0]
            if lo < 0.0 or hi > 1.0:
                raise ContractError("brownian domain must sit inside [0, 1]")

    @property
    def dim(self) -> int:
        return len(self.domain)


def gaussian(bandwidth: float, domain=((0.0, 1.0),)) -> KernelSpec:
    """exp(-|x - z|^2 / (2 h^2)) on the given box."""
    return KernelSpec("gaussian", tuple(domain), bandwidth=bandwidth)


def laplacian(bandwidth: float, domain=((0.0, 1.0),)) -> KernelSpec:
    """exp(-|x - z| / h) on the given box."""
    return KernelSpec("laplacian", tuple(domain), bandwidth=bandwidth)


def brownian(domain=((0.0, 1.0),)) -> KernelSpec:
    """min(x, z) on a subinterval of [0, 1]."""
    return KernelSpec("brownian", tuple(domain))


def polynomial(degree: int, offset: float = 0.0, domain=((0.0, 1.0),)) -> KernelSpec:
    """(x . z + offset)^degree on the given box."""
    return KernelSpec("polynomial", tuple(domain), degree=degree, offset=offset)


def kernel_bound(spec: KernelSpec) -> float:
    """Exact sup of K(x, x) over the domain (the squared feature bound).

    Gaussian and laplacian peak at 1 on the diagonal. The min kernel attains
    its diagonal sup at the right endpoint. For the polynomial family the
    diagonal is (|x|^2 + offset)^degree, maximized coordinatewise at the
    endpoint of larger magnitude.
    """
    if spec.family in ("gaussian", "laplacian"):
        return 1.0
    if spec.family == "brownian":
        return spec.domain[0][1]
    norm_sq = sum(max(lo * lo, hi * hi) for lo, hi in spec.domain)
    return (norm_sq + spec.offset) ** spec.degree


def _as_points(x, dim: int) -> np.ndarray:
    """Coerce scalars, (n,) or (n, d) input to a float array of shape (n, d)."""
    arr = np.asarray(x, dtype=float)
    if arr.ndim == 0:
        arr = arr.reshape(1, 1)
    elif arr.ndim == 1:
        # A flat vector is n points in 1-d, or a single d-dim point.
        if dim == 1:
            arr = arr.reshape(-1, 1)
        elif arr.shape[0] == dim:
            arr = arr.reshape(1, dim)
        else:
            raise ContractError(
                f"cannot interpret shape {arr.shape} as points in {dim} dims"
            )
    elif arr.ndim != 2:
        raise ContractError(f"points must be at most 2-d, got shape {arr.shape}")
    if arr.shape[1] != dim:
        raise ContractError(f"points have {arr.shape[1]} coordinates, expected {dim}")
    return arr


def _as_data(x, y, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Coerce a training pair: (n, d) points and n flat, finite labels, n >= 1."""
    y = np.asarray(y, dtype=float)
    if y.ndim != 1:
        raise ContractError("labels must be a flat array")
    pts = _as_points(x, dim)
    if pts.shape[0] != y.shape[0]:
        raise ContractError("inputs and labels disagree in length")
    if y.shape[0] == 0:
        raise EmptyInputError("need at least one training point")
    if not np.all(np.isfinite(y)):
        raise ContractError("labels must be finite")
    return pts, y


def _number(value):
    """value as the entry checks read it: a 0-d array as its value, and a
    bool, which is not a number, as None."""
    if isinstance(value, np.ndarray) and value.ndim == 0:
        value = value.item()
    return None if isinstance(value, (bool, np.bool_)) else value


def _count(value, name: str, low: int = 1) -> int:
    """value as an int if it is a whole number of at least ``low``, numpy
    integers, 0-d arrays and integral floats included, bools not."""
    number = _number(value)
    try:
        count = int(number)
    except (TypeError, ValueError, OverflowError):
        count = None
    if count is None or count != number:
        raise ContractError(f"{name} must be a whole number, got {value!r}")
    if count < low:
        least = "non-negative" if low == 0 else f"at least {low}"
        raise ContractError(f"{name} must be {least}, not {count}")
    return count


def _real(value, name: str, zero: bool = False) -> float:
    """value as a float if it is a finite real number that is positive, or
    nonnegative with ``zero``; numpy scalars and 0-d arrays included, strings
    and bools not."""
    real = _number(value)
    if isinstance(real, numbers.Real) and math.isfinite(real):
        if real > 0 or zero and real == 0:
            return float(real)
    sign = "nonnegative" if zero else "positive"
    raise ContractError(f"{name} must be {sign} and finite, got {value!r}")


def _interval(value, name: str) -> tuple:
    """value as a (low, high) pair of floats if it holds two finite real
    numbers, low below high, each read as ``_real`` reads it."""
    try:
        lo, hi = map(_number, value)
        if math.isfinite(lo) and math.isfinite(hi) and lo < hi:
            return float(lo), float(hi)
    except (TypeError, ValueError):
        pass
    raise ContractError(f"{name} must be a finite increasing (low, high), got {value!r}")


def _rng(seed) -> np.random.Generator:
    """numpy's Generator for seed, as ``np.random.default_rng`` builds it;
    a seed it cannot take raises ContractError."""
    try:
        return np.random.default_rng(seed)
    except (TypeError, ValueError) as exc:
        raise ContractError(f"seed {seed!r} is not a valid seed: {exc}") from None


def _check_in_box(pts: np.ndarray, box):
    """Require at least one point, all finite, each coordinate in its interval.

    ``box`` holds one (low, high) pair per coordinate, or none, in which case
    only the count and finiteness are checked.
    """
    if pts.shape[0] == 0:
        raise EmptyInputError("need at least one point")
    if not np.all(np.isfinite(pts)):
        raise DomainError("points must be finite")
    for j, (lo, hi) in enumerate(box):
        col = pts[:, j]
        if col.min() < lo or col.max() > hi:
            raise DomainError(f"coordinate {j} leaves [{lo}, {hi}]")


def _inner(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Inner products a_i . b_j as a C-ordered matrix, in one buffer.

    By scipy's gemm (see linalg), except gram's x @ x.T: numpy forms that
    as an exactly symmetric product, which gemm does not promise, and it
    runs once per Gram matrix rather than once per row block.
    """
    if a is b:
        return a @ a.T
    return blas.dgemm(1.0, b.T, a.T, trans_a=1).T


def _sq_dist(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared distances (|a|^2 + |b|^2) - 2 a.b, clipped at zero, in one buffer.

    The product is scaled by -2 in place and the norm sums are added a few
    rows at a time. Since x - y is exactly -y + x, this is bitwise the
    broadcast formula, and exactly symmetric when a is b.
    """
    sq = _inner(a, b)
    sq *= -2.0
    na = (a * a).sum(axis=1)
    nb = (b * b).sum(axis=1)
    step = max(1, _ADD_ENTRIES // nb.shape[0])
    for i in range(0, sq.shape[0], step):
        sq[i:i + step] += na[i:i + step, None] + nb
    return np.maximum(sq, 0.0, out=sq)


def _dist(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Distances |a_i - b_j|, their squares summed coordinate by coordinate.

    Unlike the norm expansion of _sq_dist, a point shared by a and b is at
    distance exactly 0, and the matrix is exactly symmetric when a is b.
    Later coordinates are added a few rows at a time, in one buffer.
    """
    k = np.subtract(a[:, 0][:, None], b[:, 0][None, :])
    if a.shape[1] == 1:
        return np.abs(k, out=k)
    k *= k
    step = max(1, _ADD_ENTRIES // b.shape[0])
    for i in range(0, k.shape[0], step):
        for j in range(1, a.shape[1]):
            diff = a[i:i + step, j][:, None] - b[:, j]
            diff *= diff
            k[i:i + step] += diff
    return np.sqrt(k, out=k)


def _pairwise(spec: KernelSpec, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kernel matrix of a against b, built in its own output buffer."""
    if spec.family == "brownian":
        return np.minimum(a[:, 0][:, None], b[:, 0][None, :])
    if spec.family == "polynomial":
        k = _inner(a, b)
        k += spec.offset
        k **= spec.degree
        return k
    if spec.family == "gaussian":
        k = _sq_dist(a, b)
        scale = 2.0 * spec.bandwidth**2
    else:  # laplacian
        k = _dist(a, b)
        scale = spec.bandwidth
    np.negative(k, out=k)
    k /= scale
    return np.exp(k, out=k)


def eval_kernel(spec: KernelSpec, x, z):
    """Evaluate K(x, z) for single points. Returns a float."""
    a = _as_points(x, spec.dim)
    b = _as_points(z, spec.dim)
    _check_in_box(a, spec.domain)
    _check_in_box(b, spec.domain)
    if a.shape[0] != 1 or b.shape[0] != 1:
        raise ContractError("eval_kernel takes single points; use cross_gram")
    return float(_pairwise(spec, a, b)[0, 0])


def gram(spec: KernelSpec, x) -> np.ndarray:
    """Gram matrix K[i, j] = K(x_i, x_j).

    Symmetric to exact equality by formula: numpy forms x @ x.T as an
    exactly symmetric product, and every other step is symmetric in (i, j).
    """
    pts = _as_points(x, spec.dim)
    _check_in_box(pts, spec.domain)
    return _pairwise(spec, pts, pts)


def cross_gram(spec: KernelSpec, x, z) -> np.ndarray:
    """Rectangular kernel matrix K[i, j] = K(x_i, z_j)."""
    a = _as_points(x, spec.dim)
    b = _as_points(z, spec.dim)
    _check_in_box(a, spec.domain)
    _check_in_box(b, spec.domain)
    return _pairwise(spec, a, b)


def psd_slack(k: np.ndarray) -> float:
    """Allowed magnitude of negative Gram eigenvalues: 1e-8 * max diagonal."""
    return 1e-8 * float(np.max(np.diagonal(k)))
