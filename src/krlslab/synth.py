"""Synthetic regression tasks with known smoothness and capacity.

The reference kernel is the brownian (min) kernel, whose Mercer expansion
on the uniform measure over [0, 1] is closed form:

    mu_k = ((k - 1/2) pi)^{-2},   phi_k(x) = sqrt(2) sin((k - 1/2) pi x).

Eigenvalue decay k^{-2} gives capacity gamma = 1/2. This pair fixes the
kernel (``KERNEL``) and gamma (``GAMMA``) of every task, so a task is only
its target, its noise and its marginal, uniform on an interval inside
[0, 1]. Targets are finite Mercer expansions whose coefficients are scaled
to hit a prescribed source-condition norm exactly, which each target checks
when built, so the smoothness r of a task is known rather than assumed.
Piecewise targets rebuild the expansion inside each grid cell (origin
shifted to the cell, eigenvalues scaled by cell width) with a rough
exponent on a designated exceptional set of cells; continuity across cell
boundaries is deliberately not enforced. Both kinds share one construction
(``_expansion``), one basis evaluation (``_series``) and one source-norm
sum (``_source_sum``). A Sobolev target is the width-1 expansion, and a
cell of width w holds the width-1 expansion of its smoothness r and norm
scaled by w^r, which has the same source norm on the cell.
``_series`` sums the sine series as a polynomial in z = exp(i pi t), split
into baby steps of _BABY terms whose inner sums are one BLAS product per
block of points, and giant steps by Horner's rule in z^_BABY. Evaluating a
target at N points with K terms takes O(N K / _BABY) vector work, O(N)
memory and two transcendentals per point, and each point's value is
bitwise the same whatever batch it arrives in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np
from scipy.linalg import blas

from . import kernels, partition as partition_mod
from .exceptions import ContractError, EmptyInputError
from .kernels import KernelSpec, brownian
from .partition import Partition, grid_cell_bounds
from .theory import ModelParams, _exponent, lambda_schedule

COEFF_SLACK = 0.51  # extra k^{-slack} decay so the defining series converges strictly
DEFAULT_K_TRUNC = 200
_TAIL_TERMS = 200_000
_BABY = 16  # terms per inner sum of _series
_CHUNK = 2048  # points per block of _series: its buffers stay near 1 MB
_ALIGN = 8  # blocks are padded to this many points; see _series

# The kernel of the Mercer pair below and its capacity: mu_k ~ k^{-2}.
KERNEL = brownian()
GAMMA = 0.5


def mercer_eigenvalues(k_trunc: int) -> np.ndarray:
    """First k_trunc eigenvalues ((k - 1/2) pi)^{-2} of the min kernel."""
    k = np.arange(1, kernels._count(k_trunc, "k_trunc", low=0) + 1)
    return ((k - 0.5) * np.pi) ** -2.0


def _source_sum(coeffs: np.ndarray, r: float, width: float = 1.0) -> float:
    """sum_k c_k^2 (w mu_k)^{-2r}: the squared source norm of an expansion."""
    mu = width * mercer_eigenvalues(coeffs.shape[0])
    return float(np.sum(coeffs**2 * mu ** (-2.0 * r)))


def _check_source_sums(sums, norms):
    """Each squared source norm must equal its bound R^2 to 1e-10 relative."""
    for j, (got, norm) in enumerate(zip(sums, norms)):
        want = norm**2
        if abs(got - want) > 1e-10 * want:
            raise ContractError(
                f"piece {j}: source sum {got!r} violates the bound R^2 = {want!r}"
            )


def _expansion(r: float, R: float, k_trunc: int):
    """Coefficients of smoothness r and source norm R on [0, 1].

    Returns (c, tail): c_k = a mu_k^{r + 1/2} k^{-slack} for k <= k_trunc,
    with a chosen so that sum c_k^2 mu_k^{-2r} = R^2, and the sup-norm of
    the discarded series tail, summed numerically over _TAIL_TERMS terms.

    On a cell of width w, with eigenvalues w mu_k, the same rule gives
    w^r c and w^r tail: the profile gains w^{r + 1/2} and a loses w^{1/2}.
    """
    k = np.arange(1, k_trunc + 1 + _TAIL_TERMS)
    mu = mercer_eigenvalues(k.shape[0])
    profile = mu ** (r + 0.5) * k ** (-COEFF_SLACK)
    raw = profile[:k_trunc]
    scale = math.sqrt(R * R / _source_sum(raw, r))
    return scale * raw, float(math.sqrt(2.0) * scale * np.sum(profile[k_trunc:]))


def _series(coeffs: np.ndarray, t) -> np.ndarray:
    """sum_k c_k sqrt(2) sin((k - 1/2) pi t) at local coordinates t.

    With z = exp(i pi t) the sum is sqrt(2) Im(exp(i pi t / 2) sum_{k<K}
    c_{k+1} z^k). Writing k = a B + b (B = _BABY), each block of points
    fills the baby steps exp(i pi t / 2) z^b for b < B by B - 1 in-place
    multiplies, forms every inner sum P_a = sum_b c_{aB+b+1} exp(i pi t / 2)
    z^b with one dgemm on the block's real view (the coefficients are real,
    so one product serves both parts), and runs Horner's rule over a in
    w = z^B. That is about B + 2K/B vector operations per point, and memory
    is O(N) whatever K is. Blocks are padded to a multiple of _ALIGN points,
    which keeps gemm off its edge kernels, so a point's value does not
    depend on the batch it arrives in.
    """
    t = np.asarray(t, dtype=float)
    n = t.shape[0]
    giant = -(-coeffs.shape[0] // _BABY)
    cmat = np.zeros((giant, _BABY))
    cmat.flat[: coeffs.shape[0]] = math.sqrt(2.0) * coeffs
    out = np.empty(n)
    for lo in range(0, n, _CHUNK):
        m = min(_CHUNK, n - lo)
        pad = -(-m // _ALIGN) * _ALIGN
        half = np.zeros(pad)
        half[:m] = t[lo:lo + m]
        half *= 0.5 * math.pi
        baby = np.empty((_BABY, pad), dtype=complex)
        np.cos(half, out=baby[0].real)
        np.sin(half, out=baby[0].imag)
        z = baby[0] * baby[0]
        for b in range(1, _BABY):
            np.multiply(baby[b - 1], z, out=baby[b])
        w = np.multiply(baby[-1], baby[0], out=z)
        inner = blas.dgemm(1.0, baby.view(float).T, cmat.T).T.view(complex)
        acc = inner[-1]
        for a in range(giant - 2, -1, -1):
            acc *= w
            acc += inner[a]
        out[lo:lo + m] = acc.imag[:m]
    return out


@dataclass(frozen=True)
class SobolevTarget:
    """Finite Mercer expansion sum_k c_k sqrt(2) sin((k-1/2) pi x) on [0, 1]."""

    r: float
    R: float
    coefficients: np.ndarray
    truncation_sup_error: float

    def __post_init__(self):
        _check_source_sums([self.source_sum()], [self.R])

    @property
    def k_trunc(self) -> int:
        return self.coefficients.shape[0]

    def source_sum(self) -> float:
        """sum c_k^2 mu_k^{-2r}; equals R^2 by construction."""
        return _source_sum(self.coefficients, self.r)

    def __call__(self, x):
        return _series(self.coefficients, kernels._as_points(x, 1)[:, 0])


def make_sobolev_target(
    r: float, R: float, k_trunc: int = DEFAULT_K_TRUNC
) -> SobolevTarget:
    """Target of exact source norm R with smoothness exponent r.

    Coefficients follow c_k = a * mu_k^{r + 1/2} * k^{-0.51}; the 0.51
    keeps the defining series strictly summable, and a is chosen so that
    sum c_k^2 mu_k^{-2r} = R^2 exactly.
    """
    r, R = _exponent(r, "r"), kernels._real(R, "R")
    coeffs, tail = _expansion(r, R, kernels._count(k_trunc, "k_trunc"))
    return SobolevTarget(r=r, R=R, coefficients=coeffs, truncation_sup_error=tail)


@dataclass(frozen=True)
class PiecewiseTarget:
    """Cellwise Mercer expansions on a 1-d grid; rough on the exceptional set.

    Inside cell j = [a, a + w) the basis is sqrt(2) sin((k-1/2) pi (x-a)/w)
    and the local eigenvalues are w * mu_k, so each piece has an exact local
    source norm (R_l on exceptional cells, R_h elsewhere), checked at
    construction.
    """

    r_l: float
    r_h: float
    R_l: float
    R_h: float
    partition: Partition
    exceptional: frozenset
    cell_coefficients: tuple
    truncation_sup_error: float

    def __post_init__(self):
        norms = [self.R_l if j in self.exceptional else self.R_h for j in range(self.cells)]
        _check_source_sums(self.source_sums(), norms)

    @property
    def k_trunc(self) -> int:
        return self.cell_coefficients[0].shape[0]

    @property
    def cells(self) -> int:
        return self.partition.m

    def cell_smoothness(self, j: int) -> float:
        return self.r_l if j in self.exceptional else self.r_h

    def source_sums(self) -> np.ndarray:
        """Per-cell sum c_k^2 (w mu_k)^{-2 r_j}; equals R_j^2 by construction."""
        out = np.empty(self.partition.m)
        for j, coeffs in enumerate(self.cell_coefficients):
            (lo, hi), = grid_cell_bounds(self.partition, j)
            out[j] = _source_sum(coeffs, self.cell_smoothness(j), hi - lo)
        return out

    def exceptional_mass(self) -> float:
        """Marginal mass of the exceptional cells under the uniform measure."""
        width = 0.0
        for j in self.exceptional:
            (lo, hi), = grid_cell_bounds(self.partition, j)
            width += hi - lo
        (blo, bhi), = self.partition.box
        return width / (bhi - blo)

    def __call__(self, x):
        xs = kernels._as_points(x, 1)[:, 0]
        _, index_sets = partition_mod._group(self.partition, xs)
        out = np.zeros(xs.shape[0])
        for j, (coeffs, ix) in enumerate(zip(self.cell_coefficients, index_sets)):
            if ix.size:
                (lo, hi), = grid_cell_bounds(self.partition, j)
                out[ix] = _series(coeffs, (xs[ix] - lo) / (hi - lo))
        return out


def make_piecewise_target(
    r_l: float,
    r_h: float,
    R_l: float,
    R_h: float,
    part: Partition,
    exceptional,
    k_trunc: int = DEFAULT_K_TRUNC,
) -> PiecewiseTarget:
    """Two-smoothness target: exponent r_l on the cells in ``exceptional``,
    r_h on the rest, each piece built natively in its cell's local expansion.

    The width-1 expansion of each (r, R) pair is built once, and a cell of
    width w scales it by w^r (see ``_expansion``).
    """
    r_l, r_h = _exponent(r_l, "r_l"), _exponent(r_h, "r_h")
    R_l, R_h = kernels._real(R_l, "R_l"), kernels._real(R_h, "R_h")
    k_trunc = kernels._count(k_trunc, "k_trunc")
    if part.scheme != "grid" or part.dim != 1:
        raise ContractError("piecewise targets need a one-dimensional grid partition")
    exceptional = frozenset(kernels._count(j, "exceptional cell", low=0) for j in exceptional)
    for j in exceptional:
        if j >= part.m:
            raise ContractError(f"exceptional cell {j} out of range")
    unit = {}
    coeffs = []
    worst_tail = 0.0
    for j in range(part.m):
        (lo, hi), = grid_cell_bounds(part, j)
        rj, rr = (r_l, R_l) if j in exceptional else (r_h, R_h)
        if (rj, rr) not in unit:
            unit[rj, rr] = _expansion(rj, rr, k_trunc)
        c1, tail = unit[rj, rr]
        scale = (hi - lo) ** rj
        coeffs.append(scale * c1)
        worst_tail = max(worst_tail, scale * tail)
    return PiecewiseTarget(
        r_l=r_l,
        r_h=r_h,
        R_l=R_l,
        R_h=R_h,
        partition=part,
        exceptional=exceptional,
        cell_coefficients=tuple(coeffs),
        truncation_sup_error=worst_tail,
    )


@dataclass(frozen=True)
class NoiseSpec:
    """Label noise: gaussian(sigma) or uniform_bounded(M), both Bernstein-class."""

    kind: str
    scale: float

    def __post_init__(self):
        if self.kind not in ("gaussian", "uniform_bounded"):
            raise ContractError(f"unknown noise kind {self.kind!r}")
        object.__setattr__(self, "scale", kernels._real(self.scale, "noise scale", zero=True))


@dataclass(frozen=True)
class SyntheticTask:
    """A fully specified regression problem with known regularity: a target
    built in the brownian Mercer pair, its label noise and its marginal.

    The pair fixes the kernel and the capacity gamma, read-only for every
    task. The marginal is ``("uniform", low, high)`` on an interval inside
    the kernel's domain [0, 1] (all of it by default; a subinterval changes
    only where inputs fall, not the target or the kernel).
    """

    kernel: ClassVar[KernelSpec] = KERNEL
    gamma: ClassVar[float] = GAMMA
    target: SobolevTarget | PiecewiseTarget
    noise: NoiseSpec
    marginal: tuple = ("uniform", 0.0, 1.0)

    def __post_init__(self):
        if not isinstance(self.target, (SobolevTarget, PiecewiseTarget)):
            raise ContractError(f"target must be a SobolevTarget or PiecewiseTarget, "
                                f"not {type(self.target).__name__}")
        if not isinstance(self.noise, NoiseSpec):
            raise ContractError(f"noise must be a NoiseSpec, not {type(self.noise).__name__}")
        marginal = tuple(self.marginal) if isinstance(self.marginal, (tuple, list)) else ()
        if marginal[:1] != ("uniform",):
            raise ContractError(f"marginal {self.marginal!r} is not ('uniform', low, high)")
        lo, hi = kernels._interval(marginal[1:], "marginal interval")
        (dlo, dhi), = self.kernel.domain
        if lo < dlo or hi > dhi:
            raise ContractError(f"marginal interval ({lo}, {hi}) leaves the kernel's "
                                f"domain [{dlo}, {dhi}]")
        object.__setattr__(self, "marginal", ("uniform", lo, hi))

    def model_params(self) -> ModelParams:
        """Schedule inputs implied by the task.

        A piecewise target schedules at its high smoothness r_h and the
        larger of its norms, and needs r_l < r_h. A noiseless task
        schedules with sigma = 1.
        """
        target = self.target
        piecewise = isinstance(target, PiecewiseTarget)
        if piecewise and not target.r_l < target.r_h:
            raise ContractError(
                f"piecewise targets need r_l < r_h, got r_l={target.r_l}, r_h={target.r_h}"
            )
        return ModelParams(
            r=target.r_h if piecewise else target.r,
            gamma=self.gamma,
            R=max(target.R_l, target.R_h) if piecewise else target.R,
            sigma=self.noise.scale if self.noise.scale > 0 else 1.0,
        )

    def exceptional_mass_bound(self, n_max: int) -> tuple:
        """Assumption check for two-smoothness tasks at the largest n.

        Returns (mass, bound, ok) with bound = (R_h/R_l)^2 * lam^{2(r_h-r_l)}
        where lam is the r_h schedule value at n_max.
        """
        if not isinstance(self.target, PiecewiseTarget):
            raise ContractError("exceptional mass is defined for piecewise targets")
        lam = lambda_schedule(n_max, self.model_params())
        bound = (self.target.R_h / self.target.R_l) ** 2 * lam ** (
            2.0 * (self.target.r_h - self.target.r_l)
        )
        mass = self.target.exceptional_mass()
        return mass, bound, mass <= bound


def sobolev_task(
    r: float,
    R: float,
    noise: NoiseSpec,
    marginal: tuple = ("uniform", 0.0, 1.0),
    k_trunc: int = DEFAULT_K_TRUNC,
) -> SyntheticTask:
    """Brownian-kernel task with a Sobolev-type target of smoothness r."""
    return SyntheticTask(
        target=make_sobolev_target(r, R, k_trunc), noise=noise, marginal=marginal
    )


def piecewise_task(
    r_l: float,
    r_h: float,
    R_l: float,
    R_h: float,
    cells: int,
    exceptional,
    noise: NoiseSpec,
    marginal: tuple = ("uniform", 0.0, 1.0),
    k_trunc: int = DEFAULT_K_TRUNC,
) -> SyntheticTask:
    """Brownian-kernel task with a two-smoothness target on a uniform grid."""
    part = partition_mod.build_grid_partition(((0.0, 1.0),), kernels._count(cells, "cells"))
    target = make_piecewise_target(r_l, r_h, R_l, R_h, part, exceptional, k_trunc)
    return SyntheticTask(target=target, noise=noise, marginal=marginal)


def gen_inputs(task: SyntheticTask, n: int, seed) -> np.ndarray:
    """n i.i.d. draws from the task marginal; deterministic per seed."""
    n = kernels._count(n, "n", low=0)
    if n == 0:
        raise EmptyInputError("need at least one draw")
    _, lo, hi = task.marginal
    return lo + (hi - lo) * kernels._rng(seed).random(n)


def sample_labels(task: SyntheticTask, x, seed) -> np.ndarray:
    """y_i = f(x_i) + noise_i with the task's noise law."""
    xs = kernels._as_points(x, 1)[:, 0]
    rng = kernels._rng(seed)
    clean = task.target(xs)
    if task.noise.scale == 0:
        return clean
    if task.noise.kind == "gaussian":
        return clean + task.noise.scale * rng.standard_normal(xs.shape[0])
    return clean + rng.uniform(-task.noise.scale, task.noise.scale, xs.shape[0])


def _call_predictor(predictor, xs):
    """The predictor's values at xs, exactly one finite value per point, as a
    flat array."""
    call = predictor.predict if hasattr(predictor, "predict") else predictor
    pred = np.asarray(call(xs), dtype=float)
    if pred.size != xs.shape[0]:
        raise ContractError(
            f"predictor returned shape {pred.shape}, want ({xs.shape[0]},): "
            "one value per test point"
        )
    pred = pred.reshape(-1)
    finite = np.isfinite(pred)
    if not finite.all():
        raise ContractError(
            f"predictor returned non-finite values at "
            f"{pred.size - np.count_nonzero(finite)} of {pred.size} test points"
        )
    return pred


def _test_error(predictor, task: SyntheticTask, n_test: int, seed):
    """(xs, prediction - truth) on the task's n_test fresh test draws, sorted.

    Both scores are sums over the draw, so its order is free, and ascending
    points make every predict cheaper: a min-kernel expansion's binary
    searches walk forward (see ``krls``), and cell grouping and per-cell
    gathers read contiguous runs. Each point's truth and prediction are
    those of the unsorted draw; only the order of the final sums moves.
    """
    xs = gen_inputs(task, kernels._count(n_test, "n_test"), seed)
    xs.sort()
    truth = task.target(xs)
    return xs, _call_predictor(predictor, xs) - truth


def mise_estimate(predictor, task: SyntheticTask, n_test: int, seed) -> float:
    """Monte Carlo squared L2(marginal) error against the true target.

    Fresh test draws come from the task marginal; the estimate is the mean
    of (prediction - truth)^2 over them.
    """
    _, diff = _test_error(predictor, task, n_test, seed)
    return float(blas.ddot(diff, diff) / diff.shape[0])


def cellwise_mse(predictor, task: SyntheticTask, part: Partition, n_test: int, seed):
    """Split the test error by cell.

    Returns (global_mse, per_cell_mse, per_cell_counts). global_mse is
    ``mise_estimate`` on the same arguments, bit for bit. The weighted sum
    sum_j (count_j / n_test) * mse_j regroups the same sample, so it
    reproduces the global value to rounding, not bitwise.
    """
    xs, diff = _test_error(predictor, task, n_test, seed)
    labels = partition_mod.assign(part, xs)
    counts = np.bincount(labels, minlength=part.m)
    sums = np.bincount(labels, weights=diff * diff, minlength=part.m)
    per_cell = np.divide(
        sums, counts, out=np.zeros(part.m), where=counts > 0
    )
    return float(blas.ddot(diff, diff) / diff.shape[0]), per_cell, counts
