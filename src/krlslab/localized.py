"""Partition-localized estimators and the distributed-averaging baseline.

A localized fit solves an independent KRLS or Nystrom problem on each cell's
data with the same regularization strength everywhere; the overall estimator
is the sum of the local ones, each extended by zero off its own cell, so a
point is always predicted by exactly the model of the cell it falls in.
Empty cells contribute the zero function. Both localized fitters share one
split/fit/combine loop, ``_fit_cells``, and differ only in the per-cell fit.
Training pairs are checked once, at the split, before any cell is fit.

The distributed average checks that its models are KRLS fits under its own
kernel. For the min kernel it predicts as one expansion over all n centers,
the chunks' coefficients divided by m, so its cost does not grow with m.

The direct-sum view: the localized estimator is global KRLS under the kernel
K(x, z) = sum_j p_j^{-1} K_j(x, z) 1{x, z in cell j}, which vanishes across
cells; ``direct_sum_gram`` builds its Gram matrix. The cell weights appear
only in that kernel identity; prediction never divides by them.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from . import kernels, krls, partition as partition_mod
from .exceptions import ContractError
from .kernels import KernelSpec
from .krls import KrlsModel, fit_krls
from .nystrom import fit_nystrom
from .partition import CellStats, Partition

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class ZeroModel:
    """Placeholder local model for an empty cell; predicts identically zero."""

    def predict(self, x):
        arr = np.asarray(x, dtype=float)
        if arr.ndim == 0:
            return 0.0
        return np.zeros(arr.shape[0])


@dataclass(frozen=True)
class LocalizedModel:
    """Sum of per-cell models, each zero-extended off its cell."""

    partition: Partition
    local_models: tuple
    lam: float
    cell_stats: CellStats

    def __post_init__(self):
        object.__setattr__(self, "lam", kernels._real(self.lam, "lam"))
        m = self.partition.m
        if len(self.local_models) != m:
            raise ContractError(f"local_models holds {len(self.local_models)} models for {m} cells")
        if self.cell_stats.counts.shape != (m,):
            raise ContractError(f"cell_stats holds {self.cell_stats.counts.size} counts for {m} cells")

    def predict(self, x):
        pts = kernels._as_points(x, self.partition.dim)
        _, index_sets = partition_mod._group(self.partition, pts)
        out = np.zeros(pts.shape[0])
        for model, ix in zip(self.local_models, index_sets):
            if ix.size:
                out[ix] = model.predict(pts[ix])
        return float(out[0]) if np.ndim(x) == 0 else out


@dataclass(frozen=True)
class DistributedAverageModel:
    """Uniform average of independent KRLS fits on disjoint random chunks.

    Every model must be a ``KrlsModel`` under ``kernel``, as
    ``fit_distributed_average`` builds them; then the average is itself a
    kernel expansion over the chunks' centers with coefficients alpha / m.
    """

    models: tuple
    lam: float
    kernel: KernelSpec
    seed: object

    def __post_init__(self):
        object.__setattr__(self, "lam", kernels._real(self.lam, "lam"))
        if not self.models:
            raise ContractError("models must hold at least one model")
        for i, model in enumerate(self.models):
            if not isinstance(model, KrlsModel):
                raise ContractError(f"models[{i}] is a {type(model).__name__}, not a KrlsModel")
            if model.kernel != self.kernel:
                raise ContractError(f"models[{i}] has kernel {model.kernel}, "
                                    f"not the average's {self.kernel}")

    def predict(self, x):
        """Evaluate the average. Scalar in, float out; array in, array out.

        For the min kernel the average is one expansion over all n centers,
        with each chunk's alpha divided by m; it matches the mean of the
        chunk predictions to rounding. Other families average the chunk
        predictions, bit for bit: a merged cross-Gram would save nothing there.
        """
        if self.kernel.family == "brownian":
            centers = np.concatenate([model.inputs for model in self.models])
            alpha = np.concatenate([model.alpha for model in self.models])
            alpha /= len(self.models)
            return krls._kernel_expansion(self.kernel, x, centers, alpha)
        preds = [model.predict(x) for model in self.models]
        if np.ndim(preds[0]) == 0:
            return float(np.mean(preds))
        return np.mean(preds, axis=0)


def _spec_list(specs, m: int) -> list:
    """Accept one KernelSpec for all cells or a sequence of exactly m."""
    if isinstance(specs, KernelSpec):
        return [specs] * m
    specs = list(specs)
    if len(specs) != m:
        raise ContractError(f"got {len(specs)} kernel specs for {m} cells")
    return specs


def _fit_cells(x, y, part: Partition, lam: float, specs, fit_cell) -> LocalizedModel:
    """Split (x, y) by cell, fit each occupied cell, and zero-extend.

    ``fit_cell(j, x_j, y_j, spec_j)`` returns cell j's model. Empty cells get
    a zero model plus a logged warning. An error raised by a cell's fit
    propagates with its message prefixed by ``cell j:``; ``lam`` is checked
    first, before the split.
    """
    lam = kernels._real(lam, "lam")
    stats, cells = partition_mod.split_dataset(part, x, y)
    spec_list = _spec_list(specs, part.m)
    local = []
    for j, ((xj, yj), spec) in enumerate(zip(cells, spec_list)):
        if xj.shape[0] == 0:
            logger.warning("cell %d is empty; using the zero model", j)
            local.append(ZeroModel())
            continue
        try:
            local.append(fit_cell(j, xj, yj, spec))
        except Exception as exc:
            head = exc.args[0] if exc.args else str(exc)
            exc.args = (f"cell {j}: {head}",) + exc.args[1:]
            raise
    return LocalizedModel(
        partition=part, local_models=tuple(local), lam=lam, cell_stats=stats
    )


def fit_localized(x, y, part: Partition, lam: float, specs) -> LocalizedModel:
    """Fit one KRLS model per cell, all with the same lam.

    Each cell's solve shifts by lam times its own point count, matching the
    1/n_j weighting of the local objective. Empty cells are allowed and get
    a zero model plus a logged warning.
    """
    return _fit_cells(
        x, y, part, lam, specs, lambda j, xj, yj, spec: fit_krls(xj, yj, lam, spec)
    )


def cell_seed(seed, j: int) -> list:
    """Entropy list for cell j derived from the fit seed (a whole number or a
    list of them); order-independent."""
    seeds = seed if isinstance(seed, (list, tuple)) else [seed]
    return [kernels._count(s, "seed", low=0) for s in seeds] + [kernels._count(j, "j", low=0)]


def fit_localized_nystrom(
    x, y, part: Partition, lam: float, l: int, seed, specs
) -> LocalizedModel:
    """Per-cell Nystrom fits with a shared landmark budget l.

    Cells with fewer than l points fall back to l' = n_j landmarks (logged).
    Each cell draws landmarks from its own seed, derived from (seed, j), so
    results do not depend on cell processing order.
    """
    l = kernels._count(l, "landmark budget l")

    def fit_cell(j, xj, yj, spec):
        nj, lj = xj.shape[0], l
        if nj < lj:
            logger.info("cell %d has %d points; capping landmarks at %d", j, nj, nj)
            lj = nj
        return fit_nystrom(xj, yj, lam, lj, cell_seed(seed, j), spec)

    return _fit_cells(x, y, part, lam, specs, fit_cell)


def direct_sum_gram(part: Partition, specs, weights, x, z) -> np.ndarray:
    """Gram matrix of the weighted direct-sum kernel between x and z.

    Entry (i, k) is p_j^{-1} K_j(x_i, z_k) when both points lie in cell j and
    zero when they fall in different cells. A nonpositive weight on a cell
    holding points of both x and z is a contract violation (the direct-sum
    kernel is undefined there).
    """
    spec_list = _spec_list(specs, part.m)
    weights = np.asarray(weights, dtype=float)
    if weights.shape != (part.m,):
        raise ContractError("need one weight per cell")
    a = kernels._as_points(x, part.dim)
    b = kernels._as_points(z, part.dim)
    _, rows = partition_mod._group(part, a)
    _, cols = partition_mod._group(part, b)
    out = np.zeros((a.shape[0], b.shape[0]))
    for j, (ix, iz) in enumerate(zip(rows, cols)):
        if ix.size and iz.size:
            if not weights[j] > 0:
                raise ContractError(f"cell {j} is occupied but has weight {weights[j]}")
            out[np.ix_(ix, iz)] = kernels.cross_gram(spec_list[j], a[ix], b[iz]) / weights[j]
    return out


def fit_distributed_average(
    x, y, m: int, lam: float, spec: KernelSpec, seed
) -> DistributedAverageModel:
    """Split the data into m random near-equal chunks and average KRLS fits.

    Chunk sizes differ by at most one when m does not divide n. Requires
    m <= n so every chunk is nonempty.
    """
    lam = kernels._real(lam, "lam")
    pts, y = kernels._as_data(x, y, spec.dim)
    n = pts.shape[0]
    m = kernels._count(m, "chunk count m")
    if m > n:
        raise ContractError(f"chunk count m={m} must satisfy 1 <= m <= n={n}")
    perm = kernels._rng(seed).permutation(n)
    models = tuple(
        fit_krls(pts[chunk], y[chunk], lam, spec) for chunk in np.array_split(perm, m)
    )
    return DistributedAverageModel(models=models, lam=lam, kernel=spec, seed=seed)
