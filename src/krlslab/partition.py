"""Domain partitions and dataset splitting.

Two schemes: axis-aligned grids over a box (cells are half-open on the
right, except the last cell per axis which is closed so the box is covered
exactly) and Voronoi cells around explicit centers (distance ties go to the
lowest center index). A partition holds only tuples, so it is hashable and
compares by value.

Points and labels are coerced as everywhere else in the package, by
``kernels._as_points`` and ``kernels._as_data`` against the partition's
dimension, and checked by ``kernels._check_in_box``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .exceptions import ContractError


@dataclass(frozen=True)
class Partition:
    """Description of a partition of a box into m indexed cells."""

    scheme: str
    box: tuple = field(default=None)
    cells_per_dim: tuple = field(default=None)
    centers: tuple = field(default=None)

    def __post_init__(self):
        if self.scheme == "grid":
            if self.box is None or self.cells_per_dim is None:
                raise ContractError("grid partition needs box and cells_per_dim")
            box = tuple(kernels._interval(pair, "box interval") for pair in self.box)
            cells = tuple(kernels._count(c, "cells_per_dim") for c in self.cells_per_dim)
            if len(box) != len(cells):
                raise ContractError("box and cells_per_dim disagree in dimension")
            object.__setattr__(self, "box", box)
            object.__setattr__(self, "cells_per_dim", cells)
        elif self.scheme == "voronoi":
            if self.centers is None:
                raise ContractError("voronoi partition needs centers")
            centers = np.atleast_2d(np.asarray(self.centers, dtype=float))
            if centers.ndim != 2 or centers.shape[0] < 1:
                raise ContractError("voronoi centers must be a nonempty (m, d) array")
            if not np.all(np.isfinite(centers)):
                raise ContractError("voronoi centers must be finite")
            object.__setattr__(self, "centers", tuple(map(tuple, centers.tolist())))
        else:
            raise ContractError(f"unknown partition scheme {self.scheme!r}")

    @property
    def m(self) -> int:
        if self.scheme == "grid":
            return int(np.prod(self.cells_per_dim))
        return len(self.centers)

    @property
    def dim(self) -> int:
        if self.scheme == "grid":
            return len(self.box)
        return len(self.centers[0])


def build_grid_partition(box, cells_per_dim) -> Partition:
    """Uniform grid over a box; cells_per_dim may be an int in one dimension."""
    box = tuple(box)
    if box and np.ndim(box[0]) == 0:
        box = (box,)
    if np.ndim(cells_per_dim) == 0:
        cells_per_dim = (cells_per_dim,) * len(box)
    return Partition(scheme="grid", box=box, cells_per_dim=tuple(cells_per_dim))


def build_voronoi_partition(centers) -> Partition:
    return Partition(scheme="voronoi", centers=centers)


def assign(partition: Partition, x):
    """Map points to cell indices.

    Grid cells are indexed in C order over the per-axis indices. Points
    outside the box raise DomainError, as do non-finite points under either
    scheme; zero points raise EmptyInputError. Voronoi assignment is nearest
    center in Euclidean distance, lowest index on ties.
    """
    pts = kernels._as_points(x, partition.dim)
    kernels._check_in_box(pts, partition.box or ())
    if partition.scheme == "grid":
        idx = np.zeros(pts.shape[0], dtype=int)
        for col, (lo, hi), k in zip(pts.T, partition.box, partition.cells_per_dim):
            cell = np.floor((col - lo) / (hi - lo) * k).astype(int)
            np.clip(cell, 0, k - 1, out=cell)
            idx = idx * k + cell
    else:
        centers = np.array(partition.centers)
        sq = ((pts[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        idx = np.argmin(sq, axis=1)
    return int(idx[0]) if np.ndim(x) == 0 else idx


def grid_cell_bounds(partition: Partition, j: int) -> tuple:
    """Bounds of grid cell j as a tuple of per-axis (low, high) pairs."""
    if partition.scheme != "grid":
        raise ContractError("cell bounds are only defined for grid partitions")
    j = kernels._count(j, "cell index j", low=0)
    if j >= partition.m:
        raise ContractError(f"cell index {j} out of range")
    bounds = []
    rest = j
    for (lo, hi), k in zip(
        reversed(partition.box), reversed(partition.cells_per_dim)
    ):
        c = rest % k
        rest //= k
        width = (hi - lo) / k
        bounds.append((lo + c * width, lo + (c + 1) * width))
    return tuple(reversed(bounds))


@dataclass(frozen=True)
class CellStats:
    """Per-cell counts, empirical weights, and the original row indices.

    weights sums to exactly 1, in any order of summation: see
    ``_exact_weights``. An empty cell has weight exactly 0.
    """

    counts: np.ndarray
    weights: np.ndarray
    index_sets: tuple

    def __post_init__(self):
        object.__setattr__(self, "counts", np.asarray(self.counts, dtype=int))
        object.__setattr__(self, "weights", np.asarray(self.weights, dtype=float))
        sets = tuple(np.asarray(ix, dtype=int) for ix in self.index_sets)
        object.__setattr__(self, "index_sets", sets)

    @property
    def min_count(self) -> int:
        return int(self.counts.min())

    @property
    def empty_cells(self) -> np.ndarray:
        return np.flatnonzero(self.counts == 0)


def _group(partition: Partition, pts: np.ndarray):
    """Per-cell counts and row indices of a batch of points.

    Returns (counts, index_sets) with index_sets[j] the ascending rows that
    fall in cell j, empty for an empty cell. Every caller that handles
    points cell by cell goes through here.
    """
    labels = assign(partition, pts)
    counts = np.bincount(labels, minlength=partition.m)
    # A stable sort keeps each cell's indices ascending.
    order = np.argsort(labels, kind="stable")
    return counts, tuple(np.split(order, np.cumsum(counts[:-1])))


def _exact_weights(counts: np.ndarray) -> np.ndarray:
    """counts / counts.sum(), each rounded to a multiple of 2**-53.

    The rounding leaves whole units of 2**-53 over or short, and the
    fullest cell takes them. Every multiple of 2**-53 in [0, 1] is a double,
    so every partial sum of these weights is exact and any order of
    summation gives exactly 1.0. Empty cells get exactly 0. The fullest
    cell, at weight 1/m or more, gives up at most m/2 + 1 units, so no weight
    is negative for m below 2**26 cells.
    """
    units = np.rint(counts / counts.sum() * 2.0**53).astype(np.int64)
    units[np.argmax(counts)] += 2**53 - units.sum()
    return units * 2.0**-53


def split_dataset(partition: Partition, x, y):
    """Split (x, y) by cell.

    Labels must be flat and finite, one per point. Returns (stats, cells)
    where cells[j] = (x_j, y_j) holds cell j's rows in their original order.
    Empty cells get zero-length arrays. Concatenating the index sets in cell
    order and inverting recovers (x, y) exactly.
    """
    pts, y = kernels._as_data(x, y, partition.dim)
    counts, index_sets = _group(partition, pts)
    weights = _exact_weights(counts)
    cells = [(pts[ix], y[ix]) for ix in index_sets]
    stats = CellStats(counts=counts, weights=weights, index_sets=index_sets)
    return stats, cells
