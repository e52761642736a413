"""
Partition-localized fitting
===========================

Splits the domain into cells, fits one small model per cell, and glues
the pieces. Predictions inside a cell depend only on that cell's data,
and a single-cell partition reproduces the global fit exactly.
"""

import numpy as np

from krlslab import (
    NoiseSpec,
    assign,
    build_grid_partition,
    cellwise_mse,
    direct_sum_gram,
    fit_krls,
    fit_localized,
    fit_localized_nystrom,
    gaussian,
    sobolev_task,
)

rng = np.random.default_rng(33)

n = 1200
x = rng.uniform(0.0, 1.0, n)
y = np.sin(4.0 * np.pi * x) * np.exp(-x) + 0.2 * rng.standard_normal(n)
spec = gaussian(0.1)
lam = 1e-3

# A uniform grid partition assigns every point to exactly one cell.
part = build_grid_partition(((0.0, 1.0),), 6)
local = fit_localized(x, y, part, lam, spec)
print("cells:", part.m, " per-cell counts:", local.cell_stats.counts)

x_test = np.linspace(0.0, 1.0, 600)
pred = local.predict(x_test)

# Locality: perturbing labels in one cell leaves the other cells'
# predictions bitwise unchanged.
bumped = y.copy()
bumped[assign(part, x) == 2] += 5.0
other = assign(part, x_test) != 2
pred_bumped = fit_localized(x, bumped, part, lam, spec).predict(x_test)
print("other-cell predictions unchanged:", bool(np.array_equal(pred[other], pred_bumped[other])))

# Single cell == global fit.
whole = build_grid_partition(((0.0, 1.0),), 1)
gap = np.max(np.abs(fit_localized(x, y, whole, lam, spec).predict(x_test)
                    - fit_krls(x, y, lam, spec).predict(x_test)))
print(f"single cell vs global: max |diff| {float(gap):.2e}")

# The glued estimator is itself a kernel method: global KRLS under the
# weighted direct sum of the cell kernels, each divided by its cell weight
# p_j = n_j / n and zero across cells. Two points in cell 0, one in cell 3:
pts = np.array([0.11, 0.12, 0.51])
block = direct_sum_gram(part, spec, local.cell_stats.weights, pts, pts)
print("direct-sum Gram block:")
print(np.round(block, 3))

# Landmarks can be restricted per cell as well: every cell draws the
# same number, capped at the cell's own sample size.
combo = fit_localized_nystrom(x, y, part, lam, 25, 9, spec)
print("landmarks per cell:", [m.landmarks.shape[0] for m in combo.local_models])

# Any predictor's test error can be split by cell; the weighted sum of
# the pieces reproduces the overall value.
task = sobolev_task(0.5, 1.0, NoiseSpec("gaussian", 0.0))
overall, per_cell, counts = cellwise_mse(local.predict, task, part, 4000, 17)
print("cellwise mse:", np.round(per_cell, 5))
print("overall:", round(overall, 5), " test points per cell:", counts)
