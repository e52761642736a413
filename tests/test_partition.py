"""Grid and Voronoi partitions: assignment conventions and dataset splits."""

import numpy as np
import pytest

from krlslab import (
    ContractError,
    DomainError,
    EmptyInputError,
    assign,
    build_grid_partition,
    build_voronoi_partition,
    grid_cell_bounds,
    split_dataset,
)


def test_unit_interval_four_cells():
    part = build_grid_partition((0.0, 1.0), 4)
    assert part.m == 4
    assert grid_cell_bounds(part, 0) == ((0.0, 0.25),)
    assert grid_cell_bounds(part, 3) == ((0.75, 1.0),)
    # half-open boundaries, top cell closed
    assert assign(part, 0.25) == 1
    assert assign(part, 0.0) == 0
    assert assign(part, 1.0) == 3
    assert assign(part, 0.74999) == 2


def test_square_grid():
    part = build_grid_partition(((0.0, 1.0), (0.0, 1.0)), (2, 2))
    assert part.m == 4
    # C order: first axis major
    assert assign(part, np.array([0.1, 0.1])) == 0
    assert assign(part, np.array([0.1, 0.9])) == 1
    assert assign(part, np.array([0.9, 0.1])) == 2
    assert assign(part, np.array([0.9, 0.9])) == 3


def test_single_cell_identity():
    part = build_grid_partition((0.0, 1.0), 1)
    assert part.m == 1
    xs = np.linspace(0, 1, 11)
    np.testing.assert_array_equal(assign(part, xs), np.zeros(11, dtype=int))


def test_voronoi_tie_lowest_index():
    part = build_voronoi_partition([[0.2], [0.8]])
    assert assign(part, 0.5) == 0
    assert assign(part, 0.51) == 1
    assert assign(part, 0.49) == 0


def test_assign_vectorized_matches_scalar():
    part = build_grid_partition((0.0, 1.0), 7)
    rng = np.random.default_rng(0)
    xs = rng.uniform(0, 1, 200)
    vec = assign(part, xs)
    for x, cell in zip(xs, vec):
        assert assign(part, float(x)) == cell


def test_outside_domain_rejected():
    part = build_grid_partition((0.0, 1.0), 4)
    with pytest.raises(DomainError):
        assign(part, 1.5)
    with pytest.raises(DomainError):
        assign(part, np.array([0.5, -0.1]))


def test_non_finite_points_rejected():
    voronoi = build_voronoi_partition([[0.2], [0.8]])
    grid = build_grid_partition((0.0, 1.0), 4)
    for part in (voronoi, grid):
        with pytest.raises(DomainError):
            assign(part, np.array([np.nan, 0.9]))
        with pytest.raises(DomainError):
            assign(part, np.inf)


def test_flat_input_of_wrong_length_rejected():
    part = build_voronoi_partition([[0.2, 0.2], [0.8, 0.8]])
    assert assign(part, np.array([0.7, 0.9])) == 1
    with pytest.raises(ContractError):
        assign(part, np.array([0.1, 0.2, 0.3]))


def test_degenerate_and_invalid_construction():
    with pytest.raises(ContractError):
        build_grid_partition((1.0, 1.0), 4)
    with pytest.raises(ContractError):
        build_grid_partition((0.0, 1.0), 0)
    with pytest.raises(ContractError):
        build_voronoi_partition(np.zeros((0, 1)))


def test_non_finite_grid_box_rejected():
    # an infinite or NaN bound would put every point into cell 0
    for box in ((0.0, np.inf), (-np.inf, 1.0), (np.nan, 1.0)):
        with pytest.raises(ContractError):
            build_grid_partition(box, 4)
    with pytest.raises(ContractError):
        build_grid_partition(((0.0, 1.0), (0.0, np.inf)), (2, 2))


def test_non_finite_voronoi_centers_rejected():
    # a NaN center would take every point, since argmin stops at the NaN
    for centers in ([[np.nan], [0.5], [0.9]], [[0.1, 0.2], [np.inf, 0.5]]):
        with pytest.raises(ContractError):
            build_voronoi_partition(centers)


def test_split_single_cell():
    part = build_grid_partition((0.0, 1.0), 1)
    x = np.array([0.2, 0.9, 0.4])
    y = np.array([1.0, 2.0, 3.0])
    stats, cells = split_dataset(part, x, y)
    assert stats.counts.tolist() == [3]
    assert stats.weights.tolist() == [1.0]
    np.testing.assert_array_equal(cells[0][0][:, 0], x)
    np.testing.assert_array_equal(cells[0][1], y)


def test_split_allows_empty_cells():
    part = build_grid_partition((0.0, 1.0), 4)
    x = np.array([0.1, 0.15, 0.2])  # everything in cell 0
    y = np.zeros(3)
    stats, cells = split_dataset(part, x, y)
    assert stats.counts.tolist() == [3, 0, 0, 0]
    assert stats.min_count == 0
    assert stats.empty_cells.tolist() == [1, 2, 3]
    for j in (1, 2, 3):
        assert cells[j][0].shape[0] == 0


def test_weights_sum_exactly_one():
    # 1/3-style ratios do not sum to 1 in floating point unless the weights
    # are rounded to a common grid; check the exact-sum contract.
    part = build_grid_partition((0.0, 1.0), 3)
    rng = np.random.default_rng(1)
    for trial in range(20):
        x = rng.uniform(0, 1, int(rng.integers(3, 50)))
        stats, _ = split_dataset(part, x, np.zeros(len(x)))
        assert stats.weights.sum() == 1.0
        assert stats.counts.sum() == len(x)
    # numpy sums eight or more entries pairwise, so a complement taken in
    # another order misses 1 (and an empty last cell came out at -2.2e-16)
    cases = [(8, np.random.default_rng(6).uniform(0, 7 / 8, 20)),
             (8, np.random.default_rng(3).uniform(0, 1, 20))]
    for m in (8, 16, 64):
        cases += [(m, rng.uniform(0, rng.uniform(0.5, 1), int(rng.integers(m, 40 * m))))
                  for trial in range(20)]
    for m, x in cases:
        stats, _ = split_dataset(build_grid_partition((0.0, 1.0), m), x, np.zeros(len(x)))
        assert stats.weights.sum() == 1.0
        assert np.all(stats.weights[stats.counts == 0] == 0.0)
        assert np.all(stats.weights >= 0.0)
        np.testing.assert_allclose(stats.weights, stats.counts / len(x), rtol=0, atol=1e-14)


def test_split_preserves_order_and_reassembles():
    rng = np.random.default_rng(2)
    grid = build_grid_partition((0.0, 1.0), 5)
    # no point falls nearest the third center, so cell 2 stays empty
    voronoi = build_voronoi_partition([[0.2, 0.3], [0.7, 0.2], [0.9, 0.9], [0.5, 0.6]])
    cases = ((grid, rng.uniform(0, 1, (300, 1))), (voronoi, rng.uniform(0, 0.5, (300, 2))))
    for part, x in cases:
        y = rng.standard_normal(300)
        stats, cells = split_dataset(part, x, y)
        labels = assign(part, x)
        for j, ix in enumerate(stats.index_sets):
            np.testing.assert_array_equal(ix, np.flatnonzero(labels == j))
        rebuilt_x = np.empty_like(x)
        rebuilt_y = np.empty(300)
        for ix, (xj, yj) in zip(stats.index_sets, cells):
            assert np.all(np.diff(ix) > 0)  # original order within the cell
            rebuilt_x[ix] = xj
            rebuilt_y[ix] = yj
        np.testing.assert_array_equal(rebuilt_x, x)
        np.testing.assert_array_equal(rebuilt_y, y)
        all_idx = np.concatenate(stats.index_sets)
        assert sorted(all_idx.tolist()) == list(range(300))
    assert stats.counts[2] == 0 and stats.index_sets[2].shape == (0,)


def test_uniform_weights_concentrate():
    # binomial concentration oracle: p = 1/4 per cell, n = 1e4, 5 sigma
    # is about 0.022, so [0.22, 0.28] is comfortable
    part = build_grid_partition((0.0, 1.0), 4)
    x = np.random.default_rng(3).uniform(0, 1, 10_000)
    stats, _ = split_dataset(part, x, np.zeros(10_000))
    assert np.all(stats.weights >= 0.22)
    assert np.all(stats.weights <= 0.28)


def test_weight_deviation_shrinks_with_n():
    part = build_grid_partition((0.0, 1.0), 4)
    rng = np.random.default_rng(4)
    devs = []
    for n in (400, 40_000):
        x = rng.uniform(0, 1, n)
        stats, _ = split_dataset(part, x, np.zeros(n))
        devs.append(np.abs(stats.weights - 0.25).sum())
    assert devs[1] < devs[0]
    # 5 sigma per cell, summed
    assert devs[1] <= 5 * 4 * np.sqrt(0.25 * 0.75 / 40_000)


def test_split_empty_dataset_rejected():
    part = build_grid_partition((0.0, 1.0), 2)
    with pytest.raises(EmptyInputError):
        split_dataset(part, np.array([]), np.array([]))


def test_mismatched_labels_rejected():
    part = build_grid_partition((0.0, 1.0), 2)
    with pytest.raises(ContractError):
        split_dataset(part, np.array([0.1, 0.2]), np.array([1.0]))


def test_split_rejects_non_finite_labels():
    part = build_grid_partition((0.0, 1.0), 2)
    with pytest.raises(ContractError, match="finite"):
        split_dataset(part, np.array([0.1, 0.9]), np.array([1.0, np.nan]))


def test_assign_zero_points_rejected():
    # both schemes refuse an empty batch, as the kernels do
    grid = build_grid_partition(((0.0, 1.0), (0.0, 1.0)), (2, 2))
    voronoi = build_voronoi_partition([[0.2, 0.2], [0.8, 0.8]])
    for part in (grid, voronoi):
        with pytest.raises(EmptyInputError):
            assign(part, np.empty((0, 2)))


def test_voronoi_partition_hashable_and_compares_by_value():
    a = build_voronoi_partition([[0.1, 0.2], [0.7, 0.9]])
    b = build_voronoi_partition(np.array([[0.1, 0.2], [0.7, 0.9]]))
    c = build_voronoi_partition([[0.1, 0.2], [0.7, 0.8]])
    assert a == b and hash(a) == hash(b)
    assert a != c
    assert len({a, b, c}) == 2
    assert (a.m, a.dim) == (2, 2)
    with pytest.raises(ContractError):
        build_voronoi_partition(np.zeros((2, 2, 1)))  # would hold unhashable rows
