"""Localized fits, the direct-sum Gram, and the distributed-average baseline."""

import logging

import numpy as np
import pytest

from krlslab import (
    ContractError,
    DomainError,
    EmptyInputError,
    ZeroModel,
    brownian,
    build_grid_partition,
    build_voronoi_partition,
    cell_seed,
    cross_gram,
    direct_sum_gram,
    effective_dimension,
    effective_dimension_sum_check,
    eval_kernel,
    fit_distributed_average,
    fit_krls,
    fit_localized,
    fit_localized_nystrom,
    gaussian,
    gram,
    kernels,
    krls,
    polynomial,
    spd_solve,
    split_dataset,
)


def _data(n, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.uniform(0, 1, n)
    y = np.sin(6 * x) + 0.1 * rng.standard_normal(n)
    return x, y


def test_single_cell_matches_global_krls():
    x, y = _data(100)
    part = build_grid_partition((0.0, 1.0), 1)
    spec = gaussian(0.3)
    loc = fit_localized(x, y, part, 1e-2, spec)
    glob = fit_krls(x, y, 1e-2, spec)
    grid = np.linspace(0, 1, 97)
    np.testing.assert_allclose(loc.predict(grid), glob.predict(grid), atol=1e-10)


def test_locality_other_cells_bitwise_unchanged():
    # changing labels in one cell must not move predictions anywhere else,
    # not even in the last bit
    x, y = _data(200, seed=1)
    part = build_grid_partition((0.0, 1.0), 4)
    spec = gaussian(0.2)
    base = fit_localized(x, y, part, 1e-2, spec)

    from krlslab import assign

    labels = assign(part, x)
    y2 = y.copy()
    y2[labels == 2] += 5.0
    bumped = fit_localized(x, y2, part, 1e-2, spec)

    grid = np.linspace(0, 1, 400)
    glabels = assign(part, grid)
    outside = glabels != 2
    np.testing.assert_array_equal(
        base.predict(grid)[outside], bumped.predict(grid)[outside]
    )
    inside = ~outside
    assert np.all(base.predict(grid)[inside] != bumped.predict(grid)[inside])


def test_zero_extension_off_occupied_cell(caplog):
    part = build_grid_partition((0.0, 1.0), 4)
    x = np.array([0.1, 0.12, 0.2])  # only cell 0 occupied
    y = np.array([1.0, 1.1, 0.9])
    with caplog.at_level(logging.WARNING, logger="krlslab.localized"):
        model = fit_localized(x, y, part, 1e-3, gaussian(0.3))
    empty_warnings = [r for r in caplog.records if "empty" in r.getMessage()]
    assert len(empty_warnings) == 3
    assert sum(isinstance(m, ZeroModel) for m in model.local_models) == 3
    np.testing.assert_array_equal(
        model.predict(np.array([0.3, 0.6, 0.99])), np.zeros(3)
    )
    assert model.predict(0.1) != 0.0


def test_zero_labels_give_zero_predictor():
    x, _ = _data(60, seed=2)
    part = build_grid_partition((0.0, 1.0), 3)
    model = fit_localized(x, np.zeros(60), part, 1e-2, gaussian(0.3))
    np.testing.assert_allclose(model.predict(np.linspace(0, 1, 50)), 0.0, atol=1e-12)


def test_localized_nystrom_full_budget_matches_localized():
    x, y = _data(150, seed=3)
    part = build_grid_partition((0.0, 1.0), 3)
    spec = gaussian(0.25)
    exact = fit_localized(x, y, part, 1e-2, spec)
    # l larger than any cell count, so every cell runs at l_j = n_j
    approx = fit_localized_nystrom(x, y, part, 1e-2, 150, 7, spec)
    grid = np.linspace(0, 1, 123)
    np.testing.assert_allclose(approx.predict(grid), exact.predict(grid), atol=1e-8)


def test_localized_nystrom_single_cell_matches_krls():
    # polynomial kernel keeps the normal equations well conditioned, so the
    # full-budget subsampled fit tracks the exact solve tightly
    x, y = _data(80, seed=4)
    part = build_grid_partition((0.0, 1.0), 1)
    spec = polynomial(3, 1.0)
    approx = fit_localized_nystrom(x, y, part, 1e-2, 80, 11, spec)
    glob = fit_krls(x, y, 1e-2, spec)
    grid = np.linspace(0, 1, 61)
    np.testing.assert_allclose(approx.predict(grid), glob.predict(grid), atol=1e-8)


def test_localized_nystrom_deterministic():
    x, y = _data(120, seed=5)
    part = build_grid_partition((0.0, 1.0), 4)
    spec = gaussian(0.25)
    a = fit_localized_nystrom(x, y, part, 1e-2, 10, 42, spec)
    b = fit_localized_nystrom(x, y, part, 1e-2, 10, 42, spec)
    grid = np.linspace(0, 1, 77)
    np.testing.assert_array_equal(a.predict(grid), b.predict(grid))


def test_cell_seed_is_distinct_per_cell():
    assert cell_seed(9, 0) != cell_seed(9, 1)
    assert cell_seed([3, 4], 2) == [3, 4, 2]


def test_direct_sum_gram_values():
    part = build_grid_partition((0.0, 1.0), 2)
    spec = brownian()
    # 1 x 1, different cells: exactly zero
    assert direct_sum_gram(part, spec, [0.5, 0.5], 0.2, 0.8).tolist() == [[0.0]]
    # 1 x 1, same cell: base value over the cell weight; min(0.5, 0.6)/0.25 = 2.0
    assert direct_sum_gram(part, spec, [0.75, 0.25], 0.6, 0.5).tolist() == [[2.0]]
    # single cell with weight one reduces to the base kernel
    whole = build_grid_partition((0.0, 1.0), 1)
    val = direct_sum_gram(whole, spec, [1.0], 0.3, 0.7)
    assert val.tolist() == [[eval_kernel(spec, 0.3, 0.7)]]
    # points in cells 0, 1, 0, 1 against cells 0, 1, 1: min(x, z) / 0.5 on
    # same-cell pairs, in the points' own order, zero across cells
    x = np.array([0.2, 0.6, 0.4, 0.9])
    z = np.array([0.3, 0.7, 0.55])
    expected = [[0.4, 0.0, 0.0], [0.0, 1.2, 1.1], [0.6, 0.0, 0.0], [0.0, 1.4, 1.1]]
    np.testing.assert_array_equal(direct_sum_gram(part, spec, [0.5, 0.5], x, z), expected)


def test_direct_sum_gram_contract_errors():
    part = build_grid_partition((0.0, 1.0), 2)
    spec = brownian()
    with pytest.raises(ContractError):
        direct_sum_gram(part, spec, [0.0, 1.0], 0.2, 0.3)  # occupied, weight 0
    with pytest.raises(ContractError):
        direct_sum_gram(part, spec, [0.0, 1.0], [0.2, 0.8], [0.3, 0.9])
    with pytest.raises(ContractError):
        direct_sum_gram(part, spec, [0.5, 0.5, 0.0], 0.2, 0.3)
    # cell 0 holds x but not z, so it has no block and its weight is unused
    assert direct_sum_gram(part, spec, [0.0, 1.0], 0.2, 0.8).tolist() == [[0.0]]


def test_distributed_average_single_chunk_matches_krls():
    x, y = _data(70, seed=6)
    spec = gaussian(0.3)
    avg = fit_distributed_average(x, y, 1, 1e-2, spec, 5)
    glob = fit_krls(x, y, 1e-2, spec)
    grid = np.linspace(0, 1, 45)
    np.testing.assert_allclose(avg.predict(grid), glob.predict(grid), atol=1e-12)


def test_distributed_average_mean_of_chunks_oracle():
    x, y = _data(21, seed=7)
    spec = gaussian(0.3)
    seed = 13
    model = fit_distributed_average(x, y, 3, 1e-2, spec, seed)

    # oracle: replay the same permutation and average manual per-chunk fits
    perm = np.random.default_rng(seed).permutation(21)
    grid = np.linspace(0, 1, 33)
    preds = []
    for chunk in np.array_split(perm, 3):
        preds.append(fit_krls(x[chunk], y[chunk], 1e-2, spec).predict(grid))
    np.testing.assert_array_equal(model.predict(grid), np.mean(preds, axis=0))
    scalar = [fit_krls(x[c], y[c], 1e-2, spec).predict(0.5) for c in np.array_split(perm, 3)]
    assert model.predict(0.5) == float(np.mean(scalar))


@pytest.mark.parametrize("m", [1, 4, 64])
def test_brownian_distributed_average_predicts_by_one_expansion(m, monkeypatch):
    # the average of m min-kernel fits is one expansion over all n centers,
    # whatever m is, and never forms a cross-Gram
    rng = np.random.default_rng(23)
    x = rng.uniform(0, 1, 256)
    model = fit_distributed_average(x, rng.standard_normal(256), m, 1e-3, brownian(), 5)
    t = rng.uniform(0, 1, 300)  # unsorted queries
    expected = np.mean([chunk.predict(t) for chunk in model.models], axis=0)
    scale = np.mean([np.abs(cross_gram(chunk.kernel, t, chunk.inputs)) @ np.abs(chunk.alpha)
                     for chunk in model.models], axis=0)
    calls = []
    real_min_expansion = krls._min_expansion

    def counted_min_expansion(*args):
        calls.append(args[1].size)
        return real_min_expansion(*args)

    def no_cross_gram(*args):
        raise AssertionError("the min kernel predicts without a cross-Gram")

    monkeypatch.setattr(krls, "_min_expansion", counted_min_expansion)
    monkeypatch.setattr(kernels, "cross_gram", no_cross_gram)
    got = model.predict(t)
    assert calls == [256]
    assert np.all(np.abs(got - expected) <= 1e-13 * scale)
    value = model.predict(0.5)
    assert isinstance(value, float)
    assert calls == [256, 256]
    with pytest.raises(EmptyInputError):
        model.predict(np.array([]))
    for outside in (-0.1, 1.5, np.nan):
        with pytest.raises(DomainError):
            model.predict([0.5, outside])


def test_distributed_average_chunk_count_bounds():
    x, y = _data(10, seed=8)
    spec = gaussian(0.3)
    with pytest.raises(ContractError):
        fit_distributed_average(x, y, 11, 1e-2, spec, 0)
    with pytest.raises(ContractError):
        fit_distributed_average(x, y, 0, 1e-2, spec, 0)
    # m = n runs with one point per chunk
    model = fit_distributed_average(x, y, 10, 1e-2, spec, 0)
    assert len(model.models) == 10


def test_distributed_average_rejects_non_finite_labels():
    x, y = _data(12, seed=8)
    y[5] = np.nan
    with pytest.raises(ContractError, match="finite"):
        fit_distributed_average(x, y, 3, 1e-2, gaussian(0.3), 0)


def test_cellwise_error_decomposition():
    # grouping the squared errors by cell and reweighting by empirical cell
    # mass reproduces the pooled mean exactly
    from krlslab import NoiseSpec, cellwise_mse, sobolev_task

    task = sobolev_task(0.5, 1.0, NoiseSpec("gaussian", 0.1))
    x, y = _data(120, seed=9)
    part = build_grid_partition((0.0, 1.0), 4)
    model = fit_localized(x, y, part, 1e-2, gaussian(0.3))
    glob, per_cell, counts = cellwise_mse(model, task, part, 2000, seed=3)
    assert counts.sum() == 2000
    recombined = float(np.sum(per_cell * counts) / 2000)
    np.testing.assert_allclose(recombined, glob, rtol=1e-9)


def test_fit_error_carries_cell_index():
    part = build_grid_partition((0.0, 1.0), 2)
    x = np.array([0.1, 0.9])
    y = np.array([1.0, 2.0])
    good = gaussian(0.3)
    bad = gaussian(0.3, ((0.0, 1.0), (0.0, 1.0)))  # wrong dimension for cell 1
    with pytest.raises(ContractError, match="cell 1"):
        fit_localized(x, y, part, 1e-2, [good, bad])


def test_spec_list_length_mismatch():
    part = build_grid_partition((0.0, 1.0), 3)
    x = np.array([0.1, 0.5, 0.9])
    y = np.zeros(3)
    spec = gaussian(0.3)
    with pytest.raises(ContractError):
        fit_localized(x, y, part, 1e-2, [spec, spec])


def test_localized_nystrom_budget_validation():
    x, y = _data(30, seed=10)
    part = build_grid_partition((0.0, 1.0), 2)
    with pytest.raises(ContractError):
        fit_localized_nystrom(x, y, part, 1e-2, 0, 1, gaussian(0.3))


@pytest.mark.parametrize(
    "fit, patched",
    [
        (lambda x, y, part: fit_localized(x, y, part, 1e-2, gaussian(0.3)), "fit_krls"),
        (
            lambda x, y, part: fit_localized_nystrom(x, y, part, 1e-2, 4, 0, gaussian(0.3)),
            "fit_nystrom",
        ),
    ],
    ids=["localized", "localized_nystrom"],
)
def test_non_finite_label_rejected_before_any_cell_fit(fit, patched, monkeypatch):
    import krlslab.localized as localized_mod

    calls = []
    original = getattr(localized_mod, patched)

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(localized_mod, patched, counting)
    x, y = _data(40, seed=11)
    part = build_grid_partition((0.0, 1.0), 4)
    fit(x, y, part)  # the counter sees the clean fit
    assert len(calls) == 4
    calls.clear()
    y[x > 0.75] = np.nan  # labels of the last cell only
    with pytest.raises(ContractError, match="finite") as err:
        fit(x, y, part)
    assert not str(err.value).startswith("cell ")
    assert calls == []


@pytest.mark.parametrize("lam", [0.0, -1e-2, np.nan, np.inf])
@pytest.mark.parametrize(
    "fit, patched",
    [
        (lambda x, y, part, lam: fit_localized(x, y, part, lam, gaussian(0.3)), "fit_krls"),
        (
            lambda x, y, part, lam: fit_localized_nystrom(
                x, y, part, lam, 4, 0, gaussian(0.3)
            ),
            "fit_nystrom",
        ),
    ],
    ids=["localized", "localized_nystrom"],
)
def test_bad_lam_rejected_before_any_cell_fit(fit, patched, lam, monkeypatch):
    import krlslab.localized as localized_mod

    calls = []
    original = getattr(localized_mod, patched)

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(localized_mod, patched, counting)
    x, y = _data(40, seed=11)
    part = build_grid_partition((0.0, 1.0), 4)
    with pytest.raises(ContractError, match="lam must be positive") as err:
        fit(x, y, part, lam)
    assert not str(err.value).startswith("cell ")
    assert calls == []
    fit(x, y, part, 1e-2)  # the counter sees the clean fit
    assert len(calls) == 4


def _direct_sum_case(scheme, n, rng):
    """Partition, kernel, n training points and 30 test points of a scheme."""
    if scheme == "grid_1d":
        part, spec = build_grid_partition((0.0, 1.0), 4), gaussian(0.3)
        return part, spec, rng.uniform(0, 1, n), rng.uniform(0, 1, 30)
    box = ((0.0, 1.0), (0.0, 1.0))
    part = build_voronoi_partition([[0.2, 0.3], [0.7, 0.2], [0.5, 0.8]])
    return part, gaussian(0.3, box), rng.uniform(0, 1, (n, 2)), rng.uniform(0, 1, (30, 2))


@pytest.mark.parametrize("scheme", ["grid_1d", "voronoi_2d"])
def test_localized_equals_global_fit_under_direct_sum_kernel(scheme):
    # The blocks of (K + lam n I) alpha = y decouple into
    # (K_j + lam n_j I) alpha_j = p_j y_j, so the two fits predict alike.
    rng = np.random.default_rng(21)
    for n in (48, 1024):
        part, spec, x, xt = _direct_sum_case(scheme, n, rng)
        y = rng.standard_normal(n)
        counts = split_dataset(part, x, y)[0].counts
        assert np.all(counts > 0)
        local = fit_localized(x, y, part, 1e-2, spec).predict(xt)
        weights = counts / n
        alpha = spd_solve(direct_sum_gram(part, spec, weights, x, x), 1e-2 * n, y)
        direct = direct_sum_gram(part, spec, weights, xt, x) @ alpha
        # relative to the largest prediction: a pointwise ratio blows up near zero
        scale = np.abs(direct).max()
        np.testing.assert_allclose(local, direct, rtol=1e-12, atol=1e-12 * scale)


@pytest.mark.parametrize("scheme", ["grid_1d", "voronoi_2d"])
def test_direct_sum_gram_effective_dimension_splits_across_cells(scheme):
    # The spectrum of the direct-sum Gram over n is the union over cells of
    # eig(K_j / n) / p_j, the right-hand side of the sum check.
    n, lam = 1024, 1e-3
    part, spec, x, _ = _direct_sum_case(scheme, n, np.random.default_rng(22))
    stats, cells = split_dataset(part, x, np.zeros(n))
    weights = stats.counts / n
    spectra = [np.linalg.eigvalsh(gram(spec, xj) / n) for xj, _ in cells]
    _, rhs, _ = effective_dimension_sum_check(spectra, weights, lam)
    whole = effective_dimension(direct_sum_gram(part, spec, weights, x, x), lam)
    # eigh roundoff moves N by about n eps |G / n| / lam, some 2e-11 of N here
    assert whole == pytest.approx(rhs, rel=1e-9)


def test_localized_predict_on_zero_points_matches_krls():
    x, y = _data(20, seed=12)
    spec = gaussian(0.3)
    models = (
        fit_krls(x, y, 1e-2, spec),
        fit_localized(x, y, build_grid_partition((0.0, 1.0), 3), 1e-2, spec),
    )
    for model in models:
        with pytest.raises(EmptyInputError):
            model.predict(np.empty((0, 1)))
