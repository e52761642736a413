"""Synthetic targets, tasks, sampling, and error estimation."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from krlslab import (
    ContractError,
    EmptyInputError,
    NoiseSpec,
    SyntheticTask,
    brownian,
    build_grid_partition,
    cellwise_mse,
    fit_krls,
    fit_localized,
    gen_inputs,
    lambda_schedule,
    make_piecewise_target,
    make_sobolev_target,
    mercer_eigenvalues,
    mise_estimate,
    piecewise_task,
    sample_labels,
    sobolev_task,
    synth,
)


def test_mercer_eigenvalues_closed_form():
    mu = mercer_eigenvalues(3)
    np.testing.assert_allclose(
        mu,
        [(0.5 * np.pi) ** -2, (1.5 * np.pi) ** -2, (2.5 * np.pi) ** -2],
        rtol=1e-15,
    )


def test_sobolev_source_norm_exact():
    for r, R in ((0.5, 1.0), (0.25, 2.0), (0.1, 0.3), (0.5, 0.05)):
        target = make_sobolev_target(r, R)
        assert math.isclose(target.source_sum(), R * R, rel_tol=1e-12)


def test_sobolev_single_mode():
    # with one retained mode the norm constraint pins the coefficient:
    # c_1^2 mu_1^{-2r} = R^2, so c_1 = R mu_1^r
    target = make_sobolev_target(0.5, 1.0, k_trunc=1)
    mu1 = (0.5 * np.pi) ** -2
    assert math.isclose(target.coefficients[0], mu1**0.5, rel_tol=1e-14)
    # and the function is c_1 sqrt(2) sin(pi x / 2)
    x = np.array([0.0, 0.5, 1.0])
    expect = target.coefficients[0] * np.sqrt(2) * np.sin(0.5 * np.pi * x)
    np.testing.assert_allclose(target(x), expect, rtol=1e-14)


def _direct_series(coeffs, t):
    # reference: the N x K sine matrix times the coefficients
    k = np.arange(1, coeffs.shape[0] + 1)
    return math.sqrt(2.0) * np.sin(np.outer(t, (k - 0.5) * np.pi)) @ coeffs


@pytest.mark.parametrize("k_trunc", [1, 7, 200, 1000, 2000])
@pytest.mark.parametrize("r", [0.1, 0.25, 0.5])
def test_clenshaw_series_matches_sine_matrix(r, k_trunc):
    # _series against the N x K sine matrix, up to 2000 terms
    rng = np.random.default_rng(16)
    t = np.concatenate([[0.0, 1.0], np.linspace(0.0, 1.0, 1001), rng.random(1000)])
    coeffs = make_sobolev_target(r, 1.0, k_trunc).coefficients
    want = _direct_series(coeffs, t)
    got = synth._series(coeffs, t)
    assert np.abs(got - want).max() <= 1e-13 * (1.0 + np.abs(want).max())


def test_series_at_zero_and_on_no_points():
    coeffs = make_sobolev_target(0.5, 1.0).coefficients
    assert synth._series(coeffs, np.array([0.0]))[0] == 0.0
    assert synth._series(coeffs, np.zeros(0)).shape == (0,)


@pytest.mark.parametrize(
    "task",
    [
        sobolev_task(0.5, 1.0, NoiseSpec("gaussian", 0.1)),
        piecewise_task(0.1, 0.5, 0.25, 1.0, 16, {7}, NoiseSpec("gaussian", 0.1)),
    ],
    ids=["sobolev", "piecewise"],
)
def test_target_value_is_independent_of_its_batch(task):
    # a point's value is the same alone, in any sub-batch, or in the full
    # batch, on both sides of the block size of _series; batches of fewer
    # than 97 points are sampled every 97 points
    xs = gen_inputs(task, 20000, 21)
    full = task.target(xs)
    for size in (1, 7, 8, 2047, 2048, 2049, 20000):
        for i in range(0, 20000, max(size, 97)):
            np.testing.assert_array_equal(
                task.target(xs[i:i + size]), full[i:i + size], err_msg=f"size {size} at {i}"
            )


def test_target_evaluation_memory_is_linear_in_points():
    # the acceptance target at the acceptance test size: 20000 points and
    # 200 terms, whose sine matrix alone would take 32 MB
    task = sobolev_task(0.5, 1.0, NoiseSpec("gaussian", 0.15), marginal=("uniform", 0.9, 1.0))
    xs = gen_inputs(task, 20000, 0)
    tracemalloc.start()
    try:
        task.target(xs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_targets_and_labels_read_points_like_kernels():
    # (n,) and (n, 1) are the same n points; (n, 2) is not 1-d input
    sob = sobolev_task(0.5, 1.0, NoiseSpec("gaussian", 0.1))
    pw = piecewise_task(0.1, 0.5, 0.25, 1.0, 4, {1}, NoiseSpec("gaussian", 0.1))
    x = np.linspace(0.05, 0.95, 5)
    for call in (sob.target, pw.target, lambda pts: sample_labels(sob, pts, 3)):
        np.testing.assert_array_equal(call(x[:, None]), call(x))
        with pytest.raises(ContractError, match="2 coordinates, expected 1"):
            call(np.full((5, 2), 0.3))


def test_sobolev_coefficient_profile():
    target = make_sobolev_target(0.5, 1.0, k_trunc=10)
    mu = mercer_eigenvalues(10)
    c = target.coefficients
    # ratios follow mu_k^{r+1/2} k^{-0.51} with the overall scale cancelled
    want = (mu[4] / mu[0]) ** 1.0 * 5.0**-0.51
    assert math.isclose(c[4] / c[0], want, rel_tol=1e-12)
    assert np.all(np.diff(c) < 0)  # strictly decaying


def test_sobolev_validation():
    with pytest.raises(ContractError):
        make_sobolev_target(0.6, 1.0)
    with pytest.raises(ContractError):
        make_sobolev_target(0.0, 1.0)
    with pytest.raises(ContractError):
        make_sobolev_target(0.5, -1.0)
    with pytest.raises(ContractError):
        make_sobolev_target(0.5, 1.0, k_trunc=0)


def test_truncation_tail_shrinks():
    small = make_sobolev_target(0.5, 1.0, k_trunc=50)
    large = make_sobolev_target(0.5, 1.0, k_trunc=400)
    assert 0 < large.truncation_sup_error < small.truncation_sup_error


def test_piecewise_equal_regimes_ignore_exceptional_set():
    part = build_grid_partition(((0.0, 1.0),), 8)
    a = make_piecewise_target(0.3, 0.3, 0.7, 0.7, part, set())

    # r_l < r_h is required, so compare against a target whose two regimes
    # agree numerically by construction instead
    b_part = build_grid_partition(((0.0, 1.0),), 8)
    b = make_piecewise_target(0.3, 0.3, 0.7, 0.7, b_part, {2, 5})
    xs = np.linspace(0, 1, 257)
    np.testing.assert_array_equal(a(xs), b(xs))


def test_piecewise_source_sums_exact():
    part = build_grid_partition(((0.0, 1.0),), 16)
    target = make_piecewise_target(0.1, 0.5, 0.25, 1.0, part, {7})
    sums = target.source_sums()
    want = np.full(16, 1.0)
    want[7] = 0.25**2
    np.testing.assert_allclose(sums, want, rtol=1e-12)
    assert target.cell_smoothness(7) == 0.1
    assert target.cell_smoothness(0) == 0.5


def test_piecewise_exceptional_mass():
    part = build_grid_partition(((0.0, 1.0),), 16)
    assert make_piecewise_target(0.1, 0.5, 1.0, 1.0, part, {7}).exceptional_mass() == 0.0625
    assert make_piecewise_target(0.1, 0.5, 1.0, 1.0, part, {0, 8}).exceptional_mass() == 0.125
    assert make_piecewise_target(0.1, 0.5, 1.0, 1.0, part, set()).exceptional_mass() == 0.0


def test_piecewise_validation():
    part2d = build_grid_partition(((0.0, 1.0), (0.0, 1.0)), (2, 2))
    with pytest.raises(ContractError):
        make_piecewise_target(0.1, 0.5, 1.0, 1.0, part2d, set())
    part = build_grid_partition(((0.0, 1.0),), 4)
    with pytest.raises(ContractError):
        make_piecewise_target(0.1, 0.5, 1.0, 1.0, part, {4})
    with pytest.raises(ContractError):
        make_piecewise_target(0.1, 0.6, 1.0, 1.0, part, set())


def test_gen_inputs_marginal_and_determinism():
    task = sobolev_task(0.5, 1.0, NoiseSpec("gaussian", 0.1), marginal=("uniform", 0.7, 1.0))
    x = gen_inputs(task, 5000, seed=3)
    assert x.min() >= 0.7 and x.max() <= 1.0
    np.testing.assert_array_equal(x, gen_inputs(task, 5000, seed=3))
    assert not np.array_equal(x, gen_inputs(task, 5000, seed=4))
    with pytest.raises(EmptyInputError):
        gen_inputs(task, 0, seed=0)


def test_gen_inputs_uniformity():
    # Kolmogorov-Smirnov style check: sup CDF gap at the 99.9+ percent
    # critical value 1.95 / sqrt(n)
    task = sobolev_task(0.5, 1.0, NoiseSpec("gaussian", 0.1))
    n = 100_000
    u = np.sort(gen_inputs(task, n, seed=5))
    i = np.arange(1, n + 1)
    d = max(np.max(i / n - u), np.max(u - (i - 1) / n))
    assert d <= 1.95 / math.sqrt(n)


def test_sample_labels_clean_when_noiseless():
    task = sobolev_task(0.5, 1.0, NoiseSpec("gaussian", 0.0))
    x = gen_inputs(task, 50, seed=1)
    np.testing.assert_array_equal(sample_labels(task, x, seed=2), task.target(x))


def test_sample_labels_gaussian_noise_moments():
    task = sobolev_task(0.5, 1.0, NoiseSpec("gaussian", 0.3))
    n = 100_000
    x = gen_inputs(task, n, seed=6)
    eps = sample_labels(task, x, seed=7) - task.target(x)
    assert abs(eps.mean()) <= 5 * 0.3 / math.sqrt(n)
    assert abs(eps.std() - 0.3) <= 5 * 0.3 / math.sqrt(2 * n)


def test_sample_labels_bounded_noise():
    task = sobolev_task(0.5, 1.0, NoiseSpec("uniform_bounded", 0.8))
    n = 100_000
    x = gen_inputs(task, n, seed=8)
    eps = sample_labels(task, x, seed=9) - task.target(x)
    assert np.max(np.abs(eps)) <= 0.8
    assert np.max(np.abs(eps)) >= 0.75  # the bound is essentially attained


def test_noise_spec_validation():
    with pytest.raises(ContractError):
        NoiseSpec("poisson", 1.0)
    with pytest.raises(ContractError):
        NoiseSpec("gaussian", -0.1)


def test_mise_exact_cases():
    task = sobolev_task(0.5, 1.0, NoiseSpec("gaussian", 0.1))
    assert mise_estimate(task.target, task, 4000, seed=10) == 0.0
    shifted = lambda xs: task.target(xs) + 1.0
    assert mise_estimate(shifted, task, 4000, seed=10) == 1.0
    with pytest.raises(ContractError):
        mise_estimate(task.target, task, 0, seed=0)


@pytest.mark.parametrize(
    "bad, want",
    [(lambda xs: np.zeros(3)[:1], r"shape \(1,\), want \(100,\)"),
     (lambda xs: 0.0, r"shape \(\), want \(100,\)"),
     (lambda xs: np.zeros(7), r"shape \(7,\), want \(100,\)"),
     (lambda xs: np.r_[np.nan, np.zeros(98), -np.inf], "non-finite values at 2 of 100 test points")],
    ids=["one-value", "scalar", "seven-values", "non-finite"],
)
def test_scores_need_one_prediction_per_test_point(bad, want):
    # a short output must not broadcast into an error value, and a NaN must
    # not come back as the error value
    task = sobolev_task(0.5, 1.0, NoiseSpec("gaussian", 0.1))
    part = build_grid_partition((0.0, 1.0), 5)
    with pytest.raises(ContractError, match=want):
        mise_estimate(bad, task, 100, 0)
    with pytest.raises(ContractError, match=want):
        cellwise_mse(bad, task, part, 100, 0)


def test_scores_predict_on_the_sorted_test_draw():
    task = sobolev_task(0.5, 1.0, NoiseSpec("gaussian", 0.1))
    part = build_grid_partition((0.0, 1.0), 5)
    seen = []

    def recording(xs):
        seen.append(xs.copy())
        return np.zeros(len(xs))

    mise_estimate(recording, task, 500, seed=4)
    cellwise_mse(recording, task, part, 500, seed=4)
    draw = np.sort(gen_inputs(task, 500, seed=4))
    assert len(seen) == 2
    for xs in seen:
        assert np.all(np.diff(xs) >= 0)
        np.testing.assert_array_equal(xs, draw)


@pytest.mark.parametrize(
    "fit",
    [lambda x, y: fit_krls(x, y, 0.01, brownian()),
     lambda x, y: fit_localized(x, y, build_grid_partition((0.0, 1.0), 8), 0.01, brownian())],
    ids=["krls", "localized"],
)
def test_sorted_scores_match_the_unsorted_draw(fit):
    # the sort moves only the order of the final sums
    task = sobolev_task(0.5, 1.0, NoiseSpec("gaussian", 0.15))
    x = gen_inputs(task, 512, seed=1)
    model = fit(x, sample_labels(task, x, seed=2))
    xs = gen_inputs(task, 20000, seed=3)
    diff = model.predict(xs) - task.target(xs)
    want = float(np.mean(diff * diff))
    got = mise_estimate(model, task, 20000, seed=3)
    assert abs(got - want) <= 1e-12 * want
    part = build_grid_partition((0.0, 1.0), 8)
    assert cellwise_mse(model, task, part, 20000, seed=3)[0] == got


def test_mise_zero_predictor_matches_second_moment():
    # the basis is orthonormal in L2(uniform[0,1]), so E f^2 = sum c_k^2;
    # compare the Monte Carlo estimate at its own sampling tolerance
    task = sobolev_task(0.5, 1.0, NoiseSpec("gaussian", 0.1))
    want = float(np.sum(task.target.coefficients**2))
    n_test = 200_000
    got = mise_estimate(lambda xs: np.zeros(len(xs)), task, n_test, seed=11)
    xs = gen_inputs(task, n_test, seed=11)
    mc_std = float(np.std(task.target(xs) ** 2)) / math.sqrt(n_test)
    assert abs(got - want) <= 4 * mc_std


def test_task_validation():
    with pytest.raises(ContractError):
        sobolev_task(0.5, 1.0, NoiseSpec("gaussian", 0.1), marginal=("uniform", 0.9, 0.2))
    # a target whose realized norm exceeds its declared bound is rejected
    target = make_sobolev_target(0.5, 1.0)
    with pytest.raises(ContractError, match="violates the bound"):
        dataclasses.replace(target, coefficients=2.0 * target.coefficients)


def test_piecewise_target_checks_each_cell_norm():
    target = make_piecewise_target(0.1, 0.5, 0.25, 1.0, build_grid_partition((0.0, 1.0), 4), {1}, 8)
    cells = list(target.cell_coefficients)
    cells[2] = 1.5 * cells[2]
    with pytest.raises(ContractError, match=r"piece 2: source sum .* violates the bound R\^2 = 1.0"):
        dataclasses.replace(target, cell_coefficients=tuple(cells))
    with pytest.raises(ContractError, match=r"piece 2: .* R\^2 = 0.0625"):
        dataclasses.replace(target, exceptional=frozenset({1, 2}))


def test_task_is_its_target_noise_and_marginal():
    assert [f.name for f in dataclasses.fields(SyntheticTask)] == ["target", "noise", "marginal"]
    task = sobolev_task(0.5, 1.0, NoiseSpec("gaussian", 0.1))
    assert (task.kernel, task.gamma) == (synth.KERNEL, synth.GAMMA) == (brownian(), 0.5)
    for field in ("kernel", "gamma"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(task, field, None)
        with pytest.raises(TypeError):
            dataclasses.replace(task, **{field: None})


_NOISE = NoiseSpec("gaussian", 0.1)
_BAD_TASKS = {
    "marginal_outside_domain": (
        lambda: sobolev_task(0.5, 1.0, _NOISE, marginal=("uniform", 0.5, 1.5)),
        r"marginal interval \(0.5, 1.5\) leaves the kernel's domain \[0.0, 1.0\]",
    ),
    "string_marginal": (
        lambda: sobolev_task(0.5, 1.0, _NOISE, marginal=("uniform", "0.1", "0.9")),
        "marginal interval must be a finite increasing",
    ),
    "infinite_marginal": (
        lambda: sobolev_task(0.5, 1.0, _NOISE, marginal=("uniform", 0, math.inf)),
        "marginal interval must be a finite increasing",
    ),
    "two_entry_marginal": (
        lambda: sobolev_task(0.5, 1.0, _NOISE, marginal=("uniform", 0.5)),
        "marginal interval must be a finite increasing",
    ),
    "other_law": (
        lambda: sobolev_task(0.5, 1.0, _NOISE, marginal=("beta", 0.1, 0.9)),
        r"marginal \('beta', 0.1, 0.9\) is not \('uniform', low, high\)",
    ),
    "function_target": (
        lambda: SyntheticTask(np.sin, _NOISE),
        "target must be a SobolevTarget or PiecewiseTarget, not ufunc",
    ),
    "noise_tuple": (
        lambda: SyntheticTask(make_sobolev_target(0.5, 1.0, 8), ("gaussian", 0.1)),
        "noise must be a NoiseSpec, not tuple",
    ),
}


@pytest.mark.parametrize("case", sorted(_BAD_TASKS))
def test_bad_tasks_fail_at_construction(case):
    build, message = _BAD_TASKS[case]
    with pytest.raises(ContractError, match=message):
        build()


def test_model_params_mapping():
    t1 = sobolev_task(0.4, 2.0, NoiseSpec("gaussian", 0.3))
    p1 = t1.model_params()
    assert (p1.r, p1.R, p1.sigma, p1.gamma) == (0.4, 2.0, 0.3, 0.5)

    t2 = piecewise_task(0.1, 0.5, 0.25, 1.0, 16, {7}, NoiseSpec("gaussian", 3.0))
    p2 = t2.model_params()
    assert p2.r == 0.5  # a piecewise target schedules at r_h
    assert p2.R == 1.0 and p2.sigma == 3.0

    # noiseless tasks fall back to a unit sigma for scheduling
    t3 = sobolev_task(0.5, 1.0, NoiseSpec("gaussian", 0.0))
    assert t3.model_params().sigma == 1.0

    t4 = sobolev_task(0.5, 1.0, NoiseSpec("uniform_bounded", 0.7))
    assert t4.model_params().sigma == 0.7


@pytest.mark.parametrize("r_l, r_h", [(0.3, 0.3), (0.4, 0.2)])
def test_piecewise_model_params_need_r_l_below_r_h(r_l, r_h):
    # each smoothness is valid on its own; the pair is checked where it schedules
    task = piecewise_task(r_l, r_h, 1.0, 1.0, 4, {1}, NoiseSpec("gaussian", 1.0))
    message = rf"piecewise targets need r_l < r_h, got r_l={r_l}, r_h={r_h}"
    for call in (task.model_params, lambda: task.exceptional_mass_bound(64)):
        with pytest.raises(ContractError, match=message):
            call()


def test_exceptional_mass_bound():
    task = piecewise_task(0.1, 0.5, 0.25, 1.0, 16, {7}, NoiseSpec("gaussian", 3.0))
    mass, bound, ok = task.exceptional_mass_bound(8192)
    assert mass == 0.0625
    lam = lambda_schedule(8192, task.model_params())
    assert math.isclose(bound, 16.0 * lam**0.8, rel_tol=1e-12)
    assert ok

    plain = sobolev_task(0.5, 1.0, NoiseSpec("gaussian", 0.1))
    with pytest.raises(ContractError):
        plain.exceptional_mass_bound(1000)


def test_cellwise_mse_recombines():
    task = sobolev_task(0.5, 1.0, NoiseSpec("gaussian", 0.1))
    part = build_grid_partition((0.0, 1.0), 5)
    predictor = lambda xs: np.zeros(len(xs))
    glob, per_cell, counts = cellwise_mse(predictor, task, part, 3000, seed=12)
    assert glob == mise_estimate(predictor, task, 3000, seed=12)
    assert counts.sum() == 3000
    np.testing.assert_allclose(np.sum(per_cell * counts) / 3000, glob, rtol=1e-12)
    # the truth has zero error in every cell
    glob0, per0, _ = cellwise_mse(task.target, task, part, 3000, seed=12)
    assert glob0 == 0.0
    np.testing.assert_array_equal(per0, np.zeros(5))
