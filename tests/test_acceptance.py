"""End-to-end acceptance checks.

Each test prints one PASS/FAIL line with the measured values (run with
``pytest -s`` to see them inline; they are also replayed in the terminal
summary). Exact algebraic identities are checked at tight tolerances;
statistical rate checks run the full experiment harness on seeded
synthetic tasks, so every number here is reproducible bit for bit.

The rate experiment samples a Sobolev target on the window [0.9, 1] with
small gaussian noise. On that window the restricted covariance operator
has its leading non-constant eigenvalue inside the scheduled lambda
range, so the squared-bias term follows its quadratic law across the
whole n grid and the fitted slopes sit near the theoretical exponent at
these sample sizes; noise-dominated variants would instead pay a
per-cell level-estimation variance that scales with the partition size.
"""

import time

import numpy as np
import pytest

from krlslab import (
    ExperimentConfig,
    ModelParams,
    NoiseSpec,
    brownian,
    build_grid_partition,
    effective_dimension,
    effective_dimension_sum_check,
    fit_krls,
    fit_localized,
    fit_loglog_slope,
    fit_nystrom,
    gaussian,
    gram,
    l_schedule,
    lambda_schedule,
    m_schedule,
    mean_mise_curve,
    paired_contrast,
    piecewise_task,
    polynomial,
    rate_exponent,
    run_improved_bound_experiment,
    run_rate_experiment,
    run_timing_benchmark,
    sobolev_task,
)

RATE_TASK = sobolev_task(
    0.5, 1.0, NoiseSpec("gaussian", 0.15), marginal=("uniform", 0.9, 1.0)
)
RATE_CONFIG = ExperimentConfig(
    task=RATE_TASK,
    estimators=("krls", "localized", "nystrom", "localized_nystrom"),
    n_grid=(256, 512, 1024, 2048, 4096, 8192),
    replications=20,
    n_test=20000,
    master_seed=13,
)


@pytest.fixture(scope="module")
def rate_reports():
    # One config, run twice: the first report feeds the rate check, the
    # pair feeds the reproducibility check.
    return run_rate_experiment(RATE_CONFIG), run_rate_experiment(RATE_CONFIG)


def test_single_cell_localization_equals_global_fit(announce):
    rng = np.random.default_rng(101)
    x = rng.uniform(0.0, 1.0, 200)
    y = np.sin(3.0 * x) + 0.1 * rng.standard_normal(200)
    x_test = rng.uniform(0.0, 1.0, 100)
    spec = gaussian(0.2)
    part = build_grid_partition(((0.0, 1.0),), 1)

    tic = time.perf_counter()
    whole = fit_krls(x, y, 1e-2, spec)
    split = fit_localized(x, y, part, 1e-2, spec)
    gap = float(np.max(np.abs(split.predict(x_test) - whole.predict(x_test))))
    elapsed = time.perf_counter() - tic

    ok = gap <= 1e-10 and elapsed < 1.0
    assert announce(
        "[1/9] single-cell localization equals the global fit",
        ok,
        f"max |diff| {gap:.2e} (limit 1e-10), {elapsed:.2f} s (limit 1 s)",
    )


def test_full_budget_subsampling_equals_global_fit(announce):
    # Polynomial kernel: its Gram has exact finite rank, so the l = n
    # normal equations lose nothing to pseudo-inverse truncation.
    rng = np.random.default_rng(202)
    n = 300
    x = rng.uniform(0.0, 1.0, n)
    y = np.cos(2.0 * x) + 0.1 * rng.standard_normal(n)
    x_test = rng.uniform(0.0, 1.0, 100)
    spec = polynomial(3, 1.0)

    tic = time.perf_counter()
    whole = fit_krls(x, y, 1e-3, spec)
    reduced = fit_nystrom(x, y, 1e-3, n, 7, spec)
    gap = float(np.max(np.abs(reduced.predict(x_test) - whole.predict(x_test))))
    elapsed = time.perf_counter() - tic

    ok = gap <= 1e-8 and elapsed < 5.0
    assert announce(
        "[2/9] full-budget subsampling equals the global fit",
        ok,
        f"max |diff| {gap:.2e} (limit 1e-8), {elapsed:.2f} s (limit 5 s)",
    )


def test_effective_dimension_splits_across_cells(announce):
    rng = np.random.default_rng(303)

    tic = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        m = int(rng.integers(2, 9))
        spectra = [
            np.sort(rng.uniform(1e-6, 1.0, size=int(rng.integers(1, 30))))[::-1]
            for _ in range(m)
        ]
        p = rng.dirichlet(np.ones(m))
        lam = float(10.0 ** rng.uniform(-6.0, 0.0))
        worst = max(worst, effective_dimension_sum_check(spectra, p, lam)[2])
    elapsed = time.perf_counter() - tic

    ok = worst <= 1e-12 and elapsed < 1.0
    assert announce(
        "[3/9] effective dimension splits across cells",
        ok,
        f"max gap {worst:.2e} over 100 draws (limit 1e-12), {elapsed:.2f} s (limit 1 s)",
    )


def test_capacity_exponent_recovered_from_grid(announce):
    grid = (np.arange(512) + 0.5) / 512.0
    lambdas = (1e-4, 1e-3, 1e-2, 1e-1)

    tic = time.perf_counter()
    k = gram(brownian(), grid)
    points = [(lam, effective_dimension(k, lam)) for lam in lambdas]
    slope, _ = fit_loglog_slope(points)
    elapsed = time.perf_counter() - tic

    ok = abs(slope - (-0.5)) <= 0.07 and elapsed < 10.0
    assert announce(
        "[4/9] capacity exponent recovered from a 512-point grid",
        ok,
        f"log-log slope {slope:+.4f} (want -0.5 +- 0.07), {elapsed:.2f} s (limit 10 s)",
    )


def test_rate_exponents_and_mise_ratios_at_scheduled_parameters(
    rate_reports, announce
):
    report = rate_reports[0]
    target = -report.theoretical_exponent
    curves = {
        est: mean_mise_curve(report.rows, est) for est in RATE_CONFIG.estimators
    }
    slopes = {est: fit_loglog_slope(curve)[0] for est, curve in curves.items()}
    base = dict(curves["krls"])
    worst_ratio = max(
        mise / base[n]
        for est in ("localized", "nystrom", "localized_nystrom")
        for n, mise in curves[est]
    )

    ok = all(abs(s - target) <= 0.15 for s in slopes.values()) and worst_ratio <= 3.0
    slope_text = ", ".join(f"{est} {s:+.3f}" for est, s in slopes.items())
    assert announce(
        "[5/9] rate exponents at scheduled parameters",
        ok,
        f"{slope_text} (want {target:+.2f} +- 0.15); "
        f"max mean-MISE ratio vs krls {worst_ratio:.2f} (limit 3)",
    )


def test_smooth_schedule_beats_rough_schedule_on_piecewise_task(announce):
    task = piecewise_task(
        0.1, 0.5, 0.25, 1.0, cells=16, exceptional=(7,), noise=NoiseSpec("gaussian", 3.0)
    )
    config = ExperimentConfig(
        task=task,
        estimators=("localized",),
        n_grid=(2048, 4096, 8192),
        replications=20,
        n_test=20000,
        master_seed=13,
        ms=(16, 16, 16),
        experiment="improved_bound",
    )
    rough, smooth = run_improved_bound_experiment(config)
    contrast = paired_contrast(rough, smooth)

    ok = all(row["mean_diff"] > 0 and row["z"] >= 2.0 for row in contrast)
    detail = "; ".join(
        f"n={row['n']} diff {row['mean_diff']:+.4f} z {row['z']:.1f}"
        for row in contrast
    )
    assert announce(
        "[6/9] smooth-regime schedule beats rough-regime schedule",
        ok,
        f"{detail} (need mean diff > 0 and z >= 2 at every n)",
    )


def test_scheduled_combination_fits_faster_than_global(announce):
    config = ExperimentConfig(
        task=RATE_TASK,
        estimators=("krls", "localized_nystrom"),
        n_grid=(8192,),
        replications=1,
        n_test=1,
        master_seed=13,
    )
    table = run_timing_benchmark(config, repeats=5)
    median = {row.estimator: row.median_fit_seconds for row in table.rows}

    ok = median["localized_nystrom"] < median["krls"] / 3.0
    assert announce(
        "[7/9] scheduled localization with subsampling fits at least 3x faster",
        ok,
        f"median fit {median['localized_nystrom'] * 1e3:.1f} ms vs "
        f"global {median['krls'] * 1e3:.1f} ms at n=8192 "
        f"({median['krls'] / median['localized_nystrom']:.1f}x)",
    )


def test_schedule_values_at_representative_size(announce):
    params = ModelParams(r=0.5, gamma=0.5)
    lam = lambda_schedule(1024, params)
    m = m_schedule(1024, params)
    l = l_schedule(1024, params)
    exponent = rate_exponent(params)

    ok = lam == 0.0625 and m == 16 and l == 64 and exponent == 0.8
    assert announce(
        "[8/9] schedule values at n=1024",
        ok,
        f"lambda {lam} (want 0.0625), m {m} (want 16), l {l} (want 64), "
        f"exponent {exponent} (want 0.8), all exact",
    )


def test_identical_seeds_reproduce_every_mise(rate_reports, announce):
    first, second = rate_reports
    key = lambda row: (row.estimator, row.n, row.rep)
    rows_a = sorted(first.rows, key=key)
    rows_b = sorted(second.rows, key=key)
    assert [key(r) for r in rows_a] == [key(r) for r in rows_b]
    gap = max(abs(a.mise - b.mise) for a, b in zip(rows_a, rows_b))

    ok = gap <= 1e-12
    assert announce(
        "[9/9] identical seeds reproduce every error value",
        ok,
        f"max |MISE difference| {gap:.2e} over {len(rows_a)} row pairs (limit 1e-12)",
    )
