"""Experiment harness: configs, seeding, slopes, reports, timing."""

import dataclasses
import math
import re

import numpy as np
import pytest

import krlslab.harness as harness
from krlslab import (
    CSV_HEADER,
    ContractError,
    ExperimentConfig,
    ModelParams,
    NoiseSpec,
    RateReport,
    Row,
    b_quantity,
    brownian,
    build_grid_partition,
    cell_seed,
    cellwise_mse,
    effective_dimension,
    effective_dimension_from_spectrum,
    effective_dimension_sum_check,
    emit_report,
    fit_distributed_average,
    fit_krls,
    fit_localized,
    fit_localized_nystrom,
    fit_loglog_slope,
    fit_nystrom,
    gaussian,
    gen_inputs,
    grid_cell_bounds,
    l_schedule,
    lambda_schedule,
    laplacian,
    local_dimension_diagnostic,
    m_schedule,
    make_piecewise_target,
    make_sobolev_target,
    mean_mise_curve,
    mercer_eigenvalues,
    mise_estimate,
    n0_sufficient,
    paired_contrast,
    parse_report,
    piecewise_task,
    pinv_solve,
    polynomial,
    rate_exponent,
    row_seeds,
    run_improved_bound_experiment,
    run_rate_experiment,
    run_timing_benchmark,
    sample_labels,
    sample_landmarks,
    schedule_values,
    sobolev_task,
    spd_solve,
)

TASK = sobolev_task(0.5, 1.0, NoiseSpec("gaussian", 0.3))


def _config(**kw):
    base = dict(
        task=TASK,
        estimators=("krls",),
        n_grid=(64,),
        replications=1,
        n_test=500,
        master_seed=0,
    )
    base.update(kw)
    return ExperimentConfig(**base)


def test_config_validation():
    with pytest.raises(ContractError):
        _config(estimators=("krls", "mystery"))
    with pytest.raises(ContractError):
        _config(estimators=())
    with pytest.raises(ContractError):
        _config(n_grid=(128, 64))
    with pytest.raises(ContractError):
        _config(n_grid=(64, 64))
    with pytest.raises(ContractError):
        _config(replications=0)
    with pytest.raises(ContractError):
        _config(n_test=0)
    with pytest.raises(ContractError, match="master_seed must be non-negative, not -1"):
        _config(master_seed=-1)
    with pytest.raises(ContractError):
        _config(n_grid=(64, 128), lambdas=(0.1,))
    with pytest.raises(ContractError):
        _config(experiment="speed")


def test_schedule_values_auto_and_explicit():
    cfg = _config(n_grid=(1024,))
    params = TASK.model_params()
    lam, m, l = schedule_values(cfg, 0)
    assert lam == lambda_schedule(1024, params)
    assert m == m_schedule(1024, params)
    assert l == l_schedule(1024, params)

    part = _config(n_grid=(1024,), ms=(5,))
    lam2, m2, l2 = schedule_values(part, 0)
    assert (lam2, l2) == (lam, l)  # untouched entries stay on the schedule
    assert m2 == 5

    with pytest.raises(ContractError):
        _config(n_grid=(1024,), lambdas=(0.0,))


@pytest.mark.parametrize("bad", [math.inf, 0.0, math.nan, -1.0, "0.1"])
def test_listed_lambda_must_be_positive_and_finite(bad):
    with pytest.raises(ContractError, match="lambdas must be positive and finite"):
        _config(n_grid=(64,), lambdas=(bad,))


_X = np.linspace(0.05, 0.95, 12)
_PARAMS = ModelParams(r=0.5, gamma=0.5)
_COUNTED = {
    "fit_nystrom": ("l", lambda l: fit_nystrom(_X, np.sin(_X), 1e-2, l, 0, brownian())),
    "sample_landmarks": ("l", lambda l: sample_landmarks(12, l, 0)),
    "fit_localized_nystrom": ("l", lambda l: fit_localized_nystrom(
        _X, np.sin(_X), build_grid_partition((0.0, 1.0), 2), 1e-2, l, 0, brownian())),
    "fit_distributed_average": ("m", lambda m: fit_distributed_average(
        _X, np.sin(_X), m, 1e-2, brownian(), 0)),
    "config_ms": ("ms", lambda m: _config(ms=(m,))),
    "config_ls": ("ls", lambda l: _config(ls=(l,))),
    "config_n_grid": ("n", lambda n: _config(n_grid=(n,))),
    "cells_per_dim": ("cells_per_dim", lambda c: build_grid_partition((0.0, 1.0), c)),
    "degree": ("degree", lambda d: polynomial(d)),
    "k_trunc": ("k_trunc", lambda k: make_sobolev_target(0.5, 1.0, k)),
    "mercer_eigenvalues": ("k_trunc", lambda k: mercer_eigenvalues(k)),
    "piecewise_cells": ("cells", lambda c: piecewise_task(
        0.25, 0.5, 1.0, 1.0, c, (0,), NoiseSpec("gaussian", 0.1))),
    "gen_inputs": ("n", lambda n: gen_inputs(TASK, n, 0)),
    "mise_estimate": ("n_test", lambda n: mise_estimate(np.zeros_like, TASK, n, 0)),
    "cellwise_mse": ("n_test", lambda n: cellwise_mse(
        np.zeros_like, TASK, build_grid_partition((0.0, 1.0), 2), n, 0)),
    "repeats": ("repeats", lambda r: run_timing_benchmark(_config(n_grid=(16,)), repeats=r)),
    "lambda_schedule": ("n", lambda n: lambda_schedule(n, _PARAMS)),
    "m_schedule": ("n", lambda n: m_schedule(n, _PARAMS)),
    "l_schedule": ("n", lambda n: l_schedule(n, _PARAMS)),
    "b_quantity": ("n", lambda n: b_quantity(n, 0.1, 1.0)),
    "n0_sufficient": ("m", lambda m: n0_sufficient(m, _PARAMS, 1.0, 1.0)),
    "grid_cell_bounds": ("cell index j", lambda j: grid_cell_bounds(
        build_grid_partition((0.0, 1.0), 4), j)),
    "cell_seed": ("seed", lambda s: cell_seed(s, 0)),
    "cell_seed_j": ("j", lambda j: cell_seed(0, j)),
    "row_seeds": ("rep", lambda r: row_seeds(0, "krls", 64, r)),
}


@pytest.mark.parametrize("value", [math.nan, math.inf, 2.5, "2", True])
@pytest.mark.parametrize("entry", sorted(_COUNTED))
def test_counts_must_be_whole_numbers(entry, value):
    name, call = _COUNTED[entry]
    with pytest.raises(ContractError, match=f"{name} must be a whole number"):
        call(value)
    # numpy integers, 0-d arrays and integral floats pass
    for whole in (np.int64(2), np.uint8(2), np.array(2), 2.0):
        call(whole)


_K = np.eye(3)
# entry -> (name in the message, whether 0.0 is allowed, call)
_REALS = {
    "fit_krls": ("lam", False, lambda v: fit_krls(_X, np.sin(_X), v, brownian())),
    "fit_nystrom": ("lam", False, lambda v: fit_nystrom(_X, np.sin(_X), v, 4, 0, brownian())),
    "fit_localized": ("lam", False, lambda v: fit_localized(
        _X, np.sin(_X), build_grid_partition((0.0, 1.0), 2), v, brownian())),
    "fit_localized_nystrom": ("lam", False, lambda v: fit_localized_nystrom(
        _X, np.sin(_X), build_grid_partition((0.0, 1.0), 2), v, 2, 0, brownian())),
    "fit_distributed_average": ("lam", False, lambda v: fit_distributed_average(
        _X, np.sin(_X), 2, v, brownian(), 0)),
    "effective_dimension": ("lam", False, lambda v: effective_dimension(_K, v)),
    "effective_dimension_from_spectrum": (
        "lam", False, lambda v: effective_dimension_from_spectrum([1.0, 0.5], v)),
    "effective_dimension_sum_check": (
        "lam", False, lambda v: effective_dimension_sum_check([[1.0]], [1.0], v)),
    "local_dimension_diagnostic": (
        "lam", False, lambda v: local_dimension_diagnostic([_K], [1.0], v)),
    "b_quantity_lam": ("lam", False, lambda v: b_quantity(10, v, 1.0)),
    "params_R": ("R", False, lambda v: ModelParams(0.5, 0.5, R=v)),
    "params_sigma": ("sigma", False, lambda v: ModelParams(0.5, 0.5, sigma=v)),
    "sobolev_R": ("R", False, lambda v: make_sobolev_target(0.5, v, 8)),
    "piecewise_R_l": ("R_l", False, lambda v: make_piecewise_target(
        0.25, 0.5, v, 1.0, build_grid_partition((0.0, 1.0), 2), (0,), 8)),
    "piecewise_R_h": ("R_h", False, lambda v: make_piecewise_target(
        0.25, 0.5, 1.0, v, build_grid_partition((0.0, 1.0), 2), (0,), 8)),
    "gaussian": ("bandwidth", False, lambda v: gaussian(v)),
    "laplacian": ("bandwidth", False, lambda v: laplacian(v)),
    "offset": ("offset", True, lambda v: polynomial(2, offset=v)),
    "noise_scale": ("noise scale", True, lambda v: NoiseSpec("gaussian", v)),
    "rel_tol": ("rel_tol", False, lambda v: pinv_solve(_K, np.ones(3), rel_tol=v)),
    "kappa_sq": ("kappa_sq", False, lambda v: effective_dimension(_K, 0.1, kappa_sq=v)),
    "p_max": ("p_max", False, lambda v: n0_sufficient(1, _PARAMS, v, 1.0)),
    "C_gamma": ("C_gamma", False, lambda v: n0_sufficient(1, _PARAMS, 1.0, v)),
    "eff_dim": ("eff_dim", True, lambda v: b_quantity(10, 0.1, v)),
    "shift": ("shift", True, lambda v: spd_solve(_K, v, np.ones(3))),
}


@pytest.mark.parametrize("value", [math.nan, math.inf, -1.0, "0.1", True])
@pytest.mark.parametrize("entry", sorted(_REALS))
def test_reals_must_be_finite_and_positive(entry, value):
    name, zero, call = _REALS[entry]
    sign = "nonnegative" if zero else "positive"
    with pytest.raises(ContractError, match=f"{name} must be {sign} and finite, got "):
        call(value)
    for good in (0.5, np.float32(0.5), np.array(0.5), 1):  # numpy floats and ints pass
        call(good)
    if zero:
        call(0.0)
    else:
        with pytest.raises(ContractError, match=f"{name} must be positive and finite"):
            call(0.0)


_SMOOTHNESS = {
    "params_r": ("r", lambda r: ModelParams(r, 0.5)),
    "override_r": ("r", lambda r: dataclasses.replace(_PARAMS, r=r)),
    "sobolev_r": ("r", lambda r: make_sobolev_target(r, 1.0, 8)),
    "piecewise_r_l": ("r_l", lambda r: make_piecewise_target(
        r, 0.5, 1.0, 1.0, build_grid_partition((0.0, 1.0), 2), (0,), 8)),
    "piecewise_r_h": ("r_h", lambda r: make_piecewise_target(
        0.1, r, 1.0, 1.0, build_grid_partition((0.0, 1.0), 2), (0,), 8)),
}


@pytest.mark.parametrize("value", ["0.3", [0.3], True])
@pytest.mark.parametrize("entry", sorted(_SMOOTHNESS))
def test_smoothness_must_be_a_real_in_half_interval(entry, value):
    name, call = _SMOOTHNESS[entry]
    message = rf"{name}={re.escape(repr(value))} must lie in \(0, 1/2\]"
    with pytest.raises(ContractError, match=message):
        call(value)
    for good in (0.3, np.float32(0.5), np.array(0.5)):
        call(good)


# A task's gamma is fixed by its Mercer pair; ModelParams takes any.
_CAPACITY = {"params_gamma": lambda g: ModelParams(0.5, g)}


@pytest.mark.parametrize("value", ["0.5", math.nan, 0.0, 1.5, True])
@pytest.mark.parametrize("entry", sorted(_CAPACITY))
def test_capacity_must_be_a_real_in_unit_interval(entry, value):
    call = _CAPACITY[entry]
    message = rf"gamma={re.escape(repr(value))} must lie in \(0, 1\]"
    with pytest.raises(ContractError, match=message):
        call(value)
    for good in (1, np.float32(0.5), np.array(0.5)):
        assert type(call(good).gamma) is float


_INTERVALS = {
    "kernel_domain": ("domain interval", lambda iv: gaussian(0.3, (iv,))),
    "grid_box": ("box interval", lambda iv: build_grid_partition(iv, 2)),
    "marginal": ("marginal interval", lambda iv: sobolev_task(
        0.5, 1.0, NoiseSpec("gaussian", 0.1), marginal=("uniform", *iv), k_trunc=8)),
}


@pytest.mark.parametrize("value", [("0.1", "0.9"), (0.0, math.inf), (math.nan, 1.0),
                                   (0.5, 0.5), (0.5,), (0.1, 0.5, 0.9), (True, 0.9)])
@pytest.mark.parametrize("entry", sorted(_INTERVALS))
def test_intervals_must_be_finite_and_increasing(entry, value):
    name, call = _INTERVALS[entry]
    with pytest.raises(ContractError, match=f"{name} must be a finite increasing"):
        call(value)
    for good in ((0.25, 0.75), (np.float32(0.25), np.array(0.75)), (0, 1)):
        call(good)


@pytest.mark.parametrize("seed", [2.7, math.nan, "a", -1])
def test_seeds_numpy_cannot_take_raise_contract_errors(seed):
    x = gen_inputs(TASK, 12, 0)
    for draw in (
        lambda: sample_landmarks(12, 3, seed),
        lambda: fit_distributed_average(_X, np.sin(_X), 2, 1e-2, brownian(), seed),
        lambda: gen_inputs(TASK, 12, seed),
        lambda: sample_labels(TASK, x, seed),
    ):
        with pytest.raises(ContractError, match=f"seed {seed!r} is not a valid seed"):
            draw()


@pytest.mark.parametrize("seed", [7, [7, 3], np.random.SeedSequence(7)])
def test_int_list_and_seed_sequence_seeds_draw_as_numpy_does(seed):
    _, lo, hi = TASK.marginal
    np.testing.assert_array_equal(
        gen_inputs(TASK, 12, seed), lo + (hi - lo) * np.random.default_rng(seed).random(12))
    np.testing.assert_array_equal(
        sample_landmarks(12, 3, seed),
        np.random.default_rng(seed).choice(12, size=3, replace=False))
    np.testing.assert_array_equal(
        sample_labels(TASK, _X, seed),
        TASK.target(_X) + TASK.noise.scale * np.random.default_rng(seed).standard_normal(12))


def test_per_n_lists_override_the_schedule():
    for name in ("lambdas", "ms", "ls"):
        with pytest.raises(ContractError, match=name):
            _config(n_grid=(64, 128), **{name: (1,)})
    cfg = _config(
        estimators=("localized",),
        n_grid=(64, 128),
        replications=np.int64(1),
        master_seed=np.uint32(2),
        lambdas=np.array([0.1, 0.2]),
        ms=[5, 6],
    )
    assert (cfg.lambdas, cfg.ms, cfg.ls) == ((0.1, 0.2), (5, 6), None)
    assert type(cfg.lambdas[0]) is float and type(cfg.master_seed) is int
    rows = run_rate_experiment(cfg).rows
    assert [(r.n, r.lam, r.m) for r in rows] == [(64, 0.1, 5), (128, 0.2, 6)]


def test_n_grid_starts_at_one():
    with pytest.raises(ContractError, match="at least 1"):
        _config(n_grid=(0, 64), lambdas=(0.1, 0.1), ms=(1, 1), ls=(1, 1))


def test_row_seeds_distinct_and_stable():
    def states(est, n, rep):
        return tuple(s.generate_state(2).tolist() for s in row_seeds(7, est, n, rep))

    a = states("krls", 64, 0)
    assert a == states("krls", 64, 0)
    assert a != states("krls", 64, 1)
    assert a != states("krls", 128, 0)
    assert a != states("localized", 64, 0)
    ids = {harness.estimator_seed_id(e) for e in harness.ESTIMATORS}
    assert len(ids) == len(harness.ESTIMATORS)


def test_single_unit_produces_one_row():
    report = run_rate_experiment(_config())
    assert len(report.rows) == 1
    row = report.rows[0]
    assert row.estimator == "krls"
    assert row.n == 64 and row.rep == 0
    assert row.m is None and row.l is None and row.min_cell_count is None
    assert math.isfinite(row.mise) and row.mise > 0
    assert row.fit_seconds > 0
    assert row.warning == ""
    assert report.slopes["krls"] is None  # one n cannot give a slope


def test_rerun_is_bitwise_deterministic():
    cfg = _config(estimators=("krls", "localized", "nystrom"), n_grid=(64, 128), replications=2)
    a = run_rate_experiment(cfg)
    b = run_rate_experiment(cfg)
    assert [r.mise for r in a.rows] == [r.mise for r in b.rows]
    assert a.slopes == b.slopes


def test_krls_error_decays_with_n():
    cfg = _config(n_grid=(64, 128, 256, 512), replications=3, n_test=2000)
    report = run_rate_experiment(cfg)
    slope, stderr = report.slopes["krls"]
    assert slope < -0.3
    assert stderr >= 0
    curve = mean_mise_curve(report.rows, "krls")
    assert [n for n, _ in curve] == [64, 128, 256, 512]
    assert curve[-1][1] < curve[0][1]
    assert report.theoretical_exponent == 0.8


def test_fit_loglog_slope_exact_cases():
    slope, stderr = fit_loglog_slope([(10, 1.0), (100, 0.1)])
    assert math.isclose(slope, -1.0, rel_tol=1e-14)
    assert stderr == 0.0  # two points leave no residual degrees of freedom
    ns = [2**k for k in range(5, 10)]
    pts = [(n, n**-0.8) for n in ns]
    slope, stderr = fit_loglog_slope(pts)
    assert math.isclose(slope, -0.8, rel_tol=1e-12)
    assert stderr <= 1e-12


def test_fit_loglog_slope_noisy_oracle():
    rng = np.random.default_rng(0)
    ns = np.array([2**k for k in range(4, 12)], dtype=float)
    noise = 0.1 * rng.standard_normal(len(ns))
    ys = ns**-0.7 * np.exp(noise)
    slope, stderr = fit_loglog_slope(list(zip(ns, ys)))
    # oracle: standard simple-regression formulas on the log scale
    lx, ly = np.log(ns), np.log(ys)
    beta = np.polyfit(lx, ly, 1)[0]
    assert math.isclose(slope, beta, rel_tol=1e-10)
    resid = ly - np.polyval(np.polyfit(lx, ly, 1), lx)
    want_se = math.sqrt(resid @ resid / (len(ns) - 2) / np.sum((lx - lx.mean()) ** 2))
    assert math.isclose(stderr, want_se, rel_tol=1e-10)
    assert abs(slope - -0.7) <= 3 * stderr


def test_fit_loglog_slope_validation():
    with pytest.raises(ContractError):
        fit_loglog_slope([(10, 1.0)])
    with pytest.raises(ContractError):
        fit_loglog_slope([(10, 1.0), (20, 0.0)])
    with pytest.raises(ContractError):
        fit_loglog_slope([(10, 1.0), (10, 2.0)])


def test_mean_mise_curve_skips_failed_rows():
    rows = (
        Row("krls", 10, None, None, 0.1, 0, 1.0, 0.01, None, ""),
        Row("krls", 10, None, None, 0.1, 1, 3.0, 0.01, None, ""),
        Row("krls", 20, None, None, 0.1, 0, math.nan, 0.01, None, "error:X"),
        Row("other", 10, None, None, 0.1, 0, 9.0, 0.01, None, ""),
    )
    assert mean_mise_curve(rows, "krls") == [(10, 2.0)]


def test_improved_bound_arms_share_everything_but_lambda():
    task = piecewise_task(0.1, 0.5, 0.25, 1.0, 8, {3}, NoiseSpec("gaussian", 1.0))
    cfg = ExperimentConfig(
        task=task,
        estimators=("localized",),
        n_grid=(256, 512),
        replications=3,
        n_test=400,
        master_seed=1,
        experiment="improved_bound",
        ms=(4, 4),
    )
    rough, smooth = run_improved_bound_experiment(cfg)
    assert len(rough.rows) == len(smooth.rows) == 6
    params = task.model_params()
    for a, b in zip(rough.rows, smooth.rows):
        assert (a.n, a.rep, a.m) == (b.n, b.rep, b.m)
        assert a.lam == lambda_schedule(a.n, dataclasses.replace(params, r=0.1))
        assert b.lam == lambda_schedule(b.n, dataclasses.replace(params, r=0.5))
        assert a.lam != b.lam
    contrast = paired_contrast(rough, smooth)
    assert [c["n"] for c in contrast] == [256, 512]
    for c in contrast:
        assert math.isfinite(c["mean_diff"])
        assert c["se"] >= 0


@pytest.mark.parametrize(
    "override",
    [dict(lambdas=(0.5,)), dict(estimators=("krls",)), dict(estimators=("localized", "krls"))],
    ids=["lambdas", "krls", "extra_estimator"],
)
def test_improved_bound_rejects_ignored_settings(override):
    # each arm sets lambda itself and fits only "localized"
    task = piecewise_task(0.1, 0.5, 0.25, 1.0, 8, {3}, NoiseSpec("gaussian", 1.0))
    base = dict(estimators=("localized",), n_grid=(64,), ms=(4,))
    cfg = _config(task=task, experiment="improved_bound", **{**base, **override})
    with pytest.raises(ContractError, match="improved-bound"):
        run_improved_bound_experiment(cfg)


def test_improved_bound_requires_piecewise_task():
    cfg = _config(experiment="improved_bound")
    with pytest.raises(ContractError):
        run_improved_bound_experiment(cfg)


def test_improved_bound_rejects_heavy_exceptional_mass():
    # half the domain rough with no norm separation: the mass condition
    # cannot hold at any realistic n
    task = piecewise_task(0.1, 0.5, 1.0, 1.0, 16, set(range(8)), NoiseSpec("gaussian", 1.0))
    cfg = ExperimentConfig(
        task=task,
        estimators=("localized",),
        n_grid=(512,),
        replications=1,
        n_test=100,
        master_seed=0,
        experiment="improved_bound",
    )
    with pytest.raises(ContractError, match="exceptional mass"):
        run_improved_bound_experiment(cfg)


def test_paired_contrast_requires_matching_units():
    row = Row("localized", 10, 2, None, 0.1, 0, 1.0, 0.01, 3, "")
    other = Row("localized", 10, 2, None, 0.1, 1, 1.0, 0.01, 3, "")
    a = RateReport(rows=(row,), slopes={}, theoretical_exponent=None)
    b = RateReport(rows=(other,), slopes={}, theoretical_exponent=None)
    with pytest.raises(ContractError):
        paired_contrast(a, b)


def test_empty_cell_warning_row():
    # 50 cells cannot all be hit by 20 points
    cfg = _config(
        estimators=("localized",),
        n_grid=(20,),
        ms=(50,),
    )
    report = run_rate_experiment(cfg)
    row = report.rows[0]
    assert row.warning == "empty_cell"
    assert row.min_cell_count == 0
    assert row.m == 50
    assert math.isfinite(row.mise)  # zero-extension still yields a prediction


def test_failed_fit_taints_row_but_run_continues(monkeypatch):
    calls = {"count": 0}

    def explode(*args, **kwargs):
        calls["count"] += 1
        raise RuntimeError("boom")

    monkeypatch.setattr(harness, "fit_estimator", explode)
    cfg = _config(n_grid=(16, 32), replications=2)
    report = run_rate_experiment(cfg)
    assert calls["count"] == 4
    assert len(report.rows) == 4
    assert all(r.warning == "error:RuntimeError: boom" for r in report.rows)
    assert all(math.isnan(r.mise) for r in report.rows)
    assert report.slopes["krls"] is None


def test_non_finite_predictions_fail_the_row(monkeypatch):
    real = harness.fit_estimator

    def nan_model(*args):
        _, *rest = real(*args)
        return (lambda xs: np.full(len(xs), np.nan)), *rest

    monkeypatch.setattr(harness, "fit_estimator", nan_model)
    report = run_rate_experiment(_config(n_grid=(16, 32)))
    want = "error:ContractError: predictor returned non-finite values at 500 of 500 test points"
    assert [r.warning for r in report.rows] == [want, want]
    assert all(math.isnan(r.mise) and r.fit_seconds > 0 for r in report.rows)


def test_failed_row_message_survives_the_report(tmp_path, monkeypatch):
    message = 'cell 3: pivot 1e-18, "singular" block'

    def explode(*args, **kwargs):
        raise ValueError(message)

    monkeypatch.setattr(harness, "fit_estimator", explode)
    report = run_rate_experiment(_config(n_grid=(16, 32)))
    assert all(r.warning == f"error:ValueError: {message}" for r in report.rows)
    emit_report(report, tmp_path / "out")
    back = parse_report(tmp_path / "out")
    assert [r.warning for r in back.rows] == [r.warning for r in report.rows]
    assert all(r.failed for r in back.rows)


def test_emit_and_parse_round_trip(tmp_path):
    cfg = _config(estimators=("krls", "localized"), n_grid=(32, 64), replications=2)
    report = run_rate_experiment(cfg)
    rows_path, summary_path = emit_report(report, tmp_path / "out", task=cfg.task)
    assert rows_path.exists() and summary_path.exists()
    assert (tmp_path / "out" / "coefficients.json").exists()

    text = rows_path.read_text().splitlines()
    assert text[0] == CSV_HEADER
    assert text[0] == "estimator,n,m,l,lambda,rep,mise,fit_seconds,min_cell_count,warning"
    assert len(text) == 1 + len(report.rows)

    back = parse_report(tmp_path / "out")
    assert sorted(back.rows, key=lambda r: (r.estimator, r.n, r.rep)) == sorted(
        report.rows, key=lambda r: (r.estimator, r.n, r.rep)
    )
    assert back.slopes == report.slopes
    assert back.theoretical_exponent == report.theoretical_exponent
    # the csv path itself also parses
    again = parse_report(rows_path)
    assert len(again.rows) == len(report.rows)


def test_emit_empty_report(tmp_path):
    empty = RateReport(rows=(), slopes={}, theoretical_exponent=None)
    rows_path, _ = emit_report(empty, tmp_path / "empty")
    assert rows_path.read_text() == CSV_HEADER + "\n"
    assert parse_report(tmp_path / "empty").rows == ()


def test_parse_rejects_foreign_header(tmp_path):
    target = tmp_path / "bad"
    target.mkdir()
    (target / "rows.csv").write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ContractError):
        parse_report(target)


@pytest.mark.parametrize(
    "row, message",
    [
        ("krls,abc,,,0.1,0,1.0,0.01,,", r"line 2: column n cannot hold 'abc'"),
        ("krls,64,,,0.1,0", "line 2 has 6 cells, not 10"),
    ],
    ids=["non_numeric_n", "short_row"],
)
def test_parse_rejects_malformed_rows(tmp_path, row, message):
    (tmp_path / "rows.csv").write_text(CSV_HEADER + "\n" + row + "\n")
    with pytest.raises(ContractError, match=message):
        parse_report(tmp_path)


# None cells, a NaN MISE, and a warning with a comma and quotes in it.
_ROWS_CSV = (
    "estimator,n,m,l,lambda,rep,mise,fit_seconds,min_cell_count,warning\n"
    'krls,64,,,0.125,0,nan,nan,,"error:ValueError: cell 3, pivot ""1e-18"""\n'
    "localized_nystrom,128,4,16,0.0625,1,0.001953125,0.5,0,empty_cell\n"
)


def test_rows_csv_format_is_pinned(tmp_path):
    (tmp_path / "in.csv").write_text(_ROWS_CSV)
    report = parse_report(tmp_path / "in.csv")
    first = report.rows[0]
    assert (first.m, first.l, first.min_cell_count) == (None, None, None)
    assert math.isnan(first.mise) and first.failed
    assert first.warning == 'error:ValueError: cell 3, pivot "1e-18"'
    assert report.rows[1] == Row(
        "localized_nystrom", 128, 4, 16, 0.0625, 1, 0.001953125, 0.5, 0, "empty_cell"
    )
    rows_path, _ = emit_report(report, tmp_path / "out")
    assert rows_path.read_text() == _ROWS_CSV


def test_improved_bound_arms_are_listed_lambda_rate_runs():
    task = piecewise_task(0.1, 0.5, 0.25, 1.0, 8, {3}, NoiseSpec("gaussian", 1.0))
    cfg = _config(
        task=task, estimators=("localized",), n_grid=(128, 256), replications=2,
        n_test=200, experiment="improved_bound", ms=(4, 4),
    )
    params = task.model_params()
    for arm, r in zip(run_improved_bound_experiment(cfg), (0.1, 0.5)):
        arm_params = dataclasses.replace(params, r=r)
        lambdas = [lambda_schedule(n, arm_params) for n in cfg.n_grid]
        listed = run_rate_experiment(dataclasses.replace(cfg, lambdas=lambdas))
        untimed = [dataclasses.replace(row, fit_seconds=0.0) for row in arm.rows]
        assert untimed == [dataclasses.replace(row, fit_seconds=0.0) for row in listed.rows]
        assert arm.slopes == listed.slopes
        assert arm.theoretical_exponent == rate_exponent(arm_params)


def test_timing_benchmark_scales_up():
    cfg = _config(estimators=("krls",), n_grid=(256, 2048))
    table = run_timing_benchmark(cfg, repeats=3)
    assert len(table.rows) == 2
    times = {r.n: r.median_fit_seconds for r in table.rows}
    assert times[256] > 0 and times[2048] > 0
    assert times[2048] > times[256]
    assert table.scaling_exponents["krls"] > 0.5


def test_timing_benchmark_needs_a_repeat():
    with pytest.raises(ContractError, match="repeats must be at least 1, not 0"):
        run_timing_benchmark(_config(), repeats=0)


def test_rate_and_timing_runs_schedule_once_per_estimator_and_n(monkeypatch):
    calls = []
    original = harness.schedule_values

    def counting(config, i):
        calls.append(config.n_grid[i])
        return original(config, i)

    monkeypatch.setattr(harness, "schedule_values", counting)
    cfg = _config(estimators=("krls", "nystrom"), n_grid=(16, 32), replications=3, n_test=10)
    rows = run_rate_experiment(cfg).rows
    assert calls == [16, 32, 16, 32] and len(rows) == 12
    calls.clear()
    table = run_timing_benchmark(cfg, repeats=2)
    assert calls == [16, 32, 16, 32]
    assert [(r.estimator, r.n) for r in table.rows] == [
        ("krls", 16), ("krls", 32), ("nystrom", 16), ("nystrom", 32)]
