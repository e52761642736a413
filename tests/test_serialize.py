"""JSON round trips for kernels, partitions, tasks, models, and configs."""

import dataclasses
import json

import numpy as np
import pytest

from krlslab import (
    ContractError,
    ExperimentConfig,
    NoiseSpec,
    brownian,
    build_grid_partition,
    build_voronoi_partition,
    fit_distributed_average,
    fit_krls,
    fit_localized,
    fit_localized_nystrom,
    fit_nystrom,
    gaussian,
    laplacian,
    piecewise_task,
    polynomial,
    serialize,
    sobolev_task,
)


def _json_cycle(payload):
    return json.loads(json.dumps(payload))


def test_kernel_round_trips():
    specs = [
        brownian(),
        gaussian(0.3),
        laplacian(0.5, ((0.0, 2.0),)),
        polynomial(3, 1.0, ((0.0, 1.0), (0.0, 1.0))),
    ]
    for spec in specs:
        back = serialize.kernel_from_dict(_json_cycle(serialize.kernel_to_dict(spec)))
        assert back == spec


def test_partition_round_trips():
    grid = build_grid_partition(((0.0, 1.0), (0.0, 2.0)), (3, 2))
    back = serialize.partition_from_dict(_json_cycle(serialize.partition_to_dict(grid)))
    assert back == grid

    vor = build_voronoi_partition([[0.1], [0.5], [0.9]])
    back = serialize.partition_from_dict(_json_cycle(serialize.partition_to_dict(vor)))
    assert back.scheme == "voronoi"
    np.testing.assert_array_equal(back.centers, vor.centers)


def test_task_round_trips():
    sob = sobolev_task(0.4, 1.5, NoiseSpec("gaussian", 0.2), marginal=("uniform", 0.2, 0.9))
    back = serialize.task_from_dict(_json_cycle(serialize.task_to_dict(sob)))
    assert back.noise == sob.noise
    assert back.marginal == sob.marginal
    assert back.gamma == sob.gamma
    assert back.kernel == sob.kernel
    np.testing.assert_array_equal(back.target.coefficients, sob.target.coefficients)

    pw = piecewise_task(0.1, 0.5, 0.25, 1.0, 16, {7}, NoiseSpec("uniform_bounded", 2.0))
    back = serialize.task_from_dict(_json_cycle(serialize.task_to_dict(pw)))
    assert back.target.exceptional == frozenset({7})
    for a, b in zip(back.target.cell_coefficients, pw.target.cell_coefficients):
        np.testing.assert_array_equal(a, b)


def test_task_format_guard():
    with pytest.raises(ContractError):
        serialize.task_from_dict({"format": "something-else"})


def _training_set(n=40, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.uniform(0, 1, n)
    y = np.sin(5 * x) + 0.1 * rng.standard_normal(n)
    return x, y


def _assert_same_predictions(model, back):
    grid = np.linspace(0, 1, 57)
    np.testing.assert_array_equal(back.predict(grid), model.predict(grid))


def test_model_round_trips():
    x, y = _training_set()
    spec = gaussian(0.3)
    part = build_grid_partition((0.0, 1.0), 4)

    models = [
        fit_krls(x, y, 1e-2, spec),
        fit_nystrom(x, y, 1e-2, 12, 3, spec),
        fit_localized(x, y, part, 1e-2, spec),
        fit_localized_nystrom(x, y, part, 1e-2, 6, 5, spec),
        fit_distributed_average(x, y, 3, 1e-2, spec, 7),
    ]
    for model in models:
        back = serialize.model_from_dict(_json_cycle(serialize.model_to_dict(model)))
        _assert_same_predictions(model, back)


def test_model_with_empty_cells_round_trips():
    part = build_grid_partition((0.0, 1.0), 4)
    x = np.array([0.1, 0.15, 0.2])
    y = np.array([1.0, 1.2, 0.8])
    model = fit_localized(x, y, part, 1e-2, gaussian(0.3))
    back = serialize.model_from_dict(_json_cycle(serialize.model_to_dict(model)))
    _assert_same_predictions(model, back)
    assert back.predict(0.9) == 0.0


def test_model_format_guard():
    x, y = _training_set()
    record = serialize.model_to_dict(fit_krls(x, y, 1e-2, gaussian(0.3)))
    record["format"] = "krlslab-model/999"
    with pytest.raises(ContractError):
        serialize.model_from_dict(record)
    with pytest.raises(ContractError):
        serialize.model_from_dict({"type": "krls"})


def test_config_round_trip():
    config = ExperimentConfig(
        task=piecewise_task(0.1, 0.5, 0.25, 1.0, 8, {3}, NoiseSpec("gaussian", 1.0)),
        estimators=("localized", "krls"),
        n_grid=(64, 128),
        replications=2,
        n_test=100,
        master_seed=11,
        ms=(4, 4),
        output_path="out",
        experiment="improved_bound",
    )
    back = serialize.config_from_dict(_json_cycle(serialize.config_to_dict(config)))
    assert back.estimators == config.estimators
    assert back.n_grid == config.n_grid
    assert back.ms == config.ms
    assert back.lambdas is None
    assert back.experiment == "improved_bound"
    assert back.output_path == "out"
    assert back.master_seed == 11
    assert back.task.target.exceptional == frozenset({3})


def test_config_record_holds_exactly_the_config_fields():
    config = ExperimentConfig(
        task=sobolev_task(0.5, 1.0, NoiseSpec("gaussian", 0.3)),
        estimators=("krls",),
        n_grid=(64,),
        replications=1,
        n_test=100,
        master_seed=0,
    )
    record = serialize.config_to_dict(config)
    names = [f.name for f in dataclasses.fields(ExperimentConfig)]
    assert sorted(record) == sorted(names)
    back = serialize.config_from_dict(_json_cycle(record))
    assert serialize.config_to_dict(back) == record
    for name in names:
        partial = {key: val for key, val in record.items() if key != name}
        with pytest.raises(ContractError, match=f"missing fields: {name}$"):
            serialize.config_from_dict(partial)


def test_target_coefficients_dump():
    task = sobolev_task(0.5, 1.0, NoiseSpec("gaussian", 0.1), k_trunc=5)
    dump = serialize.target_coefficients(task.target)
    assert len(dump["coefficients"]) == 5
    np.testing.assert_allclose(dump["coefficients"], task.target.coefficients)

    pw = piecewise_task(0.1, 0.5, 1.0, 1.0, 4, {1}, NoiseSpec("gaussian", 0.1), k_trunc=5)
    dump = serialize.target_coefficients(pw.target)
    assert len(dump["cell_coefficients"]) == 4


# Format-1 records exactly as the codec wrote them before partition records
# kept unused fields as null. Each model was fit by the matching entry of
# _FORMAT1_FITS on at most six points.
_BROWNIAN = {
    "family": "brownian", "domain": [[0.0, 1.0]],
    "bandwidth": None, "degree": None, "offset": None,
}
_GAUSS_2D = {
    "family": "gaussian", "domain": [[0.0, 1.0], [0.0, 1.0]],
    "bandwidth": 0.5, "degree": None, "offset": None,
}
_X = [0.1, 0.25, 0.4, 0.55, 0.7, 0.85]
_Y = [0.5, 0.9, 1.1, 0.7, 0.2, -0.3]
_X2 = [[0.1, 0.2], [0.3, 0.1], [0.7, 0.9], [0.9, 0.6]]
_Y2 = [1.0, 0.5, -0.5, 0.25]

_FORMAT1_FITS = {
    "krls": lambda: fit_krls(_X[:4], _Y[:4], 1e-2, brownian()),
    "nystrom": lambda: fit_nystrom(_X, _Y, 1e-2, 3, 3, gaussian(0.3)),
    "localized_nystrom": lambda: fit_localized_nystrom(
        _X, _Y, build_grid_partition((0.0, 1.0), 2), 1e-2, 2, 5, brownian()
    ),
    "distributed_avg": lambda: fit_distributed_average(_X[:4], _Y[:4], 2, 1e-2, brownian(), 7),
    "voronoi_empty_cell": lambda: fit_localized(
        _X2, _Y2, build_voronoi_partition([[0.2, 0.2], [0.8, 0.8], [0.2, 0.8]]), 1e-2,
        gaussian(0.5, ((0.0, 1.0), (0.0, 1.0))),
    ),
}

_FORMAT1_MODELS = {
    "krls": {
        "format": "krlslab-model/1", "type": "krls",
        "inputs": [[0.1], [0.25], [0.4], [0.55]],
        "alpha": [1.6581481432692682, 1.6134258954329306, 2.6190507554700786,
                  -1.5538840514799843],
        "lambda": 0.01, "kernel": _BROWNIAN,
    },
    "nystrom": {
        "format": "krlslab-model/1", "type": "nystrom",
        "landmarks": [[0.1], [0.25], [0.55]], "landmark_indices": [0, 1, 3],
        "alpha": [-2.387906332303872, 3.538237633379408, -0.7571216470060096],
        "lambda": 0.01, "seed": 3,
        "kernel": {"family": "gaussian", "domain": [[0.0, 1.0]],
                   "bandwidth": 0.3, "degree": None, "offset": None},
    },
    "localized_nystrom": {
        "format": "krlslab-model/1", "type": "localized",
        "partition": {"scheme": "grid", "box": [[0.0, 1.0]], "cells_per_dim": [2]},
        "locals": [
            {"format": "krlslab-model/1", "type": "nystrom",
             "landmarks": [[0.4], [0.25]], "landmark_indices": [2, 1],
             "alpha": [1.1827956989247268, 2.365591397849468],
             "lambda": 0.01, "kernel": _BROWNIAN, "seed": [5, 0]},
            {"format": "krlslab-model/1", "type": "nystrom",
             "landmarks": [[0.55], [0.85]], "landmark_indices": [0, 2],
             "alpha": [3.7651625424550983, -2.688015526443458],
             "lambda": 0.01, "kernel": _BROWNIAN, "seed": [5, 1]},
        ],
        "lambda": 0.01,
        "cell_stats": {"counts": [3, 3], "weights": [0.5, 0.5],
                       "index_sets": [[0, 1, 2], [3, 4, 5]]},
    },
    "distributed_avg": {
        "format": "krlslab-model/1", "type": "distributed_avg",
        "models": [
            {"format": "krlslab-model/1", "type": "krls", "inputs": [[0.1], [0.4]],
             "alpha": [2.4752475247524752, 2.0297029702970297],
             "lambda": 0.01, "kernel": _BROWNIAN},
            {"format": "krlslab-model/1", "type": "krls", "inputs": [[0.25], [0.55]],
             "alpha": [3.698030634573303, -0.39387308533916804],
             "lambda": 0.01, "kernel": _BROWNIAN},
        ],
        "lambda": 0.01, "kernel": _BROWNIAN, "seed": 7,
    },
    "voronoi_empty_cell": {
        "format": "krlslab-model/1", "type": "localized",
        "partition": {"scheme": "voronoi", "centers": [[0.2, 0.2], [0.8, 0.8], [0.2, 0.8]]},
        "locals": [
            {"format": "krlslab-model/1", "type": "krls", "inputs": [[0.1, 0.2], [0.3, 0.1]],
             "alpha": [2.5604872974630157, -1.7812007011277522],
             "lambda": 0.01, "kernel": _GAUSS_2D},
            {"format": "krlslab-model/1", "type": "krls", "inputs": [[0.7, 0.9], [0.9, 0.6]],
             "alpha": [-1.5761275682287208, 1.4365447655994845],
             "lambda": 0.01, "kernel": _GAUSS_2D},
            {"format": "krlslab-model/1", "type": "zero"},
        ],
        "lambda": 0.01,
        "cell_stats": {"counts": [2, 2, 0], "weights": [0.5, 0.5, 0.0],
                       "index_sets": [[0, 1], [2, 3], []]},
    },
}

_SOBOLEV_RECORD = {
    "format": "krlslab-task/1",
    "target": {"kind": "sobolev", "r": 0.4, "R": 1.5, "k_trunc": 3},
    "noise": {"kind": "gaussian", "scale": 0.2},
    "kernel": _BROWNIAN, "gamma": 0.5, "marginal": ["uniform", 0.2, 0.9],
}
_PIECEWISE_RECORD = {
    "format": "krlslab-task/1",
    "target": {"kind": "piecewise", "r_l": 0.1, "r_h": 0.5, "R_l": 0.25, "R_h": 1.0,
               "cells": 4, "exceptional": [1], "k_trunc": 3},
    "noise": {"kind": "uniform_bounded", "scale": 2.0},
    "kernel": _BROWNIAN, "gamma": 0.5, "marginal": ["uniform", 0.0, 1.0],
}
_CONFIG_RECORD = {
    "task": _SOBOLEV_RECORD, "estimators": ["krls", "localized"], "n_grid": [64, 128],
    "replications": 2, "n_test": 100, "master_seed": 11, "lambdas": None, "ms": [2, 4],
    "ls": None, "output_path": "out", "experiment": "rate",
}


def _without_nulls(record):
    if isinstance(record, dict):
        return {k: _without_nulls(v) for k, v in record.items()
                if not (k in ("box", "cells_per_dim", "centers") and v is None)}
    if isinstance(record, list):
        return [_without_nulls(v) for v in record]
    return record


# Records whose fit has since moved by rounding. The min-kernel Nystrom
# normal equations are now summed by prefix sums, not by syrk, and solved
# by a refined Cholesky solve: the fresh alphas differ from the recorded
# ones by up to 8.1e-15 relative. Every float64 Cholesky solve now runs two
# triangular solves in place of LAPACK's potrs, which moves the alphas of
# the other dense fits by about 1 ulp.
_FORMAT1_ROUNDED = {"krls", "localized_nystrom", "nystrom", "voronoi_empty_cell"}


def _with_recorded_alphas(model, literal):
    """The fresh fit with every alpha taken from the record; its centers
    and landmark indices must match the record exactly."""
    if "locals" in literal:
        cells = [_with_recorded_alphas(local, record)
                 for local, record in zip(model.local_models, literal["locals"])]
        return dataclasses.replace(model, local_models=tuple(cells))
    if "alpha" not in literal:  # an empty cell's zero model
        return model
    centers = "landmarks" if "landmarks" in literal else "inputs"
    np.testing.assert_array_equal(getattr(model, centers), literal[centers])
    if "landmark_indices" in literal:
        np.testing.assert_array_equal(model.landmark_indices, literal["landmark_indices"])
    np.testing.assert_allclose(model.alpha, literal["alpha"], rtol=1e-13, atol=0)
    return dataclasses.replace(model, alpha=np.array(literal["alpha"]))


@pytest.mark.parametrize("name", sorted(_FORMAT1_MODELS))
def test_format1_model_records_decode(name):
    literal = _FORMAT1_MODELS[name]
    back = serialize.model_from_dict(literal)
    model = _FORMAT1_FITS[name]()
    if name in _FORMAT1_ROUNDED:
        model = _with_recorded_alphas(model, literal)
    dim = model.partition.dim if hasattr(model, "partition") else 1
    pts = np.random.default_rng(0).uniform(0.0, 1.0, (33, dim))
    np.testing.assert_array_equal(back.predict(pts), model.predict(pts))
    # Writing the decoded model again adds only null partition fields.
    assert _without_nulls(serialize.model_to_dict(back)) == literal


def test_format1_empty_voronoi_cell_predicts_zero():
    back = serialize.model_from_dict(_FORMAT1_MODELS["voronoi_empty_cell"])
    assert back.predict([[0.2, 0.8]]).tolist() == [0.0]


def test_format1_task_and_config_records_decode():
    sob = sobolev_task(0.4, 1.5, NoiseSpec("gaussian", 0.2),
                       marginal=("uniform", 0.2, 0.9), k_trunc=3)
    pw = piecewise_task(0.1, 0.5, 0.25, 1.0, 4, {1}, NoiseSpec("uniform_bounded", 2.0),
                        k_trunc=3)
    for literal, task in ((_SOBOLEV_RECORD, sob), (_PIECEWISE_RECORD, pw)):
        back = serialize.task_from_dict(literal)
        assert serialize.task_to_dict(back) == literal
        xs = np.linspace(0.0, 1.0, 17)
        np.testing.assert_array_equal(back.target(xs), task.target(xs))
    config = serialize.config_from_dict(_CONFIG_RECORD)
    assert serialize.config_to_dict(config) == _CONFIG_RECORD
    np.testing.assert_array_equal(config.task.target.coefficients, sob.target.coefficients)


def test_piecewise_target_off_the_unit_grid_is_refused():
    # A record keeps only the cell count, so these cells over [0.2, 0.8]
    # would come back spread over [0, 1].
    from krlslab import SyntheticTask, make_piecewise_target

    target = make_piecewise_target(0.2, 0.5, 1.0, 1.0, build_grid_partition((0.2, 0.8), 4), (1,))
    task = SyntheticTask(target=target, noise=NoiseSpec("gaussian", 0.1))
    with pytest.raises(ContractError, match=r"cannot hold a grid of \(4,\) cells over"):
        serialize.task_to_dict(task)


def _drop(record, key):
    return {k: v for k, v in record.items() if k != key}


def _three_locals_for_four_cells():
    part = build_grid_partition((0.0, 1.0), 4)
    model = fit_localized(np.linspace(0.05, 0.95, 8), np.arange(8.0), part, 1e-2, brownian())
    record = serialize.model_to_dict(model)
    return {**record, "locals": record["locals"][:3]}


_KRLS = _FORMAT1_MODELS["krls"]
_MALFORMED = {
    "missing_key": (lambda: _drop(_KRLS, "kernel"), "missing fields: kernel"),
    "unknown_key": (lambda: {**_KRLS, "extra": 1}, "unknown fields: extra"),
    "missing_type": (lambda: _drop(_KRLS, "type"), "no known type"),
    "short_alpha": (lambda: {**_KRLS, "alpha": _KRLS["alpha"][:3]}, "alpha of shape"),
    "nan_alpha": (lambda: {**_KRLS, "alpha": [float("nan")] * 4}, "alpha must be finite"),
    "three_locals_for_four_cells": (
        _three_locals_for_four_cells, "local_models holds 3 models for 4 cells"
    ),
    "empty_models": (
        lambda: {**_FORMAT1_MODELS["distributed_avg"], "models": []},
        "models must hold at least one model",
    ),
    "zero_model_in_average": (
        lambda: {**_FORMAT1_MODELS["distributed_avg"],
                 "models": [_FORMAT1_MODELS["distributed_avg"]["models"][0],
                            {"format": "krlslab-model/1", "type": "zero"}]},
        r"models\[1\] is a ZeroModel, not a KrlsModel",
    ),
    "other_kernel_in_average": (
        lambda: {**_FORMAT1_MODELS["distributed_avg"],
                 "models": [_FORMAT1_MODELS["distributed_avg"]["models"][0],
                            _FORMAT1_MODELS["voronoi_empty_cell"]["locals"][0]]},
        r"models\[1\] has kernel KernelSpec\(family='gaussian'",
    ),
    "target_without_R": (
        lambda: {**_SOBOLEV_RECORD, "target": _drop(_SOBOLEV_RECORD["target"], "R")},
        "missing fields: R$",
    ),
    "type_list": (lambda: {**_KRLS, "type": ["krls"]}, r"no known type: type=\['krls'\]"),
    "ragged_inputs": (
        lambda: {**_KRLS, "inputs": [[0.1], [0.2, 0.3], [0.4], [0.5]]},
        "KrlsModel record: .*inhomogeneous",
    ),
    "string_lambda": (
        lambda: {**_KRLS, "lambda": "0.1"}, "KrlsModel field lambda must be a JSON number"
    ),
    "two_entry_marginal": (
        lambda: {**_PIECEWISE_RECORD, "marginal": ["uniform", 0.0]},
        r"marginal interval must be a finite increasing \(low, high\), got \(0.0,\)",
    ),
    "marginal_outside_domain": (
        lambda: {**_SOBOLEV_RECORD, "marginal": ["uniform", 0.5, 1.5]},
        r"marginal interval \(0.5, 1.5\) leaves the kernel's domain \[0.0, 1.0\]",
    ),
    "string_r": (
        lambda: {**_SOBOLEV_RECORD, "target": {**_SOBOLEV_RECORD["target"], "r": "0.5"}},
        "sobolev target field r must be a JSON number",
    ),
    "string_gamma": (
        lambda: {**_SOBOLEV_RECORD, "gamma": "0.5"}, "krlslab-task/1 record: gamma='0.5'"
    ),
    # the Mercer pair fixes a task's kernel and gamma
    "other_task_gamma": (
        lambda: {**_SOBOLEV_RECORD, "gamma": 0.3}, "krlslab-task/1 record: gamma=0.3"
    ),
    "other_task_kernel": (
        lambda: {**_PIECEWISE_RECORD, "kernel": serialize.kernel_to_dict(gaussian(0.4))},
        "krlslab-task/1 record: kernel=.*'gaussian'",
    ),
    "task_without_gamma": (
        lambda: _drop(_SOBOLEV_RECORD, "gamma"), "krlslab-task/1 record: gamma=None"
    ),
    "negative_lambda": (
        lambda: {**_KRLS, "lambda": -1.0}, "lam must be positive and finite, got -1.0"
    ),
    "nan_lambda": (
        lambda: {**_KRLS, "lambda": float("nan")}, "lam must be positive and finite, got nan"
    ),
    "zero_lambda": (
        lambda: {**_KRLS, "lambda": 0.0}, "lam must be positive and finite, got 0.0"
    ),
    "nystrom_zero_lambda": (
        lambda: {**_FORMAT1_MODELS["nystrom"], "lambda": 0.0}, "lam must be positive"
    ),
    "localized_negative_lambda": (
        lambda: {**_FORMAT1_MODELS["localized_nystrom"], "lambda": -1e-2},
        "lam must be positive",
    ),
    "average_nan_lambda": (
        lambda: {**_FORMAT1_MODELS["distributed_avg"], "lambda": float("nan")},
        "lam must be positive",
    ),
    "inputs_outside_domain": (
        lambda: {**_KRLS, "inputs": [[0.1], [0.25], [0.4], [1.5]]},
        r"inputs: coordinate 0 leaves \[0.0, 1.0\]",
    ),
    "local_landmarks_outside_domain": (
        lambda: {**_FORMAT1_MODELS["nystrom"], "landmarks": [[0.1], [-0.25], [0.55]]},
        r"landmarks: coordinate 0 leaves \[0.0, 1.0\]",
    ),
}


@pytest.mark.parametrize("case", sorted(_MALFORMED))
def test_malformed_records_raise_contract_error(case):
    build, message = _MALFORMED[case]
    record = build()
    decode = serialize.task_from_dict if "target" in record else serialize.model_from_dict
    with pytest.raises(ContractError, match=message):
        decode(record)
