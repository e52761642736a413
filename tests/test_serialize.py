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


def test_task_kernel_persists():
    # a non-default kernel must survive the round trip rather than falling
    # back to the constructor default
    base = sobolev_task(0.5, 1.0, NoiseSpec("gaussian", 0.1))
    task = dataclasses.replace(base, kernel=gaussian(0.4))
    back = serialize.task_from_dict(_json_cycle(serialize.task_to_dict(task)))
    assert back.kernel == gaussian(0.4)


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
