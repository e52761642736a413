"""One input-shape convention across kernels, partitions, fits and predicts.

Every entry point reads points the same way: a scalar is one 1-d point, a
flat vector is n points in 1-d or one d-dim point, an (n, d) array is a
point matrix, and every other shape raises ContractError. The table below
feeds the same inputs to each entry point in d = 1 and d = 2 and checks the
output shape it implies, or the error. ``ZeroModel``, the empty-cell
placeholder, is left out: it has no dimension and only ever sees points that
``LocalizedModel.predict`` has already checked.
"""

import numpy as np
import pytest

from krlslab import (
    ContractError,
    assign,
    build_grid_partition,
    cross_gram,
    fit_distributed_average,
    fit_krls,
    fit_localized,
    fit_localized_nystrom,
    fit_nystrom,
    gaussian,
    gram,
    split_dataset,
)


def _inputs(d):
    """(name, x, point count or None for ContractError, scalar in)."""
    matrix = np.linspace(0.1, 0.9, 3 * d).reshape(3, d)
    return [
        ("scalar", 0.5, 1 if d == 1 else None, True),
        ("flat_vector", np.array([0.2, 0.5, 0.8]), 3 if d == 1 else None, False),
        ("matrix", matrix, 3, False),
        ("one_flat_point", np.full(d, 0.4), 1, False),
        ("3d_array", matrix[:, :, None], None, False),
        ("wrong_width", np.full((3, d + 1), 0.5), None, False),
    ]


def _spec(d):
    return gaussian(0.3, ((0.0, 1.0),) * d)


def _part(d):
    return build_grid_partition(((0.0, 1.0),) * d, (2,) * d)


def _labels(x, n):
    return np.linspace(-1.0, 1.0, n if n is not None else np.atleast_1d(x).shape[0])


def _fit_then_predict(fit):
    def run(d, x, n):
        model = fit(d, x, _labels(x, n))
        return np.shape(model.predict(x))

    return run


def _trained(fit):
    """Predict with a model trained on clean (n, d) data."""

    def run(d, x, n):
        rng = np.random.default_rng(d)
        xt = rng.uniform(0.0, 1.0, (24, d))
        model = fit(d, xt, np.sin(4 * xt.sum(axis=1)))
        return np.shape(model.predict(x))

    return run


_FITS = {
    "krls": lambda d, x, y: fit_krls(x, y, 1e-2, _spec(d)),
    "nystrom": lambda d, x, y: fit_nystrom(x, y, 1e-2, 1, 0, _spec(d)),
    "localized": lambda d, x, y: fit_localized(x, y, _part(d), 1e-2, _spec(d)),
    "localized_nystrom": lambda d, x, y: fit_localized_nystrom(
        x, y, _part(d), 1e-2, 2, 0, _spec(d)
    ),
    "distributed_avg": lambda d, x, y: fit_distributed_average(x, y, 1, 1e-2, _spec(d), 0),
}

# entry point -> (call returning a shape, expected shape from (n, scalar))
_ENTRY_POINTS = {
    "gram": (
        lambda d, x, n: gram(_spec(d), x).shape,
        lambda n, scalar: (n, n),
    ),
    "cross_gram": (
        lambda d, x, n: cross_gram(_spec(d), x, np.full((2, d), 0.5)).shape,
        lambda n, scalar: (n, 2),
    ),
    "assign": (
        lambda d, x, n: np.shape(assign(_part(d), x)),
        lambda n, scalar: () if scalar else (n,),
    ),
    "split_dataset": (
        lambda d, x, n: (int(split_dataset(_part(d), x, _labels(x, n))[0].counts.sum()),),
        lambda n, scalar: (n,),
    ),
    **{
        f"fit_{name}": (_fit_then_predict(fit), lambda n, scalar: () if scalar else (n,))
        for name, fit in _FITS.items()
    },
    **{
        f"predict_{name}": (_trained(fit), lambda n, scalar: () if scalar else (n,))
        for name, fit in _FITS.items()
    },
}

_CASES = [
    pytest.param(entry, d, x, n, scalar, id=f"{entry}-d{d}-{name}")
    for entry in _ENTRY_POINTS
    for d in (1, 2)
    for name, x, n, scalar in _inputs(d)
]


@pytest.mark.parametrize("entry, d, x, n, scalar", _CASES)
def test_input_shape_convention(entry, d, x, n, scalar):
    call, expected = _ENTRY_POINTS[entry]
    if n is None:
        with pytest.raises(ContractError):
            call(d, x, n)
    else:
        assert call(d, x, n) == expected(n, scalar)
