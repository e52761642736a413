"""Every package name ``perfbench/tracer.py`` wraps must still resolve.

The tracer patches functions, methods and attributes by name from outside
the package, so a rename or removal breaks it without breaking any library
test. It is loaded here by path, unchanged, and each name it relies on is
looked up; one install/uninstall round trip around a localized Nystrom fit
checks the cell counters and that every original comes back.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from krlslab import brownian, build_grid_partition, linalg

_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
_SPEC = importlib.util.spec_from_file_location("perfbench_tracer", _PATH)
tracer = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(tracer)


@pytest.mark.parametrize("name", sorted(tracer.FUNCTIONS))
def test_traced_function_resolves(name):
    module, attr = tracer.FUNCTIONS[name]
    assert callable(getattr(importlib.import_module(module), attr))


@pytest.mark.parametrize("name", sorted(tracer.METHODS))
def test_traced_method_is_defined_on_its_class(name):
    # install() wraps cls.__dict__[attr], so an inherited method would not do
    module, cls_name, attr = tracer.METHODS[name]
    cls = getattr(importlib.import_module(module), cls_name)
    assert callable(cls.__dict__[attr])


def test_traced_lapack_calls_resolve():
    assert linalg.scipy.linalg is scipy.linalg
    for attr in tracer.LAPACK.values():
        assert callable(getattr(scipy.linalg, attr))


def test_cell_counters_read_the_fit():
    from krlslab import localized

    assert "l" in inspect.signature(localized.fit_localized_nystrom).parameters
    x = np.array([0.1, 0.2, 0.3, 0.6])
    part = build_grid_partition((0.0, 1.0), 3)
    before = localized.fit_localized_nystrom
    t = tracer.Tracer()
    t.install()
    try:
        model = localized.fit_localized_nystrom(x, np.sin(x), part, 1e-2, 2, 0, brownian())
    finally:
        t.uninstall()
    assert localized.fit_localized_nystrom is before
    assert model.cell_stats.counts.tolist() == [3, 1, 0]
    assert t.counters["localized.cells_fitted"] == 2
    assert t.counters["localized.empty_cells"] == 1
    assert t.counters["localized.landmark_caps"] == 1
