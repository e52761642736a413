"""The three benchmark workloads and the task they share.

Each workload has a ``setup`` that builds the task, the scheduled
parameters and the training data, and a ``run_pass`` that does the
measured work once. Fits go through ``harness.fit_estimator``, as in the
harness's own experiments, and every call into the package is looked up as
a module attribute at call time, so the tracer's wrappers see it.

All workloads use the acceptance rate task of ``tests/test_acceptance.py``
(brownian kernel, Sobolev target r = 1/2, marginal uniform on [0.9, 1]).
"""

from __future__ import annotations

import hashlib
import json
import math

N_TEST = 20000

# The definitions that fix what a workload computes. Their hash goes into
# every result, so numbers from different definitions are never compared.
DEFINITIONS = {
    "task": {"r": 0.5, "R": 1.0, "noise": ["gaussian", 0.15], "marginal": ["uniform", 0.9, 1.0]},
    "n_test": N_TEST,
    "dense_n8192": {"estimators": ["krls"], "n": 8192},
    "cells_n32768": {
        "estimators": ["localized", "localized_nystrom", "nystrom", "distributed_avg"],
        "n": 32768,
    },
    "sweep_small_n": {
        "estimators": ["krls", "localized", "nystrom", "localized_nystrom", "distributed_avg"],
        "n_grid": [256, 512, 1024, 2048],
        "replications": 3,
    },
}


def definitions_hash() -> str:
    blob = json.dumps(DEFINITIONS, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def make_task():
    from krlslab import NoiseSpec, sobolev_task

    t = DEFINITIONS["task"]
    return sobolev_task(
        t["r"], t["R"], NoiseSpec(*t["noise"]), marginal=tuple(t["marginal"])
    )


def _single_n_units(task, estimators, n, n_test, master):
    """Units at one n, each estimator on its own data as the harness draws it.

    A unit is ``(label, estimator, x, y, fit seed, test seed)``; its fit goes
    through ``harness.fit_estimator``, so it makes the harness's own calls.
    """
    from krlslab import ExperimentConfig, harness, synth

    config = ExperimentConfig(
        task=task, estimators=tuple(estimators), n_grid=(n,), replications=1,
        n_test=n_test, master_seed=master,
    )
    units = []
    for est in estimators:
        data_s, label_s, fit_s, test_s = harness.row_seeds(master, est, n, 0)
        x = synth.gen_inputs(task, n, data_s)
        y = synth.sample_labels(task, x, label_s)
        units.append((f"{est}/n{n}/rep0", est, x, y, fit_s, test_s))
    return units, harness.schedule_values(config, 0)


class SingleN:
    """dense_n8192 and cells_n32768: fixed fits at one n, data made in setup."""

    def __init__(self, name):
        self.name = name
        self.spec = DEFINITIONS[name]

    def setup(self, master, scale):
        task = make_task()
        n = self.spec["n"] // scale
        n_test = max(1, N_TEST // scale)
        units, params = _single_n_units(task, self.spec["estimators"], n, n_test, master)
        return {"task": task, "units": units, "params": params, "n_test": n_test}

    def run_pass(self, state, meter):
        from krlslab import harness, synth

        task = state["task"]
        lam, m, l = state["params"]
        results = []
        for label, est, x, y, fit_s, test_s in state["units"]:
            meter.new_unit()
            try:
                with meter.fit():
                    model = harness.fit_estimator(est, task, x, y, lam, m, l, fit_s)[0]
                with meter.score():
                    mise = synth.mise_estimate(model, task, state["n_test"], test_s)
            except Exception as exc:  # a failing unit is counted, the pass goes on
                results.append((label, math.nan, f"{type(exc).__name__}: {exc}"))
                continue
            results.append((label, mise, ""))
        return results


class Sweep:
    """sweep_small_n: the harness's own rate experiment, data made per unit."""

    name = "sweep_small_n"

    def setup(self, master, scale):
        from krlslab import ExperimentConfig

        spec = DEFINITIONS[self.name]
        config = ExperimentConfig(
            task=make_task(),
            estimators=tuple(spec["estimators"]),
            n_grid=tuple(n // scale for n in spec["n_grid"]),
            replications=spec["replications"],
            n_test=max(1, N_TEST // scale),
            master_seed=master,
        )
        return {"config": config}

    def run_pass(self, state, meter):
        from krlslab import harness

        with meter.watch_harness():
            report = harness.run_rate_experiment(state["config"])
        results = []
        for row in report.rows:
            error = row.warning if row.warning.startswith("error:") else ""
            results.append((f"{row.estimator}/n{row.n}/rep{row.rep}", row.mise, error))
        return results


WORKLOADS = {
    "dense_n8192": SingleN("dense_n8192"),
    "cells_n32768": SingleN("cells_n32768"),
    "sweep_small_n": Sweep(),
}
