"""Spans and counts at krlslab's layer boundaries, recorded from outside.

``Tracer.install`` replaces each traced function with a wrapper in every
``krlslab`` module namespace that binds it, because several modules import
names directly (``from .krls import fit_krls``) and look them up in their
own globals. Methods are wrapped on their class, and the scipy LAPACK entry
points are wrapped behind a proxy bound to ``krlslab.linalg.scipy``, so only
the calls made from ``linalg`` are seen. ``uninstall`` puts every original
back. Spans stay in memory until the caller writes them out.

A span is ``[name, start, end, parent, unit]``: ``parent`` is the index of
the enclosing span (-1 at top level) and ``unit`` the fit-and-score unit it
belongs to. Self time is a span's duration minus its direct children's.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

# span name -> (module, attribute) of a package-level function
FUNCTIONS = {
    "kernels.gram": ("krlslab.kernels", "gram"),
    "kernels.cross_gram": ("krlslab.kernels", "cross_gram"),
    "linalg.spd_solve": ("krlslab.linalg", "spd_solve"),
    "linalg.pinv_solve": ("krlslab.linalg", "pinv_solve"),
    "krls.fit": ("krlslab.krls", "fit_krls"),
    "nystrom.fit": ("krlslab.nystrom", "fit_nystrom"),
    "partition.split_dataset": ("krlslab.partition", "split_dataset"),
    "partition.assign": ("krlslab.partition", "assign"),
    "localized.fit_localized": ("krlslab.localized", "fit_localized"),
    "localized.fit_localized_nystrom": ("krlslab.localized", "fit_localized_nystrom"),
    "localized.fit_distributed_average": ("krlslab.localized", "fit_distributed_average"),
    "synth.gen_inputs": ("krlslab.synth", "gen_inputs"),
    "synth.sample_labels": ("krlslab.synth", "sample_labels"),
    "synth.mise_estimate": ("krlslab.synth", "mise_estimate"),
    "harness.run_rate_experiment": ("krlslab.harness", "run_rate_experiment"),
    "harness.fit_estimator": ("krlslab.harness", "fit_estimator"),
    "harness.schedule_values": ("krlslab.harness", "schedule_values"),
    "harness.row_seeds": ("krlslab.harness", "row_seeds"),
}

# span name -> (module, class, method)
METHODS = {
    "krls.predict": ("krlslab.krls", "KrlsModel", "predict"),
    "nystrom.predict": ("krlslab.nystrom", "NystromModel", "predict"),
    "localized.predict": ("krlslab.localized", "LocalizedModel", "predict"),
    "localized.average_predict": ("krlslab.localized", "DistributedAverageModel", "predict"),
    "synth.target_eval": ("krlslab.synth", "SobolevTarget", "__call__"),
}

# span name -> scipy.linalg attribute called from krlslab.linalg
LAPACK = {
    "linalg.cho_factor": "cho_factor",
    "linalg.cho_solve": "cho_solve",
    "linalg.eigh": "eigh",
}

# Per-layer metrics: name -> (unit, how it is computed from one pass).
# "total" sums span durations, "self" sums self times, "calls" counts spans;
# the rest are counters kept by the wrappers.
LAYER_METRICS = {
    "kernels.gram_s": ("s", "total", ["kernels.gram"]),
    "kernels.gram_calls": ("count", "calls", ["kernels.gram"]),
    "kernels.gram_entries": ("count", "counter", None),
    "kernels.cross_gram_s": ("s", "total", ["kernels.cross_gram"]),
    "kernels.cross_gram_calls": ("count", "calls", ["kernels.cross_gram"]),
    "kernels.cross_gram_entries": ("count", "counter", None),
    "linalg.spd_solve_self_s": ("s", "self", ["linalg.spd_solve"]),
    "linalg.spd_solve_calls": ("count", "calls", ["linalg.spd_solve"]),
    "linalg.cho_factor_s": ("s", "total", ["linalg.cho_factor"]),
    "linalg.cho_factor_calls": ("count", "calls", ["linalg.cho_factor"]),
    "linalg.cho_factor_n3": ("count", "counter", None),
    "linalg.cho_solve_s": ("s", "total", ["linalg.cho_solve"]),
    "linalg.jitter_retry_ratio": ("ratio", "derived", None),
    "linalg.pinv_solve_self_s": ("s", "self", ["linalg.pinv_solve"]),
    "linalg.pinv_solve_calls": ("count", "calls", ["linalg.pinv_solve"]),
    "linalg.eigh_s": ("s", "total", ["linalg.eigh"]),
    "linalg.eigh_n3": ("count", "counter", None),
    "krls.fit_self_s": ("s", "self", ["krls.fit"]),
    "krls.predict_s": ("s", "total", ["krls.predict"]),
    "nystrom.fit_self_s": ("s", "self", ["nystrom.fit"]),
    "nystrom.predict_s": ("s", "total", ["nystrom.predict"]),
    "partition.split_dataset_s": ("s", "total", ["partition.split_dataset"]),
    "partition.assign_s": ("s", "total", ["partition.assign"]),
    "partition.assign_calls": ("count", "calls", ["partition.assign"]),
    "localized.fit_self_s": ("s", "self", [
        "localized.fit_localized",
        "localized.fit_localized_nystrom",
        "localized.fit_distributed_average",
    ]),
    "localized.predict_self_s": ("s", "self", [
        "localized.predict", "localized.average_predict",
    ]),
    "localized.cells_fitted": ("count", "counter", None),
    "localized.empty_cells": ("count", "counter", None),
    "localized.landmark_caps": ("count", "counter", None),
    "synth.gen_inputs_s": ("s", "total", ["synth.gen_inputs"]),
    "synth.sample_labels_s": ("s", "total", ["synth.sample_labels"]),
    "synth.target_eval_s": ("s", "total", ["synth.target_eval"]),
    "synth.mise_estimate_self_s": ("s", "self", ["synth.mise_estimate"]),
    "harness.self_s": ("s", "self", [
        "harness.run_rate_experiment",
        "harness.fit_estimator",
        "harness.schedule_values",
        "harness.row_seeds",
    ]),
}


class _Proxy:
    """Forwards attribute lookups to ``target`` except the names overridden."""

    def __init__(self, target, **overrides):
        self.__dict__.update(overrides)
        self._target = target

    def __getattr__(self, name):
        return getattr(self._target, name)


def _count_cells(counters, args, kwargs, model, bound=None):
    counts = model.cell_stats.counts
    counters["localized.cells_fitted"] += int((counts > 0).sum())
    counters["localized.empty_cells"] += int((counts == 0).sum())
    if bound is not None:
        l = bound(*args, **kwargs).arguments["l"]
        counters["localized.landmark_caps"] += int(((counts > 0) & (counts < int(l))).sum())


class Tracer:
    def __init__(self):
        self.spans = []
        self.counters = defaultdict(int)
        self.unit = 0
        self._stack = []
        self._restore = []

    def new_unit(self):
        self.unit += 1

    def _wrap(self, name, fn, before=None, after=None):
        spans, stack, counters = self.spans, self._stack, self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(counters, args, kwargs)
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, self.unit]
            stack.append(len(spans))
            spans.append(record)
            record[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                stack.pop()
            if after is not None:
                after(counters, args, kwargs, result)
            return result

        return wrapper

    def _hooks(self, name, fn):
        """(before, after) counter hooks for the spans that count work."""
        if name in ("kernels.gram", "kernels.cross_gram"):
            key = name + "_entries"

            def count_entries(counters, args, kwargs, result):
                counters[key] += int(result.size)

            return None, count_entries
        if name in ("linalg.cho_factor", "linalg.eigh"):
            key = name + "_n3"

            def count_n3(counters, args, kwargs):
                counters[key] += int(args[0].shape[0]) ** 3

            return count_n3, None
        if name == "localized.fit_localized":
            return None, _count_cells
        if name == "localized.fit_localized_nystrom":
            bind = inspect.signature(fn).bind
            return None, lambda c, a, k, r: _count_cells(c, a, k, r, bind)
        if name == "harness.row_seeds":
            # The harness draws a unit's seeds first thing, so a call opens a unit.
            return lambda c, a, k: self.new_unit(), None
        return None, None

    def install(self):
        import scipy.linalg

        modules = [m for key, m in sys.modules.items()
                   if key == "krlslab" or key.startswith("krlslab.")]
        by_identity = {}
        for name, (module, attr) in FUNCTIONS.items():
            fn = getattr(sys.modules[module], attr)
            by_identity[id(fn)] = (fn, self._wrap(name, fn, *self._hooks(name, fn)))
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if id(value) in by_identity and by_identity[id(value)][0] is value:
                    self._restore.append((mod, attr, value))
                    setattr(mod, attr, by_identity[id(value)][1])
        for name, (module, cls_name, attr) in METHODS.items():
            cls = getattr(sys.modules[module], cls_name)
            fn = cls.__dict__[attr]
            self._restore.append((cls, attr, fn))
            setattr(cls, attr, self._wrap(name, fn))
        lapack = {
            attr: self._wrap(name, getattr(scipy.linalg, attr),
                             *self._hooks(name, None))
            for name, attr in LAPACK.items()
        }
        linalg_mod = sys.modules["krlslab.linalg"]
        self._restore.append((linalg_mod, "scipy", linalg_mod.scipy))
        linalg_mod.scipy = _Proxy(linalg_mod.scipy, linalg=_Proxy(scipy.linalg, **lapack))

    def uninstall(self):
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)


def layer_metrics(spans, offset, counters, wall):
    """Per-layer metrics of one pass.

    ``spans`` are the pass's spans, the first of them at index ``offset`` of
    the tracer's list (parents are indices into that list); ``counters``
    holds the counts the pass added.
    """
    child_time = [0.0] * len(spans)
    for span in spans:
        if span[3] >= 0:
            child_time[span[3] - offset] += span[2] - span[1]
    total = defaultdict(float)
    self_time = defaultdict(float)
    calls = defaultdict(int)
    for i, span in enumerate(spans):
        dur = span[2] - span[1]
        total[span[0]] += dur
        self_time[span[0]] += dur - child_time[i]
        calls[span[0]] += 1
    out = {}
    for metric, (unit, kind, names) in LAYER_METRICS.items():
        if kind == "total":
            value = sum(total[n] for n in names)
        elif kind == "self":
            value = sum(self_time[n] for n in names)
        elif kind == "calls":
            value = sum(calls[n] for n in names)
        elif kind == "counter":
            value = counters.get(metric, 0)
        else:  # jitter retries: factorizations beyond the first per solve
            solves = calls["linalg.spd_solve"]
            value = (calls["linalg.cho_factor"] - solves) / solves if solves else 0.0
        out[metric] = value
    # Everything the spans do not cover is the benchmark's own loop.
    out["trace.unattributed_s"] = wall - sum(self_time.values())
    return out
