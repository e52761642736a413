"""One workload in one process: set up, then run passes for a fixed time.

Started by ``run.py`` with ``src`` on ``PYTHONPATH``. Prints one JSON line:
the monotonic time at which set-up ended (``ready``) and, unless
``--setup-only``, every pass with its wall, fit and score times and the
MISE of each unit. With ``--trace 1`` odd passes run under the tracer and
also carry per-layer metrics; even passes run untraced, so one process
gives both and their difference is the tracing overhead.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import time
from contextlib import contextmanager

from tracer import Tracer, layer_metrics
from workloads import WORKLOADS


class Meter:
    """Fit and score time of one pass, and unit boundaries for the tracer."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.times = {"fit": 0.0, "score": 0.0}

    def new_unit(self):
        if self.tracer is not None:
            self.tracer.new_unit()

    @contextmanager
    def _timed(self, key):
        tic = time.perf_counter()
        try:
            yield
        finally:
            self.times[key] += time.perf_counter() - tic

    def fit(self):
        return self._timed("fit")

    def score(self):
        return self._timed("score")

    @contextmanager
    def watch_harness(self):
        """Time the fit and score calls the harness makes itself."""
        from krlslab import harness

        saved = harness.fit_estimator, harness.mise_estimate

        def timed(fn, key):
            def wrapper(*args, **kwargs):
                with self._timed(key):
                    return fn(*args, **kwargs)
            return wrapper

        harness.fit_estimator = timed(saved[0], "fit")
        harness.mise_estimate = timed(saved[1], "score")
        try:
            yield
        finally:
            harness.fit_estimator, harness.mise_estimate = saved


def run_pass(workload, state, tracer):
    meter = Meter(tracer)
    if tracer is not None:
        offset = len(tracer.spans)
        before = dict(tracer.counters)
        tracer.install()
    tic = time.perf_counter()
    try:
        units = workload.run_pass(state, meter)
    finally:
        wall = time.perf_counter() - tic
        if tracer is not None:
            tracer.uninstall()
    record = {
        "traced": tracer is not None,
        "wall": wall,
        "fit": meter.times["fit"],
        "score": meter.times["score"],
        "units": units,
    }
    if tracer is not None:
        added = {k: v - before.get(k, 0) for k, v in tracer.counters.items()}
        record["layers"] = layer_metrics(tracer.spans[offset:], offset, added, wall)
    return record


def _blas_threads(package) -> int | None:
    """Thread count of the OpenBLAS bundled with numpy or scipy, if any."""
    libdir = os.path.join(os.path.dirname(package.__file__), os.pardir, package.__name__ + ".libs")
    for path in sorted(glob.glob(os.path.join(libdir, "*openblas*"))):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine_block() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "mem_total_mb": os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") // 2**20,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads": {"numpy": _blas_threads(numpy), "scipy": _blas_threads(scipy)},
        "thread_env": {k: os.environ.get(k) for k in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--master", type=int, required=True)
    parser.add_argument("--scale", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", help="file to write the trace's spans to")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    state = workload.setup(args.master, args.scale)
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return

    tracer = Tracer() if args.trace else None
    passes = []
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        passes.append(run_pass(workload, state, tracer if traced else None))
        enough = tracer is None or len(passes) >= 2
        if enough and time.perf_counter() - start >= args.seconds:
            break
    if tracer is not None and args.spans:
        with open(args.spans, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "unit"],
                       "spans": tracer.spans}, fh)
    print(json.dumps({
        "ready": ready,
        "passes": passes,
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "machine": machine_block(),
    }))


if __name__ == "__main__":
    main()
