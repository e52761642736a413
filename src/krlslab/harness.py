"""Experiment engine: rate experiments, paired schedule comparisons,
timing benchmarks, and report files.

A rate experiment fits each configured estimator over an ascending n grid
with scheduled (or explicitly listed) parameters, replicated under derived
seeds, and summarizes each estimator by the OLS slope of log mean-MISE
against log n next to the theoretical exponent; a schedule comparison runs
it once per smoothness schedule. Every (estimator, n, rep) unit draws its
data from seeds derived from the master seed, so runs are deterministic and
units are independent; a fit failure taints only its own row. ``rows.csv``
and ``timing.csv`` have one column per field of :class:`Row` and
:class:`TimingRow`.
"""

from __future__ import annotations

import csv
import io
import json
import math
import pathlib
import time
import typing
import zlib
from dataclasses import dataclass, fields, replace

import numpy as np
from scipy.linalg import blas

from . import kernels
from .exceptions import ContractError
from .localized import (
    fit_distributed_average,
    fit_localized,
    fit_localized_nystrom,
)
from .krls import fit_krls
from .nystrom import fit_nystrom
from .partition import build_grid_partition
from .synth import SyntheticTask, gen_inputs, mise_estimate, sample_labels
from .theory import l_schedule, lambda_schedule, m_schedule, rate_exponent

ESTIMATORS = ("krls", "localized", "nystrom", "localized_nystrom", "distributed_avg")


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a rate or schedule-comparison run needs.

    lambda, m and l follow the task's schedules at each n. A per-n list
    (``lambdas``, ``ms``, ``ls``) overrides its schedule and must match the
    n grid in length; a listed lambda must be positive and finite, a listed
    count a whole number of at least 1.
    """

    task: SyntheticTask
    estimators: tuple
    n_grid: tuple
    replications: int
    n_test: int
    master_seed: int
    lambdas: tuple | None = None
    ms: tuple | None = None
    ls: tuple | None = None
    output_path: str | None = None
    experiment: str = "rate"

    def __post_init__(self):
        object.__setattr__(self, "estimators", tuple(self.estimators))
        object.__setattr__(self, "n_grid", tuple(kernels._count(n, "n") for n in self.n_grid))
        for name, low in (("replications", 1), ("n_test", 1), ("master_seed", 0)):
            object.__setattr__(self, name, kernels._count(getattr(self, name), name, low))
        for est in self.estimators:
            if est not in ESTIMATORS:
                raise ContractError(f"unknown estimator {est!r}")
        if not self.estimators:
            raise ContractError("need at least one estimator")
        if not self.n_grid:
            raise ContractError("need at least one n")
        if any(b <= a for a, b in zip(self.n_grid, self.n_grid[1:])):
            raise ContractError("n grid must be strictly ascending")
        for name in ("lambdas", "ms", "ls"):
            vals = getattr(self, name)
            if vals is None:
                continue
            if len(vals) != len(self.n_grid):
                raise ContractError(f"{name} must match the n grid in length")
            check = kernels._real if name == "lambdas" else kernels._count
            object.__setattr__(self, name, tuple(check(v, name) for v in vals))
        if self.experiment not in ("rate", "improved_bound"):
            raise ContractError(f"unknown experiment kind {self.experiment!r}")


@dataclass(frozen=True)
class Row:
    """One fitted unit. m, l and min_cell_count are None when not applicable."""

    estimator: str
    n: int
    m: int | None
    l: int | None
    lam: float
    rep: int
    mise: float
    fit_seconds: float
    min_cell_count: int | None
    warning: str = ""

    @property
    def failed(self) -> bool:
        """True when the fit or its scoring raised.

        The warning then reads ``error:<Type>: <message>``.
        """
        return self.warning.startswith("error:")


def _csv_keys(cls) -> list:
    """A table's column names: the fields of ``cls``, ``lam`` written as ``lambda``."""
    return [{"lam": "lambda"}.get(f.name, f.name) for f in fields(cls)]


_CSV_KEYS = _csv_keys(Row)
CSV_HEADER = ",".join(_CSV_KEYS)


@dataclass(frozen=True)
class RateReport:
    """Rows plus per-estimator (slope, stderr) and the theoretical exponent.

    A slope is None when fewer than two n values produced positive mean
    MISE for that estimator.
    """

    rows: tuple
    slopes: dict
    theoretical_exponent: float | None


def estimator_seed_id(name: str) -> int:
    """Stable integer tag for an estimator name (crc32 of the bytes)."""
    return zlib.crc32(name.encode("ascii"))


def row_seeds(master_seed: int, estimator: str, n: int, rep: int):
    """Independent child seeds (data, labels, fit, test) for one unit."""
    root = np.random.SeedSequence([
        kernels._count(master_seed, "master_seed", low=0), estimator_seed_id(estimator),
        kernels._count(n, "n"), kernels._count(rep, "rep", low=0),
    ])
    return root.spawn(4)


def _seed_int(seed_seq) -> int:
    return int(seed_seq.generate_state(1, np.uint64)[0])


def schedule_values(config: ExperimentConfig, i: int):
    """(lambda, m, l) for grid position i; a per-n list overrides its schedule."""
    n, params = config.n_grid[i], config.task.model_params()
    lam = config.lambdas[i] if config.lambdas else lambda_schedule(n, params)
    m = config.ms[i] if config.ms else m_schedule(n, params)
    l = config.ls[i] if config.ls else l_schedule(n, params)
    return lam, m, l


def _marginal_partition(task: SyntheticTask, m: int):
    _, lo, hi = task.marginal
    return build_grid_partition(((lo, hi),), m)


def fit_estimator(estimator: str, task: SyntheticTask, x, y, lam, m, l, fit_seed):
    """Dispatch a single fit. Returns (model, used_m, used_l, min_cell_count)."""
    spec = task.kernel
    if estimator == "krls":
        return fit_krls(x, y, lam, spec), None, None, None
    if estimator == "nystrom":
        model = fit_nystrom(x, y, lam, min(l, len(y)), _seed_int(fit_seed), spec)
        return model, None, min(l, len(y)), None
    if estimator == "localized":
        part = _marginal_partition(task, m)
        model = fit_localized(x, y, part, lam, spec)
        return model, m, None, model.cell_stats.min_count
    if estimator == "localized_nystrom":
        part = _marginal_partition(task, m)
        model = fit_localized_nystrom(x, y, part, lam, l, _seed_int(fit_seed), spec)
        return model, m, l, model.cell_stats.min_count
    if estimator == "distributed_avg":
        model = fit_distributed_average(x, y, min(m, len(y)), lam, spec, _seed_int(fit_seed))
        return model, min(m, len(y)), None, None
    raise ContractError(f"unknown estimator {estimator!r}")


def _unit_data(config: ExperimentConfig, estimator: str, n: int, rep: int):
    """One unit's training pairs and its fit and test seeds: (x, y, fit, test)."""
    data_s, label_s, fit_s, test_s = row_seeds(config.master_seed, estimator, n, rep)
    x = gen_inputs(config.task, n, data_s)
    return x, sample_labels(config.task, x, label_s), fit_s, test_s


def _units(config: ExperimentConfig, replications: int):
    """Each (estimator, n, rep) unit with rep < replications, in run order, as
    (estimator, n, rep, (lam, m, l), (x, y, fit_seed, test_seed)).

    schedule_values runs once per (estimator, n), before that pair's draws.
    """
    for estimator in config.estimators:
        for i, n in enumerate(config.n_grid):
            values = schedule_values(config, i)
            for rep in range(replications):
                yield estimator, n, rep, values, _unit_data(config, estimator, n, rep)


def _run_units(config: ExperimentConfig):
    """One row per (estimator, n, rep), fitted and scored on its own draw."""
    rows = []
    for estimator, n, rep, (lam, m, l), (x, y, fit_s, test_s) in _units(
        config, config.replications
    ):
        warning = ""
        mise = fit_seconds = math.nan
        used_m = used_l = mcc = None
        try:
            tic = time.perf_counter()
            model, used_m, used_l, mcc = fit_estimator(
                estimator, config.task, x, y, lam, m, l, fit_s
            )
            fit_seconds = time.perf_counter() - tic
            mise = mise_estimate(model, config.task, config.n_test, test_s)
            if mcc is not None and mcc < 1:
                warning = "empty_cell"
        except Exception as exc:  # keep the grid running; taint this row only
            warning = f"error:{type(exc).__name__}: {exc}"
        rows.append(Row(estimator, n, used_m, used_l, lam, rep, mise, fit_seconds, mcc, warning))
    return rows


def mean_mise_curve(rows, estimator: str):
    """Per-n mean MISE over replications for one estimator; skips NaN rows."""
    by_n = {}
    for row in rows:
        if row.estimator != estimator or not math.isfinite(row.mise):
            continue
        by_n.setdefault(row.n, []).append(row.mise)
    return sorted((n, float(np.mean(v))) for n, v in by_n.items())


def fit_loglog_slope(points) -> tuple:
    """OLS slope and standard error of log(mise) against log(n).

    Needs at least two points with positive mise; with exactly two the fit
    is exact and the standard error is 0.
    """
    pts = [(float(n), float(mise)) for n, mise in points]
    if len(pts) < 2:
        raise ContractError("need at least two points for a slope")
    if any(mise <= 0 for _, mise in pts):
        raise ContractError("mise values must be positive for a log-log fit")
    lx = np.log([n for n, _ in pts])
    ly = np.log([m for _, m in pts])
    sxx = float(np.sum((lx - lx.mean()) ** 2))
    if sxx == 0:
        raise ContractError("need at least two distinct n values")
    slope = float(np.sum((lx - lx.mean()) * (ly - ly.mean())) / sxx)
    intercept = ly.mean() - slope * lx.mean()
    resid = ly - (intercept + slope * lx)
    dof = len(pts) - 2
    stderr = math.sqrt(float(blas.ddot(resid, resid)) / dof / sxx) if dof > 0 else 0.0
    return slope, stderr


def _curve_slope(curve):
    """(slope, stderr) over an [(n, value)] curve's positive points; None below two."""
    usable = [(n, v) for n, v in curve if v > 0]
    return fit_loglog_slope(usable) if len(usable) >= 2 else None


def _slopes(rows, estimators):
    return {est: _curve_slope(mean_mise_curve(rows, est)) for est in estimators}


def run_rate_experiment(config: ExperimentConfig) -> RateReport:
    """Fit every configured estimator across the n grid and summarize slopes."""
    rows = _run_units(config)
    exponent = rate_exponent(config.task.model_params())
    return RateReport(tuple(rows), _slopes(rows, config.estimators), exponent)


def run_improved_bound_experiment(config: ExperimentConfig):
    """Schedule comparison on a two-smoothness task; returns (rough, smooth).

    Each arm is the localized rate experiment with lambdas listed from the
    schedule of the low smoothness r_l or the high smoothness r_h, and the
    theoretical exponent of that r. Everything else (partition size, seeds,
    test draws) is shared, so replications pair exactly. The exceptional-mass
    bound is checked at the largest n before any fitting. Since each arm
    sets its own lambda, a config listing ``lambdas`` or other estimators is
    rejected.
    """
    if config.lambdas is not None:
        raise ContractError("improved-bound runs set lambda per arm; drop lambdas")
    if config.estimators != ("localized",):
        raise ContractError('improved-bound runs fit only estimators=("localized",)')
    mass, bound, ok = config.task.exceptional_mass_bound(config.n_grid[-1])
    if not ok:
        raise ContractError(
            f"exceptional mass {mass:.4g} exceeds the allowed bound {bound:.4g} "
            f"at n={config.n_grid[-1]}"
        )
    params, target = config.task.model_params(), config.task.target

    def arm(r):
        arm_params = replace(params, r=r)
        lambdas = [lambda_schedule(n, arm_params) for n in config.n_grid]
        report = run_rate_experiment(replace(config, lambdas=lambdas))
        return replace(report, theoretical_exponent=rate_exponent(arm_params))

    return arm(target.r_l), arm(target.r_h)


def paired_contrast(report_a: RateReport, report_b: RateReport):
    """Per-n paired statistics of MISE(a) - MISE(b) matched on (n, rep).

    Returns a list of dicts with the mean difference, its standard error
    over replications, and the z score. Positive z favors b.
    """
    info_a = {(r.n, r.rep): r.mise for r in report_a.rows}
    info_b = {(r.n, r.rep): r.mise for r in report_b.rows}
    if set(info_a) != set(info_b):
        raise ContractError("reports do not cover the same (n, rep) units")
    out = []
    for n in sorted({key[0] for key in info_a}):
        diffs = np.array(
            [
                info_a[(n, rep)] - info_b[(n, rep)]
                for (nn, rep) in sorted(info_a)
                if nn == n
            ]
        )
        if not np.all(np.isfinite(diffs)):
            raise ContractError(f"non-finite mise in the contrast at n={n}")
        mean = float(diffs.mean())
        se = float(diffs.std(ddof=1) / math.sqrt(len(diffs))) if len(diffs) > 1 else 0.0
        z = mean / se if se > 0 else math.inf * np.sign(mean) if mean else 0.0
        out.append({"n": n, "mean_diff": mean, "se": se, "z": float(z)})
    return out


@dataclass(frozen=True)
class TimingRow:
    estimator: str
    n: int
    median_fit_seconds: float


@dataclass(frozen=True)
class TimingTable:
    rows: tuple
    scaling_exponents: dict


def run_timing_benchmark(config: ExperimentConfig, repeats: int = 5) -> TimingTable:
    """Median-of-``repeats`` fit wall time per (estimator, n), run serially.

    Times cover the fit call only; data generation and prediction are
    excluded. Scaling exponents are log-log slopes of median time vs n.
    """
    repeats = kernels._count(repeats, "repeats")
    rows = []
    for estimator, n, _, (lam, m, l), (x, y, fit_s, _) in _units(config, 1):
        times = []
        for _ in range(repeats):
            tic = time.perf_counter()
            fit_estimator(estimator, config.task, x, y, lam, m, l, fit_s)
            times.append(time.perf_counter() - tic)
        rows.append(TimingRow(estimator, n, float(np.median(times))))
    exponents = {}
    for est in config.estimators:
        slope = _curve_slope([(r.n, r.median_fit_seconds) for r in rows if r.estimator == est])
        exponents[est] = None if slope is None else slope[0]
    return TimingTable(rows=tuple(rows), scaling_exponents=exponents)


def _cell_text(value) -> str:
    """A table value as its CSV cell: None is empty, a float its repr."""
    return "" if value is None else repr(value) if isinstance(value, float) else str(value)


def write_table(path, cls, rows):
    """Write dataclass rows as UTF-8 CSV: header :func:`_csv_keys`, cells :func:`_cell_text`."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(_csv_keys(cls))
        writer.writerows([_cell_text(getattr(row, f.name)) for f in fields(cls)] for row in rows)


def _parse_cell(where: str, key: str, hint, text: str):
    """A rows.csv cell as its Row field's type; empty is None where allowed."""
    kinds = typing.get_args(hint) or (hint,)
    try:
        return None if not text and type(None) in kinds else kinds[0](text)
    except ValueError:
        raise ContractError(f"{where}: column {key} cannot hold {text!r}") from None


def report_summary(report: RateReport) -> dict:
    """JSON-ready summary: exponent, slopes, row and failure counts, mean MISE.

    ``mean_mise`` maps each estimator to its per-n ``[n, mean MISE]`` curve.
    """
    return {
        "theoretical_exponent": report.theoretical_exponent,
        "slopes": {
            est: (None if val is None else {"slope": val[0], "stderr": val[1]})
            for est, val in report.slopes.items()
        },
        "row_count": len(report.rows),
        "failed_rows": sum(1 for r in report.rows if r.failed),
        "mean_mise": {
            est: mean_mise_curve(report.rows, est)
            for est in sorted({r.estimator for r in report.rows})
        },
    }


def emit_report(report: RateReport, path, task: SyntheticTask | None = None):
    """Write rows.csv and summary.json (see :func:`report_summary`) under ``path``.

    Overwrites idempotently. When the task is given, its target coefficient
    vectors go to coefficients.json for audit. Rows are sorted by
    (estimator, n, rep) before writing, so emission is order-independent.
    """
    out = pathlib.Path(path)
    out.mkdir(parents=True, exist_ok=True)
    rows_path = out / "rows.csv"
    write_table(rows_path, Row, sorted(report.rows, key=lambda r: (r.estimator, r.n, r.rep)))
    with open(out / "summary.json", "w", encoding="utf-8") as fh:
        json.dump(report_summary(report), fh, indent=2, sort_keys=True)
        fh.write("\n")
    if task is not None:
        from . import serialize

        with open(out / "coefficients.json", "w") as fh:
            json.dump(serialize.target_coefficients(task.target), fh, indent=2)
            fh.write("\n")
    return rows_path, out / "summary.json"


def read_text(path) -> str:
    """A file's text, decoded as UTF-8 with line ends kept as written.

    Bytes that are not UTF-8 raise ContractError naming the file.
    """
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise ContractError(f"{path} is not UTF-8 text: {exc}") from None


def parse_report(path) -> RateReport:
    """Rebuild a RateReport from a report directory (rows.csv inverse of emit).

    Slopes are recomputed from the rows; only the theoretical exponent is
    read from summary.json, when that file exists.
    """
    out = pathlib.Path(path)
    rows_path = out if out.suffix == ".csv" else out / "rows.csv"
    hints = typing.get_type_hints(Row)
    rows = []
    fh = io.StringIO(read_text(rows_path), newline="")
    header = fh.readline().rstrip("\n")
    if header != CSV_HEADER:
        raise ContractError(f"unexpected CSV header {header!r}")
    reader = csv.reader(fh)
    for record in filter(None, reader):
        where = f"{rows_path.name} line {reader.line_num + 1}"
        if len(record) != len(hints):
            raise ContractError(f"{where} has {len(record)} cells, not {len(hints)}")
        cells = zip(_CSV_KEYS, hints.values(), record)
        rows.append(Row(*(_parse_cell(where, *cell) for cell in cells)))
    summary_path = rows_path.parent / "summary.json"
    exponent = None
    if summary_path.exists():
        summary = json.loads(read_text(summary_path))
        if not isinstance(summary, dict):
            raise ContractError(f"{summary_path.name} must hold a JSON object")
        exponent = summary.get("theoretical_exponent")
        if exponent is not None and type(exponent) not in (int, float):
            raise ContractError(
                f"{summary_path.name}: theoretical_exponent must be a number or null, "
                f"not {exponent!r}"
            )
    slopes = _slopes(rows, sorted({r.estimator for r in rows}))
    return RateReport(rows=tuple(rows), slopes=slopes, theoretical_exponent=exponent)
