"""Command-line front end.

Subcommands: synth (emit a task file), fit (serialize the model of unit
(seed, estimator, n, rep 0) of a rate experiment), predict (evaluate a
model file at points), experiment (rate or schedule-comparison run from a
config file), bench (fit timing), report (summarize a report directory).

Exit codes: 0 success, 1 configuration or file error, 2 at least one row
of an experiment failed numerically.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import pathlib
import sys

import numpy as np

from . import harness, kernels, serialize
from .exceptions import ContractError
from .synth import NoiseSpec, piecewise_task, sobolev_task


def _write_json(payload, path: str | None):
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        pathlib.Path(path).write_text(text)


def _load_json(path: str):
    return json.loads(harness.read_text(path))


def _cmd_synth(args) -> int:
    noise = NoiseSpec(kind=args.noise, scale=args.noise_scale)
    marginal = ("uniform", args.marginal[0], args.marginal[1])
    if args.kind == "sobolev":
        if args.r is None:
            raise ContractError("--r is required for a sobolev task")
        task = sobolev_task(
            r=args.r, R=args.R, noise=noise, marginal=marginal, k_trunc=args.k_trunc
        )
    else:
        if args.r_l is None or args.r_h is None:
            raise ContractError("--r-l and --r-h are required for a piecewise task")
        task = piecewise_task(
            r_l=args.r_l,
            r_h=args.r_h,
            R_l=args.R_l,
            R_h=args.R_h,
            cells=args.cells,
            exceptional=args.exceptional,
            noise=noise,
            marginal=marginal,
            k_trunc=args.k_trunc,
        )
    _write_json(serialize.task_to_dict(task), args.out)
    return 0


def _cmd_fit(args) -> int:
    kernels._count(args.seed, "--seed", low=0)
    task = serialize.task_from_dict(_load_json(args.task))
    listed = {"lambdas": args.lam, "ms": args.m, "ls": args.l}
    config = harness.ExperimentConfig(
        task, (args.estimator,), (args.n,), 1, 1, args.seed,
        **{key: (val,) for key, val in listed.items() if val is not None},
    )
    lam, m, l = harness.schedule_values(config, 0)
    x, y, fit_s, _ = harness._unit_data(config, args.estimator, args.n, 0)
    model, _, _, _ = harness.fit_estimator(args.estimator, task, x, y, lam, m, l, fit_s)
    _write_json(serialize.model_to_dict(model), args.out)
    return 0


def _read_points(args) -> np.ndarray:
    text = harness.read_text(args.points_file) if args.points is None else None
    try:
        if args.points is not None:
            return np.array([float(tok) for tok in args.points.split(",") if tok.strip()])
        records = csv.reader(io.StringIO(text, newline=""))
        values = [[float(tok) for tok in record] for record in records if record]
    except ValueError as exc:
        raise ContractError(f"points must be numeric: {exc}") from exc
    if not values:
        raise ContractError(f"points file {args.points_file} holds no points")
    if len({len(row) for row in values}) > 1:
        raise ContractError(f"rows of points file {args.points_file} differ in length")
    arr = np.asarray(values, dtype=float)
    return arr[:, 0] if arr.shape[1] == 1 else arr


def _cmd_predict(args) -> int:
    model = serialize.model_from_dict(_load_json(args.model))
    pts = _read_points(args)
    preds = np.atleast_1d(model.predict(pts))
    coords = pts.reshape(-1, 1) if pts.ndim == 1 else pts
    names = ["x"] if coords.shape[1] == 1 else [f"x{j}" for j in range(coords.shape[1])]
    out = sys.stdout if args.out in (None, "-") else open(args.out, "w", newline="")
    try:
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(names + ["prediction"])
        for row, pred in zip(coords, preds):
            writer.writerow([*(repr(float(c)) for c in row), repr(float(pred))])
    finally:
        if out is not sys.stdout:
            out.close()
    return 0


def _report_exit_code(*reports) -> int:
    return 2 if any(row.failed for report in reports for row in report.rows) else 0


def _cmd_experiment(args) -> int:
    config = serialize.config_from_dict(_load_json(args.config))
    out = args.out or config.output_path
    if out is None:
        raise ContractError("no output path: set output_path or pass --out")
    if config.experiment == "rate":
        report = harness.run_rate_experiment(config)
        harness.emit_report(report, out, task=config.task)
        code = _report_exit_code(report)
    else:
        rough, smooth = harness.run_improved_bound_experiment(config)
        base = pathlib.Path(out)
        harness.emit_report(rough, base / "rough_schedule", task=config.task)
        harness.emit_report(smooth, base / "smooth_schedule", task=config.task)
        contrast = harness.paired_contrast(rough, smooth)
        _write_json(contrast, str(base / "contrast.json"))
        code = _report_exit_code(rough, smooth)
    print(f"report written to {out}")
    return code


def _cmd_bench(args) -> int:
    config = serialize.config_from_dict(_load_json(args.config))
    table = harness.run_timing_benchmark(config, repeats=args.repeats)
    out = pathlib.Path(args.out or config.output_path or ".")
    out.mkdir(parents=True, exist_ok=True)
    harness.write_table(out / "timing.csv", harness.TimingRow, table.rows)
    _write_json(
        {"scaling_exponents": table.scaling_exponents}, str(out / "scaling.json")
    )
    print(f"timing written to {out}")
    return 0


def _cmd_report(args) -> int:
    report = harness.parse_report(args.path)
    _write_json(harness.report_summary(report), None)
    return _report_exit_code(report)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="krlslab",
        description="Kernel regularized least squares: estimators, schedules, experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="emit a synthetic task description")
    p.add_argument("--kind", choices=("sobolev", "piecewise"), required=True)
    p.add_argument("--r", type=float, help="smoothness exponent (sobolev)")
    p.add_argument("--R", type=float, default=1.0, help="source norm (sobolev)")
    p.add_argument("--r-l", dest="r_l", type=float, help="rough exponent (piecewise)")
    p.add_argument("--r-h", dest="r_h", type=float, help="smooth exponent (piecewise)")
    p.add_argument("--R-l", dest="R_l", type=float, default=1.0)
    p.add_argument("--R-h", dest="R_h", type=float, default=1.0)
    p.add_argument("--cells", type=int, default=16, help="grid cells (piecewise)")
    p.add_argument(
        "--exceptional", type=int, nargs="*", default=(), help="rough cell indices"
    )
    p.add_argument("--noise", choices=("gaussian", "uniform_bounded"), default="gaussian")
    p.add_argument("--noise-scale", type=float, default=0.1)
    p.add_argument("--marginal", type=float, nargs=2, default=(0.0, 1.0), metavar=("LO", "HI"))
    p.add_argument("--k-trunc", type=int, default=200)
    p.add_argument("--out", default=None, help="output file, default stdout")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("fit", help="draw training data from a task and fit a model")
    p.add_argument("--task", required=True, help="task JSON file from `synth`")
    p.add_argument("--estimator", choices=harness.ESTIMATORS, required=True)
    p.add_argument("--n", type=int, required=True, help="training sample size")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--lam", type=float, default=None, help="override scheduled lambda")
    p.add_argument("--m", type=int, default=None, help="override scheduled cell count")
    p.add_argument("--l", type=int, default=None, help="override scheduled landmarks")
    p.add_argument("--out", default=None, help="model JSON file, default stdout")
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("predict", help="evaluate a serialized model at points")
    p.add_argument("--model", required=True, help="model JSON file from `fit`")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--points", help="comma-separated coordinates")
    group.add_argument("--points-file", help="CSV of points, one per row")
    p.add_argument("--out", default=None, help="output CSV, default stdout")
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("experiment", help="run a rate or schedule-comparison experiment")
    p.add_argument("--config", required=True, help="experiment config JSON")
    p.add_argument("--out", default=None, help="report directory (overrides config)")
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser("bench", help="fit-time benchmark over the config's grid")
    p.add_argument("--config", required=True, help="experiment config JSON")
    p.add_argument("--out", default=None, help="output directory")
    p.add_argument("--repeats", type=int, default=5)
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("report", help="summarize a report directory or rows.csv")
    p.add_argument("--path", required=True)
    p.set_defaults(func=_cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ContractError, OSError, json.JSONDecodeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
