"""End-to-end command-line flows, driven in process through main()."""

import json

import numpy as np
import pytest

import krlslab.harness as harness
from krlslab import (
    ESTIMATORS,
    ExperimentConfig,
    NoiseSpec,
    mise_estimate,
    row_seeds,
    run_rate_experiment,
    serialize,
    sobolev_task,
)
from krlslab.cli import main


def _run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def _write_config(path, **kw):
    base = dict(
        task=sobolev_task(0.5, 1.0, NoiseSpec("gaussian", 0.3)),
        estimators=("krls",),
        n_grid=(32, 64),
        replications=2,
        n_test=200,
        master_seed=3,
    )
    base.update(kw)
    config = ExperimentConfig(**base)
    path.write_text(json.dumps(serialize.config_to_dict(config)))
    return config


def test_synth_fit_predict_round_trip(tmp_path, capsys):
    task_path = tmp_path / "task.json"
    code, _, _ = _run(
        capsys,
        "synth", "--kind", "sobolev", "--r", "0.5", "--R", "1.0",
        "--noise", "gaussian", "--noise-scale", "0.2",
        "--out", str(task_path),
    )
    assert code == 0

    model_path = tmp_path / "model.json"
    code, _, _ = _run(
        capsys,
        "fit", "--task", str(task_path), "--estimator", "krls",
        "--n", "80", "--seed", "5", "--out", str(model_path),
    )
    assert code == 0

    code, out, _ = _run(
        capsys, "predict", "--model", str(model_path), "--points", "0.1,0.5,0.9"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "x,prediction"
    assert len(lines) == 4

    # csv predictions must agree bit for bit with the deserialized model
    # evaluated the same way the command does (one batched call)
    model = serialize.model_from_dict(json.loads(model_path.read_text()))
    batch = model.predict(np.array([0.1, 0.5, 0.9]))
    written = [float(line.split(",")[1]) for line in lines[1:]]
    np.testing.assert_array_equal(written, batch)


def test_fit_each_estimator(tmp_path, capsys):
    task_path = tmp_path / "task.json"
    _run(capsys, "synth", "--kind", "sobolev", "--r", "0.5", "--out", str(task_path))
    for estimator in ("localized", "nystrom", "localized_nystrom", "distributed_avg"):
        model_path = tmp_path / f"{estimator}.json"
        code, _, _ = _run(
            capsys,
            "fit", "--task", str(task_path), "--estimator", estimator,
            "--n", "64", "--out", str(model_path),
        )
        assert code == 0
        model = serialize.model_from_dict(json.loads(model_path.read_text()))
        assert np.isfinite(model.predict(0.5))


def test_synth_piecewise_and_missing_flags(tmp_path, capsys):
    out = tmp_path / "pw.json"
    code, _, _ = _run(
        capsys,
        "synth", "--kind", "piecewise", "--r-l", "0.1", "--r-h", "0.5",
        "--R-l", "0.25", "--R-h", "1.0", "--cells", "8", "--exceptional", "3",
        "--out", str(out),
    )
    assert code == 0
    task = serialize.task_from_dict(json.loads(out.read_text()))
    assert task.target.exceptional == frozenset({3})

    code, _, err = _run(capsys, "synth", "--kind", "sobolev")
    assert code == 1 and "--r is required" in err
    code, _, err = _run(capsys, "synth", "--kind", "piecewise")
    assert code == 1 and "--r-l and --r-h" in err


def test_synth_refuses_a_marginal_outside_the_kernel_domain(tmp_path, capsys):
    out = tmp_path / "task.json"
    code, _, err = _run(
        capsys, "synth", "--kind", "sobolev", "--r", "0.5", "--marginal", "0.5", "1.5",
        "--out", str(out),
    )
    assert code == 1 and not out.exists()
    assert "marginal interval (0.5, 1.5) leaves the kernel's domain [0.0, 1.0]" in err


def test_predict_points_file_multidim(tmp_path, capsys):
    # serialize a 2-d model directly, then drive predict with a points file
    from krlslab import fit_krls, gaussian

    rng = np.random.default_rng(0)
    x = rng.random((40, 2))
    y = rng.standard_normal(40)
    model = fit_krls(x, y, 1e-2, gaussian(0.5, ((0.0, 1.0), (0.0, 1.0))))
    model_path = tmp_path / "model2d.json"
    model_path.write_text(json.dumps(serialize.model_to_dict(model)))

    pts = tmp_path / "pts.csv"
    pts.write_text("0.25,0.5\n0.75,0.25\n")
    out_path = tmp_path / "preds.csv"
    code, _, _ = _run(
        capsys,
        "predict", "--model", str(model_path),
        "--points-file", str(pts), "--out", str(out_path),
    )
    assert code == 0
    lines = out_path.read_text().strip().splitlines()
    assert lines[0] == "x0,x1,prediction"
    got = [float(line.rsplit(",", 1)[1]) for line in lines[1:]]
    batch = model.predict(np.array([[0.25, 0.5], [0.75, 0.25]]))
    np.testing.assert_array_equal(got, batch)


def test_predict_empty_points_file_exits_one(tmp_path, capsys):
    from krlslab import brownian, fit_krls

    model = fit_krls([0.2, 0.8], [1.0, 2.0], 1e-2, brownian())
    model_path = tmp_path / "model.json"
    model_path.write_text(json.dumps(serialize.model_to_dict(model)))
    pts = tmp_path / "empty.csv"
    pts.write_text("")
    code, out, err = _run(
        capsys, "predict", "--model", str(model_path), "--points-file", str(pts)
    )
    assert code == 1 and out == ""
    assert "holds no points" in err


def test_predict_ragged_points_file_exits_one(tmp_path, capsys):
    from krlslab import fit_krls, gaussian

    model = fit_krls(
        [[0.2, 0.2], [0.8, 0.8]], [1.0, 2.0], 1e-2,
        gaussian(0.5, ((0.0, 1.0), (0.0, 1.0))),
    )
    model_path = tmp_path / "model.json"
    model_path.write_text(json.dumps(serialize.model_to_dict(model)))
    pts = tmp_path / "ragged.csv"
    pts.write_text("0.1,0.2\n0.3\n")
    code, out, err = _run(
        capsys, "predict", "--model", str(model_path), "--points-file", str(pts)
    )
    assert code == 1 and out == ""
    assert "differ in length" in err


def test_experiment_rate_writes_report(tmp_path, capsys):
    cfg_path = tmp_path / "config.json"
    _write_config(cfg_path)
    out_dir = tmp_path / "report"
    code, out, _ = _run(capsys, "experiment", "--config", str(cfg_path), "--out", str(out_dir))
    assert code == 0
    assert (out_dir / "rows.csv").exists()
    assert (out_dir / "summary.json").exists()
    assert (out_dir / "coefficients.json").exists()
    assert "report written" in out

    code, out, _ = _run(capsys, "report", "--path", str(out_dir))
    assert code == 0
    summary = json.loads(out)
    assert summary["row_count"] == 4
    assert summary["failed_rows"] == 0
    assert "krls" in summary["mean_mise"]
    # the report command prints exactly what the experiment wrote
    assert summary == json.loads((out_dir / "summary.json").read_text())


def test_experiment_improved_bound_layout(tmp_path, capsys):
    from krlslab import piecewise_task

    cfg_path = tmp_path / "config.json"
    _write_config(
        cfg_path,
        task=piecewise_task(0.1, 0.5, 0.25, 1.0, 8, {3}, NoiseSpec("gaussian", 1.0)),
        estimators=("localized",),
        n_grid=(128, 256),
        replications=2,
        n_test=100,
        experiment="improved_bound",
        ms=(4, 4),
    )
    out_dir = tmp_path / "cmp"
    code, _, _ = _run(capsys, "experiment", "--config", str(cfg_path), "--out", str(out_dir))
    assert code == 0
    assert (out_dir / "rough_schedule" / "rows.csv").exists()
    assert (out_dir / "smooth_schedule" / "rows.csv").exists()
    contrast = json.loads((out_dir / "contrast.json").read_text())
    assert [c["n"] for c in contrast] == [128, 256]


def test_experiment_requires_output_path(tmp_path, capsys):
    cfg_path = tmp_path / "config.json"
    _write_config(cfg_path)
    code, _, err = _run(capsys, "experiment", "--config", str(cfg_path))
    assert code == 1
    assert "output path" in err


def test_config_errors_exit_one(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    code, _, err = _run(capsys, "experiment", "--config", str(missing), "--out", str(tmp_path / "x"))
    assert code == 1 and "error:" in err

    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    code, _, err = _run(capsys, "experiment", "--config", str(broken), "--out", str(tmp_path / "x"))
    assert code == 1

    cfg_path = tmp_path / "config.json"
    _write_config(cfg_path)
    data = json.loads(cfg_path.read_text())
    del data["master_seed"]
    cfg_path.write_text(json.dumps(data))
    code, _, err = _run(capsys, "experiment", "--config", str(cfg_path), "--out", str(tmp_path / "x"))
    assert code == 1 and "missing fields" in err

    data["master_seed"] = 3
    data["surprise"] = True
    cfg_path.write_text(json.dumps(data))
    code, _, err = _run(capsys, "experiment", "--config", str(cfg_path), "--out", str(tmp_path / "x"))
    assert code == 1 and "unknown fields" in err


def test_failed_rows_exit_two(tmp_path, capsys, monkeypatch):
    def explode(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(harness, "fit_estimator", explode)
    cfg_path = tmp_path / "config.json"
    _write_config(cfg_path, n_grid=(16,), replications=1)
    out_dir = tmp_path / "report"
    code, _, _ = _run(capsys, "experiment", "--config", str(cfg_path), "--out", str(out_dir))
    assert code == 2
    rows = (out_dir / "rows.csv").read_text().splitlines()
    assert rows[1].endswith("error:RuntimeError: boom")

    code, out, _ = _run(capsys, "report", "--path", str(out_dir))
    assert code == 2
    assert json.loads(out)["failed_rows"] == 1


def test_bench_outputs(tmp_path, capsys):
    cfg_path = tmp_path / "config.json"
    _write_config(cfg_path, estimators=("krls", "nystrom"), n_grid=(64, 128), replications=1)
    out_dir = tmp_path / "bench"
    code, out, _ = _run(
        capsys, "bench", "--config", str(cfg_path), "--out", str(out_dir), "--repeats", "2"
    )
    assert code == 0
    lines = (out_dir / "timing.csv").read_text().splitlines()
    assert lines[0] == "estimator,n,median_fit_seconds"
    assert len(lines) == 5
    scaling = json.loads((out_dir / "scaling.json").read_text())
    assert set(scaling["scaling_exponents"]) == {"krls", "nystrom"}


def test_fit_seed_changes_model(tmp_path, capsys):
    task_path = tmp_path / "task.json"
    _run(capsys, "synth", "--kind", "sobolev", "--r", "0.5", "--out", str(task_path))
    outs = []
    for seed in (1, 2):
        model_path = tmp_path / f"m{seed}.json"
        _run(
            capsys,
            "fit", "--task", str(task_path), "--estimator", "krls",
            "--n", "50", "--seed", str(seed), "--out", str(model_path),
        )
        model = serialize.model_from_dict(json.loads(model_path.read_text()))
        outs.append(model.predict(0.5))
    assert outs[0] != outs[1]


@pytest.mark.parametrize("listed", [False, True], ids=["scheduled", "listed"])
def test_fit_writes_the_rate_experiment_unit(tmp_path, capsys, listed):
    task_path = tmp_path / "task.json"
    _run(capsys, "synth", "--kind", "sobolev", "--r", "0.5", "--out", str(task_path))
    task = serialize.task_from_dict(json.loads(task_path.read_text()))
    lists = dict(lambdas=(0.003,), ms=(3,), ls=(7,)) if listed else {}
    flags = ["--lam", "0.003", "--m", "3", "--l", "7"] if listed else []
    config = ExperimentConfig(task, ESTIMATORS, (96,), 1, 300, 5, **lists)
    rows = {row.estimator: row for row in run_rate_experiment(config).rows}
    for estimator in ESTIMATORS:
        model_path = tmp_path / f"{estimator}.json"
        code, _, _ = _run(
            capsys,
            "fit", "--task", str(task_path), "--estimator", estimator,
            "--n", "96", "--seed", "5", *flags, "--out", str(model_path),
        )
        assert code == 0
        model = serialize.model_from_dict(json.loads(model_path.read_text()))
        test_seed = row_seeds(5, estimator, 96, 0)[3]
        assert mise_estimate(model, task, 300, test_seed) == rows[estimator].mise
        if listed:
            assert rows[estimator].lam == 0.003


def test_negative_seed_exits_one(tmp_path, capsys):
    cfg_path = tmp_path / "config.json"
    _write_config(cfg_path)
    data = json.loads(cfg_path.read_text())
    data["master_seed"] = -1
    cfg_path.write_text(json.dumps(data))
    out_dir = tmp_path / "report"
    code, _, err = _run(capsys, "experiment", "--config", str(cfg_path), "--out", str(out_dir))
    assert code == 1 and err == "error: master_seed must be non-negative, not -1\n"
    assert not out_dir.exists()

    task_path = tmp_path / "task.json"
    _run(capsys, "synth", "--kind", "sobolev", "--r", "0.5", "--out", str(task_path))
    code, out, err = _run(
        capsys, "fit", "--task", str(task_path), "--estimator", "krls", "--n", "16", "--seed", "-1"
    )
    assert code == 1 and out == ""
    assert err == "error: --seed must be non-negative, not -1\n"


def test_bench_without_repeats_exits_one(tmp_path, capsys):
    cfg_path = tmp_path / "config.json"
    _write_config(cfg_path, n_grid=(16, 32), replications=1)
    out_dir = tmp_path / "bench"
    code, _, err = _run(
        capsys, "bench", "--config", str(cfg_path), "--out", str(out_dir), "--repeats", "0"
    )
    assert code == 1 and err == "error: repeats must be at least 1, not 0\n"
    assert not out_dir.exists()


def test_predict_non_utf8_points_file_exits_one(tmp_path, capsys):
    from krlslab import brownian, fit_krls

    model = fit_krls([0.2, 0.8], [1.0, 2.0], 1e-2, brownian())
    model_path = tmp_path / "model.json"
    model_path.write_text(json.dumps(serialize.model_to_dict(model)))
    pts = tmp_path / "pts.csv"
    pts.write_bytes(b"0.5\n0.\xe9\n")
    code, out, err = _run(
        capsys, "predict", "--model", str(model_path), "--points-file", str(pts)
    )
    assert code == 1 and out == ""
    assert err.startswith(f"error: {pts} is not UTF-8 text")


def test_predict_malformed_model_exits_one(tmp_path, capsys):
    from krlslab import brownian, fit_krls

    record = serialize.model_to_dict(fit_krls([0.2, 0.5, 0.8], [1.0, 2.0, 0.5], 1e-2, brownian()))
    record["alpha"] = record["alpha"][:2]
    model_path = tmp_path / "model.json"
    model_path.write_text(json.dumps(record))
    code, out, err = _run(capsys, "predict", "--model", str(model_path), "--points", "0.5")
    assert code == 1 and out == ""
    assert "error: alpha of shape (2,) needs one entry per row of inputs" in err


def test_predict_wrong_json_type_exits_one(tmp_path, capsys):
    from krlslab import brownian, fit_krls

    record = serialize.model_to_dict(fit_krls([0.2, 0.5, 0.8], [1.0, 2.0, 0.5], 1e-2, brownian()))
    record["lambda"] = "0.01"
    model_path = tmp_path / "model.json"
    model_path.write_text(json.dumps(record))
    code, out, err = _run(capsys, "predict", "--model", str(model_path), "--points", "0.5")
    assert code == 1 and out == ""
    assert err == "error: KrlsModel field lambda must be a JSON number: '0.01'\n"


@pytest.mark.parametrize(
    "row, column",
    [("krls,abc,,,0.1,0,1.0,0.01,,", "column n"), ("krls,64,,,0.1,0", "has 6 cells")],
    ids=["non_numeric_n", "short_row"],
)
def test_report_malformed_rows_exits_one(tmp_path, capsys, row, column):
    rows = tmp_path / "rows.csv"
    rows.write_text(harness.CSV_HEADER + "\n" + row + "\n")
    code, out, err = _run(capsys, "report", "--path", str(rows))
    assert code == 1 and out == ""
    assert err.startswith("error: rows.csv line 2") and column in err
    assert "Traceback" not in err


def test_report_non_utf8_rows_exits_one(tmp_path, capsys):
    rows = tmp_path / "rows.csv"
    row = "krls,64,,,0.1,0,1.0,0.01,,caf\xe9"
    rows.write_bytes((harness.CSV_HEADER + "\n" + row + "\n").encode("latin-1"))
    code, out, err = _run(capsys, "report", "--path", str(rows))
    assert code == 1 and out == ""
    assert err.startswith(f"error: {rows} is not UTF-8 text")
    assert "Traceback" not in err


def test_predict_non_utf8_model_exits_one(tmp_path, capsys):
    from krlslab import brownian, fit_krls

    record = serialize.model_to_dict(fit_krls([0.2, 0.5, 0.8], [1.0, 2.0, 0.5], 1e-2, brownian()))
    model_path = tmp_path / "model.json"
    model_path.write_bytes(json.dumps(record).replace("brownian", "brownian\xe9").encode("latin-1"))
    code, out, err = _run(capsys, "predict", "--model", str(model_path), "--points", "0.5")
    assert code == 1 and out == ""
    assert err.startswith(f"error: {model_path} is not UTF-8 text")


def test_predict_model_outside_domain_exits_one(tmp_path, capsys):
    from krlslab import brownian, fit_krls

    record = serialize.model_to_dict(fit_krls([0.2, 0.5, 0.8], [1.0, 2.0, 0.5], 1e-2, brownian()))
    record["inputs"][2] = [1.5]
    model_path = tmp_path / "model.json"
    model_path.write_text(json.dumps(record))
    code, out, err = _run(capsys, "predict", "--model", str(model_path), "--points", "0.5")
    assert code == 1 and out == ""
    assert err == "error: inputs: coordinate 0 leaves [0.0, 1.0]\n"


@pytest.mark.parametrize(
    "summary, message",
    [
        ("[1, 2]", "summary.json must hold a JSON object"),
        ('{"theoretical_exponent": "0.5"}',
         "summary.json: theoretical_exponent must be a number or null, not '0.5'"),
    ],
    ids=["list", "string_exponent"],
)
def test_report_malformed_summary_exits_one(tmp_path, capsys, summary, message):
    (tmp_path / "rows.csv").write_text(harness.CSV_HEADER + "\nkrls,64,,,0.1,0,1.0,0.01,,\n")
    (tmp_path / "summary.json").write_text(summary)
    code, out, err = _run(capsys, "report", "--path", str(tmp_path))
    assert code == 1 and out == ""
    assert err == f"error: {message}\n"
