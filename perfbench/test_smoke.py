"""Smoke test of the benchmark at 1/64 of every size.

    python3 -m pytest -q perfbench/test_smoke.py

Checks that every metric BENCHMARK.json names is printed with its unit,
that the correctness gate passes against the stored scale-64 references,
that traced and untraced runs give identical MISE values, that the exact
counts repeat between traced runs, that the gate fails on a reference value
moved by 1e-5 relative, and that the benchmark refuses to run without the
package sources or without a reference for its seed.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(workload, trace, seed=5, cwd=ROOT):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", "0.2", "--trace", str(trace), "--scale", "64"]
    done = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)
    return done


def result(workload, trace, seed=5):
    done = bench(workload, trace, seed)
    assert done.returncode == 0, done.stderr
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    record = json.loads((BENCH / "out" / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    return line, record


def unit_mises(record_pass):
    return [[label, mise] for label, mise, _ in record_pass["units"]]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_metrics_gate_and_trace_agreement(workload):
    plain, plain_record = result(workload, 0)
    traced, traced_record = result(workload, 1)
    again, _ = result(workload, 1)

    for line in (plain, traced, again):
        assert line["correct"] is True
        assert line["failed"] == 0 and line["attempted"] >= 1
    for line, kind in ((plain, "end_to_end"), (traced, "per_layer")):
        assert set(line["metrics"]) == {m["name"] for m in SPEC[kind]}
        for m in SPEC[kind]:
            assert line["metrics"][m["name"]]["unit"] == m["unit"]
            assert isinstance(line["metrics"][m["name"]]["value"], (int, float))

    # Same seed, same units: every traced pass matches every untraced pass exactly.
    first = unit_mises(plain_record["pass_records"][0])
    for record in (plain_record, traced_record):
        for p in record["pass_records"]:
            assert unit_mises(p) == first

    counts = [m["name"] for m in SPEC["per_layer"] if m["unit"] == "count"]
    assert {m: traced["metrics"][m]["value"] for m in counts} == {
        m: again["metrics"][m]["value"] for m in counts
    }


def copy_of_benchmark(name, with_sources):
    """A checkout of BENCHMARK.json and perfbench/ under perfbench/out/<name>."""
    root = BENCH / "out" / name
    shutil.rmtree(root, ignore_errors=True)
    shutil.copytree(BENCH, root / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", root)
    if with_sources:
        os.symlink(ROOT / "src", root / "src")
    return root


def test_gate_fails_on_a_moved_reference_and_refuses_a_missing_one():
    workload, seed = WORKLOADS[0], 5
    root = copy_of_benchmark("gate-check", with_sources=True)
    reference = root / "perfbench" / "reference.json"
    data = json.loads(reference.read_text())
    key = f"{workload}/scale64/master{13 + seed}"
    try:
        label = sorted(data["entries"][key])[0]
        data["entries"][key][label] *= 1 + 1e-5
        reference.write_text(json.dumps(data))
        moved = bench(workload, 0, seed, cwd=root)

        del data["entries"][key]
        reference.write_text(json.dumps(data))
        missing = bench(workload, 0, seed, cwd=root)
    finally:
        shutil.rmtree(root)

    assert moved.returncode == 3, moved.stderr
    line = json.loads(moved.stdout.strip().splitlines()[-1])
    assert line["correct"] is False and line["failed"] >= 1
    assert missing.returncode == 2
    assert "correct" not in missing.stdout
    assert "holds no entry" in missing.stderr


def test_refuses_to_run_without_sources():
    root = copy_of_benchmark("bare-checkout", with_sources=False)
    try:
        done = bench(WORKLOADS[0], 0, cwd=root)
    finally:
        shutil.rmtree(root)
    assert done.returncode == 2
    assert "correct" not in done.stdout
