"""krlslab benchmark: run workloads, check their MISE, print metrics.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S]
                             [--trace 0|1] [--scale K]

Run from the repository root. Each workload runs in child processes of its
own (see child.py). The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``. Full results, with the machine and provenance block, go to
``perfbench/out/``. The exit code is 0 when every output was correct, 3
when the correctness gate failed (the result line is still printed, with
``correct`` false), and 2, with no result line, when the benchmark could
not run: no package sources, no stored reference for the workload and
seed, or a child process that failed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import LAYER_METRICS
from workloads import WORKLOADS, definitions_hash

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
REFERENCE = BENCH / "reference.json"

# --seed n picks master seed DEFAULT_MASTER + n mod SEED_CYCLE; each of
# these has stored reference MISE.
SEED_CYCLE = 16
DEFAULT_MASTER = 13
# Extra set-up-only processes per run; setup_s is the median over them and
# the measured process. Over ten seeds on a 2-core VM, one sample spread
# by 0.25 of its median on sweep_small_n, the median of five by 0.09.
SETUP_REPEATS = 4
# A whole run must end within this many seconds.
RUN_BUDGET_S = 170.0
# Relative MISE tolerance of the gate. Changing the BLAS thread count moves
# MISE by about 2e-15, LU in place of Cholesky by 5e-15 and a Cholesky solve
# in place of the truncated eigensolve in fit_nystrom by 3e-11; a wrong
# answer moves it by percent.
RTOL = 1e-6

END_TO_END = {
    "wall_s": "s",
    "fit_s": "s",
    "score_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "mise_ratio": "ratio",
    "ok_frac": "ratio",
}
PER_LAYER = {name: unit for name, (unit, _, _) in LAYER_METRICS.items()}
PER_LAYER.update({"trace.overhead_s": "s", "trace.unattributed_s": "s"})


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def child(args, deadline, *extra):
    """Run child.py to completion and return its JSON line."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    cmd = [sys.executable, str(BENCH / "child.py"), *args, *extra]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"child timed out: {' '.join(cmd)}") from exc
    if done.returncode != 0:
        raise BenchError(f"child failed ({done.returncode}): {done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def load_reference(key):
    """Reference MISE by unit label; BenchError when none was recorded for key."""
    if not REFERENCE.is_file():
        raise BenchError(f"no {REFERENCE.name}")
    data = json.loads(REFERENCE.read_text())
    if data["workload_definitions_sha256"] != definitions_hash():
        raise BenchError(f"{REFERENCE.name} was recorded for other workload definitions")
    if key not in data["entries"]:
        raise BenchError(f"{REFERENCE.name} holds no entry {key}")
    return data["entries"][key]


def gate(passes, reference):
    """Count units whose MISE is missing, non-finite or off the reference."""
    attempted = failed = 0
    problems = []
    for p in passes:
        seen = set()
        for label, mise, error in p["units"]:
            attempted += 1
            seen.add(label)
            want = reference.get(label)
            if error:
                problem = error
            elif not math.isfinite(mise):
                problem = f"non-finite MISE {mise}"
            elif want is None:
                problem = "no reference value"
            elif abs(mise - want) > RTOL * abs(want):
                problem = f"MISE {mise!r} differs from reference {want!r}"
            else:
                continue
            failed += 1
            problems.append(f"{label}: {problem}")
        for label in sorted(set(reference) - seen):
            attempted += 1
            failed += 1
            problems.append(f"{label}: unit missing from the pass")
    return attempted, failed, problems


def mise_mean(one_pass):
    finite = [mise for _, mise, _ in one_pass["units"] if math.isfinite(mise)]
    return sum(finite) / len(finite) if finite else math.nan


def source_hash():
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "krlslab").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def git_commit():
    """HEAD of the checkout, read from .git without running git; None if absent."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    target = ROOT / ".git" / ref[5:]
    if target.is_file():
        return target.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def run_workload(name, seed, seconds, trace, scale):
    """Measure one workload; returns (result line, full record)."""
    deadline = time.monotonic() + RUN_BUDGET_S
    master = DEFAULT_MASTER + seed % SEED_CYCLE
    reference = load_reference(f"{name}/scale{scale}/master{master}")
    common = ["--workload", name, "--master", str(master), "--scale", str(scale),
              "--seconds", str(seconds), "--trace", str(trace)]
    OUT.mkdir(exist_ok=True)
    stem = f"{name}-seed{seed}-trace{trace}"
    setups = []
    if not trace:
        for _ in range(SETUP_REPEATS):
            t0 = time.monotonic()
            setups.append(child(common, deadline, "--setup-only")["ready"] - t0)
    t0 = time.monotonic()
    spans = ["--spans", str(OUT / f"{stem}-spans.json")] if trace else []
    main = child(common, deadline, *spans)
    setups.append(main["ready"] - t0)

    passes = main["passes"]
    attempted, failed, problems = gate(passes, reference)
    untraced = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    if traced and any(p["units"] != untraced[0]["units"] for p in passes):
        problems.append("traced and untraced passes disagree on MISE")

    med = lambda key, ps: statistics.median(p[key] for p in ps)
    if trace:
        # Counts repeat exactly from pass to pass; median_low keeps them whole.
        metrics = {m: (statistics.median_low if PER_LAYER[m] == "count" else statistics.median)(
                       p["layers"][m] for p in traced)
                   for m in PER_LAYER if m != "trace.overhead_s"}
        metrics["trace.overhead_s"] = med("wall", traced) - med("wall", untraced)
        units = PER_LAYER
    else:
        ratios = []
        for p in passes:
            r = [mise / reference[label] for label, mise, _ in p["units"]
                 if math.isfinite(mise) and label in reference]
            ratios.append(sum(r) / len(r) if r else math.nan)
        metrics = {
            "wall_s": med("wall", passes),
            "fit_s": med("fit", passes),
            "score_s": med("score", passes),
            "peak_rss_mb": main["rss_kb"] / 1024.0,
            "setup_s": statistics.median(setups),
            "mise_ratio": statistics.median(ratios),
            "ok_frac": 1.0 - failed / attempted,
        }
        units = END_TO_END
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()},
    }
    record = {
        "workload": name,
        "result": result,
        "failed_frac": failed / attempted,
        "mise_mean": statistics.median(mise_mean(p) for p in passes),
        "problems": problems,
        "passes": len(passes),
        "setup_samples_s": setups,
        "machine": main["machine"],
        "provenance": {
            "git_commit": git_commit(),
            "source_sha256": source_hash(),
            "workload_definitions_sha256": definitions_hash(),
            "seed": seed,
            "master_seed": master,
            "scale": scale,
            "seconds": seconds,
            "trace": trace,
        },
        "pass_records": passes,
    }
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1))
    return result, record


def describe(record):
    """Human-readable lines for one workload's result."""
    prov = record["provenance"]
    res = record["result"]
    lines = [f"== {record['workload']}",
             f"   master seed {prov['master_seed']}, {record['passes']} passes, "
             f"attempted {res['attempted']}, failed {res['failed']} "
             f"(failed_frac {record['failed_frac']:.3g}), correct {res['correct']}",
             f"   mise_mean {record['mise_mean']:.6g}"]
    for name, m in res["metrics"].items():
        lines.append(f"   {name:34s} {m['value']:.6g} {m['unit']}")
    lines += [f"   PROBLEM {p}" for p in record["problems"][:20]]
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=int, default=1,
                        help="divide every n and n_test by this (smoke tests)")
    args = parser.parse_args(argv)
    if args.scale < 1:
        parser.error("--scale must be at least 1")
    if not (ROOT / "src" / "krlslab" / "__init__.py").is_file():
        print(f"error: no krlslab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    machine_printed = False
    for name in names:
        try:
            result, record = run_workload(name, args.seed, args.seconds, args.trace,
                                          args.scale)
        except BenchError as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 2
        if not machine_printed:
            print("machine: " + json.dumps(record["machine"]))
            print("provenance: " + json.dumps(record["provenance"]))
            machine_printed = True
        print("\n".join(describe(record)))
        results[name] = result
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{m}": v for w, r in results.items()
                        for m, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 3


if __name__ == "__main__":
    sys.exit(main())
