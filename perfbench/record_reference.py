"""Record the reference MISE values the benchmark's correctness gate checks.

    python3 perfbench/record_reference.py [--scale K ...] [--master-seed M]

Runs one untraced pass of every workload for each of the SEED_CYCLE master
seeds that ``run.py --seed`` can select, and stores each unit's MISE in
``perfbench/reference.json`` (existing entries for other keys are kept).
Record at the commit whose answers are taken as correct, never at the
commit being checked.
"""

from __future__ import annotations

import argparse
import json
import time

from run import DEFAULT_MASTER, REFERENCE, RTOL, SEED_CYCLE, child
from workloads import WORKLOADS, definitions_hash


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--scale", type=int, nargs="+", default=[1, 64])
    parser.add_argument("--master-seed", type=int, default=DEFAULT_MASTER)
    args = parser.parse_args(argv)

    data = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {"entries": {}}
    if data.get("workload_definitions_sha256", definitions_hash()) != definitions_hash():
        raise SystemExit("reference.json was recorded for other workload definitions")
    data["workload_definitions_sha256"] = definitions_hash()
    data["rtol"] = RTOL
    for scale in args.scale:
        for name in WORKLOADS:
            for master in range(args.master_seed, args.master_seed + SEED_CYCLE):
                out = child(["--workload", name, "--master", str(master),
                             "--scale", str(scale), "--seconds", "0"],
                            time.monotonic() + 600)
                units = out["passes"][0]["units"]
                bad = [u for u in units if u[2]]
                if bad:
                    raise SystemExit(f"{name} master {master}: failed units {bad}")
                data["entries"][f"{name}/scale{scale}/master{master}"] = {
                    label: mise for label, mise, _ in units
                }
                print(f"{name} scale {scale} master {master}: {len(units)} units", flush=True)
                REFERENCE.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
