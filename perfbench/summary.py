"""Every end-to-end metric of every workload in one table.

    python3 perfbench/summary.py [--seed N] [--trace]

Runs perfbench/run.py once per workload, one after the other, each for the
run_seconds of BENCHMARK.json.  Prints each metric by name with its unit, the
job counts and fail_ratio (failed jobs over attempted jobs).  With --trace it
prints the per-layer metrics instead.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()
    status = 0
    for wl in spec["workloads"]:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", wl["name"],
             "--seed", str(args.seed), "--seconds", str(spec["run_seconds"]),
             "--trace", "1" if args.trace else "0"],
            capture_output=True, text=True, check=False,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{wl['name']}: run failed with status {proc.returncode}\n{proc.stderr}")
            status = 1
            continue
        result = json.loads(lines[-1])
        ratio = result["failed"] / result["attempted"]
        print(f"== {wl['name']}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} fail_ratio={ratio}")
        for line in lines[:-1]:
            print(f"   {line}")
        for name, m in result["metrics"].items():
            print(f"   {name:42s} {m['value']:>16.6g} {m['unit']}")
        status |= 0 if result["correct"] else 1
    return status


if __name__ == "__main__":
    sys.exit(main())
