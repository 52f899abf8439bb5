"""padic-entropy benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (``src/padic_entropy`` must exist).
Every round starts a fresh interpreter (perfbench/worker.py), so the group
cache and the prime pool start cold as they do for a CLI user, and runs the
workload's job list through ``cli.main(argv)`` in a closed loop: one client,
one job at a time, no threads, ``PADIC_ENTROPY_THREADS`` unset.  Rounds repeat
until ``--seconds`` have passed; times come from each job's median over the
rounds (see ``median_latencies``), set-up from the fastest of a fixed number of fresh
interpreters that only import the CLI, spread over the run.  Outputs are
checked after the rounds, outside every timed region.

Trace 0 prints the end-to-end metrics; trace 1 alternates untraced and traced
rounds and prints the per-layer metrics (self time and calls of each wrapped
layer function, counted work, tracing overhead).  The last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
THREADS_ENV = "PADIC_ENTROPY_THREADS"

SETUP_PROBES = 8  # fresh interpreters that only import the CLI, for setup_s
DEADLINE_S = 170  # the whole run, checks included, must end before this


class BenchError(Exception):
    """The run cannot produce a result (no source tree, worker died, timeout)."""


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile, q in (0, 1]."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


class Runner:
    def __init__(self, deadline: float):
        self.deadline = deadline
        self.env = {k: v for k, v in os.environ.items() if k != THREADS_ENV}

    def spawn(self, args: list[str]) -> tuple[float, dict | None]:
        """Start a worker; returns (set-up seconds, its result document)."""
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, WORKER, *args],
            stdout=subprocess.PIPE, bufsize=0, env=self.env, cwd=ROOT,
        )
        try:
            ready = proc.stdout.readline()
            setup_s = time.perf_counter() - start
            out, _ = proc.communicate(timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise BenchError(f"worker {args} ran past the deadline") from None
        if ready != b"ready\n" or proc.returncode != 0:
            raise BenchError(f"worker {args} exited with status {proc.returncode}")
        return setup_s, (json.loads(out) if out.strip() else None)


def machine_facts(env_threads) -> dict:
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        f"{THREADS_ENV}_in_environment": env_threads,
        f"{THREADS_ENV}_in_benchmark": None,
    }


def check_rounds(jobs: list[dict], rounds: list[dict]) -> tuple[int, int, list[str]]:
    """(attempted, failed, first failure reasons) over every job of every round."""
    from checks import check_job

    verdicts: dict = {}
    attempted = failed = 0
    reasons = []
    for rnd in rounds:
        for i, (job, (status, _, out, err)) in enumerate(zip(jobs, rnd["jobs"])):
            key = (i, status, out, err)
            if key not in verdicts:
                try:
                    verdicts[key] = check_job(job, status, out, err)
                except Exception as ex:  # a checker crash is a failed job
                    verdicts[key] = f"check raised {type(ex).__name__}: {ex}"
            attempted += 1
            if verdicts[key]:
                failed += 1
                if len(reasons) < 5:
                    reasons.append(f"{' '.join(job['argv'])}: {verdicts[key]}")
    return attempted, failed, reasons


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def median_latencies(rounds: list[dict]) -> list[float]:
    """Each job's median latency over the rounds.

    The benchmark shares a 2-vCPU host whose speed drifts by up to 2x, in
    phases from under a second to minutes.  A job's median round is steadier
    than its fastest, which follows brief fast spells: on six seeds at 25 s
    per run, the spread (interquartile range over median) of the three time
    metrics fell from 0.14/0.07/0.16 to 0.07/0.04/0.08 on series and from
    0.14/0.13/0.20 to 0.11/0.10/0.07 on small_jobs.
    """
    return [statistics.median(r["jobs"][i][1] for r in rounds) for i in range(len(rounds[0]["jobs"]))]


def end_to_end(setups: list[float], rounds: list[dict]) -> tuple[dict, dict]:
    per_job = median_latencies(rounds)
    p50, p95 = percentile(per_job, 0.50), percentile(per_job, 0.95)
    metrics = {
        "setup_s": metric(min(setups), "s"),
        "wall_s": metric(sum(per_job), "s"),
        "job_p50_ms": metric(1000 * p50, "ms"),
        "job_p95_ms": metric(1000 * p95, "ms"),
        "peak_rss_mb": metric(statistics.median(r["peak_rss_mb"] for r in rounds), "MB"),
    }
    samples = {
        "rounds": len(rounds),
        "round_wall_s": [round(r["wall_s"], 4) for r in rounds],
        "setup_probes_s": [round(s, 4) for s in setups],
        "jobs": len(per_job),
        "jobs_above_p50": sum(t > p50 for t in per_job),
        "jobs_above_p95": sum(t > p95 for t in per_job),
    }
    return metrics, samples


def per_layer(plain: list[dict], traced: list[dict]) -> tuple[dict, bool]:
    """Per-layer metrics and whether the counted work repeated exactly."""
    first = traced[0]
    repeat = all(
        r["counters"] == first["counters"]
        and all(r["layers"][k]["calls"] == v["calls"] for k, v in first["layers"].items())
        for r in traced
    )
    metrics = {}
    for name, totals in first["layers"].items():
        metrics[f"{name}.self_s"] = metric(statistics.median(r["layers"][name]["self_s"] for r in traced), "s")
        metrics[f"{name}.calls"] = metric(totals["calls"], "count")
    units = {"fixcount.det_bits": "bits", "groupring.group_cache_hit_ratio": "ratio"}
    for name, value in first["counters"].items():
        metrics[name] = metric(value, units.get(name, "count"))
    traced_wall = sum(median_latencies(traced))
    metrics["trace.wall_s"] = metric(traced_wall, "s")
    metrics["trace.overhead_s"] = metric(traced_wall - sum(median_latencies(plain)), "s")
    return metrics, repeat


def main(argv=None) -> int:
    from workloads import WORKLOADS, build_jobs

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "padic_entropy", "cli.py")):
        print(f"no source tree at {ROOT}/src/padic_entropy", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    jobs = build_jobs(args.workload, args.seed)
    runner = Runner(time.monotonic() + DEADLINE_S)
    facts = machine_facts(os.environ.get(THREADS_ENV))
    round_args = ["--workload", args.workload, "--seed", str(args.seed)]

    runner.spawn(["--probe"])  # warm-up: byte-code cache and file cache
    start = time.monotonic()
    setups: list[float] = []

    def probe_up_to(count: int):
        while len(setups) < min(count, SETUP_PROBES):
            setups.append(runner.spawn(["--probe"])[0])

    plain: list[dict] = []
    traced: list[dict] = []
    while True:
        # The probes are spread over the run: the host's speed changes in
        # phases of seconds to minutes, and the fastest probe should not
        # depend on one phase.
        probe_up_to(1 + int(SETUP_PROBES * (time.monotonic() - start) / args.seconds))
        trace_round = bool(args.trace) and len(traced) < len(plain)
        _, doc = runner.spawn(round_args + (["--trace"] if trace_round else []))
        (traced if trace_round else plain).append(doc)
        done = time.monotonic() - start >= args.seconds
        if done and (not args.trace or len(traced) == len(plain)):
            break
    probe_up_to(SETUP_PROBES)

    attempted, failed, reasons = check_rounds(jobs, plain + traced)
    for reason in reasons:
        print(f"FAILED {reason}")
    if args.trace:
        metrics, repeat = per_layer(plain, traced)
        if not repeat:
            print("FAILED counted work differs between traced rounds")
    else:
        metrics, samples = end_to_end(setups, plain)
        repeat = True
        print("samples: " + json.dumps(samples))
    print("machine: " + json.dumps(facts))
    print(f"fail_ratio: {failed / attempted} ({failed} of {attempted} jobs)")
    print(json.dumps({
        "correct": failed == 0 and repeat,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as ex:
        print(f"benchmark error: {ex}", file=sys.stderr)
        sys.exit(3)
