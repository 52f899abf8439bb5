"""One benchmark round in a fresh interpreter (started by run.py).

Imports ``padic_entropy.cli``, prints ``ready`` (the parent times set-up up to
that line), then runs the workload's job list through ``cli.main(argv)`` one
job at a time and prints one JSON line with per-job status, latency and
captured output.  ``--probe`` stops after ``ready``; ``--trace`` wraps the
layer functions first and adds the span totals and counters.

Usage: python3 perfbench/worker.py (--probe | --workload NAME --seed N [--trace])
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_jobs(cli, jobs):
    import contextlib
    import io
    import time
    import traceback

    results = []
    clock = time.perf_counter
    start = clock()
    for job in jobs:
        out, err = io.StringIO(), io.StringIO()
        t = clock()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                status = cli.main(job["argv"])
            except SystemExit as ex:
                status = ex.code
            except Exception:  # a traceback is a failed job, not a failed round
                status = "traceback"
                err.write(traceback.format_exc())
        results.append([status, clock() - t, out.getvalue(), err.getvalue()])
    return clock() - start, results


def main():
    # Only the import of the CLI happens before "ready": that is set-up.
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    from padic_entropy import cli

    sys.stdout.write("ready\n")
    sys.stdout.flush()

    import argparse
    import json
    import resource

    from tracer import Tracer
    from workloads import build_jobs

    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        sys.exit(f"padic_entropy was imported from {cli.__file__}, not from {src}")
    ap = argparse.ArgumentParser()
    ap.add_argument("--probe", action="store_true")
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()
    if args.probe:
        return
    jobs = build_jobs(args.workload, args.seed)
    tracer = Tracer()
    if args.trace:
        tracer.install()
    wall_s, results = run_jobs(cli, jobs)
    doc = {
        "wall_s": wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "jobs": results,
    }
    if args.trace:
        doc["layers"] = tracer.layer_totals()
        doc["counters"] = tracer.counters()
    sys.stdout.write(json.dumps(doc) + "\n")


if __name__ == "__main__":
    main()
