"""Write tests/cli_replay.json, the output digests that
``tests/test_cli.py::test_replayed_jobs_keep_their_output_bytes`` replays.

The jobs are the README command lines in their default, table and json forms
(plus the README's own csv form of ``entropy``) and the jobs of the four
benchmark workloads at seed 3.  Each entry holds the argv, the exit status
and the SHA-256 of stdout and of stderr of ``cli.main``.  Run it from the
repository root at the commit whose output the replay should pin:

    PYTHONPATH=src:.:tests python3 tests/make_cli_replay.py
"""

import json
from pathlib import Path

from helpers import cli_output_digest
from perfbench.workloads import README_COMMANDS, WORKLOADS, build_jobs


def replay_argv() -> list[list[str]]:
    argvs = []
    for argv in README_COMMANDS:
        if "--output" in argv:
            at = argv.index("--output")
            if argv[at + 1] == "csv":
                argvs.append(argv)
            argv = argv[:at] + argv[at + 2 :]
        argvs += [argv, argv + ["--output", "table"], argv + ["--output", "json"]]
    for workload in WORKLOADS:
        argvs += [job["argv"] for job in build_jobs(workload, 3)]
    return argvs


if __name__ == "__main__":
    digests = [cli_output_digest(argv) for argv in replay_argv()]
    path = Path(__file__).with_name("cli_replay.json")
    lines = ",\n".join(json.dumps(digest) for digest in digests)
    path.write_text(f"[\n{lines}\n]\n", encoding="utf-8")
    print(f"{len(digests)} jobs written to {path}")
