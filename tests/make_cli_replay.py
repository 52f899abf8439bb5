"""Write tests/cli_replay.json, the output digests that
``tests/test_cli.py::test_replayed_jobs_keep_their_output_bytes`` replays.

The jobs are the README command lines in their default, table and json forms
(plus the README's own csv form of ``entropy``), the jobs of the four
benchmark workloads at seed 3, and a few jobs on the edges of the series
kernels and the Hensel lift, two trace logs the series cap refuses, the
selftest battery at a few seeds, Heisenberg
counts up to heis:16, a count on Z/243 at p = 3 (an index p divides),
CLI paths no other job reaches (among them detlog
on 7x7 to 9x9 matrices), integers of more than 4300 digits, refusals made
before the run, argv whose first
token is not the command or with tokens left over after it, and help
(``EDGE_ARGV``).  Each entry holds the
argv, the exit status and the SHA-256 of stdout and of stderr of
``cli.main``.  Run it from the repository root at the commit whose output
the replay should pin:

    PYTHONPATH=src:.:tests python3 tests/make_cli_replay.py
"""

import json
from pathlib import Path

from helpers import cli_output_digest
from perfbench.workloads import README_COMMANDS, WORKLOADS, build_jobs


# p = 2 trace logs and a matrix at moderate precision; Mahler measures at
# 256 digits with no inside root (s = 0), with only inside roots (s = deg)
# and of degree 200; and the selftest battery, the CLI's only path through
# finite group-ring products and logdet_finite, at three more seeds.
_DEGREE_200 = "+".join(f"{3 if i == 90 else 2 * (i % 5 + 1)}*t^{i}" for i in range(201))


def _banded(r: int) -> str:
    """An r x r 1-unit: 1+3*x on the diagonal, 3*y off it where i + j is odd, else 3*x^-1."""
    rows = (
        ",".join("1+3*x" if i == j else "3*y" if (i + j) % 2 else "3*x^-1" for j in range(r))
        for i in range(r)
    )
    return "--poly=[[" + "],[".join(rows) + "]]"


EDGE_ARGV = [
    ["detlog", "--p", "2", "--prec", "32", "--poly=1+2*x+2*y+2*x^-1*y^-1"],
    ["detlog", "--p", "2", "--prec", "48", "--poly=1+2*x-2*y+4*x^-1*y^-1"],
    ["detlog", "--p", "3", "--prec", "24", "--poly=[[1+3*x,3*y],[3*x^-1,1+3*y^-1]]"],
    ["mahler", "--p", "3", "--prec", "256", "--poly=1+3*t-6*t^2+3*t^5-12*t^9+6*t^14"],
    ["mahler", "--p", "5", "--prec", "256", "--poly=5-10*t+15*t^3+5*t^7-2*t^12"],
    ["mahler", "--p", "2", "--prec", "256", f"--poly={_DEGREE_200}"],
    # High-precision trace logs on both sides of the route choice: the
    # lattice points of the relation cone (k - rank = 2 in d = 2, exponents
    # of rank 1, p = 2 simplices in d = 2 and 3, and the determinants of
    # 2 x 2 matrices) and the paired kernel (1+2*x+2*x^-1, whose cap + 2
    # lattice candidates cost more than its 2 cap + 1 cells).
    ["detlog", "--p", "3", "--prec", "64", "--poly=1+3*x+3*y+3*x^-1+3*y^-1"],
    ["detlog", "--p", "2", "--prec", "64", "--poly=1+2*x+2*x^-1"],
    ["detlog", "--p", "3", "--prec", "128", "--poly=1+3*x*y+3*x^-2*y^-2"],
    ["detlog", "--p", "3", "--prec", "200", "--poly=[[1+3*x,3*y],[3*x^-1,1+3*y^-1]]"],
    ["detlog", "--p", "2", "--prec", "64", "--poly=1+2*x+2*y+2*x^-1*y^-1"],
    ["detlog", "--p", "2", "--prec", "256", "--poly=1+2*x+2*y+2*x^-1*y^-1"],
    ["detlog", "--p", "2", "--prec", "64", "--poly=[[1+2*x,2*y],[2*x^-1,1+2*y^-1]]"],
    ["detlog", "--p", "2", "--prec", "32", "--poly=1+2*x+2*y+2*z+2*x^-1*y^-1*z^-1"],
    # SERIES_WORK_CAP refuses before any power is built, and the message
    # carries the estimate, hence the series cutoff: the lattice route's
    # candidates for the d = 3 cross, and the paired kernel's box once x*y*z
    # joins it
    ["detlog", "--p", "3", "--prec", "256", "--poly=1+3*x+3*y+3*z+3*x^-1+3*y^-1+3*z^-1"],
    ["detlog", "--p", "3", "--prec", "256", "--poly=1+3*x+3*y+3*z+3*x^-1+3*y^-1+3*z^-1+3*x*y*z"],
    ["selftest", "--seed", "1"],
    ["selftest", "--seed", "7"],
    ["selftest", "--seed", "42"],
    # Heisenberg counts past the benchmark's heis:2..8: cyclic tridiagonal
    # Clifford blocks up to size 16, and a unit whose x^2 word widens the band
    ["fixcount", "--p", "3", "--prec", "6", "--poly=1+3*x+3*y+3*x^-1*y^-1", "--quotient", "heis:16"],
    ["entropy", "--p", "3", "--prec", "6", "--poly=1+3*x+3*y+3*x^-1*y^-1", "--family", "heis:9..16",
     "--output", "json"],
    ["fixcount", "--p", "3", "--prec", "6", "--poly=1+3*x^2+3*y+3*x^-1*y^-1", "--quotient", "heis:7"],
    # an index that p divides: dividing the unit log by the exact index 3^5
    # keeps all 8 proven digits
    ["fixcount", "--p", "3", "--prec", "8", "--poly=2*t^2-t+2", "--quotient", "243"],
    # Paths no other job reaches: the default family, family and quotient
    # strings that do not parse or do not fit, a matrix where unit-check
    # takes a scalar, a Mahler measure in two variables, the variable t0,
    # an integer written before its monomial, unequal matrix rows, and
    # matrix determinants of size 7 and 8 and the r > 8 refusal
    ["entropy", "--p", "3", "--poly=1+3*x"],
    ["entropy", "--p", "3", "--poly=1+3*x", "--family", "1..x"],
    ["entropy", "--p", "3", "--poly=1+3*x", "--family", "1,a"],
    ["fixcount", "--p", "3", "--poly=1+3*x", "--quotient", "3,5"],
    ["unit-check", "--p", "3", "--poly=[[1+3*x]]"],
    ["mahler", "--p", "3", "--poly=1+3*x*y"],
    ["mahler", "--p", "3", "--poly=1+3*t0"],
    ["mahler", "--p", "3", "--poly=1+3t"],
    ["detlog", "--p", "3", "--poly=[[1+3*x,3],[0]]"],
    *(["detlog", "--p", "3", _banded(r)] for r in (7, 8, 9)),
    # Refusals made before the run print error[CODE] on stderr under every
    # --output, in this order: both --poly and --poly-file, an unreadable
    # file, precision, prime, tail and target.  A refusal made during the
    # run (no --poly) is a json document on stdout.
    ["unit-check", "--p", "3", "--prec", "0", "--poly=1+3*x", "--output", "json"],
    ["detlog", "--p", "3", "--prec", "257", "--poly=1+3*x", "--output", "json"],
    ["fixcount", "--p", "4", "--poly=1+3*x", "--quotient", "3", "--output", "json"],
    ["entropy", "--p", "2", "--poly=2*t^2-t+2", "--family", "1,3,5", "--tail", "1", "--output", "json"],
    ["entropy", "--p", "3", "--poly=1+3*x", "--family", "1..3", "--target", "0", "--output", "json"],
    ["mahler", "--p", "2", "--poly=t-4", "--poly-file=/nonexistent", "--output", "json"],
    ["detlog", "--p", "3", "--poly-file=/nonexistent", "--output", "json"],
    ["mahler", "--p", "4", "--prec", "0", "--poly-file=/nonexistent", "--output", "json"],
    ["mahler", "--p", "4", "--prec", "0", "--poly=t-4", "--output", "json"],
    ["unit-check", "--p", "3", "--output", "json"],
    # the polynomial grammar reads ASCII digits only
    ["mahler", "--p", "3", "--poly=1+3*t²"],
    ["mahler", "--p", "3", "--poly=١+3*t"],
    # Integers past the interpreter's 4300-digit limit on int <-> str: a
    # count of 20480 digits in json, counts of 4328 and 4332 digits in csv,
    # a p-adic unit of about 4600 digits, and literals of 4400 digits, which
    # are refused
    ["fixcount", "--p", "3", "--poly=1+99999*x+3*y", "--quotient", "64,64", "--no-crosscheck",
     "--output", "json"],
    ["entropy", "--p", "7919", "--poly=1+7919*t", "--family", "1110,1111", "--output", "csv"],
    ["detlog", "--p", "1000000000000000003", "--prec", "256", "--poly=2+1000000000000000003*t"],
    ["mahler", "--p", "3", f"--poly=1+{'3' * 4400}*t"],
    ["mahler", "--p", "3", f"--poly=t^{'1' * 4400}"],
    # cli.main parses an argv whose first token names a command with that
    # command's parser alone, and any other argv with the parser of all six:
    # tokens before the command, an unknown command or none at all are
    # refused by the full top-level parser; a command name as the value of
    # --poly, or after the options, is not the command; and a command-first
    # argv reaches the one-command top level only with tokens its subparser
    # leaves over.
    [],
    ["nosuch", "--p", "3"],
    ["--", "mahler", "--p", "2", "--poly=t-4"],
    ["--poly=t-4", "mahler", "--p", "2"],
    ["--output", "json", "mahler", "--p", "2", "--poly=t-4"],
    ["--poly", "mahler", "fixcount", "--p", "3"],
    ["fixcount", "--p", "3", "--poly", "mahler", "--quotient", "3", "--output", "json"],
    ["mahler", "--p", "2", "--poly=t-4", "detlog"],
    ["mahler", "--p", "2", "--poly=t-4", "--bogus"],
    ["mahler", "mahler", "--p", "2", "--poly=t-4"],
    # help, top level and per command, wrapped at the COLUMNS=80 that
    # helpers.cli_output_digest sets
    ["-h"],
    *(
        [command, "-h"]
        for command in ("unit-check", "fixcount", "entropy", "mahler", "detlog", "selftest")
    ),
]


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
    return argvs + EDGE_ARGV


if __name__ == "__main__":
    digests = [cli_output_digest(argv) for argv in replay_argv()]
    path = Path(__file__).with_name("cli_replay.json")
    lines = ",\n".join(json.dumps(digest) for digest in digests)
    path.write_text(f"[\n{lines}\n]\n", encoding="utf-8")
    print(f"{len(digests)} jobs written to {path}")
