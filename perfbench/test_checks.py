"""Tests of the benchmark's checker: right answers pass, corrupted ones fail.

    python3 -m pytest perfbench/test_checks.py
"""

import contextlib
import copy
import io
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import pytest  # noqa: E402

from checks import check_job  # noqa: E402
from padic_entropy import cli  # noqa: E402
from workloads import build_jobs  # noqa: E402


def _run(job):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = cli.main(job["argv"])
    return status, out.getvalue(), err.getvalue()


def _corrupt_padic(value: dict) -> dict:
    """A p-adic value that differs from `value` below its stated precision."""
    if value.get("zero"):
        return {"p": value["p"], "valuation": 0, "unit": "1", "precision": 1}
    return dict(value, valuation=value["valuation"] - 1)


def _corrupt_high_digit(value: dict) -> dict:
    """A p-adic value that differs from `value` only in its highest digit."""
    p, rel = value["p"], value["precision"]
    return dict(value, unit=str((int(value["unit"]) + p ** (rel - 1)) % p**rel))


def _corrupt(what: str, status, stdout: str):
    if what == "readme":
        return status, stdout.replace("|Fix| = ", "|Fix| = 1")
    if what == "refusal":
        return status, stdout.replace('"code": "', '"code": "X')
    doc = json.loads(stdout)
    if what == "entropy":
        rec = doc["report"]["records"][-1]
        rec["normalized"] = _corrupt_padic(rec["normalized"])
    elif what == "stabilized":
        rep = doc["report"]
        rep["stabilized_value"] = _corrupt_high_digit(rep["stabilized_value"])
    elif what == "fixcount":
        doc["record"]["normalized"] = _corrupt_padic(doc["record"]["normalized"])
    elif what in ("mahler", "detlog"):
        doc["value"] = _corrupt_padic(doc["value"])
    elif what == "high_digit":
        doc["value"] = _corrupt_high_digit(doc["value"])
    elif what == "unit_check":
        doc["p_power"] += 1
    return status, json.dumps(doc)


SMALL = build_jobs("small_jobs", 0)


def _first(kind, pred=lambda job: True):
    job = next(j for j in SMALL if j["expect"]["kind"] == kind and pred(j))
    return job, kind


def _shortened(workload: str, old: str, new: str, what: str, **expect):
    """The first job of the workload that has argument `old`, with `old`
    replaced by `new` so the test is fast."""
    job = copy.deepcopy(next(j for j in build_jobs(workload, 0) if old in j["argv"]))
    job["argv"][job["argv"].index(old)] = new
    job["expect"].update(expect)
    return job, what


CASES = [
    _first("entropy"),
    _first("fixcount", lambda j: j["expect"]["quotient"][0] == "zd"),
    _first("fixcount", lambda j: j["expect"]["quotient"][0] == "heis"),
    _first("mahler"),
    _first("detlog"),
    _first("unit_check"),
    _first("refusal"),
    _first("readme", lambda j: j["expect"]["index"] == 3),
    # The checker compares every record of a family.
    _shortened("heis_family", "heis:2..8", "heis:2..3", "entropy",
               quotients=[("heis", 2), ("heis", 3)]),
    # 1..10 already converges; the stabilized value must equal logdet_unit.
    _shortened("zd2_family", "1..20", "1..10", "stabilized",
               quotients=[("zd", n) for n in range(1, 11)]),
    # High-precision detlog answers are checked in every digit.
    _shortened("series", "96", "24", "high_digit", prec=24),
]


@pytest.mark.parametrize("job,what", CASES, ids=[f"{i}-{j['argv'][0]}-{w}" for i, (j, w) in enumerate(CASES)])
def test_checker_accepts_right_and_rejects_corrupted(job, what):
    status, out, err = _run(job)
    assert check_job(job, status, out, err) is None
    bad_status, bad_out = _corrupt(what, status, out)
    assert bad_out != out
    assert check_job(job, bad_status, bad_out, err) is not None


def test_unexpected_status_and_tracebacks_fail():
    job, _ = _first("mahler")
    status, out, err = _run(job)
    assert check_job(job, 2, out, err) is not None
    assert check_job(job, "traceback", "", "Traceback ...\nValueError: boom\n") is not None


def test_job_lists_depend_only_on_the_seed():
    assert build_jobs("series", 7) == build_jobs("series", 7)
    assert build_jobs("series", 7) != build_jobs("series", 8)
