"""Correctness checks for benchmark jobs, run outside the timed region.

Each check recomputes the answer by a route other than the one the CLI took
(or from what the input generator knows), so a wrong digit fails the job:

* quotient records (``entropy`` and ``fixcount``): the normalized value must
  equal the finite-group trace-log series ``tr_log_one_unit`` of the reduced
  element, which uses no determinant;
* ``fixcount`` on ``Z^d`` quotients: the character product must match;
* ``entropy`` on the ``Z^2`` family: the stabilized value must equal
  ``logdet_unit``;
* ``mahler``: the Newton-polygon value must equal ``logdet_unit`` in its low
  digits (the dense trace-log kernel);
* ``detlog``: every digit must match a second route: the closed form of
  ``simplex_log_measure`` for the high-precision jobs, the sparse ``Z^d``
  trace-log kernel for the low-precision ones (which the CLI runs on the
  dense kernel), and in one variable also ``mahler_1d``;
* ``unit-check``: the normal form must match the generator's construction;
* refusals: exit status and error code must be the ones the input predicts.

``check_job`` returns None for a correct job and a one-line reason otherwise.
"""

from __future__ import annotations

import json
import math
import re
from contextlib import contextmanager
from fractions import Fraction

from padic_entropy import detlog
from padic_entropy.detlog import c0_unit_normalize, logdet_unit, tr_log_one_unit
from padic_entropy.fixcount import fix_count_char_crt
from padic_entropy.groupring import HeisenbergQuotient, ZdQuotient, reduce_to_quotient
from padic_entropy.mahler import mahler_1d
from padic_entropy.padic import Padic, padic_log, series_guard
from padic_entropy.poly_io import parse_poly

# Digits of a mahler answer compared against the dense kernel; at 256 digits
# logdet_unit takes 8-60 s per job, and mahler_1d cross-checks its two
# defining expressions itself.  p^(8 + guard) stays below 2^31 for every prime
# the workloads use, so the dense kernel is the one run.
LOW_DIGITS = 8


@contextmanager
def _sparse_kernel_only():
    saved = detlog._DENSE_CELL_CAP
    detlog._DENSE_CELL_CAP = -1
    try:
        yield
    finally:
        detlog._DENSE_CELL_CAP = saved


def _quotient(q, d: int):
    kind, n = q
    return HeisenbergQuotient(n) if kind == "heis" else ZdQuotient((n,) * d)


def expected_normalized(f, p: int, prec: int, q) -> Padic:
    """(1/|G|) log_p |det rho(f)| by the finite-group trace-log series.

    On Z^d quotients f = c * t^nu * (1 + p*g) factors in the group ring, the
    monomial has determinant +-1, so the value is log c plus the series on the
    1-unit.  Heisenberg reduction is not multiplicative on Laurent data, so
    there f itself must be a 1-unit.
    """
    if isinstance(q, HeisenbergQuotient):
        return tr_log_one_unit(reduce_to_quotient(f, q), p, prec)
    w, _ = series_guard(p, prec)
    dec = c0_unit_normalize(f, p, w)
    return padic_log(Padic.from_fraction(dec.c, p, w)) + tr_log_one_unit(
        reduce_to_quotient(dec.one_unit, q), p, prec
    )


def simplex_log_measure(f, p: int, prec: int) -> Padic:
    """log m_p(f) for f = 1 + c_1 t_1 + ... + c_d t_d + c_0 (t_1 ... t_d)^-1, p | c_i.

    The constant term of (f - 1)^k is 0 unless k = (d+1)m, and then it is the
    multinomial k! / (m!)^(d+1) times P^m with P = c_0 c_1 ... c_d.  So the
    constant term of log f is the sum over m of (-1)^(k+1) k!/(m!)^(d+1) P^m / k.
    v_p(P^m / k) >= (d+1)m - log_p(k) >= prec once m >= prec, so the terms up to
    m = prec give every digit below p^prec.  No convolution is done.
    """
    d = f.d
    simplex = {tuple(int(i == a) for i in range(d)) for a in range(d)} | {(-1,) * d, (0,) * d}
    if set(f.terms) != simplex or f.terms[(0,) * d] != 1:
        raise ValueError(f"{f.terms} is not 1 plus a multiple of the simplex monomials")
    P = math.prod(c for e, c in f.terms.items() if any(e))
    if Fraction(P).denominator != 1 or P % p**(d + 1):
        raise ValueError("the simplex coefficients must be integers divisible by p")
    total = Fraction(0)
    for m in range(1, prec + 1):
        k = (d + 1) * m
        term = Fraction(math.factorial(k) // math.factorial(m) ** (d + 1) * P**m, k)
        total += term if k % 2 else -term
    return Padic.from_fraction(total, p, prec)


def _agree(got: Padic, want: Padic, k: int, what: str) -> str | None:
    return None if got.eq_mod(want, k) else f"{what}: got {got}, expected {want} mod p^{k}"


def _error_code(stdout: str, stderr: str) -> str | None:
    for text in (stdout, stderr):
        m = re.search(r'"code": "([A-Z0-9_]+)"|error\[([A-Z0-9_]+)\]', text)
        if m:
            return m.group(1) or m.group(2)
    return None


def _check_records(records, e: dict, f) -> str | None:
    d = f.d
    want_labels = [_quotient(q, d).label() for q in e["quotients"]]
    got_labels = [r["label"] for r in records]
    if got_labels != want_labels:
        return f"quotients {got_labels} != {want_labels}"
    for rec, q in zip(records, e["quotients"]):
        got = Padic.from_json(rec["normalized"])
        want = expected_normalized(f, e["p"], e["prec"], _quotient(q, d))
        bad = _agree(got, want, e["prec"], f"{rec['label']} normalized")
        if bad:
            return bad
    return None


def _check_entropy(doc: dict, e: dict) -> str | None:
    f = parse_poly(e["poly"])
    rep = doc["report"]
    bad = _check_records(rep["records"], e, f)
    if bad or not e["converged_to_logdet"]:
        return bad
    if rep["verdict"] != "converged":
        return f"verdict {rep['verdict']!r}, expected converged"
    stable = Padic.from_json(rep["stabilized_value"])
    return _agree(stable, logdet_unit(f, e["p"], e["prec"]), rep["stable_digits"],
                  "stabilized value vs logdet_unit")


def _check_fixcount(doc: dict, e: dict) -> str | None:
    f = parse_poly(e["poly"])
    bad = _check_records([doc["record"]], dict(e, quotients=[e["quotient"]]), f)
    if bad or e["quotient"][0] == "heis":
        return bad
    if doc.get("crosscheck_ok") is not True:
        return "crosscheck_ok is not true"
    if abs(int(doc["character_product"])) != int(doc["record"]["fix_count"]):
        return "character product does not match |Fix|"
    return None


def _check_mahler(doc: dict, e: dict) -> str | None:
    got = Padic.from_json(doc["value"])
    k = min(e["prec"], LOW_DIGITS)
    return _agree(got, logdet_unit(parse_poly(e["poly"]), e["p"], k), k,
                  "mahler vs logdet_unit")


def _check_detlog(doc: dict, e: dict) -> str | None:
    got = Padic.from_json(doc["value"])
    f = parse_poly(e["poly"])
    p, prec = e["p"], e["prec"]
    if e.get("simplex"):
        want, what = simplex_log_measure(f, p, prec), "detlog vs the closed form"
    else:
        with _sparse_kernel_only():
            want = logdet_unit(f, p, prec)
        what = "detlog vs the sparse kernel"
    bad = _agree(got, want, prec, what)
    if bad or f.d != 1:
        return bad
    return _agree(got, mahler_1d(f, p, prec), prec, "detlog vs mahler_1d")


def _check_unit_check(doc: dict, e: dict) -> str | None:
    got = (doc.get("unit"), doc.get("p_power"), doc.get("monomial_exponent"), doc.get("leading_unit"))
    want = (True, e["p_power"], e["nu"], str(e["leading"]))
    return None if got == want else f"normal form {got} != {want}"


def _line_value(stdout: str, prefix: str) -> str | None:
    for line in stdout.splitlines():
        if line.startswith(prefix):
            return line[len(prefix):].strip()
    return None


def _check_readme(index: int, status: int, stdout: str, stderr: str) -> str | None:
    if index == 1:  # unit-check of 2t^2-t+2 at p = 3 is refused
        code = _error_code(stdout, stderr)
        return None if (status, code) == (2, "NOT_C0_UNIT") else f"status {status}, code {code}"
    if status != 0:
        return f"exit status {status}"
    if index == 0:
        f = parse_poly("2*t^2-t+2")
        lines = stdout.strip().splitlines()
        if lines[0] != "quotient,index,fix_count,v_p,normalized":
            return "bad csv header"
        ns = list(range(1, 26, 2))
        if len(lines) != len(ns) + 1:
            return "wrong number of csv rows"
        for n, line in zip(ns, lines[1:]):
            label, _, count, _, normalized = line.split(",")
            if abs(fix_count_char_crt(f, (n,))) != int(count):
                return f"{label}: |Fix| disagrees with the character product"
            if normalized != str(expected_normalized(f, 2, 8, ZdQuotient((n,)))):
                return f"{label}: normalized value {normalized}"
        return None
    if index == 2:
        want = str(logdet_unit(parse_poly("t-4"), 2, 8))
        got = _line_value(stdout, "p-adic mahler measure:")
        return None if got == want else f"mahler {got} != {want}"
    if index == 3:
        f = parse_poly("2*t^2-t+2")
        got = _line_value(stdout, "  normalized log =")
        want = str(expected_normalized(f, 2, 6, ZdQuotient((3,))))
        count = _line_value(stdout, "quotient Z/3: |Fix| =")
        if got != want or count is None or int(count) != abs(fix_count_char_crt(f, (3,))):
            return f"fixcount {count} {got}, expected {want}"
        return None
    if index == 4:  # det [[1+3t, 3], [0, 1]] = 1 + 3t: compare with the Newton route
        want = str(mahler_1d(parse_poly("1+3*t"), 3, 6))
        got = _line_value(stdout, "log-determinant (det of matrix, then scalar unit route):")
        return None if got == want else f"detlog {got} != {want}"
    last = stdout.strip().splitlines()[-1]
    return None if last == "selftest (seed 0): PASS" else f"selftest said {last!r}"


_CHECKS = {
    "entropy": _check_entropy,
    "fixcount": _check_fixcount,
    "mahler": _check_mahler,
    "detlog": _check_detlog,
    "unit_check": _check_unit_check,
}


def check_job(job: dict, status, stdout: str, stderr: str) -> str | None:
    """None if the job's result is right, else why it is not."""
    e = job["expect"]
    if status == "traceback":
        return "raised: " + stderr.strip().splitlines()[-1] if stderr.strip() else "raised"
    if e["kind"] == "readme":
        return _check_readme(e["index"], status, stdout, stderr)
    if e["kind"] == "refusal":
        code = _error_code(stdout, stderr)
        if (status, code) != (e["status"], e["code"]):
            return f"status {status} code {code}, expected {e['status']} {e['code']}"
        return None
    if status != 0:
        return f"exit status {status}: {(stdout + stderr).strip()[:120]}"
    try:
        doc = json.loads(stdout)
    except json.JSONDecodeError:
        return "output is not JSON"
    return _CHECKS[e["kind"]](doc, e)
