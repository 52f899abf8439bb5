"""Seeded job lists for the four benchmark workloads.

A job is a dict with ``argv`` (the argument list handed to ``cli.main``) and
``expect`` (what the checker in ``checks.py`` verifies once the job has run).
Every job list depends only on the workload name and the seed.  The work per
round is kept nearly the same across seeds on purpose.  In the family
workloads the seed picks only term order and a group automorphism; in
``series`` it picks coefficients and moves the inside degree of each Mahler
polynomial by at most 2; ``small_jobs`` has fixed counts per kind and draws
each job's parameters from fixed ranges.

Generated polynomials go on the command line as ``--poly=<text>``.  A separate
``--poly <text>`` whose text starts with a minus sign is read by argparse as an
option and the job exits 2 before it reaches the program (a CLI quirk left for
a robustness change).
"""

from __future__ import annotations

import random

FAMILY_POLY = {(0, 0): 1, (1, 0): 3, (0, 1): 3, (-1, -1): 3}

# The README command lines, verbatim.
README_COMMANDS = [
    ["entropy", "--p", "2", "--prec", "8", "--poly", "2*t^2-t+2",
     "--family", "odd:1..25", "--output", "csv"],
    ["unit-check", "--p", "3", "--poly", "2*t^2-t+2"],
    ["mahler", "--p", "2", "--prec", "8", "--poly", "t-4"],
    ["fixcount", "--p", "2", "--prec", "6", "--poly", "2*t^2-t+2", "--quotient", "3"],
    ["detlog", "--p", "3", "--prec", "6", "--poly", "[[1+3*t, 3],[0, 1]]"],
    ["selftest", "--seed", "0"],
]

_VARS = {1: ("t",), 2: ("x", "y"), 3: ("x", "y", "z")}


def poly_text(terms: dict, rng: random.Random) -> str:
    """Text form of {exponent tuple: int coefficient}, terms in seeded order."""
    items = [(e, c) for e, c in terms.items() if c]
    rng.shuffle(items)
    names = _VARS[len(items[0][0])]
    out = []
    for e, c in items:
        mono = "*".join(
            n if k == 1 else f"{n}^{k}" for n, k in zip(names, e) if k
        )
        body = f"{abs(c)}*{mono}" if mono and abs(c) != 1 else (mono or str(abs(c)))
        out.append(("-" if c < 0 else "+") + body)
    text = "".join(out)
    return text[1:] if text[0] == "+" else text


def _poly_mul(f: dict, g: dict) -> dict:
    out: dict = {}
    for e1, c1 in f.items():
        for e2, c2 in g.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def _unit(rng: random.Random, p: int, bound: int = 9) -> int:
    """A nonzero integer prime to p, with a random sign."""
    while True:
        c = rng.randint(1, bound)
        if c % p:
            return c * rng.choice((1, -1))


def _exponent(rng: random.Random, d: int, span: int) -> tuple:
    return tuple(rng.randint(-span, span) for _ in range(d))


def one_unit(rng: random.Random, p: int, d: int, nterms: int, span: int = 2) -> dict:
    """1 + p*g with g an integer polynomial of about nterms terms."""
    f = {(0,) * d: 1}
    for _ in range(nterms):
        e = _exponent(rng, d, span)
        f[e] = f.get(e, 0) + p * rng.randint(-4, 4)
    if all(c == 0 for e, c in f.items() if any(e)):
        f[(1,) + (0,) * (d - 1)] = p
    return {e: c for e, c in f.items() if c}


def c0_unit(rng: random.Random, p: int, d: int, nterms: int, span: int = 2) -> tuple[dict, tuple]:
    """c * t^nu * (1 + p*g): a unit of the convolution algebra; returns (f, nu)."""
    c = _unit(rng, p, 4)
    nu = _exponent(rng, d, 1)
    return _poly_mul({nu: c}, one_unit(rng, p, d, nterms, span)), nu


def dimension(f: dict) -> int:
    """The dimension the parser infers: the last variable that occurs."""
    return max((i + 1 for e in f for i, k in enumerate(e) if k), default=1)


def non_unit(rng: random.Random, p: int, d: int) -> dict:
    """An integer polynomial whose reduction mod p has two monomials."""
    e1 = (0,) * d
    e2 = (1,) + (0,) * (d - 1)
    f = {e1: _unit(rng, p, 4), e2: _unit(rng, p, 4)}
    e3 = _exponent(rng, d, 2)
    if e3 not in f:
        f[e3] = p * rng.randint(1, 3)
    return f


def mahler_poly(rng: random.Random, p: int, deg: int, s: int) -> dict:
    """Degree-deg polynomial whose only unit coefficient sits at degree s.

    No root lies on the unit circle, so the Newton polygon has no zero slope
    and the polynomial is a unit of the convolution algebra on Z.
    """
    return {
        (i,): _unit(rng, p) if i == s else p * _unit(rng, p)
        for i in range(deg + 1)
    }


# -- automorphisms that keep every fixed-point count -------------------------


def _signed_swap(rng: random.Random) -> tuple[bool, int, int]:
    return rng.random() < 0.5, rng.choice((1, -1)), rng.choice((1, -1))


def zd2_automorphism(f: dict, rng: random.Random) -> dict:
    """Image of f under a seeded signed permutation of (x, y).

    The map preserves every diagonal subgroup nZ^2, so it permutes the group
    ring of each quotient (Z/n)^2 and leaves every fixed-point count unchanged.
    """
    swap, sx, sy = _signed_swap(rng)
    out = {}
    for (a, b), c in f.items():
        if swap:
            a, b = b, a
        out[(sx * a, sy * b)] = c
    return out


def heis_automorphism(f: dict, rng: random.Random) -> dict:
    """Image of f, read as Heisenberg words x^a y^b z^c, under a seeded
    automorphism generated by x <-> y, x -> x^-1 and y -> y^-1.

    Words correspond to matrix triples (a, b, ab + c); the automorphisms act
    on triples and commute with reduction mod n, so each quotient's fixed-point
    count is unchanged.
    """
    swap, sx, sy = _signed_swap(rng)
    out = {}
    for e, coeff in f.items():
        a, b, c = (tuple(e) + (0, 0, 0))[:3]
        m = (a, b, a * b + c)
        if swap:
            m = (m[1], m[0], m[0] * m[1] - m[2])
        if sx < 0:
            m = (-m[0], m[1], -m[2])
        if sy < 0:
            m = (m[0], -m[1], -m[2])
        word = (m[0], m[1], m[2] - m[0] * m[1])
        out[word] = out.get(word, 0) + coeff
    if all(w[2] == 0 for w in out):
        out = {w[:2]: c for w, c in out.items()}
    return out


# -- the workloads -------------------------------------------------------------


def _job(argv: list, **expect) -> dict:
    return {"argv": argv, "expect": expect}


def zd2_family(rng: random.Random) -> list[dict]:
    text = poly_text(zd2_automorphism(FAMILY_POLY, rng), rng)
    return [_job(
        ["entropy", "--p", "3", f"--poly={text}", "--family", "1..20", "--output", "json"],
        kind="entropy", p=3, prec=8, poly=text, quotients=[("zd", n) for n in range(1, 21)],
        converged_to_logdet=True,
    )]


def heis_family(rng: random.Random) -> list[dict]:
    text = poly_text(heis_automorphism(FAMILY_POLY, rng), rng)
    return [_job(
        ["entropy", "--p", "3", "--prec", "6", f"--poly={text}", "--family",
         "heis:2..8", "--output", "json"],
        kind="entropy", p=3, prec=6, poly=text, quotients=[("heis", n) for n in range(2, 9)],
        converged_to_logdet=False,
    )]


# (p, prec, support): f = 1 + p*(c_1 t_1 + ... + c_d t_d + c_0 (t_1...t_d)^-1).
# The sparse Z^d trace-log kernel runs; the checker has a closed form for f.
_DETLOG_SERIES = [
    (3, 96, [(1, 0), (0, 1), (-1, -1)]),
    (3, 36, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)]),
    (5, 64, [(1, 0), (0, 1), (-1, -1)]),
]
_SERIES_MAHLER = 24


def series(rng: random.Random) -> list[dict]:
    jobs = []
    for p, prec, support in _DETLOG_SERIES:
        d = len(support[0])
        f = {(0,) * d: 1}
        f.update({e: p * _unit(rng, p, 2) for e in support})
        text = poly_text(f, rng)
        jobs.append(_job(
            ["detlog", "--p", str(p), "--prec", str(prec), f"--poly={text}", "--output", "json"],
            kind="detlog", p=p, prec=prec, poly=text, simplex=True,
        ))
    for i in range(_SERIES_MAHLER):
        p = (2, 3, 5)[i % 3]
        deg = 10 + 30 * i // (_SERIES_MAHLER - 1)
        s = deg // 2 + rng.randint(-2, 2)
        text = poly_text(mahler_poly(rng, p, deg, s), rng)
        jobs.append(_job(
            ["mahler", "--p", str(p), "--prec", "256", f"--poly={text}", "--output", "json"],
            kind="mahler", p=p, prec=256, poly=text,
        ))
    rng.shuffle(jobs)
    return jobs


_SMALL_PRIMES = (2, 3, 5, 7)


def _refusal(rng: random.Random) -> tuple[list, int, str]:
    """(argv, exit status, error code) for an input whose refusal is known in advance."""
    p = rng.choice(_SMALL_PRIMES)
    d = rng.choice((1, 2))
    kind = rng.randrange(6)
    if kind == 0:
        text = poly_text(non_unit(rng, p, d), rng)
        return ["unit-check", "--p", str(p), f"--poly={text}", "--output", "json"], 2, "NOT_C0_UNIT"
    if kind == 1:
        text = poly_text(non_unit(rng, p, d), rng)
        return ["detlog", "--p", str(p), "--prec", "6", f"--poly={text}", "--output", "json"], 2, "NOT_C0_UNIT"
    if kind == 2:
        f = {(0,): _unit(rng, p), (rng.randint(1, 4),): _unit(rng, p)}
        text = poly_text(f, rng)
        return ["mahler", "--p", str(p), "--prec", "8", f"--poly={text}", "--output", "json"], 2, "ZERO_SLOPE_PRESENT"
    if kind == 3:
        n = rng.randint(2, 7)
        c = rng.choice((1, -1, 2))
        text = poly_text({(0,): c, (1,): -c}, rng)  # vanishes at the trivial character
        return ["fixcount", "--p", str(p), f"--poly={text}", "--quotient", str(n), "--output", "json"], 2, "INFINITE_FIXED_POINT_SET"
    if kind == 4:
        text = poly_text(one_unit(rng, p, 1, 2), rng)
        n = rng.randint(2, 9)
        return ["entropy", "--p", str(p), f"--poly={text}", "--family", str(n), "--output", "json"], 1, "TOO_FEW_RECORDS"
    text = poly_text(one_unit(rng, p, d, 2), rng)
    return ["mahler", "--p", str(p), "--prec", "8", f"--poly={text}*", "--output", "json"], 1, "SYNTAX"


_SMALL_COUNTS = {  # per kind; the README commands add six more jobs
    "unit_check": 40,
    "fixcount": 60,
    "mahler": 60,
    "detlog": 50,
    "entropy": 30,
    "refusal": 54,
}


def small_jobs(rng: random.Random) -> list[dict]:
    jobs = [_job(list(argv), kind="readme", index=i) for i, argv in enumerate(README_COMMANDS)]
    for _ in range(_SMALL_COUNTS["unit_check"]):
        p, d = rng.choice(_SMALL_PRIMES), rng.randint(1, 3)
        f, nu = c0_unit(rng, p, d, 3)
        a = rng.randint(0, 2)
        text = poly_text({e: v * p**a for e, v in f.items()}, rng)
        jobs.append(_job(
            ["unit-check", "--p", str(p), f"--poly={text}", "--output", "json"],
            kind="unit_check", p=p, p_power=a, nu=list(nu[:dimension(f)]), leading=f[nu],
        ))
    for i in range(_SMALL_COUNTS["fixcount"]):
        p = rng.choice(_SMALL_PRIMES)
        if i % 6 == 5:
            n = rng.randint(2, 3)
            text = poly_text(one_unit(rng, p, 2, 3, span=1), rng)
            quotient, q = f"heis:{n}", ("heis", n)
        else:
            d = 1 if i % 2 else 2
            n = rng.randint(2, 7 if d == 1 else 4)
            text = poly_text(c0_unit(rng, p, d, 3)[0], rng)
            quotient, q = str(n), ("zd", n)
        jobs.append(_job(
            ["fixcount", "--p", str(p), "--prec", "6", f"--poly={text}", "--quotient",
             quotient, "--output", "json"],
            kind="fixcount", p=p, prec=6, poly=text, quotient=q,
        ))
    for _ in range(_SMALL_COUNTS["mahler"]):
        p = rng.choice(_SMALL_PRIMES)
        deg = rng.randint(1, 8)
        prec = rng.randint(8, 32)
        text = poly_text(mahler_poly(rng, p, deg, rng.randint(0, deg)), rng)
        jobs.append(_job(
            ["mahler", "--p", str(p), "--prec", str(prec), f"--poly={text}", "--output", "json"],
            kind="mahler", p=p, prec=prec, poly=text,
        ))
    for i in range(_SMALL_COUNTS["detlog"]):
        # The dense kernel's cost grows with d and with p = 2 (which squares
        # first), so the mix of d and p is fixed and only coefficients vary.
        d = (1, 1, 2, 2, 3)[i % 5]
        p = _SMALL_PRIMES[i % 4] if d == 1 else _SMALL_PRIMES[1 + i % 3]
        prec = 2 + i % (5 if d == 3 else 7)
        text = poly_text(c0_unit(rng, p, d, 3, span=1 if d == 3 else 2)[0], rng)
        jobs.append(_job(
            ["detlog", "--p", str(p), "--prec", str(prec), f"--poly={text}", "--output", "json"],
            kind="detlog", p=p, prec=prec, poly=text,
        ))
    for _ in range(_SMALL_COUNTS["entropy"]):
        p = rng.choice(_SMALL_PRIMES)
        hi = rng.randint(6, 14)
        sel = rng.choice(("", "odd:", "coprime:"))
        ns = [n for n in range(1, hi + 1)
              if sel == "" or (sel == "odd:" and n % 2) or (sel == "coprime:" and n % p)]
        text = poly_text(c0_unit(rng, p, 1, 3)[0], rng)
        jobs.append(_job(
            ["entropy", "--p", str(p), "--prec", "6", f"--poly={text}", "--family",
             f"{sel}1..{hi}", "--output", "json"],
            kind="entropy", p=p, prec=6, poly=text, quotients=[("zd", n) for n in ns],
            converged_to_logdet=False,
        ))
    for _ in range(_SMALL_COUNTS["refusal"]):
        argv, status, code = _refusal(rng)
        jobs.append(_job(argv, kind="refusal", status=status, code=code))
    rng.shuffle(jobs)
    return jobs


WORKLOADS = {
    "zd2_family": zd2_family,
    "heis_family": heis_family,
    "series": series,
    "small_jobs": small_jobs,
}


def build_jobs(workload: str, seed: int) -> list[dict]:
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"))
