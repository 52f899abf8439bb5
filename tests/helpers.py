"""Shared test helpers: independent oracles and random generators.

The oracles here deliberately avoid the library's own code paths: the
resultant oracle expands a Sylvester matrix and eliminates over exact
rationals, the series oracles sum exact Fractions, and the square-root
oracle gives the outside root (1 + sqrt(-15))/4 of 2T^2 - T + 2 without the
slope split that the Mahler route runs, and the determinant oracle sums the
signed permutation expansion instead of the library's column-subset minors.
"""

import contextlib
import hashlib
import io
import itertools
import math
import os
from fractions import Fraction
from unittest import mock

from padic_entropy import LaurentPoly, Padic, RingMatrix
from padic_entropy.cli import main


def vp(x, p: int) -> int:
    x = Fraction(x)
    if x == 0:
        raise ValueError("valuation of zero")
    v = 0
    n, d = x.numerator, x.denominator
    while n % p == 0:
        n //= p
        v += 1
    while d % p == 0:
        d //= p
        v -= 1
    return v


def reduce_fraction_mod(x, p: int, k: int) -> int:
    """x mod p^k for a p-integral rational x."""
    x = Fraction(x)
    mod = p**k
    assert x.denominator % p != 0
    return x.numerator * pow(x.denominator, -1, mod) % mod


def simplex_log_oracle(coeffs, p: int, prec: int) -> int:
    """Constant term of log f mod p^prec, f = 1 + c_1 t_1 + ... + c_d t_d + c_0 (t_1...t_d)^-1.

    ``coeffs`` is (c_0, c_1, ..., c_d), each divisible by p.  A monomial of
    (f - 1)^k is constant only when each of the d + 1 terms is taken the same
    number m of times, so const (f - 1)^k is 0 unless k = (d+1)m, and then
    it is the multinomial k!/(m!)^(d+1) times (c_0 c_1 ... c_d)^m.  That term
    of the log series has valuation at least (d+1)m - log_p k >= prec once
    m > prec, so m = 1..prec gives every digit below p^prec.
    """
    n = len(coeffs)
    prod = math.prod(coeffs)
    total = Fraction(0)
    for m in range(1, prec + 1):
        k = n * m
        multinomial = math.factorial(k) // math.factorial(m) ** n
        total += Fraction((-1) ** (k + 1) * multinomial * prod**m, k)
    return reduce_fraction_mod(total, p, prec)


def padic_sqrt(a: Padic) -> Padic:
    """Hensel square root of a nonzero square a; ValueError on a non-square.

    p odd: the root congruent to the smaller of the two mod-p square roots,
    lifted by Newton steps to a's precision.  p = 2: the root that is 1 mod 4,
    one digit short (the square determines the root only one level down).
    """
    p, prec, u = a.p, a.prec, a.u
    if a.is_zero or a.v % 2:
        raise ValueError(f"not a square: {a}")
    if p == 2:
        if prec < 3 or u % 8 != 1:
            raise ValueError(f"not a square in Z_2: {a}")
        r = 1
        for m in range(3, prec):
            if (r * r - u) % (1 << (m + 1)):
                r += 1 << (m - 1)
        return Padic._nonzero(2, a.v // 2, r % (1 << (prec - 1)), prec - 1)
    roots = [r for r in range(1, p) if (r * r - u) % p == 0]
    if not roots:
        raise ValueError(f"{u % p} is not a square mod {p}")
    r, k = roots[0], 1
    while k < prec:
        k = min(2 * k, prec)
        mod = p**k
        r = (r + u * pow(r, -1, mod)) * pow(2, -1, mod) % mod
    return Padic._nonzero(p, a.v // 2, r, prec)


def sylvester_resultant(a: list, b: list) -> Fraction:
    """Res(a, b) via the Sylvester matrix and exact rational elimination.

    a, b ascending-coefficient lists with nonzero leading terms.
    """
    m, n = len(a) - 1, len(b) - 1
    size = m + n
    rows = []
    ar, br = list(reversed(a)), list(reversed(b))
    for i in range(n):
        rows.append([Fraction(0)] * i + [Fraction(c) for c in ar] + [Fraction(0)] * (n - 1 - i))
    for i in range(m):
        rows.append([Fraction(0)] * i + [Fraction(c) for c in br] + [Fraction(0)] * (m - 1 - i))
    det = Fraction(1)
    for col in range(size):
        piv = None
        for r in range(col, size):
            if rows[r][col] != 0:
                piv = r
                break
        if piv is None:
            return Fraction(0)
        if piv != col:
            rows[col], rows[piv] = rows[piv], rows[col]
            det = -det
        det *= rows[col][col]
        inv = 1 / rows[col][col]
        for r in range(col + 1, size):
            f = rows[r][col] * inv
            if f:
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[col])]
    return det


def log_series_fraction(x: Fraction, nterms: int) -> Fraction:
    """Truncated log(1 + x) = sum (-1)^(nu+1) x^nu / nu over exact rationals."""
    acc = Fraction(0)
    power = Fraction(1)
    for nu in range(1, nterms + 1):
        power *= x
        acc += (-1) ** (nu + 1) * power / nu
    return acc


def support_diameter(f: LaurentPoly) -> int:
    """Max L1 distance between two support exponents of f (0 if <= 1 term)."""
    sup = list(f.terms)
    best = 0
    for i, a in enumerate(sup):
        for b in sup[i + 1 :]:
            best = max(best, sum(abs(x - y) for x, y in zip(a, b)))
    return best


def det_by_permutations(F: RingMatrix) -> LaurentPoly:
    """det F over the commutative Laurent algebra by the signed permutation expansion."""
    r = F.r
    acc = LaurentPoly(F.entries[0][0].d, {})
    for perm in itertools.permutations(range(r)):
        if any(F.entries[i][perm[i]].is_zero() for i in range(r)):
            continue
        inversions = sum(perm[i] > perm[j] for i in range(r) for j in range(i + 1, r))
        term = F.entries[0][perm[0]]
        for i in range(1, r):
            term = term * F.entries[i][perm[i]]
        acc = acc - term if inversions % 2 else acc + term
    return acc


def random_laurent(rng, d: int, span: int = 2, cmax: int = 5, terms: int = 4) -> LaurentPoly:
    data = {}
    for _ in range(rng.randint(1, terms)):
        e = tuple(rng.randint(-span, span) for _ in range(d))
        data[e] = rng.randint(-cmax, cmax)
    f = LaurentPoly(d, data)
    return f if not f.is_zero() else LaurentPoly.one(d)


def random_one_unit(rng, d: int, p: int, span: int = 1, cmax: int = 2, terms: int = 2) -> LaurentPoly:
    return LaurentPoly.one(d) + p * random_laurent(rng, d, span, cmax, terms)


def random_one_unit_matrix(rng, r: int, d: int, p: int, span: int = 1, cmax: int = 2):
    one, zero = LaurentPoly.one(d), LaurentPoly(d, {})
    ident = RingMatrix([[one if i == j else zero for j in range(r)] for i in range(r)])
    g = RingMatrix(
        [[random_laurent(rng, d, span, cmax, terms=2) for _ in range(r)] for _ in range(r)]
    )
    return ident + p * g


def random_fg_one_unit(rng, group, p: int, cmax: int = 2):
    from padic_entropy import FiniteGroupRingElem

    g = FiniteGroupRingElem(group, [rng.randint(-cmax, cmax) for _ in range(group.index)])
    return FiniteGroupRingElem.one(group) + p * g


def random_fg_one_unit_matrix(rng, group, r: int, p: int, cmax: int = 2):
    from padic_entropy import FiniteGroupRingElem

    one = FiniteGroupRingElem.one(group)
    zero = FiniteGroupRingElem.zero(group)
    ident = RingMatrix([[one if i == j else zero for j in range(r)] for i in range(r)])
    g = RingMatrix(
        [
            [
                FiniteGroupRingElem(group, [rng.randint(-cmax, cmax) for _ in range(group.index)])
                for _ in range(r)
            ]
            for _ in range(r)
        ]
    )
    return ident + p * g


def random_expansive_scalar(rng, p: int, span: int = 2) -> LaurentPoly:
    """c * t^k * (1 + p g), re-expanded to integer coefficients."""
    t_k = LaurentPoly.monomial((rng.randint(-span, span),))
    c = rng.choice([c for c in (-3, -2, -1, 1, 2, 3, 5) if c % p != 0])
    return c * t_k * random_one_unit(rng, 1, p, span=span, cmax=2, terms=3)


def random_expansive_matrix(rng, p: int):
    """2x2 matrix over Z[t^{+-1}] invertible on the p-adic circle:
    (elementary) * diag(+-t^a, +-t^b) * (elementary) * (1 + p G)."""
    one, zero = LaurentPoly.one(1), LaurentPoly(1, {})

    def elem():
        c = LaurentPoly.monomial((rng.randint(-1, 1),), rng.randint(-2, 2))
        if rng.random() < 0.5:
            return RingMatrix([[one, c], [zero, one]])
        return RingMatrix([[one, zero], [c, one]])

    diag = RingMatrix(
        [
            [LaurentPoly.monomial((rng.randint(-1, 1),), rng.choice([1, -1])), zero],
            [zero, LaurentPoly.monomial((rng.randint(-1, 1),), rng.choice([1, -1]))],
        ]
    )
    return elem() * diag * elem() * random_one_unit_matrix(rng, 2, 1, p, span=1, cmax=1)


def cli_output_digest(argv: list) -> dict:
    """argv, exit status and the SHA-256 of stdout and of stderr of cli.main(argv).

    argparse wraps help to the terminal width, so argv runs with COLUMNS=80;
    help ends in SystemExit, whose code is the exit status.
    """
    out, err = io.StringIO(), io.StringIO()
    with (
        mock.patch.dict(os.environ, {"COLUMNS": "80"}),
        contextlib.redirect_stdout(out),
        contextlib.redirect_stderr(err),
    ):
        try:
            status = main(list(argv))
        except SystemExit as ex:
            status = ex.code
    return {
        "argv": list(argv),
        "status": status,
        "stdout_sha256": hashlib.sha256(out.getvalue().encode()).hexdigest(),
        "stderr_sha256": hashlib.sha256(err.getvalue().encode()).hexdigest(),
    }
