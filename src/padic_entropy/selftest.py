"""Seeded property battery behind the `selftest` CLI command.

Each check draws its own data from the given seed and raises AssertionError
on failure; the runner turns that into a pass/fail table.  The pytest suite
covers the same ground more thoroughly -- this battery is the quick smoke
screen shipped with the tool.  It is not free of numpy: ``det-dual-routes``
compares Bareiss with ``_det_crt``, and the trace-log checks on ``Z^d``
(``trlog-homomorphism``, ``matrix-scalar-consistency``, ``mahler-vs-trlog``)
run the dense kernel, so every run loads it.
"""

from __future__ import annotations

import random

from .detlog import (
    c0_unit_normalize,
    det_laurent_matrix,
    logdet_finite,
    logdet_unit,
    tr_log_one_unit,
)
from .entropy import entropy_sequence
from .fixcount import _det_bareiss, _det_crt, det_exact, quotient_det
from .groupring import (
    FiniteGroupRingElem,
    HeisenbergQuotient,
    LaurentPoly,
    RingMatrix,
    ZdQuotient,
    build_quotient_group,
    diagonal_family,
    reduce_to_quotient,
    rho_matrix,
    sup_norm,
)
from .mahler import mahler_1d
from .padic import Padic, padic_log
from .poly_io import parse_poly, print_poly


def _rand_padic(rng, p, prec):
    while True:
        num = rng.randint(-999, 999)
        if num:
            break
    den = rng.choice([1, 1, 1, 2, 3, 5, 7, 9])
    if den % p == 0:
        den = 1
    return Padic.from_rational(num, den, p, prec)


def _rand_poly(rng, d, span=2, cmax=4):
    terms = {}
    for _ in range(rng.randint(1, 4)):
        e = tuple(rng.randint(-span, span) for _ in range(d))
        terms[e] = rng.randint(-cmax, cmax)
    poly = LaurentPoly(d, terms)
    return poly if not poly.is_zero() else LaurentPoly.one(d)


def _rand_one_unit_poly(rng, d, p):
    return LaurentPoly.one(d) + p * _rand_poly(rng, d, span=1, cmax=2)


def check_padic_ring_laws(rng):
    for p in (2, 3, 5):
        for _ in range(20):
            a, b, c = (_rand_padic(rng, p, 10) for _ in range(3))
            assert ((a + b) + c).eq_mod(a + (b + c), 8)
            assert (a * (b + c)).eq_mod(a * b + a * c, 6)
            assert (a * a.inv()).eq_mod(Padic.one(p, 8), 8)


def check_padic_log_homomorphism(rng):
    for p in (2, 3, 5):
        for _ in range(15):
            a, b = _rand_padic(rng, p, 10), _rand_padic(rng, p, 10)
            assert padic_log(a * b).eq_mod(padic_log(a) + padic_log(b), 9)
            k = rng.randint(1, 4)
            assert padic_log(a * Padic.from_rational(p**k, 1, p, 10)).eq_mod(
                padic_log(a), 9
            )


def check_norm_axioms(rng):
    for p in (2, 3):
        for _ in range(15):
            x, y = _rand_poly(rng, 2), _rand_poly(rng, 2)
            lam = rng.choice([1, 2, 3, 4, 6, p, p * p])
            assert sup_norm(x + y, p) <= max(sup_norm(x, p), sup_norm(y, p))
            assert sup_norm(x * y, p) <= sup_norm(x, p) * sup_norm(y, p)
            assert sup_norm(lam * x, p) == sup_norm(
                LaurentPoly.constant(lam, 2), p
            ) * sup_norm(x, p)
    assert sup_norm(LaurentPoly.one(2), 3) == 1
    assert sup_norm(LaurentPoly(2, {}), 3) == 0


def check_reduction_homomorphism(rng):
    q = ZdQuotient((3, 4))
    for _ in range(10):
        f, g = _rand_poly(rng, 2), _rand_poly(rng, 2)
        assert reduce_to_quotient(f * g, q) == reduce_to_quotient(
            f, q
        ) * reduce_to_quotient(g, q)


def check_rho_multiplicative(rng):
    grp = build_quotient_group(HeisenbergQuotient(2))
    for _ in range(8):
        a = FiniteGroupRingElem(grp, [rng.randint(-3, 3) for _ in range(grp.index)])
        b = FiniteGroupRingElem(grp, [rng.randint(-3, 3) for _ in range(grp.index)])
        ma, mb, mab = rho_matrix(a), rho_matrix(b), rho_matrix(a * b)
        n = grp.index
        for i in range(n):
            for j in range(n):
                assert mab[i][j] == sum(ma[i][k] * mb[k][j] for k in range(n))
        assert a.constant_coefficient() * grp.index == sum(ma[i][i] for i in range(n))


def check_det_routes(rng):
    for n in (2, 5, 9, 12):
        m = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        assert _det_bareiss(m) == _det_crt(m)


def check_char_crt(rng):
    """Character and Clifford blocks against the dense regular representation."""
    for _ in range(6):
        f = _rand_poly(rng, 1, span=2, cmax=5)
        n = rng.randint(1, 6)
        q = ZdQuotient((n,))
        assert quotient_det(f, q) == det_exact(rho_matrix(reduce_to_quotient(f, q)))
    for n in (2, 3):
        f = _rand_poly(rng, 3, span=2, cmax=5)
        q = HeisenbergQuotient(n)
        assert quotient_det(f, q) == det_exact(rho_matrix(reduce_to_quotient(f, q)))


def check_trlog_homomorphism(rng):
    for p in (2, 3):
        for _ in range(4):
            a = _rand_one_unit_poly(rng, 2, p)
            b = _rand_one_unit_poly(rng, 2, p)
            lhs = tr_log_one_unit(a * b, p, 5)
            rhs = tr_log_one_unit(a, p, 5) + tr_log_one_unit(b, p, 5)
            assert lhs.eq_mod(rhs, 5)


def check_finite_formula(rng):
    grp = build_quotient_group(HeisenbergQuotient(2))
    for p in (2, 3, 5):
        for _ in range(4):
            f = FiniteGroupRingElem.one(grp) + p * FiniteGroupRingElem(
                grp, [rng.randint(-2, 2) for _ in range(grp.index)]
            )
            assert tr_log_one_unit(f, p, 5).eq_mod(logdet_finite(f, p, 5), 5)


def check_matrix_scalar(rng):
    p = 3
    for _ in range(4):
        g11, g12, g21, g22 = (_rand_poly(rng, 1, span=1, cmax=2) for _ in range(4))
        one, zero = LaurentPoly.one(1), LaurentPoly(1, {})
        F = RingMatrix([[one, zero], [zero, one]]) + p * RingMatrix(
            [[g11, g12], [g21, g22]]
        )
        lhs = tr_log_one_unit(F, p, 5)
        rhs = tr_log_one_unit(det_laurent_matrix(F), p, 5)
        assert lhs.eq_mod(rhs, 5)


def check_mahler_route(rng):
    for p in (2, 3):
        for _ in range(4):
            f = rng.choice([1, -1, 3 if p == 2 else 2]) * _rand_one_unit_poly(
                rng, 1, p
            )
            assert mahler_1d(f, p, 5).eq_mod(logdet_unit(f, p, 5), 5)


def check_entropy_routes(rng):
    f = parse_poly("2*t^2 - t + 2")
    rep = entropy_sequence(f, diagonal_family(1, range(1, 20, 2)), 2, prec=7, target=5)
    assert rep.verdict == "converged"
    assert rep.stabilized_value.eq_mod(mahler_1d(f, 2, 7), 5)
    assert rep.stabilized_value.eq_mod(logdet_unit(f, 2, 7), 5)


def check_parser_roundtrip(rng):
    for _ in range(10):
        f = _rand_poly(rng, rng.choice([1, 2, 3]))
        # the printer drops unused trailing variables, so pin the dimension
        assert parse_poly(print_poly(f), d=f.d) == f
    m = parse_poly("[[1+3*x, 3],[0, 1]]")
    assert parse_poly(print_poly(m)) == m


def check_unit_normalize(rng):
    f = parse_poly("2*t^2 - t + 2")
    dec = c0_unit_normalize(f, 2, 8)
    assert dec.a == 0 and dec.c == -1 and dec.nu == (1,)


ALL_CHECKS = [
    ("padic-ring-laws", check_padic_ring_laws),
    ("padic-log-homomorphism", check_padic_log_homomorphism),
    ("supnorm-axioms", check_norm_axioms),
    ("reduction-homomorphism", check_reduction_homomorphism),
    ("rho-multiplicative-and-trace", check_rho_multiplicative),
    ("det-dual-routes", check_det_routes),
    ("fixcount-character-crt", check_char_crt),
    ("trlog-homomorphism", check_trlog_homomorphism),
    ("finite-group-formula", check_finite_formula),
    ("matrix-scalar-consistency", check_matrix_scalar),
    ("mahler-vs-trlog", check_mahler_route),
    ("entropy-three-routes", check_entropy_routes),
    ("parser-roundtrip", check_parser_roundtrip),
    ("unit-normalization", check_unit_normalize),
]


def run_selftest(seed: int):
    """Run every check with its own deterministic substream of the seed."""
    results = []
    for i, (name, fn) in enumerate(ALL_CHECKS):
        rng = random.Random(seed * 1009 + i)
        try:
            fn(rng)
            results.append((name, True, ""))
        except AssertionError as ex:
            results.append((name, False, str(ex) or "assertion failed"))
        except Exception as ex:  # a crash is a failure, not an abort
            results.append((name, False, f"{type(ex).__name__}: {ex}"))
    return results
