"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete.  Every tolerance is pinned here, in the assertions themselves.
"""

import random
import time

from padic_entropy import (
    FiniteGroupRingElem,
    HeisenbergQuotient,
    LaurentPoly,
    Padic,
    RingMatrix,
    build_quotient_group,
    det_exact,
    det_laurent_matrix,
    diagonal_family,
    entropy_sequence,
    fix_count,
    fix_count_char_crt,
    heisenberg_family,
    logdet_finite,
    logdet_unit,
    mahler_1d,
    padic_log,
    reduce_to_quotient,
    rho_matrix,
    tr_log_one_unit,
    ZdQuotient,
)

import helpers

T = LaurentPoly.monomial((1,))
F_GOLD = 2 * T * T - T + 2


def _report(num: int, desc: str, fn, cap_seconds: float | None = None):
    t0 = time.monotonic()
    try:
        fn()
        elapsed = time.monotonic() - t0
        if cap_seconds is not None:
            assert elapsed <= cap_seconds, f"runtime {elapsed:.1f}s > {cap_seconds}s"
    except BaseException:
        print(f"ACCEPTANCE {num}: FAIL - {desc}")
        raise
    print(f"ACCEPTANCE {num}: PASS - {desc} ({elapsed:.2f}s)")


def test_criterion_1_golden_quadratic():
    def body():
        p, prec = 2, 8
        m = mahler_1d(F_GOLD, p, prec)
        l = logdet_unit(F_GOLD, p, prec)
        rep = entropy_sequence(F_GOLD, diagonal_family(1, range(1, 26, 2)), p, prec=prec)
        e = rep.stabilized_value
        assert m.eq_mod(l, 6)
        assert m.eq_mod(e, 6)
        assert l.eq_mod(e, 6)
        # the approximation ladder for the outside root (1 + sqrt(-15))/4:
        # each successive residue approximates it to at least one more digit
        alpha = (1 + helpers.padic_sqrt(Padic.from_rational(-15, 1, 2, 16))) / 4
        assert m.eq_mod(padic_log(alpha), 6)
        ladder = [(1, 2), (-3, 2), (-19, 2), (-83, 2)]
        for k, (num, den) in enumerate(ladder):
            diff = alpha - Padic.from_rational(num, den, 2, 16)
            assert diff.valuation() >= k + 1, (k, num, den)

    _report(
        1,
        "golden quadratic: mahler = logdet = entropy mod 2^6; root ladder",
        body,
        cap_seconds=10.0,
    )


def test_criterion_2_fixed_point_counts():
    def body():
        expected = {1: 3, 2: 15, 3: 27}
        for n, want in expected.items():
            rec = fix_count(F_GOLD, ZdQuotient((n,)), p=2, prec=6)
            signed = fix_count_char_crt(F_GOLD, (n,))
            assert rec.fix_count == want, (n, rec.fix_count)
            assert abs(signed) == want, (n, signed)
            assert signed == rec.det_sign * rec.fix_count
            # the dense regular representation, sign included
            assert signed == det_exact(rho_matrix(reduce_to_quotient(F_GOLD, ZdQuotient((n,)))))
            # independent resultant oracle
            cyc = [-1] + [0] * (n - 1) + [1]
            assert abs(int(helpers.sylvester_resultant(cyc, [2, -1, 2]))) == want

    _report(
        2,
        "fix counts 3/15/27 by regular representation and character product",
        body,
        cap_seconds=1.0,
    )


def test_criterion_3_homomorphism_suite():
    def body():
        rng = random.Random(20240)
        heis2 = build_quotient_group(HeisenbergQuotient(2))
        heis3 = build_quotient_group(HeisenbergQuotient(3))
        domains = [("Z1", 1, None), ("Z2", 2, None), ("heis2", None, heis2), ("heis3", None, heis3)]
        pairs = 0
        for name, d, grp in domains:
            for r in (1, 2):
                for p in (2, 3, 5):
                    for _ in range(5):
                        A, B, conj = _draw_pair(rng, d, grp, r, p)
                        lhs = tr_log_one_unit(A * B, p, 6)
                        rhs = tr_log_one_unit(A, p, 6) + tr_log_one_unit(B, p, 6)
                        assert lhs.eq_mod(rhs, 6), (name, r, p)
                        base = tr_log_one_unit(A, p, 6)
                        got = tr_log_one_unit(conj[0] * A * conj[1], p, 6)
                        assert got.eq_mod(base, 6), (name, r, p, "conjugation")
                        pairs += 1
        assert pairs == 120  # >= 100 random pairs, all combos covered

    _report(
        3,
        "trace-log homomorphism + conjugation invariance, 120 pairs mod p^6",
        body,
    )


def _draw_pair(rng, d, grp, r, p):
    """Two random 1-units and a (conjugator, inverse) pair for the domain."""
    if grp is None:
        if r == 1:
            A = helpers.random_one_unit(rng, d, p)
            B = helpers.random_one_unit(rng, d, p)
            e = tuple(rng.randint(-1, 1) for _ in range(d))
            mono = LaurentPoly.monomial(e, d=d)
            mono_inv = LaurentPoly.monomial(tuple(-x for x in e), d=d)
            conj = (RingMatrix.wrap(mono), RingMatrix.wrap(mono_inv))
            return RingMatrix.wrap(A), RingMatrix.wrap(B), conj
        A = helpers.random_one_unit_matrix(rng, r, d, p)
        B = helpers.random_one_unit_matrix(rng, r, d, p)
        one, zero = LaurentPoly.one(d), LaurentPoly(d, {})
        if rng.random() < 0.5:
            e = tuple(rng.randint(-1, 1) for _ in range(d))
            mono = LaurentPoly.monomial(e, d=d)
            mono_inv = LaurentPoly.monomial(tuple(-x for x in e), d=d)
            conj = (
                RingMatrix([[mono, zero], [zero, one]]),
                RingMatrix([[mono_inv, zero], [zero, one]]),
            )
        else:
            c = LaurentPoly.monomial(
                tuple(rng.randint(-1, 1) for _ in range(d)), rng.randint(1, 3), d=d
            )
            conj = (
                RingMatrix([[one, c], [zero, one]]),
                RingMatrix([[one, -c], [zero, one]]),
            )
        return A, B, conj
    if r == 1:
        A = helpers.random_fg_one_unit(rng, grp, p)
        B = helpers.random_fg_one_unit(rng, grp, p)
        gi = rng.randrange(grp.index)
        conj = (
            RingMatrix.wrap(FiniteGroupRingElem.element(grp, gi)),
            RingMatrix.wrap(FiniteGroupRingElem.element(grp, grp.inverse(gi))),
        )
        return RingMatrix.wrap(A), RingMatrix.wrap(B), conj
    A = helpers.random_fg_one_unit_matrix(rng, grp, r, p)
    B = helpers.random_fg_one_unit_matrix(rng, grp, r, p)
    one = FiniteGroupRingElem.one(grp)
    zero = FiniteGroupRingElem.zero(grp)
    gi = rng.randrange(grp.index)
    gamma = FiniteGroupRingElem.element(grp, gi)
    gamma_inv = FiniteGroupRingElem.element(grp, grp.inverse(gi))
    conj = (
        RingMatrix([[gamma, zero], [zero, one]]),
        RingMatrix([[gamma_inv, zero], [zero, one]]),
    )
    return A, B, conj


def test_criterion_4_finite_group_formula():
    def body():
        rng = random.Random(20241)
        groups = [build_quotient_group(ZdQuotient((k,))) for k in (2, 3, 4, 5, 6)]
        groups.append(build_quotient_group(HeisenbergQuotient(2)))
        checked = 0
        while checked < 50:
            grp = groups[checked % len(groups)]
            p = (2, 3, 5)[checked % 3]
            r = 1 if checked % 2 == 0 else 2
            if r == 1:
                f = helpers.random_fg_one_unit(rng, grp, p)
            else:
                f = helpers.random_fg_one_unit_matrix(rng, grp, r, p)
            assert tr_log_one_unit(f, p, 6).eq_mod(logdet_finite(f, p, 6), 6), (
                grp.descriptor(),
                p,
                r,
            )
            checked += 1

    _report(
        4,
        "finite-group determinant formula on 50 random 1-units mod p^6",
        body,
    )


def test_criterion_5_matrix_scalar_routes():
    def body():
        rng = random.Random(20242)
        for i in range(25):
            p = (2, 3, 5)[i % 3]
            F = helpers.random_expansive_matrix(rng, p)
            det_f = det_laurent_matrix(F)
            ns = [n for n in range(1, 30) if n % p]
            rep_e = entropy_sequence(F, diagonal_family(1, ns), p, prec=6, target=4)
            rep_s = entropy_sequence(det_f, diagonal_family(1, ns), p, prec=6, target=4)
            lu = logdet_unit(det_f, p, 6)
            assert rep_e.stabilized_value.eq_mod(rep_s.stabilized_value, 4), (i, p)
            assert rep_e.stabilized_value.eq_mod(lu, 4), (i, p)
            assert rep_s.stabilized_value.eq_mod(lu, 4), (i, p)

    _report(
        5,
        "25 random expansive 2x2 matrices: matrix = determinant entropy = trace-log mod p^4",
        body,
    )


def test_criterion_6_convergence_quality():
    def body():
        f = LaurentPoly(2, {(0, 0): 1, (1, 0): 3, (0, -1): 3})
        ns = [1, 2, 4, 5, 7, 8, 10, 11]
        rep = entropy_sequence(f, diagonal_family(2, ns), 3, prec=6, target=4)
        # consecutive proven distance valuations are non-decreasing (that is,
        # distances non-increasing) once n exceeds the support diameter (2)
        dists = rep.distances
        start = next(i for i, n in enumerate(ns) if n > helpers.support_diameter(f))
        vals = [v for v, _ in dists[start:]]
        assert all(a <= b for a, b in zip(vals, vals[1:])), vals
        # final three records agree mod 3^4
        last = [r.normalized for r in rep.records[-3:]]
        for a in last:
            for b in last:
                assert a.eq_mod(b, 4)
        assert rep.verdict == "converged"

    _report(
        6,
        "d=2 one-unit: distances non-increasing, final three agree mod 3^4",
        body,
        cap_seconds=60.0,
    )


def test_criterion_7_heisenberg_stabilization():
    def body():
        f = LaurentPoly(3, {(0, 0, 0): 1, (1, 0, 0): 3, (0, 1, 0): 3})
        rep = entropy_sequence(f, heisenberg_family([2, 4, 5, 7]), 3, prec=5, target=3)
        last = [r.normalized for r in rep.records[-3:]]
        for a in last:
            for b in last:
                assert a.eq_mod(b, 3)
        assert rep.verdict == "converged"
        # stated explicitly: no independent oracle exists for this case; the
        # criterion is empirical stabilization of the records only

    _report(
        7,
        "Heisenberg action: records stabilize mod 3^3 over n in {2,4,5,7}",
        body,
    )


def test_criterion_8_scale_and_branch_invariances():
    def body():
        fam = diagonal_family(1, [1, 3, 5, 7, 9, 11])
        rep1 = entropy_sequence(F_GOLD, fam, 2, prec=8)
        rep2 = entropy_sequence(2 * F_GOLD, fam, 2, prec=8)
        for a, b in zip(rep1.records, rep2.records):
            assert a.normalized == b.normalized  # bit-identical, zero tolerance
        assert rep1.stabilized_value == rep2.stabilized_value
        # logdet of monomials is exactly zero at the working precision
        for k in (-3, 1, 4):
            v = logdet_unit(LaurentPoly.monomial((k,)), 2, 8)
            assert v.is_zero and v.zprec >= 8
        # logdet of group elements over finite quotients is exactly zero
        grp = build_quotient_group(HeisenbergQuotient(2))
        for gi in range(grp.index):
            v = logdet_finite(FiniteGroupRingElem.element(grp, gi), 3, 6)
            assert v.is_zero and v.zprec >= 6
        # branch normalization log_p(p) = 0
        for p in (2, 3, 5):
            v = padic_log(Padic.from_rational(p, 1, p, 8))
            assert v.is_zero and v.zprec >= 8

    _report(
        8,
        "scale invariance under p, zero logdet on monomials/group elements, log_p(p)=0",
        body,
    )
