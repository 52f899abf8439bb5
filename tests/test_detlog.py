import math
import random
import time
from fractions import Fraction

import pytest

from padic_entropy import (
    FiniteGroupRingElem,
    HeisenbergQuotient,
    LaurentPoly,
    Padic,
    RingMatrix,
    ZdQuotient,
    build_quotient_group,
    c0_unit_normalize,
    det_laurent_matrix,
    logdet_finite,
    logdet_unit,
    mahler_1d,
    padic_log,
    reduce_to_quotient,
    sup_norm,
    tr_log_one_unit,
)
from padic_entropy import detlog
from padic_entropy.detlog import (
    _coeff_int_mod,
    _kernel_finite,
    _kernel_zd_dense,
    _kernel_zd_lattice,
    _kernel_zd_sparse,
)
from padic_entropy.errors import (
    DomainMismatch,
    IndistinguishableAtPrecision,
    NotACZeroUnit,
    NotAOneUnit,
    SingularRho,
)
from padic_entropy.padic import _ilog, _neg_sum_over_nu, series_guard
from padic_entropy.poly_io import parse_poly

import helpers

T = LaurentPoly.monomial((1,))
Tinv = LaurentPoly.monomial((-1,))
F_EXAMPLE = 2 * T * T - T + 2


# -- unit normalization ------------------------------------------------------------


def test_normalize_example():
    dec = c0_unit_normalize(F_EXAMPLE, 2, 10)
    assert dec.a == 0 and dec.c == -1 and dec.nu == (1,)
    # 1 + 2g with g = -t - t^-1, modulo 2^11
    assert dec.one_unit.terms == {(0,): 1, (1,): 2**11 - 2, (-1,): 2**11 - 2}


def test_normalize_refuses_non_units():
    with pytest.raises(NotACZeroUnit):
        c0_unit_normalize(F_EXAMPLE, 3, 8)  # f mod 3 = 2T^2+2T+2
    with pytest.raises(NotACZeroUnit):
        c0_unit_normalize(LaurentPoly(1, {}), 2, 8)
    with pytest.raises(NotACZeroUnit):
        c0_unit_normalize(T - 1, 5, 8)


def test_normalize_pure_monomial_times_p():
    dec = c0_unit_normalize(5 * T, 5, 6)
    assert dec.a == 1 and dec.c == 1 and dec.nu == (1,)
    assert dec.one_unit == LaurentPoly.one(1)


def test_normalize_reexpansion_invariant():
    rng = random.Random(20)
    for p in (2, 3, 5):
        for _ in range(10):
            f = helpers.random_expansive_scalar(rng, p)
            w = 8
            dec = c0_unit_normalize(f, p, w)
            mod = p ** (w + 1)
            cinv = pow(
                helpers.reduce_fraction_mod(dec.c, p, w + 1), -1, mod
            )
            for e, coeff in f.terms.items():
                shifted = tuple(x - y for x, y in zip(e, dec.nu))
                got = dec.one_unit.terms.get(shifted, 0)
                scaled = helpers.reduce_fraction_mod(
                    Fraction(coeff, p**dec.a), p, w + 1
                )
                assert got % mod == scaled * cinv % mod
            # one_unit really is 1 + p*g
            assert dec.one_unit.terms[(0,) * f.d] % p == 1
            for e, c in dec.one_unit.terms.items():
                if e != (0,) * f.d:
                    assert c % p == 0


# -- trace-log series ---------------------------------------------------------------


def test_trlog_refuses_a_bare_scalar():
    with pytest.raises(DomainMismatch, match=r"^unsupported ring for the trace-log series$"):
        tr_log_one_unit(4, 3, 4)


def test_trlog_no_constant_support_is_zero():
    v = tr_log_one_unit(LaurentPoly.one(1) + 3 * T, 3, 6)
    assert v.is_zero and v.zprec >= 6


def test_trlog_central_binomial_oracle():
    # F = 1 + 3(t + 1/t): value is -sum_k 3^(2k) C(2k, k)/(2k), an exact
    # rational sum whose tail beyond k = 3 has valuation >= 6
    from math import comb

    oracle = sum(
        Fraction(-(3 ** (2 * k)) * comb(2 * k, k), 2 * k) for k in range(1, 4)
    )
    want = helpers.reduce_fraction_mod(oracle, 3, 4)
    got = tr_log_one_unit(LaurentPoly.one(1) + 3 * (T + Tinv), 3, 4)
    assert got.lift() % 81 == want == 72


def test_trlog_rejects_non_one_units():
    with pytest.raises(NotAOneUnit):
        tr_log_one_unit(LaurentPoly.one(1) + T, 3, 5)


def test_trlog_homomorphism_commuting_and_not():
    rng = random.Random(21)
    group = build_quotient_group(HeisenbergQuotient(2))
    for p in (2, 3, 5):
        # commuting: scalar Laurent elements commute
        for _ in range(4):
            a = helpers.random_one_unit(rng, 2, p)
            b = helpers.random_one_unit(rng, 2, p)
            lhs = tr_log_one_unit(a * b, p, 6)
            assert lhs.eq_mod(
                tr_log_one_unit(a, p, 6) + tr_log_one_unit(b, p, 6), 6
            )
        # non-commuting: matrices over Z^1, and the nonabelian group ring
        for _ in range(3):
            A = helpers.random_one_unit_matrix(rng, 2, 1, p)
            B = helpers.random_one_unit_matrix(rng, 2, 1, p)
            lhs = tr_log_one_unit(A * B, p, 5)
            assert lhs.eq_mod(
                tr_log_one_unit(A, p, 5) + tr_log_one_unit(B, p, 5), 5
            )
            a = helpers.random_fg_one_unit(rng, group, p)
            b = helpers.random_fg_one_unit(rng, group, p)
            lhs = tr_log_one_unit(a * b, p, 6)
            assert lhs.eq_mod(
                tr_log_one_unit(a, p, 6) + tr_log_one_unit(b, p, 6), 6
            )


def test_trlog_conjugation_invariance():
    rng = random.Random(22)
    p = 3
    one, zero = LaurentPoly.one(1), LaurentPoly(1, {})
    for _ in range(5):
        F = helpers.random_one_unit_matrix(rng, 2, 1, p)
        base = tr_log_one_unit(F, p, 5)
        # conjugate by a monomial diagonal
        k = rng.randint(-2, 2)
        mono, mono_inv = LaurentPoly.monomial((k,)), LaurentPoly.monomial((-k,))
        A = RingMatrix([[mono, zero], [zero, one]])
        Ainv = RingMatrix([[mono_inv, zero], [zero, one]])
        assert tr_log_one_unit(A * F * Ainv, p, 5).eq_mod(base, 5)
        # conjugate by an elementary matrix
        c = LaurentPoly.monomial((rng.randint(-1, 1),), rng.randint(1, 3))
        E = RingMatrix([[one, c], [zero, one]])
        Einv = RingMatrix([[one, -c], [zero, one]])
        assert tr_log_one_unit(E * F * Einv, p, 5).eq_mod(base, 5)
    # conjugation by group elements in the nonabelian case
    group = build_quotient_group(HeisenbergQuotient(2))
    for _ in range(5):
        f = helpers.random_fg_one_unit(rng, group, p)
        base = tr_log_one_unit(f, p, 5)
        gidx = rng.randrange(group.index)
        gamma = FiniteGroupRingElem.element(group, gidx)
        gamma_inv = FiniteGroupRingElem.element(group, group.inverse(gidx))
        assert tr_log_one_unit(gamma * f * gamma_inv, p, 5).eq_mod(base, 5)


_P2_UNITS = {
    "zd1": lambda rng: helpers.random_one_unit(rng, 1, 2),
    "zd2": lambda rng: helpers.random_one_unit(rng, 2, 2, terms=3),
    "zd3": lambda rng: helpers.random_one_unit(rng, 3, 2, terms=3),
    "z4": lambda rng: helpers.random_fg_one_unit(rng, ZdQuotient((4,)), 2),
    "z3xz4": lambda rng: helpers.random_fg_one_unit(rng, ZdQuotient((3, 4)), 2),
    "z2^3": lambda rng: helpers.random_fg_one_unit(rng, ZdQuotient((2, 2, 2)), 2),
    "heis2": lambda rng: helpers.random_fg_one_unit(rng, HeisenbergQuotient(2), 2),
    "heis3": lambda rng: helpers.random_fg_one_unit(rng, HeisenbergQuotient(3), 2),
    "heis4": lambda rng: helpers.random_fg_one_unit(rng, HeisenbergQuotient(4), 2),
    "matrix-zd2": lambda rng: helpers.random_one_unit_matrix(rng, 2, 2, 2),
}


@pytest.mark.parametrize("kind", list(_P2_UNITS))
def test_trlog_p2_equals_half_the_log_of_the_square(kind):
    # for |1 - F| = 1/2 the square F^2 lies in 1 + 4A, and log F = (log F^2) / 2
    # loses one digit to the halving; the series on F itself must agree
    rng = random.Random(f"p2-{kind}")
    done = 0
    while done < 6:
        F = _P2_UNITS[kind](rng)
        wrapped = RingMatrix.wrap(F)
        if sup_norm(RingMatrix.identity_like(wrapped) - wrapped, 2) != Fraction(1, 2):
            continue
        prec = rng.randint(4, 24)
        half = tr_log_one_unit(F * F, 2, prec + 1) / 2
        assert tr_log_one_unit(F, 2, prec) == half.truncate_abs(prec)
        done += 1


def test_kernel_dense_sparse_agree():
    rng = random.Random(24)
    p, prec = 3, 5
    w, cutoff = series_guard(p, prec)
    cap = min(cutoff, w)
    pw = p**w
    for _ in range(6):
        f = helpers.random_one_unit(rng, 2, p)
        x = LaurentPoly.one(2) - f
        supp = [[sorted((e, c % pw) for e, c in x.terms.items())]]
        dense = _kernel_zd_dense(supp, 2, 1, pw, cap)
        sparse = _kernel_zd_sparse(supp, 2, 1, p, w, cap)
        assert dense == sparse


def _every_power_reference(supports, d, r, pw, cap):
    """Identity coefficient of tr X^nu for nu = 1..cap, building every power."""
    x = [[dict(supports[s][t]) for t in range(r)] for s in range(r)]
    power, out = x, []
    for _ in range(cap):
        out.append(sum(power[s][s].get((0,) * d, 0) for s in range(r)) % pw)
        nxt = [[{} for _ in range(r)] for _ in range(r)]
        for s in range(r):
            for t in range(r):
                for u in range(r):
                    for e1, c1 in power[s][u].items():
                        for e2, c2 in x[u][t].items():
                            e = tuple(a + b for a, b in zip(e1, e2))
                            nxt[s][t][e] = (nxt[s][t].get(e, 0) + c1 * c2) % pw
        power = nxt
    return out


def _random_supports(rng, r, d, p, pw, span=2):
    """X = 1 - F data: entries divisible by p, some empty, negative exponents."""
    supports = []
    for _ in range(r):
        row = []
        for _ in range(r):
            terms = {}
            for _ in range(rng.randint(0, 3)):
                e = tuple(rng.randint(-span, span) for _ in range(d))
                c = p * rng.randint(1, pw) % pw
                if c:
                    terms[e] = c
            row.append(sorted(terms.items()))
        supports.append(row)
    return supports


@pytest.mark.parametrize("r", [1, 2, 3])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_sparse_kernel_matches_dense_and_every_power(r, d):
    rng = random.Random(100 * r + d)
    for cap in (1, 2, 3, 4, 7, 8) if r * d < 9 else (1, 2, 5, 6):
        p = rng.choice((2, 3, 5))
        w = rng.randint(2, 9)
        pw = p**w
        supports = _random_supports(rng, r, d, p, pw, span=1 if d == 3 else 2)
        want = _every_power_reference(supports, d, r, pw, cap)
        assert _kernel_zd_sparse(supports, d, r, p, w, cap) == want
        assert _kernel_zd_dense(supports, d, r, pw, cap) == want


def test_sparse_kernel_edge_supports():
    p, w = 3, 6
    pw = p**w
    empty = [[[], []], [[], []]]
    assert _kernel_zd_sparse(empty, 2, 2, p, w, 5) == [0] * 5
    # only the constant term: the packed radius is zero
    const = [[[((0, 0), 3)]]]
    assert _kernel_zd_sparse(const, 2, 1, p, w, 6) == [3**k % pw for k in range(1, 7)]
    # exponents -2 and 2 only: the identity recurs at every even power
    swing = [[[((-2,), 3), ((2,), 6)]]]
    assert _kernel_zd_sparse(swing, 1, 1, p, w, 5) == _every_power_reference(swing, 1, 1, pw, 5)


def _random_scalar_support(rng, d, k, p, pw, constant):
    """k distinct exponents in [-2, 2]^d, one of them 0 when ``constant``; coefficients p * unit-ish."""
    exps = {(0,) * d} if constant else set()
    while len(exps) < k:
        exps.add(tuple(rng.randint(-2, 2) for _ in range(d)))
    return sorted((e, p * rng.randint(1, pw // p - 1)) for e in exps)


@pytest.mark.parametrize("k", range(6))
@pytest.mark.parametrize("d", [1, 2, 3])
def test_lattice_kernel_matches_every_power_and_paired(d, k):
    rng = random.Random(10 * d + k)
    for cap in (1, 2, 3, 6, 7, 12):
        for constant in (False, True) if k else (False,):
            p = rng.choice((2, 3, 5))
            w = rng.randint(2, 14)
            pw = p**w
            support = _random_scalar_support(rng, d, k, p, pw, constant)
            want = _every_power_reference([[support]], d, 1, pw, cap)
            assert _kernel_zd_lattice(support, p, w, cap) == want
            assert _kernel_zd_sparse([[support]], d, 1, p, w, cap) == want


@pytest.mark.parametrize(
    "exps, no_relation",
    [
        ([(1, 1), (-2, -2)], False),
        ([(1, -1, 2), (-2, 2, -4), (3, -3, 6)], False),
        ([(0, 0)], False),
        ([(0, 0, 0), (1, 0, 0), (-1, 0, 0)], False),
        ([(1, 0), (0, 1), (1, 1)], True),  # k - rank = 1, but the cone is {0}
        ([(3,)], True),
        ([(1, 0), (0, -1)], True),
        ([(2, -1, 0), (0, 1, 1), (1, 0, 3)], True),  # rank 3
        # |n| <= cap cuts the last free coordinate's interval: |n| grows
        # faster than it, falls as it grows, or does not depend on it
        ([(-2,), (1,)], False),
        ([(0, -2), (0, 1), (1, 1), (2, 1)], False),
        ([(-1, 0), (0, 1), (1, 0), (1, 2)], False),
        ([(-1, 0), (0, -1), (0, 1), (1, 0), (1, 1)], False),
        ([(-1, 0, 0), (0, -1, 0), (0, 0, -1), (0, 0, 1), (0, 1, 0), (1, 0, 0)], False),
    ],
    ids=[
        "rank1-d2", "rank1-d3", "constant", "constant-x-xinv", "pointed-cone", "d1", "d2", "d3",
        "nu-cut-above", "nu-cut-below", "nu-flat", "d2-cross-xy", "d3-cross",
    ],
)
def test_lattice_kernel_edge_exponents(exps, no_relation):
    rng = random.Random(str(exps))
    d = len(exps[0])
    for p, w, cap in ((3, 9, 9), (2, 12, 11), (5, 6, 1), (3, 14, 14), (2, 5, 8)):
        pw = p**w
        support = [(e, p * rng.randint(1, pw // p - 1)) for e in exps]
        want = _every_power_reference([[support]], d, 1, pw, cap)
        assert _kernel_zd_lattice(support, p, w, cap) == want
        assert _kernel_zd_sparse([[support]], d, 1, p, w, cap) == want
        if no_relation:
            assert want == [0] * cap
    assert _kernel_zd_lattice([], 3, 6, 5) == [0] * 5


def _record_zd_kernels(monkeypatch):
    calls = []
    for name in ("_kernel_zd_dense", "_kernel_zd_lattice", "_kernel_zd_sparse"):
        real = getattr(detlog, name)

        def recording(*args, real=real, name=name):
            calls.append(name)
            return real(*args)

        monkeypatch.setattr(detlog, name, recording)
    return calls


@pytest.mark.parametrize(
    "p, prec, poly, kernel",
    [
        (3, 6, "1+3*x+3*y^-1", "_kernel_zd_dense"),  # p^w in a machine word
        (3, 64, "1+3*x+3*y+3*z+3*x^-1*y^-1*z^-1", "_kernel_zd_lattice"),  # k - rank = 1
        (3, 64, "1+3*x*y+3*x^-2*y^-2", "_kernel_zd_lattice"),  # exponents of rank 1
        (3, 64, "1+3*x+3*y+3*x^-1+3*y^-1", "_kernel_zd_lattice"),  # 7 * 2485 points < 19321 cells
        (3, 64, "1+3*x+3*y+3*x^-1+3*y^-1+3*x*y", "_kernel_zd_sparse"),  # k - rank = 3
        # 7 * 148995 points > 571787 cells > 148995 points
        (3, 36, "1+3*x+3*y+3*z+3*x^-1+3*y^-1+3*z^-1+3*x*y*z", "_kernel_zd_sparse"),
        (3, 48, "1+3*x+3*x^-1+3*x^2", "_kernel_zd_sparse"),  # d = 1, k - rank = 2
        (2, 32, "1+2*x+2*y+2*x^-1*y^-1", "_kernel_zd_lattice"),  # p = 2, k - rank = 1
        # p = 2, the eight neighbours: k - rank = 6
        (2, 32, "1+2*x+2*y+2*x^-1+2*y^-1+2*x*y+2*x^-1*y^-1+2*x*y^-1+2*x^-1*y", "_kernel_zd_sparse"),
        (3, 24, "[[1+3*x,3*y],[3*x^-1,1+3*y^-1]]", "_kernel_zd_sparse"),  # r = 2
    ],
)
def test_trlog_route_choice(p, prec, poly, kernel, monkeypatch):
    calls = _record_zd_kernels(monkeypatch)
    f = parse_poly(poly)
    got = tr_log_one_unit(f, p, prec)
    assert calls == [kernel]
    monkeypatch.setattr(detlog, "_LATTICE_POINT_CELLS", 10**30)
    monkeypatch.setattr(detlog, "_DENSE_CELL_CAP", -1)
    calls.clear()
    assert tr_log_one_unit(f, p, prec) == got
    assert calls == ["_kernel_zd_sparse"]


@pytest.mark.parametrize(
    "poly, estimate",
    [
        # the lattice route is cheaper and still over the cap: 7 * C(cap + 3, 3)
        ("1+3*x+3*y+3*z+3*x^-1+3*y^-1+3*z^-1", lambda cap: 7 * math.comb(cap + 3, 3)),
        # the paired route is cheaper: (2 cap + 1)^3 cells, against 7 * C(cap + 4, 4)
        ("1+3*x+3*y+3*z+3*x^-1+3*y^-1+3*z^-1+3*x*y*z", lambda cap: (2 * cap + 1) ** 3),
    ],
    ids=["lattice", "paired"],
)
def test_trlog_refuses_the_cheaper_route_over_the_cap_at_once(poly, estimate, monkeypatch):
    calls = _record_zd_kernels(monkeypatch)
    w, cutoff = series_guard(3, 256)
    with pytest.raises(DomainMismatch) as err:
        tr_log_one_unit(parse_poly(poly), 3, 256)
    assert str(err.value) == f"trace-log series over {estimate(min(cutoff, w))} cells exceeds cap 20000000"
    assert calls == []


@pytest.mark.parametrize("cap", [1, 2, 3, 10, 11, 40])
def test_sparse_kernel_builds_half_the_powers(cap, monkeypatch):
    steps = []
    step = detlog._sparse_step

    def counting(*args):
        steps.append(1)
        return step(*args)

    monkeypatch.setattr(detlog, "_sparse_step", counting)
    supports = [[[((1, 0), 3), ((0, 1), 6), ((-1, -1), 3)]]]
    _kernel_zd_sparse(supports, 2, 1, 3, 45, cap)
    assert len(steps) == (cap - 1) // 2  # at most ceil(cap/2); all powers need cap - 1
    # the same pairing on a finite group ring
    steps.clear()
    group = build_quotient_group(HeisenbergQuotient(3))
    _kernel_finite([[[(1, 3), (3, 3), (9, 3)]]], group, 1, 3, 45, cap)
    assert len(steps) == (cap - 1) // 2


def _pairs(coeffs):
    """The (element, coefficient) pairs of each dense coefficient vector, as the finite kernel takes them."""
    return [[[(h, c) for h, c in enumerate(entry) if c] for entry in row] for row in coeffs]


def _every_power_finite(coeffs, group, r, pw, cap):
    """Identity coefficient of tr X^nu for nu = 1..cap by dense convolution, building every power."""
    m, e = group.index, 0
    mul = group.multiply

    def conv(a, b):
        out = [0] * m
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    if bj:
                        out[mul(i, j)] += ai * bj
        return out

    power, consts = coeffs, []
    for _ in range(cap):
        consts.append(sum(power[s][s][e] for s in range(r)) % pw)
        power = [
            [
                [sum(col) % pw for col in zip(*(conv(power[s][u], coeffs[u][t]) for u in range(r)))]
                for t in range(r)
            ]
            for s in range(r)
        ]
    return consts


@pytest.mark.parametrize(
    "q",
    [ZdQuotient((5,)), ZdQuotient((2, 3)), HeisenbergQuotient(2), HeisenbergQuotient(3)],
    ids=["z5", "z2xz3", "heis2", "heis3"],
)
@pytest.mark.parametrize("r", [1, 2, 3])
def test_finite_kernel_matches_every_power(q, r):
    group = build_quotient_group(q)
    rng = random.Random(f"{q.label()}:{r}")
    for cap in (1, 2, 3, 4, 7, 8, 11):
        for density in (0.25, 1.0):
            p = rng.choice((2, 3, 5))
            w = rng.randint(2, 9)
            pw = p**w
            coeffs = [
                [
                    [p * rng.randint(1, pw) % pw if rng.random() < density else 0 for _ in range(group.index)]
                    for _ in range(r)
                ]
                for _ in range(r)
            ]
            want = _every_power_finite(coeffs, group, r, pw, cap)
            assert _kernel_finite(_pairs(coeffs), group, r, p, w, cap) == want


def _largest_coefficient(power):
    return max((c for row in power for entry in row for c in entry.values()), default=0)


@pytest.mark.parametrize("w, cap", [(12, 12), (20, 9), (7, 6)])
def test_paired_kernel_keeps_only_the_digits_each_power_adds(w, cap, monkeypatch):
    # the kernel stores Y^j = X^j / p^j: Y^j mod p^(w-2j+1), the step to
    # Y^(j+1) mod p^(w-2j-1), and the pairing for c_nu mod p^(w-nu)
    steps, pairs = [], []
    real_step, real_pair = detlog._sparse_step, detlog._pair_const

    def step(power, ymat, r, mod):
        out = real_step(power, ymat, r, mod)
        steps.append((mod, _largest_coefficient(out)))
        return out

    def pair(a, b, r, inv, mod):
        pairs.append((mod, _largest_coefficient(a), _largest_coefficient(b)))
        return real_pair(a, b, r, inv, mod)

    monkeypatch.setattr(detlog, "_sparse_step", step)
    monkeypatch.setattr(detlog, "_pair_const", pair)
    rng = random.Random(w * cap)
    group = build_quotient_group(HeisenbergQuotient(3))
    for p in (2, 3, 5):
        pw = p**w
        supports = _random_supports(rng, 2, 2, p, pw)
        coeffs = [[[p * rng.randint(1, pw) % pw for _ in range(group.index)] for _ in range(2)] for _ in range(2)]
        runs = [
            (lambda: _kernel_zd_sparse(supports, 2, 2, p, w, cap),
             lambda: _every_power_reference(supports, 2, 2, pw, cap)),
            (lambda: _kernel_finite(_pairs(coeffs), group, 2, p, w, cap),
             lambda: _every_power_finite(coeffs, group, 2, pw, cap)),
        ]
        for kernel, reference in runs:
            steps.clear()
            pairs.clear()
            assert kernel() == reference()
            assert [mod for mod, _ in steps] == [p ** (w - 2 * j - 1) for j in range(1, (cap + 1) // 2)]
            assert [mod for mod, _, _ in pairs] == [p ** (w - nu) for nu in range(2, cap + 1)]
            # Y^1 enters the first pairing, and the step to Y^(j+1) stores it
            assert pairs[0][1] < p ** (w - 1)
            for j, (_, largest) in enumerate(steps, start=1):
                assert largest < p ** (w - 2 * (j + 1) + 1)


@pytest.mark.parametrize("p, prec, d", [(3, 96, 2), (5, 64, 2), (3, 36, 3)])
def test_trlog_simplex_closed_form_at_series_precision(p, prec, d):
    # the shapes and precisions of the benchmark's high-precision detlog jobs;
    # logdet_unit takes the lattice route on them, so the paired kernel is
    # run on the same series directly
    rng = random.Random(prec + d)
    w, cutoff = series_guard(p, prec)
    cap = min(cutoff, w)
    for _ in range(2):
        coeffs = [p * rng.choice((1, 2, -1, -2)) for _ in range(d + 1)]
        f = LaurentPoly.one(d) + LaurentPoly.monomial((-1,) * d, coeffs[0])
        for a in range(d):
            f = f + LaurentPoly.monomial(tuple(int(i == a) for i in range(d)), coeffs[a + 1])
        want = helpers.simplex_log_oracle(coeffs, p, prec)
        got = logdet_unit(f, p, prec)
        assert int(got.abs_prec) >= prec
        assert got.lift() % p**prec == want
        x = [[sorted((e, -c % p**w) for e, c in f.terms.items() if any(e))]]
        paired = _kernel_zd_sparse(x, d, 1, p, w, cap)
        assert paired == _kernel_zd_lattice(x[0][0], p, w, cap)
        series = _neg_sum_over_nu(enumerate(paired, start=1), p, prec, _ilog(cap, p))
        assert series.lift() % p**prec == want


@pytest.mark.parametrize("n", [2, 3, 4, 5, 7])
@pytest.mark.parametrize("p", [2, 3])
def test_trlog_central_element_matches_cyclic_group(n, p):
    # z generates the centre of heis(n), a copy of Z/n
    z, z_inv = LaurentPoly.monomial((0, 0, 1)), LaurentPoly.monomial((0, 0, -1))
    on_heis = reduce_to_quotient(1 + p * z + p * z_inv, HeisenbergQuotient(n))
    on_cyclic = reduce_to_quotient(1 + p * T + p * Tinv, ZdQuotient((n,)))
    assert tr_log_one_unit(on_heis, p, 6).eq_mod(tr_log_one_unit(on_cyclic, p, 6), 6)


@pytest.mark.parametrize("n", [9, 10, 11, 12])
def test_trlog_homomorphism_and_conjugation_on_large_heisenberg(n):
    q = HeisenbergQuotient(n)
    group = build_quotient_group(q)
    rng = random.Random(50 + n)
    x, y = LaurentPoly.monomial((1, 0, 0)), LaurentPoly.monomial((0, 1, 0))
    for p in (2, 3, 5):
        a = reduce_to_quotient(helpers.random_one_unit(rng, 3, p, terms=3) + p * x, q)
        b = reduce_to_quotient(helpers.random_one_unit(rng, 3, p, terms=3) + p * y, q)
        assert a * b != b * a
        ta = tr_log_one_unit(a, p, 6)
        assert tr_log_one_unit(a * b, p, 6).eq_mod(ta + tr_log_one_unit(b, p, 6), 6)
        g = rng.randrange(group.index)
        gamma = FiniteGroupRingElem.element(group, g)
        gamma_inv = FiniteGroupRingElem.element(group, group.inverse(g))
        assert tr_log_one_unit(gamma * a * gamma_inv, p, 6).eq_mod(ta, 6)


def test_trlog_refuses_full_support_on_heis16_at_once(monkeypatch):
    group = HeisenbergQuotient(16)
    rng = random.Random(64)
    units = {p: helpers.random_fg_one_unit(rng, group, p) for p in (3, 2)}

    def forbidden(*args):
        raise AssertionError("refusal came after the work it bounds")

    monkeypatch.setattr(detlog, "_kernel_paired", forbidden)
    monkeypatch.setattr(FiniteGroupRingElem, "__mul__", forbidden)  # p = 2: before F * F
    for p, f in units.items():
        start = time.perf_counter()
        with pytest.raises(DomainMismatch, match="exceeds cap"):
            tr_log_one_unit(f, p, 6)
        assert time.perf_counter() - start < 2.0  # the series itself took 16-22 s


@pytest.mark.parametrize(
    "q", [HeisenbergQuotient(8), ZdQuotient((20, 20))], ids=["heis8", "z20xz20"]
)
def test_trlog_benchmark_reductions_stay_well_under_the_finite_cap(q, monkeypatch):
    # the largest sparse reductions the benchmark checker passes in
    f = reduce_to_quotient(parse_poly("1+3*x+3*y+3*x^-1*y^-1"), q)
    want = tr_log_one_unit(f, 3, 6)
    monkeypatch.setattr(detlog, "SERIES_WORK_CAP", detlog.SERIES_WORK_CAP // 1000)
    assert tr_log_one_unit(f, 3, 6) == want


def test_trlog_sparse_path_matches_dense_path(monkeypatch):
    rng = random.Random(31)
    cases = [(helpers.random_one_unit(rng, 2, 3), 3, 7), (helpers.random_one_unit(rng, 1, 2), 2, 9)]
    cases.append((helpers.random_one_unit_matrix(rng, 2, 2, 3), 3, 4))
    dense = [tr_log_one_unit(f, p, prec) for f, p, prec in cases]
    monkeypatch.setattr(detlog, "_DENSE_CELL_CAP", -1)
    assert [tr_log_one_unit(f, p, prec) for f, p, prec in cases] == dense
    monkeypatch.setattr(detlog, "_LATTICE_POINT_CELLS", 10**30)  # the paired kernel alone
    assert [tr_log_one_unit(f, p, prec) for f, p, prec in cases] == dense


def test_trlog_high_precision_takes_sparse_path(monkeypatch):
    # p^(prec+guard) over int64 forces a big-integer kernel, and the lattice
    # route is priced out, so the paired one runs; the value must refine the
    # low-precision dense-kernel value
    monkeypatch.setattr(detlog, "_LATTICE_POINT_CELLS", 10**30)
    rng = random.Random(29)
    f = helpers.random_one_unit(rng, 2, 5)
    lo = tr_log_one_unit(f, 5, 6)
    hi = tr_log_one_unit(f, 5, 16)
    assert (hi - lo).is_zero
    assert int(hi.abs_prec) >= 16


@pytest.mark.parametrize("p", [2, 3, 5])
def test_trlog_loses_no_digit_to_the_series_rule(p):
    # the series at prec keeps every digit that 8 more digits of work give
    rng = random.Random(70 + p)
    q = ZdQuotient((4, 2))
    for prec in range(1, 13):
        units = [helpers.random_one_unit(rng, d, p, terms=3) for d in (1, 2, 3)]
        units.append(helpers.random_fg_one_unit(rng, q, p))
        units.append(helpers.random_one_unit_matrix(rng, 2, 2, p))
        for f in units:
            want = tr_log_one_unit(f, p, prec + 8).truncate_abs(prec)
            assert tr_log_one_unit(f, p, prec) == want, (prec, f)


# -- logdet on units ------------------------------------------------------------------


def test_logdet_unit_golden_value():
    # independent route: the measure equals log of the outside root
    # (1 + sqrt(-15))/4 of the defining quadratic
    val = logdet_unit(F_EXAMPLE, 2, 8)
    alpha = (1 + helpers.padic_sqrt(Padic.from_rational(-15, 1, 2, 12))) / 4
    assert val.eq_mod(padic_log(alpha), 8)


def test_logdet_unit_monomial_and_constant():
    v = logdet_unit(T * T * T, 2, 8)
    assert v.is_zero and v.zprec >= 8
    got = logdet_unit(LaurentPoly.constant(3), 2, 8)
    assert got.eq_mod(padic_log(Padic.from_rational(3, 1, 2, 8)), 8)


def test_rational_coefficients_on_the_scalar_routes():
    # coefficients with a unit denominator reach rational_residue's Fraction
    # branch: in the unit normalization and in mahler_1d
    f = LaurentPoly(1, {(0,): Fraction(1, 2), (1,): 3})
    got = logdet_unit(f, 3, 8)
    assert str(got) == "1855*3^1 + O(3^8)"
    assert got == mahler_1d(f, 3, 8)
    x, y = LaurentPoly.monomial((1, 0)), LaurentPoly.monomial((0, 1))
    xy_inv = LaurentPoly.monomial((-1, -1))
    f = LaurentPoly.one(2) + Fraction(3, 2) * x + Fraction(3, 4) * y - Fraction(3, 2) * xy_inv
    lhs = logdet_unit(f, 3, 8)
    assert str(lhs) == "172*3^3 + O(3^8)"
    log4 = padic_log(Padic.from_rational(4, 1, 3, 8))
    assert (lhs + log4).eq_mod(logdet_unit(4 * f, 3, 8), 8)


def test_logdet_unit_multiplicative():
    rng = random.Random(25)
    for p in (2, 3):
        for _ in range(6):
            f = helpers.random_expansive_scalar(rng, p)
            g = helpers.random_expansive_scalar(rng, p)
            lhs = logdet_unit(f * g, p, 6)
            assert lhs.eq_mod(logdet_unit(f, p, 6) + logdet_unit(g, p, 6), 6)


# -- commutative determinants ----------------------------------------------------------


def test_det_laurent_examples():
    one, zero = LaurentPoly.one(1), LaurentPoly(1, {})
    M = RingMatrix([[one + 3 * T, LaurentPoly.constant(3)], [zero, one]])
    assert det_laurent_matrix(M) == one + 3 * T
    assert det_laurent_matrix(RingMatrix.wrap(F_EXAMPLE)) == F_EXAMPLE


def test_det_laurent_vs_trlog():
    rng = random.Random(26)
    for p in (2, 3):
        for _ in range(5):
            F = helpers.random_one_unit_matrix(rng, 2, 1, p)
            lhs = tr_log_one_unit(F, p, 5)
            rhs = tr_log_one_unit(det_laurent_matrix(F), p, 5)
            assert lhs.eq_mod(rhs, 5)


def test_det_laurent_matches_permutation_expansion():
    # random r x r matrices, r = 1..8, with zero entries, against the signed
    # permutation expansion; zeros keep the 8! expansion quick
    rng = random.Random(29)
    for r in range(1, 9):
        for trial in range(3):
            d = 1 + trial % 2
            share = 0.2 if r < 6 else 0.45
            F = RingMatrix(
                [
                    [
                        LaurentPoly(d, {})
                        if rng.random() < share
                        else helpers.random_laurent(rng, d, span=1, cmax=3, terms=2)
                        for _ in range(r)
                    ]
                    for _ in range(r)
                ]
            )
            assert det_laurent_matrix(F) == helpers.det_by_permutations(F), (r, trial)


def test_det_laurent_3x3_against_cofactor():
    rng = random.Random(27)
    one = LaurentPoly.one(1)
    entries = [[helpers.random_laurent(rng, 1, span=1, cmax=2) for _ in range(3)] for _ in range(3)]
    F = RingMatrix(entries)
    det = det_laurent_matrix(F)
    # cofactor expansion along the first row, written out independently
    def det2(a, b, c, d):
        return a * d - b * c

    e = entries
    cof = (
        e[0][0] * det2(e[1][1], e[1][2], e[2][1], e[2][2])
        - e[0][1] * det2(e[1][0], e[1][2], e[2][0], e[2][2])
        + e[0][2] * det2(e[1][0], e[1][1], e[2][0], e[2][1])
    )
    assert det == cof


# -- finite group formula --------------------------------------------------------------


def test_logdet_finite_example():
    g2 = build_quotient_group(ZdQuotient((2,)))
    f = FiniteGroupRingElem(g2, [3, 2])  # 1 + 2(e + s)
    val = logdet_finite(f, 2, 8)
    half_log5 = padic_log(Padic.from_rational(5, 1, 2, 10)) / 2
    assert val.eq_mod(half_log5, 8)
    assert val.eq_mod(tr_log_one_unit(f, 2, 8), 8)


def test_logdet_finite_identity_and_group_element():
    g = build_quotient_group(HeisenbergQuotient(2))
    v = logdet_finite(FiniteGroupRingElem.one(g), 3, 6)
    assert v.is_zero
    v2 = logdet_finite(FiniteGroupRingElem.element(g, 4), 3, 6)
    assert v2.is_zero


def test_logdet_finite_matches_trlog_random():
    rng = random.Random(28)
    groups = [build_quotient_group(ZdQuotient((k,))) for k in (2, 3, 5, 6)]
    groups.append(build_quotient_group(HeisenbergQuotient(2)))
    for p in (2, 3, 5):
        for g in groups:
            for r in (1, 2):
                if r == 1:
                    f = helpers.random_fg_one_unit(rng, g, p)
                else:
                    f = helpers.random_fg_one_unit_matrix(rng, g, r, p)
                assert tr_log_one_unit(f, p, 6).eq_mod(logdet_finite(f, p, 6), 6)


def test_logdet_finite_padic_coefficients():
    g2 = build_quotient_group(ZdQuotient((2,)))
    coeffs = [Padic.from_rational(3, 1, 2, 12), Padic.from_rational(2, 1, 2, 12)]
    f = FiniteGroupRingElem(g2, coeffs)
    val = logdet_finite(f, 2, 6)
    assert val.eq_mod(padic_log(Padic.from_rational(5, 1, 2, 10)) / 2, 6)


def test_logdet_finite_singular():
    g2 = build_quotient_group(ZdQuotient((2,)))
    f = FiniteGroupRingElem(g2, [1, 1])  # det rho = 0
    with pytest.raises(SingularRho):
        logdet_finite(f, 2, 6)


def test_logdet_finite_singular_padic_coefficients():
    g2 = build_quotient_group(ZdQuotient((2,)))
    one = Padic.one(2, 12)
    with pytest.raises(SingularRho, match=r"^det rho = 0 mod p\^9: cannot certify invertibility$"):
        logdet_finite(FiniteGroupRingElem(g2, [one, one]), 2, 6)


# -- coefficients known only to O(p^k) --------------------------------------------------


def test_trlog_refuses_a_term_known_only_to_O_p_k_on_every_group():
    # 1 + 3t + O(3^2) t^-1: the series at prec 8 needs that coefficient mod 3^10
    f = LaurentPoly(1, {(0,): 1, (1,): 3, (-1,): Padic.zero(3, 2)})
    messages = set()
    for g in (f, reduce_to_quotient(f, ZdQuotient((5,))), RingMatrix([[f]])):
        with pytest.raises(IndistinguishableAtPrecision) as err:
            tr_log_one_unit(g, 3, 8)
        messages.add(str(err.value))
    assert messages == {"coefficient known only to O(p^2), need mod p^10"}
    # a bound past the working precision is read as 0, on both rings
    sharp = LaurentPoly(1, {(0,): 1, (1,): 3, (-1,): Padic.zero(3, 12)})
    want = tr_log_one_unit(1 + 3 * T, 3, 8)
    assert tr_log_one_unit(sharp, 3, 8) == want
    q = ZdQuotient((5,))
    assert tr_log_one_unit(reduce_to_quotient(sharp, q), 3, 8) == tr_log_one_unit(
        reduce_to_quotient(1 + 3 * T, q), 3, 8
    )


def test_coeff_int_mod_branches():
    assert _coeff_int_mod(Padic.zero(3), 3, 5) == 0
    assert _coeff_int_mod(Padic.zero(3, 5), 3, 5) == 0
    assert _coeff_int_mod(Padic.from_rational(-9, 1, 3, 6), 3, 5) == -9 % 3**5
    assert _coeff_int_mod(Fraction(1, 2), 3, 2) == 5
    with pytest.raises(IndistinguishableAtPrecision, match=r"^coefficient carries 3 digits, need 5$"):
        _coeff_int_mod(Padic.from_rational(9, 1, 3, 1), 3, 5)
    with pytest.raises(DomainMismatch, match=r"^coefficient has negative valuation$"):
        _coeff_int_mod(Padic.from_rational(1, 3, 3, 6), 3, 5)
    with pytest.raises(DomainMismatch, match=r"^unsupported coefficient type float$"):
        _coeff_int_mod(1.5, 3, 5)
