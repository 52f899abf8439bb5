import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padic_entropy import Padic, padic_log
from padic_entropy import padic
from padic_entropy.padic import _ilog, _log_one_unit_int, log_series_cutoff, series_guard
from padic_entropy.errors import (
    IndistinguishableAtPrecision,
    NotPrime,
    PrimeMismatch,
    ZeroDenominator,
    ZeroInput,
)

import helpers

primes = st.sampled_from([2, 3, 5, 7])
small_rationals = st.fractions(
    min_value=Fraction(-500), max_value=Fraction(500), max_denominator=60
).filter(lambda x: x != 0)


def padic_of(x: Fraction, p: int, prec: int = 10) -> Padic:
    return Padic.from_rational(x.numerator, x.denominator, p, prec)


# -- construction -------------------------------------------------------------


def test_make_examples():
    a = Padic.from_rational(1, 3, 2, 4)
    assert (a.v, a.u) == (0, 11)  # 3*11 = 1 mod 16
    b = Padic.from_rational(8, 1, 2, 4)
    assert (b.v, b.u) == (3, 1)
    z = Padic.from_rational(0, 5, 7, 3)
    assert z.is_zero and z.zprec == 3


def test_make_errors():
    with pytest.raises(ZeroDenominator):
        Padic.from_rational(1, 0, 3, 4)
    with pytest.raises(NotPrime):
        Padic.from_rational(1, 1, 6, 4)


def test_canonical_representation():
    assert Padic.from_rational(2, 6, 5, 7) == Padic.from_rational(1, 3, 5, 7)
    assert hash(Padic.from_rational(2, 6, 5, 7)) == hash(Padic.from_rational(1, 3, 5, 7))


def test_mul_examples():
    a = Padic.from_rational(3, 1, 2, 4)
    b = Padic.from_rational(11, 1, 2, 4)
    assert (a * b).u == 1  # 33 = 1 mod 16
    one = Padic.one(2, 4)
    assert a * one == a
    two = Padic.from_rational(2, 1, 2, 6)
    assert (two * two).v == 2 and (two * two).u == 1


def test_inv_examples():
    three = Padic.from_rational(3, 1, 2, 4)
    assert three.inv().u == 11
    assert Padic.one(5, 6).inv() == Padic.one(5, 6)
    p2 = Padic.from_rational(9, 1, 3, 5)
    assert p2.inv().v == -2 and p2.inv().u == 1


def test_prime_mismatch():
    with pytest.raises(PrimeMismatch):
        Padic.one(2, 4) * Padic.one(3, 4)


def test_zero_arithmetic_tracks_precision():
    a = Padic.from_rational(5, 1, 3, 4)
    z = a - a
    assert z.is_zero and z.zprec == 4
    # adding a sharper zero keeps the nonzero value intact
    assert (a + Padic.zero(3, 9)) == a
    # a coarse zero can absorb a high-valuation value
    hi = Padic.from_rational(27, 1, 3, 4)
    s = hi + Padic.zero(3, 2)
    assert s.is_zero and s.zprec == 2


def test_zeros_in_sums_and_products():
    exact, o5 = Padic.zero(3), Padic.zero(3, 5)
    assert exact + exact == exact
    assert exact + o5 == o5 and o5 + exact == o5
    assert exact * Padic.from_rational(5, 1, 3, 4) == exact
    assert Padic.zero(3, 2) * Padic.zero(3, 3) == Padic.zero(3, 5)
    assert Padic.from_int_mod(9, 3, 4) * Padic.zero(3, 2) == Padic.zero(3, 4)


def test_add_fraction():
    a = Padic.from_rational(5, 1, 3, 4)
    assert a + Fraction(0) == a and Fraction(0) + a == a
    assert a + Fraction(1, 2) == Padic.from_rational(11, 2, 3, 4)
    assert Fraction(-5) + a == Padic.zero(3, 4)


def test_eq_mod_raises_when_undecidable():
    z = Padic.zero(3, 2)
    b = Padic.from_rational(27, 1, 3, 4)
    with pytest.raises(IndistinguishableAtPrecision):
        z.eq_mod(b, 5)
    assert z.eq_mod(b, 2)


# -- logarithm -------------------------------------------------------------------


def test_log_of_p_is_zero():
    for p in (2, 3, 5):
        v = padic_log(Padic.from_rational(p, 1, p, 8))
        assert v.is_zero and v.zprec >= 8


def test_log2_of_minus_one_is_zero():
    v = padic_log(Padic.from_rational(-1, 1, 2, 8))
    assert v.is_zero and v.zprec >= 8


def test_log3_of_4_matches_series_oracle():
    # oracle: exact rational partial sums of log(1+3); the tail beyond nu=6
    # has valuation >= 4, so the truncation is exact mod 27
    oracle = helpers.log_series_fraction(Fraction(3), 6)
    expected = helpers.reduce_fraction_mod(oracle, 3, 3)
    got = padic_log(Padic.from_rational(4, 1, 3, 3))
    assert got.lift() % 27 == expected == 21


def test_log_zero_input():
    with pytest.raises(ZeroInput):
        padic_log(Padic.zero(5, 3))


@settings(max_examples=80, deadline=None)
@given(primes, small_rationals, small_rationals)
def test_log_homomorphism(p, x, y):
    a, b = padic_of(x, p), padic_of(y, p)
    assert padic_log(a * b).eq_mod(padic_log(a) + padic_log(b), 9)


@settings(max_examples=40, deadline=None)
@given(primes, small_rationals, st.integers(min_value=1, max_value=5))
def test_log_ignores_valuation(p, x, k):
    a = padic_of(x, p)
    shifted = a * Padic.from_rational(p**k, 1, p, 12)
    assert padic_log(shifted).eq_mod(padic_log(a), 9)


def _log_one_unit_padic(x_int, p, abs_prec):
    """-sum x^nu / nu summed term by term in Padic arithmetic (precision tracked)."""
    x = Padic.from_int_mod(x_int, p, abs_prec)
    if x.is_zero:
        return Padic.zero(p, abs_prec)
    acc, power = Padic.zero(p, None), x
    for nu in range(1, log_series_cutoff(p, abs_prec) + 1):
        acc = acc - power / nu
        power = power * x
    return acc.truncate_abs(abs_prec)


def test_integer_log_series_matches_padic_summation():
    rng = random.Random(41)
    cases = [(p, a, 0) for p in (2, 3, 5, 7) for a in (1, 9)]  # x = 0
    cases += [(p, a, p**a * 5) for p in (2, 3, 5, 7) for a in (1, 7, 40)]  # v(x) >= A
    cases += [(p, 300, p * rng.randrange(p**300)) for p in (2, 3, 5, 7)]
    cases += [(p, 120, p**30 + p**119) for p in (2, 3, 5, 7)]
    for _ in range(60):
        p, a = rng.choice((2, 3, 5, 7)), rng.choice((1, 2, 3, rng.randint(4, 60)))
        v = rng.choice((1, 1, 2, 3, rng.randint(1, a + 1)))
        cases.append((p, a, p**v * rng.randrange(p**a)))
    for p, a, x in cases:
        got = _log_one_unit_int(x, p, a)
        assert got == _log_one_unit_padic(x, p, a), (p, a, x)
        assert got.abs_prec == a


# A test-local copy of the log as it was before the (p-1)*p^k power: the
# Teichmuller representative by the x -> x^p loop, then the full series on
# u / w (on u^2 for p = 2), summed in integers with the terms up to 2 * digits.


def _former_teichmuller_unit(u, p, prec):
    mod = p**prec
    x = u % mod
    for _ in range(prec + 1):
        y = pow(x, p, mod)
        if y == x:
            break
        x = y
    return x


def _former_log(a):
    p, prec = a.p, a.prec
    if p == 2:
        digits = prec + 1
        x = (1 - a.u * a.u) % 2**digits
    else:
        digits = prec
        w = _former_teichmuller_unit(a.u, p, prec)
        x = (1 - a.u * pow(w, -1, p**prec)) % p**prec
    # v_p(x^nu / nu) >= nu - log_p(nu) > nu / 2 >= digits beyond nu = 2 * digits
    last = 2 * digits
    g = _ilog(last, p)
    mod = p ** (digits + g)
    acc, power = 0, x
    for nu in range(1, last + 1):
        k, m = 0, nu
        while m % p == 0:
            m, k = m // p, k + 1
        acc -= power * p ** (g - k) * pow(m, -1, mod)
        power = power * x % mod
    val = acc % mod // p**g  # log(1 - x) modulo p^digits
    if p == 2:
        val //= 2  # log u = log(u^2) / 2, and v_2(log u^2) >= 3
    return Padic.from_int_mod(val, p, prec)


def _random_padic(rng, p, prec, v):
    u = rng.randrange(1, p**prec)
    return Padic._nonzero(p, v, u if u % p else u + 1, prec)


def test_log_equals_former_teichmuller_log():
    rng = random.Random(61)
    cases = [(p, prec) for p in (2, 3, 5, 7, 11) for prec in (1, 2, 3, 4, 9, 16, 17, 256, 300)]
    cases += [(rng.choice((2, 3, 5, 7, 11)), rng.randint(1, 300)) for _ in range(300)]
    for p, prec in cases:
        a = _random_padic(rng, p, prec, rng.randint(-3, 3))
        got, want = padic_log(a), _former_log(a)
        assert (got.v, got.u, got.prec, got.zprec) == (want.v, want.u, want.prec, want.zprec), (
            p, prec, a.v, a.u
        )
    for p in (2, 3, 5, 7, 11):  # roots of unity (log = 0) and 1-units
        for prec in (1, 5, 40):
            for u in (1, p**prec - 1, 1 + p, 1 + p ** (prec - 1)):
                a = Padic._nonzero(p, 0, u % p**prec or 1, prec)
                assert padic_log(a) == _former_log(a), (p, prec, u)


def test_series_cutoff_equals_walk_from_one():
    for p in (2, 3, 5, 7):
        for target in range(-2, 400):
            nu = 1
            while nu - _ilog(nu, p) < target:
                nu += 1
            assert log_series_cutoff(p, target) == nu, (p, target)


@pytest.mark.parametrize(
    "p, n, rule",
    [(2, 1, (1, 1)), (2, 8, (11, 11)), (3, 4, (5, 5)), (3, 8, (10, 10)), (5, 64, (66, 66)),
     (3, 256, (261, 261)), (2, 256, (264, 264))],
)
def test_series_guard_pins(p, n, rule):
    assert series_guard(p, n) == rule


def test_series_guard_is_the_cutoff_and_its_digits():
    for p in (2, 3, 5, 7):
        for n in range(1, 400):
            w, cutoff = series_guard(p, n)
            assert cutoff == log_series_cutoff(p, n)
            # the guard w - n is the largest v_p(nu) of a kept term, nu <= cutoff
            assert w == n + _ilog(cutoff, p) == cutoff, (p, n)


def test_log_takes_no_teichmuller_and_a_short_series(monkeypatch):
    counts = []
    real = padic._neg_sum_over_nu

    def counted(terms, p, digits, g):
        terms = list(terms)
        counts.append(len(terms))
        return real(terms, p, digits, g)

    monkeypatch.setattr(padic, "_neg_sum_over_nu", counted)
    prec = 256
    a = _random_padic(random.Random(63), 3, prec, 0)
    assert padic_log(a) == _former_log(a)
    assert len(counts) == 1 and counts[0] <= 2 * math.isqrt(prec) + 4, counts


# -- square roots (helpers.padic_sqrt, a test oracle) ----------------------------


def test_sqrt_examples():
    s = helpers.padic_sqrt(Padic.from_rational(-15, 1, 2, 12))
    assert (s * s).eq_mod(Padic.from_rational(-15, 1, 2, 12), 10)
    assert s.u % 4 == 1
    assert helpers.padic_sqrt(Padic.one(3, 6)) == Padic.one(3, 6)
    assert helpers.padic_sqrt(Padic.from_rational(9, 1, 7, 6)).u == 3


def test_sqrt_ladder_from_series():
    # the classical approximation ladder for (1+sqrt(-15))/4: each listed
    # rational approximates it to at least one more 2-adic digit
    s = helpers.padic_sqrt(Padic.from_rational(-15, 1, 2, 16))
    alpha = (1 + s) / 4
    for k, (num, den) in enumerate([(1, 2), (-3, 2), (-19, 2), (-83, 2)]):
        diff = alpha - Padic.from_rational(num, den, 2, 16)
        assert diff.valuation() >= k + 1


def test_sqrt_rejects_nonsquares():
    with pytest.raises(ValueError):
        helpers.padic_sqrt(Padic.from_rational(2, 1, 5, 6))  # 2 is not a QR mod 5
    with pytest.raises(ValueError):
        helpers.padic_sqrt(Padic.from_rational(3, 1, 2, 6))  # 3 mod 8
    with pytest.raises(ValueError):
        helpers.padic_sqrt(Padic.from_rational(5, 1, 5, 6))  # odd valuation


@settings(max_examples=60, deadline=None)
@given(primes, small_rationals)
def test_sqrt_squares(p, x):
    sq = padic_of(x, p) * padic_of(x, p)
    s = helpers.padic_sqrt(sq)
    assert (s * s).eq_mod(sq, int(sq.abs_prec) - 1)


# -- ring laws ----------------------------------------------------------------------


@settings(max_examples=80, deadline=None)
@given(primes, small_rationals, small_rationals, small_rationals)
def test_ring_laws(p, x, y, z):
    # exact identities: the difference must be indistinguishable from zero
    # at the full precision the operands prove
    a, b, c = padic_of(x, p), padic_of(y, p), padic_of(z, p)
    assert (((a + b) + c) - (a + (b + c))).is_zero
    assert ((a * b) - (b * a)).is_zero
    assert ((a * (b + c)) - (a * b + a * c)).is_zero
    assert ((a * a.inv()) - 1).is_zero


@settings(max_examples=60, deadline=None)
@given(primes, small_rationals, small_rationals)
def test_add_matches_exact_rationals(p, x, y):
    s = x + y
    a = padic_of(x, p) + padic_of(y, p)
    if s == 0:
        assert a.is_zero
    else:
        k = min(int(a.abs_prec), 8)
        assert a.eq_mod(padic_of(s, p, 14), k)


# -- serialization -------------------------------------------------------------------


def test_json_round_trip():
    vals = [
        Padic.from_rational(22, 7, 3, 9),
        Padic.zero(5, 4),
        Padic.from_rational(-8, 3, 2, 6),
    ]
    for v in vals:
        assert Padic.from_json(v.to_json()) == v


def test_truncate_abs_never_gains():
    a = Padic.from_rational(12, 1, 2, 6)  # v=2, prec 6
    t = a.truncate_abs(4)
    assert t.v == 2 and t.prec == 2
    z = Padic.zero(3, 2)
    assert z.truncate_abs(5).zprec == 2


# -- exact scalars never limit precision ------------------------------------------


@st.composite
def _inexact_values(draw, p):
    """A nonzero value or an O(p^k), valuations and digits in -30..30."""
    v = draw(st.integers(min_value=-30, max_value=30))
    prec = draw(st.integers(min_value=0, max_value=30))
    if prec == 0:
        return Padic.zero(p, v)
    unit = draw(st.integers(min_value=0, max_value=p**prec)) * p + draw(
        st.integers(min_value=1, max_value=p - 1)
    )
    return Padic._nonzero(p, v, unit, prec)


@st.composite
def _exact_scalars(draw, p):
    """A nonzero int or Fraction with a p-adic valuation in about -30..30."""
    num = draw(st.integers(min_value=1, max_value=10**6)) * draw(st.sampled_from([1, -1]))
    e = draw(st.integers(min_value=-30, max_value=30))
    if e >= 0 and draw(st.booleans()):
        return num * p**e
    return Fraction(num, draw(st.integers(min_value=1, max_value=10**6))) * Fraction(p) ** e


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_an_exact_scalar_never_limits_precision(data):
    p = data.draw(primes)
    a = data.draw(_inexact_values(p))
    c = data.draw(_exact_scalars(p))
    if not a.is_zero:
        assert (a * c).prec == a.prec
    assert a * c / c == a
    assert (a + c) - c == a
    if a.is_zero:
        assert (a + c).abs_prec == a.abs_prec


def test_exact_scalars_keep_every_proven_digit():
    a = Padic.from_rational(1, 1, 3, 10)
    assert str(a * 3**20 / 3**20) == "1 + O(3^10)"
    assert str(a + Fraction(1, 3**5)) == "244*3^-5 + O(3^10)"
    assert str(Padic.zero(3, 4) + Fraction(1, 3**7)) == "1*3^-7 + O(3^4)"


def test_an_exact_scalar_divided_by_a_padic():
    x = Padic.from_rational(6, 1, 3, 5)
    assert 1 / x == x.inv()
    assert str(1 / x) == "122*3^-1 + O(3^4)"
    assert Fraction(1, 3) / x == x.inv() / 3
    assert str(Fraction(1, 3) / x) == "122*3^-2 + O(3^3)"
    with pytest.raises(ZeroInput):
        1 / Padic.zero(3, 4)
