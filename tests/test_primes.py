import itertools
import math

import pytest

from padic_entropy import _primes
from padic_entropy._primes import is_prime, pool_root, primes_one_mod
from padic_entropy.errors import NotPrime
from padic_entropy.fixcount import fix_count
from padic_entropy.groupring import HeisenbergQuotient, LaurentPoly, ZdQuotient

X = LaurentPoly.monomial((1, 0))
Y = LaurentPoly.monomial((0, 1))
F_FAMILY = 1 + 3 * X + 3 * Y + 3 * LaurentPoly.monomial((-1, -1))

# OEIS A014233: psi_k is the least odd n that is a strong pseudoprime to
# each of the first k prime bases
PSI = [
    2047,
    1373653,
    25326001,
    3215031751,
    2152302898747,
    3474749660383,
    341550071728321,
    341550071728321,
    3825123056546413051,
    3825123056546413051,
    3825123056546413051,
    318665857834031151167461,
    3317044064679887385961981,
]
FIRST_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53)


def _strong_probable_prime(n, bases=FIRST_PRIMES):
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        if all(pow(x, 2**i, n) != n - 1 for i in range(1, s)):
            return False
    return True


def _order(z, q, order):
    """True if z has exact multiplicative order ``order`` mod q."""
    return pow(z, order, q) == 1 and all(
        pow(z, order // ell, q) != 1 for ell in range(2, order + 1)
        if order % ell == 0 and all(ell % d for d in range(2, ell))
    )


# -- is_prime ---------------------------------------------------------------------


def test_is_prime_agrees_with_a_sieve():
    limit = 200_000
    sieve = bytearray([1]) * limit
    sieve[0] = sieve[1] = 0
    for i in range(2, math.isqrt(limit) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytearray(len(range(i * i, limit, i)))
    assert [n for n in range(-3, limit) if is_prime(n)] == [
        n for n in range(limit) if sieve[n]
    ]


@pytest.mark.parametrize("k, psi", list(enumerate(PSI[:-1], 1)))
def test_strong_pseudoprimes_below_psi13_are_rejected(k, psi):
    # psi_12 = 399165290221 * 798330580441 passed the former twelve bases
    assert not is_prime(psi)


def test_primality_above_psi13_is_refused():
    for n in (PSI[-1], 2**89 - 1, 2**107 - 1):
        with pytest.raises(NotPrime, match="cannot be certified") as exc:
            is_prime(n)
        assert exc.value.code == "NOT_PRIME"
    # a factor among the bases still decides it
    assert not is_prime(PSI[-1] + 2) and not is_prime(3 * 2**89)


def test_large_primes_accepted():
    assert is_prime(2**61 - 1) and is_prime(2**31 - 1)
    assert not is_prime(2**61 + 1)


def test_fewest_bases_per_bound(monkeypatch):
    seen = []

    class Bases(tuple):
        def __getitem__(self, key):
            out = tuple.__getitem__(self, key)
            seen.append(len(out))
            return out

    monkeypatch.setattr(_primes, "_MR_BASES", Bases(_primes._MR_BASES))
    # none has a factor among the bases, so each reaches Miller-Rabin
    for n in (2**31 - 1, 2**61 - 1, 2**79 - 1):
        is_prime(n)
    assert seen == [4, 9, 13]


# -- the prime pool ---------------------------------------------------------------------


def _mixed_orders():
    pairs = [(4, 6), (16, 24), (3, 64), (25, 27), (23, 2), (9, 49), (32, 5), (11, 13)]
    return [math.lcm(a, b) for a, b in pairs]


@pytest.mark.parametrize("orders", [range(1, 65), _mixed_orders()], ids=["1..64", "mixed"])
def test_pool_primes_carry_roots_of_exact_order(orders):
    for L in orders:
        for q in itertools.islice(primes_one_mod(L), 2):
            assert (q - 1) % L == 0 and q >= 2**59
            assert _strong_probable_prime(q)
            assert _order(pool_root(q, L), q, L)


def test_orders_dividing_lcm_1_to_22_share_their_first_prime():
    m0 = math.lcm(*range(1, 23))
    orders = [*range(1, 23), 144, 5040, 720720, m0]
    assert all(m0 % L == 0 for L in orders)
    assert len({next(primes_one_mod(L)) for L in orders}) == 1
    assert next(primes_one_mod(23)) != next(primes_one_mod(1))


def test_a_prime_outside_the_pools_has_no_root():
    # 7 and 101 are = 1 mod these orders but in no pool
    for q, L in ((7, 3), (101, 4), (101, 25)):
        with pytest.raises(ValueError):
            pool_root(q, L)


def _cold_pool(monkeypatch):
    """Empty pools and a counter on the prime searches' primality tests."""
    monkeypatch.setattr(_primes, "_POOLS", {})
    monkeypatch.setattr(_primes, "_POOL_ROOTS", {})
    calls = []
    real = _primes.is_prime

    def counting(n):
        calls.append(n)
        return real(n)

    monkeypatch.setattr(_primes, "is_prime", counting)
    return calls


def test_a_cold_family_tests_few_candidates(monkeypatch):
    # one pool per order took 867 primality tests over (Z/n)^2, n = 1..20,
    # and 338 over heis:2..8
    calls = _cold_pool(monkeypatch)
    for n in range(1, 21):
        fix_count(F_FAMILY, ZdQuotient((n, n)), 3)
    assert len(calls) <= 20
    calls = _cold_pool(monkeypatch)
    for n in range(2, 9):
        fix_count(F_FAMILY, HeisenbergQuotient(n), 3)
    assert len(calls) <= 20

