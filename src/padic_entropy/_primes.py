"""Primality testing and prime pools for CRT determinant work.

Deterministic Miller-Rabin: the first k prime bases decide every n below
psi_k, the least strong pseudoprime to all of them (OEIS A014233), so
``is_prime`` uses the fewest leading bases whose psi_k lies above n: 4
below 3215031751 (every ``word_primes`` candidate), 9 below
3825123056546413051 (every pool candidate) and all 13 below psi_13 =
3317044064679887385961981.  Above that no base set is known to be exact,
and ``is_prime`` refuses with NotPrime instead of guessing.

The root-of-unity primes come from one pool per modulus M = lcm(order,
M0), M0 = lcm(1..22): every order that divides M0 (so that of (Z/n)^d and
of heis(n) for every n <= 22) draws from the same few primes, and each
pool prime carries one root of exact order M, found once.
"""

import bisect
import itertools
import math

from .errors import NotPrime

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# psi_k for k = 1..13 (OEIS A014233): the first k bases decide every n < psi_k
_PSI = (
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
)


def is_prime(n: int) -> bool:
    """Exact primality of n below psi_13; NotPrime for anything larger."""
    if n < 2:
        return False
    for q in _MR_BASES:
        if n == q:
            return True
        if n % q == 0:
            return False
    if n >= _PSI[-1]:
        raise NotPrime(
            f"primality of {n} cannot be certified: the Miller-Rabin bases"
            f" are exact only below {_PSI[-1]}"
        )
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES[: bisect.bisect_right(_PSI, n) + 1]:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


_WORD_PRIMES: list[int] = []


def word_primes():
    """Yield the primes just below 2^31 in descending order, cached.

    Residue arithmetic modulo these fits comfortably in int64: products of
    two residues stay below 2^62.
    """
    for i in itertools.count():
        if i == len(_WORD_PRIMES):
            cand = _WORD_PRIMES[-1] - 2 if _WORD_PRIMES else (1 << 31) - 1
            while not is_prime(cand):
                cand -= 2
            _WORD_PRIMES.append(cand)
        yield _WORD_PRIMES[i]


_M0 = 232792560  # lcm(1..22)
_M0_FACTORS = {2: 4, 3: 2, 5: 1, 7: 1, 11: 1, 13: 1, 17: 1, 19: 1}
_POOLS: dict[int, list[int]] = {}
_POOL_ROOTS: dict[tuple[int, int], int] = {}


def primes_one_mod(order: int):
    """Yield the primes q = k*M + 1 >= 2^59, M = lcm(order, M0),
    ascending in k, cached per M.

    Used to evaluate polynomials at roots of unity inside prime fields:
    F_q contains the full group of M-th roots of unity, so of the order-th
    ones.  Finding a prime costs a dozen Miller-Rabin rounds, about as much
    as evaluating a small quotient's blocks; sharing one pool between all
    orders that divide M0 means a family of quotients finds its primes
    once.
    """
    modulus = math.lcm(order, _M0)
    found = _POOLS.setdefault(modulus, [])
    for i in itertools.count():
        if i == len(found):
            k = (found[-1] if found else (1 << 59) - 1) // modulus + 1
            while not is_prime(k * modulus + 1):
                k += 1
            found.append(k * modulus + 1)
        yield found[i]


def pool_root(q: int, order: int) -> int:
    """An element of exact order ``order`` in F_q, for a prime q that
    ``primes_one_mod(order)`` has yielded; ValueError for any other q.

    It is w^(M/order) for the root w of exact order M = lcm(order, M0)
    that the pool keeps for q, found on first use.
    """
    modulus = math.lcm(order, _M0)
    w = _POOL_ROOTS.get((modulus, q))
    if w is None:
        if q not in _POOLS.get(modulus, ()):
            raise ValueError(f"{q} is not a prime of the pool for order {order}")
        factors = dict(_M0_FACTORS)
        for ell, e in factorize_small(order).items():
            factors[ell] = max(e, factors.get(ell, 0))
        w = _POOL_ROOTS[modulus, q] = _root_of_exact_order(q, factors)
    return pow(w, modulus // order, q)


def _root_of_exact_order(q: int, factors: dict[int, int]) -> int:
    """Element of exact order M = prod ell^e over ``factors`` in F_q, M | q-1.

    One element of exact order ell^e per prime power, multiplied: a
    candidate g gives h = g^((q-1)/M), and h^(M/ell^e) serves every part
    that it generates and that is still missing.  q = 1 mod 8 and q = 1 mod
    every odd ell | M make each such ell a square mod q (quadratic
    reciprocity), so a g built from those primes alone is a square and can
    never give the 2-part; the candidates are the g with a prime factor
    outside M.
    """
    modulus = math.prod(ell**e for ell, e in factors.items())
    missing = {ell**e: ell for ell, e in factors.items()}
    candidates = (g for g in itertools.count(2) if _outside_part(g, modulus) > 1)
    w = 1
    while missing:
        h = pow(next(candidates), (q - 1) // modulus, q)
        for part, ell in list(missing.items()):
            y = pow(h, modulus // part, q)
            if pow(y, part // ell, q) != 1:
                w = w * y % q
                del missing[part]
    return w


def _outside_part(g: int, modulus: int) -> int:
    """g with every prime factor it shares with ``modulus`` divided out."""
    c = math.gcd(g, modulus)
    while c > 1:
        g //= c
        c = math.gcd(g, c)
    return g


def factorize_small(n: int) -> dict[int, int]:
    """Trial-division factorization; intended for small n (quotient moduli)."""
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out
