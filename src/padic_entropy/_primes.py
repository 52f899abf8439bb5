"""Primality testing and prime pools for CRT determinant work.

Deterministic Miller-Rabin: the base set below is known to be exact for all
n < 3.3 * 10^24, far beyond anything we test.
"""

import itertools

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n == q:
            return True
        if n % q == 0:
            return False
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
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


_ONE_MOD_PRIMES: dict[int, list[int]] = {}


def primes_one_mod(modulus: int):
    """Yield the primes q = k*modulus + 1 with k >= 2^59 // modulus,
    ascending in k, cached per modulus.

    Used to evaluate polynomials at roots of unity inside prime fields:
    F_q contains the full group of modulus-th roots of unity.  Finding a
    prime costs a dozen Miller-Rabin rounds, about as much as evaluating a
    small quotient's blocks, so each modulus keeps the primes found so far.
    """
    found = _ONE_MOD_PRIMES.setdefault(modulus, [])
    for i in itertools.count():
        if i == len(found):
            k = (found[-1] - 1) // modulus + 1 if found else max(1, (1 << 59) // modulus)
            while not is_prime(k * modulus + 1):
                k += 1
            found.append(k * modulus + 1)
        yield found[i]


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
