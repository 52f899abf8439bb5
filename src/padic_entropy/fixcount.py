"""Fixed-point counts of principal algebraic actions over finite quotients.

The count for a quotient G is |det rho(f)|, where rho is the regular
representation of the reduced element; a vanishing determinant means the
fixed-point set is infinite.  rho splits over irreducible representations,
so ``quotient_det`` takes the determinant as a product of small blocks read
straight from the Laurent exponents -- no group table, no |G| x |G| matrix:

* Z^d / (n_1, ..., n_d): one r x r block f(zeta^j) per character tuple j
  (the character product of Lind-Schmidt-Ward);
* the Heisenberg group mod n: A = {(0, b, c)} is an abelian normal subgroup
  with cyclic quotient, so rho is the sum over the n^2 characters chi of A
  of the induced representations Ind chi, each of degree n (Clifford
  theory): n^2 blocks of size rn.

The blocks have entries in Z[zeta_L], L = lcm(n_i) or n.  They are evaluated
in prime fields F_q with q = 1 mod L (primes just above 2^59), where zeta_L
is an element of exact order L, and the signed integer is rebuilt by CRT
from enough primes to exceed twice the bound prod_s (sum_t ||f_st||_1)^|G|.
That bound is the product of the l1 norms of the rows of the dense rho
matrix, so it holds for any group.

DEFAULT_SIZE_CAP (from ``groupring``) bounds r * |G|, the size of the dense
rho matrix.  The block route never builds that matrix, but the cap still
bounds the exponent of the CRT bound (so the number of primes) and the size
of the dense cross-check that the CLI and the tests run against it.

``det_exact`` (fraction-free Bareiss below size 64, Hadamard bound +
word-sized primes + CRT above) stays as that dense oracle and serves the
finite-group formula in ``detlog``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from ._primes import factorize_small, is_prime, primes_one_mod, word_primes
from ._util import vp_int
from .errors import (
    DomainMismatch,
    InfiniteFixedPointSet,
    NonAbelianQuotient,
    NotPrime,
)
from .groupring import (
    DEFAULT_SIZE_CAP,
    HeisenbergQuotient,
    LaurentPoly,
    RingMatrix,
    ZdQuotient,
    as_quotient,
    check_fits,
)
from .padic import Padic, padic_log

DEFAULT_PREC = 8
_BAREISS_MAX = 64


def _det_bareiss(m) -> int:
    """Fraction-free elimination; every division below is exact."""
    a = [[int(x) for x in row] for row in m]
    n = len(a)
    if n == 0:
        return 1
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for r in range(k + 1, n):
                if a[r][k]:
                    a[k], a[r] = a[r], a[k]
                    sign = -sign
                    break
            else:
                return 0
        pk = a[k][k]
        for i in range(k + 1, n):
            aik = a[i][k]
            rowi, rowk = a[i], a[k]
            for j in range(k + 1, n):
                rowi[j] = (rowi[j] * pk - aik * rowk[j]) // prev
            rowi[k] = 0
        prev = pk
    return sign * a[n - 1][n - 1]


def _det_mod_prime(a64: np.ndarray, q: int) -> int:
    a = np.mod(a64, q).astype(np.int64)
    n = a.shape[0]
    det = 1
    sign = 1
    for c in range(n):
        col = a[c:, c]
        nz = np.nonzero(col)[0]
        if nz.size == 0:
            return 0
        r = c + int(nz[0])
        if r != c:
            a[[c, r]] = a[[r, c]]
            sign = -sign
        piv = int(a[c, c])
        det = det * piv % q
        inv = pow(piv, -1, q)
        rows = a[c + 1 :, c]
        nzr = np.nonzero(rows)[0]
        if nzr.size:
            factors = rows[nzr] * inv % q
            a[c + 1 + nzr, c:] = (a[c + 1 + nzr, c:] - factors[:, None] * a[c, c:]) % q
    return det * sign % q


def _crt_signed(primes, bound: int, residue_fn) -> int:
    """The integer x with |x| <= bound and x = residue_fn(q) mod q.

    Takes primes from the iterable until their product exceeds 2 * bound,
    combines the residues by CRT and lifts to the symmetric range.
    """
    primes = iter(primes)
    r, mod = 0, 1
    while mod <= 2 * bound:
        q = next(primes)
        t = (residue_fn(q) - r) * pow(mod, -1, q) % q
        r, mod = r + mod * t, mod * q
    return r - mod if r > mod // 2 else r


def _det_crt(m) -> int:
    rows = [[int(x) for x in row] for row in m]
    # Hadamard: det^2 <= prod of row square-sums
    bound_sq = 1
    for row in rows:
        s = sum(x * x for x in row)
        if s == 0:
            return 0
        bound_sq *= s
    a64 = np.array(rows, dtype=object)
    bound = math.isqrt(bound_sq - 1) + 1
    return _crt_signed(word_primes(), bound, lambda q: _det_mod_prime(a64, q))


def det_exact(m) -> int:
    """Exact determinant of a square integer matrix.

    Bareiss below size 64, CRT reconstruction above; both are exposed for
    cross-testing as _det_bareiss / _det_crt.
    """
    n = len(m)
    if n and len(m[0]) != n:
        raise DomainMismatch("matrix must be square")
    if n < _BAREISS_MAX:
        return _det_bareiss(m)
    return _det_crt(m)


def _det_mod(m, q: int) -> int:
    """Determinant of a small square matrix of integers modulo the prime q."""
    a = [[x % q for x in row] for row in m]
    n = len(a)
    det = 1
    for c in range(n):
        for r in range(c, n):
            if a[r][c]:
                break
        else:
            return 0
        if r != c:
            a[c], a[r] = a[r], a[c]
            det = -det
        prow = a[c]
        det = det * prow[c] % q
        if c + 1 == n:
            break
        inv = pow(prow[c], -1, q)
        tail = prow[c + 1 :]
        for row in a[c + 1 :]:
            if row[c]:
                k = row[c] * inv % q
                row[c + 1 :] = [(x - k * y) % q for x, y in zip(row[c + 1 :], tail)]
    return det % q


def _roots_of_unity(q: int, n: int) -> int:
    """Element of exact multiplicative order n in F_q (needs n | q-1)."""
    facs = list(factorize_small(n))
    for g in itertools.count(2):
        z = pow(g, (q - 1) // n, q)
        if all(pow(z, n // ell, q) != 1 for ell in facs):
            return z
    raise AssertionError("unreachable")


def _character_blocks(F: RingMatrix, q):
    """(L, blocks) with det rho(F) = prod over blocks of det(block at zeta_L).

    A block is (size, cells); a cell (i, j, k, c) adds c * zeta_L^k to entry
    (i, j).  Nothing here depends on the prime the blocks are evaluated in.
    """
    check_fits(q, _laurent_dim(F))
    cells = [
        (s, t, e, c)
        for s, row in enumerate(F.entries)
        for t, entry in enumerate(row)
        for e, c in entry.terms.items()
    ]
    r = F.r
    if isinstance(q, ZdQuotient):
        L = math.lcm(*q.moduli)
        steps = [L // n for n in q.moduli]
        weighted = [(s, t, [x * w for x, w in zip(e, steps)], c) for s, t, e, c in cells]
        blocks = [
            (r, [(s, t, sum(x * j for x, j in zip(w, jvec)) % L, c) for s, t, w, c in weighted])
            for jvec in itertools.product(*(range(n) for n in q.moduli))
        ]
        return L, blocks
    n = q.n
    words = [(s, t, *(tuple(e) + (0, 0))[:3], c) for s, t, e, c in cells]
    # x^a y^b z^c is the group element (a, b, ab + c); on the basis
    # x^k (x) v of Ind chi_{beta,gamma} it sends x^k to x^(a+k) times the
    # element (0, b, c - kb) of A.
    blocks = [
        (
            r * n,
            [
                (s * n + (a + k) % n, t * n + k, (beta * b + gamma * (cz - k * b)) % n, c)
                for s, t, a, b, cz, c in words
                for k in range(n)
            ],
        )
        for beta in range(n)
        for gamma in range(n)
    ]
    return n, blocks


def _laurent_dim(F: RingMatrix) -> int:
    if not isinstance(F.entries[0][0], LaurentPoly):
        raise DomainMismatch("can only reduce Laurent data")
    return F.entries[0][0].d


def _l1_bound(F: RingMatrix, order: int) -> int:
    """prod_s (sum_t ||F_st||_1)^order: bounds |det rho(F)| for |G| = order."""
    per_point = 1
    for row in F.entries:
        per_point *= max(sum(abs(c) for e in row for c in e.terms.values()), 1)
    return max(per_point, 2) ** order


def quotient_det(f, q) -> int:
    """Signed integer det rho(f) for a ZdQuotient or a HeisenbergQuotient.

    Read from the Laurent exponents block by block (character tuples for
    Z^d, induced characters for Heisenberg), modulo primes q = 1 mod L, and
    rebuilt by CRT; it equals the dense det_exact(rho_matrix(...)) of the
    reduced element, sign included.
    """
    F = RingMatrix.wrap(f)
    _require_integer_coeffs(F)
    L, blocks = _character_blocks(F, q)

    def residue(prime: int) -> int:
        z = _roots_of_unity(prime, L)
        zpow = [1] * L
        for k in range(1, L):
            zpow[k] = zpow[k - 1] * z % prime
        total = 1
        for size, block in blocks:
            m = [[0] * size for _ in range(size)]
            for i, j, k, c in block:
                m[i][j] += c * zpow[k]
            total = total * _det_mod(m, prime) % prime
        return total

    return _crt_signed(primes_one_mod(L), _l1_bound(F, q.index), residue)


@dataclass
class FixCountRecord:
    """One quotient's exact fixed-point count with p-adic bookkeeping."""

    quotient: dict
    label: str
    index: int
    fix_count: int
    det_sign: int
    p: int
    p_valuation: int
    unit_residue: int
    unit_log: Padic
    normalized: Padic

    def to_json(self) -> dict:
        return {
            "quotient": self.quotient,
            "label": self.label,
            "index": self.index,
            "fix_count": str(self.fix_count),
            "det_sign": self.det_sign,
            "p": self.p,
            "p_valuation": self.p_valuation,
            "unit_residue": str(self.unit_residue),
            "unit_log": self.unit_log.to_json(),
            "normalized": self.normalized.to_json(),
        }

    @classmethod
    def from_json(cls, doc: dict) -> "FixCountRecord":
        return cls(
            quotient=doc["quotient"],
            label=doc["label"],
            index=doc["index"],
            fix_count=int(doc["fix_count"]),
            det_sign=doc["det_sign"],
            p=doc["p"],
            p_valuation=doc["p_valuation"],
            unit_residue=int(doc["unit_residue"]),
            unit_log=Padic.from_json(doc["unit_log"]),
            normalized=Padic.from_json(doc["normalized"]),
        )


def _require_integer_coeffs(f: RingMatrix):
    for row in f.entries:
        for e in row:
            vals = e.terms.values() if isinstance(e, LaurentPoly) else e.coeffs
            for c in vals:
                if not isinstance(c, int):
                    raise DomainMismatch("fixed-point counts need integer coefficients")


def check_quotient(f, q, p: int) -> RingMatrix:
    """Raise what ``fix_count(f, q, p)`` raises before any determinant work.

    That is a non-prime p, the size cap on r * |G|, non-integer coefficients
    and a quotient that does not fit f.  Returns f as a RingMatrix.
    """
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    F = RingMatrix.wrap(f)
    size = F.r * as_quotient(q).index
    if size > DEFAULT_SIZE_CAP:
        raise DomainMismatch(f"rho matrix of size {size} exceeds cap {DEFAULT_SIZE_CAP}")
    _require_integer_coeffs(F)
    check_fits(q, _laurent_dim(F))
    return F


def fix_count(f, q, p: int, prec: int = DEFAULT_PREC) -> FixCountRecord:
    """Exact |Fix| for the quotient q, as |det| of the regular representation.

    det = 0 raises InfiniteFixedPointSet (the fixed-point set really is
    infinite for that quotient).  The record carries v_p, the unit residue,
    log_p of the unit part, and the normalized value unit_log / index.
    """
    F = check_quotient(f, q, p)
    idx = q.index
    det = quotient_det(F, q)
    if det == 0:
        raise InfiniteFixedPointSet(
            f"det rho = 0 on {q.label()}: infinite fixed-point set", quotient=q
        )
    count = abs(det)
    s = vp_int(count, p) if count % p == 0 else 0
    unit = count // p**s
    vq = vp_int(idx, p) if idx % p == 0 else 0
    unit_log = padic_log(Padic.from_rational(unit, 1, p, prec + vq))
    normalized = (unit_log / idx).truncate_abs(prec)
    return FixCountRecord(
        quotient=q.descriptor(),
        label=q.label(),
        index=idx,
        fix_count=count,
        det_sign=1 if det > 0 else -1,
        p=p,
        p_valuation=s,
        unit_residue=unit % p**prec,
        unit_log=unit_log.truncate_abs(prec + vq),
        normalized=normalized,
    )


def fix_count_char_crt(f, moduli) -> int:
    """Signed integer prod over all character tuples of det f(zeta).

    The Z^d case of ``quotient_det``: characters of (Z/n_1) x ... x (Z/n_d)
    are evaluated at roots of unity in prime fields and the signed integer is
    rebuilt by CRT.  Its absolute value is the fix count.
    """
    if isinstance(moduli, HeisenbergQuotient):
        raise NonAbelianQuotient("character products need an abelian quotient")
    if isinstance(moduli, ZdQuotient):
        moduli = moduli.moduli
    moduli = tuple(int(n) for n in moduli)
    if any(n < 1 for n in moduli):
        raise NonAbelianQuotient("moduli must be >= 1")
    F = RingMatrix.wrap(f)
    d = F.entries[0][0].d
    if len(moduli) != d:
        raise DomainMismatch(f"need {d} moduli for a d={d} polynomial")
    return quotient_det(F, ZdQuotient(moduli))
