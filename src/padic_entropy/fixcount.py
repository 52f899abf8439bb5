"""Fixed-point counts of principal algebraic actions over finite quotients.

The count for a quotient G is |det rho(f)|, where rho is the regular
representation of the reduced element; a vanishing determinant means the
fixed-point set is infinite.  rho splits over irreducible representations,
so ``quotient_det`` takes the determinant as a product of small blocks read
straight from the Laurent exponents -- no group table, no |G| x |G| matrix:

* Z^d / (n_1, ..., n_d): one r x r block f(zeta^j) per character tuple j
  (the character product of Lind-Schmidt-Ward);
* the Heisenberg group mod n: A = {(0, b, c)} is an abelian normal subgroup
  with cyclic quotient, so rho is the sum over the n^2 characters
  chi_{beta,gamma} of A of the induced representations Ind chi, each of
  degree n (Clifford theory): n^2 blocks of size rn.  Most of them are
  isomorphic.  Conjugation by x sends chi_{beta,gamma} to
  chi_{beta-gamma,gamma}, so det Ind chi_{beta,gamma} depends only on
  (beta mod g, gamma), g = gcd(gamma, n), and each such class occurs n/g
  times.  For gamma = 0, Ind chi_{beta,0} is the sum over alpha of the
  characters psi_{alpha,beta} of G/Z = (Z/n)^2, so the gamma = 0 blocks
  together are the Z^2 case for f(x, y, 1).  What is left is one block of
  size rn per class with gamma != 0, Pillai(n) - n = sum_k gcd(k, n) - n
  of them.

The blocks have entries in Z[zeta_L], L = lcm(n_i) or n, and every
exponent of zeta_L in a block is linear in the block's label j (a character
tuple, or (beta, gamma)).  So the Galois group (Z/L)^* acts on the labels
by j -> u * j and sends block j to its conjugate block u * j (on the
Heisenberg classes, by u * (beta, gamma) = (u beta mod g, u gamma)).  Over
one orbit, whose label j has order m, the product of the block determinants
is the norm from Q(zeta_m) to Q of det(block j): a rational integer.  An
entry of a block is a sum of c * zeta^k over its cells, so Hadamard's
inequality bounds the square of every conjugate determinant by
H = prod_rows sum_cols (sum of |c| over the entry's cells)^2.  The cell
positions do not depend on the label, so one H serves the whole quotient,
and an orbit of phi(m) blocks has |norm| <= ceil(H^(phi(m)/2)); H = 0 (a
row with no cell) proves every block singular.
``quotient_det`` lists one label per orbit (``_galois_orbits`` walks the
orbits coordinate by coordinate, so its work follows the number of orbits,
not of labels), evaluates the orbit's norm in F_q with zeta_L of exact
order L there, and multiplies the norms, stopping at the first that
vanishes.  Each norm is rebuilt by CRT over as many primes as its bound
needs, so a norm whose bound fits under the first prime q is that one
residue lifted to the symmetric range.  The primes come from the pool of
``primes_one_mod``: q = 1 mod M = lcm(L, lcm(1..22)), at least 2^59, so
every quotient of a family whose L divides lcm(1..22) shares the same few
primes, and zeta_L is a power of the one root of exact order M that the
pool keeps for q.  Each block is thus evaluated once per prime its own
orbit needs, not once per prime of the whole group's bound.  On Heisenberg
the class orbits of one g run through that loop once, and their product is
raised to the power n/g.  A 1 x 1 block (every character of Z^d when
r = 1) is evaluated as its one entry, summed inline for each unit of its
orbit, with no matrix.  A block of size n >= 3 whose cells all lie on the
cyclic tridiagonal (a Heisenberg block of a scalar whose words have
x-exponents in {-1, 0, 1}, and every 3 x 3 block) is taken in O(n) by a
product of 2 x 2 transfer matrices, with no division; any other block goes
through O(n^3) elimination.  The bounds multiply to at most the l1 bound
of the dense rho matrix, prod_s (sum_t ||f_st||_1)^|G|, and to exactly
that bound for r = 1 on Z^d; on Heisenberg they are smaller, so fewer
primes are needed.

DEFAULT_SIZE_CAP (from ``groupring``) bounds r * |G|, the size of the dense
rho matrix.  The block route never builds that matrix, but the cap still
bounds the exponent of the CRT bound (so the number of primes) and the size
of the dense cross-check that the CLI and the tests run against it.

``det_exact`` (fraction-free Bareiss below size 64; above it word-sized
primes + CRT under ``_norm_bound`` of the Hadamard row product, the budget
of a one-block orbit) stays as that dense oracle and serves the
finite-group formula in ``detlog``.  Only its CRT branch uses numpy, which
it imports when called, so the block route runs without loading numpy.
"""

from __future__ import annotations

import math
import operator

from ._primes import pool_root, primes_one_mod, word_primes
from ._util import Record, require_prec, require_prime, vp_int
from .errors import (
    DomainMismatch,
    InfiniteFixedPointSet,
    NonAbelianQuotient,
)
from .groupring import (
    DEFAULT_SIZE_CAP,
    HeisenbergQuotient,
    LaurentPoly,
    RingMatrix,
    ZdQuotient,
    _GroupRingElem,
    as_quotient,
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


def _det_mod_prime(a64, q: int) -> int:
    """Determinant modulo the prime q of a square numpy array of integers."""
    import numpy as np

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
    import numpy as np

    rows = [[int(x) for x in row] for row in m]
    # Hadamard: det^2 <= prod of row square-sums, 0 when a row is zero
    square = math.prod(sum(x * x for x in row) for row in rows)
    if square == 0:
        return 0
    a64 = np.array(rows, dtype=object)
    bound = _norm_bound(square, 1)
    return _crt_signed(word_primes(), bound, lambda q: _det_mod_prime(a64, q))


def det_exact(m) -> int:
    """Exact determinant of a square integer matrix.

    Bareiss below size 64, CRT reconstruction above; both are exposed for
    cross-testing as _det_bareiss / _det_crt.
    """
    n = len(m)
    if any(len(row) != n for row in m):
        raise DomainMismatch("matrix must be square")
    if n < _BAREISS_MAX:
        return _det_bareiss(m)
    return _det_crt(m)


def _det_mod(m, q: int) -> int:
    """Determinant of a small square matrix of integers modulo the prime q.

    Elimination without division: a row is replaced by piv * row - k *
    pivot_row, which scales the determinant by piv, and the scales are
    divided out with one modular inverse at the end.
    """
    a = [[x % q for x in row] for row in m]
    n = len(a)
    det = scale = 1
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
        piv = prow[c]
        det = det * piv % q
        if c + 1 == n:
            break
        tail = prow[c + 1 :]
        for row in a[c + 1 :]:
            k = row[c]
            if k:
                row[c + 1 :] = [(piv * x - k * y) % q for x, y in zip(row[c + 1 :], tail)]
                scale = scale * piv % q
    return det * pow(scale, -1, q) % q


def _character_blocks(F: RingMatrix, q):
    """(L, labels, block) with det rho(F) = prod over j of det(block(j) at zeta_L).

    The labels j run over (Z/labels[0]) x (Z/labels[1]) x ...; block(j) is
    (size, cells), and a cell (i, j, k, c) adds c * zeta_L^k to entry (i, j).
    Every k is linear in j, so block(u * j) is block(j) with zeta_L^u in
    place of zeta_L.  Nothing here depends on the prime the blocks are
    evaluated in.
    """
    as_quotient(q).check_fits(_laurent_dim(F))
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

        def character(jvec):
            return r, [(s, t, sum(map(operator.mul, w, jvec)) % L, c) for s, t, w, c in weighted]

        return L, q.moduli, character
    n = q.n
    words = [(s, t, *(tuple(e) + (0, 0))[:3], c) for s, t, e, c in cells]

    # x^a y^b z^c is the group element (a, b, ab + c); on the basis
    # x^k (x) v of Ind chi_{beta,gamma} it sends x^k to x^(a+k) times the
    # element (0, b, c - kb) of A.
    def induced(label):
        beta, gamma = label
        return r * n, [
            (s * n + (a + k) % n, t * n + k, (beta * b + gamma * (cz - k * b)) % n, c)
            for s, t, a, b, cz, c in words
            for k in range(n)
        ]

    return n, (n, n), induced


def _coordinate_minima(n: int, g: int) -> list[tuple[int, int]]:
    """(x, order of x) for the least element x of each orbit of U_g on Z/n,
    ascending, where U_g = {u in (Z/L)^* : u = 1 mod g} and g divides n.

    An x of order e is d * y with d = n / e and y a unit mod e, and U_g
    moves y through the units of Z/e that are = y mod h, h = gcd(g, e) (its
    image in (Z/e)^* is the kernel of reduction mod h).  So each order e
    gives one orbit per unit class c mod h, whose least element is d times
    the least unit of Z/e that is = c mod h.  For g = 1 that is one orbit
    per divisor: 0 and the divisors n / e < n.
    """
    minima = []
    for e in range(1, n + 1):
        if n % e:
            continue
        h = math.gcd(g, e)
        for c in range(h):
            if math.gcd(c, h) == 1:
                y = c
                while math.gcd(y, e) != 1:
                    y += h
                minima.append((n // e * y, e))
    minima.sort()
    return minima


def _galois_orbits(labels) -> list[tuple[tuple[int, ...], list[int]]]:
    """The orbits of (Z/L)^* acting on prod_i Z/labels[i] by j -> u * j.

    One (j, units) per orbit, in order of first label: j has order m (the
    lcm of the orders of its coordinates), and the orbit is {u * j : u in
    units} with units = (Z/m)^*, so it holds phi(m) labels, each once.

    The first label of an orbit is its least label in row-major order, and
    it is found coordinate by coordinate.  j_1 is the least element of its
    orbit under (Z/L)^* on Z/labels[0]; the units that fix it are those
    = 1 mod the order of j_1, and j_2 is the least element of its orbit
    under them, and so on: after coordinates 1..i the group left is
    U_m = {u = 1 mod m}, m the lcm of their orders, and it acts on
    Z/labels[i] as U_gcd(m, labels[i]) does (``_coordinate_minima``).  So
    the work follows the number of orbits, not of labels.  The minima are
    listed once per (modulus, gcd) and each unit group once per order m,
    shared by its orbits.
    """
    level: list[tuple[tuple[int, ...], int]] = [((), 1)]
    minima: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for n in labels:
        extended = []
        for j, m in level:
            key = (n, math.gcd(m, n))
            if key not in minima:
                minima[key] = _coordinate_minima(*key)
            extended += [(j + (x,), math.lcm(m, e)) for x, e in minima[key]]
        level = extended
    unit_groups: dict[int, list[int]] = {}
    orbits = []
    for j, m in level:
        if m not in unit_groups:
            unit_groups[m] = [u for u in range(1, m + 1) if math.gcd(u, m) == 1]
        orbits.append((j, unit_groups[m]))
    return orbits


def _laurent_dim(F: RingMatrix) -> int:
    if not isinstance(F.entries[0][0], LaurentPoly):
        raise DomainMismatch("can only reduce Laurent data")
    return F.entries[0][0].d


def _hadamard_square(size: int, cells) -> int:
    """prod_rows sum_cols (sum |c| over the cells of that entry)^2.

    Whatever the root of unity, every entry of the block has absolute value
    at most its sum of |c|, so by Hadamard's inequality the square of the
    block's determinant, and of each of its Galois conjugates, is at most
    this.  It is 0 exactly when some row has no cell, and then every block
    with these cell positions is singular.
    """
    weight: dict[tuple[int, int], int] = {}
    for i, j, _, c in cells:
        weight[i, j] = weight.get((i, j), 0) + abs(c)
    rows = [0] * size
    for (i, _), w in weight.items():
        rows[i] += w * w
    return math.prod(rows)


def _norm_bound(square: int, conjugates: int) -> int:
    """ceil(square^(conjugates/2)): bounds |the product of that many
    determinants|, each of square at most ``square``."""
    power = square**conjugates
    root = math.isqrt(power)
    return root if root * root == power else root + 1


def _cyclic_tridiagonal_det(a, up, dn, q: int) -> int:
    """Determinant modulo q of the n x n matrix, n >= 3, whose nonzero
    entries are a[k] at (k, k), up[k] at (k, k + 1) and dn[k] at (k + 1, k),
    indices mod n.

    It is tr(T_(n-1) ... T_0) - (-1)^n (prod up + prod dn), where
    T_k = [[a[k], -up[k-1] dn[k-1]], [1, 0]]: O(n) and free of division, so a
    vanishing entry needs no pivot search.  The running product keeps its
    two rows; the new bottom row is the old top row.
    """
    top0, top1, bot0, bot1 = 1, 0, 0, 1
    for k, ak in enumerate(a):
        e = up[k - 1] * dn[k - 1]
        top0, bot0 = (ak * top0 - e * bot0) % q, top0
        top1, bot1 = (ak * top1 - e * bot1) % q, top1
    ups = dns = 1
    for u, d in zip(up, dn):
        ups, dns = ups * u % q, dns * d % q
    corners = ups + dns
    return (top0 + bot1 + (corners if len(a) % 2 else -corners)) % q


def _band_slots(size: int, cells):
    """(slot, k, c) for each cell of the block, or None when its size is
    below 3 or a cell lies off its cyclic tridiagonal.

    Slot i holds the entry (i, i), size + i the entry (i, i + 1) and
    2 size + i the entry (i + 1, i), indices mod size.  Every 3 x 3 block
    qualifies.
    """
    if size < 3:
        return None
    slots = []
    for i, j, k, c in cells:
        step = (j - i) % size
        if step == 0:
            slots.append((i, k, c))
        elif step == 1:
            slots.append((size + i, k, c))
        elif step == size - 1:
            slots.append((2 * size + j, k, c))
        else:
            return None
    return slots


def _orbit_residue(size: int, cells, zp: list[int], units, L: int, prime: int) -> int:
    """prod over u in units of det(block (size, cells) at zeta_L^u) in F_prime,
    with zp[k] = zeta_L^k: the residue of an orbit's norm.

    A 1 x 1 block is its one entry, sum c * zeta_L^(u * k), summed inline
    for each unit.  A block of size >= 3 whose cells all lie on the cyclic
    tridiagonal fills its three bands and takes _cyclic_tridiagonal_det; any
    other block is filled in and handed to _det_mod.
    """
    total = 1
    if size == 1:
        terms = [(k, c) for _, _, k, c in cells]
        for u in units:
            entry = 0
            for k, c in terms:
                entry += c * zp[u * k % L]
            total = total * entry % prime
        return total
    slots = _band_slots(size, cells)
    if slots is not None:
        for u in units:
            band = [0] * (3 * size)
            for s, k, c in slots:
                band[s] += c * zp[u * k % L]
            a, up, dn = band[:size], band[size : 2 * size], band[2 * size :]
            total = total * _cyclic_tridiagonal_det(a, up, dn, prime) % prime
        return total
    for u in units:
        m = [[0] * size for _ in range(size)]
        for i, j, k, c in cells:
            m[i][j] += c * zp[u * k % L]
        total = total * _det_mod(m, prime) % prime
    return total


def _class_orbits(n: int) -> list[tuple[int, list[tuple[tuple[int, int], list[int]]]]]:
    """The Galois orbits of the x-conjugacy classes of characters chi_{beta,
    gamma} of A with gamma != 0 mod n, grouped by g = gcd(gamma, n).

    Conjugation by x sends chi_{beta,gamma} to chi_{beta-gamma,gamma}, so a
    class is (beta mod g, gamma) and holds n/g characters.  (Z/n)^* acts on
    the classes by u * (beta, gamma) = (u beta mod g, u gamma mod n), which
    keeps g.  Every class with gcd(gamma, n) = g is u * (beta, g) for some
    unit u, so each orbit is listed as ((beta, g), units), with one unit per
    class of the orbit.  One (g, orbits) per divisor g < n, ascending.
    """
    units = [u for u in range(1, n) if math.gcd(u, n) == 1]
    groups = []
    for g in range(1, n):
        if n % g:
            continue
        seen: set[tuple[int, int]] = set()
        orbits = []
        for beta in range(g):
            if (beta, g) in seen:
                continue
            members = []
            for u in units:
                image = (u * beta % g, u * g % n)
                if image not in seen:
                    seen.add(image)
                    members.append(u)
            orbits.append(((beta, g), members))
        groups.append((g, orbits))
    return groups


def _at_central_one(F: RingMatrix) -> RingMatrix:
    """F(x, y, 1) in two variables: the word x^a y^b z^c read as x^a y^b."""

    def entry(poly: LaurentPoly) -> LaurentPoly:
        terms: dict[tuple[int, int], int] = {}
        for e, c in poly.terms.items():
            ab = (e + (0,))[:2]
            terms[ab] = terms.get(ab, 0) + c
        return LaurentPoly(2, terms)

    return RingMatrix([[entry(x) for x in row] for row in F.entries])


def quotient_det(f, q) -> int:
    """Signed integer det rho(f) for a ZdQuotient or a HeisenbergQuotient.

    It is the product of the Galois-orbit norms of the blocks (see the
    module docstring), or 0 at the first orbit that vanishes, so no block
    after it is evaluated.  It equals det_exact(rho_matrix(...)) of the
    reduced element, sign included.
    """
    F = RingMatrix.wrap(f)
    _require_integer_coeffs(F)
    L, labels, block = _character_blocks(F, q)
    square = _hadamard_square(*block((0,) * len(labels)))
    if square == 0:
        return 0
    powers = {}

    def zpow(prime: int) -> list:
        if prime not in powers:
            z = pool_root(prime, L)
            table = [1] * L
            for k in range(1, L):
                table[k] = table[k - 1] * z % prime
            powers[prime] = table
        return powers[prime]

    def orbit_norm(size: int, cells, units) -> int:
        return _crt_signed(
            primes_one_mod(L),
            _norm_bound(square, len(units)),
            lambda prime: _orbit_residue(size, cells, zpow(prime), units, L, prime),
        )

    def orbit_product(orbits) -> int:
        det = 1
        for j, units in orbits:
            det *= orbit_norm(*block(j), units)
            if det == 0:
                return 0
        return det

    if isinstance(q, ZdQuotient):
        return orbit_product(_galois_orbits(labels))
    det = quotient_det(_at_central_one(F), ZdQuotient((q.n, q.n)))
    for g, orbits in _class_orbits(q.n):
        if det == 0:
            break
        det *= orbit_product(orbits) ** (q.n // g)
    return det


class FixCountRecord(Record):
    """One quotient's exact fixed-point count with p-adic bookkeeping."""

    def __init__(
        self,
        quotient: dict,
        label: str,
        index: int,
        fix_count: int,
        det_sign: int,
        p: int,
        p_valuation: int,
        unit_residue: int,
        unit_log: Padic,
        normalized: Padic,
    ):
        self.quotient = quotient
        self.label = label
        self.index = index
        self.fix_count = fix_count
        self.det_sign = det_sign
        self.p = p
        self.p_valuation = p_valuation
        self.unit_residue = unit_residue
        self.unit_log = unit_log
        self.normalized = normalized

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


def _require_integer_coeffs(f: RingMatrix):
    for row in f.entries:
        for e in row:
            if not isinstance(e, _GroupRingElem):
                raise DomainMismatch("can only reduce Laurent data")
            for c in e.terms.values():
                if not isinstance(c, int):
                    raise DomainMismatch("fixed-point counts need integer coefficients")


def check_quotient(f, q, p: int, prec: int = DEFAULT_PREC) -> RingMatrix:
    """Raise what ``fix_count(f, q, p, prec)`` raises before any determinant work.

    That is a non-prime p, a precision below 1, the size cap on r * |G|,
    non-integer coefficients and a quotient that does not fit f.  Returns f
    as a RingMatrix.
    """
    require_prime(p)
    require_prec(prec)
    F = RingMatrix.wrap(f)
    size = F.r * as_quotient(q).index
    if size > DEFAULT_SIZE_CAP:
        raise DomainMismatch(f"rho matrix of size {size} exceeds cap {DEFAULT_SIZE_CAP}")
    _require_integer_coeffs(F)
    as_quotient(q).check_fits(_laurent_dim(F))
    return F


def log_over_index(x: int, m: int, p: int, prec: int) -> tuple[Padic, Padic]:
    """(log_p x to prec + v_p(m) digits, log_p x / m to prec) for nonzero ints x and m."""
    log = padic_log(Padic.from_rational(x, 1, p, prec + vp_int(m, p)))
    return log, (log / m).truncate_abs(prec)


def fix_count(f, q, p: int, prec: int = DEFAULT_PREC) -> FixCountRecord:
    """Exact |Fix| for the quotient q, as |det| of the regular representation.

    det = 0 raises InfiniteFixedPointSet (the fixed-point set really is
    infinite for that quotient).  The record carries v_p, the unit residue,
    log_p of the unit part, and the normalized value unit_log / index.
    """
    F = check_quotient(f, q, p, prec)
    idx = q.index
    det = quotient_det(F, q)
    if det == 0:
        raise InfiniteFixedPointSet(
            f"det rho = 0 on {q.label()}: infinite fixed-point set", quotient=q
        )
    count = abs(det)
    s = vp_int(count, p)
    unit = count // p**s
    unit_log, normalized = log_over_index(unit, idx, p, prec)
    return FixCountRecord(
        quotient=q.descriptor(),
        label=q.label(),
        index=idx,
        fix_count=count,
        det_sign=1 if det > 0 else -1,
        p=p,
        p_valuation=s,
        unit_residue=unit % p**prec,
        unit_log=unit_log,
        normalized=normalized,
    )


def fix_count_char_crt(f, moduli) -> int:
    """Signed integer prod over all character tuples of det f(zeta).

    The Z^d case of ``quotient_det``: the characters of (Z/n_1) x ... x
    (Z/n_d) fall into Galois orbits, the product over an orbit is an
    integer norm, evaluated at roots of unity in prime fields and rebuilt
    from one residue or by CRT.  Its absolute value is the fix count.
    ``moduli`` is a ZdQuotient or its moduli; ``quotient_det`` checks the fit.
    """
    if isinstance(moduli, HeisenbergQuotient):
        raise NonAbelianQuotient("character products need an abelian quotient")
    if not isinstance(moduli, ZdQuotient):
        moduli = ZdQuotient(tuple(moduli))
    return quotient_det(f, moduli)
