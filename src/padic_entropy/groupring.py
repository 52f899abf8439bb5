"""Group rings: Laurent polynomials on Z^d, explicit finite quotients,
matrices over both, the * involution, sup norms and reduction maps.

Laurent polynomials are sparse dictionaries from exponent vectors to
coefficients (ints, Fractions, or Padic scalars at a shared prime).  Finite
groups are explicit multiplication/inverse tables, verified on construction.
Reduction to a finite quotient folds exponent vectors through the quotient
map and sums coefficients landing in the same coset.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from ._util import vp_fraction
from .errors import (
    DimensionMismatch,
    DomainMismatch,
    InvalidQuotient,
    OrderOverflow,
)
from .padic import Padic

# Bounds r * |G|: the order of a group table and the size of a dense rho matrix.
DEFAULT_SIZE_CAP = 4096
# Distinct quotients whose tables are kept; a family or a selftest run uses fewer.
GROUP_CACHE_SIZE = 32


def _is_scalar(x) -> bool:
    return isinstance(x, (int, Fraction, Padic))


def _coeff_is_zero(c) -> bool:
    if isinstance(c, Padic):
        return c.is_zero
    return c == 0


def _mul_coeff(a, b):
    if isinstance(a, Padic) or isinstance(b, Padic):
        if isinstance(a, Fraction) or isinstance(b, Fraction):
            raise DomainMismatch("cannot mix Fraction and p-adic coefficients")
    return a * b


class LaurentPoly:
    """Finite-support element of the Laurent algebra on Z^d."""

    __slots__ = ("d", "terms")

    def __init__(self, d: int, terms=None):
        if d < 1:
            raise DimensionMismatch("dimension must be >= 1")
        self.d = d
        canon: dict[tuple, object] = {}
        for e, c in (terms or {}).items():
            e = tuple(int(x) for x in e)
            if len(e) != d:
                raise DimensionMismatch(f"exponent {e} has length != {d}")
            if _coeff_is_zero(c):
                continue
            canon[e] = c
        self.terms = canon

    @classmethod
    def constant(cls, c, d: int = 1) -> "LaurentPoly":
        return cls(d, {(0,) * d: c})

    @classmethod
    def monomial(cls, exp, coeff=1, d: int | None = None) -> "LaurentPoly":
        exp = tuple(int(x) for x in exp)
        return cls(d or len(exp), {exp: coeff})

    @classmethod
    def one(cls, d: int = 1) -> "LaurentPoly":
        return cls.constant(1, d)

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, exp):
        return self.terms.get(tuple(exp), 0)

    def constant_coefficient(self):
        return self.terms.get((0,) * self.d, 0)

    def support(self):
        return sorted(self.terms)

    def support_diameter(self) -> int:
        """Max L1 distance between two support exponents (0 if <= 1 term)."""
        sup = list(self.terms)
        best = 0
        for i, a in enumerate(sup):
            for b in sup[i + 1 :]:
                best = max(best, sum(abs(x - y) for x, y in zip(a, b)))
        return best

    def _check_compatible(self, other: "LaurentPoly"):
        if self.d != other.d:
            raise DimensionMismatch(f"d={self.d} vs d={other.d}")

    def __add__(self, other):
        if _is_scalar(other):
            other = LaurentPoly.constant(other, self.d)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        self._check_compatible(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out[e] + c if e in out else c
        return LaurentPoly(self.d, out)

    __radd__ = __add__

    def __neg__(self):
        return LaurentPoly(self.d, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if _is_scalar(other):
            other = LaurentPoly.constant(other, self.d)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if _is_scalar(other):
            return LaurentPoly(
                self.d, {e: _mul_coeff(c, other) for e, c in self.terms.items()}
            )
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        self._check_compatible(other)
        out: dict[tuple, object] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                c = _mul_coeff(c1, c2)
                out[e] = out[e] + c if e in out else c
        return LaurentPoly(self.d, out)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative powers of polynomials are not defined here")
        out = LaurentPoly.one(self.d)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def star(self) -> "LaurentPoly":
        """Involution: exponents negated (group elements inverted)."""
        return LaurentPoly(self.d, {tuple(-x for x in e): c for e, c in self.terms.items()})

    def map_coefficients(self, fn) -> "LaurentPoly":
        return LaurentPoly(self.d, {e: fn(c) for e, c in self.terms.items()})

    def __eq__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.d == other.d and self.terms == other.terms

    def __hash__(self):
        return hash((self.d, frozenset(self.terms.items())))

    def __repr__(self):
        from .poly_io import print_poly

        return print_poly(self)


class FiniteGroup:
    """Explicit finite group of a quotient: indexed elements plus mul/inverse
    tables.

    Group laws are verified exactly on construction, with Light's
    associativity test over the quotient's generators.
    """

    def __init__(self, q):
        mul, elements = q.multiplication_table()
        self.mul = np.asarray(mul, dtype=np.int64)
        self.m = self.mul.shape[0]
        self.elements = list(elements)
        self.descriptor = q.descriptor()
        if self.mul.shape != (self.m, self.m):
            raise InvalidQuotient("multiplication table is not square")
        self.identity = self._find_identity()
        self.inv = self._build_inverse()
        self._verify(np.asarray(q.generators(), dtype=np.int64))

    def _find_identity(self) -> int:
        idx = np.arange(self.m)
        for e in range(self.m):
            if np.array_equal(self.mul[e], idx) and np.array_equal(self.mul[:, e], idx):
                return e
        raise InvalidQuotient("no identity element in table")

    def _build_inverse(self) -> np.ndarray:
        inv = np.full(self.m, -1, dtype=np.int64)
        rows, cols = np.nonzero(self.mul == self.identity)
        inv[rows] = cols
        if np.any(inv < 0):
            raise InvalidQuotient("an element has no inverse")
        for i in range(self.m):
            if self.mul[inv[i], i] != self.identity:
                raise InvalidQuotient("left and right inverses disagree")
        return inv

    def _verify(self, gens: np.ndarray):
        """Light's test: (x g) y == x (g y) for all x, y and each generator g.

        The elements g that pass are closed under products, so once right
        multiplication by the generators reaches every element from the
        identity, the whole table is associative.  Rows are checked one at a
        time: memory stays at the table plus O(len(gens) * m).
        """
        m, mul = self.m, self.mul
        reached = np.zeros(m, dtype=bool)
        reached[self.identity] = True
        frontier = np.array([self.identity])
        while frontier.size:
            hit = np.zeros(m, dtype=bool)
            hit[mul[np.ix_(frontier, gens)]] = True
            frontier = np.flatnonzero(hit & ~reached)
            reached[frontier] = True
        if not reached.all():
            raise InvalidQuotient("the generators do not generate the table")
        g_rows = mul[gens]
        for x in range(m):
            if not np.array_equal(mul[mul[x, gens]], mul[x][g_rows]):
                raise InvalidQuotient(f"associativity fails at element {x}")

    def is_abelian(self) -> bool:
        return np.array_equal(self.mul, self.mul.T)

    def __repr__(self):
        return f"FiniteGroup({self.descriptor}, order={self.m})"


# -- finite quotients ---------------------------------------------------------
#
# A quotient knows its index, its fit rule (which Laurent dimensions it
# reduces), the projection of exponents to element indices and its own
# multiplication table in that same element order.


def _digit_sum_table(moduli, cocycle=None):
    """(table, element digit tuples) of digitwise sums mod ``moduli`` in mixed
    radix, row-major.

    ``cocycle = (u, v)`` adds u[i]*v[j] to the last digit of entry (i, j).
    Built in place: the table and one reused m x m term are all it holds.
    """
    idx = np.arange(math.prod(moduli), dtype=np.int64)
    mul = np.zeros((idx.size, idx.size), dtype=np.int64)
    term = np.empty_like(mul)
    stride = 1
    for k, n in enumerate(reversed(moduli)):
        digit = idx // stride % n
        if k == 0 and cocycle is not None:
            np.multiply.outer(*cocycle, out=term)
            term += digit[:, None]
            term += digit[None, :]
        else:
            np.add.outer(digit, digit, out=term)
        term %= n
        term *= stride
        mul += term
        stride *= n
    return mul, list(itertools.product(*(range(n) for n in moduli)))


@dataclass(frozen=True)
class ZdQuotient:
    """Z^d / (n_1 Z x ... x n_d Z); exponents fold componentwise mod n_i."""

    moduli: tuple

    def __post_init__(self):
        object.__setattr__(self, "moduli", tuple(self.moduli))
        if not self.moduli or any(n < 1 for n in self.moduli):
            raise InvalidQuotient("all moduli must be >= 1")

    @property
    def d(self) -> int:
        return len(self.moduli)

    @property
    def index(self) -> int:
        return math.prod(self.moduli)

    def check_fits(self, d: int):
        if self.d != d:
            raise InvalidQuotient(f"quotient is for Z^{self.d}, polynomial has d={d}")

    def project(self, exp) -> int:
        idx = 0
        for e, n in zip(exp, self.moduli):
            idx = idx * n + (e % n)
        return idx

    def generators(self) -> list[int]:
        """Indices of the unit vectors."""
        return [self.project([int(i == k) for i in range(self.d)]) for k in range(self.d)]

    def multiplication_table(self):
        """Mixed-radix addition table in the row-major order of ``project``."""
        return _digit_sum_table(self.moduli)

    def label(self) -> str:
        return "x".join(f"Z/{n}" for n in self.moduli)

    def descriptor(self) -> dict:
        return {"kind": "zd", "moduli": list(self.moduli)}


@dataclass(frozen=True)
class HeisenbergQuotient:
    """Reduction of the discrete Heisenberg group mod n (matrix entries mod n).

    Laurent exponents (a, b, c) are read as the word x^a y^b z^c, whose
    matrix-entry triple is (a, b, ab + c); dimensions d < 3 pad with zeros.
    """

    n: int

    def __post_init__(self):
        if self.n < 1:
            raise InvalidQuotient("modulus must be >= 1")

    @property
    def index(self) -> int:
        return self.n**3

    def check_fits(self, d: int):
        if d > 3:
            raise InvalidQuotient("Heisenberg reduction needs d <= 3")

    def project(self, exp) -> int:
        a, b, c = (list(exp) + [0, 0, 0])[:3]
        n = self.n
        aa, bb, cc = a % n, b % n, (a * b + c) % n
        return (aa * n + bb) * n + cc

    def generators(self) -> list[int]:
        """Indices of x and y; their commutator is z."""
        return [self.project((1, 0, 0)), self.project((0, 1, 0))]

    def multiplication_table(self):
        """(a,b,c) <-> [[1,a,c],[0,1,b],[0,0,1]] over Z/n, row-major index.

        (a,b,c)(a',b',c') = (a+a', b+b', c+c'+ab'): the digit sums of
        (Z/n)^3 with the cocycle ab' added to the last digit.
        """
        n = self.n
        idx = np.arange(n**3, dtype=np.int64)
        return _digit_sum_table((n, n, n), cocycle=(idx // (n * n), idx // n % n))

    def label(self) -> str:
        return f"heis({self.n})"

    def descriptor(self) -> dict:
        return {"kind": "heisenberg", "n": self.n}


def as_quotient(q):
    """q itself if it is a finite quotient; anything else is refused."""
    if not isinstance(q, (ZdQuotient, HeisenbergQuotient)):
        raise InvalidQuotient(f"unknown quotient spec {q!r}")
    return q


def check_fits(q, d: int):
    """Refuse q unless it is a finite quotient that reduces dimension d."""
    as_quotient(q).check_fits(d)


def build_quotient_group(q) -> FiniteGroup:
    """The verified multiplication table of the quotient q, as a FiniteGroup.

    Orders above DEFAULT_SIZE_CAP are refused before any table is built.
    The last GROUP_CACHE_SIZE groups are cached by quotient.
    """
    if as_quotient(q).index > DEFAULT_SIZE_CAP:
        raise OrderOverflow(f"group order {q.index} exceeds cap {DEFAULT_SIZE_CAP}")
    return _cached_group(q)


@functools.lru_cache(maxsize=GROUP_CACHE_SIZE)
def _cached_group(q) -> FiniteGroup:
    return FiniteGroup(q)


def diagonal_family(d: int, ns) -> list[ZdQuotient]:
    return [ZdQuotient((int(n),) * d) for n in ns]


def heisenberg_family(ns) -> list[HeisenbergQuotient]:
    return [HeisenbergQuotient(int(n)) for n in ns]


# -- finite group ring ---------------------------------------------------------


class FiniteGroupRingElem:
    """Element of R[G] for an explicit finite group: a length-|G| coefficient
    vector in the element basis."""

    __slots__ = ("group", "coeffs")

    def __init__(self, group: FiniteGroup, coeffs):
        coeffs = list(coeffs)
        if len(coeffs) != group.m:
            raise DimensionMismatch("coefficient vector length != group order")
        self.group = group
        self.coeffs = coeffs

    @classmethod
    def zero(cls, group: FiniteGroup):
        return cls(group, [0] * group.m)

    @classmethod
    def one(cls, group: FiniteGroup):
        c = [0] * group.m
        c[group.identity] = 1
        return cls(group, c)

    @classmethod
    def element(cls, group: FiniteGroup, i: int, coeff=1):
        c = [0] * group.m
        c[i] = coeff
        return cls(group, c)

    def is_zero(self) -> bool:
        return all(_coeff_is_zero(c) for c in self.coeffs)

    def constant_coefficient(self):
        return self.coeffs[self.group.identity]

    def _check(self, other):
        if self.group is not other.group and self.group.descriptor != other.group.descriptor:
            raise DomainMismatch("elements live over different groups")

    def __add__(self, other):
        if _is_scalar(other):
            other = FiniteGroupRingElem.one(self.group) * other
        self._check(other)
        return FiniteGroupRingElem(
            self.group, [a + b for a, b in zip(self.coeffs, other.coeffs)]
        )

    __radd__ = __add__

    def __neg__(self):
        return FiniteGroupRingElem(self.group, [-a for a in self.coeffs])

    def __sub__(self, other):
        if _is_scalar(other):
            other = FiniteGroupRingElem.one(self.group) * other
        return self + (-other)

    def __mul__(self, other):
        if _is_scalar(other):
            return FiniteGroupRingElem(
                self.group, [_mul_coeff(a, other) for a in self.coeffs]
            )
        self._check(other)
        mul = self.group.mul
        out = [0] * self.group.m
        for i, a in enumerate(self.coeffs):
            if _coeff_is_zero(a):
                continue
            row = mul[i]
            for j, b in enumerate(other.coeffs):
                if _coeff_is_zero(b):
                    continue
                k = int(row[j])
                out[k] = out[k] + _mul_coeff(a, b)
        return FiniteGroupRingElem(self.group, out)

    def __rmul__(self, other):
        if _is_scalar(other):
            return FiniteGroupRingElem(
                self.group, [_mul_coeff(other, a) for a in self.coeffs]
            )
        return NotImplemented

    def star(self) -> "FiniteGroupRingElem":
        inv = self.group.inv
        out = [0] * self.group.m
        for i, a in enumerate(self.coeffs):
            out[int(inv[i])] = a
        return FiniteGroupRingElem(self.group, out)

    def __eq__(self, other):
        if not isinstance(other, FiniteGroupRingElem):
            return NotImplemented
        return self.group.descriptor == other.group.descriptor and all(
            _coeff_is_zero(a - b) for a, b in zip(self.coeffs, other.coeffs)
        )

    def __repr__(self):
        parts = [
            f"{c}*g{i}" for i, c in enumerate(self.coeffs) if not _coeff_is_zero(c)
        ]
        return " + ".join(parts) if parts else "0"


# -- matrices over a group ring -------------------------------------------------


class RingMatrix:
    """Square matrix over a group ring (Laurent or finite); entries uniform."""

    __slots__ = ("r", "entries")

    def __init__(self, entries):
        entries = [list(row) for row in entries]
        r = len(entries)
        if any(len(row) != r for row in entries):
            raise DimensionMismatch("matrix must be square")
        proto = entries[0][0]
        for row in entries:
            for x in row:
                if isinstance(proto, LaurentPoly):
                    if not isinstance(x, LaurentPoly) or x.d != proto.d:
                        raise DomainMismatch("entries mix dimensions or rings")
                elif isinstance(proto, FiniteGroupRingElem):
                    if (
                        not isinstance(x, FiniteGroupRingElem)
                        or x.group.descriptor != proto.group.descriptor
                    ):
                        raise DomainMismatch("entries mix groups or rings")
        self.r = r
        self.entries = entries

    @classmethod
    def wrap(cls, x) -> "RingMatrix":
        """Lift a bare ring element to a 1x1 matrix (identity on matrices)."""
        if isinstance(x, RingMatrix):
            return x
        return cls([[x]])

    @classmethod
    def identity_like(cls, template: "RingMatrix") -> "RingMatrix":
        proto = template.entries[0][0]
        if isinstance(proto, LaurentPoly):
            one, zero = LaurentPoly.one(proto.d), LaurentPoly(proto.d, {})
        else:
            one, zero = (
                FiniteGroupRingElem.one(proto.group),
                FiniteGroupRingElem.zero(proto.group),
            )
        r = template.r
        return cls([[one if i == j else zero for j in range(r)] for i in range(r)])

    def __add__(self, other):
        return RingMatrix(
            [
                [a + b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.entries, other.entries)
            ]
        )

    def __sub__(self, other):
        return RingMatrix(
            [
                [a - b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.entries, other.entries)
            ]
        )

    def __mul__(self, other):
        if isinstance(other, RingMatrix):
            r = self.r
            if other.r != r:
                raise DimensionMismatch("matrix sizes differ")
            out = []
            for i in range(r):
                row = []
                for j in range(r):
                    acc = self.entries[i][0] * other.entries[0][j]
                    for k in range(1, r):
                        acc = acc + self.entries[i][k] * other.entries[k][j]
                    row.append(acc)
                out.append(row)
            return RingMatrix(out)
        return RingMatrix([[e * other for e in row] for row in self.entries])

    def __rmul__(self, other):
        return RingMatrix([[other * e for e in row] for row in self.entries])

    def star(self) -> "RingMatrix":
        """(f*)_{ij} = (f_{ji})^*: transpose the block structure, invert the
        group variables.  Anti-multiplicative: (FG)* = G* F*."""
        r = self.r
        return RingMatrix(
            [[self.entries[j][i].star() for j in range(r)] for i in range(r)]
        )

    def trace(self):
        acc = self.entries[0][0]
        for i in range(1, self.r):
            acc = acc + self.entries[i][i]
        return acc

    def trace_constant_coefficient(self):
        """tr_Gamma of the matrix: identity-coefficient of the ring trace."""
        return self.trace().constant_coefficient()

    def map_entries(self, fn) -> "RingMatrix":
        return RingMatrix([[fn(e) for e in row] for row in self.entries])

    def __eq__(self, other):
        if not isinstance(other, RingMatrix):
            return NotImplemented
        return self.r == other.r and all(
            a == b
            for ra, rb in zip(self.entries, other.entries)
            for a, b in zip(ra, rb)
        )

    def __repr__(self):
        return "[" + ", ".join(repr(row) for row in self.entries) + "]"


def involution(x):
    """The anti-involution * on ring elements and matrices over them."""
    return x.star()


def sup_norm(x, p: int) -> Fraction:
    """Sup of p-adic absolute values of the coefficients, as an exact Fraction.

    For matrices: max over entries.  For coefficients only known to be
    O(p^k) the bound p^-k is used, so the result is always a proven upper
    bound on the norm.
    """
    if isinstance(x, RingMatrix):
        best = Fraction(0)
        for row in x.entries:
            for e in row:
                best = max(best, sup_norm(e, p))
        return best
    if isinstance(x, LaurentPoly):
        coeffs = x.terms.values()
    elif isinstance(x, FiniteGroupRingElem):
        coeffs = x.coeffs
    else:
        coeffs = [x]
    best = Fraction(0)
    for c in coeffs:
        if isinstance(c, Padic):
            if c.is_zero:
                if c.zprec is None:
                    continue
                val = c.zprec
            else:
                val = c.v
        else:
            if c == 0:
                continue
            val = vp_fraction(c, p)
        mag = Fraction(1, p**val) if val >= 0 else Fraction(p ** (-val))
        best = max(best, mag)
    return best


def reduce_to_quotient(f, q):
    """Image of f under the reduction map to the finite quotient q.

    f is a LaurentPoly or a RingMatrix over LaurentPoly; q is ZdQuotient or
    HeisenbergQuotient.  Coefficients whose exponents land in the same coset
    are summed; the sup norm never increases.
    """
    if isinstance(f, RingMatrix):
        return f.map_entries(lambda e: reduce_to_quotient(e, q))
    if not isinstance(f, LaurentPoly):
        raise DomainMismatch("can only reduce Laurent data")
    check_fits(q, f.d)
    group = build_quotient_group(q)
    out = [0] * group.m
    for e, c in f.terms.items():
        i = q.project(e)
        out[i] = out[i] + c
    return FiniteGroupRingElem(group, out)


def rho_matrix(f):
    """Matrix of right multiplication by f* on (R[G])^r in the element basis.

    Returned as r x r blocks of |G| x |G| scalar matrices, arranged so that
    rho is multiplicative: rho(fg) = rho(f) rho(g).  Block (s, t) has
    (i, j) entry equal to the (s, t) coefficient of f at g_i^{-1} g_j, so for
    r = 1 this is simply M[i][j] = a_{g_i^{-1} g_j}.
    """
    F = RingMatrix.wrap(f)
    proto = F.entries[0][0]
    if not isinstance(proto, FiniteGroupRingElem):
        raise DomainMismatch("rho needs finite group ring entries (reduce first)")
    group = proto.group
    m, r = group.m, F.r
    mul, inv = group.mul, group.inv
    n = r * m
    out = [[0] * n for _ in range(n)]
    for i in range(m):
        row = mul[int(inv[i])]
        for j in range(m):
            k = int(row[j])
            for s in range(r):
                for t in range(r):
                    out[s * m + i][t * m + j] = F.entries[s][t].coeffs[k]
    return out
