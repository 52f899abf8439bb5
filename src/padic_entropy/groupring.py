"""Group rings: Laurent polynomials on Z^d, explicit finite quotients,
matrices over both, sup norms and reduction maps.

Laurent polynomials are sparse dictionaries from exponent vectors to
coefficients (ints, Fractions, or Padic scalars at a shared prime).  A
finite quotient is its own group: its elements are the indices 0..index-1,
0 is the identity, and ``multiply`` and ``inverse`` are its own arithmetic
(a mixed-radix add on Z^d, the unitriangular matrix product on Heisenberg),
so no multiplication table or inverse list is ever built; its own
``check_fits`` refuses the Laurent dimensions it does not reduce.  An
element of a finite group ring holds its quotient as ``group``; elements
over equal quotients mix, others are refused.  Reduction to a finite
quotient folds exponent vectors through the quotient map and sums
coefficients landing in the same coset.  The module needs no numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from ._util import vp_fraction
from .errors import (
    DimensionMismatch,
    DomainMismatch,
    InvalidQuotient,
    OrderOverflow,
)
from .padic import Padic

# Bounds r * |G|: the order of a group and the size of a dense rho matrix.
DEFAULT_SIZE_CAP = 4096


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

    def __eq__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.d == other.d and self.terms == other.terms

    def __hash__(self):
        return hash((self.d, frozenset(self.terms.items())))

    def __repr__(self):
        from .poly_io import print_poly

        return print_poly(self)


# -- finite quotients ---------------------------------------------------------
#
# A quotient knows its index, its fit rule (which Laurent dimensions it
# reduces), the projection of exponents to element indices and its own group
# law on those indices, with the identity at index 0.


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

    def multiply(self, i: int, j: int) -> int:
        """Digitwise sum of two indices mod the moduli, in mixed radix."""
        out, stride = 0, 1
        for n in reversed(self.moduli):
            out += (i // stride + j // stride) % n * stride
            stride *= n
        return out

    def inverse(self, i: int) -> int:
        """Digitwise negation of an index mod the moduli."""
        out, stride = 0, 1
        for n in reversed(self.moduli):
            out += -(i // stride) % n * stride
            stride *= n
        return out

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

    def multiply(self, i: int, j: int) -> int:
        """(a,b,c) <-> [[1,a,c],[0,1,b],[0,0,1]] over Z/n, row-major index:
        (a,b,c)(a',b',c') = (a+a', b+b', c+c'+ab')."""
        n = self.n
        a, b, c = i // (n * n), i // n % n, i % n
        a2, b2, c2 = j // (n * n), j // n % n, j % n
        return ((a + a2) % n * n + (b + b2) % n) * n + (c + c2 + a * b2) % n

    def inverse(self, i: int) -> int:
        """(a,b,c)^-1 = (-a, -b, ab - c)."""
        n = self.n
        a, b, c = i // (n * n), i // n % n, i % n
        return (-a % n * n + -b % n) * n + (a * b - c) % n

    def label(self) -> str:
        return f"heis({self.n})"

    def descriptor(self) -> dict:
        return {"kind": "heisenberg", "n": self.n}


def as_quotient(q):
    """q itself if it is a finite quotient; anything else is refused."""
    if not isinstance(q, (ZdQuotient, HeisenbergQuotient)):
        raise InvalidQuotient(f"unknown quotient spec {q!r}")
    return q


def build_quotient_group(q) -> ZdQuotient | HeisenbergQuotient:
    """The finite group of the quotient q, which is q itself.

    Anything but a finite quotient is refused with InvalidQuotient, and
    orders above DEFAULT_SIZE_CAP with OrderOverflow.
    """
    if as_quotient(q).index > DEFAULT_SIZE_CAP:
        raise OrderOverflow(f"group order {q.index} exceeds cap {DEFAULT_SIZE_CAP}")
    return q


def diagonal_family(d: int, ns) -> list[ZdQuotient]:
    return [ZdQuotient((int(n),) * d) for n in ns]


def heisenberg_family(ns) -> list[HeisenbergQuotient]:
    return [HeisenbergQuotient(int(n)) for n in ns]


# -- finite group ring ---------------------------------------------------------


class FiniteGroupRingElem:
    """Element of R[G] for a finite quotient G: a length-|G| coefficient
    vector in the element basis, indexed as the quotient indexes its elements.

    ``group`` is the quotient itself (``ZdQuotient`` or
    ``HeisenbergQuotient``), whose ``multiply`` gives the products; the
    identity is index 0.  Two elements mix only when their quotients are
    equal.
    """

    __slots__ = ("group", "coeffs")

    def __init__(self, group: ZdQuotient | HeisenbergQuotient, coeffs):
        coeffs = list(coeffs)
        if len(coeffs) != group.index:
            raise DimensionMismatch("coefficient vector length != group order")
        self.group = group
        self.coeffs = coeffs

    @classmethod
    def zero(cls, group: ZdQuotient | HeisenbergQuotient):
        return cls(group, [0] * group.index)

    @classmethod
    def one(cls, group: ZdQuotient | HeisenbergQuotient):
        return cls.element(group, 0)

    @classmethod
    def element(cls, group: ZdQuotient | HeisenbergQuotient, i: int, coeff=1):
        c = [0] * group.index
        c[i] = coeff
        return cls(group, c)

    def is_zero(self) -> bool:
        return all(_coeff_is_zero(c) for c in self.coeffs)

    def constant_coefficient(self):
        return self.coeffs[0]

    def _check(self, other):
        if self.group != other.group:
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
        mul = self.group.multiply
        out = [0] * self.group.index
        right = [(j, b) for j, b in enumerate(other.coeffs) if not _coeff_is_zero(b)]
        for i, a in enumerate(self.coeffs):
            if _coeff_is_zero(a):
                continue
            for j, b in right:
                k = mul(i, j)
                out[k] = out[k] + _mul_coeff(a, b)
        return FiniteGroupRingElem(self.group, out)

    def __rmul__(self, other):
        if _is_scalar(other):
            return FiniteGroupRingElem(
                self.group, [_mul_coeff(other, a) for a in self.coeffs]
            )
        return NotImplemented

    def __eq__(self, other):
        if not isinstance(other, FiniteGroupRingElem):
            return NotImplemented
        return self.group == other.group and all(
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
                    if not isinstance(x, FiniteGroupRingElem) or x.group != proto.group:
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
    HeisenbergQuotient, and the result's ``group`` is q itself.  Coefficients
    whose exponents land in the same coset (the index ``q.project`` gives)
    are summed; the sup norm never increases.  The entries of a matrix share
    one group.  No group law is evaluated.
    """
    proto = RingMatrix.wrap(f).entries[0][0]
    if not isinstance(proto, LaurentPoly):
        raise DomainMismatch("can only reduce Laurent data")
    as_quotient(q).check_fits(proto.d)
    group = build_quotient_group(q)

    def fold(e: LaurentPoly) -> FiniteGroupRingElem:
        out = [0] * group.index
        for x, c in e.terms.items():
            i = q.project(x)
            out[i] = out[i] + c
        return FiniteGroupRingElem(group, out)

    return f.map_entries(fold) if isinstance(f, RingMatrix) else fold(f)


def rho_matrix(f):
    """Matrix of right multiplication by f* on (R[G])^r in the element basis.

    Returned as r x r blocks of |G| x |G| scalar matrices, arranged so that
    rho is multiplicative: rho(fg) = rho(f) rho(g).  Block (s, t) has
    (i, j) entry equal to the (s, t) coefficient of f at g_i^{-1} g_j, so for
    r = 1 this is simply M[i][j] = a_{g_i^{-1} g_j}.  Since g_i^{-1} g_j = h
    exactly when g_j = g_i h, the matrix is filled from f's support: each h
    writes its coefficients at column g_i h of every row i, and every other
    entry is 0.  |G| is the quotient's ``index`` and g_i h its ``multiply``;
    no inverse is needed.
    """
    F = RingMatrix.wrap(f)
    proto = F.entries[0][0]
    if not isinstance(proto, FiniteGroupRingElem):
        raise DomainMismatch("rho needs finite group ring entries (reduce first)")
    group = proto.group
    m, r = group.index, F.r
    mul = group.multiply
    n = r * m
    out = [[0] * n for _ in range(n)]
    entries = [e for row in F.entries for e in row]
    support = {h for e in entries for h, c in enumerate(e.coeffs) if not _coeff_is_zero(c)}
    for h in support:
        cells = [(s * m, t * m, F.entries[s][t].coeffs[h]) for s in range(r) for t in range(r)]
        for i in range(m):
            j = mul(i, h)
            for si, tj, c in cells:
                out[si + i][tj + j] = c
    return out
