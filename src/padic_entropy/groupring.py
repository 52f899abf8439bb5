"""Group rings: Laurent polynomials on Z^d, explicit finite quotients,
matrices over both, sup norms and reduction maps.

Every group-ring element is stored sparse, as ``terms``: a dict from group
elements to coefficients (ints, Fractions, or Padic scalars at a shared
prime).  One set of ring operations serves every group; a subclass of
``_GroupRingElem`` supplies only its group: exponent vectors added as
tuples for the Laurent algebra on Z^d, element indices multiplied by the
quotient's law for a finite group ring.  Only exact zeros are dropped, so
a coefficient known only to O(p^k) stays a term.  A finite quotient is
its own group: its elements are the indices 0..index-1, 0 is the
identity, and ``multiply`` and ``inverse`` are its own arithmetic (a
mixed-radix add on Z^d, the unitriangular matrix product on Heisenberg),
so no multiplication table or inverse list is ever built; its own
``check_fits`` refuses the Laurent dimensions it does not reduce.  An
element of a finite group ring holds its quotient as ``group``; elements
over equal quotients mix, others are refused.  Reduction to a finite
quotient folds exponent vectors through the quotient map and sums
coefficients landing in the same coset.  The module needs no numpy.
"""

from __future__ import annotations

import math
import operator
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


def _is_exact_zero(c) -> bool:
    """An int or Fraction equal to 0, or a Padic zero with no precision bound.

    Only these are dropped from an element's terms: a coefficient known only
    to O(p^k) stays a term, so a series that needs more of its digits sees
    it and refuses.
    """
    if isinstance(c, Padic):
        return c.is_zero and c.zprec is None
    return c == 0


def _mul_coeff(a, b):
    if isinstance(a, Padic) or isinstance(b, Padic):
        if isinstance(a, Fraction) or isinstance(b, Fraction):
            raise DomainMismatch("cannot mix Fraction and p-adic coefficients")
    return a * b


class _GroupRingElem:
    """An element of a group ring as a sparse dict ``terms`` {key: coefficient}.

    The ring operations live here; a subclass supplies only its group:
    ``_ring`` (what two elements must share to mix), ``_one`` (the
    identity's key), ``_times`` (the group law on keys) and ``_like``
    (an element of the same ring from a dict of terms), with
    ``_mismatch`` the refusal of an element of another ring.  Exact zeros
    are dropped (``_is_exact_zero``), so equality of terms is exact
    equality, as in ``Padic.__eq__``.
    """

    __slots__ = ("terms",)

    def is_zero(self) -> bool:
        return not self.terms

    def _operand(self, other):
        """other as an element of this ring (a scalar as a constant), or None."""
        if _is_scalar(other):
            return self._like({self._one: other})
        if type(other) is not type(self):
            return None
        if other._ring != self._ring:
            raise self._mismatch(other)
        return other

    def __add__(self, other):
        other = self._operand(other)
        if other is None:
            return NotImplemented
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out[k] + c if k in out else c
        return self._like(out)

    __radd__ = __add__

    def __neg__(self):
        return self._like({k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        other = self._operand(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if _is_scalar(other):
            return self._like({k: _mul_coeff(c, other) for k, c in self.terms.items()})
        other = self._operand(other)
        if other is None:
            return NotImplemented
        times = self._times
        out: dict = {}
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                k = times(k1, k2)
                c = _mul_coeff(c1, c2)
                out[k] = out[k] + c if k in out else c
        return self._like(out)

    __rmul__ = __mul__  # scalars commute; an element of this ring is on the left

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative powers of polynomials are not defined here")
        out = self._like({self._one: 1})
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._ring == other._ring and self.terms == other.terms

    def __hash__(self):
        return hash((self._ring, frozenset(self.terms.items())))


class LaurentPoly(_GroupRingElem):
    """Finite-support element of the Laurent algebra on Z^d."""

    __slots__ = ("d",)

    def __init__(self, d: int, terms=None):
        if d < 1:
            raise DimensionMismatch("dimension must be >= 1")
        self.d = d
        canon: dict[tuple, object] = {}
        for e, c in (terms or {}).items():
            try:
                e = tuple(map(operator.index, e))
            except TypeError:
                raise DomainMismatch(f"exponent {e!r} is not a vector of integers") from None
            if len(e) != d:
                raise DimensionMismatch(f"exponent {e} has length != {d}")
            if not _is_exact_zero(c):
                canon[e] = c
        self.terms = canon

    @classmethod
    def constant(cls, c, d: int = 1) -> "LaurentPoly":
        return cls(d, {(0,) * d: c})

    @classmethod
    def monomial(cls, exp, coeff=1, d: int | None = None) -> "LaurentPoly":
        exp = tuple(exp)
        return cls(d or len(exp), {exp: coeff})

    @classmethod
    def one(cls, d: int = 1) -> "LaurentPoly":
        return cls.constant(1, d)

    @property
    def _ring(self) -> int:
        return self.d

    @property
    def _one(self) -> tuple:
        return (0,) * self.d

    @staticmethod
    def _times(e1: tuple, e2: tuple) -> tuple:
        return tuple(map(operator.add, e1, e2))

    def _like(self, terms) -> "LaurentPoly":
        return LaurentPoly(self.d, terms)

    def _mismatch(self, other) -> DimensionMismatch:
        return DimensionMismatch(f"d={self.d} vs d={other.d}")

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
        try:
            moduli = tuple(map(operator.index, self.moduli))
        except TypeError:
            raise InvalidQuotient(f"moduli {self.moduli!r} are not integers") from None
        object.__setattr__(self, "moduli", moduli)
        if not moduli or any(n < 1 for n in moduli):
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
        try:
            object.__setattr__(self, "n", operator.index(self.n))
        except TypeError:
            raise InvalidQuotient(f"modulus {self.n!r} is not an integer") from None
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
    return [ZdQuotient((n,) * d) for n in ns]


def heisenberg_family(ns) -> list[HeisenbergQuotient]:
    return [HeisenbergQuotient(n) for n in ns]


# -- finite group ring ---------------------------------------------------------


class FiniteGroupRingElem(_GroupRingElem):
    """Element of R[G] for a finite quotient G, stored sparse as {index: coefficient}.

    Built from a dense length-|G| coefficient vector in the element basis,
    indexed as the quotient indexes its elements; ``coeffs`` is a read-only
    dense view of it.  ``group`` is the quotient itself (``ZdQuotient`` or
    ``HeisenbergQuotient``), whose ``multiply`` gives the products; the
    identity is index 0.  Two elements mix only when their quotients are
    equal.
    """

    __slots__ = ("group",)
    _one = 0

    def __init__(self, group: ZdQuotient | HeisenbergQuotient, coeffs):
        coeffs = list(coeffs)
        if len(coeffs) != group.index:
            raise DimensionMismatch("coefficient vector length != group order")
        self.group = group
        self.terms = {i: c for i, c in enumerate(coeffs) if not _is_exact_zero(c)}

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

    @property
    def coeffs(self) -> list:
        return [self.terms.get(i, 0) for i in range(self.group.index)]

    def constant_coefficient(self):
        return self.terms.get(0, 0)

    @property
    def _ring(self):
        return self.group

    @property
    def _times(self):
        return self.group.multiply

    def _like(self, terms) -> "FiniteGroupRingElem":
        out = object.__new__(FiniteGroupRingElem)
        out.group = self.group
        out.terms = {i: c for i, c in terms.items() if not _is_exact_zero(c)}
        return out

    def _mismatch(self, other) -> DomainMismatch:
        return DomainMismatch("elements live over different groups")

    def __repr__(self):
        return " + ".join(f"{c}*g{i}" for i, c in sorted(self.terms.items())) or "0"


# -- matrices over a group ring -------------------------------------------------


class RingMatrix:
    """Square matrix over a group ring (Laurent or finite); entries uniform."""

    __slots__ = ("r", "entries")

    def __init__(self, entries):
        entries = [list(row) for row in entries]
        r = len(entries)
        if not r:
            raise DimensionMismatch("matrix must have at least one row")
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
        one, zero = proto._like({proto._one: 1}), proto._like({})
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
    coeffs = x.terms.values() if isinstance(x, _GroupRingElem) else [x]
    best = Fraction(0)
    for c in coeffs:
        if _is_exact_zero(c):
            continue
        if isinstance(c, Padic):
            val = c.zprec if c.is_zero else c.v
        else:
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
    zero = FiniteGroupRingElem.zero(build_quotient_group(q))

    def fold(e: LaurentPoly) -> FiniteGroupRingElem:
        out: dict[int, object] = {}
        for x, c in e.terms.items():
            i = q.project(x)
            out[i] = out[i] + c if i in out else c
        return zero._like(out)

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
    support: dict[int, list] = {}
    for s, row in enumerate(F.entries):
        for t, e in enumerate(row):
            for h, c in e.terms.items():
                support.setdefault(h, []).append((s * m, t * m, c))
    for h, cells in support.items():
        for i in range(m):
            j = mul(i, h)
            for si, tj, c in cells:
                out[si + i][tj + j] = c
    return out
