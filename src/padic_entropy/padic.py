"""Exact Q_p scalars with explicit precision tracking.

Every value is p^v * u known modulo p^(v+prec), its absolute precision.  A
nonzero value has the unit residue u in [1, p^prec) coprime to p.  A value
indistinguishable from zero, O(p^k), has u = 0, prec = 0 and v = k, the
proven bound |x| <= p^-k (``zprec``); the exact zero has v = +inf.  So one
rule covers every operand: a sum is known modulo the smaller absolute
precision, a product has the smaller relative precision and the sum of the
valuations (of their lower bounds, for a zero), and ``truncate_abs(a)``
keeps min(a, v + prec).  The exact zero is the identity of the sum.  An
exact int or Fraction enters with one digit more than the value it meets,
relative and absolute, so it never limits the precision of a result.  All
operations are pure, results are canonical, and the tracked precision is
the tightest that the inputs actually prove -- never a looser claim
presented as tighter.

The logarithm is the Iwasawa branch: log(p) = 0, roots of unity are killed.
The scalar log of a unit u known to n digits is read off one power:
y = u^((p-1) p^k) for odd p, y = u^(2^(k+1)) for p = 2, with k = isqrt(n).
The power kills the roots of unity (for p = 2 it squares u into 1 + 8Z_2,
so the whole odd-unit group is covered), and since p-th powers of 1-units
that agree modulo p^m agree modulo p^(m+1), y is known to n + k digits
(n + k + 1 for p = 2) and lies in 1 + p^(k+1) Z_p.  The series for log y,
truncated by ``series_guard`` as every log series is, then stops after
about (n+k)/(k+1) terms, and dividing by the exponent exactly gives log u
modulo p^n, as the series on u over its Teichmuller representative would.
"""

from __future__ import annotations

import math
from fractions import Fraction

from ._util import int_to_str, require_prec, require_prime, str_to_int, vp_int
from .errors import (
    IndistinguishableAtPrecision,
    PrimeMismatch,
    ZeroDenominator,
    ZeroInput,
)


def _ilog(n: int, p: int) -> int:
    """floor(log_p n) for n >= 1."""
    k = 0
    while n >= p:
        n //= p
        k += 1
    return k


def log_series_cutoff(p: int, target: int) -> int:
    """Smallest nu0 such that nu - floor(log_p nu) >= target for all nu >= nu0.

    nu - floor(log_p nu) is non-decreasing in nu, so the first index where the
    bound holds works for every later term of the logarithm series.  Below
    target the bound never holds (nu - floor(log_p nu) <= nu), so the walk
    starts there.
    """
    nu = max(1, target)
    while nu - _ilog(nu, p) < target:
        nu += 1
    return nu


def series_guard(p: int, n: int) -> tuple[int, int]:
    """(w, N): working precision and cutoff of every log series -sum x^nu/nu, p | x, to n digits.

    N = ``log_series_cutoff(p, n)``: a dropped term has valuation >= nu - v_p(nu)
    >= n.  A kept term divides by p^v_p(nu), v_p(nu) <= floor(log_p N), so
    w = n + floor(log_p N) carries it to n digits.  And w = N: N meets its own
    bound, so N >= w; N - 1 < n + floor(log_p(N - 1)) unless N = n, so N <= w.
    """
    require_prime(p)
    require_prec(n)
    cutoff = log_series_cutoff(p, n)
    return n + _ilog(cutoff, p), cutoff


class Padic:
    """One element of Q_p at finite precision.  Immutable, hashable, canonical."""

    __slots__ = ("p", "v", "u", "prec")

    def __init__(self, p: int, v: int | float, u: int, prec: int):
        # Trusted raw constructor; use the classmethods to build values.
        self.p = p
        self.v = v
        self.u = u
        self.prec = prec

    # -- construction -----------------------------------------------------

    @classmethod
    def _nonzero(cls, p: int, v: int, u: int, prec: int) -> "Padic":
        if prec < 1:
            raise IndistinguishableAtPrecision(
                f"no significant digit survives (relative precision {prec})"
            )
        u %= p**prec
        if u % p == 0:
            raise ValueError("unit residue divisible by p")
        return cls(p, v, u, prec)

    @classmethod
    def zero(cls, p: int, zprec: int | None = None) -> "Padic":
        """Zero to precision p^-zprec; zprec None means exactly zero."""
        return cls(p, math.inf if zprec is None else zprec, 0, 0)

    @classmethod
    def _ratio(cls, num: int, den: int, p: int, prec: int, abs_prec: float = -math.inf) -> "Padic":
        """Nonzero num/den with max(prec, abs_prec - v) significant digits, v its valuation."""
        vn = vp_int(num, p)
        vd = vp_int(den, p)
        v = vn - vd
        prec = max(prec, abs_prec - v)
        mod = p**prec
        return cls(p, v, num // p**vn * pow(den // p**vd, -1, mod) % mod, prec)

    @classmethod
    def from_rational(cls, num: int, den: int, p: int, prec: int) -> "Padic":
        """Embed num/den into Q_p with prec significant digits."""
        if not (isinstance(num, int) and isinstance(den, int)):
            raise TypeError(
                f"num and den must be ints, not {type(num).__name__} and {type(den).__name__}"
            )
        if den == 0:
            raise ZeroDenominator("denominator is zero")
        require_prime(p)
        require_prec(prec)
        if num == 0:
            return cls.zero(p, prec)
        return cls._ratio(num, den, p, prec)

    @classmethod
    def from_fraction(cls, x: Fraction | int, p: int, prec: int) -> "Padic":
        if isinstance(x, Fraction):
            return cls.from_rational(x.numerator, x.denominator, p, prec)
        return cls.from_rational(int(x), 1, p, prec)

    @classmethod
    def from_int_mod(cls, c: int, p: int, abs_prec: int) -> "Padic":
        """A value known to equal the integer c modulo p^abs_prec."""
        if not isinstance(c, int):
            raise TypeError(f"c must be an int, not {type(c).__name__}")
        require_prime(p)
        require_prec(abs_prec)
        c %= p**abs_prec
        if c == 0:
            return cls.zero(p, abs_prec)
        v = vp_int(c, p)
        return cls._nonzero(p, v, c // p**v, abs_prec - v)

    @classmethod
    def one(cls, p: int, prec: int) -> "Padic":
        return cls._nonzero(p, 0, 1, prec)

    # -- inspection --------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return self.u == 0

    @property
    def zprec(self) -> int | None:
        """For a zero O(p^k), k; None for the exact zero and for a nonzero value."""
        return None if self.u or self.v == math.inf else self.v

    @property
    def abs_prec(self) -> int | float:
        """Exponent A: the value is known modulo p^A (math.inf if exact zero)."""
        return self.v + self.prec

    def valuation(self) -> int:
        if self.is_zero:
            raise ZeroInput("valuation of (a value indistinguishable from) zero")
        return self.v

    def lift(self) -> int:
        """Smallest nonnegative integer representative of p^v*u (v >= 0 only)."""
        if self.is_zero:
            return 0
        if self.v < 0:
            raise ValueError("no integer lift: negative valuation")
        return self.u * self.p**self.v

    # -- arithmetic ---------------------------------------------------------

    def _coerce(self, x) -> "Padic":
        if isinstance(x, Padic):
            if x.p != self.p:
                raise PrimeMismatch(f"p={self.p} vs p={x.p}")
            return x
        if not isinstance(x, (int, Fraction)):
            return NotImplemented
        if not x:
            return Padic.zero(self.p)
        # An exact scalar carries one digit more than self, relative and
        # absolute, so it limits neither a sum nor a product; next to the
        # exact zero, which has no digits to exceed, it keeps 2.
        if self.v == math.inf:
            return Padic._ratio(x.numerator, x.denominator, self.p, 2)
        return Padic._ratio(
            x.numerator, x.denominator, self.p, self.prec + 1, self.v + self.prec + 1
        )

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if o.v == math.inf:
            return self
        if self.v == math.inf:
            return o
        # Both are known modulo p^m, a zero O(p^k) included (v = k, u = 0).
        p = self.p
        m = min(self.v + self.prec, o.v + o.prec)
        w = min(self.v, o.v)
        t = (self.u * p ** (self.v - w) + o.u * p ** (o.v - w)) % p ** (m - w)
        if t == 0:
            return Padic(p, m, 0, 0)
        vt = vp_int(t, p)
        return Padic(p, w + vt, t // p**vt, m - w - vt)

    __radd__ = __add__

    def __neg__(self):
        return Padic(self.p, self.v, -self.u % self.p**self.prec, self.prec)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        # A zero factor has prec 0, so the product is O(p^(v_a + v_b)): the
        # valuation bounds add, and the exact zero's v = inf absorbs.
        prec = min(self.prec, o.prec)
        return Padic(self.p, self.v + o.v, self.u * o.u % self.p**prec, prec)

    __rmul__ = __mul__

    def inv(self) -> "Padic":
        if self.is_zero:
            raise ZeroInput("inverse of (a value indistinguishable from) zero")
        mod = self.p**self.prec
        return Padic(self.p, -self.v, pow(self.u, -1, mod), self.prec)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self * o.inv()

    def __rtruediv__(self, other):
        return self.inv() * other

    # -- comparison ---------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Padic):
            return NotImplemented
        return (
            self.p == other.p
            and self.u == other.u
            and self.v == other.v
            and self.prec == other.prec
        )

    def __hash__(self):
        return hash((self.p, self.v, self.u, self.prec))

    def eq_mod(self, other, k: int) -> bool:
        """Whether self = other mod p^k; raises if the data cannot decide."""
        d = self - self._coerce(other)
        if d.is_zero and d.v < k:
            raise IndistinguishableAtPrecision(
                f"difference known only modulo {self.p}^{d.v}, asked mod {self.p}^{k}"
            )
        return d.v >= k

    def dist_valuation(self, other) -> tuple[int | None, bool]:
        """(v_p(self-other), exact) -- exact False means only the lower bound
        v >= value is proven (difference indistinguishable from zero);
        (None, False) if the difference is exactly zero."""
        d = self - self._coerce(other)
        if d.is_zero:
            return (d.zprec, False)
        return (d.v, True)

    def truncate_abs(self, a: int) -> "Padic":
        """Forget digits beyond p^a (never claims more than was known)."""
        m = min(a, self.v + self.prec)
        if self.v >= m:
            return Padic(self.p, m, 0, 0)
        return Padic(self.p, self.v, self.u % self.p ** (m - self.v), m - self.v)

    # -- display / serialization --------------------------------------------

    def digits(self) -> list[int]:
        """Base-p digits of the unit residue, least significant first."""
        out = []
        u = self.u
        for _ in range(self.prec):
            u, r = divmod(u, self.p)
            out.append(r)
        return out

    def __str__(self):
        if self.is_zero:
            return "0" if self.v == math.inf else f"O({self.p}^{self.v})"
        u = int_to_str(self.u)
        if self.v == 0:
            return f"{u} + O({self.p}^{self.prec})"
        return f"{u}*{self.p}^{self.v} + O({self.p}^{self.v + self.prec})"

    __repr__ = __str__

    def to_json(self) -> dict:
        if self.is_zero:
            return {"p": self.p, "zero": True, "abs_precision": self.zprec}
        return {
            "p": self.p,
            "valuation": self.v,
            "unit": int_to_str(self.u),
            "precision": self.prec,
        }

    @classmethod
    def from_json(cls, doc: dict) -> "Padic":
        if doc.get("zero"):
            return cls.zero(doc["p"], doc["abs_precision"])
        return cls._nonzero(
            doc["p"], doc["valuation"], str_to_int(doc["unit"]), doc["precision"]
        )


def _neg_sum_over_nu(terms, p: int, digits: int, g: int) -> Padic:
    """-sum_nu t_nu / nu modulo p^digits, summed in plain integers.

    ``terms`` yields pairs (nu, t_nu) with v_p(nu) <= g and t_nu an integer
    divisible by p^v_p(nu), whose quotient t_nu / p^v_p(nu) is known modulo
    p^digits.  With nu = p^k * m, the term t_nu / nu scaled by p^g is
    t_nu * p^(g-k) * m^-1 modulo p^(digits+g); every scaled term, hence the
    sum, is divisible by p^g, and one exact division at the end gives the
    sum modulo p^digits as a canonical Padic.
    """
    mod = p ** (digits + g)
    acc = 0
    for nu, t in terms:
        k, m = 0, nu
        while m % p == 0:
            m //= p
            k += 1
        acc -= t * p ** (g - k) * pow(m, -1, mod)
    return Padic.from_int_mod(acc % mod // p**g, p, digits)


def _log_one_unit_int(x_int: int, p: int, abs_prec: int) -> Padic:
    """log(1 - x) = -sum x^nu / nu for x = x_int known mod p^abs_prec, v_p(x) >= 1.

    The terms up to the cutoff N of ``series_guard(p, abs_prec)`` are summed
    in integers modulo p^w, its working precision (see ``_neg_sum_over_nu``).
    This is exact: v_p(x^nu / nu) >= nu - v_p(nu) > 0.  Every term is known
    to at least abs_prec digits, because x^nu is known modulo
    p^(abs_prec + (nu-1) v_p(x)) and (nu-1) v_p(x) >= v_p(nu); so the result
    is exactly what the input proves, the canonical value mod p^abs_prec.
    The powers stop early once x^nu vanishes modulo p^w, so about
    w / v_p(x) terms are summed.
    """
    x = x_int % p**abs_prec
    if x == 0:
        return Padic.zero(p, abs_prec)
    w, cutoff = series_guard(p, abs_prec)
    mod = p**w

    def powers():
        power = x
        for nu in range(1, cutoff + 1):
            yield nu, power
            power = power * x % mod
            if not power:
                return

    return _neg_sum_over_nu(powers(), p, abs_prec, w - abs_prec)


def padic_log(a: Padic) -> Padic:
    """Iwasawa-branch logarithm: drops the valuation (log p = 0), kills the
    roots of unity with one power, and sums the usual series on the 1-unit.

    The result is absolute precision a.prec: a unit u known modulo p^n,
    n = a.prec, determines its log modulo p^n, and the result is that
    canonical value.  With q = p - 1 for odd p and q = 2 for p = 2, and
    k = isqrt(n):

    * u^q is a 1-unit (1 mod 8 for p = 2) known modulo p^(n+e), where e = 1
      for p = 2 (the square is known one digit beyond u) and e = 0 otherwise.
    * If two 1-units agree modulo p^m, m >= 1, their p-th powers agree
      modulo p^(m+1): (b(1 + p^m t))^p = b^p (1 + p^(m+1) t + ...), the
      dropped terms having valuation at least 2m >= m + 1.  So
      y = u^(q p^k) is known modulo p^(n+e+k), and y = 1 mod p^(k+1).
    * log y = q p^k log u, and ``_log_one_unit_int`` gives log y modulo
      p^(n+e+k) from those digits; q p^k has valuation k + e, so the exact
      division leaves log u modulo p^n.

    Since v_p(1 - y) >= k + 1, the series stops after about (n+k)/(k+1)
    terms instead of about n; the power costs about k log2(p) squarings.
    """
    if not isinstance(a, Padic):
        raise TypeError(f"a must be a Padic, not {type(a).__name__}")
    if a.is_zero:
        raise ZeroInput("log of (a value indistinguishable from) zero")
    p, n = a.p, a.prec
    k = math.isqrt(n)
    e, q = (1, 2) if p == 2 else (0, p - 1)
    digits = n + e + k
    y = pow(a.u, q * p**k, p**digits)
    return _log_one_unit_int(1 - y, p, digits) / (q * p**k)

