"""Shared plumbing: argument checks, the record base, decimal text of ints of
any size, p-adic valuations, the p-content strip and residues of exact
coefficients."""

from fractions import Fraction

from ._primes import is_prime
from .errors import DomainMismatch, NotPrime, UsageError


def require_prime(p: int) -> None:
    """Refuse a p that is not prime with NotPrime.

    Each public entry point that takes p calls this once, before any loop
    runs on p (at p = 1 a valuation loop would never end).
    """
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")


def require_prec(prec: int) -> None:
    """Refuse a precision that is not an int >= 1 with UsageError, as the CLI does.

    Each public entry point that takes prec calls this once, next to
    require_prime.
    """
    if not isinstance(prec, int) or prec < 1:
        raise UsageError("precision must be >= 1")


class Record:
    """Value ``==`` and a dataclass-style ``repr`` over the attributes that
    ``__init__`` sets, in the order it sets them.

    Two records are equal when they have the same class and equal fields.
    A record is mutable, so it is unhashable.
    """

    __hash__ = None

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return vars(self) == vars(other)

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in vars(self).items())
        return f"{type(self).__qualname__}({fields})"


# CPython refuses to convert an int of more than sys.get_int_max_str_digits()
# decimal digits to or from text (4300 by default; the limit can be lowered
# to 640 and no further).  Text of at most this many digits converts under
# every setting, and longer text is split at a power of 10.
_SAFE_DIGITS = 640
_SAFE_BOUND = 10**_SAFE_DIGITS


def int_to_str(n: int) -> str:
    """str(n) for an int of any size, whatever the interpreter's digit limit."""
    if -_SAFE_BOUND < n < _SAFE_BOUND:
        return str(n)
    if n < 0:
        return "-" + int_to_str(-n)
    k = n.bit_length() * 3 // 20  # about half of n's decimal digits
    high, low = divmod(n, 10**k)
    return int_to_str(high) + int_to_str(low).zfill(k)


def str_to_int(text: str) -> int:
    """int(text) for a string of decimal digits of any length (inverse of int_to_str)."""
    if len(text) <= _SAFE_DIGITS:
        return int(text)
    k = len(text) // 2
    return str_to_int(text[:-k]) * 10**k + str_to_int(text[-k:])


def vp_int(n: int, p: int) -> int:
    """p-adic valuation of a nonzero integer."""
    if n == 0:
        raise ValueError("valuation of 0 is undefined")
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def vp_fraction(x, p: int) -> int:
    """p-adic valuation of a nonzero int or Fraction."""
    if isinstance(x, Fraction):
        return vp_int(x.numerator, p) - vp_int(x.denominator, p)
    return vp_int(x, p)


def strip_p_content(coeffs, p: int) -> tuple[int, list]:
    """(a, [c / p^a]) with a the least valuation of the nonzero ints or Fractions given.

    Each quotient is exact: an int where its denominator is 1, else a Fraction.
    """
    a = min(vp_fraction(c, p) for c in coeffs if c != 0)
    scale = Fraction(1, p**a) if a >= 0 else Fraction(p**-a)
    out = []
    for c in coeffs:
        c = c * scale
        out.append(int(c) if c.denominator == 1 else c)
    return a, out


def rational_residue(c, p: int, mod: int) -> int:
    """An int, or a Fraction without p in its denominator, as an int modulo mod."""
    if isinstance(c, Fraction):
        if c.denominator % p == 0:
            raise DomainMismatch("coefficient has negative valuation")
        return c.numerator * pow(c.denominator, -1, mod) % mod
    return c % mod
