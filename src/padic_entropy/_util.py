"""Shared plumbing: p-adic valuations, the p-content strip and residues of exact coefficients."""

from fractions import Fraction

from .errors import DomainMismatch


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
