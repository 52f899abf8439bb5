"""Shared plumbing: p-adic valuations of integers and fractions."""

from fractions import Fraction


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
