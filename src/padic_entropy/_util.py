"""Shared plumbing: p-adic valuations of integers and fractions, exact coefficients."""

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


def exactify(x):
    """A Fraction with denominator 1 as an int; anything else unchanged."""
    if isinstance(x, Fraction) and x.denominator == 1:
        return int(x)
    return x
