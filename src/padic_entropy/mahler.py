"""One-variable p-adic Mahler measure via Newton polygons and slope splitting.

The Newton polygon (lower convex hull of coefficient valuations) separates
roots inside and outside the p-adic unit disk; a zero-slope segment means a
root sits on the unit circle and the measure is undefined (ZeroSlopePresent).
Otherwise a quadratic Hensel lift splits f = g*h with g monic collecting the
inside roots and h the outside ones; the inverse of h modulo g is carried
from one doubling to the next and lifted by one Newton step each time.  The
measure itself only ever needs the *products* of the inside (resp. outside)
roots, which are +-g(0) and a ratio of coefficients of h -- rational
numbers, so no extension-field arithmetic appears.  Both defining
expressions are evaluated and must agree.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import zip_longest

from ._util import exactify, vp_fraction
from .errors import (
    DomainMismatch,
    NotPrimitive,
    ZeroPolynomial,
    ZeroSlopePresent,
)
from .groupring import LaurentPoly
from .padic import Padic, padic_log


def _coeff_list(f) -> tuple[list, int]:
    """(ascending coefficients with nonzero ends, order of vanishing at 0).

    Accepts a list of coefficients, a dict {degree: coeff}, or a univariate
    LaurentPoly; negative exponents are absorbed into the vanishing order.
    """
    if isinstance(f, LaurentPoly):
        if f.d != 1:
            raise DomainMismatch("one-variable routine, got d != 1")
        if f.is_zero():
            raise ZeroPolynomial("zero polynomial")
        degs = {e[0]: c for e, c in f.terms.items()}
    elif isinstance(f, dict):
        degs = {int(k): v for k, v in f.items() if v != 0}
    else:
        degs = {i: c for i, c in enumerate(f) if c != 0}
    if not degs:
        raise ZeroPolynomial("zero polynomial")
    for c in degs.values():
        if not isinstance(c, (int, Fraction)):
            raise DomainMismatch("need exact integer or rational coefficients")
    lo, hi = min(degs), max(degs)
    coeffs = [degs.get(i, 0) for i in range(lo, hi + 1)]
    return coeffs, lo


@dataclass
class NewtonPolygon:
    """Lower convex hull of {(i, v_p(a_i))}; slope -w <-> roots of valuation w."""

    vertices: list[tuple[int, Fraction]]
    segments: list[tuple[Fraction, int]]  # (slope, horizontal length)

    def slopes(self) -> list[Fraction]:
        return [s for s, _ in self.segments]

    def has_zero_slope(self) -> bool:
        return any(s == 0 for s, _ in self.segments)

    def inside_degree(self) -> int:
        """Number of roots of positive valuation (inside the open unit disk)."""
        return sum(length for s, length in self.segments if s < 0)


def newton_polygon(f, p: int) -> NewtonPolygon:
    """Newton polygon of a one-variable polynomial at p.

    Convention: a segment of slope -w accounts for (its length many) roots of
    valuation w; slopes are strictly increasing left to right.
    """
    coeffs, _ = _coeff_list(f)
    pts = [
        (i, Fraction(vp_fraction(c, p)))
        for i, c in enumerate(coeffs)
        if c != 0
    ]
    hull: list[tuple[int, Fraction]] = []
    for pt in pts:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            # keep only strict right turns: collinear middle points drop out
            if (y2 - y1) * (pt[0] - x1) >= (pt[1] - y1) * (x2 - x1):
                hull.pop()
            else:
                break
        hull.append(pt)
    segments = [
        (Fraction(y2 - y1, x2 - x1), x2 - x1)
        for (x1, y1), (x2, y2) in zip(hull, hull[1:])
    ]
    return NewtonPolygon(vertices=hull, segments=segments)


def _poly_mul_mod(a: list[int], b: list[int], mod: int) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] = (out[i + j] + x * y) % mod
    return out


def _poly_divmod_monic(a: list[int], g: list[int], mod: int):
    """divmod by a monic polynomial over Z/mod."""
    a = [x % mod for x in a]
    dg = len(g) - 1
    if dg == 0:
        return a[:], [0]
    q = [0] * max(1, len(a) - dg)
    for i in range(len(a) - 1, dg - 1, -1):
        c = a[i]
        if c:
            q[i - dg] = c
            for j in range(dg + 1):
                a[i - dg + j] = (a[i - dg + j] - c * g[j]) % mod
    return q, a[:dg]


def _trim(a: list[int]) -> list[int]:
    while len(a) > 1 and a[-1] == 0:
        a.pop()
    return a


def _sub_mod(a: list[int], b: list[int], mod: int) -> list[int]:
    """(a - b) mod ``mod``, coefficientwise; the shorter list is padded with 0."""
    return [(x - y) % mod for x, y in zip_longest(a, b, fillvalue=0)]


def _newton_inverse_step(z: list[int], h: list[int], g: list[int], mod: int) -> list[int]:
    """z(2 - hz) mod (g, mod): squares the error 1 - hz modulo g."""
    hz = _poly_divmod_monic(_poly_mul_mod(h, z, mod), g, mod)[1]
    return _poly_divmod_monic(_poly_mul_mod(z, _sub_mod([2], hz, mod), mod), g, mod)[1]


def slope_split(f, p: int, prec: int):
    """Hensel split f = g*h mod p^prec: g monic carries the inside roots.

    Preconditions: f primitive (no p-content) and no zero-slope segment,
    i.e. f mod p is exactly c*T^s.  The seed factorization (T^s, f/T^s mod p)
    is coprime and lifts quadratically (von zur Gathen-Gerhard, Alg. 15.10).
    The Bezout datum z = 1/h mod g is carried along: it starts as c^-1 mod p,
    and each later doubling, from factors correct mod ``prev`` to mod
    m <= prev^2, first lifts it by one Newton step z <- z(2 - hz) mod
    (g, prev).  That is all the precision it needs: the error e = gh - f is
    divisible by prev, so z*e mod (g, m) depends on z only mod (g, prev).

    Returns (g, h) as ascending-coefficient lists of Padic values at absolute
    precision prec (g monic of degree s with exact leading 1).
    """
    coeffs, _ = _coeff_list(f)
    vals = [vp_fraction(c, p) for c in coeffs if c != 0]
    if min(vals) != 0:
        raise NotPrimitive(f"p-content {min(vals)}: strip powers of {p} first")
    np_data = newton_polygon(coeffs, p)
    unit_positions = [i for i, c in enumerate(coeffs) if c != 0 and vp_fraction(c, p) == 0]
    if len(unit_positions) != 1:
        raise ZeroSlopePresent(
            f"{len(unit_positions)} unit coefficients: a root lies on the unit circle"
        )
    s = unit_positions[0]
    assert s == np_data.inside_degree()
    mod = p**prec
    fc = [_lift_rational(c, p, mod) for c in coeffs]
    deg = len(fc) - 1
    cbar = fc[s] % p
    if s == 0:
        g = [1]
        h = fc[:]
    else:
        g = [0] * s + [1]  # T^s
        h = [fc[s + i] % p for i in range(deg - s + 1)]  # = cbar as a constant
        z = [pow(cbar, -1, p)]
        prev = p
        while prev < mod:
            if prev > p:
                z = _newton_inverse_step(z, h, g, prev)
            m = min(prev * prev, mod)
            e = _sub_mod(_poly_mul_mod(g, h, m), fc, m)  # divisible by prev
            # g <- g - eg and h <- h - eh with e = g*eh + h*eg
            eg = _poly_divmod_monic(_poly_mul_mod(z, e, m), g, m)[1]
            eh, rem = _poly_divmod_monic(_sub_mod(e, _poly_mul_mod(h, eg, m), m), g, m)
            if any(rem):
                raise ArithmeticError("slope split lost exact divisibility")
            g = _trim(_sub_mod(g, eg, m))
            h = _trim(_sub_mod(h, eh, m))
            if len(g) != s + 1 or g[-1] != 1:
                raise ArithmeticError("inside factor stopped being monic")
            prev = m
        if any(_sub_mod(fc, _poly_mul_mod(g, h, mod), mod)):
            raise ArithmeticError("slope split does not re-expand to f")
    gp = [Padic.from_int_mod(c, p, prec) for c in g[:-1]] + [Padic.one(p, prec)]
    hp = [Padic.from_int_mod(c, p, prec) for c in h]
    return gp, hp


def _lift_rational(c, p: int, mod: int) -> int:
    if isinstance(c, Fraction):
        if c.denominator % p == 0:
            raise NotPrimitive("denominator divisible by p after content strip")
        return c.numerator * pow(c.denominator, -1, mod) % mod
    return c % mod


def mahler_1d(f, p: int, prec: int) -> Padic:
    """p-adic Mahler measure of a one-variable polynomial without unit-circle
    roots: log of the lowest coefficient minus log of the product of the
    inside roots.

    The second defining expression (log of the top coefficient plus log of
    the outside-root product) is evaluated as well and the two must agree --
    a genuine cross-check on the slope factorization.
    """
    coeffs, _ = _coeff_list(f)
    a_r, a_m = coeffs[0], coeffs[-1]
    content = min(vp_fraction(c, p) for c in coeffs if c != 0)
    if content:
        scale = Fraction(1, p**content) if content > 0 else Fraction(p**-content)
        coeffs = [exactify(c * scale) for c in coeffs]
    # working precision: logs of a_m, a_r and of root products must survive
    slack = abs(vp_fraction(a_r, p) - content) + abs(vp_fraction(a_m, p) - content) + 2
    w = prec + slack
    g, h = slope_split(coeffs, p, w)
    s = len(g) - 1
    inside_prod = g[0] if s else Padic.one(p, w)  # +-(product of inside roots)
    val1 = padic_log(Padic.from_fraction(a_r, p, w)) - padic_log(inside_prod)
    # outside roots: product = +- h(0)/lead(h)
    val2 = (
        padic_log(Padic.from_fraction(a_m, p, w))
        + padic_log(h[0])
        - padic_log(h[-1])
    )
    if not val1.eq_mod(val2, prec):
        raise ArithmeticError("the two defining expressions disagree")
    return val1.truncate_abs(prec)
