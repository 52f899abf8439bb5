"""One-variable p-adic Mahler measure via Newton polygons and slope splitting.

The Newton polygon (lower convex hull of coefficient valuations) separates
roots inside and outside the p-adic unit disk; a zero-slope segment means a
root sits on the unit circle and the measure is undefined (ZeroSlopePresent).
Otherwise a quadratic Hensel lift splits f = g*h with g monic collecting the
inside roots and h the outside ones.  Only g is lifted, through p^k for k
on a schedule built down from the working precision by k -> ceil(k/2): each
step divides f by g once, and the inverse of the cofactor modulo g is
carried from one step to the next and lifted by one Newton step each time.
h is divided out of f once, at the end.  The measure itself only ever needs the
*products* of the inside (resp. outside) roots, which are +-g(0) and a
ratio of coefficients of h -- rational numbers, so no extension-field
arithmetic appears.  Both defining expressions are evaluated and must
agree.

The hull is built on integer valuations, and the slope split reads the
p-content and the unit coefficient off the polygon, so it computes each
coefficient's valuation once.  The polynomial products and divisions of
the lift sum their products unreduced and reduce once per output
coefficient (for a division: once per eliminated leading coefficient and
once per remainder coefficient), not after every product.
"""

from __future__ import annotations

from fractions import Fraction

from ._util import (
    Record,
    rational_residue,
    require_prec,
    require_prime,
    strip_p_content,
    vp_fraction,
)
from .errors import (
    DomainMismatch,
    NotPrimitive,
    ZeroPolynomial,
    ZeroSlopePresent,
)
from .groupring import LaurentPoly
from .padic import Padic, padic_log

# Bounds the degree span (top exponent minus lowest) of a polynomial.  The
# routes build dense coefficient lists across the span and lift them
# quadratically: a dense degree-1024 polynomial at 256 digits takes about
# 4 s (2-vCPU host, Python 3.11), and t^100000000 never finished building
# its list.
DEGREE_CAP = 1024


def _coeff_list(f) -> tuple[list, int]:
    """(ascending coefficients with nonzero ends, order of vanishing at 0).

    Accepts a list of coefficients, a dict {degree: coeff}, or a univariate
    LaurentPoly; negative exponents are absorbed into the vanishing order.
    A degree span above DEGREE_CAP is refused (DomainMismatch) before any
    list is built.
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
    if hi - lo > DEGREE_CAP:
        raise DomainMismatch(f"degree span {hi - lo} exceeds cap {DEGREE_CAP}")
    coeffs = [degs.get(i, 0) for i in range(lo, hi + 1)]
    return coeffs, lo


class NewtonPolygon(Record):
    """Lower convex hull of {(i, v_p(a_i))}; slope -w <-> roots of valuation w."""

    def __init__(
        self,
        vertices: list[tuple[int, Fraction]],
        segments: list[tuple[Fraction, int]],  # (slope, horizontal length)
    ):
        self.vertices = vertices
        self.segments = segments

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
    valuation w; slopes are strictly increasing left to right.  The hull is
    built on integer valuations; only the vertices and slopes returned are
    Fractions.
    """
    require_prime(p)
    coeffs, _ = _coeff_list(f)
    hull: list[tuple[int, int]] = []
    for i, c in enumerate(coeffs):
        if c == 0:
            continue
        y = vp_fraction(c, p)
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            # keep only strict right turns: collinear middle points drop out
            if (y2 - y1) * (i - x1) >= (y - y1) * (x2 - x1):
                hull.pop()
            else:
                break
        hull.append((i, y))
    segments = [
        (Fraction(y2 - y1, x2 - x1), x2 - x1)
        for (x1, y1), (x2, y2) in zip(hull, hull[1:])
    ]
    return NewtonPolygon(vertices=[(x, Fraction(y)) for x, y in hull], segments=segments)


def _poly_mul_mod(a: list[int], b: list[int], mod: int) -> list[int]:
    """a*b over Z/mod; products are summed unreduced, one reduction per coefficient."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                out[j] += x * y
    return [c % mod for c in out]


def _poly_divmod_monic(a: list[int], g: list[int], mod: int):
    """divmod by a monic polynomial over Z/mod.

    The working coefficients stay unreduced; only the leading coefficient
    that each step eliminates is reduced (it becomes a quotient
    coefficient), and the remainder once at the end.
    """
    dg = len(g) - 1
    if dg == 0:
        return [x % mod for x in a], [0]
    a = list(a)
    q = [0] * max(1, len(a) - dg)
    for i in range(len(a) - 1, dg - 1, -1):
        c = a[i] % mod
        if c:
            q[i - dg] = c
            for j in range(dg):  # g[dg] = 1 cancels a[i], which is not read again
                a[i - dg + j] -= c * g[j]
    return q, [x % mod for x in a[:dg]]


def _newton_inverse_step(z: list[int], h: list[int], g: list[int], mod: int) -> list[int]:
    """z(2 - hz) mod (g, mod): squares the error 1 - hz modulo g."""
    t = [-c for c in _poly_divmod_monic(_poly_mul_mod(h, z, mod), g, mod)[1]]
    t[0] += 2
    return _poly_divmod_monic(_poly_mul_mod(z, t, mod), g, mod)[1]


def _lift_exponents(prec: int) -> list[int]:
    """The Hensel schedule p -> p^k_1 -> ... -> p^prec, built down from prec.

    Each exponent is ceil(half) of the next, so every step at most squares
    the modulus and the last lands on prec exactly: 260 gives 2, 3, 5, 9, 17,
    33, 65, 130, 260, where doubling up from 1 would pay for p^256 and then
    once more for p^260.
    """
    exponents = []
    while prec > 1:
        exponents.append(prec)
        prec = (prec + 1) // 2
    return exponents[::-1]


def slope_split(f, p: int, prec: int):
    """Hensel split f = g*h mod p^prec: g monic carries the inside roots.

    Preconditions: f primitive (no p-content) and no zero-slope segment,
    i.e. f mod p is exactly c*T^s.  The seed g = T^s divides f mod p with a
    cofactor coprime to it, and only g is lifted.  The moduli are p^k over
    ``_lift_exponents(prec)``, built down from prec by k -> ceil(k/2), so no
    step lifts past p^prec and then again to it.  A step from g correct mod
    ``prev`` = p^k' to mod m = p^k (k <= 2k') divides f by g once mod m:
    f = q*g + e, where q is the cofactor mod prev and e is divisible by prev.
    The Bezout datum z = 1/q mod g starts as c^-1 mod p and each later step
    lifts it by one Newton step z <- z(2 - qz) mod (g, prev); that is all the
    precision it needs, since e is divisible by prev.  The step then sets
    g <- g + prev*((z*e/prev) mod g), worked mod m/prev, and g divides f
    mod m.  The cofactor h = f div g is divided out once, at the
    end, and the zero remainder of that division is the re-expansion
    f = g*h mod p^prec.  The factors are unique mod p^prec (Hensel), so the
    schedule does not change them.

    Returns (g, h) as ascending-coefficient lists of Padic values at absolute
    precision prec (g monic of degree s with exact leading 1).  h always has
    deg f - s + 1 coefficients, and h[-1] is lead(f) mod p^prec, which is
    O(p^prec) when p^prec divides lead(f).
    """
    require_prime(p)
    require_prec(prec)
    coeffs, _ = _coeff_list(f)
    # The polygon's lowest vertex carries the least valuation.  With that at
    # 0, there is exactly one unit coefficient iff no segment has slope 0,
    # and it sits at the end of the negative slopes.
    np_data = newton_polygon(coeffs, p)
    content = min(y for _, y in np_data.vertices)
    if content != 0:
        raise NotPrimitive(f"p-content {content}: strip powers of {p} first")
    if np_data.has_zero_slope():
        units = sum(1 for c in coeffs if c != 0 and vp_fraction(c, p) == 0)
        raise ZeroSlopePresent(f"{units} unit coefficients: a root lies on the unit circle")
    s = np_data.inside_degree()
    assert (s, 0) in np_data.vertices
    mod = p**prec
    fc = [rational_residue(c, p, mod) for c in coeffs]
    if s == 0:
        g = [1]
        h = fc[:]
    else:
        g = [0] * s + [1]  # T^s
        z = [pow(fc[s], -1, p)]
        k_prev = 1
        for k in _lift_exponents(prec):
            prev, m, step = p**k_prev, p**k, p ** (k - k_prev)
            q, e = _poly_divmod_monic(fc, g, m)  # e is divisible by prev
            if k_prev > 1:
                z = _newton_inverse_step(z, [c % prev for c in q], g, prev)
            eg = _poly_divmod_monic(_poly_mul_mod(z, [c // prev for c in e], step), g, step)[1]
            for i, c in enumerate(eg):  # g[i] < prev and c < step: stays reduced mod m
                g[i] += prev * c
            k_prev = k
        if len(g) != s + 1 or g[-1] != 1:
            raise ArithmeticError("inside factor stopped being monic")
        h, rem = _poly_divmod_monic(fc, g, mod)
        if any(rem):
            raise ArithmeticError("slope split does not re-expand to f")
    gp = [Padic.from_int_mod(c, p, prec) for c in g[:-1]] + [Padic.one(p, prec)]
    hp = [Padic.from_int_mod(c, p, prec) for c in h]
    return gp, hp


def mahler_1d(f, p: int, prec: int) -> Padic:
    """p-adic Mahler measure of a one-variable polynomial without unit-circle
    roots: log of the lowest coefficient minus log of the product of the
    inside roots.

    The second defining expression (log of the top coefficient plus log of
    the outside-root product) is evaluated as well and the two must agree --
    a genuine cross-check on the slope factorization.

    The split is lifted to prec + max(v(a_r), v(a_m)) - content digits, a_r
    and a_m the end coefficients: the logs lose exactly v(g(0)) and v(lead h)
    digits, v(a_r) and v(a_m) over the content, as h(0) is a unit.
    """
    require_prime(p)
    require_prec(prec)
    coeffs, _ = _coeff_list(f)
    a_r, a_m = coeffs[0], coeffs[-1]
    content, coeffs = strip_p_content(coeffs, p)
    w = prec + max(vp_fraction(a_r, p), vp_fraction(a_m, p)) - content
    g, h = slope_split(coeffs, p, w)
    s = len(g) - 1
    inside_prod = g[0] if s else Padic.one(p, w)  # +-(product of inside roots)
    # one log per expression: the Iwasawa log is a homomorphism, and a
    # product keeps the least relative precision of its factors, which is the
    # absolute precision the sum of their logs would have
    val1 = padic_log(Padic.from_fraction(a_r, p, w) / inside_prod)
    # outside roots: product = +- h(0)/lead(h)
    val2 = padic_log(Padic.from_fraction(a_m, p, w) * h[0] / h[-1])
    if not val1.eq_mod(val2, prec):
        raise ArithmeticError("the two defining expressions disagree")
    return val1.truncate_abs(prec)
