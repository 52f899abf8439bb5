import random
from fractions import Fraction

import pytest

from padic_entropy import (
    LaurentPoly,
    Padic,
    logdet_unit,
    mahler_1d,
    newton_polygon,
    padic_log,
    padic_sqrt,
    slope_split,
)
from padic_entropy import mahler
from padic_entropy.errors import NotPrimitive, ZeroPolynomial, ZeroSlopePresent

import helpers

F_COEFFS = [2, -1, 2]  # 2 - T + 2T^2 ascending = the quadratic 2T^2 - T + 2


# -- newton polygons -------------------------------------------------------------


def test_newton_polygon_example():
    np1 = newton_polygon(F_COEFFS, 2)
    assert np1.vertices == [(0, 1), (1, 0), (2, 1)]
    assert np1.segments == [(Fraction(-1), 1), (Fraction(1), 1)]
    # slopes -1 and +1 <-> root valuations +1 and -1, i.e. |a| = 1/2 and 2
    assert sorted(-s for s, _ in np1.segments) == [-1, 1]


def test_newton_polygon_simple_cases():
    assert newton_polygon([-1, 1], 7).segments == [(Fraction(0), 1)]
    assert newton_polygon([1, 5], 5).segments == [(Fraction(1), 1)]
    with pytest.raises(ZeroPolynomial):
        newton_polygon([0, 0], 3)


def test_newton_polygon_slopes_strictly_increase():
    rng = random.Random(30)
    for _ in range(30):
        coeffs = [rng.randint(-50, 50) for _ in range(rng.randint(2, 7))]
        if all(c == 0 for c in coeffs):
            continue
        np1 = newton_polygon(coeffs, 2)
        slopes = np1.slopes()
        assert all(a < b for a, b in zip(slopes, slopes[1:]))
        # segment lengths sum to degree minus order of vanishing at 0
        assert sum(l for _, l in np1.segments) == _span(coeffs)


def _span(coeffs):
    idx = [i for i, c in enumerate(coeffs) if c != 0]
    return idx[-1] - idx[0]


# -- slope splitting -------------------------------------------------------------------


def test_slope_split_example():
    g, h = slope_split(F_COEFFS, 2, 12)
    assert len(g) == 2 and g[-1] == Padic.one(2, 12)
    # g(0) = -alpha_-, and alpha_+ * alpha_- = 1
    s = padic_sqrt(Padic.from_rational(-15, 1, 2, 14))
    alpha_minus = (1 - s) / 4
    alpha_plus = (1 + s) / 4
    assert g[0].eq_mod(-alpha_minus, 11)
    assert (alpha_plus * alpha_minus - 1).is_zero
    # h carries the outside root: h = h1 (T - alpha_+) with h1 = lead
    root_prod = h[0] / h[1]
    assert (-root_prod).eq_mod(alpha_plus, 9)


def test_slope_split_already_split():
    g, h = slope_split([-5, 1], 5, 8)  # T - 5
    assert [c.lift() for c in g] == [5**8 - 5, 1]
    assert h[0].eq_mod(Padic.one(5, 8), 8)


def test_slope_split_no_inside_roots():
    g, h = slope_split([1, 10], 5, 8)  # 1 + 10T, root of valuation -1
    assert g == [Padic.one(5, 8)]
    assert h[0].eq_mod(Padic.one(5, 8), 8)


def test_slope_split_soundness_random():
    rng = random.Random(31)
    count = 0
    while count < 15:
        p = rng.choice([2, 3, 5])
        deg = rng.randint(1, 6)
        coeffs = [rng.randint(-100, 100) for _ in range(deg + 1)]
        if coeffs[0] == 0 or coeffs[-1] == 0:
            continue
        units = [
            i for i, c in enumerate(coeffs) if c != 0 and helpers.vp(c, p) == 0
        ]
        content = min(helpers.vp(c, p) for c in coeffs if c != 0)
        if content != 0 or len(units) != 1:
            continue
        prec = 9
        g, h = slope_split(coeffs, p, prec)
        s = len(g) - 1
        assert s == units[0]
        assert g[-1] == Padic.one(p, prec)
        # g = T^s mod p
        for c in g[:-1]:
            assert c.is_zero or c.valuation() >= 1
        # re-expansion: g*h = f mod p^prec
        prod = [Padic.zero(p, prec + 2) for _ in range(len(g) + len(h) - 1)]
        for i, a in enumerate(g):
            for j, b in enumerate(h):
                prod[i + j] = prod[i + j] + a * b
        for got, want in zip(prod, coeffs):
            assert got.eq_mod(Padic.from_rational(want, 1, p, prec + 1), prec)
        count += 1


# A test-local copy of the split as it was before the inverse was carried:
# every doubling recomputes 1/h mod g by Newton iteration from mod p.


def _ref_mul(a, b, mod):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % mod
    return out


def _ref_divmod(a, g, mod):
    a = [x % mod for x in a]
    dg = len(g) - 1
    q = [0] * max(1, len(a) - dg)
    for i in range(len(a) - 1, dg - 1, -1):
        c = a[i]
        q[i - dg] = c
        for j in range(dg + 1):
            a[i - dg + j] = (a[i - dg + j] - c * g[j]) % mod
    return q, a[:dg]


def _ref_pad_sub(a, b, mod):
    n = max(len(a), len(b))
    return [((a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0)) % mod for i in range(n)]


def _ref_trim(a):
    while len(a) > 1 and a[-1] == 0:
        a.pop()
    return a


def _reference_split(coeffs, p, prec):
    """(g, h) as int lists mod p^prec; coeffs integral with one unit at s."""
    mod = p**prec
    fc = [c % mod for c in coeffs]
    s = next(i for i, c in enumerate(coeffs) if c % p)
    if s == 0:
        return [1], fc
    g = [0] * s + [1]
    h = [c % p for c in fc[s:]]
    seed = pow(fc[s], -1, p)
    m = p
    while m < mod:
        m = min(m * m, mod)
        z, k = [seed], p
        while k < m:
            k = min(k * k, m)
            hz = _ref_divmod(_ref_mul(h, z, k), g, k)[1]
            z = _ref_divmod(_ref_mul(z, _ref_pad_sub([2], hz, k), k), g, k)[1]
        delta = _ref_pad_sub(fc, _ref_mul(g, h, m), m)
        dg = _ref_divmod(_ref_mul(z, delta, m), g, m)[1]
        dh, rem = _ref_divmod(_ref_pad_sub(delta, _ref_mul(h, dg, m), m), g, m)
        assert not any(rem)
        g = _ref_trim(_ref_pad_sub(g, [-x for x in dg], m))
        h = _ref_trim(_ref_pad_sub(h, [-x for x in dh], m))
    return g, h


def _random_split_case(rng):
    """(coeffs, p, prec): integral, primitive, exactly one unit coefficient."""
    p = rng.choice([2, 3, 5, 7, 11])
    deg = rng.randint(1, 12)
    s = rng.randint(0, deg)
    coeffs = [p * rng.randint(-(p**3), p**3) for _ in range(deg + 1)]
    coeffs[s] = rng.choice([c for c in range(1, 3 * p) if c % p]) * rng.choice([1, -1])
    if coeffs[-1] == 0:
        coeffs[-1] = p ** rng.randint(1, 6)  # small leading terms vanish mod early moduli
    if coeffs[0] == 0:
        coeffs[0] = p
    return coeffs, p, rng.randint(1, 80)


def test_slope_split_equals_reinverting_reference():
    # most precisions are not powers of two, so the last doubling is capped
    rng = random.Random(34)
    for _ in range(2000):
        coeffs, p, prec = _random_split_case(rng)
        g, h = slope_split(coeffs, p, prec)
        assert ([c.lift() for c in g], [c.lift() for c in h]) == _reference_split(
            coeffs, p, prec
        ), (coeffs, p, prec)


def test_slope_split_one_newton_step_per_later_doubling(monkeypatch):
    steps = []
    real = mahler._newton_inverse_step

    def counted(z, h, g, mod):
        steps.append(mod)
        return real(z, h, g, mod)

    monkeypatch.setattr(mahler, "_newton_inverse_step", counted)
    for prec in (1, 2, 3, 4, 5, 8, 9, 17, 64, 65, 200):
        steps.clear()
        slope_split(F_COEFFS, 2, prec)
        doublings = (prec - 1).bit_length()  # 2^D >= prec
        assert len(steps) == max(doublings - 1, 0), prec
        # the step before doubling k works mod the precision the factors have
        assert steps == [2 ** (2**k) for k in range(1, doublings)]


def test_slope_split_rejections():
    with pytest.raises(ZeroSlopePresent):
        slope_split([1, 1], 2, 6)  # root on the unit circle
    with pytest.raises(NotPrimitive):
        slope_split([2, 4], 2, 6)  # p-content


# -- the measure -----------------------------------------------------------------------


def test_mahler_golden_value():
    val = mahler_1d(F_COEFFS, 2, 8)
    alpha = (1 + padic_sqrt(Padic.from_rational(-15, 1, 2, 12))) / 4
    assert val.eq_mod(padic_log(alpha), 8)


def test_mahler_inside_root_gives_zero():
    v = mahler_1d([-4, 1], 2, 8)  # T - 4, |4| < 1
    assert v.is_zero and v.zprec >= 8


def test_mahler_outside_root_gives_log():
    # T - a with |a|_p > 1 needs a rational a; value is log_p(a)
    v = mahler_1d([Fraction(-5, 3), 1], 3, 8)
    assert v.eq_mod(padic_log(Padic.from_rational(5, 3, 3, 9)), 8)


def test_mahler_accepts_laurent_input():
    f = LaurentPoly(1, {(-1,): 2, (0,): -1, (1,): 2})  # t^-1 * (2 - t + 2t^2)
    assert mahler_1d(f, 2, 8).eq_mod(mahler_1d(F_COEFFS, 2, 8), 8)


def test_mahler_zero_slope_rejected():
    with pytest.raises(ZeroSlopePresent):
        mahler_1d([1, 1], 2, 6)


def test_mahler_multiplicative_and_matches_logdet():
    rng = random.Random(32)
    for p in (2, 3, 5):
        for _ in range(5):
            f = helpers.random_expansive_scalar(rng, p)
            g = helpers.random_expansive_scalar(rng, p)
            vf, vg = mahler_1d(f, p, 6), mahler_1d(g, p, 6)
            assert mahler_1d(f * g, p, 6).eq_mod(vf + vg, 6)
            assert vf.eq_mod(logdet_unit(f, p, 6), 6)


def test_mahler_degree_six_random_coefficients():
    # degrees up to 6 with coefficients up to 100, expansive by construction
    rng = random.Random(33)
    done = 0
    while done < 10:
        p = rng.choice([2, 3])
        coeffs = [rng.randint(-100, 100) for _ in range(7)]
        units = [i for i, c in enumerate(coeffs) if c != 0 and helpers.vp(c, p) == 0]
        nonzero = [c for c in coeffs if c != 0]
        if not nonzero or min(helpers.vp(c, p) for c in nonzero) != 0:
            continue
        if len(units) != 1 or coeffs[0] == 0 or coeffs[-1] == 0:
            continue
        v1 = mahler_1d(coeffs, p, 6)
        v2 = logdet_unit(LaurentPoly(1, {(i,): c for i, c in enumerate(coeffs)}), p, 6)
        assert v1.eq_mod(v2, 6)
        done += 1
