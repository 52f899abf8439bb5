import itertools
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
    slope_split,
)
from padic_entropy import mahler
from padic_entropy.errors import DomainMismatch, NotPrimitive, ZeroPolynomial, ZeroSlopePresent

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
    s = helpers.padic_sqrt(Padic.from_rational(-15, 1, 2, 14))
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


def _random_poly(rng, n, bound):
    """n coefficients in [-bound, bound], about a third of them zero."""
    return [0 if rng.random() < 0.3 else rng.randint(-bound, bound) for _ in range(n)]


def test_poly_kernels_equal_per_product_reduction():
    rng = random.Random(35)
    for _ in range(400):
        p = rng.choice([2, 3, 5, 7, 11])
        mod = p ** rng.choice([1, 2, rng.randint(1, 300), 300])
        a = _random_poly(rng, rng.randint(1, 9), 3 * mod)
        b = _random_poly(rng, rng.randint(1, 9), 3 * mod)
        assert mahler._poly_mul_mod(a, b, mod) == _ref_mul(a, b, mod), (a, b, mod)
        g = [rng.randrange(mod) for _ in range(rng.randint(0, 6))] + [1]  # monic, degree 0..6
        q, r = mahler._poly_divmod_monic(a, g, mod)
        want_q, want_r = _ref_divmod(a, g, mod)
        assert q == want_q, (a, g, mod)
        assert r == (want_r if len(g) > 1 else [0]), (a, g, mod)
    for mod in (2, 3**300):  # length-1 operands, zero operands, exact-degree quotients
        assert mahler._poly_mul_mod([0], [5, 0, 7], mod) == [0, 0, 0]
        assert mahler._poly_mul_mod([mod + 2], [mod - 1], mod) == [(mod + 2) * (mod - 1) % mod]
        assert mahler._poly_divmod_monic([0, 0, 0], [1, 1], mod) == ([0, 0], [0])
        assert mahler._poly_divmod_monic([3, mod + 1], [1], mod) == ([3 % mod, 1], [0])
        assert mahler._poly_divmod_monic([4], [1, 0, 1], mod) == ([0], [4 % mod])


def _reference_split(coeffs, p, prec):
    """(g, h) as int lists mod p^prec; coeffs integral with one unit at s.

    h is padded with zeros to deg f - s + 1 coefficients.
    """
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
    return g, h + [0] * (len(coeffs) - s - len(h))


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


def _series_split_cases(rng):
    """The benchmark's Mahler shapes at mahler_1d's working precision w = 260.

    Degree 10-40, p = 2, 3, 5, one unit coefficient near the middle and p
    times a unit everywhere else.
    """
    for p, deg in itertools.product((2, 3, 5), (10, 17, 25, 40)):
        s = deg // 2 + rng.randint(-2, 2)
        units = [c for c in range(-9, 10) if c % p]
        coeffs = [p * rng.choice(units) for _ in range(deg + 1)]
        coeffs[s] //= p
        yield coeffs, p, 260


def _edge_split_cases(rng):
    """No inside root (s = 0), only inside roots (s = deg), and prec 1 and 2.

    With s < deg the top coefficient of h is 0 mod p, and at prec 2 often
    0 mod p^2 as well; it stays in the list at every precision.
    """
    for _ in range(60):
        coeffs, p, prec = _random_split_case(rng)
        units = [c for c in coeffs if c % p]
        deg = len(coeffs) - 1
        for s in (0, deg, rng.randint(0, deg)):
            moved = [p * rng.randint(1, p**2) for _ in range(deg + 1)]
            moved[s] = units[0]
            for k in (1, 2, prec):
                yield moved, p, k


def test_slope_split_equals_reinverting_reference():
    # most precisions are not powers of two, so the last doubling is capped
    rng = random.Random(34)
    cases = [_random_split_case(rng) for _ in range(2000)]
    cases += _series_split_cases(rng)
    cases += _edge_split_cases(rng)
    for coeffs, p, prec in cases:
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
    for prec in (1, 2, 3, 4, 5, 8, 9, 17, 64, 65, 200, 260):
        steps.clear()
        slope_split(F_COEFFS, 2, prec)
        doublings = (prec - 1).bit_length()  # 2^D >= prec
        assert len(steps) == max(doublings - 1, 0), prec
        # the step before each later lift works mod the precision the factors
        # have: p^k over the schedule built down from prec by k -> ceil(k/2)
        assert steps == [2**k for k in _top_down_exponents(prec)[:-1]]


def _top_down_exponents(prec):
    exponents = []
    while prec > 1:
        exponents.append(prec)
        prec = -(-prec // 2)
    return exponents[::-1]


def test_slope_split_lifts_straight_to_the_working_precision(monkeypatch):
    # mahler_1d on a series job works at w = 260.  Each lift step divides f
    # once at full precision p^k, for k on the chain built down from 260
    # (through p^130, never through p^256 and then once more to p^260); the
    # correction of g works mod p^(k - k_prev) and the Newton step of the
    # inverse mod p^k_prev.  A last division at p^260 gives h.
    divisions, products = [], set()
    real_div, real_mul = mahler._poly_divmod_monic, mahler._poly_mul_mod

    def div(a, g, mod):
        divisions.append((list(a), mod))
        return real_div(a, g, mod)

    def mul(a, b, mod):
        products.add(mod)
        return real_mul(a, b, mod)

    monkeypatch.setattr(mahler, "_poly_divmod_monic", div)
    monkeypatch.setattr(mahler, "_poly_mul_mod", mul)
    chain = [2, 3, 5, 9, 17, 33, 65, 130, 260]
    assert _top_down_exponents(260) == chain
    for p in (2, 3, 5):
        divisions.clear()
        products.clear()
        f = [p, 1, p, p**2, 3 * p, p**3, p]  # one inside root
        slope_split(f, p, 260)
        fc = [c % p**260 for c in f]
        assert [mod for a, mod in divisions if a == fc] == [p**k for k in chain] + [p**260]
        corrections = {p ** (k - j) for j, k in zip([1] + chain, chain)}
        newton = {p**k for k in chain[:-1]}
        assert products == corrections | newton
        assert {mod for a, mod in divisions if a != fc} == corrections | newton
        assert p**256 not in products | {mod for _, mod in divisions}


def test_slope_split_h_keeps_its_length_when_the_top_vanishes():
    # h = f div g has deg f - s + 1 coefficients and ends in lead(f) mod p^prec
    for coeffs, s in (([1, 3**5], 0), ([3, 1, 3**5], 1)):
        for prec in (1, 2, 5):
            g, h = slope_split(coeffs, 3, prec)
            assert len(g) == s + 1 and len(h) == len(coeffs) - s
            assert h[-1].is_zero and h[-1].zprec == prec  # O(3^prec)
    g, h = slope_split([3, 1, 3**5], 3, 8)
    assert len(h) == 2 and h[-1].lift() == 3**5


def test_slope_split_rejections():
    with pytest.raises(ZeroSlopePresent):
        slope_split([1, 1], 2, 6)  # root on the unit circle
    with pytest.raises(NotPrimitive):
        slope_split([2, 4], 2, 6)  # p-content


# -- the measure -----------------------------------------------------------------------


def test_mahler_golden_value():
    val = mahler_1d(F_COEFFS, 2, 8)
    alpha = (1 + helpers.padic_sqrt(Padic.from_rational(-15, 1, 2, 12))) / 4
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


def test_degree_span_past_the_cap_refused_before_any_list():
    cap = mahler.DEGREE_CAP
    at_cap = LaurentPoly(1, {(-3,): 1, (cap - 3,): 3})  # 1 + 3t^cap, shifted
    assert mahler_1d(at_cap, 3, 4) == mahler_1d({0: 1, cap: 3}, 3, 4)
    past_cap = [
        LaurentPoly(1, {(-3,): 1, (cap - 2,): 3}),
        {0: 1, 10**12: 3},  # a dense list this long would not fit in memory
        [1] + [0] * cap + [3],
    ]
    routes = [newton_polygon, lambda f, p: slope_split(f, p, 4), lambda f, p: mahler_1d(f, p, 4)]
    for f, route in itertools.product(past_cap, routes):
        with pytest.raises(DomainMismatch, match=r"^degree span \d+ exceeds cap 1024$"):
            route(f, 3)


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


@pytest.mark.parametrize("p", [2, 3, 5])
def test_mahler_loses_no_digit_to_the_working_precision(p):
    # Fraction coefficients with end valuations up to 6 over the content:
    # the lift at prec keeps every digit that 8 more digits of work give
    rng = random.Random(80 + p)
    for prec in range(1, 13):
        done = 0
        while done < 2:
            coeffs = [
                Fraction(rng.randint(-9, 9) * p ** rng.randint(0, 3), rng.choice((1, 2, 7, 11)))
                for _ in range(rng.randint(2, 6))
            ]
            coeffs[0] = Fraction(rng.choice((1, -2, 4)) * p ** rng.randint(0, 6), rng.choice((1, 13)))
            coeffs[-1] = Fraction(rng.choice((1, 5, -8)) * p ** rng.randint(0, 6), rng.choice((1, p)))
            try:
                want = mahler_1d(coeffs, p, prec + 8).truncate_abs(prec)
            except ZeroSlopePresent:
                continue
            assert mahler_1d(coeffs, p, prec) == want, (prec, coeffs)
            done += 1
