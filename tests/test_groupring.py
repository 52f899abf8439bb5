import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

from padic_entropy import (
    FiniteGroupRingElem,
    HeisenbergQuotient,
    LaurentPoly,
    Padic,
    RingMatrix,
    ZdQuotient,
    build_quotient_group,
    reduce_to_quotient,
    rho_matrix,
    sup_norm,
)
from padic_entropy.errors import (
    DimensionMismatch,
    DomainMismatch,
    InvalidQuotient,
    OrderOverflow,
)

import helpers

T = LaurentPoly.monomial((1,))
Tinv = LaurentPoly.monomial((-1,))
F_EXAMPLE = 2 * T * T - T + 2


# -- laurent arithmetic ---------------------------------------------------------


def test_mul_examples():
    assert ((T - 1) * (Tinv - 1)).terms == {(0,): 2, (1,): -1, (-1,): -1}
    f = helpers.random_laurent(random.Random(0), 2)
    assert f * LaurentPoly.one(2) == f
    unit_factor = (-T) * (1 - 2 * T - 2 * Tinv)
    assert unit_factor == F_EXAMPLE


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        LaurentPoly.one(1) * LaurentPoly.one(2)


def test_sup_norm_examples():
    assert sup_norm(F_EXAMPLE, 2) == 1
    assert sup_norm(2 * T + 4, 2) == Fraction(1, 2)
    assert sup_norm(LaurentPoly(1, {}), 2) == 0
    assert sup_norm(LaurentPoly.one(1), 97) == 1


def test_sup_norm_axioms_random():
    rng = random.Random(2)
    for p in (2, 3, 5):
        for _ in range(25):
            x = helpers.random_laurent(rng, 2)
            y = helpers.random_laurent(rng, 2)
            assert sup_norm(x + y, p) <= max(sup_norm(x, p), sup_norm(y, p))
            assert sup_norm(x * y, p) <= sup_norm(x, p) * sup_norm(y, p)
            lam = rng.choice([1, 2, 3, 4, 5, 6, 9, 10])
            assert sup_norm(lam * x, p) == sup_norm(
                LaurentPoly.constant(lam, 2), p
            ) * sup_norm(x, p)


# -- reduction --------------------------------------------------------------------


def test_reduce_examples():
    assert reduce_to_quotient(F_EXAMPLE, ZdQuotient((2,))).coeffs == [4, -1]
    assert reduce_to_quotient(F_EXAMPLE, ZdQuotient((1,))).coeffs == [3]
    assert reduce_to_quotient(F_EXAMPLE, ZdQuotient((3,))).coeffs == [2, -1, 2]


def test_reduce_is_ring_homomorphism():
    rng = random.Random(3)
    q = ZdQuotient((3, 4))
    for _ in range(15):
        f = helpers.random_laurent(rng, 2)
        g = helpers.random_laurent(rng, 2)
        assert reduce_to_quotient(f * g, q) == reduce_to_quotient(f, q) * reduce_to_quotient(g, q)
        assert reduce_to_quotient(f + g, q) == reduce_to_quotient(f, q) + reduce_to_quotient(g, q)


def test_reduce_norm_non_increasing():
    rng = random.Random(4)
    q = ZdQuotient((2, 2))
    for p in (2, 5):
        for _ in range(10):
            f = helpers.random_laurent(rng, 2)
            assert sup_norm(reduce_to_quotient(f, q), p) <= sup_norm(f, p)


def test_reduce_dimension_checks():
    with pytest.raises(InvalidQuotient):
        reduce_to_quotient(F_EXAMPLE, ZdQuotient((2, 2)))
    with pytest.raises(InvalidQuotient):
        reduce_to_quotient(helpers.random_laurent(random.Random(0), 4), HeisenbergQuotient(2))


def test_reduced_matrix_is_entrywise_over_one_group():
    rng = random.Random(7)
    q = HeisenbergQuotient(3)
    F = RingMatrix([[helpers.random_laurent(rng, 3) for _ in range(2)] for _ in range(2)])
    R = reduce_to_quotient(F, q)
    assert R == F.map_entries(lambda e: reduce_to_quotient(e, q))
    assert len({id(e.group) for row in R.entries for e in row}) == 1
    with pytest.raises(DomainMismatch):
        reduce_to_quotient(R, q)
    with pytest.raises(DomainMismatch):
        reduce_to_quotient(3, q)


# -- groups -------------------------------------------------------------------------


def test_cyclic_group():
    g = build_quotient_group(ZdQuotient((2,)))
    assert g.index == 2 and g.multiply(0, 1) == g.multiply(1, 0) == 1  # 0 is e
    assert g.multiply(1, 1) == 0  # s^2 = e
    assert [g.inverse(i) for i in range(2)] == [0, 1]


def test_product_group_abelian():
    g = build_quotient_group(ZdQuotient((3, 3)))
    assert g.index == 9
    assert all(g.multiply(i, j) == g.multiply(j, i) for i in range(9) for j in range(9))


def test_heisenberg_group_structure():
    g = build_quotient_group(HeisenbergQuotient(2))
    assert g.index == 8
    center = [i for i in range(8) if all(g.multiply(i, j) == g.multiply(j, i) for j in range(8))]
    assert len(center) == 2
    # z = [x, y]
    hq = HeisenbergQuotient(2)
    xi, yi, zi = hq.project((1, 0, 0)), hq.project((0, 1, 0)), hq.project((0, 0, 1))
    comm = g.multiply(g.multiply(g.multiply(xi, yi), g.inverse(xi)), g.inverse(yi))
    assert comm == zi
    assert center == [0, zi]


def test_heisenberg_orders():
    for n in (2, 3):
        assert build_quotient_group(HeisenbergQuotient(n)).index == n**3


def test_order_cap(monkeypatch):
    with pytest.raises(InvalidQuotient):
        build_quotient_group((3, 3))
    with pytest.raises(OrderOverflow):
        build_quotient_group(HeisenbergQuotient(100))

    def no_project(self, exp):
        raise AssertionError("an exponent was folded past the cap")

    # order 4913 is refused before any exponent is folded into its group
    monkeypatch.setattr(HeisenbergQuotient, "project", no_project)
    f = 3 * LaurentPoly.monomial((1, 0, 0)) + 1
    with pytest.raises(OrderOverflow, match=r"^group order 4913 exceeds cap 4096$"):
        reduce_to_quotient(f, HeisenbergQuotient(17))


def test_finite_group_refuses_what_is_not_a_quotient():
    for spec in ((3, 3), "heis:2", 8, None):
        with pytest.raises(InvalidQuotient) as err:
            build_quotient_group(spec)
        assert err.value.code == "INVALID_QUOTIENT"


@pytest.mark.parametrize("moduli", [(2, 3), (3, 3), (2, 2, 2)])
def test_zd_table_matches_projection(moduli):
    # the law is exponent addition on a box that wraps every modulus
    q = ZdQuotient(moduli)
    g = build_quotient_group(q)
    assert g is q
    box = list(itertools.product(*(range(-n, n + 1) for n in moduli)))
    for a in box:
        neg = tuple(-x for x in a)
        assert g.inverse(q.project(a)) == q.project(neg)
        for b in box:
            ab = tuple(x + y for x, y in zip(a, b))
            assert g.multiply(q.project(a), q.project(b)) == q.project(ab)
    digits = itertools.product(*(range(n) for n in moduli))
    assert [q.project(e) for e in digits] == list(range(g.index))  # row-major


def _unitriangular(a, b, c, n):
    one = 1 % n
    return [[one, a, c], [0, one, b], [0, 0, one]]


def _matmul_mod(x, y, n):
    return [[sum(x[i][k] * y[k][j] for k in range(3)) % n for j in range(3)] for i in range(3)]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_heisenberg_table_equals_matrix_product_formula(n):
    # index (a*n + b)*n + c is the matrix [[1,a,c],[0,1,b],[0,0,1]] over Z/n
    g = build_quotient_group(HeisenbergQuotient(n))
    mats = [_unitriangular(a, b, c, n) for a, b, c in itertools.product(range(n), repeat=3)]
    ident = mats[0]
    for i, x in enumerate(mats):
        assert _matmul_mod(x, mats[g.inverse(i)], n) == ident
        for j, y in enumerate(mats):
            assert mats[g.multiply(i, j)] == _matmul_mod(x, y, n)


_SMALL_QUOTIENTS = [ZdQuotient(m) for m in ((1,), (7,), (100,), (4, 6), (3, 40), (2, 3, 4), (5, 5))]
_SMALL_QUOTIENTS += [HeisenbergQuotient(n) for n in range(1, 7)]


def _law_table(g):
    """The quotient's law read into a narrow (int16) table, one product at a time."""
    elements = range(g.index)
    return np.array([[g.multiply(i, j) for j in elements] for i in elements], dtype=np.int16)


def _int64_digit_sum_table(moduli, cocycle=None):
    """Reference: the mixed-radix sum table, every step in int64."""
    idx = np.arange(int(np.prod(moduli)), dtype=np.int64)
    mul = np.zeros((idx.size, idx.size), dtype=np.int64)
    stride = 1
    for k, n in enumerate(reversed(moduli)):
        digit = idx // stride % n
        term = digit[:, None] + digit[None, :]
        if k == 0 and cocycle is not None:
            term = term + np.multiply.outer(*[np.asarray(c, dtype=np.int64) for c in cocycle])
        mul += term % n * stride
        stride *= n
    return mul


def _reference_table(q):
    if isinstance(q, ZdQuotient):
        return _int64_digit_sum_table(q.moduli)
    n = q.n
    idx = np.arange(n**3)
    return _int64_digit_sum_table((n, n, n), cocycle=(idx // (n * n), idx // n % n))


@pytest.mark.parametrize("q", _SMALL_QUOTIENTS, ids=lambda q: q.label())
def test_narrow_tables_equal_the_int64_construction(q):
    # the arithmetic law, entry for entry, against the vectorized digit sums
    assert np.array_equal(_law_table(q), _reference_table(q))


@pytest.mark.parametrize("q", _SMALL_QUOTIENTS, ids=lambda q: q.label())
def test_group_axioms_by_brute_force(q):
    assert q.index <= 216
    mul = _law_table(q)
    idx = np.arange(q.index)
    assert np.array_equal(mul[0], idx) and np.array_equal(mul[:, 0], idx)
    inv = np.array([q.inverse(i) for i in range(q.index)])
    assert (mul[idx, inv] == 0).all() and (mul[inv, idx] == 0).all()
    for x in range(q.index):  # (x y) z == x (y z) for every y, z
        assert np.array_equal(mul[mul[x]], mul[x][mul]), x
    assert np.array_equal(mul, mul.T) == (isinstance(q, ZdQuotient) or q.n == 1)


def _light_test(mul, gens):
    """Light's test: (x g) y == x (g y) for all x, y and each generator g.

    The elements g that pass are closed under products, so once right
    multiplication by the generators reaches every element from the
    identity 0, the whole table is associative.
    """
    reached, frontier = {0}, [0]
    while frontier:
        frontier = [h for h in {int(mul[x, s]) for x in frontier for s in gens} if h not in reached]
        reached.update(frontier)
    assert len(reached) == len(mul), "the generators do not generate the table"
    g_rows = mul[gens]
    for x in range(len(mul)):
        assert np.array_equal(mul[mul[x, gens]], mul[x][g_rows]), f"associativity fails at {x}"


@pytest.mark.parametrize(
    "q, gens",
    [
        (HeisenbergQuotient(8), [(1, 0, 0), (0, 1, 0)]),
        (ZdQuotient((24, 24)), [(1, 0), (0, 1)]),
        (ZdQuotient((4, 6, 10)), [(1, 0, 0), (0, 1, 0), (0, 0, 1)]),
    ],
    ids=["heis(8)", "Z/24xZ/24", "Z/4xZ/6xZ/10"],
)
def test_larger_quotients_pass_lights_test(q, gens):
    mul = _law_table(q)
    _light_test(mul, [q.project(e) for e in gens])
    assert (mul[np.arange(q.index), [q.inverse(i) for i in range(q.index)]] == 0).all()


# The next three tests show that the Light's-test oracle above is sharp.


def test_verification_is_exact_past_order_512():
    # identity and inverses are intact; only associativity can catch it
    mul = _law_table(ZdQuotient((24, 24)))
    _light_test(mul, [1, 24])
    mul[1, [2, 3]] = mul[1, [3, 2]]
    with pytest.raises(AssertionError, match="associativity"):
        _light_test(mul, [1, 24])


# The smallest non-associative loop (order 5, every element its own inverse).
_LOOP = [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3], [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]]


def test_verification_checks_every_generator():
    # Z/2 x L, element (a, u) at index 5a + u; the first generator (1, e)
    # passes Light's test, only L's fail it
    a, u = np.arange(10) // 5, np.arange(10) % 5
    mul = 5 * ((a[:, None] + a[None, :]) % 2) + np.array(_LOOP)[u[:, None], u[None, :]]
    with pytest.raises(AssertionError, match="associativity"):
        _light_test(mul, [5, 1, 2])


class _OddGenerators(ZdQuotient):
    """Z/4 with the generator set {2}, which reaches only {0, 2}."""

    def generators(self):
        return [self.project((2,))]


class _XOnly(HeisenbergQuotient):
    def generators(self):
        return [self.project((1, 0, 0))]


@pytest.mark.parametrize("q", [_OddGenerators((4,)), _XOnly(3)])
def test_verification_refuses_generators_that_do_not_generate(q):
    with pytest.raises(AssertionError, match="do not generate"):
        _light_test(_law_table(q), q.generators())


def test_group_element_tuples_row_major():
    # index (a*n + b)*n + c holds the matrix-entry triple (a, b, c), and the
    # word x^a y^b z^c is the triple (a, b, ab + c)
    q = HeisenbergQuotient(3)
    assert q.project((0, 0, 0)) == 0
    assert q.project((0, 0, 1)) == 1
    assert q.project((0, 1, 0)) == 3
    assert q.project((1, 0, 0)) == 9
    assert q.project((1, 1, 0)) == 13  # xy = (1, 1, 1)


# -- rho ------------------------------------------------------------------------------


def test_rho_example():
    r = reduce_to_quotient(F_EXAMPLE, ZdQuotient((2,)))
    assert rho_matrix(r) == [[4, -1], [-1, 4]]


def _dense_rho(F, g):
    """Reference: block (s, t) has entry a^(s,t) at g_i^-1 g_j in cell (i, j)."""
    m, r = g.index, F.r
    return [
        [F.entries[s][t].coeffs[g.multiply(g.inverse(i), j)] for t in range(r) for j in range(m)]
        for s in range(r)
        for i in range(m)
    ]


@pytest.mark.parametrize(
    "q",
    [ZdQuotient((7,)), ZdQuotient((4, 6)), HeisenbergQuotient(2), HeisenbergQuotient(3)],
    ids=lambda q: q.label(),
)
@pytest.mark.parametrize("r", [1, 2])
@pytest.mark.parametrize("density", [1.0, 0.1])
def test_rho_matrix_equals_the_dense_formula(q, r, density):
    rng = random.Random(f"{q.label()} {r} {density}")
    g = build_quotient_group(q)
    for _ in range(4):
        F = RingMatrix(
            [
                [
                    FiniteGroupRingElem(
                        g, [rng.randint(-5, 5) if rng.random() < density else 0 for _ in range(g.index)]
                    )
                    for _ in range(r)
                ]
                for _ in range(r)
            ]
        )
        assert rho_matrix(F) == _dense_rho(F, g)
        if r == 1:
            assert rho_matrix(F.entries[0][0]) == _dense_rho(F, g)


def test_rho_identity_and_group_element():
    g = build_quotient_group(HeisenbergQuotient(2))
    ident = FiniteGroupRingElem.one(g)
    assert rho_matrix(ident) == [
        [1 if i == j else 0 for j in range(8)] for i in range(8)
    ]
    el = FiniteGroupRingElem.element(g, 5)
    m = np.array(rho_matrix(el))
    assert (m.sum(axis=0) == 1).all() and (m.sum(axis=1) == 1).all()
    assert set(m.ravel().tolist()) == {0, 1}


def test_rho_multiplicative_and_trace_compat():
    rng = random.Random(5)
    g = build_quotient_group(HeisenbergQuotient(2))
    for r in (1, 2):
        for _ in range(6):
            if r == 1:
                a = FiniteGroupRingElem(g, [rng.randint(-4, 4) for _ in range(g.index)])
                b = FiniteGroupRingElem(g, [rng.randint(-4, 4) for _ in range(g.index)])
                trace_const = (a * b).constant_coefficient()
            else:
                a = helpers.random_fg_one_unit_matrix(rng, g, 2, 3)
                b = helpers.random_fg_one_unit_matrix(rng, g, 2, 3)
                ab = a * b
                trace_const = sum(ab.entries[s][s].constant_coefficient() for s in range(2))
            ma = np.array(rho_matrix(a), dtype=object)
            mb = np.array(rho_matrix(b), dtype=object)
            mab = np.array(rho_matrix(a * b), dtype=object)
            assert (ma @ mb == mab).all()
            assert trace_const * g.index == int(np.trace(mab))


def test_group_descriptor_json_round_trip():
    import json

    for q in (ZdQuotient((4,)), ZdQuotient((2, 3)), HeisenbergQuotient(2)):
        g = build_quotient_group(q)
        doc = json.dumps(g.descriptor())
        assert json.loads(doc) == g.descriptor() == q.descriptor()


# -- the quotient as the group of its ring ---------------------------------------------


def test_heis16_reduction_needs_no_inverse(monkeypatch):
    calls = []
    inverse = HeisenbergQuotient.inverse

    def counting(self, i):
        calls.append(i)
        return inverse(self, i)

    monkeypatch.setattr(HeisenbergQuotient, "inverse", counting)
    q = HeisenbergQuotient(16)
    f = reduce_to_quotient(3 + LaurentPoly.monomial((1, -2, 3)) - LaurentPoly.monomial((0, 5, 0)), q)
    assert f.group is q and calls == []


def test_elements_over_different_quotients_of_one_order_refuse_to_mix():
    zd, heis = ZdQuotient((8,)), HeisenbergQuotient(2)
    assert zd.index == heis.index
    a = FiniteGroupRingElem.element(zd, 3)
    b = FiniteGroupRingElem.element(heis, 3)
    for op in (lambda: a + b, lambda: a * b, lambda: b - a, lambda: RingMatrix([[a, b], [b, a]])):
        with pytest.raises(DomainMismatch):
            op()
    assert a != b


def test_elements_over_equal_quotients_built_apart_mix():
    q1, q2 = ZdQuotient((2, 3)), ZdQuotient((2, 3))
    assert q1 is not q2 and q1 == q2
    a = FiniteGroupRingElem(q1, [1, 2, 0, 0, 3, 0])
    b = FiniteGroupRingElem(q2, [0, 1, 0, 0, 0, 4])
    assert (a + b).coeffs == [1, 3, 0, 0, 3, 4]
    assert a * b == b * a == FiniteGroupRingElem(q1, [12, 1, 2, 8, 0, 7])
    m = RingMatrix([[a, b], [b, a]])
    assert (m * m).entries[0][0] == a * a + b * b
    assert FiniteGroupRingElem.one(q1) == FiniteGroupRingElem.one(q2)


# -- the zero rule: only exact zeros leave the terms --------------------------------------


def test_a_coefficient_known_to_O_p_k_stays_a_term():
    o2 = Padic.zero(3, 2)
    assert not LaurentPoly(1, {(0,): o2}).is_zero()
    assert LaurentPoly(1, {(0,): Padic.zero(3), (1,): 0, (2,): Fraction(0)}).is_zero()
    g = ZdQuotient((5,))
    a = FiniteGroupRingElem.element(g, 0, o2)
    assert not a.is_zero() and a.coeffs == [o2, 0, 0, 0, 0]
    assert FiniteGroupRingElem(g, [Padic.zero(3), 0, Fraction(0), 0, 0]).is_zero()


def test_a_product_with_an_O_p_k_coefficient_keeps_its_bound():
    o2, o4 = Padic.zero(3, 2), Padic.zero(3, 4)
    g = HeisenbergQuotient(2)
    a = FiniteGroupRingElem.element(g, 0, o2)
    for product in (a * 9, 9 * a, a * FiniteGroupRingElem.element(g, 0, 9)):
        assert product.terms == {0: o4}
    assert (a * FiniteGroupRingElem.element(g, 5, 9)).terms == {5: o4}
    assert (LaurentPoly.constant(o2) * (9 * T)).terms == {(1,): o4}


def test_equality_is_exact_on_both_rings():
    o2, one = Padic.zero(3, 2), Padic.one(3, 4)
    g = ZdQuotient((2,))
    assert FiniteGroupRingElem.element(g, 0, o2) != FiniteGroupRingElem.zero(g)
    assert FiniteGroupRingElem.element(g, 0, one) != FiniteGroupRingElem.one(g)
    assert FiniteGroupRingElem.element(g, 1, Fraction(2)) == FiniteGroupRingElem.element(g, 1, 2)
    assert LaurentPoly.constant(o2) != LaurentPoly(1, {})
    assert LaurentPoly.constant(one) != LaurentPoly.one(1)
    assert LaurentPoly.constant(Fraction(2)) == LaurentPoly.constant(2)
    # a - a is O(3^4) at every element, not 0
    b = FiniteGroupRingElem(g, [one, one])
    assert b - b != FiniteGroupRingElem.zero(g)
    assert (b - b).terms == {0: Padic.zero(3, 4), 1: Padic.zero(3, 4)}


# -- refusals of what is not an integer ---------------------------------------------------


def test_non_integer_exponents_are_refused():
    for exp in ((1.5,), ("1",), (1, None)):
        with pytest.raises(DomainMismatch, match="is not a vector of integers"):
            LaurentPoly(len(exp), {exp: 3})
    with pytest.raises(DomainMismatch):
        LaurentPoly.monomial((0.5, 1))
    # integer types other than int are read as ints
    assert LaurentPoly(2, {(np.int64(1), True): 3}).terms == {(1, 1): 3}


def test_non_integer_moduli_are_refused():
    for moduli in ((2.5,), ("3",), (2, 1.0)):
        with pytest.raises(InvalidQuotient, match="are not integers"):
            ZdQuotient(moduli)
    for n in (2.5, "3", None):
        with pytest.raises(InvalidQuotient, match="is not an integer"):
            HeisenbergQuotient(n)
    # the existing refusals keep their messages
    with pytest.raises(InvalidQuotient, match=r"^all moduli must be >= 1$"):
        ZdQuotient((0,))
    with pytest.raises(InvalidQuotient, match=r"^modulus must be >= 1$"):
        HeisenbergQuotient(0)
    assert ZdQuotient((np.int64(3),)) == ZdQuotient((3,))
    assert HeisenbergQuotient(np.int64(2)).n == 2


def test_empty_matrix_is_refused():
    with pytest.raises(DimensionMismatch, match="at least one row"):
        RingMatrix([])
    with pytest.raises(DimensionMismatch, match=r"^matrix must be square$"):
        RingMatrix([[]])


# -- sup norm and coefficient products on p-adic coefficients -------------------------------


def test_sup_norm_on_padic_coefficients():
    nine = Padic.from_rational(9, 1, 3, 4)
    third = Padic.from_rational(1, 3, 3, 4)
    assert sup_norm(LaurentPoly.constant(nine), 3) == Fraction(1, 9)
    assert sup_norm(LaurentPoly.constant(Padic.zero(3, 5)), 3) == Fraction(1, 243)
    assert sup_norm(LaurentPoly(1, {(0,): nine, (1,): third}), 3) == 3
    assert sup_norm(Padic.zero(3), 3) == 0
    g = ZdQuotient((2,))
    assert sup_norm(FiniteGroupRingElem(g, [nine, Padic.zero(3, 3)]), 3) == Fraction(1, 9)


def test_fraction_and_padic_coefficients_refuse_to_multiply():
    half = LaurentPoly.constant(Fraction(1, 2))
    for product in (lambda: half * Padic.one(3, 4), lambda: Padic.one(3, 4) * half,
                    lambda: half * LaurentPoly.constant(Padic.one(3, 4))):
        with pytest.raises(DomainMismatch, match="cannot mix Fraction and p-adic coefficients"):
            product()


def test_a_non_integer_dimension_is_refused():
    for d in (1.5, "1", None):
        with pytest.raises(DimensionMismatch, match="is not an integer"):
            LaurentPoly(d, {})
    assert LaurentPoly(np.int64(2), {(1, 0): 3}).d == 2


def test_an_element_index_outside_the_group_is_refused():
    q = ZdQuotient((3,))
    for i in (-1, 3):
        with pytest.raises(DomainMismatch, match=r"outside 0\.\.2"):
            FiniteGroupRingElem.element(q, i)
    for i in (1.0, "1", None):
        with pytest.raises(DomainMismatch, match="is not an integer"):
            FiniteGroupRingElem.element(q, i)
    assert FiniteGroupRingElem.element(q, np.int64(2), 5).terms == {2: 5}


# -- hashing and display ------------------------------------------------------------


def test_equal_elements_hash_alike_on_both_rings():
    f = LaurentPoly(2, {(1, 0): 3, (0, -1): -1})
    g = LaurentPoly(2, {(0, -1): -1, (1, 0): 3, (0, 0): 0})
    assert hash(f) == hash(g) and len({f, g, f + 1}) == 2
    q = ZdQuotient((3,))
    a = FiniteGroupRingElem(q, [1, 0, 2])
    b = FiniteGroupRingElem.element(q, 0) + FiniteGroupRingElem.element(q, 2, 2)
    assert hash(a) == hash(b) and len({a, b, FiniteGroupRingElem(ZdQuotient((1, 3)), [1, 0, 2])}) == 2


def test_reprs_of_elements_and_matrices():
    f = LaurentPoly(2, {(1, 0): 3, (0, 0): 1, (0, -1): -1})
    assert repr(f) == "3*x + 1 - y^-1"
    q = ZdQuotient((2,))
    assert repr(FiniteGroupRingElem(q, [1, Padic.from_rational(9, 1, 3, 4)])) == (
        "1*g0 + 1*3^2 + O(3^6)*g1"
    )
    assert repr(FiniteGroupRingElem.zero(q)) == "0"
    m = RingMatrix([[f, LaurentPoly(2)], [LaurentPoly.one(2), f]])
    assert repr(m) == "[[3*x + 1 - y^-1, 0], [1, 3*x + 1 - y^-1]]"
