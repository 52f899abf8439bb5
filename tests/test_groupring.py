import itertools
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from padic_entropy import (
    FiniteGroup,
    FiniteGroupRingElem,
    HeisenbergQuotient,
    LaurentPoly,
    RingMatrix,
    ZdQuotient,
    build_quotient_group,
    involution,
    reduce_to_quotient,
    rho_matrix,
    sup_norm,
)
from padic_entropy import groupring
from padic_entropy.groupring import GROUP_CACHE_SIZE, _cached_group
from padic_entropy.errors import (
    DimensionMismatch,
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


def test_involution_examples():
    assert involution(F_EXAMPLE).terms == {(-2,): 2, (-1,): -1, (0,): 2}
    rng = random.Random(1)
    for _ in range(20):
        f = helpers.random_laurent(rng, 2)
        g = helpers.random_laurent(rng, 2)
        assert involution(involution(f)) == f
        assert involution(f * g) == involution(g) * involution(f)


def test_involution_matrix_blocks_transpose():
    zero = LaurentPoly(1, {})
    a = LaurentPoly.monomial((2,), 3)
    m = RingMatrix([[zero, a], [zero, zero]])
    ms = involution(m)
    assert ms.entries[1][0] == involution(a)
    assert ms.entries[0][1] == zero


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


# -- groups -------------------------------------------------------------------------


def test_cyclic_group():
    g = build_quotient_group(ZdQuotient((2,)))
    assert g.m == 2
    assert g.mul[1][1] == 0  # s^2 = e


def test_product_group_abelian():
    g = build_quotient_group(ZdQuotient((3, 3)))
    assert g.m == 9 and g.is_abelian()


def test_heisenberg_group_structure():
    g = build_quotient_group(HeisenbergQuotient(2))
    assert g.m == 8 and not g.is_abelian()
    center = [
        i
        for i in range(g.m)
        if all(g.mul[i, j] == g.mul[j, i] for j in range(g.m))
    ]
    assert len(center) == 2
    # z = [x, y]
    hq = HeisenbergQuotient(2)
    xi, yi, zi = hq.project((1, 0, 0)), hq.project((0, 1, 0)), hq.project((0, 0, 1))
    comm = g.mul[g.mul[g.mul[xi, yi], g.inv[xi]], g.inv[yi]]
    assert comm == zi


def test_heisenberg_orders():
    for n in (2, 3):
        assert build_quotient_group(HeisenbergQuotient(n)).m == n**3


def test_order_cap(monkeypatch):
    with pytest.raises(InvalidQuotient):
        build_quotient_group((3, 3))
    with pytest.raises(OrderOverflow):
        build_quotient_group(HeisenbergQuotient(100))

    def no_table(self):
        raise AssertionError("a table was built past the cap")

    # order 4913 is refused before its table is built
    monkeypatch.setattr(HeisenbergQuotient, "multiplication_table", no_table)
    with pytest.raises(OrderOverflow, match=r"^group order 4913 exceeds cap 4096$"):
        build_quotient_group(HeisenbergQuotient(17))


@pytest.mark.parametrize("moduli", [(2, 3), (3, 3), (2, 2, 2)])
def test_zd_table_matches_projection(moduli):
    q = ZdQuotient(moduli)
    g = build_quotient_group(q)
    assert g.m == q.index and g.is_abelian()
    box = list(itertools.product(*(range(-n, n + 1) for n in moduli)))
    for a in box:
        for b in box:
            ab = tuple(x + y for x, y in zip(a, b))
            assert g.mul[q.project(a)][q.project(b)] == q.project(ab)
    assert [q.project(e) for e in g.elements] == list(range(g.m))


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_heisenberg_table_equals_matrix_product_formula(n):
    idx = np.arange(n**3)
    a, b, c = idx // (n * n), idx // n % n, idx % n
    aa = (a[:, None] + a[None, :]) % n
    bb = (b[:, None] + b[None, :]) % n
    cc = (c[:, None] + c[None, :] + a[:, None] * b[None, :]) % n
    mul, elements = HeisenbergQuotient(n).multiplication_table()
    assert np.array_equal(mul, (aa * n + bb) * n + cc)
    assert elements == list(itertools.product(range(n), repeat=3))


@pytest.mark.parametrize("q", [HeisenbergQuotient(10), ZdQuotient((32, 32))])
def test_tables_are_built_in_place(q):
    tracemalloc.start()
    try:
        mul, _ = q.multiplication_table()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2.1 * mul.nbytes


def test_index_dtype_is_the_narrowest_that_holds_the_order():
    # chosen from the order alone, before any table is built
    assert groupring._index_dtype(4096) is np.int16  # the order cap
    assert groupring._index_dtype(2 * 4096) is np.int16  # digit sums at the cap
    assert groupring._index_dtype(32767) is np.int16
    assert groupring._index_dtype(32768) is np.int32
    assert groupring._index_dtype(40000) is np.int32
    assert groupring._index_dtype(2**31) is np.int64


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


_SMALL_QUOTIENTS = [ZdQuotient(m) for m in ((1,), (7,), (100,), (4, 6), (3, 40), (2, 3, 4), (5, 5))]
_SMALL_QUOTIENTS += [HeisenbergQuotient(n) for n in range(1, 7)]


def _reference_table(q):
    if isinstance(q, ZdQuotient):
        return _int64_digit_sum_table(q.moduli)
    n = q.n
    idx = np.arange(n**3)
    return _int64_digit_sum_table((n, n, n), cocycle=(idx // (n * n), idx // n % n))


@pytest.mark.parametrize("q", _SMALL_QUOTIENTS, ids=lambda q: q.label())
def test_narrow_tables_equal_the_int64_construction(q):
    mul, _ = q.multiplication_table()
    assert mul.dtype == np.int16
    assert np.array_equal(mul, _reference_table(q))
    g = FiniteGroup(q)
    assert g.mul.dtype == np.int16 and np.array_equal(g.mul, mul)


def test_digit_sums_widen_the_table_type(monkeypatch):
    # with int8 as the narrowest type, Z/100 (order 100, digit sums up to 198)
    # must still be built without overflow
    def from_int8(top):
        for dtype in (np.int8, np.int16, np.int32):
            if top <= np.iinfo(dtype).max:
                return dtype
        return np.int64

    monkeypatch.setattr(groupring, "_index_dtype", from_int8)
    for q in _SMALL_QUOTIENTS:
        mul, _ = q.multiplication_table()
        assert np.array_equal(mul, _reference_table(q)), q.label()
    assert ZdQuotient((4, 6)).multiplication_table()[0].dtype == np.int8


class _SwappedPair(ZdQuotient):
    """Z^2/(24, 24), order 576, with 1*2 and 1*3 swapped in its table."""

    def multiplication_table(self):
        mul, elements = super().multiplication_table()
        mul[1, [2, 3]] = mul[1, [3, 2]]
        return mul, elements


class _OddGenerators(ZdQuotient):
    """Z/4 with the generator set {2}, which reaches only {0, 2}."""

    def generators(self):
        return [self.project((2,))]


class _XOnly(HeisenbergQuotient):
    def generators(self):
        return super().generators()[:1]


def test_verification_is_exact_past_order_512():
    # identity and inverses are intact; only associativity can catch it
    with pytest.raises(InvalidQuotient, match="associativity") as err:
        build_quotient_group(_SwappedPair((24, 24)))
    assert err.value.code == "INVALID_QUOTIENT"


class _LoopTimesZ2:
    """Z/2 x L, element (a, u) at index 5a + u, with L the smallest
    non-associative loop (order 5, every element its own inverse).

    The first generator (1, e) passes Light's test; only L's fail it.
    """

    LOOP = [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3], [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]]

    def multiplication_table(self):
        a, u = np.arange(10) // 5, np.arange(10) % 5
        mul = 5 * ((a[:, None] + a[None, :]) % 2) + np.array(self.LOOP)[u[:, None], u[None, :]]
        return mul, list(range(10))

    def descriptor(self):
        return {"kind": "loop"}

    def generators(self):
        return [5, 1, 2]


def test_verification_checks_every_generator():
    with pytest.raises(InvalidQuotient, match="associativity"):
        FiniteGroup(_LoopTimesZ2())


@pytest.mark.parametrize("q", [_OddGenerators((4,)), _XOnly(3)])
def test_verification_refuses_generators_that_do_not_generate(q):
    with pytest.raises(InvalidQuotient, match="do not generate"):
        FiniteGroup(q)


def test_group_cache_returns_one_object_and_stays_bounded():
    assert build_quotient_group(ZdQuotient((3, 4))) is build_quotient_group(ZdQuotient((3, 4)))
    assert build_quotient_group(ZdQuotient([5])) is build_quotient_group(ZdQuotient((5,)))
    for n in range(1, GROUP_CACHE_SIZE + 10):
        build_quotient_group(ZdQuotient((n,)))
    assert _cached_group.cache_info().currsize <= GROUP_CACHE_SIZE


def test_group_element_tuples_row_major():
    g = build_quotient_group(HeisenbergQuotient(3))
    assert g.elements[0] == (0, 0, 0)
    assert g.elements[1] == (0, 0, 1)
    assert g.elements[3] == (0, 1, 0)
    assert g.elements[9] == (1, 0, 0)


# -- rho ------------------------------------------------------------------------------


def test_rho_example():
    r = reduce_to_quotient(F_EXAMPLE, ZdQuotient((2,)))
    assert rho_matrix(r) == [[4, -1], [-1, 4]]


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
                a = FiniteGroupRingElem(g, [rng.randint(-4, 4) for _ in range(g.m)])
                b = FiniteGroupRingElem(g, [rng.randint(-4, 4) for _ in range(g.m)])
                trace_const = (a * b).constant_coefficient()
            else:
                a = helpers.random_fg_one_unit_matrix(rng, g, 2, 3)
                b = helpers.random_fg_one_unit_matrix(rng, g, 2, 3)
                trace_const = (a * b).trace_constant_coefficient()
            ma = np.array(rho_matrix(a), dtype=object)
            mb = np.array(rho_matrix(b), dtype=object)
            mab = np.array(rho_matrix(a * b), dtype=object)
            assert (ma @ mb == mab).all()
            assert trace_const * g.m == int(np.trace(mab))


def test_star_consistent_through_rho():
    # rho of f* is the transpose of rho of f for scalar elements
    rng = random.Random(6)
    g = build_quotient_group(HeisenbergQuotient(2))
    a = FiniteGroupRingElem(g, [rng.randint(-4, 4) for _ in range(g.m)])
    m = np.array(rho_matrix(a), dtype=object)
    ms = np.array(rho_matrix(a.star()), dtype=object)
    assert (ms == m.T).all()


def test_group_descriptor_json_round_trip():
    import json

    for q in (ZdQuotient((4,)), ZdQuotient((2, 3)), HeisenbergQuotient(2)):
        g = build_quotient_group(q)
        doc = json.dumps(g.descriptor)
        assert json.loads(doc) == g.descriptor == q.descriptor()
