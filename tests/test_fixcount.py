import itertools
import math
import random
import sys

import pytest

from padic_entropy import (
    LaurentPoly,
    RingMatrix,
    ZdQuotient,
    det_exact,
    fix_count,
    fix_count_char_crt,
    HeisenbergQuotient,
    Padic,
    quotient_det,
    reduce_to_quotient,
    rho_matrix,
)
from padic_entropy import fixcount
from padic_entropy._primes import pool_root, primes_one_mod
from padic_entropy.fixcount import _det_bareiss, _det_crt, check_quotient
from padic_entropy.errors import (
    DomainMismatch,
    InfiniteFixedPointSet,
    InvalidQuotient,
    NonAbelianQuotient,
    NotPrime,
)

import helpers

T = LaurentPoly.monomial((1,))
F_EXAMPLE = 2 * T * T - T + 2


# -- determinants ----------------------------------------------------------------


def test_det_examples():
    assert det_exact([[4, -1], [-1, 4]]) == 15
    assert det_exact([[1 if i == j else 0 for j in range(7)] for i in range(7)]) == 1
    assert det_exact([[1, 2, 3], [1, 2, 3], [0, 1, 4]]) == 0


def test_det_routes_agree_small():
    rng = random.Random(10)
    for n in range(1, 13):
        for _ in range(4):
            m = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
            assert _det_bareiss(m) == _det_crt(m)


def test_det_routes_agree_large():
    rng = random.Random(11)
    n = 70
    m = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
    assert _det_bareiss(m) == _det_crt(m)


def test_det_singular_and_zero_rows():
    assert _det_crt([[0, 0], [1, 2]]) == 0
    rng = random.Random(12)
    n = 9
    m = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
    m[4] = m[2][:]  # repeated row
    assert _det_bareiss(m) == 0 and _det_crt(m) == 0


# -- fixed point counts -------------------------------------------------------------


def test_fix_count_examples():
    for n, want in [(1, 3), (2, 15), (3, 27)]:
        rec = fix_count(F_EXAMPLE, ZdQuotient((n,)), p=2, prec=8)
        assert rec.fix_count == want
        assert rec.index == n


def test_fix_count_matches_resultant_oracle():
    # independent oracle: |Fix_n| = |Res(T^n - 1, f)| via Sylvester elimination
    for n in range(1, 9):
        cyc = [-1] + [0] * (n - 1) + [1]
        res = helpers.sylvester_resultant(cyc, [2, -1, 2])
        rec = fix_count(F_EXAMPLE, ZdQuotient((n,)), p=2, prec=6)
        assert rec.fix_count == abs(int(res))


@pytest.mark.parametrize("m", [[[1, 2], [3]], [[1], [2, 3]], [[1, 2], [3, 4, 5]], [[1, 2]]])
def test_det_exact_refuses_a_ragged_or_oblong_matrix(m):
    with pytest.raises(DomainMismatch, match=r"^matrix must be square$"):
        det_exact(m)


def test_fix_count_record_fields():
    rec = fix_count(F_EXAMPLE, ZdQuotient((2,)), p=2, prec=8)
    assert rec.fix_count == 15
    assert rec.p_valuation == 0
    assert rec.unit_residue == 15
    assert (rec.normalized * rec.index - rec.unit_log).is_zero
    # p dividing the count: f = t + 3 at n = 2 -> |f(1) f(-1)| = |4*2| = 8
    rec2 = fix_count(T + 3, ZdQuotient((2,)), p=2, prec=8)
    assert rec2.fix_count == 8 and rec2.p_valuation == 3 and rec2.unit_residue == 1


def test_fix_count_infinite_set():
    with pytest.raises(InfiniteFixedPointSet) as exc:
        fix_count(T - 1, ZdQuotient((4,)), p=3, prec=6)
    assert exc.value.quotient is not None


def test_fix_count_group_element_is_one():
    for q in (ZdQuotient((5,)), ZdQuotient((3,))):
        rec = fix_count(LaurentPoly.monomial((2,)), q, p=3, prec=6)
        assert rec.fix_count == 1
        assert rec.normalized.is_zero
    # same over a nonabelian quotient: any group element acts by permutation
    rec = fix_count(
        LaurentPoly.monomial((1, 1, 0), d=3), HeisenbergQuotient(2), p=3, prec=6
    )
    assert rec.fix_count == 1 and rec.normalized.is_zero


def test_fix_count_multiplicative_in_f():
    rng = random.Random(13)
    q = ZdQuotient((4,))
    for _ in range(10):
        f = helpers.random_laurent(rng, 1)
        g = helpers.random_laurent(rng, 1)
        try:
            rf = fix_count(f, q, p=5, prec=4)
            rg = fix_count(g, q, p=5, prec=4)
            rfg = fix_count(f * g, q, p=5, prec=4)
        except InfiniteFixedPointSet:
            continue
        assert rfg.fix_count == rf.fix_count * rg.fix_count


# -- character / CRT route ------------------------------------------------------------


def test_char_crt_examples():
    assert abs(fix_count_char_crt(F_EXAMPLE, (3,))) == 27
    assert fix_count_char_crt(LaurentPoly.one(1), (5,)) == 1
    assert abs(fix_count_char_crt(LaurentPoly.monomial((3,)), (4,))) == 1


def test_char_crt_signed_equality():
    # the regular-representation determinant and the character product agree
    # including sign
    rng = random.Random(14)
    checked = 0
    while checked < 12:
        d = rng.choice([1, 2])
        f = helpers.random_laurent(rng, d, span=2, cmax=4)
        moduli = tuple(rng.randint(1, 8 if d == 1 else 4) for _ in range(d))
        q = ZdQuotient(moduli)
        try:
            rec = fix_count(f, q, p=3, prec=4)
        except InfiniteFixedPointSet:
            continue
        signed = fix_count_char_crt(f, moduli)
        assert abs(signed) == rec.fix_count
        assert signed == rec.det_sign * rec.fix_count
        checked += 1


def test_char_crt_matrix_input():
    rng = random.Random(15)
    F = helpers.random_one_unit_matrix(rng, 2, 1, 3)
    q = ZdQuotient((4,))
    rec = fix_count(F, q, p=3, prec=4)
    signed = fix_count_char_crt(F, (4,))
    assert abs(signed) == rec.fix_count


def test_char_crt_rejects_nonabelian():
    with pytest.raises(NonAbelianQuotient):
        fix_count_char_crt(F_EXAMPLE, HeisenbergQuotient(2))


# -- character and Clifford blocks against the dense regular representation -----


def _dense_det(f, q):
    return det_exact(rho_matrix(reduce_to_quotient(f, q)))


def _random_entry(rng, d):
    """Random integer Laurent polynomial with a negative exponent, and with a
    z-term when d = 3."""
    f = helpers.random_laurent(rng, d, span=2, cmax=4)
    e = (-1,) + tuple(rng.choice((-2, -1, 1, 2)) for _ in range(d - 1))
    return f + LaurentPoly(d, {e: rng.choice((-3, -1, 2))})


def _random_input(rng, r, d):
    if r == 1:
        return _random_entry(rng, d)
    return RingMatrix([[_random_entry(rng, d) for _ in range(r)] for _ in range(r)])


@pytest.mark.parametrize("r", [1, 2])
@pytest.mark.parametrize("moduli", [(6,), (3, 3), (2, 2, 2), (3, 4), (2, 3, 5)])
def test_quotient_det_matches_dense_zd(r, moduli):
    rng = random.Random(f"zd:{r}:{moduli}")
    q = ZdQuotient(moduli)
    for _ in range(3):
        f = _random_input(rng, r, len(moduli))
        assert quotient_det(f, q) == _dense_det(f, q)


@pytest.mark.parametrize("r, n", [(1, 2), (1, 3), (1, 4), (1, 5), (2, 2), (2, 3)])
def test_quotient_det_matches_dense_heisenberg(r, n):
    rng = random.Random(f"heis:{r}:{n}")
    q = HeisenbergQuotient(n)
    for _ in range(3):
        f = _random_input(rng, r, 3)
        assert quotient_det(f, q) == _dense_det(f, q)


X = LaurentPoly.monomial((1, 0))
Y = LaurentPoly.monomial((0, 1))
X3 = LaurentPoly.monomial((1, 0, 0))
Z3 = LaurentPoly.monomial((0, 0, 1))
F_FAMILY = 1 + 3 * X + 3 * Y + 3 * LaurentPoly.monomial((-1, -1))


@pytest.mark.parametrize(
    "f, q",
    [
        (X - Y, ZdQuotient((3, 3))),
        (1 - X * Y**2, ZdQuotient((3, 4))),
        (RingMatrix([[1 + X, 1 - Y], [1 - X, 1 + Y]]), ZdQuotient((2, 2))),
        (1 - X3, HeisenbergQuotient(3)),
        (Z3 - 1, HeisenbergQuotient(2)),
        (RingMatrix([[1 + X3, 1 + X3], [Z3, Z3]]), HeisenbergQuotient(2)),
    ],
    ids=["x-y", "1-xy2", "zd-matrix", "heis-1-x", "heis-z-1", "heis-matrix"],
)
def test_vanishing_determinant_is_infinite_fixed_point_set(f, q):
    assert quotient_det(f, q) == 0 == _dense_det(f, q)
    with pytest.raises(InfiniteFixedPointSet):
        fix_count(f, q, p=3, prec=4)


def check_quotient_at_3(f, q):
    return check_quotient(f, q, 3)


def fix_count_at_3(f, q):
    return fix_count(f, q, 3)


@pytest.mark.parametrize(
    "route",
    [quotient_det, reduce_to_quotient, check_quotient_at_3, fix_count_at_3, fix_count_char_crt],
)
def test_quotient_dimension_checks(route):
    with pytest.raises(InvalidQuotient):
        route(X, ZdQuotient((3,)))
    for moduli in ((3,), (0,), (-3,), (0, 3)):
        with pytest.raises(InvalidQuotient):
            route(X, moduli)
    if route is fix_count_char_crt:
        return  # it takes bare moduli, and refuses Heisenberg as NonAbelianQuotient
    with pytest.raises(InvalidQuotient):
        route(LaurentPoly.monomial((1, 0, 0, 1)), HeisenbergQuotient(2))
    with pytest.raises(InvalidQuotient):
        route(X, (3, 3))


def test_fix_count_builds_no_group_table_or_rho_matrix(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the dense route ran")

    for name, module in list(sys.modules.items()):
        if name.startswith("padic_entropy"):
            for fn in ("rho_matrix", "build_quotient_group"):
                if hasattr(module, fn):
                    monkeypatch.setattr(module, fn, refuse)
    for q in (HeisenbergQuotient(6), ZdQuotient((12, 12))):
        rec = fix_count(F_FAMILY, q, p=3, prec=4)
        assert rec.fix_count > 1


@pytest.mark.parametrize("p", [0, 4, 9])
def test_fix_count_refuses_non_prime_p(p):
    with pytest.raises(NotPrime):
        fix_count(F_EXAMPLE, ZdQuotient((3,)), p=p, prec=4)


def test_quotient_det_refuses_a_bare_scalar():
    with pytest.raises(DomainMismatch, match=r"^can only reduce Laurent data$"):
        quotient_det(5, ZdQuotient((3,)))


def test_fix_count_refuses_a_bare_scalar():
    with pytest.raises(DomainMismatch, match=r"^can only reduce Laurent data$"):
        fix_count(5, ZdQuotient((3,)), 3)


# -- serialization ----------------------------------------------------------------------


def test_record_json_round_trip():
    rec = fix_count(F_EXAMPLE, ZdQuotient((7,)), p=2, prec=8)
    doc = rec.to_json()
    assert int(doc["fix_count"]) == rec.fix_count
    assert Padic.from_json(doc["normalized"]) == rec.normalized
    assert Padic.from_json(doc["unit_log"]) == rec.unit_log
    assert doc["quotient"] == rec.quotient
    import json

    assert json.loads(json.dumps(doc)) == doc
    assert isinstance(doc["fix_count"], str)  # big integers go through as strings


# -- Galois orbits of blocks --------------------------------------------------------


def _counting_block_evaluations(monkeypatch):
    """Record the size of every block that quotient_det evaluates: each orbit
    residue evaluates its block once per unit."""
    calls = []
    real = fixcount._orbit_residue

    def counted(size, cells, zp, units, *args):
        calls.extend([size] * len(units))
        return real(size, cells, zp, units, *args)

    monkeypatch.setattr(fixcount, "_orbit_residue", counted)
    return calls


def test_each_block_evaluated_once_per_batch_prime(monkeypatch):
    calls = _counting_block_evaluations(monkeypatch)
    quotient_det(F_FAMILY, ZdQuotient((20, 20)))
    # every Galois orbit of (Z/20)^2 fits under one prime: one evaluation per character
    assert len(calls) == 400 and set(calls) == {1}
    calls.clear()
    quotient_det(F_FAMILY, HeisenbergQuotient(8))
    # gamma = 0: the 64 characters of (Z/8)^2, one prime each; gamma != 0: 12
    # classes of size 8, an orbit of four needing two primes, so at most 16
    assert set(calls) == {1, 8}
    assert calls.count(1) == 64 and calls.count(8) <= 16


def test_hadamard_budget_evaluates_fewer_heisenberg_blocks(monkeypatch):
    # the l1 budget took 371 block evaluations over heis:2..8 and 1756 at heis(16)
    calls = _counting_block_evaluations(monkeypatch)
    for n in range(2, 9):
        quotient_det(F_FAMILY, HeisenbergQuotient(n))
    assert len(calls) <= 299
    calls.clear()
    quotient_det(F_FAMILY, HeisenbergQuotient(16))
    assert len(calls) <= 1324


def test_one_by_one_blocks_need_no_matrix_determinant(monkeypatch):
    def refuse(*args):
        raise AssertionError("_det_mod ran on a 1 x 1 block")

    monkeypatch.setattr(fixcount, "_det_mod", refuse)
    assert quotient_det(F_FAMILY, ZdQuotient((6, 6))) == _dense_det(F_FAMILY, ZdQuotient((6, 6)))
    assert quotient_det(F_EXAMPLE, ZdQuotient((7,))) == _dense_det(F_EXAMPLE, ZdQuotient((7,)))


def _l1_bound(F, order):
    """prod_s (sum_t ||F_st||_1)^order: the bound of the dense rho matrix."""
    per_point = 1
    for row in F.entries:
        per_point *= max(sum(abs(c) for e in row for c in e.terms.values()), 1)
    return max(per_point, 2) ** order


def _single_crt_quotient_det(f, q):
    """The route before Galois orbits: every block modulo every prime of one CRT
    under the bound for the whole group."""
    F = RingMatrix.wrap(f)
    L, labels, block = fixcount._character_blocks(F, q)
    blocks = [block(j) for j in itertools.product(*(range(n) for n in labels))]

    def residue(prime):
        z = pool_root(prime, L)
        zpow = [1] * L
        for k in range(1, L):
            zpow[k] = zpow[k - 1] * z % prime
        total = 1
        for size, cells in blocks:
            m = [[0] * size for _ in range(size)]
            for i, j, k, c in cells:
                m[i][j] += c * zpow[k]
            total = total * fixcount._det_mod(m, prime) % prime
        return total

    return fixcount._crt_signed(primes_one_mod(L), _l1_bound(F, q.index), residue)


Z3Y = LaurentPoly.monomial((0, 1, 0))
W = LaurentPoly.monomial((1,))
ONE = {d: LaurentPoly.one(d) for d in (1, 2, 3)}


@pytest.mark.parametrize(
    "f, q",
    [
        (3 + X - Y, ZdQuotient((24, 24))),
        (RingMatrix([[2 + X, Y], [X, 3 * ONE[2]]]), ZdQuotient((24, 24))),
        (3 - X + X * Y, ZdQuotient((8, 12))),
        (RingMatrix([[3 * ONE[2], X], [Y, 2 - Y]]), ZdQuotient((8, 12))),
        (2 + W**3, ZdQuotient((1000,))),
        (2 + X3 - Z3Y, HeisenbergQuotient(9)),
        (RingMatrix([[2 * ONE[3], X3], [Z3Y, 2 * ONE[3]]]), HeisenbergQuotient(9)),
        (2 + X3 * Z3Y, HeisenbergQuotient(10)),
        (F_FAMILY, HeisenbergQuotient(9)),
        (F_FAMILY, HeisenbergQuotient(12)),
    ],
    ids=[
        "Z24^2-r1", "Z24^2-r2", "Z8xZ12-r1", "Z8xZ12-r2", "Z1000", "heis9-r1", "heis9-r2", "heis10",
        "heis9-family", "heis12-family",
    ],
)
def test_orbit_route_matches_single_crt_route(f, q):
    got = quotient_det(f, q)
    assert got == _single_crt_quotient_det(f, q)
    assert got != 0


@pytest.mark.parametrize("labels", [(1,), (6,), (12,), (6, 6), (8, 12), (2, 3, 4), (9, 9)])
def test_galois_orbits_partition_the_labels(labels):
    L = math.lcm(*labels)

    def times(u, j):
        return tuple(u * x % n for x, n in zip(j, labels))

    orbits = fixcount._galois_orbits(labels)
    members = [[times(u, j) for u in units] for j, units in orbits]
    flat = [label for orbit in members for label in orbit]
    assert sorted(flat) == sorted(itertools.product(*(range(n) for n in labels)))
    for (j, units), orbit in zip(orbits, members):
        order = next(t for t in range(1, L + 1) if times(t, j) == times(0, j))
        assert len(orbit) == sum(math.gcd(u, order) == 1 for u in range(order))
        for u in range(1, L):
            if math.gcd(u, L) == 1:
                assert {times(u, g) for g in orbit} == set(orbit)


@pytest.mark.parametrize(
    "f, q",
    [
        (1 + W + W**2, ZdQuotient((6,))),
        (1 + X + X**2, ZdQuotient((6, 6))),
        (10 * (1 + X + X**2), ZdQuotient((6, 6))),
        (1 + Z3 + Z3**2, HeisenbergQuotient(6)),
    ],
    ids=["Z/6", "(Z/6)^2", "(Z/6)^2-batches", "heis(6)"],
)
def test_vanishing_on_a_middle_orbit(f, q, monkeypatch):
    # f vanishes where x (on Z^d) or the central character (on Heisenberg)
    # has order 3, that is where that label coordinate is 2 or 4 mod 6
    if isinstance(q, ZdQuotient):
        labels = fixcount._character_blocks(RingMatrix.wrap(f), q)[1]
        orbits, coordinate, size = fixcount._galois_orbits(labels), 0, 1
    else:  # the classes with gamma != 0; the gamma = 0 part is 3 at every label
        groups = fixcount._class_orbits(q.n)
        orbits, coordinate, size = [o for _, group in groups for o in group], 1, q.n
    vanishes = [j[coordinate] in (2, 4) for j, units in orbits]
    assert any(vanishes) and not vanishes[0] and not vanishes[-1]
    calls = _counting_block_evaluations(monkeypatch)
    assert quotient_det(f, q) == 0
    # each orbit up to the first vanishing one is evaluated under one prime,
    # and nothing after it
    first = vanishes.index(True)
    assert calls.count(size) == sum(len(units) for _, units in orbits[: first + 1])
    with pytest.raises(InfiniteFixedPointSet) as exc:
        fix_count(f, q, p=3, prec=4)
    assert exc.value.quotient == q and q.label() in str(exc.value)


# -- orbit enumeration and the Hadamard budget ----------------------------------------


def _set_based_galois_orbits(labels):
    """The former _galois_orbits: visited labels kept as tuples in a set."""
    seen = set()
    orbits = []
    for j in itertools.product(*(range(n) for n in labels)):
        if j in seen:
            continue
        m = math.lcm(*(n // math.gcd(x, n) for x, n in zip(j, labels)))
        units = [u for u in range(1, m + 1) if math.gcd(u, m) == 1]
        seen.update(tuple(u * x % n for x, n in zip(j, labels)) for u in units)
        orbits.append((j, units))
    return orbits


def _label_shapes():
    rng = random.Random(16)
    shapes = [(n,) for n in range(1, 25)] + [(n, n) for n in range(1, 25)]
    shapes += [(rng.randint(1, 24), rng.randint(1, 24)) for _ in range(20)]
    shapes += [tuple(rng.randint(1, 8) for _ in range(3)) for _ in range(12)]
    shapes += [(24, 1, 3), (1, 1, 1), (2, 12, 24), (1, 7), (12, 18, 8), (2, 3, 4, 5)]
    return shapes + [(64, 64), (192, 192), (1000,), (4096,)]


def test_galois_orbits_equal_the_set_based_enumeration():
    for labels in _label_shapes():
        assert fixcount._galois_orbits(labels) == _set_based_galois_orbits(labels), labels


def _jordan_totient(k, m):
    """J_k(m): the number of k-tuples mod m that generate Z/m."""
    return sum(
        math.gcd(math.gcd(*t), m) == 1 for t in itertools.product(range(m), repeat=k)
    )


@pytest.mark.parametrize("n", range(1, 65))
def test_orbits_of_the_square_are_its_cyclic_subgroups(n):
    # an orbit of (Z/n)^* on (Z/n)^2 is the set of generators of one cyclic
    # subgroup, and there are sum over m | n of J_2(m) / phi(m) of those
    cyclic = sum(
        _jordan_totient(2, m) // _jordan_totient(1, m) for m in range(1, n + 1) if n % m == 0
    )
    assert len(fixcount._galois_orbits((n, n))) == cyclic


def _orbit_norm(F, q, labels, block, j, units):
    """The integer product of det block(u * j) over u in units, each conjugate
    block built from its own label, rebuilt by CRT under the l1 bound."""
    L = math.lcm(*labels)
    conjugates = [block(tuple(u * x % n for x, n in zip(j, labels))) for u in units]

    def residue(prime):
        z = pool_root(prime, L)
        total = 1
        for size, cells in conjugates:
            m = [[0] * size for _ in range(size)]
            for a, b, k, c in cells:
                m[a][b] += c * pow(z, k, prime)
            total = total * fixcount._det_mod(m, prime) % prime
        return total

    size = conjugates[0][0]
    generous = _l1_bound(F, len(units) * size // F.r)
    return fixcount._crt_signed(primes_one_mod(L), generous, residue)


def _random_bound_input(rng, r, d):
    """Random integer entries with negative coefficients; for Heisenberg, words
    that share one matrix entry; now and then a zero row."""
    def entry():
        terms = {}
        for _ in range(rng.randint(1, 4)):
            e = tuple(rng.randint(-2, 2) for _ in range(d))
            terms[e] = terms.get(e, 0) + rng.choice((-5, -3, -2, -1, 1, 2, 4))
        if d == 3:  # x^a y^b z^c and x^a y^b' z^c' land in the same entry
            a = rng.randint(-2, 2)
            terms[(a, 1, 0)] = rng.choice((-2, 3))
            terms[(a, -1, 1)] = rng.choice((-1, 2))
        return LaurentPoly(d, {e: c for e, c in terms.items() if c})

    rows = [[entry() for _ in range(r)] for _ in range(r)]
    if r == 2 and rng.random() < 0.2:
        rows[rng.randrange(2)] = [LaurentPoly(d, {}), LaurentPoly(d, {})]
    return rows[0][0] if r == 1 else RingMatrix(rows)


@pytest.mark.parametrize(
    "q",
    [HeisenbergQuotient(n) for n in range(2, 10)] + [ZdQuotient((n, n)) for n in range(1, 13)],
    ids=lambda q: q.label(),
)
def test_hadamard_bound_holds_for_every_orbit_norm(q):
    rng = random.Random(f"hadamard:{q.label()}")
    d = 3 if isinstance(q, HeisenbergQuotient) else 2
    for r in (1, 2) if q.index <= 216 else (1,):
        F = RingMatrix.wrap(_random_bound_input(rng, r, d))
        L, labels, block = fixcount._character_blocks(F, q)
        square = fixcount._hadamard_square(*block((0,) * len(labels)))
        for j, units in fixcount._galois_orbits(labels):
            assert fixcount._hadamard_square(*block(j)) == square
            norm = _orbit_norm(F, q, labels, block, j, units)
            assert abs(norm) <= fixcount._norm_bound(square, len(units))
        if square == 0:
            assert quotient_det(F, q) == 0


def test_zero_row_vanishes_before_any_block(monkeypatch):
    F = RingMatrix([[1 + X3, Z3], [LaurentPoly(3, {}), LaurentPoly(3, {})]])
    calls = _counting_block_evaluations(monkeypatch)
    for q in (HeisenbergQuotient(3), ZdQuotient((2, 2, 2))):
        assert quotient_det(F, q) == 0 == _dense_det(F, q)
    assert calls == []


# -- one Clifford block per x-conjugacy class ---------------------------------------


def _zeta_powers(prime, L):
    z = pool_root(prime, L)
    table = [1] * L
    for k in range(1, L):
        table[k] = table[k - 1] * z % prime
    return table


@pytest.mark.parametrize("n", range(2, 10))
def test_conjugate_characters_give_equal_block_determinants(n):
    # x^-1 (0, b, c) x = (0, b, c - b), so chi_{beta,gamma} and
    # chi_{beta+gamma,gamma} induce isomorphic representations
    rng = random.Random(f"conjugate:{n}")
    prime = next(primes_one_mod(n))
    zp = _zeta_powers(prime, n)
    nonzero = 0
    for r in (1, 2):
        F = RingMatrix.wrap(_random_input(rng, r, 3))
        block = fixcount._character_blocks(F, HeisenbergQuotient(n))[2]
        for beta, gamma in itertools.product(range(n), repeat=2):
            here = fixcount._orbit_residue(*block((beta, gamma)), zp, (1,), n, prime)
            conjugate = block(((beta + gamma) % n, gamma))
            there = fixcount._orbit_residue(*conjugate, zp, (1,), n, prime)
            assert here == there, (r, beta, gamma)
            nonzero += here != 0
    assert nonzero


def _full_label_heisenberg_det(f, q):
    """The former Heisenberg route: one Clifford block per Galois orbit of all
    n^2 labels (beta, gamma), batched under the Hadamard budget."""
    F = RingMatrix.wrap(f)
    L, labels, block = fixcount._character_blocks(F, q)
    square = fixcount._hadamard_square(*block((0, 0)))
    if square == 0:
        return 0
    room = next(primes_one_mod(L)) // 2

    def batch_value(batch, bound):
        def residue(prime):
            zp = _zeta_powers(prime, L)
            total = 1
            for size, cells, units in batch:
                total = total * fixcount._orbit_residue(size, cells, zp, units, L, prime) % prime
            return total

        return fixcount._crt_signed(primes_one_mod(L), bound, residue)

    det, batch, bound = 1, [], 1
    for j, units in fixcount._galois_orbits(labels):
        size, cells = block(j)
        b = fixcount._norm_bound(square, len(units))
        if batch and bound * b > room:
            det *= batch_value(batch, bound)
            if det == 0:
                return 0
            batch, bound = [], 1
        batch.append((size, cells, units))
        bound *= b
    return det * batch_value(batch, bound)


@pytest.mark.parametrize("n", range(1, 13))
def test_class_route_matches_the_full_label_route(n):
    rng = random.Random(f"classes:{n}")
    q = HeisenbergQuotient(n)
    inputs = [_random_bound_input(rng, r, 3) for r in (1, 1, 2)]
    inputs += [
        1 + Z3 + Z3**2,  # vanishes where gamma has order 3
        RingMatrix([[1 + X3, Z3], [1 + X3, Z3]]),  # equal rows
        RingMatrix([[2 - X3, Z3Y], [LaurentPoly(3, {}), LaurentPoly(3, {})]]),  # zero row
    ]
    values = [quotient_det(f, q) for f in inputs]
    assert values == [_full_label_heisenberg_det(f, q) for f in inputs]
    assert any(values[:3]) and values[-2:] == [0, 0]
    assert (values[3] == 0) == (n % 3 == 0)


def _at_z_equal_one(F):
    """F(x, y, 1) as a two-variable matrix, built from monomials."""
    return RingMatrix(
        [
            [
                sum(
                    (LaurentPoly.monomial(e[:2], c) for e, c in entry.terms.items()),
                    LaurentPoly(2, {}),
                )
                for entry in row
            ]
            for row in F.entries
        ]
    )


@pytest.mark.parametrize("n", range(1, 10))
def test_gamma_zero_blocks_are_the_characters_of_the_abelianization(n):
    # Ind chi_{beta,0} is the sum over alpha of the characters psi_{alpha,beta}
    # of G/Z = (Z/n)^2, so the n blocks with gamma = 0 multiply to the count
    # of F(x, y, 1) on (Z/n)^2
    rng = random.Random(f"gamma0:{n}")
    for r in (1, 2):
        F = RingMatrix.wrap(_random_input(rng, r, 3))
        block = fixcount._character_blocks(F, HeisenbergQuotient(n))[2]
        blocks = [block((beta, 0)) for beta in range(n)]

        def residue(prime):
            zp = _zeta_powers(prime, n)
            total = 1
            for size, cells in blocks:
                total = total * fixcount._orbit_residue(size, cells, zp, (1,), n, prime) % prime
            return total

        bound = fixcount._norm_bound(fixcount._hadamard_square(*blocks[0]), n)
        product = fixcount._crt_signed(primes_one_mod(n), bound, residue)
        assert product == quotient_det(_at_z_equal_one(F), ZdQuotient((n, n)))


@pytest.mark.parametrize("n", range(1, 25))
def test_class_orbits_partition_the_reduced_labels(n):
    units = [u for u in range(1, n) if math.gcd(u, n) == 1]

    def times(u, label):
        beta, gamma = label
        return u * beta % math.gcd(gamma, n), u * gamma % n

    classes = {(beta % math.gcd(gamma, n), gamma) for beta in range(n) for gamma in range(1, n)}
    listed = []
    for g, orbits in fixcount._class_orbits(n):
        assert n % g == 0 and g < n
        for (beta, gamma), members in orbits:
            assert gamma == g and 0 <= beta < g
            orbit = [times(u, (beta, gamma)) for u in members]
            assert all(math.gcd(c, n) == g for _, c in orbit)
            assert {times(u, label) for u in units for label in orbit} == set(orbit)
            listed += orbit
    assert sorted(listed) == sorted(classes)
    # Pillai's function sum gcd(k, n) counts the classes, gamma = 0 included
    assert len(listed) == sum(math.gcd(k, n) for k in range(1, n + 1)) - n


def test_one_block_per_class_orbit_conjugate(monkeypatch):
    # the full-label route took 299 evaluations of blocks larger than 1 x 1
    # over heis:2..8 and 1324 at heis(16)
    calls = _counting_block_evaluations(monkeypatch)
    for n in range(2, 9):
        quotient_det(F_FAMILY, HeisenbergQuotient(n))
    assert sum(size > 1 for size in calls) == 48
    calls.clear()
    quotient_det(F_FAMILY, HeisenbergQuotient(16))
    assert sum(size > 1 for size in calls) == 106


# -- the modular determinant --------------------------------------------------------


def _pivot_inverse_det_mod(m, q):
    """The former _det_mod: one modular inverse at every pivot."""
    a = [[x % q for x in row] for row in m]
    n = len(a)
    det = 1
    for c in range(n):
        for r in range(c, n):
            if a[r][c]:
                break
        else:
            return 0
        if r != c:
            a[c], a[r] = a[r], a[c]
            det = -det
        prow = a[c]
        det = det * prow[c] % q
        if c + 1 == n:
            break
        inv = pow(prow[c], -1, q)
        tail = prow[c + 1 :]
        for row in a[c + 1 :]:
            if row[c]:
                k = row[c] * inv % q
                row[c + 1 :] = [(x - k * y) % q for x, y in zip(row[c + 1 :], tail)]
    return det % q


def _det_mod_cases():
    rng = random.Random(18)
    for size in range(1, 17):
        for i in range(10):
            q = (7, 101, next(primes_one_mod(16)))[i % 3]
            dense = [[rng.randint(-9, 9) for _ in range(size)] for _ in range(size)]
            # cyclic band off the diagonal: the first pivot needs a row swap
            band = [[0] * size for _ in range(size)]
            for row in range(size):
                for w in (1, 2):
                    band[row][(row + w) % size] += rng.choice((-3, -1, 1, 2, 5))
            singular = [row[:] for row in dense]
            if size > 1:
                singular[rng.randrange(size)] = [
                    (2 * x - 3 * y) for x, y in zip(dense[0], dense[-1])
                ] if rng.random() < 0.5 else [0] * size
            else:
                singular = [[q * rng.randint(-2, 2)]]
            yield from ((dense, q), (band, q), (singular, q))


def test_det_mod_matches_the_pivot_inverse_elimination():
    swaps = singular = 0
    for m, q in _det_mod_cases():
        got = fixcount._det_mod(m, q)
        assert got == _pivot_inverse_det_mod(m, q), (m, q)
        swaps += m[0][0] % q == 0 and got != 0
        singular += got == 0
    assert swaps > 20 and singular > 160


# -- the cyclic tridiagonal determinant ---------------------------------------------


def _cyclic_tridiagonal(a, up, dn):
    n = len(a)
    m = [[0] * n for _ in range(n)]
    for k in range(n):
        m[k][k] += a[k]
        m[k][(k + 1) % n] += up[k]
        m[(k + 1) % n][k] += dn[k]
    return m


def _cyclic_tridiagonal_cases():
    rng = random.Random(28)
    pool = primes_one_mod(16)
    primes = [next(pool) for _ in range(3)]
    for n in range(3, 17):
        for i in range(14):
            q = primes[i % 3]
            a, up, dn = ([rng.randrange(q) for _ in range(n)] for _ in range(3))
            kind = i % 7
            if kind == 1:  # zero diagonal
                a = [0] * n
            elif kind == 2:  # scattered zeros off the diagonal
                up, dn = ([x if rng.random() < 0.6 else 0 for x in band] for band in (up, dn))
            elif kind == 3:  # zero corners (n - 1, 0) and (0, n - 1)
                up[-1] = dn[-1] = 0
            elif kind == 4:  # one off-diagonal band zero: triangular but for a corner
                up = [0] * n
            elif kind == 5:  # a zero row
                k = rng.randrange(n)
                a[k] = up[k] = dn[k - 1] = 0
            elif kind == 6:  # small entries, one of them a multiple of q
                a, up, dn = ([rng.randint(-2, 2) for _ in range(n)] for _ in range(3))
                a[0] = q * rng.randint(-2, 2)
            yield a, up, dn, q


def test_cyclic_tridiagonal_det_matches_det_mod():
    singular = 0
    for a, up, dn, q in _cyclic_tridiagonal_cases():
        got = fixcount._cyclic_tridiagonal_det(a, up, dn, q)
        assert got == fixcount._det_mod(_cyclic_tridiagonal(a, up, dn), q), (a, up, dn, q)
        singular += got == 0
    assert singular >= 28  # at least the 28 matrices with a zero row


def test_clifford_blocks_of_the_family_unit_need_no_elimination(monkeypatch):
    expected = {}
    monkeypatch.setattr(fixcount, "_band_slots", lambda size, cells: None)
    for n in range(3, 17):
        expected[n] = quotient_det(F_FAMILY, HeisenbergQuotient(n))
    monkeypatch.undo()

    def refuse(*args):
        raise AssertionError("_det_mod ran on a cyclic tridiagonal block")

    monkeypatch.setattr(fixcount, "_det_mod", refuse)
    for n in range(3, 17):
        assert quotient_det(F_FAMILY, HeisenbergQuotient(n)) == expected[n] != 0, n


def test_wide_band_blocks_keep_the_elimination(monkeypatch):
    # the x^2 word puts cells two places off the diagonal of a block of size 4
    f = 1 + 3 * X**2 + 3 * Y + 3 * LaurentPoly.monomial((-1, -1))
    q = HeisenbergQuotient(4)
    sizes = []
    real = fixcount._det_mod

    def counted(m, prime):
        sizes.append(len(m))
        return real(m, prime)

    monkeypatch.setattr(fixcount, "_det_mod", counted)
    got = quotient_det(f, q)
    assert sizes and set(sizes) == {4}
    assert got == _dense_det(f, q) != 0
