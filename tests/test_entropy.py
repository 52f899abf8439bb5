import random

import pytest

from padic_entropy import (
    FixCountRecord,
    LaurentPoly,
    Padic,
    ZdQuotient,
    convergence_report,
    diagonal_family,
    entropy_sequence,
    heisenberg_family,
    mahler_1d,
    tr_log_one_unit,
)
from padic_entropy import entropy as entropy_mod
from padic_entropy.errors import (
    DomainMismatch,
    InfiniteFixedPointSet,
    InvalidQuotient,
    TooFewRecords,
    UsageError,
)

import helpers

T = LaurentPoly.monomial((1,))
F_EXAMPLE = 2 * T * T - T + 2


def _dummy_record(i, normalized):
    return FixCountRecord(
        quotient={"kind": "zd", "moduli": [i]},
        label=f"Z/{i}",
        index=i,
        fix_count=1,
        det_sign=1,
        p=normalized.p,
        p_valuation=0,
        unit_residue=1,
        unit_log=normalized,
        normalized=normalized,
    )


# -- convergence reports ----------------------------------------------------------


def test_report_all_equal_records():
    val = Padic.from_rational(7, 1, 3, 6)
    recs = [_dummy_record(i, val) for i in (1, 2, 3)]
    rep = convergence_report(recs, 3, target=6)
    assert rep.verdict == "converged"
    assert rep.stable_digits == 6
    assert rep.stabilized_value == val


def test_report_geometric_records_grow_one_digit_per_step():
    vals = [Padic.from_rational(3**k, 1, 3, 8) for k in range(6)]
    recs = [_dummy_record(i + 1, v) for i, v in enumerate(vals)]
    for upto in range(3, 7):
        rep = convergence_report(recs[:upto], 3, target=10, tail=3)
        # the last three records are p^(u-3), p^(u-2), p^(u-1)
        assert rep.stable_digits == upto - 3
        assert rep.verdict == "undecided"


def test_report_needs_two_records():
    with pytest.raises(TooFewRecords):
        convergence_report([_dummy_record(1, Padic.one(3, 4))], 3, target=2)


@pytest.mark.parametrize("tail", [1, 0, -1])
def test_report_refuses_tail_below_two(tail):
    recs = [_dummy_record(i, Padic.one(3, 4)) for i in (1, 2, 3)]
    with pytest.raises(TooFewRecords):
        convergence_report(recs, 3, target=2, tail=tail)


@pytest.mark.parametrize("target", [0, -5])
def test_report_refuses_target_below_one(target):
    recs = [_dummy_record(i, Padic.one(3, 4)) for i in (1, 2, 3)]
    with pytest.raises(UsageError, match="at least one digit") as exc:
        convergence_report(recs, 3, target=target)
    assert exc.value.code == "USAGE"
    assert convergence_report(recs, 3, target=1).verdict == "converged"


@pytest.mark.parametrize(
    "target, tail, error", [(0, 3, UsageError), (-5, 3, UsageError), (None, 1, TooFewRecords)]
)
def test_sequence_refuses_the_window_before_any_count(monkeypatch, target, tail, error):
    # target=0 once counted all 15 Heisenberg quotients (0.1 s) before the refusal
    def refuse(*args):
        raise AssertionError("a fixed-point count ran")

    monkeypatch.setattr(entropy_mod, "fix_count", refuse)
    X, Y = LaurentPoly.monomial((1, 0, 0)), LaurentPoly.monomial((0, 1, 0))
    f = 1 + 3 * X + 3 * Y + 3 * LaurentPoly.monomial((-1, -1, 0))
    with pytest.raises(error):
        entropy_sequence(f, heisenberg_family(range(2, 17)), 3, prec=6, target=target, tail=tail)


def test_report_pairwise_distances():
    a = Padic.from_rational(1, 1, 2, 6)
    b = Padic.from_rational(5, 1, 2, 6)  # diff 4: valuation 2
    rep = convergence_report([_dummy_record(1, a), _dummy_record(2, b)], 2, target=1)
    assert rep.distances == [(2, True)]
    # only consecutive records are compared, in index order; an exact-zero
    # difference is bounded by the precisions (6)
    c = Padic.from_rational(5, 1, 2, 8)  # diff to a: valuation 2; to b: zero
    rep = convergence_report([_dummy_record(3, c), _dummy_record(1, a), _dummy_record(2, b)], 2, 1)
    assert rep.distances == [(2, True), (6, False)]


# -- entropy sequences --------------------------------------------------------------


def test_entropy_example_routes_agree():
    rep = entropy_sequence(F_EXAMPLE, diagonal_family(1, range(1, 26, 2)), 2, prec=8, target=6)
    assert rep.verdict == "converged"
    m = mahler_1d(F_EXAMPLE, 2, 8)
    assert rep.stabilized_value.eq_mod(m, 6)


def test_entropy_monomial_all_counts_one():
    rep = entropy_sequence(
        LaurentPoly.monomial((3,)), diagonal_family(1, [1, 2, 3, 4]), 5, prec=6
    )
    assert [r.fix_count for r in rep.records] == [1, 1, 1, 1]
    assert rep.stabilized_value.is_zero


def test_entropy_one_unit_d2_matches_trlog():
    f = LaurentPoly(2, {(0, 0): 1, (1, 0): 3, (0, -1): 3})
    rep = entropy_sequence(f, diagonal_family(2, [1, 2, 4, 5, 7, 8]), 3, prec=4, target=4)
    oracle = tr_log_one_unit(f, 3, 4)
    assert rep.stabilized_value.eq_mod(oracle, 4)


def test_entropy_family_with_p_dividing_index_allowed():
    # quotients whose index is divisible by p are legitimate records
    rep = entropy_sequence(F_EXAMPLE, diagonal_family(1, [1, 2, 3, 4, 5, 6, 7, 8, 9]), 2, prec=8)
    assert len(rep.records) == 9
    assert rep.records[1].index == 2 and rep.records[1].fix_count == 15


def test_entropy_requires_increasing_indices():
    with pytest.raises(InvalidQuotient):
        entropy_sequence(F_EXAMPLE, [ZdQuotient((3,)), ZdQuotient((3,))], 2, prec=6)


def test_entropy_propagates_infinite_fixed_sets():
    with pytest.raises(InfiniteFixedPointSet) as exc:
        entropy_sequence(T - 1, diagonal_family(1, [1, 2, 3]), 2, prec=6)
    assert exc.value.quotient is not None


def test_entropy_refuses_past_the_size_cap_before_any_count(monkeypatch):
    def no_count(*args, **kwargs):
        raise AssertionError("fix_count ran before the size cap was checked")

    monkeypatch.setattr(entropy_mod, "fix_count", no_count)
    f = 1 + 3 * LaurentPoly.monomial((1, 0)) + 3 * LaurentPoly.monomial((0, -1))
    with pytest.raises(DomainMismatch, match=r"^rho matrix of size 4225 exceeds cap 4096$"):
        entropy_sequence(f, diagonal_family(2, range(60, 71)), 3)
    # the size cap is a property of the request: it is refused before a
    # determinant of an earlier quotient (T - 1 vanishes on every quotient)
    with pytest.raises(DomainMismatch):
        entropy_sequence(T - 1, diagonal_family(1, [2, 5000]), 2)


def test_entropy_refuses_a_bare_scalar():
    with pytest.raises(DomainMismatch, match=r"^can only reduce Laurent data$"):
        entropy_sequence(5, diagonal_family(1, [1, 2]), 3)


def test_entropy_two_families_same_limit():
    # two different cofinal families stabilize to the same value
    rng = random.Random(40)
    for p in (2, 3):
        f = helpers.random_one_unit(rng, 1, p, span=1, cmax=2)
        fam_a = diagonal_family(1, [n for n in range(1, 30) if n % p][-5:])
        fam_b = diagonal_family(1, [n for n in range(1, 38) if n % p and n % 2][-5:])
        ra = entropy_sequence(f, fam_a, p, prec=6, target=4)
        rb = entropy_sequence(f, fam_b, p, prec=6, target=4)
        assert ra.stabilized_value.eq_mod(rb.stabilized_value, 4)
        # both agree with the direct series
        assert ra.stabilized_value.eq_mod(tr_log_one_unit(f, p, 6), 4)


def test_entropy_d1_one_unit_distances_shrink():
    # f = 1 + p(t + 1/t): consecutive normalized values approach each other
    # at a rate set by how far the series support must travel to hit nZ
    p = 3
    f = LaurentPoly(1, {(0,): 1, (1,): p, (-1,): p})
    ns = list(range(1, 9))
    rep = entropy_sequence(f, diagonal_family(1, ns), p, prec=6, target=4)
    start = next(i for i, n in enumerate(ns) if n > helpers.support_diameter(f))
    vals = [v for v, _ in rep.distances[start:]]
    assert all(a <= b for a, b in zip(vals, vals[1:])), vals
    # and the stabilized value matches the direct series
    assert rep.stabilized_value.eq_mod(tr_log_one_unit(f, p, 6), 4)


def test_entropy_heisenberg_family():
    f = LaurentPoly(3, {(0, 0, 0): 1, (1, 0, 0): 3, (0, 1, 0): 3})
    rep = entropy_sequence(f, heisenberg_family([2, 4, 5]), 3, prec=4, target=3)
    assert [r.index for r in rep.records] == [8, 64, 125]


def test_entropy_heisenberg_two_families_same_limit():
    # one-unit guarantee in the nonabelian case: different quotient families
    # stabilize to the same value
    p = 3
    f = LaurentPoly(3, {(0, 0, 0): 1, (1, 0, 0): p, (-1, 0, 0): p, (0, 1, 0): p})
    ra = entropy_sequence(f, heisenberg_family([2, 4, 5]), p, prec=5, target=3, tail=2)
    rb = entropy_sequence(f, heisenberg_family([4, 5, 7]), p, prec=5, target=3, tail=2)
    assert ra.stabilized_value.eq_mod(rb.stabilized_value, 3)
    # for this support {x, x^-1, y} the commutative series is a valid oracle:
    # a word equal to the identity cannot use y (no y^-1 available), and words
    # in x alone see no noncommutativity -- so the limit is the same as over
    # Z^3, and it is a genuine nonzero value, not just 0 = 0
    direct = tr_log_one_unit(f, p, 5)
    assert not direct.is_zero
    assert rb.stabilized_value.eq_mod(direct, 3)


def test_scale_invariance_by_p():
    fam = diagonal_family(1, [1, 3, 5, 7, 9])
    rep1 = entropy_sequence(F_EXAMPLE, fam, 2, prec=8)
    rep2 = entropy_sequence(2 * F_EXAMPLE, fam, 2, prec=8)
    for a, b in zip(rep1.records, rep2.records):
        assert a.normalized == b.normalized
        assert b.fix_count == a.fix_count * 2 ** (a.index)


# -- output -----------------------------------------------------------------------------


def test_csv_shape():
    rep = entropy_sequence(F_EXAMPLE, diagonal_family(1, [1, 3, 5]), 2, prec=6)
    lines = rep.to_csv().strip().split("\n")
    assert lines[0] == "quotient,index,fix_count,v_p,normalized"
    assert len(lines) == 4
    assert lines[1].startswith("Z/1,1,3,0,")


def test_report_json():
    import json

    rep = entropy_sequence(F_EXAMPLE, diagonal_family(1, [1, 3, 5]), 2, prec=6)
    doc = rep.to_json()
    assert json.loads(json.dumps(doc)) == doc
    assert doc["verdict"] in ("converged", "undecided")
    assert len(doc["records"]) == 3
