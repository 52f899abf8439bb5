"""The six public record classes: keyword construction, value ``==``, ``repr``
text, and for the two quotients ``hash`` and immutability."""

from fractions import Fraction

import pytest

from padic_entropy import (
    ConvergenceReport,
    FixCountRecord,
    HeisenbergQuotient,
    NewtonPolygon,
    Padic,
    UnitDecomposition,
    ZdQuotient,
    c0_unit_normalize,
    diagonal_family,
    entropy_sequence,
    fix_count,
    newton_polygon,
    parse_poly,
)


def test_quotients_read_back_by_keyword_and_print_as_constructed():
    assert ZdQuotient(moduli=(3, 3)) == ZdQuotient((3, 3))
    assert HeisenbergQuotient(n=2) == HeisenbergQuotient(2)
    assert repr(ZdQuotient(moduli=(3, 3))) == "ZdQuotient(moduli=(3, 3))"
    assert repr(ZdQuotient([2])) == "ZdQuotient(moduli=(2,))"
    assert repr(HeisenbergQuotient(5)) == "HeisenbergQuotient(n=5)"


def test_quotients_compare_and_hash_by_value():
    assert ZdQuotient((3, 3)) != ZdQuotient((3,))
    assert ZdQuotient((2, 2, 2)) != HeisenbergQuotient(2)
    assert HeisenbergQuotient(2) != HeisenbergQuotient(3)
    assert hash(ZdQuotient((3, 3))) == hash(ZdQuotient([3, 3])) == hash(((3, 3),))
    assert hash(HeisenbergQuotient(4)) == hash((4,))
    table = {ZdQuotient((3, 3)): "zd", HeisenbergQuotient(3): "heis"}
    assert table[ZdQuotient((3, 3))] == "zd" and table[HeisenbergQuotient(3)] == "heis"


@pytest.mark.parametrize("q, field", [(ZdQuotient((3,)), "moduli"), (HeisenbergQuotient(2), "n")])
def test_quotients_cannot_change(q, field):
    with pytest.raises(AttributeError, match=f"cannot assign to field '{field}'"):
        setattr(q, field, 7)
    with pytest.raises(AttributeError, match="cannot assign to field 'extra'"):
        q.extra = 1
    with pytest.raises(AttributeError, match=f"cannot delete field '{field}'"):
        delattr(q, field)
    assert q == type(q)((3,) if field == "moduli" else 2)


def test_fix_count_record_repr_and_equality():
    rec = fix_count(parse_poly("2*t^2-t+2"), ZdQuotient((3,)), 3, 6)
    assert repr(rec) == (
        "FixCountRecord(quotient={'kind': 'zd', 'moduli': [3]}, label='Z/3', index=3,"
        " fix_count=27, det_sign=1, p=3, p_valuation=3, unit_residue=1,"
        " unit_log=O(3^7), normalized=O(3^6))"
    )
    fields = dict(
        quotient={"kind": "zd", "moduli": [3]},
        label="Z/3",
        index=3,
        fix_count=27,
        det_sign=1,
        p=3,
        p_valuation=3,
        unit_residue=1,
        unit_log=Padic.zero(3, 7),
        normalized=Padic.zero(3, 6),
    )
    assert rec == FixCountRecord(**fields)
    assert rec != FixCountRecord(**dict(fields, det_sign=-1))
    assert rec != fix_count(parse_poly("2*t^2-t+2"), ZdQuotient((3,)), 3, 7)


def test_convergence_report_repr_and_equality():
    g = parse_poly("2*t^2-t+2")
    rep = entropy_sequence(g, diagonal_family(1, [2, 4]), 3, 4, tail=2)
    again = entropy_sequence(g, diagonal_family(1, [2, 4]), 3, 4, tail=2)
    assert rep == again
    assert rep != entropy_sequence(g, diagonal_family(1, [2, 4]), 3, 5, tail=2)
    assert repr(rep) == (
        "ConvergenceReport(records=[" + ", ".join(map(repr, rep.records)) + "],"
        " p=3, target=4, tail=2, distances=[(1, True)], stable_digits=1,"
        " stabilized_value=O(3^1), verdict='undecided')"
    )
    bare = ConvergenceReport(records=rep.records, p=3, target=4, tail=2)
    assert (bare.distances, bare.stable_digits, bare.stabilized_value, bare.verdict) == (
        [],
        0,
        None,
        "undecided",
    )
    assert bare.distances is not ConvergenceReport(rep.records, 3, 4, 2).distances


def test_unit_decomposition_repr_and_equality():
    dec = c0_unit_normalize(parse_poly("6+9*x+18*x*y"), 3, 5)
    assert repr(dec) == "UnitDecomposition(a=1, c=2, nu=(0, 0), one_unit=3*xy + 366*x + 1)"
    assert dec == UnitDecomposition(a=1, c=2, nu=(0, 0), one_unit=dec.one_unit)
    assert dec != UnitDecomposition(a=1, c=Fraction(2), nu=(0, 1), one_unit=dec.one_unit)


def test_newton_polygon_repr_and_equality():
    poly = newton_polygon(parse_poly("3+t+9*t^2"), 3)
    assert repr(poly) == (
        "NewtonPolygon(vertices=[(0, Fraction(1, 1)), (1, Fraction(0, 1)), (2, Fraction(2, 1))],"
        " segments=[(Fraction(-1, 1), 1), (Fraction(2, 1), 1)])"
    )
    assert poly == NewtonPolygon(
        vertices=[(0, 1), (1, 0), (2, 2)], segments=[(Fraction(-1), 1), (Fraction(2), 1)]
    )
    assert poly != NewtonPolygon(vertices=poly.vertices, segments=[])


@pytest.mark.parametrize(
    "record, field",
    [
        (NewtonPolygon(vertices=[], segments=[]), "segments"),
        (UnitDecomposition(a=0, c=1, nu=(0,), one_unit=None), "a"),
        (ConvergenceReport(records=[], p=3, target=1, tail=2), "verdict"),
    ],
    ids=["NewtonPolygon", "UnitDecomposition", "ConvergenceReport"],
)
def test_records_are_mutable_and_unhashable(record, field):
    with pytest.raises(TypeError, match="unhashable"):
        hash(record)
    setattr(record, field, "changed")
    assert f"{field}='changed'" in repr(record)


def test_records_of_different_classes_differ():
    assert NewtonPolygon(vertices=[], segments=[]) != ZdQuotient((1,))
    assert NewtonPolygon(vertices=[], segments=[]) != ([], [])
