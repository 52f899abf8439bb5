"""A noncommutative example: the discrete Heisenberg group.

Generators x, y with z = [x, y] central; the finite quotients reduce the
3x3 unitriangular matrix entries mod n, giving groups of order n^3.  The
trace-log determinant is still a homomorphism on 1-units there, and the
normalized fixed-point counts of f = 1 + 3(x + y) stabilize empirically --
no closed-form oracle exists for this value, which is exactly why the
finite-quotient route matters.
"""

from padic_entropy import (
    FiniteGroupRingElem,
    HeisenbergQuotient,
    build_quotient_group,
    entropy_sequence,
    heisenberg_family,
    logdet_finite,
    parse_poly,
    tr_log_one_unit,
)

print(__doc__)

# the quotient is its own group: elements are the indices 0..order-1, 0 is
# the identity, and multiply / inverse are its matrix arithmetic mod n
hq = build_quotient_group(HeisenbergQuotient(2))
print(f"heis(2): order {hq.index}")
xi, yi, zi = hq.project((1, 0, 0)), hq.project((0, 1, 0)), hq.project((0, 0, 1))
print(f"x y = element {hq.multiply(xi, yi)}, y x = element {hq.multiply(yi, xi)}")
comm = hq.multiply(hq.multiply(hq.multiply(xi, yi), hq.inverse(xi)), hq.inverse(yi))
print(f"x y x^-1 y^-1 = element {comm}, central generator z = element {zi}")

print()
print("the trace-log homomorphism survives noncommutativity (sample):")
a = FiniteGroupRingElem.one(hq) + 3 * FiniteGroupRingElem(hq, [1, -2, 0, 1, 2, 0, -1, 1])
b = FiniteGroupRingElem.one(hq) + 3 * FiniteGroupRingElem(hq, [0, 1, 1, -1, 0, 2, 1, 0])
lhs = tr_log_one_unit(a * b, 3, 6)
rhs = tr_log_one_unit(a, 3, 6) + tr_log_one_unit(b, 3, 6)
print(f"  tr log(AB) = {lhs}")
print(f"  tr log A + tr log B = {rhs}")
print(f"  finite-group formula for A: {logdet_finite(a, 3, 6)}")

print()
print("f = 1 + 3(x + y) over the full Heisenberg group, family n in {2,4,5,7}:")
f = parse_poly("1 + 3*x + 3*y")
rep = entropy_sequence(f, heisenberg_family([2, 4, 5, 7]), 3, prec=5, target=3)
for r in rep.records:
    print(f"  {r.label:>8} (order {r.index:>4}): |Fix| = {r.fix_count}")
print(f"verdict: {rep.verdict} -- records agree mod 3^{rep.stable_digits}")
print(f"stabilized value: {rep.stabilized_value}")
