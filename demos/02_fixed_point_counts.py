"""Counting fixed points of the algebraic action cut out by f = 2t^2 - t + 2.

For each finite quotient Z/n the number of points fixed by the congruence
subgroup is |det| of right multiplication by f on the quotient group ring:
an n x n integer matrix.  Splitting that representation into characters
gives the route fix_count takes: the product of f evaluated at all n-th
roots of unity.  The Galois group permutes those values, so the product
over one orbit is an integer norm, evaluated at roots of unity in prime
fields and rebuilt from one residue or by CRT.  The dense determinant and the
character product must agree, including sign.
"""

from padic_entropy import (
    ZdQuotient,
    det_exact,
    fix_count,
    fix_count_char_crt,
    parse_poly,
    reduce_to_quotient,
    rho_matrix,
)

print(__doc__)

f = parse_poly("2*t^2 - t + 2")

print("the 2x2 regular representation at n = 2:")
print("  ", rho_matrix(reduce_to_quotient(f, ZdQuotient((2,)))))
print()

print(f"{'n':>3} {'|Fix|':>14} {'character product':>18} {'dense det':>18} {'agree':>6}")
for n in range(1, 13):
    rec = fix_count(f, ZdQuotient((n,)), p=2, prec=8)
    signed = fix_count_char_crt(f, (n,))
    dense = det_exact(rho_matrix(reduce_to_quotient(f, ZdQuotient((n,)))))
    print(f"{n:>3} {rec.fix_count:>14} {signed:>18} {dense:>18} {str(signed == dense):>6}")

print()
print("growth is exponential (topological entropy log 2), but 2-adically")
print("the normalized logs stabilize -- that is the next demo.")

print()
print("a two-variable example over Z^2, quotient (3, 4):")
g = parse_poly("1 + 3*x + 3*y^-1")
rec = fix_count(g, ZdQuotient((3, 4)), p=3, prec=6)
signed = fix_count_char_crt(g, (3, 4))
print(f"  |Fix| = {rec.fix_count}, character product = {signed}")
