"""Convergence quality over Z^2: how fast do normalized counts stabilize?

For a 1-unit f = 1 + p(x + 1/y) the normalized values approach the limit
ultrametrically: the coefficient of the logarithm series escaping to a
nonzero lattice point of (nZ)^2 needs at least n/diameter series steps, so
each extra n buys provable digits.  The consecutive distances printed below
shrink monotonically once n passes the support diameter.
"""

from padic_entropy import (
    diagonal_family,
    entropy_sequence,
    parse_poly,
    tr_log_one_unit,
)

print(__doc__)

f = parse_poly("1 + 3*x + 3*y^-1")
p = 3
ns = [1, 2, 4, 5, 7, 8, 10, 11]
rep = entropy_sequence(f, diagonal_family(2, ns), p, prec=6, target=4)

print(f"{'quotient':>12} {'index':>6} {'|Fix|':>14} {'normalized':>24}")
for r in rep.records:
    print(f"{r.label:>12} {r.index:>6} {r.fix_count:>14} {str(r.normalized):>24}")

print()
print("consecutive ultrametric distances (as valuations; higher = closer):")
for (n1, n2), (v, exact) in zip(zip(ns, ns[1:]), rep.distances):
    kind = "exactly" if exact else "at least"
    print(f"  d(rec[{n1}], rec[{n2}]) = 3^-{v} ({kind})")

print()
print(f"verdict: {rep.verdict}, stable digits: {rep.stable_digits}")
oracle = tr_log_one_unit(f, p, 6)
print(f"direct trace-log value: {oracle}")
print(f"limit route agrees mod 3^4: {rep.stabilized_value.eq_mod(oracle, 4)}")
print()
print("(for this f the entropy is exactly 0: no power of x + 1/y has a")
print(" constant term, so every term of the trace-log series vanishes)")
