"""Three independent routes to the 2-adic entropy of f = 2T^2 - T + 2.

1. limit route: (1/n) log_2 |Fix_n| over odd n,
2. trace-log route: normalize f = c t (1 + 2g) in the convolution algebra
   and sum the trace of the logarithm series,
3. Mahler route: Newton polygon + Hensel slope factorization; the measure is
   log of the lowest coefficient minus log of the inside-root product.

All three equal log_2 of the outside root alpha = (1 + sqrt(-15))/4.  The
reference takes its root from none of them: the inside root is beta = 2b,
where b is the unit root of 4b^2 - b + 1 (f(2b) = 2 (4b^2 - b + 1)), found
by a plain integer Newton lift from b = 1 mod 2.  As alpha * beta = 2/2 = 1
and log_2 2 = 0, log_2 alpha = -log_2 b.
"""

from padic_entropy import (
    Padic,
    c0_unit_normalize,
    diagonal_family,
    entropy_sequence,
    logdet_unit,
    mahler_1d,
    newton_polygon,
    padic_log,
    parse_poly,
)

print(__doc__)

f = parse_poly("2*t^2 - t + 2")
p, prec = 2, 8

print("route 1: fixed-point limit over odd n <= 25")
rep = entropy_sequence(f, diagonal_family(1, range(1, 26, 2)), p, prec=prec, target=6)
print(rep.to_csv())
print(f"  verdict: {rep.verdict}, stabilized: {rep.stabilized_value}")

print()
print("route 2: unit normalization + trace-log series")
dec = c0_unit_normalize(f, p, 10)
print(f"  f = {p}^{dec.a} * ({dec.c}) * t^{dec.nu} * (1 + {p}*g),  g = -t - t^-1")
v2 = logdet_unit(f, p, prec)
print(f"  value: {v2}")

print()
print("route 3: Newton polygon + slope factorization")
np_data = newton_polygon(f, p)
print(f"  polygon vertices {np_data.vertices}, slopes {[str(s) for s in np_data.slopes()]}")
print("  (slopes -1 and +1: one root of size 1/2, one of size 2 -- no unit-circle root)")
v3 = mahler_1d(f, p, prec)
print(f"  value: {v3}")

print()
print("reference: log_2((1 + sqrt(-15))/4) = -log_2 b, 4b^2 - b + 1 = 0, b = 1 mod 2")
digits = 14
b, mod = 1, p**digits
while (4 * b * b - b + 1) % mod:  # Newton: h'(b) = 8b - 1 is odd, so digits double
    b = (b - (4 * b * b - b + 1) * pow(8 * b - 1, -1, mod)) % mod
v4 = -padic_log(Padic.from_int_mod(b, p, digits))
print(f"  b = {b} mod 2^{digits}, value: {v4}")

print()
agree = (
    rep.stabilized_value.eq_mod(v2, 6)
    and v2.eq_mod(v3, 6)
    and v3.eq_mod(v4, 6)
)
print(f"all four agree mod 2^6: {agree}")
print(f"2-adic digits of the entropy: {v2.digits()} (base 2, valuation {v2.v})")
