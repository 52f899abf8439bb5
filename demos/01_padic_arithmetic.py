"""Exact p-adic scalars: precision tracking, the Iwasawa logarithm, and a
root found by Hensel lifting.

Every value prints with the precision the computation actually proved.
Watch the classic example: the root (1 + sqrt(-15))/4 of 2T^2 - T + 2 lies
in Q_2 *outside* the unit disk even though both complex roots sit on the
unit circle.
"""

from padic_entropy import Padic, padic_log, slope_split

print(__doc__)

print("== construction and arithmetic ==")
third = Padic.from_rational(1, 3, 2, 8)
print(f"1/3 in Q_2 at 8 digits:          {third}")
print(f"3 * (1/3):                       {3 * third}")
print(f"8 = 2^3:                         {Padic.from_rational(8, 1, 2, 8)}")

a = Padic.from_rational(7, 5, 3, 8)
print(f"7/5 in Q_3:                      {a}")
print(f"(7/5) * (5/7):                   {a * Padic.from_rational(5, 7, 3, 8)}")

print()
print("== cancellation is tracked, never guessed ==")
x = Padic.from_rational(10, 1, 5, 4)
y = Padic.from_rational(-10, 1, 5, 4)
print(f"10 + (-10) at 4 digits in Q_5:   {x + y}   (zero *to precision*)")

print()
print("== the Iwasawa branch: log(p) = 0, roots of unity die ==")
for p in (2, 3, 5):
    print(f"log_{p}({p})  = {padic_log(Padic.from_rational(p, 1, p, 8))}")
print(f"log_2(-1) = {padic_log(Padic.from_rational(-1, 1, 2, 8))}")
l3 = padic_log(Padic.from_rational(4, 1, 3, 3))
print(f"log_3(4) mod 27 = {l3.lift()}   (series 3 - 9/2 + 27/3 mod 27 = 21)")

print()
print("== the outside root of 2T^2 - T + 2 in Q_2 ==")
# Hensel lifting splits f = g*h with g = T - beta monic carrying the root
# inside the disk; the roots multiply to 2/2 = 1, so alpha = 1/beta.
g, _ = slope_split([2, -1, 2], 2, 16)
alpha = -1 / g[0]
print(f"inside factor g = T + ({g[0]})")
print(f"alpha = (1 + sqrt(-15))/4:       {alpha}   (valuation {alpha.v}: |alpha|_2 = 2)")
print(f"check 2 alpha^2 - alpha + 2:     {2 * alpha * alpha - alpha + 2}")
print("successive approximations of alpha:  1/2, -3/2, -19/2, -83/2")
for k, (num, den) in enumerate([(1, 2), (-3, 2), (-19, 2), (-83, 2)]):
    diff = alpha - Padic.from_rational(num, den, 2, 16)
    print(f"  v_2(alpha - ({num}/{den}))  = {diff.valuation()}  (>= {k + 1})")
print(f"log_2(alpha) = {padic_log(alpha)}   <- this will be the entropy in demo 03")
