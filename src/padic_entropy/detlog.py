"""The p-adic trace-log determinant on group algebras.

``tr_log_one_unit`` evaluates the group-trace of the logarithm series on
1-units F = 1 + p*G (matrices over the Laurent algebra on Z^d or over a
finite group ring): the value is  sum_nu -(1/nu) * [identity coefficient of
the matrix trace of (1-F)^nu],  truncated by ``padic.series_guard``, the
rule of every log series: every dropped term vanishes mod p^prec.  On
1-units this map is a homomorphism and is invariant under conjugation.
Only identity coefficients are needed, and in every group

    const tr X^(a+b) = <X^a, X^b>,  <A, B> = sum_{s,u} sum_g A[s][u][g] * B[u][s][g^-1],

so one paired kernel serves Z^d and every finite group ring: it takes the
even power 2j from <X^j, X^j> and the odd power 2j+1 from <X^j, X^(j+1)>,
and builds only the powers up to cap/2.  Group elements are int keys and
the group law is data: the move of an element h carries the key of g to
the key of g*h.  On Z^d a key packs the exponent, a move is the int offset
key(h) - key(0) and the inverse key is 2 key(0) - key(g); on a finite group
a key is the element's index in the quotient, a move is the column
g -> g*h of the quotient's own law, listed once for each h in X's support,
and inverse keys come from one list of the quotient's ``inverse``, built by
the kernel for each series.  Every coefficient of X = 1 - F is
divisible by p, so the kernel stores Y^j = X^j / p^j and keeps only the
digits of Y^j that a constant mod p^w can still see (p^(w - 2j + 1));
reduction mod p^k commutes with products, so the constants are the residues
the powers of X would give.  Each step of the
kernel costs at most r * |supp X| * |G| products on a finite group ring,
so there the series is refused above ``SERIES_WORK_CAP`` products.

A scalar X = sum_i c_i t^(e_i) on Z^d needs no powers at all:

    const X^nu = sum nu!/(n_1! ... n_k!) * c_1^(n_1) ... c_k^(n_k)

over the n in N^k with |n| = nu and sum_i n_i e_i = 0, the lattice points
of the relation cone of the exponents (the relations that also organise
Lind-Schmidt-Ward's periodic-point formula).  With rho the rank of the
exponents, listing them costs about C(cap + k - rho, k - rho) candidates,
where the paired kernel's powers fill a box of about (2 R cap)^d cells
(R the largest exponent).
``tr_log_one_unit`` takes whichever estimate is smaller, a candidate
counting as ``_LATTICE_POINT_CELLS`` cells, and refuses the series when the
chosen estimate exceeds the same ``SERIES_WORK_CAP``, read as cells.

``c0_unit_normalize`` factors an integral Laurent element that is a unit of
the convolution algebra as p^a * c * t^nu * (1 + p*g); ``logdet_unit``
combines the two to evaluate the determinant on every such unit (the p^a
and monomial factors contribute zero).  ``logdet_finite`` is the finite
group formula (1/|G|) log det(rho), and ``det_laurent_matrix`` links the
matrix and scalar cases over the commutative algebra.

numpy is imported only by the dense ``Z^d`` kernel (small boxes while p^w
fits a machine word) and by ``det_exact``'s CRT branch (size 64 and up).
That branch is reached by the finite-group formula on large matrices and by
the CLI's ``fixcount`` cross-check on a regular representation of that size;
every ``selftest`` run loads numpy as well.  The paired kernel, the lattice
route and unit normalization run without it.
"""

from __future__ import annotations

import math
from fractions import Fraction

from ._util import Record, rational_residue, require_prec, require_prime, strip_p_content, vp_int
from .errors import (
    DomainMismatch,
    IndistinguishableAtPrecision,
    NotACZeroUnit,
    NotAOneUnit,
    SingularRho,
)
from .fixcount import det_exact, log_over_index
from .groupring import (
    FiniteGroupRingElem,
    LaurentPoly,
    RingMatrix,
    _GroupRingElem,
    rho_matrix,
    sup_norm,
)
from .padic import Padic, _neg_sum_over_nu, padic_log, series_guard

_DENSE_CELL_CAP = 4_000_000
# Bounds the work estimate of every trace-log series, before any power is
# built.  On Z^d it is the estimate of the route ``tr_log_one_unit`` chooses:
# r * cells, where cells is the exponent box the powers of 1 - F can fill, or
# the weighted lattice candidates below; the paired kernel took seconds on a
# d = 3 simplex at prec 128 (about 1.9e7 cells; it now takes the lattice
# route).  On a finite group ring it is r^2 * |supp X| * |G| * ceil(cap/2)
# products, where |supp X| counts the nonzero (entry, element) cells of
# X = 1 - F: each of the kernel's ceil(cap/2) steps moves the at most r * |G|
# cells of a power row by each cell of X, and the pairings cost less.  A
# full-support 1-unit on heis(8) is about 1.3e6 products (0.2 s); on
# heis(16) it is 8.4e7 and took 16-22 s, so the cap allows a few seconds.
SERIES_WORK_CAP = 20_000_000
# A lattice point of the relation cone counts as this many cells of the
# exponent box when ``tr_log_one_unit`` picks the cheaper Z^d route.  Measured
# on a grid of 24 supports (d = 1..3, k - rank = 1..4) at prec 16..128,
# p = 3: a listed candidate costs about 1-3 us, a cell of the paired kernel
# 0.005-1.1 us, and 7 gave the least total time (CHANGES.md).
_LATTICE_POINT_CELLS = 7


def _coeff_int_mod(c, p: int, w: int) -> int:
    """Integer representative of a coefficient modulo p^w."""
    if isinstance(c, (int, Fraction)):
        return rational_residue(c, p, p**w)
    if isinstance(c, Padic):
        if c.is_zero:
            if c.zprec is not None and c.zprec < w:
                raise IndistinguishableAtPrecision(
                    f"coefficient known only to O(p^{c.zprec}), need mod p^{w}"
                )
            return 0
        if c.v < 0:
            raise DomainMismatch("coefficient has negative valuation")
        if c.v + c.prec < w:
            raise IndistinguishableAtPrecision(
                f"coefficient carries {c.v + c.prec} digits, need {w}"
            )
        return c.u * p**c.v % p**w
    raise DomainMismatch(f"unsupported coefficient type {type(c).__name__}")


# -- series kernels -------------------------------------------------------
#
# Each kernel receives X = 1 - F with all coefficients divisible by p, as
# integer data modulo p^w (the dense kernel takes pw = p^w, the paired ones
# p and w), and returns the identity-coefficients of the matrix traces of
# X^1 .. X^cap (ints mod p^w).


def _shift_slices(shape, exp):
    src, dst = [], []
    for n_axis, off in zip(shape, exp):
        if off >= 0:
            src.append(slice(0, n_axis - off))
            dst.append(slice(off, n_axis))
        else:
            src.append(slice(-off, n_axis))
            dst.append(slice(0, n_axis + off))
    return tuple(src), tuple(dst)


def _kernel_zd_dense(supports, d: int, r: int, pw: int, cap: int) -> list[int]:
    """Dense int64 kernel; usable while p^w fits comfortably in a machine word."""
    import numpy as np

    radius = [0] * d
    for s in range(r):
        for t in range(r):
            for e, _ in supports[s][t]:
                for a in range(d):
                    radius[a] = max(radius[a], abs(e[a]))
    radius = [max(1, rad) * cap for rad in radius]
    shape = tuple(2 * rad + 1 for rad in radius)
    center = tuple(radius)

    def blank():
        return np.zeros(shape, dtype=np.int64)

    xarr = [[blank() for _ in range(r)] for _ in range(r)]
    for s in range(r):
        for t in range(r):
            for e, c in supports[s][t]:
                xarr[s][t][tuple(rad + off for rad, off in zip(radius, e))] = c

    power = [[a.copy() for a in row] for row in xarr]
    consts = []
    for _ in range(cap):
        consts.append(int(sum(power[s][s][center] for s in range(r)) % pw))
        nxt = [[blank() for _ in range(r)] for _ in range(r)]
        for s in range(r):
            for t in range(r):
                acc = nxt[s][t]
                for u in range(r):
                    src_arr = power[s][u]
                    for e, c in supports[u][t]:
                        src, dst = _shift_slices(shape, e)
                        acc[dst] = (acc[dst] + c * src_arr[src]) % pw
        power = nxt
    return consts


def _sparse_step(power, ymat, r: int, mod: int):
    """One multiplication power * Y over int-keyed dicts; each entry is reduced mod ``mod`` once.

    ``ymat[u][t]`` lists (move, c); whether a move is an int offset or a
    law column is checked once per support element, outside the loop over
    the entries of the power.
    """
    out = []
    for row_in in power:
        row = []
        for t in range(r):
            acc: dict[int, int] = {}
            get = acc.get
            for u in range(r):
                src = row_in[u]
                for move, c2 in ymat[u][t]:
                    if isinstance(move, int):
                        for k, c1 in src.items():
                            k += move
                            acc[k] = get(k, 0) + c1 * c2
                    else:
                        for k, c1 in src.items():
                            k = move[k]
                            acc[k] = get(k, 0) + c1 * c2
            entry = {}
            for k, v in acc.items():
                v %= mod
                if v:
                    entry[k] = v
            row.append(entry)
        out.append(row)
    return out


def _pair_const(a, b, r: int, inv, mod: int) -> int:
    """Identity coefficient of tr(A B) mod ``mod``: sum over s, u, g of A[s][u][g] * B[u][s][g^-1]."""
    total = 0
    for s in range(r):
        for u in range(r):
            x, y = a[s][u], b[u][s]
            if len(x) > len(y):  # const(xy) = const(yx) in any group ring
                x, y = y, x
            get = y.get
            if isinstance(inv, int):
                for k, c in x.items():
                    c2 = get(inv - k)
                    if c2:
                        total += c * c2
            else:
                for k, c in x.items():
                    c2 = get(inv[k])
                    if c2:
                        total += c * c2
    return total % mod


def _kernel_paired(xmat, one: int, inv, r: int, p: int, w: int, cap: int) -> list[int]:
    """Pairs powers, so only powers 1 .. ceil(cap/2) are built, two at a time.

    ``one`` is the identity's key and ``inv`` the int 2 key(0) on Z^d or the
    inverse list of a finite group.  Every coefficient of X is divisible by
    p, so the kernel stores Y^j = X^j / p^j and keeps of it only the digits
    that a later constant can see: c_nu = p^nu * const tr Y^nu mod p^w needs
    const tr Y^nu mod p^(w - nu) alone (none at all once nu >= w).  Y^j
    enters the pairings for nu = 2j - 1, 2j and 2j + 1, so it is kept mod
    p^(w - 2j + 1), and the step Y^(j+1) = Y^j * Y works mod p^(w - 2j - 1).
    Reduction mod a power of p commutes with the ring operations, so the
    constants are the residues of const tr X^nu mod p^w that the powers of
    X themselves would give, on Z^d and on every finite group ring alike.
    """
    ymat = [[[(move, c // p) for move, c in xmat[s][t]] for t in range(r)] for s in range(r)]
    power = [
        [
            {(one + move if isinstance(move, int) else move[one]): c for move, c in ymat[s][t]}
            for t in range(r)
        ]
        for s in range(r)
    ]
    consts = [p * sum(power[s][s].get(one, 0) for s in range(r)) % p**w]
    nu = 1
    while len(consts) < cap:
        # power = Y^j with nu = 2j - 1: c_2j = p^2j <Y^j, Y^j> and
        # c_(2j+1) = p^(2j+1) <Y^j, Y^(j+1)>
        nu += 1
        consts.append(p**nu * _pair_const(power, power, r, inv, p ** max(w - nu, 0)))
        if len(consts) == cap:
            break
        nu += 1
        mod = p ** max(w - nu, 0)
        nxt = _sparse_step(power, ymat, r, mod)
        consts.append(p**nu * _pair_const(power, nxt, r, inv, mod))
        power = nxt
    return consts


def _kernel_zd_sparse(supports, d: int, r: int, p: int, w: int, cap: int) -> list[int]:
    """The paired kernel on Z^d, for any p^w.

    An exponent e is packed into the int key(e) = sum_a (e_a + R) * B^a with
    B = 2R + 1, where R bounds every exponent of the powers built; adding
    exponents is adding offsets, and key(-e) = 2 key(0) - key(e).
    """
    rad = max([abs(x) for row in supports for sup in row for e, _ in sup for x in e] or [0])
    bound = rad * ((cap + 1) // 2)
    weights = [(2 * bound + 1) ** a for a in range(d)]
    zero = bound * sum(weights)
    xmat = [
        [[(sum(x * w for x, w in zip(e, weights)), c) for e, c in supports[s][t]] for t in range(r)]
        for s in range(r)
    ]
    return _kernel_paired(xmat, zero, 2 * zero, r, p, w, cap)


def _relation_basis(exps: list[tuple]) -> tuple[list[int], list[int], list[list[int]], int]:
    """Integer solution of E n = 0 for the exponent columns ``exps`` of E.

    Returns (pivots, free, rows, den): the columns of one invertible block
    of E (rank = len(pivots)), the other columns, and integers with
    E n = 0  iff  den * n[pivots[i]] = sum_j rows[i][j] * n[free[j]]  for every i.
    The reduced row echelon form of E is computed once, over Q.
    """
    k = len(exps)
    m = [[Fraction(e[a]) for e in exps] for a in range(len(exps[0]) if exps else 0)]
    pivots = []
    for col in range(k):
        rank = len(pivots)
        lead = next((i for i in range(rank, len(m)) if m[i][col]), None)
        if lead is None:
            continue
        m[rank], m[lead] = m[lead], m[rank]
        m[rank] = [x / m[rank][col] for x in m[rank]]
        for i, row in enumerate(m):
            if i != rank and row[col]:
                m[i] = [x - row[col] * y for x, y in zip(row, m[rank])]
        pivots.append(col)
    free = [j for j in range(k) if j not in pivots]
    den = math.lcm(*(m[i][j].denominator for i in range(len(pivots)) for j in free))
    rows = [[int(-m[i][j] * den) for j in free] for i in range(len(pivots))]
    return pivots, free, rows, den


def _kernel_zd_lattice(support, p: int, w: int, cap: int) -> list[int]:
    """const X^nu mod p^w for nu = 1..cap, for a scalar X = sum_i c_i t^(e_i) on Z^d.

    Expanding X^nu, const X^nu = sum nu!/(n_1! ... n_k!) * prod_i c_i^(n_i)
    over the n in N^k with |n| = nu and sum_i n_i e_i = 0: the lattice points
    of the relation cone of the exponents.  The free coordinates of
    ``_relation_basis`` run over the C(cap + k - rank, k - rank) parts with
    |n_free| <= cap, and the pivot coordinates follow in integers; a point
    counts when they are integral and non-negative, and the last free
    coordinate runs only where they are non-negative and |n| <= cap (an
    interval, since they and |n| are linear in it).  The multinomials are
    exact, and each term is summed as multinomial * prod (c_i/p)^(n_i), then
    scaled by p^nu mod p^w, so the list equals ``_kernel_zd_sparse``'s.
    """
    sums = [0] * (cap + 1)
    pivots, free, rows, den = _relation_basis([e for e, _ in support])
    if free:  # else only n = 0 solves E n = 0
        pw = p**w
        fact = [1]
        for n in range(1, cap + 1):
            fact.append(fact[-1] * n)

        def powers(c):
            y, out = c // p, [1]
            for _ in range(cap):
                out.append(out[-1] * y % pw)
            return out

        free_pow = [powers(support[j][1]) for j in free]
        pivot_pow = [powers(support[i][1]) for i in pivots]
        cols = [[row[j] for row in rows] for j in range(len(free))]
        last = len(free) - 1

        def walk(j, acc, size, weight, denom):
            col, ypow = cols[j], free_pow[j]
            if j < last:
                for n in range(cap - size + 1):
                    walk(j + 1, [a + n * b for a, b in zip(acc, col)], size + n,
                         weight * ypow[n], denom * fact[n])
                return
            lo, hi = 0, cap - size
            # den * nu = den * (size + n) + sum(acc) + n * sum(col) <= den * cap
            for a, b in zip(acc + [den * (cap - size) - sum(acc)], col + [-den - sum(col)]):
                if b > 0:
                    lo = max(lo, -(a // b))
                elif b < 0:
                    hi = min(hi, a // -b)
                elif a < 0:
                    return
            for n in range(lo, hi + 1):
                nu, wt, dn = size + n, weight * ypow[n], denom * fact[n]
                for a, b, ppow in zip(acc, col, pivot_pow):
                    m, rem = divmod(a + n * b, den)
                    nu += m
                    if rem:
                        break
                    wt *= ppow[m]
                    dn *= fact[m]
                else:
                    if nu:
                        sums[nu] += fact[nu] // dn * wt % pw

        walk(0, [0] * len(pivots), 0, 1, 1)
    return [p**nu * sums[nu] % p**w for nu in range(1, cap + 1)]


def _kernel_finite(supports, group, r: int, p: int, w: int, cap: int) -> list[int]:
    """The paired kernel on a finite group ring; ``supports[s][t]`` lists X's (element, coefficient) pairs.

    ``group`` is the quotient.  The column g -> g*h of its law is listed only
    for h in X's support, and the inverse of every element once, for the
    pairings.
    """
    elements = range(group.index)
    mul = group.multiply
    cols = {h: [mul(g, h) for g in elements] for row in supports for sup in row for h, _ in sup}
    inverses = [group.inverse(g) for g in elements]
    xmat = [[[(cols[h], c) for h, c in supports[s][t]] for t in range(r)] for s in range(r)]
    return _kernel_paired(xmat, 0, inverses, r, p, w, cap)


def tr_log_one_unit(f, p: int, prec: int) -> Padic:
    """Group-trace of log F for a 1-unit F; absolute precision prec.

    (w, cap) = ``series_guard(p, prec)``: the identity coefficients of the
    powers X^1 .. X^cap of X = 1 - F are found modulo p^w, w = prec plus the
    largest v_p(nu) of a kept term, and every later term vanishes mod
    p^prec.  The paired kernel stores the j-th power divided by p^j and reads
    const tr X^(2j) = <X^j, X^j> and const tr X^(2j+1) = <X^j, X^(j+1)>
    (pairing in the module docstring), so it multiplies about cap/2 times.
    On Z^d, small boxes (cells <= ``_DENSE_CELL_CAP``) with p^w in a machine
    word take the dense kernel.  Otherwise a scalar X whose k exponents have
    rank rho takes the lattice route (``_kernel_zd_lattice``: const X^nu as
    a sum of multinomials over the lattice points of the relation cone) when
    its C(cap + k - rho, k - rho) candidates, at ``_LATTICE_POINT_CELLS``
    cells each, cost fewer cells than the exponent box of the paired kernel;
    r x r matrices with r > 1 stay on the paired kernel.  Both routes give
    the same constants.  The constants c_nu are divided by nu and summed in
    integers (``padic._neg_sum_over_nu``); every prime, p = 2 included, takes
    this one series, since v_p(X^nu / nu) >= nu - v_p(nu).  Series the caps
    would let grow without bound are refused with DomainMismatch before any
    power is built, when the work estimate exceeds ``SERIES_WORK_CAP``: over
    Z^d the chosen route's cells (r times the exponent box, or the weighted
    candidates), on a finite group ring the products of the kernel.
    """
    require_prime(p)
    require_prec(prec)
    F = RingMatrix.wrap(f)
    proto = F.entries[0][0]
    if not isinstance(proto, _GroupRingElem):
        raise DomainMismatch("unsupported ring for the trace-log series")
    X = RingMatrix.identity_like(F) - F
    norm = sup_norm(X, p)
    if norm > Fraction(1, p):
        raise NotAOneUnit(f"F - 1 has sup norm {norm} > 1/{p}")
    r = F.r
    w, cap = series_guard(p, prec)
    pw = p**w
    # (key, residue mod p^w) for each nonzero residue of each entry of X
    supports = [
        [
            sorted(
                (k, cc) for k, c in X.entries[s][t].terms.items() if (cc := _coeff_int_mod(c, p, w))
            )
            for t in range(r)
        ]
        for s in range(r)
    ]

    if isinstance(proto, FiniteGroupRingElem):
        cells = sum(len(sup) for row in supports for sup in row)
        work = r * r * cells * proto.group.index * ((cap + 1) // 2)
        if work > SERIES_WORK_CAP:
            raise DomainMismatch(
                f"trace-log series of up to {work} products exceeds cap {SERIES_WORK_CAP}"
            )
        consts = _kernel_finite(supports, proto.group, r, p, w, cap)
    else:
        d = proto.d
        cells = 1
        for a in range(d):
            rad = max(
                [abs(e[a]) for row in supports for sup in row for e, _ in sup] or [1]
            )
            cells *= 2 * max(1, rad) * cap + 1
        dense = pw < (1 << 31) and cells <= _DENSE_CELL_CAP
        work, lattice = r * cells, False
        if not dense and r == 1:
            free = len(_relation_basis([e for e, _ in supports[0][0]])[1])
            points = _LATTICE_POINT_CELLS * math.comb(cap + free, free)
            if points < cells:
                work, lattice = points, True
        if work > SERIES_WORK_CAP:
            raise DomainMismatch(
                f"trace-log series over {work} cells exceeds cap {SERIES_WORK_CAP}"
            )
        if dense:
            consts = _kernel_zd_dense(supports, d, r, pw, cap)
        elif lattice:
            consts = _kernel_zd_lattice(supports[0][0], p, w, cap)
        else:
            consts = _kernel_zd_sparse(supports, d, r, p, w, cap)

    # c_nu is divisible by p^nu and v_p(nu) <= floor(log_p cap) = w - prec
    return _neg_sum_over_nu(enumerate(consts, start=1), p, prec, w - prec)


# -- unit normalization on Z^d ------------------------------------------------


class UnitDecomposition(Record):
    """f = p^a * c * t^nu * (1 + p*g) with c a p-adic unit and g integral.

    ``c`` is the exact coefficient (int or Fraction); ``one_unit`` is
    1 + p*g with integer coefficients modulo p^(prec+1), ready for the
    trace-log series.  Its constant term is exactly 1, so g has
    len(one_unit.terms) - 1 terms.
    """

    def __init__(self, a: int, c: object, nu: tuple, one_unit: LaurentPoly):
        self.a = a
        self.c = c
        self.nu = nu
        self.one_unit = one_unit


def c0_unit_normalize(f: LaurentPoly, p: int, prec: int) -> UnitDecomposition:
    """Unit test and normal form in the convolution algebra of Z^d.

    Strips the p-content, then requires the reduction mod p to be a single
    nonzero monomial c*t^nu -- that is exactly the unit criterion; anything
    else means f vanishes somewhere on the p-adic torus and NotACZeroUnit is
    raised.  On success returns the full decomposition at precision prec.
    Each coefficient is reduced once, modulo p^(prec+1); the unit test reads
    those residues mod p.
    """
    require_prime(p)
    require_prec(prec)
    if not isinstance(f, LaurentPoly):
        raise DomainMismatch("normalization needs a Laurent polynomial")
    if f.is_zero():
        raise NotACZeroUnit("the zero element is not a unit")
    for c in f.terms.values():
        if not isinstance(c, (int, Fraction)):
            raise DomainMismatch("normalization needs exact integer or rational coefficients")
    a, scaled = strip_p_content(list(f.terms.values()), p)
    terms = dict(zip(f.terms, scaled))
    pw = p ** (prec + 1)
    residues = {e: rational_residue(c, p, pw) for e, c in terms.items()}
    nonzero = [e for e, c in residues.items() if c % p]
    if len(nonzero) != 1:
        raise NotACZeroUnit(
            f"reduction mod {p} has {len(nonzero)} monomials; the element "
            f"vanishes somewhere on the {p}-adic torus"
        )
    nu = nonzero[0]
    cinv = pow(residues[nu], -1, pw)
    one_unit = LaurentPoly(
        f.d,
        {
            tuple(x - y for x, y in zip(e, nu)): c * cinv % pw
            for e, c in residues.items()
        },
    )
    return UnitDecomposition(a=a, c=terms[nu], nu=nu, one_unit=one_unit)


def logdet_unit(f: LaurentPoly, p: int, prec: int) -> Padic:
    """log-determinant of a convolution-algebra unit over Z^d.

    Normalizes f = p^a c t^nu (1+pg) at ``series_guard``'s precision; p^a
    and the monomial contribute zero, leaving log(c) plus the series.
    """
    require_prime(p)
    require_prec(prec)
    w, _ = series_guard(p, prec)
    dec = c0_unit_normalize(f, p, w)
    val = padic_log(Padic.from_fraction(dec.c, p, w)) + tr_log_one_unit(
        dec.one_unit, p, prec
    )
    return val.truncate_abs(prec)


def det_laurent_matrix(F: RingMatrix) -> LaurentPoly:
    """Exact determinant of a matrix over the commutative Laurent algebra.

    Expansion in minors over column subsets, with no division: the minors
    of rows 0..k-1 on each column set S extend to row k by each column
    j not in S, with sign (-1)^(number of columns of S after j) (Laplace
    along row k).  Each minor is built once, r * 2^(r-1) - r products in
    all.  Matrices with r > 8 are refused; the message still names the
    permutation expansion this replaced, so refusals keep their bytes.
    """
    F = RingMatrix.wrap(F)
    if not isinstance(F.entries[0][0], LaurentPoly):
        raise DomainMismatch("determinant needs commutative Laurent entries")
    r = F.r
    if r > 8:
        raise DomainMismatch("permutation expansion capped at r = 8")
    # bit j of a key is column j
    minors = {1 << j: x for j, x in enumerate(F.entries[0])}
    for row in F.entries[1:]:
        grown: dict[int, LaurentPoly] = {}
        for cols, minor in minors.items():
            for j, x in enumerate(row):
                if cols >> j & 1:
                    continue
                term = minor * x
                if bin(cols >> j).count("1") % 2:
                    term = -term
                key = cols | 1 << j
                grown[key] = grown[key] + term if key in grown else term
        minors = grown
    return minors[(1 << r) - 1]


def logdet_finite(f, p: int, prec: int) -> Padic:
    """Finite-group log-determinant: (1/|G|) * log_p det(rho_f).

    For integer coefficients the determinant is exact; p-adic coefficients
    are lifted to integer representatives modulo p^K, which determines the
    determinant modulo p^K.  A determinant indistinguishable from zero
    raises SingularRho.
    """
    require_prime(p)
    require_prec(prec)
    F = RingMatrix.wrap(f)
    proto = F.entries[0][0]
    if not isinstance(proto, FiniteGroupRingElem):
        raise DomainMismatch("finite-group formula needs finite group ring entries")
    m = proto.group.index
    exact = all(
        isinstance(c, int) for row in F.entries for e in row for c in e.terms.values()
    )
    if exact:
        det = det_exact(rho_matrix(F))
        if det == 0:
            raise SingularRho("det rho = 0")
        return log_over_index(det, m, p, prec)[1]
    k = prec + vp_int(m, p) + 2
    lifted = F.map_entries(
        lambda e: e._like({h: _coeff_int_mod(c, p, k) for h, c in e.terms.items()})
    )
    dhat = Padic.from_int_mod(det_exact(rho_matrix(lifted)), p, k)
    if dhat.is_zero:
        raise SingularRho(f"det rho = 0 mod p^{k}: cannot certify invertibility")
    return (padic_log(dhat) / m).truncate_abs(prec)
