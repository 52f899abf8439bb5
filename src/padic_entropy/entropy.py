"""p-adic entropy as a limit over quotient families, and the root-of-unity
averaging route to the Mahler measure.

``entropy_sequence`` computes one exact fixed-point record per quotient and
assembles a convergence report over the normalized values (1/index)*log|Fix|.
``snirelman_mahler`` is the same quantity read as an average of log values
over N-th roots of unity with N coprime to p: the sum of logs over a Galois
orbit equals the log of the (rational!) orbit product, which is exactly the
fixed-point count of the diagonal quotient -- so no extension fields appear.

A finite family can never certify the limit: verdicts state agreement of the
last K records modulo an explicit power of p, nothing more.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import DomainMismatch, InvalidQuotient, ModulusNotCoprimeToP, TooFewRecords
from .fixcount import DEFAULT_PREC, FixCountRecord, check_quotient, fix_count
from .groupring import LaurentPoly, RingMatrix, diagonal_family
from .padic import Padic

DEFAULT_TAIL = 3


@dataclass
class ConvergenceReport:
    """Stabilization analysis of a sequence of normalized records.

    ``pairwise`` maps (i, j) to (valuation, proven_exact): the p-adic
    distance between records i and j is p^-valuation, exactly if the flag is
    set, otherwise as a proven upper bound.  ``stable_digits`` is the proven
    agreement (in digits) across the tail window; the verdict is "converged"
    only when that reaches the target, and never claims anything about the
    true limit.
    """

    records: list[FixCountRecord]
    p: int
    target: int
    tail: int
    pairwise: dict = field(default_factory=dict)
    stable_digits: int = 0
    stabilized_value: Padic | None = None
    verdict: str = "undecided"

    def consecutive_distances(self):
        """[(valuation, proven_exact)] between successive records."""
        return [self.pairwise[(i, i + 1)] for i in range(len(self.records) - 1)]

    def to_json(self) -> dict:
        return {
            "p": self.p,
            "target": self.target,
            "tail": self.tail,
            "stable_digits": self.stable_digits,
            "verdict": self.verdict,
            "stabilized_value": None
            if self.stabilized_value is None
            else self.stabilized_value.to_json(),
            "records": [r.to_json() for r in self.records],
        }

    def to_csv(self) -> str:
        lines = ["quotient,index,fix_count,v_p,normalized"]
        for r in self.records:
            lines.append(
                f"{r.label},{r.index},{r.fix_count},{r.p_valuation},{r.normalized}"
            )
        return "\n".join(lines) + "\n"


def convergence_report(
    records: list[FixCountRecord],
    p: int,
    target: int,
    tail: int = DEFAULT_TAIL,
) -> ConvergenceReport:
    """Pairwise ultrametric distances, tail agreement, verdict.

    Never extrapolates: stable_digits is the minimum proven agreement
    valuation over the last ``tail`` records, capped by what was computed.
    """
    if len(records) < 2:
        raise TooFewRecords("need at least two records to compare")
    if tail < 2:
        raise TooFewRecords(f"tail {tail}: the verdict window needs at least two records")
    records = sorted(records, key=lambda r: r.index)
    rep = ConvergenceReport(records=records, p=p, target=target, tail=tail)
    n = len(records)
    for i in range(n):
        for j in range(i + 1, n):
            v, exact = records[i].normalized.dist_valuation(records[j].normalized)
            if v is None:  # exact-zero difference: bounded by both precisions
                v = min(
                    _abs_prec(records[i].normalized), _abs_prec(records[j].normalized)
                )
                exact = False
            rep.pairwise[(i, j)] = (v, exact)
    tail_distances = rep.consecutive_distances()[n - min(tail, n):]
    rep.stable_digits = min(v for v, _ in tail_distances)
    rep.stabilized_value = records[-1].normalized.truncate_abs(rep.stable_digits)
    if n >= tail and rep.stable_digits >= target:
        rep.verdict = "converged"
    return rep


def _abs_prec(x: Padic) -> int:
    a = x.abs_prec
    return 10**9 if a == math.inf else int(a)


def entropy_sequence(
    f,
    family,
    p: int,
    prec: int = DEFAULT_PREC,
    target: int | None = None,
    tail: int = DEFAULT_TAIL,
) -> ConvergenceReport:
    """Normalized log fixed-point counts over a quotient family.

    The family must have strictly increasing indices; quotients whose index
    is divisible by p are allowed (the unit-log is divided by the index with
    the precision loss tracked explicitly).  Every quotient passes the
    checks of ``fix_count`` (size cap, dimensions, coefficients) before the
    first count is computed, so a family that reaches past the size cap is
    refused at once.  A vanishing determinant propagates afterwards as
    InfiniteFixedPointSet naming the offending quotient.
    """
    family = list(family)
    if len(family) < 2:
        raise TooFewRecords("family must contain at least two quotients")
    for a, b in zip(family, family[1:]):
        if b.index <= a.index:
            raise InvalidQuotient("family indices must be strictly increasing")
    for q in family:
        check_quotient(f, q, p)
    records = [fix_count(f, q, p, prec) for q in family]
    return convergence_report(records, p, target if target is not None else prec, tail)


def snirelman_mahler(
    f: LaurentPoly,
    p: int,
    moduli,
    prec: int = DEFAULT_PREC,
    target: int | None = None,
    tail: int = DEFAULT_TAIL,
) -> ConvergenceReport:
    """Root-of-unity averages (1/N^d) log_p |prod f(zeta)| for N coprime to p.

    The orbit product over the full group of N-th roots of unity equals the
    fixed-point count of the diagonal quotient (N, ..., N), computed exactly;
    each record is that count's normalized log.
    """
    if isinstance(f, RingMatrix):
        raise DomainMismatch("averaging route takes a scalar Laurent polynomial")
    moduli = [int(n) for n in moduli]
    for n in moduli:
        if n % p == 0:
            raise ModulusNotCoprimeToP(f"N = {n} shares a factor with p = {p}")
    family = diagonal_family(f.d, moduli)
    return entropy_sequence(f, family, p, prec, target, tail)
