"""p-adic entropy as a limit over quotient families.

``entropy_sequence`` computes one exact fixed-point record per quotient and
assembles a convergence report over the normalized values (1/index)*log|Fix|.

A finite family can never certify the limit: verdicts state agreement of the
last K records modulo an explicit power of p, nothing more.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import InvalidQuotient, TooFewRecords, UsageError
from .fixcount import DEFAULT_PREC, FixCountRecord, check_quotient, fix_count
from .padic import Padic

DEFAULT_TAIL = 3


@dataclass
class ConvergenceReport:
    """Stabilization analysis of a sequence of normalized records.

    ``distances[i]`` is (valuation, proven_exact) for records i and i + 1
    (sorted by index): the p-adic distance between them is p^-valuation,
    exactly if the flag is set, otherwise as a proven upper bound.  Only
    consecutive records are compared, since the verdict reads nothing
    else.  ``stable_digits`` is the proven
    agreement (in digits) across the tail window; the verdict is "converged"
    only when that reaches the target, and never claims anything about the
    true limit.
    """

    records: list[FixCountRecord]
    p: int
    target: int
    tail: int
    distances: list = field(default_factory=list)
    stable_digits: int = 0
    stabilized_value: Padic | None = None
    verdict: str = "undecided"

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
    """Consecutive ultrametric distances, tail agreement, verdict.

    Never extrapolates: stable_digits is the minimum proven agreement
    valuation over the last ``tail`` records, capped by what was computed.
    A target below 1 digit is refused (UsageError).
    """
    if len(records) < 2:
        raise TooFewRecords("need at least two records to compare")
    _check_window(target, tail)
    records = sorted(records, key=lambda r: r.index)
    rep = ConvergenceReport(records=records, p=p, target=target, tail=tail)
    n = len(records)
    for i in range(n - 1):
        a, b = records[i].normalized, records[i + 1].normalized
        v, exact = a.dist_valuation(b)
        if v is None:  # exact-zero difference: bounded by both precisions
            v, exact = min(_abs_prec(a), _abs_prec(b)), False
        rep.distances.append((v, exact))
    tail_distances = rep.distances[n - min(tail, n):]
    rep.stable_digits = min(v for v, _ in tail_distances)
    rep.stabilized_value = records[-1].normalized.truncate_abs(rep.stable_digits)
    if n >= tail and rep.stable_digits >= target:
        rep.verdict = "converged"
    return rep


def _check_window(target: int, tail: int):
    if tail < 2:
        raise TooFewRecords(f"tail {tail}: the verdict window needs at least two records")
    if target < 1:
        raise UsageError(f"target {target}: the verdict needs at least one digit")


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
    refused at once, and so are a target below 1 and a tail below 2.  A
    vanishing determinant propagates afterwards as InfiniteFixedPointSet
    naming the offending quotient.
    """
    family = list(family)
    if len(family) < 2:
        raise TooFewRecords("family must contain at least two quotients")
    for a, b in zip(family, family[1:]):
        if b.index <= a.index:
            raise InvalidQuotient("family indices must be strictly increasing")
    target = prec if target is None else target
    _check_window(target, tail)
    for q in family:
        check_quotient(f, q, p)
    records = [fix_count(f, q, p, prec) for q in family]
    return convergence_report(records, p, target, tail)

