"""Command-line front end.

Commands: unit-check, fixcount, entropy, mahler, detlog, selftest.
Exit status: 0 success, 1 usage error, 2 mathematical refusal (the input is
well formed but the requested quantity does not exist for it -- not a unit,
zero slope, singular representation, infinite fixed-point set); an argv
the argument parser rejects is a usage error with code USAGE.  Machine
output carries the schema tag "padic-entropy/1".
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass

from ._primes import is_prime
from .detlog import c0_unit_normalize, det_laurent_matrix, logdet_unit
from .entropy import entropy_sequence
from .errors import (
    InvalidQuotient,
    NotPrime,
    PadicEntropyError,
    TooFewRecords,
    UnreadableFile,
    UsageError,
)
from .fixcount import det_exact, fix_count
from .groupring import (
    DEFAULT_SIZE_CAP,
    HeisenbergQuotient,
    RingMatrix,
    ZdQuotient,
    diagonal_family,
    heisenberg_family,
    reduce_to_quotient,
    rho_matrix,
)
from .mahler import mahler_1d, newton_polygon
from .poly_io import parse_poly, print_poly
from .selftest import run_selftest

SCHEMA = "padic-entropy/1"
MAX_PREC = 256


@dataclass
class JobConfig:
    command: str
    p: int = 0
    precision: int = 8
    poly_text: str = ""
    family: str = ""
    quotient: str = ""
    output: str = "table"
    seed: int = 0
    target: int | None = None
    tail: int = 3
    crosscheck: bool = True

    def validate(self):
        if not 1 <= self.precision <= MAX_PREC:
            raise UsageError(f"precision must lie in [1, {MAX_PREC}]")
        if self.output not in output_formats(self.command):
            raise UsageError(f"output format {self.output!r} is not offered by {self.command}")
        if self.command != "selftest" and not is_prime(self.p):
            raise NotPrime(f"p = {self.p} is not prime")
        if self.tail < 2:
            raise TooFewRecords(f"--tail {self.tail}: the verdict window needs at least two records")
        if self.target is not None and self.target < 1:
            raise UsageError(f"--target {self.target}: the verdict needs at least one digit")


def output_formats(command: str) -> tuple[str, ...]:
    """The --output choices of a command; only entropy has a csv layout."""
    return ("table", "json", "csv") if command == "entropy" else ("table", "json")


def parse_family(text: str, p: int, d: int):
    """Family grammar: [heis:][odd:|coprime:](a..b | n1,n2,...)."""
    text = text.strip()
    heis = False
    if text.startswith("heis:"):
        heis = True
        text = text[len("heis:"):]
    selector = None
    for sel in ("odd", "coprime"):
        if text.startswith(sel + ":"):
            selector = sel
            text = text[len(sel) + 1:]
            break

    def family(ns):
        return heisenberg_family(ns) if heis else diagonal_family(d, ns)

    def keep(n):
        if selector == "odd":
            return n % 2 == 1
        if selector == "coprime":
            return math.gcd(n, p) == 1
        return True

    if ".." in text:
        lo_s, hi_s = text.split("..", 1)
        try:
            lo, hi = int(lo_s), int(hi_s)
        except ValueError as ex:
            raise UsageError(f"bad family range {text!r}") from ex
        # A member whose index alone exceeds the size cap is refused before
        # any count is computed, so the range stops after the first one
        # (keeping two members, so that the refusal is still the size cap).
        ns = []
        for n in range(max(lo, 1), hi + 1):
            if keep(n):
                ns.append(n)
                if len(ns) >= 2 and family([n])[0].index > DEFAULT_SIZE_CAP:
                    break
    else:
        try:
            ns = [int(x) for x in text.split(",") if x.strip()]
        except ValueError as ex:
            raise UsageError(f"bad family list {text!r}") from ex
        ns = [n for n in ns if keep(n) and n >= 1]
    if not ns:
        raise UsageError("family is empty")
    return family(ns)


def default_family(p: int, d: int):
    ns = [n for n in range(1, 40) if math.gcd(n, p) == 1][:8]
    return diagonal_family(d, ns)


def parse_quotient(text: str, d: int):
    text = text.strip()
    try:
        if text.startswith("heis:"):
            return HeisenbergQuotient(int(text[len("heis:"):]))
        parts = [int(x) for x in text.split(",") if x.strip()]
    except ValueError as ex:
        raise InvalidQuotient(f"bad quotient {text!r}") from ex
    if len(parts) == 1 and d > 1:
        parts = parts * d
    if len(parts) != d:
        raise UsageError(f"quotient {text!r} does not match dimension {d}")
    return ZdQuotient(tuple(parts))


def _load_poly(cfg: JobConfig):
    if not cfg.poly_text:
        raise UsageError("missing --poly (or --poly-file)")
    return parse_poly(cfg.poly_text)


def _emit(doc: dict, cfg: JobConfig, table_lines: list[str]) -> str:
    if cfg.output == "json":
        return json.dumps(doc, indent=2) + "\n"
    return "\n".join(table_lines) + "\n"


def run_command(cfg: JobConfig) -> tuple[int, str]:
    """Dispatch a validated JobConfig; returns (exit status, document)."""
    cfg.validate()
    try:
        if cfg.command == "selftest":
            return _cmd_selftest(cfg)
        return 0, _dispatch(cfg)
    except PadicEntropyError as ex:
        doc = {
            "schema": SCHEMA,
            "command": cfg.command,
            "error": {"code": ex.code, "message": str(ex)},
        }
        if cfg.output == "json":
            return ex.exit_status, json.dumps(doc, indent=2) + "\n"
        return ex.exit_status, f"error[{ex.code}]: {ex}\n"


def _dispatch(cfg: JobConfig) -> str:
    if cfg.command == "unit-check":
        return _cmd_unit_check(cfg)
    if cfg.command == "fixcount":
        return _cmd_fixcount(cfg)
    if cfg.command == "entropy":
        return _cmd_entropy(cfg)
    if cfg.command == "mahler":
        return _cmd_mahler(cfg)
    if cfg.command == "detlog":
        return _cmd_detlog(cfg)
    raise UsageError(f"unknown command {cfg.command!r}")


def _cmd_unit_check(cfg: JobConfig) -> str:
    f = _load_poly(cfg)
    if isinstance(f, RingMatrix):
        raise UsageError("unit-check takes a scalar polynomial")
    dec = c0_unit_normalize(f, cfg.p, cfg.precision)
    doc = {
        "schema": SCHEMA,
        "command": "unit-check",
        "p": cfg.p,
        "precision": cfg.precision,
        "poly": print_poly(f),
        "unit": True,
        "p_power": dec.a,
        "leading_unit": str(dec.c),
        "monomial_exponent": list(dec.nu),
        "one_unit_support": len(dec.g.terms),
    }
    lines = [
        f"unit of c0(Z^{f.d}) at p={cfg.p}: yes",
        f"  f = {cfg.p}^{dec.a} * ({dec.c}) * t^{dec.nu} * (1 + {cfg.p}*g)",
        f"  g has {len(dec.g.terms)} term(s) at precision {cfg.precision}",
    ]
    return _emit(doc, cfg, lines)


def _cmd_fixcount(cfg: JobConfig) -> str:
    f = _load_poly(cfg)
    d = f.entries[0][0].d if isinstance(f, RingMatrix) else f.d
    if not cfg.quotient:
        raise UsageError("missing --quotient")
    q = parse_quotient(cfg.quotient, d)
    rec = fix_count(f, q, cfg.p, cfg.precision)
    doc = {
        "schema": SCHEMA,
        "command": "fixcount",
        "p": cfg.p,
        "precision": cfg.precision,
        "record": rec.to_json(),
    }
    lines = [
        f"quotient {rec.label}: |Fix| = {rec.fix_count}",
        f"  v_{cfg.p} = {rec.p_valuation}, unit residue {rec.unit_residue}",
        f"  normalized log = {rec.normalized}",
    ]
    if cfg.crosscheck and isinstance(q, ZdQuotient):
        # the record came from the character product; the dense determinant
        # of the regular representation is the independent route
        signed = rec.det_sign * rec.fix_count
        ok = abs(det_exact(rho_matrix(reduce_to_quotient(f, q)))) == rec.fix_count
        doc["character_product"] = str(signed)
        doc["crosscheck_ok"] = ok
        lines.append(f"  character product: {signed} (|.| matches: {ok})")
    return _emit(doc, cfg, lines)


def _cmd_entropy(cfg: JobConfig) -> str:
    f = _load_poly(cfg)
    d = f.entries[0][0].d if isinstance(f, RingMatrix) else f.d
    family = (
        parse_family(cfg.family, cfg.p, d) if cfg.family else default_family(cfg.p, d)
    )
    rep = entropy_sequence(
        f, family, cfg.p, cfg.precision, target=cfg.target, tail=cfg.tail
    )
    doc = {"schema": SCHEMA, "command": "entropy", "report": rep.to_json()}
    if cfg.output == "csv":
        return rep.to_csv()
    lines = [f"{r.label}: |Fix|={r.fix_count} normalized={r.normalized}" for r in rep.records]
    lines.append(
        f"verdict: {rep.verdict} (stable digits: {rep.stable_digits}, "
        f"tail {rep.tail}, target {rep.target})"
    )
    sv = rep.stabilized_value
    lines.append(f"stabilized value: {sv}")
    if not sv.is_zero:
        lines.append(
            f"stabilized digits (base {cfg.p}, valuation {sv.v}): "
            + " ".join(str(d_) for d_ in sv.digits())
        )
    return _emit(doc, cfg, lines)


def _cmd_mahler(cfg: JobConfig) -> str:
    f = _load_poly(cfg)
    if isinstance(f, RingMatrix) or f.d != 1:
        raise UsageError("mahler takes a one-variable polynomial")
    np_data = newton_polygon(f, cfg.p)
    val = mahler_1d(f, cfg.p, cfg.precision)
    doc = {
        "schema": SCHEMA,
        "command": "mahler",
        "p": cfg.p,
        "precision": cfg.precision,
        "poly": print_poly(f),
        "newton_slopes": [[str(s), length] for s, length in np_data.segments],
        "value": val.to_json(),
    }
    lines = [
        f"newton polygon slopes: {[(str(s), l) for s, l in np_data.segments]}",
        f"p-adic mahler measure: {val}",
    ]
    return _emit(doc, cfg, lines)


def _cmd_detlog(cfg: JobConfig) -> str:
    f = _load_poly(cfg)
    if isinstance(f, RingMatrix):
        scalar = det_laurent_matrix(f)
        route = "det of matrix, then scalar unit route"
    else:
        scalar = f
        route = "scalar unit route"
    val = logdet_unit(scalar, cfg.p, cfg.precision)
    doc = {
        "schema": SCHEMA,
        "command": "detlog",
        "p": cfg.p,
        "precision": cfg.precision,
        "route": route,
        "value": val.to_json(),
    }
    return _emit(doc, cfg, [f"log-determinant ({route}): {val}"])


def _cmd_selftest(cfg: JobConfig) -> tuple[int, str]:
    results = run_selftest(cfg.seed)
    ok = all(r[1] for r in results)
    doc = {
        "schema": SCHEMA,
        "command": "selftest",
        "seed": cfg.seed,
        "passed": ok,
        "checks": [
            {"name": n, "ok": good, "detail": detail} for n, good, detail in results
        ],
    }
    width = max(len(n) for n, _, _ in results)
    lines = [
        f"{n.ljust(width)}  {'PASS' if good else 'FAIL'}{('  ' + detail) if detail else ''}"
        for n, good, detail in results
    ]
    lines.append(f"selftest (seed {cfg.seed}): {'PASS' if ok else 'FAIL'}")
    return (0 if ok else 1), _emit(doc, cfg, lines)


class _ArgumentParser(argparse.ArgumentParser):
    """argparse with coded rejections; subparsers are built from this class too.

    A rejected argv raises ``UsageError`` (exit 1, ``error[USAGE]``) instead of
    exiting 2, which the CLI reserves for mathematical refusals.
    """

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")

    def parse_known_args(self, args=None, namespace=None):
        # argparse reads a value that starts with "-" (``--poly -t+4``) as an
        # option, so such a value is joined to its flag unless it is one.
        args = list(sys.argv[1:] if args is None else args)
        if "--poly" in self._option_string_actions:
            i = 0
            while i + 1 < len(args):
                value = args[i + 1]
                if args[i] == "--poly" and value.split("=", 1)[0] not in self._option_string_actions:
                    args[i : i + 2] = [f"--poly={value}"]
                i += 1
        return super().parse_known_args(args, namespace)


def build_argparser() -> argparse.ArgumentParser:
    ap = _ArgumentParser(
        prog="padic-entropy",
        description="Exact p-adic entropy of principal algebraic actions.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def command(name, help_text):
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--p", type=int, required=True, help="the prime p")
        sp.add_argument("--prec", type=int, default=8, help="precision digits [1,256]")
        sp.add_argument("--poly", help="polynomial or matrix in the text grammar")
        sp.add_argument("--poly-file", help="file containing the polynomial text")
        sp.add_argument("--output", choices=output_formats(name), default="table")
        return sp

    command("unit-check", "convolution-algebra unit test + normal form")
    sp = command("fixcount", "exact fixed-point count for one quotient")
    sp.add_argument("--quotient", help='e.g. "4", "3,5", or "heis:2"')
    sp.add_argument("--no-crosscheck", action="store_true")
    sp = command("entropy", "normalized counts over a quotient family")
    sp.add_argument("--family", help='e.g. "odd:1..25", "2,4,5,7", "heis:2..7"')
    sp.add_argument("--target", type=int, help="digits required for the verdict")
    sp.add_argument("--tail", type=int, default=3, help="records in the verdict window")
    command("mahler", "one-variable p-adic Mahler measure")
    command("detlog", "log-determinant of a unit over Z^d")
    sp = sub.add_parser("selftest", help="run the seeded property battery")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--output", choices=output_formats("selftest"), default="table")
    return ap


def config_from_args(args: argparse.Namespace) -> JobConfig:
    cfg = JobConfig(command=args.command)
    cfg.output = getattr(args, "output", "table")
    cfg.seed = getattr(args, "seed", 0)
    if args.command != "selftest":
        cfg.p = args.p
        cfg.precision = args.prec
        text = getattr(args, "poly", None)
        path = getattr(args, "poly_file", None)
        if text and path:
            raise UsageError("give either --poly or --poly-file, not both")
        if path:
            try:
                with open(path, "r", encoding="utf-8") as fh:
                    text = fh.read()
            except (OSError, UnicodeDecodeError) as ex:
                raise UnreadableFile(f"cannot read --poly-file {path!r}: {ex}") from ex
        cfg.poly_text = text or ""
    cfg.family = getattr(args, "family", "") or ""
    cfg.quotient = getattr(args, "quotient", "") or ""
    cfg.target = getattr(args, "target", None)
    cfg.tail = getattr(args, "tail", 3)
    cfg.crosscheck = not getattr(args, "no_crosscheck", False)
    return cfg


def main(argv=None) -> int:
    ap = build_argparser()
    try:
        args = ap.parse_args(argv)
        cfg = config_from_args(args)
        status, doc = run_command(cfg)
    except PadicEntropyError as ex:
        sys.stderr.write(f"error[{ex.code}]: {ex}\n")
        return ex.exit_status
    sys.stdout.write(doc)
    if status != 0:
        sys.stderr.write("refused or failed; see output above\n")
    return status


if __name__ == "__main__":
    raise SystemExit(main())
