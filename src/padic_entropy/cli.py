"""Command-line front end.

Commands: unit-check, fixcount, entropy, mahler, detlog, selftest.
Exit status: 0 success, 1 usage error, 2 mathematical refusal (the input is
well formed but the requested quantity does not exist for it -- not a unit,
zero slope, singular representation, infinite fixed-point set); an argv
the argument parser rejects is a usage error with code USAGE.  Machine
output carries the schema tag "padic-entropy/1".

Each command's handler reads the ``argparse.Namespace`` that
``build_argparser`` parses (``args.p``, ``args.prec``, ``args.poly``, ...);
``run_command`` makes the checks argparse cannot make and looks the handler
up in ``_COMMANDS``.  ``main`` parses an argv that starts with a command
with ``build_argparser(command)``, whose top level holds that command's
subparser alone, and any other argv with the full parser of all six
commands, the only one that prints the top-level help or lists the commands.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

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


def _load_poly(args: argparse.Namespace):
    if not args.poly:
        raise UsageError("missing --poly (or --poly-file)")
    return parse_poly(args.poly)


def _emit(doc: dict, args: argparse.Namespace, table_lines: list[str]) -> str:
    if args.output == "json":
        return json.dumps(doc, indent=2) + "\n"
    return "\n".join(table_lines) + "\n"


def run_command(args: argparse.Namespace) -> tuple[int, str]:
    """Run one command on its parsed argv; returns (exit status, document).

    ``--poly-file`` is read into ``args.poly`` first.  A refusal made before
    the run -- both --poly and --poly-file, an unreadable file, the precision
    range, a p that is not prime, --tail and --target, in that order -- is
    raised to the caller; one made during the run becomes the document.
    """
    if args.command != "selftest":
        if args.poly and args.poly_file:
            raise UsageError("give either --poly or --poly-file, not both")
        if args.poly_file:
            try:
                with open(args.poly_file, "r", encoding="utf-8") as fh:
                    args.poly = fh.read()
            except (OSError, UnicodeDecodeError) as ex:
                raise UnreadableFile(f"cannot read --poly-file {args.poly_file!r}: {ex}") from ex
        if not 1 <= args.prec <= MAX_PREC:
            raise UsageError(f"precision must lie in [1, {MAX_PREC}]")
        if not is_prime(args.p):
            raise NotPrime(f"p = {args.p} is not prime")
    if args.command == "entropy":
        if args.tail < 2:
            raise TooFewRecords(f"--tail {args.tail}: the verdict window needs at least two records")
        if args.target is not None and args.target < 1:
            raise UsageError(f"--target {args.target}: the verdict needs at least one digit")
    try:
        return _COMMANDS[args.command](args)
    except PadicEntropyError as ex:
        doc = {
            "schema": SCHEMA,
            "command": args.command,
            "error": {"code": ex.code, "message": str(ex)},
        }
        return ex.exit_status, _emit(doc, args, [f"error[{ex.code}]: {ex}"])


def _cmd_unit_check(args: argparse.Namespace) -> tuple[int, str]:
    f = _load_poly(args)
    if isinstance(f, RingMatrix):
        raise UsageError("unit-check takes a scalar polynomial")
    dec = c0_unit_normalize(f, args.p, args.prec)
    g_terms = len(dec.one_unit.terms) - 1  # the constant term of 1 + p*g is 1
    doc = {
        "schema": SCHEMA,
        "command": "unit-check",
        "p": args.p,
        "precision": args.prec,
        "poly": print_poly(f),
        "unit": True,
        "p_power": dec.a,
        "leading_unit": str(dec.c),
        "monomial_exponent": list(dec.nu),
        "one_unit_support": g_terms,
    }
    lines = [
        f"unit of c0(Z^{f.d}) at p={args.p}: yes",
        f"  f = {args.p}^{dec.a} * ({dec.c}) * t^{dec.nu} * (1 + {args.p}*g)",
        f"  g has {g_terms} term(s) at precision {args.prec}",
    ]
    return 0, _emit(doc, args, lines)


def _cmd_fixcount(args: argparse.Namespace) -> tuple[int, str]:
    f = _load_poly(args)
    d = f.entries[0][0].d if isinstance(f, RingMatrix) else f.d
    if not args.quotient:
        raise UsageError("missing --quotient")
    q = parse_quotient(args.quotient, d)
    rec = fix_count(f, q, args.p, args.prec)
    doc = {
        "schema": SCHEMA,
        "command": "fixcount",
        "p": args.p,
        "precision": args.prec,
        "record": rec.to_json(),
    }
    lines = [
        f"quotient {rec.label}: |Fix| = {rec.fix_count}",
        f"  v_{args.p} = {rec.p_valuation}, unit residue {rec.unit_residue}",
        f"  normalized log = {rec.normalized}",
    ]
    if not args.no_crosscheck and isinstance(q, ZdQuotient):
        # the record came from the character product; the dense determinant
        # of the regular representation is the independent route
        signed = rec.det_sign * rec.fix_count
        ok = abs(det_exact(rho_matrix(reduce_to_quotient(f, q)))) == rec.fix_count
        doc["character_product"] = str(signed)
        doc["crosscheck_ok"] = ok
        lines.append(f"  character product: {signed} (|.| matches: {ok})")
    return 0, _emit(doc, args, lines)


def _cmd_entropy(args: argparse.Namespace) -> tuple[int, str]:
    f = _load_poly(args)
    d = f.entries[0][0].d if isinstance(f, RingMatrix) else f.d
    family = (
        parse_family(args.family, args.p, d) if args.family else default_family(args.p, d)
    )
    rep = entropy_sequence(
        f, family, args.p, args.prec, target=args.target, tail=args.tail
    )
    doc = {"schema": SCHEMA, "command": "entropy", "report": rep.to_json()}
    if args.output == "csv":
        return 0, rep.to_csv()
    lines = [f"{r.label}: |Fix|={r.fix_count} normalized={r.normalized}" for r in rep.records]
    lines.append(
        f"verdict: {rep.verdict} (stable digits: {rep.stable_digits}, "
        f"tail {rep.tail}, target {rep.target})"
    )
    sv = rep.stabilized_value
    lines.append(f"stabilized value: {sv}")
    if not sv.is_zero:
        lines.append(
            f"stabilized digits (base {args.p}, valuation {sv.v}): "
            + " ".join(str(d_) for d_ in sv.digits())
        )
    return 0, _emit(doc, args, lines)


def _cmd_mahler(args: argparse.Namespace) -> tuple[int, str]:
    f = _load_poly(args)
    if isinstance(f, RingMatrix) or f.d != 1:
        raise UsageError("mahler takes a one-variable polynomial")
    np_data = newton_polygon(f, args.p)
    val = mahler_1d(f, args.p, args.prec)
    doc = {
        "schema": SCHEMA,
        "command": "mahler",
        "p": args.p,
        "precision": args.prec,
        "poly": print_poly(f),
        "newton_slopes": [[str(s), length] for s, length in np_data.segments],
        "value": val.to_json(),
    }
    lines = [
        f"newton polygon slopes: {[(str(s), l) for s, l in np_data.segments]}",
        f"p-adic mahler measure: {val}",
    ]
    return 0, _emit(doc, args, lines)


def _cmd_detlog(args: argparse.Namespace) -> tuple[int, str]:
    f = _load_poly(args)
    if isinstance(f, RingMatrix):
        scalar = det_laurent_matrix(f)
        route = "det of matrix, then scalar unit route"
    else:
        scalar = f
        route = "scalar unit route"
    val = logdet_unit(scalar, args.p, args.prec)
    doc = {
        "schema": SCHEMA,
        "command": "detlog",
        "p": args.p,
        "precision": args.prec,
        "route": route,
        "value": val.to_json(),
    }
    return 0, _emit(doc, args, [f"log-determinant ({route}): {val}"])


def _cmd_selftest(args: argparse.Namespace) -> tuple[int, str]:
    results = run_selftest(args.seed)
    ok = all(r[1] for r in results)
    doc = {
        "schema": SCHEMA,
        "command": "selftest",
        "seed": args.seed,
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
    lines.append(f"selftest (seed {args.seed}): {'PASS' if ok else 'FAIL'}")
    return (0 if ok else 1), _emit(doc, args, lines)


_COMMANDS = {
    "unit-check": _cmd_unit_check,
    "fixcount": _cmd_fixcount,
    "entropy": _cmd_entropy,
    "mahler": _cmd_mahler,
    "detlog": _cmd_detlog,
    "selftest": _cmd_selftest,
}


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


_COMMAND_HELP = {
    "unit-check": "convolution-algebra unit test + normal form",
    "fixcount": "exact fixed-point count for one quotient",
    "entropy": "normalized counts over a quotient family",
    "mahler": "one-variable p-adic Mahler measure",
    "detlog": "log-determinant of a unit over Z^d",
    "selftest": "run the seeded property battery",
}


def _add_options(sp: argparse.ArgumentParser, name: str) -> None:
    if name == "selftest":
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--output", choices=output_formats(name), default="table")
        return
    sp.add_argument("--p", type=int, required=True, help="the prime p")
    sp.add_argument("--prec", type=int, default=8, help="precision digits [1,256]")
    sp.add_argument("--poly", help="polynomial or matrix in the text grammar")
    sp.add_argument("--poly-file", help="file containing the polynomial text")
    sp.add_argument("--output", choices=output_formats(name), default="table")
    if name == "fixcount":
        sp.add_argument("--quotient", help='e.g. "4", "3,5", or "heis:2"')
        sp.add_argument("--no-crosscheck", action="store_true")
    elif name == "entropy":
        sp.add_argument("--family", help='e.g. "odd:1..25", "2,4,5,7", "heis:2..7"')
        sp.add_argument("--target", type=int, help="digits required for the verdict")
        sp.add_argument("--tail", type=int, default=3, help="records in the verdict window")


def build_argparser(command: str | None = None) -> argparse.ArgumentParser:
    """The CLI parser: ``command``'s subparser alone, or all six when it is None.

    argparse hands every token after the command to its subparser, so an argv
    that starts with ``command`` parses, is refused and prints its help
    exactly as on the full parser.  The one-command top level refuses only
    tokens that subparser leaves over ("unrecognized arguments"), and that
    message, like the subparsers' own, prints no usage and lists no commands.
    """
    import shutil  # as argparse.HelpFormatter imports it

    # argparse.HelpFormatter's own default width, read once for every parser
    # instead of once for each formatter that add_argument makes
    formatter = functools.partial(
        argparse.HelpFormatter, width=shutil.get_terminal_size().columns - 2
    )
    ap = _ArgumentParser(
        prog="padic-entropy",
        description="Exact p-adic entropy of principal algebraic actions.",
        formatter_class=formatter,
    )
    # Without prog, argparse formats the top-level usage to derive it; that
    # gives the bare prog only because the top-level parser has no positionals.
    sub = ap.add_subparsers(dest="command", required=True, prog=ap.prog)
    for name in _COMMAND_HELP if command is None else (command,):
        sp = sub.add_parser(name, help=_COMMAND_HELP[name], formatter_class=formatter)
        _add_options(sp, name)
    return ap


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    ap = build_argparser(argv[0] if argv and argv[0] in _COMMAND_HELP else None)
    try:
        status, doc = run_command(ap.parse_args(argv))
    except PadicEntropyError as ex:
        sys.stderr.write(f"error[{ex.code}]: {ex}\n")
        return ex.exit_status
    sys.stdout.write(doc)
    if status != 0:
        sys.stderr.write("refused or failed; see output above\n")
    return status


if __name__ == "__main__":
    raise SystemExit(main())
