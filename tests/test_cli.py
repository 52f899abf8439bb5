import argparse
import contextlib
import io
import json
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padic_entropy import LaurentPoly, Padic, RingMatrix, cli, parse_poly, print_poly
from padic_entropy.cli import (
    build_argparser,
    default_family,
    parse_family,
    parse_quotient,
    main,
    run_command,
)
from padic_entropy.errors import (
    DimensionInconsistent,
    InvalidQuotient,
    PolySyntaxError,
    TooFewRecords,
    UsageError,
)
from padic_entropy.fixcount import quotient_det
from padic_entropy.groupring import HeisenbergQuotient, ZdQuotient

import helpers


# -- parsing -------------------------------------------------------------------


def test_parse_poly_example():
    f = parse_poly("2*t^2 - t + 2")
    assert f == LaurentPoly(1, {(2,): 2, (1,): -1, (0,): 2})


def test_parse_one():
    assert parse_poly("1") == LaurentPoly.one(1)
    assert parse_poly("0") == LaurentPoly(1, {})


def test_parse_matrix_example():
    m = parse_poly("[[1+3*x, 3],[0, 1]]")
    assert isinstance(m, RingMatrix)
    assert m.r == 2
    assert m.entries[0][0] == LaurentPoly(1, {(0,): 1, (1,): 3})
    assert m.entries[1][1] == LaurentPoly.one(1)


def test_parse_aliases_and_dimensions():
    assert parse_poly("x + y").d == 2
    assert parse_poly("x*y^-1 + z").d == 3
    assert parse_poly("t1 + t3").d == 3
    assert parse_poly("t^-2") == LaurentPoly(1, {(-2,): 1})


def test_parse_negative_exponents_and_juxtaposition():
    f = parse_poly("3*x^2y^-1 - 2")
    assert f == LaurentPoly(2, {(2, -1): 3, (0, 0): -2})


def test_parse_syntax_error_carries_position():
    with pytest.raises(PolySyntaxError) as exc:
        parse_poly("2*t^2 $ 3")
    assert exc.value.position == 6


@pytest.mark.parametrize(
    "text, position",
    [
        ("1+3*t²", 5),  # superscript digits: int() rejects them
        ("1+3*t^²", 6),
        ("1+3*x₂", 5),
        ("١+3*t", 0),  # Arabic-Indic digits: int() reads them as 0-9
        ("1+3*t١", 5),
        ("1+3*t^١", 6),
    ],
)
def test_parse_reads_only_ascii_digits(text, position):
    with pytest.raises(PolySyntaxError, match="unexpected character") as exc:
        parse_poly(text)
    assert exc.value.position == position


@pytest.mark.parametrize("text", ["1+" + "3" * 4400 + "*t", "t^" + "1" * 4400])
def test_parse_refuses_a_literal_past_the_digit_limit(text):
    with pytest.raises(PolySyntaxError, match="integer literal of 4400 digits exceeds 4300") as exc:
        parse_poly(text)
    assert exc.value.position == 2


@pytest.mark.parametrize(
    "text, position",
    [("t^" + "9" * 4300 + "*t", 4303), ("x*t^" + "9" * 4300, 2), ("t^-" + "9" * 4300 + "*t^-1", 4304)],
)
def test_parse_refuses_a_monomial_whose_exponents_add_past_the_digit_limit(text, position):
    with pytest.raises(PolySyntaxError, match="exponent of more than 4300 digits") as exc:
        parse_poly(text)
    assert exc.value.position == position


def test_a_degree_span_past_the_digit_limit_is_refused_whole(capsys):
    e = "9" * 4300
    assert main(["mahler", "--p", "3", f"--poly=t^{e}+3*t^-{e}"]) == 1
    with helpers.int_str_limit(0):
        span = str(2 * int(e))
    assert f"degree span {span} exceeds cap" in capsys.readouterr().out


def test_parse_and_print_literals_at_the_digit_limit():
    big = int("7" * 4300)
    assert parse_poly("1+" + "7" * 4300 + "*t") == LaurentPoly(1, {(0,): 1, (1,): big})
    # a sum of two such literals has 4301 digits, and so has an exponent
    # sum; the printer writes both out
    term = "7" * 4300 + "*t^" + "7" * 4300 + "*t^2"
    f = parse_poly(term + "+" + term)
    text = print_poly(f)
    with helpers.int_str_limit(0):
        assert text == f"{2 * big}*t^{big + 2}"


def test_parse_dimension_inconsistent():
    with pytest.raises(DimensionInconsistent):
        parse_poly("x + y", d=1)


def test_printer_round_trip_fixed():
    for text in ("2*t^2 - t + 2", "1", "t^-3 + 4", "[[1+3*x, 3],[0, 1]]"):
        f = parse_poly(text)
        assert parse_poly(print_poly(f)) == f


def test_printer_round_trip_random():
    rng = random.Random(50)
    for _ in range(40):
        f = helpers.random_laurent(rng, rng.choice([1, 2, 3, 4]), span=3, cmax=9)
        # the printer omits unused trailing variables, so pin the dimension
        assert parse_poly(print_poly(f), d=f.d) == f
        # parse -> print -> parse is the identity on canonical forms
        text = print_poly(f)
        assert print_poly(parse_poly(text, d=f.d)) == text


# -- family / quotient grammar -----------------------------------------------------


def test_family_grammar():
    fam = parse_family("odd:1..7", p=2, d=1)
    assert [q.moduli for q in fam] == [(1,), (3,), (5,), (7,)]
    fam = parse_family("coprime:1..6", p=3, d=2)
    assert [q.moduli for q in fam] == [(1, 1), (2, 2), (4, 4), (5, 5)]
    fam = parse_family("2,4,5,7", p=3, d=1)
    assert [q.moduli for q in fam] == [(2,), (4,), (5,), (7,)]
    fam = parse_family("heis:2..4", p=5, d=3)
    assert all(isinstance(q, HeisenbergQuotient) for q in fam)
    assert [q.n for q in fam] == [2, 3, 4]


def test_family_range_stops_past_the_size_cap():
    # 65^2 and 17^3 are the first indices above 4096
    assert [q.moduli[0] for q in parse_family("1..100000000", p=3, d=2)] == list(range(1, 66))
    assert [q.n for q in parse_family("heis:1..100000000", p=3, d=2)] == list(range(1, 18))
    fam = parse_family("odd:4000..100000000", p=3, d=1)
    assert [q.moduli[0] for q in fam] == [n for n in range(4001, 4098, 2)]
    # two members are kept even when the first is already past the cap
    assert [q.moduli[0] for q in parse_family("100..200", p=3, d=2)] == [100, 101]
    assert [q.moduli[0] for q in parse_family("-100000000..3", p=3, d=1)] == [1, 2, 3]


def test_family_empty_is_usage_error():
    with pytest.raises(UsageError):
        parse_family("odd:2..2", p=3, d=1)


def test_default_family_coprime():
    fam = default_family(3, 1)
    assert all(q.moduli[0] % 3 != 0 for q in fam)
    assert len(fam) == 8


def test_quotient_grammar():
    assert parse_quotient("4", 1) == ZdQuotient((4,))
    assert parse_quotient("3,5", 2) == ZdQuotient((3, 5))
    assert parse_quotient("4", 2) == ZdQuotient((4, 4))
    assert parse_quotient("heis:2", 3) == HeisenbergQuotient(2)


@pytest.mark.parametrize("text", ["heis:x", "3,x", "heis:", "heis:0", "0"])
def test_quotient_grammar_refuses_malformed(text):
    with pytest.raises(InvalidQuotient):
        parse_quotient(text, 2)


# -- command dispatch -----------------------------------------------------------------


def _run(args):
    return run_command(build_argparser().parse_args(args))


def _cli(args, timeout=60):
    """The CLI in a subprocess with a timeout, so that a hang fails the test."""
    return subprocess.run(
        [sys.executable, "-m", "padic_entropy.cli", *args],
        capture_output=True,
        text=True,
        timeout=timeout,
    )


def test_unit_check_refusal_exit_2():
    status, doc = _run(
        ["unit-check", "--p", "3", "--poly", "2*t^2-t+2", "--output", "json"]
    )
    assert status == 2
    payload = json.loads(doc)
    assert payload["error"]["code"] == "NOT_C0_UNIT"


def test_unit_check_success():
    status, doc = _run(
        ["unit-check", "--p", "2", "--poly", "2*t^2-t+2", "--output", "json"]
    )
    assert status == 0
    payload = json.loads(doc)
    assert payload["schema"] == "padic-entropy/1"
    assert payload["unit"] is True
    assert payload["monomial_exponent"] == [1]


def test_entropy_command_csv():
    status, doc = _run(
        [
            "entropy",
            "--p",
            "2",
            "--prec",
            "8",
            "--poly",
            "2*t^2-t+2",
            "--family",
            "odd:1..25",
            "--output",
            "csv",
        ]
    )
    assert status == 0
    lines = doc.strip().split("\n")
    assert lines[0] == "quotient,index,fix_count,v_p,normalized"
    assert len(lines) == 14
    assert lines[1].split(",")[2] == "3"
    assert lines[3].split(",")[2] == "3"  # n = 5 gives 3 again for this f


def test_mahler_command_inside_root():
    status, doc = _run(
        ["mahler", "--p", "2", "--prec", "8", "--poly", "t-4", "--output", "json"]
    )
    assert status == 0
    payload = json.loads(doc)
    assert payload["value"]["zero"] is True
    assert payload["value"]["abs_precision"] >= 8


def test_fixcount_command_crosscheck():
    status, doc = _run(
        [
            "fixcount",
            "--p",
            "2",
            "--prec",
            "6",
            "--poly",
            "2*t^2-t+2",
            "--quotient",
            "3",
            "--output",
            "json",
        ]
    )
    assert status == 0
    payload = json.loads(doc)
    assert payload["record"]["fix_count"] == "27"
    assert payload["crosscheck_ok"] is True


def test_fixcount_keeps_every_digit_when_p_divides_the_index():
    # the unit log is divided by the exact index 3^5, which costs no digit
    status, out = _run(["fixcount", "--p", "3", "--prec", "8", "--poly=2*t^2-t+2", "--quotient", "243"])
    assert status == 0
    assert "normalized log = 35341*3^-2 + O(3^8)" in out


def test_detlog_command_matrix_route():
    status, doc = _run(
        [
            "detlog",
            "--p",
            "3",
            "--prec",
            "6",
            "--poly",
            "[[1+3*t, 3],[0, 1]]",
            "--output",
            "json",
        ]
    )
    assert status == 0
    payload = json.loads(doc)
    assert payload["route"].startswith("det of matrix")


def test_precision_bounds_validated():
    for prec in ("0", "300"):
        with pytest.raises(UsageError, match="precision must lie in"):
            _run(["mahler", "--p", "2", "--prec", prec, "--poly", "t-4"])


def test_byte_identical_output_across_runs():
    args = [
        "entropy",
        "--p",
        "2",
        "--prec",
        "8",
        "--poly",
        "2*t^2-t+2",
        "--family",
        "odd:1..15",
        "--output",
        "json",
    ]
    _, first = _run(args)
    _, second = _run(args)
    assert first == second
    proc = _cli(args)
    assert proc.returncode == 0
    assert proc.stdout == first


def test_replayed_jobs_keep_their_output_bytes():
    # the README command lines, the benchmark jobs at seed 3, the series and
    # lift edge jobs, high-precision trace logs on both Z^d routes, two that
    # the series cap refuses with its estimate, three
    # selftest seeds, Heisenberg counts up to heis:16 (among them words that
    # cancel at z = 1), a count on Z/243 at p = 3, the refusals made before the run (non-ASCII digits in --poly
    # among them), argv whose first token is not the command or with tokens
    # left over after it, paths no other job reaches (the default family,
    # unparsed family and quotient strings, 7x7 to 9x9 detlog matrices),
    # integers of more than 4300 digits, and help at 80 columns, with the
    # exit status and output digests recorded by tests/make_cli_replay.py
    jobs = json.loads(Path(__file__).with_name("cli_replay.json").read_text(encoding="utf-8"))
    assert len(jobs) == 421
    for job in jobs:
        assert helpers.cli_output_digest(job["argv"]) == job, job["argv"]


def test_counts_past_the_digit_limit_print_whole(capsys):
    f = parse_poly("1+99999*x+3*y")
    q = ZdQuotient((64, 64))
    argv = ["fixcount", "--p", "3", "--poly=1+99999*x+3*y", "--quotient", "64,64", "--no-crosscheck"]
    assert main(argv) == 0
    table = capsys.readouterr().out
    assert main(argv + ["--output", "json"]) == 0
    record = json.loads(capsys.readouterr().out)["record"]
    with helpers.int_str_limit(0):
        count = str(abs(quotient_det(f, q)))
    assert len(count) == 20480
    assert table.startswith(f"quotient Z/64xZ/64: |Fix| = {count}\n")
    assert record["fix_count"] == count
    argv = ["entropy", "--p", "7919", "--poly=1+7919*t", "--family", "1110,1111", "--output", "csv"]
    assert main(argv) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    f = parse_poly("1+7919*t")
    with helpers.int_str_limit(0):
        counts = [str(abs(quotient_det(f, ZdQuotient((n,))))) for n in (1110, 1111)]
    assert [row.split(",")[2] for row in rows] == counts


def test_a_unit_past_the_digit_limit_prints_whole(capsys):
    p = 1000000000000000003
    argv = ["detlog", "--p", str(p), "--prec", "256", f"--poly=2+{p}*t"]
    assert main(argv + ["--output", "json"]) == 0
    value = Padic.from_json(json.loads(capsys.readouterr().out)["value"])
    assert (value.v, value.prec) == (1, 255) and value.u > 10**4300
    assert main(argv) == 0
    with helpers.int_str_limit(0):
        text = f"{value.u}*{p}^1 + O({p}^256)"
    assert str(value) == text
    assert capsys.readouterr().out == f"log-determinant (scalar unit route): {text}\n"


def test_cli_main_exit_codes():
    from padic_entropy.cli import main

    assert main(["mahler", "--p", "2", "--prec", "6", "--poly", "t-4"]) == 0
    assert main(["unit-check", "--p", "3", "--poly", "2*t^2-t+2"]) == 2
    assert main(["mahler", "--p", "2", "--prec", "6", "--poly", "t +"]) == 1


def test_selftest_command_deterministic():
    status, doc = _run(["selftest", "--seed", "3", "--output", "json"])
    assert status == 0
    payload = json.loads(doc)
    assert payload["passed"] is True
    assert len(payload["checks"]) >= 12
    _, doc2 = _run(["selftest", "--seed", "3", "--output", "json"])
    assert doc == doc2


@pytest.mark.parametrize("tail", [1, 0, -1])
def test_tail_below_two_refused(tail, capsys):
    # --tail 1 used to certify 25*2^2 + O(2^8) here; the golden value is 41*2^2
    from padic_entropy.cli import main

    args = ["entropy", "--p", "2", "--poly", "2*t^2-t+2", "--family", "1,3,5", "--tail", str(tail)]
    with pytest.raises(TooFewRecords):
        _run(args)
    assert main(args) == 1
    assert "error[TOO_FEW_RECORDS]" in capsys.readouterr().err


@pytest.mark.parametrize("target", [0, -5])
def test_target_below_one_refused(target, capsys):
    # --target -5 and --target 0 used to end in "verdict: converged"
    args = ["entropy", "--p", "3", "--poly=1+3*x", "--family", "1..3", "--target", str(target)]
    with pytest.raises(UsageError, match="at least one digit"):
        _run(args)
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err == f"error[USAGE]: --target {target}: the verdict needs at least one digit\n"
    assert main(args[:-1] + ["1"]) == 0
    assert "target 1)" in capsys.readouterr().out


@pytest.mark.parametrize(
    "args",
    [
        ["fixcount", "--p", "0", "--poly", "2*t^2-t+2", "--quotient", "3"],
        ["fixcount", "--p", "1", "--poly", "2*t^2-t+2", "--quotient", "3"],
        ["mahler", "--p", "9", "--poly", "t-3"],
    ],
    ids=["p0-fixcount", "p1-fixcount", "p9-mahler"],
)
def test_non_prime_p_refused_before_arithmetic(args):
    proc = _cli(args)  # p = 1 once looped in vp_int
    assert proc.returncode == 1
    assert "error[NOT_PRIME]" in proc.stderr


@pytest.mark.parametrize(
    "p, message",
    [
        # 399165290221 * 798330580441, a strong pseudoprime to the bases 2..37
        ("318665857834031151167461", "p = 318665857834031151167461 is not prime"),
        ("3317044064679887385961981", "primality of 3317044064679887385961981 cannot be certified"),
    ],
    ids=["psi12", "psi13"],
)
def test_strong_pseudoprime_p_refused(p, message):
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        status = main(["unit-check", "--p", p, "--poly=1+3*x"])
    assert status == 1
    assert err.getvalue().startswith(f"error[NOT_PRIME]: {message}")


def test_malformed_quotient_exit_1(capsys):
    from padic_entropy.cli import main

    args = ["fixcount", "--p", "3", "--poly", "1+3*x", "--quotient", "heis:x"]
    assert main(args) == 1
    assert "error[INVALID_QUOTIENT]" in capsys.readouterr().out


def test_unreadable_poly_file_is_a_usage_error(tmp_path, capsys):
    proc = _cli(["mahler", "--p", "2", "--poly-file", str(tmp_path / "missing.txt")])
    assert proc.returncode == 1
    assert proc.stderr.startswith("error[UNREADABLE_FILE]: cannot read --poly-file")
    assert "Traceback" not in proc.stderr
    bad = tmp_path / "latin1.txt"
    bad.write_bytes(b"1+3*t\xff")
    for path in (bad, tmp_path):  # not UTF-8, and a directory
        assert main(["mahler", "--p", "2", "--poly-file", str(path)]) == 1
        assert "error[UNREADABLE_FILE]" in capsys.readouterr().err


def test_poly_value_starting_with_a_dash():
    # argparse read "-t+4" as an option and exited 2 ("expected one argument")
    proc = _cli(["fixcount", "--p", "3", "--poly", "-t+4", "--quotient", "3"])
    assert proc.returncode == 0, proc.stderr
    assert "|Fix| = 63" in proc.stdout
    assert proc.stdout == _cli(["fixcount", "--p", "3", "--poly=-t+4", "--quotient", "3"]).stdout
    # an option string after --poly is still an option, not the polynomial
    proc = _cli(["fixcount", "--p", "3", "--poly", "--quotient", "3"])
    assert proc.returncode == 1
    assert proc.stderr == "error[USAGE]: padic-entropy fixcount: argument --poly: expected one argument\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["mahler", "--p", "2", "--poly", "t-4"],
        ["detlog", "--p", "3", "--poly", "1+3*t"],
        ["fixcount", "--p", "3", "--poly", "1+3*t", "--quotient", "3"],
        ["unit-check", "--p", "3", "--poly", "1+3*t"],
        ["selftest"],
    ],
    ids=lambda argv: argv[0],
)
def test_csv_output_offered_only_by_entropy(argv, capsys):
    # these commands once accepted --output csv and printed the table
    assert main([*argv, "--output", "csv"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error[USAGE]: padic-entropy {argv[0]}: argument --output: invalid choice: 'csv'")


def test_plain_usage_refusal_has_its_own_code(capsys):
    assert main(["unit-check", "--p", "3", "--prec", "0", "--poly", "1+3*x"]) == 1
    assert capsys.readouterr().err == "error[USAGE]: precision must lie in [1, 256]\n"
    with pytest.raises(SystemExit) as ex:
        main(["fixcount", "-h"])
    assert ex.value.code == 0
    assert capsys.readouterr().out.startswith("usage: padic-entropy fixcount")


# -- the parser of one command ------------------------------------------------

_COMMAND_NAMES = ("unit-check", "fixcount", "entropy", "mahler", "detlog", "selftest")


def _first_command(argv):
    return argv[0] if argv and argv[0] in _COMMAND_NAMES else None


def _parse_outcome(ap, argv):
    """What a parser makes of argv: a namespace, a refusal, or help and an exit."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            return "namespace", vars(ap.parse_args(argv))
    except UsageError as ex:
        return "usage", str(ex)
    except SystemExit as ex:
        return "exit", ex.code, out.getvalue()


def _assert_parsers_agree(argv):
    full = _parse_outcome(build_argparser(), argv)
    assert _parse_outcome(build_argparser(_first_command(argv)), argv) == full, argv
    return full


def test_one_command_parser_agrees_on_every_replayed_argv():
    # EDGE_ARGV in tests/make_cli_replay.py holds argv whose first token is
    # not the command, and command-first argv with tokens left over
    jobs = json.loads(Path(__file__).with_name("cli_replay.json").read_text(encoding="utf-8"))
    for job in jobs:
        _assert_parsers_agree(job["argv"])


@pytest.mark.parametrize(
    "argv",
    [
        ["-h"],
        ["--help", "mahler"],
        ["mahler", "-h"],
        ["fixcount", "--p", "3", "--help"],
        ["--poly", "detlog", "entropy", "-h"],
        ["selftest", "-h"],
    ],
)
def test_one_command_parser_prints_the_same_help(argv):
    kind, code, text = _assert_parsers_agree(argv)
    assert (kind, code) == ("exit", 0) and text.startswith("usage: padic-entropy")


def test_main_builds_the_options_of_the_first_command_token(monkeypatch, capsys):
    seen = []
    build = cli.build_argparser

    def recording(command=None):
        seen.append(command)
        return build(command)

    monkeypatch.setattr(cli, "build_argparser", recording)
    argvs = [
        ["mahler", "--p", "2", "--poly", "t-4"],
        ["--poly", "mahler", "fixcount", "--p", "3"],
        ["fixcount", "--p", "3", "--poly", "mahler", "--quotient", "3"],
        ["--", "selftest"],
        ["nosuch", "--p", "3"],
        [],
    ]
    for argv in argvs:
        main(argv)
    capsys.readouterr()
    assert seen == ["mahler", None, "fixcount", None, None, None]


@pytest.fixture
def parser_builds(monkeypatch):
    """The prog of every parser built from here on, from a cold cache.

    The cache is cleared before and after, so the test neither finds warm
    parsers nor leaves parsers of the counting class cached.
    """
    built = []

    class Counting(cli._ArgumentParser):
        def __init__(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            super().__init__(*args, **kwargs)

    # add_parser builds each subparser with the top-level parser's class
    monkeypatch.setattr(cli, "_ArgumentParser", Counting)
    build_argparser.cache_clear()
    yield built
    build_argparser.cache_clear()


@pytest.mark.parametrize(
    "argv, parsers",
    [
        (["mahler", "--p", "2", "--poly", "t-4"], 2),
        (["fixcount", "--p", "3", "--poly", "mahler", "--quotient", "3"], 2),
        (["entropy", "--p", "3", "--bogus"], 2),
        (["selftest", "-h"], 2),
        (["mahler", "mahler", "--p", "2"], 2),
        (["--", "selftest"], 7),
        (["--poly", "mahler", "fixcount", "--p", "3"], 7),
        (["nosuch", "--p", "3"], 7),
        (["-h"], 7),
        ([], 7),
    ],
)
def test_main_builds_one_subparser_for_a_command_first_argv(argv, parsers, parser_builds, capsys):
    with contextlib.suppress(SystemExit):
        main(argv)
    capsys.readouterr()
    assert len(parser_builds) == parsers, parser_builds


def test_main_builds_a_command_s_parser_once(parser_builds, capsys):
    argv = ["mahler", "--p", "2", "--poly", "t-4"]
    counts = []
    for _ in range(2):
        before = len(parser_builds)
        assert main(argv) == 0
        counts.append(len(parser_builds) - before)
    capsys.readouterr()
    assert counts == [2, 0]


def test_a_warm_parser_wraps_help_at_the_current_width(monkeypatch, capsys):
    ap = build_argparser("mahler")
    texts = []
    for columns in (50, 200):
        monkeypatch.setenv("COLUMNS", str(columns))
        with pytest.raises(SystemExit):
            main(["mahler", "-h"])
        texts.append(capsys.readouterr().out)
        assert build_argparser("mahler") is ap
        # a parser built now, outside the cache, prints the same help
        fresh = build_argparser.__wrapped__("mahler")
        assert texts[-1] == _subparsers(fresh)["mahler"].format_help()
    assert texts[0].count("\n") > texts[1].count("\n")


def test_replayed_jobs_in_reverse_order_keep_their_output_bytes():
    # one process, every parser warm: no job's argv leaves anything behind
    # in a shared parser for the next
    jobs = json.loads(Path(__file__).with_name("cli_replay.json").read_text(encoding="utf-8"))
    for job in reversed(jobs):
        assert helpers.cli_output_digest(job["argv"]) == job, job["argv"]


def _subparsers(ap):
    action = next(a for a in ap._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices


def test_one_command_parser_leaves_the_other_commands_bare():
    # a command-first argv is dispatched to that command, so the other five
    # are not built at all
    full = _subparsers(build_argparser())
    assert list(full) == list(_COMMAND_NAMES)
    for name in _COMMAND_NAMES:
        assert set(full[name]._option_string_actions) > {"-h", "--help", "--output"}
        built = _subparsers(build_argparser(name))
        assert list(built) == [name]
        assert set(built[name]._option_string_actions) == set(full[name]._option_string_actions)


@pytest.mark.parametrize("columns", [50, 200])
def test_help_wraps_at_the_terminal_width(columns, monkeypatch):
    # every help main can print, the full parser's top level and each
    # command's own subparser, takes the width argparse's default formatter reads
    monkeypatch.setenv("COLUMNS", str(columns))
    parsers = [build_argparser()]
    parsers += [_subparsers(build_argparser(command))[command] for command in _COMMAND_NAMES]
    # the same parsers built now, outside the cache; the shared ones are read,
    # never changed
    fresh = [build_argparser.__wrapped__()]
    fresh += [
        _subparsers(build_argparser.__wrapped__(command))[command] for command in _COMMAND_NAMES
    ]
    for parser, built_now in zip(parsers, fresh):
        assert parser.formatter_class is argparse.HelpFormatter, parser.prog
        assert parser.format_help() == built_now.format_help(), parser.prog


# Run in a fresh interpreter: numpy, once imported, stays in sys.modules.
_IMPORT_SPY = """
import contextlib, io, json, sys
from padic_entropy import cli
seen = ["numpy" in sys.modules]
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0, argv
    seen.append("numpy" in sys.modules)
print(json.dumps(seen))
"""
_NUMPY_FREE_JOBS = [
    ["mahler", "--p", "2", "--prec", "8", "--poly", "t-4"],
    ["entropy", "--p", "3", "--poly=1+3*x+3*y^-1", "--family", "1..4"],
    ["entropy", "--p", "3", "--prec", "6", "--poly=1+3*x+3*y+3*x^-1*y^-1", "--family", "heis:2..4"],
    ["unit-check", "--p", "3", "--poly", "1+3*x"],
    ["detlog", "--p", "3", "--prec", "24", "--poly=1+3*x+3*y^-1"],  # p^w past 2^31: no dense kernel
    ["detlog", "--p", "3", "--prec", "64", "--poly=1+3*x+3*y+3*z+3*x^-1*y^-1*z^-1"],  # lattice route
    ["fixcount", "--p", "3", "--poly=1+3*x+3*y", "--quotient", "heis:3"],
    ["fixcount", "--p", "3", "--poly=1+3*x+3*y^-1", "--quotient", "5", "--no-crosscheck"],
    ["fixcount", "--p", "3", "--poly=1+3*x+3*y^-1", "--quotient", "3"],  # 9 x 9: Bareiss
]


@pytest.mark.parametrize(
    "dense",
    [
        ["detlog", "--p", "3", "--prec", "6", "--poly=1+3*x"],
        ["fixcount", "--p", "3", "--poly=1+3*x+3*y^-1", "--quotient", "8"],  # 64 x 64: CRT
    ],
    ids=["dense-detlog", "crosscheck-fixcount"],
)
def test_numpy_loaded_only_by_the_dense_routes(dense):
    jobs = [*_NUMPY_FREE_JOBS, dense]
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_SPY, json.dumps(jobs)],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [False] * len(jobs) + [True]


# The baseline is taken in the same interpreter, after site has run, so that
# what a .pth hook loads does not count.
_START_UP_SPY = """
import contextlib, io, json, sys
before = set(sys.modules)
from padic_entropy import cli
watched = {"dataclasses", "inspect", "padic_entropy.selftest"}
seen = [sorted(watched & (set(sys.modules) - before))]
for argv in (["mahler", "--p", "2", "--prec", "8", "--poly", "t-4"], ["selftest", "--seed", "3"]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0, argv
    seen.append(sorted(watched & (set(sys.modules) - before)))
print(json.dumps(seen))
"""


def test_start_up_loads_neither_dataclasses_nor_the_selftest_battery():
    proc = subprocess.run(
        [sys.executable, "-c", _START_UP_SPY], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    after_import, after_mahler, after_selftest = json.loads(proc.stdout)
    assert after_import == after_mahler == []
    assert "padic_entropy.selftest" in after_selftest  # the spy sees a module load


_HEIS16_TRACE_LOG = """
import json, sys, time
from padic_entropy import HeisenbergQuotient, parse_poly, reduce_to_quotient, tr_log_one_unit
start = time.perf_counter()
f = reduce_to_quotient(parse_poly("1+3*x+3*y+3*x^-1*y^-1"), HeisenbergQuotient(16))
value = tr_log_one_unit(f, 3, 6)
print(json.dumps([str(value), time.perf_counter() - start, "numpy" in sys.modules]))
"""


def test_finite_trace_log_on_heis16_builds_no_table():
    # the group law is arithmetic: neither a 4096 x 4096 table nor numpy is needed
    proc = subprocess.run(
        [sys.executable, "-c", _HEIS16_TRACE_LOG], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    value, seconds, numpy_loaded = json.loads(proc.stdout)
    assert not numpy_loaded
    assert seconds < 2.0
    assert value == "1*3^3 + O(3^6)"


@pytest.mark.parametrize(
    "poly, family, size",
    [
        ("1+3*x", "1..100000000", 4097),
        ("1+3*x", "odd:1..100000000", 4097),
        ("1+3*x+3*y", "heis:1..100000000", 4913),
        ("1+3*x+3*y^-1", "100..200", 10000),
    ],
)
def test_family_past_the_size_cap_refused_at_once(poly, family, size):
    # a subprocess with a timeout: the unbounded ranges once ran for minutes
    proc = _cli(["entropy", "--p", "3", "--poly", poly, "--family", family], timeout=30)
    assert proc.returncode == 1
    assert proc.stdout == f"error[DOMAIN_MISMATCH]: rho matrix of size {size} exceeds cap 4096\n"


@pytest.mark.parametrize(
    "p, poly",
    [
        ("3", "1+3*x+3*y+3*z+3*x^-1+3*y^-1+3*z^-1+3*x*y*z"),
        ("2", "1+2*x+2*y+2*z+2*x^-1+2*y^-1+2*z^-1+2*x*y*z"),
    ],
    ids=["d3-cross-xyz", "p2-d3-cross-xyz"],
)
def test_series_past_the_cell_cap_refused_at_once(p, poly):
    # both routes refuse these: the exponent box holds more than 10^8 cells,
    # and the relation cone leaves 4 free coordinates
    proc = _cli(["detlog", "--p", p, "--prec", "256", f"--poly={poly}"], timeout=30)
    assert proc.returncode == 1
    assert proc.stdout.startswith("error[DOMAIN_MISMATCH]: trace-log series over ")
    assert proc.stdout.endswith(" cells exceeds cap 20000000\n")


def test_series_on_a_ray_of_relations_answered_at_once():
    # the exponent boxes exceed the cell cap, but the relation cones are one
    # ray (cap + 1 lattice candidates) and {0} (one candidate)
    for p, prec in ((3, 256), (2, 128)):
        simplex = f"1+{p}*x+{p}*y+{p}*z+{p}*x^-1*y^-1*z^-1"
        argv = ["detlog", "--p", str(p), "--prec", str(prec), f"--poly={simplex}", "--output", "json"]
        proc = _cli(argv, timeout=30)
        assert proc.returncode == 0, proc.stdout
        value = Padic.from_json(json.loads(proc.stdout)["value"])
        assert int(value.abs_prec) == prec
        assert value.lift() % p**prec == helpers.simplex_log_oracle([p] * 4, p, prec)
    for p, prec, poly in ((3, 8, "1+3*x^1000000"), (2, 256, "1+2*x+2*y+2*z")):
        proc = _cli(["detlog", "--p", str(p), "--prec", str(prec), f"--poly={poly}"], timeout=30)
        assert (proc.returncode, proc.stdout) == (0, f"log-determinant (scalar unit route): O({p}^{prec})\n")


@pytest.mark.parametrize("degree", ["10000000", "100000000"])
def test_mahler_past_the_degree_cap_refused_at_once(degree):
    # both ran past a 20 s timeout building a dense list before the cap
    proc = _cli(["mahler", "--p", "3", "--prec", "8", f"--poly=1+3*t^{degree}"], timeout=30)
    assert proc.returncode == 1
    assert proc.stdout == f"error[DOMAIN_MISMATCH]: degree span {degree} exceeds cap 1024\n"


_COMMANDS = ["unit-check", "fixcount", "entropy", "mahler", "detlog", "bogus"]
_POLYS = [
    "--poly=1+3*x", "--poly=1+3*x+3*y^-1", "--poly=2*t^2-t+2", "--poly=t-4",
    "--poly=[[1+3*t, 3],[0, 1]]", "--poly=1+x", "--poly=x+", "--poly=0", "--poly=",
    "--poly-file=/nonexistent", "--poly=1+3*t^100000000", "--poly=1+3*t²", "--poly=١+3*t",
]
_OPTIONS = {
    "--p": ["2", "3", "5", "4", "0", "-1", "x", "318665857834031151167461", str(2**61 - 1)],
    "--prec": ["1", "6", "0", "300", "x"],
    "--family": ["1..4", "odd:1..5", "heis:2..3", "1..100000000", "7..3", "1,x", "2"],
    "--quotient": ["3", "heis:2", "2,3", "heis:x", "0"],
    "--tail": ["2", "1", "x"],
    "--target": ["1", "4", "0", "-5", "x"],
    "--output": ["json", "csv", "xml"],
}
_COMMAND_OPTIONS = {
    "fixcount": ["--quotient"],
    "entropy": ["--family", "--tail", "--target"],
}


# tokens put before the command: options the top-level parser does not take,
# "--", stray positionals and command names (which leave the drawn command a
# stray token)
_LEADING = ["--", "--poly", "--poly=t-4", "--output", "json", "-1", "mahler", "selftest"]


@st.composite
def _argv(draw):
    """A command, usually --p and a polynomial, then option-value pairs
    (mostly ones the command takes) and now and then a stray token; now and
    then a token comes before the command."""
    argv = [] if draw(st.integers(0, 7)) else [draw(st.sampled_from(_LEADING))]
    command = draw(st.sampled_from(_COMMANDS))
    argv.append(command)
    if draw(st.integers(0, 4)):
        argv += ["--p", draw(st.sampled_from(_OPTIONS["--p"]))]
    if draw(st.integers(0, 4)):
        argv.append(draw(st.sampled_from(_POLYS)))
    own = ["--prec", "--output", *_COMMAND_OPTIONS.get(command, [])]
    for _ in range(draw(st.integers(0, 3))):
        if draw(st.integers(0, 7)):
            opt = draw(st.sampled_from(own if draw(st.integers(0, 4)) else sorted(_OPTIONS)))
            argv += [opt, draw(st.sampled_from(_OPTIONS[opt]))]
        else:
            argv.append(draw(st.sampled_from(sorted(_OPTIONS) + _OPTIONS["--family"])))
    return argv


@settings(max_examples=150, deadline=2000, derandomize=True)
@given(_argv())
def test_argv_fuzz_ends_in_a_coded_exit(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = main(argv)
    assert status in (0, 1, 2)
    if status:
        text = out.getvalue() + err.getvalue()
        assert "error[" in text or '"code": "' in text  # table or json
    if _assert_parsers_agree(argv)[0] == "usage":  # refused before the program runs
        assert status == 1 and err.getvalue().startswith("error[USAGE]: padic-entropy")
