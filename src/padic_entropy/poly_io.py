"""Canonical text form for Laurent data, and its parser.

Grammar (whitespace insignificant):

    poly   := term (('+'|'-') term)*
    term   := int ('*'? mono)? | mono
    mono   := var ('^' signed-int)? ('*'? mono)?
    matrix := '[' '[' poly (',' poly)* ']' (',' '[' ... ']')* ']'

Variables are t1..t9; t and x alias t1, y aliases t2, z aliases t3, so
one-variable input reads naturally ("2*t^2-t+2") and so do the group
generators x, y, z used for Heisenberg words.  An integer literal, and the
sum of one variable's exponents in a monomial, has at most 4300 digits.  The
canonical printer sorts terms by descending exponent and round-trips through
the parser bit-exactly.
"""

from __future__ import annotations

from ._util import int_to_str, str_to_int
from .errors import DimensionInconsistent, PolySyntaxError
from .groupring import LaurentPoly, RingMatrix

_ALIASES = {"t": 0, "x": 0, "y": 1, "z": 2}
MAX_VARS = 9
# ASCII only: str.isdigit() also holds for superscripts, which int() rejects,
# and for other scripts' digits, which int() reads as 0-9.
_DIGITS = "0123456789"
# The interpreter's default limit on int <-> str conversion; a longer literal,
# or a monomial whose exponents add up past it, is refused, whatever the
# limit is set to.
MAX_LITERAL_DIGITS = 4300
_LITERAL_BITS = 14284  # 2**14284 < 10**4300: a shorter int has fewer digits


def _tokenize(text: str):
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _DIGITS:
            j = i
            while j < n and text[j] in _DIGITS:
                j += 1
            if j - i > MAX_LITERAL_DIGITS:
                raise PolySyntaxError(
                    f"integer literal of {j - i} digits exceeds {MAX_LITERAL_DIGITS}", i
                )
            tokens.append(("int", str_to_int(text[i:j]), i))
            i = j
            continue
        if ch in "txyz":
            if ch == "t" and i + 1 < n and text[i + 1] in _DIGITS:
                idx = int(text[i + 1])
                if not 1 <= idx <= MAX_VARS:
                    raise PolySyntaxError(f"variable t{idx} out of range", i)
                tokens.append(("var", idx - 1, i))
                i += 2
            else:
                tokens.append(("var", _ALIASES[ch], i))
                i += 1
            continue
        if ch in "+-*^[],":
            tokens.append((ch, ch, i))
            i += 1
            continue
        raise PolySyntaxError(f"unexpected character {ch!r}", i)
    tokens.append(("end", None, n))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def take(self, kind=None):
        tok = self.tokens[self.pos]
        if kind is not None and tok[0] != kind:
            raise PolySyntaxError(f"expected {kind}, found {tok[0]}", tok[2])
        self.pos += 1
        return tok

    def parse_signed_int(self) -> int:
        sign = 1
        if self.peek()[0] in "+-":
            sign = -1 if self.take()[0] == "-" else 1
        return sign * self.take("int")[1]

    def parse_mono(self) -> dict[int, int]:
        exps: dict[int, int] = {}
        while self.peek()[0] == "var":
            _, axis, at = self.take()
            e = 1
            if self.peek()[0] == "^":
                self.take()
                e = self.parse_signed_int()
            e += exps.get(axis, 0)
            if e.bit_length() > _LITERAL_BITS and abs(e) >= 10**MAX_LITERAL_DIGITS:
                raise PolySyntaxError(f"exponent of more than {MAX_LITERAL_DIGITS} digits", at)
            exps[axis] = e
            # optional '*' between factors ("x*y" as well as "xy")
            if self.peek()[0] == "*" and self.tokens[self.pos + 1][0] == "var":
                self.take()
        return exps

    def parse_term(self):
        coeff = 1
        exps: dict[int, int] = {}
        if self.peek()[0] == "int":
            coeff = self.take()[1]
            if self.peek()[0] == "*":
                self.take()
                exps = self.parse_mono()
                if not exps:
                    raise PolySyntaxError("dangling '*'", self.peek()[2])
            elif self.peek()[0] == "var":
                exps = self.parse_mono()
        elif self.peek()[0] == "var":
            exps = self.parse_mono()
        else:
            tok = self.peek()
            raise PolySyntaxError(f"expected a term, found {tok[0]}", tok[2])
        return coeff, exps

    def parse_poly_terms(self):
        terms = []
        sign = 1
        if self.peek()[0] in "+-":
            sign = -1 if self.take()[0] == "-" else 1
        coeff, exps = self.parse_term()
        terms.append((sign * coeff, exps))
        while self.peek()[0] in "+-":
            sign = -1 if self.take()[0] == "-" else 1
            coeff, exps = self.parse_term()
            terms.append((sign * coeff, exps))
        return terms

    def parse_matrix_rows(self):
        self.take("[")
        rows = []
        while True:
            self.take("[")
            row = [self.parse_poly_terms()]
            while self.peek()[0] == ",":
                self.take()
                row.append(self.parse_poly_terms())
            self.take("]")
            rows.append(row)
            if self.peek()[0] == ",":
                self.take()
                continue
            break
        self.take("]")
        return rows


def _terms_dim(list_of_terms) -> int:
    d = 1
    for _, exps in list_of_terms:
        for axis in exps:
            d = max(d, axis + 1)
    return d


def _build(list_of_terms, d: int) -> LaurentPoly:
    acc: dict[tuple, int] = {}
    for coeff, exps in list_of_terms:
        for axis in exps:
            if axis >= d:
                raise DimensionInconsistent(
                    f"variable t{axis + 1} does not fit in {d} dimension(s)"
                )
        e = tuple(exps.get(a, 0) for a in range(d))
        acc[e] = acc.get(e, 0) + coeff
    return LaurentPoly(d, acc)


def parse_poly(text: str, d: int | None = None):
    """Parse the canonical text form; returns LaurentPoly or RingMatrix.

    The dimension is the largest variable index used (at least 1) unless d is
    given, in which case using a variable beyond it raises
    DimensionInconsistent.
    """
    parser = _Parser(text)
    if parser.peek()[0] == "[":
        rows = parser.parse_matrix_rows()
        parser.take("end")
        r = len(rows)
        if any(len(row) != r for row in rows):
            raise DimensionInconsistent("matrix rows have unequal lengths")
        dim = d
        if dim is None:
            dim = max(_terms_dim(entry) for row in rows for entry in row)
        return RingMatrix(
            [[_build(entry, dim) for entry in row] for row in rows]
        )
    terms = parser.parse_poly_terms()
    parser.take("end")
    return _build(terms, d if d is not None else _terms_dim(terms))


def _var_names(d: int) -> list[str]:
    if d == 1:
        return ["t"]
    if d == 2:
        return ["x", "y"]
    if d == 3:
        return ["x", "y", "z"]
    if d <= MAX_VARS:
        return [f"t{i + 1}" for i in range(d)]
    raise ValueError(f"canonical text form covers at most {MAX_VARS} variables")


def _mono_str(exp, names) -> str:
    parts = []
    for e, name in zip(exp, names):
        if e == 0:
            continue
        parts.append(name if e == 1 else f"{name}^{int_to_str(e)}")
    return "".join(parts)


def print_poly(f) -> str:
    """Canonical printer; integer coefficients only (inverse of parse_poly)."""
    if isinstance(f, RingMatrix):
        rows = []
        for row in f.entries:
            rows.append("[" + ", ".join(print_poly(e) for e in row) + "]")
        return "[" + ", ".join(rows) + "]"
    if not isinstance(f, LaurentPoly):
        raise TypeError("printer takes LaurentPoly or RingMatrix")
    names = _var_names(f.d)
    if f.is_zero():
        return "0"
    chunks = []
    for exp in sorted(f.terms, reverse=True):
        c = f.terms[exp]
        if not isinstance(c, int):
            raise ValueError("canonical text form needs integer coefficients")
        mono = _mono_str(exp, names)
        mag = abs(c)
        if not mono:
            body = int_to_str(mag)
        elif mag == 1:
            body = mono
        else:
            body = f"{int_to_str(mag)}*{mono}"
        if not chunks:
            chunks.append(body if c > 0 else f"-{body}")
        else:
            chunks.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(chunks)
