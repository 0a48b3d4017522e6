"""Text format for constant-coefficient operators.

Grammar (whitespace is free, ``#`` starts a comment to end of line)::

    operator := ('+' | '-')? term (('+' | '-') term)*
    term     := factor ('*' factor)*
    factor   := matrix | deriv | snum | '(' centry ')'
    deriv    := 'D' var ('^' power)?         var in {t, x, y, z}, any case
    power    := [0-9]+                       a positive integer, at most MAX_POWER
    matrix   := '[' row (',' row)* ']'
    row      := '[' centry (',' centry)* ']'
    centry   := snum (('+' | '-') snum)?     a complex literal, e.g. 1+2i
    snum     := ('+' | '-')? (number | 'i' | 'j')
    number   := ([0-9]+ '.'? [0-9]* | '.' [0-9]+) ([eE] [+-]? [0-9]+)? [ij]?

Examples::

    Dt - Dx^2
    [[1,0],[0,1]]*Dt + [[0,1],[0,0]]*Dt*Dx^1
    (1+2i)*Dx*Dy - 3i

Only ASCII digits and letters are read.  Any other text, a power such as
``2.5`` or ``1e3``, a variable whose powers in one term add up to more than
``MAX_POWER``, a malformed number such as ``1..2``, matrices that cannot
multiply and terms of different shapes are a :class:`DslError` at the line
and column of the offending token or term.

Derivative slot 0 is always ``t``; ``x``, ``y``, ``z`` are slots 1..3.
``format_operator`` and ``parse_operator`` round-trip exactly: coefficients
are printed with full precision (``repr`` of the float parts).
"""

from __future__ import annotations

import re

import numpy as np

from .opcore import MAX_POWER, ConstCoeffOperator, midx_order

__all__ = ["parse_operator", "format_operator", "DslError", "VAR_NAMES", "MAX_POWER"]

VAR_NAMES = ("t", "x", "y", "z")


class DslError(ValueError):
    """Parse error carrying 1-based line and column of the offending token."""

    def __init__(self, message, line, col):
        super().__init__(f"{message} (line {line}, column {col})")
        self.line = line
        self.col = col


# -- tokenizer -------------------------------------------------------------

_TOKEN = re.compile(
    r"(?P<skip>(?:[ \t\r\n]|\#[^\n]*)+)"
    r"|(?P<number>(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?[ij]?)"
    r"|(?P<name>[A-Za-z][A-Za-z0-9]*)"
    r"|(?P<punct>[-+*^\[\](),])"
    r"|(?P<bad>.)",
    re.S,
)


def _where(text, pos):
    """1-based ``(line, column)`` of offset ``pos`` in ``text``."""
    return text.count("\n", 0, pos) + 1, pos - text.rfind("\n", 0, pos)


def _tokenize(text):
    """``(kind, text, offset)`` tokens, closed by an ``end`` token."""
    tokens = []
    for m in _TOKEN.finditer(text):
        if m.lastgroup == "bad":
            raise DslError(f"unexpected character {m.group()!r}", *_where(text, m.start()))
        if m.lastgroup != "skip":
            tokens.append((m.lastgroup, m.group(), m.start()))
    tokens.append(("end", "", len(text)))
    return tokens


# -- parser ----------------------------------------------------------------


class _Parser:
    def __init__(self, text):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        self.pos += 1
        return self.tokens[self.pos - 1]

    def error(self, message, tok=None):
        raise DslError(message, *_where(self.text, (tok or self.peek())[2]))

    def accept(self, *puncts):
        """Take the next token if it is one of ``puncts``; return it or None."""
        kind, value, _ = self.peek()
        if kind == "punct" and value in puncts:
            self.pos += 1
            return value
        return None

    def expect(self, value):
        if not self.accept(value):
            self.error(f"expected {value!r}")

    # scalar pieces

    def parse_snum(self, sign=None):
        """A signed real or imaginary literal; ``sign`` is one already taken."""
        sign = -1.0 if (sign or self.accept("+", "-")) == "-" else 1.0
        tok = self.next()
        if tok[0] == "name" and tok[1] in ("i", "j"):
            return complex(0.0, sign)
        if tok[0] != "number":
            self.error("expected a number", tok)
        if tok[1][-1] in "ij":
            return complex(0.0, sign * float(tok[1][:-1]))
        return complex(sign * float(tok[1]), 0.0)

    def parse_centry(self):
        val = self.parse_snum()
        sign = self.accept("+", "-")
        return val + self.parse_snum(sign) if sign else val

    def parse_list(self, item):
        """``item (',' item)* ']'``, the opening ``'['`` already taken."""
        items = [item()]
        while self.accept(","):
            items.append(item())
        self.expect("]")
        return items

    def parse_row(self):
        self.expect("[")
        return self.parse_list(self.parse_centry)

    def parse_term(self):
        """Returns (offset, coeff, matrix or None, exponents dict slot->power)."""
        start = self.peek()[2]
        coeff, matrix, exps = complex(1.0), None, {}
        while True:
            kind, value, _ = tok = self.peek()
            if self.accept("["):
                rows = self.parse_list(self.parse_row)
                if len({len(r) for r in rows}) != 1:
                    self.error("matrix rows have unequal lengths")
                mat = np.array(rows, dtype=complex)
                if matrix is not None and matrix.shape[1] != mat.shape[0]:
                    self.error(f"matrices of shapes {matrix.shape} and {mat.shape} cannot multiply", tok)
                matrix = mat if matrix is None else matrix @ mat
            elif self.accept("("):
                coeff *= self.parse_centry()
                self.expect(")")
            elif kind == "name" and len(value) >= 2 and value[0] == "D":
                self.pos += 1
                var = value[1:].lower()
                if var not in VAR_NAMES:
                    self.error(f"unknown derivative variable {var!r}", tok)
                power = 1
                if self.accept("^"):
                    ptok = self.next()
                    digits = ptok[1].lstrip("0") if ptok[0] == "number" and ptok[1].isdigit() else ""
                    if not digits:
                        self.error(f"a derivative power must be a positive integer, got {ptok[1]!r}", ptok)
                    # a long digit string is refused before int() reads it
                    if len(digits) > len(str(MAX_POWER)) or int(digits) > MAX_POWER:
                        shown = ptok[1] if len(ptok[1]) <= 24 else ptok[1][:20] + "..."
                        self.error(f"a derivative power must be at most {MAX_POWER}, got '{shown}'", ptok)
                    power = int(digits)
                slot = VAR_NAMES.index(var)
                exps[slot] = exps.get(slot, 0) + power
                if exps[slot] > MAX_POWER:
                    self.error(f"the powers of {value} in a term add up to {exps[slot]} > {MAX_POWER}", tok)
            elif kind == "number" or (kind == "name" and value in ("i", "j")):
                coeff *= self.parse_snum()
            else:
                self.error("expected a factor (matrix, number, or derivative)")
            if not self.accept("*"):
                return start, coeff, matrix, exps

    def parse_operator(self):
        parts = []
        sign = self.accept("+", "-")
        while True:
            start, coeff, matrix, exps = self.parse_term()
            parts.append((start, (-1.0 if sign == "-" else 1.0) * coeff, matrix, exps))
            sign = self.accept("+", "-")
            if not sign:
                break
        tok = self.peek()
        if tok[0] != "end":
            self.error(f"unexpected trailing input {tok[1]!r}")
        return parts


def parse_operator(text, nvars=None):
    """Parse the DSL into a :class:`ConstCoeffOperator`.

    ``nvars`` is inferred as ``1 + highest spatial slot used`` (at least 2)
    unless given explicitly.  A shape or slot error names the first token of
    the term it is found in.
    """
    parts = _Parser(text).parse_operator()
    shape = next((matrix.shape for _, _, matrix, _ in parts if matrix is not None), (1, 1))
    if nvars is None:
        nvars = 1 + max([1, *(slot for *_, exps in parts for slot in exps)])
    for start, _, matrix, exps in parts:
        if matrix is not None and matrix.shape != shape:
            message = f"inconsistent matrix shapes {shape} and {matrix.shape}"
        elif matrix is None and shape[0] != shape[1]:
            message = f"a term without a matrix needs a square operator, not {shape[0]}x{shape[1]}"
        elif exps and max(exps) >= nvars:
            message = f"operator uses variable slot {max(exps)} but nvars={nvars}"
        else:
            continue
        raise DslError(message, *_where(text, start))

    eye = np.eye(*shape)
    pieces = (
        (tuple(exps.get(slot, 0) for slot in range(nvars)), coeff * (eye if matrix is None else matrix))
        for _, coeff, matrix, exps in parts
    )
    return ConstCoeffOperator(nvars, shape, pieces)


# -- printing ----------------------------------------------------------------


def _format_float(x):
    if x == int(x) and abs(x) < 1e15:
        return str(int(x))
    return repr(x)


def format_complex(z):
    z = complex(z)
    real, im = z.real, z.imag
    if im == 0:
        return _format_float(real)
    if real == 0:
        if im == 1:
            return "i"
        if im == -1:
            return "-i"
        return _format_float(im) + "i"
    sgn = "+" if im > 0 else "-"
    istr = "i" if abs(im) == 1 else _format_float(abs(im)) + "i"
    return f"{_format_float(real)}{sgn}{istr}"


def _format_matrix(mat):
    rows = ",".join("[" + ",".join(format_complex(v) for v in row) + "]" for row in mat)
    return "[" + rows + "]"


def _format_deriv(alpha):
    parts = []
    for slot, e in enumerate(alpha):
        if e == 0:
            continue
        name = "D" + VAR_NAMES[slot]
        parts.append(name if e == 1 else f"{name}^{e}")
    return "*".join(parts)


def format_operator(L):
    """Render an operator in the DSL; ``parse_operator`` recovers it exactly."""
    if L.nvars > len(VAR_NAMES):
        raise ValueError(f"DSL supports at most {len(VAR_NAMES)} variables")
    if not L.terms:
        return "0" if L.shape == (1, 1) else _format_matrix(np.zeros(L.shape))
    chunks = []
    scalar = L.shape == (1, 1)
    for alpha in sorted(L.terms, key=lambda a: (midx_order(a), a)):
        mat = L.terms[alpha]
        deriv = _format_deriv(alpha)
        if scalar:
            c = format_complex(mat[0, 0])
            if deriv:
                piece = deriv if c == "1" else ("-" + deriv if c == "-1" else f"{c}*{deriv}")
                if "+" in c[1:] or "-" in c[1:]:
                    piece = f"({c})*{deriv}"
            else:
                piece = c
        else:
            piece = _format_matrix(mat) + (f"*{deriv}" if deriv else "")
        chunks.append(piece)
    out = chunks[0]
    for piece in chunks[1:]:
        if piece.startswith("-") and not piece.startswith("-["):
            out += " - " + piece[1:]
        else:
            out += " + " + piece
    return out
