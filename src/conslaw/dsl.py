"""Text format for constant-coefficient operators.

Grammar (whitespace is free, ``#`` starts a comment to end of line)::

    operator := term (('+' | '-') term)*
    term     := factor ('*' factor)*
    factor   := matrix | deriv | scalar | '(' centry ')'
    deriv    := 'D' var ('^' uint)?          var in {t, x, y, z}
    matrix   := '[' row (',' row)* ']'
    row      := '[' centry (',' centry)* ']'
    centry   := snum (('+' | '-') snum)?     a complex literal, e.g. 1+2i
    snum     := ('+' | '-')? (number 'i'? | 'i')

Examples::

    Dt - Dx^2
    [[1,0],[0,1]]*Dt + [[0,1],[0,0]]*Dt*Dx^1
    (1+2i)*Dx*Dy - 3i

Derivative slot 0 is always ``t``; ``x``, ``y``, ``z`` are slots 1..3.
``format_operator`` and ``parse_operator`` round-trip exactly: coefficients
are printed with full precision (``repr`` of the float parts).
"""

from __future__ import annotations

import numpy as np

from .opcore import ConstCoeffOperator, midx_order

__all__ = ["parse_operator", "format_operator", "DslError", "VAR_NAMES"]

VAR_NAMES = ("t", "x", "y", "z")


class DslError(ValueError):
    """Parse error carrying 1-based line and column of the offending token."""

    def __init__(self, message, line, col):
        super().__init__(f"{message} (line {line}, column {col})")
        self.line = line
        self.col = col


# -- tokenizer -------------------------------------------------------------

_PUNCT = set("+-*^[](),")


def _tokenize(text):
    tokens = []  # (kind, value, line, col)
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if c == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if c in _PUNCT:
            tokens.append(("punct", c, line, col))
            i += 1
            col += 1
            continue
        if c.isdigit() or c == ".":
            j = i
            seen_e = False
            while j < n:
                cj = text[j]
                if cj.isdigit() or cj == ".":
                    j += 1
                elif cj in "eE" and not seen_e and j + 1 < n and (text[j + 1].isdigit() or text[j + 1] in "+-"):
                    seen_e = True
                    j += 2 if text[j + 1] in "+-" else 1
                else:
                    break
            num = text[i:j]
            imag = False
            if j < n and text[j] in "ij":
                imag = True
                j += 1
            tokens.append(("number", (num, imag), line, col))
            col += j - i
            i = j
            continue
        if c.isalpha():
            j = i
            while j < n and text[j].isalnum():
                j += 1
            tokens.append(("name", text[i:j], line, col))
            col += j - i
            i = j
            continue
        raise DslError(f"unexpected character {c!r}", line, col)
    tokens.append(("end", "", line, col))
    return tokens


# -- parser ----------------------------------------------------------------


class _Parser:
    def __init__(self, text):
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def error(self, message, tok=None):
        tok = tok or self.peek()
        raise DslError(message, tok[2], tok[3])

    def expect(self, value):
        tok = self.next()
        if tok[0] != "punct" or tok[1] != value:
            self.error(f"expected {value!r}", tok)

    # scalar pieces

    def parse_snum(self):
        sign = 1.0
        tok = self.peek()
        if tok[0] == "punct" and tok[1] in "+-":
            self.next()
            if tok[1] == "-":
                sign = -1.0
            tok = self.peek()
        if tok[0] == "name" and tok[1] in ("i", "j"):
            self.next()
            return complex(0.0, sign)
        if tok[0] != "number":
            self.error("expected a number")
        self.next()
        num, imag = tok[1]
        val = float(num)
        return complex(0.0, sign * val) if imag else complex(sign * val, 0.0)

    def parse_centry(self):
        val = self.parse_snum()
        tok = self.peek()
        if tok[0] == "punct" and tok[1] in "+-":
            val = val + self.parse_snum()
        return val

    def parse_matrix(self):
        self.expect("[")
        rows = []
        while True:
            self.expect("[")
            row = [self.parse_centry()]
            while self.peek()[:2] == ("punct", ","):
                self.next()
                row.append(self.parse_centry())
            self.expect("]")
            rows.append(row)
            if self.peek()[:2] == ("punct", ","):
                self.next()
                continue
            break
        self.expect("]")
        if len({len(r) for r in rows}) != 1:
            self.error("matrix rows have unequal lengths")
        return np.array(rows, dtype=complex)

    def parse_deriv(self, tok):
        name = tok[1]
        var = name[1:].lower()
        if var not in VAR_NAMES:
            self.error(f"unknown derivative variable {var!r}", tok)
        power = 1
        if self.peek()[:2] == ("punct", "^"):
            self.next()
            ptok = self.next()
            if ptok[0] != "number" or ptok[1][1]:
                self.error("expected an integer power", ptok)
            power = int(float(ptok[1][0]))
            if power < 1:
                self.error("derivative power must be >= 1", ptok)
        return VAR_NAMES.index(var), power

    def parse_factor(self, state):
        coeff, matrix, exps = state
        tok = self.peek()
        if tok[0] == "punct" and tok[1] == "[":
            mat = self.parse_matrix()
            matrix = mat if matrix is None else matrix @ mat
        elif tok[0] == "punct" and tok[1] == "(":
            self.next()
            coeff *= self.parse_centry()
            self.expect(")")
        elif tok[0] == "name" and len(tok[1]) >= 2 and tok[1][0] == "D":
            self.next()
            slot, power = self.parse_deriv(tok)
            exps[slot] = exps.get(slot, 0) + power
        elif tok[0] == "name" and tok[1] in ("i", "j"):
            coeff *= self.parse_snum()
        elif tok[0] == "number":
            coeff *= self.parse_snum()
        else:
            self.error("expected a factor (matrix, number, or derivative)")
        return coeff, matrix, exps

    def parse_term(self):
        """Returns (coeff, matrix or None, exponents dict slot->power)."""
        state = (complex(1.0), None, {})
        state = self.parse_factor(state)
        while self.peek()[:2] == ("punct", "*"):
            self.next()
            state = self.parse_factor(state)
        return state

    def parse_operator(self):
        parts = []
        while True:
            sign = 1.0
            tok = self.peek()
            if tok[0] == "punct" and tok[1] in "+-":
                self.next()
                sign = -1.0 if tok[1] == "-" else 1.0
            coeff, matrix, exps = self.parse_term()
            parts.append((sign * coeff, matrix, exps))
            tok = self.peek()
            if tok[0] == "punct" and tok[1] in "+-":
                continue
            break
        tok = self.peek()
        if tok[0] != "end":
            self.error(f"unexpected trailing input {tok[1]!r}")
        return parts


def parse_operator(text, nvars=None):
    """Parse the DSL into a :class:`ConstCoeffOperator`.

    ``nvars`` is inferred as ``1 + highest spatial slot used`` (at least 2)
    unless given explicitly.
    """
    parts = _Parser(text).parse_operator()

    max_slot = 1
    shapes = set()
    for _, matrix, exps in parts:
        if exps:
            max_slot = max(max_slot, max(exps))
        if matrix is not None:
            shapes.add(matrix.shape)
    if len(shapes) > 1:
        raise DslError(f"inconsistent matrix shapes {sorted(shapes)}", 1, 1)
    shape = shapes.pop() if shapes else (1, 1)
    if nvars is None:
        nvars = max_slot + 1
    elif max_slot + 1 > nvars:
        raise DslError(f"operator uses variable slot {max_slot} but nvars={nvars}", 1, 1)

    eye = np.eye(*shape)
    pieces = (
        (tuple(exps.get(slot, 0) for slot in range(nvars)), coeff * (eye if matrix is None else matrix))
        for coeff, matrix, exps in parts
    )
    return ConstCoeffOperator(nvars, shape, pieces)


# -- printing ----------------------------------------------------------------


def _format_float(x):
    if x == int(x) and abs(x) < 1e15:
        return str(int(x))
    return repr(x)


def format_complex(z):
    z = complex(z)
    re, im = z.real, z.imag
    if im == 0:
        return _format_float(re)
    if re == 0:
        if im == 1:
            return "i"
        if im == -1:
            return "-i"
        return _format_float(im) + "i"
    sgn = "+" if im > 0 else "-"
    istr = "i" if abs(im) == 1 else _format_float(abs(im)) + "i"
    return f"{_format_float(re)}{sgn}{istr}"


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
