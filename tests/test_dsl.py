import re
from pathlib import Path

import numpy as np
import pytest

from conslaw.dsl import DslError, format_operator, parse_operator
from conslaw.opcore import ConstCoeffOperator


def test_spec_examples_parse():
    L = parse_operator("[[1,0],[0,1]] * Dt + [[0,1],[0,0]] * Dt*Dx^1")
    assert L.shape == (2, 2)
    assert L.terms[(1, 1)][0, 1] == 1.0
    assert parse_operator("Dt - Dx^2").terms[(0, 2)][0, 0] == -1.0


def test_roundtrip_simple():
    for text in [
        "Dt - Dx^2",
        "-Dt + 2*Dx",
        "i*Dt",
        "(1+2i)*Dx*Dy - 3i",
        "[[0,1],[1,0]]*Dx^3 + [[1,0],[0,1]]*Dt",
        "2.5*Dx^2 - 0.125",
    ]:
        L = parse_operator(text)
        assert parse_operator(format_operator(L)) == L


def test_roundtrip_random_operators():
    rng = np.random.default_rng(7)
    for _ in range(40):
        nvars = int(rng.integers(2, 5))
        m = int(rng.integers(1, 4))
        terms = {}
        for _ in range(4):
            alpha = tuple(int(x) for x in rng.integers(0, 3, size=nvars))
            mat = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
            terms[alpha] = mat
        L = ConstCoeffOperator(nvars, (m, m), terms)
        assert parse_operator(format_operator(L), nvars=nvars) == L


def test_roundtrip_full_precision_floats():
    L = ConstCoeffOperator(2, (1, 1), {(0, 1): [[0.1 + 0.2j]], (2, 0): [[1e-17]]})
    assert parse_operator(format_operator(L)) == L


def test_parse_error_carries_line_and_column():
    with pytest.raises(DslError) as err:
        parse_operator("Dt +\n  Dq^2")
    assert err.value.line == 2
    assert err.value.col == 3
    with pytest.raises(DslError, match="line 1"):
        parse_operator("[[1,0],[0]]*Dt")
    with pytest.raises(DslError):
        parse_operator("Dt + ")
    with pytest.raises(DslError):
        parse_operator("Dt Dt")
    with pytest.raises(DslError):
        parse_operator("Dx^0")


def test_comments_and_whitespace():
    L = parse_operator("Dt  # time part\n - Dx^2  # diffusion")
    assert L == parse_operator("Dt - Dx^2")


def test_nvars_inference_and_override():
    L = parse_operator("Dt - Dz^2")
    assert L.nvars == 4
    L = parse_operator("Dt", nvars=4)
    assert L.nvars == 4
    with pytest.raises(DslError):
        parse_operator("Dz", nvars=2)
    with pytest.raises(DslError, match=r"slot 3 but nvars=2 \(line 2, column 4\)"):
        parse_operator("Dt\n + Dz", nvars=2)


@pytest.mark.parametrize(
    "text, line, col, message",
    [
        ("Dt - Dx^2.5", 1, 9, "positive integer, got '2.5'"),
        ("Dt - Dx^2.0", 1, 9, "positive integer, got '2.0'"),
        ("Dt - Dx^1e400", 1, 9, "positive integer, got '1e400'"),
        ("Dt # comment\n - Dx^1e1", 2, 7, "positive integer, got '1e1'"),
        ("Dt - Dx^-2", 1, 9, "positive integer, got '-'"),
        (".", 1, 1, "unexpected character '.'"),
        ("1..2", 1, 3, "unexpected trailing input '.2'"),
        ("Dt - .*Dx", 1, 6, "unexpected character '.'"),
        ("1e+x", 1, 2, "unexpected trailing input 'e'"),
        ("Dt - ٣*Dx", 1, 6, "unexpected character '٣'"),
        ("Dt - 2 3*Dx", 1, 8, "unexpected trailing input '3'"),
        ("Dt + # c", 1, 9, "expected a factor"),
        ("Dt +\t# c\r\n", 2, 1, "expected a factor"),
        ("Dt - Dx^65", 1, 9, "at most 64, got '65'"),
        ("Dt - Dx^100000000000000000000", 1, 9, "at most 64, got '100000000000000000000'"),
        ("Dt - Dx^" + "9" * 4400, 1, 9, "at most 64, got '99999999999999999999...'"),
        ("Dt - Dx^40*Dt*Dx^40", 1, 15, "powers of Dx in a term add up to 80 > 64"),
        ("[[1,2]]*[[1,2]]*Dt", 1, 9, "matrices of shapes (1, 2) and (1, 2) cannot multiply"),
        ("[[1,2]]*Dt + Dx", 1, 14, "a term without a matrix needs a square operator, not 1x2"),
        ("Dt -\n  [[1,0],[0,1]]*Dx + [[1]]*Dt", 2, 22, "inconsistent matrix shapes (2, 2) and (1, 1)"),
    ],
)
def test_refusals_carry_line_and_column(text, line, col, message):
    with pytest.raises(DslError) as err:
        parse_operator(text)
    assert (err.value.line, err.value.col) == (line, col)
    assert message in str(err.value)


@pytest.mark.parametrize(
    "text, terms",
    [
        (".5*Dx", {(0, 1): 0.5}),
        ("2.*Dx", {(0, 1): 2.0}),
        ("1E+3*Dt", {(1, 0): 1000.0}),
        ("3i*Dx", {(0, 1): 3j}),
        ("-i*Dt", {(1, 0): -1j}),
        ("(1-2i)*Dx", {(0, 1): 1 - 2j}),
        ("Dt\t-\tDx^2", {(1, 0): 1.0, (0, 2): -1.0}),
        ("Dt\r\n - Dx^2\r\n", {(1, 0): 1.0, (0, 2): -1.0}),
        ("Dt # c\n - Dx^2 # d", {(1, 0): 1.0, (0, 2): -1.0}),
        ("1e-3j*Dx + .5e2", {(0, 1): 0.001j, (0, 0): 50.0}),
        ("DT - 2*DX^007", {(1, 0): 1.0, (0, 7): -2.0}),
        ("(+2-.5j)*Dx*Dt*Dx", {(1, 2): 2 - 0.5j}),
        ("Dt + Dx^0032*Dx^32", {(1, 0): 1.0, (0, 64): 1.0}),
    ],
)
def test_tricky_literals(text, terms):
    L = parse_operator(text)
    assert (L.nvars, L.shape) == (2, (1, 1))
    assert [(a, complex(m[0, 0])) for a, m in L.terms.items()] == list(terms.items())


def _readme_dsl_examples():
    """The backquoted bullets of README's "Operator DSL" section, by list."""
    section = Path(__file__).resolve().parents[1].joinpath("README.md").read_text()
    section = section.split("\n## Operator DSL\n", 1)[1].split("\n## ", 1)[0]
    lists, label = {}, None
    for line in section.splitlines():
        bullet = re.fullmatch(r"- `([^`]+)`.*", line)
        if bullet:
            lists.setdefault(label, []).append(bullet.group(1))
        elif line.strip():
            label = line.split()[0].strip(":,")
    return lists


def test_readme_dsl_examples():
    lists = _readme_dsl_examples()
    assert sorted(lists) == ["Examples", "Refused"]
    for text in lists["Examples"]:
        L = parse_operator(text)
        assert parse_operator(format_operator(L), nvars=L.nvars) == L
    for text in lists["Refused"]:
        with pytest.raises(DslError):
            parse_operator(text)
