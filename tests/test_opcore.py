import importlib
import pkgutil

import numpy as np
import pytest

import conslaw
from conslaw import dsl
from conslaw.catalog import dirac_operator, kdvkdv_operator, wave_operator
from conslaw.current import concomitant_flux
from conslaw.dsl import _Parser, parse_operator
from conslaw.gamma import dirac_representation
from conslaw.opcore import (
    MAX_POWER,
    ConstCoeffOperator,
    identity_operator,
    op_add,
    op_commutator,
    op_compose,
    zero_operator,
)


def random_operator(rng, nvars=2, m=2, nterms=3, max_order=2):
    terms = {}
    for _ in range(nterms):
        alpha = tuple(int(x) for x in rng.integers(0, max_order + 1, size=nvars))
        mat = rng.integers(-3, 4, size=(m, m)) + 1j * rng.integers(-3, 4, size=(m, m))
        terms[alpha] = terms.get(alpha, 0) + mat
    return ConstCoeffOperator(nvars, (m, m), terms)


def test_additive_inverse_cancels():
    Dt = parse_operator("Dt")
    assert (Dt + (-Dt)).is_zero()


def test_disjoint_terms_concatenate():
    L = parse_operator("Dt") + parse_operator("Dx^3 + Dx")
    assert L == parse_operator("Dt + Dx^3 + Dx")


def test_kdvkdv_matrix_assembly():
    eye = np.eye(2)
    swap = [[0, 1], [1, 0]]
    pieces = [
        ConstCoeffOperator(2, (2, 2), {(1, 0): eye}),
        ConstCoeffOperator(2, (2, 2), {(0, 3): swap}),
        ConstCoeffOperator(2, (2, 2), {(0, 1): swap}),
    ]
    assembled = pieces[0]
    for p in pieces[1:]:
        assembled = op_add(assembled, p)
    printed = parse_operator("[[1,0],[0,1]]*Dt + [[0,1],[1,0]]*Dx^3 + [[0,1],[1,0]]*Dx")
    assert assembled == printed
    assert assembled == kdvkdv_operator()


def test_compose_exponents_add():
    Dx = parse_operator("Dx")
    assert op_compose(Dx, Dx) == parse_operator("Dx^2")


def test_symbol_is_an_algebra_homomorphism():
    rng = np.random.default_rng(0)
    for _ in range(20):
        L1 = random_operator(rng)
        L2 = random_operator(rng)
        k = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        lhs = op_compose(L1, L2).symbol(k)
        rhs = L1.symbol(k) @ L2.symbol(k)
        assert np.allclose(lhs, rhs, rtol=1e-12, atol=1e-12)
        assert np.allclose((L1 + L2).symbol(k), L1.symbol(k) + L2.symbol(k), rtol=1e-12)


def test_dirac_square_is_wave_plus_mass():
    m = 1.0
    rep = dirac_representation()
    minus = dirac_operator(m, rep)  # i dslash - m
    plus = minus + ConstCoeffOperator(4, (4, 4), {(0, 0, 0, 0): 2 * m * np.eye(4)})
    square = op_compose(minus, plus)
    # oracle: expand with the anticommutation relations; dslash^2 = box with
    # box = Dt^2 - Dx^2 - Dy^2 - Dz^2 in the (+,-,-,-) signature
    eye = np.eye(4)
    box_plus_m2 = ConstCoeffOperator(
        4,
        (4, 4),
        {
            (2, 0, 0, 0): eye,
            (0, 2, 0, 0): -eye,
            (0, 0, 2, 0): -eye,
            (0, 0, 0, 2): -eye,
            (0, 0, 0, 0): m * m * eye,
        },
    )
    assert square == -1.0 * box_plus_m2


def test_commutator_trivial_cases():
    rng = np.random.default_rng(1)
    L = random_operator(rng)
    eye = identity_operator(2, 2)
    assert op_commutator(L, eye).is_zero()
    Dt = parse_operator("Dt", nvars=2)
    Dx = parse_operator("Dx")
    assert op_commutator(Dt, Dx).is_zero()
    # a scalar operator times the identity commutes with any constant matrix
    box = wave_operator(1)
    box2 = ConstCoeffOperator(2, (2, 2), {a: m[0, 0] * np.eye(2) for a, m in box.terms.items()})
    M = ConstCoeffOperator(2, (2, 2), {(0, 0): [[1, 2], [3, 4]]})
    assert op_commutator(box2, M).is_zero()


def test_symbol_heat_and_dirac():
    heat = parse_operator("Dt - Dx^2")
    w, k = 0.7, 1.3
    assert np.allclose(heat.symbol([w, k]), 1j * w + k * k)
    rep = dirac_representation()
    L = dirac_operator(2.5, rep)
    assert np.allclose(L.symbol([0, 0, 0, 0]), -2.5 * np.eye(4))
    kvec = np.array([0.3, -1.2, 0.8, 0.1])
    want = (
        1j * rep.gamma0 * (1j * kvec[0])
        - sum(1j * rep.gamma(i) * (1j * kvec[i]) for i in range(1, 4))
        - 2.5 * np.eye(4)
    )
    assert np.allclose(L.symbol(kvec), want, atol=1e-14)


def _scalar_symbol(L, k):
    """The symbol at one wavevector as a loop of Python-complex products (the reference)."""
    ik = 1j * np.asarray(k, dtype=complex)
    out = np.zeros(L.shape, dtype=complex)
    for alpha, mat in L.terms.items():
        factor = 1.0 + 0j
        for e, z in zip(alpha, ik):
            if e:
                factor *= z**e
        out += factor * mat
    return out


def _hex(a):
    return [(z.real.hex(), z.imag.hex()) for z in np.ravel(a)]


def _symbol_cases():
    from conslaw.catalog import named_operators
    from test_pipeline_random import _random_dispersive_system

    ops = [factory() for factory in named_operators().values()]
    ops += [wave_operator(3), dirac_operator(0.0)]
    ops += [random_operator(np.random.default_rng(seed), nvars=3, max_order=3) for seed in range(4)]
    ops += [_random_dispersive_system(np.random.default_rng(200 + seed), 3)[0] for seed in range(4)]
    return ops


def test_symbol_of_a_stack_equals_the_rows():
    # on real wavevectors, as every caller passes them (also as complex
    # arrays, negated, and with signed zeros), every row of a stacked symbol
    # has the bits of the one-wavevector call and of the scalar reference
    for L in _symbol_cases():
        rng = np.random.default_rng(L.nvars)
        real = rng.standard_normal((12, L.nvars))
        real[0] = 0.0
        real[1] = -0.0
        for ks in (real, real.astype(complex), -real.astype(complex)):
            stack = L.symbol(ks)
            assert stack.shape == (len(ks),) + L.shape
            for k, row in zip(ks, stack):
                assert _hex(row) == _hex(L.symbol(k)) == _hex(_scalar_symbol(L, k)), L
        # numpy's vectorised complex multiply may round a genuinely complex
        # product's last bit differently from the one-element loop
        cplx = real - 1j * rng.standard_normal(real.shape)
        assert np.allclose(L.symbol(cplx), [L.symbol(k) for k in cplx], rtol=1e-14, atol=0)


def test_composition_associative_on_random_triples():
    rng = np.random.default_rng(2)
    for _ in range(10):
        A, B, C = (random_operator(rng) for _ in range(3))
        assert op_compose(op_compose(A, B), C) == op_compose(A, op_compose(B, C))


def test_canonicalization_and_equality():
    rng = np.random.default_rng(3)
    L = random_operator(rng)
    assert L + zero_operator(2, (2, 2)) == L
    # representation independence: split a term into two halves
    alpha, mat = next(iter(L.terms.items()))
    split = dict(L.terms)
    split[alpha] = 0.5 * mat
    rebuilt = ConstCoeffOperator(2, (2, 2), split) + ConstCoeffOperator(
        2, (2, 2), {alpha: 0.5 * mat}
    )
    assert rebuilt == L


def test_shape_errors():
    L = zero_operator(2, (2, 2))
    M = zero_operator(2, (3, 3))
    with pytest.raises(ValueError):
        op_add(L, M)
    with pytest.raises(ValueError):
        op_compose(L, M)
    with pytest.raises(ValueError):
        op_commutator(zero_operator(2, (2, 3)), zero_operator(2, (2, 3)))
    with pytest.raises(ValueError):
        ConstCoeffOperator(2, (2, 2), {(0, -1): np.eye(2)})
    with pytest.raises(ValueError):
        L.symbol([1.0])


def test_derivative_order_is_bounded_by_max_power():
    assert dsl.MAX_POWER == MAX_POWER == 64
    assert ConstCoeffOperator(2, (1, 1), {(0, 64): [[1]]}).terms
    with pytest.raises(ValueError, match=r"multi-index \(0, 65\) has a slot outside 0..64"):
        ConstCoeffOperator(2, (1, 1), {(0, 65): [[1]]})
    # refused by the constructor, before the flux would peel 1e20 derivatives
    with pytest.raises(ValueError, match=r"multi-index \(0, 100000000000000000000\)"):
        concomitant_flux(ConstCoeffOperator(2, (1, 1), {(1, 0): [[1]], (0, 10**20): [[1]]}))
    L = ConstCoeffOperator(2, (1, 1), {(1, 0): [[1]], (0, 40): [[1]]})
    with pytest.raises(ValueError, match=r"multi-index \(0, 80\) has a slot outside 0..64"):
        op_compose(L, L)


@pytest.mark.parametrize("slot", [1.5, 0.999, float("nan"), float("inf")])
def test_non_integral_multi_index_slots_are_refused(slot):
    # a fraction used to be truncated by int(): (0, 1.5) became the key (0, 1)
    with pytest.raises(ValueError, match=r"multi-index \(0, \S+\) has a slot that is not an integer"):
        ConstCoeffOperator(2, (1, 1), {(0, slot): [[1]], (1, 0): [[1]]})


def test_integral_float_multi_index_slots_read_as_ints():
    L = ConstCoeffOperator(2, (1, 1), {(0, 1.0): [[1]], (np.int64(1), np.float64(0.0)): [[1]]})
    assert list(L.terms) == [(0, 1), (1, 0)]
    assert all(type(a) is int for alpha in L.terms for a in alpha)
    assert L == ConstCoeffOperator(2, (1, 1), {(0, 1): [[1]], (1, 0): [[1]]})


def test_operator_immutability():
    L = identity_operator(2, 2)
    with pytest.raises(AttributeError):
        L.shape = (3, 3)
    with pytest.raises(ValueError):
        L.terms[(0, 0)][0, 0] = 5.0


# -- the one summation rule --------------------------------------------------


def _presummed(pieces):
    """Reference accumulator: the pieces summed into a dict in order, each key
    where its first piece put it, then the zero totals dropped."""
    terms = {}
    for alpha, mat in pieces:
        terms[alpha] = terms[alpha] + mat if alpha in terms else mat
    return {a: np.asarray(m, dtype=complex) for a, m in terms.items() if np.asarray(m).any()}


def _same_terms(L, terms):
    return list(L.terms) == list(terms) and all(L.terms[a].tobytes() == m.tobytes() for a, m in terms.items())


def test_sums_and_products_match_the_reference_accumulator():
    rng = np.random.default_rng(5)
    pairs = [(random_operator(rng, nterms=4), random_operator(rng, nterms=4)) for _ in range(20)]
    L = random_operator(rng)
    pairs.append((L, -L))
    # (Dt + 1)(Dt - 1): the two Dt products cancel; (N Dt + 1)(Dt - N): the
    # first Dt product N @ -N is zero, and the key keeps its place
    eye, nil = np.eye(2), np.array([[0.0, 1.0], [0.0, 0.0]])
    def first_order(lead, const):
        return ConstCoeffOperator(2, (2, 2), {(1, 0): lead, (0, 0): const})

    pairs.append((first_order(eye, eye), first_order(eye, -eye)))
    pairs.append((first_order(nil, eye), first_order(eye, -nil)))
    for L1, L2 in pairs:
        assert _same_terms(op_add(L1, L2), _presummed([*L1.terms.items(), *L2.terms.items()]))
        products = [
            (tuple(a + b for a, b in zip(a1, a2)), m1 @ m2)
            for a1, m1 in L1.terms.items()
            for a2, m2 in L2.terms.items()
        ]
        assert _same_terms(op_compose(L1, L2), _presummed(products))
    assert not (pairs[-3][0] + pairs[-3][1]).terms
    assert list(op_compose(*pairs[-2]).terms) == [(2, 0), (0, 0)]
    assert list(op_compose(*pairs[-1]).terms) == [(2, 0), (1, 0), (0, 0)]


@pytest.mark.parametrize(
    "text",
    [
        "Dt - Dx^2 + 2*Dx^2 - Dt + 3*Dt",
        "Dx - Dx + Dt",
        "[[1,2],[3,4]]*Dx + Dt - [[1,2],[3,4]]*Dx + 0.5*Dx",
        "1e-3*Dy + Dx*Dy - 1e-3*Dy",
    ],
)
def test_parsed_terms_match_the_reference_accumulator(text):
    L = parse_operator(text)
    shape = next(iter(L.terms.values())).shape
    pieces = [
        (tuple(exps.get(slot, 0) for slot in range(L.nvars)), coeff * (np.eye(*shape) if matrix is None else matrix))
        for _start, coeff, matrix, exps in _Parser(text).parse_operator()
    ]
    assert _same_terms(L, _presummed(pieces))


def test_pieces_with_a_repeated_key_are_summed_in_order():
    pieces = [((0, 1), [[1.0]]), ((1, 0), [[2.0]]), ((0, 1), [[-1.0]]), ((0, 1), [[0.25]])]
    pieces.append(((1, 0), [[0.5]]))
    L = ConstCoeffOperator(2, (1, 1), pieces)
    assert list(L.terms) == [(0, 1), (1, 0)]  # (0, 1) cancels on the way and keeps its first place
    assert L.terms[(0, 1)][0, 0] == 0.25 and L.terms[(1, 0)][0, 0] == 2.5
    # in order: 1e16 + 1 rounds to 1e16, so the 1 is lost; the other order keeps it
    def summed(*values):
        return ConstCoeffOperator(2, (1, 1), [((0, 1), [[v]]) for v in values]).terms

    assert not summed(1e16, 1.0, -1e16)
    assert summed(1e16, -1e16, 1.0)[(0, 1)][0, 0] == 1.0
    # a dict is its items, and a zero total is dropped
    assert ConstCoeffOperator(2, (1, 1), dict(pieces[:2])) == ConstCoeffOperator(2, (1, 1), pieces[:2])
    assert not summed(1.0, -1.0)


@pytest.mark.parametrize(
    "build",
    [
        lambda: ConstCoeffOperator(2, (1, 1), {(0, 1): [[np.inf]]}),
        lambda: ConstCoeffOperator(2, (1, 1), [((1, 0), [[1.0]]), ((0, 1), [[np.nan]])]),
        lambda: parse_operator("Dt - 1e400*Dx^2"),
        lambda: parse_operator("1e308*Dx + 1e308*Dx + Dt"),
        # a scalar product that overflows is refused, not warned about
        lambda: 1e308 * parse_operator("Dt + 10*Dx"),
        lambda: parse_operator("Dt + 10*Dx") * 1e308,
    ],
)
def test_non_finite_coefficients_are_refused_by_multi_index(build):
    with pytest.raises(ValueError, match=r"term \(0, [12]\) has a non-finite coefficient"):
        build()


@pytest.mark.parametrize(
    "module", ["conslaw"] + [f"conslaw.{info.name}" for info in pkgutil.iter_modules(conslaw.__path__)]
)
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    assert [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)] == []
