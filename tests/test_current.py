import numpy as np
import pytest

from conslaw.adjoint import adjoint_factorization, semi_conjugacy_solve, transpose_adjoint
from conslaw.catalog import (
    build_symmetry,
    dirac_operator,
    heat_operator,
    kdvkdv_operator,
    wave_operator,
)
from conslaw import current
from conslaw.current import (
    adjoint_characteristic,
    bilinear_concomitant_terms,
    concomitant_flux,
    evaluate_terms,
)
from conslaw.fields import kernel_probes, plane_wave
from conslaw.gamma import dirac_representation
from conslaw.symmetry import MatrixFactor, PointReflect, SymmetryOp

from analytic_oracle import apply_symmetry_analytic, verify_symmetry
from test_opcore import random_operator


def test_wave_flux_components():
    box = wave_operator(1)
    flux = concomitant_flux(box)
    zero, one = (0, 0), (1, 0)
    assert flux.components[0] == {(zero, 0, one, 0): 1.0, (one, 0, zero, 0): -1.0}
    x_zero, x_one = (0, 0), (0, 1)
    assert flux.components[1] == {(x_zero, 0, x_one, 0): -1.0, (x_one, 0, x_zero, 0): 1.0}


def test_heat_flux_density_is_product():
    flux = concomitant_flux(heat_operator(1))
    assert flux.components[0] == {((0, 0), 0, (0, 0), 0): 1.0}
    # spatial component carries the first-derivative pair with opposite signs
    assert flux.components[1] == {
        ((0, 0), 0, (0, 1), 0): -1.0,
        ((0, 1), 0, (0, 0), 0): 1.0,
    }


def test_dirac_flux_is_gamma_sandwich():
    rep = dirac_representation()
    L = dirac_operator(1.0, rep)
    flux = concomitant_flux(L)
    zero = (0, 0, 0, 0)
    for mu in range(4):
        comp = flux.components[mu]
        mat = np.zeros((4, 4), dtype=complex)
        for (beta, i, gamma, j), c in comp.items():
            assert beta == zero and gamma == zero
            mat[i, j] = c
        want = 1j * rep.gamma0 if mu == 0 else -1j * rep.gamma(mu)
        assert np.array_equal(mat, want)


def test_divergence_identity_exact_for_catalog_operators():
    from conslaw.catalog import navier_stokes_operator

    candidates = (
        wave_operator(2),
        heat_operator(2),
        kdvkdv_operator(),
        dirac_operator(1.0),
        navier_stokes_operator(0.3),
    )
    for L in candidates:
        assert concomitant_flux(L).divergence_defect(L) == 0.0


def test_divergence_identity_random_operators_symbolic_and_numeric():
    rng = np.random.default_rng(12)
    for _ in range(12):
        m = int(rng.integers(1, 4))
        L = random_operator(rng, nvars=2, m=m, nterms=4, max_order=3)
        if L.is_zero():
            continue
        flux = concomitant_flux(L)
        assert flux.divergence_defect(L) == 0.0
        # numeric spot check on random exponential fields
        q = plane_wave(2, rng.standard_normal(m) + 1j * rng.standard_normal(m), 0.3 + 0.2j, (1.7,))
        p = plane_wave(2, rng.standard_normal(m) + 1j * rng.standard_normal(m), -0.1 + 0.5j, (-0.9,))
        pts = rng.standard_normal((8, 1))
        t = 0.37
        div = None
        for v, comp in enumerate(flux.components):
            ev = tuple(1 if d == v else 0 for d in range(2))
            for (beta, i, gamma, j), c in comp.items():
                up = tuple(b + e for b, e in zip(beta, ev))
                gp = tuple(g + e for g, e in zip(gamma, ev))
                val = c * (
                    q.diff_multi(up).evaluate(t, pts)[i] * p.diff_multi(gamma).evaluate(t, pts)[j]
                    + q.diff_multi(beta).evaluate(t, pts)[i] * p.diff_multi(gp).evaluate(t, pts)[j]
                )
                div = val if div is None else div + val
        lp = p.apply_operator(L)
        ltq = q.apply_operator(transpose_adjoint(L))
        direct = None
        for i in range(m):
            val = q.evaluate(t, pts)[i] * lp.evaluate(t, pts)[i] - p.evaluate(t, pts)[i] * ltq.evaluate(t, pts)[i]
            direct = val if direct is None else direct + val
        scale = max(np.max(np.abs(div)), np.max(np.abs(direct)), 1.0)
        assert np.max(np.abs(div - direct)) <= 1e-10 * scale


def test_antisymmetry_under_adjoint_swap():
    rng = np.random.default_rng(13)
    for _ in range(10):
        L = random_operator(rng, nvars=2, m=2, nterms=3, max_order=3)
        target = bilinear_concomitant_terms(transpose_adjoint(L))
        swapped = {
            (gamma, j, beta, i): -c
            for (beta, i, gamma, j), c in bilinear_concomitant_terms(L).items()
        }
        assert set(target) == set(swapped)
        for key in target:
            assert target[key] == swapped[key]


def test_dirac_identity_characteristic_is_gamma0():
    rep = dirac_representation()
    L = dirac_operator(1.0, rep)
    fact = adjoint_factorization(L, semi_conjugacy_solve(L))
    char = adjoint_characteristic(L, fact, build_symmetry("identity"))
    assert char.char_map and len(char.factors) == 1
    assert isinstance(char.factors[0], MatrixFactor)
    matrix = char.factors[0].matrix
    ratio = matrix[0, 0]
    assert np.allclose(matrix, ratio * rep.gamma0, atol=1e-12)
    report = verify_symmetry(L, char, kspace_list=[(1.0, 0.0, 0.0), (0.0, 1.0, 2.0)], s=0.0)
    assert report.passed and report.target == "adjoint", report.residual


def test_kdvkdv_characteristics_annihilated_by_adjoint():
    L = kdvkdv_operator()
    fact = adjoint_factorization(L, semi_conjugacy_solve(L))
    for name in ("kdvkdv.shift_u", "kdvkdv.shift_linear_a", "kdvkdv.Gamma_s", "kdvkdv.swap"):
        char = adjoint_characteristic(L, fact, build_symmetry(name))
        report = verify_symmetry(L, char, kspace_list=[(1.0,), (2.0,)], s=1.0)
        assert report.passed and report.target == "adjoint", (name, report.residual)


def test_characteristic_is_a_char_map_chain():
    # Q = A1 . R[G u]: the pair's matrix acts last, a kernel shift first
    L = kdvkdv_operator()
    fact = adjoint_factorization(L, semi_conjugacy_solve(L))
    shift = build_symmetry("kdvkdv.shift_u")
    char = adjoint_characteristic(L, fact, shift)
    assert isinstance(char, SymmetryOp) and char.char_map
    assert isinstance(char.factors[0], MatrixFactor)
    assert np.array_equal(char.factors[0].matrix, fact.A1)
    assert char.factors[-1] is shift
    reflections = [f for f in char.factors if isinstance(f, PointReflect)]
    assert len(reflections) == int(any(fact.parity_mask))


def test_heat_s_reflection_characteristic():
    L = heat_operator(1)
    fact = adjoint_factorization(L, semi_conjugacy_solve(L))
    gen = build_symmetry("heat.s_reflection(s=1.0)")
    char = adjoint_characteristic(L, fact, gen)
    assert char is gen  # a characteristic map builds Q itself
    report = verify_symmetry(L, char, kspace_list=[(1.0,), (3.0,)], s=1.0)
    assert report.passed and report.target == "adjoint", report.residual
    # the factorization route with the spatial reflection gives the same Q
    char2 = adjoint_characteristic(L, fact, build_symmetry("heat.space_reflection"))
    mu, k, v = kernel_probes(L, [(2.0,)])
    u = plane_wave(L.nvars, v[0], mu[0], k[0])
    q1 = apply_symmetry_analytic(char, u, s=1.0)
    q2 = apply_symmetry_analytic(char2, u, s=1.0)
    pts = np.linspace(-1, 1, 7).reshape(-1, 1)
    assert np.allclose(q1.evaluate(0.3, pts), q2.evaluate(0.3, pts), atol=1e-12)


def test_flux_requires_square_operator():
    from conslaw.opcore import zero_operator

    with pytest.raises(ValueError):
        concomitant_flux(zero_operator(2, (2, 3)))


def _evaluate_whole(groups, jet_q, jet_p, weight):
    # the contraction over whole (k, n) arrays, one group at a time
    pieces = {}
    for (w, src, gamma), B in groups.items():
        x, conj, order = jet_q(src)
        if order is not None:
            x = x[:, order]
        p = jet_p(gamma)
        v = np.matmul(B, p.reshape(len(p), -1))
        if not conj:
            np.conj(v, out=v)
        np.multiply(x, v, out=v)
        piece = v.sum(axis=0)
        if not conj:
            np.conj(piece, out=piece)
        if w in pieces:
            pieces[w] += piece
        else:
            pieces[w] = piece
    out = None
    for w, piece in pieces.items():
        if w:
            piece *= weight(w)
        out = piece if out is None else out + piece
    return out


# a grid has a power of two of at least 4 points per axis, so n is 4 or a
# multiple of 8
@pytest.mark.parametrize("n", [4, 8, 128, 4096])
def test_evaluate_terms_gives_the_same_bits_for_any_chunk(monkeypatch, n):
    # each row, one sample time, has the bits of a whole-array pass over that row alone
    rng = np.random.default_rng(n)
    for rows in (1, 3):

        def cplx(*shape):
            return rng.standard_normal((rows,) + shape) + 1j * rng.standard_normal((rows,) + shape)

        m = 3
        # "b" is read in a permuted order of its points, as a reflected source is
        sources = {
            "a": (cplx(2, n), True, None),
            "b": (cplx(2, n), False, rng.permutation(n)),
            "c": (cplx(5, n), False, None),
        }
        jets = {(0,): cplx(m, n), (1,): cplx(m, n)}
        weights = {"x": rng.standard_normal(n), "y": rng.standard_normal(n)}
        groups = {
            ("x", "a", (0,)): cplx(2, m),  # conjugated source, weighted
            ((), "b", (1,)): cplx(2, m),  # plain source, unweighted
            ("x", "c", (1,)): cplx(5, m),  # shares the weight "x"; k = 5 != m
            ("y", "b", (0,)): cplx(2, m),
            ((), "a", (1,)): cplx(2, m),
        }
        args = (groups, sources.__getitem__, jets.__getitem__, weights.__getitem__)
        want = [
            _evaluate_whole(
                {key: B[r] for key, B in groups.items()},
                lambda src: (sources[src][0][r], *sources[src][1:]),
                lambda gamma: jets[gamma][r],
                weights.__getitem__,
            )
            for r in range(rows)
        ]
        for chunk in (7, n, n + 5):
            monkeypatch.setattr(current, "CHUNK", chunk)
            got = evaluate_terms(*args)
            assert got.shape == (rows, n)
            assert all(np.array_equal(got[r], want[r]) for r in range(rows)), (rows, chunk)
            # a (k, m) matrix shared by every row, beside stacks, gives the bits of its stack
            mixed = {key: B if i % 2 else B[0] for i, (key, B) in enumerate(groups.items())}
            stacked = {key: B if B.ndim == 3 else np.repeat(B[None], rows, axis=0) for key, B in mixed.items()}
            assert np.array_equal(evaluate_terms(mixed, *args[1:]), evaluate_terms(stacked, *args[1:])), (rows, chunk)
        assert evaluate_terms({}, *args[1:]) is None
