import numpy as np
import pytest

from conslaw import adjoint
from conslaw.adjoint import (
    _MAX_SAMPLES,
    _RESIDUAL_TOL,
    ConjugacyPair,
    SemiConjugacyNotFound,
    _joint_nullspace,
    _kron,
    _pair_residual,
    _symbol_identity_residual,
    adjoint_factorization,
    classify_adjointness,
    clifford_conjugators,
    formal_adjoint,
    semi_conjugacy_solve,
    transpose_adjoint,
)
from conslaw.catalog import (
    dirac_operator,
    heat_operator,
    jordan_block_operator,
    kdvkdv_operator,
    navier_stokes_operator,
    wave_operator,
)
from conslaw.catalog import named_operators
from conslaw.dsl import parse_operator
from conslaw.gamma import PAULI, dirac_representation
from conslaw.opcore import ConstCoeffOperator, midx_order, op_compose

from test_opcore import random_operator


def test_wave_self_adjoint():
    box = wave_operator(3)
    assert formal_adjoint(box) == box
    assert classify_adjointness(box) == "self_adjoint"


def test_kdvkdv_skew_adjoint():
    L = kdvkdv_operator()
    assert formal_adjoint(L) == -1.0 * L
    assert classify_adjointness(L) == "skew_adjoint"


def test_heat_neither():
    assert classify_adjointness(heat_operator(1)) == "neither"


def test_jordan_example_printed_adjoint():
    L = jordan_block_operator()
    expected = parse_operator(
        "[[-1,0],[0,-1]]*Dt + [[0,0],[1,0]]*Dt*Dx + [[-1,0],[0,-1]]*Dx^3"
    )
    assert formal_adjoint(L) == expected


def test_involution_and_antihomomorphism():
    rng = np.random.default_rng(4)
    for _ in range(50):
        L = random_operator(rng, nvars=2, m=2)
        assert formal_adjoint(formal_adjoint(L)) == L
        M = random_operator(rng, nvars=2, m=2)
        assert formal_adjoint(op_compose(L, M)) == op_compose(
            formal_adjoint(M), formal_adjoint(L)
        )
        assert transpose_adjoint(transpose_adjoint(L)) == L


def test_dirac_pair_is_gamma0():
    rep = dirac_representation()
    L = dirac_operator(1.0, rep)
    pair = semi_conjugacy_solve(L)
    assert pair.sign_absorbed
    assert pair.residual <= 1e-12
    # proportional to gamma0 with one common nonzero scalar
    ratio = pair.A1[0, 0]
    assert abs(ratio) > 1e-8
    assert np.allclose(pair.A1, ratio * rep.gamma0, atol=1e-12)
    assert np.allclose(pair.A2, ratio * rep.gamma0, atol=1e-12)


def test_ns_identity_pair():
    L = navier_stokes_operator(0.7)
    # oracle: every printed coefficient matrix is real-symmetric
    for mat in L.terms.values():
        assert np.array_equal(mat, mat.conj().T)
    pair = semi_conjugacy_solve(L)
    assert not pair.sign_absorbed
    assert np.array_equal(pair.A1, np.eye(4))
    assert np.array_equal(pair.A2, np.eye(4))


def test_jordan_swap_pair_validates():
    L = jordan_block_operator()
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert _pair_residual(L, swap, swap, sign_absorbed=False) <= 1e-14


def test_commuting_family_from_shared_jordan_basis():
    rng = np.random.default_rng(9)
    m = 3
    for trial in range(10):
        # polynomials in one nilpotent-plus-diagonal matrix all commute
        J = np.diag(rng.integers(-2, 3, size=m).astype(float)) + np.diag(
            np.ones(m - 1), 1
        )
        S = np.eye(m) + 0.3 * rng.standard_normal((m, m))
        ops = {}
        for order in range(3):
            c = rng.standard_normal(m)
            P = sum(ci * np.linalg.matrix_power(J, i) for i, ci in enumerate(c))
            alpha = (1, 0) if order == 0 else (0, order)
            ops[alpha] = S @ P @ np.linalg.inv(S)
        L = ConstCoeffOperator(2, (m, m), ops)
        pair = semi_conjugacy_solve(L, seed=trial)
        assert pair.residual <= 1e-10


def test_not_found_is_reproducible():
    L = ConstCoeffOperator(
        2, (2, 2), {(1, 0): [[1, 0], [0, 0]], (0, 1): [[0, 1], [0, 0]]}
    )
    # the joint system forces a singular first row in A1 (checked by hand)
    with pytest.raises(SemiConjugacyNotFound):
        semi_conjugacy_solve(L, seed=0)
    with pytest.raises(SemiConjugacyNotFound):
        semi_conjugacy_solve(L, seed=0)


def test_clifford_conjugators_dirac():
    rep = dirac_representation()
    A1, A2 = clifford_conjugators(rep.gammas)
    assert np.array_equal(A1, rep.gamma0)
    assert np.array_equal(A2, rep.gamma0)


def test_clifford_conjugators_pauli_pair():
    g0, g1 = PAULI[2], 1j * PAULI[0]
    A1, A2 = clifford_conjugators([g0, g1])
    assert np.array_equal(A1, PAULI[2])
    # oracle: direct conjugation check
    for g in (g0, g1):
        assert np.allclose(g.conj().T, A2 @ g @ np.linalg.inv(A1))


def test_clifford_conjugators_single_hermitian_generator():
    g = PAULI[0]
    A1, A2 = clifford_conjugators([g])
    assert np.array_equal(A1, g)


def test_clifford_conjugators_rejects_bad_input():
    with pytest.raises(ValueError):
        clifford_conjugators([PAULI[0], PAULI[0]])  # duplicate: relations fail
    with pytest.raises(ValueError):
        clifford_conjugators([2.0 * PAULI[2]])  # not unitary


def test_factorization_symbol_identity():
    for L in (dirac_operator(1.0), heat_operator(1), wave_operator(2), kdvkdv_operator()):
        pair = semi_conjugacy_solve(L)
        fact = adjoint_factorization(L, pair)
        assert fact.symbol_residual <= 1e-10


def _per_wavevector_residual(L, pair):
    """The symbol-identity residual as a loop over the 50 seeded wavevectors (the reference)."""
    Ls = formal_adjoint(L)
    rng = np.random.default_rng(7)
    A1inv = np.linalg.inv(pair.A1)
    worst = 0.0
    for _ in range(50):
        k = rng.standard_normal(L.nvars)
        sig = k.astype(complex)
        if any(pair.parity_mask):
            sig = sig.copy()
            for slot, flip in enumerate(pair.parity_mask):
                if flip:
                    sig[slot] = -sig[slot]
        lhs = Ls.symbol(k)
        rhs = pair.A2 @ L.symbol(sig) @ A1inv
        scale = max(np.linalg.norm(lhs), np.linalg.norm(rhs), 1e-300)
        worst = max(worst, np.linalg.norm(lhs - rhs) / scale)
    return worst


def test_symbol_identity_residual_matches_the_per_wavevector_loop():
    # the solved pair of every catalog operator (heat and ns reflect every
    # variable), and pairs with a full and a partial mask whose residual is
    # not zero
    cases = []
    for L in (
        heat_operator(1), heat_operator(2, nu=0.5), wave_operator(1), wave_operator(3), kdvkdv_operator(),
        navier_stokes_operator(), dirac_operator(1.0), dirac_operator(0.0), jordan_block_operator(),
    ):
        for seed in (0, 1):
            cases.append((L, semi_conjugacy_solve(L, seed=seed)))
    L = dirac_operator(1.0)
    pair = semi_conjugacy_solve(L)
    wrong = ConjugacyPair(pair.A1, pair.A2, (True, False, True, False))
    cases += [(L, ConjugacyPair(pair.A1, pair.A2, (True,) * 4)), (L, wrong)]
    # 40 random operators with random pairs: residuals of order one, real and
    # complex symbols, one to four variables, one to three components
    rng = np.random.default_rng(11)
    for i in range(40):
        nvars, m = 1 + i % 4, 1 + i % 3
        R = random_operator(rng, nvars=nvars, m=m, nterms=3)
        if i % 5 == 0:
            R = ConstCoeffOperator(nvars, (m, m), {a: mat.real for a, mat in R.terms.items()})
        A1, A2 = (rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)) for _ in range(2))
        cases.append((R, ConjugacyPair(A1, A2, tuple(bool(b) for b in rng.integers(0, 2, nvars)))))
    assert any(any(pair.parity_mask) for _L, pair in cases)
    for L, pair in cases:
        got, want = _symbol_identity_residual(L, pair), _per_wavevector_residual(L, pair)
        assert got.hex() == want.hex(), (L, pair.parity_mask)
    assert _symbol_identity_residual(dirac_operator(1.0), wrong) > 1.0  # a wrong mask is measured, not refused


def test_dirac_factorization_has_no_reflection():
    L = dirac_operator(1.0)
    fact = adjoint_factorization(L, semi_conjugacy_solve(L))
    assert not any(fact.parity_mask)


def test_heat_factorization_reflects_all_variables():
    L = heat_operator(1)
    pair = semi_conjugacy_solve(L)
    assert not pair.sign_absorbed
    assert all(pair.parity_mask)
    fact = adjoint_factorization(L, pair)
    # L* = R L R with A = 1: check on symbols directly
    rng = np.random.default_rng(6)
    Ls = formal_adjoint(L)
    for _ in range(20):
        k = rng.standard_normal(2)
        assert np.allclose(Ls.symbol(k), L.symbol(-k))


def test_wave_identity_factorization():
    L = wave_operator(1)
    pair = semi_conjugacy_solve(L)
    assert pair.sign_absorbed
    assert np.array_equal(pair.A1, np.eye(1))


def test_factorization_rejects_bad_pair():
    L = dirac_operator(1.0)
    from conslaw.adjoint import ConjugacyPair

    bad = ConjugacyPair(np.eye(4), np.eye(4), (False,) * 4)
    with pytest.raises(ValueError):
        adjoint_factorization(L, bad)


# -- the solver against the stitched nullspace and the two-loop search -------


def _reference_nullspace(L, sign_absorbed):
    """The nullspace stitched from the wide part and the kept rows of ``vh`` (the reference)."""
    m = L.rows
    eye = np.eye(m)
    blocks = []
    for alpha, mat in L.terms.items():
        s = (-1) ** midx_order(alpha) if sign_absorbed else 1.0
        scale = max(np.linalg.norm(mat), 1e-300)
        left = np.kron(mat.conj().T, eye) / scale
        right = -s * np.kron(eye, mat.T) / scale
        blocks.append(np.hstack([left, right]))
    _, sv, vh = np.linalg.svd(np.vstack(blocks))
    keep = sv <= 1e-10 * sv[0]
    null = vh[len(sv) :].conj().T
    extra = vh[: len(sv)][keep].conj().T
    if null.size and extra.size:
        return np.hstack([extra, null])
    return extra if extra.size else null


def _reference_solve(L, seed):
    """The search with a rank test per pair, the identity loop, then the sample loop (the reference).

    Returns the pair and the index of its sample (None for an identity pair).
    """
    m = L.rows
    eye = np.eye(m, dtype=complex)

    def try_pair(A1, A2, sign_absorbed):
        if np.linalg.matrix_rank(A1) < m or np.linalg.matrix_rank(A2) < m:
            return None
        if np.linalg.cond(A1) > 1e8 or np.linalg.cond(A2) > 1e8:
            return None
        res = _pair_residual(L, A1, A2, sign_absorbed)
        return None if res > _RESIDUAL_TOL else res

    for sign_absorbed in (True, False):
        mask = (not sign_absorbed,) * L.nvars
        null = _reference_nullspace(L, sign_absorbed)
        if null.shape[1] == 0:
            continue
        for A1, A2 in ((eye, eye), (eye, -eye)):
            res = try_pair(A1, A2, sign_absorbed)
            if res is not None:
                return ConjugacyPair(A1.copy(), A2.copy(), mask, res), None
        rng = np.random.default_rng(seed)
        for i in range(_MAX_SAMPLES):
            g = rng.standard_normal(null.shape[1]) + 1j * rng.standard_normal(null.shape[1])
            vec = null @ g
            A1 = vec[: m * m].reshape(m, m)
            A2 = vec[m * m :].reshape(m, m)
            if np.linalg.norm(A1) < 1e-12 or np.linalg.norm(A2) < 1e-12:
                continue
            c = A1[np.unravel_index(np.argmax(np.abs(A1)), A1.shape)]
            A1, A2 = A1 / c, A2 / c
            res = try_pair(A1, A2, sign_absorbed)
            if res is not None:
                return ConjugacyPair(A1, A2, mask, res), i
    raise SemiConjugacyNotFound(
        f"no invertible conjugating pair found after {_MAX_SAMPLES} samples (seed={seed})"
    )


def _catalog_operators():
    ops = [make() for make in named_operators().values()]
    return ops + [wave_operator(3), heat_operator(2, nu=0.5), dirac_operator(0.0)]


def test_joint_nullspace_matches_the_stitched_reference():
    rng = np.random.default_rng(23)
    ops = _catalog_operators()
    for _ in range(120):
        m = int(rng.integers(1, 4))
        ops.append(random_operator(rng, nvars=int(rng.integers(2, 4)), m=m, nterms=int(rng.integers(1, 4))))
    # one rank-one term: a wide system that is also rank-deficient
    ops.append(ConstCoeffOperator(2, (2, 2), {(0, 1): [[1, 2], [2, 4]]}))
    for L in (L for L in ops if not L.is_zero()):
        for sign_absorbed in (True, False):
            got, want = _joint_nullspace(L, sign_absorbed), _reference_nullspace(L, sign_absorbed)
            assert got.shape == want.shape and got.tobytes() == np.ascontiguousarray(want).tobytes(), L


def _full_svd_nullspace(L, sign_absorbed):
    """The nullspace from the full SVD of the stacked constraints (the reference)."""
    m = L.rows
    eye = np.eye(m)
    blocks = []
    for alpha, mat in L.terms.items():
        s = (-1) ** midx_order(alpha) if sign_absorbed else 1.0
        scale = max(np.linalg.norm(mat), 1e-300)
        blocks.append(np.hstack([_kron(mat.conj().T, eye), -s * _kron(eye, mat.T)]) / scale)
    _, sv, vh = np.linalg.svd(np.vstack(blocks), full_matrices=True)
    rank = np.count_nonzero(sv > 1e-10 * sv[0])
    return vh[rank:].conj().T


def test_reduced_svd_nullspace_has_the_bits_of_the_full_one():
    from test_pipeline_random import _random_dispersive_system

    ops = [
        dirac_operator(),
        navier_stokes_operator(),
        kdvkdv_operator(),
        heat_operator(1),
        wave_operator(3),
        jordan_block_operator(),
    ]
    for seed in (200, 203):
        rng = np.random.default_rng(seed)
        ops.append(_random_dispersive_system(rng, int(rng.integers(2, 4)))[0])
    for L in ops:
        for sign_absorbed in (True, False):
            got, want = _joint_nullspace(L, sign_absorbed), _full_svd_nullspace(L, sign_absorbed)
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), L


def test_broadcast_kron_has_the_bits_of_np_kron(monkeypatch):
    rng = np.random.default_rng(31)
    for m in range(1, 5):
        eye = np.eye(m)
        for _ in range(5):
            a, b = rng.standard_normal((2, m, m)) + 1j * rng.standard_normal((2, m, m))
            for x, y in ((a.conj().T, eye), (eye, a.T), (a, b)):
                assert np.array_equal(_kron(x, y), np.kron(x, y))
                assert _kron(x, y).tobytes() == np.kron(x, y).tobytes()
    ops = [L for L in _catalog_operators() if not L.is_zero()]
    got = [_joint_nullspace(L, sign_absorbed) for L in ops for sign_absorbed in (True, False)]
    monkeypatch.setattr(adjoint, "_kron", np.kron)
    want = [_joint_nullspace(L, sign_absorbed) for L in ops for sign_absorbed in (True, False)]
    assert all(np.array_equal(g, w) and g.tobytes() == w.tobytes() for g, w in zip(got, want))


def _bytes(pair):
    return pair.A1.tobytes(), pair.A2.tobytes(), pair.parity_mask, pair.residual.hex()


def _near_pair_operators(rng, count, eps=1e-9):
    """Similarity transforms of Hermitian-coefficient operators, one coefficient
    moved by ``eps``: the moved direction stays in the nullspace while its
    residual is near ``_RESIDUAL_TOL``, so some samples are refused."""
    for _ in range(count):
        m = int(rng.integers(2, 4))
        terms = {}
        for alpha in ((1, 0), (0, 1), (0, 2)):
            X = rng.integers(-2, 3, size=(m, m)) + 1j * rng.integers(-2, 3, size=(m, m))
            terms[alpha] = X + X.conj().T
        P = np.eye(m) + np.triu(rng.integers(-2, 3, size=(m, m)), 1)
        Pinv = np.linalg.inv(P)
        terms = {alpha: P @ M @ Pinv for alpha, M in terms.items()}
        terms[(0, 1)] = terms[(0, 1)] + eps * rng.standard_normal((m, m))
        yield ConstCoeffOperator(2, (m, m), terms)


def test_solver_matches_the_two_loop_search():
    # random operators (mostly NotFound after every draw), their self-adjoint
    # sums (identity pairs), similarity transforms of those (first samples)
    # and near pairs (later samples, after refused ones)
    rng = np.random.default_rng(11)
    ops = _catalog_operators()
    for _ in range(40):
        m = int(rng.integers(1, 4))
        L = random_operator(rng, nvars=2, m=m)
        S = L + formal_adjoint(L)
        P = np.eye(m) + np.triu(rng.integers(-2, 3, size=(m, m)), 1)
        Pinv = np.linalg.inv(P)
        ops += [L, S, ConstCoeffOperator(2, (m, m), {a: P @ M @ Pinv for a, M in S.terms.items()})]
    ops += _near_pair_operators(np.random.default_rng(5), 60)
    indices = []
    for L in ops:
        if L.is_zero():
            continue
        for seed in (0, 3):
            try:
                pair, index = _reference_solve(L, seed)
            except SemiConjugacyNotFound as err:
                with pytest.raises(SemiConjugacyNotFound) as got:
                    semi_conjugacy_solve(L, seed=seed)
                assert str(got.value) == str(err)
                indices.append("NotFound")
                continue
            assert _bytes(semi_conjugacy_solve(L, seed=seed)) == _bytes(pair), (L, seed)
            indices.append(index)
    assert indices.count(None) >= 40 and indices.count(0) >= 40 and indices.count("NotFound") >= 40
    assert any(i not in (None, 0, "NotFound") for i in indices)
