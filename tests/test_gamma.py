import numpy as np
import pytest

from conslaw.catalog import dirac_operator
from conslaw.gamma import (
    GammaRep,
    chi,
    dirac_representation,
    energy,
    spin_flip,
    spinor_identity_report,
    u_spinor,
    v_spinor,
)


def momentum_slash(rep, p, m):
    """E gamma0 - p.gamma in the (+,-,-,-) signature."""
    E = energy(p, m)
    return E * rep.gamma0 - sum(p[i - 1] * rep.gamma(i) for i in range(1, 4))


def test_clifford_relations_exact():
    rep = dirac_representation()
    assert rep.check_relations(tol=0.0)


def test_gamma4_is_antidiagonal_identity():
    rep = dirac_representation()
    want = np.block([[np.zeros((2, 2)), np.eye(2)], [np.eye(2), np.zeros((2, 2))]])
    assert np.array_equal(rep.gamma4, want)


def test_adjoints_conjugate_through_gamma0():
    rep = dirac_representation()
    g0 = rep.gamma0
    for mu in range(4):
        g = rep.gamma(mu)
        assert np.array_equal(g.conj().T, g0 @ g @ g0)


def test_spinor_normalization():
    rng = np.random.default_rng(21)
    for _ in range(20):
        p = rng.standard_normal(3) * 2
        m = float(rng.uniform(0.3, 2.5))
        E = energy(p, m)
        for r in (1, 2):
            for s in (1, 2):
                want = 2 * E if r == s else 0.0
                got_u = u_spinor(p, m, r).conj() @ u_spinor(p, m, s)
                got_v = v_spinor(p, m, r).conj() @ v_spinor(p, m, s)
                assert abs(got_u - want) <= 1e-12 * E
                assert abs(got_v - want) <= 1e-12 * E


def test_spinors_solve_momentum_space_equations():
    rep = dirac_representation()
    rng = np.random.default_rng(22)
    for _ in range(20):
        p = rng.standard_normal(3)
        m = float(rng.uniform(0.5, 2.0))
        ps = momentum_slash(rep, p, m)
        for s in (1, 2):
            assert np.max(np.abs((ps - m * np.eye(4)) @ u_spinor(p, m, s))) <= 1e-12
            assert np.max(np.abs((ps + m * np.eye(4)) @ v_spinor(p, m, s))) <= 1e-12


def test_zero_momentum_collapse():
    m = 2.0
    for s in (1, 2):
        u = u_spinor((0, 0, 0), m, s)
        v = v_spinor((0, 0, 0), m, s)
        assert np.allclose(u, np.sqrt(2 * m) * np.concatenate([chi(s), [0, 0]]))
        assert np.allclose(v, np.sqrt(2 * m) * np.concatenate([[0, 0], chi(s)]))
    rep = spinor_identity_report((0.0, 0.0, 0.0), m)
    assert rep["passed"]


def test_identities_at_printed_momentum():
    # p = (1, 2, 3), m = 1 -> E = sqrt(15)
    p = (1.0, 2.0, 3.0)
    m = 1.0
    assert abs(energy(p, m) - np.sqrt(15.0)) <= 1e-15
    rep = dirac_representation()
    E = energy(p, m)
    g04 = rep.gamma0 @ rep.gamma4
    for r in (1, 2):
        ubar = u_spinor(p, m, r).conj() @ rep.gamma0
        for s in (1, 2):
            t = spin_flip(s)
            val = ubar @ g04 @ v_spinor(np.array(p), m, t)
            want = 2 * E if r == t else 0.0
            assert abs(val - want) <= 1e-12 * E


def test_identity_suite_random_draws():
    rng = np.random.default_rng(23)
    for _ in range(100):
        p = rng.standard_normal(3) * 2
        m = float(rng.uniform(0.2, 3.0))
        rep = spinor_identity_report(p, m)
        assert rep["passed"], rep


def test_spin_flip_arithmetic():
    assert spin_flip(1) == 2
    assert spin_flip(2) == 1


def test_dirac_representation_is_built_once_and_read_only():
    rep = dirac_representation()
    assert dirac_representation() is rep
    for a in rep.gammas + (rep.eta,):
        with pytest.raises(ValueError):
            a[0, 0] = 0
    assert rep.check_relations(tol=0.0)


def test_dirac_operator_keeps_its_representation_argument():
    # a unitary change of basis is a valid representation with other matrices
    rep = dirac_representation()
    U = np.kron(np.array([[1, 1], [1, -1]]) / np.sqrt(2), np.eye(2))
    other = GammaRep(tuple(U @ g @ U.conj().T for g in rep.gammas), rep.eta)
    assert dirac_operator(rep=rep) == dirac_operator()
    assert dirac_operator(rep=other) != dirac_operator()


def test_gamma4_is_computed_once_and_read_only():
    rep = dirac_representation()
    g = rep.gammas
    assert rep.gamma4 is rep.gamma4
    assert rep.gamma4.tobytes() == (1j * g[0] @ g[1] @ g[2] @ g[3]).tobytes()
    with pytest.raises(ValueError):
        rep.gamma4[0, 0] = 0


def test_a_passed_representation_cannot_leave_gamma4_stale():
    rep = dirac_representation()
    gammas = [np.array(g) for g in rep.gammas]
    other = GammaRep(tuple(gammas), np.array(rep.eta))
    # the representation holds read-only copies: writing to the arguments later changes nothing
    gammas[1][0, 3] = 7.0
    assert np.array_equal(other.gammas[1], rep.gammas[1])
    assert np.array_equal(other.gamma4, rep.gamma4)
    for a in other.gammas + (other.eta, other.gamma4):
        with pytest.raises(ValueError):
            a[0, 0] = 0
