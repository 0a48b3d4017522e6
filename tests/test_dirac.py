import numpy as np
import pytest

from conslaw.adjoint import adjoint_factorization, semi_conjugacy_solve
from conslaw.catalog import build_profile, build_symmetry, dirac_operator
from conslaw.current import adjoint_characteristic, concomitant_flux
from conslaw.dirac import (
    angular_momentum_series,
    check_discrete_algebra,
    fock_suite,
    spinor_suite,
)
from conslaw.gamma import dirac_representation
from conslaw.spectral import (
    EvolutionSystem,
    TorusGrid,
    Trajectory,
    kappa_series,
    symmetry_view,
)


@pytest.fixture(scope="module")
def algebra():
    return check_discrete_algebra()


def test_gamma5_factor_squares_to_plus_one(algebra):
    # (i gamma2 conj)^2 = -gamma2 gamma2* = +1
    assert algebra["pairs"]["(5,5)"] == {"type": "scalar", "value": 2.0}


def test_gamma4_factor_squares_to_minus_one(algebra):
    assert algebra["pairs"]["(4,4)"] == {"type": "scalar", "value": -2.0}


def test_gamma1_gamma2_anticommute(algebra):
    assert algebra["pairs"]["(1,2)"]["type"] == "zero"


def test_reflection_block_realizes_minus_two_g(algebra):
    assert algebra["reflection_block_uniform"]
    assert algebra["reflection_block_constant"] == -2.0


def test_conjugation_block_and_cross_pairs(algebra):
    # Gamma5, Gamma6 anticommute with each other and square to +1 ...
    assert algebra["pairs"]["(5,6)"]["type"] == "zero"
    assert algebra["conjugation_diagonal"] == [2.0, 2.0]
    # ... but commute (rather than anticommute) with the reflection block
    for a in range(5):
        for b in (5, 6):
            entry = algebra["pairs"][f"({a},{b})"]
            assert entry["type"] == "twisted"
            assert entry["commutes"]


def test_report_lists_every_pair(algebra):
    assert len(algebra["pairs"]) == 28  # all unordered pairs of 7 generators


ZERO = {"type": "zero", "value": 0.0}
# the conjugation generators commute with every reflection generator
TWISTED = {"type": "twisted", "anticommutator_norm": 2.0, "commutator_norm": 0.0, "commutes": True}
BRACKET_TABLE = {
    "(0,0)": {"type": "scalar", "value": -2.0},
    "(0,1)": ZERO, "(0,2)": ZERO, "(0,3)": ZERO, "(0,4)": ZERO,
    "(0,5)": TWISTED, "(0,6)": TWISTED,
    "(1,1)": {"type": "scalar", "value": 2.0},
    "(1,2)": ZERO, "(1,3)": ZERO, "(1,4)": ZERO,
    "(1,5)": TWISTED, "(1,6)": TWISTED,
    "(2,2)": {"type": "scalar", "value": 2.0},
    "(2,3)": ZERO, "(2,4)": ZERO,
    "(2,5)": TWISTED, "(2,6)": TWISTED,
    "(3,3)": {"type": "scalar", "value": 2.0},
    "(3,4)": ZERO,
    "(3,5)": TWISTED, "(3,6)": TWISTED,
    "(4,4)": {"type": "scalar", "value": -2.0},
    "(4,5)": TWISTED, "(4,6)": TWISTED,
    "(5,5)": {"type": "scalar", "value": 2.0},
    "(5,6)": ZERO,
    "(6,6)": {"type": "scalar", "value": 2.0},
}


def test_whole_bracket_table_is_pinned(algebra):
    assert len(BRACKET_TABLE) == 28
    assert algebra["pairs"] == BRACKET_TABLE
    assert list(algebra["pairs"]) == list(BRACKET_TABLE)  # the report's pair order


def test_spinor_suite_passes():
    rep = spinor_suite(ndraws=30)
    assert rep["passed"]


def test_fock_suite_summary():
    rep = fock_suite()
    assert rep["anticommutator_defect"] == 0.0
    assert rep["H_kappa0_commutator"] < 1e-12
    assert rep["H_kappa45_commutator"] < 1e-12
    assert rep["kappa0_ladder_defect"] == 0.0
    assert rep["cpt_quantization_defect"] < 1e-12
    assert rep["cpt_quantization_unit_modulus"] < 1e-12
    assert rep["reflection_quantization_time_drift"] < 1e-12


def test_single_plane_wave_reflected_charge_constant():
    # a single positive-branch plane wave: the reflected pairing reduces to a
    # fixed spinor contraction; evaluate it directly at several times
    rep = dirac_representation()
    L = dirac_operator(1.0, rep)
    grid = TorusGrid((8.0,) * 3, (8,) * 3)
    system = EvolutionSystem(L, grid, amp_cap=1e8)
    kidx = (1, 0, 0)
    flat = np.ravel_multi_index(kidx, grid.modes)
    a = system.A[list(system.active).index(flat)]
    lams, vecs = np.linalg.eig(a)
    pick = int(np.argmin(lams.imag))
    coeffs = np.zeros((4,) + grid.modes, dtype=complex)
    coeffs[(slice(None),) + kidx] = vecs[:, pick]
    traj = Trajectory(system, coeffs)
    g04 = rep.gamma0 @ rep.gamma4
    u = (0, 0, 0, 0)
    vals = []
    for t in (0.0, 0.4, 1.1):
        jets = traj.jets([(t, u), (-t, u)])
        psi_t, psi_r = jets[(t, u)], jets[(-t, u)]
        integrand = np.einsum("a...,ab,b...->...", psi_r.conj(), g04, psi_t)
        vals.append(grid.volume * complex(np.mean(integrand)))
    assert max(abs(v - vals[0]) for v in vals) <= 1e-12 * (abs(vals[0]) + 1.0)


def test_angular_momentum_drift_small():
    # quick version at 32^3 with a correspondingly relaxed support guard; the
    # acceptance run uses the strict 64^3 defaults
    rep = angular_momentum_series(modes=32, length=16.0, width=1.2, support_tol=1e-7)
    for ax in "xyz":
        assert rep[ax]["drift"] <= 1e-6


def test_rotated_data_gives_rotated_charges():
    # quarter turn about z: exact on the cubic grid; spinor part rotates with
    # exp(-i pi/4 Sigma_z); the charge vector must rotate accordingly
    rep = dirac_representation()
    L = dirac_operator(1.0, rep)
    grid = TorusGrid((16.0,) * 3, (32,) * 3)
    system = EvolutionSystem(L, grid)
    coeffs = build_profile("packet(seed=3, width=1.2, kmax=2, real=False)", grid, 4)
    S = (np.eye(4) - 1j * rep.sigma_spin(3)) / np.sqrt(2.0)

    vals = np.fft.ifftn(coeffs, axes=(1, 2, 3)) * grid.npoints
    # (x, y, z) -> (-y, x, z): values'(x,y) = S values(y, -x); on the centered
    # periodic grid the origin sits at index N/2, so negation is the index map
    # i -> (N - i) mod N (exact), not an array rot90 about (N-1)/2
    n = grid.modes[0]
    neg = (n - np.arange(n)) % n
    rot = np.take(vals.transpose(0, 2, 1, 3), neg, axis=1)
    rot = np.einsum("ab,b...->a...", S, rot)
    rcoeffs = np.fft.fftn(rot, axes=(1, 2, 3)) / grid.npoints

    fact = adjoint_factorization(L, semi_conjugacy_solve(L))
    flux = concomitant_flux(L)

    def charges(cc):
        traj = Trajectory(system, cc)
        out = []
        for ax in "xyz":
            char = adjoint_characteristic(L, fact, build_symmetry(f"dirac.rotation_{ax}"))
            view = symmetry_view(char, traj, s=0.0)
            out.append(kappa_series(flux, [view], traj, [0.0], support_tol=1e-6)[0].values[0])
        return np.array(out)

    j = charges(coeffs)
    jr = charges(rcoeffs)
    Rz = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    assert np.max(np.abs(jr - Rz @ j)) <= 1e-10 * (np.max(np.abs(j)) + 1.0)
