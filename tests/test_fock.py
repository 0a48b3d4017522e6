import numpy as np
import pytest
from scipy import sparse

from conslaw import fock as fk
from conslaw.gamma import spin_flip

MOMENTA = ((1.0, 0.0, 0.0), (-1.0, 0.0, 0.0))


@pytest.fixture(scope="module")
def sys():
    return fk.FockSystem(MOMENTA, mass=1.0)


def test_lattice_must_be_symmetric():
    with pytest.raises(ValueError):
        fk.FockSystem([(1.0, 0.0, 0.0)])


def test_anticommutators_exact(sys):
    assert sys.anticommutator_report() == 0.0


def test_hamiltonian_structure(sys):
    H = sys.hamiltonian()
    assert fk.max_abs(H - H.conj().T) == 0.0
    assert np.linalg.norm(H @ sys.vacuum()) == 0.0


def test_kappa0_algebra(sys):
    k0 = fk.build_kappa0(sys)
    H = sys.hamiltonian()
    assert np.linalg.norm(k0 @ sys.vacuum()) == 0.0
    assert fk.max_abs(H @ k0 - k0 @ H) < 1e-12
    for ip in range(2):
        im = sys.reflected_index(ip)
        for s in (1, 2):
            comm = k0 @ sys.adag(ip, s) - sys.adag(ip, s) @ k0
            assert fk.max_abs(comm - sys.bdag(im, s)) == 0.0
            comm_b = k0 @ sys.bdag(ip, s) - sys.bdag(ip, s) @ k0
            assert fk.max_abs(comm_b - sys.adag(im, s)) == 0.0


def test_kappa45_algebra(sys):
    k45 = fk.build_kappa45(sys)
    H = sys.hamiltonian()
    vac = sys.vacuum()
    assert np.linalg.norm(k45 @ vac) == 0.0
    assert fk.max_abs(H @ k45 - k45 @ H) < 1e-12
    # one-particle spin map, oracle = apply the matrix to basis states
    for ip in range(2):
        for s in (1, 2):
            t = spin_flip(s)
            got = k45 @ (sys.adag(ip, s) @ vac)
            want = ((-1.0) ** (s + 1)) * (sys.adag(ip, t) @ vac)
            assert np.max(np.abs(got - want)) == 0.0
            got = k45 @ (sys.bdag(ip, s) @ vac)
            want = ((-1.0) ** s) * (sys.bdag(ip, t) @ vac)
            assert np.max(np.abs(got - want)) == 0.0


def test_cpt_quantization_matches_ladder_sum(sys):
    k45 = fk.build_kappa45(sys)
    q = fk.quantize_cpt_charge(sys)
    # the mechanical expansion reproduces the ladder sum up to the discarded
    # unit constant, here exactly -i
    assert fk.max_abs(q - (-1j) * k45) < 1e-12 * fk.max_abs(k45)


def test_cpt_quantization_time_independent(sys):
    q0 = fk.quantize_cpt_charge(sys, t=0.0)
    q1 = fk.quantize_cpt_charge(sys, t=0.71)
    assert fk.max_abs(q1 - q0) < 1e-12 * fk.max_abs(q0)


def test_reflection_quantization_is_pair_form(sys):
    q = fk.quantize_reflection_charge(sys)
    pair = sparse.csr_matrix((sys.dim, sys.dim), dtype=complex)
    for ip in range(2):
        im = sys.reflected_index(ip)
        for s in (1, 2):
            pair = pair + sys.adag(ip, s) @ sys.bdag(im, s)
            pair = pair - sys.b(im, s) @ sys.a(ip, s)
    assert fk.max_abs(q - pair) < 1e-12 * fk.max_abs(q)
    # time independence rests on the exactly vanishing diagonal contractions
    q1 = fk.quantize_reflection_charge(sys, t=0.37)
    assert fk.max_abs(q1 - q) < 1e-12 * fk.max_abs(q)


@pytest.mark.xfail(
    reason="the mechanical expansion of the time-reflected pairing yields the "
    "pair-creation form a'b' - ba, not the momentum-reversing swap form "
    "a'b + b'a; the swap form satisfies the same commutator algebra but is a "
    "different operator",
    strict=True,
)
def test_reflection_quantization_equals_swap_form(sys):
    q = fk.quantize_reflection_charge(sys)
    k0 = fk.build_kappa0(sys)
    best = None
    for c in (1.0, -1.0, 1j, -1j):
        d = fk.max_abs(q - c * k0)
        best = d if best is None else min(best, d)
    assert best < 1e-12


def test_offaxis_lattice_cpt_needs_closure():
    sys2 = fk.FockSystem(((1.0, 2.0, 0.0), (-1.0, -2.0, 0.0)), mass=1.0)
    with pytest.raises(KeyError):
        fk.quantize_cpt_charge(sys2)


def test_vacuum_and_dimensions(sys):
    assert sys.dim == 256
    assert sys.nmodes == 8
    v = sys.vacuum()
    assert v[0] == 1.0 and np.linalg.norm(v) == 1.0


def test_twelve_mode_lattice():
    # three momenta (zero is its own reflection) -> 12 modes, 4096-dim
    big = fk.FockSystem(((1.0, 0.0, 0.0), (-1.0, 0.0, 0.0), (0.0, 0.0, 0.0)))
    assert big.nmodes == 12 and big.dim == 4096
    H = big.hamiltonian()
    k0 = fk.build_kappa0(big)
    k45 = fk.build_kappa45(big)
    assert fk.max_abs(H @ k0 - k0 @ H) == 0.0
    assert fk.max_abs(H @ k45 - k45 @ H) == 0.0
    q = fk.quantize_cpt_charge(big)
    assert fk.max_abs(q - (-1j) * k45) < 1e-12 * fk.max_abs(k45)


def test_lattice_size_cap():
    with pytest.raises(ValueError):
        fk.FockSystem([(float(i), 0.0, 0.0) for i in range(-4, 5)])
