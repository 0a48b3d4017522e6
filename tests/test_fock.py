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


# -- ladder maps against sparse references ---------------------------------


def _reference_lowering(sys, q):
    """The per-state sign-string construction of ``c_q`` as a CSR matrix."""
    states = np.arange(sys.dim)
    src = states[(states >> q) & 1 == 1]
    phase = [1.0 - 2.0 * (int(x & ((1 << q) - 1)).bit_count() % 2) for x in src]
    return sparse.csr_matrix((phase, (src & ~(1 << q), src)), shape=(sys.dim, sys.dim))


def _same(x, y):
    return x.shape == y.shape and x.dtype == y.dtype and (x != y).nnz == 0


def _ladders(sys):
    """(map, CSR) of all 2N ladder operators."""
    return [
        (sys.ladder(species, ip, s, dagger), (sys.create if dagger else sys.annihilate)(species, ip, s))
        for species, ip, s in sys.modes
        for dagger in (False, True)
    ]


def test_ladder_operators_match_the_sign_string(sys):
    for q, (species, ip, s) in enumerate(sys.modes):
        want = _reference_lowering(sys, q)
        assert _same(sys.annihilate(species, ip, s), want)
        assert _same(sys.create(species, ip, s), want.T.tocsr())


def test_composed_maps_match_sparse_products(sys):
    ladders = _ladders(sys)
    assert len(ladders) == 16
    for map_a, op_a in ladders:
        for map_b, op_b in ladders:
            assert _same(sys.operator([(1.0, map_a @ map_b)]), op_a @ op_b)


def _reference_quantize(sys, M, partner, t1, t2):
    """The pairing summed as ``K = K + c * (A @ B)`` over sparse products."""
    from conslaw import gamma as gm

    K = sparse.csr_matrix((sys.dim, sys.dim), dtype=complex)
    for ip in range(len(sys.momenta)):
        iq = partner(ip)
        imp, imq = sys.reflected_index(ip), sys.reflected_index(iq)
        E = sys.energy(ip)
        p, q = np.array(sys.momenta[ip]), np.array(sys.momenta[iq])
        for r in (1, 2):
            for s in (1, 2):
                ub = gm.u_spinor(p, sys.mass, r).conj() @ M
                vb = gm.v_spinor(-p, sys.mass, r).conj() @ M
                u, v = gm.u_spinor(q, sys.mass, s), gm.v_spinor(-q, sys.mass, s)
                for bra, ket, dt, ladder in (
                    (ub, u, t1 - t2, sys.adag(ip, r) @ sys.a(iq, s)),
                    (ub, v, t1 + t2, sys.adag(ip, r) @ sys.bdag(imq, s)),
                    (vb, u, -(t1 + t2), sys.b(imp, r) @ sys.a(iq, s)),
                    (vb, v, t2 - t1, sys.b(imp, r) @ sys.bdag(imq, s)),
                ):
                    c = (bra @ ket) / (2 * E) * np.exp(1j * E * dt)
                    if abs(c) > 0:
                        K = K + c * ladder
    return K


def test_operators_match_sparse_sums(sys):
    from conslaw import gamma as gm
    from conslaw.dirac import _pair_form

    H = sparse.csr_matrix((sys.dim, sys.dim))
    k0 = sparse.csr_matrix((sys.dim, sys.dim))
    k45 = sparse.csr_matrix((sys.dim, sys.dim))
    pair = sparse.csr_matrix((sys.dim, sys.dim), dtype=complex)
    for ip in range(2):
        im = sys.reflected_index(ip)
        E = sys.energy(ip)
        for s in (1, 2):
            t, sign = spin_flip(s), (-1.0) ** s
            H = H + E * (sys.adag(ip, s) @ sys.a(ip, s))
            H = H + E * (sys.bdag(ip, s) @ sys.b(ip, s))
            k0 = k0 + sys.adag(im, s) @ sys.b(ip, s)
            k0 = k0 + sys.bdag(im, s) @ sys.a(ip, s)
            k45 = k45 + sign * (sys.adag(ip, s) @ sys.a(ip, t))
            k45 = k45 + sign * (sys.bdag(ip, t) @ sys.b(ip, s))
            pair = pair + sys.adag(ip, s) @ sys.bdag(im, s)
            pair = pair - sys.b(im, s) @ sys.a(ip, s)
    assert _same(sys.hamiltonian(), H)
    assert _same(fk.build_kappa0(sys), k0)
    assert _same(fk.build_kappa45(sys), k45)
    assert _same(_pair_form(sys), pair)

    rep = gm.dirac_representation()
    for got, M, partner, t1, t2 in (
        (fk.quantize_reflection_charge(sys, t=0.53), rep.gamma0 @ rep.gamma4, lambda ip: ip, -0.53, 0.53),
        (
            fk.quantize_cpt_charge(sys, t=0.37),
            rep.gamma0 @ rep.gamma(2) @ rep.gamma0 @ rep.gamma4,
            sys.conjugated_index,
            0.37,
            0.37,
        ),
    ):
        want = _reference_quantize(sys, M, partner, t1, t2)
        assert fk.max_abs(got - want) <= 1e-15 * fk.max_abs(want)


def _flip_one_sign(sys, mode, dagger):
    """Flip one sign of a ladder map in the system's ladder stack."""
    q = sys.modes.index(mode)
    phase = sys._ladders.phase.copy()
    phase[int(dagger), q, np.flatnonzero(phase[int(dagger), q])[3]] *= -1
    sys._ladders = fk.SignedMap(sys._ladders.target, phase)


def test_anticommutator_report_sees_a_flipped_sign():
    flawed = fk.FockSystem(MOMENTA)
    _flip_one_sign(flawed, ("b", 1, 2), dagger=False)
    assert flawed.anticommutator_report() == 2.0


def test_anticommutator_report_sees_a_flipped_creator_sign():
    # a creator enters only the mixed relations {c_q, c_r'}
    flawed = fk.FockSystem(MOMENTA)
    _flip_one_sign(flawed, ("a", 0, 1), dagger=True)
    assert flawed.anticommutator_report() != 0.0


def test_ladder_stack_is_read_only(sys):
    m = sys.ladder("a", 0, 1)
    with pytest.raises(ValueError):
        m.phase[0] = 1
    with pytest.raises(ValueError):
        m.target[0] = 0


# -- stacked products and the time axis ---------------------------------------


def _same_bits(x, y):
    """CSR arrays equal byte for byte: ``data``, ``indices`` and ``indptr``."""
    return (
        x.shape == y.shape
        and x.dtype == y.dtype
        and all(
            getattr(x, a).dtype == getattr(y, a).dtype and getattr(x, a).tobytes() == getattr(y, a).tobytes()
            for a in ("data", "indices", "indptr")
        )
    )


@pytest.mark.parametrize("momenta", [MOMENTA, MOMENTA + ((0.0, 0.0, 0.0),)], ids=["8-mode", "12-mode"])
def test_stacked_products_equal_per_term_builds(momenta, monkeypatch):
    from conslaw.dirac import _pair_form

    sys = fk.FockSystem(momenta)
    bilinear, seen = sys.bilinear, []
    monkeypatch.setattr(sys, "bilinear", lambda terms, dtype=float: seen.append((terms, dtype)) or bilinear(terms, dtype))
    ops = [sys.hamiltonian(), fk.build_kappa0(sys), fk.build_kappa45(sys), _pair_form(sys)]
    assert len(seen) == len(ops)
    for op, (terms, dtype) in zip(ops, seen):
        assert len(terms) == 4 * len(momenta)
        # each product composed on its own, from single maps
        per_term = [(c, sys.ladder(*L) @ sys.ladder(*R)) for c, L, R in terms]
        assert _same_bits(op, sys.operator(per_term, dtype=dtype))


def test_pairings_take_a_time_axis(sys):
    # t = 0 included: the reflection pairs the times -0.0 and 0.0 there
    times = [0.0, 0.37, 1.1]
    for quantize in (fk.quantize_cpt_charge, fk.quantize_reflection_charge):
        ops = quantize(sys, t=times)
        assert isinstance(ops, list) and len(ops) == len(times)
        for op, t in zip(ops, times):
            assert _same_bits(op, quantize(sys, t=t))
        assert _same_bits(quantize(sys, t=np.array(times[:1]))[0], quantize(sys))


def _loop_quantize(sys, M, partner, t1, t2):
    """The pairing one term at a time, each coefficient a complex scalar (the reference)."""
    from conslaw import gamma as gm

    terms = []
    for ip in range(len(sys.momenta)):
        iq = partner(ip)
        imp, imq = sys.reflected_index(ip), sys.reflected_index(iq)
        E = sys.energy(ip)
        p, q = np.array(sys.momenta[ip]), np.array(sys.momenta[iq])
        for r in (1, 2):
            for s in (1, 2):
                ub = gm.u_spinor(p, sys.mass, r).conj() @ M
                vb = gm.v_spinor(-p, sys.mass, r).conj() @ M
                u, v = gm.u_spinor(q, sys.mass, s), gm.v_spinor(-q, sys.mass, s)
                for bra, ket, dt, (L, R) in (
                    (ub, u, t1 - t2, (("a", ip, r, True), ("a", iq, s, False))),
                    (ub, v, t1 + t2, (("a", ip, r, True), ("b", imq, s, True))),
                    (vb, u, -(t1 + t2), (("b", imp, r, False), ("a", iq, s, False))),
                    (vb, v, t2 - t1, (("b", imp, r, False), ("b", imq, s, True))),
                ):
                    c = (bra @ ket) / (2 * E) * np.exp(1j * E * dt)
                    if c != 0:
                        terms.append((c, sys.ladder(*L) @ sys.ladder(*R)))
    return sys.operator(terms, dtype=complex)


def test_pairing_keeps_the_one_time_arithmetic():
    # a generic complex M: every coefficient has both parts, so a fused
    # multiply-add in the complex product would show in the last bit
    sys = fk.FockSystem(((0.3, 0.7, 0.2), (-0.3, -0.7, -0.2)), mass=0.6)
    rng = np.random.default_rng(5)
    M = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    times = [(0.0, 0.0), (-0.41, 0.41), (0.37, 1.9), (2.5, -0.8)]
    t1, t2 = (np.array(t) for t in zip(*times))
    got = fk._quantize_pairing(sys, M, lambda ip: ip, t1, t2)
    for op, (a, b) in zip(got, times):
        assert _same_bits(op, _loop_quantize(sys, M, lambda ip: ip, a, b))


@pytest.mark.parametrize("quantize", [fk.quantize_cpt_charge, fk.quantize_reflection_charge])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_a_non_finite_time_raises_the_one_time_message(sys, quantize, bad):
    with pytest.raises(ValueError, match="non-finite pairing coefficient") as one:
        quantize(sys, t=bad)
    with pytest.raises(ValueError) as batched:
        quantize(sys, t=[0.37, bad, 1.1])
    assert str(batched.value) == str(one.value)


# -- the Fock layer fails closed ---------------------------------------------


@pytest.mark.parametrize(
    "momenta, mass, match",
    [
        (((0.0, 0.0, 0.0),), 0.0, "energy is zero"),
        (MOMENTA, np.nan, "mass must be finite"),
        (MOMENTA, np.inf, "mass must be finite"),
        # E + m = 0 at p = 0: the spinors would divide by zero
        (((0.0, 0.0, 0.0),), -1.0, "mass must be >= 0"),
        (MOMENTA, -0.5, "mass must be >= 0"),
        (((np.nan, 0.0, 0.0),), 1.0, "momentum components must be finite"),
        (((np.inf, 0.0, 0.0), (-np.inf, 0.0, 0.0)), 1.0, "momentum components must be finite"),
    ],
    ids=[
        "zero-energy",
        "mass-nan",
        "mass-inf",
        "mass-negative-rest",
        "mass-negative",
        "momentum-nan",
        "momentum-inf",
    ],
)
def test_fock_system_refuses_degenerate_modes(momenta, mass, match):
    with pytest.raises(ValueError, match=match):
        fk.FockSystem(momenta, mass=mass)


def test_pairing_refuses_a_non_finite_coefficient(sys):
    # a NaN channel coefficient used to be dropped like a zero one
    with pytest.raises(ValueError, match="non-finite pairing coefficient"):
        fk._quantize_pairing(sys, np.full((4, 4), np.nan), lambda ip: ip, 0.0, 0.0)


# -- checks on stored entries against the sparse expressions --------------------


def _suite_operators(momenta, mass):
    """The Fock suite's operators on one lattice."""
    from conslaw.dirac import _pair_form

    sys = fk.FockSystem(momenta, mass=mass)
    q45, q45_later = fk.quantize_cpt_charge(sys, t=(0.0, 0.37))
    q0, q0_later = fk.quantize_reflection_charge(sys, t=(0.0, 0.53))
    ops = {
        "H": sys.hamiltonian(),
        "k0": fk.build_kappa0(sys),
        "k45": fk.build_kappa45(sys),
        "q45": q45,
        "q45_later": q45_later,
        "q0": q0,
        "q0_later": q0_later,
        "pair": _pair_form(sys),
    }
    return sys, ops


@pytest.mark.parametrize(
    "momenta, mass",
    [(MOMENTA, 1.0), (((0.0, 0.0, 1.0), (0.0, 0.0, -1.0)), 0.5)],
    ids=["x-mass-1", "z-mass-0.5"],
)
def test_entry_checks_have_the_bits_of_the_sparse_expressions(momenta, mass):
    sys, ops = _suite_operators(momenta, mass)
    H = ops["H"]
    for name in ("k0", "k45", "q45", "q0"):
        Q = ops[name]
        assert repr(fk.max_abs_commutator(H, Q)) == repr(fk.max_abs(H @ Q - Q @ H)), name
    cconst = complex(ops["q45"].multiply(ops["k45"].conj().T.tocsr()).sum())
    for a, b, scale in (
        ("q45", "k45", cconst),
        ("q45", "k45", 0.3 + 0.7j),
        ("q45_later", "q45", None),
        ("q0_later", "q0", None),
        ("q0", "pair", None),
        ("q0", "k0", None),
        ("k0", "q0", None),
        ("k45", "H", 2.5),
    ):
        A, B = ops[a], ops[b]
        want = fk.max_abs(A - (B if scale is None else scale * B))
        assert repr(fk.max_abs_diff(A, B, scale)) == repr(want), (a, b, scale)
    assert fk.max_abs_diff(H, H.conj().T) == fk.max_abs(H - H.conj().T) == 0.0
    for a, b in (("q45", "k45"), ("k45", "k45"), ("q0", "q45"), ("q45", "q45"), ("k0", "k45")):
        A, B = ops[a], ops[b]
        got, want = fk.adjoint_sum(A, B), A.multiply(B.conj().T.tocsr()).sum()
        assert type(got) is type(want) and repr(got) == repr(want), (a, b)

    modes = sys.modes
    swapped = [("b" if sp == "a" else "a", sys.reflected_index(ip), s) for sp, ip, s in modes]
    flipped = [(sp, ip, spin_flip(s)) for sp, ip, s in modes]
    C, vac = sys.ladders([m + (True,) for m in modes]), sys.vacuum()
    for images in (swapped, flipped):
        W = sys.ladders([m + (True,) for m in images])
        pairs = [(sys.create(*c), sys.create(*w)) for c, w in zip(modes, images)]
        for name in ("k0", "k45", "q45", "q0"):
            K = ops[name]
            want = max(fk.max_abs(K @ c - c @ K - w) for c, w in pairs)
            assert repr(fk.commutator_defect(K, C, W)) == repr(want), name
            want = max(float(np.max(np.abs(K @ (c @ vac) - w @ vac))) for c, w in pairs)
            assert repr(fk.vacuum_defect(K, C, W)) == repr(want), name
    # the identities the suite reports hold exactly
    assert fk.commutator_defect(ops["k0"], C, sys.ladders([m + (True,) for m in swapped])) == 0.0


def _random_csr(rng, dim, density, diagonal=False):
    values = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    if diagonal:
        return sparse.diags(values, format="csr")
    return sparse.random(dim, dim, density=density, format="csr", rng=rng) * (0.3 + 1.7j) + sparse.random(
        dim, dim, density=density, format="csr", rng=rng
    ) * 1j


def test_entry_checks_round_complex_products_like_scipy():
    # both factors complex with both parts: a fused multiply-add shows in the last bit
    rng = np.random.default_rng(17)
    for _ in range(5):
        A, B = _random_csr(rng, 64, 0.2), _random_csr(rng, 64, 0.2)
        H = _random_csr(rng, 64, 0, diagonal=True)
        assert repr(fk.adjoint_sum(A, B)) == repr(A.multiply(B.conj().T.tocsr()).sum())
        assert repr(fk.max_abs_commutator(H, A)) == repr(fk.max_abs(H @ A - A @ H))
        assert repr(fk.max_abs_diff(A, B, 0.1 - 2.3j)) == repr(fk.max_abs(A - (0.1 - 2.3j) * B))


def test_entry_checks_of_empty_matrices():
    empty = sparse.csr_matrix((4, 4))
    eye = sparse.identity(4, format="csr")
    assert fk.max_abs(empty) == 0.0
    assert fk.max_abs_diff(empty, empty) == 0.0
    assert fk.max_abs_diff(eye, empty) == fk.max_abs_diff(empty, eye) == 1.0
    assert fk.max_abs_commutator(eye, empty) == 0.0
    assert repr(fk.adjoint_sum(empty, eye)) == repr(empty.multiply(eye.conj().T.tocsr()).sum())


def test_commutator_sees_a_perturbed_hamiltonian(sys):
    H = sys.hamiltonian()
    k0 = fk.build_kappa0(sys)
    assert fk.max_abs_commutator(H, k0) == 0.0
    perturbed = H.copy()
    perturbed.data[3] += 1e-3
    got = fk.max_abs_commutator(perturbed, k0)
    assert got != 0.0 and repr(got) == repr(fk.max_abs(perturbed @ k0 - k0 @ perturbed))


def test_commutator_refuses_a_non_diagonal_hamiltonian(sys):
    H = sys.hamiltonian().tolil()
    H[0, 1] = 1.0
    with pytest.raises(ValueError, match="not diagonal"):
        fk.max_abs_commutator(H.tocsr(), fk.build_kappa0(sys))
    with pytest.raises(ValueError):
        fk.max_abs_commutator(sparse.identity(3, format="csr"), fk.build_kappa0(sys))


@pytest.mark.parametrize("fmt", ["csr", "csc", "coo", "lil", "dok"])
def test_max_abs_reads_the_stored_entries(fmt, monkeypatch):
    A = _random_csr(np.random.default_rng(3), 16, 0.3).asformat(fmt)
    if fmt in ("csr", "csc", "coo"):
        monkeypatch.setattr(type(A), "tocoo", lambda *args, **kwargs: pytest.fail("copied to COO"))
    assert fk.max_abs(A) == fk.max_abs(A.toarray())
    assert fk.max_abs(sparse.csr_matrix((3, 3)).asformat(fmt)) == 0.0


def test_fock_suite_sees_a_flipped_ladder_sign(monkeypatch):
    from conslaw import dirac

    clean = fk.FockSystem._ladder_table

    def flawed(self):
        # a creator's sign on the vacuum enters both the ladder shift and the spin map
        table = clean(self)
        phase = table.phase.copy()
        phase[1, 0, 0] *= -1
        return fk.SignedMap(table.target, phase)

    monkeypatch.setattr(fk.FockSystem, "_ladder_table", flawed)
    report = dirac.fock_suite()
    assert report["kappa0_ladder_defect"] != 0.0
    assert report["kappa45_spin_map_defect"] != 0.0
    assert report["pass"] is False


def test_fock_suite_builds_no_ladder_matrix(monkeypatch):
    from conslaw import dirac

    made = []

    class Recording(fk.FockSystem):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    monkeypatch.setattr(fk, "FockSystem", Recording)
    assert dirac.fock_suite()["pass"]
    assert len(made) == 1 and made[0]._ops == {}


def test_anticommutator_report_in_blocks_of_modes(monkeypatch):
    import tracemalloc

    small = fk.FockSystem(MOMENTA)
    assert fk._PAIR_ENTRIES // (small.nmodes * small.dim) >= small.nmodes  # the 8-mode lattice is one block
    big = MOMENTA + ((0.0, 0.0, 0.0),)
    clean, flawed = fk.FockSystem(big), fk.FockSystem(big)
    _flip_one_sign(flawed, ("b", 1, 2), dagger=False)
    tracemalloc.start()
    try:
        got = [clean.anticommutator_report(), flawed.anticommutator_report()]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4e6
    # all mode pairs in one block give the same values
    monkeypatch.setattr(fk, "_PAIR_ENTRIES", 1 << 30)
    assert got == [clean.anticommutator_report(), flawed.anticommutator_report()] == [0.0, 2.0]
