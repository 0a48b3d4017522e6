import tracemalloc

import numpy as np
import pytest

from conslaw.adjoint import adjoint_factorization, semi_conjugacy_solve
from conslaw import spectral
from conslaw.catalog import (
    build_operator,
    build_profile,
    build_symmetry,
    dirac_operator,
    heat_operator,
    kdvkdv_operator,
    navier_stokes_operator,
    wave_operator,
)
from conslaw.current import adjoint_characteristic, concomitant_flux
from conslaw.dsl import parse_operator
from conslaw.gamma import energy
from conslaw.opcore import ConstCoeffOperator
from conslaw.spectral import (
    AmplificationError,
    ConjView,
    DiffView,
    EvolutionSystem,
    MatrixView,
    ReflectView,
    ShiftView,
    SupportError,
    TorusGrid,
    Trajectory,
    drift_of,
    heat_flow_product_oracle,
    kappa_series,
    symmetry_view,
)
from conslaw.symmetry import DiffFactor, PointReflect, SymmetryOp

TWO_PI = 2 * np.pi


def _integrate(grid, values):
    """Spectral quadrature: box volume times the grid mean (the zero mode)."""
    return grid.volume * complex(np.mean(values))


def _jet(traj, t, alpha):
    """The grid values of ``d^alpha u(t)``, from one ``Trajectory.jets`` pass."""
    return traj.jets([(t, alpha)])[(float(t), tuple(alpha))]


def _coeffs_at(traj, t):
    """The full-grid Fourier coefficients of ``u(t)``, as ``Trajectory.jets`` scatters them."""
    return traj._field_coeffs(traj._companion(t))


def test_grid_mode_set_is_symmetric():
    grid = TorusGrid((TWO_PI,), (16,))
    mask = grid.mode_mask()
    k = grid.wavenumbers()[0]
    for i in range(16):
        if mask[i]:
            j = np.argmin(np.abs(k + k[i]))
            assert mask[j]
    # Nyquist dropped
    assert not mask[8]


def test_a_cutoff_drops_modes_whose_squared_wavenumber_overflows():
    # k = 6.28e300 squares to inf, which lies beyond the cutoff, without a warning
    grid = TorusGrid((1e-300,), (4,), kmax=1.0)
    assert grid.mode_mask().tolist() == [True, False, False, False]


def test_wavenumbers_are_made_once_and_read_only():
    grid = TorusGrid((TWO_PI, 3.0), (16, 8))
    ks = grid.wavenumbers()
    assert grid.wavenumbers() is ks
    for k, L, n in zip(ks, grid.lengths, grid.modes):
        assert not k.flags.writeable
        assert np.array_equal(k, 2 * np.pi * np.fft.fftfreq(n, d=L / n))
    with pytest.raises(ValueError):
        ks[0][1] = 0.0


def test_evolution_forms():
    heat = EvolutionSystem(heat_operator(1), TorusGrid((TWO_PI,), (16,)))
    k = TorusGrid((TWO_PI,), (16,)).wavenumbers()[0]
    idx = list(heat.active).index(3)
    assert np.allclose(heat.A[idx], -(k[3] ** 2))

    wave = EvolutionSystem(wave_operator(1), TorusGrid((TWO_PI,), (16,)))
    idx = list(wave.active).index(2)
    assert np.allclose(wave.A[idx], [[0.0, 1.0], [-(k[2] ** 2), 0.0]])

    kdv = EvolutionSystem(kdvkdv_operator(), TorusGrid((TWO_PI,), (16,)))
    idx = list(kdv.active).index(2)
    z = -((1j * k[2]) ** 3 + 1j * k[2])
    assert np.allclose(kdv.A[idx], [[0, z], [z, 0]])


def test_evolution_form_rejects_static_system():
    with pytest.raises(ValueError):
        EvolutionSystem(navier_stokes_operator(), TorusGrid((TWO_PI,) * 3, (8,) * 3))


def _basis_states(system, j):
    """The state ``e_j`` on every active mode; ``propagator(dt, .)`` gives column j of ``exp(dt A)``."""
    E = np.zeros((len(system.active), system.m * system.R), dtype=complex)
    E[:, j] = 1.0
    return E


def test_propagator_semigroup_property():
    grid = TorusGrid((TWO_PI,), (32,))
    for L in (wave_operator(1), kdvkdv_operator()):
        system = EvolutionSystem(L, grid)
        for j in range(system.m * system.R):
            E = _basis_states(system, j)
            two_steps = system.propagator(0.45, system.propagator(0.3, E))
            assert np.max(np.abs(two_steps - system.propagator(0.75, E))) <= 1e-12


@pytest.mark.parametrize(
    "spec, grid",
    [
        ("dirac(m=1.0)", TorusGrid((8.0, 6.0, 10.0), (8, 4, 16))),
        ("dirac(m=0.0)", TorusGrid((8.0,) * 3, (8,) * 3)),
        ("wave(dim=2)", TorusGrid((TWO_PI, 3.0), (16, 8))),
        # kmax bounds the phase |dt k^3|: expm and the closed form both lose
        # about |dt k^3| * 1e-16 to the phase
        ("kdvkdv", TorusGrid((TWO_PI,), (64,), kmax=8.0)),
        ("heat(dim=1)", TorusGrid((TWO_PI,), (64,), kmax=3.5)),
        # lam = 1 - k^2 takes every branch of the real closed form: cosh/sinh
        # at k = 0, the small argument at k = +-1, cos/sin beyond
        ("Dt^2 - Dx^2 - 1", TorusGrid((TWO_PI,), (16,))),
    ],
)
@pytest.mark.parametrize("dt", [0.37, -0.37], ids=["forward", "reflected"])
def test_matrix_free_propagator_equals_expm_of_the_stack(spec, grid, dt):
    from scipy.linalg import expm

    system = EvolutionSystem(build_operator(spec), grid)
    assert system.fast.all() and system.A is not system.A  # matrix-free: A is assembled per access
    assert system.lam.dtype == float  # every square coefficient is real
    rng = np.random.default_rng(11)
    U = rng.standard_normal((len(system.active), system.m * system.R, 2)) @ [1.0, 1j]
    want = np.array([expm(dt * a) @ u for a, u in zip(system.A, U)])
    got = system.propagator(dt, U)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
    assert np.array_equal(system.propagator(dt, U, AU=system.apply(U)), got)


def test_k_dependent_lead_keeps_the_stacked_propagator():
    from scipy.linalg import expm

    system = EvolutionSystem(build_operator("jordan2x2"), TorusGrid((TWO_PI,), (32,)))
    assert system.A is system.A and not system.fast.any()  # a stored stack, expm on every mode
    for j in range(2):
        E = _basis_states(system, j)
        want = np.array([expm(0.2 * a)[:, j] for a in system.A])
        assert np.max(np.abs(system.propagator(0.2, E) - want)) <= 1e-12 * np.max(np.abs(want))


def _stacked_systems():
    # a diagonal pair with unequal rates and a random dispersive system: the
    # symmetrised square of the symbol is no multiple of I, so A(k) is stacked
    from test_pipeline_random import _random_dispersive_system

    grid = TorusGrid((TWO_PI,), (64,))
    pair = parse_operator("[[1,0],[0,1]]*Dt - [[1,0],[0,2]]*Dx^2")
    random, _S = _random_dispersive_system(np.random.default_rng(5), 3)
    return [EvolutionSystem(pair, grid), EvolutionSystem(random, grid)]


@pytest.mark.parametrize("dt", [0.37, -0.005], ids=["forward", "reflected"])
def test_stacked_propagator_is_expm_on_every_mode(dt):
    from scipy.linalg import expm

    for system in _stacked_systems():
        assert not system.matrix_free and not system.fast.any() and system.lam is None
        for j in range(system.m * system.R):
            want = np.array([expm(dt * a)[:, j] for a in system.A])
            got = system.propagator(dt, _basis_states(system, j))
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_stacked_propagator_refuses_amplification():
    jordan = EvolutionSystem(build_operator("jordan2x2"), TorusGrid((TWO_PI,), (64,)))
    with pytest.raises(AmplificationError, match=r"mode amplification 2\.771e\+06 exceeds cap"):
        jordan.propagator(-3.0, _basis_states(jordan, 0))
    # exp(2 k^2) overflows at |k| = 31
    pair = _stacked_systems()[0]
    with pytest.raises(AmplificationError, match="non-finite"):
        pair.propagator(-1.0, _basis_states(pair, 0))


def test_round_trip_propagation():
    grid = TorusGrid((TWO_PI,), (64,))
    system = EvolutionSystem(kdvkdv_operator(), grid)
    coeffs = build_profile("random(seed=1, kmax=20)", grid, 2) * grid.mode_mask()
    fwd = _coeffs_at(Trajectory(system, coeffs), 0.8)
    back = _coeffs_at(Trajectory(system, fwd), -0.8)
    assert np.max(np.abs(back - coeffs)) <= 1e-12 * np.max(np.abs(coeffs))


def test_heat_single_mode_decay():
    grid = TorusGrid((TWO_PI,), (16,))
    system = EvolutionSystem(heat_operator(1), grid)
    coeffs = np.zeros((1, 16), dtype=complex)
    coeffs[0, 3] = 1.0
    out = _coeffs_at(Trajectory(system, coeffs), 0.5)
    k = grid.wavenumbers()[0][3]
    assert abs(out[0, 3] - np.exp(-(k**2) * 0.5)) <= 1e-14


def test_a_constant_scalar_symbol_decays_every_mode_alike():
    # Dt + 1: A = -1 on every mode, so exp(dt A) is one number, not one per mode
    grid = TorusGrid((TWO_PI,), (16,))
    coeffs = build_profile("random(seed=1, kmax=3)", grid, 1)
    traj = Trajectory(EvolutionSystem(parse_operator("Dt + 1"), grid), coeffs)
    want = np.exp(-0.5) * (coeffs * grid.mode_mask())
    assert np.max(np.abs(_coeffs_at(traj, 0.5) - want)) <= 1e-15 * np.max(np.abs(coeffs))


def test_dirac_plane_wave_phase():
    grid = TorusGrid((8.0,) * 3, (8,) * 3)
    L = dirac_operator(1.0)
    system = EvolutionSystem(L, grid)
    # one spatial mode, spinor eigenvector of A(k) -> pure phase exp(-iEt)
    kidx = (1, 0, 0)
    k = [g[kidx] for g in grid.wavevector_grids()]
    E = energy(k, 1.0)
    flat = np.ravel_multi_index(kidx, grid.modes)
    a = system.A[list(system.active).index(flat)]
    lams, vecs = np.linalg.eig(a)
    pick = np.argmin(np.abs(lams + 1j * E))
    v = vecs[:, pick]
    coeffs = np.zeros((4,) + grid.modes, dtype=complex)
    coeffs[(slice(None),) + kidx] = v
    t = 0.7
    out = _coeffs_at(Trajectory(system, coeffs), t)
    got = out[(slice(None),) + kidx]
    assert np.max(np.abs(got - v * np.exp(-1j * E * t))) <= 1e-12


def test_solutions_satisfy_operator_on_band_limited_subspace():
    grid = TorusGrid((TWO_PI,), (32,))
    for L in (heat_operator(1), kdvkdv_operator(), wave_operator(1)):
        system = EvolutionSystem(L, grid)
        coeffs = build_profile("random(seed=2, kmax=10)", grid, L.cols * system.R)
        traj = Trajectory(system, coeffs)
        resid = None
        for alpha, mat in L.terms.items():
            vals = _jet(traj, 0.6, alpha)
            piece = np.einsum("ab,b...->a...", mat, vals)
            resid = piece if resid is None else resid + piece
        scale = np.max(np.abs(_jet(traj, 0.6, (0,) * L.nvars)))
        assert np.max(np.abs(resid)) <= 1e-12 * max(scale, 1.0) * 1e3


def test_amplification_cap_raises_for_backward_heat():
    grid = TorusGrid((TWO_PI,), (64,))
    system = EvolutionSystem(heat_operator(1), grid, amp_cap=1e6)
    coeffs = build_profile("random(seed=4, kmax=20)", grid, 1)
    with pytest.raises(AmplificationError):
        _coeffs_at(Trajectory(system, coeffs), -1.0)
    # the cap is checked on the entries of exp(dt A), as from the stacked A
    amp = np.abs(np.exp(-0.1 * system.A)).max()
    with pytest.raises(AmplificationError) as err:
        system.propagator(-0.1, _basis_states(system, 0))
    assert str(err.value).startswith(f"mode amplification {amp:.3e} exceeds cap 1.0e+06 for dt=-0.1;")
    # under the cap: small backward step on a band-limited grid is fine
    lowpass = TorusGrid((TWO_PI,), (64,), kmax=3.5)
    system = EvolutionSystem(heat_operator(1), lowpass, amp_cap=1e6)
    out = _coeffs_at(Trajectory(system, build_profile("random(seed=4, kmax=3)", lowpass, 1)), -1.0)
    assert np.all(np.isfinite(out))


@pytest.mark.parametrize(
    "spec, grid, dt",
    [
        ("wave", TorusGrid((TWO_PI,), (64,)), 0.7),
        ("kdvkdv", TorusGrid((TWO_PI,), (64,)), -0.3),
        ("dirac(m=1.0)", TorusGrid((8.0, 6.0, 10.0), (8, 4, 16)), 0.4),
    ],
)
@pytest.mark.parametrize("block", [None, 100], ids=["one-block", "blocks"])
def test_amplification_bound_keeps_the_exact_decision(monkeypatch, spec, grid, dt, block):
    # a matrix-free propagator skips the per-entry check when max|c1| +
    # max|c2| max|A_ij| clears the cap; at the cap the exact check decides
    if block:
        monkeypatch.setattr(spectral, "MODE_BLOCK", block)
    system = EvolutionSystem(build_operator(spec), grid)
    assert system.matrix_free and len(system.blocks()) == (1 if block is None else -(-len(system.active) // block))
    d = system.m * system.R
    traj = Trajectory(system, build_profile("random(seed=2, kmax=3, real=False)", grid, d))
    amps = []
    check = EvolutionSystem._check_amplification
    monkeypatch.setattr(EvolutionSystem, "_check_amplification", lambda self, dt, amp: amps.append(amp))
    system.amp_cap = 1e6
    want = traj._companion(dt)
    assert amps == []  # the bound clears a generous cap
    system.amp_cap = 0.0
    traj._companion(dt)
    amp = max(amps)  # the exact largest entry, as every block's check measured it
    monkeypatch.setattr(EvolutionSystem, "_check_amplification", check)
    system.amp_cap = amp
    assert np.array_equal(traj._companion(dt), want)
    system.amp_cap = np.nextafter(amp, 0.0)
    with pytest.raises(AmplificationError) as err:
        traj._companion(dt)
    assert str(err.value) == (
        f"mode amplification {amp:.3e} exceeds cap {system.amp_cap:.1e} "
        f"for dt={dt:+.6g}; reduce kmax or the reflected time span"
    )


def test_support_guard_for_position_weighting():
    grid = TorusGrid((TWO_PI,), (32,))
    L = kdvkdv_operator()
    system = EvolutionSystem(L, grid)
    coeffs = build_profile("random(seed=5, kmax=8)", grid, 2)
    traj = Trajectory(system, coeffs)
    from conslaw.spectral import DiffView
    from conslaw.symmetry import DiffFactor

    factor = DiffFactor((({1: 1}, None, (0, 0)),))  # multiply by x
    view = DiffView(traj, factor)
    with pytest.raises(SupportError):
        kappa_series(concomitant_flux(L), [view], traj, [0.1], support_tol=1e-10)


def test_nan_support_tol_and_amp_cap_fail_closed():
    grid = TorusGrid((TWO_PI,), (32,))
    L = kdvkdv_operator()
    traj = Trajectory(EvolutionSystem(L, grid), build_profile("random(seed=5, kmax=8)", grid, 2))
    from conslaw.spectral import DiffView
    from conslaw.symmetry import DiffFactor

    view = DiffView(traj, DiffFactor((({1: 1}, None, (0, 0)),)))
    with pytest.raises(SupportError):
        kappa_series(concomitant_flux(L), [view], traj, [0.1], support_tol=np.nan)
    system = EvolutionSystem(L, grid, amp_cap=np.nan)
    with pytest.raises(AmplificationError, match="exceeds cap"):
        system.propagator(0.1, _basis_states(system, 0))


def test_zero_power_chain_has_the_identity_kappa_series():
    # kdvkdv on 64 modes: the chain x^0 u was once read as the weighted x u,
    # with kappa(0) = 1.536 against the identity's 9.050
    grid = TorusGrid((TWO_PI,), (64,))
    L = kdvkdv_operator()
    traj = Trajectory(EvolutionSystem(L, grid), build_profile("random(seed=1, kmax=8)", grid, 2))
    fact = adjoint_factorization(L, semi_conjugacy_solve(L))
    chains = [SymmetryOp(()), SymmetryOp((DiffFactor((({1: 0}, None, (0, 0)),)),))]
    views = [symmetry_view(adjoint_characteristic(L, fact, gen), traj) for gen in chains]
    assert not any(view.weighted for view in views)
    identity, zero_power = kappa_series(concomitant_flux(L), views, traj, np.linspace(0.0, 0.5, 6))
    assert zero_power.values == identity.values and zero_power.drift == identity.drift


@pytest.mark.parametrize(
    "length, kmax", [(-TWO_PI, None), (np.nan, None), (np.inf, None), (TWO_PI, -1.0), (TWO_PI, np.nan)]
)
def test_grid_rejects_signless_or_non_finite_sizes(length, kmax):
    with pytest.raises(ValueError, match="length|kmax"):
        TorusGrid((length,), (16,), kmax)


def test_heat_flow_oracle_internal_consistency():
    prof = lambda y: np.exp(-(y**2) / (2.0 * 4.0))
    s = 1.0
    values, err = heat_flow_product_oracle(prof, s, [s / 4, s / 2, 3 * s / 4])
    assert err <= 1e-8
    assert abs(values[0] - values[1]) / abs(values[1]) <= 1e-6
    # symmetry under t <-> s - t
    assert abs(values[0] - values[2]) / abs(values[2]) <= 1e-12
    # closed form for exp(-y^2 / (2 sigma^2)): sigma^2 sqrt(2 pi / (2 sigma^2 + 2 s)), any t
    exact = 4.0 * np.sqrt(2 * np.pi / (2 * 4.0 + 2 * s))
    assert np.max(np.abs(values - exact)) / exact <= 1e-11
    with pytest.raises(ValueError):
        heat_flow_product_oracle(prof, s, [1.5 * s])


def _direct_oracle(profile, s, times, n):
    """The oracle's fine-grid values with each solve as one ``np.convolve``."""
    y, h = np.linspace(-24.0, 24.0, n, retstep=True)
    w = np.full(n, h)
    w[0] = w[-1] = h / 2
    wf = w * profile(y)
    offsets2 = (h * np.arange(-(n - 1), n)) ** 2

    def solve(t):
        kern = np.exp(-offsets2 / (4.0 * t)) / np.sqrt(4 * np.pi * t)
        return np.convolve(wf, kern, mode="valid")

    return np.array([np.sum(w * solve(t) * solve(s - t)) for t in times])


@pytest.mark.parametrize(
    "profile",
    [
        lambda y: np.exp(-(y**2) / 8.0),
        lambda y: np.exp(-((y - 3.0) ** 2) / 8.0) - 0.5 * np.exp(-((y + 5.0) ** 2) / 2.0),
    ],
    ids=["heat-Es", "asymmetric"],
)
def test_heat_flow_oracle_fft_matches_direct_convolution(profile):
    times = [0.2, 0.5, 0.9]
    values, _ = heat_flow_product_oracle(profile, 1.0, times)
    want = _direct_oracle(profile, 1.0, times, 4801)
    assert np.max(np.abs(values - want) / np.abs(want)) <= 1e-14


def test_heat_flow_oracle_solves_each_distinct_time_once(monkeypatch):
    # E(t) reads the flows at t and s - t: at t in {s/4, s/2, 3s/4} that is
    # three distinct times per grid, so two grids take 6 solves, not 12
    prof = lambda y: np.exp(-(y**2) / 8.0)
    times = [0.25, 0.5, 0.75]
    alone = [heat_flow_product_oracle(prof, 1.0, [t])[0][0] for t in times]
    solves = []
    irfft = np.fft.irfft
    monkeypatch.setattr(np.fft, "irfft", lambda *args, **kw: solves.append(1) or irfft(*args, **kw))
    values, _err = heat_flow_product_oracle(prof, 1.0, times)
    assert len(solves) == 6
    assert [v.hex() for v in values] == [v.hex() for v in alone]


def test_heat_flow_oracle_memory_is_linear_in_grid():
    # a dense (4801, 4801) kernel alone is 184 MB; the convolution needs O(n)
    prof = lambda y: np.exp(-(y**2) / (2.0 * 4.0))
    tracemalloc.start()
    try:
        heat_flow_product_oracle(prof, 1.0, [0.25, 0.5, 0.75])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4e6


@pytest.mark.parametrize(
    "profile, s, times, match",
    [
        (lambda y: np.exp(-(y**2) / 200.0), 1.0, [0.5], "profile is not supported"),  # width 10
        # the data fits inside [-24, 24], but heat flow to t = 100 spreads past the ends
        (lambda y: np.exp(-(y**2) / 8.0), 200.0, [100.0], "heat flow at t=100"),
        (lambda y: np.where(np.abs(y) < 1.0, np.nan, np.exp(-(y**2) / 8.0)), 1.0, [0.5], "non-finite"),
        (lambda y: np.exp(-(y**2) / 8.0), 1.0, [], "times"),
        (lambda y: np.exp(-(y**2) / 8.0), np.nan, [0.5], "s must be a finite"),
        (lambda y: np.exp(-(y**2) / 8.0), np.inf, [0.5], "s must be a finite"),
        (lambda y: np.exp(-(y**2) / 8.0), -1.0, [0.5], "s must be a finite"),
    ],
    ids=["width-10", "spread-by-flow", "non-finite", "no-times", "s-nan", "s-inf", "s-negative"],
)
def test_heat_flow_oracle_refuses_its_preconditions(profile, s, times, match):
    with pytest.raises(ValueError, match=match):
        heat_flow_product_oracle(profile, s, times)


def test_grid_validation():
    with pytest.raises(ValueError):
        TorusGrid((TWO_PI,), (17,))
    with pytest.raises(ValueError):
        TorusGrid((TWO_PI, TWO_PI), (16,))
    with pytest.raises(ValueError, match="on the grid"):
        Trajectory(EvolutionSystem(heat_operator(1), TorusGrid((TWO_PI,), (16,))), np.zeros((1, 8)))


def test_propagate_requires_first_order_system():
    grid = TorusGrid((TWO_PI,), (16,))
    system = EvolutionSystem(wave_operator(1), grid)
    # the wave system's companion state has two components (u, u_t)
    with pytest.raises(ValueError, match="2 components"):
        Trajectory(system, build_profile("random(seed=1, kmax=4)", grid, 1))


def test_non_finite_propagator_is_an_amplification_error():
    # elliptic "evolution" Dt^2 + Dx^2: cosh(k dt) overflows, and inf * 0 in
    # the closed form gives NaN entries that an amplification bound misses
    grid = TorusGrid((0.1,), (256,))
    system = EvolutionSystem(parse_operator("Dt^2 + Dx^2"), grid)
    with pytest.raises(AmplificationError, match="non-finite"):
        system.propagator(0.5, _basis_states(system, 0))


def test_drift_refuses_empty_and_non_finite_series():
    with pytest.raises(ValueError):
        drift_of(())
    with pytest.raises(ValueError, match="non-finite"):
        drift_of((1.0 + 0j, complex(np.nan, 0.0)))
    with pytest.raises(ValueError, match="non-finite"):
        drift_of((1.0 + 0j, 1.0 + 0j), scale=np.inf)
    grid = TorusGrid((TWO_PI,), (16,))
    L = heat_operator(1)
    traj = Trajectory(EvolutionSystem(L, grid), build_profile("random(seed=1, kmax=4)", grid, 1))
    with pytest.raises(ValueError, match="non-finite"):
        kappa_series(concomitant_flux(L), [MatrixView(traj, [[np.nan]])], traj, [0.0, 0.5])[0]


def _rotation_charges(modes):
    # the three rotation charges of the unit-mass Dirac flow on a packet over
    # 7 sample times on a modes^3 box of side 16
    L = dirac_operator(1.0)
    grid = TorusGrid((16.0,) * 3, (modes,) * 3)
    system = EvolutionSystem(L, grid)
    coeffs = build_profile("packet(seed=3, width=1.2, kmax=2, real=False)", grid, 4)
    traj = Trajectory(system, coeffs)
    fact = adjoint_factorization(L, semi_conjugacy_solve(L))
    qviews = [
        symmetry_view(
            adjoint_characteristic(L, fact, build_symmetry(f"dirac.rotation_{axis}")),
            traj,
        )
        for axis in "xyz"
    ]
    return concomitant_flux(L), qviews, traj, np.linspace(0.0, 0.5, 7)


def _traced_kappa_series(monkeypatch, flux, qviews, traj, times):
    """``kappa_series`` under tracemalloc: (series, peak bytes, propagator dts, jets made)."""
    system = traj.system
    calls = []
    propagator = system.propagator
    monkeypatch.setattr(
        system,
        "propagator",
        lambda dt, U, *rest: calls.append(dt) or propagator(dt, U, *rest),
    )
    jets = []
    jet_values = traj.jet_values
    monkeypatch.setattr(
        traj,
        "jet_values",
        lambda t, alpha, *rest: jets.append((t, alpha)) or jet_values(t, alpha, *rest),
    )
    tracemalloc.start()
    try:
        series = kappa_series(flux, qviews, traj, times, support_tol=1.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return series, peak, calls, jets


def test_kappa_series_holds_one_propagator_at_a_time(monkeypatch):
    # the grid is too coarse for a compactly supported packet, so the support
    # guard is off: this checks what is cached, not the drift
    flux, qviews, traj, times = _rotation_charges(16)
    rows = _count_rows(monkeypatch)
    compiles = _count_compiles(monkeypatch)
    series, peak, calls, jets = _traced_kappa_series(monkeypatch, flux, qviews, traj, times)

    assert len(series) == 3 and all(np.isfinite(s.drift) for s in series)
    # 16^3 points over 7 times do not fit in MODE_BLOCK // 2: each time is
    # contracted on its own, one row of each view's one compile per call
    assert traj.grid.npoints * len(times) > spectral.MODE_BLOCK // 2
    assert compiles == [len(times)] * len(qviews)
    assert rows == [1] * (len(times) * len(qviews))
    assert sorted(calls) == sorted(set(calls))
    assert len(calls) == len(times)
    # u and its three first space derivatives, once per time for all three
    # views: 28 jets, where one pass per view computes 84
    assert len(jets) == len(set(jets)) == 4 * len(times)
    # in units of the companion state (n_active * d complex numbers): the
    # four jets of one time are about 5 of these, so holding every time's
    # jets would peak above 34; one time at a time peaks near 7.5
    assert peak < 12 * len(traj.system.active) * 4 * 16


def test_kappa_series_streams_each_time(monkeypatch):
    # at 32^3 a jet is 1.1 companion states (n_active * d complex numbers):
    # a time's four jets are 4.4 of them.  Only they outlive their making:
    # the companion state goes once its one time order is scattered, the
    # scattered coefficients become the plain jet, and the densities are
    # contracted in blocks
    flux, qviews, traj, times = _rotation_charges(32)
    series, peak, calls, jets = _traced_kappa_series(monkeypatch, flux, qviews, traj, times)

    assert all(np.isfinite(s.drift) for s in series)
    assert len(calls) == len(set(calls)) == len(times)
    assert len(jets) == len(set(jets)) == 4 * len(times)
    assert peak < 6 * len(traj.system.active) * 4 * 16


def _per_time_kappa_series(flux, qviews, traj, times, support_tol):
    """``kappa_series`` with one ``traj.jets`` pass per sample time (the reference)."""
    grid = traj.grid
    weighted = any(qview.weighted for qview in qviews)
    u = (0,) * (grid.ndim + 1)
    worst = 0.0
    values = [[] for _ in qviews]
    scales = [0.0] * len(qviews)
    for t in times:
        compiled = [spectral._groups(flux, qview, (float(t),), traj.ncomp) for qview in qviews]
        jets = traj.jets(([(t, u)] if weighted else []) + spectral._jet_keys(compiled, traj, (float(t),))[0])
        for i, groups in enumerate(compiled):
            integrand = spectral._contract_rows(groups, spectral._reader(jets), grid, (float(t),))[0]
            values[i].append(_integrate(grid, integrand))
            scales[i] = max(scales[i], abs(_integrate(grid, np.abs(integrand)).real))
        if weighted:
            fractions = {key: spectral.boundary_fraction(grid, vals) for key, vals in jets.items()}
            worst = max(worst, fractions[(float(t), u)])
            for (tj, alpha), bf in fractions.items():
                if not (bf <= support_tol):
                    raise SupportError(
                        f"boundary fraction {bf:.2e} exceeds {support_tol:g} at t={tj:g} in d^{alpha} u"
                    )
    times = tuple(float(t) for t in times)
    return [
        spectral.KappaSeries(times, tuple(v), sc, drift_of(v, sc), worst if qview.weighted else None)
        for v, sc, qview in zip(values, scales, qviews)
    ]


def _scenario_kappa_inputs(stem):
    """``kappa_series``'s inputs as ``run_scenario`` builds them for a packaged scenario."""
    from conslaw.scenario import _packaged_scenario

    return _kappa_inputs(_packaged_scenario(stem))


def _kappa_inputs(scn):
    """``kappa_series``'s inputs as ``run_scenario`` builds them for the scenario ``scn``."""
    L = build_operator(scn.operator)
    system = EvolutionSystem(L, TorusGrid(**scn.grid), amp_cap=scn.amp_cap)
    traj = Trajectory(system, build_profile(scn.profile, system.grid, L.cols * system.R))
    fact = adjoint_factorization(L, semi_conjugacy_solve(L, seed=scn.seed))
    qviews = [
        symmetry_view(adjoint_characteristic(L, fact, build_symmetry(case.spec)), traj, s=scn.s)
        for case in scn.symmetries
    ]
    return concomitant_flux(L), qviews, traj, scn.times, scn.support_tol


def _series_bits(series):
    return [
        (s.times, [(v.real.hex(), v.imag.hex()) for v in s.values], s.scale.hex(), s.drift.hex(), s.boundary_fraction)
        for s in series
    ]


@pytest.mark.parametrize("stem", ["heat_es", "kdvkdv_quadratic"])
def test_kappa_series_makes_each_reflected_jet_once(monkeypatch, stem):
    # a reflected view at t reads u(s - t); when s - t is sampled too, the two
    # times are contracted from one set of jets
    flux, qviews, traj, times, support_tol = _scenario_kappa_inputs(stem)
    want = _per_time_kappa_series(flux, qviews, traj, times, support_tol)
    made = []
    jet_values = spectral.Trajectory.jet_values
    monkeypatch.setattr(
        spectral.Trajectory,
        "jet_values",
        lambda traj, t, alpha, *rest: made.append((t, alpha)) or jet_values(traj, t, alpha, *rest),
    )
    got = kappa_series(flux, qviews, traj, times, support_tol)
    assert len(made) == len(set(made))
    assert any(float(t) != 0.5 and 1.0 - float(t) in times for t in times)  # there are reflected pairs
    assert _series_bits(got) == _series_bits(want)


def test_support_error_names_the_first_sample_time(monkeypatch):
    # x d/dx of the reflected heat flow reads d_x u(s - t) but u(t): the pair
    # (0.125, 0.875) is contracted first, yet a jet outside the support at
    # t = 0.5 must be named before one at 0.875, as sample order has it
    L = heat_operator(1)
    grid = TorusGrid((TWO_PI,), (32,))
    traj = Trajectory(EvolutionSystem(L, grid), build_profile("random(seed=5, kmax=8)", grid, 1))
    factor = DiffFactor((({1: 1}, None, (0, 1)),))
    view = DiffView(ReflectView(traj, (True, False), s=1.0), factor)
    times = [0.125, 0.25, 0.5, 0.75, 0.875]
    outside = {(0.5, (0, 0)), (0.875, (0, 0))}
    names = {}
    jets = spectral.Trajectory.jets

    def named_jets(traj, keys):
        out = jets(traj, keys)
        names.update({id(vals): key for key, vals in out.items()})
        return out

    monkeypatch.setattr(spectral.Trajectory, "jets", named_jets)
    monkeypatch.setattr(spectral, "boundary_fraction", lambda grid, vals: float(names[id(vals)] in outside))
    messages = []
    for run in (kappa_series, _per_time_kappa_series):
        with pytest.raises(SupportError) as exc:
            run(concomitant_flux(L), [view], traj, times, 1e-10)
        messages.append(str(exc.value))
    assert messages[0] == messages[1]
    assert "at t=0.5 in d^(0, 0) u" in messages[0]


def _count_rows(monkeypatch):
    """The number of rows of each ``evaluate_terms`` call, in a list that fills as they run."""
    rows = []
    evaluate_terms = spectral.evaluate_terms

    def counted(*args):
        out = evaluate_terms(*args)
        rows.append(len(out))
        return out

    monkeypatch.setattr(spectral, "evaluate_terms", counted)
    return rows


def _count_compiles(monkeypatch):
    """The number of times of each ``spectral._groups`` call, in a list that fills as they run."""
    compiles = []
    groups = spectral._groups
    monkeypatch.setattr(
        spectral, "_groups", lambda flux, qview, times, m: compiles.append(len(times)) or groups(flux, qview, times, m)
    )
    return compiles


SMALL_GRID_SCENARIOS = [
    "wave_energy", "kdvkdv_quadratic", "kdvkdv_affine", "heat_es", "heat_negative_control", "dirac_charges",
]


@pytest.mark.parametrize("stem", SMALL_GRID_SCENARIOS)
def test_batched_kappa_series_has_the_per_time_bits(monkeypatch, stem):
    # every sample time's jets fit in MODE_BLOCK // 2 points, so each view is
    # contracted in one evaluate_terms call over every time: dirac's
    # 343 active modes of 512 points, kdvkdv_affine's time- and x-weighted
    # views under the support guard, the kernel shifts, a negative control
    flux, qviews, traj, times, support_tol = _scenario_kappa_inputs(stem)
    want = _per_time_kappa_series(flux, qviews, traj, times, support_tol)
    rows = _count_rows(monkeypatch)
    compiles = _count_compiles(monkeypatch)
    got = kappa_series(flux, qviews, traj, times, support_tol)
    assert _series_bits(got) == _series_bits(want)
    assert rows == [len(times)] * len(qviews)
    # each view is compiled once, for every sample time
    assert compiles == [len(times)] * len(qviews)


def test_kept_jets_are_read_one_view_at_a_time(monkeypatch):
    # dirac_charges keeps every time's jets and contracts each of its views
    # once over all times; each contraction reads views of the jets, and its
    # blocks are dropped before the next view's, so the peak stays a small
    # multiple of the jets (about 1.9x), where copies kept for every view
    # would pass 4x
    flux, qviews, traj, times, support_tol = _scenario_kappa_inputs("dirac_charges")
    made = []
    jets = spectral.Trajectory.jets

    def counted(traj, keys):
        out = jets(traj, keys)
        made.append(sum(vals.nbytes for vals in out.values()))
        return out

    monkeypatch.setattr(spectral.Trajectory, "jets", counted)
    rows = _count_rows(monkeypatch)
    tracemalloc.start()
    try:
        kappa_series(flux, qviews, traj, times, support_tol)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(qviews) > 1 and rows == [len(times)] * len(qviews)  # the kept path
    assert peak <= 4 * sum(made)


@pytest.mark.parametrize("stem", ["heat_es", "dirac_charges"])
def test_batched_kappa_series_takes_the_times_in_any_order(stem):
    # reversed and repeated sample times read the kept jets' rows gathered, not sliced
    flux, qviews, traj, times, support_tol = _scenario_kappa_inputs(stem)
    times = list(times)
    for variant in (times[::-1], times[:3] + times[:3]):
        want = _per_time_kappa_series(flux, qviews, traj, variant, support_tol)
        assert _series_bits(kappa_series(flux, qviews, traj, variant, support_tol)) == _series_bits(want)


@pytest.mark.parametrize("stem", ["heat_es", "kdvkdv_quadratic", "kdvkdv_affine", "dirac_charges"])
def test_one_pass_per_batch_has_the_per_time_bits(monkeypatch, stem):
    # with 64-mode blocks no grid fits in MODE_BLOCK // 2 points, so each
    # batch is a pass of its own: a reflected pair, or a repeated time, is
    # contracted over its rows of the one compile, which an irregular order
    # (t0 and t_last with t0 again) takes unevenly spaced
    monkeypatch.setattr(spectral, "MODE_BLOCK", 64)
    flux, qviews, traj, times, support_tol = _scenario_kappa_inputs(stem)
    times = list(times)
    passes = []
    jets = Trajectory.jets
    monkeypatch.setattr(Trajectory, "jets", lambda tr, keys: passes.append({t for t, _alpha in keys}) or jets(tr, keys))
    shared = []
    for variant in (times, times[::-1], times[:3] + times[:3], [times[0], times[len(times) // 2], times[-1], times[0]]):
        want = _per_time_kappa_series(flux, qviews, traj, variant, support_tol)
        passes.clear()
        got = kappa_series(flux, qviews, traj, variant, support_tol)
        assert _series_bits(got) == _series_bits(want)
        # the sample slots whose time a pass makes jets for
        shared.append(max(sum(t in made for t in variant) for made in passes))
    assert max(shared) >= 2


def test_batched_kappa_series_raises_the_per_time_error(monkeypatch):
    # x d/dx of the reflected heat flow: the jets at t = 0.25 leave the support,
    # and t = 1.5 reads u(-0.5), whose backward propagator exceeds amp_cap;
    # the support error of the earlier time comes first, as one time at a time
    L = heat_operator(1)
    grid = TorusGrid((TWO_PI,), (32,))
    traj = Trajectory(EvolutionSystem(L, grid), build_profile("random(seed=5, kmax=8)", grid, 1))
    view = DiffView(ReflectView(traj, (True, False), s=1.0), DiffFactor((({1: 1}, None, (0, 1)),)))
    names = {}
    jets = spectral.Trajectory.jets

    def named_jets(traj, keys):
        out = jets(traj, keys)
        names.update({id(vals): key for key, vals in out.items()})
        return out

    monkeypatch.setattr(spectral.Trajectory, "jets", named_jets)
    monkeypatch.setattr(spectral, "boundary_fraction", lambda grid, vals: float(names[id(vals)][0] == 0.25))
    cases = [
        ([0.125, 0.25, 0.5, 1.5], SupportError, "at t=0.25 in d^(0, 0) u"),
        ([0.125, 1.5, 0.25], AmplificationError, "for dt=-0.5;"),
    ]
    for times, error, where in cases:
        messages = []
        for run in (kappa_series, _per_time_kappa_series):
            with pytest.raises(error) as exc:
                run(concomitant_flux(L), [view], traj, times, 1e-10)
            messages.append(str(exc.value))
        assert messages[0] == messages[1] and where in messages[0]


def test_two_refused_read_times_name_the_per_time_one():
    # t = 1.5 reads u(-0.5) and t = 1.75 reads u(-0.75), both beyond amp_cap:
    # one pass over every read time meets dt = -0.75 first, but one time at a
    # time meets t = 1.5, and so dt = -0.5, first
    L = heat_operator(1)
    grid = TorusGrid((TWO_PI,), (32,))
    traj = Trajectory(EvolutionSystem(L, grid), build_profile("random(seed=5, kmax=8)", grid, 1))
    view = DiffView(ReflectView(traj, (True, False), s=1.0), DiffFactor((({1: 1}, None, (0, 1)),)))
    times = [0.125, 1.5, 1.75]
    messages = []
    for run in (kappa_series, _per_time_kappa_series):
        with pytest.raises(AmplificationError) as exc:
            run(concomitant_flux(L), [view], traj, times, 1.0)
        messages.append(str(exc.value))
    assert messages[0] == messages[1] and "for dt=-0.5;" in messages[0]
    with pytest.raises(AmplificationError, match=r"for dt=-0\.75;"):
        traj.jets([(-0.5, (0, 0)), (-0.75, (0, 0))])  # one pass names its first time


@pytest.mark.parametrize("stem", ["kdvkdv_quadratic", "dirac_charges"])
def test_a_kept_series_makes_its_jets_in_one_pass(monkeypatch, stem):
    # one traj.jets call; per block one factor evaluation for every read
    # time; one scatter per time order; the propagator once per (time,
    # block) with a float dt; jet_values once per (t, alpha)
    flux, qviews, traj, times, support_tol = _scenario_kappa_inputs(stem)
    want = _per_time_kappa_series(flux, qviews, traj, times, support_tol)
    system = traj.system
    passes, factors, scatters, steps, made = [], [], [], [], []
    jets, evaluate, field_coeffs = Trajectory.jets, system.factors, traj._field_coeffs
    propagator, jet_values = system.propagator, traj.jet_values
    monkeypatch.setattr(Trajectory, "jets", lambda tr, keys: passes.append(set(keys)) or jets(tr, keys))
    monkeypatch.setattr(system, "factors", lambda dts, *rest: factors.append(len(dts)) or evaluate(dts, *rest))
    monkeypatch.setattr(traj, "_field_coeffs", lambda U: scatters.append(len(U)) or field_coeffs(U))
    monkeypatch.setattr(
        system, "propagator", lambda dt, U, modes, *rest: steps.append((dt, modes.start)) or propagator(dt, U, modes, *rest)
    )
    monkeypatch.setattr(traj, "jet_values", lambda t, alpha, *rest: made.append((t, alpha)) or jet_values(t, alpha, *rest))
    got = kappa_series(flux, qviews, traj, times, support_tol)
    assert _series_bits(got) == _series_bits(want)
    (keys,) = passes
    read_times = {t for t, _alpha in keys}
    assert factors == [len(read_times)] * len(system.blocks())
    assert len(scatters) == len({alpha[0] for _t, alpha in keys})
    assert len(steps) == len(set(steps)) == len(read_times) * len(system.blocks())
    assert all(type(dt) is float for dt, _start in steps)
    assert sorted(made) == sorted(keys)


def test_kept_reads_are_views_of_the_jet_stacks(monkeypatch):
    # dirac_charges reads u at its 9 sample times and at their 9 reflections,
    # which interleave in the one stack: every read is a strided view of it,
    # a reflected one with a negative step, and no row is copied
    flux, qviews, traj, times, support_tol = _scenario_kappa_inputs("dirac_charges")
    passes, reads = [], []
    jets, evaluate_terms = Trajectory.jets, spectral.evaluate_terms

    def traced(groups, jet_q, jet_p, weight):
        for (_w, src, gamma) in groups:
            reads.append(jet_p(gamma))
            if src[0] is traj:
                reads.append(jet_q(src)[0])
        return evaluate_terms(groups, jet_q, jet_p, weight)

    monkeypatch.setattr(Trajectory, "jets", lambda tr, keys: passes.append(jets(tr, keys)) or passes[-1])
    monkeypatch.setattr(spectral, "evaluate_terms", traced)
    kappa_series(flux, qviews, traj, times, support_tol)
    (kept,) = passes
    stacks = [stack for _rows, stack in kept.stacks.values()]
    assert reads and all(any(np.shares_memory(x, stack) for stack in stacks) for x in reads)
    assert any(x.strides[0] < 0 for x in reads)  # the reflected source times


def test_a_kept_series_peaks_below_its_stacked_copies():
    # dirac_charges holds 0.59 MB of jets, which the contractions read as
    # views; a stacked copy of each row they read would take the peak to
    # about 1.7 MB
    flux, qviews, traj, times, support_tol = _scenario_kappa_inputs("dirac_charges")
    tracemalloc.start()
    try:
        kappa_series(flux, qviews, traj, times, support_tol)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.2e6


def _template_scenarios():
    """The benchmark's scenario templates, filled in at workload seeds 0 and 7."""
    import importlib.util
    import sys
    from pathlib import Path

    from conslaw.scenario import parse_scenario

    path = Path(__file__).resolve().parents[1] / "benchmark" / "workloads.py"
    spec = importlib.util.spec_from_file_location("benchmark_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses resolve their module by name
    try:
        spec.loader.exec_module(module)
        return [
            pytest.param(parse_scenario(text, name=name), id=f"{name}-{seed}")
            for seed in (0, 7)
            for name, text in module.scenario_texts(seed).items()
        ]
    finally:
        del sys.modules[spec.name]


@pytest.mark.parametrize("scn", _template_scenarios())
def test_benchmark_templates_have_the_per_time_bits(scn):
    flux, qviews, traj, times, support_tol = _kappa_inputs(scn)
    want = _per_time_kappa_series(flux, qviews, traj, times, support_tol)
    assert _series_bits(kappa_series(flux, qviews, traj, times, support_tol)) == _series_bits(want)


@pytest.mark.parametrize("plain_first", [True, False], ids=["plain-first", "derivative-first"])
def test_jets_do_not_depend_on_the_order_they_are_asked_for(plain_first):
    # the plain jet is transformed in place of the scattered coefficients, so
    # a derivative asked for after it scatters them again
    grid = TorusGrid((8.0, 6.0, 10.0), (8, 4, 16))
    L = dirac_operator(1.0)
    coeffs = build_profile("random(seed=8, kmax=3, real=False)", grid, 4)
    alphas = [(0, 0, 0, 0), (0, 1, 0, 0), (0, 0, 2, 1), (1, 0, 0, 0), (1, 0, 0, 1)]
    order = sorted(alphas, key=lambda a: any(a[1:]) == plain_first)
    # every key made in one pass, each time order scattered once, gives each
    # jet as a pass that makes it alone
    jets = Trajectory(EvolutionSystem(L, grid), coeffs).jets([(0.3, alpha) for alpha in order])
    for alpha in alphas:
        fresh = Trajectory(EvolutionSystem(L, grid), coeffs)
        assert np.array_equal(jets[(0.3, alpha)], _jet(fresh, 0.3, alpha))


def test_a_trajectory_refuses_non_finite_coefficients():
    grid = TorusGrid((TWO_PI,), (16,))
    system = EvolutionSystem(build_operator("heat(dim=1)"), grid)
    coeffs = np.zeros((1, 16), dtype=complex)
    coeffs[0, 1] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        Trajectory(system, coeffs)


def test_a_trajectory_is_stateless():
    flux, qviews, traj, times = _rotation_charges(8)
    first = kappa_series(flux, qviews, traj, times, support_tol=1.0)
    assert set(vars(traj)) == {"system", "U0", "_AU0"}
    second = kappa_series(flux, qviews, traj, times, support_tol=1.0)
    for a, b in zip(first, second):
        assert np.array_equal(a.values, b.values)


def test_jets_propagate_each_time_and_scatter_each_order_once(monkeypatch):
    grid = TorusGrid((8.0, 6.0, 10.0), (8, 4, 16))
    L = dirac_operator(1.0)
    coeffs = build_profile("random(seed=8, kmax=3, real=False)", grid, 4)
    alphas = [(0, 0, 0, 0), (0, 1, 0, 0), (0, 0, 2, 1), (1, 0, 0, 0), (1, 0, 0, 1)]
    keys = [(t, alpha) for t in (0.3, -0.2) for alpha in alphas]
    traj = Trajectory(EvolutionSystem(L, grid), coeffs)
    companions, scatters = [], []
    companion, field_coeffs = traj._companions, traj._field_coeffs
    monkeypatch.setattr(traj, "_companions", lambda ts: companions.append(list(ts)) or companion(ts))
    monkeypatch.setattr(traj, "_field_coeffs", lambda U: scatters.append(U.shape) or field_coeffs(U))
    jets = traj.jets(keys)
    assert companions == [[-0.2, 0.3]]  # one stacked propagation of both times
    # one scatter per time order (0 and 1), each of both times' states
    assert scatters == [(2, len(traj.system.active), 4)] * 2
    fresh = Trajectory(EvolutionSystem(L, grid), coeffs)
    assert set(jets) == set(keys)
    for (t, alpha), vals in jets.items():
        assert np.array_equal(vals, _jet(fresh, t, alpha))


def _per_mode_companion(L, kspace):
    # the companion formula one mode at a time, with scalar symbol arithmetic
    m, R = L.cols, L.time_order()
    C = []
    for r in range(R + 1):
        out = np.zeros(L.shape, dtype=complex)
        for alpha, mat in L.terms.items():
            if alpha[0] == r:
                factor = 1.0 + 0j
                for e, kj in zip(alpha[1:], np.asarray(kspace, dtype=complex)):
                    if e:
                        factor *= (1j * kj) ** e
                out += factor * mat
        C.append(out)
    lead_inv = np.linalg.inv(C[R])
    A = np.zeros((m * R, m * R), dtype=complex)
    for r in range(R - 1):
        A[r * m : (r + 1) * m, (r + 1) * m : (r + 2) * m] = np.eye(m)
    for r in range(R):
        A[(R - 1) * m :, r * m : (r + 1) * m] = -lead_inv @ C[r]
    return A


@pytest.mark.parametrize(
    "spec, grid",
    [
        ("heat(dim=2, nu=0.5)", TorusGrid((TWO_PI, 3.0), (16, 32), kmax=6.0)),
        ("wave(dim=3)", TorusGrid((TWO_PI,) * 3, (8,) * 3)),
        ("kdvkdv", TorusGrid((TWO_PI,), (64,))),
        ("jordan2x2", TorusGrid((TWO_PI,), (32,))),
        ("dirac(m=0.0)", TorusGrid((8.0, 6.0, 10.0), (8, 4, 16))),
    ],
)
def test_batched_companion_matrices_equal_the_per_mode_formula(spec, grid):
    L = build_operator(spec)
    system = EvolutionSystem(L, grid)
    kk = [k.reshape(-1)[system.active] for k in grid.wavevector_grids()]
    ref = np.array([_per_mode_companion(L, [k[i] for k in kk]) for i in range(len(system.active))])
    assert np.array_equal(system.A, ref)
    if spec == "jordan2x2":  # k-dependent leading coefficient, expm on every mode
        assert not system.fast.any()


def test_singular_leading_coefficient_names_the_first_singular_mode():
    # (1 + Dx^2) Dt - Dx^2: the leading coefficient 1 - k^2 vanishes at k = +-1
    L = ConstCoeffOperator(2, (1, 1), {(1, 0): [[1]], (1, 2): [[1]], (0, 2): [[-1]]})
    with pytest.raises(ValueError, match=r"singular at k=\(1\.0,\)$"):
        EvolutionSystem(L, TorusGrid((TWO_PI,), (16,)))
    with pytest.raises(ValueError, match=r"singular at k=\(0\.0, 0\.0, 0\.0\)$"):
        EvolutionSystem(navier_stokes_operator(), TorusGrid((TWO_PI,) * 3, (8,) * 3))


@pytest.mark.parametrize(
    "spec, grid",
    [
        ("dirac", TorusGrid((8.0,) * 3, (8,) * 3)),
        ("wave(dim=1)", TorusGrid((TWO_PI,), (64,))),
        ("jordan2x2", TorusGrid((TWO_PI,), (32,))),
    ],
)
def test_blocks_of_modes_give_the_one_block_result(monkeypatch, spec, grid):
    L = build_operator(spec)

    def run():
        system = EvolutionSystem(L, grid)
        coeffs = build_profile("random(seed=7, kmax=3)", grid, L.cols * system.R)
        traj = Trajectory(system, coeffs)
        alpha = (1,) + (1,) * grid.ndim
        return system, _coeffs_at(traj, 0.3), _jet(traj, -0.2, alpha)

    whole = run()
    monkeypatch.setattr(spectral, "MODE_BLOCK", 5)
    blocked = run()
    assert len(blocked[0].blocks()) > 2
    for name in ("A", "fast"):
        assert np.array_equal(getattr(whole[0], name), getattr(blocked[0], name))
    if whole[0].matrix_free:
        assert np.array_equal(whole[0].lam, blocked[0].lam)
    else:  # jordan2x2: a stacked system has no closed form
        assert whole[0].lam is None and blocked[0].lam is None
    assert np.array_equal(whole[1], blocked[1])
    assert np.array_equal(whole[2], blocked[2])


def test_build_memory_is_linear_in_the_state_size(monkeypatch):
    # the matrix-free Dirac build holds O(d) bytes per mode (the monomials,
    # lam and the mode index); one (n_active, d, d) stack alone would be d = 4
    # state sizes
    monkeypatch.setattr(spectral, "MODE_BLOCK", 1024)
    grid = TorusGrid((16.0,) * 3, (32,) * 3)
    tracemalloc.start()
    try:
        system = EvolutionSystem(dirac_operator(1.0), grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    state = len(system.active) * 4 * 16
    assert peak < 2 * state


@pytest.mark.parametrize("alpha", [(0, 0, 0, 0), (0, 0, 2, 1)], ids=["u", "d_y^2 d_z u"])
def test_jet_values_are_the_scaled_inverse_transform(alpha):
    # the in-place unscaled transform gives ifftn(c) * npoints bit for bit
    grid = TorusGrid((8.0, 6.0, 10.0), (8, 4, 16))
    L = dirac_operator(1.0)
    coeffs = build_profile("random(seed=8, kmax=3, real=False)", grid, 4)
    traj = Trajectory(EvolutionSystem(L, grid), coeffs)
    c = _coeffs_at(traj, 0.3)
    for k, e in zip(grid.wavevector_grids(), alpha[1:]):
        c = c * (1j * k) ** e
    want = np.fft.ifftn(c, axes=(1, 2, 3)) * grid.npoints
    assert np.array_equal(_jet(traj, 0.3, alpha), want)


def test_one_axis_transforms_give_the_n_d_bits_in_place():
    # a one-axis grid takes ifft / fft, not the n-d wrappers, with the same bits
    rng = np.random.default_rng(4)
    for n in (4, 8, 16, 32, 64, 128, 256, 512, 1024):
        for ncomp in (1, 2, 3, 4):
            a = rng.standard_normal((ncomp, n)) + 1j * rng.standard_normal((ncomp, n))
            for transform, old in ((spectral._to_grid, np.fft.ifftn), (spectral._to_coeffs, np.fft.fftn)):
                want = old(a.copy(), axes=(1,), norm="forward", out=a.copy())
                b = a.copy()
                assert transform(b) is b
                assert np.array_equal(b, want), (n, ncomp, transform.__name__)


def _grid_jet(view, t, alpha):
    """A view's jet as grid values, by the per-view array arithmetic."""
    if isinstance(view, Trajectory):
        return _jet(view, t, alpha)
    if isinstance(view, ShiftView):
        vals = view.field.diff_multi(alpha).evaluate(t, view.grid.point_list())
        return vals.reshape((view.ncomp,) + view.grid.modes)
    if isinstance(view, MatrixView):
        return np.einsum("ab,b...->a...", view.matrix, _grid_jet(view.inner, t, alpha))
    if isinstance(view, ConjView):
        return np.conj(_grid_jet(view.inner, t, alpha))
    if isinstance(view, ReflectView):
        vals = _grid_jet(view.inner, view.s - t if view.mask[0] else t, alpha)
        for axis, flip in enumerate(view.mask[1:], start=1):
            if flip:  # grid point i -> -i mod n
                vals = np.roll(np.flip(vals, axis), 1, axis)
        return (-1) ** sum(a for a, flip in zip(alpha, view.mask) if flip) * vals
    assert isinstance(view, DiffView)
    grid = view.grid
    out = np.zeros_like(_grid_jet(view.inner, t, alpha))
    for poly, mat, delta in view.factor.terms:
        total = tuple(a + d for a, d in zip(alpha, delta))
        piece = _grid_jet(view.inner, t, total)
        for slot, _e in poly:
            if slot == 0:
                piece = piece * t
            else:
                shape = [1] * (grid.ndim + 1)
                shape[slot] = grid.modes[slot - 1]
                piece = piece * grid.coordinates()[slot - 1].reshape(shape)
            if alpha[slot]:  # d^alpha (x f) = x d^alpha f + alpha_x d^(alpha - e_x) f
                lower = tuple(v - (d == slot) for d, v in enumerate(total))
                piece = piece + alpha[slot] * _grid_jet(view.inner, t, lower)
        if mat is not None:
            piece = np.einsum("ab,b...->a...", mat, piece)
        out = out + piece
    return out


_WEIGHTED = DiffFactor(
    (
        ({1: 1}, None, (0, 0)),  # x u
        ({0: 1}, None, (0, 1)),  # t u_x
        ((), None, (1, 0)),  # u_t
    )
)
_D_X = DiffFactor((((), None, (0, 1)),))
_LINE = TorusGrid((TWO_PI,), (64,))
_BOX = TorusGrid((8.0,) * 3, (8,) * 3)


@pytest.mark.parametrize(
    "op, grid, symmetry, s",
    [
        ("kdvkdv", _LINE, "kdvkdv.swap", 0.0),
        ("dirac(m=1.0)", _BOX, "dirac.cpt", 0.0),
        ("dirac(m=1.0)", _BOX, "dirac.Gamma0", 0.2),
        ("heat(dim=2)", TorusGrid((TWO_PI, 4.0), (16, 8)), "heat.space_reflection(dim=2)", 0.6),
        # wave's density reads beta = (1, 0): the weighted view takes the
        # product rule in t, and under the outer d_x also in x
        ("wave(dim=1)", _LINE, SymmetryOp((_D_X, _WEIGHTED)), 0.0),
        ("wave(dim=1)", _LINE, "wave.time_translation", 0.0),
        ("kdvkdv", _LINE, "kdvkdv.shift_linear_a", 0.0),
        ("kdvkdv", _LINE, SymmetryOp((DiffFactor(()),)), 0.0),
        # the flipped x weight is the grid flip of x, which is not -x at index 0
        ("kdvkdv", _LINE, SymmetryOp((PointReflect((True, True)), _WEIGHTED)), 0.7),
    ],
    ids=[
        "matrix",
        "conjugation",
        "time-reflection",
        "space-reflection",
        "weights-and-product-rule",
        "wave-beta-1-0",
        "weighted-shift",
        "empty-diff",
        "reflection-outside-weight",
    ],
)
def test_compiled_density_matches_view_arithmetic(op, grid, symmetry, s):
    L = build_operator(op)
    system = EvolutionSystem(L, grid, amp_cap=1e8)
    coeffs = build_profile("random(seed=9, kmax=3, real=False)", grid, L.cols * system.R)
    traj = Trajectory(system, coeffs)
    gen = build_symmetry(symmetry) if isinstance(symmetry, str) else symmetry
    char = adjoint_characteristic(L, adjoint_factorization(L, semi_conjugacy_solve(L)), gen)
    view = symmetry_view(char, traj, s=s)
    flux = concomitant_flux(L)
    t = 0.3
    want = 0
    for (beta, i, gamma, j), c in flux.density_terms.items():
        want = want + c * np.conj(_grid_jet(view, t, beta)[i]) * _jet(traj, t, gamma)[j]
    # the density as kappa_series contracts it, for the one time t
    groups = spectral._groups(flux, view, (t,), traj.ncomp)
    jets = traj.jets(spectral._jet_keys([groups], traj, (t,))[0])
    got = spectral._contract_rows(groups, spectral._reader(jets), grid, (t,))[0].reshape(grid.modes)
    assert got.shape == grid.modes
    assert np.abs(got - want).sum() <= 1e-13 * np.abs(want).sum()
    # only the empty DiffFactor gives a zero density, and then exactly zero
    assert np.any(want) != (getattr(gen, "factors", None) == (DiffFactor(()),))


@pytest.mark.parametrize("modes", [64, 2048], ids=["kept", "streamed"])
@pytest.mark.parametrize(
    "op, symmetry, s",
    [
        ("wave(dim=1)", SymmetryOp((_D_X, _WEIGHTED)), 0.0),
        ("kdvkdv", SymmetryOp((PointReflect((True, True)), _WEIGHTED)), 0.7),
    ],
    ids=["under-d_x", "under-reflection"],
)
def test_time_weighted_chains_have_the_per_time_bits(monkeypatch, op, symmetry, s, modes):
    # ``t u_x`` gives each sample time its own coefficient, so these views
    # compile a (T, k, m) stack of B; under the reflection the time slot
    # reads s - t.  64 points keep every time's jets, 2048 stream them
    L = build_operator(op)
    grid = TorusGrid((TWO_PI,), (modes,))
    system = EvolutionSystem(L, grid, amp_cap=1e8)
    traj = Trajectory(system, build_profile("random(seed=9, kmax=3, real=False)", grid, L.cols * system.R))
    char = adjoint_characteristic(L, adjoint_factorization(L, semi_conjugacy_solve(L)), symmetry)
    view = symmetry_view(char, traj, s=s)
    flux = concomitant_flux(L)
    times = tuple(float(t) for t in np.linspace(0.0, 0.5, 11))
    assert any((B != B[0]).any() for B in spectral._groups(flux, view, times, traj.ncomp).values())
    want = _per_time_kappa_series(flux, [view], traj, times, 1.0)
    rows = _count_rows(monkeypatch)
    got = kappa_series(flux, [view], traj, times, support_tol=1.0)
    assert _series_bits(got) == _series_bits(want)
    assert rows == ([len(times)] if modes == 64 else [1] * len(times))


def _has_time_slot(gen):
    """Whether a ``DiffFactor`` of the chain ``gen`` weights a term by ``t``."""
    return any(
        poly and poly[0][0] == 0
        for f in getattr(gen, "factors", ())
        if isinstance(f, DiffFactor)
        for poly, _mat, _alpha in f.terms
    )


def _assert_one_group_shape(flux, view, times, m, time_slot):
    """Every group of ``view`` is a ``(T, k, m)`` stack; without a time slot its rows are bit-equal."""
    groups = spectral._groups(flux, view, times, m)
    assert groups
    for (_w, src, _gamma), B in groups.items():
        assert B.shape == (len(times), src[0].ncomp, m)
        if not time_slot:
            assert all(row.tobytes() == B[0].tobytes() for row in B)
    if time_slot:
        assert any((B != B[0]).any() for B in groups.values())


PACKAGED_SCENARIOS = sorted(SMALL_GRID_SCENARIOS + ["dirac_angular_momentum"])


@pytest.mark.parametrize("stem", PACKAGED_SCENARIOS)
def test_every_packaged_view_compiles_one_matrix_per_time(stem):
    # the views of each shipped scenario, on a grid of 8 points per axis: the
    # compile reads the grid only through the trajectory it names
    from conslaw.scenario import _packaged_scenario

    scn = _packaged_scenario(stem)
    L = build_operator(scn.operator)
    grid = TorusGrid(**{**scn.grid, "modes": (8,) * len(scn.grid["modes"])})
    system = EvolutionSystem(L, grid, amp_cap=scn.amp_cap)
    traj = Trajectory(system, np.zeros((L.cols * system.R,) + grid.modes))
    fact = adjoint_factorization(L, semi_conjugacy_solve(L, seed=scn.seed))
    flux = concomitant_flux(L)
    times = tuple(float(t) for t in scn.times)
    for case in scn.symmetries:
        gen = build_symmetry(case.spec)
        view = symmetry_view(adjoint_characteristic(L, fact, gen), traj, s=scn.s)
        _assert_one_group_shape(flux, view, times, traj.ncomp, _has_time_slot(gen))


@pytest.mark.parametrize(
    "op, symmetry, s",
    [
        ("wave(dim=1)", SymmetryOp((_D_X, _WEIGHTED)), 0.0),
        ("kdvkdv", SymmetryOp((PointReflect((True, True)), _WEIGHTED)), 0.7),
        ("kdvkdv", SymmetryOp((PointReflect((True, True)), _D_X)), 0.7),
    ],
    ids=["under-d_x", "under-reflection", "no-time-slot"],
)
def test_weighted_chains_compile_one_matrix_per_time(op, symmetry, s):
    L = build_operator(op)
    system = EvolutionSystem(L, _LINE, amp_cap=1e8)
    traj = Trajectory(system, np.zeros((L.cols * system.R,) + _LINE.modes))
    char = adjoint_characteristic(L, adjoint_factorization(L, semi_conjugacy_solve(L)), symmetry)
    view = symmetry_view(char, traj, s=s)
    times = tuple(float(t) for t in np.linspace(0.0, 0.5, 11))
    _assert_one_group_shape(concomitant_flux(L), view, times, traj.ncomp, _has_time_slot(symmetry))
