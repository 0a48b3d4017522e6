import tracemalloc

import numpy as np
import pytest

from conslaw.adjoint import adjoint_factorization, semi_conjugacy_solve
from conslaw.catalog import (
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
from conslaw.spectral import (
    AmplificationError,
    EvolutionSystem,
    MatrixView,
    SpectralState,
    SupportError,
    TorusGrid,
    Trajectory,
    characteristic_view,
    drift_of,
    heat_flow_product_oracle,
    integrate,
    kappa_series,
)

TWO_PI = 2 * np.pi


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


def test_propagator_semigroup_property():
    grid = TorusGrid((TWO_PI,), (32,))
    for L in (wave_operator(1), kdvkdv_operator()):
        system = EvolutionSystem(L, grid)
        P1 = system.propagator(0.3)
        P2 = system.propagator(0.45)
        P3 = system.propagator(0.75)
        assert np.max(np.abs(P1 @ P2 - P3)) <= 1e-12


def test_round_trip_propagation():
    grid = TorusGrid((TWO_PI,), (64,))
    system = EvolutionSystem(kdvkdv_operator(), grid)
    coeffs = build_profile("random(seed=1, kmax=20)", grid, 2)
    state = SpectralState(grid, coeffs)
    fwd = Trajectory(system, state.coeffs).state_at(0.8)
    back = Trajectory(system, fwd.coeffs, t0=fwd.time).state_at(0.0)
    assert np.max(np.abs(back.coeffs - state.coeffs)) <= 1e-12 * np.max(np.abs(state.coeffs))


def test_heat_single_mode_decay():
    grid = TorusGrid((TWO_PI,), (16,))
    system = EvolutionSystem(heat_operator(1), grid)
    coeffs = np.zeros((1, 16), dtype=complex)
    coeffs[0, 3] = 1.0
    state = SpectralState(grid, coeffs)
    out = Trajectory(system, state.coeffs).state_at(0.5)
    k = grid.wavenumbers()[0][3]
    assert abs(out.coeffs[0, 3] - np.exp(-(k**2) * 0.5)) <= 1e-14


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
    state = SpectralState(grid, coeffs)
    t = 0.7
    out = Trajectory(system, state.coeffs).state_at(t)
    got = out.coeffs[(slice(None),) + kidx]
    assert np.max(np.abs(got - v * np.exp(-1j * E * t))) <= 1e-12


def test_solutions_satisfy_operator_on_band_limited_subspace():
    grid = TorusGrid((TWO_PI,), (32,))
    for L in (heat_operator(1), kdvkdv_operator(), wave_operator(1)):
        system = EvolutionSystem(L, grid)
        coeffs = build_profile("random(seed=2, kmax=10)", grid, L.cols * system.R)
        traj = Trajectory(system, coeffs)
        resid = None
        for alpha, mat in L.terms.items():
            vals = traj.jet_values(0.6, alpha)
            piece = np.einsum("ab,b...->a...", mat, vals)
            resid = piece if resid is None else resid + piece
        scale = np.max(np.abs(traj.jet_values(0.6, (0,) * L.nvars)))
        assert np.max(np.abs(resid)) <= 1e-12 * max(scale, 1.0) * 1e3


def test_parseval_consistency():
    grid = TorusGrid((TWO_PI,), (64,))
    coeffs = build_profile("random(seed=3, kmax=20)", grid, 1)
    state = SpectralState(grid, coeffs)
    vals = state.values()
    quad = integrate(grid, np.abs(vals) ** 2).real
    assert abs(quad - state.norm_sq()) <= 1e-10 * max(quad, 1.0)


def test_amplification_cap_raises_for_backward_heat():
    grid = TorusGrid((TWO_PI,), (64,))
    system = EvolutionSystem(heat_operator(1), grid, amp_cap=1e6)
    coeffs = build_profile("random(seed=4, kmax=20)", grid, 1)
    state = SpectralState(grid, coeffs)
    with pytest.raises(AmplificationError):
        Trajectory(system, state.coeffs).state_at(-1.0)
    # under the cap: small backward step on a band-limited grid is fine
    lowpass = TorusGrid((TWO_PI,), (64,), kmax=3.5)
    system = EvolutionSystem(heat_operator(1), lowpass, amp_cap=1e6)
    state = SpectralState(lowpass, build_profile("random(seed=4, kmax=3)", lowpass, 1))
    out = Trajectory(system, state.coeffs).state_at(-1.0)
    assert np.all(np.isfinite(out.coeffs))


def test_support_guard_for_position_weighting():
    grid = TorusGrid((TWO_PI,), (32,))
    L = kdvkdv_operator()
    system = EvolutionSystem(L, grid)
    coeffs = build_profile("random(seed=5, kmax=8)", grid, 2)
    traj = Trajectory(system, coeffs)
    from conslaw.spectral import DiffView
    from conslaw.symmetry import DiffFactor

    factor = DiffFactor((({1: 1}, None, (0, 0)),))  # multiply by x
    view = DiffView(traj, factor, support_tol=1e-10)
    with pytest.raises(SupportError):
        view.jet(0.1, (0, 0))


def test_heat_flow_oracle_internal_consistency():
    prof = lambda y: np.exp(-(y**2) / (2.0 * 4.0))
    s = 1.0
    values, err = heat_flow_product_oracle(prof, s, [s / 4, s / 2, 3 * s / 4])
    assert err <= 1e-8
    assert abs(values[0] - values[1]) / abs(values[1]) <= 1e-6
    # symmetry under t <-> s - t
    assert abs(values[0] - values[2]) / abs(values[2]) <= 1e-12
    with pytest.raises(ValueError):
        heat_flow_product_oracle(prof, s, [1.5 * s])


def test_grid_validation():
    with pytest.raises(ValueError):
        TorusGrid((TWO_PI,), (17,))
    with pytest.raises(ValueError):
        TorusGrid((TWO_PI, TWO_PI), (16,))
    with pytest.raises(ValueError):
        SpectralState(TorusGrid((TWO_PI,), (16,)), np.zeros((1, 8)))


def test_reality_detection():
    grid = TorusGrid((TWO_PI,), (32,))
    real_state = SpectralState(grid, build_profile("random(seed=6, kmax=8)", grid, 1))
    assert real_state.is_real()
    complex_state = SpectralState(
        grid, build_profile("random(seed=6, kmax=8, real=False)", grid, 1)
    )
    assert not complex_state.is_real()


def test_propagate_requires_first_order_system():
    grid = TorusGrid((TWO_PI,), (16,))
    system = EvolutionSystem(wave_operator(1), grid)
    state = SpectralState(grid, build_profile("random(seed=1, kmax=4)", grid, 1))
    # the wave system's companion state has two components (u, u_t)
    with pytest.raises(ValueError, match="2 components"):
        Trajectory(system, state.coeffs)


def test_non_finite_propagator_is_an_amplification_error():
    # elliptic "evolution" Dt^2 + Dx^2: cosh(k dt) overflows, and inf * 0 in
    # the closed form gives NaN entries that an amplification bound misses
    grid = TorusGrid((0.1,), (256,))
    system = EvolutionSystem(parse_operator("Dt^2 + Dx^2"), grid)
    with pytest.raises(AmplificationError, match="non-finite"):
        system.propagator(0.5)


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
        kappa_series(concomitant_flux(L), MatrixView(traj, [[np.nan]]), traj, [0.0, 0.5])


def test_kappa_series_holds_one_propagator_at_a_time(monkeypatch):
    # one rotation charge on a 16^3 Dirac torus over 7 sample times; the
    # grid is too coarse for a compactly supported packet, so the support
    # guard is off: this checks what is cached, not the drift
    L = dirac_operator(1.0)
    grid = TorusGrid((16.0,) * 3, (16,) * 3)
    system = EvolutionSystem(L, grid)
    coeffs = build_profile("packet(seed=3, width=1.2, kmax=2, real=False)", grid, 4)
    traj = Trajectory(system, coeffs)
    fact = adjoint_factorization(L, semi_conjugacy_solve(L))
    char = adjoint_characteristic(L, fact, build_symmetry("dirac.rotation_z"))
    qview = characteristic_view(char, traj, support_tol=1.0)
    flux = concomitant_flux(L)
    times = np.linspace(0.0, 0.5, 7)

    calls = []
    propagator = system.propagator
    monkeypatch.setattr(system, "propagator", lambda dt: calls.append(dt) or propagator(dt))
    tracemalloc.start()
    try:
        series = kappa_series(flux, qview, traj, times)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()

    assert np.isfinite(series.drift)
    assert sorted(calls) == sorted(set(calls))
    assert len(calls) == len(times)
    # a propagator has the size of system.A; holding all seven propagators
    # and every time's jets peaks near 15 of these, one at a time near 6
    assert peak < 8 * system.A.nbytes
