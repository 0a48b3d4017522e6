"""The machinery's conserved functionals against directly computed forms."""

import numpy as np

from conslaw.adjoint import adjoint_factorization, semi_conjugacy_solve
from conslaw.catalog import (
    build_profile,
    build_symmetry,
    dirac_operator,
    kdvkdv_operator,
    wave_operator,
)
from conslaw.current import adjoint_characteristic, concomitant_flux
from conslaw.gamma import dirac_representation
from conslaw.spectral import (
    EvolutionSystem,
    TorusGrid,
    Trajectory,
    kappa_series,
    symmetry_view,
)

TWO_PI = 2 * np.pi


def _integrate(grid, values):
    """Spectral quadrature: box volume times the grid mean (the zero mode)."""
    return grid.volume * complex(np.mean(values))


def _jet(traj, t, alpha):
    """The grid values of ``d^alpha u(t)``, from one ``Trajectory.jets`` pass."""
    return traj.jets([(t, alpha)])[(float(t), tuple(alpha))]


def _u(traj, t):
    """The grid values of ``u(t)``."""
    return _jet(traj, t, (0,) * (traj.grid.ndim + 1))


def _pipeline(L, grid, profile, amp_cap=1e6):
    system = EvolutionSystem(L, grid, amp_cap=amp_cap)
    coeffs = build_profile(profile, grid, L.cols * system.R)
    traj = Trajectory(system, coeffs)
    fact = adjoint_factorization(L, semi_conjugacy_solve(L))
    return traj, fact


def _series(L, char, traj, times, s=0.0):
    """The conserved functional of ``char`` sampled along ``traj``."""
    qview = symmetry_view(char, traj, s=s)
    return kappa_series(concomitant_flux(L), [qview], traj, times)[0]


def test_wave_energy_equals_simplified_form():
    # the raw density (Gu) u_t - u D_t(Gu) integrates to the energy
    # integral(u_t^2 + |grad u|^2) on periodic fields
    L = wave_operator(1)
    grid = TorusGrid((TWO_PI,), (128,))
    traj, fact = _pipeline(L, grid, "random(seed=17, kmax=30)")
    char = adjoint_characteristic(L, fact, build_symmetry("wave.time_translation"))
    series = _series(L, char, traj, [0.0, 0.45])
    for t, kappa in zip(series.times, series.values):
        ut = _jet(traj, t, (1, 0))[0]
        ux = _jet(traj, t, (0, 1))[0]
        energy = _integrate(grid, np.abs(ut) ** 2 + np.abs(ux) ** 2)
        assert abs(kappa - energy) <= 1e-10 * abs(energy)


def test_kdvkdv_quadratic_charges_take_printed_values():
    L = kdvkdv_operator()
    grid = TorusGrid((TWO_PI,), (128,))
    traj, fact = _pipeline(L, grid, "random(seed=18, kmax=20)")
    t = 0.3
    u, v = _u(traj, t)

    char = adjoint_characteristic(L, fact, build_symmetry("kdvkdv.identity"))
    kappa5 = _series(L, char, traj, [t]).values[0]
    want5 = _integrate(grid, np.abs(u) ** 2 + np.abs(v) ** 2)
    assert abs(kappa5 - want5) <= 1e-12 * abs(want5)

    char = adjoint_characteristic(L, fact, build_symmetry("kdvkdv.swap"))
    kappa6 = _series(L, char, traj, [t]).values[0]
    want6 = 2.0 * _integrate(grid, u * v)  # real fields; the cross charge twice
    assert abs(kappa6 - want6) <= 1e-12 * (abs(want6) + 1.0)


def test_kdvkdv_constant_shift_charge_is_component_integral():
    # the flow is already in conservation form, so the shift charge is just
    # the component integral
    L = kdvkdv_operator()
    grid = TorusGrid((TWO_PI,), (128,))
    traj, fact = _pipeline(L, grid, "random(seed=22, kmax=16)")
    t = 0.25
    char = adjoint_characteristic(L, fact, build_symmetry("kdvkdv.shift_u"))
    kappa = _series(L, char, traj, [t]).values[0]
    want = _integrate(grid, _u(traj, t)[0])
    assert abs(kappa - want) <= 1e-12 * (abs(want) + 1.0)


def test_kdvkdv_reflected_charge_matches_direct_form():
    L = kdvkdv_operator()
    grid = TorusGrid((TWO_PI,), (128,))
    traj, fact = _pipeline(L, grid, "random(seed=19, kmax=20)")
    s = 1.0
    gen = build_symmetry(f"kdvkdv.Gamma_s(s={s})")
    char = adjoint_characteristic(L, fact, gen)
    t = 0.35
    kappa = _series(L, char, traj, [t], s=s).values[0]
    now = _u(traj, t)
    ref = _u(traj, s - t)
    want = _integrate(grid, ref[1] * now[1] - ref[0] * now[0])
    assert abs(kappa - want) <= 1e-12 * (abs(want) + 1.0)


def test_dirac_reflected_charge_matches_direct_form():
    rep = dirac_representation()
    L = dirac_operator(1.0, rep)
    grid = TorusGrid((8.0,) * 3, (8,) * 3)
    traj, fact = _pipeline(L, grid, "random(seed=20, kmax=2, real=False)", amp_cap=1e8)
    char = adjoint_characteristic(L, fact, build_symmetry("dirac.Gamma0(s=0)"))
    t = 0.4
    kappa = _series(L, char, traj, [t], s=0.0).values[0]
    # direct evaluation: i * integral psi(-t,x)^dagger gamma0 gamma4 psi(t,x)
    psi_t = _u(traj, t)
    psi_r = _u(traj, -t)
    g04 = rep.gamma0 @ rep.gamma4
    want = 1j * _integrate(grid, np.einsum("a...,ab,b...->...", psi_r.conj(), g04, psi_t))
    assert abs(kappa - want) <= 1e-12 * (abs(want) + 1.0)


def test_dirac_cpt_charge_matches_direct_form():
    rep = dirac_representation()
    L = dirac_operator(1.0, rep)
    grid = TorusGrid((8.0,) * 3, (8,) * 3)
    traj, fact = _pipeline(L, grid, "random(seed=21, kmax=2, real=False)", amp_cap=1e8)
    char = adjoint_characteristic(L, fact, build_symmetry("dirac.cpt"))
    t = 0.3
    kappa = _series(L, char, traj, [t], s=0.0).values[0]
    # direct: i * integral psi(-t,-x)^T gamma_2 gamma4 psi(t,x); gamma_2 = -gamma^2
    psi_t = _u(traj, t)
    axes = (1, 2, 3)  # grid point i -> -i mod n on every axis
    psi_r = np.roll(np.flip(_u(traj, -t), axes), 1, axes)
    M = -rep.gamma(2) @ rep.gamma4
    integrand = np.einsum("a...,ab,b...->...", psi_r, M, psi_t)
    want = 1j * _integrate(grid, integrand)
    # the pairing is antisymmetric, so on commuting fields both evaluations
    # are zero up to roundoff of the O(scale) cancellations
    scale = abs(_integrate(grid, np.abs(integrand)))
    assert abs(kappa - want) <= 1e-10 * (scale + 1.0)
    assert abs(kappa) <= 1e-10 * (scale + 1.0)
