"""The whole factory on randomized operators outside the catalog.

Random dispersive systems ``Dt + sum_k c_k S Dx^k`` (odd k, S real symmetric)
have symmetric coefficient families, so the conjugating-pair solver must
succeed, and polynomials in S, translations, and constant kernel elements are
symmetries; every induced functional must be conserved by the exact flow.
"""

import numpy as np
import pytest

from conslaw.adjoint import adjoint_factorization, semi_conjugacy_solve
from conslaw.catalog import build_profile
from conslaw.current import adjoint_characteristic, concomitant_flux
from conslaw.fields import polynomial_field
from conslaw.opcore import ConstCoeffOperator
from conslaw.spectral import (
    EvolutionSystem,
    TorusGrid,
    Trajectory,
    characteristic_view,
    kappa_series,
)
from conslaw.symmetry import DiffFactor, KernelShift, MatrixFactor, SymmetryOp, verify_symmetry

TWO_PI = 2 * np.pi


def _random_dispersive_system(rng, m):
    """Stable random system: time derivative plus odd-order symmetric terms."""
    S = rng.standard_normal((m, m))
    S = S + S.T
    terms = {(1, 0): np.eye(m)}
    for order in (1, 3):
        c = rng.standard_normal()
        terms[(0, order)] = c * S
    return ConstCoeffOperator(2, (m, m), terms), S


@pytest.mark.parametrize("seed", range(6))
def test_random_system_charges_are_conserved(seed):
    rng = np.random.default_rng(200 + seed)
    m = int(rng.integers(2, 4))
    L, S = _random_dispersive_system(rng, m)

    pair = semi_conjugacy_solve(L, seed=seed)
    fact = adjoint_factorization(L, pair)
    flux = concomitant_flux(L)
    assert flux.divergence_defect(L) == 0.0

    generators = [
        SymmetryOp((MatrixFactor(np.eye(m)),), name="id"),
        SymmetryOp((MatrixFactor(S @ S + 0.5 * S),), name="poly(S)"),
        SymmetryOp((DiffFactor((((), None, (0, 1)),)),), name="d/dx"),
        SymmetryOp((DiffFactor((((), None, (1, 0)),)),), name="d/dt"),
    ]
    w = polynomial_field(2, m, [{(0, 0): float(rng.standard_normal())} for _ in range(m)])
    generators.append(KernelShift(w, name="const"))

    for gen in generators:
        if isinstance(gen, SymmetryOp):
            rep = verify_symmetry(L, gen, seed=seed, s=1.0)
            assert rep.passed, (gen.name, rep.residual)

    grid = TorusGrid((TWO_PI,), (64,))
    system = EvolutionSystem(L, grid)
    coeffs = build_profile(f"random(seed={seed}, kmax=12)", grid, m)
    traj = Trajectory(system, coeffs)
    times = np.linspace(0.0, 0.8, 7)
    for gen in generators:
        char = adjoint_characteristic(L, fact, gen)
        qview = characteristic_view(char, traj, s=1.0)
        series = kappa_series(flux, qview, traj, times)
        assert series.drift <= 1e-8, (gen.name, series.drift)


def test_random_system_negative_control_drifts():
    # a matrix that does not commute with the coefficients is not a symmetry
    # and its functional must drift
    rng = np.random.default_rng(321)
    L, S = _random_dispersive_system(rng, 3)
    bad = rng.standard_normal((3, 3))
    gen = SymmetryOp((MatrixFactor(bad),), name="bad")
    rep = verify_symmetry(L, gen, seed=1, s=1.0)
    assert not rep.passed

    pair = semi_conjugacy_solve(L, seed=1)
    fact = adjoint_factorization(L, pair)
    flux = concomitant_flux(L)
    grid = TorusGrid((TWO_PI,), (64,))
    system = EvolutionSystem(L, grid)
    traj = Trajectory(system, build_profile("random(seed=2, kmax=12)", grid, 3))
    char = adjoint_characteristic(L, fact, gen)
    qview = characteristic_view(char, traj, s=1.0)
    series = kappa_series(flux, qview, traj, np.linspace(0.0, 0.8, 7))
    assert series.drift >= 1e-2
