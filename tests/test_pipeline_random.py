"""The whole factory on randomized operators outside the catalog.

Random dispersive systems ``Dt + sum_k c_k S Dx^k`` (odd k, S real symmetric)
have symmetric coefficient families, so the conjugating-pair solver must
succeed, and polynomials in S, translations, and constant kernel elements are
symmetries; every induced functional must be conserved by the exact flow.
"""

import numpy as np
import pytest

import analytic_oracle as oracle
from conslaw.adjoint import adjoint_factorization, semi_conjugacy_solve
from conslaw.catalog import build_profile
from conslaw.current import adjoint_characteristic, concomitant_flux
from conslaw.fields import polynomial_field
from conslaw.opcore import ConstCoeffOperator
from conslaw.spectral import (
    EvolutionSystem,
    TorusGrid,
    Trajectory,
    kappa_series,
    symmetry_view,
)
from conslaw.symmetry import (
    Conjugation,
    DiffFactor,
    KernelShift,
    MatrixFactor,
    PointReflect,
    SymmetryOp,
    symbol_probes,
    verify_symmetry,
)

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


def _symmetry_chains(m, S):
    """Polynomials in S and the two translations: symmetries of every random system."""
    return [
        SymmetryOp((MatrixFactor(np.eye(m)),), name="id"),
        SymmetryOp((MatrixFactor(S @ S + 0.5 * S),), name="poly(S)"),
        SymmetryOp((DiffFactor((((), None, (0, 1)),)),), name="d/dx"),
        SymmetryOp((DiffFactor((((), None, (1, 0)),)),), name="d/dt"),
    ]


@pytest.mark.parametrize("seed", range(6))
def test_random_system_charges_are_conserved(seed):
    rng = np.random.default_rng(200 + seed)
    m = int(rng.integers(2, 4))
    L, S = _random_dispersive_system(rng, m)

    pair = semi_conjugacy_solve(L, seed=seed)
    fact = adjoint_factorization(L, pair)
    flux = concomitant_flux(L)
    assert flux.divergence_defect(L) == 0.0

    generators = _symmetry_chains(m, S)
    w = polynomial_field(2, m, [{(0, 0): float(rng.standard_normal())} for _ in range(m)])
    generators.append(KernelShift(w, name="const"))

    probes = symbol_probes(L, seed=seed, s=1.0)
    for gen in generators:
        if isinstance(gen, SymmetryOp):
            rep = verify_symmetry(L, gen, probes)
            assert rep.passed, (gen.name, rep.residual)

    grid = TorusGrid((TWO_PI,), (64,))
    system = EvolutionSystem(L, grid)
    coeffs = build_profile(f"random(seed={seed}, kmax=12)", grid, m)
    traj = Trajectory(system, coeffs)
    times = np.linspace(0.0, 0.8, 7)
    for gen in generators:
        char = adjoint_characteristic(L, fact, gen)
        qview = symmetry_view(char, traj, s=1.0)
        series = kappa_series(flux, [qview], traj, times)[0]
        assert series.drift <= 1e-8, (gen.name, series.drift)


def test_random_system_negative_control_drifts():
    # a matrix that does not commute with the coefficients is not a symmetry
    # and its functional must drift
    rng = np.random.default_rng(321)
    L, S = _random_dispersive_system(rng, 3)
    bad = rng.standard_normal((3, 3))
    gen = SymmetryOp((MatrixFactor(bad),), name="bad")
    rep = verify_symmetry(L, gen, symbol_probes(L, seed=1, s=1.0))
    assert not rep.passed

    pair = semi_conjugacy_solve(L, seed=1)
    fact = adjoint_factorization(L, pair)
    flux = concomitant_flux(L)
    grid = TorusGrid((TWO_PI,), (64,))
    system = EvolutionSystem(L, grid)
    traj = Trajectory(system, build_profile("random(seed=2, kmax=12)", grid, 3))
    char = adjoint_characteristic(L, fact, gen)
    qview = symmetry_view(char, traj, s=1.0)
    series = kappa_series(flux, [qview], traj, np.linspace(0.0, 0.8, 7))[0]
    assert series.drift >= 1e-2


def _weighted_chains(L):
    """For ``L = Dt + A(Dx)``, the Galilean generator ``x - t A'(Dx)`` (it
    commutes with ``L``: ``A`` is a polynomial in one matrix ``S``), composed
    with the space-time reflection and with conjugation, both symmetries of
    a real odd system; and the generator with the sign of its ``t`` part
    flipped, no symmetry."""

    def galilean(sign):
        terms = [({1: 1}, None, (0, 0))]
        terms += [({0: 1}, -sign * alpha[1] * M, (0, alpha[1] - 1)) for alpha, M in L.terms.items() if alpha[1]]
        return SymmetryOp((DiffFactor(tuple(terms)),), name="galilean" if sign > 0 else "anti-galilean")

    reflect = SymmetryOp((PointReflect((True, True)),), name="PT")
    conj = SymmetryOp((Conjugation(),), name="conj")
    g = galilean(1.0)
    return [g, g @ reflect, reflect @ g @ conj, conj @ g, galilean(-1.0)]


@pytest.mark.parametrize("seed", range(6))
def test_generator_check_gives_the_verdict_of_the_oracle(seed):
    # the symmetries pass and a matrix that does not commute with S fails, in
    # both checks; so do the x-weighted chains, reflected and conjugated
    rng = np.random.default_rng(200 + seed)
    m = int(rng.integers(2, 4))
    L, S = _random_dispersive_system(rng, m)
    bad = SymmetryOp((MatrixFactor(rng.standard_normal((m, m))),), name="bad")
    probes = symbol_probes(L, seed=seed, s=1.0)
    for gen in _symmetry_chains(m, S) + _weighted_chains(L) + [bad]:
        want = oracle.verify_symmetry(L, gen, seed=seed, s=1.0)
        got = verify_symmetry(L, gen, probes)
        symmetric = gen is not bad and gen.name != "anti-galilean"
        assert got.passed == want.passed == symmetric, (gen.name, got.residual, want.residual)
        assert (got.target, got.samples) == (want.target, want.samples), gen.name
