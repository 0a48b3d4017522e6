import numpy as np
import pytest

from conslaw.catalog import (
    build_symmetry,
    dirac_operator,
    heat_operator,
    kdvkdv_operator,
    navier_stokes_operator,
    wave_operator,
)
from conslaw.fields import evolution_matrix, kernel_sample, plane_wave
from conslaw.gamma import energy
from conslaw.symmetry import (
    DiffFactor,
    MatrixFactor,
    apply_symmetry_analytic,
    verify_kernel_shift,
    verify_symmetry,
)


def test_identity_chain_is_identity():
    g = build_symmetry("identity")
    f = plane_wave(2, [1.0, 2.0], 0.3j, (1.5,))
    out = apply_symmetry_analytic(g, f)
    pts = np.linspace(-2, 2, 5).reshape(-1, 1)
    assert np.allclose(out.evaluate(0.7, pts), f.evaluate(0.7, pts))


def test_factors_copy_their_matrices():
    A = np.eye(2, dtype=complex)
    mf = MatrixFactor(A)
    df = DiffFactor((((), A, (0, 1)),))
    A[0, 0] = 2.0  # the caller's array stays writeable and the factors keep theirs
    assert mf.matrix[0, 0] == 1.0 and df.terms[0][1][0, 0] == 1.0
    assert not mf.matrix.flags.writeable and not df.terms[0][1].flags.writeable


def test_gamma_s_reflects_and_flips_sign():
    g = build_symmetry("kdvkdv.Gamma_s(s=2.0)")
    f = plane_wave(2, [1.0, 1.0], 0.5 + 0.25j, (1.0,))
    out = apply_symmetry_analytic(g, f)
    pts = np.array([[0.4]])
    t = 0.6
    got = out.evaluate(t, pts)
    want = f.evaluate(2.0 - t, pts)
    assert np.allclose(got[0], -want[0])
    assert np.allclose(got[1], want[1])


def test_explicit_s_wins_over_context():
    g = build_symmetry("kdvkdv.Gamma_s(s=2.0)")
    f = plane_wave(2, [1.0, 0.0], 0.5j, (1.0,))
    pts = np.array([[0.1]])
    explicit = apply_symmetry_analytic(g, f, s=9.0)  # context must not override
    want = apply_symmetry_analytic(g, f)
    assert np.allclose(explicit.evaluate(0.3, pts), want.evaluate(0.3, pts))
    deferred = build_symmetry("kdvkdv.Gamma_s")
    ctx = apply_symmetry_analytic(deferred, f, s=2.0)
    assert np.allclose(ctx.evaluate(0.3, pts), want.evaluate(0.3, pts))


def test_theta2_reflects_only_second_axis():
    g = build_symmetry("dirac.Gamma2")
    # strip the matrix factor: check the reflection factor alone
    reflect = g.factors[1]
    f = plane_wave(4, [1.0, 0.0, 0.0, 0.0], 0.2j, (0.5, 1.5, -0.7))
    out = f.point_reflect(reflect.mask)
    pts = np.array([[0.3, 0.8, -0.2]])
    want_pts = np.array([[0.3, -0.8, -0.2]])
    assert np.allclose(out.evaluate(0.1, pts), f.evaluate(0.1, want_pts))


def test_kernel_samples_match_dispersion():
    heat = heat_operator(1)
    (wavef,) = kernel_sample(heat, (2.0,))
    ((_, _, lam, _),) = [k for k in wavef.terms]
    assert abs(lam - (-4.0)) <= 1e-12
    wave = wave_operator(1)
    lams = sorted(
        complex(key[2]).imag for w in kernel_sample(wave, (3.0,)) for key in w.terms
    )
    assert np.allclose(lams, [-3.0, 3.0], atol=1e-12)
    dirac = dirac_operator(1.0)
    p = (1.0, 2.0, 2.0)
    E = energy(p, 1.0)
    lams = sorted(
        {round(complex(key[2]).imag, 10) for w in kernel_sample(dirac, p) for key in w.terms}
    )
    assert np.allclose(lams, [-E, E], atol=1e-10)


def test_heat_s_reflection_passes_as_characteristic_map():
    L = heat_operator(1)
    g = build_symmetry("heat.s_reflection(s=1.0)")
    rep = verify_symmetry(L, g, s=1.0)
    assert rep.passed and rep.target == "adjoint"


def test_heat_time_reversal_fails_as_symmetry():
    L = heat_operator(1)
    g = build_symmetry("heat.time_reversal")
    rep = verify_symmetry(L, g, s=1.0)
    assert not rep.passed
    assert rep.residual >= 1e-2


def test_kdvkdv_gamma_s_is_a_symmetry():
    rep = verify_symmetry(kdvkdv_operator(), build_symmetry("kdvkdv.Gamma_s"), s=1.3)
    assert rep.passed


def test_catalog_symmetries_verify_against_their_operators():
    cases = {
        heat_operator(1): ["identity", "heat.space_reflection"],
        wave_operator(1): ["wave.time_translation", "wave.space_translation"],
        kdvkdv_operator(): ["kdvkdv.identity", "kdvkdv.swap", "kdvkdv.Gamma_s"],
        dirac_operator(1.0): [
            "dirac.Gamma0", "dirac.Gamma1", "dirac.Gamma2", "dirac.Gamma3",
            "dirac.Gamma4", "dirac.Gamma5", "dirac.Gamma6", "dirac.cpt",
            "dirac.rotation_x", "dirac.rotation_y", "dirac.rotation_z",
            "dirac.translation_t", "dirac.translation_x",
        ],
    }
    for L, names in cases.items():
        for name in names:
            rep = verify_symmetry(L, build_symmetry(name), s=0.8, seed=3)
            assert rep.passed, (name, rep.residual)
            assert rep.residual <= 1e-8


def test_discrete_composition_closure():
    # products of verified symmetries verify (spot check on the discrete set)
    L = dirac_operator(1.0)
    g45 = build_symmetry("dirac.Gamma4") @ build_symmetry("dirac.Gamma5")
    g12 = build_symmetry("dirac.Gamma1") @ build_symmetry("dirac.Gamma2")
    for g in (g45, g12):
        assert verify_symmetry(L, g, s=0.0).passed


def test_conjugation_twice_is_identity():
    g = build_symmetry("dirac.Gamma5")
    gg = g @ g
    assert gg.is_linear and not g.is_linear
    f = plane_wave(4, [1.0, 1j, 0.0, 0.5], 0.3 + 0.1j, (1.0, 0.0, 2.0))
    out = apply_symmetry_analytic(build_symmetry("identity"), f)
    cc = f.conjugate().conjugate()
    pts = np.random.default_rng(0).standard_normal((5, 3))
    assert np.allclose(cc.evaluate(0.2, pts), out.evaluate(0.2, pts))


def test_kernel_shifts_annihilated():
    L = kdvkdv_operator()
    for name in ("kdvkdv.shift_u", "kdvkdv.shift_v", "kdvkdv.shift_linear_a", "kdvkdv.shift_linear_b"):
        assert verify_kernel_shift(L, build_symmetry(name))


def test_diff_factor_degree_cap():
    with pytest.raises(ValueError):
        DiffFactor((({1: 2}, None, (0, 0)),))


@pytest.mark.parametrize("poly", [{1: -1, 2: 2}, {1: 0.5}, {1: float("nan")}], ids=["negative", "fraction", "nan"])
def test_diff_factor_refuses_powers_that_are_not_nonnegative_integers(poly):
    with pytest.raises(ValueError, match="not a nonnegative integer"):
        DiffFactor(((poly, None, (0, 0)),))


def test_diff_factor_drops_zero_powers():
    # x^0 = 1: the term is the identity's, and its field view is not weighted
    assert DiffFactor((({1: 0}, None, (0, 0)),)) == DiffFactor((((), None, (0, 0)),))
    assert DiffFactor((({0: 0, 1: 1.0}, None, (0, 0)),)).terms[0][0] == ((1, 1),)


def test_evolution_matrix_rejects_singular_leading_coefficient():
    with pytest.raises(ValueError):
        evolution_matrix(navier_stokes_operator(), (1.0, 2.0, 3.0))


def test_kernel_sample_wave_branches():
    # e^{+i k t} and e^{-i k t} at spatial mode k
    waves = kernel_sample(wave_operator(1), (5.0,))
    assert len(waves) == 2


def test_dirac_kernel_branches_span_the_standard_spinors():
    # for the wave exp(lam t + i k.x): the lam = -iE branch lies in
    # span{u_s(-k)} and the lam = +iE branch in span{v_s(k)}
    from conslaw.gamma import u_spinor, v_spinor

    m = 1.0
    k = np.array([0.5, -1.0, 2.0])
    E = energy(k, m)
    waves = kernel_sample(dirac_operator(m), tuple(k))
    assert len(waves) == 4
    pos = np.stack([u_spinor(-k, m, s) for s in (1, 2)])
    neg = np.stack([v_spinor(k, m, s) for s in (1, 2)])
    for w in waves:
        vec = np.zeros(4, dtype=complex)
        lam = None
        for (i, _pol, lam_key, _kk), c in w.terms.items():
            vec[i] = c
            lam = lam_key
        basis = pos if abs(lam + 1j * E) < 1e-8 else neg
        # residual after projecting onto the branch's spinor span
        coef, *_ = np.linalg.lstsq(basis.T, vec, rcond=None)
        assert np.linalg.norm(vec - basis.T @ coef) <= 1e-10
