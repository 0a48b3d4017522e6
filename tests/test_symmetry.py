import numpy as np
import pytest

import analytic_oracle as oracle
from analytic_oracle import apply_symmetry_analytic, kernel_waves, random_kernel_superposition
from conslaw import fields, symmetry
from conslaw.adjoint import adjoint_factorization, formal_adjoint, semi_conjugacy_solve
from conslaw.catalog import (
    build_operator,
    build_symmetry,
    dirac_operator,
    heat_operator,
    kdvkdv_operator,
    named_symmetries,
    navier_stokes_operator,
    wave_operator,
)
from conslaw.fields import AnalyticField, evolution_matrix, kernel_probes, plane_wave
from conslaw.dsl import parse_operator
from conslaw.gamma import energy
from conslaw.current import adjoint_characteristic
from conslaw.opcore import ConstCoeffOperator
from conslaw.symmetry import (
    Conjugation,
    DiffFactor,
    MatrixFactor,
    PointReflect,
    SymmetryOp,
    _default_wavevectors,
    symbol_probes,
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
    out = oracle.point_reflect(f, reflect.mask, 0.0)
    pts = np.array([[0.3, 0.8, -0.2]])
    want_pts = np.array([[0.3, -0.8, -0.2]])
    assert np.allclose(out.evaluate(0.1, pts), f.evaluate(0.1, want_pts))


def test_kernel_samples_match_dispersion():
    heat = heat_operator(1)
    (wavef,) = kernel_waves(heat, (2.0,))
    ((_, _, lam, _),) = [k for k in wavef.terms]
    assert abs(lam - (-4.0)) <= 1e-12
    wave = wave_operator(1)
    lams = sorted(
        complex(key[2]).imag for w in kernel_waves(wave, (3.0,)) for key in w.terms
    )
    assert np.allclose(lams, [-3.0, 3.0], atol=1e-12)
    dirac = dirac_operator(1.0)
    p = (1.0, 2.0, 2.0)
    E = energy(p, 1.0)
    lams = sorted(
        {round(complex(key[2]).imag, 10) for w in kernel_waves(dirac, p) for key in w.terms}
    )
    assert np.allclose(lams, [-E, E], atol=1e-10)


def test_heat_s_reflection_passes_as_characteristic_map():
    L = heat_operator(1)
    g = build_symmetry("heat.s_reflection(s=1.0)")
    rep = verify_symmetry(L, g, symbol_probes(L, s=1.0))
    assert rep.passed and rep.target == "adjoint"


def test_heat_time_reversal_fails_as_symmetry():
    L = heat_operator(1)
    g = build_symmetry("heat.time_reversal")
    rep = verify_symmetry(L, g, symbol_probes(L, s=1.0))
    assert not rep.passed
    assert rep.residual >= 1e-2


def test_kdvkdv_gamma_s_is_a_symmetry():
    L = kdvkdv_operator()
    assert verify_symmetry(L, build_symmetry("kdvkdv.Gamma_s"), symbol_probes(L, s=1.3)).passed


CATALOG_CASES = {
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


def test_catalog_symmetries_verify_against_their_operators():
    for L, names in CATALOG_CASES.items():
        probes = symbol_probes(L, seed=3, s=0.8)
        for name in names:
            rep = verify_symmetry(L, build_symmetry(name), probes)
            assert rep.passed, (name, rep.residual)
            assert rep.residual <= 1e-8


def test_catalog_names_are_their_keys():
    for key in named_symmetries():
        assert build_symmetry(key).name == key


def _boost(sign=1.0):
    """``t Dx + sign * x Dt`` on ``wave(dim=1)``: the Lorentz boost for ``sign = 1``."""
    return SymmetryOp((DiffFactor((({0: 1}, None, (0, 1)), ({1: 1}, [[sign]], (1, 0)))),), name=f"boost{sign:+g}")


def _without_spin(name):
    """A ``dirac.rotation_*`` with its spin term dropped: orbital only, no symmetry."""
    (factor,) = build_symmetry(name).factors
    return SymmetryOp((DiffFactor(factor.terms[:2]),), name=f"{name}-orbital")


def _generator_cases():
    """Every catalog chain with factors, the characteristic map
    ``heat.s_reflection``, the boost of ``wave(dim=1)`` alone and after a
    time reflection or a conjugation, and the negative controls: a time
    reversal, a Dirac time reflection without chirality, the boost with its
    sign flipped and the rotations without their spin terms."""
    wave = wave_operator(1)
    reflect = SymmetryOp((PointReflect((True, False)),), name="t->s-t")
    conj = SymmetryOp((Conjugation(),), name="conj")
    cases = [(L, build_symmetry(name)) for L, names in CATALOG_CASES.items() for name in names]
    cases += [(heat_operator(1), build_symmetry(name)) for name in ("heat.s_reflection", "heat.time_reversal")]
    cases += [(dirac_operator(1.0), build_symmetry("dirac.bad_time_reflection"))]
    cases += [(wave, _boost()), (wave, _boost() @ reflect), (wave, reflect @ _boost()), (wave, _boost() @ conj)]
    cases += [(wave, _boost(-1.0))]
    cases += [(dirac_operator(1.0), _without_spin(f"dirac.rotation_{axis}")) for axis in "xyz"]
    return [(L, g) for L, g in cases if g.factors]


NEGATIVE_CONTROLS = [
    "heat.time_reversal", "dirac.bad_time_reflection", "boost-1",
    "dirac.rotation_x-orbital", "dirac.rotation_y-orbital", "dirac.rotation_z-orbital",
]


@pytest.mark.parametrize("seed, s", [(3, 0.8), (0, 1.0), (23, 0.0)])
def test_generator_check_gives_the_verdict_of_the_oracle(seed, s):
    failed = []
    for L, g in _generator_cases():
        want = oracle.verify_symmetry(L, g, seed=seed, s=s)
        got = verify_symmetry(L, g, symbol_probes(L, seed=seed, s=s))
        assert (got.passed, got.target, got.samples) == (want.passed, want.target, want.samples), g.name
        if not got.passed:
            failed.append(g.name)
            assert got.residual >= 1e-2, g.name
    assert failed == NEGATIVE_CONTROLS


def test_point_and_constant_coefficient_chains_keep_a_zero_jet_slope(monkeypatch):
    # b stays zero, so no derivative of a symbol is evaluated: the residual
    # is |P a| over the scale, as for a plane-wave probe
    lowered = []
    original = symmetry.op_lower
    monkeypatch.setattr(symmetry, "op_lower", lambda op, slot: lowered.append(slot) or original(op, slot))
    for L, g in _generator_cases():
        lowered.clear()
        verify_symmetry(L, g, symbol_probes(L))
        weighted = any(poly for f in g.factors if isinstance(f, DiffFactor) for poly, _, _ in f.terms)
        assert bool(lowered) == weighted, g.name


def test_generator_check_refuses_chains_it_cannot_check():
    L = dirac_operator(1.0)
    twice = build_symmetry("dirac.rotation_x") @ build_symmetry("dirac.rotation_y")  # degree 2
    assert not twice.symbol_checkable
    with pytest.raises(ValueError, match=r"dirac\.rotation_x\*dirac\.rotation_y has no generator check"):
        verify_symmetry(L, twice, symbol_probes(L))
    kdv = kdvkdv_operator()
    shift = adjoint_characteristic(kdv, adjoint_factorization(kdv, semi_conjugacy_solve(kdv)),
                                   build_symmetry("kdvkdv.shift_u"))
    with pytest.raises(ValueError, match="kdvkdv.shift_u has no generator check"):
        verify_symmetry(kdv, shift, symbol_probes(kdv))
    H = heat_operator(1)
    with pytest.raises(ValueError, match=r"reflection mask .* has 4 slots, expected 2"):
        verify_symmetry(H, build_symmetry("dirac.Gamma1"), symbol_probes(H))


def test_symbol_check_tracks_the_reflected_amplitude():
    # u(s - t) on forward heat flow is exp(-k^2 s) exp(k^2 t): finite for t < s,
    # though exp(k^2 t) alone overflows at some sampled times
    L = heat_operator(1)
    probes = symbol_probes(L, seed=5, s=3000.0)
    assert (np.abs(probes.mu.real)[:, None] * probes.times > 710).any()
    rep = verify_symmetry(L, build_symmetry("heat.s_reflection"), probes)
    assert rep.passed and rep.target == "adjoint"


def test_symbol_check_fails_a_time_reflection_whose_image_underflows():
    # t -> s - t is no forward heat symmetry; at s = 3000 the image's amplitude
    # exp(-k^2 s) is below the smallest double, but the check reads P a, not it
    L = heat_operator(1)
    g = SymmetryOp((PointReflect((True, False)),), name="t->s-t")
    rep = verify_symmetry(L, g, symbol_probes(L, seed=5, s=3000.0))
    assert not rep.passed and rep.residual == 2.0


def test_symbol_check_fails_closed_on_a_non_finite_image():
    L = kdvkdv_operator()
    g = SymmetryOp((MatrixFactor([[np.nan, 0.0], [0.0, 1.0]]),), name="nan")
    with pytest.raises(ValueError, match="generator check of nan is non-finite at t="):
        verify_symmetry(L, g, symbol_probes(L))


def test_discrete_composition_closure():
    # products of verified symmetries verify (spot check on the discrete set)
    L = dirac_operator(1.0)
    g45 = build_symmetry("dirac.Gamma4") @ build_symmetry("dirac.Gamma5")
    g12 = build_symmetry("dirac.Gamma1") @ build_symmetry("dirac.Gamma2")
    for g in (g45, g12):
        assert verify_symmetry(L, g, symbol_probes(L, s=0.0)).passed


def test_conjugation_twice_is_identity():
    f = plane_wave(4, [1.0, 1j, 0.0, 0.5], 0.3 + 0.1j, (1.0, 0.0, 2.0))
    out = apply_symmetry_analytic(build_symmetry("identity"), f)
    cc = oracle.conjugate(oracle.conjugate(f))
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
    mu, _k, _v = kernel_probes(wave_operator(1), [(5.0,)])
    assert len(mu) == 2


def _per_wavevector_kernel_sample(L, kspace):
    """Plane-wave kernel elements at one wavevector, one companion matrix at a time (the reference)."""
    m = L.cols
    kspace = tuple(float(kj) for kj in kspace)
    A = evolution_matrix(L, kspace)
    symbols = [L.spatial_symbol(kspace, r) for r in range(L.time_order() + 1)]
    lams, vecs = np.linalg.eig(A)
    out = []
    scale = max(np.linalg.norm(A), 1.0)
    for lam, w in zip(lams, vecs.T):
        v = w[:m]
        nv = np.linalg.norm(v)
        if nv < 1e-12:
            continue
        v = v / nv
        acc = np.zeros(m, dtype=complex)
        for r, C in enumerate(symbols):
            acc = acc + C @ v * lam**r
        if np.linalg.norm(acc) <= 1e-8 * max(scale, abs(lam) ** L.time_order()):
            out.append(plane_wave(L.nvars, v, lam, kspace))
    if not out:
        raise ValueError(f"no plane-wave kernel elements at k={kspace}")
    return out


def _wave_bits(waves):
    return [
        [
            ((i, pol, lam.real.hex(), lam.imag.hex(), k), c.real.hex(), c.imag.hex())
            for (i, pol, lam, k), c in w.terms.items()
        ]
        for w in waves
    ]


def _random_evolution_operators(count, seed):
    """Operators ``I Dt^R + ...`` with random integer lower terms: one to three
    space variables, one to three components, time order one or two."""
    rng = np.random.default_rng(seed)
    ops = []
    for i in range(count):
        nvars, m, R = 2 + i % 3, 1 + i % 3, 1 + i % 2
        terms = {(R,) + (0,) * (nvars - 1): np.eye(m, dtype=complex)}
        for _ in range(3):
            alpha = (int(rng.integers(0, R)),) + tuple(int(e) for e in rng.integers(0, 3, nvars - 1))
            terms[alpha] = terms.get(alpha, 0) + rng.integers(-3, 4, (m, m)) + 1j * rng.integers(-3, 4, (m, m))
        ops.append(ConstCoeffOperator(nvars, (m, m), terms))
    return ops


@pytest.mark.parametrize("seed", range(5))
def test_kernel_samples_match_the_per_wavevector_reference(seed):
    # one stacked eigendecomposition and one stacked acceptance test give each
    # wavevector's plane waves: the probe rows, rebuilt as plane waves, have
    # the reference's term keys, in the same order, with the same coefficient
    # bits, for a list of wavevectors and for each one alone, on every
    # catalog evolution operator and random ones
    ops = [build_operator(spec) for spec in ("heat", "heat(dim=2, nu=0.5)", "wave", "wave(dim=3)", "kdvkdv")]
    ops += [dirac_operator(1.0), dirac_operator(0.0), build_operator("jordan2x2")]
    ops += _random_evolution_operators(40 if seed == 0 else 8, seed)
    for L in ops:
        ks = _default_wavevectors(L, np.random.default_rng(seed))
        mu, k, v = kernel_probes(L, ks)
        got = [plane_wave(L.nvars, vv, lam, kk) for lam, kk, vv in zip(mu, k, v)]
        want = [_per_wavevector_kernel_sample(L, kk) for kk in ks]
        assert _wave_bits(got) == _wave_bits([w for waves in want for w in waves]), L
        for kk, waves in zip(ks, want):
            assert _wave_bits(kernel_waves(L, kk)) == _wave_bits(waves), (L, kk)


@pytest.mark.parametrize("seed", range(3))
def test_kernel_probes_are_the_plane_waves_of_kernel_samples(seed):
    # the probe rows, in order, are the plane waves' rates, wavevectors and
    # amplitudes of the per-wavevector reference, to the bit
    ops = [build_operator(spec) for spec in ("heat", "wave(dim=3)", "kdvkdv")]
    ops += [dirac_operator(1.0), build_operator("jordan2x2")]
    for L in ops:
        ks = _default_wavevectors(L, np.random.default_rng(seed))
        mu, k, v = kernel_probes(L, ks)
        assert mu.shape == (len(k),) and k.shape == (len(k), L.nvars - 1) and v.shape == (len(k), L.cols)
        rebuilt = [plane_wave(L.nvars, vv, lam, kk) for lam, kk, vv in zip(mu, k, v)]
        want = [w for kk in ks for w in _per_wavevector_kernel_sample(L, kk)]
        assert _wave_bits(rebuilt) == _wave_bits(want), L


def test_kernel_samples_name_a_wavevector_without_kernel_elements():
    # at |k| = 1 the rates are +-1e15 i, so every eigenvector's field block is
    # below 1e-12; k = 0 has the rate 0 and is fine
    L = parse_operator("1e-30*Dt^2 - Dx^2")
    assert len(kernel_probes(L, [(0.0,)])[0])
    for call in (lambda: kernel_probes(L, [(0.0,), (1.0,), (2.0,)]), lambda: _per_wavevector_kernel_sample(L, (1.0,))):
        with pytest.raises(ValueError, match=r"no plane-wave kernel elements at k=\(1\.0,\)"):
            call()


def test_dirac_kernel_branches_span_the_standard_spinors():
    # for the wave exp(lam t + i k.x): the lam = -iE branch lies in
    # span{u_s(-k)} and the lam = +iE branch in span{v_s(k)}
    from conslaw.gamma import u_spinor, v_spinor

    m = 1.0
    k = np.array([0.5, -1.0, 2.0])
    E = energy(k, m)
    waves = kernel_waves(dirac_operator(m), tuple(k))
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


def _reference_evaluate(f, t, points):
    """``AnalyticField.evaluate`` as a loop over the terms, at one time."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    out = np.zeros((f.ncomp, len(points)), dtype=complex)
    for (i, pol, lam, k), c in f.terms.items():
        val = c * (t ** pol[0]) * np.exp(lam * t)
        mono = np.ones(len(points), dtype=complex)
        for d in range(1, f.nvars):
            if pol[d]:
                mono = mono * points[:, d - 1] ** pol[d]
        out[i] += val * mono * np.exp(1j * points @ np.asarray(k, dtype=float))
    return out


def _probe_field(name):
    rng = np.random.default_rng(4)
    u = AnalyticField(4, 4, {})
    for k in ((0.5, -1.0, 2.0), (1.5, 0.25, -0.75)):
        for w in kernel_waves(dirac_operator(1.0), k):
            u = u + complex(*rng.standard_normal(2)) * w
    # t and x exponents, with the time slot reflected after the multiplication
    weighted = oracle.multiply_coordinate(oracle.multiply_coordinate(oracle.multiply_coordinate(u, 0), 1), 3)
    weighted = oracle.point_reflect(weighted, (True, True, False, False), 0.7)
    return {
        "plane-waves": u,
        "weighted": weighted,
        "conjugated": oracle.conjugate(weighted),
        "empty": AnalyticField(4, 4, {}),
    }[name]


@pytest.mark.parametrize("name", ["plane-waves", "weighted", "conjugated", "empty"])
def test_evaluate_matches_the_per_term_loop(name, monkeypatch):
    f = _probe_field(name)
    pts = np.random.default_rng(2).standard_normal((24, 3)) * 2.0
    times = np.array([0.0, 0.15, -0.4, 1.3])
    want = np.stack([_reference_evaluate(f, t, pts) for t in times], axis=1)
    bound = 1e-14 * np.abs(want).max()
    got = f.evaluate(times, pts)
    assert got.shape == (4, len(times), 24)
    assert np.abs(got - want).max() <= bound
    for j, t in enumerate(times):
        one = f.evaluate(t, pts)
        assert one.shape == (4, 24)
        assert np.abs(one - want[:, j]).max() <= bound
    monkeypatch.setattr(fields, "EVAL_CHUNK", 7)  # a few points per chunk
    assert np.abs(f.evaluate(times, pts) - want).max() <= bound


def _per_time_residual(L, g, seed, s):
    """The oracle's residual, sampled one time and one field at a time."""
    rng = np.random.default_rng(seed)
    u = AnalyticField(L.nvars, L.cols, {})
    for kspace in _default_wavevectors(L, rng):
        for w in kernel_waves(L, kspace):
            u = u + complex(rng.standard_normal(), rng.standard_normal()) * w
    gu = apply_symmetry_analytic(g, u, s=s)
    resid_field = oracle.apply_operator(gu, formal_adjoint(L) if g.char_map else L)
    pts = rng.standard_normal((24, L.nvars - 1)) * 2.0
    times = rng.uniform(0.1 * s, 0.9 * s, size=5)
    worst = scale = 0.0
    for t in times:
        worst = max(worst, np.abs(_reference_evaluate(resid_field, t, pts)).max())
        for f in [gu] + [oracle.diff(gu, slot) for slot in range(L.nvars)]:
            scale = max(scale, np.abs(_reference_evaluate(f, t, pts)).max() * max(L.max_norm(), 1.0))
    return worst / max(scale, 1e-300)


def test_oracle_residuals_match_the_per_time_reference():
    for L, names in CATALOG_CASES.items():
        for name in names:
            g = build_symmetry(name)
            if not g.factors:
                continue
            got = oracle.verify_symmetry(L, g, s=0.8, seed=3).residual
            want = _per_time_residual(L, g, seed=3, s=0.8)
            assert abs(got - want) <= 1e-12 * want, (name, got, want)


def test_oracle_evaluates_each_field_once(monkeypatch):
    shapes = []
    evaluate = AnalyticField.evaluate
    monkeypatch.setattr(
        AnalyticField, "evaluate", lambda f, t, points: shapes.append(np.shape(t)) or evaluate(f, t, points)
    )
    for L, name in ((dirac_operator(1.0), "dirac.rotation_x"), (heat_operator(1), "heat.s_reflection")):
        shapes.clear()
        oracle.verify_symmetry(L, build_symmetry(name), s=0.8, seed=3)
        # the residual, g u and its first derivatives, each over all five times
        assert shapes == [(5,)] * (2 + L.nvars), name


@pytest.mark.parametrize("s", [300.0, 3000.0])
def test_generator_check_fails_closed_on_non_finite_samples(s):
    # x u is no symmetry of backward heat flow, and exp(9 t) overflows at
    # some (s = 300) or all (s = 3000) of the sampled times
    L = build_operator("heat(dim=1, nu=-1.0)")
    g = SymmetryOp((DiffFactor((({1: 1}, None, (0, 0)),)),))
    with pytest.raises(ValueError, match=r"non-finite at t=\d"):
        verify_symmetry(L, g, symbol_probes(L, seed=5, s=s))
    with pytest.raises(ValueError, match=r"non-finite at t=\d"):
        oracle.verify_symmetry(L, g, s=s, seed=5, kspace_list=[(3.0,)])


def _two_pass_terms(terms):
    """The term dict as built by adding every term into a new dict, then filtering zeros."""
    out = {}
    for key, c in terms.items():
        if c != 0:
            out[key] = out.get(key, 0.0) + complex(c)
    return {k: v for k, v in out.items() if v != 0}


def _bits(terms):
    return [(k, v.real.hex(), v.imag.hex()) for k, v in terms.items()]


@pytest.mark.parametrize(
    "operator, symmetry",
    [
        ("dirac(m=1.0)", "dirac.rotation_x"),
        ("dirac(m=1.0)", "dirac.cpt"),
        ("dirac(m=1.0)", "dirac.Gamma4"),
        ("kdvkdv", "kdvkdv.Gamma_s"),
        ("kdvkdv", "kdvkdv.swap"),
        ("heat", "heat.s_reflection"),
    ],
)
def test_field_construction_keeps_two_pass_bits(monkeypatch, operator, symmetry):
    # every term dict the oracle builds a field from for a catalog chain
    seen = []
    init = AnalyticField.__init__

    def recording(self, nvars, ncomp, terms=None):
        seen.append(dict(terms or {}))
        init(self, nvars, ncomp, terms)

    monkeypatch.setattr(AnalyticField, "__init__", recording)
    oracle.verify_symmetry(build_operator(operator), build_symmetry(symmetry), s=1.0)
    monkeypatch.undo()
    assert any(-0.0 in (v.real, v.imag) for terms in seen for v in map(complex, terms.values()))
    for terms in seen:
        assert _bits(AnalyticField(1, 1, terms).terms) == _bits(_two_pass_terms(terms))
        assert _bits(fields.collect(1, 1, terms.items()).terms) == _bits(_two_pass_terms(terms))


@pytest.mark.parametrize("seed", [0, 3])
@pytest.mark.parametrize("s", [0.0, 0.8])
def test_field_algebra_matches_the_reference_accumulators(seed, s):
    # the package's field operations against the oracle's reference forms, on
    # every field of the oracle's check of every catalog chain: keys, order and bits
    for L, names in CATALOG_CASES.items():
        for name in names:
            g = build_symmetry(name)
            rng = np.random.default_rng(seed)
            chain = [random_kernel_superposition(L, _default_wavevectors(L, rng), rng)]
            for factor in reversed(g.factors):
                chain.append(oracle.apply_factor_analytic(factor, chain[-1], s=s))
            target = formal_adjoint(L) if g.char_map else L
            gu = chain[-1]
            assert _bits(gu.apply_operator(target).terms) == _bits(oracle.apply_operator(gu, target).terms)
            mat = rng.standard_normal((L.cols, L.cols)) * (rng.random((L.cols, L.cols)) < 0.6)
            for f in chain:
                cases = [
                    (f.apply_matrix(mat), oracle.apply_matrix(f, mat)),
                    (f + f.diff(0), oracle.add(f, oracle.diff(f, 0))),
                ]
                cases += [(f.diff(slot), oracle.diff(f, slot)) for slot in range(L.nvars)]
                for got, want in cases:
                    assert _bits(got.terms) == _bits(want.terms), name


def test_a_cancelled_key_keeps_its_first_place_in_apply_operator():
    # exp(ix) + exp(2ix) under 1 + i Dx + Dx^2: after the i Dx field the
    # exp(ix) total is exactly 0, and the Dx^2 field brings it back
    k1, k2 = (0, (0, 0), 0j, (1.0,)), (0, (0, 0), 0j, (2.0,))
    f = AnalyticField(2, 1, {k1: 1.0, k2: 1.0})
    L = ConstCoeffOperator(2, (1, 1), {(0, 0): [[1.0]], (0, 1): [[1j]], (0, 2): [[1.0]]})
    assert list(f.apply_operator(L).terms.items()) == [(k1, -1.0), (k2, -5.0)]
    # adding the fields one by one dropped the key at 0 and appended it again
    assert list(oracle.apply_operator(f, L).terms.items()) == [(k2, -5.0), (k1, -1.0)]


# -- point chains in normal form -----------------------------------------------


def _point_chain_cases():
    """(operator, chain): every catalog point chain, every product of two
    discrete Dirac generators and two adjoint characteristics."""
    heat1, heat2, kdv, dirac = heat_operator(1), heat_operator(2), kdvkdv_operator(), dirac_operator(1.0)
    cases = [
        (heat1, build_symmetry("identity")),
        (heat2, build_symmetry("heat.space_reflection(dim=2)")),
        (heat1, build_symmetry("heat.s_reflection")),
        (heat1, build_symmetry("heat.time_reversal")),
        (kdv, build_symmetry("kdvkdv.swap")),
        (kdv, build_symmetry("kdvkdv.Gamma_s")),
    ]
    names = [f"dirac.Gamma{i}" for i in range(7)] + ["dirac.cpt", "dirac.bad_time_reflection"]
    cases += [(dirac, build_symmetry(name)) for name in names]
    gens = [build_symmetry(f"dirac.Gamma{i}") for i in range(7)]
    cases += [(dirac, ga @ gb) for ga in gens for gb in gens]
    for L, name in ((dirac, "dirac.cpt"), (kdv, "kdvkdv.Gamma_s(s=0.3)")):
        fact = adjoint_factorization(L, semi_conjugacy_solve(L))
        cases.append((L, adjoint_characteristic(L, fact, build_symmetry(name))))
    return cases


def _rebuilt(form):
    """The normal form as a factor chain ``M . R_s . conj^c``."""
    factors = (MatrixFactor(form.matrix), PointReflect(form.mask, form.s))
    return SymmetryOp(factors + ((Conjugation(),) if form.conj else ()))


def test_point_form_matches_the_factor_chain():
    rng = np.random.default_rng(4)
    for L, g in _point_chain_cases():
        form = g.point_form(L.nvars, L.cols)
        assert form is not None, g.name
        u = random_kernel_superposition(L, _default_wavevectors(L, rng), rng)
        want = apply_symmetry_analytic(g, u, s=0.7).terms
        got = apply_symmetry_analytic(_rebuilt(form), u, s=0.7).terms
        assert want and got.keys() == want.keys(), g.name
        scale = max(abs(c) for c in want.values())
        assert max(abs(got[key] - c) for key, c in want.items()) <= 1e-13 * scale, g.name


def test_point_form_composes_exactly():
    gens = [build_symmetry(f"dirac.Gamma{i}") for i in range(7)]
    for ga in gens:
        for gb in gens:
            ab = (ga @ gb).point_form(4, 4)
            prod = ga.point_form(4, 4) @ gb.point_form(4, 4)
            assert np.array_equal(ab.matrix, prod.matrix)
            assert (ab.mask, ab.conj, ab.s) == (prod.mask, prod.conj, prod.s)
    cpt = build_symmetry("dirac.cpt").point_form(4, 4)
    assert cpt.mask == (True,) * 4 and cpt.conj and cpt.s is None


def test_point_form_is_none_off_point_chains():
    kdv = kdvkdv_operator()
    fact = adjoint_factorization(kdv, semi_conjugacy_solve(kdv))
    shift = adjoint_characteristic(kdv, fact, build_symmetry("kdvkdv.shift_u"))
    assert build_symmetry("dirac.rotation_z").point_form(4, 4) is None
    assert shift.point_form(2, 2) is None


def test_time_reflections_at_different_s_do_not_compose():
    a = build_symmetry("kdvkdv.Gamma_s(s=0.3)").point_form(2, 2)
    b = build_symmetry("kdvkdv.Gamma_s(s=0.5)").point_form(2, 2)
    with pytest.raises(ValueError, match="time translation"):
        a @ b
    same = a @ a  # the two reflections cancel, and so does their s
    assert same.mask == (False, False) and same.s is None
    assert np.array_equal(same.matrix, np.eye(2))


def test_oracle_fails_a_time_reflection_whose_image_underflows():
    # exp(-k^2 s) underflows on every term at s = 3000, so the image of the
    # kernel superposition has no terms; the zero field would pass vacuously
    L = heat_operator(1)
    g = SymmetryOp((PointReflect((True, False)),))
    rep = oracle.verify_symmetry(L, g, seed=5, s=3000.0)
    assert not rep.passed and rep.residual == 1.0
    assert not verify_symmetry(L, g, symbol_probes(L, seed=5, s=3000.0)).passed  # residual 2.0
    assert not oracle.verify_symmetry(L, g, seed=5, s=3.0).passed  # measured where nothing underflows
    # a chain that maps the kernel to zero fails both checks alike
    zero = SymmetryOp((MatrixFactor(np.zeros((1, 1))),))
    for rep in (oracle.verify_symmetry(L, zero, seed=5), verify_symmetry(L, zero, symbol_probes(L, seed=5))):
        assert not rep.passed and rep.residual == 1.0
