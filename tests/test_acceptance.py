"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance is pinned here.
"""

import time
from importlib import resources

import numpy as np

from conslaw.adjoint import formal_adjoint, semi_conjugacy_solve, transpose_adjoint
from conslaw.catalog import (
    dirac_operator,
    jordan_block_operator,
    navier_stokes_operator,
)
from conslaw.current import concomitant_flux
from conslaw.dirac import angular_momentum_series, check_discrete_algebra, fock_suite
from conslaw.dsl import parse_operator
from conslaw.fields import plane_wave
from conslaw.gamma import dirac_representation, spinor_identity_report
from conslaw.opcore import ConstCoeffOperator, op_compose
from conslaw.scenario import load_scenario, reproduce, run_scenario

from test_opcore import random_operator


def _report(num, label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {num}: {label} {detail}")
    assert ok, f"criterion {num}: {label} {detail}"


def test_criterion_1_adjoint_algebra():
    rng = np.random.default_rng(101)
    t0 = time.time()
    ok = True
    for _ in range(200):
        nvars = int(rng.integers(2, 4))
        m = int(rng.integers(1, 4))
        L1 = random_operator(rng, nvars=nvars, m=m, nterms=3, max_order=3)
        L2 = random_operator(rng, nvars=nvars, m=m, nterms=3, max_order=3)
        ok &= formal_adjoint(formal_adjoint(L1)) == L1
        ok &= formal_adjoint(op_compose(L1, L2)) == op_compose(
            formal_adjoint(L2), formal_adjoint(L1)
        )
    elapsed = time.time() - t0
    _report(1, "adjoint involution and anti-homomorphism on 200 random operators",
            ok and elapsed < 1.0, f"(exact, {elapsed:.2f}s)")


def test_criterion_2_worked_2x2_example():
    L = jordan_block_operator()
    expected = parse_operator(
        "[[-1,0],[0,-1]]*Dt + [[0,0],[1,0]]*Dt*Dx + [[-1,0],[0,-1]]*Dx^3"
    )
    _report(2, "printed 2x2 adjoint reproduced exactly", formal_adjoint(L) == expected)


def test_criterion_3_divergence_identity():
    rng = np.random.default_rng(103)
    t0 = time.time()
    worst_sym = 0.0
    worst_num = 0.0
    for _ in range(50):
        m = int(rng.integers(1, 4))
        L = random_operator(rng, nvars=2, m=m, nterms=4, max_order=3)
        if L.is_zero():
            continue
        flux = concomitant_flux(L)
        worst_sym = max(worst_sym, flux.divergence_defect(L))
        # numeric spot check on random exponentials
        q = plane_wave(2, rng.standard_normal(m) + 1j * rng.standard_normal(m), 0.4 + 0.3j, (1.3,))
        p = plane_wave(2, rng.standard_normal(m) + 1j * rng.standard_normal(m), -0.2 + 0.6j, (-0.7,))
        pts = rng.standard_normal((4, 1))
        div = 0.0
        for v, comp in enumerate(flux.components):
            ev = tuple(1 if d == v else 0 for d in range(2))
            for (beta, i, gamma, j), c in comp.items():
                up = tuple(x + e for x, e in zip(beta, ev))
                gp = tuple(x + e for x, e in zip(gamma, ev))
                div = div + c * (
                    q.diff_multi(up).evaluate(0.2, pts)[i] * p.diff_multi(gamma).evaluate(0.2, pts)[j]
                    + q.diff_multi(beta).evaluate(0.2, pts)[i] * p.diff_multi(gp).evaluate(0.2, pts)[j]
                )
        lp = p.apply_operator(L)
        ltq = q.apply_operator(transpose_adjoint(L))
        direct = sum(
            q.evaluate(0.2, pts)[i] * lp.evaluate(0.2, pts)[i]
            - p.evaluate(0.2, pts)[i] * ltq.evaluate(0.2, pts)[i]
            for i in range(m)
        )
        scale = max(np.max(np.abs(direct)), 1.0)
        worst_num = max(worst_num, float(np.max(np.abs(div - direct)) / scale))
    elapsed = time.time() - t0
    _report(3, "divergence identity on 50 random operators",
            worst_sym == 0.0 and worst_num <= 1e-10 and elapsed < 10.0,
            f"(symbolic defect {worst_sym:.1e}, numeric {worst_num:.1e}, {elapsed:.1f}s)")


def test_criterion_4_semi_conjugacy():
    rep = dirac_representation()
    L = dirac_operator(1.0, rep)
    pair = semi_conjugacy_solve(L)
    ratio = pair.A1[0, 0]
    dirac_ok = (
        pair.residual <= 1e-12
        and abs(ratio) > 0
        and np.max(np.abs(pair.A1 - ratio * rep.gamma0)) <= 1e-12
        and np.max(np.abs(pair.A2 - ratio * rep.gamma0)) <= 1e-12
    )

    ns = navier_stokes_operator()
    ns_pair = semi_conjugacy_solve(ns)
    ns_ok = np.array_equal(ns_pair.A1, np.eye(4)) and np.array_equal(ns_pair.A2, np.eye(4))

    rng = np.random.default_rng(104)
    successes = 0
    for seed in range(100):
        m = 3
        J = np.diag(rng.integers(-2, 3, size=m).astype(float)) + np.diag(np.ones(m - 1), 1)
        S = np.eye(m) + 0.3 * rng.standard_normal((m, m))
        Sinv = np.linalg.inv(S)
        terms = {}
        for order in range(3):
            c = rng.standard_normal(m)
            P = sum(ci * np.linalg.matrix_power(J, i) for i, ci in enumerate(c))
            alpha = (1, 0) if order == 0 else (0, order)
            terms[alpha] = S @ P @ Sinv
        Lc = ConstCoeffOperator(2, (m, m), terms)
        try:
            p = semi_conjugacy_solve(Lc, seed=seed)
            if p.residual <= 1e-10:
                successes += 1
        except Exception:
            pass
    _report(4, "semi-conjugacy: Dirac gamma0 pair, NS identity pair, commuting families",
            dirac_ok and ns_ok and successes >= 99,
            f"(dirac residual {pair.residual:.1e}, commuting {successes}/100)")


def _drift_of(name, results):
    return {r["symmetry"]: r["drift"] for r in results}


def test_criterion_5_conservation_drift():
    budget = {}
    t0 = time.time()
    wave = reproduce("wave-energy")
    budget["wave"] = time.time() - t0

    t0 = time.time()
    kdv = reproduce("kdvkdv-all")
    budget["kdvkdv"] = time.time() - t0

    t0 = time.time()
    heat = reproduce("heat-Es")
    budget["heat_es"] = time.time() - t0

    t0 = time.time()
    dirac = reproduce("dirac-charges")
    budget["dirac"] = time.time() - t0

    t0 = time.time()
    ang = angular_momentum_series()
    budget["angular"] = time.time() - t0

    wave_d = wave["results"][0]["drift"]
    kd = _drift_of("kdvkdv", kdv["results"])
    dd = _drift_of("dirac", dirac["results"])
    ang_d = max(ang[ax]["drift"] for ax in "xyz")

    checks = [
        ("wave energy <= 1e-10", wave_d <= 1e-10),
        ("kdv quadratic charges <= 1e-10", kd["kdvkdv.identity"] <= 1e-10 and kd["kdvkdv.swap"] <= 1e-10),
        ("kdv affine charges <= 1e-8", kd["kdvkdv.shift_linear_a"] <= 1e-8 and kd["kdvkdv.shift_linear_b"] <= 1e-8),
        ("kdv reflected charge <= 1e-10 on (0.1s, 0.9s)", kd["kdvkdv.Gamma_s"] <= 1e-10),
        ("heat two-time charge <= 1e-8 under the cap", heat["torus_drift"] <= 1e-8),
        ("dirac charge <= 1e-10", dd["identity"] <= 1e-10),
        ("dirac reflected charge <= 1e-8", dd["dirac.Gamma0"] <= 1e-8),
        ("dirac cpt charge <= 1e-8", dd["dirac.cpt"] <= 1e-8),
        ("angular momentum <= 1e-6", ang_d <= 1e-6),
        ("every scenario under 60 s", max(budget.values()) < 60.0),
    ]
    ok = all(flag for _, flag in checks)
    detail = "; ".join(f"{lbl}: {'ok' if flag else 'FAIL'}" for lbl, flag in checks)
    _report(5, "conservation drift with exact spectral propagation", ok,
            f"({detail}; times {({k: round(v, 1) for k, v in budget.items()})})")


def test_criterion_6_heat_oracle():
    rep = reproduce("heat-Es")
    spread = rep["equal_time_spread"]
    torus = rep["torus_vs_oracle"]
    _report(6, "heat two-time oracle: equal-time values and torus agreement",
            spread <= 1e-6 and torus <= 1e-4,
            f"(spread {spread:.1e}, torus vs oracle {torus:.1e})")


def test_criterion_7_negative_controls():
    heat = reproduce("heat-negative-control")
    heat_drift = heat["results"][0]["drift"]
    dirac = reproduce("dirac-charges")
    bad = _drift_of("dirac", dirac["results"])["dirac.bad_time_reflection"]
    _report(7, "negative controls drift >= 1e-2", heat_drift >= 1e-2 and bad >= 1e-2,
            f"(heat reversal {heat_drift:.2e}, chirality-off {bad:.2e})")


def test_criterion_8_clifford_spinor_suite():
    rep = dirac_representation()
    relations_ok = rep.check_relations(tol=0.0)
    adjoint_ok = all(
        np.array_equal(rep.gamma(mu).conj().T, rep.gamma0 @ rep.gamma(mu) @ rep.gamma0)
        for mu in range(4)
    )
    rng = np.random.default_rng(108)
    worst = 0.0
    for _ in range(100):
        p = rng.standard_normal(3) * 2
        m = float(rng.uniform(0.2, 3.0))
        r = spinor_identity_report(p, m)
        worst = max(worst, max(v for k, v in r.items() if k not in ("passed",)))
    alg = check_discrete_algebra()
    listed = len(alg["pairs"]) == 28
    constant = alg["reflection_block_constant"]
    _report(8, "Clifford relations, adjoint conjugation, appendix contractions, bracket table",
            relations_ok and adjoint_ok and worst <= 1e-12 and listed and constant == -2.0,
            f"(contractions {worst:.1e}, realized block constant {constant})")


def test_criterion_9_fock_suite():
    rep = fock_suite()
    ok = (
        rep["dim"] == 256
        and rep["anticommutator_defect"] == 0.0
        and rep["H_kappa0_commutator"] < 1e-12
        and rep["H_kappa45_commutator"] < 1e-12
        and rep["kappa0_ladder_defect"] == 0.0
        and rep["cpt_quantization_defect"] < 1e-12
        and rep["cpt_quantization_unit_modulus"] < 1e-12
    )
    _report(9, "Fock suite: exact ladder algebra and mechanical CPT re-derivation", ok,
            f"(cpt quantization defect {rep['cpt_quantization_defect']:.1e} at unit "
            f"constant {rep['cpt_quantization_constant']})")


def test_criterion_10_determinism(tmp_path):
    scn = load_scenario(resources.files("conslaw") / "scenarios" / "dirac_charges.scn")
    run_scenario(scn, out_dir=tmp_path / "a")
    run_scenario(scn, out_dir=tmp_path / "b")
    ja = (tmp_path / "a" / "dirac_charges.json").read_bytes()
    jb = (tmp_path / "b" / "dirac_charges.json").read_bytes()
    _report(10, "fixed seed gives byte-identical JSON summaries", ja == jb)
