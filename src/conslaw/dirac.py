"""End-to-end checks for the spin-1/2 operator: algebra, Fock space, drifts.

``check_discrete_algebra`` measures every anticommutator of the seven
reflection/conjugation generators on exact plane-wave probes and reports what
it finds (scalar multiples of the identity, zeros, or twisted operators),
together with the realized normalization constants, rather than asserting a
single uniform Clifford normalization.
"""

from __future__ import annotations

import numpy as np

from . import fock as fk
from . import gamma as gm
from .adjoint import adjoint_factorization, semi_conjugacy_solve
from .catalog import dirac_operator, named_symmetries
from .current import adjoint_characteristic, concomitant_flux
from .fields import plane_wave
from .spectral import (
    EvolutionSystem,
    SupportError,
    TorusGrid,
    Trajectory,
    boundary_fraction,
    characteristic_view,
    kappa_series,
)
from .symmetry import apply_symmetry_analytic

__all__ = [
    "discrete_generators",
    "check_discrete_algebra",
    "spinor_suite",
    "fock_suite",
    "angular_momentum_series",
    "dirac_suite",
]


def discrete_generators(s=0.0):
    """The seven reflection/conjugation generators Gamma0..Gamma6."""
    syms = named_symmetries()
    names = [f"dirac.Gamma{i}" for i in range(7)]
    out = []
    for name in names:
        if name in ("dirac.Gamma0", "dirac.Gamma4"):
            out.append(syms[name](s=s))
        else:
            out.append(syms[name]())
    return out


_DISCRETE_METRIC = np.diag([1.0, -1.0, -1.0, -1.0, 1.0, 1.0, 1.0])


def _classify_pair(ga, gb, probes, tol):
    """Classify the anticommutator of two chains on plane-wave probes."""

    def anti(f):
        return apply_symmetry_analytic(ga, apply_symmetry_analytic(gb, f)) + \
            apply_symmetry_analytic(gb, apply_symmetry_analytic(ga, f))

    def comm(f):
        return apply_symmetry_analytic(ga, apply_symmetry_analytic(gb, f)) - \
            apply_symmetry_analytic(gb, apply_symmetry_analytic(ga, f))

    values = []
    twisted = 0.0
    for probe, key in probes:
        out = anti(probe)
        amp = np.zeros(4, dtype=complex)
        local = True
        for (i, pol, lam, k), c in out.terms.items():
            if any(pol) or (lam, k) != key:
                local = False
                break
            amp[i] = c
        if not local:
            twisted = max(twisted, out.max_coeff())
            continue
        values.append(amp)
    if twisted > tol:
        cnorm = max(
            comm(probe).max_coeff() for probe, _ in probes
        )
        return {
            "type": "twisted",
            "anticommutator_norm": float(twisted),
            "commutator_norm": float(cnorm),
            "commutes": bool(cnorm <= tol),
        }
    # probes are the four basis spinors at a shared wave; values stack to C
    C = np.stack(values, axis=1)
    c = np.trace(C) / 4.0
    if np.max(np.abs(C - c * np.eye(4))) > tol:
        return {"type": "matrix", "norm": float(np.max(np.abs(C)))}
    if abs(c) <= tol:
        return {"type": "zero", "value": 0.0}
    val = complex(c)
    return {"type": "scalar", "value": val.real if abs(val.imag) < tol else val}


def check_discrete_algebra(s=0.0, tol=1e-10, seed=5):
    """Measure every pair bracket of the discrete generators.

    Returns a report with one entry per unordered pair, the realized
    normalization constant of the reflection block (generators 0..4), the
    value of the conjugation-block diagonal, and a list of pairs that
    anticommute/commute/neither.
    """
    gens = discrete_generators(s=s)
    rng = np.random.default_rng(seed)
    lam = complex(rng.standard_normal(), rng.standard_normal())
    k = tuple(float(x) for x in rng.integers(1, 4, size=3))
    probes = []
    for i in range(4):
        e = np.zeros(4, dtype=complex)
        e[i] = 1.0
        probes.append((plane_wave(4, e, lam, k), (lam, k)))

    pairs = {}
    for a in range(7):
        for b in range(a, 7):
            pairs[(a, b)] = _classify_pair(gens[a], gens[b], probes, tol)

    # realized constant on the reflection block: {G_a, G_b} = c * g_ab there
    c_block = None
    block_ok = True
    for a in range(5):
        for b in range(a, 5):
            entry = pairs[(a, b)]
            want = _DISCRETE_METRIC[a, b]
            if want == 0:
                block_ok &= entry["type"] == "zero"
            else:
                if entry["type"] != "scalar":
                    block_ok = False
                    continue
                ratio = entry["value"] / want
                if c_block is None:
                    c_block = ratio
                elif abs(ratio - c_block) > tol:
                    block_ok = False
    conj_diag = [pairs[(a, a)].get("value") for a in (5, 6)]
    return {
        "pairs": {f"({a},{b})": v for (a, b), v in pairs.items()},
        "reflection_block_constant": c_block,
        "reflection_block_uniform": bool(block_ok),
        "conjugation_diagonal": conj_diag,
        "metric_diagonal": list(np.diag(_DISCRETE_METRIC)),
    }


def spinor_suite(ndraws=100, seed=11, tol=1e-12):
    """Spinor identity residuals over random momenta and masses."""
    rng = np.random.default_rng(seed)
    worst = {}
    for _ in range(ndraws):
        p = rng.standard_normal(3) * 2.0
        m = float(rng.uniform(0.2, 3.0))
        rep_report = gm.spinor_identity_report(p, m)
        for key, val in rep_report.items():
            if key == "passed":
                continue
            worst[key] = max(worst.get(key, 0.0), val)
    worst["passed"] = all(v <= tol for k, v in worst.items() if k != "passed")
    worst["draws"] = ndraws
    return worst


def fock_suite(momenta=((1.0, 0.0, 0.0), (-1.0, 0.0, 0.0)), mass=1.0):
    """Exact ladder-algebra checks on the default 8-mode lattice.

    Includes the mechanical quantizations of both reflected pairings.  The
    CPT pairing reproduces the spin-ladder charge up to a unit constant.  The
    plain time-reflection pairing quantizes to the pair form
    ``sum (a'_p b'_-p - b_-p a_p)`` (time-independent because the diagonal
    contractions vanish); the momentum-reversing swap charge built by
    :func:`fock.build_kappa0` satisfies the same commutation algebra but is a
    different operator, and the report records the distance between the two.
    """
    sys = fk.FockSystem(momenta, mass=mass)
    rep = gm.dirac_representation()
    report = {"modes": sys.nmodes, "dim": sys.dim}
    report["anticommutator_defect"] = sys.anticommutator_report()

    H = sys.hamiltonian()
    vac = sys.vacuum()
    report["H_hermitian_defect"] = fk.max_abs(H - H.conj().T)
    report["H_vacuum_norm"] = float(np.linalg.norm(H @ vac))

    k0 = fk.build_kappa0(sys)
    report["kappa0_vacuum_norm"] = float(np.linalg.norm(k0 @ vac))
    report["H_kappa0_commutator"] = fk.max_abs(H @ k0 - k0 @ H)
    worst = 0.0
    for ip in range(len(sys.momenta)):
        im = sys.reflected_index(ip)
        for sp in fk.SPINS:
            lhs = k0 @ sys.adag(ip, sp) - sys.adag(ip, sp) @ k0
            worst = max(worst, fk.max_abs(lhs - sys.bdag(im, sp)))
    report["kappa0_ladder_defect"] = worst

    k45 = fk.build_kappa45(sys)
    report["kappa45_vacuum_norm"] = float(np.linalg.norm(k45 @ vac))
    report["H_kappa45_commutator"] = fk.max_abs(H @ k45 - k45 @ H)
    spin_map = 0.0
    for ip in range(len(sys.momenta)):
        for sp in fk.SPINS:
            t = gm.spin_flip(sp)
            got = k45 @ (sys.adag(ip, sp) @ vac)
            want = ((-1.0) ** (sp + 1)) * (sys.adag(ip, t) @ vac)
            spin_map = max(spin_map, float(np.max(np.abs(got - want))))
            got_b = k45 @ (sys.bdag(ip, sp) @ vac)
            want_b = ((-1.0) ** sp) * (sys.bdag(ip, t) @ vac)
            spin_map = max(spin_map, float(np.max(np.abs(got_b - want_b))))
    report["kappa45_spin_map_defect"] = spin_map

    q45 = fk.quantize_cpt_charge(sys, rep)
    denom = fk.max_abs(k45)
    # measured unit constant between the quantized pairing and the ladder sum
    num = (q45.multiply(k45.conj().T.tocsr())).sum()
    den = (k45.multiply(k45.conj().T.tocsr())).sum()
    cconst = complex(num / den) if den else 0.0
    report["cpt_quantization_constant"] = cconst
    report["cpt_quantization_defect"] = fk.max_abs(q45 - cconst * k45) / max(denom, 1e-300)
    report["cpt_quantization_unit_modulus"] = abs(abs(cconst) - 1.0)
    q45_later = fk.quantize_cpt_charge(sys, rep, t=0.37)
    report["cpt_quantization_time_drift"] = fk.max_abs(q45_later - q45) / max(denom, 1e-300)

    q0 = fk.quantize_reflection_charge(sys, rep)
    q0_later = fk.quantize_reflection_charge(sys, rep, t=0.53)
    report["reflection_quantization_time_drift"] = fk.max_abs(q0_later - q0) / max(
        fk.max_abs(q0), 1e-300
    )
    pair_form = _pair_form(sys)
    report["reflection_quantization_pair_form_defect"] = fk.max_abs(q0 - pair_form) / max(
        fk.max_abs(q0), 1e-300
    )
    report["reflection_vs_swap_distance"] = fk.max_abs(q0 - k0)
    return report


def _pair_form(sys):
    """Closed ladder form sum_{p,s} (a'_{p,s} b'_{-p,s} - b_{-p,s} a_{p,s})."""
    from scipy import sparse

    K = sparse.csr_matrix((sys.dim, sys.dim), dtype=complex)
    for ip in range(len(sys.momenta)):
        im = sys.reflected_index(ip)
        for sp in fk.SPINS:
            K = K + sys.adag(ip, sp) @ sys.bdag(im, sp)
            K = K - sys.b(im, sp) @ sys.a(ip, sp)
    return K


# -- continuum drifts ---------------------------------------------------------


def angular_momentum_series(
    mass=1.0, modes=64, length=16.0, width=1.0, seed=3, ntimes=7, span=0.5,
    support_tol=1e-10,
):
    """Drift of the three rotation charges on a compactly supported packet.

    Position weighting on a torus needs the state's boundary mass to stay
    negligible; the packet width is balanced against the grid's spectral
    cutoff and the run refuses data that violates the support guard.
    """
    rep = gm.dirac_representation()
    L = dirac_operator(mass, rep)
    grid = TorusGrid((length,) * 3, (modes,) * 3)
    from .catalog import build_profile

    system = EvolutionSystem(L, grid)
    coeffs = build_profile(
        f"packet(seed={seed}, width={width}, kmax=2, real=False)", grid, 4
    )
    traj = Trajectory(system, coeffs)
    frac = boundary_fraction(grid, traj.state_at(0.0).values())
    if frac > support_tol:
        raise SupportError(f"packet boundary fraction {frac:.2e} above {support_tol:g}")
    pair = semi_conjugacy_solve(L)
    fact = adjoint_factorization(L, pair)
    flux = concomitant_flux(L)
    syms = named_symmetries()
    times = np.linspace(0.0, span, ntimes)
    out = {"boundary_fraction": frac}
    for axis in ("x", "y", "z"):
        gen = syms[f"dirac.rotation_{axis}"]()
        char = adjoint_characteristic(L, fact, gen)
        qview = characteristic_view(char, traj, s=0.0, support_tol=support_tol)
        series = kappa_series(flux, qview, traj, times)
        out[axis] = {"kappa0": series.values[0], "drift": series.drift}
    return out


# the reproductions whose verdicts the suite embeds; the last one is slow
_SUITE_REPRODUCTIONS = ("dirac-charges", "dirac-cpt", "dirac-discrete", "dirac-angular-momentum")


def dirac_suite(fast=False):
    """Representation checks plus the embedded Dirac reproductions (JSON-able).

    ``pass`` is the AND of the Clifford relations, the adjoint conjugation,
    the spinor identities and every embedded reproduction's own ``pass``;
    ``fast`` leaves out the angular-momentum reproduction.
    """
    from .scenario import reproduce

    rep = gm.dirac_representation()
    report = {}
    try:
        rep.check_relations(tol=0.0)
        report["clifford_relations"] = {"exact": True}
    except ValueError as exc:
        report["clifford_relations"] = {"exact": False, "error": str(exc)}
    adj = 0.0
    g0 = rep.gamma0
    for mu in range(4):
        g = rep.gamma(mu)
        adj = max(adj, float(np.max(np.abs(g.conj().T - g0 @ g @ g0))))
    report["adjoint_conjugation_defect"] = adj
    report["spinor_identities"] = spinor_suite(ndraws=20 if fast else 100)
    names = _SUITE_REPRODUCTIONS[:-1] if fast else _SUITE_REPRODUCTIONS
    report["reproductions"] = {name: reproduce(name) for name in names}
    report["pass"] = bool(
        report["clifford_relations"]["exact"]
        and adj == 0.0
        and report["spinor_identities"]["passed"]
        and all(r["pass"] for r in report["reproductions"].values())
    )
    return report
