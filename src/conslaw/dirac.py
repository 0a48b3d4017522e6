"""End-to-end checks for the spin-1/2 operator: algebra, Fock space, drifts.

``check_discrete_algebra`` takes every anticommutator of the seven
reflection/conjugation generators from exact products of their point-chain
normal forms and reports what it finds (scalar multiples of the identity,
zeros, or twisted operators), together with the realized normalization
constants, rather than asserting a single uniform Clifford normalization.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from . import fock as fk
from . import gamma as gm
from .catalog import named_symmetries
from .spectral import SUPPORT_TOL

__all__ = [
    "discrete_generators",
    "check_discrete_algebra",
    "spinor_suite",
    "fock_suite",
    "angular_momentum_series",
    "dirac_suite",
]


def discrete_generators():
    """The seven reflection/conjugation generators Gamma0..Gamma6."""
    syms = named_symmetries()
    return [syms[f"dirac.Gamma{i}"]() for i in range(7)]


_DISCRETE_METRIC = np.diag([1.0, -1.0, -1.0, -1.0, 1.0, 1.0, 1.0])
_BRACKET_TOL = 1e-10  # a measured bracket entry below this counts as zero


def _classify_pair(ga, gb):
    """Classify ``{a, b}`` of two point chains: ``ab`` and ``ba`` share one class
    (reflections and conjugation), so ``{a, b} = (M_ab + M_ba) R_s [conj^c .]``."""
    ab, ba = ga @ gb, gb @ ga
    S = ab.matrix + ba.matrix
    norm = float(np.max(np.abs(S)))
    if norm <= _BRACKET_TOL:
        return {"type": "zero", "value": 0.0}
    if any(ab.mask) or ab.conj:
        cnorm = float(np.max(np.abs(ab.matrix - ba.matrix)))
        commutes = bool(cnorm <= _BRACKET_TOL)
        return {"type": "twisted", "anticommutator_norm": norm, "commutator_norm": cnorm, "commutes": commutes}
    c = complex(np.trace(S)) / 4.0
    if np.max(np.abs(S - c * np.eye(4))) > _BRACKET_TOL:
        return {"type": "matrix", "norm": norm}
    return {"type": "scalar", "value": c.real if abs(c.imag) < _BRACKET_TOL else c}


def check_discrete_algebra():
    """Every pair bracket of the discrete generators, from exact normal-form products.

    Returns a report with one entry per unordered pair, the realized
    normalization constant of the reflection block (generators 0..4) and
    the value of the conjugation-block diagonal.  ``pass`` holds when the
    reflection block is ``c * g_ab`` with one constant ``c``.
    """
    gens = [g.point_form(4, 4) for g in discrete_generators()]
    pairs = {(a, b): _classify_pair(gens[a], gens[b]) for a in range(7) for b in range(a, 7)}

    # realized constant on the reflection block: {G_a, G_b} = c * g_ab there
    c_block = None
    block_ok = True
    for a in range(5):
        for b in range(a, 5):
            entry = pairs[(a, b)]
            want = _DISCRETE_METRIC[a, b]
            if want == 0:
                block_ok &= entry["type"] == "zero"
            elif entry["type"] != "scalar":
                block_ok = False
            else:
                ratio = entry["value"] / want
                if c_block is None:
                    c_block = ratio
                elif abs(ratio - c_block) > _BRACKET_TOL:
                    block_ok = False
    conj_diag = [pairs[(a, a)].get("value") for a in (5, 6)]
    return {
        "pairs": {f"({a},{b})": v for (a, b), v in pairs.items()},
        "reflection_block_constant": c_block,
        "reflection_block_uniform": bool(block_ok),
        "conjugation_diagonal": conj_diag,
        "metric_diagonal": list(np.diag(_DISCRETE_METRIC)),
        "pass": bool(block_ok),
    }


def spinor_suite(ndraws=100):
    """Spinor identity residuals over random momenta and masses."""
    rng = np.random.default_rng(11)
    worst = {}
    passed = True
    for _ in range(ndraws):
        p = rng.standard_normal(3) * 2.0
        m = float(rng.uniform(0.2, 3.0))
        rep_report = gm.spinor_identity_report(p, m)
        passed &= rep_report.pop("passed")
        for key, val in rep_report.items():
            worst[key] = max(worst.get(key, 0.0), val)
    worst["passed"] = passed
    worst["draws"] = ndraws
    return worst


def fock_suite():
    """Exact ladder-algebra checks on the 8-mode lattice ``p = +-(1, 0, 0)``.

    Includes the mechanical quantizations of both reflected pairings, each
    in one call for both of its times.  The CPT pairing reproduces the
    spin-ladder charge up to a unit constant.  The plain time-reflection
    pairing quantizes to the pair form
    ``sum (a'_p b'_-p - b_-p a_p)`` (time-independent because the diagonal
    contractions vanish); the momentum-reversing swap charge built by
    :func:`fock.build_kappa0` satisfies the same commutation algebra but is a
    different operator, and the report records the distance between the two.
    ``pass`` holds when the ladder algebra is exact, both charges commute
    with ``H``, ``kappa0`` shifts the ladder exactly and the CPT pairing
    matches ``kappa45`` to 1e-12.

    The checks read the operators' stored CSR entries and the ladder maps
    (``fock.max_abs_diff``, ``max_abs_commutator``, ``adjoint_sum``,
    ``commutator_defect``, ``vacuum_defect``) and build no ladder matrix;
    each number has the bits of the sparse expression it stands for.  The
    ladder shift is checked for all eight creators, ``a'`` to ``b'`` and
    ``b'`` to ``a'``.
    """
    sys = fk.FockSystem(((1.0, 0.0, 0.0), (-1.0, 0.0, 0.0)))
    report = {"modes": sys.nmodes, "dim": sys.dim}
    report["anticommutator_defect"] = sys.anticommutator_report()

    H = sys.hamiltonian()
    vac = sys.vacuum()
    report["H_hermitian_defect"] = fk.max_abs_diff(H, H.conj().T)
    report["H_vacuum_norm"] = float(np.linalg.norm(H @ vac))

    creators = sys.ladders([(sp, ip, s, True) for sp, ip, s in sys.modes])
    k0 = fk.build_kappa0(sys)
    report["kappa0_vacuum_norm"] = float(np.linalg.norm(k0 @ vac))
    report["H_kappa0_commutator"] = fk.max_abs_commutator(H, k0)
    # [kappa0, a'_{p,s}] = b'_{-p,s} and [kappa0, b'_{p,s}] = a'_{-p,s}
    swapped = sys.ladders([("b" if sp == "a" else "a", sys.reflected_index(ip), s, True) for sp, ip, s in sys.modes])
    report["kappa0_ladder_defect"] = fk.commutator_defect(k0, creators, swapped)

    k45 = fk.build_kappa45(sys)
    report["kappa45_vacuum_norm"] = float(np.linalg.norm(k45 @ vac))
    report["H_kappa45_commutator"] = fk.max_abs_commutator(H, k45)
    # kappa45 a'_{p,s}|0> = (-1)^(s+1) a'_{p,s+1}|0>, kappa45 b'_{p,s}|0> = (-1)^s b'_{p,s+1}|0>
    flipped = sys.ladders([(sp, ip, gm.spin_flip(s), True) for sp, ip, s in sys.modes])
    sign = np.array([(-1) ** (s + (sp == "a")) for sp, _, s in sys.modes], dtype=np.int8)[:, None]
    spin_map = fk.SignedMap(flipped.target, sign * flipped.phase)
    report["kappa45_spin_map_defect"] = fk.vacuum_defect(k45, creators, spin_map)

    q45, q45_later = fk.quantize_cpt_charge(sys, t=(0.0, 0.37))
    denom = fk.max_abs(k45)
    # measured unit constant between the quantized pairing and the ladder sum
    num = fk.adjoint_sum(q45, k45)
    den = fk.adjoint_sum(k45, k45)
    cconst = complex(num / den) if den else 0.0
    report["cpt_quantization_constant"] = cconst
    report["cpt_quantization_defect"] = fk.max_abs_diff(q45, k45, cconst) / max(denom, 1e-300)
    report["cpt_quantization_unit_modulus"] = abs(abs(cconst) - 1.0)
    report["cpt_quantization_time_drift"] = fk.max_abs_diff(q45_later, q45) / max(denom, 1e-300)

    q0, q0_later = fk.quantize_reflection_charge(sys, t=(0.0, 0.53))
    q0_norm = max(fk.max_abs(q0), 1e-300)
    report["reflection_quantization_time_drift"] = fk.max_abs_diff(q0_later, q0) / q0_norm
    report["reflection_quantization_pair_form_defect"] = fk.max_abs_diff(q0, _pair_form(sys)) / q0_norm
    report["reflection_vs_swap_distance"] = fk.max_abs_diff(q0, k0)
    report["pass"] = bool(
        report["anticommutator_defect"] == 0.0
        and report["H_kappa0_commutator"] < 1e-12
        and report["H_kappa45_commutator"] < 1e-12
        and report["kappa0_ladder_defect"] == 0.0
        and report["cpt_quantization_defect"] < 1e-12
    )
    return report


def _pair_form(sys):
    """Closed ladder form sum_{p,s} (a'_{p,s} b'_{-p,s} - b_{-p,s} a_{p,s})."""
    terms = []
    for ip in range(len(sys.momenta)):
        im = sys.reflected_index(ip)
        for sp in fk.SPINS:
            terms.append((1.0, ("a", ip, sp, True), ("b", im, sp, True)))
            terms.append((-1.0, ("b", im, sp, False), ("a", ip, sp, False)))
    return sys.bilinear(terms, dtype=complex)


# -- continuum drifts ---------------------------------------------------------


def angular_momentum_series(modes=64, length=16.0, width=1.0, seed=3, support_tol=SUPPORT_TOL):
    """Drift of the three rotation charges of the unit-mass flow on a packet.

    Runs the packaged ``dirac_angular_momentum`` scenario (seven times on
    ``[0, 0.5]``) on a ``modes^3`` box of side ``length`` with packet
    ``seed`` and ``width``.  Position weighting on a torus needs the state's
    boundary mass to stay negligible, so the run refuses data whose boundary
    fraction at a time exceeds ``support_tol``, and reports the worst one.
    """
    from .scenario import _packaged_scenario, run_scenario

    scn = _packaged_scenario("dirac_angular_momentum")
    scn = dataclasses.replace(
        scn,
        grid={**scn.grid, "modes": (modes,) * 3, "lengths": (length,) * 3},
        profile=f"packet(seed={seed}, width={width}, kmax=2, real=False)",
        support_tol=support_tol,
    )
    results = run_scenario(scn)["results"]
    out = {"boundary_fraction": results[0]["boundary_fraction"]}
    for axis, entry in zip("xyz", results):
        out[axis] = {"kappa0": entry["kappa0"], "drift": entry["drift"]}
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
