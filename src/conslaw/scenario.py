"""Scenario files, the verification pipeline, and canned reproductions.

A scenario is a flat ``key = value`` text file (``#`` comments)::

    name      = wave_energy
    operator  = wave(dim=1)
    grid      = modes:256 length:6.283185307179586
    profile   = random(seed=7, kmax=40)
    times     = linspace(0.0, 1.0, 21)
    s         = 1.0
    seed      = 1234
    tolerance = 1e-10
    symmetry  = wave.time_translation
    symmetry  = heat.time_reversal expect=drift min_drift=1e-2

``symmetry`` lines may repeat; the optional trailing ``key=value`` tokens set
per-symmetry expectations (``expect=conserve`` by default).  ``grid`` takes
``modes``/``length`` (comma lists for anisotropic boxes), optional ``kmax``
(spherical cutoff) and ``dims``.  The pipeline per symmetry is: factorize the
adjoint, build the bilinear current, build the characteristic, propagate
exactly, integrate the density, and measure drift.

The scenario files of the built-in reproductions ship with the package in
``conslaw/scenarios/`` and are read when the registry is built, not at
import; each reproduction's ``pass`` field is its one verdict, and ``reproduce``
writes one JSON summary per reproduction.
"""

from __future__ import annotations

import csv
import dataclasses
import json
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

import numpy as np

from .adjoint import adjoint_factorization, semi_conjugacy_solve
from .catalog import build_operator, build_profile, build_symmetry
from .current import adjoint_characteristic, concomitant_flux
from .spectral import (
    EvolutionSystem,
    TorusGrid,
    Trajectory,
    boundary_fraction,
    characteristic_view,
    kappa_series,
)
from .symmetry import KernelShift, verify_kernel_shift, verify_symmetry

__all__ = [
    "Scenario",
    "SymmetryCase",
    "ScenarioError",
    "parse_scenario",
    "load_scenario",
    "run_scenario",
    "reproductions",
    "reproduce",
]


class ScenarioError(ValueError):
    pass


@dataclass(frozen=True)
class SymmetryCase:
    spec: str
    expect: str = "conserve"  # or "drift"
    min_drift: float = 1e-2
    tolerance: float | None = None


@dataclass(frozen=True)
class Scenario:
    name: str
    operator: str
    grid: dict
    profile: str
    times: tuple
    symmetries: tuple  # of SymmetryCase
    s: float = 1.0
    seed: int = 0
    tolerance: float = 1e-10
    support_tol: float = 1e-10
    amp_cap: float = 1e6
    certifies: str = ""


def _parse_times(text):
    text = text.strip()
    if text.startswith("linspace(") and text.endswith(")"):
        inner = text[len("linspace(") : -1]
        a, b, n = [x.strip() for x in inner.split(",")]
        times = tuple(np.linspace(float(a), float(b), int(n)))
    else:
        times = tuple(float(x) for x in text.split(","))
    if not times or not np.isfinite(times).all():
        raise ScenarioError(f"times must be a non-empty list of finite numbers, got {text!r}")
    return times


def _parse_grid(text):
    spec = {}
    for tok in text.split():
        if ":" not in tok:
            raise ScenarioError(f"grid tokens must be key:value, got {tok!r}")
        key, val = tok.split(":", 1)
        spec[key.strip()] = val.strip()
    if "modes" not in spec or "length" not in spec:
        raise ScenarioError("grid needs modes: and length:")
    modes = tuple(int(x) for x in spec["modes"].split(","))
    lengths = tuple(float(x) for x in spec["length"].split(","))
    dims = int(spec.get("dims", max(len(modes), len(lengths))))
    if len(modes) == 1:
        modes = modes * dims
    if len(lengths) == 1:
        lengths = lengths * dims
    kmax = spec.get("kmax")
    kmax = float(kmax) if kmax not in (None, "", "0", "none") else None
    return {"modes": modes, "lengths": lengths, "kmax": kmax}


def _parse_symmetry_line(text, default_tol):
    tokens = text.split()
    # re-join spec tokens split inside parentheses, e.g. "f(a=1, b=2)"
    spec = tokens[0]
    rest = tokens[1:]
    while spec.count("(") > spec.count(")") and rest:
        spec += " " + rest.pop(0)
    case = {"expect": "conserve", "min_drift": 1e-2, "tolerance": None}
    for tok in rest:
        if "=" not in tok:
            raise ScenarioError(f"symmetry options must be key=value, got {tok!r}")
        key, val = tok.split("=", 1)
        if key == "expect":
            if val not in ("conserve", "drift"):
                raise ScenarioError(f"expect must be conserve or drift, got {val!r}")
            case["expect"] = val
        elif key == "min_drift":
            case["min_drift"] = float(val)
        elif key == "tolerance":
            case["tolerance"] = float(val)
        else:
            raise ScenarioError(f"unknown symmetry option {key!r}")
    return SymmetryCase(spec, case["expect"], case["min_drift"], case["tolerance"])


def parse_scenario(text, name="scenario"):
    fields = {}
    symmetries = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ScenarioError(f"line {lineno}: expected key = value")
        key, val = line.split("=", 1)
        key = key.strip()
        val = val.strip()
        if key == "symmetry":
            symmetries.append(val)
        else:
            fields[key] = val
    required = ("operator", "grid", "profile", "times")
    for key in required:
        if key not in fields:
            raise ScenarioError(f"scenario is missing {key!r}")
    if not symmetries:
        raise ScenarioError("scenario needs at least one symmetry line")
    tol = float(fields.get("tolerance", 1e-10))
    return Scenario(
        name=fields.get("name", name),
        operator=fields["operator"],
        grid=_parse_grid(fields["grid"]),
        profile=fields["profile"],
        times=_parse_times(fields["times"]),
        symmetries=tuple(_parse_symmetry_line(s, tol) for s in symmetries),
        s=float(fields.get("s", 1.0)),
        seed=int(fields.get("seed", 0)),
        tolerance=tol,
        support_tol=float(fields.get("support_tol", 1e-10)),
        amp_cap=float(fields.get("amp_cap", 1e6)),
        certifies=fields.get("certifies", ""),
    )


def load_scenario(path):
    path = Path(path)
    return parse_scenario(path.read_text(), name=path.stem)


def _json_safe(value):
    if isinstance(value, complex):
        return {"re": value.real, "im": value.imag}
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, dict):
        return {k: _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    return value


def _position_weighted(gen):
    """Does the generator weight the density by a spatial coordinate?"""
    from .symmetry import DiffFactor

    if isinstance(gen, KernelShift):
        return any(
            any(pol[1:]) for (_i, pol, _lam, _k) in gen.field.terms
        )
    for factor in getattr(gen, "factors", ()):
        if isinstance(factor, DiffFactor):
            for poly, _mat, _alpha in factor.terms:
                if any(slot != 0 for slot, _e in poly):
                    return True
    return False


def run_scenario(scn, out_dir=None, write_csv=True):
    """Execute the full pipeline; returns the JSON-able run report."""
    L = build_operator(scn.operator)
    grid = TorusGrid(scn.grid["lengths"], scn.grid["modes"], scn.grid["kmax"])
    system = EvolutionSystem(L, grid, amp_cap=scn.amp_cap)
    coeffs = build_profile(scn.profile, grid, L.cols * system.R)
    traj = Trajectory(system, coeffs)
    pair = semi_conjugacy_solve(L, seed=scn.seed)
    fact = adjoint_factorization(L, pair)
    flux = concomitant_flux(L)

    results = []
    all_pass = True
    out_dir = Path(out_dir) if out_dir else None
    for case in scn.symmetries:
        gen = build_symmetry(case.spec)
        entry = {"symmetry": case.spec, "expect": case.expect}
        if isinstance(gen, KernelShift):
            entry["generator_check"] = bool(verify_kernel_shift(L, gen))
        elif gen.factors:
            rep = verify_symmetry(L, gen, seed=scn.seed, s=scn.s)
            entry["generator_check"] = bool(rep.passed)
            entry["generator_residual"] = rep.residual
            entry["generator_target"] = rep.target
        else:
            entry["generator_check"] = True
        if _position_weighted(gen):
            worst = max(
                boundary_fraction(grid, traj.state_at(t).values()) for t in scn.times
            )
            entry["boundary_fraction"] = worst
            if worst > scn.support_tol:
                raise ScenarioError(
                    f"position-weighted functional {case.spec!r} needs compactly "
                    f"supported data: boundary fraction {worst:.2e} exceeds "
                    f"{scn.support_tol:g}"
                )
        char = adjoint_characteristic(L, fact, gen)
        qview = characteristic_view(char, traj, s=scn.s, support_tol=scn.support_tol)
        series = kappa_series(flux, qview, traj, scn.times)
        tol = case.tolerance if case.tolerance is not None else scn.tolerance
        if case.expect == "drift":
            passed = series.drift >= case.min_drift
        else:
            passed = series.drift <= tol and entry["generator_check"]
        entry["drift"] = series.drift
        entry["kappa0"] = series.values[0]
        entry["pass"] = bool(passed)
        all_pass &= passed
        if write_csv and out_dir is not None:
            out_dir.mkdir(parents=True, exist_ok=True)
            safe = case.spec.replace("(", "_").replace(")", "").replace("=", "").replace(".", "_").replace(",", "_")
            csv_path = out_dir / f"{scn.name}__{safe}.csv"
            with open(csv_path, "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(["t", "re_kappa", "im_kappa", "drift"])
                for row in series.as_rows():
                    writer.writerow([repr(x) for x in row])
            entry["csv"] = csv_path.name  # keep the summary path-independent
        results.append(entry)
    report = {
        "scenario": scn.name,
        "operator": scn.operator,
        "seed": scn.seed,
        "s": scn.s,
        "certifies": scn.certifies,
        "results": results,
        "pass": bool(all_pass),
    }
    report = _json_safe(report)
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        with open(out_dir / f"{scn.name}.json", "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return report


# -- canned reproductions ------------------------------------------------------


def _packaged_scenario(stem):
    """Parse ``<stem>.scn`` from the scenario files shipped in the package."""
    path = resources.files(__package__) / "scenarios" / f"{stem}.scn"
    return parse_scenario(path.read_text(), name=stem)


@dataclass(frozen=True)
class Reproduction:
    """A named reproduction: a packaged scenario, or a report ``runner``.

    A scenario reproduction runs its scenario under the reproduction's name,
    and its ``certifies`` text is the scenario file's own.
    """

    name: str
    certifies: str
    scenario: Scenario | None = None
    runner: object = field(repr=False, default=None)

    @classmethod
    def from_scenario(cls, name, stem):
        scn = dataclasses.replace(_packaged_scenario(stem), name=name)
        return cls(name, scn.certifies, scenario=scn)


def _report_kdvkdv_all():
    quad = run_scenario(_packaged_scenario("kdvkdv_quadratic"), out_dir=None, write_csv=False)
    aff = run_scenario(_packaged_scenario("kdvkdv_affine"), out_dir=None, write_csv=False)
    return {
        "results": quad["results"] + aff["results"],
        "pass": bool(quad["pass"] and aff["pass"]),
    }


def _report_jordan():
    from .adjoint import classify_adjointness, formal_adjoint, _pair_residual
    from .catalog import jordan_block_operator
    from .dsl import format_operator, parse_operator

    L = jordan_block_operator()
    Ls = formal_adjoint(L)
    expected = parse_operator("[[-1,0],[0,-1]]*Dt + [[-1,0],[0,-1]]*Dx^3 + [[0,0],[1,0]]*Dt*Dx")
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    swap_res = _pair_residual(L, swap, swap, sign_absorbed=False)
    pair = semi_conjugacy_solve(L)
    report = {
        "operator": format_operator(L),
        "adjoint": format_operator(Ls),
        "matches_expected": bool(Ls == expected),
        "classification": classify_adjointness(L),
        "swap_pair_residual": swap_res,
        "solver_parity_free": pair.sign_absorbed,
        "solver_residual": pair.residual,
        "pass": bool(Ls == expected and swap_res <= 1e-12),
    }
    return _json_safe(report)


def _report_ns():
    from .adjoint import classify_adjointness, formal_adjoint
    from .catalog import navier_stokes_operator
    from .dsl import format_operator

    L = navier_stokes_operator()
    pair = semi_conjugacy_solve(L)
    fact = adjoint_factorization(L, pair)
    eyeish = float(
        np.max(np.abs(pair.A1 - np.eye(4))) + np.max(np.abs(pair.A2 - np.eye(4)))
    )
    report = {
        "operator": format_operator(L),
        "classification": classify_adjointness(L),
        "identity_pair": eyeish == 0.0,
        "parity_mask": list(pair.parity_mask),
        "coefficient_residual": pair.residual,
        "symbol_identity_residual": fact.symbol_residual,
        "pass": bool(eyeish == 0.0 and fact.symbol_residual <= 1e-10),
    }
    return _json_safe(report)


def _report_heat_es_oracle():
    from .spectral import heat_flow_product_oracle

    s = 1.0
    profile = lambda y: np.exp(-(y**2) / (2.0 * 2.0**2))
    values, quad_err = heat_flow_product_oracle(profile, s, [s / 4, s / 2, 3 * s / 4])
    spread = float(np.max(np.abs(values - values[0])) / abs(values[0]))
    tor = run_scenario(_packaged_scenario("heat_es"), out_dir=None, write_csv=False)
    torus_kappa = tor["results"][0]["kappa0"]["re"]
    report = {
        "oracle_values": list(values),
        "quadrature_error": quad_err,
        "equal_time_spread": spread,
        "symmetric_check": float(abs(values[0] - values[-1]) / abs(values[0])),
        "torus_value": torus_kappa,
        "torus_vs_oracle": float(abs(torus_kappa - values[1]) / abs(values[1])),
        "torus_drift": tor["results"][0]["drift"],
        "pass": bool(spread <= 1e-6 and abs(torus_kappa - values[1]) / abs(values[1]) <= 1e-4),
    }
    return _json_safe(report)


def _report_dirac_discrete():
    from .dirac import check_discrete_algebra

    rep = check_discrete_algebra()
    rep["pass"] = bool(rep["reflection_block_uniform"])
    return _json_safe(rep)


def _report_fock():
    from .dirac import fock_suite

    rep = fock_suite()
    rep["pass"] = bool(
        rep["anticommutator_defect"] == 0.0
        and rep["H_kappa0_commutator"] < 1e-12
        and rep["H_kappa45_commutator"] < 1e-12
        and rep["kappa0_ladder_defect"] == 0.0
        and rep["cpt_quantization_defect"] < 1e-12
    )
    return _json_safe(rep)


def _report_angular():
    from .dirac import angular_momentum_series

    rep = angular_momentum_series()
    worst = max(rep[ax]["drift"] for ax in ("x", "y", "z"))
    rep["worst_drift"] = worst
    rep["pass"] = bool(worst <= 1e-6)
    return _json_safe(rep)


def reproductions():
    """Registry of named built-in reproductions."""
    entries = [
        Reproduction.from_scenario("wave-energy", "wave_energy"),
        Reproduction(
            "kdvkdv-all",
            "all charge families of the coupled linear KdV pair",
            runner=_report_kdvkdv_all,
        ),
        Reproduction(
            "heat-Es",
            "the heat flow's two-time product integral: whole-line oracle vs torus",
            runner=_report_heat_es_oracle,
        ),
        Reproduction.from_scenario("heat-negative-control", "heat_negative_control"),
        Reproduction(
            "jordan-2x2",
            "worked 2x2 non-normal example: printed adjoint and the swap pair",
            runner=_report_jordan,
        ),
        Reproduction(
            "ns-adjoint",
            "incompressible Stokes operator: identity conjugating pair",
            runner=_report_ns,
        ),
        Reproduction.from_scenario("dirac-charges", "dirac_charges"),
        Reproduction(
            "dirac-cpt",
            "CPT pairing quantizes to the spin-ladder charge commuting with H",
            runner=_report_fock,
        ),
        Reproduction(
            "dirac-discrete",
            "measured bracket table of the seven reflection/conjugation generators",
            runner=_report_dirac_discrete,
        ),
        Reproduction(
            "dirac-angular-momentum",
            "orbital-plus-spin rotation charges on a compact packet",
            runner=_report_angular,
        ),
    ]
    return {e.name: e for e in entries}


def reproduce(name, out_dir=None):
    """Run a named reproduction; with ``out_dir``, write its one JSON summary."""
    reg = reproductions()
    if name not in reg:
        raise KeyError(f"unknown reproduction {name!r}; see `conslaw list`")
    entry = reg[name]
    if entry.scenario is not None:
        return run_scenario(entry.scenario, out_dir=out_dir)
    report = {"scenario": name, **entry.runner(), "certifies": entry.certifies}
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        with open(out / f"{name}.json", "w") as fh:
            json.dump(_json_safe(report), fh, indent=2, sort_keys=True)
            fh.write("\n")
    return report
