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

The keys and their defaults are the fields of :class:`Scenario`, and the
trailing ``key=value`` tokens of a ``symmetry`` line are those of
:class:`SymmetryCase`.  ``symmetry`` lines may repeat; any other key given
twice, an unknown key and an unknown grid token are errors.  ``grid`` takes
``modes``/``length`` (comma lists for anisotropic boxes), optional ``kmax``
(spherical cutoff, ``none`` or a finite number >= 0; ``0`` keeps the zero
mode only) and ``dims``.  Each ``length``, ``tolerance``, ``min_drift``,
``support_tol`` and ``amp_cap`` must be finite and > 0, the reflection
time ``s`` finite, and ``times`` finite with two distinct values at least.

The pipeline factorizes the adjoint and builds the bilinear current and the
trajectory once, then each symmetry's generator check and characteristic
view; every generator check shares one set of kernel probes, drawn once per
scenario (see :mod:`conslaw.symmetry`).  One pass over the sample times
integrates every density at each time and, for position-weighted
functionals, checks the data's support.

The scenario files of the built-in reproductions ship with the package in
``conslaw/scenarios/`` and are read when the registry is first built, not at
import, and parsed once per process; each reproduction's ``pass`` field is
its one verdict, and ``reproduce`` writes one JSON summary per reproduction.
Reports keep complex and numpy values until they are written;
``_json_default`` encodes them, for the summary files and for the command
line's stdout alike.
"""

from __future__ import annotations

import csv
import dataclasses
import functools
import json
import math
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

import numpy as np

from .adjoint import adjoint_factorization, semi_conjugacy_solve
from .catalog import build_operator, build_profile, build_symmetry
from .current import adjoint_characteristic, concomitant_flux
from .spectral import (
    AMP_CAP,
    SUPPORT_TOL,
    EvolutionSystem,
    SupportError,
    TorusGrid,
    Trajectory,
    kappa_series,
    symmetry_view,
)
from .symmetry import KernelShift, symbol_probes, verify_kernel_shift, verify_symmetry

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
    support_tol: float = SUPPORT_TOL
    amp_cap: float = AMP_CAP
    certifies: str = ""


MAX_TIMES = 10_000  # most sample times a scenario may list or ask of linspace


def _time_count(n):
    """``n``, a count of sample times, refused above ``MAX_TIMES`` before any time is made."""
    if n > MAX_TIMES:
        raise ScenarioError(f"at most {MAX_TIMES} sample times are allowed, got {n}")
    return n


def _parse_times(text):
    text = text.strip()
    if text.startswith("linspace(") and text.endswith(")"):
        inner = text[len("linspace(") : -1]
        a, b, n = [x.strip() for x in inner.split(",")]
        times = tuple(np.linspace(float(a), float(b), _time_count(int(n))))
    else:
        parts = text.split(",")
        _time_count(len(parts))
        times = tuple(float(x) for x in parts)
    if not times or not np.isfinite(times).all():
        raise ScenarioError(f"must be a non-empty list of finite numbers, got {text!r}")
    if len(set(times)) < 2:
        raise ScenarioError(f"needs at least two distinct times, since one cannot show a drift; got {text!r}")
    return times


_GRID_TOKENS = ("modes", "length", "dims", "kmax")


def _parse_grid(text):
    spec = {}
    for tok in text.split():
        key, sep, val = tok.partition(":")
        if not sep:
            raise ScenarioError(f"tokens must be key:value, got {tok!r}")
        if key not in _GRID_TOKENS or key in spec:
            tokens = ", ".join(_GRID_TOKENS)
            raise ScenarioError(f"token {key!r} is unknown or repeated (tokens: {tokens})")
        spec[key] = val
    if "modes" not in spec or "length" not in spec:
        raise ScenarioError("needs modes: and length:")
    modes = tuple(int(x) for x in spec["modes"].split(","))
    lengths = tuple(float(x) for x in spec["length"].split(","))
    dims = int(spec.get("dims", max(len(modes), len(lengths))))
    # the DSL names three space variables at most; checked before ``modes * dims`` is formed
    if len(modes) > 3 or len(lengths) > 3:
        raise ScenarioError(f"modes and length list at most 3 axes, got {len(modes)} and {len(lengths)}")
    if not 1 <= dims <= 3:
        raise ScenarioError(f"dims must be 1, 2 or 3, got {dims}")
    if len(modes) == 1:
        modes = modes * dims
    if len(lengths) == 1:
        lengths = lengths * dims
    kmax = spec.get("kmax", "none")
    grid = {"modes": modes, "lengths": lengths, "kmax": None if kmax == "none" else float(kmax)}
    TorusGrid(**grid)  # refuses signless or non-finite lengths and kmax
    return grid


def _finite(text):
    value = float(text)
    if not math.isfinite(value):
        raise ScenarioError(f"must be a finite number, got {text!r}")
    return value


def _positive(text):
    value = float(text)
    if not 0 < value < math.inf:
        raise ScenarioError(f"must be a finite number > 0, got {text!r}")
    return value


def _parse_seed(text):
    value = int(text)
    if value < 0:
        raise ScenarioError(f"must be an integer >= 0, got {text!r}")
    return value


def _parse_expect(text):
    if text not in ("conserve", "drift"):
        raise ScenarioError(f"expect must be conserve or drift, got {text!r}")
    return text


# value parser per key: the fields of SymmetryCase (but ``spec``) and of
# Scenario (but ``symmetries``); their defaults are the dataclasses' own
_CASE_PARSERS = {"expect": _parse_expect, "min_drift": _positive, "tolerance": _positive}
_SCENARIO_PARSERS = {
    "name": str, "operator": str, "grid": _parse_grid, "profile": str, "times": _parse_times,
    "s": _finite, "seed": _parse_seed, "tolerance": _positive, "support_tol": _positive,
    "amp_cap": _positive, "certifies": str,
}


def _parse_symmetry_line(text):
    # re-join spec tokens split inside parentheses, e.g. "f(a=1, b=2)"
    spec, *rest = text.split() or [""]
    while spec.count("(") > spec.count(")") and rest:
        spec += " " + rest.pop(0)
    given = {}
    for tok in rest:
        key, sep, val = tok.partition("=")
        if not sep:
            raise ScenarioError(f"options must be key=value, got {tok!r}")
        if key not in _CASE_PARSERS or key in given:
            options = ", ".join(_CASE_PARSERS)
            raise ScenarioError(f"option {key!r} is unknown or repeated (options: {options})")
        given[key] = _CASE_PARSERS[key](val)
    return SymmetryCase(spec, **given)


def parse_scenario(text, name="scenario"):
    """Parse a scenario file; ``name`` stands in for a missing ``name`` key."""
    given = {"name": name}
    first_line = {}
    symmetries = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ScenarioError(f"line {lineno}: expected key = value")
        key, val = (part.strip() for part in line.split("=", 1))
        if key in first_line:
            raise ScenarioError(f"line {lineno}: key {key!r} repeats line {first_line[key]}")
        if key != "symmetry" and key not in _SCENARIO_PARSERS:
            keys = ", ".join(_SCENARIO_PARSERS)
            raise ScenarioError(f"line {lineno}: unknown key {key!r} (keys: symmetry, {keys})")
        try:
            if key == "symmetry":
                symmetries.append(_parse_symmetry_line(val))
            else:
                first_line[key] = lineno
                given[key] = _SCENARIO_PARSERS[key](val)
        except ValueError as exc:
            raise ScenarioError(f"{key} (line {lineno}): {exc}") from None
    for f in dataclasses.fields(Scenario):
        if f.default is dataclasses.MISSING and f.name not in given and f.name != "symmetries":
            raise ScenarioError(f"scenario is missing {f.name!r}")
    if not symmetries:
        raise ScenarioError("scenario needs at least one symmetry line")
    return Scenario(symmetries=tuple(symmetries), **given)


def load_scenario(path):
    path = Path(path)
    return parse_scenario(path.read_text(), name=path.stem)


def _json_default(value):
    """The ``json`` hook of every report written: complex and numpy scalars."""
    if isinstance(value, complex):
        return {"re": value.real, "im": value.imag}
    if isinstance(value, np.generic):
        return value.item()
    raise TypeError(f"not JSON-able: {type(value).__name__}")


def _write_summary(out_dir, name, report):
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / f"{name}.json", "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True, default=_json_default)
        fh.write("\n")


def run_scenario(scn, out_dir=None, write_csv=True):
    """Execute the full pipeline; returns the JSON-able run report."""
    L = build_operator(scn.operator)
    grid = TorusGrid(**scn.grid)
    system = EvolutionSystem(L, grid, amp_cap=scn.amp_cap)
    # the full-grid profile is read only here; the trajectory keeps its active modes
    traj = Trajectory(system, build_profile(scn.profile, grid, L.cols * system.R))
    pair = semi_conjugacy_solve(L, seed=scn.seed)
    fact = adjoint_factorization(L, pair)
    flux = concomitant_flux(L)

    results = []
    qviews = []
    probes = None  # every generator check shares one set of kernel probes and times
    for case in scn.symmetries:
        gen = build_symmetry(case.spec)
        char = adjoint_characteristic(L, fact, gen)  # refuses a chain of the wrong dimension
        entry = {"symmetry": case.spec, "expect": case.expect}
        if isinstance(gen, KernelShift):
            entry["generator_check"] = bool(verify_kernel_shift(L, gen))
        elif gen.factors:
            if probes is None:
                probes = symbol_probes(L, seed=scn.seed, s=scn.s)
            rep = verify_symmetry(L, gen, probes)
            entry["generator_check"] = bool(rep.passed)
            entry["generator_residual"] = rep.residual
            entry["generator_target"] = rep.target
        else:
            entry["generator_check"] = True
        results.append(entry)
        qviews.append(symmetry_view(char, traj, s=scn.s))
    try:
        series_list = kappa_series(flux, qviews, traj, scn.times, scn.support_tol)
    except SupportError as exc:
        first = next(case.spec for case, q in zip(scn.symmetries, qviews) if q.weighted)
        raise ScenarioError(
            f"position-weighted functional {first!r} needs compactly supported data: {exc}"
        ) from None

    all_pass = True
    out_dir = Path(out_dir) if out_dir else None
    for case, entry, series in zip(scn.symmetries, results, series_list):
        if series.boundary_fraction is not None:
            entry["boundary_fraction"] = series.boundary_fraction
        tol = case.tolerance if case.tolerance is not None else scn.tolerance
        if case.expect == "drift":
            passed = series.drift >= case.min_drift
        else:
            passed = series.drift <= tol and entry["generator_check"]
        entry["drift"] = series.drift
        entry["kappa0"] = complex(series.values[0])
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
    report = {
        "scenario": scn.name,
        "operator": scn.operator,
        "seed": scn.seed,
        "s": scn.s,
        "certifies": scn.certifies,
        "results": results,
        "pass": bool(all_pass),
    }
    if out_dir is not None:
        _write_summary(out_dir, scn.name, report)
    return report


# -- canned reproductions ------------------------------------------------------


@functools.cache
def _packaged_scenario(stem):
    """Parse ``<stem>.scn`` from the scenario files shipped in the package, once.

    Every caller shares the returned scenario, so none may mutate its ``grid``
    dict; ``dataclasses.replace`` with a copied dict makes a variant.
    """
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
    quad = run_scenario(_packaged_scenario("kdvkdv_quadratic"))
    aff = run_scenario(_packaged_scenario("kdvkdv_affine"))
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
    return {
        "operator": format_operator(L),
        "adjoint": format_operator(Ls),
        "matches_expected": bool(Ls == expected),
        "classification": classify_adjointness(L),
        "swap_pair_residual": swap_res,
        "solver_parity_free": pair.sign_absorbed,
        "solver_residual": pair.residual,
        "pass": bool(Ls == expected and swap_res <= 1e-12),
    }


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
    return {
        "operator": format_operator(L),
        "classification": classify_adjointness(L),
        "identity_pair": eyeish == 0.0,
        "parity_mask": list(pair.parity_mask),
        "coefficient_residual": pair.residual,
        "symbol_identity_residual": fact.symbol_residual,
        "pass": bool(eyeish == 0.0 and fact.symbol_residual <= 1e-10),
    }


def _report_heat_es_oracle():
    from .spectral import heat_flow_product_oracle

    s = 1.0
    profile = lambda y: np.exp(-(y**2) / (2.0 * 2.0**2))
    values, quad_err = heat_flow_product_oracle(profile, s, [s / 4, s / 2, 3 * s / 4])
    spread = float(np.max(np.abs(values - values[0])) / abs(values[0]))
    tor = run_scenario(_packaged_scenario("heat_es"))
    torus_kappa = tor["results"][0]["kappa0"].real
    return {
        "oracle_values": list(values),
        "quadrature_error": quad_err,
        "equal_time_spread": spread,
        "symmetric_check": float(abs(values[0] - values[-1]) / abs(values[0])),
        "torus_value": torus_kappa,
        "torus_vs_oracle": float(abs(torus_kappa - values[1]) / abs(values[1])),
        "torus_drift": tor["results"][0]["drift"],
        "pass": bool(spread <= 1e-6 and abs(torus_kappa - values[1]) / abs(values[1]) <= 1e-4),
    }


def reproductions():
    """Registry of named built-in reproductions.

    The ``dirac`` report functions are looked up on each build, so a patched
    or traced one is the one that runs.
    """
    from . import dirac

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
            runner=dirac.fock_suite,
        ),
        Reproduction(
            "dirac-discrete",
            "measured bracket table of the seven reflection/conjugation generators",
            runner=dirac.check_discrete_algebra,
        ),
        Reproduction.from_scenario("dirac-angular-momentum", "dirac_angular_momentum"),
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
        _write_summary(out_dir, name, report)
    return report
