"""Seeded inputs and fail-closed verdicts for the benchmark workloads.

Every workload is a list of items; one pass over the items is a cycle.  An
item calls one public entry point of ``conslaw`` with inputs generated here
from the workload seed and returns the program's JSON-able report.  Its
verdicts are then derived again from the report's numbers, never from its
``pass`` field: a drift must be finite, a conserve-check must sit within its
tolerance, and a negative control must drift by at least ``min_drift``.

Items call ``conslaw`` through module attributes (``scenario.run_scenario``,
not a name bound at set-up), so the layer tracer's wrappers see the calls.

Workloads (why each was chosen is recorded in ``BENCHMARK.json``):

``angular-64``
    ``dirac.angular_momentum_series`` on the 64^3 torus: 250,047 active
    modes, the three rotation charges, 7 sample times.  The packet seed comes
    from the workload seed.  3 checks per cycle.
``scenario-suite``
    The six scenario files under ``scenarios/`` (templates of the repository's
    scenario files) run through ``run_scenario`` with CSV output off.  The
    ``random(seed=...)`` profile seeds and the solver ``seed`` come from the
    workload seed.  15 checks per cycle.
``report-suite``
    The ``heat-Es``, ``dirac-cpt``, ``dirac-discrete``, ``jordan-2x2`` and
    ``ns-adjoint`` reproductions.  Their inputs are fixed by the program, so
    the workload seed changes nothing.  5 checks per cycle.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

SCENARIO_DIR = Path(__file__).resolve().parent / "scenarios"
# run order of the scenario templates; the derived seeds follow this order
SCENARIOS = (
    "wave_energy",
    "kdvkdv_quadratic",
    "kdvkdv_affine",
    "heat_es",
    "heat_negative_control",
    "dirac_charges",
)
REPORTS = ("heat-Es", "dirac-cpt", "dirac-discrete", "jordan-2x2", "ns-adjoint")
WORKLOADS = ("angular-64", "scenario-suite", "report-suite")

# pass criteria of the angular reproduction and its support guard
ANGULAR_TOL = 1e-6
SUPPORT_TOL = 1e-10
# drifts below this floor count as this floor in the headroom metric
DRIFT_FLOOR = 1e-17


@dataclass(frozen=True)
class Check:
    """One verdict re-derived by the benchmark."""

    label: str
    ok: bool
    headroom_dec: float | None = None  # conserve-checks only


@dataclass(frozen=True)
class Item:
    name: str
    run: object  # () -> report
    verdicts: object  # report -> list[Check]
    nchecks: int  # checks the item owes when ``run`` raises


@dataclass(frozen=True)
class Workload:
    name: str
    seed: int
    items: tuple
    inputs: dict  # what the seed generated, recorded in the output

    @property
    def checks_per_cycle(self):
        return sum(item.nchecks for item in self.items)


def derive_seeds(seed, count):
    """``count`` independent non-negative seeds from one workload seed."""
    state = np.random.SeedSequence(int(seed)).generate_state(count)
    return [int(x) % 2**31 for x in state]


def _finite(*values):
    return all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)


def _headroom(tol, drift):
    return math.log10(tol / max(drift, DRIFT_FLOOR))


def _conserve(label, drift, tol, extra_ok=True):
    ok = _finite(drift) and drift <= tol and bool(extra_ok)
    return Check(label, ok, _headroom(tol, drift) if _finite(drift) else None)


def _complex_finite(value):
    if isinstance(value, dict):  # {"re": .., "im": ..} as run reports store it
        return _finite(value.get("re"), value.get("im"))
    return isinstance(value, complex) and _finite(value.real, value.imag)


def _json_default(value):
    if isinstance(value, complex):
        return {"re": value.real, "im": value.imag}
    if isinstance(value, np.generic):
        return value.item()
    raise TypeError(f"not JSON-able: {type(value).__name__}")


def summary_digest(report):
    """SHA-256 of the report's canonical JSON summary."""
    text = json.dumps(report, sort_keys=True, default=_json_default)
    return hashlib.sha256(text.encode()).hexdigest()


# -- angular-64 ----------------------------------------------------------------


def _angular(seed):
    from conslaw import dirac

    (packet_seed,) = derive_seeds(seed, 1)

    def verdicts(rep):
        bf = rep["boundary_fraction"]
        supported = _finite(bf) and bf <= SUPPORT_TOL
        return [
            _conserve(
                f"rotation_{axis}",
                rep[axis]["drift"],
                ANGULAR_TOL,
                supported and _complex_finite(rep[axis]["kappa0"]),
            )
            for axis in ("x", "y", "z")
        ]

    item = Item(
        "angular_momentum_series",
        lambda: dirac.angular_momentum_series(seed=packet_seed),
        verdicts,
        3,
    )
    return (item,), {"packet_seed": packet_seed}


# -- scenario-suite ------------------------------------------------------------


def scenario_texts(seed):
    """The six scenario texts for a workload seed, in run order."""
    seeds = derive_seeds(seed, 2 * len(SCENARIOS))
    texts = {}
    for i, name in enumerate(SCENARIOS):
        template = (SCENARIO_DIR / f"{name}.scn.in").read_text()
        texts[name] = template.format(
            profile_seed=seeds[2 * i], solver_seed=seeds[2 * i + 1]
        )
    return texts


def _scenario_verdicts(scn):
    def verdicts(report):
        results = report["results"]
        if len(results) != len(scn.symmetries):
            return [Check(c.spec, False) for c in scn.symmetries]
        checks = []
        for case, entry in zip(scn.symmetries, results):
            drift = entry["drift"]
            label = f"{scn.name}:{case.spec}"
            if case.expect == "drift":
                ok = _finite(drift) and drift >= case.min_drift
                check = Check(label, ok)
            else:
                tol = case.tolerance if case.tolerance is not None else scn.tolerance
                check = _conserve(label, drift, tol, entry["generator_check"] is True)
            ok = (
                check.ok
                and entry["symmetry"] == case.spec
                and entry["pass"] is True
                and _complex_finite(entry["kappa0"])
            )
            checks.append(Check(label, ok, check.headroom_dec))
        return checks

    return verdicts


def _scenario_suite(seed):
    from conslaw import scenario

    items = []
    inputs = {}
    for name, text in scenario_texts(seed).items():
        scn = scenario.parse_scenario(text, name=name)
        items.append(
            Item(
                name,
                lambda scn=scn: scenario.run_scenario(scn, out_dir=None, write_csv=False),
                _scenario_verdicts(scn),
                len(scn.symmetries),
            )
        )
        inputs[name] = {"profile": scn.profile, "seed": scn.seed}
    return tuple(items), inputs


# -- report-suite --------------------------------------------------------------


def _heat_es(rep):
    values = rep["oracle_values"]
    ok = len(values) == 3 and _finite(*values) and values[0] != 0 and values[1] != 0
    spread = max(abs(v - values[0]) for v in values) / abs(values[0]) if ok else math.nan
    gap = abs(rep["torus_value"] - values[1]) / abs(values[1]) if ok else math.nan
    # two conserve-checks: the oracle's E(t) is flat, the torus drift is small
    flat = _conserve("heat-Es:oracle_spread", spread, 1e-6)
    torus = _conserve("heat-Es:torus_drift", rep["torus_drift"], 1e-8)
    ok = flat.ok and torus.ok and _finite(gap) and gap <= 1e-4
    headroom = min(flat.headroom_dec, torus.headroom_dec) if ok else None
    return [Check("heat-Es", ok, headroom)]


def _dirac_cpt(rep):
    keys = (
        "anticommutator_defect",
        "H_kappa0_commutator",
        "H_kappa45_commutator",
        "kappa0_ladder_defect",
        "cpt_quantization_defect",
    )
    vals = [rep[k] for k in keys]
    ok = (
        _finite(*vals)
        and vals[0] == 0.0
        and vals[1] < 1e-12
        and vals[2] < 1e-12
        and vals[3] == 0.0
        and vals[4] < 1e-12
    )
    return [Check("dirac-cpt", ok)]


def _dirac_discrete(rep):
    const = rep["reflection_block_constant"]
    finite = _finite(const) or _complex_finite(const)  # the constant may be complex
    ok = rep["reflection_block_uniform"] is True and finite
    return [Check("dirac-discrete", ok)]


def _jordan(rep):
    res = rep["swap_pair_residual"]
    return [Check("jordan-2x2", rep["matches_expected"] is True and _finite(res) and res <= 1e-12)]


def _ns(rep):
    res = rep["symbol_identity_residual"]
    return [Check("ns-adjoint", rep["identity_pair"] is True and _finite(res) and res <= 1e-10)]


_REPORT_VERDICTS = {
    "heat-Es": _heat_es,
    "dirac-cpt": _dirac_cpt,
    "dirac-discrete": _dirac_discrete,
    "jordan-2x2": _jordan,
    "ns-adjoint": _ns,
}


def _report_suite(seed):
    from conslaw import scenario

    def verdicts_for(name):
        def verdicts(rep):
            checks = _REPORT_VERDICTS[name](rep)
            return [Check(c.label, c.ok and rep["pass"] is True, c.headroom_dec) for c in checks]

        return verdicts

    items = tuple(
        Item(name, lambda name=name: scenario.reproduce(name), verdicts_for(name), 1)
        for name in REPORTS
    )
    return items, {"reproductions": list(REPORTS), "seeded": False}


_BUILDERS = {
    "angular-64": _angular,
    "scenario-suite": _scenario_suite,
    "report-suite": _report_suite,
}


def make_workload(name, seed):
    """Generate the workload's inputs from its seed (imports ``conslaw``)."""
    if name not in _BUILDERS:
        raise KeyError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    items, inputs = _BUILDERS[name](int(seed))
    return Workload(name, int(seed), items, inputs)


def working_set(name):
    """Computed sizes (bytes) of the largest arrays a cycle of ``name`` holds.

    These are computed from array shapes, not measured; cache misses and
    temporaries are not included.
    """
    from conslaw.catalog import build_operator
    from conslaw.scenario import parse_scenario
    from conslaw.spectral import TorusGrid

    def spectral(grid, L):
        d = L.cols * L.time_order()
        active = int(grid.mode_mask().sum())
        return {
            "active_modes": active,
            "field_bytes": d * grid.npoints * 16,
            "A_bytes": active * d * d * 16,
            "propagator_bytes": active * d * d * 16,
        }

    if name == "angular-64":
        ws = spectral(TorusGrid((16.0,) * 3, (64,) * 3), build_operator("dirac(m=1.0)"))
        ws["propagators_cached"] = 7
        return ws
    if name == "scenario-suite":
        out = {}
        for scn_name, text in scenario_texts(0).items():
            scn = parse_scenario(text, name=scn_name)
            g = scn.grid
            out[scn_name] = spectral(
                TorusGrid(g["lengths"], g["modes"], g["kmax"]), build_operator(scn.operator)
            )
        return out
    # the heat-flow oracle's refined pass holds one dense (n, n) float64 kernel
    # with n = 2 * 2401 - 1 (the oracle's default grid)
    n = 2 * 2401 - 1
    return {"oracle_kernel_bytes": n * n * 8}
