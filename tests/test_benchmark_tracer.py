"""The benchmark's layer tracer still installs on the package.

``benchmark/tracer.py`` patches functions, methods and view classes of
``conslaw`` by name; a rename or deletion there would make
``benchmark/run.py --trace 1`` fail, so this test installs and removes it.
A call path that went round a patched name would silently zero its layer, so
a small scenario also runs under the tracer.
"""

import dataclasses
import importlib.util
from pathlib import Path

import pytest

from conslaw import dirac, fock, scenario, spectral
from conslaw.scenario import _packaged_scenario

TRACER = Path(__file__).resolve().parents[1] / "benchmark" / "tracer.py"

# entry points the report and scenario workloads reach through their spans
SPANNED = [
    (fock, "quantize_cpt_charge"),
    (fock, "quantize_reflection_charge"),
    (dirac, "fock_suite"),
    (dirac, "check_discrete_algebra"),
    (scenario, "run_scenario"),
    (spectral, "heat_flow_product_oracle"),
    (spectral.ShiftView, "jet"),
]


def _tracer_module():
    spec = importlib.util.spec_from_file_location("benchmark_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls():
    originals = {(owner, attr): getattr(owner, attr) for owner, attr in SPANNED}
    tracer = _tracer_module().Tracer("t")
    tracer.install()
    patched = list(tracer._patches)  # (owner, attribute, original)
    try:
        for (owner, attr), original in originals.items():
            assert getattr(owner, attr) is not original, attr
    finally:
        tracer.uninstall()
    for (owner, attr), original in originals.items():
        assert getattr(owner, attr) is original, attr
    assert [attr for owner, attr, original in patched if getattr(owner, attr) is not original] == []


def test_kappa_layers_record_calls_under_the_tracer():
    # the kdvkdv charges: matrix, reflected and kernel-shift characteristics
    scn = _packaged_scenario("kdvkdv_quadratic")
    tracer = _tracer_module().Tracer("t")
    tracer.install()
    try:
        scenario.run_scenario(scn)
    finally:
        tracer.uninstall()
    # the build and the propagator too: a hot path rerouted round
    # ``EvolutionSystem.propagator`` would leave its layer at zero
    # and the generator check, which the tracer patches by name
    for layer in (
        "spectral.build", "spectral.propagator", "spectral.kappa", "current.contract", "spectral.jet",
        "symmetry.verify",
    ):
        assert tracer.calls[layer] >= 1, layer
    assert tracer.counts["current.contract.terms"] >= 1


def test_every_generator_check_records_a_verify_span():
    # dirac_charges checks Gamma0, cpt and bad_time_reflection (identity has no
    # factors), the small angular run its three rotations before the support
    # guard refuses the packet: every check goes through ``verify_symmetry``
    angular = _packaged_scenario("dirac_angular_momentum")
    small = dataclasses.replace(angular, grid={**angular.grid, "modes": (8, 8, 8)})
    tracer = _tracer_module().Tracer("t")
    tracer.install()
    try:
        scenario.run_scenario(_packaged_scenario("dirac_charges"))
        charges = tracer.calls["symmetry.verify"]
        with pytest.raises(scenario.ScenarioError, match="needs compactly supported data"):
            scenario.run_scenario(small)
    finally:
        tracer.uninstall()
    assert charges == 3
    assert tracer.calls["symmetry.verify"] - charges == 3


def test_every_jet_passes_through_the_traced_jet_layer(monkeypatch):
    # ``Trajectory.jets`` makes its jets through ``jet_values``, which the
    # tracer spans; a jet made round it would be missing from that layer.
    # Both scenarios keep every time's jets and contract each view once
    made = []
    jets = spectral.Trajectory.jets

    def counted(traj, keys):
        out = jets(traj, keys)
        made.append(len(out))
        return out

    monkeypatch.setattr(spectral.Trajectory, "jets", counted)
    for stem in ("kdvkdv_quadratic", "dirac_charges"):
        made.clear()
        tracer = _tracer_module().Tracer("t")
        tracer.install()
        try:
            scenario.run_scenario(_packaged_scenario(stem))
        finally:
            tracer.uninstall()
        assert sum(made) >= 1
        assert tracer.calls["spectral.jet"] == sum(made), stem
        assert tracer.calls["current.contract"] >= 1, stem


def test_report_layers_record_calls_under_the_tracer():
    # a rename of the pairings, the Fock suite or the oracle would zero their layers
    tracer = _tracer_module().Tracer("t")
    tracer.install()
    try:
        scenario.reproduce("dirac-cpt")
        scenario.reproduce("heat-Es")
    finally:
        tracer.uninstall()
    # one quantize call per pairing, each for both of its times
    assert tracer.calls["fock.quantize"] == 2
    assert tracer.calls["dirac.fock_suite"] == 1
    assert tracer.calls["spectral.oracle"] == 1


def test_fock_suite_under_the_tracer_returns_the_untraced_report():
    want = dirac.fock_suite()
    tracer = _tracer_module().Tracer("t")
    tracer.install()
    try:
        got = dirac.fock_suite()
    finally:
        tracer.uninstall()
    assert tracer.calls["fock.quantize"] == 2
    assert tracer.calls["dirac.fock_suite"] == 1
    assert [name for _, _, name, _, _ in tracer.spans].count("fock.quantize") == 2
    assert repr(got) == repr(want)


def test_one_pass_keeps_the_per_time_calls_the_tracer_reads(monkeypatch):
    # the tracer reads a float ``dt`` per propagator call and a float ``t``
    # per jet: kdvkdv_quadratic makes its jets in one pass over every read
    # time, yet calls the propagator once per distinct time (one block of
    # modes) and ``jet_values`` once per (t, alpha)
    passes = []
    jets = spectral.Trajectory.jets
    monkeypatch.setattr(spectral.Trajectory, "jets", lambda traj, keys: passes.append(set(keys)) or jets(traj, keys))
    tracer = _tracer_module().Tracer("t")
    tracer.install()
    try:
        scenario.run_scenario(_packaged_scenario("kdvkdv_quadratic"))
    finally:
        tracer.uninstall()
    (keys,) = passes
    read_times = {t for t, _alpha in keys}
    assert tracer.calls["spectral.propagator"] == len(read_times)
    assert tracer.counts["spectral.propagator.distinct_dt"] == len(read_times)
    assert tracer.calls["spectral.jet"] == tracer.counts["spectral.jet.unique"] == len(keys)
