import dataclasses
import json
import os
import subprocess
import sys
import warnings
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

import analytic_oracle
import conslaw
from conslaw import dirac, scenario, symmetry
from conslaw.adjoint import adjoint_factorization, semi_conjugacy_solve
from conslaw.catalog import build_operator, build_profile, build_symmetry, heat_operator, wave_operator
from conslaw.cli import main
from conslaw.current import adjoint_characteristic, concomitant_flux
from conslaw.fields import AnalyticField
from conslaw.scenario import (
    MAX_TIMES,
    ScenarioError,
    load_scenario,
    parse_scenario,
    reproduce,
    reproductions,
    run_scenario,
)
from conslaw.spectral import (
    EvolutionSystem,
    SupportError,
    TorusGrid,
    Trajectory,
    kappa_series,
    symmetry_view,
)

ROOT = Path(__file__).resolve().parents[1]
SCENARIOS = resources.files("conslaw") / "scenarios"


def test_parse_scenario_rejects_malformed():
    with pytest.raises(ScenarioError):
        parse_scenario("operator wave")  # no '='
    with pytest.raises(ScenarioError):
        parse_scenario("operator = wave(dim=1)\n")  # missing keys
    with pytest.raises(ScenarioError):
        parse_scenario(
            "operator = wave(dim=1)\ngrid = modes:16\nprofile = random\ntimes = 0,1\nsymmetry = identity"
        )  # grid lacks length
    with pytest.raises(ScenarioError):
        parse_scenario(
            "operator = wave(dim=1)\ngrid = modes:16 length:6.0\nprofile = random\n"
            "times = 0,1\nsymmetry = identity expect=maybe"
        )
    base = "operator = wave(dim=1)\ngrid = modes:16 length:6.0\nprofile = random\ntimes = 0,1\n"
    with pytest.raises(ScenarioError, match="line 5: unknown key 'tolerence'"):
        parse_scenario(base + "tolerence = 1e-30\nsymmetry = identity")
    with pytest.raises(ScenarioError, match=r"grid \(line 2\): token 'kmx'"):
        parse_scenario(base.replace("length:6.0", "length:6.0 kmx:3") + "symmetry = identity")
    with pytest.raises(ScenarioError, match="line 6: key 'tolerance' repeats line 5"):
        parse_scenario(base + "tolerance = 1e-8\ntolerance = 1e-30\nsymmetry = identity")


# a wave(dim=1) energy scenario, one line per key
WAVE = {
    "operator": "wave(dim=1)",
    "grid": "modes:16 length:6.283185307179586",
    "profile": "random(seed=1, kmax=4)",
    "times": "0.0, 0.5",
    "symmetry": "wave.time_translation",
}


def _scenario_text(lines):
    return "".join(f"{key} = {value}\n" for key, value in lines.items())


def test_grid_kmax_zero_keeps_the_zero_mode_only():
    grids = [
        parse_scenario(_scenario_text({**WAVE, "grid": f"{WAVE['grid']} kmax:{k}"})).grid
        for k in ("0", "0.0")
    ]
    assert grids[0] == grids[1]
    assert TorusGrid(**grids[0]).mode_mask().sum() == 1


def test_scenario_keys_are_the_dataclass_fields():
    def names(cls):
        return {f.name for f in dataclasses.fields(cls)}

    assert set(scenario._SCENARIO_PARSERS) == names(scenario.Scenario) - {"symmetries"}
    assert set(scenario._CASE_PARSERS) == names(scenario.SymmetryCase) - {"spec"}


def _shipped():
    return sorted(p for p in SCENARIOS.iterdir() if p.name.endswith(".scn"))


def test_package_ships_exactly_the_seven_scenarios():
    assert [p.name for p in _shipped()] == [
        "dirac_angular_momentum.scn",
        "dirac_charges.scn",
        "heat_es.scn",
        "heat_negative_control.scn",
        "kdvkdv_affine.scn",
        "kdvkdv_quadratic.scn",
        "wave_energy.scn",
    ]


def test_shipped_scenarios_parse():
    for path in _shipped():
        scn = load_scenario(path)
        assert scn.symmetries


def test_shipped_scenarios_pass_from_disk():
    for path in _shipped():
        report = run_scenario(load_scenario(path), write_csv=False)
        assert report["pass"], (path.name, report["results"])


def test_unknown_catalog_entries_are_rejected():
    scn = parse_scenario(
        "operator = wave(dim=1)\ngrid = modes:16 length:6.28\n"
        "profile = random(seed=1, kmax=4)\ntimes = 0.0,0.5\nsymmetry = no.such.thing"
    )
    with pytest.raises(KeyError):
        run_scenario(scn, write_csv=False)
    scn = parse_scenario(
        "operator = wave(dim=1)\ngrid = modes:16 length:6.28\n"
        "profile = no_such_profile\ntimes = 0.0,0.5\nsymmetry = identity"
    )
    with pytest.raises(KeyError):
        run_scenario(scn, write_csv=False)


def test_run_wave_scenario_from_file(tmp_path):
    scn = load_scenario(SCENARIOS / "wave_energy.scn")
    report = run_scenario(scn, out_dir=tmp_path)
    assert report["pass"]
    assert (tmp_path / "wave_energy.json").exists()
    csvs = list(tmp_path.glob("*.csv"))
    assert csvs
    header = csvs[0].read_text().splitlines()[0]
    assert header == "t,re_kappa,im_kappa,drift"


def test_repeated_runs_are_bit_identical(tmp_path):
    scn = load_scenario(SCENARIOS / "wave_energy.scn")
    a = tmp_path / "a"
    b = tmp_path / "b"
    run_scenario(scn, out_dir=a)
    run_scenario(scn, out_dir=b)
    assert (a / "wave_energy.json").read_bytes() == (b / "wave_energy.json").read_bytes()


def test_cli_verify_and_exit_codes(tmp_path, capsys):
    rc = main(["--out-dir", str(tmp_path), "verify", str(SCENARIOS / "wave_energy.scn")])
    assert rc == 0
    out = capsys.readouterr().out
    report = json.loads(out)
    assert report["pass"]


def test_cli_seed_zero_overrides_scenario_seed(capsys):
    rc = main(["--seed", "0", "verify", str(SCENARIOS / "wave_energy.scn")])
    report = json.loads(capsys.readouterr().out)
    assert report["seed"] == 0  # the file says 1234
    assert rc == 0


def test_cli_seed_defaults(capsys):
    assert main(["verify", str(SCENARIOS / "wave_energy.scn")]) == 0
    assert json.loads(capsys.readouterr().out)["seed"] == 1234
    assert main(["conjugacy", "heat(dim=1)"]) == 0
    assert json.loads(capsys.readouterr().out)["seed"] == 0


def test_cli_rejects_negative_seed_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--seed", "-3", "verify", str(SCENARIOS / "wave_energy.scn")])
    assert exc.value.code == 2
    assert "argument --seed: must be an integer >= 0, got '-3'" in capsys.readouterr().err


def test_cli_dirac_verdict_is_and_of_embedded_reports(capsys):
    rc = main(["dirac", "--fast"])
    report = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert sorted(report["reproductions"]) == ["dirac-charges", "dirac-cpt", "dirac-discrete"]
    assert report["pass"] == all(r["pass"] for r in report["reproductions"].values())
    assert report["pass"] is True


def test_cli_dirac_fails_when_an_embedded_report_fails(monkeypatch, capsys):
    real = dirac.fock_suite
    monkeypatch.setattr(dirac, "fock_suite", lambda: {**real(), "pass": False})
    rc = main(["dirac", "--fast"])
    report = json.loads(capsys.readouterr().out)
    assert rc == 1
    assert report["pass"] is False
    assert report["reproductions"]["dirac-cpt"]["pass"] is False
    assert report["reproductions"]["dirac-charges"]["pass"] is True


def test_cli_parse_error_reports_position(capsys):
    rc = main(["adjoint", "Dt + Dq^2"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "line 1" in err and "column" in err


def test_cli_unknown_reproduction(capsys):
    rc = main(["reproduce", "nope"])
    assert rc == 2
    out, err = capsys.readouterr()
    assert not out and err == "error: unknown reproduction 'nope'; see `conslaw list`\n"


def test_cli_unknown_symmetry(tmp_path, capsys):
    text = (SCENARIOS / "wave_energy.scn").read_text()
    path = tmp_path / "nosuch.scn"
    path.write_text(text.replace("symmetry = wave.time_translation", "symmetry = nosuch.sym"))
    assert main(["verify", str(path)]) == 2
    out, err = capsys.readouterr()
    assert not out and err == "error: unknown symmetry 'nosuch.sym'; see `conslaw list`\n"


def test_cli_list(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "kdvkdv.Gamma_s" in out
    assert "heat-Es" in out


def test_cli_adjoint_and_current(capsys):
    assert main(["adjoint", "kdvkdv"]) == 0
    out = capsys.readouterr().out
    assert "skew_adjoint" in out
    assert main(["current", "wave(dim=1)"]) == 0
    out = capsys.readouterr().out
    assert "divergence defect: 0.000e+00" in out


def test_cli_conjugacy_json(capsys):
    assert main(["conjugacy", "dirac(m=1.0)"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["coefficient_residual"] <= 1e-12


def test_reproduction_registry_names():
    names = set(reproductions())
    for required in ("heat-Es", "dirac-cpt", "ns-adjoint", "wave-energy", "kdvkdv-all"):
        assert required in names


def test_reproduce_writes_named_json(tmp_path):
    report = reproduce("jordan-2x2", out_dir=tmp_path)
    assert report["pass"]
    data = json.loads((tmp_path / "jordan-2x2.json").read_text())
    assert data["certifies"]


def test_packaged_scenarios_are_parsed_once(monkeypatch):
    # each registry build reads the four packaged scenario files; only the
    # first parses them
    calls = []
    monkeypatch.setattr(
        scenario, "parse_scenario", lambda text, name="scenario": calls.append(name) or parse_scenario(text, name)
    )
    scenario._packaged_scenario.cache_clear()
    try:
        first = reproduce("jordan-2x2")
        assert sorted(calls) == ["dirac_angular_momentum", "dirac_charges", "heat_negative_control", "wave_energy"]
        assert reproduce("jordan-2x2") == first
        assert len(calls) == 4
    finally:
        scenario._packaged_scenario.cache_clear()


def test_cli_verify_on_a_directory_is_an_error_line(tmp_path, capsys):
    assert main(["verify", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Is a directory" in err and len(err.splitlines()) == 1


def test_cli_out_dir_on_a_file_is_an_error_line(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("")
    assert main(["--out-dir", str(taken), "reproduce", "wave-energy"]) == 2
    out, err = capsys.readouterr()
    assert '"pass"' not in out
    assert err.startswith("error:") and "File exists" in err and len(err.splitlines()) == 1


# no invertible conjugating pair exists for this operator
UNPAIRED = "[[1,0],[0,1]]*Dt + [[1,2i],[3,4]]*Dx + [[0,1],[2,0]]*Dx^2"


def test_cli_missing_conjugating_pair(tmp_path, capsys):
    path = tmp_path / "unpaired.scn"
    path.write_text(_scenario_text({**WAVE, "operator": UNPAIRED, "symmetry": "identity"}))
    assert main(["verify", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: no invertible conjugating pair") and len(err.splitlines()) == 1
    assert main(["adjoint", UNPAIRED]) == 1
    assert "conjugating pair: not found" in capsys.readouterr().out
    assert main(["conjugacy", UNPAIRED]) == 1
    assert capsys.readouterr().out.startswith("not found:")


def test_entry_point_runs():
    # the child imports the package from where this process found it
    src = str(Path(conslaw.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "conslaw.cli", "list"],
        capture_output=True,
        text=True,
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert "reproductions:" in proc.stdout


# an elliptic operator posed as an evolution: every step of it overflows
ILL_POSED = """\
operator = Dt^2 + Dx^2
grid = modes:256 length:0.1
profile = random(seed=1, kmax=100)
times = 0.0, 0.5, 1.0
symmetry = identity
"""


def test_cli_ill_posed_scenario_is_an_error(tmp_path, capsys):
    path = tmp_path / "ill_posed.scn"
    path.write_text(ILL_POSED)
    assert main(["verify", str(path)]) == 2
    out, err = capsys.readouterr()
    assert '"pass"' not in out
    assert err.startswith("error:") and "non-finite" in err


# the grid keeps only k = 0, so the trajectory stays finite, but the
# generator check samples backward heat waves exp(k^2 t) at t ~ 300..2700
OVERFLOWING_GENERATOR_CHECK = """\
operator = heat(dim=1, nu=-1.0)
grid = modes:16 length:6.283185307179586 kmax:0
profile = random(seed=1, kmax=0)
times = 0.0, 0.5
s = 3000.0
symmetry = heat.space_reflection
"""


def test_cli_non_finite_generator_check_is_an_error(tmp_path, capsys):
    path = tmp_path / "overflow.scn"
    path.write_text(OVERFLOWING_GENERATOR_CHECK)
    assert main(["verify", str(path)]) == 2
    out, err = capsys.readouterr()
    assert '"pass"' not in out
    assert err.startswith("error: generator check of heat.space_reflection is non-finite at t=")
    assert len(err.splitlines()) == 1


def _count_generator_checks(monkeypatch):
    """The ``(chain name, probes)`` of every ``verify_symmetry`` call, wherever
    a module holds it, and one entry per ``AnalyticField.evaluate`` call."""
    calls, evaluated = [], []
    original = symmetry.verify_symmetry

    def counted(L, g, probes):
        calls.append((g.name, probes))
        return original(L, g, probes)

    for module in (symmetry, scenario):
        monkeypatch.setattr(module, "verify_symmetry", counted)
    evaluate = AnalyticField.evaluate
    monkeypatch.setattr(AnalyticField, "evaluate", lambda f, t, points: evaluated.append(1) or evaluate(f, t, points))
    return calls, evaluated


@pytest.mark.parametrize("stem", ["dirac_charges", "kdvkdv_quadratic", "wave_energy"])
def test_every_generator_check_shares_one_set_of_probes(monkeypatch, stem):
    calls, _ = _count_generator_checks(monkeypatch)
    report = run_scenario(load_scenario(SCENARIOS / f"{stem}.scn"))
    assert report["pass"]
    checked = [entry for entry in report["results"] if "generator_residual" in entry]
    assert checked and len(calls) == len(checked)
    assert len({id(probes) for _, probes in calls}) == 1


def test_rotations_are_checked_without_closed_form_fields(monkeypatch):
    calls, evaluated = _count_generator_checks(monkeypatch)
    scn = load_scenario(SCENARIOS / "dirac_angular_momentum.scn")
    small = dataclasses.replace(scn, grid={**scn.grid, "modes": (8, 8, 8)})
    # the generator checks come before the trajectory pass, whose support
    # guard then refuses the packet on this coarse grid
    with pytest.raises(ScenarioError, match="needs compactly supported data"):
        run_scenario(small)
    assert [name for name, _ in calls] == ["dirac.rotation_x", "dirac.rotation_y", "dirac.rotation_z"]
    assert len({id(probes) for _, probes in calls}) == 1
    assert evaluated == []


def test_symbol_path_fails_closed_on_non_finite_amplitudes(monkeypatch):
    calls, _ = _count_generator_checks(monkeypatch)
    scn = parse_scenario(OVERFLOWING_GENERATOR_CHECK)
    with pytest.raises(ValueError, match="generator check of heat.space_reflection is non-finite at t=") as err:
        run_scenario(scn)
    assert len(calls) == 1
    # every sampled time overflows: the check and the closed-form oracle
    # name the first of the same five times
    L, g = build_operator(scn.operator), build_symmetry("heat.space_reflection")
    with pytest.raises(ValueError) as want:
        analytic_oracle.verify_symmetry(L, g, seed=scn.seed, s=scn.s)
    assert str(err.value) == str(want.value)


@pytest.mark.parametrize(
    "times", ["linspace(0, 1, 0)", "0.0, nan", "0.0, inf", "0.5", "0.5, 0.5"]
)
def test_cli_rejects_empty_or_non_finite_times(tmp_path, capsys, times):
    path = tmp_path / "bad_times.scn"
    path.write_text(
        "operator = heat(dim=1)\ngrid = modes:16 length:6.28\n"
        f"profile = random(seed=1, kmax=4)\ntimes = {times}\nsymmetry = identity\n"
    )
    assert main(["verify", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: times")


@pytest.mark.parametrize(
    "times, count",
    [("linspace(0, 1, 1000000000000)", 10**12), (", ".join(["0.5"] * (MAX_TIMES + 1)), MAX_TIMES + 1)],
    ids=["linspace", "list"],
)
def test_cli_refuses_too_many_sample_times(tmp_path, capsys, times, count):
    # the count is refused before any time is made: a 10^12-point linspace
    # would not fit in memory
    path = tmp_path / "many_times.scn"
    path.write_text(
        "operator = heat(dim=1)\ngrid = modes:16 length:6.28\n"
        f"profile = random(seed=1, kmax=4)\ntimes = {times}\nsymmetry = identity\n"
    )
    assert main(["verify", str(path)]) == 2
    assert capsys.readouterr().err == (
        f"error: times (line 4): at most {MAX_TIMES} sample times are allowed, got {count}\n"
    )


def test_the_largest_count_of_sample_times_parses():
    base = "operator = heat(dim=1)\ngrid = modes:16 length:6.28\nprofile = random\nsymmetry = identity\n"
    listed = ", ".join(str(i) for i in range(MAX_TIMES))
    for times in (listed, f"linspace(0, 1, {MAX_TIMES})"):
        assert len(parse_scenario(base + f"times = {times}\n").times) == MAX_TIMES


@pytest.mark.parametrize(
    "profile",
    ["gaussian(width=1e-300)", "gaussian(amp=1e308)", "packet(seed=1, kmax=4, width=1e-200)"],
)
def test_cli_rejects_non_finite_initial_data(tmp_path, capsys, profile):
    # every sample overflows or divides by zero: the profile is refused by
    # name, without numpy warnings, before any evolution runs
    path = tmp_path / "overflow.scn"
    path.write_text(
        "operator = heat(dim=1)\ngrid = modes:64 length:6.28\n"
        f"times = 0, 1\nsymmetry = identity\nprofile = {profile}\n"
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["verify", str(path)]) == 2
    out, err = capsys.readouterr()
    assert '"pass"' not in out
    assert err == f"error: profile {profile!r} has non-finite coefficients\n"


@pytest.mark.parametrize(
    "operator, grid, symmetry",
    [
        ("wave(dim=1)", "modes:4 length:1e-300", "wave.time_translation"),
        ("jordan2x2", "modes:8 length:1e-300", "identity"),
    ],
    ids=["matrix-free", "stacked"],
)
def test_cli_refuses_a_box_whose_wavenumbers_overflow_the_symbol(tmp_path, capsys, operator, grid, symmetry):
    # k = 6.28e300 overflows k^2 (wave) and k^3 (jordan2x2): the system build
    # names the first such mode, without numpy warnings, before any evolution
    text = (SCENARIOS / "wave_energy.scn").read_text()
    for old, new in [
        ("modes:256 length:6.283185307179586", grid),
        ("wave(dim=1)", operator),
        ("= wave.time_translation", f"= {symmetry}"),
    ]:
        assert old in text
        text = text.replace(old, new)
    path = tmp_path / "tiny_box.scn"
    path.write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["verify", str(path)]) == 2
    out, err = capsys.readouterr()
    assert '"pass"' not in out
    assert err == (
        "error: the operator's symbol is non-finite at k=(6.28e+300,); "
        "the box is too small for its wavenumbers: enlarge it or lower kmax\n"
    )


def test_cli_refuses_a_huge_sample_time_by_the_amplification_cap(tmp_path, capsys):
    # the k = 0 mode takes the small-argument branch of the closed form at dt = 1e200
    path = tmp_path / "late.scn"
    path.write_text(
        "operator = wave(dim=1)\ngrid = modes:16 length:6.28\nprofile = random(seed=1)\n"
        "times = 0, 1e200\nsymmetry = wave.time_translation\n"
    )
    assert main(["verify", str(path)]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: mode amplification 1.000e+200 exceeds cap")


def test_a_huge_kmax_is_no_cutoff(tmp_path, capsys):
    grid = TorusGrid((6.28,), (16,), kmax=1e308)
    assert np.array_equal(grid.mode_mask(), TorusGrid((6.28,), (16,)).mode_mask())
    path = tmp_path / "kmax.scn"
    path.write_text(
        "operator = heat(dim=1)\ngrid = modes:16 length:6.28 kmax:1e308\n"
        "profile = gaussian(width=0.5)\ntimes = 0, 1\nsymmetry = identity\n"
    )
    assert main(["verify", str(path)]) == 0
    out, err = capsys.readouterr()
    assert json.loads(out)["pass"] is True and not err


@pytest.mark.parametrize("command", ["current", "adjoint", "conjugacy"])
def test_cli_rejects_non_finite_operator_coefficients(capsys, command):
    # 1e400 parses to inf; the operator constructor refuses it by multi-index
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([command, "Dt - 1e400*Dx^2"]) == 2
    out, err = capsys.readouterr()
    assert not out and err == "error: term (0, 2) has a non-finite coefficient\n"


def test_cli_reports_an_allocation_failure(tmp_path, capsys, monkeypatch):
    # stands in for a grid too large to allocate; the real allocation is never tried
    def refuse(self):
        raise MemoryError("Unable to allocate 8.00 GiB for an array with shape (1073741824,) and data type complex128")

    monkeypatch.setattr(TorusGrid, "mode_mask", refuse)
    path = tmp_path / "huge.scn"
    path.write_text(
        "operator = heat(dim=1)\ngrid = modes:16 length:6.28\nprofile = random(seed=1)\n"
        "times = 0, 1\nsymmetry = identity\n"
    )
    assert main(["verify", str(path)]) == 2
    err = capsys.readouterr().err
    assert err == "error: Unable to allocate 8.00 GiB for an array with shape (1073741824,) and data type complex128\n"


def test_cli_rejects_unknown_operator_keyword(capsys):
    assert main(["adjoint", "wave(dimm=1)"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "'dimm'" in err


@pytest.mark.parametrize(
    "operator",
    [
        "heat(dim=abc)", "wave(dim=1.5)", "heat(nu=abc)", "dirac(rep=chiral)", "dirac(rep=5)",
        "Dt - Dx^1e400", "Dt - Dx^2.5", "Dt - Dx^100000000000000000000",
        # a long integer for a float reads as a non-finite float; a dim outside 1..3 is refused
        *(pytest.param(f"{entry}=1{'0' * 400})", id=f"{entry}=<401 digits>)") for entry in ("dirac(m", "heat(nu", "heat(dim")),
        "heat(dim=-1)", "wave(dim=100000)",
    ],
)
def test_cli_rejects_mistyped_operator_keyword(capsys, operator):
    assert main(["adjoint", operator]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.splitlines()) == 1


@pytest.mark.parametrize(
    "operator, profile, symmetry",
    [
        ("kdvkdv", "random(seed=1, kmax=4)", "kdvkdv.Gamma_s(s=abc)"),
        ("heat(dim=1)", "gaussian(comp=5)", "identity"),
        ("heat(dim=1)", "random(seed=1, kmax=-3)", "identity"),  # zero density
        ("wave(dim=1)", "random(seed=1, kmax=4)", "wave.space_translation(axis=3)"),
        ("heat(dim=1)", "gaussian(width=-1.0)", "identity"),
        ("heat(dim=1)", "gaussian(width=0.0)", "identity"),
        ("heat(dim=1)", "packet(seed=1, width=-2.0)", "identity"),
        ("heat(dim=1)", "random(seed=-7, kmax=40)", "identity"),
        ("heat(dim=1)", "packet(seed=-1, width=1.0)", "identity"),
        # integers too long for a float
        pytest.param("heat(dim=1)", f"gaussian(width=1{'0' * 400})", "identity", id="gaussian(width=<401 digits>)"),
        pytest.param("heat(dim=1)", f"gaussian(amp=1{'0' * 400})", "identity", id="gaussian(amp=<401 digits>)"),
        pytest.param("kdvkdv", "random(seed=1, kmax=4)", f"kdvkdv.Gamma_s(s=1{'0' * 400})", id="kdvkdv.Gamma_s(s=<401 digits>)"),
    ],
)
def test_cli_rejects_mistyped_scenario_entries(tmp_path, capsys, operator, profile, symmetry):
    path = tmp_path / "mistyped.scn"
    path.write_text(
        f"operator = {operator}\ngrid = modes:16 length:6.28\nprofile = {profile}\n"
        f"times = 0.0, 0.5\nsymmetry = {symmetry}\n"
    )
    assert main(["verify", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.splitlines()) == 1


@pytest.mark.parametrize(
    "dim", ["0", "4", "-1", "100000", pytest.param(f"1{'0' * 400}", id="<401 digits>")]
)
@pytest.mark.parametrize(
    "symmetry",
    [
        "heat.space_reflection", "heat.s_reflection", "heat.time_reversal",
        "wave.time_translation", "wave.space_translation",
    ],
)
def test_cli_rejects_a_symmetry_dim_outside_one_to_three(tmp_path, capsys, symmetry, dim):
    # a 401-digit dim was an OverflowError traceback (heat) or ran without end
    # (wave.time_translation); dim=100000 built a 100001-slot mask first
    path = tmp_path / "dim.scn"
    path.write_text(
        f"operator = {symmetry.split('.')[0]}(dim=1)\ngrid = modes:16 length:6.28\n"
        f"profile = random(seed=1, kmax=4)\ntimes = 0.0, 0.5\nsymmetry = {symmetry}(dim={dim})\n"
    )
    assert main(["verify", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: symmetry '{symmetry}' keyword 'dim' must be 1, 2 or 3, got {dim}")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize(
    "operator, profile, symmetry, key",
    [
        ("heat(dim=1, dim=2)", "random(seed=1, kmax=4)", "identity", "dim"),
        ("heat(dim=1)", "random(seed=1, seed=2, kmax=4)", "identity", "seed"),
        ("kdvkdv", "random(seed=1, kmax=4)", "kdvkdv.Gamma_s(s=1.0, s=2.0)", "s"),
    ],
)
def test_cli_verify_refuses_a_repeated_catalog_keyword(tmp_path, capsys, operator, profile, symmetry, key):
    path = tmp_path / "repeated.scn"
    path.write_text(
        f"operator = {operator}\ngrid = modes:16 length:6.28\nprofile = {profile}\n"
        f"times = 0.0, 0.5\nsymmetry = {symmetry}\n"
    )
    assert main(["verify", str(path)]) == 2
    out, err = capsys.readouterr()
    assert not out and len(err.splitlines()) == 1
    assert err.startswith("error: catalog entry") and f"repeats keyword {key!r}" in err


@pytest.mark.parametrize("text", ["(1+2i)*Dt - Dx^2", "Dt - Dx*(2)", "Dt - Dx^2 # heat(dim=1)"])
def test_dsl_text_with_parentheses_is_not_a_catalog_entry(capsys, text):
    from conslaw.dsl import parse_operator

    assert build_operator(text) == parse_operator(text)
    assert main(["current", text]) == 0
    assert capsys.readouterr().out.startswith("divergence defect: 0.000e+00\n")


@pytest.mark.parametrize("spec", ["random(seed=-7, kmax=40)", "packet(seed=-1, width=1.0)"])
def test_negative_profile_seed_names_the_profile(spec):
    with pytest.raises(ValueError, match=r"(random|packet) profile seed must be an integer >= 0"):
        build_profile(spec, TorusGrid((6.28,), (16,)), 1)


def _random_by_copies(grid, ncomp, seed, kmax, real):
    # the random profile with a new array at every step
    rng = np.random.default_rng(seed)
    coeffs = np.zeros((ncomp,) + grid.modes, dtype=complex)
    idx_ok = np.ones(grid.modes, dtype=bool)
    for d, n in enumerate(grid.modes):
        idx = np.abs(np.fft.fftfreq(n, d=1.0 / n).astype(int)) <= kmax
        sh = [1] * grid.ndim
        sh[d] = n
        idx_ok &= idx.reshape(sh)
    idx_ok &= grid.mode_mask()
    nsel = int(idx_ok.sum())
    for c in range(ncomp):
        vals = rng.standard_normal(nsel) + 1j * rng.standard_normal(nsel)
        coeffs[c][idx_ok] = vals / np.sqrt(nsel)
    if real:
        axes = tuple(range(1, grid.ndim + 1))
        vals = np.fft.ifftn(coeffs, axes=axes).real
        coeffs = np.fft.fftn(vals, axes=axes)
    return coeffs * grid.mode_mask()


def _packet_by_copies(grid, ncomp, seed, width, kmax, real):
    axes = tuple(range(1, grid.ndim + 1))
    mod_vals = np.fft.ifftn(_random_by_copies(grid, ncomp, seed, kmax, real), axes=axes) * grid.npoints
    mesh = np.meshgrid(*grid.coordinates(), indexing="ij")
    r2 = sum(x * x for x in mesh)
    env = np.exp(-r2 / (2.0 * width**2))
    coeffs = np.fft.fftn(mod_vals * env, axes=axes) / grid.npoints
    return coeffs * grid.mode_mask()


@pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
@pytest.mark.parametrize(
    "grid", [TorusGrid((16.0, 12.0, 16.0), (16, 8, 32), kmax=3.0), TorusGrid((6.0,), (64,))], ids=["3d", "1d"]
)
def test_profiles_built_in_place_keep_their_bits(grid, real):
    # the in-place transforms, sparse mesh and in-place products give the
    # bits of the formulas above, signed zeros included
    def bits(c):
        return c.view(float), np.signbit(c.view(float))

    got = build_profile(f"random(seed=4, kmax=3, real={real})", grid, 3)
    want = _random_by_copies(grid, 3, 4, 3, real)
    assert all(np.array_equal(a, b) for a, b in zip(bits(got), bits(want)))
    got = build_profile(f"packet(seed=2, width=1.3, kmax=2, real={real})", grid, 4)
    want = _packet_by_copies(grid, 4, 2, 1.3, 2, real)
    assert all(np.array_equal(a, b) for a, b in zip(bits(got), bits(want)))


@pytest.mark.parametrize(
    "key, value",
    [
        ("grid", "modes:16 length:-6.283185307179586"),
        ("grid", "modes:16 length:nan"),
        ("grid", "modes:16 length:6.283185307179586 kmax:-1"),
        ("grid", "modes:16 length:6.283185307179586 kmax:nan"),
        # more than 3 axes, or none: refused before ``modes * dims`` is formed
        ("grid", "modes:16 length:6.283185307179586 dims:10000000000000000000"),
        ("grid", "modes:16 length:6.283185307179586 dims:0"),
        ("grid", "modes:16 length:6.283185307179586 dims:70"),
        ("grid", "modes:16,16,16,16 length:6.283185307179586"),
        ("grid", "modes:16 length:1,1,1,1"),
        ("amp_cap", "nan"),
        ("amp_cap", "inf"),
        ("support_tol", "nan"),
        ("support_tol", "-1e-10"),
        ("tolerance", "nan"),
        ("tolerance", "-1e-10"),
        ("seed", "-1"),
        ("symmetry", "wave.time_translation tolerance=nan"),
        ("symmetry", "wave.time_translation expect=drift min_drift=nan"),
        ("symmetry", "wave.time_translation expect=drift min_drift=-1"),
    ],
)
def test_cli_rejects_non_finite_or_signless_settings(tmp_path, capsys, key, value):
    path = tmp_path / "signless.scn"
    path.write_text(_scenario_text({**WAVE, key: value}))
    assert main(["verify", str(path)]) == 2
    out, err = capsys.readouterr()
    assert '"pass"' not in out
    assert err.startswith(f"error: {key} (line") and len(err.splitlines()) == 1


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_cli_rejects_non_finite_reflection_time(tmp_path, capsys, value):
    path = tmp_path / "reflection.scn"
    path.write_text(_scenario_text({**WAVE, "s": value, "symmetry": "heat.time_reversal"}))
    assert main(["verify", str(path)]) == 2
    out, err = capsys.readouterr()
    assert '"pass"' not in out
    assert err.startswith("error: s (line") and len(err.splitlines()) == 1


@pytest.mark.parametrize("value", ["0", "-1.5"])
def test_zero_and_negative_reflection_times_parse(value):
    assert parse_scenario(_scenario_text({**WAVE, "s": value})).s == float(value)


def test_cli_support_guard_names_the_boundary_fraction(tmp_path, capsys):
    path = tmp_path / "narrow_box.scn"
    text = (SCENARIOS / "kdvkdv_affine.scn").read_text()
    path.write_text(text.replace("length:96.0", "length:20.0"))
    assert main(["verify", str(path)]) == 2
    out, err = capsys.readouterr()
    assert '"pass"' not in out
    assert err.startswith("error: position-weighted functional 'kdvkdv.shift_linear_a'")
    assert "boundary fraction" in err and len(err.splitlines()) == 1


def test_cli_support_guard_covers_position_weighted_derivatives(tmp_path, capsys):
    # the rotations weight derivatives of u by coordinates; at 16^3 the
    # packet reaches the box edge (boundary fraction of u about 6.7e-3)
    path = tmp_path / "coarse_rotations.scn"
    text = (SCENARIOS / "dirac_angular_momentum.scn").read_text()
    path.write_text(text.replace("modes:64", "modes:16"))
    assert main(["verify", str(path)]) == 2
    out, err = capsys.readouterr()
    assert '"pass"' not in out
    assert err.startswith("error: position-weighted functional 'dirac.rotation_x'")
    assert "boundary fraction" in err and len(err.splitlines()) == 1


def test_kernel_shift_view_is_guarded_on_the_library_path():
    scn = load_scenario(SCENARIOS / "kdvkdv_affine.scn")
    L = build_operator(scn.operator)
    grid = TorusGrid(**{**scn.grid, "lengths": (20.0,)})
    system = EvolutionSystem(L, grid)
    traj = Trajectory(system, build_profile(scn.profile, grid, L.cols * system.R))
    fact = adjoint_factorization(L, semi_conjugacy_solve(L, seed=scn.seed))
    char = adjoint_characteristic(L, fact, build_symmetry("kdvkdv.shift_linear_a"))
    view = symmetry_view(char, traj, s=scn.s)
    with pytest.raises(SupportError, match="boundary fraction .* at t="):
        kappa_series(concomitant_flux(L), [view], traj, scn.times)


def test_weighted_run_propagates_each_sample_time_once(monkeypatch):
    calls = []
    propagator = EvolutionSystem.propagator

    def counted(self, dt, U, modes=slice(None), *rest):
        calls.append((dt, modes.start, modes.stop))
        return propagator(self, dt, U, modes, *rest)

    monkeypatch.setattr(EvolutionSystem, "propagator", counted)
    scn = load_scenario(SCENARIOS / "kdvkdv_affine.scn")
    report = run_scenario(scn, write_csv=False)
    assert report["pass"] and all("boundary_fraction" in e for e in report["results"])
    assert len(calls) == len(set(calls)) == len(scn.times)  # one block of modes


def test_support_guard_fails_closed_on_nan():
    scn = load_scenario(SCENARIOS / "kdvkdv_affine.scn")
    grid = {**scn.grid, "lengths": (20.0,)}
    scn = dataclasses.replace(scn, grid=grid, support_tol=float("nan"))
    with pytest.raises(ScenarioError, match="boundary fraction"):
        run_scenario(scn, write_csv=False)


@pytest.mark.parametrize(
    "operator, symmetry",
    [("heat(dim=2)", "heat.space_reflection"), ("wave(dim=2)", "wave.time_translation")],
)
def test_cli_rejects_symmetry_of_another_dimension(tmp_path, capsys, operator, symmetry):
    path = tmp_path / "mismatch.scn"
    path.write_text(
        f"operator = {operator}\ngrid = modes:16 length:6.28 dims:2\n"
        f"profile = random(seed=1, kmax=4)\ntimes = 0.0, 0.5\nsymmetry = {symmetry}\n"
    )
    assert main(["verify", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert "on 2 variables" in err and "on 3" in err


@pytest.mark.parametrize(
    "operator, dims, symmetry, ncomp",
    [
        ("heat(dim=3)", 3, "dirac.Gamma0", 4),
        ("heat(dim=3)", 3, "dirac.rotation_x", 4),
        ("heat(dim=1)", 1, "kdvkdv.swap", 2),
        ("heat(dim=1)", 1, "kdvkdv.shift_u", 2),
    ],
)
def test_cli_rejects_symmetry_on_other_components(tmp_path, capsys, operator, dims, symmetry, ncomp):
    path = tmp_path / "mismatch.scn"
    path.write_text(
        f"operator = {operator}\ngrid = modes:8 length:6.28 dims:{dims}\n"
        f"profile = random(seed=1, kmax=2)\ntimes = 0.0, 0.5\nsymmetry = {symmetry}\n"
    )
    assert main(["verify", str(path)]) == 2
    out, err = capsys.readouterr()
    assert not out and err == f"error: symmetry {symmetry!r} acts on {ncomp} components, the operator on 1\n"


def test_catalog_rejects_unknown_keywords():
    with pytest.raises(ValueError, match="'s'"):
        build_symmetry("dirac.Gamma1(s=5)")
    with pytest.raises(ValueError, match="'kmaxx'"):
        build_profile("random(kmaxx=3)", TorusGrid((6.28,), (16,)), 1)
    with pytest.raises(ValueError, match="'grid'"):
        build_profile("random(grid=3)", TorusGrid((6.28,), (16,)), 1)
    assert build_symmetry("dirac.Gamma0(s=0.5)").factors
    assert build_operator("heat(nu=2)") == build_operator("heat(nu=2.0)")  # an int for a float


def test_catalog_reads_each_factory_signature_once(monkeypatch):
    # named_symmetries() builds fresh partials on every call, so the keyword
    # tables are keyed on the function and its bound arguments; two partials
    # of one function with other bound arguments keep their own keywords
    from conslaw import catalog

    grid = TorusGrid((6.28,), (16,))
    every = [(build_symmetry, (name,)) for name in catalog.named_symmetries()]
    every += [(build_operator, (name,)) for name in catalog.named_operators()]
    every += [(build_profile, (name, grid, 1)) for name in catalog.named_profiles()]
    for build, args in every:
        build(*args)
    calls = []
    signature = catalog.inspect.signature
    monkeypatch.setattr(catalog.inspect, "signature", lambda f: calls.append(f) or signature(f))
    for build, args in every:
        build(*args)
    assert calls == []
    refusals = {
        "dirac.Gamma1(s=5)": "symmetry 'dirac.Gamma1' has no keyword 's' (keywords: none)",
        "dirac.Gamma0(m=5)": "symmetry 'dirac.Gamma0' has no keyword 'm' (keywords: s)",
        "dirac.rotation_x(axis=2)": "symmetry 'dirac.rotation_x' has no keyword 'axis' (keywords: none)",
    }
    for spec, text in refusals.items():
        with pytest.raises(ValueError) as exc:
            build_symmetry(spec)
        assert str(exc.value) == text
    with pytest.raises(ValueError) as exc:
        build_profile("random(grid=3)", grid, 1)
    assert str(exc.value) == "profile 'random' has no keyword 'grid' (keywords: seed, kmax, real, scale)"


@pytest.mark.parametrize(
    "ints, floats",
    [
        ("heat(nu=2)", "heat(nu=2.0)"),
        ("dirac(m=0)", "dirac(m=0.0)"),
        ("random(scale=2)", "random(scale=2.0)"),
        ("gaussian(amp=1, center=3)", "gaussian(amp=1.0, center=3.0)"),
    ],
)
def test_integer_text_for_a_float_keyword_builds_the_same_bits(ints, floats):
    grid = TorusGrid((16.0, 12.0), (16, 8))
    if ints.split("(")[0] in ("heat", "dirac"):
        got, want = build_operator(ints), build_operator(floats)
        assert list(got.terms) == list(want.terms)
        assert all(got.terms[a].tobytes() == want.terms[a].tobytes() for a in want.terms)
    else:
        assert build_profile(ints, grid, 2).tobytes() == build_profile(floats, grid, 2).tobytes()


@pytest.mark.parametrize("build", [heat_operator, wave_operator])
@pytest.mark.parametrize("dim", [0, 4, -1, 100000])
def test_laplace_operators_refuse_a_dim_outside_one_to_three(build, dim):
    name = build.__name__.split("_")[0]
    with pytest.raises(ValueError, match=rf"operator '{name}' keyword 'dim' must be 1, 2 or 3, got {dim}$"):
        build(dim=dim)


@pytest.mark.parametrize(
    "kind, spec, keyword",
    [
        ("operator", "dirac(m=nan)", "m"),
        ("operator", "heat(nu=inf)", "nu"),
        ("symmetry", "dirac.Gamma0(s=nan)", "s"),
        ("symmetry", "dirac.cpt(s=1e400)", "s"),
        ("symmetry", "kdvkdv.Gamma_s(s=-inf)", "s"),
        ("profile", "gaussian(amp=nan)", "amp"),
        ("profile", "random(scale=1e400)", "scale"),
    ],
)
def test_catalog_rejects_non_finite_numbers(kind, spec, keyword):
    build = {
        "operator": build_operator,
        "symmetry": build_symmetry,
        "profile": lambda text: build_profile(text, TorusGrid((6.28,), (16,)), 1),
    }[kind]
    name = spec.split("(")[0]
    with pytest.raises(ValueError, match=rf"{kind} '{name}' keyword '{keyword}' must be finite"):
        build(spec)


def test_cli_rejects_non_finite_operator_mass(tmp_path, capsys):
    path = tmp_path / "nan_mass.scn"
    text = (SCENARIOS / "dirac_charges.scn").read_text()
    lines = [ln for ln in text.splitlines() if ln.startswith("operator")]
    assert len(lines) == 1
    path.write_text(text.replace(lines[0], "operator = dirac(m=nan)"))
    assert main(["verify", str(path)]) == 2
    out, err = capsys.readouterr()
    assert '"pass"' not in out and "Traceback" not in err
    assert err == "error: operator 'dirac' keyword 'm' must be finite, got nan\n"


def test_reproduce_scenario_writes_one_summary(tmp_path, capsys):
    assert main(["--out-dir", str(tmp_path), "reproduce", "wave-energy"]) == 0
    assert main(["list"]) == 0
    listing = capsys.readouterr().out.split("reproductions:\n", 1)[1]
    listed = dict(line.split(None, 1) for line in listing.splitlines())
    summaries = list(tmp_path.glob("*.json"))
    assert [p.name for p in summaries] == ["wave-energy.json"]
    data = json.loads(summaries[0].read_text())
    assert data["scenario"] == "wave-energy"
    assert data["certifies"] == listed["wave-energy"]
