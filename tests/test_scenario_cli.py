import json
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

from conslaw import scenario
from conslaw.catalog import build_profile, build_symmetry
from conslaw.cli import main
from conslaw.scenario import (
    ScenarioError,
    load_scenario,
    parse_scenario,
    reproduce,
    reproductions,
    run_scenario,
)
from conslaw.spectral import TorusGrid

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


def _shipped():
    return sorted(p for p in SCENARIOS.iterdir() if p.name.endswith(".scn"))


def test_package_ships_exactly_the_six_scenarios():
    assert [p.name for p in _shipped()] == [
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


def test_cli_dirac_verdict_is_and_of_embedded_reports(capsys):
    rc = main(["dirac", "--fast"])
    report = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert sorted(report["reproductions"]) == ["dirac-charges", "dirac-cpt", "dirac-discrete"]
    assert report["pass"] == all(r["pass"] for r in report["reproductions"].values())
    assert report["pass"] is True


def test_cli_dirac_fails_when_an_embedded_report_fails(monkeypatch, capsys):
    real = scenario._report_fock
    monkeypatch.setattr(scenario, "_report_fock", lambda: {**real(), "pass": False})
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


def test_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "conslaw.cli", "list"],
        capture_output=True,
        text=True,
        cwd=ROOT,
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


@pytest.mark.parametrize("times", ["linspace(0, 1, 0)", "0.0, nan", "0.0, inf"])
def test_cli_rejects_empty_or_non_finite_times(tmp_path, capsys, times):
    path = tmp_path / "bad_times.scn"
    path.write_text(
        "operator = heat(dim=1)\ngrid = modes:16 length:6.28\n"
        f"profile = random(seed=1, kmax=4)\ntimes = {times}\nsymmetry = identity\n"
    )
    assert main(["verify", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: times")


def test_cli_rejects_unknown_operator_keyword(capsys):
    assert main(["adjoint", "wave(dimm=1)"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "'dimm'" in err


def test_catalog_rejects_unknown_keywords():
    with pytest.raises(ValueError, match="'s'"):
        build_symmetry("dirac.Gamma1(s=5)")
    with pytest.raises(ValueError, match="'kmaxx'"):
        build_profile("random(kmaxx=3)", TorusGrid((6.28,), (16,)), 1)
    with pytest.raises(ValueError, match="'grid'"):
        build_profile("random(grid=3)", TorusGrid((6.28,), (16,)), 1)
    assert build_symmetry("dirac.Gamma0(s=0.5)").factors


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
