"""Every benchmark check passes on the seeds a benchmark run starts from.

``benchmark/workloads.py`` derives scenario profiles and solver seeds from a
workload seed and re-derives each verdict from the program's report.  A
check that fails or raises at some seed makes the whole benchmark run exit
non-zero, so this test runs the scenario suite at workload seeds 0-9 and the
report suite once.  The module is loaded from its file and not edited.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

WORKLOADS = Path(__file__).resolve().parents[1] / "benchmark" / "workloads.py"


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("benchmark_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses resolve their module by name
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


def _failed_checks(workload):
    failed = []
    for item in workload.items:
        checks = item.verdicts(item.run())
        assert len(checks) == item.nchecks, item.name
        failed += [check.label for check in checks if not check.ok]
    return failed


@pytest.mark.parametrize("seed", range(10))
def test_scenario_suite_checks_pass(workloads, seed):
    assert _failed_checks(workloads.make_workload("scenario-suite", seed)) == []


def test_report_suite_checks_pass(workloads):
    assert _failed_checks(workloads.make_workload("report-suite", 0)) == []
