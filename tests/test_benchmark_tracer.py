"""The benchmark's layer tracer still installs on the package.

``benchmark/tracer.py`` patches functions, methods and view classes of
``conslaw`` by name; a rename or deletion there would make
``benchmark/run.py --trace 1`` fail, so this test installs and removes it.
"""

import importlib.util
from pathlib import Path

from conslaw import spectral

TRACER = Path(__file__).resolve().parents[1] / "benchmark" / "tracer.py"


def _tracer_module():
    spec = importlib.util.spec_from_file_location("benchmark_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls():
    original = spectral.ShiftView.jet
    tracer = _tracer_module().Tracer("t")
    tracer.install()
    try:
        assert spectral.ShiftView.jet is not original
    finally:
        tracer.uninstall()
    assert spectral.ShiftView.jet is original
