"""Smoke test: demos run to the end from a temporary working directory."""

import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("name, line", [
    # the paper's low-frequency claim for the energy inner product
    ("01_membrane_energy.py", "share of |<u,v>| carried by the lowest 10%"),
    # one full axis optimization: banded assembly, solves and the LP
    ("02_single_axis.py", "final constraint value G = "),
    # forest, fit and predict_batch, which scores through discriminants
    ("03_axis_forest_classifier.py", "test: accuracy "),
])
def test_demo_runs(name, line, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    runpy.run_path(str(DEMOS / name), run_name="__main__")
    assert line in capsys.readouterr().out
