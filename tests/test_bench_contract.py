"""The benchmark's outside-in tracer still finds every layer it wraps.

``bench/tracer.py`` patches meip functions by name and reads fields of
their results; a renamed function or a dropped field silently removes
metrics from the benchmark's result.  These tests fail instead, as does a
benchmark run whose last output line is not a strict-JSON result.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from meip import pipeline

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture
def tracer():
    sys.path.insert(0, str(BENCH))
    try:
        from tracer import Tracer
    finally:
        sys.path.remove(str(BENCH))
    t = Tracer()
    t.install()
    try:
        yield t
    finally:
        t.restore()


def test_every_target_is_found(tracer):
    assert tracer.missing == []


def test_traced_pipeline_reads_every_result_field(tracer, bars_workspace):
    cfg = pipeline.load_config(bars_workspace / "run.cfg")
    pipeline.cmd_pipeline(cfg, bars_workspace / "out")
    assert tracer.broken == set()
    notes = {s.name: s.note for s in tracer.spans if s.note}
    assert {"lp.solve", "fem.assemble", "optimizer.optimize",
            "forest.generate", "dataset.preprocess"} <= notes.keys()


def _no_constant(name):
    raise ValueError(f"non-finite number {name} in the result line")


def test_last_output_line_is_the_result():
    run = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "forest_pair",
         "--seed", "1", "--seconds", "0", "--trace", "0"],
        capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout.splitlines()[-1],
                        parse_constant=_no_constant)
    assert result["correct"] is True, run.stderr
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert sorted(result["metrics"]) == sorted(
        m["name"] for m in spec["end_to_end"])
