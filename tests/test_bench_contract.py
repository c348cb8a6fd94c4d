"""The benchmark's outside-in tracer still finds every layer it wraps.

``bench/tracer.py`` patches meip functions by name and reads fields of
their results; a renamed function or a dropped field silently removes
metrics from the benchmark's result.  These tests fail instead.
"""

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
