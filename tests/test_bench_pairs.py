"""The summary of tools/bench_pairs.py on a fixed list of pairs: medians,
inclusive-quartile IQRs, the pairs the change won by each metric's
``better``, and the bound flag."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
from bench_pairs import summary  # noqa: E402

METRICS = [{"name": "pipeline_s", "better": "lower", "bound": 0.25},
           {"name": "eval_samples_per_s", "better": "higher", "bound": 0.25},
           {"name": "ok_ops_frac", "better": "higher", "bound": 0.01},
           {"name": "absent", "better": "lower", "bound": 0.25}]


def pair(seed, parent, change):
    return {"seed": seed, "first": "parent" if seed % 2 else "change",
            "parent": dict(zip(("pipeline_s", "eval_samples_per_s",
                                "ok_ops_frac"), parent)),
            "change": dict(zip(("pipeline_s", "eval_samples_per_s",
                                "ok_ops_frac"), change))}


PAIRS = [pair(1, (1.0, 100.0, 1.0), (0.9, 90.0, 1.0)),
         pair(2, (2.0, 200.0, 1.0), (2.1, 210.0, 1.0)),
         pair(3, (3.0, 300.0, 1.0), (2.5, 100.0, 1.0)),
         pair(4, (4.0, 400.0, 1.0), (3.0, 50.0, 0.5))]


def test_summary_of_fixed_pairs():
    s = summary(PAIRS, METRICS)
    assert set(s) == {"pipeline_s", "eval_samples_per_s", "ok_ops_frac"}
    t = s["pipeline_s"]
    assert (t["parent_median"], t["change_median"]) == (2.5, pytest.approx(2.3))
    # inclusive quartiles of 1, 2, 3, 4 are 1.75 and 3.25
    assert t["parent_iqr"] == 1.5
    assert t["change_iqr"] == pytest.approx(2.625 - 1.8)
    assert t["change_better_pairs"] == "3/4"
    assert t["ratio_of_medians"] == pytest.approx(2.3 / 2.5)
    assert not t["worse_than_bound"]
    e = s["eval_samples_per_s"]
    assert (e["parent_median"], e["change_median"]) == (250.0, 95.0)
    assert e["change_better_pairs"] == "1/4"
    assert e["worse_than_bound"]
    o = s["ok_ops_frac"]
    assert (o["parent_iqr"], o["change_better_pairs"]) == (0.0, "0/4")
    assert o["change_median"] == 1.0 and not o["worse_than_bound"]
    one = summary(PAIRS[:1], METRICS)["pipeline_s"]
    assert (one["parent_iqr"], one["change_better_pairs"]) == (0.0, "1/1")
