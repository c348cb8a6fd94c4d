"""tools/bench_pairs.py without a benchmark run: the summary of a fixed
list of pairs (medians, inclusive-quartile IQRs, the pairs the change won
by each metric's ``better``, and the bound flag), the parse-time checks,
a probe's record, metrics and outputs check, the child runner's exit code
and peak RSS, and the extraction of a revision's tree, which
tools/compare_outputs.py shares."""

import collections
import io
import json
import re
import shutil
import subprocess
import sys
import tarfile
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"
sys.path.insert(0, str(TOOLS))
import bench_pairs  # noqa: E402
from bench_pairs import (extract, outputs_check, probe_metrics,  # noqa: E402
                         probe_record, summary)

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


def tar_of(files: dict[str, bytes]) -> bytes:
    buf = io.BytesIO()
    with tarfile.open(fileobj=buf, mode="w") as t:
        for name, data in files.items():
            info = tarfile.TarInfo(name)
            info.size = len(data)
            t.addfile(info, io.BytesIO(data))
    return buf.getvalue()


FILES = {"src/meip/a.py": b"x = 1\n", "bench/run.py": b""}


def test_extract_without_the_data_filter(tmp_path, monkeypatch):
    # a Python before 3.10.12 or 3.11.4: no tarfile.data_filter, and an
    # extractall that takes no filter= and trusts every member
    monkeypatch.delattr(tarfile, "data_filter", raising=False)
    real = tarfile.TarFile.extractall

    def extractall(self, path=".", members=None, *, numeric_owner=False):
        return real(self, path, members, numeric_owner=numeric_owner,
                    filter="fully_trusted")

    monkeypatch.setattr(tarfile.TarFile, "extractall", extractall)
    extract(tar_of(FILES), tmp_path)
    assert {name: (tmp_path / name).read_bytes()
            for name in FILES} == FILES


@pytest.mark.skipif(not hasattr(tarfile, "data_filter"),
                    reason="this Python has no tar extraction filters")
def test_extract_applies_the_data_filter(tmp_path):
    extract(tar_of(FILES), tmp_path / "tree")
    assert (tmp_path / "tree" / "src" / "meip" / "a.py").read_bytes() == \
        FILES["src/meip/a.py"]
    with pytest.raises(tarfile.FilterError):
        extract(tar_of({"../outside.txt": b"x"}), tmp_path / "tree")
    assert not (tmp_path / "outside.txt").exists()


# compare_outputs imports bench/run.py, which pins the BLAS threads in
# os.environ, so the tools are imported in a fresh interpreter
SCRIPT = """
import json
import bench_pairs, compare_outputs

class Exported(Exception):
    pass

def export(rev, dest):
    raise Exported(rev)

shared = compare_outputs.export is bench_pairs.export
compare_outputs.export = export
try:
    compare_outputs.main(["BASE"])
except Exported as exc:
    call = str(exc)
print(json.dumps([shared, call, hasattr(compare_outputs, "export_src")]))
"""


def test_the_tools_share_one_export():
    proc = subprocess.run([sys.executable, "-c", SCRIPT], cwd=TOOLS,
                          capture_output=True, text=True, check=True)
    # compare_outputs takes the revision's tree from bench_pairs.export,
    # before any dataset is generated
    assert json.loads(proc.stdout) == [True, "BASE", False]


@pytest.mark.parametrize("argv", [["--pairs", "0"],
                                  ["--pairs", "1", "--workload", "nope"]])
def test_bad_arguments_fail_before_any_export(argv, monkeypatch, capsys):
    def export(rev, dest):
        raise AssertionError(f"exported {rev}")

    monkeypatch.setattr(bench_pairs, "export", export)
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main(["HEAD", "HEAD", *argv])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    # the usage line names every benchmark workload and probe
    assert err.startswith("usage: ")
    assert ("{forest_pair,ovr_shallow,classify_bulk,paper_scale,"
            "three_forest,full_shape}") in err


RUN_CHILD = """
import json, os, sys
from pathlib import Path
from bench_pairs import run_child
child = "import sys; x = b'x' * (int(sys.argv[1]) << 20); sys.exit(3)"
print(json.dumps([run_child([sys.executable, "-c", child, str(mib)],
                            dict(os.environ), Path(sys.argv[1]))
                  for mib in (64, 128)]))
"""


def test_run_child_reports_exit_code_and_peak_rss(tmp_path):
    # a child's peak includes the peak of the process that starts it, so
    # the runner runs in a fresh interpreter, not in pytest
    proc = subprocess.run([sys.executable, "-c", RUN_CHILD,
                           str(tmp_path / "child.log")], cwd=TOOLS,
                          capture_output=True, text=True, check=True)
    (code64, wall64, rss64), (code128, wall128, rss128) = json.loads(
        proc.stdout)
    assert code64 == code128 == 3
    assert wall64 > 0 and wall128 > 0
    # both peaks lie above this interpreter's, which the child's peak
    # includes, so they differ by the 64 MiB more that one child writes
    assert 64 < rss64 < 128 < rss128
    assert 62 <= rss128 - rss64 <= 66


def test_the_tool_loads_no_numpy():
    # a probe's peak RSS includes that of the process that starts it, so
    # the tool and the run.py it loads import no numpy, nor the modules
    # that would
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, bench_pairs, run; "
         "print(sorted(m for m in sys.modules if m.split('.')[0] in "
         "('numpy', 'glyphs', 'meip')))"],
        cwd=TOOLS, capture_output=True, text=True, check=True)
    assert proc.stdout == "[]\n"


@pytest.fixture
def bench_run(monkeypatch):
    """bench/run.py, which probe_record imports for its tree_digest.  It
    refuses to load once numpy has, as numpy has in this process, and
    pins the BLAS threads in os.environ, so it loads with numpy hidden,
    and it and the pins are undone after the test."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    numpy = sys.modules.pop("numpy")
    try:
        import run
    finally:
        sys.modules["numpy"] = numpy
    yield run
    del sys.modules["run"]


def test_probe_record_of_a_pipeline_output(bars_workspace, bench_run):
    from meip import pipeline

    out = bars_workspace / "out"
    pipeline.cmd_pipeline(pipeline.load_config(bars_workspace / "run.cfg"),
                          out)
    timing = (out / "timing.txt").read_text()
    axes = json.loads((out / "axes_provenance.json").read_text())
    report = json.loads((out / "report.json").read_text())
    kept = shutil.copytree(out, bars_workspace / "kept")
    (kept / "timing.txt").unlink()
    record = probe_record(out, 1.5, 80.25)
    assert record == {
        "wall_s": 1.5,
        "train_axes_s": float(re.search(r"^train_axes (\S+)s$", timing,
                                        re.M)[1]),
        "peak_rss_mb": 80.25,
        "test_accuracy": report["test_confusion"]["accuracy"],
        "state_evals": sum(a["state_evals"] for a in axes),
        "zero_progress_axes": sum(a["iterations"] == 0 for a in axes),
        "stops": dict(collections.Counter(a["converged_by"] for a in axes)),
        "digest": bench_run.tree_digest(kept)}
    assert axes and record["state_evals"] > 0
    # timing.txt, which differs from run to run, is gone after the read
    assert sorted(out.iterdir()) == sorted(out / p.name
                                           for p in kept.iterdir())


def test_probe_metrics_take_the_benchmark_bounds():
    bench = json.loads((TOOLS.parent / "BENCHMARK.json").read_text())
    bound = {m["name"]: m for m in bench["end_to_end"]}
    metrics = {m["name"]: m for m in probe_metrics(bench["end_to_end"])}
    assert list(metrics) == ["wall_s", "train_axes_s", "peak_rss_mb",
                             "test_accuracy", "state_evals"]
    for name, like in (("wall_s", "pipeline_s"),
                       ("train_axes_s", "pipeline_s"),
                       ("peak_rss_mb", "peak_rss_mb"),
                       ("test_accuracy", "test_accuracy")):
        assert (metrics[name]["better"], metrics[name]["bound"]) == \
            (bound[like]["better"], bound[like]["bound"])
    # state_evals is reported, never marked worse
    runs = [{"pair": 1, "parent": {"state_evals": 1}, "change":
             {"state_evals": 10 ** 9}}]
    s = summary(runs, probe_metrics(bench["end_to_end"]))
    assert list(s) == ["state_evals"] and not s["state_evals"][
        "worse_than_bound"]


def probe_pairs(parent, change):
    run = {"state_evals": 5, "zero_progress_axes": 1, "stops": {"eps_x": 2}}
    return [{"pair": i, "first": "parent" if i % 2 else "change",
             "parent": {**run, "digest": p}, "change": {**run, "digest": c}}
            for i, (p, c) in enumerate(zip(parent, change), start=1)]


def test_outputs_check_names_the_side_and_pairs_that_differ(capsys):
    census = "state_evals 5, zero-progress axes 1, stops eps_x 2; outputs"
    assert outputs_check("paper_scale", probe_pairs("aaa", "aaa"))
    assert capsys.readouterr() == (
        f"  parent: {census} a in pairs [1, 2, 3]\n"
        f"  change: {census} a in pairs [1, 2, 3]\n"
        "  outputs equal on both sides in 3/3 pairs\n", "")
    assert not outputs_check("paper_scale", probe_pairs("aaa", "aba"))
    assert capsys.readouterr() == (
        f"  parent: {census} a in pairs [1, 2, 3]\n"
        f"  change: {census} a in pairs [1, 3], b in pairs [2]\n"
        "  outputs equal on both sides in 2/3 pairs\n",
        "bench_pairs: paper_scale change outputs differ between pairs "
        "[1, 3] and [2]\n")
