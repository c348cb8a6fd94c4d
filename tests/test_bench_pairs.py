"""The summary of tools/bench_pairs.py on a fixed list of pairs: medians,
inclusive-quartile IQRs, the pairs the change won by each metric's
``better``, and the bound flag; and its extraction of a revision's tree,
which tools/compare_outputs.py and tools/paper_probe.py share."""

import io
import json
import subprocess
import sys
import tarfile
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"
sys.path.insert(0, str(TOOLS))
from bench_pairs import extract, summary  # noqa: E402

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
import bench_pairs, compare_outputs, paper_probe

class Exported(Exception):
    pass

def export(rev, dest):
    raise Exported(rev)

shared = [tool.export is bench_pairs.export
          for tool in (compare_outputs, paper_probe)]
calls = []
for tool, argv in ((compare_outputs, ["BASE"]),
                   (paper_probe, ["--rev", "REV", "paper_scale"])):
    tool.export = export
    try:
        tool.main(argv)
    except Exported as exc:
        calls.append(str(exc))
print(json.dumps([shared, calls, hasattr(compare_outputs, "export_src")]))
"""


def test_the_tools_share_one_export():
    proc = subprocess.run([sys.executable, "-c", SCRIPT], cwd=TOOLS,
                          capture_output=True, text=True, check=True)
    # both take the revision's tree from bench_pairs.export, before any
    # dataset is generated
    assert json.loads(proc.stdout) == [[True, True], ["BASE", "REV"], False]
