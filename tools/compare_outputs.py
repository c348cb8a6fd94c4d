"""Compare meip outputs of the working tree with those of a git revision,
file by file.

    python tools/compare_outputs.py BASE_REV

Exports ``BASE_REV:src`` with ``git archive`` and generates datasets
through ``bench/run.py``'s own ``setup``: the seed-7 and seed-31 datasets
of the ``forest_pair`` and ``ovr_shallow`` benchmark workloads (24
datasets), and the seed-7 dataset of ``classify_bulk`` (28x28 images and
a 60-axis bundle).  On each dataset and side it runs ``python -m meip.cli
pipeline``, or for ``classify_bulk`` ``train --bundle`` then ``eval
--split test``, each call in its own process with one BLAS thread.  Every
output file but ``timing.txt`` must be byte-identical; for a JSON file
that differs, the top-level keys that differ are printed (for a list of
records such as ``axes_provenance.json``, the differing records with
their keys, and the two lengths if they differ), for any other file the
first differing line of both sides, truncated, with the number of lines
only in each side, and for a report also both sides' test accuracy.  The
last line counts the datasets whose test accuracy is better, worse and
equal in the working tree, with the mean change.  Exits 1 on any
difference.
"""

from __future__ import annotations

import difflib
import io
import itertools
import json
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# bench/glyphs.py writes the datasets with the working tree's meip
sys.path[:0] = [str(ROOT / "bench"), str(ROOT / "src")]
# run.py pins the BLAS threads to 1 in os.environ, before numpy is imported
import run  # noqa: E402

# workload -> seeds of its datasets
DATASETS = {"forest_pair": (7, 31), "ovr_shallow": (7, 31),
            "classify_bulk": (7,)}
SKIPPED = {"timing.txt"}


def export_src(rev: str, dest: Path) -> None:
    tar = subprocess.run(["git", "-C", str(ROOT), "archive", rev, "src"],
                         check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as t:
        t.extractall(dest, filter="data")


def run_meip(src: Path, cfg: Path, out: Path, bundle: bool) -> None:
    """The workload's commands: ``pipeline``, or with a generated bundle
    ``train --bundle`` and ``eval --split test``."""
    env = {**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": "1"}
    common = ["--config", str(cfg), "--out", str(out)]
    steps = ([["train", "--bundle", str(cfg.parent / "bundle.txt")],
              ["eval", "--split", "test"]] if bundle else [["pipeline"]])
    for step in steps:
        proc = subprocess.run([sys.executable, "-m", "meip.cli", *step,
                               *common], env=env, capture_output=True,
                              text=True)
        if proc.returncode:
            sys.exit(f"compare_outputs: {src} failed on {cfg}:\n"
                     f"{proc.stderr}")


def key_diff(da: dict, db: dict) -> str:
    keys = sorted(k for k in da.keys() | db.keys() if da.get(k, ...) !=
                  db.get(k, ...))
    return "keys " + ", ".join(
        k + ("" if k in da and k in db else
             " (base only)" if k in da else " (working tree only)")
        for k in keys)


def json_key_diff(a: bytes, b: bytes) -> str:
    try:
        da, db = json.loads(a), json.loads(b)
    except ValueError:
        return "not JSON on both sides"
    if isinstance(da, dict) and isinstance(db, dict):
        return key_diff(da, db)
    if not (isinstance(da, list) and isinstance(db, list)
            and all(isinstance(r, dict) for r in da + db)):
        return ("top level is neither an object nor a list of objects on "
                "both sides")
    parts = [f"record {i} {key_diff(ra, rb)}"
             for i, (ra, rb) in enumerate(zip(da, db)) if ra != rb]
    if len(da) != len(db):
        parts.append(f"{len(da)} records in the base, {len(db)} in the "
                     "working tree")
    return "; ".join(parts)


def line_diff(a: bytes, b: bytes, width: int = 60) -> str:
    """The first line, with its ending, where two differing files differ,
    each side shown up to ``width`` characters, then the number of lines
    only in each file by a line-level diff of the whole files."""
    la, lb = a.splitlines(keepends=True), b.splitlines(keepends=True)
    lineno, (x, y) = next((i, p) for i, p in enumerate(
        itertools.zip_longest(la, lb), start=1) if p[0] != p[1])

    def show(line: bytes | None) -> str:
        if line is None:
            return "end of file"
        text = line.decode(errors="replace")
        return repr(text[:width]) + ("..." if len(text) > width else "")

    only_a = only_b = 0
    for tag, i1, i2, j1, j2 in difflib.SequenceMatcher(
            None, la, lb, autojunk=False).get_opcodes():
        if tag != "equal":
            only_a, only_b = only_a + i2 - i1, only_b + j2 - j1
    return (f"line {lineno}: {show(x)} (base), {show(y)} (working tree); "
            f"{only_a} line{'s' * (only_a != 1)} only in the base, "
            f"{only_b} only in the working tree")


def report_of(out: Path) -> Path:
    """``report.json`` of a pipeline, else ``report_test.json`` of an eval."""
    path = out / "report.json"
    return path if path.is_file() else out / "report_test.json"


def accuracy_of(out: Path) -> float:
    report = json.loads(report_of(out).read_text())
    return report["test_confusion"]["accuracy"]


def compare(base: Path, head: Path, name: str) -> tuple[int, list[str]]:
    """(files compared, difference lines) of one dataset's two outputs."""
    files = {p.relative_to(d) for d in (base, head) for p in d.rglob("*")
             if p.is_file() and p.name not in SKIPPED}
    lines = []
    for rel in sorted(files):
        a, b = base / rel, head / rel
        if not a.is_file() or not b.is_file():
            side = "base" if a.is_file() else "working tree"
            lines.append(f"{name}/{rel}: only in the {side}")
            continue
        x, y = a.read_bytes(), b.read_bytes()
        if x != y:
            detail = ": " + (json_key_diff(x, y) if rel.suffix == ".json"
                             else line_diff(x, y))
            if base / rel == report_of(base):
                detail += (f"; test accuracy {accuracy_of(base):.4f} "
                           f"(base), {accuracy_of(head):.4f} "
                           "(working tree)")
            lines.append(f"{name}/{rel} differs{detail}")
    return len(files), lines


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    rev = argv[0]
    with tempfile.TemporaryDirectory(prefix="compare_outputs-") as tmp:
        tmp = Path(tmp)
        export_src(rev, tmp / "base")
        sides = {"base": tmp / "base" / "src", "head": ROOT / "src"}
        total, diffs, deltas = 0, [], []
        for wl, seeds in DATASETS.items():
            workload = run.WORKLOADS[wl]
            for seed in seeds:
                data = tmp / "data" / wl / f"seed{seed}"
                for i, cfg in enumerate(run.setup(workload, seed, data)):
                    outs = {side: tmp / side / "out" / wl / f"seed{seed}" /
                            str(i) for side in sides}
                    for side, src in sides.items():
                        run_meip(src, cfg, outs[side],
                                 bool(workload.bundle_axes))
                    n, lines = compare(outs["base"], outs["head"],
                                       f"{wl}/seed{seed}/data{i}")
                    total += n
                    diffs += lines
                    deltas.append(accuracy_of(outs["head"])
                                  - accuracy_of(outs["base"]))
    for line in diffs:
        print(line)
    print(f"{rev} vs working tree: {len(deltas)} datasets, {total} files "
          f"(without {', '.join(sorted(SKIPPED))}), {len(diffs)} differ")
    print(f"test accuracy, working tree vs {rev}: "
          f"{sum(d > 0 for d in deltas)} better, "
          f"{sum(d < 0 for d in deltas)} worse, "
          f"{sum(d == 0 for d in deltas)} equal, "
          f"mean change {sum(deltas) / len(deltas):+.4f}")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
