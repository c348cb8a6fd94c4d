"""Compare meip outputs of the working tree with those of a git revision,
file by file.

    python tools/compare_outputs.py BASE_REV

Exports ``BASE_REV`` with ``bench_pairs.export`` and generates datasets
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
only in each side, and for a report also both sides' test accuracy.
Each differing file is then marked as differing in layout or in numbers
only (the text between the numbers matches on every line); for the
latter the count of changed integers and the largest change, divided by
the largest number on its line, are printed.  Summary lines count the
differing files of each kind and the datasets whose test accuracy is
better, worse and equal in the working tree, with the mean change.  Where
both sides wrote ``axes_provenance.json``, three more give the total
``state_evals`` of each side, the zero-progress axes of each side (those
with no accepted step, ``iterations`` 0) and the median ratio of
``j_final``, working tree over base, of the axes matched by forest and
index, in total and per workload, and a fourth counts each side's axes
by their stopping rule (``converged_by``).  One more line gives the line
count of the Python files in ``src/meip`` of both sides, as ``wc -l``
counts them, for a change that means to shrink the code.

After the fresh runs of the first dataset of each workload, the working
tree runs once more into its existing output directory, and every file
but ``timing.txt`` whose bytes that rerun changed (or that only one of
the two runs left) is printed.  Exits 1 on any difference, between the
sides or between a run and its rerun.
"""

from __future__ import annotations

import collections
import difflib
import itertools
import json
import os
import re
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

# bench_pairs puts bench/ and the working tree's src on sys.path; run.py
# pins the BLAS threads to 1 in os.environ, before numpy is imported
from bench_pairs import ROOT, census, export, stops_text
import run

# workload -> seeds of its datasets
DATASETS = {"forest_pair": (7, 31), "ovr_shallow": (7, 31),
            "classify_bulk": (7,)}
SKIPPED = {"timing.txt"}


def src_lines(src: Path) -> int:
    """Lines of the Python files in ``src/meip``."""
    return sum(p.read_bytes().count(b"\n")
               for p in (Path(src) / "meip").glob("*.py"))


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


NUMBER = re.compile(rb"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def number_drift(a: bytes, b: bytes) -> tuple[int, float] | None:
    """(integers changed, largest line-scaled change) when two files differ
    only in the numbers on their lines, else None.

    Each line is split on numbers; the text between them must match on
    every line.  A number pair counts as a changed integer when their text
    differs and either side is written without a point or exponent.  A
    change is scaled by the largest magnitude among both lines' numbers.
    """
    la, lb = a.splitlines(keepends=True), b.splitlines(keepends=True)
    if len(la) != len(lb):
        return None
    integers, drift = 0, 0.0
    for x, y in zip(la, lb):
        if NUMBER.split(x) != NUMBER.split(y):
            return None
        nx, ny = NUMBER.findall(x), NUMBER.findall(y)
        # a line of zeros changes by 0, whatever its scale
        scale = max((abs(float(t)) for t in nx + ny), default=0.0) or 1.0
        for p, q in zip(nx, ny):
            if p != q:
                integers += any(t.lstrip(b"+-").isdigit() for t in (p, q))
                drift = max(drift, abs(float(p) - float(q)) / scale)
    return integers, drift


def drift_note(drift: tuple[int, float] | None) -> str:
    """The ``number_drift`` of a differing file, as printed."""
    if drift is None:
        return "; layout differs"
    k, d = drift
    return (f"; numbers only, {k} integer{'s' * (k != 1)} changed, at most "
            f"{d:.1e} of the line's largest")


def provenance_stats(a: bytes, b: bytes) -> tuple:
    """(state evaluations of the base, of the working tree, zero-progress
    axes of the base, of the working tree, ``j_final`` ratios working tree
    / base, axes per ``converged_by`` of the base, of the working tree) of
    two ``axes_provenance.json`` files; the ratios pair the i-th axis of a
    forest on both sides, forests in name order, and skip a base axis
    whose ``j_final`` is 0."""
    da, db = json.loads(a), json.loads(b)

    def j_by_forest(records: list) -> dict:
        out = {}
        for r in records:
            out.setdefault(r["forest"], []).append(r["j_final"])
        return out

    ja, jb = j_by_forest(da), j_by_forest(db)
    ratios = [y / x for forest in sorted(ja.keys() & jb.keys())
              for x, y in zip(ja[forest], jb[forest]) if x]
    (evals_a, zero_a, stops_a), (evals_b, zero_b, stops_b) = map(
        census, (da, db))
    return evals_a, evals_b, zero_a, zero_b, ratios, stops_a, stops_b


def median_text(ratios: list[float]) -> str:
    if not ratios:
        return "no matched axes"
    return (f"{statistics.median(ratios):.4f} over {len(ratios)} "
            + ("axis" if len(ratios) == 1 else "axes"))


def report_of(out: Path) -> Path:
    """``report.json`` of a pipeline, else ``report_test.json`` of an eval."""
    path = out / "report.json"
    return path if path.is_file() else out / "report_test.json"


def accuracy_of(out: Path) -> float:
    report = json.loads(report_of(out).read_text())
    return report["test_confusion"]["accuracy"]


def snapshot(out: Path) -> dict:
    """The bytes of every output file under ``out`` but the skipped ones."""
    return {p.relative_to(out): p.read_bytes() for p in out.rglob("*")
            if p.is_file() and p.name not in SKIPPED}


def compare(base: Path, head: Path, name: str,
            drifts: list) -> tuple[int, list[str]]:
    """(files compared, difference lines) of one dataset's two outputs;
    appends the ``number_drift`` of each file that differs on both sides
    to ``drifts``."""
    a, b = snapshot(base), snapshot(head)
    files = a.keys() | b.keys()
    lines = []
    for rel in sorted(files):
        if rel not in a or rel not in b:
            side = "base" if rel in a else "working tree"
            lines.append(f"{name}/{rel}: only in the {side}")
            continue
        x, y = a[rel], b[rel]
        if x != y:
            drifts.append(number_drift(x, y))
            detail = ": " + (json_key_diff(x, y) if rel.suffix == ".json"
                             else line_diff(x, y)) + drift_note(drifts[-1])
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
        export(rev, tmp / "base")
        sides = {"base": tmp / "base" / "src", "head": ROOT / "src"}
        src_sizes = [src_lines(src) for src in sides.values()]
        total, diffs, deltas, drifts = 0, [], [], []
        rerun_files, rerun_diffs = 0, []
        # workload -> [base state evaluations, working tree's, base
        # zero-progress axes, working tree's, j ratios, base stopping rule
        # counts, working tree's]
        axes = {}
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
                    name = f"{wl}/seed{seed}/data{i}"
                    n, lines = compare(outs["base"], outs["head"], name,
                                       drifts)
                    total += n
                    diffs += lines
                    deltas.append(accuracy_of(outs["head"])
                                  - accuracy_of(outs["base"]))
                    prov = [outs[side] / "axes_provenance.json"
                            for side in sides]
                    if all(p.is_file() for p in prov):
                        stats = provenance_stats(
                            *(p.read_bytes() for p in prov))
                        acc = axes.setdefault(wl, [
                            0, 0, 0, 0, [], collections.Counter(),
                            collections.Counter()])
                        for k, value in enumerate(stats):
                            acc[k] += value
                    if seed == seeds[0] and i == 0:
                        before = snapshot(outs["head"])
                        run_meip(sides["head"], cfg, outs["head"],
                                 bool(workload.bundle_axes))
                        after = snapshot(outs["head"])
                        rerun_files += len(before.keys() | after.keys())
                        rerun_diffs += [
                            f"{name}/{rel}: changed by the rerun"
                            for rel in sorted(before.keys() | after.keys())
                            if before.get(rel) != after.get(rel)]
    for line in diffs + rerun_diffs:
        print(line)
    print(f"{rev} vs working tree: {len(deltas)} datasets, {total} files "
          f"(without {', '.join(sorted(SKIPPED))}), {len(diffs)} differ")
    print(f"src/meip lines, {rev} vs working tree: "
          f"{src_sizes[0]} vs {src_sizes[1]}")
    numeric = [d for d in drifts if d is not None]
    print(f"of the files on both sides that differ: {len(numeric)} in "
          f"numbers only ({sum(k > 0 for k, _ in numeric)} with an integer "
          f"changed, at most {max((d for _, d in numeric), default=0.0):.1e}"
          f" of the line's largest), {len(drifts) - len(numeric)} in layout")
    print(f"test accuracy, working tree vs {rev}: "
          f"{sum(d > 0 for d in deltas)} better, "
          f"{sum(d < 0 for d in deltas)} worse, "
          f"{sum(d == 0 for d in deltas)} equal, "
          f"mean change {sum(deltas) / len(deltas):+.4f}")
    if axes:
        for what, k in (("state evaluations", 0),
                        ("zero-progress axes (no accepted step)", 2)):
            print(f"{what}, {rev} vs working tree: "
                  f"{sum(a[k] for a in axes.values())} vs "
                  f"{sum(a[k + 1] for a in axes.values())} ("
                  + ", ".join(f"{wl} {a[k]} vs {a[k + 1]}"
                              for wl, a in axes.items()) + ")")
        print(f"stopping rules, {rev} vs working tree: "
              + " vs ".join(stops_text(sum((a[k] for a in axes.values()),
                                           collections.Counter()))
                            for k in (5, 6)) + " ("
              + ", ".join(f"{wl} {stops_text(a[5])} vs {stops_text(a[6])}"
                          for wl, a in axes.items()) + ")")
        ratios = [r for a in axes.values() for r in a[4]]
        print("median j_final ratio, working tree / "
              f"{rev}: {median_text(ratios)} ("
              + ", ".join(f"{wl} {median_text(a[4])}"
                          for wl, a in axes.items()) + ")")
    print(f"working tree rerun into its existing output directory: "
          f"{len(DATASETS)} datasets, {rerun_files} files (without "
          f"{', '.join(sorted(SKIPPED))}), {len(rerun_diffs)} changed")
    return 1 if diffs or rerun_diffs else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
