"""Compare ``meip pipeline`` outputs of the working tree with those of a
git revision, file by file.

    python tools/compare_outputs.py BASE_REV

Exports ``BASE_REV:src`` with ``git archive``, generates the seed-7 and
seed-31 datasets of the ``forest_pair`` and ``ovr_shallow`` benchmark
workloads (24 datasets) through ``bench/run.py``'s own ``setup``, and runs
``python -m meip.cli pipeline`` once per dataset and side, each in its own
process with one BLAS thread.  Every output file but ``timing.txt`` must be
byte-identical; for a JSON file that differs, the top-level keys that
differ are printed, and for a ``report.json`` also both sides' test
accuracy.  The last line counts the datasets whose test accuracy is
better, worse and equal in the working tree, with the mean change.  Exits
1 on any difference.
"""

from __future__ import annotations

import io
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

WORKLOADS = ("forest_pair", "ovr_shallow")
SEEDS = (7, 31)
SKIPPED = {"timing.txt"}


def export_src(rev: str, dest: Path) -> None:
    tar = subprocess.run(["git", "-C", str(ROOT), "archive", rev, "src"],
                         check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as t:
        t.extractall(dest, filter="data")


def run_pipeline(src: Path, cfg: Path, out: Path) -> None:
    env = {**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": "1"}
    proc = subprocess.run(
        [sys.executable, "-m", "meip.cli", "pipeline", "--config", str(cfg),
         "--out", str(out)], env=env, capture_output=True, text=True)
    if proc.returncode:
        sys.exit(f"compare_outputs: {src} failed on {cfg}:\n{proc.stderr}")


def json_key_diff(a: bytes, b: bytes) -> str:
    try:
        da, db = json.loads(a), json.loads(b)
    except ValueError:
        return "not JSON on both sides"
    if not (isinstance(da, dict) and isinstance(db, dict)):
        return "top level is not an object on both sides"
    keys = sorted(k for k in da.keys() | db.keys() if da.get(k, ...) !=
                  db.get(k, ...))
    return "keys " + ", ".join(
        k + ("" if k in da and k in db else
             " (base only)" if k in da else " (working tree only)")
        for k in keys)


def accuracy_of(out: Path) -> float:
    report = json.loads((out / "report.json").read_text())
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
            detail = f": {json_key_diff(x, y)}" if rel.suffix == ".json" else ""
            if rel == Path("report.json"):
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
        for wl in WORKLOADS:
            for seed in SEEDS:
                data = tmp / "data" / wl / f"seed{seed}"
                for i, cfg in enumerate(run.setup(run.WORKLOADS[wl], seed,
                                                  data)):
                    outs = {side: tmp / side / "out" / wl / f"seed{seed}" /
                            str(i) for side in sides}
                    for side, src in sides.items():
                        run_pipeline(src, cfg, outs[side])
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
