"""Run the 28x28 glyph probes of ROADMAP.md and print what each costs.

    python tools/paper_probe.py [--rev REV] [PROBE ...]

Generates the named probes' datasets with ``bench/glyphs.py``, all at
28x28: the paper-scale probe (digits 0 vs 2, seed 11, 12,000 training and
2,000 test images, ``n_axes = 60``), the three-forest probe
(``one_vs_rest = 0,1,2``, seed 12, 9,000 and 2,000 images,
``n_axes = 10``) and the full-shape probe of the opt-in full criterion-4
run (``one_vs_rest = 0,1,2,3,4``, seed 13, 30,000 and 2,000 images,
``n_axes = 120``, ``svd_k = 60``; 11.5 s and 474 MB on a shared 2-vCPU
Intel Xeon host).  With no name it runs the two quick probes, the first
two.  Every other setting is the default.  On each it runs ``python -m meip.cli pipeline``
in a child process with one BLAS thread, on the working tree's ``src`` or,
with ``--rev``, on ``REV:src`` exported by ``bench_pairs.export`` as
``tools/compare_outputs.py`` does.  Per probe it prints the wall seconds
of the child, the lines of its ``timing.txt``, the child's peak RSS (from
``os.wait4``), the total ``state_evals`` of ``axes_provenance.json``, its
axes per stopping rule (``converged_by``) and its zero-progress axes (no
accepted step, ``iterations`` 0), the test
accuracy, and a SHA-256 digest over every output but
``timing.txt``, which is equal on two trees exactly when their outputs
are byte-identical.  The datasets are generated in a spawned process, so
this one stays small: Linux counts the memory high-water mark of the
process that starts a child in the child's peak RSS.
"""

from __future__ import annotations

import argparse
import collections
import json
import multiprocessing
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

# compare_outputs puts bench/ and the working tree's src on sys.path and
# pins the BLAS threads before numpy is imported
from compare_outputs import ROOT, stops_text

from bench_pairs import export  # tools/bench_pairs.py
import glyphs  # bench/glyphs.py
import run  # bench/run.py

# name -> (seed, digits, config lines naming them and the other settings,
# training and test images)
PROBES = {
    "paper_scale": (11, (0, 2), ("class_pairs = 0:2", "n_axes = 60"),
                    12000, 2000),
    "three_forest": (12, (0, 1, 2), ("one_vs_rest = 0,1,2", "n_axes = 10"),
                     9000, 2000),
    "full_shape": (13, (0, 1, 2, 3, 4), ("one_vs_rest = 0,1,2,3,4",
                                         "n_axes = 120", "svd_k = 60"),
                   30000, 2000),
}
QUICK = ("paper_scale", "three_forest")  # the probes run when none is named
SIDE = 28


def make_probe(name: str, dest: Path) -> Path:
    """Write the probe's IDX files and ``run.cfg`` under ``dest``; returns
    the config path."""
    import numpy as np  # here, so that only the spawned process loads it

    seed, digits, settings, n_train, n_test = PROBES[name]
    rng = np.random.default_rng(seed)
    bank = glyphs.make_bank(rng, SIDE)
    paths = glyphs.write_dataset(dest, rng, bank, digits, n_train, n_test)
    lines = [f"n1 = {SIDE}", f"n2 = {SIDE}", *settings]
    lines += [f"{key} = {p.name}" for key, p in paths.items()]
    cfg = dest / "run.cfg"
    cfg.write_text("\n".join(lines) + "\n")
    return cfg


def run_child(argv: list[str], env: dict, log: Path) -> tuple[int, float,
                                                             float]:
    """(exit code, wall seconds, peak RSS in MB) of ``argv`` run to its end
    with ``env``; its stdout and stderr go to ``log``.  The peak is at
    least the peak RSS of this process when it starts the child."""
    with open(log, "wb") as f:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, stdout=f, stderr=f)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    # tell Popen the child is reaped; Linux gives ru_maxrss in KiB
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0])
    parser.add_argument("--rev", help="run REV:src instead of the working "
                        "tree's src")
    parser.add_argument("probes", nargs="*", metavar="PROBE",
                        help=f"one of {', '.join(PROBES)} (default: "
                        f"{' '.join(QUICK)})")
    args = parser.parse_args(argv)
    names = args.probes or list(QUICK)
    for name in names:
        if name not in PROBES:
            parser.error(f"unknown probe {name!r}")
    with tempfile.TemporaryDirectory(prefix="paper_probe-") as tmp:
        tmp = Path(tmp)
        src = ROOT / "src"
        if args.rev:
            export(args.rev, tmp / "rev")
            src = tmp / "rev" / "src"
        env = {**os.environ, "PYTHONPATH": str(src),
               "OPENBLAS_NUM_THREADS": "1"}
        print(f"meip from {args.rev + ':src' if args.rev else src}")
        with multiprocessing.get_context("spawn").Pool(1) as pool:
            cfgs = pool.starmap(make_probe,
                                [(name, tmp / name) for name in names])
        for name, cfg in zip(names, cfgs):
            out = tmp / name / "out"
            code, wall, rss = run_child(
                [sys.executable, "-m", "meip.cli", "pipeline", "--config",
                 str(cfg), "--out", str(out)], env, tmp / f"{name}.log")
            if code:
                sys.stderr.write((tmp / f"{name}.log").read_text())
                print(f"paper_probe: {name} exited with {code}",
                      file=sys.stderr)
                return 1
            timing = (out / "timing.txt").read_text().splitlines()
            # the one output that differs from run to run
            (out / "timing.txt").unlink()
            records = json.loads((out / "axes_provenance.json").read_text())
            report = json.loads((out / "report.json").read_text())
            print(f"{name}: wall {wall:.2f}s, peak RSS {rss:.1f} MB, "
                  f"state_evals {sum(r['state_evals'] for r in records)}, "
                  "stops: " + stops_text(collections.Counter(
                      r["converged_by"] for r in records)) + ", "
                  "zero-progress axes "
                  f"{sum(r['iterations'] == 0 for r in records)}, "
                  "test accuracy "
                  f"{report['test_confusion']['accuracy']:.4f}")
            print(f"  timing: {', '.join(timing)}")
            print(f"  outputs sha256 (without timing.txt): "
                  f"{run.tree_digest(out)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
