"""Run the benchmark or the 28x28 glyph probes on two git revisions in
alternating pairs and compare their end-to-end metrics.

    python tools/bench_pairs.py BASE CHANGE --pairs N [--workload W ...]
                                [--json PATH]

Exports the two revisions with ``git archive`` as ``parent`` and
``change`` under one temporary directory: ``setup_s`` depends on where a
checkout lies, so both sides lie under one root, at paths of one length.
Pair i (i = 1..N) runs every workload given (all of ``BENCHMARK.json`` by
default) on both sides, the parent first in odd pairs.  Any other
workload name, or fewer than 1 pair, fails at parse time.

A benchmark workload runs ``bench/run.py --workload W --seed i --seconds
S --trace 0``, S being ``run_seconds`` of ``BENCHMARK.json``; the last
output line of a run, its result, must read ``correct: true``.  A probe
of ``PROBES`` runs ``python -m meip.cli pipeline`` with one BLAS thread
on a dataset written once, in a spawned process, by this tree's
``bench/glyphs.py``.  Its record holds the child's wall seconds and peak
RSS (``os.wait4``; the peak includes that of this process, which
therefore never loads numpy), ``train_axes`` of ``timing.txt``, the test
accuracy, the census of ``axes_provenance.json`` and the
``run.tree_digest`` of every output but ``timing.txt``.  A run that
fails stops the tool.

Per workload and end-to-end metric it prints the parent median, the
change median, the parent IQR (inclusive quartiles) and in how many pairs
the change was strictly better, by the metric's ``better``, and marks
``WORSE`` a change median worse than the parent's by more than the
metric's ``bound``, a fraction of the parent median.  A probe's
``wall_s`` and ``train_axes_s`` take the bound of ``pipeline_s``, and
``state_evals`` is never marked.  It exits 1 on ``WORSE`` or when a
probe's digests differ between the pairs of one side.  ``--json PATH``
writes ``sides``, ``pairs``, ``summary`` and ``env``, the layout of the
``BENCH_*.json`` records.

To measure uncommitted work, stage it (``git add -A``) and pass ``$(git
stash create)`` as CHANGE: that commit holds the index and moves no ref.
"""

from __future__ import annotations

import argparse
import collections
import io
import json
import multiprocessing
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# bench/glyphs.py writes the probe datasets with this tree's meip, and
# bench/run.py's tree_digest hashes the outputs
sys.path[:0] = [str(ROOT / "bench"), str(ROOT / "src")]
SIDES = ("parent", "change")

# name -> (seed, digits, config lines naming them and the other settings,
# training and test images), all at 28x28: the paper's 0-vs-2 run, three
# one-vs-rest forests, and the shape of its five-class run
PROBES = {
    "paper_scale": (11, (0, 2), ("class_pairs = 0:2", "n_axes = 60"),
                    12000, 2000),
    "three_forest": (12, (0, 1, 2), ("one_vs_rest = 0,1,2", "n_axes = 10"),
                     9000, 2000),
    "full_shape": (13, (0, 1, 2, 3, 4), ("one_vs_rest = 0,1,2,3,4",
                                         "n_axes = 120", "svd_k = 60"),
                   30000, 2000),
}
SIDE = 28


def extract(tar: bytes, dest: Path) -> None:
    """Unpack the tar archive ``tar`` into ``dest``, through the "data"
    filter where this Python has it (from 3.10.12 and 3.11.4 on)."""
    with tarfile.open(fileobj=io.BytesIO(tar)) as t:
        t.extractall(dest, **({"filter": "data"}
                              if hasattr(tarfile, "data_filter") else {}))


def export(rev: str, dest: Path) -> str:
    """Extract the tree of ``rev`` into ``dest``; returns its commit."""
    extract(subprocess.run(["git", "-C", str(ROOT), "archive", rev],
                           check=True, capture_output=True).stdout, dest)
    return subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--short",
                           f"{rev}^{{commit}}"], check=True,
                          capture_output=True, text=True).stdout.strip()


def run_once(tree: Path, workload: str, seed: int,
             seconds: float) -> tuple[dict, dict]:
    """One benchmark run in ``tree``: its environment and its result, as
    ``correct``, ``attempted``, ``failed`` and the metric values."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    try:
        env, result = json.loads(lines[-2])["env"], json.loads(lines[-1])
    except (IndexError, KeyError, ValueError):
        env, result = None, {}
    if proc.returncode or not result.get("correct"):
        sys.exit(f"bench_pairs: {tree.name} {workload} seed {seed} is not "
                 f"correct (exit {proc.returncode}):\n{proc.stderr[-2000:]}")
    return env, {"correct": True, "attempted": result["attempted"],
                 "failed": result["failed"],
                 **{k: v["value"] for k, v in result["metrics"].items()}}


def make_probe(name: str, dest: Path) -> Path:
    """Write the probe's IDX files and ``run.cfg`` under ``dest``; returns
    the config path."""
    import numpy as np  # here, so that only the spawned process loads it
    import glyphs  # bench/glyphs.py

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


def census(records: list[dict]) -> tuple[int, int, collections.Counter]:
    """(state evaluations, zero-progress axes, axes per ``converged_by``)
    of the records of an ``axes_provenance.json``."""
    return (sum(r["state_evals"] for r in records),
            sum(r["iterations"] == 0 for r in records),
            collections.Counter(r["converged_by"] for r in records))


def stops_text(counts: dict) -> str:
    """Axes per stopping rule, as printed."""
    text = " + ".join(f"{rule} {n}" for rule, n in sorted(counts.items()))
    return text or "no axes"


def probe_record(out: Path, wall: float, rss: float) -> dict:
    """A probe run's record from its output directory ``out``, the child's
    wall seconds and peak RSS in MB; deletes ``timing.txt``, the one output
    that differs from run to run, after reading it."""
    from run import tree_digest  # bench/run.py, which refuses to follow numpy

    timing = dict(line.split()
                  for line in (out / "timing.txt").read_text().splitlines())
    (out / "timing.txt").unlink()
    evals, zero, stops = census(
        json.loads((out / "axes_provenance.json").read_text()))
    report = json.loads((out / "report.json").read_text())
    return {"wall_s": wall,
            "train_axes_s": float(timing["train_axes"].rstrip("s")),
            "peak_rss_mb": rss,
            "test_accuracy": report["test_confusion"]["accuracy"],
            "state_evals": evals, "zero_progress_axes": zero,
            "stops": dict(sorted(stops.items())),
            "digest": tree_digest(out)}


def run_probe(tree: Path, name: str, cfg: Path, pair: int) -> dict:
    """A probe run on ``tree``'s meip; output and log go beside ``cfg``."""
    out = cfg.parent / f"{tree.name}-{pair}"
    log = out.with_suffix(".log")
    code, wall, rss = run_child(
        [sys.executable, "-m", "meip.cli", "pipeline", "--config", str(cfg),
         "--out", str(out)], {**os.environ, "PYTHONPATH": str(tree / "src"),
                              "OPENBLAS_NUM_THREADS": "1"}, log)
    if code:
        sys.exit(f"bench_pairs: {tree.name} {name} pair {pair} exited with "
                 f"{code}:\n{log.read_text()[-2000:]}")
    return probe_record(out, wall, rss)


def probe_metrics(end_to_end: list[dict]) -> list[dict]:
    """A probe's metrics, with the bounds of ``BENCHMARK.json``."""
    m = {e["name"]: e for e in end_to_end}
    return [{**m["pipeline_s"], "name": "wall_s"},
            {**m["pipeline_s"], "name": "train_axes_s"},
            m["peak_rss_mb"], m["test_accuracy"],
            {"name": "state_evals", "better": "lower",
             "bound": float("inf")}]


def outputs_check(name: str, pairs: list[dict]) -> bool:
    """Print each side's census of probe ``name`` in its first pair and the
    pairs of each outputs digest, and in how many pairs both sides' are
    equal; False when the pairs of one side differ, named on stderr."""
    same = True
    for side in SIDES:
        groups = collections.defaultdict(list)
        for p in pairs:
            groups[p[side]["digest"]].append(p["pair"])
        run = pairs[0][side]
        print(f"  {side}: state_evals {run['state_evals']}, zero-progress "
              f"axes {run['zero_progress_axes']}, stops "
              f"{stops_text(run['stops'])}; outputs " + ", ".join(
                  f"{d[:16]} in pairs {w}" for d, w in groups.items()))
        if len(groups) > 1:
            same = False
            print(f"bench_pairs: {name} {side} outputs differ between pairs "
                  + " and ".join(map(str, groups.values())), file=sys.stderr)
    equal = sum(p["parent"]["digest"] == p["change"]["digest"] for p in pairs)
    print(f"  outputs equal on both sides in {equal}/{len(pairs)} pairs")
    return same


def summary(pairs: list[dict], metrics: list[dict]) -> dict:
    """Per end-to-end metric of ``pairs`` (records with a ``parent`` and a
    ``change`` result): both medians and IQRs, the pairs the change won,
    the ratio of the medians and whether the change median is worse than
    the parent's by more than the metric's bound."""
    out = {}
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        both = [(p["parent"][name], p["change"][name]) for p in pairs
                if name in p["parent"] and name in p["change"]]
        if not both:
            continue
        stats = {}
        for side, values in zip(SIDES, zip(*both)):
            q = (statistics.quantiles(values, n=4, method="inclusive")
                 if len(values) > 1 else [values[0]] * 3)
            stats[f"{side}_median"] = statistics.median(values)
            stats[f"{side}_iqr"] = q[2] - q[0]
        won = sum(c < p if lower else c > p for p, c in both)
        base, change = stats["parent_median"], stats["change_median"]
        loss = (change - base if lower else base - change) / abs(base or 1)
        out[name] = {**stats, "change_better_pairs": f"{won}/{len(both)}",
                     "ratio_of_medians": change / base if base else None,
                     "worse_than_bound": loss > m["bound"]}
    return out


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("base", metavar="BASE")
    ap.add_argument("change", metavar="CHANGE")
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--workload", action="append", choices=[
        *(w["name"] for w in bench["workloads"]), *PROBES])
    ap.add_argument("--json", metavar="PATH")
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("argument --pairs: at least 1 is needed")
    workloads = args.workload or [w["name"] for w in bench["workloads"]]

    record = {"sides": {}, "pairs": {}, "summary": {}, "env": {}}
    failed = False
    with tempfile.TemporaryDirectory(prefix="bench_pairs-") as tmp:
        tmp = Path(tmp)
        for side, rev in zip(SIDES, (args.base, args.change)):
            record["sides"][side] = f"commit {export(rev, tmp / side)}"
        probes = [wl for wl in workloads if wl in PROBES]
        if probes:
            with multiprocessing.get_context("spawn").Pool(1) as pool:
                cfgs = dict(zip(probes, pool.starmap(
                    make_probe, [(wl, tmp / "data" / wl) for wl in probes])))
        for wl in workloads:
            pairs = record["pairs"][wl] = []
            key, shown = (("pair", "train_axes_s") if wl in PROBES
                          else ("seed", "pipeline_s"))
            for i in range(1, args.pairs + 1):
                order = SIDES if i % 2 else SIDES[::-1]
                pair = {key: i, "first": order[0]}
                for side in order:
                    if wl in PROBES:
                        pair[side] = run_probe(tmp / side, wl, cfgs[wl], i)
                        continue
                    env, pair[side] = run_once(tmp / side, wl, i,
                                               bench["run_seconds"])
                    record["env"].setdefault(side, env)
                pairs.append(pair)
                print(f"{wl} {key} {i}: {shown} parent "
                      f"{pair['parent'].get(shown)}, change "
                      f"{pair['change'].get(shown)}", flush=True)
            stats = record["summary"][wl] = summary(
                pairs, probe_metrics(bench["end_to_end"]) if wl in PROBES
                else bench["end_to_end"])
            print(f"{wl}, {len(pairs)} pairs: metric, parent median, change "
                  "median, parent IQR, change better")
            for name, s in stats.items():
                failed |= s["worse_than_bound"]
                print(f"  {name}: {s['parent_median']:.6g} "
                      f"{s['change_median']:.6g} {s['parent_iqr']:.3g} "
                      f"{s['change_better_pairs']}"
                      + ("  WORSE" if s["worse_than_bound"] else ""))
            if wl in PROBES:
                failed |= not outputs_check(wl, pairs)
    for side, env in record["env"].items():
        record["sides"][side] += f", source_digest {env['source_digest']}"
    if args.json:
        Path(args.json).write_text(json.dumps(record, indent=2) + "\n")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
