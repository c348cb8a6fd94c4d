"""Run the benchmark on two git revisions in alternating pairs and compare
their end-to-end metrics.

    python tools/bench_pairs.py BASE CHANGE --pairs N [--workload W ...]
                                [--json PATH]

Exports the two revisions with ``git archive`` as ``parent`` and
``change`` under one temporary directory: ``setup_s`` depends on where a
checkout lies, so both sides lie under one root, at paths of one length.
Pair i (i = 1..N) runs ``bench/run.py --workload W --seed i --seconds S
--trace 0``, S being ``run_seconds`` of ``BENCHMARK.json``, with this
Python in both exports, the parent first in odd pairs and the change
first in even ones, for every workload given (all of ``BENCHMARK.json``
by default).  The last output line of
every run is its result, which must read ``correct: true``; the tool
stops at the first one that does not.

For each workload and each end-to-end metric of ``BENCHMARK.json`` it
prints the parent median, the change median, the parent IQR (the
inclusive quartiles of ``statistics.quantiles``) and in how many pairs
the change was strictly better, by the metric's ``better``.  A change
median worse than the parent's by more than the metric's ``bound``, as a
fraction of the parent median, is marked ``WORSE``, and the exit status
is then 1.  ``--json PATH`` writes ``sides``, ``pairs``, ``summary`` and
``env`` in the layout of the ``BENCH_*.json`` records.

To measure uncommitted work, stage it (``git add -A``) and pass ``$(git
stash create)`` as CHANGE: that commit holds the index and moves no ref.
"""

from __future__ import annotations

import argparse
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


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
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("base", metavar="BASE")
    ap.add_argument("change", metavar="CHANGE")
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--workload", action="append", metavar="W")
    ap.add_argument("--json", metavar="PATH")
    args = ap.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workload or [w["name"] for w in bench["workloads"]]

    record = {"sides": {}, "pairs": {}, "summary": {}, "env": {}}
    worse = False
    with tempfile.TemporaryDirectory(prefix="bench_pairs-") as tmp:
        trees = {side: Path(tmp) / side for side in SIDES}
        commits = {side: export(rev, trees[side])
                   for side, rev in zip(SIDES, (args.base, args.change))}
        for wl in workloads:
            pairs = record["pairs"][wl] = []
            for seed in range(1, args.pairs + 1):
                order = SIDES if seed % 2 else SIDES[::-1]
                pair = {"seed": seed, "first": order[0]}
                for side in order:
                    env, pair[side] = run_once(trees[side], wl, seed,
                                               bench["run_seconds"])
                    record["env"].setdefault(side, env)
                pairs.append(pair)
                print(f"{wl} seed {seed}: pipeline_s parent "
                      f"{pair['parent'].get('pipeline_s')}, change "
                      f"{pair['change'].get('pipeline_s')}", flush=True)
            stats = record["summary"][wl] = summary(pairs,
                                                    bench["end_to_end"])
            print(f"{wl}, {len(pairs)} pairs: metric, parent median, change "
                  "median, parent IQR, change better")
            for name, s in stats.items():
                worse |= s["worse_than_bound"]
                print(f"  {name}: {s['parent_median']:.6g} "
                      f"{s['change_median']:.6g} {s['parent_iqr']:.3g} "
                      f"{s['change_better_pairs']}"
                      + ("  WORSE" if s["worse_than_bound"] else ""))
    record["sides"] = {side: f"commit {commits[side]}, source_digest "
                             f"{record['env'][side]['source_digest']}"
                       for side in SIDES}
    if args.json:
        Path(args.json).write_text(json.dumps(record, indent=2) + "\n")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
