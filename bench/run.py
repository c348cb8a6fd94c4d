"""meip benchmark: seeded synthetic glyphs driven through the meip CLI.

    python3 bench/run.py --workload forest_pair --seed 1 --seconds 30 --trace 0

Each invocation is one fresh process running one workload.  It generates
its inputs from ``--seed`` (set-up, timed five times), then calls
``meip.cli.main`` in-process, operation after operation, for about
``--seconds`` seconds, checking every command's exit code and outputs.
``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs a fixed
list of operations with every meip layer wrapped from outside
(``tracer.py``) and prints per-layer metrics.  The last line of standard
output is the JSON result.  See NOTES.md for the workloads and metrics.
"""

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

# OpenBLAS reads its thread count once, when numpy loads it.
if "numpy" in sys.modules:
    sys.exit("run.py: numpy was imported before the BLAS thread pins were set")
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
WORK = ROOT / ".bench_work"
SETUP_REPS = 5
# About the time of one SpeedProbe reading on the reference host (2 vCPUs
# of a shared x86-64 host, one BLAS thread) when that host was calm.
# Timings are reported in seconds at that speed; see SpeedProbe.
REF_PROBE_S = 0.0008


@dataclass(frozen=True)
class Workload:
    """One workload; BENCHMARK.json says why each exists."""

    side: int                    # image side in pixels
    classes: tuple
    config: tuple                # task and optimizer lines of run.cfg
    n_train: int
    n_test: int
    datasets: int                # distinct seeded problems a run cycles over
    traced_ops: int              # fixed operation count of a traced run
    min_accuracy: float          # sanity floor, far below what runs reach
    bundle_axes: int = 0         # > 0: train/eval on a generated bundle
    # train + eval pairs per operation; short ones repeat, so that a calm
    # moment is among their samples
    retrains: int = 1


WORKLOADS = {
    "forest_pair": Workload(
        side=12, classes=(2, 3),
        config=("class_pairs = 2:3", "ref_kind = u_minus_v,u", "n_axes = 2",
                "svd_k = 3"),
        n_train=400, n_test=2000, datasets=6, traced_ops=3,
        min_accuracy=0.8, retrains=4),
    "ovr_shallow": Workload(
        side=14, classes=(0, 1, 2),
        config=("one_vs_rest = 0,1,2", "n_axes = 1"),
        n_train=450, n_test=1500, datasets=6, traced_ops=3,
        min_accuracy=0.7, retrains=4),
    "classify_bulk": Workload(
        side=28, classes=(0, 1, 2, 3, 4),
        config=("one_vs_rest = 0,1,2,3,4",),
        n_train=5000, n_test=5000, datasets=1, traced_ops=2,
        min_accuracy=0.6, bundle_axes=60),
}


def fail_setup(msg: str) -> None:
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(2)


# ---------------------------------------------------------------------------
# host speed


class SpeedProbe:
    """Reads how fast the shared host runs while a command is timed.

    The host's speed drifts by 1.3-1.9x in spells of a fraction of a second
    to minutes, and CPU time drifts with it, so no statistic of raw times
    is steady across runs.  ``time_call`` therefore reads the host's speed
    before and after the call, and every INTERVAL_S during it from a
    SIGALRM handler, by timing a fixed kernel of about 1 ms.  The call's
    wall time, less the handler's own time, is multiplied by the mean of
    REF_PROBE_S / reading: seconds at the reference host's calm speed.

    The kernel is shaped like meip's work: an interpreted loop of small
    numpy calls (as in the move-limit LP), plain float arithmetic, and
    array operations.  It depends on nothing in meip, so a change to meip
    cannot move it.  Its arrays are preallocated and written in place: a
    fresh temporary would cost page faults or not depending on what the
    allocator holds after meip's own calls.  Python runs the handler
    between bytecodes of the main thread, never inside a numpy call.
    """

    INTERVAL_S = 0.1
    BRACKET_READS = 5

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self.small = [rng.standard_normal((3, 3)) + 3.0 * np.eye(3)
                      for _ in range(60)]
        self.rhs = rng.standard_normal(3)
        self.values = rng.standard_normal(8000).tolist()
        self.matrix = rng.standard_normal((100, 100))
        self.product = np.empty_like(self.matrix)
        self.array = rng.standard_normal(40_000)
        self.scratch = np.empty_like(self.array)
        self.bracket()      # first calls pay one-time costs

    def read(self) -> float:
        """Wall seconds of one run of the kernel."""
        import numpy as np

        t0 = time.perf_counter()
        acc = 0.0
        for m in self.small:
            acc += float(np.linalg.solve(m, self.rhs)[0])
        for x in self.values:
            if x > acc:
                acc += 0.5 * x
            else:
                acc -= 0.25 * x
        np.matmul(self.matrix, self.matrix, out=self.product)
        self.scratch[:] = self.array
        self.scratch.sort()
        np.abs(self.array, out=self.scratch)
        np.sqrt(self.scratch, out=self.scratch)
        return time.perf_counter() - t0

    def bracket(self) -> float:
        return statistics.median(self.read()
                                 for _ in range(self.BRACKET_READS))

    def time_call(self, fn, *args):
        """``fn(*args)`` timed: (its result, wall s, reference-speed s)."""
        readings = [self.bracket()]
        handler_s = 0.0

        def tick(signum, frame):
            nonlocal handler_s
            t0 = time.perf_counter()
            self.read()     # warms the caches that meip's call has taken
            readings.append(self.read())
            handler_s += time.perf_counter() - t0

        previous = signal.signal(signal.SIGALRM, tick)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S,
                         self.INTERVAL_S)
        t0 = time.perf_counter()
        try:
            result = fn(*args)
        finally:
            wall = time.perf_counter() - t0
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        wall -= handler_s
        readings.append(self.bracket())
        return result, wall, wall * statistics.fmean(
            REF_PROBE_S / r for r in readings)


# ---------------------------------------------------------------------------
# set-up: inputs from the seed, plus BLAS/LAPACK warm-up


def write_bundle(path: Path, rng, side: int, n_axes: int) -> None:
    """Orthonormal bundle of smooth node fields in the MEIP-AXES 1 format."""
    import numpy as np

    t = np.linspace(0.0, 1.0, side + 1)
    x, y = np.meshgrid(t, t, indexing="ij")
    modes = [(a, b) for a in range(8) for b in range(8)]
    basis = np.stack([np.cos(np.pi * a * x) * np.cos(np.pi * b * y)
                      for a, b in modes], axis=-1).reshape(-1, len(modes))
    decay = np.array([1.0 / (1.0 + a + b) for a, b in modes])
    fields = basis @ (rng.standard_normal((len(modes), n_axes))
                      * decay[:, None])
    q, _ = np.linalg.qr(fields)
    with open(path, "w") as f:
        f.write(f"MEIP-AXES 1\n{side} {side} {q.shape[0]} {n_axes}\n")
        for axis in q.T:
            f.write(" ".join(f"{v:.17g}" for v in axis) + "\n")


def warm_up() -> None:
    """Pay the one-time BLAS/LAPACK initialization outside the timed ops."""
    import numpy as np
    import scipy.linalg

    a = np.eye(64) * 4.0 + 1.0
    (a @ a).sum()
    ab = np.zeros((3, 200))
    ab[-1] = 4.0
    ab[0, 2:] = ab[1, 1:] = -1.0
    scipy.linalg.cho_solve_banded(
        (scipy.linalg.cholesky_banded(ab), False), np.ones(200))


def setup(wl: Workload, seed: int, dest: Path) -> list[Path]:
    """Generate every dataset (and bundle) of the run; returns the configs."""
    import numpy as np
    import glyphs

    rng = np.random.default_rng(seed)
    configs = []
    for i in range(wl.datasets):
        # A bank per dataset: a shared one would make every problem of a
        # seed alike, and pipeline_s would vary more from seed to seed.
        bank = glyphs.make_bank(rng, wl.side)
        d = dest / f"data{i}"
        paths = glyphs.write_dataset(d, rng, bank, wl.classes,
                                     wl.n_train, wl.n_test)
        lines = [f"n1 = {wl.side}", f"n2 = {wl.side}", *wl.config]
        lines += [f"{key} = {p.name}" for key, p in paths.items()]
        if wl.bundle_axes:
            write_bundle(d / "bundle.txt", rng, wl.side, wl.bundle_axes)
        (d / "run.cfg").write_text("\n".join(lines) + "\n")
        configs.append(d / "run.cfg")
    warm_up()
    return configs


def tree_digest(path: Path) -> str:
    h = hashlib.sha256()
    for p in sorted(path.rglob("*")):
        if p.is_file():
            h.update(str(p.relative_to(path)).encode() + b"\0")
            h.update(p.read_bytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# operations: one repetition of the workload's command sequence


@dataclass
class OpResult:
    dataset: int
    seconds: dict = field(default_factory=dict)   # step -> [wall seconds]
    ref_s: dict = field(default_factory=dict)     # step -> [reference s]
    attempted: int = 0
    failed: int = 0
    accuracy: float | None = None
    test_samples: int = 0
    digests: dict = field(default_factory=dict)   # report file -> sha256
    bytes_written: int = 0
    exhausted_forests: int | None = 0

    @staticmethod
    def _end_to_end(times: dict) -> float | None:
        """The workload's end-to-end time: pipeline, or train + eval."""
        if "pipeline" in times:
            return times["pipeline"][0]
        if "eval" in times:
            return times["train"][0] + times["eval"][0]
        return None

    @property
    def pipeline_s(self) -> float | None:
        return self._end_to_end(self.seconds)

    @property
    def pipeline_ref_s(self) -> float | None:
        return self._end_to_end(self.ref_s)

    @property
    def wall_s(self) -> float:
        return sum(sum(v) for v in self.seconds.values())


def _read_json(path: Path):
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError):
        return None


def run_op(cli_main, wl: Workload, cfg: Path, idx: int, out: Path,
           tracer=None, probe=None) -> OpResult:
    """Run one operation; every CLI call counts as one attempt.

    With a SpeedProbe, each call's time is also recorded at reference speed.
    """
    res = OpResult(dataset=idx)
    pipe, own = out / "pipe", out / "own"
    if wl.bundle_axes:
        bundle = cfg.parent / "bundle.txt"
        steps = []
    else:
        bundle = pipe / "axes.txt"
        steps = [("pipeline", ["pipeline", "--config", str(cfg),
                               "--out", str(pipe)])]
    steps += [("train", ["train", "--config", str(cfg), "--bundle",
                         str(bundle), "--out", str(own)]),
              ("eval", ["eval", "--config", str(cfg), "--model",
                        str(own / "model.txt"), "--split", "test",
                        "--out", str(own)])] * wl.retrains

    for k, (step, argv) in enumerate(steps):
        res.attempted += 1
        stdout = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(stdout):
            if probe is not None:
                rc, wall, ref = probe.time_call(cli_main, argv)
                res.ref_s.setdefault(step, []).append(ref)
            elif tracer is not None:
                with tracer.span(f"cli.{step}"):
                    rc = cli_main(argv)
            else:
                rc = cli_main(argv)
        if probe is None:
            wall = time.perf_counter() - t0
        res.seconds.setdefault(step, []).append(wall)
        problem = check_step(step, rc, pipe, own, res, wl)
        if problem:
            print(f"run.py: dataset {idx}: meip {step} failed: {problem}",
                  file=sys.stderr)
            # Later steps depend on this one: count them as failed too.
            res.failed += len(steps) - k
            res.attempted += len(steps) - k - 1
            break

    res.bytes_written = sum(p.stat().st_size for p in out.rglob("*")
                            if p.is_file() and p.name != "timing.txt")
    return res


def check_step(step: str, rc: int, pipe: Path, own: Path, res: OpResult,
               wl: Workload) -> str | None:
    """Check one CLI call's exit code and outputs; None when all is well."""
    if rc != 0:
        return f"exit code {rc}"
    if step == "pipeline":
        report = pipe / "report.json"
        if _read_json(report) is None:
            return "report.json missing or unreadable"
        res.digests["report.json"] = hashlib.sha256(
            report.read_bytes()).hexdigest()
        res.exhausted_forests = count_exhausted(pipe)
    elif step == "train":
        if not (own / "model.txt").is_file():
            return "model.txt missing"
    elif step == "eval":
        path = own / "report_test.json"
        report = _read_json(path)
        cm = (report or {}).get("test_confusion") or {}
        if not isinstance(cm.get("accuracy"), float):
            return "report_test.json has no test accuracy"
        res.accuracy = cm["accuracy"]
        if res.accuracy < wl.min_accuracy:
            return (f"test accuracy {res.accuracy:.4f} is below the sanity "
                    f"floor {wl.min_accuracy}")
        res.test_samples = int(cm.get("total", 0))
        data = path.read_bytes()
        res.digests["report_test.json"] = hashlib.sha256(data).hexdigest()
        theirs = pipe / "report_test.json"
        if pipe.is_dir() and (not theirs.is_file()
                              or theirs.read_bytes() != data):
            return ("report_test.json differs from the one meip pipeline "
                    "wrote for the same model")
    return None


def count_exhausted(pipe: Path) -> int | None:
    """Forests that stopped short of n_axes because their pool ran out."""
    try:
        n_axes = int(_read_json(pipe / "report.json")["config"]["n_axes"])
    except (KeyError, TypeError, ValueError):
        return None     # report layout changed; the record is informational
    per_forest = defaultdict(int)
    for rec in _read_json(pipe / "axes_provenance.json") or []:
        per_forest[rec.get("forest")] += 1
    return sum(1 for n in per_forest.values() if n < n_axes)


def compare_revisit(first: OpResult, again: OpResult) -> list[str]:
    """Reports of a repeated operation must be byte-identical."""
    return [f"{name} differs between two runs of dataset {again.dataset}"
            for name, digest in first.digests.items()
            if again.digests.get(name) != digest]


# ---------------------------------------------------------------------------
# per-layer metrics from spans


def _pct(values, q):
    import numpy as np
    return float(np.percentile(values, q)) if values else 0.0


def _by_name(spans, ops: set) -> dict:
    by = defaultdict(list)
    for s in spans:
        if s.op in ops:
            by[s.name].append(s)
    return by


def op_counts(spans, ops: set, bytes_written: int) -> dict:
    """Counts over the given ops that must repeat exactly for a seed."""
    by = _by_name(spans, ops)
    def notes(name, key):
        return sum(s.note.get(key, 0) for s in by[name])

    return {
        "lp.calls": len(by["lp.solve"]),
        "fem.assemble_calls": len(by["fem.assemble"]),
        "fem.solve_calls": len(by["fem.solve"]),
        "forest.axes": len(by["optimizer.optimize"]),
        "optimizer.state_evals": notes("optimizer.optimize", "evals"),
        "optimizer.accepted": notes("optimizer.optimize", "accepted"),
        "dataset.images": notes("dataset.preprocess", "images"),
        "pipeline.bytes_written": bytes_written,
    }


def layer_metrics(tracer, own: dict, ops: set, counts: dict,
                  overhead_s: float) -> dict:
    by = _by_name(tracer.spans, ops)

    def self_s(name):
        return sum((own[s.id] for s in by[name]), 0.0)

    def incl_s(name):
        return sum((s.end - s.start for s in by[name]), 0.0)

    def durs(name):
        return [s.end - s.start for s in by[name]]

    lp_n = counts["lp.calls"]
    axes = counts["forest.axes"]
    trials = counts["optimizer.state_evals"] - axes
    m = {
        "lp.calls": (lp_n, "count", ["lp.solve"]),
        "lp.solve_s": (self_s("lp.solve"), "s", ["lp.solve"]),
        "lp.solve_ms_p50": (1e3 * _pct(durs("lp.solve"), 50), "ms",
                            ["lp.solve"]),
        "lp.solve_ms_p90": (1e3 * _pct(durs("lp.solve"), 90), "ms",
                            ["lp.solve"]),
        "lp.slack_frac": (sum(s.note.get("slack", 0) for s in by["lp.solve"])
                          / lp_n if lp_n else 0.0, "frac", ["lp.solve"]),
        "fem.assemble_calls": (counts["fem.assemble_calls"], "count",
                               ["fem.assemble"]),
        "fem.assemble_s": (self_s("fem.assemble"), "s", ["fem.assemble"]),
        "fem.solve_calls": (counts["fem.solve_calls"], "count",
                            ["fem.solve"]),
        "fem.solve_s": (self_s("fem.solve"), "s", ["fem.solve"]),
        "fem.factor_flops_computed": (
            sum(s.note.get("flops", 0) for s in by["fem.assemble"]), "flop",
            ["fem.assemble"]),
        "optimizer.state_s": (self_s("optimizer.state"), "s",
                              ["optimizer.state"]),
        "optimizer.grad_s": (self_s("optimizer.grad"), "s",
                             ["optimizer.grad"]),
        "optimizer.self_s": (self_s("optimizer.optimize"), "s",
                             ["optimizer.optimize"]),
        "optimizer.state_evals": (counts["optimizer.state_evals"], "count",
                                  ["optimizer.optimize"]),
        "optimizer.accepted": (counts["optimizer.accepted"], "count",
                               ["optimizer.optimize"]),
        "optimizer.accept_ratio": (
            counts["optimizer.accepted"] / trials if trials > 0 else 0.0,
            "frac", ["optimizer.optimize"]),
        "optimizer.zero_progress_axes": (
            sum(1 for s in by["optimizer.optimize"]
                if s.note.get("accepted") == 0), "count",
            ["optimizer.optimize"]),
        "forest.axes": (axes, "count", ["optimizer.optimize"]),
        "forest.axis_s_p50": (_pct(durs("optimizer.optimize"), 50), "s",
                              ["optimizer.optimize"]),
        "forest.axis_s_p90": (_pct(durs("optimizer.optimize"), 90), "s",
                              ["optimizer.optimize"]),
        "forest.pool_exhausted": (
            sum(1 for s in by["forest.generate"] if s.note.get("exhausted")),
            "count", ["forest.generate"]),
        "forest.svd_s": (self_s("forest.svd"), "s", ["forest.svd"]),
        "dataset.load_s": (self_s("dataset.load"), "s", ["dataset.load"]),
        "dataset.preprocess_s": (self_s("dataset.preprocess"), "s",
                                 ["dataset.preprocess"]),
        "dataset.images": (counts["dataset.images"], "count",
                           ["dataset.preprocess"]),
        "classifier.features_s": (self_s("classifier.features"), "s",
                                  ["classifier.features"]),
        "classifier.fit_s": (self_s("classifier.fit"), "s",
                             ["classifier.fit"]),
        "classifier.predict_s": (self_s("classifier.predict"), "s",
                                 ["classifier.predict"]),
        "classifier.posterior_s": (self_s("classifier.posterior"), "s",
                                   ["classifier.posterior"]),
        "pipeline.cmd_train_axes_s": (incl_s("pipeline.cmd_train_axes"), "s",
                                      ["pipeline.cmd_train_axes"]),
        "pipeline.cmd_train_s": (incl_s("pipeline.cmd_train"), "s",
                                 ["pipeline.cmd_train"]),
        "pipeline.cmd_eval_s": (incl_s("pipeline.cmd_eval"), "s",
                                ["pipeline.cmd_eval"]),
        "pipeline.artifact_write_s": (self_s("pipeline.write"), "s",
                                      ["pipeline.write"]),
        "pipeline.artifact_read_s": (self_s("pipeline.read"), "s",
                                     ["pipeline.read"]),
        "pipeline.bytes_written": (counts["pipeline.bytes_written"], "bytes",
                                   []),
        "trace.overhead_s": (overhead_s, "s", []),
    }
    return {name: {"value": value, "unit": unit}
            for name, (value, unit, needs) in m.items()
            if value is not None and all(n in tracer.usable for n in needs)}


def self_by_name(spans, own: dict, ops: set) -> dict:
    """Self seconds per span name over the given ops, largest first."""
    total = defaultdict(float)
    for s in spans:
        if s.op in ops:
            total[s.name] += own[s.id]
    return dict(sorted(total.items(), key=lambda kv: -kv[1]))


def check_spans(spans, own: dict, results: list) -> list[str]:
    """Spans nest inside their parents; self times add up to each op."""
    problems = []
    byid = {s.id: s for s in spans}
    for s in spans:
        if s.parent is not None:
            p = byid[s.parent]
            if s.start < p.start or s.end > p.end:
                problems.append(f"span {s.name} escapes its parent {p.name}")
        if own[s.id] < -1e-9:
            problems.append(f"span {s.name} has negative self time")
    for op, res in enumerate(results):
        # The op's wall time, timed around the CLI calls, also holds the
        # stdout redirection, so it may exceed the self times by a little.
        wall = res.wall_s
        total = sum(own[s.id] for s in spans if s.op == op)
        if not 0.99 * wall <= total <= wall:
            problems.append(f"op {op}: self times sum to {total:.6f} s, "
                            f"its wall time is {wall:.6f} s")
    return problems


# ---------------------------------------------------------------------------
# environment record


def blas_threads():
    """Threads of numpy's bundled OpenBLAS, or None if it cannot be asked."""
    import ctypes
    import numpy as np

    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("lib*openblas*.so*")):
        try:
            cdll = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(cdll, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_sha():
    """Commit of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    h = hashlib.sha256()
    for p in sorted([*(SRC / "meip").glob("*.py"), *BENCH.glob("*.py")]):
        h.update(p.name.encode() + b"\0" + p.read_bytes())
    return h.hexdigest()[:16]


def environment(import_s: float) -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": blas_threads(),
        "blas_env": {v: os.environ.get(v) for v in BLAS_VARS},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "git_sha": git_sha(),
        "source_digest": source_digest(),
        "import_s": import_s,
    }


# ---------------------------------------------------------------------------
# main


def median(values):
    return statistics.median(values) if values else None


def measure(cli_main, wl, configs, run_dir, seconds, probe):
    """Untraced operations: every dataset once, dataset 0 again, then more
    cycles while ``seconds`` allow.  The first cycle always runs, so every
    run measures the same datasets however fast the program is."""
    results, problems, first = [], [], {}
    t_start = time.perf_counter()
    longest = 0.0
    for n, idx in enumerate(itertools.cycle(range(wl.datasets))):
        t_op = time.perf_counter()
        res = run_op(cli_main, wl, configs[idx], idx, run_dir / f"op{n}",
                     probe=probe)
        shutil.rmtree(run_dir / f"op{n}", ignore_errors=True)
        longest = max(longest, time.perf_counter() - t_op)
        if idx in first:
            problems += compare_revisit(first[idx], res)
        else:
            first[idx] = res
        results.append(res)
        if res.failed or (n >= wl.datasets and time.perf_counter() - t_start
                          + longest > seconds):
            break
    return results, problems


def per_dataset(results, sample) -> list:
    """Median of ``sample(op)`` values for each dataset, in dataset order."""
    by = defaultdict(list)
    for r in results:
        if not r.failed:
            by[r.dataset] += sample(r)
    return [statistics.median(by[d]) for d in sorted(by) if by[d]]


def mean(values):
    return statistics.fmean(values) if values else None


def timings(results) -> dict:
    """Reference-speed figures of each timed step, one per dataset.

    Each is the median over the dataset's samples, so a faster program,
    which fits more samples into a run, does not get a lower figure from
    that alone.  The run's figure is their mean over the datasets: the
    optimizer's work differs much between datasets of one shape, and
    every run covers all of its datasets.
    """
    return {
        "pipeline_s": per_dataset(results, lambda r: [r.pipeline_ref_s]),
        "train_s": per_dataset(results, lambda r: r.ref_s["train"]),
        "eval_s": per_dataset(results, lambda r: r.ref_s["eval"]),
    }


def end_to_end(results, setup_s) -> dict:
    ok = [r for r in results if not r.failed]
    attempted = sum(r.attempted for r in results)
    failed = sum(r.failed for r in results)
    t = timings(results)
    eval_s = mean(t["eval_s"])
    accuracy = {r.dataset: r.accuracy for r in ok}
    m = {
        "setup_s": (median(setup_s), "s"),
        "pipeline_s": (mean(t["pipeline_s"]), "s"),
        "train_s": (mean(t["train_s"]), "s"),
        "eval_samples_per_s": (ok[0].test_samples / eval_s if ok else None,
                               "1/s"),
        "test_accuracy": (mean(list(accuracy.values())), "frac"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
        "ok_ops_frac": ((attempted - failed) / attempted, "frac"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()
            if v is not None}


def traced(cli_main, wl, configs, run_dir):
    """Fixed op list: one untraced baseline, then traced ops plus a repeat."""
    from tracer import Tracer, self_times

    baseline = run_op(cli_main, wl, configs[0], 0, run_dir / "base")
    tracer = Tracer()
    tracer.install()
    results, problems, first = [], [], {}
    try:
        n_ops = wl.traced_ops + (1 if wl.traced_ops <= wl.datasets else 0)
        for n in range(n_ops):
            idx = n % wl.datasets if n < wl.traced_ops else 0
            tracer.op = n
            res = run_op(cli_main, wl, configs[idx], idx, run_dir / f"op{n}",
                         tracer)
            shutil.rmtree(run_dir / f"op{n}", ignore_errors=True)
            results.append(res)
            if idx in first:
                m = first[idx]
                problems += compare_revisit(results[m], res)
                a = op_counts(tracer.spans, {m}, results[m].bytes_written)
                b = op_counts(tracer.spans, {n}, res.bytes_written)
                if a != b:
                    problems.append(f"counts of dataset {idx} differ between "
                                    f"two traced runs: {a} != {b}")
            else:
                first[idx] = n
    finally:
        tracer.restore()
    measured = set(range(wl.traced_ops))
    own = self_times(tracer.spans)
    problems += check_spans(tracer.spans, own, results)
    overhead = (None if baseline.failed or results[0].failed
                else results[0].pipeline_s - baseline.pipeline_s)
    counts = op_counts(tracer.spans, measured,
                       sum(r.bytes_written for r in results[:wl.traced_ops]))
    metrics = layer_metrics(tracer, own, measured, counts, overhead)
    detail = {"counts": counts, "traced_ops": wl.traced_ops,
              "self_s_by_span": self_by_name(tracer.spans, own, measured),
              "missing_targets": tracer.missing,
              "broken_spans": sorted(tracer.broken)}
    return [baseline] + results, problems, metrics, detail, tracer


def check_counts_across_runs(key: str, counts: dict) -> list[str]:
    """Counts of a seed must match what an earlier process recorded."""
    path = WORK / "counts" / f"{key}.json"
    if path.is_file():
        before = json.loads(path.read_text())
        if before != counts:
            return [f"deterministic counts differ from an earlier run of the "
                    f"same seed and source: {before} != {counts}"]
        return []
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(counts, sort_keys=True) + "\n")
    return []


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (SRC / "meip" / "cli.py").is_file():
        fail_setup(f"meip sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import meip
    import meip.cli
    import numpy  # noqa: F401
    import scipy.linalg  # noqa: F401
    import_s = time.perf_counter() - t0
    if Path(meip.__file__).resolve().parent != SRC / "meip":
        fail_setup(f"imported meip from {meip.__file__}, not {SRC}")

    wl = WORKLOADS[args.workload]
    run_dir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    env = environment(import_s)
    try:
        probe = SpeedProbe()
        setup_wall, setup_s, digests = [], [], set()
        for rep in range(SETUP_REPS):
            configs, wall, ref = probe.time_call(
                setup, wl, args.seed, run_dir / f"setup{rep}")
            setup_wall.append(wall)
            setup_s.append(ref)
            digests.add(tree_digest(run_dir / f"setup{rep}"))
        problems = [] if len(digests) == 1 else [
            "the generator wrote different inputs for the same seed"]

        if args.trace:
            results, more, metrics, detail, tracer = traced(
                meip.cli.main, wl, configs, run_dir)
            problems += more
            key = f"{args.workload}-{args.seed}-{env['source_digest']}"
            problems += check_counts_across_runs(key, detail["counts"])
            trace_path = WORK / "traces" / f"{args.workload}-{args.seed}.jsonl"
            trace_path.parent.mkdir(parents=True, exist_ok=True)
            with open(trace_path, "w") as f:
                f.write(json.dumps({"env": env, "missing": tracer.missing})
                        + "\n")
                for s in tracer.spans:
                    f.write(json.dumps(s.as_dict()) + "\n")
            detail["trace_file"] = str(trace_path.relative_to(ROOT))
        else:
            results, more = measure(meip.cli.main, wl, configs, run_dir,
                                    args.seconds, probe)
            problems += more
            metrics = end_to_end(results, setup_s)
            detail = {
                "per_dataset": timings(results),
                "samples": {"pipeline_s": sum(not r.failed for r in results),
                            **{f"{step}_s": sum(len(r.ref_s.get(step, ()))
                                                for r in results
                                                if not r.failed)
                               for step in ("train", "eval")}},
                "datasets": [r.dataset for r in results],
                "wall_s": [r.seconds for r in results],
                "ref_s": [r.ref_s for r in results],
                "setup_wall_s": setup_wall,
                "setup_s": setup_s,
                "forest.pool_exhausted": [r.exhausted_forests
                                          for r in results],
            }
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    for p in problems:
        print(f"run.py: CHECK FAILED: {p}", file=sys.stderr)
    attempted = sum(r.attempted for r in results)
    failed = sum(r.failed for r in results)
    print(json.dumps({"env": env, "workload": args.workload,
                      "seed": args.seed, **detail}))
    print(json.dumps({"correct": failed == 0 and not problems,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
