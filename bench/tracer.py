"""Outside-in tracer: wraps meip functions at the names their callers use.

Every wrapped call becomes a span (id, name, start, end, parent, op) kept
in memory.  Callers inside meip look functions up in their own module's
namespace (``from meip.lp import solve_move_limit_lp`` binds the name in
``meip.optimizer``), so each target is patched at that caller-side name,
never at its defining module.  A target that no longer exists, or whose
result lacks a field read here, leaves its metrics absent.  Single-threaded use only (``--jobs 1``).
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time

# (span name, module, attribute path) -- the attribute path may name a
# method on a class in that module.
TARGETS = [
    ("lp.solve", "meip.optimizer", "solve_move_limit_lp"),
    ("fem.assemble", "meip.fem", "assemble_stiffness"),
    ("fem.solve", "meip.fem", "StiffnessOperator.solve"),
    ("optimizer.state", "meip.optimizer", "compute_state"),
    ("optimizer.grad", "meip.optimizer", "gradients"),
    ("optimizer.optimize", "meip.forest", "optimize"),
    ("forest.generate", "meip.forest", "generate_axes"),
    ("forest.svd", "meip.forest", "orthonormalize"),
    ("dataset.load", "meip.pipeline", "load_idx_images"),
    ("dataset.load", "meip.pipeline", "load_idx_labels"),
    ("dataset.preprocess", "meip.dataset", "Dataset.from_arrays"),
    ("classifier.features", "meip.classifier", "features_from_gray"),
    ("classifier.fit", "meip.classifier", "fit"),
    ("classifier.predict", "meip.classifier", "predict_batch"),
    ("classifier.posterior", "meip.classifier", "predict_posterior"),
    ("pipeline.cmd_train_axes", "meip.pipeline", "cmd_train_axes"),
    ("pipeline.cmd_train", "meip.pipeline", "cmd_train"),
    ("pipeline.cmd_eval", "meip.pipeline", "cmd_eval"),
    ("pipeline.cmd_pipeline", "meip.pipeline", "cmd_pipeline"),
    ("pipeline.write", "meip.pipeline", "save_axes"),
    ("pipeline.write", "meip.pipeline", "save_model"),
    ("pipeline.write", "meip.pipeline", "save_fields"),
    ("pipeline.write", "meip.pipeline", "write_confusion_csv"),
    ("pipeline.write", "meip.pipeline", "write_histogram_csv"),
    ("pipeline.read", "meip.pipeline", "load_axes"),
    ("pipeline.read", "meip.pipeline", "load_model"),
]


def _note(name, result) -> dict:
    """Per-call facts read from a traced call's return value."""
    if name == "lp.solve":
        return {"slack": float(result.slack_used) > 1e-9}
    if name == "fem.assemble":
        m, bw = result.shape[0], result.bandwidth
        return {"flops": m * (bw + 1) ** 2}
    if name == "optimizer.optimize":
        return {"evals": result.state_evals, "accepted": result.iterations}
    if name == "forest.generate":
        return {"exhausted": bool(result.pool_exhausted)}
    if name == "dataset.preprocess":
        return {"images": len(result)}
    return {}


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "op", "note")

    def __init__(self, sid, name, start, parent, op):
        self.id, self.name, self.start, self.parent, self.op = (
            sid, name, start, parent, op)
        self.end = None
        self.note = {}

    def as_dict(self) -> dict:
        return {"id": self.id, "name": self.name, "start": self.start,
                "end": self.end, "parent": self.parent, "op": self.op,
                "note": self.note}


class Tracer:
    """Collects spans from patched meip functions; ``restore`` unpatches."""

    def __init__(self):
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self.installed: set[str] = set()
        self.broken: set[str] = set()   # a target or a result field is gone
        self._stack: list[int] = []
        self._undo: list[tuple] = []
        self.op = None

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, around a CLI call."""
        s = self._open(name)
        try:
            yield s
        finally:
            self._close(s)

    def _open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        s = Span(len(self.spans), name, time.perf_counter(), parent, self.op)
        self.spans.append(s)
        self._stack.append(s.id)
        return s

    def _close(self, s: Span) -> None:
        s.end = time.perf_counter()
        self._stack.pop()

    def install(self) -> None:
        for name, module, attr in TARGETS:
            try:
                owner = importlib.import_module(module)
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                raw = vars(owner)[leaf]
            except (ImportError, AttributeError, KeyError):
                self.missing.append(f"{module}.{attr}")
                self.broken.add(name)
                continue
            setattr(owner, leaf, self._wrap(name, raw))
            self.installed.add(name)
            self._undo.append((owner, leaf, raw))

    @property
    def usable(self) -> set[str]:
        """Span names whose every target is wrapped and readable."""
        return self.installed - self.broken

    def restore(self) -> None:
        while self._undo:
            owner, leaf, raw = self._undo.pop()
            setattr(owner, leaf, raw)

    def _wrap(self, name: str, raw):
        kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
        func = raw.__func__ if kind else raw

        @functools.wraps(func)
        def traced(*args, **kwargs):
            s = self._open(name)
            try:
                result = func(*args, **kwargs)
            finally:
                self._close(s)
            try:
                s.note = _note(name, result)
            except AttributeError:
                self.broken.add(name)
            return result

        return kind(traced) if kind else traced


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the time its direct children cover."""
    own = {s.id: s.end - s.start for s in spans}
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.end - s.start
    return own
