"""End-to-end pipeline: configuration, artifact formats, and commands.

Artifacts are plain text with versioned headers so every file is
self-describing and diffs cleanly: axis bundles (MEIP-AXES), Gaussian
models (MEIP-MODEL), per-axis design/force fields (MEIP-FIELDS),
confusion matrices, per-sample predictions, feature histograms (one CSV
table per split), and raster snapshots as binary PGM.  A text artifact is
a magic line, then rows of an optional tag and values joined by one
separator (a space, or a comma in the CSVs); a missing, extra or
malformed row fails to load with ``ValueError("<path>:<line>: expected
...")``.  Reports are JSON and deterministic: rerunning a config
byte-reproduces them (wall-clock timing goes to a separate file).

Each artifact is formatted whole and then written once, by ``_write``.  A
rerun replaces an existing file instead of rewriting it: a hard link to
an old output keeps its bytes, and a write-protected old output in a
writable directory is replaced.
"""

from __future__ import annotations

import hashlib
import io
import json
import logging
import os
import re
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, fields as dc_fields
from itertools import chain
from pathlib import Path
from typing import get_type_hints

import numpy as np

from meip import classifier, fem, forest
from meip.dataset import (BlankImageError, Dataset, load_idx_images,
                          load_idx_labels)
from meip.optimizer import OptimizerConfig

__all__ = ["PipelineConfig", "load_config", "save_axes",
           "load_axes", "save_model", "load_model", "write_pgm",
           "write_field_csv", "write_confusion_csv", "cmd_train_axes",
           "cmd_train", "cmd_eval", "cmd_inspect", "cmd_pipeline"]

log = logging.getLogger(__name__)

AXES_MAGIC = "MEIP-AXES 1"
MODEL_MAGIC = "MEIP-MODEL 2"
ECHO_LINE = 5   # of a model's first config item, after its count
FIELDS_MAGIC = "MEIP-FIELDS 1"
FIELD_MAGIC = "MEIP-FIELD 1"
CONFUSION_MAGIC = "MEIP-CONFUSION 1"
HIST_MAGIC = "MEIP-HIST 2"
PRED_MAGIC = "MEIP-PRED 1"


def _fmt(rows, tag: str | None = None, sep: str = " ") -> str:
    """Artifact rows: ``tag`` (if any), then a row's values, joined by
    ``sep``.  One %-format per table: ``%.17g`` (round-trips every float64)
    for a column whose first value is a float, ``%s`` for the others."""
    rows = rows.tolist() if isinstance(rows, np.ndarray) else list(rows)
    cells = ["%.17g" if isinstance(v, float) else "%s"
             for row in rows[:1] for v in row]
    line = sep.join(cells if tag is None else [tag.replace("%", "%%"), *cells])
    return ((line + "\n") * len(rows)) % tuple(chain.from_iterable(rows))


@dataclass
class PipelineConfig(OptimizerConfig):
    """Parsed run configuration with the published experiment defaults.

    The fields are the config schema: every field but ``base_dir``,
    ``source`` and ``origin`` is a config key of the field's name and type
    (``lam`` is spelled ``lambda``).  The optimizer settings (``lam``, the
    budgets and bounds, the step threshold ``eps_x`` and ``ref_kind``) and
    their defaults are inherited from ``OptimizerConfig``; here
    ``ref_kind`` is a comma list that grows one forest per kind, so the
    pipeline never calls the inherited ``validate()`` and checks each
    kind's ``optimizer_config`` instead.  ``source`` is the path of the config
    file, and ``origin`` maps each key read from it to its ``path:line``.
    """

    n1: int = 28
    n2: int = 28
    n_axes: int = 1
    svd_k: int = 0
    class_pairs: str = ""           # one pair a:b, e.g. "0:1" or "3:4"
    one_vs_rest: str = ""           # e.g. "0,1,2,3,4"
    train_images: str = ""
    train_labels: str = ""
    test_images: str = ""
    test_labels: str = ""
    base_dir: Path = field(default_factory=Path)
    source: str = field(default="config", compare=False, repr=False)
    origin: dict = field(default_factory=dict, compare=False, repr=False)

    def optimizer_config(self, ref_kind: str) -> OptimizerConfig:
        cfg = OptimizerConfig(
            **{name: getattr(self, name) for name in _OPTIMIZER_FIELDS})
        cfg.ref_kind = ref_kind
        cfg.validate()
        return cfg

    def ref_kinds(self) -> list[str]:
        kinds = [r.strip() for r in self.ref_kind.split(",") if r.strip()]
        for i, kind in enumerate(kinds):  # each kind grows its own forest
            if kind in kinds[:i]:
                raise ValueError(f"names {kind} twice")
        return kinds

    def classes(self) -> list[int]:
        """Digits participating in classification, in declared order."""
        if self.one_vs_rest:
            digits = [_digit(t) for t in self.one_vs_rest.split(",")]
            if len(set(digits)) != len(digits) or len(digits) < 2:
                raise ValueError("one_vs_rest must list at least 2 distinct "
                                 "digits")
            return digits
        first, *more = self.class_pairs.split(",")
        digits = first.split(":")
        if len(digits) != 2:
            raise ValueError(f"expected a digit pair 'a:b', got {first!r}")
        a, b = _digit(digits[0]), _digit(digits[1])
        if a == b:
            raise ValueError(f"expected two different digits, got {first!r}")
        if more:
            raise ValueError(f"names more than one pair; one_vs_rest = {b},{a}"
                             f" grows the forests of both {a}:{b} and {b}:{a}")
        return [a, b]

    def forests(self) -> list[tuple[str, str, int]]:
        """(name, ref_kind, positive digit) of each forest, in config order."""
        digits = self.classes()
        views = ([(f"{d}vrest", d) for d in digits] if self.one_vs_rest
                 else [(f"{digits[0]}v{digits[1]}", digits[1])])
        return [(f"{stem}_{ref}", ref, positive) for stem, positive in views
                for ref in self.ref_kinds()]

    def resolve(self, path: str) -> Path:
        p = Path(path)
        return p if p.is_absolute() else self.base_dir / p

    def echo_items(self) -> list[tuple[str, str]]:
        """Canonical key = value view sufficient to reproduce the run."""
        return [(key, _fmt([[getattr(self, CONFIG_KEYS[key][0])]])[:-1])
                for key in sorted(CONFIG_KEYS)]

    def _check(self, attr: str) -> None:
        """Raise ValueError if the value of ``attr`` cannot run."""
        value = getattr(self, attr)
        if attr in ("n1", "n2", "n_axes") and value < 1:
            raise ValueError("must be at least 1")
        if attr == "svd_k" and value < 0:
            raise ValueError("must not be negative")
        if attr in ("class_pairs", "one_vs_rest") and value:
            PipelineConfig(**{attr: value}).classes()
        if attr == "ref_kind" and not self.ref_kinds():
            raise ValueError("names no reference kind")
        if attr in _OPTIMIZER_FIELDS:
            for ref in self.ref_kinds():
                self.optimizer_config(ref)


def _digit(token: str) -> int:
    digit = int(token)
    if not 0 <= digit <= 255:
        raise ValueError(f"digit {digit} outside 0..255 (IDX labels are "
                         "bytes)")
    return digit


_OPTIMIZER_FIELDS = {f.name for f in dc_fields(OptimizerConfig)}
_TYPES = get_type_hints(PipelineConfig)
# config key -> (PipelineConfig attribute, value type)
CONFIG_KEYS = {("lambda" if f.name == "lam" else f.name):
               (f.name, _TYPES[f.name])
               for f in dc_fields(PipelineConfig)
               if f.name not in ("base_dir", "source", "origin")}


def load_config(path) -> PipelineConfig:
    """Parse a key = value config file.

    Unknown keys, a key given twice and values that cannot run are hard
    errors that name the file, the line and the key.
    """
    path = Path(path)
    cfg = PipelineConfig(base_dir=path.parent, source=str(path))
    first_line = {}
    with _text_file(path) as f:
        text = f.read()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        # a '#' opens a comment at the start of a line or after a blank
        line = re.split(r"(?:^|[ \t])#", raw, maxsplit=1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in CONFIG_KEYS:
            raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
        if key in first_line:
            raise ValueError(f"{path}:{lineno}: {key}: given twice (first on "
                             f"line {first_line[key]})")
        first_line[key] = lineno
        cfg.origin[key] = f"{path}:{lineno}"
        attr, typ = CONFIG_KEYS[key]
        # Every earlier line passed its check, so a failure here is this
        # line's fault.
        try:
            setattr(cfg, attr, typ(value))
            cfg._check(attr)
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {key}: {exc}") from None
    if bool(cfg.class_pairs) == bool(cfg.one_vs_rest):
        raise ValueError(
            f"{path}: exactly one of class_pairs / one_vs_rest must be set")

    def where(*keys: str) -> str:
        return ", ".join(f"{key} on line {first_line[key]}" for key in keys
                         if key in first_line)

    # Every element holds at least its lower bound, so the bounds alone
    # must fit in the budget, or the first move-limit LP has no room.  An
    # element is at most the budget, and a trial that moves it down to a
    # bound below one ulp of it, p + (p_min - p), can round to 0.
    for low, budget in (("p_min", "tolp"), ("q_min", "tolq")):
        floor = getattr(cfg, low) * cfg.n1 * cfg.n2
        if floor > getattr(cfg, budget):
            raise ValueError(
                f"{path}: {low} * n1 * n2 = {floor!r} exceeds {budget} = "
                f"{getattr(cfg, budget)!r} ({where(low, budget, 'n1', 'n2')})")
        least = getattr(cfg, budget) * 2.0 ** -52
        if getattr(cfg, low) < least:
            raise ValueError(
                f"{path}: {low} = {getattr(cfg, low)!r} is below {budget} * "
                f"2**-52 = {least!r}, where rounding can take an element to "
                f"0 ({where(low, budget)})")
    # A step is at most the first move limit, which must exceed eps_x, or
    # every axis stops before its first step.
    first = cfg.first_move_limit(cfg.n1 * cfg.n2)
    if first <= cfg.eps_x:
        raise ValueError(
            f"{path}: the first move limit min(tolp, tolq) / (n1 * n2) = "
            f"{first!r} is at most eps_x = {cfg.eps_x!r} ("
            f"{where('tolp', 'tolq', 'n1', 'n2', 'eps_x')})")
    # Each forest grows at most n_axes axes; a pool that runs out of
    # subsets first depends on the data and is capped at run time.
    forests = len(cfg.forests())
    if cfg.svd_k > cfg.n_axes * forests:
        raise ValueError(
            f"{path}: svd_k = {cfg.svd_k} exceeds n_axes * forests = "
            f"{cfg.n_axes} * {forests} ({where('svd_k', 'n_axes')})")
    return cfg


# ---------------------------------------------------------------------------
# artifact formats


def _counts(toks: list[str]) -> list[int]:
    if not all(t.isdigit() for t in toks):
        raise ValueError(f"counts, got {toks}")
    return [int(t) for t in toks]


def _floats(toks: list[str]) -> np.ndarray:
    try:
        values = np.array(toks, dtype=np.float64)
    except ValueError as exc:
        raise ValueError(f"numbers: {exc}") from None
    if np.isfinite(values).all():
        return values
    raise ValueError("finite numbers")


class _Reader:
    """Rows of one text artifact, split on ``sep`` (None: whitespace)."""

    def __init__(self, f, path, sep: str | None, header: str):
        self.f, self.path, self.sep, self.header = f, path, sep, header
        self.lineno = 1

    def error(self, msg: str) -> ValueError:
        return ValueError(f"{self.path}:{self.lineno}: {msg}")

    def text(self, tag: str | None = None) -> str:
        """The next line after ``tag`` and one separator, verbatim."""
        raw, self.lineno = self.f.readline(), self.lineno + 1
        line, sep = raw.strip(), self.sep or " "
        if not raw or tag and not (line + sep).startswith(tag + sep):
            raise self.error(f"expected {repr(tag) if tag else 'a row'}, got "
                             + (repr(line[:40]) if raw else "end of file"))
        return line[len(tag) + 1:] if tag else line

    def row(self, tag: str | None, count: int, parse=None, text=None):
        """``count`` values of the next row after ``tag`` (or of ``text``),
        as finite floats or through ``parse``."""
        text = self.text(tag) if text is None else text
        toks = text.split(self.sep) if text else []
        if len(toks) != count:
            raise self.error(f"expected {count} values, got {len(toks)}")
        try:
            return (parse or _floats)(toks)
        except ValueError as exc:
            raise self.error(f"expected {exc}") from None


@contextmanager
def _text_file(path, data: bytes | None = None):
    """``path`` open as UTF-8 text, or the text of ``data`` already read
    from it, where a byte that is not UTF-8 names the file.  A leading
    byte-order mark is dropped."""
    try:
        with (open(path, encoding="utf-8-sig") if data is None else
              io.TextIOWrapper(io.BytesIO(data), encoding="utf-8-sig")) as f:
            yield f
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 text ({exc.reason})") from None


@contextmanager
def _reading(path, magic: str, kind: str, sep: str | None = None,
             data: bytes | None = None):
    """Yield a reader past the magic line, whose rest (a CSV's header
    fields) is ``reader.header``; nothing may follow the rows read."""
    with _text_file(path, data) as f:
        found, _, header = f.readline().strip().partition(sep or "\n")
        r = _Reader(f, path, sep, header)
        if found != magic:
            name, _, version = found.partition(" ")
            if name == magic.partition(" ")[0]:
                raise r.error(f"{kind} of version {version[:40]}; this "
                              f"meip reads {magic}")
            raise r.error(f"not {kind} ({found[:40]!r})")
        yield r
        if f.readline():
            r.lineno += 1
            raise r.error("expected end of file")


def _write(path, data: str | bytes) -> None:
    """Replace ``path`` by a new file holding ``data``, a ``str`` encoded as
    UTF-8: an existing file is unlinked first, not rewritten.  A missing
    directory is made, so a run that fails before its first write leaves
    no output directory."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.unlink(missing_ok=True)
    path.write_bytes(data.encode() if isinstance(data, str) else data)


def _json(obj) -> str:
    """The text of a JSON output: indented, with its keys sorted."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def save_axes(path, bundle: forest.AxisBundle) -> str:
    """Write ``bundle``; returns the SHA-256 hex digest of the bytes."""
    data = "".join([AXES_MAGIC + "\n",
                    _fmt([[bundle.n1, bundle.n2, bundle.axes.shape[1],
                           bundle.n_axes]]),
                    _fmt(bundle.axes)]).encode()
    _write(path, data)
    return hashlib.sha256(data).hexdigest()


def load_axes(path, data: bytes | None = None) -> forest.AxisBundle:
    """Load the bundle file at ``path``, or parse ``data`` read from it."""
    with _reading(path, AXES_MAGIC, "an axis bundle file", data=data) as r:
        n1, n2, m, n_axes = r.row(None, 4, _counts)
        if min(n1, n2) < 1:
            raise r.error(f"expected a mesh of at least 1x1, got {n1}x{n2}")
        if m != (n1 + 1) * (n2 + 1):
            raise r.error(f"expected {(n1 + 1) * (n2 + 1)} nodes for a "
                          f"{n1}x{n2} mesh, got {m}")
        if n_axes < 1:
            raise r.error(f"expected at least 1 axis, got {n_axes}")
        axes = [r.row(None, m) for _ in range(n_axes)]
    return forest.AxisBundle(axes=np.reshape(axes, (n_axes, m)), n1=n1, n2=n2)


def save_model(path, model: list[classifier.ClassGaussian],
               bundle_ref: str, bundle_sha256: str,
               config_items: list[tuple[str, str]]) -> None:
    parts = [MODEL_MAGIC + "\n", _fmt([[bundle_ref]], "bundle"),
             _fmt([[bundle_sha256]], "bundle_sha256"),
             _fmt([[len(config_items)]], "config"),
             _fmt(config_items, sep=" = "),
             _fmt([[len(model), "dim", model[0].mean.shape[0]]], "classes")]
    for j, g in enumerate(model):
        parts += [_fmt([[j]], "class"), _fmt([[g.prior]], "prior"),
                  _fmt(g.mean[None], "mean"), _fmt(g.cov, "cov")]
    _write(path, "".join(parts))


def load_model(path):
    """Load a model file; returns (model, bundle_ref, bundle_sha256,
    config_items).

    The bundle reference (line 2) and config values (item i on line
    ``ECHO_LINE + i``) are read verbatim (paths may hold spaces).  The
    discriminant terms are recomputed from the stored moments, which
    reproduces the fitted parameters bit for bit.
    """
    with _reading(path, MODEL_MAGIC, "a model file") as r:
        bundle_ref = r.text("bundle")
        bundle_sha256 = r.text("bundle_sha256")
        if not re.fullmatch("[0-9a-f]{64}", bundle_sha256):
            raise r.error(f"expected a SHA-256 hex digest, got "
                          f"{bundle_sha256[:40]!r}")
        config_items = []
        for _ in range(r.row("config", 1, _counts)[0]):
            key, eq, value = r.text().partition("=")
            if not eq:
                raise r.error(f"expected 'key = value', got {key[:40]!r}")
            config_items.append((key.strip(), value.strip()))
        text = r.text("classes")
        if text.split()[1:2] != ["dim"]:
            raise r.error(f"expected '<count> dim <dim>', got {text[:40]!r}")
        n_classes, dim = r.row(None, 3, lambda t: _counts(t[::2]), text)
        for count, what in ((n_classes, "class"), (dim, "dimension")):
            if count < 1:
                raise r.error(f"expected at least 1 {what}, got 0")
        model = []
        for j in range(n_classes):
            r.row(f"class {j}", 0)
            prior = float(r.row("prior", 1)[0])
            if not 0 < prior <= 1:
                raise r.error(f"expected a prior in (0, 1], got {prior!r}")
            mean = r.row("mean", dim)
            cov = np.array([r.row("cov", dim) for _ in range(dim)])
            try:
                model.append(
                    classifier.gaussian_from_moments(mean, cov, prior))
            except (ValueError, OverflowError) as exc:
                raise r.error(f"expected a valid class {j}: {exc}") from None
    return model, bundle_ref, bundle_sha256, config_items


def save_fields(path, n1: int, n2: int, records: list[dict]) -> None:
    """Per-axis mean forces and final designs of one forest."""
    parts = [FIELDS_MAGIC + "\n", _fmt([[n1, n2, len(records)]])]
    for i, rec in enumerate(records):
        parts += [_fmt([[i]], "axis"),
                  *(_fmt([rec[name]], name) for name in "fgpq")]
    _write(path, "".join(parts))


def load_fields(path):
    with _reading(path, FIELDS_MAGIC, "a fields file") as r:
        n1, n2, count = r.row(None, 3, _counts)
        if min(n1, n2) < 1:
            raise r.error(f"expected a mesh of at least 1x1, got {n1}x{n2}")
        if count < 1:
            raise r.error("expected at least 1 axis, got 0")
        nodes, elements = (n1 + 1) * (n2 + 1), n1 * n2
        records = []
        for i in range(count):
            r.row(f"axis {i}", 0)
            # mean forces live on nodes, designs on elements
            records.append({name: r.row(name, nodes if name in "fg" else
                                        elements) for name in "fgpq"})
    return n1, n2, records


def write_pgm(path, grid: np.ndarray) -> None:
    """Binary P5 raster of a 2-D field, min-max scaled to 0..255."""
    grid = np.asarray(grid, dtype=np.float64)
    lo, hi = grid.min(), grid.max()
    if hi > lo:
        scaled = np.rint((grid - lo) / (hi - lo) * 255.0)
    else:
        scaled = np.full_like(grid, 128.0)
    pixels = scaled.clip(0, 255).astype(np.uint8)
    h, w = pixels.shape
    _write(path, f"P5\n{w} {h}\n255\n".encode("ascii") + pixels.tobytes())


def write_field_csv(path, name: str, grid: np.ndarray) -> None:
    grid = np.atleast_2d(np.asarray(grid, dtype=np.float64))
    _write(path, _fmt([[name, *grid.shape]], FIELD_MAGIC, ",")
           + _fmt(grid, sep=","))


def node_grid(values: np.ndarray, n1: int, n2: int) -> np.ndarray:
    """Node vector -> (n1+1, n2+1) grid in mesh (row, column) layout."""
    return np.asarray(values).reshape((n2 + 1, n1 + 1)).T


def element_grid(values: np.ndarray, n1: int, n2: int) -> np.ndarray:
    return np.asarray(values).reshape((n2, n1)).T


def write_confusion_csv(path, cm: dict, class_names: list[str]) -> None:
    """A report's confusion object with its margins and accuracy, as CSV."""
    _write(path, "".join([
        _fmt([[*(f"target_{c}" for c in class_names), "precision"]],
             CONFUSION_MAGIC, ","),
        _fmt([(f"output_{c}", *cm["counts"][i], cm["precision"][i])
              for i, c in enumerate(class_names)], sep=","),
        _fmt([[*cm["recall"], cm["accuracy"]]], "recall", ",")]))


def write_histogram_csv(path, z: np.ndarray, targets: np.ndarray,
                        n_classes: int, bins: int = 50) -> None:
    """Distribution of each feature coordinate ``z[:, m]``, tallied per
    class, as the ``bins`` rows of axis m in one table at ``path``.

    Column m is cut by ``np.linspace(lo, hi, bins + 1)`` over its range
    (``hi = lo + 1`` when constant) into bins [e_i, e_i+1) as in
    np.histogram, the last one closed.  A value's bin is estimated from
    the range, then stepped along the column's edges until they bracket
    it: exactly ``searchsorted(edges, z, "right") - 1``, also where
    rounding collapses edges.  Edges that rounding puts out of order keep
    searchsorted itself."""
    m = z.shape[1]
    lo, hi = z.min(axis=0), z.max(axis=0)
    hi = np.where(hi <= lo, lo + 1.0, hi)
    with np.errstate(all="ignore"):  # an overflowing range fails below
        # one scalar linspace per column: a vectorized one takes its step-0
        # branch for every column once any column needs it
        edges = np.array([np.linspace(a, b, bins + 1)
                          for a, b in zip(lo.tolist(), hi.tolist())])
        guess = np.subtract(z, lo)
        guess *= bins / (hi - lo)
    if not np.isfinite(edges).all():
        j = int(np.argmax(~np.isfinite(edges).all(axis=1)))
        raise ValueError(f"{path}: axis {j}: feature range "
                         f"{[float(lo[j]), float(hi[j])]} has no finite bin "
                         "edges")
    # key = column * bins + bin; fmin also takes a degenerate column's nan
    np.fmax(np.fmin(guess, bins - 1, out=guess), 0, out=guess)
    key = guess.astype(np.intp)
    key += np.arange(m) * bins
    # Step each key until its bin's edges bracket the value.  The outer
    # edges are opened to -inf and inf, so that bins 0 and bins - 1 take
    # what lies past them.  A value only ever steps one way, so this ends
    # within ``bins`` passes, at the b with e_b <= z < e_b+1.
    table = edges.copy()
    table[:, 0], table[:, -1] = -np.inf, np.inf
    lower, upper = table[:, :-1].ravel(), table[:, 1:].ravel()
    while True:
        step = ((upper.take(key) <= z).view(np.int8)
                - (lower.take(key) > z).view(np.int8))
        if not step.any():
            break
        key += step
    # the step-0 branch of linspace can round subnormal edges out of order
    for j in np.flatnonzero((np.diff(edges, axis=1) < 0).any(axis=1)):
        key[:, j] = j * bins + np.minimum(
            np.searchsorted(edges[j], z[:, j], side="right") - 1, bins - 1)
    counts = np.bincount((key * n_classes + targets[:, None]).ravel(),
                         minlength=m * bins * n_classes)
    counts = counts.reshape(m, bins, n_classes).tolist()
    names = [f"count_{j}" for j in range(n_classes)]
    # each edge formatted once: bin b's bin_hi is bin b+1's bin_lo
    edge_text = [line.split(",") for line in _fmt(edges, sep=",").split()]
    _write(path, _fmt([["bin", "bin_lo", "bin_hi", *names]], HIST_MAGIC, ",")
           + _fmt([(j, b, e[b], e[b + 1], *c[b])
                   for j, (e, c) in enumerate(zip(edge_text, counts))
                   for b in range(bins)], sep=","))


# ---------------------------------------------------------------------------
# dataset plumbing


def load_split(cfg: PipelineConfig, split: str) -> Dataset:
    """Load and preprocess one split restricted to the configured digits."""
    if split not in ("train", "test"):
        raise ValueError(f"unknown split {split!r}")
    img_path, images = _read_input(cfg, f"{split}_images", load_idx_images)
    if images.shape[1:] != (cfg.n1, cfg.n2):
        origin = ", ".join(f"{key} on {cfg.origin[key]}" if key in cfg.origin
                           else f"{key} default" for key in ("n1", "n2"))
        raise ValueError(f"{img_path}: images are {images.shape[1]}x"
                         f"{images.shape[2]}, config says {cfg.n1}x{cfg.n2} "
                         f"({origin})")
    lbl_path, labels = _read_input(cfg, f"{split}_labels", load_idx_labels)
    if len(images) != len(labels):
        raise ValueError(f"{img_path} holds {len(images)} images but "
                         f"{lbl_path} holds {len(labels)} labels")
    digits = cfg.classes()
    counts = [np.count_nonzero(labels == d) for d in digits]
    missing = [d for d, n in zip(digits, counts) if n == 0]
    # training needs every configured digit, an eval split at least one
    if missing and (split == "train" or missing == digits):
        raise ValueError(f"{lbl_path}: no "
                         f"{'training' if split == 'train' else split} "
                         f"images of configured digit(s) {missing}")
    single = [d for d, n in zip(digits, counts) if n == 1]
    if single and split == "train":
        raise ValueError(f"{lbl_path}: only 1 training image of configured "
                         f"digit(s) {single}; a class covariance needs 2")
    # one image repeated has one feature vector, a covariance of 0
    for d in digits if split == "train" else []:
        idx = np.flatnonzero(labels == d)
        if all(np.array_equal(images[i], images[idx[0]]) for i in idx[1:]):
            raise ValueError(f"{img_path}: all {len(idx)} training images of "
                             f"digit {d} are the same; a class covariance "
                             "needs 2 that differ")
    keep = np.isin(labels, digits)
    try:
        return Dataset.from_arrays(images[keep], labels[keep])
    except BlankImageError:  # name the first one as the file counts it
        blank = np.flatnonzero(keep & ~images.any(axis=(1, 2)))[0]
        raise BlankImageError(f"{img_path}: image {blank} is blank") from None


def _read_input(cfg: PipelineConfig, key: str, load):
    """The resolved path of the file named by config ``key`` and what
    ``load`` reads from it; an empty key or a file that cannot be opened
    names the key and its config line (the config file if no line sets
    the key)."""
    where = cfg.origin.get(key, cfg.source)
    if not getattr(cfg, key):
        raise ValueError(f"{where}: {key}: names no file")
    path = cfg.resolve(getattr(cfg, key))
    try:
        return path, load(path)
    except OSError as exc:
        raise _unreadable(f"{where}: {key}", path, exc) from None


def _unreadable(name: str, path, exc: OSError) -> ValueError:
    """``exc`` from reading ``path``, named by ``name``: a config key at
    its line, or a command-line option."""
    return ValueError(f"{name}: {(exc.strerror or str(exc)).lower()} "
                      f"{str(path)!r}")


def class_targets(cfg: PipelineConfig, labels: np.ndarray) -> np.ndarray:
    """Map digit labels to 0-based class indices in config order."""
    match = np.asarray(labels)[:, None] == np.asarray(cfg.classes())
    if not match.any(axis=1).all():
        raise ValueError("dataset contains labels outside configured classes")
    return match.argmax(axis=1)


# ---------------------------------------------------------------------------
# commands


def cmd_train_axes(cfg: PipelineConfig, data: Dataset,
                   out_dir) -> tuple[forest.AxisBundle, str]:
    """Grow every configured forest on ``data``; write the axis bundle to
    ``<out>/axes.txt`` and return it with the SHA-256 hex digest of the
    file's bytes.

    Nothing is written until every forest has grown and ``svd_k`` has
    compressed the bundle, so a run that fails leaves the files of an
    earlier run there as they were."""
    out = Path(out_dir)
    mesh = fem.build_mesh(cfg.n1, cfg.n2)
    # Every forest grows on all the samples, so every label must be a
    # configured digit, which for a pair config is one of the pair's two.
    class_targets(cfg, data.labels)
    bundles, provenance = {}, []
    for name, ref, positive in cfg.forests():
        ybin = (data.labels == positive).astype(np.int64)
        log.info("forest %s: %d samples (%d/%d per class)", name, len(ybin),
                 int((ybin == 0).sum()), int((ybin == 1).sum()))
        try:
            b = forest.generate_axes(data.gray, ybin, cfg.n_axes,
                                     cfg.optimizer_config(ref), mesh)
        except RuntimeError as exc:   # an axis that failed
            raise RuntimeError(f"forest {name}: {exc}") from exc
        provenance += [{"forest": name, **prov} for prov in b.provenance]
        bundles[name] = b

    axes = np.vstack([b.axes for b in bundles.values()])
    combined = forest.AxisBundle(axes=axes, n1=cfg.n1, n2=cfg.n2)
    if cfg.svd_k > 0:
        # Exhausted pools can leave fewer axes than requested; compress to
        # what exists rather than failing the run.
        k = min(cfg.svd_k, combined.n_axes)
        if k < cfg.svd_k:
            log.warning("svd_k=%d capped to %d available axes",
                        cfg.svd_k, combined.n_axes)
        try:
            combined = forest.orthonormalize(combined, k)
        except ValueError as exc:
            raise ValueError(f"{cfg.origin.get('svd_k', cfg.source)}: svd_k: "
                             f"{exc}") from None

    for name, b in bundles.items():
        save_fields(out / f"fields_{name}.txt", cfg.n1, cfg.n2, b.fields)
    sha256 = save_axes(out / "axes.txt", combined)
    _write(out / "axes_provenance.json", _json(provenance))
    return combined, sha256


def _load_bundle(cfg: PipelineConfig,
                 path) -> tuple[forest.AxisBundle, str]:
    """The bundle at ``path`` and the SHA-256 hex digest of its bytes,
    which are read once."""
    data = Path(path).read_bytes()
    bundle = load_axes(path, data)
    if (bundle.n1, bundle.n2) != (cfg.n1, cfg.n2):
        raise ValueError(f"{path}: bundle is {bundle.n1}x{bundle.n2}, config "
                         f"says {cfg.n1}x{cfg.n2}")
    return bundle, hashlib.sha256(data).hexdigest()


def cmd_train(cfg: PipelineConfig, bundle_path, data: Dataset,
              out_dir) -> Path:
    """Fit the per-class Gaussian model on the training split ``data``."""
    out = Path(out_dir)
    try:
        bundle, sha256 = _load_bundle(cfg, bundle_path)
    except OSError as exc:
        raise _unreadable("--bundle", bundle_path, exc) from None
    _fit(cfg, bundle, sha256, bundle_path, data, out)
    return out / "model.txt"


def _fit(cfg: PipelineConfig, bundle: forest.AxisBundle, bundle_sha256: str,
         bundle_path, data: Dataset, out: Path):
    """Fit the model on ``data`` and write ``model.txt``, which refers to
    ``bundle_path`` and its digest; returns the model and the features of
    ``data``."""
    targets = class_targets(cfg, data.labels)
    z = classifier.features_from_gray(bundle, data.gray)
    try:
        model = classifier.fit(z, targets, len(cfg.classes()),
                               names=[f"digit {d}" for d in cfg.classes()])
    except (ValueError, OverflowError) as exc:
        raise type(exc)(f"{cfg.resolve(cfg.train_images)}: {exc} (features "
                        f"on the axes of {bundle_path})") from None
    bundle_ref = os.path.relpath(Path(bundle_path).resolve(), out.resolve())
    save_model(out / "model.txt", model, bundle_ref, bundle_sha256,
               cfg.echo_items())
    return model, z


def cmd_eval(cfg: PipelineConfig, model_path, data: Dataset, split: str,
             out_dir) -> dict:
    """Evaluate a model on the ``split`` ``data`` as ``_evaluate`` does."""
    out = Path(out_dir)
    try:
        model, bundle_ref, bundle_sha256, echo = load_model(model_path)
    except OSError as exc:
        raise _unreadable("--model", model_path, exc) from None
    if len(model) != len(cfg.classes()):
        raise ValueError(f"{model_path}: model has {len(model)} classes, "
                         f"config says {len(cfg.classes())}")
    line = {key: i for i, (key, _) in enumerate(echo, start=ECHO_LINE)}
    echo = dict(echo)
    trained = PipelineConfig(**{k: echo.get(k, "") for k in
                                ("class_pairs", "one_vs_rest")})
    try:
        digits = trained.classes()
    except ValueError as exc:   # classes() reads one_vs_rest if it is set
        key = "one_vs_rest" if trained.one_vs_rest else "class_pairs"
        where = f"{model_path}:{line[key]}" if key in line else model_path
        raise ValueError(f"{where}: config echo: {key}: {exc}") from None
    if digits != cfg.classes():
        raise ValueError(f"{model_path}: model was trained on classes "
                         f"{digits}, config says {cfg.classes()}")
    bundle_path = Path(model_path).parent / bundle_ref
    try:
        bundle, sha256 = _load_bundle(cfg, bundle_path)
    except OSError as exc:
        raise _unreadable(f"{model_path}:2: bundle", bundle_path,
                          exc) from None
    if sha256 != bundle_sha256:
        raise ValueError(f"{model_path}: model was fitted on a bundle of "
                         f"SHA-256 {bundle_sha256}, but {bundle_path} has "
                         f"SHA-256 {sha256}")
    if len(model[0].mean) != bundle.n_axes:
        raise ValueError(f"{model_path}: model has dim {len(model[0].mean)}, "
                         f"but {bundle_path} holds {bundle.n_axes} axes")
    z = classifier.features_from_gray(bundle, data.gray)
    return _evaluate(cfg, model, z, data, split, out)


def _evaluate(cfg: PipelineConfig, model: list[classifier.ClassGaussian],
              z: np.ndarray, data: Dataset, split: str,
              out: Path) -> dict:
    """Score the features ``z`` of ``data``; writes CSVs and the report
    ``report_<split>.json`` and returns the report: ``config``, ``n_axes``,
    and the split's confusion, the other split's being ``None``."""
    targets = class_targets(cfg, data.labels)
    beta = classifier.discriminants(model, z)
    # the argmax of beta, not of the posteriors: exp can merge near-ties
    outputs, post = beta.argmax(axis=1), classifier.softmax(beta)
    cm = classifier.confusion_from_predictions(outputs, targets, len(model))

    names = [str(d) for d in cfg.classes()]
    write_confusion_csv(out / f"confusion_{split}.csv", cm, names)
    _write(out / f"predictions_{split}.csv",
           _fmt([["index", "target", "output",
                  *(f"posterior_{c}" for c in names)]], PRED_MAGIC, ",")
           + _fmt(zip(range(len(targets)), targets.tolist(),
                      outputs.tolist(), *post.T.tolist()), sep=","))
    write_histogram_csv(out / f"hist_{split}.csv", z, targets, len(model))

    report = {"config": dict(cfg.echo_items()), "n_axes": z.shape[1],
              "train_confusion": None, "test_confusion": None,
              f"{split}_confusion": cm}
    _write(out / f"report_{split}.json", _json(report))
    return report


def cmd_inspect(path, out_dir) -> list[Path]:
    """Render a stored artifact to PGM rasters and raw-value CSVs.

    The artifact is read in full before ``out_dir`` is created, so one
    that fails to load leaves no directory behind."""
    path = Path(path)
    with _text_file(path) as f:
        header = f.readline().strip()
    # the kind's loader names a version it does not read
    kind = header.partition(" ")[0]
    grids = []   # (stem, grid, also as a raster)
    if kind == AXES_MAGIC.partition(" ")[0]:
        bundle = load_axes(path)
        for m, axis in enumerate(bundle.axes):
            grids.append((f"axis_{m}", node_grid(axis, bundle.n1, bundle.n2),
                          True))
    elif kind == FIELDS_MAGIC.partition(" ")[0]:
        n1, n2, records = load_fields(path)
        for i, rec in enumerate(records):
            grids += [(f"axis_{i}_{k}", node_grid(rec[k], n1, n2), True)
                      for k in "fg"]
            grids += [(f"axis_{i}_{k}", element_grid(rec[k], n1, n2), True)
                      for k in "pq"]
    elif kind == MODEL_MAGIC.partition(" ")[0]:
        model = load_model(path)[0]
        for j, g in enumerate(model):
            grids += [(f"class_{j}_mean", g.mean[None, :], False),
                      (f"class_{j}_cov", g.cov, False)]
    else:
        raise ValueError(f"{path}:1: unrecognized artifact header {header!r}")

    out = Path(out_dir)
    written: list[Path] = []
    for stem, grid, raster in grids:
        if raster:
            write_pgm(out / f"{stem}.pgm", grid)
            written.append(out / f"{stem}.pgm")
        write_field_csv(out / f"{stem}.csv", stem, grid)
        written.append(out / f"{stem}.csv")
    return written


def cmd_pipeline(cfg: PipelineConfig, out_dir) -> dict:
    """Load both splits, then train-axes, train, and eval on both.

    The bundle, the model and the training features pass from step to
    step in memory; the files they are written to are not read back."""
    out = Path(out_dir)
    t0 = time.perf_counter()
    train, test = load_split(cfg, "train"), load_split(cfg, "test")
    t1 = time.perf_counter()
    bundle, sha256 = cmd_train_axes(cfg, train, out)
    t2 = time.perf_counter()
    model, z_train = _fit(cfg, bundle, sha256, out / "axes.txt", train, out)
    t3 = time.perf_counter()
    train_report = _evaluate(cfg, model, z_train, train, "train", out)
    z_test = classifier.features_from_gray(bundle, test.gray)
    test_report = _evaluate(cfg, model, z_test, test, "test", out)
    t4 = time.perf_counter()

    report = {**train_report, "test_confusion": test_report["test_confusion"]}
    _write(out / "report.json", _json(report))
    # Timing is useful but non-reproducible, so it lives outside the report.
    _write(out / "timing.txt",
           f"load {t1 - t0:.3f}s\ntrain_axes {t2 - t1:.3f}s\n"
           f"train {t3 - t2:.3f}s\neval {t4 - t3:.3f}s\n"
           f"total {t4 - t0:.3f}s\n")
    return report
