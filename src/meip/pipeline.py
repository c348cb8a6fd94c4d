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
"""

from __future__ import annotations

import json
import logging
import os
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

__all__ = ["PipelineConfig", "RunReport", "load_config", "save_axes",
           "load_axes", "save_model", "load_model", "write_pgm",
           "write_field_csv", "write_confusion_csv", "cmd_train_axes",
           "cmd_train", "cmd_eval", "cmd_inspect", "cmd_pipeline"]

log = logging.getLogger(__name__)

AXES_MAGIC = "MEIP-AXES 1"
MODEL_MAGIC = "MEIP-MODEL 1"
FIELDS_MAGIC = "MEIP-FIELDS 1"
FIELD_MAGIC = "MEIP-FIELD 1"
CONFUSION_MAGIC = "MEIP-CONFUSION 1"
HIST_MAGIC = "MEIP-HIST 2"


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
class PipelineConfig:
    """Parsed run configuration with the published experiment defaults.

    The fields are the config schema: every field but ``base_dir`` is a
    config key of the field's name and type (``lam`` is spelled
    ``lambda``).  The optimizer settings default to ``OptimizerConfig``.
    """

    n1: int = 28
    n2: int = 28
    lam: float = OptimizerConfig.lam
    tolp: float = OptimizerConfig.tolp
    tolq: float = OptimizerConfig.tolq
    p_min: float = OptimizerConfig.p_min
    q_min: float = OptimizerConfig.q_min
    sigma0: float = OptimizerConfig.sigma0
    dx_max: float = OptimizerConfig.dx_max
    eps_x: float = OptimizerConfig.eps_x
    eps_j: float = OptimizerConfig.eps_j
    gamma: float = OptimizerConfig.gamma
    max_iters: int = OptimizerConfig.max_iters
    ref_kind: str = OptimizerConfig.ref_kind  # comma list: one forest per kind
    n_axes: int = 1
    ridge: float = 1e-6
    svd_k: int = 0
    class_pairs: str = ""           # e.g. "0:1" or "3:4"
    one_vs_rest: str = ""           # e.g. "0,1,2,3,4"
    train_images: str = ""
    train_labels: str = ""
    test_images: str = ""
    test_labels: str = ""
    out_dir: str = "out"
    base_dir: Path = field(default_factory=Path)

    def optimizer_config(self, ref_kind: str) -> OptimizerConfig:
        cfg = OptimizerConfig(
            **{name: getattr(self, name) for name in _OPTIMIZER_FIELDS})
        cfg.ref_kind = ref_kind
        cfg.validate()
        return cfg

    def ref_kinds(self) -> list[str]:
        kinds = [r.strip() for r in self.ref_kind.split(",") if r.strip()]
        _once(kinds)
        return kinds

    def classes(self) -> list[int]:
        """Digits participating in classification, in declared order."""
        if self.one_vs_rest:
            digits = [_digit(t) for t in self.one_vs_rest.split(",")]
            if len(set(digits)) != len(digits) or len(digits) < 2:
                raise ValueError("one_vs_rest must list at least 2 distinct "
                                 "digits")
            return digits
        digits = list(dict.fromkeys(d for pair in self.pairs() for d in pair))
        if len(digits) != 2:
            raise ValueError(
                "class_pairs must involve exactly 2 digits for a binary "
                "classifier; use one_vs_rest for more")
        return digits

    def pairs(self) -> list[tuple[int, int]]:
        if not self.class_pairs:
            return []
        out = []
        for tok in self.class_pairs.split(","):
            digits = tok.split(":")
            if len(digits) != 2:
                raise ValueError(f"expected a digit pair 'a:b', got {tok!r}")
            out.append((_digit(digits[0]), _digit(digits[1])))
        _once([f"{a}:{b}" for a, b in out])
        return out

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
        if attr == "ridge" and not 0 <= value < np.inf:
            raise ValueError("must be finite and not negative")
        if attr in ("class_pairs", "one_vs_rest") and value:
            PipelineConfig(**{attr: value}).classes()
        if attr == "ref_kind" and not self.ref_kinds():
            raise ValueError("names no reference kind")
        if attr in _OPTIMIZER_FIELDS:
            for ref in self.ref_kinds():
                self.optimizer_config(ref)


def _once(names: list[str]) -> None:
    """Raise if ``names`` repeats one: each name grows its own forest."""
    for i, name in enumerate(names):
        if name in names[:i]:
            raise ValueError(f"names {name} twice")


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
               for f in dc_fields(PipelineConfig) if f.name != "base_dir"}


def load_config(path) -> PipelineConfig:
    """Parse a key = value config file.

    Unknown keys, a key given twice and values that cannot run are hard
    errors that name the file, the line and the key.
    """
    path = Path(path)
    cfg = PipelineConfig(base_dir=path.parent)
    first_line = {}
    with _text_file(path) as f:
        text = f.read()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
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
    # Every element holds at least its lower bound, so the bounds alone
    # must fit in the budget, or the first move-limit LP has no room.
    for low, budget in (("p_min", "tolp"), ("q_min", "tolq")):
        floor = getattr(cfg, low) * cfg.n1 * cfg.n2
        if floor > getattr(cfg, budget):
            where = ", ".join(f"{key} on line {first_line[key]}"
                              for key in (low, budget, "n1", "n2")
                              if key in first_line)
            raise ValueError(
                f"{path}: {low} * n1 * n2 = {floor!r} exceeds {budget} = "
                f"{getattr(cfg, budget)!r} ({where})")
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
def _text_file(path):
    """``open(path)``, where a byte that is not UTF-8 names the file."""
    try:
        with open(path) as f:
            yield f
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 text ({exc.reason})") from None


@contextmanager
def _reading(path, magic: str, kind: str, sep: str | None = None):
    """Yield a reader past the magic line, whose rest (a CSV's header
    fields) is ``reader.header``; nothing may follow the rows read."""
    with _text_file(path) as f:
        found, _, header = f.readline().strip().partition(sep or "\n")
        r = _Reader(f, path, sep, header)
        if found != magic:
            raise r.error(f"not {kind} ({found[:40]!r})")
        yield r
        if f.readline():
            r.lineno += 1
            raise r.error("expected end of file")


def save_axes(path, bundle: forest.AxisBundle) -> None:
    with open(path, "w") as f:
        f.write(AXES_MAGIC + "\n")
        f.write(_fmt([[bundle.n1, bundle.n2, bundle.axes.shape[1],
                       bundle.n_axes]]))
        f.write(_fmt(bundle.axes))


def load_axes(path) -> forest.AxisBundle:
    with _reading(path, AXES_MAGIC, "an axis bundle file") as r:
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
               bundle_ref: str, config_items: list[tuple[str, str]]) -> None:
    with open(path, "w") as f:
        f.write(MODEL_MAGIC + "\n")
        f.write(_fmt([[bundle_ref]], "bundle"))
        f.write(_fmt([[len(config_items)]], "config"))
        f.write(_fmt(config_items, sep=" = "))
        f.write(_fmt([[len(model), "dim", model[0].mean.shape[0]]], "classes"))
        for j, g in enumerate(model):
            f.write(_fmt([[j]], "class"))
            f.write(_fmt([[g.prior]], "prior"))
            f.write(_fmt(g.mean[None], "mean"))
            f.write(_fmt(g.cov, "cov"))


def load_model(path):
    """Load a model file; returns (model, bundle_ref, config_items).

    The bundle reference and config values are read verbatim (paths may
    hold spaces).  The discriminant terms are recomputed from the stored
    moments, which reproduces the fitted parameters bit for bit.
    """
    with _reading(path, MODEL_MAGIC, "a model file") as r:
        bundle_ref = r.text("bundle")
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
            except ValueError as exc:
                raise r.error(f"expected a valid class {j}: {exc}") from None
    return model, bundle_ref, config_items


def save_fields(path, n1: int, n2: int, records: list[dict]) -> None:
    """Per-axis mean forces and final designs of one forest."""
    with open(path, "w") as f:
        f.write(FIELDS_MAGIC + "\n")
        f.write(_fmt([[n1, n2, len(records)]]))
        for i, rec in enumerate(records):
            f.write(_fmt([[i]], "axis"))
            f.writelines(_fmt([rec[name]], name) for name in "fgpq")


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
    data = scaled.clip(0, 255).astype(np.uint8)
    h, w = data.shape
    with open(path, "wb") as f:
        f.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        f.write(data.tobytes())


def write_field_csv(path, name: str, grid: np.ndarray) -> None:
    grid = np.atleast_2d(np.asarray(grid, dtype=np.float64))
    with open(path, "w") as f:
        f.write(_fmt([[name, *grid.shape]], FIELD_MAGIC, ","))
        f.write(_fmt(grid, sep=","))


def node_grid(values: np.ndarray, n1: int, n2: int) -> np.ndarray:
    """Node vector -> (n1+1, n2+1) grid in mesh (row, column) layout."""
    return np.asarray(values).reshape((n2 + 1, n1 + 1)).T


def element_grid(values: np.ndarray, n1: int, n2: int) -> np.ndarray:
    return np.asarray(values).reshape((n2, n1)).T


def write_confusion_csv(path, cm: classifier.ConfusionMatrix,
                        class_names: list[str]) -> None:
    """Confusion matrix with precision/recall margins and total accuracy."""
    with open(path, "w") as f:
        f.write(_fmt([[*(f"target_{c}" for c in class_names), "precision"]],
                     CONFUSION_MAGIC, ","))
        f.write(_fmt([(f"output_{c}", *cm.counts[i], cm.precision[i])
                      for i, c in enumerate(class_names)], sep=","))
        f.write(_fmt([[*cm.recall, cm.accuracy]], "recall", ","))


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
    with open(path, "w") as f:
        f.write(_fmt([["bin", "bin_lo", "bin_hi", *names]], HIST_MAGIC, ","))
        f.write(_fmt([(j, b, e[b], e[b + 1], *c[b])
                      for j, (e, c) in enumerate(zip(edge_text, counts))
                      for b in range(bins)], sep=","))


# ---------------------------------------------------------------------------
# dataset plumbing


def load_split(cfg: PipelineConfig, split: str) -> Dataset:
    """Load and preprocess one split restricted to the configured digits."""
    if split not in ("train", "test"):
        raise ValueError(f"unknown split {split!r}")
    img_path = getattr(cfg, f"{split}_images")
    lbl_path = getattr(cfg, f"{split}_labels")
    if not img_path or not lbl_path:
        raise ValueError(f"config does not define {split} dataset paths")
    img_path, lbl_path = cfg.resolve(img_path), cfg.resolve(lbl_path)
    images = load_idx_images(img_path)
    if images.shape[1:] != (cfg.n1, cfg.n2):
        raise ValueError(f"{img_path}: images are {images.shape[1]}x"
                         f"{images.shape[2]}, config says {cfg.n1}x{cfg.n2}")
    labels = load_idx_labels(lbl_path)
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
    keep = np.isin(labels, digits)
    try:
        return Dataset.from_arrays(images[keep], labels[keep])
    except BlankImageError:  # name the first one as the file counts it
        blank = np.flatnonzero(keep & ~images.any(axis=(1, 2)))[0]
        raise BlankImageError(f"{img_path}: image {blank} is blank") from None


def class_targets(cfg: PipelineConfig, labels: np.ndarray) -> np.ndarray:
    """Map digit labels to 0-based class indices in config order."""
    digits = cfg.classes()
    lut = np.full(max(digits) + 1, -1, dtype=np.int64)
    lut[digits] = np.arange(len(digits))
    targets = lut[labels]
    if np.any(targets < 0):
        raise ValueError("dataset contains labels outside configured classes")
    return targets


def _forests(cfg: PipelineConfig, labels: np.ndarray):
    """Yield (name, ref_kind, selection mask, 0/1 labels of the selected
    samples) for each forest, in config order."""
    if cfg.class_pairs:
        views = ((f"{a}v{b}", np.isin(labels, (a, b)), labels == b)
                 for a, b in cfg.pairs())
    else:
        views = ((f"{d}vrest", np.ones(len(labels), dtype=bool), labels == d)
                 for d in cfg.classes())
    for stem, mask, positive in views:
        ybin = positive[mask].astype(np.int64)
        for ref in cfg.ref_kinds():
            yield f"{stem}_{ref}", ref, mask, ybin


# ---------------------------------------------------------------------------
# reports


@dataclass
class RunReport:
    """Deterministic summary of a run; timing is reported separately."""

    config: dict
    n_axes: int = 0
    train_confusion: dict | None = None
    test_confusion: dict | None = None

    def to_json(self) -> str:
        # vars, not asdict: the fields are plain JSON values, and asdict
        # deep-copies them
        return json.dumps(vars(self), indent=2, sort_keys=True) + "\n"


def _confusion_dict(cm: classifier.ConfusionMatrix) -> dict:
    return {"counts": cm.counts.tolist(),
            "precision": [float(v) for v in cm.precision],
            "recall": [float(v) for v in cm.recall],
            "accuracy": cm.accuracy,
            "total": cm.total}


# ---------------------------------------------------------------------------
# commands


def cmd_train_axes(cfg: PipelineConfig, data: Dataset,
                   out_dir) -> forest.AxisBundle:
    """Grow every configured forest on ``data``; write the axis bundle to
    ``<out_dir>/axes.txt`` and return it."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    mesh = fem.build_mesh(cfg.n1, cfg.n2)
    bundles, provenance = [], []
    for name, ref, mask, ybin in _forests(cfg, data.labels):
        log.info("forest %s: %d samples (%d/%d per class)", name,
                 int(mask.sum()), int((ybin == 0).sum()), int((ybin == 1).sum()))
        b = forest.generate_axes(data.gray[mask], ybin, cfg.n_axes,
                                 cfg.optimizer_config(ref), mesh)
        save_fields(out / f"fields_{name}.txt", cfg.n1, cfg.n2, b.fields)
        provenance += [{"forest": name, **prov} for prov in b.provenance]
        bundles.append(b)

    axes = np.vstack([b.axes for b in bundles])
    combined = forest.AxisBundle(axes=axes, n1=cfg.n1, n2=cfg.n2)
    if cfg.svd_k > 0:
        # Exhausted pools can leave fewer axes than requested; compress to
        # what exists rather than failing the run.
        k = min(cfg.svd_k, combined.n_axes)
        if k < cfg.svd_k:
            log.warning("svd_k=%d capped to %d available axes",
                        cfg.svd_k, combined.n_axes)
        combined = forest.orthonormalize(combined, k)

    save_axes(out / "axes.txt", combined)
    (out / "axes_provenance.json").write_text(
        json.dumps(provenance, indent=2, sort_keys=True) + "\n")
    return combined


def _load_bundle(cfg: PipelineConfig, path) -> forest.AxisBundle:
    bundle = load_axes(path)
    if (bundle.n1, bundle.n2) != (cfg.n1, cfg.n2):
        raise ValueError(f"{path}: bundle is {bundle.n1}x{bundle.n2}, config "
                         f"says {cfg.n1}x{cfg.n2}")
    return bundle


def cmd_train(cfg: PipelineConfig, bundle_path, data: Dataset,
              out_dir) -> Path:
    """Fit the per-class Gaussian model on the training split ``data``."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _fit(cfg, _load_bundle(cfg, bundle_path), bundle_path, data, out)
    return out / "model.txt"


def _fit(cfg: PipelineConfig, bundle: forest.AxisBundle, bundle_path,
         data: Dataset, out: Path):
    """Fit the model on ``data`` and write ``model.txt``, which refers to
    ``bundle_path``; returns the model and the features of ``data``."""
    targets = class_targets(cfg, data.labels)
    z = classifier.features_from_gray(bundle, data.gray)
    model = classifier.fit(z, targets, len(cfg.classes()), ridge=cfg.ridge)
    bundle_ref = os.path.relpath(Path(bundle_path).resolve(), out.resolve())
    save_model(out / "model.txt", model, bundle_ref, cfg.echo_items())
    return model, z


def cmd_eval(cfg: PipelineConfig, model_path, data: Dataset, split: str,
             out_dir) -> RunReport:
    """Evaluate a model on the ``split`` ``data``; writes CSVs and a report."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    model, bundle_ref, echo = load_model(model_path)
    if len(model) != len(cfg.classes()):
        raise ValueError(f"{model_path}: model has {len(model)} classes, "
                         f"config says {len(cfg.classes())}")
    echo = dict(echo)
    # older versions echo the image scaling, which was a setting
    if echo.get("norm", "l2") != "l2":
        raise ValueError(f"{model_path}: model was trained with norm "
                         f"{echo['norm']}; images are scaled to unit l2 norm")
    trained = PipelineConfig(**{k: echo.get(k, "") for k in
                                ("class_pairs", "one_vs_rest")})
    try:
        digits = trained.classes()
    except ValueError as exc:
        raise ValueError(f"{model_path}: config echo: {exc}") from None
    if digits != cfg.classes():
        raise ValueError(f"{model_path}: model was trained on classes "
                         f"{digits}, config says {cfg.classes()}")
    bundle_path = Path(model_path).parent / bundle_ref
    bundle = _load_bundle(cfg, bundle_path)
    if len(model[0].mean) != bundle.n_axes:
        raise ValueError(f"{model_path}: model has dim {len(model[0].mean)}, "
                         f"but {bundle_path} holds {bundle.n_axes} axes")
    z = classifier.features_from_gray(bundle, data.gray)
    return _evaluate(cfg, model, z, data, split, out)


def _evaluate(cfg: PipelineConfig, model: list[classifier.ClassGaussian],
              z: np.ndarray, data: Dataset, split: str,
              out: Path) -> RunReport:
    """Score the features ``z`` of ``data``; writes CSVs and a report."""
    targets = class_targets(cfg, data.labels)
    beta = classifier.discriminants(model, z)
    # the argmax of beta, not of the posteriors: exp can merge near-ties
    outputs, post = beta.argmax(axis=1), classifier.softmax(beta)
    cm = classifier.confusion_from_predictions(outputs, targets, len(model))

    names = [str(d) for d in cfg.classes()]
    write_confusion_csv(out / f"confusion_{split}.csv", cm, names)
    with open(out / f"predictions_{split}.csv", "w") as f:
        f.write(_fmt([["index", "target", "output",
                       *(f"posterior_{c}" for c in names)]], "MEIP-PRED 1",
                     ","))
        f.write(_fmt(zip(range(len(targets)), targets.tolist(),
                         outputs.tolist(), *post.T.tolist()), sep=","))
    write_histogram_csv(out / f"hist_{split}.csv", z, targets, len(model))

    report = RunReport(config=dict(cfg.echo_items()), n_axes=z.shape[1],
                       **{f"{split}_confusion": _confusion_dict(cm)})
    (out / f"report_{split}.json").write_text(report.to_json())
    return report


def cmd_inspect(path, out_dir) -> list[Path]:
    """Render a stored artifact to PGM rasters and raw-value CSVs.

    The artifact is read in full before ``out_dir`` is created, so one
    that fails to load leaves no directory behind."""
    path = Path(path)
    with _text_file(path) as f:
        header = f.readline().strip()
    grids = []   # (stem, grid, also as a raster)
    if header == AXES_MAGIC:
        bundle = load_axes(path)
        for m, axis in enumerate(bundle.axes):
            grids.append((f"axis_{m}", node_grid(axis, bundle.n1, bundle.n2),
                          True))
    elif header == FIELDS_MAGIC:
        n1, n2, records = load_fields(path)
        for i, rec in enumerate(records):
            grids += [(f"axis_{i}_{k}", node_grid(rec[k], n1, n2), True)
                      for k in "fg"]
            grids += [(f"axis_{i}_{k}", element_grid(rec[k], n1, n2), True)
                      for k in "pq"]
    elif header == MODEL_MAGIC:
        model, _, _ = load_model(path)
        for j, g in enumerate(model):
            grids += [(f"class_{j}_mean", g.mean[None, :], False),
                      (f"class_{j}_cov", g.cov, False)]
    else:
        raise ValueError(f"{path}:1: unrecognized artifact header {header!r}")

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    for stem, grid, raster in grids:
        if raster:
            write_pgm(out / f"{stem}.pgm", grid)
            written.append(out / f"{stem}.pgm")
        write_field_csv(out / f"{stem}.csv", stem, grid)
        written.append(out / f"{stem}.csv")
    return written


def cmd_pipeline(cfg: PipelineConfig, out_dir) -> RunReport:
    """Load both splits, then train-axes, train, and eval on both.

    The bundle, the model and the training features pass from step to
    step in memory; the files they are written to are not read back."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    train, test = load_split(cfg, "train"), load_split(cfg, "test")
    t1 = time.perf_counter()
    bundle = cmd_train_axes(cfg, train, out)
    t2 = time.perf_counter()
    model, z_train = _fit(cfg, bundle, out / "axes.txt", train, out)
    t3 = time.perf_counter()
    train_report = _evaluate(cfg, model, z_train, train, "train", out)
    z_test = classifier.features_from_gray(bundle, test.gray)
    test_report = _evaluate(cfg, model, z_test, test, "test", out)
    t4 = time.perf_counter()

    report = RunReport(config=dict(cfg.echo_items()),
                       n_axes=train_report.n_axes,
                       train_confusion=train_report.train_confusion,
                       test_confusion=test_report.test_confusion)
    (out / "report.json").write_text(report.to_json())
    # Timing is useful but non-reproducible, so it lives outside the report.
    (out / "timing.txt").write_text(
        f"load {t1 - t0:.3f}s\ntrain_axes {t2 - t1:.3f}s\n"
        f"train {t3 - t2:.3f}s\neval {t4 - t3:.3f}s\ntotal {t4 - t0:.3f}s\n")
    return report
