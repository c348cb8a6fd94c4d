"""Seeded synthetic digit-like glyphs written as IDX files.

Each class is a fixed polyline (an ellipse, a bar, a hook, ...) in the
unit square.  A bank holds jittered renderings of every class (rotation,
scale, aspect, stroke width).  A sample takes one variant of its own
class, blends in a variant of another class with weight w ~ U(0, 0.65),
shifts it by a few pixels and adds noise.  The blend makes the classes
overlap, so axis forests keep finding subsets that hold both classes
instead of exhausting their pool after one axis, as clean glyphs do.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

BLEND_MAX = 0.65
VARIANTS = 128
CHUNK = 2048        # samples blended at a time, to bound generator memory


def _arc(cx, cy, rx, ry, a0, a1, n=12):
    t = np.linspace(a0, a1, n)
    return [(cx + rx * np.cos(a), cy + ry * np.sin(a)) for a in t]


# Polylines in (x, y) unit coordinates, y pointing down.
STROKES = {
    0: [_arc(0.5, 0.5, 0.24, 0.34, 0.0, 2 * np.pi, 16)],
    1: [[(0.5, 0.15), (0.5, 0.85)], [(0.38, 0.27), (0.5, 0.15)]],
    2: [_arc(0.5, 0.34, 0.22, 0.19, np.pi, 2.2 * np.pi, 8)
        + [(0.25, 0.84), (0.76, 0.84)]],
    3: [_arc(0.47, 0.33, 0.2, 0.17, -0.8 * np.pi, 0.5 * np.pi, 8),
        _arc(0.47, 0.67, 0.23, 0.17, -0.5 * np.pi, 0.8 * np.pi, 8)],
    4: [[(0.62, 0.85), (0.62, 0.15), (0.24, 0.64), (0.8, 0.64)]],
}
N_CLASSES = len(STROKES)


def _segments(polylines) -> np.ndarray:
    segs = [(a, b) for line in polylines for a, b in zip(line[:-1], line[1:])]
    return np.asarray(segs, dtype=np.float64)        # (S, 2 ends, 2 coords)


def _render(segs: np.ndarray, width: np.ndarray, side: int) -> np.ndarray:
    """Anti-aliased stroke images in [0, 1] from (V, S, 2, 2) pixel segments."""
    yy, xx = np.mgrid[0:side, 0:side].astype(np.float64) + 0.5
    p = np.stack([xx.ravel(), yy.ravel()], axis=1)[None, :, None, :]
    a, b = segs[:, None, :, 0, :], segs[:, None, :, 1, :]     # (V, 1, S, 2)
    ab = b - a
    t = ((p - a) * ab).sum(-1) / np.maximum((ab * ab).sum(-1), 1e-12)
    t = np.clip(t, 0.0, 1.0)[..., None]
    d = np.sqrt(((p - a - t * ab) ** 2).sum(-1)).min(axis=2)   # (V, P)
    img = np.clip(0.5 * width[:, None] + 0.5 - d, 0.0, 1.0)
    return img.reshape(-1, side, side)


def make_bank(rng: np.random.Generator, side: int) -> np.ndarray:
    """(N_CLASSES, VARIANTS, side, side) jittered renderings of each class."""
    bank = np.empty((N_CLASSES, VARIANTS, side, side))
    for k in range(N_CLASSES):
        base = _segments(STROKES[k]) - 0.5                      # (S, 2, 2)
        ang = rng.uniform(-0.3, 0.3, VARIANTS)
        cos, sin = np.cos(ang), np.sin(ang)
        rot = np.stack([np.stack([cos, -sin], -1), np.stack([sin, cos], -1)],
                       axis=1)                                  # (V, 2, 2)
        scale = rng.uniform(0.8, 1.05, VARIANTS)[:, None] * np.stack(
            [rng.uniform(0.8, 1.2, VARIANTS), np.ones(VARIANTS)], axis=1)
        pts = base[None] * scale[:, None, None, :]
        segs = np.einsum("vsej,vij->vsei", pts, rot) * (side * 6 / 7) + side / 2
        width = rng.uniform(1.3, 2.6, VARIANTS) * side / 28
        bank[k] = _render(segs, width, side)
    return bank


def _blend(rng: np.random.Generator, bank: np.ndarray,
           labels: np.ndarray) -> np.ndarray:
    count, side = len(labels), bank.shape[-1]
    own = bank[labels, rng.integers(0, VARIANTS, count)]
    other_cls = (labels + rng.integers(1, N_CLASSES, count)) % N_CLASSES
    other = bank[other_cls, rng.integers(0, VARIANTS, count)]
    w = rng.uniform(0.0, BLEND_MAX, count)[:, None, None]
    img = (1.0 - w) * own + w * other
    shifts = rng.integers(-2, 3, (count, 2)) * side // 28
    for i, (dr, dc) in enumerate(shifts):
        img[i] = np.roll(img[i], (dr, dc), axis=(0, 1))
    img += rng.normal(0.0, 0.04, img.shape)
    return np.rint(np.clip(img, 0.0, 1.0) * 255).astype(np.uint8)


def make_split(rng: np.random.Generator, bank: np.ndarray, classes,
               count: int) -> tuple[np.ndarray, np.ndarray]:
    """``count`` uint8 images with labels spread evenly over ``classes``."""
    classes = np.asarray(classes)
    labels = classes[rng.permutation(np.arange(count) % len(classes))]
    images = np.concatenate([_blend(rng, bank, labels[i:i + CHUNK])
                             for i in range(0, count, CHUNK)])
    return images, labels


def write_dataset(out_dir: Path, rng: np.random.Generator, bank: np.ndarray,
                  classes, n_train: int, n_test: int) -> dict[str, Path]:
    """Write train/test IDX files; returns the paths keyed by config key."""
    from meip.dataset import write_idx_images, write_idx_labels

    out_dir.mkdir(parents=True, exist_ok=True)
    paths = {}
    for split, count in (("train", n_train), ("test", n_test)):
        images, labels = make_split(rng, bank, classes, count)
        paths[f"{split}_images"] = out_dir / f"{split}-images-idx3-ubyte"
        paths[f"{split}_labels"] = out_dir / f"{split}-labels-idx1-ubyte"
        write_idx_images(paths[f"{split}_images"], images)
        write_idx_labels(paths[f"{split}_labels"], labels)
    return paths
