"""Shared fixtures: meshes, synthetic image classes, and MNIST gating."""

from __future__ import annotations

import gzip
import os
import shutil
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from meip import fem

MNIST_FILES = {
    "train_images": "train-images-idx3-ubyte",
    "train_labels": "train-labels-idx1-ubyte",
    "test_images": "t10k-images-idx3-ubyte",
    "test_labels": "t10k-labels-idx1-ubyte",
}


def _mnist_source_dir() -> Path | None:
    env = os.environ.get("MEIP_MNIST_DIR")
    candidates = [Path(env)] if env else []
    candidates.append(Path(__file__).resolve().parent.parent / "data" / "mnist")
    for cand in candidates:
        if cand.is_dir() and all(
                (cand / n).exists() or (cand / (n + ".gz")).exists()
                for n in MNIST_FILES.values()):
            return cand
    return None


@pytest.fixture(scope="session")
def mnist_dir(tmp_path_factory) -> Path:
    """Directory with the four raw IDX files, or a skip if unavailable."""
    src = _mnist_source_dir()
    if src is None:
        pytest.skip("MNIST dataset not available (set MEIP_MNIST_DIR or "
                    "place the IDX files under data/mnist/)")
    if all((src / n).exists() for n in MNIST_FILES.values()):
        return src
    cache = tmp_path_factory.mktemp("mnist")
    for name in MNIST_FILES.values():
        raw, gz = src / name, src / (name + ".gz")
        if raw.exists():
            shutil.copy(raw, cache / name)
        else:
            with gzip.open(gz, "rb") as fin, open(cache / name, "wb") as fout:
                shutil.copyfileobj(fin, fout)
    return cache


@pytest.fixture(scope="session")
def mesh4() -> fem.GridMesh:
    return fem.build_mesh(4, 4)


@pytest.fixture(scope="session")
def mesh3() -> fem.GridMesh:
    return fem.build_mesh(3, 3)


def element_matrices_rational() -> tuple[list, list]:
    """Exact rational (Kp, Kq) of the unit-square element, written out
    from the published numerators for arithmetic-identity checks."""
    kp = [[Fraction(n, 24) for n in row] for row in
          [[4, -1, -2, -1], [-1, 4, -1, -2], [-2, -1, 4, -1], [-1, -2, -1, 4]]]
    kq = [[Fraction(n, 36) for n in row] for row in
          [[4, 2, 1, 2], [2, 4, 2, 1], [1, 2, 4, 2], [2, 1, 2, 4]]]
    return kp, kq


def random_design(mesh: fem.GridMesh, rng: np.random.Generator,
                  tolp: float = 1.0, tolq: float = 1.0,
                  p_min: float = 1e-3, q_min: float = 1e-3) -> fem.DesignField:
    """Random positive design respecting bounds and budget totals."""
    def draw(total, mn):
        raw = rng.uniform(0.5, 1.5, mesh.ne)
        raw = raw / raw.sum() * (total - mn * mesh.ne)
        return raw + mn
    return fem.DesignField(p=draw(tolp, p_min), q=draw(tolq, q_min),
                           p_min=p_min, q_min=q_min, tolp=tolp, tolq=tolq)


def bar_images(n: int, count: int, rng: np.random.Generator,
               noise: int = 0):
    """Two shape-distinct classes (horizontal / vertical bar), uint8.

    Class labels are 0 (horizontal) and 1 (vertical); the shapes survive
    centroid alignment, unlike position-only differences.
    """
    mid = n // 2
    images = np.zeros((count, n, n), dtype=np.uint8)
    labels = np.zeros(count, dtype=np.int64)
    for i in range(count):
        if i % 2 == 0:
            images[i, mid - 1:mid + 1, :] = rng.integers(120, 255, (2, n))
            labels[i] = 0
        else:
            images[i, :, mid - 1:mid + 1] = rng.integers(120, 255, (n, 2))
            labels[i] = 1
        if noise:
            images[i] = np.clip(
                images[i].astype(int)
                + rng.integers(0, noise, (n, n)), 0, 255).astype(np.uint8)
    return images, labels


def blob_grays(mesh: fem.GridMesh, count: int, rng: np.random.Generator,
               spread: float = 0.6):
    """Two overlapping blob classes directly as unit-norm gray matrices."""
    n1, n2 = mesh.n1, mesh.n2
    r = np.arange(n1)[:, None]
    c = np.arange(n2)[None, :]

    def draw(cx, cy, m):
        out = np.empty((m, mesh.ne))
        for i in range(m):
            img = np.exp(-((r - cx - rng.normal(0, 0.3)) ** 2
                           + (c - cy - rng.normal(0, 0.3)) ** 2)
                         / (2 * spread ** 2))
            img += 0.02 * rng.random((n1, n2))
            flat = img.reshape(-1, order="F")
            out[i] = flat / np.linalg.norm(flat)
        return out

    g1 = draw(n1 * 0.25, n2 * 0.25, count)
    g0 = draw(n1 * 0.7, n2 * 0.7, count)
    return g1, g0
