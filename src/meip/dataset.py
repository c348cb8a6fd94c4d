"""IDX image/label container I/O and image preprocessing.

Images are stored row-major in the IDX files; internally every image is a
(n1, n2) uint8 array of (row, column) pixels.  Preprocessing aligns the
intensity centroid to the grid center by an integer pixel shift, scales to
[0, 1], and normalizes each sample, producing a per-element grayscale
vector in column-major pixel order (matching the mesh's column-priority
element numbering).
"""

from __future__ import annotations

import struct

import numpy as np

__all__ = [
    "IdxFormatError",
    "BlankImageError",
    "load_idx_images",
    "load_idx_labels",
    "write_idx_images",
    "write_idx_labels",
    "centroid_shift",
    "NORMS",
    "preprocess",
    "Dataset",
]

MAGIC_IMAGES = 2051
MAGIC_LABELS = 2049

NORMS = ("l2", "l1", "max", "none")


class IdxFormatError(ValueError):
    """Malformed IDX file: wrong magic, truncated payload, or bad dims."""


class BlankImageError(ValueError):
    """All-zero image: the centroid is undefined."""


def load_idx_images(path) -> np.ndarray:
    """Load an IDX image file as a (count, n1, n2) uint8 array."""
    with open(path, "rb") as f:
        data = f.read()
    if len(data) < 16:
        raise IdxFormatError(f"{path}: truncated header ({len(data)} bytes)")
    magic, count, n1, n2 = struct.unpack(">IIII", data[:16])
    if magic != MAGIC_IMAGES:
        if magic == MAGIC_LABELS:
            raise IdxFormatError(f"{path}: wrong magic for images "
                                 f"(got label magic {magic})")
        raise IdxFormatError(f"{path}: wrong magic for images (got {magic})")
    if n1 < 1 or n2 < 1:
        raise IdxFormatError(f"{path}: bad image dimensions {n1} x {n2}")
    expected = 16 + count * n1 * n2
    if len(data) != expected:
        raise IdxFormatError(
            f"{path}: payload is {len(data) - 16} bytes, expected "
            f"{count}*{n1}*{n2} = {expected - 16}")
    pixels = np.frombuffer(data, dtype=np.uint8, offset=16)
    return pixels.reshape(count, n1, n2).copy()


def load_idx_labels(path) -> np.ndarray:
    """Load an IDX label file as a (count,) int64 array."""
    with open(path, "rb") as f:
        data = f.read()
    if len(data) < 8:
        raise IdxFormatError(f"{path}: truncated header ({len(data)} bytes)")
    magic, count = struct.unpack(">II", data[:8])
    if magic != MAGIC_LABELS:
        if magic == MAGIC_IMAGES:
            raise IdxFormatError(f"{path}: wrong magic for labels "
                                 f"(got image magic {magic})")
        raise IdxFormatError(f"{path}: wrong magic for labels (got {magic})")
    if len(data) != 8 + count:
        raise IdxFormatError(
            f"{path}: payload is {len(data) - 8} bytes, expected {count}")
    return np.frombuffer(data, dtype=np.uint8, offset=8).astype(np.int64)


def write_idx_images(path, images: np.ndarray) -> None:
    """Write a (count, n1, n2) uint8 array in IDX image format."""
    images = np.ascontiguousarray(images, dtype=np.uint8)
    if images.ndim != 3:
        raise ValueError("images must be a (count, n1, n2) array")
    count, n1, n2 = images.shape
    with open(path, "wb") as f:
        f.write(struct.pack(">IIII", MAGIC_IMAGES, count, n1, n2))
        f.write(images.tobytes())


def write_idx_labels(path, labels) -> None:
    """Write labels (values 0..255) in IDX label format."""
    labels = np.asarray(labels)
    if labels.ndim != 1 or np.any(labels < 0) or np.any(labels > 255):
        raise ValueError("labels must be a 1-D array of values in 0..255")
    with open(path, "wb") as f:
        f.write(struct.pack(">II", MAGIC_LABELS, len(labels)))
        f.write(labels.astype(np.uint8).tobytes())


def _round_half_up(x: float) -> int:
    # Fixed rule (no banker's rounding) so the shift is reproducible.
    return int(np.floor(x + 0.5))


def centroid_shift(pixels: np.ndarray) -> tuple[int, int]:
    """Integer (row, column) shift moving the intensity centroid to center.

    The target is the geometric grid center ((n1-1)/2, (n2-1)/2); halves
    round up.  Raises BlankImageError on an all-zero image.
    """
    pixels = np.asarray(pixels, dtype=np.float64)
    total = pixels.sum()
    if total <= 0:
        raise BlankImageError("blank image: cannot align centroid")
    n1, n2 = pixels.shape
    rows = np.arange(n1)[:, None]
    cols = np.arange(n2)[None, :]
    r_bar = (pixels * rows).sum() / total
    c_bar = (pixels * cols).sum() / total
    return (_round_half_up((n1 - 1) / 2.0 - r_bar),
            _round_half_up((n2 - 1) / 2.0 - c_bar))


def _shift_image(pixels: np.ndarray, dr: int, dc: int) -> np.ndarray:
    """Translate by integer offsets; dropped pixels vanish, vacated are 0."""
    n1, n2 = pixels.shape
    out = np.zeros_like(pixels)
    src_r = slice(max(0, -dr), min(n1, n1 - dr))
    src_c = slice(max(0, -dc), min(n2, n2 - dc))
    dst_r = slice(max(0, dr), min(n1, n1 + dr))
    dst_c = slice(max(0, dc), min(n2, n2 + dc))
    out[dst_r, dst_c] = pixels[src_r, src_c]
    return out


def preprocess(pixels: np.ndarray, norm: str = "l2") -> np.ndarray:
    """Centroid-align, scale to [0, 1], and normalize one image.

    Returns the grayscale vector of length n1*n2 in column-major pixel
    order.  ``norm`` selects the final scaling: "l2" (unit Euclidean norm,
    default), "l1", "max", or "none".
    """
    pixels = np.asarray(pixels)
    if pixels.ndim != 2:
        raise ValueError("expected a 2-D pixel grid")
    dr, dc = centroid_shift(pixels)
    shifted = _shift_image(pixels.astype(np.float64), dr, dc)
    gray = shifted.ravel(order="F") / 255.0
    if norm == "l2":
        scale = np.linalg.norm(gray)
    elif norm == "l1":
        scale = np.abs(gray).sum()
    elif norm == "max":
        scale = gray.max()
    elif norm == "none":
        scale = 1.0
    else:
        raise ValueError(f"unknown norm {norm!r}; expected one of {NORMS}")
    if scale <= 0:
        raise BlankImageError("blank image after centroid alignment")
    return gray / scale


class Dataset:
    """Preprocessed samples as a (N, Ne) matrix with their labels."""

    def __init__(self, gray: np.ndarray, labels: np.ndarray, n1: int, n2: int):
        gray = np.asarray(gray, dtype=np.float64)
        labels = np.asarray(labels, dtype=np.int64)
        if gray.ndim != 2 or gray.shape[0] != labels.shape[0]:
            raise ValueError("gray matrix and labels disagree on sample count")
        if gray.shape[1] != n1 * n2:
            raise ValueError("gray vector length does not match n1*n2")
        if labels.size and labels.min() < 0:
            raise ValueError("negative class label")
        self.gray = gray
        self.labels = labels
        self.n1 = n1
        self.n2 = n2

    def __len__(self) -> int:
        return self.gray.shape[0]

    @classmethod
    def from_arrays(cls, images: np.ndarray, labels: np.ndarray,
                    norm: str = "l2") -> "Dataset":
        if len(images) != len(labels):
            raise ValueError(
                f"image/label count mismatch: {len(images)} images, "
                f"{len(labels)} labels")
        n1, n2 = images.shape[1], images.shape[2]
        gray = np.empty((len(images), n1 * n2))
        for i, img in enumerate(images):
            gray[i] = preprocess(img, norm=norm)
        return cls(gray, labels, n1, n2)
