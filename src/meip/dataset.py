"""IDX image/label container I/O and image preprocessing.

Images are stored row-major in the IDX files; internally every image is a
(n1, n2) uint8 array of (row, column) pixels.  Preprocessing aligns the
intensity centroid to the grid center by an integer pixel shift, scales to
[0, 1], and scales each sample to unit l2 norm, producing a per-element
grayscale vector in column-major pixel order (matching the mesh's
column-priority element numbering).  A whole stack is preprocessed in one
pass.
"""

from __future__ import annotations

import math
import struct

import numpy as np

__all__ = [
    "IdxFormatError",
    "BlankImageError",
    "load_idx_images",
    "load_idx_labels",
    "write_idx_images",
    "write_idx_labels",
    "Dataset",
]

MAGIC_IMAGES = 2051
MAGIC_LABELS = 2049
_KINDS = {MAGIC_IMAGES: "image", MAGIC_LABELS: "label"}


class IdxFormatError(ValueError):
    """Malformed IDX file: wrong magic, truncated payload, or bad dims."""


class BlankImageError(ValueError):
    """All-zero image: the centroid is undefined."""


def _read_idx(path, magic: int) -> np.ndarray:
    """The uint8 payload of an IDX file of type ``magic``, shaped by its
    header (the magic's low byte counts the big-endian uint32 dims)."""
    header = 4 * (1 + (magic & 0xFF))
    with open(path, "rb") as f:
        data = f.read()
    if len(data) < header:
        raise IdxFormatError(f"{path}: truncated header ({len(data)} bytes)")
    found, *dims = struct.unpack(f">{header // 4}I", data[:header])
    if found != magic:
        hint = f"{_KINDS[found]} magic " if found in _KINDS else ""
        raise IdxFormatError(f"{path}: wrong magic for {_KINDS[magic]}s "
                             f"(got {hint}{found})")
    if 0 in dims[1:]:
        raise IdxFormatError(f"{path}: bad image dimensions {dims[1]} x "
                             f"{dims[2]}")
    expected = math.prod(dims)
    if len(data) - header != expected:
        product = "*".join(map(str, dims))
        raise IdxFormatError(
            f"{path}: payload is {len(data) - header} bytes, expected "
            + (f"{product} = {expected}" if len(dims) > 1 else product))
    return np.frombuffer(data, dtype=np.uint8, offset=header).reshape(dims)


def load_idx_images(path) -> np.ndarray:
    """Load an IDX image file as a (count, n1, n2) uint8 array."""
    return _read_idx(path, MAGIC_IMAGES).copy()


def load_idx_labels(path) -> np.ndarray:
    """Load an IDX label file as a (count,) int64 array."""
    return _read_idx(path, MAGIC_LABELS).astype(np.int64)


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


def _centroid_shifts(images: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Integer (row, column) shifts moving each image's intensity centroid
    to the grid center ((n1-1)/2, (n2-1)/2); halves round up.

    Mass, row and column moments come from one GEMM of the flattened stack
    against the weights [1, row, col].  Every partial sum of integer pixels
    is an integer, exact in float32 while below 2**24 (which bounds a uint8
    stack's largest moment, 255*n1*n2*max(n1, n2), up to 40x40) and in
    float64 below 2**53."""
    n, n1, n2 = images.shape
    dtype = (np.float32 if images.dtype == np.uint8
             and 255 * n1 * n2 * max(n1, n2) < 2 ** 24 else np.float64)
    rows, cols = np.indices((n1, n2), dtype=dtype).reshape(2, n1 * n2)
    weights = np.stack([np.ones_like(rows), rows, cols], axis=1)
    moments = images.reshape(n, n1 * n2).astype(dtype) @ weights
    total, r_sum, c_sum = moments.astype(np.float64).T
    if np.any(total <= 0):
        raise BlankImageError(f"blank image {np.argmax(total <= 0)}: "
                              "cannot align centroid")
    # fixed rule (no banker's rounding) so the shift is reproducible
    return (np.floor((n1 - 1) / 2.0 - r_sum / total + 0.5).astype(np.int64),
            np.floor((n2 - 1) / 2.0 - c_sum / total + 0.5).astype(np.int64))


def _preprocess_stack(images: np.ndarray) -> np.ndarray:
    """The grayscale vectors of a (count, n1, n2) stack, as the rows of a
    (count, n1*n2) matrix: each image centroid-aligned, scaled to [0, 1]
    and then to unit l2 norm, in column-major pixel order."""
    n, n1, n2 = images.shape
    dr, dc = _centroid_shifts(images)
    # One slice assignment per distinct shift into a (column, row) stack;
    # dropped pixels vanish and vacated ones stay 0.  A stable sort puts
    # each shift's images in one run, in index order.
    shifted = np.zeros((n, n2, n1), dtype=images.dtype)
    key = dr * (2 * n2 + 1) + dc
    order = np.argsort(key, kind="stable")
    cuts = np.flatnonzero(np.diff(key[order])) + 1
    for idx in np.split(order, cuts) if n else []:
        r, c = int(dr[idx[0]]), int(dc[idx[0]])
        shifted[idx, max(0, c):n2 + min(0, c), max(0, r):n1 + min(0, r)] = \
            images[idx, max(0, -r):n1 - max(0, r),
                   max(0, -c):n2 - max(0, c)].transpose(0, 2, 1)
    gray = shifted.reshape(n, n1 * n2) / 255.0
    # Bit for bit as one image at a time: l2 is the per-row BLAS dot that
    # np.linalg.norm takes (a row-wise einsum rounds differently).  Pixels
    # are >= 0 and an aligned image keeps a nonzero one: no scale is 0.
    gray /= np.sqrt(np.matmul(gray[:, None, :], gray[:, :, None]))[:, 0]
    return gray


class Dataset:
    """Preprocessed samples as a (N, Ne) matrix with their labels."""

    def __init__(self, gray: np.ndarray, labels: np.ndarray):
        gray = np.asarray(gray, dtype=np.float64)
        labels = np.asarray(labels, dtype=np.int64)
        if gray.ndim != 2 or gray.shape[0] != labels.shape[0]:
            raise ValueError(f"sample/label count mismatch: gray matrix "
                             f"{gray.shape}, labels {labels.shape}")
        if labels.size and labels.min() < 0:
            raise ValueError("negative class label")
        self.gray = gray
        self.labels = labels

    def __len__(self) -> int:
        return self.gray.shape[0]

    @classmethod
    def from_arrays(cls, images: np.ndarray, labels: np.ndarray) -> "Dataset":
        return cls(_preprocess_stack(images), labels)
