"""Reference preprocessing: one image at a time.

This is the per-image code that ``meip.dataset`` replaced with one pass
over a whole stack of images.  It is kept only as a differential oracle
for the tests: the batched routine must reproduce it bit for bit on
integer pixels and reject the same blank images.
"""

from __future__ import annotations

import numpy as np

from meip.dataset import BlankImageError


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


def preprocess(pixels: np.ndarray) -> np.ndarray:
    """Centroid-align, scale to [0, 1], and scale one image to unit
    Euclidean norm.

    Returns the grayscale vector of length n1*n2 in column-major pixel
    order.
    """
    pixels = np.asarray(pixels)
    if pixels.ndim != 2:
        raise ValueError("expected a 2-D pixel grid")
    dr, dc = centroid_shift(pixels)
    shifted = _shift_image(pixels.astype(np.float64), dr, dc)
    gray = shifted.ravel(order="F") / 255.0
    scale = np.linalg.norm(gray)
    if scale <= 0:
        raise BlankImageError("blank image after centroid alignment")
    return gray / scale
