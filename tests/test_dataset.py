"""IDX container parsing and image preprocessing."""

import re
import struct

import numpy as np
import pytest

from meip.dataset import (BlankImageError, Dataset, IdxFormatError,
                          _centroid_shifts, load_idx_images, load_idx_labels,
                          write_idx_images, write_idx_labels)
import preprocess_oracle as oracle


def centroid_shift_of(pixels) -> tuple[int, int]:
    """The batched centroid shift of a one-image stack."""
    dr, dc = _centroid_shifts(np.asarray(pixels)[None])
    return int(dr[0]), int(dc[0])


def gray_of(pixels) -> np.ndarray:
    """One image's grayscale vector, by the batched path of ``load_split``."""
    return Dataset.from_arrays(np.asarray(pixels)[None], [0]).gray[0]


def pack_images(images: np.ndarray) -> bytes:
    # byte-level reference writer, independent of the package implementation
    count, n1, n2 = images.shape
    return struct.pack(">IIII", 2051, count, n1, n2) + images.astype(
        np.uint8).tobytes()


def pack_labels(labels) -> bytes:
    return struct.pack(">II", 2049, len(labels)) + bytes(labels)


class TestIdxImages:
    def test_reads_reference_fixture(self, tmp_path):
        rng = np.random.default_rng(0)
        images = rng.integers(0, 256, (2, 28, 28)).astype(np.uint8)
        path = tmp_path / "imgs.idx"
        path.write_bytes(pack_images(images))
        loaded = load_idx_images(path)
        assert loaded.shape == (2, 28, 28)
        assert np.array_equal(loaded, images)

    def test_rejects_label_magic(self, tmp_path):
        path = tmp_path / "bad.idx"
        path.write_bytes(struct.pack(">IIII", 2049, 1, 2, 2) + bytes(4))
        with pytest.raises(IdxFormatError, match="wrong magic for images"):
            load_idx_images(path)

    def test_rejects_truncated_payload(self, tmp_path):
        rng = np.random.default_rng(1)
        images = rng.integers(0, 256, (3, 4, 4)).astype(np.uint8)
        path = tmp_path / "trunc.idx"
        path.write_bytes(pack_images(images)[:-7])
        with pytest.raises(IdxFormatError, match="payload"):
            load_idx_images(path)

    def test_rejects_truncated_header(self, tmp_path):
        path = tmp_path / "tiny.idx"
        path.write_bytes(b"\x00\x00\x08")
        with pytest.raises(IdxFormatError, match="truncated header"):
            load_idx_images(path)

    def test_rejects_zero_dimension(self, tmp_path):
        path = tmp_path / "dim.idx"
        path.write_bytes(struct.pack(">IIII", 2051, 1, 0, 5))
        with pytest.raises(IdxFormatError, match="dimensions"):
            load_idx_images(path)


class TestIdxLabels:
    def test_reads_reference_fixture(self, tmp_path):
        path = tmp_path / "labels.idx"
        path.write_bytes(pack_labels([0, 1, 4]))
        assert load_idx_labels(path).tolist() == [0, 1, 4]

    def test_empty_payload(self, tmp_path):
        path = tmp_path / "empty.idx"
        path.write_bytes(pack_labels([]))
        assert load_idx_labels(path).tolist() == []

    def test_rejects_image_magic(self, tmp_path):
        path = tmp_path / "bad.idx"
        path.write_bytes(struct.pack(">II", 2051, 0))
        with pytest.raises(IdxFormatError, match="wrong magic for labels"):
            load_idx_labels(path)

    def test_rejects_count_mismatch(self, tmp_path):
        path = tmp_path / "short.idx"
        path.write_bytes(struct.pack(">II", 2049, 9) + bytes(3))
        with pytest.raises(IdxFormatError, match="payload"):
            load_idx_labels(path)


# (file bytes, loader, its message after "<path>: "): both loaders read
# through one header and payload reader
IDX_ERRORS = [
    (b"\x00\x00\x08", load_idx_images, "truncated header (3 bytes)"),
    (struct.pack(">III", 2051, 1, 2), load_idx_images,
     "truncated header (12 bytes)"),
    (b"\x00\x00\x08", load_idx_labels, "truncated header (3 bytes)"),
    (struct.pack(">IIII", 2049, 1, 2, 2) + bytes(4), load_idx_images,
     "wrong magic for images (got label magic 2049)"),
    (struct.pack(">IIII", 2050, 1, 2, 2) + bytes(4), load_idx_images,
     "wrong magic for images (got 2050)"),
    (struct.pack(">II", 2051, 0), load_idx_labels,
     "wrong magic for labels (got image magic 2051)"),
    (struct.pack(">II", 0, 0), load_idx_labels,
     "wrong magic for labels (got 0)"),
    (struct.pack(">IIII", 2051, 1, 0, 5), load_idx_images,
     "bad image dimensions 0 x 5"),
    (struct.pack(">IIII", 2051, 1, 5, 0), load_idx_images,
     "bad image dimensions 5 x 0"),
    (struct.pack(">IIII", 2051, 3, 4, 4) + bytes(41), load_idx_images,
     "payload is 41 bytes, expected 3*4*4 = 48"),
    (struct.pack(">IIII", 2051, 0, 4, 4) + bytes(1), load_idx_images,
     "payload is 1 bytes, expected 0*4*4 = 0"),
    (struct.pack(">II", 2049, 9) + bytes(3), load_idx_labels,
     "payload is 3 bytes, expected 9"),
    (struct.pack(">II", 2049, 2) + bytes(3), load_idx_labels,
     "payload is 3 bytes, expected 2"),
]


@pytest.mark.parametrize("data, load, message", IDX_ERRORS)
def test_idx_error_messages(tmp_path, data, load, message):
    path = tmp_path / "bad.idx"
    path.write_bytes(data)
    with pytest.raises(IdxFormatError,
                       match=f"^{re.escape(f'{path}: {message}')}$"):
        load(path)


def test_idx_loaders_return_owned_arrays(tmp_path):
    write_idx_images(tmp_path / "i.idx", np.zeros((0, 3, 2), np.uint8))
    write_idx_labels(tmp_path / "l.idx", [7, 0])
    images, labels = (load_idx_images(tmp_path / "i.idx"),
                      load_idx_labels(tmp_path / "l.idx"))
    assert (images.shape, images.dtype) == ((0, 3, 2), np.uint8)
    assert (labels.tolist(), labels.dtype) == ([7, 0], np.int64)
    assert images.flags.writeable and labels.flags.writeable


class TestRoundTrip:
    def test_images_bit_exact(self, tmp_path):
        rng = np.random.default_rng(2)
        images = rng.integers(0, 256, (5, 9, 7)).astype(np.uint8)
        path = tmp_path / "rt.idx"
        write_idx_images(path, images)
        assert path.read_bytes() == pack_images(images)
        assert np.array_equal(load_idx_images(path), images)

    def test_labels_bit_exact(self, tmp_path):
        labels = [3, 1, 2, 9, 0]
        path = tmp_path / "rt-labels.idx"
        write_idx_labels(path, labels)
        assert path.read_bytes() == pack_labels(labels)
        assert load_idx_labels(path).tolist() == labels


class TestPreprocess:
    def test_symmetric_image_not_translated(self):
        img = np.zeros((28, 28))
        img[13:15, 13:15] = 200  # symmetric about the (13.5, 13.5) center
        assert centroid_shift_of(img) == (0, 0)
        gray = gray_of(img)
        assert gray.shape == (784,)
        assert np.linalg.norm(gray) == pytest.approx(1.0, abs=1e-12)

    def test_single_pixel_moved_to_center(self):
        # brute-force centroid oracle: centroid is the pixel itself, the
        # target is (13.5, 13.5), halves rounding up
        img = np.zeros((28, 28))
        img[5, 5] = 255
        expected_shift = int(np.floor((27 / 2 - 5) + 0.5))
        assert expected_shift == 9
        assert centroid_shift_of(img) == (9, 9)
        gray = gray_of(img)
        grid = gray.reshape((28, 28), order="F")
        assert grid[14, 14] == pytest.approx(1.0)
        assert np.linalg.norm(gray) == pytest.approx(1.0, abs=1e-12)

    def test_unit_norm_invariant(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            img = rng.integers(0, 256, (28, 28))
            gray = gray_of(img)
            assert abs(np.linalg.norm(gray) - 1.0) <= 1e-12

    def test_idempotent_translation(self):
        rng = np.random.default_rng(4)
        img = np.zeros((28, 28))
        img[8:14, 6:12] = rng.integers(50, 255, (6, 6))
        gray = gray_of(img)
        # rescale the aligned image back to 8-bit and preprocess again
        grid = gray.reshape((28, 28), order="F")
        rescaled = np.rint(grid / grid.max() * 255).astype(np.uint8)
        assert centroid_shift_of(rescaled) == (0, 0)

    def test_blank_image_rejected(self):
        with pytest.raises(BlankImageError, match="blank image"):
            gray_of(np.zeros((28, 28)))

    def test_dropped_pixels_vanish(self):
        # mass near one corner plus a far outlier: the shift pushes the
        # outlier off the grid and the result only keeps surviving pixels
        img = np.zeros((10, 10))
        img[0, 0] = 200
        img[9, 9] = 10
        dr, dc = centroid_shift_of(img)
        gray = gray_of(img)
        grid = gray.reshape((10, 10), order="F")
        assert (grid > 0).sum() <= 2


class TestColumnMajorOrdering:
    def test_element_index_is_column_major(self):
        # 5x5 grid, single pixel already at the center: element index of
        # pixel (row, col) must be col*n1 + row
        img = np.zeros((5, 5))
        img[2, 2] = 255
        gray = gray_of(img)
        assert centroid_shift_of(img) == (0, 0)
        assert gray[2 * 5 + 2] == pytest.approx(1.0)

    def test_off_diagonal_pixel(self):
        img = np.zeros((5, 5))
        img[2, 2] = 255
        img[1, 3] = 255  # (row 1, col 3) paired to keep centroid centered
        img[3, 1] = 255
        assert centroid_shift_of(img) == (0, 0)
        gray = gray_of(img)
        nz = set(np.flatnonzero(gray).tolist())
        assert nz == {3 * 5 + 1, 2 * 5 + 2, 1 * 5 + 3}


class TestDataset:
    def make(self, rng, count=6):
        images = rng.integers(1, 256, (count, 6, 6)).astype(np.uint8)
        labels = np.array([i % 2 for i in range(count)])
        return images, labels

    def test_from_arrays(self):
        rng = np.random.default_rng(5)
        images, labels = self.make(rng)
        ds = Dataset.from_arrays(images, labels)
        assert len(ds) == 6
        assert ds.gray.shape == (6, 36)
        assert ds.labels[2] == 0
        assert np.array_equal(ds.gray[2], gray_of(images[2]))

    def test_count_mismatch_is_hard_error(self):
        rng = np.random.default_rng(6)
        images, labels = self.make(rng)
        with pytest.raises(ValueError, match="count mismatch"):
            Dataset.from_arrays(images, labels[:-1])


def _stacks(rng):
    """(name, stack of 0..255 pixels) cases for the batched preprocessing."""
    for n1, n2 in ((12, 12), (5, 9), (9, 4), (1, 7), (6, 1), (1, 1), (28, 28)):
        yield f"random {n1}x{n2}", rng.integers(0, 256, (25, n1, n2))
        sparse = rng.integers(1, 256, (25, n1, n2)) * (
            rng.random((25, n1, n2)) < 0.15)
        sparse[:, 0, 0] |= 1            # no blank image
        yield f"sparse {n1}x{n2}", sparse
        # one or two lit corners: the largest shifts either way
        corners = np.zeros((12, n1, n2), dtype=np.int64)
        for i, (r, c) in enumerate([(0, 0), (0, -1), (-1, 0), (-1, -1)] * 3):
            corners[i, r, c] = 1 + 20 * i
            if i >= 4:
                corners[i, -1 - r, c] = 1 + 20 * i  # centroid midway
            if i >= 8:
                corners[i, r, -1 - c] = 7
        yield f"corners {n1}x{n2}", corners
        # two equal pixels: centroids at exact halves, which round up
        halves = np.zeros((30, n1, n2), dtype=np.int64)
        for i in range(30):
            for _ in range(2):
                halves[i, rng.integers(n1), rng.integers(n2)] = 100
        yield f"halves {n1}x{n2}", halves


class TestBatchedPreprocess:
    """One pass over a stack equals the per-image oracle bit for bit."""

    def test_matches_per_image_oracle(self):
        rng = np.random.default_rng(17)
        for name, stack in _stacks(rng):
            stack = stack.astype(np.uint8)
            labels = np.zeros(len(stack), dtype=np.int64)
            got = Dataset.from_arrays(stack, labels).gray
            want = np.array([oracle.preprocess(img) for img in stack])
            assert np.array_equal(got, want), name
            assert np.array_equal(got[0], gray_of(stack[0]))
            for img in stack:
                assert centroid_shift_of(img) == oracle.centroid_shift(img)

    def test_halves_round_up(self):
        # centroid (0, 0.5), grid center (0.5, 1.5): the row offset 0.5
        # rounds up to 1 (round-half-even would give 0)
        img = np.zeros((2, 4), dtype=np.uint8)
        img[0, 0] = img[0, 1] = 9
        assert centroid_shift_of(img) == oracle.centroid_shift(img) == (1, 1)

    def test_blank_images_rejected_with_index(self):
        rng = np.random.default_rng(18)
        stack = rng.integers(1, 256, (20, 6, 5)).astype(np.uint8)
        stack[[13, 17]] = 0
        with pytest.raises(BlankImageError, match="^blank image 13: "):
            Dataset.from_arrays(stack, np.zeros(20, dtype=np.int64))
        with pytest.raises(BlankImageError):
            oracle.preprocess(stack[13])
        with pytest.raises(BlankImageError):
            gray_of(stack[13])

    # Smallest square side whose largest moment bound 255*n*n*n reaches
    # 2**24: single-precision sums of such a stack could round.
    PAST_F32 = 41

    @staticmethod
    def _bright_stacks(side, dtype):
        """All-255 images, and all-255 images with a band cut out so that
        they shift: moments at the top of their range."""
        full = np.full((1, side, side), 255)
        banded = np.repeat(full, 4, axis=0)
        banded[0, :side // 3] = 0
        banded[1, :, -side // 4:] = 0
        banded[2, side // 2:, side // 2:] = 0
        banded[3, 1::2] = 254
        return [full.astype(dtype), banded.astype(dtype)]

    def test_bright_stacks_match_oracle(self):
        assert 255 * 40 ** 3 < 2 ** 24 <= 255 * self.PAST_F32 ** 3
        cases = [(side, np.uint8) for side in (28, 40, self.PAST_F32)]
        cases += [(self.PAST_F32, dtype) for dtype in (np.int64, np.float64)]
        for side, dtype in cases:
            for stack in self._bright_stacks(side, dtype):
                labels = np.zeros(len(stack), dtype=np.int64)
                got = Dataset.from_arrays(stack, labels).gray
                want = np.array([oracle.preprocess(img) for img in stack])
                assert np.array_equal(got, want), (side, dtype)

    def test_random_stacks_past_float32_bound_match_oracle(self):
        rng = np.random.default_rng(20)
        side = self.PAST_F32
        pixels = rng.integers(0, 256, (6, side, side))
        pixels[:, :side // 2] //= 16       # uneven: centroids shift
        for dtype in (np.uint8, np.int64, np.float64):
            stack = pixels.astype(dtype)
            got = Dataset.from_arrays(stack, np.zeros(6, dtype=np.int64)).gray
            want = np.array([oracle.preprocess(img) for img in stack])
            assert np.array_equal(got, want), dtype

    def test_half_pixel_centroids_with_moments_past_2_24(self):
        # Images symmetric about row and column (side-2)/2 with an odd mass:
        # both offsets are exactly 0.5, and the row moment 31*mass is an odd
        # integer above 2**24, which float32 cannot hold; rounded up, it
        # flips the shift.
        rng = np.random.default_rng(21)
        side = 64
        b = rng.integers(64, 128, (20, side - 1, side - 1))
        b = b + b[:, ::-1]
        b = b + b[:, :, ::-1]
        stack = np.zeros((20, side, side), dtype=np.int64)
        stack[:, :-1, :-1] = b // 2
        stack[:, side // 2 - 1, side // 2 - 1] |= 1
        stack = stack.astype(np.uint8)
        assert 31 * int(stack[0].sum()) > 2 ** 24
        dr, dc = _centroid_shifts(stack)
        for i, img in enumerate(stack):
            assert (dr[i], dc[i]) == oracle.centroid_shift(img) == (1, 1)
        want = np.array([oracle.preprocess(img) for img in stack])
        assert np.array_equal(
            Dataset.from_arrays(stack, np.zeros(20, dtype=np.int64)).gray,
            want)

    def test_blank_index_past_float32_bound(self):
        side = self.PAST_F32
        for dtype in (np.uint8, np.int64, np.float64):
            stack = np.full((9, side, side), 255).astype(dtype)
            stack[[4, 7]] = 0
            with pytest.raises(BlankImageError, match="^blank image 4: "):
                Dataset.from_arrays(stack, np.zeros(9, dtype=np.int64))

    def test_empty_stack(self):
        gray = Dataset.from_arrays(np.zeros((0, 5, 4), dtype=np.uint8),
                                   np.zeros(0, dtype=np.int64)).gray
        assert gray.shape == (0, 20)

    def test_integer_and_float_pixels_agree(self):
        rng = np.random.default_rng(19)
        stack = rng.integers(0, 256, (10, 7, 8))
        want = Dataset.from_arrays(stack.astype(np.uint8), np.zeros(10)).gray
        for dtype in (np.int64, np.float64):
            got = Dataset.from_arrays(stack.astype(dtype), np.zeros(10)).gray
            assert np.array_equal(got, want), dtype


class TestMnistCounts:
    def test_training_class_counts(self, mnist_dir):
        labels = load_idx_labels(mnist_dir / "train-labels-idx1-ubyte")
        counts = np.bincount(labels)
        assert counts[0] == 5923
        assert counts[1] == 6742
