"""Config parsing, artifact formats, commands, and the CLI."""

import dataclasses
import hashlib
import json
import logging
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from meip import classifier, cli, fem, forest, pipeline
from meip.classifier import confusion_from_predictions, fit
from meip.dataset import (load_idx_images, load_idx_labels, write_idx_images,
                          write_idx_labels)
from meip.forest import AxisBundle
from meip.optimizer import REF_KINDS, OptimizerConfig
from artifact_readers import read_confusion_csv, read_field_csv
from conftest import bar_images


class TestConfig:
    def test_defaults_and_overrides(self, tmp_path):
        cfg_file = tmp_path / "c.cfg"
        cfg_file.write_text(
            "# comment line\n"
            "lambda = 0.25\n"
            "class_pairs = 0:1\n"
            "sigma0 = 2e4\n\n"
            "n_axes = 7   # trailing comment\n")
        cfg = pipeline.load_config(cfg_file)
        assert cfg.lam == 0.25
        assert cfg.sigma0 == 2e4
        assert cfg.n_axes == 7
        assert cfg.n1 == 28  # untouched default
        assert cfg.tolp == 2.0
        assert cfg.dx_max == 0.08
        assert cfg.eps_x == 8e-4
        assert cfg.eps_j == 1e-7

    def test_unknown_key_is_hard_error(self, tmp_path):
        cfg_file = tmp_path / "c.cfg"
        cfg_file.write_text("class_pairs = 0:1\nn_axis = 3\n")
        with pytest.raises(ValueError, match="unknown config key 'n_axis'"):
            pipeline.load_config(cfg_file)

    def test_seed_is_not_a_key(self, tmp_path):
        cfg_file = tmp_path / "c.cfg"
        cfg_file.write_text("class_pairs = 0:1\nseed = 0\n")
        with pytest.raises(ValueError, match=re.escape(
                f"{cfg_file}:2: unknown config key 'seed'")):
            pipeline.load_config(cfg_file)

    @pytest.mark.parametrize("line", ["norm = l2", "norm = l7"])
    def test_norm_is_not_a_key(self, tmp_path, line):
        # every image is scaled to unit l2 norm; there is no setting
        cfg_file = tmp_path / "c.cfg"
        cfg_file.write_text(f"class_pairs = 0:1\n{line}\n")
        with pytest.raises(ValueError, match=re.escape(
                f"{cfg_file}:2: unknown config key 'norm'")):
            pipeline.load_config(cfg_file)

    def test_requires_exactly_one_task_key(self, tmp_path):
        cfg_file = tmp_path / "c.cfg"
        cfg_file.write_text("n_axes = 1\n")
        with pytest.raises(ValueError, match="exactly one"):
            pipeline.load_config(cfg_file)
        cfg_file.write_text("class_pairs = 0:1\none_vs_rest = 0,1\n")
        with pytest.raises(ValueError, match="exactly one"):
            pipeline.load_config(cfg_file)

    def test_classes_for_pair_and_ovr(self, tmp_path):
        cfg_file = tmp_path / "c.cfg"
        cfg_file.write_text("class_pairs = 4:2\n")
        assert pipeline.load_config(cfg_file).classes() == [4, 2]
        cfg_file.write_text("one_vs_rest = 0,1,2,3,4\n")
        assert pipeline.load_config(cfg_file).classes() == [0, 1, 2, 3, 4]

    def test_echo_round_trips_values(self, tmp_path):
        cfg_file = tmp_path / "c.cfg"
        cfg_file.write_text("class_pairs = 0:1\nlambda = 0.3\n")
        cfg = pipeline.load_config(cfg_file)
        echo = dict(cfg.echo_items())
        assert float(echo["lambda"]) == cfg.lam
        assert echo["class_pairs"] == "0:1"
        assert int(echo["max_iters"]) == cfg.max_iters

    @pytest.mark.parametrize("line", [
        "svd_k = -2", "n_axes = 0", "lambda = 7", "lambda = abc",
        "ref_kind = bogus", "ref_kind = u,bogus", "ref_kind = ,",
        "class_pairs = 3", "class_pairs = 3:3",
        "one_vs_rest = 0,x", "one_vs_rest = 2,2", "one_vs_rest = 2,3,-1",
        "class_pairs = 2:256", "sigma0 = inf", "tolp = inf", "tolp = nan",
        "dx_max = inf", "ridge = nan", "ridge = -5", "max_iters = -1",
    ])
    def test_bad_value_names_file_line_and_key(self, tmp_path, line):
        cfg_file = tmp_path / "c.cfg"
        key = line.split("=")[0].strip()
        task_keys = ("class_pairs", "one_vs_rest")
        task = "" if key in task_keys else "class_pairs = 0:1\n"
        cfg_file.write_text(f"n1 = 6\n{line}\n{task}")
        with pytest.raises(ValueError,
                           match=re.escape(f"{cfg_file}:2: {key}: ")):
            pipeline.load_config(cfg_file)

    @pytest.mark.parametrize("lines, error", [
        ("ref_kind = u,u\nclass_pairs = 3:7\n", ":1: ref_kind: names u twice"),
        ("class_pairs = 3:7, 3:7\n", ":1: class_pairs: names 3:7 twice"),
    ], ids=["ref_kind", "class_pairs"])
    def test_a_forest_named_twice_is_an_error(self, tmp_path, lines, error):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(lines)
        with pytest.raises(ValueError, match=re.escape(f"{cfg_file}{error}")):
            pipeline.load_config(cfg_file)

    def test_a_key_given_twice_is_an_error(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("class_pairs = 3:7\nn_axes = 2\n\n"
                            "n_axes = 5\n")
        with pytest.raises(ValueError, match=re.escape(
                f"{cfg_file}:4: n_axes: given twice (first on line 2)")):
            pipeline.load_config(cfg_file)

    @pytest.mark.parametrize("line, low, budget", [
        ("p_min = 1", "p_min", "tolp"),
        ("q_min = 0.5", "q_min", "tolq"),
        ("tolp = 1e-300", "p_min", "tolp"),
    ])
    def test_bounds_over_budget_fail_at_load(self, tmp_path, line, low,
                                             budget):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(f"n1 = 12\nn2 = 12\n{line}\nclass_pairs = 0:1\n")
        with pytest.raises(ValueError) as err:
            pipeline.load_config(cfg_file)
        msg = str(err.value)
        assert msg.startswith(f"{cfg_file}: {low} * n1 * n2 = ")
        assert f"exceeds {budget} = " in msg
        key = line.split("=")[0].strip()
        assert f"{key} on line 3" in msg
        assert "n1 on line 1, n2 on line 2" in msg

    @pytest.mark.parametrize("text", [
        "class_pairs = 0:1\n", "n1 = 12\nn2 = 12\nclass_pairs = 0:1\n"])
    def test_default_budgets_load(self, tmp_path, text):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(text)
        pipeline.load_config(cfg_file)

    def test_mirrored_pairs_are_two_forests(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("class_pairs = 3:7,7:3\n")
        assert pipeline.load_config(cfg_file).pairs() == [(3, 7), (7, 3)]

    def test_optimizer_defaults_have_one_source(self):
        for kind in REF_KINDS:
            got = pipeline.PipelineConfig().optimizer_config(kind)
            want = OptimizerConfig(ref_kind=kind)
            assert dataclasses.asdict(got) == dataclasses.asdict(want)

    def test_every_optimizer_setting_is_a_config_key(self):
        keys = {attr for attr, _ in pipeline.CONFIG_KEYS.values()}
        for f in dataclasses.fields(OptimizerConfig):
            assert f.name in keys

    def test_echo_keys_are_the_accepted_keys(self, tmp_path):
        cfg = pipeline.PipelineConfig(class_pairs="0:1", lam=0.1 + 0.2,
                                      base_dir=tmp_path)
        echo = cfg.echo_items()
        assert {k for k, _ in echo} == set(pipeline.CONFIG_KEYS)
        cfg_file = tmp_path / "c.cfg"
        cfg_file.write_text("".join(f"{k} = {v}\n" for k, v in echo))
        assert pipeline.load_config(cfg_file) == cfg

    def test_readme_config_block_is_the_defaults(self, tmp_path):
        readme = Path(__file__).resolve().parent.parent / "README.md"
        block = readme.read_text().split("\n# mesh", 1)[1].split("```")[0]
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(block.split("\n", 1)[1])
        cfg = pipeline.load_config(cfg_file)
        paths = {k: getattr(cfg, k) for k in ("train_images", "train_labels",
                                              "test_images", "test_labels")}
        assert cfg == pipeline.PipelineConfig(class_pairs="0:1",
                                              base_dir=tmp_path, **paths)


class TestAxisBundleFormat:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        bundle = AxisBundle(axes=rng.standard_normal((3, 25)), n1=4, n2=4)
        path = tmp_path / "axes.txt"
        pipeline.save_axes(path, bundle)
        assert path.read_text().startswith("MEIP-AXES 1\n4 4 25 3\n")
        loaded = pipeline.load_axes(path)
        assert np.array_equal(loaded.axes, bundle.axes)
        assert (loaded.n1, loaded.n2) == (4, 4)

    def test_rejects_wrong_header(self, tmp_path):
        path = tmp_path / "bogus.txt"
        path.write_text("AXES 9\n")
        with pytest.raises(ValueError, match="not an axis bundle"):
            pipeline.load_axes(path)

    def test_rejects_zero_axes(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("MEIP-AXES 1\n12 12 169 0\n")
        with pytest.raises(ValueError, match=re.escape(
                f"{path}:2: expected at least 1 axis, got 0")):
            pipeline.load_axes(path)


class TestModelFormat:
    def test_round_trip_bit_identical(self, tmp_path):
        rng = np.random.default_rng(1)
        z = np.vstack([rng.standard_normal((40, 3)) - 2,
                       rng.standard_normal((40, 3)) + 2])
        labels = np.array([0] * 40 + [1] * 40)
        model = fit(z, labels, 2, ridge=1e-6)
        path = tmp_path / "model.txt"
        pipeline.save_model(path, model, "axes.txt", [("ridge", "1e-06")])
        loaded, bundle_ref, items = pipeline.load_model(path)
        assert bundle_ref == "axes.txt"
        assert items == [("ridge", "1e-06")]
        for orig, back in zip(model, loaded):
            assert np.array_equal(orig.mean, back.mean)
            assert np.array_equal(orig.cov, back.cov)
            assert orig.prior == back.prior
            assert np.array_equal(orig.H, back.H)
            assert np.array_equal(orig.b, back.b)
            assert orig.c == back.c
            assert orig.log_det == back.log_det

    def test_classes_row_needs_the_word_dim(self, tmp_path):
        path = tmp_path / "model.txt"
        _save_model(path, np.random.default_rng(5))
        lines = path.read_text().splitlines(keepends=True)
        i = next(k for k, line in enumerate(lines)
                 if line.startswith("classes "))
        assert lines[i] == "classes 2 dim 2\n"
        for bad in ("classes 2 dims 3", "classes 2 dims 2", "classes 2 2 2"):
            path.write_text("".join(lines[:i] + [bad + "\n"] + lines[i + 1:]))
            with pytest.raises(ValueError, match=re.escape(
                    f"{path}:{i + 1}: expected '<count> dim <dim>'")):
                pipeline.load_model(path)

    @pytest.mark.parametrize("prior", ["-0.5", "0", "7"])
    def test_prior_outside_unit_interval(self, tmp_path, prior):
        # a negative prior made every discriminant of its class NaN, and 0
        # made them -inf
        path = tmp_path / "model.txt"
        _save_model(path, np.random.default_rng(5))
        lines = path.read_text().splitlines(keepends=True)
        i = next(k for k, line in enumerate(lines)
                 if line.startswith("prior "))
        path.write_text("".join(lines[:i] + [f"prior {prior}\n"]
                                + lines[i + 1:]))
        with pytest.raises(ValueError, match=re.escape(
                f"{path}:{i + 1}: expected a prior in (0, 1], got "
                f"{float(prior)!r}")):
            pipeline.load_model(path)


def _cell(value) -> str:
    # the per-cell writer that one %-format per table replaced
    return f"{value:.17g}" if isinstance(value, float) else str(value)


def _rows_by_cell(rows, tag, sep) -> str:
    return "".join(sep.join(([] if tag is None else [tag])
                            + [_cell(v) for v in row]) + "\n"
                   for row in rows)


class TestRowWriter:
    """One %-format per table writes what a per-cell writer wrote."""

    SPECIALS = [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 5e-324,
                -2.2250738585072014e-308, 1e-310, np.finfo(float).max,
                0.1, 1 / 3, -123456789.0, 1e16, 2.0 ** 53 + 2]

    def column(self, rng, kind, n):
        floats = self.SPECIALS + list(rng.standard_normal(8)
                                      * 10.0 ** rng.integers(-300, 300, 8))
        picks = [floats[i] for i in rng.integers(0, len(floats), n)]
        if kind == 0:
            return picks                                  # Python floats
        if kind == 1:
            return list(np.array(picks))                  # np.float64
        if kind == 2:
            return list(rng.integers(-2**62, 2**62, n))   # np.int64
        if kind == 3:
            return [int(v) for v in rng.integers(-99, 99, n)]
        words = ["", "x", "a b", "1,5", "%s", "100%", "nan", "7"]
        return [words[i] for i in rng.integers(0, len(words), n)]

    def test_matches_per_cell_reference(self):
        rng = np.random.default_rng(23)
        for case in range(300):
            n_rows, n_cols = int(rng.integers(0, 7)), int(rng.integers(0, 7))
            cols = [self.column(rng, int(k), n_rows)
                    for k in rng.integers(0, 5, n_cols)]
            rows = [tuple(c[i] for c in cols) for i in range(n_rows)]
            tag = [None, "cov", "MEIP-PRED 1", "50%"][case % 4]
            sep = [" ", ","][case % 2]
            want = _rows_by_cell(rows, tag, sep)
            assert pipeline._fmt(rows, tag, sep) == want, case
            assert pipeline._fmt(iter(rows), tag, sep) == want, case

    def test_float_matrix(self):
        rng = np.random.default_rng(24)
        table = rng.choice(self.SPECIALS, (5, 4))
        table[2] = rng.standard_normal(4)
        for tag in (None, "cov"):
            assert pipeline._fmt(table, tag) == \
                _rows_by_cell(table, tag, " ")
        assert pipeline._fmt(np.empty((0, 3))) == ""


class TestRasterAndCsv:
    def test_pgm_header_for_node_grid(self, tmp_path):
        values = np.arange(29 * 29, dtype=float)
        grid = pipeline.node_grid(values, 28, 28)
        path = tmp_path / "field.pgm"
        pipeline.write_pgm(path, grid)
        data = path.read_bytes()
        assert data.startswith(b"P5\n29 29\n255\n")
        assert len(data) == len(b"P5\n29 29\n255\n") + 29 * 29

    def test_constant_field_uniform_gray(self, tmp_path):
        path = tmp_path / "const.pgm"
        pipeline.write_pgm(path, np.full((5, 7), 3.3))
        payload = path.read_bytes().split(b"255\n", 1)[1]
        assert len(set(payload)) == 1

    def test_minmax_scaling(self, tmp_path):
        grid = np.array([[0.0, 5.0], [10.0, 2.5]])
        path = tmp_path / "scale.pgm"
        pipeline.write_pgm(path, grid)
        payload = path.read_bytes().split(b"255\n", 1)[1]
        assert payload[0] == 0 and payload[2] == 255

    def test_field_csv_round_trip(self, tmp_path):
        rng = np.random.default_rng(2)
        grid = rng.standard_normal((4, 6))
        path = tmp_path / "field.csv"
        pipeline.write_field_csv(path, "field", grid)
        back = read_field_csv(path)
        assert np.abs(back - grid).max() <= 1e-12
        assert np.array_equal(back, grid)  # %.17g round-trips exactly

    def test_confusion_csv_reparse(self, tmp_path):
        from meip.classifier import confusion_from_predictions
        outputs = np.array([0] * 982 + [1] * 1133)
        targets = np.array([0] * 980 + [1] * 2 + [1] * 1133)
        cm = confusion_from_predictions(outputs, targets, 2)
        path = tmp_path / "confusion.csv"
        pipeline.write_confusion_csv(path, cm, ["0", "1"])
        counts, precision, recall, accuracy = read_confusion_csv(path)
        assert np.array_equal(counts, cm.counts)
        assert accuracy == cm.accuracy
        assert np.array_equal(precision, cm.precision)
        assert np.array_equal(recall, cm.recall)
        assert accuracy == np.trace(counts) / counts.sum()

    def test_node_and_element_grids(self):
        mesh = fem.build_mesh(2, 3)
        nodes = np.arange(mesh.n_nodes, dtype=float)
        grid = pipeline.node_grid(nodes, 2, 3)
        assert grid.shape == (3, 4)
        assert grid[2, 0] == 2 and grid[0, 1] == 3  # column-priority layout
        elems = np.arange(mesh.ne, dtype=float)
        egrid = pipeline.element_grid(elems, 2, 3)
        assert egrid.shape == (2, 3)
        assert egrid[1, 0] == 1 and egrid[0, 1] == 2


def _histogram_csv_by_mask(z, targets, n_classes, bins=50) -> list[str]:
    """Reference tally of one column: one range mask per bin and class;
    the rows ``bin,bin_lo,bin_hi,count_<class>...``."""
    lo, hi = float(z.min()), float(z.max())
    if hi <= lo:
        hi = lo + 1.0
    edges = np.linspace(lo, hi, bins + 1)
    fmt = "{:.17g}".format
    rows = []
    for b in range(bins):
        row = [str(b), fmt(edges[b]), fmt(edges[b + 1])]
        for j in range(n_classes):
            zj = z[targets == j]
            if b == bins - 1:
                cnt = int(((zj >= edges[b]) & (zj <= edges[b + 1])).sum())
            else:
                cnt = int(((zj >= edges[b]) & (zj < edges[b + 1])).sum())
            row.append(str(cnt))
        rows.append(",".join(row))
    return rows


def _histogram_by_axis(path, n_axes, n_classes, bins) -> list[list[str]]:
    """The rows of each axis of a ``MEIP-HIST 2`` table, without their
    ``axis`` field; checks the header and that the axes come in order."""
    head, *rows = path.read_text().splitlines()
    assert head == "MEIP-HIST 2,bin,bin_lo,bin_hi," + ",".join(
        f"count_{j}" for j in range(n_classes))
    assert len(rows) == n_axes * bins
    fields = [row.split(",", 1) for row in rows]
    assert [axis for axis, _ in fields] == [
        str(m) for m in range(n_axes) for _ in range(bins)]
    return [[rest for _, rest in fields[m * bins:(m + 1) * bins]]
            for m in range(n_axes)]


class TestHistogramCsv:
    def test_matches_mask_reference(self, tmp_path):
        rng = np.random.default_rng(11)
        for case in range(60):
            n, n_classes = int(rng.integers(1, 200)), int(rng.integers(1, 5))
            bins = int(rng.integers(1, 60))
            targets = rng.integers(0, n_classes, n)
            if case % 4 == 0:
                z = np.full(n, rng.standard_normal())      # constant feature
            elif case % 4 == 1:
                lo, hi = sorted(rng.standard_normal(2))
                z = rng.choice(np.linspace(lo, hi, bins + 1), n)  # on edges
            else:
                z = rng.standard_normal(n) * 10.0 ** rng.integers(-3, 4)
            path = tmp_path / "hist.csv"
            pipeline.write_histogram_csv(path, z[:, None], targets,
                                         n_classes, bins)
            assert _histogram_by_axis(path, 1, n_classes, bins) == [
                _histogram_csv_by_mask(z, targets, n_classes, bins)], case

    @staticmethod
    def _degenerate_columns(rng, n, bins):
        """(name, column) cases whose edges collapse or sit an ulp from a
        value: linspace's rounding decides every bin."""
        k = rng.integers(0, 9, n)
        for c in (2.0 ** 52, -2.0 ** 52, 2.0 ** 53, 3 * 2.0 ** 60, -1e300):
            # lo + 1.0 == lo from 2**53 on
            yield f"constant {c!r}", np.full(n, c)
        yield "1e15 + k/8", 1e15 + k / 8
        yield "-1e15 - k/8", -1e15 - k / 8
        yield "1 + k*2**-52", 1.0 + k * 2.0 ** -52
        yield "1 - k*2**-53", 1.0 - k * 2.0 ** -53
        for lo, hi in ((-1.0, 1.0), (0.1, 0.7), (1e15, 1e15 + 40.0)):
            edges = np.linspace(lo, hi, bins + 1)
            near = np.concatenate([edges, np.nextafter(edges, np.inf),
                                   np.nextafter(edges, -np.inf)])
            # keep lo and hi in, so the edges are the ones computed here
            yield f"ulp around edges of [{lo}, {hi}]", np.concatenate(
                [[lo, hi], rng.choice(near[(near >= lo) & (near <= hi)],
                                      n - 2)])
        yield "signed zeros", np.where(rng.random(n) < 0.5, 0.0, -0.0)

    def test_degenerate_columns_match_mask_reference(self, tmp_path):
        rng = np.random.default_rng(12)
        for n_classes, bins in ((1, 1), (3, 50), (2, 7), (4, 60)):
            n = 300
            targets = rng.integers(0, n_classes, n)
            for name, z in self._degenerate_columns(rng, n, bins):
                path = tmp_path / "hist.csv"
                pipeline.write_histogram_csv(path, z[:, None], targets,
                                             n_classes, bins)
                assert _histogram_by_axis(path, 1, n_classes, bins) == [
                    _histogram_csv_by_mask(z, targets, n_classes, bins)], (
                    name, bins)

    def test_subnormal_edges_out_of_order(self, tmp_path):
        # linspace rounds edge 6 of [5e-324, 3e-323] above edge 7: the
        # bins are still searchsorted's over the written edges
        rng = np.random.default_rng(14)
        z = rng.integers(1, 7, 200) * 5e-324
        z[:2] = 5e-324, 3e-323
        targets = rng.integers(0, 2, 200)
        path = tmp_path / "sub.csv"
        pipeline.write_histogram_csv(path, z[:, None], targets, 2, 7)
        rows = np.array([r.split(",") for r in
                         _histogram_by_axis(path, 1, 2, 7)[0]], dtype=float)
        edges = np.append(rows[:, 1], rows[-1, 2])
        assert np.any(np.diff(edges) < 0)
        bin_of = np.minimum(np.searchsorted(edges, z, side="right") - 1, 6)
        for j in range(2):
            assert rows[:, 3 + j].tolist() == np.bincount(
                bin_of[targets == j], minlength=7).tolist()

    def test_overflowing_range_is_named(self, tmp_path):
        z = np.array([[0.0, -1.7e308], [1.0, 1.7e308]])
        path = tmp_path / "hist.csv"
        with pytest.raises(ValueError, match=re.escape(
                f"{path}: axis 1: feature range [-1.7e+308, 1.7e+308] has "
                "no finite bin edges")):
            pipeline.write_histogram_csv(path, z, np.zeros(2, dtype=int), 1)

    def test_every_column_of_a_mixed_matrix(self, tmp_path):
        # degenerate and ordinary columns side by side in one call
        rng = np.random.default_rng(13)
        n, n_classes, bins = 257, 3, 50
        targets = rng.integers(0, n_classes, n)
        cols = [z for _, z in self._degenerate_columns(rng, n, bins)]
        cols += [rng.standard_normal(n) * 10.0 ** e for e in range(-3, 4)]
        z = np.stack([cols[i] for i in rng.permutation(len(cols))], axis=1)
        path = tmp_path / "hist.csv"
        pipeline.write_histogram_csv(path, z, targets, n_classes, bins)
        got = _histogram_by_axis(path, z.shape[1], n_classes, bins)
        for m in range(z.shape[1]):
            assert got[m] == _histogram_csv_by_mask(z[:, m], targets,
                                                    n_classes, bins), m


class TestFieldsFormat:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(3)
        records = [{"f": rng.random(25), "g": rng.random(25),
                    "p": rng.random(16), "q": rng.random(16)}
                   for _ in range(2)]
        path = tmp_path / "fields.txt"
        pipeline.save_fields(path, 4, 4, records)
        n1, n2, back = pipeline.load_fields(path)
        assert (n1, n2) == (4, 4)
        for orig, rec in zip(records, back):
            for key in ("f", "g", "p", "q"):
                assert np.array_equal(orig[key], rec[key])



@pytest.mark.parametrize("text, message", [
    ("MEIP-AXES 1\n0 3 4 1\n0 0 0 0\n",
     "2: expected a mesh of at least 1x1, got 0x3"),
    ("MEIP-FIELDS 1\n0 0 1\naxis 0\nf 0\ng 0\np\nq\n",
     "2: expected a mesh of at least 1x1, got 0x0"),
    ("MEIP-FIELDS 1\n2 2 0\n", "2: expected at least 1 axis, got 0"),
    ("MEIP-MODEL 1\nbundle axes.txt\nconfig 0\nclasses 0 dim 2\n",
     "4: expected at least 1 class, got 0"),
    # dimension 0 fails at its own line, not at the mean on line 7
    ("MEIP-MODEL 1\nbundle axes.txt\nconfig 0\nclasses 1 dim 0\nclass 0\n"
     "prior 1\nmean\n", "4: expected at least 1 dimension, got 0"),
], ids=["axes", "fields", "fields_no_axis", "model", "model_no_dim"])
def test_artifact_with_an_empty_shape_is_rejected(tmp_path, text, message):
    path = tmp_path / "artifact.txt"
    path.write_text(text)
    with pytest.raises(ValueError, match=re.escape(f"{path}:{message}")):
        pipeline.cmd_inspect(path, tmp_path / "out")
    assert not (tmp_path / "out").exists()

def _save_model(path, rng):
    z = rng.standard_normal((20, 2))
    model = fit(z, np.arange(20) % 2, 2)
    # config values are verbatim text: a path with a space, and a key
    # (seed) that older versions echoed
    pipeline.save_model(path, model, "my bundle/axes.txt",
                        [("ridge", "1e-06"), ("seed", "0"),
                         ("train_images", "my data/train.idx")])


def _save_confusion(path, rng):
    cm = confusion_from_predictions(rng.integers(0, 3, 50),
                                    rng.integers(0, 3, 50), 3)
    pipeline.write_confusion_csv(path, cm, ["3", "5", "7"])


# format -> (writer of a real file, loader)
ARTIFACTS = {
    "axes": (lambda path, rng: pipeline.save_axes(
        path, AxisBundle(axes=rng.standard_normal((2, 16)), n1=3, n2=3)),
        pipeline.load_axes),
    "model": (_save_model, pipeline.load_model),
    "fields": (lambda path, rng: pipeline.save_fields(path, 2, 2, [
        {"f": rng.random(9), "g": rng.random(9), "p": rng.random(4),
         "q": rng.random(4)} for _ in range(2)]), pipeline.load_fields),
    "field_csv": (lambda path, rng: pipeline.write_field_csv(
        path, "grid", rng.standard_normal((3, 4))), read_field_csv),
    "confusion": (_save_confusion, read_confusion_csv),
}


def _is_number(token):
    try:
        float(token)
    except ValueError:
        return False
    return True


def _corruptions(line):
    """The line with its first or last number replaced by a non-number or
    removed with the separator before it."""
    parts = re.split(r"([ ,])", line)
    numbers = [j for j in range(0, len(parts), 2) if _is_number(parts[j])]
    for j in sorted({numbers[0], numbers[-1]} if numbers else set()):
        yield "".join(parts[:j] + ["x"] + parts[j + 1:])
        cut = slice(j - 1, j + 1) if j else slice(0, 2)
        yield "".join(parts[:cut.start] + parts[cut.stop:])


@pytest.mark.parametrize("fmt", sorted(ARTIFACTS))
class TestDamagedArtifacts:
    """Every damaged artifact fails with a ValueError naming file and line."""

    def real_file(self, tmp_path, fmt):
        write, load = ARTIFACTS[fmt]
        path = tmp_path / f"{fmt}.txt"
        write(path, np.random.default_rng(5))
        load(path)
        return path, load, path.read_text().splitlines(keepends=True)

    def test_truncated_and_extended(self, tmp_path, fmt):
        path, load, lines = self.real_file(tmp_path, fmt)
        for k in range(len(lines) + 1):
            damaged = lines[:k] if k < len(lines) else lines + ["1 2\n"]
            path.write_text("".join(damaged))
            with pytest.raises(ValueError,
                               match=f"^{re.escape(str(path))}:{k + 1}: "):
                load(path)

    def test_corrupted_numbers(self, tmp_path, fmt):
        path, load, lines = self.real_file(tmp_path, fmt)
        for i, line in enumerate(lines):
            if " = " in line or line.startswith("bundle "):
                continue    # model bundle reference and config: verbatim text
            bad_lines = list(_corruptions(line.rstrip("\n")))
            assert len(bad_lines) >= 2, line
            for bad in bad_lines:
                path.write_text("".join(lines[:i] + [bad + "\n"]
                                        + lines[i + 1:]))
                with pytest.raises(ValueError,
                                   match=f"^{re.escape(str(path))}:{i + 1}: "):
                    load(path)

    def test_non_finite_numbers(self, tmp_path, fmt):
        path, load, lines = self.real_file(tmp_path, fmt)
        messages = []
        for i, line in enumerate(lines):
            if " = " in line or line.startswith("bundle "):
                continue    # model bundle reference and config: verbatim text
            parts = re.split(r"([ ,])", line.rstrip("\n"))
            numbers = [j for j in range(0, len(parts), 2)
                       if _is_number(parts[j])]
            for j, bad in ((numbers[0], "nan"), (numbers[-1], "inf"),
                           (numbers[-1], "-inf")):
                path.write_text("".join(
                    lines[:i] + ["".join(parts[:j] + [bad] + parts[j + 1:])
                                 + "\n"] + lines[i + 1:]))
                with pytest.raises(ValueError, match=(
                        f"^{re.escape(str(path))}:{i + 1}: ")) as exc:
                    load(path)
                messages.append(str(exc.value))
        assert any(m.endswith(": expected finite numbers") for m in messages)


class TestCommands:
    def test_eval_split_without_configured_digits(self, bars_workspace):
        labels_path = bars_workspace / "test-lab.idx"
        labels = load_idx_labels(labels_path)
        cfg = pipeline.load_config(bars_workspace / "run.cfg")
        # a test split that lacks one of the digits is fine
        write_idx_labels(labels_path, np.full_like(labels, 7))
        assert len(pipeline.load_split(cfg, "test").labels) == len(labels)
        write_idx_labels(labels_path, np.full_like(labels, 5))
        with pytest.raises(ValueError, match=re.escape(
                f"{labels_path}: no test images of configured digit(s) "
                "[3, 7]")):
            pipeline.load_split(cfg, "test")

    def test_count_mismatch_names_both_files(self, bars_workspace):
        labels_path = bars_workspace / "test-lab.idx"
        write_idx_labels(labels_path, load_idx_labels(labels_path)[:-1])
        cfg = pipeline.load_config(bars_workspace / "run.cfg")
        with pytest.raises(ValueError, match=re.escape(
                f"{bars_workspace / 'test-img.idx'} holds 30 images but "
                f"{labels_path} holds 29 labels")):
            pipeline.load_split(cfg, "test")

    def test_blank_image_named_before_forests(self, bars_workspace):
        images_path = bars_workspace / "train-img.idx"
        labels_path = bars_workspace / "train-lab.idx"
        images, labels = load_idx_images(images_path), load_idx_labels(
            labels_path)
        # image 5 is blank but of no configured digit, so it is skipped;
        # the message counts images as the file does
        images[[5, 17, 40]] = 0
        labels[5] = 9
        write_idx_images(images_path, images)
        write_idx_labels(labels_path, labels)
        cfg = pipeline.load_config(bars_workspace / "run.cfg")
        out = bars_workspace / "out"
        with pytest.raises(ValueError, match=re.escape(
                f"{images_path}: image 17 is blank")):
            pipeline.cmd_pipeline(cfg, out)
        assert not (out / "axes.txt").exists()

    def test_eval_scores_each_split_once(self, bars_workspace, monkeypatch):
        cfg = pipeline.load_config(bars_workspace / "run.cfg")
        out = bars_workspace / "out"
        calls, discriminants = [], classifier.discriminants

        def counting(model, z):
            calls.append(len(z))
            return discriminants(model, z)

        monkeypatch.setattr(classifier, "discriminants", counting)
        pipeline.cmd_pipeline(cfg, out)
        assert calls == [80, 30]            # the train split, then test

        # outputs come from the discriminants: an exact tie goes to the
        # lowest class, and a gap exp() rounds away still decides
        def near_ties(model, z):
            beta = np.zeros((len(z), len(model)))
            beta[::2, 1] = 1e-300
            return beta

        monkeypatch.setattr(classifier, "discriminants", near_ties)
        pipeline.cmd_eval(cfg, out / "model.txt",
                          pipeline.load_split(cfg, "test"), "test", out)
        rows = (out / "predictions_test.csv").read_text().splitlines()[1:]
        assert [row.split(",")[2] for row in rows] == ["1", "0"] * 15
        assert {row.partition(",")[2].partition(",")[2][2:]
                for row in rows} == {"0.5,0.5"}

    def test_one_histogram_table_per_split(self, bars_workspace):
        cfg = pipeline.load_config(bars_workspace / "run.cfg")
        out, evals = bars_workspace / "out", bars_workspace / "evals"
        report = pipeline.cmd_pipeline(cfg, out)
        test = pipeline.load_split(cfg, "test")
        pipeline.cmd_eval(cfg, out / "model.txt", test, "test", evals)
        assert sorted(p.name for p in out.glob("hist*")) == [
            "hist_test.csv", "hist_train.csv"]
        assert [p.name for p in evals.glob("hist*")] == ["hist_test.csv"]
        assert (evals / "hist_test.csv").read_bytes() == \
            (out / "hist_test.csv").read_bytes()
        for split, n in (("train", 80), ("test", len(test))):
            by_axis = _histogram_by_axis(out / f"hist_{split}.csv",
                                         report.n_axes, 2, 50)
            for rows in by_axis:    # every sample in one bin of each axis
                assert sum(int(c) for row in rows
                           for c in row.split(",")[3:]) == n

    def test_digit_absent_from_training_labels(self, bars_workspace):
        cfg_file = bars_workspace / "run.cfg"
        cfg_file.write_text(cfg_file.read_text().replace(
            "class_pairs = 3:7", "class_pairs = 4:7"))
        cfg = pipeline.load_config(cfg_file)
        with pytest.raises(ValueError, match=re.escape(
                f"{bars_workspace / 'train-lab.idx'}: no training images "
                "of configured digit(s) [4]")):
            pipeline.load_split(cfg, "train")

    def test_full_pipeline_separable(self, bars_workspace):
        cfg = pipeline.load_config(bars_workspace / "run.cfg")
        report = pipeline.cmd_pipeline(cfg, bars_workspace / "out")
        assert report.train_confusion["accuracy"] == 1.0
        assert report.test_confusion["accuracy"] == 1.0
        out = bars_workspace / "out"
        for name in ("axes.txt", "model.txt", "report.json",
                     "confusion_train.csv", "confusion_test.csv",
                     "predictions_test.csv", "timing.txt"):
            assert (out / name).exists(), name

    def test_rerun_is_byte_identical(self, bars_workspace):
        cfg = pipeline.load_config(bars_workspace / "run.cfg")
        pipeline.cmd_pipeline(cfg, bars_workspace / "o1")
        pipeline.cmd_pipeline(cfg, bars_workspace / "o2")
        for name in ("report.json", "axes.txt", "model.txt",
                     "confusion_test.csv", "predictions_train.csv"):
            b1 = (bars_workspace / "o1" / name).read_bytes()
            b2 = (bars_workspace / "o2" / name).read_bytes()
            assert b1 == b2, name

    def test_inputs_never_mutated(self, bars_workspace):
        digests = {}
        for f in ("train-img.idx", "train-lab.idx", "test-img.idx",
                  "test-lab.idx"):
            digests[f] = hashlib.sha256(
                (bars_workspace / f).read_bytes()).hexdigest()
        cfg = pipeline.load_config(bars_workspace / "run.cfg")
        pipeline.cmd_pipeline(cfg, bars_workspace / "out")
        for f, digest in digests.items():
            assert hashlib.sha256(
                (bars_workspace / f).read_bytes()).hexdigest() == digest

    def test_two_forests_and_svd(self, bars_workspace):
        # ref_kind u,v doubles the forests; svd_k compresses the bundle
        cfg_text = (bars_workspace / "run.cfg").read_text()
        (bars_workspace / "run2.cfg").write_text(
            cfg_text.replace("n_axes = 2", "n_axes = 1")
            + "ref_kind = u,v\nsvd_k = 2\n")
        cfg = pipeline.load_config(bars_workspace / "run2.cfg")
        pipeline.cmd_train_axes(
            cfg, pipeline.load_split(cfg, "train"), bars_workspace / "out_svd")
        bundle = pipeline.load_axes(bars_workspace / "out_svd" / "axes.txt")
        assert bundle.n_axes == 2  # 2 forests x 1 axis, svd keeps 2
        gram = bundle.axes @ bundle.axes.T
        assert np.abs(gram - np.eye(2)).max() <= 1e-10

    def test_axis_count_without_svd(self, bars_workspace):
        cfg_text = (bars_workspace / "run.cfg").read_text()
        (bars_workspace / "run3.cfg").write_text(
            cfg_text.replace("n_axes = 2", "n_axes = 1") + "ref_kind = u,v\n")
        cfg = pipeline.load_config(bars_workspace / "run3.cfg")
        pipeline.cmd_train_axes(
            cfg, pipeline.load_split(cfg, "train"), bars_workspace / "out_raw")
        bundle_path = bars_workspace / "out_raw" / "axes.txt"
        assert pipeline.load_axes(bundle_path).n_axes == 2

    def test_report_round_trip(self, bars_workspace):
        cfg = pipeline.load_config(bars_workspace / "run.cfg")
        report = pipeline.cmd_pipeline(cfg, bars_workspace / "out")
        text = (bars_workspace / "out" / "report.json").read_text()
        back = pipeline.RunReport(**json.loads(text))
        assert back.to_json() == text
        assert back.test_confusion == report.test_confusion

    def test_reports_hold_only_what_is_read(self, bars_workspace):
        cfg = pipeline.load_config(bars_workspace / "run.cfg")
        pipeline.cmd_pipeline(cfg, bars_workspace / "out")
        for name in ("report.json", "report_train.json", "report_test.json"):
            report = json.loads((bars_workspace / "out" / name).read_text())
            assert set(report) == {"config", "n_axes", "train_confusion",
                                   "test_confusion"}, name

    def test_external_bundle_location(self, bars_workspace):
        cfg = pipeline.load_config(bars_workspace / "run.cfg")
        train = pipeline.load_split(cfg, "train")
        pipeline.cmd_train_axes(cfg, train, bars_workspace / "bndl")
        bundle_path = bars_workspace / "bndl" / "axes.txt"
        model_path = pipeline.cmd_train(cfg, bundle_path, train,
                                        bars_workspace / "mdl")
        report = pipeline.cmd_eval(cfg, model_path,
                                   pipeline.load_split(cfg, "test"), "test",
                                   bars_workspace / "mdl")
        assert report.test_confusion["accuracy"] == 1.0

    def test_eval_train_split(self, bars_workspace):
        cfg = pipeline.load_config(bars_workspace / "run.cfg")
        out = bars_workspace / "out"
        train = pipeline.load_split(cfg, "train")
        pipeline.cmd_train_axes(cfg, train, out)
        model_path = pipeline.cmd_train(cfg, out / "axes.txt", train, out)
        report = pipeline.cmd_eval(cfg, model_path, train, "train", out)
        assert report.train_confusion is not None
        assert report.test_confusion is None
        counts, _, _, acc = read_confusion_csv(
            out / "confusion_train.csv")
        assert acc == report.train_confusion["accuracy"]
        assert counts.sum() == 80

    def test_accuracy_reparse_oracle(self, bars_workspace):
        cfg = pipeline.load_config(bars_workspace / "run.cfg")
        report = pipeline.cmd_pipeline(cfg, bars_workspace / "out")
        counts, _, _, acc = read_confusion_csv(
            bars_workspace / "out" / "confusion_test.csv")
        assert acc == report.test_confusion["accuracy"]
        assert np.trace(counts) / counts.sum() == acc

    def test_inspect_axes_and_fields_and_model(self, bars_workspace):
        cfg = pipeline.load_config(bars_workspace / "run.cfg")
        out = bars_workspace / "out"
        pipeline.cmd_pipeline(cfg, out)
        files = pipeline.cmd_inspect(out / "axes.txt", out / "viz")
        assert any(f.suffix == ".pgm" for f in files)
        axis_csv = next(f for f in files if f.name == "axis_0.csv")
        grid = read_field_csv(axis_csv)
        assert grid.shape == (7, 7)
        fields_file = next(out.glob("fields_*.txt"))
        files2 = pipeline.cmd_inspect(fields_file, out / "viz2")
        assert any("_p" in f.name for f in files2)
        files3 = pipeline.cmd_inspect(out / "model.txt", out / "viz3")
        assert any("mean" in f.name for f in files3)

    def test_inspect_unknown_artifact(self, tmp_path):
        bogus = tmp_path / "x.txt"
        bogus.write_text("garbage\n")
        with pytest.raises(ValueError, match="unrecognized artifact"):
            pipeline.cmd_inspect(bogus, tmp_path / "viz")
        assert not (tmp_path / "viz").exists()

    def test_bundle_size_checked_against_config(self, bars_workspace,
                                                capsys):
        cfg = pipeline.load_config(bars_workspace / "run.cfg")
        out = bars_workspace / "out"
        pipeline.cmd_pipeline(cfg, out)
        bundle = bars_workspace / "big.txt"
        pipeline.save_axes(bundle, AxisBundle(axes=np.ones((2, 81)), n1=8,
                                              n2=8))
        common = ["--config", str(bars_workspace / "run.cfg"), "--out",
                  str(out)]
        assert cli.main(["train", "--bundle", str(bundle)] + common) == 1
        assert capsys.readouterr().err == (
            f"[train] error: {bundle}: bundle is 8x8, config says 6x6\n")
        # the model's own bundle, replaced by one for another mesh
        (out / "axes.txt").write_bytes(bundle.read_bytes())
        with pytest.raises(ValueError, match=re.escape(
                f"{out / 'axes.txt'}: bundle is 8x8, config says 6x6")):
            pipeline.cmd_eval(cfg, out / "model.txt",
                              pipeline.load_split(cfg, "test"), "test", out)

    def test_model_class_count_checked_against_config(self, bars_workspace):
        cfg = pipeline.load_config(bars_workspace / "run.cfg")
        out = bars_workspace / "out"
        report = pipeline.cmd_pipeline(cfg, out)
        z = np.random.default_rng(0).standard_normal((30, report.n_axes))
        model_path = out / "model3.txt"
        pipeline.save_model(model_path, fit(z, np.arange(30) % 3, 3),
                            "axes.txt", cfg.echo_items())
        with pytest.raises(ValueError, match=re.escape(
                f"{model_path}: model has 3 classes, config says 2")):
            pipeline.cmd_eval(cfg, model_path,
                              pipeline.load_split(cfg, "test"), "test", out)

    def test_model_dim_checked_against_bundle(self, bars_workspace):
        cfg = pipeline.load_config(bars_workspace / "run.cfg")
        out = bars_workspace / "out"
        n_axes = pipeline.cmd_pipeline(cfg, out).n_axes
        z = np.random.default_rng(0).standard_normal((30, n_axes + 1))
        model_path = out / "model_wide.txt"
        pipeline.save_model(model_path, fit(z, np.arange(30) % 2, 2),
                            "axes.txt", cfg.echo_items())
        with pytest.raises(ValueError, match=re.escape(
                f"{model_path}: model has dim {n_axes + 1}, but "
                f"{out / 'axes.txt'} holds {n_axes} axes")):
            pipeline.cmd_eval(cfg, model_path,
                              pipeline.load_split(cfg, "test"), "test", out)

    @staticmethod
    def _echo_model(bars_workspace, echo: dict):
        """Run the bars pipeline, then rewrite its model with ``echo``
        merged into the config echo; returns (config, out dir)."""
        cfg = pipeline.load_config(bars_workspace / "run.cfg")
        out = bars_workspace / "out"
        pipeline.cmd_pipeline(cfg, out)
        model, bundle_ref, items = pipeline.load_model(out / "model.txt")
        pipeline.save_model(out / "model.txt", model, bundle_ref,
                            sorted({**dict(items), **echo}.items()))
        return cfg, out

    @pytest.mark.parametrize("echo, message", [
        # same digits, swapped order: every class index would swap
        ({"class_pairs": "7:3"},
         "model was trained on classes [7, 3], config says [3, 7]"),
        # a model file from a version where the scaling was a setting
        ({"norm": "max"}, "model was trained with norm max; images are "
         "scaled to unit l2 norm"),
    ], ids=["digit_order", "norm"])
    def test_model_echo_checked_against_config(self, bars_workspace, echo,
                                               message):
        cfg, out = self._echo_model(bars_workspace, echo)
        scored = (out / "confusion_test.csv").read_bytes()
        with pytest.raises(ValueError, match=re.escape(
                f"{out / 'model.txt'}: {message}")):
            pipeline.cmd_eval(cfg, out / "model.txt",
                              pipeline.load_split(cfg, "test"), "test", out)
        # rejected before scoring: the earlier confusion CSV is untouched
        assert (out / "confusion_test.csv").read_bytes() == scored

    def test_model_echo_of_norm_l2_still_scores(self, bars_workspace):
        # older versions echo norm = l2, the one scaling there is now
        cfg, out = self._echo_model(bars_workspace, {"norm": "l2"})
        scored = {name: (out / name).read_bytes() for name in
                  ("confusion_test.csv", "predictions_test.csv")}
        pipeline.cmd_eval(cfg, out / "model.txt",
                          pipeline.load_split(cfg, "test"), "test", out)
        for name, data in scored.items():
            assert (out / name).read_bytes() == data, name

    def test_mesh_dimension_mismatch(self, bars_workspace):
        cfg_text = (bars_workspace / "run.cfg").read_text()
        (bars_workspace / "bad.cfg").write_text(
            cfg_text.replace("n1 = 6", "n1 = 8"))
        cfg = pipeline.load_config(bars_workspace / "bad.cfg")
        with pytest.raises(ValueError, match=re.escape(
                f"{bars_workspace / 'train-img.idx'}: images are 6x6, "
                "config says 8x6")):
            pipeline.load_split(cfg, "train")

    def test_test_image_size_checked_before_forests(self, bars_workspace):
        images, _ = bar_images(8, 30, np.random.default_rng(3))
        write_idx_images(bars_workspace / "test-img.idx", images)
        cfg = pipeline.load_config(bars_workspace / "run.cfg")
        out = bars_workspace / "out"
        with pytest.raises(ValueError, match=re.escape(
                f"{bars_workspace / 'test-img.idx'}: images are 8x8, "
                "config says 6x6")):
            pipeline.cmd_pipeline(cfg, out)
        assert not (out / "axes.txt").exists()

    def test_single_training_image_fails_before_forests(self,
                                                        bars_workspace):
        for split in ("train", "test"):  # one image of digit 7 is left
            labels = load_idx_labels(bars_workspace / f"{split}-lab.idx")
            labels[np.flatnonzero(labels == 7)[1:]] = 5
            write_idx_labels(bars_workspace / f"{split}-lab.idx", labels)
        cfg = pipeline.load_config(bars_workspace / "run.cfg")
        out = bars_workspace / "out"
        with pytest.raises(ValueError, match=re.escape(
                f"{bars_workspace / 'train-lab.idx'}: only 1 training image "
                "of configured digit(s) [7]; a class covariance needs 2")):
            pipeline.cmd_pipeline(cfg, out)
        assert not (out / "axes.txt").exists()
        # an eval split may hold a single image of a digit
        assert sorted(pipeline.load_split(cfg, "test").labels)[-2:] == [3, 7]

    def test_unusable_test_split_fails_before_forests(self, bars_workspace):
        labels_path = bars_workspace / "test-lab.idx"
        write_idx_labels(labels_path,
                         np.full_like(load_idx_labels(labels_path), 5))
        cfg = pipeline.load_config(bars_workspace / "run.cfg")
        out = bars_workspace / "out"
        with pytest.raises(ValueError, match=re.escape(
                f"{labels_path}: no test images of configured digit(s)")):
            pipeline.cmd_pipeline(cfg, out)
        assert not (out / "axes.txt").exists()
        assert not (out / "report_train.json").exists()
        assert list(out.iterdir()) == []

    def test_pipeline_loads_each_split_once(self, bars_workspace,
                                            monkeypatch):
        events = []
        load_split, generate_axes = pipeline.load_split, forest.generate_axes

        def counting_load(cfg, split):
            events.append(split)
            return load_split(cfg, split)

        def noting_forest(*args, **kwargs):
            events.append("forest")
            return generate_axes(*args, **kwargs)

        monkeypatch.setattr(pipeline, "load_split", counting_load)
        monkeypatch.setattr(forest, "generate_axes", noting_forest)
        cfg = pipeline.load_config(bars_workspace / "run.cfg")
        pipeline.cmd_pipeline(cfg, bars_workspace / "out")
        assert events == ["train", "test", "forest"]

    @pytest.mark.parametrize("extra", ["", "ref_kind = u,v\nsvd_k = 2\n"],
                             ids=["one_forest", "two_forests_svd"])
    def test_cli_steps_match_pipeline(self, bars_workspace, capsys,
                                      monkeypatch, extra):
        cfg_path = bars_workspace / "steps.cfg"
        cfg_path.write_text((bars_workspace / "run.cfg").read_text() + extra)
        pipe, steps = bars_workspace / "pipe", bars_workspace / "steps"

        def unread(path):
            raise AssertionError(f"meip pipeline read back {path}")

        # the pipeline hands its bundle and model on in memory; the CLI
        # steps read them from the files
        with monkeypatch.context() as m:
            m.setattr(pipeline, "load_axes", unread)
            m.setattr(pipeline, "load_model", unread)
            pipeline.cmd_pipeline(pipeline.load_config(cfg_path), pipe)
        common = ["--config", str(cfg_path), "--out", str(steps)]
        for argv in (["train-axes"], ["train"], ["eval", "--split", "train"],
                     ["eval", "--split", "test"]):
            assert cli.main(argv + common) == 0
        capsys.readouterr()
        names = {f.name for f in pipe.iterdir()}
        assert {"timing.txt", "report.json", "axes.txt"} <= names
        names -= {"timing.txt", "report.json"}
        assert names == {f.name for f in steps.iterdir()}
        for name in sorted(names):
            assert (pipe / name).read_bytes() == \
                (steps / name).read_bytes(), name


class TestCli:
    def test_pipeline_exit_zero(self, bars_workspace, capsys):
        rc = cli.main(["pipeline", "--config",
                       str(bars_workspace / "run.cfg"),
                       "--out", str(bars_workspace / "cli_out")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "train accuracy" in out

    def test_bad_config_exit_nonzero(self, bars_workspace, capsys):
        bad = bars_workspace / "broken.cfg"
        bad.write_text("class_pairs = 0:1\nmystery = 1\n")
        rc = cli.main(["train-axes", "--config", str(bad)])
        assert rc == 1
        assert "[train-axes] error:" in capsys.readouterr().err

    def test_missing_dataset_exit_nonzero(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("class_pairs = 0:1\ntrain_images = nope.idx\n"
                       "train_labels = nope2.idx\n")
        rc = cli.main(["train-axes", "--config", str(cfg)])
        assert rc == 1
        assert "[train-axes] error:" in capsys.readouterr().err

    def test_verbose_applies_to_each_in_process_call(self, bars_workspace,
                                                     caplog, capsys):
        root = logging.getLogger()
        level = root.level
        argv = ["train-axes", "--config", str(bars_workspace / "run.cfg"),
                "--out", str(bars_workspace / "v_out")]
        try:
            iteration_lines = []
            for extra in ([], ["-v"]):
                caplog.clear()
                assert cli.main(extra + argv) == 0
                iteration_lines.append(sum(r.getMessage().startswith("iter=")
                                           for r in caplog.records))
        finally:
            root.setLevel(level)
        capsys.readouterr()
        assert iteration_lines[0] == 0 and iteration_lines[1] > 0

    def test_inspect_of_an_empty_fields_file_exit_nonzero(self, tmp_path,
                                                          capsys):
        path = tmp_path / "fields.txt"
        path.write_text("MEIP-FIELDS 1\n2 2 0\n")
        rc = cli.main(["inspect", str(path), "--out", str(tmp_path / "viz")])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"[inspect] error: {path}:2: expected at least 1 axis, got 0\n")
        assert not (tmp_path / "viz").exists()

    @pytest.mark.parametrize("stage", ["config", "model", "inspect"])
    def test_input_that_is_not_utf8_names_the_file(self, bars_workspace,
                                                   capsys, stage):
        idx = bars_workspace / "train-img.idx"
        cfg = str(bars_workspace / "run.cfg")
        argv = {"config": ["pipeline", "--config", str(idx)],
                "model": ["eval", "--config", cfg, "--model", str(idx)],
                "inspect": ["inspect", str(idx), "--out",
                            str(bars_workspace / "viz")]}[stage]
        assert cli.main(argv) == 1
        assert capsys.readouterr().err.startswith(
            f"[{argv[0]}] error: {idx}: not UTF-8 text (")
        assert not (bars_workspace / "viz").exists()

    def test_eval_via_cli(self, bars_workspace, capsys):
        out = bars_workspace / "out"
        assert cli.main(["pipeline", "--config",
                         str(bars_workspace / "run.cfg"),
                         "--out", str(out)]) == 0
        rc = cli.main(["eval", "--config", str(bars_workspace / "run.cfg"),
                       "--out", str(out), "--split", "test"])
        assert rc == 0
        assert "test accuracy" in capsys.readouterr().out


def test_import_path_loads_no_scipy_sparse():
    # scipy.sparse serves only the test oracles; this process has already
    # imported it through them, so the check runs in a fresh interpreter.
    src = str(Path(pipeline.__file__).resolve().parent.parent)
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(
               filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = ("import sys; import meip, meip.cli, meip.pipeline; "
            "print(sorted(m for m in sys.modules "
            "if m.startswith('scipy.sparse')))")
    run = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert run.stdout.strip() == "[]"
