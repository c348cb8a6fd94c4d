"""Config parsing, artifact formats, commands, and the CLI."""

import argparse
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

from meip import classifier, cli, fem, forest, optimizer, pipeline
from meip.classifier import confusion_from_predictions, fit
from meip.dataset import (Dataset, load_idx_images, load_idx_labels,
                          write_idx_images, write_idx_labels)
from meip.forest import AxisBundle
from meip.optimizer import REF_KINDS, OptimizerConfig
from artifact_readers import read_confusion_csv, read_field_csv
from conftest import bar_images, separable_grays


class TestConfig:
    def test_defaults_and_overrides(self, tmp_path):
        cfg_file = tmp_path / "c.cfg"
        cfg_file.write_text(
            "# comment line\n"
            "lambda = 0.25\n"
            "class_pairs = 0:1\n\n"
            "n_axes = 7   # trailing comment\n")
        cfg = pipeline.load_config(cfg_file)
        assert cfg.lam == 0.25
        assert cfg.n_axes == 7
        assert cfg.n1 == 28  # untouched default
        assert cfg.tolp == 2.0
        assert cfg.eps_x == 8e-4
        assert optimizer.EPS_J == 1e-7

    def test_a_byte_order_mark_is_dropped(self, tmp_path):
        text = "lambda = 0.25\nclass_pairs = 0:1\nn1 = 6\n"
        (tmp_path / "plain.cfg").write_text(text, encoding="utf-8")
        (tmp_path / "bom.cfg").write_text(text, encoding="utf-8-sig")
        assert (tmp_path / "bom.cfg").read_bytes()[:3] == b"\xef\xbb\xbf"
        assert (pipeline.load_config(tmp_path / "bom.cfg")
                == pipeline.load_config(tmp_path / "plain.cfg"))

    def test_a_hash_inside_a_value_is_kept(self, bars_workspace):
        # a '#' opens a comment only at the start of a line or after a
        # space or tab
        (bars_workspace / "train-img.idx").rename(
            bars_workspace / "train#img.idx")
        cfg_path = bars_workspace / "run.cfg"
        cfg_path.write_text(cfg_path.read_text().replace(
            "train_images = train-img.idx",
            "train_images = train#img.idx").replace(
            "n_axes = 2", "n_axes = 7   # trailing comment").replace(
            "n1 = 6", "n1 = 6\t# after a tab"))
        cfg = pipeline.load_config(cfg_path)
        assert cfg.train_images == "train#img.idx"
        assert (cfg.n_axes, cfg.n1) == (7, 6)
        assert len(pipeline.load_split(cfg, "train")) == 80

    def test_unknown_key_is_hard_error(self, tmp_path):
        cfg_file = tmp_path / "c.cfg"
        cfg_file.write_text("class_pairs = 0:1\nn_axis = 3\n")
        with pytest.raises(ValueError, match="unknown config key 'n_axis'"):
            pipeline.load_config(cfg_file)

    def test_a_line_without_equals_names_its_line(self, tmp_path):
        cfg_file = tmp_path / "c.cfg"
        cfg_file.write_text("n1 = 6\nclass_pairs 0:1\n")
        with pytest.raises(ValueError, match=re.escape(
                f"{cfg_file}:2: expected 'key = value'")):
            pipeline.load_config(cfg_file)

    def test_seed_is_not_a_key(self, tmp_path):
        cfg_file = tmp_path / "c.cfg"
        cfg_file.write_text("class_pairs = 0:1\nseed = 0\n")
        with pytest.raises(ValueError, match=re.escape(
                f"{cfg_file}:2: unknown config key 'seed'")):
            pipeline.load_config(cfg_file)

    # every image is scaled to unit l2 norm, every axis starts at the
    # uniform element value of the smaller budget, a rejection shrinks the
    # move limit within a fixed interval, the boundary penalty is
    # fem.SIGMA0, the covariance ridge is classifier.fit's and the output
    # directory is the CLI's --out, and the |dJ| and accepted-step caps of
    # the axis loop are optimizer.EPS_J and MAX_ITERS; none is a setting
    @pytest.mark.parametrize("line", [
        "norm = l2", "norm = l7", "dx_max = 0.08", "gamma = 0.7",
        "sigma0 = 1e5", "sigma0 = inf", "ridge = 1e-6", "ridge = nan",
        "ridge = -5", "out_dir = out", "eps_j = 1e-7", "eps_j = inf",
        "max_iters = 500", "max_iters = -1"])
    def test_removed_key_is_not_a_key(self, tmp_path, line):
        cfg_file = tmp_path / "c.cfg"
        cfg_file.write_text(f"class_pairs = 0:1\n{line}\n")
        key = line.split("=")[0].strip()
        with pytest.raises(ValueError, match=re.escape(
                f"{cfg_file}:2: unknown config key '{key}'")):
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
        assert optimizer.MAX_ITERS == 500
        assert "max_iters" not in echo and "eps_j" not in echo

    @pytest.mark.parametrize("line", [
        "svd_k = -2", "n_axes = 0", "lambda = 7", "lambda = abc",
        "ref_kind = bogus", "ref_kind = u,bogus", "ref_kind = ,",
        "class_pairs = 3", "class_pairs = 3:3", "class_pairs = 3:7,7:3",
        "one_vs_rest = 0,x", "one_vs_rest = 2,2", "one_vs_rest = 2,3,-1",
        "class_pairs = 2:256", "tolp = inf", "tolp = nan", "tolp = 1e8",
        "tolq = 1e308",
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

    def test_budget_at_the_boundary_penalty_loads(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("n1 = 6\ntolq = 1e5\nclass_pairs = 0:1\n")
        assert pipeline.load_config(cfg_file).tolq == fem.SIGMA0

    @pytest.mark.parametrize("lines, error", [
        ("ref_kind = u,u\nclass_pairs = 3:7\n", ":1: ref_kind: names u twice"),
    ], ids=["ref_kind"])
    def test_a_forest_named_twice_is_an_error(self, tmp_path, lines, error):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(lines)
        with pytest.raises(ValueError, match=re.escape(f"{cfg_file}{error}")):
            pipeline.load_config(cfg_file)

    def test_a_pair_list_names_one_vs_rest(self, tmp_path):
        # the forests of 3:7 and 7:3 are those of one_vs_rest = 7,3
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("n_axes = 2\nclass_pairs = 3:7,7:3\n")
        with pytest.raises(ValueError) as err:
            pipeline.load_config(cfg_file)
        assert str(err.value) == (
            f"{cfg_file}:2: class_pairs: names more than one pair; "
            "one_vs_rest = 7,3 grows the forests of both 3:7 and 7:3")

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

    @pytest.mark.parametrize("lines, low, budget, line", [
        # bars-workspace budgets: these bounds loaded, then a trial
        # rounded 17 elements to exactly 0 and axis 1 failed to factor K
        (["p_min = 1e-20", "q_min = 1e-20"], "p_min", "tolp", 5),
        (["p_min = 1e-4", "q_min = 1e-20"], "q_min", "tolq", 6),
    ], ids=["p_min", "q_min"])
    def test_bounds_below_the_budget_rounding_fail_at_load(
            self, tmp_path, lines, low, budget, line):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("\n".join(["n1 = 6", "n2 = 6", "tolp = 0.1",
                                       "tolq = 0.1", *lines,
                                       "class_pairs = 3:7\n"]))
        with pytest.raises(ValueError) as err:
            pipeline.load_config(cfg_file)
        assert str(err.value) == (
            f"{cfg_file}: {low} = 1e-20 is below {budget} * 2**-52 = "
            f"{0.1 * 2.0 ** -52!r}, where rounding can take an element to 0 "
            f"({low} on line {line}, {budget} on line {line - 2})")

    @pytest.mark.parametrize("bound", ["1e-12", "1e-4", repr(0.1 * 2 ** -52)])
    def test_bounds_the_budget_rounding_resolves_load(self, tmp_path, bound):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(f"n1 = 6\nn2 = 6\ntolp = 0.1\ntolq = 0.1\n"
                            f"p_min = {bound}\nq_min = {bound}\n"
                            "class_pairs = 3:7\n")
        assert pipeline.load_config(cfg_file).q_min == float(bound)

    @pytest.mark.parametrize("lines, first, where", [
        (["n1 = 50", "n2 = 50", "p_min = 1e-4", "q_min = 1e-4"], 2 / 2500,
         "n1 on line 1, n2 on line 2"),
        (["tolq = 0.5", "q_min = 1e-4"], 0.5 / 784, "tolq on line 1"),
        (["eps_x = inf"], 2 / 784, "eps_x on line 1"),
    ], ids=["50x50", "tolq", "eps_x_inf"])
    def test_a_spent_first_move_limit_fails_at_load(self, tmp_path, lines,
                                                    first, where):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("\n".join([*lines, "class_pairs = 0:1\n"]))
        with pytest.raises(ValueError) as err:
            pipeline.load_config(cfg_file)
        assert str(err.value).startswith(
            f"{cfg_file}: the first move limit min(tolp, tolq) / (n1 * n2) "
            f"= {first!r} is at most eps_x = ")
        assert f"({where})" in str(err.value)

    def test_a_first_move_limit_above_eps_x_loads(self, tmp_path):
        # 2 / 2401 just exceeds eps_x = 8e-4, which 2 / 2500 equals
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("n1 = 49\nn2 = 49\np_min = 1e-4\nq_min = 1e-4\n"
                            "class_pairs = 0:1\n")
        assert pipeline.load_config(cfg_file).n1 == 49

    @pytest.mark.parametrize("text", [
        "class_pairs = 0:1\n", "n1 = 12\nn2 = 12\nclass_pairs = 0:1\n"])
    def test_default_budgets_load(self, tmp_path, text):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(text)
        pipeline.load_config(cfg_file)

    @pytest.mark.parametrize("lines, where, total", [
        (["class_pairs = 3:7", "ref_kind = u", "n_axes = 1", "svd_k = 2"],
         "svd_k on line 4, n_axes on line 3", "1 * 1"),
        (["one_vs_rest = 0,1,2", "ref_kind = u,v", "svd_k = 7"],
         "svd_k on line 3", "1 * 6"),
    ], ids=["pair", "one_vs_rest"])
    def test_svd_k_above_the_forest_total_fails_at_load(self, tmp_path, lines,
                                                        where, total):
        # the data keys name files that do not exist: no data is read
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("\n".join(lines + [
            f"{key} = missing.idx" for key in ("train_images", "train_labels",
                                               "test_images", "test_labels")]))
        svd_k = lines[-1].split("=")[1].strip()
        with pytest.raises(ValueError) as err:
            pipeline.load_config(cfg_file)
        assert str(err.value) == (
            f"{cfg_file}: svd_k = {svd_k} exceeds n_axes * forests = {total} "
            f"({where})")
        # one fewer is the forest total, which loads
        cfg_file.write_text(cfg_file.read_text().replace(
            f"svd_k = {svd_k}", f"svd_k = {int(svd_k) - 1}"))
        assert pipeline.load_config(cfg_file).svd_k == int(svd_k) - 1

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
        digest = hashlib.sha256(b"axes").hexdigest()
        pipeline.save_model(path, model, "axes.txt", digest,
                            [("ridge", "1e-06")])
        loaded, bundle_ref, bundle_sha256, items = pipeline.load_model(path)
        assert bundle_ref == "axes.txt"
        assert bundle_sha256 == digest
        assert items == [("ridge", "1e-06")]
        for orig, back in zip(model, loaded):
            assert np.array_equal(orig.mean, back.mean)
            assert np.array_equal(orig.cov, back.cov)
            assert orig.prior == back.prior
            assert np.array_equal(orig.H, back.H)
            assert np.array_equal(orig.b, back.b)
            assert orig.c == back.c
            assert orig.log_det == back.log_det

    def test_an_echo_line_without_equals_names_its_line(self, tmp_path):
        path = tmp_path / "model.txt"
        _save_model(path, np.random.default_rng(5))
        lines = path.read_text().splitlines(keepends=True)
        i = lines.index("seed = 0\n")
        path.write_text("".join(lines[:i] + ["seed 0\n"] + lines[i + 1:]))
        with pytest.raises(ValueError, match=re.escape(
                f"{path}:{i + 1}: expected 'key = value', got 'seed 0'")):
            pipeline.load_model(path)

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

    def test_indefinite_covariance_names_its_class(self, tmp_path):
        path = tmp_path / "model.txt"
        _save_model(path, np.random.default_rng(5))
        lines = path.read_text().splitlines(keepends=True)
        i = next(k for k, line in enumerate(lines) if line.startswith("cov "))
        path.write_text("".join(lines[:i] + ["cov 1 2\n", "cov 2 1\n"]
                                + lines[i + 2:]))
        with pytest.raises(ValueError, match=re.escape(
                f"{path}:{i + 2}: expected a valid class 0: covariance not "
                "positive definite")):
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
        assert np.array_equal(counts, cm["counts"])
        assert accuracy == cm["accuracy"]
        assert np.array_equal(precision, cm["precision"])
        assert np.array_equal(recall, cm["recall"])
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
    ("MEIP-AXES 1\n6 6 48 1\n" + "0 " * 47 + "0\n",
     "2: expected 49 nodes for a 6x6 mesh, got 48"),
    ("MEIP-FIELDS 1\n0 0 1\naxis 0\nf 0\ng 0\np\nq\n",
     "2: expected a mesh of at least 1x1, got 0x0"),
    ("MEIP-FIELDS 1\n2 2 0\n", "2: expected at least 1 axis, got 0"),
    (f"MEIP-MODEL 2\nbundle axes.txt\nbundle_sha256 {'0' * 64}\nconfig 0\n"
     "classes 0 dim 2\n", "5: expected at least 1 class, got 0"),
    # dimension 0 fails at its own line, not at the mean on line 8
    (f"MEIP-MODEL 2\nbundle axes.txt\nbundle_sha256 {'0' * 64}\nconfig 0\n"
     "classes 1 dim 0\nclass 0\nprior 1\nmean\n",
     "5: expected at least 1 dimension, got 0"),
], ids=["axes", "axes_nodes", "fields", "fields_no_axis", "model",
        "model_no_dim"])
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
                        hashlib.sha256(b"my bundle").hexdigest(),
                        [("ridge", "1e-06"), ("seed", "0"),
                         ("train_images", "my data/train.idx")])


def _sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


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
            if " = " in line or line.startswith("bundle"):
                continue    # model bundle reference, digest and config: text
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
            if " = " in line or line.startswith("bundle"):
                continue    # model bundle reference, digest and config: text
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

    def test_class_targets_rejects_an_unconfigured_digit(self):
        cfg = pipeline.PipelineConfig(class_pairs="2:3")
        assert pipeline.class_targets(cfg, np.array([3, 2, 3])).tolist() == [
            1, 0, 1]
        # a digit below, between and above the configured ones
        for labels in ([2, 3, 0], [1, 2, 3], [2, 3, 7]):
            with pytest.raises(ValueError, match="dataset contains labels "
                               "outside configured classes"):
                pipeline.class_targets(cfg, np.array(labels))

    @pytest.mark.parametrize("config", ["class_pairs = 3:7",
                                        "one_vs_rest = 3,7"],
                             ids=["pair", "one_vs_rest"])
    def test_train_axes_rejects_an_unconfigured_digit(self, bars_workspace,
                                                      config):
        cfg_path = bars_workspace / "run.cfg"
        cfg_path.write_text(cfg_path.read_text().replace("class_pairs = 3:7",
                                                          config))
        cfg = pipeline.load_config(cfg_path)
        train = pipeline.load_split(cfg, "train")
        labels = train.labels.copy()
        labels[0] = 5  # neither dropped from a pair nor put into "rest"
        out = bars_workspace / "out"
        with pytest.raises(ValueError, match="dataset contains labels "
                           "outside configured classes"):
            pipeline.cmd_train_axes(cfg, Dataset(train.gray, labels), out)
        assert not (out / "axes.txt").exists()

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
                                         report["n_axes"], 2, 50)
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
        assert report["train_confusion"]["accuracy"] == 1.0
        assert report["test_confusion"]["accuracy"] == 1.0
        out = bars_workspace / "out"
        for name in ("axes.txt", "model.txt", "report.json",
                     "confusion_train.csv", "confusion_test.csv",
                     "predictions_test.csv", "timing.txt"):
            assert (out / name).exists(), name

    def test_rerun_is_byte_identical(self, bars_workspace):
        cfg = pipeline.load_config(bars_workspace / "run.cfg")
        pipeline.cmd_pipeline(cfg, bars_workspace / "o1")
        pipeline.cmd_pipeline(cfg, bars_workspace / "o2")
        names = ("report.json", "axes.txt", "model.txt",
                 "confusion_test.csv", "predictions_train.csv")
        b1 = {name: (bars_workspace / "o1" / name).read_bytes()
              for name in names}
        # a third run replaces the files of the first
        pipeline.cmd_pipeline(cfg, bars_workspace / "o1")
        for name in names:
            b2 = (bars_workspace / "o2" / name).read_bytes()
            b3 = (bars_workspace / "o1" / name).read_bytes()
            assert b1[name] == b2 == b3, name

    def test_a_rerun_leaves_hard_links_to_old_outputs(self, bars_workspace):
        cfg_path, out = bars_workspace / "run.cfg", bars_workspace / "out"
        assert cli.main(["pipeline", "--config", str(cfg_path)]) == 0
        names = ("model.txt", "predictions_test.csv")
        links = {name: bars_workspace / f"old_{name}" for name in names}
        for name, link in links.items():
            os.link(out / name, link)
        first = {name: link.read_bytes() for name, link in links.items()}
        # the rerun's lambda grows other axes, so it writes another model
        other = bars_workspace / "other.cfg"
        other.write_text(cfg_path.read_text() + "lambda = 0.9\n")
        assert cli.main(["pipeline", "--config", str(other),
                         "--out", str(out)]) == 0
        assert (out / "model.txt").read_bytes() != first["model.txt"]
        for name, link in links.items():
            assert not os.path.samefile(out / name, link), name
            assert link.read_bytes() == first[name], name

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

    def test_svd_rank_error_names_key_and_line(self, bars_workspace):
        # the two u_minus_v axes of 3vrest and 7vrest negate each other
        cfg_path = bars_workspace / "run.cfg"
        cfg_path.write_text(cfg_path.read_text().replace(
            "class_pairs = 3:7", "one_vs_rest = 3,7").replace(
            "n_axes = 2", "n_axes = 1") + "svd_k = 2\n")
        line = cfg_path.read_text().splitlines().index("svd_k = 2") + 1
        cfg = pipeline.load_config(cfg_path)
        with pytest.raises(ValueError) as err:
            pipeline.cmd_train_axes(cfg, pipeline.load_split(cfg, "train"),
                                    bars_workspace / "out")
        assert str(err.value) == (f"{cfg_path}:{line}: svd_k: k=2 exceeds "
                                  "the numerical rank 1")

    def test_an_exhausted_pool_caps_svd_k(self, tmp_path, caplog,
                                          monkeypatch):
        # the pool runs out of subsets after 1 of the 5 axes asked for
        data = Dataset(*separable_grays(16))
        monkeypatch.setattr(optimizer, "MAX_ITERS", 2)
        cfg = pipeline.PipelineConfig(n1=4, n2=4, class_pairs="0:1",
                                      n_axes=5, svd_k=3, tolp=0.1, tolq=0.1)
        with caplog.at_level(logging.WARNING, logger="meip.pipeline"):
            pipeline.cmd_train_axes(cfg, data, tmp_path)
        assert "svd_k=3 capped to 1 available axes" in caplog.text
        bundle = pipeline.load_axes(tmp_path / "axes.txt")
        assert bundle.n_axes == 1
        assert abs(bundle.axes[0] @ bundle.axes[0] - 1.0) <= 1e-10

    def test_a_failed_axis_names_its_forest(self, bars_workspace, capsys,
                                            monkeypatch):
        # the axis of the second forest fails; (m0, m1) is its subset
        subsets = []
        real = forest.optimize

        def optimize(gray1, gray0, *args, **kwargs):
            subsets.append((len(gray0), len(gray1)))
            if len(subsets) == 2:
                raise FloatingPointError("no trial")
            return real(gray1, gray0, *args, **kwargs)

        monkeypatch.setattr(forest, "optimize", optimize)
        cfg_path = bars_workspace / "run.cfg"
        cfg_path.write_text(cfg_path.read_text().replace(
            "n_axes = 2", "n_axes = 1") + "ref_kind = u,v\n")
        cfg = pipeline.load_config(cfg_path)
        with pytest.raises(RuntimeError) as err:
            pipeline.cmd_train_axes(cfg, pipeline.load_split(cfg, "train"),
                                    bars_workspace / "out")
        assert isinstance(err.value.__cause__.__cause__, FloatingPointError)
        m0, m1 = subsets[1]
        subsets.clear()
        assert cli.main(["train-axes", "--config", str(cfg_path)]) == 1
        assert capsys.readouterr().err == (
            f"[train-axes] error: forest 3v7_v: axis 1 of 1 failed on a "
            f"({m0}, {m1}) subset: no trial\n")

    @pytest.mark.parametrize("failure", ["forest_2", "svd_k"])
    def test_a_failed_rerun_leaves_the_outputs_untouched(
            self, bars_workspace, capsys, monkeypatch, failure):
        cfg_path = bars_workspace / "run.cfg"
        text = cfg_path.read_text().replace("n_axes = 2", "n_axes = 1")
        if failure == "svd_k":  # the two forests' axes negate each other
            text = text.replace("class_pairs = 3:7", "one_vs_rest = 3,7")
        else:
            text += "ref_kind = u,v\n"
        cfg_path.write_text(text)
        argv = ["train-axes", "--config", str(cfg_path)]
        assert cli.main(argv) == 0
        out = bars_workspace / "out"
        first = {f.name: f.read_bytes() for f in out.iterdir()}
        assert len(first) == 4
        # the rerun's lambda grows other axes in every forest
        cfg_path.write_text(text + "lambda = 0.9\n" + (
            "svd_k = 2\n" if failure == "svd_k" else ""))
        real, calls = forest.optimize, []

        def optimize(*args, **kwargs):
            calls.append(1)
            if failure == "forest_2" and len(calls) == 2:
                raise FloatingPointError("no trial")
            return real(*args, **kwargs)

        monkeypatch.setattr(forest, "optimize", optimize)
        capsys.readouterr()
        assert cli.main(argv) == 1
        assert len(calls) == 2
        assert capsys.readouterr().err.startswith(
            "[train-axes] error: forest 3v7_v: axis 1 of 1 failed"
            if failure == "forest_2" else
            f"[train-axes] error: {cfg_path}:{len(text.splitlines()) + 2}: "
            "svd_k: k=2 exceeds the numerical rank 1")
        assert {f.name: f.read_bytes() for f in out.iterdir()} == first

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
        out, evals = bars_workspace / "out", bars_workspace / "evals"
        report = pipeline.cmd_pipeline(cfg, out)
        text = (out / "report.json").read_text()
        assert report == json.loads(text)
        assert pipeline._json(report) == text
        for split in ("test", "train"):
            report = pipeline.cmd_eval(cfg, out / "model.txt",
                                       pipeline.load_split(cfg, split), split,
                                       evals)
            assert report == json.loads(
                (evals / f"report_{split}.json").read_text()), split
        cm = confusion_from_predictions(np.array([0, 1, 1]),
                                        np.array([0, 1, 0]), 2)
        assert json.loads(json.dumps(cm)) == cm

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
        assert report["test_confusion"]["accuracy"] == 1.0

    def test_eval_train_split(self, bars_workspace):
        cfg = pipeline.load_config(bars_workspace / "run.cfg")
        out = bars_workspace / "out"
        train = pipeline.load_split(cfg, "train")
        pipeline.cmd_train_axes(cfg, train, out)
        model_path = pipeline.cmd_train(cfg, out / "axes.txt", train, out)
        report = pipeline.cmd_eval(cfg, model_path, train, "train", out)
        assert report["train_confusion"] is not None
        assert report["test_confusion"] is None
        counts, _, _, acc = read_confusion_csv(
            out / "confusion_train.csv")
        assert acc == report["train_confusion"]["accuracy"]
        assert counts.sum() == 80

    def test_accuracy_reparse_oracle(self, bars_workspace):
        cfg = pipeline.load_config(bars_workspace / "run.cfg")
        report = pipeline.cmd_pipeline(cfg, bars_workspace / "out")
        counts, _, _, acc = read_confusion_csv(
            bars_workspace / "out" / "confusion_test.csv")
        assert acc == report["test_confusion"]["accuracy"]
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

    @pytest.mark.parametrize("header, message", [
        ("MEIP-AXES 0", "an axis bundle file of version 0; this meip reads "
         "MEIP-AXES 1"),
        ("MEIP-FIELDS 2", "a fields file of version 2; this meip reads "
         "MEIP-FIELDS 1"),
        ("MEIP-MODEL 1", "a model file of version 1; this meip reads "
         "MEIP-MODEL 2"),
    ], ids=["axes", "fields", "model"])
    def test_inspect_names_an_unread_version(self, tmp_path, header,
                                             message):
        old = tmp_path / "old.txt"
        old.write_text(f"{header}\nbundle axes.txt\nconfig 0\n")
        with pytest.raises(ValueError) as err:
            pipeline.cmd_inspect(old, tmp_path / "viz")
        assert str(err.value) == f"{old}:1: {message}"
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

    @pytest.mark.parametrize("value, cause", [
        (0.0, "every sample has the same features, a covariance of 0 that "
              "no relative ridge lifts"),
        (1e200, "moments overflow float64 (largest |feature| 3.44e+200)"),
    ], ids=["zero_axes", "huge_axes"])
    def test_a_failed_fit_names_the_digit_the_images_and_the_bundle(
            self, bars_workspace, capsys, value, cause):
        # well-formed bundles whose features no Gaussian fits; neither
        # prints a numpy warning, which the test settings make an error
        bundle = bars_workspace / "bundle.txt"
        pipeline.save_axes(bundle, AxisBundle(axes=np.full((2, 49), value),
                                              n1=6, n2=6))
        assert cli.main(["train", "--bundle", str(bundle), "--config",
                         str(bars_workspace / "run.cfg")]) == 1
        assert capsys.readouterr().err == (
            f"[train] error: {bars_workspace / 'train-img.idx'}: digit 3: "
            f"{cause} (features on the axes of {bundle})\n")

    def test_identical_training_images_fail_before_forests(
            self, bars_workspace, capsys):
        path = bars_workspace / "train-img.idx"
        original = load_idx_images(path)
        threes = np.flatnonzero(
            load_idx_labels(bars_workspace / "train-lab.idx") == 3)
        images = original.copy()
        images[threes] = original[threes[0]]
        write_idx_images(path, images)
        cfg_path = bars_workspace / "run.cfg"
        assert cli.main(["pipeline", "--config", str(cfg_path)]) == 1
        assert capsys.readouterr().err == (
            f"[pipeline] error: {path}: all 40 training images of digit 3 "
            "are the same; a class covariance needs 2 that differ\n")
        assert not (bars_workspace / "out").exists()
        # one image that differs is enough, and an eval split may repeat one
        images[threes[-1]] = original[threes[-1]]
        write_idx_images(path, images)
        write_idx_images(bars_workspace / "test-img.idx",
                         np.repeat(original[:1], 30, axis=0))
        cfg = pipeline.load_config(cfg_path)
        assert len(pipeline.load_split(cfg, "train")) == 80
        assert len(pipeline.load_split(cfg, "test")) == 30

    def test_model_class_count_checked_against_config(self, bars_workspace):
        cfg = pipeline.load_config(bars_workspace / "run.cfg")
        out = bars_workspace / "out"
        report = pipeline.cmd_pipeline(cfg, out)
        z = np.random.default_rng(0).standard_normal((30, report["n_axes"]))
        model_path = out / "model3.txt"
        pipeline.save_model(model_path, fit(z, np.arange(30) % 3, 3),
                            "axes.txt", _sha256(out / "axes.txt"),
                            cfg.echo_items())
        with pytest.raises(ValueError, match=re.escape(
                f"{model_path}: model has 3 classes, config says 2")):
            pipeline.cmd_eval(cfg, model_path,
                              pipeline.load_split(cfg, "test"), "test", out)

    def test_model_dim_checked_against_bundle(self, bars_workspace):
        cfg = pipeline.load_config(bars_workspace / "run.cfg")
        out = bars_workspace / "out"
        n_axes = pipeline.cmd_pipeline(cfg, out)["n_axes"]
        z = np.random.default_rng(0).standard_normal((30, n_axes + 1))
        model_path = out / "model_wide.txt"
        pipeline.save_model(model_path, fit(z, np.arange(30) % 2, 2),
                            "axes.txt", _sha256(out / "axes.txt"),
                            cfg.echo_items())
        with pytest.raises(ValueError, match=re.escape(
                f"{model_path}: model has dim {n_axes + 1}, but "
                f"{out / 'axes.txt'} holds {n_axes} axes")):
            pipeline.cmd_eval(cfg, model_path,
                              pipeline.load_split(cfg, "test"), "test", out)

    def test_a_rewritten_bundle_is_rejected(self, bars_workspace, capsys):
        # train-axes into the model's directory rewrites the bundle the
        # model was fitted on; eval then names both files
        cfg_path, out = bars_workspace / "run.cfg", bars_workspace / "out"
        pipeline.cmd_pipeline(pipeline.load_config(cfg_path), out)
        fitted = _sha256(out / "axes.txt")
        other = bars_workspace / "other.cfg"
        other.write_text(cfg_path.read_text() + "lambda = 0.9\n")
        common = ["--out", str(out)]
        assert cli.main(["train-axes", "--config", str(other)] + common) == 0
        rewritten = _sha256(out / "axes.txt")
        assert rewritten != fitted
        capsys.readouterr()
        assert cli.main(["eval", "--config", str(cfg_path)] + common) == 1
        assert capsys.readouterr().err == (
            f"[eval] error: {out / 'model.txt'}: model was fitted on a bundle "
            f"of SHA-256 {fitted}, but {out / 'axes.txt'} has SHA-256 "
            f"{rewritten}\n")

    def test_a_missing_bundle_names_the_model_line(self, bars_workspace,
                                                   capsys):
        cfg_path, out = bars_workspace / "run.cfg", bars_workspace / "out"
        pipeline.cmd_pipeline(pipeline.load_config(cfg_path), out)
        lines = (out / "model.txt").read_text().splitlines(keepends=True)
        assert lines[1] == "bundle axes.txt\n"
        (out / "model.txt").write_text("".join(
            [lines[0], "bundle nowhere.txt\n", *lines[2:]]))
        capsys.readouterr()
        assert cli.main(["eval", "--config", str(cfg_path),
                         "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"[eval] error: {out / 'model.txt'}:2: bundle: no such file or "
            f"directory {str(out / 'nowhere.txt')!r}\n")

    def test_a_version_1_model_names_its_version(self, bars_workspace):
        cfg = pipeline.load_config(bars_workspace / "run.cfg")
        out = bars_workspace / "out"
        pipeline.cmd_pipeline(cfg, out)
        lines = (out / "model.txt").read_text().splitlines(keepends=True)
        assert lines[0] == "MEIP-MODEL 2\n"
        assert lines[2] == f"bundle_sha256 {_sha256(out / 'axes.txt')}\n"
        # version 1 had no digest line
        (out / "model.txt").write_text("".join(["MEIP-MODEL 1\n", lines[1],
                                                *lines[3:]]))
        with pytest.raises(ValueError, match=re.escape(
                f"{out / 'model.txt'}:1: a model file of version 1; this "
                "meip reads MEIP-MODEL 2")):
            pipeline.cmd_eval(cfg, out / "model.txt",
                              pipeline.load_split(cfg, "test"), "test", out)

    def test_a_malformed_digest_is_rejected(self, tmp_path):
        path = tmp_path / "model.txt"
        _save_model(path, np.random.default_rng(5))
        lines = path.read_text().splitlines(keepends=True)
        for bad in ("A" * 64, "0" * 63, "", "0" * 64 + " 0"):
            path.write_text("".join([*lines[:2], f"bundle_sha256 {bad}\n",
                                     *lines[3:]]))
            with pytest.raises(ValueError, match=re.escape(
                    f"{path}:3: expected a SHA-256 hex digest, got")):
                pipeline.load_model(path)

    @staticmethod
    def _echo_model(bars_workspace, echo: dict):
        """Run the bars pipeline, then rewrite its model with ``echo``
        merged into the config echo; returns (config, out dir)."""
        cfg = pipeline.load_config(bars_workspace / "run.cfg")
        out = bars_workspace / "out"
        pipeline.cmd_pipeline(cfg, out)
        model, bundle_ref, digest, items = pipeline.load_model(
            out / "model.txt")
        pipeline.save_model(out / "model.txt", model, bundle_ref, digest,
                            sorted({**dict(items), **echo}.items()))
        return cfg, out

    @pytest.mark.parametrize("echo, line_of, message", [
        # same digits, swapped order: every class index would swap
        ({"class_pairs": "7:3"}, None,
         "model was trained on classes [7, 3], config says [3, 7]"),
        ({"class_pairs": "3:3"}, "class_pairs",
         "config echo: class_pairs: expected two different digits, got "
         "'3:3'"),
        # one_vs_rest is empty too
        ({"class_pairs": ""}, "class_pairs",
         "config echo: class_pairs: expected a digit pair 'a:b', got ''"),
        ({"one_vs_rest": "3,300"}, "one_vs_rest",
         "config echo: one_vs_rest: digit 300 outside 0..255"),
    ], ids=["digit_order", "unreadable", "no_classes", "bad_one_vs_rest"])
    def test_model_echo_checked_against_config(self, bars_workspace, echo,
                                               line_of, message):
        cfg, out = self._echo_model(bars_workspace, echo)
        scored = (out / "confusion_test.csv").read_bytes()
        where = out / "model.txt"
        if line_of:  # the line of the echo item that fails
            keys = [line.partition(" =")[0]
                    for line in where.read_text().splitlines()]
            where = f"{where}:{keys.index(line_of) + 1}"
        with pytest.raises(ValueError, match=re.escape(
                f"{where}: {message}")):
            pipeline.cmd_eval(cfg, out / "model.txt",
                              pipeline.load_split(cfg, "test"), "test", out)
        # rejected before scoring: the earlier confusion CSV is untouched
        assert (out / "confusion_test.csv").read_bytes() == scored

    def test_model_echo_of_norm_l2_still_scores(self, bars_workspace):
        # an echo key this meip does not know is ignored: norm, and the
        # sigma0, ridge, out_dir, eps_j and max_iters that models echoed
        # while they were settings
        for echo in ({"norm": "l2"},
                     {"ridge": "9.9999999999999995e-07", "sigma0": "100000"},
                     {"out_dir": "out"},
                     {"eps_j": "9.9999999999999995e-08", "max_iters": "500"}):
            cfg, out = self._echo_model(bars_workspace, echo)
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

    @pytest.mark.parametrize("lines, says", [
        ("n2 = 8\nn1 = 6\n", "6x8 (n1 on {cfg}:2, n2 on {cfg}:1)"),
        ("", "28x28 (n1 default, n2 default)")], ids=["lines", "defaults"])
    def test_mesh_mismatch_names_where_n1_and_n2_come_from(
            self, bars_workspace, lines, says):
        cfg_text = (bars_workspace / "run.cfg").read_text()
        cfg_path = bars_workspace / "mesh.cfg"
        # the default budgets leave a 28x28 mesh a first move limit
        cfg_path.write_text(lines + cfg_text.replace(
            "n1 = 6\nn2 = 6\n", "").replace("tolp = 0.1\ntolq = 0.1\n", ""))
        cfg = pipeline.load_config(cfg_path)
        with pytest.raises(ValueError, match=re.escape(
                f"{bars_workspace / 'train-img.idx'}: images are 6x6, "
                f"config says {says.format(cfg=cfg_path)}") + "$"):
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
        assert not out.exists()

    def test_pipeline_loads_each_split_once(self, bars_workspace,
                                            monkeypatch):
        events, splits, grown = [], {}, []
        load_split, generate_axes = pipeline.load_split, forest.generate_axes

        def counting_load(cfg, split):
            events.append(split)
            splits[split] = load_split(cfg, split)
            return splits[split]

        def noting_forest(gray, *args, **kwargs):
            events.append("forest")
            grown.append(gray)
            return generate_axes(gray, *args, **kwargs)

        monkeypatch.setattr(pipeline, "load_split", counting_load)
        monkeypatch.setattr(forest, "generate_axes", noting_forest)
        cfg_path = bars_workspace / "two.cfg"
        cfg_path.write_text((bars_workspace / "run.cfg").read_text()
                            + "ref_kind = u,v\n")
        pipeline.cmd_pipeline(pipeline.load_config(cfg_path),
                              bars_workspace / "out")
        assert events == ["train", "test", "forest", "forest"]
        # every forest grows on the training split's own matrix, not a copy
        assert all(gray is splits["train"].gray for gray in grown)

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

    def test_the_default_output_is_out_next_to_the_config(
            self, bars_workspace, capsys, monkeypatch, tmp_path_factory):
        monkeypatch.chdir(tmp_path_factory.mktemp("cwd"))
        common = ["--config", str(bars_workspace / "run.cfg")]
        out = bars_workspace / "out"
        for argv, name in ((["train-axes"], "axes.txt"),
                           (["train"], "model.txt"),
                           (["eval"], "report_test.json"),
                           (["pipeline"], "report.json")):
            assert cli.main(argv + common) == 0
            assert (out / name).exists(), name
        capsys.readouterr()
        assert not any(Path.cwd().iterdir())

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

    @pytest.mark.parametrize("key, value", [
        ("train_images", "nope"), ("test_labels", "nope"),
        ("test_images", "")])
    def test_missing_input_names_its_key_and_line(self, bars_workspace,
                                                  capsys, key, value):
        cfg_path = bars_workspace / "run.cfg"
        lines = cfg_path.read_text().splitlines(keepends=True)
        i = next(k for k, line in enumerate(lines) if line.startswith(key))
        lines[i] = f"{key} = {value}\n"
        cfg_path.write_text("".join(lines))
        assert cli.main(["pipeline", "--config", str(cfg_path)]) == 1
        problem = (f"no such file or directory "
                   f"{str(bars_workspace / value)!r}" if value else
                   "names no file")
        assert capsys.readouterr().err == (
            f"[pipeline] error: {cfg_path}:{i + 1}: {key}: {problem}\n")

    @pytest.mark.parametrize("argv, name, problem", [
        (["train", "--bundle"], "nowhere.txt", "no such file or directory"),
        (["train", "--bundle"], "data", "is a directory"),
        (["eval", "--model"], "nomodel.txt", "no such file or directory"),
        (["pipeline"], "nowhere.idx", "no such file or directory")],
        ids=["bundle_missing", "bundle_directory", "model_missing",
             "pipeline_input_missing"])
    def test_a_failed_run_names_its_file_and_makes_no_out(
            self, bars_workspace, capsys, argv, name, problem):
        cfg_path, out = bars_workspace / "run.cfg", bars_workspace / "run_out"
        (bars_workspace / "data").mkdir()
        path = bars_workspace / name
        if argv == ["pipeline"]:
            cfg_path.write_text(cfg_path.read_text().replace(
                "train_images = train-img.idx", f"train_images = {name}"))
            source, args = f"{cfg_path}:7: train_images", []
        else:
            source, args = argv[1], [str(path)]
        capsys.readouterr()
        assert cli.main([*argv, *args, "--config", str(cfg_path),
                         "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"[{argv[0]}] error: {source}: {problem} {str(path)!r}\n")
        assert not out.exists()

    def test_an_unset_input_names_the_config_file(self, bars_workspace,
                                                  capsys):
        cfg_path = bars_workspace / "run.cfg"
        cfg_path.write_text(cfg_path.read_text().replace(
            "train_labels = train-lab.idx\n", ""))
        assert cli.main(["pipeline", "--config", str(cfg_path)]) == 1
        assert capsys.readouterr().err == (
            f"[pipeline] error: {cfg_path}: train_labels: names no file\n")

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

    def test_the_parser_is_built_once_per_process(self, bars_workspace,
                                                  capsys, monkeypatch):
        out = bars_workspace / "once"
        common = ["--config", str(bars_workspace / "run.cfg"),
                  "--out", str(out)]
        assert cli.main(["train-axes"] + common) == 0
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__",
                            counting_init)
        written = []
        for _ in range(2):
            assert cli.main(["train"] + common) == 0
            assert cli.main(["eval"] + common) == 0
            written.append({f.name: f.read_bytes() for f in out.iterdir()})
            # a call that argparse rejects leaves the next call as it was
            with pytest.raises(SystemExit) as exit_info:
                cli.main(["train"])
            assert exit_info.value.code == 2
        capsys.readouterr()
        assert built == []
        assert written[1] == written[0]
        assert {"model.txt", "predictions_test.csv"} <= set(written[0])

    def test_a_blas_that_cannot_be_pinned_is_logged(self, monkeypatch,
                                                    caplog):
        def not_loaded(*args, **kwargs):
            raise OSError("not loaded")

        monkeypatch.setattr(cli.ctypes, "CDLL", not_loaded)
        cli._one_blas_thread.cache_clear()
        try:
            with caplog.at_level(logging.INFO, logger="meip.cli"):
                cli._one_blas_thread()
        finally:
            cli._one_blas_thread.cache_clear()
        assert [r.levelno for r in caplog.records] == [logging.WARNING]
        assert "could not set BLAS to one thread" in caplog.text

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


def test_text_files_are_utf_8_in_an_ascii_locale(tmp_path):
    # Under the C locale, with coercion and UTF-8 mode off, open() decodes
    # and encodes ASCII: a config with a UTF-8 comment, and a model whose
    # echo holds a non-ASCII path, must still load and round-trip.
    (tmp_path / "run.cfg").write_text(
        "# \u03bb\nclass_pairs = 0:1\ntrain_images = donn\u00e9es/a.idx\n",
        encoding="utf-8")
    src = str(Path(pipeline.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0",
           "LC_ALL": "C",
           "PYTHONPATH": os.pathsep.join(
               filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = """if True:
        import locale, sys
        from pathlib import Path
        import numpy as np
        from meip import classifier, pipeline
        print(locale.getpreferredencoding(False))
        if "utf" not in locale.getpreferredencoding(False).lower():
            tmp = Path(sys.argv[1])
            cfg = pipeline.load_config(tmp / "run.cfg")
            model = [classifier.gaussian_from_moments(
                np.full(2, float(j)), np.eye(2), 0.5) for j in range(2)]
            pipeline.save_model(tmp / "model.txt", model, "axes.txt",
                                "0" * 64, cfg.echo_items())
            echo = pipeline.load_model(tmp / "model.txt")[3]
            assert echo == cfg.echo_items()
    """
    run = subprocess.run([sys.executable, "-c", code, str(tmp_path)],
                         env=env, capture_output=True, text=True)
    if "utf" in run.stdout.lower():
        pytest.skip(f"the C locale still encodes {run.stdout.strip()}")
    assert run.returncode == 0, run.stderr
    assert "train_images = donn\u00e9es/a.idx\n" in \
        (tmp_path / "model.txt").read_text(encoding="utf-8")


@pytest.mark.skipif((os.cpu_count() or 1) < 2,
                    reason="a second BLAS thread needs a second CPU")
def test_outputs_do_not_depend_on_blas_threads(tmp_path):
    # A 60-axis bundle over 28x28 glyphs, the classify_bulk shape: without
    # the CLI's pin, the feature GEMM gives other bits on 2 OpenBLAS
    # threads than on 1, and so do model.txt and hist_test.csv.
    bench = Path(__file__).resolve().parent.parent / "bench"
    sys.path.insert(0, str(bench))
    try:
        import glyphs
    finally:
        sys.path.remove(str(bench))
    rng = np.random.default_rng(3)
    paths = glyphs.write_dataset(tmp_path, rng, glyphs.make_bank(rng, 28),
                                 range(5), 200, 200)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("one_vs_rest = 0,1,2,3,4\n" + "".join(
        f"{key} = {p.name}\n" for key, p in paths.items()))
    axes, _ = np.linalg.qr(rng.standard_normal((29 * 29, 60)))
    bundle = tmp_path / "bundle.txt"
    pipeline.save_axes(bundle, AxisBundle(axes=axes.T.copy(), n1=28, n2=28))

    src = str(Path(pipeline.__file__).resolve().parent.parent)
    outs = []
    for threads in ("2", "1"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join(
                   filter(None, [src, os.environ.get("PYTHONPATH")]))}
        outs.append(tmp_path / f"out{threads}")
        for argv in (["train", "--bundle", str(bundle)], ["eval"]):
            subprocess.run([sys.executable, "-m", "meip.cli", *argv,
                            "--config", str(cfg), "--out", str(outs[-1])],
                           env=env, capture_output=True, check=True)
    names = sorted(p.name for p in outs[0].iterdir())
    assert names == sorted(p.name for p in outs[1].iterdir())
    assert "model.txt" in names and "hist_test.csv" in names
    for name in names:
        assert (outs[0] / name).read_bytes() == \
            (outs[1] / name).read_bytes(), name
