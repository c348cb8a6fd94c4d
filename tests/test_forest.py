"""Subset pool management, splitting, and axis-bundle orthonormalization."""

import numpy as np
import pytest

import meip.forest as forest_mod
from meip import fem
from meip.forest import (AxisBundle, SubsetNode, generate_axes,
                         orthonormalize, pick_subset, split_subset)
from meip.optimizer import OptimizerConfig, element_projection
from conftest import blob_grays


def make_node(indices, labels):
    return SubsetNode.from_labels(np.asarray(indices), np.asarray(labels))


class TestPickSubset:
    def test_argmax_of_min(self):
        pool = [SubsetNode(np.arange(60), 10, 50),
                SubsetNode(np.arange(70), 30, 40),
                SubsetNode(np.arange(30), 25, 5)]
        assert pick_subset(pool) == 1

    def test_single_subset(self):
        pool = [SubsetNode(np.arange(3), 2, 1)]
        assert pick_subset(pool) == 0

    def test_tie_breaks_to_lowest_index(self):
        pool = [SubsetNode(np.arange(20), 10, 10),
                SubsetNode(np.arange(30), 10, 20)]
        assert pick_subset(pool) == 0

    def test_empty_pool(self):
        with pytest.raises(ValueError):
            pick_subset([])


class TestSplitSubset:
    def unit_axis_setup(self):
        # on a 1x1 mesh with a constant axis the projection equals the
        # single gray value, making thresholds easy to reason about
        mesh = fem.build_mesh(1, 1)
        axis = np.ones(mesh.n_nodes)
        return mesh, axis

    def test_midpoint_threshold(self):
        mesh, axis = self.unit_axis_setup()
        gray = np.array([[0.0], [2.0]])
        labels = np.array([0, 1])
        node = make_node([0, 1], labels)
        left, right = split_subset(node, axis, gray, labels, mesh)
        assert left.indices.tolist() == [0]
        assert right.indices.tolist() == [1]

    def test_identical_projections_go_left(self):
        mesh, axis = self.unit_axis_setup()
        gray = np.full((4, 1), 1.5)
        labels = np.array([0, 1, 0, 1])
        node = make_node([0, 1, 2, 3], labels)
        left, right = split_subset(node, axis, gray, labels, mesh)
        assert left.indices.tolist() == [0, 1, 2, 3]
        assert right.indices.size == 0

    def test_partition_against_rescan_oracle(self, mesh4):
        rng = np.random.default_rng(0)
        gray = rng.random((20, mesh4.ne))
        labels = rng.integers(0, 2, 20)
        labels[:2] = [0, 1]  # ensure both classes
        axis = rng.standard_normal(mesh4.n_nodes)
        node = make_node(np.arange(20), labels)
        left, right = split_subset(node, axis, gray, labels, mesh4)

        # independent re-scan
        proj = element_projection(mesh4, axis)
        z = gray @ proj
        z_th = 0.5 * (z[labels == 0].mean() + z[labels == 1].mean())
        expect_left = set(np.flatnonzero(z <= z_th).tolist())
        expect_right = set(np.flatnonzero(z > z_th).tolist())
        assert set(left.indices.tolist()) == expect_left
        assert set(right.indices.tolist()) == expect_right
        assert not (expect_left & expect_right)
        assert expect_left | expect_right == set(range(20))
        assert left.m0 + left.m1 == left.indices.size
        assert right.m0 + right.m1 == right.indices.size


class TestGenerateAxes:
    def test_single_axis_single_optimize_call(self, mesh4, monkeypatch):
        rng = np.random.default_rng(1)
        g1, g0 = blob_grays(mesh4, 10, rng)
        gray = np.vstack([g0, g1])
        labels = np.array([0] * 10 + [1] * 10)
        calls, results = [], []
        real = forest_mod.optimize

        def counting(g1_, g0_, mesh_, cfg_):
            calls.append((len(g1_), len(g0_)))
            results.append(real(g1_, g0_, mesh_, cfg_))
            return results[-1]

        monkeypatch.setattr(forest_mod, "optimize", counting)
        cfg = OptimizerConfig(tolp=0.1, tolq=0.1, max_iters=2)
        bundle = generate_axes(gray, labels, 1, cfg, mesh4)
        assert len(calls) == 1
        assert calls[0] == (10, 10)
        assert bundle.n_axes == 1
        assert len(bundle.provenance) == 1
        assert bundle.provenance[0]["m0"] == 10
        assert bundle.provenance[0]["m1"] == 10
        assert bundle.provenance[0]["g_final"] == results[0].g_final
        assert len(bundle.fields) == 1

    def test_multiple_axes_and_determinism(self, mesh4):
        rng = np.random.default_rng(2)
        g1, g0 = blob_grays(mesh4, 20, rng, spread=1.2)
        gray = np.vstack([g0, g1])
        labels = np.array([0] * 20 + [1] * 20)
        cfg = OptimizerConfig(tolp=0.1, tolq=0.1, max_iters=3)
        b1 = generate_axes(gray, labels, 3, cfg, mesh4)
        b2 = generate_axes(gray, labels, 3, cfg, mesh4)
        assert b1.n_axes <= 3
        assert np.array_equal(b1.axes, b2.axes)
        assert b1.pool_exhausted == b2.pool_exhausted

    def test_pool_exhaustion_flag(self, mesh4):
        # perfectly separable data exhausts the pool after one axis
        rng = np.random.default_rng(3)
        g1 = np.zeros((6, mesh4.ne))
        g0 = np.zeros((6, mesh4.ne))
        g1[:, :8] = rng.random((6, 8)) + 1.0
        g0[:, 8:16] = rng.random((6, 8)) + 1.0
        gray = np.vstack([g0, g1])
        labels = np.array([0] * 6 + [1] * 6)
        cfg = OptimizerConfig(tolp=0.1, tolq=0.1, max_iters=2)
        bundle = generate_axes(gray, labels, 5, cfg, mesh4)
        assert bundle.pool_exhausted
        assert bundle.n_axes < 5

    def test_rejects_nonbinary_labels(self, mesh4):
        with pytest.raises(ValueError, match="binary"):
            generate_axes(np.ones((4, mesh4.ne)), np.array([0, 1, 2, 1]),
                          1, OptimizerConfig(), mesh4)

    def test_rejects_zero_axes(self, mesh4):
        with pytest.raises(ValueError, match="n_axes"):
            generate_axes(np.ones((2, mesh4.ne)), np.array([0, 1]),
                          0, OptimizerConfig(), mesh4)


class TestOrthonormalize:
    def test_orthonormal_input_spans_same_subspace(self):
        rng = np.random.default_rng(4)
        q, _ = np.linalg.qr(rng.standard_normal((25, 4)))
        bundle = AxisBundle(axes=q.T.copy(), n1=4, n2=4)
        out = orthonormalize(bundle, 4)
        p_in = q @ q.T
        p_out = out.axes.T @ out.axes
        assert np.abs(p_in - p_out).max() <= 1e-9

    def test_duplicate_axes_collapse(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal(25)
        bundle = AxisBundle(axes=np.array([a, a]), n1=4, n2=4)
        out = orthonormalize(bundle, 1)
        unit = a / np.linalg.norm(a)
        overlap = abs(float(out.axes[0] @ unit))
        assert overlap == pytest.approx(1.0, abs=1e-12)

    def test_rank3_reconstruction(self):
        rng = np.random.default_rng(6)
        basis = rng.standard_normal((3, 25))
        coeff = rng.standard_normal((10, 3))
        bundle = AxisBundle(axes=coeff @ basis, n1=4, n2=4)
        out = orthonormalize(bundle, 3)
        a = bundle.axes.T
        u = out.axes.T
        recon = a - u @ (u.T @ a)
        assert np.abs(recon).max() <= 1e-9

    def test_k_exceeding_rank_names_rank(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal(25)
        bundle = AxisBundle(axes=np.array([a, 2 * a, -a]), n1=4, n2=4)
        with pytest.raises(ValueError, match="rank 1"):
            orthonormalize(bundle, 2)

    def test_k_exceeding_count(self):
        bundle = AxisBundle(axes=np.ones((2, 25)), n1=4, n2=4)
        with pytest.raises(ValueError, match="number of axes"):
            orthonormalize(bundle, 3)

    def test_result_is_orthonormal(self):
        rng = np.random.default_rng(8)
        bundle = AxisBundle(axes=rng.standard_normal((6, 25)), n1=4, n2=4)
        out = orthonormalize(bundle, 4)
        gram = out.axes @ out.axes.T
        assert np.abs(gram - np.eye(4)).max() <= 1e-10
