"""Subset pool management, splitting, and axis-bundle orthonormalization."""

import numpy as np
import pytest

import meip.forest as forest_mod
import meip.optimizer as optimizer_mod
from meip import fem
from meip.forest import (AxisBundle, SubsetNode, generate_axes,
                         orthonormalize, pick_subset, split_subset)
from meip.optimizer import (OptimizerConfig, compute_state, element_projection,
                            solve_move_limit_lp)
from conftest import blob_grays, separable_grays


def make_node(indices, labels):
    indices, labels = np.asarray(indices), np.asarray(labels)
    return SubsetNode(indices[labels[indices] == 0],
                      indices[labels[indices] == 1])


def node_indices(node):
    return sorted(np.concatenate([node.idx0, node.idx1]).tolist())


def split_on(node, axis, gray, mesh):
    """Split ``node`` on the coordinates its class rows have on ``axis``."""
    proj = element_projection(mesh, axis)
    return split_subset(node, gray[node.idx0] @ proj, gray[node.idx1] @ proj)


def rescan(indices, axis, gray, labels, mesh):
    """Left and right sample indices of a subset re-projected as a whole."""
    z = gray[indices] @ element_projection(mesh, axis)
    y = labels[indices]
    z_th = 0.5 * (z[y == 0].mean() + z[y == 1].mean())
    return (sorted(indices[z <= z_th].tolist()),
            sorted(indices[z > z_th].tolist()))


class TestPickSubset:
    def test_argmax_of_min(self):
        pool = [SubsetNode(np.arange(10), np.arange(50)),
                SubsetNode(np.arange(30), np.arange(40)),
                SubsetNode(np.arange(25), np.arange(5))]
        assert pick_subset(pool) == 1

    def test_single_subset(self):
        pool = [SubsetNode(np.arange(2), np.arange(1))]
        assert pick_subset(pool) == 0

    def test_tie_breaks_to_lowest_index(self):
        pool = [SubsetNode(np.arange(10), np.arange(10)),
                SubsetNode(np.arange(10), np.arange(20))]
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
        left, right = split_on(node, axis, gray, mesh)
        assert node_indices(left) == [0]
        assert node_indices(right) == [1]

    def test_identical_projections_go_left(self):
        mesh, axis = self.unit_axis_setup()
        gray = np.full((4, 1), 1.5)
        labels = np.array([0, 1, 0, 1])
        node = make_node([0, 1, 2, 3], labels)
        left, right = split_on(node, axis, gray, mesh)
        assert node_indices(left) == [0, 1, 2, 3]
        assert node_indices(right) == []

    def test_partition_against_rescan_oracle(self, mesh4):
        rng = np.random.default_rng(0)
        gray = rng.random((20, mesh4.ne))
        labels = rng.integers(0, 2, 20)
        labels[:2] = [0, 1]  # ensure both classes
        axis = rng.standard_normal(mesh4.n_nodes)
        node = make_node(np.arange(20), labels)
        left, right = split_on(node, axis, gray, mesh4)

        # independent re-scan of the whole subset in one projection
        expect_left, expect_right = rescan(np.arange(20), axis, gray, labels,
                                           mesh4)
        assert node_indices(left) == expect_left
        assert node_indices(right) == expect_right
        assert not (set(expect_left) & set(expect_right))
        assert set(expect_left) | set(expect_right) == set(range(20))
        for child in (left, right):
            assert (labels[child.idx0] == 0).all()
            assert (labels[child.idx1] == 1).all()


class TestGenerateAxes:
    def test_single_axis_single_optimize_call(self, mesh4, monkeypatch):
        rng = np.random.default_rng(1)
        g1, g0 = blob_grays(mesh4, 10, rng)
        gray = np.vstack([g0, g1])
        labels = np.array([0] * 10 + [1] * 10)
        calls, results, uppers, js = [], [], [], []
        real = forest_mod.optimize

        def counting(g1_, g0_, mesh_, cfg_, start=None):
            calls.append((len(g1_), len(g0_)))
            results.append(real(g1_, g0_, mesh_, cfg_, start=start))
            return results[-1]

        def solve(design, grads, cfg, limit):
            uppers.append(limit)
            return solve_move_limit_lp(design, grads, cfg, limit)

        def state(*args):
            st = compute_state(*args)
            js.append(st.j0)
            return st

        monkeypatch.setattr(forest_mod, "optimize", counting)
        monkeypatch.setattr(optimizer_mod, "solve_move_limit_lp", solve)
        monkeypatch.setattr(optimizer_mod, "compute_state", state)
        monkeypatch.setattr(optimizer_mod, "MAX_ITERS", 2)
        cfg = OptimizerConfig(tolp=0.1, tolq=0.1)
        bundle = generate_axes(gray, labels, 1, cfg, mesh4)
        assert len(calls) == 1
        assert calls[0] == (10, 10)
        assert bundle.n_axes == 1
        assert len(bundle.provenance) == 1
        assert bundle.provenance[0]["m0"] == 10
        assert bundle.provenance[0]["m1"] == 10
        assert bundle.provenance[0]["g_final"] == results[0].state.g0
        assert bundle.provenance[0]["state_evals"] == results[0].state_evals
        # js[k] is the trial of uppers[k - 1]
        first = next(k for k in range(1, len(js)) if js[k] < js[0])
        assert bundle.provenance[0]["dx_first_accept"] == uppers[first - 1]
        assert len(bundle.fields) == 1

    def test_multiple_axes_and_determinism(self, mesh4, monkeypatch):
        rng = np.random.default_rng(2)
        g1, g0 = blob_grays(mesh4, 20, rng, spread=1.2)
        gray = np.vstack([g0, g1])
        labels = np.array([0] * 20 + [1] * 20)
        monkeypatch.setattr(optimizer_mod, "MAX_ITERS", 3)
        cfg = OptimizerConfig(tolp=0.1, tolq=0.1)
        b1 = generate_axes(gray, labels, 3, cfg, mesh4)
        b2 = generate_axes(gray, labels, 3, cfg, mesh4)
        assert b1.n_axes <= 3
        assert np.array_equal(b1.axes, b2.axes)
        assert b1.pool_exhausted == b2.pool_exhausted

    @staticmethod
    def _first_designs(monkeypatch):
        """Record the design of each axis's first ``compute_state``."""
        firsts, new_axis = [], []
        optimize, compute_state = forest_mod.optimize, optimizer_mod.compute_state

        def marking(*args, **kwargs):
            new_axis.append(True)
            return optimize(*args, **kwargs)

        def recording(design, *args):
            if new_axis:
                new_axis.clear()
                firsts.append((design.p.tobytes(), design.q.tobytes()))
            return compute_state(design, *args)

        monkeypatch.setattr(forest_mod, "optimize", marking)
        monkeypatch.setattr(optimizer_mod, "compute_state", recording)
        return firsts

    def test_child_axes_start_from_their_parent_design(self, mesh4,
                                                       monkeypatch):
        # overlapping noise classes: every split leaves both classes on
        # both sides, so the forest grows children and a grandchild
        rng = np.random.default_rng(0)
        gray = rng.random((40, mesh4.ne))
        gray[20:, :4] += 0.3
        labels = np.array([0] * 20 + [1] * 20)
        monkeypatch.setattr(optimizer_mod, "MAX_ITERS", 3)
        cfg = OptimizerConfig(tolp=0.1, tolq=0.1)
        firsts = self._first_designs(monkeypatch)
        bundle = generate_axes(gray, labels, 4, cfg, mesh4)
        assert bundle.n_axes == 4 and len(firsts) == 4
        starts = [prov["start"] for prov in bundle.provenance]
        assert starts == ["uniform", "axis 0", "axis 0", "axis 2"]
        uniform = fem.uniform_design(mesh4, cfg.tolp, cfg.tolq)
        assert firsts[0] == (uniform.p.tobytes(), uniform.q.tobytes())
        for k, start in enumerate(starts[1:], start=1):
            parent = int(start.split()[1])
            assert parent < k
            # the parent's final design, bit for bit
            final = bundle.fields[parent]
            assert firsts[k] == (final["p"].tobytes(), final["q"].tobytes())

    def test_children_equal_the_rescan_of_their_parent(self, mesh4,
                                                       monkeypatch):
        # the data of test_child_axes_start_from_their_parent_design
        rng = np.random.default_rng(0)
        gray = rng.random((40, mesh4.ne))
        gray[20:, :4] += 0.3
        labels = np.array([0] * 20 + [1] * 20)
        monkeypatch.setattr(optimizer_mod, "MAX_ITERS", 3)
        cfg = OptimizerConfig(tolp=0.1, tolq=0.1)
        splits = []
        split = forest_mod.split_subset

        def recording(node, z0, z1):
            splits.append((node_indices(node), split(node, z0, z1)))
            return splits[-1][1]

        monkeypatch.setattr(forest_mod, "split_subset", recording)
        bundle = generate_axes(gray, labels, 4, cfg, mesh4)
        assert [p["start"] for p in bundle.provenance] == [
            "uniform", "axis 0", "axis 0", "axis 2"]
        assert len(splits) == 4
        for axis, (parent, children) in zip(bundle.axes, splits):
            expect = rescan(np.array(parent), axis, gray, labels, mesh4)
            assert [node_indices(c) for c in children] == list(expect)
            for child in children:
                assert (labels[child.idx0] == 0).all()
                assert (labels[child.idx1] == 1).all()
        # every later axis grew on a child of its parent's split
        for prov in bundle.provenance[1:]:
            _, children = splits[int(prov["start"].split()[1])]
            assert (prov["m0"], prov["m1"]) in [
                (c.idx0.size, c.idx1.size) for c in children]

    def test_one_axis_forest_is_a_cold_start(self, mesh4, monkeypatch):
        rng = np.random.default_rng(2)
        g1, g0 = blob_grays(mesh4, 20, rng, spread=1.2)
        gray = np.vstack([g0, g1])
        labels = np.array([0] * 20 + [1] * 20)
        monkeypatch.setattr(optimizer_mod, "MAX_ITERS", 3)
        cfg = OptimizerConfig(tolp=0.1, tolq=0.1)
        cold = optimizer_mod.optimize(g1, g0, mesh4, cfg)
        one = generate_axes(gray, labels, 1, cfg, mesh4)
        assert one.axes[0].tobytes() == cold.state.alpha.tobytes()
        assert one.provenance[0]["start"] == "uniform"
        # a longer forest grows the same first axis
        two = generate_axes(gray, labels, 2, cfg, mesh4)
        assert two.axes[0].tobytes() == cold.state.alpha.tobytes()

    @pytest.mark.parametrize("forced, max_iters, overrides, warned", [
        (True, 3, dict(), 4),
        (False, 3, dict(), 0),
        (True, 0, dict(), 0),
        (True, 3, dict(eps_x=0.01), 0),
    ], ids=["all_rejected", "unforced", "max_iters_0", "spent_limit"])
    def test_an_axis_that_accepts_no_step_is_warned(
            self, mesh4, monkeypatch, caplog, forced, max_iters, overrides,
            warned):
        # With ``forced`` every trial is worse than its axis's start, so an
        # axis that tries a step accepts none; one that tries no step (no
        # accepted step allowed, or a first move limit at most eps_x) is
        # not warned about.
        seen = []

        def state(design, gray1, *args):
            st = compute_state(design, gray1, *args)
            if seen and seen[-1][0] is gray1:   # a trial of the same axis
                if forced:
                    st.j0 = seen[-1][1] + 1.0
            else:
                seen.append((gray1, st.j0))
            return st

        monkeypatch.setattr(optimizer_mod, "compute_state", state)
        # the data of test_child_axes_start_from_their_parent_design
        rng = np.random.default_rng(0)
        gray = rng.random((40, mesh4.ne))
        gray[20:, :4] += 0.3
        labels = np.array([0] * 20 + [1] * 20)
        monkeypatch.setattr(optimizer_mod, "MAX_ITERS", max_iters)
        cfg = OptimizerConfig(tolp=0.1, tolq=0.1, **overrides)
        with caplog.at_level("WARNING", logger="meip.forest"):
            bundle = generate_axes(gray, labels, 4, cfg, mesh4)
        assert bundle.n_axes == 4
        expect = [f"axis {k} on a ({p['m0']}, {p['m1']}) subset accepted "
                  f"no step (start: {p['start']})"
                  for k, p in enumerate(bundle.provenance)
                  if p["iterations"] == 0 and p["state_evals"] > 1]
        assert [r.getMessage() for r in caplog.records
                if r.name == "meip.forest"] == expect
        assert len(expect) == warned
        if forced:
            assert all(p["iterations"] == 0 for p in bundle.provenance)

    def test_swapping_the_labels_negates_every_axis(self, mesh4, monkeypatch):
        # Each axis negates (see the optimizer's class-swap test), so a
        # split makes the same two children, left and right trading places,
        # and each starts from the same design.  As the children join the
        # pool in the other order, this holds while no pick is a tie
        # between pool entries and no coordinate lies on a threshold, as on
        # these data.
        rng = np.random.default_rng(1)
        gray = rng.random((40, mesh4.ne))
        gray[20:, :4] += 0.3
        labels = np.array([0] * 20 + [1] * 20)
        monkeypatch.setattr(optimizer_mod, "MAX_ITERS", 3)
        cfg = OptimizerConfig(tolp=0.1, tolq=0.1)
        a = generate_axes(gray, labels, 6, cfg, mesh4)
        b = generate_axes(gray, 1 - labels, 6, cfg, mesh4)
        starts = [prov["start"] for prov in a.provenance]
        assert starts == ["uniform", "axis 0", "axis 1", "axis 0", "axis 3",
                          "axis 2"]
        assert [prov["start"] for prov in b.provenance] == starts
        assert b.axes.tobytes() == (-a.axes).tobytes()
        for fa, fb in zip(a.fields, b.fields):
            assert fb["p"].tobytes() == fa["p"].tobytes()
            assert fb["q"].tobytes() == fa["q"].tobytes()

    def test_pool_exhaustion_flag(self, mesh4, monkeypatch):
        # perfectly separable data exhausts the pool after one axis
        gray, labels = separable_grays(mesh4.ne)
        monkeypatch.setattr(optimizer_mod, "MAX_ITERS", 2)
        cfg = OptimizerConfig(tolp=0.1, tolq=0.1)
        bundle = generate_axes(gray, labels, 5, cfg, mesh4)
        assert bundle.pool_exhausted
        assert bundle.n_axes < 5
        # asking for the axes the pool holds reaches n_axes: not exhausted
        full = generate_axes(gray, labels, bundle.n_axes, cfg, mesh4)
        assert not full.pool_exhausted
        assert full.axes.tobytes() == bundle.axes.tobytes()

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
