"""Axis optimization loop: state assembly, gradients, and convergence."""

import copy

import numpy as np
import pytest

from meip import fem, optimizer
from meip.lp import solve_move_limit_lp
from meip.optimizer import (REF_KINDS, AxisResult, OptimizerConfig,
                            compute_state, element_projection, gradients,
                            mean_forces, optimize)
from conftest import blob_grays, random_design
from test_fem import gamma


def frozen_objective(design, state, mesh, cfg):
    """J at a design with the S-subsets (hence h) held fixed."""
    op = fem.assemble_stiffness(mesh, design, cfg.sigma0)
    u = op.solve(state.f)
    v = op.solve(state.g)
    w = op.solve(state.h)
    if cfg.ref_kind == "u":
        alpha = u
    elif cfg.ref_kind == "v":
        alpha = v
    else:
        alpha = u - v
    c = (1 - 2 * cfg.lam) * (u - v) + (1 - cfg.lam) * w
    return float(c @ (op.K @ alpha))


class TestMeanForces:
    def test_single_sample(self, mesh4):
        rng = np.random.default_rng(0)
        g1 = rng.random((1, mesh4.ne))
        g0 = rng.random((2, mesh4.ne))
        f, g = mean_forces(g1, g0, mesh4)
        assert np.allclose(f, fem.grayscale_to_force(mesh4, g1[0]))

    def test_duplicate_samples(self, mesh4):
        rng = np.random.default_rng(1)
        row = rng.random(mesh4.ne)
        f1, _ = mean_forces(np.array([row]), np.ones((1, mesh4.ne)), mesh4)
        f2, _ = mean_forces(np.array([row, row]), np.ones((1, mesh4.ne)),
                            mesh4)
        assert np.allclose(f1, f2)

    def test_linearity_oracle(self, mesh4):
        # force of the mean gray == mean of the per-sample forces
        rng = np.random.default_rng(2)
        g1 = rng.random((7, mesh4.ne))
        f, _ = mean_forces(g1, g1, mesh4)
        per_sample = np.array([fem.grayscale_to_force(mesh4, row)
                               for row in g1])
        assert np.abs(f - per_sample.mean(axis=0)).max() <= 1e-12

    def test_empty_slice(self, mesh4):
        with pytest.raises(ValueError, match="non-empty"):
            mean_forces(np.empty((0, mesh4.ne)), np.ones((1, mesh4.ne)),
                        mesh4)


class TestComputeState:
    def setup_data(self, mesh, seed=3):
        rng = np.random.default_rng(seed)
        return blob_grays(mesh, 12, rng)

    def test_lambda_one_pure_mean_objective(self, mesh4):
        g1, g0 = self.setup_data(mesh4)
        cfg = OptimizerConfig(lam=1.0, tolp=0.1, tolq=0.1)
        design = fem.uniform_design(mesh4, 0.1, 0.1)
        st = compute_state(design, g1, g0, mesh4, cfg,
                           *mean_forces(g1, g0, mesh4))
        assert np.allclose(st.c, -(st.u - st.v))
        j_expected = float(-(st.u - st.v) @ (st.op.K @ st.alpha))
        assert st.j0 == pytest.approx(j_expected, rel=1e-12)

    def test_identical_classes_zero_axis(self, mesh4):
        g1, _ = self.setup_data(mesh4)
        cfg = OptimizerConfig(tolp=0.1, tolq=0.1, ref_kind="u_minus_v")
        design = fem.uniform_design(mesh4, 0.1, 0.1)
        st = compute_state(design, g1, g1, mesh4, cfg,
                           *mean_forces(g1, g1, mesh4))
        assert np.abs(st.alpha).max() <= 1e-12
        assert abs(st.j0) <= 1e-18
        assert st.g0 > 0  # u'Kv = ||u||^2 in the energy norm

    def test_force_side_identity(self, mesh4):
        # J0 computed through K equals the force-side combination
        g1, g0 = self.setup_data(mesh4, seed=4)
        cfg = OptimizerConfig(tolp=0.1, tolq=0.1)
        design = fem.uniform_design(mesh4, 0.1, 0.1)
        st = compute_state(design, g1, g0, mesh4, cfg,
                           *mean_forces(g1, g0, mesh4))
        c_force = (1 - 2 * cfg.lam) * (st.f - st.g) + (1 - cfg.lam) * st.h
        assert st.j0 == pytest.approx(float(c_force @ st.alpha), rel=1e-9)

    def test_projection_matches_forces(self, mesh4):
        g1, g0 = self.setup_data(mesh4, seed=5)
        cfg = OptimizerConfig(tolp=0.1, tolq=0.1)
        design = fem.uniform_design(mesh4, 0.1, 0.1)
        st = compute_state(design, g1, g0, mesh4, cfg,
                           *mean_forces(g1, g0, mesh4))
        proj = element_projection(mesh4, st.alpha)
        for row in g1[:3]:
            force = fem.grayscale_to_force(mesh4, row)
            assert row @ proj == pytest.approx(float(st.alpha @ force),
                                               rel=1e-12, abs=1e-15)

    def test_residual_contract(self, mesh4):
        g1, g0 = self.setup_data(mesh4, seed=6)
        cfg = OptimizerConfig(tolp=0.1, tolq=0.1)
        design = fem.uniform_design(mesh4, 0.1, 0.1)
        st = compute_state(design, g1, g0, mesh4, cfg,
                           *mean_forces(g1, g0, mesh4))
        for x, rhs in ((st.u, st.f), (st.v, st.g), (st.w, st.h)):
            resid = np.linalg.norm(st.op.K @ x - rhs)
            assert resid / max(np.linalg.norm(rhs), 1e-30) <= 1e-10

    def test_mu_values(self, mesh4):
        g1, g0 = self.setup_data(mesh4, seed=7)
        cfg = OptimizerConfig(tolp=0.1, tolq=0.1)
        design = fem.uniform_design(mesh4, 0.1, 0.1)
        st = compute_state(design, g1, g0, mesh4, cfg,
                           *mean_forces(g1, g0, mesh4))
        assert st.mu1 == pytest.approx(float(st.alpha @ st.f), rel=1e-12)
        assert st.mu0 == pytest.approx(float(st.alpha @ st.g), rel=1e-12)

    @pytest.mark.parametrize("ref_kind", REF_KINDS)
    def test_single_sample_side_never_selected(self, mesh4, ref_kind):
        # A one-image class slice sits exactly at its own class mean, so
        # neither strict comparison may select it, whatever the rounding.
        g1, g0 = self.setup_data(mesh4, seed=9)
        cfg = OptimizerConfig(tolp=0.1, tolq=0.1, ref_kind=ref_kind)
        for seed in range(12):
            design = random_design(mesh4, np.random.default_rng(seed),
                                   tolp=0.1, tolq=0.1)
            st = compute_state(design, g1[:1], g0, mesh4, cfg,
                               *mean_forces(g1[:1], g0, mesh4))
            assert np.count_nonzero(st.s1_mask) == 0
            st = compute_state(design, g1, g0[:1], mesh4, cfg,
                               *mean_forces(g1, g0[:1], mesh4))
            assert np.count_nonzero(st.s0_mask) == 0

    @pytest.mark.parametrize("n1, n0", [(12, 12), (1, 12), (12, 2)])
    def test_h_matches_fancy_index_mean(self, mesh4, n1, n0):
        # h from one weighted GEMV per class against the mean of the
        # selected rows' copies, forced side by side.  A one-image class-1
        # slice leaves S1 empty; a two-image class-0 slice puts one image
        # in S0.  Each h is within gamma(N + 6) of exact, relative to the
        # forces of the sides' mean |gray|: N + 1 roundings in the mean,
        # one in the side difference, four in a node's force.
        g1, g0 = self.setup_data(mesh4, seed=10)
        g1, g0 = g1[:n1], g0[:n0]
        cfg = OptimizerConfig(tolp=0.1, tolq=0.1)
        force = lambda x: fem.grayscale_to_force(mesh4, x)  # noqa: E731
        for seed in range(6):
            design = random_design(mesh4, np.random.default_rng(seed),
                                   tolp=0.1, tolq=0.1)
            st = compute_state(design, g1, g0, mesh4, cfg,
                               *mean_forces(g1, g0, mesh4))
            assert st.s1_mask.any() == (n1 > 1)
            assert st.s0_mask.any() and (n0 > 2 or st.s0_mask.sum() == 1)
            ref = np.zeros(mesh4.n_nodes)
            scale = np.zeros(mesh4.n_nodes)
            for gray, mask, sign in ((g0, st.s0_mask, 1.0),
                                     (g1, st.s1_mask, -1.0)):
                if mask.any():
                    ref += sign * force(gray[mask].mean(axis=0))
                    scale += force(np.abs(gray[mask]).mean(axis=0))
            n = max(n1, n0)
            assert np.all(np.abs(st.h - ref) <= 2 * gamma(n + 6) * scale)


class TestGradients:
    def test_zero_c_gives_zero_j_gradient(self, mesh4):
        # identical classes with lam=1 make c vanish exactly
        rng = np.random.default_rng(8)
        g1, _ = blob_grays(mesh4, 10, rng)
        cfg = OptimizerConfig(lam=1.0, tolp=0.1, tolq=0.1)
        design = fem.uniform_design(mesh4, 0.1, 0.1)
        st = compute_state(design, g1, g1, mesh4, cfg,
                           *mean_forces(g1, g1, mesh4))
        gjp, gjq = gradients(st, mesh4)
        assert np.array_equal(gjp, np.zeros(mesh4.ne))
        assert np.array_equal(gjq, np.zeros(mesh4.ne))

    def test_vectorized_matches_scalar_gather(self, mesh4):
        rng = np.random.default_rng(10)
        g1, g0 = blob_grays(mesh4, 10, rng)
        cfg = OptimizerConfig(tolp=0.1, tolq=0.1)
        design = fem.uniform_design(mesh4, 0.1, 0.1)
        st = compute_state(design, g1, g0, mesh4, cfg,
                           *mean_forces(g1, g0, mesh4))
        gjp, gjq = gradients(st, mesh4)
        kp, kq = fem.KP, fem.KQ
        for e in range(mesh4.ne):
            ce = st.c[mesh4.theta[e]]
            ae = st.alpha[mesh4.theta[e]]
            assert gjp[e] == pytest.approx(-ce @ kp @ ae, rel=1e-12,
                                           abs=1e-15)
            assert gjq[e] == pytest.approx(-ce @ kq @ ae, rel=1e-12,
                                           abs=1e-15)

    def test_finite_difference_oracle(self, mesh4):
        # central differences of the frozen-subset objective
        rng = np.random.default_rng(11)
        g1, g0 = blob_grays(mesh4, 14, rng)
        cfg = OptimizerConfig(tolp=0.1, tolq=0.1)
        design = fem.uniform_design(mesh4, 0.1, 0.1)
        st = compute_state(design, g1, g0, mesh4, cfg,
                           *mean_forces(g1, g0, mesh4))
        gjp, gjq = gradients(st, mesh4)
        delta = 1e-6
        for e in rng.choice(mesh4.ne, 5, replace=False):
            for which, gj in (("p", gjp), ("q", gjq)):
                d_plus, d_minus = copy.deepcopy(design), copy.deepcopy(design)
                getattr(d_plus, which)[e] += delta
                getattr(d_minus, which)[e] -= delta
                j_plus = frozen_objective(d_plus, st, mesh4, cfg)
                j_minus = frozen_objective(d_minus, st, mesh4, cfg)
                fd_j = (j_plus - j_minus) / (2 * delta)
                assert abs(fd_j - gj[e]) / max(abs(gj[e]), 1e-12) <= 1e-5


class TestOptimize:
    def test_infinite_eps_j_single_iteration(self, mesh4):
        rng = np.random.default_rng(12)
        g1, g0 = blob_grays(mesh4, 16, rng)
        cfg = OptimizerConfig(tolp=0.1, tolq=0.1, eps_j=np.inf)
        res = optimize(g1, g0, mesh4, cfg)
        assert res.iterations == 1
        assert res.converged_by == "eps_J"
        assert len(res.j_history) == 2

    def test_budgets_and_monotonic_decrease(self, mesh4):
        rng = np.random.default_rng(13)
        g1, g0 = blob_grays(mesh4, 16, rng)
        cfg = OptimizerConfig(tolp=0.1, tolq=0.1)
        seen = []

        def check(state):
            assert state.design.p.sum() == pytest.approx(0.1, abs=1e-9)
            assert state.design.q.sum() == pytest.approx(0.1, abs=1e-9)
            assert np.all(state.design.p >= cfg.p_min - 1e-12)
            assert np.all(state.design.q >= cfg.q_min - 1e-12)
            seen.append(state.j0)

        res = optimize(g1, g0, mesh4, cfg, callback=check)
        assert res.iterations >= 1
        assert seen == res.j_history[1:]
        assert all(b < a for a, b in
                   zip(res.j_history, res.j_history[1:]))
        assert res.converged_by in ("eps_J", "eps_x", "max_shrinks",
                                    "max_iters")

    def test_max_iters_flag(self, mesh4):
        rng = np.random.default_rng(14)
        g1, g0 = blob_grays(mesh4, 16, rng)
        cfg = OptimizerConfig(tolp=0.1, tolq=0.1, max_iters=1,
                              eps_j=1e-30, eps_x=1e-12)
        res = optimize(g1, g0, mesh4, cfg)
        assert res.iterations <= 1

    def test_max_shrinks_is_reported(self, mesh4):
        # a step larger than eps_x is rejected and the move limit may
        # shrink only once, so the loop stops on the shrink count
        g1, g0 = blob_grays(mesh4, 16, np.random.default_rng(3))
        cfg = OptimizerConfig(tolp=0.1, tolq=0.1, eps_j=1e-30,
                              max_shrinks=1)
        res = optimize(g1, g0, mesh4, cfg)
        assert res.converged_by == "max_shrinks"
        # the start, every accepted step and the one rejected step
        assert res.state_evals == res.iterations + 2

    @pytest.mark.parametrize(
        "seed, overrides, reason, iterations, evals, ends_on_accept", [
            (3, dict(), "eps_x", 3, 9, False),
            (1, dict(), "eps_x", 3, 4, False),
            (1, dict(eps_j=3.0), "eps_J", 3, 4, True),
            (3, dict(eps_j=3.0), "eps_J", 2, 4, False),
            (3, dict(max_shrinks=3), "max_shrinks", 2, 6, False),
            (3, dict(max_iters=3), "max_iters", 3, 8, True),
        ], ids=["eps_x_after_reject", "eps_x", "eps_J_after_accept",
                "eps_J_after_reject", "max_shrinks", "max_iters"])
    def test_stopping_rules(self, mesh4, monkeypatch, seed, overrides,
                            reason, iterations, evals, ends_on_accept):
        # state_evals counts the start and every trial; gradients are taken
        # at the start and at each accepted state the loop steps on from
        stepped_from = []

        def counting(state, mesh):
            stepped_from.append(state.j0)
            return gradients(state, mesh)

        monkeypatch.setattr(optimizer, "gradients", counting)
        g1, g0 = blob_grays(mesh4, 16, np.random.default_rng(seed))
        cfg = OptimizerConfig(tolp=0.1, tolq=0.1, **overrides)
        res = optimize(g1, g0, mesh4, cfg)
        assert res.converged_by == reason
        assert (res.iterations, res.state_evals) == (iterations, evals)
        assert len(stepped_from) == 1 + iterations - ends_on_accept
        assert stepped_from == res.j_history[:len(stepped_from)]

    @pytest.mark.parametrize("predicted", ["lp", "no_decrease"])
    def test_shrink_after_rejection(self, mesh4, monkeypatch, predicted):
        # After a rejected trial the next LP gets the move limit times
        # t = -pred / (2 (dJ - pred)) clamped to [0.1, gamma], where pred is
        # the rejected LP's objective; times gamma when pred >= 0, which
        # the "no_decrease" run forces by reporting |objective|.
        lps, js = [], []

        def solve(prob):
            sol = solve_move_limit_lp(prob)
            if predicted == "no_decrease":
                sol.objective = abs(sol.objective)
            lps.append((prob.upper, sol.objective))
            return sol

        def state(*args):
            st = compute_state(*args)
            js.append(st.j0)
            return st

        monkeypatch.setattr(optimizer, "solve_move_limit_lp", solve)
        monkeypatch.setattr(optimizer, "compute_state", state)
        g1, g0 = blob_grays(mesh4, 16, np.random.default_rng(9))
        cfg = OptimizerConfig(tolp=0.1, tolq=0.1)
        optimize(g1, g0, mesh4, cfg)
        # js[k] is the trial of lps[k - 1]; a rejection's shrink shows in
        # the LP after it
        factors, j0 = [], js[0]
        for k in range(1, len(lps)):
            upper, pred = lps[k - 1]
            dj = js[k] - j0
            if dj < 0:
                j0 = js[k]
                continue
            if pred < 0:
                factor = min(max(-pred / (2 * (dj - pred)), 0.1), cfg.gamma)
            else:
                factor = cfg.gamma
            assert lps[k][0] == upper * factor, f"LP {k}"
            factors.append(factor)
        if predicted == "lp":
            assert all(pred <= 0 for _, pred in lps)
            # the lower clamp and an interior t are both reached
            assert 0.1 in factors
            assert any(0.1 < f < cfg.gamma for f in factors)
        else:
            assert factors and set(factors) == {cfg.gamma}

    def test_empty_s_side_is_tolerated(self, mesh4):
        # identical rows inside a class put every projection exactly at the
        # class mean, so the strict inequalities select nothing
        rng = np.random.default_rng(15)
        row1 = rng.random(mesh4.ne)
        row0 = rng.random(mesh4.ne)
        g1 = np.tile(row1, (4, 1))
        g0 = np.tile(row0, (4, 1))
        cfg = OptimizerConfig(tolp=0.1, tolq=0.1, max_iters=2)
        design = fem.uniform_design(mesh4, 0.1, 0.1)
        st = compute_state(design, g1, g0, mesh4, cfg,
                           *mean_forces(g1, g0, mesh4))
        assert np.count_nonzero(st.s1_mask) == 0
        assert np.count_nonzero(st.s0_mask) == 0
        assert np.array_equal(st.h, np.zeros(mesh4.n_nodes))
        res = optimize(g1, g0, mesh4, cfg)
        assert isinstance(res, AxisResult)

    def test_ref_kind_variants(self, mesh4):
        rng = np.random.default_rng(16)
        g1, g0 = blob_grays(mesh4, 12, rng)
        for ref in ("u", "v"):
            cfg = OptimizerConfig(tolp=0.1, tolq=0.1, ref_kind=ref,
                                  max_iters=3)
            res = optimize(g1, g0, mesh4, cfg)
            assert res.alpha.shape == (mesh4.n_nodes,)

    def test_non_finite_gray_rejected_before_assembly(self, mesh4,
                                                      monkeypatch):
        def no_assembly(*args, **kwargs):
            raise AssertionError("assembled a non-finite problem")

        monkeypatch.setattr(fem, "assemble_stiffness", no_assembly)
        g1, g0 = blob_grays(mesh4, 5, np.random.default_rng(8))
        g0[3, 2] = np.inf
        with pytest.raises(ValueError, match="gray0 holds non-finite"):
            optimize(g1, g0, mesh4, OptimizerConfig())

    def test_config_validation(self):
        with pytest.raises(ValueError, match="lam"):
            OptimizerConfig(lam=1.5).validate()
        with pytest.raises(ValueError, match="gamma"):
            OptimizerConfig(gamma=1.0).validate()
        with pytest.raises(ValueError, match="ref_kind"):
            OptimizerConfig(ref_kind="w").validate()
