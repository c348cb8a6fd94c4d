"""Axis optimization loop: state assembly, gradients, and convergence."""

import copy
import importlib
import math
import pkgutil

import numpy as np
import pytest
import scipy.linalg.blas

import meip
from meip import fem, optimizer
from meip.optimizer import (REF_KINDS, AxisResult, OptimizerConfig,
                            compute_state, element_projection, gradients,
                            mean_forces, optimize, solve_move_limit_lp)
from conftest import blob_grays, random_design
from spectral_oracle import stiffness_matrix
from test_fem import gamma


def frozen_objective(design, state, mesh, cfg):
    """J at a design with the S-subsets (hence h) held fixed."""
    op = fem.assemble_stiffness(mesh, design, fem.SIGMA0)
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
    return float(c @ (stiffness_matrix(op) @ alpha))


def watch_accepted(monkeypatch) -> list:
    """Make ``optimize`` record its states: the returned list fills with
    the start and then each state whose J is below the last one kept,
    which are the states the loop accepts."""
    kept = []

    def state(*args):
        st = compute_state(*args)
        if not kept or st.j0 < kept[-1].j0:
            kept.append(st)
        return st

    monkeypatch.setattr(optimizer, "compute_state", state)
    return kept


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
        j_expected = float(
            -(st.u - st.v) @ (stiffness_matrix(st.op) @ st.alpha))
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
            resid = np.linalg.norm(stiffness_matrix(st.op) @ x - rhs)
            assert resid / max(np.linalg.norm(rhs), 1e-30) <= 1e-10

    @pytest.mark.parametrize("lam", [0.3, 1.0])
    @pytest.mark.parametrize("ref_kind", REF_KINDS)
    def test_j_and_g_from_solve_identities(self, mesh4, ref_kind, lam):
        # J and G use K alpha and K v as the right-hand sides solved for;
        # against the band products they differ by the solve residual,
        # at most 1e-10 relative.
        g1, g0 = self.setup_data(mesh4, seed=11)
        cfg = OptimizerConfig(lam=lam, tolp=0.1, tolq=0.1, ref_kind=ref_kind)
        design = random_design(mesh4, np.random.default_rng(12),
                               tolp=0.1, tolq=0.1)
        st = compute_state(design, g1, g0, mesh4, cfg,
                           *mean_forces(g1, g0, mesh4))
        K = stiffness_matrix(st.op)
        k_alpha = K @ st.alpha
        assert abs(st.j0 - st.c @ k_alpha) <= (
            1e-10 * np.linalg.norm(st.c) * np.linalg.norm(k_alpha))
        assert abs(st.g0 - st.u @ (K @ st.v)) <= (
            1e-10 * np.linalg.norm(st.u) * np.linalg.norm(st.g))

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
    def test_infinite_eps_j_single_iteration(self, mesh4, monkeypatch):
        rng = np.random.default_rng(12)
        g1, g0 = blob_grays(mesh4, 16, rng)
        monkeypatch.setattr(optimizer, "EPS_J", np.inf)
        cfg = OptimizerConfig(tolp=0.1, tolq=0.1)
        res = optimize(g1, g0, mesh4, cfg)
        assert res.iterations == 1
        assert res.converged_by == "eps_J"
        assert len(res.j_history) == 2

    def test_budgets_and_monotonic_decrease(self, mesh4, monkeypatch):
        rng = np.random.default_rng(13)
        g1, g0 = blob_grays(mesh4, 16, rng)
        cfg = OptimizerConfig(tolp=0.1, tolq=0.1)
        kept = watch_accepted(monkeypatch)
        res = optimize(g1, g0, mesh4, cfg)
        seen = []
        for state in kept[1:]:
            assert state.design.p.sum() == pytest.approx(0.1, abs=1e-9)
            assert state.design.q.sum() == pytest.approx(0.1, abs=1e-9)
            assert np.all(state.design.p >= cfg.p_min - 1e-12)
            assert np.all(state.design.q >= cfg.q_min - 1e-12)
            seen.append(state.j0)
        assert res.iterations >= 1
        assert seen == res.j_history[1:]
        assert all(b < a for a, b in
                   zip(res.j_history, res.j_history[1:]))
        assert res.converged_by in ("eps_J", "eps_x", "max_iters")

    @pytest.mark.parametrize("n", [4, 6, 8])
    def test_swapping_the_classes_negates_the_axis(self, n):
        # Under u_minus_v, swapping gray1 and gray0 swaps f and g, hence u
        # and v: alpha, w, c and the coordinates change sign exactly, while
        # J, the S-sides and both gradients do not, so the loop takes the
        # same steps to the same design.
        mesh = fem.build_mesh(n, n)
        g1, g0 = blob_grays(mesh, 12, np.random.default_rng(n))
        a = optimize(g1, g0, mesh, OptimizerConfig())
        b = optimize(g0, g1, mesh, OptimizerConfig())
        assert a.iterations > 0
        assert b.state.alpha.tobytes() == (-a.state.alpha).tobytes()
        assert b.state.design.p.tobytes() == a.state.design.p.tobytes()
        assert b.state.design.q.tobytes() == a.state.design.q.tobytes()
        assert b.j_history == a.j_history
        assert (b.iterations, b.state_evals) == (a.iterations, a.state_evals)

    def test_max_iters_flag(self, mesh4, monkeypatch):
        rng = np.random.default_rng(14)
        g1, g0 = blob_grays(mesh4, 16, rng)
        monkeypatch.setattr(optimizer, "MAX_ITERS", 1)
        monkeypatch.setattr(optimizer, "EPS_J", 1e-30)
        cfg = OptimizerConfig(tolp=0.1, tolq=0.1, eps_x=1e-12)
        res = optimize(g1, g0, mesh4, cfg)
        assert res.iterations <= 1

    def test_rejections_end_on_eps_x(self, mesh4, monkeypatch):
        # Every trial is worse than the start and no LP predicts a
        # decrease, so each rejection shrinks the move limit by exactly the
        # largest factor: the loop stops by eps_x once the limit is below it.
        js = []

        def state(*args):
            st = compute_state(*args)
            if js:
                st.j0 = js[0] + 1.0
            js.append(st.j0)
            return st

        def solve(design, grads, cfg, limit):
            sol = solve_move_limit_lp(design, grads, cfg, limit)
            sol.objective = abs(sol.objective)
            return sol

        monkeypatch.setattr(optimizer, "compute_state", state)
        monkeypatch.setattr(optimizer, "solve_move_limit_lp", solve)
        g1, g0 = blob_grays(mesh4, 16, np.random.default_rng(3))
        cfg = OptimizerConfig(tolp=0.1, tolq=0.1)
        res = optimize(g1, g0, mesh4, cfg)
        first = cfg.first_move_limit(mesh4.ne)
        rejections = math.ceil(math.log(cfg.eps_x / first)
                               / math.log(optimizer.SHRINK[1]))
        assert rejections == 6
        assert res.converged_by == "eps_x"
        assert res.iterations == 0
        assert res.dx_first_accept is None
        assert res.state_evals == 1 + rejections

    @pytest.mark.parametrize("seed", [1, 3, 9])
    def test_no_lp_at_a_spent_move_limit(self, mesh4, monkeypatch, seed):
        # a step can never exceed the move limit, so the loop stops by
        # eps_x without solving an LP whose limit is at most eps_x
        uppers = []

        def solve(design, grads, cfg, limit):
            uppers.append(limit)
            return solve_move_limit_lp(design, grads, cfg, limit)

        monkeypatch.setattr(optimizer, "solve_move_limit_lp", solve)
        g1, g0 = blob_grays(mesh4, 16, np.random.default_rng(seed))
        cfg = OptimizerConfig(tolp=0.1, tolq=0.1)
        res = optimize(g1, g0, mesh4, cfg)
        assert res.converged_by == "eps_x"
        assert uppers and min(uppers) > cfg.eps_x

    @pytest.mark.parametrize(
        "seed, caps, reason, iterations, evals, ends_on_accept", [
            (3, dict(), "eps_x", 5, 7, False),
            (2, dict(), "eps_x", 13, 14, False),
            (1, dict(EPS_J=3.0), "eps_J", 4, 5, True),
            (13, dict(EPS_J=3.0), "eps_J", 3, 5, False),
            (3, dict(MAX_ITERS=3), "max_iters", 3, 4, True),
        ], ids=["eps_x_after_reject", "eps_x", "eps_J_after_accept",
                "eps_J_after_reject", "max_iters"])
    def test_stopping_rules(self, mesh4, monkeypatch, seed, caps,
                            reason, iterations, evals, ends_on_accept):
        # state_evals counts the start and every trial; gradients are taken
        # at the start and at each accepted state the loop steps on from
        stepped_from = []

        def counting(state, mesh):
            stepped_from.append(state.j0)
            return gradients(state, mesh)

        monkeypatch.setattr(optimizer, "gradients", counting)
        for name, value in caps.items():
            monkeypatch.setattr(optimizer, name, value)
        g1, g0 = blob_grays(mesh4, 16, np.random.default_rng(seed))
        cfg = OptimizerConfig(tolp=0.1, tolq=0.1)
        res = optimize(g1, g0, mesh4, cfg)
        assert res.converged_by == reason
        assert (res.iterations, res.state_evals) == (iterations, evals)
        assert len(stepped_from) == 1 + iterations - ends_on_accept
        assert stepped_from == res.j_history[:len(stepped_from)]

    @pytest.mark.parametrize("predicted", ["lp", "no_decrease"])
    def test_shrink_after_rejection(self, mesh4, monkeypatch, predicted):
        # After a rejected trial the next LP gets the move limit times
        # t = -pred / (2 (dJ - pred)) clamped to SHRINK = [low, high], where
        # pred is the rejected LP's objective; times high when pred >= 0,
        # which the "no_decrease" run forces by reporting |objective|.
        lps, js = [], []

        def solve(design, grads, cfg, limit):
            sol = solve_move_limit_lp(design, grads, cfg, limit)
            if predicted == "no_decrease":
                sol.objective = abs(sol.objective)
            lps.append((limit, sol.objective))
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
        low, high = optimizer.SHRINK
        # js[k] is the trial of lps[k - 1]; a rejection's shrink shows in
        # the LP after it, or, when it spends the limit, in the loop's end
        factors, j0 = [], js[0]
        for k in range(1, len(js)):
            upper, pred = lps[k - 1]
            dj = js[k] - j0
            if dj < 0:
                j0 = js[k]
                continue
            if pred < 0:
                factor = min(max(-pred / (2 * (dj - pred)), low), high)
            else:
                factor = high
            if k < len(lps):
                assert lps[k][0] == upper * factor, f"LP {k}"
            else:
                assert upper * factor <= cfg.eps_x
            factors.append(factor)
        if predicted == "lp":
            assert all(pred <= 0 for _, pred in lps)
            # the lower clamp and an interior t are both reached
            assert low in factors
            assert any(low < f < high for f in factors)
        else:
            assert factors and set(factors) == {high}

    @pytest.mark.parametrize("tolp, tolq, first", [
        (0.1, 0.1, 0.1 / 16), (2.0, 0.5, 0.5 / 16), (2.0, 2.0, 2.0 / 16)])
    def test_first_move_limit(self, mesh4, monkeypatch, tolp, tolq, first):
        # the uniform element value of the smaller budget
        uppers = []

        def solve(design, grads, cfg, limit):
            uppers.append(limit)
            return solve_move_limit_lp(design, grads, cfg, limit)

        monkeypatch.setattr(optimizer, "solve_move_limit_lp", solve)
        g1, g0 = blob_grays(mesh4, 16, np.random.default_rng(3))
        optimize(g1, g0, mesh4, OptimizerConfig(tolp=tolp, tolq=tolq))
        assert uppers[0] == first

    def test_start_design(self, mesh4, monkeypatch):
        g1, g0 = blob_grays(mesh4, 16, np.random.default_rng(9))
        cfg = OptimizerConfig(tolp=0.1, tolq=0.1)
        cold = optimize(g1, g0, mesh4, cfg)
        uniform = fem.uniform_design(mesh4, cfg.tolp, cfg.tolq)
        same = optimize(g1, g0, mesh4, cfg, start=uniform)
        assert same.state.alpha.tobytes() == cold.state.alpha.tobytes()
        assert same.state_evals == cold.state_evals

        # any other start is the first state, with the same first move
        # limit, and is left as it was
        uppers, designs = [], []

        def solve(design, grads, cfg, limit):
            uppers.append(limit)
            return solve_move_limit_lp(design, grads, cfg, limit)

        def state(design, *args):
            designs.append(design)
            return compute_state(design, *args)

        monkeypatch.setattr(optimizer, "solve_move_limit_lp", solve)
        monkeypatch.setattr(optimizer, "compute_state", state)
        start = random_design(mesh4, np.random.default_rng(3), 0.1, 0.1)
        kept = copy.deepcopy(start)
        optimize(g1, g0, mesh4, cfg, start=start)
        assert designs[0] is start and uppers[0] == cfg.tolp / mesh4.ne
        assert start.p.tobytes() == kept.p.tobytes()
        assert start.q.tobytes() == kept.q.tobytes()

    def test_start_design_is_checked(self, mesh4):
        g1, g0 = blob_grays(mesh4, 4, np.random.default_rng(9))
        cfg = OptimizerConfig(tolp=0.1, tolq=0.1)
        start = fem.uniform_design(mesh4, cfg.tolp, cfg.tolq)
        with pytest.raises(ValueError, match="p budget violated"):
            optimize(g1, g0, mesh4, cfg,
                     start=fem.DesignField(p=2 * start.p, q=start.q))
        short = fem.DesignField(p=start.p[:-1] * mesh4.ne / (mesh4.ne - 1),
                                q=start.q)
        with pytest.raises(ValueError, match="mesh's 16 elements"):
            optimize(g1, g0, mesh4, cfg, start=short)

    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
    def test_result_state_is_the_final_design_state(self, mesh4, warm):
        # the returned state is the one compute_state gives at the returned
        # design, bit for bit, and its J ends the history
        rng = np.random.default_rng(13)
        g1, g0 = blob_grays(mesh4, 16, rng)
        cfg = OptimizerConfig(tolp=0.1, tolq=0.1)
        start = random_design(mesh4, rng, 0.1, 0.1) if warm else None
        res = optimize(g1, g0, mesh4, cfg, start=start)
        assert res.iterations >= 1
        again = compute_state(res.state.design, g1, g0, mesh4, cfg,
                              *mean_forces(g1, g0, mesh4))
        for name in ("alpha", "z1", "z0"):
            assert (getattr(res.state, name).tobytes()
                    == getattr(again, name).tobytes()), name
        assert (res.state.j0, res.state.g0) == (again.j0, again.g0)
        assert res.j_history[-1] == res.state.j0

    def test_empty_s_side_is_tolerated(self, mesh4, monkeypatch):
        # identical rows inside a class put every projection exactly at the
        # class mean, so the strict inequalities select nothing
        rng = np.random.default_rng(15)
        row1 = rng.random(mesh4.ne)
        row0 = rng.random(mesh4.ne)
        g1 = np.tile(row1, (4, 1))
        g0 = np.tile(row0, (4, 1))
        monkeypatch.setattr(optimizer, "MAX_ITERS", 2)
        cfg = OptimizerConfig(tolp=0.1, tolq=0.1)
        design = fem.uniform_design(mesh4, 0.1, 0.1)
        st = compute_state(design, g1, g0, mesh4, cfg,
                           *mean_forces(g1, g0, mesh4))
        assert np.count_nonzero(st.s1_mask) == 0
        assert np.count_nonzero(st.s0_mask) == 0
        assert np.array_equal(st.h, np.zeros(mesh4.n_nodes))
        res = optimize(g1, g0, mesh4, cfg)
        assert isinstance(res, AxisResult)

    def test_no_band_product_in_the_loop(self, mesh4, monkeypatch):
        # The axis loop only factors and solves: J and G come from the
        # solved right-hand sides, a solve refines nothing, and no meip
        # module binds the band product, under any name.
        dsbmv = scipy.linalg.blas.dsbmv
        for info in pkgutil.iter_modules(meip.__path__):
            names = vars(importlib.import_module(f"meip.{info.name}"))
            assert "dsbmv" not in names, info.name
            assert not any(v is dsbmv for v in names.values()), info.name

        def no_dsbmv(*args, **kwargs):
            raise AssertionError("the axis loop formed a band product")

        monkeypatch.setattr(scipy.linalg.blas, "dsbmv", no_dsbmv)
        g1, g0 = blob_grays(mesh4, 12, np.random.default_rng(17))
        res = optimize(g1, g0, mesh4, OptimizerConfig(tolp=0.1, tolq=0.1))
        assert res.state_evals > 1

    def test_ref_kind_variants(self, mesh4, monkeypatch):
        rng = np.random.default_rng(16)
        g1, g0 = blob_grays(mesh4, 12, rng)
        monkeypatch.setattr(optimizer, "MAX_ITERS", 3)
        for ref in ("u", "v"):
            cfg = OptimizerConfig(tolp=0.1, tolq=0.1, ref_kind=ref)
            res = optimize(g1, g0, mesh4, cfg)
            assert res.state.alpha.shape == (mesh4.n_nodes,)

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
        with pytest.raises(ValueError, match="ref_kind"):
            OptimizerConfig(ref_kind="w").validate()
