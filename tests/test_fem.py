"""Mesh, element matrices, assembly, solves, and spectral oracles."""

import re
from fractions import Fraction

import numpy as np
import pytest

from meip import fem
from meip.optimizer import OptimizerConfig
from conftest import element_matrices_rational, random_design
from spectral_oracle import (assemble_mass, generalized_eigenpairs,
                             stiffness_matrix)


def node_position(mesh, node):
    # column-priority node numbering: (row, column) on the node grid
    return node % (mesh.n1 + 1), node // (mesh.n1 + 1)


class TestBuildMesh:
    def test_counts_28x28(self):
        mesh = fem.build_mesh(28, 28)
        assert mesh.ne == 784
        assert mesh.n_nodes == 841
        assert len(mesh.boundary_nodes) == 112

    def test_single_element(self):
        mesh = fem.build_mesh(1, 1)
        assert mesh.ne == 1
        assert mesh.n_nodes == 4
        assert sorted(mesh.boundary_nodes) == [0, 1, 2, 3]

    def test_2x2_interior_node(self):
        mesh = fem.build_mesh(2, 2)
        usage = np.bincount(mesh.theta.ravel(), minlength=mesh.n_nodes)
        interior = [n for n in range(mesh.n_nodes)
                    if n not in mesh.boundary_nodes]
        assert interior == [4]
        assert usage[4] == 4

    @pytest.mark.parametrize("n1,n2", [(1, 1), (2, 3), (5, 2), (4, 4)])
    def test_connectivity_invariants(self, n1, n2):
        mesh = fem.build_mesh(n1, n2)
        theta = mesh.theta
        assert theta.min() >= 0 and theta.max() < mesh.n_nodes
        usage = np.bincount(theta.ravel(), minlength=mesh.n_nodes)
        assert usage.min() >= 1  # every node used
        boundary = set(mesh.boundary_nodes.tolist())
        for n in range(mesh.n_nodes):
            if n not in boundary:
                assert usage[n] == 4
        assert len(mesh.boundary_nodes) == 2 * (n1 + n2)
        # geometric boundary classification
        for n in range(mesh.n_nodes):
            r, c = node_position(mesh, n)
            on_edge = r in (0, n1) or c in (0, n2)
            assert (n in boundary) == on_edge

    @pytest.mark.parametrize("n1,n2", [(1, 1), (3, 2), (4, 4)])
    def test_elements_are_cyclic_unit_squares(self, n1, n2):
        mesh = fem.build_mesh(n1, n2)
        for row in mesh.theta:
            pos = [node_position(mesh, n) for n in row]
            # consecutive corners share an edge (distance 1), diagonal is 2
            for a, b in zip(pos, pos[1:] + pos[:1]):
                assert abs(a[0] - b[0]) + abs(a[1] - b[1]) == 1
            assert {abs(pos[0][0] - pos[2][0]) + abs(pos[0][1] - pos[2][1]),
                    abs(pos[1][0] - pos[3][0]) + abs(pos[1][1] - pos[3][1])} \
                == {2}

    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            fem.build_mesh(0, 5)


class TestElementMatrices:
    def test_published_entries(self):
        kp, kq = fem.KP, fem.KQ
        assert kp[0][0] == 4 / 24
        assert kp[0][2] == -2 / 24
        assert kq[0][0] == 4 / 36
        assert kq[0][2] == 1 / 36

    def test_rational_form_matches_floats(self):
        kp, kq = fem.KP, fem.KQ
        kp_r, kq_r = element_matrices_rational()
        for i in range(4):
            for j in range(4):
                assert kp[i][j] == float(kp_r[i][j])
                assert kq[i][j] == float(kq_r[i][j])

    def test_row_sums_zero_exact_rational(self):
        kp_r, _ = element_matrices_rational()
        for row in kp_r:
            assert sum(row, Fraction(0)) == 0

    def test_kq_entries_sum_to_one(self):
        kq = fem.KQ
        assert kq.sum() == 1.0
        _, kq_r = element_matrices_rational()
        assert sum(sum(row, Fraction(0)) for row in kq_r) == 1

    def test_symmetry_and_psd(self):
        kp, kq = fem.KP, fem.KQ
        assert np.array_equal(kp, kp.T)
        assert np.array_equal(kq, kq.T)
        assert np.linalg.eigvalsh(kp).min() > -1e-15
        assert np.linalg.eigvalsh(kq).min() > 0


class TestAssembly:
    def test_single_element_hand_oracle(self):
        # K = a*Kp + b*Kq + sigma0*I, written in the element's node order
        mesh = fem.build_mesh(1, 1)
        a, b, sigma0 = 1.7, 0.4, 10.0
        design = fem.DesignField(p=np.array([a]), q=np.array([b]))
        op = fem.assemble_stiffness(mesh, design, sigma0)
        kp, kq = fem.KP, fem.KQ
        expected = np.zeros((4, 4))
        nodes = mesh.theta[0]
        for i in range(4):
            for j in range(4):
                expected[nodes[i], nodes[j]] = a * kp[i, j] + b * kq[i, j]
        expected += sigma0 * np.eye(4)
        assert np.allclose(stiffness_matrix(op).toarray(), expected,
                           atol=1e-15)

    def test_symmetry_exact(self, mesh4):
        rng = np.random.default_rng(0)
        design = random_design(mesh4, rng)
        op = fem.assemble_stiffness(mesh4, design, 1e5)
        diff = (stiffness_matrix(op) - stiffness_matrix(op).T)
        assert diff.nnz == 0 or np.abs(diff.toarray()).max() == 0.0

    def test_positive_definite_3x3(self, mesh3):
        design = fem.DesignField(p=np.ones(9), q=np.ones(9))
        op = fem.assemble_stiffness(mesh3, design, 1e5)
        evals = np.linalg.eigvalsh(stiffness_matrix(op).toarray())
        assert evals.min() > 0

    def test_matches_dense_loop_assembly(self, mesh3):
        # independent scalar-loop assembly oracle
        rng = np.random.default_rng(1)
        design = random_design(mesh3, rng)
        sigma0 = 123.0
        kp, kq = fem.KP, fem.KQ
        dense = np.zeros((mesh3.n_nodes, mesh3.n_nodes))
        for e in range(mesh3.ne):
            nodes = mesh3.theta[e]
            for i in range(4):
                for j in range(4):
                    dense[nodes[i], nodes[j]] += (design.p[e] * kp[i, j]
                                                  + design.q[e] * kq[i, j])
        for n in mesh3.boundary_nodes:
            dense[n, n] += sigma0
        op = fem.assemble_stiffness(mesh3, design, sigma0)
        assert np.allclose(stiffness_matrix(op).toarray(), dense, atol=1e-14)

    def test_assembly_linearity(self, mesh3):
        rng = np.random.default_rng(2)
        d1 = random_design(mesh3, rng)
        d2 = random_design(mesh3, rng)
        sigma0 = 50.0
        dsum = fem.DesignField(p=d1.p + d2.p, q=d1.q + d2.q)
        k1 = stiffness_matrix(
            fem.assemble_stiffness(mesh3, d1, sigma0)).toarray()
        k2 = stiffness_matrix(
            fem.assemble_stiffness(mesh3, d2, sigma0)).toarray()
        ks = stiffness_matrix(
            fem.assemble_stiffness(mesh3, dsum, sigma0)).toarray()
        penalty = np.zeros_like(k1)
        penalty[mesh3.boundary_nodes, mesh3.boundary_nodes] = sigma0
        assert np.allclose(ks - penalty, (k1 - penalty) + (k2 - penalty),
                           atol=1e-12)

    def test_bad_sigma0(self, mesh3):
        rng = np.random.default_rng(3)
        with pytest.raises(ValueError):
            fem.assemble_stiffness(mesh3, random_design(mesh3, rng), -1.0)


def add_at_band(mesh, design, sigma0):
    """Reference upper band of K: COO triplets of all 16 entries per
    element, the upper ones summed by np.add.at in element order, then
    sigma0 on the boundary diagonals."""
    kp, kq = fem.KP, fem.KQ
    kse = (design.p[:, None, None] * kp[None, :, :]
           + design.q[:, None, None] * kq[None, :, :])
    rows = np.concatenate([np.repeat(mesh.theta, 4, axis=1).ravel(),
                           mesh.boundary_nodes])
    cols = np.concatenate([np.tile(mesh.theta, (1, 4)).ravel(),
                           mesh.boundary_nodes])
    vals = np.concatenate([kse.ravel(),
                           np.full(len(mesh.boundary_nodes), sigma0)])
    bw = int(np.abs(mesh.theta[:, :, None] - mesh.theta[:, None, :]).max())
    ab = np.zeros((bw + 1, mesh.n_nodes))
    upper = rows <= cols
    np.add.at(ab, (bw + rows[upper] - cols[upper], cols[upper]), vals[upper])
    return ab


def dense_loop_stiffness(mesh, design, sigma0):
    """K summed entry by entry, element after element, sigma0 last."""
    kp, kq = fem.KP, fem.KQ
    dense = np.zeros((mesh.n_nodes, mesh.n_nodes))
    for e in range(mesh.ne):
        nodes = mesh.theta[e]
        for i in range(4):
            for j in range(4):
                dense[nodes[i], nodes[j]] += (design.p[e] * kp[i, j]
                                              + design.q[e] * kq[i, j])
    for n in mesh.boundary_nodes:
        dense[n, n] += sigma0
    return dense


def gamma(n):
    u = 2.0 ** -53
    return n * u / (1 - n * u)


BAND_MESHES = [(1, 1), (3, 4), (12, 12), (28, 28)]


class TestBandOperator:
    """The band-only operator against slower references it replaced."""

    @pytest.mark.parametrize("n1,n2", BAND_MESHES)
    def test_band_bit_identical_to_add_at(self, n1, n2):
        mesh = fem.build_mesh(n1, n2)
        for seed in range(3):
            rng = np.random.default_rng(100 + seed)
            design = random_design(mesh, rng, tolp=rng.uniform(0.1, 3),
                                   tolq=rng.uniform(0.1, 3))
            sigma0 = 10.0 ** rng.uniform(2, 6)
            op = fem.assemble_stiffness(mesh, design, sigma0)
            ref = add_at_band(mesh, design, sigma0)
            assert op.bandwidth == ref.shape[0] - 1
            assert op.ab.shape == ref.shape
            assert np.array_equal(op.ab, ref)

    @pytest.mark.parametrize("n1,n2", BAND_MESHES)
    def test_two_column_solve_residual(self, n1, n2):
        # One dpbtrs, no refinement, on designs that stretch K's scaling:
        # p and q spread over 6 decades, each budget on 5 elements with
        # the lower bound elsewhere, and a boundary penalty of 1e8.
        mesh = fem.build_mesh(n1, n2)
        rng = np.random.default_rng(300)
        spread = [10.0 ** rng.uniform(-6, 0, mesh.ne) for _ in range(2)]
        budget = [np.full(mesh.ne, 1e-3) for _ in range(2)]
        for b in budget:
            b[rng.choice(mesh.ne, min(5, mesh.ne), replace=False)] += 0.5
        cases = [(random_design(mesh, rng), 1e5),
                 (fem.DesignField(*(a / a.sum() for a in spread)), 1e5),
                 (fem.DesignField(*budget), 1e5),
                 (random_design(mesh, rng), 1e8)]
        for design, sigma0 in cases:
            op = fem.assemble_stiffness(mesh, design, sigma0)
            dense = dense_loop_stiffness(mesh, design, sigma0)
            rhs = np.column_stack([
                fem.grayscale_to_force(mesh, rng.random(mesh.ne)),
                rng.standard_normal(mesh.n_nodes)])
            x = op.solve(rhs)
            assert x.shape == rhs.shape
            for k in range(2):
                resid = np.linalg.norm(dense @ x[:, k] - rhs[:, k])
                assert resid / np.linalg.norm(rhs[:, k]) <= 1e-10
                assert np.array_equal(x[:, k], op.solve(rhs[:, k]))

    def test_wrong_shape_rejected(self, mesh3):
        op = fem.assemble_stiffness(
            mesh3, random_design(mesh3, np.random.default_rng(400)), 1e5)
        m = mesh3.n_nodes
        for shape in [(m + 1,), (m - 1, 2), (2, m), (m, 2, 1), ()]:
            with pytest.raises(ValueError, match="expected"):
                op.solve(np.ones(shape))

    def test_sparse_k_built_from_band(self, mesh4):
        design = random_design(mesh4, np.random.default_rng(500))
        op = fem.assemble_stiffness(mesh4, design, 1e5)
        assert np.array_equal(stiffness_matrix(op).toarray(),
                              dense_loop_stiffness(mesh4, design, 1e5))


class TestFactorization:
    @pytest.mark.parametrize("element, q", [
        (0, -1e6), (4, -2.0), (5, -3.0), (6, -3.0), (9, -50.0)])
    def test_fails_at_first_indefinite_leading_block(self, element, q):
        # A negative support coefficient makes K indefinite; the pivot is
        # the order of the first leading block of K that is not PD.
        mesh = fem.build_mesh(4, 3)
        design = random_design(mesh, np.random.default_rng(600))
        design.q[element] = q
        dense = dense_loop_stiffness(mesh, design, 1e5)
        first = next(k for k in range(1, mesh.n_nodes + 1)
                     if np.linalg.eigvalsh(dense[:k, :k]).min() <= 0)
        with pytest.raises(fem.FactorizationError) as info:
            fem.assemble_stiffness(mesh, design, 1e5)
        assert info.value.pivot == first

    def test_nan_design_rejected_before_factoring(self, mesh3):
        design = random_design(mesh3, np.random.default_rng(601))
        design.p[4] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            fem.assemble_stiffness(mesh3, design, 1e5)


class TestForceMapping:
    def test_single_element(self):
        mesh = fem.build_mesh(1, 1)
        f = fem.grayscale_to_force(mesh, np.array([2.0]))
        assert np.allclose(f, 0.5 * np.ones(4))

    def test_zero_gray(self, mesh3):
        f = fem.grayscale_to_force(mesh3, np.zeros(9))
        assert np.array_equal(f, np.zeros(mesh3.n_nodes))

    def test_two_element_scatter_oracle(self):
        mesh = fem.build_mesh(2, 1)  # two elements stacked in one column
        gray = np.array([3.0, 5.0])
        f = fem.grayscale_to_force(mesh, gray)
        expected = np.zeros(mesh.n_nodes)
        for e, value in enumerate(gray):
            for node in mesh.theta[e]:
                expected[node] += 0.25 * value
        assert np.allclose(f, expected)
        shared = set(mesh.theta[0]) & set(mesh.theta[1])
        assert len(shared) == 2
        for node in shared:
            assert f[node] == pytest.approx(0.25 * (3.0 + 5.0))

    def test_length_mismatch(self, mesh3):
        with pytest.raises(ValueError):
            fem.grayscale_to_force(mesh3, np.zeros(5))


class TestSolve:
    def test_residual_bound(self, mesh3):
        rng = np.random.default_rng(4)
        design = random_design(mesh3, rng)
        op = fem.assemble_stiffness(mesh3, design, 1e5)
        for _ in range(5):
            rhs = rng.standard_normal(mesh3.n_nodes)
            x = op.solve(rhs)
            resid = np.linalg.norm(stiffness_matrix(op) @ x - rhs)
            assert resid / max(np.linalg.norm(rhs), 1e-30) <= 1e-10

    def test_dense_inverse_oracle(self):
        mesh = fem.build_mesh(2, 2)
        rng = np.random.default_rng(5)
        design = random_design(mesh, rng)
        op = fem.assemble_stiffness(mesh, design, 10.0)
        dense_inv = np.linalg.inv(stiffness_matrix(op).toarray())
        rhs = rng.standard_normal(mesh.n_nodes)
        x = op.solve(rhs)
        x_ref = dense_inv @ rhs
        assert np.linalg.norm(x - x_ref) / np.linalg.norm(x_ref) <= 1e-9

    def test_energy_identity(self, mesh4):
        rng = np.random.default_rng(6)
        design = random_design(mesh4, rng)
        op = fem.assemble_stiffness(mesh4, design, 1e5)
        f = fem.grayscale_to_force(mesh4, rng.random(mesh4.ne))
        u = op.solve(f)
        lhs = u @ (stiffness_matrix(op) @ u)
        rhs = float(u @ f)
        assert abs(lhs - rhs) / abs(rhs) <= 1e-9


class TestMutualEnergy:
    def test_positive_definite(self, mesh3):
        rng = np.random.default_rng(7)
        op = fem.assemble_stiffness(mesh3, random_design(mesh3, rng), 1e3)
        K = stiffness_matrix(op)
        u = rng.standard_normal(mesh3.n_nodes)
        assert u @ (K @ u) > 0
        assert np.zeros(mesh3.n_nodes) @ (K @ np.zeros(mesh3.n_nodes)) == 0.0

    def test_solve_then_multiply_oracle(self, mesh3):
        rng = np.random.default_rng(8)
        op = fem.assemble_stiffness(mesh3, random_design(mesh3, rng), 1e5)
        f = fem.grayscale_to_force(mesh3, rng.random(mesh3.ne))
        g = fem.grayscale_to_force(mesh3, rng.random(mesh3.ne))
        u, v = op.solve(f), op.solve(g)
        uKv = u @ (stiffness_matrix(op) @ v)
        assert abs(uKv - u @ g) / abs(uKv) <= 1e-9
        assert abs(uKv - v @ f) / abs(uKv) <= 1e-9

    def test_symmetry_exact(self, mesh3):
        rng = np.random.default_rng(9)
        op = fem.assemble_stiffness(mesh3, random_design(mesh3, rng), 1e2)
        K = stiffness_matrix(op)
        a = rng.standard_normal(mesh3.n_nodes)
        b = rng.standard_normal(mesh3.n_nodes)
        # K is symmetric
        assert a @ (K @ b) == pytest.approx(b @ (K @ a), rel=1e-14)


class TestMassMatrix:
    def test_total_is_area(self):
        for n1, n2 in [(1, 1), (3, 4), (5, 2)]:
            mesh = fem.build_mesh(n1, n2)
            B = assemble_mass(mesh)
            assert B.sum() == pytest.approx(n1 * n2, rel=1e-14)

    def test_single_element_equals_kq(self):
        # B is Kq written in the element's node order
        mesh = fem.build_mesh(1, 1)
        kq = fem.KQ
        nodes = mesh.theta[0]
        expected = np.zeros((4, 4))
        for i in range(4):
            for j in range(4):
                expected[nodes[i], nodes[j]] = kq[i, j]
        assert np.allclose(assemble_mass(mesh).toarray(), expected,
                           atol=1e-16)

    def test_quadrature_oracle(self, mesh4):
        # u' B v should equal the integral of u*v for bilinear fields,
        # computed independently with 2x2 Gauss quadrature per element.
        rng = np.random.default_rng(11)
        u = rng.standard_normal(mesh4.n_nodes)
        v = rng.standard_normal(mesh4.n_nodes)
        B = assemble_mass(mesh4)
        gauss = 1.0 / np.sqrt(3.0)
        pts = [(-gauss, -gauss), (gauss, -gauss), (gauss, gauss),
               (-gauss, gauss)]
        corners = [(-1, -1), (1, -1), (1, 1), (-1, 1)]
        integral = 0.0
        for e in range(mesh4.ne):
            ue = u[mesh4.theta[e]]
            ve = v[mesh4.theta[e]]
            for x1, x2 in pts:
                shape = np.array([0.25 * (1 + cx * x1) * (1 + cy * x2)
                                  for cx, cy in corners])
                # weight 1 per point times jacobian 1/4 for the unit pixel
                integral += 0.25 * (shape @ ue) * (shape @ ve)
        assert abs(float(u @ (B @ v)) - integral) <= 1e-12


class TestGeneralizedEigenpairs:
    def setup_op(self, mesh, seed=12, scale=1.0):
        rng = np.random.default_rng(seed)
        design = random_design(mesh, rng, tolp=scale, tolq=scale)
        return fem.assemble_stiffness(mesh, design, 1e5), design

    def test_all_eigenvalues_positive(self, mesh3):
        op, _ = self.setup_op(mesh3)
        B = assemble_mass(mesh3)
        lam, _ = generalized_eigenpairs(op, B)
        assert lam.min() > 0

    def test_orthogonality(self, mesh4):
        op, _ = self.setup_op(mesh4)
        B = assemble_mass(mesh4)
        lam, phi = generalized_eigenpairs(op, B)
        m = mesh4.n_nodes
        gram_b = phi.T @ (B @ phi)
        gram_k = phi.T @ (stiffness_matrix(op) @ phi)
        assert np.abs(gram_b - np.eye(m)).max() <= 1e-8
        assert np.abs(gram_k - np.diag(lam)).max() <= 1e-8 * max(1, lam.max())

    def test_low_pass_identity(self, mesh4):
        # u'Kv reconstructed from the full spectrum, weighting projections
        # of the forces by 1/lambda.
        op, _ = self.setup_op(mesh4, seed=13)
        B = assemble_mass(mesh4)
        lam, phi = generalized_eigenpairs(op, B)
        rng = np.random.default_rng(14)
        f = fem.grayscale_to_force(mesh4, rng.random(mesh4.ne))
        g = fem.grayscale_to_force(mesh4, rng.random(mesh4.ne))
        u, v = op.solve(f), op.solve(g)
        direct = u @ (stiffness_matrix(op) @ v)
        series = float(np.sum((phi.T @ f) * (phi.T @ g) / lam))
        assert abs(direct - series) / abs(direct) <= 1e-8

    def test_monotonicity_in_design(self, mesh3):
        rng = np.random.default_rng(15)
        design = random_design(mesh3, rng)
        B = assemble_mass(mesh3)
        op1 = fem.assemble_stiffness(mesh3, design, 1e5)
        lam1, _ = generalized_eigenpairs(op1, B)
        bigger = fem.DesignField(p=design.p * 1.5, q=design.q * 1.5)
        op2 = fem.assemble_stiffness(mesh3, bigger, 1e5)
        lam2, _ = generalized_eigenpairs(op2, B)
        assert lam2[0] > lam1[0]

    def test_size_guard(self):
        mesh = fem.build_mesh(40, 40)
        rng = np.random.default_rng(16)
        op = fem.assemble_stiffness(mesh, random_design(mesh, rng), 1e5)
        with pytest.raises(ValueError):
            generalized_eigenpairs(op, assemble_mass(mesh))


class TestDesignField:
    def test_uniform_design_budgets(self, mesh4):
        d = fem.uniform_design(mesh4, 2.0, 3.0)
        OptimizerConfig(tolp=2.0, tolq=3.0).check_design(d)
        assert d.p.sum() == pytest.approx(2.0, abs=1e-12)
        assert d.q.sum() == pytest.approx(3.0, abs=1e-12)

    def test_validate_rejects_bad_budget(self, mesh4):
        d = fem.uniform_design(mesh4, 2.0, 2.0)
        d.p[0] += 1.0
        with pytest.raises(ValueError):
            OptimizerConfig(tolp=2.0, tolq=2.0).check_design(d)

    def test_validate_rejects_below_bound(self, mesh4):
        d = fem.uniform_design(mesh4, 2.0, 2.0)
        d.q[3] = 1e-5
        with pytest.raises(ValueError):
            OptimizerConfig(tolp=2.0, tolq=2.0).check_design(d)

    def test_bounds_come_from_the_config(self, mesh4):
        d = fem.uniform_design(mesh4, 2.0, 2.0)     # every p_e is 0.125
        OptimizerConfig(tolp=2.0, tolq=2.0, p_min=0.1).check_design(d)
        with pytest.raises(ValueError, match="p below lower bound"):
            OptimizerConfig(tolp=2.0, tolq=2.0, p_min=0.2).check_design(d)

    def test_budget_message_prints_plain_floats(self, mesh4):
        ones = np.ones(mesh4.ne)
        cfg = OptimizerConfig(tolp=2.0, tolq=2.0)
        with pytest.raises(ValueError, match=re.escape(
                "p budget violated: sum=16.0 target=2.0")):
            cfg.check_design(fem.DesignField(p=ones, q=ones))
        p = fem.uniform_design(mesh4, 2.0, 2.0).p
        with pytest.raises(ValueError, match=re.escape(
                "q budget violated: sum=16.0 target=2.0")):
            cfg.check_design(fem.DesignField(p=p, q=ones))
