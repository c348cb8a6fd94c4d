"""Feature extraction, Gaussian fitting, prediction, and confusion counts."""

from dataclasses import replace

import numpy as np
import pytest

from meip import fem
from meip.classifier import (confusion_from_predictions, discriminants,
                             features_from_gray, fit, gaussian_from_moments,
                             predict_batch, predict_posterior)
from meip.dataset import Dataset
from meip.forest import AxisBundle
from conftest import random_design
from test_acceptance import render_strokes


def simple_bundle(mesh, axes):
    return AxisBundle(axes=np.asarray(axes, dtype=float), n1=mesh.n1,
                      n2=mesh.n2)


class TestExtractFeatures:
    def test_zero_force(self, mesh4):
        rng = np.random.default_rng(0)
        bundle = simple_bundle(mesh4, rng.standard_normal((3, mesh4.n_nodes)))
        z = features_from_gray(bundle, np.zeros((1, mesh4.ne)), mesh4)
        assert np.array_equal(z, np.zeros((1, 3)))

    def test_aligned_axis_returns_norm(self, mesh4):
        rng = np.random.default_rng(1)
        gray = rng.random(mesh4.ne)
        force = fem.grayscale_to_force(mesh4, gray)
        bundle = simple_bundle(mesh4, [force / np.linalg.norm(force)])
        z = features_from_gray(bundle, gray[None], mesh4)[0]
        assert z[0] == pytest.approx(np.linalg.norm(force), rel=1e-12)

    def test_solve_based_identity_oracle(self, mesh4):
        # z_m equals the energy inner product of the axis with the
        # deformation K^-1 force
        rng = np.random.default_rng(2)
        design = random_design(mesh4, rng)
        op = fem.assemble_stiffness(mesh4, design, 1e4)
        gray = rng.random(mesh4.ne)
        force = fem.grayscale_to_force(mesh4, gray)
        axes = rng.standard_normal((4, mesh4.n_nodes))
        bundle = simple_bundle(mesh4, axes)
        z = features_from_gray(bundle, gray[None], mesh4)[0]
        d = op.solve(force)
        for m in range(4):
            ref = fem.mutual_energy(op, d, axes[m])
            assert z[m] == pytest.approx(ref, rel=1e-9)

    def test_batch_matches_single(self, mesh4):
        rng = np.random.default_rng(3)
        gray = rng.random((6, mesh4.ne))
        bundle = simple_bundle(mesh4,
                               rng.standard_normal((2, mesh4.n_nodes)))
        zb = features_from_gray(bundle, gray, mesh4)
        for i in range(6):
            force = fem.grayscale_to_force(mesh4, gray[i])
            # per sample: each axis dotted with the node-force vector
            assert np.allclose(zb[i], bundle.axes @ force,
                               rtol=1e-12, atol=1e-15)

    def test_dimension_mismatch(self, mesh4):
        bundle = simple_bundle(mesh4, np.ones((1, mesh4.n_nodes)))
        with pytest.raises(ValueError):
            features_from_gray(bundle, np.zeros((1, 7)), mesh4)


class TestFit:
    def test_priors_from_counts(self):
        rng = np.random.default_rng(4)
        n0, n1 = 5923, 6742
        z = rng.standard_normal((n0 + n1, 1))
        labels = np.array([0] * n0 + [1] * n1)
        model = fit(z, labels, 2)
        assert model[0].prior == pytest.approx(5923 / 12665, rel=1e-15)
        assert model[1].prior == pytest.approx(6742 / 12665, rel=1e-15)

    def test_two_point_moments(self):
        z = np.array([[-1.0], [1.0]])
        labels = np.array([0, 0])
        model = fit(z, labels, 1, ridge=0.0)
        assert model[0].mean[0] == 0.0
        assert model[0].cov[0, 0] == 1.0  # biased MLE, divisor M_j

    def test_hand_formula_oracle(self):
        # four 2-D points in one class; compare against the direct formulas
        z = np.array([[1.0, 2.0], [3.0, 0.0], [-1.0, 1.0], [1.0, -3.0]])
        labels = np.zeros(4, dtype=int)
        ridge = 1e-6
        model = fit(z, labels, 1, ridge=ridge)
        mu = z.mean(axis=0)
        cov = sum(np.outer(r - mu, r - mu) for r in z) / 4
        cov += ridge * np.trace(cov) / 2 * np.eye(2)
        assert np.allclose(model[0].mean, mu, atol=1e-15)
        assert np.allclose(model[0].cov, cov, atol=1e-15)
        inv = np.linalg.inv(cov)
        assert np.allclose(model[0].H, -inv, atol=1e-10)
        assert np.allclose(model[0].b, inv @ mu, atol=1e-10)
        c_expected = (-0.5 * mu @ inv @ mu
                      - 0.5 * np.log(np.linalg.det(cov)) + np.log(1.0))
        assert model[0].c == pytest.approx(c_expected, rel=1e-12)

    def test_class_too_small(self):
        z = np.array([[0.0], [1.0], [2.0]])
        labels = np.array([0, 0, 1])
        with pytest.raises(ValueError, match="class 1 has 1"):
            fit(z, labels, 2)

    def test_non_finite_features_rejected(self):
        z = np.arange(8.0).reshape(4, 2)
        z[2, 1] = np.nan
        with pytest.raises(ValueError, match="non-finite.*first row 2"):
            fit(z, np.array([0, 0, 1, 1]), 2)

    def test_ridge_rescues_singular_covariance(self):
        z = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])  # rank-1 spread
        labels = np.zeros(3, dtype=int)
        model = fit(z, labels, 1, ridge=1e-6)
        assert np.isfinite(model[0].log_det)


class TestPredict:
    def two_class_model(self, sep=2.0, rng=None):
        rng = rng or np.random.default_rng(5)
        z0 = rng.standard_normal((200, 2)) - [sep, 0]
        z1 = rng.standard_normal((200, 2)) + [sep, 0]
        z = np.vstack([z0, z1])
        labels = np.array([0] * 200 + [1] * 200)
        return fit(z, labels, 2)

    def test_single_class_posterior(self):
        rng = np.random.default_rng(6)
        model = fit(rng.standard_normal((10, 1)), np.zeros(10, int), 1)
        assert predict_posterior(model, np.array([0.3])).tolist() == [1.0]

    def test_identical_gaussians_give_half(self):
        z = np.array([[-1.0], [1.0]])
        model = fit(np.vstack([z, z]), np.array([0, 0, 1, 1]), 2)
        post = predict_posterior(model, np.array([0.77]))
        assert np.allclose(post, [0.5, 0.5], atol=1e-12)

    def test_symmetric_crossing_at_zero(self):
        z0 = np.array([[-1.0], [-1.5], [-0.5]])
        z1 = np.array([[1.0], [1.5], [0.5]])
        model = fit(np.vstack([z0, z1]), np.array([0, 0, 0, 1, 1, 1]), 2)
        post = predict_posterior(model, np.array([0.0]))
        assert post[0] == pytest.approx(0.5, abs=1e-12)

    def test_posterior_normalization(self):
        model = self.two_class_model()
        rng = np.random.default_rng(7)
        for _ in range(20):
            post = predict_posterior(model, rng.standard_normal(2) * 10)
            assert abs(post.sum() - 1.0) <= 1e-12
            assert np.all(post >= 0)

    def test_overflow_safety(self):
        model = self.two_class_model()
        post = predict_posterior(model, np.array([1e4, -1e4]))
        assert np.isfinite(post).all()
        assert abs(post.sum() - 1.0) <= 1e-12

    def test_argmax_and_ties(self):
        model = self.two_class_model()
        assert predict_batch(model, np.array([[-5.0, 0.0]]))[0] == 0
        assert predict_batch(model, np.array([[5.0, 0.0]]))[0] == 1
        # exact tie from identical Gaussians resolves to class 0
        z = np.array([[-1.0], [1.0]])
        tie_model = fit(np.vstack([z, z]), np.array([0, 0, 1, 1]), 2)
        assert predict_batch(tie_model, np.array([[0.3]]))[0] == 0

    def test_agrees_with_raw_discriminant(self):
        model = self.two_class_model()
        rng = np.random.default_rng(8)
        z = rng.standard_normal((100, 2)) * 3
        outputs = predict_batch(model, z)
        for i in range(100):
            beta = [0.5 * z[i] @ g.H @ z[i] + g.b @ z[i] + g.c
                    for g in model]
            assert outputs[i] == int(np.argmax(beta))

    def test_shift_invariance(self):
        # adding one constant to every discriminant leaves decisions alone
        model = self.two_class_model()
        rng = np.random.default_rng(9)
        z = rng.standard_normal((50, 2)) * 3
        base = predict_batch(model, z)
        for g in model:
            g.c += 123.456
        assert np.array_equal(predict_batch(model, z), base)

    def test_class_mean_recovered(self):
        model = self.two_class_model(sep=10.0)
        assert predict_batch(model, model[0].mean[None])[0] == 0
        assert predict_batch(model, model[1].mean[None])[0] == 1

    def test_dimension_mismatch(self):
        model = self.two_class_model()
        with pytest.raises(ValueError, match="dimension"):
            predict_batch(model, np.zeros((1, 5)))


U = 2.0 ** -53     # unit roundoff of float64


def gamma(k: int) -> float:
    """Forward-error factor of a k-step float64 dot product (Higham,
    Accuracy and Stability of Numerical Algorithms, 2002, section 3.1)."""
    return k * U / (1 - k * U)


def einsum_discriminants(model, z):
    """Reference: the discriminants as the einsum computed them."""
    return np.stack([0.5 * np.einsum("ni,ij,nj->n", z, g.H, z) + z @ g.b
                     + g.c for g in model], axis=1)


def abs_form(model, z):
    """sum_ij |z_i H_ij z_j| per row (columns: classes)."""
    return np.stack([((abs(z) @ abs(g.H)) * abs(z)).sum(axis=1)
                     for g in model], axis=1)


def form_bound(model, z):
    """A-priori bound on |q_blas - q_einsum| for q = z'Hz.  Either way each
    product z_i H_ij z_j passes through at most 2d roundings (two products,
    then a d-term sum inside a d-term sum), so each result is within
    gamma(2d) * sum_ij |z_i H_ij z_j| of the exact form."""
    return 2 * gamma(2 * z.shape[1]) * abs_form(model, z)


def discriminant_bound(model, z):
    """Bound on |beta - beta_einsum|: half the form's bound, plus the two
    additions of the linear and constant terms, rounded on both sides."""
    lin = np.stack([abs(z) @ abs(g.b) + abs(g.c) for g in model], axis=1)
    return (0.5 * form_bound(model, z)
            + 2 * gamma(2) * (0.5 * abs_form(model, z) + lin))


def assert_matches_einsum(model, z):
    """The BLAS discriminants against the einsum within the a-priori
    bounds; a class decision may differ only on a near-tie."""
    # with b = 0 and c = 0, 2 * beta is the computed quadratic form exactly
    forms = [replace(g, b=np.zeros_like(g.b), c=0.0) for g in model]
    q_blas = 2 * discriminants(forms, z)
    q_einsum = 2 * einsum_discriminants(forms, z)
    assert np.all(abs(q_blas - q_einsum) <= form_bound(model, z))

    beta, ref = discriminants(model, z), einsum_discriminants(model, z)
    tol = discriminant_bound(model, z)
    assert np.all(abs(beta - ref) <= tol)
    got, want = beta.argmax(axis=1), ref.argmax(axis=1)
    rows = np.flatnonzero(got != want)
    gap = ref[rows, want[rows]] - ref[rows, got[rows]]
    assert np.all(gap <= tol[rows, got[rows]] + tol[rows, want[rows]])


# Five single-stroke glyph classes in unit coordinates (x0, y0, x1, y1).
GLYPHS = [[(0.5, 0.15, 0.5, 0.85)], [(0.15, 0.5, 0.85, 0.5)],
          [(0.2, 0.2, 0.8, 0.8)], [(0.8, 0.2, 0.2, 0.8)],
          [(0.25, 0.3, 0.75, 0.3), (0.25, 0.7, 0.75, 0.7)]]


def glyph_features(rng, count, bundle, mesh):
    """Features of noisy, blended 28x28 glyph images on the bundle."""
    labels = rng.integers(0, len(GLYPHS), count)
    images = np.empty((count, 28, 28), dtype=np.uint8)
    for i, label in enumerate(labels):
        w = rng.uniform(0.0, 0.5)
        img = ((1 - w) * render_strokes(GLYPHS[label], 28, rng)
               + w * render_strokes(GLYPHS[rng.integers(5)], 28, rng))
        img += rng.uniform(0.0, 0.2, img.shape)
        images[i] = np.clip(255.0 * img, 0, 255).astype(np.uint8)
    data = Dataset.from_arrays(images, labels)
    return features_from_gray(bundle, data.gray, mesh), labels


class TestBlasDiscriminants:
    """``discriminants`` evaluates z'Hz by GEMM; the einsum it replaced is
    the reference, within a bound fixed from the float64 unit roundoff."""

    @pytest.mark.parametrize("dim", [1, 3, 60])
    def test_random_models(self, dim):
        rng = np.random.default_rng(dim)
        for scale in (1e-3, 1.0, 1e3):
            model = []
            for prior in rng.dirichlet(np.ones(5)):
                a = rng.standard_normal((dim, dim))
                cov = scale ** 2 * (a @ a.T / dim + 0.1 * np.eye(dim))
                mean = scale * rng.standard_normal(dim)
                model.append(gaussian_from_moments(mean, cov, prior))
            z = scale * 3.0 * rng.standard_normal((2000, dim))
            assert_matches_einsum(model, z)

    def test_models_fitted_on_glyph_features(self):
        # 60 orthonormal smooth axes on a 28x28 mesh, 5 classes
        rng = np.random.default_rng(101)
        mesh = fem.build_mesh(28, 28)
        t = np.linspace(0.0, 1.0, 29)
        x, y = np.meshgrid(t, t, indexing="ij")
        modes = np.stack([np.cos(np.pi * a * x) * np.cos(np.pi * b * y)
                          for a in range(8) for b in range(8)], axis=-1)
        axes, _ = np.linalg.qr(modes.reshape(-1, 64)
                               @ rng.standard_normal((64, 60)))
        bundle = AxisBundle(axes=axes.T, n1=28, n2=28)
        z_train, y_train = glyph_features(rng, 600, bundle, mesh)
        z_test, _ = glyph_features(rng, 600, bundle, mesh)
        model = fit(z_train, y_train, len(GLYPHS))
        assert_matches_einsum(model, z_test)
        assert_matches_einsum(model, z_train)


class TestConfusion:
    def test_published_test_layout(self):
        # mocked predictions reproducing the reported binary test matrix
        outputs = np.concatenate([
            np.zeros(980, int), np.zeros(2, int),          # output 0
            np.ones(1133, int)])                           # output 1
        targets = np.concatenate([
            np.zeros(980, int), np.ones(2, int),
            np.ones(1133, int)])
        cm = confusion_from_predictions(outputs, targets, 2)
        assert cm.counts.tolist() == [[980, 2], [0, 1133]]
        assert cm.total == 2115
        assert cm.accuracy == pytest.approx(2113 / 2115, rel=1e-15)
        assert round(cm.accuracy, 4) == 0.9991
        assert cm.precision[0] == pytest.approx(980 / 982, rel=1e-15)
        assert cm.precision[1] == 1.0
        assert cm.recall[0] == 1.0
        assert cm.recall[1] == pytest.approx(1133 / 1135, rel=1e-15)

    def test_all_correct(self):
        outputs = np.array([0, 1, 2, 0, 1, 2])
        cm = confusion_from_predictions(outputs, outputs, 3)
        assert np.array_equal(cm.counts, np.diag([2, 2, 2]))
        assert cm.accuracy == 1.0

    def test_hand_tally(self):
        outputs = np.array([0, 0, 1, 1, 1, 0, 1, 0, 0, 1])
        targets = np.array([0, 1, 1, 1, 0, 0, 1, 1, 0, 0])
        cm = confusion_from_predictions(outputs, targets, 2)
        # manual count: rows output, columns target
        assert cm.counts.tolist() == [[3, 2], [2, 3]]
        assert cm.total == 10
        assert cm.accuracy == pytest.approx(0.6)

    def test_margins_consistent_with_counts(self):
        rng = np.random.default_rng(10)
        outputs = rng.integers(0, 3, 200)
        targets = rng.integers(0, 3, 200)
        cm = confusion_from_predictions(outputs, targets, 3)
        assert cm.counts.sum() == 200
        for i in range(3):
            row, col = cm.counts[i].sum(), cm.counts[:, i].sum()
            if row:
                assert cm.precision[i] == cm.counts[i, i] / row
            if col:
                assert cm.recall[i] == cm.counts[i, i] / col
        assert cm.accuracy == np.trace(cm.counts) / 200
