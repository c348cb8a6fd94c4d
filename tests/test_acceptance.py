"""Acceptance criteria, one test per criterion with a printed verdict.

Criteria 1-4 need the real MNIST IDX files (see conftest.mnist_dir) and
skip cleanly when the dataset is absent; each has an offline stand-in of
the same shape on generated glyphs that always runs.  Criterion 5 is the
dataset-free property suite and criterion 6 an offline end-to-end run on
generated stroke images; both always run.
"""

import copy
import json
import os
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from meip import fem, pipeline
from meip.classifier import confusion_from_predictions, predict_posterior, fit
from meip.dataset import (load_idx_images, load_idx_labels, write_idx_images,
                          write_idx_labels)
from meip.lp import solve_move_limit_lp
from meip.optimizer import (OptimizerConfig, compute_state, gradients,
                            mean_forces, optimize)
from conftest import MNIST_FILES, blob_grays, element_matrices_rational
from test_lp import enumerate_vertices, random_feasible_problem
from test_optimizer import frozen_objective


def announce(tag: str, detail: str) -> None:
    print(f"\nACCEPTANCE {tag}: PASS ({detail})")


def mnist_config(mnist_dir, tmp_path, **overrides) -> pipeline.PipelineConfig:
    lines = [f"train_images = {mnist_dir / MNIST_FILES['train_images']}",
             f"train_labels = {mnist_dir / MNIST_FILES['train_labels']}",
             f"test_images = {mnist_dir / MNIST_FILES['test_images']}",
             f"test_labels = {mnist_dir / MNIST_FILES['test_labels']}"]
    for key, value in overrides.items():
        lines.append(f"{key} = {value}")
    cfg_path = tmp_path / "acceptance.cfg"
    cfg_path.write_text("\n".join(lines) + "\n")
    return pipeline.load_config(cfg_path)


class TestCriterion1ZeroVsOne:
    def test_single_axis_default_parameters(self, mnist_dir, tmp_path):
        cfg = mnist_config(mnist_dir, tmp_path, class_pairs="0:1", n_axes=1)
        report = pipeline.cmd_pipeline(cfg, tmp_path / "out")
        train_n = report.train_confusion["total"]
        test_n = report.test_confusion["total"]
        assert train_n == 12665
        assert test_n == 2115
        train_acc = report.train_confusion["accuracy"]
        test_acc = report.test_confusion["accuracy"]
        prov = json.loads((tmp_path / "out" / "axes_provenance.json")
                          .read_text())
        iters = prov[0]["iterations"]
        assert train_acc >= 0.993
        assert test_acc >= 0.995
        assert iters <= 300
        announce("1 (0-vs-1, single axis)",
                 f"train {train_acc:.4f}, test {test_acc:.4f}, "
                 f"{iters} iterations")


class TestCriterion2ZeroVsTwo:
    def test_sixty_axes(self, mnist_dir, tmp_path):
        cfg = mnist_config(mnist_dir, tmp_path, class_pairs="0:2", n_axes=60)
        report = pipeline.cmd_pipeline(cfg, tmp_path / "out")
        test_acc = report.test_confusion["accuracy"]
        assert test_acc >= 0.99
        announce("2 (0-vs-2, 60 axes)",
                 f"train {report.train_confusion['accuracy']:.4f}, "
                 f"test {test_acc:.4f}")


class TestCriterion3ThreeVsFour:
    def test_two_forests_with_svd(self, mnist_dir, tmp_path):
        cfg = mnist_config(mnist_dir, tmp_path, class_pairs="3:4",
                           ref_kind="u,v", n_axes=50, svd_k=50)
        report = pipeline.cmd_pipeline(cfg, tmp_path / "out")
        test_acc = report.test_confusion["accuracy"]
        assert test_acc >= 0.99
        announce("3 (3-vs-4, 50+50 axes, SVD 50)",
                 f"train {report.train_confusion['accuracy']:.4f}, "
                 f"test {test_acc:.4f}")


class TestCriterion4FiveClass:
    def subsample_train(self, mnist_dir, tmp_path, digits, count):
        images = load_idx_images(mnist_dir / MNIST_FILES["train_images"])
        labels = load_idx_labels(mnist_dir / MNIST_FILES["train_labels"])
        keep = np.isin(labels, digits)
        images, labels = images[keep][:count], labels[keep][:count]
        write_idx_images(tmp_path / "sub-images.idx", images)
        write_idx_labels(tmp_path / "sub-labels.idx", labels)
        return tmp_path / "sub-images.idx", tmp_path / "sub-labels.idx"

    def test_subsampled_proxy(self, mnist_dir, tmp_path):
        # CI-scale proxy: 10,000 training samples, 40 axes per digit,
        # SVD compression to 40
        img, lbl = self.subsample_train(mnist_dir, tmp_path,
                                        [0, 1, 2, 3, 4], 10_000)
        cfg = mnist_config(mnist_dir, tmp_path, one_vs_rest="0,1,2,3,4",
                           n_axes=40, svd_k=40)
        cfg.train_images, cfg.train_labels = str(img), str(lbl)
        report = pipeline.cmd_pipeline(cfg, tmp_path / "out")
        test_acc = report.test_confusion["accuracy"]
        assert test_acc >= 0.95
        announce("4 (5-class one-vs-rest, subsampled proxy)",
                 f"train {report.train_confusion['accuracy']:.4f}, "
                 f"test {test_acc:.4f}")

    @pytest.mark.skipif(not os.environ.get("MEIP_FULL_ACCEPTANCE"),
                        reason="full-scale 5-class run is opt-in "
                               "(MEIP_FULL_ACCEPTANCE=1)")
    def test_full_scale(self, mnist_dir, tmp_path):
        cfg = mnist_config(mnist_dir, tmp_path, one_vs_rest="0,1,2,3,4",
                           n_axes=120, svd_k=60)
        report = pipeline.cmd_pipeline(cfg, tmp_path / "out")
        test_acc = report.test_confusion["accuracy"]
        assert test_acc >= 0.975
        announce("4-full (5-class, 120 axes x 5, SVD 60)",
                 f"test {test_acc:.4f}")


class TestCriterion5PropertySuite:
    def test_5a_gradient_check(self):
        mesh = fem.build_mesh(4, 4)
        rng = np.random.default_rng(101)
        g1, g0 = blob_grays(mesh, 14, rng)
        cfg = OptimizerConfig(tolp=0.1, tolq=0.1)
        design = fem.uniform_design(mesh, 0.1, 0.1)
        state = compute_state(design, g1, g0, mesh, cfg,
                              *mean_forces(g1, g0, mesh))
        gjp, gjq = gradients(state, mesh)
        delta = 1e-6
        pairs = [(e, w) for e in rng.choice(mesh.ne, 10, replace=False)
                 for w in ("p", "q")]
        assert len(pairs) >= 20
        worst = 0.0
        for e, which in pairs:
            d_plus, d_minus = copy.deepcopy(design), copy.deepcopy(design)
            getattr(d_plus, which)[e] += delta
            getattr(d_minus, which)[e] -= delta
            j_plus = frozen_objective(d_plus, state, mesh, cfg)
            j_minus = frozen_objective(d_minus, state, mesh, cfg)
            fd = (j_plus - j_minus) / (2 * delta)
            an = (gjp if which == "p" else gjq)[e]
            rel = abs(fd - an) / max(abs(an), 1e-12)
            worst = max(worst, rel)
            assert rel <= 1e-5
        announce("5a (adjoint gradient check)",
                 f"{len(pairs)} pairs, worst rel err {worst:.2e}")

    def test_5b_mutual_energy_identities(self):
        mesh = fem.build_mesh(5, 4)
        rng = np.random.default_rng(102)
        worst = 0.0
        for trial in range(5):
            from conftest import random_design
            design = random_design(mesh, rng, tolp=0.5, tolq=0.5)
            op = fem.assemble_stiffness(mesh, design, 1e5)
            f = fem.grayscale_to_force(mesh, rng.random(mesh.ne))
            g = fem.grayscale_to_force(mesh, rng.random(mesh.ne))
            u, v = op.solve(f), op.solve(g)
            uku = fem.mutual_energy(op, u, u)
            ukv = fem.mutual_energy(op, u, v)
            checks = [(uku, float(u @ f)), (ukv, float(u @ g)),
                      (ukv, float(v @ f))]
            for got, ref in checks:
                rel = abs(got - ref) / abs(ref)
                worst = max(worst, rel)
                assert rel <= 1e-9
        announce("5b (energy inner-product identities)",
                 f"worst rel err {worst:.2e}")

    def test_5c_spectral_low_pass(self):
        mesh = fem.build_mesh(4, 4)
        rng = np.random.default_rng(103)
        from conftest import random_design
        design = random_design(mesh, rng, tolp=0.3, tolq=0.3)
        op = fem.assemble_stiffness(mesh, design, 1e5)
        B = fem.assemble_mass(mesh)
        lam, phi = fem.generalized_eigenpairs(op, B)
        assert lam.min() > 0
        m = mesh.n_nodes
        assert np.abs(phi.T @ (B @ phi) - np.eye(m)).max() <= 1e-8
        assert np.abs(phi.T @ (op.K @ phi) - np.diag(lam)).max() \
            <= 1e-8 * lam.max()
        f = fem.grayscale_to_force(mesh, rng.random(mesh.ne))
        g = fem.grayscale_to_force(mesh, rng.random(mesh.ne))
        u, v = op.solve(f), op.solve(g)
        direct = fem.mutual_energy(op, u, v)
        series = float(np.sum((phi.T @ f) * (phi.T @ g) / lam))
        rel = abs(direct - series) / abs(direct)
        assert rel <= 1e-8
        announce("5c (spectral low-pass identity)",
                 f"lambda_1 {lam[0]:.3e}, series rel err {rel:.2e}")

    def test_5d_element_constants(self):
        kp, kq = fem.KP, fem.KQ
        kp_r, kq_r = element_matrices_rational()
        expected_kp = [[Fraction(n, 24) for n in row] for row in
                       [[4, -1, -2, -1], [-1, 4, -1, -2],
                        [-2, -1, 4, -1], [-1, -2, -1, 4]]]
        expected_kq = [[Fraction(n, 36) for n in row] for row in
                       [[4, 2, 1, 2], [2, 4, 2, 1],
                        [1, 2, 4, 2], [2, 1, 2, 4]]]
        assert kp_r == expected_kp
        assert kq_r == expected_kq
        for i in range(4):
            assert sum(kp_r[i], Fraction(0)) == 0
            for j in range(4):
                assert kp[i][j] == float(kp_r[i][j])
                assert kq[i][j] == float(kq_r[i][j])
        assert sum(sum(row, Fraction(0)) for row in kq_r) == 1
        announce("5d (element constants)",
                 "rational Kp/Kq verified, row sums and totals exact")

    def test_5e_lp_oracle(self):
        rng = np.random.default_rng(104)
        worst = 0.0
        for trial in range(200):
            prob = random_feasible_problem(rng)
            sol = solve_move_limit_lp(prob)
            ref = enumerate_vertices(prob)
            err = abs(sol.objective - ref) / max(1.0, abs(ref))
            worst = max(worst, err)
            assert err <= 1e-9
            rerun = solve_move_limit_lp(prob)
            assert np.array_equal(sol.x_p, rerun.x_p)
            assert np.array_equal(sol.x_q, rerun.x_q)
        announce("5e (LP vertex-enumeration oracle)",
                 f"200 instances, worst objective err {worst:.2e}")

    def test_5f_optimizer_contracts(self):
        mesh = fem.build_mesh(6, 6)
        rng = np.random.default_rng(105)
        g1, g0 = blob_grays(mesh, 30, rng)
        cfg = OptimizerConfig(tolp=0.15, tolq=0.15)
        budgets = []

        def check(state):
            budgets.append((state.design.p.sum(), state.design.q.sum()))

        res = optimize(g1, g0, mesh, cfg, callback=check)
        assert res.iterations >= 1
        for p_sum, q_sum in budgets:
            assert abs(p_sum - cfg.tolp) <= 1e-9
            assert abs(q_sum - cfg.tolq) <= 1e-9
        assert all(b < a for a, b in zip(res.j_history, res.j_history[1:]))
        announce("5f (optimizer contracts)",
                 f"{res.iterations} accepted iterations, strict J decrease, "
                 f"budgets conserved")

    def test_5g_classifier_contracts(self):
        rng = np.random.default_rng(106)
        z = np.vstack([rng.standard_normal((50, 3)) - 2,
                       rng.standard_normal((50, 3)) + 2])
        labels = np.array([0] * 50 + [1] * 50)
        model = fit(z, labels, 2)
        for _ in range(50):
            post = predict_posterior(model, rng.standard_normal(3) * 5)
            assert abs(post.sum() - 1.0) <= 1e-12
        outputs = np.concatenate([np.zeros(982, int), np.ones(1133, int)])
        targets = np.concatenate([np.zeros(980, int), np.ones(2, int),
                                  np.ones(1133, int)])
        cm = confusion_from_predictions(outputs, targets, 2)
        assert cm.counts.tolist() == [[980, 2], [0, 1133]]
        assert round(cm.accuracy, 4) == 0.9991
        announce("5g (classifier contracts)",
                 "posterior normalization 1e-12, reference confusion layout")


# Two-stroke glyphs as (x0, y0, x1, y1) segments in unit coordinates, y
# pointing down: a "7" and an "L".
STROKES = {
    2: [(0.2, 0.25, 0.8, 0.25), (0.8, 0.25, 0.35, 0.85)],
    3: [(0.3, 0.15, 0.3, 0.8), (0.3, 0.8, 0.8, 0.8)],
}


def render_strokes(strokes, side, rng) -> np.ndarray:
    """Anti-aliased strokes in [0, 1] with jittered ends and width."""
    yy, xx = np.mgrid[0:side, 0:side] + 0.5
    img = np.zeros((side, side))
    width = rng.uniform(0.8, 1.6)
    jitter = rng.normal(0.0, 0.04, (len(strokes), 4))
    for seg, jit in zip(strokes, jitter):
        x0, y0, x1, y1 = (np.array(seg) + jit) * side
        dx, dy = x1 - x0, y1 - y0
        t = np.clip(((xx - x0) * dx + (yy - y0) * dy) / (dx * dx + dy * dy),
                    0.0, 1.0)
        d = np.hypot(xx - x0 - t * dx, yy - y0 - t * dy)
        img = np.maximum(img, np.clip(0.5 * width + 0.5 - d, 0.0, 1.0))
    return img


def stroke_dataset(rng, side: int, count: int):
    """Overlapping two-class images: each blends in up to 60% of the other
    glyph, shifts by up to a pixel and adds noise, so that a 2-axis forest
    still finds mixed subsets after its first split."""
    labels = rng.choice(np.array(sorted(STROKES)), count)
    images = np.empty((count, side, side), dtype=np.uint8)
    for i, label in enumerate(labels):
        other = next(d for d in STROKES if d != label)
        w = rng.uniform(0.0, 0.6)
        img = ((1.0 - w) * render_strokes(STROKES[label], side, rng)
               + w * render_strokes(STROKES[other], side, rng))
        img = np.roll(img, rng.integers(-1, 2, 2), axis=(0, 1))
        img += rng.uniform(0.0, 0.15, img.shape)
        images[i] = np.clip(255.0 * img, 0, 255).astype(np.uint8)
    return images, labels


class TestCriterion6OfflineEndToEnd:
    # The code before the structured LP solver scored 0.8125 test accuracy
    # on this data; the floor leaves a margin of 13 of the 400 test images.
    TEST_ACCURACY_FLOOR = 0.78

    def test_stroke_pair_pipeline(self, tmp_path):
        rng = np.random.default_rng(12)
        for split, count in (("train", 160), ("test", 400)):
            images, labels = stroke_dataset(rng, 12, count)
            write_idx_images(tmp_path / f"{split}-img.idx", images)
            write_idx_labels(tmp_path / f"{split}-lab.idx", labels)
        (tmp_path / "run.cfg").write_text(
            "n1 = 12\nn2 = 12\nclass_pairs = 2:3\nn_axes = 2\n"
            "train_images = train-img.idx\ntrain_labels = train-lab.idx\n"
            "test_images = test-img.idx\ntest_labels = test-lab.idx\n")
        cfg = pipeline.load_config(tmp_path / "run.cfg")
        report = pipeline.cmd_pipeline(cfg, tmp_path / "out")
        prov = json.loads((tmp_path / "out" / "axes_provenance.json")
                          .read_text())
        assert report.n_axes == 2
        assert all(axis["iterations"] >= 1 for axis in prov)
        test_acc = report.test_confusion["accuracy"]
        assert test_acc >= self.TEST_ACCURACY_FLOOR
        announce("6 (offline stroke pair, 2 axes)",
                 f"test {test_acc:.4f} >= {self.TEST_ACCURACY_FLOOR}, "
                 f"iterations {[axis['iterations'] for axis in prov]}")


@pytest.fixture(scope="module")
def glyph_dir(tmp_path_factory):
    """Five seeded 14x14 glyph classes from ``bench/glyphs.py``: 400
    training and 1000 test images, so a class pair holds 160 and 400."""
    bench = Path(__file__).resolve().parent.parent / "bench"
    sys.path.insert(0, str(bench))
    try:
        import glyphs
    finally:
        sys.path.remove(str(bench))
    out = tmp_path_factory.mktemp("glyphs")
    rng = np.random.default_rng(5)
    bank = glyphs.make_bank(rng, 14)
    paths = glyphs.write_dataset(out, rng, bank, range(5), 400, 1000)
    return out, [f"{key} = {p.name}" for key, p in paths.items()]


class TestCriteria1To4OfflineStandIns:
    """Criteria 1-4 at small scale on generated glyphs, in the shape of the
    paper's four configurations.

    Each floor is the count of test images the code before the
    linearized-G-row removal classified correctly, less a margin: 13 of 400
    for a class pair (as criterion 6), 33 of 1000 for the five classes.
    """

    @pytest.mark.parametrize("lines, parent_correct, margin", [
        (["class_pairs = 0:1", "n_axes = 1"], 375, 13),
        (["class_pairs = 0:2", "n_axes = 8"], 379, 13),
        (["class_pairs = 3:4", "ref_kind = u,v", "n_axes = 6", "svd_k = 6"],
         369, 13),
        (["one_vs_rest = 0,1,2,3,4", "n_axes = 4", "svd_k = 10"], 767, 33),
    ], ids=["1_zero_vs_one", "2_zero_vs_two", "3_three_vs_four",
            "4_five_class"])
    def test_glyph_stand_in(self, glyph_dir, tmp_path, lines, parent_correct,
                            margin):
        data, data_lines = glyph_dir
        cfg_path = data / f"{tmp_path.name}.cfg"
        cfg_path.write_text("\n".join(["n1 = 14", "n2 = 14", *lines,
                                       *data_lines]) + "\n")
        report = pipeline.cmd_pipeline(pipeline.load_config(cfg_path),
                                       tmp_path / "out")
        prov = json.loads((tmp_path / "out" / "axes_provenance.json")
                          .read_text())
        iters = [axis["iterations"] for axis in prov]
        if lines[0] == "class_pairs = 0:1":
            assert iters[0] <= 300
        cm = report.test_confusion
        correct = int(np.trace(cm["counts"]))
        assert correct >= parent_correct - margin
        announce(f"stand-in for {', '.join(lines)}",
                 f"test {correct}/{cm['total']} >= "
                 f"{parent_correct} - {margin}, iterations {iters}")
