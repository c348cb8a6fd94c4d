"""Per-class Gaussian (quadratic discriminant) classification.

Feature vectors are plain dot products between the bundle axes and a
sample's node-force vector, so inference needs no linear solves.  Each
class is modeled by its maximum-likelihood mean and (biased) covariance
with a small relative ridge; posteriors come from the quadratic
discriminants evaluated in log space.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from meip import fem
from meip.forest import AxisBundle
from meip.optimizer import element_projection

__all__ = ["ClassGaussian", "ConfusionMatrix", "features_from_gray",
           "gaussian_from_moments", "fit", "discriminants", "softmax",
           "predict_posterior", "predict_batch", "confusion_from_predictions"]


@dataclass
class ClassGaussian:
    """Gaussian parameters of one class plus its discriminant terms."""

    mean: np.ndarray
    cov: np.ndarray          # ridged covariance actually used
    prior: float
    H: np.ndarray            # -inv(cov)
    b: np.ndarray            # inv(cov) @ mean
    c: float                 # constant discriminant term
    log_det: float


@dataclass
class ConfusionMatrix:
    """Counts with rows = output class, columns = target class."""

    counts: np.ndarray
    precision: np.ndarray    # per output row
    recall: np.ndarray       # per target column
    accuracy: float
    total: int


def features_from_gray(bundle: AxisBundle, gray: np.ndarray,
                       mesh: fem.GridMesh | None = None) -> np.ndarray:
    """Feature matrix for many samples given their grayscale vectors.

    Equivalent to extracting each sample's force vector first, but works
    directly on per-element grays through the scatter weights.
    """
    if mesh is None:
        mesh = fem.build_mesh(bundle.n1, bundle.n2)
    proj = np.stack([element_projection(mesh, axis) for axis in bundle.axes],
                    axis=1)
    return np.asarray(gray) @ proj


def gaussian_from_moments(mean: np.ndarray, cov: np.ndarray,
                          prior: float) -> ClassGaussian:
    """Discriminant terms of one class from its (already ridged) moments.

    The log-determinant comes from the Cholesky factor diagonals; the
    same code path serves fitting and model-file reload, so reloaded
    parameters are bit-identical.
    """
    mean = np.asarray(mean, dtype=np.float64)
    cov = np.asarray(cov, dtype=np.float64)
    dim = mean.shape[0]
    try:
        chol = scipy.linalg.cho_factor(cov, lower=True)
    except scipy.linalg.LinAlgError as exc:
        raise ValueError("covariance not positive definite") from exc
    log_det = 2.0 * float(np.log(np.diag(chol[0])).sum())
    b = scipy.linalg.cho_solve(chol, mean)
    H = -scipy.linalg.cho_solve(chol, np.eye(dim))
    H = 0.5 * (H + H.T)
    c = float(-0.5 * mean @ b - 0.5 * log_det + np.log(prior))
    return ClassGaussian(mean=mean, cov=cov, prior=prior, H=H, b=b, c=c,
                         log_det=log_det)


def fit(features: np.ndarray, labels: np.ndarray, n_classes: int,
        ridge: float = 1e-6) -> list[ClassGaussian]:
    """Fit one Gaussian per class by maximum likelihood.

    The covariance uses the biased estimator (divisor M_j) and receives a
    relative ridge of ``ridge * trace/dim`` on the diagonal before
    factorization.
    """
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels)
    n, dim = features.shape
    bad = ~np.isfinite(features).all(axis=1)
    if bad.any():
        raise ValueError(f"features hold non-finite values in {bad.sum()} "
                         f"row(s), first row {bad.argmax()}")
    counts = np.bincount(labels, minlength=n_classes)
    if len(counts) > n_classes:
        raise ValueError("labels exceed the declared class count")
    model = []
    for j in range(n_classes):
        mj = int(counts[j])
        if mj < 2:
            raise ValueError(f"class {j} has {mj} samples; need at least 2")
        z = features[labels == j]
        mean = z.mean(axis=0)
        centered = z - mean
        cov = centered.T @ centered / mj
        cov = 0.5 * (cov + cov.T)
        cov = cov + ridge * (np.trace(cov) / dim) * np.eye(dim)
        try:
            model.append(gaussian_from_moments(mean, cov, mj / n))
        except ValueError as exc:
            raise ValueError(
                f"class {j}: covariance not positive definite "
                f"after ridging") from exc
    return model


def discriminants(model: list[ClassGaussian], z: np.ndarray) -> np.ndarray:
    """Discriminant of each class (columns) for each row of ``z``: the log of
    prior times density, up to a constant shared by the classes."""
    z = np.atleast_2d(np.asarray(z, dtype=np.float64))
    if z.shape[1] != model[0].mean.shape[0]:
        raise ValueError(
            f"feature dimension {z.shape[1]} does not match model "
            f"dimension {model[0].mean.shape[0]}")
    beta = np.empty((z.shape[0], len(model)))
    for j, g in enumerate(model):
        # z'Hz row by row through one GEMM, not an einsum (no BLAS path)
        beta[:, j] = 0.5 * ((z @ g.H) * z).sum(axis=1) + z @ g.b + g.c
    return beta


def softmax(beta: np.ndarray) -> np.ndarray:
    """Posterior class probabilities from rows of discriminants."""
    e = np.exp(beta - beta.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def predict_posterior(model: list[ClassGaussian], z: np.ndarray) -> np.ndarray:
    """Posterior class probabilities (softmax of the discriminants)."""
    post = softmax(discriminants(model, np.atleast_2d(z)))
    return post[0] if np.asarray(z).ndim == 1 else post


def predict_batch(model: list[ClassGaussian], z: np.ndarray) -> np.ndarray:
    """Most probable class of each row of ``z``; ties resolve to the lowest
    class index."""
    return discriminants(model, z).argmax(axis=1)


def confusion_from_predictions(outputs: np.ndarray, targets: np.ndarray,
                               n_classes: int) -> ConfusionMatrix:
    """Tabulate counts[output, target] with precision/recall margins."""
    outputs = np.asarray(outputs)
    targets = np.asarray(targets)
    if outputs.shape != targets.shape:
        raise ValueError("outputs and targets differ in length")
    counts = np.zeros((n_classes, n_classes), dtype=np.int64)
    np.add.at(counts, (outputs, targets), 1)
    row_tot = counts.sum(axis=1)
    col_tot = counts.sum(axis=0)
    diag = np.diag(counts).astype(np.float64)
    precision = np.divide(diag, row_tot, out=np.zeros(n_classes),
                          where=row_tot > 0)
    recall = np.divide(diag, col_tot, out=np.zeros(n_classes),
                       where=col_tot > 0)
    total = int(counts.sum())
    accuracy = float(diag.sum() / total) if total else 0.0
    return ConfusionMatrix(counts=counts, precision=precision, recall=recall,
                           accuracy=accuracy, total=total)

