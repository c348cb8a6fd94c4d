"""Grow an axis forest and train the Gaussian classifier on it.

The classes here overlap on purpose (three noisy shape families mapped to
two labels), so one axis is not enough; the forest keeps splitting the
hardest subset and each split contributes a new coordinate.  A quadratic
discriminant model is then fitted on the feature vectors and scored.
"""

import numpy as np

from meip import fem
from meip.classifier import (confusion_from_predictions, features_from_gray,
                             fit, predict_batch)
from meip.forest import generate_axes, orthonormalize
from meip.optimizer import OptimizerConfig

rng = np.random.default_rng(21)
n = 10
mesh = fem.build_mesh(n, n)
yy, xx = np.mgrid[0:n, 0:n]
c = (n - 1) / 2


def blobby(count, kind):
    out = np.empty((count, mesh.ne))
    for i in range(count):
        img = rng.random((n, n)) * 25
        if kind == 0:      # ring
            d = np.sqrt((yy - c) ** 2 + (xx - c) ** 2)
            img += 180 * np.exp(-((d - 3 + rng.normal(0, 0.5)) ** 2) / 2)
        elif kind == 1:    # vertical bar
            img += 190 * np.exp(-((xx - c - rng.normal(0, 0.6)) ** 2) / 2)
        else:              # diagonal stroke, labeled together with the bar
            d = np.abs(yy - xx + rng.normal(0, 0.6))
            img += 190 * np.exp(-(d ** 2) / 2)
        flat = img.reshape(-1, order="F")
        out[i] = flat / np.linalg.norm(flat)
    return out


train_gray = np.vstack([blobby(150, 0), blobby(75, 1), blobby(75, 2)])
train_y = np.array([0] * 150 + [1] * 150)
test_gray = np.vstack([blobby(50, 0), blobby(25, 1), blobby(25, 2)])
test_y = np.array([0] * 50 + [1] * 50)

cfg = OptimizerConfig(tolp=0.2, tolq=0.2)
bundle = generate_axes(train_gray, train_y, n_axes=6, cfg=cfg, mesh=mesh)
print(f"forest produced {bundle.n_axes} axes"
      + (" (pool exhausted)" if bundle.pool_exhausted else ""))
for i, prov in enumerate(bundle.provenance):
    print(f"  axis {i}: subset ({prov['m0']}, {prov['m1']}), "
          f"{prov['iterations']} iterations, {prov['converged_by']}")

if bundle.n_axes > 3:
    bundle = orthonormalize(bundle, 3)
    print(f"compressed to {bundle.n_axes} orthonormal axes")

z_train = features_from_gray(bundle, train_gray)
z_test = features_from_gray(bundle, test_gray)
model = fit(z_train, train_y, 2, ridge=1e-6)

for name, z, y in (("train", z_train, train_y), ("test", z_test, test_y)):
    cm = confusion_from_predictions(predict_batch(model, z), y, 2)
    print(f"{name}: accuracy {cm['accuracy']:.4f}, counts {cm['counts']}")
