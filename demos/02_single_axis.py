"""Optimize one feature axis on a synthetic two-class problem.

Two classes of small images (a centered ring versus a centered bar) are
generated, the axis optimizer runs with default parameters, and the
script reports the objective trajectory, the constraint value, and how
well the single coordinate separates the classes.  The axis and the
final design fields are written as PGM rasters to ``out_single_axis/``
under the current directory.
"""

from pathlib import Path

import numpy as np

from meip import fem, pipeline
from meip.optimizer import OptimizerConfig, optimize

rng = np.random.default_rng(7)
n = 12
mesh = fem.build_mesh(n, n)


def ring(img):
    yy, xx = np.mgrid[0:n, 0:n]
    d = np.sqrt((yy - (n - 1) / 2) ** 2 + (xx - (n - 1) / 2) ** 2)
    img += 200 * np.exp(-((d - n * 0.3 - rng.normal(0, 0.3)) ** 2) / 2.0)


def bar(img):
    yy, xx = np.mgrid[0:n, 0:n]
    c = (n - 1) / 2 + rng.normal(0, 0.4)
    img += 220 * np.exp(-((xx - c) ** 2) / 2.0) * (yy > 1) * (yy < n - 2)


def samples(count, shape):
    out = np.empty((count, mesh.ne))
    for i in range(count):
        img = rng.random((n, n)) * 10
        shape(img)
        flat = img.reshape(-1, order="F")
        out[i] = flat / np.linalg.norm(flat)
    return out


gray1 = samples(120, bar)    # class 1
gray0 = samples(120, ring)   # class 0

cfg = OptimizerConfig(tolp=0.3, tolq=0.3)
result = optimize(gray1, gray0, mesh, cfg)
state = result.state

print(f"converged by {result.converged_by} after {result.iterations} "
      f"accepted iterations ({result.state_evals} evaluations)")
print("objective history:")
for i, j in enumerate(result.j_history):
    print(f"  iter {i:2d}: J = {j:+.6e}")
print(f"final constraint value G = {state.g0:.4e}")

# the coordinates of the class rows on the axis at the final design
z1, z0 = state.z1, state.z0
print(f"\ncoordinate separation: class1 [{z1.min():.3f}, {z1.max():.3f}], "
      f"class0 [{z0.min():.3f}, {z0.max():.3f}]")

out = Path("out_single_axis")
out.mkdir(exist_ok=True)
pipeline.write_pgm(out / "axis.pgm",
                   pipeline.node_grid(state.alpha, n, n))
pipeline.write_pgm(out / "design_p.pgm",
                   pipeline.element_grid(state.design.p, n, n))
pipeline.write_pgm(out / "design_q.pgm",
                   pipeline.element_grid(state.design.q, n, n))
print(f"\nwrote axis.pgm, design_p.pgm, design_q.pgm under {out}")
