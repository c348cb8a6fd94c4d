"""Membrane FEM basics: assembly, solves, and the low-pass property.

Builds a small pixel mesh, assembles the stiffness operator for a random
design, and shows why the energy inner product u'Kv acts as a low-pass
filter between the forces that produced u and v: expanding it in the
generalized eigenbasis weights every component by 1/lambda_n.
"""

import numpy as np
import scipy.linalg

from meip import fem

rng = np.random.default_rng(0)

# --- mesh and design -------------------------------------------------------
mesh = fem.build_mesh(8, 8)
print(f"mesh: {mesh.n1}x{mesh.n2} elements, {mesh.n_nodes} nodes, "
      f"{len(mesh.boundary_nodes)} boundary nodes")

design = fem.uniform_design(mesh, tolp=0.2, tolq=0.2)
op = fem.assemble_stiffness(mesh, design, fem.SIGMA0)

# The solver keeps only K's upper band: K[i, i+d] sits at ab[bw - d, i+d].
# Unfold it into a dense symmetric matrix for display and the spectrum.
m, bw = op.shape[0], op.bandwidth
K = np.zeros((m, m))
for d in range(bw + 1):
    i = np.arange(m - d)
    K[i, i + d] = op.ab[bw - d, d:]
K += np.triu(K, 1).T
print(f"stiffness assembled: {K.shape}, nnz={np.count_nonzero(K)}, "
      f"bandwidth={op.bandwidth}")

# --- forces, deformations, energies ---------------------------------------
f = fem.grayscale_to_force(mesh, rng.random(mesh.ne))
g = fem.grayscale_to_force(mesh, rng.random(mesh.ne))
u = op.solve(f)
v = op.solve(g)
print(f"solve residual: {np.linalg.norm(K @ u - f):.2e}")

uku = u @ K @ u
ukv = u @ K @ v
print(f"deformation energy of u: {0.5 * uku:.6e}")
print(f"mutual energy <u,v>:     {ukv:.6e}")
print(f"identity <u,v> = u'g:    {float(u @ g):.6e}")

# --- spectral view ----------------------------------------------------------
# Mass matrix B of the Euclidean product: the element block Kq scattered
# through the connectivity.  eigh normalizes phi so that phi' B phi = I.
B = np.zeros((m, m))
for nodes in mesh.theta:
    B[np.ix_(nodes, nodes)] += fem.KQ
lam, phi = scipy.linalg.eigh(K, B)
print(f"\neigenvalues: lambda_1={lam[0]:.4e} ... lambda_max={lam[-1]:.4e}")

fn = phi.T @ f
gn = phi.T @ g
series = np.sum(fn * gn / lam)
print(f"series sum f_n g_n / lambda_n = {series:.6e} (matches <u,v>)")

# low frequencies dominate the energy product, high ones the plain product
contrib = np.abs(fn * gn / lam)
euclid = np.abs(fn * gn)
k = max(1, len(lam) // 10)
print(f"share of |<u,v>| carried by the lowest 10% of modes: "
      f"{contrib[:k].sum() / contrib.sum():.1%}")
print(f"same share under the Euclidean product f'g:          "
      f"{euclid[:k].sum() / euclid.sum():.1%}")
