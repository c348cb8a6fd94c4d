"""Recursive axis generation over a pool of training subsets.

The pool starts with the whole binary-labeled training set.  Each round
picks the subset whose smaller class is largest, optimizes one axis on
it, projects the subset onto the axis, splits it at the midpoint of the
two class means, and returns both halves to the pool.  Axes accumulate
until the requested count is reached or no subset holds both classes.
An axis bundle can afterwards be compressed to an orthonormal basis by
singular value decomposition.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from meip import fem
from meip.optimizer import OptimizerConfig, element_projection, optimize

__all__ = ["SubsetNode", "AxisBundle", "pick_subset", "split_subset",
           "generate_axes", "orthonormalize"]

log = logging.getLogger(__name__)


@dataclass
class SubsetNode:
    """Sample indices of one pool entry plus its per-class counts."""

    indices: np.ndarray
    m0: int
    m1: int

    @classmethod
    def from_labels(cls, indices: np.ndarray, labels: np.ndarray) -> "SubsetNode":
        sub = labels[indices]
        return cls(indices=indices, m0=int((sub == 0).sum()),
                   m1=int((sub == 1).sum()))


@dataclass
class AxisBundle:
    """Stack of feature axes (one node vector per row) with provenance.

    ``fields`` optionally keeps, per axis, the subset mean forces and the
    final design (dict with keys f, g, p, q) for later visualization;
    orthonormalization drops them since mixed axes have no single design.
    """

    axes: np.ndarray            # (n_axes, n_nodes)
    n1: int
    n2: int
    provenance: list = field(default_factory=list)
    fields: list = field(default_factory=list)
    pool_exhausted: bool = False

    @property
    def n_axes(self) -> int:
        return self.axes.shape[0]


def pick_subset(pool: list[SubsetNode]) -> int:
    """Index of the subset maximizing min(m0, m1); lowest index on ties."""
    if not pool:
        raise ValueError("subset pool is empty")
    best = 0
    best_val = min(pool[0].m0, pool[0].m1)
    for i in range(1, len(pool)):
        val = min(pool[i].m0, pool[i].m1)
        if val > best_val:
            best, best_val = i, val
    return best


def split_subset(node: SubsetNode, axis: np.ndarray, gray: np.ndarray,
                 labels: np.ndarray,
                 mesh: fem.GridMesh) -> tuple[SubsetNode, SubsetNode]:
    """Split a subset at the midpoint of its per-class projection means.

    Projections z are the axis dotted with each sample's force vector.
    Samples with z <= threshold go left, z > threshold go right; one side
    may come back empty when all projections coincide.
    """
    proj = element_projection(mesh, axis)
    z = gray[node.indices] @ proj
    y = labels[node.indices]
    mu0 = z[y == 0].mean()
    mu1 = z[y == 1].mean()
    z_th = 0.5 * (mu0 + mu1)
    left = node.indices[z <= z_th]
    right = node.indices[z > z_th]
    return (SubsetNode.from_labels(left, labels),
            SubsetNode.from_labels(right, labels))


def generate_axes(gray: np.ndarray, labels: np.ndarray, n_axes: int,
                  cfg: OptimizerConfig, mesh: fem.GridMesh) -> AxisBundle:
    """Grow ``n_axes`` axes over the recursively split training set.

    ``labels`` must be binary (0/1).  If the pool runs out of subsets
    containing both classes before ``n_axes`` are produced, the bundle is
    returned short with ``pool_exhausted`` set.
    """
    if n_axes < 1:
        raise ValueError("n_axes must be >= 1")
    labels = np.asarray(labels)
    if not np.isin(labels, (0, 1)).all():
        raise ValueError("forest labels must be binary (0/1)")
    if (labels == 0).sum() == 0 or (labels == 1).sum() == 0:
        raise ValueError("training data must contain both classes")

    pool = [SubsetNode.from_labels(np.arange(gray.shape[0]), labels)]
    axes = []
    provenance = []
    fields = []
    exhausted = False

    while len(axes) < n_axes:
        k = pick_subset(pool)
        node = pool[k]
        if min(node.m0, node.m1) == 0:
            exhausted = True
            log.warning("axis pool exhausted after %d of %d axes",
                        len(axes), n_axes)
            break
        pool.pop(k)

        idx = node.indices
        y = labels[idx]
        gray1, gray0 = gray[idx[y == 1]], gray[idx[y == 0]]
        try:
            result = optimize(gray1, gray0, mesh, cfg)
        except Exception as exc:
            raise RuntimeError(
                f"axis {len(axes) + 1} of {n_axes} failed on a "
                f"({node.m0}, {node.m1}) subset: {exc}") from exc
        axes.append(result.alpha)
        provenance.append({
            "m0": node.m0, "m1": node.m1,
            "iterations": result.iterations,
            "converged_by": result.converged_by,
            "j_final": result.j_history[-1],
            "g_final": result.g_final,
            "ref_kind": cfg.ref_kind,
        })
        fields.append({"f": result.f, "g": result.g,
                       "p": result.design.p.copy(),
                       "q": result.design.q.copy()})
        log.info("axis %d/%d: subset (%d, %d), %d iterations, %s",
                 len(axes), n_axes, node.m0, node.m1, result.iterations,
                 result.converged_by)

        left, right = split_subset(node, result.alpha, gray, labels, mesh)
        for child in (left, right):
            if child.indices.size:
                pool.append(child)

    bundle = AxisBundle(axes=np.array(axes), n1=mesh.n1, n2=mesh.n2,
                        provenance=provenance, fields=fields,
                        pool_exhausted=exhausted)
    return bundle


def orthonormalize(bundle: AxisBundle, k: int) -> AxisBundle:
    """Replace the axes with the top-k left singular vectors of their span."""
    if k > bundle.n_axes:
        raise ValueError(f"k={k} exceeds the number of axes {bundle.n_axes}")
    a = bundle.axes.T  # nodes x axes
    u, s, _ = np.linalg.svd(a, full_matrices=False)
    rank = int((s > s[0] * max(a.shape) * np.finfo(float).eps).sum())
    if k > rank:
        raise ValueError(f"k={k} exceeds the numerical rank {rank}")
    return AxisBundle(axes=u[:, :k].T.copy(), n1=bundle.n1, n2=bundle.n2)
