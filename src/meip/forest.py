"""Recursive axis generation over a pool of training subsets.

The pool starts with the whole binary-labeled training set, and every
entry keeps its sample indices split by class.  Each round picks the
subset whose smaller class is largest, optimizes one axis on it, splits
it at the midpoint of the two class means of the axis coordinates that
the axis's final state already computed, and returns both halves to the
pool.  The first axis starts from a uniform design; every later one
starts from the final design of the axis that split off its subset
(continuation).  Axes accumulate until the requested count is reached
or no subset holds both classes.
An axis bundle can afterwards be compressed to an orthonormal basis by
singular value decomposition.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from meip import fem
from meip.optimizer import OptimizerConfig, optimize

__all__ = ["SubsetNode", "AxisBundle", "pick_subset", "split_subset",
           "generate_axes", "orthonormalize"]

log = logging.getLogger(__name__)


@dataclass
class SubsetNode:
    """Ascending sample indices of each class of one pool entry.

    A subset split off by an axis carries that axis's index in the forest
    and its final design, the start of the next axis grown on the subset;
    the whole training set has neither.
    """

    idx0: np.ndarray
    idx1: np.ndarray
    parent: int | None = None
    start: fem.DesignField | None = None


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
    """Index of the subset maximizing its smaller class; lowest on ties."""
    if not pool:
        raise ValueError("subset pool is empty")
    return max(range(len(pool)),
               key=lambda i: min(len(pool[i].idx0), len(pool[i].idx1)))


def split_subset(node: SubsetNode, z0: np.ndarray,
                 z1: np.ndarray) -> tuple[SubsetNode, SubsetNode]:
    """Split a subset at the midpoint of its per-class coordinate means.

    ``z0`` and ``z1`` are the axis coordinates of the rows of ``idx0`` and
    ``idx1``.  Samples with z <= threshold go left, z > threshold go
    right; one side may come back empty when all coordinates coincide.
    """
    z_th = 0.5 * (z0.mean() + z1.mean())
    left0, left1 = z0 <= z_th, z1 <= z_th
    return (SubsetNode(node.idx0[left0], node.idx1[left1]),
            SubsetNode(node.idx0[~left0], node.idx1[~left1]))


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

    pool = [SubsetNode(np.flatnonzero(labels == 0),
                       np.flatnonzero(labels == 1))]
    axes = []
    provenance = []
    fields = []

    while len(axes) < n_axes:
        k = pick_subset(pool)
        node = pool[k]
        m0, m1 = len(node.idx0), len(node.idx1)
        if min(m0, m1) == 0:
            log.warning("axis pool exhausted after %d of %d axes",
                        len(axes), n_axes)
            break
        pool.pop(k)

        try:
            result = optimize(gray[node.idx1], gray[node.idx0], mesh, cfg,
                              start=node.start)
        except Exception as exc:
            raise RuntimeError(
                f"axis {len(axes) + 1} of {n_axes} failed on a "
                f"({m0}, {m1}) subset: {exc}") from exc
        state = result.state
        start = "uniform" if node.parent is None else f"axis {node.parent}"
        axes.append(state.alpha)
        provenance.append({
            "m0": m0, "m1": m1,
            "iterations": result.iterations,
            "state_evals": result.state_evals,
            "converged_by": result.converged_by,
            "j_final": result.j_history[-1],
            "g_final": state.g0,
            "dx_first_accept": result.dx_first_accept,
            "ref_kind": cfg.ref_kind,
            "start": start,
        })
        fields.append({"f": state.f, "g": state.g,
                       "p": state.design.p, "q": state.design.q})
        log.info("axis %d/%d: subset (%d, %d), %d iterations, %s",
                 len(axes), n_axes, m0, m1, result.iterations,
                 result.converged_by)
        if result.iterations == 0 and result.state_evals > 1:
            log.warning("axis %d on a (%d, %d) subset accepted no step "
                        "(start: %s)", len(axes) - 1, m0, m1, start)

        for child in split_subset(node, state.z0, state.z1):
            if child.idx0.size or child.idx1.size:
                child.parent, child.start = len(axes) - 1, state.design
                pool.append(child)

    return AxisBundle(axes=np.array(axes), n1=mesh.n1, n2=mesh.n2,
                      provenance=provenance, fields=fields,
                      pool_exhausted=len(axes) < n_axes)


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
