"""Dense spectral oracle: the stiffness K, the mass B and K phi = lambda B phi.

The pipeline never forms K as a matrix; it works from the LAPACK upper
band (``StiffnessOperator.ab``) and forms no product with K.  The tests
take K x and the mutual-energy inner product a'Kb from
``stiffness_matrix`` here, and check the paper's spectral reading of
u'Kv: it expands over the generalized eigenpairs of K and the mass matrix
B with weights 1/lambda_n.  Everything here is dense or sparse scipy, for
small meshes.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg
import scipy.sparse

from meip.fem import KQ, GridMesh, StiffnessOperator


def stiffness_matrix(op: StiffnessOperator) -> scipy.sparse.csr_matrix:
    """K as a sparse matrix, built from the operator's upper band."""
    upper = scipy.sparse.dia_matrix(
        (op.ab, np.arange(op.bandwidth, -1, -1)), shape=op.shape).tocsr()
    return upper + scipy.sparse.triu(upper, k=1).T


def assemble_mass(mesh: GridMesh) -> scipy.sparse.csr_matrix:
    """Euclidean inner-product (mass) matrix: scattered Kq blocks."""
    rows = np.repeat(mesh.theta, 4, axis=1).ravel()
    cols = np.tile(mesh.theta, (1, 4)).ravel()
    vals = np.tile(KQ.ravel(), mesh.ne)
    m = mesh.n_nodes
    return scipy.sparse.coo_matrix((vals, (rows, cols)), shape=(m, m)).tocsr()


def generalized_eigenpairs(op: StiffnessOperator,
                           B: scipy.sparse.spmatrix | np.ndarray,
                           max_nodes: int = 1200):
    """Full spectrum of K phi = lambda B phi, for small meshes only.

    Returns (lam, phi) with eigenvalues ascending and columns of ``phi``
    normalized so that phi' B phi = I.
    """
    m = op.shape[0]
    if m > max_nodes:
        raise ValueError(
            f"dense eigensolver oracle limited to {max_nodes} nodes, got {m}")
    Kd = stiffness_matrix(op).toarray()
    Bd = B.toarray() if scipy.sparse.issparse(B) else np.asarray(B)
    lam, phi = scipy.linalg.eigh(Kd, Bd)
    return lam, phi
