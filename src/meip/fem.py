"""Membrane finite element core on a rectangular pixel grid.

Each pixel is a unit-square bilinear element with per-element elastic
modulus p_e and support coefficient q_e.  The module builds the mesh
connectivity, assembles the global stiffness operator K (linear in p, q,
plus a large boundary penalty sigma0 on boundary-node diagonals), converts
per-pixel grayscale values to equivalent node forces, solves SPD systems
through a cached banded Cholesky factorization, and evaluates the
mutual-energy inner product a' K b.  A dense generalized-eigenpair routine
for small meshes backs the spectral test oracles.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import scipy.linalg
import scipy.sparse

__all__ = [
    "GridMesh",
    "DesignField",
    "StiffnessOperator",
    "build_mesh",
    "element_matrices",
    "element_matrices_rational",
    "uniform_design",
    "assemble_stiffness",
    "grayscale_to_force",
    "mutual_energy",
    "assemble_mass",
    "generalized_eigenpairs",
]

# Integer numerators of the 4x4 element coefficient matrices; the elastic
# term carries denominator 24, the support term denominator 36.
_KP_NUM = np.array(
    [[4, -1, -2, -1],
     [-1, 4, -1, -2],
     [-2, -1, 4, -1],
     [-1, -2, -1, 4]], dtype=np.int64)
_KQ_NUM = np.array(
    [[4, 2, 1, 2],
     [2, 4, 2, 1],
     [1, 2, 4, 2],
     [2, 1, 2, 4]], dtype=np.int64)


class FactorizationError(RuntimeError):
    """Stiffness factorization failed; carries the offending pivot index."""

    def __init__(self, pivot: int):
        self.pivot = pivot
        super().__init__(f"Cholesky factorization failed at pivot {pivot}")


@dataclass(frozen=True)
class GridMesh:
    """Rectangular pixel mesh with column-priority numbering.

    ``n1`` counts element rows, ``n2`` element columns; element
    ``e = c*n1 + s`` sits at (row s, column c), both 0-based.  ``theta``
    maps each element to its 4 corner nodes in cyclic order
    (upper-left, lower-left, lower-right, upper-right); node
    ``c*(n1+1) + s`` sits at grid position (row s, column c).
    """

    n1: int
    n2: int
    ne: int
    n_nodes: int
    theta: np.ndarray          # (ne, 4) int64, 0-based global node numbers
    boundary_nodes: np.ndarray  # (2*(n1+n2),) int64, sorted


def build_mesh(n1: int, n2: int) -> GridMesh:
    """Build connectivity and the boundary node list for an n1 x n2 grid."""
    if n1 < 1 or n2 < 1:
        raise ValueError(f"mesh dimensions must be >= 1, got {n1} x {n2}")
    ne = n1 * n2
    n_nodes = (n1 + 1) * (n2 + 1)

    e = np.arange(ne, dtype=np.int64)
    c, s = e // n1, e % n1
    ul = c * (n1 + 1) + s
    theta = np.column_stack([ul, ul + 1, ul + n1 + 2, ul + n1 + 1])

    node = np.arange(n_nodes, dtype=np.int64)
    row, col = node % (n1 + 1), node // (n1 + 1)
    on_edge = (row == 0) | (row == n1) | (col == 0) | (col == n2)
    boundary = node[on_edge]

    theta.setflags(write=False)
    boundary.setflags(write=False)
    return GridMesh(n1=n1, n2=n2, ne=ne, n_nodes=n_nodes, theta=theta,
                    boundary_nodes=boundary)


def element_matrices() -> tuple[np.ndarray, np.ndarray]:
    """Return (Kp, Kq): unit-square element coefficient matrices as floats."""
    return _KP_NUM / 24.0, _KQ_NUM / 36.0


def element_matrices_rational() -> tuple[list, list]:
    """Exact rational form of (Kp, Kq), for arithmetic-identity checks."""
    kp = [[Fraction(int(v), 24) for v in row] for row in _KP_NUM]
    kq = [[Fraction(int(v), 36) for v in row] for row in _KQ_NUM]
    return kp, kq


@dataclass
class DesignField:
    """Per-element design variables with lower bounds and budget totals."""

    p: np.ndarray
    q: np.ndarray
    p_min: float
    q_min: float
    tolp: float
    tolq: float

    def validate(self, tol: float = 1e-9) -> None:
        """Raise if bounds or budget totals are violated beyond ``tol``."""
        if np.any(self.p < self.p_min - tol):
            raise ValueError("design variable p below lower bound")
        if np.any(self.q < self.q_min - tol):
            raise ValueError("design variable q below lower bound")
        if abs(self.p.sum() - self.tolp) > tol:
            raise ValueError(
                f"p budget violated: sum={self.p.sum()!r} target={self.tolp!r}")
        if abs(self.q.sum() - self.tolq) > tol:
            raise ValueError(
                f"q budget violated: sum={self.q.sum()!r} target={self.tolq!r}")

    def copy(self) -> "DesignField":
        return DesignField(self.p.copy(), self.q.copy(), self.p_min,
                           self.q_min, self.tolp, self.tolq)


def uniform_design(mesh: GridMesh, tolp: float, tolq: float,
                   p_min: float, q_min: float) -> DesignField:
    """Uniform initial design p_e = tolp/Ne, q_e = tolq/Ne.

    Dividing by the element count (not the node count) keeps the budget
    equalities satisfied from iteration 0.
    """
    p = np.full(mesh.ne, tolp / mesh.ne)
    q = np.full(mesh.ne, tolq / mesh.ne)
    return DesignField(p=p, q=q, p_min=p_min, q_min=q_min, tolp=tolp, tolq=tolq)


class StiffnessOperator:
    """Assembled global stiffness K with a cached banded Cholesky factor.

    K is symmetric positive definite: sum over elements of
    p_e*Kp + q_e*Kq scattered through the connectivity table, plus sigma0
    on boundary-node diagonals.  The factorization is computed once at
    assembly; ``solve`` applies it with one step of iterative refinement.
    """

    def __init__(self, K: scipy.sparse.csr_matrix, sigma0: float,
                 bandwidth: int, chol_upper: np.ndarray):
        self.K = K
        self.sigma0 = sigma0
        self.bandwidth = bandwidth
        self._chol = chol_upper
        self.shape = K.shape

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve K x = rhs to a relative residual of at most 1e-10."""
        if rhs.shape != (self.shape[0],):
            raise ValueError(
                f"rhs has shape {rhs.shape}, expected ({self.shape[0]},)")
        x = scipy.linalg.cho_solve_banded((self._chol, False), rhs)
        # One refinement pass cleans up the residual for ill-scaled designs
        # (sigma0 is typically 1e5 against budgets of order 1e-3..1).
        r = rhs - self.K @ x
        x += scipy.linalg.cho_solve_banded((self._chol, False), r)
        return x


def _band_index(mesh: GridMesh) -> int:
    # Nodes of one element differ by at most n1+2 in column-priority order.
    return min(mesh.n1 + 2, mesh.n_nodes - 1)


def _element_triplets(mesh: GridMesh, design: DesignField):
    """COO triplets of the p/q part of K (no boundary penalty)."""
    kp, kq = element_matrices()
    # (ne, 4, 4) stack of element matrices, then scattered via theta.
    kse = (design.p[:, None, None] * kp[None, :, :]
           + design.q[:, None, None] * kq[None, :, :])
    rows = np.repeat(mesh.theta, 4, axis=1).ravel()
    cols = np.tile(mesh.theta, (1, 4)).ravel()
    return rows, cols, kse.reshape(mesh.ne, 16).ravel()


def assemble_stiffness(mesh: GridMesh, design: DesignField,
                       sigma0: float) -> StiffnessOperator:
    """Assemble and factorize the global stiffness operator."""
    if sigma0 <= 0:
        raise ValueError("sigma0 must be positive")
    if design.p.shape != (mesh.ne,) or design.q.shape != (mesh.ne,):
        raise ValueError("design variable length does not match element count")

    rows, cols, vals = _element_triplets(mesh, design)
    rows = np.concatenate([rows, mesh.boundary_nodes])
    cols = np.concatenate([cols, mesh.boundary_nodes])
    vals = np.concatenate([vals, np.full(len(mesh.boundary_nodes), sigma0)])

    m = mesh.n_nodes
    K = scipy.sparse.coo_matrix((vals, (rows, cols)), shape=(m, m)).tocsr()

    bw = _band_index(mesh)
    ab = np.zeros((bw + 1, m))
    upper = rows <= cols
    np.add.at(ab, (bw + rows[upper] - cols[upper], cols[upper]), vals[upper])
    try:
        chol = scipy.linalg.cholesky_banded(ab, lower=False)
    except scipy.linalg.LinAlgError as exc:
        pivot = _failed_pivot(exc)
        raise FactorizationError(pivot) from exc
    return StiffnessOperator(K=K, sigma0=sigma0, bandwidth=bw, chol_upper=chol)


_PIVOT_MESSAGE = re.compile(r"(\d+)-th leading minor not positive definite")


def _failed_pivot(exc: Exception) -> int:
    # LAPACK reports the 1-based index of the non-positive leading minor;
    # any other message yields -1.
    match = _PIVOT_MESSAGE.search(str(exc))
    return int(match.group(1)) if match else -1


def grayscale_to_force(mesh: GridMesh, gray: np.ndarray) -> np.ndarray:
    """Equivalent node forces of a per-element grayscale field.

    Each element spreads 1/4 of its grayscale value to each of its 4
    corner nodes.
    """
    gray = np.asarray(gray, dtype=np.float64)
    if gray.shape != (mesh.ne,):
        raise ValueError(
            f"gray has shape {gray.shape}, expected ({mesh.ne},)")
    contrib = np.repeat(0.25 * gray, 4)
    return np.bincount(mesh.theta.ravel(), weights=contrib,
                       minlength=mesh.n_nodes)


def mutual_energy(op: StiffnessOperator, a: np.ndarray, b: np.ndarray) -> float:
    """Mutual-energy inner product a' K b of two node vectors."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != (op.shape[0],) or b.shape != (op.shape[0],):
        raise ValueError("node vector length does not match operator size")
    return float(a @ (op.K @ b))


def assemble_mass(mesh: GridMesh) -> scipy.sparse.csr_matrix:
    """Euclidean inner-product (mass) matrix: scattered Kq blocks."""
    _, kq = element_matrices()
    rows = np.repeat(mesh.theta, 4, axis=1).ravel()
    cols = np.tile(mesh.theta, (1, 4)).ravel()
    vals = np.tile(kq.ravel(), mesh.ne)
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
    Kd = op.K.toarray()
    Bd = B.toarray() if scipy.sparse.issparse(B) else np.asarray(B)
    lam, phi = scipy.linalg.eigh(Kd, Bd)
    return lam, phi
