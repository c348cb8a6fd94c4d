"""Sequential linearization of one feature axis.

Starting from a uniform design, each iteration assembles the stiffness
operator, solves for the class-mean deformations u and v and the
deviation deformation w, forms the reference axis alpha and the combined
field c, evaluates the objective J = c'K alpha and constraint G = u'K v,
computes their adjoint gradients element by element, and solves the
move-limit LP for design increments.  Steps that fail to decrease J are
rolled back and retried with a shrunken move limit.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from meip import fem
from meip.lp import MoveLimitLp, solve_move_limit_lp

__all__ = ["OptimizerConfig", "OptimizerState", "AxisResult",
           "mean_forces", "compute_state", "gradients", "optimize"]

log = logging.getLogger(__name__)

REF_KINDS = ("u", "v", "u_minus_v")


@dataclass
class OptimizerConfig:
    """Weights, budgets, move limits and stopping rules of the axis loop."""

    lam: float = 0.3
    tolp: float = 2.0
    tolq: float = 2.0
    p_min: float = 1e-3
    q_min: float = 1e-3
    sigma0: float = 1e5
    dx_max: float = 0.08
    eps_x: float = 8e-4
    eps_j: float = 1e-7
    gamma: float = 0.7
    max_iters: int = 500
    max_shrinks: int = 12
    ref_kind: str = "u_minus_v"

    def validate(self) -> None:
        if not 0.0 <= self.lam <= 1.0:
            raise ValueError("lam must lie in [0, 1]")
        if not 0.0 < self.gamma < 1.0:
            raise ValueError("gamma must lie in (0, 1)")
        for name in ("tolp", "tolq", "p_min", "q_min", "sigma0", "dx_max",
                     "eps_x", "eps_j"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.ref_kind not in REF_KINDS:
            raise ValueError(f"ref_kind must be one of {REF_KINDS}")


@dataclass
class OptimizerState:
    """All per-iteration fields of the current design."""

    design: fem.DesignField
    op: fem.StiffnessOperator
    u: np.ndarray
    v: np.ndarray
    w: np.ndarray
    c: np.ndarray
    alpha: np.ndarray
    f: np.ndarray
    g: np.ndarray
    h: np.ndarray
    mu1: float
    mu0: float
    s1_mask: np.ndarray
    s0_mask: np.ndarray
    j0: float
    g0: float
    iteration: int = 0

    @property
    def s1_count(self) -> int:
        return int(self.s1_mask.sum())

    @property
    def s0_count(self) -> int:
        return int(self.s0_mask.sum())


@dataclass
class AxisResult:
    """Optimized axis with its design and convergence record."""

    alpha: np.ndarray
    design: fem.DesignField
    j_history: list
    iterations: int
    converged_by: str      # "eps_J" | "eps_x" | "max_shrinks" | "max_iters"
    state_evals: int = 0
    g_final: float = 0.0


def mean_forces(gray1: np.ndarray, gray0: np.ndarray,
                mesh: fem.GridMesh) -> tuple[np.ndarray, np.ndarray]:
    """Class-mean node forces; mean of forces equals force of mean gray."""
    if gray1.shape[0] == 0 or gray0.shape[0] == 0:
        raise ValueError("both class slices must be non-empty")
    f = fem.grayscale_to_force(mesh, gray1.mean(axis=0))
    g = fem.grayscale_to_force(mesh, gray0.mean(axis=0))
    return f, g


def element_projection(mesh: fem.GridMesh, alpha: np.ndarray) -> np.ndarray:
    """Per-element weights such that weights @ gray = alpha' force(gray)."""
    return 0.25 * alpha[mesh.theta].sum(axis=1)


def compute_state(design: fem.DesignField, gray1: np.ndarray,
                  gray0: np.ndarray, mesh: fem.GridMesh,
                  cfg: OptimizerConfig,
                  f: np.ndarray | None = None,
                  g: np.ndarray | None = None,
                  iteration: int = 0) -> OptimizerState:
    """Assemble K, solve for u/v/w, and evaluate J and G at ``design``."""
    if f is None or g is None:
        f, g = mean_forces(gray1, gray0, mesh)

    op = fem.assemble_stiffness(mesh, design, cfg.sigma0)
    u, v = op.solve(np.column_stack([f, g])).T

    if cfg.ref_kind == "u":
        alpha = u
    elif cfg.ref_kind == "v":
        alpha = v
    else:
        alpha = u - v

    proj = element_projection(mesh, alpha)
    z1 = gray1 @ proj
    z0 = gray0 @ proj
    # The class means of the coordinates (alpha'f and alpha'g in exact
    # arithmetic), taken from z itself: a sample at its class mean, such as
    # the only one of a slice, is then never selected by round-off.
    mu1 = float(z1.mean())
    mu0 = float(z0.mean())
    s1_mask = z1 < mu1
    s0_mask = z0 > mu0

    # Mean gray of each selected side; an empty side contributes nothing,
    # which happens once the axis separates the training slice perfectly.
    h = np.zeros(mesh.n_nodes)
    if s0_mask.any():
        h += fem.grayscale_to_force(mesh, gray0[s0_mask].mean(axis=0))
    if s1_mask.any():
        h -= fem.grayscale_to_force(mesh, gray1[s1_mask].mean(axis=0))
    w = op.solve(h)

    c = (1.0 - 2.0 * cfg.lam) * (u - v) + (1.0 - cfg.lam) * w
    j0 = float(c @ op.matvec(alpha))
    g0 = float(u @ op.matvec(v))

    return OptimizerState(design=design, op=op, u=u, v=v, w=w, c=c,
                          alpha=alpha, f=f, g=g, h=h, mu1=mu1, mu0=mu0,
                          s1_mask=s1_mask, s0_mask=s0_mask, j0=j0, g0=g0,
                          iteration=iteration)


def gradients(state: OptimizerState, mesh: fem.GridMesh):
    """Adjoint gradients of J and G w.r.t. the element design variables.

    For node fields x, y tied to the design through K x = const, the
    derivative of x'K y w.r.t. p_e is -x_e' Kp y_e with x_e, y_e the
    element's 4 node values; likewise for q_e with Kq.
    """
    kp, kq = fem.element_matrices()
    nc = state.c[mesh.theta]
    na = state.alpha[mesh.theta]
    nu = state.u[mesh.theta]
    nv = state.v[mesh.theta]
    grad_j_p = -((nc @ kp) * na).sum(axis=1)
    grad_j_q = -((nc @ kq) * na).sum(axis=1)
    grad_g_p = -((nu @ kp) * nv).sum(axis=1)
    grad_g_q = -((nu @ kq) * nv).sum(axis=1)
    return grad_j_p, grad_j_q, grad_g_p, grad_g_q


def _build_lp(state: OptimizerState, grads, cfg: OptimizerConfig,
              dx_max: float) -> MoveLimitLp:
    grad_j_p, grad_j_q, grad_g_p, grad_g_q = grads
    design = state.design
    return MoveLimitLp(
        c_p=grad_j_p, c_q=grad_j_q,
        a_p=grad_g_p, a_q=grad_g_q,
        g0=state.g0,
        tolx_p=design.tolp - design.p.sum(),
        tolx_q=design.tolq - design.q.sum(),
        lower_p=np.maximum(design.p_min - design.p, -dx_max),
        lower_q=np.maximum(design.q_min - design.q, -dx_max),
        upper=dx_max)


def optimize(gray1: np.ndarray, gray0: np.ndarray, mesh: fem.GridMesh,
             cfg: OptimizerConfig, callback=None) -> AxisResult:
    """Run the full sequential linearization loop and return the axis.

    ``callback``, when given, is invoked with the state after every
    accepted iteration.
    """
    cfg.validate()
    if gray1.ndim != 2 or gray0.ndim != 2:
        raise ValueError("class slices must be (N, Ne) arrays")
    for name, gray in (("gray1", gray1), ("gray0", gray0)):
        if not np.all(np.isfinite(gray)):
            raise ValueError(f"{name} holds non-finite gray values")

    f, g = mean_forces(gray1, gray0, mesh)
    design = fem.uniform_design(mesh, cfg.tolp, cfg.tolq, cfg.p_min, cfg.q_min)
    state = compute_state(design, gray1, gray0, mesh, cfg, f=f, g=g)
    j_history = [state.j0]
    dx_max = cfg.dx_max
    evals = 1
    accepted = 0
    converged_by = "max_iters"

    while accepted < cfg.max_iters:
        grads = gradients(state, mesh)
        shrinks = 0
        terminated = None
        while True:
            lp = _build_lp(state, grads, cfg, dx_max)
            sol = solve_move_limit_lp(lp)
            step = max(np.abs(sol.x_p).max(initial=0.0),
                       np.abs(sol.x_q).max(initial=0.0))
            if step <= cfg.eps_x:
                terminated = "eps_x"
                break

            trial = fem.DesignField(
                p=state.design.p + sol.x_p, q=state.design.q + sol.x_q,
                p_min=cfg.p_min, q_min=cfg.q_min,
                tolp=cfg.tolp, tolq=cfg.tolq)
            new_state = compute_state(trial, gray1, gray0, mesh, cfg,
                                      f=f, g=g, iteration=accepted + 1)
            evals += 1
            dj = new_state.j0 - state.j0

            log.info("iter=%d J0=%.9e G0=%.3e dx_max=%.4g slack=%.3g dJ=%.3e",
                     accepted + 1, new_state.j0, new_state.g0, dx_max,
                     sol.slack_used, dj)

            if new_state.j0 < state.j0:
                state = new_state
                accepted += 1
                j_history.append(state.j0)
                if callback is not None:
                    callback(state)
                if abs(dj) <= cfg.eps_j:
                    terminated = "eps_J"
                break
            # Rejected: roll back (state unchanged), shrink the move limit.
            if abs(dj) <= cfg.eps_j:
                terminated = "eps_J"
                break
            dx_max *= cfg.gamma
            shrinks += 1
            if shrinks >= cfg.max_shrinks:
                terminated = "max_shrinks"
                break
        if terminated:
            converged_by = terminated
            break

    state.design.validate()
    return AxisResult(alpha=state.alpha, design=state.design,
                      j_history=j_history, iterations=accepted,
                      converged_by=converged_by, state_evals=evals,
                      g_final=state.g0)
