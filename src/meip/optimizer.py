"""Sequential linearization of one feature axis.

Starting from a given design (uniform unless the caller passes one; a
forest starts each child axis from the final design of the axis that
split off its subset), each iteration assembles the stiffness
operator, solves for the class-mean deformations u and v and the
deviation deformation w, forms the reference axis alpha and the combined
field c, evaluates the objective J = c'K alpha, computes its adjoint
gradient element by element, and solves the move-limit LP for design
increments.  A trial that fails to decrease J is rolled back and the move
limit shrinks to the minimizer of the quadratic through J0, the LP's
predicted change and the trial's J, by a factor kept within
[0.1, gamma] (safeguarded interpolation backtracking; Nocedal & Wright,
Numerical Optimization, 2nd ed., 3.5; Dennis & Schnabel 1983, A6.3.1).

The loop stops on a step of at most eps_x, on |dJ| <= eps_j or after
max_iters accepted steps.  Rejections need no cap: a step is at most the
move limit, which never grows and shrinks by at most gamma per rejection,
so ceil(log(eps_x / dx_max) / log(gamma)) rejections (13 at the defaults)
bring the step down to eps_x.

The mutual energy G = u'K v is evaluated at every state and reported, but
not enforced: this departs from the paper's model, whose LP carries the
linearized row G <= 0.  On the benchmark's glyph data G lay between 15
and 82 at every iterate, so that row could act only through a big-M
penalty, which picked steps that then failed the J test.
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
    gamma: float = 0.7     # largest factor a rejection shrinks dx_max by
    max_iters: int = 500
    ref_kind: str = "u_minus_v"

    def validate(self) -> None:
        if not 0.0 <= self.lam <= 1.0:
            raise ValueError("lam must lie in [0, 1]")
        if not 0.0 < self.gamma < 1.0:
            raise ValueError("gamma must lie in (0, 1)")
        for name in ("tolp", "tolq", "p_min", "q_min", "sigma0", "dx_max"):
            if not 0 < getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be positive and finite")
        # an infinite threshold is a rule that stops at its first test
        for name in ("eps_x", "eps_j"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
        if self.max_iters < 0:
            raise ValueError("max_iters must not be negative")
        if self.ref_kind not in REF_KINDS:
            raise ValueError(f"ref_kind must be one of {REF_KINDS}")

    def check_design(self, design: fem.DesignField) -> None:
        """Raise if ``design`` breaks the bounds or budget totals by more
        than 1e-9."""
        tol = 1e-9
        if np.any(design.p < self.p_min - tol):
            raise ValueError("design variable p below lower bound")
        if np.any(design.q < self.q_min - tol):
            raise ValueError("design variable q below lower bound")
        p_sum, q_sum = float(design.p.sum()), float(design.q.sum())
        if abs(p_sum - self.tolp) > tol:
            raise ValueError(f"p budget violated: sum={p_sum!r} "
                             f"target={self.tolp!r}")
        if abs(q_sum - self.tolq) > tol:
            raise ValueError(f"q budget violated: sum={q_sum!r} "
                             f"target={self.tolq!r}")


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
    z1: np.ndarray
    z0: np.ndarray
    mu1: float
    mu0: float
    s1_mask: np.ndarray
    s0_mask: np.ndarray
    j0: float
    g0: float


@dataclass
class AxisResult:
    """Optimized axis with its design and convergence record."""

    alpha: np.ndarray
    design: fem.DesignField
    f: np.ndarray          # class-mean node forces the axis was fitted to
    g: np.ndarray
    z1: np.ndarray         # coordinates of the class rows at the final design
    z0: np.ndarray
    j_history: list
    iterations: int
    converged_by: str      # "eps_J" | "eps_x" | "max_iters"
    state_evals: int = 0
    g_final: float = 0.0   # G at the final design, a diagnostic


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
                  cfg: OptimizerConfig, f: np.ndarray,
                  g: np.ndarray) -> OptimizerState:
    """Assemble K, solve for u/v/w, and evaluate J and G at ``design``.

    ``f`` and ``g`` are the class-mean forces of ``mean_forces``.
    """
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

    # Mean gray of each selected side, one GEMV per class with weights
    # mask/|S|; the force map is linear, so it runs once on the difference.
    # An empty side (the axis separates the slice perfectly) has zero
    # weights and contributes nothing.
    w0 = s0_mask / max(np.count_nonzero(s0_mask), 1)
    w1 = s1_mask / max(np.count_nonzero(s1_mask), 1)
    h = fem.grayscale_to_force(mesh, w0 @ gray0 - w1 @ gray1)
    w = op.solve(h)

    c = (1.0 - 2.0 * cfg.lam) * (u - v) + (1.0 - cfg.lam) * w
    j0 = float(c @ op.matvec(alpha))
    g0 = float(u @ op.matvec(v))

    return OptimizerState(design=design, op=op, u=u, v=v, w=w, c=c,
                          alpha=alpha, f=f, g=g, h=h, z1=z1, z0=z0,
                          mu1=mu1, mu0=mu0,
                          s1_mask=s1_mask, s0_mask=s0_mask, j0=j0, g0=g0)


def gradients(state: OptimizerState, mesh: fem.GridMesh):
    """Adjoint gradient of J w.r.t. the element design variables.

    For node fields x, y tied to the design through K x = const, the
    derivative of x'K y w.r.t. p_e is -x_e' Kp y_e with x_e, y_e the
    element's 4 node values; likewise for q_e with Kq.
    """
    nc = state.c[mesh.theta]
    na = state.alpha[mesh.theta]
    grad_p = -((nc @ fem.KP) * na).sum(axis=1)
    grad_q = -((nc @ fem.KQ) * na).sum(axis=1)
    return grad_p, grad_q


def _build_lp(state: OptimizerState, grads, cfg: OptimizerConfig,
              dx_max: float) -> MoveLimitLp:
    design = state.design
    return MoveLimitLp(
        c_p=grads[0], c_q=grads[1],
        tolx_p=cfg.tolp - design.p.sum(),
        tolx_q=cfg.tolq - design.q.sum(),
        lower_p=np.maximum(cfg.p_min - design.p, -dx_max),
        lower_q=np.maximum(cfg.q_min - design.q, -dx_max),
        upper=dx_max)


def optimize(gray1: np.ndarray, gray0: np.ndarray, mesh: fem.GridMesh,
             cfg: OptimizerConfig,
             start: fem.DesignField | None = None) -> AxisResult:
    """Run the full sequential linearization loop and return the axis.

    The loop starts from ``start`` (``fem.uniform_design`` when None),
    which must keep ``cfg``'s bounds and budgets; the first move limit is
    ``cfg.dx_max`` either way.
    """
    cfg.validate()
    if gray1.ndim != 2 or gray0.ndim != 2:
        raise ValueError("class slices must be (N, Ne) arrays")
    for name, gray in (("gray1", gray1), ("gray0", gray0)):
        if not np.all(np.isfinite(gray)):
            raise ValueError(f"{name} holds non-finite gray values")

    f, g = mean_forces(gray1, gray0, mesh)
    if start is None:
        design = fem.uniform_design(mesh, cfg.tolp, cfg.tolq)
    else:
        if start.p.shape != (mesh.ne,) or start.q.shape != (mesh.ne,):
            raise ValueError(f"start design does not have the mesh's "
                             f"{mesh.ne} elements")
        cfg.check_design(start)
        design = start
    state = compute_state(design, gray1, gray0, mesh, cfg, f, g)
    j_history = [state.j0]
    dx_max = cfg.dx_max
    evals = 1
    accepted = 0
    grads = None
    converged_by = "max_iters"

    # One trial per pass.  Gradients are taken only at a new state: the
    # first, and each accepted one; a rejected trial keeps the state and
    # retries with a shrunken move limit.
    while accepted < cfg.max_iters:
        if grads is None:
            grads = gradients(state, mesh)
        sol = solve_move_limit_lp(_build_lp(state, grads, cfg, dx_max))
        step = max(np.abs(sol.x_p).max(initial=0.0),
                   np.abs(sol.x_q).max(initial=0.0))
        if step <= cfg.eps_x:
            converged_by = "eps_x"
            break

        trial = fem.DesignField(p=state.design.p + sol.x_p,
                                q=state.design.q + sol.x_q)
        new_state = compute_state(trial, gray1, gray0, mesh, cfg, f, g)
        evals += 1
        dj = new_state.j0 - state.j0

        log.info("iter=%d J0=%.9e G0=%.3e dx_max=%.4g dJ=%.3e",
                 accepted + 1, new_state.j0, new_state.g0, dx_max, dj)

        rejected = not new_state.j0 < state.j0
        if not rejected:
            state = new_state
            accepted += 1
            grads = None
            j_history.append(state.j0)
        if abs(dj) <= cfg.eps_j:
            converged_by = "eps_J"
            break
        if rejected:
            # t minimizes the quadratic through J0 with slope pred at 0 and
            # J0 + dJ at 1; without a predicted decrease, shrink by gamma.
            # A NaN t falls to 0.1.
            pred = sol.objective
            t = -pred / (2.0 * (dj - pred)) if pred < 0 else cfg.gamma
            dx_max *= min(cfg.gamma, max(0.1, t))

    cfg.check_design(state.design)
    return AxisResult(alpha=state.alpha, design=state.design, f=f, g=g,
                      z1=state.z1, z0=state.z0, j_history=j_history,
                      iterations=accepted, converged_by=converged_by,
                      state_evals=evals, g_final=state.g0)
