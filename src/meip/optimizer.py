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
predicted change and the trial's J, by a factor kept within the fixed
safeguard interval SHRINK = [0.1, 0.7] (safeguarded interpolation
backtracking; Nocedal & Wright, Numerical Optimization, 2nd ed., 3.5;
Dennis & Schnabel 1983, A6.3.1).

Every axis starts at the move limit L0 = min(tolp, tolq) / Ne, the
uniform element value of the smaller budget (a scaled initial trust
region; Sartenaer 1997, SIAM J. Sci. Comput. 18(6)).  The loop stops on a
step of at most eps_x (with no LP once the move limit itself is at most
eps_x), or on one of two fixed caps, not settings: |dJ| <= EPS_J or
MAX_ITERS accepted steps.  Rejections need no cap: a step is at most the
move limit, which never grows and shrinks by a factor of at most 0.7 per
rejection, so ceil(log(eps_x / L0) / log(0.7)) rejections (9 at 12x12
and 4 at 28x28 with the defaults) bring the limit down to eps_x.

A state evaluation factors K once and makes two banded solves and no
band product: J and G = u'K v are read off the solved right-hand sides
(K alpha is f, g or f - g, and K v = g).  G is reported, but not
enforced: this departs from the paper's model, whose LP carries the
linearized row G <= 0.  On the benchmark's glyph data G lay between 15
and 82 at every iterate, so that row could act only through a big-M
penalty, which picked steps that then failed the J test.

The move-limit LP of a step with move limit L is

    min  grad_p' x_p + grad_q' x_q
    s.t. sum(x_p) = tolp - sum(p),  sum(x_q) = tolq - sum(q)
         max(p_min - p, -L) <= x_p <= L,  max(q_min - q, -L) <= x_q <= L

The two blocks share no row, so the LP is two continuous knapsacks
(Dantzig 1957, Oper. Res. 5(2)), each solved by sort-and-fill: every
entry starts at its lower bound and the budget goes out in ascending
order of cost.  The sort is stable, so tied costs fill the lowest index
first and the solve is deterministic.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from meip import fem

__all__ = ["OptimizerConfig", "OptimizerState", "AxisResult", "LpSolution",
           "mean_forces", "compute_state", "gradients",
           "solve_move_limit_lp", "optimize"]

log = logging.getLogger(__name__)

REF_KINDS = ("u", "v", "u_minus_v")
# the least and largest factor a rejected trial shrinks the move limit by
SHRINK = (0.1, 0.7)
# the safety caps: a |dJ| that stops the loop, and the most accepted steps
EPS_J = 1e-7
MAX_ITERS = 500


@dataclass
class OptimizerConfig:
    """Weights, budgets, move limits and step threshold of the axis loop."""

    lam: float = 0.3
    tolp: float = 2.0
    tolq: float = 2.0
    p_min: float = 1e-3
    q_min: float = 1e-3
    eps_x: float = 8e-4
    ref_kind: str = "u_minus_v"

    def validate(self) -> None:
        if not 0.0 <= self.lam <= 1.0:
            raise ValueError("lam must lie in [0, 1]")
        for name in ("tolp", "tolq", "p_min", "q_min"):
            if not 0 < getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be positive and finite")
        # above the boundary penalty one element can outweigh the edge's
        # penalty, and from 2**23 one ulp of a sum exceeds check_design's 1e-9
        for name in ("tolp", "tolq"):
            if getattr(self, name) > fem.SIGMA0:
                raise ValueError(f"{name} must not exceed the boundary "
                                 f"penalty fem.SIGMA0 = {fem.SIGMA0!r}")
        if not self.eps_x > 0:
            raise ValueError("eps_x must be positive")
        if self.ref_kind not in REF_KINDS:
            raise ValueError(f"ref_kind must be one of {REF_KINDS}")

    def first_move_limit(self, ne: int) -> float:
        """The move limit every axis on ``ne`` elements starts at: the
        uniform element value of the smaller budget."""
        return min(self.tolp, self.tolq) / ne

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
    """The loop's final ``state`` (axis, design, forces, coordinates and G
    as ``state.g0``) and the record that only the loop knows: J at the
    start and after each accepted step, the accepted steps, the stopping
    rule (``eps_x``, or the cap ``EPS_J`` or ``MAX_ITERS``), the state
    evaluations and the first accepted step's move limit."""

    state: OptimizerState
    j_history: list
    iterations: int
    converged_by: str      # "eps_J" | "eps_x" | "max_iters"
    state_evals: int
    dx_first_accept: float | None  # None without an accepted step


def mean_forces(gray1: np.ndarray, gray0: np.ndarray,
                mesh: fem.GridMesh) -> tuple[np.ndarray, np.ndarray]:
    """Class-mean node forces; mean of forces equals force of mean gray."""
    if gray1.shape[0] == 0 or gray0.shape[0] == 0:
        raise ValueError("both class slices must be non-empty")
    f = fem.grayscale_to_force(mesh, gray1.mean(axis=0))
    g = fem.grayscale_to_force(mesh, gray0.mean(axis=0))
    return f, g


def element_projection(mesh: fem.GridMesh, alpha: np.ndarray) -> np.ndarray:
    """Per-element weights such that weights @ gray = alpha' force(gray),
    for one node vector ``alpha`` or for each row of an (m, n_nodes) stack."""
    return 0.25 * alpha[..., mesh.theta].sum(axis=-1)


def compute_state(design: fem.DesignField, gray1: np.ndarray,
                  gray0: np.ndarray, mesh: fem.GridMesh,
                  cfg: OptimizerConfig, f: np.ndarray,
                  g: np.ndarray) -> OptimizerState:
    """Assemble K, solve for u/v/w, and evaluate J and G at ``design``.

    ``f`` and ``g`` are the class-mean forces of ``mean_forces``.
    """
    op = fem.assemble_stiffness(mesh, design, fem.SIGMA0)
    u, v = op.solve(np.column_stack([f, g])).T

    if cfg.ref_kind == "u":
        alpha, k_alpha = u, f
    elif cfg.ref_kind == "v":
        alpha, k_alpha = v, g
    else:
        alpha, k_alpha = u - v, f - g

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
    j0 = float(c @ k_alpha)
    g0 = float(u @ g)

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


@dataclass
class LpSolution:
    """Optimal increments of one move-limit LP and their objective."""

    x_p: np.ndarray
    x_q: np.ndarray
    objective: float
    # no row can be violated, so always 0; the benchmark's tracer reads it
    slack_used: float = 0.0


def fill(c: np.ndarray, lower: np.ndarray, upper: float,
         total: float) -> np.ndarray:
    """One block's continuous knapsack: the x in [lower, upper] with
    sum(x) = total that minimizes c'x.  Each entry rises from ``lower``
    toward ``upper`` in ascending order of ``c`` until the budget
    total - sum(lower) is out."""
    budget = total - lower.sum()
    order = c.argsort(kind="stable")
    lo = lower[order]
    cap = upper - lo
    before = np.zeros_like(cap)   # budget already placed before each entry
    cap[:-1].cumsum(out=before[1:])
    take = np.minimum(np.maximum(budget - before, 0.0), cap)
    x = np.empty_like(lower)
    x[order] = np.where(take >= cap, upper, lo + take)
    return x


def solve_move_limit_lp(design: fem.DesignField, grads,
                        cfg: OptimizerConfig, limit: float) -> LpSolution:
    """The move-limit LP at ``design`` with the gradients ``grads`` of J
    and the move limit ``limit``: one ``fill`` per design field."""
    x_p, x_q = (fill(c, np.maximum(bound - d, -limit), limit, tol - d.sum())
                for c, d, bound, tol in zip(grads, (design.p, design.q),
                                            (cfg.p_min, cfg.q_min),
                                            (cfg.tolp, cfg.tolq)))
    return LpSolution(x_p=x_p, x_q=x_q,
                      objective=float(grads[0] @ x_p + grads[1] @ x_q))


def optimize(gray1: np.ndarray, gray0: np.ndarray, mesh: fem.GridMesh,
             cfg: OptimizerConfig,
             start: fem.DesignField | None = None) -> AxisResult:
    """Run the full sequential linearization loop and return the axis.

    The loop starts from ``start`` (``fem.uniform_design`` when None),
    which must keep ``cfg``'s bounds and budgets; the first move limit is
    ``cfg.first_move_limit(mesh.ne)`` either way.
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
    limit = cfg.first_move_limit(mesh.ne)
    evals = 1
    accepted = 0
    dx_first_accept = None
    grads = None
    converged_by = "max_iters"

    # One trial per pass.  Gradients are taken only at a new state: the
    # first, and each accepted one; a rejected trial keeps the state and
    # retries with a shrunken move limit.
    while accepted < MAX_ITERS:
        # a step is at most the move limit, so a spent limit needs no LP
        if limit <= cfg.eps_x:
            converged_by = "eps_x"
            break
        if grads is None:
            grads = gradients(state, mesh)
        sol = solve_move_limit_lp(state.design, grads, cfg, limit)
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

        log.info("iter=%d J0=%.9e G0=%.3e limit=%.4g dJ=%.3e",
                 accepted + 1, new_state.j0, new_state.g0, limit, dj)

        rejected = not new_state.j0 < state.j0
        if not rejected:
            if not accepted:
                dx_first_accept = limit
            state = new_state
            accepted += 1
            grads = None
            j_history.append(state.j0)
        if abs(dj) <= EPS_J:
            converged_by = "eps_J"
            break
        if rejected:
            # t minimizes the quadratic through J0 with slope pred at 0 and
            # J0 + dJ at 1; without a predicted decrease, shrink by the
            # largest factor.  A NaN t falls to the least.
            pred = sol.objective
            low, high = SHRINK
            t = -pred / (2.0 * (dj - pred)) if pred < 0 else high
            limit *= min(high, max(low, t))

    cfg.check_design(state.design)
    return AxisResult(state=state, j_history=j_history,
                      iterations=accepted, converged_by=converged_by,
                      state_evals=evals, dx_first_accept=dx_first_accept)
