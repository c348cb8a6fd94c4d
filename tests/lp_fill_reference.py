"""The move-limit LP in the tests: the generic problem, meip's solver for
it, and a separately written reference.

``MoveLimitLp`` states one LP with any costs, budgets and bounds, and
``solve`` solves it with ``meip.optimizer.fill``, once per budget block,
as ``meip.optimizer.solve_move_limit_lp`` does for the LPs of the axis
loop; ``move_limit_lp`` states such an LP from the loop's arguments.
``fill_reference_solve`` is a separately written form of the same fill.
``solve`` must agree with it bit for bit (same stable order, same
per-block cumsum, same clip), so it serves as a differential oracle.
``certificate`` is the dual certificate of a solution, rebuilt here from
the problem and the solution x.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from meip.optimizer import LpSolution, fill


class LpInfeasibleError(RuntimeError):
    """A budget equality row cannot be met within the move-limit boxes."""


@dataclass
class MoveLimitLp:
    """Coefficients of one move-limit LP instance."""

    c_p: np.ndarray      # objective gradient w.r.t. p increments
    c_q: np.ndarray      # objective gradient w.r.t. q increments
    tolx_p: float        # required sum of p increments
    tolx_q: float        # required sum of q increments
    lower_p: np.ndarray  # per-variable lower bounds (<= 0 at feasible point)
    lower_q: np.ndarray
    upper: float         # move limit, shared upper bound


def move_limit_lp(design, grads, cfg, limit: float) -> MoveLimitLp:
    """The LP that ``solve_move_limit_lp(design, grads, cfg, limit)``
    solves."""
    return MoveLimitLp(
        c_p=grads[0], c_q=grads[1],
        tolx_p=cfg.tolp - design.p.sum(), tolx_q=cfg.tolq - design.q.sum(),
        lower_p=np.maximum(cfg.p_min - design.p, -limit),
        lower_q=np.maximum(cfg.q_min - design.q, -limit), upper=limit)


def solve(problem: MoveLimitLp) -> LpSolution:
    """``problem`` solved by meip's fill, once per budget block."""
    x_p = fill(problem.c_p, problem.lower_p, problem.upper, problem.tolx_p)
    x_q = fill(problem.c_q, problem.lower_q, problem.upper, problem.tolx_q)
    return LpSolution(x_p=x_p, x_q=x_q,
                      objective=float(problem.c_p @ x_p + problem.c_q @ x_q))


def certificate(problem: MoveLimitLp, x: np.ndarray):
    """(reduced costs, at upper, basic) of the solution x.

    Each block's threshold is the largest cost that received budget, or
    the smallest cost when none did.
    """
    ne_p = problem.c_p.size
    c = np.concatenate([problem.c_p, problem.c_q], dtype=np.float64)
    lower = np.concatenate([problem.lower_p, problem.lower_q],
                           dtype=np.float64)
    blocks = (slice(0, ne_p), slice(ne_p, c.size))
    filled = x > lower
    reduced = np.concatenate([
        c[blk] - c[blk].max(where=filled[blk], initial=c.min())
        for blk in blocks])
    return reduced, x >= problem.upper, filled & (x < problem.upper)


def _fill(key: np.ndarray, lower: np.ndarray, upper: float,
          budget: float) -> np.ndarray:
    """Continuous knapsack: raise from ``lower`` in ascending ``key`` order."""
    order = np.argsort(key, kind="stable")
    cap = upper - lower[order]
    before = np.concatenate(([0.0], np.cumsum(cap)[:-1]))
    take = np.clip(budget - before, 0.0, cap)
    x = np.empty_like(lower)
    x[order] = np.where(take >= cap, upper, lower[order] + take)
    return x


def fill_reference_solve(problem: MoveLimitLp) -> LpSolution:
    """Solve the move-limit LP with one ``_fill`` call per budget block."""
    ne_p = problem.c_p.size
    c = np.concatenate([problem.c_p, problem.c_q], dtype=np.float64)
    lower = np.concatenate([problem.lower_p, problem.lower_q],
                           dtype=np.float64)
    scalars = [problem.tolx_p, problem.tolx_q, problem.upper]
    if not all(np.isfinite(v).all() for v in (c, lower, scalars)):
        raise ValueError("move-limit LP has non-finite coefficients or bounds")
    upper = float(problem.upper)
    if np.any(lower > upper + 1e-15):
        raise LpInfeasibleError("a move-limit box is empty (lower > upper)")

    art_tol = 1e-9 * max(1.0, abs(problem.tolx_p), abs(problem.tolx_q))
    blocks = (slice(0, ne_p), slice(ne_p, c.size))
    budgets = []
    for name, blk, tolx in zip("pq", blocks, scalars[:2]):
        budget = float(tolx - lower[blk].sum())
        resid = max(-budget, budget - (upper - lower[blk]).sum(), 0.0)
        if resid > art_tol:
            raise LpInfeasibleError(f"{name} budget row unsatisfiable within "
                                    f"boxes (residual {resid:.3e})")
        budgets.append(budget)

    x = np.concatenate([_fill(c[blk], lower[blk], upper, budget)
                        for blk, budget in zip(blocks, budgets)])
    x_p, x_q = x[:ne_p].copy(), x[ne_p:].copy()
    return LpSolution(
        x_p=x_p, x_q=x_q,
        objective=float(problem.c_p @ x_p + problem.c_q @ x_q))
