"""Reference for the move-limit LP solver: one sort-and-fill per budget block.

This is the per-block form of ``meip.lp.solve_move_limit_lp``, before both
budget blocks were filled in one pass over shared buffers.  The one-pass
solver must agree with it bit for bit (same stable order, same per-block
cumsum, same clip), so it serves as a differential oracle.
``certificate`` is the dual certificate of a solution, rebuilt here from
the problem and the solution x.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from meip.lp import LpInfeasibleError, MoveLimitLp


@dataclass
class ReferenceSolution:
    x_p: np.ndarray
    x_q: np.ndarray
    objective: float


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


def fill_reference_solve(problem: MoveLimitLp) -> ReferenceSolution:
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
    return ReferenceSolution(
        x_p=x_p, x_q=x_q,
        objective=float(problem.c_p @ x_p + problem.c_q @ x_q))
