"""Reference for the move-limit LP solver: one sort-and-fill per budget block.

This is ``meip.lp.solve_move_limit_lp`` as it stood before both budget
blocks were filled in one pass over shared buffers, kept verbatim apart
from its result type.  The one-pass solver must agree with it bit for bit
(same stable order, same per-block cumsum, same clip), so it serves as a
differential oracle.  ``certificate`` is the dual certificate the solver
used to build on every call; it is rebuilt here from the problem, the
multiplier y and the solution x.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from meip.lp import LpInfeasibleError, MoveLimitLp, default_penalty


@dataclass
class ReferenceSolution:
    x_p: np.ndarray
    x_q: np.ndarray
    objective: float
    feasible: bool
    slack_used: float
    y: float


def certificate(problem: MoveLimitLp, y: float, x: np.ndarray):
    """(reduced costs, at upper, basic) of the solution x at multiplier y.

    Each block's threshold is the largest cost that received budget, or
    the smallest cost when none did.
    """
    ne_p = problem.c_p.size
    c = np.concatenate([problem.c_p, problem.c_q], dtype=np.float64)
    a = np.concatenate([problem.a_p, problem.a_q], dtype=np.float64)
    lower = np.concatenate([problem.lower_p, problem.lower_q],
                           dtype=np.float64)
    blocks = (slice(0, ne_p), slice(ne_p, c.size))
    key = c + y * a
    filled = x > lower
    reduced = np.concatenate([
        key[blk] - key[blk].max(where=filled[blk], initial=key.min())
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


def fill_reference_solve(problem: MoveLimitLp,
                         penalty: float | None = None) -> ReferenceSolution:
    """Solve the move-limit LP with one ``_fill`` call per budget block."""
    ne_p = problem.c_p.size
    c = np.concatenate([problem.c_p, problem.c_q], dtype=np.float64)
    a = np.concatenate([problem.a_p, problem.a_q], dtype=np.float64)
    lower = np.concatenate([problem.lower_p, problem.lower_q],
                           dtype=np.float64)
    scalars = [problem.g0, problem.tolx_p, problem.tolx_q, problem.upper]
    if not all(np.isfinite(v).all() for v in (c, a, lower, scalars)):
        raise ValueError("move-limit LP has non-finite coefficients or bounds")
    if penalty is None:
        penalty = default_penalty(problem)
    upper, b = float(problem.upper), -float(problem.g0)
    if np.any(lower > upper + 1e-15):
        raise LpInfeasibleError("a move-limit box is empty (lower > upper)")

    art_tol = 1e-9 * max(1.0, abs(problem.tolx_p), abs(problem.tolx_q))
    blocks = (slice(0, ne_p), slice(ne_p, c.size))
    budgets = []
    for name, blk, tolx in zip("pq", blocks, scalars[1:3]):
        budget = float(tolx - lower[blk].sum())
        resid = max(-budget, budget - (upper - lower[blk]).sum(), 0.0)
        if resid > art_tol:
            raise LpInfeasibleError(f"{name} budget row unsatisfiable within "
                                    f"boxes (residual {resid:.3e})")
        budgets.append(budget)

    def fill(y: float) -> np.ndarray:
        key = c + y * a
        return np.concatenate([_fill(key[blk], lower[blk], upper, budget)
                               for blk, budget in zip(blocks, budgets)])

    # The fill x at y gives the line y' -> c'x + y' (a'x - b) touching L at
    # y; the row is a'x <= b.
    x_lo = fill(0.0)
    y_star, x, slack = 0.0, x_lo, 0.0
    if a @ x_lo > b:
        x_hi = fill(penalty)
        if a @ x_hi > b:
            y_star, x, slack = penalty, x_hi, float(a @ x_hi - b)
        else:
            y_lo, y_hi = 0.0, penalty
            while True:
                viol_lo, viol_hi = a @ x_lo - b, a @ x_hi - b
                y = float((c @ x_hi - c @ x_lo) / (viol_lo - viol_hi))
                if not y_lo < y < y_hi:   # rounding: no bracket left
                    break
                x_mid = fill(y)
                dual = (c + y * a) @ x_mid - y * b
                line = c @ x_lo + y * viol_lo
                scale = np.abs(c) @ np.abs(x_lo) + y * (
                    np.abs(a) @ np.abs(x_lo) + abs(b))
                # On both lines up to rounding; the combination below is
                # then within line - dual of the optimum.
                if dual >= line - 1e-13 * scale:
                    break
                if a @ x_mid > b:
                    y_lo, x_lo = y, x_mid
                else:
                    y_hi, x_hi = y, x_mid
            y_star = min(max(y, y_lo), y_hi)
            # Where the endpoints agree the combination keeps their value
            # bit for bit, so variables at a bound stay exactly there.
            theta = min(max((b - a @ x_hi) / (a @ x_lo - a @ x_hi), 0.0), 1.0)
            x = x_hi + theta * (x_lo - x_hi)

    x_p, x_q = x[:ne_p].copy(), x[ne_p:].copy()
    return ReferenceSolution(
        x_p=x_p, x_q=x_q,
        objective=float(problem.c_p @ x_p + problem.c_q @ x_q),
        feasible=slack <= 1e-9, slack_used=slack, y=y_star)
