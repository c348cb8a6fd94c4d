"""Move-limit linear program for one sequential-linearization step.

The problem has a fixed tiny row structure:

    min  c_p' x_p + c_q' x_q
    s.t. sum(x_p) = tolx_p                 (p budget row)
         sum(x_q) = tolx_q                 (q budget row)
         lower <= x <= upper               (move limits, per variable)

The two blocks share no row, so the LP is two continuous knapsacks
(Dantzig 1957), each solved by sort-and-fill: every variable starts at its
lower bound and the budget goes out in ascending order of c.  Both blocks
are filled in one pass over shared buffers.  Sorting is stable, so equal
costs fill lowest index first and the solver is deterministic.

The linearized mutual-energy constraint G = u'Kv <= 0 of the paper's
model is not a row here: the optimizer reports G but does not enforce it
(see ``meip.optimizer``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["MoveLimitLp", "LpSolution", "LpInfeasibleError",
           "solve_move_limit_lp"]


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


@dataclass
class LpSolution:
    """Optimal increments and their objective."""

    x_p: np.ndarray
    x_q: np.ndarray
    objective: float
    slack_used: float = 0.0   # no row can be violated: always 0


def solve_move_limit_lp(problem: MoveLimitLp) -> LpSolution:
    """Solve the move-limit LP; deterministic for identical inputs."""
    ne_p = problem.c_p.size
    c = np.concatenate([problem.c_p, problem.c_q], dtype=np.float64)
    lower = np.concatenate([problem.lower_p, problem.lower_q],
                           dtype=np.float64)
    scalars = (problem.tolx_p, problem.tolx_q, problem.upper)
    if not (np.isfinite(c).all() and np.isfinite(lower).all()
            and np.isfinite(scalars).all()):
        raise ValueError("move-limit LP has non-finite coefficients or bounds")
    upper = float(problem.upper)
    if (lower > upper + 1e-15).any():
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

    # Raise each block from ``lower`` in ascending order of c.
    order = np.empty(c.size, dtype=np.intp)
    order[:ne_p] = c[:ne_p].argsort(kind="stable")
    order[ne_p:] = c[ne_p:].argsort(kind="stable") + ne_p
    lo = lower[order]
    cap = upper - lo
    before = np.zeros(c.size)
    for blk in blocks:   # budget already placed before each entry
        cap[blk][:-1].cumsum(out=before[blk][1:])
    take = np.minimum(np.maximum(
        np.repeat(budgets, (ne_p, c.size - ne_p)) - before, 0.0), cap)
    x = np.empty_like(lower)
    x[order] = np.where(take >= cap, upper, lo + take)

    x_p, x_q = x[:ne_p], x[ne_p:]
    return LpSolution(x_p=x_p, x_q=x_q,
                      objective=float(problem.c_p @ x_p + problem.c_q @ x_q))
