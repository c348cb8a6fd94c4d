"""Move-limit linear program for one sequential-linearization step.

The problem has a fixed tiny row structure:

    min  c_p' x_p + c_q' x_q
    s.t. sum(x_p) = tolx_p                 (p budget row)
         sum(x_q) = tolx_q                 (q budget row)
         lower <= x <= upper               (move limits, per variable)

The two blocks share no row, so the LP is two continuous knapsacks
(Dantzig 1957), each solved by sort-and-fill: every variable starts at its
lower bound and the budget goes out in ascending order of c.  Sorting is
stable, so equal costs fill lowest index first and the solver is
deterministic.

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


def _fill(c: np.ndarray, lower: np.ndarray, upper: float,
          budget: float) -> np.ndarray:
    """One block's continuous knapsack: raise each entry from ``lower``
    toward ``upper`` in ascending order of ``c`` until ``budget`` is out."""
    order = c.argsort(kind="stable")
    lo = lower[order]
    cap = upper - lo
    before = np.zeros_like(cap)   # budget already placed before each entry
    cap[:-1].cumsum(out=before[1:])
    take = np.minimum(np.maximum(budget - before, 0.0), cap)
    x = np.empty_like(lower)
    x[order] = np.where(take >= cap, upper, lo + take)
    return x


def solve_move_limit_lp(problem: MoveLimitLp) -> LpSolution:
    """Solve the move-limit LP; deterministic for identical inputs."""
    ne_p = problem.c_p.size
    c = np.concatenate([problem.c_p, problem.c_q], dtype=np.float64)
    lower = np.concatenate([problem.lower_p, problem.lower_q],
                           dtype=np.float64)
    scalars = (problem.tolx_p, problem.tolx_q, problem.upper)
    if not all(np.isfinite(v).all() for v in (c, lower, scalars)):
        raise ValueError("move-limit LP has non-finite coefficients or bounds")
    upper = float(problem.upper)
    if (lower > upper + 1e-15).any():
        raise LpInfeasibleError("a move-limit box is empty (lower > upper)")

    art_tol = 1e-9 * max(1.0, abs(problem.tolx_p), abs(problem.tolx_q))
    blocks = (slice(0, ne_p), slice(ne_p, c.size))
    x = []
    for name, blk, tolx in zip("pq", blocks, scalars[:2]):
        budget = float(tolx - lower[blk].sum())
        resid = max(-budget, budget - (upper - lower[blk]).sum(), 0.0)
        if resid > art_tol:
            raise LpInfeasibleError(f"{name} budget row unsatisfiable within "
                                    f"boxes (residual {resid:.3e})")
        x.append(_fill(c[blk], lower[blk], upper, budget))

    x_p, x_q = x
    return LpSolution(x_p=x_p, x_q=x_q,
                      objective=float(problem.c_p @ x_p + problem.c_q @ x_q))
