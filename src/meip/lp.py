"""Move-limit linear program for one sequential-linearization step.

The problem has a fixed tiny row structure:

    min  c_p' x_p + c_q' x_q
    s.t. a_p' x_p + a_q' x_q <= -G0        (linearized constraint row)
         sum(x_p) = tolx_p                 (p budget row)
         sum(x_q) = tolx_q                 (q budget row)
         lower <= x <= dx_max              (move limits, per variable)

The constraint row is priced by a multiplier y in [0, M] (Lagrangian
relaxation; Everett 1963, Geoffrion 1974).  For fixed y each budget row is
a continuous knapsack (Dantzig 1957), solved by sort-and-fill: every
variable starts at its lower bound and the budget goes out in ascending
order of c + y a.  The dual L(y) is concave and piecewise linear with
slope a'x(y) + G0; a breakpoint search keeps one fill that violates the
row and one that meets it, probes where their two lines meet, and stops
when the probe lies on both.  The optimum is then the convex combination
of the two fills that makes the row tight.

M is the big-M weight of a violation variable on the constraint row.  If
the fill at y = M still violates the row, it minimizes c'x + M * violation
and is returned with that violation as ``slack_used``: a design that
violates the constraint (G0 > 0) still steps to drive G down as far as the
move limits allow.  Sorting is stable, so equal costs fill lowest index
first and the solver is deterministic.
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
    a_p: np.ndarray      # constraint gradient w.r.t. p increments
    a_q: np.ndarray      # constraint gradient w.r.t. q increments
    g0: float            # current constraint value; row is a'x <= -g0
    tolx_p: float        # required sum of p increments
    tolx_q: float        # required sum of q increments
    lower_p: np.ndarray  # per-variable lower bounds (<= 0 at feasible point)
    lower_q: np.ndarray
    upper: float         # move limit, shared upper bound


@dataclass
class LpSolution:
    """Optimal increments plus the multiplier that priced the G row."""

    x_p: np.ndarray
    x_q: np.ndarray
    objective: float
    feasible: bool        # constraint row met without violation slack
    slack_used: float     # violation absorbed on the constraint row
    y: float = 0.0        # multiplier of the constraint row, in [0, M]


def default_penalty(problem: MoveLimitLp) -> float:
    """Big-M weight for the constraint-row violation variable."""
    cmax = 0.0
    if problem.c_p.size:
        cmax += float(np.abs(problem.c_p).max())
    if problem.c_q.size:
        cmax += float(np.abs(problem.c_q).max())
    return 1e3 * (cmax + 1.0)


def solve_move_limit_lp(problem: MoveLimitLp) -> LpSolution:
    """Solve the move-limit LP; deterministic for identical inputs."""
    ne_p = problem.c_p.size
    c = np.concatenate([problem.c_p, problem.c_q], dtype=np.float64)
    a = np.concatenate([problem.a_p, problem.a_q], dtype=np.float64)
    lower = np.concatenate([problem.lower_p, problem.lower_q],
                           dtype=np.float64)
    scalars = (problem.g0, problem.tolx_p, problem.tolx_q, problem.upper)
    if not (np.isfinite(c).all() and np.isfinite(a).all()
            and np.isfinite(lower).all() and np.isfinite(scalars).all()):
        raise ValueError("move-limit LP has non-finite coefficients or bounds")
    penalty = default_penalty(problem)
    upper, b = float(problem.upper), -float(problem.g0)
    if (lower > upper + 1e-15).any():
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
    block_budget = np.repeat(budgets, (ne_p, c.size - ne_p))
    order = np.empty(c.size, dtype=np.intp)
    before = np.zeros(c.size)

    def fill(y: float) -> np.ndarray:
        # Continuous knapsack per block: raise from ``lower`` in ascending
        # order of c + y a, both blocks in one pass over shared buffers.
        key = c + y * a
        order[:ne_p] = key[:ne_p].argsort(kind="stable")
        order[ne_p:] = key[ne_p:].argsort(kind="stable") + ne_p
        lo = lower[order]
        cap = upper - lo
        for blk in blocks:   # budget already placed before each entry
            cap[blk][:-1].cumsum(out=before[blk][1:])
        take = np.minimum(np.maximum(block_budget - before, 0.0), cap)
        x = np.empty_like(lower)
        x[order] = np.where(take >= cap, upper, lo + take)
        return x

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
    return LpSolution(
        x_p=x_p, x_q=x_q,
        objective=float(problem.c_p @ x_p + problem.c_q @ x_q),
        feasible=slack <= 1e-9, slack_used=slack, y=y_star)
