"""Reference solver for the move-limit LP: a bounded-variable simplex.

This is the general-purpose solver that ``meip.lp.solve_move_limit_lp``
replaced.  It works on the LP as stated, with no use of its structure:

    min  c_p' x_p + c_q' x_q
    s.t. sum(x_p) = tolx_p,  sum(x_q) = tolx_q
         lower <= x <= dx_max

revised primal simplex with an explicit 2x2 basis inverse, big-M
artificials on the budget rows and Bland's rule (lowest index enters,
lowest index leaves among ties).  It is slow -- one ``np.linalg.inv``
per pivot -- and kept only as a differential oracle for the tests.  Its
reduced-cost tolerance scales with M, so it can stop about 1e-8 relative
above the optimum.
"""

from __future__ import annotations

import numpy as np

from meip.lp import LpInfeasibleError, LpSolution, MoveLimitLp

_AT_LOWER = 0
_AT_UPPER = 1


def simplex_solve(problem: MoveLimitLp, max_pivots: int = 200_000
                  ) -> LpSolution:
    """Solve the move-limit LP; deterministic for identical inputs."""
    ne_p, ne_q = problem.c_p.size, problem.c_q.size
    n = ne_p + ne_q
    penalty = 1e3 * (np.abs(problem.c_p).max(initial=0.0)
                     + np.abs(problem.c_q).max(initial=0.0) + 1.0)

    # Columns: [x_p | x_q | r1 artificial | r2 artificial]
    ia1, ia2 = n, n + 1
    ncols = n + 2

    A = np.zeros((2, ncols))
    A[0, :ne_p] = 1.0
    A[1, ne_p:n] = 1.0

    b = np.array([problem.tolx_p, problem.tolx_q])

    c = np.zeros(ncols)
    c[:ne_p] = problem.c_p
    c[ne_p:n] = problem.c_q
    c[ia1] = penalty
    c[ia2] = penalty

    lower = np.zeros(ncols)
    lower[:ne_p] = problem.lower_p
    lower[ne_p:n] = problem.lower_q
    upper = np.full(ncols, np.inf)
    upper[:n] = problem.upper
    if np.any(lower[:n] > upper[:n] + 1e-15):
        raise LpInfeasibleError("a move-limit box is empty (lower > upper)")

    # Start: every structural variable nonbasic at its lower bound; each
    # row's artificial basic, signed so that its value is nonnegative.
    status = np.full(ncols, _AT_LOWER, dtype=np.int8)
    x = lower.copy()
    resid = b - A[:, :n] @ x[:n]
    basis = np.array([ia1, ia2], dtype=np.int64)
    A[0, ia1] = 1.0 if resid[0] >= 0 else -1.0
    A[1, ia2] = 1.0 if resid[1] >= 0 else -1.0

    binv = np.linalg.inv(A[:, basis])
    in_basis = np.zeros(ncols, dtype=bool)
    in_basis[basis] = True
    x[basis] = np.abs(resid)

    scale = max(1.0, float(np.abs(c).max()))
    tol_d = 1e-10 * scale   # reduced-cost optimality threshold
    tol_a = 1e-11           # pivot magnitude threshold

    for _ in range(max_pivots):
        y = c[basis] @ binv
        d = c - y @ A
        enter_mask = (~in_basis) & (
            ((status == _AT_LOWER) & (d < -tol_d))
            | ((status == _AT_UPPER) & (d > tol_d)))
        enter_idx = np.flatnonzero(enter_mask)
        if enter_idx.size == 0:
            break
        j = int(enter_idx[0])  # Bland: lowest index enters
        delta = 1.0 if status[j] == _AT_LOWER else -1.0
        alpha = binv @ A[:, j]

        # Ratio test: keep every basic variable inside its bounds while the
        # entering variable moves by t >= 0 in direction delta.
        step = delta * alpha
        limits = np.full(2, np.inf)
        for i in range(2):
            bi = basis[i]
            if step[i] > tol_a:
                limits[i] = (x[bi] - lower[bi]) / step[i]
            elif step[i] < -tol_a:
                if np.isfinite(upper[bi]):
                    limits[i] = (x[bi] - upper[bi]) / step[i]
        limits = np.maximum(limits, 0.0)
        t_flip = upper[j] - lower[j]
        t_basic = limits.min()
        t = min(t_flip, t_basic)
        if not np.isfinite(t):
            raise RuntimeError("move-limit LP unbounded: finite boxes violated")

        x[basis] -= t * step
        if t_flip <= t_basic:
            # Entering variable runs bound to bound; basis unchanged.
            status[j] = _AT_UPPER if delta > 0 else _AT_LOWER
            x[j] = upper[j] if delta > 0 else lower[j]
            continue

        # Bland tie-break on leaving: lowest variable index among blockers.
        blocking = np.flatnonzero(limits <= t_basic + 1e-15)
        leave_row = int(blocking[np.argmin(basis[blocking])])
        out = int(basis[leave_row])
        x[out] = lower[out] if step[leave_row] > 0 else upper[out]
        status[out] = _AT_LOWER if step[leave_row] > 0 else _AT_UPPER
        x[j] = (lower[j] + t) if delta > 0 else (upper[j] - t)
        basis[leave_row] = j
        in_basis[out] = False
        in_basis[j] = True
        binv = np.linalg.inv(A[:, basis])
    else:
        raise RuntimeError("move-limit LP did not converge "
                           f"within {max_pivots} pivots")

    # Refresh basic values from the final basis for full accuracy.
    nb = ~in_basis
    x[basis] = binv @ (b - A[:, nb] @ x[nb])

    art = np.abs(x[[ia1, ia2]])
    art_tol = 1e-9 * max(1.0, abs(problem.tolx_p), abs(problem.tolx_q))
    if art[0] > art_tol:
        raise LpInfeasibleError(
            f"p budget row unsatisfiable within boxes (residual {art[0]:.3e})")
    if art[1] > art_tol:
        raise LpInfeasibleError(
            f"q budget row unsatisfiable within boxes (residual {art[1]:.3e})")

    x_p = x[:ne_p].copy()
    x_q = x[ne_p:n].copy()
    objective = float(problem.c_p @ x_p + problem.c_q @ x_q)
    return LpSolution(x_p=x_p, x_q=x_q, objective=objective)
