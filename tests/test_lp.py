"""Move-limit LP solver versus brute-force vertex enumeration."""

from itertools import combinations, product

import numpy as np
import pytest

from conftest import blob_grays
from lp_fill_reference import certificate, fill_reference_solve
from lp_simplex_oracle import simplex_solve
from meip import fem, optimizer
from meip.lp import (LpInfeasibleError, MoveLimitLp, default_penalty,
                     solve_move_limit_lp)


def enumerate_vertices(prob: MoveLimitLp):
    """Independent oracle: scan all basic solutions of the original LP.

    Vertices have at most 3 free variables (2 equality rows always active,
    the inequality active or not); everything else sits at a bound.
    Returns the optimal objective, or +inf if no feasible vertex exists.
    """
    n_p, n_q = prob.c_p.size, prob.c_q.size
    n = n_p + n_q
    c = np.concatenate([prob.c_p, prob.c_q])
    a = np.concatenate([prob.a_p, prob.a_q])
    lo = np.concatenate([prob.lower_p, prob.lower_q])
    hi = np.full(n, prob.upper)
    eq_rows = [(np.concatenate([np.ones(n_p), np.zeros(n_q)]), prob.tolx_p),
               (np.concatenate([np.zeros(n_p), np.ones(n_q)]), prob.tolx_q)]
    b_ineq = -prob.g0
    best = np.inf
    for tight in (False, True):
        rows = eq_rows + ([(a, b_ineq)] if tight else [])
        k = len(rows)
        A = np.array([r[0] for r in rows])
        rhs_full = np.array([r[1] for r in rows])
        for free in combinations(range(n), k):
            M = A[:, list(free)]
            if abs(np.linalg.det(M)) < 1e-12:
                continue
            rest = [i for i in range(n) if i not in free]
            for bits in product((0, 1), repeat=len(rest)):
                x = np.empty(n)
                for i, bit in zip(rest, bits):
                    x[i] = hi[i] if bit else lo[i]
                rhs = rhs_full - A[:, rest] @ x[rest]
                x[list(free)] = np.linalg.solve(M, rhs)
                if np.any(x < lo - 1e-9) or np.any(x > hi + 1e-9):
                    continue
                if not tight and a @ x > b_ineq + 1e-9:
                    continue
                best = min(best, float(c @ x))
    return best


def random_feasible_problem(rng, n_p=3, n_q=3, force_tight=False):
    lo_p = -rng.uniform(0.2, 1.0, n_p)
    lo_q = -rng.uniform(0.2, 1.0, n_q)
    up = float(rng.uniform(0.3, 1.2))
    ref = np.concatenate([rng.uniform(lo_p, up), rng.uniform(lo_q, up)])
    a_p, a_q = rng.standard_normal(n_p), rng.standard_normal(n_q)
    margin = 0.0 if force_tight else abs(rng.standard_normal())
    g0 = -(np.concatenate([a_p, a_q]) @ ref + margin)
    return MoveLimitLp(
        c_p=rng.standard_normal(n_p), c_q=rng.standard_normal(n_q),
        a_p=a_p, a_q=a_q, g0=float(g0),
        tolx_p=float(ref[:n_p].sum()), tolx_q=float(ref[n_p:].sum()),
        lower_p=lo_p, lower_q=lo_q, upper=up)


class TestHandSolvableInstances:
    def test_two_variable_equality(self):
        # min x1 - 2 x2 subject to x1 + x2 = 0, boxes [-1, 1]^2
        prob = MoveLimitLp(
            c_p=np.array([1.0, -2.0]), c_q=np.array([0.0]),
            a_p=np.zeros(2), a_q=np.zeros(1), g0=-1.0,
            tolx_p=0.0, tolx_q=0.0,
            lower_p=np.array([-1.0, -1.0]), lower_q=np.array([0.0]),
            upper=1.0)
        sol = solve_move_limit_lp(prob)
        assert sol.objective == pytest.approx(-3.0, abs=1e-12)
        assert np.allclose(sol.x_p, [-1.0, 1.0], atol=1e-12)
        assert sol.feasible

    def test_inequality_binds(self):
        # min -x1 with x1 <= 0.5 and box [0, 1]; the filler variable keeps
        # the budget row feasible
        prob = MoveLimitLp(
            c_p=np.array([-1.0, 0.0]), c_q=np.array([0.0]),
            a_p=np.array([1.0, 0.0]), a_q=np.zeros(1), g0=-0.5,
            tolx_p=1.5, tolx_q=0.0,
            lower_p=np.zeros(2), lower_q=np.zeros(1), upper=1.0)
        sol = solve_move_limit_lp(prob)
        assert sol.x_p[0] == pytest.approx(0.5, abs=1e-12)
        assert sol.objective == pytest.approx(-0.5, abs=1e-12)


class TestOracle:
    def test_matches_vertex_enumeration(self):
        rng = np.random.default_rng(2024)
        for trial in range(200):
            prob = random_feasible_problem(rng,
                                           force_tight=(trial % 4 == 0))
            sol = solve_move_limit_lp(prob)
            ref = enumerate_vertices(prob)
            assert sol.objective == pytest.approx(ref, abs=1e-9, rel=1e-9), \
                f"trial {trial}"
            assert sol.slack_used <= 1e-9

    def test_solution_feasibility(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            prob = random_feasible_problem(rng)
            sol = solve_move_limit_lp(prob)
            x = np.concatenate([sol.x_p, sol.x_q])
            lo = np.concatenate([prob.lower_p, prob.lower_q])
            assert np.all(x >= lo - 1e-12)
            assert np.all(x <= prob.upper + 1e-12)
            assert sol.x_p.sum() == pytest.approx(prob.tolx_p, abs=1e-9)
            assert sol.x_q.sum() == pytest.approx(prob.tolx_q, abs=1e-9)
            if sol.slack_used == 0.0:
                a = np.concatenate([prob.a_p, prob.a_q])
                assert a @ x <= -prob.g0 + 1e-9


class TestOptimalityCertificate:
    def test_reduced_cost_signs(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            prob = random_feasible_problem(rng)
            sol = solve_move_limit_lp(prob)
            d, at_upper, basic = certificate(
                prob, sol.y, np.concatenate([sol.x_p, sol.x_q]))
            for j in range(d.size):
                if basic[j]:
                    continue
                if at_upper[j]:
                    assert d[j] <= 1e-9
                else:
                    assert d[j] >= -1e-9


class TestDeterminism:
    def test_bit_identical_reruns(self):
        rng = np.random.default_rng(5)
        prob = random_feasible_problem(rng)
        s1 = solve_move_limit_lp(prob)
        s2 = solve_move_limit_lp(prob)
        assert np.array_equal(s1.x_p, s2.x_p)
        assert np.array_equal(s1.x_q, s2.x_q)
        assert s1.objective == s2.objective


    def test_ties_fill_lowest_index_first(self):
        # Two tied cost levels; numpy's quicksort would fill index 6
        # before 4.  Filled variables sit exactly at the move limit
        # (-0.3 + 0.38 rounds above 0.08), unfilled ones at their lower bound.
        n = 40
        prob = MoveLimitLp(
            c_p=np.tile([0.0, 1.0], n // 2), c_q=np.zeros(1), a_p=np.zeros(n),
            a_q=np.zeros(1), g0=-1.0, tolx_p=n * -0.3 + 2.5 * 0.38,
            tolx_q=-0.3, lower_p=np.full(n, -0.3), lower_q=np.full(1, -0.3),
            upper=0.08)
        sol = solve_move_limit_lp(prob)
        assert np.all(sol.x_p[[0, 2]] == 0.08)
        assert sol.x_p[4] == pytest.approx(-0.3 + 0.19, abs=1e-12)
        rest = np.delete(sol.x_p, [0, 2, 4])
        assert np.all(rest == -0.3)
        assert sol.x_q[0] == -0.3


class TestInfeasibleAndPenalty:
    def test_equality_row_infeasible(self):
        prob = MoveLimitLp(
            c_p=np.zeros(2), c_q=np.zeros(2),
            a_p=np.zeros(2), a_q=np.zeros(2), g0=-1.0,
            tolx_p=10.0,  # beyond 2 * upper
            tolx_q=0.0,
            lower_p=-np.ones(2), lower_q=-np.ones(2), upper=1.0)
        with pytest.raises(LpInfeasibleError, match="p budget row"):
            solve_move_limit_lp(prob)

    def test_violated_constraint_uses_slack(self):
        # G-row unreachable within boxes: minimize c'x + penalty*s instead
        rng = np.random.default_rng(13)
        prob = MoveLimitLp(
            c_p=rng.standard_normal(2), c_q=rng.standard_normal(2),
            a_p=np.full(2, 0.1), a_q=np.full(2, 0.1), g0=5.0,
            tolx_p=0.0, tolx_q=0.0,
            lower_p=-np.full(2, 0.5), lower_q=-np.full(2, 0.5), upper=0.5)
        sol = solve_move_limit_lp(prob)
        assert not sol.feasible
        x = np.concatenate([sol.x_p, sol.x_q])
        a = np.concatenate([prob.a_p, prob.a_q])
        assert sol.slack_used == pytest.approx(prob.g0 + a @ x, abs=1e-9)
        # the solution minimizes the penalized combination over the
        # equality/box polytope (enumeration with the shifted cost)
        pen = default_penalty(prob)
        shifted = MoveLimitLp(
            c_p=prob.c_p + pen * prob.a_p, c_q=prob.c_q + pen * prob.a_q,
            a_p=np.zeros(2), a_q=np.zeros(2), g0=-1e9,
            tolx_p=0.0, tolx_q=0.0,
            lower_p=prob.lower_p, lower_q=prob.lower_q, upper=prob.upper)
        ref = enumerate_vertices(shifted)
        got = float(prob.c_p @ sol.x_p + prob.c_q @ sol.x_q
                    + pen * (prob.a_p @ sol.x_p + prob.a_q @ sol.x_q))
        assert got == pytest.approx(ref, abs=1e-8, rel=1e-9)

    def test_empty_box(self):
        prob = MoveLimitLp(
            c_p=np.zeros(1), c_q=np.zeros(1),
            a_p=np.zeros(1), a_q=np.zeros(1), g0=-1.0,
            tolx_p=0.0, tolx_q=0.0,
            lower_p=np.array([0.5]), lower_q=np.array([0.0]), upper=0.1)
        with pytest.raises(LpInfeasibleError):
            solve_move_limit_lp(prob)


# ---------------------------------------------------------------------------
# differential tests against the simplex the structured solver replaced


def _penalized(prob: MoveLimitLp, sol) -> float:
    return sol.objective + default_penalty(prob) * sol.slack_used


def _assert_feasible(prob: MoveLimitLp, sol):
    """Boxes and budgets hold; the G row holds up to the reported slack."""
    for x, lo, tolx in ((sol.x_p, prob.lower_p, prob.tolx_p),
                        (sol.x_q, prob.lower_q, prob.tolx_q)):
        assert np.all(x >= lo - 1e-9)
        assert np.all(x <= prob.upper + 1e-9)
        assert x.sum() == pytest.approx(tolx, abs=1e-9)
    row = prob.a_p @ sol.x_p + prob.a_q @ sol.x_q
    assert row - sol.slack_used <= -prob.g0 + 1e-9


def _lp(c_p, c_q, a_p, a_q, g0, lo_p, lo_q, up, fill_p=0.5, fill_q=0.5):
    """Instance whose budgets sit at ``fill`` of the way from sum(lower)."""
    lo_p, lo_q = np.asarray(lo_p, float), np.asarray(lo_q, float)
    tolx_p = lo_p.sum() + fill_p * (up - lo_p).sum()
    tolx_q = lo_q.sum() + fill_q * (up - lo_q).sum()
    return MoveLimitLp(c_p=np.asarray(c_p, float), c_q=np.asarray(c_q, float),
                       a_p=np.asarray(a_p, float), a_q=np.asarray(a_q, float),
                       g0=float(g0), tolx_p=float(tolx_p),
                       tolx_q=float(tolx_q), lower_p=lo_p, lower_q=lo_q,
                       upper=float(up))


def _shrink_row(prob: MoveLimitLp):
    """Scale the G row to |a| < 1, where the simplex oracle is exact.

    The simplex prices the budget-row artificials with the same big-M as
    the violation variable, so when the row is violated and some |a_j| >= 1
    it prefers to break a budget row and reports it unsatisfiable.
    """
    top = max(np.abs(prob.a_p).max(), np.abs(prob.a_q).max())
    prob.a_p = prob.a_p * (0.9 / top)
    prob.a_q = prob.a_q * (0.9 / top)


def degenerate_problems(rng):
    n = 6
    lo = -rng.uniform(0.2, 1.0, n)
    up = 0.5
    c, a = rng.standard_normal(n), rng.standard_normal(n)
    a *= 0.9 / np.abs(a).max()
    tied = np.repeat(rng.standard_normal(2), 3)
    yield "tied costs", _lp(tied, tied, a, a, -0.1, lo, lo, up)
    yield "tied costs and rows", _lp(tied, tied, tied, tied, 0.2, lo, lo, up)
    yield "a = 0, row met", _lp(c, c, np.zeros(n), np.zeros(n), -1.0,
                                lo, lo, up)
    yield "a = 0, row violated", _lp(c, c, np.zeros(n), np.zeros(n), 1.0,
                                     lo, lo, up)
    yield "budgets at sum(lower)", _lp(c, c, a, a, 0.3, lo, lo, up,
                                       fill_p=0.0, fill_q=0.0)
    yield "budgets at sum(upper)", _lp(c, c, a, a, -0.3, lo, lo, up,
                                       fill_p=1.0, fill_q=1.0)
    yield "mixed budget extremes", _lp(c, -c, a, a, 0.0, lo, lo, up,
                                       fill_p=0.0, fill_q=1.0)
    yield "slack forced", _lp(c, c, np.full(n, 0.1), np.full(n, 0.1), 5.0,
                              lo, lo, up)
    free = solve_move_limit_lp(_lp(c, c, a, a, -1e9, lo, lo, up))
    row0 = a @ free.x_p + a @ free.x_q
    yield "row tight at y = 0", _lp(c, c, a, a, -row0, lo, lo, up)
    yield "row barely violated at y = 0", _lp(c, c, a, a, 1e-7 - row0,
                                              lo, lo, up)
    yield "one-variable blocks", _lp(c[:1], c[1:2], a[:1], a[1:2], 0.0,
                                     lo[:1], lo[1:2], up, 0.3, 0.7)
    yield "one-variable blocks, row violated", _lp(
        [1.0], [2.0], [0.5], [0.5], 5.0, [-0.5], [-0.5], up, 0.3, 0.7)


def optimizer_problems(monkeypatch):
    """LPs that a short real optimize run hands to the solver."""
    captured = []

    def record(prob, *args, **kwargs):
        captured.append(prob)
        return solve_move_limit_lp(prob, *args, **kwargs)

    monkeypatch.setattr(optimizer, "solve_move_limit_lp", record)
    mesh = fem.build_mesh(4, 4)
    g1, g0 = blob_grays(mesh, 12, np.random.default_rng(31))
    optimizer.optimize(g1, g0, mesh,
                       optimizer.OptimizerConfig(tolp=0.15, tolq=0.15,
                                                 max_iters=6))
    return captured


class TestAgainstSimplex:
    def test_random_instances(self):
        rng = np.random.default_rng(301)
        for trial in range(120):
            n_p, n_q = rng.integers(1, 9, size=2)
            prob = random_feasible_problem(rng, n_p=n_p, n_q=n_q,
                                           force_tight=(trial % 3 == 0))
            if trial % 5 == 0:  # a row the boxes may not meet
                prob.g0 = abs(prob.g0) + 3.0
                _shrink_row(prob)
            sol, ref = solve_move_limit_lp(prob), simplex_solve(prob)
            assert _penalized(prob, sol) == pytest.approx(
                _penalized(prob, ref), rel=1e-9, abs=1e-9), f"trial {trial}"
            assert sol.slack_used == pytest.approx(ref.slack_used, abs=1e-9)
            _assert_feasible(prob, sol)

    def test_degenerate_instances(self):
        rng = np.random.default_rng(302)
        for name, prob in degenerate_problems(rng):
            sol, ref = solve_move_limit_lp(prob), simplex_solve(prob)
            assert _penalized(prob, sol) == pytest.approx(
                _penalized(prob, ref), rel=1e-9, abs=1e-9), name
            assert sol.slack_used == pytest.approx(ref.slack_used,
                                                   abs=1e-9), name
            _assert_feasible(prob, sol)

    def test_violated_row_with_large_coefficients(self):
        # Outside the simplex's domain (see _shrink_row): the penalized
        # optimum is the sort-and-fill of c + M a, checked by enumeration.
        rng = np.random.default_rng(303)
        for trial in range(20):
            prob = random_feasible_problem(rng)
            prob.a_p = prob.a_p * 3.0
            prob.a_q = prob.a_q * 3.0
            prob.g0 = 50.0
            sol = solve_move_limit_lp(prob)
            pen = default_penalty(prob)
            shifted = MoveLimitLp(
                c_p=prob.c_p + pen * prob.a_p, c_q=prob.c_q + pen * prob.a_q,
                a_p=np.zeros_like(prob.a_p), a_q=np.zeros_like(prob.a_q),
                g0=-1e9, tolx_p=prob.tolx_p, tolx_q=prob.tolx_q,
                lower_p=prob.lower_p, lower_q=prob.lower_q,
                upper=prob.upper)
            got = _penalized(prob, sol) - pen * prob.g0
            assert got == pytest.approx(enumerate_vertices(shifted),
                                        rel=1e-9, abs=1e-8), f"trial {trial}"
            assert not sol.feasible
            _assert_feasible(prob, sol)

    def test_optimizer_instances(self, monkeypatch):
        problems = optimizer_problems(monkeypatch)
        assert len(problems) >= 3
        for k, prob in enumerate(problems):
            sol, ref = solve_move_limit_lp(prob), simplex_solve(prob)
            got, want = _penalized(prob, sol), _penalized(prob, ref)
            scale = max(1.0, abs(want))
            assert got <= want + 1e-9 * scale, f"LP {k}"
            _assert_feasible(prob, sol)


def fill_reference_problems(rng):
    """Random LPs of every shape: unequal blocks and blocks of size 0 and 1,
    tied costs and rows, and a G row that is inactive, tight or violated."""
    sizes = ((0, 3), (4, 0), (1, 1), (1, 6), (7, 2), (10, 13))
    for trial in range(300):
        n_p, n_q = sizes[trial % len(sizes)]
        n = n_p + n_q
        lo = -rng.uniform(0.2, 1.0, n)
        up = float(rng.uniform(0.3, 1.2))
        if trial % 2:
            c = rng.integers(-2, 3, n).astype(float)
            a = rng.integers(-1, 2, n).astype(float)
        else:
            c, a = rng.standard_normal(n), rng.standard_normal(n)
        ref = rng.uniform(lo, up)
        g0 = (-(a @ ref), -1e3, 1e3)[trial % 3]
        yield MoveLimitLp(c_p=c[:n_p], c_q=c[n_p:], a_p=a[:n_p], a_q=a[n_p:],
                          g0=float(g0), tolx_p=float(ref[:n_p].sum()),
                          tolx_q=float(ref[n_p:].sum()), lower_p=lo[:n_p],
                          lower_q=lo[n_p:], upper=up)


def _assert_bit_equal(prob, label):
    sol, ref = solve_move_limit_lp(prob), fill_reference_solve(prob)
    assert sol.x_p.tobytes() == ref.x_p.tobytes(), label
    assert sol.x_q.tobytes() == ref.x_q.tobytes(), label
    assert sol.slack_used == ref.slack_used, label
    assert sol.objective == ref.objective, label
    assert sol.y == ref.y, label
    return sol


class TestAgainstFillReference:
    """The one-pass fill of both blocks against one fill per block."""

    def test_random_instances(self):
        penalty_y = inactive = tight = 0
        rng = np.random.default_rng(304)
        for k, prob in enumerate(fill_reference_problems(rng)):
            sol = _assert_bit_equal(prob, f"trial {k}")
            if sol.slack_used > 0:
                penalty_y += 1
            elif sol.y == 0:
                inactive += 1
            else:
                tight += 1
        assert min(penalty_y, inactive, tight) >= 20, (penalty_y, inactive,
                                                       tight)

    def test_degenerate_instances(self):
        for name, prob in degenerate_problems(np.random.default_rng(302)):
            _assert_bit_equal(prob, name)

    def test_optimizer_instances(self, monkeypatch):
        problems = optimizer_problems(monkeypatch)
        assert len(problems) >= 3
        for k, prob in enumerate(problems):
            _assert_bit_equal(prob, f"LP {k}")


class TestNonFiniteInput:
    @pytest.mark.parametrize("field, value", [
        ("c_p", np.nan), ("c_q", np.inf), ("a_p", -np.inf), ("a_q", np.nan),
        ("lower_p", np.nan), ("lower_q", -np.inf), ("g0", np.nan),
        ("tolx_p", np.inf), ("tolx_q", np.nan), ("upper", np.inf)])
    def test_rejected(self, field, value):
        prob = random_feasible_problem(np.random.default_rng(17))
        old = getattr(prob, field)
        if np.ndim(old):
            new = old.copy()
            new[1] = value
        else:
            new = value
        setattr(prob, field, new)
        with pytest.raises(ValueError, match="non-finite"):
            solve_move_limit_lp(prob)
