"""Move-limit LP solver versus brute-force vertex enumeration."""

from itertools import combinations, product

import numpy as np
import pytest

from conftest import blob_grays
from lp_fill_reference import certificate, fill_reference_solve
from lp_simplex_oracle import simplex_solve
from meip import fem, optimizer
from meip.lp import LpInfeasibleError, MoveLimitLp, solve_move_limit_lp


def enumerate_vertices(prob: MoveLimitLp):
    """Independent oracle: scan all basic solutions of the original LP.

    Vertices have at most 2 free variables (the 2 equality rows);
    everything else sits at a bound.  Returns the optimal objective, or
    +inf if no feasible vertex exists.
    """
    n_p, n_q = prob.c_p.size, prob.c_q.size
    n = n_p + n_q
    c = np.concatenate([prob.c_p, prob.c_q])
    lo = np.concatenate([prob.lower_p, prob.lower_q])
    hi = np.full(n, prob.upper)
    A = np.array([np.concatenate([np.ones(n_p), np.zeros(n_q)]),
                  np.concatenate([np.zeros(n_p), np.ones(n_q)])])
    rhs_full = np.array([prob.tolx_p, prob.tolx_q])
    best = np.inf
    for free in combinations(range(n), 2):
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
            best = min(best, float(c @ x))
    return best


def random_feasible_problem(rng, n_p=3, n_q=3):
    lo_p = -rng.uniform(0.2, 1.0, n_p)
    lo_q = -rng.uniform(0.2, 1.0, n_q)
    up = float(rng.uniform(0.3, 1.2))
    ref = np.concatenate([rng.uniform(lo_p, up), rng.uniform(lo_q, up)])
    return MoveLimitLp(
        c_p=rng.standard_normal(n_p), c_q=rng.standard_normal(n_q),
        tolx_p=float(ref[:n_p].sum()), tolx_q=float(ref[n_p:].sum()),
        lower_p=lo_p, lower_q=lo_q, upper=up)


class TestHandSolvableInstances:
    def test_two_variable_equality(self):
        # min x1 - 2 x2 subject to x1 + x2 = 0, boxes [-1, 1]^2
        prob = MoveLimitLp(
            c_p=np.array([1.0, -2.0]), c_q=np.array([0.0]),
            tolx_p=0.0, tolx_q=0.0,
            lower_p=np.array([-1.0, -1.0]), lower_q=np.array([0.0]),
            upper=1.0)
        sol = solve_move_limit_lp(prob)
        assert sol.objective == pytest.approx(-3.0, abs=1e-12)
        assert np.allclose(sol.x_p, [-1.0, 1.0], atol=1e-12)


class TestOracle:
    def test_matches_vertex_enumeration(self):
        rng = np.random.default_rng(2024)
        for trial in range(200):
            prob = random_feasible_problem(rng)
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


class TestOptimalityCertificate:
    def test_reduced_cost_signs(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            prob = random_feasible_problem(rng)
            sol = solve_move_limit_lp(prob)
            d, at_upper, basic = certificate(
                prob, np.concatenate([sol.x_p, sol.x_q]))
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
            c_p=np.tile([0.0, 1.0], n // 2), c_q=np.zeros(1),
            tolx_p=n * -0.3 + 2.5 * 0.38, tolx_q=-0.3,
            lower_p=np.full(n, -0.3), lower_q=np.full(1, -0.3), upper=0.08)
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
            tolx_p=10.0,  # beyond 2 * upper
            tolx_q=0.0,
            lower_p=-np.ones(2), lower_q=-np.ones(2), upper=1.0)
        with pytest.raises(LpInfeasibleError, match="p budget row"):
            solve_move_limit_lp(prob)

    def test_empty_box(self):
        prob = MoveLimitLp(
            c_p=np.zeros(1), c_q=np.zeros(1),
            tolx_p=0.0, tolx_q=0.0,
            lower_p=np.array([0.5]), lower_q=np.array([0.0]), upper=0.1)
        with pytest.raises(LpInfeasibleError):
            solve_move_limit_lp(prob)


# ---------------------------------------------------------------------------
# differential tests against the simplex the structured solver replaced


def _assert_feasible(prob: MoveLimitLp, sol):
    """Boxes and budgets hold."""
    for x, lo, tolx in ((sol.x_p, prob.lower_p, prob.tolx_p),
                        (sol.x_q, prob.lower_q, prob.tolx_q)):
        assert np.all(x >= lo - 1e-9)
        assert np.all(x <= prob.upper + 1e-9)
        assert x.sum() == pytest.approx(tolx, abs=1e-9)


def _lp(c_p, c_q, lo_p, lo_q, up, fill_p=0.5, fill_q=0.5):
    """Instance whose budgets sit at ``fill`` of the way from sum(lower)."""
    lo_p, lo_q = np.asarray(lo_p, float), np.asarray(lo_q, float)
    tolx_p = lo_p.sum() + fill_p * (up - lo_p).sum()
    tolx_q = lo_q.sum() + fill_q * (up - lo_q).sum()
    return MoveLimitLp(c_p=np.asarray(c_p, float), c_q=np.asarray(c_q, float),
                       tolx_p=float(tolx_p), tolx_q=float(tolx_q),
                       lower_p=lo_p, lower_q=lo_q, upper=float(up))


def degenerate_problems(rng):
    n = 6
    lo = -rng.uniform(0.2, 1.0, n)
    up = 0.5
    c = rng.standard_normal(n)
    tied = np.repeat(rng.standard_normal(2), 3)
    yield "tied costs", _lp(tied, tied, lo, lo, up)
    yield "all costs zero", _lp(np.zeros(n), np.zeros(n), lo, lo, up)
    yield "budgets at sum(lower)", _lp(c, c, lo, lo, up,
                                       fill_p=0.0, fill_q=0.0)
    yield "budgets at sum(upper)", _lp(c, c, lo, lo, up,
                                       fill_p=1.0, fill_q=1.0)
    yield "mixed budget extremes", _lp(c, -c, lo, lo, up,
                                       fill_p=0.0, fill_q=1.0)
    pinned = lo.copy()
    pinned[::2] = up
    yield "boxes of zero width", _lp(c, c, pinned, pinned, up)
    yield "one-variable blocks", _lp(c[:1], c[1:2], lo[:1], lo[1:2], up,
                                     0.3, 0.7)
    yield "one-variable blocks, budget extremes", _lp(
        [1.0], [2.0], [-0.5], [-0.5], up, 0.0, 1.0)


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
            prob = random_feasible_problem(rng, n_p=n_p, n_q=n_q)
            sol, ref = solve_move_limit_lp(prob), simplex_solve(prob)
            assert sol.objective == pytest.approx(
                ref.objective, rel=1e-9, abs=1e-9), f"trial {trial}"
            _assert_feasible(prob, sol)

    def test_degenerate_instances(self):
        rng = np.random.default_rng(302)
        for name, prob in degenerate_problems(rng):
            sol, ref = solve_move_limit_lp(prob), simplex_solve(prob)
            assert sol.objective == pytest.approx(
                ref.objective, rel=1e-9, abs=1e-9), name
            _assert_feasible(prob, sol)

    def test_optimizer_instances(self, monkeypatch):
        problems = optimizer_problems(monkeypatch)
        assert len(problems) >= 3
        for k, prob in enumerate(problems):
            sol, ref = solve_move_limit_lp(prob), simplex_solve(prob)
            scale = max(1.0, abs(ref.objective))
            assert sol.objective <= ref.objective + 1e-9 * scale, f"LP {k}"
            _assert_feasible(prob, sol)


def fill_reference_problems(rng):
    """Random LPs of every shape: unequal blocks, blocks of size 0 and 1,
    and tied costs."""
    sizes = ((0, 3), (4, 0), (1, 1), (1, 6), (7, 2), (10, 13))
    for trial in range(300):
        n_p, n_q = sizes[trial % len(sizes)]
        n = n_p + n_q
        lo = -rng.uniform(0.2, 1.0, n)
        up = float(rng.uniform(0.3, 1.2))
        if trial % 2:
            c = rng.integers(-2, 3, n).astype(float)
        else:
            c = rng.standard_normal(n)
        ref = rng.uniform(lo, up)
        yield MoveLimitLp(c_p=c[:n_p], c_q=c[n_p:],
                          tolx_p=float(ref[:n_p].sum()),
                          tolx_q=float(ref[n_p:].sum()), lower_p=lo[:n_p],
                          lower_q=lo[n_p:], upper=up)


def _assert_bit_equal(prob, label):
    sol, ref = solve_move_limit_lp(prob), fill_reference_solve(prob)
    assert sol.x_p.tobytes() == ref.x_p.tobytes(), label
    assert sol.x_q.tobytes() == ref.x_q.tobytes(), label
    assert sol.objective == ref.objective, label
    return sol


class TestAgainstFillReference:
    """The one-pass fill of both blocks against one fill per block."""

    def test_random_instances(self):
        rng = np.random.default_rng(304)
        for k, prob in enumerate(fill_reference_problems(rng)):
            _assert_bit_equal(prob, f"trial {k}")

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
        ("c_p", np.nan), ("c_q", np.inf), ("lower_p", np.nan),
        ("lower_q", -np.inf), ("tolx_p", np.inf), ("tolx_q", np.nan),
        ("upper", np.inf)])
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
