import random

import numpy as np
import pytest
from scipy.optimize import linprog

from robusthedge.simplex import RAT, rat, solve, solve_lp


def test_max_over_simplex_picks_best_coordinate():
    res = solve_lp([1, 3, 2], [[1, 1, 1]], [1])
    assert res.status == "optimal"
    assert res.value == 3
    assert res.x[1] == 1


def test_martingale_polytope_value():
    # probabilities on children at -1, 0, +1 with zero mean; maximize V=(1,0,1)
    res = solve_lp([1, 0, 1], [[1, 1, 1], [-1, 0, 1]], [1, 0])
    assert res.value == 1
    assert res.x[0] == RAT(1, 2) and res.x[2] == RAT(1, 2)


def test_variance_row_duals():
    # same polytope with the second-moment row 2q <= 3/5 binding: value 3/5
    res = solve_lp(
        [1, 0, 1],
        [[1, 1, 1], [-1, 0, 1]],
        [1, 0],
        A_ub=[[1, 0, 1], [-1, 0, -1]],
        b_ub=[RAT(3, 5), RAT(-1, 5)],
    )
    assert res.value == RAT(3, 5)
    # objective = variance row here, so its dual multiplier is 1
    assert res.y_ub[0] == 1 and res.y_ub[1] == 0


def test_infeasible_detected():
    res = solve_lp([1, 1], [[1, 1], [1, 1]], [1, 2])
    assert res.status == "infeasible"


def test_free_variable_minimization():
    # minimize X0 subject to X0 - h >= 1 and X0 + 2h >= 4 (both free)
    res = solve_lp(
        [-1, 0],
        None,
        None,
        A_ub=[[-1, 1], [-1, -2]],
        b_ub=[-1, -4],
        free_vars=(0, 1),
    )
    assert res.status == "optimal"
    assert -res.value == 2 and res.x[1] == 1


def random_lp_draws():
    """25 draws of (c, mean_row, second LP): max c.q over the probability
    vectors q with mean_row.q = 0, and the same polytope plus a
    variance-style A_ub pair lo <= sq.q <= hi (the lower row has a negative
    rhs, so it is flipped) and a free variable t = w.q carried in a third
    equality row, as (cc, A_eq, b_eq, A_ub, b_ub).  The second LP's draws
    come from their own generator."""
    rng = random.Random(7)
    rng_ub = random.Random(8)
    for _ in range(25):
        n = rng.randint(2, 5)
        c = [RAT(rng.randint(-8, 8), 4) for _ in range(n)]
        mean_row = [RAT(rng.randint(-2, 2)) for _ in range(n)]
        sq = [v * v for v in mean_row]
        lo = RAT(rng_ub.randint(1, 4), 4)
        hi = lo + RAT(rng_ub.randint(0, 8), 4)
        w = [RAT(rng_ub.randint(-3, 3)) for _ in range(n)]
        ct = RAT(rng_ub.randint(-4, 4), 4)
        cc = c + [ct]
        A_eq = [[1] * n + [0], mean_row + [0], [-v for v in w] + [1]]
        b_eq = [1, 0, 0]
        A_ub = [sq + [0], [-v for v in sq] + [0]]
        b_ub = [hi, -lo]
        yield c, mean_row, (cc, A_eq, b_eq, A_ub, b_ub)


def test_equality_duals_match_scipy():
    checked_ub = 0
    for c, mean_row, (cc, A_eq, b_eq, A_ub, b_ub) in random_lp_draws():
        n = len(c)
        res = solve_lp(c, [[1] * n, mean_row], [1, 0])
        ref = linprog(
            [-float(v) for v in c],
            A_eq=[[1.0] * n, [float(v) for v in mean_row]],
            b_eq=[1.0, 0.0],
            bounds=[(0, None)] * n,
            method="highs",
        )
        if res.status != "optimal":
            assert ref.status != 0
            continue
        assert ref.status == 0
        assert float(res.value) == pytest.approx(-ref.fun, abs=1e-9)
        y = np.array([float(v) for v in res.y_eq])
        # duals certify the optimum: y.b == value and A^T y >= c
        assert float(y[0] * 1 + y[1] * 0) == pytest.approx(float(res.value), abs=1e-9)
        for j in range(n):
            assert y[0] + y[1] * float(mean_row[j]) >= float(c[j]) - 1e-9

        # the second LP of the draw, with inequality rows and a free variable
        res = solve_lp(cc, A_eq, b_eq, A_ub, b_ub, free_vars=(n,))
        ref = linprog(
            [-float(v) for v in cc],
            A_ub=[[float(v) for v in row] for row in A_ub],
            b_ub=[float(v) for v in b_ub],
            A_eq=[[float(v) for v in row] for row in A_eq],
            b_eq=[float(v) for v in b_eq],
            bounds=[(0, None)] * n + [(None, None)],
            method="highs",
        )
        if res.status != "optimal":
            assert ref.status != 0
            continue
        checked_ub += 1
        assert ref.status == 0
        assert float(res.value) == pytest.approx(-ref.fun, abs=1e-9)
        # exact certificate: x feasible, y_ub >= 0, y.b == value, A^T y >= c
        # on x >= 0 columns and == c on the free column
        assert all(v >= 0 for v in res.x[:n])
        for row, b in zip(A_eq, b_eq):
            assert sum(a * v for a, v in zip(row, res.x)) == b
        for row, b in zip(A_ub, b_ub):
            assert sum(a * v for a, v in zip(row, res.x)) <= b
        assert all(v >= 0 for v in res.y_ub)
        ys = res.y_eq + res.y_ub
        assert sum(yi * b for yi, b in zip(ys, b_eq + b_ub)) == res.value
        for j in range(n + 1):
            aty = sum(yi * row[j] for yi, row in zip(ys, A_eq + A_ub))
            if j == n:
                assert aty == cc[j]
            else:
                assert aty >= cc[j]
    assert checked_ub > 0


def seam_cases():
    """(c, A_eq, b_eq, A_ub, b_ub, maximize, free_vars) for the seam test:
    the random draws above, the fixed LPs of this module, and an unbounded
    LP in each direction."""
    for c, mean_row, (cc, A_eq, b_eq, A_ub, b_ub) in random_lp_draws():
        yield c, [[1] * len(c), mean_row], [1, 0], None, None, True, ()
        yield cc, A_eq, b_eq, A_ub, b_ub, True, (len(c),)
        yield cc, A_eq, b_eq, A_ub, b_ub, False, (len(c),)
    yield [1, 3, 2], [[1, 1, 1]], [1], None, None, True, ()
    yield [1, 1], [[1, 1], [1, 1]], [1, 2], None, None, True, ()
    yield [1, 0], None, None, [[-1, 1], [-1, -2]], [-1, -4], False, (0, 1)
    yield [1, 0], [[1, -1]], [0], None, None, True, ()
    yield [0, 1], None, None, [[1, 1]], [2], False, (1,)


def test_float_solve_matches_exact():
    statuses = set()
    for c, A_eq, b_eq, A_ub, b_ub, maximize, free in seam_cases():
        ex = solve(c, A_eq, b_eq, A_ub, b_ub, maximize=maximize, free_vars=free, exact=True)
        fl = solve(c, A_eq, b_eq, A_ub, b_ub, maximize=maximize, free_vars=free, exact=False)
        assert fl.status == ex.status
        statuses.add(ex.status)
        assert fl.y_eq is None and fl.y_ub is None
        if ex.status == "optimal":
            assert isinstance(fl.value, float)
            assert fl.value == pytest.approx(float(ex.value), abs=1e-9)
            assert len(fl.x) == len(c)
    assert statuses == {"optimal", "infeasible", "unbounded"}


def test_solve_needs_explicit_mode():
    with pytest.raises(TypeError):
        solve([1, 3, 2], [[1, 1, 1]], [1])


def test_rat_conversion():
    assert rat(0.5) == RAT(1, 2)
    assert rat(RAT(2, 3)) == RAT(2, 3)
    assert rat(3) == 3
