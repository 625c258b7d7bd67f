import random

import numpy as np
import pytest
from scipy.optimize import linprog

from robusthedge import simplex
from robusthedge.simplex import RAT, LPResult, rat, solve, solve_lp


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


def dual_ranges(c, A_eq, b_eq, A_ub, b_ub, maximize, free, value):
    """(min, max) of each row dual over the optimal duals of the LP, in
    `solve_lp`'s convention, by exact LPs over the dual optimal face.  With
    s = 1 when maximizing and -1 when minimizing, y = s w where w_ub >= 0,
    A_j . w >= s c_j for x_j >= 0 (== for a free x_j) and b . w = s value."""
    s = 1 if maximize else -1
    rows = list(A_eq or []) + list(A_ub or [])
    b = list(b_eq or []) + list(b_ub or [])
    n_eq = len(A_eq or [])
    face_eq = [[row[j] for row in rows] for j in free] + [b]
    face_rhs = [s * c[j] for j in free] + [s * value]
    face_ub = [[-row[j] for row in rows] for j in range(len(c)) if j not in free]
    face_ub_rhs = [-s * c[j] for j in range(len(c)) if j not in free]
    out = []
    for i in range(len(rows)):
        e = [1 if k == i else 0 for k in range(len(rows))]
        lo, hi = (solve_lp(e, face_eq, face_rhs, face_ub, face_ub_rhs, maximize=m, free_vars=range(n_eq)) for m in (False, True))
        assert lo.status == hi.status == "optimal" or "unbounded" in (lo.status, hi.status)
        lo, hi = (r.value if r.status == "optimal" else None for r in (lo, hi))
        out.append((lo, hi) if s == 1 else (None if hi is None else -hi, None if lo is None else -lo))
    return out


def test_float_solve_matches_exact():
    """Same status and value as the exact solve.  The float row duals are
    optimal duals (sign, dual feasibility, y . b = value, within 1e-9), and
    they are the exact ones, within 1e-9, wherever the optimal dual is
    unique."""
    statuses, unique = set(), 0
    for c, A_eq, b_eq, A_ub, b_ub, maximize, free in seam_cases():
        ex = solve(c, A_eq, b_eq, A_ub, b_ub, maximize=maximize, free_vars=free, exact=True)
        fl = solve(c, A_eq, b_eq, A_ub, b_ub, maximize=maximize, free_vars=free, exact=False)
        assert fl.status == ex.status
        statuses.add(ex.status)
        if ex.status != "optimal":
            continue
        assert isinstance(fl.value, float)
        assert fl.value == pytest.approx(float(ex.value), abs=1e-9)
        assert len(fl.x) == len(c)
        rows = list(A_eq or []) + list(A_ub or [])
        b = list(b_eq or []) + list(b_ub or [])
        y = fl.y_eq + fl.y_ub
        assert len(fl.y_eq) == len(A_eq or []) and len(fl.y_ub) == len(A_ub or [])
        assert all(type(v) is float for v in y)
        s = 1 if maximize else -1
        assert all(s * v >= -1e-9 for v in fl.y_ub)
        for j in range(len(c)):
            aty = sum(float(row[j]) * v for row, v in zip(rows, y))
            if j in free:
                assert aty == pytest.approx(float(c[j]), abs=1e-9)
            else:
                assert s * (aty - float(c[j])) >= -1e-9
        assert sum(float(bi) * v for bi, v in zip(b, y)) == pytest.approx(fl.value, abs=1e-9)
        for v, want, (lo, hi) in zip(y, ex.y_eq + ex.y_ub, dual_ranges(c, A_eq, b_eq, A_ub, b_ub, maximize, free, ex.value)):
            assert (lo is None or lo <= want) and (hi is None or want <= hi)
            if lo is not None and lo == hi:
                unique += 1
                assert v == pytest.approx(float(want), abs=1e-9)
    assert statuses == {"optimal", "infeasible", "unbounded"}
    assert unique >= 100


def test_solve_needs_explicit_mode():
    with pytest.raises(TypeError):
        solve([1, 3, 2], [[1, 1, 1]], [1])


def test_rat_conversion():
    assert rat(0.5) == RAT(1, 2)
    assert rat(RAT(2, 3)) == RAT(2, 3)
    assert rat(3) == 3


# -- integer tableau against the Fraction tableau ---------------------------
#
# The Fraction-tableau simplex that the integer tableau replaced, kept as the
# reference.  Both pivot on the same entries, so every result must be the
# same rational, and the pivot counts must agree.


class PivotCount:
    def __init__(self):
        self.n = 0


REF_PIVOTS = PivotCount()


def ref_pivot(T, basis, row, col, obj):
    REF_PIVOTS.n += 1
    prow = T[row]
    inv = RAT(1) / prow[col]
    nz = [j for j, v in enumerate(prow) if v]
    for j in nz:
        prow[j] *= inv
    for r in T + [obj]:
        f = r[col]
        if f and r is not prow:
            for j in nz:
                r[j] -= f * prow[j]
    basis[row] = col


def ref_reduced_costs(T, basis, c):
    obj = list(c) + [RAT(0)]
    for i, b in enumerate(basis):
        cb = c[b]
        if cb:
            for j, v in enumerate(T[i]):
                if v:
                    obj[j] -= cb * v
    return obj


def ref_run_simplex(T, basis, obj, n_enter):
    m = len(T)
    ncols = len(T[0]) - 1
    iters = 0
    bland_after = 200 + 20 * (m + ncols)
    while True:
        enter, best = -1, RAT(0)
        bland = iters > bland_after
        for j in range(n_enter):
            r = obj[j]
            if r > best:
                best, enter = r, j
                if bland:
                    break
        if enter < 0:
            return "optimal"
        leave, best_ratio = -1, None
        for i in range(m):
            a = T[i][enter]
            if a > 0 or (a and basis[i] >= n_enter):
                ratio = T[i][-1] / a
                if (
                    best_ratio is None
                    or ratio < best_ratio
                    or (ratio == best_ratio and basis[i] < basis[leave])
                ):
                    best_ratio, leave = ratio, i
        if leave < 0:
            return "unbounded"
        ref_pivot(T, basis, leave, enter, obj)
        iters += 1


def ref_solve_lp(c, A_eq=None, b_eq=None, A_ub=None, b_ub=None, maximize=True, free_vars=()):
    zero, one = RAT(0), RAT(1)
    nv = len(c)
    c = [rat(v) for v in c]
    if not maximize:
        c = [-v for v in c]
    A_eq = [[rat(v) for v in row] for row in (A_eq or [])]
    b_eq = [rat(v) for v in (b_eq or [])]
    A_ub = [[rat(v) for v in row] for row in (A_ub or [])]
    b_ub = [rat(v) for v in (b_ub or [])]
    free = sorted(set(free_vars))
    neg_of = {j: nv + i for i, j in enumerate(free)}
    n_slack = len(A_ub)
    slack0 = nv + len(free)
    art0 = slack0 + n_slack
    m = len(A_eq) + len(A_ub)
    # a <= row with rhs 0 starts on its slack and has no artificial
    on_slack = [False] * len(A_eq) + [b == 0 for b in b_ub]
    art_of = {}
    for i in range(m):
        if not on_slack[i]:
            art_of[i] = art0 + len(art_of)
    ncols = art0 + len(art_of)
    rows, rhs, flips = [], [], []
    for arow, b in list(zip(A_eq, b_eq)) + list(zip(A_ub, b_ub)):
        rows.append(list(arow))
        rhs.append(b)
        flips.append(one)
    basis = []
    for i, (arow, b) in enumerate(zip(rows, rhs)):
        full = [zero] * ncols
        for j, v in enumerate(arow):
            full[j] = v
            if j in neg_of:
                full[neg_of[j]] = -v
        if i >= len(A_eq):
            full[slack0 + (i - len(A_eq))] = one
        if on_slack[i]:
            basis.append(slack0 + (i - len(A_eq)))
        else:
            if b < 0:
                full = [-v for v in full]
                b = -b
                flips[i] = -one
            full[art_of[i]] = one
            basis.append(art_of[i])
        rows[i] = full + [b]
        rhs[i] = b
    T = rows
    c1 = [zero] * ncols
    for col in art_of.values():
        c1[col] = -one
    obj = ref_reduced_costs(T, basis, c1)
    ref_run_simplex(T, basis, obj, ncols)
    if obj[-1] > 0:
        return LPResult(status="infeasible")
    c2 = [zero] * ncols
    for j in range(nv):
        c2[j] = c[j]
    for j in free:
        c2[neg_of[j]] = -c[j]
    obj = ref_reduced_costs(T, basis, c2)
    if ref_run_simplex(T, basis, obj, art0) == "unbounded":
        return LPResult(status="unbounded")
    x = [zero] * nv
    for i, b in enumerate(basis):
        val = T[i][-1]
        if b < nv:
            x[b] += val
        elif b < slack0:
            x[free[b - nv]] -= val
    value = sum(ci * xi for ci, xi in zip(c, x))
    # the dual of a row is minus the reduced cost of its artificial (times
    # the row's flip) or, for a slack-start row, of its slack
    y = [-obj[art_of[i]] * flips[i] if i in art_of else -obj[slack0 + i - len(A_eq)] for i in range(m)]
    y_eq = y[: len(A_eq)]
    y_ub = y[len(A_eq):]
    if not maximize:
        value = -value
        y_eq = [-v for v in y_eq]
        y_ub = [-v for v in y_ub]
    return LPResult(status="optimal", x=x, value=value, y_eq=y_eq, y_ub=y_ub)


def random_entry(rng):
    """0 (often), a small int, a small-denominator rational, a float in
    eighths, or a random double (denominators up to 2^52 and beyond)."""
    kind = rng.randrange(6)
    if kind < 2:
        return 0
    if kind == 2:
        return rng.randint(-4, 4)
    if kind == 3:
        return RAT(rng.randint(-9, 9), rng.randint(1, 7))
    if kind == 4:
        return rng.randint(-16, 16) / 8
    return rng.uniform(-2, 2)


def random_general_lps(n, seed):
    """`n` LPs (c, A_eq, b_eq, A_ub, b_ub, maximize, free_vars) with equality
    and <= rows, negative rhs (flipped rows), zero rhs (degenerate vertices),
    free variables and mixed int / rational / float entries.  Some draws are
    infeasible and some unbounded."""
    rng = random.Random(seed)
    for _ in range(n):
        nv = rng.randint(1, 7)
        n_eq, n_ub = rng.randint(0, 3), rng.randint(0, 4)

        def row():
            return [random_entry(rng) for _ in range(nv)]

        A_eq = [row() for _ in range(n_eq)]
        A_ub = [row() for _ in range(n_ub)]
        if rng.random() < 0.7:
            # rows through a point x0 >= 0 with zeros: feasible, degenerate
            x0 = [rng.choice([0, 0, 1, RAT(1, 2), 2]) for _ in range(nv)]
            b_eq = [sum(a * v for a, v in zip(r, x0)) for r in A_eq]
            b_ub = [sum(a * v for a, v in zip(r, x0)) + rng.choice([0, 1]) for r in A_ub]
        else:
            b_eq = [random_entry(rng) for _ in range(n_eq)]
            b_ub = [random_entry(rng) for _ in range(n_ub)]
        # a probability simplex keeps many draws bounded; every draw has a
        # row, because the Fraction tableau cannot hold zero rows
        if rng.random() < 0.5 or not A_eq + A_ub:
            A_eq.append([1] * nv)
            b_eq.append(1)
        free = tuple(j for j in range(nv) if rng.random() < 0.25)
        c = [random_entry(rng) for _ in range(nv)]
        yield c, A_eq, b_eq, A_ub, b_ub, rng.random() < 0.5, free


def fixed_lps():
    """The module's fixed LPs and the seam cases, as solve_lp arguments."""
    yield from seam_cases()
    variance_rows = [[1, 0, 1], [-1, 0, -1]], [RAT(3, 5), RAT(-1, 5)]
    yield ([1, 0, 1], [[1, 1, 1], [-1, 0, 1]], [1, 0]) + variance_rows + (True, ())
    yield [-1, 0], None, None, [[-1, 1], [-1, -2]], [-1, -4], True, (0, 1)


def all_lps():
    return list(fixed_lps()) + list(random_general_lps(400, seed=11))


def test_integer_tableau_matches_fraction_tableau():
    statuses = {}
    for c, A_eq, b_eq, A_ub, b_ub, maximize, free in all_lps():
        res = solve_lp(c, A_eq, b_eq, A_ub, b_ub, maximize=maximize, free_vars=free)
        ref = ref_solve_lp(c, A_eq, b_eq, A_ub, b_ub, maximize=maximize, free_vars=free)
        assert repr(res) == repr(ref)
        statuses[res.status] = statuses.get(res.status, 0) + 1
        if res.status == "optimal":
            numbers = res.x + res.y_eq + res.y_ub + [res.value]
            assert all(isinstance(v, RAT) for v in numbers)
    assert set(statuses) == {"optimal", "infeasible", "unbounded"}
    assert min(statuses.values()) >= 20


def test_pivot_counts_match_fraction_tableau(monkeypatch):
    # the benchmark tracer counts simplex.pivots by patching simplex._pivot
    count = PivotCount()
    orig = simplex._pivot

    def counted(*args, **kwargs):
        count.n += 1
        return orig(*args, **kwargs)

    monkeypatch.setattr(simplex, "_pivot", counted)
    total = 0
    for c, A_eq, b_eq, A_ub, b_ub, maximize, free in all_lps():
        count.n = REF_PIVOTS.n = 0
        simplex.solve(c, A_eq, b_eq, A_ub, b_ub, maximize=maximize, free_vars=free, exact=True)
        ref_solve_lp(c, A_eq, b_eq, A_ub, b_ub, maximize=maximize, free_vars=free)
        assert count.n == REF_PIVOTS.n
        total += count.n
    assert total > 500


def klee_minty(n):
    """(c, A_ub, b_ub) of the Klee-Minty cube of dimension n:
    max sum_j 2^(n-1-j) x_j  s.t.  sum_{j<i} 2^(i-j+1) x_j + x_i <= 5^(i+1).
    Dantzig's rule walks 2^n - 1 of its vertices; the optimum is
    x = (0, ..., 0, 5^n)."""
    c = [2 ** (n - 1 - j) for j in range(n)]
    A = [[2 ** (i - j + 1) if j < i else int(j == i) for j in range(n)] for i in range(n)]
    return c, A, [5 ** (i + 1) for i in range(n)]


def test_bland_fallback_finishes_long_dantzig_runs(monkeypatch):
    """Each phase on the 12-dimensional cube passes the switch at
    200 + 20 (m + ncols) = 1,160 pivots, so Bland's rule finishes both
    phases: 1,166 and 1,265 pivots, where Dantzig's rule alone takes 2,048
    and 2,047.  The optimum is exact.  (Dimension 11 takes 1,024 and 1,023
    pivots: neither phase reaches its switch at 1,080.)"""
    phases = []
    pivot, run = simplex._pivot, simplex._run_simplex

    def counted_pivot(*args):
        phases[-1][0] += 1
        return pivot(*args)

    def counted_run(T, D, basis, n_enter):
        phases.append([0, 200 + 20 * (len(basis) + len(T[0]) - 1)])
        return run(T, D, basis, n_enter)

    monkeypatch.setattr(simplex, "_pivot", counted_pivot)
    monkeypatch.setattr(simplex, "_run_simplex", counted_run)
    n = 12
    c, A_ub, b_ub = klee_minty(n)
    res = solve_lp(c, A_ub=A_ub, b_ub=b_ub)
    assert res.status == "optimal"
    assert res.value == 5**n and type(res.value) is RAT
    assert res.x == [0] * (n - 1) + [5**n]
    assert phases == [[1166, 1160], [1265, 1160]]


# -- the phase-1 memo ----------------------------------------------------------


def recorded_runs(monkeypatch):
    """Patch the simplex run and the pivot: each `_run_simplex` call appends
    [pivots, start basis, columns] to the returned list."""
    runs = []
    pivot, run = simplex._pivot, simplex._run_simplex

    def counted_pivot(*args):
        runs[-1][0] += 1
        return pivot(*args)

    def counted_run(T, D, basis, n_enter):
        runs.append([0, list(basis), len(T[0]) - 1])
        return run(T, D, basis, n_enter)

    monkeypatch.setattr(simplex, "_pivot", counted_pivot)
    monkeypatch.setattr(simplex, "_run_simplex", counted_run)
    return runs


def test_a_phase_1_memo_hit_runs_phase_2_only(monkeypatch):
    """Phase 1 reads the rows only: after one solve fills the memo, a solve
    of the same rows with another objective runs no phase-1 pivot (one
    simplex run, or none when the rows are infeasible), and its result is
    `repr`-equal to a fresh solve's, whose phase 2 pivots the same."""
    runs = recorded_runs(monkeypatch)
    phase1 = 0
    for c, A_eq, b_eq, A_ub, b_ub, maximize, free in all_lps():
        other = [-v for v in reversed(c)]
        memo = {}
        solve_lp(c, A_eq, b_eq, A_ub, b_ub, maximize=maximize, free_vars=free, memo=memo)
        del runs[:]
        fresh = solve_lp(other, A_eq, b_eq, A_ub, b_ub, maximize=maximize, free_vars=free)
        fresh_runs = runs[:]
        del runs[:]
        hit = solve_lp(other, A_eq, b_eq, A_ub, b_ub, maximize=maximize, free_vars=free, memo=memo)
        assert repr(hit) == repr(fresh)
        assert len(memo) == 1
        assert runs == fresh_runs[1:]  # phase 2 only, pivot for pivot
        phase1 += fresh_runs[0][0]
    assert phase1 > 500


def test_memo_keys_compare_rows_by_exact_value():
    """Rows spelled with ints, floats or Fractions of equal value share one
    entry; rows that differ in the last bit of a float do not."""
    memo = {}
    c, A_eq, b_eq = [1, 2, 0], [[1, 1, 1], [-1, 0, 1]], [1, 0]
    for rows in ([[1, 1, 1], [-1, 0, 1]], [[1.0, 1.0, 1.0], [RAT(-1), 0.0, 1]]):
        res = solve_lp(c, rows, [1.0, RAT(0)], memo=memo)
        assert repr(res) == repr(solve_lp(c, A_eq, b_eq))
    assert len(memo) == 1
    solve_lp(c, [[1, 1, 1], [-1, 0, 1 + 2**-52]], b_eq, memo=memo)
    assert len(memo) == 2
