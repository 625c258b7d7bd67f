"""Exact-rational simplex solver on a dense tableau with sparse updates.

`solve_lp` solves  max/min c.x  s.t.  A_eq x = b_eq,  A_ub x <= b_ub,  x >= 0
(selected variables may be free).  All arithmetic is exact over rationals (gmpy2.mpq
when available, fractions.Fraction otherwise), so oracle comparisons are
bit-reproducible.  Dantzig pivoting with a Bland's-rule fallback guarantees
termination on degenerate instances.

The reduced-cost row (rhs entry included) is carried alongside the tableau:
it is built once per phase and eliminated in each pivot like any other row,
and at the end of phase 2 its artificial columns hold the row duals.  A
pivot scales the pivot row once and updates the other rows only on that
row's nonzero columns, since most tableau entries are zero.

`solve` is the one LP entry point of the package, and its `exact` keyword
picks the arithmetic.  Exact mode is `solve_lp` above.  Float mode makes the
package's single call to HiGHS (`scipy.optimize.linprog`, looked up when
called): per-variable bounds from `free_vars`, primal and dual feasibility
tolerances 1e-10, and no duals in the result.

Scale target: a few hundred rows/columns.  Not a general-purpose LP code.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

try:
    from gmpy2 import mpq as _RAT  # noqa: N811
except ImportError:  # pragma: no cover
    from fractions import Fraction as _RAT

RAT = _RAT
_ZERO = RAT(0)
_ONE = RAT(1)


def rat(x):
    """Exact rational from int/float/Fraction/mpq (floats convert exactly)."""
    if isinstance(x, type(_ZERO)):
        return x
    return RAT(x)


class SimplexError(RuntimeError):
    pass


@dataclass
class LPResult:
    status: str  # "optimal" | "infeasible" | "unbounded"
    x: Optional[list] = None
    value: Optional[object] = None
    y_eq: Optional[list] = None
    y_ub: Optional[list] = None


def _pivot(T, basis, row, col, obj):
    """Make `col` basic in `row`: scale the pivot row once, then eliminate
    `col` from every other row and from the reduced-cost row `obj`, touching
    only the pivot row's nonzero columns (rhs included)."""
    prow = T[row]
    inv = _ONE / prow[col]
    nz = [j for j, v in enumerate(prow) if v]
    for j in nz:
        prow[j] *= inv
    for r in T + [obj]:
        f = r[col]
        if f and r is not prow:
            for j in nz:
                r[j] -= f * prow[j]
    basis[row] = col


def _reduced_costs(T, basis, c):
    """Objective row c - c_B B^{-1} [A | b] of the current tableau.  Its rhs
    entry is minus the objective value; basic columns read exactly 0."""
    obj = list(c) + [_ZERO]
    for i, b in enumerate(basis):
        cb = c[b]
        if cb:
            for j, v in enumerate(T[i]):
                if v:
                    obj[j] -= cb * v
    return obj


def _run_simplex(T, basis, obj, n_enter) -> str:
    """Pivot until no column below `n_enter` has a positive reduced cost.
    Dantzig's rule (largest reduced cost, lowest index on ties), switching to
    Bland's rule after `bland_after` pivots; leaving row by minimum ratio,
    ties to the smallest basic index.  `obj` is updated in place.

    A basic column at or above `n_enter` is an artificial that phase 1 left
    in the basis at zero.  Its row leaves at ratio 0 on any nonzero entry of
    the entering column, so the artificial stays at zero."""
    m = len(T)
    ncols = len(T[0]) - 1
    iters = 0
    bland_after = 200 + 20 * (m + ncols)
    while True:
        enter, best = -1, _ZERO
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
        _pivot(T, basis, leave, enter, obj)
        iters += 1


def solve_lp(
    c: Sequence,
    A_eq: Optional[Sequence] = None,
    b_eq: Optional[Sequence] = None,
    A_ub: Optional[Sequence] = None,
    b_ub: Optional[Sequence] = None,
    maximize: bool = True,
    free_vars: Sequence[int] = (),
) -> LPResult:
    """Solve the LP and return primal solution plus row duals.

    Duals are reported for the stated (maximization) problem: y_eq free,
    y_ub >= 0, with dual feasibility c_j - y.A_j <= 0 for x_j >= 0.  For
    minimize the returned value and duals refer to the original problem.
    """
    nv = len(c)
    c = [rat(v) for v in c]
    if not maximize:
        c = [-v for v in c]
    A_eq = [[rat(v) for v in row] for row in (A_eq or [])]
    b_eq = [rat(v) for v in (b_eq or [])]
    A_ub = [[rat(v) for v in row] for row in (A_ub or [])]
    b_ub = [rat(v) for v in (b_ub or [])]
    free = sorted(set(free_vars))

    # Column layout: nv primary, then one negative copy per free var, then
    # one slack per ub row, then one artificial per row.
    neg_of = {j: nv + i for i, j in enumerate(free)}
    n_slack = len(A_ub)
    slack0 = nv + len(free)
    art0 = slack0 + n_slack
    m = len(A_eq) + len(A_ub)
    ncols = art0 + m

    rows, rhs, flips = [], [], []
    for arow, b in list(zip(A_eq, b_eq)) + list(zip(A_ub, b_ub)):
        rows.append(list(arow))
        rhs.append(b)
        flips.append(_ONE)
    for i, (arow, b) in enumerate(zip(rows, rhs)):
        full = [_ZERO] * ncols
        for j, v in enumerate(arow):
            full[j] = v
            if j in neg_of:
                full[neg_of[j]] = -v
        if i >= len(A_eq):
            full[slack0 + (i - len(A_eq))] = _ONE
        if b < 0:
            full = [-v for v in full]
            b = -b
            flips[i] = -_ONE
        full[art0 + i] = _ONE
        rows[i] = full + [b]
        rhs[i] = b
    T = rows
    basis = [art0 + i for i in range(m)]

    # Phase 1: drive artificials to zero.
    c1 = [_ZERO] * ncols
    for i in range(m):
        c1[art0 + i] = -_ONE
    obj = _reduced_costs(T, basis, c1)
    status = _run_simplex(T, basis, obj, ncols)
    if status != "optimal":  # pragma: no cover - phase 1 is always bounded
        raise SimplexError("phase 1 did not terminate at an optimum")
    # obj[-1] is minus the phase-1 objective: the sum of basic artificials.
    if obj[-1] > 0:
        return LPResult(status="infeasible")

    # Phase 2 on the real objective; artificials may not re-enter.
    c2 = [_ZERO] * ncols
    for j in range(nv):
        c2[j] = c[j]
    for j in free:
        c2[neg_of[j]] = -c[j]
    obj = _reduced_costs(T, basis, c2)
    status = _run_simplex(T, basis, obj, art0)
    if status == "unbounded":
        return LPResult(status="unbounded")

    x = [_ZERO] * nv
    for i, b in enumerate(basis):
        val = T[i][-1]
        if b < nv:
            x[b] += val
        elif b < slack0:
            x[free[b - nv]] -= val
    value = sum(ci * xi for ci, xi in zip(c, x))

    # Row duals y = c_B B^{-1}: artificial i has cost 0 and column e_i in
    # phase 2, so its reduced cost is -y_i.
    y = [-obj[art0 + i] * flips[i] for i in range(m)]
    y_eq = y[: len(A_eq)]
    y_ub = y[len(A_eq):]
    if not maximize:
        value = -value
        y_eq = [-v for v in y_eq]
        y_ub = [-v for v in y_ub]
    return LPResult(status="optimal", x=x, value=value, y_eq=y_eq, y_ub=y_ub)


_HIGHS_STATUS = {0: "optimal", 2: "infeasible", 3: "unbounded"}


def solve(c, A_eq=None, b_eq=None, A_ub=None, b_ub=None, *, maximize=True, free_vars=(), exact) -> LPResult:
    """Solve the LP exactly (`solve_lp`, with duals) or in floats by HiGHS.

    The float result carries status, x and value only.  A HiGHS outcome
    other than optimal, infeasible or unbounded is reported as status
    "error: <solver message>"; callers raise their own error types for every
    non-optimal status they do not handle.
    """
    if exact:
        return solve_lp(c, A_eq, b_eq, A_ub, b_ub, maximize=maximize, free_vars=free_vars)
    import numpy as np
    from scipy.optimize import linprog

    def matrix(rows):
        return np.array([[float(v) for v in row] for row in rows]) if rows else None

    free = set(free_vars)
    res = linprog(
        c=[-float(v) for v in c] if maximize else [float(v) for v in c],
        A_ub=matrix(A_ub),
        b_ub=[float(v) for v in b_ub] if A_ub else None,
        A_eq=matrix(A_eq),
        b_eq=[float(v) for v in b_eq] if A_eq else None,
        bounds=[(None, None) if j in free else (0, None) for j in range(len(c))],
        method="highs",
        options={
            "primal_feasibility_tolerance": 1e-10,
            "dual_feasibility_tolerance": 1e-10,
        },
    )
    status = _HIGHS_STATUS.get(res.status, f"error: {res.message}")
    if status != "optimal":
        return LPResult(status=status)
    value = float(-res.fun) if maximize else float(res.fun)
    return LPResult(status="optimal", x=list(res.x), value=value)
