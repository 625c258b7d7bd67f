"""Exact-rational simplex solver on an integer tableau, one denominator per row.

`solve_lp` solves  max/min c.x  s.t.  A_eq x = b_eq,  A_ub x <= b_ub,  x >= 0
(selected variables may be free).  All arithmetic is exact, so oracle
comparisons are bit-reproducible.  Dantzig pivoting with a Bland's-rule
fallback guarantees termination on degenerate instances.

The tableau holds Python ints: row i is a list of numerators N_i and one
denominator D_i > 0 with gcd(N_i, D_i) = 1, and its entries are N_i / D_i.
Inputs (int, float, Fraction, mpq) become integer rows through
`as_integer_ratio`, and rational objects (`RAT`: gmpy2.mpq when available,
fractions.Fraction otherwise) are built only for the returned x, value and
duals.  A pivot on (r, k) with p = N_r[k] leaves the pivot row's
numerators as they are (up to sign and a common factor), so D_r becomes
|p|.  Another row with f = N_i[k] becomes N_i q - (f/g) N_r over D_i q,
where g = gcd(f, p) and q = p/g, and is reduced by one gcd; when q = 1
only the pivot row's nonzero columns change.  Like the fraction-free
elimination of Edmonds (1967) and Bareiss (1968), this works on integers
with no per-entry gcds, and it yields the same rationals as a Fraction
tableau pivoting on the same entries.

Columns: the variables, a negative copy of each free variable, one slack
per `<=` row, one artificial per equality row and per `<=` row whose rhs
is not 0, and the rhs.  Phase 1 starts each row on its artificial, except
that a `<=` row with rhs 0 starts on its slack (every lifted VAR_BOUNDED
row of the leaf-law LP is one), and drives the artificials to zero.

The reduced-cost row (rhs entry included) is the tableau's last row: it is
built once per phase and eliminated in each pivot like any other row, and
at the end of phase 2 its artificial columns hold the equality rows' duals,
its slack columns the `<=` rows' duals, and its rhs entry minus the
objective value.

Phase 1 reads the rows only.  `solve_lp` takes an optional memo, a dict
that its caller owns, from the rows to the end of phase 1, and on a hit
runs phase 2 alone on a copy, with the result of a fresh solve.  The DP
passes one memo to all one-step LPs of a `backward_value` call, whose rows
repeat node after node; the leaf-law LP, solved once per instance on a
tableau that can reach millions of ints, passes none.

`solve` is the LP entry point of the cross-checks, and its `exact` keyword
picks the arithmetic; the DP's one-step LPs, always exact, call `solve_lp`
with their memo.  Exact mode is `solve_lp` above.  Float mode makes the
package's single call to HiGHS (`scipy.optimize.linprog`, looked up when
called): per-variable bounds from `free_vars`, primal and dual feasibility
tolerances 1e-10, and the row duals read from HiGHS's `eqlin` and `ineqlin`
marginals in `solve_lp`'s sign convention.

Scale target: a few hundred rows/columns.  Not a general-purpose LP code.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm
from typing import Optional, Sequence

try:
    from gmpy2 import mpq as _RAT  # noqa: N811
except ImportError:  # pragma: no cover
    from fractions import Fraction as _RAT

RAT = _RAT
_ZERO = RAT(0)


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


def _ratio(v):
    """(numerator, denominator) of an exact number: int, float, Fraction or
    mpq by `as_integer_ratio`, numpy integers by their attributes."""
    try:
        return v.as_integer_ratio()
    except AttributeError:
        return v.numerator, v.denominator


def over_common_denominator(values):
    """(numerators, den): the integers n_i with n_i / den == values[i] over
    their least common denominator den > 0 (1 for no values)."""
    pairs = [_ratio(v) for v in values]
    den = lcm(*(q for _, q in pairs))
    return [p * (den // q) for p, q in pairs], den


def _reduced(row, den):
    """The row and denominator divided by their gcd."""
    g = gcd(den, *row)
    if g == 1:
        return row, den
    return [v // g for v in row], den // g


def _pivot(T, D, basis, row, col):
    """Make `col` basic in `row`.  The pivot row N_r over D_r becomes N_r
    over p = N_r[col] (sign flipped so that p > 0, divided by gcd(N_r)).
    Every other row i with f = N_i[col] != 0, the reduced-cost row T[-1]
    included, becomes N_i p - f N_r over D_i p, with gcd(f, p) cancelled
    first, and is reduced by its gcd.  When p divides f, D_i stays and the
    row is updated in place on the pivot row's nonzero columns only.  Rows
    with f = 0 are not touched."""
    prow = T[row]
    p = prow[col]
    if p < 0:
        prow = [-v for v in prow]
        p = -p
    prow, p = _reduced(prow, p)
    T[row] = prow
    D[row] = p
    nz = [j for j, v in enumerate(prow) if v]
    for i, r in enumerate(T):
        f = r[col]
        if f and i != row:
            g = gcd(f, p)
            q, f = p // g, f // g
            if q == 1:
                for j in nz:
                    r[j] -= f * prow[j]
                T[i], D[i] = _reduced(r, D[i])
            else:
                T[i], D[i] = _reduced([a * q - f * b for a, b in zip(r, prow)], D[i] * q)
    basis[row] = col


def _reduced_costs(T, D, basis, c, c_den):
    """Objective row c - c_B B^{-1} [A | b] of the current tableau for the
    cost c / c_den, as integer numerators over one denominator.  Its rhs
    entry is minus the objective value; basic columns read exactly 0."""
    L = lcm(*(D[i] for i, b in enumerate(basis) if c[b]))
    obj = [v * L for v in c] + [0]
    for i, b in enumerate(basis):
        if c[b]:
            s = c[b] * (L // D[i])
            obj = [o - s * t for o, t in zip(obj, T[i])]
    return _reduced(obj, c_den * L)


def _run_simplex(T, D, basis, n_enter) -> str:
    """Pivot until no column below `n_enter` has a positive reduced cost in
    the reduced-cost row T[-1].  Dantzig's rule (largest reduced cost, lowest
    index on ties), switching to Bland's rule after `bland_after` pivots;
    leaving row by minimum ratio, ties to the smallest basic index.  All
    reduced costs share one positive denominator, so their numerators are
    compared; the ratio N_i[-1] / N_i[enter] of row i does not depend on
    D_i and is compared by cross-multiplication.

    A basic column at or above `n_enter` is an artificial that phase 1 left
    in the basis at zero.  Its row leaves at ratio 0 on any nonzero entry of
    the entering column, so the artificial stays at zero."""
    m = len(basis)
    ncols = len(T[0]) - 1
    iters = 0
    bland_after = 200 + 20 * (m + ncols)
    while True:
        costs = T[-1][:n_enter]
        if iters > bland_after:
            enter = next((j for j, r in enumerate(costs) if r > 0), -1)
        else:
            best = max(costs, default=0)
            enter = costs.index(best) if best > 0 else -1
        if enter < 0:
            return "optimal"
        leave, num_best, den_best = -1, 0, 1
        for i in range(m):
            row = T[i]
            a = row[enter]
            if a > 0 or (a and basis[i] >= n_enter):
                num = row[-1]
                if a < 0:
                    num, a = -num, -a
                if (
                    leave < 0
                    or num * den_best < num_best * a
                    or (num * den_best == num_best * a and basis[i] < basis[leave])
                ):
                    leave, num_best, den_best = i, num, a
        if leave < 0:
            return "unbounded"
        _pivot(T, D, basis, leave, enter)
        iters += 1


def _phase1(nv, A_eq, b_eq, A_ub, b_ub, free):
    """(T, D, basis, art0, flips) at the end of phase 1, in the column
    layout of the module docstring, or None when the rows are infeasible.
    art0 is the first artificial column, and flips[i] is -1 where equality
    row i was negated for a nonnegative rhs, else 1."""
    n_eq = len(A_eq)
    slack0 = nv + len(free)
    art0 = slack0 + len(A_ub)
    rows = list(zip(A_eq, b_eq)) + list(zip(A_ub, b_ub))
    on_slack = [i >= n_eq and b == 0 for i, (_, b) in enumerate(rows)]
    ncols = art0 + on_slack.count(False)

    T, D, flips, basis = [], [], [], []
    art = art0
    for i, (arow, b) in enumerate(rows):
        nums, den = over_common_denominator(list(arow) + [b])
        full = [0] * (ncols + 1)
        full[: len(nums) - 1] = nums[:-1]
        full[-1] = nums[-1]
        for k, j in enumerate(free):
            full[nv + k] = -full[j]
        if i >= n_eq:
            full[slack0 + i - n_eq] = den
        if on_slack[i]:
            basis.append(slack0 + i - n_eq)
        else:
            if full[-1] < 0:
                full = [-v for v in full]
            if i < n_eq:
                flips.append(-1 if nums[-1] < 0 else 1)
            full[art] = den
            basis.append(art)
            art += 1
        row, den = _reduced(full, den)
        T.append(row)
        D.append(den)

    # T[-1] is the reduced-cost row of -sum(artificials).
    c1 = [0] * art0 + [-1] * (ncols - art0)
    obj, obj_den = _reduced_costs(T, D, basis, c1, 1)
    T.append(obj)
    D.append(obj_den)
    status = _run_simplex(T, D, basis, ncols)
    if status != "optimal":  # pragma: no cover - phase 1 is always bounded
        raise SimplexError("phase 1 did not terminate at an optimum")
    # T[-1][-1] is minus the phase-1 objective: the sum of basic artificials.
    if T[-1][-1] > 0:
        return None
    return T, D, basis, art0, flips


def solve_lp(
    c: Sequence,
    A_eq: Optional[Sequence] = None,
    b_eq: Optional[Sequence] = None,
    A_ub: Optional[Sequence] = None,
    b_ub: Optional[Sequence] = None,
    maximize: bool = True,
    free_vars: Sequence[int] = (),
    memo: Optional[dict] = None,
) -> LPResult:
    """Solve the LP and return primal solution plus row duals.

    Duals are reported for the stated (maximization) problem: y_eq free,
    y_ub >= 0, with dual feasibility c_j - y.A_j <= 0 for x_j >= 0.  For
    minimize the returned value and duals refer to the original problem.

    `memo`, when given, maps the rows (the number of variables, the free
    variables and the rows as tuples of their native numbers, which compare
    by exact value) to the end of phase 1 (see the module docstring).
    """
    nv = len(c)
    A_eq, b_eq = A_eq or [], b_eq or []
    A_ub, b_ub = A_ub or [], b_ub or []
    free = sorted(set(free_vars))
    if memo is None:
        start = _phase1(nv, A_eq, b_eq, A_ub, b_ub, free)
    else:
        key = (nv, tuple(free), tuple(map(tuple, A_eq)), tuple(b_eq), tuple(map(tuple, A_ub)), tuple(b_ub))
        if key not in memo:
            memo[key] = _phase1(nv, A_eq, b_eq, A_ub, b_ub, free)
        start = memo[key]
        if start is not None:
            T, D, basis, art0, flips = start
            start = [row[:] for row in T], D[:], basis[:], art0, flips
    if start is None:
        return LPResult(status="infeasible")
    T, D, basis, art0, flips = start
    slack0 = art0 - len(A_ub)

    # Phase 2 on the real objective; artificials may not re-enter.
    cn, c_den = over_common_denominator(c)
    if not maximize:
        cn = [-v for v in cn]
    c2 = cn + [-cn[j] for j in free] + [0] * (len(T[0]) - 1 - slack0)
    T[-1], D[-1] = _reduced_costs(T, D, basis, c2, c_den)
    status = _run_simplex(T, D, basis, art0)
    if status == "unbounded":
        return LPResult(status="unbounded")

    x = [_ZERO] * nv
    for i, b in enumerate(basis):
        if b < slack0:
            val = RAT(T[i][-1], D[i])
            if b < nv:
                x[b] += val
            else:
                x[free[b - nv]] -= val
    # The rhs entry of the reduced-cost row is minus the objective value.
    # Row duals y = c_B B^{-1}: in phase 2 the artificial of equality row i
    # has cost 0 and, in the stated rows, column flips[i] e_i, so its
    # reduced cost is -flips[i] y_i; the slack of ub row k has cost 0 and
    # column e_k, so its reduced cost is -y_k.
    obj, obj_den = T[-1], D[-1]
    sign = 1 if maximize else -1
    value = RAT(-sign * obj[-1], obj_den)
    y_eq = [RAT(-sign * obj[art0 + i] * f, obj_den) for i, f in enumerate(flips)]
    y_ub = [RAT(-sign * obj[slack0 + k], obj_den) for k in range(len(A_ub))]
    return LPResult(status="optimal", x=x, value=value, y_eq=y_eq, y_ub=y_ub)


_HIGHS_STATUS = {0: "optimal", 2: "infeasible", 3: "unbounded"}


def solve(c, A_eq=None, b_eq=None, A_ub=None, b_ub=None, *, maximize=True, free_vars=(), exact) -> LPResult:
    """Solve the LP exactly (`solve_lp`) or in floats by HiGHS, with duals.

    Float duals follow `solve_lp`'s convention: y is the derivative of the
    stated objective's value in the rhs, so y_ub >= 0 when maximizing and
    <= 0 when minimizing.  HiGHS's marginals are the derivatives of the
    minimized objective, so they are negated for a maximization.  A HiGHS outcome
    other than optimal, infeasible or unbounded is reported as status
    "error: <solver message>"; callers raise their own error types for every
    non-optimal status they do not handle.
    """
    if exact:
        return solve_lp(c, A_eq, b_eq, A_ub, b_ub, maximize=maximize, free_vars=free_vars)
    import numpy as np
    from scipy.optimize import linprog

    def matrix(rows):
        # numpy converts each entry as float() does, without a Python loop
        return np.array(rows, dtype=float) if rows else None

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

    def duals(marginals):
        return (0.0 - marginals if maximize else marginals).tolist()  # 0.0 - m: a zero stays +0.0

    y_eq = duals(res.eqlin.marginals) if A_eq else []
    y_ub = duals(res.ineqlin.marginals) if A_ub else []
    return LPResult(status="optimal", x=list(res.x), value=value, y_eq=y_eq, y_ub=y_ub)
