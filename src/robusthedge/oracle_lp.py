"""Independent brute-force oracles: vertex enumeration and the leaf-law LP.

These deliberately avoid the backward recursion in dual_dp.  The leaf-law
LP optimizes directly over leaf probabilities subject to the linear rows
that characterize induced laws of family measures (each node's
`measure_families.one_step_rows`, lifted into leaf space), and vertex
enumeration solves square and overdetermined subsystems exactly, by
fraction-free elimination on integer rows.  Agreement between the two
routes is the main acceptance gate.

`leaf_law_lp` solves the leaf-law LP for both LP cross-checks and certifies
its optimum: the law and its mean are `global_sup_lp`'s, and the row duals
are `primal_hedge.primal_lp`'s hedge.  One memo entry holds the last
instance's lift and certified solve, keyed on the instance: the mode, the
tree, the start node, the family's class and variance bounds (with the
types of the tree's and the bounds' numbers) and the claim values below the
start.

Vertex enumeration is memoised: one module-level LRU cache of 256 entries
is keyed on the polytope's rows as the caller gives them, as tuples of native
numbers (int, float, Fraction).  Python compares and hashes these by exact
value, so two keys are equal exactly when the rows are, and the key names
the exact polytope without converting anything; the enumeration runs on a
miss only.  An entry holds the sorted vertex tuples and, per vertex, its
positive entries as (position, p) pairs, so `enumerate_vertex_kernels`
builds each kernel without a comparison.  This is safe because the vertices
are a pure function of the exact rows and the stored values are immutable;
callers get fresh kernels.  Node-local families repeat the same one-step
polytope at every node of a `build_tree` tree, so nearly every call after
the first at a tree shape is a hit.
"""

from __future__ import annotations

import functools
import itertools
from math import gcd
from typing import Mapping, Optional

from . import simplex
from .market_tree import NEG_INF, TOL, MarketTree, value_gap
from .measure_families import (
    FamilySpec,
    Kernel,
    MeasureError,
    TreeMeasure,
    alive_nodes,
    bifurcate,
    in_family,
    one_step_rows,
)
from .simplex import RAT

ORACLE_MAX_CHILDREN = 12
ORACLE_MAX_LEAVES = 2000


class OracleScaleError(MeasureError):
    pass


class HedgeError(MeasureError):
    pass


# -- vertex enumeration ---------------------------------------------------


def _solve_unique(M, n: int):
    """(numerators, den) with den > 0 of the unique solution of the integer
    system M (rows [a_1, ..., a_n, b], possibly overdetermined), or None.

    Fraction-free Gauss-Jordan elimination (Bareiss 1968): a pivot p on
    column col turns every other row into (p row - f prow) / prev, where f
    is the row's entry in col and prev the previous pivot; each entry stays
    a minor of M, so the division is exact.  After the last column every
    pivot row's diagonal entry is the last pivot, the determinant, and its
    rhs entry the determinant times the solution.  M is overwritten."""
    prev = 1
    for col in range(n):
        piv = next((r for r in range(col, len(M)) if M[r][col]), None)
        if piv is None:
            return None  # underdetermined
        M[col], M[piv] = M[piv], M[col]
        prow = M[col]
        p = prow[col]
        for r, row in enumerate(M):
            if r != col:
                f = row[col]
                M[r] = [(p * a - f * b) // prev for a, b in zip(row, prow)]
        prev = p
    if any(row[n] for row in M[n:]):
        return None  # inconsistent
    nums = [row[n] for row in M[:n]]
    if prev < 0:
        return [-v for v in nums], -prev
    return nums, prev


def _row_key(n, A_eq, b_eq, A_ub, b_ub) -> tuple:
    return (
        n,
        tuple(map(tuple, A_eq)),
        tuple(b_eq),
        tuple(map(tuple, A_ub)),
        tuple(b_ub),
    )


@functools.lru_cache(maxsize=256)
def _polytope_vertices(n: int, A_eq: tuple, b_eq: tuple, A_ub: tuple, b_ub: tuple) -> tuple:
    """((vertex, ((position, p), ...)), ...): the sorted exact vertex tuples
    of {x >= 0, A_eq x = b_eq, A_ub x <= b_ub}, given by native rows, each
    with its positive entries.

    Enumerates supports and active inequality subsets, so it is meant for
    oracle-scale polytopes only.  Each row, rhs included, is scaled to
    integers once (`simplex.over_common_denominator`); each square or
    overdetermined subsystem is solved fraction-free (`_solve_unique`), and
    x >= 0 and the `<=` rows are tested on integers.  Rationals are built
    only for the distinct vertices.

    The memo key is the rows as tuples of their native numbers.  int, float
    and Fraction compare and hash by exact value, so equal keys are exactly
    equal rows: float rows stand for their exact binary values, and steps
    that differ in the last bit stay apart.  On the trees `build_tree` makes
    every node has the same child steps, so the same rows recur node after
    node and tree after tree.  256 entries hold that working set while the
    one-shot keys of float variance bounds (2**52 denominators) cannot pile
    up.  The stored values are immutable; callers build fresh kernels.
    """
    eq = [simplex.over_common_denominator([*row, b])[0] for row, b in zip(A_eq, b_eq)]
    ub = [simplex.over_common_denominator([*row, b])[0] for row, b in zip(A_ub, b_ub)]
    verts = set()  # (numerators, den) in lowest terms
    for k_act in range(len(ub) + 1):
        for act in itertools.combinations(ub, k_act):
            rows = eq + list(act)
            for size in range(1, min(n, len(rows)) + 1):
                for support in itertools.combinations(range(n), size):
                    sol = _solve_unique([[row[j] for j in support] + [row[-1]] for row in rows], size)
                    if sol is None or min(sol[0]) < 0:
                        continue
                    nums, den = sol
                    x = [0] * n
                    for j, v in zip(support, nums):
                        x[j] = v
                    if all(sum(a * v for a, v in zip(row, x)) <= row[-1] * den for row in ub):
                        g = gcd(den, *x)
                        verts.add((tuple(v // g for v in x), den // g))
    vertices = sorted(tuple(RAT(v, den) for v in x) for x, den in verts)
    return tuple((v, tuple((i, p) for i, p in enumerate(v) if p > 0)) for v in vertices)


# -- one-step vertex oracle ----------------------------------------------


def enumerate_vertex_kernels(tree: MarketTree, nid: int, fam: FamilySpec) -> list:
    """All vertices of the one-step kernel polytope at `nid`, exact, sorted
    lexicographically by probability vector over child-id order."""
    children = tree.children(nid)
    if not children:
        raise MeasureError(f"node {nid} is a leaf")
    if len(children) > ORACLE_MAX_CHILDREN:
        raise OracleScaleError(
            f"{len(children)} children exceed the oracle limit {ORACLE_MAX_CHILDREN}"
        )
    rows = one_step_rows(tree, nid, children, fam)
    return [
        Kernel(nid, {children[i]: p for i, p in pairs})
        for _, pairs in _polytope_vertices(*_row_key(len(children), *rows))
    ]


# -- the leaf-law LP -----------------------------------------------------


def leaf_law_rows(tree, xi, fam, start):
    """(leaves, claim, eq, ub): the family's rows below `start` lifted into
    leaf space, over the leaves whose claim is not -inf (a -inf leaf has
    probability zero, so it has no position), with their claim values.

    Every row (a, b) of `one_step_rows` after the mass row at an internal
    node n is lifted: the kernel constraint sum_c p_c a_c = b (or <= b),
    times n's mass, is sum_l q_l (a_c - b) = 0 (or <= 0) over the leaves l
    below n, where c is n's child on l's path; the other leaves take 0.  A
    child's leaves are one contiguous block of the breadth-first leaf ids,
    and so are their positions, so a lifted row is (n, blocks) with one
    block (lo, hi, a_c - b) per child: the entry at positions lo..hi-1.
    `eq` holds the equality rows and `ub` the `<=` rows, nodes breadth-first
    and each node's rows in the order `one_step_rows` gives them, all as
    tuples.
    """
    ranges = tree._ranges_below(start)
    all_leaves = ranges[-1]
    values = [xi.get(l, 0) for l in all_leaves]
    kept = [v != NEG_INF for v in values]
    pos = list(itertools.accumulate(kept, initial=0))  # pos[i]: kept leaves before all_leaves[i]
    leaves, claim = list(itertools.compress(all_leaves, kept)), list(itertools.compress(values, kept))
    eq, ub = [], []
    for level, below in zip(ranges, ranges[1:]):
        width = len(all_leaves) // len(below)  # leaves below each child
        for n in level:
            children = tree.children(n)
            A_eq, b_eq, A_ub, b_ub = one_step_rows(tree, n, children, fam)
            first = (children[0] - below.start) * width
            blocks = [(pos[i], pos[i + width]) for i in range(first, first + len(children) * width, width)]
            for rows, rhs, out in ((A_eq[1:], b_eq[1:], eq), (A_ub, b_ub, ub)):
                for a, b in zip(rows, rhs):
                    out.append((n, tuple((lo, hi, a_c - b) for (lo, hi), a_c in zip(blocks, a))))
    return leaves, claim, tuple(eq), tuple(ub)


def leaf_law_lp(tree: MarketTree, xi: Mapping, fam: FamilySpec, start: int, exact: bool):
    """(leaves, eq, LPResult): the certified optimum of the leaf-law LP
    below `start`, or None when its value is -inf.

    The LP maximizes sum_l q_l claim_l over leaf laws q >= 0 of mass 1 with
    the `leaf_law_rows` rows `eq` = 0 and `ub` <= 0.  `global_sup_lp` reads
    its optimal law x; `primal_hedge.primal_lp`, its LP dual, reads the row
    duals: y_eq[0] is the initial capital and y_eq[1:] + y_ub the positions
    on the lifted rows, in their order.  `certify_leaf_law` and
    `certify_hedge` prove both optimal by weak duality (Applegate, Cook,
    Dash & Espinoza, 2007); a failed check raises.

    The value is -inf exactly when `alive_nodes` does not mark `start` (no
    family measure avoids the -inf leaves).  An "infeasible" at a start it
    marks raises HedgeError in both modes, as does a status other than
    optimal or infeasible.  Exact mode raises OracleScaleError, before it
    builds a row, past ORACLE_MAX_LEAVES leaves: its dense rational tableau
    grows with leaves times lifted rows (about 0.7 s of CPU time at 729
    trinomial lookback leaves, one core of an Intel Xeon, Python 3.11,
    Fraction arithmetic).  Float mode has no limit.

    The lift, the solve and both certificates are memoised in one entry
    keyed on the instance (`_solved_leaf_law`), so `global_sup_lp` and
    `primal_lp` on one instance, in either order, lift, solve and certify
    once; they only read the shared LPResult.
    """
    all_leaves = tree._ranges_below(start)[-1]
    if exact and len(all_leaves) > ORACLE_MAX_LEAVES:
        raise OracleScaleError(f"{len(all_leaves)} leaves exceed the oracle leaf limit {ORACLE_MAX_LEAVES}")
    claim = tuple([xi.get(l, 0) for l in all_leaves])
    types = tuple(type(v) for off in tree.offsets for v in off) + (type(fam.var_lo), type(fam.var_hi))
    leaves, eq, res = _solved_leaf_law(exact, tree, start, fam.unrestricted(), claim, types)
    if not leaves:
        return None
    if res.status == "infeasible":
        if alive_nodes(tree, fam, xi)[start]:
            mode = "exact" if exact else "float"
            raise HedgeError(f"{mode} path LP infeasible, but a family measure below node {start} avoids the -inf leaves")
        return None
    return leaves, eq, res


@functools.lru_cache(maxsize=1)
def _solved_leaf_law(exact: bool, tree: MarketTree, start: int, fam: FamilySpec, claim: tuple, types: tuple) -> tuple:
    """(leaves, eq, LPResult) of the leaf-law LP below `start`, certified
    when optimal; (leaves, eq, None) when no leaf has a finite claim.

    The lifted rows and the objective are functions of the arguments, so
    they key the memo: the mode, the tree and `start`, the family without
    its claim filter (class and variance bounds), and the claim values of
    the leaves below `start`.  A tree and a family compare their numbers by
    value, while the spots and squared steps they give depend on the
    numbers' types too (a float tree and its exact twin are equal, their
    spots are not), so `types` adds the types of the offsets' entries and of
    the variance bounds to the key.  It is read by nothing else.
    """
    leaves, claim, eq, ub = leaf_law_rows(tree, dict(zip(tree._ranges_below(start)[-1], claim)), fam, start)
    if not leaves:
        return leaves, eq, None

    def dense(rows):
        out = []
        for _, blocks in rows:
            row = [0] * len(claim)
            for lo, hi, v in blocks:
                row[lo:hi] = [v] * (hi - lo)
            out.append(row)
        return out

    A_eq, b_eq = [[1] * len(claim), *dense(eq)], [1] + [0] * len(eq)
    res = simplex.solve(list(claim), A_eq, b_eq, dense(ub), [0] * len(ub), exact=exact)
    if res.status == "optimal":
        certify_leaf_law(claim, eq, ub, res.x, res.value, exact)
        certify_hedge(claim, eq, ub, res.y_eq, res.y_ub, res.value, exact)
    elif res.status != "infeasible":
        raise HedgeError(f"leaf-law LP status {res.status}")
    return leaves, eq, res


def scaled(values, exact: bool):
    """(numbers, den) with numbers[i] / den == values[i]: in exact mode the
    integer numerators over their least common denominator, in float mode
    the floats over 1.0.  den > 0, so the certificates compare and add
    integers where they would compare and add rationals, and float mode
    reads its values as they are."""
    if exact:
        return simplex.over_common_denominator(values)
    return [float(v) for v in values], 1.0


def certify_leaf_law(claim, eq, ub, q, value, exact: bool) -> None:
    """Raise MeasureError unless the leaf law q is feasible for the lifted
    rows and E_q[claim] is `value`: q >= 0, total mass 1, every `eq` row
    = 0 and every `ub` row <= 0.  Exact mode compares rationals with `==`
    and `<=` (as integers over common denominators, `scaled`); float mode
    allows TOL.  No solver runs: each row is summed over its blocks from
    the prefix sums of q."""
    tol = 0 if exact else TOL
    qs, dq = scaled(q, exact)
    if min(qs, default=0) < -tol:
        raise MeasureError("leaf law has a negative probability")
    mass = list(itertools.accumulate(qs, initial=0))
    if abs(mass[-1] - dq) > tol:
        raise MeasureError(f"leaf law has total mass {mass[-1] / dq}")
    rows = eq + ub
    vs, dv = scaled([v for _, blocks in rows for _, _, v in blocks], exact)
    v = iter(vs)
    for r, (n, blocks) in enumerate(rows):
        lhs = sum(next(v) * (mass[hi] - mass[lo]) for lo, hi, _ in blocks)
        if (abs(lhs) if r < len(eq) else lhs) > tol:
            kind = "=" if r < len(eq) else "<="
            raise MeasureError(f"leaf law fails a lifted {kind} row of node {n}: {lhs / (dq * dv)}")
    cs, dc = scaled(claim, exact)
    mean = sum(c * p for c, p in zip(cs, qs))
    if abs(mean - value * dq * dc) > tol:
        raise MeasureError(f"leaf law has mean claim {mean / (dq * dc)}, not the LP value {value}")


def certify_hedge(claim, eq, ub, y_eq, y_ub, value, exact: bool) -> None:
    """Raise HedgeError unless X0 = y_eq[0] with the positions
    y_eq[1:] + y_ub on the lifted rows (claim, eq, ub) of `leaf_law_rows`
    is a superhedge at cost `value`: y_ub >= 0, X0 + sum_r y_r (a_c - b)
    >= claim_l at every leaf position l, and X0 == value.  With a feasible
    leaf law of mean `value` (which `certify_leaf_law` checks) weak duality
    then proves both optimal.  Exact mode compares rationals with `==` and
    `<=` (a float entry is read as its exact binary value), as integers
    over common denominators (`scaled`); float mode allows TOL.  No solver
    runs: each row adds its constant y_r (a_c - b) over each block of leaf
    positions."""
    tol = 0 if exact else TOL
    ys, dy = scaled([*y_eq, *y_ub], exact)
    if min(ys[len(y_eq) :], default=0) < -tol:
        raise HedgeError("negative position on a lifted <= row")
    rows = eq + ub
    vs, dv = scaled([v for _, blocks in rows for _, _, v in blocks], exact)
    cs, dc = scaled(claim, exact)
    # wealth times dy * dv, so that each gain is one product of numerators
    wealth = [ys[0] * dv] * len(claim)
    v = iter(vs)
    for (_, blocks), y in zip(rows, ys[1:]):
        for lo, hi, _ in blocks:
            gain = y * next(v)
            wealth[lo:hi] = [w + gain for w in wealth[lo:hi]]
    scale = dy * dv
    short = next((l for l, (w, c) in enumerate(zip(wealth, cs)) if w * dc < c * scale - tol), None)
    if short is not None:
        raise HedgeError(f"wealth {wealth[short] / scale} below the claim {claim[short]} at leaf position {short}")
    if abs(ys[0] - value * dy) > tol:
        raise HedgeError(f"initial capital {y_eq[0]} is not the LP value {value}")


def global_sup_lp(tree: MarketTree, xi: Mapping, fam: FamilySpec, start: Optional[int] = None, exact: bool = True):
    """(value, law): the sup of E[xi] over the family below `start` and an
    optimal leaf law, read from the certified optimum of the leaf-law LP
    (`leaf_law_lp`, whose limits and errors apply).

    `law` maps every leaf below `start` to its probability, 0 at the -inf
    leaves, as `TreeMeasure.leaf_law` does; `certify_leaf_law` has proved
    it a family law whose mean claim is the value.  (-inf, None) when no
    family measure avoids the -inf leaves.
    """
    start = tree.root if start is None else start
    lp = leaf_law_lp(tree, xi, fam, start, exact)
    if lp is None:
        return NEG_INF, None
    leaves, _, res = lp
    law = dict.fromkeys(tree.leaves_below(start), 0)
    law.update(zip(leaves, res.x))
    return res.value, law


# -- concave envelope (d = 1 cross-check) --------------------------------


def upper_concave_envelope(points, x0):
    """Smallest concave function over the points, evaluated at x0.

    Independent of the one-step solver: upper convex hull by monotone chain,
    then linear interpolation.  Returns -inf when x0 lies outside the convex
    range of the abscissae (no dominating measure exists there).
    """
    best = {}
    for x, v in points:
        if v == NEG_INF:
            continue
        if x not in best or v > best[x]:
            best[x] = v
    pts = sorted(best.items())
    if not pts:
        return NEG_INF
    if x0 < pts[0][0] or x0 > pts[-1][0]:
        return NEG_INF
    hull = []
    for p in pts:
        while len(hull) >= 2:
            (x1, v1), (x2, v2) = hull[-2], hull[-1]
            # drop x2 if it lies on or below segment x1 -> p
            if (v2 - v1) * (p[0] - x1) <= (p[1] - v1) * (x2 - x1):
                hull.pop()
            else:
                break
        hull.append(p)
    for (x1, v1), (x2, v2) in zip(hull, hull[1:]):
        if x1 <= x0 <= x2:
            if x1 == x2:
                return max(v1, v2)
            lam = (x0 - x1) / (x2 - x1)
            return v1 + lam * (v2 - v1)
    return hull[0][1] if x0 == hull[0][0] else hull[-1][1]


# -- ess-sup and upward directedness -------------------------------------


def ess_sup_check(tree: MarketTree, xi: Mapping, fam: FamilySpec, tau, P: TreeMeasure, tol: float = TOL) -> bool:
    """At every tau-node charged by P, the DP value equals the subtree LP sup."""
    from .dual_dp import backward_value

    ok, why = in_family(tree, P, fam)
    if not ok:
        raise MeasureError(f"P is not in the family: {why}")
    mass = P.node_mass(tree)
    Y = backward_value(tree, xi, fam)  # a node's DP value depends only on its subtree
    for m in sorted(set(tau)):
        if mass[m] == 0:
            continue
        lp, _ = global_sup_lp(tree, xi, fam, start=m)
        if value_gap(Y[m], lp) > tol:
            return False
    return True


def upward_directed_check(tree: MarketTree, xi: Mapping, fam: FamilySpec, nid: int, P1: TreeMeasure, P2: TreeMeasure, tol: float = 1e-12) -> bool:
    """Bifurcating toward the better conditional expectation dominates both."""
    level = tree.time(nid)
    tau = tree.nodes_at(level)
    e1 = {m: P1.expectation(tree, xi, start=m) for m in tau}
    e2 = {m: P2.expectation(tree, xi, start=m) for m in tau}
    A = {m for m in tau if e2[m] <= e1[m]}  # -inf is a float: <= orders [-inf, inf)
    Pbar = bifurcate(tree, P1, P2, tau, A)
    mass = Pbar.node_mass(tree)
    for m in tau:
        if mass[m] == 0:
            continue
        # A picks the larger expectation, so the target is the best of the two
        if value_gap(Pbar.expectation(tree, xi, start=m), max(e1[m], e2[m])) > tol:
            return False
    return True
