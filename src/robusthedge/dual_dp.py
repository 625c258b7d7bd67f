"""Backward dynamic programming for the dual value field.

Y(leaf) = claim; Y(n) = sup of the expected child values over the one-step
family polytope at n.  On a finite tree this recursion attains the global
sup of E[claim] over the measure family at the root, which the LP oracles
cross-check independently.

-inf is handled symbolically: a kernel may never put mass on a -inf child,
and a node is worth -inf exactly when no family kernel avoids all of them.

The claim sets the numeric mode, once per `backward_value` call: exact iff
no finite claim value is a float.  `ValueField.exact` records it and every
`one_step_sup` takes it.  Exact mode reads float spots and variance bounds
by their exact binary value, as `one_step_rows` and the exact LPs do, so it
equals both LPs with no gap; float mode gives floats, leaves included.

`backward_value` walks the tree level by level from the leaves up (the
breadth-first ids make each level, and the children of each level, one
contiguous block).  The value field is a `NodeValues` over every node id and
its hedge a `NodeVectors` of d columns over the internal ids, each written
one level slice at a time.  A level of a MARTINGALE family (claim-restricted
or not) on a d = 1 tree is solved by numpy array passes over its (n x k)
block of child values and its spot steps (`MarketTree.child_steps`: one row
of k steps shared by every node of a tree with int offsets, else one row
per node) when it has at least LEVEL_BATCH_MIN nodes, the tree's spot array
(`MarketTree.spot_array`) is float64 and the claim is in float mode.  Those
are checked once per call, not per level: the leaf values come as a float64
array (the claim's own, from `make_claim`, or read once), and each batched
level hands its value array straight to the level above.  The field and
hedge columns keep those arrays next to their Python floats, so
`extract_strategy` and `verify_superhedge` read them too.  The passes repeat
the float branch of `one_step_sup` operation for operation, so values and h
are bitwise equal; they build a per-node mask only where the nodes of a
block can differ (see `_martingale_rows`).  Every other level, and the root,
goes through `one_step_sup` node by node; so do exact values, ALL,
VAR_BOUNDED, d >= 2, and Fraction or large int spots.  No level is narrower
than the one above it, so once a level goes node by node every level above
it does too.

LEVEL_BATCH_MIN = 64 sits well above the crossover of the two paths, which
is 13-25 nodes (timed per level on one core of an Intel Xeon, Python 3.11,
numpy 2.4: the array pass costs 0.15-0.43 ms for a level of 2-5 children plus
about 1.3-3.5 us per node, a `one_step_sup` 11-27 us per node).  It is also
above the widest internal level `random_instances.random_tree` draws (27
nodes), so the property suites stay on the per-node path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

from . import simplex
from .market_tree import (
    NEG_INF,
    TOL,
    MarketTree,
    NodeValues,
    NodeVectors,
    node_array,
    stopping_time_below,
    validate_stopping_time,
    value_gap,
)
from .measure_families import (
    ALL,
    MARTINGALE,
    FamilySpec,
    Kernel,
    MeasureError,
    TreeMeasure,
    in_family,
    martingale_chargeable_1d,
    one_step_rows,
)

OPT_TOL = 1e-10
# narrowest level that `backward_value` solves in one array pass (see the
# module docstring for how it was chosen)
LEVEL_BATCH_MIN = 64
# nodes per numpy pass: bounds the pass's temporary arrays, which otherwise
# leave the 10^5-node levels' process a few MB larger
_BLOCK_ROWS = 4096


@dataclass
class OneStepSolution:
    """Value, optimizing kernel, and the hedge multiplier of one node solve."""

    value: object
    kernel: Optional[Kernel]
    h: tuple


def _children_values(tree, nid, child_values) -> dict:
    """{child: value} over nid's children, each read once from
    `child_values` (a value field reads through a Python method)."""
    try:
        return {c: child_values[c] for c in tree.children(nid)}
    except KeyError as exc:
        raise MeasureError(f"missing child value for node {exc.args[0]}") from None


def _infeasible(d):
    return OneStepSolution(NEG_INF, None, tuple([0.0] * d))


def _solution(nid, value, probs, h, exact) -> OneStepSolution:
    """A one-step solution in the claim's mode: floats in float mode."""
    if not exact:
        value, h = float(value), tuple(map(float, h))
        probs = {c: float(p) for c, p in probs.items()}
    return OneStepSolution(value, Kernel(nid, probs), h)


def _h_interval_midpoint(deltas, values, value, chargeable):
    """Supergradient of the one-step value in d = 1: midpoint of the
    subdifferential interval when it is compact, else its point closest to 0."""
    lo, hi = None, None
    for c, dc in deltas.items():
        if c not in chargeable or values[c] == NEG_INF:
            continue
        if dc > 0:
            bound = (values[c] - value) / dc
            lo = bound if lo is None else max(lo, bound)
        elif dc < 0:
            bound = (values[c] - value) / dc
            hi = bound if hi is None else min(hi, bound)
    if lo is not None and hi is not None:
        return (lo + hi) / 2
    if lo is not None:
        return max(lo, 0)
    if hi is not None:
        return min(hi, 0)
    return 0


def one_step_sup(
    tree: MarketTree, nid: int, child_values: Mapping, fam: FamilySpec, *, exact: bool, memo: Optional[dict] = None
) -> OneStepSolution:
    """Maximize the expected child value over family kernels at `nid`.

    Mass is forced to zero on -inf children.  The returned h is a dual
    multiplier: value + h.(x_c - x_n) >= V_c at every chargeable child
    (plus variance-dual terms for VAR_BOUNDED).  `exact` is the claim's
    numeric mode (see the module docstring).  `memo` is the phase-1 memo
    of `simplex.solve_lp` that the one-step LP passes on.
    """
    d = tree.dim
    child_values = _children_values(tree, nid, child_values)
    fin = [c for c, v in child_values.items() if v != NEG_INF]
    if not fin:
        return _infeasible(d)

    if fam.cls == ALL:
        best = max(fin, key=lambda c: (child_values[c], -c))
        return _solution(nid, child_values[best], {best: 1}, (0,) * d, exact)

    if fam.cls == MARTINGALE and d == 1:
        xn = tree.spot1(nid)
        deltas = {c: tree.spot1(c) - xn for c in tree.children(nid)}
        if exact:
            deltas = {c: simplex.rat(v) for c, v in deltas.items()}
        candidates = []  # (value, support) of the vertex kernels
        for c in fin:
            if deltas[c] == 0:
                candidates.append((child_values[c], (c,)))
        for a in fin:
            if deltas[a] >= 0:
                continue
            for b in fin:
                if deltas[b] <= 0:
                    continue
                da, db = deltas[a], deltas[b]
                pa = db / (db - da)
                pb = -da / (db - da)
                candidates.append((pa * child_values[a] + pb * child_values[b], (a, b)))
        if not candidates:
            return _infeasible(d)
        best_val = max(v for v, _ in candidates)
        value, support = min(
            (cand for cand in candidates if cand[0] == best_val),
            key=lambda cand: (len(cand[1]), cand[1]),
        )
        if len(support) == 1:
            probs = {support[0]: 1}
        else:
            a, b = support
            da, db = deltas[a], deltas[b]
            probs = {a: db / (db - da), b: -da / (db - da)}
        chargeable = martingale_chargeable_1d(deltas)
        h1 = _h_interval_midpoint(deltas, child_values, value, chargeable)
        return _solution(nid, value, probs, (h1,), exact)

    return _one_step_lp(tree, nid, child_values, fam, fin, exact, memo)


def _one_step_lp(tree, nid, child_values, fam, fin, exact, memo):
    d = tree.dim
    c_obj = [simplex.rat(child_values[c]) for c in fin]
    A_eq, b_eq, A_ub, b_ub = one_step_rows(tree, nid, fin, fam)
    res = simplex.solve_lp(c_obj, A_eq, b_eq, A_ub, b_ub, memo=memo)
    if res.status == "infeasible":
        return _infeasible(d)
    if res.status != "optimal":  # pragma: no cover
        raise MeasureError(f"one-step LP ended with status {res.status}")
    probs = {c: p for c, p in zip(fin, res.x) if p > 0}
    return _solution(nid, res.value, probs, tuple(res.y_eq[1 : 1 + d]), exact)


class ValueField(NodeValues):
    """The dual value field, node id -> value over every node id, as built
    by `backward_value`.

    `hedge` maps each internal node to the multiplier h of its one-step
    solve, a d-tuple stored as d columns (`NodeVectors`); `tree`, `fam` and
    `exact` record what the field was built for.  Both start with every id
    empty.
    """

    def __init__(self, tree: MarketTree, fam: FamilySpec, exact: bool):
        super().__init__(tree.nodes)
        self.tree, self.fam, self.exact = tree, fam, exact
        self.hedge = NodeVectors.empty(tree.internal_nodes, tree.dim)


def backward_value(tree: MarketTree, xi: Mapping, fam: FamilySpec) -> ValueField:
    """The dual value field: node id -> sup over the family below that node,
    with the one-step multipliers in `.hedge`.  Walks the levels from the
    leaves up; see the module docstring for the mode and the array levels.
    The one-step LPs share one phase-1 memo for the call: a tree repeats
    the same rows node after node."""
    leaves = tree.leaves
    # the values of the level below, as a float64 array while they are floats
    vals = node_array(xi, leaves)
    claim = list(xi.values()) if vals is not None else list(map(xi.__getitem__, leaves))
    exact = vals is None and not any(isinstance(v, float) and v != NEG_INF for v in claim)
    if vals is None and not exact:
        import numpy as np

        vals = np.array(claim, dtype=float)
        claim = vals.tolist()
    Y = ValueField(tree, fam, exact)
    Y.write(leaves, claim, vals)
    batch = (
        fam.cls == MARTINGALE
        and tree.dim == 1
        and len(tree.levels[-2]) >= LEVEL_BATCH_MIN
        and tree.spot_array(0).dtype != object
    )
    if not batch:
        vals = None
    memo = {}
    for level in reversed(tree.levels[:-1]):
        if vals is not None and len(level) >= LEVEL_BATCH_MIN:
            vals = _martingale_level_1d(tree, level, Y, vals)
        else:
            vals = None
            for nid in reversed(level):
                sol = one_step_sup(tree, nid, Y, fam, exact=exact, memo=memo)
                Y[nid] = sol.value
                Y.hedge[nid] = sol.h
    return Y


def _martingale_level_1d(tree: MarketTree, level: range, Y: ValueField, vals):
    """Solve every node of the internal `level` by the d = 1 martingale
    branch of `one_step_sup` in float mode, in array passes of _BLOCK_ROWS
    nodes, and write the values and multipliers into Y's slices of the
    level.  The level's children are the next level, k per node in order,
    with the values `vals` (float64, in id order); each block reads its
    nodes' steps from `MarketTree.child_steps`.  Returns the level's values
    as a float64 array in id order."""
    import numpy as np

    k = len(tree.offsets)
    blocks = [
        _martingale_rows(tree.child_steps(level[r : r + _BLOCK_ROWS]), vals[k * r : k * (r + _BLOCK_ROWS)], k)
        for r in range(0, len(level), _BLOCK_ROWS)
    ]
    values = np.concatenate([v for v, _ in blocks])
    hs = np.concatenate([h for _, h in blocks])
    # Python floats, never np.float64
    Y.write(level, values.tolist(), values)
    Y.hedge.columns[0].write(level, hs.tolist(), hs)
    return values


def _martingale_rows(D, vals, k: int) -> tuple:
    """Values and multipliers, as float64 arrays, of n nodes whose k
    children each have the values `vals` (float64, row-major, n x k) and
    the spot steps `D`: an (n x k) array, or one (1 x k) row that every
    node shares (`MarketTree.child_steps`).  Each array operation repeats
    the per-node one on the same doubles, so the results are bitwise
    equal: candidates in the same order (flat children, then the pairs
    (a, b) with D_a < 0 < D_b), the first maximum (a NaN counts as the
    largest value, as in argmax), and the bounds of `_h_interval_midpoint`
    folded child by child with the keep-unless-strictly-better rule of
    max() and min().

    Per-node masks are built only where nodes can differ: a pair is first
    tested on the step signs, the -inf masks only when some child value is
    -inf, the fold visits only the children some node charges, and the
    midpoint rule's fallbacks run only where some node lacks a bound on one
    side.  On a shared row with finite values every mask is one flag."""
    import numpy as np

    V = vals.reshape(-1, k)
    n = len(V)
    fin = V != NEG_INF
    if fin.all():
        fin, V0 = fin[:1], V  # one row of flags serves every node
    else:
        V0 = np.where(fin, V, 0.0)  # -inf children are masked out of every candidate
    flat, neg, pos = D == 0, D < 0, D > 0
    cands, masks = [], []
    with np.errstate(all="ignore"):
        # the candidates that some node has by the step signs alone, in the
        # per-node order; one that a -inf child takes from every node stays,
        # masked to -inf, which changes no pick below
        for j in np.flatnonzero(flat.any(axis=0)).tolist():
            cands.append(V0[:, j])
            masks.append(flat[:, j] & fin[:, j])
        for a, b in np.argwhere((neg[:, :, None] & pos[:, None, :]).any(axis=0)).tolist():
            da, db = D[:, a], D[:, b]
            cands.append(db / (db - da) * V0[:, a] + -da / (db - da) * V0[:, b])
            masks.append(neg[:, a] & pos[:, b] & fin[:, a] & fin[:, b])
        if not cands:  # no node has a martingale kernel
            return np.full(n, NEG_INF), np.zeros(n)
        every = all(ok.all() for ok in masks)  # each candidate is every node's
        value = None
        for c, ok in zip(cands, masks):
            if not every:
                c = np.where(ok, c, NEG_INF)
            # argmax's pick: c replaces the maximum so far when it is larger,
            # or a NaN where the maximum so far is not
            value = c if value is None else np.where(~(c <= value) & (value == value), c, value)
        use = (flat | (neg & pos.any(axis=1, keepdims=True)) | (pos & neg.any(axis=1, keepdims=True))) & fin
        if not every:  # a node without a kernel charges no child
            use = use & np.logical_or.reduce(masks)[:, None]

        # _h_interval_midpoint over the chargeable children of
        # martingale_chargeable_1d
        up, down = use & pos, use & neg
        lo, hi = np.zeros(n), np.zeros(n)
        lo_set, hi_set = np.zeros(1, dtype=bool), np.zeros(1, dtype=bool)
        for j, (up_any, down_any) in enumerate(zip(up.any(axis=0).tolist(), down.any(axis=0).tolist())):
            if not (up_any or down_any):
                continue
            bound = (V[:, j] - value) / D[:, j]
            if up_any:
                lo = np.where(up[:, j] & (~lo_set | (bound > lo)), bound, lo)
                lo_set = lo_set | up[:, j]
            if down_any:
                hi = np.where(down[:, j] & (~hi_set | (bound < hi)), bound, hi)
                hi_set = hi_set | down[:, j]
        both = lo_set & hi_set
        h = (lo + hi) / 2
        if not both.all():
            h = np.where(
                both,
                h,
                np.where(lo_set, np.where(lo < 0, 0.0, lo), np.where(hi_set & ~(hi > 0), hi, 0.0)),
            )
    return value, h


def optimizer_measure(tree: MarketTree, xi: Mapping, fam: FamilySpec) -> Optional[TreeMeasure]:
    """Measure built from the per-node optimizing kernels (None if root -inf).

    The kernels come from re-solving each node against the value field.
    Kernels at -inf nodes are completed arbitrarily only when the node is
    unreachable under the optimizer; reachable nodes always have one.
    """
    Y = backward_value(tree, xi, fam)
    if Y[tree.root] == NEG_INF:
        return None
    kernels = {}
    for nid in tree.internal_nodes:
        kernel = one_step_sup(tree, nid, Y, fam, exact=Y.exact).kernel
        if kernel is not None:
            kernels[nid] = kernel
    return TreeMeasure(kernels)


def check_supermartingale(tree: MarketTree, Y: Mapping, P: TreeMeasure, fam: FamilySpec, tol: float = TOL) -> tuple:
    """Is Y a P-supermartingale?  Returns (ok, worst_node)."""
    ok_mem, why = in_family(tree, P, fam)
    if not ok_mem:
        raise MeasureError(f"P is not in the family: {why}")
    mass = P.node_mass(tree)
    worst_node, worst_gap = None, None
    for nid in tree.internal_nodes:
        if mass[nid] == 0:
            continue
        lhs = 0
        for c in tree.children(nid):
            p = P.prob(nid, c)
            if p == 0:
                continue
            if Y[c] == NEG_INF:
                lhs = NEG_INF
                break
            lhs += p * Y[c]
        gap = -1 if lhs == NEG_INF else lhs - (Y[nid] if Y[nid] != NEG_INF else lhs)
        if worst_gap is None or gap > worst_gap:
            worst_gap, worst_node = gap, nid
        if Y[nid] == NEG_INF and lhs != NEG_INF:
            return False, nid
        if lhs != NEG_INF and lhs > Y[nid] + tol:
            return False, nid
    return True, worst_node


def check_tower(tree: MarketTree, xi: Mapping, fam: FamilySpec, sigma, tau, tol: float = OPT_TOL) -> bool:
    """Re-optimizing from sigma with terminal data Y|tau reproduces Y|sigma."""
    for S in (sigma, tau):
        ok, why = validate_stopping_time(tree, S)
        if not ok:
            raise MeasureError(f"invalid stopping time: {why}")
    if not stopping_time_below(tree, sigma, tau):
        raise MeasureError("sigma must come at or before tau on every path")
    Y = backward_value(tree, xi, fam)
    tau = set(tau)
    memo = {}

    def val(nid):
        if nid in tau:
            return Y[nid]
        if nid not in memo:
            child_vals = {c: val(c) for c in tree.children(nid)}
            memo[nid] = one_step_sup(tree, nid, child_vals, fam, exact=Y.exact).value
        return memo[nid]

    for m in sigma:
        lhs, rhs = val(m), Y[m]
        if value_gap(lhs, rhs) > tol:
            return False
    return True
