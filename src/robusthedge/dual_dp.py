"""Backward dynamic programming for the dual value field.

Y(leaf) = claim; Y(n) = sup of the expected child values over the one-step
family polytope at n.  On a finite tree this recursion attains the global
sup of E[claim] over the measure family at the root, which the LP oracles
cross-check independently.

-inf is handled symbolically: a kernel may never put mass on a -inf child,
and a node is worth -inf exactly when no family kernel avoids all of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

from . import simplex
from .market_tree import NEG_INF, MarketTree, stopping_time_below, validate_stopping_time
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
PROP_TOL = 1e-9


@dataclass
class OneStepSolution:
    """Value, optimizing kernel, and the hedge multiplier of one node solve."""

    value: object
    kernel: Optional[Kernel]
    h: tuple


def _is_exact(values) -> bool:
    return not any(isinstance(v, float) and v != NEG_INF for v in values)


def _finite_children(tree, nid, child_values):
    fin = []
    for c in tree.children(nid):
        if c not in child_values:
            raise MeasureError(f"missing child value for node {c}")
        if child_values[c] != NEG_INF:
            fin.append(c)
    return fin


def _as_mode(x, exact):
    if exact or x == NEG_INF:
        return x
    return float(x)


def _infeasible(d):
    return OneStepSolution(NEG_INF, None, tuple([0.0] * d))


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


def one_step_sup(tree: MarketTree, nid: int, child_values: Mapping, fam: FamilySpec) -> OneStepSolution:
    """Maximize the expected child value over family kernels at `nid`.

    Mass is forced to zero on -inf children.  The returned h is a dual
    multiplier: value + h.(x_c - x_n) >= V_c at every chargeable child
    (plus variance-dual terms for VAR_BOUNDED).
    """
    d = tree.dim
    fin = _finite_children(tree, nid, child_values)
    exact = _is_exact([child_values[c] for c in fin]) and _is_exact(
        [v for c in fin for v in tree.spot(c)]
    )
    if not fin:
        return _infeasible(d)

    if fam.cls == ALL:
        best = max(fin, key=lambda c: (child_values[c], -c))
        value = child_values[best]
        h = tuple([0] * d) if exact else tuple([0.0] * d)
        kernel = Kernel(nid, {best: 1 if exact else 1.0})
        return OneStepSolution(_as_mode(value, exact), kernel, h)

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
        if not exact:
            value = float(value)
            h1 = float(h1)
            probs = {c: float(p) for c, p in probs.items()}
        return OneStepSolution(value, Kernel(nid, probs), (h1,))

    return _one_step_lp(tree, nid, child_values, fam, fin, exact)


def _one_step_lp(tree, nid, child_values, fam, fin, exact):
    d = tree.dim
    c_obj = [simplex.rat(child_values[c]) for c in fin]
    A_eq, b_eq, A_ub, b_ub = one_step_rows(tree, nid, fin, fam)
    res = simplex.solve(c_obj, A_eq, b_eq, A_ub, b_ub, exact=True)
    if res.status == "infeasible":
        return _infeasible(d)
    if res.status != "optimal":  # pragma: no cover
        raise MeasureError(f"one-step LP ended with status {res.status}")
    value = res.value
    probs = {c: p for c, p in zip(fin, res.x) if p > 0}
    h = tuple(res.y_eq[1 + k] for k in range(d))
    if not exact:
        value = float(value)
        probs = {c: float(p) for c, p in probs.items()}
        h = tuple(float(v) for v in h)
    return OneStepSolution(value, Kernel(nid, probs), h)


class ValueField(dict):
    """The dual value field, node id -> value, as built by `backward_value`.

    `hedge` maps each internal node to the multiplier h of its one-step
    solve; `tree` and `fam` record what the field was built for.
    """

    def __init__(self, tree: MarketTree, fam: FamilySpec):
        super().__init__()
        self.tree, self.fam = tree, fam
        self.hedge = {}


def backward_value(tree: MarketTree, xi: Mapping, fam: FamilySpec, start: Optional[int] = None) -> ValueField:
    """The dual value field below `start`: node id -> sup over the family
    below that node, with the one-step multipliers in `.hedge`."""
    start = tree.root if start is None else start
    Y = ValueField(tree, fam)
    for nid in reversed(tree.subtree_nodes(start)):
        if tree.is_leaf(nid):
            Y[nid] = xi[nid]
        else:
            sol = one_step_sup(tree, nid, Y, fam)
            Y[nid] = sol.value
            Y.hedge[nid] = sol.h
    return Y


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
        kernel = one_step_sup(tree, nid, Y, fam).kernel
        if kernel is not None:
            kernels[nid] = kernel
    return TreeMeasure(kernels)


def check_supermartingale(tree: MarketTree, Y: Mapping, P: TreeMeasure, fam: FamilySpec, tol: float = PROP_TOL) -> tuple:
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
            memo[nid] = one_step_sup(tree, nid, child_vals, fam).value
        return memo[nid]

    for m in sigma:
        lhs, rhs = val(m), Y[m]
        if lhs == NEG_INF or rhs == NEG_INF:
            if lhs != rhs:
                return False
        elif abs(lhs - rhs) > tol:
            return False
    return True
