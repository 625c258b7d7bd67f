"""Primal superhedging: strategy extraction, verification, Doob-Meyer split.

The primal LP minimizes the initial capital subject to terminal wealth
dominating the claim on every leaf whose claim is finite.  It is the LP
dual of the leaf-law LP of `oracle_lp.global_sup_lp`, over the one
leaf-space lift of the family's rows (`oracle_lp.leaf_law_rows`) read as
columns, one variable per lifted row.  So it solves no LP of its own: its
optimum is read from the row duals of the certified leaf-law LP optimum
(`oracle_lp.leaf_law_lp`), which `certify_hedge` checks leaf by leaf
without a solver, after Applegate, Cook, Dash & Espinoza (2007);
`certify_hedge` and `HedgeError` live in `oracle_lp`, and are imported
here.  The optimum matches the dual DP value (strong duality on finite
trees).  The extracted strategy is read from the one-step dual
multipliers that the DP keeps in its value field, so the hedge comes from
the same backward pass as the value, and it achieves that optimum path by
path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import Mapping, Optional, Sequence

from .dual_dp import ValueField
from .market_tree import NEG_INF, TOL, MarketTree, NodeValues, NodeVectors, node_array
from .measure_families import FamilySpec, TreeMeasure, alive_nodes, polar_paths
from .oracle_lp import HedgeError, certify_hedge, leaf_law_lp  # noqa: F401 (certify_hedge is re-exported)


@dataclass
class Strategy:
    """Hedge vectors per non-leaf node (node id -> d-tuple); flagged nodes
    are polar-excluded (their h is 0 by convention and never enters a
    checked inequality)."""

    h: Mapping
    flagged: set = field(default_factory=set)


@dataclass
class HedgeReport:
    ok: bool
    min_slack: Optional[float]
    violations: list
    polar: list
    slacks: Mapping  # leaf id -> slack over the non-polar leaves, in id order


def extract_strategy(tree: MarketTree, Y: ValueField, fam: FamilySpec) -> Strategy:
    """The hedge read from the one-step dual multipliers that
    `backward_value` kept in `Y.hedge`; -inf nodes are flagged.  The hedge
    is a `NodeVectors` over the internal ids, one column per coordinate;
    the flags come from one mask over the field's float64 array when it
    has one, and each column that keeps an array is copied as an array."""
    import numpy as np

    if not isinstance(Y, ValueField) or Y.tree is not tree or Y.fam != fam or tree.root not in Y:
        raise HedgeError("Y is not the DP value field of this tree and family")
    if Y[tree.root] == NEG_INF:
        raise HedgeError("family is empty below the root: no hedge is defined")
    internal = tree.internal_nodes  # ids from 0, so each id is its index
    ys = node_array(Y, Y.ids)
    if ys is not None:
        flagged = np.flatnonzero(ys[: len(internal)] == NEG_INF).tolist()
    else:
        flagged = [nid for nid in internal if Y[nid] == NEG_INF]
    columns = []
    for col in Y.hedge.columns:
        hs = node_array(col, internal)
        if hs is not None:
            hs = hs.copy()
            hs[flagged] = 0.0
            columns.append(NodeValues.from_array(internal, hs))
        else:
            zero = set(flagged)
            columns.append(NodeValues(internal, [0.0 if nid in zero else col[nid] for nid in internal]))
    return Strategy(h=NodeVectors(columns), flagged=set(flagged))


def wealth(tree: MarketTree, X0, H: Strategy, path: Sequence[int]):
    """X0 plus the accumulated hedge gains along the path."""
    total = X0
    for i in range(len(path) - 1):
        n, c = path[i], path[i + 1]
        hn = H.h[n]
        step = tree.step(n, c)
        for k in range(tree.dim):
            total += hn[k] * step[k]
    return total


def verify_superhedge(tree: MarketTree, X0, H: Strategy, xi: Mapping, fam: FamilySpec, tol: float = TOL) -> HedgeReport:
    """Wealth >= claim on every non-polar path (the quasi-sure inequality).

    Polar paths are excluded from the check and listed in the report.  The
    wealth is accumulated level by level over the tree's spot arrays, with
    the same additions, in the same order, as `wealth` along each
    root-to-leaf path; the slacks, their minimum and the violations are
    masks over the leaves.  The passes run on float64 arrays when X0, every
    hedge entry and every spot is a float (or a spot array is float64 for
    small int spots), reading the steps from `MarketTree.child_steps` (one
    row per tree for int offsets), and on object arrays of the values
    themselves otherwise, so every slack has the value and type Python's
    arithmetic gives it.  The hedge columns and the claim are read as the
    float64 arrays they keep (`node_array`) when they have them, else id by
    id; the slacks come back as a `NodeValues` over the leaf ids, with the
    polar leaves empty.
    """
    import numpy as np

    polar = polar_paths(tree, fam, xi)
    internal, leaves = tree.internal_nodes, tree.leaves
    columns = [node_array(c, internal) for c in H.h.columns] if isinstance(H.h, NodeVectors) else [None]
    spots = [tree.spot_array(j) for j in range(tree.dim)]
    if len(columns) == tree.dim and all(c is not None for c in columns):
        hmat = np.stack(columns, axis=1)  # every entry a float
        floats = type(X0) is float
    else:
        hs = list(map(H.h.__getitem__, internal))
        hmat = None
        floats = type(X0) is float and set(map(type, chain.from_iterable(hs))) == {float}
    floats = floats and all(xs.dtype != object for xs in spots)
    dtype = float if floats else object
    if hmat is None:
        hmat = np.fromiter(chain.from_iterable(hs), dtype=dtype, count=len(hs) * tree.dim).reshape(-1, tree.dim)
    else:
        hmat = hmat.astype(dtype, copy=False)
    W = np.array([X0], dtype=dtype)
    if not floats:
        spots = [np.array(tree.coords[j], dtype=object) for j in range(tree.dim)]
    # wealth level by level from the root: each parent's wealth and hedge
    # broadcast over the steps to its k children, one pass per coordinate
    k = len(tree.offsets)
    for level, below in zip(tree.levels, tree.levels[1:]):
        W = W[:, None]
        for j in range(tree.dim):
            if floats:
                steps = tree.child_steps(level, j)
            else:
                steps = spots[j][below.start : below.stop].reshape(-1, k) - spots[j][level.start : level.stop, None]
            W = W + hmat[level.start : level.stop, j, None] * steps
        W = W.ravel()
    keep = np.ones(len(leaves), dtype=bool)
    keep[[p[-1] - leaves.start for p in polar]] = False  # -inf leaves are polar too
    claim = node_array(xi, leaves)
    if claim is None:
        values = list(map(xi.__getitem__, leaves))
        claim = np.array(values, dtype=float if set(map(type, values)) == {float} else object)
    if not floats or claim.dtype == object:
        W, claim = W.astype(object), claim.astype(object)
    slack = W[keep] - claim[keep]
    del W, claim
    bad = ~(slack >= -tol)  # a NaN slack is a violation too
    values = slack.tolist()
    if keep.all():
        slacks = NodeValues(leaves, values, slack if slack.dtype == float else None)
    else:
        slacks = NodeValues.where(leaves, keep, slack)
    return HedgeReport(
        ok=not bad.any(),
        min_slack=values[np.argmin(slack)] if values else None,
        violations=[tree.path_to(leaves[i]) for i in np.flatnonzero(keep)[bad].tolist()],
        polar=polar,
        slacks=slacks,
    )


# -- the primal LP -------------------------------------------------------


def primal_lp(tree: MarketTree, xi: Mapping, fam: FamilySpec, exact: bool = True):
    """(minimal initial capital, optimal Strategy): the LP dual of the
    leaf-law LP of `oracle_lp.global_sup_lp`, over the same lifted rows.

    Minimize X0 such that X0 + sum_r y_r (a_c - b) >= xi_l at every leaf l
    whose claim is finite, r over the rows of `oracle_lp.leaf_law_rows`
    (every `one_step_rows` row after the mass row, at every node n above l)
    and c n's child on l's path.  y_r is free for an equality row and >= 0
    for a `<=` row; a mean row's y_r is the hedge at its node, and for
    VAR_BOUNDED the `<=` rows' y_r are the variance positions.  No LP of
    its own is solved: X0 = y_eq[0] and the positions are the row duals of
    the certified leaf-law LP optimum (`oracle_lp.leaf_law_lp`, shared with
    `global_sup_lp`, whose limits and errors apply).  The value is -inf,
    with every node flagged, exactly when no family measure avoids the -inf
    leaves.  Otherwise the flagged nodes are those that `alive_nodes` does
    not mark, where the DP value is -inf, and their hedge is 0.  In exact
    mode the certified optimal law is a family law that avoids the -inf
    leaves, so every node it charges is alive, and `alive_nodes` looks only
    at the others; a float law is not a proof, so float mode looks at all.
    """
    lp = leaf_law_lp(tree, xi, fam, tree.root, exact)
    internal, zero = tree.internal_nodes, tuple([0.0] * tree.dim)
    if lp is None:
        return NEG_INF, Strategy(h=dict.fromkeys(internal, zero), flagged=set(internal))
    leaves, eq, res = lp
    charged = set()
    if exact:
        for leaf, q in zip(leaves, res.x):
            n = tree.parent(leaf) if q else None
            while n is not None and n not in charged:
                charged.add(n)
                n = tree.parent(n)
    alive = alive_nodes(tree, fam, xi, charged)
    hedge = {n: [] for n in internal if alive[n]}
    for (n, _), y in zip(eq, res.y_eq[1:]):
        if n in hedge:
            hedge[n].append(y)  # the node's mean rows come first, one per coordinate
    h = {n: tuple(hedge[n][: tree.dim]) if hedge.get(n) else zero for n in internal}
    return res.y_eq[0], Strategy(h=h, flagged={n for n in internal if not alive[n]})


# -- Doob-Meyer ----------------------------------------------------------


def doob_meyer(tree: MarketTree, Y: Mapping, H: Strategy, P: TreeMeasure, tol: float = TOL) -> dict:
    """Cumulative compensator K along P-charged edges; K(root) = 0.

    An increment below -tol means the hedge fails its one-step inequality
    on a charged edge, which is a solver bug, so it raises.
    """
    mass = P.node_mass(tree)
    K = {tree.root: 0}
    for nid in tree.internal_nodes:
        if mass[nid] == 0:
            continue
        if Y[nid] == NEG_INF:
            raise HedgeError(f"charged node {nid} has value -inf")
        for c in tree.children(nid):
            if P.prob(nid, c) == 0:
                continue
            if Y[c] == NEG_INF:
                raise HedgeError(f"charged child {c} has value -inf")
            step = tree.step(nid, c)
            inc = Y[nid] - Y[c]
            for k in range(tree.dim):
                inc += H.h[nid][k] * step[k]
            if inc < -tol:
                raise HedgeError(
                    f"negative compensator increment {inc} on edge {nid}->{c}"
                )
            K[c] = K[nid] + inc
    return K
