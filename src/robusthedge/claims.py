"""Named payoffs on tree leaves.

A claim maps each leaf id to a value in [-inf, +inf); +inf never occurs.
Named payoffs read the first spot coordinate; explicit tables may contain
"-inf" entries (or the number -inf, the same in both modes) to exercise the
claim-restricted family.  `make_claim` refuses, with a ClaimError in both
modes, a table value that is neither a finite real number nor -inf and a
strike that is not a finite real number; a bool is not a number, as in
JSON.

`make_claim` returns a `NodeValues` over the leaf id range: the values in
one Python list in leaf order, plus, in float mode, the float64 array they
came from, which the DP, `polar_paths` and `verify_superhedge` read
directly.  Any other mapping from leaf id to value is a claim as well.

Named payoffs are numpy passes over the tree's spot array
(`MarketTree.spot_array`), converted to the claim's mode: float64 in float
mode, an object array of rationals in exact mode.  The running max and sum
of the path-dependent kinds go level by level from the root, each parent's
entry broadcast over the row of its k children, with the same comparisons
and additions as max() and sum() over the root-to-leaf spot list.
"""

from __future__ import annotations

import math
import numbers
from typing import Mapping

from .market_tree import NEG_INF, MarketTree, NodeValues
from .simplex import rat

NAMED_KINDS = ("call", "abs", "lookback", "asian", "digital", "linear")


class ClaimError(ValueError):
    pass


def _finite(v) -> bool:
    """v is a finite real number, and not a bool."""
    return isinstance(v, numbers.Real) and not isinstance(v, bool) and -math.inf < v < math.inf


def _pos(v):
    """v if v > 0 else 0 * v, elementwise, in place on the fresh array v
    (0 * v keeps the sign of zero and the number type); 0 * v is computed
    only where it is taken."""
    low = ~(v > 0)
    v[low] = 0 * v[low]
    return v


def _mode_spots(tree: MarketTree, start: int, exact: bool):
    """The first spot coordinate of the nodes from id `start` on, as the
    claim's numbers: an object array of `rat` of the spots themselves in
    exact mode, float64 otherwise."""
    import numpy as np

    if exact:
        xs = tree.coords[0][start:]
        return np.fromiter(map(rat, xs), dtype=object, count=len(xs))
    xs = tree.spot_array(0)[start:]
    if xs.dtype == object:
        return np.fromiter(map(float, xs), dtype=float, count=len(xs))
    return xs


def make_claim(tree: MarketTree, spec: Mapping, exact: bool = False) -> NodeValues:
    """Build a claim from a JSON-style spec: {"kind": ..., "strike": k} or
    {"kind": "table", "values": {leaf_id: value | "-inf"}}."""
    import numpy as np

    kind = spec.get("kind")
    leaves = tree.leaves
    if kind == "table":
        values = spec["values"]
        out = []
        for leaf in leaves:
            key = str(leaf)
            if key not in values and leaf not in values:
                raise ClaimError(f"table claim misses leaf {leaf}")
            v = values.get(key, values.get(leaf))
            if v == "-inf" or v == NEG_INF:
                out.append(NEG_INF)
            elif not _finite(v):
                raise ClaimError(f"table value {v!r} at leaf {leaf} is neither finite nor -inf")
            else:
                out.append(rat(v) if exact else float(v))
        return NodeValues(leaves, out, None if exact else np.array(out))
    if kind not in NAMED_KINDS:
        raise ClaimError(f"unknown claim kind {kind!r}")

    strike = spec.get("strike", 0)
    if not _finite(strike):
        raise ClaimError(f"strike {strike!r} is not finite")
    k = rat(strike) if exact else float(strike)
    levels = tree.levels
    if kind in ("lookback", "asian"):
        xs = _mode_spots(tree, 0, exact)
        run = xs[:1] if kind == "lookback" else 0 + xs[:1]
        for level in levels[1:]:
            spots = xs[level.start : level.stop].reshape(len(run), -1)
            prev = run[:, None]
            run = (np.where(spots > prev, spots, prev) if kind == "lookback" else prev + spots).ravel()
    else:
        terminals = _mode_spots(tree, levels[-1].start, exact)
    if kind == "call":
        vals = _pos(terminals - k)
    elif kind == "abs":
        vals = np.abs(terminals)
    elif kind == "lookback":
        vals = _pos(run - k)
    elif kind == "asian":
        vals = _pos(run / (tree.depth + 1) - k)
    elif kind == "digital":
        one = rat(1) if exact else 1.0
        vals = np.where(terminals >= k, one, 0 * one)
    else:  # linear
        vals = terminals.copy()  # float mode: not a view of the tree's spots
    return NodeValues.from_array(leaves, vals)
