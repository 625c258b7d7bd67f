"""Named payoffs on tree leaves.

A claim is a mapping leaf id -> value in [-inf, +inf); +inf never occurs.
Named payoffs read the first spot coordinate; explicit tables may contain
"-inf" entries to exercise the claim-restricted family.
"""

from __future__ import annotations

from typing import Mapping

from .market_tree import NEG_INF, MarketTree, repeat_each
from .simplex import rat

NAMED_KINDS = ("call", "abs", "lookback", "asian", "digital", "linear")


class ClaimError(ValueError):
    pass


def _pos(v):
    return v if v > 0 else 0 * v


def make_claim(tree: MarketTree, spec: Mapping, exact: bool = False) -> dict:
    """Build a claim from a JSON-style spec: {"kind": ..., "strike": k} or
    {"kind": "table", "values": {leaf_id: value | "-inf"}}."""
    kind = spec.get("kind")
    if kind == "table":
        values = spec["values"]
        out = {}
        for leaf in tree.leaves:
            key = str(leaf)
            if key not in values and leaf not in values:
                raise ClaimError(f"table claim misses leaf {leaf}")
            v = values.get(key, values.get(leaf))
            if v == "-inf":
                out[leaf] = NEG_INF
            else:
                out[leaf] = rat(v) if exact else float(v)
        return out
    if kind not in NAMED_KINDS:
        raise ClaimError(f"unknown claim kind {kind!r}")
    strike = spec.get("strike", 0)
    k = rat(strike) if exact else float(strike)
    conv = rat if exact else float
    xs = tree.coords[0]
    levels = tree.levels
    terminals = list(map(conv, xs[levels[-1].start : levels[-1].stop]))
    if kind in ("lookback", "asian"):
        # running max / running sum of the path spots, level by level from
        # the root (each parent's entry repeated for its k children); same
        # comparisons and additions as max() and sum() over the root-to-leaf
        # spot list
        x0 = conv(xs[0])
        run = [x0 if kind == "lookback" else 0 + x0]
        for level in levels[1:]:
            spots = terminals if level is levels[-1] else map(conv, xs[level.start : level.stop])
            prev = repeat_each(run, len(tree.offsets))
            if kind == "lookback":
                run = [s if s > p else p for s, p in zip(spots, prev)]
            else:
                run = [p + s for s, p in zip(spots, prev)]
    if kind == "call":
        vals = [_pos(x - k) for x in terminals]
    elif kind == "abs":
        vals = list(map(abs, terminals))
    elif kind == "lookback":
        vals = [_pos(r - k) for r in run]
    elif kind == "asian":
        n = tree.depth + 1
        vals = [_pos(r / n - k) for r in run]
    elif kind == "digital":
        one = rat(1) if exact else 1.0
        vals = [one if x >= k else 0 * one for x in terminals]
    else:  # linear
        vals = terminals
    return dict(zip(tree.leaves, vals))
