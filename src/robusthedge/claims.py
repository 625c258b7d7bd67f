"""Named payoffs on tree leaves.

A claim is a mapping leaf id -> value in [-inf, +inf); +inf never occurs.
Named payoffs read the first spot coordinate; explicit tables may contain
"-inf" entries to exercise the claim-restricted family.
"""

from __future__ import annotations

from typing import Mapping

from .market_tree import NEG_INF, MarketTree
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
    if kind in ("lookback", "asian"):
        # running max / running sum of the path spots, top-down in id order
        # (parents first); same comparisons and additions as max() and sum()
        # over the root-to-leaf spot list
        run = [None] * len(tree.nodes)
        for n in tree.nodes:
            s = conv(n.x[0])
            if n.parent is None:
                run[n.id] = s if kind == "lookback" else 0 + s
            elif kind == "lookback":
                prev = run[n.parent]
                run[n.id] = s if s > prev else prev
            else:
                run[n.id] = run[n.parent] + s
    out = {}
    for leaf in tree.leaves:
        terminal = conv(tree.spot(leaf)[0])
        if kind == "call":
            out[leaf] = _pos(terminal - k)
        elif kind == "abs":
            out[leaf] = abs(terminal)
        elif kind == "lookback":
            out[leaf] = _pos(run[leaf] - k)
        elif kind == "asian":
            avg = run[leaf] / (tree.node(leaf).t + 1)
            out[leaf] = _pos(avg - k)
        elif kind == "digital":
            one = rat(1) if exact else 1.0
            out[leaf] = one if terminal >= k else 0 * one
        elif kind == "linear":
            out[leaf] = terminal
    return out
