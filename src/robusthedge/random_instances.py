"""Seeded generators for the randomized property and oracle suites.

Offsets always straddle zero, so a martingale kernel exists at every node
and the randomized families are nonempty.  In exact mode all quantities are
small-denominator rationals so the LP oracles run fast and bit-exactly.
"""

from __future__ import annotations

import random
from typing import Optional

from .claims import make_claim
from .market_tree import MarketTree, build_tree
from .measure_families import (
    MARTINGALE,
    VAR_BOUNDED,
    FamilySpec,
    Kernel,
    TreeMeasure,
    kernel_variance,
)
from .simplex import RAT

CLAIM_KINDS = ("call", "abs", "lookback", "asian", "digital", "table")


def random_tree(rng: random.Random, max_depth: int = 4, max_branch: int = 4) -> MarketTree:
    while True:
        depth = rng.randint(2, max_depth)
        branch = rng.randint(2, max_branch)
        if branch**depth <= 150:  # keeps the exact-rational LPs fast
            break
    neg = sorted(rng.sample(range(-3, 0), 1))
    pos = sorted(rng.sample(range(1, 4), 1))
    rest = [v for v in range(-3, 4) if v not in neg + pos]
    extra = rng.sample(rest, branch - 2)
    offsets = sorted(neg + pos + extra)
    return build_tree(
        {"dim": 1, "depth": depth, "generator": {"kind": "explicit", "offsets": offsets}}
    )


def random_claim(tree: MarketTree, rng: random.Random, exact: bool = False, kind: Optional[str] = None) -> dict:
    kind = kind or rng.choice(CLAIM_KINDS)
    if kind == "table":
        if exact:
            return {leaf: RAT(rng.randint(-192, 192), 64) for leaf in tree.leaves}
        return {leaf: rng.uniform(-3.0, 3.0) for leaf in tree.leaves}
    strike = RAT(rng.randint(-4, 4), 2) if exact else rng.randint(-4, 4) / 2
    return make_claim(tree, {"kind": kind, "strike": strike}, exact=exact)


def random_family(tree: MarketTree, rng: random.Random, exact: bool = False, allow_var: bool = True) -> FamilySpec:
    if allow_var and rng.random() < 0.3:
        from .oracle_lp import enumerate_vertex_kernels

        # kernel variance is linear in the probabilities, so the achievable
        # range is spanned by the vertex variances; offsets are shared by all
        # nodes, so bounds feasible at the root are feasible everywhere
        verts = enumerate_vertex_kernels(tree, tree.root, FamilySpec(cls=MARTINGALE))
        vars_ = [kernel_variance(tree, v) for v in verts]
        v_min, v_max = min(vars_), max(vars_)
        span = v_max - v_min
        if v_max > 0:
            if exact:
                lo = v_min + span * RAT(rng.randint(0, 3), 10)
                hi = v_min + span * RAT(rng.randint(7, 10), 10)
                if span == 0:
                    lo, hi = v_max * RAT(9, 10), v_max
                if lo == 0:
                    lo = hi * RAT(1, 1000)
            else:
                lo = float(v_min) + float(span) * rng.uniform(0.0, 0.3)
                hi = float(v_min) + float(span) * rng.uniform(0.7, 1.0)
                if span == 0:
                    lo, hi = float(v_max) * 0.9, float(v_max)
                if lo == 0:
                    lo = hi * 1e-3
            return FamilySpec(cls=VAR_BOUNDED, var_lo=lo, var_hi=hi)
    return FamilySpec(cls=MARTINGALE)


def random_measure(tree: MarketTree, rng: random.Random, fam: FamilySpec, exact: bool = False, start: Optional[int] = None) -> TreeMeasure:
    """Random convex combination of vertex kernels at every node below `start`."""
    from .oracle_lp import enumerate_vertex_kernels

    start = tree.root if start is None else start
    kernels = {}
    for nid in tree.subtree_nodes(start):
        if tree.is_leaf(nid):
            continue
        verts = enumerate_vertex_kernels(tree, nid, fam.unrestricted())
        if not verts:
            raise ValueError(f"no feasible kernel at node {nid}")
        if exact:
            weights = [RAT(rng.randint(1, 16)) for _ in verts]
        else:
            weights = [rng.random() + 1e-3 for _ in verts]
        total = sum(weights)
        weights = [w / total for w in weights]
        probs = {}
        for w, v in zip(weights, verts):
            for c, p in v.probs.items():
                # float mode: float * float, bitwise what Fraction's reflected
                # multiply returns, without its type dispatch
                probs[c] = probs.get(c, 0) + w * (p if exact else float(p))
        kernels[nid] = Kernel(nid, {c: p for c, p in probs.items() if p > 0})
    return TreeMeasure(kernels)


def random_stopping_time(tree: MarketTree, rng: random.Random, start: Optional[int] = None, stop_prob: float = 0.35) -> set:
    """Antichain meeting every path below `start` exactly once."""
    start = tree.root if start is None else start
    out = set()
    stack = [start]
    while stack:
        nid = stack.pop()
        if tree.is_leaf(nid) or rng.random() < stop_prob:
            out.add(nid)
        else:
            stack.extend(tree.children(nid))
    return out


def random_ordered_stopping_pair(tree: MarketTree, rng: random.Random) -> tuple:
    """(sigma, tau) with sigma at or before tau on every path."""
    sigma = random_stopping_time(tree, rng)
    tau = set()
    for m in sigma:
        tau |= random_stopping_time(tree, rng, start=m)
    return sigma, tau
