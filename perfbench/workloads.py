"""The benchmark's four workloads.

Each workload is closed-loop and single-threaded: it runs one item after
another through the package's public functions.  Items come in rounds.  A
round has a fixed composition (which tree shapes, which family classes), and
the run seed draws the instances that fill it, so runs on different seeds do
the same kind and amount of work.  Inputs are generated before an item is
timed, and outputs are checked after it, so neither is part of an item's
latency.

The package layers are called through their module attributes
(`oracle_lp.global_sup_lp`, not a name bound at import), so the traced run
sees every call the workloads make.
"""

from __future__ import annotations

import hashlib
import random

from robusthedge import (
    claims,
    dual_dp,
    market_tree,
    oracle_lp,
    primal_hedge,
    random_instances,
    suites,
)
from robusthedge.market_tree import NEG_INF
from robusthedge.measure_families import MARTINGALE, VAR_BOUNDED, FamilySpec

DUALITY_TOL = 1e-9
HEDGE_TOL = 1e-9
ENVELOPE_TOL = 1e-9


def _rng(*parts) -> random.Random:
    """Deterministic generator for one input, keyed by workload, seed, round
    and slot (string seeds are hashed with SHA-512, independent of
    PYTHONHASHSEED)."""
    return random.Random(":".join(str(p) for p in parts))


class Workload:
    name = ""
    # rounds in the fixed item set: the traced run's items and the digest's
    fixed_rounds = 1

    def round_items(self, seed: int, r: int) -> list:
        raise NotImplementedError

    def warmup_items(self, seed: int) -> list:
        raise NotImplementedError

    def run(self, item):
        raise NotImplementedError

    def check(self, item, out):
        """None when the output is correct, else a one-line reason."""
        raise NotImplementedError

    def weight(self, item) -> float:
        """How much of the workload's traffic the item stands for: timings
        are summed and ranked with these weights."""
        return 1.0

    def digest_line(self, item, out):
        """Exact text of the output to fold into the run digest, or None."""
        return None


# -- three-way duality on the criterion-1 generator ------------------------

# (branch, depth) pairs random_tree can draw (branch**depth <= 150)
TREE_SHAPES = ((2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (3, 4), (4, 2), (4, 3))
# exact mode keeps the shapes up to 27 leaves: a 64- or 81-leaf exact
# instance takes 2 s to 40 s, longer than a whole steady run allows
EXACT_TREE_SHAPES = tuple(s for s in TREE_SHAPES if s[0] ** s[1] <= 27)
FAMILY_CLASSES = (MARTINGALE, VAR_BOUNDED)
# random_family draws VAR_BOUNDED with probability 0.3, MARTINGALE otherwise.
# A round holds one item of each class per shape, so an item's weight is its
# class's share times the number of classes: timings then follow the
# generator's 7:3 mix while every round still covers both classes.
CLASS_WEIGHTS = {MARTINGALE: 2 * 0.7, VAR_BOUNDED: 2 * 0.3}
# Exact mode's median item lies among these strata, where few instances fall
# per millisecond of latency, so a run's median moved with the instances its
# seed drew.  A round holds this many instances of each, every one weighted
# down by the count: the weighted mix is unchanged and the median is read
# from more samples.  (branch, depth, class) -> instances per round.
EXACT_STRATUM_COUNTS = {(2, 3, MARTINGALE): 2, (4, 2, MARTINGALE): 6, (3, 2, VAR_BOUNDED): 4}


def draw_duality_instance(rng: random.Random, branch: int, depth: int, cls: str, exact: bool):
    """(tree, claim, family) from the criterion-1 generator, conditioned on
    the tree shape and the family class by rejection."""
    while True:
        tree = random_instances.random_tree(rng)
        if tree.depth != depth or len(tree.children(tree.root)) != branch:
            continue
        xi = random_instances.random_claim(tree, rng, exact=exact)
        fam = random_instances.random_family(tree, rng, exact=exact)
        if fam.cls == cls:
            return tree, xi, fam


class Duality(Workload):
    """DP root value == global leaf-law LP == primal hedging LP, plus the
    path-by-path superhedge check on MARTINGALE items."""

    def __init__(self, exact: bool):
        self.exact = exact
        self.name = "duality_exact" if exact else "duality_float"
        shapes = EXACT_TREE_SHAPES if exact else TREE_SHAPES
        self.strata = [(b, d, cls) for b, d in shapes for cls in FAMILY_CLASSES]
        self.counts = EXACT_STRATUM_COUNTS if exact else {}
        self.fixed_rounds = 2 if exact else 8

    def round_items(self, seed, r):
        return [
            draw_duality_instance(_rng(self.name, seed, r, b, d, cls, j), b, d, cls, self.exact)
            for b, d, cls in self.strata
            for j in range(self.counts.get((b, d, cls), 1))
        ]

    def warmup_items(self, seed):
        return [
            draw_duality_instance(_rng(self.name, seed, "warmup", cls), 2, 2, cls, self.exact)
            for cls in FAMILY_CLASSES
        ]

    def run(self, item):
        tree, xi, fam = item
        Y = dual_dp.backward_value(tree, xi, fam)
        dp = Y[tree.root]
        lp, _ = oracle_lp.global_sup_lp(tree, xi, fam, exact=self.exact)
        pv, _ = primal_hedge.primal_lp(tree, xi, fam, exact=self.exact)
        hedge = None
        if fam.cls == MARTINGALE and dp != NEG_INF:
            H = primal_hedge.extract_strategy(tree, Y, fam)
            hedge = primal_hedge.verify_superhedge(tree, dp, H, xi, fam)
        return dp, lp, pv, hedge

    def check(self, item, out):
        dp, lp, pv, hedge = out
        if NEG_INF in (dp, lp, pv):
            return None if dp == lp == pv else f"-inf mismatch dp={dp} lp={lp} primal={pv}"
        gap = max(abs(dp - lp), abs(dp - pv))
        if (gap != 0) if self.exact else not (gap <= DUALITY_TOL):
            return f"gap {gap}: dp={dp} lp={lp} primal={pv}"
        if hedge is not None and not (
            hedge.ok and (hedge.min_slack is None or hedge.min_slack >= -HEDGE_TOL)
        ):
            return f"superhedge failed, min slack {hedge.min_slack}"
        return None

    def weight(self, item):
        tree, _, fam = item
        count = self.counts.get((len(tree.children(tree.root)), tree.depth, fam.cls), 1)
        return CLASS_WEIGHTS[fam.cls] / count

    def digest_line(self, item, out):
        if not self.exact:
            return None
        dp, lp, pv, _ = out
        return f"{dp}|{lp}|{pv}"


# -- deep-tree hedge: tree, DP and hedge layers, no LP ---------------------

DEEP_TREES = (
    {"dim": 1, "depth": 10, "generator": {"kind": "trinomial"}},  # 88,573 nodes
    {"dim": 1, "depth": 7, "generator": {"kind": "explicit", "offsets": [-2, -1, 0, 1, 2]}},  # 97,656
)
DEEP_CLAIM_KINDS = ("lookback", "asian")
DEEP_WARMUP_TREE = {"dim": 1, "depth": 4, "generator": {"kind": "trinomial"}}


def _deep_claim(rng: random.Random) -> dict:
    return {"kind": rng.choice(DEEP_CLAIM_KINDS), "strike": rng.randint(-4, 4) / 2}


class DeepTreeHedge(Workload):
    """Build a ~1e5-node d = 1 tree, price a path-dependent claim over the
    martingale family by the DP, extract the hedge and verify it on every
    path.  One round is one item per tree shape."""

    name = "deep_tree_hedge"
    fixed_rounds = 1

    def round_items(self, seed, r):
        return [
            (spec, _deep_claim(_rng(self.name, seed, r, i)))
            for i, spec in enumerate(DEEP_TREES)
        ]

    def warmup_items(self, seed):
        return [(DEEP_WARMUP_TREE, _deep_claim(_rng(self.name, seed, "warmup")))]

    def run(self, item):
        spec, claim_spec = item
        tree = market_tree.build_tree(spec)
        xi = claims.make_claim(tree, claim_spec)
        fam = FamilySpec(cls=MARTINGALE)
        Y = dual_dp.backward_value(tree, xi, fam)
        H = primal_hedge.extract_strategy(tree, Y, fam)
        report = primal_hedge.verify_superhedge(tree, Y[tree.root], H, xi, fam)
        return tree, xi, Y, report

    def check(self, item, out):
        tree, xi, Y, report = out
        if not report.ok or report.min_slack < -HEDGE_TOL:
            return f"superhedge failed, min slack {report.min_slack}"
        # independent value field: upper concave envelope of the child values
        # at the node spot (monotone chain), node by node from the leaves up;
        # breadth-first ids put every child after its parent
        V = {}
        for nid in reversed(range(len(tree.nodes))):
            kids = tree.children(nid)
            if not kids:
                V[nid] = xi[nid]
            else:
                V[nid] = oracle_lp.upper_concave_envelope(
                    [(tree.spot1(c), V[c]) for c in kids], tree.spot1(nid)
                )
            if not abs(V[nid] - Y[nid]) <= ENVELOPE_TOL:
                return f"node {nid}: DP {Y[nid]} != envelope {V[nid]}"
        return None


# -- property suites -------------------------------------------------------

# one hundredth of run_all_suites' default instance counts, so each item keeps
# the default mix of suites
PROPTEST_COUNTS = {
    "closure": 2,
    "truncation": 1,
    "tower": 1,
    "supermartingale": 5,
    "ess_sup": 1,
    "upward": 2,
    "envelope": 10,
}
PROPTEST_WARMUP_COUNTS = {**{k: 1 for k in PROPTEST_COUNTS}, "ess_sup": 0}
PROPTEST_ROUND = 4  # run_all_suites calls per round


def _suite_seed(rng: random.Random) -> int:
    # run_all_suites(s) reads instance seeds s .. s + 9 + max count
    return rng.randrange(10**12)


class Proptest(Workload):
    """suites.run_all_suites at a drawn seed, every suite must pass."""

    name = "proptest"
    fixed_rounds = 8

    def round_items(self, seed, r):
        return [
            (_suite_seed(_rng(self.name, seed, r, i)), PROPTEST_COUNTS)
            for i in range(PROPTEST_ROUND)
        ]

    def warmup_items(self, seed):
        return [(_suite_seed(_rng(self.name, seed, "warmup")), PROPTEST_WARMUP_COUNTS)]

    def run(self, item):
        suite_seed, counts = item
        return suites.run_all_suites(suite_seed, counts)

    def check(self, item, out):
        bad = [r.summary_line() for r in out if not r.ok]
        return "; ".join(bad) if bad else None


WORKLOADS = {
    w.name: w for w in (Duality(exact=True), Duality(exact=False), DeepTreeHedge(), Proptest())
}


def digest(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]
