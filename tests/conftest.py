import json
import random
from fractions import Fraction

import pytest

from robusthedge import oracle_lp
from robusthedge.dual_dp import one_step_sup
from robusthedge.market_tree import NEG_INF, build_tree
from robusthedge.measure_families import Kernel, TreeMeasure


@pytest.fixture(autouse=True)
def fresh_leaf_law_memo():
    """Every test starts with an empty leaf-law LP memo, so one that
    intercepts `simplex.solve` sees the solve even when an earlier test
    solved the same LP."""
    oracle_lp._solved_leaf_law.cache_clear()


@pytest.fixture
def binomial1():
    return build_tree({"dim": 1, "depth": 1, "generator": {"kind": "binomial"}})


@pytest.fixture
def binomial2():
    return build_tree({"dim": 1, "depth": 2, "generator": {"kind": "binomial"}})


@pytest.fixture
def trinomial1():
    return build_tree({"dim": 1, "depth": 1, "generator": {"kind": "trinomial"}})


@pytest.fixture
def trinomial2():
    return build_tree({"dim": 1, "depth": 2, "generator": {"kind": "trinomial"}})


def fair_measure(tree):
    """Uniform kernel at every internal node."""
    kernels = {}
    for nid in tree.internal_nodes:
        ch = tree.children(nid)
        kernels[nid] = Kernel(nid, {c: 1.0 / len(ch) for c in ch})
    return TreeMeasure(kernels)


def all_paths(tree):
    """Every root-to-leaf path as its list of node ids, in leaf order."""
    return [tree.path_to(leaf) for leaf in tree.leaves]


def seeded(i=0):
    return random.Random(20260823 + i)


class DictField(dict):
    """A value field as a plain dict, with the multipliers in a dict `hedge`
    and the numeric mode in `exact`."""

    def __init__(self, exact):
        super().__init__()
        self.hedge, self.exact = {}, exact


def exact_spec(spec):
    """`spec` as `--exact` reads it from a config: decimals become the
    rationals they spell."""
    return json.loads(json.dumps(spec), parse_float=Fraction)


def claim_is_exact(xi):
    """The numeric mode of a claim: exact iff no finite value is a float."""
    return not any(isinstance(v, float) and v != NEG_INF for v in xi.values())


def per_node_field(tree, xi, fam):
    """The reference for the level pass: the value field from one
    `one_step_sup` per internal node, in descending ids, kept in dicts."""
    exact = claim_is_exact(xi)
    Y = DictField(exact)
    for nid in reversed(tree.nodes):
        if tree.is_leaf(nid):
            Y[nid] = xi[nid]
        else:
            sol = one_step_sup(tree, nid, Y, fam, exact=exact)
            Y[nid] = sol.value
            Y.hedge[nid] = sol.h
    return Y


def in_id_order(values):
    """`repr` of a dict as the dict of its items in id order, the order in
    which a `NodeValues` lists them."""
    return repr(dict(sorted(values.items())))
